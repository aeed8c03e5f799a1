//! Stable 64-bit content fingerprints.
//!
//! The incremental engine (`ur-query`) keys persisted cache entries by
//! fingerprints that must be **stable across processes, platforms, and
//! Rust releases**. `std::collections::hash_map::DefaultHasher` makes no
//! such promise, so this module hand-rolls FNV-1a with a splitmix64
//! finalizer: FNV gives cheap, well-understood byte mixing; the final
//! avalanche pass compensates for FNV's weak high bits so fingerprints
//! can be truncated or xor-combined safely.
//!
//! Framing matters: multi-field hashes must not collide under
//! concatenation shuffles (`"ab" + "c"` vs `"a" + "bc"`), so
//! [`Fnv64::write_str`] length-prefixes its input and the combinators in
//! this module always write fixed-width little-endian integers.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// splitmix64 finalizer: a fast, high-quality avalanche permutation.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Incremental FNV-1a hasher with stable output.
#[derive(Clone, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64 { state: FNV_OFFSET }
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Length-prefixed string write, so consecutive strings cannot be
    /// re-split without changing the hash.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Finishes with an avalanche pass; does not consume the hasher.
    pub fn finish(&self) -> u64 {
        splitmix64(self.state)
    }
}

/// Fingerprint of a byte slice.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Fingerprint of a string (framed, so `hash_str(s)` differs from
/// `hash_bytes(s.as_bytes())`).
pub fn hash_str(s: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(s);
    h.finish()
}

/// Order-dependent combination of two fingerprints.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(a);
    h.write_u64(b);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_str("val x = 5"), hash_str("val x = 5"));
        assert_eq!(hash_bytes(b"abc"), hash_bytes(b"abc"));
        let mut a = Fnv64::new();
        a.write_u64(7);
        a.write_str("x");
        let mut b = Fnv64::new();
        b.write_u64(7);
        b.write_str("x");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn distinguishes_nearby_inputs() {
        assert_ne!(hash_str("a"), hash_str("b"));
        assert_ne!(hash_str(""), hash_bytes(b""));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
    }

    #[test]
    fn string_framing_prevents_resplits() {
        let mut a = Fnv64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn mix_is_order_dependent() {
        let (a, b) = (hash_str("left"), hash_str("right"));
        assert_ne!(mix(a, b), mix(b, a));
        assert_ne!(mix(a, b), a);
        assert_ne!(mix(a, b), b);
    }

    #[test]
    fn finish_does_not_consume_state() {
        let mut h = Fnv64::new();
        h.write_str("one");
        let first = h.finish();
        assert_eq!(first, h.finish());
        h.write_str("two");
        assert_ne!(first, h.finish());
    }
}
