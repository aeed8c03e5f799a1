//! Minimal, panic-free binary codec for the WAL and snapshot files.
//!
//! The workspace deliberately carries no serialization dependency, so
//! durable payloads are written with this hand-rolled byte writer/reader
//! pair: fixed-width little-endian integers, length-prefixed UTF-8
//! strings, and strict `0`/`1` booleans. Every read returns `Option` —
//! a truncated or bit-flipped file must surface as `None`, never as a
//! panic — and string/byte lengths are validated against the remaining
//! input before allocating, so a corrupt length field cannot trigger a
//! huge allocation.

/// Append-only byte buffer writer.
#[derive(Clone, Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.put_u64(v as u64);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor over an immutable byte slice; all reads are bounds-checked.
#[derive(Clone, Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    pub fn get_u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// Strict boolean: anything other than 0 or 1 is corruption.
    pub fn get_bool(&mut self) -> Option<bool> {
        match self.get_u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    pub fn get_u32(&mut self) -> Option<u32> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Some(u32::from_le_bytes(b))
    }

    pub fn get_u64(&mut self) -> Option<u64> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Some(u64::from_le_bytes(b))
    }

    pub fn get_i64(&mut self) -> Option<i64> {
        self.get_u64().map(|v| v as i64)
    }

    pub fn get_f64(&mut self) -> Option<f64> {
        self.get_u64().map(f64::from_bits)
    }

    pub fn get_bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.get_u64()?;
        if len > self.remaining() as u64 {
            return None;
        }
        self.take(len as usize)
    }

    pub fn get_str(&mut self) -> Option<String> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes).ok().map(str::to_string)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_primitives() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_f64(3.5);
        w.put_str("héllo");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_bool(), Some(true));
        assert_eq!(r.get_bool(), Some(false));
        assert_eq!(r.get_u32(), Some(0xdead_beef));
        assert_eq!(r.get_u64(), Some(u64::MAX));
        assert_eq!(r.get_i64(), Some(-42));
        assert_eq!(r.get_f64(), Some(3.5));
        assert_eq!(r.get_str().as_deref(), Some("héllo"));
        assert_eq!(r.get_bytes(), Some(&[1u8, 2, 3][..]));
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_input_yields_none() {
        let mut w = ByteWriter::new();
        w.put_u64(123);
        w.put_str("payload");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            // Either the u64 or the string must fail before `cut` bytes
            // run out; nothing may panic.
            let got_u64 = r.get_u64();
            let got_str = r.get_str();
            if cut < bytes.len() {
                assert!(got_u64.is_none() || got_str.is_none());
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX); // claims a huge string
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_str(), None);
        assert_eq!(ByteReader::new(&bytes).get_bytes(), None);
    }

    #[test]
    fn invalid_bool_and_utf8_are_rejected() {
        let mut r = ByteReader::new(&[2]);
        assert_eq!(r.get_bool(), None);
        let mut w = ByteWriter::new();
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).get_str(), None);
    }
}
