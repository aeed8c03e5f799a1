//! Interned symbols with globally unique identities.
//!
//! Every binder in elaborated core syntax carries a [`Sym`]. Two symbols are
//! equal exactly when their unique ids are equal; the textual name is kept
//! only for display (as an arena-interned [`IStr`], which makes `Sym`
//! `Copy + Send`). Elaboration freshens all binders, so symbol identity
//! doubles as a cheap alpha-equivalence discipline, while substitution still
//! freshens defensively (see [`crate::subst`]).

use crate::arena::IStr;
use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};

static NEXT_SYM: AtomicU32 = AtomicU32::new(1);

/// A named symbol with a globally unique id.
///
/// Equality, ordering, and hashing consider only the id. The id supply is
/// process-global, so symbols minted on different worker threads can never
/// collide and terms carrying them may cross threads freely.
///
/// ```
/// use ur_core::sym::Sym;
/// let a = Sym::fresh("x");
/// let b = Sym::fresh("x");
/// assert_ne!(a, b);
/// assert_eq!(a.name(), b.name());
/// ```
#[derive(Clone, Copy)]
pub struct Sym {
    name: IStr,
    id: u32,
}

impl Sym {
    /// Creates a new symbol with a fresh unique id.
    pub fn fresh(name: impl Into<IStr>) -> Sym {
        Sym {
            name: name.into(),
            id: NEXT_SYM.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Creates a fresh symbol reusing this symbol's textual name.
    ///
    /// Used by capture-avoiding substitution to rename binders.
    pub fn rename(&self) -> Sym {
        Sym {
            name: self.name,
            id: NEXT_SYM.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The textual (source) name.
    pub fn name(&self) -> &'static str {
        self.name.as_str()
    }

    /// The unique id.
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl PartialEq for Sym {
    fn eq(&self, other: &Sym) -> bool {
        self.id == other.id
    }
}

impl Eq for Sym {}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Sym) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Sym) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

impl std::hash::Hash for Sym {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.name, self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fresh_symbols_are_distinct() {
        let syms: Vec<Sym> = (0..100).map(|_| Sym::fresh("a")).collect();
        let ids: HashSet<u32> = syms.iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), 100);
    }

    #[test]
    fn rename_preserves_name() {
        let a = Sym::fresh("widget");
        let b = a.rename();
        assert_eq!(b.name(), "widget");
        assert_ne!(a, b);
    }

    #[test]
    fn display_shows_name_only() {
        let a = Sym::fresh("nm");
        assert_eq!(a.to_string(), "nm");
    }

    #[test]
    fn debug_includes_id() {
        let a = Sym::fresh("nm");
        assert!(format!("{a:?}").starts_with("nm#"));
    }

    #[test]
    fn hash_and_eq_agree() {
        let a = Sym::fresh("x");
        let a2 = a;
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&a2));
    }

    #[test]
    fn syms_are_copy_and_send() {
        fn assert_copy_send<T: Copy + Send + Sync>() {}
        assert_copy_send::<Sym>();
    }
}
