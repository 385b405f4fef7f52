//! Dense integer identifiers for entities, names, words, and phrases.
//!
//! All knowledge-base objects are referred to by `u32` newtypes, which keeps
//! hot structures compact (see the type-size guidance in the performance
//! guide) and makes hashing cheap.

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Converts the id to a `usize` index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Creates an id from a `usize` index.
            ///
            /// # Panics
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                assert!(index <= u32::MAX as usize, "id overflow: {index}");
                $name(index as u32)
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

define_id!(
    /// Identifier of a canonical entity in the repository.
    EntityId
);
define_id!(
    /// Identifier of a surface name in the dictionary.
    NameId
);
define_id!(
    /// Identifier of an interned word (keyword).
    WordId
);
define_id!(
    /// Identifier of an interned keyphrase (sequence of words).
    PhraseId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let e = EntityId::from_index(42);
        assert_eq!(e.index(), 42);
        assert_eq!(usize::from(e), 42);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(WordId(1) < WordId(2));
    }

    #[test]
    #[should_panic(expected = "id overflow")]
    fn overflow_panics() {
        let _ = PhraseId::from_index(usize::MAX);
    }
}
