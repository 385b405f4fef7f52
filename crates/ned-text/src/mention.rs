//! The mention model shared by all disambiguation components.

/// A recognized named-entity mention in a document.
///
/// A mention is a surface phrase (e.g. "Kashmir", "Jimmy Page") together
/// with its token range in the tokenized document. Disambiguators map each
/// mention either to a knowledge-base entity or to an out-of-KB placeholder.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Mention {
    /// Surface form exactly as it appears in the text.
    pub surface: String,
    /// Index of the first token of the mention.
    pub token_start: usize,
    /// Index one past the last token of the mention.
    pub token_end: usize,
}

impl Mention {
    /// Creates a mention covering tokens `[token_start, token_end)`.
    pub fn new(surface: impl Into<String>, token_start: usize, token_end: usize) -> Self {
        let surface = surface.into();
        assert!(token_start < token_end, "mention must cover at least one token");
        Mention { surface, token_start, token_end }
    }

    /// Number of tokens the mention covers.
    pub fn token_len(&self) -> usize {
        self.token_end - self.token_start
    }

    /// True if `index` lies inside the mention's token range.
    pub fn covers(&self, index: usize) -> bool {
        (self.token_start..self.token_end).contains(&index)
    }

    /// True if this mention overlaps `other` in token space.
    pub fn overlaps(&self, other: &Mention) -> bool {
        self.token_start < other.token_end && other.token_start < self.token_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let m = Mention::new("Jimmy Page", 3, 5);
        assert_eq!(m.token_len(), 2);
        assert!(m.covers(3));
        assert!(m.covers(4));
        assert!(!m.covers(5));
    }

    #[test]
    fn overlap_detection() {
        let a = Mention::new("a", 0, 2);
        let b = Mention::new("b", 1, 3);
        let c = Mention::new("c", 2, 4);
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    #[should_panic(expected = "at least one token")]
    fn empty_mention_panics() {
        Mention::new("x", 2, 2);
    }
}
