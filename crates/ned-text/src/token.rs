//! Token model shared by the tokenizer, tagger, and recognizers.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

/// Coarse lexical class of a token, determined at tokenization time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Alphabetic word (may contain internal hyphens or apostrophes).
    Word,
    /// Numeric literal, possibly with separators ("1,393", "82.03").
    Number,
    /// A single punctuation character.
    Punct,
}

impl TokenKind {
    /// All kinds, in declaration order.
    pub const ALL: [TokenKind; 3] = [TokenKind::Word, TokenKind::Number, TokenKind::Punct];
}

/// A single token with its surface text and byte span in the source string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Surface form exactly as it appears in the input.
    pub text: TokenText,
    /// Byte offset of the first byte of the token in the source string.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
    /// Coarse lexical class.
    pub kind: TokenKind,
}

impl Token {
    /// Creates a token; `end` is derived from `start` and the text length.
    /// A text of at most [`TokenText::INLINE_BYTES`] bytes is stored inside
    /// the token, so building one from a `&str` allocates nothing.
    pub fn new(text: impl Into<TokenText>, start: usize, kind: TokenKind) -> Self {
        let text = text.into();
        let end = start + text.len();
        Token { text, start, end, kind }
    }

    /// True if every alphabetic character in the token is uppercase and the
    /// token contains at least one alphabetic character ("USA", "NSA").
    pub fn is_all_uppercase(&self) -> bool {
        is_all_uppercase(&self.text)
    }

    /// True if the token starts with an uppercase alphabetic character.
    pub fn is_capitalized(&self) -> bool {
        is_capitalized(&self.text)
    }
}

/// [`Token::is_all_uppercase`] of a token whose text is `text`, for loops
/// that read a token's text once.
pub fn is_all_uppercase(text: &str) -> bool {
    let mut saw_alpha = false;
    for ch in text.chars() {
        if ch.is_alphabetic() {
            saw_alpha = true;
            if !ch.is_uppercase() {
                return false;
            }
        }
    }
    saw_alpha
}

/// [`Token::is_capitalized`] of a token whose text is `text`.
pub fn is_capitalized(text: &str) -> bool {
    text.chars().next().is_some_and(|c| c.is_uppercase())
}

/// The text of a [`Token`] in 24 bytes: a text of up to
/// [`TokenText::INLINE_BYTES`] bytes is stored inline, a longer one in a
/// `Box<str>`. It derefs to `str`, and compares, orders, hashes and
/// prints exactly like the `str` it holds.
#[derive(Clone)]
pub struct TokenText(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `bytes` are the text; the rest are zero.
    Inline { len: u8, bytes: [u8; TokenText::INLINE_BYTES] },
    Boxed(Box<str>),
}

impl TokenText {
    /// The longest text stored inline: the tag and length bytes fill the
    /// other two of the 24.
    pub const INLINE_BYTES: usize = 22;

    /// The text as a `str`. An inline text is checked as UTF-8 on every
    /// call (no `unsafe` here); it was a `str` when it was stored, so the
    /// empty fallback is never taken.
    #[inline]
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => bytes
                .get(..usize::from(*len))
                .and_then(|b| std::str::from_utf8(b).ok())
                .unwrap_or_default(),
            Repr::Boxed(text) => text,
        }
    }

    /// True when the text is stored inline, not boxed.
    pub fn is_inline(&self) -> bool {
        matches!(self.0, Repr::Inline { .. })
    }

    fn inline(text: &str) -> Option<Self> {
        let len = u8::try_from(text.len()).ok().filter(|&n| usize::from(n) <= Self::INLINE_BYTES)?;
        let mut bytes = [0u8; Self::INLINE_BYTES];
        for (dst, &src) in bytes.iter_mut().zip(text.as_bytes()) {
            *dst = src;
        }
        Some(TokenText(Repr::Inline { len, bytes }))
    }
}

impl From<&str> for TokenText {
    fn from(text: &str) -> Self {
        Self::inline(text).unwrap_or_else(|| TokenText(Repr::Boxed(text.into())))
    }
}

impl From<String> for TokenText {
    /// Reuses the string's buffer for a text too long to store inline.
    fn from(text: String) -> Self {
        Self::inline(&text).unwrap_or_else(|| TokenText(Repr::Boxed(text.into_boxed_str())))
    }
}

impl Deref for TokenText {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for TokenText {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for TokenText {}

impl PartialOrd for TokenText {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TokenText {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for TokenText {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

/// `TokenText == str`-like comparisons in both directions.
macro_rules! eq_str {
    ($($other:ty),*) => {$(
        impl PartialEq<$other> for TokenText {
            fn eq(&self, other: &$other) -> bool {
                self.as_str() == AsRef::<str>::as_ref(other)
            }
        }

        impl PartialEq<TokenText> for $other {
            fn eq(&self, other: &TokenText) -> bool {
                AsRef::<str>::as_ref(self) == other.as_str()
            }
        }
    )*};
}

eq_str!(str, &str, String);

impl fmt::Debug for TokenText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for TokenText {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_derives_end_from_text_length() {
        let t = Token::new("Dylan", 4, TokenKind::Word);
        assert_eq!(t.start, 4);
        assert_eq!(t.end, 9);
    }

    #[test]
    fn all_uppercase_detection() {
        assert!(Token::new("USA", 0, TokenKind::Word).is_all_uppercase());
        assert!(Token::new("U.S.A", 0, TokenKind::Word).is_all_uppercase());
        assert!(!Token::new("Usa", 0, TokenKind::Word).is_all_uppercase());
        assert!(!Token::new("123", 0, TokenKind::Number).is_all_uppercase());
    }

    #[test]
    fn capitalization_detection() {
        assert!(Token::new("Page", 0, TokenKind::Word).is_capitalized());
        assert!(!Token::new("page", 0, TokenKind::Word).is_capitalized());
        assert!(!Token::new("1976", 0, TokenKind::Number).is_capitalized());
    }

    /// The text sits in the 24 bytes a `String` took, so a token stays 48.
    #[test]
    fn token_layout_is_48_bytes() {
        assert_eq!(std::mem::size_of::<TokenText>(), 24);
        assert_eq!(std::mem::size_of::<Token>(), 48);
    }

    #[test]
    fn texts_up_to_the_inline_limit_are_inline() {
        let fits = "x".repeat(TokenText::INLINE_BYTES);
        let long = "x".repeat(TokenText::INLINE_BYTES + 1);
        assert!(TokenText::from(fits.as_str()).is_inline());
        assert!(TokenText::from(fits).is_inline());
        assert!(!TokenText::from(long.as_str()).is_inline());
        assert!(!TokenText::from(long).is_inline());
        assert!(TokenText::from("").is_inline());
    }
}
