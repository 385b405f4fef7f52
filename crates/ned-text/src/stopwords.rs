//! Stopword list used when building mention contexts (§3.3.4: "all tokens in
//! the entire input text (except stopwords and the mention itself)").

use std::sync::OnceLock;

use crate::fx::FxHashSet;
use crate::normalize::with_lowercase;

/// English function words plus a handful of high-frequency verbs. The list is
/// intentionally small — the weighting schemes (IDF/NPMI) downweight anything
/// the list misses.
pub(crate) const STOPWORDS: &[&str] = &[
    "a", "an", "the", "this", "that", "these", "those", "some", "any", "each", "every", "no",
    "and", "or", "but", "nor", "so", "yet", "if", "then", "else", "when", "while", "because",
    "as", "until", "although", "though", "after", "before", "since", "unless", "whereas",
    "of", "in", "on", "at", "by", "for", "with", "about", "against", "between", "into",
    "through", "during", "above", "below", "to", "from", "up", "down", "out", "off", "over",
    "under", "again", "further", "once", "here", "there", "where", "why", "how", "all", "both",
    "few", "more", "most", "other", "such", "only", "own", "same", "than", "too", "very",
    "i", "me", "my", "mine", "we", "us", "our", "ours", "you", "your", "yours", "he", "him",
    "his", "she", "her", "hers", "it", "its", "they", "them", "their", "theirs", "who", "whom",
    "whose", "which", "what",
    "am", "is", "are", "was", "were", "be", "been", "being", "have", "has", "had", "having",
    "do", "does", "did", "doing", "will", "would", "shall", "should", "can", "could", "may",
    "might", "must", "not", "n't", "'s", "'re", "'ve", "'ll", "'d",
    "said", "say", "says", "also", "just", "now", "new", "one", "two", "first", "last",
];

/// The list as an Fx-hashed set: `is_stopword` runs once per word token of
/// every document, and the list is fixed, so SipHash buys nothing.
fn set() -> &'static FxHashSet<&'static str> {
    static SET: OnceLock<FxHashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| STOPWORDS.iter().copied().collect())
}

/// True if `word` (case-insensitively) is a stopword.
pub fn is_stopword(word: &str) -> bool {
    if set().contains(word) {
        return true;
    }
    // An ASCII word with no uppercase letter is its own lowercase.
    if word.bytes().all(|b| b.is_ascii() && !b.is_ascii_uppercase()) {
        return false;
    }
    with_lowercase(word, |lower| set().contains(lower))
}

/// Number of entries in the stopword list.
pub fn stopword_count() -> usize {
    set().len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn common_function_words_are_stopwords() {
        for w in ["the", "of", "and", "is", "The", "OF"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
        for w in STOPWORDS {
            assert!(is_stopword(&w.to_uppercase()), "{w} should be a stopword in any case");
        }
    }

    #[test]
    fn content_words_are_not_stopwords() {
        // Non-ASCII words take the lowercasing lookup: "İt" lowercases to
        // "i\u{307}t", and a fullwidth "Ａnd" to "ａnd".
        for w in ["guitarist", "Kashmir", "record", "song", "İt", "Ａnd", "Über"] {
            assert!(!is_stopword(w), "{w} should not be a stopword");
        }
    }

    #[test]
    fn list_has_no_duplicates() {
        assert_eq!(stopword_count(), STOPWORDS.len());
    }

    /// The definition `is_stopword` is held to: the word or its
    /// `to_lowercase()` is on the list.
    fn reference_is_stopword(word: &str) -> bool {
        STOPWORDS.contains(&word) || STOPWORDS.contains(&word.to_lowercase().as_str())
    }

    /// Stopwords in one of four cases (as written, lower, upper,
    /// capitalized), the Kelvin sign, `İ`, ASCII words of 32 and 33 bytes
    /// and arbitrary Unicode scalar values, glued from `(kind, value)`
    /// draws.
    fn word(draws: &[(u32, u32)]) -> String {
        let mut out = String::new();
        for &(kind, value) in draws {
            let stopword = STOPWORDS[value as usize % STOPWORDS.len()];
            match kind {
                0 => out.push_str(stopword),
                1 => out.push_str(&stopword.to_uppercase()),
                2 => {
                    let mut chars = stopword.chars();
                    out.extend(chars.next().map(|c| c.to_ascii_uppercase()));
                    out.extend(chars);
                }
                3 => out.push_str(["\u{212a}", "\u{130}", "I", "K"][value as usize % 4]),
                4 => out.push_str(&"Ab".repeat(17)[..32 + (value % 2) as usize]),
                _ => out.extend(char::from_u32(value)),
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The stack-buffer lookup decides like the `to_lowercase()`
        /// definition.
        #[test]
        fn is_stopword_matches_its_to_lowercase_definition(
            draws in proptest::collection::vec((0u32..6, 0u32..0x11_0000), 1..3),
        ) {
            let w = word(&draws);
            prop_assert_eq!(is_stopword(&w), reference_is_stopword(&w), "{:?}", w);
        }
    }
}
