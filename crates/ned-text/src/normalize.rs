//! Name-matching normalization rules of §3.3.2.
//!
//! AIDA matches mentions against entity names as follows: names of three or
//! fewer characters are matched case-sensitively (to keep "US" distinct from
//! "us"); longer names are matched after upper-casing both sides, so the
//! all-upper-case mention "APPLE" still retrieves the entity named "Apple".
//!
//! The lookups that apply these rules run once per mention or per context
//! word, so [`with_match_key`] and [`with_lowercase`] build the key of an
//! ASCII name or word in a stack buffer instead of a fresh string.

/// Length threshold (in characters) at or below which matching is
/// case-sensitive.
pub const CASE_SENSITIVE_MAX_CHARS: usize = 3;

/// Normalized lookup key for a mention or entity name.
///
/// Returns the name unchanged when it has [`CASE_SENSITIVE_MAX_CHARS`] or
/// fewer characters, and the upper-cased form otherwise. Two names match iff
/// their keys are equal.
pub fn match_key(name: &str) -> String {
    if name.chars().count() <= CASE_SENSITIVE_MAX_CHARS {
        name.to_string()
    } else {
        name.to_uppercase()
    }
}

/// True if mention surface `mention` matches entity name `name` under the
/// §3.3.2 rules.
pub fn names_match(mention: &str, name: &str) -> bool {
    match_key(mention) == match_key(name)
}

/// Calls `f` with the dictionary key of a mention surface,
/// `match_key(&squash_whitespace(surface))`. The key of an ASCII surface
/// whose squashed form has at most 64 bytes is built in a stack buffer, so
/// the lookup allocates nothing; any other surface takes the two
/// allocating steps.
pub fn with_match_key<R>(surface: &str, f: impl FnOnce(&str) -> R) -> R {
    let mut buf = [0u8; STACK_KEY_BYTES];
    match ascii_match_key(surface, &mut buf) {
        Some(key) => f(key),
        None => f(&match_key(&squash_whitespace(surface))),
    }
}

/// Longest squashed ASCII surface whose match key [`with_match_key`] builds
/// in a stack buffer.
const STACK_KEY_BYTES: usize = 64;

/// `match_key(&squash_whitespace(surface))` written into `buf`, when
/// `surface` is ASCII and its squashed form fits. For ASCII, characters
/// are bytes and upper-casing is `to_ascii_uppercase`; whitespace is what
/// `char::is_whitespace` says, as in [`squash_whitespace`] (so a vertical
/// tab counts, unlike `u8::is_ascii_whitespace`).
fn ascii_match_key<'b>(surface: &str, buf: &'b mut [u8; STACK_KEY_BYTES]) -> Option<&'b str> {
    if !surface.is_ascii() {
        return None;
    }
    let mut len = 0usize;
    let mut space_pending = false;
    for b in surface.bytes() {
        if char::from(b).is_whitespace() {
            space_pending = len > 0;
            continue;
        }
        if space_pending {
            *buf.get_mut(len)? = b' ';
            len += 1;
            space_pending = false;
        }
        *buf.get_mut(len)? = b;
        len += 1;
    }
    let key = buf.get_mut(..len)?;
    if len > CASE_SENSITIVE_MAX_CHARS {
        key.make_ascii_uppercase();
    }
    std::str::from_utf8(key).ok()
}

/// Longest word [`ascii_lowercase`] lowercases in a stack buffer; longer
/// and non-ASCII words are lowercased on the heap.
const STACK_WORD_BYTES: usize = 32;

/// `word` lowercased into `buf`, when it is ASCII and fits: then the same
/// string as `word.to_lowercase()`, with no allocation.
fn ascii_lowercase<'b>(word: &str, buf: &'b mut [u8; STACK_WORD_BYTES]) -> Option<&'b str> {
    if !word.is_ascii() {
        return None;
    }
    let out = buf.get_mut(..word.len())?;
    out.copy_from_slice(word.as_bytes());
    out.make_ascii_lowercase();
    std::str::from_utf8(out).ok()
}

/// Calls `f` with `word.to_lowercase()`. For an ASCII word of at most 32
/// bytes it is built in a stack buffer, so keyword and stopword lookups of
/// such words allocate nothing.
pub fn with_lowercase<R>(word: &str, f: impl FnOnce(&str) -> R) -> R {
    let mut buf = [0u8; STACK_WORD_BYTES];
    match ascii_lowercase(word, &mut buf) {
        Some(lower) => f(lower),
        None => f(&word.to_lowercase()),
    }
}

/// Collapses internal runs of whitespace to single spaces and trims the ends;
/// used before dictionary lookups of multi-word surface forms.
pub fn squash_whitespace(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    let mut last_was_space = true;
    for ch in name.chars() {
        if ch.is_whitespace() {
            if !last_was_space {
                out.push(' ');
                last_was_space = true;
            }
        } else {
            out.push(ch);
            last_was_space = false;
        }
    }
    if out.ends_with(' ') {
        out.pop();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn short_names_are_case_sensitive() {
        assert!(!names_match("US", "us"));
        assert!(names_match("US", "US"));
        assert!(!names_match("Us", "US"));
    }

    #[test]
    fn long_names_are_case_insensitive() {
        assert!(names_match("APPLE", "Apple"));
        assert!(names_match("apple", "Apple"));
        assert!(names_match("KASHMIR", "Kashmir"));
    }

    #[test]
    fn boundary_is_three_characters() {
        // Exactly 3 characters: case-sensitive.
        assert!(!names_match("CIA", "cia"));
        // 4 characters: case-insensitive.
        assert!(names_match("NATO", "nato"));
    }

    #[test]
    fn multichar_unicode_counts_chars_not_bytes() {
        // "ÜÄÖ" is 3 characters (6 bytes): still case-sensitive.
        assert!(!names_match("ÜÄÖ", "üäö"));
    }

    #[test]
    fn squash_whitespace_normalizes() {
        assert_eq!(squash_whitespace("  New   York  "), "New York");
        assert_eq!(squash_whitespace("a\tb\nc"), "a b c");
        assert_eq!(squash_whitespace(""), "");
    }

    /// The allocating definition of the dictionary key.
    fn reference_key(surface: &str) -> String {
        match_key(&squash_whitespace(surface))
    }

    #[test]
    fn stack_keys_cover_the_boundary_cases() {
        for surface in [
            "",
            " ",
            "us",
            "US",
            "\tCIA ",
            "NATO",
            " new \x0b\x0c york\r\n",
            "a b",
            "a  b ",
            "Stra\u{df}e",
            "New\u{a0}York",
            "ab\u{2003}c",
        ] {
            let key = with_match_key(surface, str::to_string);
            assert_eq!(key, reference_key(surface), "{surface:?}");
        }
        let long = "x".repeat(STACK_KEY_BYTES + 1);
        assert_eq!(with_match_key(&long, str::to_string), reference_key(&long));
        let fits = format!("  {}  ", "y".repeat(STACK_KEY_BYTES));
        assert_eq!(with_match_key(&fits, str::to_string), reference_key(&fits));
    }

    /// Pieces the test strings are made of: ASCII letters of both cases,
    /// ASCII whitespace (space, tab, vertical tab, newline), NBSP, an em
    /// space, `ß` (upper-cases to "SS"), the Kelvin sign (lowercases to an
    /// ASCII `k`) and `İ` (lowercases to two characters).
    const PIECES: &[&str] = &[
        "a", "b", "c", "A", "B", "C", " ", " ", "\t", "\u{b}", "\n", "\u{a0}", "\u{2003}",
        "\u{df}", "\u{212a}", "\u{130}",
    ];

    /// A string from `(kind, value)` draws: a piece of [`PIECES`], an ASCII
    /// character, a BMP character or any Unicode scalar value (control
    /// characters included). Draws that are not scalar values are skipped.
    fn text(draws: &[(u32, u32)]) -> String {
        let mut out = String::new();
        for &(kind, value) in draws {
            let code = match kind {
                0..=3 => {
                    out.push_str(PIECES[value as usize % PIECES.len()]);
                    continue;
                }
                4 => value % 0x80,
                5 => value % 0x1_0000,
                _ => value,
            };
            out.extend(char::from_u32(code));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The stack-buffer key is the allocating one on arbitrary Unicode
        /// and on ASCII surfaces: squashed whitespace runs, keys of at most
        /// 3 and of more than 3 characters, and surfaces longer than the
        /// stack buffer.
        #[test]
        fn stack_match_key_is_the_allocating_one(
            draws in proptest::collection::vec((0u32..7, 0u32..0x11_0000), 0..80),
            ascii in "[a-cA-C  \t\u{b}\n]{0,70}",
        ) {
            for surface in [text(&draws), ascii] {
                prop_assert_eq!(with_match_key(&surface, str::to_string), reference_key(&surface));
            }
        }

        /// The stack-buffer lowercase is `to_lowercase()` on arbitrary
        /// Unicode and on ASCII words of 32 and 33 bytes.
        #[test]
        fn stack_lowercase_is_to_lowercase(
            draws in proptest::collection::vec((0u32..7, 0u32..0x11_0000), 0..40),
            ascii in "[A-Za-z]{32,33}",
        ) {
            for word in [text(&draws).as_str(), ascii.as_str(), "\u{212a}", "\u{130}"] {
                prop_assert_eq!(with_lowercase(word, str::to_string), word.to_lowercase());
            }
        }
    }
}
