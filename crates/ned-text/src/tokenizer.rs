//! Rule-based tokenizer.
//!
//! Splits on whitespace, separates punctuation into single-character tokens,
//! and keeps word-internal hyphens and apostrophes attached ("news-wire",
//! "Dylan's" → "Dylan" + "'s" following Penn Treebank convention for the
//! possessive clitic, which the mention detector relies on).

use crate::token::{Token, TokenKind};

/// Tokenizes `text` into a vector of [`Token`]s with byte spans.
///
/// Guarantees: token spans are non-overlapping, strictly increasing, and
/// every token's `text` equals `&text[start..end]`. Token texts are stored
/// inline ([`crate::token::TokenText`]), so the allocations do not grow
/// with the number of tokens: the token vector and one character table.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut tokens = Vec::with_capacity(text.len() / 5);
    // A text has at most one character per byte, so the table never grows
    // (`char_indices` hints only a quarter of that).
    let mut bytes = Vec::with_capacity(text.len());
    bytes.extend(text.char_indices());
    let mut i = 0;
    while let Some(&(pos, ch)) = bytes.get(i) {
        if ch.is_whitespace() {
            i += 1;
            continue;
        }
        if ch.is_alphabetic() {
            while bytes.get(i).is_some_and(|&(_, c)| is_word_char(c, lookahead(&bytes, i))) {
                i += 1;
            }
            let end_pos = end_of(&bytes, i, text);
            // `char_indices` positions are char boundaries, so the slice
            // always exists.
            let Some(word) = text.get(pos..end_pos) else { continue };
            // Possessive clitic: split "'s" off the preceding word.
            if let Some(stripped) = word.strip_suffix("'s") {
                if !stripped.is_empty() {
                    tokens.push(Token::new(stripped, pos, TokenKind::Word));
                    tokens.push(Token::new("'s", pos + stripped.len(), TokenKind::Word));
                    continue;
                }
            }
            tokens.push(Token::new(word, pos, TokenKind::Word));
        } else if ch.is_ascii_digit() {
            while bytes.get(i).is_some_and(|&(_, c)| is_number_char(c, lookahead(&bytes, i))) {
                i += 1;
            }
            // A separator (',' / '.') is only consumed when a digit follows,
            // so the scanned slice can never end in a separator.
            let end_pos = end_of(&bytes, i, text);
            let Some(number) = text.get(pos..end_pos) else { continue };
            tokens.push(Token::new(number, pos, TokenKind::Number));
        } else {
            tokens.push(Token::new(&*ch.encode_utf8(&mut [0; 4]), pos, TokenKind::Punct));
            i += 1;
        }
    }
    tokens
}

fn lookahead(bytes: &[(usize, char)], i: usize) -> Option<char> {
    bytes.get(i + 1).map(|&(_, c)| c)
}

fn end_of(bytes: &[(usize, char)], i: usize, text: &str) -> usize {
    bytes.get(i).map_or(text.len(), |&(pos, _)| pos)
}

/// A character continues a word if it is alphanumeric, or a hyphen,
/// apostrophe, or period with an alphanumeric character right after it
/// (keeps "U.S." and "rock-and-roll" together).
fn is_word_char(ch: char, next: Option<char>) -> bool {
    if ch.is_alphanumeric() {
        return true;
    }
    matches!(ch, '-' | '\'' | '.' | '’') && next.is_some_and(|n| n.is_alphanumeric())
}

/// A character continues a number if it is a digit, or a separator with a
/// digit right after it ("34,956", "82.03").
fn is_number_char(ch: char, next: Option<char>) -> bool {
    if ch.is_ascii_digit() {
        return true;
    }
    matches!(ch, ',' | '.') && next.is_some_and(|n| n.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(input: &str) -> Vec<String> {
        tokenize(input).into_iter().map(|t| t.text.to_string()).collect()
    }

    #[test]
    fn splits_on_whitespace_and_punct() {
        assert_eq!(texts("They performed Kashmir, written by Page."), vec![
            "They", "performed", "Kashmir", ",", "written", "by", "Page", "."
        ]);
    }

    #[test]
    fn keeps_numbers_with_separators() {
        assert_eq!(texts("1,393 documents and 82.03 percent"), vec![
            "1,393", "documents", "and", "82.03", "percent"
        ]);
    }

    #[test]
    fn trailing_period_after_number_is_punct() {
        let toks = tokenize("It was 1976.");
        assert_eq!(toks[2].text, "1976");
        assert_eq!(toks[2].kind, TokenKind::Number);
        assert_eq!(toks[3].text, ".");
        assert_eq!(toks[3].kind, TokenKind::Punct);
    }

    #[test]
    fn splits_possessive_clitic() {
        assert_eq!(texts("Dylan's record"), vec!["Dylan", "'s", "record"]);
    }

    #[test]
    fn keeps_internal_hyphen() {
        assert_eq!(texts("news-wire text"), vec!["news-wire", "text"]);
    }

    #[test]
    fn keeps_acronym_periods() {
        assert_eq!(texts("the U.S. team"), vec!["the", "U.S", ".", "team"]);
    }

    #[test]
    fn spans_roundtrip() {
        let input = "Italy recalled Marcello Cuttitta on Friday, 1996.";
        for t in tokenize(input) {
            assert_eq!(&input[t.start..t.end], t.text);
        }
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \n\t ").is_empty());
    }

    #[test]
    fn unicode_words() {
        assert_eq!(texts("Universität des Saarlandes"), vec!["Universität", "des", "Saarlandes"]);
    }
}
