//! Sentence boundary detection over token streams.

use crate::token::{is_capitalized, Token, TokenKind};

/// Common abbreviations that do not end a sentence even when followed by an
/// uppercase word.
const ABBREVIATIONS: &[&str] = &[
    "Mr", "Mrs", "Ms", "Dr", "Prof", "Sr", "Jr", "St", "vs", "etc", "Inc", "Corp", "Ltd", "Co",
    "e.g", "i.e", "cf", "al", "Fig", "Eq", "No", "Vol", "pp",
];

/// A sentence, represented as a half-open range into the token vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sentence {
    /// Index of the first token of the sentence.
    pub start: usize,
    /// Index one past the last token of the sentence.
    pub end: usize,
}

impl Sentence {
    /// Number of tokens in the sentence.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the sentence contains no tokens.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Splits a token stream into sentences.
///
/// A sentence ends at `.`, `!`, or `?` unless the preceding token is a known
/// abbreviation or a single uppercase initial ("J." in "J. Hoffart").
pub fn split_sentences(tokens: &[Token]) -> Vec<Sentence> {
    let mut sentences = Vec::new();
    let mut start = 0;
    for (i, tok) in tokens.iter().enumerate() {
        let text = tok.text.as_str();
        if tok.kind != TokenKind::Punct || !matches!(text, "." | "!" | "?") {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|p| tokens.get(p));
        if text == "." && prev.is_some_and(is_non_terminal_period) {
            continue;
        }
        sentences.push(Sentence { start, end: i + 1 });
        start = i + 1;
    }
    if start < tokens.len() {
        sentences.push(Sentence { start, end: tokens.len() });
    }
    sentences
}

fn is_non_terminal_period(prev: &Token) -> bool {
    if prev.kind != TokenKind::Word {
        return false;
    }
    let text = prev.text.as_str();
    // Single uppercase initial such as "J".
    if text.chars().count() == 1 && is_capitalized(text) {
        return true;
    }
    ABBREVIATIONS.contains(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn sentence_texts(input: &str) -> Vec<String> {
        let tokens = tokenize(input);
        split_sentences(&tokens)
            .into_iter()
            .map(|s| {
                tokens[s.start..s.end]
                    .iter()
                    .map(|t| t.text.as_str())
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect()
    }

    #[test]
    fn splits_on_terminal_punctuation() {
        let s = sentence_texts("It ends with a tribute. His wife Sara!");
        assert_eq!(s.len(), 2);
        assert!(s[0].ends_with('.'));
        assert!(s[1].ends_with('!'));
    }

    #[test]
    fn abbreviation_does_not_split() {
        let s = sentence_texts("Dr. Hoffart wrote it. It was good.");
        assert_eq!(s.len(), 2);
        assert!(s[0].starts_with("Dr"));
    }

    #[test]
    fn initial_does_not_split() {
        let s = sentence_texts("J. Hoffart wrote it.");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn trailing_text_without_period_forms_sentence() {
        let s = sentence_texts("First one. trailing fragment");
        assert_eq!(s.len(), 2);
        assert_eq!(s[1], "trailing fragment");
    }

    #[test]
    fn empty_input_has_no_sentences() {
        assert!(split_sentences(&[]).is_empty());
    }

    #[test]
    fn sentence_ranges_cover_all_tokens() {
        let tokens = tokenize("A b c. D e f? G h.");
        let sentences = split_sentences(&tokens);
        let covered: usize = sentences.iter().map(|s| s.len()).sum();
        assert_eq!(covered, tokens.len());
        for w in sentences.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }
}
