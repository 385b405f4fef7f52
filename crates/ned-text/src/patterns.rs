//! Keyphrase part-of-speech patterns (Appendix A).
//!
//! The thesis harvests keyphrase candidates for emerging entities (§5.5.1) by
//! extracting (a) maximal proper-noun sequences and (b) "technical terms" in
//! the sense of Justeson & Katz 1995: `((Adj | Noun)+ | ((Adj | Noun)*
//! (Noun Prep)? (Adj | Noun)*) Noun)` — i.e. noun phrases possibly containing
//! a single preposition, always ending in a noun.

use crate::pos::PosTag;
use crate::token::Token;

/// An extracted keyphrase candidate: a token index range and its surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhraseCandidate {
    /// Index of the first token of the phrase.
    pub start: usize,
    /// Index one past the last token.
    pub end: usize,
    /// Space-joined surface form.
    pub surface: String,
}

/// Maximum number of tokens in an extracted phrase; longer spans are split at
/// the maximum (keyphrases in the KB average 2.5 words, §4.4.2).
pub const MAX_PHRASE_TOKENS: usize = 6;

/// Minimum number of tokens for a multi-word technical term to be kept when
/// `keep_unigrams` is false.
const MIN_TERM_TOKENS: usize = 1;

/// Extracts all keyphrase candidates from a tagged token stream.
///
/// Proper-noun runs are always extracted; technical terms (adjective/noun
/// sequences with an optional single embedded preposition, ending in a noun)
/// are extracted when at least `MIN_TERM_TOKENS` long. Overlapping
/// candidates are allowed — weighting downstream decides salience.
pub fn extract_phrases(tokens: &[Token], tags: &[PosTag]) -> Vec<PhraseCandidate> {
    phrase_spans(tokens, tags)
        .into_iter()
        .map(|(start, end)| PhraseCandidate { start, end, surface: surface(tokens, start, end) })
        .collect()
}

/// The `(start, end)` token spans of [`extract_phrases`], in the same
/// order, without building their surfaces.
pub fn phrase_spans(tokens: &[Token], tags: &[PosTag]) -> Vec<(usize, usize)> {
    assert_eq!(tokens.len(), tags.len());
    let mut out = Vec::new();
    extract_proper_runs(tokens, tags, &mut out);
    extract_technical_terms(tokens, tags, &mut out);
    out.sort_unstable();
    out.dedup();
    out
}

fn surface(tokens: &[Token], start: usize, end: usize) -> String {
    let mut s = String::new();
    for (i, t) in tokens[start..end].iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&t.text);
    }
    s
}

fn extract_proper_runs(tokens: &[Token], tags: &[PosTag], out: &mut Vec<(usize, usize)>) {
    let mut i = 0;
    while i < tokens.len() {
        if tags[i] == PosTag::ProperNoun {
            let start = i;
            while i < tokens.len() && tags[i] == PosTag::ProperNoun && i - start < MAX_PHRASE_TOKENS
            {
                i += 1;
            }
            out.push((start, i));
        } else {
            i += 1;
        }
    }
}

/// State machine for `(Adj|Noun)* (Noun Prep)? (Adj|Noun)* Noun`.
fn extract_technical_terms(tokens: &[Token], tags: &[PosTag], out: &mut Vec<(usize, usize)>) {
    let is_body = |t: PosTag| matches!(t, PosTag::Adjective | PosTag::Noun | PosTag::ProperNoun);
    let mut i = 0;
    while i < tokens.len() {
        if !is_body(tags[i]) {
            i += 1;
            continue;
        }
        // Scan a maximal body run, allowing one embedded preposition whose
        // left neighbour is a noun and which is followed by more body tokens.
        let start = i;
        let mut used_prep = false;
        let mut last_nominal = None;
        while i < tokens.len() && i - start < MAX_PHRASE_TOKENS {
            let t = tags[i];
            if is_body(t) {
                if t.is_nominal() {
                    last_nominal = Some(i);
                }
                i += 1;
            } else if t == PosTag::Preposition
                && !used_prep
                && i > start
                && tags[i - 1].is_nominal()
                && i + 1 < tokens.len()
                && is_body(tags[i + 1])
                && is_of(&tokens[i])
            {
                used_prep = true;
                i += 1;
            } else {
                break;
            }
        }
        // The phrase must end in a noun: truncate to the last nominal token.
        if let Some(last) = last_nominal {
            let end = last + 1;
            if end - start >= MIN_TERM_TOKENS && end > start {
                // Skip pure proper-noun runs (already emitted) only if
                // identical; mixed runs are new information.
                out.push((start, end));
            }
        }
        if i == start {
            i += 1;
        }
    }
}

/// True when `tok` lowercases to "of". No non-ASCII character lowercases
/// to an ASCII "o" or "f", so an ASCII case-insensitive comparison decides
/// it without lowercasing.
fn is_of(tok: &Token) -> bool {
    tok.text.eq_ignore_ascii_case("of")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pos::{sentence_start_flags, PosTagger};
    use crate::sentence::split_sentences;
    use crate::token::TokenKind;
    use crate::tokenizer::tokenize;
    use proptest::prelude::*;

    fn phrases(input: &str) -> Vec<String> {
        let tokens = tokenize(input);
        let sentences = split_sentences(&tokens);
        let starts = sentence_start_flags(tokens.len(), &sentences);
        let tags = PosTagger::new().tag(&tokens, &starts);
        extract_phrases(&tokens, &tags).into_iter().map(|p| p.surface).collect()
    }

    #[test]
    fn extracts_proper_noun_runs() {
        let p = phrases("They saw Newport Folk Festival yesterday.");
        assert!(p.contains(&"Newport Folk Festival".to_string()), "{p:?}");
    }

    #[test]
    fn extracts_adjective_noun_terms() {
        let p = phrases("he is a famous surveillance program author");
        assert!(p.contains(&"famous surveillance program author".to_string()), "{p:?}");
    }

    #[test]
    fn allows_single_of_preposition() {
        let p = phrases("the winner of many prizes went home");
        assert!(p.iter().any(|s| s.contains("winner of many prizes") || s == "winner"), "{p:?}");
    }

    #[test]
    fn phrase_must_end_in_noun() {
        // "famous" alone (adjective at end) must not be a phrase.
        let p = phrases("she is famous.");
        assert!(!p.contains(&"famous".to_string()), "{p:?}");
    }

    #[test]
    fn respects_max_length() {
        let long = "alpha beta gamma delta epsilon zeta eta theta iota";
        for p in phrases(long) {
            assert!(p.split(' ').count() <= MAX_PHRASE_TOKENS);
        }
    }

    #[test]
    fn no_phrases_in_pure_function_words() {
        let p = phrases("it was because of the and or");
        assert!(p.is_empty(), "{p:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `is_of` equals lowercasing the token and comparing with "of".
        #[test]
        fn is_of_matches_lowercasing(text in "[oOfF\u{212a}\u{130}\u{308}a]{0,3}") {
            let tok = Token::new(text, 0, TokenKind::Word);
            prop_assert_eq!(is_of(&tok), tok.lower() == "of");
        }
    }

    #[test]
    fn candidates_sorted_and_deduped() {
        let tokens = tokenize("Grammy Award winner Grammy Award winner");
        let sentences = split_sentences(&tokens);
        let starts = sentence_start_flags(tokens.len(), &sentences);
        let tags = PosTagger::new().tag(&tokens, &starts);
        let cands = extract_phrases(&tokens, &tags);
        for w in cands.windows(2) {
            assert!((w[0].start, w[0].end) <= (w[1].start, w[1].end));
            assert_ne!((w[0].start, w[0].end), (w[1].start, w[1].end));
        }
    }
}
