//! Rule-based named-entity recognition.
//!
//! A stand-in for the Stanford NER tagger used by the thesis (§3.3.1): it
//! segments the input into mention spans that the disambiguators consume.
//! Rules:
//! 1. Maximal runs of capitalized words (not counting a sentence-initial
//!    stopword/determiner) form a mention; lowercase connectors ("of", "the")
//!    are allowed strictly inside a run ("Bank of America").
//! 2. All-upper-case tokens of length ≥ 2 are mentions even in isolation
//!    (§3.3.2 treats all-caps as a syntactic marker in news-wire).
//! 3. An optional gazetteer forces known multi-word names to be recognized
//!    as single mentions even when capitalization is ambiguous.

use std::collections::HashSet;
use std::ops::Range;

use crate::mention::Mention;
use crate::normalize::with_lowercase;
use crate::sentence::{split_sentences, Sentence};
use crate::stopwords::is_stopword;
use crate::token::{is_all_uppercase, is_capitalized, Token, TokenKind};

/// Configuration for the rule-based recognizer.
#[derive(Debug, Clone)]
pub struct NerConfig {
    /// Maximum number of tokens in a mention.
    pub max_mention_tokens: usize,
    /// Allow lowercase connector words strictly inside a capitalized run.
    pub allow_connectors: bool,
    /// Recognize isolated all-caps acronyms.
    pub recognize_acronyms: bool,
}

impl Default for NerConfig {
    fn default() -> Self {
        NerConfig { max_mention_tokens: 5, allow_connectors: true, recognize_acronyms: true }
    }
}

/// Rule-based mention recognizer with an optional gazetteer.
#[derive(Debug, Clone, Default)]
pub struct Recognizer {
    config: NerConfig,
    /// Known surface forms, stored lowercased and space-joined.
    gazetteer: HashSet<String>,
    /// Length (in tokens) of the longest gazetteer entry.
    max_gazetteer_tokens: usize,
}

impl Recognizer {
    /// Creates a recognizer with the given configuration and no gazetteer.
    pub fn new(config: NerConfig) -> Self {
        Recognizer { config, gazetteer: HashSet::new(), max_gazetteer_tokens: 0 }
    }

    /// Adds a known surface form to the gazetteer.
    pub fn add_gazetteer_entry(&mut self, surface: &str) {
        let n = surface.split_whitespace().count();
        self.max_gazetteer_tokens = self.max_gazetteer_tokens.max(n);
        self.gazetteer.insert(surface.to_lowercase());
    }

    /// Number of gazetteer entries.
    pub fn gazetteer_len(&self) -> usize {
        self.gazetteer.len()
    }

    /// Recognizes mentions in a tokenized document.
    ///
    /// Returned mentions are sorted by position and non-overlapping; the
    /// gazetteer takes priority, then capitalized runs, then acronyms.
    pub fn recognize(&self, tokens: &[Token]) -> Vec<Mention> {
        let sentences = split_sentences(tokens);
        let mut claimed = vec![false; tokens.len()];
        let mut mentions = Vec::new();
        self.match_gazetteer(tokens, &mut claimed, &mut mentions);
        for s in &sentences {
            self.match_capitalized_runs(tokens, s, &mut claimed, &mut mentions);
        }
        if self.config.recognize_acronyms {
            self.match_acronyms(tokens, &mut claimed, &mut mentions);
        }
        mentions.sort_by_key(|m| m.token_start);
        mentions
    }

    /// Longest gazetteer match at each position, left to right. The key of
    /// a span is its tokens lowercased one by one and joined by spaces,
    /// built in one reused string; a match needs a capitalized token.
    fn match_gazetteer(&self, tokens: &[Token], claimed: &mut [bool], out: &mut Vec<Mention>) {
        if self.gazetteer.is_empty() {
            return;
        }
        let max_len = self.max_gazetteer_tokens.min(self.config.max_mention_tokens);
        let mut key = String::new();
        let mut i = 0;
        while i < tokens.len() {
            let mut matched = 0;
            let mut capitalized = false;
            key.clear();
            for (len, tok) in (1..).zip(tokens.iter().skip(i).take(max_len)) {
                if len > 1 {
                    key.push(' ');
                }
                let text = tok.text.as_str();
                with_lowercase(text, |lower| key.push_str(lower));
                capitalized |= is_capitalized(text);
                if capitalized && self.gazetteer.contains(&key) {
                    matched = len;
                }
            }
            let end = i + matched;
            if matched > 0 && claimed.get(i..end).is_some_and(|c| !c.contains(&true)) {
                claim(claimed, i..end);
                out.push(Mention::new(join(tokens.get(i..end).unwrap_or_default()), i, end));
                i = end;
            } else {
                i += 1;
            }
        }
    }

    fn match_capitalized_runs(
        &self,
        tokens: &[Token],
        sentence: &Sentence,
        claimed: &mut [bool],
        out: &mut Vec<Mention>,
    ) {
        let mut i = sentence.start;
        while i < sentence.end {
            if is_claimed(claimed, i) || !self.starts_run(tokens, i, sentence) {
                i += 1;
                continue;
            }
            let start = i;
            let mut last_cap = i;
            i += 1;
            while i < sentence.end
                && !is_claimed(claimed, i)
                && i - start < self.config.max_mention_tokens
            {
                let Some(tok) = tokens.get(i).filter(|t| t.kind == TokenKind::Word) else { break };
                let text = tok.text.as_str();
                if is_capitalized(text) && !is_stopword(text) {
                    last_cap = i;
                    i += 1;
                } else if self.config.allow_connectors
                    && is_connector(text)
                    && i + 1 < sentence.end
                    && tokens
                        .get(i + 1)
                        .is_some_and(|t| t.kind == TokenKind::Word && t.is_capitalized())
                    && !is_claimed(claimed, i + 1)
                {
                    i += 1;
                } else {
                    break;
                }
            }
            let end = last_cap + 1;
            claim(claimed, start..end);
            out.push(Mention::new(join(tokens.get(start..end).unwrap_or_default()), start, end));
        }
    }

    /// A token starts a capitalized run if it is a capitalized word that is
    /// not a stopword; at sentence start it must additionally be either
    /// all-caps or followed by another capitalized word, because ordinary
    /// sentence-initial words are capitalized too.
    fn starts_run(&self, tokens: &[Token], i: usize, sentence: &Sentence) -> bool {
        let Some(tok) = tokens.get(i) else { return false };
        let text = tok.text.as_str();
        if tok.kind != TokenKind::Word || !is_capitalized(text) || is_stopword(text) {
            return false;
        }
        if i != sentence.start {
            return true;
        }
        if is_all_uppercase(text) && text.chars().count() >= 2 {
            return true;
        }
        // Sentence-initial: a following capitalized word or a possessive
        // clitic ("Washington's program ...") marks a name; ordinary
        // sentence-initial words are capitalized too, so require evidence.
        let Some(next) = tokens.get(i + 1).filter(|_| i + 1 < sentence.end) else { return false };
        let next_text = next.text.as_str();
        let capitalized_word = next.kind == TokenKind::Word && is_capitalized(next_text);
        next_text == "'s" || (capitalized_word && !is_stopword(next_text))
    }

    fn match_acronyms(&self, tokens: &[Token], claimed: &mut [bool], out: &mut Vec<Mention>) {
        for ((i, tok), claimed) in tokens.iter().enumerate().zip(claimed.iter_mut()) {
            if *claimed || tok.kind != TokenKind::Word {
                continue;
            }
            let text = tok.text.as_str();
            if is_all_uppercase(text) && text.chars().count() >= 2 && !is_stopword(text) {
                *claimed = true;
                out.push(Mention::new(text, i, i + 1));
            }
        }
    }
}

/// True when token `i` belongs to a mention already; a position past the
/// tokens counts as claimed, so no mention reaches it.
fn is_claimed(claimed: &[bool], i: usize) -> bool {
    claimed.get(i).copied().unwrap_or(true)
}

/// Marks the tokens of `span` as claimed.
fn claim(claimed: &mut [bool], span: Range<usize>) {
    if let Some(c) = claimed.get_mut(span) {
        c.fill(true);
    }
}

fn is_connector(word: &str) -> bool {
    matches!(word, "of" | "the" | "for" | "de" | "van" | "von")
}

fn join(tokens: &[Token]) -> String {
    let mut s = String::new();
    for (i, t) in tokens.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&t.text);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn surfaces(input: &str) -> Vec<String> {
        let tokens = tokenize(input);
        Recognizer::new(NerConfig::default())
            .recognize(&tokens)
            .into_iter()
            .map(|m| m.surface)
            .collect()
    }

    #[test]
    fn recognizes_multiword_names() {
        let s = surfaces("They performed Kashmir, written by Jimmy Page and Robert Plant.");
        assert!(s.contains(&"Kashmir".to_string()), "{s:?}");
        assert!(s.contains(&"Jimmy Page".to_string()), "{s:?}");
        assert!(s.contains(&"Robert Plant".to_string()), "{s:?}");
    }

    #[test]
    fn sentence_initial_common_word_is_not_mention() {
        let s = surfaces("Record sales went up in May.");
        assert!(!s.contains(&"Record".to_string()), "{s:?}");
    }

    #[test]
    fn sentence_initial_name_pair_is_mention() {
        let s = surfaces("Jimmy Page played a Gibson.");
        assert!(s.contains(&"Jimmy Page".to_string()), "{s:?}");
    }

    #[test]
    fn acronyms_are_recognized() {
        let s = surfaces("the NSA and the CIA cooperated");
        assert!(s.contains(&"NSA".to_string()), "{s:?}");
        assert!(s.contains(&"CIA".to_string()), "{s:?}");
    }

    #[test]
    fn connector_inside_run() {
        let s = surfaces("he visited the Bank of America building");
        assert!(s.contains(&"Bank of America".to_string()), "{s:?}");
    }

    #[test]
    fn connector_not_kept_at_run_end() {
        let s = surfaces("we saw Sara of the village");
        assert!(s.contains(&"Sara".to_string()), "{s:?}");
        assert!(!s.iter().any(|m| m.ends_with("of")), "{s:?}");
    }

    #[test]
    fn gazetteer_overrides_capitalization() {
        let tokens = tokenize("the united states government said");
        let mut r = Recognizer::new(NerConfig::default());
        r.add_gazetteer_entry("united states");
        // All-lowercase text: no capitalized token, gazetteer requires at
        // least one capital, so nothing is found.
        assert!(r.recognize(&tokens).is_empty());
        let tokens = tokenize("the United states government said");
        let got = r.recognize(&tokens);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].surface, "United states");
    }

    #[test]
    fn mentions_are_sorted_and_disjoint() {
        let tokens =
            tokenize("Washington's program Prism was revealed by the whistleblower Snowden.");
        let mentions = Recognizer::new(NerConfig::default()).recognize(&tokens);
        for w in mentions.windows(2) {
            assert!(w[0].token_end <= w[1].token_start, "{mentions:?}");
        }
        let s: Vec<_> = mentions.iter().map(|m| m.surface.as_str()).collect();
        assert!(s.contains(&"Washington"), "{s:?}");
        assert!(s.contains(&"Prism"), "{s:?}");
        assert!(s.contains(&"Snowden"), "{s:?}");
    }

    #[test]
    fn respects_max_mention_tokens() {
        let s = surfaces("Alpha Beta Gamma Delta Epsilon Zeta Eta Theta");
        for m in &s {
            assert!(m.split(' ').count() <= 5, "{m}");
        }
    }
}
