//! Keyphrase harvesting from document streams (§5.5.1).
//!
//! For a given name (or entity), harvest all keyphrase candidates from the
//! token windows surrounding its mentions, using the part-of-speech
//! patterns of Appendix A. The output is a set of (phrase, count) pairs —
//! the raw material for both the global name model of Algorithm 2 and the
//! in-KB entity enrichment of §5.5.1.

use std::collections::HashMap;
use std::ops::Range;

use ned_eval::gold::GoldDoc;
use ned_kb::fx::FxHashMap;
use ned_text::patterns::{extract_phrases, phrase_spans};
use ned_text::{Mention, PosTag, PosTagger, Token};

/// Number of tokens on each side of a mention that count as its context
/// window (the thesis uses ±5 sentences; our generated documents have no
/// sentence structure, so a fixed token window of similar size is used).
pub const WINDOW_TOKENS: usize = 40;

/// A multiset of harvested phrases.
pub type PhraseCounts = HashMap<String, u64>;

/// The context window around `mention` in a document of `n_tokens` tokens,
/// and the mention's own tokens relative to the window start; `None` when
/// the mention's span does not lie inside the document.
fn window_of(n_tokens: usize, mention: &Mention) -> Option<(Range<usize>, Range<usize>)> {
    if mention.token_start > mention.token_end || mention.token_end > n_tokens {
        return None;
    }
    let start = mention.token_start.saturating_sub(WINDOW_TOKENS);
    let end = (mention.token_end + WINDOW_TOKENS).min(n_tokens);
    Some((start..end, mention.token_start - start..mention.token_end - start))
}

/// Harvests keyphrases around one mention of a document, tagging the
/// window on its own. A mention outside the document harvests nothing.
pub fn harvest_window(doc: &GoldDoc, mention: &Mention) -> PhraseCounts {
    let mut counts = PhraseCounts::new();
    let Some((range, masked)) = window_of(doc.tokens.len(), mention) else { return counts };
    let Some(window) = doc.tokens.get(range) else { return counts };
    let mut tags = PosTagger::new().tag_document(window);
    mask(&mut tags, masked);
    for phrase in extract_phrases(window, &tags) {
        *counts.entry(phrase.surface.to_lowercase()).or_insert(0) += 1;
    }
    counts
}

/// Appends the lowercased surface of the phrase `tokens` to `out`: their
/// texts joined by single spaces, as [`extract_phrases`] joins them, then
/// lowercased as [`harvest_window`] lowercases them. Tokens are lowercased
/// one by one, ASCII ones in place: the only context-dependent lowercase
/// mapping (a final sigma) never looks past a space, so this equals
/// lowercasing the joined surface.
pub(crate) fn push_surface(tokens: &[Token], out: &mut String) {
    for (i, token) in tokens.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        if token.text.is_ascii() {
            let start = out.len();
            out.push_str(&token.text);
            if let Some(word) = out.get_mut(start..) {
                word.make_ascii_lowercase();
            }
        } else {
            out.push_str(&token.lower());
        }
    }
}

/// A document prepared once for harvesting many of its windows, which
/// overlap heavily: it is POS-tagged once ([`PosTagger::window_tags`]
/// derives each window's tags), and each phrase span is interned once.
#[derive(Debug)]
pub(crate) struct TaggedDoc<'d> {
    tokens: &'d [Token],
    tags: Vec<PosTag>,
    /// Interned surface of every phrase span seen so far, by token span.
    spans: FxHashMap<(usize, usize), usize>,
}

impl<'d> TaggedDoc<'d> {
    pub(crate) fn new(tagger: &PosTagger, tokens: &'d [Token]) -> Self {
        TaggedDoc { tokens, tags: tagger.tag_document(tokens), spans: FxHashMap::default() }
    }

    /// Calls `count` with the surface id of every keyphrase occurrence in
    /// the window around `mention`: the phrases [`harvest_window`] counts.
    /// `intern` turns the tokens of a phrase span into the id of their
    /// lowercased surface ([`push_surface`]) the first time the span is
    /// seen.
    pub(crate) fn harvest(
        &mut self,
        tagger: &PosTagger,
        mention: &Mention,
        mut intern: impl FnMut(&[Token]) -> usize,
        mut count: impl FnMut(usize),
    ) {
        let tokens = self.tokens;
        let Some((range, masked)) = window_of(tokens.len(), mention) else { return };
        let Some(window) = tokens.get(range.clone()) else { return };
        let mut tags = tagger.window_tags(tokens, &self.tags, range.clone());
        mask(&mut tags, masked);
        for (start, end) in phrase_spans(window, &tags) {
            let span = (range.start + start, range.start + end);
            let id = *self
                .spans
                .entry(span)
                .or_insert_with(|| intern(window.get(start..end).unwrap_or_default()));
            count(id);
        }
    }
}

/// Masks the mention's own tokens so phrase runs break at the mention and
/// the name is never harvested as a keyphrase of itself.
fn mask(tags: &mut [PosTag], mention: Range<usize>) {
    if let Some(masked) = tags.get_mut(mention) {
        masked.fill(PosTag::Punctuation);
    }
}

/// Harvests the *global model* of a name: all phrases co-occurring with any
/// mention of `name` across `docs`, plus the number of mention occurrences
/// observed. Counts are per window: a phrase is counted once for every
/// mention window it occurs in, so a phrase near two mentions of one
/// document counts twice.
///
/// The per-name reference for [`crate::ee_model::NameModels::build`],
/// which harvests every name in one pass.
#[cfg(test)]
pub(crate) fn harvest_name(docs: &[&GoldDoc], name: &str) -> (PhraseCounts, u64) {
    let mut counts = PhraseCounts::new();
    let mut occurrences = 0;
    for doc in docs {
        for lm in &doc.mentions {
            if lm.mention.surface != name {
                continue;
            }
            occurrences += 1;
            for (phrase, c) in harvest_window(doc, &lm.mention) {
                *counts.entry(phrase).or_insert(0) += c;
            }
        }
    }
    (counts, occurrences)
}

/// All names occurring as mention surfaces in `docs`, with occurrence
/// counts.
#[cfg(test)]
pub(crate) fn mention_names(docs: &[&GoldDoc]) -> HashMap<String, u64> {
    let mut names = HashMap::new();
    for doc in docs {
        for lm in &doc.mentions {
            *names.entry(lm.mention.surface.clone()).or_insert(0) += 1;
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_eval::gold::LabeledMention;
    use ned_text::{tokenize, Token, TokenKind};

    fn doc(text: &str, mention_surface: &str) -> GoldDoc {
        let tokens: Vec<Token> = tokenize(text);
        let pos = tokens
            .iter()
            .position(|t| t.text == mention_surface)
            .expect("mention in text");
        GoldDoc::new(
            "t",
            tokens,
            vec![LabeledMention {
                mention: Mention::new(mention_surface, pos, pos + 1),
                label: None,
            }],
            0,
        )
    }

    #[test]
    fn harvests_noun_phrases_near_mention() {
        let d = doc("the famous surveillance program was revealed by Snowden yesterday", "Snowden");
        let counts = harvest_window(&d, &d.mentions[0].mention);
        assert!(
            counts.keys().any(|p| p.contains("surveillance program")),
            "missing phrase: {counts:?}"
        );
    }

    #[test]
    fn mention_itself_is_not_harvested() {
        let d = doc("the whistleblower Snowden spoke", "Snowden");
        let counts = harvest_window(&d, &d.mentions[0].mention);
        assert!(!counts.contains_key("snowden"), "{counts:?}");
    }

    #[test]
    fn harvest_name_aggregates_across_documents() {
        let d1 = doc("the secret program and Prism today", "Prism");
        let d2 = doc("the secret program called Prism again", "Prism");
        let docs = vec![&d1, &d2];
        let (counts, occurrences) = harvest_name(&docs, "Prism");
        assert_eq!(occurrences, 2);
        assert!(counts.get("secret program").copied().unwrap_or(0) >= 2, "{counts:?}");
    }

    #[test]
    fn unknown_name_harvests_nothing() {
        let d = doc("some text about Prism here", "Prism");
        let docs = vec![&d];
        let (counts, occurrences) = harvest_name(&docs, "Missing");
        assert_eq!(occurrences, 0);
        assert!(counts.is_empty());
    }

    #[test]
    fn mention_names_counts_surfaces() {
        let d1 = doc("about Prism today", "Prism");
        let d2 = doc("about Prism again", "Prism");
        let docs = vec![&d1, &d2];
        let names = mention_names(&docs);
        assert_eq!(names.get("Prism"), Some(&2));
    }

    #[test]
    fn window_is_bounded() {
        // A long document: phrases far from the mention are not harvested.
        let mut text = String::new();
        for i in 0..200 {
            text.push_str(&format!("filler{i} "));
        }
        text.push_str("unique signal phrase near Snowden");
        let d = doc(&text, "Snowden");
        let counts = harvest_window(&d, &d.mentions[0].mention);
        assert!(counts.keys().any(|p| p.contains("signal")), "{counts:?}");
        assert!(!counts.keys().any(|p| p.contains("filler0")), "{counts:?}");
    }

    #[test]
    fn push_surface_lowercases_like_the_joined_surface() {
        let texts = ["ΟΔΟΣ", "Σ", "ΑΣ", "'Σ", "İzmir", "Straße", "NSA", "\u{212a}", "", "x.Σ"];
        for a in texts {
            for b in texts {
                let tokens = [Token::new(a, 0, TokenKind::Word), Token::new(b, 0, TokenKind::Word)];
                let mut out = String::from("kept ");
                push_surface(&tokens, &mut out);
                assert_eq!(out, format!("kept {}", format!("{a} {b}").to_lowercase()));
            }
        }
    }

    #[test]
    fn tagged_doc_harvests_what_harvest_window_counts() {
        // The first mention's window starts at the "." after "Dr", which
        // ends a sentence in the window but not in the document.
        let mut text = "the old ".repeat(5);
        text.push_str("Dr. Record sales of the secret surveillance program rose sharply ");
        text.push_str(&"while the famous band toured ".repeat(6));
        text.push_str("Snowden spoke. Snowden left! Kashmir Senate hearing on Snowden");
        let tokens = tokenize(&text);
        let mentions: Vec<LabeledMention> = (0..tokens.len())
            .filter(|&i| tokens[i].text == "Snowden")
            .map(|i| LabeledMention { mention: Mention::new("Snowden", i, i + 1), label: None })
            .collect();
        assert_eq!(mentions[0].mention.token_start - WINDOW_TOKENS, 11);
        assert_eq!(tokens[11].text, ".");
        let d = GoldDoc::new("t", tokens, mentions, 0);
        let tagger = PosTagger::new();
        let mut tagged = TaggedDoc::new(&tagger, &d.tokens);
        let mut surfaces: Vec<String> = Vec::new();
        let outside = Mention::new("Snowden", d.tokens.len(), d.tokens.len() + 1);
        for mention in d.mentions.iter().map(|lm| &lm.mention).chain([&outside]) {
            let mut ids = Vec::new();
            let intern = |span: &[Token]| {
                let mut surface = String::new();
                push_surface(span, &mut surface);
                surfaces.push(surface);
                surfaces.len() - 1
            };
            tagged.harvest(&tagger, mention, intern, |id| ids.push(id));
            let mut counts = PhraseCounts::new();
            for id in ids {
                *counts.entry(surfaces[id].clone()).or_insert(0) += 1;
            }
            assert_eq!(counts, harvest_window(&d, mention), "{mention:?}");
        }
    }
}
