//! Mention-context extraction (§3.3.4).
//!
//! "On the mention side, we use all tokens in the entire input text (except
//! stopwords and the mention itself) as context." The context is interned
//! against the knowledge base's keyword vocabulary; tokens unknown to the KB
//! cannot match any keyphrase and are dropped.
//!
//! A [`DocumentContext`] is built once per document, together with a word
//! index: its `(word, position)` pairs sorted by word, then position, so
//! the positions of one word form one ascending run found by binary search.
//! Each mention then reads the document through a borrowed
//! [`MentionContext`] that skips the mention's own tokens, instead of a
//! per-mention copy of the context.

use std::ops::Range;

use ned_kb::{KbView, WordId};
use ned_text::stopwords::is_stopword;
use ned_text::{Mention, Token, TokenKind};

/// The document context: every non-stopword word token with its position,
/// interned as KB keywords, and the word index over it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocumentContext {
    /// (token position, keyword id), sorted by position.
    words: Vec<(usize, WordId)>,
    /// The same pairs as (keyword id, token position), sorted by word, then
    /// position.
    by_word: Vec<(WordId, usize)>,
}

impl DocumentContext {
    /// Builds the context of a whole document.
    pub fn build<K: KbView + ?Sized>(kb: &K, tokens: &[Token]) -> Self {
        let words = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokenKind::Word && !is_stopword(&t.text))
            .filter_map(|(i, t)| kb.word_id(&t.text).map(|w| (i, w)))
            .collect();
        Self::from_words(words)
    }

    /// A context from `(token position, keyword id)` pairs with strictly
    /// increasing positions, as [`DocumentContext::build`] produces them.
    pub fn from_words(words: Vec<(usize, WordId)>) -> Self {
        debug_assert!(
            words.windows(2).all(|p| p[0].0 < p[1].0), // ned-lint: allow(p1) — windows(2) pairs
            "context positions must be strictly increasing"
        );
        let mut by_word: Vec<(WordId, usize)> = words.iter().map(|&(pos, w)| (w, pos)).collect();
        by_word.sort_unstable();
        DocumentContext { words, by_word }
    }

    /// The `(token position, keyword id)` pairs, sorted by position.
    pub fn words(&self) -> &[(usize, WordId)] {
        &self.words
    }

    /// The context of one mention as a borrowed view: the document context
    /// minus the tokens [`Mention::covers`].
    pub fn mention(&self, mention: &Mention) -> MentionContext<'_> {
        self.excluding(mention.token_start..mention.token_end)
    }

    /// The document context minus the token positions `span` contains. An
    /// empty or inverted span excludes nothing.
    pub fn excluding(&self, span: Range<usize>) -> MentionContext<'_> {
        MentionContext { doc: self, start: span.start, end: span.end }
    }

    /// The context of one mention as an owned list: the document context
    /// minus the mention's own tokens, in position order.
    pub fn for_mention(&self, mention: &Mention) -> Vec<(usize, WordId)> {
        self.words
            .iter()
            .copied()
            .filter(|&(pos, _)| !mention.covers(pos))
            .collect()
    }

    /// Number of context words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the document has no usable context.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// One mention's view of a [`DocumentContext`]: every context word whose
/// position lies outside the excluded token span. It borrows the document's
/// word index, so making one costs nothing.
#[derive(Debug, Clone, Copy)]
pub struct MentionContext<'a> {
    doc: &'a DocumentContext,
    /// The excluded span, `start..end` (nothing when `start >= end`).
    start: usize,
    end: usize,
}

impl<'a> MentionContext<'a> {
    fn excludes(&self, pos: usize) -> bool {
        self.start <= pos && pos < self.end
    }

    /// The ascending positions of `w` outside the excluded span: the run of
    /// `w` in the word index, found by binary search, minus the span.
    pub(crate) fn positions(self, w: WordId) -> impl Iterator<Item = usize> + 'a {
        let index = &self.doc.by_word;
        let (_, from_w) = index.split_at(index.partition_point(|&(x, _)| x < w));
        let (run, _) = from_w.split_at(from_w.partition_point(|&(x, _)| x == w));
        run.iter().map(|&(_, pos)| pos).filter(move |&pos| !self.excludes(pos))
    }

    /// Writes the distinct words of the view into `out`, ascending: the
    /// sorted, deduplicated words of [`DocumentContext::for_mention`].
    pub(crate) fn words_into(self, out: &mut Vec<WordId>) {
        out.clear();
        for &(w, pos) in &self.doc.by_word {
            if !self.excludes(pos) && out.last() != Some(&w) {
                out.push(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_text::tokenize;
    use proptest::prelude::*;

    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let e = b.add_entity("Jimmy Page", EntityKind::Person);
        b.add_keyphrase(e, "hard rock chords", 1);
        b.add_keyphrase(e, "Gibson guitar", 1);
        FrozenKb::freeze(&b.build())
    }

    #[test]
    fn keeps_known_content_words_with_positions() {
        let kb = kb();
        let tokens = tokenize("Page played unusual chords on his Gibson.");
        let ctx = DocumentContext::build(&kb, &tokens);
        let words: Vec<&str> = ctx.words().iter().map(|&(_, w)| kb.word_text(w)).collect();
        assert_eq!(words, vec!["chords", "gibson"]);
        // Positions point at the original tokens.
        assert_eq!(tokens[ctx.words()[0].0].text, "chords");
    }

    #[test]
    fn drops_stopwords_and_unknown_words() {
        let kb = kb();
        let tokens = tokenize("on his the unusual");
        let ctx = DocumentContext::build(&kb, &tokens);
        assert!(ctx.is_empty());
    }

    #[test]
    fn mention_tokens_are_excluded_from_its_context() {
        let kb = kb();
        let tokens = tokenize("Gibson chords Gibson");
        let ctx = DocumentContext::build(&kb, &tokens);
        assert_eq!(ctx.len(), 3);
        let m = Mention::new("Gibson", 0, 1);
        let mention_ctx = ctx.for_mention(&m);
        assert_eq!(mention_ctx.len(), 2);
        assert!(mention_ctx.iter().all(|&(pos, _)| pos != 0));
        let view = ctx.mention(&m);
        let gibson = kb.word_id("gibson").unwrap();
        assert_eq!(view.positions(gibson).collect::<Vec<_>>(), vec![2]);
    }

    /// Random contexts: strictly increasing positions with gaps over a small
    /// vocabulary (so words repeat), and a random span that may be empty,
    /// inverted, or cover either end.
    fn context_and_span() -> impl Strategy<Value = (Vec<(usize, WordId)>, Range<usize>)> {
        (proptest::collection::vec((1usize..4, 0u32..8), 0..30), 0usize..80, 0usize..80).prop_map(
            |(steps, a, b)| {
                let mut pos = 0usize;
                let words = steps
                    .into_iter()
                    .map(|(gap, w)| {
                        pos += gap;
                        (pos, WordId(w))
                    })
                    .collect();
                (words, a..b)
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The view reads exactly what `for_mention` copies: its word set is
        /// the sorted, deduplicated words of `for_mention`, and each word's
        /// positions are that word's positions in `for_mention`.
        #[test]
        fn the_view_reads_what_for_mention_copies(case in context_and_span()) {
            let (words, span) = case;
            let doc = DocumentContext::from_words(words);
            let mention = Mention {
                surface: String::new(),
                token_start: span.start,
                token_end: span.end,
            };
            let copied = doc.for_mention(&mention);
            let view = doc.mention(&mention);

            let mut expected: Vec<WordId> = copied.iter().map(|&(_, w)| w).collect();
            expected.sort_unstable();
            expected.dedup();
            let mut got = vec![WordId(99)];
            view.words_into(&mut got);
            prop_assert_eq!(got, expected);

            for w in (0u32..9).map(WordId) {
                let positions: Vec<usize> =
                    copied.iter().filter(|&&(_, x)| x == w).map(|&(p, _)| p).collect();
                prop_assert_eq!(view.positions(w).collect::<Vec<_>>(), positions);
            }
        }
    }
}
