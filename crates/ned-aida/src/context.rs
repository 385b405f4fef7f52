//! Mention-context extraction (§3.3.4).
//!
//! "On the mention side, we use all tokens in the entire input text (except
//! stopwords and the mention itself) as context." The context is interned
//! against the knowledge base's keyword vocabulary; tokens unknown to the KB
//! cannot match any keyphrase and are dropped.
//!
//! A [`DocumentContext`] is built once per document, together with a word
//! index: its `(word, position)` pairs sorted by word, then position, so
//! the positions of one word form one ascending run, and a run table that
//! finds each distinct word's run in O(1) expected time. Each mention then
//! reads the document through a borrowed [`MentionContext`] that skips the
//! mention's own tokens, instead of a per-mention copy of the context.

use std::ops::Range;

use ned_kb::fx::FxHashMap;
use ned_kb::{KbView, WordId};
use ned_text::stopwords::is_stopword;
use ned_text::{Mention, Token, TokenKind};

/// The document context: every non-stopword word token with its position,
/// interned as KB keywords, with the word index and run table over it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocumentContext {
    /// (token position, keyword id), sorted by position.
    words: Vec<(usize, WordId)>,
    /// The same pairs as (keyword id, token position), sorted by word, then
    /// position.
    by_word: Vec<(WordId, usize)>,
    /// Each distinct word's run in `by_word`, as `(start, end)`: one entry
    /// per distinct word of the document.
    runs: FxHashMap<WordId, (usize, usize)>,
    /// The distinct words in ascending order, each with the first and the
    /// last position of its run.
    distinct: Vec<(WordId, usize, usize)>,
}

impl DocumentContext {
    /// Builds the context of a whole document.
    pub fn build<K: KbView + ?Sized>(kb: &K, tokens: &[Token]) -> Self {
        let words = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.kind == TokenKind::Word)
            .filter_map(|(i, t)| {
                // One read of the inline text serves both probes.
                let text = t.text.as_str();
                if is_stopword(text) {
                    return None;
                }
                kb.word_id(text).map(|w| (i, w))
            })
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
        let same_word = |a: &(WordId, usize), b: &(WordId, usize)| a.0 == b.0;
        let distinct_count = by_word.chunk_by(same_word).count();
        let mut runs = FxHashMap::default();
        runs.reserve(distinct_count);
        let mut distinct = Vec::with_capacity(distinct_count);
        let mut start = 0;
        for run in by_word.chunk_by(same_word) {
            if let (Some(&(w, first)), Some(&(_, last))) = (run.first(), run.last()) {
                runs.insert(w, (start, start + run.len()));
                distinct.push((w, first, last));
            }
            start += run.len();
        }
        DocumentContext { words, by_word, runs, distinct }
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

    /// The run of `w` in the word index: its pairs in ascending position
    /// order, empty when `w` is not in the document.
    fn run(&self, w: WordId) -> &[(WordId, usize)] {
        self.runs.get(&w).and_then(|&(start, end)| self.by_word.get(start..end)).unwrap_or(&[])
    }

    /// The `(position, word)` pairs whose positions lie in `span`; none
    /// for an empty or inverted span.
    fn words_in(&self, span: Range<usize>) -> &[(usize, WordId)] {
        let lo = self.words.partition_point(|&(pos, _)| pos < span.start);
        let hi = self.words.partition_point(|&(pos, _)| pos < span.end);
        self.words.get(lo..hi).unwrap_or(&[])
    }
}

/// The first and last position of a word's run.
fn first_last(run: &[(WordId, usize)]) -> Option<(usize, usize)> {
    Some((run.first()?.1, run.last()?.1))
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
    /// `w` in the word index, found in the run table, minus the span.
    pub(crate) fn positions(self, w: WordId) -> impl Iterator<Item = usize> + 'a {
        self.doc.run(w).iter().map(|&(_, pos)| pos).filter(move |&pos| !self.excludes(pos))
    }

    /// True when `w` occurs outside the excluded span, in O(1) expected
    /// time: the first or the last position of its run lies outside the
    /// span (for an empty or inverted span, every position does).
    pub fn contains(self, w: WordId) -> bool {
        first_last(self.doc.run(w))
            .is_some_and(|(first, last)| first < self.start || last >= self.end)
    }

    /// The number of distinct words of the view, in O(span) after one
    /// binary search: the document's distinct words minus those whose
    /// every occurrence lies inside the span. Each such word is counted
    /// at its first occurrence.
    pub fn distinct_count(self) -> usize {
        let hidden = self
            .doc
            .words_in(self.start..self.end)
            .iter()
            .filter(|&&(pos, w)| {
                first_last(self.doc.run(w))
                    .is_some_and(|(first, last)| first == pos && last < self.end)
            })
            .count();
        self.doc.runs.len() - hidden
    }

    /// Writes the distinct words of the view into `out`, ascending: the
    /// sorted, deduplicated words of [`DocumentContext::for_mention`]. It
    /// tests each distinct word of the document as [`Self::contains`] does,
    /// so it costs O(distinct words), not O(context tokens).
    pub(crate) fn words_into(self, out: &mut Vec<WordId>) {
        out.clear();
        out.extend(
            self.doc
                .distinct
                .iter()
                .filter(|&&(_, first, last)| first < self.start || last >= self.end)
                .map(|&(w, _, _)| w),
        );
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
        assert!(view.contains(gibson));
        assert_eq!(view.distinct_count(), 2);
        // A span over every occurrence of "gibson" hides the word; one
        // over a single occurrence does not.
        let all = ctx.excluding(0..3);
        assert!(!all.contains(gibson));
        assert_eq!(all.distinct_count(), 0);
        assert_eq!(ctx.excluding(2..3).distinct_count(), 2);
    }

    /// Random contexts: strictly increasing positions with gaps over a small
    /// vocabulary (so words repeat), and a span that is empty, inverted,
    /// exactly the occurrences of one word (which may repeat inside it), a
    /// prefix or a suffix of the document, or arbitrary. One more kind
    /// relabels every word inside an arbitrary span as word 8, a word that
    /// then occurs only inside the span.
    fn context_and_span() -> impl Strategy<Value = (Vec<(usize, WordId)>, Range<usize>)> {
        (proptest::collection::vec((1usize..4, 0u32..8), 0..30), 0u8..7, 0usize..80, 0usize..80)
            .prop_map(|(steps, kind, a, b)| {
                let mut pos = 0usize;
                let mut words: Vec<(usize, WordId)> = steps
                    .into_iter()
                    .map(|(gap, w)| {
                        pos += gap;
                        (pos, WordId(w))
                    })
                    .collect();
                let first_word_at: Vec<usize> = match words.first() {
                    Some(&(_, w0)) => {
                        words.iter().filter(|&&(_, w)| w == w0).map(|&(p, _)| p).collect()
                    }
                    None => Vec::new(),
                };
                let span = match kind {
                    0 => a..a,
                    1 => a.max(b) + 1..a.min(b),
                    2 => match (first_word_at.first(), first_word_at.last()) {
                        (Some(&lo), Some(&hi)) => lo..hi + 1,
                        _ => 0..0,
                    },
                    3 => 0..a,
                    4 => a..pos + 1,
                    5 => a..b,
                    _ => {
                        for (p, w) in words.iter_mut() {
                            if (a..b).contains(p) {
                                *w = WordId(8);
                            }
                        }
                        a..b
                    }
                };
                (words, span)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The view reads exactly what `for_mention` copies: its word set is
        /// the sorted, deduplicated words of `for_mention`, its distinct
        /// count is that set's size, it contains exactly the words of that
        /// set, and each word's positions are that word's positions in
        /// `for_mention`.
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
            prop_assert_eq!(view.distinct_count(), expected.len());
            let mut got = vec![WordId(99)];
            view.words_into(&mut got);
            prop_assert_eq!(got, expected.clone());

            for w in (0u32..10).map(WordId) {
                prop_assert_eq!(view.contains(w), expected.contains(&w), "{:?}", w);
                let positions: Vec<usize> =
                    copied.iter().filter(|&&(_, x)| x == w).map(|&(p, _)| p).collect();
                prop_assert_eq!(view.positions(w).collect::<Vec<_>>(), positions);
            }
        }
    }
}
