//! Shortest-cover computation for partial keyphrase matches (§3.3.4).
//!
//! A keyphrase may occur only partially in the input ("Grammy Award winner"
//! matched by "winner of many prizes including the Grammy"). The *cover* of
//! a phrase is the shortest token window containing a maximal number of the
//! phrase's distinct words. `score(q)` (Eq. 3.4) then rewards proximity via
//! `z = #matching words / cover length` and weight mass via the squared
//! weight ratio.

use ned_kb::WordId;

use crate::context::MentionContext;

/// The cover of a phrase in a document context, as the reference
/// [`shortest_cover`] returns it.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Cover {
    /// Number of distinct phrase words inside the cover (the maximum
    /// achievable in the context).
    pub matched_words: usize,
    /// Window length in tokens (last position − first position + 1).
    pub length: usize,
    /// The distinct matched word ids.
    pub words: Vec<WordId>,
}

#[cfg(test)]
impl Cover {
    /// The proximity factor `z = matched words / cover length`.
    pub(crate) fn z(&self) -> f64 {
        if self.length == 0 {
            return 0.0;
        }
        self.matched_words as f64 / self.length as f64
    }
}

/// The shape of a cover without its word list: enough to compute `z`.
///
/// Produced by [`shortest_cover_into`], which leaves the distinct matched
/// words in the [`CoverScratch`] instead of allocating a fresh vector per
/// call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CoverShape {
    /// Number of distinct phrase words inside the cover.
    pub(crate) matched_words: usize,
    /// Window length in tokens.
    pub(crate) length: usize,
}

impl CoverShape {
    /// The proximity factor `z = matched words / cover length`.
    pub(crate) fn z(&self) -> f64 {
        if self.length == 0 {
            return 0.0;
        }
        self.matched_words as f64 / self.length as f64
    }
}

/// Reusable buffers for the scratch-based shortest-cover computation.
///
/// One scratch serves any number of calls; every buffer is cleared (not
/// freed) per call, so steady-state cover computation performs zero heap
/// allocations. The scratch never influences results — only where the
/// intermediates live.
#[derive(Debug, Default)]
pub struct CoverScratch {
    /// Phrase-word occurrences in the context as (position, slot of the
    /// word in `words`), position order.
    occurrences: Vec<(usize, usize)>,
    /// The phrase words that occur in the context, ascending.
    words: Vec<WordId>,
    /// Sliding-window multiplicity of each word of `words`, by slot.
    counts: Vec<u32>,
}

impl CoverScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The sorted, deduplicated word ids of the most recent cover — valid
    /// after a [`shortest_cover_into`] call that returned `Some`.
    pub(crate) fn cover_words(&self) -> &[WordId] {
        &self.words
    }
}

/// The shortest cover of a phrase in a mention's context, read from the
/// document's word index into reusable buffers: zero steady-state
/// allocations. `phrase_words` must be sorted and deduplicated (a
/// precomputed phrase run, or an emerging-entity phrase's word set). On
/// success the cover's distinct words are left in the scratch
/// ([`CoverScratch::cover_words`]).
///
/// Identical to the reference `shortest_cover` (test-only) over
/// [`DocumentContext::for_mention`](crate::context::DocumentContext::for_mention):
/// each phrase word's positions outside the mention, sorted by position,
/// are exactly the reference's filtered context, because a position holds
/// one word. So the window scan is the same, and a call costs
/// O(occurrences + |phrase| · log |context|) instead of O(|context|). The
/// best window holds every phrase word that occurs, so the cover's words
/// are those words, ascending — no per-call map and no sort of the window.
// ned-lint: hot
pub(crate) fn shortest_cover_into(
    context: MentionContext<'_>,
    phrase_words: &[WordId],
    scratch: &mut CoverScratch,
) -> Option<CoverShape> {
    debug_assert!(
        phrase_words.windows(2).all(|p| p[0] < p[1]), // ned-lint: allow(p1) — windows(2) pairs
        "phrase_words must be sorted and deduplicated"
    );
    let CoverScratch { occurrences, words, counts } = scratch;
    occurrences.clear();
    words.clear();
    for &w in phrase_words {
        let before = occurrences.len();
        let slot = words.len();
        occurrences.extend(context.positions(w).map(|pos| (pos, slot)));
        if occurrences.len() > before {
            words.push(w);
        }
    }
    if words.is_empty() {
        return None;
    }
    occurrences.sort_unstable();
    let distinct_total = words.len();
    counts.clear();
    counts.resize(distinct_total, 0);

    let mut distinct = 0usize;
    let mut best = usize::MAX; // shortest window length so far
    let mut left = 0usize;
    for right in 0..occurrences.len() {
        let (rpos, rslot) = occurrences[right]; // ned-lint: allow(p1) — right < len by loop bound
        let c = &mut counts[rslot]; // ned-lint: allow(p1) — slots index `words`, counts has one per word
        if *c == 0 {
            distinct += 1;
        }
        *c += 1;
        while distinct == distinct_total {
            let (lpos, lslot) = occurrences[left]; // ned-lint: allow(p1) — left ≤ right < len
            best = best.min(rpos - lpos + 1);
            // Shrink from the left.
            let lc = &mut counts[lslot]; // ned-lint: allow(p1) — slots index `words`, counts has one per word
            *lc -= 1;
            if *lc == 0 {
                distinct -= 1;
            }
            left += 1;
        }
    }
    // The whole occurrence list holds every word, so the scan found a window.
    Some(CoverShape { matched_words: distinct_total, length: best })
}

/// Finds the shortest window over `context` (position-sorted `(pos, word)`
/// pairs) containing a maximal number of distinct words of `phrase_words`.
///
/// Returns `None` when no phrase word occurs in the context.
///
/// This is the test-only reference implementation, allocating its buffers
/// per call; the hot path uses [`shortest_cover_into`] with a reusable
/// [`CoverScratch`] and is verified bit-identical against it.
#[cfg(test)]
pub(crate) fn shortest_cover(
    context: &[(usize, WordId)],
    phrase_words: &[WordId],
) -> Option<Cover> {
    // Occurrences of phrase words in the context, in position order.
    let occurrences: Vec<(usize, WordId)> = context
        .iter()
        .copied()
        .filter(|(_, w)| phrase_words.contains(w))
        .collect();
    if occurrences.is_empty() {
        return None;
    }
    let distinct_total = {
        let mut ws: Vec<WordId> = occurrences.iter().map(|&(_, w)| w).collect();
        ws.sort_unstable();
        ws.dedup();
        ws.len()
    };

    // Two-pointer sliding window over the occurrence list, maximizing the
    // distinct count (which is `distinct_total`, always achievable) and
    // minimizing window length in token positions.
    let mut counts: ned_kb::fx::FxHashMap<WordId, u32> = Default::default();
    let mut distinct = 0usize;
    let mut best: Option<Cover> = None;
    let mut left = 0usize;
    for right in 0..occurrences.len() {
        let (_, w) = occurrences[right];
        let c = counts.entry(w).or_insert(0);
        if *c == 0 {
            distinct += 1;
        }
        *c += 1;
        while distinct == distinct_total {
            let (lpos, lw) = occurrences[left];
            let (rpos, _) = occurrences[right];
            let length = rpos - lpos + 1;
            let better = match &best {
                None => true,
                Some(b) => length < b.length,
            };
            if better {
                let mut words: Vec<WordId> =
                    occurrences[left..=right].iter().map(|&(_, w)| w).collect();
                words.sort_unstable();
                words.dedup();
                best = Some(Cover { matched_words: distinct_total, length, words });
            }
            // Shrink from the left.
            if let Some(lc) = counts.get_mut(&lw) {
                *lc -= 1;
                if *lc == 0 {
                    distinct -= 1;
                }
            }
            left += 1;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DocumentContext;

    fn w(i: u32) -> WordId {
        WordId(i)
    }

    /// Context "winner of many prizes including the Grammy" with phrase
    /// {grammy, award, winner}: positions of winner=0, grammy=6.
    #[test]
    fn partial_match_cover() {
        let context = vec![(0, w(1)), (3, w(10)), (6, w(2))];
        let phrase = vec![w(2), w(3), w(1)]; // grammy, award, winner
        let cover = shortest_cover(&context, &phrase).unwrap();
        assert_eq!(cover.matched_words, 2);
        assert_eq!(cover.length, 7); // positions 0..=6
        assert!((cover.z() - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn adjacent_full_match_has_z_one() {
        let context = vec![(4, w(1)), (5, w(2)), (6, w(3))];
        let phrase = vec![w(1), w(2), w(3)];
        let cover = shortest_cover(&context, &phrase).unwrap();
        assert_eq!(cover.matched_words, 3);
        assert_eq!(cover.length, 3);
        assert!((cover.z() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn picks_shortest_among_maximal_windows() {
        // Word 1 at 0 and 10, word 2 at 12: best window is [10, 12].
        let context = vec![(0, w(1)), (10, w(1)), (12, w(2))];
        let phrase = vec![w(1), w(2)];
        let cover = shortest_cover(&context, &phrase).unwrap();
        assert_eq!(cover.length, 3);
        assert_eq!(cover.matched_words, 2);
    }

    #[test]
    fn no_match_returns_none() {
        let context = vec![(0, w(5)), (1, w(6))];
        assert!(shortest_cover(&context, &[w(1)]).is_none());
        assert!(shortest_cover(&[], &[w(1)]).is_none());
    }

    #[test]
    fn single_word_match() {
        let context = vec![(7, w(3))];
        let cover = shortest_cover(&context, &[w(3), w(4)]).unwrap();
        assert_eq!(cover.matched_words, 1);
        assert_eq!(cover.length, 1);
        assert_eq!(cover.words, vec![w(3)]);
    }

    #[test]
    fn repeated_words_do_not_inflate_distinct_count() {
        let context = vec![(0, w(1)), (1, w(1)), (2, w(1))];
        let cover = shortest_cover(&context, &[w(1), w(2)]).unwrap();
        assert_eq!(cover.matched_words, 1);
        assert_eq!(cover.length, 1);
    }

    /// One scratch reused across every case must reproduce the reference
    /// exactly — shape, words, and the `z` bits. The reference takes the raw
    /// phrase word list (unsorted, with repeats) over the whole context;
    /// the kernel its sorted-deduplicated set over the document's word
    /// index, with nothing excluded.
    #[test]
    fn scratch_cover_matches_reference_across_reuse() {
        type Case = (Vec<(usize, WordId)>, Vec<WordId>);
        let cases: Vec<Case> = vec![
            (vec![(0, w(1)), (3, w(10)), (6, w(2))], vec![w(2), w(3), w(1)]),
            (vec![(4, w(1)), (5, w(2)), (6, w(3))], vec![w(1), w(2), w(3)]),
            (vec![(0, w(1)), (10, w(1)), (12, w(2))], vec![w(1), w(2)]),
            (vec![(0, w(5)), (1, w(6))], vec![w(1)]),
            (vec![], vec![w(1)]),
            (vec![(7, w(3))], vec![w(3), w(4)]),
            (vec![(0, w(1)), (1, w(1)), (2, w(1))], vec![w(1), w(2)]),
            (vec![(0, w(2)), (1, w(9)), (2, w(2)), (3, w(4)), (9, w(4))], vec![w(4), w(2)]),
        ];
        let mut scratch = CoverScratch::new();
        for (context, phrase) in &cases {
            let reference = shortest_cover(context, phrase);
            let mut sorted = phrase.clone();
            sorted.sort_unstable();
            sorted.dedup();
            let doc = DocumentContext::from_words(context.clone());
            let via_scratch = shortest_cover_into(doc.excluding(0..0), &sorted, &mut scratch);
            match (&reference, &via_scratch) {
                (None, None) => {}
                (Some(c), Some(s)) => {
                    assert_eq!(c.matched_words, s.matched_words);
                    assert_eq!(c.length, s.length);
                    assert_eq!(c.words, scratch.cover_words());
                    assert_eq!(c.z().to_bits(), s.z().to_bits());
                }
                other => panic!("reference and scratch disagree: {other:?}"),
            }
        }
    }

    /// The mention's own tokens leave the cover: excluding the nearer
    /// occurrence of a word moves the cover to the farther one.
    #[test]
    fn excluded_span_moves_the_cover() {
        // Word 1 at 0 and 10, word 2 at 12.
        let doc = DocumentContext::from_words(vec![(0, w(1)), (10, w(1)), (12, w(2))]);
        let phrase = [w(1), w(2)];
        let mut scratch = CoverScratch::new();
        let whole = shortest_cover_into(doc.excluding(0..0), &phrase, &mut scratch).unwrap();
        assert_eq!(whole.length, 3);
        let without_10 = shortest_cover_into(doc.excluding(9..11), &phrase, &mut scratch).unwrap();
        assert_eq!(without_10.length, 13);
        let without_2 = shortest_cover_into(doc.excluding(12..13), &phrase, &mut scratch).unwrap();
        assert_eq!((without_2.matched_words, without_2.length), (1, 1));
        assert_eq!(scratch.cover_words(), &[w(1)]);
        assert!(shortest_cover_into(doc.excluding(0..13), &phrase, &mut scratch).is_none());
    }
}
