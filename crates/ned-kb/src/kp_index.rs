//! Keyphrase inverted index: keyword → (entity, phrase) postings.
//!
//! The similarity computation (Eq. 3.4) gives a keyphrase a non-zero score
//! only when at least one of its words occurs in the mention context —
//! otherwise the shortest cover does not exist and the score is exactly 0.
//! Scanning all of KP(e) per candidate therefore wastes most of its time on
//! phrases that cannot match. This index inverts the keyphrase store once at
//! build time so the engine can enumerate, for a candidate entity and a set
//! of context words, exactly the phrases that share ≥ 1 word with the
//! context — an *exact* pruning, not an approximation.
//!
//! Postings are sorted by `(entity, phrase)` so one binary search yields an
//! entity's slice of a word's posting list. The index is transient (the
//! frozen KB rebuilds it on every construction, snapshot decode included),
//! like the other lookup indexes.

use crate::ids::{EntityId, PhraseId, WordId};
use crate::keyphrase::EntityPhrase;

/// Word → (entity, phrase) postings over every entity's keyphrase set.
#[derive(Debug, Default, Clone)]
pub struct KeyphraseIndex {
    /// `postings[w]` lists every (entity, phrase) whose phrase contains
    /// word `w`, sorted by (entity, phrase) and deduplicated.
    postings: Vec<Vec<(EntityId, PhraseId)>>,
}

impl KeyphraseIndex {
    /// Builds the index over all entities' keyphrase sets, read through
    /// raw accessors (the frozen KB's CSR arrays).
    pub(crate) fn build_raw<'x>(
        word_count: usize,
        entity_count: usize,
        phrases_of: impl Fn(EntityId) -> &'x [EntityPhrase],
        words_of: impl Fn(PhraseId) -> &'x [WordId],
    ) -> Self {
        let mut postings: Vec<Vec<(EntityId, PhraseId)>> = vec![Vec::new(); word_count];
        for ei in 0..entity_count {
            let e = EntityId::from_index(ei);
            for ep in phrases_of(e) {
                for &w in words_of(ep.phrase) {
                    // Word ids are interner-minted, so always < word_count;
                    // `get_mut` keeps the read-path build panic-free anyway.
                    if let Some(list) = postings.get_mut(w.index()) {
                        list.push((e, ep.phrase));
                    }
                }
            }
        }
        for list in &mut postings {
            list.sort_unstable();
            // A phrase repeating a word would insert its posting twice.
            list.dedup();
        }
        KeyphraseIndex { postings }
    }

    /// Re-indexes the keyphrase rows of the `touched` entities after their
    /// rows grew, and grows the index to `word_count` words. Mutations only
    /// ever add phrases to a row, so an entity's old postings are a subset
    /// of its new ones: adding the new row's postings and deduplicating
    /// equals building the index over the new rows from scratch.
    pub(crate) fn patch<'x>(
        &mut self,
        word_count: usize,
        touched: &[EntityId],
        new_rows: impl Fn(EntityId) -> &'x [EntityPhrase],
        words_of: impl Fn(PhraseId) -> &'x [WordId],
    ) {
        if self.postings.len() < word_count {
            self.postings.resize_with(word_count, Vec::new);
        }
        // The new postings, bucketed by word with a counting sort that keeps
        // their (entity, phrase) order, so each list is extended once.
        let mut added: Vec<(WordId, (EntityId, PhraseId))> = Vec::new();
        for &e in touched {
            for ep in new_rows(e) {
                added.extend(words_of(ep.phrase).iter().map(|&w| (w, (e, ep.phrase))));
            }
        }
        let mut bucket_end = vec![0usize; self.postings.len()];
        for (w, _) in &added {
            if let Some(n) = bucket_end.get_mut(w.index()) {
                *n += 1;
            }
        }
        let mut total = 0;
        for n in &mut bucket_end {
            total += *n;
            *n = total;
        }
        let mut bucketed = vec![(EntityId(0), PhraseId(0)); total];
        let mut next = bucket_end.clone();
        for &(w, posting) in added.iter().rev() {
            if let Some(at) = next.get_mut(w.index()) {
                *at -= 1;
                if let Some(slot) = bucketed.get_mut(*at) {
                    *slot = posting;
                }
            }
        }
        let mut start = 0;
        for (list, &end) in self.postings.iter_mut().zip(&bucket_end) {
            if let Some(bucket) = bucketed.get(start..end).filter(|b| !b.is_empty()) {
                list.extend_from_slice(bucket);
                // A no-op scan when every added entity follows every entity
                // already listed, as promoted entities do.
                list.sort_unstable();
                list.dedup();
            }
            start = end;
        }
    }

    /// Number of indexed words.
    pub fn word_count(&self) -> usize {
        self.postings.len()
    }

    /// Total number of postings across all words.
    pub fn posting_count(&self) -> usize {
        self.postings.iter().map(Vec::len).sum()
    }

    /// All (entity, phrase) postings of `word`, sorted by (entity, phrase).
    pub fn postings(&self, word: WordId) -> &[(EntityId, PhraseId)] {
        self.postings.get(word.index()).map_or(&[], Vec::as_slice)
    }

    /// The postings of `word` restricted to entity `e` (a contiguous slice,
    /// found by binary search).
    pub fn entity_postings(&self, e: EntityId, word: WordId) -> &[(EntityId, PhraseId)] {
        let list = self.postings(word);
        let lo = list.partition_point(|&(pe, _)| pe < e);
        let tail = list.get(lo..).unwrap_or(&[]);
        let hi = lo + tail.partition_point(|&(pe, _)| pe == e);
        list.get(lo..hi).unwrap_or(&[])
    }

    /// The phrases of entity `e` sharing at least one word with
    /// `context_words`, sorted by phrase id and deduplicated — exactly the
    /// phrases that can score non-zero against a context containing those
    /// words. `context_words` need not be sorted or deduplicated.
    pub fn matching_phrases(&self, e: EntityId, context_words: &[WordId]) -> Vec<PhraseId> {
        self.matching_phrases_counted(e, context_words).0
    }

    /// Like [`KeyphraseIndex::matching_phrases`], but also returns the
    /// number of postings scanned (entity-scoped postings visited before
    /// deduplication) so callers can account for index work done.
    pub fn matching_phrases_counted(
        &self,
        e: EntityId,
        context_words: &[WordId],
    ) -> (Vec<PhraseId>, u64) {
        let mut out: Vec<PhraseId> = Vec::new();
        let scanned = self.matching_phrases_into(e, context_words, &mut out);
        (out, scanned)
    }

    /// [`KeyphraseIndex::matching_phrases_counted`] writing into a
    /// caller-provided buffer (cleared first) instead of allocating — the
    /// form used by the scoring hot path with its reusable scratch arena.
    /// Returns the scanned-postings count.
    pub fn matching_phrases_into(
        &self,
        e: EntityId,
        context_words: &[WordId],
        out: &mut Vec<PhraseId>,
    ) -> u64 {
        out.clear();
        for &w in context_words {
            out.extend(self.entity_postings(e, w).iter().map(|&(_, p)| p));
        }
        let scanned = out.len() as u64;
        out.sort_unstable();
        out.dedup();
        scanned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KbBuilder;
    use crate::entity::EntityKind;
    use crate::frozen::FrozenKb;

    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let jimmy = b.add_entity("Jimmy Page", EntityKind::Person);
        let larry = b.add_entity("Larry Page", EntityKind::Person);
        b.add_keyphrase(jimmy, "hard rock", 3);
        b.add_keyphrase(jimmy, "rock guitarist", 2);
        b.add_keyphrase(larry, "search engine", 3);
        b.add_keyphrase(larry, "rock climbing", 1);
        FrozenKb::freeze(&b.build())
    }

    #[test]
    fn postings_cover_all_phrase_words() {
        let kb = kb();
        let idx = kb.keyphrase_index();
        let rock = kb.word_id("rock").unwrap();
        // "rock" occurs in three phrases across both entities.
        assert_eq!(idx.postings(rock).len(), 3);
        let engine = kb.word_id("engine").unwrap();
        assert_eq!(idx.postings(engine).len(), 1);
    }

    #[test]
    fn entity_postings_are_scoped() {
        let kb = kb();
        let idx = kb.keyphrase_index();
        let jimmy = kb.entity_by_name("Jimmy Page").unwrap();
        let larry = kb.entity_by_name("Larry Page").unwrap();
        let rock = kb.word_id("rock").unwrap();
        assert_eq!(idx.entity_postings(jimmy, rock).len(), 2);
        assert_eq!(idx.entity_postings(larry, rock).len(), 1);
        assert!(idx.entity_postings(jimmy, rock).iter().all(|&(e, _)| e == jimmy));
    }

    #[test]
    fn matching_phrases_equal_exhaustive_filter() {
        let kb = kb();
        let idx = kb.keyphrase_index();
        let jimmy = kb.entity_by_name("Jimmy Page").unwrap();
        let ctx: Vec<WordId> =
            ["rock", "search"].iter().filter_map(|w| kb.word_id(w)).collect();
        let via_index = idx.matching_phrases(jimmy, &ctx);
        let exhaustive: Vec<PhraseId> = kb
            .keyphrases(jimmy)
            .iter()
            .filter(|ep| kb.phrase_words(ep.phrase).iter().any(|w| ctx.contains(w)))
            .map(|ep| ep.phrase)
            .collect();
        assert_eq!(via_index, exhaustive);
    }

    #[test]
    fn duplicate_context_words_do_not_duplicate_phrases() {
        let kb = kb();
        let idx = kb.keyphrase_index();
        let jimmy = kb.entity_by_name("Jimmy Page").unwrap();
        let rock = kb.word_id("rock").unwrap();
        let once = idx.matching_phrases(jimmy, &[rock]);
        let twice = idx.matching_phrases(jimmy, &[rock, rock]);
        assert_eq!(once, twice);
        assert_eq!(once.len(), 2);
    }

    #[test]
    fn counted_variant_reports_prededup_scans() {
        let kb = kb();
        let idx = kb.keyphrase_index();
        let jimmy = kb.entity_by_name("Jimmy Page").unwrap();
        let rock = kb.word_id("rock").unwrap();
        let (phrases, scanned) = idx.matching_phrases_counted(jimmy, &[rock, rock]);
        assert_eq!(phrases, idx.matching_phrases(jimmy, &[rock]));
        // Two context occurrences of "rock" × two matching phrases: four
        // postings visited, deduplicated down to two phrases.
        assert_eq!(scanned, 4);
    }

    #[test]
    fn unknown_word_has_no_postings() {
        let kb = kb();
        let idx = kb.keyphrase_index();
        // An id beyond the vocabulary maps to the empty slice.
        let bogus = WordId::from_index(idx.word_count() + 7);
        assert!(idx.postings(bogus).is_empty());
    }

    #[test]
    fn empty_store_builds_empty_index() {
        let kb = FrozenKb::freeze(&KbBuilder::new().build());
        let idx = kb.keyphrase_index();
        assert_eq!(idx.posting_count(), 0);
    }
}
