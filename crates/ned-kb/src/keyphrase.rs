//! Per-entity keyphrase store.
//!
//! Each entity is described by a set of salient keyphrases KP(e) with
//! occurrence counts (§3.3.4, §4.3.1). In the original system the phrases
//! come from link-anchor texts, category names, and citation titles of the
//! entity's Wikipedia article; here they are supplied by the builder (the
//! synthetic generator or harvested phrases).

use serde::{Deserialize, Serialize};

use crate::ids::{EntityId, PhraseId};

/// A keyphrase of an entity, with its observation count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntityPhrase {
    /// Interned phrase id.
    pub phrase: PhraseId,
    /// How often the phrase was observed with the entity.
    pub count: u64,
}

/// Keyphrase sets for all entities.
#[derive(Debug, Default, Clone)]
pub struct KeyphraseStore {
    per_entity: Vec<Vec<EntityPhrase>>,
    total_phrase_observations: u64,
}

impl KeyphraseStore {
    /// Creates a store for `n` entities.
    pub fn new(n: usize) -> Self {
        KeyphraseStore { per_entity: vec![Vec::new(); n], total_phrase_observations: 0 }
    }

    /// Number of entities covered.
    pub fn len(&self) -> usize {
        self.per_entity.len()
    }

    /// True if the store covers no entities.
    pub fn is_empty(&self) -> bool {
        self.per_entity.is_empty()
    }

    /// Adds `count` observations of `phrase` for `entity`.
    pub fn add(&mut self, entity: EntityId, phrase: PhraseId, count: u64) {
        let list = &mut self.per_entity[entity.index()];
        match list.iter_mut().find(|p| p.phrase == phrase) {
            Some(p) => p.count += count,
            None => list.push(EntityPhrase { phrase, count }),
        }
        self.total_phrase_observations += count;
    }

    /// The keyphrase set KP(e) if `entity` is in range, sorted by phrase
    /// id after [`Self::finalize`].
    pub fn try_phrases(&self, entity: EntityId) -> Option<&[EntityPhrase]> {
        self.per_entity.get(entity.index()).map(Vec::as_slice)
    }

    /// The keyphrase set KP(e), sorted by phrase id after [`Self::finalize`].
    /// An out-of-range entity reads as an empty set (the read path never
    /// panics; ids are validated where they are minted).
    pub fn phrases(&self, entity: EntityId) -> &[EntityPhrase] {
        self.try_phrases(entity).unwrap_or(&[])
    }

    /// Number of distinct keyphrases of `entity`.
    pub fn phrase_count(&self, entity: EntityId) -> usize {
        self.per_entity[entity.index()].len()
    }

    /// True if `entity` has `phrase` in its keyphrase set (requires
    /// [`Self::finalize`] to have run).
    pub fn has_phrase(&self, entity: EntityId, phrase: PhraseId) -> bool {
        self.per_entity[entity.index()].binary_search_by_key(&phrase, |p| p.phrase).is_ok()
    }

    /// Total phrase observations across all entities.
    pub fn total_observations(&self) -> u64 {
        self.total_phrase_observations
    }

    /// Sorts per-entity phrase lists by phrase id for binary search.
    pub fn finalize(&mut self) {
        for list in &mut self.per_entity {
            list.sort_unstable_by_key(|p| p.phrase);
        }
    }

    /// Reconstructs a store from per-entity rows in entity-id order (the
    /// thaw of the test-only reference in `crate::delta`).
    #[cfg(test)]
    pub(crate) fn from_rows(per_entity: Vec<Vec<EntityPhrase>>, total: u64) -> Self {
        KeyphraseStore { per_entity, total_phrase_observations: total }
    }

    /// Extends the store to cover `n` entities (newly promoted entities
    /// start with no keyphrases).
    #[cfg(test)]
    pub(crate) fn grow_to(&mut self, n: usize) {
        if n > self.per_entity.len() {
            self.per_entity.resize(n, Vec::new());
        }
    }

    /// Adjusts the count of an existing (entity, phrase) pair by `delta`,
    /// saturating at zero, keeping the store total consistent. Returns the
    /// new count, or `None` if the pair is absent.
    #[cfg(test)]
    pub(crate) fn reweight(
        &mut self,
        entity: EntityId,
        phrase: PhraseId,
        delta: i64,
    ) -> Option<u64> {
        let row = self.per_entity.get_mut(entity.index())?;
        let slot = row.iter_mut().find(|p| p.phrase == phrase)?;
        let old = slot.count;
        let new = if delta >= 0 {
            old.saturating_add(delta as u64)
        } else {
            old.saturating_sub(delta.unsigned_abs())
        };
        slot.count = new;
        self.total_phrase_observations =
            self.total_phrase_observations - old + new;
        Some(new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }
    fn p(i: u32) -> PhraseId {
        PhraseId(i)
    }

    #[test]
    fn add_and_query() {
        let mut s = KeyphraseStore::new(2);
        s.add(e(0), p(10), 3);
        s.add(e(0), p(11), 1);
        s.add(e(1), p(10), 2);
        s.finalize();
        assert_eq!(s.phrase_count(e(0)), 2);
        assert!(s.has_phrase(e(0), p(10)));
        assert!(!s.has_phrase(e(1), p(11)));
        assert_eq!(s.total_observations(), 6);
    }

    #[test]
    fn duplicate_adds_accumulate() {
        let mut s = KeyphraseStore::new(1);
        s.add(e(0), p(5), 2);
        s.add(e(0), p(5), 3);
        assert_eq!(s.phrase_count(e(0)), 1);
        assert_eq!(s.phrases(e(0))[0].count, 5);
    }

    #[test]
    fn finalize_sorts_by_phrase_id() {
        let mut s = KeyphraseStore::new(1);
        s.add(e(0), p(9), 1);
        s.add(e(0), p(2), 1);
        s.add(e(0), p(5), 1);
        s.finalize();
        let ids: Vec<u32> = s.phrases(e(0)).iter().map(|x| x.phrase.0).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }
}
