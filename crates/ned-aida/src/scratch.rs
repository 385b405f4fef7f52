//! Reusable per-worker scoring arenas.
//!
//! The candidate-scoring hot path (context word set → matching-phrase
//! enumeration → shortest covers → weight masses) used to allocate a handful
//! of short-lived vectors per mention–candidate pair. [`ScoringScratch`]
//! bundles every one of those buffers into a single arena that is cleared
//! (never freed) between uses, so steady-state scoring performs zero heap
//! allocations per mention.
//!
//! # Ownership rules
//!
//! - One arena per worker thread, owned by a thread-local and handed out by
//!   [`with_scratch`]. The vendored rayon shim spawns scoped workers per
//!   parallel region, so each worker's arena lives for its whole chunk of
//!   documents and is reused across every mention in it.
//! - Re-entrant [`with_scratch`] calls (the arena already borrowed further
//!   up the stack) fall back to a fresh arena. This is safe because the
//!   arena never influences *values* — only where intermediates live — so
//!   results are bit-identical either way.
//! - Buffers hold plain ids and floats; nothing borrows from the KB, so an
//!   arena outlives any particular knowledge base and can serve several.

use std::cell::RefCell;

use ned_kb::{EntityId, PhraseId, WordId};

use crate::cover::CoverScratch;

/// All buffers of the scoring hot path, reusable across mentions.
#[derive(Debug, Default)]
pub struct ScoringScratch {
    /// Shortest-cover buffers (occurrences, window counts, cover words).
    pub cover: CoverScratch,
    /// Sorted-deduplicated context word set of the current mention, read
    /// from the document's word index by `simscores_batch`.
    pub(crate) context_words: Vec<WordId>,
    /// Matching phrase ids of the candidate currently being scored.
    pub(crate) matching: Vec<PhraseId>,
    /// Word-side-planned candidates of the current mention as
    /// `(entity, candidate index)`, sorted by entity for the merge pass.
    pub(crate) word_side: Vec<(EntityId, usize)>,
    /// Dense per-candidate phrase-id accumulators, indexed by the
    /// candidate's slot in the sorted `word_side` list.
    pub(crate) phrase_bufs: Vec<Vec<PhraseId>>,
    /// Batched similarity scores, in candidate order.
    pub(crate) sims: Vec<f64>,
}

impl ScoringScratch {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scores of the last
    /// [`simscores_batch`](crate::similarity::simscores_batch) call, in
    /// candidate order.
    pub fn sims(&self) -> &[f64] {
        &self.sims
    }
}

thread_local! {
    static SCRATCH: RefCell<ScoringScratch> = RefCell::new(ScoringScratch::new());
}

/// Runs `f` with this worker thread's scoring arena.
///
/// The arena is process-lifetime per thread: the first use on a thread pays
/// the buffer growth, every later use on that thread reuses the capacity.
/// If the arena is already borrowed (a re-entrant scoring call further up
/// the stack), `f` gets a fresh arena instead — bit-identical results, just
/// without the reuse.
pub fn with_scratch<R>(f: impl FnOnce(&mut ScoringScratch) -> R) -> R {
    SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut ScoringScratch::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_scratch_reuses_capacity_across_calls() {
        with_scratch(|s| {
            s.context_words.clear();
            s.context_words.extend((0u32..64).map(WordId));
        });
        let cap = with_scratch(|s| s.context_words.capacity());
        assert!(cap >= 64, "thread-local arena should retain capacity, got {cap}");
    }

    #[test]
    fn reentrant_with_scratch_falls_back_to_fresh_arena() {
        with_scratch(|outer| {
            outer.sims.push(1.0);
            let inner_len = with_scratch(|inner| {
                inner.sims.push(2.0);
                inner.sims.len()
            });
            // The inner call must have seen a fresh arena, not ours.
            assert_eq!(inner_len, 1);
            assert_eq!(outer.sims.last().copied(), Some(1.0));
        });
    }
}
