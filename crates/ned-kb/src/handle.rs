//! Epoch-based publication of KB versions to concurrent readers.
//!
//! The incremental KB changes over time — a promotion run builds a new
//! [`DeltaKb`], compaction produces a fresh [`FrozenKb`] — but annotation
//! workers must never block on those writes, and an in-flight request must
//! see one consistent KB from start to finish. [`KbHandle`] provides that:
//! an atomically swappable `Arc` (hand-rolled arc-swap: a generation
//! counter + a briefly-held lock on the *writer* side only), where readers
//! pin an epoch by cloning the `Arc` and keep it for as long as they like.
//!
//! A reader that keeps a pinned epoch between requests revalidates it with
//! one atomic load of [`KbHandle::generation`] — lock-free when nothing
//! changed, which is every request except the first after a swap — and
//! re-pins through the non-blocking [`KbHandle::try_current`], so readers
//! never wait on a writer. `ned-serve`'s `EpochHandler` does exactly that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use ned_obs::{names, Metrics};

use crate::delta::DeltaKb;
use crate::dictionary::Candidate;
use crate::entity::Entity;
use crate::frozen::FrozenKb;
use crate::ids::{EntityId, PhraseId, WordId};
use crate::keyphrase::EntityPhrase;
use crate::kp_index::KeyphraseIndex;
use crate::phrase_runs::PhraseRuns;
use crate::view::{DictView, KbView, LinksView};
use crate::weights::WeightModel;

/// One published version of the knowledge base: either a plain frozen
/// snapshot or a frozen base with a delta overlay.
#[derive(Debug, Clone)]
pub enum KbEpoch {
    /// A compacted (or initial) frozen KB.
    Frozen(Arc<FrozenKb>),
    /// A frozen base plus copy-on-write overlay.
    Delta(Arc<DeltaKb>),
}

macro_rules! on_epoch {
    ($self_:expr, $kb:ident => $body:expr) => {
        match $self_ {
            KbEpoch::Frozen($kb) => $body,
            KbEpoch::Delta($kb) => $body,
        }
    };
}

impl KbEpoch {
    /// Entities the epoch adds over its frozen base (0 for plain frozen).
    pub fn delta_entity_count(&self) -> usize {
        match self {
            KbEpoch::Frozen(_) => 0,
            KbEpoch::Delta(d) => d.delta_entity_count(),
        }
    }
}

impl KbView for KbEpoch {
    fn entity_count(&self) -> usize {
        on_epoch!(self, kb => kb.entity_count())
    }
    fn entity(&self, e: EntityId) -> &Entity {
        on_epoch!(self, kb => kb.entity(e))
    }
    fn entity_by_name(&self, canonical_name: &str) -> Option<EntityId> {
        on_epoch!(self, kb => kb.entity_by_name(canonical_name))
    }
    fn candidates(&self, surface: &str) -> &[Candidate] {
        on_epoch!(self, kb => kb.candidates(surface))
    }
    fn prior(&self, surface: &str, e: EntityId) -> f64 {
        on_epoch!(self, kb => kb.prior(surface, e))
    }
    fn dictionary(&self) -> DictView<'_> {
        match self {
            KbEpoch::Frozen(kb) => KbView::dictionary(&**kb),
            KbEpoch::Delta(kb) => KbView::dictionary(&**kb),
        }
    }
    fn links(&self) -> LinksView<'_> {
        match self {
            KbEpoch::Frozen(kb) => KbView::links(&**kb),
            KbEpoch::Delta(kb) => KbView::links(&**kb),
        }
    }
    fn keyphrases(&self, e: EntityId) -> &[EntityPhrase] {
        on_epoch!(self, kb => kb.keyphrases(e))
    }
    fn keyphrase_index(&self) -> &KeyphraseIndex {
        on_epoch!(self, kb => kb.keyphrase_index())
    }
    fn phrase_words(&self, p: PhraseId) -> &[WordId] {
        on_epoch!(self, kb => kb.phrase_words(p))
    }
    fn phrase_surface(&self, p: PhraseId) -> &str {
        on_epoch!(self, kb => kb.phrase_surface(p))
    }
    fn word_text(&self, w: WordId) -> &str {
        on_epoch!(self, kb => kb.word_text(w))
    }
    fn word_id(&self, text: &str) -> Option<WordId> {
        on_epoch!(self, kb => kb.word_id(text))
    }
    fn word_count(&self) -> usize {
        on_epoch!(self, kb => kb.word_count())
    }
    fn phrase_count(&self) -> usize {
        on_epoch!(self, kb => kb.phrase_count())
    }
    fn weights(&self) -> &WeightModel {
        on_epoch!(self, kb => kb.weights())
    }
    fn phrase_runs(&self) -> &PhraseRuns {
        on_epoch!(self, kb => kb.phrase_runs())
    }
}

/// Atomically swappable handle on the current KB epoch.
///
/// Writers call [`KbHandle::swap`] to publish a new epoch; readers call
/// [`KbHandle::current`] (or [`KbHandle::try_current`]) to pin one. A pinned
/// epoch stays fully usable after any number of swaps — dropping the last
/// `Arc` frees it.
#[derive(Debug)]
pub struct KbHandle {
    current: RwLock<Arc<KbEpoch>>,
    generation: AtomicU64,
    metrics: Metrics,
}

impl KbHandle {
    /// Creates a handle publishing `epoch` as generation 0.
    pub fn new(epoch: KbEpoch) -> Self {
        Self::observed(epoch, &Metrics::disabled())
    }

    /// [`KbHandle::new`], metered: [`KbHandle::swap`] bumps the
    /// `kb_epoch_swaps` counter.
    pub fn observed(epoch: KbEpoch, metrics: &Metrics) -> Self {
        KbHandle {
            current: RwLock::new(Arc::new(epoch)),
            generation: AtomicU64::new(0),
            metrics: metrics.clone(),
        }
    }

    /// The current generation number (bumped on every swap).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Pins the current epoch: returns its generation and a clone of the
    /// `Arc`. Briefly takes the read lock (writers hold it only for the
    /// pointer store, so this never waits on KB construction).
    pub fn current(&self) -> (u64, Arc<KbEpoch>) {
        let guard = self.current.read().unwrap_or_else(|e| e.into_inner());
        (self.generation.load(Ordering::Acquire), Arc::clone(&guard))
    }

    /// Non-blocking pin attempt: `None` only while a writer holds the lock
    /// for its pointer store (a few instructions).
    pub fn try_current(&self) -> Option<(u64, Arc<KbEpoch>)> {
        let guard = self.current.try_read().ok()?;
        Some((self.generation.load(Ordering::Acquire), Arc::clone(&guard)))
    }

    /// Publishes a new epoch, bumping the generation. Readers holding the
    /// old epoch keep it; new pins observe the new one. Returns the new
    /// generation.
    pub fn swap(&self, epoch: KbEpoch) -> u64 {
        let next = Arc::new(epoch);
        {
            let mut guard = self.current.write().unwrap_or_else(|e| e.into_inner());
            *guard = next;
        }
        // Bump *after* the store: a reader that sees the new generation is
        // guaranteed to load the new epoch on its next (re-)pin.
        let generation = self.generation.fetch_add(1, Ordering::AcqRel) + 1;
        self.metrics.counter(names::KB_EPOCH_SWAPS).inc();
        generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::example_kb;
    use crate::entity::EntityKind;
    use crate::mutation::KbMutation;

    fn frozen() -> Arc<FrozenKb> {
        Arc::new(FrozenKb::freeze(&example_kb()))
    }

    #[test]
    fn swap_publishes_new_epoch_and_keeps_old_pins_alive() {
        let base = frozen();
        let handle = Arc::new(KbHandle::new(KbEpoch::Frozen(Arc::clone(&base))));
        let (gen0, pinned) = handle.current();
        assert_eq!(gen0, 0);
        let n0 = pinned.entity_count();

        let delta = Arc::new(
            DeltaKb::build(
                Arc::clone(&base),
                vec![KbMutation::AddEntity {
                    canonical_name: "Black Dog (song)".into(),
                    kind: EntityKind::Work,
                }],
            )
            .unwrap(),
        );
        let gen1 = handle.swap(KbEpoch::Delta(delta));
        assert_eq!(gen1, 1);
        // The old pin still reads the old KB.
        assert_eq!(pinned.entity_count(), n0);
        let (gen_now, now) = handle.current();
        assert_eq!(gen_now, 1);
        assert_eq!(now.entity_count(), n0 + 1);
        assert_eq!(now.delta_entity_count(), 1);
    }

    #[test]
    fn swaps_are_counted() {
        let metrics = Metrics::new();
        let handle = KbHandle::observed(KbEpoch::Frozen(frozen()), &metrics);
        handle.swap(KbEpoch::Frozen(frozen()));
        handle.swap(KbEpoch::Frozen(frozen()));
        assert_eq!(metrics.counter_value(names::KB_EPOCH_SWAPS), 2);
        assert_eq!(handle.generation(), 2);
    }

    #[test]
    fn epoch_implements_kb_view_transparently() {
        let base = frozen();
        let epoch = KbEpoch::Frozen(Arc::clone(&base));
        assert_eq!(epoch.entity_count(), base.entity_count());
        let e = base.entity_by_name("Jimmy Page").unwrap();
        assert_eq!(epoch.entity(e), base.entity(e));
        assert_eq!(epoch.candidates("Kashmir").len(), base.candidates("Kashmir").len());
        assert_eq!(epoch.dictionary().name_count(), base.dictionary().name_count());
        assert_eq!(epoch.links().edge_count(), base.links().edge_count());
    }
}
