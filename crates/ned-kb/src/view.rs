//! The read-side boundary of the knowledge base: [`KbView`].
//!
//! Every consumer of the KB — the disambiguator, the relatedness measures,
//! the emerging-entity pipeline, the applications — only ever *reads*. This
//! trait captures that read API once so consumers can be generic over the
//! two read representations: the [`FrozenKb`] (flat columnar arrays, cheap
//! to share) and the [`DeltaKb`] overlay (a frozen base plus the rows that
//! promotions touched). Blanket impls for `&K` and `Arc<K>` mean call sites
//! can keep passing borrows while services hold one `Arc<FrozenKb>` across
//! threads. The build-time [`KnowledgeBase`](crate::KnowledgeBase) is not a
//! view: it is only built, frozen and encoded.
//!
//! The two representations store their dictionary and link graph
//! differently, so those accessors return the lightweight [`DictView`] and
//! [`LinksView`] wrappers rather than concrete structs; both wrappers
//! preserve the exact iteration order and arithmetic of the frozen arrays,
//! keeping every downstream output byte-identical across backends.

use std::sync::Arc;

use crate::delta::DeltaKb;
use crate::dictionary::Candidate;
use crate::entity::Entity;
use crate::frozen::{FrozenDictionary, FrozenKb, FrozenLinks};
use crate::ids::{EntityId, PhraseId, WordId};
use crate::keyphrase::EntityPhrase;
use crate::kp_index::KeyphraseIndex;
use crate::phrase_runs::PhraseRuns;
use crate::weights::WeightModel;

/// Read-only view of a knowledge base.
///
/// Implemented by [`FrozenKb`] and [`DeltaKb`] (and by the
/// [`KbEpoch`](crate::KbEpoch) that publishes either), plus blanket impls
/// for `&K` and `Arc<K>` so both borrowed and shared-handle call styles
/// work. `Send + Sync` is a supertrait: every view must be shareable across
/// the rayon workers of the parallel engine.
pub trait KbView: Send + Sync {
    /// Number of entities N in the repository.
    fn entity_count(&self) -> usize;

    /// The entity record for `e`.
    fn entity(&self, e: EntityId) -> &Entity;

    /// Looks up an entity by its canonical name.
    fn entity_by_name(&self, canonical_name: &str) -> Option<EntityId>;

    /// Candidate entities for a mention surface (dictionary lookup with the
    /// §3.3.2 case rules). Empty when the surface is out-of-dictionary.
    fn candidates(&self, surface: &str) -> &[Candidate];

    /// Popularity prior p(e | surface) (§3.3.3).
    fn prior(&self, surface: &str, e: EntityId) -> f64;

    /// The name dictionary, behind the representation-bridging wrapper.
    fn dictionary(&self) -> DictView<'_>;

    /// The link graph, behind the representation-bridging wrapper.
    fn links(&self) -> LinksView<'_>;

    /// The keyphrase set KP(e), sorted by phrase id.
    fn keyphrases(&self, e: EntityId) -> &[EntityPhrase];

    /// The keyphrase inverted index (keyword → (entity, phrase) postings).
    fn keyphrase_index(&self) -> &KeyphraseIndex;

    /// Word-id sequence of a keyphrase.
    fn phrase_words(&self, p: PhraseId) -> &[WordId];

    /// Display surface of a keyphrase.
    fn phrase_surface(&self, p: PhraseId) -> &str;

    /// Lowercased text of a keyword.
    fn word_text(&self, w: WordId) -> &str;

    /// Looks up an interned keyword by text.
    fn word_id(&self, text: &str) -> Option<WordId>;

    /// Number of distinct keywords.
    fn word_count(&self) -> usize;

    /// Number of distinct keyphrases.
    fn phrase_count(&self) -> usize;

    /// The precomputed weight model.
    fn weights(&self) -> &WeightModel;

    /// Precomputed deduplicated phrase runs and weight masses (the
    /// similarity hot path reads these instead of re-sorting per call).
    fn phrase_runs(&self) -> &PhraseRuns;

    /// Iterates over all entity ids.
    fn entity_ids(&self) -> EntityIds {
        EntityIds(0..self.entity_count())
    }
}

/// Iterator over all entity ids of a view (dense `0..N`).
#[derive(Debug, Clone)]
pub struct EntityIds(std::ops::Range<usize>);

impl Iterator for EntityIds {
    type Item = EntityId;

    fn next(&mut self) -> Option<EntityId> {
        self.0.next().map(EntityId::from_index)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for EntityIds {
    fn next_back(&mut self) -> Option<EntityId> {
        self.0.next_back().map(EntityId::from_index)
    }
}

impl ExactSizeIterator for EntityIds {}

macro_rules! delegate_kb_view {
    ($self_:ident => $inner:expr) => {
        fn entity_count(&$self_) -> usize {
            $inner.entity_count()
        }
        fn entity(&$self_, e: EntityId) -> &Entity {
            $inner.entity(e)
        }
        fn entity_by_name(&$self_, canonical_name: &str) -> Option<EntityId> {
            $inner.entity_by_name(canonical_name)
        }
        fn candidates(&$self_, surface: &str) -> &[Candidate] {
            $inner.candidates(surface)
        }
        fn prior(&$self_, surface: &str, e: EntityId) -> f64 {
            $inner.prior(surface, e)
        }
        fn dictionary(&$self_) -> DictView<'_> {
            $inner.dictionary()
        }
        fn links(&$self_) -> LinksView<'_> {
            $inner.links()
        }
        fn keyphrases(&$self_, e: EntityId) -> &[EntityPhrase] {
            $inner.keyphrases(e)
        }
        fn keyphrase_index(&$self_) -> &KeyphraseIndex {
            $inner.keyphrase_index()
        }
        fn phrase_words(&$self_, p: PhraseId) -> &[WordId] {
            $inner.phrase_words(p)
        }
        fn phrase_surface(&$self_, p: PhraseId) -> &str {
            $inner.phrase_surface(p)
        }
        fn word_text(&$self_, w: WordId) -> &str {
            $inner.word_text(w)
        }
        fn word_id(&$self_, text: &str) -> Option<WordId> {
            $inner.word_id(text)
        }
        fn word_count(&$self_) -> usize {
            $inner.word_count()
        }
        fn phrase_count(&$self_) -> usize {
            $inner.phrase_count()
        }
        fn weights(&$self_) -> &WeightModel {
            $inner.weights()
        }
        fn phrase_runs(&$self_) -> &PhraseRuns {
            $inner.phrase_runs()
        }
    };
}

impl<K: KbView + ?Sized> KbView for &K {
    delegate_kb_view!(self => (**self));
}

impl<K: KbView + ?Sized> KbView for Arc<K> {
    delegate_kb_view!(self => (**self));
}

impl KbView for FrozenKb {
    fn entity_count(&self) -> usize {
        FrozenKb::entity_count(self)
    }
    fn entity(&self, e: EntityId) -> &Entity {
        FrozenKb::entity(self, e)
    }
    fn entity_by_name(&self, canonical_name: &str) -> Option<EntityId> {
        FrozenKb::entity_by_name(self, canonical_name)
    }
    fn candidates(&self, surface: &str) -> &[Candidate] {
        FrozenKb::candidates(self, surface)
    }
    fn prior(&self, surface: &str, e: EntityId) -> f64 {
        FrozenKb::prior(self, surface, e)
    }
    fn dictionary(&self) -> DictView<'_> {
        DictView::Frozen(FrozenKb::dictionary(self))
    }
    fn links(&self) -> LinksView<'_> {
        LinksView::Frozen(FrozenKb::links(self))
    }
    fn keyphrases(&self, e: EntityId) -> &[EntityPhrase] {
        FrozenKb::keyphrases(self, e)
    }
    fn keyphrase_index(&self) -> &KeyphraseIndex {
        FrozenKb::keyphrase_index(self)
    }
    fn phrase_words(&self, p: PhraseId) -> &[WordId] {
        FrozenKb::phrase_words(self, p)
    }
    fn phrase_surface(&self, p: PhraseId) -> &str {
        FrozenKb::phrase_surface(self, p)
    }
    fn word_text(&self, w: WordId) -> &str {
        FrozenKb::word_text(self, w)
    }
    fn word_id(&self, text: &str) -> Option<WordId> {
        FrozenKb::word_id(self, text)
    }
    fn word_count(&self) -> usize {
        FrozenKb::word_count(self)
    }
    fn phrase_count(&self) -> usize {
        FrozenKb::phrase_count(self)
    }
    fn weights(&self) -> &WeightModel {
        FrozenKb::weights(self)
    }
    fn phrase_runs(&self) -> &PhraseRuns {
        FrozenKb::phrase_runs(self)
    }
}

/// Representation-bridging view of the link graph.
///
/// Both arms expose sorted adjacency slices, so the merge-based set
/// operations produce identical results regardless of the backing store.
#[derive(Debug, Clone, Copy)]
pub enum LinksView<'a> {
    /// The frozen CSR graph.
    Frozen(&'a FrozenLinks),
    /// The copy-on-write overlay (touched rows overlaid, rest falls
    /// through to the frozen base).
    Delta(&'a DeltaKb),
}

impl<'a> LinksView<'a> {
    /// Number of entities.
    pub fn len(&self) -> usize {
        match self {
            LinksView::Frozen(f) => f.len(),
            LinksView::Delta(d) => DeltaKb::entity_count(d),
        }
    }

    /// True if the graph covers no entities.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        match self {
            LinksView::Frozen(f) => f.edge_count(),
            LinksView::Delta(d) => DeltaKb::edge_count(d),
        }
    }

    /// Entities linking *to* `e`, sorted ascending.
    pub fn inlinks(&self, e: EntityId) -> &'a [EntityId] {
        match self {
            LinksView::Frozen(f) => f.inlinks(e),
            LinksView::Delta(d) => DeltaKb::inlinks(d, e),
        }
    }

    /// Entities `e` links *to*, sorted ascending.
    pub fn outlinks(&self, e: EntityId) -> &'a [EntityId] {
        match self {
            LinksView::Frozen(f) => f.outlinks(e),
            LinksView::Delta(d) => DeltaKb::outlinks(d, e),
        }
    }

    /// Number of in-links of `e` (the entity's "link popularity").
    pub fn inlink_count(&self, e: EntityId) -> usize {
        self.inlinks(e).len()
    }

    /// Size of the intersection of the in-link sets of `a` and `b`.
    pub fn shared_inlink_count(&self, a: EntityId, b: EntityId) -> usize {
        crate::links::sorted_intersection_size(self.inlinks(a), self.inlinks(b))
    }

    /// True if a direct link exists in either direction.
    pub fn directly_linked(&self, a: EntityId, b: EntityId) -> bool {
        self.outlinks(a).binary_search(&b).is_ok() || self.outlinks(b).binary_search(&a).is_ok()
    }
}

/// Representation-bridging view of the name dictionary.
#[derive(Debug, Clone, Copy)]
pub enum DictView<'a> {
    /// The frozen sorted-arena dictionary.
    Frozen(&'a FrozenDictionary),
    /// The copy-on-write overlay (touched rows overlaid, rest falls
    /// through to the frozen base).
    Delta(&'a DeltaKb),
}

impl<'a> DictView<'a> {
    /// Candidate entities for a mention surface, or an empty slice when the
    /// name is unknown.
    pub fn candidates(&self, surface: &str) -> &'a [Candidate] {
        match self {
            DictView::Frozen(d) => d.candidates(surface),
            DictView::Delta(d) => DeltaKb::candidates(d, surface),
        }
    }

    /// Popularity prior p(e | name) (§3.3.3). Returns 0 if the pair is
    /// unknown.
    pub fn prior(&self, surface: &str, entity: EntityId) -> f64 {
        match self {
            DictView::Frozen(d) => d.prior(surface, entity),
            DictView::Delta(d) => DeltaKb::prior(d, surface, entity),
        }
    }

    /// Full prior distribution over the candidates of a name, in candidate
    /// order. Empty when the name is unknown.
    pub fn prior_distribution(&self, surface: &str) -> Vec<(EntityId, f64)> {
        match self {
            DictView::Frozen(d) => d.prior_distribution(surface),
            DictView::Delta(d) => DeltaKb::prior_distribution(d, surface),
        }
    }

    /// Number of distinct names.
    pub fn name_count(&self) -> usize {
        match self {
            DictView::Frozen(d) => d.name_count(),
            DictView::Delta(d) => DeltaKb::name_count(d),
        }
    }

    /// Number of (name, entity) pairs.
    pub fn pair_count(&self) -> usize {
        match self {
            DictView::Frozen(d) => d.pair_count(),
            DictView::Delta(d) => DeltaKb::pair_count(d),
        }
    }

    /// Iterates over all (name-key, candidates) entries in ascending key
    /// order. The frozen arm walks the pre-sorted arrays without allocating;
    /// the delta arm merges the base walk with the sorted overlay keys
    /// (overlay shadows the base on equal keys).
    pub fn iter(&self) -> DictIter<'a> {
        match self {
            DictView::Frozen(d) => DictIter::Frozen { dict: d, next: 0 },
            DictView::Delta(d) => DictIter::Delta { delta: d, base_next: 0, overlay_next: 0 },
        }
    }
}

/// Iterator over dictionary entries in ascending key order.
pub enum DictIter<'a> {
    /// Zero-alloc index walk over the frozen sorted arrays.
    Frozen {
        /// The frozen dictionary being walked.
        dict: &'a FrozenDictionary,
        /// Next entry index.
        next: usize,
    },
    /// Linear merge of the frozen base walk with the sorted overlay keys;
    /// the overlay row shadows the base row on equal keys.
    Delta {
        /// The overlay being walked.
        delta: &'a DeltaKb,
        /// Next base entry index.
        base_next: usize,
        /// Next overlay key index.
        overlay_next: usize,
    },
}

impl std::fmt::Debug for DictIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DictIter::Frozen { next, .. } => {
                f.debug_struct("Frozen").field("next", next).finish_non_exhaustive()
            }
            DictIter::Delta { base_next, overlay_next, .. } => f
                .debug_struct("Delta")
                .field("base_next", base_next)
                .field("overlay_next", overlay_next)
                .finish_non_exhaustive(),
        }
    }
}

impl<'a> Iterator for DictIter<'a> {
    type Item = (&'a str, &'a [Candidate]);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            DictIter::Frozen { dict, next } => {
                if *next >= dict.name_count() {
                    return None;
                }
                let i = *next;
                *next += 1;
                Some((dict.key_at(i), dict.candidates_at(i)))
            }
            DictIter::Delta { delta, base_next, overlay_next } => {
                let base = FrozenKb::dictionary(DeltaKb::base(delta));
                let overlay = DeltaKb::dict_overlay_keys(delta);
                let base_key =
                    (*base_next < base.name_count()).then(|| base.key_at(*base_next));
                let overlay_key = overlay.get(*overlay_next).map(String::as_str);
                let take_overlay = match (base_key, overlay_key) {
                    (None, None) => return None,
                    (Some(_), None) => false,
                    (None, Some(_)) => true,
                    (Some(b), Some(o)) => {
                        if b == o {
                            // Overlay shadows the base row; skip the base's.
                            *base_next += 1;
                        }
                        b >= o
                    }
                };
                if take_overlay {
                    let key = &overlay[*overlay_next]; // ned-lint: allow(p1) — index bounded by the Some() check above
                    *overlay_next += 1;
                    Some((key.as_str(), DeltaKb::dict_overlay_row(delta, key).unwrap_or(&[])))
                } else {
                    let i = *base_next;
                    *base_next += 1;
                    Some((base.key_at(i), base.candidates_at(i)))
                }
            }
        }
    }
}

impl KbView for DeltaKb {
    fn entity_count(&self) -> usize {
        DeltaKb::entity_count(self)
    }
    fn entity(&self, e: EntityId) -> &Entity {
        DeltaKb::entity(self, e)
    }
    fn entity_by_name(&self, canonical_name: &str) -> Option<EntityId> {
        DeltaKb::entity_by_name(self, canonical_name)
    }
    fn candidates(&self, surface: &str) -> &[Candidate] {
        DeltaKb::candidates(self, surface)
    }
    fn prior(&self, surface: &str, e: EntityId) -> f64 {
        DeltaKb::prior(self, surface, e)
    }
    fn dictionary(&self) -> DictView<'_> {
        DictView::Delta(self)
    }
    fn links(&self) -> LinksView<'_> {
        LinksView::Delta(self)
    }
    fn keyphrases(&self, e: EntityId) -> &[EntityPhrase] {
        DeltaKb::keyphrases(self, e)
    }
    fn keyphrase_index(&self) -> &KeyphraseIndex {
        DeltaKb::keyphrase_index(self)
    }
    fn phrase_words(&self, p: PhraseId) -> &[WordId] {
        DeltaKb::phrase_words(self, p)
    }
    fn phrase_surface(&self, p: PhraseId) -> &str {
        DeltaKb::phrase_surface(self, p)
    }
    fn word_text(&self, w: WordId) -> &str {
        DeltaKb::word_text(self, w)
    }
    fn word_id(&self, text: &str) -> Option<WordId> {
        DeltaKb::word_id(self, text)
    }
    fn word_count(&self) -> usize {
        DeltaKb::word_count(self)
    }
    fn phrase_count(&self) -> usize {
        DeltaKb::phrase_count(self)
    }
    fn weights(&self) -> &WeightModel {
        DeltaKb::weights(self)
    }
    fn phrase_runs(&self) -> &PhraseRuns {
        DeltaKb::phrase_runs(self)
    }
}
