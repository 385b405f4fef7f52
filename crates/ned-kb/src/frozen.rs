//! The frozen, read-optimized knowledge base: [`FrozenKb`].
//!
//! The build-time [`KnowledgeBase`] is shaped for incremental construction:
//! nested `Vec`s per entity, a hash-map dictionary, interners with side
//! tables. Every hot path of the system only ever *reads*, so this module
//! provides the flat columnar form those reads want:
//!
//! - **CSR adjacency** (`offsets` + one flat data array) for in-links,
//!   out-links, per-entity keyphrase lists, and per-phrase word lists —
//!   one allocation per section instead of one per entity/phrase;
//! - **a sorted flat dictionary** ([`FrozenDictionary`]): one surface-key
//!   arena plus offset arrays, looked up by binary search instead of
//!   hashing, iterated in key order with zero per-call allocation;
//! - **precomputed per-section footprints** ([`FrozenKbStats`]) so the
//!   benchmark harness can track memory alongside throughput.
//!
//! A `FrozenKb` is immutable by construction and designed to sit behind an
//! `Arc`: the disambiguation service clones the handle per worker instead of
//! borrowing, which is what sharding and snapshot hot-swap need later.
//!
//! Everything here preserves the exact orderings and arithmetic of the
//! build-time structures (candidate order, sorted adjacency, prior
//! arithmetic on `u64` anchor counts), so every read answer is
//! byte-identical to the store's own; the store stays the test reference
//! for [`FrozenKb::freeze`].
//!
//! Each section has one row-fed constructor (`from_rows`). Two sources
//! feed them: the build-time store ([`FrozenKb::freeze`]) and a delta
//! overlay's merged rows ([`DeltaKb::compact`]).

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use ned_text::normalize::{with_lowercase, with_match_key};

use crate::delta::{DeltaKb, OverlayBase};
use crate::dictionary::Candidate;
use crate::entity::Entity;
use crate::fx::FxHashMap;
use crate::ids::{EntityId, PhraseId, WordId};
use crate::keyphrase::EntityPhrase;
use crate::kp_index::KeyphraseIndex;
use crate::phrase_runs::PhraseRuns;
use crate::store::KnowledgeBase;
use crate::view::KbView;
use crate::weights::WeightModel;

/// Converts a length to a `u32` CSR offset.
///
/// # Panics
/// Panics if `len` exceeds `u32::MAX` (the id space is `u32` everywhere, so
/// a longer section cannot be addressed anyway).
fn offset(len: usize) -> u32 {
    assert!(len <= u32::MAX as usize, "frozen section overflows u32 offsets: {len}");
    len as u32
}

/// Sorted flat dictionary: surface-key arena + binary search.
///
/// Keys are the `match_key` forms, stored concatenated in ascending order in
/// one arena string; `key_offsets[i]..key_offsets[i+1]` is key `i`'s byte
/// range and `cand_offsets[i]..cand_offsets[i+1]` its candidate range. The
/// per-key candidate order is exactly the legacy finalize order (count
/// descending, entity ascending).
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct FrozenDictionary {
    key_arena: String,
    key_offsets: Vec<u32>,
    cand_offsets: Vec<u32>,
    candidates: Vec<Candidate>,
}

impl FrozenDictionary {
    /// Lays out `(match key, candidates)` rows given in ascending key
    /// order, as [`crate::dictionary::Dictionary::iter`] and
    /// [`crate::DictView::iter`] yield them; `pair_count` sizes the
    /// candidate array.
    pub(crate) fn from_rows<'a>(
        rows: impl Iterator<Item = (&'a str, &'a [Candidate])>,
        pair_count: usize,
    ) -> Self {
        let mut key_arena = String::new();
        let mut key_offsets = vec![0u32];
        let mut cand_offsets = vec![0u32];
        let mut candidates = Vec::with_capacity(pair_count);
        for (key, cands) in rows {
            key_arena.push_str(key);
            candidates.extend_from_slice(cands);
            key_offsets.push(offset(key_arena.len()));
            cand_offsets.push(offset(candidates.len()));
        }
        FrozenDictionary { key_arena, key_offsets, cand_offsets, candidates }
    }

    /// Number of distinct names.
    pub fn name_count(&self) -> usize {
        self.key_offsets.len() - 1
    }

    /// Number of (name, entity) pairs.
    pub fn pair_count(&self) -> usize {
        self.candidates.len()
    }

    /// The `i`-th key in ascending order.
    pub(crate) fn key_at(&self, i: usize) -> &str {
        // ned-lint: allow(p1) — CSR invariant: offsets has len()+1 entries
        &self.key_arena[self.key_offsets[i] as usize..self.key_offsets[i + 1] as usize]
    }

    /// The candidate list of the `i`-th key.
    pub(crate) fn candidates_at(&self, i: usize) -> &[Candidate] {
        // ned-lint: allow(p1) — CSR invariant: offsets has len()+1 entries
        &self.candidates[self.cand_offsets[i] as usize..self.cand_offsets[i + 1] as usize]
    }

    /// Binary search for a match key.
    fn find(&self, key: &str) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, self.name_count());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.key_at(mid).cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Candidate entities for a mention surface (same case rules as the
    /// legacy dictionary), or an empty slice when unknown.
    pub fn candidates(&self, surface: &str) -> &[Candidate] {
        with_match_key(surface, |key| self.candidates_by_key(key))
    }

    /// Candidate list for an **already-normalized** match key, skipping the
    /// case rules (overlay fall-through in [`crate::delta`]).
    pub(crate) fn candidates_by_key(&self, key: &str) -> &[Candidate] {
        self.row(key).unwrap_or(&[])
    }

    /// The row of an **already-normalized** match key, `None` when the key
    /// is absent (overlay writes in [`crate::delta`]).
    pub(crate) fn row(&self, key: &str) -> Option<&[Candidate]> {
        self.find(key).map(|i| self.candidates_at(i))
    }

    /// Popularity prior p(e | name) (§3.3.3) — identical arithmetic to the
    /// legacy dictionary (sum `u64` anchor counts, then one division).
    pub fn prior(&self, surface: &str, entity: EntityId) -> f64 {
        let cands = self.candidates(surface);
        let total: u64 = cands.iter().map(|c| c.count).sum();
        if total == 0 {
            return 0.0;
        }
        cands
            .iter()
            .find(|c| c.entity == entity)
            .map_or(0.0, |c| c.count as f64 / total as f64)
    }

    /// Full prior distribution over the candidates of a name, in candidate
    /// order. Empty when the name is unknown.
    pub fn prior_distribution(&self, surface: &str) -> Vec<(EntityId, f64)> {
        let cands = self.candidates(surface);
        let total: u64 = cands.iter().map(|c| c.count).sum();
        if total == 0 {
            return Vec::new();
        }
        cands.iter().map(|c| (c.entity, c.count as f64 / total as f64)).collect()
    }

    /// Approximate heap footprint in bytes.
    fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.key_arena.len()
            + (self.key_offsets.len() + self.cand_offsets.len()) * size_of::<u32>()
            + self.candidates.len() * size_of::<Candidate>()
    }
}

/// CSR link graph: sorted in-/out-adjacency in two flat arrays each.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct FrozenLinks {
    in_offsets: Vec<u32>,
    in_data: Vec<EntityId>,
    out_offsets: Vec<u32>,
    out_data: Vec<EntityId>,
    edge_count: u64,
}

impl FrozenLinks {
    /// Lays out one `(in-links, out-links)` row per entity, in id order,
    /// each sorted ascending.
    pub(crate) fn from_rows<'a>(
        rows: impl ExactSizeIterator<Item = (&'a [EntityId], &'a [EntityId])>,
        edge_count: usize,
    ) -> Self {
        let mut in_offsets = Vec::with_capacity(rows.len() + 1);
        let mut in_data = Vec::new();
        let mut out_offsets = Vec::with_capacity(rows.len() + 1);
        let mut out_data = Vec::new();
        in_offsets.push(0);
        out_offsets.push(0);
        for (inlinks, outlinks) in rows {
            in_data.extend_from_slice(inlinks);
            out_data.extend_from_slice(outlinks);
            in_offsets.push(offset(in_data.len()));
            out_offsets.push(offset(out_data.len()));
        }
        FrozenLinks { in_offsets, in_data, out_offsets, out_data, edge_count: edge_count as u64 }
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.in_offsets.len().saturating_sub(1)
    }

    /// True if the graph covers no entities.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count as usize
    }

    /// Entities linking *to* `e`, sorted ascending.
    pub fn inlinks(&self, e: EntityId) -> &[EntityId] {
        let i = e.index();
        // ned-lint: allow(p1) — CSR invariant: offsets has entity_count+1 entries
        &self.in_data[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// Entities `e` links *to*, sorted ascending.
    pub fn outlinks(&self, e: EntityId) -> &[EntityId] {
        let i = e.index();
        // ned-lint: allow(p1) — CSR invariant: offsets has entity_count+1 entries
        &self.out_data[self.out_offsets[i] as usize..self.out_offsets[i + 1] as usize]
    }

    /// Number of in-links of `e`.
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

    fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.in_offsets.len() + self.out_offsets.len()) * size_of::<u32>()
            + (self.in_data.len() + self.out_data.len()) * size_of::<EntityId>()
    }
}

/// Vocabulary + keyphrase section: keyword texts, phrase→word CSR, phrase
/// surfaces, and the entity→keyphrase CSR.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct FrozenPhrases {
    /// Lowercased keyword texts, indexed by `WordId`.
    words: Vec<String>,
    /// CSR offsets of `phrase_word_data`, indexed by `PhraseId`.
    phrase_word_offsets: Vec<u32>,
    /// Flat word-id sequences of all phrases.
    phrase_word_data: Vec<WordId>,
    /// Display surfaces, indexed by `PhraseId`.
    phrase_surfaces: Vec<String>,
    /// CSR offsets of `kp_data`, indexed by `EntityId`.
    kp_offsets: Vec<u32>,
    /// Flat keyphrase lists of all entities (phrase-id sorted per entity).
    kp_data: Vec<EntityPhrase>,
    /// Total phrase observations across all entities.
    total_phrase_observations: u64,
}

impl FrozenPhrases {
    /// Lays out the keyword texts in word-id order, one `(words, surface)`
    /// row per phrase in phrase-id order, and one keyphrase row per entity
    /// in entity-id order.
    pub(crate) fn from_rows<'a>(
        words: impl Iterator<Item = &'a str>,
        phrases: impl ExactSizeIterator<Item = (&'a [WordId], &'a str)>,
        keyphrases: impl ExactSizeIterator<Item = &'a [EntityPhrase]>,
        total_phrase_observations: u64,
    ) -> Self {
        let words: Vec<String> = words.map(str::to_string).collect();
        let mut phrase_word_offsets = Vec::with_capacity(phrases.len() + 1);
        let mut phrase_word_data = Vec::new();
        let mut phrase_surfaces = Vec::with_capacity(phrases.len());
        phrase_word_offsets.push(0);
        for (phrase_words, surface) in phrases {
            phrase_word_data.extend_from_slice(phrase_words);
            phrase_word_offsets.push(offset(phrase_word_data.len()));
            phrase_surfaces.push(surface.to_string());
        }
        let mut kp_offsets = Vec::with_capacity(keyphrases.len() + 1);
        let mut kp_data = Vec::new();
        kp_offsets.push(0);
        for row in keyphrases {
            kp_data.extend_from_slice(row);
            kp_offsets.push(offset(kp_data.len()));
        }
        FrozenPhrases {
            words,
            phrase_word_offsets,
            phrase_word_data,
            phrase_surfaces,
            kp_offsets,
            kp_data,
            total_phrase_observations,
        }
    }

    fn word_count(&self) -> usize {
        self.words.len()
    }

    fn phrase_count(&self) -> usize {
        self.phrase_surfaces.len()
    }

    fn phrase_words(&self, p: PhraseId) -> &[WordId] {
        let i = p.index();
        // ned-lint: allow(p1) — CSR invariant: offsets has phrase_count+1 entries
        &self.phrase_word_data
            [self.phrase_word_offsets[i] as usize..self.phrase_word_offsets[i + 1] as usize]
    }

    fn keyphrases(&self, e: EntityId) -> &[EntityPhrase] {
        let i = e.index();
        // ned-lint: allow(p1) — CSR invariant: offsets has entity_count+1 entries
        &self.kp_data[self.kp_offsets[i] as usize..self.kp_offsets[i + 1] as usize]
    }

    fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.words.iter().map(|w| w.len() + size_of::<String>()).sum::<usize>()
            + self.phrase_word_offsets.len() * size_of::<u32>()
            + self.phrase_word_data.len() * size_of::<WordId>()
            + self.phrase_surfaces.iter().map(|s| s.len() + size_of::<String>()).sum::<usize>()
            + self.kp_offsets.len() * size_of::<u32>()
            + self.kp_data.len() * size_of::<EntityPhrase>()
    }
}

/// Per-section footprint and entry counts of a [`FrozenKb`].
///
/// Byte figures are approximate heap payloads (array contents plus string
/// bytes), not allocator-exact sizes; they exist to make the memory
/// trajectory of the KB visible in the benchmark reports.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FrozenKbStats {
    /// Number of entities.
    pub entity_count: usize,
    /// Bytes of the entity section (records + canonical-name strings).
    pub entity_bytes: usize,
    /// Distinct dictionary surfaces (match keys).
    pub dictionary_surfaces: usize,
    /// (name, entity) pairs in the dictionary.
    pub dictionary_pairs: usize,
    /// Bytes of the dictionary section (arena + offsets + candidates).
    pub dictionary_bytes: usize,
    /// Directed edges in the link graph.
    pub link_edges: usize,
    /// Bytes of the link section (both CSR halves).
    pub link_bytes: usize,
    /// Distinct keywords.
    pub word_count: usize,
    /// Distinct keyphrases.
    pub phrase_count: usize,
    /// (entity, keyphrase) entries across all entities.
    pub keyphrase_entries: usize,
    /// Bytes of the vocabulary + keyphrase section.
    pub keyphrase_bytes: usize,
    /// Bytes of the weight section.
    pub weight_bytes: usize,
    /// Bytes of the precomputed phrase-run section (deduplicated runs +
    /// weight masses).
    pub phrase_run_bytes: usize,
    /// Bytes of the transient indexes rebuilt at assemble time (keyphrase
    /// inverted index, name and word lookup maps).
    pub transient_index_bytes: usize,
    /// Sum of all persistent section bytes (excludes transient indexes).
    pub total_bytes: usize,
}

/// The frozen, read-optimized knowledge base.
///
/// Produced by [`FrozenKb::freeze`] from a built [`KnowledgeBase`], or
/// decoded directly from a v3 snapshot
/// ([`crate::snapshot::read_frozen_snapshot`]). Immutable; share it across
/// threads behind an `Arc`.
#[derive(Debug, Clone)]
pub struct FrozenKb {
    entities: Vec<Entity>,
    dictionary: FrozenDictionary,
    links: FrozenLinks,
    phrases: FrozenPhrases,
    weights: WeightModel,
    /// Persistent like the five classic sections, but *optional* in
    /// snapshots (frame tag 6): rebuilt in `assemble` when absent.
    phrase_runs: PhraseRuns,
    // Transient lookups, rebuilt in `assemble` on every construction path
    // (freeze and snapshot decode alike — nothing below is serialized).
    by_name: FxHashMap<String, EntityId>,
    word_index: FxHashMap<String, WordId>,
    kp_index: KeyphraseIndex,
    stats: FrozenKbStats,
    /// What delta overlays over this KB build from; computed by the first
    /// [`crate::DeltaKb::build`] over it, never at load.
    overlay_base: OnceLock<OverlayBase>,
}

impl FrozenKb {
    /// Freezes a built knowledge base into the columnar read form.
    pub fn freeze(kb: &KnowledgeBase) -> Self {
        let links = kb.links();
        let entity_ids = || (0..kb.entity_count()).map(EntityId::from_index);
        Self::assemble(
            entity_ids().map(|e| kb.entity(e).clone()).collect(),
            FrozenDictionary::from_rows(kb.dictionary().iter(), kb.dictionary().pair_count()),
            FrozenLinks::from_rows(
                entity_ids().map(|e| (links.inlinks(e), links.outlinks(e))),
                links.edge_count(),
            ),
            FrozenPhrases::from_rows(
                (0..kb.word_interner().len()).map(|i| kb.word_text(WordId::from_index(i))),
                (0..kb.phrase_interner().len()).map(PhraseId::from_index).map(|p| {
                    (kb.phrase_words(p), kb.phrase_surface(p))
                }),
                entity_ids().map(|e| kb.keyphrases(e)),
                kb.keyphrase_store().total_observations(),
            ),
            kb.weights().clone(),
            None,
        )
    }

    /// Lays out an overlay's merged rows — entities, the dictionary in key
    /// order, links, words, phrases and keyphrase rows — with its phrase
    /// total and weight model; `assemble` rebuilds the keyphrase index and
    /// phrase runs. [`DeltaKb::compact`](crate::DeltaKb::compact) is the
    /// caller.
    pub(crate) fn from_view(kb: &DeltaKb) -> Self {
        let dictionary = KbView::dictionary(kb);
        Self::assemble(
            kb.entity_ids().map(|e| kb.entity(e).clone()).collect(),
            FrozenDictionary::from_rows(dictionary.iter(), dictionary.pair_count()),
            FrozenLinks::from_rows(
                kb.entity_ids().map(|e| (kb.inlinks(e), kb.outlinks(e))),
                kb.edge_count(),
            ),
            FrozenPhrases::from_rows(
                (0..kb.word_count()).map(|i| kb.word_text(WordId::from_index(i))),
                (0..kb.phrase_count()).map(PhraseId::from_index).map(|p| {
                    (kb.phrase_words(p), kb.phrase_surface(p))
                }),
                kb.entity_ids().map(|e| kb.keyphrases(e)),
                kb.total_phrase_observations(),
            ),
            kb.weights().clone(),
            None,
        )
    }

    /// The single construction path: takes the persistent sections and
    /// rebuilds every transient index (name lookup, word lookup, keyphrase
    /// inverted index) plus the section stats. Both [`FrozenKb::freeze`] and
    /// the v3 snapshot decoder funnel through here, so a decoded KB can
    /// never miss an index a frozen one has. `phrase_runs` is the decoded
    /// optional tag-6 section; `None` (or a shape mismatch against the
    /// other sections) triggers a rebuild from the keyphrases + weights.
    pub(crate) fn assemble(
        entities: Vec<Entity>,
        dictionary: FrozenDictionary,
        links: FrozenLinks,
        phrases: FrozenPhrases,
        weights: WeightModel,
        phrase_runs: Option<PhraseRuns>,
    ) -> Self {
        use std::mem::size_of;
        let by_name: FxHashMap<String, EntityId> = entities
            .iter()
            .enumerate()
            .map(|(i, e)| (e.canonical_name.clone(), EntityId::from_index(i)))
            .collect();
        let word_index: FxHashMap<String, WordId> = phrases
            .words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), WordId::from_index(i)))
            .collect();
        let kp_index = KeyphraseIndex::build_raw(
            phrases.word_count(),
            entities.len(),
            |e| phrases.keyphrases(e),
            |p| phrases.phrase_words(p),
        );
        let phrase_runs = phrase_runs
            .filter(|r| r.is_consistent_with(phrases.phrase_count(), entities.len()))
            .unwrap_or_else(|| {
                PhraseRuns::build_raw(
                    phrases.phrase_count(),
                    entities.len(),
                    |e| phrases.keyphrases(e),
                    |p| phrases.phrase_words(p),
                    &weights,
                )
            });

        let entity_bytes = entities
            .iter()
            .map(|e| e.canonical_name.len() + size_of::<Entity>())
            .sum::<usize>();
        let dictionary_bytes = dictionary.approx_heap_bytes();
        let link_bytes = links.approx_heap_bytes();
        let keyphrase_bytes = phrases.approx_heap_bytes();
        let weight_bytes = weights.approx_heap_bytes();
        let phrase_run_bytes = phrase_runs.approx_heap_bytes();
        let transient_index_bytes = kp_index.posting_count()
            * size_of::<(EntityId, PhraseId)>()
            + by_name
                .keys()
                .map(|k| k.len() + size_of::<String>() + size_of::<EntityId>())
                .sum::<usize>()
            + word_index
                .keys()
                .map(|k| k.len() + size_of::<String>() + size_of::<WordId>())
                .sum::<usize>();
        let stats = FrozenKbStats {
            entity_count: entities.len(),
            entity_bytes,
            dictionary_surfaces: dictionary.name_count(),
            dictionary_pairs: dictionary.pair_count(),
            dictionary_bytes,
            link_edges: links.edge_count(),
            link_bytes,
            word_count: phrases.word_count(),
            phrase_count: phrases.phrase_count(),
            keyphrase_entries: phrases.kp_data.len(),
            keyphrase_bytes,
            weight_bytes,
            phrase_run_bytes,
            transient_index_bytes,
            total_bytes: entity_bytes
                + dictionary_bytes
                + link_bytes
                + keyphrase_bytes
                + weight_bytes
                + phrase_run_bytes,
        };

        FrozenKb {
            entities,
            dictionary,
            links,
            phrases,
            weights,
            phrase_runs,
            by_name,
            word_index,
            kp_index,
            stats,
            overlay_base: OnceLock::new(),
        }
    }

    /// Per-section footprint and entry counts.
    pub fn stats(&self) -> &FrozenKbStats {
        &self.stats
    }

    /// Number of entities N in the repository.
    pub fn entity_count(&self) -> usize {
        self.entities.len()
    }

    /// The entity record for `e`.
    pub fn entity(&self, e: EntityId) -> &Entity {
        // ned-lint: allow(p1) — ids are dense indexes into the entity table
        &self.entities[e.index()]
    }

    /// Iterates over all entity ids.
    pub fn entity_ids(&self) -> crate::view::EntityIds {
        crate::view::KbView::entity_ids(self)
    }

    /// Looks up an entity by its canonical name.
    pub fn entity_by_name(&self, canonical_name: &str) -> Option<EntityId> {
        self.by_name.get(canonical_name).copied()
    }

    /// Candidate entities for a mention surface (§3.3.2 case rules).
    pub fn candidates(&self, surface: &str) -> &[Candidate] {
        self.dictionary.candidates(surface)
    }

    /// Popularity prior p(e | surface) (§3.3.3).
    pub fn prior(&self, surface: &str, e: EntityId) -> f64 {
        self.dictionary.prior(surface, e)
    }

    /// The frozen name dictionary.
    pub fn dictionary(&self) -> &FrozenDictionary {
        &self.dictionary
    }

    /// The frozen link graph.
    pub fn links(&self) -> &FrozenLinks {
        &self.links
    }

    /// The keyphrase set KP(e), sorted by phrase id.
    pub fn keyphrases(&self, e: EntityId) -> &[EntityPhrase] {
        self.phrases.keyphrases(e)
    }

    /// The keyphrase inverted index (keyword → (entity, phrase) postings).
    pub fn keyphrase_index(&self) -> &KeyphraseIndex {
        &self.kp_index
    }

    /// Word-id sequence of a keyphrase.
    pub fn phrase_words(&self, p: PhraseId) -> &[WordId] {
        self.phrases.phrase_words(p)
    }

    /// Display surface of a keyphrase.
    pub fn phrase_surface(&self, p: PhraseId) -> &str {
        // ned-lint: allow(p1) — ids are dense indexes into the surface table
        &self.phrases.phrase_surfaces[p.index()]
    }

    /// Lowercased text of a keyword.
    pub fn word_text(&self, w: WordId) -> &str {
        // ned-lint: allow(p1) — ids are dense indexes into the word table
        &self.phrases.words[w.index()]
    }

    /// Looks up an interned keyword by text (case-insensitive, like the
    /// legacy interner).
    pub fn word_id(&self, text: &str) -> Option<WordId> {
        with_lowercase(text, |lower| self.word_id_lowercased(lower))
    }

    /// Looks up a keyword whose text is already lowercased.
    pub(crate) fn word_id_lowercased(&self, lowered: &str) -> Option<WordId> {
        self.word_index.get(lowered).copied()
    }

    /// The state delta overlays over this KB build from, computed on first
    /// use.
    pub(crate) fn overlay_base(&self) -> &OverlayBase {
        self.overlay_base.get_or_init(|| OverlayBase::of(self))
    }

    /// Number of distinct keywords.
    pub fn word_count(&self) -> usize {
        self.phrases.word_count()
    }

    /// Number of distinct keyphrases.
    pub fn phrase_count(&self) -> usize {
        self.phrases.phrase_count()
    }

    /// Total phrase observations across all entities.
    pub fn total_phrase_observations(&self) -> u64 {
        self.phrases.total_phrase_observations
    }

    /// The precomputed weight model.
    pub fn weights(&self) -> &WeightModel {
        &self.weights
    }

    /// Precomputed deduplicated phrase runs and weight masses.
    pub fn phrase_runs(&self) -> &PhraseRuns {
        &self.phrase_runs
    }

    /// Decomposes into the five classic persistent sections (snapshot
    /// writer); the optional phrase-run section is fetched separately via
    /// [`FrozenKb::phrase_runs`].
    pub(crate) fn sections(
        &self,
    ) -> (&Vec<Entity>, &FrozenDictionary, &FrozenLinks, &FrozenPhrases, &WeightModel) {
        (&self.entities, &self.dictionary, &self.links, &self.phrases, &self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::example_kb;
    use crate::links::sorted_intersection_size;
    use crate::view::KbView;

    fn frozen() -> (KnowledgeBase, FrozenKb) {
        let kb = example_kb();
        let fz = FrozenKb::freeze(&kb);
        (kb, fz)
    }

    #[test]
    fn entities_and_lookup_match() {
        let (kb, fz) = frozen();
        assert_eq!(fz.entity_count(), kb.entity_count());
        for e in kb.entity_ids() {
            assert_eq!(fz.entity(e).canonical_name, kb.entity(e).canonical_name);
            assert_eq!(fz.entity_by_name(&kb.entity(e).canonical_name), Some(e));
        }
        assert_eq!(fz.entity_by_name("No Such Entity"), None);
    }

    #[test]
    fn dictionary_answers_match() {
        let (kb, fz) = frozen();
        for surface in ["Kashmir", "Page", "Plant", "Jimmy Page", "unknown name"] {
            assert_eq!(fz.candidates(surface), kb.candidates(surface), "{surface}");
            for e in kb.entity_ids() {
                assert_eq!(
                    fz.prior(surface, e).to_bits(),
                    kb.prior(surface, e).to_bits(),
                    "{surface}"
                );
            }
        }
        assert_eq!(fz.dictionary().name_count(), kb.dictionary().name_count());
        assert_eq!(fz.dictionary().pair_count(), kb.dictionary().pair_count());
    }

    #[test]
    fn dictionary_iteration_order_matches() {
        let (kb, fz) = frozen();
        let legacy: Vec<(String, Vec<Candidate>)> =
            kb.dictionary().iter().map(|(k, c)| (k.to_string(), c.to_vec())).collect();
        let frozen: Vec<(String, Vec<Candidate>)> = KbView::dictionary(&fz)
            .iter()
            .map(|(k, c)| (k.to_string(), c.to_vec()))
            .collect();
        assert_eq!(legacy, frozen);
    }

    #[test]
    fn links_match() {
        let (kb, fz) = frozen();
        assert_eq!(fz.links().edge_count(), kb.links().edge_count());
        assert_eq!(fz.links().len(), kb.links().len());
        for a in kb.entity_ids() {
            assert_eq!(fz.links().inlinks(a), kb.links().inlinks(a));
            assert_eq!(fz.links().outlinks(a), kb.links().outlinks(a));
            for b in kb.entity_ids() {
                let shared = sorted_intersection_size(kb.links().inlinks(a), kb.links().inlinks(b));
                assert_eq!(fz.links().shared_inlink_count(a, b), shared);
                let out = |x: EntityId, y: EntityId| kb.links().outlinks(x).contains(&y);
                assert_eq!(fz.links().directly_linked(a, b), out(a, b) || out(b, a));
            }
        }
    }

    #[test]
    fn keyphrases_vocab_and_index_match() {
        let (kb, fz) = frozen();
        assert_eq!(fz.word_count(), kb.word_interner().len());
        assert_eq!(fz.phrase_count(), kb.phrase_interner().len());
        assert_eq!(fz.total_phrase_observations(), kb.keyphrase_store().total_observations());
        for e in kb.entity_ids() {
            assert_eq!(fz.keyphrases(e), kb.keyphrases(e));
        }
        for pi in 0..kb.phrase_interner().len() {
            let p = PhraseId::from_index(pi);
            assert_eq!(fz.phrase_words(p), kb.phrase_words(p));
            assert_eq!(fz.phrase_surface(p), kb.phrase_surface(p));
        }
        for wi in 0..kb.word_interner().len() {
            let w = WordId::from_index(wi);
            assert_eq!(fz.word_text(w), kb.word_text(w));
            assert_eq!(fz.word_id(kb.word_text(w)), Some(w));
        }
        assert_eq!(fz.word_id("no-such-word"), None);
        // Inverted index: every word lists exactly the (entity, phrase)
        // pairs of the store whose phrase contains it, in order.
        for wi in 0..kb.word_interner().len() {
            let w = WordId::from_index(wi);
            let want: Vec<(EntityId, PhraseId)> = kb
                .entity_ids()
                .flat_map(|e| kb.keyphrases(e).iter().map(move |ep| (e, ep.phrase)))
                .filter(|&(_, p)| kb.phrase_words(p).contains(&w))
                .collect();
            assert_eq!(fz.keyphrase_index().postings(w), &want[..]);
        }
    }

    #[test]
    fn stats_are_populated() {
        let (kb, fz) = frozen();
        let s = fz.stats();
        assert_eq!(s.entity_count, kb.entity_count());
        assert_eq!(s.dictionary_surfaces, kb.dictionary().name_count());
        assert_eq!(s.dictionary_pairs, kb.dictionary().pair_count());
        assert_eq!(s.link_edges, kb.links().edge_count());
        assert_eq!(s.word_count, kb.word_interner().len());
        assert_eq!(s.phrase_count, kb.phrase_interner().len());
        assert!(s.entity_bytes > 0);
        assert!(s.dictionary_bytes > 0);
        assert!(s.link_bytes > 0);
        assert!(s.keyphrase_bytes > 0);
        assert!(s.weight_bytes > 0);
        assert!(s.phrase_run_bytes > 0);
        assert!(s.transient_index_bytes > 0);
        assert_eq!(
            s.total_bytes,
            s.entity_bytes + s.dictionary_bytes + s.link_bytes + s.keyphrase_bytes
                + s.weight_bytes
                + s.phrase_run_bytes
        );
    }

    #[test]
    fn empty_kb_freezes() {
        let kb = crate::builder::KbBuilder::new().build();
        let fz = FrozenKb::freeze(&kb);
        assert_eq!(fz.entity_count(), 0);
        assert!(fz.candidates("anything").is_empty());
        assert_eq!(fz.dictionary().name_count(), 0);
        assert!(fz.links().is_empty());
        // Only the CSR sentinel offsets remain (one `0` per offset array).
        let s = fz.stats();
        assert_eq!(s.entity_bytes, 0);
        assert_eq!(
            s.total_bytes,
            s.dictionary_bytes + s.link_bytes + s.keyphrase_bytes + s.weight_bytes
                + s.phrase_run_bytes
        );
    }

    #[test]
    fn overlay_base_is_computed_by_the_first_overlay_not_at_load() {
        let fz = std::sync::Arc::new(frozen().1);
        assert!(fz.overlay_base.get().is_none());
        crate::DeltaKb::build(std::sync::Arc::clone(&fz), Vec::new()).unwrap();
        assert!(fz.overlay_base.get().is_some());
    }

    #[test]
    fn arc_handle_is_fully_owned() {
        // The acceptance criterion of the refactor: a disambiguation service
        // can hold the KB as an `Arc` with no borrowed lifetime.
        fn make() -> std::sync::Arc<FrozenKb> {
            std::sync::Arc::new(frozen().1)
        }
        let handle = make();
        let clone = std::sync::Arc::clone(&handle);
        assert_eq!(clone.entity_count(), handle.entity_count());
    }
}
