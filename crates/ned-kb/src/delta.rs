//! Copy-on-write delta overlay over a frozen knowledge base.
//!
//! The paper's NED-EE loop (Ch. 5) needs the KB to *grow* while readers
//! keep annotating. [`DeltaKb`] is the read side of that growth: an
//! immutable overlay that layers the effect of a [`KbMutation`] sequence
//! over an untouched `Arc<FrozenKb>` base and implements
//! [`crate::view::KbView`], so every consumer — disambiguator, relatedness,
//! serving — works against it unchanged.
//!
//! ## Semantics
//!
//! Building an overlay conceptually **thaws** the frozen base back into a
//! legacy [`KnowledgeBase`] (id-preserving: entity `i` stays entity `i`,
//! phrase `p` stays phrase `p`), applies the mutations exactly as
//! [`crate::builder::KbBuilder`] would have at build time, and keeps only
//! the *rows that changed* plus the recomputed global statistics
//! ([`WeightModel`], [`KeyphraseIndex`], [`PhraseRuns`] — IDF and the
//! superdocument model depend on the global entity count, so they cannot be
//! patched row-wise). Reads of untouched rows fall through to the base
//! arrays with one hash-map miss of overhead; reads of touched rows hit the
//! overlay.
//!
//! [`DeltaKb::compact`] folds base + mutations into a fresh [`FrozenKb`]
//! that is bitwise-identical to building the merged KB from scratch —
//! the overlay and its compaction share one merge routine, so they cannot
//! drift apart.

use std::sync::Arc;

use ned_core::NedError;
use ned_obs::{names, Metrics};
use ned_text::normalize::{match_key, squash_whitespace};

use crate::dictionary::{Candidate, Dictionary};
use crate::entity::Entity;
use crate::frozen::FrozenKb;
use crate::fx::{FxHashMap, FxHashSet};
use crate::ids::{EntityId, PhraseId, WordId};
use crate::keyphrase::{EntityPhrase, KeyphraseStore};
use crate::kp_index::KeyphraseIndex;
use crate::links::LinkGraph;
use crate::mutation::KbMutation;
use crate::phrase_runs::PhraseRuns;
use crate::store::KnowledgeBase;
use crate::vocab::{PhraseInterner, WordInterner};
use crate::weights::WeightModel;

/// Rows the mutation sequence touched, keyed by their post-merge identity.
#[derive(Debug, Default)]
pub(crate) struct Touched {
    /// Entities whose keyphrase row changed.
    kp_rows: FxHashSet<EntityId>,
    /// Dictionary match-keys whose candidate row changed.
    dict_keys: FxHashSet<String>,
    /// Entities whose out-link row changed.
    out_rows: FxHashSet<EntityId>,
    /// Entities whose in-link row changed.
    in_rows: FxHashSet<EntityId>,
}

/// Reconstructs the legacy representation of a frozen KB, id-preserving:
/// every entity, word, and phrase keeps its dense id, so mutations applied
/// to the thawed KB mean the same thing they would have meant at build
/// time.
fn thaw(base: &FrozenKb) -> KnowledgeBase {
    let n = base.entity_count();
    let entities: Vec<Entity> =
        (0..n).map(|i| base.entity(EntityId::from_index(i)).clone()).collect();
    let words = WordInterner::from_words(
        (0..base.word_count())
            .map(|i| base.word_text(WordId::from_index(i)).to_string())
            .collect(),
    );
    let phrases = PhraseInterner::from_parts(
        (0..base.phrase_count())
            .map(|i| base.phrase_words(PhraseId::from_index(i)).to_vec())
            .collect(),
        (0..base.phrase_count())
            .map(|i| base.phrase_surface(PhraseId::from_index(i)).to_string())
            .collect(),
    );
    let mut dictionary = Dictionary::new();
    let frozen_dict = base.dictionary();
    for i in 0..frozen_dict.name_count() {
        // Frozen keys are already match-key normalized; insert them raw.
        dictionary.insert_row(frozen_dict.key_at(i).to_string(), frozen_dict.candidates_at(i).to_vec());
    }
    let frozen_links = base.links();
    let links = LinkGraph::from_rows(
        (0..n).map(|i| frozen_links.inlinks(EntityId::from_index(i)).to_vec()).collect(),
        (0..n).map(|i| frozen_links.outlinks(EntityId::from_index(i)).to_vec()).collect(),
        frozen_links.edge_count(),
    );
    let keyphrases = KeyphraseStore::from_rows(
        (0..n).map(|i| base.keyphrases(EntityId::from_index(i)).to_vec()).collect(),
        base.total_phrase_observations(),
    );
    let by_name = entities
        .iter()
        .enumerate()
        .map(|(i, e)| (e.canonical_name.clone(), EntityId::from_index(i)))
        .collect();
    KnowledgeBase {
        entities,
        words,
        phrases,
        dictionary,
        links,
        keyphrases,
        weights: WeightModel::default(),
        by_name,
        kp_index: KeyphraseIndex::default(),
        phrase_runs: PhraseRuns::default(),
    }
}

/// Resolves a canonical name against the merged-so-far KB.
fn resolve(kb: &KnowledgeBase, name: &str) -> Result<EntityId, NedError> {
    kb.by_name
        .get(name)
        .copied()
        .ok_or_else(|| NedError::Lookup { what: "entity name", key: name.to_string() })
}

/// Applies one mutation to the thawed KB, mirroring the corresponding
/// [`crate::builder::KbBuilder`] operation, and records what it touched.
fn apply(kb: &mut KnowledgeBase, touched: &mut Touched, m: &KbMutation) -> Result<(), NedError> {
    match m {
        KbMutation::AddEntity { canonical_name, kind } => {
            if kb.by_name.contains_key(canonical_name) {
                return Err(NedError::Config {
                    what: "kb mutation",
                    message: format!("add_entity: canonical name already taken: {canonical_name}"),
                });
            }
            let id = EntityId::from_index(kb.entities.len());
            kb.entities.push(Entity::new(canonical_name.clone(), *kind));
            kb.by_name.insert(canonical_name.clone(), id);
            kb.links.grow_to(kb.entities.len());
            kb.keyphrases.grow_to(kb.entities.len());
            // The builder registers the title itself as a name observation.
            kb.dictionary.add(canonical_name, id, 1);
            touched.dict_keys.insert(match_key(&squash_whitespace(canonical_name)));
        }
        KbMutation::AddLink { src, dst } => {
            let s = resolve(kb, src)?;
            let d = resolve(kb, dst)?;
            kb.links.add_link(s, d);
            touched.out_rows.insert(s);
            touched.in_rows.insert(d);
        }
        KbMutation::AddKeyphrase { entity, surface, count } => {
            let e = resolve(kb, entity)?;
            if surface.split_whitespace().next().is_none() {
                return Err(NedError::Config {
                    what: "kb mutation",
                    message: format!("add_keyphrase: empty keyphrase for {entity}"),
                });
            }
            let p = kb.phrases.intern(surface, &mut kb.words);
            kb.keyphrases.add(e, p, *count);
            touched.kp_rows.insert(e);
        }
        KbMutation::ReweightKeyphrase { entity, surface, delta } => {
            let e = resolve(kb, entity)?;
            let p = kb.phrases.get(surface, &kb.words).ok_or_else(|| NedError::Lookup {
                what: "keyphrase",
                key: surface.clone(),
            })?;
            kb.keyphrases.reweight(e, p, *delta).ok_or_else(|| NedError::Lookup {
                what: "entity keyphrase",
                key: format!("{entity} / {surface}"),
            })?;
            touched.kp_rows.insert(e);
        }
        KbMutation::AddDictionarySurface { entity, surface, count } => {
            let e = resolve(kb, entity)?;
            kb.dictionary.add(surface, e, *count);
            touched.dict_keys.insert(match_key(&squash_whitespace(surface)));
        }
    }
    Ok(())
}

/// Thaws `base`, applies `mutations` in order, and finalizes into a fully
/// consistent [`KnowledgeBase`] — exactly the KB a from-scratch build of
/// base-ops + mutations would have produced. Shared by [`DeltaKb::build`]
/// and [`DeltaKb::compact`] so overlay reads and compacted snapshots cannot
/// disagree.
pub(crate) fn merge(
    base: &FrozenKb,
    mutations: &[KbMutation],
) -> Result<(KnowledgeBase, Touched), NedError> {
    let mut kb = thaw(base);
    let mut touched = Touched::default();
    for m in mutations {
        apply(&mut kb, &mut touched, m)?;
    }
    // Finalize is idempotent on untouched rows: the frozen arrays were
    // stored in exactly the order these sorts produce.
    kb.dictionary.finalize();
    kb.links.finalize();
    kb.keyphrases.finalize();
    kb.weights = WeightModel::compute(&kb.keyphrases, &kb.links, &kb.phrases, kb.words.len());
    kb.rebuild_indexes();
    Ok((kb, touched))
}

/// An immutable copy-on-write overlay: `base` + the effect of `mutations`,
/// readable through [`crate::view::KbView`].
///
/// Untouched rows fall through to the frozen base; touched rows (and
/// everything belonging to newly added entities) live in overlay maps.
/// Global statistics are recomputed over the merged KB, because IDF and the
/// superdocument NPMI depend on the total entity count.
#[derive(Debug)]
pub struct DeltaKb {
    base: Arc<FrozenKb>,
    mutations: Vec<KbMutation>,
    base_entity_count: usize,
    base_word_count: usize,
    base_phrase_count: usize,
    /// Entities `base_entity_count..`, in id order.
    new_entities: Vec<Entity>,
    /// Canonical names of the new entities only.
    by_name_new: FxHashMap<String, EntityId>,
    /// Full merged keyphrase rows of touched + new entities.
    kp_rows: FxHashMap<EntityId, Vec<EntityPhrase>>,
    /// Full merged adjacency rows of touched + new entities.
    inlink_rows: FxHashMap<EntityId, Vec<EntityId>>,
    outlink_rows: FxHashMap<EntityId, Vec<EntityId>>,
    /// Full merged candidate rows of touched dictionary keys.
    dict_rows: FxHashMap<String, Vec<Candidate>>,
    /// The overlay keys, sorted, for merged iteration.
    dict_keys_sorted: Vec<String>,
    merged_name_count: usize,
    merged_pair_count: usize,
    merged_edge_count: usize,
    /// Words `base_word_count..`, in id order (already lowercased).
    words_new: Vec<String>,
    word_index_new: FxHashMap<String, WordId>,
    /// Phrases `base_phrase_count..`, in id order.
    phrases_new: Vec<Vec<WordId>>,
    phrase_surfaces_new: Vec<String>,
    total_phrase_observations: u64,
    weights: WeightModel,
    kp_index: KeyphraseIndex,
    phrase_runs: PhraseRuns,
}

impl DeltaKb {
    /// Builds the overlay for `mutations` over `base`.
    ///
    /// Cost is one thaw + merge (linear in the base) at build time; reads
    /// afterwards are lock-free and allocation-free on the fall-through
    /// path. Name-resolution failures and duplicate entities surface as
    /// typed errors.
    pub fn build(base: Arc<FrozenKb>, mutations: Vec<KbMutation>) -> Result<DeltaKb, NedError> {
        Self::build_observed(base, mutations, &Metrics::disabled())
    }

    /// [`DeltaKb::build`], metered: sets the `kb_delta_entities` gauge to
    /// the number of entities this overlay adds.
    pub fn build_observed(
        base: Arc<FrozenKb>,
        mutations: Vec<KbMutation>,
        metrics: &Metrics,
    ) -> Result<DeltaKb, NedError> {
        let (mut merged, touched) = merge(&base, &mutations)?;
        let base_n = base.entity_count();
        let merged_n = merged.entity_count();

        let mut new_entities = Vec::with_capacity(merged_n - base_n);
        let mut by_name_new = FxHashMap::default();
        let mut kp_rows = FxHashMap::default();
        let mut inlink_rows = FxHashMap::default();
        let mut outlink_rows = FxHashMap::default();
        for i in base_n..merged_n {
            let e = EntityId::from_index(i);
            let ent = merged.entity(e).clone();
            by_name_new.insert(ent.canonical_name.clone(), e);
            new_entities.push(ent);
            kp_rows.insert(e, merged.keyphrases(e).to_vec());
            inlink_rows.insert(e, merged.links().inlinks(e).to_vec());
            outlink_rows.insert(e, merged.links().outlinks(e).to_vec());
        }
        for &e in &touched.kp_rows {
            kp_rows.entry(e).or_insert_with(|| merged.keyphrases(e).to_vec());
        }
        for &e in &touched.in_rows {
            inlink_rows.entry(e).or_insert_with(|| merged.links().inlinks(e).to_vec());
        }
        for &e in &touched.out_rows {
            outlink_rows.entry(e).or_insert_with(|| merged.links().outlinks(e).to_vec());
        }
        let mut dict_rows = FxHashMap::default();
        for key in &touched.dict_keys {
            if let Some(row) = merged.dictionary().row(key) {
                dict_rows.insert(key.clone(), row.to_vec());
            }
        }
        let mut dict_keys_sorted: Vec<String> = dict_rows.keys().cloned().collect();
        dict_keys_sorted.sort_unstable();

        let base_words = base.word_count();
        let base_phrases = base.phrase_count();
        let words_new: Vec<String> = (base_words..merged.word_interner().len())
            .map(|i| merged.word_text(WordId::from_index(i)).to_string())
            .collect();
        let word_index_new = words_new
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), WordId::from_index(base_words + i)))
            .collect();
        let phrases_new: Vec<Vec<WordId>> = (base_phrases..merged.phrase_interner().len())
            .map(|i| merged.phrase_words(PhraseId::from_index(i)).to_vec())
            .collect();
        let phrase_surfaces_new: Vec<String> = (base_phrases..merged.phrase_interner().len())
            .map(|i| merged.phrase_surface(PhraseId::from_index(i)).to_string())
            .collect();

        metrics.gauge(names::KB_DELTA_ENTITIES).set((merged_n - base_n) as u64);

        Ok(DeltaKb {
            base,
            mutations,
            base_entity_count: base_n,
            base_word_count: base_words,
            base_phrase_count: base_phrases,
            new_entities,
            by_name_new,
            kp_rows,
            inlink_rows,
            outlink_rows,
            dict_rows,
            dict_keys_sorted,
            merged_name_count: merged.dictionary().name_count(),
            merged_pair_count: merged.dictionary().pair_count(),
            merged_edge_count: merged.links().edge_count(),
            words_new,
            word_index_new,
            phrases_new,
            phrase_surfaces_new,
            total_phrase_observations: merged.keyphrase_store().total_observations(),
            // The merged KB is dropped here: move its global statistics
            // instead of copying them.
            weights: std::mem::take(&mut merged.weights),
            kp_index: std::mem::take(&mut merged.kp_index),
            phrase_runs: std::mem::take(&mut merged.phrase_runs),
        })
    }

    /// The frozen base this overlay layers over.
    pub fn base(&self) -> &Arc<FrozenKb> {
        &self.base
    }

    /// The mutation sequence this overlay applies, in order.
    pub fn mutations(&self) -> &[KbMutation] {
        &self.mutations
    }

    /// Number of entities the overlay adds on top of the base.
    pub fn delta_entity_count(&self) -> usize {
        self.new_entities.len()
    }

    /// Folds base + mutations into a fresh [`FrozenKb`].
    ///
    /// Re-runs the same merge that built this overlay, so the result is
    /// bitwise-identical to freezing a from-scratch build of the merged KB
    /// — the compaction invariant the equivalence suite pins down.
    pub fn compact(&self) -> Result<FrozenKb, NedError> {
        let (merged, _) = merge(&self.base, &self.mutations)?;
        Ok(FrozenKb::freeze(&merged))
    }

    // --- read helpers shared with the view wrappers ---------------------

    /// Number of entities in the merged KB.
    pub fn entity_count(&self) -> usize {
        self.base_entity_count + self.new_entities.len()
    }

    /// The entity record for `e` (base fall-through for old ids).
    pub fn entity(&self, e: EntityId) -> &Entity {
        if e.index() < self.base_entity_count {
            self.base.entity(e)
        } else {
            &self.new_entities[e.index() - self.base_entity_count] // ned-lint: allow(p1) — same panics-on-unknown-id contract as the base representations
        }
    }

    /// Looks up an entity by canonical name (overlay first, then base).
    pub fn entity_by_name(&self, canonical_name: &str) -> Option<EntityId> {
        self.by_name_new
            .get(canonical_name)
            .copied()
            .or_else(|| self.base.entity_by_name(canonical_name))
    }

    /// Candidate row for an **already-normalized** match key.
    pub(crate) fn candidates_by_key(&self, key: &str) -> &[Candidate] {
        match self.dict_rows.get(key) {
            Some(row) => row.as_slice(),
            None => self.base.dictionary().candidates_by_key(key),
        }
    }

    /// Candidate entities for a mention surface (§3.3.2 case rules).
    pub fn candidates(&self, surface: &str) -> &[Candidate] {
        self.candidates_by_key(&match_key(&squash_whitespace(surface)))
    }

    /// Popularity prior p(e | surface) — identical arithmetic to the base
    /// dictionaries.
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

    /// Full prior distribution over the candidates of a name.
    pub fn prior_distribution(&self, surface: &str) -> Vec<(EntityId, f64)> {
        let cands = self.candidates(surface);
        let total: u64 = cands.iter().map(|c| c.count).sum();
        if total == 0 {
            return Vec::new();
        }
        cands.iter().map(|c| (c.entity, c.count as f64 / total as f64)).collect()
    }

    /// Number of distinct names in the merged dictionary.
    pub fn name_count(&self) -> usize {
        self.merged_name_count
    }

    /// Number of (name, entity) pairs in the merged dictionary.
    pub fn pair_count(&self) -> usize {
        self.merged_pair_count
    }

    /// Sorted overlay dictionary keys (for merged iteration).
    pub(crate) fn dict_overlay_keys(&self) -> &[String] {
        &self.dict_keys_sorted
    }

    /// Overlay dictionary row by key.
    pub(crate) fn dict_overlay_row(&self, key: &str) -> Option<&[Candidate]> {
        self.dict_rows.get(key).map(Vec::as_slice)
    }

    /// Entities linking *to* `e`, sorted ascending.
    pub fn inlinks(&self, e: EntityId) -> &[EntityId] {
        match self.inlink_rows.get(&e) {
            Some(row) => row.as_slice(),
            None => self.base.links().inlinks(e),
        }
    }

    /// Entities `e` links *to*, sorted ascending.
    pub fn outlinks(&self, e: EntityId) -> &[EntityId] {
        match self.outlink_rows.get(&e) {
            Some(row) => row.as_slice(),
            None => self.base.links().outlinks(e),
        }
    }

    /// Number of directed edges in the merged graph.
    pub fn edge_count(&self) -> usize {
        self.merged_edge_count
    }

    /// The keyphrase set KP(e), sorted by phrase id.
    pub fn keyphrases(&self, e: EntityId) -> &[EntityPhrase] {
        match self.kp_rows.get(&e) {
            Some(row) => row.as_slice(),
            None => self.base.keyphrases(e),
        }
    }

    /// Word-id sequence of a keyphrase (overlay for new phrase ids).
    pub fn phrase_words(&self, p: PhraseId) -> &[WordId] {
        if p.index() < self.base_phrase_count {
            self.base.phrase_words(p)
        } else {
            self.phrases_new
                .get(p.index() - self.base_phrase_count)
                .map_or(&[], Vec::as_slice)
        }
    }

    /// Display surface of a keyphrase (overlay for new phrase ids).
    pub fn phrase_surface(&self, p: PhraseId) -> &str {
        if p.index() < self.base_phrase_count {
            self.base.phrase_surface(p)
        } else {
            self.phrase_surfaces_new
                .get(p.index() - self.base_phrase_count)
                .map_or("", String::as_str)
        }
    }

    /// Lowercased text of a keyword (overlay for new word ids).
    pub fn word_text(&self, w: WordId) -> &str {
        if w.index() < self.base_word_count {
            self.base.word_text(w)
        } else {
            self.words_new.get(w.index() - self.base_word_count).map_or("", String::as_str)
        }
    }

    /// Looks up an interned keyword by text (overlay first, then base).
    pub fn word_id(&self, text: &str) -> Option<WordId> {
        let key = text.to_lowercase();
        self.word_index_new.get(&key).copied().or_else(|| self.base.word_id(&key))
    }

    /// Number of distinct keywords in the merged KB.
    pub fn word_count(&self) -> usize {
        self.base_word_count + self.words_new.len()
    }

    /// Number of distinct keyphrases in the merged KB.
    pub fn phrase_count(&self) -> usize {
        self.base_phrase_count + self.phrases_new.len()
    }

    /// Total phrase observations across the merged KB.
    pub fn total_phrase_observations(&self) -> u64 {
        self.total_phrase_observations
    }

    /// The weight model recomputed over the merged KB.
    pub fn weights(&self) -> &WeightModel {
        &self.weights
    }

    /// The keyphrase inverted index recomputed over the merged KB.
    pub fn keyphrase_index(&self) -> &KeyphraseIndex {
        &self.kp_index
    }

    /// Phrase runs recomputed over the merged KB.
    pub fn phrase_runs(&self) -> &PhraseRuns {
        &self.phrase_runs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::example_kb;
    use crate::entity::EntityKind;
    use crate::view::KbView;

    fn sample_mutations() -> Vec<KbMutation> {
        vec![
            KbMutation::AddEntity {
                canonical_name: "Black Dog (song)".into(),
                kind: EntityKind::Work,
            },
            KbMutation::AddDictionarySurface {
                entity: "Black Dog (song)".into(),
                surface: "Black Dog".into(),
                count: 4,
            },
            KbMutation::AddKeyphrase {
                entity: "Black Dog (song)".into(),
                surface: "hard rock song".into(),
                count: 3,
            },
            KbMutation::AddLink { src: "Black Dog (song)".into(), dst: "Jimmy Page".into() },
            KbMutation::AddLink { src: "Jimmy Page".into(), dst: "Black Dog (song)".into() },
            KbMutation::AddKeyphrase {
                entity: "Jimmy Page".into(),
                surface: "hard rock song".into(),
                count: 1,
            },
            KbMutation::ReweightKeyphrase {
                entity: "Jimmy Page".into(),
                surface: "hard rock song".into(),
                delta: 2,
            },
            KbMutation::AddDictionarySurface {
                entity: "Kashmir (song)".into(),
                surface: "Kashmir".into(),
                count: 10,
            },
        ]
    }

    fn fixture() -> (Arc<FrozenKb>, DeltaKb, KnowledgeBase) {
        let base = Arc::new(FrozenKb::freeze(&example_kb()));
        let muts = sample_mutations();
        let (merged, _) = merge(&base, &muts).unwrap();
        let delta = DeltaKb::build(Arc::clone(&base), muts).unwrap();
        (base, delta, merged)
    }

    #[test]
    fn overlay_reads_match_merged_kb() {
        let (_, delta, merged) = fixture();
        assert_eq!(delta.entity_count(), merged.entity_count());
        assert_eq!(delta.word_count(), merged.word_interner().len());
        assert_eq!(delta.phrase_count(), merged.phrase_interner().len());
        assert_eq!(delta.name_count(), merged.dictionary().name_count());
        assert_eq!(delta.pair_count(), merged.dictionary().pair_count());
        assert_eq!(delta.edge_count(), merged.links().edge_count());
        assert_eq!(
            delta.total_phrase_observations(),
            merged.keyphrase_store().total_observations()
        );
        for e in merged.entity_ids() {
            assert_eq!(delta.entity(e), merged.entity(e));
            assert_eq!(delta.keyphrases(e), merged.keyphrases(e));
            assert_eq!(delta.inlinks(e), merged.links().inlinks(e));
            assert_eq!(delta.outlinks(e), merged.links().outlinks(e));
        }
        for surface in ["Black Dog", "Kashmir", "Jimmy Page", "Page", "Unknown Name"] {
            assert_eq!(delta.candidates(surface), merged.candidates(surface));
            assert_eq!(delta.prior_distribution(surface), {
                let cands = merged.candidates(surface);
                let total: u64 = cands.iter().map(|c| c.count).sum();
                if total == 0 {
                    Vec::new()
                } else {
                    cands.iter().map(|c| (c.entity, c.count as f64 / total as f64)).collect()
                }
            });
        }
    }

    #[test]
    fn untouched_rows_fall_through_to_base() {
        let (base, delta, _) = fixture();
        // "Robert Plant" is never touched by the mutations: the returned
        // slices must be the base's own memory, not copies.
        let e = base.entity_by_name("Robert Plant").unwrap();
        assert!(std::ptr::eq(delta.keyphrases(e).as_ptr(), base.keyphrases(e).as_ptr()));
        let c_delta = delta.candidates("Robert Plant");
        let c_base = base.candidates("Robert Plant");
        assert!(std::ptr::eq(c_delta.as_ptr(), c_base.as_ptr()));
    }

    #[test]
    fn new_entity_is_visible_through_kb_view() {
        let (base, delta, _) = fixture();
        let id = delta.entity_by_name("Black Dog (song)").unwrap();
        assert!(id.index() >= base.entity_count());
        let view: &dyn KbView = &delta;
        assert_eq!(view.entity(id).kind, EntityKind::Work);
        assert!(view.candidates("Black Dog").iter().any(|c| c.entity == id));
        assert!(view.prior("Black Dog", id) > 0.0);
        assert!(!view.keyphrases(id).is_empty());
        let links = view.links();
        assert!(links.directly_linked(id, base.entity_by_name("Jimmy Page").unwrap()));
    }

    #[test]
    fn dict_iteration_merges_base_and_overlay_in_key_order() {
        let (_, delta, merged) = fixture();
        let view: &dyn KbView = &delta;
        let got: Vec<(String, Vec<Candidate>)> =
            view.dictionary().iter().map(|(k, c)| (k.to_string(), c.to_vec())).collect();
        let want: Vec<(String, Vec<Candidate>)> =
            merged.dictionary().iter().map(|(k, c)| (k.to_string(), c.to_vec())).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn weights_are_recomputed_over_merged_kb() {
        let (_, delta, merged) = fixture();
        let bytes_delta = crate::snapshot::encode(delta.weights()).unwrap();
        let bytes_merged = crate::snapshot::encode(merged.weights()).unwrap();
        assert_eq!(bytes_delta, bytes_merged);
    }

    #[test]
    fn compact_equals_freezing_the_merged_kb() {
        let (_, delta, merged) = fixture();
        let compacted = delta.compact().unwrap();
        let direct = FrozenKb::freeze(&merged);
        let mut a = Vec::new();
        let mut b = Vec::new();
        crate::snapshot::write_frozen_snapshot(&compacted, &mut a).unwrap();
        crate::snapshot::write_frozen_snapshot(&direct, &mut b).unwrap();
        assert_eq!(a, b, "compacted snapshot must be bitwise-identical to from-scratch");
    }

    #[test]
    fn unknown_name_and_duplicate_entity_are_typed_errors() {
        let base = Arc::new(FrozenKb::freeze(&example_kb()));
        let err = DeltaKb::build(
            Arc::clone(&base),
            vec![KbMutation::AddLink { src: "Nobody".into(), dst: "Jimmy Page".into() }],
        )
        .unwrap_err();
        assert!(matches!(err, NedError::Lookup { what: "entity name", .. }), "{err}");
        let err = DeltaKb::build(
            Arc::clone(&base),
            vec![KbMutation::AddEntity {
                canonical_name: "Jimmy Page".into(),
                kind: EntityKind::Person,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, NedError::Config { what: "kb mutation", .. }), "{err}");
        let err = DeltaKb::build(
            Arc::clone(&base),
            vec![KbMutation::ReweightKeyphrase {
                entity: "Jimmy Page".into(),
                surface: "no such phrase ever".into(),
                delta: 1,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, NedError::Lookup { .. }), "{err}");
    }

    #[test]
    fn build_observed_sets_delta_gauge() {
        let base = Arc::new(FrozenKb::freeze(&example_kb()));
        let metrics = Metrics::new();
        let delta = DeltaKb::build_observed(
            base,
            vec![KbMutation::AddEntity {
                canonical_name: "Black Dog (song)".into(),
                kind: EntityKind::Work,
            }],
            &metrics,
        )
        .unwrap();
        assert_eq!(delta.delta_entity_count(), 1);
        assert_eq!(metrics.snapshot().gauge(names::KB_DELTA_ENTITIES), 1);
    }
}
