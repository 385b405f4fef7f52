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
//! An overlay means what a from-scratch build means: base-ops + mutations
//! applied exactly as [`crate::builder::KbBuilder`] would have at build
//! time (id-preserving: entity `i` stays entity `i`, phrase `p` stays
//! phrase `p`), with the [`WeightModel`] recomputed and the
//! [`KeyphraseIndex`] and [`PhraseRuns`] built afresh. The test-only
//! `reference::merge` computes exactly that: it thaws the frozen base back
//! into a build-time store and replays the log through it.
//!
//! [`DeltaKb::build`] reaches the same result without the thaw. It applies
//! each mutation to the overlay itself, copying a base row into the overlay
//! maps the first time a mutation touches it, and resolving names and words
//! through the base's lookups plus the overlay's new tails. It then patches
//! the base's statistics: document frequencies change only for entities
//! whose keyphrase row or in-links changed and for the out-link targets of
//! changed rows; inverted-index postings only for changed rows; phrase runs
//! only for new phrases. The values that depend on the entity count N
//! (IDF, superdocument NPMI, µ and the phrase masses) are recomputed, since
//! N changes with every promoted entity. Reads of untouched rows fall
//! through to the base arrays with one hash-map miss of overhead; reads of
//! touched rows hit the overlay.
//!
//! [`DeltaKb::compact`] copies the overlay's merged rows into a fresh
//! [`FrozenKb`] and keeps its weights; nothing is replayed or recomputed
//! but the index and the phrase runs. The equivalence suites pin its
//! snapshot bytes to freezing the reference merge and a from-scratch
//! build.

use std::collections::hash_map::Entry;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use ned_core::NedError;
use ned_obs::{names, Metrics};
use ned_text::normalize::{match_key, squash_whitespace, with_lowercase, with_match_key};

use crate::dictionary::Candidate;
use crate::entity::Entity;
use crate::frozen::FrozenKb;
use crate::fx::{FxHashMap, FxHasher};
use crate::ids::{EntityId, PhraseId, WordId};
use crate::keyphrase::EntityPhrase;
use crate::kp_index::KeyphraseIndex;
use crate::mutation::KbMutation;
use crate::phrase_runs::PhraseRuns;
use crate::weights::{EntityWords, TermCounts, TermRows, TermSets, WeightModel};

fn name_taken(canonical_name: &str) -> NedError {
    NedError::Config {
        what: "kb mutation",
        message: format!("add_entity: canonical name already taken: {canonical_name}"),
    }
}

fn empty_keyphrase(entity: &str) -> NedError {
    NedError::Config {
        what: "kb mutation",
        message: format!("add_keyphrase: empty keyphrase for {entity}"),
    }
}

fn unknown_phrase(surface: &str) -> NedError {
    NedError::Lookup { what: "keyphrase", key: surface.to_string() }
}

fn unknown_entity_phrase(entity: &str, surface: &str) -> NedError {
    NedError::Lookup { what: "entity keyphrase", key: format!("{entity} / {surface}") }
}

/// What every overlay over one frozen base needs from it beyond its read
/// API. Computed from the base's rows by the first [`DeltaKb::build`] over
/// the base and kept with it, so later builds start from it.
#[derive(Debug, Clone)]
pub(crate) struct OverlayBase {
    /// The interner's lookup, which a frozen KB does not keep: phrases
    /// keyed by the hash of their word sequence.
    phrases: PhraseTable,
    /// Document frequencies of the base rows.
    counts: TermCounts,
    /// The distinct keyphrase words of every base entity.
    words: EntityWords,
}

impl OverlayBase {
    pub(crate) fn of(base: &FrozenKb) -> Self {
        let (counts, words) =
            TermCounts::count(base, base.entity_count(), base.word_count(), base.phrase_count());
        let mut phrases = PhraseTable::default();
        // Were two base phrases to share a word sequence, the later id
        // would win, as in the interner's index: it is inserted first.
        for i in (0..base.phrase_count()).rev() {
            let p = PhraseId::from_index(i);
            phrases.insert(words_hash(base.phrase_words(p)), p);
        }
        OverlayBase { phrases, counts, words }
    }
}

/// Phrase ids keyed by the hash of their word sequence; a lookup compares
/// the words, so a hash collision costs a scan of `colliding`, never a
/// wrong id.
#[derive(Debug, Clone, Default)]
struct PhraseTable {
    by_hash: FxHashMap<u64, PhraseId>,
    /// Phrases whose hash an earlier phrase had already taken.
    colliding: Vec<(u64, PhraseId)>,
}

impl PhraseTable {
    fn insert(&mut self, h: u64, p: PhraseId) {
        match self.by_hash.entry(h) {
            Entry::Vacant(slot) => {
                slot.insert(p);
            }
            Entry::Occupied(_) => self.colliding.push((h, p)),
        }
    }

    /// The phrase with hash `h` for which `is_it` holds.
    fn find(&self, h: u64, is_it: impl Fn(PhraseId) -> bool) -> Option<PhraseId> {
        self.by_hash.get(&h).copied().filter(|&p| is_it(p)).or_else(|| {
            self.colliding.iter().filter(|&&(x, _)| x == h).map(|&(_, p)| p).find(|&p| is_it(p))
        })
    }
}

fn words_hash(words: &[WordId]) -> u64 {
    let mut h = FxHasher::default();
    words.hash(&mut h);
    h.finish()
}

impl TermRows for FrozenKb {
    fn keyphrases(&self, e: EntityId) -> &[EntityPhrase] {
        FrozenKb::keyphrases(self, e)
    }
    fn inlinks(&self, e: EntityId) -> &[EntityId] {
        self.links().inlinks(e)
    }
    fn phrase_words(&self, p: PhraseId) -> &[WordId] {
        FrozenKb::phrase_words(self, p)
    }
}

impl TermRows for DeltaKb {
    fn keyphrases(&self, e: EntityId) -> &[EntityPhrase] {
        DeltaKb::keyphrases(self, e)
    }
    fn inlinks(&self, e: EntityId) -> &[EntityId] {
        DeltaKb::inlinks(self, e)
    }
    fn phrase_words(&self, p: PhraseId) -> &[WordId] {
        DeltaKb::phrase_words(self, p)
    }
}

/// The state of one [`DeltaKb::build`] that the finished overlay does not
/// keep; `'m` borrows the mutation log.
struct Staging<'b, 'm> {
    base: &'b FrozenKb,
    overlay_base: &'b OverlayBase,
    /// Every phrase of the merged KB: the base's table plus the phrases
    /// the overlay adds.
    phrases: PhraseTable,
    /// Entities with an overlay keyphrase / in-link / out-link row.
    kp_touched: Vec<EntityId>,
    in_touched: Vec<EntityId>,
    out_touched: Vec<EntityId>,
    /// One phrase's word ids, reused across mutations.
    phrase: Vec<WordId>,
    /// The entity the previous mutation named: a promotion's keyphrases
    /// come in a run naming one entity, resolved once. A resolved name
    /// keeps its id, since names are never taken twice.
    last_entity: Option<(&'m str, EntityId)>,
    /// Every keyphrase surface interned so far, keyed by the log's own
    /// string: interning a surface again would yield the same phrase.
    phrase_ids: FxHashMap<&'m str, PhraseId>,
}

impl<'b, 'm> Staging<'b, 'm> {
    fn new(base: &'b FrozenKb) -> Self {
        Staging {
            base,
            overlay_base: base.overlay_base(),
            phrases: base.overlay_base().phrases.clone(),
            kp_touched: Vec::new(),
            in_touched: Vec::new(),
            out_touched: Vec::new(),
            phrase: Vec::new(),
            last_entity: None,
            phrase_ids: FxHashMap::default(),
        }
    }
}

/// The overlay row of `e`, copied from the base on first touch.
fn row_mut<'r, 'b, T: Clone + 'b>(
    rows: &'r mut FxHashMap<EntityId, Vec<T>>,
    touched: &mut Vec<EntityId>,
    e: EntityId,
    base_row: impl FnOnce() -> &'b [T],
) -> &'r mut Vec<T> {
    rows.entry(e).or_insert_with(|| {
        touched.push(e);
        base_row().to_vec()
    })
}

/// An immutable copy-on-write overlay: `base` + the effect of a mutation
/// sequence, readable through [`crate::view::KbView`]. It keeps the rows
/// the mutations produced, not the mutations themselves.
///
/// Untouched rows fall through to the frozen base; touched rows (and
/// everything belonging to newly added entities) live in overlay maps.
/// Global statistics cover the merged KB, because IDF and the
/// superdocument NPMI depend on the total entity count.
#[derive(Debug)]
pub struct DeltaKb {
    base: Arc<FrozenKb>,
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
    /// Applying the mutations is linear in their number; the statistics
    /// cost one pass over the merged KB's keyphrase rows for the
    /// N-dependent weights, plus the rows the mutations changed. The first
    /// build over a base also counts the base once. Reads afterwards are
    /// lock-free and allocation-free on the fall-through path.
    /// Name-resolution failures and duplicate entities surface as typed
    /// errors.
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
        let frozen = Arc::clone(&base);
        let mut st = Staging::new(&frozen);
        let mut delta = DeltaKb::empty(base);
        for m in &mutations {
            delta.apply(&mut st, m)?;
        }
        delta.finish(st);
        metrics.gauge(names::KB_DELTA_ENTITIES).set(delta.delta_entity_count() as u64);
        Ok(delta)
    }

    /// The overlay of no mutations.
    fn empty(base: Arc<FrozenKb>) -> DeltaKb {
        DeltaKb {
            base_entity_count: base.entity_count(),
            base_word_count: base.word_count(),
            base_phrase_count: base.phrase_count(),
            merged_name_count: base.dictionary().name_count(),
            merged_pair_count: base.dictionary().pair_count(),
            merged_edge_count: base.links().edge_count(),
            total_phrase_observations: base.total_phrase_observations(),
            base,
            new_entities: Vec::new(),
            by_name_new: FxHashMap::default(),
            kp_rows: FxHashMap::default(),
            inlink_rows: FxHashMap::default(),
            outlink_rows: FxHashMap::default(),
            dict_rows: FxHashMap::default(),
            dict_keys_sorted: Vec::new(),
            words_new: Vec::new(),
            word_index_new: FxHashMap::default(),
            phrases_new: Vec::new(),
            phrase_surfaces_new: Vec::new(),
            weights: WeightModel::default(),
            kp_index: KeyphraseIndex::default(),
            phrase_runs: PhraseRuns::default(),
        }
    }

    /// Applies one mutation to the overlay with the arithmetic of the
    /// matching [`crate::builder::KbBuilder`] call: rows are extended in
    /// the order the build-time stores extend them and sorted once, in
    /// [`DeltaKb::finish`].
    fn apply<'m>(&mut self, st: &mut Staging<'_, 'm>, m: &'m KbMutation) -> Result<(), NedError> {
        let base = st.base;
        match m {
            KbMutation::AddEntity { canonical_name, kind } => {
                if self.entity_by_name(canonical_name).is_some() {
                    return Err(name_taken(canonical_name));
                }
                let id = EntityId::from_index(self.entity_count());
                self.new_entities.push(Entity::new(canonical_name.clone(), *kind));
                self.by_name_new.insert(canonical_name.clone(), id);
                self.kp_rows.insert(id, Vec::new());
                self.inlink_rows.insert(id, Vec::new());
                self.outlink_rows.insert(id, Vec::new());
                st.kp_touched.push(id);
                st.in_touched.push(id);
                st.out_touched.push(id);
                // The builder registers the title itself as a name observation.
                self.add_name(canonical_name, id, 1);
            }
            KbMutation::AddLink { src, dst } => {
                let s = self.resolve(src)?;
                let d = self.resolve(dst)?;
                // Self-links and duplicates are ignored, as in
                // `LinkGraph::add_link`.
                if s != d && !self.outlinks(s).contains(&d) {
                    row_mut(&mut self.outlink_rows, &mut st.out_touched, s, || {
                        base.links().outlinks(s)
                    })
                    .push(d);
                    row_mut(&mut self.inlink_rows, &mut st.in_touched, d, || {
                        base.links().inlinks(d)
                    })
                    .push(s);
                    self.merged_edge_count += 1;
                }
            }
            KbMutation::AddKeyphrase { entity, surface, count } => {
                let e = self.resolve_run(st, entity)?;
                if surface.trim().is_empty() {
                    return Err(empty_keyphrase(entity));
                }
                let p = match st.phrase_ids.get(surface.as_str()) {
                    Some(&p) => p,
                    None => {
                        let p = self.intern_phrase(st, surface);
                        st.phrase_ids.insert(surface, p);
                        p
                    }
                };
                let row = row_mut(&mut self.kp_rows, &mut st.kp_touched, e, || base.keyphrases(e));
                match row.iter_mut().find(|ep| ep.phrase == p) {
                    Some(ep) => ep.count += count,
                    None => row.push(EntityPhrase { phrase: p, count: *count }),
                }
                self.total_phrase_observations += count;
            }
            KbMutation::ReweightKeyphrase { entity, surface, delta } => {
                let e = self.resolve_run(st, entity)?;
                let p = self.find_phrase(st, surface).ok_or_else(|| unknown_phrase(surface))?;
                if !self.keyphrases(e).iter().any(|ep| ep.phrase == p) {
                    return Err(unknown_entity_phrase(entity, surface));
                }
                let row = row_mut(&mut self.kp_rows, &mut st.kp_touched, e, || base.keyphrases(e));
                if let Some(ep) = row.iter_mut().find(|ep| ep.phrase == p) {
                    // Saturating at zero, like `KeyphraseStore::reweight`.
                    let old = ep.count;
                    ep.count = if *delta >= 0 {
                        old.saturating_add(delta.unsigned_abs())
                    } else {
                        old.saturating_sub(delta.unsigned_abs())
                    };
                    self.total_phrase_observations =
                        self.total_phrase_observations - old + ep.count;
                }
            }
            KbMutation::AddDictionarySurface { entity, surface, count } => {
                let e = self.resolve_run(st, entity)?;
                self.add_name(surface, e, *count);
            }
        }
        Ok(())
    }

    fn resolve(&self, name: &str) -> Result<EntityId, NedError> {
        self.entity_by_name(name)
            .ok_or_else(|| NedError::Lookup { what: "entity name", key: name.to_string() })
    }

    /// [`DeltaKb::resolve`], reusing the previous mutation's entity when
    /// `name` is the same.
    fn resolve_run<'m>(
        &self,
        st: &mut Staging<'_, 'm>,
        name: &'m str,
    ) -> Result<EntityId, NedError> {
        if let Some((last, e)) = st.last_entity {
            if last == name {
                return Ok(e);
            }
        }
        let e = self.resolve(name)?;
        st.last_entity = Some((name, e));
        Ok(e)
    }

    /// `Dictionary::add` on the overlay: the row of the name's match key is
    /// copied from the base on first touch.
    fn add_name(&mut self, name: &str, e: EntityId, count: u64) {
        let row = match self.dict_rows.entry(match_key(&squash_whitespace(name))) {
            Entry::Occupied(slot) => slot.into_mut(),
            Entry::Vacant(slot) => {
                let base_row = self.base.dictionary().row(slot.key());
                if base_row.is_none() {
                    self.merged_name_count += 1;
                }
                self.dict_keys_sorted.push(slot.key().clone());
                slot.insert(base_row.map_or_else(Vec::new, <[Candidate]>::to_vec))
            }
        };
        match row.iter_mut().find(|c| c.entity == e) {
            Some(c) => c.count += count,
            None => {
                row.push(Candidate { entity: e, count });
                self.merged_pair_count += 1;
            }
        }
    }

    /// Resolves the words of `surface` into `st.phrase`, lowercased. With
    /// `intern`, an unknown word joins the overlay's word tail (like
    /// `WordInterner::intern`); without it, an unknown word returns false.
    fn phrase_word_ids(&mut self, st: &mut Staging<'_, '_>, surface: &str, intern: bool) -> bool {
        st.phrase.clear();
        let base = st.base;
        for word in surface.split_whitespace() {
            let id = with_lowercase(word, |lower| {
                let known = base
                    .word_id_lowercased(lower)
                    .or_else(|| self.word_index_new.get(lower).copied());
                if known.is_some() || !intern {
                    return known;
                }
                let id = WordId::from_index(self.word_count());
                self.words_new.push(lower.to_string());
                self.word_index_new.insert(lower.to_string(), id);
                Some(id)
            });
            match id {
                Some(id) => st.phrase.push(id),
                None => return false,
            }
        }
        true
    }

    /// The phrase whose word sequence is `st.phrase`, with hash `h`.
    fn lookup_phrase(&self, st: &Staging<'_, '_>, h: u64) -> Option<PhraseId> {
        st.phrases.find(h, |p| self.phrase_words(p) == st.phrase.as_slice())
    }

    /// `PhraseInterner::intern` on the overlay.
    fn intern_phrase(&mut self, st: &mut Staging<'_, '_>, surface: &str) -> PhraseId {
        self.phrase_word_ids(st, surface, true);
        let h = words_hash(&st.phrase);
        if let Some(p) = self.lookup_phrase(st, h) {
            return p;
        }
        let p = PhraseId::from_index(self.phrase_count());
        self.phrases_new.push(st.phrase.clone());
        self.phrase_surfaces_new.push(surface.to_string());
        st.phrases.insert(h, p);
        p
    }

    /// `PhraseInterner::get` on the overlay.
    fn find_phrase(&mut self, st: &mut Staging<'_, '_>, surface: &str) -> Option<PhraseId> {
        if !self.phrase_word_ids(st, surface, false) {
            return None;
        }
        self.lookup_phrase(st, words_hash(&st.phrase))
    }

    /// Sorts the touched rows into the order the from-scratch finalize
    /// produces, then derives the statistics.
    fn finish(&mut self, mut st: Staging<'_, '_>) {
        st.kp_touched.sort_unstable();
        st.in_touched.sort_unstable();
        // Rows and tails grew by pushes; trimming them keeps the overlay's
        // footprint that of exact-size copies.
        self.new_entities.shrink_to_fit();
        self.words_new.shrink_to_fit();
        self.phrases_new.shrink_to_fit();
        self.phrase_surfaces_new.shrink_to_fit();
        for e in &st.kp_touched {
            if let Some(row) = self.kp_rows.get_mut(e) {
                row.sort_unstable_by_key(|ep| ep.phrase);
                row.shrink_to_fit();
            }
        }
        for e in &st.in_touched {
            if let Some(row) = self.inlink_rows.get_mut(e) {
                row.sort_unstable();
                row.shrink_to_fit();
            }
        }
        for e in &st.out_touched {
            if let Some(row) = self.outlink_rows.get_mut(e) {
                row.sort_unstable();
                row.shrink_to_fit();
            }
        }
        self.dict_keys_sorted.sort_unstable();
        for key in &self.dict_keys_sorted {
            if let Some(row) = self.dict_rows.get_mut(key) {
                row.sort_by(|a, b| b.count.cmp(&a.count).then(a.entity.cmp(&b.entity)));
            }
        }
        let (weights, kp_index, phrase_runs) = self.statistics(&st);
        self.weights = weights;
        self.kp_index = kp_index;
        self.phrase_runs = phrase_runs;
    }

    /// The merged KB's statistics, derived from the base's.
    ///
    /// Document frequencies change only for the entities whose keyphrase
    /// row changed (direct and superdocument), whose in-links changed
    /// (superdocument), and for the out-link targets of changed rows (whose
    /// superdocuments contain them): each of those drops its base
    /// contribution and adds its merged one. Postings change only for
    /// changed rows, runs only for new phrases. Everything that depends on
    /// N is recomputed.
    fn statistics(&self, st: &Staging<'_, '_>) -> (WeightModel, KeyphraseIndex, PhraseRuns) {
        let base = st.base;
        let n = self.entity_count();
        let is_base = |e: EntityId| e.index() < self.base_entity_count;
        let changed = &st.kp_touched;
        let mut superdocs: Vec<EntityId> = changed.iter().chain(&st.in_touched).copied().collect();
        for &e in changed {
            superdocs.extend_from_slice(self.outlinks(e));
        }
        superdocs.sort_unstable();
        superdocs.dedup();

        let mut counts = st.overlay_base.counts.clone();
        counts.grow(self.word_count(), self.phrase_count());
        let mut sets = TermSets::new(self.word_count(), self.phrase_count());
        let mut changed_words = Vec::with_capacity(changed.len());
        for &e in changed {
            if is_base(e) {
                counts.add_direct(base.keyphrases(e), st.overlay_base.words.row(e), -1);
            }
            let row = self.keyphrases(e);
            let mut words = Vec::new();
            sets.distinct_words(row, self, &mut words);
            counts.add_direct(row, &words, 1);
            changed_words.push(words);
        }
        for &e in &superdocs {
            if is_base(e) {
                counts.add_superdoc(e, base, &mut sets, -1);
            }
            counts.add_superdoc(e, self, &mut sets, 1);
        }
        let mut words = EntityWords::default();
        let mut next_changed = changed.iter().zip(&changed_words).peekable();
        for ei in 0..n {
            let e = EntityId::from_index(ei);
            match next_changed.next_if(|&(&c, _)| c == e) {
                Some((_, row)) => words.push_row(row),
                None => words.push_row(st.overlay_base.words.row(e)),
            }
        }
        let weights = WeightModel::from_counts(n, &counts, &words, self);

        let mut kp_index = base.keyphrase_index().clone();
        kp_index.patch(self.word_count(), changed, |e| self.keyphrases(e), |p| self.phrase_words(p));
        let phrase_runs = PhraseRuns::patched(
            base.phrase_runs(),
            self.phrase_count(),
            n,
            |e| self.keyphrases(e),
            |p| self.phrase_words(p),
            &weights,
        );
        (weights, kp_index, phrase_runs)
    }

    /// The frozen base this overlay layers over.
    pub fn base(&self) -> &Arc<FrozenKb> {
        &self.base
    }

    /// Number of entities the overlay adds on top of the base.
    pub fn delta_entity_count(&self) -> usize {
        self.new_entities.len()
    }

    /// Folds base + mutations into a fresh [`FrozenKb`] by copying the
    /// overlay's merged rows and its weight model: the cost is one pass
    /// over the rows plus rebuilding the keyphrase index and phrase runs,
    /// not a replay of the log.
    ///
    /// The result is bitwise-identical (snapshot bytes) to freezing a
    /// from-scratch build of base-ops + mutations; the equivalence suites
    /// pin it at every prefix of a growing log. It does not fail: the
    /// mutations were validated when the overlay was built.
    pub fn compact(&self) -> Result<FrozenKb, NedError> {
        Ok(FrozenKb::from_view(self))
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
        with_match_key(surface, |key| self.candidates_by_key(key))
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

    /// Looks up an interned keyword by text (overlay first, then base),
    /// lowercasing it once.
    pub fn word_id(&self, text: &str) -> Option<WordId> {
        with_lowercase(text, |key| {
            self.word_index_new.get(key).copied().or_else(|| self.base.word_id_lowercased(key))
        })
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

/// The from-scratch reference for the overlay and its compaction: thaw the
/// frozen base back into a build-time [`KnowledgeBase`], replay the log
/// through the store, and recompute the weights.
#[cfg(test)]
pub(crate) mod reference {
    use ned_core::NedError;

    use super::{empty_keyphrase, name_taken, unknown_entity_phrase, unknown_phrase};
    use crate::dictionary::Dictionary;
    use crate::entity::Entity;
    use crate::frozen::FrozenKb;
    use crate::ids::{EntityId, PhraseId, WordId};
    use crate::keyphrase::KeyphraseStore;
    use crate::links::LinkGraph;
    use crate::mutation::KbMutation;
    use crate::store::KnowledgeBase;
    use crate::vocab::{PhraseInterner, WordInterner};
    use crate::weights::WeightModel;

    /// Reconstructs the build-time representation of a frozen KB,
    /// id-preserving: every entity, word, and phrase keeps its dense id, so
    /// mutations applied to the thawed KB mean the same thing they would
    /// have meant at build time.
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
            dictionary.insert_row(
                frozen_dict.key_at(i).to_string(),
                frozen_dict.candidates_at(i).to_vec(),
            );
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
    /// [`crate::builder::KbBuilder`] operation.
    fn apply(kb: &mut KnowledgeBase, m: &KbMutation) -> Result<(), NedError> {
        match m {
            KbMutation::AddEntity { canonical_name, kind } => {
                if kb.by_name.contains_key(canonical_name) {
                    return Err(name_taken(canonical_name));
                }
                let id = EntityId::from_index(kb.entities.len());
                kb.entities.push(Entity::new(canonical_name.clone(), *kind));
                kb.by_name.insert(canonical_name.clone(), id);
                kb.links.grow_to(kb.entities.len());
                kb.keyphrases.grow_to(kb.entities.len());
                // The builder registers the title itself as a name
                // observation.
                kb.dictionary.add(canonical_name, id, 1);
            }
            KbMutation::AddLink { src, dst } => {
                let s = resolve(kb, src)?;
                let d = resolve(kb, dst)?;
                kb.links.add_link(s, d);
            }
            KbMutation::AddKeyphrase { entity, surface, count } => {
                let e = resolve(kb, entity)?;
                if surface.split_whitespace().next().is_none() {
                    return Err(empty_keyphrase(entity));
                }
                let p = kb.phrases.intern(surface, &mut kb.words);
                kb.keyphrases.add(e, p, *count);
            }
            KbMutation::ReweightKeyphrase { entity, surface, delta } => {
                let e = resolve(kb, entity)?;
                let p =
                    kb.phrases.get(surface, &kb.words).ok_or_else(|| unknown_phrase(surface))?;
                kb.keyphrases
                    .reweight(e, p, *delta)
                    .ok_or_else(|| unknown_entity_phrase(entity, surface))?;
            }
            KbMutation::AddDictionarySurface { entity, surface, count } => {
                let e = resolve(kb, entity)?;
                kb.dictionary.add(surface, e, *count);
            }
        }
        Ok(())
    }

    /// Thaws `base`, applies `mutations` in order, and finalizes into a
    /// fully consistent [`KnowledgeBase`] — exactly the KB a from-scratch
    /// build of base-ops + mutations would have produced. Frozen, it is what
    /// [`super::DeltaKb::compact`] must equal bit for bit.
    pub(crate) fn merge(
        base: &FrozenKb,
        mutations: &[KbMutation],
    ) -> Result<KnowledgeBase, NedError> {
        let mut kb = thaw(base);
        for m in mutations {
            apply(&mut kb, m)?;
        }
        // Finalize is idempotent on untouched rows: the frozen arrays were
        // stored in exactly the order these sorts produce.
        kb.dictionary.finalize();
        kb.links.finalize();
        kb.keyphrases.finalize();
        kb.weights =
            WeightModel::compute(&kb.keyphrases, &kb.links, &kb.phrases, kb.words.len());
        Ok(kb)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::merge;
    use super::*;
    use crate::builder::tests::example_kb;
    use crate::entity::EntityKind;
    use crate::store::KnowledgeBase;
    use crate::view::KbView;
    use proptest::prelude::*;

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
        let merged = merge(&base, &muts).unwrap();
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

    /// The base entities of [`example_kb`].
    const BASE_NAMES: [&str; 4] =
        ["Jimmy Page", "Kashmir (song)", "Kashmir (region)", "Robert Plant"];

    /// Decodes seeds into a valid log growing [`example_kb`]: new entities,
    /// keyphrases of base and new words (one in another case), reweights
    /// down to zero and past it, links into base entities, and dictionary
    /// surfaces on base keys and new ones.
    fn growing_log(seeds: &[(u8, u8, u8, u8)]) -> Vec<KbMutation> {
        const PHRASES: [&str; 6] = [
            "hard rock",
            "Led Zeppelin",
            "Himalaya mountains",
            "HARD Rock",
            "new wave band",
            "studio master tape",
        ];
        const SURFACES: [&str; 5] = ["Kashmir", "Page", "Plant", "Zeppelin", "Black Dog"];
        fn pick(i: u8, names: &[String]) -> String {
            names[usize::from(i) % names.len()].clone()
        }
        let mut names: Vec<String> = BASE_NAMES.map(String::from).to_vec();
        let mut pairs: Vec<(String, String)> = vec![
            ("Jimmy Page".into(), "Led Zeppelin".into()),
            ("Kashmir (region)".into(), "disputed territory".into()),
        ];
        let mut log = Vec::with_capacity(seeds.len());
        for &(op, a, b, c) in seeds {
            log.push(match op % 5 {
                0 => {
                    let name = format!("Emerging {}", names.len());
                    names.push(name.clone());
                    KbMutation::AddEntity { canonical_name: name, kind: EntityKind::Other }
                }
                1 => {
                    let targets = if a % 2 == 0 { &names[..BASE_NAMES.len()] } else { &names };
                    KbMutation::AddLink { src: pick(a, &names), dst: pick(b, targets) }
                }
                2 => {
                    let entity = pick(a, &names);
                    let surface = PHRASES[usize::from(b) % PHRASES.len()].to_string();
                    pairs.push((entity.clone(), surface.clone()));
                    KbMutation::AddKeyphrase { entity, surface, count: u64::from(c % 4) + 1 }
                }
                3 => KbMutation::AddDictionarySurface {
                    entity: pick(a, &names),
                    surface: SURFACES[usize::from(b) % SURFACES.len()].to_string(),
                    count: u64::from(c % 5) + 1,
                },
                _ => {
                    let (entity, surface) = pairs[usize::from(a) % pairs.len()].clone();
                    let delta = match c % 3 {
                        0 => -1_000_000,
                        1 => -i64::from(b % 3),
                        _ => i64::from(b % 5),
                    };
                    KbMutation::ReweightKeyphrase { entity, surface, delta }
                }
            });
        }
        log
    }

    fn snapshot_bytes(kb: &FrozenKb) -> Vec<u8> {
        let mut bytes = Vec::new();
        crate::snapshot::write_frozen_snapshot(kb, &mut bytes).unwrap();
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Compaction copies the overlay's rows: at every prefix of a random
        /// growing log, its v3 snapshot bytes equal freezing the reference
        /// merge of the same prefix.
        #[test]
        fn compaction_equals_the_reference_merge_at_every_prefix(
            seeds in proptest::collection::vec((0u8..255, 0u8..255, 0u8..255, 0u8..255), 1..32),
        ) {
            let base = Arc::new(FrozenKb::freeze(&example_kb()));
            let log = growing_log(&seeds);
            for cut in 0..=log.len() {
                let prefix = &log[..cut];
                let delta = DeltaKb::build(Arc::clone(&base), prefix.to_vec()).unwrap();
                let compacted = snapshot_bytes(&delta.compact().unwrap());
                let reference = snapshot_bytes(&FrozenKb::freeze(&merge(&base, prefix).unwrap()));
                prop_assert!(compacted == reference, "prefix {cut} of {log:?}");
            }
        }
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
    fn phrases_whose_hashes_collide_still_resolve() {
        let base = Arc::new(FrozenKb::freeze(&example_kb()));
        let mut st = Staging::new(&base);
        let mut delta = DeltaKb::empty(Arc::clone(&base));
        let a = delta.intern_phrase(&mut st, "first fresh phrase");
        // Make the slot of the second phrase's hash look taken by the
        // first, as a 64-bit collision would.
        delta.phrase_word_ids(&mut st, "second fresh phrase", true);
        let h = words_hash(&st.phrase);
        st.phrases.by_hash.insert(h, a);
        let b = delta.intern_phrase(&mut st, "second fresh phrase");
        assert_ne!(a, b);
        assert_eq!(st.phrases.colliding, vec![(h, b)]);
        // Both resolve again: the second through the collision list.
        assert_eq!(delta.intern_phrase(&mut st, "Second Fresh Phrase"), b);
        assert_eq!(delta.find_phrase(&mut st, "SECOND fresh PHRASE"), Some(b));
        assert_eq!(delta.intern_phrase(&mut st, "First Fresh Phrase"), a);
        assert_eq!(delta.phrase_count(), base.phrase_count() + 2);
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

    /// Keywords of the word-lookup proptest: plain words, words whose
    /// lowercase is not ASCII (`İ` → "i\u{307}", "Straße") or comes from
    /// a non-ASCII letter (the Kelvin sign → "k"), and ASCII words of 32
    /// and 33 bytes. The base holds the first list, the overlay's word tail
    /// the second.
    const BASE_WORDS: &str =
        "k \u{130} Straße kelvin abcdefghijklmnopqrstuvwxyzabcdef abcdefghijklmnopqrstuvwxyzabcdefg";
    const OVERLAY_WORDS: &str =
        "\u{212a}nob ÉTÉ ABCDEFGHIJKLMNOPQRSTUVWXYZABCDEz ABCDEFGHIJKLMNOPQRSTUVWXYZABCDEyz";

    /// A lookup text glued from `(kind, value)` draws: a keyword as
    /// written, upper- or lowercased, the Kelvin sign or `İ`, or any
    /// Unicode scalar value.
    fn lookup_text(draws: &[(u32, u32)]) -> String {
        let vocab: Vec<&str> = BASE_WORDS.split(' ').chain(OVERLAY_WORDS.split(' ')).collect();
        let mut out = String::new();
        for &(kind, value) in draws {
            let word = vocab[value as usize % vocab.len()];
            match kind {
                0 => out.push_str(word),
                1 => out.push_str(&word.to_uppercase()),
                2 => out.push_str(&word.to_lowercase()),
                3 => out.push_str(["\u{212a}", "\u{130}"][value as usize % 2]),
                _ => out.extend(char::from_u32(value)),
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `word_id` on the frozen KB and on an overlay with its own word
        /// tail equals its `to_lowercase()` definition: one lookup of the
        /// lowercased text, overlay tail first.
        #[test]
        fn stack_buffer_word_id_matches_to_lowercase(
            draws in proptest::collection::vec((0u32..5, 0u32..0x11_0000), 1..3),
        ) {
            let mut b = crate::builder::KbBuilder::new();
            let e = b.add_entity("E", EntityKind::Other);
            b.add_keyphrase(e, BASE_WORDS, 1);
            let base = Arc::new(FrozenKb::freeze(&b.build()));
            let muts = vec![KbMutation::AddKeyphrase {
                entity: "E".into(),
                surface: OVERLAY_WORDS.into(),
                count: 1,
            }];
            let delta = DeltaKb::build(Arc::clone(&base), muts).unwrap();
            prop_assert_eq!(delta.word_count(), base.word_count() + 4);

            let text = lookup_text(&draws);
            let lower = text.to_lowercase();
            prop_assert_eq!(base.word_id(&text), base.word_id_lowercased(&lower), "{:?}", text);
            let overlay = delta
                .word_index_new
                .get(&lower)
                .copied()
                .or_else(|| base.word_id_lowercased(&lower));
            prop_assert_eq!(delta.word_id(&text), overlay, "{:?}", text);
        }
    }
}
