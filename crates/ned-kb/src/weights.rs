//! Statistical keyterm weighting (Eqs. 3.1–3.5 and 4.1).
//!
//! Three weight families drive the similarity and relatedness measures:
//!
//! - **IDF** (Eq. 3.5): `idf(k) = log2(N / df(k))`, where for keyphrases
//!   `df` counts entities with the phrase in their keyphrase set and for
//!   keywords it counts entities with at least one keyphrase containing the
//!   token.
//! - **Entity–keyword NPMI** (Eqs. 3.1–3.3): occurrence is defined on the
//!   entity's *superdocument* — its own keyphrases plus the keyphrases of all
//!   entities linking to it. Under this model an entity occurs exactly once,
//!   so for a keyword `w` present in the superdocument of `e`,
//!   `npmi(e, w) = 1 − ln df_super(w) / ln N`; non-positive weights are
//!   discarded (§3.3.4).
//! - **Entity–keyphrase µ-MI** (Eq. 4.1): normalized mutual information
//!   `µ(E,T) = 2·(H(E) + H(T) − H(E,T)) / (H(E) + H(T))` over the binary
//!   occurrence variables of the same superdocument model.

use serde::{Deserialize, Serialize};

use crate::ids::{EntityId, PhraseId, WordId};
use crate::keyphrase::{EntityPhrase, KeyphraseStore};
use crate::links::LinkGraph;
use crate::snapshot::check_ids;
use crate::vocab::PhraseInterner;

/// Precomputed weights for all entity–keyterm pairs in the knowledge base.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct WeightModel {
    n_entities: usize,
    /// Keyword IDF, indexed by `WordId`.
    word_idf: Vec<f64>,
    /// Keyphrase IDF, indexed by `PhraseId`.
    phrase_idf: Vec<f64>,
    /// Superdocument document frequency per keyword.
    word_super_df: Vec<u32>,
    /// Superdocument document frequency per keyphrase.
    phrase_super_df: Vec<u32>,
    /// Per entity: (word, npmi) for distinct words of its own keyphrases,
    /// sorted by word id; only strictly positive weights are kept.
    entity_word_npmi: Vec<Vec<(WordId, f64)>>,
    /// Per entity: (phrase, µ) for its own keyphrases, sorted by phrase id.
    entity_phrase_mi: Vec<Vec<(PhraseId, f64)>>,
}

impl WeightModel {
    /// Computes all weights from the keyphrase store and link graph.
    ///
    /// Cost is `O(Σ_e |superdoc(e)|)` time with two stamp arrays (one per
    /// term kind) as the per-entity sets; nothing quadratic in the number
    /// of entities.
    pub fn compute(
        keyphrases: &KeyphraseStore,
        links: &LinkGraph,
        phrases: &PhraseInterner,
        n_words: usize,
    ) -> Self {
        let rows = StoreRows { keyphrases, links, phrases };
        let n = keyphrases.len();
        let (counts, words) = TermCounts::count(&rows, n, n_words, phrases.len());
        Self::from_counts(n, &counts, &words, &rows)
    }

    /// The N-dependent half of the model: IDF, NPMI and µ from document
    /// frequencies counted over `n` entities. `words` holds each entity's
    /// distinct keyphrase words, sorted; `rows` its keyphrase row.
    ///
    /// Every value depends on its term only through the term's df, so each
    /// formula is evaluated once per df value and looked up per term —
    /// bit-identical to evaluating it per (entity, term) pair.
    pub(crate) fn from_counts<R: TermRows + ?Sized>(
        n: usize,
        counts: &TermCounts,
        words: &EntityWords,
        rows: &R,
    ) -> Self {
        let ln_n = (n as f64).ln();
        let idf_of = DfTable::new(n, |df| idf(df, n));
        let npmi_of = DfTable::new(n, |df| npmi_present(df, n, ln_n));
        let mu_of = DfTable::new(n, |df| mu_present(df, n));

        let mut entity_word_npmi = Vec::with_capacity(n);
        let mut entity_phrase_mi = Vec::with_capacity(n);
        for ei in 0..n {
            let e = EntityId::from_index(ei);
            // Own words are always in the superdocument; the row is already
            // sorted by word id.
            entity_word_npmi.push(
                words
                    .row(e)
                    .iter()
                    .filter_map(|&w| {
                        let npmi = npmi_of.get(df_at(&counts.word_super_df, w.index()));
                        (npmi > 0.0).then_some((w, npmi))
                    })
                    .collect::<Vec<_>>(),
            );
            let mut phrase_row: Vec<(PhraseId, f64)> = rows
                .keyphrases(e)
                .iter()
                .map(|ep| (ep.phrase, mu_of.get(df_at(&counts.phrase_super_df, ep.phrase.index()))))
                .collect();
            phrase_row.sort_unstable_by_key(|&(p, _)| p);
            entity_phrase_mi.push(phrase_row);
        }

        WeightModel {
            n_entities: n,
            word_idf: counts.word_df.iter().map(|&d| idf_of.get(d)).collect(),
            phrase_idf: counts.phrase_df.iter().map(|&d| idf_of.get(d)).collect(),
            word_super_df: counts.word_super_df.clone(),
            phrase_super_df: counts.phrase_super_df.clone(),
            entity_word_npmi,
            entity_phrase_mi,
        }
    }

    /// Number of entities the model was computed over.
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// Keyword IDF (Eq. 3.5); 0 for never-observed words.
    pub fn word_idf(&self, w: WordId) -> f64 {
        self.word_idf.get(w.index()).copied().unwrap_or(0.0)
    }

    /// Keyphrase IDF (Eq. 3.5); 0 for never-observed phrases.
    pub fn phrase_idf(&self, p: PhraseId) -> f64 {
        self.phrase_idf.get(p.index()).copied().unwrap_or(0.0)
    }

    /// Superdocument document frequency of a keyword.
    pub fn word_super_df(&self, w: WordId) -> u32 {
        self.word_super_df.get(w.index()).copied().unwrap_or(0)
    }

    /// NPMI weight of keyword `w` with respect to entity `e` (Eq. 3.1);
    /// 0 when the word is not among the entity's keyphrase words, the
    /// weight was non-positive, or `e` is out of range.
    pub fn keyword_npmi(&self, e: EntityId, w: WordId) -> f64 {
        lookup_row(self.keyword_npmi_row(e), w)
    }

    /// All (word, npmi) pairs of an entity, sorted by word id; empty for an
    /// out-of-range entity.
    pub fn keyword_npmi_row(&self, e: EntityId) -> &[(WordId, f64)] {
        self.entity_word_npmi.get(e.index()).map_or(&[], Vec::as_slice)
    }

    /// µ-MI weight of keyphrase `p` with respect to entity `e` (Eq. 4.1);
    /// 0 when the phrase is not in the entity's keyphrase set or `e` is out
    /// of range.
    pub fn phrase_mi(&self, e: EntityId, p: PhraseId) -> f64 {
        lookup_row(self.phrase_mi_row(e), p)
    }

    /// All (phrase, µ) pairs of an entity, sorted by phrase id; empty for
    /// an out-of-range entity.
    pub fn phrase_mi_row(&self, e: EntityId) -> &[(PhraseId, f64)] {
        self.entity_phrase_mi.get(e.index()).map_or(&[], Vec::as_slice)
    }

    /// Checks a decoded model against the KB's counts (snapshot load): one
    /// row per entity, one IDF and superdocument df per keyword and per
    /// keyphrase, and every word and phrase in a row below its count.
    pub(crate) fn check(&self, entities: usize, words: usize, phrases: usize) -> Result<(), String> {
        for (what, len, count) in [
            ("entity count", self.n_entities, entities),
            ("NPMI rows", self.entity_word_npmi.len(), entities),
            ("µ-MI rows", self.entity_phrase_mi.len(), entities),
            ("keyword IDFs", self.word_idf.len(), words),
            ("keyword superdocument dfs", self.word_super_df.len(), words),
            ("keyphrase IDFs", self.phrase_idf.len(), phrases),
            ("keyphrase superdocument dfs", self.phrase_super_df.len(), phrases),
        ] {
            if len != count {
                return Err(format!("{what}: {len}, not {count}"));
            }
        }
        let npmi_words = self.entity_word_npmi.iter().flatten().map(|(w, _)| w.index());
        check_ids(npmi_words, words, "NPMI word")?;
        let mi_phrases = self.entity_phrase_mi.iter().flatten().map(|(p, _)| p.index());
        check_ids(mi_phrases, phrases, "µ-MI phrase")
    }

    /// Approximate heap footprint of the model in bytes (array payloads
    /// plus the per-row `Vec` headers of the sparse weight rows).
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let row_bytes = |rows: &[Vec<(WordId, f64)>]| -> usize {
            rows.iter()
                .map(|r| r.len() * size_of::<(WordId, f64)>() + size_of::<Vec<(WordId, f64)>>())
                .sum()
        };
        let phrase_row_bytes = |rows: &[Vec<(PhraseId, f64)>]| -> usize {
            rows.iter()
                .map(|r| {
                    r.len() * size_of::<(PhraseId, f64)>() + size_of::<Vec<(PhraseId, f64)>>()
                })
                .sum()
        };
        self.word_idf.len() * size_of::<f64>()
            + self.phrase_idf.len() * size_of::<f64>()
            + self.word_super_df.len() * size_of::<u32>()
            + self.phrase_super_df.len() * size_of::<u32>()
            + row_bytes(&self.entity_word_npmi)
            + phrase_row_bytes(&self.entity_phrase_mi)
    }
}

/// The weight of `key` in a row sorted by key; 0 when absent.
fn lookup_row<K: Ord + Copy>(row: &[(K, f64)], key: K) -> f64 {
    row.binary_search_by_key(&key, |&(k, _)| k)
        .ok()
        .and_then(|i| row.get(i))
        .map_or(0.0, |&(_, v)| v)
}

/// Read access to the rows the statistics are counted over, so the
/// build-time store, the frozen base and the delta overlay share one
/// counting routine.
pub(crate) trait TermRows {
    /// The keyphrase row of `e`.
    fn keyphrases(&self, e: EntityId) -> &[EntityPhrase];
    /// Entities linking to `e`.
    fn inlinks(&self, e: EntityId) -> &[EntityId];
    /// Word-id sequence of phrase `p`.
    fn phrase_words(&self, p: PhraseId) -> &[WordId];
}

/// The build-time stores as [`TermRows`].
struct StoreRows<'a> {
    keyphrases: &'a KeyphraseStore,
    links: &'a LinkGraph,
    phrases: &'a PhraseInterner,
}

impl TermRows for StoreRows<'_> {
    fn keyphrases(&self, e: EntityId) -> &[EntityPhrase] {
        self.keyphrases.phrases(e)
    }
    fn inlinks(&self, e: EntityId) -> &[EntityId] {
        self.links.inlinks(e)
    }
    fn phrase_words(&self, p: PhraseId) -> &[WordId] {
        self.phrases.words(p)
    }
}

/// Document frequencies of every keyword and keyphrase, directly (entities
/// whose own keyphrases contain the term) and over superdocuments: all the
/// weights depend on besides the entity count N.
#[derive(Debug, Default, Clone)]
pub(crate) struct TermCounts {
    word_df: Vec<u32>,
    phrase_df: Vec<u32>,
    word_super_df: Vec<u32>,
    phrase_super_df: Vec<u32>,
}

impl TermCounts {
    /// Counts every entity of `rows` from zero; also returns each entity's
    /// distinct keyphrase words.
    pub(crate) fn count<R: TermRows + ?Sized>(
        rows: &R,
        n: usize,
        n_words: usize,
        n_phrases: usize,
    ) -> (Self, EntityWords) {
        let mut counts = TermCounts::default();
        counts.grow(n_words, n_phrases);
        let mut sets = TermSets::new(n_words, n_phrases);
        let mut words = EntityWords::default();
        let mut row = Vec::new();
        for ei in 0..n {
            let e = EntityId::from_index(ei);
            sets.distinct_words(rows.keyphrases(e), rows, &mut row);
            counts.add_direct(rows.keyphrases(e), &row, 1);
            words.push_row(&row);
            counts.add_superdoc(e, rows, &mut sets, 1);
        }
        (counts, words)
    }

    /// Extends the frequency arrays to `n_words` / `n_phrases` terms; new
    /// terms start at df 0.
    pub(crate) fn grow(&mut self, n_words: usize, n_phrases: usize) {
        for v in [&mut self.word_df, &mut self.word_super_df] {
            if v.len() < n_words {
                v.resize(n_words, 0);
            }
        }
        for v in [&mut self.phrase_df, &mut self.phrase_super_df] {
            if v.len() < n_phrases {
                v.resize(n_phrases, 0);
            }
        }
    }

    /// Adds (`sign` = 1) or removes (`sign` = -1) one entity's direct
    /// contribution: every entry of its keyphrase `row` counts its phrase,
    /// every word of `distinct_words` (the row's words, deduplicated) counts
    /// once.
    pub(crate) fn add_direct(
        &mut self,
        row: &[EntityPhrase],
        distinct_words: &[WordId],
        sign: i32,
    ) {
        for ep in row {
            bump(&mut self.phrase_df, ep.phrase.index(), sign);
        }
        for w in distinct_words {
            bump(&mut self.word_df, w.index(), sign);
        }
    }

    /// Adds (`sign` = 1) or removes (`sign` = -1) the superdocument of `e`
    /// — its own keyphrases plus those of every entity linking to it — each
    /// distinct term counting once.
    pub(crate) fn add_superdoc<R: TermRows + ?Sized>(
        &mut self,
        e: EntityId,
        rows: &R,
        sets: &mut TermSets,
        sign: i32,
    ) {
        sets.clear();
        let mut add = |entity: EntityId| {
            for ep in rows.keyphrases(entity) {
                // A phrase seen before already contributed its words.
                if sets.phrases.insert(ep.phrase.index()) {
                    bump(&mut self.phrase_super_df, ep.phrase.index(), sign);
                    for w in rows.phrase_words(ep.phrase) {
                        if sets.words.insert(w.index()) {
                            bump(&mut self.word_super_df, w.index(), sign);
                        }
                    }
                }
            }
        };
        add(e);
        for &src in rows.inlinks(e) {
            add(src);
        }
    }
}

/// Moves one count up or down; never panics (a count can only go below
/// zero when the counted rows are not the ones the counts came from).
fn bump(counts: &mut [u32], i: usize, sign: i32) {
    if let Some(c) = counts.get_mut(i) {
        *c = if sign > 0 { c.saturating_add(1) } else { c.saturating_sub(1) };
    }
}

/// The df at `i`; 0 beyond the array.
fn df_at(counts: &[u32], i: usize) -> u32 {
    counts.get(i).copied().unwrap_or(0)
}

/// The distinct keyphrase words of every entity, each row sorted by word
/// id, in one flat array.
#[derive(Debug, Clone)]
pub(crate) struct EntityWords {
    offsets: Vec<usize>,
    data: Vec<WordId>,
}

impl Default for EntityWords {
    fn default() -> Self {
        EntityWords { offsets: vec![0], data: Vec::new() }
    }
}

impl EntityWords {
    /// Appends the row of the next entity.
    pub(crate) fn push_row(&mut self, words: &[WordId]) {
        self.data.extend_from_slice(words);
        self.offsets.push(self.data.len());
    }

    /// The sorted distinct words of `e`; empty beyond the last row.
    pub(crate) fn row(&self, e: EntityId) -> &[WordId] {
        let i = e.index();
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&lo), Some(&hi)) => self.data.get(lo..hi).unwrap_or(&[]),
            _ => &[],
        }
    }
}

/// Membership sets over dense word and phrase ids, cleared in O(1).
#[derive(Debug)]
pub(crate) struct TermSets {
    words: StampSet,
    phrases: StampSet,
}

impl TermSets {
    /// Sets over `n_words` words and `n_phrases` phrases.
    pub(crate) fn new(n_words: usize, n_phrases: usize) -> Self {
        TermSets { words: StampSet::new(n_words), phrases: StampSet::new(n_phrases) }
    }

    fn clear(&mut self) {
        self.words.clear();
        self.phrases.clear();
    }

    /// Writes the distinct words of a keyphrase `row` into `out`, sorted.
    pub(crate) fn distinct_words<R: TermRows + ?Sized>(
        &mut self,
        row: &[EntityPhrase],
        rows: &R,
        out: &mut Vec<WordId>,
    ) {
        self.words.clear();
        out.clear();
        for ep in row {
            for &w in rows.phrase_words(ep.phrase) {
                if self.words.insert(w.index()) {
                    out.push(w);
                }
            }
        }
        out.sort_unstable();
    }
}

/// A set over `0..len` that clears by advancing a generation stamp.
#[derive(Debug)]
struct StampSet {
    stamps: Vec<u32>,
    generation: u32,
}

impl StampSet {
    fn new(len: usize) -> Self {
        StampSet { stamps: vec![0; len], generation: 1 }
    }

    fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.stamps.iter_mut().for_each(|s| *s = 0);
            self.generation = 1;
        }
    }

    /// Inserts `i`; true if it was absent. Ids beyond the set are never
    /// members (and never counted).
    fn insert(&mut self, i: usize) -> bool {
        match self.stamps.get_mut(i) {
            Some(s) if *s != self.generation => {
                *s = self.generation;
                true
            }
            _ => false,
        }
    }
}

/// A formula of (df, N) tabulated for every df in `0..=N`, so it is
/// evaluated once per df value rather than once per (entity, term) pair.
struct DfTable<F> {
    values: Vec<f64>,
    f: F,
}

impl<F: Fn(u32) -> f64> DfTable<F> {
    fn new(n: usize, f: F) -> Self {
        let values = (0..=u32::try_from(n).unwrap_or(u32::MAX)).map(&f).collect();
        DfTable { values, f }
    }

    /// `f(df)`; a df beyond N (impossible for counted rows) is evaluated
    /// directly.
    fn get(&self, df: u32) -> f64 {
        self.values.get(df as usize).copied().unwrap_or_else(|| (self.f)(df))
    }
}

/// IDF (Eq. 3.5): `log2(N / df)`; 0 for an unobserved term.
fn idf(df: u32, n: usize) -> f64 {
    if df == 0 || n == 0 {
        0.0
    } else {
        (n as f64 / df as f64).log2()
    }
}

/// NPMI for a term that *is* present in the entity's superdocument:
/// `1 − ln(df_super) / ln(N)`.
fn npmi_present(df_super: u32, n: usize, ln_n: f64) -> f64 {
    if n <= 1 || df_super == 0 {
        return 0.0;
    }
    1.0 - (df_super as f64).ln() / ln_n
}

/// Normalized mutual information µ (Eq. 4.1) for a term present in the
/// entity's superdocument, under the one-occurrence-per-entity model:
/// `p(E) = 1/N`, `p(T) = df/N`, `p(E,T) = 1/N`.
fn mu_present(df_super: u32, n: usize) -> f64 {
    if n <= 1 || df_super == 0 {
        return 0.0;
    }
    let n = n as f64;
    let p_e = 1.0 / n;
    let p_t = df_super as f64 / n;
    let h_e = binary_entropy(p_e);
    let h_t = binary_entropy(p_t);
    if h_e + h_t <= 0.0 {
        return 0.0;
    }
    // Joint distribution cells: (E=1,T=1)=1/N, (E=1,T=0)=0,
    // (E=0,T=1)=(df−1)/N, (E=0,T=0)=(N−df)/N.
    let p11 = p_e;
    let p01 = (df_super as f64 - 1.0) / n;
    let p00 = (n - df_super as f64) / n;
    let h_joint = -(plogp(p11) + plogp(p01) + plogp(p00));
    let mi = (h_e + h_t - h_joint).max(0.0);
    (2.0 * mi / (h_e + h_t)).clamp(0.0, 1.0)
}

fn binary_entropy(p: f64) -> f64 {
    -(plogp(p) + plogp(1.0 - p))
}

fn plogp(p: f64) -> f64 {
    if p <= 0.0 {
        0.0
    } else {
        p * p.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::WordInterner;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    /// Builds a 3-entity fixture: e0 and e1 share the phrase "hard rock";
    /// e2 has the unique phrase "folk singer"; e2 links to e0.
    fn fixture() -> (KeyphraseStore, LinkGraph, PhraseInterner, WordInterner) {
        let mut words = WordInterner::new();
        let mut phrases = PhraseInterner::new();
        let hard_rock = phrases.intern("hard rock", &mut words);
        let folk = phrases.intern("folk singer", &mut words);
        let guitar = phrases.intern("electric guitar", &mut words);
        let mut kp = KeyphraseStore::new(3);
        kp.add(e(0), hard_rock, 2);
        kp.add(e(0), guitar, 1);
        kp.add(e(1), hard_rock, 1);
        kp.add(e(2), folk, 1);
        kp.finalize();
        let mut links = LinkGraph::new(3);
        links.add_link(e(2), e(0));
        links.finalize();
        (kp, links, phrases, words)
    }

    fn model() -> (WeightModel, PhraseInterner, WordInterner) {
        let (kp, links, phrases, words) = fixture();
        let m = WeightModel::compute(&kp, &links, &phrases, words.len());
        (m, phrases, words)
    }

    #[test]
    fn idf_reflects_document_frequency() {
        let (m, phrases, words) = model();
        let hard_rock = phrases.get("hard rock", &words).unwrap();
        let folk = phrases.get("folk singer", &words).unwrap();
        // df(hard rock) = 2 of 3 entities; df(folk singer) = 1 of 3.
        assert!((m.phrase_idf(hard_rock) - (3.0f64 / 2.0).log2()).abs() < 1e-12);
        assert!((m.phrase_idf(folk) - 3.0f64.log2()).abs() < 1e-12);
        assert!(m.phrase_idf(folk) > m.phrase_idf(hard_rock));
    }

    #[test]
    fn rarer_words_get_higher_npmi() {
        let (m, _, words) = model();
        let rock = words.get("rock").unwrap();
        let folk = words.get("folk").unwrap();
        // "rock" is in superdocs of e0, e1; "folk" in superdocs of e2 and e0
        // (e2 links to e0, so e0's superdoc includes e2's phrases).
        let npmi_rock = m.keyword_npmi(e(0), rock);
        assert!(npmi_rock > 0.0);
        let npmi_folk_e2 = m.keyword_npmi(e(2), folk);
        assert!(npmi_folk_e2 > 0.0);
        // Word absent from entity's own keyphrases has weight 0.
        assert_eq!(m.keyword_npmi(e(2), rock), 0.0);
    }

    #[test]
    fn npmi_in_unit_interval() {
        let (m, _, _) = model();
        for ei in 0..3 {
            for &(_, v) in m.keyword_npmi_row(e(ei)) {
                assert!(v > 0.0 && v <= 1.0, "npmi {v} out of range");
            }
        }
    }

    #[test]
    fn mu_in_unit_interval_and_rarer_is_higher() {
        let (m, phrases, words) = model();
        let hard_rock = phrases.get("hard rock", &words).unwrap();
        let folk = phrases.get("folk singer", &words).unwrap();
        let mu_common = m.phrase_mi(e(0), hard_rock);
        let mu_rare = m.phrase_mi(e(2), folk);
        assert!(mu_common > 0.0 && mu_common <= 1.0);
        assert!(mu_rare > 0.0 && mu_rare <= 1.0);
        assert!(mu_rare >= mu_common, "rare {mu_rare} vs common {mu_common}");
    }

    #[test]
    fn ubiquitous_term_gets_zero_npmi() {
        // A word present in every superdocument carries no information.
        let mut words = WordInterner::new();
        let mut phrases = PhraseInterner::new();
        let p0 = phrases.intern("common word", &mut words);
        let mut kp = KeyphraseStore::new(2);
        kp.add(e(0), p0, 1);
        kp.add(e(1), p0, 1);
        kp.finalize();
        let mut links = LinkGraph::new(2);
        links.finalize();
        let m = WeightModel::compute(&kp, &links, &phrases, words.len());
        let common = words.get("common").unwrap();
        // df_super = N → npmi = 0 → discarded.
        assert_eq!(m.keyword_npmi(e(0), common), 0.0);
        assert!(m.keyword_npmi_row(e(0)).is_empty());
    }

    #[test]
    fn empty_kb_is_well_defined() {
        let kp = KeyphraseStore::new(0);
        let links = LinkGraph::new(0);
        let phrases = PhraseInterner::new();
        let m = WeightModel::compute(&kp, &links, &phrases, 0);
        assert_eq!(m.n_entities(), 0);
        assert_eq!(m.word_idf(WordId(0)), 0.0);
    }

    #[test]
    fn mu_handles_full_df() {
        // df_super == N must give µ = 0, not NaN.
        assert_eq!(mu_present(2, 2), 0.0);
        assert!(mu_present(1, 2) > 0.0);
    }
}
