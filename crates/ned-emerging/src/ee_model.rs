//! The placeholder-entity keyphrase model (Algorithm 2, §5.5.2).
//!
//! For an ambiguous name, the *global model* (phrases harvested from a news
//! chunk around its mentions) contains evidence for every entity carrying
//! the name — in-KB and emerging alike. Since the in-KB candidates' models
//! are known, subtracting them from the global model leaves the phrases
//! characteristic of the *emerging* entity:
//!
//! `d = α · (b − c)` per phrase, where `b` is the harvested count, `c` the
//! in-KB candidates' count, and `α = |KB| / |news chunk|` balances the
//! collection sizes.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hasher;
use std::ops::Range;

use ned_eval::gold::GoldDoc;
use ned_kb::fx::{FxHashMap, FxHasher};
use ned_kb::{KbView, PhraseId, WordId};
use ned_text::{Mention, PosTagger, Token};

use crate::harvest::{push_surface, TaggedDoc};

/// The keyphrase model of one potential emerging entity (one per name).
#[derive(Debug, Clone, Default)]
pub struct EeModel {
    /// The ambiguous name the model belongs to.
    pub name: String,
    /// Phrases with weights in (0, 1]: word-id sequences (KB-interned;
    /// words unknown to the KB vocabulary are dropped) plus surfaces.
    pub phrases: Vec<EePhrase>,
    /// Number of mention occurrences the model was harvested from.
    pub occurrences: u64,
}

/// One weighted phrase of an [`EeModel`].
#[derive(Debug, Clone)]
pub struct EePhrase {
    /// Lowercased surface.
    pub surface: String,
    /// KB-interned word ids (deduplicated, sorted).
    pub words: Vec<WordId>,
    /// Salience weight in (0, 1] from the adjusted count.
    pub weight: f64,
}

impl EeModel {
    /// True when the model has no phrases (no distinctive evidence for an
    /// emerging entity under this name).
    pub fn is_empty(&self) -> bool {
        self.phrases.is_empty()
    }

    /// All distinct word ids of the model.
    pub fn word_set(&self) -> Vec<WordId> {
        let mut ws: Vec<WordId> = self.phrases.iter().flat_map(|p| p.words.clone()).collect();
        ws.sort_unstable();
        ws.dedup();
        ws
    }
}

/// Configuration for model building.
#[derive(Debug, Clone)]
pub struct EeModelConfig {
    /// Keep at most this many phrases per model, by descending weight
    /// (§5.7.2 used 3,000; our phrases are far fewer).
    pub max_phrases: usize,
    /// Drop phrases whose adjusted count is below this.
    pub min_adjusted_count: f64,
}

impl Default for EeModelConfig {
    fn default() -> Self {
        EeModelConfig { max_phrases: 3000, min_adjusted_count: 0.5 }
    }
}

/// Entry `id`'s range in a buffer whose entries end at `ends`.
fn entry(ends: &[usize], id: usize) -> Range<usize> {
    let start = id.checked_sub(1).and_then(|prev| ends.get(prev)).copied().unwrap_or(0);
    start..ends.get(id).copied().unwrap_or(start)
}

/// Strings interned into one buffer: string `i` is the [`entry`] `i` of
/// `text` under `ends`. A string is found by its hash and compared with
/// the arena's strings of that hash, so interning allocates nothing per
/// string beyond the buffers' growth.
#[derive(Debug, Default)]
struct Arena {
    text: String,
    ends: Vec<usize>,
    by_hash: FxHashMap<u64, usize>,
    /// Strings whose hash an earlier string had already taken.
    colliding: Vec<(u64, usize)>,
}

impl Arena {
    fn len(&self) -> usize {
        self.ends.len()
    }

    fn get(&self, id: usize) -> &str {
        self.text.get(entry(&self.ends, id)).unwrap_or("")
    }

    /// Interns the string `push` appends to the buffer: its id, and whether
    /// it is new. A string the arena already holds is cut off again.
    fn intern_with(&mut self, push: impl FnOnce(&mut String)) -> (usize, bool) {
        let start = self.text.len();
        push(&mut self.text);
        let s = self.text.get(start..).unwrap_or("");
        let mut hasher = FxHasher::default();
        hasher.write(s.as_bytes());
        let h = hasher.finish();
        let is_it = |id: &usize| self.get(*id) == s;
        let found = self.by_hash.get(&h).copied().filter(is_it).or_else(|| {
            self.colliding.iter().filter(|&&(x, _)| x == h).map(|&(_, id)| id).find(is_it)
        });
        if let Some(id) = found {
            self.text.truncate(start);
            return (id, false);
        }
        let id = self.ends.len();
        self.ends.push(self.text.len());
        match self.by_hash.entry(h) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(_) => self.colliding.push((h, id)),
        }
        (id, true)
    }
}

/// The lowercased phrase surfaces harvested in one [`NameModels::build`]
/// call, interned into one arena, each with its KB word run (sorted and
/// deduplicated; words the KB does not know are dropped) computed when the
/// surface is first interned.
#[derive(Debug, Default)]
struct Surfaces {
    text: Arena,
    /// Surface `i`'s run is the [`entry`] `i` of `runs` under `run_ends`.
    runs: Vec<WordId>,
    run_ends: Vec<usize>,
    /// Every word of an interned surface, with its KB id.
    words: Arena,
    word_ids: Vec<Option<WordId>>,
    /// The run being built.
    run: Vec<WordId>,
}

impl Surfaces {
    /// The id of the lowercased surface of the phrase `tokens`.
    fn intern<K: KbView + ?Sized>(&mut self, kb: &K, tokens: &[Token]) -> usize {
        let (id, new) = self.text.intern_with(|out| push_surface(tokens, out));
        if new {
            self.run.clear();
            for word in self.text.get(id).split_whitespace() {
                let (w, new_word) = self.words.intern_with(|out| out.push_str(word));
                if new_word {
                    self.word_ids.push(kb.word_id(word));
                }
                self.run.extend(self.word_ids.get(w).copied().flatten());
            }
            self.run.sort_unstable();
            self.run.dedup();
            self.runs.extend_from_slice(&self.run);
            self.run_ends.push(self.runs.len());
        }
        id
    }

    fn len(&self) -> usize {
        self.text.len()
    }

    fn text(&self, id: usize) -> &str {
        self.text.get(id)
    }

    /// The KB word run of surface `id`.
    fn run(&self, id: usize) -> &[WordId] {
        self.runs.get(entry(&self.run_ends, id)).unwrap_or(&[])
    }

    /// The rank of every surface in the order of the surface texts: ties of
    /// the adjusted count break by rank, as by the texts themselves.
    fn ranks(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by(|&a, &b| self.text(a).cmp(self.text(b)));
        let mut rank = vec![0; order.len()];
        for (r, &id) in order.iter().enumerate() {
            if let Some(slot) = rank.get_mut(id) {
                *slot = r;
            }
        }
        rank
    }
}

/// `surface.to_lowercase() == lowered`, comparing an ASCII `surface` byte
/// by byte instead of lowercasing it.
fn lowercases_to(surface: &str, lowered: &str) -> bool {
    if surface.is_ascii() {
        surface.len() == lowered.len()
            && surface.bytes().zip(lowered.bytes()).all(|(a, b)| a.to_ascii_lowercase() == b)
    } else {
        surface.to_lowercase() == lowered
    }
}

/// One keyphrase of an in-KB candidate, prepared for the subtraction.
#[derive(Debug)]
struct KbPhrase<'k> {
    phrase: PhraseId,
    /// Its sorted, deduplicated word run ([`KbView::phrase_runs`]).
    words: &'k [WordId],
    count: u64,
}

/// Where a word's postings lie in [`Subtraction::postings`]; valid only
/// while `stamp` is the subtraction's current one.
#[derive(Debug, Clone, Copy, Default)]
struct Postings {
    stamp: u32,
    start: usize,
    len: usize,
}

/// The in-KB side of one name's model difference: its candidates'
/// keyphrases, with word → phrase postings for the fuzzy match, so a
/// harvested phrase is only compared with the candidate phrases it shares
/// a word with. One subtraction serves every name of a build: each
/// [`Subtraction::prepare`] takes a new stamp, which empties the per-word
/// table without clearing it.
#[derive(Debug, Default)]
struct Subtraction<'k> {
    phrases: Vec<KbPhrase<'k>>,
    /// Phrase indexes grouped by word, each group in phrase order.
    postings: Vec<usize>,
    /// Per KB word id, its group of `postings`.
    table: Vec<Postings>,
    stamp: u32,
    /// The words with postings for the current name.
    words: Vec<WordId>,
    /// Per phrase, the words it shares with the surface being matched.
    shared: Vec<usize>,
    /// Phrases with a non-zero `shared` entry.
    touched: Vec<usize>,
}

impl<'k> Subtraction<'k> {
    /// Takes in the candidates' keyphrases of `name`.
    fn prepare<K: KbView + ?Sized>(&mut self, kb: &'k K, name: &str) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.table.fill(Postings::default());
            self.stamp = 1;
        }
        if self.table.len() < kb.word_count() {
            self.table.resize(kb.word_count(), Postings::default());
        }
        let runs = kb.phrase_runs();
        self.phrases.clear();
        self.phrases.extend(kb.candidates(name).iter().flat_map(|c| {
            kb.keyphrases(c.entity).iter().map(|ep| KbPhrase {
                phrase: ep.phrase,
                words: runs.run(ep.phrase),
                count: ep.count,
            })
        }));
        // Count each word's postings, lay the groups out, then fill them.
        self.words.clear();
        for p in &self.phrases {
            for &w in p.words {
                if let Some(slot) = self.table.get_mut(w.index()) {
                    if slot.stamp != self.stamp {
                        *slot = Postings { stamp: self.stamp, start: 0, len: 0 };
                        self.words.push(w);
                    }
                    slot.len += 1;
                }
            }
        }
        let mut next = 0;
        for w in &self.words {
            if let Some(slot) = self.table.get_mut(w.index()) {
                slot.start = next;
                next += slot.len;
                slot.len = 0;
            }
        }
        self.postings.clear();
        self.postings.resize(next, 0);
        for (i, p) in self.phrases.iter().enumerate() {
            for &w in p.words {
                if let Some(slot) = self.table.get_mut(w.index()) {
                    if let Some(posting) = self.postings.get_mut(slot.start + slot.len) {
                        *posting = i;
                    }
                    slot.len += 1;
                }
            }
        }
        self.shared.clear();
        self.shared.resize(self.phrases.len(), 0);
    }

    /// The candidate count `c` of a harvested phrase with KB word set
    /// `words`: the summed count of the candidate phrases whose lowercased
    /// surface is `surface` (exact), or its fuzzy count if that subtracts
    /// more. Harvested phrases rarely match a KB phrase verbatim
    /// (extraction merges adjacent noun runs), so the subtraction also
    /// discounts phrases whose *words* overlap a candidate phrase heavily
    /// (Jaccard ≥ 0.5) — mirroring the partial matching of the scoring
    /// side.
    fn count<K: KbView + ?Sized>(&mut self, kb: &K, surface: &str, words: &[WordId]) -> f64 {
        for &w in words {
            let Some(slot) = self.table.get(w.index()).filter(|s| s.stamp == self.stamp) else {
                continue;
            };
            for &i in self.postings.get(slot.start..slot.start + slot.len).unwrap_or_default() {
                if let Some(n) = self.shared.get_mut(i) {
                    if *n == 0 {
                        self.touched.push(i);
                    }
                    *n += 1;
                }
            }
        }
        let (mut exact, mut fuzzy) = (0u64, 0.0f64);
        for i in self.touched.drain(..) {
            let (Some(n), Some(p)) = (self.shared.get_mut(i), self.phrases.get(i)) else {
                continue;
            };
            let inter = std::mem::take(n);
            // Both sides split on whitespace and look words up lowercased,
            // so a phrase with the same lowercased surface has the same
            // word set: exact matches are among the phrases sharing every
            // word.
            if inter == words.len()
                && inter == p.words.len()
                && lowercases_to(kb.phrase_surface(p.phrase), surface)
            {
                exact += p.count;
            }
            let union = words.len() + p.words.len() - inter;
            let jaccard = inter as f64 / union as f64;
            if jaccard >= 0.5 {
                fuzzy = fuzzy.max(jaccard * p.count as f64);
            }
        }
        (exact as f64).max(fuzzy)
    }
}

/// One name's harvested counts `b`, dense over the build's surface ids and
/// reused from name to name, with the buffer its model difference sorts.
#[derive(Debug, Default)]
struct Counts {
    counts: Vec<u32>,
    /// The surfaces with a non-zero count.
    seen: Vec<usize>,
    /// `(surface, d)` of the phrases that stay.
    adjusted: Vec<(usize, f64)>,
}

impl Counts {
    fn add(&mut self, surface: usize) {
        if let Some(n) = self.counts.get_mut(surface) {
            if *n == 0 {
                self.seen.push(surface);
            }
            *n += 1;
        }
    }
}

/// The model difference `d = α(b − c)` of one name's global model
/// (Algorithm 2): `b` is the harvested count of a surface (taken out of
/// `counts`, which is left empty) and `c` the in-KB candidates' count from
/// `subtraction`. Keeps the phrases whose `d` reaches
/// `config.min_adjusted_count`, weighted by `d` over the largest; ties of
/// `d` keep the surfaces in text order, by their `rank`.
fn model_difference<K: KbView + ?Sized>(
    kb: &K,
    counts: &mut Counts,
    alpha: f64,
    subtraction: &mut Subtraction<'_>,
    surfaces: &Surfaces,
    rank: &[usize],
    config: &EeModelConfig,
) -> Vec<EePhrase> {
    let Counts { counts, seen, adjusted } = counts;
    adjusted.clear();
    for surface in seen.drain(..) {
        let b = counts.get_mut(surface).map_or(0, std::mem::take);
        let c = subtraction.count(kb, surfaces.text(surface), surfaces.run(surface));
        let d = alpha * (f64::from(b) - c);
        if d >= config.min_adjusted_count {
            adjusted.push((surface, d));
        }
    }
    // Surfaces are distinct, so the order is total.
    let rank_of = |surface: usize| rank.get(surface).copied().unwrap_or(usize::MAX);
    adjusted.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(rank_of(a.0).cmp(&rank_of(b.0))));
    adjusted.truncate(config.max_phrases);
    let max_d = adjusted.first().map_or(1.0, |&(_, d)| d).max(f64::MIN_POSITIVE);
    adjusted
        .iter()
        .filter_map(|&(surface, d)| {
            let words = surfaces.run(surface);
            (!words.is_empty()).then(|| EePhrase {
                surface: surfaces.text(surface).to_owned(),
                words: words.to_vec(),
                weight: (d / max_d).clamp(0.0, 1.0),
            })
        })
        .collect()
}

/// The word ids of a (lowercased) surface, sorted and deduplicated; words
/// `word_id` does not know are dropped ([`Surfaces::intern`] computes the
/// same run once per surface).
#[cfg(test)]
fn kb_words(surface: &str, word_id: impl FnMut(&str) -> Option<WordId>) -> Vec<WordId> {
    let mut words: Vec<WordId> = surface.split_whitespace().filter_map(word_id).collect();
    words.sort_unstable();
    words.dedup();
    words
}

/// Builds the EE model for one name (Algorithm 2), harvesting and
/// subtracting that name alone.
///
/// The per-name reference for [`NameModels::build`], which must equal it
/// bit for bit.
#[cfg(test)]
pub(crate) fn build_model<K: KbView + ?Sized>(
    kb: &K,
    docs: &[&GoldDoc],
    name: &str,
    config: &EeModelConfig,
) -> EeModel {
    let (global, occurrences) = crate::harvest::harvest_name(docs, name);
    if global.is_empty() {
        return EeModel { name: name.to_string(), phrases: Vec::new(), occurrences };
    }
    // Collection-size balance α = |KB entities| / |news documents|.
    let alpha = if docs.is_empty() {
        1.0
    } else {
        (kb.entity_count().max(1) as f64) / (docs.len() as f64)
    };
    // In-KB candidates' keyphrase counts, keyed by lowercased surface, plus
    // their word sets for fuzzy matching.
    let mut kb_counts: HashMap<String, u64> = HashMap::new();
    let mut kb_word_sets: Vec<(Vec<WordId>, u64)> = Vec::new();
    for c in kb.candidates(name) {
        for ep in kb.keyphrases(c.entity) {
            let surface = kb.phrase_surface(ep.phrase).to_lowercase();
            *kb_counts.entry(surface).or_insert(0) += ep.count;
            let mut ws: Vec<WordId> = kb.phrase_words(ep.phrase).to_vec();
            ws.sort_unstable();
            ws.dedup();
            kb_word_sets.push((ws, ep.count));
        }
    }
    let fuzzy_kb_count = |surface: &str| -> f64 {
        let words = kb_words(surface, |w| kb.word_id(w));
        if words.is_empty() {
            return 0.0;
        }
        let mut best = 0.0f64;
        for (ws, count) in &kb_word_sets {
            let inter = sorted_intersection(&words, ws);
            let union = words.len() + ws.len() - inter;
            let jaccard = inter as f64 / union as f64;
            if jaccard >= 0.5 {
                best = best.max(jaccard * *count as f64);
            }
        }
        best
    };
    // Model difference: d = α(b − c), clamped at 0, with `c` the exact or
    // fuzzy candidate count (whichever subtracts more).
    let mut adjusted: Vec<(String, f64)> = global
        .into_iter()
        .filter_map(|(surface, b)| {
            let exact = kb_counts.get(&surface).copied().unwrap_or(0) as f64;
            let c = exact.max(fuzzy_kb_count(&surface));
            let d = alpha * (b as f64 - c);
            (d >= config.min_adjusted_count).then_some((surface, d))
        })
        .collect();
    adjusted.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    adjusted.truncate(config.max_phrases);
    let max_d = adjusted.first().map_or(1.0, |&(_, d)| d).max(f64::MIN_POSITIVE);
    let phrases = adjusted
        .into_iter()
        .filter_map(|(surface, d)| {
            let words = kb_words(&surface, |w| kb.word_id(w));
            if words.is_empty() {
                return None;
            }
            Some(EePhrase { surface, words, weight: (d / max_d).clamp(0.0, 1.0) })
        })
        .collect();
    EeModel { name: name.to_string(), phrases, occurrences }
}

#[cfg(test)]
fn sorted_intersection(a: &[WordId], b: &[WordId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// EE models for every name observed in a document chunk.
#[derive(Debug, Clone, Default)]
pub struct NameModels {
    models: HashMap<String, EeModel>,
}

impl NameModels {
    /// Builds models for all names occurring at least `min_occurrences`
    /// times in `docs` (the per-chunk redundancy requirement of §5.7.2).
    ///
    /// Two passes over the chunk. The harvest groups the mentions by name
    /// in one sort, POS-tags each document once, interns each phrase span
    /// once per document into a per-build arena of lowercased surfaces, and
    /// looks up each new surface's KB word run once. The subtraction then
    /// counts each name's surfaces in a dense array over the surface ids,
    /// indexes the candidates' keyphrase runs by word, and breaks ties with
    /// a surface rank computed once. The result equals, bit for bit,
    /// harvesting and subtracting one name at a time (the test-only
    /// reference `build_model`).
    pub fn build<K: KbView + ?Sized>(
        kb: &K,
        docs: &[&GoldDoc],
        min_occurrences: u64,
        config: &EeModelConfig,
    ) -> Self {
        // Every mention with its name and document, grouped by name; the
        // stable sort keeps each name's mentions in document order.
        let mut mentions: Vec<(&str, usize, &Mention)> = docs
            .iter()
            .enumerate()
            .flat_map(|(d, doc)| {
                doc.mentions.iter().map(move |lm| (lm.mention.surface.as_str(), d, &lm.mention))
            })
            .collect();
        mentions.sort_by(|a, b| a.0.cmp(b.0));
        // Collection-size balance α = |KB entities| / |news documents|.
        let alpha = (kb.entity_count().max(1) as f64) / (docs.len().max(1) as f64);
        let tagger = PosTagger::new();
        let mut tagged: Vec<Option<TaggedDoc<'_>>> = docs.iter().map(|_| None).collect();
        let mut surfaces = Surfaces::default();
        // The surface ids of every kept name's windows: `hits[range]`.
        let mut hits: Vec<usize> = Vec::new();
        let mut names: Vec<(&str, u64, Range<usize>)> = Vec::new();
        for group in mentions.chunk_by(|a, b| a.0 == b.0) {
            let count = group.len() as u64;
            let Some(&(name, _, _)) = group.first().filter(|_| count >= min_occurrences) else {
                continue;
            };
            let start = hits.len();
            for &(_, d, mention) in group {
                if let (Some(doc), Some(slot)) = (docs.get(d), tagged.get_mut(d)) {
                    let doc = slot.get_or_insert_with(|| TaggedDoc::new(&tagger, &doc.tokens));
                    doc.harvest(
                        &tagger,
                        mention,
                        |span| surfaces.intern(kb, span),
                        |id| hits.push(id),
                    );
                }
            }
            names.push((name, count, start..hits.len()));
        }
        let rank = surfaces.ranks();
        let mut counts = Counts { counts: vec![0; surfaces.len()], ..Counts::default() };
        let mut subtraction = Subtraction::default();
        let mut models = HashMap::new();
        for (name, occurrences, range) in names {
            let ids = hits.get(range).unwrap_or_default();
            if ids.is_empty() {
                continue;
            }
            for &id in ids {
                counts.add(id);
            }
            subtraction.prepare(kb, name);
            let phrases = model_difference(
                kb,
                &mut counts,
                alpha,
                &mut subtraction,
                &surfaces,
                &rank,
                config,
            );
            if !phrases.is_empty() {
                let model = EeModel { name: name.to_string(), phrases, occurrences };
                models.insert(model.name.clone(), model);
            }
        }
        NameModels { models }
    }

    /// The model for `name`, if any.
    pub fn get(&self, name: &str) -> Option<&EeModel> {
        self.models.get(name)
    }

    /// Number of modeled names.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// True when no names are modeled.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Inserts a model (for tests and custom pipelines).
    pub fn insert(&mut self, model: EeModel) {
        self.models.insert(model.name.clone(), model);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::harvest::mention_names;
    use ned_eval::gold::LabeledMention;
    use ned_kb::{DeltaKb, EntityKind, FrozenKb, KbBuilder, KbMutation};
    use ned_text::{tokenize, Token, TokenKind};
    use proptest::prelude::*;

    /// The reference for [`NameModels::build`]: [`build_model`] per name.
    fn reference_models<K: KbView + ?Sized>(
        kb: &K,
        docs: &[&GoldDoc],
        min_occurrences: u64,
        config: &EeModelConfig,
    ) -> NameModels {
        let mut models = HashMap::new();
        for (name, count) in mention_names(docs) {
            if count < min_occurrences {
                continue;
            }
            let model = build_model(kb, docs, &name, config);
            if !model.is_empty() {
                models.insert(name, model);
            }
        }
        NameModels { models }
    }

    /// (name, occurrences, [(surface, words, weight bits)]) per model, by name.
    type ModelBits = Vec<(String, u64, Vec<(String, Vec<WordId>, u64)>)>;

    fn bits(models: &NameModels) -> ModelBits {
        let mut out: ModelBits = models
            .models
            .iter()
            .map(|(key, m)| {
                assert_eq!(key, &m.name);
                let phrases = m
                    .phrases
                    .iter()
                    .map(|p| (p.surface.clone(), p.words.clone(), p.weight.to_bits()))
                    .collect();
                (m.name.clone(), m.occurrences, phrases)
            })
            .collect();
        out.sort();
        out
    }

    /// KB knows "Prism" as a band with phrase "progressive rock band"; the
    /// news stream talks about a surveillance program.
    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let band = b.add_entity("Prism (band)", EntityKind::Organization);
        b.add_name(band, "Prism", 10);
        b.add_keyphrase(band, "progressive rock band", 5);
        // Words the harvested phrases will need in the vocabulary.
        let pad = b.add_entity("Pad", EntityKind::Other);
        b.add_keyphrase(pad, "secret surveillance program", 1);
        b.add_keyphrase(pad, "intelligence whistleblower leak", 1);
        FrozenKb::freeze(&b.build())
    }

    fn news_doc(id: &str, text: &str) -> GoldDoc {
        let tokens = tokenize(text);
        let pos = tokens.iter().position(|t| t.text == "Prism").unwrap();
        GoldDoc::new(
            id,
            tokens,
            vec![LabeledMention { mention: Mention::new("Prism", pos, pos + 1), label: None }],
            0,
        )
    }

    fn docs() -> Vec<GoldDoc> {
        vec![
            news_doc("n1", "the secret surveillance program called Prism was revealed"),
            news_doc("n2", "a secret surveillance program and Prism leak shocked everyone"),
            news_doc("n3", "the progressive rock band played before Prism news broke"),
        ]
    }

    #[test]
    fn model_difference_keeps_novel_phrases() {
        let kb = kb();
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let model = build_model(&kb, &refs, "Prism", &EeModelConfig::default());
        assert!(!model.is_empty());
        assert!(
            model.phrases.iter().any(|p| p.surface.contains("surveillance program")),
            "{model:?}"
        );
        assert_eq!(model.occurrences, 3);
    }

    #[test]
    fn model_difference_subtracts_kb_phrases() {
        let kb = kb();
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let model = build_model(&kb, &refs, "Prism", &EeModelConfig::default());
        // "progressive rock band" is a KB phrase of the candidate (count 5 >
        // harvested 1) and must be subtracted away.
        assert!(
            !model.phrases.iter().any(|p| p.surface == "progressive rock band"),
            "{model:?}"
        );
    }

    #[test]
    fn weights_are_normalized() {
        let kb = kb();
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let model = build_model(&kb, &refs, "Prism", &EeModelConfig::default());
        let max = model.phrases.iter().map(|p| p.weight).fold(0.0f64, f64::max);
        assert!((max - 1.0).abs() < 1e-12);
        for p in &model.phrases {
            assert!(p.weight > 0.0 && p.weight <= 1.0);
        }
    }

    #[test]
    fn unknown_name_yields_empty_model() {
        let kb = kb();
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let model = build_model(&kb, &refs, "Nothing", &EeModelConfig::default());
        assert!(model.is_empty());
    }

    #[test]
    fn name_models_respect_min_occurrences() {
        let kb = kb();
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let models = NameModels::build(&kb, &refs, 2, &EeModelConfig::default());
        assert!(models.get("Prism").is_some());
        let strict = NameModels::build(&kb, &refs, 10, &EeModelConfig::default());
        assert!(strict.get("Prism").is_none());
        assert!(strict.is_empty());
    }

    #[test]
    fn max_phrases_truncates_by_weight() {
        let kb = kb();
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let config = EeModelConfig { max_phrases: 1, ..Default::default() };
        let model = build_model(&kb, &refs, "Prism", &config);
        assert_eq!(model.phrases.len(), 1);
        // The kept phrase is the most frequent one.
        assert!(model.phrases[0].surface.contains("surveillance"), "{model:?}");
    }

    #[test]
    fn one_pass_build_matches_the_reference_on_the_fixture() {
        let frozen = kb();
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        for max_phrases in [1, 2, 3000] {
            let config = EeModelConfig { max_phrases, ..Default::default() };
            let built = NameModels::build(&frozen, &refs, 1, &config);
            assert!(built.get("Prism").is_some());
            assert_eq!(bits(&built), bits(&reference_models(&frozen, &refs, 1, &config)));
        }
    }

    #[test]
    fn exact_matches_lowercase_the_kb_surface() {
        // Both candidates of "Prism" carry the capitalized KB phrase
        // "Secret Surveillance Program". Its exact count (2) subtracts more
        // than its fuzzy count (1) only when the KB surface is lowercased
        // before the comparison, and then d = α · (2 − 2) drops the phrase.
        let mut b = KbBuilder::new();
        for name in ["Prism (band)", "Prism (program)"] {
            let e = b.add_entity(name, EntityKind::Other);
            b.add_name(e, "Prism", 5);
            b.add_keyphrase(e, "Secret Surveillance Program", 1);
        }
        let pad = b.add_entity("Pad", EntityKind::Other);
        b.add_keyphrase(pad, "progressive rock band", 1);
        let kb = FrozenKb::freeze(&b.build());
        let docs = docs();
        let refs: Vec<&GoldDoc> = docs.iter().collect();
        let config = EeModelConfig::default();
        let built = NameModels::build(&kb, &refs, 1, &config);
        assert_eq!(bits(&built), bits(&reference_models(&kb, &refs, 1, &config)));
        let model = built.get("Prism").expect("other phrases stay");
        assert!(!model.phrases.iter().any(|p| p.surface == "secret surveillance program"));
    }

    /// Content words; the base KB's keyphrases use only these. Case and
    /// non-ASCII variants exercise the lowercasing on both sides.
    const CONTENT: &[&str] = &[
        "secret", "surveillance", "program", "rock", "band", "famous", "leak", "album", "court",
        "ruling", "market", "energy", "policy", "guitar", "tour", "Rock", "Straße", "ΟΔΟΣ",
        "İzmir",
    ];
    /// Words that only promoted entities bring into the KB.
    const FRESH: &[&str] = &["whistleblower", "metadata", "hearing", "senate"];
    /// Other news tokens: function words, sentence boundaries (`Dr`, `J`,
    /// `.`, `!`, `?`), capitalized words and numbers.
    const OTHER: &[&str] =
        &["the", "of", "and", "was", "Dr", "J", ".", "!", "?", ",", "Senate", "Record", "1976"];
    /// Mention names; the base KB carries the first four.
    const NAMES: &[&str] = &["Prism", "Jaguar", "Mercury", "Orion", "Nova", "Snowden"];

    /// Keyphrases as word-index lists with counts.
    type PhraseSpec = Vec<(Vec<usize>, u64)>;

    fn phrase_strategy(words: usize) -> impl Strategy<Value = PhraseSpec> {
        proptest::collection::vec((proptest::collection::vec(0..words, 1..4), 1u64..6), 0..5)
    }

    fn surface(word_ids: &[usize]) -> String {
        let words: Vec<&str> = word_ids
            .iter()
            .filter_map(|&i| CONTENT.get(i).or_else(|| FRESH.get(i - CONTENT.len())))
            .copied()
            .collect();
        words.join(" ")
    }

    /// One news document: its token slots `(selector, index)` become a
    /// mention of a name when the selector is 0, else a news token.
    fn generated_doc(id: usize, day: u32, slots: &[(usize, usize)]) -> GoldDoc {
        let news: Vec<&str> = CONTENT.iter().chain(FRESH).chain(OTHER).copied().collect();
        let mut tokens = Vec::new();
        let mut mentions = Vec::new();
        let mut offset = 0;
        for (i, &(selector, index)) in slots.iter().enumerate() {
            let text =
                if selector == 0 { NAMES[index % NAMES.len()] } else { news[index % news.len()] };
            let kind = if text.chars().all(|c| c.is_ascii_digit()) {
                TokenKind::Number
            } else if text.chars().all(|c| c.is_ascii_punctuation()) {
                TokenKind::Punct
            } else {
                TokenKind::Word
            };
            tokens.push(Token::new(text, offset, kind));
            offset += text.len() + 1;
            if selector == 0 {
                let mention = Mention::new(text, i, i + 1);
                mentions.push(LabeledMention { mention, label: None });
            }
        }
        GoldDoc::new(format!("n{id}"), tokens, mentions, day)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// `NameModels::build` equals the per-name reference bit for bit, on
        /// a frozen KB and on a delta overlay carrying promoted entities.
        #[test]
        fn one_pass_build_matches_the_per_name_reference(
            entities in proptest::collection::vec(
                (0usize..4, phrase_strategy(CONTENT.len())),
                1..6,
            ),
            promoted in proptest::collection::vec(
                (0usize..NAMES.len(), phrase_strategy(CONTENT.len() + FRESH.len())),
                0..3,
            ),
            news in (
                1u32..7,
                proptest::collection::vec(
                    proptest::collection::vec((0usize..6, 0usize..64), 0..70),
                    1..10,
                ),
            ),
            params in (1u64..4, 0usize..2, 1usize..10),
        ) {
            let mut builder = KbBuilder::new();
            for (i, (name, phrases)) in entities.iter().enumerate() {
                let e = builder.add_entity(&format!("Entity {i}"), EntityKind::Other);
                builder.add_name(e, NAMES[*name], 1 + i as u64);
                for (words, count) in phrases {
                    builder.add_keyphrase(e, &surface(words), *count);
                }
            }
            let frozen = Arc::new(FrozenKb::freeze(&builder.build()));
            let mut mutations = Vec::new();
            for (i, (name, phrases)) in promoted.iter().enumerate() {
                let entity = format!("Emerging {i}");
                mutations.push(KbMutation::AddEntity {
                    canonical_name: entity.clone(),
                    kind: EntityKind::Other,
                });
                mutations.push(KbMutation::AddDictionarySurface {
                    entity: entity.clone(),
                    surface: NAMES[*name].to_string(),
                    count: 2,
                });
                for (words, count) in phrases {
                    mutations.push(KbMutation::AddKeyphrase {
                        entity: entity.clone(),
                        surface: surface(words),
                        count: *count,
                    });
                }
            }
            let delta = DeltaKb::build(Arc::clone(&frozen), mutations).unwrap();
            prop_assert_eq!(delta.delta_entity_count(), promoted.len());

            // A window of `days` days, documents spread over it.
            let (days, slots) = news;
            let docs: Vec<GoldDoc> = slots
                .iter()
                .enumerate()
                .map(|(i, s)| generated_doc(i, 1 + i as u32 % days, s))
                .collect();
            let refs: Vec<&GoldDoc> = docs.iter().collect();
            let (min_occurrences, pick, small) = params;
            let max_phrases = if pick == 0 { small } else { EeModelConfig::default().max_phrases };
            let config = EeModelConfig { max_phrases, ..Default::default() };
            prop_assert_eq!(
                bits(&NameModels::build(&*frozen, &refs, min_occurrences, &config)),
                bits(&reference_models(&*frozen, &refs, min_occurrences, &config))
            );
            prop_assert_eq!(
                bits(&NameModels::build(&delta, &refs, min_occurrences, &config)),
                bits(&reference_models(&delta, &refs, min_occurrences, &config))
            );
        }
    }
}
