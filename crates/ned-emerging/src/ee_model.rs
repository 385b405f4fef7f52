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

use std::collections::{BTreeMap, HashMap};

use ned_eval::gold::GoldDoc;
use ned_kb::fx::FxHashMap;
use ned_kb::{KbView, PhraseId, WordId};
use ned_text::{Mention, PosTagger};

use crate::harvest::TaggedDoc;

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

/// The word ids of a (lowercased) surface, sorted and deduplicated; words
/// `word_id` does not know are dropped.
fn kb_words(surface: &str, word_id: impl FnMut(&str) -> Option<WordId>) -> Vec<WordId> {
    let mut words: Vec<WordId> = surface.split_whitespace().filter_map(word_id).collect();
    words.sort_unstable();
    words.dedup();
    words
}

/// Lowercased phrase surfaces harvested in one [`NameModels::build`] call,
/// interned, each with its KB word ids once looked up.
#[derive(Debug, Default)]
struct Surfaces {
    ids: FxHashMap<String, usize>,
    text: Vec<String>,
    words: Vec<Option<Vec<WordId>>>,
    /// The KB id of every word looked up so far.
    word_ids: FxHashMap<String, Option<WordId>>,
}

impl Surfaces {
    fn intern(&mut self, surface: &str) -> usize {
        if let Some(&id) = self.ids.get(surface) {
            return id;
        }
        let id = self.text.len();
        self.ids.insert(surface.to_owned(), id);
        self.text.push(surface.to_owned());
        self.words.push(None);
        id
    }

    fn text(&self, id: usize) -> &str {
        self.text.get(id).map_or("", String::as_str)
    }

    /// Surface `id` and its KB word ids (see [`kb_words`]), memoized.
    fn get<K: KbView + ?Sized>(&mut self, kb: &K, id: usize) -> (&str, &[WordId]) {
        let Surfaces { text, words, word_ids, .. } = self;
        let text = text.get(id).map_or("", String::as_str);
        let Some(slot) = words.get_mut(id) else { return (text, &[]) };
        let words = slot.get_or_insert_with(|| {
            kb_words(text, |w| match word_ids.get(w) {
                Some(&known) => known,
                None => {
                    let known = kb.word_id(w);
                    word_ids.insert(w.to_owned(), known);
                    known
                }
            })
        });
        (text, words)
    }
}

/// One keyphrase of an in-KB candidate, prepared for the subtraction.
#[derive(Debug)]
struct KbPhrase {
    phrase: PhraseId,
    /// Word set (sorted, deduplicated).
    words: Vec<WordId>,
    count: u64,
}

/// The in-KB side of one name's model difference: its candidates'
/// keyphrases, with word → phrase postings for the fuzzy match, so a
/// harvested phrase is only compared with the candidate phrases it shares
/// a word with.
struct Subtraction {
    phrases: Vec<KbPhrase>,
    /// `(word, phrase index)` pairs, sorted.
    postings: Vec<(WordId, usize)>,
    /// Per phrase, the words it shares with the surface being matched.
    shared: Vec<usize>,
    /// Phrases with a non-zero `shared` entry.
    touched: Vec<usize>,
}

impl Subtraction {
    fn new<K: KbView + ?Sized>(kb: &K, name: &str) -> Self {
        let phrases: Vec<KbPhrase> = kb
            .candidates(name)
            .iter()
            .flat_map(|c| kb.keyphrases(c.entity))
            .map(|ep| {
                let mut words = kb.phrase_words(ep.phrase).to_vec();
                words.sort_unstable();
                words.dedup();
                KbPhrase { phrase: ep.phrase, words, count: ep.count }
            })
            .collect();
        let mut postings = Vec::new();
        for (i, p) in phrases.iter().enumerate() {
            postings.extend(p.words.iter().map(|&w| (w, i)));
        }
        postings.sort_unstable();
        let shared = vec![0; phrases.len()];
        Subtraction { phrases, postings, shared, touched: Vec::new() }
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
            let from = self.postings.partition_point(|&(pw, _)| pw < w);
            for &(_, i) in self.postings.iter().skip(from).take_while(|&&(pw, _)| pw == w) {
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
                && kb.phrase_surface(p.phrase).to_lowercase() == surface
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

/// The model difference `d = α(b − c)` of one name's global model
/// (Algorithm 2): `b` is the harvested count of a surface and `c` the in-KB
/// candidates' count from `subtraction`. Keeps the phrases whose `d`
/// reaches `config.min_adjusted_count`, weighted by `d` over the largest.
fn model_difference<K: KbView + ?Sized>(
    kb: &K,
    global: FxHashMap<usize, u64>,
    alpha: f64,
    subtraction: &mut Subtraction,
    surfaces: &mut Surfaces,
    config: &EeModelConfig,
) -> Vec<EePhrase> {
    let mut adjusted: Vec<(usize, f64)> = Vec::new();
    for (surface, b) in global {
        let (text, words) = surfaces.get(kb, surface);
        let c = subtraction.count(kb, text, words);
        let d = alpha * (b as f64 - c);
        if d >= config.min_adjusted_count {
            adjusted.push((surface, d));
        }
    }
    // Surfaces are distinct, so the order is total.
    adjusted.sort_unstable_by(|a, b| {
        b.1.total_cmp(&a.1).then_with(|| surfaces.text(a.0).cmp(surfaces.text(b.0)))
    });
    adjusted.truncate(config.max_phrases);
    let max_d = adjusted.first().map_or(1.0, |&(_, d)| d).max(f64::MIN_POSITIVE);
    adjusted
        .into_iter()
        .filter_map(|(surface, d)| {
            let (text, words) = surfaces.get(kb, surface);
            (!words.is_empty()).then(|| EePhrase {
                surface: text.to_owned(),
                words: words.to_vec(),
                weight: (d / max_d).clamp(0.0, 1.0),
            })
        })
        .collect()
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
    /// One pass over the chunk: mentions are grouped by name in one scan,
    /// each document is POS-tagged once and each of its phrase spans
    /// interned once, and each surface's and word's KB ids are looked up
    /// once per call. The result equals, bit for bit, harvesting and
    /// subtracting one name at a time (the test-only reference
    /// `build_model`).
    pub fn build<K: KbView + ?Sized>(
        kb: &K,
        docs: &[&GoldDoc],
        min_occurrences: u64,
        config: &EeModelConfig,
    ) -> Self {
        let mut by_name: BTreeMap<&str, Vec<(usize, &Mention)>> = BTreeMap::new();
        for (d, doc) in docs.iter().enumerate() {
            for lm in &doc.mentions {
                by_name.entry(lm.mention.surface.as_str()).or_default().push((d, &lm.mention));
            }
        }
        // Collection-size balance α = |KB entities| / |news documents|.
        let alpha = (kb.entity_count().max(1) as f64) / (docs.len().max(1) as f64);
        let tagger = PosTagger::new();
        let mut tagged: Vec<Option<TaggedDoc<'_>>> = docs.iter().map(|_| None).collect();
        let mut surfaces = Surfaces::default();
        let mut models = HashMap::new();
        for (name, occurrences) in by_name {
            let count = occurrences.len() as u64;
            if count < min_occurrences {
                continue;
            }
            let mut global: FxHashMap<usize, u64> = FxHashMap::default();
            for (d, mention) in occurrences {
                if let (Some(doc), Some(slot)) = (docs.get(d), tagged.get_mut(d)) {
                    let doc = slot.get_or_insert_with(|| TaggedDoc::new(&tagger, &doc.tokens));
                    doc.harvest(
                        &tagger,
                        mention,
                        |surface| surfaces.intern(surface),
                        |id| *global.entry(id).or_insert(0) += 1,
                    );
                }
            }
            if global.is_empty() {
                continue;
            }
            let mut subtraction = Subtraction::new(kb, name);
            let phrases =
                model_difference(kb, global, alpha, &mut subtraction, &mut surfaces, config);
            if !phrases.is_empty() {
                let model = EeModel { name: name.to_string(), phrases, occurrences: count };
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
