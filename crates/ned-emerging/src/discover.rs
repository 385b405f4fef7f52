//! The NED-EE discovery algorithm (Algorithm 3, §5.6) and the
//! score-thresholding baselines of §5.7.2.
//!
//! Emerging entities become first-class citizens: every eligible mention
//! gets an additional *EE placeholder candidate* whose keyphrase model is
//! the Algorithm-2 difference model, and the regular disambiguator decides
//! between in-KB candidates and the placeholder. Mentions with very low
//! confidence are set to EE directly; very high-confidence mentions are
//! fixed to their entity (the `t_l` / `t_u` thresholds of Algorithm 3).

use ned_aida::candidates::CandidateFeatures;
use ned_aida::config::AidaConfig;
use ned_aida::scratch::with_scratch;
use ned_aida::similarity::cover_z_ratio;
use ned_aida::{DisambiguationResult, Disambiguator};
use ned_eval::gold::Label;
use ned_kb::{EntityId, KbView, WordId};
use ned_obs::{names, Counter, Metrics};
use ned_relatedness::Relatedness;
use ned_text::{Mention, Token};

use crate::confidence::ConfAssessor;
use crate::ee_model::{EeModel, NameModels};

/// Sentinel base for EE placeholder entity ids; the placeholder of mention
/// `i` gets id `EE_ID_BASE + i`. Knowledge bases are far smaller than this.
pub const EE_ID_BASE: u32 = 0x8000_0000;

/// The placeholder id of mention `i`.
pub fn ee_id(mention_index: usize) -> EntityId {
    EntityId(EE_ID_BASE + mention_index as u32)
}

/// True if `id` is an EE placeholder.
pub fn is_ee_id(id: EntityId) -> bool {
    id.0 >= EE_ID_BASE
}

/// Converts a chosen entity to a label (`None` = EE / unmapped).
pub fn to_label(entity: Option<EntityId>) -> Label {
    entity.filter(|&e| !is_ee_id(e))
}

/// NED-EE configuration.
#[derive(Debug, Clone)]
pub struct EeConfig {
    /// Mentions with confidence ≤ `lower_threshold` become EE directly
    /// (0.0 disables the stage).
    pub lower_threshold: f64,
    /// Mentions with confidence ≥ `upper_threshold` are fixed to their
    /// entity (1.0 disables the stage).
    pub upper_threshold: f64,
    /// Balance of EE-placeholder scores against in-KB scores (the γ of
    /// §5.6).
    pub gamma: f64,
    /// Use graph coherence in the second pass (EEcoh); otherwise local
    /// similarity only (EEsim).
    pub use_coherence: bool,
    /// Confidence assessor for the threshold stages.
    pub assessor: ConfAssessor,
}

impl Default for EeConfig {
    fn default() -> Self {
        EeConfig {
            lower_threshold: 0.0,
            upper_threshold: 1.0,
            gamma: 0.5,
            use_coherence: false,
            assessor: ConfAssessor::default(),
        }
    }
}

/// Keyphrase-based similarity of an EE model against a mention context
/// (the analogue of Eq. 3.6 for placeholder entities), using IDF keyword
/// weights and the phrase salience weights of the model.
///
/// Each phrase is scored by the Eq. 3.4 kernel the in-KB candidates use
/// ([`cover_z_ratio`]); `EePhrase::words` is sorted and deduplicated, as
/// the kernel requires.
pub fn ee_simscore<K: KbView + ?Sized>(
    kb: &K,
    model: &EeModel,
    context: &[(usize, WordId)],
) -> f64 {
    let weights = kb.weights();
    let idf = |w: WordId| weights.word_idf(w);
    // One worker-local cover scratch serves every phrase of the model.
    with_scratch(|scratch| {
        let mut total = 0.0;
        for phrase in &model.phrases {
            let phrase_mass: f64 = phrase.words.iter().map(|&w| idf(w)).sum();
            if let Some((z, ratio)) =
                cover_z_ratio(context, &phrase.words, phrase_mass, idf, &mut scratch.cover)
            {
                total += phrase.weight * z * ratio * ratio;
            }
        }
        total
    })
}

/// Keyphrase-overlap coherence between an EE model and an in-KB entity:
/// IDF-weighted Jaccard over their keyword sets (the KORE-style coherence
/// the EEcoh variant uses, since link-based coherence cannot cover
/// placeholders).
pub fn ee_entity_coherence<K: KbView + ?Sized>(
    kb: &K,
    model: &EeModel,
    entity: EntityId,
) -> f64 {
    let weights = kb.weights();
    let model_words = model.word_set();
    if model_words.is_empty() {
        return 0.0;
    }
    let entity_words: Vec<WordId> =
        weights.keyword_npmi_row(entity).iter().map(|&(w, _)| w).collect();
    if entity_words.is_empty() {
        return 0.0;
    }
    let mut inter = 0.0;
    let mut union = 0.0;
    let (mut i, mut j) = (0, 0);
    while i < model_words.len() && j < entity_words.len() {
        match model_words[i].cmp(&entity_words[j]) {
            std::cmp::Ordering::Less => {
                union += weights.word_idf(model_words[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                union += weights.word_idf(entity_words[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                let idf = weights.word_idf(model_words[i]);
                inter += idf;
                union += idf;
                i += 1;
                j += 1;
            }
        }
    }
    for &w in &model_words[i..] {
        union += weights.word_idf(w);
    }
    for &w in &entity_words[j..] {
        union += weights.word_idf(w);
    }
    if union <= 0.0 {
        0.0
    } else {
        (inter / union).clamp(0.0, 1.0)
    }
}

/// A relatedness measure extended over EE placeholder ids (Figure 5.1's
/// graph with EE nodes).
pub struct EeAwareRelatedness<'a, K, R> {
    inner: R,
    kb: &'a K,
    /// Per-mention EE model (indexed by `id − EE_ID_BASE`).
    models: Vec<Option<&'a EeModel>>,
}

// Manual Debug: `R` need not be Debug and the borrowed KB would dump the
// whole store.
impl<K, R> std::fmt::Debug for EeAwareRelatedness<'_, K, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EeAwareRelatedness")
            .field("models", &self.models.len())
            .finish_non_exhaustive()
    }
}

impl<K: KbView, R: Relatedness> Relatedness for EeAwareRelatedness<'_, K, R> {
    fn name(&self) -> &'static str {
        "EE-aware"
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        match (is_ee_id(a), is_ee_id(b)) {
            (false, false) => self.inner.relatedness(a, b),
            (true, true) => 0.0,
            (true, false) => self.model_coherence(a, b),
            (false, true) => self.model_coherence(b, a),
        }
    }
}

impl<K: KbView, R> EeAwareRelatedness<'_, K, R> {
    fn model_coherence(&self, ee: EntityId, entity: EntityId) -> f64 {
        let idx = (ee.0 - EE_ID_BASE) as usize;
        match self.models.get(idx).copied().flatten() {
            Some(model) => ee_entity_coherence(self.kb, model, entity),
            None => 0.0,
        }
    }
}

/// The NED-EE discovery pipeline over a base AIDA disambiguator.
pub struct EeDiscovery<'a, K, R> {
    base: &'a Disambiguator<K, R>,
    models: &'a NameModels,
    config: EeConfig,
    linked: Counter,
    emerging: Counter,
}

// Manual Debug: `R` need not be Debug.
impl<K, R> std::fmt::Debug for EeDiscovery<'_, K, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EeDiscovery")
            .field("base", &self.base)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'a, K: KbView, R: Relatedness> EeDiscovery<'a, K, R> {
    /// Creates the pipeline.
    pub fn new(base: &'a Disambiguator<K, R>, models: &'a NameModels, config: EeConfig) -> Self {
        EeDiscovery {
            base,
            models,
            config,
            linked: Counter::disabled(),
            emerging: Counter::disabled(),
        }
    }

    /// Records the linked/emerging outcome counters into `metrics`
    /// (builder style). The base disambiguator's own pipeline counters are
    /// configured separately via [`Disambiguator::with_metrics`]; the
    /// internal second pass stays unmetered so per-document totals are not
    /// double-counted.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        self.linked = metrics.counter(names::EE_MENTIONS_LINKED);
        self.emerging = metrics.counter(names::EE_MENTIONS_EMERGING);
        self
    }

    /// Runs Algorithm 3 and returns the final labels (`None` = EE) plus the
    /// full second-pass result.
    pub fn discover(
        &self,
        tokens: &[Token],
        mentions: &[Mention],
    ) -> (Vec<Label>, DisambiguationResult) {
        let kb = self.base.kb();
        let features = self.base.features(tokens, mentions);
        let initial = self.base.disambiguate_features(&features);
        let confidences = self.config.assessor.assess(self.base, &features, &initial);

        // Per-mention stage decisions + extended candidate lists.
        let mut forced_ee = vec![false; mentions.len()];
        let mut extended: Vec<Vec<CandidateFeatures>> = Vec::with_capacity(mentions.len());
        let mut mention_models: Vec<Option<&EeModel>> = vec![None; mentions.len()];
        let context = ned_aida::context::DocumentContext::build(kb, tokens);
        for (i, mention) in mentions.iter().enumerate() {
            let f = &features[i];
            if f.is_empty() {
                // Trivially out-of-KB: no dictionary candidates at all.
                forced_ee[i] = true;
                extended.push(Vec::new());
                continue;
            }
            if confidences[i] <= self.config.lower_threshold {
                forced_ee[i] = true;
                extended.push(Vec::new());
                continue;
            }
            if confidences[i] >= self.config.upper_threshold {
                // Fixed: only the chosen candidate survives.
                let chosen = initial.assignments[i].entity;
                extended.push(
                    f.iter().filter(|c| Some(c.entity) == chosen).copied().collect(),
                );
                continue;
            }
            // Middle band: add the EE placeholder candidate.
            let mut list: Vec<CandidateFeatures> = f.clone();
            if let Some(model) = self.models.get(&mention.surface) {
                let mention_ctx = context.for_mention(mention);
                let raw = ee_simscore(kb, model, &mention_ctx);
                list.push(CandidateFeatures {
                    entity: ee_id(i),
                    prior: 0.0,
                    sim: self.config.gamma * raw,
                    sim_normalized: 0.0,
                });
                mention_models[i] = Some(model);
            }
            // Re-normalize similarities over the extended candidate set.
            let max_sim = list.iter().map(|c| c.sim).fold(0.0f64, f64::max);
            for c in &mut list {
                c.sim_normalized = if max_sim > 0.0 { c.sim / max_sim } else { 0.0 };
            }
            extended.push(list);
        }

        // Second pass with EE-aware relatedness.
        let rel = EeAwareRelatedness {
            inner: self.base.relatedness(),
            kb,
            models: mention_models,
        };
        let mut config: AidaConfig = self.base.config().clone();
        config.use_coherence = self.config.use_coherence;
        let second = Disambiguator::new(kb, rel, config);
        let result = second.disambiguate_features(&extended);

        let labels: Vec<Label> = result
            .assignments
            .iter()
            .enumerate()
            .map(|(i, a)| if forced_ee[i] { None } else { to_label(a.entity) })
            .collect();
        for label in &labels {
            match label {
                Some(_) => self.linked.inc(),
                None => self.emerging.inc(),
            }
        }
        (labels, result)
    }
}

/// Score-thresholding EE baseline (the state-of-the-art approach NED-EE is
/// compared against): a mention becomes EE when its confidence falls below
/// a threshold.
#[derive(Debug, Clone, Copy)]
pub struct ThresholdEe {
    /// The cutoff.
    pub threshold: f64,
}

impl ThresholdEe {
    /// Creates the baseline.
    pub fn new(threshold: f64) -> Self {
        ThresholdEe { threshold }
    }

    /// Applies the threshold to a result with per-mention confidences.
    pub fn apply(&self, result: &DisambiguationResult, confidences: &[f64]) -> Vec<Label> {
        assert_eq!(result.assignments.len(), confidences.len());
        result
            .assignments
            .iter()
            .zip(confidences)
            .map(|(a, &c)| if c < self.threshold { None } else { to_label(a.entity) })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ee_model::{EePhrase, NameModels};
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_relatedness::MilneWitten;
    use ned_text::tokenize;

    /// KB: "Prism" is a band. The text talks about a surveillance program —
    /// evidence for an emerging entity under the same name.
    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let band = b.add_entity("Prism (band)", EntityKind::Organization);
        b.add_name(band, "Prism", 10);
        b.add_keyphrase(band, "progressive rock band", 5);
        b.add_keyphrase(band, "stadium tour", 2);
        let gov = b.add_entity("US Government", EntityKind::Organization);
        b.add_name(gov, "Washington", 20);
        b.add_keyphrase(gov, "federal agency budget", 4);
        b.add_keyphrase(gov, "secret surveillance", 2);
        FrozenKb::freeze(&b.build())
    }

    fn model(kb: &FrozenKb) -> NameModels {
        let words = |s: &str| -> Vec<WordId> {
            let mut w: Vec<WordId> =
                s.split_whitespace().filter_map(|x| kb.word_id(x)).collect();
            w.sort_unstable();
            w.dedup();
            w
        };
        let mut models = NameModels::default();
        models.insert(EeModel {
            name: "Prism".into(),
            phrases: vec![
                EePhrase {
                    surface: "secret surveillance".into(),
                    words: words("secret surveillance"),
                    weight: 1.0,
                },
                EePhrase {
                    surface: "federal agency".into(),
                    words: words("federal agency"),
                    weight: 0.6,
                },
            ],
            occurrences: 5,
        });
        models
    }

    #[test]
    fn ee_wins_on_novel_context() {
        let kb = kb();
        let models = model(&kb);
        let aida =
            Disambiguator::new(&kb, MilneWitten::new(&kb), ned_aida::AidaConfig::sim_only());
        let ee = EeDiscovery::new(&aida, &models, EeConfig::default());
        let tokens = tokenize("the secret surveillance program Prism was revealed");
        let mentions = vec![Mention::new("Prism", 3, 4)];
        let (labels, _) = ee.discover(&tokens, &mentions);
        assert_eq!(labels, vec![None], "novel context must map to EE");
    }

    #[test]
    fn in_kb_entity_wins_on_matching_context() {
        let kb = kb();
        let models = model(&kb);
        let aida =
            Disambiguator::new(&kb, MilneWitten::new(&kb), ned_aida::AidaConfig::sim_only());
        let ee = EeDiscovery::new(&aida, &models, EeConfig::default());
        let tokens = tokenize("the progressive rock band Prism started a stadium tour");
        let mentions = vec![Mention::new("Prism", 4, 5)];
        let (labels, _) = ee.discover(&tokens, &mentions);
        assert_eq!(labels, vec![kb.entity_by_name("Prism (band)")]);
    }

    #[test]
    fn unknown_surface_is_trivially_ee() {
        let kb = kb();
        let models = model(&kb);
        let aida =
            Disambiguator::new(&kb, MilneWitten::new(&kb), ned_aida::AidaConfig::sim_only());
        let ee = EeDiscovery::new(&aida, &models, EeConfig::default());
        let tokens = tokenize("Snowden spoke");
        let mentions = vec![Mention::new("Snowden", 0, 1)];
        let (labels, _) = ee.discover(&tokens, &mentions);
        assert_eq!(labels, vec![None]);
    }

    #[test]
    fn gamma_zero_disables_ee() {
        let kb = kb();
        let models = model(&kb);
        let aida =
            Disambiguator::new(&kb, MilneWitten::new(&kb), ned_aida::AidaConfig::sim_only());
        let config = EeConfig { gamma: 0.0, ..Default::default() };
        let ee = EeDiscovery::new(&aida, &models, config);
        let tokens = tokenize("the secret surveillance program Prism was revealed");
        let mentions = vec![Mention::new("Prism", 3, 4)];
        let (labels, _) = ee.discover(&tokens, &mentions);
        assert_eq!(labels, vec![kb.entity_by_name("Prism (band)")]);
    }

    #[test]
    fn threshold_baseline_cuts_low_confidence() {
        let kb = kb();
        let aida =
            Disambiguator::new(&kb, MilneWitten::new(&kb), ned_aida::AidaConfig::sim_only());
        let tokens = tokenize("the progressive rock band Prism played");
        let mentions = vec![Mention::new("Prism", 4, 5)];
        let features = aida.features(&tokens, &mentions);
        let result = aida.disambiguate_features(&features);
        let high = ThresholdEe::new(0.99).apply(&result, &[0.5]);
        assert_eq!(high, vec![None]);
        let low = ThresholdEe::new(0.1).apply(&result, &[0.5]);
        assert_eq!(low, vec![kb.entity_by_name("Prism (band)")]);
    }

    #[test]
    fn ee_entity_coherence_prefers_overlapping_entities() {
        let kb = kb();
        let models = model(&kb);
        let m = models.get("Prism").unwrap();
        let gov = kb.entity_by_name("US Government").unwrap();
        let band = kb.entity_by_name("Prism (band)").unwrap();
        // The model shares "secret surveillance"/"federal agency" words with
        // the government, nothing with the band.
        assert!(ee_entity_coherence(&kb, m, gov) > ee_entity_coherence(&kb, m, band));
    }

    #[test]
    fn outcome_counters_split_linked_and_emerging() {
        use ned_obs::{names, Metrics};
        let kb = kb();
        let models = model(&kb);
        let metrics = Metrics::new();
        let aida =
            Disambiguator::new(&kb, MilneWitten::new(&kb), ned_aida::AidaConfig::sim_only());
        let ee = EeDiscovery::new(&aida, &models, EeConfig::default())
            .with_metrics(&metrics);
        let tokens = tokenize("the secret surveillance program Prism was revealed");
        ee.discover(&tokens, &[Mention::new("Prism", 3, 4)]);
        let tokens = tokenize("the progressive rock band Prism started a stadium tour");
        ee.discover(&tokens, &[Mention::new("Prism", 4, 5)]);
        assert_eq!(metrics.counter_value(names::EE_MENTIONS_EMERGING), 1);
        assert_eq!(metrics.counter_value(names::EE_MENTIONS_LINKED), 1);
    }

    #[test]
    fn sentinel_ids_do_not_collide() {
        assert!(is_ee_id(ee_id(0)));
        assert!(is_ee_id(ee_id(1000)));
        assert!(!is_ee_id(EntityId(0)));
        assert_eq!(to_label(Some(ee_id(3))), None);
        assert_eq!(to_label(Some(EntityId(7))), Some(EntityId(7)));
        assert_eq!(to_label(None), None);
    }

    /// A KB whose keyphrase words recur across entities, so their IDF
    /// weights differ.
    fn ee_kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let band = b.add_entity("Prism (band)", EntityKind::Organization);
        b.add_keyphrase(band, "progressive rock band", 5);
        b.add_keyphrase(band, "stadium tour", 2);
        let gov = b.add_entity("US Government", EntityKind::Organization);
        b.add_keyphrase(gov, "federal agency budget", 4);
        b.add_keyphrase(gov, "secret surveillance", 2);
        let fest = b.add_entity("Rock Festival", EntityKind::Other);
        b.add_keyphrase(fest, "rock stadium", 3);
        b.add_keyphrase(fest, "summer tour", 1);
        let agency = b.add_entity("Agency X", EntityKind::Organization);
        b.add_keyphrase(agency, "secret agency", 2);
        FrozenKb::freeze(&b.build())
    }

    /// `ee_simscore` result bits on fixed models and contexts, pinned: the
    /// contexts repeat words, miss a phrase word ("budget" in the first),
    /// are empty, or match no phrase of the model.
    #[test]
    fn ee_simscore_bits_are_pinned() {
        let kb = ee_kb();
        let id = |w: &str| kb.word_id(w).unwrap();
        let phrase = |surface: &str, weight: f64| {
            let mut words: Vec<WordId> = surface.split_whitespace().map(id).collect();
            words.sort_unstable();
            words.dedup();
            EePhrase { surface: surface.into(), words, weight }
        };
        let models = [
            EeModel {
                name: "Prism".into(),
                phrases: vec![
                    phrase("secret surveillance", 1.0),
                    phrase("federal agency budget", 0.6),
                    phrase("summer tour", 0.25),
                ],
                occurrences: 4,
            },
            EeModel {
                name: "Tour".into(),
                phrases: vec![
                    phrase("stadium tour", 0.8),
                    phrase("progressive rock band", 0.45),
                    phrase("rock", 0.3),
                ],
                occurrences: 2,
            },
        ];
        let context = |words: &[(usize, &str)]| -> Vec<(usize, WordId)> {
            words.iter().map(|&(pos, w)| (pos, id(w))).collect()
        };
        let contexts = [
            context(&[
                (0, "secret"),
                (1, "surveillance"),
                (4, "agency"),
                (9, "federal"),
                (12, "secret"),
                (15, "tour"),
            ]),
            context(&[
                (2, "stadium"),
                (3, "stadium"),
                (7, "tour"),
                (8, "rock"),
                (20, "band"),
                (21, "tour"),
                (30, "progressive"),
            ]),
            Vec::new(),
            context(&[(0, "summer"), (5, "summer"), (6, "budget")]),
        ];
        let bits: Vec<u64> = models
            .iter()
            .flat_map(|m| contexts.iter().map(move |c| (m, c)))
            .map(|(m, c)| ee_simscore(&kb, m, c).to_bits())
            .collect();
        // Model-major: (Prism, Tour) × the four contexts.
        assert_eq!(
            bits,
            [
                0x3ff1_98b0_9546_c510,
                0x3f9c_71c7_1c71_c71c,
                0x0000_0000_0000_0000,
                0x3fca_829d_ec6e_230b,
                0x3fc9_9999_9999_999a,
                0x3fe5_b7df_f1c0_c776,
                0x0000_0000_0000_0000,
                0x0000_0000_0000_0000,
            ]
        );
    }
}
