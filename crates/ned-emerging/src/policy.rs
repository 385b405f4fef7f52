//! Promotion policy: when does a discovered emerging entity enter the KB?
//!
//! Discovery ([`crate::discover`]) labels mentions as out-of-KB, but §5.6
//! wants more than labels: once an emerging entity has been seen often
//! enough, with enough confidence, it "should be promoted … to a
//! canonicalized entity". This module decides when, and emits the
//! [`KbMutation`] sequence that promotes the entity, so it can be appended
//! to the WAL and served through a [`ned_kb::DeltaKb`] overlay without a
//! rebuild. Existing entity ids are untouched, so gold labels and indexes
//! stay valid.
//!
//! The policy is deliberately simple and deterministic:
//!
//! - **support**: a surface must accumulate at least `min_support`
//!   EE-labeled mentions, and
//! - **confidence**: the mean discovery confidence of those mentions must
//!   reach `min_confidence`,
//! - and the global name model for the surface must be non-empty (there is
//!   distinctive keyphrase evidence to represent the entity with).
//!
//! A promotion is one `AddEntity`, one `AddDictionarySurface` registering
//! the ambiguous surface with the accumulated support as its anchor count
//! (`support.max(1)`), and one `AddKeyphrase` per model phrase, its \[0, 1\]
//! salience scaled to the count `(weight · 5).ceil().max(1)`.

use std::collections::BTreeMap;

use ned_kb::{EntityKind, KbMutation, KbView};
use ned_obs::{names, Metrics};

use crate::ee_model::NameModels;

/// Thresholds deciding when an emerging surface becomes a KB entity.
#[derive(Debug, Clone)]
pub struct PromotionPolicy {
    /// Minimum number of EE-labeled mentions of the surface.
    pub min_support: u64,
    /// Minimum mean discovery confidence over those mentions.
    pub min_confidence: f64,
    /// Kind assigned to promoted entities (there is no type evidence in
    /// the stream, so one coarse class for all promotions).
    pub kind: EntityKind,
}

impl Default for PromotionPolicy {
    fn default() -> Self {
        PromotionPolicy { min_support: 3, min_confidence: 0.5, kind: EntityKind::Other }
    }
}

/// One promotion decision: the mutation sequence that canonicalizes an
/// emerging surface.
#[derive(Debug, Clone)]
pub struct Promotion {
    /// Canonical name of the new entity (`"<surface> (emerging)"`).
    pub canonical_name: String,
    /// The ambiguous surface the entity was discovered under.
    pub surface: String,
    /// EE-labeled mentions accumulated when the promotion fired.
    pub support: u64,
    /// Mean discovery confidence of those mentions.
    pub mean_confidence: f64,
    /// The WAL-ready mutation sequence.
    pub mutations: Vec<KbMutation>,
}

/// Per-surface evidence accumulated by a [`PromotionTracker`].
#[derive(Debug, Clone, Copy, Default)]
struct SurfaceStats {
    mentions: u64,
    confidence_sum: f64,
}

/// Accumulates EE-labeled mention evidence across a document stream and
/// turns it into [`Promotion`]s once the policy thresholds are met.
///
/// Deterministic: surfaces are tracked in a `BTreeMap`, so promotions come
/// out in lexicographic surface order regardless of observation order
/// interleaving.
#[derive(Debug, Default)]
pub struct PromotionTracker {
    stats: BTreeMap<String, SurfaceStats>,
    /// Surfaces already promoted (never re-promoted by this tracker).
    promoted: BTreeMap<String, String>,
}

impl PromotionTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one EE-labeled mention of `surface` with its discovery
    /// confidence (`1 − conf(best in-KB candidate)` or the assessor value
    /// the caller uses for the EE decision).
    pub fn observe_ee(&mut self, surface: &str, confidence: f64) {
        let s = self.stats.entry(surface.to_string()).or_default();
        s.mentions += 1;
        s.confidence_sum += confidence;
    }

    /// EE-labeled mentions recorded so far for `surface`.
    pub fn support(&self, surface: &str) -> u64 {
        self.stats.get(surface).map_or(0, |s| s.mentions)
    }

    /// The canonical name `surface` was promoted under, if it has been.
    pub fn promoted_as(&self, surface: &str) -> Option<&str> {
        self.promoted.get(surface).map(String::as_str)
    }

    /// Number of surfaces promoted so far.
    pub fn promoted_count(&self) -> usize {
        self.promoted.len()
    }

    /// Drains every surface that currently satisfies `policy` into a
    /// [`Promotion`], in lexicographic surface order.
    ///
    /// A surface only qualifies when the global name model has distinctive
    /// phrases for it and the derived canonical name is still free in
    /// `kb`. Promoted surfaces stop accumulating (their evidence is
    /// consumed); unqualified surfaces keep their evidence for later
    /// rounds. Bumps the `ee_promoted` counter once per promotion.
    pub fn drain_promotions<K: KbView + ?Sized>(
        &mut self,
        policy: &PromotionPolicy,
        models: &NameModels,
        kb: &K,
        metrics: &Metrics,
    ) -> Vec<Promotion> {
        let mut out = Vec::new();
        let surfaces: Vec<String> = self
            .stats
            .iter()
            .filter(|(_, s)| s.mentions >= policy.min_support)
            .map(|(surface, _)| surface.clone())
            .collect();
        for surface in surfaces {
            let Some(stats) = self.stats.get(&surface).copied() else { continue };
            let mean_confidence = stats.confidence_sum / stats.mentions as f64;
            if mean_confidence < policy.min_confidence {
                continue;
            }
            let Some(model) = models.get(&surface) else { continue };
            if model.is_empty() {
                continue;
            }
            let canonical_name = format!("{surface} (emerging)");
            if kb.entity_by_name(&canonical_name).is_some() {
                // Already in the KB (e.g. promoted by an earlier overlay the
                // caller now serves): consume the evidence, emit nothing.
                self.stats.remove(&surface);
                self.promoted.insert(surface, canonical_name);
                continue;
            }
            let mut mutations = Vec::with_capacity(2 + model.phrases.len());
            mutations.push(KbMutation::AddEntity {
                canonical_name: canonical_name.clone(),
                kind: policy.kind,
            });
            // The accumulated support is the initial anchor count of the
            // ambiguous name.
            mutations.push(KbMutation::AddDictionarySurface {
                entity: canonical_name.clone(),
                surface: surface.clone(),
                count: stats.mentions.max(1),
            });
            for phrase in &model.phrases {
                // Scale the [0,1] salience back into a small integer count.
                let count = (phrase.weight * 5.0).ceil() as u64;
                mutations.push(KbMutation::AddKeyphrase {
                    entity: canonical_name.clone(),
                    surface: phrase.surface.clone(),
                    count: count.max(1),
                });
            }
            metrics.counter(names::EE_PROMOTED).inc();
            self.stats.remove(&surface);
            self.promoted.insert(surface.clone(), canonical_name.clone());
            out.push(Promotion {
                canonical_name,
                surface,
                support: stats.mentions,
                mean_confidence,
                mutations,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::ee_model::{EeModel, EePhrase};
    use ned_aida::{AidaConfig, Disambiguator, NedMethod};
    use ned_core::NedError;
    use ned_kb::{DeltaKb, FrozenKb, KbBuilder};
    use ned_relatedness::MilneWitten;
    use ned_text::{tokenize, Mention};

    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let band = b.add_entity("Prism (band)", EntityKind::Organization);
        b.add_name(band, "Prism", 10);
        b.add_keyphrase(band, "progressive rock band", 5);
        b.add_keyphrase(band, "secret surveillance program", 1);
        FrozenKb::freeze(&b.build())
    }

    fn models(kb: &FrozenKb) -> NameModels {
        let words = |s: &str| {
            let mut w: Vec<_> = s.split_whitespace().filter_map(|x| kb.word_id(x)).collect();
            w.sort_unstable();
            w.dedup();
            w
        };
        let mut m = NameModels::default();
        m.insert(EeModel {
            name: "Prism".into(),
            phrases: vec![EePhrase {
                surface: "secret surveillance program".into(),
                words: words("secret surveillance program"),
                weight: 0.9,
            }],
            occurrences: 7,
        });
        m
    }

    #[test]
    fn promotion_fires_after_support_and_confidence() {
        let kb = kb();
        let models = models(&kb);
        let policy = PromotionPolicy::default();
        let metrics = Metrics::new();
        let mut tracker = PromotionTracker::new();
        tracker.observe_ee("Prism", 0.8);
        tracker.observe_ee("Prism", 0.7);
        // Below min_support: nothing yet.
        assert!(tracker.drain_promotions(&policy, &models, &kb, &metrics).is_empty());
        tracker.observe_ee("Prism", 0.9);
        let promos = tracker.drain_promotions(&policy, &models, &kb, &metrics);
        assert_eq!(promos.len(), 1);
        let p = &promos[0];
        assert_eq!(p.canonical_name, "Prism (emerging)");
        assert_eq!(p.support, 3);
        assert!(p.mean_confidence > 0.75);
        assert_eq!(p.mutations.len(), 3);
        assert!(matches!(
            &p.mutations[1],
            KbMutation::AddDictionarySurface { count: 3, .. }
        ));
        // (0.9 * 5).ceil() = 5.
        assert!(matches!(&p.mutations[2], KbMutation::AddKeyphrase { count: 5, .. }));
        assert_eq!(metrics.counter_value(names::EE_PROMOTED), 1);
        // Evidence is consumed: no double promotion.
        assert!(tracker.drain_promotions(&policy, &models, &kb, &metrics).is_empty());
        assert_eq!(tracker.promoted_as("Prism"), Some("Prism (emerging)"));
    }

    #[test]
    fn low_confidence_surfaces_keep_their_evidence() {
        let kb = kb();
        let models = models(&kb);
        let policy = PromotionPolicy { min_confidence: 0.9, ..Default::default() };
        let metrics = Metrics::disabled();
        let mut tracker = PromotionTracker::new();
        for _ in 0..5 {
            tracker.observe_ee("Prism", 0.5);
        }
        assert!(tracker.drain_promotions(&policy, &models, &kb, &metrics).is_empty());
        assert_eq!(tracker.support("Prism"), 5);
    }

    #[test]
    fn surfaces_without_model_evidence_never_promote() {
        let kb = kb();
        let models = NameModels::default();
        let policy = PromotionPolicy::default();
        let metrics = Metrics::disabled();
        let mut tracker = PromotionTracker::new();
        for _ in 0..10 {
            tracker.observe_ee("Unmodeled", 1.0);
        }
        assert!(tracker.drain_promotions(&policy, &models, &kb, &metrics).is_empty());
    }

    /// A band called Prism, plus a surveillance-program vocabulary that no
    /// "Prism" candidate carries yet.
    fn prism_kb() -> Arc<FrozenKb> {
        let mut b = KbBuilder::new();
        let band = b.add_entity("Prism (band)", EntityKind::Organization);
        b.add_name(band, "Prism", 10);
        b.add_keyphrase(band, "progressive rock band", 5);
        let pad = b.add_entity("Pad", EntityKind::Other);
        b.add_keyphrase(pad, "secret surveillance program", 1);
        Arc::new(FrozenKb::freeze(&b.build()))
    }

    /// The mutations of every promotion `kb` triggers once "Prism" has
    /// three confident EE mentions.
    fn promote_prism(kb: &FrozenKb) -> Vec<KbMutation> {
        let mut tracker = PromotionTracker::new();
        for _ in 0..3 {
            tracker.observe_ee("Prism", 0.8);
        }
        let promos = tracker.drain_promotions(
            &PromotionPolicy::default(),
            &models(kb),
            kb,
            &Metrics::disabled(),
        );
        promos.into_iter().flat_map(|p| p.mutations).collect()
    }

    #[test]
    fn promoted_entity_wins_its_reading_and_the_band_keeps_its_own() {
        let base = prism_kb();
        let band = base.entity_by_name("Prism (band)").unwrap();
        let delta = DeltaKb::build(Arc::clone(&base), promote_prism(&base)).unwrap();
        let program = delta.entity_by_name("Prism (emerging)").unwrap();
        assert_eq!(delta.entity_count(), base.entity_count() + 1);
        assert_eq!(delta.candidates("Prism").len(), 2);
        // The plain disambiguator resolves the program reading to the new
        // entity — no EE machinery needed any more ...
        let aida = Disambiguator::new(&delta, MilneWitten::new(&delta), AidaConfig::sim_only());
        let tokens = tokenize("the secret surveillance program Prism was debated");
        let labels = aida.disambiguate(&tokens, &[Mention::new("Prism", 3, 4)]).labels();
        assert_eq!(labels[0], Some(program));
        // ... while the band reading still resolves to the band.
        let tokens = tokenize("the progressive rock band Prism played");
        let labels = aida.disambiguate(&tokens, &[Mention::new("Prism", 4, 5)]).labels();
        assert_eq!(labels[0], Some(band));
    }

    #[test]
    fn base_entity_ids_survive_promotion() {
        let base = prism_kb();
        let delta = DeltaKb::build(Arc::clone(&base), promote_prism(&base)).unwrap();
        for e in base.entity_ids() {
            let name = &base.entity(e).canonical_name;
            assert_eq!(delta.entity_by_name(name), Some(e));
            assert_eq!(&delta.entity(e).canonical_name, name);
        }
        let program = delta.entity_by_name("Prism (emerging)").unwrap();
        assert_eq!(program.index(), base.entity_count());
    }

    #[test]
    fn a_taken_canonical_name_is_skipped_by_the_tracker_and_rejected_by_the_overlay() {
        let base = prism_kb();
        let promotion = promote_prism(&base);
        let delta = DeltaKb::build(Arc::clone(&base), promotion.clone()).unwrap();
        // Against a KB that already holds "Prism (emerging)", the tracker
        // consumes the evidence and emits nothing.
        let mut tracker = PromotionTracker::new();
        for _ in 0..3 {
            tracker.observe_ee("Prism", 0.8);
        }
        let promos = tracker.drain_promotions(
            &PromotionPolicy::default(),
            &models(&base),
            &delta,
            &Metrics::disabled(),
        );
        assert!(promos.is_empty());
        assert_eq!(tracker.promoted_as("Prism"), Some("Prism (emerging)"));
        // Replaying the batch twice is a typed error, never a panic.
        let twice: Vec<KbMutation> = promotion.iter().chain(&promotion).cloned().collect();
        let err = DeltaKb::build(base, twice).unwrap_err();
        assert!(matches!(err, NedError::Config { what: "kb mutation", .. }), "{err}");
    }

    #[test]
    fn an_empty_model_is_never_promoted() {
        let kb = kb();
        let mut models = NameModels::default();
        models.insert(EeModel { name: "Prism".into(), phrases: vec![], occurrences: 7 });
        let mut tracker = PromotionTracker::new();
        for _ in 0..5 {
            tracker.observe_ee("Prism", 1.0);
        }
        let policy = PromotionPolicy::default();
        assert!(tracker.drain_promotions(&policy, &models, &kb, &Metrics::disabled()).is_empty());
        assert_eq!(tracker.support("Prism"), 5);
    }

    #[test]
    fn mutations_apply_cleanly_to_a_frozen_base() {
        let kb = kb();
        let models = models(&kb);
        let metrics = Metrics::disabled();
        let mut tracker = PromotionTracker::new();
        for _ in 0..4 {
            tracker.observe_ee("Prism", 0.8);
        }
        let promos =
            tracker.drain_promotions(&PromotionPolicy::default(), &models, &kb, &metrics);
        let base = Arc::new(kb);
        let muts: Vec<KbMutation> =
            promos.into_iter().flat_map(|p| p.mutations).collect();
        let delta = DeltaKb::build(base, muts).unwrap();
        let id = delta.entity_by_name("Prism (emerging)").unwrap();
        assert!(delta.candidates("Prism").iter().any(|c| c.entity == id));
        assert!(!delta.keyphrases(id).is_empty());
    }
}
