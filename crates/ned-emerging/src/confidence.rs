//! Disambiguation-confidence assessment (§5.4).
//!
//! Three techniques, each producing a per-mention confidence in [0, 1]:
//!
//! - **Score normalization** (§5.4.1): the chosen entity's share of the
//!   total candidate score mass.
//! - **Mention perturbation** (§5.4.2): re-run NED on random subsets of the
//!   mentions; confidence = fraction of runs in which the original entity
//!   is chosen again.
//! - **Entity perturbation** (§5.4.3): force random subsets of the *other*
//!   mentions onto alternate (incorrect) entities and re-run; confidence =
//!   stability of the original choice.
//!
//! The combined **CONF** measure of §5.7.1 is the mean of the normalized
//! weighted-degree score and the entity-perturbation stability.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use ned_aida::candidates::CandidateFeatures;
use ned_aida::{DisambiguationResult, Disambiguator};
use ned_kb::KbView;
use ned_relatedness::Relatedness;

/// Which confidence assessor to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfidenceMethod {
    /// Normalized final score only.
    Normalized,
    /// Mention-perturbation stability only.
    PerturbMentions,
    /// Entity-perturbation stability only.
    PerturbEntities,
    /// CONF: mean of normalized score and entity-perturbation stability.
    Conf,
}

/// Confidence assessor configuration.
#[derive(Debug, Clone)]
pub struct ConfAssessor {
    /// The technique.
    pub method: ConfidenceMethod,
    /// Number of perturbation iterations (the thesis used ~500; 64 is
    /// plenty at our scale and keeps the harness fast).
    pub iterations: usize,
    /// Fraction of mentions perturbed per iteration.
    pub perturb_fraction: f64,
    /// Seed for the perturbation sampling.
    pub seed: u64,
}

impl Default for ConfAssessor {
    fn default() -> Self {
        ConfAssessor {
            method: ConfidenceMethod::Conf,
            iterations: 64,
            perturb_fraction: 0.3,
            seed: 0xc0_4f,
        }
    }
}

impl ConfAssessor {
    /// Creates an assessor for `method` with default sampling parameters.
    pub fn new(method: ConfidenceMethod) -> Self {
        ConfAssessor { method, ..Default::default() }
    }

    /// Assesses the confidence of every mention's assignment.
    ///
    /// `features` are the per-mention candidate features the result was
    /// computed from (via [`Disambiguator::features`]); the perturbation
    /// assessors re-run [`Disambiguator::disambiguate_features`] on
    /// modified copies.
    pub fn assess<K: KbView, R: Relatedness>(
        &self,
        aida: &Disambiguator<K, R>,
        features: &[Vec<CandidateFeatures>],
        result: &DisambiguationResult,
    ) -> Vec<f64> {
        match self.method {
            ConfidenceMethod::Normalized => normalized_confidence(result),
            ConfidenceMethod::PerturbMentions => self.perturb_mentions(aida, features, result),
            ConfidenceMethod::PerturbEntities => self.perturb_entities(aida, features, result),
            ConfidenceMethod::Conf => {
                let norm = normalized_confidence(result);
                let perturb = self.perturb_entities(aida, features, result);
                norm.iter().zip(perturb).map(|(n, p)| 0.5 * n + 0.5 * p).collect()
            }
        }
    }

    /// §5.4.2: drop random mention subsets and count choice stability.
    fn perturb_mentions<K: KbView, R: Relatedness>(
        &self,
        aida: &Disambiguator<K, R>,
        features: &[Vec<CandidateFeatures>],
        result: &DisambiguationResult,
    ) -> Vec<f64> {
        let m = features.len();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut chosen_counts = vec![0u32; m];
        let mut present_counts = vec![0u32; m];
        if m == 0 {
            return Vec::new();
        }
        for _ in 0..self.iterations {
            // Random subset: each mention kept with probability
            // 1 − perturb_fraction, at least one kept.
            let kept: Vec<usize> =
                (0..m).filter(|_| rng.random::<f64>() >= self.perturb_fraction).collect();
            if kept.is_empty() {
                continue;
            }
            let sub_features: Vec<Vec<CandidateFeatures>> =
                kept.iter().map(|&i| features[i].clone()).collect();
            let sub_result = aida.disambiguate_features(&sub_features);
            for (k, &orig_idx) in kept.iter().enumerate() {
                present_counts[orig_idx] += 1;
                if sub_result.assignments[k].entity == result.assignments[orig_idx].entity {
                    chosen_counts[orig_idx] += 1;
                }
            }
        }
        stability(&chosen_counts, &present_counts)
    }

    /// §5.4.3: force random subsets of mentions onto alternate entities and
    /// count the stability of the remaining assignments.
    fn perturb_entities<K: KbView, R: Relatedness>(
        &self,
        aida: &Disambiguator<K, R>,
        features: &[Vec<CandidateFeatures>],
        result: &DisambiguationResult,
    ) -> Vec<f64> {
        let m = features.len();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed);
        let mut chosen_counts = vec![0u32; m];
        let mut present_counts = vec![0u32; m];
        if m == 0 {
            return Vec::new();
        }
        for _ in 0..self.iterations {
            let mut perturbed = vec![false; m];
            for (i, p) in perturbed.iter_mut().enumerate() {
                // Only mentions with an alternative can be force-mapped.
                *p = features[i].len() >= 2 && rng.random::<f64>() < self.perturb_fraction;
            }
            if perturbed.iter().all(|&p| p) {
                continue;
            }
            let forced: Vec<Vec<CandidateFeatures>> = features
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    if !perturbed[i] {
                        return f.clone();
                    }
                    // Force-map to an alternate candidate, sampled uniformly
                    // among the non-chosen ones.
                    let original = result.assignments[i].entity;
                    let alternates: Vec<&CandidateFeatures> =
                        f.iter().filter(|c| Some(c.entity) != original).collect();
                    let pick = alternates[rng.random_range(0..alternates.len())];
                    vec![*pick]
                })
                .collect();
            let sub_result = aida.disambiguate_features(&forced);
            for i in 0..m {
                if perturbed[i] {
                    continue;
                }
                present_counts[i] += 1;
                if sub_result.assignments[i].entity == result.assignments[i].entity {
                    chosen_counts[i] += 1;
                }
            }
        }
        stability(&chosen_counts, &present_counts)
    }
}

/// §5.4.1: per-mention normalized score of the chosen entity.
pub fn normalized_confidence(result: &DisambiguationResult) -> Vec<f64> {
    result.assignments.iter().map(|a| a.normalized_score()).collect()
}

fn stability(chosen: &[u32], present: &[u32]) -> Vec<f64> {
    chosen
        .iter()
        .zip(present)
        .map(|(&c, &p)| if p == 0 { 0.0 } else { f64::from(c) / f64::from(p) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_aida::AidaConfig;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_relatedness::MilneWitten;
    use ned_text::{tokenize, Mention};

    /// KB with one clear-cut mention ("Gibson" with strong context) and one
    /// genuinely uncertain mention ("Page" with no context and a flat
    /// prior).
    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let gibson = b.add_entity("Gibson Les Paul", EntityKind::Other);
        let jimmy = b.add_entity("Jimmy Page", EntityKind::Person);
        let larry = b.add_entity("Larry Page", EntityKind::Person);
        b.add_name(gibson, "Gibson", 100);
        b.add_name(jimmy, "Page", 50);
        b.add_name(larry, "Page", 50);
        b.add_keyphrase(gibson, "electric guitar", 5);
        b.add_keyphrase(jimmy, "hard rock", 3);
        b.add_keyphrase(larry, "search engine", 3);
        FrozenKb::freeze(&b.build())
    }

    fn setup(
        kb: &FrozenKb,
    ) -> (Disambiguator<&FrozenKb, MilneWitten<&FrozenKb>>, Vec<f64>, Vec<f64>) {
        let aida = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::r_prior_sim());
        let tokens = tokenize("the electric guitar by Gibson was played by Page");
        let mentions = vec![Mention::new("Gibson", 4, 5), Mention::new("Page", 9, 10)];
        let (_, features) = aida.features(&tokens, &mentions);
        let result = aida.disambiguate_features(&features);
        let norm = ConfAssessor::new(ConfidenceMethod::Normalized).assess(&aida, &features, &result);
        let conf = ConfAssessor::new(ConfidenceMethod::Conf).assess(&aida, &features, &result);
        (aida, norm, conf)
    }

    #[test]
    fn confident_mention_scores_higher_than_uncertain() {
        let kb = kb();
        let (_aida, norm, conf) = setup(&kb);
        // "Gibson" (unambiguous, matching context) ≫ "Page" (flat prior,
        // no context).
        assert!(norm[0] > norm[1], "norm {norm:?}");
        assert!(conf[0] > conf[1], "conf {conf:?}");
    }

    #[test]
    fn confidences_are_in_unit_interval() {
        let kb = kb();
        let (_a, norm, conf) = setup(&kb);
        for v in norm.iter().chain(&conf) {
            assert!((0.0..=1.0).contains(v), "{v}");
        }
    }

    #[test]
    fn unambiguous_single_candidate_is_fully_confident() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::r_prior_sim());
        let tokens = tokenize("electric guitar Gibson");
        let mentions = vec![Mention::new("Gibson", 2, 3)];
        let (_, features) = aida.features(&tokens, &mentions);
        let result = aida.disambiguate_features(&features);
        let conf = ConfAssessor::new(ConfidenceMethod::Normalized).assess(&aida, &features, &result);
        assert!((conf[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn assessment_is_deterministic() {
        let kb = kb();
        let (_a, _n, c1) = setup(&kb);
        let (_a2, _n2, c2) = setup(&kb);
        assert_eq!(c1, c2);
    }

    #[test]
    fn perturb_mentions_runs() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::r_prior_sim());
        let tokens = tokenize("the electric guitar by Gibson was played by Page");
        let mentions = vec![Mention::new("Gibson", 4, 5), Mention::new("Page", 9, 10)];
        let (_, features) = aida.features(&tokens, &mentions);
        let result = aida.disambiguate_features(&features);
        let conf =
            ConfAssessor::new(ConfidenceMethod::PerturbMentions).assess(&aida, &features, &result);
        assert_eq!(conf.len(), 2);
        // Gibson stays stable under any perturbation.
        assert!(conf[0] > 0.9, "{conf:?}");
    }

    #[test]
    fn empty_document_gives_empty_confidence() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::r_prior_sim());
        let result = aida.disambiguate_features(&[]);
        for method in [
            ConfidenceMethod::Normalized,
            ConfidenceMethod::PerturbMentions,
            ConfidenceMethod::PerturbEntities,
            ConfidenceMethod::Conf,
        ] {
            let conf = ConfAssessor::new(method).assess(&aida, &[], &result);
            assert!(conf.is_empty());
        }
    }
}
