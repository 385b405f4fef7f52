//! Named-entity classification (NEC, §2.4.4).
//!
//! NEC abstracts over the entity level: instead of resolving "Dylan" to
//! `Bob Dylan`, it labels the mention with its semantic type (person /
//! musician / ...). The thesis describes NEC as a sibling task enabled by
//! the same knowledge base; this implementation classifies a mention by
//! aggregating the type evidence of its disambiguation candidates, weighted
//! by a blend of the popularity prior and the context similarity — the same
//! local features AIDA uses, projected onto the taxonomy.

use ned_kb::taxonomy::Taxonomy;
use ned_kb::{KbView, TypeId};
use ned_text::{Mention, Token};

use crate::candidates::candidate_features;
use crate::config::KeywordWeighting;
use crate::context::DocumentContext;
use crate::obs::PipelineObs;

/// A type prediction with its aggregated evidence mass.
#[derive(Debug, Clone, PartialEq)]
pub struct TypePrediction {
    /// The predicted type.
    pub ty: TypeId,
    /// Normalized evidence in (0, 1]; predictions for one mention sum to 1
    /// over *direct* candidate types.
    pub score: f64,
}

/// Type classifier over a knowledge base and a taxonomy.
pub struct TypeClassifier<'a, K> {
    kb: K,
    taxonomy: &'a Taxonomy,
    /// Weight of the prior against the context similarity.
    prior_weight: f64,
}

// Manual Debug: the KB handle and taxonomy would dump whole stores.
impl<K> std::fmt::Debug for TypeClassifier<'_, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TypeClassifier")
            .field("prior_weight", &self.prior_weight)
            .finish_non_exhaustive()
    }
}

impl<'a, K: KbView> TypeClassifier<'a, K> {
    /// Creates a classifier with the default prior weight (0.5).
    pub fn new(kb: K, taxonomy: &'a Taxonomy) -> Self {
        TypeClassifier { kb, taxonomy, prior_weight: 0.5 }
    }

    /// Overrides the prior/context blend.
    pub fn with_prior_weight(mut self, w: f64) -> Self {
        assert!((0.0..=1.0).contains(&w), "prior weight must be in [0,1]");
        self.prior_weight = w;
        self
    }

    /// Classifies one mention: type scores aggregated over the candidate
    /// entities' *direct* types, sorted descending. Empty when the mention
    /// has no candidates.
    pub fn classify(&self, tokens: &[Token], mention: &Mention) -> Vec<TypePrediction> {
        let ctx = DocumentContext::build(&self.kb, tokens);
        let features = candidate_features(
            &self.kb,
            &mention.surface,
            ctx.mention(mention),
            KeywordWeighting::Npmi,
            &PipelineObs::default(),
        );
        let mut scores: Vec<(TypeId, f64)> = Vec::new();
        for f in &features {
            let weight =
                self.prior_weight * f.prior + (1.0 - self.prior_weight) * f.sim_normalized;
            for &ty in self.taxonomy.direct_types(f.entity) {
                match scores.iter_mut().find(|(t, _)| *t == ty) {
                    Some((_, s)) => *s += weight,
                    None => scores.push((ty, weight)),
                }
            }
        }
        let total: f64 = scores.iter().map(|&(_, s)| s).sum();
        if total <= 0.0 {
            // No evidence at all: fall back to uniform over candidate types.
            let n = scores.len();
            for (_, s) in &mut scores {
                *s = 1.0 / n.max(1) as f64;
            }
        } else {
            for (_, s) in &mut scores {
                *s /= total;
            }
        }
        let mut out: Vec<TypePrediction> =
            scores.into_iter().map(|(ty, score)| TypePrediction { ty, score }).collect();
        out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.ty.cmp(&b.ty)));
        out
    }

    /// Convenience: the single best type, if any.
    pub fn best_type(&self, tokens: &[Token], mention: &Mention) -> Option<TypeId> {
        self.classify(tokens, mention).first().map(|p| p.ty)
    }

    /// True if the mention's evidence supports `ty` (directly or via a
    /// subtype) with at least `min_score` mass.
    pub fn supports(
        &self,
        tokens: &[Token],
        mention: &Mention,
        ty: TypeId,
        min_score: f64,
    ) -> bool {
        self.classify(tokens, mention)
            .iter()
            .filter(|p| self.taxonomy.is_subtype_of(p.ty, ty))
            .map(|p| p.score)
            .sum::<f64>()
            >= min_score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_text::tokenize;

    /// "Dylan" is either the musician (popular) or a city (less popular).
    fn setup() -> (FrozenKb, Taxonomy) {
        let mut b = KbBuilder::new();
        let musician = b.add_entity("Bob Dylan", EntityKind::Person);
        let city = b.add_entity("Dylan Town", EntityKind::Location);
        b.add_name(musician, "Dylan", 80);
        b.add_name(city, "Dylan", 20);
        b.add_keyphrase(musician, "folk singer", 4);
        b.add_keyphrase(musician, "studio album", 3);
        b.add_keyphrase(city, "river harbor", 3);
        b.add_keyphrase(city, "municipal council", 2);
        let kb = FrozenKb::freeze(&b.build());
        let mut tax = Taxonomy::new(kb.entity_count());
        let person = tax.add_type("person");
        let m = tax.add_type("musician");
        tax.add_subclass(m, person).unwrap();
        let location = tax.add_type("location");
        let c = tax.add_type("city");
        tax.add_subclass(c, location).unwrap();
        tax.assign(musician, m).unwrap();
        tax.assign(city, c).unwrap();
        (kb, tax)
    }

    #[test]
    fn context_drives_the_type() {
        let (kb, tax) = setup();
        let clf = TypeClassifier::new(&kb, &tax).with_prior_weight(0.2);
        let tokens = tokenize("the river harbor near Dylan was busy");
        let mention = Mention::new("Dylan", 4, 5);
        let best = clf.best_type(&tokens, &mention).unwrap();
        assert_eq!(tax.name(best), Some("city"));
        // Music context flips it.
        let tokens = tokenize("the folk singer Dylan released a studio album");
        let mention = Mention::new("Dylan", 3, 4);
        let best = clf.best_type(&tokens, &mention).unwrap();
        assert_eq!(tax.name(best), Some("musician"));
    }

    #[test]
    fn prior_dominates_without_context() {
        let (kb, tax) = setup();
        let clf = TypeClassifier::new(&kb, &tax);
        let tokens = tokenize("Dylan appeared");
        let mention = Mention::new("Dylan", 0, 1);
        let best = clf.best_type(&tokens, &mention).unwrap();
        assert_eq!(tax.name(best), Some("musician"));
    }

    #[test]
    fn scores_are_normalized() {
        let (kb, tax) = setup();
        let clf = TypeClassifier::new(&kb, &tax);
        let tokens = tokenize("the folk singer Dylan");
        let mention = Mention::new("Dylan", 3, 4);
        let predictions = clf.classify(&tokens, &mention);
        let total: f64 = predictions.iter().map(|p| p.score).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for w in predictions.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn supports_respects_the_hierarchy() {
        let (kb, tax) = setup();
        let clf = TypeClassifier::new(&kb, &tax);
        let tokens = tokenize("the folk singer Dylan released a studio album");
        let mention = Mention::new("Dylan", 3, 4);
        let person = tax.type_by_name("person").unwrap();
        // "musician" evidence counts toward "person".
        assert!(clf.supports(&tokens, &mention, person, 0.5));
        let location = tax.type_by_name("location").unwrap();
        assert!(!clf.supports(&tokens, &mention, location, 0.5));
    }

    #[test]
    fn overlay_candidate_outside_the_taxonomy_adds_no_type() {
        use ned_kb::{DeltaKb, KbMutation};
        use std::sync::Arc;
        let (kb, tax) = setup();
        let tokens = tokenize("Dylan appeared");
        let mention = Mention::new("Dylan", 0, 1);
        let base =
            TypeClassifier::new(&kb, &tax).with_prior_weight(1.0).classify(&tokens, &mention);
        // An entity promoted after the taxonomy was built, sharing the
        // surface "Dylan" with both base entities.
        let overlay = DeltaKb::build(
            Arc::new(kb),
            vec![
                KbMutation::AddEntity {
                    canonical_name: "Dylan Records".into(),
                    kind: EntityKind::Organization,
                },
                KbMutation::AddDictionarySurface {
                    entity: "Dylan Records".into(),
                    surface: "Dylan".into(),
                    count: 50,
                },
            ],
        )
        .unwrap();
        let promoted = overlay.entity_by_name("Dylan Records").unwrap();
        assert!(overlay.candidates("Dylan").iter().any(|c| c.entity == promoted));
        let grown =
            TypeClassifier::new(&overlay, &tax).with_prior_weight(1.0).classify(&tokens, &mention);
        // The promoted candidate contributes no type; the base entities'
        // evidence keeps its types, order and (renormalized) scores.
        assert_eq!(grown.len(), base.len());
        for (g, b) in grown.iter().zip(&base) {
            assert_eq!(g.ty, b.ty);
            assert!((g.score - b.score).abs() < 1e-12, "{} vs {}", g.score, b.score);
        }
    }

    #[test]
    fn unknown_mention_has_no_prediction() {
        let (kb, tax) = setup();
        let clf = TypeClassifier::new(&kb, &tax);
        let tokens = tokenize("Zorp appeared");
        let mention = Mention::new("Zorp", 0, 1);
        assert!(clf.classify(&tokens, &mention).is_empty());
        assert_eq!(clf.best_type(&tokens, &mention), None);
    }
}
