//! Re-implementation of Kulkarni et al.'s collective inference \[KSRC09\]
//! (§2.2.2, §3.2).
//!
//! The original models pairwise coherence as a probabilistic factor graph
//! whose MAP inference is NP-hard; the authors fall back to LP-relaxation or
//! **hill-climbing**, which is the variant implemented here. Three
//! configurations match the columns of Table 3.2:
//!
//! - `Kul s`: token-based context similarity only.
//! - `Kul sp`: similarity linearly combined with the popularity prior.
//! - `Kul CI`: `sp` plus collective inference with Milne–Witten coherence,
//!   maximizing `Σ local(m, e_m) + λ Σ MW(e_m, e_m')` by hill climbing.

use ned_kb::{EntityId, KbView};
use ned_relatedness::{MilneWitten, Relatedness};
use ned_text::{Mention, Token};

use crate::baselines::{context_bag, entity_context_cosine};
use crate::context::DocumentContext;
use crate::method::NedMethod;
use crate::result::{DisambiguationResult, MentionAssignment};

/// Which Kulkarni configuration to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KulkarniVariant {
    /// Context similarity only ("Kul s").
    Similarity,
    /// Similarity + prior ("Kul sp").
    SimilarityPrior,
    /// Full collective inference ("Kul CI").
    Collective,
}

impl KulkarniVariant {
    fn label(self) -> &'static str {
        match self {
            KulkarniVariant::Similarity => "Kul s",
            KulkarniVariant::SimilarityPrior => "Kul sp",
            KulkarniVariant::Collective => "Kul CI",
        }
    }
}

/// The Kulkarni et al. baseline.
pub struct Kulkarni<K> {
    kb: K,
    variant: KulkarniVariant,
    /// Weight of the prior in the local score for `sp`/`CI`.
    prior_weight: f64,
    /// Weight of the coherence term for `CI`.
    coherence_weight: f64,
    /// Hill-climbing sweep limit.
    max_sweeps: usize,
}

// Manual Debug: the KB handle would dump the whole store.
impl<K> std::fmt::Debug for Kulkarni<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Kulkarni")
            .field("variant", &self.variant)
            .field("prior_weight", &self.prior_weight)
            .field("coherence_weight", &self.coherence_weight)
            .field("max_sweeps", &self.max_sweeps)
            .finish_non_exhaustive()
    }
}

impl<K: KbView> Kulkarni<K> {
    /// Creates the baseline in the given variant.
    pub fn new(kb: K, variant: KulkarniVariant) -> Self {
        Kulkarni { kb, variant, prior_weight: 0.4, coherence_weight: 0.6, max_sweeps: 50 }
    }

    fn local_scores(
        &self,
        tokens: &[Token],
        mentions: &[Mention],
    ) -> Vec<Vec<(EntityId, f64)>> {
        let ctx = DocumentContext::build(&self.kb, tokens);
        mentions
            .iter()
            .map(|m| {
                let bag = context_bag(&ctx.for_mention(m));
                self.kb
                    .candidates(&m.surface)
                    .iter()
                    .map(|c| {
                        let sim = entity_context_cosine(&self.kb, c.entity, &bag);
                        let score = match self.variant {
                            KulkarniVariant::Similarity => sim,
                            KulkarniVariant::SimilarityPrior | KulkarniVariant::Collective => {
                                self.prior_weight * self.kb.prior(&m.surface, c.entity)
                                    + (1.0 - self.prior_weight) * sim
                            }
                        };
                        (c.entity, score)
                    })
                    .collect()
            })
            .collect()
    }

    /// Hill climbing over the collective objective.
    fn collective_solve(&self, locals: &[Vec<(EntityId, f64)>]) -> Vec<Option<usize>> {
        let mw = MilneWitten::new(&self.kb);
        // Start from local argmax.
        let mut current: Vec<Option<usize>> =
            locals.iter().map(|c| argmax(c)).collect();
        let objective = |assign: &[Option<usize>]| -> f64 {
            let mut total = 0.0;
            for (mi, &a) in assign.iter().enumerate() {
                if let Some(i) = a {
                    total += locals[mi][i].1;
                }
            }
            for (mi, &a) in assign.iter().enumerate() {
                let Some(i) = a else { continue };
                for (mj, &b) in assign.iter().enumerate().skip(mi + 1) {
                    let Some(j) = b else { continue };
                    let (ea, eb) = (locals[mi][i].0, locals[mj][j].0);
                    if ea != eb {
                        total += self.coherence_weight * mw.relatedness(ea, eb);
                    }
                }
            }
            total
        };
        let mut best = objective(&current);
        for _ in 0..self.max_sweeps {
            let mut improved = false;
            for mi in 0..locals.len() {
                if locals[mi].len() < 2 {
                    continue;
                }
                let original = current[mi];
                for i in 0..locals[mi].len() {
                    if Some(i) == original {
                        continue;
                    }
                    current[mi] = Some(i);
                    let obj = objective(&current);
                    if obj > best {
                        best = obj;
                        improved = true;
                    } else {
                        current[mi] = original;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        current
    }
}

fn argmax(cands: &[(EntityId, f64)]) -> Option<usize> {
    (0..cands.len()).max_by(|&a, &b| cands[a].1.total_cmp(&cands[b].1))
}

impl<K: KbView> NedMethod for Kulkarni<K> {
    fn name(&self) -> String {
        self.variant.label().to_string()
    }

    fn disambiguate(&self, tokens: &[Token], mentions: &[Mention]) -> DisambiguationResult {
        let locals = self.local_scores(tokens, mentions);
        let picks: Vec<Option<usize>> = match self.variant {
            KulkarniVariant::Collective => self.collective_solve(&locals),
            _ => locals.iter().map(|c| argmax(c)).collect(),
        };
        let assignments = locals
            .iter()
            .zip(picks)
            .enumerate()
            .map(|(mi, (cands, pick))| match pick {
                Some(i) => {
                    let mut scores = cands.clone();
                    scores.sort_by(|a, b| b.1.total_cmp(&a.1));
                    MentionAssignment {
                        mention_index: mi,
                        entity: Some(cands[i].0),
                        score: cands[i].1,
                        candidate_scores: scores,
                    }
                }
                None => MentionAssignment::unmapped(mi),
            })
            .collect();
        DisambiguationResult::full_fidelity(assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::test_support;

    #[test]
    fn similarity_variant_follows_context() {
        let kb = test_support::kb();
        let (tokens, mentions) = test_support::doc();
        let labels =
            Kulkarni::new(&kb, KulkarniVariant::Similarity).disambiguate(&tokens, &mentions).labels();
        assert_eq!(labels[0], kb.entity_by_name("Kashmir (song)"));
        assert_eq!(labels[1], kb.entity_by_name("Jimmy Page"));
    }

    #[test]
    fn collective_uses_link_coherence() {
        // An unambiguous anchor entity strongly linked to the less popular
        // sense of "Alpha": hill climbing must flip "Alpha" to that sense.
        use ned_kb::{EntityKind, FrozenKb, KbBuilder};
        let mut b = KbBuilder::new();
        let song = b.add_entity("Alpha (song)", EntityKind::Work);
        let city = b.add_entity("Alpha (city)", EntityKind::Location);
        let anchor = b.add_entity("Anchor Band", EntityKind::Organization);
        b.add_name(song, "Alpha", 40);
        b.add_name(city, "Alpha", 60);
        // Many shared in-linkers between song and anchor.
        for i in 0..6 {
            let linker = b.add_entity(&format!("Linker {i}"), EntityKind::Other);
            b.add_link(linker, song);
            b.add_link(linker, anchor);
        }
        let kb = FrozenKb::freeze(&b.build());
        let tokens = ned_text::tokenize("Alpha by Anchor Band");
        let mentions = vec![
            ned_text::Mention::new("Alpha", 0, 1),
            ned_text::Mention::new("Anchor Band", 2, 4),
        ];
        let ci = Kulkarni::new(&kb, KulkarniVariant::Collective);
        let labels = ci.disambiguate(&tokens, &mentions).labels();
        assert_eq!(labels[0], kb.entity_by_name("Alpha (song)"));
        assert_eq!(labels[1], kb.entity_by_name("Anchor Band"));
        // Sanity: without coherence the prior would pick the city.
        let sp = Kulkarni::new(&kb, KulkarniVariant::SimilarityPrior);
        let sp_labels = sp.disambiguate(&tokens, &mentions).labels();
        assert_eq!(sp_labels[0], kb.entity_by_name("Alpha (city)"));
    }

    #[test]
    fn sp_variant_blends_prior() {
        let kb = test_support::kb();
        // No context: sp reduces to the prior → region wins.
        let tokens = ned_text::tokenize("Kashmir");
        let mentions = vec![ned_text::Mention::new("Kashmir", 0, 1)];
        let labels = Kulkarni::new(&kb, KulkarniVariant::SimilarityPrior)
            .disambiguate(&tokens, &mentions)
            .labels();
        assert_eq!(labels[0], kb.entity_by_name("Kashmir (region)"));
    }

    #[test]
    fn variant_names() {
        let kb = test_support::kb();
        assert_eq!(Kulkarni::new(&kb, KulkarniVariant::Similarity).name(), "Kul s");
        assert_eq!(Kulkarni::new(&kb, KulkarniVariant::SimilarityPrior).name(), "Kul sp");
        assert_eq!(Kulkarni::new(&kb, KulkarniVariant::Collective).name(), "Kul CI");
    }

    #[test]
    fn handles_empty_documents() {
        let kb = test_support::kb();
        let r = Kulkarni::new(&kb, KulkarniVariant::Collective).disambiguate(&[], &[]);
        assert!(r.assignments.is_empty());
    }
}
