//! Candidate retrieval and local feature computation.
//!
//! For each mention the dictionary provides candidate entities (§3.3.2; the
//! case rules live in the dictionary itself). Every candidate gets the two
//! local features: popularity prior (§3.3.3) and keyphrase similarity
//! (§3.3.4).

use ned_kb::{EntityId, KbView, WordId};

use crate::config::KeywordWeighting;
use crate::obs::PipelineObs;
use crate::scratch::with_scratch;
use crate::similarity::simscores_batch;

/// Local (per-mention) features of one candidate entity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateFeatures {
    /// The candidate.
    pub entity: EntityId,
    /// Popularity prior p(e | mention).
    pub prior: f64,
    /// Raw keyphrase similarity `simscore(m, e)`.
    pub sim: f64,
    /// Similarity normalized to [0, 1] by the best candidate of this
    /// mention (0 when no candidate matches any context).
    pub sim_normalized: f64,
}

/// Retrieves the candidates of `surface` and computes their local features
/// against `context` (the mention's context words, position-sorted).
///
/// `surface` is the mention's own surface, or — under document-internal
/// mention expansion — a longer co-occurring mention's surface it borrows
/// for candidate retrieval. `obs` counts the candidates considered and the
/// similarity work; pass [`PipelineObs::default`] to count nothing.
///
/// All candidates of the mention are scored in one batched pass over the
/// keyphrase inverted index, in the calling thread's scratch arena — no
/// per-candidate allocation and no fan-out (parallelism splits at the
/// document level, where chunks are coarse enough to pay for themselves).
pub fn candidate_features<K: KbView + ?Sized>(
    kb: &K,
    surface: &str,
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
    obs: &PipelineObs,
) -> Vec<CandidateFeatures> {
    let cands = kb.candidates(surface);
    obs.candidates_considered.add(cands.len() as u64);
    if cands.is_empty() {
        return Vec::new();
    }
    with_scratch(|scratch| {
        simscores_batch(
            kb,
            cands.len(),
            |i| cands[i].entity, // ned-lint: allow(p1) — i < cands.len() by construction
            context,
            weighting,
            &obs.sim,
            scratch,
        );
        let mut features: Vec<CandidateFeatures> = cands
            .iter()
            .zip(scratch.sims())
            .map(|(c, &sim)| CandidateFeatures {
                entity: c.entity,
                prior: kb.prior(surface, c.entity),
                sim,
                sim_normalized: 0.0,
            })
            .collect();
        let max_sim = features.iter().map(|f| f.sim).fold(0.0f64, f64::max);
        if max_sim > 0.0 {
            for f in &mut features {
                f.sim_normalized = f.sim / max_sim;
            }
        }
        features
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DocumentContext;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_text::{tokenize, Mention};

    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let song = b.add_entity("Kashmir (song)", EntityKind::Work);
        let region = b.add_entity("Kashmir (region)", EntityKind::Location);
        b.add_name(song, "Kashmir", 6);
        b.add_name(region, "Kashmir", 94);
        b.add_keyphrase(song, "unusual chords", 2);
        b.add_keyphrase(song, "rock performance", 3);
        b.add_keyphrase(region, "Himalaya mountains", 4);
        FrozenKb::freeze(&b.build())
    }

    #[test]
    fn features_for_ambiguous_mention() {
        let kb = kb();
        let tokens = tokenize("They performed Kashmir with unusual chords.");
        let ctx = DocumentContext::build(&kb, &tokens);
        let m = Mention::new("Kashmir", 2, 3);
        let feats = candidate_features(
            &kb,
            &m.surface,
            &ctx.for_mention(&m),
            KeywordWeighting::Npmi,
            &PipelineObs::default(),
        );
        assert_eq!(feats.len(), 2);
        let song = kb.entity_by_name("Kashmir (song)").unwrap();
        let region = kb.entity_by_name("Kashmir (region)").unwrap();
        let f_song = feats.iter().find(|f| f.entity == song).unwrap();
        let f_region = feats.iter().find(|f| f.entity == region).unwrap();
        // The prior prefers the region; the context prefers the song.
        assert!(f_region.prior > f_song.prior);
        assert!(f_song.sim > f_region.sim);
        assert!((f_song.sim_normalized - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_mention_has_no_candidates() {
        let kb = kb();
        let none = PipelineObs::default();
        let feats = candidate_features(&kb, "Snowden", &[], KeywordWeighting::Npmi, &none);
        assert!(feats.is_empty());
    }

    #[test]
    fn zero_context_gives_zero_normalized_sim() {
        let kb = kb();
        let none = PipelineObs::default();
        let feats = candidate_features(&kb, "Kashmir", &[], KeywordWeighting::Npmi, &none);
        assert!(feats.iter().all(|f| f.sim == 0.0 && f.sim_normalized == 0.0));
        // Priors still sum to 1 over the candidates.
        let p: f64 = feats.iter().map(|f| f.prior).sum();
        assert!((p - 1.0).abs() < 1e-12);
    }
}
