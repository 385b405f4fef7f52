//! Candidate retrieval and local feature computation.
//!
//! For each mention the dictionary provides candidate entities (§3.3.2; the
//! case rules live in the dictionary itself). Every candidate gets the two
//! local features: popularity prior (§3.3.3) and keyphrase similarity
//! (§3.3.4).

use ned_kb::{EntityId, KbView};

use crate::config::KeywordWeighting;
use crate::context::MentionContext;
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
/// against the mention's `context`.
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
///
/// Each prior is read from the candidate row already fetched: the
/// candidate's count over the row's `u64` count total, the arithmetic of
/// [`KbView::prior`] on the same row (a row lists each entity once), so
/// the surface is not normalized and looked up again per candidate.
pub fn candidate_features<K: KbView + ?Sized>(
    kb: &K,
    surface: &str,
    context: MentionContext<'_>,
    weighting: KeywordWeighting,
    obs: &PipelineObs,
) -> Vec<CandidateFeatures> {
    let cands = kb.candidates(surface);
    obs.candidates_considered.add(cands.len() as u64);
    if cands.is_empty() {
        return Vec::new();
    }
    let total: u64 = cands.iter().map(|c| c.count).sum();
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
                prior: if total == 0 { 0.0 } else { c.count as f64 / total as f64 },
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
    use std::sync::Arc;

    use super::*;
    use crate::context::DocumentContext;
    use ned_kb::{DeltaKb, EntityKind, FrozenKb, KbBuilder, KbMutation};
    use ned_text::{tokenize, Mention};
    use proptest::prelude::*;

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
            ctx.mention(&m),
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
        let empty = DocumentContext::default();
        let feats =
            candidate_features(&kb, "Snowden", empty.excluding(0..0), KeywordWeighting::Npmi, &none);
        assert!(feats.is_empty());
    }

    #[test]
    fn zero_context_gives_zero_normalized_sim() {
        let kb = kb();
        let none = PipelineObs::default();
        let empty = DocumentContext::default();
        let feats =
            candidate_features(&kb, "Kashmir", empty.excluding(0..0), KeywordWeighting::Npmi, &none);
        assert!(feats.iter().all(|f| f.sim == 0.0 && f.sim_normalized == 0.0));
        // Priors still sum to 1 over the candidates.
        let p: f64 = feats.iter().map(|f| f.prior).sum();
        assert!((p - 1.0).abs() < 1e-12);
    }

    /// A name: one or two words of up to three letters, in mixed case, so
    /// short names are matched case-sensitively and longer ones not.
    fn name() -> impl Strategy<Value = String> {
        proptest::collection::vec("[a-cA-C]{1,3}", 1..3).prop_map(|words| words.join(" "))
    }

    /// A surface as a mention would spell a name: leading, trailing and
    /// inner whitespace runs, upper-cased or as written.
    fn spelled(name: &str, pad: usize, flip: bool) -> String {
        let ws = [" ", "  ", "\t", " \n "][pad % 4];
        let body: String = name
            .chars()
            .map(|c| if flip { c.to_ascii_uppercase() } else { c })
            .collect::<String>()
            .replace(' ', ws);
        format!("{ws}{body}{}", if pad < 2 { "" } else { ws })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Each candidate's prior, read from the row `candidates` returned,
        /// equals `KbView::prior` for that surface and entity bit for bit,
        /// on a frozen KB and on an overlay that adds surfaces to existing
        /// rows and new ones.
        #[test]
        fn priors_from_the_row_equal_kb_prior(
            names in proptest::collection::vec((0usize..6, name(), 0u64..50), 1..20),
            added in proptest::collection::vec((0usize..6, name(), 1u64..50), 0..8),
            probes in proptest::collection::vec((name(), 0usize..8, any::<bool>()), 1..12),
        ) {
            let mut b = KbBuilder::new();
            let entities: Vec<EntityId> = (0..6)
                .map(|i| b.add_entity(&format!("Entity {i}"), EntityKind::Other))
                .collect();
            for (e, surface, count) in &names {
                b.add_name(entities[*e], surface, *count);
            }
            let frozen = Arc::new(FrozenKb::freeze(&b.build()));
            let mutations = added
                .iter()
                .map(|(e, surface, count)| KbMutation::AddDictionarySurface {
                    entity: format!("Entity {e}"),
                    surface: surface.clone(),
                    count: *count,
                })
                .collect();
            let overlay = DeltaKb::build(Arc::clone(&frozen), mutations).unwrap();
            let pool: Vec<&String> =
                names.iter().map(|(_, n, _)| n).chain(added.iter().map(|(_, n, _)| n)).collect();
            let empty = DocumentContext::default();
            let backends: [&dyn KbView; 2] = [&*frozen, &overlay];
            for kb in backends {
                for (i, (other, pad, flip)) in probes.iter().enumerate() {
                    // Half the probes spell a known name, half an arbitrary one.
                    let base = if i % 2 == 0 { pool[i % pool.len()] } else { other };
                    let surface = spelled(base, *pad, *flip);
                    let feats = candidate_features(
                        kb,
                        &surface,
                        empty.excluding(0..0),
                        KeywordWeighting::Npmi,
                        &PipelineObs::default(),
                    );
                    prop_assert_eq!(feats.len(), kb.candidates(&surface).len());
                    for f in &feats {
                        prop_assert_eq!(
                            f.prior.to_bits(),
                            kb.prior(&surface, f.entity).to_bits(),
                            "{:?} {:?}",
                            surface,
                            f.entity
                        );
                    }
                }
            }
        }
    }
}
