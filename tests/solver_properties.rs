//! Property-based tests of the greedy dense-subgraph solver (Algorithm 1)
//! over randomly generated mention–entity graphs.

use proptest::prelude::*;

use aida_ned::aida::algorithm::{solve, SolverConfig};
use aida_ned::aida::graph::MentionEntityGraph;
use aida_ned::aida::CoherenceTable;
use aida_ned::relatedness::Relatedness;
use aida_ned::kb::EntityId;

/// Deterministic pseudo-relatedness derived from the entity ids.
struct HashRel;

impl Relatedness for HashRel {
    fn name(&self) -> &'static str {
        "hash"
    }
    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        if a == b {
            return 1.0;
        }
        let x = u64::from(a.0.min(b.0)) << 32 | u64::from(a.0.max(b.0));
        let mut h = x.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 33;
        (h % 1000) as f64 / 1000.0
    }
}

/// The graph over `local` with `HashRel` coherence.
fn build(local: &[Vec<(EntityId, f64)>], gamma: f64) -> MentionEntityGraph {
    let table = CoherenceTable::build(&HashRel, local, local);
    MentionEntityGraph::build(local, Some(&table), gamma)
}

/// Strategy: per-mention candidate lists as (entity id, weight) pairs.
fn candidate_lists() -> impl Strategy<Value = Vec<Vec<(EntityId, f64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..40, 0.0f64..1.0), 0..6),
        1..8,
    )
    .prop_map(|mentions| {
        mentions
            .into_iter()
            .map(|cands| {
                let mut list: Vec<(EntityId, f64)> =
                    cands.into_iter().map(|(e, w)| (EntityId(e), w)).collect();
                // Deduplicate entities within one mention (the dictionary
                // never lists a candidate twice).
                list.sort_by_key(|&(e, _)| e);
                list.dedup_by_key(|&mut (e, _)| e);
                list
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The solver always returns exactly one decision per mention, maps
    /// every mention with candidates, and only picks actual candidates.
    #[test]
    fn solver_output_is_a_valid_assignment(local in candidate_lists()) {
        let graph = build(&local, 0.4);
        let solution = solve(&graph, &SolverConfig::default());
        prop_assert_eq!(solution.len(), local.len());
        for (mi, decision) in solution.iter().enumerate() {
            match decision {
                None => prop_assert!(local[mi].is_empty(), "mention {mi} left unmapped"),
                Some(ni) => {
                    let entity = graph.nodes[*ni].entity;
                    prop_assert!(
                        local[mi].iter().any(|&(e, _)| e == entity),
                        "mention {mi} mapped to a non-candidate"
                    );
                }
            }
        }
    }

    /// Determinism: the same graph solves to the same assignment.
    #[test]
    fn solver_is_deterministic(local in candidate_lists()) {
        let graph = build(&local, 0.4);
        let a = solve(&graph, &SolverConfig::default());
        let b = solve(&graph, &SolverConfig::default());
        prop_assert_eq!(a, b);
    }

    /// Aggressive pruning never drops a mention's last candidate: even with
    /// factor 1 every mention with candidates gets an entity.
    #[test]
    fn pruning_preserves_coverage(local in candidate_lists()) {
        let graph = build(&local, 0.5);
        let config = SolverConfig { graph_size_factor: 1, ..SolverConfig::default() };
        let solution = solve(&graph, &config);
        for (mi, decision) in solution.iter().enumerate() {
            prop_assert_eq!(decision.is_none(), local[mi].is_empty());
        }
    }

    /// The exhaustive and local-search post-processing agree on the final
    /// assignment's total weight for small graphs (local search is run by
    /// forcing `exhaustive_limit` to zero).
    #[test]
    fn local_search_matches_exhaustive_weight(local in candidate_lists()) {
        let total = |solution: &[Option<usize>], graph: &MentionEntityGraph| -> f64 {
            let mut t = 0.0;
            let mut chosen: Vec<usize> = Vec::new();
            for (mi, d) in solution.iter().enumerate() {
                if let Some(ni) = d {
                    for &(m, w) in &graph.nodes[*ni].mention_edges {
                        if m == mi {
                            t += w;
                        }
                    }
                    chosen.push(*ni);
                }
            }
            chosen.sort_unstable();
            chosen.dedup();
            for (i, &a) in chosen.iter().enumerate() {
                for &(b, w) in &graph.nodes[a].entity_edges {
                    if chosen[i + 1..].binary_search(&b).is_ok() {
                        t += w;
                    }
                }
            }
            t
        };
        let graph = build(&local, 0.4);
        let exhaustive = solve(&graph, &SolverConfig::default());
        let ls = solve(
            &graph,
            &SolverConfig { exhaustive_limit: 0, local_search_iterations: 200, ..Default::default() },
        );
        let we = total(&exhaustive, &graph);
        let wl = total(&ls, &graph);
        // Local search is a heuristic: it may fall short, but never exceeds
        // the exhaustive optimum. Hill climbing can get stuck on adversarial
        // random graphs, so the lower bound is a loose smoke check (real
        // inputs run exhaustively up to `exhaustive_limit`).
        prop_assert!(wl <= we + 1e-9, "local search beat exhaustive: {wl} > {we}");
        prop_assert!(wl >= we * 0.6 - 1e-9, "local search too weak: {wl} vs {we}");
    }
}
