//! The per-document coherence table (§3.4.1, §4.6.4).
//!
//! Pairwise coherence has two readers in a document: the graph's
//! entity–entity edges, and the final assignment, which scores every
//! candidate against the entities the other mentions chose. Both read one
//! sparse table built once per document. Its entities are the document's
//! distinct candidates. It evaluates each pair a reader can ask for once,
//! and only where the measure can be nonzero
//! ([`Relatedness::nonzero_pairs`]: for MW, KORE, the keyterm cosines and
//! KORE-LSH, the pairs that share an in-link, a keyword, a keyphrase or a
//! bucket key). It keeps every value but `+0.0`, so its storage grows with
//! the pairs it keeps, never with the square of the candidate count.

use ned_kb::EntityId;
use ned_relatedness::pair_selection::MentionSet;
use ned_relatedness::Relatedness;

use crate::graph::MentionEntityGraph;

/// The sparse, symmetric relatedness table of one document.
#[derive(Debug)]
pub struct CoherenceTable {
    /// The document's distinct candidate entities, ascending.
    entities: Vec<EntityId>,
    /// Row `i` is `entries[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    /// Per row, the entity's partners with their values, ascending.
    entries: Vec<(EntityId, f64)>,
}

impl CoherenceTable {
    /// Builds the table of a document whose mentions have the candidate
    /// lists `locals`, of which the graph keeps `graph_locals` (per
    /// mention, a sublist of its local candidates).
    ///
    /// A reader asks for `(e, o)` where `e` is a candidate of one mention
    /// and `o` a graph candidate of another: the graph pairs graph
    /// candidates of different mentions, and the assignment scores each
    /// candidate against the other mentions' choices, itself included
    /// when another mention chose it. No other pair is evaluated.
    pub fn build<R: Relatedness + ?Sized>(
        relatedness: &R,
        locals: &[Vec<(EntityId, f64)>],
        graph_locals: &[Vec<(EntityId, f64)>],
    ) -> Self {
        let mut entities: Vec<EntityId> = locals.iter().flatten().map(|&(e, _)| e).collect();
        entities.sort_unstable();
        entities.dedup();
        let local_sets = mention_sets(&entities, locals);
        let graph_sets = mention_sets(&entities, graph_locals);
        let set = |sets: &[MentionSet], i: u32| sets.get(i as usize).copied().unwrap_or_default();

        let mut pairs = Vec::new();
        relatedness.nonzero_pairs(&entities, &mut pairs);
        // Both directions of every kept pair, as (row, partner, value).
        let mut cells: Vec<(u32, EntityId, f64)> = Vec::new();
        for (i, j) in pairs {
            let (Some(&a), Some(&b)) = (entities.get(i as usize), entities.get(j as usize)) else {
                continue;
            };
            let askable = set(&local_sets, i).crosses(set(&graph_sets, j))
                || set(&graph_sets, i).crosses(set(&local_sets, j));
            if !askable {
                continue;
            }
            let value = relatedness.relatedness(a, b);
            // Only +0.0 is left out, so every pair reads back as exactly
            // the value the measure returned.
            if value.to_bits() == 0 {
                continue;
            }
            cells.push((i, b, value));
            if i != j {
                cells.push((j, a, value));
            }
        }
        cells.sort_unstable_by_key(|&(row, partner, _)| (row, partner));
        let starts = (0..=entities.len())
            .map(|row| cells.partition_point(|&(r, _, _)| (r as usize) < row))
            .collect();
        let entries = cells.into_iter().map(|(_, partner, value)| (partner, value)).collect();
        CoherenceTable { entities, starts, entries }
    }

    /// The kept pairs `(a, b, value)` with `a < b`, ascending.
    pub fn pairs(&self) -> impl Iterator<Item = (EntityId, EntityId, f64)> + '_ {
        self.entities.iter().enumerate().flat_map(move |(i, &a)| {
            self.row_at(i).iter().filter(move |&&(b, _)| b > a).map(move |&(b, v)| (a, b, v))
        })
    }

    /// `Σ relatedness(e, o)` over `others`, in order: bit for bit what
    /// `Iterator::sum` returns over the measure's own values, because every
    /// pair the table leaves out is exactly `+0.0`.
    pub fn sum(&self, e: EntityId, others: &[EntityId]) -> f64 {
        let row = self.row(e);
        others.iter().map(|&o| lookup(row, o)).sum()
    }

    fn row(&self, e: EntityId) -> &[(EntityId, f64)] {
        self.entities.binary_search(&e).map_or(&[], |i| self.row_at(i))
    }

    fn row_at(&self, i: usize) -> &[(EntityId, f64)] {
        match (self.starts.get(i), self.starts.get(i + 1)) {
            (Some(&start), Some(&end)) => self.entries.get(start..end).unwrap_or_default(),
            _ => &[],
        }
    }
}

fn lookup(row: &[(EntityId, f64)], b: EntityId) -> f64 {
    let found = row.binary_search_by_key(&b, |&(e, _)| e).ok();
    found.and_then(|k| row.get(k)).map_or(0.0, |&(_, v)| v)
}

/// Per entity of `entities` (sorted), the mentions whose list holds it.
fn mention_sets(entities: &[EntityId], lists: &[Vec<(EntityId, f64)>]) -> Vec<MentionSet> {
    let mut sets = vec![MentionSet::Empty; entities.len()];
    for (m, cands) in lists.iter().enumerate() {
        for &(e, _) in cands {
            if let Some(set) = entities.binary_search(&e).ok().and_then(|i| sets.get_mut(i)) {
                *set = set.with(m);
            }
        }
    }
    sets
}

/// How the joint path reads pairwise coherence: the graph's entity edges
/// and the assignment's per-candidate sums. [`CoherenceTable`] is the
/// production source; tests hold it against the per-pair reference.
pub(crate) trait PairCoherence {
    /// The mention–entity graph over `graph_locals`, coherence edges
    /// included.
    fn graph(&self, graph_locals: &[Vec<(EntityId, f64)>], gamma: f64) -> MentionEntityGraph;

    /// `Σ relatedness(e, o)` over `others`, as `Iterator::sum` adds it.
    fn sum(&self, e: EntityId, others: &[EntityId]) -> f64;
}

impl PairCoherence for CoherenceTable {
    fn graph(&self, graph_locals: &[Vec<(EntityId, f64)>], gamma: f64) -> MentionEntityGraph {
        MentionEntityGraph::build(graph_locals, Some(self), gamma)
    }

    fn sum(&self, e: EntityId, others: &[EntityId]) -> f64 {
        CoherenceTable::sum(self, e, others)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_obs::Metrics;
    use ned_relatedness::{
        CacheConfig, CachedRelatedness, Kore, KoreLsh, MilneWitten, TwoStageConfig, ENTRY_BYTES,
    };
    use proptest::prelude::*;

    use super::*;
    use crate::candidates::CandidateFeatures;
    use crate::config::AidaConfig;
    use crate::disambiguator::Disambiguator;
    use crate::result::DisambiguationResult;

    /// The per-pair reference: the graph scores every candidate pair of
    /// different mentions with its own call, and the assignment calls the
    /// measure once per (candidate, other mention's choice).
    struct PerPair<'a, R: ?Sized>(&'a R);

    impl<R: Relatedness + ?Sized> PairCoherence for PerPair<'_, R> {
        fn graph(&self, graph_locals: &[Vec<(EntityId, f64)>], gamma: f64) -> MentionEntityGraph {
            MentionEntityGraph::build_per_pair(graph_locals, self.0, gamma)
        }

        fn sum(&self, e: EntityId, others: &[EntityId]) -> f64 {
            others.iter().map(|&o| self.0.relatedness(e, o)).sum()
        }
    }

    const ENTITIES: u32 = 12;

    /// Twelve entities with the given links (some end up without
    /// in-links) and overlapping keyphrases, so MW and KORE both have
    /// zero and nonzero pairs.
    fn kb(links: &[(u32, u32)]) -> FrozenKb {
        let mut b = KbBuilder::new();
        let ids: Vec<EntityId> = (0..ENTITIES)
            .map(|i| b.add_entity(&format!("E{i}"), EntityKind::Other))
            .collect();
        for (i, &e) in ids.iter().enumerate() {
            let count = 1 + i as u64 % 3;
            b.add_keyphrase(e, &format!("topic{} word{}", i % 3, i % 4), count);
            b.add_keyphrase(e, &format!("shared{} word{}", i % 5, i % 2), 1);
            if i % 2 == 0 {
                b.add_keyphrase(e, &format!("topic{} extra{}", i % 4, i % 3), count + 1);
            }
        }
        for &(s, d) in links {
            b.add_link(ids[(s % ENTITIES) as usize], ids[(d % ENTITIES) as usize]);
        }
        FrozenKb::freeze(&b.build())
    }

    fn features(spec: &[Vec<(u32, f64, f64)>]) -> Vec<Vec<CandidateFeatures>> {
        spec.iter()
            .map(|cands| {
                let best = cands.iter().map(|c| c.2).fold(0.0f64, f64::max);
                cands
                    .iter()
                    .map(|&(e, prior, sim)| CandidateFeatures {
                        entity: EntityId(e % ENTITIES),
                        prior,
                        sim,
                        sim_normalized: if best > 0.0 { sim / best } else { 0.0 },
                    })
                    .collect()
            })
            .collect()
    }

    fn assert_bitwise(table: &DisambiguationResult, reference: &DisambiguationResult) {
        assert_eq!(table.degradation, reference.degradation);
        assert_eq!(table.assignments.len(), reference.assignments.len());
        for (t, r) in table.assignments.iter().zip(&reference.assignments) {
            assert_eq!((t.mention_index, t.entity), (r.mention_index, r.entity));
            assert_eq!(t.score.to_bits(), r.score.to_bits(), "score of mention {}", t.mention_index);
            let bits = |a: &crate::result::MentionAssignment| -> Vec<(EntityId, u64)> {
                a.candidate_scores.iter().map(|&(e, s)| (e, s.to_bits())).collect()
            };
            assert_eq!(bits(t), bits(r), "candidate scores of mention {}", t.mention_index);
        }
    }

    /// Runs `features` through the table path and the per-pair reference
    /// and asserts the same assignments, score bits and counters.
    fn assert_matches_reference<R: Relatedness>(
        kb: &FrozenKb,
        relatedness: &R,
        config: AidaConfig,
        features: &[Vec<CandidateFeatures>],
    ) {
        let (m_table, m_reference) = (Metrics::new(), Metrics::new());
        let table = Disambiguator::new(kb, relatedness, config.clone())
            .with_metrics(&m_table)
            .disambiguate_features(features);
        let aida = Disambiguator::new(kb, relatedness, config).with_metrics(&m_reference);
        let reference = aida.disambiguate_with(features, |_, _| PerPair(relatedness));
        assert_bitwise(&table, &reference);
        assert_eq!(m_table.snapshot(), m_reference.snapshot());
    }

    /// Asserts that the graph built from the table equals the per-pair
    /// graph: nodes, and every mention and entity edge list bit for bit.
    fn assert_same_graph(a: &MentionEntityGraph, b: &MentionEntityGraph) {
        assert_eq!(a.mention_candidates, b.mention_candidates);
        assert_eq!(a.nodes.len(), b.nodes.len());
        let bits = |edges: &[(usize, f64)]| -> Vec<(usize, u64)> {
            edges.iter().map(|&(n, w)| (n, w.to_bits())).collect()
        };
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.entity, y.entity);
            assert_eq!(bits(&x.mention_edges), bits(&y.mention_edges));
            assert_eq!(bits(&x.entity_edges), bits(&y.entity_edges), "edges of {:?}", x.entity);
        }
    }

    fn mention_spec() -> impl Strategy<Value = Vec<Vec<(u32, f64, f64)>>> {
        proptest::collection::vec(
            proptest::collection::vec((0u32..ENTITIES, 0.0f64..1.0, 0.0f64..1.0), 0..5),
            1..8,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The table path reproduces the per-pair path bit for bit: the
        /// assignments, their scores and candidate scores, and every
        /// counter, for MW, MW behind an unbounded and a bounded cache,
        /// KORE and KORE-LSH-G. Candidates repeat across
        /// and within mentions, lists may be empty, and single-candidate
        /// or agreeing mentions are fixed.
        #[test]
        fn table_path_matches_per_pair_reference(
            links in proptest::collection::vec((0u32..ENTITIES, 0u32..ENTITIES), 0..30),
            spec in mention_spec(),
            robust in 0u8..2,
        ) {
            let kb = kb(&links);
            let features = features(&spec);
            let config = AidaConfig { use_coherence_robustness: robust == 1, ..AidaConfig::full() };
            let mw = MilneWitten::new(&kb);
            assert_matches_reference(&kb, &mw, config.clone(), &features);
            assert_matches_reference(&kb, &CachedRelatedness::new(mw), config.clone(), &features);
            let bounded = CachedRelatedness::with_config(
                mw,
                &Metrics::new(),
                CacheConfig::bounded(2 * ENTRY_BYTES),
            );
            assert_matches_reference(&kb, &bounded, config.clone(), &features);
            assert_matches_reference(&kb, &Kore::new(&kb), config.clone(), &features);
            let lsh = KoreLsh::new(&kb, TwoStageConfig::lsh_g());
            assert_matches_reference(&kb, &lsh, config, &features);
        }

        /// The graph built from the table has the per-pair graph's entity
        /// edges, bit for bit, when the graph keeps a sublist of each
        /// mention's candidates.
        #[test]
        fn table_graph_matches_per_pair_graph(
            links in proptest::collection::vec((0u32..ENTITIES, 0u32..ENTITIES), 0..30),
            spec in mention_spec(),
            keep in proptest::collection::vec(0u8..3, 8..9),
        ) {
            let kb = kb(&links);
            let locals: Vec<Vec<(EntityId, f64)>> = spec
                .iter()
                .map(|c| c.iter().map(|&(e, w, _)| (EntityId(e), w)).collect())
                .collect();
            // Keep all candidates, only the first, or none of them.
            let graph_locals: Vec<Vec<(EntityId, f64)>> = locals
                .iter()
                .zip(&keep)
                .map(|(c, &k)| c.iter().copied().take([usize::MAX, 1, 0][k as usize]).collect())
                .collect();
            for rel in [&MilneWitten::new(&kb) as &dyn Relatedness, &Kore::new(&kb)] {
                let table = CoherenceTable::build(rel, &locals, &graph_locals);
                assert_same_graph(
                    &MentionEntityGraph::build(&graph_locals, Some(&table), 0.4),
                    &MentionEntityGraph::build_per_pair(&graph_locals, rel, 0.4),
                );
            }
        }
    }

    #[test]
    fn shared_candidate_keeps_its_diagonal() {
        // E0 is linked from E1 and E2, so MW(E0, E0) = 1. Mention 1 is
        // fixed to E0, which mention 0 also lists: scoring mention 0's E0
        // against mention 1's choice reads the diagonal.
        let kb = kb(&[(1, 0), (2, 0), (1, 3)]);
        let mw = MilneWitten::new(&kb);
        let (e0, e3) = (EntityId(0), EntityId(3));
        let locals = vec![vec![(e0, 0.5), (e3, 0.4)], vec![(e0, 0.9)]];
        let table = CoherenceTable::build(&mw, &locals, &locals);
        assert_eq!(table.sum(e0, &[e0]), 1.0);
        assert_eq!(table.sum(e3, &[e0]), mw.relatedness(e3, e0));
        assert!(table.sum(e3, &[e0]) > 0.0);
        assert_eq!(table.sum(e0, &[e0, e0]).to_bits(), 2.0f64.to_bits());
        // With E0 out of the graph nobody can choose it, so its diagonal
        // is never asked for; mention 1's E0 is still scored against
        // mention 0's graph candidate E3.
        let graph_locals = vec![vec![(e3, 0.4)], vec![]];
        let table = CoherenceTable::build(&mw, &locals, &graph_locals);
        assert_eq!(table.sum(e0, &[e0]), 0.0);
        assert_eq!(table.sum(e0, &[e3]), mw.relatedness(e0, e3));
        assert_eq!(table.pairs().count(), 1);
        // Nor does the graph pair E0 and E3: E0 is not one of its nodes.
        let graph = MentionEntityGraph::build(&graph_locals, Some(&table), 0.4);
        assert_eq!(graph.coherence_edge_count(), 0);
    }

    #[test]
    fn omitted_pairs_sum_like_the_measure() {
        let kb = kb(&[]);
        let table = CoherenceTable::build(&MilneWitten::new(&kb), &[], &[]);
        let e = EntityId(0);
        // No in-links anywhere: every term is +0.0, and so is a sum of
        // them; the empty sum keeps `Iterator::sum`'s own seed.
        assert_eq!(table.sum(e, &[e, EntityId(1)]).to_bits(), 0.0f64.to_bits());
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(table.sum(e, &[]).to_bits(), empty.to_bits());
    }

    /// Records every pair it scores; enumerates like the wrapped measure
    /// when `join` is on, and every pair otherwise.
    struct Recording<R> {
        inner: R,
        join: bool,
        calls: Mutex<Vec<(EntityId, EntityId)>>,
    }

    impl<R> Recording<R> {
        fn new(inner: R, join: bool) -> Self {
            Recording { inner, join, calls: Mutex::new(Vec::new()) }
        }

        /// The recorded pairs, ascending.
        fn sorted_calls(self) -> Vec<(EntityId, EntityId)> {
            let mut calls = self.calls.into_inner().unwrap();
            calls.sort_unstable();
            calls
        }
    }

    impl<R: Relatedness> Relatedness for Recording<R> {
        fn name(&self) -> &'static str {
            "recording"
        }

        fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
            self.calls.lock().unwrap().push((a.min(b), a.max(b)));
            self.inner.relatedness(a, b)
        }

        fn nonzero_pairs(&self, entities: &[EntityId], out: &mut Vec<(u32, u32)>) {
            if self.join {
                self.inner.nonzero_pairs(entities, out);
            } else {
                out.clear();
                let n = entities.len() as u32;
                out.extend((0..n).flat_map(|i| (i..n).map(move |j| (i, j))));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A document evaluates no pair twice, with the MW join and with
        /// the default enumeration alike.
        #[test]
        fn no_pair_is_evaluated_twice_in_a_document(
            links in proptest::collection::vec((0u32..ENTITIES, 0u32..ENTITIES), 0..30),
            spec in mention_spec(),
        ) {
            let kb = kb(&links);
            let features = features(&spec);
            for join in [true, false] {
                let recording = Recording::new(MilneWitten::new(&kb), join);
                Disambiguator::new(&kb, &recording, AidaConfig::full())
                    .disambiguate_features(&features);
                let mut calls = recording.sorted_calls();
                let total = calls.len();
                calls.dedup();
                prop_assert_eq!(calls.len(), total, "a pair was evaluated twice (join: {})", join);
            }
        }
    }

    /// Two clusters of four entities (E0–E3 and E4–E7): phrases shared
    /// inside a cluster, no keyword shared across.
    fn two_cluster_kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        for (cluster, phrases) in
            [("rock", ["hard rock band", "electric guitar solo"]), ("politics", ["foreign trade policy", "parliament election campaign"])]
        {
            for i in 0..4 {
                let e = b.add_entity(&format!("{cluster} {i}"), EntityKind::Other);
                b.add_keyphrase(e, phrases[0], 3);
                b.add_keyphrase(e, phrases[1], 1 + i);
                b.add_keyphrase(e, &format!("{cluster} topic{i}"), 1);
            }
        }
        FrozenKb::freeze(&b.build())
    }

    /// With KORE and both KORE-LSH variants, the table evaluates exactly
    /// the askable pairs (`e` a candidate of one mention, `o` of another)
    /// that `nonzero_pairs` lists: on two clusters, fewer than all askable
    /// pairs. Every askable pair still reads back as the measure's own
    /// value.
    #[test]
    fn kore_family_tables_evaluate_only_the_listed_askable_pairs() {
        let kb = two_cluster_kb();
        let e = EntityId;
        // E1 is a candidate of two mentions, so its diagonal is askable.
        let locals: Vec<Vec<(EntityId, f64)>> = vec![
            vec![(e(0), 0.5), (e(4), 0.3), (e(1), 0.2)],
            vec![(e(1), 0.6), (e(5), 0.4)],
            vec![(e(2), 0.7), (e(6), 0.2), (e(7), 0.1)],
        ];
        let mut entities: Vec<EntityId> = locals.iter().flatten().map(|&(x, _)| x).collect();
        entities.sort_unstable();
        entities.dedup();
        let mentions_of = |x: EntityId| -> Vec<usize> {
            (0..locals.len()).filter(|&m| locals[m].iter().any(|&(y, _)| y == x)).collect()
        };
        let mut askable = Vec::new();
        for (i, &a) in entities.iter().enumerate() {
            for (j, &b) in entities.iter().enumerate().skip(i) {
                let (ma, mb) = (mentions_of(a), mentions_of(b));
                if ma.iter().any(|m| mb.iter().any(|n| m != n)) {
                    askable.push(((i as u32, j as u32), (a, b)));
                }
            }
        }
        let kore = Kore::new(&kb);
        let lsh_g = KoreLsh::new(&kb, TwoStageConfig::lsh_g());
        let lsh_f = KoreLsh::new(&kb, TwoStageConfig::lsh_f());
        for measure in [&kore as &dyn Relatedness, &lsh_g, &lsh_f] {
            let name = measure.name();
            let mut listed = Vec::new();
            measure.nonzero_pairs(&entities, &mut listed);
            let expected: Vec<(EntityId, EntityId)> = askable
                .iter()
                .filter(|(ij, _)| listed.binary_search(ij).is_ok())
                .map(|&(_, pair)| pair)
                .collect();
            assert!(expected.len() < askable.len(), "{name} lists every askable pair");
            let recording = Recording::new(measure, true);
            let table = CoherenceTable::build(&recording, &locals, &locals);
            assert_eq!(recording.sorted_calls(), expected, "{name}");
            for &(_, (a, b)) in &askable {
                let value = measure.relatedness(a, b).to_bits();
                assert_eq!(table.sum(a, &[b]).to_bits(), value, "{name}: ({a:?}, {b:?})");
                assert_eq!(table.sum(b, &[a]).to_bits(), value, "{name}: ({b:?}, {a:?})");
            }
        }
    }
}
