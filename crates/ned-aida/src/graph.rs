//! The weighted mention–entity graph (§3.4.1).
//!
//! Nodes are the mentions and their candidate entities (one node per
//! distinct entity). Mention–entity edges carry the combined local weight;
//! entity–entity edges carry the coherence (relatedness) and exist only
//! between candidates of *different* mentions (§4.6.4). Weight classes are
//! each scaled to [0, 1], rescaled so their averages match, and finally
//! balanced by γ (entity edges × γ, mention edges × (1 − γ)).

use ned_kb::fx::FxHashMap;
use ned_kb::EntityId;
use ned_relatedness::pair_selection::{cross_mention_pair_count, MentionSet};

use crate::coherence::CoherenceTable;

/// An entity node with its incident edges.
#[derive(Debug, Clone)]
pub struct EntityNode {
    /// The knowledge-base entity.
    pub entity: EntityId,
    /// Incident mention edges `(mention index, weight)`.
    pub mention_edges: Vec<(usize, f64)>,
    /// Incident entity edges `(entity node index, weight)`.
    pub entity_edges: Vec<(usize, f64)>,
}

/// The assembled disambiguation graph.
#[derive(Debug, Clone, Default)]
pub struct MentionEntityGraph {
    /// Number of mention nodes.
    pub mention_count: usize,
    /// Entity nodes.
    pub nodes: Vec<EntityNode>,
    /// Candidate entity node indexes per mention.
    pub mention_candidates: Vec<Vec<usize>>,
}

impl MentionEntityGraph {
    /// Builds the graph from per-mention local candidate weights and the
    /// document's coherence table.
    ///
    /// `local[i]` holds `(entity, local weight)` for mention `i`. The table
    /// must cover `local`'s candidates. Without a table, or with `gamma`
    /// at 0, no entity edges are created (the graph degenerates to
    /// independent local decisions).
    pub fn build(
        local: &[Vec<(EntityId, f64)>],
        coherence: Option<&CoherenceTable>,
        gamma: f64,
    ) -> Self {
        let (mut graph, node_of) = Self::nodes(local);
        if let Some(table) = coherence.filter(|_| gamma > 0.0) {
            let sets = graph.node_mention_sets();
            // The table's nonzero pairs, ascending, that join candidates
            // of different mentions; every other such pair scores 0.
            let weighted = table
                .pairs()
                .filter_map(|(a, b, w)| {
                    let (&na, &nb) = (node_of.get(&a)?, node_of.get(&b)?);
                    sets.get(na)?.crosses(*sets.get(nb)?).then_some((na, nb, w))
                })
                .collect();
            graph.add_coherence_edges(weighted, cross_mention_pair_count(&sets), gamma);
        }
        graph
    }

    /// The per-pair reference for [`Self::build`]: every candidate pair of
    /// different mentions, each scored by its own relatedness call.
    #[cfg(test)]
    pub(crate) fn build_per_pair<R: ned_relatedness::Relatedness + ?Sized>(
        local: &[Vec<(EntityId, f64)>],
        relatedness: &R,
        gamma: f64,
    ) -> Self {
        let (mut graph, node_of) = Self::nodes(local);
        if gamma > 0.0 {
            let candidate_lists: Vec<Vec<EntityId>> =
                local.iter().map(|c| c.iter().map(|&(e, _)| e).collect()).collect();
            let pairs = ned_relatedness::pair_selection::coherence_pairs(&candidate_lists);
            let weighted = pairs
                .iter()
                .map(|&(a, b)| (node_of[&a], node_of[&b], relatedness.relatedness(a, b)))
                .collect();
            graph.add_coherence_edges(weighted, pairs.len(), gamma);
        }
        graph
    }

    /// The mention nodes and entity nodes with their mention edges scaled
    /// to [0, 1], and the node index of each entity.
    fn nodes(local: &[Vec<(EntityId, f64)>]) -> (Self, FxHashMap<EntityId, usize>) {
        let mention_count = local.len();
        let mut nodes: Vec<EntityNode> = Vec::new();
        let mut node_of: FxHashMap<EntityId, usize> = FxHashMap::default();
        let mut mention_candidates: Vec<Vec<usize>> = Vec::with_capacity(mention_count);

        for (mi, cands) in local.iter().enumerate() {
            let mut idxs = Vec::with_capacity(cands.len());
            for &(e, w) in cands {
                let ni = *node_of.entry(e).or_insert_with(|| {
                    nodes.push(EntityNode {
                        entity: e,
                        mention_edges: Vec::new(),
                        entity_edges: Vec::new(),
                    });
                    nodes.len() - 1
                });
                if let Some(node) = nodes.get_mut(ni) {
                    node.mention_edges.push((mi, w));
                }
                idxs.push(ni);
            }
            mention_candidates.push(idxs);
        }

        // Scale mention-entity weights to [0, 1].
        let me_max = nodes
            .iter()
            .flat_map(|n| n.mention_edges.iter().map(|&(_, w)| w))
            .fold(0.0f64, f64::max);
        if me_max > 0.0 {
            for n in &mut nodes {
                for e in &mut n.mention_edges {
                    e.1 /= me_max;
                }
            }
        }
        (MentionEntityGraph { mention_count, nodes, mention_candidates }, node_of)
    }

    /// Per entity node, the mentions it is a candidate of.
    fn node_mention_sets(&self) -> Vec<MentionSet> {
        self.nodes
            .iter()
            .map(|n| n.mention_edges.iter().fold(MentionSet::Empty, |set, &(mi, _)| set.with(mi)))
            .collect()
    }

    /// Adds the entity edges. `weighted` lists `(node a, node b,
    /// relatedness)` in ascending entity order; it may leave out pairs
    /// that score 0, but `pair_count` counts every pair, so the average
    /// the rescaling matches is taken over all of them.
    fn add_coherence_edges(
        &mut self,
        mut weighted: Vec<(usize, usize, f64)>,
        pair_count: usize,
        gamma: f64,
    ) {
        // Scale entity-entity weights to [0, 1].
        let ee_max = weighted.iter().map(|&(_, _, w)| w).fold(0.0f64, f64::max);
        if ee_max > 0.0 {
            for e in &mut weighted {
                e.2 /= ee_max;
            }
        }
        // Rescale so the average entity-entity weight equals the average
        // mention-entity weight. A left-out zero changes the sum only in
        // the sign of an all-zero total, which the `> 0.0` test ignores.
        let me_weights: Vec<f64> = self
            .nodes
            .iter()
            .flat_map(|n| n.mention_edges.iter().map(|&(_, w)| w))
            .collect();
        let me_avg = mean(&me_weights);
        let ee_avg = if pair_count == 0 {
            0.0
        } else {
            weighted.iter().map(|&(_, _, w)| w).sum::<f64>() / pair_count as f64
        };
        let rescale = if ee_avg > 0.0 && me_avg > 0.0 { me_avg / ee_avg } else { 1.0 };

        for (a, b, w) in weighted {
            let w = w * rescale * gamma;
            if w <= 0.0 {
                continue;
            }
            if let Some(node) = self.nodes.get_mut(a) {
                node.entity_edges.push((b, w));
            }
            if let Some(node) = self.nodes.get_mut(b) {
                node.entity_edges.push((a, w));
            }
        }
        // Balance mention edges by (1 − γ).
        for n in &mut self.nodes {
            for e in &mut n.mention_edges {
                e.1 *= 1.0 - gamma;
            }
        }
    }

    /// Number of entity nodes.
    pub fn entity_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of entity–entity edges (undirected).
    pub fn coherence_edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.entity_edges.len()).sum::<usize>() / 2
    }

    /// Weighted degree of entity node `ni` restricted to `active` nodes:
    /// all incident mention edges plus entity edges to active neighbours.
    pub fn weighted_degree(&self, ni: usize, active: &[bool]) -> f64 {
        let Some(n) = self.nodes.get(ni) else {
            return 0.0;
        };
        let me: f64 = n.mention_edges.iter().map(|&(_, w)| w).sum();
        let ee: f64 = n
            .entity_edges
            .iter()
            .filter(|&&(nj, _)| active.get(nj) == Some(&true))
            .map(|&(_, w)| w)
            .sum();
        me + ee
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_relatedness::Relatedness;

    /// A fixed-table relatedness for tests.
    struct TableRel(Vec<(EntityId, EntityId, f64)>);

    impl Relatedness for TableRel {
        fn name(&self) -> &'static str {
            "table"
        }
        fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
            self.0
                .iter()
                .find(|&&(x, y, _)| (x == a && y == b) || (x == b && y == a))
                .map_or(0.0, |&(_, _, w)| w)
        }
    }

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    /// The graph over `local` with the coherence table of `rel`.
    fn graph(local: &[Vec<(EntityId, f64)>], rel: &TableRel, gamma: f64) -> MentionEntityGraph {
        let table = CoherenceTable::build(rel, local, local);
        MentionEntityGraph::build(local, Some(&table), gamma)
    }

    #[test]
    fn builds_nodes_and_edges() {
        let local = vec![vec![(e(1), 0.8), (e(2), 0.4)], vec![(e(3), 0.6)]];
        let rel = TableRel(vec![(e(1), e(3), 0.9)]);
        let g = graph(&local, &rel, 0.4);
        assert_eq!(g.mention_count, 2);
        assert_eq!(g.entity_count(), 3);
        assert_eq!(g.coherence_edge_count(), 1);
        assert_eq!(g.mention_candidates[0].len(), 2);
    }

    #[test]
    fn shared_candidate_becomes_one_node() {
        let local = vec![vec![(e(1), 0.8)], vec![(e(1), 0.5)]];
        let rel = TableRel(vec![]);
        let g = graph(&local, &rel, 0.4);
        assert_eq!(g.entity_count(), 1);
        assert_eq!(g.nodes[0].mention_edges.len(), 2);
    }

    #[test]
    fn weights_are_scaled_and_balanced() {
        let local = vec![vec![(e(1), 2.0)], vec![(e(2), 1.0)]];
        let rel = TableRel(vec![(e(1), e(2), 0.5)]);
        let gamma = 0.4;
        let g = graph(&local, &rel, gamma);
        // Max local weight 2.0 → scaled to 1.0, then × (1 − γ) = 0.6.
        let w_max: f64 = g
            .nodes
            .iter()
            .flat_map(|n| n.mention_edges.iter().map(|&(_, w)| w))
            .fold(0.0, f64::max);
        assert!((w_max - 0.6).abs() < 1e-12);
        // One entity edge: scaled to 1.0 (it is the max), average-matched to
        // the mention average (0.75), then × γ.
        let ee = g.nodes[0].entity_edges[0].1;
        assert!((ee - 0.75 * gamma).abs() < 1e-12, "{ee}");
    }

    #[test]
    fn no_coherence_edges_when_disabled() {
        let local = vec![vec![(e(1), 1.0)], vec![(e(2), 1.0)]];
        let rel = TableRel(vec![(e(1), e(2), 0.9)]);
        assert_eq!(MentionEntityGraph::build(&local, None, 0.4).coherence_edge_count(), 0);
        assert_eq!(graph(&local, &rel, 0.0).coherence_edge_count(), 0);
    }

    #[test]
    fn weighted_degree_respects_active_set() {
        let local = vec![vec![(e(1), 1.0)], vec![(e(2), 1.0)], vec![(e(3), 1.0)]];
        let rel = TableRel(vec![(e(1), e(2), 1.0), (e(1), e(3), 1.0)]);
        let g = graph(&local, &rel, 0.5);
        let all_active = vec![true; 3];
        let d_full = g.weighted_degree(0, &all_active);
        let partial = vec![true, true, false];
        let d_partial = g.weighted_degree(0, &partial);
        assert!(d_full > d_partial);
        assert!(d_partial > 0.0);
    }

    #[test]
    fn zero_weight_edges_are_skipped() {
        let local = vec![vec![(e(1), 1.0)], vec![(e(2), 1.0)]];
        let rel = TableRel(vec![]); // relatedness 0 everywhere
        let g = graph(&local, &rel, 0.4);
        assert_eq!(g.coherence_edge_count(), 0);
    }
}
