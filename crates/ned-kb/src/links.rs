//! The inter-entity link graph.
//!
//! Wikipedia's page links drive both the Milne–Witten relatedness measure
//! (Eq. 3.7, via shared in-links) and the superdocument model of the keyword
//! weights (Eq. 3.3, via in-linking entities' keyphrases). In-link and
//! out-link adjacency lists are stored sorted so set intersections run as
//! linear merges.

use crate::ids::EntityId;

/// Directed link graph over entities.
#[derive(Debug, Default, Clone)]
pub struct LinkGraph {
    inlinks: Vec<Vec<EntityId>>,
    outlinks: Vec<Vec<EntityId>>,
    edge_count: usize,
}

impl LinkGraph {
    /// Creates a graph over `n` entities with no links.
    pub fn new(n: usize) -> Self {
        LinkGraph { inlinks: vec![Vec::new(); n], outlinks: vec![Vec::new(); n], edge_count: 0 }
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.inlinks.len()
    }

    /// True if the graph covers no entities.
    pub fn is_empty(&self) -> bool {
        self.inlinks.is_empty()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds a directed link `src → dst`. Self-links and duplicates are
    /// ignored (Wikipedia articles never link to themselves).
    pub fn add_link(&mut self, src: EntityId, dst: EntityId) {
        if src == dst {
            return;
        }
        let out = &mut self.outlinks[src.index()];
        if out.contains(&dst) {
            return;
        }
        out.push(dst);
        self.inlinks[dst.index()].push(src);
        self.edge_count += 1;
    }

    /// Entities linking *to* `e`, sorted ascending after [`Self::finalize`].
    pub fn inlinks(&self, e: EntityId) -> &[EntityId] {
        &self.inlinks[e.index()]
    }

    /// Entities `e` links *to*, sorted ascending after [`Self::finalize`].
    pub fn outlinks(&self, e: EntityId) -> &[EntityId] {
        &self.outlinks[e.index()]
    }

    /// Sorts all adjacency lists; must be called once after construction and
    /// before any query that relies on sorted order.
    pub fn finalize(&mut self) {
        for list in self.inlinks.iter_mut().chain(self.outlinks.iter_mut()) {
            list.sort_unstable();
        }
    }

    /// Reconstructs a graph from adjacency rows in entity-id order (the
    /// thaw of the test-only reference in `crate::delta`).
    #[cfg(test)]
    pub(crate) fn from_rows(
        inlinks: Vec<Vec<EntityId>>,
        outlinks: Vec<Vec<EntityId>>,
        edge_count: usize,
    ) -> Self {
        LinkGraph { inlinks, outlinks, edge_count }
    }

    /// Extends the graph to cover `n` entities (newly promoted entities
    /// start with no links).
    #[cfg(test)]
    pub(crate) fn grow_to(&mut self, n: usize) {
        if n > self.inlinks.len() {
            self.inlinks.resize(n, Vec::new());
            self.outlinks.resize(n, Vec::new());
        }
    }
}

/// Size of the intersection of two ascending-sorted slices.
pub fn sorted_intersection_size(a: &[EntityId], b: &[EntityId]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut n = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32) -> EntityId {
        EntityId(i)
    }

    fn graph() -> LinkGraph {
        let mut g = LinkGraph::new(5);
        g.add_link(e(0), e(1));
        g.add_link(e(0), e(2));
        g.add_link(e(3), e(1));
        g.add_link(e(3), e(2));
        g.add_link(e(4), e(1));
        g.finalize();
        g
    }

    fn frozen(g: &LinkGraph) -> crate::frozen::FrozenLinks {
        let rows = (0..g.len()).map(|i| (g.inlinks(e(i as u32)), g.outlinks(e(i as u32))));
        crate::frozen::FrozenLinks::from_rows(rows, g.edge_count())
    }

    #[test]
    fn inlinks_and_outlinks() {
        let g = graph();
        assert_eq!(g.inlinks(e(1)), &[e(0), e(3), e(4)]);
        assert_eq!(g.outlinks(e(0)), &[e(1), e(2)]);
        assert_eq!(g.inlinks(e(2)).len(), 2);
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn self_links_and_duplicates_ignored() {
        let mut g = LinkGraph::new(2);
        g.add_link(e(0), e(0));
        g.add_link(e(0), e(1));
        g.add_link(e(0), e(1));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn shared_inlinks() {
        let g = frozen(&graph());
        // in(1) = {0,3,4}, in(2) = {0,3} → intersection 2.
        assert_eq!(g.shared_inlink_count(e(1), e(2)), 2);
        assert_eq!(g.shared_inlink_count(e(1), e(0)), 0);
    }

    #[test]
    fn direct_link_detection() {
        let g = frozen(&graph());
        assert!(g.directly_linked(e(0), e(1)));
        assert!(g.directly_linked(e(1), e(0)));
        assert!(!g.directly_linked(e(1), e(2)));
    }

    #[test]
    fn intersection_helper() {
        let a = [e(1), e(3), e(5), e(7)];
        let b = [e(2), e(3), e(7), e(9)];
        assert_eq!(sorted_intersection_size(&a, &b), 2);
        assert_eq!(sorted_intersection_size(&a, &[]), 0);
        assert_eq!(sorted_intersection_size(&a, &a), 4);
    }
}
