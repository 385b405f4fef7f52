//! The Milne–Witten in-link overlap measure (Eq. 3.7).
//!
//! `MW(e, f) = 1 − (log max(|Ie|,|If|) − log |Ie ∩ If|) /
//!              (log N − log min(|Ie|,|If|))`
//! clamped at 0, where `Ie` is the in-link set of `e` and `N` the number of
//! entities. The measure depends entirely on the richness of the link graph,
//! which is exactly the limitation KORE addresses for long-tail entities.

use ned_kb::{EntityId, KbView};

use crate::traits::Relatedness;

/// Milne–Witten relatedness over a knowledge base's link graph.
///
/// Generic over the KB handle: pass `&FrozenKb` (or `&DeltaKb`) for the
/// borrowed style or (a clone of) an `Arc<FrozenKb>` for the shared-handle
/// service style.
#[derive(Debug, Clone, Copy)]
pub struct MilneWitten<K> {
    kb: K,
}

impl<K: KbView> MilneWitten<K> {
    /// Creates the measure over `kb`.
    pub fn new(kb: K) -> Self {
        MilneWitten { kb }
    }
}

impl<K: KbView> Relatedness for MilneWitten<K> {
    fn name(&self) -> &'static str {
        "MW"
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        let n = self.kb.entity_count();
        let links = self.kb.links();
        let ia = links.inlink_count(a);
        let ib = links.inlink_count(b);
        if ia == 0 || ib == 0 || n < 2 {
            return 0.0;
        }
        let shared = if a == b { ia } else { links.shared_inlink_count(a, b) };
        if shared == 0 {
            return 0.0;
        }
        let max = ia.max(ib) as f64;
        let min = ia.min(ib) as f64;
        let n = n as f64;
        let denom = n.ln() - min.ln();
        if denom <= 0.0 {
            // min(|Ie|,|If|) == N: every entity links to both, which makes
            // the measure degenerate; treat as maximally related.
            return 1.0;
        }
        let v = 1.0 - (max.ln() - (shared as f64).ln()) / denom;
        v.max(0.0)
    }

    /// The pairs that share an in-link, found by a join over the
    /// entities' in-link lists, plus the diagonal of every entity that has
    /// in-links. Any other pair has `shared == 0` (or no in-links at all)
    /// and scores exactly 0.
    fn nonzero_pairs(&self, entities: &[EntityId], out: &mut Vec<(u32, u32)>) {
        out.clear();
        if self.kb.entity_count() < 2 {
            return;
        }
        let links = self.kb.links();
        // (in-linker, entity index), grouped by in-linker after the sort.
        let mut postings: Vec<(EntityId, u32)> = Vec::new();
        for (i, &e) in (0u32..).zip(entities) {
            let inlinks = links.inlinks(e);
            if !inlinks.is_empty() {
                out.push((i, i));
            }
            postings.extend(inlinks.iter().map(|&src| (src, i)));
        }
        postings.sort_unstable();
        let mut rest = postings.as_slice();
        while let Some(&(src, _)) = rest.first() {
            let (group, tail) = rest.split_at(rest.iter().take_while(|p| p.0 == src).count());
            // Within a group the indexes ascend, so every pair has i <= j.
            let mut members = group;
            while let Some((&(_, i), later)) = members.split_first() {
                out.extend(later.iter().map(|&(_, j)| (i, j)));
                members = later;
            }
            rest = tail;
        }
        out.sort_unstable();
        out.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::{DeltaKb, EntityKind, FrozenKb, KbBuilder, KbMutation};

    /// 6 entities: `a` and `b` share two in-linkers, `c` shares none.
    fn kb() -> (FrozenKb, EntityId, EntityId, EntityId) {
        let mut builder = KbBuilder::new();
        let a = builder.add_entity("A", EntityKind::Other);
        let b = builder.add_entity("B", EntityKind::Other);
        let c = builder.add_entity("C", EntityKind::Other);
        let x = builder.add_entity("X", EntityKind::Other);
        let y = builder.add_entity("Y", EntityKind::Other);
        let z = builder.add_entity("Z", EntityKind::Other);
        builder.add_link(x, a);
        builder.add_link(x, b);
        builder.add_link(y, a);
        builder.add_link(y, b);
        builder.add_link(z, a);
        builder.add_link(z, c);
        (FrozenKb::freeze(&builder.build()), a, b, c)
    }

    #[test]
    fn shared_inlinkers_give_positive_relatedness() {
        let (kb, a, b, _) = kb();
        let mw = MilneWitten::new(&kb);
        assert!(mw.relatedness(a, b) > 0.0);
    }

    #[test]
    fn disjoint_inlink_sets_give_zero() {
        let (kb, _, b, c) = kb();
        let mw = MilneWitten::new(&kb);
        assert_eq!(mw.relatedness(b, c), 0.0);
    }

    #[test]
    fn symmetric() {
        let (kb, a, b, c) = kb();
        let mw = MilneWitten::new(&kb);
        assert_eq!(mw.relatedness(a, b), mw.relatedness(b, a));
        assert_eq!(mw.relatedness(a, c), mw.relatedness(c, a));
    }

    #[test]
    fn self_relatedness_is_one_for_linked_entities() {
        let (kb, a, _, _) = kb();
        let mw = MilneWitten::new(&kb);
        assert!((mw.relatedness(a, a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linkless_entity_has_zero_relatedness() {
        let (kb, a, _, _) = kb();
        let mw = MilneWitten::new(&kb);
        // X has no in-links.
        let x = kb.entity_by_name("X").unwrap();
        assert_eq!(mw.relatedness(a, x), 0.0);
        assert_eq!(mw.relatedness(x, x), 0.0);
    }

    #[test]
    fn bounded_by_unit_interval() {
        let (kb, a, b, c) = kb();
        let mw = MilneWitten::new(&kb);
        for &(x, y) in &[(a, b), (a, c), (b, c), (a, a)] {
            let v = mw.relatedness(x, y);
            assert!((0.0..=1.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn more_overlap_means_higher_relatedness() {
        // a–b share 2 in-linkers, a–c share 1.
        let (kb, a, b, c) = kb();
        let mw = MilneWitten::new(&kb);
        assert!(mw.relatedness(a, b) > mw.relatedness(a, c));
    }

    #[test]
    fn nonzero_pairs_join_shared_inlinks() {
        let (kb, a, b, c) = kb();
        let x = kb.entity_by_name("X").unwrap();
        let mw = MilneWitten::new(&kb);
        let mut out = vec![(9, 9)];
        // Unsorted input with a repeat: indexes refer to positions.
        mw.nonzero_pairs(&[c, x, a, b, a], &mut out);
        // c–a share Z, a–b share X and Y; X has no in-links, so no
        // diagonal; the repeated a pairs with itself.
        assert_eq!(
            out,
            vec![(0, 0), (0, 2), (0, 4), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4), (4, 4)]
        );
    }

    /// A link graph over `n` entities named `E0..`, built two ways: frozen
    /// from a store, and an overlay that adds the last entity and the
    /// second half of the links over a frozen base.
    fn two_backends(n: usize, links: &[(usize, usize)]) -> (FrozenKb, DeltaKb) {
        let name = |i: usize| format!("E{i}");
        let build = |entities: usize, links: &[(usize, usize)]| {
            let mut builder = KbBuilder::new();
            let ids: Vec<EntityId> =
                (0..entities).map(|i| builder.add_entity(&name(i), EntityKind::Other)).collect();
            for &(s, d) in links {
                builder.add_link(ids[s], ids[d]);
            }
            FrozenKb::freeze(&builder.build())
        };
        let frozen = build(n, links);
        let (early, late): (Vec<_>, Vec<_>) =
            links.iter().enumerate().partition(|&(k, &(s, d))| k % 2 == 0 && s < n - 1 && d < n - 1);
        let early: Vec<(usize, usize)> = early.into_iter().map(|(_, &l)| l).collect();
        let base = build(n - 1, &early);
        let mut mutations =
            vec![KbMutation::AddEntity { canonical_name: name(n - 1), kind: EntityKind::Other }];
        mutations.extend(
            late.into_iter().map(|(_, &(s, d))| KbMutation::AddLink { src: name(s), dst: name(d) }),
        );
        let delta = DeltaKb::build(std::sync::Arc::new(base), mutations).unwrap();
        (frozen, delta)
    }

    /// Checks the `nonzero_pairs` contract on one KB and returns the pairs.
    fn checked_pairs<K: KbView>(kb: K, entities: &[EntityId]) -> Vec<(u32, u32)> {
        let mw = MilneWitten::new(kb);
        let mut out = Vec::new();
        mw.nonzero_pairs(entities, &mut out);
        assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted and deduplicated: {out:?}");
        let len = entities.len() as u32;
        assert!(out.iter().all(|&(i, j)| i <= j && j < len), "in range: {out:?}");
        for i in 0..len {
            for j in i..len {
                if out.binary_search(&(i, j)).is_err() {
                    let v = mw.relatedness(entities[i as usize], entities[j as usize]);
                    assert_eq!(v.to_bits(), 0.0f64.to_bits(), "omitted ({i}, {j}) scores {v}");
                }
            }
        }
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Every pair `nonzero_pairs` omits scores exactly +0.0 on the
        /// frozen and overlay KBs, which both list the same pairs.
        /// Sparse random links leave entities without in-links; queries
        /// repeat entities, so the diagonal and self pairs are covered.
        #[test]
        fn omitted_pairs_score_zero_on_every_backend(
            n in 2usize..12,
            links in proptest::collection::vec((0usize..64, 0usize..64), 0..24),
            query in proptest::collection::vec(0usize..64, 0..12),
        ) {
            let links: Vec<(usize, usize)> = links.iter().map(|&(s, d)| (s % n, d % n)).collect();
            let (frozen, delta) = two_backends(n, &links);
            let entities: Vec<EntityId> = query.iter().map(|&q| EntityId((q % n) as u32)).collect();
            let expected = checked_pairs(&frozen, &entities);
            proptest::prop_assert_eq!(&checked_pairs(&delta, &entities), &expected);
        }
    }
}
