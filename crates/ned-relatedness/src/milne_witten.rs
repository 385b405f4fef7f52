//! The Milne–Witten in-link overlap measure (Eq. 3.7).
//!
//! `MW(e, f) = 1 − (log max(|Ie|,|If|) − log |Ie ∩ If|) /
//!              (log N − log min(|Ie|,|If|))`
//! clamped at 0, where `Ie` is the in-link set of `e` and `N` the number of
//! entities. The measure depends entirely on the richness of the link graph,
//! which is exactly the limitation KORE addresses for long-tail entities.

use ned_kb::{EntityId, KbView};

use crate::pair_selection::shared_dimension_pairs;
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

    /// The pairs that share an in-link ([`shared_dimension_pairs`] over
    /// the in-link lists), plus the diagonal of every entity that has
    /// in-links. Any other pair has `shared == 0` (or no in-links at all)
    /// and scores exactly 0.
    fn nonzero_pairs(&self, entities: &[EntityId], out: &mut Vec<(u32, u32)>) {
        if self.kb.entity_count() < 2 {
            out.clear();
            return;
        }
        let links = self.kb.links();
        shared_dimension_pairs(entities, |e| links.inlinks(e).iter().copied(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};

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
}
