//! In-link Jaccard relatedness.
//!
//! §2.2.3 notes (citing Ceccarelli et al.) that among single link-based
//! measures, plain Jaccard similarity on the in-link sets often works
//! *better* than Milne–Witten. It is included both as an additional
//! coherence option and as a baseline row for the relatedness experiments.

use ned_kb::{EntityId, KbView};

use crate::traits::Relatedness;

/// Jaccard similarity of in-link sets: `|Ie ∩ If| / |Ie ∪ If|`.
///
/// Generic over the KB representation, like
/// [`MilneWitten`](crate::MilneWitten).
#[derive(Debug, Clone, Copy)]
pub struct InlinkJaccard<K> {
    kb: K,
}

impl<K: KbView> InlinkJaccard<K> {
    /// Creates the measure over `kb`.
    pub fn new(kb: K) -> Self {
        InlinkJaccard { kb }
    }
}

impl<K: KbView> Relatedness for InlinkJaccard<K> {
    fn name(&self) -> &'static str {
        "Jaccard"
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        let links = self.kb.links();
        let ia = links.inlink_count(a);
        let ib = links.inlink_count(b);
        if ia == 0 || ib == 0 {
            return 0.0;
        }
        let inter = if a == b { ia } else { links.shared_inlink_count(a, b) };
        let union = ia + ib - inter;
        if union == 0 {
            0.0
        } else {
            inter as f64 / union as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};

    fn kb() -> (FrozenKb, EntityId, EntityId, EntityId) {
        let mut b = KbBuilder::new();
        let x = b.add_entity("X", EntityKind::Other);
        let y = b.add_entity("Y", EntityKind::Other);
        let z = b.add_entity("Z", EntityKind::Other);
        for i in 0..3 {
            let l = b.add_entity(&format!("L{i}"), EntityKind::Other);
            b.add_link(l, x);
            b.add_link(l, y);
        }
        let extra = b.add_entity("Extra", EntityKind::Other);
        b.add_link(extra, y);
        b.add_link(extra, z);
        (FrozenKb::freeze(&b.build()), x, y, z)
    }

    #[test]
    fn jaccard_of_overlapping_inlinks() {
        let (kb, x, y, _) = kb();
        let j = InlinkJaccard::new(&kb);
        // in(x) = {L0,L1,L2}; in(y) = {L0,L1,L2,Extra} → 3/4.
        assert!((j.relatedness(x, y) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn self_similarity_is_one() {
        let (kb, x, ..) = kb();
        let j = InlinkJaccard::new(&kb);
        assert_eq!(j.relatedness(x, x), 1.0);
    }

    #[test]
    fn disjoint_and_linkless() {
        let (kb, x, _, z) = kb();
        let j = InlinkJaccard::new(&kb);
        assert_eq!(j.relatedness(x, z), 0.0);
        let l0 = kb.entity_by_name("L0").unwrap();
        assert_eq!(j.relatedness(x, l0), 0.0); // L0 has no in-links
        assert_eq!(j.relatedness(l0, l0), 0.0);
    }

    #[test]
    fn symmetric_and_bounded() {
        let (kb, x, y, z) = kb();
        let j = InlinkJaccard::new(&kb);
        for &(a, b) in &[(x, y), (x, z), (y, z)] {
            let v = j.relatedness(a, b);
            assert!((0.0..=1.0).contains(&v));
            assert_eq!(v, j.relatedness(b, a));
        }
    }
}
