//! Aggregate statistics over a knowledge base (supports Table 3.1-style
//! corpus/KB property reports).

use serde::{Deserialize, Serialize};

use crate::view::KbView;

/// Summary statistics of a knowledge base.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KbStats {
    /// Number of entities.
    pub entities: usize,
    /// Number of distinct surface names in the dictionary.
    pub names: usize,
    /// Number of (name, entity) dictionary pairs.
    pub name_entity_pairs: usize,
    /// Mean number of candidate entities per name.
    pub mean_candidates_per_name: f64,
    /// Largest candidate set over all names.
    pub max_candidates_per_name: usize,
    /// Number of directed links.
    pub links: usize,
    /// Mean in-links per entity.
    pub mean_inlinks: f64,
    /// Number of distinct keyphrases.
    pub distinct_keyphrases: usize,
    /// Mean keyphrases per entity.
    pub mean_keyphrases_per_entity: f64,
}

impl KbStats {
    /// Computes statistics for `kb` (a frozen KB or an overlay).
    pub fn of<K: KbView + ?Sized>(kb: &K) -> Self {
        let entities = kb.entity_count();
        let names = kb.dictionary().name_count();
        let pairs = kb.dictionary().pair_count();
        let max_candidates =
            kb.dictionary().iter().map(|(_, cands)| cands.len()).max().unwrap_or(0);
        let total_keyphrases: usize =
            kb.entity_ids().map(|e| kb.keyphrases(e).len()).sum();
        KbStats {
            entities,
            names,
            name_entity_pairs: pairs,
            mean_candidates_per_name: ratio(pairs, names),
            max_candidates_per_name: max_candidates,
            links: kb.links().edge_count(),
            mean_inlinks: ratio(kb.links().edge_count(), entities),
            distinct_keyphrases: kb.phrase_count(),
            mean_keyphrases_per_entity: ratio(total_keyphrases, entities),
        }
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityKind;
    use crate::{FrozenKb, KbBuilder};

    #[test]
    fn stats_of_small_kb() {
        let mut b = KbBuilder::new();
        let a = b.add_entity("A Band", EntityKind::Organization);
        let c = b.add_entity("A City", EntityKind::Location);
        b.add_name(a, "A", 1);
        b.add_name(c, "A", 1);
        b.add_keyphrase(a, "rock band", 1);
        b.add_keyphrase(a, "tour bus", 1);
        b.add_keyphrase(c, "rock band", 1);
        b.add_link(a, c);
        let kb = FrozenKb::freeze(&b.build());
        let s = KbStats::of(&kb);
        assert_eq!(s.entities, 2);
        // Names: "A BAND", "A CITY", "A" (canonical titles + shared alias).
        assert_eq!(s.names, 3);
        assert_eq!(s.name_entity_pairs, 4);
        assert_eq!(s.max_candidates_per_name, 2);
        assert_eq!(s.links, 1);
        assert_eq!(s.distinct_keyphrases, 2);
        assert!((s.mean_keyphrases_per_entity - 1.5).abs() < 1e-12);
    }

    #[test]
    fn stats_of_empty_kb() {
        let kb = FrozenKb::freeze(&KbBuilder::new().build());
        let s = KbStats::of(&kb);
        assert_eq!(s.entities, 0);
        assert_eq!(s.mean_inlinks, 0.0);
    }
}
