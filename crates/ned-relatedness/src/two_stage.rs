//! The two-stage hashing acceleration of KORE (§4.4.2).
//!
//! **Stage 1 (precomputed per knowledge base):** every keyphrase is min-hash
//! sketched over its keywords (4 samples), banded into 2 bands of 2, and each
//! band combined by summation — so each phrase is represented by two
//! phrase-bucket ids, grouping near-duplicate phrases while preserving the
//! notion of partial overlap.
//!
//! **Stage 2 (precomputed per entity):** each entity is the set of its
//! phrase-bucket ids; these sets are min-hash sketched and banded again,
//! giving each entity one bucket key per band. Exact KORE is computed only
//! for entity pairs sharing at least one stage-2 bucket; all other pairs
//! are assumed unrelated.
//!
//! [`KoreLsh`] is an ordinary [`Relatedness`] measure: it scores exact KORE
//! for an entity with itself and for two entities that share a bucket-key
//! value, and `+0.0` for every other pair. "Sharing a bucket" is a join on
//! key values, so its [`Relatedness::nonzero_pairs`] is the same postings
//! join the other measures run over their dimensions
//! ([`shared_dimension_pairs`]); no hash table is built per input set.
//!
//! Two configurations from §4.4.2:
//! - **KORE-LSH-G** ("good"): 200 bands of size 1 — high recall, moderate
//!   speed-up.
//! - **KORE-LSH-F** ("fast"): 1000 bands of size 2 — higher precision
//!   pruning, order-of-magnitude fewer comparisons.

use std::cmp::Ordering;

use ned_kb::{EntityId, KbView, PhraseId};

use crate::kore::Kore;
use crate::lsh::Banding;
use crate::minhash::MinHasher;
use crate::pair_selection::shared_dimension_pairs;
use crate::traits::Relatedness;

/// Parameters of the two-stage hashing scheme.
#[derive(Debug, Clone, Copy)]
pub struct TwoStageConfig {
    /// Stage-1 banding over the 4-sample phrase sketches.
    pub phrase_banding: Banding,
    /// Stage-2 banding over entity bucket-id sets.
    pub entity_banding: Banding,
    /// Seed for all hash families.
    pub seed: u64,
    /// Display name.
    pub name: &'static str,
}

impl TwoStageConfig {
    /// KORE-LSH-G: recall-oriented (200 bands of size 1).
    pub fn lsh_g() -> Self {
        TwoStageConfig {
            phrase_banding: Banding { bands: 2, rows: 2 },
            entity_banding: Banding { bands: 200, rows: 1 },
            seed: 0x4b4f_5245,
            name: "KORE-LSH-G",
        }
    }

    /// KORE-LSH-F: speed-oriented (1000 bands of size 2).
    pub fn lsh_f() -> Self {
        TwoStageConfig {
            phrase_banding: Banding { bands: 2, rows: 2 },
            entity_banding: Banding { bands: 1000, rows: 2 },
            seed: 0x4b4f_5245,
            name: "KORE-LSH-F",
        }
    }
}

/// KORE with two-stage LSH pruning.
///
/// Both stages' sketches are precomputed at construction time — the thesis
/// keeps the per-entity sketches in main memory ("merely requiring about
/// 2 GBytes" for 3M entities, §4.4.2) — and so are the stage-2 bucket keys
/// the measure joins on.
pub struct KoreLsh {
    kore: Kore,
    config: TwoStageConfig,
    /// Per entity: its stage-2 bucket keys (one per band), sorted and
    /// deduplicated; empty for entities without keyphrases.
    entity_keys: Vec<Vec<u64>>,
}

// Manual Debug: per-entity sketch tables are megabytes of noise.
impl std::fmt::Debug for KoreLsh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KoreLsh")
            .field("config", &self.config)
            .field("entities", &self.entity_keys.len())
            .finish_non_exhaustive()
    }
}

impl KoreLsh {
    /// Precomputes stage-1 phrase buckets and stage-2 entity bucket keys
    /// for all entities of `kb`. Like [`Kore`], the result owns all of its
    /// precomputation and keeps no reference to `kb`.
    pub fn new<K: KbView>(kb: &K, config: TwoStageConfig) -> Self {
        let phrase_hasher = MinHasher::new(config.phrase_banding.sketch_len(), config.seed);
        let phrase_buckets: Vec<Vec<u64>> = (0..kb.phrase_count())
            .map(|pi| {
                let words = kb.phrase_words(PhraseId::from_index(pi));
                let sketch = phrase_hasher.sketch(words.iter().map(|w| u64::from(w.0)));
                config.phrase_banding.bucket_keys(&sketch)
            })
            .collect();
        let entity_hasher =
            MinHasher::new(config.entity_banding.sketch_len(), config.seed ^ 0xa5);
        let entity_keys = kb
            .entity_ids()
            .map(|e| {
                let mut buckets: Vec<u64> = kb
                    .keyphrases(e)
                    .iter()
                    .filter_map(|ep| phrase_buckets.get(ep.phrase.index()))
                    .flatten()
                    .copied()
                    .collect();
                if buckets.is_empty() {
                    return Vec::new();
                }
                buckets.sort_unstable();
                buckets.dedup();
                let sketch = entity_hasher.sketch(buckets.iter().copied());
                let mut keys = config.entity_banding.bucket_keys(&sketch);
                keys.sort_unstable();
                keys.dedup();
                keys
            })
            .collect();
        KoreLsh { kore: Kore::new(kb), config, entity_keys }
    }

    /// The sorted stage-2 bucket keys of `e`; empty when it has none.
    fn keys(&self, e: EntityId) -> &[u64] {
        self.entity_keys.get(e.index()).map_or(&[], Vec::as_slice)
    }
}

/// True when the sorted lists `a` and `b` hold a common value.
fn share_a_key(mut a: &[u64], mut b: &[u64]) -> bool {
    while let (Some((x, a_rest)), Some((y, b_rest))) = (a.split_first(), b.split_first()) {
        match x.cmp(y) {
            Ordering::Less => a = a_rest,
            Ordering::Greater => b = b_rest,
            Ordering::Equal => return true,
        }
    }
    false
}

impl Relatedness for KoreLsh {
    fn name(&self) -> &'static str {
        self.config.name
    }

    /// Exact KORE when `a == b` or when the two entities share a stage-2
    /// bucket-key value; `+0.0` otherwise, without computing KORE.
    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        if a == b || share_a_key(self.keys(a), self.keys(b)) {
            self.kore.relatedness(a, b)
        } else {
            0.0
        }
    }

    /// The pairs that share a bucket-key value, plus the diagonal of every
    /// entity with keys ([`shared_dimension_pairs`] over the keys). An
    /// entity without keys has no keyphrases, so its exact KORE with itself
    /// is `+0.0` too.
    fn nonzero_pairs(&self, entities: &[EntityId], out: &mut Vec<(u32, u32)>) {
        shared_dimension_pairs(entities, |e| self.keys(e).iter().copied(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pair_selection::off_diagonal_pairs;
    use crate::pair_selection::tests::{ops_strategy, two_backends};
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};

    /// Two clusters of entities with heavy intra-cluster phrase sharing.
    fn kb() -> (FrozenKb, Vec<EntityId>) {
        let mut b = KbBuilder::new();
        let mut ids = Vec::new();
        for i in 0..4 {
            let e = b.add_entity(&format!("Rock {i}"), EntityKind::Person);
            b.add_keyphrase(e, "hard rock band", 3);
            b.add_keyphrase(e, "electric guitar solo", 2);
            b.add_keyphrase(e, &format!("rock album {i}"), 1);
            ids.push(e);
        }
        for i in 0..4 {
            let e = b.add_entity(&format!("Politics {i}"), EntityKind::Person);
            b.add_keyphrase(e, "foreign trade policy", 3);
            b.add_keyphrase(e, "parliament election campaign", 2);
            b.add_keyphrase(e, &format!("political party {i}"), 1);
            ids.push(e);
        }
        (FrozenKb::freeze(&b.build()), ids)
    }

    #[test]
    fn lsh_g_keeps_intra_cluster_pairs() {
        let (kb, ids) = kb();
        let pairs = off_diagonal_pairs(&KoreLsh::new(&kb, TwoStageConfig::lsh_g()), &ids);
        // Same-cluster pairs share identical phrases → must survive.
        assert!(pairs.contains(&(ids[0], ids[1])));
        assert!(pairs.contains(&(ids[4], ids[5])));
    }

    #[test]
    fn lsh_prunes_cross_cluster_pairs() {
        let (kb, ids) = kb();
        let lsh = KoreLsh::new(&kb, TwoStageConfig::lsh_f());
        // Cross-cluster: zero phrase overlap → should be pruned.
        assert!(!off_diagonal_pairs(&lsh, &ids).contains(&(ids[0], ids[5])));
        assert_eq!(lsh.relatedness(ids[0], ids[5]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn f_prunes_at_least_as_much_as_g() {
        let (kb, ids) = kb();
        let g = off_diagonal_pairs(&KoreLsh::new(&kb, TwoStageConfig::lsh_g()), &ids).len();
        let f = off_diagonal_pairs(&KoreLsh::new(&kb, TwoStageConfig::lsh_f()), &ids).len();
        assert!(f <= g, "F kept {f} pairs, G kept {g}");
        assert!(g < ids.len() * (ids.len() - 1) / 2, "G kept every pair");
    }

    #[test]
    fn keys_are_shared_by_sorted_merge() {
        assert!(share_a_key(&[1, 5, 9], &[2, 9]));
        assert!(!share_a_key(&[1, 5, 9], &[2, 6, 10]));
        assert!(!share_a_key(&[], &[1]));
    }

    #[test]
    fn empty_entity_set() {
        let (kb, _) = kb();
        let lsh = KoreLsh::new(&kb, TwoStageConfig::lsh_g());
        assert!(off_diagonal_pairs(&lsh, &[]).is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Both variants list off the diagonal exactly the pairs a naive
        /// all-pairs scan finds sharing a bucket-key value, and score every
        /// listed pair (the diagonal included) as exact KORE, bit for bit.
        /// Queries repeat entities, and some entities have no keyphrases.
        #[test]
        fn pairs_match_the_naive_key_reference(
            case in ops_strategy(),
            query in proptest::collection::vec(0u32..64, 0..12),
        ) {
            let (kb, _) = two_backends(&case.0, case.1);
            let n = kb.entity_count() as u32;
            let ids: Vec<EntityId> = query.iter().map(|&q| EntityId(q % n)).collect();
            let kore = Kore::new(&kb);
            for config in [TwoStageConfig::lsh_g(), TwoStageConfig::lsh_f()] {
                let lsh = KoreLsh::new(&kb, config);
                let naive: Vec<(EntityId, EntityId)> = ids
                    .iter()
                    .enumerate()
                    .flat_map(|(i, &a)| ids[i + 1..].iter().map(move |&b| (a, b)))
                    .filter(|&(a, b)| lsh.keys(a).iter().any(|k| lsh.keys(b).contains(k)))
                    .collect();
                proptest::prop_assert_eq!(off_diagonal_pairs(&lsh, &ids), naive);
                let mut listed = Vec::new();
                lsh.nonzero_pairs(&ids, &mut listed);
                for (i, j) in listed {
                    let (a, b) = (ids[i as usize], ids[j as usize]);
                    proptest::prop_assert_eq!(
                        lsh.relatedness(a, b).to_bits(),
                        kore.relatedness(a, b).to_bits()
                    );
                }
            }
        }
    }
}
