//! The two-stage hashing acceleration of KORE (§4.4.2).
//!
//! **Stage 1 (precomputed per knowledge base):** every keyphrase is min-hash
//! sketched over its keywords (4 samples), banded into 2 bands of 2, and each
//! band combined by summation — so each phrase is represented by two
//! phrase-bucket ids, grouping near-duplicate phrases while preserving the
//! notion of partial overlap.
//!
//! **Stage 2 (at query time, for the input entity set):** each entity is the
//! set of its phrase-bucket ids; these sets are min-hash sketched and banded
//! again. Exact KORE is computed only for entity pairs sharing at least one
//! stage-2 bucket; all other pairs are assumed unrelated.
//!
//! Two configurations from §4.4.2:
//! - **KORE-LSH-G** ("good"): 200 bands of size 1 — high recall, moderate
//!   speed-up.
//! - **KORE-LSH-F** ("fast"): 1000 bands of size 2 — higher precision
//!   pruning, order-of-magnitude fewer comparisons.

use ned_kb::fx::{FxHashMap, FxHashSet};
use ned_kb::{EntityId, KbView, PhraseId};

use crate::kore::Kore;
use crate::lsh::{Banding, LshTable};
use crate::minhash::MinHasher;
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
/// 2 GBytes" for 3M entities, §4.4.2); only the LSH hashtables are built
/// per input entity set.
pub struct KoreLsh {
    kore: Kore,
    config: TwoStageConfig,
    /// Per entity: precomputed stage-2 bucket keys (one per band), or
    /// `None` for entities without keyphrases.
    entity_keys: Vec<Option<Vec<u64>>>,
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
    /// Precomputes stage-1 phrase buckets and stage-2 entity sketches for
    /// all entities of `kb`. Like [`Kore`], the result owns all of its
    /// precomputation and keeps no reference to `kb`.
    pub fn new<K: KbView>(kb: &K, config: TwoStageConfig) -> Self {
        let phrase_hasher = MinHasher::new(config.phrase_banding.sketch_len(), config.seed);
        let n_phrases = kb.phrase_count();
        let mut phrase_buckets: Vec<Vec<u64>> = Vec::with_capacity(n_phrases);
        for pi in 0..n_phrases {
            let p = PhraseId::from_index(pi);
            let sketch =
                phrase_hasher.sketch(kb.phrase_words(p).iter().map(|w| u64::from(w.0)));
            phrase_buckets.push(config.phrase_banding.bucket_keys(&sketch));
        }
        let entity_hasher =
            MinHasher::new(config.entity_banding.sketch_len(), config.seed ^ 0xa5);
        let entity_keys = kb
            .entity_ids()
            .map(|e| {
                let mut buckets: Vec<u64> = kb
                    .keyphrases(e)
                    .iter()
                    .flat_map(|ep| phrase_buckets[ep.phrase.index()].iter().copied())
                    .collect();
                if buckets.is_empty() {
                    return None;
                }
                buckets.sort_unstable();
                buckets.dedup();
                let sketch = entity_hasher.sketch(buckets.iter().copied());
                Some(config.entity_banding.bucket_keys(&sketch))
            })
            .collect();
        KoreLsh { kore: Kore::new(kb), config, entity_keys }
    }

    /// Display name of the configuration.
    pub fn name(&self) -> &'static str {
        self.config.name
    }

    /// The underlying exact measure.
    pub fn exact(&self) -> &Kore {
        &self.kore
    }

    /// Builds the stage-2 LSH tables for `entities` and returns the set of
    /// unordered candidate pairs (indices into `entities`).
    pub fn candidate_pairs(&self, entities: &[EntityId]) -> Vec<(u32, u32)> {
        let mut table = LshTable::new();
        for (i, &e) in entities.iter().enumerate() {
            if let Some(keys) = &self.entity_keys[e.index()] {
                table.insert(i as u32, keys);
            }
        }
        table.candidate_pairs()
    }

    /// Computes relatedness for an input entity set: exact KORE on LSH
    /// candidate pairs, 0 elsewhere. Returns a scoped measure implementing
    /// [`Relatedness`] plus comparison statistics.
    pub fn scoped(&self, entities: &[EntityId]) -> ScopedKoreLsh<'_> {
        let pairs = self.candidate_pairs(entities);
        let mut allowed: FxHashSet<(EntityId, EntityId)> = FxHashSet::default();
        for (i, j) in pairs {
            let (a, b) = (entities[i as usize], entities[j as usize]);
            allowed.insert(ordered(a, b));
        }
        ScopedKoreLsh { parent: self, allowed }
    }
}

fn ordered(a: EntityId, b: EntityId) -> (EntityId, EntityId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A [`KoreLsh`] restricted to an input entity set: pairs pruned by LSH
/// score 0 without computing exact KORE.
pub struct ScopedKoreLsh<'a> {
    parent: &'a KoreLsh,
    allowed: FxHashSet<(EntityId, EntityId)>,
}

impl std::fmt::Debug for ScopedKoreLsh<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedKoreLsh")
            .field("parent", &self.parent)
            .field("surviving_pairs", &self.allowed.len())
            .finish()
    }
}

impl ScopedKoreLsh<'_> {
    /// Number of pairs that survive LSH pruning (= exact computations).
    pub fn surviving_pairs(&self) -> usize {
        self.allowed.len()
    }

    /// True if the pair survived pruning.
    pub fn is_candidate(&self, a: EntityId, b: EntityId) -> bool {
        self.allowed.contains(&ordered(a, b))
    }
}

impl Relatedness for ScopedKoreLsh<'_> {
    fn name(&self) -> &'static str {
        self.parent.config.name
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        if a == b || self.allowed.contains(&ordered(a, b)) {
            self.parent.kore.relatedness(a, b)
        } else {
            0.0
        }
    }
}

/// Relatedness of all unordered pairs in `entities` under any measure; the
/// naive all-pairs loop used to report comparison counts (Table 4.4).
pub fn all_pairs_relatedness<M: Relatedness>(
    measure: &M,
    entities: &[EntityId],
) -> FxHashMap<(EntityId, EntityId), f64> {
    let mut out = FxHashMap::default();
    for (i, &a) in entities.iter().enumerate() {
        for &b in &entities[i + 1..] {
            out.insert(ordered(a, b), measure.relatedness(a, b));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let lsh = KoreLsh::new(&kb, TwoStageConfig::lsh_g());
        let scoped = lsh.scoped(&ids);
        // Same-cluster pairs share identical phrases → must survive.
        assert!(scoped.is_candidate(ids[0], ids[1]));
        assert!(scoped.is_candidate(ids[4], ids[5]));
    }

    #[test]
    fn lsh_prunes_cross_cluster_pairs() {
        let (kb, ids) = kb();
        let lsh = KoreLsh::new(&kb, TwoStageConfig::lsh_f());
        let scoped = lsh.scoped(&ids);
        // Cross-cluster: zero phrase overlap → should be pruned.
        assert!(!scoped.is_candidate(ids[0], ids[5]));
        assert_eq!(scoped.relatedness(ids[0], ids[5]), 0.0);
    }

    #[test]
    fn surviving_pairs_bounded_by_all_pairs() {
        let (kb, ids) = kb();
        for config in [TwoStageConfig::lsh_g(), TwoStageConfig::lsh_f()] {
            let lsh = KoreLsh::new(&kb, config);
            let scoped = lsh.scoped(&ids);
            let all = ids.len() * (ids.len() - 1) / 2;
            assert!(scoped.surviving_pairs() <= all);
        }
    }

    #[test]
    fn scoped_scores_match_exact_on_candidates() {
        let (kb, ids) = kb();
        let lsh = KoreLsh::new(&kb, TwoStageConfig::lsh_g());
        let scoped = lsh.scoped(&ids);
        let exact = lsh.exact();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                if scoped.is_candidate(a, b) {
                    assert_eq!(scoped.relatedness(a, b), exact.relatedness(a, b));
                }
            }
        }
    }

    #[test]
    fn f_prunes_at_least_as_much_as_g() {
        let (kb, ids) = kb();
        let g = KoreLsh::new(&kb, TwoStageConfig::lsh_g()).scoped(&ids).surviving_pairs();
        let f = KoreLsh::new(&kb, TwoStageConfig::lsh_f()).scoped(&ids).surviving_pairs();
        assert!(f <= g, "F kept {f} pairs, G kept {g}");
    }

    #[test]
    fn all_pairs_helper_counts() {
        let (kb, ids) = kb();
        let kore = Kore::new(&kb);
        let map = all_pairs_relatedness(&kore, &ids[..4]);
        assert_eq!(map.len(), 6);
    }

    #[test]
    fn empty_entity_set() {
        let (kb, _) = kb();
        let lsh = KoreLsh::new(&kb, TwoStageConfig::lsh_g());
        assert!(lsh.candidate_pairs(&[]).is_empty());
    }
}
