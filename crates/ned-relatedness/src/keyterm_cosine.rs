//! Keyterm cosine relatedness (Eq. 4.2).
//!
//! The link-free baselines of §4.3.2: entities are cast into weighted
//! vectors of keyterms and compared by cosine similarity.
//!
//! - **KPCS** (keyphrase cosine): one dimension per keyphrase, weighted by
//!   the entity-specific µ-MI weight (Eq. 4.1).
//! - **KWCS** (keyword cosine): one dimension per keyword derived by
//!   tokenizing the keyphrases; per §4.3.2 the word weight is the word's
//!   global IDF multiplied by the average µ weight of the phrases the word
//!   was taken from.

use ned_kb::fx::FxHashMap;
use ned_kb::{EntityId, KbView, PhraseId, WordId};

use crate::pair_selection::shared_dimension_pairs;
use crate::traits::Relatedness;

/// A sparse unit-normalizable vector: sorted (dimension, weight) pairs.
#[derive(Debug, Clone, Default)]
struct SparseVec {
    entries: Vec<(u32, f64)>,
    norm: f64,
}

impl SparseVec {
    fn from_map(map: FxHashMap<u32, f64>) -> Self {
        let mut entries: Vec<(u32, f64)> = map.into_iter().collect();
        entries.sort_unstable_by_key(|&(d, _)| d);
        let norm = entries.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt();
        SparseVec { entries, norm }
    }

    fn cosine(&self, other: &Self) -> f64 {
        if self.norm == 0.0 || other.norm == 0.0 {
            return 0.0;
        }
        let mut dot = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            match self.entries[i].0.cmp(&other.entries[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += self.entries[i].1 * other.entries[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        (dot / (self.norm * other.norm)).clamp(0.0, 1.0)
    }
}

/// The pairs of `entities` whose vectors share a dimension, plus the
/// diagonal of every nonzero vector ([`shared_dimension_pairs`]). Every
/// weight is positive, so the cosine of any other pair is `+0.0`.
fn cosine_pairs(vectors: &[SparseVec], entities: &[EntityId], out: &mut Vec<(u32, u32)>) {
    let dims = |e: EntityId| {
        vectors.get(e.index()).map_or(&[][..], |v| &v.entries).iter().map(|&(d, _)| d)
    };
    shared_dimension_pairs(entities, dims, out);
}

/// Keyphrase cosine similarity (KPCS): dimensions are phrase ids, weights
/// are µ-MI.
#[derive(Debug)]
pub struct KeyphraseCosine {
    vectors: Vec<SparseVec>,
}

impl KeyphraseCosine {
    /// Precomputes the phrase vector of every entity in `kb`.
    pub fn new<K: KbView>(kb: &K) -> Self {
        let weights = kb.weights();
        let vectors = kb
            .entity_ids()
            .map(|e| {
                let map: FxHashMap<u32, f64> = weights
                    .phrase_mi_row(e)
                    .iter()
                    .filter(|&&(_, w)| w > 0.0)
                    .map(|&(PhraseId(p), w)| (p, w))
                    .collect();
                SparseVec::from_map(map)
            })
            .collect();
        KeyphraseCosine { vectors }
    }
}

impl Relatedness for KeyphraseCosine {
    fn name(&self) -> &'static str {
        "KPCS"
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        self.vectors[a.index()].cosine(&self.vectors[b.index()])
    }

    fn nonzero_pairs(&self, entities: &[EntityId], out: &mut Vec<(u32, u32)>) {
        cosine_pairs(&self.vectors, entities, out);
    }
}

/// Keyword cosine similarity (KWCS): dimensions are word ids, weights are
/// `idf(w) · mean µ of the phrases containing w`.
#[derive(Debug)]
pub struct KeywordCosine {
    vectors: Vec<SparseVec>,
}

impl KeywordCosine {
    /// Precomputes the keyword vector of every entity in `kb`.
    pub fn new<K: KbView>(kb: &K) -> Self {
        let weights = kb.weights();
        let vectors = kb
            .entity_ids()
            .map(|e| {
                // Accumulate (Σ phrase µ, phrase count) per word.
                let mut acc: FxHashMap<u32, (f64, u32)> = FxHashMap::default();
                for &(p, mu) in weights.phrase_mi_row(e) {
                    for &WordId(w) in kb.phrase_words(p) {
                        let slot = acc.entry(w).or_insert((0.0, 0));
                        slot.0 += mu;
                        slot.1 += 1;
                    }
                }
                let map: FxHashMap<u32, f64> = acc
                    .into_iter()
                    .filter_map(|(w, (mu_sum, n))| {
                        let mean_mu = mu_sum / f64::from(n);
                        let weight = kb.weights().word_idf(WordId(w)) * mean_mu;
                        (weight > 0.0).then_some((w, weight))
                    })
                    .collect();
                SparseVec::from_map(map)
            })
            .collect();
        KeywordCosine { vectors }
    }
}

impl Relatedness for KeywordCosine {
    fn name(&self) -> &'static str {
        "KWCS"
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        self.vectors[a.index()].cosine(&self.vectors[b.index()])
    }

    fn nonzero_pairs(&self, entities: &[EntityId], out: &mut Vec<(u32, u32)>) {
        cosine_pairs(&self.vectors, entities, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};

    /// Three musicians sharing phrases, one unrelated politician.
    fn kb() -> (FrozenKb, Vec<EntityId>) {
        let mut b = KbBuilder::new();
        let page = b.add_entity("Jimmy Page", EntityKind::Person);
        let plant = b.add_entity("Robert Plant", EntityKind::Person);
        let dylan = b.add_entity("Bob Dylan", EntityKind::Person);
        let pol = b.add_entity("Some Politician", EntityKind::Person);
        b.add_keyphrase(page, "hard rock", 3);
        b.add_keyphrase(page, "Led Zeppelin", 5);
        b.add_keyphrase(page, "electric guitar", 2);
        b.add_keyphrase(plant, "hard rock", 2);
        b.add_keyphrase(plant, "Led Zeppelin", 4);
        b.add_keyphrase(plant, "rock singer", 3);
        b.add_keyphrase(dylan, "folk singer", 4);
        b.add_keyphrase(dylan, "acoustic guitar", 2);
        b.add_keyphrase(pol, "foreign policy", 4);
        b.add_keyphrase(pol, "trade agreement", 3);
        (FrozenKb::freeze(&b.build()), vec![page, plant, dylan, pol])
    }

    #[test]
    fn kpcs_ranks_shared_phrases_higher() {
        let (kb, e) = kb();
        let m = KeyphraseCosine::new(&kb);
        let page_plant = m.relatedness(e[0], e[1]);
        let page_pol = m.relatedness(e[0], e[3]);
        assert!(page_plant > page_pol, "{page_plant} vs {page_pol}");
        assert_eq!(page_pol, 0.0);
    }

    #[test]
    fn kwcs_catches_partial_word_overlap() {
        let (kb, e) = kb();
        let kpcs = KeyphraseCosine::new(&kb);
        let kwcs = KeywordCosine::new(&kb);
        // Page and Dylan share no phrase but share the word "guitar".
        assert_eq!(kpcs.relatedness(e[0], e[2]), 0.0);
        assert!(kwcs.relatedness(e[0], e[2]) > 0.0);
    }

    #[test]
    fn cosine_is_symmetric_and_bounded() {
        let (kb, e) = kb();
        for m in [&KeyphraseCosine::new(&kb) as &dyn Relatedness, &KeywordCosine::new(&kb)] {
            for &a in &e {
                for &b in &e {
                    let v = m.relatedness(a, b);
                    assert!((0.0..=1.0).contains(&v));
                    assert!((v - m.relatedness(b, a)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn self_similarity_is_one() {
        let (kb, e) = kb();
        let m = KeyphraseCosine::new(&kb);
        for &a in &e {
            assert!((m.relatedness(a, a) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn entity_without_phrases_has_zero_vector() {
        let mut b = KbBuilder::new();
        let x = b.add_entity("X", EntityKind::Other);
        let y = b.add_entity("Y", EntityKind::Other);
        b.add_keyphrase(y, "some phrase", 1);
        let kb = FrozenKb::freeze(&b.build());
        let m = KeyphraseCosine::new(&kb);
        assert_eq!(m.relatedness(x, y), 0.0);
        assert_eq!(m.relatedness(x, x), 0.0);
    }
}
