//! KORE: keyphrase overlap relatedness (Eqs. 4.3–4.4).
//!
//! Entities are sets of weighted keyphrases; phrases are sets of weighted
//! keywords. The phrase overlap of two phrases is the weighted Jaccard
//! similarity of their keywords (Eq. 4.3):
//!
//! `PO(p, q) = Σ_{w∈p∩q} min(γ(w), γ(w)) / Σ_{w∈p∪q} max(γ(w), γ(w))`
//!
//! and KORE aggregates squared overlaps over all phrase pairs, re-weighted
//! by the lesser phrase weight and normalized by the total phrase-weight
//! mass of both entities (Eq. 4.4):
//!
//! `KORE(e, f) = Σ_{p,q} PO(p,q)² · min(ϕe(p), ϕf(q)) /
//!               (Σ_p ϕe(p) + Σ_q ϕf(q))`
//!
//! Per §4.5.2 the best configuration uses µ-MI weights for phrases (ϕ) and
//! IDF weights for keywords (γ), which is what this implementation uses.
//! Note that the measure is *not* normalized to reach 1 at self-similarity;
//! it is symmetric and non-negative, and in practice lies well inside
//! [0, 1].

use ned_kb::fx::FxHashMap;
use ned_kb::{EntityId, KbView, PhraseId, WordId};

use crate::pair_selection::shared_dimension_pairs;
use crate::traits::Relatedness;

/// Per-phrase precomputation: sorted keyword ids with IDF weights, plus the
/// total IDF mass of the phrase.
#[derive(Debug, Clone)]
struct PhraseInfo {
    words: Vec<(WordId, f64)>,
    idf_sum: f64,
}

/// Per-entity precomputation: keyphrases with µ weights and the weight mass.
#[derive(Debug, Clone, Default)]
struct EntityInfo {
    phrases: Vec<(PhraseId, f64)>,
    weight_mass: f64,
    /// Inverted index: keyword → indexes into `phrases` whose phrase
    /// contains the keyword.
    word_index: FxHashMap<WordId, Vec<u32>>,
    /// The keywords with positive IDF of `phrases`, ascending: KORE is
    /// `+0.0` for two entities that share none of them.
    keywords: Vec<WordId>,
}

/// Exact KORE relatedness.
#[derive(Debug)]
pub struct Kore {
    phrase_infos: Vec<PhraseInfo>,
    entity_infos: Vec<EntityInfo>,
}

impl Kore {
    /// Precomputes phrase keyword weights and entity phrase weights.
    /// `Kore` owns its precomputation and keeps no reference to `kb`.
    pub fn new<K: KbView>(kb: &K) -> Self {
        let weights = kb.weights();
        let phrase_infos = (0..kb.phrase_count())
            .map(|pi| {
                let p = PhraseId::from_index(pi);
                let mut words: Vec<(WordId, f64)> = kb
                    .phrase_words(p)
                    .iter()
                    .map(|&w| (w, weights.word_idf(w)))
                    .collect();
                words.sort_unstable_by_key(|&(w, _)| w);
                words.dedup_by_key(|&mut (w, _)| w);
                let idf_sum = words.iter().map(|&(_, idf)| idf).sum();
                PhraseInfo { words, idf_sum }
            })
            .collect();

        let entity_infos = kb
            .entity_ids()
            .map(|e| {
                let phrases: Vec<(PhraseId, f64)> = weights
                    .phrase_mi_row(e)
                    .iter()
                    .filter(|&&(_, mu)| mu > 0.0)
                    .copied()
                    .collect();
                let weight_mass = phrases.iter().map(|&(_, mu)| mu).sum();
                let mut word_index: FxHashMap<WordId, Vec<u32>> = FxHashMap::default();
                for (idx, &(p, _)) in phrases.iter().enumerate() {
                    for &w in kb.phrase_words(p) {
                        word_index.entry(w).or_default().push(idx as u32);
                    }
                }
                for list in word_index.values_mut() {
                    list.dedup();
                }
                let mut keywords: Vec<WordId> =
                    word_index.keys().copied().filter(|&w| weights.word_idf(w) > 0.0).collect();
                keywords.sort_unstable();
                EntityInfo { phrases, weight_mass, word_index, keywords }
            })
            .collect();

        Kore { phrase_infos, entity_infos }
    }

    /// Phrase overlap PO (Eq. 4.3) between two precomputed phrases.
    fn phrase_overlap(&self, p: PhraseId, q: PhraseId) -> f64 {
        let pa = &self.phrase_infos[p.index()];
        let pb = &self.phrase_infos[q.index()];
        if pa.idf_sum <= 0.0 && pb.idf_sum <= 0.0 {
            return 0.0;
        }
        let mut inter = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < pa.words.len() && j < pb.words.len() {
            match pa.words[i].0.cmp(&pb.words[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += pa.words[i].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        if inter <= 0.0 {
            return 0.0;
        }
        let union = pa.idf_sum + pb.idf_sum - inter;
        if union <= 0.0 {
            return 0.0;
        }
        (inter / union).clamp(0.0, 1.0)
    }
}

impl Relatedness for Kore {
    fn name(&self) -> &'static str {
        "KORE"
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        // The loop below adds its terms in an order that depends on which
        // entity comes first; fixing the orientation keeps the measure
        // symmetric bit for bit.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let ea = &self.entity_infos[a.index()];
        let eb = &self.entity_infos[b.index()];
        let denom = ea.weight_mass + eb.weight_mass;
        if denom <= 0.0 {
            return 0.0;
        }
        // Only phrase pairs sharing at least one keyword have PO > 0; walk
        // the smaller entity's phrases and use the other's inverted index.
        let (small, large) = if ea.phrases.len() <= eb.phrases.len() { (ea, eb) } else { (eb, ea) };
        let mut numer = 0.0;
        let mut seen: Vec<u32> = Vec::new();
        for &(p, wp) in &small.phrases {
            seen.clear();
            for &(w, _) in &self.phrase_infos[p.index()].words {
                if let Some(cands) = large.word_index.get(&w) {
                    for &qi in cands {
                        if seen.contains(&qi) {
                            continue;
                        }
                        seen.push(qi);
                        let (q, wq) = large.phrases[qi as usize];
                        let po = self.phrase_overlap(p, q);
                        if po > 0.0 {
                            numer += po * po * wp.min(wq);
                        }
                    }
                }
            }
        }
        numer / denom
    }

    /// The pairs that share a keyword with positive IDF in phrases of
    /// positive µ ([`shared_dimension_pairs`]), plus the diagonal of every
    /// entity that has such a keyword. For any other pair every phrase
    /// overlap is 0, so the numerator stays `+0.0`.
    fn nonzero_pairs(&self, entities: &[EntityId], out: &mut Vec<(u32, u32)>) {
        let keywords = |e: EntityId| {
            self.entity_infos.get(e.index()).map_or(&[][..], |info| &info.keywords).iter().copied()
        };
        shared_dimension_pairs(entities, keywords, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};

    /// Nick Cave / Hallelujah (song) fixture from §4.1: the song is
    /// link-poor but shares salient keyphrases with the singer.
    fn kb() -> (FrozenKb, Vec<EntityId>) {
        let mut b = KbBuilder::new();
        let cave = b.add_entity("Nick Cave", EntityKind::Person);
        let song = b.add_entity("Hallelujah (Nick Cave song)", EntityKind::Work);
        let cohen = b.add_entity("Leonard Cohen", EntityKind::Person);
        let pol = b.add_entity("German President", EntityKind::Person);
        b.add_keyphrase(cave, "Australian singer", 4);
        b.add_keyphrase(cave, "Bad Seeds", 5);
        b.add_keyphrase(cave, "No More Shall We Part", 2);
        b.add_keyphrase(song, "Australian male singer", 2);
        b.add_keyphrase(song, "Bad Seeds", 3);
        b.add_keyphrase(song, "eerie cello", 1);
        b.add_keyphrase(cohen, "Canadian singer", 4);
        b.add_keyphrase(cohen, "Hallelujah composition", 3);
        b.add_keyphrase(pol, "federal assembly", 3);
        b.add_keyphrase(pol, "state visit", 2);
        (FrozenKb::freeze(&b.build()), vec![cave, song, cohen, pol])
    }

    #[test]
    fn related_entities_score_higher_than_unrelated() {
        let (kb, e) = kb();
        let kore = Kore::new(&kb);
        let cave_song = kore.relatedness(e[0], e[1]);
        let cave_pol = kore.relatedness(e[0], e[3]);
        assert!(cave_song > 0.0);
        assert_eq!(cave_pol, 0.0);
    }

    #[test]
    fn partial_phrase_matches_contribute() {
        let (kb, e) = kb();
        let kore = Kore::new(&kb);
        // "Australian singer" vs "Australian male singer" overlap partially;
        // Cave–Cohen share only the word "singer".
        let cave_cohen = kore.relatedness(e[0], e[2]);
        assert!(cave_cohen > 0.0);
        assert!(kore.relatedness(e[0], e[1]) > cave_cohen);
    }

    #[test]
    fn symmetric_and_nonnegative() {
        let (kb, e) = kb();
        let kore = Kore::new(&kb);
        for &a in &e {
            for &b in &e {
                let v = kore.relatedness(a, b);
                assert!(v >= 0.0);
                assert!((v - kore.relatedness(b, a)).abs() < 1e-12, "asymmetric at {a:?},{b:?}");
            }
        }
    }

    #[test]
    fn exact_phrase_match_beats_partial() {
        let mut b = KbBuilder::new();
        let x = b.add_entity("X", EntityKind::Other);
        let exact = b.add_entity("Exact", EntityKind::Other);
        let partial = b.add_entity("Partial", EntityKind::Other);
        let noise = b.add_entity("Noise", EntityKind::Other);
        b.add_keyphrase(x, "English rock guitarist", 1);
        b.add_keyphrase(exact, "English rock guitarist", 1);
        b.add_keyphrase(partial, "English guitarist", 1);
        b.add_keyphrase(noise, "completely unrelated topic", 1);
        let kb = FrozenKb::freeze(&b.build());
        let kore = Kore::new(&kb);
        assert!(kore.relatedness(x, exact) > kore.relatedness(x, partial));
        assert!(kore.relatedness(x, partial) > 0.0);
    }

    #[test]
    fn entity_without_phrases_scores_zero() {
        let mut b = KbBuilder::new();
        let x = b.add_entity("X", EntityKind::Other);
        let y = b.add_entity("Y", EntityKind::Other);
        b.add_keyphrase(y, "some phrase", 1);
        let kb = FrozenKb::freeze(&b.build());
        let kore = Kore::new(&kb);
        assert_eq!(kore.relatedness(x, y), 0.0);
    }

    #[test]
    fn po_is_jaccard_on_idf() {
        let (kb, _) = kb();
        let kore = Kore::new(&kb);
        let phrase = |surface: &str| {
            (0..kb.phrase_count())
                .map(PhraseId::from_index)
                .find(|&p| kb.phrase_surface(p) == surface)
                .unwrap()
        };
        let a = phrase("Australian singer");
        let b = phrase("Australian male singer");
        let po = kore.phrase_overlap(a, b);
        assert!(po > 0.0 && po < 1.0);
        assert!((kore.phrase_overlap(a, a) - 1.0).abs() < 1e-12);
    }
}
