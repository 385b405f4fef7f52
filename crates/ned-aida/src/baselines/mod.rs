//! Re-implementations of the baseline NED methods compared against in the
//! thesis (§3.6.1: "Since neither source code nor executables for this
//! method are available, we re-implemented it").
//!
//! - [`PriorOnly`]: the most-frequent-sense baseline (§3.3.3).
//! - [`Cucerzan`]: iterative context-expansion disambiguation \[Cuc07\].
//! - [`Kulkarni`]: the collective-inference method of \[KSRC09\], in its
//!   `s` (similarity), `sp` (similarity + prior), and `CI` (collective)
//!   variants.
//! - [`LocalLinker`]: a per-mention linker combining prior and context
//!   cosine, standing in for the Illinois Wikifier's linker score used in
//!   the Chapter-5 comparisons.

mod cucerzan;
mod kulkarni;
mod local_linker;
mod prior_only;

pub use cucerzan::Cucerzan;
pub use kulkarni::{Kulkarni, KulkarniVariant};
pub use local_linker::LocalLinker;
pub use prior_only::PriorOnly;

use ned_core::det::{det_dot, det_l2_norm};
use ned_kb::fx::FxHashMap;
use ned_kb::{EntityId, KbView, WordId};

/// Bag-of-words of a document context with term counts.
pub(crate) fn context_bag(context: &[(usize, WordId)]) -> FxHashMap<WordId, f64> {
    let mut bag: FxHashMap<WordId, f64> = FxHashMap::default();
    for &(_, w) in context {
        *bag.entry(w).or_insert(0.0) += 1.0;
    }
    bag
}

/// Plain (unweighted) cosine between two keyword bags — the 2007-era
/// scalar-product matching of Cucerzan's system, which lacks IDF weighting
/// and is therefore dominated by common topical words.
pub(crate) fn bag_cosine_unweighted(
    entity_bag: &FxHashMap<WordId, f64>,
    doc_bag: &FxHashMap<WordId, f64>,
) -> f64 {
    if entity_bag.is_empty() || doc_bag.is_empty() {
        return 0.0;
    }
    let dot = det_dot(
        entity_bag
            .iter()
            .filter_map(|(w, &ev)| doc_bag.get(w).map(|&tf| ev * tf)),
    );
    if dot == 0.0 {
        return 0.0;
    }
    let norm_e = det_l2_norm(entity_bag.values().copied());
    let norm_d = det_l2_norm(doc_bag.values().copied());
    if norm_e == 0.0 || norm_d == 0.0 {
        return 0.0;
    }
    (dot / (norm_e * norm_d)).clamp(0.0, 1.0)
}

/// IDF-weighted cosine between a document bag-of-words and the keyword set
/// of an entity's keyphrases — the classic token-based context similarity
/// used by the baseline systems (as opposed to AIDA's cover-based phrase
/// matching).
pub(crate) fn entity_context_cosine<K: KbView + ?Sized>(
    kb: &K,
    e: EntityId,
    bag: &FxHashMap<WordId, f64>,
) -> f64 {
    let weights = kb.weights();
    // Entity vector: keyword → idf × (occurrences across keyphrases).
    let mut entity_vec: FxHashMap<WordId, f64> = FxHashMap::default();
    for ep in kb.keyphrases(e) {
        for &w in kb.phrase_words(ep.phrase) {
            *entity_vec.entry(w).or_insert(0.0) += weights.word_idf(w);
        }
    }
    if entity_vec.is_empty() || bag.is_empty() {
        return 0.0;
    }
    let dot = det_dot(
        entity_vec
            .iter()
            .filter_map(|(w, &ev)| bag.get(w).map(|&tf| ev * tf * weights.word_idf(*w))),
    );
    if dot == 0.0 {
        return 0.0;
    }
    let norm_e = det_l2_norm(entity_vec.values().copied());
    let norm_d = det_l2_norm(bag.iter().map(|(&w, &tf)| tf * weights.word_idf(w)));
    if norm_e == 0.0 || norm_d == 0.0 {
        return 0.0;
    }
    (dot / (norm_e * norm_d)).clamp(0.0, 1.0)
}

#[cfg(test)]
pub(crate) mod test_support {
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_text::{tokenize, Mention, Token};

    /// Shared baseline test fixture: ambiguous "Kashmir" and "Page".
    pub fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let song = b.add_entity("Kashmir (song)", EntityKind::Work);
        let region = b.add_entity("Kashmir (region)", EntityKind::Location);
        let jimmy = b.add_entity("Jimmy Page", EntityKind::Person);
        let larry = b.add_entity("Larry Page", EntityKind::Person);
        b.add_name(song, "Kashmir", 10);
        b.add_name(region, "Kashmir", 90);
        b.add_name(jimmy, "Page", 40);
        b.add_name(larry, "Page", 60);
        b.add_keyphrase(song, "rock song", 3);
        b.add_keyphrase(song, "unusual chords", 2);
        b.add_keyphrase(region, "Himalaya territory", 4);
        b.add_keyphrase(jimmy, "rock guitarist", 3);
        b.add_keyphrase(jimmy, "unusual chords", 1);
        b.add_keyphrase(larry, "search engine", 3);
        b.add_link(jimmy, song);
        b.add_link(song, jimmy);
        let x = b.add_entity("Linker X", EntityKind::Other);
        b.add_link(x, jimmy);
        b.add_link(x, song);
        FrozenKb::freeze(&b.build())
    }

    /// A music-context document mentioning "Kashmir" and "Page".
    pub fn doc() -> (Vec<Token>, Vec<Mention>) {
        let tokens = tokenize("They performed Kashmir with unusual chords, said Page.");
        // They(0) performed(1) Kashmir(2) with(3) unusual(4) chords(5) ,(6)
        // said(7) Page(8) .(9)
        let mentions = vec![Mention::new("Kashmir", 2, 3), Mention::new("Page", 8, 9)];
        (tokens, mentions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::fx::FxHashMap;

    #[test]
    fn cosine_prefers_matching_context() {
        let kb = test_support::kb();
        let song = kb.entity_by_name("Kashmir (song)").unwrap();
        let region = kb.entity_by_name("Kashmir (region)").unwrap();
        let mut bag: FxHashMap<WordId, f64> = FxHashMap::default();
        for w in ["unusual", "chords", "rock"] {
            if let Some(id) = kb.word_id(w) {
                bag.insert(id, 1.0);
            }
        }
        let s_song = entity_context_cosine(&kb, song, &bag);
        let s_region = entity_context_cosine(&kb, region, &bag);
        assert!(s_song > s_region);
        assert_eq!(s_region, 0.0);
    }

    #[test]
    fn cosine_is_bounded() {
        let kb = test_support::kb();
        let song = kb.entity_by_name("Kashmir (song)").unwrap();
        let mut bag: FxHashMap<WordId, f64> = FxHashMap::default();
        for w in ["rock", "song", "unusual", "chords"] {
            if let Some(id) = kb.word_id(w) {
                bag.insert(id, 5.0);
            }
        }
        let s = entity_context_cosine(&kb, song, &bag);
        assert!((0.0..=1.0).contains(&s));
        assert!(s > 0.5);
    }

    #[test]
    fn empty_bag_scores_zero() {
        let kb = test_support::kb();
        let song = kb.entity_by_name("Kashmir (song)").unwrap();
        assert_eq!(entity_context_cosine(&kb, song, &FxHashMap::default()), 0.0);
    }
}
