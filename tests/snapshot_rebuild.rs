//! Snapshot decode must rebuild the transient (`serde(skip)`) indexes.
//!
//! The by-name entity index, the interner lookups and the keyphrase
//! inverted index are derived structures: snapshots never store them, and
//! every load path rebuilds them before handing the KB out. A regression
//! here is silent — lookups return `None` and the kp-index-pruned
//! similarity returns 0.0 instead of the true score — so these tests pin
//! the behaviour on all three load paths: the v2 store reader (which
//! rebuilds the name and interner lookups; freezing the store builds the
//! rest), the v2 freeze-on-load reader, and the v3 sectioned reader.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use aida_ned::aida::context::DocumentContext;
use aida_ned::aida::scratch::ScoringScratch;
use aida_ned::aida::similarity::simscores_batch;
use aida_ned::aida::{KeywordWeighting, SimObs};
use aida_ned::kb::snapshot::{
    read_frozen_snapshot, read_snapshot, write_frozen_snapshot, write_snapshot,
};
use aida_ned::kb::{EntityKind, FrozenKb, KbBuilder, KbView, KnowledgeBase, PhraseId, WordId};
use aida_ned::text::tokenize;

/// A small world with name ambiguity, keyphrases, and links — enough for
/// both transient indexes to have observable behaviour.
fn sample_kb() -> KnowledgeBase {
    let mut builder = KbBuilder::new();
    let song = builder.add_entity("Kashmir (song)", EntityKind::Work);
    let region = builder.add_entity("Kashmir (region)", EntityKind::Location);
    let band = builder.add_entity("Led Zeppelin", EntityKind::Organization);
    builder.add_name(song, "Kashmir", 30);
    builder.add_name(region, "Kashmir", 70);
    builder.add_name(band, "Led Zeppelin", 40);
    builder.add_name(band, "Zeppelin", 10);
    builder.add_keyphrase(song, "hard rock", 2);
    builder.add_keyphrase(song, "unusual chords", 2);
    builder.add_keyphrase(region, "Himalaya mountains", 4);
    builder.add_keyphrase(band, "hard rock", 5);
    builder.add_keyphrase(band, "english rock band", 3);
    builder.add_link(song, band);
    builder.add_link(band, song);
    builder.add_link(region, song);
    builder.build()
}

/// The context windows of the similarity probes: a long one, where every
/// candidate is scored from its own keyphrase list, and a one-word one,
/// where candidates with more keyphrases than context words probe the
/// inverted index.
fn windows_for<K: KbView + ?Sized>(kb: &K) -> [Vec<(usize, WordId)>; 2] {
    let window = |text: &str| DocumentContext::build(kb, &tokenize(text)).words;
    [window("the hard rock band played unusual chords near the Himalaya mountains"), window("rock")]
}

/// Batched similarity of every entity of `kb` against `window`.
fn simscores<K: KbView + ?Sized>(
    kb: &K,
    window: &[(usize, WordId)],
    weighting: KeywordWeighting,
) -> Vec<f64> {
    let entities: Vec<_> = kb.entity_ids().collect();
    let mut scratch = ScoringScratch::new();
    let obs = SimObs::default();
    simscores_batch(kb, entities.len(), |i| entities[i], window, weighting, &obs, &mut scratch);
    scratch.sims().to_vec()
}

/// Asserts the two transient indexes answer correctly on `kb`, comparing
/// similarity scores bitwise against the pre-snapshot KB frozen.
fn assert_transients_rebuilt<K: KbView + ?Sized>(kb: &K, reference: &FrozenKb, path: &str) {
    // `by_name` (serde(skip)): canonical-name lookup must work immediately.
    for name in ["Kashmir (song)", "Kashmir (region)", "Led Zeppelin"] {
        assert_eq!(
            kb.entity_by_name(name),
            reference.entity_by_name(name),
            "{path}: entity_by_name({name:?}) not rebuilt after load"
        );
    }
    assert_eq!(kb.entity_by_name("No Quarter"), None, "{path}: phantom entity");

    // `kp_index` (serde(skip)): the index-pruned similarity must agree
    // bitwise with the pre-snapshot KB freshly frozen. An empty rebuilt
    // index would score 0.0 on the one-word window where the reference
    // scores > 0.
    let windows = windows_for(kb);
    assert_eq!(windows, windows_for(reference), "{path}: context windows diverged");
    for window in &windows {
        for weighting in [KeywordWeighting::Npmi, KeywordWeighting::Idf] {
            let loaded = simscores(kb, window, weighting);
            let expected = simscores(reference, window, weighting);
            let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&loaded),
                bits(&expected),
                "{path}: simscore diverged from pre-snapshot KB on {window:?}"
            );
            // The probe is only meaningful if some entity actually matches.
            assert!(
                expected.iter().any(|&s| s > 0.0),
                "{path}: similarity probe matched nothing on {window:?}"
            );
        }
    }
}

#[test]
fn v2_decode_rebuilds_transient_indexes() {
    let kb = sample_kb();
    let mut bytes = Vec::new();
    write_snapshot(&kb, &mut bytes).expect("write v2");

    // The v2 reader hands back a store: its name and interner lookups
    // must work immediately, and freezing it builds the read indexes.
    let loaded = read_snapshot(&bytes[..]).expect("read v2");
    for name in ["Kashmir (song)", "Kashmir (region)", "Led Zeppelin"] {
        assert_eq!(loaded.entity_by_name(name), kb.entity_by_name(name), "by-name {name:?}");
    }
    for wi in 0..kb.word_interner().len() {
        let w = WordId::from_index(wi);
        assert_eq!(loaded.word_id(kb.word_text(w)), Some(w), "word lookup {wi}");
    }
    for pi in 0..kb.phrase_interner().len() {
        let p = PhraseId::from_index(pi);
        let found = loaded.phrase_interner().get(kb.phrase_surface(p), loaded.word_interner());
        assert_eq!(found, Some(p), "phrase lookup {pi}");
    }
    assert_transients_rebuilt(&FrozenKb::freeze(&loaded), &FrozenKb::freeze(&kb), "v2 reader");
}

#[test]
fn v2_freeze_on_load_rebuilds_transient_indexes() {
    let kb = sample_kb();
    let mut bytes = Vec::new();
    write_snapshot(&kb, &mut bytes).expect("write v2");

    let frozen = read_frozen_snapshot(&bytes[..]).expect("freeze-on-load v2");
    assert_transients_rebuilt(&frozen, &FrozenKb::freeze(&kb), "v2 freeze-on-load reader");
}

#[test]
fn v3_decode_rebuilds_transient_indexes() {
    let kb = sample_kb();
    let frozen = FrozenKb::freeze(&kb);
    let mut bytes = Vec::new();
    write_frozen_snapshot(&frozen, &mut bytes).expect("write v3");

    let loaded = read_frozen_snapshot(&bytes[..]).expect("read v3");
    assert_transients_rebuilt(&loaded, &frozen, "v3 sectioned reader");
    assert_eq!(loaded.stats(), frozen.stats(), "v3 round-trip changed section stats");
}
