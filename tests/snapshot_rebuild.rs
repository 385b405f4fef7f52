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
use aida_ned::aida::similarity::{simscore, simscore_exhaustive};
use aida_ned::aida::KeywordWeighting;
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

/// The context window used for the similarity probes.
fn window_for<K: KbView + ?Sized>(kb: &K) -> Vec<(usize, WordId)> {
    let tokens = tokenize("the hard rock band played unusual chords near the Himalaya mountains");
    DocumentContext::build(kb, &tokens).words
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
    // bitwise with the exhaustive scan AND with the pre-snapshot score. An
    // empty rebuilt index would score 0.0 here while exhaustive scores > 0.
    let window = window_for(kb);
    let ref_window = window_for(reference);
    assert_eq!(window, ref_window, "{path}: context window diverged");
    for e in kb.entity_ids() {
        for weighting in [KeywordWeighting::Npmi, KeywordWeighting::Idf] {
            let loaded = simscore(kb, e, &window, weighting);
            let exhaustive = simscore_exhaustive(kb, e, &window, weighting);
            let expected = simscore(reference, e, &ref_window, weighting);
            assert_eq!(
                loaded.to_bits(),
                exhaustive.to_bits(),
                "{path}: kp-index pruning changed simscore for {e:?}"
            );
            assert_eq!(
                loaded.to_bits(),
                expected.to_bits(),
                "{path}: simscore diverged from pre-snapshot KB for {e:?}"
            );
        }
    }
    // The probe is only meaningful if some entity actually matches.
    let scored = kb
        .entity_ids()
        .filter(|&e| simscore(kb, e, &window, KeywordWeighting::Npmi) > 0.0)
        .count();
    assert!(scored > 0, "{path}: similarity probe matched nothing");
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
