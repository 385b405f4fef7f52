//! Snapshot decode must rebuild the transient indexes.
//!
//! The by-name entity index, the word lookup and the keyphrase inverted
//! index are derived structures: snapshots never store them, and the load
//! path rebuilds them before handing the KB out. A regression here is
//! silent — lookups return `None` and the kp-index-pruned similarity
//! returns 0.0 instead of the true score — so this test pins the behaviour
//! of the snapshot reader, together with its round trip of every section's
//! stats.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use aida_ned::aida::context::DocumentContext;
use aida_ned::aida::scratch::ScoringScratch;
use aida_ned::aida::similarity::simscores_batch;
use aida_ned::aida::{KeywordWeighting, SimObs};
use aida_ned::kb::snapshot::{read_frozen_snapshot, write_frozen_snapshot};
use aida_ned::kb::{EntityKind, FrozenKb, KbBuilder, KbView, KnowledgeBase};
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
fn windows_for<K: KbView + ?Sized>(kb: &K) -> [DocumentContext; 2] {
    let window = |text: &str| DocumentContext::build(kb, &tokenize(text));
    [window("the hard rock band played unusual chords near the Himalaya mountains"), window("rock")]
}

/// Batched similarity of every entity of `kb` against the whole `window`.
fn simscores<K: KbView + ?Sized>(
    kb: &K,
    window: &DocumentContext,
    weighting: KeywordWeighting,
) -> Vec<f64> {
    let entities: Vec<_> = kb.entity_ids().collect();
    let mut scratch = ScoringScratch::new();
    let obs = SimObs::default();
    let context = window.excluding(0..0);
    simscores_batch(kb, entities.len(), |i| entities[i], context, weighting, &obs, &mut scratch);
    scratch.sims().to_vec()
}

/// Asserts the two transient indexes answer correctly on `kb`, comparing
/// similarity scores bitwise against the pre-snapshot KB frozen.
fn assert_transients_rebuilt<K: KbView + ?Sized>(kb: &K, reference: &FrozenKb, path: &str) {
    // `by_name` (transient): canonical-name lookup must work immediately.
    for name in ["Kashmir (song)", "Kashmir (region)", "Led Zeppelin"] {
        assert_eq!(
            kb.entity_by_name(name),
            reference.entity_by_name(name),
            "{path}: entity_by_name({name:?}) not rebuilt after load"
        );
    }
    assert_eq!(kb.entity_by_name("No Quarter"), None, "{path}: phantom entity");

    // `kp_index` (transient): the index-pruned similarity must agree
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
fn v3_decode_rebuilds_transient_indexes() {
    let kb = sample_kb();
    let frozen = FrozenKb::freeze(&kb);
    let mut bytes = Vec::new();
    write_frozen_snapshot(&frozen, &mut bytes).expect("write v3");

    let loaded = read_frozen_snapshot(&bytes[..]).expect("read v3");
    assert_transients_rebuilt(&loaded, &frozen, "v3 sectioned reader");
    assert_eq!(loaded.stats(), frozen.stats(), "v3 round-trip changed section stats");
}

/// Length and FNV-1a of the snapshot of the frozen `WorldConfig::tiny(61)`
/// KB. A change to any section's layout moves them, and needs a new
/// format version.
const PINNED_SNAPSHOT_LEN: usize = 149_182;
const PINNED_SNAPSHOT_FNV: u64 = 0x906e_cdd3_0822_d5df;

/// FNV-1a (64-bit) of `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The snapshot's bytes are pinned: a seeded world exported and frozen,
/// with every section non-empty, writes the same bytes as it always has,
/// and reads back to a KB that writes them again.
#[test]
fn snapshot_bytes_are_pinned() {
    use aida_ned::wikigen::{ExportedKb, World, WorldConfig};
    let exported = ExportedKb::build(&World::generate(WorldConfig::tiny(61)));
    let frozen = FrozenKb::freeze(&exported.kb);
    let stats = frozen.stats();
    assert!(stats.entity_count > 0 && stats.dictionary_pairs > 0 && stats.link_edges > 0);
    assert!(stats.word_count > 0 && stats.phrase_count > 0 && stats.phrase_run_bytes > 0);
    let mut bytes = Vec::new();
    write_frozen_snapshot(&frozen, &mut bytes).expect("write v3");
    assert_eq!((bytes.len(), fnv1a(&bytes)), (PINNED_SNAPSHOT_LEN, PINNED_SNAPSHOT_FNV));

    let loaded = read_frozen_snapshot(&bytes[..]).expect("read v3");
    assert_eq!(loaded.stats(), stats, "round trip changed section stats");
    let mut again = Vec::new();
    write_frozen_snapshot(&loaded, &mut again).expect("rewrite v3");
    assert!(again == bytes, "the loaded KB writes different bytes");
}
