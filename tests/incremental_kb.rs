//! Equivalence suite for the incremental KB (DESIGN.md §15).
//!
//! The copy-on-write overlay is only allowed to exist because it is
//! *indistinguishable* from rebuilding the knowledge base from scratch.
//! This suite pins that contract at the integration level:
//!
//! 1. **Read equivalence** (property-tested): for arbitrary valid mutation
//!    batches, every `KbView` read — entities, dictionary candidates,
//!    priors, links, keyphrases, interners, and the derived statistics
//!    (weights, inverted-index postings, phrase runs) — is
//!    bitwise-identical across three KBs: the [`DeltaKb`] overlay, its
//!    [`DeltaKb::compact`] output, and a from-scratch KB built with the
//!    same operations and frozen. Batches with
//!    keyphrase reweights, which the builder cannot replay, are checked
//!    against the compaction alone, and so is every prefix of one growing
//!    log built over one shared base, the way the news stream builds its
//!    overlays. At each of those prefixes the compaction of the prefix
//!    without its reweights also has the snapshot bytes of the
//!    from-scratch KB.
//! 2. **Disambiguation equivalence**: a WAL-replayed overlay and its
//!    compacted snapshot annotate the quick corpus identically — same
//!    assignments (confidences compared by bits), same ned-obs counters —
//!    across 1/2/4/8 worker threads.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use aida_ned::aida::{AidaConfig, Disambiguator};
use aida_ned::kb::snapshot::{encode, write_frozen_snapshot};
use aida_ned::kb::{
    DeltaKb, EntityId, EntityKind, FrozenKb, KbBuilder, KbMutation, KbView, Wal, WordId,
};
use aida_ned::obs::Metrics;
use aida_ned::relatedness::MilneWitten;
use aida_ned::wikigen::config::WorldConfig;
use aida_ned::wikigen::corpus::conll_like;
use aida_ned::wikigen::{ExportedKb, World};
use ned_bench::runner::{run_method_with_threads, DocOutcome};
use ned_eval::gold::GoldDoc;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Read equivalence over arbitrary mutation batches
// ---------------------------------------------------------------------------

/// The base world the overlay grows over: a handful of entities with
/// names, keyphrases, and links, plus the operation list that built it so
/// the from-scratch reference can replay base + mutations in one pass.
fn base_ops() -> Vec<KbMutation> {
    let mut ops = Vec::new();
    for (i, name) in ["Alpha", "Beta", "Gamma", "Delta Co", "Epsilon FC"].iter().enumerate() {
        ops.push(KbMutation::AddEntity {
            canonical_name: (*name).into(),
            kind: EntityKind::Other,
        });
        ops.push(KbMutation::AddDictionarySurface {
            entity: (*name).into(),
            surface: format!("base surface {i}"),
            count: i as u64 + 2,
        });
        ops.push(KbMutation::AddKeyphrase {
            entity: (*name).into(),
            surface: "rock guitar solo".into(),
            count: i as u64 + 1,
        });
        ops.push(KbMutation::AddKeyphrase {
            entity: (*name).into(),
            surface: format!("base topic {}", i % 3),
            count: 2,
        });
    }
    ops.push(KbMutation::AddLink { src: "Alpha".into(), dst: "Beta".into() });
    ops.push(KbMutation::AddLink { src: "Beta".into(), dst: "Gamma".into() });
    ops.push(KbMutation::AddLink { src: "Gamma".into(), dst: "Alpha".into() });
    ops
}

/// Applies one mutation through the build-time [`KbBuilder`] API — the
/// from-scratch reference path the overlay must agree with. `ids` carries
/// the name→id assignments of every entity added so far.
fn apply_to_builder(b: &mut KbBuilder, ids: &mut HashMap<String, EntityId>, m: &KbMutation) {
    match m {
        KbMutation::AddEntity { canonical_name, kind } => {
            let e = b.add_entity(canonical_name, *kind);
            ids.insert(canonical_name.clone(), e);
        }
        KbMutation::AddLink { src, dst } => {
            b.add_link(ids[src], ids[dst]);
        }
        KbMutation::AddKeyphrase { entity, surface, count } => {
            b.add_keyphrase(ids[entity], surface, *count);
        }
        KbMutation::AddDictionarySurface { entity, surface, count } => {
            b.add_name(ids[entity], surface, *count);
        }
        KbMutation::ReweightKeyphrase { .. } => {
            unreachable!("reweight has no from-scratch builder mirror")
        }
    }
}

const BASE_NAMES: [&str; 5] = ["Alpha", "Beta", "Gamma", "Delta Co", "Epsilon FC"];

/// The entities and (entity, keyphrase) pairs a generated batch may refer
/// to: the base's, plus whatever the batch has added so far.
struct Known {
    names: Vec<String>,
    pairs: Vec<(String, String)>,
    fresh: u32,
}

impl Known {
    fn base() -> Self {
        let names: Vec<String> = BASE_NAMES.iter().map(|s| s.to_string()).collect();
        let mut pairs = Vec::new();
        for (i, name) in names.iter().enumerate() {
            pairs.push((name.clone(), "rock guitar solo".to_string()));
            pairs.push((name.clone(), format!("base topic {}", i % 3)));
        }
        Known { names, pairs, fresh: 0 }
    }
}

/// Decodes a seed tuple into one valid mutation against the `known`
/// entities and keyphrases, registering what it adds. Cycles through every
/// builder-mirrorable variant, plus `ReweightKeyphrase` (down to zero
/// included) when `reweights` is set.
fn decode_mutation(
    op: u8,
    a: u8,
    b: u8,
    count: u8,
    known: &mut Known,
    reweights: bool,
) -> KbMutation {
    let pick = |i: u8, names: &[String]| names[i as usize % names.len()].clone();
    let variants = if reweights { 5 } else { 4 };
    match op % variants {
        0 => {
            known.fresh += 1;
            let name = format!("Grown {}", known.fresh);
            known.names.push(name.clone());
            KbMutation::AddEntity { canonical_name: name, kind: EntityKind::Other }
        }
        1 => KbMutation::AddLink { src: pick(a, &known.names), dst: pick(b, &known.names) },
        2 => {
            let entity = pick(a, &known.names);
            let surface = format!("keyphrase topic {}", b % 6);
            known.pairs.push((entity.clone(), surface.clone()));
            KbMutation::AddKeyphrase { entity, surface, count: u64::from(count) + 1 }
        }
        3 => KbMutation::AddDictionarySurface {
            entity: pick(a, &known.names),
            surface: format!("surface {}", b % 8),
            count: u64::from(count) + 1,
        },
        _ => {
            let (entity, surface) = known.pairs[a as usize % known.pairs.len()].clone();
            let delta = match count % 4 {
                0 => -1_000_000,
                1 => -1,
                2 => -i64::from(b % 4),
                _ => i64::from(b),
            };
            KbMutation::ReweightKeyphrase { entity, surface, delta }
        }
    }
}

/// A frozen KB of [`base_ops`].
fn frozen_base() -> Arc<FrozenKb> {
    Arc::new(from_scratch(&[]))
}

/// The from-scratch reference: [`base_ops`] + `muts` in one build, frozen.
fn from_scratch(muts: &[KbMutation]) -> FrozenKb {
    let mut builder = KbBuilder::new();
    let mut ids = HashMap::new();
    for op in base_ops().iter().chain(muts) {
        apply_to_builder(&mut builder, &mut ids, op);
    }
    FrozenKb::freeze(&builder.build())
}

/// The v3 snapshot bytes of `kb`.
fn snapshot_bytes(kb: &FrozenKb) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frozen_snapshot(kb, &mut bytes).unwrap();
    bytes
}

/// Probe surfaces for dictionary lookups: every surface a batch may add,
/// every entity name, plus a miss.
fn probe_surfaces(known: &Known) -> Vec<String> {
    let mut surfaces: Vec<String> = (0..8).map(|i| format!("surface {i}")).collect();
    surfaces.extend((0..5).map(|i| format!("base surface {i}")));
    surfaces.extend(known.names.iter().cloned());
    surfaces.push("never mentioned anywhere".into());
    surfaces
}

/// Asserts every `KbView` read of `a` and `b` is bitwise-identical.
/// `surfaces` is the probe set for dictionary lookups.
fn assert_reads_identical<K1: KbView, K2: KbView>(a: &K1, b: &K2, surfaces: &[String], tag: &str) {
    assert_eq!(a.entity_count(), b.entity_count(), "{tag}: entity_count");
    assert_eq!(a.word_count(), b.word_count(), "{tag}: word_count");
    assert_eq!(a.phrase_count(), b.phrase_count(), "{tag}: phrase_count");
    assert_eq!(a.dictionary().name_count(), b.dictionary().name_count(), "{tag}: name_count");
    assert_eq!(a.dictionary().pair_count(), b.dictionary().pair_count(), "{tag}: pair_count");
    assert_eq!(a.links().edge_count(), b.links().edge_count(), "{tag}: edge_count");
    for e in a.entity_ids() {
        assert_eq!(a.entity(e), b.entity(e), "{tag}: entity {e:?}");
        assert_eq!(a.keyphrases(e), b.keyphrases(e), "{tag}: keyphrases {e:?}");
        assert_eq!(a.links().inlinks(e), b.links().inlinks(e), "{tag}: inlinks {e:?}");
        assert_eq!(a.links().outlinks(e), b.links().outlinks(e), "{tag}: outlinks {e:?}");
        let name = &a.entity(e).canonical_name;
        assert_eq!(a.entity_by_name(name), Some(e), "{tag}: by-name {name}");
        assert_eq!(b.entity_by_name(name), Some(e), "{tag}: by-name {name}");
        for kp in a.keyphrases(e) {
            assert_eq!(a.phrase_words(kp.phrase), b.phrase_words(kp.phrase), "{tag}: words");
            assert_eq!(
                a.phrase_surface(kp.phrase),
                b.phrase_surface(kp.phrase),
                "{tag}: phrase surface"
            );
        }
    }
    for surface in surfaces {
        let ca = a.candidates(surface);
        let cb = b.candidates(surface);
        assert_eq!(ca, cb, "{tag}: candidates for {surface:?}");
        for c in ca {
            let pa = a.prior(surface, c.entity);
            let pb = b.prior(surface, c.entity);
            assert_eq!(pa.to_bits(), pb.to_bits(), "{tag}: prior for {surface:?}");
        }
    }
    // The merged dictionaries iterate the same keys in the same order.
    let keys_a: Vec<String> = a.dictionary().iter().map(|(k, _)| k.to_string()).collect();
    let keys_b: Vec<String> = b.dictionary().iter().map(|(k, _)| k.to_string()).collect();
    assert_eq!(keys_a, keys_b, "{tag}: dictionary iteration order");
    for i in 0..a.word_count() {
        let w = WordId::from_index(i);
        assert_eq!(a.word_text(w), b.word_text(w), "{tag}: word text {i}");
        assert_eq!(a.word_id(a.word_text(w)), Some(w), "{tag}: word id {i}");
        assert_eq!(b.word_id(b.word_text(w)), Some(w), "{tag}: word id {i}");
        assert_eq!(
            a.keyphrase_index().postings(w),
            b.keyphrase_index().postings(w),
            "{tag}: postings of word {i}"
        );
    }
    // The derived statistics, bit for bit.
    assert_eq!(encode(a.weights()).unwrap(), encode(b.weights()).unwrap(), "{tag}: weights");
    assert_eq!(a.phrase_runs(), b.phrase_runs(), "{tag}: phrase runs");
    assert_eq!(
        encode(a.phrase_runs()).unwrap(),
        encode(b.phrase_runs()).unwrap(),
        "{tag}: phrase run bits"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary valid mutation batches, the overlay, its compaction
    /// and the from-scratch frozen KB are bitwise-indistinguishable through
    /// every `KbView` read.
    #[test]
    fn overlay_reads_match_every_from_scratch_backend(
        seeds in proptest::collection::vec(
            (0u8..255, 0u8..255, 0u8..255, 0u8..255), 1..14),
    ) {
        let mut known = Known::base();
        let muts: Vec<KbMutation> = seeds
            .iter()
            .map(|&(op, a, b, c)| decode_mutation(op, a, b, c, &mut known, false))
            .collect();

        let delta = DeltaKb::build(frozen_base(), muts.clone())
            .expect("generated batches are valid");
        let compacted = delta.compact().expect("compaction succeeds");

        let scratch_frozen = from_scratch(&muts);

        let surfaces = probe_surfaces(&known);
        assert_reads_identical(&delta, &scratch_frozen, &surfaces, "delta vs frozen");
        assert_reads_identical(&delta, &compacted, &surfaces, "delta vs compacted");
        prop_assert_eq!(delta.entity_count(), 5 + known.fresh as usize);
    }

    /// Batches with reweights (down to zero and past it), keyphrases and
    /// links on base entities: the overlay equals its compaction, the
    /// from-scratch merge.
    #[test]
    fn overlay_with_reweights_matches_compaction(
        seeds in proptest::collection::vec(
            (0u8..255, 0u8..255, 0u8..255, 0u8..255), 1..24),
    ) {
        let mut known = Known::base();
        let muts: Vec<KbMutation> = seeds
            .iter()
            .map(|&(op, a, b, c)| decode_mutation(op, a, b, c, &mut known, true))
            .collect();
        let delta = DeltaKb::build(frozen_base(), muts).expect("generated batches are valid");
        let compacted = delta.compact().expect("compaction succeeds");
        assert_reads_identical(&delta, &compacted, &probe_surfaces(&known), "delta vs compacted");
    }

    /// One growing log built at random cut points over one shared base, as
    /// the news stream rebuilds its overlay each round: every build equals
    /// its compaction, and the compaction of the prefix without its
    /// reweights (which the builder cannot replay) has the snapshot bytes of
    /// the from-scratch build.
    #[test]
    fn every_prefix_of_a_growing_log_matches_compaction(
        seeds in proptest::collection::vec(
            (0u8..255, 0u8..255, 0u8..255, 0u8..255), 1..40),
        cuts in proptest::collection::vec(0usize..40, 1..5),
    ) {
        let mut known = Known::base();
        let log: Vec<KbMutation> = seeds
            .iter()
            .map(|&(op, a, b, c)| decode_mutation(op, a, b, c, &mut known, true))
            .collect();
        let base = frozen_base();
        let surfaces = probe_surfaces(&known);
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (log.len() + 1)).collect();
        cuts.sort_unstable();
        for cut in cuts {
            let delta = DeltaKb::build(Arc::clone(&base), log[..cut].to_vec())
                .expect("every prefix of a valid log is valid");
            let compacted = delta.compact().expect("compaction succeeds");
            assert_reads_identical(&delta, &compacted, &surfaces, &format!("prefix {cut}"));
            let plain: Vec<KbMutation> = log[..cut]
                .iter()
                .filter(|m| !matches!(m, KbMutation::ReweightKeyphrase { .. }))
                .cloned()
                .collect();
            let plain_compacted = DeltaKb::build(Arc::clone(&base), plain.clone())
                .and_then(|d| d.compact())
                .expect("a log without its reweights stays valid");
            prop_assert!(
                snapshot_bytes(&plain_compacted) == snapshot_bytes(&from_scratch(&plain)),
                "prefix {cut}: compaction and from-scratch snapshots differ"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Disambiguation equivalence on the quick corpus
// ---------------------------------------------------------------------------

fn corpus_env() -> &'static (ExportedKb, Vec<GoldDoc>) {
    static ENV: OnceLock<(ExportedKb, Vec<GoldDoc>)> = OnceLock::new();
    ENV.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny(77));
        let exported = ExportedKb::build(&world);
        let corpus = conll_like(&world, &exported, 7, 16);
        (exported, corpus.docs)
    })
}

/// A promotion-shaped mutation batch over the exported world: emerging
/// entities whose surfaces are the corpus' real out-of-KB mentions, so the
/// overlay genuinely changes candidate sets (the equivalence is not
/// vacuous), linked into the existing graph.
fn promotion_batch(exported: &ExportedKb, docs: &[GoldDoc]) -> Vec<KbMutation> {
    let kb = &exported.kb;
    let out_of_kb: BTreeSet<String> = docs
        .iter()
        .flat_map(|d| d.mentions.iter())
        .filter(|m| m.label.is_none())
        .map(|m| m.mention.surface.clone())
        .collect();
    let mut muts = Vec::new();
    for (i, surface) in out_of_kb.into_iter().take(6).enumerate() {
        let name = format!("{surface} (emerging)");
        let anchor = kb.entity(EntityId(i as u32)).canonical_name.clone();
        muts.push(KbMutation::AddEntity {
            canonical_name: name.clone(),
            kind: EntityKind::Other,
        });
        muts.push(KbMutation::AddDictionarySurface {
            entity: name.clone(),
            surface,
            count: 3 + i as u64,
        });
        muts.push(KbMutation::AddKeyphrase {
            entity: name.clone(),
            surface: "breaking wire coverage".into(),
            count: 2,
        });
        muts.push(KbMutation::ReweightKeyphrase {
            entity: name.clone(),
            surface: "breaking wire coverage".into(),
            delta: i as i64,
        });
        muts.push(KbMutation::AddLink { src: name.clone(), dst: anchor.clone() });
        muts.push(KbMutation::AddLink { src: anchor, dst: name });
    }
    assert!(!muts.is_empty(), "the corpus must contain out-of-KB mentions");
    muts
}

/// Bitwise outcome equality (confidences compared by bits).
fn outcomes_identical(a: &DocOutcome, b: &DocOutcome) -> bool {
    a.gold == b.gold
        && a.predicted == b.predicted
        && a.status == b.status
        && a.confidence.len() == b.confidence.len()
        && a.confidence.iter().zip(&b.confidence).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Runs the quick corpus through full AIDA over `kb` with `threads`
/// workers, returning the outcomes and the recorded ned-obs snapshot.
fn annotate_corpus<K: KbView + Clone>(
    kb: K,
    docs: &[GoldDoc],
    threads: usize,
) -> (Vec<DocOutcome>, aida_ned::obs::MetricsSnapshot) {
    let aida = Disambiguator::new(kb.clone(), MilneWitten::new(kb), AidaConfig::full());
    let eval = run_method_with_threads(&aida, docs, threads).expect("thread pool");
    assert_eq!(eval.failed_count(), 0);
    let metrics = Metrics::new();
    eval.record_metrics(&metrics);
    (eval.docs, metrics.snapshot())
}

/// The WAL-replayed overlay and its compacted snapshot annotate the corpus
/// identically — assignments and ned-obs counters — at every thread count.
#[test]
fn wal_replayed_overlay_and_compaction_annotate_identically() {
    let (exported, docs) = corpus_env();
    let frozen = Arc::new(FrozenKb::freeze(&exported.kb));
    let muts = promotion_batch(exported, docs);

    // Round-trip the batch through a real WAL file, as a live promotion
    // pipeline would persist it.
    let dir = std::env::temp_dir().join("ned-incremental-kb-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("equivalence.wal");
    let _ = std::fs::remove_file(&path);
    {
        let (mut wal, _) = Wal::open(&path).unwrap();
        for m in &muts {
            wal.append(m).unwrap();
        }
    }
    let (_, replay) = Wal::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(replay.mutations, muts, "the WAL must replay exactly what was appended");

    let delta =
        Arc::new(DeltaKb::build(Arc::clone(&frozen), replay.mutations).expect("batch applies"));
    let compacted = Arc::new(delta.compact().expect("compaction succeeds"));
    assert_eq!(delta.delta_entity_count(), 6);

    // The overlay must actually change the corpus' candidate sets —
    // otherwise this equivalence would hold trivially.
    let base_run = annotate_corpus(Arc::clone(&frozen), docs, 1);
    let (reference, reference_metrics) = annotate_corpus(Arc::clone(&delta), docs, 1);
    assert!(
        base_run.0.iter().zip(&reference).any(|(a, b)| !outcomes_identical(a, b)),
        "promotions should change at least one document's outcome"
    );

    for threads in [1usize, 2, 4, 8] {
        let (delta_docs, delta_metrics) = annotate_corpus(Arc::clone(&delta), docs, threads);
        let (compact_docs, compact_metrics) =
            annotate_corpus(Arc::clone(&compacted), docs, threads);
        assert_eq!(delta_docs.len(), compact_docs.len());
        for (i, (a, b)) in delta_docs.iter().zip(&compact_docs).enumerate() {
            assert!(
                outcomes_identical(a, b),
                "doc {i} diverged between overlay and compaction at {threads} threads"
            );
            assert!(
                outcomes_identical(a, &reference[i]),
                "doc {i} diverged across thread counts ({threads} vs 1)"
            );
        }
        assert_eq!(
            delta_metrics, compact_metrics,
            "ned-obs counters diverged at {threads} threads"
        );
        assert_eq!(delta_metrics, reference_metrics, "counters diverged across thread counts");
    }
}
