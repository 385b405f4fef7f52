//! Fault-injection harness for the pipeline's robustness guarantees.
//!
//! Injects three fault classes and checks the blast radius of each:
//!
//! 1. **Worker panics** (a faulty relatedness measure, a poisoned
//!    document): the batch completes, exactly the poisoned documents are
//!    reported `Failed`, and every healthy document's outcome is
//!    byte-identical to a fault-free run.
//! 2. **Poisoned float features** (NaN relatedness): no panic anywhere —
//!    `total_cmp` ordering and the degradation ladder keep every document
//!    producing a well-formed outcome.
//! 3. **Corrupt snapshots** (truncation, bit flips, version skew,
//!    misplaced, missing or extra frames, frames from another KB that do
//!    not fit): the loader returns a typed [`SnapshotError`], never
//!    panics, never returns silently-wrong data (property-tested over
//!    arbitrary corruptions).
//! 4. **Corrupt WALs** (torn tails, bit flips, duplicated appends): replay
//!    recovers exactly the valid record prefix or fails with a typed
//!    `WalError` — never a panic, never mutations the log did not carry
//!    (property-tested over arbitrary mutation sequences and cut points).
//! 5. **Garbage behind valid framing**: a snapshot section, a WAL record or
//!    a corpus body of arbitrary bytes, or of real bytes written over, with
//!    a correct checksum or length, so that it reaches the decoder. Each
//!    decodes to a typed error or to a value that passes its checks.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Once, OnceLock};

use aida_ned::aida::context::DocumentContext;
use aida_ned::aida::{AidaConfig, Disambiguator, NedMethod};
use aida_ned::core::{NedError, SnapshotError, WalError};
use aida_ned::kb::snapshot::{read_frozen_snapshot, write_frozen_snapshot, FORMAT_VERSION};
use aida_ned::kb::{EntityId, EntityKind, FrozenKb, KbBuilder, KbView, KnowledgeBase, WordId};
use aida_ned::relatedness::{MilneWitten, Relatedness};
use aida_ned::text::tokenize;
use aida_ned::wikigen::config::WorldConfig;
use aida_ned::wikigen::corpus::conll_like;
use aida_ned::wikigen::corpus_io::{read_docs, write_docs};
use aida_ned::wikigen::{ExportedKb, World};
use aida_ned::core::DegradationLevel;
use aida_ned::kb::{KbMutation, Wal};
use aida_ned::obs::{names, Metrics};
use ned_bench::runner::{run_method_with_threads, run_per_doc, DocOutcome, DocStatus};
use ned_eval::gold::GoldDoc;
use proptest::prelude::*;

/// Suppresses panic-hook output for intentionally injected faults while
/// leaving real test panics visible. Installed once per test binary.
fn install_quiet_hook() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .map(|s| s.contains("injected fault"))
                .or_else(|| {
                    info.payload().downcast_ref::<&str>().map(|s| s.contains("injected fault"))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// A relatedness measure that misbehaves on demand: panics on one specific
/// call, or returns NaN on every call.
struct FaultyRelatedness<M> {
    inner: M,
    calls: AtomicU64,
    /// Zero-based call index that panics; `u64::MAX` disables.
    panic_at: u64,
    /// When set, every call returns NaN instead of the true score.
    return_nan: bool,
}

impl<M> FaultyRelatedness<M> {
    fn new(inner: M) -> Self {
        FaultyRelatedness { inner, calls: AtomicU64::new(0), panic_at: u64::MAX, return_nan: false }
    }

    fn panicking_at(mut self, n: u64) -> Self {
        self.panic_at = n;
        self
    }

    fn always_nan(mut self) -> Self {
        self.return_nan = true;
        self
    }
}

impl<M: Relatedness> Relatedness for FaultyRelatedness<M> {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if n == self.panic_at {
            panic!("injected fault: relatedness call {n}");
        }
        if self.return_nan {
            return f64::NAN;
        }
        self.inner.relatedness(a, b)
    }
}

fn test_env() -> (ExportedKb, Vec<GoldDoc>) {
    let world = World::generate(WorldConfig { entities_per_topic: 100, ..WorldConfig::default() });
    let exported = ExportedKb::build(&world);
    let corpus = conll_like(&world, &exported, 13, 20);
    (exported, corpus.docs)
}

fn outcome_with<K: ned_kb::KbView, R: Relatedness>(
    aida: &Disambiguator<K, R>,
    doc: &GoldDoc,
) -> DocOutcome {
    let mentions = doc.bare_mentions();
    let result = aida.disambiguate(&doc.tokens, &mentions);
    DocOutcome {
        gold: doc.gold_labels(),
        predicted: result.labels(),
        confidence: result.assignments.iter().map(|a| a.normalized_score()).collect(),
        status: DocStatus::from_degradation(result.degradation),
    }
}

/// Bitwise outcome equality (confidences compared by bits).
fn outcomes_identical(a: &DocOutcome, b: &DocOutcome) -> bool {
    a.gold == b.gold
        && a.predicted == b.predicted
        && a.status == b.status
        && a.confidence.len() == b.confidence.len()
        && a.confidence.iter().zip(&b.confidence).all(|(p, q)| p.to_bits() == q.to_bits())
}

// ---------------------------------------------------------------------------
// Worker-panic isolation
// ---------------------------------------------------------------------------

#[test]
fn ten_percent_poisoned_corpus_completes_with_exact_failure_reporting() {
    install_quiet_hook();
    let (exported, docs) = test_env();
    let kb = &FrozenKb::freeze(&exported.kb);
    let aida = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::full());

    // Poison every 10th document — 10% of the corpus.
    let poisoned: HashSet<String> = docs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 10 == 0)
        .map(|(_, d)| d.id.clone())
        .collect();
    assert!(!poisoned.is_empty());

    let fault_free = run_per_doc(&docs, |d| outcome_with(&aida, d));
    let faulty = run_per_doc(&docs, |d| {
        if poisoned.contains(&d.id) {
            panic!("injected fault: poisoned document {}", d.id);
        }
        outcome_with(&aida, d)
    });

    // The batch completed: every document occupies its slot.
    assert_eq!(faulty.docs.len(), docs.len());
    // Exactly the poisoned documents are Failed, with the cause captured.
    assert_eq!(faulty.failed_count(), poisoned.len());
    for (doc, outcome) in docs.iter().zip(&faulty.docs) {
        if poisoned.contains(&doc.id) {
            match &outcome.status {
                DocStatus::Failed { reason } => {
                    assert!(
                        reason.contains(&doc.id),
                        "failure reason should name the document: {reason}"
                    );
                }
                other => panic!("poisoned doc {} not Failed: {other:?}", doc.id),
            }
            assert!(outcome.predicted.iter().all(Option::is_none));
        } else {
            // Healthy documents are byte-identical to the fault-free run.
            let reference = &fault_free.docs
                [docs.iter().position(|d| d.id == doc.id).expect("doc present")];
            assert!(
                outcomes_identical(outcome, reference),
                "healthy doc {} diverged under faults",
                doc.id
            );
        }
    }
}

#[test]
fn poisoned_run_metrics_match_status_accounting() {
    install_quiet_hook();
    let (exported, docs) = test_env();
    let kb = &FrozenKb::freeze(&exported.kb);
    // A starved solver pushes every healthy document down the degradation
    // ladder; the poisoned ones fail outright — so the run exercises every
    // `doc_status_*` counter at once.
    let config = AidaConfig { solver_max_iterations: 1, ..AidaConfig::full() };
    let aida = Disambiguator::new(kb, MilneWitten::new(kb), config);

    let poisoned: HashSet<String> = docs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 10 == 0)
        .map(|(_, d)| d.id.clone())
        .collect();
    let eval = run_per_doc(&docs, |d| {
        if poisoned.contains(&d.id) {
            panic!("injected fault: poisoned document {}", d.id);
        }
        outcome_with(&aida, d)
    });

    let metrics = Metrics::new();
    eval.record_metrics(&metrics);
    let snapshot = metrics.snapshot();

    // Expected per-level counts derived straight from the per-document
    // statuses — the counters must be their exact aggregate.
    let mut ok = 0u64;
    let mut degraded = 0u64;
    let mut failed = 0u64;
    let (mut joint, mut no_coherence, mut prior_only) = (0u64, 0u64, 0u64);
    for doc in &eval.docs {
        match &doc.status {
            DocStatus::Ok => {
                ok += 1;
                joint += 1;
            }
            DocStatus::Degraded(level) => {
                degraded += 1;
                match level {
                    DegradationLevel::None => joint += 1,
                    DegradationLevel::NoCoherence => no_coherence += 1,
                    DegradationLevel::PriorOnly => prior_only += 1,
                }
            }
            DocStatus::Failed { .. } => failed += 1,
        }
    }
    assert!(failed > 0, "the poison must fail at least one document");
    assert!(degraded > 0, "the starved solver must degrade at least one document");
    assert_eq!(failed, poisoned.len() as u64);
    assert_eq!(failed, eval.failed_count() as u64);
    assert_eq!(degraded, eval.degraded_count() as u64);
    assert_eq!(ok + degraded + failed, docs.len() as u64);

    assert_eq!(snapshot.counter(names::DOC_STATUS_OK), ok);
    assert_eq!(snapshot.counter(names::DOC_STATUS_DEGRADED), degraded);
    assert_eq!(snapshot.counter(names::DOC_STATUS_FAILED), failed);
    assert_eq!(snapshot.counter(names::DEGRADATION_LEVEL_JOINT), joint);
    assert_eq!(snapshot.counter(names::DEGRADATION_LEVEL_NO_COHERENCE), no_coherence);
    assert_eq!(snapshot.counter(names::DEGRADATION_LEVEL_PRIOR_ONLY), prior_only);
    // Failed documents carry no degradation level, so the levels partition
    // exactly the non-failed population.
    assert_eq!(joint + no_coherence + prior_only + failed, docs.len() as u64);
}

#[test]
fn nth_relatedness_call_panic_fails_exactly_one_document() {
    install_quiet_hook();
    let (exported, docs) = test_env();
    let kb = &FrozenKb::freeze(&exported.kb);

    // Count the total relatedness traffic of a clean single-threaded run.
    let counting = FaultyRelatedness::new(MilneWitten::new(kb));
    let aida = Disambiguator::new(kb, &counting, AidaConfig::full());
    let clean = run_method_with_threads(&aida, &docs, 1).expect("thread pool");
    let total_calls = counting.calls.load(Ordering::Relaxed);
    assert!(total_calls > 0, "the corpus must exercise the coherence feature");
    assert_eq!(clean.failed_count(), 0);

    // Re-run with a panic planted in the middle of that traffic. Single
    // threaded, so the call order — and thus the victim document — is
    // deterministic.
    let faulty = FaultyRelatedness::new(MilneWitten::new(kb)).panicking_at(total_calls / 2);
    let aida_faulty = Disambiguator::new(kb, &faulty, AidaConfig::full());
    let poisoned = run_method_with_threads(&aida_faulty, &docs, 1).expect("thread pool");

    assert_eq!(poisoned.docs.len(), docs.len());
    assert_eq!(poisoned.failed_count(), 1, "one planted panic fails one document");
    let mut diverged = 0;
    for (a, b) in clean.docs.iter().zip(&poisoned.docs) {
        if b.status.is_failed() {
            diverged += 1;
            assert!(matches!(&b.status, DocStatus::Failed { reason } if reason.contains("injected fault")));
        } else {
            assert!(outcomes_identical(a, b), "non-victim document diverged");
        }
    }
    assert_eq!(diverged, 1);
}

#[test]
fn nan_relatedness_never_panics_the_batch() {
    install_quiet_hook();
    let (exported, docs) = test_env();
    let kb = &FrozenKb::freeze(&exported.kb);
    let nan_measure = FaultyRelatedness::new(MilneWitten::new(kb)).always_nan();
    let aida = Disambiguator::new(kb, &nan_measure, AidaConfig::full());
    let eval = run_method_with_threads(&aida, &docs, 2).expect("thread pool");
    assert_eq!(eval.docs.len(), docs.len());
    assert_eq!(eval.failed_count(), 0, "NaN scores must degrade, not crash");
    for outcome in &eval.docs {
        assert_eq!(outcome.predicted.len(), outcome.gold.len());
    }
}

// ---------------------------------------------------------------------------
// Bounded relatedness cache under faults
// ---------------------------------------------------------------------------

#[test]
fn poisoned_docs_keep_bounded_cache_conservation_exact() {
    use aida_ned::relatedness::{CacheConfig, CachedRelatedness, ENTRY_BYTES};
    install_quiet_hook();
    let (exported, docs) = test_env();
    let kb = &FrozenKb::freeze(&exported.kb);

    let cap = 400 * ENTRY_BYTES; // tight enough to bind on this corpus
    // Measure the clean single-threaded miss traffic through the same
    // bounded cache, so the planted panic lands mid-stream inside a cache
    // miss's compute (only misses reach the inner measure).
    let counting = FaultyRelatedness::new(MilneWitten::new(kb));
    let clean_cache =
        CachedRelatedness::with_config(&counting, &Metrics::new(), CacheConfig::bounded(cap));
    let aida = Disambiguator::new(kb, &clean_cache, AidaConfig::full());
    let _ = run_method_with_threads(&aida, &docs, 1).expect("thread pool");
    let inner_calls = counting.calls.load(Ordering::Relaxed);
    assert!(inner_calls > 0, "the corpus must miss the cache");

    for threads in [1usize, 2] {
        let metrics = Metrics::new();
        let faulty = FaultyRelatedness::new(MilneWitten::new(kb)).panicking_at(inner_calls / 2);
        let cached = CachedRelatedness::with_config(faulty, &metrics, CacheConfig::bounded(cap));
        let aida = Disambiguator::new(kb, &cached, AidaConfig::full());
        let eval = run_method_with_threads(&aida, &docs, threads).expect("thread pool");
        assert_eq!(eval.docs.len(), docs.len());
        assert!(eval.failed_count() >= 1, "the planted panic must fail a document");

        // The aborted lookup (whose compute panicked) counts nothing;
        // every completed lookup is exactly one hit or miss — so the
        // conservation laws stay exact even mid-poisoning.
        let cache = cached.cache();
        assert_eq!(
            cache.misses(),
            cache.inserts() + cache.admit_rejected() + cache.stale_discards(),
            "misses must split exactly ({threads} threads)"
        );
        assert_eq!(
            cache.inserts(),
            cache.evictions() + cache.len() as u64,
            "inserts must equal evictions + live entries ({threads} threads)"
        );
        assert!(cache.bytes_used() <= cap);
        assert!(cache.bytes_peak() <= cap);
        assert!(cache.evictions() > 0, "the cap must bind during the poisoned run");
        // Cross-check: the counters in the registry agree with the
        // cache's own accessors (one source of truth, two views).
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_HITS), cache.hits());
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_MISSES), cache.misses());
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_EVICTIONS), cache.evictions());
    }
}

#[test]
fn panicking_compute_neither_poisons_a_shard_nor_counts_a_lookup() {
    use aida_ned::relatedness::{CacheConfig, PairCache};
    install_quiet_hook();
    let metrics = Metrics::new();
    let cache = PairCache::new(CacheConfig::bounded(64 * 96), &metrics);
    let (a, b) = (EntityId(3), EntityId(7));

    // The compute callback runs with no shard lock held, so its panic
    // unwinds cleanly: no poison, and the aborted lookup counts nothing.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        cache.get_or_insert_with(a, b, || panic!("injected fault: compute blew up"))
    }));
    assert!(result.is_err(), "the panic must propagate to the caller");
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), 0, "an aborted lookup is neither a hit nor a miss");
    assert!(cache.is_empty());

    // The same key still works afterwards — the shard lock survived.
    let (v, events) = cache.get_or_insert_with(a, b, || 0.625);
    assert_eq!(v.to_bits(), 0.625f64.to_bits());
    assert!(events.inserted);
    assert_eq!(cache.misses(), 1);
    assert_eq!(cache.hits() + cache.misses(), 1, "only the completed lookup is counted");
}

// ---------------------------------------------------------------------------
// Empty and mention-free documents
// ---------------------------------------------------------------------------

#[test]
fn empty_and_whitespace_documents_yield_wellformed_empty_results() {
    let (exported, _) = test_env();
    let kb = &FrozenKb::freeze(&exported.kb);
    let aida = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::full());

    // Completely empty document.
    let result = aida.disambiguate(&[], &[]);
    assert!(result.assignments.is_empty());
    assert!(!result.degradation.is_degraded());

    // Whitespace-only text tokenizes to nothing; zero mentions.
    let tokens = tokenize("   \n\t   \r\n  ");
    let result = aida.disambiguate(&tokens, &[]);
    assert!(result.assignments.is_empty());

    // Text with tokens but no mentions short-circuits the same way.
    let tokens = tokenize("Plain filler text with no annotated spans at all.");
    let result = aida.disambiguate(&tokens, &[]);
    assert!(result.assignments.is_empty());
    assert_eq!(aida.features(&tokens, &[]), (DocumentContext::default(), Vec::<Vec<_>>::new()));

    // And a zero-mention document flows through the batch runner.
    let doc = GoldDoc::new("empty", tokenize("   "), vec![], 0);
    let eval = run_per_doc(&[doc], |d| outcome_with(&aida, d));
    assert_eq!(eval.docs.len(), 1);
    assert_eq!(eval.docs[0].status, DocStatus::Ok);
    assert!(eval.docs[0].predicted.is_empty());
    assert_eq!(eval.failed_count(), 0);
}

// ---------------------------------------------------------------------------
// Snapshot corruption
// ---------------------------------------------------------------------------

/// Section names in the order the writer emits their frames.
const SECTIONS: [&str; 6] =
    ["entities", "dictionary", "links", "keyphrases", "weights", "phrase_runs"];

/// The v3 snapshot bytes of `kb`, frozen.
fn snapshot_of(kb: &KnowledgeBase) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frozen_snapshot(&FrozenKb::freeze(kb), &mut buf).expect("snapshot written");
    buf
}

fn snapshot_fixture() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let mut b = KbBuilder::new();
        let alpha = b.add_entity("Alpha", EntityKind::Person);
        let beta = b.add_entity("Beta", EntityKind::Location);
        b.add_name(alpha, "Alpha", 3);
        b.add_name(beta, "Beta", 5);
        b.add_keyphrase(alpha, "rock guitar", 2);
        b.add_keyphrase(beta, "river delta", 4);
        b.add_link(alpha, beta);
        snapshot_of(&b.build())
    })
}

/// A snapshot with one entity, two words and one phrase more than the
/// fixture, so that their frames disagree in shape.
fn larger_snapshot() -> Vec<u8> {
    let mut b = KbBuilder::new();
    let alpha = b.add_entity("Alpha", EntityKind::Person);
    let beta = b.add_entity("Beta", EntityKind::Location);
    let gamma = b.add_entity("Gamma", EntityKind::Organization);
    b.add_keyphrase(alpha, "rock guitar", 2);
    b.add_keyphrase(beta, "river delta", 4);
    b.add_keyphrase(gamma, "record label", 1);
    b.add_link(alpha, beta);
    b.add_link(gamma, alpha);
    snapshot_of(&b.build())
}

/// Byte ranges of the section frames of a clean snapshot, after its
/// 8-byte header.
fn snapshot_frames(bytes: &[u8]) -> Vec<Range<usize>> {
    let mut frames = Vec::new();
    let mut pos = 8;
    while pos < bytes.len() {
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap()) as usize;
        frames.push(pos..pos + 17 + len);
        pos += 17 + len;
    }
    frames
}

/// The fixture's header followed by the given frames of `bytes`, in order.
fn reassembled(bytes: &[u8], frames: impl IntoIterator<Item = Range<usize>>) -> Vec<u8> {
    let mut out = bytes[..8].to_vec();
    for frame in frames {
        out.extend_from_slice(&bytes[frame]);
    }
    out
}

/// The typed error a corrupt stream must produce.
fn snapshot_error(bytes: &[u8]) -> SnapshotError {
    match read_frozen_snapshot(bytes) {
        Err(NedError::Snapshot(e)) => e,
        Err(other) => panic!("expected a snapshot error, got {other}"),
        Ok(_) => panic!("a corrupt snapshot decoded"),
    }
}

#[test]
fn truncated_snapshot_fixture_yields_typed_errors() {
    let bytes = snapshot_fixture();
    let frames = snapshot_frames(bytes);
    assert_eq!(frames.len(), SECTIONS.len());
    // Every strict prefix fails with a structured snapshot error; a cut at
    // a frame boundary names the section that belongs there, the phrase
    // runs included.
    for cut in 0..bytes.len() {
        let err = snapshot_error(&bytes[..cut]);
        match frames.iter().position(|f| f.start == cut) {
            Some(i) => assert!(
                matches!(err, SnapshotError::MissingSection { section } if section == SECTIONS[i]),
                "cut at {cut}: unexpected error {err}"
            ),
            None => assert!(
                matches!(
                    err,
                    SnapshotError::BadMagic
                        | SnapshotError::Truncated { .. }
                        | SnapshotError::SectionTruncated { .. }
                ),
                "cut at {cut}: unexpected error {err}"
            ),
        }
    }
}

#[test]
fn bitflipped_snapshot_fixture_yields_typed_errors() {
    let bytes = snapshot_fixture();
    // Every single-bit flip: in the header, a frame prelude or a body.
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.to_vec();
            corrupt[pos] ^= 1 << bit;
            snapshot_error(&corrupt);
        }
    }
}

#[test]
fn version_skew_is_reported_as_unsupported() {
    let bytes = snapshot_fixture();
    let frames = &bytes[8..];
    // The v1 layout started with the ASCII tag "AIDAKB01"; its "01" bytes
    // land in the version field and must decode as a *version* mismatch,
    // not a magic mismatch, so operators see the real cause.
    let mut v1 = b"AIDAKB01".to_vec();
    v1.extend_from_slice(frames);
    // The retired v2 layout: magic, version 2, body length and checksum,
    // then one monolithic body. The reader stops at the version.
    let mut v2 = b"AIDAKB".to_vec();
    v2.extend_from_slice(&2u16.to_le_bytes());
    v2.extend_from_slice(&(frames.len() as u64).to_le_bytes());
    v2.extend_from_slice(&0u64.to_le_bytes());
    v2.extend_from_slice(frames);
    // A future format version.
    let mut v4 = bytes.to_vec();
    v4[6..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    for (stream, version) in [(v1, u16::from_le_bytes(*b"01")), (v2, 2), (v4, 4)] {
        match snapshot_error(&stream) {
            SnapshotError::UnsupportedVersion { found, supported } => {
                assert_eq!(found, version);
                assert_eq!(supported, 3);
            }
            other => panic!("version {version}: expected version skew, got {other}"),
        }
    }
}

#[test]
fn reordered_and_missing_frames_are_rejected() {
    let bytes = snapshot_fixture();
    let frames = snapshot_frames(bytes);
    let missing = |stream: &[u8]| match snapshot_error(stream) {
        SnapshotError::MissingSection { section } => section,
        other => panic!("expected a missing section, got {other}"),
    };
    // All six frames, last first: the phrase-run frame stands where the
    // entities belong.
    assert_eq!(missing(&reassembled(bytes, frames.iter().rev().cloned())), "entities");
    for (i, &section) in SECTIONS.iter().enumerate() {
        let without = frames.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, f)| f.clone());
        assert_eq!(missing(&reassembled(bytes, without)), section, "frame {i} dropped");
        if i + 1 < frames.len() {
            let mut order = frames.clone();
            order.swap(i, i + 1);
            let swapped = missing(&reassembled(bytes, order));
            assert_eq!(swapped, section, "frames {i} and {} swapped", i + 1);
        }
    }
}

#[test]
fn bytes_after_the_last_frame_are_rejected() {
    let bytes = snapshot_fixture();
    // A second KB's valid entities frame appended after the sixth: it must
    // not replace the entity table under the first KB's other sections.
    let larger = larger_snapshot();
    let mut duplicated = bytes.to_vec();
    duplicated.extend_from_slice(&larger[snapshot_frames(&larger)[0].clone()]);
    let mut trailing = bytes.to_vec();
    trailing.push(0);
    for stream in [duplicated, trailing] {
        let err = snapshot_error(&stream);
        assert!(matches!(err, SnapshotError::Codec(_)), "unexpected error {err}");
    }
}

#[test]
fn swapped_frames_never_panic_and_inconsistent_ones_error() {
    // Each frame moved between two snapshots of different sizes, both
    // ways. Every frame keeps a valid checksum, so only the check that the
    // sections agree in shape stands between the reader and an entity
    // table that does not fit its links or keyphrases.
    let small = snapshot_fixture();
    let large = larger_snapshot();
    let (small_frames, large_frames) = (snapshot_frames(small), snapshot_frames(&large));
    for (i, section) in SECTIONS.iter().enumerate() {
        for (host, host_frames, guest, guest_frames) in [
            (small, &small_frames, &large[..], &large_frames),
            (&large[..], &large_frames, small, &small_frames),
        ] {
            let mut stream = host[..host_frames[i].start].to_vec();
            stream.extend_from_slice(&guest[guest_frames[i].clone()]);
            stream.extend_from_slice(&host[host_frames[i].end..]);
            let result = read_frozen_snapshot(stream.as_slice());
            // The smaller KB's dictionary names only entities the larger KB
            // has as well, so it fits there; every other swap leaves a
            // count or an id inconsistent.
            if *section == "dictionary" && host.len() > guest.len() {
                assert!(result.is_ok(), "{section} into the larger KB: {:?}", result.err());
            } else {
                assert!(
                    matches!(result, Err(NedError::Snapshot(SnapshotError::Codec(_)))),
                    "{section} swapped: {:?}",
                    result.err()
                );
            }
        }
    }
}

proptest! {
    /// Any corrupted byte stream — truncated or bit-flipped — yields a
    /// typed error: no panic, no silent garbage KB.
    #[test]
    fn corrupted_snapshots_always_error_never_panic(
        cut in 0usize..10_000,
        flip_pos in 0usize..10_000,
        flip_bit in 0u32..8,
    ) {
        let bytes = snapshot_fixture();

        // Strict truncation always errors: all six frames are required.
        let cut = cut % bytes.len();
        prop_assert!(read_frozen_snapshot(&bytes[..cut]).is_err());

        // A single bit flip anywhere always errors: the header fields are
        // all load-bearing and each frame is covered by its checksum.
        let pos = flip_pos % bytes.len();
        let mut corrupt = bytes.to_vec();
        corrupt[pos] ^= 1u8 << flip_bit;
        prop_assert!(read_frozen_snapshot(corrupt.as_slice()).is_err());
    }

    /// Arbitrary bytes never panic the decoder, on their own or behind a
    /// valid header, where they reach the frame parser.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        data in proptest::collection::vec(0u8..255, 0..512),
    ) {
        // Random data cannot carry a valid magic and six checksummed
        // frames; decode must reject it (and in particular must not panic).
        prop_assert!(read_frozen_snapshot(data.as_slice()).is_err());
        let mut framed = snapshot_fixture()[..8].to_vec();
        framed.extend_from_slice(&data);
        prop_assert!(read_frozen_snapshot(framed.as_slice()).is_err());
    }
}

/// FNV-1a (64-bit), the checksum of snapshot and WAL frames.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A snapshot or WAL frame of `tag` around `body`, with a correct checksum.
fn checksummed_frame(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut frame = vec![tag];
    frame.extend_from_slice(&(body.len() as u64).to_le_bytes());
    frame.extend_from_slice(&fnv1a(body).to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

/// Any byte.
fn byte() -> impl Strategy<Value = u8> {
    (0u16..256).prop_map(|b| b as u8)
}

/// `body` with each `(position, byte)` written over it.
fn edited(body: &[u8], edits: &[(usize, u8)]) -> Vec<u8> {
    let mut out = body.to_vec();
    for &(pos, b) in edits {
        let len = out.len();
        if let Some(slot) = out.get_mut(pos % len.max(1)) {
            *slot = b;
        }
    }
    out
}

/// Reads every part of a KB that loaded and writes it out again: sections
/// that passed the load's checks must serve each read without panicking.
fn read_everything(kb: &FrozenKb) {
    for (key, candidates) in KbView::dictionary(kb).iter() {
        for c in candidates {
            let _ = (kb.entity(c.entity), kb.prior(key, c.entity));
        }
    }
    for wi in 0..kb.word_count() {
        let w = WordId::from_index(wi);
        let _ = (kb.word_id(kb.word_text(w)), kb.keyphrase_index().postings(w));
    }
    for e in kb.entity_ids() {
        let _ = kb.entity_by_name(&kb.entity(e).canonical_name);
        let _ = (kb.links().inlinks(e), kb.links().outlinks(e));
        for ep in kb.keyphrases(e) {
            let _ = (kb.phrase_words(ep.phrase), kb.phrase_surface(ep.phrase));
            let _ = kb.phrase_runs().npmi_mass(e, ep.phrase);
        }
    }
    let mut bytes = Vec::new();
    write_frozen_snapshot(kb, &mut bytes).expect("snapshot written");
    assert!(read_frozen_snapshot(bytes.as_slice()).is_ok(), "a loaded KB's snapshot must load");
}

proptest! {
    /// Each of the fixture's six frames in turn replaced by a frame of
    /// arbitrary bytes, or of its own body with bytes written over, under
    /// a correct checksum: the section decoder and the shape check see the
    /// bytes. The load fails with a `Codec` error that names a section (the
    /// replaced one, or one whose shape disagrees with it), or yields a KB
    /// that serves every read.
    #[test]
    fn checksummed_garbage_sections_yield_typed_errors(
        data in proptest::collection::vec(byte(), 0..513),
        edits in proptest::collection::vec((0usize..100_000, byte()), 1..4),
    ) {
        let bytes = snapshot_fixture();
        let frames = snapshot_frames(bytes);
        for (i, (frame, section)) in frames.iter().zip(SECTIONS).enumerate() {
            let own_body = &bytes[frame.start + 17..frame.end];
            for body in [data.clone(), edited(own_body, &edits)] {
                let mut stream = bytes[..frame.start].to_vec();
                stream.extend_from_slice(&checksummed_frame(i as u8 + 1, &body));
                stream.extend_from_slice(&bytes[frame.end..]);
                match read_frozen_snapshot(stream.as_slice()) {
                    Ok(kb) => read_everything(&kb),
                    Err(NedError::Snapshot(SnapshotError::Codec(msg))) => {
                        let named = msg.split(':').next().unwrap_or_default();
                        prop_assert!(
                            SECTIONS.contains(&named),
                            "{} frame: error names no section: {}", section, msg
                        );
                    }
                    Err(other) => {
                        return Err(TestCaseError::fail(format!("{section} frame: {other}")));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// WAL corruption (incremental KB, DESIGN.md §15)
// ---------------------------------------------------------------------------

use aida_ned::kb::wal::replay as wal_replay;

/// Deterministically maps four seed bytes to a mutation, cycling through
/// every `KbMutation` variant so the codec sees all frame shapes.
fn synth_mutation(op: u8, a: u8, b: u8, count: u8) -> KbMutation {
    let name = |i: u8| format!("Entity {i}");
    let surface = |i: u8| format!("surface {i} of note");
    match op % 5 {
        0 => KbMutation::AddEntity { canonical_name: name(a), kind: EntityKind::Other },
        1 => KbMutation::AddLink { src: name(a), dst: name(b) },
        2 => KbMutation::AddKeyphrase {
            entity: name(a),
            surface: surface(b),
            count: u64::from(count) + 1,
        },
        3 => KbMutation::ReweightKeyphrase {
            entity: name(a),
            surface: surface(b),
            delta: i64::from(count) - 128,
        },
        _ => KbMutation::AddDictionarySurface {
            entity: name(a),
            surface: surface(b),
            count: u64::from(count) + 1,
        },
    }
}

/// Writes `muts` through a real [`Wal`] and returns the on-disk bytes.
/// Replay never checks applicability, so the mutations need not name
/// entities of any particular KB.
fn wal_bytes_for(muts: &[KbMutation], file_tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join("ned-fault-injection-wal");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(file_tag);
    let _ = std::fs::remove_file(&path);
    {
        let (mut wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed.records, 0);
        for m in muts {
            wal.append(m).unwrap();
        }
    }
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    bytes
}

/// A fixed mutation sequence covering every variant, with its WAL bytes.
fn wal_fixture() -> &'static (Vec<u8>, Vec<KbMutation>) {
    static FIXTURE: OnceLock<(Vec<u8>, Vec<KbMutation>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let muts: Vec<KbMutation> =
            (0..10u8).map(|i| synth_mutation(i, i % 4, (i + 1) % 4, i * 17)).collect();
        let bytes = wal_bytes_for(&muts, "fixture.wal");
        (bytes, muts)
    })
}

/// Byte ranges of the individual record frames in a clean WAL stream.
fn wal_frame_ranges(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    const HEADER_LEN: usize = 8;
    const FRAME_PRELUDE_LEN: usize = 17;
    let mut ranges = Vec::new();
    let mut pos = HEADER_LEN;
    while pos < bytes.len() {
        let mut len_bytes = [0u8; 8];
        len_bytes.copy_from_slice(&bytes[pos + 1..pos + 9]);
        let frame_len = FRAME_PRELUDE_LEN + u64::from_le_bytes(len_bytes) as usize;
        ranges.push(pos..pos + frame_len);
        pos += frame_len;
    }
    assert_eq!(pos, bytes.len(), "fixture stream must parse cleanly");
    ranges
}

proptest! {
    /// Truncating a valid WAL anywhere — mid-header, mid-prelude, mid-body,
    /// or on a frame boundary — always recovers: replay returns exactly the
    /// complete-record prefix and accounts for every byte it discarded.
    #[test]
    fn truncated_wal_recovers_exactly_the_complete_prefix(cut in 0usize..100_000) {
        let (bytes, muts) = wal_fixture();
        let cut = cut % (bytes.len() + 1);
        let replayed = wal_replay(&bytes[..cut]).expect("truncation is recoverable");
        let k = replayed.mutations.len();
        prop_assert!(k <= muts.len());
        prop_assert_eq!(&replayed.mutations, &muts[..k]);
        prop_assert_eq!(replayed.valid_len + replayed.torn_tail_bytes, cut as u64);
        prop_assert_eq!(replayed.next_seq(), k as u64);
        // Full-length "truncation" is the clean log itself.
        if cut == bytes.len() {
            prop_assert_eq!(k, muts.len());
            prop_assert!(!replayed.recovered_torn_tail());
        }
    }

    /// A single bit flip anywhere in a WAL either fails with a typed
    /// `WalError` or recovers a strictly shorter valid prefix (a flipped
    /// frame length can mimic a torn tail) — it never panics and never
    /// produces mutations the log did not carry.
    #[test]
    fn bit_flipped_wal_errors_or_recovers_a_prefix(
        pos in 0usize..100_000,
        bit in 0u32..8,
    ) {
        let (bytes, muts) = wal_fixture();
        let pos = pos % bytes.len();
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 1u8 << bit;
        match wal_replay(&corrupt) {
            Err(NedError::Wal(_)) => {}
            Err(other) => return Err(TestCaseError::fail(format!(
                "flip at {pos} bit {bit}: non-WAL error {other}"
            ))),
            Ok(replayed) => {
                let k = replayed.mutations.len();
                prop_assert!(
                    k < muts.len(),
                    "flip at {} bit {} went unnoticed", pos, bit
                );
                prop_assert_eq!(&replayed.mutations, &muts[..k]);
            }
        }
    }

    /// Crash-duplicated appends — any schedule of re-appending an already
    /// written frame suffix — replay idempotently: the mutation sequence is
    /// unchanged and every duplicate is counted, not applied.
    #[test]
    fn duplicate_append_schedules_replay_idempotently(
        schedule in proptest::collection::vec(0u8..255, 10..11),
    ) {
        let (bytes, muts) = wal_fixture();
        let frames = wal_frame_ranges(bytes);
        prop_assert_eq!(frames.len(), muts.len());
        let mut stream = bytes[..8].to_vec();
        let mut expected_duplicates = 0u64;
        for (i, frame) in frames.iter().enumerate() {
            stream.extend_from_slice(&bytes[frame.clone()]);
            // After the i-th append, maybe re-append frames j..=i, as a
            // crash between write and acknowledgement would.
            let choice = schedule[i] as usize;
            if choice.is_multiple_of(3) {
                let j = choice % (i + 1);
                for dup in &frames[j..=i] {
                    stream.extend_from_slice(&bytes[dup.clone()]);
                    expected_duplicates += 1;
                }
            }
        }
        let replayed = wal_replay(&stream).expect("duplicates are recoverable");
        prop_assert_eq!(&replayed.mutations, muts);
        prop_assert_eq!(replayed.duplicates_skipped, expected_duplicates);
        prop_assert_eq!(replayed.records, muts.len() as u64 + expected_duplicates);
        prop_assert!(!replayed.recovered_torn_tail());
    }

    /// A header and one record frame of arbitrary bytes, or of the first
    /// fixture record's body with bytes written over, under a correct
    /// checksum: the record decoder sees the bytes. Replay fails with a
    /// typed `WalError` (undecodable body, or a sequence number past 0) or
    /// recovers the one mutation the body decodes to.
    #[test]
    fn checksummed_garbage_records_yield_typed_errors(
        data in proptest::collection::vec(byte(), 0..513),
        edits in proptest::collection::vec((0usize..100_000, byte()), 1..4),
    ) {
        let (bytes, _) = wal_fixture();
        let first = wal_frame_ranges(bytes)[0].clone();
        for body in [data.clone(), edited(&bytes[first.start + 17..first.end], &edits)] {
            let mut stream = bytes[..8].to_vec();
            stream.extend_from_slice(&checksummed_frame(1, &body));
            match wal_replay(&stream) {
                Ok(replayed) => {
                    prop_assert_eq!((replayed.records, replayed.mutations.len()), (1, 1));
                    prop_assert!(!replayed.recovered_torn_tail());
                }
                Err(NedError::Wal(WalError::Codec { offset: 8, .. }))
                | Err(NedError::Wal(WalError::SequenceGap { expected: 0, .. })) => {}
                Err(other) => {
                    return Err(TestCaseError::fail(format!("body {body:?}: {other}")));
                }
            }
        }
    }

    /// End-to-end crash recovery over arbitrary mutation sequences: write
    /// through a real `Wal`, tear the file at an arbitrary point, reopen.
    /// The recovered log is exactly a prefix of what was written, the file
    /// is repaired in place, and appends continue from the recovered
    /// sequence number.
    #[test]
    fn torn_wal_reopens_to_a_prefix_and_accepts_new_appends(
        seeds in proptest::collection::vec(
            (0u8..255, 0u8..255, 0u8..255, 0u8..255), 1..9),
        cut in 0usize..100_000,
    ) {
        let muts: Vec<KbMutation> =
            seeds.iter().map(|&(op, a, b, c)| synth_mutation(op, a, b, c)).collect();
        let clean = wal_bytes_for(&muts, "torn-reopen.wal");
        prop_assert_eq!(&wal_replay(&clean).unwrap().mutations, &muts);

        let cut = cut % (clean.len() + 1);
        let dir = std::env::temp_dir().join("ned-fault-injection-wal");
        let path = dir.join("torn-reopen.wal");
        std::fs::write(&path, &clean[..cut]).unwrap();
        let k = {
            let (mut wal, replayed) = Wal::open(&path).expect("torn log reopens");
            let k = replayed.mutations.len();
            prop_assert!(k <= muts.len());
            prop_assert_eq!(&replayed.mutations, &muts[..k]);
            prop_assert_eq!(wal.next_seq(), k as u64);
            // The repaired log accepts the remainder of the sequence.
            wal.append(&muts[k.min(muts.len() - 1)]).unwrap();
            k
        };
        let repaired = std::fs::read(&path).unwrap();
        let replayed = wal_replay(&repaired).expect("repaired log is clean");
        prop_assert!(!replayed.recovered_torn_tail());
        prop_assert_eq!(replayed.mutations.len(), k + 1);
        prop_assert_eq!(&replayed.mutations[..k], &muts[..k]);
        let _ = std::fs::remove_file(&path);
    }
}

// ---------------------------------------------------------------------------
// Corpus files (gold corpora on disk)
// ---------------------------------------------------------------------------

/// The corpus file of three seeded documents.
fn corpus_fixture() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny(61));
        let exported = ExportedKb::build(&world);
        let mut bytes = Vec::new();
        write_docs(&conll_like(&world, &exported, 1, 3).docs, &mut bytes).unwrap();
        bytes
    })
}

proptest! {
    /// A corpus file with a valid magic and length around arbitrary body
    /// bytes, or around the fixture's body with bytes written over: the
    /// corpus decoder sees the bytes. Reading fails with `InvalidData` or
    /// yields documents whose spans validate and that round-trip.
    #[test]
    fn corpus_bodies_decode_to_typed_errors_or_valid_documents(
        data in proptest::collection::vec(byte(), 0..513),
        edits in proptest::collection::vec((0usize..100_000, byte()), 1..4),
    ) {
        let fixture = corpus_fixture();
        for body in [data.clone(), edited(&fixture[16..], &edits)] {
            let mut file = fixture[..8].to_vec();
            file.extend_from_slice(&(body.len() as u64).to_le_bytes());
            file.extend_from_slice(&body);
            match read_docs(file.as_slice()) {
                Ok(docs) => {
                    prop_assert!(docs.iter().all(|doc| doc.validate().is_ok()));
                    let mut again = Vec::new();
                    write_docs(&docs, &mut again).unwrap();
                    prop_assert_eq!(read_docs(again.as_slice()).unwrap(), docs);
                }
                Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{}", e),
            }
        }
    }
}
