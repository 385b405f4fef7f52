//! The observability layer's determinism contract: a metrics snapshot is a
//! pure function of the workload. Counter totals are u64 atomic additions,
//! which commute, so the snapshot must be bit-identical across thread
//! counts; the registry is keyed by a `BTreeMap`, so snapshot ordering is
//! lexicographic and stable; and under the default null clock the stage
//! histograms are interleaving-independent too. The same snapshot must also
//! come out of both KB backends (the frozen columnar `FrozenKb` and a
//! `DeltaKb` overlay of no mutations over it) and out of that overlay's
//! compaction — storage layout must not move a single counter. Finally,
//! the zero-overhead contract: attaching a registry must not change one
//! bit of annotation output.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Arc, OnceLock};

use aida_ned::aida::{AidaConfig, Disambiguator};
use aida_ned::kb::{DeltaKb, FrozenKb, KbView};
use aida_ned::obs::{Metrics, MetricsSnapshot};
use aida_ned::relatedness::{CacheConfig, CachedRelatedness, MilneWitten};
use aida_ned::wikigen::config::WorldConfig;
use aida_ned::wikigen::corpus::conll_like;
use aida_ned::wikigen::{ExportedKb, World};
use ned_bench::runner::{run_method_with_threads, Evaluation};
use ned_eval::gold::GoldDoc;
use proptest::prelude::*;

/// One world, built once per test binary: the corpus seeds vary per test,
/// the KB does not need to.
fn world() -> &'static (World, ExportedKb, Arc<FrozenKb>) {
    static WORLD: OnceLock<(World, ExportedKb, Arc<FrozenKb>)> = OnceLock::new();
    WORLD.get_or_init(|| {
        let world =
            World::generate(WorldConfig { entities_per_topic: 100, ..WorldConfig::default() });
        let exported = ExportedKb::build(&world);
        let frozen = Arc::new(FrozenKb::freeze(&exported.kb));
        (world, exported, frozen)
    })
}

fn corpus(seed: u64, docs: usize) -> Vec<GoldDoc> {
    let (world, exported, _) = world();
    conll_like(world, exported, seed, docs).docs
}

/// The other two backends over the shared frozen KB: an overlay of no
/// mutations, and that overlay compacted into a fresh frozen KB.
fn other_backends() -> (Arc<DeltaKb>, Arc<FrozenKb>) {
    let (_, _, frozen) = world();
    let overlay = Arc::new(DeltaKb::build(Arc::clone(frozen), Vec::new()).unwrap());
    let compacted = Arc::new(overlay.compact().unwrap());
    (overlay, compacted)
}

/// Runs the full pipeline (cached relatedness + disambiguator, both
/// instrumented) over `docs` on `kb` and returns the outcomes plus the
/// complete metrics snapshot.
fn run_on<K: KbView + Clone>(
    kb: K,
    docs: &[GoldDoc],
    threads: usize,
) -> (Evaluation, MetricsSnapshot) {
    let metrics = Metrics::new();
    let cached = CachedRelatedness::with_metrics(MilneWitten::new(kb.clone()), &metrics);
    let aida = Disambiguator::new(kb, &cached, AidaConfig::full()).with_metrics(&metrics);
    let eval = run_method_with_threads(&aida, docs, threads).expect("thread pool");
    eval.record_metrics(&metrics);
    (eval, metrics.snapshot())
}

/// [`run_on`] through the shared frozen KB.
fn run_frozen(docs: &[GoldDoc], threads: usize) -> (Evaluation, MetricsSnapshot) {
    run_on(world().2.clone(), docs, threads)
}

/// Bitwise outcome equality (confidences compared by bits).
fn assert_identical(a: &Evaluation, b: &Evaluation) {
    assert_eq!(a.docs.len(), b.docs.len());
    for (da, db) in a.docs.iter().zip(&b.docs) {
        assert_eq!(da.gold, db.gold);
        assert_eq!(da.predicted, db.predicted);
        assert_eq!(da.status, db.status);
        assert_eq!(da.confidence.len(), db.confidence.len());
        for (ca, cb) in da.confidence.iter().zip(&db.confidence) {
            assert_eq!(ca.to_bits(), cb.to_bits());
        }
    }
}

#[test]
fn snapshot_is_identical_across_thread_counts() {
    // 1/2/4/8 threads: with the per-worker scratch arenas live (PR 6),
    // every thread count must still produce the same outcomes and the same
    // snapshot — arena reuse is invisible to both.
    let docs = corpus(17, 12);
    let (eval1, snap1) = run_frozen(&docs, 1);
    assert!(snap1.counter("aida_docs") > 0, "the run must record work");
    for threads in [2usize, 4, 8] {
        let (eval, snap) = run_frozen(&docs, threads);
        assert_identical(&eval1, &eval);
        assert_eq!(snap1, snap, "metrics snapshot diverged at {threads} threads");
    }
}

#[test]
fn snapshot_is_identical_across_kb_backends() {
    let docs = corpus(23, 10);
    let (frozen_eval, frozen_snap) = run_frozen(&docs, 1);
    let (overlay, compacted) = other_backends();
    for threads in [1usize, 2, 4, 8] {
        let runs = [
            ("overlay", run_on(overlay.clone(), &docs, threads)),
            ("compacted", run_on(compacted.clone(), &docs, threads)),
        ];
        for (backend, (eval, snap)) in runs {
            assert_identical(&frozen_eval, &eval);
            assert_eq!(
                frozen_snap, snap,
                "the storage backend moved a counter: frozen vs {backend} at {threads} threads"
            );
        }
    }
}

#[test]
fn attaching_metrics_does_not_change_outcomes() {
    let (_, _, frozen) = world();
    let docs = corpus(29, 10);

    // Metrics off: the default disabled registry — every counter is a
    // no-op handle and the pipeline must behave identically.
    let cached = CachedRelatedness::new(MilneWitten::new(frozen.clone()));
    let aida = Disambiguator::new(frozen.clone(), &cached, AidaConfig::full());
    let off = run_method_with_threads(&aida, &docs, 1).expect("thread pool");

    let (on, snap) = run_frozen(&docs, 1);
    assert_identical(&off, &on);
    assert!(snap.counter("aida_mentions") > 0);
}

/// Stats read directly off the cache after a bounded pipeline run, so
/// conservation can be checked against live occupancy without publishing
/// gauges mid-run.
struct CacheRun {
    eval: Evaluation,
    snap: MetricsSnapshot,
    live_entries: u64,
    bytes: u64,
    bytes_peak: u64,
}

/// Runs the pipeline on `kb` with a bounded relatedness cache.
fn run_capped_on<K: KbView + Clone>(
    kb: K,
    docs: &[GoldDoc],
    threads: usize,
    config: CacheConfig,
) -> CacheRun {
    let metrics = Metrics::new();
    let cached = CachedRelatedness::with_config(MilneWitten::new(kb.clone()), &metrics, config);
    let aida = Disambiguator::new(kb, &cached, AidaConfig::full()).with_metrics(&metrics);
    let eval = run_method_with_threads(&aida, docs, threads).expect("thread pool");
    eval.record_metrics(&metrics);
    cached.cache().publish_gauges();
    CacheRun {
        eval,
        snap: metrics.snapshot(),
        live_entries: cached.cache().len() as u64,
        bytes: cached.cache().bytes_used(),
        bytes_peak: cached.cache().bytes_peak(),
    }
}

/// [`run_capped_on`] through the shared frozen KB.
fn run_frozen_capped(docs: &[GoldDoc], threads: usize, config: CacheConfig) -> CacheRun {
    run_capped_on(world().2.clone(), docs, threads, config)
}

/// Asserts the cache-counter conservation laws on a snapshot.
fn assert_cache_conservation(snap: &MetricsSnapshot, live_entries: u64) {
    assert_eq!(
        snap.counter("relatedness_cache_misses"),
        snap.counter("relatedness_cache_inserts")
            + snap.counter("relatedness_cache_admit_rejected")
            + snap.counter("relatedness_cache_stale_discards"),
        "misses must split exactly into inserts + admit-rejects + stale discards"
    );
    assert_eq!(
        snap.counter("relatedness_cache_inserts"),
        snap.counter("relatedness_cache_evictions") + live_entries,
        "every insert is either still live or was evicted"
    );
}

/// A cap small enough to bind on a 10-doc corpus (64 entries' worth; the
/// corpus looks up about 220 distinct pairs).
const TIGHT_CAP: u64 = 64 * aida_ned::relatedness::ENTRY_BYTES;

#[test]
fn capped_cache_is_invisible_to_outcomes_and_conserves_lookups() {
    let docs = corpus(31, 10);
    let (unbounded, unbounded_snap) = run_frozen(&docs, 1);
    let config = CacheConfig::bounded(TIGHT_CAP);
    let one = run_frozen_capped(&docs, 1, config);

    // Eviction-free determinism: annotation outcomes are byte-identical
    // to the unbounded cache (memoization is an optimization, never a
    // result), even while the cap binds and entries churn.
    assert_identical(&unbounded, &one.eval);
    assert!(one.snap.counter("relatedness_cache_evictions") > 0, "cap must bind for this test");
    assert_cache_conservation(&one.snap, one.live_entries);
    assert!(one.bytes <= TIGHT_CAP, "byte cap violated");
    assert!(one.bytes_peak <= TIGHT_CAP, "peak bytes exceeded the cap");

    // For a fixed single-threaded sequence the accounting is exact:
    // repeated runs produce bit-identical snapshots, gauges included.
    let again = run_frozen_capped(&docs, 1, config);
    assert_eq!(one.snap, again.snap, "capped single-threaded snapshot must be reproducible");

    let lookups = |s: &MetricsSnapshot| {
        s.counter("relatedness_cache_hits") + s.counter("relatedness_cache_misses")
    };
    assert_eq!(
        lookups(&one.snap),
        lookups(&unbounded_snap),
        "the cap must not change how many lookups the pipeline issues"
    );
    for threads in [2usize, 4] {
        let multi = run_frozen_capped(&docs, threads, config);
        assert_identical(&one.eval, &multi.eval);
        // Under concurrency the hit/miss split may shift (which pairs
        // win memoization depends on arrival order) but the totals
        // conserve and the byte bound holds at every observation point.
        assert_eq!(
            lookups(&multi.snap),
            lookups(&one.snap),
            "lookup total drifted at {threads} threads"
        );
        assert_cache_conservation(&multi.snap, multi.live_entries);
        assert!(multi.bytes <= TIGHT_CAP);
        assert!(multi.bytes_peak <= TIGHT_CAP);
    }
}

#[test]
fn capped_snapshot_is_identical_across_kb_backends() {
    // The storage backend must not move a cache counter even when the cap
    // binds: the frozen KB, the overlay of no mutations and its compaction
    // drive identical access sequences, so evictions, admissions, and
    // gauges land identically.
    let docs = corpus(37, 8);
    let config = CacheConfig::bounded(TIGHT_CAP);

    let frozen = run_frozen_capped(&docs, 1, config);
    let (overlay, compacted) = other_backends();
    let runs = [
        ("overlay", run_capped_on(overlay, &docs, 1, config)),
        ("compacted", run_capped_on(compacted, &docs, 1, config)),
    ];
    for (backend, run) in runs {
        assert_identical(&frozen.eval, &run.eval);
        assert_eq!(
            frozen.snap, run.snap,
            "frozen vs {backend} bounded snapshots differ: backend layout leaked into eviction"
        );
    }
}

/// Shard-partitioned trace replay: each shard's access sub-sequence is a
/// pure function of the trace, so replaying shards on 1, 2, 4, or 8
/// threads (threads own disjoint shard groups) must produce bit-identical
/// metrics snapshots, contents, and gauges. This is the cross-thread half
/// of the determinism contract: eviction state never leaks across shards.
#[test]
fn bounded_cache_snapshots_are_bit_identical_across_1_2_4_8_threads() {
    use aida_ned::obs::names;
    use aida_ned::relatedness::{
        canonical_key, shard_index, CacheConfig, PairCache, PairKey, ENTRY_BYTES, SHARD_COUNT,
    };
    use aida_ned::kb::EntityId;

    // A deterministic trace over a universe wide enough to touch every
    // shard, hot enough to produce hits, and long enough to force
    // evictions under the tight cap. Two phases separated by a generation
    // advance, so PR 9 invalidation composes with eviction.
    let trace: Vec<PairKey> = {
        let mut state = 0xdead_beef_cafe_f00du64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..6000)
            .map(|_| {
                // Zipf-ish: half the draws from a hot set of 8 entities.
                let hot = step() % 2 == 0;
                let span = if hot { 8 } else { 64 };
                let a = EntityId((step() % span) as u32);
                let b = EntityId((step() % span) as u32);
                canonical_key(a, b)
            })
            .collect()
    };
    let value_of = |key: PairKey, generation: u64| -> f64 {
        f64::from(key.0 .0) * 31.0 + f64::from(key.1 .0) + generation as f64 * 0.5
    };

    let replay = |config: CacheConfig, threads: usize| {
        let metrics = Metrics::new();
        let cache = PairCache::new(config, &metrics);
        // Partition the trace by shard, preserving per-shard order.
        let mut by_shard: Vec<Vec<PairKey>> = vec![Vec::new(); SHARD_COUNT];
        for &key in &trace {
            by_shard[shard_index(key)].push(key);
        }
        for generation in [0u64, 1] {
            if generation > 0 {
                cache.advance_generation(generation);
            }
            std::thread::scope(|s| {
                for t in 0..threads {
                    let shards: Vec<&[PairKey]> = by_shard
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % threads == t)
                        .map(|(_, v)| v.as_slice())
                        .collect();
                    let cache = &cache;
                    s.spawn(move || {
                        for shard_trace in shards {
                            for &key in shard_trace {
                                cache.get_or_insert_with(key.0, key.1, || {
                                    value_of(key, generation)
                                });
                            }
                        }
                    });
                }
            });
        }
        cache.publish_gauges();
        let mut contents = cache.contents();
        contents.sort_unstable_by_key(|entry| entry.0);
        (metrics.snapshot(), contents)
    };

    for cap in [Some(4 * SHARD_COUNT as u64 * ENTRY_BYTES), Some(0), Some(1 << 24), None] {
        let config = cap.map_or_else(CacheConfig::unbounded, CacheConfig::bounded);
        let (snap1, contents1) = replay(config, 1);
        assert_eq!(
            snap1.counter(names::RELATEDNESS_CACHE_HITS)
                + snap1.counter(names::RELATEDNESS_CACHE_MISSES),
            2 * trace.len() as u64,
            "every replayed lookup is exactly one hit or miss"
        );
        for threads in [2usize, 4, 8] {
            let (snap, contents) = replay(config, threads);
            assert_eq!(snap1, snap, "cache snapshot diverged at {threads} threads (cap {cap:?})");
            assert_eq!(
                contents1, contents,
                "cache contents diverged at {threads} threads (cap {cap:?})"
            );
        }
    }
}

#[test]
fn disabled_registry_snapshot_is_empty() {
    let m = Metrics::default();
    assert!(!m.is_enabled());
    m.counter("anything").add(7);
    let snap = m.snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.histograms.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Over arbitrary corpora (and a starved solver on odd seeds, so the
    /// degraded rungs of the ladder are exercised too), one thread and
    /// four threads produce the same snapshot.
    #[test]
    fn snapshot_determinism_over_arbitrary_corpora(
        seed in 0u64..1000,
        n_docs in 2usize..8,
    ) {
        let (_, _, frozen) = world();
        let docs = corpus(seed, n_docs);
        let config = if seed % 2 == 1 {
            AidaConfig { solver_max_iterations: 8, ..AidaConfig::full() }
        } else {
            AidaConfig::full()
        };
        let run = |threads: usize| {
            let metrics = Metrics::new();
            let cached =
                CachedRelatedness::with_metrics(MilneWitten::new(frozen.clone()), &metrics);
            let aida = Disambiguator::new(frozen.clone(), &cached, config.clone())
                .with_metrics(&metrics);
            let eval = run_method_with_threads(&aida, &docs, threads).expect("thread pool");
            eval.record_metrics(&metrics);
            metrics.snapshot()
        };
        let one = run(1);
        let four = run(4);
        prop_assert_eq!(one, four);
    }
}
