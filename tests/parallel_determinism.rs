//! The parallel engine must be a pure speedup: running the disambiguator
//! over a corpus with any thread count produces byte-identical outcomes.
//! This must hold on the degraded rungs of the fault-tolerance ladder too:
//! a solver budget that forces fallbacks fires at deterministic algorithmic
//! points, so degraded runs are just as reproducible. Every run goes
//! through the service configuration: one frozen KB behind a shared `Arc`
//! handle. (That the keyphrase inverted index prunes the similarity scan
//! without changing a bit is a proptest in `ned-aida`'s `similarity`
//! module, next to the test-only exhaustive scan it compares against.)

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use aida_ned::aida::{AidaConfig, Disambiguator};
use aida_ned::kb::FrozenKb;
use aida_ned::relatedness::{CachedRelatedness, MilneWitten};
use aida_ned::wikigen::config::WorldConfig;
use aida_ned::wikigen::corpus::conll_like;
use aida_ned::wikigen::{ExportedKb, World};
use ned_bench::runner::{run_method_with_threads, Evaluation};

/// Outcomes are equal down to the sign bit of every confidence value.
fn assert_identical(a: &Evaluation, b: &Evaluation, threads: usize) {
    assert_eq!(a.docs.len(), b.docs.len());
    for (da, db) in a.docs.iter().zip(&b.docs) {
        assert_eq!(da.gold, db.gold);
        assert_eq!(da.predicted, db.predicted, "labels diverge at {threads} threads");
        assert_eq!(da.status, db.status, "statuses diverge at {threads} threads");
        assert_eq!(da.confidence.len(), db.confidence.len());
        for (ca, cb) in da.confidence.iter().zip(&db.confidence) {
            assert_eq!(
                ca.to_bits(),
                cb.to_bits(),
                "confidence diverges at {threads} threads: {ca} vs {cb}"
            );
        }
    }
}

#[test]
fn thread_count_does_not_change_outcomes() {
    let world = World::generate(WorldConfig {
        entities_per_topic: 120,
        ..WorldConfig::default()
    });
    let exported = ExportedKb::build(&world);
    let corpus = conll_like(&world, &exported, 11, 16);
    let kb = Arc::new(FrozenKb::freeze(&exported.kb));

    let cached = CachedRelatedness::new(MilneWitten::new(kb.clone()));
    let method = Disambiguator::new(kb, &cached, AidaConfig::full());

    let baseline = run_method_with_threads(&method, &corpus.docs, 1).expect("thread pool");
    assert!(!baseline.docs.is_empty());
    for threads in [2usize, 4, 8] {
        let parallel =
            run_method_with_threads(&method, &corpus.docs, threads).expect("thread pool");
        assert_identical(&baseline, &parallel, threads);
    }
}

#[test]
fn degraded_runs_are_deterministic_across_thread_counts() {
    let world = World::generate(WorldConfig {
        entities_per_topic: 120,
        ..WorldConfig::default()
    });
    let exported = ExportedKb::build(&world);
    let corpus = conll_like(&world, &exported, 11, 16);
    let kb = Arc::new(FrozenKb::freeze(&exported.kb));

    // A solver budget this tight exhausts on every nontrivial document,
    // forcing the no-coherence fallback. The budget is charged at
    // deterministic algorithmic points, so the degraded outcomes — labels,
    // confidences, and degradation tags — must still be byte-identical
    // for any thread count.
    let config = AidaConfig { solver_max_iterations: 8, ..AidaConfig::full() };
    let cached = CachedRelatedness::new(MilneWitten::new(kb.clone()));
    let method = Disambiguator::new(kb, &cached, config);

    let baseline = run_method_with_threads(&method, &corpus.docs, 1).expect("thread pool");
    assert!(!baseline.docs.is_empty());
    assert!(
        baseline.degraded_count() > 0,
        "a tight solver budget must force degraded documents"
    );
    assert_eq!(baseline.failed_count(), 0, "degradation is not failure");
    for threads in [2usize, 4, 8] {
        let parallel =
            run_method_with_threads(&method, &corpus.docs, threads).expect("thread pool");
        assert_identical(&baseline, &parallel, threads);
    }
}
