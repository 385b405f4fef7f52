//! Golden-metrics suite: exact counter values for a fixed seed, pinned.
//!
//! Everything in the pipeline is deterministic — synthetic world, corpus,
//! candidate generation, similarity, solver — so the counters recorded by
//! the observability layer are exact constants for a given seed, not
//! ranges. These tests pin them. A diff here means the pipeline's work
//! profile changed (more candidates scanned, different solver trajectory,
//! a counter moved), which is exactly the class of silent behaviour change
//! the observability layer exists to catch.
//!
//! To regenerate after an intended change:
//!   cargo test --test metrics_golden -- --ignored dump_golden --nocapture

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::{Arc, OnceLock};

use aida_ned::aida::{AidaConfig, Disambiguator};
use aida_ned::kb::FrozenKb;
use aida_ned::obs::{Metrics, MetricsSnapshot};
use aida_ned::relatedness::{CachedRelatedness, MilneWitten};
use aida_ned::wikigen::config::WorldConfig;
use aida_ned::wikigen::corpus::conll_like;
use aida_ned::wikigen::{ExportedKb, World};
use ned_bench::runner::run_method_with_threads;
use ned_eval::gold::GoldDoc;

/// The fixed environment under test: tiny world (seed 7), CoNLL-like
/// corpus (seed 13, 8 documents), frozen columnar KB — the service path.
fn env() -> &'static (Arc<FrozenKb>, Vec<GoldDoc>) {
    static ENV: OnceLock<(Arc<FrozenKb>, Vec<GoldDoc>)> = OnceLock::new();
    ENV.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny(7));
        let exported = ExportedKb::build(&world);
        let frozen = Arc::new(FrozenKb::freeze(&exported.kb));
        let corpus = conll_like(&world, &exported, 13, 8);
        (frozen, corpus.docs)
    })
}

/// Runs the instrumented pipeline over `docs` and returns the snapshot.
fn run(docs: &[GoldDoc]) -> MetricsSnapshot {
    let (frozen, _) = env();
    let metrics = Metrics::new();
    let cached = CachedRelatedness::with_metrics(MilneWitten::new(frozen.clone()), &metrics);
    let aida =
        Disambiguator::new(frozen.clone(), &cached, AidaConfig::full()).with_metrics(&metrics);
    let eval = run_method_with_threads(&aida, docs, 2).expect("thread pool");
    eval.record_metrics(&metrics);
    metrics.snapshot()
}

/// The counters a golden table pins (the work profile of a run).
const PINNED: &[&str] = &[
    "aida_docs",
    "aida_mentions",
    "aida_candidates_considered",
    "aida_similarity_evaluations",
    "aida_sim_phrases_matched",
    "aida_mentions_fixed",
    "aida_graph_entity_nodes",
    "aida_coherence_edges_built",
    "aida_solver_invocations",
    "aida_solver_iterations",
    "aida_solver_taboo_hits",
    "relatedness_cache_hits",
    "relatedness_cache_misses",
    "doc_status_ok",
];

fn assert_golden(snapshot: &MetricsSnapshot, golden: &[(&str, u64)], what: &str) {
    for &(name, expected) in golden {
        assert_eq!(
            snapshot.counter(name),
            expected,
            "{what}: counter {name} drifted from its pinned value"
        );
    }
}

/// Prints paste-ready golden tables. Run with `--ignored --nocapture`.
#[test]
#[ignore = "regeneration helper, not a check"]
fn dump_golden() {
    let (_, docs) = env();
    let whole = run(docs);
    println!("// whole corpus:");
    for name in PINNED {
        println!("    (\"{name}\", {}),", whole.counter(name));
    }
    for (i, doc) in docs.iter().take(3).enumerate() {
        let snap = run(std::slice::from_ref(doc));
        println!("// doc {i}:");
        for name in PINNED {
            println!("    (\"{name}\", {}),", snap.counter(name));
        }
    }
}

#[test]
fn whole_corpus_counters_are_pinned() {
    let (_, docs) = env();
    let snapshot = run(docs);
    let golden: &[(&str, u64)] = &[
        ("aida_docs", 8),
        ("aida_mentions", 161),
        ("aida_candidates_considered", 312),
        ("aida_similarity_evaluations", 312),
        ("aida_sim_phrases_matched", 2696),
        ("aida_mentions_fixed", 146),
        ("aida_graph_entity_nodes", 104),
        ("aida_coherence_edges_built", 124),
        ("aida_solver_invocations", 8),
        ("aida_solver_iterations", 36),
        ("aida_solver_taboo_hits", 295),
        ("relatedness_cache_hits", 47),
        ("relatedness_cache_misses", 218),
        ("doc_status_ok", 8),
    ];
    assert_golden(&snapshot, golden, "whole corpus");

    // Structural invariants that must hold in any snapshot of this run.
    assert_eq!(
        snapshot.counter("aida_similarity_evaluations"),
        snapshot.counter("aida_sim_plan_entity_side")
            + snapshot.counter("aida_sim_plan_word_side"),
        "every similarity evaluation picks exactly one plan"
    );
    assert_eq!(
        snapshot.counter("relatedness_cache_misses"),
        snapshot.counter("relatedness_cache_inserts"),
        "deterministic cache accounting: every miss inserts exactly once"
    );
    assert_eq!(
        snapshot.counter("doc_status_ok")
            + snapshot.counter("doc_status_degraded")
            + snapshot.counter("doc_status_failed"),
        snapshot.counter("aida_docs"),
        "statuses partition the corpus"
    );
}

#[test]
fn per_document_counters_are_pinned() {
    let (_, docs) = env();
    let golden_docs: &[&[(&str, u64)]] = &[
        &[
            ("aida_docs", 1),
            ("aida_mentions", 16),
            ("aida_candidates_considered", 23),
            ("aida_similarity_evaluations", 23),
            ("aida_sim_phrases_matched", 165),
            ("aida_mentions_fixed", 13),
            ("aida_graph_entity_nodes", 14),
            ("aida_coherence_edges_built", 10),
            ("aida_solver_invocations", 1),
            ("aida_solver_iterations", 5),
            ("aida_solver_taboo_hits", 39),
            ("relatedness_cache_hits", 0),
            ("relatedness_cache_misses", 22),
            ("doc_status_ok", 1),
        ],
        &[
            ("aida_docs", 1),
            ("aida_mentions", 21),
            ("aida_candidates_considered", 44),
            ("aida_similarity_evaluations", 44),
            ("aida_sim_phrases_matched", 483),
            ("aida_mentions_fixed", 20),
            ("aida_graph_entity_nodes", 11),
            ("aida_coherence_edges_built", 20),
            ("aida_solver_invocations", 1),
            ("aida_solver_iterations", 3),
            ("aida_solver_taboo_hits", 19),
            ("relatedness_cache_hits", 0),
            ("relatedness_cache_misses", 54),
            ("doc_status_ok", 1),
        ],
        &[
            ("aida_docs", 1),
            ("aida_mentions", 20),
            ("aida_candidates_considered", 46),
            ("aida_similarity_evaluations", 46),
            ("aida_sim_phrases_matched", 294),
            ("aida_mentions_fixed", 20),
            ("aida_graph_entity_nodes", 12),
            ("aida_coherence_edges_built", 12),
            ("aida_solver_invocations", 1),
            ("aida_solver_iterations", 2),
            ("aida_solver_taboo_hits", 12),
            ("relatedness_cache_hits", 0),
            ("relatedness_cache_misses", 34),
            ("doc_status_ok", 1),
        ],
    ];
    for (i, golden) in golden_docs.iter().enumerate() {
        let snapshot = run(std::slice::from_ref(&docs[i]));
        assert_golden(&snapshot, golden, &format!("doc {i}"));
    }
}

#[test]
fn per_document_counters_sum_to_the_corpus_totals() {
    let (_, docs) = env();
    let whole = run(docs);
    for name in PINNED {
        let sum: u64 =
            docs.iter().map(|d| run(std::slice::from_ref(d)).counter(name)).sum();
        // Every pinned counter is per-document additive except the
        // relatedness cache, whose hit/miss split depends on what earlier
        // documents already populated.
        if name.starts_with("relatedness_cache") {
            continue;
        }
        assert_eq!(sum, whole.counter(name), "counter {name} is not per-document additive");
    }
}
