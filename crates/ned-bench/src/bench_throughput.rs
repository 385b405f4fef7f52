//! Throughput benchmark of the parallel disambiguation engine: its
//! deterministic outputs.
//!
//! Runs full AIDA (with a cached Milne–Witten measure) over the CoNLL-like
//! corpus at 1/2/4/8 threads through the `Arc<FrozenKb>` read path (the
//! service configuration) and asserts that every thread count produces
//! byte-identical outcomes. It reports per-count failure accounting, the
//! relatedness-cache hit rate, allocation events, a cache sweep and the
//! frozen KB's footprint — no wall-clock figures: the perfbench workloads
//! (`perfbench/`) measure speed, with repeated runs. Results are printed as
//! a table and written to `BENCH_throughput.json` and `metrics.json` in the
//! working directory. CI diffs `metrics.json`
//! against `fixtures/metrics_quick.json`: its counters are exact for the
//! fixed seed, so any drift is a behaviour change.
//!
//! Each sweep run carries its own [`ned_obs::Metrics`] registry; the bench
//! asserts that the full metrics snapshot — every counter and histogram
//! bucket — is identical across thread counts (the observability layer's
//! determinism contract), and that a metrics-disabled run produces
//! byte-identical annotations to the instrumented ones (the zero-overhead
//! contract).
//!
//! The cache sweep bounds the relatedness cache at ascending byte caps,
//! ending with an unbounded row. Before the report is
//! written, `sweep_violations` checks its laws on the typed rows, naming
//! each one that breaks: `misses == inserts + admit_rejected +
//! stale_discards`, `inserts == evictions + live_entries`, `bytes ==
//! live_entries × ENTRY_BYTES`, `bytes <= peak_bytes <= cap_bytes`, a
//! bit-identical rerun, outcomes equal to the unbounded baseline, and a hit
//! rate that never falls as the cap grows. `lookups == hits + misses` holds
//! because the bench computes `lookups` that way.
//!
//! Because the harness installs the counting allocator (see
//! `ned_obs::alloc`), every stage also reports its allocation-event count:
//! per-run `allocs_per_doc` columns, a tokenization stage whose count must
//! not grow with the number of tokens, and a batched-scoring stage that
//! certifies the steady-state hot path allocates ~nothing per mention.
//! The single-threaded stage figures feed the shrink-only `alloc.toml`
//! ratchet (checked by the `alloc_check` binary in CI).

use ned_kb::FrozenKbStats;
use ned_obs::{names as obs_names, Metrics, MetricsSnapshot};

use ned_aida::context::DocumentContext;
use ned_aida::scratch::with_scratch;
use ned_aida::similarity::simscores_batch;
use ned_aida::{AidaConfig, Disambiguator, KeywordWeighting, SimObs};
use ned_eval::report::{num, Table};
use ned_relatedness::{CacheConfig, CachedRelatedness, MilneWitten, ENTRY_BYTES};

use crate::alloc_events;
use crate::runner::{run_method_with_threads, Evaluation};
use crate::setup::{Env, Scale};

/// A document's context with each mention and its candidate entities.
type SimDoc<'a> = (DocumentContext, Vec<(&'a ned_text::Mention, Vec<ned_kb::EntityId>)>);

/// One thread-count run.
#[derive(Debug, Clone, Copy)]
struct Run {
    threads: usize,
    cache_hit_rate: f64,
    failed_docs: usize,
    degraded_docs: usize,
    /// Allocation events during the pipeline pass (process-global delta at
    /// quiescent points; exact at 1 thread, scheduling-dependent above).
    alloc_events: u64,
    allocs_per_doc: f64,
}

/// One row of the hit-rate-vs-memory-cap cache sweep: a single-threaded
/// pipeline pass with the relatedness cache bounded to `cap_bytes`
/// (`None` is the unbounded reference row). The counters come from the
/// run's metrics snapshot, so [`sweep_violations`] checks the same
/// conservation laws the unit harness proves.
#[derive(Debug, Clone)]
struct CacheSweepRow {
    cap_bytes: Option<u64>,
    lookups: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
    admit_rejected: u64,
    stale_discards: u64,
    live_entries: u64,
    bytes: u64,
    peak_bytes: u64,
    hit_rate: f64,
    /// The run was executed twice; true when both snapshots matched bitwise.
    rerun_deterministic: bool,
    /// Annotation outcomes were byte-identical to the unbounded baseline.
    outcomes_match_unbounded: bool,
}

impl CacheSweepRow {
    /// The cap in bytes, or "unbounded" for the reference row.
    fn cap_label(&self) -> String {
        self.cap_bytes.map_or_else(|| "unbounded".to_string(), |c| c.to_string())
    }
}

/// One stage's allocation accounting for the report and the ratchet.
#[derive(Debug, Clone, Copy)]
struct StageAlloc {
    stage: &'static str,
    alloc_events: u64,
    /// What `per_unit` divides by ("doc", "pair", "mention").
    unit: &'static str,
    per_unit: f64,
}

/// The cache sweep's laws: one message per broken law, naming the law and
/// the row. Rows come with ascending caps and the unbounded row last, as
/// `run` builds them.
fn sweep_violations(rows: &[CacheSweepRow]) -> Vec<String> {
    let mut out = Vec::new();
    for r in rows {
        let ctx = format!("cap {}", r.cap_label());
        if r.misses != r.inserts + r.admit_rejected + r.stale_discards {
            out.push(format!(
                "{ctx}: misses ({}) != inserts ({}) + admit_rejected ({}) + stale_discards ({})",
                r.misses, r.inserts, r.admit_rejected, r.stale_discards
            ));
        }
        if r.inserts != r.evictions + r.live_entries {
            out.push(format!(
                "{ctx}: inserts ({}) != evictions ({}) + live_entries ({})",
                r.inserts, r.evictions, r.live_entries
            ));
        }
        if r.bytes != r.live_entries * ENTRY_BYTES {
            out.push(format!(
                "{ctx}: bytes ({}) != live_entries ({}) * {ENTRY_BYTES}",
                r.bytes, r.live_entries
            ));
        }
        if r.bytes > r.peak_bytes {
            out.push(format!("{ctx}: bytes ({}) > peak_bytes ({})", r.bytes, r.peak_bytes));
        }
        if r.cap_bytes.is_some_and(|cap| r.peak_bytes > cap) {
            out.push(format!("{ctx}: peak_bytes ({}) > cap_bytes", r.peak_bytes));
        }
        if !r.rerun_deterministic {
            out.push(format!("{ctx}: rerun was not bit-identical"));
        }
        if !r.outcomes_match_unbounded {
            out.push(format!("{ctx}: bounding the cache changed annotation outcomes"));
        }
    }
    for w in rows.windows(2) {
        if w[1].hit_rate < w[0].hit_rate {
            out.push(format!(
                "cap {}: hit rate fell as the cap grew ({} -> {})",
                w[1].cap_label(),
                w[0].hit_rate,
                w[1].hit_rate
            ));
        }
    }
    out
}

/// Byte-level equality of two evaluations (labels, confidence bits, and
/// per-document status).
fn identical(a: &Evaluation, b: &Evaluation) -> bool {
    a.docs.len() == b.docs.len()
        && a.docs.iter().zip(&b.docs).all(|(x, y)| {
            x.gold == y.gold
                && x.predicted == y.predicted
                && x.status == y.status
                && x.confidence.len() == y.confidence.len()
                && x.confidence
                    .iter()
                    .zip(&y.confidence)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Runs the throughput benchmark.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let corpus = env.conll(scale);
    let docs = &corpus.docs;
    let mention_count: usize = docs.iter().map(|d| d.mentions.len()).sum();

    let thread_counts = [1usize, 2, 4, 8];
    let mut runs: Vec<Run> = Vec::new();
    let mut baseline: Option<Evaluation> = None;
    let mut deterministic = true;
    let mut snapshot: Option<MetricsSnapshot> = None;
    let mut metrics_deterministic = true;

    for &threads in &thread_counts {
        // Fresh cache and metrics registry per run so the hit rate and
        // counters reflect one pass. The sweep runs over the frozen columnar
        // KB behind a shared `Arc` handle. The default null clock keeps span
        // sums at zero, so the whole snapshot (histograms included) must be
        // identical across thread counts.
        let metrics = Metrics::new();
        let cached =
            CachedRelatedness::with_metrics(MilneWitten::new(env.frozen.clone()), &metrics);
        let aida = Disambiguator::new(env.frozen.clone(), &cached, AidaConfig::full())
            .with_metrics(&metrics);
        let alloc_before = alloc_events();
        let eval = run_method_with_threads(&aida, docs, threads)
            .unwrap_or_else(|e| panic!("cannot build {threads}-thread pool: {e}"));
        let run_allocs = alloc_events() - alloc_before;
        eval.record_metrics(&metrics);
        let failed_docs = eval.failed_count();
        let degraded_docs = eval.degraded_count();
        match &baseline {
            None => baseline = Some(eval),
            Some(b) => {
                if !identical(b, &eval) {
                    deterministic = false;
                }
            }
        }
        let snap = metrics.snapshot();
        match &snapshot {
            None => snapshot = Some(snap),
            Some(first) => {
                if *first != snap {
                    metrics_deterministic = false;
                }
            }
        }
        runs.push(Run {
            threads,
            cache_hit_rate: cached.hit_rate(),
            failed_docs,
            degraded_docs,
            alloc_events: run_allocs,
            allocs_per_doc: run_allocs as f64 / docs.len() as f64,
        });
    }
    assert!(deterministic, "thread counts produced diverging outcomes");
    assert!(metrics_deterministic, "thread counts produced diverging metrics snapshots");

    // Zero-overhead contract: a disabled registry must not change a single
    // output bit.
    {
        let cached = CachedRelatedness::new(MilneWitten::new(env.frozen.clone()));
        let aida = Disambiguator::new(env.frozen.clone(), &cached, AidaConfig::full());
        let eval = run_method_with_threads(&aida, docs, 1)
            .unwrap_or_else(|e| panic!("cannot build 1-thread pool: {e}"));
        let Some(b) = baseline.as_ref() else {
            unreachable!("the thread sweep runs at least once")
        };
        assert!(identical(b, &eval), "disabled metrics changed annotation output");
    }

    // Hit-rate-vs-memory-cap sweep: single-threaded runs per byte cap,
    // each executed twice — the metrics snapshots (gauges included) must
    // match bit for bit across reruns, and the annotation outcomes must
    // equal the unbounded baseline (memoization is an optimization, never
    // a result).
    let cache_caps: [Option<u64>; 6] = [
        Some(256 * 1024),
        Some(512 * 1024),
        Some(1 << 20),
        Some(2 << 20),
        Some(8 << 20),
        None,
    ];
    let mut cache_rows: Vec<CacheSweepRow> = Vec::new();
    for &cap in &cache_caps {
        let config = cap.map_or_else(CacheConfig::unbounded, CacheConfig::bounded);
        let run_once = || {
            let metrics = Metrics::new();
            let cached = CachedRelatedness::with_config(
                MilneWitten::new(env.frozen.clone()),
                &metrics,
                config,
            );
            let aida = Disambiguator::new(env.frozen.clone(), &cached, AidaConfig::full())
                .with_metrics(&metrics);
            let eval = run_method_with_threads(&aida, docs, 1)
                .unwrap_or_else(|e| panic!("cannot build 1-thread pool: {e}"));
            eval.record_metrics(&metrics);
            cached.cache().publish_gauges();
            (eval, metrics.snapshot())
        };
        let (eval_a, snap_a) = run_once();
        let (_, snap_b) = run_once();
        let rerun_deterministic = snap_a == snap_b;
        let outcomes_match_unbounded = baseline.as_ref().is_some_and(|b| identical(b, &eval_a));
        let c = |name: &str| snap_a.counter(name);
        let hits = c(obs_names::RELATEDNESS_CACHE_HITS);
        let misses = c(obs_names::RELATEDNESS_CACHE_MISSES);
        let lookups = hits + misses;
        cache_rows.push(CacheSweepRow {
            cap_bytes: cap,
            lookups,
            hits,
            misses,
            inserts: c(obs_names::RELATEDNESS_CACHE_INSERTS),
            evictions: c(obs_names::RELATEDNESS_CACHE_EVICTIONS),
            admit_rejected: c(obs_names::RELATEDNESS_CACHE_ADMIT_REJECTED),
            stale_discards: c(obs_names::RELATEDNESS_CACHE_STALE_DISCARDS),
            live_entries: snap_a.gauge(obs_names::RELATEDNESS_CACHE_ENTRIES),
            bytes: snap_a.gauge(obs_names::RELATEDNESS_CACHE_BYTES),
            peak_bytes: snap_a.gauge(obs_names::RELATEDNESS_CACHE_BYTES_PEAK),
            hit_rate: if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
            rerun_deterministic,
            outcomes_match_unbounded,
        });
    }
    let violations = sweep_violations(&cache_rows);
    assert!(violations.is_empty(), "the cache sweep breaks its laws: {violations:#?}");

    // Every document's context, built once, with each mention and its
    // candidates, over the frozen read path.
    let fkb = &env.frozen;
    let sim_docs: Vec<SimDoc> = docs
        .iter()
        .map(|d| {
            let mentions = d
                .mentions
                .iter()
                .map(|m| {
                    let cands =
                        fkb.candidates(&m.mention.surface).iter().map(|c| c.entity).collect();
                    (&m.mention, cands)
                })
                .collect();
            (DocumentContext::build(fkb, &d.tokens), mentions)
        })
        .collect();

    // The batched scorer, run twice over the whole corpus on one thread:
    // the first pass grows the per-thread arena to its high-water mark, the
    // second must be allocation-free — the zero-allocation hot-path claim,
    // measured rather than asserted by construction. Scores from both
    // passes must agree bitwise (scratch reuse cannot change a bit).
    let batched_metrics = Metrics::new();
    let batched_obs = SimObs::new(&batched_metrics);
    let score_corpus = || -> (u64, f64) {
        let alloc_before = alloc_events();
        let mut acc = 0.0;
        for (ctx, mentions) in &sim_docs {
            for (mention, cands) in mentions {
                acc = with_scratch(|scratch| {
                    simscores_batch(
                        fkb,
                        cands.len(),
                        |i| cands[i],
                        ctx.mention(mention),
                        KeywordWeighting::Npmi,
                        &batched_obs,
                        scratch,
                    );
                    scratch.sims().iter().fold(acc, |a, &s| a + s)
                });
            }
        }
        std::hint::black_box(acc);
        (alloc_events() - alloc_before, acc)
    };
    let (batched_warm_allocs, warm_acc) = score_corpus();
    let (batched_steady_allocs, steady_acc) = score_corpus();
    assert!(
        warm_acc.to_bits() == steady_acc.to_bits(),
        "scratch reuse changed batched scores: {warm_acc} vs {steady_acc}"
    );
    let per_mention =
        |events: u64| if mention_count == 0 { 0.0 } else { events as f64 / mention_count as f64 };
    let steady_sim_allocs_per_mention = per_mention(batched_steady_allocs);

    // Tokenization on this thread: each document's text is rendered before
    // the counted region, so the stage counts only `tokenize` (its token
    // vector and character table, and nothing per token).
    let texts: Vec<String> = docs.iter().map(|d| d.text()).collect();
    let tokenize_before = alloc_events();
    for text in &texts {
        std::hint::black_box(ned_text::tokenize(text));
    }
    let tokenize_allocs = alloc_events() - tokenize_before;
    let per_doc =
        |events: u64| if docs.is_empty() { 0.0 } else { events as f64 / docs.len() as f64 };

    let alloc_stages = [
        StageAlloc {
            stage: "tokenize",
            alloc_events: tokenize_allocs,
            unit: "doc",
            per_unit: per_doc(tokenize_allocs),
        },
        StageAlloc {
            stage: "pipeline_1_thread",
            alloc_events: runs.first().map_or(0, |r| r.alloc_events),
            unit: "doc",
            per_unit: runs.first().map_or(0.0, |r| r.allocs_per_doc),
        },
        StageAlloc {
            stage: "sim_batched_warmup",
            alloc_events: batched_warm_allocs,
            unit: "mention",
            per_unit: per_mention(batched_warm_allocs),
        },
        StageAlloc {
            stage: "sim_batched_steady",
            alloc_events: batched_steady_allocs,
            unit: "mention",
            per_unit: steady_sim_allocs_per_mention,
        },
    ];

    let mut table = Table::new(
        "Thread sweep — full AIDA over the CoNLL-like corpus",
        &["threads", "cache hit rate", "failed", "degraded", "allocs/doc"],
    );
    for r in &runs {
        table.add_row(vec![
            r.threads.to_string(),
            num(r.cache_hit_rate, 3),
            r.failed_docs.to_string(),
            r.degraded_docs.to_string(),
            num(r.allocs_per_doc, 1),
        ]);
    }
    print!("{}", table.render());
    let mut cache_table = Table::new(
        "Relatedness cache — hit rate vs. memory cap (1 thread)",
        &["cap", "hit rate", "evictions", "rejected", "peak bytes", "live"],
    );
    for r in &cache_rows {
        cache_table.add_row(vec![
            r.cap_label(),
            num(r.hit_rate, 4),
            r.evictions.to_string(),
            r.admit_rejected.to_string(),
            r.peak_bytes.to_string(),
            r.live_entries.to_string(),
        ]);
    }
    print!("{}", cache_table.render());
    println!("deterministic across thread counts: {deterministic}");
    println!(
        "allocations: steady-state batched scoring {batched_steady_allocs} events over {} \
         mentions ({steady_sim_allocs_per_mention:.4}/mention; warmup pass {batched_warm_allocs})",
        mention_count
    );
    println!(
        "allocations: tokenize {tokenize_allocs} events over {} documents ({:.2}/doc)",
        docs.len(),
        per_doc(tokenize_allocs)
    );
    println!("metrics: snapshot identical across thread counts: {metrics_deterministic}");

    let Some(snapshot) = snapshot else {
        unreachable!("the thread sweep runs at least once")
    };
    let kb_stats = *env.frozen.stats();
    let json = render_json(
        docs.len(),
        mention_count,
        &runs,
        deterministic,
        &kb_stats,
        &snapshot,
        metrics_deterministic,
        &alloc_stages,
        &cache_rows,
    );
    let path = "BENCH_throughput.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    let metrics_path = "metrics.json";
    match std::fs::write(metrics_path, snapshot.to_json()) {
        Ok(()) => println!("wrote {metrics_path}"),
        Err(e) => eprintln!("could not write {metrics_path}: {e}"),
    }
}

/// The `FrozenKbStats` section breakdown as a JSON object body.
fn kb_stats_json(s: &FrozenKbStats, indent: &str) -> String {
    let mut out = String::new();
    let mut field = |name: &str, value: usize| {
        out.push_str(&format!("{indent}\"{name}\": {value},\n"));
    };
    field("entity_count", s.entity_count);
    field("entity_bytes", s.entity_bytes);
    field("dictionary_surfaces", s.dictionary_surfaces);
    field("dictionary_pairs", s.dictionary_pairs);
    field("dictionary_bytes", s.dictionary_bytes);
    field("link_edges", s.link_edges);
    field("link_bytes", s.link_bytes);
    field("word_count", s.word_count);
    field("phrase_count", s.phrase_count);
    field("keyphrase_entries", s.keyphrase_entries);
    field("keyphrase_bytes", s.keyphrase_bytes);
    field("weight_bytes", s.weight_bytes);
    field("phrase_run_bytes", s.phrase_run_bytes);
    field("transient_index_bytes", s.transient_index_bytes);
    out.push_str(&format!("{indent}\"total_bytes\": {}\n", s.total_bytes));
    out
}

/// The counters of a metrics snapshot as a JSON object body.
fn metrics_counters_json(snapshot: &MetricsSnapshot, indent: &str) -> String {
    let mut out = String::new();
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        let sep = if i + 1 < snapshot.counters.len() { "," } else { "" };
        out.push_str(&format!("{indent}\"{name}\": {value}{sep}\n"));
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    doc_count: usize,
    mention_count: usize,
    runs: &[Run],
    deterministic: bool,
    kb_stats: &FrozenKbStats,
    snapshot: &MetricsSnapshot,
    metrics_deterministic: bool,
    alloc_stages: &[StageAlloc],
    cache_rows: &[CacheSweepRow],
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"corpus\": \"conll-like\",\n");
    out.push_str(&format!("  \"docs\": {doc_count},\n"));
    out.push_str(&format!("  \"mentions\": {mention_count},\n"));
    out.push_str(&format!(
        "  \"hardware_threads\": {},\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"threads\": {}, \"cache_hit_rate\": {:.4}, \"failed_docs\": {}, \
             \"degraded_docs\": {}, \"alloc_events\": {}, \"allocs_per_doc\": {:.1}}}{}\n",
            r.threads,
            r.cache_hit_rate,
            r.failed_docs,
            r.degraded_docs,
            r.alloc_events,
            r.allocs_per_doc,
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"allocations\": {\n    \"stages\": [\n");
    for (i, s) in alloc_stages.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"stage\": \"{}\", \"alloc_events\": {}, \"unit\": \"{}\", \
             \"per_unit\": {:.4}}}{}\n",
            s.stage,
            s.alloc_events,
            s.unit,
            s.per_unit,
            if i + 1 < alloc_stages.len() { "," } else { "" }
        ));
    }
    let steady = alloc_stages
        .iter()
        .find(|s| s.stage == "sim_batched_steady")
        .map_or(0.0, |s| s.per_unit);
    out.push_str("    ],\n");
    out.push_str(&format!(
        "    \"steady_state_sim_allocs_per_mention\": {steady:.4}\n  }},\n"
    ));
    out.push_str("  \"frozen_kb\": {\n");
    out.push_str(&kb_stats_json(kb_stats, "    "));
    out.push_str("  },\n");
    out.push_str("  \"metrics\": {\n");
    out.push_str(&metrics_counters_json(snapshot, "    "));
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"cache_sweep\": {{\n    \"entry_bytes\": {},\n    \"rows\": [\n",
        ENTRY_BYTES
    ));
    for (i, r) in cache_rows.iter().enumerate() {
        let cap = r.cap_bytes.map_or_else(|| "null".to_string(), |c| c.to_string());
        out.push_str(&format!(
            "      {{\"cap_bytes\": {}, \"bounded\": {}, \
             \"lookups\": {}, \"hits\": {}, \"misses\": {}, \"inserts\": {}, \
             \"evictions\": {}, \"admit_rejected\": {}, \"stale_discards\": {}, \
             \"live_entries\": {}, \"bytes\": {}, \"peak_bytes\": {}, \
             \"hit_rate\": {:.6}, \"rerun_deterministic\": {}, \
             \"outcomes_match_unbounded\": {}}}{}\n",
            cap,
            r.cap_bytes.is_some(),
            r.lookups,
            r.hits,
            r.misses,
            r.inserts,
            r.evictions,
            r.admit_rejected,
            r.stale_discards,
            r.live_entries,
            r.bytes,
            r.peak_bytes,
            r.hit_rate,
            r.rerun_deterministic,
            r.outcomes_match_unbounded,
            if i + 1 < cache_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n  },\n");
    out.push_str(&format!(
        "  \"metrics_deterministic_across_thread_counts\": {metrics_deterministic},\n"
    ));
    out.push_str(&format!("  \"deterministic_across_thread_counts\": {deterministic}\n"));
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A balanced sweep: a row at a 256 KiB cap and the unbounded row.
    fn sample_sweep() -> Vec<CacheSweepRow> {
        let capped = CacheSweepRow {
            cap_bytes: Some(262_144),
            lookups: 1000,
            hits: 600,
            misses: 400,
            inserts: 380,
            evictions: 300,
            admit_rejected: 20,
            stale_discards: 0,
            live_entries: 80,
            bytes: 7680,
            peak_bytes: 262_080,
            hit_rate: 0.6,
            rerun_deterministic: true,
            outcomes_match_unbounded: true,
        };
        let unbounded = CacheSweepRow {
            cap_bytes: None,
            hits: 700,
            misses: 300,
            inserts: 300,
            evictions: 0,
            admit_rejected: 0,
            live_entries: 300,
            bytes: 28_800,
            peak_bytes: 28_800,
            hit_rate: 0.7,
            ..capped.clone()
        };
        vec![capped, unbounded]
    }

    #[test]
    fn each_planted_sweep_violation_names_its_law() {
        assert_eq!(sweep_violations(&sample_sweep()), Vec::<String>::new());
        type Plant = fn(&mut [CacheSweepRow]);
        let cases: [(Plant, &str); 8] = [
            (
                |r| r[0].misses = 401,
                "cap 262144: misses (401) != inserts (380) + admit_rejected (20) + \
                 stale_discards (0)",
            ),
            (
                |r| r[0].evictions = 299,
                "cap 262144: inserts (380) != evictions (299) + live_entries (80)",
            ),
            (|r| r[0].bytes = 7681, "cap 262144: bytes (7681) != live_entries (80) * 96"),
            (|r| r[1].peak_bytes = 28_799, "cap unbounded: bytes (28800) > peak_bytes (28799)"),
            (|r| r[0].peak_bytes = 262_145, "cap 262144: peak_bytes (262145) > cap_bytes"),
            (|r| r[1].rerun_deterministic = false, "cap unbounded: rerun was not bit-identical"),
            (
                |r| r[1].outcomes_match_unbounded = false,
                "cap unbounded: bounding the cache changed annotation outcomes",
            ),
            (|r| r[1].hit_rate = 0.5, "cap unbounded: hit rate fell as the cap grew (0.6 -> 0.5)"),
        ];
        for (plant, law) in cases {
            let mut rows = sample_sweep();
            plant(&mut rows);
            assert_eq!(sweep_violations(&rows), vec![law.to_string()]);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let runs = vec![
            Run {
                threads: 1,
                cache_hit_rate: 0.5,
                failed_docs: 2,
                degraded_docs: 1,
                alloc_events: 4000,
                allocs_per_doc: 200.0,
            },
            Run {
                threads: 4,
                cache_hit_rate: 0.5,
                failed_docs: 2,
                degraded_docs: 1,
                alloc_events: 4400,
                allocs_per_doc: 220.0,
            },
        ];
        let stats = FrozenKbStats { entity_count: 7, total_bytes: 4096, ..Default::default() };
        let metrics = Metrics::new();
        metrics.counter("aida_docs").add(20);
        metrics.counter("doc_status_ok").add(18);
        let snapshot = metrics.snapshot();
        let stages = [
            StageAlloc {
                stage: "pipeline_1_thread",
                alloc_events: 4000,
                unit: "doc",
                per_unit: 200.0,
            },
            StageAlloc {
                stage: "sim_batched_steady",
                alloc_events: 0,
                unit: "mention",
                per_unit: 0.0,
            },
        ];
        let cache_rows = sample_sweep();
        let json = render_json(20, 100, &runs, true, &stats, &snapshot, true, &stages, &cache_rows);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"cache_sweep\""));
        assert!(json.contains("\"entry_bytes\": 96"));
        assert!(json.contains("\"cap_bytes\": 262144, \"bounded\": true"));
        assert!(json.contains("\"cap_bytes\": null, \"bounded\": false"));
        assert!(json.contains("\"rerun_deterministic\": true"));
        assert!(json.contains("\"outcomes_match_unbounded\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"failed_docs\": 2"));
        assert!(json.contains("\"degraded_docs\": 1"));
        assert!(json.contains("\"allocs_per_doc\": 200.0"));
        assert!(json.contains("\"entity_count\": 7"));
        assert!(json.contains("\"phrase_run_bytes\": 0"));
        assert!(json.contains("\"total_bytes\": 4096"));
        assert!(json.contains("\"deterministic_across_thread_counts\": true"));
        assert!(json.contains("\"metrics_deterministic_across_thread_counts\": true"));
        assert!(json.contains("\"aida_docs\": 20"));
        assert!(json.contains("\"doc_status_ok\": 18"));
        // No wall-clock figures: perfbench measures speed.
        for timing in ["seconds", "per_sec", "speedup", "pinned_baseline", "keyphrase_index"] {
            assert!(!json.contains(timing), "{timing} in {json}");
        }
        assert!(json.contains("\"stage\": \"sim_batched_steady\""));
        assert!(json.contains("\"steady_state_sim_allocs_per_mention\": 0.0000"));
        // No trailing comma at the end of the embedded counters object.
        assert!(!json.contains(",\n  }"));
    }

    #[test]
    fn alloc_events_is_monotone_and_counting() {
        let before = alloc_events();
        let v: Vec<u64> = (0..256).collect();
        std::hint::black_box(&v);
        let after = alloc_events();
        assert!(after > before, "the counting allocator is installed and counting");
    }
}
