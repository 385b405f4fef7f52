//! `batch-conll`: the thesis' offline path.
//!
//! Full AIDA (r-prior, sim-k, r-coh with Milne–Witten) over CoNLL-like
//! articles with gold tokens and mentions, run by `run_method_with_threads`
//! on two threads. Every pass starts from a fresh unbounded
//! `CachedRelatedness`, so each pass does the same insert-heavy lookup
//! work. No `ned-text`, no `ned-serve`, no KB writes.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ned_aida::{AidaConfig, DisambiguationResult, Disambiguator, NedMethod};
use ned_bench::runner::{run_method_with_threads, DocStatus, Evaluation};
use ned_eval::gold::GoldDoc;
use ned_kb::FrozenKb;
use ned_obs::{names, Clock, Metrics};
use ned_relatedness::{CachedRelatedness, MilneWitten, Relatedness};
use ned_text::{Mention, Token};

use crate::report::Report;
use crate::stats::{self, Dist};
use crate::trace::{self, relatedness_stats, stage_spans, Ledger, TimedRelatedness, Tracer};
use crate::{inputs, timed_setup, RunCtx, Workload, DEFAULT_SEED, LIMIT_MS};

/// Worker threads of the batch runner.
const THREADS: usize = 2;

/// Outputs of [`DEFAULT_SEED`] with the full-scale inputs: fingerprint of
/// every assignment and confidence, and the micro accuracy.
const PINNED_FINGERPRINT: u64 = 0x1813_4b17_0a8f_0a26;
const PINNED_MICRO: f64 = 0.867_768_595_041_322_3;

/// Share of the lanes' busy time the per-document spans must cover.
const COVERAGE_TOLERANCE: f64 = 0.05;

/// Records each `disambiguate` call's cost, the calling thread's CPU time
/// (a document runs on one thread: the runner's nested parallel regions
/// run sequentially), keyed by the address of the document's tokens.
struct Clocked<M> {
    inner: M,
    calls_ms: Mutex<Vec<(usize, f64)>>,
}

impl<M: NedMethod> NedMethod for Clocked<M> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn disambiguate(&self, tokens: &[Token], mentions: &[Mention]) -> DisambiguationResult {
        let start = trace::thread_cpu_ns();
        let result = self.inner.disambiguate(tokens, mentions);
        let ms = (trace::thread_cpu_ns() - start) as f64 / 1e6;
        let key = tokens.as_ptr() as usize;
        self.calls_ms
            .lock()
            .expect("call-time lock poisoned")
            .push((key, ms));
        result
    }
}

/// Pipeline counters summed over a traced pass.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    mentions: u64,
    candidates: u64,
    similarity_evaluations: u64,
    coherence_edges: u64,
    solver_iterations: u64,
}

/// Runs each document through its own disambiguator whose metrics
/// registry reads the system clock, so the program's stage spans report
/// durations per document; records a `doc` span with `features`, `graph`
/// and `solver` children.
struct Traced<'a, R> {
    kb: Arc<FrozenKb>,
    relatedness: R,
    tracer: &'a Tracer,
    units: HashMap<usize, u64>,
    counts: Mutex<Counts>,
}

impl<R: Relatedness> NedMethod for Traced<'_, R> {
    fn name(&self) -> String {
        "traced AIDA".into()
    }

    fn disambiguate(&self, tokens: &[Token], mentions: &[Mention]) -> DisambiguationResult {
        let metrics = Metrics::new().with_clock(Clock::System);
        let aida = Disambiguator::new(self.kb.clone(), &self.relatedness, AidaConfig::full())
            .with_metrics(&metrics);
        let start = trace::now_ns();
        let result = aida.disambiguate(tokens, mentions);
        let end = trace::now_ns();
        let snap = metrics.snapshot();
        let unit = self
            .units
            .get(&(tokens.as_ptr() as usize))
            .copied()
            .unwrap_or(u64::MAX);
        let id = self.tracer.record(None, "doc", unit, start, end);
        self.tracer
            .record_derived(id, unit, start, &stage_spans(&snap));
        let mut c = self.counts.lock().expect("counts lock poisoned");
        c.mentions += snap.counter(names::AIDA_MENTIONS);
        c.candidates += snap.counter(names::AIDA_CANDIDATES_CONSIDERED);
        c.similarity_evaluations += snap.counter(names::AIDA_SIMILARITY_EVALUATIONS);
        c.coherence_edges += snap.counter(names::AIDA_COHERENCE_EDGES_BUILT);
        c.solver_iterations += snap.counter(names::AIDA_SOLVER_ITERATIONS);
        result
    }
}

/// One untraced pass: outcomes, wall time, per-document call times (in
/// document order), allocations.
struct Pass {
    eval: Evaluation,
    wall_s: f64,
    calls_ms: Vec<f64>,
    allocs: u64,
}

fn untraced_pass(kb: &Arc<FrozenKb>, docs: &[GoldDoc], threads: usize) -> Result<Pass, String> {
    let pass = measure_pass(kb, docs, threads)?;
    // The pass's cache is freed by now; return its pages before the next.
    crate::release_freed_heap();
    Ok(pass)
}

fn measure_pass(kb: &Arc<FrozenKb>, docs: &[GoldDoc], threads: usize) -> Result<Pass, String> {
    let cached = CachedRelatedness::new(MilneWitten::new(kb.clone()));
    let method = Clocked {
        inner: Disambiguator::new(kb.clone(), &cached, AidaConfig::full()),
        calls_ms: Mutex::new(Vec::with_capacity(docs.len())),
    };
    let allocs = ned_bench::alloc_events();
    let start = Instant::now();
    let eval = run_method_with_threads(&method, docs, threads).map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let allocs = ned_bench::alloc_events() - allocs;
    let index: HashMap<usize, usize> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| (d.tokens.as_ptr() as usize, i))
        .collect();
    let mut calls_ms = vec![f64::NAN; docs.len()];
    for (key, ms) in method.calls_ms.into_inner().map_err(|e| e.to_string())? {
        if let Some(&i) = index.get(&key) {
            calls_ms[i] = ms;
        }
    }
    Ok(Pass {
        eval,
        wall_s,
        calls_ms,
        allocs,
    })
}

/// Bitwise equality of two outcomes: labels, confidence bits, status.
fn same_doc(x: &ned_bench::runner::DocOutcome, y: &ned_bench::runner::DocOutcome) -> bool {
    x.gold == y.gold
        && x.predicted == y.predicted
        && x.status == y.status
        && x.confidence.len() == y.confidence.len()
        && x.confidence
            .iter()
            .zip(&y.confidence)
            .all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Documents of `got` that failed or differ from the reference.
fn failed_docs(got: &Evaluation, reference: &Evaluation) -> u64 {
    if got.docs.len() != reference.docs.len() {
        return got.docs.len().max(reference.docs.len()) as u64;
    }
    got.docs
        .iter()
        .zip(&reference.docs)
        .filter(|(x, y)| x.status.is_failed() || !same_doc(x, y))
        .count() as u64
}

/// FNV-1a over every predicted label, confidence bit pattern and status.
fn fingerprint(eval: &Evaluation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for d in &eval.docs {
        for (label, conf) in d.predicted.iter().zip(&d.confidence) {
            eat(label.map_or(u64::MAX, |e| u64::from(e.0)));
            eat(conf.to_bits());
        }
        eat(match d.status {
            DocStatus::Ok => 0,
            DocStatus::Degraded(_) => 1,
            DocStatus::Failed { .. } => 2,
        });
    }
    h
}

/// Runs the workload and records its metrics and checks.
pub fn run(ctx: &RunCtx, report: &mut Report) -> Result<(), String> {
    let bytes = inputs::kb_bytes(&ctx.dir)?;
    let docs = inputs::docs(&ctx.dir, "docs.bin")?;
    let mentions: usize = docs.iter().map(|d| d.mentions.len()).sum();
    report.info("docs", docs.len());
    report.info("mentions", mentions);

    let mut read_ms = Vec::new();
    let (setup_s, kb) = timed_setup(|| {
        let start = Instant::now();
        let kb = inputs::load_kb(&bytes)?;
        read_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let cached = CachedRelatedness::new(MilneWitten::new(kb.clone()));
        drop(Disambiguator::new(kb.clone(), &cached, AidaConfig::full()));
        Ok(kb)
    })?;
    report.metric("setup_s", setup_s, "s");
    report.metric("ned-kb.snapshot_read_ms", stats::median(&read_ms), "ms");
    report.metric("ned-kb.total_bytes", kb.stats().total_bytes as f64, "bytes");
    report.metric(
        "ned-kb.transient_index_bytes",
        kb.stats().transient_index_bytes as f64,
        "bytes",
    );

    // The 1-thread reference pass every timed pass must reproduce bitwise.
    let reference = untraced_pass(&kb, &docs, 1)?.eval;
    let micro = reference.micro(false);
    report.metric("micro_accuracy", micro, "share");
    if ctx.seed == DEFAULT_SEED {
        let fp = fingerprint(&reference);
        report.check(
            "batch.pinned_outputs",
            fp == PINNED_FINGERPRINT && micro == PINNED_MICRO,
            format!("fingerprint {fp:#018x} micro {micro:?}"),
        );
    }

    if ctx.trace {
        run_traced(ctx, report, &kb, &docs, &reference)
    } else {
        run_untraced(ctx, report, &kb, &docs, &reference)
    }
}

fn run_untraced(
    ctx: &RunCtx,
    report: &mut Report,
    kb: &Arc<FrozenKb>,
    docs: &[GoldDoc],
    reference: &Evaluation,
) -> Result<(), String> {
    let start = Instant::now();
    let mut rates = Vec::new();
    let mut goodputs = Vec::new();
    let mut calls = Vec::new();
    let (mut within, mut failed) = (0u64, 0u64);
    loop {
        let pass = untraced_pass(kb, docs, THREADS)?;
        let pass_failed = failed_docs(&pass.eval, reference);
        let good = pass
            .eval
            .docs
            .iter()
            .zip(&reference.docs)
            .zip(&pass.calls_ms)
            .filter(|((d, r), &ms)| {
                d.status == DocStatus::Ok && same_doc(d, r) && ms <= LIMIT_MS as f64
            })
            .count() as u64;
        failed += pass_failed;
        within += good;
        rates.push(docs.len() as f64 / pass.wall_s);
        goodputs.push(good as f64 / pass.wall_s);
        calls.push(Dist::of(&pass.calls_ms));
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / rates.len() as f64 > ctx.seconds {
            break;
        }
    }
    let passes = rates.len() as u64;
    let attempted = passes * docs.len() as u64;
    report.ops(attempted, failed);
    report.check(
        "batch.outputs_match_1_thread_reference",
        failed == 0,
        format!("{failed} of {attempted} documents differ or failed"),
    );
    // Every figure is the median over passes, so a burst of host
    // contention spoils a pass, not the run.
    let docs_per_s = stats::median(&rates);
    report.info("passes", passes);
    report.info("doc_samples_per_pass", docs.len());
    report.info(
        "within_limit_share",
        stats::share(within as f64, attempted as f64),
    );
    report.metric("docs_per_s", docs_per_s, "docs/s");
    report.metric(
        "doc_p50_ms",
        stats::median(&calls.iter().map(|d| d.p50).collect::<Vec<_>>()),
        "ms",
    );
    report.metric(
        "doc_p99_ms",
        stats::median(&calls.iter().map(|d| d.p99).collect::<Vec<_>>()),
        "ms",
    );
    report.metric("max_rate_rps", docs_per_s, "req/s");
    report.metric("goodput_rps", stats::median(&goodputs), "req/s");
    Ok(())
}

fn run_traced(
    ctx: &RunCtx,
    report: &mut Report,
    kb: &Arc<FrozenKb>,
    docs: &[GoldDoc],
    reference: &Evaluation,
) -> Result<(), String> {
    let units: HashMap<usize, u64> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| (d.tokens.as_ptr() as usize, i as u64))
        .collect();
    let start = Instant::now();
    let (mut plain_s, mut traced_s, mut allocs) = (Vec::new(), Vec::new(), Vec::new());
    let mut all_spans = Vec::new();
    let mut failed = 0;
    let mut attempted = 0;
    let mut ledger_errors = Vec::new();
    let mut layer = None;
    while layer.is_none() || start.elapsed().as_secs_f64() < ctx.seconds {
        // Untraced calibration pass: the denominator of the trace overhead
        // and the allocation count.
        let plain = untraced_pass(kb, docs, THREADS)?;
        failed += failed_docs(&plain.eval, reference);
        plain_s.push(plain.wall_s);
        allocs.push(plain.allocs as f64 / docs.len() as f64);

        let tracer = Tracer::default();
        let inner = TimedRelatedness::new(MilneWitten::new(kb.clone()));
        let cached = TimedRelatedness::new(CachedRelatedness::new(inner));
        let method = Traced {
            kb: kb.clone(),
            relatedness: &cached,
            tracer: &tracer,
            units: units.clone(),
            counts: Mutex::new(Counts::default()),
        };
        let t = Instant::now();
        let eval = run_method_with_threads(&method, docs, THREADS).map_err(|e| e.to_string())?;
        traced_s.push(t.elapsed().as_secs_f64());
        failed += failed_docs(&eval, reference);
        attempted += 2 * docs.len() as u64;

        let spans = tracer.spans();
        let ledger = Ledger::of(&spans, "doc", 20_000);
        if let Err(e) = ledger.check(trace::lane_busy_ns(&spans, "doc"), COVERAGE_TOLERANCE) {
            ledger_errors.push(e);
        }
        let counts = *method.counts.lock().map_err(|e| e.to_string())?;
        layer = Some((ledger, counts, relatedness_stats(&cached)));
        all_spans.extend(spans);
    }
    report.ops(attempted, failed);
    report.check(
        "batch.traced_outputs_match_1_thread_reference",
        failed == 0,
        format!("{failed} of {attempted} documents differ or failed"),
    );
    report.check(
        "batch.ledger: features + graph + solver + rest = doc, docs cover the lanes",
        ledger_errors.is_empty(),
        ledger_errors.join("; "),
    );
    let (ledger, counts, rel) = layer.ok_or("no traced pass ran")?;
    let n = docs.len() as f64;
    let per_doc_us =
        |name: &str| ledger.children_ns.get(name).copied().unwrap_or(0) as f64 / n / 1e3;
    report.metric("ned-aida.features_us", per_doc_us("features"), "us");
    report.metric("ned-aida.graph_us", per_doc_us("graph"), "us");
    report.metric("ned-aida.solver_us", per_doc_us("solver"), "us");
    report.metric("ned-aida.rest_us", ledger.rest_ns() as f64 / n / 1e3, "us");
    report.metric(
        "ned-aida.candidates_per_mention",
        stats::share(counts.candidates as f64, counts.mentions as f64),
        "count",
    );
    report.metric(
        "ned-aida.similarity_evaluations",
        counts.similarity_evaluations as f64 / n,
        "count",
    );
    report.metric(
        "ned-aida.coherence_edges",
        counts.coherence_edges as f64 / n,
        "count",
    );
    report.metric(
        "ned-aida.solver_iterations",
        counts.solver_iterations as f64 / n,
        "count",
    );
    report.metric("ned-aida.allocs_per_doc", stats::median(&allocs), "count");
    rel.record(report);
    report.metric(
        "ned-obs.trace_overhead",
        stats::median(&traced_s) / stats::median(&plain_s),
        "ratio",
    );
    report.info("traced_passes", traced_s.len());
    report.info("spans", all_spans.len());
    if let Some(path) = crate::spans_path(ctx, Workload::Batch) {
        trace::write_jsonl(&all_spans, &path).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(())
}
