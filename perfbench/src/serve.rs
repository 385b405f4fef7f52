//! `serve-mixed`: raw-text requests into `ned_serve::Service`.
//!
//! Two workers behind a bounded queue run `AidaHandler` with a 1 MiB
//! relatedness cache under the default eviction policy. One generator
//! thread sends seeded Poisson arrivals (open loop) at three pinned
//! absolute rates after a warm-up with the same mix: about 90% short
//! WP-/KORE50-like sentences and 10% CoNLL-like articles. Every request
//! carries a deadline equal to the latency limit, and latency is timed from
//! each request's scheduled send time, so generator lag counts against it.
//!
//! This is the only workload through `ned-text` recognition, the serve
//! queue, per-request handler overhead, and a cache that evicts.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ned_aida::{AidaConfig, Annotation, DeadlinePlan, JointConfig};
use ned_eval::gold::GoldDoc;
use ned_kb::FrozenKb;
use ned_obs::{names, Clock, Metrics};
use ned_relatedness::{CacheConfig, CachedRelatedness, MilneWitten, Relatedness};
use ned_serve::{
    AidaHandler, AnnotateHandler, HandlerOutput, ServeRequest, ServeStats, Service, ServiceConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Report;
use crate::stats::{self, Dist};
use crate::trace::{self, histogram_sum, relatedness_stats, Ledger, TimedRelatedness, Tracer};
use crate::{inputs, timed_setup, RunCtx, Workload, LIMIT_MS};

/// Service worker threads.
const WORKERS: usize = 2;
/// Bounded request queue: short enough that a full queue's wait stays
/// inside the latency limit, so overload is answered by rejections and
/// `goodput_rps` measures full-fidelity capacity.
const QUEUE_CAPACITY: usize = 32;
/// Relatedness cache cap, under the default eviction policy.
const CACHE_BYTES: u64 = 1 << 20;
/// Share of requests that are CoNLL-like articles; the rest are sentences.
const ARTICLE_SHARE: f64 = 0.10;

/// The pinned absolute arrival rates (requests/s). On the 2-vCPU host the
/// benchmark was defined on, full-fidelity capacity swings between about
/// 1,000 and 2,400 requests/s with host contention: `low` and `nominal`
/// stay below the worst capacity seen so they pass with margin, and
/// `overload` stays above the best so it fails with margin.
pub const RATES: [(&str, f64); 3] = [("low", 300.0), ("nominal", 500.0), ("overload", 3000.0)];

/// The warm-up's share of `--seconds`; the rest is split into `CYCLES`
/// cycles of the three steps, each step taking its share of a cycle.
const WARMUP_SHARE: f64 = 0.1;
const CYCLES: usize = 6;
const STEP_SHARES: [f64; 3] = [0.2, 0.5, 0.3];

/// A step meets the limit when at least this share of the requests
/// offered get a full-fidelity answer within [`LIMIT_MS`] and the backlog
/// does not rise.
const PASS_SHARE: f64 = 0.99;

/// A step is flagged when the generator's p99 lag exceeds this share of
/// the mean interarrival time: the offered load was then lower than
/// scheduled.
const LAG_FLAG_SHARE: f64 = 0.5;

/// Largest share of the summed latency the ledger may leave unattributed
/// to generator lag, queue wait and handler.
const REST_TOLERANCE: f64 = 0.05;

type Mw = MilneWitten<Arc<FrozenKb>>;

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    /// Send time, ns after the step starts.
    pub due_ns: u64,
    /// An article (else a sentence).
    pub article: bool,
    /// Index into its pool.
    pub doc: usize,
}

/// Seeded Poisson arrivals at `rate` for `seconds`, each request drawn
/// from the article pool with probability [`ARTICLE_SHARE`].
pub fn schedule(
    rng: &mut StdRng,
    rate: f64,
    seconds: f64,
    sentences: usize,
    articles: usize,
) -> Vec<Planned> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.random::<f64>()).ln() / rate;
        if t >= seconds {
            return out;
        }
        let article = rng.random::<f64>() < ARTICLE_SHARE;
        let doc = rng.random_range(0..if article { articles } else { sentences });
        out.push(Planned {
            due_ns: (t * 1e9) as u64,
            article,
            doc,
        });
    }
}

/// Shares one handler, and its warm cache, across the per-step services;
/// in the traced run it also records a `handler` span per request.
struct StepHandler<H> {
    inner: Arc<H>,
    tracer: Option<Arc<Tracer>>,
}

impl<H: AnnotateHandler> AnnotateHandler for StepHandler<H> {
    fn handle(&self, request: &ServeRequest, plan: &DeadlinePlan) -> HandlerOutput {
        let Some(tracer) = &self.tracer else {
            return self.inner.handle(request, plan);
        };
        let start = trace::now_ns();
        let out = self.inner.handle(request, plan);
        tracer.record(None, "handler", request.id.0, start, trace::now_ns());
        out
    }
}

/// How one offered request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ok,
    Degraded,
    Rejected,
    Failed,
}

/// One offered request.
#[derive(Debug, Clone)]
struct Outcome {
    plan: Planned,
    id: u64,
    due_ns: u64,
    sent_ns: u64,
    status: Status,
    queue_wait_ns: u64,
    /// From the scheduled send time to the answer.
    latency_ns: u64,
    annotations: Vec<Annotation>,
}

/// One rate step.
struct Step {
    name: &'static str,
    seconds: f64,
    outcomes: Vec<Outcome>,
    stats: ServeStats,
    rising: bool,
    wall_s: f64,
}

/// The inputs: request texts with their gold documents.
struct Pools {
    sentences: Vec<GoldDoc>,
    articles: Vec<GoldDoc>,
    sentence_texts: Vec<String>,
    article_texts: Vec<String>,
}

impl Pools {
    fn text(&self, p: &Planned) -> &str {
        if p.article {
            &self.article_texts[p.doc]
        } else {
            &self.sentence_texts[p.doc]
        }
    }

    fn gold(&self, p: &Planned) -> &GoldDoc {
        if p.article {
            &self.articles[p.doc]
        } else {
            &self.sentences[p.doc]
        }
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        default_deadline_ms: None,
        clock: Clock::System,
        ..ServiceConfig::default()
    }
}

/// Offers `plan` open-loop to a fresh service over `handler` and collects
/// every answer.
fn run_step<H: AnnotateHandler + 'static>(
    name: &'static str,
    seconds: f64,
    handler: StepHandler<H>,
    metrics: &Metrics,
    plan: &[Planned],
    pools: &Pools,
    next_id: &mut u64,
) -> Result<Step, String> {
    let service = Service::start(handler, service_config(), metrics)?;
    // Answers wait in their tickets' channels; the service stamps each
    // latency when it answers, so they are collected after the last send
    // and the generator is the only bench thread running during the step.
    let mut tickets = Vec::with_capacity(plan.len());
    let origin = trace::now_ns();
    let mut outcomes = Vec::with_capacity(plan.len());
    let mut backlog = Vec::with_capacity(plan.len());
    let mut accepted = 0u64;
    for (i, p) in plan.iter().enumerate() {
        let due_ns = origin + p.due_ns;
        let now = trace::now_ns();
        if now < due_ns {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        let id = *next_id;
        *next_id += 1;
        let request = ServeRequest::new(id, pools.text(p)).with_deadline_ms(LIMIT_MS);
        let sent_ns = trace::now_ns();
        let status = match service.submit(request) {
            Ok(ticket) => {
                accepted += 1;
                tickets.push((i, ticket));
                Status::Ok
            }
            Err(e) if e.is_rejection() => Status::Rejected,
            Err(_) => Status::Failed,
        };
        backlog.push(accepted.saturating_sub(service.stats().answered()));
        outcomes.push(Outcome {
            plan: *p,
            id,
            due_ns,
            sent_ns,
            status,
            queue_wait_ns: 0,
            latency_ns: 0,
            annotations: Vec::new(),
        });
    }
    let mut last_answer = origin;
    for (i, ticket) in tickets {
        let response = ticket.wait();
        let o = &mut outcomes[i];
        o.queue_wait_ns = response.queue_wait_ns;
        o.latency_ns = (o.sent_ns - o.due_ns) + response.latency_ns;
        last_answer = last_answer.max(o.due_ns + o.latency_ns);
        o.status = match response.result {
            Ok(annotations) => {
                o.annotations = annotations;
                if response.degradation.is_degraded() {
                    Status::Degraded
                } else {
                    Status::Ok
                }
            }
            Err(_) => Status::Failed,
        };
    }
    let stats = service.shutdown();
    let third = backlog.len() / 3;
    let mean = |s: &[u64]| stats::mean(&s.iter().map(|&b| b as f64).collect::<Vec<_>>());
    let (first, last) = (
        mean(&backlog[..third]),
        mean(&backlog[backlog.len() - third..]),
    );
    let rising = third > 0 && last > (2.0 * first).max(first + 4.0);
    let wall_s = ((last_answer - origin) as f64 / 1e9).max(seconds);
    Ok(Step {
        name,
        seconds,
        outcomes,
        stats,
        rising,
        wall_s,
    })
}

/// Per-step accounting and checks.
#[derive(Debug, Clone, Default)]
struct StepSummary {
    offered: u64,
    ok: u64,
    degraded: u64,
    rejected: u64,
    failed: u64,
    mismatched: u64,
    within: u64,
    /// Generator lag of every request, ms.
    lags: Vec<f64>,
    /// Latency from the scheduled send time of every answer, ms.
    latencies: Vec<f64>,
    /// Queue wait of every answer, ms.
    waits: Vec<f64>,
    latency: Dist,
}

fn summarize(
    step: &Step,
    reference: &BTreeMap<(bool, usize), Vec<Annotation>>,
) -> (StepSummary, Result<(), String>) {
    let mut s = StepSummary {
        offered: step.outcomes.len() as u64,
        ..StepSummary::default()
    };
    for o in &step.outcomes {
        s.lags.push((o.sent_ns - o.due_ns) as f64 / 1e6);
        match o.status {
            Status::Rejected => s.rejected += 1,
            Status::Failed => s.failed += 1,
            Status::Ok | Status::Degraded => {
                s.latencies.push(o.latency_ns as f64 / 1e6);
                s.waits.push(o.queue_wait_ns as f64 / 1e6);
                if o.status == Status::Degraded {
                    s.degraded += 1;
                } else if reference.get(&(o.plan.article, o.plan.doc)) != Some(&o.annotations) {
                    s.mismatched += 1;
                } else {
                    s.ok += 1;
                    if o.latency_ns <= LIMIT_MS * 1_000_000 {
                        s.within += 1;
                    }
                }
            }
        }
    }
    s.latency = Dist::of(&s.latencies);
    // Conservation: the bench's own counts against the service's books.
    let books = balanced(step, &s);
    (s, books)
}

/// Conservation: the service's own laws, and the bench's counts against
/// the service's books.
fn balanced(step: &Step, s: &StepSummary) -> Result<(), String> {
    let st = &step.stats;
    st.check_conservation()
        .map_err(|e| format!("{}: {e}", step.name))?;
    let books = [
        ("offered", s.offered, st.offered()),
        ("rejected", s.rejected, st.rejected()),
        ("ok", s.ok + s.mismatched, st.completed_ok),
        ("degraded", s.degraded, st.completed_degraded),
        ("failed", s.failed, st.failed()),
    ];
    for (what, bench, service) in books {
        if bench != service {
            return Err(format!(
                "{}: bench counted {bench} {what}, service {service}",
                step.name
            ));
        }
    }
    Ok(())
}

/// Micro accuracy of the answers against the gold mentions: a gold in-KB
/// mention counts as correct when an annotation covers exactly its tokens
/// with its entity; refused and failed requests count every mention wrong.
fn micro_accuracy(steps: &[&Step], pools: &Pools) -> f64 {
    let (mut correct, mut total) = (0u64, 0u64);
    for o in steps.iter().flat_map(|s| &s.outcomes) {
        for m in &pools.gold(&o.plan).mentions {
            let Some(entity) = m.label else { continue };
            total += 1;
            let hit = o.annotations.iter().any(|a| {
                a.entity == entity
                    && a.mention.token_start == m.mention.token_start
                    && a.mention.token_end == m.mention.token_end
            });
            correct += u64::from(hit);
        }
    }
    stats::share(correct as f64, total as f64)
}

/// Runs the workload and records its metrics and checks.
pub fn run(ctx: &RunCtx, report: &mut Report) -> Result<(), String> {
    let bytes = inputs::kb_bytes(&ctx.dir)?;
    let sentences = inputs::docs(&ctx.dir, "short.bin")?;
    let articles = inputs::docs(&ctx.dir, "long.bin")?;
    let pools = Pools {
        sentence_texts: sentences.iter().map(GoldDoc::text).collect(),
        article_texts: articles.iter().map(GoldDoc::text).collect(),
        sentences,
        articles,
    };
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0x5e27_e000);
    let (ns, na) = (pools.sentences.len(), pools.articles.len());
    let mut plans = Vec::new();
    let warmup_s = ctx.seconds * WARMUP_SHARE;
    plans.push((
        "warmup",
        warmup_s,
        schedule(&mut rng, RATES[1].1, warmup_s, ns, na),
    ));
    let cycle_s = ctx.seconds * (1.0 - WARMUP_SHARE) / CYCLES as f64;
    for _ in 0..CYCLES {
        for (&(name, rate), share) in RATES.iter().zip(STEP_SHARES) {
            let seconds = cycle_s * share;
            plans.push((name, seconds, schedule(&mut rng, rate, seconds, ns, na)));
        }
    }
    report.info("sentences", ns);
    report.info("articles", na);
    report.info("cycles", CYCLES);
    for (name, rate) in RATES {
        let requests: usize = plans
            .iter()
            .filter(|p| p.0 == name)
            .map(|p| p.2.len())
            .sum();
        report.info(&format!("{name}.rate_rps"), rate);
        report.info(&format!("{name}.requests"), requests);
    }
    report.info("warmup_requests", plans[0].2.len());
    report.info("limit_ms", LIMIT_MS);

    let mut read_ms = Vec::new();
    let (setup_s, (kb, service)) = timed_setup(|| {
        let start = Instant::now();
        let kb = inputs::load_kb(&bytes)?;
        read_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let cache = Arc::new(CachedRelatedness::with_config(
            MilneWitten::new(kb.clone()),
            &Metrics::disabled(),
            CacheConfig::bounded(CACHE_BYTES),
        ));
        let handler = handler(&kb, cache, &Metrics::disabled())?;
        let service = Service::start(handler, service_config(), &Metrics::disabled())?;
        Ok((kb, service))
    })?;
    drop(service);
    report.metric("setup_s", setup_s, "s");
    report.metric("ned-kb.snapshot_read_ms", stats::median(&read_ms), "ms");
    report.metric("ned-kb.total_bytes", kb.stats().total_bytes as f64, "bytes");
    report.metric(
        "ned-kb.transient_index_bytes",
        kb.stats().transient_index_bytes as f64,
        "bytes",
    );

    // Reference answers: the handler under `DeadlinePlan::Full`, one per text.
    let reference_handler = handler(
        &kb,
        Arc::new(CachedRelatedness::new(MilneWitten::new(kb.clone()))),
        &Metrics::disabled(),
    )?;
    let mut reference = BTreeMap::new();
    for (article, texts) in [(false, &pools.sentence_texts), (true, &pools.article_texts)] {
        for (i, text) in texts.iter().enumerate() {
            let out =
                reference_handler.handle(&ServeRequest::new(0, text.as_str()), &DeadlinePlan::Full);
            reference.insert((article, i), out.annotations);
        }
    }

    let (steps, traced) = if ctx.trace {
        // A system-clock registry lets the program's stage spans report
        // durations; timed wrappers sit on both sides of the cache.
        let metrics = Metrics::new().with_clock(Clock::System);
        let tracer = Arc::new(Tracer::default());
        let cached = Arc::new(TimedRelatedness::new(CachedRelatedness::with_config(
            TimedRelatedness::new(MilneWitten::new(kb.clone())),
            &Metrics::new(),
            CacheConfig::bounded(CACHE_BYTES),
        )));
        let handler = Arc::new(handler(&kb, Arc::clone(&cached), &metrics)?);
        let steps = run_steps(
            &handler,
            &Some(Arc::clone(&tracer)),
            &metrics,
            &plans,
            &pools,
        )?;
        (steps, Some((tracer, metrics, cached)))
    } else {
        let cache = CachedRelatedness::with_config(
            MilneWitten::new(kb.clone()),
            &Metrics::new(),
            CacheConfig::bounded(CACHE_BYTES),
        );
        let handler = Arc::new(handler(&kb, Arc::new(cache), &Metrics::disabled())?);
        (
            run_steps(&handler, &None, &Metrics::disabled(), &plans, &pools)?,
            None,
        )
    };

    let mut summaries = Vec::new();
    let mut books = Vec::new();
    for step in &steps {
        let (s, balanced) = summarize(step, &reference);
        report.ops(s.offered, s.failed + s.mismatched);
        books.extend(balanced.err());
        summaries.push(s);
    }
    let mismatched: u64 = summaries.iter().map(|s| s.mismatched).sum();
    let failed: u64 = summaries.iter().map(|s| s.failed).sum();
    report.check(
        "serve.full_fidelity_answers_match_handler_under_full_plan",
        mismatched == 0,
        format!("{mismatched} answers differ"),
    );
    report.check(
        "serve.no_request_failed",
        failed == 0,
        format!("{failed} requests failed"),
    );
    report.check(
        "serve.conservation: offered = accepted + rejected, accepted = ok + degraded + failed",
        books.is_empty(),
        books.join("; "),
    );
    // Each rate's figures are medians over its cycles (a burst of host
    // contention spoils one cycle, not the rate); per-layer figures pool
    // every request of the rate.
    let mut max_rate = 0.0;
    for (name, _) in RATES {
        let idx: Vec<usize> = (0..steps.len())
            .filter(|&i| steps[i].name == name)
            .collect();
        let cycle = |f: &dyn Fn(&Step, &StepSummary) -> f64| {
            stats::median(
                &idx.iter()
                    .map(|&i| f(&steps[i], &summaries[i]))
                    .collect::<Vec<_>>(),
            )
        };
        let sum =
            |f: &dyn Fn(&StepSummary) -> u64| idx.iter().map(|&i| f(&summaries[i])).sum::<u64>();
        let pooled = |f: &dyn Fn(&StepSummary) -> &Vec<f64>| {
            Dist::of(
                &idx.iter()
                    .flat_map(|&i| f(&summaries[i]).iter().copied())
                    .collect::<Vec<_>>(),
            )
        };
        let offered = sum(&|s| s.offered);
        let within_share = cycle(&|_, s| stats::share(s.within as f64, s.offered as f64));
        let rising = idx.iter().filter(|&&i| steps[i].rising).count();
        let passes = within_share >= PASS_SHARE && 2 * rising <= idx.len();
        let seconds: f64 = idx.iter().map(|&i| steps[i].seconds).sum();
        if passes {
            max_rate = offered as f64 / seconds;
        }
        let (lag, latency, wait) = (
            pooled(&|s| &s.lags),
            pooled(&|s| &s.latencies),
            pooled(&|s| &s.waits),
        );
        let interarrival_ms = seconds * 1e3 / offered.max(1) as f64;
        report.info(&format!("{name}.sent"), offered);
        report.info(
            &format!("{name}.answered"),
            sum(&|s| s.ok + s.degraded + s.mismatched),
        );
        report.info(&format!("{name}.rejected"), sum(&|s| s.rejected));
        report.info(&format!("{name}.degraded"), sum(&|s| s.degraded));
        report.info(&format!("{name}.failed"), sum(&|s| s.failed + s.mismatched));
        report.info(&format!("{name}.within_limit_share_median"), within_share);
        report.info(&format!("{name}.rising_backlog_cycles"), rising);
        report.info(&format!("{name}.passes"), passes);
        report.info(&format!("{name}.lag_p99_ms"), lag.p99);
        report.info(
            &format!("{name}.lag_flagged"),
            lag.p99 > LAG_FLAG_SHARE * interarrival_ms,
        );
        report.info(&format!("{name}.latency_p50_ms"), latency.p50);
        report.info(&format!("{name}.latency_p99_ms"), latency.p99);
        report.info(&format!("{name}.latency_samples"), latency.n);
        report.metric(
            format!("ned-serve.{name}.queue_wait_p50_ms"),
            wait.p50,
            "ms",
        );
        report.metric(
            format!("ned-serve.{name}.queue_wait_p99_ms"),
            wait.p99,
            "ms",
        );
        let peak = idx
            .iter()
            .map(|&i| steps[i].stats.queue_depth_peak)
            .max()
            .unwrap_or(0);
        report.metric(
            format!("ned-serve.{name}.queue_depth_peak"),
            peak as f64,
            "count",
        );
        report.metric(
            format!("ned-serve.{name}.rejected_share"),
            stats::share(sum(&|s| s.rejected) as f64, offered as f64),
            "share",
        );
        report.metric(
            format!("ned-serve.{name}.degraded_share"),
            stats::share(sum(&|s| s.degraded) as f64, offered as f64),
            "share",
        );
        match name {
            "nominal" => {
                report.metric("doc_p50_ms", cycle(&|_, s| s.latency.p50), "ms");
                report.metric("doc_p99_ms", cycle(&|_, s| s.latency.p99), "ms");
                report.info("doc_samples_per_cycle", cycle(&|_, s| s.latency.n as f64));
                report.metric("loadgen.lag_p99_ms", lag.p99, "ms");
                let nominal: Vec<&Step> = idx.iter().map(|&i| &steps[i]).collect();
                report.metric("micro_accuracy", micro_accuracy(&nominal, &pools), "share");
            }
            "overload" => {
                report.metric(
                    "goodput_rps",
                    cycle(&|st, s| s.within as f64 / st.wall_s),
                    "req/s",
                );
                report.metric(
                    "docs_per_s",
                    cycle(&|st, s| (s.ok + s.degraded + s.mismatched) as f64 / st.wall_s),
                    "docs/s",
                );
            }
            _ => {}
        }
    }
    report.metric("max_rate_rps", max_rate, "req/s");

    if let Some((tracer, metrics, cached)) = traced {
        traced_layers(ctx, report, &steps, &tracer, &metrics, &cached, &kb, &pools)?;
    }
    Ok(())
}

fn handler<R: Relatedness + Clone + Send + Sync>(
    kb: &Arc<FrozenKb>,
    relatedness: R,
    metrics: &Metrics,
) -> Result<AidaHandler<Arc<FrozenKb>, R>, String> {
    AidaHandler::try_new(
        kb.clone(),
        relatedness,
        AidaConfig::full(),
        JointConfig::default(),
    )
    .map(|h| h.with_metrics(metrics))
    .map_err(|e| e.to_string())
}

/// Runs the warm-up and the three rate steps in order, each on a fresh
/// service over the same handler.
fn run_steps<H: AnnotateHandler + 'static>(
    handler: &Arc<H>,
    tracer: &Option<Arc<Tracer>>,
    metrics: &Metrics,
    plans: &[(&'static str, f64, Vec<Planned>)],
    pools: &Pools,
) -> Result<Vec<Step>, String> {
    let mut next_id = 0;
    let mut steps = Vec::new();
    for (name, seconds, plan) in plans {
        let step_handler = StepHandler {
            inner: Arc::clone(handler),
            tracer: tracer.clone(),
        };
        steps.push(run_step(
            name,
            *seconds,
            step_handler,
            metrics,
            plan,
            pools,
            &mut next_id,
        )?);
    }
    Ok(steps)
}

/// Per-layer metrics of the traced run.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    ctx: &RunCtx,
    report: &mut Report,
    steps: &[Step],
    tracer: &Tracer,
    metrics: &Metrics,
    cached: &Arc<TimedRelatedness<CachedRelatedness<TimedRelatedness<Mw>>>>,
    kb: &Arc<FrozenKb>,
    pools: &Pools,
) -> Result<(), String> {
    // Request trees: lag, queue wait and handler under each answered request.
    let mut spans = tracer.spans();
    let mut roots = BTreeMap::new();
    for step in steps {
        for o in step
            .outcomes
            .iter()
            .filter(|o| matches!(o.status, Status::Ok | Status::Degraded))
        {
            let root = tracer.record(None, "request", o.id, o.due_ns, o.due_ns + o.latency_ns);
            tracer.record(Some(root), "lag", o.id, o.due_ns, o.sent_ns);
            tracer.record_derived(root, o.id, o.sent_ns, &[("queue_wait", o.queue_wait_ns)]);
            roots.insert(o.id, root);
        }
    }
    let handler_spans = spans.len();
    spans = tracer.spans();
    for s in spans.iter_mut().take(handler_spans) {
        s.parent = roots.get(&s.unit).copied();
    }
    let ledger = Ledger::of(&spans, "request", 50_000);
    let rest = ledger.rest_ns();
    let check = ledger.check(ledger.root_ns, 0.0).and_then(|()| {
        if rest < 0 || rest as f64 > REST_TOLERANCE * ledger.root_ns as f64 {
            Err(format!("{rest} ns of {} ns not attributed", ledger.root_ns))
        } else {
            Ok(())
        }
    });
    report.check(
        "serve.ledger: lag + queue wait + handler = latency",
        check.is_ok(),
        check.err().unwrap_or_default(),
    );

    let rate_of: BTreeMap<u64, &str> = steps
        .iter()
        .flat_map(|st| st.outcomes.iter().map(move |o| (o.id, st.name)))
        .collect();
    for (name, _) in RATES {
        let handler_ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "handler" && rate_of.get(&s.unit) == Some(&name))
            .map(|s| s.dur() as f64 / 1e6)
            .collect();
        let d = Dist::of(&handler_ms);
        report.metric(format!("ned-serve.{name}.handler_p50_ms"), d.p50, "ms");
        report.metric(format!("ned-serve.{name}.handler_p99_ms"), d.p99, "ms");
    }

    // The program's stage spans and counters, summed over every request.
    let snap = metrics.snapshot();
    let handled = snap.counter(names::AIDA_DOCS).max(1) as f64;
    let per_request_us = |name: &str| histogram_sum(&snap, name) as f64 / handled / 1e3;
    report.metric(
        "ned-aida.features_us",
        per_request_us(names::STAGE_FEATURES_NS),
        "us",
    );
    report.metric(
        "ned-aida.graph_us",
        per_request_us(names::STAGE_GRAPH_NS),
        "us",
    );
    report.metric(
        "ned-aida.solver_us",
        per_request_us(names::STAGE_SOLVER_NS),
        "us",
    );
    report.metric(
        "ned-aida.candidates_per_mention",
        stats::share(
            snap.counter(names::AIDA_CANDIDATES_CONSIDERED) as f64,
            snap.counter(names::AIDA_MENTIONS) as f64,
        ),
        "count",
    );
    report.metric(
        "ned-aida.similarity_evaluations",
        snap.counter(names::AIDA_SIMILARITY_EVALUATIONS) as f64 / handled,
        "count",
    );
    report.metric(
        "ned-aida.coherence_edges",
        snap.counter(names::AIDA_COHERENCE_EDGES_BUILT) as f64 / handled,
        "count",
    );
    report.metric(
        "ned-aida.solver_iterations",
        snap.counter(names::AIDA_SOLVER_ITERATIONS) as f64 / handled,
        "count",
    );
    relatedness_stats(cached).record(report);

    // `ned-text`, timed from outside on the nominal steps' request texts.
    let nominal: Vec<&Outcome> = steps
        .iter()
        .filter(|s| s.name == "nominal")
        .flat_map(|s| &s.outcomes)
        .collect();
    let recognizer = JointConfig::default().build_recognizer(&**kb);
    let (mut tokenize_ns, mut recognize_ns, mut mentions) = (0u64, 0u64, 0usize);
    for o in &nominal {
        let t0 = trace::now_ns();
        let tokens = ned_text::tokenize(pools.text(&o.plan));
        let t1 = trace::now_ns();
        mentions += recognizer.recognize(&tokens).len();
        recognize_ns += trace::now_ns() - t1;
        tokenize_ns += t1 - t0;
    }
    let n = nominal.len().max(1) as f64;
    report.metric("ned-text.tokenize_us", tokenize_ns as f64 / n / 1e3, "us");
    report.metric("ned-text.recognize_us", recognize_ns as f64 / n / 1e3, "us");
    report.metric(
        "ned-text.mentions_per_request",
        mentions as f64 / n,
        "count",
    );

    // Trace overhead and allocations: the traced and the plain handler,
    // alternating over the same requests, one at a time.
    let plain = handler(
        kb,
        Arc::new(CachedRelatedness::with_config(
            MilneWitten::new(kb.clone()),
            &Metrics::new(),
            CacheConfig::bounded(CACHE_BYTES),
        )),
        &Metrics::disabled(),
    )?;
    let traced = handler(kb, Arc::clone(cached), metrics)?;
    let (mut plain_ns, mut traced_ns, mut allocs) = (0u64, 0u64, 0u64);
    let sample = &nominal[..nominal.len().min(2_000)];
    for o in sample {
        let request = ServeRequest::new(o.id, pools.text(&o.plan));
        let a0 = ned_bench::alloc_events();
        let t0 = trace::now_ns();
        std::hint::black_box(plain.handle(&request, &DeadlinePlan::Full));
        let t1 = trace::now_ns();
        allocs += ned_bench::alloc_events() - a0;
        let s = trace::now_ns();
        std::hint::black_box(traced.handle(&request, &DeadlinePlan::Full));
        traced_ns += trace::now_ns() - s;
        plain_ns += t1 - t0;
    }
    report.metric(
        "ned-obs.trace_overhead",
        stats::share(traced_ns as f64, plain_ns as f64),
        "ratio",
    );
    report.metric(
        "ned-aida.allocs_per_doc",
        allocs as f64 / sample.len().max(1) as f64,
        "count",
    );
    report.info("spans", spans.len());
    if let Some(path) = crate::spans_path(ctx, Workload::Serve) {
        trace::write_jsonl(&spans, &path).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::EntityId;
    use ned_text::Mention;

    fn outcome(id: u64, status: Status, entity: u32) -> Outcome {
        let annotation = Annotation {
            mention: Mention::new("A", 0, 1),
            entity: EntityId(entity),
            confidence: 1.0,
        };
        Outcome {
            plan: Planned {
                due_ns: 0,
                article: false,
                doc: 0,
            },
            id,
            due_ns: 10,
            sent_ns: 20,
            status,
            queue_wait_ns: 1_000,
            latency_ns: 2_000_000,
            annotations: vec![annotation],
        }
    }

    #[test]
    fn step_books_must_match_the_service() {
        let reference = BTreeMap::from([((false, 0), outcome(0, Status::Ok, 1).annotations)]);
        let stats = ServeStats {
            submitted: 5,
            accepted: 4,
            rejected_queue_full: 1,
            completed_ok: 2,
            completed_degraded: 1,
            panicked: 1,
            ..ServeStats::default()
        };
        let step = Step {
            name: "nominal",
            seconds: 1.0,
            outcomes: vec![
                outcome(0, Status::Ok, 1),
                outcome(1, Status::Ok, 2),
                outcome(2, Status::Degraded, 2),
                outcome(3, Status::Rejected, 1),
                outcome(4, Status::Failed, 1),
            ],
            stats,
            rising: false,
            wall_s: 1.0,
        };
        let (s, books) = summarize(&step, &reference);
        assert_eq!(books, Ok(()));
        assert_eq!(
            (
                s.offered,
                s.ok,
                s.mismatched,
                s.degraded,
                s.rejected,
                s.failed
            ),
            (5, 1, 1, 1, 1, 1)
        );
        assert_eq!(s.within, 1);
        assert_eq!(s.latencies.len(), 3, "answers only");
        let lost = Step {
            stats: ServeStats {
                completed_ok: 3,
                ..stats
            },
            ..step
        };
        assert!(summarize(&lost, &reference).1.is_err());
    }

    #[test]
    fn schedule_is_seeded_poisson_with_the_article_share() {
        let draw = |seed| schedule(&mut StdRng::seed_from_u64(seed), 1_000.0, 20.0, 50, 10);
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same arrivals");
        assert_ne!(a, draw(8));
        let rate = a.len() as f64 / 20.0;
        assert!((rate - 1_000.0).abs() < 30.0, "rate {rate}");
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let articles = a.iter().filter(|p| p.article).count() as f64 / a.len() as f64;
        assert!(
            (articles - ARTICLE_SHARE).abs() < 0.01,
            "article share {articles}"
        );
        assert!(a.iter().all(|p| p.doc < if p.article { 10 } else { 50 }));
    }
}
