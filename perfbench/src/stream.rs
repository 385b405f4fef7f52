//! `stream-news`: the Chapter-5 news stream, run sequentially round by
//! round (one round per stream day).
//!
//! Each round builds `NameModels` over the harvest window, runs
//! `EeDiscovery::discover` on each of the day's documents over the current
//! epoch (sim-only AIDA, plain Milne–Witten, no cache), then publishes:
//! `drain_promotions` → `Wal::append` → `DeltaKb::build` → `KbHandle::swap`.
//! This is the only workload that writes the KB and reads through a
//! growing overlay; it bypasses the relatedness cache and the solver. The
//! stream length is fixed, because publish time grows with the mutations
//! accumulated so far.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ned_aida::{AidaConfig, Disambiguator, NedMethod};
use ned_emerging::ee_model::EeModelConfig;
use ned_emerging::{
    ConfAssessor, ConfidenceMethod, EeConfig, EeDiscovery, NameModels, PromotionPolicy,
    PromotionTracker,
};
use ned_eval::gold::{GoldDoc, Label};
use ned_kb::{DeltaKb, FrozenKb, KbEpoch, KbHandle, KbMutation, KbView, Wal};
use ned_obs::{names, Clock, Metrics};
use ned_relatedness::MilneWitten;
use rayon::prelude::*;

use crate::report::Report;
use crate::stats::{self, Dist};
use crate::trace::{self, stage_spans, Ledger, Tracer};
use crate::{inputs, timed_setup, RunCtx, Workload, LIMIT_MS};

/// EE gamma for discovery (mid-grid, as in the thesis' Figure 5.4).
const GAMMA: f64 = 0.5;
/// Name models are built from the last `WINDOW_DAYS` days, current included.
const WINDOW_DAYS: u32 = 3;
/// Largest share of the round time the ledger may leave unattributed to
/// models, discovery and publication.
const REST_TOLERANCE: f64 = 0.05;

/// Timings (ns) of one round.
#[derive(Debug, Clone, Default)]
struct Round {
    round: u64,
    models: u64,
    discover: Vec<u64>,
    /// CPU time of each discover call.
    discover_cpu: Vec<u64>,
    publish: u64,
    drain: u64,
    wal: u64,
    appends: u64,
    delta: u64,
    swap: u64,
    promotions: u64,
}

/// What the metrics need from a pass once its outputs are checked.
#[derive(Debug, Clone, Default)]
struct Timings {
    rounds: Vec<Round>,
    /// Discover calls at full fidelity within the latency limit.
    within: u64,
}

impl Timings {
    /// Summed round time, s.
    fn seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.round).sum::<u64>() as f64 / 1e9
    }
}

/// Everything one pass over the stream produced.
struct Pass {
    timings: Timings,
    /// Gold and discovered labels per document.
    labels: Vec<(Vec<Label>, Vec<Label>)>,
    accumulated: Vec<KbMutation>,
    wal_bytes: Vec<u8>,
    final_epoch: Arc<KbEpoch>,
    /// Emerging-entity linked accuracy on the evaluation set after each round.
    ee_accuracy: Vec<f64>,
    /// Allocation events inside discover calls.
    discover_allocs: u64,
    mentions: u64,
    candidates: u64,
    similarity_evaluations: u64,
}

fn discovery_config() -> EeConfig {
    EeConfig {
        gamma: GAMMA,
        assessor: ConfAssessor::new(ConfidenceMethod::Normalized),
        ..EeConfig::default()
    }
}

/// Gold-EE mentions of `eval` resolved to the entity their surface was
/// promoted as, over all gold-EE mentions. Runs on two threads: it checks
/// the round, it is not part of it.
fn ee_linked_accuracy<K: KbView + Clone + Sync>(
    kb: K,
    eval: &[GoldDoc],
    tracker: &PromotionTracker,
    pool: &rayon::ThreadPool,
) -> f64 {
    let aida = Disambiguator::new(
        kb.clone(),
        MilneWitten::new(kb.clone()),
        AidaConfig::sim_only(),
    );
    let per_doc: Vec<(u64, u64)> = pool.install(|| {
        eval.par_iter()
            .map(|doc| {
                let result = aida.disambiguate(&doc.tokens, &doc.bare_mentions());
                let (mut linked, mut total) = (0u64, 0u64);
                for (labeled, assignment) in doc.mentions.iter().zip(&result.assignments) {
                    if labeled.label.is_some() {
                        continue;
                    }
                    total += 1;
                    let promoted = tracker.promoted_as(&labeled.mention.surface);
                    if let (Some(name), Some(entity)) = (promoted, assignment.entity) {
                        linked += u64::from(kb.entity(entity).canonical_name == name);
                    }
                }
                (linked, total)
            })
            .collect()
    });
    let linked: u64 = per_doc.iter().map(|c| c.0).sum();
    let total: u64 = per_doc.iter().map(|c| c.1).sum();
    stats::share(linked as f64, total as f64)
}

/// Every assignment (entity and score bits) of `eval` under `kb`.
fn assignments<K: KbView + Clone>(kb: K, eval: &[GoldDoc]) -> Vec<(Option<u32>, u64)> {
    let aida = Disambiguator::new(kb.clone(), MilneWitten::new(kb), AidaConfig::sim_only());
    eval.iter()
        .flat_map(|doc| {
            aida.disambiguate(&doc.tokens, &doc.bare_mentions())
                .assignments
        })
        .map(|a| (a.entity.map(|e| e.0), a.score.to_bits()))
        .collect()
}

/// One pass over the whole stream from the frozen base. With `eval`,
/// follows linked accuracy after every round (outside the round's time);
/// with a tracer, records `round` spans with `models`, `discover` and
/// `publish` children.
fn pass(
    kb: &Arc<FrozenKb>,
    docs: &[GoldDoc],
    eval: Option<(&[GoldDoc], &rayon::ThreadPool)>,
    wal_path: &Path,
    tracer: Option<&Tracer>,
) -> Result<Pass, String> {
    let _ = std::fs::remove_file(wal_path);
    let (mut wal, _) = Wal::open(wal_path).map_err(|e| format!("opening WAL: {e}"))?;
    let handle = KbHandle::new(KbEpoch::Frozen(Arc::clone(kb)));
    let policy = PromotionPolicy::default();
    let mut tracker = PromotionTracker::new();
    let n_days = docs.iter().map(|d| d.day + 1).max().unwrap_or(0);
    let mut out = Pass {
        timings: Timings::default(),
        labels: Vec::new(),
        accumulated: Vec::new(),
        wal_bytes: Vec::new(),
        final_epoch: handle.current().1,
        ee_accuracy: Vec::new(),
        discover_allocs: 0,
        mentions: 0,
        candidates: 0,
        similarity_evaluations: 0,
    };
    for day in 0..n_days {
        let mut r = Round::default();
        let r0 = trace::now_ns();
        let root = tracer.map(|t| t.record(None, "round", u64::from(day), 0, 0));
        let (_, epoch) = handle.current();
        let from = day.saturating_sub(WINDOW_DAYS - 1);
        let window: Vec<&GoldDoc> = docs
            .iter()
            .filter(|d| d.day >= from && d.day <= day)
            .collect();
        let models = NameModels::build(&epoch, &window, 2, &EeModelConfig::default());
        let m1 = trace::now_ns();
        r.models = m1 - r0;
        if let Some(t) = tracer {
            t.record(root, "models", u64::from(day), r0, m1);
        }
        let round_aida =
            Disambiguator::new(&epoch, MilneWitten::new(&epoch), AidaConfig::sim_only());
        for (i, doc) in docs.iter().enumerate().filter(|(_, d)| d.day == day) {
            let mentions = doc.bare_mentions();
            let a0 = ned_bench::alloc_events();
            let c0 = trace::thread_cpu_ns();
            let d0 = trace::now_ns();
            let (labels, result) = match tracer {
                None => EeDiscovery::new(&round_aida, &models, discovery_config())
                    .discover(&doc.tokens, &mentions),
                Some(t) => {
                    // Per-document registry on the system clock: the
                    // program's stage spans report this document's time.
                    let metrics = Metrics::new().with_clock(Clock::System);
                    let aida = Disambiguator::new(
                        &epoch,
                        MilneWitten::new(&epoch),
                        AidaConfig::sim_only(),
                    )
                    .with_metrics(&metrics);
                    let found = EeDiscovery::new(&aida, &models, discovery_config())
                        .discover(&doc.tokens, &mentions);
                    let end = trace::now_ns();
                    let snap = metrics.snapshot();
                    let id = t.record(root, "discover", i as u64, d0, end);
                    t.record_derived(id, i as u64, d0, &stage_spans(&snap));
                    out.mentions += snap.counter(names::AIDA_MENTIONS);
                    out.candidates += snap.counter(names::AIDA_CANDIDATES_CONSIDERED);
                    out.similarity_evaluations += snap.counter(names::AIDA_SIMILARITY_EVALUATIONS);
                    found
                }
            };
            let took = trace::now_ns() - d0;
            r.discover_cpu.push(trace::thread_cpu_ns() - c0);
            out.discover_allocs += ned_bench::alloc_events() - a0;
            r.discover.push(took);
            if !result.degradation.is_degraded() && took <= LIMIT_MS * 1_000_000 {
                out.timings.within += 1;
            }
            for (mention, label) in mentions.iter().zip(&labels) {
                if label.is_none() {
                    // Discovery already thresholded by confidence: each EE
                    // label is one fully confident support observation.
                    tracker.observe_ee(&mention.surface, 1.0);
                }
            }
            out.labels.push((doc.gold_labels(), labels));
        }

        // Publish: from the end of discovery until promoted entities are
        // readable through the handle.
        let p0 = trace::now_ns();
        let promotions = tracker.drain_promotions(&policy, &models, &epoch, &Metrics::disabled());
        let p1 = trace::now_ns();
        for mutation in promotions.iter().flat_map(|p| &p.mutations) {
            wal.append(mutation)
                .map_err(|e| format!("WAL append: {e}"))?;
            out.accumulated.push(mutation.clone());
            r.appends += 1;
        }
        let p2 = trace::now_ns();
        let mut p3 = p2;
        if !promotions.is_empty() {
            let delta = DeltaKb::build(Arc::clone(kb), out.accumulated.clone())
                .map_err(|e| format!("promotion mutations apply: {e}"))?;
            p3 = trace::now_ns();
            handle.swap(KbEpoch::Delta(Arc::new(delta)));
        }
        let p4 = trace::now_ns();
        r.drain = p1 - p0;
        r.wal = p2 - p1;
        r.delta = p3 - p2;
        r.swap = p4 - p3;
        r.publish = p4 - p0;
        r.promotions = promotions.len() as u64;
        r.round = p4 - r0;
        if let (Some(t), Some(root)) = (tracer, root) {
            let id = t.record(Some(root), "publish", u64::from(day), p0, p4);
            t.record(Some(id), "drain", u64::from(day), p0, p1);
            t.record(Some(id), "wal_append", u64::from(day), p1, p2);
            t.record(Some(id), "delta_build", u64::from(day), p2, p3);
            t.record(Some(id), "epoch_swap", u64::from(day), p3, p4);
            t.close(root, r0, p4);
        }
        out.timings.rounds.push(r);

        if let Some((eval, pool)) = eval {
            let (_, now_epoch) = handle.current();
            out.ee_accuracy
                .push(ee_linked_accuracy(&now_epoch, eval, &tracker, pool));
        }
    }
    out.wal_bytes = std::fs::read(wal_path).map_err(|e| format!("reading WAL back: {e}"))?;
    out.final_epoch = handle.current().1;
    Ok(out)
}

/// Checks the first pass's outputs; returns the number of failed checks.
fn check_first(report: &mut Report, p: &Pass, eval: &[GoldDoc]) -> Result<u64, String> {
    let replay = ned_kb::wal::replay(&p.wal_bytes).map_err(|e| format!("WAL replay: {e}"))?;
    let wal_ok = replay.mutations == p.accumulated;
    let compaction_ok = match p.final_epoch.as_ref() {
        KbEpoch::Frozen(_) => p.accumulated.is_empty(),
        KbEpoch::Delta(delta) => {
            let compacted = Arc::new(delta.compact().map_err(|e| format!("compaction: {e}"))?);
            assignments(&p.final_epoch, eval) == assignments(&compacted, eval)
        }
    };
    let monotone = p.ee_accuracy.windows(2).all(|w| w[1] >= w[0]);
    report.check(
        "stream.wal_replay_equals_appended_mutations",
        wal_ok,
        format!(
            "{} records replayed, {} appended",
            replay.mutations.len(),
            p.accumulated.len()
        ),
    );
    report.check(
        "stream.compacted_kb_annotates_identically",
        compaction_ok,
        format!("{} evaluation documents", eval.len()),
    );
    report.check(
        "stream.ee_linked_accuracy_never_decreases",
        monotone,
        format!("{:?}", p.ee_accuracy),
    );
    Ok([wal_ok, compaction_ok, monotone]
        .iter()
        .filter(|ok| !**ok)
        .count() as u64)
}

/// FNV-1a over a pass's labels and WAL bytes: equal prints mean the same
/// labels for every document and the same appended mutations.
fn fingerprint(p: &Pass) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for label in p.labels.iter().flat_map(|(_, found)| found) {
        label
            .map_or(u32::MAX, |e| e.0)
            .to_le_bytes()
            .into_iter()
            .for_each(&mut eat);
    }
    p.wal_bytes.iter().copied().for_each(eat);
    h
}

/// Checks that a later pass reproduced the first bit for bit (labels and
/// WAL) and that its WAL replays to its mutations; keeps only its timings,
/// so the number of passes does not change the run's memory.
fn check_repeat(
    report: &mut Report,
    p: Pass,
    first: u64,
    label: &str,
) -> Result<(Timings, u64), String> {
    let replay = ned_kb::wal::replay(&p.wal_bytes).map_err(|e| format!("WAL replay: {e}"))?;
    let ok = fingerprint(&p) == first && replay.mutations == p.accumulated;
    report.check(
        &format!("stream.{label}_reproduces_first_pass"),
        ok,
        "labels, WAL bytes, WAL replay",
    );
    Ok((p.timings, u64::from(!ok)))
}

/// Runs the workload and records its metrics and checks.
pub fn run(ctx: &RunCtx, report: &mut Report) -> Result<(), String> {
    let bytes = inputs::kb_bytes(&ctx.dir)?;
    let docs = inputs::docs(&ctx.dir, "docs.bin")?;
    // The evaluation set of the incremental-KB experiment: every stream
    // document with a gold emerging mention.
    let eval: Vec<GoldDoc> = docs
        .iter()
        .filter(|d| d.out_of_kb_count() > 0)
        .cloned()
        .collect();
    let rounds = docs.iter().map(|d| d.day + 1).max().unwrap_or(0);
    report.info("docs", docs.len());
    report.info(
        "mentions",
        docs.iter().map(|d| d.mentions.len()).sum::<usize>(),
    );
    report.info("rounds", rounds);
    report.info("eval_docs", eval.len());
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(2)
        .build()
        .map_err(|e| e.to_string())?;

    let mut read_ms = Vec::new();
    let mut setup_id = 0;
    let (setup_s, kb) = timed_setup(|| {
        let wal_path = ctx.dir.join(format!("setup-{setup_id}.wal"));
        setup_id += 1;
        let start = Instant::now();
        let kb = inputs::load_kb(&bytes)?;
        read_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let (wal, _) = Wal::open(&wal_path).map_err(|e| format!("opening WAL: {e}"))?;
        let handle = KbHandle::new(KbEpoch::Frozen(Arc::clone(&kb)));
        drop((wal, handle));
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

    // The first pass follows linked accuracy round by round and is checked
    // in full; later passes must reproduce it exactly.
    let start = Instant::now();
    let first = pass(
        &kb,
        &docs,
        Some((&eval, &pool)),
        &ctx.dir.join("stream-0.wal"),
        None,
    )?;
    let mut failed = check_first(report, &first, &eval)?;
    let micro = ned_eval::micro_accuracy(
        first
            .labels
            .iter()
            .map(|(g, p)| (g.as_slice(), p.as_slice())),
        true,
    );
    let print = fingerprint(&first);
    report.info("mutations", first.accumulated.len());
    report.metric(
        "ned-emerging.ee_linked_accuracy",
        first.ee_accuracy.last().copied().unwrap_or(0.0),
        "share",
    );
    let first_allocs = first.discover_allocs;
    let mut passes = vec![first.timings.clone()];
    // Release the first pass's KB epochs and outputs before the next pass,
    // so the number of passes does not change the run's peak memory.
    drop(first);
    let mut traced = None;
    if ctx.trace {
        let tracer = Tracer::default();
        let p = pass(&kb, &docs, None, &ctx.dir.join("traced.wal"), Some(&tracer))?;
        let counts = (
            p.mentions,
            p.candidates,
            p.similarity_evaluations,
            p.final_epoch.delta_entity_count(),
        );
        let (timings, bad) = check_repeat(report, p, print, "traced_pass")?;
        failed += bad;
        traced = Some((timings, counts, tracer));
    } else {
        let measured = |passes: &[Timings]| passes.iter().map(Timings::seconds).sum::<f64>();
        while start.elapsed().as_secs_f64() + measured(&passes) / passes.len() as f64 <= ctx.seconds
        {
            let n = passes.len();
            let p = pass(
                &kb,
                &docs,
                None,
                &ctx.dir.join(format!("stream-{n}.wal")),
                None,
            )?;
            let (timings, bad) = check_repeat(report, p, print, &format!("pass{n}"))?;
            failed += bad;
            passes.push(timings);
        }
    }
    let n_passes = (passes.len() + usize::from(traced.is_some())) as u64;
    report.ops(n_passes * (docs.len() as u64 + u64::from(rounds)), failed);
    report.info("passes", passes.len());

    let per_pass =
        |f: &dyn Fn(&Timings) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let calls = |p: &Timings| {
        Dist::of(
            &p.rounds
                .iter()
                .flat_map(|r| r.discover_cpu.iter().map(|&ns| ns as f64 / 1e6))
                .collect::<Vec<_>>(),
        )
    };
    let publish_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| {
            p.rounds
                .iter()
                .filter(|r| r.promotions > 0)
                .map(|r| r.publish as f64 / 1e6)
        })
        .collect();
    let docs_per_s = per_pass(&|p| docs.len() as f64 / p.seconds());
    report.metric("docs_per_s", docs_per_s, "docs/s");
    report.metric("doc_p50_ms", per_pass(&|p| calls(p).p50), "ms");
    report.metric("doc_p99_ms", per_pass(&|p| calls(p).p99), "ms");
    report.info("doc_samples_per_pass", docs.len());
    report.metric("max_rate_rps", docs_per_s, "req/s");
    report.metric(
        "goodput_rps",
        per_pass(&|p| p.within as f64 / p.seconds()),
        "req/s",
    );
    report.metric("micro_accuracy", micro, "share");
    report.metric("ned-kb.publish_p50_ms", stats::median(&publish_ms), "ms");
    report.info("publish_samples", publish_ms.len());

    if let Some((tp, counts, tracer)) = traced {
        traced_layers(
            ctx,
            report,
            (&passes[0], first_allocs),
            (&tp, counts),
            &tracer,
            docs.len(),
        )?;
    }
    Ok(())
}

/// Pipeline counters of the traced pass and its final delta entities.
type TracedCounts = (u64, u64, u64, usize);

fn traced_layers(
    ctx: &RunCtx,
    report: &mut Report,
    (plain, plain_allocs): (&Timings, u64),
    (tp, (mentions, candidates, similarity_evaluations, delta_entities)): (&Timings, TracedCounts),
    tracer: &Tracer,
    n_docs: usize,
) -> Result<(), String> {
    let spans = tracer.spans();
    let ledger = Ledger::of(&spans, "round", 20_000);
    let rounds_ns: u64 = tp.rounds.iter().map(|r| r.round).sum();
    let rest = ledger.rest_ns();
    let check = ledger.check(rounds_ns, 0.001).and_then(|()| {
        if rest < 0 || rest as f64 > REST_TOLERANCE * rounds_ns as f64 {
            Err(format!("{rest} ns of {rounds_ns} ns not attributed"))
        } else {
            Ok(())
        }
    });
    report.check(
        "stream.ledger: models + discover + publish = round",
        check.is_ok(),
        check.err().unwrap_or_default(),
    );
    let promoting: Vec<&Round> = tp.rounds.iter().filter(|r| r.promotions > 0).collect();
    let median_of = |f: &dyn Fn(&Round) -> u64, rounds: &[&Round]| {
        stats::median(&rounds.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
    };
    let all: Vec<&Round> = tp.rounds.iter().collect();
    let appends: u64 = tp.rounds.iter().map(|r| r.appends).sum();
    let wal_ns: u64 = tp.rounds.iter().map(|r| r.wal).sum();
    let n_docs = n_docs as f64;
    report.metric(
        "ned-kb.wal_append_us",
        stats::share(wal_ns as f64, appends as f64) / 1e3,
        "us",
    );
    report.metric("ned-kb.wal_records", appends as f64, "count");
    report.metric(
        "ned-kb.delta_build_ms",
        median_of(&|r| r.delta, &promoting) / 1e6,
        "ms",
    );
    report.metric(
        "ned-kb.epoch_swap_us",
        median_of(&|r| r.swap, &promoting) / 1e3,
        "us",
    );
    report.metric("ned-kb.delta_entities", delta_entities as f64, "count");
    report.metric(
        "ned-emerging.models_build_ms",
        median_of(&|r| r.models, &all) / 1e6,
        "ms",
    );
    report.metric(
        "ned-emerging.drain_ms",
        median_of(&|r| r.drain, &all) / 1e6,
        "ms",
    );
    report.metric(
        "ned-emerging.discover_us",
        tp.rounds.iter().flat_map(|r| &r.discover).sum::<u64>() as f64 / n_docs / 1e3,
        "us",
    );
    report.metric(
        "ned-emerging.promotions",
        tp.rounds.iter().map(|r| r.promotions).sum::<u64>() as f64,
        "count",
    );
    let features_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "features")
        .map(trace::Span::dur)
        .sum();
    report.metric(
        "ned-aida.features_us",
        features_ns as f64 / n_docs / 1e3,
        "us",
    );
    report.metric(
        "ned-aida.candidates_per_mention",
        stats::share(candidates as f64, mentions as f64),
        "count",
    );
    report.metric(
        "ned-aida.similarity_evaluations",
        similarity_evaluations as f64 / n_docs,
        "count",
    );
    report.metric(
        "ned-aida.allocs_per_doc",
        plain_allocs as f64 / n_docs,
        "count",
    );
    report.metric(
        "ned-obs.trace_overhead",
        tp.seconds() / plain.seconds(),
        "ratio",
    );
    report.info("spans", spans.len());
    if let Some(path) = crate::spans_path(ctx, Workload::Stream) {
        trace::write_jsonl(&spans, &path).map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(())
}
