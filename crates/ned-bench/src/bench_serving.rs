//! Load benchmark of the overload-robust annotation service (`ned-serve`).
//!
//! Drives the real AIDA pipeline through the serving layer's deterministic
//! discrete-event model ([`ned_serve::run_open_loop`]): requests arrive at a
//! fixed rate in virtual time, and an integer cost model says how long each
//! one occupies a worker slot. The open-loop sweep covers 0.5×, 1×, 2×, and
//! 4× of nominal capacity and writes every step to `BENCH_serving.json`.
//! Each step runs twice and must be bit-identical (the determinism contract
//! for virtual-time load runs), so the report is the same on every machine
//! and CI pins it with `git diff`. Overload behavior is *asserted*: at ≥ 2×
//! capacity the queue peak never exceeds its bound, excess arrivals are
//! rejected at admission, and deadline burn-down shows up as degraded
//! completions.
//!
//! Before the report is written, every step row is checked against the
//! exact conservation laws (`StepRow::violations`):
//! `offered == accepted + rejected` and
//! `accepted == ok + degraded + failed`, where sheds count as a flavor of
//! failed (the `shedded` column is the sub-count, so `shedded <= failed`).
//! Percentiles are nearest rank over a sorted slice, so they are monotone
//! by construction.
//!
//! Wall-clock serving is measured elsewhere: perfbench's `serve-mixed`
//! workload drives the threaded service, and `tests/serve_robustness.rs`
//! checks its accounting under overload, drain and panics.

use std::sync::Arc;

use ned_aida::{AidaConfig, DeadlinePlan, JointConfig};
use ned_obs::{names, Clock, Metrics, MetricsSnapshot};
use ned_relatedness::{CachedRelatedness, MilneWitten};
use ned_serve::{
    run_open_loop, AidaHandler, OpenLoopConfig, ServeObs, ServeRequest, SimReport, SimStatus,
};

use crate::setup::{Env, Scale};

/// Simulated worker slots.
const WORKERS: usize = 2;
/// Bounded queue capacity.
const QUEUE_CAPACITY: usize = 32;
/// Per-request deadline (ms); burned-down deadlines drive degradation.
const DEADLINE_MS: u64 = 10;
/// Virtual cost model: base cost of a full-fidelity annotation.
const COST_BASE_NS: u64 = 800_000;
/// Virtual cost model: per-request jitter step (id-dependent).
const COST_JITTER_NS: u64 = 100_000;

/// The deterministic virtual cost model: how long one annotation occupies
/// a worker slot, as a pure function of the request and its deadline plan.
/// Degraded plans are mildly cheaper (no graph, or prior-only), mirroring
/// the real pipeline's shape — mildly, so that a fully degraded service at
/// 2× offered load still cannot keep up and the overload assertions below
/// are not sitting on a marginal equilibrium. Average full-fidelity cost
/// is 1 ms, so nominal capacity is `WORKERS` requests per millisecond.
fn virtual_cost_ns(request: &ServeRequest, plan: &DeadlinePlan) -> u64 {
    let base = COST_BASE_NS + (request.id.0 % 5) * COST_JITTER_NS;
    match plan {
        DeadlinePlan::Full | DeadlinePlan::Budgeted { .. } => base,
        DeadlinePlan::NoCoherence { .. } => base * 7 / 8,
        DeadlinePlan::PriorOnly => base * 3 / 4,
    }
}

/// Nominal mean service cost of the virtual model (for load-step sizing).
const COST_MEAN_NS: u64 = COST_BASE_NS + 2 * COST_JITTER_NS;

/// One offered-load step of the virtual-time sweep.
#[derive(Debug, Clone, PartialEq)]
struct StepRow {
    load: String,
    offered: u64,
    accepted: u64,
    rejected: u64,
    ok: u64,
    degraded: u64,
    failed: u64,
    shedded: u64,
    queue_depth_peak: u64,
    throughput_rps: f64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
    p999_ns: u64,
}

impl StepRow {
    /// The exact conservation laws every row must satisfy: one message per
    /// law the row breaks, naming the law.
    fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.offered != self.accepted + self.rejected {
            out.push(format!(
                "{}: offered ({}) != accepted ({}) + rejected ({})",
                self.load, self.offered, self.accepted, self.rejected
            ));
        }
        if self.accepted != self.ok + self.degraded + self.failed {
            out.push(format!(
                "{}: accepted ({}) != ok ({}) + degraded ({}) + failed ({})",
                self.load, self.accepted, self.ok, self.degraded, self.failed
            ));
        }
        if self.shedded > self.failed {
            out.push(format!(
                "{}: shedded ({}) > failed ({})",
                self.load, self.shedded, self.failed
            ));
        }
        out
    }
}

/// Nearest-rank percentile over a sorted slice (integer arithmetic, so the
/// virtual-time rows are deterministic).
fn percentile_ns(sorted: &[u64], num: u64, den: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (num * n).div_ceil(den).max(1);
    let idx = (rank - 1).min(n - 1) as usize;
    sorted[idx]
}

fn percentiles(latencies: &mut [u64]) -> (u64, u64, u64, u64) {
    latencies.sort_unstable();
    (
        percentile_ns(latencies, 50, 100),
        percentile_ns(latencies, 95, 100),
        percentile_ns(latencies, 99, 100),
        percentile_ns(latencies, 999, 1000),
    )
}

fn row_from_sim(load: String, report: &SimReport) -> StepRow {
    let ok = report.count(SimStatus::Ok);
    let degraded = report.count(SimStatus::Degraded);
    let shedded = report.count(SimStatus::Shed);
    let failed = shedded + report.count(SimStatus::Failed);
    let mut latencies = report.answered_latencies_ns();
    let (p50, p95, p99, p999) = percentiles(&mut latencies);
    let completed = ok + degraded;
    let throughput_rps = if report.makespan_ns == 0 {
        0.0
    } else {
        completed as f64 * 1e9 / report.makespan_ns as f64
    };
    StepRow {
        load,
        offered: report.offered(),
        accepted: report.accepted(),
        rejected: report.count(SimStatus::Rejected),
        ok,
        degraded,
        failed,
        shedded,
        queue_depth_peak: report.queue_depth_peak,
        throughput_rps,
        p50_ns: p50,
        p95_ns: p95,
        p99_ns: p99,
        p999_ns: p999,
    }
}

/// Builds the request list: corpus documents cycled, ids sequential, every
/// request carrying the benchmark deadline.
fn build_requests(texts: &[String], n: usize) -> Vec<ServeRequest> {
    (0..n)
        .map(|i| {
            ServeRequest::new(i as u64, texts[i % texts.len()].clone())
                .with_deadline_ms(DEADLINE_MS)
        })
        .collect()
}

/// One virtual-time open-loop step. Returns the report and the serving
/// counters, after cross-checking the two against each other.
fn virtual_step(env: &Env, texts: &[String], load_x: f64, n: usize) -> (SimReport, MetricsSnapshot) {
    let interval_ns =
        ((COST_MEAN_NS as f64) / (WORKERS as f64 * load_x)).round().max(1.0) as u64;
    let metrics = Metrics::new();
    let (clock, hand) = Clock::manual();
    let cached =
        Arc::new(CachedRelatedness::with_metrics(MilneWitten::new(env.frozen.clone()), &metrics));
    let handler =
        AidaHandler::try_new(env.frozen.clone(), cached, AidaConfig::full(), JointConfig::default())
            .unwrap_or_else(|e| panic!("full config is valid: {e}"))
            .with_metrics(&metrics)
            .with_clock(clock);
    let obs = ServeObs::new(&metrics);
    let config = OpenLoopConfig {
        workers: WORKERS,
        queue_capacity: QUEUE_CAPACITY,
        arrival_interval_ns: interval_ns,
        default_deadline_ms: None,
        policy: ned_serve::DeadlinePolicy::default(),
        shed_expired: false,
    };
    let requests = build_requests(texts, n);
    let report = run_open_loop(&handler, &hand, &requests, &config, &virtual_cost_ns, &obs)
        .unwrap_or_else(|e| panic!("valid open-loop config: {e}"));
    report.check_conservation().unwrap_or_else(|e| panic!("sim books balance: {e}"));
    let snapshot = metrics.snapshot();
    // The ned-obs surface must tell the same story as the report.
    assert_eq!(snapshot.counter(names::SERVE_SUBMITTED), report.offered());
    assert_eq!(snapshot.counter(names::SERVE_ACCEPTED), report.accepted());
    assert_eq!(
        snapshot.counter(names::SERVE_REJECTED_QUEUE_FULL),
        report.count(SimStatus::Rejected)
    );
    assert_eq!(snapshot.counter(names::SERVE_COMPLETED_OK), report.count(SimStatus::Ok));
    assert_eq!(
        snapshot.counter(names::SERVE_COMPLETED_DEGRADED),
        report.count(SimStatus::Degraded)
    );
    (report, snapshot)
}

/// Runs the serving load benchmark.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let corpus = env.conll(scale);
    let texts: Vec<String> = corpus.docs.iter().map(|d| d.text()).collect();
    assert!(!texts.is_empty(), "corpus provides request texts");
    let n_virtual = corpus.docs.len().max(100);

    // --- open-loop, virtual time: deterministic sweep, each step twice ---
    let virtual_loads = [0.5f64, 1.0, 2.0, 4.0];
    let mut rows: Vec<StepRow> = Vec::new();
    let mut virtual_deterministic = true;
    let mut overload_snapshot: Option<MetricsSnapshot> = None;
    for &load_x in &virtual_loads {
        let (first, snap_a) = virtual_step(&env, &texts, load_x, n_virtual);
        let (second, snap_b) = virtual_step(&env, &texts, load_x, n_virtual);
        if first != second || snap_a != snap_b {
            virtual_deterministic = false;
        }
        if load_x >= 2.0 {
            // Overload contract: bounded queue, typed rejections, degraded
            // (not dropped) completions.
            assert!(
                first.queue_depth_peak <= QUEUE_CAPACITY as u64,
                "queue exceeded capacity at {load_x}x"
            );
            assert!(
                first.count(SimStatus::Rejected) > 0,
                "sustained {load_x}x overload must shed at admission"
            );
            assert!(
                first.count(SimStatus::Degraded) > 0,
                "burned-down deadlines must degrade at {load_x}x"
            );
        }
        if (load_x - 2.0).abs() < f64::EPSILON {
            overload_snapshot = Some(snap_a);
        }
        rows.push(row_from_sim(format!("{load_x}x"), &first));
    }
    assert!(virtual_deterministic, "virtual-time runs diverged across invocations");
    let violations: Vec<String> = rows.iter().flat_map(StepRow::violations).collect();
    assert!(violations.is_empty(), "serving step rows break their laws: {violations:#?}");

    // --- report ----------------------------------------------------------
    let mut table = ned_eval::report::Table::new(
        "Serving — offered-load sweep (open loop, virtual time)",
        &[
            "load", "offered", "accepted", "rejected", "ok", "degraded", "failed",
            "shed", "q-peak", "rps", "p50 ms", "p95 ms", "p99 ms", "p999 ms",
        ],
    );
    let ms = |ns: u64| format!("{:.3}", ns as f64 / 1e6);
    for r in &rows {
        table.add_row(vec![
            r.load.clone(),
            r.offered.to_string(),
            r.accepted.to_string(),
            r.rejected.to_string(),
            r.ok.to_string(),
            r.degraded.to_string(),
            r.failed.to_string(),
            r.shedded.to_string(),
            r.queue_depth_peak.to_string(),
            format!("{:.1}", r.throughput_rps),
            ms(r.p50_ns),
            ms(r.p95_ns),
            ms(r.p99_ns),
            ms(r.p999_ns),
        ]);
    }
    print!("{}", table.render());
    println!("virtual-time sweep bit-identical across two invocations: {virtual_deterministic}");

    let json = render_json(&rows, virtual_deterministic, overload_snapshot.as_ref());
    let path = "BENCH_serving.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn render_json(
    rows: &[StepRow],
    virtual_deterministic: bool,
    overload_snapshot: Option<&MetricsSnapshot>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"corpus\": \"conll-like\",\n");
    out.push_str(&format!("  \"workers\": {WORKERS},\n"));
    out.push_str(&format!("  \"queue_capacity\": {QUEUE_CAPACITY},\n"));
    out.push_str(&format!("  \"deadline_ms\": {DEADLINE_MS},\n"));
    out.push_str(&format!(
        "  \"virtual_cost_model\": {{\"base_ns\": {COST_BASE_NS}, \"jitter_step_ns\": \
         {COST_JITTER_NS}, \"no_coherence_fraction\": \"7/8\", \"prior_only_fraction\": \
         \"3/4\"}},\n"
    ));
    out.push_str(&format!("  \"virtual_deterministic\": {virtual_deterministic},\n"));
    out.push_str("  \"steps\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"load\": \"{}\", \"offered\": {}, \"accepted\": {}, \"rejected\": {}, \
             \"ok\": {}, \"degraded\": {}, \"failed\": {}, \"shedded\": {}, \
             \"queue_depth_peak\": {}, \"throughput_rps\": {:.3}, \"p50_ns\": {}, \
             \"p95_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}{}\n",
            r.load,
            r.offered,
            r.accepted,
            r.rejected,
            r.ok,
            r.degraded,
            r.failed,
            r.shedded,
            r.queue_depth_peak,
            r.throughput_rps,
            r.p50_ns,
            r.p95_ns,
            r.p99_ns,
            r.p999_ns,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"serve_metrics_at_2x\": {\n");
    if let Some(snapshot) = overload_snapshot {
        let serve: Vec<(String, u64)> = snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("serve_"))
            .cloned()
            .collect();
        for (i, (name, value)) in serve.iter().enumerate() {
            let sep = if i + 1 < serve.len() { "," } else { "" };
            out.push_str(&format!("    \"{name}\": {value}{sep}\n"));
        }
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn sample_row() -> StepRow {
        StepRow {
            load: "2x".to_string(),
            offered: 100,
            accepted: 80,
            rejected: 20,
            ok: 50,
            degraded: 25,
            failed: 5,
            shedded: 3,
            queue_depth_peak: 32,
            throughput_rps: 1500.0,
            p50_ns: 1_000_000,
            p95_ns: 5_000_000,
            p99_ns: 9_000_000,
            p999_ns: 12_000_000,
        }
    }

    #[test]
    fn row_conservation_checks() {
        assert_eq!(sample_row().violations(), Vec::<String>::new());
        // Each planted violation breaks exactly one law, and the check names it.
        let cases = [
            (
                StepRow { rejected: 21, ..sample_row() },
                "2x: offered (100) != accepted (80) + rejected (21)",
            ),
            (
                StepRow { ok: 51, ..sample_row() },
                "2x: accepted (80) != ok (51) + degraded (25) + failed (5)",
            ),
            (StepRow { shedded: 6, ..sample_row() }, "2x: shedded (6) > failed (5)"),
        ];
        for (row, law) in cases {
            assert_eq!(row.violations(), vec![law.to_string()]);
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&sorted, 50, 100), 50);
        assert_eq!(percentile_ns(&sorted, 95, 100), 95);
        assert_eq!(percentile_ns(&sorted, 99, 100), 99);
        assert_eq!(percentile_ns(&sorted, 999, 1000), 100);
        assert_eq!(percentile_ns(&[], 50, 100), 0);
        assert_eq!(percentile_ns(&[7], 999, 1000), 7);
    }

    proptest! {
        /// Nearest rank over the sorted latencies: every percentile is one
        /// of the latencies (0 when there are none), and they never
        /// decrease from p50 to p99.9.
        #[test]
        fn percentiles_are_ordered_latencies(
            latencies in proptest::collection::vec(any::<u64>(), 0..300)
        ) {
            let mut sorted = latencies.clone();
            let (p50, p95, p99, p999) = percentiles(&mut sorted);
            prop_assert!(p50 <= p95 && p95 <= p99 && p99 <= p999);
            for p in [p50, p95, p99, p999] {
                prop_assert!(latencies.contains(&p) || (latencies.is_empty() && p == 0));
            }
        }
    }

    #[test]
    fn cost_model_is_deterministic_and_plan_sensitive() {
        let req = ServeRequest::new(3, "doc");
        let full = virtual_cost_ns(&req, &DeadlinePlan::Full);
        assert_eq!(full, virtual_cost_ns(&req, &DeadlinePlan::Full));
        assert_eq!(full, COST_BASE_NS + 3 * COST_JITTER_NS);
        assert!(virtual_cost_ns(&req, &DeadlinePlan::NoCoherence { wall_ms: 1 }) < full);
        assert!(
            virtual_cost_ns(&req, &DeadlinePlan::PriorOnly)
                < virtual_cost_ns(&req, &DeadlinePlan::NoCoherence { wall_ms: 1 })
        );
        // The discount must be mild enough that a fully degraded service at
        // 2x offered load still falls behind (overload persists).
        let prior_rate_per_ms = 1_000_000 * WORKERS as u64 / (COST_MEAN_NS * 3 / 4);
        let offered_2x_per_ms = 2 * WORKERS as u64 * 1_000_000 / COST_MEAN_NS;
        assert!(prior_rate_per_ms < offered_2x_per_ms, "2x overload must persist");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let rows = vec![StepRow { load: "0.5x".to_string(), ..sample_row() }, sample_row()];
        let metrics = Metrics::new();
        metrics.counter(names::SERVE_SUBMITTED).add(100);
        metrics.counter(names::SERVE_ACCEPTED).add(80);
        metrics.counter("aida_docs").add(80); // non-serve counter filtered out
        let snapshot = metrics.snapshot();
        let json = render_json(&rows, true, Some(&snapshot));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("{\"load\": \"0.5x\", \"offered\": 100,"));
        assert!(json.contains("\"virtual_deterministic\": true"));
        assert!(json.contains("\"p999_ns\": 12000000"));
        assert!(json.contains("\"serve_submitted\": 100"));
        assert!(!json.contains("\"aida_docs\""));
        // No trailing comma before a closing brace.
        assert!(!json.contains(",\n  }"));
    }
}
