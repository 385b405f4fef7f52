//! Wall-deadline degradation, end to end and deterministic.
//!
//! Two layers are pinned here:
//!
//! 1. **Mid-solve expiry** — a ticking [`ManualClock`] advances simulated
//!    time on every read, so the solver's wall-budget guard (which samples
//!    the clock every 1024 charge units) observes time passing *during* a
//!    solve with no sleeps and no races. On a graph wide enough to cross
//!    the sampling cadence, the budget fires `DeadlineExceeded`, the
//!    disambiguator steps down exactly one rung (joint → no-coherence),
//!    and the counters record exactly one budget exhaustion.
//! 2. **The serving ladder** — the virtual-time open-loop simulator runs
//!    the *real* pipeline behind `ned-serve`'s deadline policy while a
//!    queue backlog burns down each request's deadline; the exact sequence
//!    of per-request degradation levels (full → no-coherence → prior-only)
//!    and the serving counters are pinned.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use aida_ned::aida::{
    AidaConfig, DeadlinePlan, DeadlinePolicy, Disambiguator, JointConfig, NedMethod,
};
use aida_ned::core::DegradationLevel;
use aida_ned::kb::{EntityKind, FrozenKb, KbBuilder};
use aida_ned::obs::{Clock, Metrics};
use aida_ned::relatedness::MilneWitten;
use aida_ned::serve::{
    run_open_loop, AidaHandler, AnnotateHandler, OpenLoopConfig, ServeObs, ServeRequest,
    SimStatus,
};
use aida_ned::text::{tokenize, Mention};

/// A KB whose single surface is shared by `width` entities: one mention
/// yields a graph wide enough that the solver's first Dijkstra alone
/// crosses the 1024-charge wall-budget sampling cadence.
fn wide_kb(width: u32) -> FrozenKb {
    let mut b = KbBuilder::new();
    let mut prev = None;
    for i in 0..width {
        let e = b.add_entity(&format!("Gorvandel {i}"), EntityKind::Person);
        b.add_name(e, "Gorvandel", 1 + u64::from(i % 7));
        b.add_keyphrase(e, "ancient fortress city", 2);
        if let Some(p) = prev {
            b.add_link(p, e);
        }
        prev = Some(e);
    }
    FrozenKb::freeze(&b.build())
}

/// Runs one wide-graph document under `clock` with a 6 ms wall budget
/// (the `Budgeted` rung of the deadline ladder) and returns the reported
/// degradation plus the metrics snapshot.
fn run_wide(kb: &FrozenKb, clock: Clock) -> (DegradationLevel, aida_ned::obs::MetricsSnapshot)
{
    // 6 ms remaining → the policy keeps the joint method under a wall
    // budget; this transition itself is pinned here.
    let plan = DeadlinePolicy::default().plan(Some(6_000_000));
    assert_eq!(plan, DeadlinePlan::Budgeted { wall_ms: 6 });
    let config = plan.apply(&AidaConfig::full());
    assert_eq!(config.solver_wall_budget_ms, Some(6));

    let metrics = Metrics::new();
    let aida = Disambiguator::new(kb, MilneWitten::new(kb), config)
        .with_metrics(&metrics)
        .with_clock(clock);
    let tokens = tokenize("Gorvandel");
    let mentions = vec![Mention::new("Gorvandel", 0, 1)];
    let result = aida.disambiguate(&tokens, &mentions);
    assert_eq!(result.assignments.len(), 1);
    assert!(result.assignments[0].entity.is_some(), "degraded, not unanswered");
    (result.degradation, metrics.snapshot())
}

#[test]
fn ticking_clock_expires_wall_budget_mid_solve() {
    let kb = wide_kb(1_200);

    // 8 ms of simulated time pass per clock read: the budget's first
    // sampling point (1024 charges into the solve) already sees the 6 ms
    // budget blown. Exactly one rung down, exactly once, deterministically.
    let expire = || {
        let (_clock, hand) = Clock::manual();
        run_wide(&kb, Clock::Manual(hand.with_tick(8_000_000)))
    };
    let (level, snap) = expire();
    assert_eq!(level, DegradationLevel::NoCoherence, "budget expiry drops coherence only");
    assert_eq!(snap.counter("aida_solver_budget_exhausted"), 1);
    assert_eq!(snap.counter("aida_degradation_no_coherence"), 1);
    assert_eq!(snap.counter("aida_degradation_joint"), 0);
    assert_eq!(snap.counter("aida_degradation_prior_only"), 0);
    assert_eq!(snap.counter("aida_docs"), 1);

    // Deterministic: the same ticking schedule reproduces the same
    // snapshot bit for bit.
    let (level2, snap2) = expire();
    assert_eq!(level, level2);
    assert_eq!(snap, snap2, "mid-solve expiry must be reproducible");

    // Control: the same document and budget under a frozen clock never
    // expires — time, not the workload, caused the degradation.
    let (level0, snap0) = run_wide(&kb, Clock::null());
    assert_eq!(level0, DegradationLevel::None);
    assert_eq!(snap0.counter("aida_solver_budget_exhausted"), 0);
    assert_eq!(snap0.counter("aida_degradation_joint"), 1);
    assert_eq!(snap0.counter("aida_degradation_no_coherence"), 0);
}

/// A small fully-linked KB whose names appear in the request text, so the
/// serving handler's recognizer finds real mentions.
fn tiny_kb() -> FrozenKb {
    let mut b = KbBuilder::new();
    let z = b.add_entity("Zanthor", EntityKind::Person);
    let q = b.add_entity("Quorbel", EntityKind::Person);
    let x = b.add_entity("Xylont", EntityKind::Location);
    for (e, name) in [(z, "Zanthor"), (q, "Quorbel"), (x, "Xylont")] {
        b.add_name(e, name, 10);
        b.add_keyphrase(e, "border summit talks", 3);
    }
    b.add_link(z, q);
    b.add_link(q, x);
    b.add_link(x, z);
    FrozenKb::freeze(&b.build())
}

#[test]
fn queue_backlog_burns_deadlines_down_the_exact_ladder() {
    let frozen = Arc::new(tiny_kb());
    let metrics = Metrics::new();
    let (clock, hand) = Clock::manual();
    let handler = AidaHandler::try_new(
        frozen.clone(),
        Arc::new(MilneWitten::new(frozen.clone())),
        AidaConfig::full(),
        JointConfig::default(),
    )
    .expect("valid config")
    .with_metrics(&metrics)
    .with_clock(clock);

    // Sanity: the pipeline really annotates this text at full fidelity.
    let probe = handler.handle(
        &ServeRequest::new(999, "Zanthor met Quorbel at Xylont"),
        &DeadlinePlan::Full,
    );
    assert!(!probe.annotations.is_empty(), "recognizer must find real mentions");
    assert_eq!(probe.degradation, DegradationLevel::None);

    // One worker, 1 ms arrivals, 3 ms service cost, 8 ms deadlines: the
    // backlog grows by 2 ms per request, so remaining time at dequeue is
    // 8, 6, 4, 2, 0, 0, ... ms → plans Budgeted, Budgeted, NoCoherence,
    // NoCoherence, PriorOnly, PriorOnly, ...
    let obs = ServeObs::new(&metrics);
    let config = OpenLoopConfig {
        workers: 1,
        queue_capacity: 16,
        arrival_interval_ns: 1_000_000,
        default_deadline_ms: Some(8),
        policy: DeadlinePolicy::default(),
        shed_expired: false,
    };
    let requests: Vec<ServeRequest> = (0..12)
        .map(|i| ServeRequest::new(i, "Zanthor met Quorbel at Xylont"))
        .collect();
    let report = run_open_loop(
        &handler,
        &hand,
        &requests,
        &config,
        &|_, _| 3_000_000,
        &obs,
    )
    .expect("valid config");
    report.check_conservation().expect("books balance");

    let rungs: Vec<DegradationLevel> =
        report.outcomes.iter().map(|o| o.degradation).collect();
    let expected: Vec<DegradationLevel> = [
        DegradationLevel::None,
        DegradationLevel::None,
        DegradationLevel::NoCoherence,
        DegradationLevel::NoCoherence,
    ]
    .into_iter()
    .chain(std::iter::repeat_n(DegradationLevel::PriorOnly, 8))
    .collect();
    assert_eq!(rungs, expected, "the exact ladder, request by request");

    // Queue wait grows by 2 ms per request until the deadline is gone.
    assert_eq!(report.outcomes[0].queue_wait_ns, 0);
    assert_eq!(report.outcomes[2].queue_wait_ns, 4_000_000);
    assert_eq!(report.outcomes[4].queue_wait_ns, 8_000_000);

    // The serving counters tell the same story, exactly.
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("serve_submitted"), 12);
    assert_eq!(snap.counter("serve_accepted"), 12);
    assert_eq!(snap.counter("serve_rejected_queue_full"), 0);
    assert_eq!(snap.counter("serve_completed_ok"), 2);
    assert_eq!(snap.counter("serve_completed_degraded"), 10);
    assert_eq!(snap.counter("serve_degraded_no_coherence"), 2);
    assert_eq!(snap.counter("serve_degraded_prior_only"), 8);
    assert_eq!(snap.counter("serve_failed"), 0);
    assert_eq!(report.count(SimStatus::Ok), 2);
    assert_eq!(report.count(SimStatus::Degraded), 10);

    // Every request got an answer — degraded beats timed-out.
    assert!(report.outcomes.iter().all(|o| o.status != SimStatus::Rejected));
}

#[test]
fn shed_expired_policy_converts_expired_requests_to_typed_sheds() {
    let frozen = Arc::new(tiny_kb());
    let metrics = Metrics::new();
    let (clock, hand) = Clock::manual();
    let handler = AidaHandler::try_new(
        frozen.clone(),
        Arc::new(MilneWitten::new(frozen.clone())),
        AidaConfig::full(),
        JointConfig::default(),
    )
    .expect("valid config")
    .with_metrics(&metrics)
    .with_clock(clock);

    let obs = ServeObs::new(&metrics);
    let config = OpenLoopConfig {
        workers: 1,
        queue_capacity: 16,
        arrival_interval_ns: 1_000_000,
        default_deadline_ms: Some(8),
        policy: DeadlinePolicy::default(),
        shed_expired: true,
    };
    let requests: Vec<ServeRequest> = (0..12)
        .map(|i| ServeRequest::new(i, "Zanthor met Quorbel at Xylont"))
        .collect();
    let report =
        run_open_loop(&handler, &hand, &requests, &config, &|_, _| 3_000_000, &obs)
            .expect("valid config");
    report.check_conservation().expect("books balance");

    // Same burn-down as above, but expired requests are now shed instead
    // of served prior-only; sheds free the worker immediately, so the
    // backlog stops growing once expiry sets in.
    assert!(report.count(SimStatus::Shed) > 0, "expired requests shed");
    assert_eq!(report.count(SimStatus::Ok) + report.count(SimStatus::Degraded) + report.count(SimStatus::Shed), 12);
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("serve_shed_deadline"), report.count(SimStatus::Shed));
    assert_eq!(snap.counter("serve_degraded_prior_only"), 0, "prior-only replaced by sheds");
}
