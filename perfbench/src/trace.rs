//! Tracing for the traced run: in-memory spans recorded around the calls
//! into each crate, a timed `Relatedness` wrapper, and the ledger that
//! checks the spans add up to the end-to-end time.
//!
//! Every timestamp comes from `ned_obs::Clock::System`, the clock the
//! program's own stage spans (`stage_features_ns`, `stage_graph_ns`,
//! `stage_solver_ns`, `serve_queue_wait_ns`) record against, so bench spans
//! and program spans share one time base.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ned_kb::EntityId;
use ned_obs::{names, Clock, MetricsSnapshot};
use ned_relatedness::{CachedRelatedness, Relatedness};

use crate::report::Report;
use crate::stats;

/// Nanoseconds on the program's system clock.
pub fn now_ns() -> u64 {
    Clock::System.now_nanos()
}

/// CPU time of the calling thread in ns (`CLOCK_THREAD_CPUTIME_ID`). Time
/// the host takes the virtual CPU away, and time other threads hold it, do
/// not count, so per-document costs stay comparable across runs on a
/// shared host.
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the whole call; `clock_gettime` only writes it.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is supported on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static LANE: u64 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// Small integer naming the calling thread.
pub fn lane() -> u64 {
    LANE.with(|l| *l)
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// Enclosing span.
    pub parent: Option<u64>,
    /// Layer call this span times.
    pub name: &'static str,
    /// Document index or request id the span belongs to.
    pub unit: u64,
    /// Thread that recorded it.
    pub lane: u64,
    /// Start, ns on the system clock.
    pub start_ns: u64,
    /// End, ns on the system clock.
    pub end_ns: u64,
    /// True when only the duration was measured (a program stage span read
    /// back from its histogram); the start is then placed right after the
    /// preceding sibling.
    pub derived: bool,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; they are written out once, at exit.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// Records a measured span and returns its id.
    pub fn record(
        &self,
        parent: Option<u64>,
        name: &'static str,
        unit: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        self.push(parent, name, unit, start_ns, end_ns, false)
    }

    /// Records program stage spans known only by duration as consecutive
    /// children of `parent`, starting at `start_ns`. Zero durations (stages
    /// that did not run) are skipped.
    pub fn record_derived(
        &self,
        parent: u64,
        unit: u64,
        start_ns: u64,
        stages: &[(&'static str, u64)],
    ) {
        let mut at = start_ns;
        for &(name, dur) in stages {
            if dur > 0 {
                self.push(Some(parent), name, unit, at, at + dur, true);
                at += dur;
            }
        }
    }

    /// Sets the interval of a span recorded before its end was known (a
    /// parent that needs its id for children recorded on the way).
    pub fn close(&self, id: u64, start_ns: u64, end_ns: u64) {
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        if let Some(span) = spans.get_mut(id as usize) {
            span.start_ns = start_ns;
            span.end_ns = end_ns;
        }
    }

    fn push(
        &self,
        parent: Option<u64>,
        name: &'static str,
        unit: u64,
        start_ns: u64,
        end_ns: u64,
        derived: bool,
    ) -> u64 {
        let lane = lane();
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        // Ids are buffer positions, so `close` finds a span directly.
        let id = spans.len() as u64;
        spans.push(Span {
            id,
            parent,
            name,
            unit,
            lane,
            start_ns,
            end_ns,
            derived,
        });
        id
    }

    /// A copy of everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned")
            .clone()
    }
}

/// Writes spans as JSON lines, each with its self time (duration minus
/// the durations of its children).
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut children: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children.entry(p).or_default() += s.dur();
        }
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let self_ns = s.dur() as i64 - children.get(&s.id).copied().unwrap_or(0) as i64;
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"unit\":{},\"lane\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"derived\":{}}}",
            s.id, parent, s.name, s.unit, s.lane, s.start_ns, s.end_ns, self_ns, s.derived
        )?;
    }
    out.flush()
}

/// The accounting of every span tree rooted at one name: root total, the
/// total of each direct child name, and the roots' own (self) time.
///
/// `Σ children + rest = roots` holds by construction; what the ledger
/// checks is that no root's children exceed it (every self time is
/// non-negative, so no layer is counted twice or overlaps another) and
/// that the roots cover the independently measured end-to-end time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Root spans.
    pub roots: usize,
    /// Sum of root durations.
    pub root_ns: u64,
    /// Sum of direct-child durations, by child name.
    pub children_ns: BTreeMap<&'static str, u64>,
    /// Roots whose direct children sum to more than the root plus slack.
    pub overfull: usize,
}

impl Ledger {
    /// Builds the ledger of the trees rooted at spans named `root`; `slack_ns`
    /// absorbs clock-read ordering between a parent and its children.
    pub fn of(spans: &[Span], root: &str, slack_ns: u64) -> Ledger {
        let mut per_root: BTreeMap<u64, u64> = BTreeMap::new();
        let mut ledger = Ledger::default();
        for s in spans.iter().filter(|s| s.name == root) {
            per_root.insert(s.id, 0);
            ledger.roots += 1;
            ledger.root_ns += s.dur();
        }
        for s in spans {
            if let Some(sum) = s.parent.and_then(|p| per_root.get_mut(&p)) {
                *sum += s.dur();
                *ledger.children_ns.entry(s.name).or_default() += s.dur();
            }
        }
        for s in spans.iter().filter(|s| s.name == root) {
            if per_root[&s.id] > s.dur() + slack_ns {
                ledger.overfull += 1;
            }
        }
        ledger
    }

    /// Root time not covered by any child (the roots' self time).
    pub fn rest_ns(&self) -> i64 {
        self.root_ns as i64 - self.children_ns.values().sum::<u64>() as i64
    }

    /// Checks the identity `Σ children + rest = end_to_end_ns` within
    /// `tolerance` (a share of the end-to-end time), with every root's self
    /// time non-negative.
    pub fn check(&self, end_to_end_ns: u64, tolerance: f64) -> Result<(), String> {
        if self.roots == 0 {
            return Err("no spans recorded".into());
        }
        if self.overfull > 0 {
            return Err(format!(
                "{} spans have children longer than themselves",
                self.overfull
            ));
        }
        let gap = (self.root_ns as f64 - end_to_end_ns as f64).abs();
        if gap > tolerance * end_to_end_ns as f64 {
            return Err(format!(
                "spans sum to {} ns but the end-to-end time is {} ns (tolerance {:.0}%)",
                self.root_ns,
                end_to_end_ns,
                tolerance * 100.0
            ));
        }
        Ok(())
    }
}

/// Sum over lanes of each lane's busy interval (first start to last end)
/// for the spans named `name`: the wall time the lanes spent on that work.
pub fn lane_busy_ns(spans: &[Span], name: &str) -> u64 {
    let mut lanes: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        let e = lanes.entry(s.lane).or_insert((s.start_ns, s.end_ns));
        e.0 = e.0.min(s.start_ns);
        e.1 = e.1.max(s.end_ns);
    }
    lanes.values().map(|(a, b)| b - a).sum()
}

/// A relatedness measure whose every call is counted and timed: wraps a
/// cache to time lookups, or a measure to time the computes behind misses.
#[derive(Debug, Default)]
pub struct TimedRelatedness<R> {
    inner: R,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl<R> TimedRelatedness<R> {
    /// Wraps `inner`.
    pub fn new(inner: R) -> Self {
        TimedRelatedness {
            inner,
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    /// The wrapped measure.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean ns per call (0 before the first call).
    pub fn mean_ns(&self) -> f64 {
        crate::stats::share(
            self.nanos.load(Ordering::Relaxed) as f64,
            self.calls() as f64,
        )
    }
}

impl<R: Relatedness> Relatedness for TimedRelatedness<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        let start = Instant::now();
        let value = self.inner.relatedness(a, b);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        value
    }
}

/// Sum of a histogram in a snapshot (0 when absent).
pub fn histogram_sum(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot
        .histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, h)| h.sum)
}

/// The program's stage spans of one snapshot, named as trace layers.
pub fn stage_spans(snapshot: &MetricsSnapshot) -> [(&'static str, u64); 3] {
    [
        (
            "features",
            histogram_sum(snapshot, names::STAGE_FEATURES_NS),
        ),
        ("graph", histogram_sum(snapshot, names::STAGE_GRAPH_NS)),
        ("solver", histogram_sum(snapshot, names::STAGE_SOLVER_NS)),
    ]
}

/// What the timed wrappers and the cache counted during one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct RelatednessStats {
    lookups: u64,
    computes: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
    admit_rejected: u64,
    stale_discards: u64,
    bytes_peak: u64,
    lookup_ns: f64,
    compute_ns: f64,
}

/// Reads the counters of a timed cache over a timed measure.
pub fn relatedness_stats<M: Relatedness>(
    cached: &TimedRelatedness<CachedRelatedness<TimedRelatedness<M>>>,
) -> RelatednessStats {
    let cache = cached.inner();
    RelatednessStats {
        lookups: cached.calls(),
        computes: cache.inner().calls(),
        hits: cache.hits(),
        misses: cache.misses(),
        inserts: cache.inserts(),
        evictions: cache.evictions(),
        admit_rejected: cache.admit_rejected(),
        stale_discards: cache.stale_discards(),
        bytes_peak: cache.bytes_peak(),
        lookup_ns: cached.mean_ns(),
        compute_ns: cache.inner().mean_ns(),
    }
}

impl RelatednessStats {
    /// Counter conservation: every lookup is a hit or a miss; every miss
    /// computes and is inserted, rejected or discarded. A lookup that
    /// computes and then finds a racing worker's insert counts as a hit,
    /// so computes may exceed misses by those races.
    pub fn conservation(&self) -> Result<(), String> {
        if self.lookups != self.hits + self.misses {
            return Err(format!(
                "lookups {} != hits {} + misses {}",
                self.lookups, self.hits, self.misses
            ));
        }
        if self.computes < self.misses {
            return Err(format!(
                "computes {} < misses {}",
                self.computes, self.misses
            ));
        }
        if self.misses != self.inserts + self.admit_rejected + self.stale_discards {
            return Err(format!(
                "misses {} != inserts {} + admit_rejected {} + stale_discards {}",
                self.misses, self.inserts, self.admit_rejected, self.stale_discards
            ));
        }
        Ok(())
    }

    /// Records the relatedness layer's metrics and its conservation check.
    pub fn record(&self, report: &mut Report) {
        let check = self.conservation();
        report.check(
            "relatedness: lookups = hits + misses, misses = inserts + rejected + discarded <= computes",
            check.is_ok(),
            check.err().unwrap_or_default(),
        );
        report.info(
            "relatedness_racing_computes",
            self.computes.saturating_sub(self.misses),
        );
        report.metric("ned-relatedness.lookups", self.lookups as f64, "count");
        report.metric(
            "ned-relatedness.hit_rate",
            stats::share(self.hits as f64, self.lookups as f64),
            "share",
        );
        report.metric("ned-relatedness.lookup_ns", self.lookup_ns, "ns");
        report.metric("ned-relatedness.compute_ns", self.compute_ns, "ns");
        report.metric("ned-relatedness.evictions", self.evictions as f64, "count");
        report.metric(
            "ned-relatedness.admit_rejected",
            self.admit_rejected as f64,
            "count",
        );
        report.metric(
            "ned-relatedness.bytes_peak",
            self.bytes_peak as f64,
            "bytes",
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            unit: 0,
            lane: 0,
            start_ns: start,
            end_ns: end,
            derived: false,
        }
    }

    #[test]
    fn ledger_adds_children_and_rest_up_to_the_roots() {
        let spans = vec![
            span(0, None, "doc", 0, 100),
            span(1, Some(0), "features", 0, 40),
            span(2, Some(0), "graph", 40, 70),
            span(3, Some(0), "solver", 70, 90),
            span(4, None, "doc", 100, 150),
            span(5, Some(4), "features", 100, 150),
            // Grandchildren belong to their own parent, not to the root.
            span(6, Some(5), "lookup", 100, 110),
        ];
        let ledger = Ledger::of(&spans, "doc", 0);
        assert_eq!(ledger.roots, 2);
        assert_eq!(ledger.root_ns, 150);
        assert_eq!(ledger.children_ns["features"], 90);
        assert_eq!(ledger.children_ns["graph"], 30);
        assert_eq!(ledger.children_ns["solver"], 20);
        assert!(!ledger.children_ns.contains_key("lookup"));
        assert_eq!(ledger.rest_ns(), 10);
        assert_eq!(ledger.overfull, 0);
        assert!(ledger.check(150, 0.0).is_ok());
        assert!(
            ledger.check(160, 0.05).is_err(),
            "uncovered end-to-end time is reported"
        );
        assert!(ledger.check(155, 0.05).is_ok());
    }

    #[test]
    fn overlapping_children_break_the_identity() {
        let spans = vec![
            span(0, None, "round", 0, 100),
            span(1, Some(0), "models", 0, 60),
            span(2, Some(0), "discover", 50, 110),
        ];
        let ledger = Ledger::of(&spans, "round", 5);
        assert_eq!(ledger.overfull, 1);
        assert!(ledger.check(100, 0.5).is_err());
        assert!(Ledger::of(&spans, "round", 20).check(100, 0.0).is_ok());
        assert!(Ledger::of(&spans, "missing", 0).check(100, 1.0).is_err());
    }

    #[test]
    fn derived_spans_are_laid_out_after_each_other() {
        let tracer = Tracer::default();
        let root = tracer.record(None, "doc", 7, 1_000, 2_000);
        tracer.record_derived(
            root,
            7,
            1_000,
            &[("features", 300), ("graph", 0), ("solver", 200)],
        );
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3, "a stage that did not run leaves no span");
        assert_eq!((spans[1].start_ns, spans[1].end_ns), (1_000, 1_300));
        assert_eq!((spans[2].start_ns, spans[2].end_ns), (1_300, 1_500));
        assert!(spans[2].derived && !spans[0].derived);
        assert_eq!(Ledger::of(&spans, "doc", 0).rest_ns(), 500);
    }

    #[test]
    fn lane_busy_time_spans_first_start_to_last_end_per_lane() {
        let mut spans = vec![span(0, None, "doc", 10, 20), span(1, None, "doc", 30, 50)];
        spans.push(Span {
            lane: 1,
            ..span(2, None, "doc", 0, 5)
        });
        assert_eq!(lane_busy_ns(&spans, "doc"), 40 + 5);
    }

    #[test]
    fn thread_cpu_time_advances_with_work_not_with_sleep() {
        let a = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        let b = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let c = thread_cpu_ns();
        assert!(b > a && x > 0);
        assert!(c - b < 20_000_000, "a 50 ms sleep cost {} ns of CPU", c - b);
    }

    #[test]
    fn timed_relatedness_counts_calls_and_passes_values_through() {
        struct Const;
        impl Relatedness for Const {
            fn name(&self) -> &'static str {
                "const"
            }
            fn relatedness(&self, _: EntityId, _: EntityId) -> f64 {
                0.25
            }
        }
        let timed = TimedRelatedness::new(Const);
        assert_eq!(timed.relatedness(EntityId(1), EntityId(2)), 0.25);
        assert_eq!(timed.relatedness(EntityId(2), EntityId(3)), 0.25);
        assert_eq!(timed.calls(), 2);
        assert_eq!(timed.name(), "const");
    }
    use ned_obs::Metrics;
    use ned_relatedness::CacheConfig;

    struct Sum;
    impl Relatedness for Sum {
        fn name(&self) -> &'static str {
            "sum"
        }
        fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
            f64::from(a.0 + b.0)
        }
    }

    #[test]
    fn cache_counters_are_conserved_under_eviction_and_races() {
        let cached = TimedRelatedness::new(CachedRelatedness::with_config(
            TimedRelatedness::new(Sum),
            &Metrics::new(),
            CacheConfig::bounded(64 * 96),
        ));
        std::thread::scope(|scope| {
            for t in 0..2u32 {
                let cached = &cached;
                scope.spawn(move || {
                    for i in 0..5_000u32 {
                        let (a, b) = ((i * 7 + t) % 300, (i * 13) % 200);
                        assert_eq!(
                            cached.relatedness(EntityId(a), EntityId(b)),
                            f64::from(a + b)
                        );
                    }
                });
            }
        });
        let stats = relatedness_stats(&cached);
        assert_eq!(stats.lookups, 10_000);
        assert!(stats.evictions > 0, "the cap forces evictions");
        assert_eq!(stats.conservation(), Ok(()));
        let mut report = Report::default();
        stats.record(&mut report);
        assert!(report.correct());
    }

    #[test]
    fn broken_books_are_reported() {
        let ok = RelatednessStats {
            lookups: 10,
            hits: 6,
            misses: 4,
            computes: 4,
            inserts: 3,
            admit_rejected: 1,
            ..Default::default()
        };
        assert_eq!(ok.conservation(), Ok(()));
        assert!(RelatednessStats { hits: 5, ..ok }.conservation().is_err());
        assert!(RelatednessStats { computes: 3, ..ok }
            .conservation()
            .is_err());
        assert!(RelatednessStats { inserts: 4, ..ok }
            .conservation()
            .is_err());
        assert_eq!(
            RelatednessStats { computes: 5, ..ok }.conservation(),
            Ok(()),
            "a racing duplicate compute"
        );
    }
}
