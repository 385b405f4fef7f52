//! End-to-end and per-layer benchmark of the NED stack.
//!
//! ```text
//! perfbench gen --workload <w> --seed <n> --dir <inputs>
//! perfbench run --workload <w> --seed <n> --dir <inputs> --seconds <s> --trace <0|1>
//!               [--revision <id>] [--out <report dir>]
//! ```
//!
//! `gen` writes the seeded inputs; `run` loads them, sets up the program
//! from snapshot bytes, measures for `--seconds`, checks every output and
//! prints one JSON result object as the last line of standard output: the
//! end-to-end metrics untraced (`--trace 0`), the per-layer metrics from a
//! traced run (`--trace 1`). `perfbench/run.py` drives both steps; see
//! `perfbench/README.md` for the workloads and metrics.

mod batch;
mod inputs;
mod report;
mod serve;
mod stats;
mod stream;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::Report;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `batch-conll`: offline full AIDA over CoNLL-like articles.
    Batch,
    /// `serve-mixed`: open-loop raw-text requests into `ned_serve::Service`.
    Serve,
    /// `stream-news`: the Chapter-5 news stream with live KB promotion.
    Stream,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "batch-conll" => Some(Workload::Batch),
            "serve-mixed" => Some(Workload::Serve),
            "stream-news" => Some(Workload::Stream),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch-conll",
            Workload::Serve => "serve-mixed",
            Workload::Stream => "stream-news",
        }
    }
}

/// End-to-end metrics `(name, unit)`, as in `BENCHMARK.json`; every
/// workload measures each of them. The detailed report adds `doc_p99_ms`,
/// `max_rate_rps`, `goodput_rps` and, per workload, the figures only it has.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("docs_per_s", "docs/s"),
    ("doc_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("micro_accuracy", "share"),
];

/// Per-layer metrics `(name, unit)` of the traced run, as in
/// `BENCHMARK.json`. A workload that does not exercise a layer reports its
/// metrics as 0. `serve-mixed` adds its `ned-text`, `ned-serve` and load
/// generator metrics in the detailed report.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ned-kb.snapshot_read_ms", "ms"),
    ("ned-kb.total_bytes", "bytes"),
    ("ned-kb.transient_index_bytes", "bytes"),
    ("ned-kb.wal_append_us", "us"),
    ("ned-kb.wal_records", "count"),
    ("ned-kb.delta_build_ms", "ms"),
    ("ned-kb.epoch_swap_us", "us"),
    ("ned-kb.delta_entities", "count"),
    ("ned-kb.publish_p50_ms", "ms"),
    ("ned-aida.features_us", "us"),
    ("ned-aida.candidates_per_mention", "count"),
    ("ned-aida.similarity_evaluations", "count"),
    ("ned-aida.graph_us", "us"),
    ("ned-aida.solver_us", "us"),
    ("ned-aida.rest_us", "us"),
    ("ned-aida.coherence_edges", "count"),
    ("ned-aida.solver_iterations", "count"),
    ("ned-aida.allocs_per_doc", "count"),
    ("ned-relatedness.lookups", "count"),
    ("ned-relatedness.hit_rate", "share"),
    ("ned-relatedness.lookup_ns", "ns"),
    ("ned-relatedness.compute_ns", "ns"),
    ("ned-relatedness.evictions", "count"),
    ("ned-relatedness.admit_rejected", "count"),
    ("ned-relatedness.bytes_peak", "bytes"),
    ("ned-emerging.models_build_ms", "ms"),
    ("ned-emerging.discover_us", "us"),
    ("ned-emerging.drain_ms", "ms"),
    ("ned-emerging.promotions", "count"),
    ("ned-emerging.ee_linked_accuracy", "share"),
    ("ned-obs.trace_overhead", "ratio"),
];

/// How one `run` invocation was asked to measure.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Directory holding the generated inputs (and scratch files).
    pub dir: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Where to write the detailed report and the spans, if anywhere.
    pub out: Option<PathBuf>,
}

/// The seed whose outputs are pinned (the `--seed` default of `run.py`).
pub const DEFAULT_SEED: u64 = 1;

/// Latency limit in ms: the serve requests' deadline, and the per-document
/// time a document must meet to count towards `goodput_rps` everywhere.
pub const LIMIT_MS: u64 = 50;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Runs `setup` [`SETUP_REPS`] times; returns the median wall time in
/// seconds and the last result.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        let value = setup()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    let value = last.ok_or("no set-up ran")?;
    Ok((stats::median(&times), value))
}

/// Returns the freed memory of every malloc arena to the operating system.
/// Called between passes, so a pass's freed heap does not stay resident in
/// whichever per-thread arena the next pass's threads happen to get, and
/// the peak RSS is that of the largest pass rather than of arena luck.
pub fn release_freed_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes a byte count and only hands free pages
    // of the allocator's own heaps back to the kernel; no Rust value is
    // touched.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: PathBuf,
    out: Option<PathBuf>,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or("missing command (gen | run)")?;
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    let (mut dir, mut out, mut revision) = (None, None, "unknown".to_string());
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => trace = value == "1",
            "--dir" => dir = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            "--revision" => revision = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("missing --workload")?,
        seed,
        seconds: seconds.max(1),
        trace,
        dir: dir.ok_or("missing --dir")?,
        out,
        revision,
    })
}

fn run(args: &Args) -> Result<String, String> {
    let ctx = RunCtx {
        dir: args.dir.clone(),
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        out: args.out.clone(),
    };
    let mut report = Report::default();
    report.info_str("workload", args.workload.name());
    report.info("seed", args.seed);
    report.info("seconds", args.seconds);
    report.info("trace", args.trace);
    report.info_str("revision", &args.revision);
    report.info_str(
        "build_profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    report.info(
        "available_parallelism",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    match args.workload {
        Workload::Batch => batch::run(&ctx, &mut report)?,
        Workload::Serve => serve::run(&ctx, &mut report)?,
        Workload::Stream => stream::run(&ctx, &mut report)?,
    }
    report.metric("peak_rss_mb", peak_rss_mb()?, "MB");
    if let Some(out) = &args.out {
        write_report(out, args, &report)?;
    }
    eprint!("{}", report.summary());
    if args.trace {
        report.result_line(PER_LAYER, false)
    } else {
        report.result_line(END_TO_END, true)
    }
}

fn write_report(out: &Path, args: &Args, report: &Report) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let path = out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, report.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Where a traced run writes its spans.
pub fn spans_path(ctx: &RunCtx, workload: Workload) -> Option<PathBuf> {
    let out = ctx.out.as_ref()?;
    std::fs::create_dir_all(out).ok()?;
    Some(out.join(format!("{}-seed{}.spans.jsonl", workload.name(), ctx.seed)))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "gen" => inputs::generate(args.workload, args.seed, &args.dir).map(|()| None),
        "run" => run(&args).map(Some),
        other => Err(format!("unknown command {other}")),
    });
    match result {
        Ok(Some(line)) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists the binary prints must be exactly those
    /// `BENCHMARK.json` declares, in order, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let body = json.split(&format!("\"{section}\"")).nth(1).expect(section);
            let body = &body[..body.find(']').expect("closing bracket")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let rest = entry.split(&format!("\"{key}\": \"")).nth(1).expect(key);
                        rest[..rest.find('"').expect("closing quote")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(END_TO_END));
        assert_eq!(declared("per_layer"), owned(PER_LAYER));
    }
}
