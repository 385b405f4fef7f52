//! Allocation-ratchet gate: compares the per-stage allocation figures of a
//! freshly produced `BENCH_throughput.json` (written by `experiments
//! bench_throughput`, whose binary installs the counting allocator) against
//! the shrink-only budgets in `alloc.toml` and exits non-zero on a
//! violation.
//!
//! Semantics mirror `lint.toml` (DESIGN.md §9):
//!
//! - **exceeded** — a stage's measured per-unit allocation events are above
//!   its budget: the hot path regressed; always fails.
//! - **absorb** — a measured stage with no budget line fails until a budget
//!   is written down (run `--write-budgets` and review the diff); nothing
//!   is absorbed silently.
//! - **stale** — with `--ratchet`, a budget more than twice the measured
//!   value (and above the `STALE_FLOOR` noise floor) fails: headroom that
//!   loose would hide a real regression, so the budget must shrink. The
//!   measured side is floored at `STALE_EPSILON` so a near-zero
//!   measurement (a stage pre-warmed by earlier bench stages) cannot mark
//!   every small hand-set budget stale. A budget annotated
//!   `# ned-alloc: pinned` (same line, or the comment block directly
//!   above) is exempt from the stale check entirely — reviewed cold-start
//!   headroom stays put — but still fails when *exceeded*.
//!
//! `--write-budgets` regenerates `alloc.toml` at `measured × 1.25`
//! headroom, but never *raises* an existing budget — the ratchet only
//! tightens; loosening is a hand edit that shows up in review. Pinned
//! budgets are carried through regeneration unchanged, marker included,
//! and so is the reviewed comment block directly above each budget line;
//! a budget whose stage is gone is dropped together with its block.
//!
//! Budgets are calibrated on the quick-scale CI run. Only single-threaded
//! stages are budgeted: multi-thread allocation counts depend on how the
//! scheduler splits doc chunks across workers (each worker grows its own
//! scratch arena), so they are reported in the JSON but not gated.
//!
//! Usage:
//!   alloc_check <BENCH_throughput.json> <alloc.toml> [--ratchet | --write-budgets]

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Budgets at or below this per-unit value are never stale: near-zero
/// stages (the whole point of the ratchet) would otherwise thrash between
/// "shrink it" and "0.0 forbids everything".
const STALE_FLOOR: f64 = 1.0;

/// Floor applied to the *measured* side of the stale comparison. A stage
/// that measures ~0 on CI only because earlier stages pre-warmed the
/// thread would otherwise flag any budget above `STALE_FLOOR` as stale —
/// the misfire the hand-edited `sim_batched_warmup = 1.00` entry
/// documented before this floor existed.
const STALE_EPSILON: f64 = 0.5;

/// The comment marker exempting a budget from the stale check.
const PIN_MARKER: &str = "ned-alloc: pinned";

/// Headroom factor applied by `--write-budgets` over the measured value,
/// absorbing run-to-run jitter (thread spawn bookkeeping, map resize
/// boundaries) without hiding a real regression.
const HEADROOM: f64 = 1.25;

/// Extracts `(stage, per_unit)` pairs from the `"stages"` array of the
/// bench report. Stage objects are one-per-line by construction (see
/// `bench_throughput::render_json`), so a line-oriented scan is sufficient.
/// Returns `None` when no well-formed stage line exists.
fn parse_stages(json: &str) -> Option<Vec<(String, f64)>> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(rest) = line.trim().strip_prefix("{\"stage\": \"") else {
            continue;
        };
        let (stage, rest) = rest.split_once('"')?;
        let per_unit = rest
            .split_once("\"per_unit\":")
            .and_then(|(_, v)| v.trim().trim_end_matches(['}', ',']).trim().parse::<f64>().ok())?;
        out.push((stage.to_string(), per_unit));
    }
    if out.is_empty() {
        None
    } else {
        Some(out)
    }
}

/// One parsed budget line.
#[derive(Debug, Clone, PartialEq)]
struct Budget {
    /// Allowed allocation events per unit of work.
    value: f64,
    /// `# ned-alloc: pinned` — reviewed headroom exempt from the stale
    /// check (but not from the exceeded check).
    pinned: bool,
    /// The comment block directly above the budget line (no blank line
    /// between), one `#` line per line of text, each ending in `\n`.
    comment: String,
}

/// Parses the `[budgets]` table of `alloc.toml`: lines of the form
/// `"stage" = 12.34`, optionally trailed by a comment. The comment block
/// directly above a budget line (no blank line between) belongs to that
/// budget. A `# ned-alloc: pinned` marker on the budget line, or anywhere
/// in its comment block, pins the budget. Returns `None` on any malformed
/// entry.
fn parse_budgets(toml: &str) -> Option<BTreeMap<String, Budget>> {
    let mut out = BTreeMap::new();
    let mut comment = String::new();
    for line in toml.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('[') {
            comment.clear();
            continue;
        }
        if line.starts_with('#') {
            comment.push_str(line);
            comment.push('\n');
            continue;
        }
        let (key, value) = line.split_once('=')?;
        let key = key.trim().trim_matches('"').to_string();
        let (value, trailing) = match value.split_once('#') {
            Some((v, c)) => (v, c),
            None => (value, ""),
        };
        let value: f64 = value.trim().parse().ok()?;
        let pinned = comment.contains(PIN_MARKER) || trailing.contains(PIN_MARKER);
        out.insert(key, Budget { value, pinned, comment: std::mem::take(&mut comment) });
    }
    Some(out)
}

/// Applies the ratchet rules; returns one message per violation.
fn check(
    stages: &[(String, f64)],
    budgets: &BTreeMap<String, Budget>,
    ratchet: bool,
) -> Vec<String> {
    let mut violations = Vec::new();
    for (stage, measured) in stages {
        match budgets.get(stage) {
            None => violations.push(format!(
                "stage {stage}: measured {measured:.4} allocs/unit but no budget in \
                 alloc.toml (new stage? run alloc_check --write-budgets and review)"
            )),
            Some(b) if *measured > b.value => violations.push(format!(
                "stage {stage}: exceeded — measured {measured:.4} allocs/unit over \
                 budget {budget:.4} (the hot path regressed, or the budget needs a \
                 reviewed hand edit)",
                budget = b.value,
            )),
            Some(b)
                if ratchet
                    && !b.pinned
                    && b.value > STALE_FLOOR
                    && b.value > 2.0 * measured.max(STALE_EPSILON) =>
            {
                violations.push(format!(
                    "stage {stage}: stale — budget {budget:.4} is more than twice the \
                     measured {measured:.4}; shrink it (alloc_check --write-budgets) or \
                     pin it (# ned-alloc: pinned)",
                    budget = b.value,
                ));
            }
            Some(_) => {}
        }
    }
    for stage in budgets.keys() {
        if !stages.iter().any(|(s, _)| s == stage) {
            violations.push(format!(
                "budget {stage}: no such stage in the bench report (renamed or removed? \
                 drop the budget line)"
            ));
        }
    }
    violations
}

/// Renders a fresh `alloc.toml`: `measured × HEADROOM`, capped at the old
/// budget when one exists (tighten-only), with a small positive floor so a
/// zero-allocation stage still has a budget the gate can enforce. Pinned
/// budgets pass through unchanged, marker included — regeneration must not
/// silently unpin reviewed headroom. Each measured stage keeps the comment
/// block of its old budget; the blocks of stages no longer measured go
/// with their budget lines.
fn render_budgets(stages: &[(String, f64)], old: &BTreeMap<String, Budget>) -> String {
    let mut out = String::from(
        "# Allocation ratchet — shrink-only per-stage budgets on allocation events\n\
         # per unit of work, measured by the counting allocator installed in the\n\
         # ned-bench harness (see ned_obs::alloc and DESIGN.md \u{a7}12).\n\
         #\n\
         # Checked in CI by `alloc_check BENCH_throughput.json alloc.toml --ratchet`\n\
         # against the quick-scale bench report. Semantics mirror lint.toml:\n\
         #   exceeded  measured > budget                          -> fail\n\
         #   absorb    measured stage without a budget line       -> fail (write it down)\n\
         #   stale     budget > 2 x max(measured, 0.5), budget > 1 -> fail under --ratchet\n\
         # A `# ned-alloc: pinned` marker on (or directly above) a budget line\n\
         # exempts it from the stale check only — reviewed cold-start headroom.\n\
         # Regenerate with `cargo run -p ned-bench --bin alloc_check --\n\
         #   BENCH_throughput.json alloc.toml --write-budgets` — regeneration never\n\
         # raises an existing budget; loosening is a reviewed hand edit.\n\
         \n\
         [budgets]\n",
    );
    let mut entries: BTreeMap<&str, Budget> = BTreeMap::new();
    for (stage, measured) in stages {
        let budget = match old.get(stage) {
            Some(b) if b.pinned => b.clone(),
            other => {
                let fresh = ((measured * HEADROOM * 100.0).ceil() / 100.0).max(0.01);
                Budget {
                    value: other.map_or(fresh, |b| fresh.min(b.value)),
                    pinned: false,
                    comment: other.map_or_else(String::new, |b| b.comment.clone()),
                }
            }
        };
        entries.insert(stage, budget);
    }
    for (stage, budget) in entries {
        out.push_str(&budget.comment);
        if budget.pinned && !budget.comment.contains(PIN_MARKER) {
            out.push_str(&format!("\"{stage}\" = {:.2} # {PIN_MARKER}\n", budget.value));
        } else {
            out.push_str(&format!("\"{stage}\" = {:.2}\n", budget.value));
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags: Vec<&str> =
        args.iter().filter(|a| a.starts_with("--")).map(|a| a.as_str()).collect();
    let paths: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(|a| a.as_str()).collect();
    let [bench_path, budget_path] = paths.as_slice() else {
        eprintln!("usage: alloc_check <BENCH_throughput.json> <alloc.toml> [--ratchet | --write-budgets]");
        return ExitCode::from(2);
    };
    let bench = match std::fs::read_to_string(bench_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {bench_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(stages) = parse_stages(&bench) else {
        eprintln!("{bench_path}: no well-formed \"stages\" entries (old bench format?)");
        return ExitCode::from(2);
    };
    let budgets = match std::fs::read_to_string(budget_path) {
        Ok(text) => match parse_budgets(&text) {
            Some(b) => b,
            None => {
                eprintln!("{budget_path}: malformed budget entry");
                return ExitCode::from(2);
            }
        },
        // A missing budget file is an empty baseline: every stage then
        // fails as unbudgeted until --write-budgets creates it.
        Err(_) => BTreeMap::new(),
    };

    if flags.contains(&"--write-budgets") {
        let rendered = render_budgets(&stages, &budgets);
        if let Err(e) = std::fs::write(budget_path, &rendered) {
            eprintln!("cannot write {budget_path}: {e}");
            return ExitCode::from(2);
        }
        println!("alloc_check: wrote {budget_path} ({} budget(s))", stages.len());
        return ExitCode::SUCCESS;
    }

    let violations = check(&stages, &budgets, flags.contains(&"--ratchet"));
    if violations.is_empty() {
        println!(
            "alloc_check: {} stage(s) within {} budget(s)",
            stages.len(),
            budgets.len()
        );
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("alloc_check: {} violation(s) against {budget_path}", violations.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
  "allocations": {
    "stages": [
      {"stage": "pipeline_1_thread", "alloc_events": 4000, "unit": "doc", "per_unit": 200.0000},
      {"stage": "sim_batched_steady", "alloc_events": 0, "unit": "mention", "per_unit": 0.0000}
    ],
    "steady_state_sim_allocs_per_mention": 0.0000
  }
}
"#;

    fn budgets(text: &str) -> BTreeMap<String, Budget> {
        parse_budgets(text).unwrap()
    }

    fn value_of(b: &BTreeMap<String, Budget>, key: &str) -> Option<f64> {
        b.get(key).map(|b| b.value)
    }

    #[test]
    fn parses_the_bench_report_stages() {
        let stages = parse_stages(REPORT).unwrap();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].0, "pipeline_1_thread");
        assert_eq!(stages[0].1, 200.0);
        assert_eq!(stages[1], ("sim_batched_steady".to_string(), 0.0));
    }

    #[test]
    fn rejects_reports_without_stages() {
        assert!(parse_stages("{\"runs\": []}").is_none());
    }

    #[test]
    fn parses_budget_tables_and_rejects_malformed_lines() {
        let b = budgets("# comment\n[budgets]\n\"a\" = 1.5\n\"b\" = 0.01\n");
        assert_eq!(value_of(&b, "a"), Some(1.5));
        assert_eq!(value_of(&b, "b"), Some(0.01));
        assert!(!b["a"].pinned && !b["b"].pinned);
        assert!(parse_budgets("\"a\" = not-a-number\n").is_none());
    }

    #[test]
    fn pin_markers_parse_from_trailing_and_preceding_comments() {
        let b = budgets(
            "[budgets]\n\
             \"inline\" = 2.0 # ned-alloc: pinned — reviewed headroom\n\
             # cold-start growth, see bench notes\n\
             # ned-alloc: pinned\n\
             \"above\" = 3.0\n\
             # an ordinary comment\n\
             \"plain\" = 4.0\n",
        );
        assert!(b["inline"].pinned);
        assert!(b["above"].pinned);
        assert!(!b["plain"].pinned);
    }

    #[test]
    fn blank_lines_detach_pin_markers() {
        let b = budgets("# ned-alloc: pinned\n\n\"a\" = 2.0\n");
        assert!(!b["a"].pinned, "a blank line ends the comment block");
    }

    #[test]
    fn in_budget_stages_pass() {
        let stages = parse_stages(REPORT).unwrap();
        let b = budgets("\"pipeline_1_thread\" = 250.0\n\"sim_batched_steady\" = 0.01\n");
        assert!(check(&stages, &b, true).is_empty());
    }

    /// The seeded violation: a regressed stage must trip the gate.
    #[test]
    fn seeded_exceeded_stage_fires_the_gate() {
        let stages = vec![
            ("pipeline_1_thread".to_string(), 300.0),
            ("sim_batched_steady".to_string(), 2.5),
        ];
        let b = budgets("\"pipeline_1_thread\" = 250.0\n\"sim_batched_steady\" = 0.01\n");
        let violations = check(&stages, &b, false);
        assert_eq!(violations.len(), 2);
        assert!(violations.iter().all(|v| v.contains("exceeded")), "{violations:?}");
    }

    #[test]
    fn unbudgeted_and_orphaned_stages_fail() {
        let stages = vec![("brand_new_stage".to_string(), 1.0)];
        let b = budgets("\"removed_stage\" = 5.0\n");
        let violations = check(&stages, &b, false);
        assert_eq!(violations.len(), 2);
        assert!(violations[0].contains("no budget"));
        assert!(violations[1].contains("no such stage"));
    }

    #[test]
    fn stale_budgets_fail_only_under_ratchet() {
        let stages = vec![("pipeline_1_thread".to_string(), 10.0)];
        let b = budgets("\"pipeline_1_thread\" = 100.0\n");
        assert!(check(&stages, &b, false).is_empty());
        let violations = check(&stages, &b, true);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("stale"));
    }

    #[test]
    fn near_zero_budgets_are_never_stale() {
        let stages = vec![("sim_batched_steady".to_string(), 0.0)];
        let b = budgets("\"sim_batched_steady\" = 0.01\n");
        assert!(check(&stages, &b, true).is_empty());
    }

    /// The seeded misfire: a stage measuring ~0 on CI (pre-warmed by
    /// earlier stages) with a small hand-set cold-start budget must not be
    /// stale — the epsilon floor keeps `2 × measured` from collapsing to 0.
    #[test]
    fn stale_epsilon_floors_near_zero_measurements() {
        let stages = vec![("sim_batched_warmup".to_string(), 0.0)];
        let b = budgets("\"sim_batched_warmup\" = 1.00\n");
        assert!(check(&stages, &b, true).is_empty(), "budget 1.0 vs 2×max(0, 0.5)");
        // Without the pin, noticeably more headroom is still stale.
        let loose = budgets("\"sim_batched_warmup\" = 1.01\n");
        let violations = check(&stages, &loose, true);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("stale"), "{violations:?}");
    }

    /// The seeded escape: a pinned budget is exempt from the stale check
    /// no matter how loose, but an exceeded pinned budget still fails.
    #[test]
    fn pinned_budgets_skip_stale_but_not_exceeded() {
        let stages = vec![("sim_batched_warmup".to_string(), 1.0)];
        let pinned = budgets("\"sim_batched_warmup\" = 50.0 # ned-alloc: pinned\n");
        assert!(check(&stages, &pinned, true).is_empty());
        let unpinned = budgets("\"sim_batched_warmup\" = 50.0\n");
        assert_eq!(check(&stages, &unpinned, true).len(), 1);
        let regressed = vec![("sim_batched_warmup".to_string(), 60.0)];
        let violations = check(&regressed, &pinned, true);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("exceeded"), "{violations:?}");
    }

    #[test]
    fn write_budgets_tightens_but_never_loosens() {
        let stages = vec![
            ("pipeline_1_thread".to_string(), 100.0),
            ("sim_batched_steady".to_string(), 0.0),
        ];
        // Old budgets: one too loose (shrinks to measured × 1.25), one
        // already tighter than measured × 1.25 (kept).
        let old = budgets("\"pipeline_1_thread\" = 400.0\n\"sim_batched_steady\" = 0.01\n");
        let rendered = render_budgets(&stages, &old);
        let fresh = budgets(&rendered);
        assert_eq!(value_of(&fresh, "pipeline_1_thread"), Some(125.0));
        assert_eq!(value_of(&fresh, "sim_batched_steady"), Some(0.01));
        // Round-trips through the parser, and the header documents the rules.
        assert!(rendered.contains("[budgets]"));
        assert!(rendered.contains("shrink-only"));
    }

    /// `alloc.toml` as it stood before the `sim_exhaustive` and
    /// `sim_indexed` stages were retired, reviewed rationale included.
    const ALLOC_TOML_WITH_RETIRED_STAGES: &str = "\
# Allocation ratchet — shrink-only per-stage budgets on allocation events
# per unit of work, measured by the counting allocator installed in the
# ned-bench harness (see ned_obs::alloc and DESIGN.md \u{a7}12).
#
# Checked in CI by `alloc_check BENCH_throughput.json alloc.toml --ratchet`
# against the quick-scale bench report. Semantics mirror lint.toml:
#   exceeded  measured > budget                          -> fail
#   absorb    measured stage without a budget line       -> fail (write it down)
#   stale     budget > 2 x max(measured, 0.5), budget > 1 -> fail under --ratchet
# A `# ned-alloc: pinned` marker on (or directly above) a budget line
# exempts it from the stale check only — reviewed cold-start headroom.
# Regenerate with `cargo run -p ned-bench --bin alloc_check --
#   BENCH_throughput.json alloc.toml --write-budgets` — regeneration never
# raises an existing budget; loosening is a reviewed hand edit.

[budgets]
\"pipeline_1_thread\" = 1012.38
\"sim_batched_steady\" = 0.01
# Warmup legitimately grows the arena to its high-water mark; it measures
# near zero today only because earlier bench stages pre-warm the thread, so
# it keeps cold-start headroom instead of the generated 0.01.
\"sim_batched_warmup\" = 1.00 # ned-alloc: pinned
\"sim_exhaustive\" = 41.15
\"sim_indexed\" = 0.51
";

    /// Regenerating after two stages retire keeps the reviewed rationale
    /// above the pinned warmup budget and drops only the retired lines.
    #[test]
    fn write_budgets_keeps_reviewed_comments() {
        let stages = vec![
            ("pipeline_1_thread".to_string(), 900.0),
            ("sim_batched_steady".to_string(), 0.0),
            ("sim_batched_warmup".to_string(), 0.0),
        ];
        let old = budgets(ALLOC_TOML_WITH_RETIRED_STAGES);
        let rendered = render_budgets(&stages, &old);
        let expected = ALLOC_TOML_WITH_RETIRED_STAGES
            .replace("\"sim_exhaustive\" = 41.15\n", "")
            .replace("\"sim_indexed\" = 0.51\n", "");
        assert_eq!(rendered, expected);
    }

    /// A retired stage's comment block goes with its budget line; the
    /// blocks of surviving stages stay, in stage order.
    #[test]
    fn retired_stages_drop_their_comment_blocks() {
        let old = budgets(
            "[budgets]\n\
             # why a is loose\n\
             \"a\" = 2.0\n\
             # why old existed\n\
             # ned-alloc: pinned\n\
             \"old\" = 9.0\n",
        );
        let stages = vec![("a".to_string(), 2.0), ("new".to_string(), 1.0)];
        let rendered = render_budgets(&stages, &old);
        assert!(rendered.contains("# why a is loose\n\"a\" = 2.00\n"), "{rendered}");
        assert!(rendered.contains("\n\"new\" = 1.25\n"), "{rendered}");
        assert!(!rendered.contains("why old existed"), "{rendered}");
        assert!(!rendered.contains("\"old\""), "{rendered}");
    }

    /// The checked-in `alloc.toml` is what regeneration writes when every
    /// stage measures its budget: no hand repair after `--write-budgets`.
    #[test]
    fn checked_in_budgets_are_a_regeneration_fixed_point() {
        let text = include_str!("../../../../alloc.toml");
        let old = budgets(text);
        let stages: Vec<(String, f64)> =
            old.iter().map(|(stage, b)| (stage.clone(), b.value)).collect();
        assert_eq!(render_budgets(&stages, &old), text);
    }

    #[test]
    fn write_budgets_carries_pinned_entries_through() {
        let stages = vec![("sim_batched_warmup".to_string(), 0.0)];
        let old = budgets("\"sim_batched_warmup\" = 1.00 # ned-alloc: pinned\n");
        let rendered = render_budgets(&stages, &old);
        let fresh = budgets(&rendered);
        assert_eq!(value_of(&fresh, "sim_batched_warmup"), Some(1.0), "not tightened to 0.01");
        assert!(fresh["sim_batched_warmup"].pinned, "marker survives: {rendered}");
    }
}
