//! Streaming incremental-KB benchmark: discover → promote → re-annotate.
//!
//! Drives the simulated news stream (Ch. 5 world) through the full
//! incremental-KB loop and writes every round to `BENCH_streaming.json`:
//!
//! 1. **Discover** — each stream day is annotated with NED-EE over the
//!    *currently published* KB epoch; mentions labeled out-of-KB feed the
//!    promotion tracker.
//! 2. **Promote** — surfaces meeting the support + confidence policy are
//!    promoted: their mutation sequences are appended to a real on-disk
//!    WAL and folded into a fresh [`DeltaKb`] overlay, published by an
//!    atomic [`KbHandle`] epoch swap (exactly what a serving deployment
//!    does between requests).
//! 3. **Re-annotate** — a fixed evaluation set (every stream document with
//!    a gold emerging mention) is re-annotated under the new epoch;
//!    *emerging-entity linked accuracy* is the fraction of gold-EE
//!    mentions now resolved to their promoted entity. It starts at 0 (no
//!    emerging entity exists in the KB) and must improve as promotions
//!    land — the headline claim of the incremental KB.
//!
//! The run also asserts the subsystem's integrity contracts in-bench:
//! replaying the WAL reproduces the accumulated mutation list exactly, and
//! compacting the final overlay yields a [`FrozenKb`] whose re-annotation
//! of the evaluation set is bit-identical to the overlay's. The whole
//! benchmark is pure computation over fixed seeds and is executed twice;
//! the two runs must serialize to byte-identical JSON
//! (`virtual_deterministic`), so CI pins the report with `git diff`. The
//! report's `fingerprint` (FNV-1a over every discovered label, in stream
//! order, then the WAL bytes) pins the discovery labels and the appended
//! mutations bit for bit, beyond the per-round aggregates.
//!
//! Before the report is written, `RunOutput::violations` checks the
//! stream's laws on the typed rounds, naming each one that breaks:
//! promotion consumes discovered evidence (cumulative promotions never
//! exceed cumulative discoveries); `promoted_total` and the epoch
//! `generation` never decrease, and `promoted_total >= promotions`;
//! `eval_linked <= eval_total`; and the EE linked accuracy lies in [0, 1],
//! never falls from one round to the next, and ends higher than it started
//! (the thesis' Chapter 5 claim).

use std::sync::Arc;

use ned_aida::{AidaConfig, Disambiguator, NedMethod};
use ned_emerging::confidence::{ConfAssessor, ConfidenceMethod};
use ned_emerging::discover::{EeConfig, EeDiscovery};
use ned_emerging::ee_model::{EeModelConfig, NameModels};
use ned_emerging::policy::{PromotionPolicy, PromotionTracker};
use ned_eval::gold::GoldDoc;
use ned_kb::{DeltaKb, FrozenKb, KbEpoch, KbHandle, KbMutation, KbView, Wal};
use ned_obs::{names, Metrics, MetricsSnapshot};
use ned_relatedness::MilneWitten;

use crate::setup::{Env, Scale};

/// EE gamma for discovery (mid-grid, as in fig5_4).
const GAMMA: f64 = 0.5;

/// Harvest window: name models are built from the last `WINDOW_DAYS` days
/// up to and including the current one.
const WINDOW_DAYS: u32 = 3;

/// One discover→promote→re-annotate round (one stream day).
#[derive(Debug, Clone, PartialEq)]
struct RoundRow {
    day: u32,
    docs: usize,
    gold_ee_mentions: usize,
    discovered_ee: usize,
    promotions: usize,
    promoted_total: usize,
    delta_entities: usize,
    generation: u64,
    eval_linked: usize,
    eval_total: usize,
    ee_linked_accuracy: f64,
}

/// Everything one full benchmark run produces (compared bitwise across the
/// two invocations).
#[derive(Debug, Clone, PartialEq)]
struct RunOutput {
    rows: Vec<RoundRow>,
    /// FNV-1a over every discovered label (entity id, `u32::MAX` for an
    /// emerging label), document by document, then over the WAL bytes.
    fingerprint: u64,
    wal_replay_consistent: bool,
    compaction_equivalent: bool,
    snapshot: MetricsSnapshot,
}

/// The FNV-1a offset basis: the fingerprint of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of `bytes`, continuing from the fingerprint `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

impl RunOutput {
    /// The stream's laws over this run: one message per broken law, naming
    /// the law and, for a per-round law, every round that breaks it.
    fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.wal_replay_consistent {
            out.push("WAL replay did not reproduce the accumulated mutations".to_string());
        }
        if !self.compaction_equivalent {
            out.push("the compacted KB annotated differently from the delta overlay".to_string());
        }
        let (mut discovered, mut promoted) = (0, 0);
        for r in &self.rows {
            let day = r.day;
            discovered += r.discovered_ee;
            promoted += r.promotions;
            if promoted > discovered {
                out.push(format!(
                    "day {day}: cumulative promotions ({promoted}) > cumulative discoveries \
                     ({discovered})"
                ));
            }
            if r.promoted_total < r.promotions {
                out.push(format!(
                    "day {day}: promoted_total ({}) < promotions ({})",
                    r.promoted_total, r.promotions
                ));
            }
            if r.eval_linked > r.eval_total {
                out.push(format!(
                    "day {day}: eval_linked ({}) > eval_total ({})",
                    r.eval_linked, r.eval_total
                ));
            }
            if !(0.0..=1.0).contains(&r.ee_linked_accuracy) {
                out.push(format!(
                    "day {day}: ee_linked_accuracy ({}) outside [0, 1]",
                    r.ee_linked_accuracy
                ));
            }
        }
        for w in self.rows.windows(2) {
            let (prev, r) = (&w[0], &w[1]);
            if r.promoted_total < prev.promoted_total {
                out.push(format!(
                    "day {}: promoted_total decreased ({} -> {})",
                    r.day, prev.promoted_total, r.promoted_total
                ));
            }
            if r.generation < prev.generation {
                out.push(format!(
                    "day {}: generation decreased ({} -> {})",
                    r.day, prev.generation, r.generation
                ));
            }
        }
        if !accuracy_monotone(&self.rows) {
            out.push("ee_linked_accuracy fell between rounds".to_string());
        }
        if !accuracy_improved(&self.rows) {
            out.push("ee_linked_accuracy did not end higher than it started".to_string());
        }
        out
    }
}

/// The EE linked accuracy never falls from one round to the next.
fn accuracy_monotone(rows: &[RoundRow]) -> bool {
    rows.windows(2).all(|w| w[1].ee_linked_accuracy >= w[0].ee_linked_accuracy)
}

/// The EE linked accuracy ends higher than it started: above the first
/// round's, or above zero when the first round already promoted (the stream
/// starts with no emerging entity in the KB, at accuracy 0).
fn accuracy_improved(rows: &[RoundRow]) -> bool {
    match (rows.first(), rows.last()) {
        (Some(first), Some(last)) => {
            last.ee_linked_accuracy > first.ee_linked_accuracy
                || (first.promotions > 0 && last.ee_linked_accuracy > 0.0)
        }
        _ => false,
    }
}

/// Annotates the evaluation set under `kb` and counts gold-EE mentions
/// resolved to the entity their surface was promoted as.
fn eval_linked<K: KbView + Clone>(
    kb: K,
    eval_docs: &[GoldDoc],
    tracker: &PromotionTracker,
) -> (usize, usize) {
    let aida = Disambiguator::new(kb.clone(), MilneWitten::new(kb.clone()), AidaConfig::sim_only());
    let mut linked = 0;
    let mut total = 0;
    for doc in eval_docs {
        let mentions = doc.bare_mentions();
        let result = aida.disambiguate(&doc.tokens, &mentions);
        for (labeled, assignment) in doc.mentions.iter().zip(&result.assignments) {
            if labeled.label.is_some() {
                continue; // in-KB mention; not part of the EE metric
            }
            total += 1;
            let Some(promoted_name) = tracker.promoted_as(&labeled.mention.surface) else {
                continue;
            };
            if let Some(entity) = assignment.entity {
                if kb.entity(entity).canonical_name == promoted_name {
                    linked += 1;
                }
            }
        }
    }
    (linked, total)
}

/// Disambiguates the evaluation set and returns the flat assignment list
/// (entity + score bits) — the payload compared for compaction
/// equivalence.
fn assignments_fingerprint<K: KbView + Clone>(
    kb: K,
    eval_docs: &[GoldDoc],
) -> Vec<(usize, Option<u32>, u64)> {
    let aida = Disambiguator::new(kb.clone(), MilneWitten::new(kb), AidaConfig::sim_only());
    let mut out = Vec::new();
    for (d, doc) in eval_docs.iter().enumerate() {
        let mentions = doc.bare_mentions();
        let result = aida.disambiguate(&doc.tokens, &mentions);
        for a in &result.assignments {
            out.push((d, a.entity.map(|e| e.0), a.score.to_bits()));
        }
    }
    out
}

/// One full benchmark run over the stream. Pure over its inputs plus the
/// WAL file at `wal_path` (created fresh; caller cleans up).
fn run_once(env: &Env, stream_docs: &[GoldDoc], n_days: u32, wal_path: &std::path::Path) -> RunOutput {
    let _ = std::fs::remove_file(wal_path);
    let metrics = Metrics::new();
    let (mut wal, _replay) = Wal::open_observed(wal_path, &metrics)
        .unwrap_or_else(|e| panic!("fresh WAL opens: {e}"));

    let handle = Arc::new(KbHandle::observed(
        KbEpoch::Frozen(Arc::clone(&env.frozen)),
        &metrics,
    ));
    let policy = PromotionPolicy::default();
    let mut tracker = PromotionTracker::new();
    let mut accumulated: Vec<KbMutation> = Vec::new();

    // Fixed evaluation set: every stream document containing a gold
    // emerging mention.
    let eval_docs: Vec<GoldDoc> =
        stream_docs.iter().filter(|d| d.out_of_kb_count() > 0).cloned().collect();

    let mut rows = Vec::new();
    let mut fingerprint = FNV_OFFSET;
    for day in 0..n_days {
        let day_docs: Vec<&GoldDoc> =
            stream_docs.iter().filter(|d| d.day == day).collect();
        let (_, epoch) = handle.current();

        // --- discover over the current epoch -----------------------------
        let from = day.saturating_sub(WINDOW_DAYS - 1);
        let window: Vec<&GoldDoc> =
            stream_docs.iter().filter(|d| d.day >= from && d.day <= day).collect();
        let models = NameModels::build(&epoch, &window, 2, &EeModelConfig::default());
        let aida =
            Disambiguator::new(&epoch, MilneWitten::new(&epoch), AidaConfig::sim_only());
        let config = EeConfig {
            gamma: GAMMA,
            assessor: ConfAssessor::new(ConfidenceMethod::Normalized),
            ..EeConfig::default()
        };
        let discovery = EeDiscovery::new(&aida, &models, config);
        let mut discovered_ee = 0;
        for doc in &day_docs {
            let mentions = doc.bare_mentions();
            let (labels, _) = discovery.discover(&doc.tokens, &mentions);
            for label in &labels {
                fingerprint = fnv1a(fingerprint, &label.map_or(u32::MAX, |e| e.0).to_le_bytes());
            }
            for (mention, label) in mentions.iter().zip(&labels) {
                if label.is_none() {
                    discovered_ee += 1;
                    // Discovery already thresholded by CONF; each EE label
                    // is one fully-confident support observation.
                    tracker.observe_ee(&mention.surface, 1.0);
                }
            }
        }

        // --- promote: WAL append + overlay rebuild + epoch swap ----------
        let promotions = tracker.drain_promotions(&policy, &models, &epoch, &metrics);
        for promotion in &promotions {
            for mutation in &promotion.mutations {
                wal.append(mutation).unwrap_or_else(|e| panic!("WAL append: {e}"));
                accumulated.push(mutation.clone());
            }
        }
        if !promotions.is_empty() {
            let delta = DeltaKb::build_observed(
                Arc::clone(&env.frozen),
                accumulated.clone(),
                &metrics,
            )
            .unwrap_or_else(|e| panic!("promotion mutations apply: {e}"));
            handle.swap(KbEpoch::Delta(Arc::new(delta)));
        }

        // --- re-annotate the fixed evaluation set under the new epoch ----
        let (_, epoch_now) = handle.current();
        let (eval_linked, eval_total) = eval_linked(&epoch_now, &eval_docs, &tracker);
        rows.push(RoundRow {
            day,
            docs: day_docs.len(),
            gold_ee_mentions: day_docs.iter().map(|d| d.out_of_kb_count()).sum(),
            discovered_ee,
            promotions: promotions.len(),
            promoted_total: tracker.promoted_count(),
            delta_entities: epoch_now.delta_entity_count(),
            generation: handle.generation(),
            eval_linked,
            eval_total,
            ee_linked_accuracy: if eval_total == 0 {
                0.0
            } else {
                eval_linked as f64 / eval_total as f64
            },
        });
    }

    // --- integrity: WAL replay reproduces the mutation list -------------
    let bytes = std::fs::read(wal_path).unwrap_or_else(|e| panic!("read WAL back: {e}"));
    let replay =
        ned_kb::wal::replay(&bytes).unwrap_or_else(|e| panic!("clean WAL replays: {e}"));
    let wal_replay_consistent = replay.mutations == accumulated;
    fingerprint = fnv1a(fingerprint, &bytes);

    // --- integrity: compaction is observationally equivalent -------------
    let (_, final_epoch) = handle.current();
    let compaction_equivalent = match final_epoch.as_ref() {
        KbEpoch::Frozen(_) => accumulated.is_empty(),
        KbEpoch::Delta(delta) => {
            let compacted: Arc<FrozenKb> = Arc::new(
                delta.compact().unwrap_or_else(|e| panic!("compaction succeeds: {e}")),
            );
            assignments_fingerprint(&final_epoch, &eval_docs)
                == assignments_fingerprint(&compacted, &eval_docs)
        }
    };

    RunOutput {
        rows,
        fingerprint,
        wal_replay_consistent,
        compaction_equivalent,
        snapshot: metrics.snapshot(),
    }
}

fn render_json(output: &RunOutput, virtual_deterministic: bool) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"virtual_deterministic\": {virtual_deterministic},\n"));
    out.push_str(&format!("  \"accuracy_monotone\": {},\n", accuracy_monotone(&output.rows)));
    out.push_str(&format!("  \"accuracy_improved\": {},\n", accuracy_improved(&output.rows)));
    out.push_str(&format!(
        "  \"wal_replay_consistent\": {},\n",
        output.wal_replay_consistent
    ));
    out.push_str(&format!(
        "  \"compaction_equivalent\": {},\n",
        output.compaction_equivalent
    ));
    out.push_str(&format!("  \"fingerprint\": \"{:#018x}\",\n", output.fingerprint));
    out.push_str("  \"rounds\": [\n");
    for (i, r) in output.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"day\": {}, \"docs\": {}, \"gold_ee_mentions\": {}, \"discovered_ee\": {}, \
             \"promotions\": {}, \"promoted_total\": {}, \"delta_entities\": {}, \
             \"generation\": {}, \"eval_linked\": {}, \"eval_total\": {}, \
             \"ee_linked_accuracy\": {:.6}}}{}\n",
            r.day,
            r.docs,
            r.gold_ee_mentions,
            r.discovered_ee,
            r.promotions,
            r.promoted_total,
            r.delta_entities,
            r.generation,
            r.eval_linked,
            r.eval_total,
            r.ee_linked_accuracy,
            if i + 1 < output.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"kb_metrics\": {\n");
    let kb_counters = [
        names::KB_WAL_RECORDS,
        names::KB_WAL_REPLAYS,
        names::KB_EPOCH_SWAPS,
        names::EE_PROMOTED,
    ];
    for name in kb_counters {
        out.push_str(&format!("    \"{name}\": {},\n", output.snapshot.counter(name)));
    }
    out.push_str(&format!(
        "    \"{}\": {}\n",
        names::KB_DELTA_ENTITIES,
        output.snapshot.gauge(names::KB_DELTA_ENTITIES)
    ));
    out.push_str("  }\n}\n");
    out
}

/// Runs the streaming incremental-KB benchmark.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let stream = env.news(scale);
    let tmp = std::env::temp_dir().join("ned-bench-streaming");
    std::fs::create_dir_all(&tmp).unwrap_or_else(|e| panic!("temp dir: {e}"));

    // The benchmark is pure computation over fixed seeds: two runs must
    // agree bitwise (the determinism contract for virtual-time runs).
    let path_a = tmp.join("wal-a.log");
    let path_b = tmp.join("wal-b.log");
    let first = run_once(&env, &stream.docs, stream.n_days, &path_a);
    let second = run_once(&env, &stream.docs, stream.n_days, &path_b);
    let virtual_deterministic = first == second;
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
    assert!(virtual_deterministic, "streaming runs diverged across invocations");
    let violations = first.violations();
    assert!(violations.is_empty(), "the stream breaks its laws: {violations:#?}");

    let mut table = ned_eval::report::Table::new(
        "Streaming — incremental KB over the news stream",
        &[
            "day", "docs", "gold EE", "discovered", "promoted", "total", "delta", "gen",
            "linked", "of", "EE linked acc",
        ],
    );
    for r in &first.rows {
        table.add_row(vec![
            r.day.to_string(),
            r.docs.to_string(),
            r.gold_ee_mentions.to_string(),
            r.discovered_ee.to_string(),
            r.promotions.to_string(),
            r.promoted_total.to_string(),
            r.delta_entities.to_string(),
            r.generation.to_string(),
            r.eval_linked.to_string(),
            r.eval_total.to_string(),
            format!("{:.4}", r.ee_linked_accuracy),
        ]);
    }
    print!("{}", table.render());
    println!("two runs bit-identical: {virtual_deterministic}");

    let json = render_json(&first, virtual_deterministic);
    let path = "BENCH_streaming.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_output() -> RunOutput {
        RunOutput {
            rows: vec![
                RoundRow {
                    day: 0,
                    docs: 10,
                    gold_ee_mentions: 5,
                    discovered_ee: 4,
                    promotions: 0,
                    promoted_total: 0,
                    delta_entities: 0,
                    generation: 0,
                    eval_linked: 0,
                    eval_total: 20,
                    ee_linked_accuracy: 0.0,
                },
                RoundRow {
                    day: 1,
                    docs: 10,
                    gold_ee_mentions: 6,
                    discovered_ee: 5,
                    promotions: 2,
                    promoted_total: 2,
                    delta_entities: 2,
                    generation: 1,
                    eval_linked: 8,
                    eval_total: 20,
                    ee_linked_accuracy: 0.4,
                },
            ],
            fingerprint: FNV_OFFSET,
            wal_replay_consistent: true,
            compaction_equivalent: true,
            snapshot: Metrics::new().snapshot(),
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = render_json(&sample_output(), true);
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"virtual_deterministic\": true"));
        assert!(json.contains("\"accuracy_monotone\": true"));
        assert!(json.contains("\"accuracy_improved\": true"));
        assert!(json.contains("\"ee_linked_accuracy\": 0.400000"));
        assert!(json.contains("\"kb_wal_records\": 0"));
        assert!(json.contains("\"fingerprint\": \"0xcbf29ce484222325\""));
        assert!(!json.contains(",\n  }"));
    }

    #[test]
    fn a_clean_run_keeps_every_law() {
        assert_eq!(sample_output().violations(), Vec::<String>::new());
    }

    #[test]
    fn the_evidence_law_reports_every_over_promoted_round() {
        // Round 0 promotes without evidence; round 1 adds none, so the
        // cumulative books are still short after it. Both are reported.
        let mut output = sample_output();
        output.rows[0] = RoundRow {
            discovered_ee: 0,
            promotions: 1,
            promoted_total: 1,
            generation: 1,
            eval_linked: 8,
            ee_linked_accuracy: 0.4,
            ..output.rows[0].clone()
        };
        output.rows[1] = RoundRow { day: 1, promotions: 0, ..output.rows[0].clone() };
        assert_eq!(
            output.violations(),
            vec![
                "day 0: cumulative promotions (1) > cumulative discoveries (0)".to_string(),
                "day 1: cumulative promotions (1) > cumulative discoveries (0)".to_string(),
            ]
        );
    }

    #[test]
    fn each_planted_violation_names_its_law() {
        type Plant = fn(&mut RunOutput);
        let cases: [(Plant, &str); 9] = [
            (|o| o.wal_replay_consistent = false, "WAL replay did not reproduce"),
            (|o| o.compaction_equivalent = false, "the compacted KB annotated differently"),
            (|o| o.rows[0].promoted_total = 3, "day 1: promoted_total decreased (3 -> 2)"),
            (|o| o.rows[0].generation = 2, "day 1: generation decreased (2 -> 1)"),
            (|o| o.rows[1].promotions = 3, "day 1: promoted_total (2) < promotions (3)"),
            (|o| o.rows[1].eval_linked = 21, "day 1: eval_linked (21) > eval_total (20)"),
            (
                |o| o.rows[1].ee_linked_accuracy = 1.5,
                "day 1: ee_linked_accuracy (1.5) outside [0, 1]",
            ),
            (
                |o| {
                    let fallen = RoundRow { day: 2, ee_linked_accuracy: 0.2, ..o.rows[1].clone() };
                    o.rows.push(fallen);
                },
                "ee_linked_accuracy fell between rounds",
            ),
            (
                |o| o.rows[1].ee_linked_accuracy = 0.0,
                "ee_linked_accuracy did not end higher than it started",
            ),
        ];
        for (plant, law) in cases {
            let mut output = sample_output();
            plant(&mut output);
            let violations = output.violations();
            assert!(
                violations.len() == 1 && violations[0].starts_with(law),
                "expected only `{law}`, got {violations:?}"
            );
        }
    }
}
