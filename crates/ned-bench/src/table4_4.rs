//! Table 4.4 / Figures 4.4–4.5: efficiency of the relatedness measures —
//! comparisons performed and wall-clock time per document over the
//! CoNLL-like corpus.
//!
//! For each document, the candidate entity set is assembled and the
//! coherence pairs (§4.6.4) are computed with each measure: MW and exact
//! KORE compute all pairs; the LSH variants compute only the pairs that
//! share a stage-2 bucket key, the off-diagonal pairs their
//! `nonzero_pairs` join lists (plus the cost of the join itself).

use std::time::Instant;

use ned_eval::report::{num, Table};
use ned_kb::{EntityId, FrozenKb};
use ned_relatedness::pair_selection::{coherence_pairs, off_diagonal_pairs};
use ned_relatedness::{Kore, KoreLsh, MilneWitten, Relatedness, TwoStageConfig};

use crate::setup::{Env, Scale};

/// Per-document measurement.
#[derive(Debug, Clone, Copy)]
struct DocCost {
    comparisons: usize,
    seconds: f64,
    entities: usize,
}

#[derive(Debug, Clone, Copy)]
struct Summary {
    mean_cmp: f64,
    std_cmp: f64,
    q90_cmp: f64,
    mean_s: f64,
    std_s: f64,
    q90_s: f64,
}

fn summarize(costs: &[DocCost]) -> Summary {
    let cmp: Vec<f64> = costs.iter().map(|c| c.comparisons as f64).collect();
    let secs: Vec<f64> = costs.iter().map(|c| c.seconds).collect();
    let stats = |v: &[f64]| -> (f64, f64, f64) {
        let n = v.len().max(1) as f64;
        let mean = v.iter().sum::<f64>() / n;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let mut sorted = v.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let q90 = if sorted.is_empty() {
            0.0
        } else {
            sorted[((sorted.len() as f64 * 0.9) as usize).min(sorted.len() - 1)]
        };
        (mean, var.sqrt(), q90)
    };
    let (mean_cmp, std_cmp, q90_cmp) = stats(&cmp);
    let (mean_s, std_s, q90_s) = stats(&secs);
    Summary { mean_cmp, std_cmp, q90_cmp, mean_s, std_s, q90_s }
}

/// Runs the timing experiment.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let kb = &*env.frozen;
    let corpus = env.conll(scale);
    let docs = &corpus.docs;

    // Candidate entity lists per document.
    let doc_candidates: Vec<Vec<Vec<EntityId>>> = docs
        .iter()
        .map(|d| {
            d.mentions
                .iter()
                .map(|m| {
                    kb.candidates(&m.mention.surface).iter().map(|c| c.entity).collect()
                })
                .collect()
        })
        .collect();

    let mw = MilneWitten::new(kb);
    let kore = Kore::new(kb);
    let lsh_g = KoreLsh::new(kb, TwoStageConfig::lsh_g());
    let lsh_f = KoreLsh::new(kb, TwoStageConfig::lsh_f());

    let exact_cost = |measure: &dyn Relatedness| -> Vec<DocCost> {
        doc_candidates
            .iter()
            .map(|cands| {
                let pairs = coherence_pairs(cands);
                let entities: usize =
                    cands.iter().flatten().collect::<std::collections::HashSet<_>>().len();
                let start = Instant::now();
                let mut acc = 0.0;
                for &(a, b) in &pairs {
                    acc += measure.relatedness(a, b);
                }
                std::hint::black_box(acc);
                DocCost {
                    comparisons: pairs.len(),
                    seconds: start.elapsed().as_secs_f64(),
                    entities,
                }
            })
            .collect()
    };

    let lsh_cost = |lsh: &KoreLsh| -> Vec<DocCost> {
        doc_candidates
            .iter()
            .map(|cands| {
                let pairs = coherence_pairs(cands);
                let mut scope: Vec<EntityId> = cands.iter().flatten().copied().collect();
                scope.sort_unstable();
                scope.dedup();
                let start = Instant::now();
                let mut acc = 0.0;
                let mut computed = 0usize;
                for (a, b) in off_diagonal_pairs(lsh, &scope) {
                    if pairs.binary_search(&(a, b)).is_ok() {
                        acc += lsh.relatedness(a, b);
                        computed += 1;
                    }
                }
                std::hint::black_box(acc);
                DocCost {
                    comparisons: computed,
                    seconds: start.elapsed().as_secs_f64(),
                    entities: scope.len(),
                }
            })
            .collect()
    };

    let results: Vec<(&str, Vec<DocCost>)> = vec![
        ("MW", exact_cost(&mw)),
        ("KORE", exact_cost(&kore)),
        ("KORE-LSH-G", lsh_cost(&lsh_g)),
        ("KORE-LSH-F", lsh_cost(&lsh_f)),
    ];

    let mut table = Table::new(
        "Table 4.4 — relatedness computations per document",
        &["Method", "cmp mean", "cmp stddev", "cmp q90", "ms mean", "ms stddev", "ms q90"],
    );
    for (name, costs) in &results {
        let s = summarize(costs);
        table.add_row(vec![
            name.to_string(),
            num(s.mean_cmp, 0),
            num(s.std_cmp, 0),
            num(s.q90_cmp, 0),
            num(s.mean_s * 1e3, 3),
            num(s.std_s * 1e3, 3),
            num(s.q90_s * 1e3, 3),
        ]);
    }
    print!("{}", table.render());

    // Figures 4.4/4.5: time and comparison series over documents sorted by
    // candidate-entity count, reported as decile means.
    let mut order: Vec<usize> = (0..docs.len()).collect();
    order.sort_by_key(|&i| results[0].1[i].entities);
    let deciles = 10usize;
    let mut fig = Table::new(
        "Figures 4.4/4.5 — per-decile means over documents sorted by candidate count",
        &["decile", "entities", "MW ms", "KORE ms", "LSH-G ms", "LSH-F ms", "MW cmp", "LSH-F cmp"],
    );
    for d in 0..deciles {
        let from = d * order.len() / deciles;
        let to = ((d + 1) * order.len() / deciles).max(from + 1).min(order.len());
        if from >= to {
            continue;
        }
        let slice = &order[from..to];
        let mean_of = |costs: &[DocCost], f: &dyn Fn(&DocCost) -> f64| -> f64 {
            slice.iter().map(|&i| f(&costs[i])).sum::<f64>() / slice.len() as f64
        };
        fig.add_row(vec![
            format!("{}", d + 1),
            num(mean_of(&results[0].1, &|c| c.entities as f64), 0),
            num(mean_of(&results[0].1, &|c| c.seconds * 1e3), 3),
            num(mean_of(&results[1].1, &|c| c.seconds * 1e3), 3),
            num(mean_of(&results[2].1, &|c| c.seconds * 1e3), 3),
            num(mean_of(&results[3].1, &|c| c.seconds * 1e3), 3),
            num(mean_of(&results[0].1, &|c| c.comparisons as f64), 0),
            num(mean_of(&results[3].1, &|c| c.comparisons as f64), 0),
        ]);
    }
    print!("{}", fig.render());

    // The LSH pruning amortizes its key join only on large candidate
    // spaces with rich keyphrase profiles (the thesis averages ~900k
    // comparisons per document over entities carrying hundreds of
    // keyphrases; the CoNLL-like documents above have a few hundred pairs
    // over lightweight entities). This section reproduces the "need for
    // speed" regime of §4.4.1: a phrase-heavy world and growing entity
    // scopes.
    let heavy_world = ned_wikigen::World::generate(ned_wikigen::config::WorldConfig {
        entities_per_topic: 350,
        base_phrases: 60,
        max_extra_phrases: 240,
        topic_vocab: 500,
        ..ned_wikigen::config::WorldConfig::default()
    });
    let heavy = FrozenKb::freeze(&ned_wikigen::ExportedKb::build(&heavy_world).kb);
    let kb = &heavy;
    let kore = Kore::new(kb);
    let lsh_g = KoreLsh::new(kb, TwoStageConfig::lsh_g());
    let lsh_f = KoreLsh::new(kb, TwoStageConfig::lsh_f());
    let mut scaling = Table::new(
        "§4.4.1 scaling — all-pairs relatedness over growing entity scopes (phrase-heavy world)",
        &["entities", "pairs", "KORE ms", "LSH-G ms", "LSH-G cmp", "LSH-F ms", "LSH-F cmp"],
    );
    let n = kb.entity_count();
    for scope_size in [200usize, 500, 1000, 2000] {
        if scope_size > n {
            break;
        }
        let scope: Vec<EntityId> = kb.entity_ids().take(scope_size).collect();
        let pairs = scope.len() * (scope.len() - 1) / 2;
        // Exact KORE, all pairs.
        let start = Instant::now();
        let mut acc = 0.0;
        for (i, &a) in scope.iter().enumerate() {
            for &b in &scope[i + 1..] {
                acc += kore.relatedness(a, b);
            }
        }
        std::hint::black_box(acc);
        let exact_ms = start.elapsed().as_secs_f64() * 1e3;
        // LSH variants: the key join + exact only on surviving pairs.
        let timed = |lsh: &KoreLsh| -> (f64, usize) {
            let start = Instant::now();
            let mut acc = 0.0;
            let mut surviving = 0usize;
            for (a, b) in off_diagonal_pairs(lsh, &scope) {
                acc += lsh.relatedness(a, b);
                surviving += 1;
            }
            std::hint::black_box(acc);
            (start.elapsed().as_secs_f64() * 1e3, surviving)
        };
        let (g_ms, g_cmp) = timed(&lsh_g);
        let (f_ms, f_cmp) = timed(&lsh_f);
        scaling.add_row(vec![
            scope_size.to_string(),
            pairs.to_string(),
            num(exact_ms, 1),
            num(g_ms, 1),
            g_cmp.to_string(),
            num(f_ms, 1),
            f_cmp.to_string(),
        ]);
    }
    print!("{}", scaling.render());
}
