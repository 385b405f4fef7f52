//! Figure 4.3: cumulative disambiguation accuracy over gold-entity in-link
//! counts (MW vs the KORE variants) on the KORE50-like corpus.
//!
//! The point of the figure: KORE dominates for link-poor entities, with the
//! gap narrowing as entities gain links.

use ned_aida::{AidaConfig, Disambiguator};
use ned_eval::report::{num, Table};
use ned_relatedness::{Kore, KoreLsh, MilneWitten, Relatedness, TwoStageConfig};

use crate::runner::{run_method, Evaluation};
use crate::setup::{Env, Scale};

/// Per-mention (gold inlink count, correct) pairs of an evaluation.
fn mention_points(env: &Env, eval: &Evaluation) -> Vec<(usize, bool)> {
    let links = env.frozen.links();
    let mut points = Vec::new();
    for d in &eval.docs {
        for (g, p) in d.gold.iter().zip(&d.predicted) {
            if let Some(gold) = g {
                points.push((links.inlink_count(*gold), g == p));
            }
        }
    }
    points
}

/// Cumulative accuracy at `max_links`: accuracy over all mentions whose
/// gold entity has at most that many in-links.
fn cumulative_accuracy(points: &[(usize, bool)], max_links: usize) -> Option<f64> {
    let selected: Vec<bool> =
        points.iter().filter(|&&(l, _)| l <= max_links).map(|&(_, c)| c).collect();
    if selected.is_empty() {
        return None;
    }
    Some(selected.iter().filter(|&&c| c).count() as f64 / selected.len() as f64)
}

/// Runs the figure.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let kb = &env.frozen;
    let corpus = env.kore50(scale);
    let docs = &corpus.docs; // the figure uses the full KORE50 set

    let mw = MilneWitten::new(kb);
    let kore = Kore::new(kb);
    let lsh_g = KoreLsh::new(kb, TwoStageConfig::lsh_g());

    let eval_of = |measure: &(dyn Relatedness + Sync)| {
        let aida = Disambiguator::new(kb, measure, AidaConfig::full());
        run_method(&aida, docs)
    };
    let mw_points = mention_points(&env, &eval_of(&mw));
    let kore_points = mention_points(&env, &eval_of(&kore));
    let lsh_points = mention_points(&env, &eval_of(&lsh_g));

    let max_inlinks = mw_points.iter().map(|&(l, _)| l).max().unwrap_or(0);
    let cutoffs: Vec<usize> =
        [1usize, 2, 3, 5, 8, 12, 20, 35, 60, 100, 200].into_iter().filter(|&c| c <= max_inlinks.max(1)).collect();

    let mut table = Table::new(
        "Figure 4.3 — cumulative accuracy over gold-entity in-link count (KORE50-like)",
        &["≤ in-links", "#mentions", "MW", "KORE", "KORE-LSH-G"],
    );
    for &cutoff in &cutoffs {
        let n = mw_points.iter().filter(|&&(l, _)| l <= cutoff).count();
        let fmt = |points: &[(usize, bool)]| {
            cumulative_accuracy(points, cutoff).map_or("-".to_string(), |a| num(a, 3))
        };
        table.add_row(vec![
            cutoff.to_string(),
            n.to_string(),
            fmt(&mw_points),
            fmt(&kore_points),
            fmt(&lsh_points),
        ]);
    }
    print!("{}", table.render());
}
