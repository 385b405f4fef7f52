//! Table 4.2: Spearman correlation of relatedness measures with the
//! (simulated crowdsourced) gold ranking, per domain, overall, and for
//! link-poor seeds.

use ned_eval::report::{num, Table};
use ned_eval::spearman::spearman;
use ned_relatedness::{
    InlinkJaccard, KeyphraseCosine, KeywordCosine, Kore, KoreLsh, MilneWitten, Relatedness,
    TwoStageConfig,
};
use ned_wikigen::relbench::{generate_gold, RelatednessGold, RelbenchConfig, SeedEntry};

use crate::setup::{Env, Scale};

/// The "link-poor" bucket holds the seeds at or below the median in-link
/// count of all seeds (the thesis used a fixed ≤ 500 at Wikipedia scale;
/// the median adapts to the world's link density).
fn link_poor_threshold(env: &Env, gold: &RelatednessGold) -> usize {
    let mut counts: Vec<usize> = gold
        .seeds
        .iter()
        .filter_map(|e| env.exported.label_of(e.seed))
        .map(|id| env.frozen.links().inlink_count(id))
        .collect();
    counts.sort_unstable();
    counts.get(counts.len() / 2).copied().unwrap_or(0)
}

/// Scores one seed entry under a measure and returns the Spearman
/// correlation against the gold ranking.
fn score_seed<M: Relatedness>(env: &Env, measure: &M, entry: &SeedEntry) -> Option<f64> {
    let seed_id = env.exported.label_of(entry.seed)?;
    let scores: Vec<f64> = entry
        .candidates
        .iter()
        .map(|&c| {
            env.exported
                .label_of(c)
                .map_or(0.0, |id| measure.relatedness(seed_id, id))
        })
        .collect();
    Some(spearman(&scores, &entry.gold_scores))
}

/// A boxed per-seed scorer.
type SeedScorer<'a> = Box<dyn Fn(&SeedEntry) -> Option<f64> + 'a>;

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Runs the relatedness quality comparison.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let gold: RelatednessGold =
        generate_gold(&env.world, &env.exported, 11, &RelbenchConfig::default());
    eprintln!("gold standard: {} seeds", gold.seeds.len());

    let kb = &*env.frozen;
    let kwcs = KeywordCosine::new(kb);
    let kpcs = KeyphraseCosine::new(kb);
    let mw = MilneWitten::new(kb);
    let jaccard = InlinkJaccard::new(kb);
    let kore = Kore::new(kb);
    let lsh_g = KoreLsh::new(kb, TwoStageConfig::lsh_g());
    let lsh_f = KoreLsh::new(kb, TwoStageConfig::lsh_f());
    let link_poor_max = link_poor_threshold(&env, &gold);

    let measures: Vec<(&str, SeedScorer<'_>)> = vec![
        ("KWCS", Box::new(|e: &SeedEntry| score_seed(&env, &kwcs, e))),
        ("KPCS", Box::new(|e: &SeedEntry| score_seed(&env, &kpcs, e))),
        ("MW", Box::new(|e: &SeedEntry| score_seed(&env, &mw, e))),
        ("Jaccard", Box::new(|e: &SeedEntry| score_seed(&env, &jaccard, e))),
        ("KORE", Box::new(|e: &SeedEntry| score_seed(&env, &kore, e))),
        ("KORE-LSH-G", Box::new(|e: &SeedEntry| score_seed(&env, &lsh_g, e))),
        ("KORE-LSH-F", Box::new(|e: &SeedEntry| score_seed(&env, &lsh_f, e))),
    ];

    let n_domains = env.world.config.n_topics;
    let mut header: Vec<String> = vec!["Measure".into()];
    header.extend((0..n_domains).map(|d| format!("dom{d}")));
    header.push("avg(link-poor)".into());
    header.push("avg(all)".into());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(
        "Table 4.2 — Spearman correlation with the gold relatedness ranking",
        &header_refs,
    );

    for (name, score) in &measures {
        let mut by_domain: Vec<Vec<f64>> = vec![Vec::new(); n_domains];
        let mut link_poor = Vec::new();
        let mut all = Vec::new();
        for entry in &gold.seeds {
            let Some(rho) = score(entry) else { continue };
            by_domain[entry.domain].push(rho);
            all.push(rho);
            let Some(seed_id) = env.exported.label_of(entry.seed) else { continue };
            if kb.links().inlink_count(seed_id) <= link_poor_max {
                link_poor.push(rho);
            }
        }
        let mut row = vec![name.to_string()];
        row.extend(by_domain.iter().map(|v| num(mean(v), 3)));
        row.push(num(mean(&link_poor), 3));
        row.push(num(mean(&all), 3));
        table.add_row(row);
    }
    print!("{}", table.render());
    println!(
        "(link-poor = seed entities with ≤ {link_poor_max} in-links, the seed median; \
         the thesis used ≤ 500 at Wikipedia scale)"
    );
}
