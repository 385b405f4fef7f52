//! Table 4.3 / Figure 4.2: disambiguation accuracy with each relatedness
//! measure as the AIDA coherence, on the three corpora (CoNLL-like,
//! WP-like, KORE50-like).

use ned_aida::{AidaConfig, Disambiguator};
use ned_eval::gold::GoldDoc;
use ned_eval::report::{pct, Table};
use ned_relatedness::{
    KeyphraseCosine, KeywordCosine, Kore, KoreLsh, MilneWitten, Relatedness, TwoStageConfig,
};

use crate::runner::Evaluation;
use crate::setup::{Env, Scale};

/// Inlink cutoff for the "link-poor micro accuracy" column (the thesis
/// reports ≤ 500 / ≤ 50 / ≤ 5 at Wikipedia scale).
const LINK_POOR_MAX_INLINKS: usize = 5;

/// Evaluates AIDA with a fixed relatedness measure.
fn eval_fixed<M: Relatedness + Sync>(env: &Env, measure: &M, docs: &[GoldDoc]) -> Evaluation {
    let aida = Disambiguator::new(env.frozen.clone(), measure, wp_safe_config(docs));
    crate::runner::run_method(&aida, docs)
}

/// The WP stress test disables the popularity prior (§4.6.1); detect it by
/// corpus shape is overkill — all three corpora run fine with the standard
/// full configuration, which is what we use.
fn wp_safe_config(_docs: &[GoldDoc]) -> AidaConfig {
    AidaConfig::full()
}

/// Micro accuracy restricted to mentions whose gold entity has at most
/// `max_inlinks` in-links.
fn link_poor_micro(env: &Env, eval: &Evaluation, max_inlinks: usize) -> f64 {
    let links = env.frozen.links();
    let mut correct = 0usize;
    let mut total = 0usize;
    for d in &eval.docs {
        for (g, p) in d.gold.iter().zip(&d.predicted) {
            let Some(gold) = g else { continue };
            if links.inlink_count(*gold) > max_inlinks {
                continue;
            }
            total += 1;
            if g == p {
                correct += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        correct as f64 / total as f64
    }
}

/// Runs the three-corpus comparison.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let kb = &env.frozen;
    let kwcs = KeywordCosine::new(kb);
    let kpcs = KeyphraseCosine::new(kb);
    let mw = MilneWitten::new(kb);
    let kore = Kore::new(kb);
    let lsh_g = KoreLsh::new(kb, TwoStageConfig::lsh_g());
    let lsh_f = KoreLsh::new(kb, TwoStageConfig::lsh_f());

    let corpora =
        [("CoNLL", env.conll(scale)), ("WP", env.wp(scale)), ("KORE50", env.kore50(scale))];

    for (cname, corpus) in &corpora {
        let docs = corpus.test();
        let mut table = Table::new(
            format!("Table 4.3 — NED accuracy on {cname}-like test split"),
            &["Measure", "MicA", "MacA", "MicA(link-poor)"],
        );
        let evals: Vec<(&str, Evaluation)> = vec![
            ("KWCS", eval_fixed(&env, &kwcs, docs)),
            ("KPCS", eval_fixed(&env, &kpcs, docs)),
            ("MW", eval_fixed(&env, &mw, docs)),
            ("KORE", eval_fixed(&env, &kore, docs)),
            ("KORE-LSH-G", eval_fixed(&env, &lsh_g, docs)),
            ("KORE-LSH-F", eval_fixed(&env, &lsh_f, docs)),
        ];
        for (name, eval) in &evals {
            table.add_row(vec![
                name.to_string(),
                pct(eval.micro(false)),
                pct(eval.macro_(false)),
                pct(link_poor_micro(&env, eval, LINK_POOR_MAX_INLINKS)),
            ]);
        }
        print!("{}", table.render());
    }
    println!("(link-poor = gold entities with ≤ {LINK_POOR_MAX_INLINKS} in-links)");
}
