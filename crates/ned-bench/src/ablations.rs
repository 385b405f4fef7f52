//! Ablations beyond the paper's tables: sensitivity of the design choices
//! DESIGN.md calls out — the robustness thresholds ρ and λ, the graph
//! pre-pruning factor, and the LSH banding configuration.

use ned_aida::{AidaConfig, Disambiguator};
use ned_eval::report::{num, pct, Table};
use ned_relatedness::lsh::Banding;
use ned_relatedness::pair_selection::off_diagonal_pairs;
use ned_relatedness::{KoreLsh, MilneWitten, TwoStageConfig};

use crate::runner::run_method;
use crate::setup::{Env, Scale};

/// Runs all ablations.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let kb = &env.frozen;
    let corpus = env.conll(scale);
    let docs = corpus.test();

    // ρ sweep (§3.5.1): the paper reports accuracy changes within 1% for λ
    // in [0.5, 1.3]; we verify the same flatness.
    let mut rho = Table::new("Ablation — prior threshold ρ", &["rho", "MicA"]);
    for r in [0.5, 0.7, 0.8, 0.9, 0.95, 1.0] {
        let config = AidaConfig { prior_threshold: r, ..AidaConfig::full() };
        let aida = Disambiguator::new(kb, MilneWitten::new(kb), config);
        rho.add_row(vec![num(r, 2), pct(run_method(&aida, docs).micro(false))]);
    }
    print!("{}", rho.render());

    // λ sweep (§3.5.2).
    let mut lambda = Table::new("Ablation — coherence threshold λ", &["lambda", "MicA"]);
    for l in [0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 2.0] {
        let config = AidaConfig { coherence_threshold: l, ..AidaConfig::full() };
        let aida = Disambiguator::new(kb, MilneWitten::new(kb), config);
        lambda.add_row(vec![num(l, 2), pct(run_method(&aida, docs).micro(false))]);
    }
    print!("{}", lambda.render());

    // Graph pre-pruning factor (§3.4.2: 5 × #mentions found best).
    let mut factor = Table::new("Ablation — graph size factor", &["factor", "MicA"]);
    for f in [1usize, 2, 5, 10, 50] {
        let config = AidaConfig { graph_size_factor: f, ..AidaConfig::full() };
        let aida = Disambiguator::new(kb, MilneWitten::new(kb), config);
        factor.add_row(vec![f.to_string(), pct(run_method(&aida, docs).micro(false))]);
    }
    print!("{}", factor.render());

    // LSH banding sweep: surviving pair fraction over band/row settings.
    let sample: Vec<_> = kb.entity_ids().take(300).collect();
    let all_pairs = sample.len() * (sample.len() - 1) / 2;
    let mut lsh = Table::new(
        "Ablation — LSH banding (surviving pair fraction over a 300-entity scope)",
        &["bands", "rows", "surviving", "fraction"],
    );
    for (bands, rows) in [(50, 1), (200, 1), (500, 2), (1000, 2), (500, 3)] {
        let config = TwoStageConfig {
            entity_banding: Banding { bands, rows },
            ..TwoStageConfig::lsh_g()
        };
        let surviving = off_diagonal_pairs(&KoreLsh::new(kb, config), &sample).len();
        lsh.add_row(vec![
            bands.to_string(),
            rows.to_string(),
            surviving.to_string(),
            num(surviving as f64 / all_pairs as f64, 4),
        ]);
    }
    print!("{}", lsh.render());
}
