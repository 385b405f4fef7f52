//! Figure 5.4: EE discovery precision/recall over the number of days used
//! to harvest the placeholder models, with and without keyphrase
//! enrichment of the existing entities (§5.7.2).

use ned_aida::{AidaConfig, Disambiguator};
use ned_eval::ee_measures::ee_averages;
use ned_eval::gold::{GoldDoc, Label};
use ned_eval::report::{num, Table};
use ned_emerging::confidence::{ConfAssessor, ConfidenceMethod};
use ned_emerging::discover::{EeConfig, EeDiscovery};
use ned_emerging::ee_model::{EeModelConfig, NameModels};
use ned_emerging::enrich::{enrich_kb, harvest_confident};
use ned_kb::KbView;
use ned_relatedness::MilneWitten;

use crate::runner::{run_per_doc, DocOutcome};
use crate::setup::{Env, Scale};

/// EE gamma for the sweep (a mid-grid value; the day count is the variable
/// under study).
const GAMMA: f64 = 0.5;

fn ee_metrics<K: KbView + ?Sized>(
    kb: &K,
    models: &NameModels,
    test_docs: &[GoldDoc],
) -> (f64, f64) {
    let aida = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::sim_only());
    let eval = run_per_doc(test_docs, |doc| {
        let config = EeConfig {
            gamma: GAMMA,
            assessor: ConfAssessor::new(ConfidenceMethod::Normalized),
            ..EeConfig::default()
        };
        let discovery = EeDiscovery::new(&aida, models, config);
        let (labels, _) = discovery.discover(&doc.tokens, &doc.bare_mentions());
        DocOutcome::ok(doc.gold_labels(), labels, vec![0.0; doc.mentions.len()])
    });
    let pairs: Vec<(&[Label], &[Label])> =
        eval.docs.iter().map(|d| (d.gold.as_slice(), d.predicted.as_slice())).collect();
    let ee = ee_averages(pairs.iter().copied());
    (ee.precision, ee.recall)
}

/// Runs the day sweep.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let stream = env.news(scale);
    let eval_day = stream.n_days - 1;
    let test_docs: Vec<GoldDoc> = crate::table5_3::drop_trivial_mentions(
        &env.frozen,
        &stream.day(eval_day).cloned().collect::<Vec<_>>(),
    );
    let max_days = eval_day.min(6);

    let mut table = Table::new(
        "Figure 5.4 — EE discovery over harvest-window size (days)",
        &["days", "EE Prec", "EE Rec", "EE Prec (enriched)", "EE Rec (enriched)"],
    );

    for days in 1..=max_days {
        let from = eval_day - days;
        let window: Vec<&GoldDoc> =
            stream.docs.iter().filter(|d| d.day >= from && d.day < eval_day).collect();

        // Plain: models against the original KB.
        let models =
            NameModels::build(&env.frozen, &window, 2, &EeModelConfig::default());
        let (p, r) = ee_metrics(&env.frozen, &models, &test_docs);

        // Enriched: first harvest high-confidence keyphrases for existing
        // entities from the same window, add them through an overlay, then
        // build models against the enriched KB (which subtracts more, keeping the EE
        // models crisp and the existing entities competitive).
        let aida = Disambiguator::new(
            env.frozen.clone(),
            MilneWitten::new(env.frozen.clone()),
            AidaConfig::r_prior_sim(),
        );
        let assessor = ConfAssessor::new(ConfidenceMethod::Normalized);
        let report = harvest_confident(&aida, &assessor, &window, 0.95);
        let enriched = enrich_kb(env.frozen.clone(), &report)
            .unwrap_or_else(|e| panic!("enrichment mutations apply: {e}"));
        let models_e = NameModels::build(&enriched, &window, 2, &EeModelConfig::default());
        let (pe, re) = ee_metrics(&enriched, &models_e, &test_docs);

        table.add_row(vec![
            days.to_string(),
            num(p, 4),
            num(r, 4),
            num(pe, 4),
            num(re, 4),
        ]);
    }
    print!("{}", table.render());
}
