//! Table 5.1 / Figure 5.3: quality of the disambiguation-confidence
//! assessors — precision at confidence cutoffs and MAP of the induced
//! mention ranking.

use ned_aida::baselines::{LocalLinker, PriorOnly};
use ned_aida::{AidaConfig, Disambiguator};
use ned_eval::map::{interpolated_map, precision_at_confidence, pr_curve, RankedItem};
use ned_eval::report::{num, pct, Table};
use ned_emerging::confidence::{ConfAssessor, ConfidenceMethod};
use ned_relatedness::MilneWitten;

use crate::runner::run_per_doc;
use crate::setup::{Env, Scale};

/// Runs the confidence comparison on the CoNLL-like test split.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let kb = &env.frozen;
    let corpus = env.conll(scale);
    let docs = corpus.test();

    // prior: ranked by the prior of the chosen entity.
    let prior_items = {
        let method = PriorOnly::new(kb);
        let eval = crate::runner::run_method(&method, docs);
        eval.ranked_items()
    };

    // IW: ranked by the local linker score.
    let iw_items = {
        let method = LocalLinker::new(kb);
        let eval = crate::runner::run_method(&method, docs);
        eval.ranked_items()
    };

    // AIDAcoh: the graph method ranked by its keyphrase/weighted-degree
    // normalized score.
    let aida = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::full());
    let aida_items = {
        let eval = crate::runner::run_method(&aida, docs);
        eval.ranked_items()
    };

    // CONF: normalized weighted degree + entity perturbation.
    let assessor = ConfAssessor::new(ConfidenceMethod::Conf);
    let conf_eval = run_per_doc(docs, |doc| {
        let mentions = doc.bare_mentions();
        let (_, features) = aida.features(&doc.tokens, &mentions);
        let result = aida.disambiguate_features(&features);
        let confidence = assessor.assess(&aida, &features, &result);
        crate::runner::DocOutcome {
            gold: doc.gold_labels(),
            predicted: result.labels(),
            confidence,
            status: crate::runner::DocStatus::from_degradation(result.degradation),
        }
    });
    let conf_items = conf_eval.ranked_items();

    let mut table = Table::new(
        "Table 5.1 — confidence assessors",
        &["Measure", "Prec@95%conf", "#Men@95%conf", "Prec@80%conf", "#Men@80%conf", "MAP"],
    );
    let rows: Vec<(&str, &Vec<RankedItem>)> = vec![
        ("prior", &prior_items),
        ("AIDAcoh", &aida_items),
        ("IW", &iw_items),
        ("CONF", &conf_items),
    ];
    for (name, items) in &rows {
        let (p95, n95) = precision_at_confidence(items, 0.95);
        let (p80, n80) = precision_at_confidence(items, 0.80);
        table.add_row(vec![
            name.to_string(),
            if n95 > 0 { pct(p95) } else { "-".into() },
            n95.to_string(),
            if n80 > 0 { pct(p80) } else { "-".into() },
            n80.to_string(),
            pct(interpolated_map(items)),
        ]);
    }
    print!("{}", table.render());

    // Figure 5.3: interpolated precision at recall levels.
    let mut fig = Table::new(
        "Figure 5.3 — precision at recall levels",
        &["recall", "prior", "AIDAcoh", "CONF"],
    );
    let interp_at = |items: &[RankedItem], recall: f64| -> f64 {
        pr_curve(items)
            .iter()
            .filter(|p| p.recall >= recall)
            .map(|p| p.precision)
            .fold(0.0f64, f64::max)
    };
    for r in [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0] {
        fig.add_row(vec![
            num(r, 1),
            num(interp_at(&prior_items, r), 4),
            num(interp_at(&aida_items, r), 4),
            num(interp_at(&conf_items, r), 4),
        ]);
    }
    print!("{}", fig.render());
}
