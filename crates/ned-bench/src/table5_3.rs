//! Tables 5.3 and 5.4: emerging-entity discovery quality on the news
//! stream — explicit EE modeling (EEsim / EEcoh) against the
//! score-thresholding baselines, plus NED-EE as a preprocessing stage.

use std::sync::Arc;

use ned_aida::baselines::LocalLinker;
use ned_aida::{AidaConfig, Disambiguator, NedMethod};
use ned_eval::ee_measures::ee_averages;
use ned_eval::gold::{GoldDoc, Label};
use ned_eval::report::{pct, Table};
use ned_emerging::confidence::{ConfAssessor, ConfidenceMethod};
use ned_emerging::discover::{EeConfig, EeDiscovery, ThresholdEe};
use ned_emerging::ee_model::{EeModelConfig, NameModels};
use ned_relatedness::MilneWitten;

use crate::runner::{run_per_doc, DocOutcome, Evaluation};
use crate::setup::{Env, Scale};

/// Days of news preceding the evaluation day used to harvest EE models.
pub const HARVEST_DAYS: u32 = 2;

/// A labeling strategy for the EE experiments.
pub type Labeler<'a> = Box<dyn Fn(&GoldDoc) -> Vec<Label> + Sync + 'a>;

/// Drops mentions whose surface has no dictionary candidates — they are
/// trivially out-of-KB and §5.7.2 removes them from the evaluation ("as
/// they can be resolved trivially").
pub fn drop_trivial_mentions<K: ned_kb::KbView + ?Sized>(
    kb: &K,
    docs: &[GoldDoc],
) -> Vec<GoldDoc> {
    docs.iter()
        .map(|d| {
            let mentions = d
                .mentions
                .iter()
                .filter(|lm| !kb.candidates(&lm.mention.surface).is_empty())
                .cloned()
                .collect();
            GoldDoc::new(d.id.clone(), d.tokens.clone(), mentions, d.day)
        })
        .collect()
}

/// Builds EE name models from the days `[eval_day − days, eval_day)`.
pub fn build_models(env: &Env, stream: &[GoldDoc], eval_day: u32, days: u32) -> NameModels {
    build_models_against(&env.frozen, stream, eval_day, days)
}

/// Builds EE name models against an explicit (possibly enriched) KB.
pub fn build_models_against<K: ned_kb::KbView + ?Sized>(
    kb: &K,
    stream: &[GoldDoc],
    eval_day: u32,
    days: u32,
) -> NameModels {
    let from = eval_day.saturating_sub(days);
    let window: Vec<&GoldDoc> =
        stream.iter().filter(|d| d.day >= from && d.day < eval_day).collect();
    NameModels::build(kb, &window, 2, &EeModelConfig::default())
}

/// Evaluates a labeler over the documents of one day.
pub fn eval_day(docs: &[GoldDoc], labeler: &Labeler<'_>) -> Evaluation {
    run_per_doc(docs, |doc| {
        DocOutcome::ok(doc.gold_labels(), labeler(doc), vec![0.0; doc.mentions.len()])
    })
}

/// Tunes a scalar parameter by EE F1 on a validation day.
fn tune<'a>(
    docs: &[GoldDoc],
    grid: &[f64],
    make: impl Fn(f64) -> Labeler<'a>,
) -> f64 {
    let mut best = grid[0];
    let mut best_f1 = -1.0;
    for &v in grid {
        let labeler = make(v);
        let eval = eval_day(docs, &labeler);
        let pairs: Vec<(&[Label], &[Label])> = eval
            .docs
            .iter()
            .map(|d| (d.gold.as_slice(), d.predicted.as_slice()))
            .collect();
        let f1 = ee_averages(pairs.iter().copied()).f1;
        if f1 > best_f1 {
            best_f1 = f1;
            best = v;
        }
    }
    best
}

/// Runs Tables 5.3 and 5.4.
pub fn run(scale: &Scale) {
    let env = Env::build(scale);
    let kb = &env.frozen;
    let stream = env.news(scale);
    let eval_day_idx = stream.n_days - 1;
    let validation_day = stream.n_days - 2;
    let test_docs: Vec<GoldDoc> =
        drop_trivial_mentions(kb, &stream.day(eval_day_idx).cloned().collect::<Vec<_>>());
    let val_docs: Vec<GoldDoc> =
        drop_trivial_mentions(kb, &stream.day(validation_day).cloned().collect::<Vec<_>>());
    let ee_gold: usize = test_docs.iter().map(|d| d.out_of_kb_count()).sum();
    eprintln!(
        "news stream: {} days × {} docs; eval day {} with {} docs, {} EE mentions",
        stream.n_days,
        scale.news_docs_per_day,
        eval_day_idx,
        test_docs.len(),
        ee_gold
    );

    let aida_sim = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::sim_only());
    let aida_coh = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::full());
    let linker = LocalLinker::new(kb);
    let conf_assessor = ConfAssessor::new(ConfidenceMethod::Conf);
    let norm_assessor = ConfAssessor::new(ConfidenceMethod::Normalized);

    // §5.7.2: the EE methods include *harvested keyphrases for existing
    // entities* — enrich the KB from each target day's harvest window, then
    // build the EE models against the enriched KB (which subtracts more).
    let enrich_for = |target_day: u32| -> ned_kb::DeltaKb {
        let window: Vec<&GoldDoc> = stream
            .docs
            .iter()
            .filter(|d| d.day + HARVEST_DAYS >= target_day && d.day < target_day)
            .collect();
        let base = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::r_prior_sim());
        let report = ned_emerging::enrich::harvest_confident(
            &base,
            &ConfAssessor::new(ConfidenceMethod::Normalized),
            &window,
            0.95,
        );
        eprintln!(
            "in-KB enrichment for day {target_day}: {} confident mentions, {} phrases",
            report.confident_mentions,
            report.phrase_observations()
        );
        ned_emerging::enrich::enrich_kb(Arc::clone(kb), &report)
            .unwrap_or_else(|e| panic!("enrichment mutations apply: {e}"))
    };
    let enriched_val = enrich_for(validation_day);
    let enriched_test = enrich_for(eval_day_idx);
    let ee_sim_val = Disambiguator::new(
        &enriched_val,
        MilneWitten::new(&enriched_val),
        AidaConfig::sim_only(),
    );
    let ee_sim_base = Disambiguator::new(
        &enriched_test,
        MilneWitten::new(&enriched_test),
        AidaConfig::sim_only(),
    );

    let models_val =
        build_models_against(&enriched_val, &stream.docs, validation_day, HARVEST_DAYS);
    let models_test =
        build_models_against(&enriched_test, &stream.docs, eval_day_idx, HARVEST_DAYS);
    eprintln!(
        "EE models: {} names (validation), {} names (test)",
        models_val.len(),
        models_test.len()
    );

    // --- Thresholding baselines, tuned on the validation day. ---
    fn threshold_labeler<'a, K, R>(
        aida: &'a Disambiguator<K, R>,
        assessor: ConfAssessor,
        t: f64,
    ) -> Labeler<'a>
    where
        K: ned_kb::KbView + 'a,
        R: ned_relatedness::Relatedness + 'a,
    {
        Box::new(move |doc: &GoldDoc| {
            let mentions = doc.bare_mentions();
            let (_, features) = aida.features(&doc.tokens, &mentions);
            let result = aida.disambiguate_features(&features);
            let conf = assessor.assess(aida, &features, &result);
            ThresholdEe::new(t).apply(&result, &conf)
        })
    }
    fn iw_labeler<'a, K: ned_kb::KbView + 'a>(linker: &'a LocalLinker<K>, t: f64) -> Labeler<'a> {
        Box::new(move |doc: &GoldDoc| {
            let mentions = doc.bare_mentions();
            let result = linker.disambiguate(&doc.tokens, &mentions);
            let conf: Vec<f64> =
                result.assignments.iter().map(|a| a.normalized_score()).collect();
            ThresholdEe::new(t).apply(&result, &conf)
        })
    }
    fn ee_labeler<'a, K, R>(
        aida: &'a Disambiguator<K, R>,
        models: &'a NameModels,
        gamma: f64,
        coherence: bool,
    ) -> Labeler<'a>
    where
        K: ned_kb::KbView + 'a,
        R: ned_relatedness::Relatedness + 'a,
    {
        Box::new(move |doc: &GoldDoc| {
            let config = EeConfig {
                gamma,
                use_coherence: coherence,
                assessor: ConfAssessor::new(ConfidenceMethod::Normalized),
                ..EeConfig::default()
            };
            let discovery = EeDiscovery::new(aida, models, config);
            discovery.discover(&doc.tokens, &doc.bare_mentions()).0
        })
    }

    let grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7];
    let t_sim =
        tune(&val_docs, &grid, |t| threshold_labeler(&aida_sim, norm_assessor.clone(), t));
    let t_coh =
        tune(&val_docs, &grid, |t| threshold_labeler(&aida_coh, conf_assessor.clone(), t));
    let t_iw = tune(&val_docs, &grid, |t| iw_labeler(&linker, t));
    eprintln!("tuned thresholds: AIDAsim {t_sim}, AIDAcoh {t_coh}, IW {t_iw}");

    // --- Explicit EE modeling, γ tuned on the validation day. ---
    let gamma_grid = [0.1, 0.25, 0.5, 1.0, 2.0];
    // Plain-KB EE models (the primary configuration) and the enriched
    // variant (§5.7.2 adds harvested keyphrases for existing entities; on
    // the synthetic stream the enrichment window overlaps the EE bursts and
    // contaminates the in-KB models, so it is reported as a variant row).
    let models_val_plain = build_models(&env, &stream.docs, validation_day, HARVEST_DAYS);
    let models_test_plain = build_models(&env, &stream.docs, eval_day_idx, HARVEST_DAYS);
    let g_sim =
        tune(&val_docs, &gamma_grid, |g| ee_labeler(&aida_sim, &models_val_plain, g, false));
    let g_coh =
        tune(&val_docs, &gamma_grid, |g| ee_labeler(&aida_coh, &models_val_plain, g, true));
    let g_sim_enriched =
        tune(&val_docs, &gamma_grid, |g| ee_labeler(&ee_sim_val, &models_val, g, false));
    eprintln!("tuned gamma: EEsim {g_sim}, EEcoh {g_coh}, EEsim+enrich {g_sim_enriched}");

    let methods: Vec<(&str, Labeler<'_>)> = vec![
        ("AIDAsim(thr)", threshold_labeler(&aida_sim, norm_assessor.clone(), t_sim)),
        ("AIDAcoh(thr)", threshold_labeler(&aida_coh, conf_assessor.clone(), t_coh)),
        ("IW(thr)", iw_labeler(&linker, t_iw)),
        ("EEsim", ee_labeler(&aida_sim, &models_test_plain, g_sim, false)),
        ("EEcoh", ee_labeler(&aida_coh, &models_test_plain, g_coh, true)),
        (
            "EEsim(+enrich)",
            ee_labeler(&ee_sim_base, &models_test, g_sim_enriched, false),
        ),
    ];

    let mut table = Table::new(
        "Table 5.3 — emerging-entity discovery on the news test day",
        &["Method", "MicA", "MacA", "EE Prec", "EE Rec", "EE F1"],
    );
    let mut labels_by_method: Vec<(&str, Evaluation)> = Vec::new();
    for (name, labeler) in &methods {
        let eval = eval_day(&test_docs, labeler);
        let pairs: Vec<(&[Label], &[Label])> = eval
            .docs
            .iter()
            .map(|d| (d.gold.as_slice(), d.predicted.as_slice()))
            .collect();
        let ee = ee_averages(pairs.iter().copied());
        table.add_row(vec![
            name.to_string(),
            pct(eval.micro(true)),
            pct(eval.macro_(true)),
            pct(ee.precision),
            pct(ee.recall),
            pct(ee.f1),
        ]);
        labels_by_method.push((name, eval));
    }
    print!("{}", table.render());

    // --- Table 5.4: EE stage as preprocessing for a full NED run. ---
    let mut table54 = Table::new(
        "Table 5.4 — NED-EE: EE stage as preprocessing + full AIDA",
        &["Method", "MicA", "MacA", "EE Prec"],
    );
    for (name, pre) in &labels_by_method {
        let eval = run_per_doc(&test_docs, |doc| {
            // Find this document's preprocessed labels.
            let Some(idx) = test_docs.iter().position(|d| d.id == doc.id) else {
                return DocOutcome::failed(
                    doc.gold_labels(),
                    format!("document {} missing from the test set", doc.id),
                );
            };
            let pre_labels = &pre.docs[idx].predicted;
            let mentions = doc.bare_mentions();
            let result = aida_coh.disambiguate(&doc.tokens, &mentions);
            let predicted: Vec<Label> = result
                .labels()
                .into_iter()
                .zip(pre_labels)
                .map(|(ned, &pre)| if pre.is_none() { None } else { ned })
                .collect();
            DocOutcome::ok(doc.gold_labels(), predicted, vec![0.0; doc.mentions.len()])
        });
        let pairs: Vec<(&[Label], &[Label])> = eval
            .docs
            .iter()
            .map(|d| (d.gold.as_slice(), d.predicted.as_slice()))
            .collect();
        let ee = ee_averages(pairs.iter().copied());
        table54.add_row(vec![
            format!("AIDA-EE[{name}]"),
            pct(eval.micro(true)),
            pct(eval.macro_(true)),
            pct(ee.precision),
        ]);
    }
    print!("{}", table54.render());
}
