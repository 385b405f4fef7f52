//! Integration of the Chapter-5 pipeline: news stream → confidence →
//! EE model harvesting → discovery → KB enrichment.

use std::sync::Arc;

use aida_ned::aida::{AidaConfig, Disambiguator};
use aida_ned::emerging::confidence::{ConfAssessor, ConfidenceMethod};
use aida_ned::emerging::discover::{EeConfig, EeDiscovery};
use aida_ned::emerging::ee_model::{EeModelConfig, NameModels};
use aida_ned::emerging::enrich::{enrich_kb, harvest_confident};
use aida_ned::eval::ee_measures::ee_averages;
use aida_ned::eval::gold::{GoldDoc, Label};
use aida_ned::kb::FrozenKb;
use aida_ned::relatedness::MilneWitten;
use aida_ned::wikigen::config::WorldConfig;
use aida_ned::wikigen::news::{generate_stream, NewsConfig};
use aida_ned::wikigen::{ExportedKb, World};

fn setup() -> (World, ExportedKb, Vec<GoldDoc>, Vec<GoldDoc>) {
    let world = World::generate(WorldConfig {
        n_topics: 4,
        entities_per_topic: 120,
        ..WorldConfig::tiny(201)
    });
    let exported = ExportedKb::build(&world);
    let stream = generate_stream(
        &world,
        &exported,
        3,
        &NewsConfig { n_days: 4, docs_per_day: 30, emerging_prob: 0.15, burst_days: 2 },
    );
    let harvest: Vec<GoldDoc> = stream.days(0, 3).cloned().collect();
    // Drop trivially-out-of-KB mentions, as §5.7.2 does.
    let test: Vec<GoldDoc> = stream
        .day(3)
        .map(|d| {
            let mentions = d
                .mentions
                .iter()
                .filter(|lm| !exported.kb.candidates(&lm.mention.surface).is_empty())
                .cloned()
                .collect();
            GoldDoc::new(d.id.clone(), d.tokens.clone(), mentions, d.day)
        })
        .collect();
    (world, exported, harvest, test)
}

#[test]
fn ee_discovery_finds_emerging_entities() {
    let (_world, exported, harvest, test) = setup();
    let kb = &Arc::new(FrozenKb::freeze(&exported.kb));
    let refs: Vec<&GoldDoc> = harvest.iter().collect();
    let models = NameModels::build(kb, &refs, 2, &EeModelConfig::default());
    assert!(!models.is_empty(), "the stream must yield EE models");

    let aida = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::sim_only());
    let discovery = EeDiscovery::new(
        &aida,
        &models,
        EeConfig {
            gamma: 0.25,
            assessor: ConfAssessor::new(ConfidenceMethod::Normalized),
            ..EeConfig::default()
        },
    );

    let mut pairs: Vec<(Vec<Label>, Vec<Label>)> = Vec::new();
    for doc in &test {
        let (labels, _) = discovery.discover(&doc.tokens, &doc.bare_mentions());
        pairs.push((doc.gold_labels(), labels));
    }
    let view: Vec<(&[Label], &[Label])> =
        pairs.iter().map(|(g, p)| (g.as_slice(), p.as_slice())).collect();
    let ee = ee_averages(view.iter().copied());
    assert!(ee.recall > 0.3, "EE recall too low: {ee:?}");
    assert!(ee.precision > 0.3, "EE precision too low: {ee:?}");
    assert!(ee.f1 > 0.3, "EE F1 too low: {ee:?}");
}

#[test]
fn confidence_separates_correct_from_wrong() {
    let (_world, exported, _harvest, test) = setup();
    let kb = &Arc::new(FrozenKb::freeze(&exported.kb));
    let aida = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::r_prior_sim());
    let assessor = ConfAssessor::new(ConfidenceMethod::Conf);
    let mut correct_conf = Vec::new();
    let mut wrong_conf = Vec::new();
    for doc in test.iter().take(15) {
        let mentions = doc.bare_mentions();
        let (_, features) = aida.features(&doc.tokens, &mentions);
        let result = aida.disambiguate_features(&features);
        let conf = assessor.assess(&aida, &features, &result);
        for (i, lm) in doc.mentions.iter().enumerate() {
            let Some(gold) = lm.label else { continue };
            if result.assignments[i].entity == Some(gold) {
                correct_conf.push(conf[i]);
            } else {
                wrong_conf.push(conf[i]);
            }
        }
    }
    assert!(!correct_conf.is_empty() && !wrong_conf.is_empty());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&correct_conf) > mean(&wrong_conf) + 0.05,
        "confidence must separate correct ({:.3}) from wrong ({:.3})",
        mean(&correct_conf),
        mean(&wrong_conf)
    );
}

#[test]
fn kb_enrichment_adds_recent_phrases() {
    let (world, exported, harvest, _test) = setup();
    let kb = &Arc::new(FrozenKb::freeze(&exported.kb));
    let aida = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::r_prior_sim());
    let assessor = ConfAssessor::new(ConfidenceMethod::Normalized);
    let refs: Vec<&GoldDoc> = harvest.iter().collect();
    let report = harvest_confident(&aida, &assessor, &refs, 0.95);
    assert!(report.confident_mentions > 0, "the stream must yield confident mentions");
    assert!(report.phrase_observations() > 0);

    let enriched = enrich_kb(Arc::clone(kb), &report)
        .unwrap_or_else(|e| panic!("harvested phrases apply: {e}"));
    assert_eq!(enriched.entity_count(), kb.entity_count());
    // At least one entity gained phrases.
    let gained = kb
        .entity_ids()
        .filter(|&e| enriched.keyphrases(e).len() > kb.keyphrases(e).len())
        .count();
    assert!(gained > 0, "enrichment must extend some entity");
    let _ = world;
}
