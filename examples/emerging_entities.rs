//! Emerging-entity discovery: the "Prism problem" of Chapter 5.
//!
//! The knowledge base knows a band called Prism; the news suddenly talks
//! about a surveillance program of the same name. Thresholding would have
//! to guess; NED-EE builds an explicit placeholder model for the new
//! meaning by harvesting keyphrases from the news stream and subtracting
//! the in-KB candidates' models (Algorithm 2), then lets the regular
//! disambiguator choose between the band and the placeholder.
//!
//! Run with: `cargo run --example emerging_entities`

// Demo code: aborting on error is the right UX for an example.
#![allow(clippy::unwrap_used, clippy::expect_used)]


use aida_ned::aida::{AidaConfig, Disambiguator};
use aida_ned::emerging::confidence::{ConfAssessor, ConfidenceMethod};
use aida_ned::emerging::discover::{EeConfig, EeDiscovery};
use aida_ned::emerging::ee_model::{EeModelConfig, NameModels};
use aida_ned::eval::gold::{GoldDoc, LabeledMention};
use aida_ned::kb::{EntityKind, FrozenKb, KbBuilder};
use aida_ned::relatedness::MilneWitten;
use aida_ned::text::{tokenize, Mention};

fn news_doc(id: &str, text: &str, name: &str) -> GoldDoc {
    let tokens = tokenize(text);
    let pos = tokens.iter().position(|t| t.text == name).expect("name occurs");
    GoldDoc::new(
        id,
        tokens,
        vec![LabeledMention { mention: Mention::new(name, pos, pos + 1), label: None }],
        0,
    )
}

fn main() {
    // The knowledge base knows "Prism" only as a progressive rock band.
    let mut b = KbBuilder::new();
    let band = b.add_entity("Prism (band)", EntityKind::Organization);
    b.add_name(band, "Prism", 25);
    b.add_keyphrase(band, "progressive rock band", 5);
    b.add_keyphrase(band, "stadium tour", 2);
    b.add_keyphrase(band, "platinum album", 2);
    let gov = b.add_entity("US Government", EntityKind::Organization);
    b.add_name(gov, "Washington", 40);
    b.add_keyphrase(gov, "federal agency", 4);
    b.add_keyphrase(gov, "secret surveillance program", 2);
    b.add_keyphrase(gov, "intelligence court order", 1);
    let kb = FrozenKb::freeze(&b.build());

    // A chunk of recent news in which a *new* Prism appears.
    let chunk = [
        news_doc("n1", "the secret surveillance program called Prism was revealed today", "Prism"),
        news_doc("n2", "a whistleblower leaked the secret surveillance program Prism files", "Prism"),
        news_doc("n3", "intelligence court order documents describe Prism collection", "Prism"),
        news_doc("n4", "the federal agency defended Prism before congress", "Prism"),
    ];
    let refs: Vec<&GoldDoc> = chunk.iter().collect();

    // Algorithm 2: global name model − in-KB candidate models.
    let models = NameModels::build(&kb, &refs, 2, &EeModelConfig::default());
    let model = models.get("Prism").expect("a model for Prism");
    println!("EE placeholder model for \"Prism\" ({} phrases):", model.phrases.len());
    for p in model.phrases.iter().take(6) {
        println!("  {:<34} weight {:.2}", p.surface, p.weight);
    }

    // Algorithm 3: the placeholder competes with the band.
    let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::sim_only());
    let discovery = EeDiscovery::new(
        &aida,
        &models,
        EeConfig {
            gamma: 1.0,
            assessor: ConfAssessor::new(ConfidenceMethod::Normalized),
            ..EeConfig::default()
        },
    );

    let cases = [
        ("the secret surveillance program Prism collects intelligence", "emerging entity"),
        ("the progressive rock band Prism announced a stadium tour", "Prism (band)"),
    ];
    println!("\ndiscovery decisions:");
    for (text, expected) in cases {
        let tokens = tokenize(text);
        let pos = tokens.iter().position(|t| t.text == "Prism").expect("Prism in text");
        let mentions = vec![Mention::new("Prism", pos, pos + 1)];
        let (labels, _) = discovery.discover(&tokens, &mentions);
        let decided = match labels[0] {
            Some(e) => kb.entity(e).canonical_name.clone(),
            None => "emerging entity".to_string(),
        };
        println!("  \"{text}\"\n    → {decided} (expected: {expected})");
        assert_eq!(decided, expected);
    }
    println!("\nboth readings of the same name resolved correctly — see §5.6.");
}
