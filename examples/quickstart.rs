//! Quickstart: build a small knowledge base by hand and jointly
//! disambiguate the thesis' running example sentence
//! ("They performed Kashmir, written by Page and Plant. Page played
//! unusual chords on his Gibson.").
//!
//! Run with: `cargo run --example quickstart`

use aida_ned::aida::{AidaConfig, Disambiguator, NedMethod};
use aida_ned::kb::{EntityKind, FrozenKb, KbBuilder, KbView};
use aida_ned::relatedness::MilneWitten;
use aida_ned::text::{tokenize, NerConfig, Recognizer};

fn main() {
    // 1. Build the knowledge base: entities, surface names with anchor
    //    counts (→ popularity priors), keyphrases, and links.
    let mut b = KbBuilder::new();
    let song = b.add_entity("Kashmir (song)", EntityKind::Work);
    let region = b.add_entity("Kashmir (region)", EntityKind::Location);
    let jimmy = b.add_entity("Jimmy Page", EntityKind::Person);
    let larry = b.add_entity("Larry Page", EntityKind::Person);
    let plant = b.add_entity("Robert Plant", EntityKind::Person);
    let gibson = b.add_entity("Gibson Les Paul", EntityKind::Other);

    b.add_name(song, "Kashmir", 6);
    b.add_name(region, "Kashmir", 94); // the region dominates the prior
    b.add_name(jimmy, "Page", 40);
    b.add_name(larry, "Page", 55); // ... and Larry Page dominates "Page"
    b.add_name(plant, "Plant", 70);
    b.add_name(gibson, "Gibson", 60);

    b.add_keyphrase(song, "hard rock", 2);
    b.add_keyphrase(song, "unusual chords", 2);
    b.add_keyphrase(region, "Himalaya mountains", 4);
    b.add_keyphrase(region, "disputed territory", 3);
    b.add_keyphrase(jimmy, "hard rock", 3);
    b.add_keyphrase(jimmy, "session guitarist", 2);
    b.add_keyphrase(jimmy, "Gibson signature model", 2);
    b.add_keyphrase(larry, "search engine", 3);
    b.add_keyphrase(plant, "rock singer", 3);
    b.add_keyphrase(gibson, "electric guitar", 3);

    for (a, t) in [
        (jimmy, song),
        (song, jimmy),
        (plant, song),
        (plant, jimmy),
        (jimmy, plant),
        (gibson, jimmy),
        (jimmy, gibson),
        (song, gibson),
    ] {
        b.add_link(a, t);
    }
    let kb = FrozenKb::freeze(&b.build());

    // 2. Recognize mentions with the rule-based NER.
    let text =
        "They performed Kashmir, written by Page and Plant. Page played unusual chords on his Gibson.";
    let tokens = tokenize(text);
    let mut ner = Recognizer::new(NerConfig::default());
    for (key, _) in KbView::dictionary(&kb).iter() {
        ner.add_gazetteer_entry(key);
    }
    let mentions = ner.recognize(&tokens);
    println!("text: {text}");
    println!("mentions: {:?}", mentions.iter().map(|m| m.surface.as_str()).collect::<Vec<_>>());

    // 3. Jointly disambiguate with the full AIDA configuration.
    let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full());
    let result = aida.disambiguate(&tokens, &mentions);

    println!("\n{} assignments:", aida.name());
    for (mention, assignment) in mentions.iter().zip(&result.assignments) {
        let entity = assignment
            .entity
            .map(|e| kb.entity(e).canonical_name.clone())
            .unwrap_or_else(|| "<out of KB>".to_string());
        println!(
            "  {:<10} → {:<18} (confidence {:.2})",
            mention.surface,
            entity,
            assignment.normalized_score()
        );
    }

    // The prior alone would have chosen the Himalaya region and Larry Page;
    // context similarity and graph coherence pick the coherent music
    // reading.
    let labels = result.labels();
    assert_eq!(labels[0], kb.entity_by_name("Kashmir (song)"));
    assert_eq!(labels[1], kb.entity_by_name("Jimmy Page"));
    println!("\ncoherence beat the popularity prior — see Chapter 3 of the thesis.");
}
