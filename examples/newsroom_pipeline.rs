//! Newsroom pipeline: generate a synthetic world and a day of news, run the
//! full AIDA disambiguator over every article, and feed the results into
//! the entity-level analytics application (Chapter 6.2).
//!
//! Run with: `cargo run --release --example newsroom_pipeline`

use aida_ned::aida::{AidaConfig, Disambiguator, NedMethod};
use aida_ned::apps::NewsAnalytics;
use aida_ned::eval::{macro_accuracy, micro_accuracy};
use aida_ned::kb::FrozenKb;
use aida_ned::relatedness::MilneWitten;
use aida_ned::wikigen::config::WorldConfig;
use aida_ned::wikigen::news::{generate_stream, NewsConfig};
use aida_ned::wikigen::{ExportedKb, World};

fn main() {
    // A deterministic synthetic world standing in for Wikipedia/YAGO.
    let world = World::generate(WorldConfig::tiny(2024));
    let exported = ExportedKb::build(&world);
    let kb = &FrozenKb::freeze(&exported.kb);
    println!("world: {} entities ({} emerging)", world.len(), world.emerging_indices().len());

    // A five-day news stream with emerging entities mixed in.
    let stream = generate_stream(
        &world,
        &exported,
        1,
        &NewsConfig { n_days: 5, docs_per_day: 15, emerging_prob: 0.1, burst_days: 2 },
    );
    println!("stream: {} documents, {} mentions", stream.docs.len(), stream.mention_count());

    // Disambiguate everything and feed the analytics.
    let aida = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::full());
    let mut analytics = NewsAnalytics::new();
    let mut gold = Vec::new();
    let mut predicted = Vec::new();
    for doc in &stream.docs {
        let mentions = doc.bare_mentions();
        let result = aida.disambiguate(&doc.tokens, &mentions);
        let labels = result.labels();
        let feed: Vec<(String, _)> = mentions
            .iter()
            .zip(&labels)
            .map(|(m, &l)| (m.surface.clone(), l))
            .collect();
        analytics.add_document(doc.day, &feed);
        gold.push(doc.gold_labels());
        predicted.push(labels);
    }

    let pairs: Vec<(&[_], &[_])> =
        gold.iter().zip(&predicted).map(|(g, p)| (g.as_slice(), p.as_slice())).collect();
    println!(
        "disambiguation quality: micro {:.1}%, macro {:.1}%",
        100.0 * micro_accuracy(pairs.iter().copied(), false),
        100.0 * macro_accuracy(pairs.iter().copied(), false),
    );

    // Analytics use cases (§6.2.3).
    let last_day = stream.n_days - 1;
    println!("\ntrending entities on day {last_day} (≥1.5× their mean daily volume):");
    for (entity, lift) in analytics.trending(last_day, 1.5, 3).into_iter().take(5) {
        println!("  {:<24} lift {:.1}×", kb.entity(entity).canonical_name, lift);
    }

    if let Some((entity, _)) = analytics.trending(last_day, 1.0, 1).first().copied() {
        println!("\nentities co-occurring with {}:", kb.entity(entity).canonical_name);
        for (partner, count) in analytics.co_occurring(entity, 5) {
            println!("  {:<24} {count} shared documents", kb.entity(partner).canonical_name);
        }
        println!("\nmention timeline of {}:", kb.entity(entity).canonical_name);
        for (day, count) in analytics.timeline(entity) {
            println!("  day {day}: {count} mentions  {}", "#".repeat(count as usize));
        }
    }

    println!("\nout-of-KB names surfaced on day {last_day} (KB maintenance feed):");
    for (name, count) in analytics.emerging_names(last_day).into_iter().take(5) {
        println!("  {name:<16} {count}×");
    }
}
