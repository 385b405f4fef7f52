//! Entity-centric search over strings, things, and cats (Chapter 6.1).
//!
//! Documents are disambiguated once and indexed three ways: by words
//! (strings), by the canonical entities found in them (things), and by the
//! semantic classes of those entities (cats). Queries can then distinguish
//! "documents about the song Kashmir" from "documents containing the word
//! Kashmir".
//!
//! Run with: `cargo run --release --example entity_search`

// Demo code: aborting on error is the right UX for an example.
#![allow(clippy::unwrap_used, clippy::expect_used)]


use aida_ned::aida::{AidaConfig, Disambiguator, NedMethod};
use aida_ned::apps::{EntityIndex, Query};
use aida_ned::kb::{EntityKind, FrozenKb, KbView};
use aida_ned::relatedness::MilneWitten;
use aida_ned::wikigen::config::WorldConfig;
use aida_ned::wikigen::corpus::conll_like;
use aida_ned::wikigen::{ExportedKb, World};

fn main() {
    let world = World::generate(WorldConfig::tiny(77));
    let exported = ExportedKb::build(&world);
    let kb = &FrozenKb::freeze(&exported.kb);
    let corpus = conll_like(&world, &exported, 3, 40);

    // Disambiguate and index every document.
    let aida = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::full());
    let mut index = EntityIndex::new(kb);
    for doc in &corpus.docs {
        let mentions = doc.bare_mentions();
        let labels = aida.disambiguate(&doc.tokens, &mentions).labels();
        index.add_document(doc.id.clone(), &doc.tokens, &labels);
    }
    println!("indexed {} documents", index.len());

    // Pick an ambiguous surface and one of its entities for the demo.
    let (surface, cands) = KbView::dictionary(kb)
        .iter()
        .filter(|(_, c)| c.len() >= 2)
        .max_by_key(|(_, c)| c.len())
        .expect("an ambiguous name");
    let thing = cands[0].entity;
    println!(
        "\nambiguous name {:?} has {} senses; searching for the specific entity {:?}:",
        surface,
        cands.len(),
        kb.entity(thing).canonical_name
    );

    // Things: documents about this entity, regardless of surface form.
    let hits = index.search(&Query::things(&[thing]), 5);
    for hit in &hits {
        println!("  {} (score {:.2})", hit.doc_id, hit.score);
    }

    // Strings: plain word search for comparison.
    let word = surface.to_lowercase();
    let string_hits = index.search(&Query::strings(&[&word]), 50);
    println!(
        "\nplain string search for {word:?} matches {} documents; \
         the thing query matched {} — the difference is every document \
         where the name means one of the other {} senses.",
        string_hits.len(),
        hits.len(),
        cands.len() - 1
    );

    // Cats: all documents mentioning at least one Person and one Location.
    let q = Query { kinds: vec![EntityKind::Person, EntityKind::Location], ..Default::default() };
    let cat_hits = index.search(&q, 5);
    println!("\ndocuments with both a person and a location ({} total):", cat_hits.len());
    for hit in cat_hits.iter().take(3) {
        println!("  {}", hit.doc_id);
    }
}
