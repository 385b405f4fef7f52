//! Joint recognition + disambiguation + type classification over raw text
//! (the §7.2.1 outlook and the NEC task of §2.4.4).
//!
//! One call takes a plain string and returns linked, typed annotations:
//! tentative spans come from the rule NER plus a dictionary gazetteer,
//! disambiguation confidence decides which spans survive, and the taxonomy
//! classifier labels each with its semantic class.
//!
//! Run with: `cargo run --release --example joint_annotation`

use aida_ned::aida::classification::TypeClassifier;
use aida_ned::aida::{AidaConfig, Disambiguator, JointAnnotator, JointConfig};
use aida_ned::kb::FrozenKb;
use aida_ned::relatedness::MilneWitten;
use aida_ned::wikigen::config::WorldConfig;
use aida_ned::wikigen::corpus::conll_like;
use aida_ned::wikigen::{ExportedKb, World};

fn main() {
    // A synthetic world with its KB and taxonomy.
    let world = World::generate(WorldConfig::tiny(321));
    let exported = ExportedKb::build(&world);
    let kb = &FrozenKb::freeze(&exported.kb);
    let taxonomy = &exported.taxonomy;

    let aida = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::full());
    let annotator = JointAnnotator::new(&aida, JointConfig::default());
    let classifier = TypeClassifier::new(kb, taxonomy);

    // Take real generated documents and re-annotate them from raw text —
    // no gold mention spans are given to the pipeline.
    let corpus = conll_like(&world, &exported, 9, 5);
    let mut shown = 0;
    for doc in &corpus.docs {
        let text = doc.text();
        let (tokens, annotations) = annotator.annotate(&text);
        if annotations.is_empty() {
            continue;
        }
        println!("document {} — {} tokens, {} annotations:", doc.id, tokens.len(), annotations.len());
        for a in annotations.iter().take(6) {
            let ty = classifier
                .best_type(&tokens, &a.mention)
                .and_then(|t| taxonomy.name(t))
                .unwrap_or("?");
            println!(
                "  {:<18} → {:<22} [{:<16}] conf {:.2}",
                a.mention.surface,
                kb.entity(a.entity).canonical_name,
                ty,
                a.confidence
            );
        }
        shown += 1;
        if shown == 2 {
            break;
        }
        println!();
    }

    // How well does the end-to-end pipeline recover the gold annotations?
    let mut found = 0usize;
    let mut correct = 0usize;
    let mut gold_total = 0usize;
    for doc in &corpus.docs {
        let annotations = annotator.annotate_tokens(&doc.tokens);
        for lm in &doc.mentions {
            let Some(gold) = lm.label else { continue };
            gold_total += 1;
            if let Some(a) = annotations.iter().find(|a| a.mention == lm.mention) {
                found += 1;
                if a.entity == gold {
                    correct += 1;
                }
            }
        }
    }
    println!(
        "\nend-to-end over {gold_total} gold mentions: {found} recognized ({:.0}%), \
         {correct} linked correctly ({:.0}% of recognized)",
        100.0 * found as f64 / gold_total as f64,
        100.0 * correct as f64 / found.max(1) as f64
    );
}
