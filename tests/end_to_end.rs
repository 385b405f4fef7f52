//! End-to-end integration: synthetic world → knowledge base → corpus →
//! joint disambiguation → evaluation, exercising every layer of the stack
//! together.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use aida_ned::aida::baselines::PriorOnly;
use aida_ned::aida::{AidaConfig, Disambiguator, NedMethod};
use aida_ned::eval::gold::Label;
use aida_ned::eval::{macro_accuracy, micro_accuracy};
use aida_ned::kb::snapshot::{read_frozen_snapshot, write_frozen_snapshot};
use aida_ned::kb::FrozenKb;
use aida_ned::relatedness::{Kore, MilneWitten, Relatedness};
use aida_ned::wikigen::config::WorldConfig;
use aida_ned::wikigen::corpus::conll_like;
use aida_ned::wikigen::{ExportedKb, World};

fn label_pairs<M: NedMethod>(
    method: &M,
    docs: &[aida_ned::eval::gold::GoldDoc],
) -> Vec<(Vec<Label>, Vec<Label>)> {
    docs.iter()
        .map(|d| {
            let labels = method.disambiguate(&d.tokens, &d.bare_mentions()).labels();
            (d.gold_labels(), labels)
        })
        .collect()
}

fn micro(pairs: &[(Vec<Label>, Vec<Label>)]) -> f64 {
    let view: Vec<(&[Label], &[Label])> =
        pairs.iter().map(|(g, p)| (g.as_slice(), p.as_slice())).collect();
    micro_accuracy(view.iter().copied(), false)
}

#[test]
fn full_pipeline_beats_the_prior_baseline() {
    let world = World::generate(WorldConfig::tiny(101));
    let exported = ExportedKb::build(&world);
    let kb = FrozenKb::freeze(&exported.kb);
    let corpus = conll_like(&world, &exported, 5, 80);
    let docs = &corpus.docs; // all docs: this is a method comparison, not tuning

    let prior = PriorOnly::new(&kb);
    let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full());
    let prior_acc = micro(&label_pairs(&prior, docs));
    let aida_acc = micro(&label_pairs(&aida, docs));
    assert!(
        aida_acc > prior_acc + 0.02,
        "AIDA ({aida_acc:.3}) must clearly beat the prior baseline ({prior_acc:.3})"
    );
    assert!(aida_acc > 0.7, "absolute quality sanity bound, got {aida_acc:.3}");
}

#[test]
fn kore_coherence_works_end_to_end() {
    let world = World::generate(WorldConfig::tiny(102));
    let exported = ExportedKb::build(&world);
    let kb = FrozenKb::freeze(&exported.kb);
    let corpus = conll_like(&world, &exported, 6, 40);
    let docs = corpus.test();
    let kore = Kore::new(&kb);
    let aida = Disambiguator::new(&kb, &kore, AidaConfig::full());
    let pairs = label_pairs(&aida, docs);
    assert!(micro(&pairs) > 0.65);
    let view: Vec<(&[Label], &[Label])> =
        pairs.iter().map(|(g, p)| (g.as_slice(), p.as_slice())).collect();
    assert!(macro_accuracy(view.iter().copied(), false) > 0.6);
}

#[test]
fn disambiguation_is_deterministic_across_runs() {
    let world = World::generate(WorldConfig::tiny(103));
    let exported = ExportedKb::build(&world);
    let kb = FrozenKb::freeze(&exported.kb);
    let corpus = conll_like(&world, &exported, 7, 10);
    let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full());
    for doc in &corpus.docs {
        let a = aida.disambiguate(&doc.tokens, &doc.bare_mentions());
        let b = aida.disambiguate(&doc.tokens, &doc.bare_mentions());
        assert_eq!(a, b, "same input must give identical output");
    }
}

#[test]
fn snapshot_roundtrip_preserves_disambiguation_behaviour() {
    let world = World::generate(WorldConfig::tiny(104));
    let exported = ExportedKb::build(&world);
    let kb = FrozenKb::freeze(&exported.kb);
    let corpus = conll_like(&world, &exported, 8, 6);

    let mut buf = Vec::new();
    write_frozen_snapshot(&kb, &mut buf).expect("snapshot written");
    let restored = read_frozen_snapshot(buf.as_slice()).expect("snapshot read");
    assert_eq!(restored.entity_count(), kb.entity_count());

    let aida_orig = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full());
    let aida_restored =
        Disambiguator::new(&restored, MilneWitten::new(&restored), AidaConfig::full());
    for doc in &corpus.docs {
        let a = aida_orig.disambiguate(&doc.tokens, &doc.bare_mentions()).labels();
        let b = aida_restored.disambiguate(&doc.tokens, &doc.bare_mentions()).labels();
        assert_eq!(a, b, "restored KB must behave identically");
    }
}

#[test]
fn relatedness_measures_are_symmetric_on_real_kb() {
    let world = World::generate(WorldConfig::tiny(105));
    let exported = ExportedKb::build(&world);
    let kb = &FrozenKb::freeze(&exported.kb);
    let mw = MilneWitten::new(kb);
    let kore = Kore::new(kb);
    let ids: Vec<_> = kb.entity_ids().take(40).collect();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            assert!((mw.relatedness(a, b) - mw.relatedness(b, a)).abs() < 1e-12);
            assert!((kore.relatedness(a, b) - kore.relatedness(b, a)).abs() < 1e-12);
            assert!(mw.relatedness(a, b) >= 0.0);
            assert!(kore.relatedness(a, b) >= 0.0);
        }
    }
}

#[test]
fn relatedness_measures_are_bitwise_symmetric_on_real_kb() {
    // The coherence table evaluates each pair once, in ascending id order,
    // for readers that ask in either order: symmetry must hold bit for bit.
    let world = World::generate(WorldConfig::tiny(105));
    let exported = ExportedKb::build(&world);
    let kb = &FrozenKb::freeze(&exported.kb);
    let mw = MilneWitten::new(kb);
    let kore = Kore::new(kb);
    let ids: Vec<_> = kb.entity_ids().take(300).collect();
    for (i, &a) in ids.iter().enumerate() {
        for &b in &ids[i + 1..] {
            assert_eq!(mw.relatedness(a, b).to_bits(), mw.relatedness(b, a).to_bits());
            assert_eq!(kore.relatedness(a, b).to_bits(), kore.relatedness(b, a).to_bits());
        }
    }
}
