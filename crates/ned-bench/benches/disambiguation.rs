//! Criterion benches for the end-to-end disambiguation path: AIDA
//! configurations and baselines per document.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ned_aida::baselines::{Cucerzan, Kulkarni, KulkarniVariant, PriorOnly};
use ned_aida::{AidaConfig, Disambiguator, NedMethod};
use ned_eval::gold::GoldDoc;
use ned_kb::FrozenKb;
use ned_relatedness::{Kore, MilneWitten};
use ned_wikigen::config::WorldConfig;
use ned_wikigen::corpus::conll_like;
use ned_wikigen::{ExportedKb, World};

fn setup() -> (ExportedKb, Vec<GoldDoc>) {
    let world = World::generate(WorldConfig {
        entities_per_topic: 150,
        ..WorldConfig::default()
    });
    let exported = ExportedKb::build(&world);
    let corpus = conll_like(&world, &exported, 7, 24);
    let docs = corpus.docs;
    (exported, docs)
}

fn bench_methods(c: &mut Criterion) {
    let (exported, docs) = setup();
    let kb = &FrozenKb::freeze(&exported.kb);
    let kore = Kore::new(kb);

    let mut group = c.benchmark_group("disambiguate_corpus_24_docs");
    group.sample_size(20);

    let run = |method: &dyn NedMethod| {
        let mut mapped = 0usize;
        for doc in &docs {
            let result = method.disambiguate(&doc.tokens, &doc.bare_mentions());
            mapped += result.mapped_count();
        }
        mapped
    };

    group.bench_function("prior_only", |b| {
        let m = PriorOnly::new(kb);
        b.iter(|| black_box(run(&m)))
    });
    group.bench_function("cucerzan", |b| {
        let m = Cucerzan::new(kb);
        b.iter(|| black_box(run(&m)))
    });
    group.bench_function("kulkarni_ci", |b| {
        let m = Kulkarni::new(kb, KulkarniVariant::Collective);
        b.iter(|| black_box(run(&m)))
    });
    group.bench_function("aida_sim_only", |b| {
        let m = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::sim_only());
        b.iter(|| black_box(run(&m)))
    });
    group.bench_function("aida_full_mw", |b| {
        let m = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::full());
        b.iter(|| black_box(run(&m)))
    });
    group.bench_function("aida_full_kore", |b| {
        let m = Disambiguator::new(kb, &kore, AidaConfig::full());
        b.iter(|| black_box(run(&m)))
    });
    group.finish();
}

fn bench_kb_build(c: &mut Criterion) {
    let world = World::generate(WorldConfig::tiny(7));
    c.bench_function("kb_export_tiny_world", |b| {
        b.iter(|| black_box(ExportedKb::build(&world).kb.entity_count()))
    });
}

criterion_group!(benches, bench_methods, bench_kb_build);
criterion_main!(benches);
