//! Criterion benches for the parallel engine: corpus throughput at several
//! thread counts and batched keyphrase similarity over every mention.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ned_aida::context::DocumentContext;
use ned_aida::scratch::with_scratch;
use ned_aida::similarity::simscores_batch;
use ned_aida::{AidaConfig, Disambiguator, KeywordWeighting, SimObs};
use ned_bench::runner::run_method_with_threads;
use ned_eval::gold::GoldDoc;
use ned_kb::FrozenKb;
use ned_relatedness::MilneWitten;
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
    (exported, corpus.docs)
}

fn bench_thread_scaling(c: &mut Criterion) {
    let (exported, docs) = setup();
    let kb = &FrozenKb::freeze(&exported.kb);

    let mut group = c.benchmark_group("throughput_24_docs");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("aida_full_mw", threads),
            &threads,
            |b, &threads| {
                let m = Disambiguator::new(kb, MilneWitten::new(kb), AidaConfig::full());
                b.iter(|| {
                    black_box(
                        run_method_with_threads(&m, &docs, threads)
                            .expect("thread pool")
                            .docs
                            .len(),
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_similarity(c: &mut Criterion) {
    let (exported, docs) = setup();
    let kb = &FrozenKb::freeze(&exported.kb);
    // Every mention context with its candidate entities.
    let cases: Vec<_> = docs
        .iter()
        .flat_map(|d| {
            let ctx = DocumentContext::build(kb, &d.tokens);
            d.mentions
                .iter()
                .map(|m| {
                    let cands: Vec<_> =
                        kb.candidates(&m.mention.surface).iter().map(|c| c.entity).collect();
                    (ctx.for_mention(&m.mention), cands)
                })
                .collect::<Vec<_>>()
        })
        .collect();

    let mut group = c.benchmark_group("simscore_corpus");
    group.sample_size(10);
    let obs = SimObs::default();
    group.bench_function("batched", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (ctx, cands) in &cases {
                acc = with_scratch(|scratch| {
                    simscores_batch(
                        kb,
                        cands.len(),
                        |i| cands[i],
                        ctx,
                        KeywordWeighting::Npmi,
                        &obs,
                        scratch,
                    );
                    scratch.sims().iter().fold(acc, |a, &s| a + s)
                });
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_thread_scaling, bench_similarity);
criterion_main!(benches);
