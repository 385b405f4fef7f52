//! Criterion benches for the parallel engine: corpus throughput at several
//! thread counts and indexed vs exhaustive keyphrase similarity.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ned_aida::context::DocumentContext;
use ned_aida::similarity::{context_word_set, simscore_exhaustive, simscore_indexed};
use ned_aida::{AidaConfig, Disambiguator, KeywordWeighting};
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

fn bench_similarity_index(c: &mut Criterion) {
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
    group.bench_function("indexed", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (ctx, cands) in &cases {
                let words = context_word_set(ctx);
                for &e in cands {
                    acc += simscore_indexed(kb, e, ctx, &words, KeywordWeighting::Npmi);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("exhaustive", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (ctx, cands) in &cases {
                for &e in cands {
                    acc += simscore_exhaustive(kb, e, ctx, KeywordWeighting::Npmi);
                }
            }
            black_box(acc)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_thread_scaling, bench_similarity_index);
criterion_main!(benches);
