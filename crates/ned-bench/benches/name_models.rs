//! Criterion bench for the Chapter 5 placeholder name models: one
//! `NameModels::build` over a full stream window on the frozen full-scale
//! KB, the build every round of the news stream makes (`bench_streaming`,
//! and perfbench's `stream-news` workload).
//!
//! `cargo bench -p ned-bench --offline --bench name_models`

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use ned_bench::setup::Scale;
use ned_emerging::ee_model::{EeModelConfig, NameModels};
use ned_eval::gold::GoldDoc;
use ned_kb::FrozenKb;
use ned_wikigen::config::WorldConfig;
use ned_wikigen::news::{generate_stream, NewsConfig};
use ned_wikigen::{ExportedKb, World};

fn bench_name_models(c: &mut Criterion) {
    let world = World::generate(WorldConfig {
        entities_per_topic: Scale::full().entities_per_topic,
        ..WorldConfig::default()
    });
    let exported = ExportedKb::build(&world);
    let kb = FrozenKb::freeze(&exported.kb);
    // One full window of the stream: 3 days of 40 documents.
    let news = NewsConfig { n_days: 3, docs_per_day: 40, ..NewsConfig::default() };
    let stream = generate_stream(&world, &exported, 1, &news);
    let window: Vec<&GoldDoc> = stream.docs.iter().collect();
    let config = EeModelConfig::default();
    c.bench_function("name_models_build_full_kb_120_docs", |b| {
        b.iter(|| black_box(NameModels::build(&kb, &window, 2, &config).len()))
    });
}

criterion_group!(benches, bench_name_models);
criterion_main!(benches);
