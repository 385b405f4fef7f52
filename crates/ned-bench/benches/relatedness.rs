//! Criterion benches backing Table 4.4: per-pair and per-scope cost of the
//! relatedness measures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ned_kb::{EntityId, FrozenKb};
use ned_relatedness::pair_selection::off_diagonal_pairs;
use ned_relatedness::{Kore, KoreLsh, MilneWitten, Relatedness, TwoStageConfig};
use ned_wikigen::config::WorldConfig;
use ned_wikigen::{ExportedKb, World};

fn setup() -> ExportedKb {
    let world = World::generate(WorldConfig {
        entities_per_topic: 150,
        ..WorldConfig::default()
    });
    ExportedKb::build(&world)
}

fn bench_pairwise(c: &mut Criterion) {
    let exported = setup();
    let kb = &FrozenKb::freeze(&exported.kb);
    let mw = MilneWitten::new(kb);
    let kore = Kore::new(kb);
    // A fixed slice of moderately popular entities.
    let ids: Vec<EntityId> = kb.entity_ids().take(64).collect();

    let mut group = c.benchmark_group("pairwise_relatedness");
    group.bench_function("milne_witten", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (i, &x) in ids.iter().enumerate() {
                for &y in &ids[i + 1..] {
                    acc += mw.relatedness(black_box(x), black_box(y));
                }
            }
            acc
        })
    });
    group.bench_function("kore_exact", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for (i, &x) in ids.iter().enumerate() {
                for &y in &ids[i + 1..] {
                    acc += kore.relatedness(black_box(x), black_box(y));
                }
            }
            acc
        })
    });
    group.finish();
}

/// Sum of `measure` over the off-diagonal pairs its `nonzero_pairs`
/// lists for `scope`: the join plus one exact computation per pair.
fn listed_pairs_sum(measure: &dyn Relatedness, scope: &[EntityId]) -> f64 {
    off_diagonal_pairs(measure, scope).into_iter().map(|(a, b)| measure.relatedness(a, b)).sum()
}

fn bench_lsh_pairs(c: &mut Criterion) {
    let exported = setup();
    let kb = &FrozenKb::freeze(&exported.kb);
    let lsh_g = KoreLsh::new(kb, TwoStageConfig::lsh_g());
    let lsh_f = KoreLsh::new(kb, TwoStageConfig::lsh_f());
    let kore = Kore::new(kb);

    let mut group = c.benchmark_group("scope_relatedness");
    for scope_size in [50usize, 200] {
        let scope: Vec<EntityId> = kb.entity_ids().take(scope_size).collect();
        group.bench_with_input(
            BenchmarkId::new("kore_all_pairs", scope_size),
            &scope,
            |b, scope| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for (i, &x) in scope.iter().enumerate() {
                        for &y in &scope[i + 1..] {
                            acc += kore.relatedness(x, y);
                        }
                    }
                    acc
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lsh_g_listed_pairs", scope_size),
            &scope,
            |b, scope| b.iter(|| listed_pairs_sum(&lsh_g, scope)),
        );
        group.bench_with_input(
            BenchmarkId::new("lsh_f_listed_pairs", scope_size),
            &scope,
            |b, scope| b.iter(|| listed_pairs_sum(&lsh_f, scope)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pairwise, bench_lsh_pairs);
criterion_main!(benches);
