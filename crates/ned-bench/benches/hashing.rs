//! Criterion benches for the hashing substrate: min-hash sketching, LSH
//! banding, and the Eq. 3.4 cover kernel of the keyphrase similarity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ned_aida::cover::CoverScratch;
use ned_aida::similarity::cover_z_ratio;
use ned_kb::WordId;
use ned_relatedness::lsh::Banding;
use ned_relatedness::minhash::{mix64, MinHasher};

fn bench_minhash(c: &mut Criterion) {
    let mut group = c.benchmark_group("minhash_sketch");
    for &(k, n) in &[(4usize, 8usize), (200, 60), (2000, 60)] {
        let hasher = MinHasher::new(k, 42);
        let elements: Vec<u64> = (0..n as u64).map(mix64).collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("k{k}_n{n}")),
            &elements,
            |b, elements| b.iter(|| black_box(hasher.sketch(elements.iter().copied()))),
        );
    }
    group.finish();
}

fn bench_banding(c: &mut Criterion) {
    let banding = Banding { bands: 200, rows: 1 };
    let hasher = MinHasher::new(banding.sketch_len(), 42);
    let sketch = hasher.sketch((0u64..60).map(mix64));
    c.bench_function("lsh_bucket_keys_200x1", |b| {
        b.iter(|| black_box(banding.bucket_keys(&sketch)))
    });
}

fn bench_cover(c: &mut Criterion) {
    // A 300-token context with scattered phrase-word occurrences.
    let context: Vec<(usize, WordId)> =
        (0..300).map(|i| (i, WordId((i % 40) as u32))).collect();
    let phrase = [WordId(3), WordId(17), WordId(39)];
    let weight = |w: WordId| 1.0 + f64::from(w.0 % 3);
    let phrase_mass: f64 = phrase.iter().map(|&w| weight(w)).sum();
    let mut cover = CoverScratch::new();
    c.bench_function("cover_kernel_300_tokens", |b| {
        b.iter(|| black_box(cover_z_ratio(&context, &phrase, phrase_mass, weight, &mut cover)))
    });
}

criterion_group!(benches, bench_minhash, bench_banding, bench_cover);
criterion_main!(benches);
