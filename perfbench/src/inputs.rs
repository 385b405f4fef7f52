//! Seeded inputs: one full-scale synthetic world per seed.
//!
//! `perfbench gen` writes what the program receives — frozen-snapshot
//! bytes plus the workload's gold documents — and `perfbench run` reads
//! them back before any timer starts. The seed drives the world and every
//! document generator; the serve workload's request mix and arrival times
//! are drawn from the same seed in `serve::schedule`.

use std::path::Path;

use ned_eval::gold::GoldDoc;
use ned_kb::FrozenKb;
use ned_wikigen::config::WorldConfig;
use ned_wikigen::corpus::{conll_like, kore50_like, wp_like};
use ned_wikigen::news::{generate_stream, NewsConfig};
use ned_wikigen::{ExportedKb, World};

use crate::Workload;

/// File holding the frozen-snapshot bytes.
const KB_FILE: &str = "kb.snap";

// Input sizes: `Scale::full` entities (about 2,280 in the KB) and at least
// 1,000 documents per batch and stream run. The batch corpus and the serve
// article pool are large so that percentiles, which follow the costliest
// documents, vary less by seed.
/// CoNLL-like articles of `batch-conll`.
const BATCH_DOCS: usize = 2_400;
/// WP-like and KORE50-like sentences in `serve-mixed`'s sentence pool.
const SERVE_WP: usize = 700;
const SERVE_KORE: usize = 300;
/// CoNLL-like articles in `serve-mixed`'s article pool.
const SERVE_ARTICLES: usize = 600;
/// Days (rounds) of the `stream-news` stream, and documents per day.
const NEWS_DAYS: u32 = 25;
const NEWS_DOCS_PER_DAY: usize = 40;

/// Seed of the `k`-th generator derived from the workload seed.
fn sub_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k)
}

/// Generates the world for `seed` and writes the inputs of `workload` into
/// `dir`.
pub fn generate(workload: Workload, seed: u64, dir: &Path) -> Result<(), String> {
    let world = World::try_generate(WorldConfig {
        seed,
        entities_per_topic: ned_bench::setup::Scale::full().entities_per_topic,
        ..WorldConfig::default()
    })
    .map_err(|e| format!("world generation: {e}"))?;
    let exported = ExportedKb::build(&world);
    let mut bytes = Vec::new();
    ned_kb::snapshot::write_frozen_snapshot(&FrozenKb::freeze(&exported.kb), &mut bytes)
        .map_err(|e| format!("snapshot: {e}"))?;
    std::fs::write(dir.join(KB_FILE), bytes).map_err(|e| format!("writing snapshot: {e}"))?;
    let write = |name: &str, docs: &[GoldDoc]| -> Result<(), String> {
        let file = std::fs::File::create(dir.join(name)).map_err(|e| e.to_string())?;
        ned_wikigen::corpus_io::write_docs(docs, std::io::BufWriter::new(file))
            .map_err(|e| format!("writing {name}: {e}"))
    };
    match workload {
        Workload::Batch => write(
            "docs.bin",
            &conll_like(&world, &exported, sub_seed(seed, 1), BATCH_DOCS).docs,
        ),
        Workload::Serve => {
            let mut short = wp_like(&world, &exported, sub_seed(seed, 2), SERVE_WP).docs;
            short.extend(kore50_like(&world, &exported, sub_seed(seed, 3), SERVE_KORE).docs);
            write("short.bin", &short)?;
            write(
                "long.bin",
                &conll_like(&world, &exported, sub_seed(seed, 4), SERVE_ARTICLES).docs,
            )
        }
        Workload::Stream => {
            let config = NewsConfig {
                n_days: NEWS_DAYS,
                docs_per_day: NEWS_DOCS_PER_DAY,
                ..NewsConfig::default()
            };
            write(
                "docs.bin",
                &generate_stream(&world, &exported, sub_seed(seed, 5), &config).docs,
            )
        }
    }
}

/// Reads a KB from snapshot bytes (rebuilding its transient indexes): the
/// first step of every workload's set-up.
pub fn load_kb(bytes: &[u8]) -> Result<std::sync::Arc<FrozenKb>, String> {
    ned_kb::snapshot::read_frozen_snapshot(bytes)
        .map(std::sync::Arc::new)
        .map_err(|e| format!("reading snapshot: {e}"))
}

/// The snapshot bytes written by [`generate`].
pub fn kb_bytes(dir: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(dir.join(KB_FILE)).map_err(|e| format!("reading snapshot: {e}"))
}

/// Documents written by [`generate`] under `name`.
pub fn docs(dir: &Path, name: &str) -> Result<Vec<GoldDoc>, String> {
    let file = std::fs::File::open(dir.join(name)).map_err(|e| format!("opening {name}: {e}"))?;
    ned_wikigen::corpus_io::read_docs(std::io::BufReader::new(file))
        .map_err(|e| format!("reading {name}: {e}"))
}
