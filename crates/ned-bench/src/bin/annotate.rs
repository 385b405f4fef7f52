//! Interactive demo CLI: builds a synthetic world, then annotates text from
//! the command line (or a built-in demo document) end to end — joint
//! recognition, disambiguation, and type classification.
//!
//! Annotation runs through the `ned-serve` service (the same bounded-queue,
//! deadline-planned code path a long-running deployment uses), so the demo
//! doubles as a smoke test of the serving layer.
//!
//! Usage:
//!   annotate                      # annotate a generated demo document
//!   annotate "some text ..."      # annotate the given text
//!   annotate --seed 7 "text"      # different world
//!   annotate --metrics "text"     # also dump the pipeline metrics snapshot
//!   annotate --deadline-ms 5 "…"  # per-request deadline (tight deadlines
//!                                 # degrade joint → no-coherence → prior)
//!   annotate --threads 4 "text"   # service worker threads
//!   annotate --cache-mb 2 "text"  # bound the relatedness cache to N MiB
//!                                 # (segmented-LRU with frequency
//!                                 # admission; 0 disables caching,
//!                                 # omitted = unbounded)
//!   annotate --wal live.wal "…"   # replay an incremental-KB WAL over the
//!                                 # frozen base and annotate against the
//!                                 # resulting delta overlay (promoted
//!                                 # emerging entities become linkable)

use std::sync::Arc;

use ned_aida::classification::TypeClassifier;
use ned_aida::{AidaConfig, JointConfig};
use ned_kb::{DeltaKb, FrozenKb, KbEpoch, KbView, Wal};
use ned_obs::Metrics;
use ned_relatedness::{CacheConfig, CachedRelatedness, MilneWitten};
use ned_serve::{AidaHandler, ServeRequest, Service, ServiceConfig};
use ned_text::tokenize;
use ned_wikigen::config::WorldConfig;
use ned_wikigen::corpus::conll_like;
use ned_wikigen::{ExportedKb, World};

/// Removes `--flag <value>` from `args` and parses the value.
fn take_value_flag(args: &mut Vec<String>, flag: &str) -> Option<u64> {
    let pos = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(pos + 1).and_then(|v| v.parse().ok()) else {
        eprintln!("{flag} expects a number");
        std::process::exit(2);
    };
    args.drain(pos..=pos + 1);
    Some(value)
}

/// Removes `--flag <value>` from `args` and returns the raw value.
fn take_string_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(pos + 1).cloned() else {
        eprintln!("{flag} expects a path");
        std::process::exit(2);
    };
    args.drain(pos..=pos + 1);
    Some(value)
}

// ned-lint: entry
fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let seed = take_value_flag(&mut args, "--seed").unwrap_or(2024);
    let deadline_ms = take_value_flag(&mut args, "--deadline-ms");
    let threads = take_value_flag(&mut args, "--threads").unwrap_or(2).max(1) as usize;
    let cache_mb = take_value_flag(&mut args, "--cache-mb");
    let wal_path = take_string_flag(&mut args, "--wal");
    let show_metrics = if let Some(pos) = args.iter().position(|a| a == "--metrics") {
        args.remove(pos);
        true
    } else {
        false
    };

    let world = World::generate(WorldConfig::tiny(seed));
    let exported = ExportedKb::build(&world);
    // The service configuration: one frozen KB behind a shared Arc handle,
    // optionally with a WAL-replayed delta overlay on top.
    let frozen = Arc::new(FrozenKb::freeze(&exported.kb));
    let kb = match &wal_path {
        Some(path) => {
            let (_, replay) = Wal::open(path).unwrap_or_else(|e| {
                eprintln!("cannot open WAL {path}: {e}");
                std::process::exit(2);
            });
            if replay.recovered_torn_tail() {
                eprintln!(
                    "WAL {path}: recovered from a torn tail ({} bytes discarded)",
                    replay.torn_tail_bytes
                );
            }
            eprintln!(
                "WAL {path}: replayed {} mutations ({} duplicates skipped)",
                replay.mutations.len(),
                replay.duplicates_skipped
            );
            if replay.mutations.is_empty() {
                Arc::new(KbEpoch::Frozen(frozen.clone()))
            } else {
                let delta = DeltaKb::build(frozen.clone(), replay.mutations)
                    .unwrap_or_else(|e| {
                        eprintln!("WAL {path} does not apply to this world: {e}");
                        std::process::exit(2);
                    });
                eprintln!("delta overlay: +{} entities", delta.delta_entity_count());
                Arc::new(KbEpoch::Delta(Arc::new(delta)))
            }
        }
        None => Arc::new(KbEpoch::Frozen(frozen.clone())),
    };
    eprintln!(
        "world: {} entities, {} names, {} keyphrases",
        kb.entity_count(),
        kb.dictionary().name_count(),
        kb.phrase_count()
    );

    let metrics = Metrics::new();
    let cache_config = match cache_mb {
        Some(mb) => CacheConfig::bounded(mb.saturating_mul(1024 * 1024)),
        None => CacheConfig::unbounded(),
    };
    let relatedness = Arc::new(CachedRelatedness::with_config(
        MilneWitten::new(kb.clone()),
        &metrics,
        cache_config,
    ));
    let handler =
        AidaHandler::try_new(kb.clone(), relatedness, AidaConfig::full(), JointConfig::default())
            .unwrap_or_else(|e| {
                eprintln!("invalid pipeline configuration: {e}");
                std::process::exit(2);
            })
            .with_metrics(&metrics);
    let service = Service::start(
        handler,
        ServiceConfig {
            workers: threads,
            default_deadline_ms: deadline_ms,
            ..ServiceConfig::default()
        },
        &metrics,
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot start service: {e}");
        std::process::exit(2);
    });
    let classifier = TypeClassifier::new(kb.clone(), &exported.taxonomy);

    let text = if args.is_empty() {
        // No input: annotate a freshly generated document so the demo works
        // out of the box (the synthetic vocabulary is the world's own). An
        // empty corpus gives empty text, which the pipeline short-circuits.
        let corpus = conll_like(&world, &exported, 42, 1);
        corpus.docs.first().map(|d| d.text()).unwrap_or_default()
    } else {
        args.join(" ")
    };

    println!("text:\n  {text}\n");
    let response = service.submit_wait(ServeRequest::new(0, text.clone()));
    let annotations = match &response.result {
        Ok(annotations) => annotations.clone(),
        Err(e) => {
            eprintln!("annotation failed: {e}");
            std::process::exit(1);
        }
    };
    if response.degradation.is_degraded() {
        println!(
            "(deadline pressure: answered at degradation level `{}`)\n",
            response.degradation.as_str()
        );
    }
    let tokens = tokenize(&text);
    if annotations.is_empty() {
        println!("no linkable mentions found (unknown names are out-of-KB).");
    } else {
        println!("{} annotations:", annotations.len());
        for a in &annotations {
            let ty = classifier
                .best_type(&tokens, &a.mention)
                .and_then(|t| exported.taxonomy.name(t))
                .unwrap_or("?");
            println!(
                "  {:<20} → {:<26} [{:<18}] conf {:.2}",
                a.mention.surface,
                kb.entity(a.entity).canonical_name,
                ty,
                a.confidence
            );
        }
    }
    let stats = service.shutdown();
    if let Err(e) = stats.check_conservation() {
        eprintln!("service accounting imbalance: {e}");
        std::process::exit(1);
    }
    if show_metrics {
        println!("\npipeline metrics:\n{}", metrics.snapshot().render());
    }
}
