#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

//! # AIDA-NED
//!
//! A from-scratch Rust implementation of the entity discovery and
//! disambiguation stack of Hoffart, *"Discovering and Disambiguating Named
//! Entities in Text"*: the AIDA joint disambiguator (graph-based coherence
//! with robustness tests), the KORE keyphrase-overlap relatedness measure
//! with two-stage min-hash/LSH acceleration, and the NED-EE emerging-entity
//! discovery method — plus the substrates they need (knowledge base, text
//! processing, synthetic world generation) and the applications built on
//! top (entity-centric search, news analytics).
//!
//! This crate is a facade re-exporting the workspace members under stable
//! names. Quick start:
//!
//! ```
//! use aida_ned::aida::{AidaConfig, Disambiguator, NedMethod};
//! use aida_ned::kb::{EntityKind, FrozenKb, KbBuilder};
//! use aida_ned::relatedness::MilneWitten;
//! use aida_ned::text::{tokenize, Mention};
//!
//! // Build a tiny knowledge base and freeze it into its columnar read form.
//! let mut builder = KbBuilder::new();
//! let song = builder.add_entity("Kashmir (song)", EntityKind::Work);
//! let region = builder.add_entity("Kashmir (region)", EntityKind::Location);
//! builder.add_name(song, "Kashmir", 30);
//! builder.add_name(region, "Kashmir", 70);
//! builder.add_keyphrase(song, "hard rock", 2);
//! builder.add_keyphrase(song, "unusual chords", 2);
//! builder.add_keyphrase(region, "Himalaya mountains", 4);
//! let kb = FrozenKb::freeze(&builder.build());
//!
//! // Disambiguate a mention in context.
//! let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full());
//! let tokens = tokenize("They performed Kashmir with unusual chords.");
//! let mentions = vec![Mention::new("Kashmir", 2, 3)];
//! let result = aida.disambiguate(&tokens, &mentions);
//! assert_eq!(result.labels()[0], kb.entity_by_name("Kashmir (song)"));
//!
//! // Service configuration: share one KB handle across threads. Outputs
//! // are byte-identical.
//! use std::sync::Arc;
//! let shared = Arc::new(kb);
//! let service =
//!     Disambiguator::new(shared.clone(), MilneWitten::new(shared.clone()), AidaConfig::full());
//! assert_eq!(service.disambiguate(&tokens, &mentions).labels(), result.labels());
//! ```

/// Fault-tolerance substrate: the typed error taxonomy and degradation
/// levels shared by every layer.
pub use ned_core as core;

/// Observability substrate: the deterministic metrics registry, stage
/// spans, and the `Clock` abstraction.
pub use ned_obs as obs;

/// Text processing substrate (tokenizer, POS tagging, NER, mentions).
pub use ned_text as text;

/// Knowledge-base substrate (entities, dictionary, links, keyphrases,
/// statistical weights).
pub use ned_kb as kb;

/// Entity relatedness measures (Milne–Witten, keyterm cosine, KORE,
/// two-stage LSH).
pub use ned_relatedness as relatedness;

/// The AIDA joint disambiguator and the baseline methods.
pub use ned_aida as aida;

/// The overload-robust in-process annotation service: bounded queue,
/// admission control, deadline-driven degradation, graceful drain.
pub use ned_serve as serve;

/// Emerging-entity discovery (confidence, EE models, NED-EE).
pub use ned_emerging as emerging;

/// Evaluation measures and gold-standard types.
pub use ned_eval as eval;

/// Synthetic world, corpus, and gold-standard generation.
pub use ned_wikigen as wikigen;

/// Applications: entity-centric search and news analytics.
pub use ned_apps as apps;
