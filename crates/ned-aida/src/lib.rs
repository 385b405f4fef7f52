#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! AIDA: accurate joint disambiguation of named entities (Chapter 3).
//!
//! The disambiguation framework combines three feature classes (§3.3):
//!
//! 1. the context-independent **popularity prior** of an entity given a
//!    mention (§3.3.3),
//! 2. the **keyphrase-based similarity** between the mention context and the
//!    entity's keyphrases, with partial "cover" matches (§3.3.4,
//!    Eqs. 3.4–3.6),
//! 3. the **entity–entity coherence** via any [`ned_relatedness::Relatedness`]
//!    measure (§3.3.5).
//!
//! The features build a weighted mention–entity graph (§3.4.1) solved by a
//! greedy dense-subgraph algorithm (§3.4.2, Algorithm 1), guarded by the
//! robustness tests of §3.5. Baselines from the literature (prior-only,
//! Cucerzan, Kulkarni et al., a local linker) live in [`baselines`].

pub mod algorithm;
pub mod baselines;
pub mod candidates;
pub mod classification;
pub mod coherence;
pub mod config;
pub mod context;
pub mod cover;
pub mod deadline;
pub mod disambiguator;
pub mod expansion;
pub mod graph;
pub mod joint;
pub mod method;
pub mod obs;
pub mod result;
pub mod robustness;
pub mod scratch;
pub mod similarity;

pub use coherence::CoherenceTable;
pub use config::{AidaConfig, KeywordWeighting};
pub use deadline::{remaining_ns, DeadlinePlan, DeadlinePolicy};
pub use ned_core::{DegradationLevel, NedError};
pub use disambiguator::Disambiguator;
pub use joint::{Annotation, JointAnnotator, JointConfig};
pub use method::NedMethod;
pub use obs::{PipelineObs, SimObs, SolverObs};
pub use result::{DisambiguationResult, MentionAssignment};
