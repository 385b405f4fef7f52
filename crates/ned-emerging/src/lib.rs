#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! NED-EE: discovering emerging entities (Chapter 5).
//!
//! Knowledge bases are never complete; new entities constantly emerge,
//! often under names that existing entities already carry ("Prism",
//! "Snowden"). This crate implements the thesis' approach of making
//! emerging entities *first-class citizens* of the disambiguation:
//!
//! - [`confidence`]: assessors for how certain a disambiguation is —
//!   score normalization (§5.4.1), mention perturbation (§5.4.2), entity
//!   perturbation (§5.4.3), and the combined CONF measure (§5.7.1).
//! - [`harvest`]: keyphrase harvesting from document streams with the
//!   part-of-speech patterns of Appendix A (§5.5.1).
//! - [`ee_model`]: the placeholder-entity keyphrase model built by *model
//!   difference* — global name model minus the in-KB candidates' models
//!   (Algorithm 2, §5.5.2).
//! - [`discover`]: the NED-EE discovery algorithm (Algorithm 3, §5.6) plus
//!   the score-thresholding baselines it is compared against.
//! - [`enrich`]: KB maintenance — harvesting additional keyphrases for
//!   existing entities from high-confidence disambiguations (§5.5.1),
//!   added as [`ned_kb::KbMutation`]s through a [`ned_kb::DeltaKb`]
//!   overlay.
//! - [`policy`]: promotion (§5.6) — support + confidence thresholds that
//!   turn accumulated EE evidence into WAL-ready [`ned_kb::KbMutation`]
//!   sequences.
//!
//! Both ways of growing the KB write mutations: neither rebuilds it.

pub mod confidence;
pub mod discover;
pub mod ee_model;
pub mod enrich;
pub mod harvest;
pub mod policy;

pub use confidence::{ConfAssessor, ConfidenceMethod};
pub use discover::{EeConfig, EeDiscovery, ThresholdEe};
pub use ee_model::{EeModel, NameModels};
pub use policy::{Promotion, PromotionPolicy, PromotionTracker};
