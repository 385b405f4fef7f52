#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! Entity semantic-relatedness measures (Chapter 4 of the thesis).
//!
//! Implements the link-based Milne–Witten measure (Eq. 3.7), the
//! keyterm-cosine baselines KWCS/KPCS (Eq. 4.2), the keyphrase-overlap
//! relatedness KORE (Eqs. 4.3–4.4), and the two-stage min-hash/LSH
//! acceleration of §4.4.2 (KORE-LSH-G and KORE-LSH-F).
//!
//! All measures implement the [`Relatedness`] trait so the AIDA coherence
//! graph can be parameterized over them.

pub mod cache;
pub mod jaccard;
pub mod keyterm_cosine;
pub mod kore;
pub mod lsh;
pub mod milne_witten;
pub mod minhash;
pub mod pair_selection;
pub mod traits;
pub mod two_stage;

pub use cache::{
    canonical_key, shard_index, CacheConfig, CachedRelatedness, LookupEvents, PairCache, PairKey,
    ENTRY_BYTES, SHARD_COUNT,
};
pub use keyterm_cosine::{KeyphraseCosine, KeywordCosine};
pub use jaccard::InlinkJaccard;
pub use kore::Kore;
pub use milne_witten::MilneWitten;
pub use traits::Relatedness;
pub use two_stage::{KoreLsh, TwoStageConfig};
