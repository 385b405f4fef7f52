#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! Knowledge-base substrate for the AIDA-NED suite.
//!
//! The thesis layers everything on a YAGO-style knowledge base derived from
//! Wikipedia (§2.3): an entity repository, a name dictionary built from
//! titles/redirects/disambiguation pages/link anchors, the inter-entity link
//! graph, and per-entity descriptive keyphrases mined from articles. This
//! crate implements that substrate from scratch with the exact statistical
//! weighting schemes of the paper:
//!
//! - keyword/keyphrase IDF (Eq. 3.5),
//! - entity–keyword NPMI over the "superdocument" model (Eqs. 3.1–3.3),
//! - entity–keyphrase normalized mutual information µ (Eq. 4.1).
//!
//! A KB is built as a [`KnowledgeBase`] via [`KbBuilder`], then frozen into
//! a [`FrozenKb`] and read through [`KbView`], which the frozen KB and the
//! [`DeltaKb`] overlay of promoted entities implement.

pub mod builder;
pub mod codec;
pub mod delta;
pub mod dictionary;
pub mod entity;
pub mod frozen;
pub mod handle;
pub mod ids;
pub mod keyphrase;
pub mod kp_index;
pub mod links;
pub mod mutation;
pub mod phrase_runs;
pub mod snapshot;
pub mod stats;
pub mod store;
pub mod taxonomy;
pub mod view;
pub mod vocab;
pub mod wal;
pub mod weights;

/// The Fx hasher and its map and set types, defined in `ned-text` (whose
/// stopword set uses them) and shared by every KB index.
pub use ned_text::fx;

pub use builder::KbBuilder;
pub use delta::DeltaKb;
pub use entity::{Entity, EntityKind};
pub use frozen::{FrozenDictionary, FrozenKb, FrozenKbStats, FrozenLinks};
pub use handle::{KbEpoch, KbHandle};
pub use ids::{EntityId, NameId, PhraseId, WordId};
pub use kp_index::KeyphraseIndex;
pub use mutation::KbMutation;
pub use phrase_runs::PhraseRuns;
pub use store::KnowledgeBase;
pub use taxonomy::{Taxonomy, TypeId};
pub use view::{DictView, EntityIds, KbView, LinksView};
pub use wal::{Wal, WalReplay};
pub use weights::WeightModel;
