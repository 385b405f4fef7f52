#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! Text-processing substrate for the AIDA-NED suite.
//!
//! The disambiguation methods of the paper (AIDA, KORE, NED-EE) treat text
//! preprocessing as a fixed pipeline: tokenize, split sentences, tag
//! part-of-speech, recognize named-entity mentions, and extract candidate
//! keyphrases with the part-of-speech patterns of Appendix A. The original
//! system used the Stanford NER and POS taggers; this crate provides
//! self-contained, deterministic rule-based equivalents that expose the same
//! downstream interface (mention spans, noun-phrase candidates, token
//! contexts).
//!
//! Modules:
//! - [`token`] / [`tokenizer`]: token model (token text stored inline)
//!   and the tokenizer.
//! - [`sentence`]: sentence boundary detection.
//! - [`stopwords`]: the stopword list used for context extraction.
//! - [`normalize`]: the name-matching case rules of §3.3.2, and the
//!   allocation-free lowercasing of keyword and stopword lookups.
//! - [`pos`]: a lexicon + suffix part-of-speech tagger.
//! - [`patterns`]: keyphrase part-of-speech patterns (Appendix A).
//! - [`ner`]: rule-based named-entity recognition.
//! - [`mention`]: the mention model shared by all disambiguators.
//! - [`fx`]: the Fx hasher behind the workspace's hot hash maps and the
//!   stopword set (re-exported as `ned_kb::fx`).

pub mod fx;
pub mod mention;
pub mod ner;
pub mod normalize;
pub mod patterns;
pub mod pos;
pub mod sentence;
pub mod stopwords;
pub mod token;
pub mod tokenizer;

pub use mention::Mention;
pub use ner::{NerConfig, Recognizer};
pub use pos::{PosTag, PosTagger};
pub use token::{Token, TokenKind, TokenText};
pub use tokenizer::tokenize;
