#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! Fault-tolerance substrate shared by every crate in the workspace.
//!
//! The dissertation builds robustness into the *method* (the prior test ρ
//! and coherence test λ selectively disable unreliable signals); this crate
//! builds robustness into the *system*: a typed error taxonomy ([`NedError`])
//! replacing panics on IO/lookup/config paths, the [`DegradationLevel`]
//! ladder the disambiguator reports when it has to fall back, and helpers to
//! capture panics from isolated per-document work items.

pub mod det;
pub mod serve;

pub use serve::{RequestId, ServeError, ServeRequest, ServeResponse, ShedReason};

use std::fmt;
use std::io;

/// Structured decode failures of a knowledge-base snapshot.
///
/// Every way a snapshot byte stream can be unusable gets its own variant so
/// operators can distinguish "wrong file" from "torn download" from "written
/// by a newer binary".
#[derive(Debug)]
pub enum SnapshotError {
    /// The stream does not start with the snapshot magic bytes.
    BadMagic,
    /// The header's format version is not supported by this binary.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Version this binary reads and writes.
        supported: u16,
    },
    /// The stream ended inside the header.
    Truncated {
        /// Bytes the header takes.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A section passed its checksum but failed to decode, the decoded
    /// sections disagree in shape, or bytes follow the last section. The
    /// message names the section.
    Codec(String),
    /// A v3 section block ended before its declared body length.
    SectionTruncated {
        /// Which section the frame claimed to carry.
        section: &'static str,
        /// Bytes the section header promised.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A v3 section body does not match its recorded checksum.
    SectionChecksumMismatch {
        /// Which section failed validation.
        section: &'static str,
        /// Checksum recorded in the section header.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// A v3 frame carried a section tag this binary does not know.
    UnknownSection {
        /// The unrecognized tag byte.
        tag: u8,
    },
    /// A required v3 section is not in its place: the stream ended before
    /// it, or another section's frame stands there.
    MissingSection {
        /// The section that never arrived.
        section: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a knowledge-base snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot format version {found} (this binary supports {supported})"
            ),
            SnapshotError::Truncated { expected, actual } => {
                write!(f, "truncated snapshot header: {expected} bytes expected, got {actual}")
            }
            SnapshotError::Codec(msg) => write!(f, "snapshot failed to decode: {msg}"),
            SnapshotError::SectionTruncated { section, expected, actual } => write!(
                f,
                "truncated snapshot section {section:?}: frame promised {expected} bytes, \
                 got {actual}"
            ),
            SnapshotError::SectionChecksumMismatch { section, expected, actual } => write!(
                f,
                "snapshot section {section:?} checksum mismatch: frame {expected:#018x}, \
                 body {actual:#018x}"
            ),
            SnapshotError::UnknownSection { tag } => {
                write!(f, "unknown snapshot section tag {tag:#04x}")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot lacks required section {section:?} in its place")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Structured decode failures of a knowledge-base write-ahead log.
///
/// The WAL shares the snapshot's framing discipline (length-prefixed frames
/// with FNV-1a checksums), so it shares the same taxonomy: "wrong file",
/// "torn write", and "flipped bit" are distinct operator-facing conditions.
/// A torn *tail* is not an error — replay recovers the valid prefix — so
/// the variants here cover only the faults no recovery can repair.
#[derive(Debug)]
pub enum WalError {
    /// The stream does not start with the WAL magic bytes.
    BadMagic,
    /// The header's format version is not supported by this binary.
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// Version this binary reads and writes.
        supported: u16,
    },
    /// A record body does not match its frame checksum (bit rot or a torn
    /// write *inside* the file rather than at its tail).
    ChecksumMismatch {
        /// Byte offset of the corrupt frame's prelude.
        offset: u64,
        /// Checksum recorded in the frame prelude.
        expected: u64,
        /// Checksum of the bytes actually read.
        actual: u64,
    },
    /// A record passed its checksum but failed to decode (version-skewed
    /// writer or a bug; with a valid checksum this should be unreachable).
    Codec {
        /// Byte offset of the undecodable frame's prelude.
        offset: u64,
        /// The decoder's failure message.
        message: String,
    },
    /// Replay observed a sequence number from the future: records were
    /// lost in the middle of the log, not at its tail.
    SequenceGap {
        /// The sequence number replay expected next.
        expected: u64,
        /// The sequence number actually found.
        found: u64,
    },
    /// A frame carried a record tag this binary does not know.
    UnknownFrameTag {
        /// The unrecognized tag byte.
        tag: u8,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::BadMagic => write!(f, "not a knowledge-base WAL (bad magic)"),
            WalError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported WAL format version {found} (this binary supports {supported})"
            ),
            WalError::ChecksumMismatch { offset, expected, actual } => write!(
                f,
                "WAL record at byte {offset} checksum mismatch: frame {expected:#018x}, \
                 body {actual:#018x}"
            ),
            WalError::Codec { offset, message } => {
                write!(f, "WAL record at byte {offset} failed to decode: {message}")
            }
            WalError::SequenceGap { expected, found } => write!(
                f,
                "WAL sequence gap: expected record {expected}, found {found}"
            ),
            WalError::UnknownFrameTag { tag } => {
                write!(f, "unknown WAL frame tag {tag:#04x}")
            }
        }
    }
}

impl std::error::Error for WalError {}

/// The workspace-wide error type.
///
/// Manual `Display`/`Error` impls (thiserror-style, but hand-rolled: the
/// dependency set is vendored and offline).
#[derive(Debug)]
pub enum NedError {
    /// An underlying IO operation failed.
    Io {
        /// What was being done when the IO failed.
        context: String,
        /// The OS-level error.
        source: io::Error,
    },
    /// A snapshot could not be read.
    Snapshot(SnapshotError),
    /// A write-ahead log could not be replayed.
    Wal(WalError),
    /// A configuration violated its invariants.
    Config {
        /// Which configuration was invalid.
        what: &'static str,
        /// The violated invariant.
        message: String,
    },
    /// A required key was absent from a store.
    Lookup {
        /// The kind of thing looked up (entity, word, document, …).
        what: &'static str,
        /// The missing key.
        key: String,
    },
    /// A solver ran out of its deterministic iteration budget.
    BudgetExhausted {
        /// Iterations spent before giving up.
        spent: u64,
        /// The configured budget.
        budget: u64,
    },
    /// A solver ran past its wall-clock budget.
    DeadlineExceeded {
        /// Milliseconds elapsed when the guard fired.
        elapsed_ms: u64,
        /// The configured budget in milliseconds.
        budget_ms: u64,
    },
    /// A lock was poisoned by a panicking holder and could not be recovered.
    Poisoned {
        /// The poisoned structure.
        what: &'static str,
    },
    /// An isolated work item (one document) panicked.
    DocumentPanic {
        /// The captured panic payload, as text.
        message: String,
    },
}

impl fmt::Display for NedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NedError::Io { context, source } => write!(f, "{context}: {source}"),
            NedError::Snapshot(e) => write!(f, "{e}"),
            NedError::Wal(e) => write!(f, "{e}"),
            NedError::Config { what, message } => write!(f, "invalid {what}: {message}"),
            NedError::Lookup { what, key } => write!(f, "unknown {what}: {key:?}"),
            NedError::BudgetExhausted { spent, budget } => {
                write!(f, "solver iteration budget exhausted ({spent} spent, budget {budget})")
            }
            NedError::DeadlineExceeded { elapsed_ms, budget_ms } => {
                write!(f, "solver wall budget exceeded ({elapsed_ms} ms, budget {budget_ms} ms)")
            }
            NedError::Poisoned { what } => write!(f, "{what} poisoned by a panicking holder"),
            NedError::DocumentPanic { message } => {
                write!(f, "document work item panicked: {message}")
            }
        }
    }
}

impl std::error::Error for NedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NedError::Io { source, .. } => Some(source),
            NedError::Snapshot(e) => Some(e),
            NedError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for NedError {
    fn from(e: SnapshotError) -> Self {
        NedError::Snapshot(e)
    }
}

impl From<WalError> for NedError {
    fn from(e: WalError) -> Self {
        NedError::Wal(e)
    }
}

impl NedError {
    /// Wraps an IO error with the operation it interrupted.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        NedError::Io { context: context.into(), source }
    }

    /// True when retrying with a *reduced* feature set could succeed — the
    /// signal the degradation ladder keys on (budget/deadline faults), as
    /// opposed to faults no fallback can fix (corrupt snapshot, bad config).
    pub fn is_degradable(&self) -> bool {
        matches!(
            self,
            NedError::BudgetExhausted { .. }
                | NedError::DeadlineExceeded { .. }
                | NedError::DocumentPanic { .. }
        )
    }
}

/// How far down the feature ladder the disambiguator had to step for a
/// document (§3.5's ρ/λ tests disable features *selectively*; this ladder
/// disables them *wholesale* when the joint solver cannot finish).
///
/// Levels are ordered: a larger level means more degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum DegradationLevel {
    /// Full fidelity: the configured method ran to completion.
    #[default]
    None,
    /// The joint coherence graph was abandoned (budget or solver fault);
    /// mentions were resolved by local similarity + prior only.
    NoCoherence,
    /// Even local similarity was unusable (non-finite weights); mentions
    /// were resolved by the popularity prior alone.
    PriorOnly,
}

impl DegradationLevel {
    /// True when any fallback was applied.
    pub fn is_degraded(self) -> bool {
        self != DegradationLevel::None
    }

    /// Stable label for reports and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradationLevel::None => "none",
            DegradationLevel::NoCoherence => "no-coherence",
            DegradationLevel::PriorOnly => "prior-only",
        }
    }
}

impl fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Renders a `catch_unwind` payload as text (`&str` and `String` payloads
/// cover everything `panic!` produces in practice).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NedError::from(SnapshotError::UnsupportedVersion { found: 9, supported: 2 });
        assert!(e.to_string().contains("version 9"));
        let e = NedError::io("reading snapshot", io::Error::other("boom"));
        assert!(e.to_string().contains("reading snapshot"));
        let e = NedError::Lookup { what: "entity", key: "Page".into() };
        assert!(e.to_string().contains("entity"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let e = NedError::io("x", io::Error::other("inner"));
        assert!(e.source().is_some());
        let e = NedError::Snapshot(SnapshotError::BadMagic);
        assert!(e.source().is_some());
        let e = NedError::Wal(WalError::BadMagic);
        assert!(e.source().is_some());
        assert!(NedError::Poisoned { what: "cache shard" }.source().is_none());
    }

    #[test]
    fn wal_errors_display_their_anatomy() {
        let e = NedError::from(WalError::UnsupportedVersion { found: 9, supported: 1 });
        assert!(e.to_string().contains("version 9"));
        let e = WalError::ChecksumMismatch { offset: 17, expected: 1, actual: 2 };
        assert!(e.to_string().contains("byte 17"));
        let e = WalError::SequenceGap { expected: 4, found: 7 };
        assert!(e.to_string().contains("expected record 4"));
        assert!(e.to_string().contains("found 7"));
        let e = WalError::Codec { offset: 25, message: "bad variant".into() };
        assert!(e.to_string().contains("bad variant"));
        let e = WalError::UnknownFrameTag { tag: 0x7f };
        assert!(e.to_string().contains("0x7f"));
        assert!(!WalError::BadMagic.to_string().is_empty());
        // WAL faults are never degradable: no feature fallback fixes a
        // corrupt log.
        assert!(!NedError::Wal(WalError::BadMagic).is_degradable());
    }

    #[test]
    fn degradable_faults() {
        assert!(NedError::BudgetExhausted { spent: 5, budget: 5 }.is_degradable());
        assert!(NedError::DeadlineExceeded { elapsed_ms: 10, budget_ms: 5 }.is_degradable());
        assert!(!NedError::Snapshot(SnapshotError::BadMagic).is_degradable());
        assert!(!NedError::Config { what: "AidaConfig", message: "x".into() }.is_degradable());
    }

    #[test]
    fn degradation_levels_are_ordered() {
        assert!(DegradationLevel::None < DegradationLevel::NoCoherence);
        assert!(DegradationLevel::NoCoherence < DegradationLevel::PriorOnly);
        assert!(!DegradationLevel::None.is_degraded());
        assert!(DegradationLevel::PriorOnly.is_degraded());
        assert_eq!(DegradationLevel::default(), DegradationLevel::None);
        assert_eq!(DegradationLevel::NoCoherence.to_string(), "no-coherence");
    }

    #[test]
    fn panic_messages_are_extracted() {
        let payload = std::panic::catch_unwind(|| panic!("boom {}", 7)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "boom 7");
        let payload = std::panic::catch_unwind(|| panic!("static")).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "static");
    }
}
