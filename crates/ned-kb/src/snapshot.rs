//! Compact binary snapshots of a knowledge base.
//!
//! There is one on-disk layout, format version 3: an 8-byte header (magic,
//! version) followed by six section frames in a fixed order — entities,
//! dictionary, links, keyphrases, weights, phrase runs — each
//! length-prefixed and individually FNV-checksummed, decoding straight into
//! the flat arrays of a [`FrozenKb`]. Each section's type writes its own
//! body with an `encode` next to its definition, its fields in declaration
//! order on a [`crate::codec::Writer`] (`Entity`, `FrozenDictionary`,
//! `FrozenLinks`, `FrozenPhrases`, [`WeightModel::encode`],
//! [`PhraseRuns::encode`]), and reads it back with a `decode` on a
//! [`crate::codec::Reader`]. [`write_frozen_snapshot`] writes it,
//! and [`read_frozen_snapshot`] reads back exactly that layout and no
//! other. A KB grows after its snapshot only through the write-ahead log
//! ([`crate::wal`]), so a snapshot plus its log is the whole durable state.
//!
//! Snapshots are hardened against corruption: truncation, bit flips,
//! version skew, misplaced or extra frames and sections that disagree in
//! shape all surface as structured [`SnapshotError`]s — never a panic,
//! never silently garbled data.

use std::io::{self, Read, Write};

use ned_core::{NedError, SnapshotError};
use ned_obs::{names, Metrics};

use crate::codec::{from_bytes, to_bytes, CodecError, Reader, Writer};
use crate::entity::Entity;
use crate::frozen::{FrozenDictionary, FrozenKb, FrozenLinks, FrozenPhrases};
use crate::phrase_runs::PhraseRuns;
use crate::weights::WeightModel;

/// Magic bytes identifying a knowledge-base snapshot.
const MAGIC: &[u8; 6] = b"AIDAKB";

/// The snapshot format version this binary reads and writes. Every other
/// version is rejected with [`SnapshotError::UnsupportedVersion`]: v1
/// ("AIDAKB01", whose version bytes decode as ASCII `"01"`), v2 (one
/// monolithic checksummed body) and any later one.
pub const FORMAT_VERSION: u16 = 3;

/// Header layout: magic (6) + version u16 (2); the section frames follow.
const V3_HEADER_LEN: usize = 8;

/// Section frame prelude: tag u8 (1) + body length u64 (8) + FNV-1a body
/// checksum u64 (8), all little-endian.
const FRAME_PRELUDE_LEN: usize = 17;

/// A section frame's tag, and the section's name in errors and gauges.
struct Section {
    tag: u8,
    name: &'static str,
}

// The six sections, in the order `write_frozen_snapshot` writes them and
// `read_frozen_snapshot` requires them.
const ENTITIES: Section = Section { tag: 1, name: "entities" };
const DICTIONARY: Section = Section { tag: 2, name: "dictionary" };
const LINKS: Section = Section { tag: 3, name: "links" };
const KEYPHRASES: Section = Section { tag: 4, name: "keyphrases" };
const WEIGHTS: Section = Section { tag: 5, name: "weights" };
const PHRASE_RUNS: Section = Section { tag: 6, name: "phrase_runs" };

/// FNV-1a over the snapshot body; not cryptographic, but any truncation or
/// stray bit flip changes it with overwhelming probability. Shared with the
/// WAL's per-record checksums ([`crate::wal`]).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Writes one section frame: tag, body length, FNV-1a body checksum, and
/// the body `encode` writes.
fn write_section<W: Write>(
    writer: &mut W,
    section: Section,
    encode: impl FnOnce(&mut Writer),
) -> Result<(), NedError> {
    let body = to_bytes(encode);
    let mut prelude = [0u8; FRAME_PRELUDE_LEN];
    prelude[0] = section.tag; // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    prelude[1..9].copy_from_slice(&(body.len() as u64).to_le_bytes()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    prelude[9..17].copy_from_slice(&fnv1a(&body).to_le_bytes()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    writer
        .write_all(&prelude)
        .and_then(|()| writer.write_all(&body))
        .map_err(|e| NedError::io("writing snapshot section", e))
}

/// Writes a snapshot of a [`FrozenKb`]: the 8-byte header followed by the
/// six section frames (entities, dictionary, links, keyphrases, weights,
/// phrase_runs), each length-prefixed and individually checksummed.
pub fn write_frozen_snapshot<W: Write>(kb: &FrozenKb, mut writer: W) -> Result<(), NedError> {
    let mut header = [0u8; V3_HEADER_LEN];
    header[..6].copy_from_slice(MAGIC); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    header[6..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    writer.write_all(&header).map_err(|e| NedError::io("writing snapshot header", e))?;
    let (entities, dictionary, links, phrases, weights, phrase_runs) = kb.sections();
    write_section(&mut writer, ENTITIES, |w| w.seq(entities, |w, e| e.encode(w)))?;
    write_section(&mut writer, DICTIONARY, |w| dictionary.encode(w))?;
    write_section(&mut writer, LINKS, |w| links.encode(w))?;
    write_section(&mut writer, KEYPHRASES, |w| phrases.encode(w))?;
    write_section(&mut writer, WEIGHTS, |w| weights.encode(w))?;
    write_section(&mut writer, PHRASE_RUNS, |w| phrase_runs.encode(w))
}

/// Reads the next frame, which must carry `section`, validates its length
/// and checksum, and decodes all of its body with `decode`. Records the
/// body size as a gauge and adds the frame's bytes to `total_bytes`.
fn read_section<R: Read, T>(
    reader: &mut R,
    section: Section,
    metrics: &Metrics,
    total_bytes: &mut u64,
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<T, NedError> {
    let mut prelude = [0u8; FRAME_PRELUDE_LEN];
    let got = read_up_to(reader, &mut prelude)
        .map_err(|e| NedError::io("reading snapshot section header", e))?;
    let [tag, ..] = prelude;
    if got == 0 || tag != section.tag {
        // The stream ended, or a frame stands where this section belongs.
        let known = (ENTITIES.tag..=PHRASE_RUNS.tag).contains(&tag);
        return Err(if got == 0 || known {
            SnapshotError::MissingSection { section: section.name }
        } else {
            SnapshotError::UnknownSection { tag }
        }
        .into());
    }
    if got < FRAME_PRELUDE_LEN {
        return Err(SnapshotError::SectionTruncated {
            section: section.name,
            expected: FRAME_PRELUDE_LEN as u64,
            actual: got as u64,
        }
        .into());
    }
    let len = u64::from_le_bytes(prelude[1..9].try_into().unwrap_or([0; 8])); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    let expected_checksum = u64::from_le_bytes(prelude[9..17].try_into().unwrap_or([0; 8])); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    // Read through `take` instead of preallocating `len` bytes: a corrupted
    // length must not trigger a huge allocation.
    let mut body = Vec::new();
    reader
        .by_ref()
        .take(len)
        .read_to_end(&mut body)
        .map_err(|e| NedError::io("reading snapshot section", e))?;
    if body.len() as u64 != len {
        return Err(SnapshotError::SectionTruncated {
            section: section.name,
            expected: len,
            actual: body.len() as u64,
        }
        .into());
    }
    let actual_checksum = fnv1a(&body);
    if actual_checksum != expected_checksum {
        return Err(SnapshotError::SectionChecksumMismatch {
            section: section.name,
            expected: expected_checksum,
            actual: actual_checksum,
        }
        .into());
    }
    let gauge = format!("{}{}", names::SNAPSHOT_SECTION_BYTES_PREFIX, section.name);
    metrics.gauge(&gauge).set(body.len() as u64);
    *total_bytes += (FRAME_PRELUDE_LEN + body.len()) as u64;
    from_bytes(&body, decode)
        .map_err(|e| NedError::Snapshot(SnapshotError::Codec(format!("{}: {e}", section.name))))
}

/// Reads a snapshot into the read-optimized [`FrozenKb`].
///
/// The stream must hold exactly what [`write_frozen_snapshot`] writes: the
/// header, the six section frames in tag order 1–6, and nothing after them.
///
/// - Any format version but [`FORMAT_VERSION`], v1 and v2 included, is
///   [`SnapshotError::UnsupportedVersion`].
/// - Each frame's length and checksum are validated on their own
///   ([`SnapshotError::SectionTruncated`] /
///   [`SnapshotError::SectionChecksumMismatch`] name the failing section).
/// - A section that is not in its place, because the stream ended or
///   another frame stands there, is [`SnapshotError::MissingSection`]; a
///   frame with an unknown tag is [`SnapshotError::UnknownSection`].
/// - A byte after the last frame, or decoded sections that disagree in
///   shape, are [`SnapshotError::Codec`]. The shape check requires every
///   offset array to index its data from 0 to its end in order, with one
///   row per entity, phrase or name, and every stored id to lie below its
///   count; the error names the section that fails it.
///
/// The sections then go through the constructor [`FrozenKb::freeze`] uses,
/// so the transient indexes (`entity_by_name`, the keyphrase inverted
/// index) are rebuilt: a loaded KB is indistinguishable from a freshly
/// frozen one.
pub fn read_frozen_snapshot<R: Read>(reader: R) -> Result<FrozenKb, NedError> {
    read_frozen_snapshot_observed(reader, &Metrics::disabled())
}

/// [`read_frozen_snapshot`] with load observability: records the read span
/// and per-section body sizes as gauges (`snapshot_section_bytes_<name>`,
/// plus `snapshot_bytes_total`) into the given registry. Pass
/// [`Metrics::disabled`] (or call the plain reader) to skip accounting.
// ned-lint: entry — snapshot load is a recovery root, like WAL replay:
// every byte it decodes comes from outside the process.
pub fn read_frozen_snapshot_observed<R: Read>(
    mut reader: R,
    metrics: &Metrics,
) -> Result<FrozenKb, NedError> {
    let _span = metrics.span(names::STAGE_SNAPSHOT_READ_NS);
    let mut header = [0u8; V3_HEADER_LEN];
    let got = read_up_to(&mut reader, &mut header)
        .map_err(|e| NedError::io("reading snapshot header", e))?;
    if got < V3_HEADER_LEN {
        if got < 6 || &header[..6] != MAGIC { // ned-lint: allow(p1) — fixed-size buffer, constant bounds
            return Err(SnapshotError::BadMagic.into());
        }
        return Err(
            SnapshotError::Truncated { expected: V3_HEADER_LEN as u64, actual: got as u64 }.into()
        );
    }
    if &header[..6] != MAGIC { // ned-lint: allow(p1) — fixed-size buffer, constant bounds
        return Err(SnapshotError::BadMagic.into());
    }
    let version = u16::from_le_bytes([header[6], header[7]]); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    if version != FORMAT_VERSION {
        return Err(
            SnapshotError::UnsupportedVersion { found: version, supported: FORMAT_VERSION }.into()
        );
    }
    let mut total = V3_HEADER_LEN as u64;
    let r = &mut reader;
    let entities = read_section(r, ENTITIES, metrics, &mut total, |r| r.seq(Entity::decode))?;
    let dictionary = read_section(r, DICTIONARY, metrics, &mut total, FrozenDictionary::decode)?;
    let links = read_section(r, LINKS, metrics, &mut total, FrozenLinks::decode)?;
    let phrases = read_section(r, KEYPHRASES, metrics, &mut total, FrozenPhrases::decode)?;
    let weights = read_section(r, WEIGHTS, metrics, &mut total, WeightModel::decode)?;
    let phrase_runs = read_section(r, PHRASE_RUNS, metrics, &mut total, PhraseRuns::decode)?;
    let extra = read_up_to(&mut reader, &mut [0u8; 1])
        .map_err(|e| NedError::io("reading snapshot", e))?;
    if extra > 0 {
        return Err(SnapshotError::Codec("bytes follow the last section".into()).into());
    }
    metrics.gauge(names::SNAPSHOT_BYTES_TOTAL).set(total);

    // Path calls, not `.check()`: a method name with five candidates draws
    // no call-graph edge, and the lint's p2 rule must follow the load into
    // every check.
    let (n, words, phrase_count) = (entities.len(), phrases.word_count(), phrases.phrase_count());
    for (section, shape) in [
        (DICTIONARY, FrozenDictionary::check(&dictionary, n)),
        (LINKS, FrozenLinks::check(&links, n)),
        (KEYPHRASES, FrozenPhrases::check(&phrases, n)),
        (WEIGHTS, WeightModel::check(&weights, n, words, phrase_count)),
        (PHRASE_RUNS, PhraseRuns::check(&phrase_runs, n, words, phrase_count)),
    ] {
        shape.map_err(|e| SnapshotError::Codec(format!("{}: {e}", section.name)))?;
    }
    Ok(FrozenKb::assemble(entities, dictionary, links, phrases, weights, Some(phrase_runs)))
}

/// Checks that `offsets` indexes `rows` rows of a `data_len`-entry array:
/// `rows + 1` offsets that start at 0, never decrease and end at
/// `data_len`. `what` names the array in the error.
pub(crate) fn check_offsets(
    offsets: &[u32],
    rows: usize,
    data_len: usize,
    what: &str,
) -> Result<(), String> {
    if offsets.len() != rows + 1 {
        return Err(format!("{} {what} offsets for {rows} rows", offsets.len()));
    }
    let in_order = offsets.windows(2).all(|w| w.first() <= w.last());
    let ends = offsets.last().map(|&o| o as usize);
    if offsets.first() != Some(&0) || ends != Some(data_len) || !in_order {
        return Err(format!("{what} offsets do not run in order from 0 to {data_len}"));
    }
    Ok(())
}

/// Checks that every id in `ids` lies below `count`. `what` names the ids
/// in the error.
pub(crate) fn check_ids(
    ids: impl IntoIterator<Item = usize>,
    count: usize,
    what: &str,
) -> Result<(), String> {
    match ids.into_iter().find(|&id| id >= count) {
        Some(id) => Err(format!("{what} id {id} is not below {count}")),
        None => Ok(()),
    }
}

/// Fills `buf` as far as the stream allows; returns the bytes read. Unlike
/// `read_exact`, a short stream is reported by count, not an error, so the
/// caller can distinguish bad magic from truncation. Shared with the WAL
/// replayer ([`crate::wal`]), which needs the same distinction per frame.
pub(crate) fn read_up_to<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) { // ned-lint: allow(p1) — fixed-size buffer, constant bounds
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityKind;
    use crate::store::KnowledgeBase;
    use crate::KbBuilder;

    fn sample_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        let a = b.add_entity("Alpha Band", EntityKind::Organization);
        let c = b.add_entity("Alpha City", EntityKind::Location);
        b.add_name(a, "Alpha", 10);
        b.add_name(c, "Alpha", 90);
        b.add_keyphrase(a, "rock band", 3);
        b.add_keyphrase(c, "coastal city", 2);
        b.add_link(a, c);
        b.build()
    }

    /// The v3 bytes of the sample KB, frozen.
    fn sample_snapshot() -> Vec<u8> {
        let mut buf = Vec::new();
        write_frozen_snapshot(&FrozenKb::freeze(&sample_kb()), &mut buf).unwrap();
        buf
    }

    #[test]
    fn rejects_version_skew() {
        let buf = sample_snapshot();
        // v1 started with the ASCII bytes "AIDAKB01"; v2 is the retired
        // monolithic format; v4 is a future one. All are version skew.
        for version in [u16::from_le_bytes(*b"01"), 1, 2, FORMAT_VERSION + 1] {
            let mut skewed = buf.clone();
            skewed[6..8].copy_from_slice(&version.to_le_bytes());
            match read_frozen_snapshot(skewed.as_slice()).unwrap_err() {
                NedError::Snapshot(SnapshotError::UnsupportedVersion { found, supported }) => {
                    assert_eq!(found, version);
                    assert_eq!(supported, FORMAT_VERSION);
                }
                other => panic!("expected version skew, got {other}"),
            }
        }
    }

    #[test]
    fn corrupted_frame_length_errors_without_allocating_it() {
        // The entities frame claims u64::MAX body bytes: the reader must
        // report truncation, not try to allocate them.
        let mut huge = sample_snapshot();
        huge[V3_HEADER_LEN + 1..V3_HEADER_LEN + 9].copy_from_slice(&u64::MAX.to_le_bytes());
        match read_frozen_snapshot(huge.as_slice()).unwrap_err() {
            NedError::Snapshot(SnapshotError::SectionTruncated { section, expected, .. }) => {
                assert_eq!(section, "entities");
                assert_eq!(expected, u64::MAX);
            }
            other => panic!("expected a truncated section, got {other}"),
        }
    }

    fn assert_frozen_matches(fz: &FrozenKb, kb: &KnowledgeBase) {
        assert_eq!(fz.entity_count(), kb.entity_count());
        for e in kb.entity_ids() {
            assert_eq!(fz.entity(e).canonical_name, kb.entity(e).canonical_name);
            assert_eq!(fz.keyphrases(e), kb.keyphrases(e));
            assert_eq!(fz.links().inlinks(e), kb.links().inlinks(e));
            assert_eq!(fz.links().outlinks(e), kb.links().outlinks(e));
        }
        assert_eq!(fz.candidates("Alpha"), kb.candidates("Alpha"));
        for e in kb.entity_ids() {
            assert_eq!(fz.prior("Alpha", e).to_bits(), kb.prior("Alpha", e).to_bits());
        }
        let reference = FrozenKb::freeze(kb).keyphrase_index().posting_count();
        assert_eq!(fz.keyphrase_index().posting_count(), reference);
    }

    #[test]
    fn v3_roundtrip_preserves_frozen_kb() {
        let kb = sample_kb();
        let buf = sample_snapshot();
        assert_eq!(u16::from_le_bytes([buf[6], buf[7]]), FORMAT_VERSION);
        let fz2 = read_frozen_snapshot(buf.as_slice()).unwrap();
        assert_frozen_matches(&fz2, &kb);
        // Numeric weight content survives the section framing.
        let a = kb.entity_by_name("Alpha Band").unwrap();
        let w = kb.word_id("rock").unwrap();
        assert_eq!(fz2.weights().keyword_npmi(a, w), kb.weights().keyword_npmi(a, w));
    }

    #[test]
    fn v3_section_corruption_names_the_section() {
        let buf = sample_snapshot();
        // The first frame after the 8-byte header is the entities section;
        // flip a byte inside its body.
        let body_len =
            u64::from_le_bytes(buf[9..17].try_into().unwrap()) as usize;
        assert!(body_len > 0);
        let mut corrupted = buf.clone();
        corrupted[V3_HEADER_LEN + FRAME_PRELUDE_LEN] ^= 0x01;
        match read_frozen_snapshot(corrupted.as_slice()).unwrap_err() {
            NedError::Snapshot(SnapshotError::SectionChecksumMismatch { section, .. }) => {
                assert_eq!(section, "entities");
            }
            other => panic!("expected section checksum mismatch, got {other}"),
        }
        // Every single-byte flip anywhere in the stream must error, never
        // panic or decode garbage.
        for pos in V3_HEADER_LEN..buf.len() {
            let mut corrupted = buf.clone();
            corrupted[pos] ^= 0xff;
            assert!(
                read_frozen_snapshot(corrupted.as_slice()).is_err(),
                "flip at {pos} slipped through"
            );
        }
        // Every strict prefix errors too: all six frames are required.
        for cut in 0..buf.len() {
            assert!(read_frozen_snapshot(&buf[..cut]).is_err(), "cut at {cut} did not error");
        }
    }

    /// Byte offsets of every v3 frame start, in stream order.
    fn frame_starts(buf: &[u8]) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut pos = V3_HEADER_LEN;
        while pos < buf.len() {
            starts.push(pos);
            let body_len =
                u64::from_le_bytes(buf[pos + 1..pos + 9].try_into().unwrap()) as usize;
            pos += FRAME_PRELUDE_LEN + body_len;
        }
        starts
    }

    /// `buf` with its frame at `index` replaced by a frame of `tag` whose
    /// body is what `encode` writes, checksummed so that only its shape is
    /// wrong.
    fn with_frame(buf: &[u8], index: usize, tag: u8, encode: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut ends = frame_starts(buf);
        ends.push(buf.len());
        let body = to_bytes(encode);
        let mut out = buf[..ends[index]].to_vec();
        out.push(tag);
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&buf[ends[index + 1]..]);
        out
    }

    /// The section a shape error names, from its message.
    fn shape_error_section(err: NedError) -> String {
        match err {
            NedError::Snapshot(SnapshotError::Codec(msg)) => {
                msg.split(':').next().unwrap().to_string()
            }
            other => panic!("expected a shape error, got {other}"),
        }
    }

    #[test]
    fn v3_missing_section_is_reported() {
        let buf = sample_snapshot();
        let starts = frame_starts(&buf);
        assert_eq!(starts.len(), 6, "expected six frames");
        for (start, section) in starts.iter().zip(
            ["entities", "dictionary", "links", "keyphrases", "weights", "phrase_runs"],
        ) {
            match read_frozen_snapshot(&buf[..*start]).unwrap_err() {
                NedError::Snapshot(SnapshotError::MissingSection { section: missing }) => {
                    assert_eq!(missing, section);
                }
                other => panic!("expected missing section {section}, got {other}"),
            }
        }
    }

    #[test]
    fn v3_phrase_run_section_is_required_and_roundtrips() {
        let fz = FrozenKb::freeze(&sample_kb());
        let buf = sample_snapshot();
        let starts = frame_starts(&buf);
        assert_eq!(buf[starts[5]], 6, "phrase-run frame tag");

        // The full stream decodes the persisted runs, equal to the freshly
        // frozen structure.
        let loaded = read_frozen_snapshot(buf.as_slice()).unwrap();
        assert_eq!(loaded.phrase_runs(), fz.phrase_runs());
        assert_eq!(loaded.stats().phrase_run_bytes, fz.stats().phrase_run_bytes);

        // A stream cut before the phrase-run frame lacks a section.
        assert!(matches!(
            read_frozen_snapshot(&buf[..starts[5]]),
            Err(NedError::Snapshot(SnapshotError::MissingSection { section: "phrase_runs" }))
        ));

        // A phrase-run section that decodes but does not fit the KB's
        // dimensions is rejected, not trusted and not rebuilt.
        let foreign = {
            let mut b = KbBuilder::new();
            let e = b.add_entity("Lone", EntityKind::Other);
            b.add_keyphrase(e, "single phrase", 1);
            FrozenKb::freeze(&b.build()).phrase_runs().clone()
        };
        let swapped = with_frame(&buf, 5, 6, |w| foreign.encode(w));
        let err = read_frozen_snapshot(swapped.as_slice()).unwrap_err();
        assert_eq!(shape_error_section(err), "phrase_runs");
    }

    #[test]
    fn v3_sections_that_disagree_in_shape_are_rejected() {
        let buf = sample_snapshot();
        // A dictionary with no offsets at all: not even the leading 0.
        let err = read_frozen_snapshot(
            with_frame(&buf, 1, 2, |w| FrozenDictionary::default().encode(w)).as_slice(),
        )
        .unwrap_err();
        assert_eq!(shape_error_section(err), "dictionary");
        // Sections of an empty KB: no rows where the entities frame has two.
        let empty = FrozenKb::freeze(&KbBuilder::new().build());
        let (_, dictionary, links, phrases, weights, runs) = empty.sections();
        let err = read_frozen_snapshot(with_frame(&buf, 2, 3, |w| links.encode(w)).as_slice())
            .unwrap_err();
        assert_eq!(shape_error_section(err), "links");
        let err = read_frozen_snapshot(with_frame(&buf, 3, 4, |w| phrases.encode(w)).as_slice())
            .unwrap_err();
        assert_eq!(shape_error_section(err), "keyphrases");
        let err = read_frozen_snapshot(with_frame(&buf, 4, 5, |w| weights.encode(w)).as_slice())
            .unwrap_err();
        assert_eq!(shape_error_section(err), "weights");
        let err = read_frozen_snapshot(with_frame(&buf, 5, 6, |w| runs.encode(w)).as_slice())
            .unwrap_err();
        assert_eq!(shape_error_section(err), "phrase_runs");
        // The empty KB's dictionary has no rows, so it is consistent with
        // any entity count.
        let consistent = with_frame(&buf, 1, 2, |w| dictionary.encode(w));
        assert!(read_frozen_snapshot(consistent.as_slice()).is_ok());
    }

    #[test]
    fn v3_unknown_tag_is_rejected() {
        let mut corrupted = sample_snapshot();
        corrupted[V3_HEADER_LEN] = 0x77; // entities frame tag → nonsense
        match read_frozen_snapshot(corrupted.as_slice()).unwrap_err() {
            NedError::Snapshot(SnapshotError::UnknownSection { tag }) => assert_eq!(tag, 0x77),
            other => panic!("expected unknown section, got {other}"),
        }
    }

    #[test]
    fn observed_read_records_section_sizes() {
        let kb = sample_kb();
        let buf = sample_snapshot();
        let m = Metrics::new();
        let fz2 = read_frozen_snapshot_observed(buf.as_slice(), &m).unwrap();
        assert_frozen_matches(&fz2, &kb);
        let snap = m.snapshot();
        assert_eq!(snap.gauge(names::SNAPSHOT_BYTES_TOTAL), buf.len() as u64);
        for section in
            ["entities", "dictionary", "links", "keyphrases", "weights", "phrase_runs"]
        {
            let gauge = format!("{}{section}", names::SNAPSHOT_SECTION_BYTES_PREFIX);
            assert!(snap.gauge(&gauge) > 0, "section {section} size not recorded");
        }
        // Section sizes account for the whole stream minus framing.
        let framed: u64 = snap
            .gauges
            .iter()
            .filter(|(n, _)| n.starts_with(names::SNAPSHOT_SECTION_BYTES_PREFIX))
            .map(|&(_, v)| v + FRAME_PRELUDE_LEN as u64)
            .sum();
        assert_eq!(framed + V3_HEADER_LEN as u64, buf.len() as u64);
        // The read span counted one invocation (zero duration: null clock).
        let (_, span) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == names::STAGE_SNAPSHOT_READ_NS)
            .expect("snapshot read span recorded");
        assert_eq!(span.count, 1);
        assert_eq!(span.sum, 0);
    }

    #[test]
    fn v3_rejects_bad_magic() {
        let err = read_frozen_snapshot(&b"NOTAKB03"[..]).unwrap_err();
        assert!(matches!(err, NedError::Snapshot(SnapshotError::BadMagic)), "{err}");
        let err = read_frozen_snapshot(&b"AI"[..]).unwrap_err();
        assert!(matches!(err, NedError::Snapshot(SnapshotError::BadMagic)), "{err}");
    }
}
