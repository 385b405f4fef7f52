//! Corpus (de)serialization: save generated gold corpora to disk and load
//! them back, so expensive corpus generation can be cached between runs and
//! gold data can be shared (the thesis publishes its annotated corpora the
//! same way).

use std::io::{self, Read, Write};

use ned_eval::gold::GoldDoc;
use ned_kb::snapshot::{decode, encode};

/// Magic header identifying a gold-corpus file.
const MAGIC: &[u8; 8] = b"AIDADOC1";

/// Writes a slice of gold documents.
pub fn write_docs<W: Write>(docs: &[GoldDoc], mut writer: W) -> io::Result<()> {
    let body =
        encode(&docs.to_vec()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    writer.write_all(MAGIC)?;
    writer.write_all(&(body.len() as u64).to_le_bytes())?;
    writer.write_all(&body)
}

/// Reads gold documents written by [`write_docs`]. A document whose mention
/// spans fail [`GoldDoc::validate`] is an [`io::ErrorKind::InvalidData`]
/// error carrying the [`ned_eval::gold::SpanError`].
pub fn read_docs<R: Read>(mut reader: R) -> io::Result<Vec<GoldDoc>> {
    let mut magic = [0u8; 8];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not a gold-corpus file"));
    }
    let mut len_bytes = [0u8; 8];
    reader.read_exact(&mut len_bytes)?;
    let len = u64::from_le_bytes(len_bytes);
    let mut body = Vec::new();
    reader.by_ref().take(len).read_to_end(&mut body)?;
    if body.len() as u64 != len {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated corpus body"));
    }
    let docs: Vec<GoldDoc> =
        decode(&body).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    for doc in &docs {
        doc.validate().map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    }
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::corpus::conll_like;
    use crate::{ExportedKb, World};

    fn docs() -> Vec<GoldDoc> {
        let world = World::generate(WorldConfig::tiny(61));
        let exported = ExportedKb::build(&world);
        conll_like(&world, &exported, 1, 6).docs
    }

    #[test]
    fn roundtrip_preserves_documents() {
        let original = docs();
        let mut buf = Vec::new();
        write_docs(&original, &mut buf).unwrap();
        let restored = read_docs(buf.as_slice()).unwrap();
        assert_eq!(original, restored);
    }

    /// Length and FNV-1a of the six-document `docs()` corpus.
    const PINNED_LEN: usize = 16_762;
    const PINNED_FNV: u64 = 0x0f64_ef5d_7e97_4ef9;

    /// FNV-1a (64-bit) of `bytes`.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The codec's bytes are pinned: the length and FNV-1a of a seeded
    /// corpus, as written before tokens stored their text inline. A change
    /// to the token or mention layout must not change a corpus file.
    #[test]
    fn corpus_bytes_are_pinned() {
        let original = docs();
        let mut buf = Vec::new();
        write_docs(&original, &mut buf).unwrap();
        assert_eq!((buf.len(), fnv1a(&buf)), (PINNED_LEN, PINNED_FNV));
        assert_eq!(read_docs(buf.as_slice()).unwrap(), original);
    }

    #[test]
    fn rejects_wrong_magic() {
        let err = read_docs(&b"WRONGMAGplus some data"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncation() {
        let original = docs();
        let mut buf = Vec::new();
        write_docs(&original, &mut buf).unwrap();
        assert!(read_docs(&buf[..buf.len() / 2]).is_err());
        assert!(read_docs(&buf[..10]).is_err());
    }

    #[test]
    fn rejects_mention_spans_outside_the_tokens() {
        use ned_eval::gold::SpanError;
        for expected in [SpanError::OutOfRange { index: 0 }, SpanError::Empty { index: 0 }] {
            let mut bad = docs();
            let doc = bad.iter_mut().find(|d| !d.mentions.is_empty()).unwrap();
            let n_tokens = doc.tokens.len();
            let mention = &mut doc.mentions[0].mention;
            match expected {
                SpanError::Empty { .. } => mention.token_start = mention.token_end,
                _ => mention.token_end = n_tokens + 1,
            }
            let mut buf = Vec::new();
            write_docs(&bad, &mut buf).unwrap();
            let err = read_docs(buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let span = err.get_ref().and_then(|e| e.downcast_ref::<SpanError>());
            assert_eq!(span, Some(&expected), "{err}");
        }
    }

    #[test]
    fn empty_corpus_roundtrips() {
        let mut buf = Vec::new();
        write_docs(&[], &mut buf).unwrap();
        assert!(read_docs(buf.as_slice()).unwrap().is_empty());
    }
}
