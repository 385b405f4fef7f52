//! Precomputed deduplicated phrase-word runs and phrase weight masses.
//!
//! The similarity hot path (Eq. 3.4) evaluates every surviving keyphrase by
//! first sorting and deduplicating its word list (the "run") and then
//! summing the keyword weights over that run (the phrase mass). Both are
//! pure functions of the KB, so recomputing them per (mention, entity,
//! phrase) call is wasted work — and the sort/dedup is a per-call heap
//! allocation, which is what the zero-allocation scoring contract forbids.
//!
//! [`PhraseRuns`] materializes, once at build time:
//!
//! - the sorted-deduplicated word run of every phrase (CSR layout),
//! - the IDF mass of every run (entity-independent),
//! - the NPMI mass of every (entity, own-keyphrase) pair (entity-dependent;
//!   phrases outside an entity's keyphrase set fall back to the caller's
//!   recomputation, which yields the same bits because NPMI of a
//!   non-own word is exactly 0).
//!
//! **Bit-identity contract:** every mass stored here is computed by the
//! *exact* expression the reference `phrase_score` uses —
//! `run.iter().map(weight).sum::<f64>()` over the sorted-deduplicated run —
//! so reading the precomputed value is indistinguishable from recomputing
//! it, down to the sign of zero. `tests/frozen_equivalence.rs` checks this
//! property over random worlds.
//!
//! The structure is persisted as the last section of a snapshot (frame
//! tag 6), which a load checks against the other sections instead of
//! recomputing. Freezing a built KB or compacting an overlay builds it
//! from the keyphrases and weights.

use crate::codec::{CodecError, Reader, Writer};
use crate::ids::{EntityId, PhraseId, WordId};
use crate::keyphrase::EntityPhrase;
use crate::snapshot::{check_ids, check_offsets};
use crate::weights::WeightModel;

/// Sorted-deduplicated phrase-word runs with precomputed weight masses.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PhraseRuns {
    /// CSR offsets into `run_data`; `phrase_count + 1` entries.
    run_offsets: Vec<u32>,
    /// Concatenated sorted-deduplicated word runs of all phrases.
    run_data: Vec<WordId>,
    /// IDF mass of each phrase's run; `phrase_count` entries.
    idf_mass: Vec<f64>,
    /// CSR offsets into `npmi_mass`; `entity_count + 1` entries.
    npmi_offsets: Vec<u32>,
    /// Per entity: (phrase, NPMI mass) for its own keyphrases, sorted by
    /// phrase id and deduplicated.
    npmi_mass: Vec<(PhraseId, f64)>,
}

impl PhraseRuns {
    /// Builds runs and masses from raw accessors (the frozen KB's CSR
    /// arrays), mirroring [`crate::kp_index::KeyphraseIndex::build_raw`].
    pub(crate) fn build_raw<'x>(
        phrase_count: usize,
        entity_count: usize,
        phrases_of: impl Fn(EntityId) -> &'x [EntityPhrase],
        words_of: impl Fn(PhraseId) -> &'x [WordId],
        weights: &WeightModel,
    ) -> Self {
        let mut run_offsets = Vec::with_capacity(phrase_count + 1);
        run_offsets.push(0u32);
        let mut run_data = Vec::new();
        push_runs(&mut run_offsets, &mut run_data, 0..phrase_count, words_of);
        Self::with_masses(run_offsets, run_data, entity_count, phrases_of, weights)
    }

    /// The runs of a KB that extends `base`'s phrases with phrases
    /// `base.phrase_count()..phrase_count`: base runs are copied (a
    /// phrase's words never change), new phrases get their runs, and every
    /// mass is recomputed, because the weights depend on the entity count.
    pub(crate) fn patched<'x>(
        base: &PhraseRuns,
        phrase_count: usize,
        entity_count: usize,
        phrases_of: impl Fn(EntityId) -> &'x [EntityPhrase],
        words_of: impl Fn(PhraseId) -> &'x [WordId],
        weights: &WeightModel,
    ) -> Self {
        let mut run_offsets = Vec::with_capacity(phrase_count + 1);
        run_offsets.extend_from_slice(&base.run_offsets);
        let mut run_data = base.run_data.clone();
        push_runs(&mut run_offsets, &mut run_data, base.phrase_count()..phrase_count, words_of);
        Self::with_masses(run_offsets, run_data, entity_count, phrases_of, weights)
    }

    /// Completes the runs with the IDF mass of every phrase and the NPMI
    /// mass of every (entity, own-keyphrase) pair.
    fn with_masses<'x>(
        run_offsets: Vec<u32>,
        run_data: Vec<WordId>,
        entity_count: usize,
        phrases_of: impl Fn(EntityId) -> &'x [EntityPhrase],
        weights: &WeightModel,
    ) -> Self {
        let phrase_count = run_offsets.len().saturating_sub(1);
        // Exactly the reference computation in `phrase_score`: sum the
        // weights over the sorted-deduplicated run.
        let idf_mass = (0..phrase_count)
            .map(|pi| {
                run_slice(&run_offsets, &run_data, pi)
                    .iter()
                    .map(|&w| weights.word_idf(w))
                    .sum::<f64>()
            })
            .collect();

        let mut npmi_offsets = Vec::with_capacity(entity_count + 1);
        let mut npmi_mass: Vec<(PhraseId, f64)> = Vec::new();
        npmi_offsets.push(0u32);
        // The entity's NPMI row scattered by word id, so each word of a run
        // reads `keyword_npmi(e, w)` (the row's value, else 0.0) without a
        // search.
        let mut npmi_of_word: Vec<f64> = Vec::new();
        for ei in 0..entity_count {
            let e = EntityId::from_index(ei);
            let npmi_row = weights.keyword_npmi_row(e);
            for &(w, v) in npmi_row {
                if npmi_of_word.len() <= w.index() {
                    npmi_of_word.resize(w.index() + 1, 0.0);
                }
                if let Some(slot) = npmi_of_word.get_mut(w.index()) {
                    *slot = v;
                }
            }
            let mut last = None;
            for ep in phrases_of(e) {
                // Keyphrase rows are sorted by phrase id; skip duplicates
                // so the binary-search lookup stays unambiguous.
                if last == Some(ep.phrase) {
                    continue;
                }
                last = Some(ep.phrase);
                let run = run_slice(&run_offsets, &run_data, ep.phrase.index());
                let mass = run
                    .iter()
                    .map(|&w| npmi_of_word.get(w.index()).copied().unwrap_or(0.0))
                    .sum::<f64>();
                npmi_mass.push((ep.phrase, mass));
            }
            for &(w, _) in npmi_row {
                if let Some(slot) = npmi_of_word.get_mut(w.index()) {
                    *slot = 0.0;
                }
            }
            npmi_offsets.push(offset(npmi_mass.len()));
        }

        PhraseRuns { run_offsets, run_data, idf_mass, npmi_offsets, npmi_mass }
    }

    /// Number of phrases the runs were built for.
    pub fn phrase_count(&self) -> usize {
        self.run_offsets.len().saturating_sub(1)
    }

    /// The sorted-deduplicated word run of `p`; empty for out-of-range ids.
    pub fn run(&self, p: PhraseId) -> &[WordId] {
        if p.index() >= self.phrase_count() {
            return &[];
        }
        run_slice(&self.run_offsets, &self.run_data, p.index())
    }

    /// IDF mass of `p`'s run; 0 for out-of-range ids.
    pub fn idf_mass(&self, p: PhraseId) -> f64 {
        self.idf_mass.get(p.index()).copied().unwrap_or(0.0)
    }

    /// NPMI mass of `p`'s run with respect to `e`, if `p` is one of `e`'s
    /// own keyphrases. `None` means "not precomputed" — the caller must
    /// recompute (which for non-own phrases sums all-zero weights).
    pub fn npmi_mass(&self, e: EntityId, p: PhraseId) -> Option<f64> {
        let i = e.index();
        if i + 1 >= self.npmi_offsets.len() {
            return None;
        }
        // ned-lint: allow(p1) — CSR invariant: offsets has entity_count+1 entries
        let row = &self.npmi_mass[self.npmi_offsets[i] as usize..self.npmi_offsets[i + 1] as usize];
        row.binary_search_by_key(&p, |&(x, _)| x).map(|k| row[k].1).ok() // ned-lint: allow(p1) — index returned by binary_search
    }

    /// Writes the phrase-runs section of a snapshot: the run CSR, the IDF
    /// masses, then the NPMI CSR, each entry a phrase id then its mass.
    pub fn encode(&self, w: &mut Writer) {
        w.seq(&self.run_offsets, |w, &o| w.u32(o));
        w.seq(&self.run_data, |w, word| w.u32(word.0));
        w.seq(&self.idf_mass, |w, &x| w.f64(x));
        w.seq(&self.npmi_offsets, |w, &o| w.u32(o));
        w.seq(&self.npmi_mass, |w, &(phrase, mass)| {
            w.u32(phrase.0);
            w.f64(mass);
        });
    }

    /// Reads what [`PhraseRuns::encode`] writes.
    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(PhraseRuns {
            run_offsets: r.seq(Reader::u32)?,
            run_data: r.seq(|r| r.u32().map(WordId))?,
            idf_mass: r.seq(Reader::f64)?,
            npmi_offsets: r.seq(Reader::u32)?,
            npmi_mass: r.seq(|r| Ok((PhraseId(r.u32()?), r.f64()?)))?,
        })
    }

    /// Checks decoded runs against the owning KB's counts (snapshot load):
    /// one run and one IDF mass per phrase, one NPMI row per entity, every
    /// run word below `words` and every NPMI phrase below `phrases`. A
    /// snapshot must never smuggle in mismatched masses.
    pub(crate) fn check(&self, entities: usize, words: usize, phrases: usize) -> Result<(), String> {
        check_offsets(&self.run_offsets, phrases, self.run_data.len(), "run")?;
        if self.idf_mass.len() != phrases {
            return Err(format!("{} IDF masses for {phrases} phrases", self.idf_mass.len()));
        }
        check_offsets(&self.npmi_offsets, entities, self.npmi_mass.len(), "NPMI")?;
        check_ids(self.run_data.iter().map(|w| w.index()), words, "run word")?;
        check_ids(self.npmi_mass.iter().map(|(p, _)| p.index()), phrases, "NPMI phrase")
    }

    /// Approximate heap footprint in bytes (array payloads).
    pub fn approx_heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.run_offsets.len() * size_of::<u32>()
            + self.run_data.len() * size_of::<WordId>()
            + self.idf_mass.len() * size_of::<f64>()
            + self.npmi_offsets.len() * size_of::<u32>()
            + self.npmi_mass.len() * size_of::<(PhraseId, f64)>()
    }
}

/// CSR row `i` of `data` under `offsets` (which has `len + 1` entries).
fn run_slice<'a>(offsets: &[u32], data: &'a [WordId], i: usize) -> &'a [WordId] {
    // ned-lint: allow(p1) — CSR invariant: offsets has phrase_count+1 entries
    &data[offsets[i] as usize..offsets[i + 1] as usize]
}

/// Appends the sorted-deduplicated runs of `phrases` to the CSR arrays.
fn push_runs<'x>(
    run_offsets: &mut Vec<u32>,
    run_data: &mut Vec<WordId>,
    phrases: std::ops::Range<usize>,
    words_of: impl Fn(PhraseId) -> &'x [WordId],
) {
    let mut run = Vec::new();
    for pi in phrases {
        // Exactly the reference computation in `phrase_score`: to_vec,
        // sort_unstable, dedup.
        run.clear();
        run.extend_from_slice(words_of(PhraseId::from_index(pi)));
        run.sort_unstable();
        run.dedup();
        run_data.extend_from_slice(&run);
        run_offsets.push(offset(run_data.len()));
    }
}

/// Converts a data length to a `u32` CSR offset.
///
/// # Panics
/// Panics if `len` exceeds `u32::MAX` (a KB that large would have
/// overflowed its id spaces long before).
fn offset(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("CSR offset overflow: {len}")) // ned-lint: allow(p1) — documented overflow guard
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KbBuilder;
    use crate::entity::EntityKind;
    use crate::frozen::FrozenKb;

    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let jimmy = b.add_entity("Jimmy Page", EntityKind::Person);
        let larry = b.add_entity("Larry Page", EntityKind::Person);
        b.add_keyphrase(jimmy, "hard rock rock", 3);
        b.add_keyphrase(jimmy, "rock guitarist", 2);
        b.add_keyphrase(larry, "search engine", 3);
        FrozenKb::freeze(&b.build())
    }

    #[test]
    fn runs_are_sorted_and_deduplicated() {
        let kb = kb();
        let runs = kb.phrase_runs();
        for pi in 0..runs.phrase_count() {
            let p = PhraseId::from_index(pi);
            let run = runs.run(p);
            assert!(run.windows(2).all(|w| w[0] < w[1]), "run not strictly sorted: {run:?}");
            let mut reference = kb.phrase_words(p).to_vec();
            reference.sort_unstable();
            reference.dedup();
            assert_eq!(run, &reference[..]);
        }
    }

    #[test]
    fn idf_mass_matches_recomputation_bitwise() {
        let kb = kb();
        let runs = kb.phrase_runs();
        for pi in 0..runs.phrase_count() {
            let p = PhraseId::from_index(pi);
            let expected: f64 =
                runs.run(p).iter().map(|&w| kb.weights().word_idf(w)).sum::<f64>();
            assert_eq!(runs.idf_mass(p).to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn npmi_mass_matches_recomputation_bitwise() {
        let kb = kb();
        let runs = kb.phrase_runs();
        for e in kb.entity_ids() {
            for ep in kb.keyphrases(e) {
                let expected: f64 = runs
                    .run(ep.phrase)
                    .iter()
                    .map(|&w| kb.weights().keyword_npmi(e, w))
                    .sum::<f64>();
                let got = runs.npmi_mass(e, ep.phrase).expect("own keyphrase is precomputed");
                assert_eq!(got.to_bits(), expected.to_bits());
            }
        }
    }

    #[test]
    fn non_own_phrase_has_no_precomputed_npmi_mass() {
        let kb = kb();
        let runs = kb.phrase_runs();
        let jimmy = kb.entity_by_name("Jimmy Page").unwrap();
        let larry = kb.entity_by_name("Larry Page").unwrap();
        let larry_phrase = kb.keyphrases(larry)[0].phrase;
        assert!(kb.keyphrases(jimmy).iter().all(|ep| ep.phrase != larry_phrase));
        assert_eq!(runs.npmi_mass(jimmy, larry_phrase), None);
    }

    #[test]
    fn out_of_range_ids_are_harmless() {
        let kb = kb();
        let runs = kb.phrase_runs();
        let bogus_p = PhraseId::from_index(runs.phrase_count() + 3);
        assert!(runs.run(bogus_p).is_empty());
        assert_eq!(runs.idf_mass(bogus_p), 0.0);
        let bogus_e = EntityId::from_index(kb.entity_count() + 3);
        assert_eq!(runs.npmi_mass(bogus_e, PhraseId(0)), None);
    }

    #[test]
    fn check_accepts_built_and_rejects_mismatched() {
        let kb = kb();
        let runs = kb.phrase_runs().clone();
        let (entities, words, phrases) = (kb.entity_count(), kb.word_count(), runs.phrase_count());
        assert_eq!(runs.check(entities, words, phrases), Ok(()));
        assert!(runs.check(entities, words, phrases + 1).is_err());
        assert!(runs.check(entities + 1, words, phrases).is_err());
        // Every word occurs in some run, so the last word id is then out
        // of range.
        assert!(runs.check(entities, words - 1, phrases).is_err());
        let mut truncated = runs.clone();
        truncated.run_data.pop();
        assert!(truncated.check(entities, words, phrases).is_err());
        let mut short_mass = runs;
        short_mass.idf_mass.pop();
        assert!(short_mass.check(entities, words, phrases).is_err());
    }

    #[test]
    fn empty_kb_builds_empty_runs() {
        let kb = FrozenKb::freeze(&KbBuilder::new().build());
        let runs = kb.phrase_runs();
        assert_eq!(runs.phrase_count(), 0);
        assert_eq!(runs.check(0, 0, 0), Ok(()));
        assert_eq!(runs.approx_heap_bytes(), 2 * std::mem::size_of::<u32>());
    }
}
