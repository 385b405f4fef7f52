//! Keyphrase-based mention–entity similarity (§3.3.4, Eqs. 3.4–3.6).
//!
//! For a mention `m` and candidate entity `e`:
//!
//! `simscore(m, e) = Σ_{q ∈ KP(e)} score(q)` where
//! `score(q) = z · (Σ_{w ∈ cover} weight(w) / Σ_{w ∈ q} weight(w))²`
//! and `z = #matching words / cover length`.
//!
//! `weight(w)` is either the entity-specific NPMI or the global IDF,
//! selected by [`KeywordWeighting`].

use ned_kb::{EntityId, KbView, PhraseId, WordId};

use crate::config::KeywordWeighting;
use crate::cover::{shortest_cover, shortest_cover_into, CoverScratch};
use crate::obs::SimObs;
use crate::scratch::{with_scratch, ScoringScratch};

/// Computes `score(q)` (Eq. 3.4) for one keyphrase of `e` against a mention
/// context given as position-sorted `(pos, word)` pairs.
///
/// This is the reference implementation: it re-derives the deduplicated
/// phrase word set and its weight mass on every call. The hot path uses
/// [`phrase_score_run`], which reads both from the KB's precomputed
/// [`PhraseRuns`](ned_kb::PhraseRuns) and is verified bit-identical.
pub fn phrase_score<K: KbView + ?Sized>(
    kb: &K,
    e: EntityId,
    phrase_words: &[WordId],
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
) -> f64 {
    let weight = |w: WordId| -> f64 {
        match weighting {
            KeywordWeighting::Npmi => kb.weights().keyword_npmi(e, w),
            KeywordWeighting::Idf => kb.weights().word_idf(w),
        }
    };
    let phrase_mass: f64 = {
        let mut ws: Vec<WordId> = phrase_words.to_vec();
        ws.sort_unstable();
        ws.dedup();
        ws.iter().map(|&w| weight(w)).sum()
    };
    if phrase_mass <= 0.0 {
        return 0.0;
    }
    let Some(cover) = shortest_cover(context, phrase_words) else {
        return 0.0;
    };
    let cover_mass: f64 = cover.words.iter().map(|&w| weight(w)).sum();
    if cover_mass <= 0.0 {
        return 0.0;
    }
    let ratio = (cover_mass / phrase_mass).min(1.0);
    cover.z() * ratio * ratio
}

/// [`phrase_score`] for an interned keyphrase, reading the precomputed
/// deduplicated word run and weight masses from the KB's
/// [`PhraseRuns`](ned_kb::PhraseRuns) and reusing the caller's cover
/// buffers. Bit-identical to the reference:
///
/// - the precomputed masses were summed with the exact reference expression
///   over the exact reference word order (sorted, deduplicated);
/// - the scratch cover scan finds the same window and word set (membership
///   over the sorted run is set-equivalent to `contains` on the raw words);
/// - the cover mass is accumulated in the same ascending-word-id order. The
///   accumulator starts at `+0.0` where `Iterator::sum` starts at `-0.0`,
///   which can only differ when every term is a signed zero — and then both
///   paths take the `cover_mass <= 0.0` early return.
// ned-lint: hot
pub fn phrase_score_run<K: KbView + ?Sized>(
    kb: &K,
    e: EntityId,
    p: PhraseId,
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
    cover: &mut CoverScratch,
) -> f64 {
    let runs = kb.phrase_runs();
    let run = runs.run(p);
    let phrase_mass = match weighting {
        KeywordWeighting::Npmi => runs.npmi_mass(e, p).unwrap_or_else(|| {
            // Not an own phrase of `e` (no precomputed row entry): fall back
            // to the reference expression over the run.
            run.iter().map(|&w| kb.weights().keyword_npmi(e, w)).sum()
        }),
        KeywordWeighting::Idf => runs.idf_mass(p),
    };
    if phrase_mass <= 0.0 {
        return 0.0;
    }
    let Some(shape) = shortest_cover_into(context, run, cover) else {
        return 0.0;
    };
    // Iterator-free indexed fold over the cover words so the compiler can
    // keep the weight lookups in a tight loop.
    let cw = cover.cover_words();
    let mut cover_mass = 0.0f64;
    let mut i = 0usize;
    while i < cw.len() {
        let w = cw[i]; // ned-lint: allow(p1) — i < len by loop bound
        cover_mass += match weighting {
            KeywordWeighting::Npmi => kb.weights().keyword_npmi(e, w),
            KeywordWeighting::Idf => kb.weights().word_idf(w),
        };
        i += 1;
    }
    if cover_mass <= 0.0 {
        return 0.0;
    }
    let ratio = (cover_mass / phrase_mass).min(1.0);
    shape.z() * ratio * ratio
}

/// `simscore(m, e)` (Eq. 3.6): the sum of phrase scores over all keyphrases
/// of `e`.
///
/// Uses the knowledge base's keyphrase inverted index to visit only the
/// phrases sharing at least one word with the context. The pruning is exact:
/// a phrase with no context word has no shortest cover and scores exactly
/// 0.0, so the result is bit-identical to [`simscore_exhaustive`] (both sum
/// the surviving phrases in ascending phrase-id order, and adding a +0.0
/// term never changes an IEEE sum of non-negative terms).
pub fn simscore<K: KbView + ?Sized>(
    kb: &K,
    e: EntityId,
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
) -> f64 {
    simscore_indexed(kb, e, context, &context_word_set(context), weighting)
}

/// The distinct words of a context window, sorted — the query set for the
/// keyphrase inverted index. Callers scoring many candidates against the
/// same context should compute this once and use [`simscore_indexed`].
pub fn context_word_set(context: &[(usize, WordId)]) -> Vec<WordId> {
    let mut ws: Vec<WordId> = context.iter().map(|&(_, w)| w).collect();
    ws.sort_unstable();
    ws.dedup();
    ws
}

/// [`simscore`] with the context's word set precomputed; bit-identical to
/// `simscore`. `context_words` must be sorted and deduplicated (as produced
/// by [`context_word_set`]).
pub fn simscore_indexed<K: KbView + ?Sized>(
    kb: &K,
    e: EntityId,
    context: &[(usize, WordId)],
    context_words: &[WordId],
    weighting: KeywordWeighting,
) -> f64 {
    simscore_observed(kb, e, context, context_words, weighting, &SimObs::default())
}

/// [`simscore_indexed`] with work counters: which query plan was chosen,
/// how many index postings were scanned, and how many phrases survived
/// pruning. The counters never influence the score — passing
/// [`SimObs::default`] (disabled handles) is bit-identical to
/// [`simscore_indexed`].
pub fn simscore_observed<K: KbView + ?Sized>(
    kb: &K,
    e: EntityId,
    context: &[(usize, WordId)],
    context_words: &[WordId],
    weighting: KeywordWeighting,
    obs: &SimObs,
) -> f64 {
    with_scratch(|scratch| {
        simscore_with_arena(kb, e, context, context_words, weighting, obs, scratch)
    })
}

/// [`simscore_observed`] against an explicit scoring arena — the inner form
/// used once a scratch is already held (the batched candidate pass, the
/// thread-local wrapper).
pub(crate) fn simscore_with_arena<K: KbView + ?Sized>(
    kb: &K,
    e: EntityId,
    context: &[(usize, WordId)],
    context_words: &[WordId],
    weighting: KeywordWeighting,
    obs: &SimObs,
    scratch: &mut ScoringScratch,
) -> f64 {
    let ScoringScratch { cover, matching, .. } = scratch;
    obs.evaluations.inc();
    // Adaptive query plan: enumerate the phrases sharing ≥ 1 word with the
    // context from whichever side is smaller — probe the inverted index per
    // context word, or scan KP(e) testing each phrase word against the
    // sorted context word set. Both yield the same phrases in ascending
    // phrase-id order, so the score is bitwise independent of the plan.
    let kp = kb.keyphrases(e);
    if kp.len() <= context_words.len() {
        obs.plan_entity_side.inc();
        matching.clear();
        // The precomputed run is the deduplicated word set of the phrase;
        // `any` over it decides exactly like `any` over the raw word list.
        matching.extend(
            kp.iter()
                .filter(|ep| {
                    kb.phrase_runs()
                        .run(ep.phrase)
                        .iter()
                        .any(|w| context_words.binary_search(w).is_ok())
                })
                .map(|ep| ep.phrase),
        );
    } else {
        obs.plan_word_side.inc();
        let scanned = kb.keyphrase_index().matching_phrases_into(e, context_words, matching);
        obs.postings_scanned.add(scanned);
    }
    obs.phrases_matched.add(matching.len() as u64);
    // fold(0.0) rather than sum(): Iterator::sum's identity is -0.0, which
    // would make an empty phrase set differ in sign bit from an exhaustive
    // sum of zeros.
    matching
        .iter()
        .fold(0.0, |acc, &p| acc + phrase_score_run(kb, e, p, context, weighting, cover))
}

/// Batched `simscore` over every candidate of one mention: scores all
/// `entities` against the same context in one pass and returns the scores in
/// input order. Bit-identical to calling [`simscore_indexed`] per entity —
/// the batching only changes *when* each candidate's postings are gathered,
/// never which postings, their per-candidate order, or the summation order.
// ned-lint: hot
pub fn simscores_batch<K: KbView + ?Sized>(
    kb: &K,
    entities: &[EntityId],
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
    obs: &SimObs,
) -> Vec<f64> {
    let mut out = Vec::new(); // ned-lint: allow(h1) — compat wrapper returns an owned Vec by contract; the zero-alloc path is simscores_batch_into
    simscores_batch_into(kb, entities, context, weighting, obs, &mut out);
    out
}

/// [`simscores_batch`] writing into a caller-owned buffer (cleared first).
/// With a warmed per-thread arena and a reused `out` buffer, a steady-state
/// call performs zero heap allocations — this is the entry point the bench
/// harness uses to certify the allocation-free hot path.
// ned-lint: hot
pub fn simscores_batch_into<K: KbView + ?Sized>(
    kb: &K,
    entities: &[EntityId],
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
    obs: &SimObs,
    out: &mut Vec<f64>,
) {
    with_scratch(|scratch| {
        scratch.context_words.clear();
        scratch.context_words.extend(context.iter().map(|&(_, w)| w));
        scratch.context_words.sort_unstable();
        scratch.context_words.dedup();
        simscores_batch_arena(
            kb,
            entities.len(),
            |i| entities[i], // ned-lint: allow(p1) — i < entities.len() by construction
            context,
            weighting,
            obs,
            scratch,
        );
        out.clear();
        out.extend_from_slice(&scratch.sims);
    });
}

/// The batched scoring pass. Requires `scratch.context_words` to already
/// hold the sorted-deduplicated context word set; leaves the scores in
/// `scratch.sims`, in candidate order.
///
/// Counter identity with the per-candidate path: every candidate records one
/// evaluation and one plan decision in candidate order; word-side postings
/// and matched-phrase counts are recorded per candidate during the merge
/// phases. All counters are atomic adds, so the totals are independent of
/// the recording order.
// ned-lint: hot
pub(crate) fn simscores_batch_arena<K: KbView + ?Sized>(
    kb: &K,
    n: usize,
    entity_at: impl Fn(usize) -> EntityId,
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
    obs: &SimObs,
    scratch: &mut ScoringScratch,
) {
    let ScoringScratch { cover, context_words, matching, word_side, phrase_bufs, sims } = scratch;
    let context_words: &[WordId] = context_words;
    sims.clear();
    word_side.clear();
    let idx = kb.keyphrase_index();
    let runs = kb.phrase_runs();

    // Phase A — plan each candidate in candidate order. Entity-side plans
    // (KP(e) no larger than the context word set) are scored immediately;
    // word-side plans are registered for the shared merge pass.
    for i in 0..n {
        let e = entity_at(i);
        obs.evaluations.inc();
        let kp = kb.keyphrases(e);
        if kp.len() <= context_words.len() {
            obs.plan_entity_side.inc();
            matching.clear();
            matching.extend(
                kp.iter()
                    .filter(|ep| {
                        runs.run(ep.phrase)
                            .iter()
                            .any(|w| context_words.binary_search(w).is_ok())
                    })
                    .map(|ep| ep.phrase),
            );
            obs.phrases_matched.add(matching.len() as u64);
            let s = matching
                .iter()
                .fold(0.0, |acc, &p| acc + phrase_score_run(kb, e, p, context, weighting, cover));
            sims.push(s);
        } else {
            obs.plan_word_side.inc();
            word_side.push((e, i));
            sims.push(0.0);
        }
    }
    if word_side.is_empty() {
        return;
    }

    // Phase B — entity-major order for the merge. Duplicate candidate
    // entities (not produced by the dictionary, but allowed by the API)
    // fall back to the per-candidate probe so each occurrence does — and
    // records — its own work, exactly like the unbatched path.
    word_side.sort_unstable();
    let has_duplicate = word_side.windows(2).any(|p| p[0].0 == p[1].0); // ned-lint: allow(p1) — windows(2) pairs
    if has_duplicate {
        for &(e, i) in word_side.iter() {
            let scanned = idx.matching_phrases_into(e, context_words, matching);
            obs.postings_scanned.add(scanned);
            obs.phrases_matched.add(matching.len() as u64);
            sims[i] = matching // ned-lint: allow(p1) — i < n, sims has n entries
                .iter()
                .fold(0.0, |acc, &p| acc + phrase_score_run(kb, e, p, context, weighting, cover));
        }
        return;
    }

    // Phase C — one pass over each context word's postings, accumulating
    // phrase ids entity-major into dense per-candidate slots. The postings
    // list and the candidate list are both entity-sorted, so a monotone
    // cursor localizes each binary search to the unconsumed suffix; the
    // slices found are exactly `entity_postings(e, w)`. For a fixed
    // candidate, pushes happen in context-word order — the per-candidate
    // probe order — so phase D's sort+dedup reproduces
    // `matching_phrases_counted` exactly.
    while phrase_bufs.len() < word_side.len() {
        phrase_bufs.push(Vec::new()); // ned-lint: allow(h1) — arena warmup growth; steady state reuses these buffers and the alloc ratchet counts the warmup
    }
    for buf in phrase_bufs.iter_mut().take(word_side.len()) {
        buf.clear();
    }
    for &w in context_words.iter() {
        let postings = idx.postings(w);
        let mut pos = 0usize;
        for (slot, &(e, _)) in word_side.iter().enumerate() {
            let lo = pos + postings[pos..].partition_point(|&(pe, _)| pe < e); // ned-lint: allow(p1) — pos ≤ len cursor
            let hi = lo + postings[lo..].partition_point(|&(pe, _)| pe == e); // ned-lint: allow(p1) — lo ≤ len by partition
            phrase_bufs[slot].extend(postings[lo..hi].iter().map(|&(_, p)| p)); // ned-lint: allow(p1) — slot < word_side len
            pos = hi;
        }
    }

    // Phase D — per-candidate dedup and ascending-phrase-id fold: the
    // reference summation order, term for term.
    for (slot, &(e, i)) in word_side.iter().enumerate() {
        let buf = &mut phrase_bufs[slot]; // ned-lint: allow(p1) — slot < word_side len
        obs.postings_scanned.add(buf.len() as u64);
        buf.sort_unstable();
        buf.dedup();
        obs.phrases_matched.add(buf.len() as u64);
        sims[i] = buf // ned-lint: allow(p1) — i < n, sims has n entries
            .iter()
            .fold(0.0, |acc, &p| acc + phrase_score_run(kb, e, p, context, weighting, cover));
    }
}

/// Reference implementation of `simscore(m, e)` scanning all of KP(e)
/// without the inverted index. Kept for tests asserting the index prunes
/// exactly.
pub fn simscore_exhaustive<K: KbView + ?Sized>(
    kb: &K,
    e: EntityId,
    context: &[(usize, WordId)],
    weighting: KeywordWeighting,
) -> f64 {
    kb.keyphrases(e)
        .iter()
        .map(|ep| phrase_score(kb, e, kb.phrase_words(ep.phrase), context, weighting))
        .fold(0.0, |acc, s| acc + s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::DocumentContext;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_text::tokenize;

    /// Jimmy Page vs Larry Page with distinctive keyphrases.
    fn kb() -> (FrozenKb, EntityId, EntityId) {
        let mut b = KbBuilder::new();
        let jimmy = b.add_entity("Jimmy Page", EntityKind::Person);
        let larry = b.add_entity("Larry Page", EntityKind::Person);
        b.add_keyphrase(jimmy, "Gibson guitar", 2);
        b.add_keyphrase(jimmy, "hard rock chords", 3);
        b.add_keyphrase(jimmy, "Grammy Award winner", 1);
        b.add_keyphrase(larry, "search engine", 3);
        b.add_keyphrase(larry, "Stanford university", 2);
        (FrozenKb::freeze(&b.build()), jimmy, larry)
    }

    fn context_of(kb: &FrozenKb, text: &str) -> Vec<(usize, WordId)> {
        DocumentContext::build(kb, &tokenize(text)).words
    }

    #[test]
    fn matching_context_scores_higher() {
        let (kb, jimmy, larry) = kb();
        let ctx = context_of(&kb, "played unusual chords on his Gibson guitar");
        let sj = simscore(&kb, jimmy, &ctx, KeywordWeighting::Npmi);
        let sl = simscore(&kb, larry, &ctx, KeywordWeighting::Npmi);
        assert!(sj > 0.0);
        assert_eq!(sl, 0.0);
    }

    #[test]
    fn full_adjacent_match_beats_scattered_match() {
        let (kb, jimmy, _) = kb();
        let phrase: Vec<WordId> =
            ["gibson", "guitar"].iter().map(|w| kb.word_id(w).unwrap()).collect();
        let adjacent = context_of(&kb, "a Gibson guitar sound");
        let scattered = context_of(&kb, "a Gibson sound with heavy amplifier feedback guitar");
        let s_adj = phrase_score(&kb, jimmy, &phrase, &adjacent, KeywordWeighting::Npmi);
        let s_scat = phrase_score(&kb, jimmy, &phrase, &scattered, KeywordWeighting::Npmi);
        assert!(s_adj > s_scat, "{s_adj} vs {s_scat}");
        assert!(s_scat > 0.0);
    }

    #[test]
    fn partial_match_is_superlinearly_reduced() {
        let (kb, jimmy, _) = kb();
        let phrase: Vec<WordId> = ["grammy", "award", "winner"]
            .iter()
            .map(|w| kb.word_id(w).unwrap())
            .collect();
        let full = context_of(&kb, "Grammy Award winner");
        let partial = context_of(&kb, "Grammy winner");
        let s_full = phrase_score(&kb, jimmy, &phrase, &full, KeywordWeighting::Npmi);
        let s_partial = phrase_score(&kb, jimmy, &phrase, &partial, KeywordWeighting::Npmi);
        assert!(s_full > s_partial);
        assert!(s_partial > 0.0);
        // Squared ratio: partial (2/3 of weight mass, z = 1) is below
        // (2/3)² + ε of the full score even before the z factor.
        assert!(s_partial < s_full * 0.6);
    }

    #[test]
    fn indexed_simscore_matches_exhaustive_bitwise() {
        let (kb, jimmy, larry) = kb();
        for text in [
            "played unusual chords on his Gibson guitar",
            "search engine built at Stanford university",
            "hard rock guitar award",
            "nothing in common with anyone",
            "",
        ] {
            let ctx = context_of(&kb, text);
            for e in [jimmy, larry] {
                for weighting in [KeywordWeighting::Npmi, KeywordWeighting::Idf] {
                    let fast = simscore(&kb, e, &ctx, weighting);
                    let slow = simscore_exhaustive(&kb, e, &ctx, weighting);
                    assert_eq!(fast.to_bits(), slow.to_bits(), "{text:?}");
                }
            }
        }
    }

    #[test]
    fn empty_context_scores_zero() {
        let (kb, jimmy, _) = kb();
        assert_eq!(simscore(&kb, jimmy, &[], KeywordWeighting::Npmi), 0.0);
    }

    #[test]
    fn idf_weighting_also_works() {
        let (kb, jimmy, _) = kb();
        let ctx = context_of(&kb, "hard rock chords everywhere");
        assert!(simscore(&kb, jimmy, &ctx, KeywordWeighting::Idf) > 0.0);
    }

    #[test]
    fn score_is_nonnegative_and_bounded_per_phrase() {
        let (kb, jimmy, _) = kb();
        let ctx = context_of(&kb, "Gibson guitar Gibson guitar chords rock hard");
        for ep in kb.keyphrases(jimmy) {
            let s = phrase_score(
                &kb,
                jimmy,
                kb.phrase_words(ep.phrase),
                &ctx,
                KeywordWeighting::Npmi,
            );
            assert!((0.0..=1.0).contains(&s), "{s}");
        }
    }

    /// The run-based fast path must reproduce the reference `phrase_score`
    /// bit for bit — for own phrases (precomputed NPMI mass), foreign
    /// phrases (fallback recomputation), and both weightings.
    #[test]
    fn run_phrase_score_matches_reference_bitwise() {
        let (kb, jimmy, larry) = kb();
        let mut cover = crate::cover::CoverScratch::new();
        for text in [
            "played unusual chords on his Gibson guitar",
            "Grammy winner at Stanford university",
            "hard rock guitar award",
            "",
        ] {
            let ctx = context_of(&kb, text);
            for e in [jimmy, larry] {
                for scored in [jimmy, larry] {
                    for ep in kb.keyphrases(scored) {
                        for weighting in [KeywordWeighting::Npmi, KeywordWeighting::Idf] {
                            let reference = phrase_score(
                                &kb,
                                e,
                                kb.phrase_words(ep.phrase),
                                &ctx,
                                weighting,
                            );
                            let fast =
                                phrase_score_run(&kb, e, ep.phrase, &ctx, weighting, &mut cover);
                            assert_eq!(
                                reference.to_bits(),
                                fast.to_bits(),
                                "{text:?} e={e:?} phrase={:?}",
                                ep.phrase
                            );
                        }
                    }
                }
            }
        }
    }

    /// The batched multi-candidate pass must equal per-candidate
    /// `simscore_indexed` bitwise, with the same counter totals.
    #[test]
    fn batched_simscores_match_per_candidate_bitwise() {
        let (kb, jimmy, larry) = kb();
        for text in [
            "played unusual chords on his Gibson guitar",
            "search engine built at Stanford university",
            "hard rock guitar award winner at a search engine",
            "nothing in common with anyone",
            "",
        ] {
            let ctx = context_of(&kb, text);
            let words = context_word_set(&ctx);
            for entities in [
                vec![jimmy, larry],
                vec![larry, jimmy],
                vec![jimmy],
                vec![jimmy, larry, jimmy], // duplicate → per-candidate fallback
            ] {
                for weighting in [KeywordWeighting::Npmi, KeywordWeighting::Idf] {
                    let batch_obs = SimObs::new(&ned_obs::Metrics::new());
                    let single_obs = SimObs::new(&ned_obs::Metrics::new());
                    let batched = simscores_batch(&kb, &entities, &ctx, weighting, &batch_obs);
                    let singles: Vec<f64> = entities
                        .iter()
                        .map(|&e| {
                            simscore_observed(&kb, e, &ctx, &words, weighting, &single_obs)
                        })
                        .collect();
                    assert_eq!(batched.len(), singles.len());
                    for (b, s) in batched.iter().zip(singles.iter()) {
                        assert_eq!(b.to_bits(), s.to_bits(), "{text:?} {entities:?}");
                    }
                    assert_eq!(
                        batch_obs.evaluations.value(),
                        single_obs.evaluations.value(),
                        "evaluation counts diverge"
                    );
                    assert_eq!(batch_obs.plan_entity_side.value(), single_obs.plan_entity_side.value());
                    assert_eq!(batch_obs.plan_word_side.value(), single_obs.plan_word_side.value());
                    assert_eq!(
                        batch_obs.postings_scanned.value(),
                        single_obs.postings_scanned.value(),
                        "scanned counts diverge on {text:?}"
                    );
                    assert_eq!(batch_obs.phrases_matched.value(), single_obs.phrases_matched.value());
                }
            }
        }
    }
}
