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
//!
//! One path computes it. [`simscores_batch`] scores every candidate of a
//! mention in the caller's [`ScoringScratch`]; [`cover_z_ratio`] is the
//! Eq. 3.4 kernel it shares with the emerging-entity models of Chapter 5.
//! The reference implementations — `phrase_score`, which re-derives every
//! intermediate per call, and `simscore_exhaustive`, which scans all of
//! KP(e) — exist only in test builds, where proptests hold the production
//! path against them bit for bit.

use ned_kb::{EntityId, KbView, PhraseId, WordId};

use crate::config::KeywordWeighting;
use crate::context::MentionContext;
use crate::cover::{shortest_cover_into, CoverScratch};
use crate::obs::SimObs;
use crate::scratch::ScoringScratch;

/// The Eq. 3.4 kernel for one keyphrase: the shortest cover of `run` in a
/// mention's `context` and the cover's share of the phrase's weight mass.
///
/// `run` is the phrase's word set, sorted and deduplicated; `phrase_mass`
/// is the sum of `weight` over it. Returns `(z, ratio)` with `ratio =
/// (cover mass / phrase mass).min(1.0)`, or `None` when the phrase scores
/// nothing: a non-positive phrase mass, no phrase word in the context, or a
/// non-positive cover mass. The phrase's score is `z · ratio²`. Each caller
/// does that multiplication itself, in its own order, because
/// `w · z · r · r` and `w · (z · r · r)` are different floats.
///
/// The cover mass is an indexed fold over the cover words in ascending
/// word-id order, starting at `+0.0`. `Iterator::sum` starts at `-0.0`; the
/// two differ only when every term is a signed zero, and then both take the
/// `cover mass <= 0.0` exit.
pub fn cover_z_ratio(
    context: MentionContext<'_>,
    run: &[WordId],
    phrase_mass: f64,
    weight: impl Fn(WordId) -> f64,
    cover: &mut CoverScratch,
) -> Option<(f64, f64)> {
    if phrase_mass <= 0.0 {
        return None;
    }
    let shape = shortest_cover_into(context, run, cover)?;
    // Iterator-free indexed fold over the cover words so the compiler can
    // keep the weight lookups in a tight loop.
    let cw = cover.cover_words();
    let mut cover_mass = 0.0f64;
    let mut i = 0usize;
    while i < cw.len() {
        cover_mass += weight(cw[i]); // ned-lint: allow(p1) — i < len by loop bound
        i += 1;
    }
    if cover_mass <= 0.0 {
        return None;
    }
    let ratio = (cover_mass / phrase_mass).min(1.0);
    Some((shape.z(), ratio))
}

/// `score(q)` (Eq. 3.4) of the interned keyphrase `p` for entity `e`,
/// reading the deduplicated word run and the weight masses precomputed in
/// the KB's [`PhraseRuns`](ned_kb::PhraseRuns). Bit-identical to the
/// reference `phrase_score`: the precomputed masses were summed with the
/// reference expression over the reference word order (sorted,
/// deduplicated), and [`cover_z_ratio`] finds the same cover and sums its
/// mass in the same ascending word-id order.
// ned-lint: hot
fn phrase_score_run<K: KbView + ?Sized>(
    kb: &K,
    e: EntityId,
    p: PhraseId,
    context: MentionContext<'_>,
    weighting: KeywordWeighting,
    cover: &mut CoverScratch,
) -> f64 {
    let runs = kb.phrase_runs();
    let weights = kb.weights();
    let run = runs.run(p);
    let phrase_mass = match weighting {
        KeywordWeighting::Npmi => runs.npmi_mass(e, p).unwrap_or_else(|| {
            // Not an own phrase of `e` (no precomputed row entry): fall back
            // to the reference expression over the run.
            run.iter().map(|&w| weights.keyword_npmi(e, w)).sum()
        }),
        KeywordWeighting::Idf => runs.idf_mass(p),
    };
    let weight = |w: WordId| match weighting {
        KeywordWeighting::Npmi => weights.keyword_npmi(e, w),
        KeywordWeighting::Idf => weights.word_idf(w),
    };
    match cover_z_ratio(context, run, phrase_mass, weight, cover) {
        Some((z, ratio)) => z * ratio * ratio,
        None => 0.0,
    }
}

/// `simscore(m, e)` (Eq. 3.6) for every candidate of one mention: scores
/// the candidates `entity_at(0..n)` against the mention's `context` and
/// leaves the scores in [`ScoringScratch::sims`], in candidate order. With
/// a warmed arena a call performs zero heap allocations.
///
/// The pass scores only the phrases sharing at least one word with the
/// context. The pruning is exact: a phrase with no context word has no
/// shortest cover and scores exactly 0.0. Each candidate's surviving
/// phrases are summed in ascending phrase-id order with a `fold(0.0, +)`,
/// the order of an exhaustive scan over KP(e) (`Iterator::sum` seeds with
/// −0.0, which would flip the sign bit of an empty sum), so the scores
/// equal the exhaustive scan bit for bit.
///
/// Query plan, per candidate: when KP(e) is no larger than the context's
/// distinct word count, test each phrase's run word by word with
/// [`MentionContext::contains`] (entity side); otherwise probe the inverted
/// index (word side). Only a word-side candidate needs the context's
/// sorted, deduplicated word list: it is read from the document's word
/// index into the arena once per call, and only when one is planned.
/// Word-side candidates share one entity-sorted merge over each context
/// word's postings. Both plans yield the same phrases in the same order,
/// so the score does not depend on the plan.
///
/// Counters: every candidate records one evaluation and one plan decision;
/// postings scanned and phrases matched are recorded per candidate. The
/// totals do not depend on how candidates are grouped into calls.
// ned-lint: hot
pub fn simscores_batch<K: KbView + ?Sized>(
    kb: &K,
    n: usize,
    entity_at: impl Fn(usize) -> EntityId,
    context: MentionContext<'_>,
    weighting: KeywordWeighting,
    obs: &SimObs,
    scratch: &mut ScoringScratch,
) {
    let ScoringScratch { cover, context_words, matching, word_side, phrase_bufs, sims } = scratch;
    let distinct = context.distinct_count();
    sims.clear();
    word_side.clear();
    let idx = kb.keyphrase_index();
    let runs = kb.phrase_runs();

    // Phase A — plan each candidate in candidate order. Entity-side plans
    // (KP(e) no larger than the context's distinct word count) are scored
    // immediately; word-side plans are registered for the shared merge
    // pass.
    for i in 0..n {
        let e = entity_at(i);
        obs.evaluations.inc();
        let kp = kb.keyphrases(e);
        if kp.len() <= distinct {
            obs.plan_entity_side.inc();
            matching.clear();
            // The precomputed run is the deduplicated word set of the
            // phrase; `any` over it decides exactly like `any` over the raw
            // word list.
            matching.extend(
                kp.iter()
                    .filter(|ep| runs.run(ep.phrase).iter().any(|&w| context.contains(w)))
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
    context.words_into(context_words);
    let context_words: &[WordId] = context_words;

    // Phase B — entity-major order for the merge. Duplicate candidate
    // entities (not produced by the dictionary, but allowed by the API)
    // fall back to one index probe per occurrence, so each occurrence does
    // — and records — its own work, exactly as in a call of its own.
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
    // probe order — so phase D's sort+dedup reproduces the index probe
    // (`matching_phrases_into`) exactly.
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

/// Computes `score(q)` (Eq. 3.4) for one keyphrase of `e` against a mention
/// context given as position-sorted `(pos, word)` pairs.
///
/// The test-only reference: it re-derives the deduplicated phrase word set
/// and its weight mass on every call, and finds the cover with the
/// allocating `shortest_cover`. Production scoring goes through
/// [`phrase_score_run`] and [`cover_z_ratio`], held bit-identical to it.
#[cfg(test)]
pub(crate) fn phrase_score<K: KbView + ?Sized>(
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
    let Some(cover) = crate::cover::shortest_cover(context, phrase_words) else {
        return 0.0;
    };
    let cover_mass: f64 = cover.words.iter().map(|&w| weight(w)).sum();
    if cover_mass <= 0.0 {
        return 0.0;
    }
    let ratio = (cover_mass / phrase_mass).min(1.0);
    cover.z() * ratio * ratio
}

/// Test-only reference `simscore(m, e)`: [`phrase_score`] summed over all
/// of KP(e), without the inverted index or the phrase runs.
#[cfg(test)]
pub(crate) fn simscore_exhaustive<K: KbView + ?Sized>(
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
    use std::ops::Range;
    use std::sync::Arc;

    use super::*;
    use crate::context::DocumentContext;
    use crate::cover::shortest_cover;
    use ned_kb::{DeltaKb, EntityKind, FrozenKb, KbBuilder};
    use ned_obs::Metrics;
    use ned_text::{tokenize, Mention};
    use proptest::prelude::*;

    const WEIGHTINGS: [KeywordWeighting; 2] = [KeywordWeighting::Npmi, KeywordWeighting::Idf];

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

    fn context_of<K: KbView + ?Sized>(kb: &K, text: &str) -> DocumentContext {
        DocumentContext::build(kb, &tokenize(text))
    }

    /// The whole document as a mention context: nothing excluded.
    fn whole(ctx: &DocumentContext) -> MentionContext<'_> {
        ctx.excluding(0..0)
    }

    /// A mention over `span` (which may be empty or inverted), for
    /// [`DocumentContext::for_mention`] and [`DocumentContext::mention`].
    fn mention_over(span: Range<usize>) -> Mention {
        Mention { surface: String::new(), token_start: span.start, token_end: span.end }
    }

    /// [`simscores_batch`] over `entities` in `scratch`, copied out.
    fn batch<K: KbView + ?Sized>(
        kb: &K,
        entities: &[EntityId],
        context: MentionContext<'_>,
        weighting: KeywordWeighting,
        obs: &SimObs,
        scratch: &mut ScoringScratch,
    ) -> Vec<f64> {
        simscores_batch(kb, entities.len(), |i| entities[i], context, weighting, obs, scratch);
        scratch.sims().to_vec()
    }

    /// `simscore(m, e)` for one candidate, in a fresh arena.
    fn simscore<K: KbView + ?Sized>(
        kb: &K,
        e: EntityId,
        context: MentionContext<'_>,
        weighting: KeywordWeighting,
    ) -> f64 {
        let scores =
            batch(kb, &[e], context, weighting, &SimObs::default(), &mut ScoringScratch::new());
        scores[0]
    }

    /// The five similarity counters, in declaration order.
    fn counters(obs: &SimObs) -> [u64; 5] {
        [
            obs.evaluations.value(),
            obs.plan_entity_side.value(),
            obs.plan_word_side.value(),
            obs.postings_scanned.value(),
            obs.phrases_matched.value(),
        ]
    }

    #[test]
    fn matching_context_scores_higher() {
        let (kb, jimmy, larry) = kb();
        let ctx = context_of(&kb, "played unusual chords on his Gibson guitar");
        let sj = simscore(&kb, jimmy, whole(&ctx), KeywordWeighting::Npmi);
        let sl = simscore(&kb, larry, whole(&ctx), KeywordWeighting::Npmi);
        assert!(sj > 0.0);
        assert_eq!(sl, 0.0);
    }

    /// The mention's own tokens are not its context: "Gibson guitar" as the
    /// mention leaves Jimmy Page nothing to match.
    #[test]
    fn the_mention_is_not_its_own_context() {
        let (kb, jimmy, _) = kb();
        let ctx = context_of(&kb, "a Gibson guitar");
        assert!(simscore(&kb, jimmy, whole(&ctx), KeywordWeighting::Npmi) > 0.0);
        let mention = Mention::new("Gibson guitar", 1, 3);
        assert_eq!(simscore(&kb, jimmy, ctx.mention(&mention), KeywordWeighting::Npmi), 0.0);
    }

    #[test]
    fn full_adjacent_match_beats_scattered_match() {
        let (kb, jimmy, _) = kb();
        let phrase: Vec<WordId> =
            ["gibson", "guitar"].iter().map(|w| kb.word_id(w).unwrap()).collect();
        let adjacent = context_of(&kb, "a Gibson guitar sound");
        let scattered = context_of(&kb, "a Gibson sound with heavy amplifier feedback guitar");
        let s_adj = phrase_score(&kb, jimmy, &phrase, adjacent.words(), KeywordWeighting::Npmi);
        let s_scat = phrase_score(&kb, jimmy, &phrase, scattered.words(), KeywordWeighting::Npmi);
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
        let s_full = phrase_score(&kb, jimmy, &phrase, full.words(), KeywordWeighting::Npmi);
        let s_partial = phrase_score(&kb, jimmy, &phrase, partial.words(), KeywordWeighting::Npmi);
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
            "guitar",
            "nothing in common with anyone",
            "",
        ] {
            let ctx = context_of(&kb, text);
            // Empty, first-token, inner and inverted spans.
            for (start, end) in [(0, 0), (0, 1), (2, 4), (5, 3)] {
                let mention = mention_over(start..end);
                for e in [jimmy, larry] {
                    for weighting in WEIGHTINGS {
                        let fast = simscore(&kb, e, ctx.mention(&mention), weighting);
                        let slow =
                            simscore_exhaustive(&kb, e, &ctx.for_mention(&mention), weighting);
                        assert_eq!(fast.to_bits(), slow.to_bits(), "{text:?} {mention:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_context_scores_zero() {
        let (kb, jimmy, _) = kb();
        let empty = DocumentContext::default();
        assert_eq!(simscore(&kb, jimmy, whole(&empty), KeywordWeighting::Npmi), 0.0);
    }

    #[test]
    fn idf_weighting_also_works() {
        let (kb, jimmy, _) = kb();
        let ctx = context_of(&kb, "hard rock chords everywhere");
        assert!(simscore(&kb, jimmy, whole(&ctx), KeywordWeighting::Idf) > 0.0);
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
                ctx.words(),
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
        let mut cover = CoverScratch::new();
        for text in [
            "played unusual chords on his Gibson guitar",
            "Grammy winner at Stanford university",
            "hard rock guitar award",
            "",
        ] {
            let ctx = context_of(&kb, text);
            for span in [0..0, 1..3] {
                let mention = mention_over(span);
                let copied = ctx.for_mention(&mention);
                for e in [jimmy, larry] {
                    for scored in [jimmy, larry] {
                        for ep in kb.keyphrases(scored) {
                            for weighting in WEIGHTINGS {
                                let reference = phrase_score(
                                    &kb,
                                    e,
                                    kb.phrase_words(ep.phrase),
                                    &copied,
                                    weighting,
                                );
                                let fast = phrase_score_run(
                                    &kb,
                                    e,
                                    ep.phrase,
                                    ctx.mention(&mention),
                                    weighting,
                                    &mut cover,
                                );
                                assert_eq!(
                                    reference.to_bits(),
                                    fast.to_bits(),
                                    "{text:?} {mention:?} e={e:?} phrase={:?}",
                                    ep.phrase
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Scoring several candidates in one call equals one call per
    /// candidate, bitwise, with the same counter totals — through the
    /// word-side merge and, with a repeated candidate, through the
    /// duplicate fallback.
    #[test]
    fn batched_simscores_match_one_call_per_candidate_bitwise() {
        let (kb, jimmy, larry) = kb();
        for text in [
            "played unusual chords on his Gibson guitar",
            "search engine built at Stanford university",
            "hard rock guitar award winner at a search engine",
            "Gibson guitar",
            "guitar",
            "nothing in common with anyone",
            "",
        ] {
            let ctx = context_of(&kb, text);
            for entities in [
                vec![jimmy, larry],
                vec![larry, jimmy],
                vec![jimmy],
                vec![jimmy, larry, jimmy], // duplicate → per-occurrence fallback
            ] {
                for weighting in WEIGHTINGS {
                    let batch_obs = SimObs::new(&Metrics::new());
                    let single_obs = SimObs::new(&Metrics::new());
                    let mut scratch = ScoringScratch::new();
                    let batched =
                        batch(&kb, &entities, whole(&ctx), weighting, &batch_obs, &mut scratch);
                    let singles: Vec<f64> = entities
                        .iter()
                        .flat_map(|e| {
                            batch(&kb, &[*e], whole(&ctx), weighting, &single_obs, &mut scratch)
                        })
                        .collect();
                    assert_eq!(batched.len(), singles.len());
                    for (b, s) in batched.iter().zip(singles.iter()) {
                        assert_eq!(b.to_bits(), s.to_bits(), "{text:?} {entities:?}");
                    }
                    assert_eq!(
                        counters(&batch_obs),
                        counters(&single_obs),
                        "counters diverge on {text:?} {entities:?}"
                    );
                }
            }
        }
    }

    /// (keyphrases per entity, context words, excluded span) of a random
    /// world.
    type WorldSpec = (Vec<Vec<(Vec<String>, u64)>>, Vec<String>, Range<usize>);

    /// Random worlds: up to 8 entities with up to 4 keyphrases each, drawn
    /// from a small vocabulary so phrases share words, a context short
    /// enough that both query plans fire, and a mention span over it that
    /// may be empty, inverted, or reach past either end.
    fn world_strategy() -> impl Strategy<Value = WorldSpec> {
        let phrase = (proptest::collection::vec("[a-e]{1,4}", 1..4), 1u64..6);
        (
            proptest::collection::vec(proptest::collection::vec(phrase, 0..5), 1..9),
            proptest::collection::vec("[a-g]{1,4}", 0..12),
            0usize..14,
            0usize..14,
        )
            .prop_map(|(entities, context, a, b)| (entities, context, a..b))
    }

    /// The frozen KB of a spec, the same KB behind an overlay of no
    /// mutations, the spec's document context and its mention.
    fn build_world(spec: &WorldSpec) -> (Arc<FrozenKb>, DeltaKb, DocumentContext, Mention) {
        let (entities, context, span) = spec;
        let mut builder = KbBuilder::new();
        for (i, phrases) in entities.iter().enumerate() {
            let e = builder.add_entity(&format!("E{i}"), EntityKind::Other);
            for (words, count) in phrases {
                builder.add_keyphrase(e, &words.join(" "), *count);
            }
        }
        let frozen = Arc::new(FrozenKb::freeze(&builder.build()));
        let overlay = DeltaKb::build(Arc::clone(&frozen), Vec::new()).unwrap();
        let ctx = context_of(&*frozen, &context.join(" "));
        (frozen, overlay, ctx, mention_over(span.clone()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The inverted index only skips keyphrases whose score is exactly
        /// 0.0 (no word in context ⇒ no shortest cover), so every candidate
        /// scored through the mention's view of the document index, alone
        /// or with all the others, equals the exhaustive scan over the
        /// mention's copied context, on the frozen KB and on the overlay,
        /// under both weightings — with the same counters on both backends.
        #[test]
        fn indexed_scores_match_the_exhaustive_scan(spec in world_strategy()) {
            let (frozen, overlay, ctx, mention) = build_world(&spec);
            let view = ctx.mention(&mention);
            let copied = ctx.for_mention(&mention);
            let entities: Vec<EntityId> = frozen.entity_ids().collect();
            let mut scratch = ScoringScratch::new();
            for weighting in WEIGHTINGS {
                let reference: Vec<u64> = entities
                    .iter()
                    .map(|&e| simscore_exhaustive(&*frozen, e, &copied, weighting).to_bits())
                    .collect();
                let backends: [&dyn KbView; 2] = [&*frozen, &overlay];
                let mut backend_counters = Vec::new();
                for kb in backends {
                    let obs = SimObs::new(&Metrics::new());
                    let all: Vec<u64> = batch(kb, &entities, view, weighting, &obs, &mut scratch)
                        .iter()
                        .map(|s| s.to_bits())
                        .collect();
                    prop_assert_eq!(&all, &reference);
                    for (&e, &r) in entities.iter().zip(&reference) {
                        let alone = batch(kb, &[e], view, weighting, &obs, &mut scratch);
                        prop_assert_eq!(alone[0].to_bits(), r, "{:?} scored alone", e);
                    }
                    backend_counters.push(counters(&obs));
                }
                prop_assert_eq!(backend_counters[0], backend_counters[1]);
            }
        }

        /// Arena reuse changes nothing: one dirty arena serves two passes
        /// over both backends and both weightings. Batched scores (through
        /// the merge, and through the duplicate fallback when every
        /// candidate appears twice) and `phrase_score_run` on every
        /// (entity, phrase) pair — foreign phrases included — equal the
        /// reference bit for bit, and the fallback records the counters of
        /// one call per candidate.
        #[test]
        fn dirty_arena_scores_match_the_reference(spec in world_strategy()) {
            let (frozen, overlay, ctx, mention) = build_world(&spec);
            let view = ctx.mention(&mention);
            let copied = ctx.for_mention(&mention);
            let entities: Vec<EntityId> = frozen.entity_ids().collect();
            let doubled: Vec<EntityId> = entities.iter().chain(entities.iter()).copied().collect();
            let mut scratch = ScoringScratch::new();
            for weighting in WEIGHTINGS {
                let reference: Vec<u64> = doubled
                    .iter()
                    .map(|&e| simscore_exhaustive(&*frozen, e, &copied, weighting).to_bits())
                    .collect();
                let backends: [&dyn KbView; 2] = [&*frozen, &overlay];
                for _pass in 0..2 {
                    for kb in backends {
                        let obs = SimObs::default();
                        let merged: Vec<u64> =
                            batch(kb, &entities, view, weighting, &obs, &mut scratch)
                                .iter()
                                .map(|s| s.to_bits())
                                .collect();
                        prop_assert_eq!(merged.as_slice(), &reference[..entities.len()]);

                        let batch_obs = SimObs::new(&Metrics::new());
                        let single_obs = SimObs::new(&Metrics::new());
                        let fallback: Vec<u64> =
                            batch(kb, &doubled, view, weighting, &batch_obs, &mut scratch)
                                .iter()
                                .map(|s| s.to_bits())
                                .collect();
                        prop_assert_eq!(&fallback, &reference);
                        for &e in &doubled {
                            batch(kb, &[e], view, weighting, &single_obs, &mut scratch);
                        }
                        prop_assert_eq!(counters(&batch_obs), counters(&single_obs));

                        for &e in &entities {
                            for pi in 0..frozen.phrase_count() {
                                let p = PhraseId::from_index(pi);
                                let fresh = phrase_score(
                                    &*frozen, e, frozen.phrase_words(p), &copied, weighting,
                                );
                                let run =
                                    phrase_score_run(kb, e, p, view, weighting, &mut scratch.cover);
                                prop_assert_eq!(run.to_bits(), fresh.to_bits(), "{:?} {:?}", e, p);
                            }
                        }
                    }
                }
            }
        }

        /// The kernel against the reference cover: for a raw phrase word
        /// list (unsorted, with repeats), arbitrary non-negative word
        /// weights (zeros included) and an excluded span, `cover_z_ratio`
        /// on the sorted set over the document's word index returns the
        /// reference cover's `z` and mass ratio over the copied mention
        /// context bit for bit, and nothing exactly when the reference
        /// scores the phrase 0. The span is empty, inverted, exactly the
        /// occurrences of the first phrase word, a prefix or a suffix of
        /// the context, or arbitrary.
        #[test]
        fn kernel_matches_the_reference_cover(
            context in proptest::collection::vec((1usize..4, 0u32..12), 0..30),
            phrase in proptest::collection::vec(0u32..12, 1..6),
            weights in proptest::collection::vec(0u32..5, 12..13),
            span in (0u8..6, 0usize..100, 0usize..100),
        ) {
            let (span_kind, a, b) = span;
            // Strictly increasing positions with gaps, so covers vary in
            // length.
            let mut pos = 0usize;
            let context: Vec<(usize, WordId)> = context
                .iter()
                .map(|&(gap, w)| {
                    pos += gap;
                    (pos, WordId(w))
                })
                .collect();
            let phrase: Vec<WordId> = phrase.into_iter().map(WordId).collect();
            let first_word_at: Vec<usize> =
                context.iter().filter(|&&(_, w)| w == phrase[0]).map(|&(p, _)| p).collect();
            let span = match span_kind {
                0 => a..a,
                1 => a.max(b) + 1..a.min(b),
                2 => match (first_word_at.first(), first_word_at.last()) {
                    (Some(&lo), Some(&hi)) => lo..hi + 1,
                    _ => 0..0,
                },
                3 => 0..a,
                4 => a..pos + 1,
                _ => a..b,
            };
            let weight = |w: WordId| f64::from(weights[w.0 as usize]) * 0.375;
            let mut run = phrase.clone();
            run.sort_unstable();
            run.dedup();
            let phrase_mass: f64 = run.iter().map(|&w| weight(w)).sum();

            let doc = DocumentContext::from_words(context);
            let mention = mention_over(span);
            let mut cover = CoverScratch::new();
            let got = cover_z_ratio(doc.mention(&mention), &run, phrase_mass, weight, &mut cover);
            let reference = shortest_cover(&doc.for_mention(&mention), &phrase).and_then(|c| {
                let cover_mass: f64 = c.words.iter().map(|&w| weight(w)).sum();
                (phrase_mass > 0.0 && cover_mass > 0.0)
                    .then(|| (c.z(), (cover_mass / phrase_mass).min(1.0)))
            });
            let bits = |r: Option<(f64, f64)>| r.map(|(z, ratio)| (z.to_bits(), ratio.to_bits()));
            prop_assert_eq!(bits(got), bits(reference));
        }
    }
}
