//! Property-based equivalence of the frozen columnar KB with the store it
//! was frozen from, and of the two read backends.
//!
//! [`FrozenKb::freeze`] is a pure re-layout: every read answer — candidate
//! lists, priors, link neighborhoods, keyphrase sets, interner lookups and
//! weights — must be *identical* to the build-time [`KnowledgeBase`]'s own
//! accessors, down to the bit pattern of every float. The indexes the
//! frozen KB builds for itself (keyphrase postings, phrase runs) are
//! checked against the store's keyphrase rows, batched similarity through
//! an overlay of no mutations and through a fresh arena must match the
//! frozen KB's scores bit for bit, and so must full joint disambiguation.
//! These properties drive randomly built worlds through every
//! representation side by side. (The similarity reference scorers are
//! test-only; `ned-aida`'s own proptests hold the scorer against them.)

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use aida_ned::aida::context::{DocumentContext, MentionContext};
use aida_ned::aida::scratch::{with_scratch, ScoringScratch};
use aida_ned::aida::similarity::simscores_batch;
use aida_ned::aida::{AidaConfig, Disambiguator, KeywordWeighting, NedMethod, SimObs};
use aida_ned::kb::snapshot::encode;
use aida_ned::kb::{
    DeltaKb, EntityId, EntityKind, FrozenKb, KbBuilder, KbView, KnowledgeBase, PhraseId, WordId,
};
use aida_ned::obs::Metrics;
use aida_ned::relatedness::MilneWitten;
use aida_ned::text::{tokenize, Mention};
use proptest::prelude::*;

/// (surface, anchor/occurrence count) pairs of one entity.
type WeightedSurfaces = Vec<(String, u64)>;

/// A randomly generated world, small enough to disambiguate in
/// milliseconds but rich enough to cover ambiguity, links, and keyphrases.
#[derive(Debug, Clone)]
struct WorldSpec {
    /// Per entity: (names with counts, keyphrases with counts).
    entities: Vec<(WeightedSurfaces, WeightedSurfaces)>,
    /// Directed links as index pairs (taken modulo the entity count).
    links: Vec<(usize, usize)>,
    /// Document context words.
    context: Vec<String>,
    /// Indexes into the name pool, selecting mention surfaces.
    mention_picks: Vec<usize>,
}

fn world_strategy() -> impl Strategy<Value = WorldSpec> {
    let name = "[a-d]{1,3}";
    let phrase = proptest::collection::vec("[a-e]{1,4}", 1..4);
    let entity = (
        proptest::collection::vec((name, 1u64..100), 1..3),
        proptest::collection::vec((phrase, 1u64..6), 0..4),
    )
        .prop_map(|(names, phrases)| {
            let phrases =
                phrases.into_iter().map(|(ws, c)| (ws.join(" "), c)).collect::<Vec<_>>();
            (names, phrases)
        });
    (
        proptest::collection::vec(entity, 1..10),
        proptest::collection::vec((0usize..64, 0usize..64), 0..30),
        proptest::collection::vec("[a-g]{1,4}", 0..25),
        proptest::collection::vec(0usize..64, 0..5),
    )
        .prop_map(|(entities, links, context, mention_picks)| WorldSpec {
            entities,
            links,
            context,
            mention_picks,
        })
}

/// Builds the store from a spec; returns the store and its name pool.
fn build_world(spec: &WorldSpec) -> (KnowledgeBase, Vec<String>) {
    let mut builder = KbBuilder::new();
    let mut ids = Vec::new();
    let mut name_pool = Vec::new();
    for (i, (names, phrases)) in spec.entities.iter().enumerate() {
        let e = builder.add_entity(&format!("Entity {i}"), EntityKind::Other);
        for (name, count) in names {
            builder.add_name(e, name, *count);
            name_pool.push(name.clone());
        }
        for (surface, count) in phrases {
            builder.add_keyphrase(e, surface, *count);
        }
        ids.push(e);
    }
    for &(a, b) in &spec.links {
        let (src, dst) = (ids[a % ids.len()], ids[b % ids.len()]);
        if src != dst {
            builder.add_link(src, dst);
        }
    }
    (builder.build(), name_pool)
}

/// The similarity counters of `obs`, in declaration order.
fn sim_counters(obs: &SimObs) -> [u64; 5] {
    [
        obs.evaluations.value(),
        obs.plan_entity_side.value(),
        obs.plan_word_side.value(),
        obs.postings_scanned.value(),
        obs.phrases_matched.value(),
    ]
}

/// Batched similarity of `entities` on `kb` in `scratch`, as score bits.
fn batch_bits<K: KbView + ?Sized>(
    kb: &K,
    entities: &[EntityId],
    ctx: MentionContext<'_>,
    weighting: KeywordWeighting,
    obs: &SimObs,
    scratch: &mut ScoringScratch,
) -> Vec<u64> {
    simscores_batch(kb, entities.len(), |i| entities[i], ctx, weighting, obs, scratch);
    scratch.sims().iter().map(|s| s.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every primitive read answer of the frozen KB agrees with the store's
    /// own accessors: entities, dictionary (candidates + priors + iteration
    /// order), link neighborhoods, keyphrase sets, interners, and weights.
    /// The keyphrase index the frozen KB builds for itself lists, for every
    /// word, exactly the store's keyphrase entries containing it.
    #[test]
    fn frozen_reads_match_legacy(spec in world_strategy()) {
        let (kb, name_pool) = build_world(&spec);
        let frozen = FrozenKb::freeze(&kb);

        // Entity table and canonical-name index.
        prop_assert_eq!(frozen.entity_count(), kb.entity_count());
        for e in kb.entity_ids() {
            prop_assert_eq!(frozen.entity(e), kb.entity(e));
            let name = &kb.entity(e).canonical_name;
            prop_assert_eq!(frozen.entity_by_name(name), kb.entity_by_name(name));
        }

        // Dictionary: candidates and priors per surface (known and unknown),
        // and the full iteration in ascending key order.
        for surface in name_pool.iter().map(String::as_str).chain(["zz", "Qx"]) {
            prop_assert_eq!(frozen.candidates(surface), kb.candidates(surface));
            for e in kb.entity_ids() {
                let fp = frozen.prior(surface, e);
                let lp = kb.prior(surface, e);
                prop_assert_eq!(fp.to_bits(), lp.to_bits(), "prior({}, {:?})", surface, e);
            }
        }
        let frozen_entries: Vec<_> = KbView::dictionary(&frozen).iter().collect();
        let store_entries: Vec<_> = kb.dictionary().iter().collect();
        prop_assert_eq!(frozen_entries, store_entries);

        // Link neighborhoods, sorted slices on both sides.
        prop_assert_eq!(frozen.links().edge_count(), kb.links().edge_count());
        for e in kb.entity_ids() {
            prop_assert_eq!(frozen.links().inlinks(e), kb.links().inlinks(e));
            prop_assert_eq!(frozen.links().outlinks(e), kb.links().outlinks(e));
        }

        // Keyphrase sets, phrase decompositions, and interners.
        prop_assert_eq!(frozen.word_count(), kb.word_interner().len());
        prop_assert_eq!(frozen.phrase_count(), kb.phrase_interner().len());
        for wi in 0..kb.word_interner().len() {
            let w = WordId::from_index(wi);
            prop_assert_eq!(frozen.word_text(w), kb.word_text(w));
            prop_assert_eq!(frozen.word_id(kb.word_text(w)), Some(w));
        }
        for e in kb.entity_ids() {
            prop_assert_eq!(frozen.keyphrases(e), kb.keyphrases(e));
            for ep in kb.keyphrases(e) {
                prop_assert_eq!(frozen.phrase_words(ep.phrase), kb.phrase_words(ep.phrase));
                prop_assert_eq!(frozen.phrase_surface(ep.phrase), kb.phrase_surface(ep.phrase));
            }
        }

        // Weights survive freezing bit for bit.
        prop_assert_eq!(encode(frozen.weights()).unwrap(), encode(kb.weights()).unwrap());

        // Keyphrase inverted index: each word's postings are the store's
        // (entity, phrase) entries whose phrase contains the word, sorted
        // and deduplicated. Similarity scores only the phrases the index
        // lists, so this is what makes the frozen KB's scores exact.
        for wi in 0..kb.word_interner().len() {
            let w = WordId::from_index(wi);
            let mut want: Vec<(EntityId, PhraseId)> = kb
                .entity_ids()
                .flat_map(|e| kb.keyphrases(e).iter().map(move |ep| (e, ep.phrase)))
                .filter(|&(_, p)| kb.phrase_words(p).contains(&w))
                .collect();
            want.sort_unstable();
            want.dedup();
            prop_assert_eq!(frozen.keyphrase_index().postings(w), want.as_slice());
        }
    }

    /// The precomputed phrase runs (the scoring hot path) are pure
    /// re-derivations: every run the frozen KB builds is the
    /// sorted-deduplicated word set of the store's raw phrase, and the
    /// precomputed IDF / per-entity NPMI masses equal the reference sums
    /// over the store's weights bit for bit.
    #[test]
    fn phrase_runs_match_reference_across_backends(spec in world_strategy()) {
        let (kb, _) = build_world(&spec);
        let frozen = FrozenKb::freeze(&kb);
        prop_assert_eq!(frozen.phrase_runs().phrase_count(), kb.phrase_interner().len());
        for e in kb.entity_ids() {
            for ep in kb.keyphrases(e) {
                let p = ep.phrase;
                let mut reference: Vec<WordId> = kb.phrase_words(p).to_vec();
                reference.sort_unstable();
                reference.dedup();
                prop_assert_eq!(frozen.phrase_runs().run(p), reference.as_slice());

                let idf_ref: f64 =
                    reference.iter().map(|&w| kb.weights().word_idf(w)).sum();
                prop_assert_eq!(frozen.phrase_runs().idf_mass(p).to_bits(), idf_ref.to_bits());

                let npmi_ref: f64 =
                    reference.iter().map(|&w| kb.weights().keyword_npmi(e, w)).sum();
                let frozen_mass = frozen.phrase_runs().npmi_mass(e, p).map(f64::to_bits);
                prop_assert_eq!(frozen_mass, Some(npmi_ref.to_bits()));
            }
        }
    }

    /// Scratch-arena reuse and batching change nothing: batched similarity
    /// in the reused per-thread arena — dirtied by the previous call, and
    /// across proptest cases — equals scoring in a fresh arena, bit for bit
    /// and counter for counter, on the frozen KB and on an overlay of no
    /// mutations. Both the shared merge and the duplicate-candidate
    /// fallback run (every candidate listed twice).
    #[test]
    fn scratch_reuse_and_batching_match_fresh_scoring(spec in world_strategy()) {
        let (kb, _) = build_world(&spec);
        let frozen = Arc::new(FrozenKb::freeze(&kb));
        let overlay = DeltaKb::build(Arc::clone(&frozen), Vec::new()).unwrap();
        let frozen = &*frozen;
        let tokens = tokenize(&spec.context.join(" "));
        let doc = DocumentContext::build(frozen, &tokens);
        // The first context token stands in for the mention.
        let ctx = doc.mention(&Mention::new("", 0, 1));
        let entities: Vec<EntityId> = frozen.entity_ids().collect();
        let doubled: Vec<EntityId> = entities.iter().chain(&entities).copied().collect();
        for weighting in [KeywordWeighting::Npmi, KeywordWeighting::Idf] {
            for candidates in [&entities, &doubled] {
                let fresh_obs = SimObs::new(&Metrics::new());
                let fresh = batch_bits(
                    frozen, candidates, ctx, weighting, &fresh_obs, &mut ScoringScratch::new(),
                );
                prop_assert_eq!(fresh.len(), candidates.len());
                for pass in 0..2 {
                    let frozen_obs = SimObs::new(&Metrics::new());
                    let reused = with_scratch(|scratch| {
                        batch_bits(frozen, candidates, ctx, weighting, &frozen_obs, scratch)
                    });
                    prop_assert_eq!(&reused, &fresh, "frozen, reused arena, pass {}", pass);
                    prop_assert_eq!(sim_counters(&frozen_obs), sim_counters(&fresh_obs));

                    let overlay_obs = SimObs::new(&Metrics::new());
                    let through_overlay = with_scratch(|scratch| {
                        batch_bits(&overlay, candidates, ctx, weighting, &overlay_obs, scratch)
                    });
                    prop_assert_eq!(&through_overlay, &fresh, "overlay, pass {}", pass);
                    prop_assert_eq!(sim_counters(&overlay_obs), sim_counters(&fresh_obs));
                }
            }
        }
    }

    /// Full joint disambiguation through an `Arc<FrozenKb>` service handle
    /// is byte-identical to the same KB behind an overlay of no mutations:
    /// same entity choices, same score bits, same per-candidate score
    /// lists, same degradation.
    #[test]
    fn frozen_disambiguation_is_byte_identical(spec in world_strategy()) {
        let (kb, name_pool) = build_world(&spec);
        let frozen = Arc::new(FrozenKb::freeze(&kb));
        let overlay = Arc::new(DeltaKb::build(Arc::clone(&frozen), Vec::new()).unwrap());

        // Compose a document: the context words followed by the mention
        // surfaces (single-token by construction), each mention spanning its
        // own token. Always at least one mention, so the joint solver runs.
        let mut words = spec.context.clone();
        let mut mentions = Vec::new();
        for &pick in spec.mention_picks.iter().chain([&0usize]) {
            let surface = &name_pool[pick % name_pool.len()];
            mentions.push(Mention::new(surface.clone(), words.len(), words.len() + 1));
            words.push(surface.clone());
        }
        let tokens = tokenize(&words.join(" "));

        let overlay_aida = Disambiguator::new(
            overlay.clone(),
            MilneWitten::new(overlay.clone()),
            AidaConfig::full(),
        );
        let frozen_aida =
            Disambiguator::new(frozen.clone(), MilneWitten::new(frozen.clone()), AidaConfig::full());
        let reference = overlay_aida.disambiguate(&tokens, &mentions);
        let frozen_result = frozen_aida.disambiguate(&tokens, &mentions);

        prop_assert_eq!(frozen_result.degradation, reference.degradation);
        prop_assert_eq!(frozen_result.assignments.len(), reference.assignments.len());
        for (fa, la) in frozen_result.assignments.iter().zip(&reference.assignments) {
            prop_assert_eq!(fa.mention_index, la.mention_index);
            prop_assert_eq!(fa.entity, la.entity);
            prop_assert_eq!(fa.score.to_bits(), la.score.to_bits());
            prop_assert_eq!(fa.candidate_scores.len(), la.candidate_scores.len());
            for (&(fe, fs), &(le, ls)) in fa.candidate_scores.iter().zip(&la.candidate_scores) {
                prop_assert_eq!(fe, le);
                prop_assert_eq!(fs.to_bits(), ls.to_bits());
            }
        }
    }
}
