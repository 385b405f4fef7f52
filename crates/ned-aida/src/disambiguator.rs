//! The AIDA disambiguation pipeline (§3.2–§3.5), tying together candidate
//! retrieval, local features, robustness tests, graph construction, and the
//! greedy solver.

use ned_core::{DegradationLevel, NedError};
use ned_kb::{EntityId, KbView};
use ned_obs::{names, Clock, Metrics};
use ned_relatedness::Relatedness;
use ned_text::{Mention, Token};

use crate::algorithm::{solve_budgeted_observed, SolverConfig};
use crate::candidates::{candidate_features, CandidateFeatures};
use crate::coherence::{CoherenceTable, PairCoherence};
use crate::expansion::expansion_targets;
use crate::config::AidaConfig;
use crate::context::DocumentContext;
use crate::graph::MentionEntityGraph;
use crate::method::NedMethod;
use crate::obs::PipelineObs;
use crate::result::{DisambiguationResult, MentionAssignment};
use crate::robustness::{local_weights, should_fix_mention};

/// The AIDA joint disambiguator, parameterized over the KB representation
/// and the coherence measure.
///
/// The KB handle is held *by value*: pass `&FrozenKb` (or `&DeltaKb`) for
/// the borrowed style, or (a clone of) an `Arc<FrozenKb>` for a fully owned
/// disambiguator that can be moved across threads and shared by rayon
/// workers without any borrow tying it to a KB binding.
pub struct Disambiguator<K, R> {
    kb: K,
    relatedness: R,
    config: AidaConfig,
    obs: PipelineObs,
    clock: Clock,
}

// Manual Debug: `R` need not be Debug and the KB handle would dump the
// whole store.
impl<K, R> std::fmt::Debug for Disambiguator<K, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Disambiguator")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<K: KbView, R: Relatedness> Disambiguator<K, R> {
    /// Creates a disambiguator.
    ///
    /// # Panics
    /// Panics when the configuration is invalid (see
    /// [`AidaConfig::validate`]). Use [`Disambiguator::try_new`] to handle
    /// configuration faults gracefully.
    pub fn new(kb: K, relatedness: R, config: AidaConfig) -> Self {
        match Self::try_new(kb, relatedness, config) {
            Ok(d) => d,
            // Documented panicking convenience wrapper over `try_new`.
            // ned-lint: allow(p1)
            Err(err) => panic!("invalid AIDA configuration: {err}"),
        }
    }

    /// Creates a disambiguator, returning a typed error when the
    /// configuration is invalid.
    pub fn try_new(kb: K, relatedness: R, config: AidaConfig) -> Result<Self, NedError> {
        config
            .validate()
            .map_err(|message| NedError::Config { what: "AidaConfig", message })?;
        Ok(Disambiguator {
            kb,
            relatedness,
            config,
            // Metrics are opt-in; the solver's wall budget defaults to the
            // system clock so `solver_wall_budget_ms` keeps firing without
            // any observability setup.
            obs: PipelineObs::default(),
            clock: Clock::system(),
        })
    }

    /// Records pipeline counters and stage spans into `metrics` (builder
    /// style). Counters are deterministic; span durations follow the
    /// registry's own clock.
    #[must_use]
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        self.obs = PipelineObs::new(metrics);
        self
    }

    /// Overrides the clock used by the solver's wall-budget guard (builder
    /// style). Tests pass a manual or null clock to make deadline behavior
    /// reproducible.
    #[must_use]
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The knowledge base handle in use.
    pub fn kb(&self) -> &K {
        &self.kb
    }

    /// The configuration in use.
    pub fn config(&self) -> &AidaConfig {
        &self.config
    }

    /// The coherence measure in use.
    pub fn relatedness(&self) -> &R {
        &self.relatedness
    }

    /// Computes the per-mention candidate features (exposed for the
    /// confidence assessors of Chapter 5, which perturb these inputs), and
    /// returns them with the document context they were scored against, so
    /// a caller that scores more against the mentions (the emerging-entity
    /// placeholders of Chapter 5) reuses it instead of building another.
    pub fn features(
        &self,
        tokens: &[Token],
        mentions: &[Mention],
    ) -> (DocumentContext, Vec<Vec<CandidateFeatures>>) {
        if mentions.is_empty() {
            // Empty and mention-free documents short-circuit: no context,
            // no candidate lookups, a well-formed empty feature set.
            return (DocumentContext::default(), Vec::new());
        }
        let _span = self.obs.span(names::STAGE_FEATURES_NS);
        self.obs.mentions.add(mentions.len() as u64);
        let ctx = DocumentContext::build(&self.kb, tokens);
        let targets: Vec<usize> = if self.config.use_mention_expansion {
            expansion_targets(mentions)
        } else {
            (0..mentions.len()).collect()
        };
        let score_mention = |i: usize| {
            let m = &mentions[i]; // ned-lint: allow(p1) — i < mentions.len() by construction
            let context = ctx.mention(m);
            let mut features = candidate_features(
                &self.kb,
                &mentions[targets[i]].surface, // ned-lint: allow(p1) — targets is index-aligned with mentions
                context,
                self.config.keyword_weighting,
                &self.obs,
            );
            if features.is_empty() && targets[i] != i { // ned-lint: allow(p1) — i < targets.len() by construction
                // The expanded surface is unknown to the dictionary:
                // fall back to the mention's own surface.
                features = candidate_features(
                    &self.kb,
                    &m.surface,
                    context,
                    self.config.keyword_weighting,
                    &self.obs,
                );
            }
            features
        };
        // Mentions are scored in order on the calling thread, reusing its
        // scratch arena; parallelism splits at the document level only.
        let features = (0..mentions.len()).map(score_mention).collect();
        (ctx, features)
    }

    /// Disambiguates pre-computed features (the entry point used by the
    /// perturbation-based confidence assessors, which alter the feature
    /// lists directly).
    ///
    /// Runs the degradation ladder: the full joint model first; if the
    /// graph solver exhausts its iteration or wall budget, the best *local*
    /// candidate per mention ([`DegradationLevel::NoCoherence`]); if the
    /// local weights themselves are poisoned (non-finite), the popularity
    /// prior alone ([`DegradationLevel::PriorOnly`]). The level actually
    /// used is recorded on the result.
    // ned-lint: entry
    pub fn disambiguate_features(
        &self,
        features: &[Vec<CandidateFeatures>],
    ) -> DisambiguationResult {
        self.disambiguate_with(features, |locals, graph_locals| {
            CoherenceTable::build(&self.relatedness, locals, graph_locals)
        })
    }

    /// [`Self::disambiguate_features`] with the pairwise coherence read
    /// from what `coherence(locals, graph_locals)` builds.
    pub(crate) fn disambiguate_with<C: PairCoherence>(
        &self,
        features: &[Vec<CandidateFeatures>],
        coherence: impl FnOnce(&[Vec<(EntityId, f64)>], &[Vec<(EntityId, f64)>]) -> C,
    ) -> DisambiguationResult {
        if features.is_empty() {
            return DisambiguationResult::default();
        }
        self.obs.docs.inc();
        let mut degradation = DegradationLevel::None;
        // Local combined weights per mention (prior robustness applied).
        let mut locals: Vec<Vec<(EntityId, f64)>> = features
            .iter()
            .map(|f| {
                let (w, _) = local_weights(f, &self.config);
                f.iter().zip(w).map(|(cf, w)| (cf.entity, w)).collect()
            })
            .collect();

        // Bottom rung: a non-finite local weight means the similarity
        // feature is poisoned (corrupt counts, NaN propagation). The prior
        // is a plain occurrence ratio and survives, so retreat to it.
        if locals.iter().flatten().any(|&(_, w)| !w.is_finite()) {
            degradation = DegradationLevel::PriorOnly;
            locals = features
                .iter()
                .map(|f| {
                    f.iter()
                        .map(|cf| {
                            (cf.entity, if cf.prior.is_finite() { cf.prior } else { 0.0 })
                        })
                        .collect()
                })
                .collect();
        }

        let (chosen, coherence): (Vec<Option<EntityId>>, Option<C>) =
            if self.config.use_coherence && degradation == DegradationLevel::None {
                match self.solve_with_coherence(features, &locals, coherence) {
                    Ok(solved) => solved,
                    // Middle rung: the solver ran out of budget (or
                    // otherwise faulted); drop the coherence feature and
                    // keep the best local candidate per mention.
                    Err(err) => {
                        debug_assert!(err.is_degradable(), "unexpected solver fault: {err}");
                        degradation = DegradationLevel::NoCoherence;
                        (locals.iter().map(|cands| argmax_entity(cands)).collect(), None)
                    }
                }
            } else {
                (locals.iter().map(|cands| argmax_entity(cands)).collect(), None)
            };

        match degradation {
            DegradationLevel::None => self.obs.degradation_joint.inc(),
            DegradationLevel::NoCoherence => self.obs.degradation_no_coherence.inc(),
            DegradationLevel::PriorOnly => self.obs.degradation_prior_only.inc(),
        }
        let assignments = features
            .iter()
            .zip(&locals)
            .zip(&chosen)
            .enumerate()
            .map(|(mi, ((_f, local), &entity))| {
                self.make_assignment(mi, local, entity, &chosen, coherence.as_ref())
            })
            .collect();
        DisambiguationResult { assignments, degradation }
    }

    /// Runs the joint model; returns each mention's entity and the
    /// coherence source the assignment scores read (none when γ is 0).
    fn solve_with_coherence<C: PairCoherence>(
        &self,
        features: &[Vec<CandidateFeatures>],
        locals: &[Vec<(EntityId, f64)>],
        coherence: impl FnOnce(&[Vec<(EntityId, f64)>], &[Vec<(EntityId, f64)>]) -> C,
    ) -> Result<(Vec<Option<EntityId>>, Option<C>), NedError> {
        // Coherence robustness: fix agreeing mentions to their best local
        // candidate, keeping only that candidate in the graph (§3.5.2).
        let graph_locals: Vec<Vec<(EntityId, f64)>> = features
            .iter()
            .zip(locals)
            .map(|(f, local)| {
                if should_fix_mention(f, &self.config) {
                    self.obs.mentions_fixed.inc();
                    argmax(local).into_iter().copied().collect()
                } else {
                    local.clone()
                }
            })
            .collect();
        let (graph, coherence) = {
            let _span = self.obs.span(names::STAGE_GRAPH_NS);
            let gamma = self.config.gamma;
            if gamma > 0.0 {
                let coherence = coherence(locals, &graph_locals);
                (coherence.graph(&graph_locals, gamma), Some(coherence))
            } else {
                (MentionEntityGraph::build(&graph_locals, None, gamma), None)
            }
        };
        self.obs.graph_entity_nodes.add(graph.entity_count() as u64);
        self.obs.coherence_edges_built.add(graph.coherence_edge_count() as u64);
        let solver = SolverConfig {
            graph_size_factor: self.config.graph_size_factor,
            exhaustive_limit: self.config.exhaustive_limit,
            local_search_iterations: self.config.local_search_iterations,
            seed: self.config.seed,
            max_iterations: self.config.solver_max_iterations,
            wall_budget_ms: self.config.solver_wall_budget_ms,
        };
        let _span = self.obs.span(names::STAGE_SOLVER_NS);
        let chosen = solve_budgeted_observed(&graph, &solver, &self.clock, &self.obs.solver)?
            .into_iter()
            .map(|s| s.and_then(|ni| graph.nodes.get(ni)).map(|n| n.entity))
            .collect();
        Ok((chosen, coherence))
    }

    /// Builds the final assignment for mention `mi`, scoring every candidate
    /// by its local weight blended with its coherence to the *other*
    /// mentions' chosen entities — the candidate's weighted degree in the
    /// solution graph, which Chapter 5 uses as the confidence basis.
    fn make_assignment<C: PairCoherence>(
        &self,
        mi: usize,
        local: &[(EntityId, f64)],
        entity: Option<EntityId>,
        chosen: &[Option<EntityId>],
        coherence: Option<&C>,
    ) -> MentionAssignment {
        if local.is_empty() {
            return MentionAssignment::unmapped(mi);
        }
        // Coherence comes only from the joint model's table: a degraded
        // document dropped the feature, so its scores must not consult the
        // relatedness measure either (which may be the faulty component
        // that forced the degradation).
        let gamma = if coherence.is_some() { self.config.gamma } else { 0.0 };
        let others: Vec<EntityId> = chosen
            .iter()
            .enumerate()
            .filter(|&(mj, _)| mj != mi)
            .filter_map(|(_, &e)| e)
            .collect();
        let mut scores: Vec<(EntityId, f64)> = local
            .iter()
            .map(|&(e, w)| {
                let coh = match coherence {
                    Some(c) if !others.is_empty() => c.sum(e, &others) / others.len() as f64,
                    _ => 0.0,
                };
                (e, (1.0 - gamma) * w + gamma * coh)
            })
            .collect();
        scores.sort_by(|a, b| b.1.total_cmp(&a.1));
        let entity = entity.or_else(|| scores.first().map(|&(e, _)| e));
        let score = entity
            .and_then(|e| scores.iter().find(|&&(c, _)| c == e).map(|&(_, s)| s))
            .unwrap_or(0.0);
        MentionAssignment { mention_index: mi, entity, score, candidate_scores: scores }
    }
}

/// The best local candidate: the highest score, ties broken toward the
/// lower entity id. `None` for a mention without candidates.
fn argmax(cands: &[(EntityId, f64)]) -> Option<&(EntityId, f64)> {
    cands.iter().max_by(|a, b| {
        a.1.total_cmp(&b.1)
            // Deterministic tie-break on entity id.
            .then(b.0.cmp(&a.0))
    })
}

fn argmax_entity(cands: &[(EntityId, f64)]) -> Option<EntityId> {
    argmax(cands).map(|&(e, _)| e)
}

impl<K: KbView, R: Relatedness> NedMethod for Disambiguator<K, R> {
    fn name(&self) -> String {
        let mut parts: Vec<&str> = Vec::new();
        if self.config.use_prior {
            parts.push(if self.config.use_prior_robustness { "r-prior" } else { "prior" });
        }
        parts.push("sim-k");
        if self.config.use_coherence {
            parts.push(if self.config.use_coherence_robustness { "r-coh" } else { "coh" });
        }
        format!("AIDA[{} | {}]", parts.join(" "), self.relatedness.name())
    }

    fn disambiguate(&self, tokens: &[Token], mentions: &[Mention]) -> DisambiguationResult {
        let (_, features) = self.features(tokens, mentions);
        self.disambiguate_features(&features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::{EntityKind, FrozenKb, KbBuilder};
    use ned_relatedness::MilneWitten;
    use ned_text::tokenize;

    /// The running example of Chapter 3: "They performed Kashmir, written by
    /// Page and Plant. Page played unusual chords on his Gibson."
    fn kb() -> FrozenKb {
        let mut b = KbBuilder::new();
        let song = b.add_entity("Kashmir (song)", EntityKind::Work);
        let region = b.add_entity("Kashmir (region)", EntityKind::Location);
        let jimmy = b.add_entity("Jimmy Page", EntityKind::Person);
        let larry = b.add_entity("Larry Page", EntityKind::Person);
        let plant = b.add_entity("Robert Plant", EntityKind::Person);
        let gibson = b.add_entity("Gibson Les Paul", EntityKind::Other);
        let zeppelin = b.add_entity("Led Zeppelin", EntityKind::Organization);

        b.add_name(song, "Kashmir", 6);
        b.add_name(region, "Kashmir", 94);
        b.add_name(jimmy, "Page", 40);
        b.add_name(larry, "Page", 55);
        b.add_name(plant, "Plant", 70);
        b.add_name(gibson, "Gibson", 60);

        b.add_keyphrase(song, "hard rock", 2);
        b.add_keyphrase(song, "unusual chords", 2);
        b.add_keyphrase(region, "Himalaya mountains", 4);
        b.add_keyphrase(region, "disputed territory", 3);
        b.add_keyphrase(jimmy, "hard rock", 3);
        b.add_keyphrase(jimmy, "session guitarist", 2);
        b.add_keyphrase(jimmy, "Gibson signature model", 2);
        b.add_keyphrase(larry, "search engine", 3);
        b.add_keyphrase(larry, "internet company", 2);
        b.add_keyphrase(plant, "rock singer", 3);
        b.add_keyphrase(gibson, "electric guitar", 3);

        // Link structure: the music cluster is interlinked.
        for (a, b_) in [
            (jimmy, song),
            (song, jimmy),
            (plant, song),
            (song, plant),
            (jimmy, plant),
            (plant, jimmy),
            (gibson, jimmy),
            (zeppelin, jimmy),
            (zeppelin, plant),
            (zeppelin, song),
            (zeppelin, gibson),
            (jimmy, gibson),
            (song, gibson),
        ] {
            b.add_link(a, b_);
        }
        FrozenKb::freeze(&b.build())
    }

    fn doc() -> (Vec<Token>, Vec<Mention>) {
        let tokens =
            tokenize("They performed Kashmir, written by Page and Plant. Page played unusual chords on his Gibson.");
        // Token positions: They(0) performed(1) Kashmir(2) ,(3) written(4)
        // by(5) Page(6) and(7) Plant(8) .(9) Page(10) played(11) unusual(12)
        // chords(13) on(14) his(15) Gibson(16) .(17)
        let mentions = vec![
            Mention::new("Kashmir", 2, 3),
            Mention::new("Page", 6, 7),
            Mention::new("Plant", 8, 9),
            Mention::new("Gibson", 16, 17),
        ];
        (tokens, mentions)
    }

    #[test]
    fn full_aida_resolves_the_running_example() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full());
        let (tokens, mentions) = doc();
        let result = aida.disambiguate(&tokens, &mentions);
        let labels = result.labels();
        assert_eq!(labels[0], kb.entity_by_name("Kashmir (song)"), "Kashmir → song");
        assert_eq!(labels[1], kb.entity_by_name("Jimmy Page"), "Page → Jimmy Page");
        assert_eq!(labels[2], kb.entity_by_name("Robert Plant"));
        assert_eq!(labels[3], kb.entity_by_name("Gibson Les Paul"));
    }

    #[test]
    fn prior_only_would_choose_the_region() {
        // Sanity check that the example is actually hard: the prior prefers
        // the Himalaya region for "Kashmir".
        let kb = kb();
        let region = kb.entity_by_name("Kashmir (region)").unwrap();
        assert!(kb.prior("Kashmir", region) > 0.9);
    }

    #[test]
    fn sim_only_configuration_still_resolves_contextful_mentions() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::sim_only());
        let (tokens, mentions) = doc();
        let labels = aida.disambiguate(&tokens, &mentions).labels();
        // "Kashmir" has matching context ("unusual chords", "hard rock").
        assert_eq!(labels[0], kb.entity_by_name("Kashmir (song)"));
    }

    #[test]
    fn mentions_without_candidates_stay_unmapped() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full());
        let tokens = tokenize("Snowden met Page.");
        let mentions = vec![Mention::new("Snowden", 0, 1), Mention::new("Page", 2, 3)];
        let result = aida.disambiguate(&tokens, &mentions);
        assert_eq!(result.assignments[0].entity, None);
        assert!(result.assignments[1].entity.is_some());
    }

    #[test]
    fn assignments_are_parallel_to_input() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full());
        let (tokens, mentions) = doc();
        let result = aida.disambiguate(&tokens, &mentions);
        assert_eq!(result.assignments.len(), mentions.len());
        for (i, a) in result.assignments.iter().enumerate() {
            assert_eq!(a.mention_index, i);
        }
    }

    #[test]
    fn candidate_scores_are_sorted_descending() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full());
        let (tokens, mentions) = doc();
        let result = aida.disambiguate(&tokens, &mentions);
        for a in &result.assignments {
            for w in a.candidate_scores.windows(2) {
                assert!(w[0].1 >= w[1].1);
            }
        }
    }

    #[test]
    fn empty_document() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full());
        let result = aida.disambiguate(&[], &[]);
        assert!(result.assignments.is_empty());
        assert_eq!(result.degradation, DegradationLevel::None);
    }

    #[test]
    fn try_new_reports_invalid_configuration() {
        let kb = kb();
        let bad = AidaConfig { alpha: 0.9, ..AidaConfig::default() };
        let Err(err) = Disambiguator::try_new(&kb, MilneWitten::new(&kb), bad) else {
            panic!("invalid config must be rejected");
        };
        assert!(matches!(err, NedError::Config { what: "AidaConfig", .. }));
    }

    #[test]
    fn exhausted_solver_budget_degrades_to_local_features() {
        let kb = kb();
        let config = AidaConfig { solver_max_iterations: 1, ..AidaConfig::full() };
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), config);
        let (tokens, mentions) = doc();
        let result = aida.disambiguate(&tokens, &mentions);
        assert_eq!(result.degradation, DegradationLevel::NoCoherence);
        assert_eq!(result.assignments.len(), mentions.len());
        assert!(result.assignments.iter().all(|a| a.entity.is_some()));
        // The degraded output matches an explicitly coherence-free run.
        let no_coh = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::r_prior_sim());
        assert_eq!(result.labels(), no_coh.disambiguate(&tokens, &mentions).labels());
    }

    #[test]
    fn generous_budget_leaves_output_unchanged() {
        let kb = kb();
        let (tokens, mentions) = doc();
        let unbudgeted = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full())
            .disambiguate(&tokens, &mentions);
        assert_eq!(unbudgeted.degradation, DegradationLevel::None);
    }

    #[test]
    fn poisoned_similarity_degrades_to_prior_only() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full());
        let jimmy = kb.entity_by_name("Jimmy Page").unwrap();
        let larry = kb.entity_by_name("Larry Page").unwrap();
        let nan = f64::NAN;
        let features = vec![vec![
            CandidateFeatures { entity: jimmy, prior: 0.4, sim: nan, sim_normalized: nan },
            CandidateFeatures { entity: larry, prior: 0.6, sim: nan, sim_normalized: nan },
        ]];
        let result = aida.disambiguate_features(&features);
        assert_eq!(result.degradation, DegradationLevel::PriorOnly);
        // The prior survives: Larry Page wins on popularity.
        assert_eq!(result.assignments[0].entity, Some(larry));
        assert!(result.assignments[0].score.is_finite());
    }

    #[test]
    fn method_name_reflects_configuration() {
        let kb = kb();
        let full = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full());
        assert_eq!(full.name(), "AIDA[r-prior sim-k r-coh | MW]");
        let sim = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::sim_only());
        assert_eq!(sim.name(), "AIDA[sim-k | MW]");
    }

    #[test]
    fn metrics_record_pipeline_counters() {
        use ned_obs::{names, Metrics};
        let kb = kb();
        let metrics = Metrics::new();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full())
            .with_metrics(&metrics);
        let (tokens, mentions) = doc();
        aida.disambiguate(&tokens, &mentions);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(names::AIDA_DOCS), 1);
        assert_eq!(snap.counter(names::AIDA_MENTIONS), 4);
        assert!(snap.counter(names::AIDA_CANDIDATES_CONSIDERED) >= 4);
        assert_eq!(
            snap.counter(names::AIDA_SIMILARITY_EVALUATIONS),
            snap.counter(names::AIDA_SIM_PLAN_ENTITY_SIDE)
                + snap.counter(names::AIDA_SIM_PLAN_WORD_SIDE),
            "every evaluation picks exactly one plan"
        );
        assert_eq!(snap.counter(names::AIDA_DEGRADATION_JOINT), 1);
        assert_eq!(snap.counter(names::AIDA_SOLVER_INVOCATIONS), 1);
        assert!(snap.counter(names::AIDA_SOLVER_ITERATIONS) > 0);
        assert_eq!(snap.counter(names::AIDA_SOLVER_BUDGET_EXHAUSTED), 0);
        // The null clock freezes spans at zero duration but still counts.
        let span_count = snap
            .histograms
            .iter()
            .find(|(n, _)| n == names::STAGE_FEATURES_NS)
            .map(|(_, h)| h.count)
            .unwrap();
        assert_eq!(span_count, 1);
    }

    #[test]
    fn metrics_are_identical_across_repeat_runs() {
        use ned_obs::Metrics;
        let kb = kb();
        let (tokens, mentions) = doc();
        let snapshots: Vec<_> = (0..2)
            .map(|_| {
                let metrics = Metrics::new();
                let aida =
                    Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full())
                        .with_metrics(&metrics);
                aida.disambiguate(&tokens, &mentions);
                metrics.snapshot()
            })
            .collect();
        assert_eq!(snapshots[0], snapshots[1]);
    }

    #[test]
    fn exhausted_budget_is_counted() {
        use ned_obs::{names, Metrics};
        let kb = kb();
        let metrics = Metrics::new();
        let config = AidaConfig { solver_max_iterations: 1, ..AidaConfig::full() };
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), config)
            .with_metrics(&metrics);
        let (tokens, mentions) = doc();
        let result = aida.disambiguate(&tokens, &mentions);
        assert_eq!(result.degradation, DegradationLevel::NoCoherence);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter(names::AIDA_SOLVER_BUDGET_EXHAUSTED), 1);
        assert_eq!(snap.counter(names::AIDA_DEGRADATION_NO_COHERENCE), 1);
        assert_eq!(snap.counter(names::AIDA_DEGRADATION_JOINT), 0);
    }

    #[test]
    fn null_clock_never_trips_the_wall_budget() {
        use ned_obs::Clock;
        let kb = kb();
        // A wall budget under a frozen clock: elapsed time is always zero,
        // so the deadline can never fire and the run stays reproducible.
        let config = AidaConfig { solver_wall_budget_ms: Some(1), ..AidaConfig::full() };
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), config)
            .with_clock(Clock::null());
        let (tokens, mentions) = doc();
        let result = aida.disambiguate(&tokens, &mentions);
        assert_eq!(result.degradation, DegradationLevel::None);
    }

    #[test]
    fn deterministic_output() {
        let kb = kb();
        let aida = Disambiguator::new(&kb, MilneWitten::new(&kb), AidaConfig::full());
        let (tokens, mentions) = doc();
        let a = aida.disambiguate(&tokens, &mentions);
        let b = aida.disambiguate(&tokens, &mentions);
        assert_eq!(a, b);
    }
}
