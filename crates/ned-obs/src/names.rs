//! Well-known metric names, in one place.
//!
//! Every counter, gauge, and span the pipeline emits is named here so the
//! golden-metrics suite, the CI fixture diff, and DESIGN.md §11 all refer
//! to the same constants. Names are `snake_case`, prefixed by subsystem,
//! and never reused with a different meaning.

// --- disambiguator (ned-aida) ----------------------------------------

/// Documents run through `disambiguate_features`.
pub const AIDA_DOCS: &str = "aida_docs";
/// Mentions whose candidates were scored.
pub const AIDA_MENTIONS: &str = "aida_mentions";
/// Candidate entities whose features were computed (across all mentions).
pub const AIDA_CANDIDATES_CONSIDERED: &str = "aida_candidates_considered";
/// Keyphrase similarity evaluations (one per candidate scored).
pub const AIDA_SIMILARITY_EVALUATIONS: &str = "aida_similarity_evaluations";
/// Similarity calls answered by the entity-side plan (scan the entity's
/// keyphrases).
pub const AIDA_SIM_PLAN_ENTITY_SIDE: &str = "aida_sim_plan_entity_side";
/// Similarity calls answered by the word-side plan (probe the keyphrase
/// inverted index per context word).
pub const AIDA_SIM_PLAN_WORD_SIDE: &str = "aida_sim_plan_word_side";
/// Inverted-index postings scanned by word-side similarity calls.
pub const KP_INDEX_POSTINGS_SCANNED: &str = "kp_index_postings_scanned";
/// Keyphrases that matched the context and were cover-scored.
pub const AIDA_SIM_PHRASES_MATCHED: &str = "aida_sim_phrases_matched";
/// Mentions pinned to their top-local candidate by the robustness test
/// before the graph phase.
pub const AIDA_MENTIONS_FIXED: &str = "aida_mentions_fixed";
/// Nonzero coherence edges materialized in mention-entity graphs.
pub const AIDA_COHERENCE_EDGES_BUILT: &str = "aida_coherence_edges_built";
/// Candidate entity nodes entering the solver across all graphs.
pub const AIDA_GRAPH_ENTITY_NODES: &str = "aida_graph_entity_nodes";

// --- greedy solver (ned-aida) ----------------------------------------

/// Times the budgeted solver ran.
pub const AIDA_SOLVER_INVOCATIONS: &str = "aida_solver_invocations";
/// Budget units spent across all solver runs (the deterministic iteration
/// currency from PR 2).
pub const AIDA_SOLVER_ITERATIONS: &str = "aida_solver_iterations";
/// Entities skipped as removal victims because the taboo rule protected a
/// mention's last candidate.
pub const AIDA_SOLVER_TABOO_HITS: &str = "aida_solver_taboo_hits";
/// Entities removed up front by distance pruning.
pub const AIDA_SOLVER_ENTITIES_PRUNED: &str = "aida_solver_entities_pruned";
/// Solver runs that exhausted their iteration or wall budget.
pub const AIDA_SOLVER_BUDGET_EXHAUSTED: &str = "aida_solver_budget_exhausted";

// --- degradation ladder (ned-aida, per document) ----------------------

/// Documents that completed at full fidelity (joint objective).
pub const AIDA_DEGRADATION_JOINT: &str = "aida_degradation_joint";
/// Documents that fell back to similarity-only (coherence disabled).
pub const AIDA_DEGRADATION_NO_COHERENCE: &str = "aida_degradation_no_coherence";
/// Documents that fell back to prior-only assignment.
pub const AIDA_DEGRADATION_PRIOR_ONLY: &str = "aida_degradation_prior_only";

// --- relatedness cache (ned-relatedness) ------------------------------

/// Lookups served from the cache.
pub const RELATEDNESS_CACHE_HITS: &str = "relatedness_cache_hits";
/// Lookups that computed a fresh value (first arrival wins a racing pair).
/// Every miss resolves to exactly one of insert / admit-reject /
/// stale-discard, so `misses == inserts + admit_rejected + stale_discards`.
pub const RELATEDNESS_CACHE_MISSES: &str = "relatedness_cache_misses";
/// Entries written into the cache.
pub const RELATEDNESS_CACHE_INSERTS: &str = "relatedness_cache_inserts";
/// Lookups whose freshly computed value could not be memoized because the
/// shard's byte cap is below one entry — the value is still returned, just
/// not memoized. Replaces the retired `relatedness_cache_full` starvation
/// path.
pub const RELATEDNESS_CACHE_ADMIT_REJECTED: &str = "relatedness_cache_admit_rejected";
/// Entries dropped from the cache: LRU evictions plus wholesale drops
/// from `clear`/generation invalidation, so
/// `evictions + live_entries == inserts` holds exactly.
pub const RELATEDNESS_CACHE_EVICTIONS: &str = "relatedness_cache_evictions";
/// Inserts discarded because the KB generation moved between the lookup's
/// probe and its insert — a stale score must never land after
/// `advance_generation` returns.
pub const RELATEDNESS_CACHE_STALE_DISCARDS: &str = "relatedness_cache_stale_discards";
/// Gauge: bytes currently charged to cached pairs (set by
/// `publish_gauges`, like the evaluation counters — explicit publication
/// keeps snapshots interleaving-independent).
pub const RELATEDNESS_CACHE_BYTES: &str = "relatedness_cache_bytes";
/// Gauge: high-water mark of charged bytes, summed over shards (each
/// shard's peak is bounded by its slice of the cap, so the sum never
/// exceeds the configured byte cap).
pub const RELATEDNESS_CACHE_BYTES_PEAK: &str = "relatedness_cache_bytes_peak";
/// Gauge: pairs currently cached (set by `publish_gauges`).
pub const RELATEDNESS_CACHE_ENTRIES: &str = "relatedness_cache_entries";

// --- snapshot loading (ned-kb) ----------------------------------------

/// Gauge: total snapshot bytes read.
pub const SNAPSHOT_BYTES_TOTAL: &str = "snapshot_bytes_total";
/// Gauge prefix for per-section body sizes; the section name from the v3
/// frame tag is appended (e.g. `snapshot_section_bytes_entities`).
pub const SNAPSHOT_SECTION_BYTES_PREFIX: &str = "snapshot_section_bytes_";

// --- bench runner (ned-bench) -----------------------------------------

/// Documents that completed at full fidelity.
pub const DOC_STATUS_OK: &str = "doc_status_ok";
/// Documents that completed on a degraded ladder rung.
pub const DOC_STATUS_DEGRADED: &str = "doc_status_degraded";
/// Documents whose worker panicked (isolated, excluded from accuracy).
pub const DOC_STATUS_FAILED: &str = "doc_status_failed";
/// Per-document degradation level: full joint objective.
pub const DEGRADATION_LEVEL_JOINT: &str = "degradation_level_joint";
/// Per-document degradation level: coherence disabled.
pub const DEGRADATION_LEVEL_NO_COHERENCE: &str = "degradation_level_no_coherence";
/// Per-document degradation level: prior-only assignment.
pub const DEGRADATION_LEVEL_PRIOR_ONLY: &str = "degradation_level_prior_only";

// --- emerging entities (ned-emerging) ---------------------------------

/// Mentions the EE pipeline linked to an existing KB entity.
pub const EE_MENTIONS_LINKED: &str = "ee_mentions_linked";
/// Mentions the EE pipeline flagged as emerging (out-of-KB).
pub const EE_MENTIONS_EMERGING: &str = "ee_mentions_emerging";

// --- applications (ned-apps) ------------------------------------------

/// Queries answered by entity search.
pub const SEARCH_QUERIES: &str = "search_queries";
/// Documents returned across all search queries.
pub const SEARCH_DOCS_RETURNED: &str = "search_docs_returned";
/// Documents ingested into the analytics index.
pub const ANALYTICS_DOCS_INDEXED: &str = "analytics_docs_indexed";
/// Entity annotations ingested into the analytics index.
pub const ANALYTICS_MENTIONS_INDEXED: &str = "analytics_mentions_indexed";

// --- annotation service (ned-serve) ------------------------------------

/// Requests offered to the service (accepted or not).
pub const SERVE_SUBMITTED: &str = "serve_submitted";
/// Requests admitted into the bounded queue.
pub const SERVE_ACCEPTED: &str = "serve_accepted";
/// Requests rejected at admission because the queue was full.
pub const SERVE_REJECTED_QUEUE_FULL: &str = "serve_rejected_queue_full";
/// Requests rejected at admission because the service was shutting down.
pub const SERVE_REJECTED_SHUTDOWN: &str = "serve_rejected_shutdown";
/// Accepted requests answered with a typed `Shedded` result during the
/// shutdown drain (dequeued after drain began, never run).
pub const SERVE_SHED_DRAIN: &str = "serve_shed_drain";
/// Accepted requests shed because their deadline had already expired when a
/// worker dequeued them (only with the shed-expired policy).
pub const SERVE_SHED_DEADLINE: &str = "serve_shed_deadline";
/// Accepted requests completed at full fidelity.
pub const SERVE_COMPLETED_OK: &str = "serve_completed_ok";
/// Accepted requests completed on a degraded ladder rung.
pub const SERVE_COMPLETED_DEGRADED: &str = "serve_completed_degraded";
/// Accepted requests whose handler panicked (isolated; the worker survives).
pub const SERVE_FAILED: &str = "serve_failed";
/// Requests served with coherence disabled by the deadline ladder.
pub const SERVE_DEGRADED_NO_COHERENCE: &str = "serve_degraded_no_coherence";
/// Requests served by the popularity prior alone (deadline expired or
/// nearly so).
pub const SERVE_DEGRADED_PRIOR_ONLY: &str = "serve_degraded_prior_only";
/// Gauge: requests currently waiting in the bounded queue.
pub const SERVE_QUEUE_DEPTH: &str = "serve_queue_depth";
/// Gauge: high-water mark of the queue depth.
pub const SERVE_QUEUE_DEPTH_PEAK: &str = "serve_queue_depth_peak";
/// Histogram: end-to-end request latency (submit → response), nanoseconds.
pub const SERVE_LATENCY_NS: &str = "serve_latency_ns";
/// Histogram: time spent waiting in the queue before a worker picked the
/// request up, nanoseconds.
pub const SERVE_QUEUE_WAIT_NS: &str = "serve_queue_wait_ns";

// --- stage spans (durations; histograms in nanoseconds) ----------------

/// Span: candidate feature computation for one document.
pub const STAGE_FEATURES_NS: &str = "stage_features_ns";
/// Span: mention-entity graph construction for one document.
pub const STAGE_GRAPH_NS: &str = "stage_graph_ns";
/// Span: budgeted greedy solve for one document.
pub const STAGE_SOLVER_NS: &str = "stage_solver_ns";
/// Span: one full snapshot read.
pub const STAGE_SNAPSHOT_READ_NS: &str = "stage_snapshot_read_ns";

// --- incremental KB (crate ned-kb / ned-emerging) ----------------------

/// WAL mutation records observed: appended by writers plus replayed on
/// open.
pub const KB_WAL_RECORDS: &str = "kb_wal_records";
/// WAL replay passes (one per `Wal::open`).
pub const KB_WAL_REPLAYS: &str = "kb_wal_replays";
/// Gauge: entities added by the current delta overlay on top of the
/// frozen base.
pub const KB_DELTA_ENTITIES: &str = "kb_delta_entities";
/// Epoch swaps published to readers (`KbHandle::swap`).
pub const KB_EPOCH_SWAPS: &str = "kb_epoch_swaps";
/// Emerging entities promoted into the knowledge base.
pub const EE_PROMOTED: &str = "ee_promoted";
