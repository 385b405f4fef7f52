//! Request handlers: the work a service worker performs per request.
//!
//! The service is generic over an [`AnnotateHandler`] so robustness tests
//! can drive it with synthetic handlers ([`FnHandler`]) while production
//! uses [`AidaHandler`], which runs the real pipeline with the per-request
//! deadline plan applied.

use std::sync::{Arc, Mutex, RwLock};

use ned_aida::{AidaConfig, Annotation, DeadlinePlan, Disambiguator, JointConfig};
use ned_core::{DegradationLevel, NedError, ServeRequest};
use ned_kb::{KbEpoch, KbHandle, KbView};
use ned_obs::{Clock, Metrics};
use ned_relatedness::Relatedness;
use ned_text::{tokenize, Recognizer};

/// What a handler produced for one request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HandlerOutput {
    /// The accepted annotations.
    pub annotations: Vec<Annotation>,
    /// The degradation level the *pipeline* reported (the service combines
    /// it with the deadline plan's floor).
    pub degradation: DegradationLevel,
}

/// The per-request work function of a service worker.
///
/// Implementations receive the request and the deadline plan chosen at
/// dequeue time; they must not block indefinitely (the plan is the
/// mechanism for bounding work) and may panic — the service isolates the
/// fault to the request.
pub trait AnnotateHandler: Send + Sync {
    /// Annotates one request under the given plan.
    fn handle(&self, request: &ServeRequest, plan: &DeadlinePlan) -> HandlerOutput;
}

/// The production handler: the full AIDA pipeline with a shared
/// gazetteer-backed recognizer and a per-request disambiguator carrying the
/// plan-adjusted configuration.
///
/// The recognizer is expensive to build (it walks the whole dictionary) and
/// is built once; the disambiguator is cheap to construct over cloned
/// handles (`Arc<FrozenKb>`, `Arc<CachedRelatedness>`), which is exactly
/// what lets each request run under its own wall budget and feature rung.
pub struct AidaHandler<K, R> {
    kb: K,
    relatedness: R,
    base: AidaConfig,
    joint: JointConfig,
    recognizer: Recognizer,
    metrics: Metrics,
    clock: Clock,
}

// Manual Debug: `R` need not be Debug.
impl<K, R> std::fmt::Debug for AidaHandler<K, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AidaHandler")
            .field("base", &self.base)
            .field("joint", &self.joint)
            .finish_non_exhaustive()
    }
}

impl<K: KbView + Clone, R: Relatedness + Clone> AidaHandler<K, R> {
    /// Builds a handler over shared knowledge-base and relatedness handles.
    /// Validates `base` up front so per-request construction cannot fail.
    pub fn try_new(
        kb: K,
        relatedness: R,
        base: AidaConfig,
        joint: JointConfig,
    ) -> Result<Self, NedError> {
        base.validate()
            .map_err(|message| NedError::Config { what: "AidaConfig", message })?;
        let recognizer = joint.build_recognizer(&kb);
        Ok(AidaHandler {
            kb,
            relatedness,
            base,
            joint,
            recognizer,
            metrics: Metrics::disabled(),
            clock: Clock::system(),
        })
    }

    /// Records pipeline metrics into `metrics` (builder style).
    #[must_use]
    pub fn with_metrics(mut self, metrics: &Metrics) -> Self {
        self.metrics = metrics.clone();
        self
    }

    /// Overrides the clock per-request solvers budget against (builder
    /// style). The virtual-time load harness passes a manual clock here.
    #[must_use]
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The base (undegraded) configuration.
    pub fn base_config(&self) -> &AidaConfig {
        &self.base
    }
}

impl<K, R> AnnotateHandler for AidaHandler<K, R>
where
    K: KbView + Clone + Send + Sync,
    R: Relatedness + Clone + Send + Sync,
{
    fn handle(&self, request: &ServeRequest, plan: &DeadlinePlan) -> HandlerOutput {
        let tokens = tokenize(&request.text);
        let mentions = self.recognizer.recognize(&tokens);
        if mentions.is_empty() {
            return HandlerOutput { annotations: Vec::new(), degradation: plan.floor() };
        }
        let config = plan.apply(&self.base);
        // `base` validated at construction and `DeadlinePlan::apply`
        // preserves validity, so this cannot fail at runtime; the fallback
        // answers with no annotations at the plan's floor rather than
        // panicking a worker.
        let Ok(disambiguator) = Disambiguator::try_new(
            self.kb.clone(),
            self.relatedness.clone(),
            config,
        ) else {
            return HandlerOutput { annotations: Vec::new(), degradation: plan.floor() };
        };
        let disambiguator =
            disambiguator.with_metrics(&self.metrics).with_clock(self.clock.clone());
        let (annotations, degradation) = self.joint.link(&disambiguator, &tokens, mentions);
        HandlerOutput { annotations, degradation: degradation.max(plan.floor()) }
    }
}

/// A handler that follows a [`KbHandle`]'s epoch swaps between requests.
///
/// The incremental KB publishes promotions by swapping the epoch behind a
/// [`KbHandle`]; serving workers must pick the new epoch up *between*
/// requests without ever blocking on the rebuild. `EpochHandler` wraps a
/// build closure (epoch → inner handler, e.g. an [`AidaHandler`] over
/// `Arc<KbEpoch>`) and re-runs it lazily when the handle's generation
/// moves:
///
/// - **Fast path** (no swap since last request): one atomic generation
///   load plus a briefly-held read lock to clone the cached handler `Arc`.
/// - **On a swap**: exactly one worker wins the rebuild mutex (`try_lock`)
///   and constructs the new handler *outside* all locks — recognizer
///   construction walks the whole dictionary, so this can be milliseconds —
///   then stores it under a pointer-store-only write lock. Every other
///   worker keeps serving the previous epoch's handler until the store
///   lands. Workers never wait on a rebuild.
///
/// The build closure receives the new generation too, so callers can tag
/// epoch-dependent caches (e.g.
/// `ned_relatedness::CachedRelatedness::advance_generation`) before scoring
/// against the new KB.
pub struct EpochHandler<H, F> {
    handle: Arc<KbHandle>,
    build: F,
    current: RwLock<(u64, Arc<H>)>,
    /// Owned (via `try_lock`) by the one worker rebuilding after a swap.
    rebuilding: Mutex<()>,
}

impl<H, F> std::fmt::Debug for EpochHandler<H, F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let generation = self
            .current
            .read()
            .map(|guard| guard.0)
            .unwrap_or_else(|e| e.into_inner().0);
        f.debug_struct("EpochHandler")
            .field("generation", &generation)
            .finish_non_exhaustive()
    }
}

impl<H, F> EpochHandler<H, F>
where
    F: Fn(u64, &Arc<KbEpoch>) -> H,
{
    /// Builds the initial inner handler from the handle's current epoch.
    pub fn new(handle: Arc<KbHandle>, build: F) -> Self {
        let (generation, epoch) = handle.current();
        let inner = Arc::new(build(generation, &epoch));
        EpochHandler {
            handle,
            build,
            current: RwLock::new((generation, inner)),
            rebuilding: Mutex::new(()),
        }
    }

    /// The KB generation the cached inner handler was built against.
    pub fn generation(&self) -> u64 {
        self.current.read().map(|g| g.0).unwrap_or_else(|e| e.into_inner().0)
    }

    /// Returns the inner handler for the freshest observable epoch,
    /// rebuilding it first if this worker wins the rebuild race. Never
    /// blocks on a rebuild: losers serve the previous epoch's handler.
    fn pin(&self) -> Arc<H> {
        let target = self.handle.generation();
        let (pinned_generation, pinned) = {
            let guard = self.current.read().unwrap_or_else(|e| e.into_inner());
            (guard.0, Arc::clone(&guard.1))
        };
        if pinned_generation == target {
            return pinned;
        }
        if let Ok(_rebuild) = self.rebuilding.try_lock() {
            if let Some((generation, epoch)) = self.handle.try_current() {
                // Construct outside every lock — this is the expensive part.
                let fresh = Arc::new((self.build)(generation, &epoch));
                let mut guard = self.current.write().unwrap_or_else(|e| e.into_inner());
                *guard = (generation, Arc::clone(&fresh));
                return fresh;
            }
        }
        // A peer is rebuilding (or the writer is mid-swap): stale is fine,
        // the next request will observe the fresh handler.
        pinned
    }
}

impl<H, F> AnnotateHandler for EpochHandler<H, F>
where
    H: AnnotateHandler,
    F: Fn(u64, &Arc<KbEpoch>) -> H + Send + Sync,
{
    fn handle(&self, request: &ServeRequest, plan: &DeadlinePlan) -> HandlerOutput {
        self.pin().handle(request, plan)
    }
}

/// A closure-backed handler for tests and synthetic load models.
pub struct FnHandler<F>(F);

impl<F> std::fmt::Debug for FnHandler<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnHandler").finish_non_exhaustive()
    }
}

impl<F> FnHandler<F>
where
    F: Fn(&ServeRequest, &DeadlinePlan) -> HandlerOutput + Send + Sync,
{
    /// Wraps a closure as a handler.
    pub fn new(f: F) -> Self {
        FnHandler(f)
    }
}

impl<F> AnnotateHandler for FnHandler<F>
where
    F: Fn(&ServeRequest, &DeadlinePlan) -> HandlerOutput + Send + Sync,
{
    fn handle(&self, request: &ServeRequest, plan: &DeadlinePlan) -> HandlerOutput {
        (self.0)(request, plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use ned_kb::{DeltaKb, EntityKind, FrozenKb, KbBuilder, KbMutation};

    fn frozen() -> Arc<FrozenKb> {
        let mut builder = KbBuilder::new();
        let page = builder.add_entity("Jimmy Page", EntityKind::Person);
        builder.add_name(page, "Page", 5);
        builder.add_keyphrase(page, "led zeppelin guitarist", 3);
        Arc::new(FrozenKb::freeze(&builder.build()))
    }

    /// An inner handler that answers with the entity count of the epoch it
    /// was built over, so tests can see which epoch served a request.
    struct EpochProbe {
        entities: usize,
    }
    impl AnnotateHandler for EpochProbe {
        fn handle(&self, _request: &ServeRequest, plan: &DeadlinePlan) -> HandlerOutput {
            HandlerOutput { annotations: Vec::new(), degradation: plan.floor() }
        }
    }

    #[test]
    fn epoch_handler_rebuilds_once_per_swap() {
        let base = frozen();
        let handle = Arc::new(KbHandle::new(KbEpoch::Frozen(Arc::clone(&base))));
        let builds = AtomicUsize::new(0);
        let handler = EpochHandler::new(Arc::clone(&handle), |_generation, epoch| {
            builds.fetch_add(1, Ordering::SeqCst);
            EpochProbe { entities: epoch.entity_count() }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(handler.generation(), 0);
        let n0 = handler.pin().entities;

        // No swap: repeated requests reuse the cached handler.
        handler.handle(&ServeRequest::new(1, "x"), &DeadlinePlan::Full);
        handler.handle(&ServeRequest::new(2, "x"), &DeadlinePlan::Full);
        assert_eq!(builds.load(Ordering::SeqCst), 1);

        // Promote an entity and swap: the next pin rebuilds exactly once.
        let delta = DeltaKb::build(
            Arc::clone(&base),
            vec![KbMutation::AddEntity {
                canonical_name: "Prism (emerging)".into(),
                kind: EntityKind::Other,
            }],
        )
        .unwrap();
        handle.swap(KbEpoch::Delta(Arc::new(delta)));
        assert_eq!(handler.pin().entities, n0 + 1);
        assert_eq!(builds.load(Ordering::SeqCst), 2);
        assert_eq!(handler.generation(), 1);
        handler.handle(&ServeRequest::new(3, "x"), &DeadlinePlan::Full);
        assert_eq!(builds.load(Ordering::SeqCst), 2, "one rebuild per swap");
    }

    #[test]
    fn epoch_handler_serves_stale_instead_of_waiting_on_a_rebuild() {
        let base = frozen();
        let handle = Arc::new(KbHandle::new(KbEpoch::Frozen(Arc::clone(&base))));
        let handler = EpochHandler::new(Arc::clone(&handle), |_generation, epoch| {
            EpochProbe { entities: epoch.entity_count() }
        });
        let n0 = handler.pin().entities;
        handle.swap(KbEpoch::Frozen(Arc::clone(&base)));
        // A peer worker is mid-rebuild: this worker must not wait for it.
        let _rebuild_in_progress = handler.rebuilding.lock().unwrap();
        assert_eq!(handler.pin().entities, n0, "stale epoch served");
        assert_eq!(handler.generation(), 0, "not rebuilt while peer holds the lock");
        drop(_rebuild_in_progress);
        handler.pin();
        assert_eq!(handler.generation(), 1, "rebuilds once the peer finishes");
    }

    #[test]
    fn epoch_handler_wraps_the_real_pipeline() {
        use ned_relatedness::{CachedRelatedness, MilneWitten};

        let base = frozen();
        let handle = Arc::new(KbHandle::new(KbEpoch::Frozen(Arc::clone(&base))));
        let handler = EpochHandler::new(Arc::clone(&handle), |_generation, epoch| {
            let kb = Arc::clone(epoch);
            let relatedness =
                Arc::new(CachedRelatedness::new(MilneWitten::new(Arc::clone(epoch))));
            AidaHandler::try_new(
                kb,
                relatedness,
                AidaConfig::default(),
                JointConfig::default(),
            )
            .expect("valid config")
        });
        let out =
            handler.handle(&ServeRequest::new(1, "Page played guitar."), &DeadlinePlan::Full);
        let linked_before: Vec<_> =
            out.annotations.iter().map(|a| a.entity).collect();

        // Promote an alias for a brand-new entity and swap; the handler
        // must annotate with the new epoch's dictionary.
        let delta = DeltaKb::build(
            Arc::clone(&base),
            vec![
                KbMutation::AddEntity {
                    canonical_name: "Prism (emerging)".into(),
                    kind: EntityKind::Other,
                },
                KbMutation::AddKeyphrase {
                    entity: "Prism (emerging)".into(),
                    surface: "secret surveillance program".into(),
                    count: 3,
                },
                KbMutation::AddDictionarySurface {
                    entity: "Prism (emerging)".into(),
                    surface: "Prism".into(),
                    count: 4,
                },
            ],
        )
        .unwrap();
        let promoted = delta.entity_by_name("Prism (emerging)").unwrap();
        handle.swap(KbEpoch::Delta(Arc::new(delta)));

        let out = handler
            .handle(&ServeRequest::new(2, "Prism tracked calls."), &DeadlinePlan::Full);
        assert!(
            out.annotations.iter().any(|a| a.entity == promoted),
            "promoted entity is annotatable after the swap: {:?}",
            out.annotations
        );
        assert!(!linked_before.contains(&promoted));
    }

    #[test]
    fn epoch_swap_invalidates_a_bounded_cache_shared_across_rebuilds() {
        use ned_kb::{EntityId, KbView};
        use ned_obs::Metrics;
        use ned_relatedness::{CacheConfig, CachedRelatedness, MilneWitten};

        // A measure that always reads the handle's *current* epoch, like a
        // serving worker does between requests. The bounded cache in front
        // of it survives epoch swaps; only `advance_generation` (called by
        // the rebuild closure, mirroring a production epoch handler) may
        // drop its memoized scores.
        struct LiveMw {
            handle: Arc<KbHandle>,
        }
        impl Relatedness for LiveMw {
            fn name(&self) -> &'static str {
                "live-mw"
            }
            fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
                let (_, epoch) = self.handle.current();
                MilneWitten::new(epoch).relatedness(a, b)
            }
        }

        // a and b share both of their in-linkers, so MW(a, b) is maximal
        // until a promoted entity links to only one of them.
        let mut builder = KbBuilder::new();
        let a = builder.add_entity("A", EntityKind::Other);
        let b = builder.add_entity("B", EntityKind::Other);
        let x = builder.add_entity("X", EntityKind::Other);
        let y = builder.add_entity("Y", EntityKind::Other);
        builder.add_entity("C", EntityKind::Other);
        builder.add_link(x, a);
        builder.add_link(x, b);
        builder.add_link(y, a);
        builder.add_link(y, b);
        let base = Arc::new(FrozenKb::freeze(&builder.build()));

        let handle = Arc::new(KbHandle::new(KbEpoch::Frozen(Arc::clone(&base))));
        let metrics = Metrics::new();
        // Bounded tight: generation invalidation must compose with the
        // eviction books (dropped entries count as evictions, conservation
        // stays exact).
        let cache = Arc::new(CachedRelatedness::with_config(
            LiveMw { handle: Arc::clone(&handle) },
            &metrics,
            CacheConfig::bounded(64 * ned_relatedness::ENTRY_BYTES),
        ));
        let shared = Arc::clone(&cache);
        let handler = EpochHandler::new(Arc::clone(&handle), move |generation, epoch| {
            shared.advance_generation(generation);
            EpochProbe { entities: epoch.entity_count() }
        });

        let before = cache.relatedness(a, b);
        assert!(!cache.cache().is_empty(), "the score was memoized");
        assert_eq!(before.to_bits(), cache.relatedness(a, b).to_bits(), "served from cache");

        let delta = DeltaKb::build(
            Arc::clone(&base),
            vec![
                KbMutation::AddEntity {
                    canonical_name: "Prism (emerging)".into(),
                    kind: EntityKind::Other,
                },
                KbMutation::AddLink { src: "Prism (emerging)".into(), dst: "A".into() },
            ],
        )
        .unwrap();
        let expected = MilneWitten::new(&delta).relatedness(a, b);
        assert_ne!(expected.to_bits(), before.to_bits(), "promotion changes the score");
        handle.swap(KbEpoch::Delta(Arc::new(delta)));

        // The next request pins the fresh epoch; the rebuild closure runs
        // `advance_generation`, so the stale memoized score is gone.
        handler.handle(&ServeRequest::new(1, "x"), &DeadlinePlan::Full);
        assert_eq!(
            cache.relatedness(a, b).to_bits(),
            expected.to_bits(),
            "post-swap lookups must see the promoted entity's effect"
        );
        // Conservation holds across the swap: the generation drop counted
        // its entries as evictions.
        let pc = cache.cache();
        assert!(pc.evictions() > 0, "the generation drop is accounted as evictions");
        assert_eq!(pc.inserts(), pc.evictions() + pc.len() as u64);
        assert_eq!(
            pc.misses(),
            pc.inserts() + pc.admit_rejected() + pc.stale_discards()
        );
    }

    #[test]
    fn fn_handler_passes_through() {
        let h = FnHandler::new(|_req: &ServeRequest, plan: &DeadlinePlan| HandlerOutput {
            annotations: Vec::new(),
            degradation: plan.floor(),
        });
        let out = h.handle(&ServeRequest::new(1, "x"), &DeadlinePlan::PriorOnly);
        assert_eq!(out.degradation, DegradationLevel::PriorOnly);
        assert!(out.annotations.is_empty());
    }
}
