//! Memoizing pair cache for relatedness measures, with bounded memory.
//!
//! The AIDA coherence table asks for each entity pair it evaluates;
//! caching turns pairs repeated across documents into hash lookups. A
//! long-running service touches many distinct pairs, so the cache can be
//! size-aware: a byte cap ([`CacheConfig::max_bytes`]) is enforced by
//! least-recently-used eviction with flat per-entry byte accounting
//! ([`size::ENTRY_BYTES`]).
//!
//! The module splits along three seams: a private `lru` module holds the
//! eviction order, [`size`] the byte accounting, and a private metrics
//! module the counter plumbing. [`PairCache`] is the bounded concurrent
//! map; [`CachedRelatedness`] wraps it around any [`Relatedness`] measure.
//!
//! # Determinism contract
//!
//! Eviction order is a pure function of the access sequence. All recency
//! state is per-shard; recency is the shard's logical access index (no
//! ambient clock); the victim is the minimum by `(last-access index,
//! key)`. Keys shard by [`shard_index`], so any driver that replays each
//! shard's access sub-sequence in order — on any number of threads that
//! partition the shards — reproduces hit/miss/evict sequences and counter
//! totals bit-identically. The model harness in `tests/cache_model.rs`
//! replays generated traces against a reference oracle and asserts
//! exactly that.
//!
//! Accounting is deterministic the same way the unbounded cache's always
//! was: a lookup counts as a miss only when its second visit completes
//! under the shard's write lock, so every completed lookup is exactly one
//! hit or one miss, and every miss resolves to exactly one of insert /
//! admit-reject / stale-discard. A bounded shard admits every computed
//! pair, so it rejects one only when its cap is below one entry. The
//! conservation laws (`lookups == hits + misses`, `misses == inserts +
//! admit_rejected + stale_discards`, `evictions + live_entries ==
//! inserts`, `bytes <= cap`) hold under any interleaving.
//!
//! # Generations
//!
//! [`PairCache::advance_generation`] composes invalidation with eviction:
//! the tag moves first, then every shard is cleared (dropped entries count
//! as evictions, keeping the conservation laws exact). A lookup records
//! the tag at its start and re-checks it under the write lock before
//! inserting; if the tag moved mid-lookup the insert is discarded
//! (`relatedness_cache_stale_discards`), so once `advance_generation`
//! returns no stale-generation value can ever be served from the cache.
//!
//! The cache holds plain memoized floats, so a shard whose lock was
//! poisoned by a panicking worker is still structurally sound. Every lock
//! acquisition recovers from poison instead of propagating it — one
//! crashed document must not wedge the shared cache for the rest of the
//! batch.

mod lru;
mod metrics;
pub mod size;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use ned_kb::fx::FxHashMap;
use ned_kb::EntityId;
use ned_obs::Metrics;

use crate::traits::Relatedness;
use lru::Lru;
use metrics::{CacheCounters, CacheGauges};
pub use size::ENTRY_BYTES;

/// Canonical `(min, max)` entity pair — the cache's key type.
pub type PairKey = (EntityId, EntityId);

/// Number of independent shards (fixed, so shard assignment — and with it
/// the determinism contract — never depends on configuration).
pub const SHARD_COUNT: usize = 16;

/// Canonicalizes an entity pair to the `(min, max)` key all symmetric
/// measures share.
pub fn canonical_key(a: EntityId, b: EntityId) -> PairKey {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The shard a canonical key lives in. Public so deterministic drivers
/// (and the model-test oracle) can partition work by shard.
pub fn shard_index(key: PairKey) -> usize {
    (key.0 .0 as usize ^ (key.1 .0 as usize).rotate_left(16)) % SHARD_COUNT
}

/// How a [`PairCache`] is bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheConfig {
    /// Total byte cap across all shards; `None` is unbounded. Entries are
    /// charged a flat [`ENTRY_BYTES`], so the entry capacity is
    /// `max_bytes / ENTRY_BYTES` (a cap below one entry caches nothing).
    pub max_bytes: Option<u64>,
}

impl CacheConfig {
    /// No byte cap: every computed pair is memoized (the default).
    pub fn unbounded() -> Self {
        CacheConfig::default()
    }

    /// A byte cap; a full shard evicts its least recently used pair.
    pub fn bounded(max_bytes: u64) -> Self {
        CacheConfig { max_bytes: Some(max_bytes) }
    }
}

/// What one completed lookup did, in the order it did it. Returned by
/// [`PairCache::get_or_insert_with`] so the model harness can compare the
/// real cache against its oracle event-by-event; exactly one of
/// `hit` / `inserted` / `admit_rejected` / `stale_discarded` is set on
/// every completed lookup.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LookupEvents {
    /// Served from the cache (including a racing duplicate insert).
    pub hit: bool,
    /// The freshly computed value was memoized.
    pub inserted: bool,
    /// The freshly computed value was not memoized because the shard's
    /// byte cap is below one entry (it is still returned to the caller).
    pub admit_rejected: bool,
    /// The insert was discarded because the KB generation moved between
    /// the lookup's probe and its insert.
    pub stale_discarded: bool,
    /// Keys evicted to make room, in eviction order (empty unless
    /// `inserted`).
    pub evicted: Vec<PairKey>,
}

/// One shard: the memoized pairs plus the byte and recency state guarding
/// them. Everything behind one lock, so the per-shard invariants (the
/// recency books hold exactly the map's keys; `bytes == len * ENTRY_BYTES
/// <= cap`) hold at every guard drop.
#[derive(Debug)]
struct Shard {
    map: FxHashMap<PairKey, f64>,
    /// Present iff the cache is bounded.
    lru: Option<Lru>,
    bytes: u64,
    bytes_peak: u64,
}

impl Shard {
    fn new(cap_bytes: Option<u64>) -> Self {
        Shard { map: FxHashMap::default(), lru: cap_bytes.map(Lru::new), bytes: 0, bytes_peak: 0 }
    }

    /// Records a hit (recency moves only in a bounded shard).
    fn note_hit(&mut self, key: PairKey) {
        if let Some(lru) = self.lru.as_mut() {
            lru.touch(key);
        }
    }

    /// Evicts least recently used pairs until one more entry fits,
    /// appending them to `events.evicted`. Returns false when nothing is
    /// left to evict and still no entry fits: the cap is below one entry.
    fn make_room(&mut self, events: &mut LookupEvents) -> bool {
        let Some(lru) = self.lru.as_mut() else {
            return true;
        };
        while self.bytes.saturating_add(ENTRY_BYTES) > lru.cap_bytes {
            let Some(victim) = lru.pop_coldest() else {
                return false;
            };
            if self.map.remove(&victim).is_some() {
                self.bytes = self.bytes.saturating_sub(ENTRY_BYTES);
            }
            events.evicted.push(victim);
        }
        true
    }

    /// Memoizes `key -> value` (room already made).
    fn insert(&mut self, key: PairKey, value: f64) {
        self.map.insert(key, value);
        self.bytes = self.bytes.saturating_add(ENTRY_BYTES);
        self.bytes_peak = self.bytes_peak.max(self.bytes);
        if let Some(lru) = self.lru.as_mut() {
            lru.touch(key);
        }
    }

    /// Drops every entry (generation advance / clear), returning how many
    /// were dropped so the caller can count them as evictions.
    fn drop_all(&mut self) -> u64 {
        let dropped = self.map.len() as u64;
        self.map.clear();
        self.bytes = 0;
        if let Some(lru) = self.lru.as_mut() {
            lru.clear();
        }
        dropped
    }
}

/// A sharded, optionally byte-capped, generation-tagged concurrent map
/// from canonical entity pairs to scores. The reusable core under
/// [`CachedRelatedness`]; public so test harnesses and benches can drive
/// it directly with a pure compute function.
#[derive(Debug)]
pub struct PairCache {
    shards: Vec<RwLock<Shard>>,
    bounded: bool,
    /// KB generation the cached pairs were computed against.
    kb_generation: AtomicU64,
    counters: CacheCounters,
    gauges: CacheGauges,
}

impl PairCache {
    /// An empty cache with the given bound, its counters and gauges
    /// registered in `metrics` (pass [`Metrics::disabled`] to skip
    /// accounting).
    pub fn new(config: CacheConfig, metrics: &Metrics) -> Self {
        let caps: Vec<Option<u64>> = match config.max_bytes {
            None => vec![None; SHARD_COUNT],
            Some(total) => {
                size::shard_byte_caps(total, SHARD_COUNT).into_iter().map(Some).collect()
            }
        };
        PairCache {
            shards: caps.into_iter().map(|c| RwLock::new(Shard::new(c))).collect(),
            bounded: config.max_bytes.is_some(),
            kb_generation: AtomicU64::new(0),
            counters: CacheCounters::new(metrics),
            gauges: CacheGauges::new(metrics),
        }
    }

    /// Looks `(a, b)` up (symmetric: the pair is canonicalized), calling
    /// `compute` outside any lock on a miss. Returns the score plus what
    /// the lookup did.
    ///
    /// Two-phase protocol: the probe visit serves hits; a miss computes
    /// with no lock held, then a second visit under the write lock
    /// re-probes (a racing worker may have inserted first — that counts
    /// as a hit and the duplicate computation is discarded), re-checks the
    /// generation tag, and evicts to make room. Counters are bumped after
    /// the guard drops; the critical section covers only the shard.
    pub fn get_or_insert_with<F: FnOnce() -> f64>(
        &self,
        a: EntityId,
        b: EntityId,
        compute: F,
    ) -> (f64, LookupEvents) {
        let key = canonical_key(a, b);
        let idx = shard_index(key);
        let mut events = LookupEvents::default();
        let Some(shard) = self.shards.get(idx) else {
            // `shard_index` reduces mod SHARD_COUNT, so this arm is
            // unreachable; degrade to the uncached compute.
            return (compute(), events);
        };
        let gen_at_start = self.kb_generation.load(Ordering::Acquire);
        let cached = if self.bounded {
            // Bounded: a hit moves recency state, so probe under the
            // write lock.
            let mut g = shard.write().unwrap_or_else(|e| e.into_inner());
            let probed = g.map.get(&key).copied();
            if probed.is_some() {
                g.note_hit(key);
            }
            probed
        } else {
            // Unbounded: hits need no recency bookkeeping, so the probe
            // stays on the cheap read lock.
            shard.read().unwrap_or_else(|e| e.into_inner()).map.get(&key).copied()
        };
        if let Some(v) = cached {
            events.hit = true;
            self.counters.apply(&events);
            return (v, events);
        }
        let v = compute();
        let value = {
            let mut g = shard.write().unwrap_or_else(|e| e.into_inner());
            if let Some(&existing) = g.map.get(&key) {
                // A racing worker inserted first; this lookup is a hit and
                // the duplicate computation is discarded (pure measures,
                // same value).
                g.note_hit(key);
                events.hit = true;
                existing
            } else if self.kb_generation.load(Ordering::Acquire) != gen_at_start {
                // The KB generation moved while we computed: the value may
                // be stale, so it must not outlive this lookup in the
                // cache. Returning it is fine — the lookup overlapped the
                // swap — but memoizing it would serve stale scores forever.
                events.stale_discarded = true;
                v
            } else if g.make_room(&mut events) {
                g.insert(key, v);
                events.inserted = true;
                v
            } else {
                events.admit_rejected = true;
                v
            }
        };
        self.counters.apply(&events);
        (value, events)
    }
    /// The KB generation the cached pairs were computed against.
    pub fn generation(&self) -> u64 {
        self.kb_generation.load(Ordering::Acquire)
    }

    /// Tags the cache with the KB generation it is serving. When the tag
    /// moves, every memoized pair is dropped (counted as evictions) and
    /// any in-flight insert that started under the old tag is discarded —
    /// stale scores must never survive a swap. Returns true when the
    /// cache was invalidated.
    ///
    /// Callers sequence this *before* computing against the new KB (swap →
    /// advance → score), so a racing worker can at worst re-insert a value
    /// computed against the new epoch — never resurrect an old one.
    pub fn advance_generation(&self, generation: u64) -> bool {
        if self.kb_generation.swap(generation, Ordering::AcqRel) == generation {
            return false;
        }
        self.clear();
        true
    }

    /// Drops all cached pairs. Dropped entries count as evictions so the
    /// `evictions + live_entries == inserts` conservation law stays exact;
    /// the other counters keep accumulating.
    pub fn clear(&self) {
        let mut dropped = 0u64;
        for shard in &self.shards {
            dropped += shard.write().unwrap_or_else(|e| e.into_inner()).drop_all();
        }
        if dropped > 0 {
            self.counters.evictions.add(dropped);
        }
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().unwrap_or_else(|e| e.into_inner()).map.len()).sum()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged to cached pairs (always `<=` the cap: each
    /// shard enforces its slice under its own lock).
    pub fn bytes_used(&self) -> u64 {
        self.shards.iter().map(|s| s.read().unwrap_or_else(|e| e.into_inner()).bytes).sum()
    }

    /// High-water mark of charged bytes (sum of per-shard peaks, so also
    /// `<=` the cap).
    pub fn bytes_peak(&self) -> u64 {
        self.shards.iter().map(|s| s.read().unwrap_or_else(|e| e.into_inner()).bytes_peak).sum()
    }

    /// Every cached pair, sorted by key — the model harness compares this
    /// against its oracle's final contents. Sorting makes the result
    /// independent of hash-map iteration order.
    pub fn contents(&self) -> Vec<(PairKey, f64)> {
        let mut out: Vec<(PairKey, f64)> = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let g = shard.read().unwrap_or_else(|e| e.into_inner());
            // ned-lint: allow(d1) — sorted by key below before returning
            out.extend(g.map.iter().map(|(&k, &v)| (k, v)));
        }
        out.sort_unstable_by_key(|x| x.0);
        out
    }

    /// Publishes the byte/occupancy gauges (`relatedness_cache_bytes`,
    /// `_bytes_peak`, `_entries`) from the current shard state. Explicit
    /// publication — like the evaluation counters — keeps snapshots
    /// interleaving-independent: call it at a quiescent point, then
    /// snapshot.
    pub fn publish_gauges(&self) {
        let (mut bytes, mut peak, mut entries) = (0u64, 0u64, 0u64);
        for shard in &self.shards {
            let g = shard.read().unwrap_or_else(|e| e.into_inner());
            bytes += g.bytes;
            peak += g.bytes_peak;
            entries += g.map.len() as u64;
        }
        self.gauges.bytes.set(bytes);
        self.gauges.bytes_peak.set(peak);
        self.gauges.entries.set(entries);
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.counters.hits.value()
    }

    /// Lookups that computed a fresh value so far.
    pub fn misses(&self) -> u64 {
        self.counters.misses.value()
    }

    /// Entries written so far.
    pub fn inserts(&self) -> u64 {
        self.counters.inserts.value()
    }

    /// Entries dropped so far (LRU evictions plus invalidation drops).
    pub fn evictions(&self) -> u64 {
        self.counters.evictions.value()
    }

    /// Lookups on a shard whose cap is below one entry so far.
    pub fn admit_rejected(&self) -> u64 {
        self.counters.admit_rejected.value()
    }

    /// Inserts discarded because the generation moved mid-lookup so far.
    pub fn stale_discards(&self) -> u64 {
        self.counters.stale_discards.value()
    }

    /// Fraction of lookups served from the cache, in [0, 1]; 0 when no
    /// lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.counters.hits.value();
        let total = hits + self.counters.misses.value();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// A relatedness measure with an internal [`PairCache`].
// Manual Debug: `M` need not be Debug.
pub struct CachedRelatedness<M> {
    inner: M,
    cache: PairCache,
}

impl<M> std::fmt::Debug for CachedRelatedness<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedRelatedness")
            .field("cache", &self.cache)
            .finish_non_exhaustive()
    }
}

impl<M: Relatedness> CachedRelatedness<M> {
    /// Wraps `inner` with an empty unbounded cache and a private metrics
    /// registry.
    pub fn new(inner: M) -> Self {
        Self::with_metrics(inner, &Metrics::new())
    }

    /// Wraps `inner` with an empty unbounded cache, recording the cache
    /// counters into the given registry (pass [`Metrics::disabled`] to
    /// skip accounting entirely).
    pub fn with_metrics(inner: M, metrics: &Metrics) -> Self {
        Self::with_config(inner, metrics, CacheConfig::unbounded())
    }

    /// Wraps `inner` with a cache bounded per `config`.
    pub fn with_config(inner: M, metrics: &Metrics, config: CacheConfig) -> Self {
        CachedRelatedness { inner, cache: PairCache::new(config, metrics) }
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        self.cache.len()
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.cache.is_empty()
    }

    /// Drops all cached pairs (dropped entries count as evictions).
    pub fn clear(&self) {
        self.cache.clear();
    }

    /// The KB generation the cached pairs were computed against.
    pub fn generation(&self) -> u64 {
        self.cache.generation()
    }

    /// Tags the cache with the KB generation it is serving (e.g. from
    /// `ned_kb::KbHandle::generation`); see
    /// [`PairCache::advance_generation`]. Returns true when the cache was
    /// invalidated.
    pub fn advance_generation(&self, generation: u64) -> bool {
        self.cache.advance_generation(generation)
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Lookups that computed a fresh value so far.
    pub fn misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Entries written so far.
    pub fn inserts(&self) -> u64 {
        self.cache.inserts()
    }

    /// Entries dropped so far (LRU evictions plus invalidation drops).
    pub fn evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Lookups on a shard whose cap is below one entry so far.
    pub fn admit_rejected(&self) -> u64 {
        self.cache.admit_rejected()
    }

    /// Inserts discarded because the generation moved mid-lookup so far.
    pub fn stale_discards(&self) -> u64 {
        self.cache.stale_discards()
    }

    /// Fraction of lookups served from the cache, in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Bytes currently charged to cached pairs.
    pub fn bytes_used(&self) -> u64 {
        self.cache.bytes_used()
    }

    /// High-water mark of charged bytes.
    pub fn bytes_peak(&self) -> u64 {
        self.cache.bytes_peak()
    }

    /// Publishes the byte/occupancy gauges; see
    /// [`PairCache::publish_gauges`].
    pub fn publish_gauges(&self) {
        self.cache.publish_gauges();
    }

    /// The underlying pair cache.
    pub fn cache(&self) -> &PairCache {
        &self.cache
    }

    /// The wrapped measure.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: Relatedness> Relatedness for CachedRelatedness<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
        self.cache.get_or_insert_with(a, b, || self.inner.relatedness(a, b)).0
    }

    /// The wrapped measure's enumeration; it reads no cached value, so it
    /// counts as no lookup.
    fn nonzero_pairs(&self, entities: &[EntityId], out: &mut Vec<(u32, u32)>) {
        self.inner.nonzero_pairs(entities, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    struct Counting {
        calls: AtomicUsize,
    }

    impl Relatedness for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn relatedness(&self, a: EntityId, b: EntityId) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            f64::from(a.0 + b.0)
        }
    }

    fn counting() -> Counting {
        Counting { calls: AtomicUsize::new(0) }
    }

    /// `n` distinct keys that all land in one shard, so per-shard eviction
    /// can be asserted without cross-shard noise.
    fn colliding_keys(n: usize) -> Vec<PairKey> {
        let target = shard_index(canonical_key(EntityId(0), EntityId(0)));
        let mut keys = Vec::new();
        let mut i = 0u32;
        while keys.len() < n {
            let k = canonical_key(EntityId(i), EntityId(i));
            if shard_index(k) == target {
                keys.push(k);
            }
            i += 1;
        }
        keys
    }

    #[test]
    fn caches_symmetric_pairs() {
        let c = CachedRelatedness::new(counting());
        let a = EntityId(1);
        let b = EntityId(2);
        assert_eq!(c.relatedness(a, b), 3.0);
        assert_eq!(c.relatedness(b, a), 3.0);
        assert_eq!(c.inner().calls.load(Ordering::Relaxed), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn clear_resets_and_counts_evictions() {
        let c = CachedRelatedness::new(counting());
        c.relatedness(EntityId(1), EntityId(2));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.evictions(), 1, "clear drops count as evictions");
        c.relatedness(EntityId(1), EntityId(2));
        assert_eq!(c.inner().calls.load(Ordering::Relaxed), 2);
        assert_eq!(c.inserts(), c.evictions() + c.len() as u64, "conservation");
    }

    #[test]
    fn distinct_pairs_cached_separately() {
        let c = CachedRelatedness::new(counting());
        for i in 0..10u32 {
            c.relatedness(EntityId(i), EntityId(i + 1));
        }
        assert_eq!(c.len(), 10);
        assert_eq!(c.bytes_used(), 10 * ENTRY_BYTES);
        assert_eq!(c.bytes_peak(), 10 * ENTRY_BYTES);
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let c = CachedRelatedness::new(counting());
        let (a, b) = (EntityId(3), EntityId(9));
        c.relatedness(a, b); // miss + insert
        c.relatedness(a, b); // hit
        c.relatedness(b, a); // hit (canonicalized key)
        assert_eq!(c.misses(), 1);
        assert_eq!(c.inserts(), 1);
        assert_eq!(c.hits(), 2);
        assert!((c.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn counters_land_in_a_shared_registry() {
        use ned_obs::names;
        let m = Metrics::new();
        let c = CachedRelatedness::with_metrics(counting(), &m);
        c.relatedness(EntityId(1), EntityId(2));
        c.relatedness(EntityId(1), EntityId(2));
        c.publish_gauges();
        let snap = m.snapshot();
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_MISSES), 1);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_INSERTS), 1);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_HITS), 1);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_EVICTIONS), 0);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_ADMIT_REJECTED), 0);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_STALE_DISCARDS), 0);
        assert_eq!(snap.gauge(names::RELATEDNESS_CACHE_BYTES), ENTRY_BYTES);
        assert_eq!(snap.gauge(names::RELATEDNESS_CACHE_BYTES_PEAK), ENTRY_BYTES);
        assert_eq!(snap.gauge(names::RELATEDNESS_CACHE_ENTRIES), 1);
    }

    #[test]
    fn disabled_metrics_skip_accounting_but_still_cache() {
        let c = CachedRelatedness::with_metrics(counting(), &Metrics::disabled());
        c.relatedness(EntityId(1), EntityId(2));
        c.relatedness(EntityId(1), EntityId(2));
        assert_eq!(c.inner().calls.load(Ordering::Relaxed), 1, "still memoizes");
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.hit_rate(), 0.0);
    }

    #[test]
    fn poisoned_shard_recovers() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::Arc;

        let c = Arc::new(CachedRelatedness::new(counting()));
        let (a, b) = (EntityId(1), EntityId(2));
        c.relatedness(a, b);
        // Poison the shard holding (a, b) by panicking while its write
        // lock is held, exactly like a crashed worker would.
        let idx = shard_index(canonical_key(a, b));
        let poisoner = Arc::clone(&c);
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _guard = poisoner.cache.shards[idx].write().unwrap();
            panic!("worker died mid-insert");
        }));
        std::panic::set_hook(hook);
        assert!(result.is_err());
        assert!(c.cache.shards[idx].is_poisoned());
        // Reads, writes, and maintenance all still work.
        assert_eq!(c.relatedness(a, b), 3.0, "cached value survives poison");
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.relatedness(b, a), 3.0);
    }

    #[test]
    fn byte_cap_is_a_hard_bound_under_lru() {
        // One entry per shard; 40 keys colliding into a single shard churn
        // that shard's one slot under LRU.
        let cap = SHARD_COUNT as u64 * ENTRY_BYTES;
        let m = Metrics::new();
        let c = CachedRelatedness::with_config(counting(), &m, CacheConfig::bounded(cap));
        for k in colliding_keys(40) {
            assert_eq!(c.relatedness(k.0, k.1), f64::from(k.0 .0 + k.1 .0));
            assert!(c.bytes_used() <= cap, "cap violated mid-run");
        }
        // LRU admits everything: 40 distinct pairs -> 40 inserts, 39
        // evictions, 1 live.
        assert_eq!(c.misses(), 40);
        assert_eq!(c.inserts(), 40);
        assert_eq!(c.evictions(), 39);
        assert_eq!(c.admit_rejected(), 0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes_peak(), ENTRY_BYTES);
    }

    #[test]
    fn a_full_shard_evicts_its_least_recently_used_pair() {
        // Two entries per shard; three keys colliding into one shard.
        let cache = PairCache::new(
            CacheConfig::bounded(2 * SHARD_COUNT as u64 * ENTRY_BYTES),
            &Metrics::new(),
        );
        let keys = colliding_keys(3);
        let (k1, k2, k3) = (keys[0], keys[1], keys[2]);
        cache.get_or_insert_with(k1.0, k1.1, || 1.0);
        cache.get_or_insert_with(k2.0, k2.1, || 2.0);
        // The hit makes k1 the most recently used, so k2 is the victim.
        let (_, hit) = cache.get_or_insert_with(k1.0, k1.1, || 9.0);
        assert!(hit.hit);
        let (_, e3) = cache.get_or_insert_with(k3.0, k3.1, || 3.0);
        assert!(e3.inserted);
        assert_eq!(e3.evicted, vec![k2]);
        assert_eq!(cache.contents(), vec![(k1, 1.0), (k3, 3.0)]);
        assert_eq!(cache.admit_rejected(), 0, "a shard with room for an entry admits every pair");
    }

    #[test]
    fn capped_cache_results_match_unbounded() {
        let capped = CachedRelatedness::with_config(
            counting(),
            &Metrics::new(),
            CacheConfig::bounded(2 * ENTRY_BYTES),
        );
        let unbounded = CachedRelatedness::new(counting());
        for i in 0..20u32 {
            for j in 0..3u32 {
                let (a, b) = (EntityId(i), EntityId(i + j + 1));
                assert_eq!(
                    capped.relatedness(a, b).to_bits(),
                    unbounded.relatedness(a, b).to_bits()
                );
            }
        }
    }

    #[test]
    fn eviction_accounting_is_deterministic_for_a_fixed_sequence() {
        let run = || {
            let m = Metrics::new();
            let config = CacheConfig::bounded(7 * ENTRY_BYTES);
            let c = CachedRelatedness::with_config(counting(), &m, config);
            for i in 0..60u32 {
                c.relatedness(EntityId(i % 13), EntityId((i * 7) % 17 + 1));
            }
            c.publish_gauges();
            m.snapshot()
        };
        assert_eq!(run(), run(), "sequence-determinism broke");
    }

    #[test]
    fn unbounded_cache_never_rejects_or_evicts() {
        use ned_obs::names;
        let m = Metrics::new();
        let c = CachedRelatedness::with_metrics(counting(), &m);
        for i in 0..100u32 {
            c.relatedness(EntityId(i), EntityId(i + 1));
        }
        assert_eq!(c.admit_rejected(), 0);
        assert_eq!(c.evictions(), 0);
        assert_eq!(m.snapshot().counter(names::RELATEDNESS_CACHE_ADMIT_REJECTED), 0);
    }

    #[test]
    fn zero_capacity_cache_still_answers() {
        let c =
            CachedRelatedness::with_config(counting(), &Metrics::new(), CacheConfig::bounded(0));
        assert_eq!(c.relatedness(EntityId(1), EntityId(2)), 3.0);
        assert_eq!(c.relatedness(EntityId(1), EntityId(2)), 3.0);
        assert!(c.is_empty());
        assert_eq!(c.admit_rejected(), 2);
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.inner().calls.load(Ordering::Relaxed), 2, "nothing memoized");
    }

    #[test]
    fn advance_generation_drops_entries_only_on_change() {
        let c = CachedRelatedness::new(counting());
        assert_eq!(c.generation(), 0);
        c.relatedness(EntityId(1), EntityId(2));
        // Same generation: nothing dropped.
        assert!(!c.advance_generation(0));
        assert_eq!(c.len(), 1);
        // New generation: cache invalidated, tag advanced, drop counted
        // as an eviction.
        assert!(c.advance_generation(3));
        assert_eq!(c.generation(), 3);
        assert!(c.is_empty());
        assert_eq!(c.evictions(), 1);
        c.relatedness(EntityId(1), EntityId(2));
        assert_eq!(c.inner().calls.load(Ordering::Relaxed), 2, "recomputed");
    }

    #[test]
    fn epoch_swap_yields_fresh_scores_for_promoted_entities() {
        use crate::milne_witten::MilneWitten;
        use ned_kb::{DeltaKb, EntityKind, FrozenKb, KbBuilder, KbEpoch, KbHandle, KbMutation};
        use std::sync::Arc;

        // A measure that always reads the handle's *current* epoch, like a
        // serving worker does between requests.
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

        // a and b share two in-linkers out of 5 entities.
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
        let cache = CachedRelatedness::new(LiveMw { handle: Arc::clone(&handle) });
        cache.advance_generation(handle.generation());
        let before = cache.relatedness(a, b);

        // Promote an emerging entity that links to a but not b — the
        // in-link sets stop coinciding (and N grows), so MW(a, b) drops
        // below its maximal 1.0.
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
        assert!(cache.advance_generation(handle.generation()), "swap invalidates");
        // Without the generation tag this would return the stale `before`.
        assert_eq!(cache.relatedness(a, b).to_bits(), expected.to_bits());
        assert_eq!(cache.relatedness(b, a).to_bits(), expected.to_bits());
    }

    #[test]
    fn stale_insert_is_discarded_when_generation_moves_mid_lookup() {
        // The compute callback advances the generation while the lookup is
        // between its probe and its insert — exactly the window a racing
        // epoch swap hits. The insert must be discarded and counted.
        let m = Metrics::new();
        let cache = PairCache::new(CacheConfig::unbounded(), &m);
        let (v, events) = cache.get_or_insert_with(EntityId(1), EntityId(2), || {
            cache.advance_generation(7);
            42.0
        });
        assert_eq!(v, 42.0, "the overlapping lookup still gets its value");
        assert!(events.stale_discarded);
        assert!(!events.inserted);
        assert!(cache.is_empty(), "stale value must not be memoized");
        assert_eq!(cache.stale_discards(), 1);
        assert_eq!(cache.misses(), 1);
        // The next lookup under the new generation memoizes normally.
        let (_, events) = cache.get_or_insert_with(EntityId(1), EntityId(2), || 43.0);
        assert!(events.inserted);
        assert_eq!(cache.contents(), vec![((EntityId(1), EntityId(2)), 43.0)]);
    }

    #[test]
    fn lookup_events_expose_evictions_in_order() {
        let m = Metrics::new();
        // One entry per shard; two keys colliding into one shard.
        let cache = PairCache::new(CacheConfig::bounded(SHARD_COUNT as u64 * ENTRY_BYTES), &m);
        let keys = colliding_keys(2);
        let (k1, k2) = (keys[0], keys[1]);
        let (_, e1) = cache.get_or_insert_with(k1.0, k1.1, || 1.0);
        assert!(e1.inserted && e1.evicted.is_empty());
        let (_, e2) = cache.get_or_insert_with(k2.0, k2.1, || 2.0);
        assert!(e2.inserted);
        assert_eq!(e2.evicted, vec![k1], "the cap-1 shard evicts the resident pair");
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn fresh_cache_has_zero_hit_rate() {
        let c = CachedRelatedness::new(counting());
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert_eq!(c.inserts(), 0);
        assert_eq!(c.hit_rate(), 0.0);
    }
}
