//! Eviction and admission policies for the bounded pair cache.
//!
//! Determinism is the contract every policy must honour: all state is
//! per-shard, recency is the shard's logical access index (a counter that
//! advances once per completed access — never an ambient wall clock; the
//! only `ned_obs::Clock` the cache could tolerate is the frozen null
//! clock, so it takes none at all), and victim selection totally orders
//! candidates by `(last-access index, key)`. Access indexes are unique
//! within a shard, but the explicit key tie-break makes the order total
//! even for states that share an index (segmented-LRU demotion re-files an
//! entry under an index another segment may reuse), so eviction order is a
//! pure function of the shard's access sub-sequence.

use std::collections::{BTreeMap, BTreeSet};

use ned_kb::EntityId;

/// Canonical `(min, max)` entity pair — the cache's key type.
pub type PairKey = (EntityId, EntityId);

/// Which eviction/admission policy a bounded cache runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Plain least-recently-used: evict the coldest pair, admit everything.
    Lru,
    /// Segmented LRU: new pairs enter a probation segment and are promoted
    /// to a protected segment on their first hit, so a burst of one-shot
    /// pairs churns probation without flushing the proven-hot set.
    SegmentedLru,
    /// Segmented LRU behind a frequency-admission gate ("TinyLFU-lite"):
    /// a candidate only displaces the victim when its estimated access
    /// frequency is strictly higher, so one-shot scan pairs cannot evict
    /// hot pairs at all. The default for bounded caches.
    #[default]
    TinyLfuSlru,
}

impl EvictionPolicy {
    /// Stable label used in benchmark reports (the cache sweep rows of
    /// `BENCH_throughput.json`).
    pub fn label(self) -> &'static str {
        match self {
            EvictionPolicy::Lru => "lru",
            EvictionPolicy::SegmentedLru => "slru",
            EvictionPolicy::TinyLfuSlru => "tinylfu_slru",
        }
    }
}

/// Per-shard policy state behind the bounded cache.
///
/// The shard calls `on_hit`/`on_insert` with its logical access index,
/// `on_candidate` once per miss (before admission, so frequency sketches
/// see rejected candidates too), and the `victim`/`admits`/`on_evict`
/// trio while making room. Implementations must keep victim selection a
/// pure function of the calls received — no randomness, no wall time, no
/// global state.
pub trait PolicyShard: Send + Sync + std::fmt::Debug {
    /// A cached pair was served at access index `at`.
    fn on_hit(&mut self, key: PairKey, at: u64);
    /// A freshly computed pair was admitted at access index `at`.
    fn on_insert(&mut self, key: PairKey, at: u64);
    /// A miss on `key` is about to seek admission (frequency bookkeeping).
    fn on_candidate(&mut self, key: PairKey);
    /// Should `candidate` displace `victim`? Called before each eviction.
    fn admits(&self, candidate: PairKey, victim: PairKey) -> bool;
    /// The pair that would be evicted next, under the policy's total
    /// `(last-access index, key)` order. `None` when nothing is resident.
    fn victim(&self) -> Option<PairKey>;
    /// `key` was evicted; drop it from the policy's books.
    fn on_evict(&mut self, key: PairKey);
    /// Wholesale invalidation (generation advance / `clear`).
    fn clear(&mut self);
}

/// Protected-segment capacity for a segmented-LRU shard: 4/5 of the entry
/// budget (at least one slot), leaving 1/5 as probation churn space.
pub fn protected_cap_for(entry_cap: u64) -> u64 {
    (entry_cap.saturating_mul(4) / 5).max(1)
}

/// Frequency-sketch aging window for a TinyLFU-gated shard: counts halve
/// after this many recorded samples, so stale popularity decays and
/// previously rejected pairs can eventually win admission.
pub fn sketch_window_for(entry_cap: u64) -> u64 {
    entry_cap.saturating_mul(8).max(64)
}

/// Builds the policy state for one shard with an `entry_cap`-entry budget.
pub(crate) fn build_policy(policy: EvictionPolicy, entry_cap: u64) -> Box<dyn PolicyShard> {
    match policy {
        EvictionPolicy::Lru => Box::new(LruShard::default()),
        EvictionPolicy::SegmentedLru => Box::new(SlruShard::new(entry_cap)),
        EvictionPolicy::TinyLfuSlru => {
            Box::new(FrequencyGate::new(SlruShard::new(entry_cap), sketch_window_for(entry_cap)))
        }
    }
}

/// One recency-ordered segment: a `(last-access index, key)` order plus
/// the per-key index needed to re-file on touch. Both sides are BTrees so
/// iteration order is the eviction order — nothing hash-ordered escapes.
#[derive(Debug, Default)]
struct Segment {
    last: BTreeMap<PairKey, u64>,
    order: BTreeSet<(u64, PairKey)>,
}

impl Segment {
    fn touch(&mut self, key: PairKey, at: u64) {
        if let Some(prev) = self.last.insert(key, at) {
            self.order.remove(&(prev, key));
        }
        self.order.insert((at, key));
    }

    fn remove(&mut self, key: PairKey) -> Option<u64> {
        let at = self.last.remove(&key)?;
        self.order.remove(&(at, key));
        Some(at)
    }

    fn contains(&self, key: PairKey) -> bool {
        self.last.contains_key(&key)
    }

    fn coldest(&self) -> Option<PairKey> {
        self.order.first().map(|&(_, key)| key)
    }

    fn len(&self) -> u64 {
        self.last.len() as u64
    }

    fn clear(&mut self) {
        self.last.clear();
        self.order.clear();
    }
}

/// Plain least-recently-used policy: one segment, admit everything.
#[derive(Debug, Default)]
pub struct LruShard {
    seg: Segment,
}

impl PolicyShard for LruShard {
    fn on_hit(&mut self, key: PairKey, at: u64) {
        self.seg.touch(key, at);
    }

    fn on_insert(&mut self, key: PairKey, at: u64) {
        self.seg.touch(key, at);
    }

    fn on_candidate(&mut self, _key: PairKey) {}

    fn admits(&self, _candidate: PairKey, _victim: PairKey) -> bool {
        true
    }

    fn victim(&self) -> Option<PairKey> {
        self.seg.coldest()
    }

    fn on_evict(&mut self, key: PairKey) {
        self.seg.remove(key);
    }

    fn clear(&mut self) {
        self.seg.clear();
    }
}

/// Segmented LRU: inserts land in probation; a hit promotes to protected;
/// protected overflow demotes its coldest entry back to probation *keeping
/// its last-access index* (so a demoted entry competes on the recency it
/// actually earned). Victims come from probation first, then protected.
#[derive(Debug)]
pub struct SlruShard {
    probation: Segment,
    protected: Segment,
    protected_cap: u64,
}

impl SlruShard {
    /// Policy state for a shard holding at most `entry_cap` entries.
    pub fn new(entry_cap: u64) -> Self {
        SlruShard {
            probation: Segment::default(),
            protected: Segment::default(),
            protected_cap: protected_cap_for(entry_cap),
        }
    }
}

impl PolicyShard for SlruShard {
    fn on_hit(&mut self, key: PairKey, at: u64) {
        if self.probation.remove(key).is_some() {
            self.protected.touch(key, at);
            if self.protected.len() > self.protected_cap {
                if let Some(demoted) = self.protected.coldest() {
                    if let Some(idx) = self.protected.remove(demoted) {
                        self.probation.touch(demoted, idx);
                    }
                }
            }
        } else if self.protected.contains(key) {
            self.protected.touch(key, at);
        } else {
            // Unknown key (shouldn't happen): file it like a fresh insert.
            self.probation.touch(key, at);
        }
    }

    fn on_insert(&mut self, key: PairKey, at: u64) {
        self.probation.touch(key, at);
    }

    fn on_candidate(&mut self, _key: PairKey) {}

    fn admits(&self, _candidate: PairKey, _victim: PairKey) -> bool {
        true
    }

    fn victim(&self) -> Option<PairKey> {
        self.probation.coldest().or_else(|| self.protected.coldest())
    }

    fn on_evict(&mut self, key: PairKey) {
        if self.probation.remove(key).is_none() {
            self.protected.remove(key);
        }
    }

    fn clear(&mut self) {
        self.probation.clear();
        self.protected.clear();
    }
}

/// "TinyLFU-lite" admission gate over an inner policy: an exact per-shard
/// frequency count (BTree-keyed, so nothing depends on hash order) with
/// periodic halving instead of a probabilistic sketch. A candidate only
/// displaces the victim when its estimated frequency is *strictly* higher
/// — a first-seen scan pair (estimate 1) never evicts a pair that has been
/// touched since the last aging pass.
#[derive(Debug)]
pub struct FrequencyGate<P> {
    inner: P,
    counts: BTreeMap<PairKey, u32>,
    samples: u64,
    window: u64,
}

impl<P> FrequencyGate<P> {
    /// Gates `inner` with a frequency sketch aged every `window` samples.
    pub fn new(inner: P, window: u64) -> Self {
        FrequencyGate { inner, counts: BTreeMap::new(), samples: 0, window: window.max(1) }
    }

    fn record(&mut self, key: PairKey) {
        let slot = self.counts.entry(key).or_insert(0);
        *slot = slot.saturating_add(1);
        self.samples += 1;
        if self.samples >= self.window {
            self.age();
        }
    }

    /// Halves every count and drops the zeros. Halving each entry is
    /// order-independent, so the aged sketch is a pure function of the
    /// recorded multiset.
    fn age(&mut self) {
        self.counts = self
            .counts
            .iter()
            .filter_map(|(&key, &count)| {
                let halved = count / 2;
                (halved > 0).then_some((key, halved))
            })
            .collect();
        self.samples = 0;
    }

    fn estimate(&self, key: PairKey) -> u32 {
        self.counts.get(&key).copied().unwrap_or(0)
    }
}

impl<P: PolicyShard> PolicyShard for FrequencyGate<P> {
    fn on_hit(&mut self, key: PairKey, at: u64) {
        self.record(key);
        self.inner.on_hit(key, at);
    }

    fn on_insert(&mut self, key: PairKey, at: u64) {
        // The candidate was already recorded by `on_candidate`.
        self.inner.on_insert(key, at);
    }

    fn on_candidate(&mut self, key: PairKey) {
        self.record(key);
    }

    fn admits(&self, candidate: PairKey, victim: PairKey) -> bool {
        self.estimate(candidate) > self.estimate(victim)
    }

    fn victim(&self) -> Option<PairKey> {
        self.inner.victim()
    }

    fn on_evict(&mut self, key: PairKey) {
        // Frequency history survives the eviction: that is the point of
        // the gate — a frequently seen pair re-admits quickly.
        self.inner.on_evict(key);
    }

    fn clear(&mut self) {
        // Generation advances change what entity ids mean, so the sketch
        // must go with the entries.
        self.inner.clear();
        self.counts.clear();
        self.samples = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(a: u32, b: u32) -> PairKey {
        (EntityId(a), EntityId(b))
    }

    #[test]
    fn lru_evicts_coldest_with_key_tiebreak() {
        let mut p = LruShard::default();
        p.on_insert(k(1, 2), 1);
        p.on_insert(k(3, 4), 2);
        p.on_insert(k(5, 6), 3);
        assert_eq!(p.victim(), Some(k(1, 2)));
        p.on_hit(k(1, 2), 4);
        assert_eq!(p.victim(), Some(k(3, 4)));
        p.on_evict(k(3, 4));
        assert_eq!(p.victim(), Some(k(5, 6)));
    }

    #[test]
    fn slru_protects_promoted_entries() {
        // Budget 5 -> protected cap 4.
        let mut p = SlruShard::new(5);
        p.on_insert(k(1, 1), 1); // probation
        p.on_hit(k(1, 1), 2); // promoted
        p.on_insert(k(2, 2), 3); // probation
        // Probation is victimized before the protected (older) entry.
        assert_eq!(p.victim(), Some(k(2, 2)));
        p.on_evict(k(2, 2));
        // Only the protected entry remains; it is the victim of last resort.
        assert_eq!(p.victim(), Some(k(1, 1)));
    }

    #[test]
    fn slru_demotion_keeps_the_earned_index() {
        let mut p = SlruShard::new(1); // protected cap 1
        p.on_insert(k(1, 1), 1);
        p.on_hit(k(1, 1), 2); // protected = {1}
        p.on_insert(k(2, 2), 3);
        p.on_hit(k(2, 2), 4); // promotes 2, demotes 1 back to probation @2
        // Demoted entry is colder than nothing else in probation; it goes
        // first even though entry 2 was inserted later.
        assert_eq!(p.victim(), Some(k(1, 1)));
    }

    #[test]
    fn frequency_gate_blocks_one_shot_candidates() {
        let mut p = FrequencyGate::new(LruShard::default(), 1024);
        p.on_candidate(k(1, 1));
        p.on_insert(k(1, 1), 1);
        p.on_hit(k(1, 1), 2); // freq(1,1) = 2
        p.on_candidate(k(9, 9)); // freq(9,9) = 1
        assert!(!p.admits(k(9, 9), k(1, 1)), "a scan pair must not evict a hot pair");
        p.on_candidate(k(9, 9));
        p.on_candidate(k(9, 9)); // freq(9,9) = 3
        assert!(p.admits(k(9, 9), k(1, 1)));
    }

    #[test]
    fn frequency_gate_ages_deterministically() {
        let mut p = FrequencyGate::new(LruShard::default(), 4);
        for _ in 0..3 {
            p.on_candidate(k(1, 1));
        }
        assert_eq!(p.estimate(k(1, 1)), 3);
        p.on_candidate(k(2, 2)); // 4th sample triggers halving
        assert_eq!(p.estimate(k(1, 1)), 1);
        assert_eq!(p.estimate(k(2, 2)), 0, "odd counts round down to zero and drop");
        assert_eq!(p.samples, 0);
    }

    #[test]
    fn clear_resets_the_sketch_too() {
        let mut p = FrequencyGate::new(SlruShard::new(4), 1024);
        p.on_candidate(k(1, 1));
        p.on_insert(k(1, 1), 1);
        p.clear();
        assert_eq!(p.estimate(k(1, 1)), 0);
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn caps_and_windows_have_floors() {
        assert_eq!(protected_cap_for(0), 1);
        assert_eq!(protected_cap_for(5), 4);
        assert_eq!(protected_cap_for(100), 80);
        assert_eq!(sketch_window_for(0), 64);
        assert_eq!(sketch_window_for(1000), 8000);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(EvictionPolicy::Lru.label(), "lru");
        assert_eq!(EvictionPolicy::SegmentedLru.label(), "slru");
        assert_eq!(EvictionPolicy::TinyLfuSlru.label(), "tinylfu_slru");
        assert_eq!(EvictionPolicy::default(), EvictionPolicy::TinyLfuSlru);
    }
}
