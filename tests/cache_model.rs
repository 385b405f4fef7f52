//! Model-based verification of the bounded relatedness cache.
//!
//! The determinism contract (DESIGN.md §16) says eviction order is a pure
//! function of the access sequence: per-shard recency state only, recency
//! by logical access index, victims totally ordered by `(last-access
//! index, key)`. This harness replays generated access traces (lookups
//! plus generation advances) against a single-threaded reference oracle —
//! an independent, obvious reimplementation of per-shard LRU over
//! `BTreeMap`s — and asserts the hit/miss/evict event sequence, the
//! returned values, the final contents, and the counter totals are
//! byte-identical, including the zero-cap and cap-larger-than-universe
//! edges. A second property replays one trace through nested caps and
//! checks LRU inclusion: a smaller cap caches a subset of a larger cap's
//! pairs and never hits more often.
//!
//! The generation-swap hammer at the bottom drives concurrent lookups
//! against a swapper thread and asserts no stale-generation value is ever
//! served after `advance_generation` returns, and that the conservation
//! laws (`lookups == hits + misses`, `misses == inserts + admit_rejected
//! + stale_discards`, `evictions + live_entries == inserts`,
//! `bytes <= cap`) hold at every observation point.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;

use aida_ned::kb::EntityId;
use aida_ned::obs::Metrics;
use aida_ned::relatedness::{
    canonical_key, shard_index, CacheConfig, LookupEvents, PairCache, PairKey, ENTRY_BYTES,
    SHARD_COUNT,
};
use proptest::prelude::*;

/// The score both sides compute for a pair under a generation — any pure
/// injective-enough function works; the oracle and the real cache must
/// simply agree.
fn value_of(key: PairKey, generation: u64) -> f64 {
    f64::from(key.0 .0) * 1009.0 + f64::from(key.1 .0) + generation as f64 * 0.125
}

/// Mirrors `shard_byte_caps`: the documented whole-entry quantization of
/// the byte cap (earlier shards absorb the remainder entries).
fn shard_entry_caps(max_bytes: u64) -> Vec<u64> {
    let n = SHARD_COUNT as u64;
    let entries = max_bytes / ENTRY_BYTES;
    (0..n).map(|i| entries / n + u64::from(i < entries % n)).collect()
}

/// One oracle shard: entries plus last-access books, all in BTree
/// collections so the model itself is transparently ordered.
#[derive(Default)]
struct OracleShard {
    entries: BTreeMap<PairKey, f64>,
    last: BTreeMap<PairKey, u64>,
    clock: u64,
}

impl OracleShard {
    /// The coldest key under the `(last-access index, key)` total order.
    fn coldest(&self) -> Option<PairKey> {
        self.last.iter().map(|(&k, &at)| (at, k)).min().map(|(_, k)| k)
    }

    /// Records an access to `key` at the next index.
    fn touch(&mut self, key: PairKey) {
        self.clock += 1;
        self.last.insert(key, self.clock);
    }
}

/// Single-threaded reference cache: same configuration surface as
/// `PairCache`, deliberately naive implementation.
struct Oracle {
    shards: Vec<OracleShard>,
    entry_caps: Vec<u64>,
    generation: u64,
    hits: u64,
    misses: u64,
    inserts: u64,
    evictions: u64,
    admit_rejected: u64,
}

impl Oracle {
    fn new(config: CacheConfig) -> Self {
        let entry_caps = match config.max_bytes {
            None => vec![u64::MAX; SHARD_COUNT],
            Some(total) => shard_entry_caps(total),
        };
        Oracle {
            shards: (0..SHARD_COUNT).map(|_| OracleShard::default()).collect(),
            entry_caps,
            generation: 0,
            hits: 0,
            misses: 0,
            inserts: 0,
            evictions: 0,
            admit_rejected: 0,
        }
    }

    fn lookup(&mut self, a: EntityId, b: EntityId) -> (f64, LookupEvents) {
        let key = canonical_key(a, b);
        let entry_cap = self.entry_caps[shard_index(key)];
        let sh = &mut self.shards[shard_index(key)];
        let mut events = LookupEvents::default();
        if let Some(&v) = sh.entries.get(&key) {
            sh.touch(key);
            self.hits += 1;
            events.hit = true;
            return (v, events);
        }
        let v = value_of(key, self.generation);
        self.misses += 1;
        // Evict the coldest pair until one more entry fits; an empty shard
        // that still has no room has a cap below one entry.
        let mut admitted = true;
        while sh.entries.len() as u64 + 1 > entry_cap {
            let Some(victim) = sh.coldest() else {
                admitted = false;
                break;
            };
            sh.entries.remove(&victim);
            sh.last.remove(&victim);
            self.evictions += 1;
            events.evicted.push(victim);
        }
        if admitted {
            sh.entries.insert(key, v);
            sh.touch(key);
            self.inserts += 1;
            events.inserted = true;
        } else {
            self.admit_rejected += 1;
            events.admit_rejected = true;
        }
        (v, events)
    }

    fn advance_generation(&mut self, generation: u64) {
        if generation == self.generation {
            return;
        }
        self.generation = generation;
        for sh in &mut self.shards {
            self.evictions += sh.entries.len() as u64;
            sh.entries.clear();
            sh.last.clear();
            // The logical clock keeps running, like the real shard's.
        }
    }

    fn contents(&self) -> Vec<(PairKey, f64)> {
        self.shards.iter().flat_map(|sh| sh.entries.iter().map(|(&k, &v)| (k, v))).collect()
    }
}

/// One step of a generated access trace.
#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup(u32, u32),
    /// Advance to a fresh generation (true) or re-announce the current one
    /// (false — must be a no-op on both sides).
    Advance(bool),
}

/// Replays `ops` on the real cache and the oracle in lockstep, asserting
/// byte-identical events, values, final contents, counters, and the
/// conservation laws.
fn check_trace(config: CacheConfig, ops: &[Op]) {
    let metrics = Metrics::new();
    let cache = PairCache::new(config, &metrics);
    let mut oracle = Oracle::new(config);
    let mut generation = 0u64;
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Lookup(a, b) => {
                let (a, b) = (EntityId(a), EntityId(b));
                let key = canonical_key(a, b);
                let (want_v, want_ev) = oracle.lookup(a, b);
                let (got_v, got_ev) = cache.get_or_insert_with(a, b, || value_of(key, generation));
                assert_eq!(
                    got_ev, want_ev,
                    "event divergence at step {step} ({config:?}, key {key:?})"
                );
                assert_eq!(
                    got_v.to_bits(),
                    want_v.to_bits(),
                    "value divergence at step {step} ({config:?}, key {key:?})"
                );
            }
            Op::Advance(fresh) => {
                if fresh {
                    generation += 1;
                }
                oracle.advance_generation(generation);
                cache.advance_generation(generation);
            }
        }
    }
    assert_eq!(cache.contents(), oracle.contents(), "final contents diverged ({config:?})");
    assert_eq!(cache.hits(), oracle.hits);
    assert_eq!(cache.misses(), oracle.misses);
    assert_eq!(cache.inserts(), oracle.inserts);
    assert_eq!(cache.evictions(), oracle.evictions);
    assert_eq!(cache.admit_rejected(), oracle.admit_rejected);
    assert_eq!(cache.stale_discards(), 0, "single-threaded traces never race a swap");
    // Conservation laws.
    let lookups = ops.iter().filter(|op| matches!(op, Op::Lookup(..))).count() as u64;
    assert_eq!(cache.hits() + cache.misses(), lookups);
    assert_eq!(cache.misses(), cache.inserts() + cache.admit_rejected());
    assert_eq!(cache.inserts(), cache.evictions() + cache.len() as u64);
    assert_eq!(cache.bytes_used(), cache.len() as u64 * ENTRY_BYTES);
    if let Some(cap) = config.max_bytes {
        assert!(cache.bytes_used() <= cap);
        assert!(cache.bytes_peak() <= cap);
    }
}

/// A looping scan over a small universe: lots of collisions, re-warmed
/// pairs, and (for tight caps) evictions.
fn scan_ops(universe: u32, rounds: usize) -> Vec<Op> {
    let mut ops = Vec::new();
    for r in 0..rounds {
        for i in 0..universe {
            ops.push(Op::Lookup(i, (i + 1 + r as u32) % universe));
        }
    }
    ops
}

#[test]
fn oracle_agreement_on_fixed_traces() {
    // 32 and 40 entries give each shard two or three slots, below its
    // share of the 45 pairs, so hits reorder what is evicted.
    for cap_entries in [0u64, 1, 2, 5, 16, 32, 40, 64] {
        check_trace(CacheConfig::bounded(cap_entries * ENTRY_BYTES), &scan_ops(9, 6));
    }
    check_trace(CacheConfig::unbounded(), &scan_ops(9, 6));
}

#[test]
fn zero_cap_rejects_everything_but_answers_correctly() {
    let config = CacheConfig::bounded(0);
    let metrics = Metrics::new();
    let cache = PairCache::new(config, &metrics);
    for i in 0..20u32 {
        let key = canonical_key(EntityId(i), EntityId(i + 1));
        let (v, ev) = cache.get_or_insert_with(key.0, key.1, || value_of(key, 0));
        assert_eq!(v.to_bits(), value_of(key, 0).to_bits());
        assert!(ev.admit_rejected && !ev.inserted && ev.evicted.is_empty());
    }
    assert!(cache.is_empty());
    assert_eq!(cache.admit_rejected(), 20);
    assert_eq!(cache.evictions(), 0);
    check_trace(config, &scan_ops(7, 3));
}

#[test]
fn cap_larger_than_universe_never_evicts_and_matches_unbounded() {
    // 8 entities -> at most 36 canonical pairs; 4096 entries is far above.
    let ops = scan_ops(8, 5);
    let big = CacheConfig::bounded(4096 * ENTRY_BYTES);
    check_trace(big, &ops);
    let metrics = Metrics::new();
    let bounded = PairCache::new(big, &metrics);
    let unbounded = PairCache::new(CacheConfig::unbounded(), &Metrics::new());
    for &op in &ops {
        let Op::Lookup(a, b) = op else { continue };
        let key = canonical_key(EntityId(a), EntityId(b));
        let (vb, eb) = bounded.get_or_insert_with(key.0, key.1, || value_of(key, 0));
        let (vu, eu) = unbounded.get_or_insert_with(key.0, key.1, || value_of(key, 0));
        assert_eq!(vb.to_bits(), vu.to_bits());
        assert_eq!(eb.hit, eu.hit, "an oversized cap must not change hit/miss behaviour");
    }
    assert_eq!(bounded.evictions(), 0);
    assert_eq!(bounded.admit_rejected(), 0);
    assert_eq!(bounded.contents(), unbounded.contents());
}

#[test]
fn generation_advances_compose_with_eviction_in_traces() {
    let mut ops = scan_ops(6, 2);
    ops.push(Op::Advance(true));
    ops.extend(scan_ops(6, 2));
    ops.push(Op::Advance(false)); // same-generation no-op
    ops.extend(scan_ops(6, 1));
    ops.push(Op::Advance(true));
    ops.extend(scan_ops(6, 3));
    check_trace(CacheConfig::bounded(3 * ENTRY_BYTES), &ops);
    check_trace(CacheConfig::bounded(64 * ENTRY_BYTES), &ops);
}

/// Replays `ops` through one cache per cap in `caps` (ascending, `None`
/// last) and checks LRU inclusion after every step: each cache holds a
/// subset of the next larger cap's pairs and has hit no more often.
/// Per-shard LRU keeps a shard's most recently used pairs, and a larger
/// global cap gives every shard at least as many entries, so the property
/// holds step by step — it is what makes the bench sweep's hit rate
/// monotone in the cap.
fn check_inclusion(caps: &[Option<u64>], ops: &[Op]) {
    let caches: Vec<PairCache> = caps
        .iter()
        .map(|&cap| {
            let config = cap.map_or_else(CacheConfig::unbounded, CacheConfig::bounded);
            PairCache::new(config, &Metrics::new())
        })
        .collect();
    let mut generation = 0u64;
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Lookup(a, b) => {
                let key = canonical_key(EntityId(a), EntityId(b));
                for cache in &caches {
                    cache.get_or_insert_with(key.0, key.1, || value_of(key, generation));
                }
            }
            Op::Advance(fresh) => {
                generation += u64::from(fresh);
                for cache in &caches {
                    cache.advance_generation(generation);
                }
            }
        }
        for (pair, caps) in caches.windows(2).zip(caps.windows(2)) {
            let (small, large) = (&pair[0], &pair[1]);
            let larger = large.contents();
            for entry in small.contents() {
                assert!(
                    larger.binary_search_by_key(&entry.0, |e| e.0).is_ok(),
                    "step {step}: {entry:?} cached under cap {:?} but not under {:?}",
                    caps[0],
                    caps[1]
                );
            }
            assert!(
                small.hits() <= large.hits(),
                "step {step}: cap {:?} hit {} times, cap {:?} only {}",
                caps[0],
                small.hits(),
                caps[1],
                large.hits()
            );
        }
    }
}

/// Strategy for one trace op: mostly lookups over a `universe`-entity
/// universe; one op in `kinds` is a fresh-generation advance and one a
/// same-generation no-op.
fn arb_op_in(universe: u32, kinds: u8) -> impl Strategy<Value = Op> {
    (0u8..kinds, 0u32..universe, 0u32..universe).prop_map(|(kind, a, b)| match kind {
        0 => Op::Advance(true),
        1 => Op::Advance(false),
        _ => Op::Lookup(a, b),
    })
}

/// The oracle traces: 10 entities, one advance or no-op in five ops.
fn arb_op() -> impl Strategy<Value = Op> {
    arb_op_in(10, 10)
}

/// Strategy for an entry-count cap spanning zero, binding with one slot
/// per shard, binding with two or three (where recency picks the victim),
/// and far-above-universe sizes.
fn arb_cap_entries() -> impl Strategy<Value = u64> {
    const CAPS: [u64; 9] = [0, 1, 2, 3, 5, 8, 32, 40, 10_000];
    (0usize..CAPS.len()).prop_map(|i| CAPS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline model test: arbitrary traces and a spread of caps
    /// from zero through binding to far-above-universe. The real cache and
    /// the oracle must agree event by event.
    #[test]
    fn real_cache_matches_oracle_on_arbitrary_traces(
        ops in proptest::collection::vec(arb_op(), 0..250),
        cap_entries in arb_cap_entries(),
    ) {
        check_trace(CacheConfig::bounded(cap_entries * ENTRY_BYTES), &ops);
    }

    /// Unbounded traces agree too (the read-lock probe path).
    #[test]
    fn unbounded_cache_matches_oracle(ops in proptest::collection::vec(arb_op(), 0..150)) {
        check_trace(CacheConfig::unbounded(), &ops);
    }

    /// LRU inclusion over nested caps: zero, a cap below 16 entries (so
    /// some shards get no entry at all), four larger caps, and unbounded.
    /// Caps are in bytes and need not be whole entries. The trace runs
    /// over 16 entities (136 pairs, about 8 per shard) with few advances,
    /// so shards fill past several of the caps; on such traces a shard
    /// that evicts in insertion order instead breaks inclusion.
    #[test]
    fn smaller_caps_cache_a_subset_and_never_hit_more(
        ops in proptest::collection::vec(arb_op_in(16, 40), 0..400),
        below_16 in 1u64..16 * ENTRY_BYTES,
        steps in proptest::collection::vec(0u64..24 * ENTRY_BYTES, 4..5),
    ) {
        let mut caps = vec![Some(0), Some(below_16)];
        let mut cap = below_16;
        for step in steps {
            cap += step;
            caps.push(Some(cap));
        }
        caps.push(None);
        check_inclusion(&caps, &ops);
    }
}

// ---------------------------------------------------------------------
// Generation-swap vs. lookup interleaving hammer (satellite 3).
// ---------------------------------------------------------------------

mod hammer {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Encodes the generation a value was computed under so readers can
    /// prove freshness: `v = gen * 1e6 + (a + b)`.
    fn gen_value(world_gen: &AtomicU64, a: EntityId, b: EntityId) -> f64 {
        (world_gen.load(Ordering::Acquire) * 1_000_000 + u64::from(a.0 + b.0)) as f64
    }

    fn decode_gen(v: f64) -> u64 {
        (v as u64) / 1_000_000
    }

    /// A tiny deterministic xorshift so workers need no external RNG.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    #[test]
    fn no_stale_generation_value_after_advance_and_conservation_holds() {
        const WORKERS: usize = 4;
        const LOOKUPS_PER_WORKER: u64 = 30_000;
        const SWAPS: u64 = 120;
        const UNIVERSE: u64 = 24;
        let cap = 6 * SHARD_COUNT as u64 * ENTRY_BYTES; // tight: forces eviction traffic
        let metrics = Metrics::new();
        let cache = Arc::new(PairCache::new(CacheConfig::bounded(cap), &metrics));
        // What the measure sees (moves first) vs. what is proven published
        // (moves only after advance_generation returns).
        let world_gen = Arc::new(AtomicU64::new(0));
        let published = Arc::new(AtomicU64::new(0));
        let lookups_done = Arc::new(AtomicU64::new(0));

        std::thread::scope(|s| {
            for w in 0..WORKERS {
                let cache = Arc::clone(&cache);
                let world_gen = Arc::clone(&world_gen);
                let published = Arc::clone(&published);
                let lookups_done = Arc::clone(&lookups_done);
                s.spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15u64.wrapping_add(w as u64 + 1);
                    for _ in 0..LOOKUPS_PER_WORKER {
                        let a = EntityId((xorshift(&mut rng) % UNIVERSE) as u32);
                        let b = EntityId((xorshift(&mut rng) % UNIVERSE) as u32);
                        // The floor is read *before* the lookup begins:
                        // everything `advance_generation` completed by now
                        // must be invisible in what we are served.
                        let floor = published.load(Ordering::Acquire);
                        let (v, _) =
                            cache.get_or_insert_with(a, b, || gen_value(&world_gen, a, b));
                        let got = decode_gen(v);
                        assert!(
                            got >= floor,
                            "stale value from generation {got} served after \
                             generation {floor} was fully published"
                        );
                        lookups_done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            // Swapper + cap observer: swap generations while asserting the
            // byte bound at every observation point.
            let cache_obs = Arc::clone(&cache);
            let world_gen = Arc::clone(&world_gen);
            let published = Arc::clone(&published);
            s.spawn(move || {
                for g in 1..=SWAPS {
                    // Same order a serving epoch swap uses: the world
                    // changes first, then the cache is invalidated, then
                    // the swap is announced as complete.
                    world_gen.store(g, Ordering::Release);
                    cache_obs.advance_generation(g);
                    published.store(g, Ordering::Release);
                    assert!(
                        cache_obs.bytes_used() <= cap,
                        "byte cap violated at observation point (swap {g})"
                    );
                    for _ in 0..50 {
                        std::thread::yield_now();
                    }
                }
            });
        });

        // Conservation laws over the whole run, exact under concurrency.
        let lookups = lookups_done.load(Ordering::Relaxed);
        assert_eq!(lookups, WORKERS as u64 * LOOKUPS_PER_WORKER);
        assert_eq!(cache.hits() + cache.misses(), lookups, "lookups == hits + misses");
        assert_eq!(
            cache.misses(),
            cache.inserts() + cache.admit_rejected() + cache.stale_discards(),
            "misses == inserts + admit_rejected + stale_discards"
        );
        assert_eq!(
            cache.inserts(),
            cache.evictions() + cache.len() as u64,
            "inserts == evictions + live_entries"
        );
        assert!(cache.bytes_used() <= cap);
        assert!(cache.bytes_peak() <= cap, "summed shard peaks stay under the cap");
        assert_eq!(cache.bytes_used(), cache.len() as u64 * ENTRY_BYTES);
        // The swapper raced real traffic: with 120 swaps over 120k lookups
        // the stale-discard window is hit in practice on every run, but we
        // only *require* the accounting to be exact, not a specific count.
        cache.publish_gauges();
        let snap = metrics.snapshot();
        assert_eq!(snap.gauge("relatedness_cache_bytes"), cache.bytes_used());
        assert_eq!(snap.gauge("relatedness_cache_entries"), cache.len() as u64);
    }
}
