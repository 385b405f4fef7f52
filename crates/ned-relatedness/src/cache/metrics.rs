//! Counter and gauge plumbing for the pair cache.
//!
//! The shard lock is never held across the metrics registry: lookups
//! record what happened in a [`LookupEvents`](super::LookupEvents) while
//! the guard is live and the counters are bumped here after it drops.
//! Gauges follow the evaluation-counter precedent: they are only written
//! by an explicit [`publish_gauges`](super::PairCache::publish_gauges)
//! call, so concurrent lookups cannot interleave gauge stores and
//! snapshots stay a pure function of the workload.

use ned_obs::{names, Counter, Gauge, Metrics};

use super::LookupEvents;

/// The cache's counters, registered eagerly so every snapshot carries the
/// full set (zeros included) regardless of traffic.
#[derive(Debug)]
pub(crate) struct CacheCounters {
    pub hits: Counter,
    pub misses: Counter,
    pub inserts: Counter,
    pub admit_rejected: Counter,
    pub evictions: Counter,
    pub stale_discards: Counter,
}

impl CacheCounters {
    pub fn new(metrics: &Metrics) -> Self {
        CacheCounters {
            hits: metrics.counter(names::RELATEDNESS_CACHE_HITS),
            misses: metrics.counter(names::RELATEDNESS_CACHE_MISSES),
            inserts: metrics.counter(names::RELATEDNESS_CACHE_INSERTS),
            admit_rejected: metrics.counter(names::RELATEDNESS_CACHE_ADMIT_REJECTED),
            evictions: metrics.counter(names::RELATEDNESS_CACHE_EVICTIONS),
            stale_discards: metrics.counter(names::RELATEDNESS_CACHE_STALE_DISCARDS),
        }
    }

    /// Applies one completed lookup's events. Exactly one of hit/miss is
    /// counted per completed lookup, and every miss lands in exactly one
    /// of insert / admit-reject / stale-discard — the conservation laws
    /// the model harness and the `bench_throughput` cache sweep check.
    pub fn apply(&self, events: &LookupEvents) {
        if events.hit {
            self.hits.inc();
        } else if events.inserted || events.admit_rejected || events.stale_discarded {
            self.misses.inc();
        }
        if events.inserted {
            self.inserts.inc();
        }
        if events.admit_rejected {
            self.admit_rejected.inc();
        }
        if events.stale_discarded {
            self.stale_discards.inc();
        }
        if !events.evicted.is_empty() {
            self.evictions.add(events.evicted.len() as u64);
        }
    }
}

/// Byte/occupancy gauges, written only by `publish_gauges`.
#[derive(Debug)]
pub(crate) struct CacheGauges {
    pub bytes: Gauge,
    pub bytes_peak: Gauge,
    pub entries: Gauge,
}

impl CacheGauges {
    pub fn new(metrics: &Metrics) -> Self {
        CacheGauges {
            bytes: metrics.gauge(names::RELATEDNESS_CACHE_BYTES),
            bytes_peak: metrics.gauge(names::RELATEDNESS_CACHE_BYTES_PEAK),
            entries: metrics.gauge(names::RELATEDNESS_CACHE_ENTRIES),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::EntityId;

    #[test]
    fn apply_counts_each_event_once() {
        let m = Metrics::new();
        let c = CacheCounters::new(&m);
        c.apply(&LookupEvents { hit: true, ..LookupEvents::default() });
        c.apply(&LookupEvents { inserted: true, ..LookupEvents::default() });
        c.apply(&LookupEvents {
            admit_rejected: true,
            evicted: vec![(EntityId(1), EntityId(2)), (EntityId(3), EntityId(4))],
            ..LookupEvents::default()
        });
        c.apply(&LookupEvents { stale_discarded: true, ..LookupEvents::default() });
        let snap = m.snapshot();
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_HITS), 1);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_MISSES), 3);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_INSERTS), 1);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_ADMIT_REJECTED), 1);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_EVICTIONS), 2);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_STALE_DISCARDS), 1);
    }

    #[test]
    fn aborted_lookups_count_nothing() {
        // A lookup whose compute panicked never reaches its second visit:
        // the default (all-false) events must leave every counter alone.
        let m = Metrics::new();
        let c = CacheCounters::new(&m);
        c.apply(&LookupEvents::default());
        let snap = m.snapshot();
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_HITS), 0);
        assert_eq!(snap.counter(names::RELATEDNESS_CACHE_MISSES), 0);
    }
}
