//! The eviction order of a bounded cache shard: least recently used.
//!
//! Recency is the shard's logical access index (a counter that advances
//! once per hit or insert — never an ambient wall clock; the only
//! `ned_obs::Clock` the cache could tolerate is the frozen null clock, so
//! it takes none at all), and the victim is the minimum by `(last-access
//! index, key)`. Both books are BTrees, so nothing hash-ordered escapes
//! and eviction order is a pure function of the shard's access
//! sub-sequence.

use std::collections::{BTreeMap, BTreeSet};

use super::PairKey;

/// A bounded shard's byte cap and recency books. Unbounded shards carry
/// none, so their hits need no write lock.
#[derive(Debug)]
pub(crate) struct Lru {
    /// This shard's slice of the global byte cap.
    pub cap_bytes: u64,
    /// Logical access index: advances once per hit or insert and keeps
    /// running across `clear`, so indexes stay unique for the shard's
    /// lifetime.
    clock: u64,
    last: BTreeMap<PairKey, u64>,
    order: BTreeSet<(u64, PairKey)>,
}

impl Lru {
    /// Empty books under a `cap_bytes` cap.
    pub fn new(cap_bytes: u64) -> Self {
        Lru { cap_bytes, clock: 0, last: BTreeMap::new(), order: BTreeSet::new() }
    }

    /// Records a hit on, or an insert of, `key` at the next access index.
    pub fn touch(&mut self, key: PairKey) {
        self.clock += 1;
        if let Some(prev) = self.last.insert(key, self.clock) {
            self.order.remove(&(prev, key));
        }
        self.order.insert((self.clock, key));
    }

    /// Drops and returns the coldest pair; `None` when nothing is resident.
    pub fn pop_coldest(&mut self) -> Option<PairKey> {
        let (_, key) = self.order.pop_first()?;
        self.last.remove(&key);
        Some(key)
    }

    /// Forgets every pair (generation advance / `clear`).
    pub fn clear(&mut self) {
        self.last.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_kb::EntityId;

    fn k(a: u32, b: u32) -> PairKey {
        (EntityId(a), EntityId(b))
    }

    #[test]
    fn evicts_coldest_first_and_a_touch_rewarms() {
        let mut lru = Lru::new(0);
        lru.touch(k(1, 2));
        lru.touch(k(3, 4));
        lru.touch(k(5, 6));
        lru.touch(k(1, 2));
        assert_eq!(lru.pop_coldest(), Some(k(3, 4)));
        assert_eq!(lru.pop_coldest(), Some(k(5, 6)));
        assert_eq!(lru.pop_coldest(), Some(k(1, 2)));
        assert_eq!(lru.pop_coldest(), None);
    }
}
