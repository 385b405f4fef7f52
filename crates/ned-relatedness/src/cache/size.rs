//! Byte accounting for the bounded pair cache.
//!
//! The cache charges a flat [`ENTRY_BYTES`] per memoized pair rather than
//! measuring the allocator: the entry layout is fixed (8-byte key pair,
//! 8-byte score, hash-table slot, recency books), so a
//! conservative constant keeps the accounting exact, deterministic, and
//! free of allocator introspection. The configured cap is split across
//! shards up front; each shard enforces its slice under its own lock, so
//! the global bound `sum(shard bytes) <= cap` holds at every observation
//! point without any cross-shard coordination.

/// Bytes charged per cached pair: 16 (canonical `(EntityId, EntityId)`
/// key) + 8 (`f64` score) + ~24 amortized hash-table slot overhead + ~40
/// recency metadata (recency-order node plus last-access map entry),
/// rounded up to a power-of-two-friendly 96.
pub const ENTRY_BYTES: u64 = 96;

/// Splits a global byte cap into per-shard caps whose sum is exactly the
/// cap. The split is quantized in whole entries (earlier shards absorb the
/// remainder entries) so a small cap still yields usable shards — a naive
/// byte split of, say, 5 entries' worth would hand every shard a sub-entry
/// sliver and cache nothing. Sub-entry remainder bytes ride on shard 0,
/// keeping the exact-sum invariant without changing any shard's entry
/// capacity.
pub(crate) fn shard_byte_caps(max_bytes: u64, shards: usize) -> Vec<u64> {
    let n = shards as u64;
    let entries = max_bytes / ENTRY_BYTES;
    let base = entries / n;
    let rem_entries = entries % n;
    let mut caps: Vec<u64> =
        (0..n).map(|i| (base + u64::from(i < rem_entries)) * ENTRY_BYTES).collect();
    if let Some(first) = caps.first_mut() {
        *first += max_bytes - entries * ENTRY_BYTES;
    }
    caps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_byte_caps_sum_to_the_cap() {
        for cap in [0u64, 1, 95, 96, 97, 16 * 96, 16 * 96 + 7, 1 << 20] {
            let caps = shard_byte_caps(cap, 16);
            assert_eq!(caps.len(), 16);
            assert_eq!(caps.iter().sum::<u64>(), cap);
        }
    }

    #[test]
    fn shard_byte_caps_quantize_whole_entries_to_early_shards() {
        // 5 entries' worth: shards 0-4 get one entry each, the rest none —
        // a plain byte split would give every shard a useless 30 bytes.
        let caps = shard_byte_caps(5 * ENTRY_BYTES, 16);
        let entry_caps: Vec<u64> = caps.iter().map(|&c| c / ENTRY_BYTES).collect();
        assert_eq!(entry_caps, vec![1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(entry_caps.iter().sum::<u64>(), 5);
    }

    #[test]
    fn shard_byte_caps_are_monotone_in_the_global_cap() {
        // Nested global caps give nested per-shard caps — the property the
        // hit-rate-vs-cap monotonicity of per-shard LRU rests on.
        let small = shard_byte_caps(10_000, 16);
        let large = shard_byte_caps(20_000, 16);
        for (s, l) in small.iter().zip(&large) {
            assert!(s <= l);
        }
    }
}
