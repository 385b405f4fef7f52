//! A fast, non-cryptographic hasher for dense integer keys and short words.
//!
//! The performance guide recommends an FxHash-style multiply-rotate hasher
//! when HashDoS is not a concern; the hot maps in this workspace are keyed by
//! interned `u32` ids or, like the stopword set, by short fixed words, for
//! which SipHash is needlessly slow. This is an in-tree implementation so the
//! workspace stays within its approved dependency set.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant from the FxHash algorithm (64-bit).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// FxHash-style streaming hasher.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            for (dst, src) in buf.iter_mut().zip(rem) {
                *dst = *src;
            }
            self.add_to_hash(u64::from_le_bytes(buf) | (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FxBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u32), hash_of(&42u32));
        assert_eq!(hash_of(&"keyphrase"), hash_of(&"keyphrase"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u32), hash_of(&2u32));
        assert_ne!(hash_of(&"a"), hash_of(&"b"));
    }

    #[test]
    fn distinguishes_lengths() {
        // The remainder encoding must make "a" differ from "a\0".
        assert_ne!(hash_of(&b"a".as_slice()), hash_of(&b"a\0".as_slice()));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u32, &str> = FxHashMap::default();
        m.insert(7, "seven");
        assert_eq!(m.get(&7), Some(&"seven"));
        let mut s: FxHashSet<u64> = FxHashSet::default();
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }

    #[test]
    fn avalanche_on_small_ints() {
        // Dense u32 keys must not collide in the low bits used by hashbrown.
        let mut seen = FxHashSet::default();
        for i in 0u32..10_000 {
            seen.insert(hash_of(&i));
        }
        assert_eq!(seen.len(), 10_000);
    }
}
