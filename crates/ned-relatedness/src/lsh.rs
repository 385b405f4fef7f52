//! Locality-sensitive hashing by banding over min-hash sketches (§4.4.2).
//!
//! A sketch of length `bands · rows` is split into `bands` contiguous bands
//! of `rows` coordinates; each band is combined into a single bucket key.
//! Two items become candidates if any band maps them to the same bucket.
//! With Jaccard similarity `s`, the candidate probability is
//! `1 − (1 − s^rows)^bands`.

use crate::minhash::mix64;

/// Banding configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Banding {
    /// Number of bands.
    pub bands: usize,
    /// Rows (sketch coordinates) per band.
    pub rows: usize,
}

impl Banding {
    /// Total sketch length required.
    pub fn sketch_len(&self) -> usize {
        self.bands * self.rows
    }

    /// Bucket keys of a sketch: one per band. Following §4.4.2, the values
    /// in a band are combined by summation, losing their order.
    pub fn bucket_keys(&self, sketch: &[u64]) -> Vec<u64> {
        assert_eq!(sketch.len(), self.sketch_len(), "sketch length mismatch");
        sketch
            .chunks_exact(self.rows)
            .enumerate()
            .map(|(band, chunk)| {
                let sum = chunk.iter().fold(0u64, |acc, &v| acc.wrapping_add(v));
                // Mix the band index in so identical sums in different bands
                // do not collide.
                mix64(sum ^ mix64(band as u64 + 1))
            })
            .collect()
    }

    /// Theoretical probability that a pair with Jaccard similarity `s`
    /// becomes an LSH candidate.
    pub fn candidate_probability(&self, s: f64) -> f64 {
        1.0 - (1.0 - s.powi(self.rows as i32)).powi(self.bands as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;

    #[test]
    fn sketch_len() {
        assert_eq!(Banding { bands: 200, rows: 1 }.sketch_len(), 200);
        assert_eq!(Banding { bands: 1000, rows: 2 }.sketch_len(), 2000);
    }

    #[test]
    fn identical_sketches_share_all_buckets() {
        let banding = Banding { bands: 4, rows: 2 };
        let h = MinHasher::new(banding.sketch_len(), 5);
        let s = h.sketch([1u64, 2, 3]);
        assert_eq!(banding.bucket_keys(&s), banding.bucket_keys(&s));
    }

    #[test]
    fn candidate_probability_is_monotone() {
        let b = Banding { bands: 10, rows: 2 };
        let p1 = b.candidate_probability(0.2);
        let p2 = b.candidate_probability(0.5);
        let p3 = b.candidate_probability(0.9);
        assert!(p1 < p2 && p2 < p3);
        assert!(p3 > 0.99);
    }

    #[test]
    fn band_index_distinguishes_buckets() {
        // Two sketches that swap band contents must not collide.
        let banding = Banding { bands: 2, rows: 1 };
        let k1 = banding.bucket_keys(&[7, 9]);
        let k2 = banding.bucket_keys(&[9, 7]);
        assert_ne!(k1[0], k2[0]);
        assert_ne!(k1[1], k2[1]);
    }

    #[test]
    #[should_panic(expected = "sketch length mismatch")]
    fn wrong_sketch_length_panics() {
        Banding { bands: 2, rows: 2 }.bucket_keys(&[1, 2, 3]);
    }
}
