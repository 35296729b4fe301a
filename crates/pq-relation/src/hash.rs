//! Seeded hash families used by the HyperCube partitioning.
//!
//! The paper's load analysis (Lemma 3.2, Appendix A) assumes independent,
//! "perfectly random" hash functions — in practice a strongly universal
//! family. We provide two classic constructions:
//!
//! * [`MultiplyShiftHash`] — the `(a·x + b) mod 2^64 >> shift` family of
//!   Dietzfelbinger et al., 2-independent, extremely fast;
//! * [`TabulationHash`] — simple tabulation hashing, 3-independent and with
//!   Chernoff-style concentration guarantees that closely track truly random
//!   functions (Pătraşcu–Thorup), used as the ablation alternative.
//!
//! Both map a [`Value`] to a bucket in `[0, buckets)`. A [`HashFamily`]
//! produces independent functions from a seed, one per query variable, as
//! the HyperCube algorithm requires (`h_1, …, h_k`).

use crate::tuple::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A hash function from domain values to buckets `[0, buckets)`.
pub trait BucketHasher: Send + Sync {
    /// Hash `value` into a bucket.
    fn bucket(&self, value: Value) -> usize;
    /// The number of buckets.
    fn buckets(&self) -> usize;
}

/// A family of independent bucket hashers, seeded deterministically.
pub trait HashFamily {
    /// The hasher type produced by this family.
    type Hasher: BucketHasher;
    /// Create the `index`-th independent hash function with the given number
    /// of buckets. Different indices yield (pseudo-)independent functions;
    /// the same `(seed, index, buckets)` always yields the same function.
    fn hasher(&self, index: usize, buckets: usize) -> Self::Hasher;
}

/// Multiply-shift hashing: `h(x) = ((a * x + b) >> s) mod buckets` with odd
/// random `a`. 2-universal; the workhorse hash of the HyperCube shuffle.
#[derive(Debug, Clone)]
pub struct MultiplyShiftHash {
    seed: u64,
}

/// A single multiply-shift hash function.
#[derive(Debug, Clone)]
pub struct MultiplyShiftHasher {
    a: u64,
    b: u64,
    buckets: usize,
}

impl MultiplyShiftHash {
    /// Create a family from a seed.
    pub fn new(seed: u64) -> Self {
        MultiplyShiftHash { seed }
    }
}

impl HashFamily for MultiplyShiftHash {
    type Hasher = MultiplyShiftHasher;

    fn hasher(&self, index: usize, buckets: usize) -> MultiplyShiftHasher {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let a: u64 = rng.gen::<u64>() | 1; // must be odd
        let b: u64 = rng.gen();
        MultiplyShiftHasher {
            a,
            b,
            buckets: buckets.max(1),
        }
    }
}

impl BucketHasher for MultiplyShiftHasher {
    #[inline]
    fn bucket(&self, value: Value) -> usize {
        // Multiply-shift into the top bits, then map to the bucket range by
        // the fixed-point multiplication trick (unbiased for bucket counts
        // far below 2^32, which always holds here).
        let h = value.wrapping_mul(self.a).wrapping_add(self.b);
        let top = h >> 32;
        ((top * self.buckets as u64) >> 32) as usize
    }

    fn buckets(&self) -> usize {
        self.buckets
    }
}

/// Simple tabulation hashing over the 8 bytes of a value.
#[derive(Debug, Clone)]
pub struct TabulationHash {
    seed: u64,
}

/// A single tabulation hash function: 8 tables of 256 random words.
#[derive(Debug, Clone)]
pub struct TabulationHasher {
    tables: Box<[[u64; 256]; 8]>,
    buckets: usize,
}

impl TabulationHash {
    /// Create a family from a seed.
    pub fn new(seed: u64) -> Self {
        TabulationHash { seed }
    }
}

impl HashFamily for TabulationHash {
    type Hasher = TabulationHasher;

    fn hasher(&self, index: usize, buckets: usize) -> TabulationHasher {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (index as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut tables = Box::new([[0u64; 256]; 8]);
        for table in tables.iter_mut() {
            for entry in table.iter_mut() {
                *entry = rng.gen();
            }
        }
        TabulationHasher {
            tables,
            buckets: buckets.max(1),
        }
    }
}

impl BucketHasher for TabulationHasher {
    fn bucket(&self, value: Value) -> usize {
        let mut h = 0u64;
        for (i, table) in self.tables.iter().enumerate() {
            let byte = ((value >> (8 * i)) & 0xFF) as usize;
            h ^= table[byte];
        }
        let top = h >> 32;
        ((top * self.buckets as u64) >> 32) as usize
    }

    fn buckets(&self) -> usize {
        self.buckets
    }
}

/// Finalizing 64-bit mixer (the splitmix64 finalizer): diffuses every input
/// bit over the whole output word. Used to turn accumulated row state into a
/// well-distributed hash.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Hash a row (or key) slice of values with an FxHash-style multiply-rotate
/// accumulator followed by [`mix64`]. This is the hash of the join/shuffle
/// hot path: it reads the values in place — no key tuple is materialised —
/// and costs one multiply and one rotate per value.
#[inline]
pub fn hash_values(values: &[Value]) -> u64 {
    let mut h: u64 = 0x51_7C_C1_B7_27_22_0A_95;
    for &v in values {
        h = (h.rotate_left(5) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    mix64(h ^ values.len() as u64)
}

/// Hash the values of `row` at the given positions (a join key) without
/// materialising the key: the projection happens inside the accumulator.
#[inline]
pub fn hash_key(row: &[Value], positions: &[usize]) -> u64 {
    let mut h: u64 = 0x51_7C_C1_B7_27_22_0A_95;
    for &p in positions {
        h = (h.rotate_left(5) ^ row[p]).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    mix64(h ^ positions.len() as u64)
}

/// Convenience: build the `k` independent hashers `h_1, …, h_k` with bucket
/// counts `shares[i]`, as the HyperCube algorithm requires (one hash per
/// query variable with range equal to that variable's share).
pub fn hypercube_hashers<F: HashFamily>(
    family: &F,
    shares: &[usize],
) -> Vec<F::Hasher> {
    shares
        .iter()
        .enumerate()
        .map(|(i, &s)| family.hasher(i, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn check_determinism<F: HashFamily>(family: &F) {
        let h1 = family.hasher(0, 16);
        let h2 = family.hasher(0, 16);
        for v in 0..1000u64 {
            assert_eq!(h1.bucket(v), h2.bucket(v));
        }
    }

    fn check_range<F: HashFamily>(family: &F, buckets: usize) {
        let h = family.hasher(3, buckets);
        assert_eq!(h.buckets(), buckets);
        for v in 0..10_000u64 {
            assert!(h.bucket(v) < buckets);
        }
    }

    fn check_balance<F: HashFamily>(family: &F) {
        // Hashing 64k consecutive integers into 16 buckets should put
        // roughly 4096 in each; allow a generous 25% deviation.
        let buckets = 16;
        let h = family.hasher(7, buckets);
        let mut counts = vec![0usize; buckets];
        for v in 0..65_536u64 {
            counts[h.bucket(v)] += 1;
        }
        let expected = 65_536 / buckets;
        for &c in &counts {
            assert!(
                (c as f64 - expected as f64).abs() < 0.25 * expected as f64,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    fn check_independence_across_indices<F: HashFamily>(family: &F) {
        // Different indices should give different functions.
        let h0 = family.hasher(0, 1024);
        let h1 = family.hasher(1, 1024);
        let differing = (0..1000u64).filter(|&v| h0.bucket(v) != h1.bucket(v)).count();
        assert!(differing > 900, "functions for different indices look identical");
    }

    #[test]
    fn multiply_shift_properties() {
        let f = MultiplyShiftHash::new(42);
        check_determinism(&f);
        check_range(&f, 13);
        check_balance(&f);
        check_independence_across_indices(&f);
    }

    #[test]
    fn tabulation_properties() {
        let f = TabulationHash::new(42);
        check_determinism(&f);
        check_range(&f, 13);
        check_balance(&f);
        check_independence_across_indices(&f);
    }

    #[test]
    fn single_bucket_always_zero() {
        let f = MultiplyShiftHash::new(1);
        let h = f.hasher(0, 1);
        for v in 0..100u64 {
            assert_eq!(h.bucket(v), 0);
        }
    }

    #[test]
    fn hypercube_hashers_respect_shares() {
        let f = MultiplyShiftHash::new(5);
        let hashers = hypercube_hashers(&f, &[2, 3, 4]);
        assert_eq!(hashers.len(), 3);
        assert_eq!(hashers[0].buckets(), 2);
        assert_eq!(hashers[1].buckets(), 3);
        assert_eq!(hashers[2].buckets(), 4);
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let f1 = MultiplyShiftHash::new(1);
        let f2 = MultiplyShiftHash::new(2);
        let h1 = f1.hasher(0, 1024);
        let h2 = f2.hasher(0, 1024);
        let differing = (0..1000u64).filter(|&v| h1.bucket(v) != h2.bucket(v)).count();
        assert!(differing > 900);
    }

    #[test]
    fn row_hash_is_deterministic_and_length_sensitive() {
        assert_eq!(hash_values(&[1, 2, 3]), hash_values(&[1, 2, 3]));
        assert_ne!(hash_values(&[1, 2]), hash_values(&[2, 1]));
        assert_ne!(hash_values(&[0]), hash_values(&[0, 0]));
        assert_ne!(hash_values(&[]), hash_values(&[0]));
    }

    #[test]
    fn hash_key_matches_hash_of_projected_values() {
        let row = [10u64, 20, 30, 40];
        assert_eq!(hash_key(&row, &[2, 0]), hash_values(&[30, 10]));
        assert_eq!(hash_key(&row, &[]), hash_values(&[]));
    }

    #[test]
    fn collision_rate_is_near_uniform() {
        // 2-universality: Pr[h(x)=h(y)] ~ 1/buckets for x != y.
        let f = MultiplyShiftHash::new(99);
        let buckets = 64;
        let h = f.hasher(0, buckets);
        let values: Vec<u64> = (0..2_000).map(|i| i * 2_654_435_761 % 1_000_003).collect();
        let mut by_bucket: HashMap<usize, usize> = HashMap::new();
        for &v in &values {
            *by_bucket.entry(h.bucket(v)).or_default() += 1;
        }
        let pairs_same_bucket: usize = by_bucket.values().map(|&c| c * (c - 1) / 2).sum();
        let total_pairs = values.len() * (values.len() - 1) / 2;
        let rate = pairs_same_bucket as f64 / total_pairs as f64;
        assert!((rate - 1.0 / buckets as f64).abs() < 0.5 / buckets as f64);
    }
}
