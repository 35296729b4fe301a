//! Crate-internal compact hash index over the rows of a flat [`Relation`],
//! keyed by a subset of column positions. This is the build side of the
//! hash join and the seen-set of [`Relation::union_distinct`]: no key tuple is ever materialised — keys
//! are hashed in place with [`crate::hash::hash_key`] and equal hashes are
//! verified by comparing the key positions of the stored rows.
//!
//! # Layout
//!
//! One chained table, three flat arrays, and a key filter built on demand:
//!
//! * `heads` — a power-of-two bucket array of at least twice the expected
//!   row count, holding the most recently inserted row of each bucket;
//! * `next` — per row, the previous row of its bucket;
//! * `hashes` — per row, its full 64-bit key hash;
//! * `filter` — a blocked Bloom filter over `hashes` (Putze, Sanders &
//!   Singler, WEA 2007), built by the first [`RowKeyIndex::find_filtered`]
//!   and never before.
//!
//! The table is 20–28 bytes per indexed row (8–16 of bucket heads, 4 of
//! chain, 8 of hash) in three allocations; a filter, where one was asked
//! for, adds 2–4 bytes (16–32 bits) per row in a fourth. A lookup reads one
//! bucket head and then walks the chain, skipping rows whose stored hash
//! differs without touching the indexed relation. Rows with equal hashes
//! therefore come out most recent first — reverse insertion order — and a
//! count of them is exact except on a 64-bit hash collision, which the
//! caller's key comparison rejects.
//!
//! The filter has `(rows / 4).max(1).next_power_of_two()` words of 64 bits.
//! A key sets three bits of one word: the hash's bits 40 and up pick the
//! word, three 6-bit fields below them (bits 22–39) pick the bits. A
//! filtered lookup of an absent key therefore reads one word — which stays
//! in L1 where the table's heads and hashes do not — and answers [`NONE`]
//! for all but about one absent key in a hundred; a present key always
//! passes. The filter covers the rows indexed when it is built, so the
//! index takes no insert after that (debug builds assert it): the join's
//! build sides are complete before any probe, and the seen-set of
//! [`Relation::union_distinct`], which does insert between lookups, never
//! asks for a filter.

use crate::hash::hash_key;
use crate::relation::Relation;
use std::sync::OnceLock;

/// The end of a chain (and the one row id the index cannot hold).
pub(crate) const NONE: u32 = u32::MAX;

/// Panic unless `rows` rows fit a [`RowKeyIndex`]: row ids are `u32`, with
/// [`NONE`] reserved.
pub(crate) fn assert_indexable(rows: usize, relation: &str) {
    assert!(
        rows < NONE as usize,
        "RowKeyIndex supports at most {NONE} rows, relation `{relation}` has {rows}"
    );
}

/// A chained hash index over 64-bit key hashes (see the module docs). Row
/// ids are insertion numbers: for an index built by [`RowKeyIndex::build`],
/// the indexed relation's row numbers.
pub(crate) struct RowKeyIndex {
    heads: Vec<u32>,
    next: Vec<u32>,
    hashes: Vec<u64>,
    filter: OnceLock<KeyFilter>,
}

impl RowKeyIndex {
    /// An empty index sized for `rows` rows.
    pub(crate) fn with_capacity(rows: usize) -> Self {
        RowKeyIndex {
            heads: vec![NONE; (2 * rows).next_power_of_two()],
            next: Vec::with_capacity(rows),
            hashes: Vec::with_capacity(rows),
            filter: OnceLock::new(),
        }
    }

    /// Index every row of `relation` by the values at `key_positions`.
    pub(crate) fn build(relation: &Relation, key_positions: &[usize]) -> Self {
        assert_indexable(relation.len(), relation.name());
        let mut index = RowKeyIndex::with_capacity(relation.len());
        for row in relation.iter() {
            index.insert(hash_key(row, key_positions));
        }
        index
    }

    /// Number of rows inserted so far.
    pub(crate) fn len(&self) -> usize {
        self.next.len()
    }

    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        hash as usize & (self.heads.len() - 1)
    }

    /// Add the next row, whose key hashes to `hash`.
    #[inline]
    pub(crate) fn insert(&mut self, hash: u64) {
        let row = self.next.len() as u32;
        let bucket = self.bucket(hash);
        self.next.push(self.heads[bucket]);
        self.hashes.push(hash);
        self.heads[bucket] = row;
        debug_assert!(
            self.filter.get().is_none(),
            "RowKeyIndex::insert after the key filter was built"
        );
    }

    /// The most recent row whose key hash is `hash`, or [`NONE`]: where
    /// [`RowKeyIndex::chain`] starts. This is the lookup; the chain walk
    /// from its result reads no bucket head again.
    #[inline]
    pub(crate) fn find(&self, hash: u64) -> u32 {
        self.skip_to(hash, self.heads[self.bucket(hash)])
    }

    /// [`RowKeyIndex::find`] behind the key filter: [`NONE`] after one
    /// filter word for all but about 1 % of absent keys, `find`'s answer
    /// for every other. The first call builds the filter, one pass over
    /// `hashes`; callers that mostly find their keys should call `find`.
    #[inline]
    pub(crate) fn find_filtered(&self, hash: u64) -> u32 {
        let filter = self.filter.get_or_init(|| KeyFilter::over(&self.hashes));
        if filter.admits(hash) {
            self.find(hash)
        } else {
            NONE
        }
    }

    /// Whether a key filter has been built.
    #[cfg(test)]
    pub(crate) fn has_filter(&self) -> bool {
        self.filter.get().is_some()
    }

    #[inline]
    fn skip_to(&self, hash: u64, mut row: u32) -> u32 {
        while row != NONE && self.hashes[row as usize] != hash {
            row = self.next[row as usize];
        }
        row
    }

    /// The rows whose key hash is `hash`, most recent first, from `start`
    /// (a result of [`RowKeyIndex::find`] for the same hash) on. Callers
    /// verify the actual key values.
    #[inline]
    pub(crate) fn chain(&self, hash: u64, start: u32) -> Chain<'_> {
        Chain {
            index: self,
            hash,
            row: start,
        }
    }
}

/// The blocked Bloom filter of the module docs: a power-of-two number of
/// 64-bit words, three bits of one word per key hash.
struct KeyFilter {
    words: Box<[u64]>,
}

/// The largest filter, in words: the word index comes from the hash's 24
/// bits above bit 40, which the bit fields below never read.
const FILTER_MAX_WORDS: usize = 1 << 24;

impl KeyFilter {
    /// A filter sized for `hashes.len()` keys, holding all of them.
    fn over(hashes: &[u64]) -> KeyFilter {
        let words = (hashes.len() / 4)
            .max(1)
            .next_power_of_two()
            .min(FILTER_MAX_WORDS);
        let mut filter = KeyFilter {
            words: vec![0; words].into_boxed_slice(),
        };
        for &hash in hashes {
            let (word, bits) = filter.slot(hash);
            filter.words[word] |= bits;
        }
        filter
    }

    /// The word of `hash` and the three bits it sets there.
    #[inline]
    fn slot(&self, hash: u64) -> (usize, u64) {
        let word = (hash >> 40) as usize & (self.words.len() - 1);
        let bits =
            (1 << ((hash >> 22) & 63)) | (1 << ((hash >> 28) & 63)) | (1 << ((hash >> 34) & 63));
        (word, bits)
    }

    /// False only when no added hash equals `hash`.
    #[inline]
    fn admits(&self, hash: u64) -> bool {
        let (word, bits) = self.slot(hash);
        self.words[word] & bits == bits
    }
}

/// Iterator over the row ids of one key hash (see [`RowKeyIndex::chain`]).
pub(crate) struct Chain<'a> {
    index: &'a RowKeyIndex,
    hash: u64,
    row: u32,
}

impl Iterator for Chain<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.row == NONE {
            return None;
        }
        let i = self.row as usize;
        self.row = self.index.skip_to(self.hash, self.index.next[i]);
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_values;
    use crate::schema::Schema;
    use crate::tuple::Value;

    fn rows_of(index: &RowKeyIndex, hash: u64) -> Vec<usize> {
        index.chain(hash, index.find(hash)).collect()
    }

    /// Does some row of `indexed` (keyed on `key`) equal `probe` on it?
    fn holds(index: &RowKeyIndex, indexed: &Relation, key: &[usize], probe: &[Value]) -> bool {
        let rows = rows_of(index, hash_values(probe));
        rows.into_iter().any(|i| key.iter().map(|&k| indexed.row(i)[k]).eq(probe.iter().copied()))
    }

    #[test]
    fn index_finds_all_rows_for_a_key() {
        let r = Relation::from_rows(
            Schema::from_strs("R", &["x", "y"]),
            vec![vec![1, 10], vec![2, 20], vec![1, 30]],
        );
        let idx = RowKeyIndex::build(&r, &[0]);
        let h = hash_values(&[1]);
        // Equal keys come out in reverse insertion order.
        assert_eq!(rows_of(&idx, h), vec![2, 0]);
        assert!(holds(&idx, &r, &[0], &[1]));
        assert!(!holds(&idx, &r, &[0], &[5]));
    }

    #[test]
    fn rows_of_one_bucket_are_told_apart_by_their_hashes() {
        // Hand-picked hashes forced into one bucket of a 2-row table
        // (4 buckets): low bits equal, full hashes different.
        let mut idx = RowKeyIndex::with_capacity(2);
        assert_eq!(idx.heads.len(), 4);
        let (a, b) = (0x10_u64, 0x20_u64);
        assert_eq!(idx.bucket(a), idx.bucket(b));
        idx.insert(a);
        idx.insert(b);
        idx.insert(a);
        assert_eq!(rows_of(&idx, a), vec![2, 0]);
        assert_eq!(rows_of(&idx, b), vec![1]);
        assert_eq!(idx.find(0x30), NONE);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn equal_hashes_of_different_keys_are_rejected_by_the_key_check() {
        // A 64-bit collision, simulated: two different keys inserted under
        // one hash. The chain yields both; the key check compares the values.
        let r = Relation::from_rows(Schema::from_strs("R", &["x"]), vec![vec![7], vec![8]]);
        let h = hash_values(&[7]);
        let mut idx = RowKeyIndex::with_capacity(2);
        idx.insert(h);
        idx.insert(h);
        assert_eq!(rows_of(&idx, h), vec![1, 0]);
        assert!(holds(&idx, &r, &[0], &[7]));
        // Row 1 (value 8) sits on hash(7)'s chain but is no match for 7,
        // and a probe for 8 hashes elsewhere: nothing on its chain.
        assert!(!holds(&idx, &r, &[0], &[8]));
    }

    #[test]
    fn empty_and_one_row_relations_index() {
        let empty = Relation::empty(Schema::from_strs("E", &["x"]));
        let idx = RowKeyIndex::build(&empty, &[0]);
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.find(hash_values(&[1])), NONE);
        assert!(!holds(&idx, &empty, &[0], &[1]));
        let one = Relation::from_rows(Schema::from_strs("O", &["x"]), vec![vec![3]]);
        let idx = RowKeyIndex::build(&one, &[0]);
        assert_eq!(rows_of(&idx, hash_values(&[3])), vec![0]);
        assert!(holds(&idx, &one, &[0], &[3]));
    }

    /// `n` distinct seeded random 64-bit hashes.
    fn random_hashes(seed: u64, n: usize) -> Vec<u64> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::new();
        std::iter::from_fn(|| Some(rng.gen::<u64>()))
            .filter(|h| seen.insert(*h))
            .take(n)
            .collect()
    }

    fn index_of(hashes: &[u64]) -> RowKeyIndex {
        let mut idx = RowKeyIndex::with_capacity(hashes.len());
        for &h in hashes {
            idx.insert(h);
        }
        idx
    }

    #[test]
    fn the_key_filter_passes_every_inserted_hash() {
        for rows in [0, 1, 2, 3, 64, 4_000] {
            let hashes = random_hashes(rows as u64, rows);
            let idx = index_of(&hashes);
            assert!(!idx.has_filter());
            for &h in &hashes {
                assert_ne!(idx.find_filtered(h), NONE, "{rows} rows: {h:#x} rejected");
                assert_eq!(idx.find_filtered(h), idx.find(h));
            }
            assert_eq!(idx.find_filtered(0x5eed), NONE);
            assert!(idx.has_filter());
        }
        // 16 hashes in one filter word of a 64-row index: bits 40 and up
        // equal, the bit fields below them all different. Each sets its
        // own three bits; none may be lost among the others'.
        let word = 0xABCD_u64 << 40;
        let crowded: Vec<u64> = (0..16u64)
            .map(|i| word | (i << 34) | ((i + 20) << 28) | ((i + 40) << 22) | i)
            .collect();
        let mut idx = RowKeyIndex::with_capacity(64);
        for &h in crowded.iter().chain(&random_hashes(7, 48)) {
            idx.insert(h);
        }
        let filter = KeyFilter::over(&idx.hashes);
        assert_eq!(filter.words.len(), 16);
        let (slot, _) = filter.slot(crowded[0]);
        assert!(crowded.iter().all(|&h| filter.slot(h).0 == slot));
        for (row, &h) in crowded.iter().enumerate() {
            assert!(filter.admits(h));
            assert_eq!(rows_of(&idx, h), vec![row]);
            assert_eq!(idx.find_filtered(h), row as u32);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "insert after the key filter was built")]
    fn an_insert_after_the_filter_is_built_is_refused() {
        let mut idx = index_of(&random_hashes(3, 100));
        assert_eq!(idx.find_filtered(1), NONE);
        idx.insert(1);
    }

    #[test]
    fn the_key_filter_rejects_most_absent_hashes() {
        // The word index and the three bit fields read disjoint hash bits;
        // a layout where they overlap would set the bits it tests and admit
        // far more than the ≈ 1 % the sizing gives.
        let hashes = random_hashes(11, 14_000);
        let (present, absent) = hashes.split_at(4_000);
        let filter = KeyFilter::over(present);
        assert_eq!(filter.words.len(), 1_024);
        let admitted = absent.iter().filter(|&&h| filter.admits(h)).count();
        assert!(
            admitted <= 500,
            "{admitted} of 10000 absent hashes admitted"
        );
        let idx = index_of(present);
        assert!(absent.iter().all(|&h| idx.find_filtered(h) == NONE));
    }

    #[test]
    #[should_panic(expected = "RowKeyIndex supports at most 4294967295 rows")]
    fn row_count_is_capped_below_u32_max() {
        assert_indexable(NONE as usize - 1, "R");
        assert_indexable(NONE as usize, "R");
    }
}
