//! Relational data substrate for the parallel-query workspace.
//!
//! The paper evaluates conjunctive queries over relations whose tuples are
//! drawn from a finite domain `[n]`. This crate provides everything the
//! algorithms and the simulator need to manipulate such data:
//!
//! * [`tuple`](mod@tuple) — values and owned tuples (`u64` domain
//!   elements); since the flat-storage refactor [`Tuple`] is a boundary
//!   type only,
//! * [`schema`] / [`relation`] — named relations storing rows row-major in
//!   one flat, shared copy-on-write `Vec<Value>` (arity as stride, iteration
//!   yields borrowed `&[Value]` row views, clones are O(1)), with
//!   projections, selections and degree computations `d_J(R)`,
//! * [`scatter`] — the one two-pass scatter kernel behind every shuffle
//!   and partitioning of a relation's rows,
//! * [`database`] — instances mapping relation names to relations, with the
//!   bit-size accounting (`M_j = a_j · m_j · log n`) the MPC model charges,
//! * [`csv`](mod@csv) — loading relations from delimited text files through
//!   a shared [`ValueDictionary`] (the `pqsh` ingestion path),
//! * [`dictionary`] — that token ↔ id map as three flat arrays: the tokens
//!   back to back, one offset per id, and an open-addressing table,
//! * [`statistics`] — cardinality statistics, per-value frequencies
//!   (degree sequences) and heavy-hitter detection,
//! * [`hash`] — seeded strongly-universal-style hash families used by the
//!   HyperCube partitioning,
//! * [`generator`] — synthetic data generators: matching databases (every
//!   degree exactly one, the distribution used by the lower-bound proofs),
//!   heavy-hitter injectors and Zipf-skewed relations,
//! * [`join`] — natural-join evaluation used both as the local computation
//!   performed by each simulated server and as a correctness oracle in
//!   tests; a block join indexes each fragment buffer the servers of a
//!   HyperCube subcube share once for all of them, and large probe sides
//!   split into morsels over the installed `pq-exec` pool with
//!   sequential-identical output,
//! * [`wire`] — the one binary codec: little-endian writers and one
//!   bounds-checked reader, under the worker frames of `pq-mpc` and the
//!   WAL records and checkpoint files of `pq-wal`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod csv;
pub mod database;
pub mod dictionary;
pub mod generator;
pub mod hash;
pub mod join;
pub mod relation;
mod rowindex;
pub mod scatter;
pub mod schema;
pub mod statistics;
pub mod tuple;
pub mod wire;

pub use csv::{load_database_dir, load_database_files, load_relation_csv, CsvError};
pub use database::Database;
pub use dictionary::{RepeatedToken, ValueDictionary};
pub use generator::{DataGenerator, SkewSpec};
pub use hash::{
    hash_key, hash_values, mix64, BucketHasher, HashFamily, MultiplyShiftHash, TabulationHash,
};
pub use join::{natural_join, natural_join_all, natural_join_block, project, MORSEL_ROWS};
pub use relation::{Relation, Rows};
pub use scatter::Scatter;
pub use schema::Schema;
pub use statistics::{
    database_fingerprint, DatabaseStatistics, DegreeStatistics, RelationStatistics,
};
pub use tuple::{Tuple, Value};
pub use wire::{values_from_le_bytes, values_to_le_bytes, WireError};

/// Number of bits needed to represent one value from a domain of size `n`
/// (`ceil(log2 n)`, at least 1).
pub fn bits_per_value(domain_size: u64) -> u64 {
    if domain_size <= 2 {
        1
    } else {
        64 - (domain_size - 1).leading_zeros() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_per_value_is_ceil_log2() {
        assert_eq!(bits_per_value(1), 1);
        assert_eq!(bits_per_value(2), 1);
        assert_eq!(bits_per_value(3), 2);
        assert_eq!(bits_per_value(4), 2);
        assert_eq!(bits_per_value(5), 3);
        assert_eq!(bits_per_value(1024), 10);
        assert_eq!(bits_per_value(1025), 11);
    }
}
