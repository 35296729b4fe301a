//! Input partitioning helpers.
//!
//! The MPC model assumes the input is initially spread uniformly over the
//! `p` servers (the *partitioned-input* model); for lower bounds the paper
//! uses the equivalent *input-server* model where each relation sits whole
//! on its own conceptual input server (Section 2.1). For upper bounds the
//! distinction is immaterial — the HyperCube routing decisions depend only
//! on each tuple — so algorithms here construct round-one messages straight
//! from the full relations. These helpers exist for the partitioned-input
//! mode and for experiments that want an explicit initial placement. Both
//! are classifiers over the one scatter kernel ([`Relation::partition`]).

use pq_relation::{BucketHasher, HashFamily, Relation};

/// Split a relation into `p` fragments round-robin (uniform partitioning,
/// the model's initial data placement).
pub fn partition_round_robin(relation: &Relation, p: usize) -> Vec<Relation> {
    assert!(p > 0, "cannot partition over zero servers");
    relation.partition(p, |i, _| i % p)
}

/// Split a relation into `p` fragments by hashing one attribute — a standard
/// parallel hash partitioning (the baseline join algorithms use it).
///
/// # Panics
/// Panics when the attribute is not part of the relation's schema.
pub fn partition_by_hash<F: HashFamily>(
    relation: &Relation,
    attribute: &str,
    p: usize,
    family: &F,
    hash_index: usize,
) -> Vec<Relation> {
    assert!(p > 0, "cannot partition over zero servers");
    let pos = relation
        .schema()
        .position(attribute)
        .unwrap_or_else(|| panic!("attribute `{attribute}` not in `{}`", relation.name()));
    let hasher = family.hasher(hash_index, p);
    relation.partition(p, |_, row| hasher.bucket(row[pos]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::{MultiplyShiftHash, Relation, Schema};

    fn rel(m: usize) -> Relation {
        Relation::from_rows(
            Schema::from_strs("R", &["x", "y"]),
            (0..m as u64).map(|i| vec![i, i + 1000]).collect(),
        )
    }

    #[test]
    fn round_robin_is_balanced_and_complete() {
        let r = rel(103);
        let parts = partition_round_robin(&r, 4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Relation::len).sum();
        assert_eq!(total, 103);
        for p in &parts {
            assert!(p.len() == 25 || p.len() == 26);
        }
    }

    #[test]
    fn hash_partition_is_complete_and_key_local() {
        let r = rel(200);
        let family = MultiplyShiftHash::new(7);
        let parts = partition_by_hash(&r, "x", 8, &family, 0);
        let total: usize = parts.iter().map(Relation::len).sum();
        assert_eq!(total, 200);
        // Every tuple with the same key lands on the same server: check by
        // re-hashing.
        let hasher = family.hasher(0, 8);
        use pq_relation::BucketHasher;
        for (s, part) in parts.iter().enumerate() {
            for t in part.iter() {
                assert_eq!(hasher.bucket(t[0]), s);
            }
        }
    }

    #[test]
    #[should_panic(expected = "not in")]
    fn hash_partition_unknown_attribute_panics() {
        let r = rel(5);
        partition_by_hash(&r, "zzz", 2, &MultiplyShiftHash::new(1), 0);
    }

    #[test]
    #[should_panic(expected = "zero servers")]
    fn round_robin_zero_servers_panics() {
        partition_round_robin(&rel(5), 0);
    }

    #[test]
    fn partitioning_empty_relation_gives_empty_parts() {
        let r = Relation::empty(Schema::from_strs("R", &["x", "y"]));
        let parts = partition_round_robin(&r, 3);
        assert!(parts.iter().all(Relation::is_empty));
    }
}
