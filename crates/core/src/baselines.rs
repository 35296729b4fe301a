//! Baseline algorithms the paper compares against (implicitly or
//! explicitly): single-server evaluation, broadcast joins and the standard
//! shuffle (hash-partition) join executed as a left-deep sequence of binary
//! joins.
//!
//! * `single_server_join` — the degenerate `L = M` case of Section 2.1: ship
//!   everything to one server. Correct, no parallelism.
//! * `broadcast_join` — broadcast every relation except the largest, which
//!   is partitioned; one round, load `≈ M_max/p + Σ_{j≠max} M_j`. Good when
//!   all but one relation are tiny (cf. Lemma 3.18's broadcast regime).
//! * `sequential_plan_join` — the classic parallel hash join: binary joins
//!   executed one per round, both sides hash-partitioned on their shared
//!   variables. This is the algorithm whose load degrades to `O(M)` under
//!   skew in Example 4.1, and the multi-round strawman against which the
//!   bushy plans of Section 5 are compared.

use crate::hypercube::run_one_round;
use crate::round::{in_process, InProcess, Round, Routing, Transport};
use pq_mpc::{broadcast_relation, Message, RunMetrics};
use pq_query::{evaluate_bound, instantiate, Atom, ConjunctiveQuery};
use pq_relation::{BucketHasher, Database, HashFamily, MultiplyShiftHash, Relation};

/// Result of a baseline run: the answer plus communication metrics.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// Query answer with set semantics, columns in query-variable order.
    pub output: Relation,
    /// Communication metrics.
    pub metrics: RunMetrics,
}

/// Ship the entire database to server 0 and evaluate there: one round, load
/// `|I|`, no parallelism (the degenerate case the MPC model excludes by
/// requiring `L < M`).
pub fn single_server_join(query: &ConjunctiveQuery, database: &Database, p: usize) -> BaselineRun {
    let messages = instantiate(query, database)
        .into_iter()
        .map(|rel| Message::tuples(0, rel))
        .collect();
    let (output, metrics) = run_one_round(query, database, p, messages);
    BaselineRun { output, metrics }
}

/// Broadcast every relation except the largest, partition the largest one
/// round-robin. One round; load `≈ M_max/p + Σ_{j≠max} M_j`.
pub fn broadcast_join(query: &ConjunctiveQuery, database: &Database, p: usize) -> BaselineRun {
    let bound = instantiate(query, database);
    let largest = bound
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.size_bits(database.bits_per_value()))
        .map(|(i, _)| i)
        .unwrap_or(0);

    let mut messages = Vec::new();
    for (j, rel) in bound.iter().enumerate() {
        if j == largest {
            for (s, part) in pq_mpc::partition_round_robin(rel, p).into_iter().enumerate() {
                if !part.is_empty() {
                    messages.push(Message::tuples(s, part));
                }
            }
        } else {
            messages.extend(broadcast_relation(rel, p));
        }
    }
    let (output, metrics) = run_one_round(query, database, p, messages);
    BaselineRun { output, metrics }
}

/// The standard parallel (shuffle) hash join, run as a left-deep sequence of
/// binary joins, one communication round per join. Each binary join hashes
/// both inputs on their shared attributes; inputs with no shared attribute
/// fall back to broadcasting the smaller side.
pub fn sequential_plan_join(
    query: &ConjunctiveQuery,
    database: &Database,
    p: usize,
    seed: u64,
) -> BaselineRun {
    let mut transport = InProcess::new(p, query, database);
    let family = MultiplyShiftHash::new(seed);

    // Left-deep order: start with the first atom, greedily pick a connected
    // next relation.
    let mut remaining: Vec<Relation> = instantiate(query, database);
    let mut acc = remaining.remove(0);
    let mut round = 0usize;
    while !remaining.is_empty() {
        let next_idx = remaining
            .iter()
            .position(|r| !acc.schema().common_attributes(r.schema()).is_empty())
            .unwrap_or(0);
        let right = remaining.remove(next_idx);
        acc = shuffle_binary_join(&mut transport, &acc, &right, &family, round);
        round += 1;
    }

    // Each round's answer is a set over the variables joined so far, so
    // only a one-atom query, which ran no round, can answer a bag.
    let mut output = acc.project(&query.variables(), query.name());
    if round == 0 {
        output.dedup();
    }
    BaselineRun {
        output,
        metrics: transport.metrics().clone(),
    }
}

/// One shuffle binary join: hash-partition both sides on the shared
/// attributes (or broadcast the smaller side when disjoint), then one round
/// whose single block joins the two tagged inputs locally and returns the
/// union of the per-server results.
fn shuffle_binary_join(
    transport: &mut InProcess,
    left: &Relation,
    right: &Relation,
    family: &MultiplyShiftHash,
    round: usize,
) -> Relation {
    let p = transport.p();
    let common = left.schema().common_attributes(right.schema());
    let mut messages = Vec::new();

    // Unique-per-round relation names so fragments from different rounds
    // don't merge on the servers.
    let left_tagged = left.renamed(format!("__L{round}_{}", left.name()));
    let right_tagged = right.renamed(format!("__R{round}_{}", right.name()));

    if common.is_empty() {
        // Broadcast the smaller side, partition the bigger one.
        let (small, big) = if left.len() <= right.len() {
            (&left_tagged, &right_tagged)
        } else {
            (&right_tagged, &left_tagged)
        };
        messages.extend(broadcast_relation(small, p));
        for (s, part) in pq_mpc::partition_round_robin(big, p).into_iter().enumerate() {
            if !part.is_empty() {
                messages.push(Message::tuples(s, part));
            }
        }
    } else {
        let hasher = family.hasher(round, p);
        for tagged in [&left_tagged, &right_tagged] {
            let positions: Vec<usize> = common
                .iter()
                .map(|a| tagged.schema().position(a).expect("common attribute"))
                .collect();
            // Hash the concatenation of the join-key values.
            let parts = tagged.partition(p, |_, t| {
                let key = positions
                    .iter()
                    .fold(0u64, |key, &pos| key.wrapping_mul(0x100000001B3).wrapping_add(t[pos]));
                hasher.bucket(key)
            });
            for (s, part) in parts.into_iter().enumerate() {
                if !part.is_empty() {
                    messages.push(Message::tuples(s, part));
                }
            }
        }
    }

    let atom = |tagged: &Relation| Atom::new(tagged.name(), tagged.schema().attributes().to_vec());
    let join = ConjunctiveQuery::new(
        format!("{}⋈{}", left.name(), right.name()),
        vec![atom(&left_tagged), atom(&right_tagged)],
    );
    let round = Round::single(&join, p, Routing::Messages(messages));
    in_process(transport.round(round)).remove(0)
}

/// A direct two-relation shuffle hash join (the algorithm of Example 4.1),
/// exposed for the skew experiments: both relations are hash-partitioned on
/// their shared variables across `p` servers in a single round.
pub fn shuffle_hash_join(
    query: &ConjunctiveQuery,
    database: &Database,
    p: usize,
    seed: u64,
) -> BaselineRun {
    assert_eq!(
        query.num_atoms(),
        2,
        "shuffle_hash_join expects a binary join query"
    );
    let bound = instantiate(query, database);
    let mut transport = InProcess::new(p, query, database);
    let family = MultiplyShiftHash::new(seed);
    let joined = shuffle_binary_join(&mut transport, &bound[0], &bound[1], &family, 0);
    let output = joined.project(&query.variables(), query.name());
    BaselineRun {
        output,
        metrics: transport.metrics().clone(),
    }
}

/// Convenience oracle wrapper so experiment code can compare against the
/// sequential answer with the same return type.
pub fn oracle(query: &ConjunctiveQuery, database: &Database) -> Relation {
    let bound = instantiate(query, database);
    evaluate_bound(query, &bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_query::evaluate_sequential;
    use pq_relation::{DataGenerator, Schema};

    fn triangle_db(m: usize, seed: u64) -> Database {
        let mut gen = DataGenerator::new(seed, (m * 50) as u64);
        gen.matching_database(&[
            (Schema::from_strs("S1", &["a", "b"]), m),
            (Schema::from_strs("S2", &["a", "b"]), m),
            (Schema::from_strs("S3", &["a", "b"]), m),
        ])
    }

    fn identity_join_db(m: usize) -> Database {
        let mut db = Database::new((m as u64).max(2));
        for name in ["S1", "S2"] {
            db.insert(Relation::from_rows(
                Schema::from_strs(name, &["a", "b"]),
                (0..m as u64).map(|i| vec![i % (m as u64 / 4).max(1), i]).collect(),
            ));
        }
        db
    }

    #[test]
    fn single_server_is_correct_and_loads_everything() {
        let q = ConjunctiveQuery::triangle();
        let db = triangle_db(100, 1);
        let run = single_server_join(&q, &db, 4);
        assert_eq!(
            run.output.canonicalized(),
            evaluate_sequential(&q, &db).canonicalized()
        );
        assert_eq!(run.metrics.max_load(), db.total_size_bits());
        assert_eq!(run.metrics.num_rounds(), 1);
    }

    #[test]
    fn broadcast_join_is_correct() {
        let q = ConjunctiveQuery::triangle();
        let db = triangle_db(150, 2);
        let run = broadcast_join(&q, &db, 8);
        assert_eq!(
            run.output.canonicalized(),
            evaluate_sequential(&q, &db).canonicalized()
        );
        assert_eq!(run.metrics.num_rounds(), 1);
        // Load is at least the two broadcast relations' size.
        assert!(run.metrics.max_load() >= 2 * db.relation_size_bits("S1") / 2);
    }

    #[test]
    fn sequential_plan_join_triangle_correct() {
        let q = ConjunctiveQuery::triangle();
        let db = triangle_db(200, 3);
        let run = sequential_plan_join(&q, &db, 8, 5);
        assert_eq!(
            run.output.canonicalized(),
            evaluate_sequential(&q, &db).canonicalized()
        );
        // Left-deep plan over 3 atoms = 2 rounds.
        assert_eq!(run.metrics.num_rounds(), 2);
    }

    #[test]
    fn sequential_plan_join_chain_correct() {
        let q = ConjunctiveQuery::chain(4);
        let mut gen = DataGenerator::new(9, 100_000);
        let db = gen.matching_database(&[
            (Schema::from_strs("S1", &["a", "b"]), 300),
            (Schema::from_strs("S2", &["a", "b"]), 300),
            (Schema::from_strs("S3", &["a", "b"]), 300),
            (Schema::from_strs("S4", &["a", "b"]), 300),
        ]);
        let run = sequential_plan_join(&q, &db, 8, 5);
        assert_eq!(
            run.output.canonicalized(),
            evaluate_sequential(&q, &db).canonicalized()
        );
        assert_eq!(run.metrics.num_rounds(), 3);
    }

    #[test]
    fn shuffle_hash_join_on_simple_join_is_correct() {
        let q = ConjunctiveQuery::simple_join();
        let db = identity_join_db(400);
        let run = shuffle_hash_join(&q, &db, 8, 11);
        assert_eq!(
            run.output.canonicalized(),
            evaluate_sequential(&q, &db).canonicalized()
        );
        assert_eq!(run.metrics.num_rounds(), 1);
    }

    #[test]
    fn shuffle_hash_join_degrades_under_skew() {
        // Example 4.1: all tuples share one join key -> one server gets
        // (almost) everything.
        let q = ConjunctiveQuery::simple_join();
        let mut db = Database::new(100_000);
        let m = 500u64;
        db.insert(Relation::from_rows(
            Schema::from_strs("S1", &["a", "b"]),
            (0..m).map(|i| vec![7, i]).collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::from_strs("S2", &["a", "b"]),
            (0..m).map(|i| vec![7, 10_000 + i]).collect(),
        ));
        let run = shuffle_hash_join(&q, &db, 16, 13);
        assert_eq!(run.output.len(), (m * m) as usize);
        // The maximum load is the entire input, not |I|/p.
        assert_eq!(run.metrics.max_load(), db.total_size_bits());
    }

    #[test]
    #[should_panic(expected = "binary join")]
    fn shuffle_hash_join_rejects_non_binary_queries() {
        let q = ConjunctiveQuery::triangle();
        let db = triangle_db(10, 1);
        shuffle_hash_join(&q, &db, 4, 1);
    }

    #[test]
    fn oracle_matches_evaluate_sequential() {
        let q = ConjunctiveQuery::star(2);
        let db = identity_join_db(100);
        assert_eq!(
            oracle(&q, &db).canonicalized(),
            evaluate_sequential(&q, &db).canonicalized()
        );
    }
}
