//! The typed delta mutation path, end to end.
//!
//! Three contracts, each against an oracle:
//!
//! * **incremental statistics** — folding insert-only deltas into a
//!   [`DatabaseStatistics`] catalogue must be *indistinguishable* (full
//!   `PartialEq`, fingerprints included) from recomputing the catalogue
//!   from the post-insert database;
//! * **per-relation copy-on-write** — `Engine::apply` of a delta touching
//!   one relation must share the other relations' row buffers *and*
//!   statistics with the previous snapshot by pointer (`Arc::ptr_eq`), i.e.
//!   provably not recompute them;
//! * **snapshot isolation** — readers holding a pre-delta snapshot keep
//!   answering from the old data while sessions starting after the delta
//!   see the new rows.

use pq_engine::{parse_query, plan_query_on, run_plan, Delta, Engine};
use pq_relation::{Database, DatabaseStatistics, Relation, Schema, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// A tiny deterministic generator (xorshift64*) so random databases and
/// deltas derive from one proptest-chosen seed.
struct Xs(u64);

impl Xs {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, span: u64) -> u64 {
        self.next() % span.max(1)
    }
}

/// 2–4 relations, arities 0..=3 over a small attribute pool and a small
/// value domain (plenty of duplicate values, so degree maps and heavy
/// hitters are exercised, not just cardinalities).
fn random_database(rng: &mut Xs) -> Database {
    const POOL: [&str; 4] = ["a", "b", "c", "d"];
    let mut db = Database::new(64);
    for i in 0..2 + rng.below(3) {
        let arity = rng.below(4) as usize;
        let mut attrs: Vec<String> = Vec::new();
        let mut start = rng.below(4) as usize;
        while attrs.len() < arity {
            attrs.push(POOL[start % POOL.len()].to_string());
            start += 1;
        }
        let rows = rng.below(20) as usize;
        let mut rel = Relation::empty(Schema::new(format!("R{i}"), attrs));
        let mut row = Vec::with_capacity(arity);
        for _ in 0..rows {
            row.clear();
            row.extend((0..arity).map(|_| rng.below(8)));
            rel.push_row(&row);
        }
        db.insert(rel);
    }
    db
}

/// Random insert-only rows for a randomly chosen subset of `db`'s
/// relations (possibly none, possibly empty row lists).
fn random_rows(rng: &mut Xs, db: &Database) -> Vec<(String, Vec<Vec<Value>>)> {
    db.relations()
        .map(|rel| {
            let k = rng.below(4) as usize;
            let rows: Vec<Vec<Value>> = (0..k)
                .map(|_| (0..rel.arity()).map(|_| rng.below(8)).collect())
                .collect();
            (rel.name().to_string(), rows)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The statistics-layer oracle: consecutive `apply_inserts` batches
    // leave the catalogue equal — fingerprint included — to a fresh
    // recompute from the mutated database.
    #[test]
    fn stats_after_apply_inserts_equal_recompute_from_scratch(seed in 0u64..1_000_000) {
        let mut rng = Xs(seed);
        let mut db = random_database(&mut rng);
        let mut stats = DatabaseStatistics::compute(&db);
        for _ in 0..1 + rng.below(3) {
            for (name, rows) in random_rows(&mut rng, &db) {
                if rows.is_empty() {
                    continue;
                }
                let schema = db.relation(&name).unwrap().schema().clone();
                stats.apply_inserts(&schema, rows.iter().map(Vec::as_slice));
                let rel = db.relation_mut(&name).unwrap();
                for row in &rows {
                    rel.push_row(row);
                }
            }
        }
        let recomputed = DatabaseStatistics::compute(&db);
        prop_assert_eq!(&stats, &recomputed);
        prop_assert_eq!(stats.fingerprint, recomputed.fingerprint);
    }

    // The engine-level oracle: after any chain of `Engine::apply` calls,
    // the live snapshot's catalogue equals a from-scratch recompute of its
    // database.
    #[test]
    fn engine_apply_keeps_snapshot_statistics_exact(seed in 0u64..1_000_000) {
        let mut rng = Xs(seed);
        let db = random_database(&mut rng);
        let engine = Engine::new(db, 4);
        for _ in 0..1 + rng.below(3) {
            let rows = random_rows(&mut rng, engine.snapshot().database());
            let mut delta = Delta::new();
            for (name, rows) in rows {
                delta = delta.and_insert(name, rows);
            }
            let total_before = engine.snapshot().database().total_tuples();
            let inserted = delta.num_rows();
            let next = engine.apply(delta).expect("valid delta");
            prop_assert_eq!(next.database().total_tuples(), total_before + inserted);
        }
        let snapshot = engine.snapshot();
        let recomputed = DatabaseStatistics::compute(snapshot.database());
        prop_assert_eq!(snapshot.statistics(), &recomputed);
        prop_assert_eq!(snapshot.fingerprint(), recomputed.fingerprint);
    }
}

/// R → S → T chain on 50 rows per relation.
fn chain_engine() -> Engine {
    let mut db = Database::new(1 << 10);
    for (name, offset) in [("R", 0u64), ("S", 1), ("T", 2)] {
        db.insert(Relation::from_rows(
            Schema::from_strs(name, &["a", "b"]),
            (0..50).map(|i| vec![i + offset, i + offset + 1]).collect(),
        ));
    }
    Engine::new(db, 8)
}

/// The acceptance-criterion assertion: a single-row insert into one
/// relation of a multi-relation database must not recompute — or even
/// copy — the untouched relations' rows or statistics. `Arc::ptr_eq`
/// proves sharing, which is strictly stronger than equality.
#[test]
fn apply_shares_untouched_relations_and_their_statistics_by_pointer() {
    let engine = chain_engine();
    let before = engine.snapshot();
    let after = engine.apply(Delta::insert("R", vec![vec![900, 901]])).unwrap();

    for untouched in ["S", "T"] {
        assert!(
            Arc::ptr_eq(
                before.database().relation_arc(untouched).unwrap(),
                after.database().relation_arc(untouched).unwrap()
            ),
            "{untouched}'s rows must be shared, not copied"
        );
        assert!(
            Arc::ptr_eq(
                &before.statistics().relations[untouched],
                &after.statistics().relations[untouched]
            ),
            "{untouched}'s statistics must be shared, not recomputed"
        );
    }
    assert!(
        !Arc::ptr_eq(
            before.database().relation_arc("R").unwrap(),
            after.database().relation_arc("R").unwrap()
        ),
        "the touched relation is copied-on-write"
    );
    assert!(!Arc::ptr_eq(
        &before.statistics().relations["R"],
        &after.statistics().relations["R"]
    ));
    // And the old snapshot is genuinely untouched.
    assert_eq!(before.database().expect_relation("R").len(), 50);
    assert_eq!(after.database().expect_relation("R").len(), 51);
    assert_eq!(
        after.statistics().relations["R"].cardinality,
        51,
        "touched statistics were maintained"
    );
}

/// A query's bound atoms are O(1) views of the stored relations' row
/// buffers (`instantiate` shares, it does not copy), so the copy-on-write
/// must hold at that granularity too: a delta landing while a bound copy is
/// alive leaves that copy's rows exactly as they were.
#[test]
fn a_bound_copy_outlives_an_apply_unchanged() {
    let engine = chain_engine();
    let parsed = parse_query("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let snapshot = engine.snapshot();
    let bound = pq_query::instantiate(&parsed.query, snapshot.database());
    let stored = snapshot.database().expect_relation("R");
    assert_eq!(bound[0].values().as_ptr(), stored.values().as_ptr(), "bound by sharing");
    let rows_before = bound[0].values().to_vec();
    drop(snapshot);

    let after = engine.apply(Delta::insert("R", vec![vec![900, 901]])).unwrap();
    assert_eq!(after.database().expect_relation("R").len(), 51);
    assert_eq!(bound[0].len(), 50);
    assert_eq!(bound[0].values(), rows_before.as_slice());
    assert_eq!(bound[0].schema().attributes(), &["x".to_string(), "y".to_string()]);
    // The escape hatch mutates the stored relation in place (`relation_mut`):
    // S's bound copy must make that write copy the buffer first.
    let after = engine.update(|db| db.relation_mut("S").unwrap().push_row(&[902, 903]));
    assert_eq!(after.database().expect_relation("S").len(), 51);
    assert_eq!(bound[1].len(), 50);
    assert!(bound[1].iter().all(|row| row[0] < 900));
}

/// Readers holding a pre-delta snapshot keep answering from the old data;
/// sessions that start after the delta see the new rows. Reader threads
/// racing a writer must only ever observe row counts of some installed
/// snapshot, in monotone order.
#[test]
fn readers_keep_their_snapshot_while_deltas_land() {
    let engine = chain_engine();
    let text = "Q(x, y, z) :- R(x, y), S(y, z)";
    let session = engine.session();
    let baseline = session.run(text).unwrap().outcome.output.len();

    // A reader pins the pre-delta snapshot explicitly.
    let old_snapshot = engine.snapshot();
    // Each delta row R(900+k, 1) joins S(1, 2): one new answer per delta.
    const DELTAS: usize = 5;
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let session = engine.session();
                scope.spawn(move || {
                    let mut seen = Vec::new();
                    for _ in 0..10 {
                        seen.push(session.run(text).unwrap().outcome.output.len());
                    }
                    seen
                })
            })
            .collect();
        scope.spawn(|| {
            for k in 0..DELTAS {
                engine
                    .apply(Delta::insert("R", vec![vec![900 + k as Value, 1]]))
                    .unwrap();
            }
        });
        for reader in readers {
            let seen = reader.join().unwrap();
            let mut sorted = seen.clone();
            sorted.sort_unstable();
            assert_eq!(seen, sorted, "snapshots only move forward");
            for count in seen {
                assert!(
                    (baseline..=baseline + DELTAS).contains(&count),
                    "count {count} outside any installed snapshot"
                );
            }
        }
    });

    // The pinned pre-delta snapshot still answers with the old data.
    let parsed = parse_query(text).unwrap();
    let plan = plan_query_on(&parsed, &old_snapshot, 8).unwrap();
    let old_answer = run_plan(&plan, &old_snapshot, 7);
    assert_eq!(old_answer.output.len(), baseline, "old snapshot intact");
    // A fresh session sees every delta.
    assert_eq!(
        engine.session().run(text).unwrap().outcome.output.len(),
        baseline + DELTAS
    );
}

/// Nullary relations ride the same path (the flat storage keeps an
/// explicit row count for them).
#[test]
fn deltas_into_nullary_relations_work() {
    let mut db = Database::new(16);
    db.insert(Relation::empty(Schema::new("N", Vec::<String>::new())));
    db.insert(Relation::from_rows(
        Schema::from_strs("R", &["x"]),
        vec![vec![1]],
    ));
    let engine = Engine::new(db, 4);
    let next = engine
        .apply(Delta::insert("N", vec![vec![], vec![]]))
        .unwrap();
    assert_eq!(next.database().expect_relation("N").len(), 2);
    assert_eq!(next.statistics().relations["N"].cardinality, 2);
    assert_eq!(next.statistics().relations["N"].size_bits, 0);
    assert_eq!(
        next.statistics(),
        &DatabaseStatistics::compute(next.database())
    );
}

/// The cumulative `invalidated` counter sums evictions across both
/// mutation paths, and plans over untouched relations survive arbitrary
/// interleavings of `apply` and `update`.
#[test]
fn invalidated_counter_accumulates_across_apply_and_update() {
    let engine = chain_engine();
    let session = engine.session();
    let q_rs = "Q(x, y, z) :- R(x, y), S(y, z)";
    let q_st = "Q(x, y, z) :- S(x, y), T(y, z)";
    session.run(q_rs).unwrap();
    session.run(q_st).unwrap();

    engine.apply(Delta::insert("R", vec![vec![901, 1]])).unwrap();
    assert_eq!(engine.cache_stats().invalidated, 1, "q_rs evicted");
    session.run(q_rs).unwrap(); // re-cached under the new fingerprint
    engine.update(|db| {
        db.relation_mut("T").unwrap().push(pq_relation::Tuple::from([902, 903]));
    });
    assert_eq!(engine.cache_stats().invalidated, 2, "q_st evicted in turn");
    assert!(session.run(q_rs).unwrap().cache_hit, "q_rs survived the T update");
    assert!(!session.run(q_st).unwrap().cache_hit);
}
