//! Oracle equivalence for the `pq-engine` subsystem: for random databases
//! (skew-free matchings and databases with planted heavy hitters) and a
//! suite of query shapes (paths, triangle, stars, star-of-paths mixes,
//! Cartesian-free combinations), the engine's parse → plan → execute
//! pipeline must return exactly the answer of the sequential
//! `natural_join_all` oracle — whatever strategy the planner picked.

use pq_bench::matching_database_for_query;
use pq_engine::{Engine, Strategy};
use pq_query::{evaluate_sequential, ConjunctiveQuery};
use pq_relation::{Database, Tuple};
use proptest::prelude::*;

/// The query shapes under test. Query text is produced by
/// `ConjunctiveQuery`'s `Display`, which the engine's parser round-trips.
fn query_suite() -> Vec<ConjunctiveQuery> {
    vec![
        ConjunctiveQuery::chain(2),
        ConjunctiveQuery::chain(3),
        ConjunctiveQuery::triangle(),
        ConjunctiveQuery::star(3),
        ConjunctiveQuery::star_of_paths(2),
        ConjunctiveQuery::cartesian_pair(),
    ]
}

/// A matching database for the query; with `skew`, every relation
/// additionally gets a heavy hitter (value 0) of degree `~m/8` in its
/// first column — far above the `m/p` threshold for the `p` used in these
/// tests, while keeping residual Cartesian products (hub-degree cubed for
/// the star) affordable for the sequential oracle.
fn database_for(query: &ConjunctiveQuery, m: usize, seed: u64, skew: bool) -> Database {
    let mut db = matching_database_for_query(query, m, seed);
    let domain = db.domain_size();
    if skew {
        let heavy = (m / 8).max(8);
        for (j, atom) in query.atoms().iter().enumerate() {
            let rel = db.relation_mut(atom.relation()).expect("relation exists");
            for i in 0..heavy as u64 {
                let mut row = vec![0u64; atom.arity()];
                for (c, cell) in row.iter_mut().enumerate().skip(1) {
                    *cell = domain - 1 - (i * 7 + c as u64 + j as u64 * 977) % 3000;
                }
                rel.push(Tuple::new(row));
            }
            rel.dedup();
        }
    }
    db
}

/// Engine answer == sequential oracle, for one query/database/p.
fn assert_matches_oracle(query: &ConjunctiveQuery, db: &Database, p: usize) {
    let oracle = evaluate_sequential(query, db).canonicalized();
    let session = Engine::new(db.clone(), p).session();
    let run = session
        .run(&query.to_string())
        .unwrap_or_else(|e| panic!("{} failed to run: {e}", query.name()));
    assert_eq!(
        run.outcome.output.canonicalized(),
        oracle,
        "strategy {} disagrees with the oracle on {} (p = {p})",
        run.plan.strategy.name(),
        query.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn engine_matches_oracle_on_random_databases(
        seed in 0u64..1000,
        m in 20usize..80,
        p in 2usize..32,
        skew in any::<bool>(),
    ) {
        for query in query_suite() {
            let db = database_for(&query, m, seed, skew);
            let oracle = evaluate_sequential(&query, &db).canonicalized();
            let session = Engine::new(db, p).session();
            let run = session.run(&query.to_string()).expect("engine runs");
            prop_assert!(
                run.outcome.output.canonicalized() == oracle,
                "strategy {} disagrees with the oracle on {} (seed {seed}, m {m}, p {p}, skew {skew})",
                run.plan.strategy.name(),
                query.name()
            );
        }
    }
}

#[test]
fn skewed_triangle_routes_to_the_skew_aware_algorithm_and_is_correct() {
    let query = ConjunctiveQuery::triangle();
    let db = database_for(&query, 300, 41, true);
    let session = Engine::new(db.clone(), 16).session();
    let run = session.run(&query.to_string()).expect("runs");
    assert!(
        matches!(run.plan.strategy, Strategy::SkewAwareTriangle),
        "expected the skew split, got {}",
        run.plan.strategy.name()
    );
    assert_matches_oracle(&query, &db, 16);
}

#[test]
fn skewed_star_routes_to_the_skew_aware_algorithm_and_is_correct() {
    let query = ConjunctiveQuery::star(3);
    let db = database_for(&query, 300, 43, true);
    let session = Engine::new(db.clone(), 16).session();
    let run = session.run(&query.to_string()).expect("runs");
    assert!(
        matches!(run.plan.strategy, Strategy::SkewAwareStar),
        "expected the skew-aware star, got {}",
        run.plan.strategy.name()
    );
    assert_matches_oracle(&query, &db, 16);
}

#[test]
fn large_path_goes_multi_round_and_is_correct() {
    let query = ConjunctiveQuery::chain(3);
    let db = database_for(&query, 1_200, 47, false);
    let session = Engine::new(db.clone(), 64).session();
    let run = session.run(&query.to_string()).expect("runs");
    assert!(
        matches!(run.plan.strategy, Strategy::MultiRound { rounds: 2, .. }),
        "expected a 2-round plan, got {}",
        run.plan.strategy.name()
    );
    assert_matches_oracle(&query, &db, 64);
}

#[test]
fn repeated_queries_hit_the_plan_cache_with_identical_answers() {
    let query = ConjunctiveQuery::triangle();
    let db = database_for(&query, 200, 53, false);
    let engine = Engine::new(db, 27);
    let session = engine.session();
    let first = session.run(&query.to_string()).expect("runs");
    assert!(!first.cache_hit);
    let second = session.run(&query.to_string()).expect("runs");
    assert!(second.cache_hit, "second run must reuse the cached plan");
    assert_eq!(
        first.outcome.output.canonicalized(),
        second.outcome.output.canonicalized()
    );
    assert_eq!(engine.cache_stats().hits, 1);
}

#[test]
fn every_strategy_family_appears_across_the_matrix() {
    // Sanity check that the suite above actually exercises all four
    // strategies, so a planner regression cannot silently shrink coverage.
    let mut seen = std::collections::BTreeSet::new();
    let cases: Vec<(ConjunctiveQuery, usize, bool, usize)> = vec![
        (ConjunctiveQuery::triangle(), 200, false, 27),
        (ConjunctiveQuery::triangle(), 200, true, 16),
        (ConjunctiveQuery::star(3), 200, true, 16),
        (ConjunctiveQuery::chain(3), 1_200, false, 64),
    ];
    for (query, m, skew, p) in cases {
        let db = database_for(&query, m, 59, skew);
        let session = Engine::new(db, p).session();
        let run = session.run(&query.to_string()).expect("runs");
        seen.insert(run.plan.strategy.name());
    }
    assert_eq!(
        seen.into_iter().collect::<Vec<_>>(),
        vec![
            "multi-round bushy plan",
            "one-round HyperCube",
            "skew-aware star",
            "skew-aware triangle"
        ]
    );
}
