//! Integration tests for the skew story of Section 4: the standard hash
//! join degrades, the skew-oblivious LP hedges, and the skew-aware
//! algorithms recover the heavy-hitter bounds while staying correct.

use pq_bench::{hub_triangle_database, skewed_star_database};
use pq_core::baselines::shuffle_hash_join;
use pq_core::bounds::skew_bounds::{
    skewed_lower_bound, star_heavy_hitter_bound, SkewStatistics,
};
use pq_core::hypercube::run_hypercube_with_shares;
use pq_core::prelude::*;
use pq_core::shares::{integer_shares, ShareRounding};
use pq_core::skew::heavy::{all_heavy_hitters, heavy_hitters_of_variable};
use pq_core::skew::oblivious::{oblivious_share_exponents, oblivious_worst_case_load};
use pq_query::evaluate_sequential;
use pq_relation::DatabaseStatistics;
use std::collections::BTreeMap;

#[test]
fn example_4_1_hash_join_degrades_but_stays_correct() {
    let query = ConjunctiveQuery::simple_join();
    let m = 800;
    let p = 32;
    // Without skew the hash join achieves ~M/p.
    let db_light = skewed_star_database(2, m, 1, 7);
    let light = shuffle_hash_join(&query, &db_light, p, 9);
    let m_bits = db_light.relation_size_bits("S1");
    assert!(light.metrics.max_load() < 8 * m_bits / p as u64);
    // With all tuples on one key the load is the whole input.
    let db_heavy = skewed_star_database(2, m, m, 7);
    let heavy = shuffle_hash_join(&query, &db_heavy, p, 9);
    assert_eq!(heavy.metrics.max_load(), db_heavy.total_size_bits());
    assert_eq!(
        heavy.output.canonicalized(),
        evaluate_sequential(&query, &db_heavy).canonicalized()
    );
}

#[test]
fn oblivious_shares_bound_the_worst_case_and_stay_correct() {
    let query = ConjunctiveQuery::simple_join();
    let m = 1_200;
    let p = 64;
    let db = skewed_star_database(2, m, m / 2, 11);
    let exps = oblivious_share_exponents(&query, &db.sizes_bits(), p);
    let shares = integer_shares(&exps, ShareRounding::GreedyFill);
    let run = run_hypercube_with_shares(&query, &db, p, &shares, 13);
    assert_eq!(
        run.output.canonicalized(),
        evaluate_sequential(&query, &db).canonicalized()
    );
    // The measured load is below the oblivious worst-case guarantee.
    let guarantee = oblivious_worst_case_load(&query, &db.sizes_bits(), &shares);
    assert!((run.metrics.max_load() as f64) <= 4.0 * guarantee);
    // And the standard hash join's load under this much skew is higher.
    let hash = shuffle_hash_join(&query, &db, p, 13);
    assert!(run.metrics.max_load() < hash.metrics.max_load());
}

#[test]
fn skew_aware_star_matches_eq20_within_constants() {
    let query = ConjunctiveQuery::simple_join();
    let m = 6_000;
    let p = 64;
    for heavy in [400usize, 1_200] {
        let db = skewed_star_database(2, m, heavy, 17);
        let run = run_star_skew_aware(&query, &db, p, 19);
        assert_eq!(
            run.output.canonicalized(),
            evaluate_sequential(&query, &db).canonicalized()
        );
        let bits = db.bits_per_value() as f64;
        let hh = heavy as f64 * 2.0 * bits;
        let maps = [
            BTreeMap::from([(0u64, hh)]),
            BTreeMap::from([(0u64, hh)]),
        ];
        let bound =
            star_heavy_hitter_bound(&maps, p).max(db.relation_size_bits("S1") as f64 / p as f64);
        assert!(
            (run.metrics.max_load() as f64) < 10.0 * bound,
            "heavy={heavy}: load {} vs bound {bound}",
            run.metrics.max_load()
        );
    }
}

#[test]
fn theorem_4_4_lower_bound_is_below_the_skew_aware_load() {
    // The lower bound must not exceed what the (near-optimal) algorithm
    // achieves — otherwise one of the two is wrong.
    let query = ConjunctiveQuery::simple_join();
    let m = 4_000;
    let p = 64;
    let db = skewed_star_database(2, m, 1_000, 23);
    let stats = SkewStatistics::compute(&query, &db, &["z".to_string()]);
    let lower = skewed_lower_bound(&query, &stats, p);
    let run = run_star_skew_aware(&query, &db, p, 29);
    assert!(
        lower <= 2.0 * run.metrics.max_load() as f64,
        "lower bound {lower} above measured optimal-ish load {}",
        run.metrics.max_load()
    );
    assert!(lower > 0.0);
}

#[test]
fn heavy_hitter_detection_is_consistent_with_statistics() {
    let query = ConjunctiveQuery::star(3);
    let m = 2_000;
    let heavy = 500;
    let db = skewed_star_database(3, m, heavy, 31);
    let p = 16;
    let statistics = DatabaseStatistics::compute(&db);
    let hh = heavy_hitters_of_variable(&query, &db, &statistics, "z", p as f64);
    assert!(hh.is_heavy(0));
    for j in 1..=3 {
        assert_eq!(hh.frequency(&format!("S{j}"), 0), heavy);
    }
    let all = all_heavy_hitters(&query, &db, &statistics, p as f64);
    assert!(all["z"].is_heavy(0));
    for j in 1..=3 {
        assert!(all[&format!("x{j}")].values.is_empty());
    }
}

#[test]
fn skew_aware_triangle_beats_vanilla_and_matches_oracle_across_hub_sizes() {
    let m = 4_000;
    let p = 64;
    let query = ConjunctiveQuery::triangle();
    for hub in [40usize, 400, 2_000] {
        let db = hub_triangle_database(m, hub, 37);
        let aware = run_triangle_skew_aware(&db, p, 41);
        let oracle = evaluate_sequential(&query, &db);
        assert_eq!(aware.output.canonicalized(), oracle.canonicalized(), "hub={hub}");
        if hub >= 2_000 {
            let vanilla = run_hypercube(&query, &db, p, 41);
            assert!(
                aware.metrics.max_load() < vanilla.metrics.max_load(),
                "hub={hub}: aware {} vs vanilla {}",
                aware.metrics.max_load(),
                vanilla.metrics.max_load()
            );
        }
    }
}
