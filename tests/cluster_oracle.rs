//! Distributed-vs-simulator oracle: the cluster backend (real `pqd`-style
//! worker threads behind TCP sockets) must return exactly the rows of the
//! in-process simulator — which the `engine_oracle` suite already holds to
//! the sequential `natural_join_all` oracle — for random databases, a
//! suite of query shapes, and `p` both above and below the worker count.
//!
//! Beyond row-for-row equality the suite checks the two cost accounts:
//! the cluster's *model* account (`received_bits`, `messages`) must be
//! bit-identical to the simulator's for every one-round strategy —
//! HyperCube, skew-aware star, skew-aware triangle: the cluster runs the
//! algorithm the planner chose, same router, same seed — on *any* worker
//! count (a multi-round plan runs as one-round HyperCube there), while the
//! *measured* wire bytes track the worker-granular shipping — every input
//! tuple reaches at least one worker (so the wire carries at least the
//! input), and no tuple reaches a worker twice (so it carries at most the
//! smaller of the model's replication and `workers` copies of the input,
//! at 64 bits a value, plus bounded framing overhead).

use pq_bench::matching_database_for_query;
use pq_core::hypercube::run_hypercube_with_shares;
use pq_core::skew::star::run_star_skew_aware;
use pq_engine::{Engine, ExecBackend, Strategy};
use pq_mpc::net::{ClusterConfig, LocalWorkers};
use pq_query::{evaluate_sequential, instantiate, ConjunctiveQuery};
use pq_relation::{Database, Relation, Schema, Tuple};
use proptest::prelude::*;

/// The query shapes under test: the triangle and star that the paper's
/// one-round algorithms target, a longer chain whose simulator plan may go
/// multi-round (exercising the cluster's one-round HyperCube fallback), and
/// the disconnected Cartesian pair.
fn query_suite() -> Vec<ConjunctiveQuery> {
    vec![
        ConjunctiveQuery::triangle(),
        ConjunctiveQuery::chain(4),
        ConjunctiveQuery::star(3),
        ConjunctiveQuery::cartesian_pair(),
    ]
}

/// A matching database for the query; with `skew`, every relation gets a
/// heavy hitter (value 0) in its first column so the planner picks the
/// skew-aware strategies, which both backends then run.
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

/// Run `query` on `db` with budget `p` on both backends over `workers`
/// live worker threads, assert row-for-row equality against the
/// sequential oracle and both cost-account relations, and return the
/// simulator strategy that was exercised.
fn assert_cluster_matches_simulator(
    query: &ConjunctiveQuery,
    db: &Database,
    p: usize,
    workers: usize,
) -> &'static str {
    let cluster = LocalWorkers::spawn(workers).expect("spawn local workers");
    let config = ClusterConfig::new(cluster.addresses().to_vec());

    let oracle = evaluate_sequential(query, db).canonicalized();
    let sim = Engine::new(db.clone(), p)
        .session()
        .run(&query.to_string())
        .expect("simulator run");
    let run = Engine::new(db.clone(), p)
        .with_backend(ExecBackend::cluster(config))
        .session()
        .run(&query.to_string())
        .expect("cluster run");

    assert_eq!(
        run.outcome.output.canonicalized(),
        oracle,
        "cluster disagrees with the sequential oracle on {} (p = {p}, workers = {workers})",
        query.name()
    );
    assert_eq!(
        run.outcome.output.canonicalized(),
        sim.outcome.output.canonicalized(),
        "cluster disagrees with the simulator on {} (p = {p}, workers = {workers})",
        query.name()
    );

    // Measured-vs-model accounting. The cluster executes exactly one
    // shuffle round; unless the join was empty on every worker, real
    // traffic crossed the wire.
    let metrics = &run.outcome.metrics;
    assert_eq!(metrics.num_rounds(), 1, "cluster plans are one-round");
    assert!(
        metrics.is_measured(),
        "cluster runs must carry measured wire bytes"
    );
    let round = &metrics.rounds[0];
    assert_eq!(round.received_bits.len(), p, "model account is per logical server");
    assert_eq!(round.wire_bytes.len(), workers, "wire account is per worker");
    assert!(round.wall_micros > 0, "round wall time is measured");

    // Lower bound: every tuple of every atom reaches at least one worker,
    // as 64-bit words, and the model charges `bits_per_value <= 64` bits a
    // value. (Model bits are *not* a lower bound: a worker hosting several
    // of a tuple's logical servers receives it once.)
    let bits_per_value = db.bits_per_value().max(1);
    let bound = instantiate(query, db);
    let input_values: u64 = bound.iter().map(|r| (r.arity() * r.len()) as u64).sum();
    assert!(
        round.total_wire_bytes() * 8 >= input_values * bits_per_value,
        "wire bytes ({}) cannot undercut the {} input values",
        round.total_wire_bytes(),
        input_values
    );
    // Upper bound: a tuple crosses a worker's socket at most once, so the
    // wire carries at most one 64-bit copy per model delivery and at most
    // `workers` copies of the input, plus a generous allowance for the
    // headers and schemas of at most one fragment frame per (worker, atom)
    // and an Execute program per worker.
    let model_values = round.total_bits() / bits_per_value;
    let values_shipped = model_values.min(input_values * workers as u64);
    let overhead_bytes = (workers * bound.len() * 512 + workers * 2048) as u64;
    assert!(
        round.total_wire_bytes() <= values_shipped * 8 + overhead_bytes,
        "wire bytes ({}) exceed 8 bytes/value on {} shipped values plus framing",
        round.total_wire_bytes(),
        values_shipped
    );

    // Model-account parity: for every one-round strategy both backends
    // routed the same messages with the same seed, so the per-logical-
    // server bit counts (statistics broadcasts included) must be identical.
    if !matches!(sim.plan.strategy, Strategy::MultiRound { .. }) {
        let simulated = &sim.outcome.metrics.rounds[0];
        assert_eq!(
            round.received_bits, simulated.received_bits,
            "cluster model bits must match the simulator bit-for-bit on {} ({workers} workers)",
            query.name()
        );
        assert_eq!(round.messages, simulated.messages);
    }

    // The simulator, by contrast, must never claim measured traffic.
    assert!(!sim.outcome.metrics.is_measured());

    cluster.shutdown();
    sim.plan.strategy.name()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The headline oracle: random databases x query suite x p in
    // {2, 4, 8}, over 1 worker (everything folds onto it), 2, worker
    // counts that do not divide the share grid (3, 5), and more workers
    // than grid points (11: some stay idle).
    #[test]
    fn cluster_matches_simulator_on_random_databases(
        seed in 0u64..1000,
        m in 20usize..60,
        p_choice in 0usize..3,
        workers_choice in 0usize..5,
        skew in any::<bool>(),
    ) {
        let p = [2, 4, 8][p_choice];
        let workers = [1, 2, 3, 5, 11][workers_choice];
        for query in query_suite() {
            let db = database_for(&query, m, seed, skew);
            assert_cluster_matches_simulator(&query, &db, p, workers);
        }
    }
}

#[test]
fn skew_aware_triangle_plans_run_as_planned_on_the_cluster() {
    // The planner picks the skew-aware triangle for this database; the
    // helper holds the cluster to the simulator's rows *and* model account
    // on every worker count.
    let query = ConjunctiveQuery::triangle();
    let db = database_for(&query, 300, 41, true);
    for workers in [1, 2, 3, 5, 11] {
        let strategy = assert_cluster_matches_simulator(&query, &db, 16, workers);
        assert_eq!(strategy, "skew-aware triangle");
    }
}

#[test]
fn the_skewed_star_keeps_its_eq_20_load_on_the_cluster() {
    // Example 4.1's shape: a quarter of each relation shares one join value.
    // Plain HyperCube with the plan's LP shares — what the cluster ran
    // before it honoured the strategy — piles that value onto one server;
    // the skew-aware star spreads its residual product over a block, and
    // the cluster must now report exactly the simulator star's load.
    let query = ConjunctiveQuery::simple_join();
    let (m, heavy, p) = (800u64, 200u64, 16);
    let mut db = matching_database_for_query(&query, (m - heavy) as usize, 23);
    let domain = db.domain_size();
    for (j, atom) in query.atoms().iter().enumerate() {
        let rel = db.relation_mut(atom.relation()).expect("relation exists");
        for i in 0..heavy {
            rel.push(Tuple::new(vec![0, domain - 1 - (j as u64 * heavy + i)]));
        }
    }
    for workers in [1, 2, 5, 11] {
        let strategy = assert_cluster_matches_simulator(&query, &db, p, workers);
        assert_eq!(strategy, "skew-aware star");
    }
    let cluster = LocalWorkers::spawn(3).expect("spawn local workers");
    let config = ClusterConfig::new(cluster.addresses().to_vec());
    let session = Engine::new(db.clone(), p)
        .with_backend(ExecBackend::cluster(config))
        .session();
    let run = session.run(&query.to_string()).expect("cluster run");
    assert_eq!(run.plan.strategy.name(), "skew-aware star");
    assert!(run.outcome.metrics.is_measured());

    let seed = session.seed();
    let star = run_star_skew_aware(&query, &db, p, seed).metrics.max_load();
    let hypercube = run_hypercube_with_shares(&query, &db, p, &run.plan.shares, seed)
        .metrics
        .max_load();
    assert_eq!(run.outcome.metrics.max_load(), star);
    assert!(star < hypercube, "star {star} must beat HyperCube {hypercube}");
    cluster.shutdown();
}

#[test]
fn multi_round_simulator_plans_fall_back_to_hypercube_on_the_cluster() {
    let query = ConjunctiveQuery::chain(3);
    let db = database_for(&query, 1_200, 47, false);
    let strategy = assert_cluster_matches_simulator(&query, &db, 64, 3);
    assert_eq!(strategy, "multi-round bushy plan");
}

#[test]
fn a_single_worker_carries_every_logical_server() {
    let query = ConjunctiveQuery::triangle();
    let db = database_for(&query, 80, 11, false);
    assert_cluster_matches_simulator(&query, &db, 8, 1);
}

#[test]
fn the_model_account_is_the_simulators_on_every_worker_count() {
    // One plan (triangle, p = 27, shares 3x3x3) over 1 worker, 2, counts
    // that do not divide the grid, and more workers than grid points: the
    // helper asserts `received_bits` and `messages` against the simulator
    // for each, while the wire bounds move with the worker count.
    let query = ConjunctiveQuery::triangle();
    let db = database_for(&query, 200, 23, false);
    for workers in [1, 2, 3, 5, 30] {
        let strategy = assert_cluster_matches_simulator(&query, &db, 27, workers);
        assert_eq!(strategy, "one-round HyperCube");
    }
}

#[test]
fn an_empty_database_yields_an_empty_answer_without_hanging() {
    let query = ConjunctiveQuery::triangle();
    let empty = Database::from_relations(
        query
            .atoms()
            .iter()
            .map(|a| {
                let cols: Vec<String> = (0..a.arity()).map(|i| format!("c{i}")).collect();
                Relation::empty(Schema::new(a.relation(), cols))
            })
            .collect(),
    );
    let cluster = LocalWorkers::spawn(2).expect("spawn local workers");
    let config = ClusterConfig::new(cluster.addresses().to_vec());
    let run = Engine::new(empty, 4)
        .with_backend(ExecBackend::cluster(config))
        .session()
        .run(&query.to_string())
        .expect("cluster run");
    assert_eq!(run.outcome.output.len(), 0);
    // No fragments crossed the wire, but every worker still received its
    // Execute frame — the round is measured even when the data is empty.
    assert!(run.outcome.metrics.is_measured());
    cluster.shutdown();
}
