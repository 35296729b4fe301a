//! Distributed-vs-simulator oracle, the first slice of the differential
//! matrix: the cluster backend (real `pqd`-style worker threads behind TCP
//! sockets) must return exactly the rows of the in-process simulator and of
//! the sequential oracle (`pq_core::baselines::oracle`) for every strategy
//! — HyperCube, skew-aware star, skew-aware triangle and the §5
//! multi-round plans — on worker counts {1, 2, 3, 5, 11} and engine pool
//! sizes {1, 2, 8}, for random databases, a suite of query shapes, and `p`
//! both above and below the worker count.
//!
//! Beyond row-for-row equality the suite checks the two cost accounts,
//! round by round. The cluster's *model* account (`received_bits`,
//! `messages`) must be bit-identical to the simulator's for every strategy:
//! the cluster runs the rounds the planner chose, same routers, same seed,
//! and between the rounds of a multi-round plan the coordinator holds the
//! same views the simulator computed. The *measured* wire bytes track the
//! worker-granular shipping: every tuple of a round's inputs reaches at
//! least one worker (so the wire carries at least those inputs), and no
//! tuple reaches a worker twice (so it carries at most the smaller of the
//! model's replication and `workers` copies of the inputs, at 64 bits a
//! value, plus bounded framing overhead).

use pq_bench::matching_database_for_query;
use pq_core::baselines::oracle;
use pq_core::hypercube::run_hypercube_with_shares;
use pq_core::multiround::plan::nodes_at_depth;
use pq_core::skew::star::run_star_skew_aware;
use pq_engine::{Engine, ExecBackend, Strategy};
use pq_mpc::net::{ClusterConfig, LocalWorkers};
use pq_query::{evaluate_sequential, instantiate, ConjunctiveQuery};
use pq_relation::{Database, Relation, Schema, Tuple};
use proptest::prelude::*;

/// The query shapes under test: the triangle and star that the paper's
/// one-round algorithms target, a longer chain whose plan may go
/// multi-round, and the disconnected Cartesian pair.
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

/// Per round, the relations it routes: the bound atoms for a one-round
/// strategy; for a multi-round plan, each operator's children — a base
/// atom, or the view of a sub-plan, which is the join of its atoms.
fn round_inputs(
    query: &ConjunctiveQuery,
    db: &Database,
    strategy: &Strategy,
) -> Vec<(Vec<Relation>, usize)> {
    let Strategy::MultiRound { plan, .. } = strategy else {
        return vec![(instantiate(query, db), 1)];
    };
    (1..=plan.depth())
        .map(|depth| {
            let nodes = nodes_at_depth(plan, depth);
            let inputs = nodes
                .iter()
                .flat_map(|node| match node {
                    pq_core::multiround::plan::PlanNode::Join { children, .. } => children.iter(),
                    _ => unreachable!("operators are joins"),
                })
                .map(|child| {
                    let bases = child.base_relations();
                    let atoms = query
                        .atoms()
                        .iter()
                        .filter(|atom| bases.contains(&atom.relation().to_string()))
                        .cloned()
                        .collect();
                    evaluate_sequential(&ConjunctiveQuery::new(child.output_name(), atoms), db)
                })
                .collect();
            (inputs, nodes.len())
        })
        .collect()
}

/// Run `query` on `db` with budget `p` on both backends — engine pools of
/// `threads` executors, the cluster over `workers` live worker threads —
/// assert row-for-row equality against the sequential oracle and both
/// cost-account relations in every round, and return the simulator
/// strategy that was exercised.
fn assert_cluster_matches_simulator(
    query: &ConjunctiveQuery,
    db: &Database,
    p: usize,
    workers: usize,
    threads: usize,
) -> &'static str {
    let cluster = LocalWorkers::spawn(workers).expect("spawn local workers");
    let config = ClusterConfig::new(cluster.addresses().to_vec());
    let context = format!("{} (p = {p}, workers = {workers}, threads = {threads})", query.name());

    let expected = oracle(query, db).canonicalized();
    let sim = Engine::new(db.clone(), p)
        .with_threads(threads)
        .session()
        .run(&query.to_string())
        .expect("simulator run");
    let run = Engine::new(db.clone(), p)
        .with_threads(threads)
        .with_backend(ExecBackend::cluster(config))
        .session()
        .run(&query.to_string())
        .expect("cluster run");

    assert_eq!(sim.outcome.output.canonicalized(), expected, "simulator vs oracle on {context}");
    assert_eq!(run.outcome.output.canonicalized(), expected, "cluster vs oracle on {context}");

    // The cluster runs the simulator's rounds: a multi-round plan reports
    // its depth, and every round carries measured traffic.
    let metrics = &run.outcome.metrics;
    let simulated = &sim.outcome.metrics;
    if let Strategy::MultiRound { plan, .. } = &sim.plan.strategy {
        assert_eq!(metrics.num_rounds(), plan.depth(), "{context}");
    }
    assert_eq!(metrics.num_rounds(), simulated.num_rounds(), "{context}");
    assert!(metrics.is_measured(), "cluster runs carry measured wire bytes");
    let bits_per_value = db.bits_per_value().max(1);
    let inputs = round_inputs(query, db, &sim.plan.strategy);
    let rounds = metrics.rounds.iter().zip(&simulated.rounds);
    for ((round, simulated), (inputs, blocks)) in rounds.zip(inputs) {
        let at = format!("{context}, round {}", round.round);
        // Model-account parity: both backends routed the same messages with
        // the same seed, so the per-logical-server bit counts (statistics
        // broadcasts included) are identical.
        assert_eq!(round.received_bits, simulated.received_bits, "model bits on {at}");
        assert_eq!(round.messages, simulated.messages, "messages on {at}");
        assert_eq!(round.received_bits.len(), p, "model account is per logical server");
        assert_eq!(round.wire_bytes.len(), workers, "wire account is per worker");
        assert!(round.wall_micros > 0, "round wall time is measured");

        // Lower bound: every tuple of every input reaches at least one
        // worker, as 64-bit words, and the model charges `bits_per_value <=
        // 64` bits a value. (Model bits are *not* a lower bound: a worker
        // hosting several of a tuple's logical servers receives it once.)
        let input_values: u64 = inputs.iter().map(|r| (r.arity() * r.len()) as u64).sum();
        assert!(
            round.total_wire_bytes() * 8 >= input_values * bits_per_value,
            "wire bytes ({}) cannot undercut the {input_values} input values on {at}",
            round.total_wire_bytes(),
        );
        // Upper bound: a tuple crosses a worker's socket at most once, so
        // the wire carries at most one 64-bit copy per model delivery and
        // at most `workers` copies of the inputs, plus a generous allowance
        // for the headers and schemas of at most one fragment frame per
        // (worker, input) and an Execute program per (worker, block).
        let model_values = round.total_bits() / bits_per_value;
        let values_shipped = model_values.min(input_values * workers as u64);
        let overhead_bytes = (workers * inputs.len() * 512 + workers * blocks * 2048) as u64;
        assert!(
            round.total_wire_bytes() <= values_shipped * 8 + overhead_bytes,
            "wire bytes ({}) exceed 8 bytes/value on {values_shipped} shipped values \
             plus framing on {at}",
            round.total_wire_bytes(),
        );
    }

    // The simulator, by contrast, must never claim measured traffic.
    assert!(!simulated.is_measured());

    cluster.shutdown();
    sim.plan.strategy.name()
}

/// Worker counts under test: 1 (everything folds onto it), 2, counts that
/// do not divide the share grids (3, 5), and more workers than some grids
/// have points (11: some stay idle).
const WORKERS: [usize; 5] = [1, 2, 3, 5, 11];

/// Engine executor pool sizes under test.
const THREADS: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The headline oracle: random databases x query suite x p in
    // {2, 4, 8} x worker counts x engine pool sizes.
    #[test]
    fn cluster_matches_simulator_on_random_databases(
        seed in 0u64..1000,
        m in 20usize..60,
        p_choice in 0usize..3,
        workers_choice in 0usize..5,
        threads_choice in 0usize..3,
        skew in any::<bool>(),
    ) {
        let p = [2, 4, 8][p_choice];
        for query in query_suite() {
            let db = database_for(&query, m, seed, skew);
            assert_cluster_matches_simulator(
                &query, &db, p, WORKERS[workers_choice], THREADS[threads_choice],
            );
        }
    }
}

/// One fixture per strategy: the full matrix of worker counts and engine
/// pool sizes, each cell held to the oracle's rows and the simulator's
/// model account in every round.
#[test]
fn every_strategy_runs_as_planned_on_every_worker_count_and_pool_size() {
    let triangle = ConjunctiveQuery::triangle();
    let star = ConjunctiveQuery::star(3);
    let chain = ConjunctiveQuery::chain(3);
    let fixtures = [
        (&triangle, database_for(&triangle, 200, 23, false), 27, "one-round HyperCube"),
        (&star, database_for(&star, 160, 43, true), 16, "skew-aware star"),
        (&triangle, database_for(&triangle, 300, 41, true), 16, "skew-aware triangle"),
        (&chain, database_for(&chain, 1_200, 47, false), 64, "multi-round bushy plan"),
    ];
    for (query, db, p, expected) in &fixtures {
        for workers in WORKERS {
            for threads in THREADS {
                let strategy = assert_cluster_matches_simulator(query, db, *p, workers, threads);
                assert_eq!(strategy, *expected);
            }
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
    for workers in WORKERS {
        let strategy = assert_cluster_matches_simulator(&query, &db, 16, workers, 2);
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
        let strategy = assert_cluster_matches_simulator(&query, &db, p, workers, 2);
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
fn multi_round_plans_run_as_planned_on_the_cluster() {
    // A §5 bushy plan for L_3 at p = 64: two rounds on the wire, the views
    // of round 1 held by the coordinator and routed again in round 2, with
    // the simulator's model account in both, on every worker count.
    let query = ConjunctiveQuery::chain(3);
    let db = database_for(&query, 1_200, 47, false);
    for workers in WORKERS {
        let strategy = assert_cluster_matches_simulator(&query, &db, 64, workers, 2);
        assert_eq!(strategy, "multi-round bushy plan");
    }
}

#[test]
fn a_single_worker_carries_every_logical_server() {
    let query = ConjunctiveQuery::triangle();
    let db = database_for(&query, 80, 11, false);
    assert_cluster_matches_simulator(&query, &db, 8, 1, 2);
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
        let strategy = assert_cluster_matches_simulator(&query, &db, 27, workers, 2);
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
