//! The executor: turn a [`Plan`] into an answer.
//!
//! A plan's [`Strategy`] decides one thing — *where each tuple is sent, in
//! which rounds* — and one `match` on it builds those rounds
//! ([`pq_core::round`]). Everything else is the transport's, and which
//! transport runs is the backend's choice, never the strategy's: the MPC
//! simulator ([`InProcess`], whose per-server local joins run on the
//! `pq-exec` pool) or the worker cluster ([`Workers`], one pooled run per
//! round). So the cluster executes the algorithm the planner chose — the
//! one-round strategies and the §5 multi-round plans alike — with the
//! model account ([`RunMetrics`]) bit-identical to the simulator's. Between
//! the rounds of a multi-round plan the coordinator holds the views, so
//! every round on the wire is a self-contained pool run, retried on its
//! own. Every strategy routes the user's own atoms over the snapshot's
//! relations as stored — the skew-aware ones read the roles of the
//! query's variables from the query itself — so no run copies the data,
//! and every server joins the user's query. The model account charges the
//! relations the query names as the run's input. Answers are returned
//! with columns in the user's head order.
//!
//! Statistics are given, as §4.2 assumes: the skew-aware routers read
//! their heavy hitters from the snapshot's catalogue
//! ([`Snapshot::statistics`], maintained incrementally by the delta path),
//! so no strategy scans the data for statistics at run time.

use crate::backend::{ExecBackend, FallbackPolicy};
use crate::planner::{Plan, Strategy};
use crate::snapshot::Snapshot;
use pq_core::hypercube::HyperCubeRouter;
use pq_core::multiround::plan::execute_plan_on;
use pq_core::round::{in_process, run_single, InProcess, Routing, Transport, Workers};
use pq_core::skew::star::route_star_skew_aware;
use pq_core::skew::triangle::route_triangle_skew_aware;
use pq_mpc::net::ClusterError;
use pq_mpc::RunMetrics;
use pq_obs::MetricsRegistry;
use pq_query::instantiate;
use pq_relation::{Database, Relation};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The result of executing a plan.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The query answer, columns in head order, set semantics: the set
    /// union of the last round's server answers (enforced once, at that
    /// round's merge), with its columns reordered to the head.
    pub output: Relation,
    /// The MPC communication metrics of the run (rounds, loads, bits).
    pub metrics: RunMetrics,
    /// Wall-clock time of the execution (routing + threaded local joins).
    pub wall: Duration,
}

/// Execute `plan` over a database [`Snapshot`] on the in-process simulator.
/// The `seed` selects the hash functions of the HyperCube routers; any
/// value gives a correct answer. Takes the snapshot immutably, so
/// arbitrarily many executions (of the same or different plans) can run
/// concurrently against shared data.
///
/// # Panics
/// Panics when the snapshot no longer matches the plan (relations dropped
/// or re-shaped since planning); the engine re-plans on any statistics
/// change, so this indicates misuse of the raw executor API.
pub fn run_plan(plan: &Plan, snapshot: &Snapshot, seed: u64) -> RunOutcome {
    in_process(run_plan_with(plan, snapshot, seed, |data| InProcess::new(plan.p, &plan.parsed.query, data)))
}

/// Execute `plan` on the chosen backend: [`run_plan`] on the simulator, or
/// the same rounds over real worker processes for
/// [`ExecBackend::Cluster`], with the rounds additionally recorded into
/// `registry` when one is given (see
/// [`pq_mpc::net::WorkerPool::execute_folded`]; the simulator path records
/// nothing here, the engine layers account it from the returned
/// [`RunOutcome`]). The simulator path is infallible; only the cluster can
/// error (a worker died, timed out, or broke protocol), and under
/// [`FallbackPolicy::Simulator`] even that is served — exactly, marked
/// `degraded` — by the simulator.
///
/// # Errors
/// A [`ClusterError`] naming the failing worker.
///
/// # Panics
/// As [`run_plan`], when the snapshot no longer matches the plan.
pub fn run_plan_on(
    plan: &Plan,
    snapshot: &Snapshot,
    seed: u64,
    backend: &ExecBackend,
    registry: Option<&Arc<MetricsRegistry>>,
) -> Result<RunOutcome, ClusterError> {
    let ExecBackend::Cluster { pool, fallback } = backend else {
        return Ok(run_plan(plan, snapshot, seed));
    };
    let workers = |data: &Database| Workers::new(pool, registry, plan.p, &plan.parsed.query, data);
    match (run_plan_with(plan, snapshot, seed, workers), fallback) {
        (Err(_), FallbackPolicy::Simulator) => {
            // Graceful degradation: the cluster stayed unhealthy past its
            // whole retry budget, so serve the exact answer from the
            // simulator and mark the run degraded (only the measured wire
            // accounting is lost).
            if let Some(registry) = registry.filter(|r| r.is_enabled()) {
                registry
                    .counter(
                        "pq_cluster_degraded_total",
                        &[],
                        "Runs served by the simulator fallback after the cluster \
                         failed past its retry budget",
                    )
                    .inc();
            }
            let mut outcome = run_plan(plan, snapshot, seed);
            outcome.metrics.degraded = true;
            Ok(outcome)
        }
        (result, _) => result,
    }
}

/// Run `plan` on the transport `transport` opens over the snapshot's
/// database: what [`run_plan`] and [`run_plan_on`] do with their own
/// transports, open to any other [`Transport`]. The one `match` on the
/// strategy builds the rounds: where each tuple goes. On the wire every round is
/// asked for its shipment again per retry attempt, over the immutable
/// snapshot (and the views the coordinator holds) for that attempt's live
/// worker count — which is what makes the pool's automatic retry of a
/// failed round on a reduced topology safe (see [`pq_mpc::net::pool`]).
///
/// # Errors
/// Whatever the transport's rounds fail with.
///
/// # Panics
/// As [`run_plan`], when the snapshot no longer matches the plan.
pub fn run_plan_with<T: Transport>(
    plan: &Plan,
    snapshot: &Snapshot,
    seed: u64,
    transport: impl Fn(&Database) -> T,
) -> Result<RunOutcome, T::Error> {
    let (database, statistics) = (snapshot.database(), snapshot.statistics());
    let query = &plan.parsed.query;
    let p = plan.p;
    let start = Instant::now();
    let (raw, metrics) = match &plan.strategy {
        Strategy::HyperCube { shares } => {
            let router = HyperCubeRouter::new(query, shares, seed, 0, 0);
            let routing = Routing::grid(router, instantiate(query, database));
            run_single(transport(database), query, routing)?
        }
        Strategy::SkewAwareStar => {
            let messages = route_star_skew_aware(query, database, statistics, p, seed).0;
            run_single(transport(database), query, Routing::Messages(messages))?
        }
        Strategy::SkewAwareTriangle => {
            let messages = route_triangle_skew_aware(query, database, statistics, p, seed).0;
            run_single(transport(database), query, Routing::Messages(messages))?
        }
        Strategy::MultiRound { plan: node, .. } => {
            let run = execute_plan_on(node, query, database, seed, &mut transport(database))?;
            (run.output, run.metrics)
        }
    };
    // A round's answer is a set over the query's variables, and a full
    // query's head is a permutation of them (the parser rejects a head that
    // drops or repeats one; `project` panics on one it does not bind):
    // projecting onto it reorders columns, so the output is a set as is.
    debug_assert_eq!(plan.parsed.head.len(), raw.arity(), "the head binds every variable");
    let output = raw.project(&plan.parsed.head, query.name());
    Ok(RunOutcome {
        output,
        metrics,
        wall: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::planner::plan_query;
    use pq_query::{evaluate_sequential, ConjunctiveQuery};
    use pq_relation::{DataGenerator, Schema, Tuple};

    fn matching_db(query: &ConjunctiveQuery, m: usize, seed: u64) -> Database {
        let domain = ((m as u64) * 64).max(1 << 12);
        let mut gen = DataGenerator::new(seed, domain);
        let specs: Vec<(Schema, usize)> = query
            .atoms()
            .iter()
            .map(|a| {
                let cols: Vec<String> = (0..a.arity()).map(|i| format!("c{i}")).collect();
                (Schema::new(a.relation(), cols), m)
            })
            .collect();
        gen.matching_database(&specs)
    }

    fn oracle(plan: &Plan, db: &Database) -> Relation {
        let mut o = evaluate_sequential(&plan.parsed.query, db)
            .project(&plan.parsed.head, plan.parsed.query.name());
        o.dedup();
        o.canonicalized()
    }

    #[test]
    fn hypercube_strategy_matches_oracle_in_head_order() {
        // Head order (z, x, y) differs from body first-occurrence (x, y, z).
        let parsed = parse_query("Q(z, x, y) :- R(x, y), S(y, z)").unwrap();
        let db = matching_db(&parsed.query, 300, 5);
        let plan = plan_query(&parsed, &db, 16).unwrap();
        let run = run_plan(&plan, &Snapshot::new(db.clone()), 3);
        assert_eq!(run.output.schema().attributes(), &["z", "x", "y"]);
        assert_eq!(run.output.canonicalized(), oracle(&plan, &db));
        assert_eq!(run.metrics.num_rounds(), 1);
    }

    #[test]
    fn skewed_triangle_with_renamed_variables_matches_oracle() {
        let parsed = parse_query("Q(c, a, b) :- R(a, b), S(c, b), T(c, a)").unwrap();
        let mut db = matching_db(&parsed.query, 300, 9);
        for i in 0..120u64 {
            db.relation_mut("R").unwrap().push(Tuple::from([0, 500_000 + i]));
            db.relation_mut("T").unwrap().push(Tuple::from([600_000 + i, 0]));
        }
        let plan = plan_query(&parsed, &db, 16).unwrap();
        assert!(
            plan.strategy == Strategy::SkewAwareTriangle,
            "got {}",
            plan.strategy.name()
        );
        let run = run_plan(&plan, &Snapshot::new(db.clone()), 11);
        assert_eq!(run.output.canonicalized(), oracle(&plan, &db));
        assert_eq!(run.metrics.num_rounds(), 1);
    }

    #[test]
    fn skewed_star_matches_oracle() {
        let parsed = parse_query("Q(z, a, b) :- R(z, a), S(z, b)").unwrap();
        let mut db = matching_db(&parsed.query, 300, 13);
        for i in 0..100u64 {
            db.relation_mut("R").unwrap().push(Tuple::from([5, 700_000 + i]));
            db.relation_mut("S").unwrap().push(Tuple::from([5, 800_000 + i]));
        }
        let plan = plan_query(&parsed, &db, 16).unwrap();
        assert_eq!(plan.strategy, Strategy::SkewAwareStar);
        let run = run_plan(&plan, &Snapshot::new(db.clone()), 17);
        assert_eq!(run.output.canonicalized(), oracle(&plan, &db));
    }

    #[test]
    fn multi_round_chain_matches_oracle() {
        let parsed = parse_query("Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)").unwrap();
        let db = matching_db(&parsed.query, 1_500, 21);
        let plan = plan_query(&parsed, &db, 64).unwrap();
        assert!(matches!(plan.strategy, Strategy::MultiRound { .. }));
        let run = run_plan(&plan, &Snapshot::new(db.clone()), 23);
        assert_eq!(run.output.canonicalized(), oracle(&plan, &db));
        assert_eq!(run.metrics.num_rounds(), 2);
    }

    #[test]
    fn cluster_backend_matches_the_simulator_run_for_run() {
        let parsed = parse_query("Q(z, x, y) :- R(x, y), S(y, z)").unwrap();
        let db = matching_db(&parsed.query, 200, 5);
        let plan = plan_query(&parsed, &db, 4).unwrap();
        assert!(matches!(plan.strategy, Strategy::HyperCube { .. }));
        let snapshot = Snapshot::new(db);
        let sim = run_plan(&plan, &snapshot, 3);

        let workers = pq_mpc::net::LocalWorkers::spawn(2).unwrap();
        let backend = ExecBackend::cluster(pq_mpc::net::ClusterConfig::new(
            workers.addresses().to_vec(),
        ));
        let run = run_plan_on(&plan, &snapshot, 3, &backend, None).unwrap();
        assert_eq!(run.output.canonicalized(), sim.output.canonicalized());
        // Same router, same seed: the model account is bit-identical to the
        // simulator's, while the wire account is real and nonzero.
        assert_eq!(
            run.metrics.rounds[0].received_bits,
            sim.metrics.rounds[0].received_bits
        );
        assert!(run.metrics.is_measured());
        assert!(!run.metrics.degraded);
        assert!(!sim.metrics.is_measured());
        workers.shutdown();
    }

    #[test]
    fn a_two_block_round_on_workers_does_not_wait_for_a_delayed_ack() {
        // The 4-chain plans as a bushy plan whose first round joins two
        // operators on two server blocks, so each worker answers that round
        // with two frames back to back. Without TCP_NODELAY on the worker's
        // socket the second one waits for the coordinator's delayed ACK
        // (≥ 40 ms on Linux loopback); a run of this size takes ~1 ms.
        let parsed = parse_query("Q(a, b, c, d, e) :- R(a, b), S(b, c), T(c, d), U(d, e)").unwrap();
        let db = matching_db(&parsed.query, 200, 31);
        let plan = plan_query(&parsed, &db, 64).unwrap();
        let Strategy::MultiRound { plan: node, .. } = &plan.strategy else {
            panic!("expected a bushy plan, got {}", plan.strategy.name());
        };
        assert_eq!(pq_core::multiround::plan::nodes_at_depth(node, 1).len(), 2);
        let snapshot = Snapshot::new(db.clone());
        let workers = pq_mpc::net::LocalWorkers::spawn(2).unwrap();
        let backend = ExecBackend::cluster(pq_mpc::net::ClusterConfig::new(
            workers.addresses().to_vec(),
        ));
        let run = run_plan_on(&plan, &snapshot, 5, &backend, None).unwrap();
        assert_eq!(run.output.canonicalized(), oracle(&plan, &db));
        let mut walls: Vec<Duration> = (0..9)
            .map(|_| {
                run_plan_on(&plan, &snapshot, 5, &backend, None)
                    .unwrap()
                    .wall
            })
            .collect();
        walls.sort();
        assert!(
            walls[4] < Duration::from_millis(20),
            "median of 9 warm runs {:?}: a worker's answers stall",
            walls[4]
        );
        workers.shutdown();
    }

    #[test]
    fn an_unreachable_cluster_degrades_to_the_simulator_when_asked() {
        use pq_mpc::net::{ClusterConfig, RetryPolicy};
        let parsed = parse_query("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let db = matching_db(&parsed.query, 100, 5);
        let plan = plan_query(&parsed, &db, 4).unwrap();
        let snapshot = Snapshot::new(db);
        // Bind-then-drop: the address is reliably dead.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let config = ClusterConfig::new(vec![dead]).with_retry(RetryPolicy {
            retries: 1,
            base: std::time::Duration::from_millis(1),
            cap: std::time::Duration::from_millis(1),
        });

        // Default policy: the failure surfaces.
        let strict = ExecBackend::cluster(config.clone());
        assert!(run_plan_on(&plan, &snapshot, 3, &strict, None).is_err());

        // Fallback policy: the run succeeds on the simulator, marked
        // degraded, answers identical to a plain simulator run.
        let graceful =
            ExecBackend::cluster_with_fallback(config, crate::backend::FallbackPolicy::Simulator);
        let run = run_plan_on(&plan, &snapshot, 3, &graceful, None).unwrap();
        assert!(run.metrics.degraded);
        assert!(!run.metrics.is_measured(), "the fallback has no wire");
        let sim = run_plan(&plan, &snapshot, 3);
        assert_eq!(run.output.canonicalized(), sim.output.canonicalized());
    }

    #[test]
    fn cartesian_product_query_executes() {
        let parsed = parse_query("Q(x, y) :- R(x), S(y)").unwrap();
        let mut db = Database::new(64);
        db.insert(Relation::from_rows(
            Schema::from_strs("R", &["a"]),
            vec![vec![1], vec![2]],
        ));
        db.insert(Relation::from_rows(
            Schema::from_strs("S", &["a"]),
            vec![vec![7], vec![8], vec![9]],
        ));
        let plan = plan_query(&parsed, &db, 4).unwrap();
        let run = run_plan(&plan, &Snapshot::new(db.clone()), 1);
        assert_eq!(run.output.len(), 6);
    }
}
