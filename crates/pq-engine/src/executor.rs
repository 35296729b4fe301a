//! The executor: turn a [`Plan`] into an answer.
//!
//! A plan's [`Strategy`] decides one thing — *where each tuple is sent* —
//! and one `match` on it yields that round's router. Everything after the
//! shuffle is shared: the in-process transport is
//! [`pq_core::hypercube::run_one_round`] (the MPC simulator, whose
//! per-server local joins run on the `pq-exec` pool), the TCP transport is
//! [`WorkerPool`], and which one runs is the backend's choice, never the
//! strategy's. So the worker cluster executes the algorithm the planner
//! chose for every one-round strategy, with the model account
//! ([`RunMetrics`]) bit-identical to the simulator's; only a
//! [`Strategy::MultiRound`] plan, which the wire cannot run yet, degrades
//! there to one-round HyperCube with the plan's LP shares. Answers are
//! returned with columns in the user's head order, whatever variable order
//! the underlying algorithm produced.
//!
//! Statistics are given, as §4.2 assumes: the skew-aware routers read
//! their heavy hitters from the snapshot's catalogue
//! ([`Snapshot::statistics`], maintained incrementally by the delta path),
//! so no strategy scans the data for statistics at run time.

use crate::backend::{ExecBackend, FallbackPolicy};
use crate::planner::{Plan, Strategy};
use crate::snapshot::Snapshot;
use pq_core::hypercube::{route_hypercube, run_one_round, HyperCubeRouter};
use pq_core::multiround::plan::execute_plan as execute_multiround;
use pq_core::skew::star::route_star_skew_aware;
use pq_core::skew::triangle::route_triangle_skew_aware;
use pq_mpc::net::{AtomSpec, ClusterError, RoundProgram, WorkerPool};
use pq_mpc::{Message, RunMetrics};
use pq_obs::MetricsRegistry;
use pq_query::{bind_atom, instantiate, ConjunctiveQuery};
use pq_relation::{Database, DatabaseStatistics, Relation};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The result of executing a plan.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The query answer, columns in head order, set semantics.
    pub output: Relation,
    /// The MPC communication metrics of the run (rounds, loads, bits).
    pub metrics: RunMetrics,
    /// Wall-clock time of the execution (routing + threaded local joins).
    pub wall: Duration,
}

/// Where a strategy sends each tuple of its one round.
enum Router<'a> {
    /// The HyperCube grid with these shares: per logical server in process
    /// ([`route_hypercube`]), folded per worker *while* routing on the wire
    /// ([`HyperCubeRouter::route_folded`]).
    Grid(&'a BTreeMap<String, usize>),
    /// Ready-made per-logical-server messages; the wire folds them
    /// set-wise ([`pq_mpc::net::Shipment::from_messages`]).
    Messages(Box<dyn Fn() -> Vec<Message> + 'a>),
}

/// The pool of a cluster backend and the registry its rounds are recorded
/// into; `None` runs in process.
type Wire<'a> = Option<(&'a WorkerPool, Option<&'a Arc<MetricsRegistry>>)>;

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
    execute(plan, snapshot, seed, None).expect("the in-process transport cannot fail")
}

/// Execute `plan` on the chosen backend: [`run_plan`] on the simulator, or
/// the same strategy's round over real worker processes for
/// [`ExecBackend::Cluster`], with the rounds additionally recorded into
/// `registry` when one is given (see
/// [`pq_mpc::net::Coordinator::set_registry`]; the simulator path records
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
    match (execute(plan, snapshot, seed, Some((pool, registry))), fallback) {
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

/// Run `plan` over `wire`, or in process without one. The one `match` on
/// the strategy picks the query every server joins locally, the database
/// it reads and the round's [`Router`]; the transport then runs the round.
/// On the wire the router is asked again per retry attempt, over the
/// immutable snapshot and for that attempt's live worker count — which is
/// what makes the pool's automatic retry of a failed round on a reduced
/// topology safe (see [`pq_mpc::net::pool`]).
fn execute(
    plan: &Plan,
    snapshot: &Snapshot,
    seed: u64,
    wire: Wire<'_>,
) -> Result<RunOutcome, ClusterError> {
    let (database, statistics) = (snapshot.database(), snapshot.statistics());
    let query = &plan.parsed.query;
    let p = plan.p;
    let start = Instant::now();
    let finish = |raw: Relation, metrics| {
        let mut output = raw.project(&plan.parsed.head, query.name());
        output.dedup();
        RunOutcome {
            output,
            metrics,
            wall: start.elapsed(),
        }
    };
    // The skew-aware triangle runs the canonical `C_3` over a re-laid-out
    // database and maps its x1..x3 columns back to the user's variables.
    let triangle = ConjunctiveQuery::triangle();
    let (canonical, canonical_statistics);
    let mut user_vars = HashMap::new();
    let (local, data, router) = match &plan.strategy {
        Strategy::HyperCube { shares } => (query, database, Router::Grid(shares)),
        Strategy::SkewAwareStar { .. } => {
            let route = move || route_star_skew_aware(query, database, statistics, p, seed).0;
            (query, database, Router::Messages(Box::new(route)))
        }
        Strategy::SkewAwareTriangle { canonical_vars } => {
            (canonical, canonical_statistics) =
                canonical_triangle(query, canonical_vars, database, statistics);
            user_vars = (1..)
                .map(|i| format!("x{i}"))
                .zip(canonical_vars.iter().cloned())
                .collect();
            let route = || route_triangle_skew_aware(&canonical, &canonical_statistics, p, seed).0;
            (&triangle, &canonical, Router::Messages(Box::new(route)))
        }
        Strategy::MultiRound { plan: node, .. } => match wire {
            // The wire runs one round per run: there the plan's LP shares
            // (whose grid fits on `p` servers for every strategy) run as
            // plain HyperCube — the same rows, a different load.
            Some(_) => (query, database, Router::Grid(&plan.shares)),
            None => {
                let run = execute_multiround(node, query, database, p, seed);
                return Ok(finish(run.output, run.metrics));
            }
        },
    };
    let (raw, metrics) = match wire {
        None => {
            let messages = match &router {
                Router::Grid(shares) => route_hypercube(local, data, p, shares, seed),
                Router::Messages(route) => route(),
            };
            run_one_round(local, data, p, messages)
        }
        Some((pool, registry)) => {
            let program = RoundProgram {
                name: local.name().to_string(),
                output_vars: local.variables(),
                atoms: local
                    .atoms()
                    .iter()
                    .map(|atom| AtomSpec {
                        relation: atom.relation().to_string(),
                        variables: atom.distinct_variables(),
                    })
                    .collect(),
            };
            let (bits, input_bits) = (data.bits_per_value(), data.total_size_bits());
            match &router {
                Router::Grid(shares) => {
                    let grid = HyperCubeRouter::new(local, shares, seed, 0, 0);
                    let bound = instantiate(local, data);
                    let fold = |workers| grid.route_folded(&bound, p, workers, bits);
                    pool.execute_folded(p, bits, input_bits, &program, &fold, registry)?
                }
                Router::Messages(route) => {
                    pool.execute(p, bits, input_bits, &program, route.as_ref(), registry)?
                }
            }
        }
    };
    let raw = if user_vars.is_empty() {
        raw
    } else {
        raw.with_attributes_renamed(&user_vars)
    };
    Ok(finish(raw, metrics))
}

/// Rebuild the database in the canonical triangle layout expected by
/// [`route_triangle_skew_aware`]: relations `S1(x1,x2), S2(x2,x3), S3(x3,x1)`
/// with columns in canonical variable order, whatever order the user's
/// atoms bind them in — together with its statistics catalogue, which maps
/// every canonical column back to the stored attribute's degree statistics
/// instead of analysing the copy.
fn canonical_triangle(
    query: &ConjunctiveQuery,
    canonical_vars: &[String; 3],
    database: &Database,
    statistics: &DatabaseStatistics,
) -> (Database, DatabaseStatistics) {
    let [v1, v2, v3] = canonical_vars;
    let edges = [(v1, v2), (v2, v3), (v3, v1)];
    let mut out = Database::new(database.domain_size());
    let mut analysed = BTreeMap::new();
    for (i, (a, b)) in edges.iter().enumerate() {
        let atom = query
            .atoms()
            .iter()
            .find(|at| at.contains(a) && at.contains(b))
            .expect("planner verified the triangle shape");
        let stored = database.expect_relation(atom.relation());
        let name = format!("S{}", i + 1);
        out.insert(bind_atom(atom, stored).project(&[(*a).clone(), (*b).clone()], &name));
        let columns = stored.schema().attributes().iter().zip(atom.variables());
        let view = statistics
            .relation(atom.relation())
            .expect("the plan was made against this snapshot")
            .renamed(&name, columns);
        analysed.insert(name, Arc::new(view));
    }
    let statistics = DatabaseStatistics::from_relations(database.domain_size(), analysed);
    debug_assert_eq!(
        statistics,
        DatabaseStatistics::compute(&out),
        "the mapped catalogue must equal an analysis of the canonical copy"
    );
    (out, statistics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::planner::plan_query;
    use pq_query::evaluate_sequential;
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
            matches!(plan.strategy, Strategy::SkewAwareTriangle { .. }),
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
        assert!(matches!(plan.strategy, Strategy::SkewAwareStar { .. }));
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
