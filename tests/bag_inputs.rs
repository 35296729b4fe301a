//! Bag inputs stay sets. An INSERT of a row a relation already holds makes
//! the relation a bag, and a bag input makes servers produce repeated
//! answer rows. Set semantics is enforced where a round's server answers
//! are merged: once, by `Relation::union_distinct`, on the simulator; per
//! worker and again at the coordinator on the cluster. The executor only
//! reorders the merged answer's columns to the head.
//!
//! For every strategy — HyperCube, skew-aware star, skew-aware triangle
//! and a multi-round plan — on the simulator and on 1, 2 and 3 workers, at
//! engine pool sizes 1, 2 and 8, and under the body's variable order as
//! well as a reversed head, the answer over inputs with repeated rows
//! (rows that produce answers among them) must
//!
//! * equal the sequential oracle as a set,
//! * hold no row twice, and
//! * equal, row for row and in order, a replay of the pipeline that
//!   deduplicated three times: each server's answer projected and
//!   deduplicated, the block's answers appended and deduplicated, then the
//!   head projection deduplicated once more.

use pq_bench::matching_database_for_query;
use pq_core::hypercube::local_join_block;
use pq_core::round::{in_process, Round, Routing, Transport, Workers};
use pq_engine::{run_plan_with, Delta, Engine, ExecBackend};
use pq_mpc::net::{ClusterConfig, ClusterError, LocalWorkers};
use pq_mpc::{Cluster, RunMetrics};
use pq_query::{evaluate_sequential, ConjunctiveQuery};
use pq_relation::{Database, Relation, Schema, Tuple, Value};
use std::convert::Infallible;

/// The simulator's round as it was before the merge enforced set semantics
/// alone: every server's answer projected and deduplicated
/// (`local_join_block`), the block's answers appended into one relation,
/// and that deduplicated.
struct ThreeDedupSimulator {
    cluster: Cluster,
}

impl ThreeDedupSimulator {
    fn new(p: usize, database: &Database) -> Self {
        let mut cluster = Cluster::new(p, database.bits_per_value());
        cluster.set_input_bits(database.total_size_bits());
        ThreeDedupSimulator { cluster }
    }
}

impl Transport for ThreeDedupSimulator {
    type Error = Infallible;

    fn p(&self) -> usize {
        self.cluster.p()
    }

    fn round(&mut self, round: Round) -> Result<Vec<Relation>, Infallible> {
        let messages = match round.routing {
            Routing::Grids(grids) => grids
                .iter()
                .flat_map(|(router, bound)| router.route_bound(bound))
                .collect(),
            Routing::Messages(messages) => messages,
        };
        self.cluster.communicate(messages);
        let servers = self.cluster.servers();
        Ok(round
            .blocks
            .iter()
            .map(|block| {
                let query = &block.query;
                let schema = Schema::new(query.name(), query.variables());
                let mut answer = Relation::empty(schema);
                for output in local_join_block(query, &servers[block.servers.clone()]) {
                    answer.append(&output);
                }
                answer.dedup();
                answer
            })
            .collect())
    }

    fn metrics(&self) -> &RunMetrics {
        self.cluster.metrics()
    }
}

/// The cluster's round with the coordinator's deduplication after the merge
/// replayed: the workers' answers and their merge are the wire's own.
struct RededupWorkers<'a>(Workers<'a>);

impl Transport for RededupWorkers<'_> {
    type Error = ClusterError;

    fn p(&self) -> usize {
        self.0.p()
    }

    fn round(&mut self, round: Round) -> Result<Vec<Relation>, ClusterError> {
        let mut answers = self.0.round(round)?;
        answers.iter_mut().for_each(Relation::dedup);
        Ok(answers)
    }

    fn metrics(&self) -> &RunMetrics {
        self.0.metrics()
    }
}

/// A matching database for the query with eight planted answers of fresh
/// values; with `skew`, every relation gets a heavy hitter (value 0) in its
/// first column so the planner picks the skew-aware strategies.
fn database_for(query: &ConjunctiveQuery, m: usize, seed: u64, skew: bool) -> Database {
    let mut db = matching_database_for_query(query, m, seed);
    let domain = db.domain_size();
    let variables = query.variables();
    for i in 0..8 {
        for atom in query.atoms() {
            let row = atom.variables().iter().map(|v| {
                let j = variables.iter().position(|w| w == v).expect("a query variable");
                domain - 4_000 - (i * variables.len() + j) as u64
            });
            let rel = db.relation_mut(atom.relation()).expect("relation exists");
            rel.push(Tuple::new(row.collect()));
        }
    }
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

/// Rows to insert again: for every atom, its rows behind the first answers
/// of the oracle (so repeated rows produce repeated answers) and a few of
/// its stored rows; every row twice.
fn repeated_rows(query: &ConjunctiveQuery, db: &Database) -> Delta {
    let answer = evaluate_sequential(query, db);
    assert!(answer.len() >= 4, "the fixture has answers to repeat");
    let mut delta = Delta::new();
    for atom in query.atoms() {
        let positions: Vec<usize> = atom
            .variables()
            .iter()
            .map(|v| answer.schema().position(v).expect("a full query binds every variable"))
            .collect();
        let behind_answers = answer
            .iter()
            .step_by(answer.len() / 4)
            .map(|row| positions.iter().map(|&p| row[p]).collect::<Vec<Value>>());
        let stored = db.expect_relation(atom.relation());
        let rows: Vec<Vec<Value>> = behind_answers
            .chain(stored.iter().take(3).map(<[Value]>::to_vec))
            .collect();
        delta = delta
            .and_insert(atom.relation(), rows.clone())
            .and_insert(atom.relation(), rows);
    }
    delta
}

/// The query's text under the body's variable order and under the
/// reversed one.
fn heads(query: &ConjunctiveQuery) -> [String; 2] {
    let body: Vec<String> = query.atoms().iter().map(|a| a.to_string()).collect();
    let mut variables = query.variables();
    let forward = format!("{}({}) :- {}", query.name(), variables.join(", "), body.join(", "));
    variables.reverse();
    let reversed = format!("{}({}) :- {}", query.name(), variables.join(", "), body.join(", "));
    [forward, reversed]
}

/// `query` over `engine`'s bag database, under both heads, on `backend`:
/// the set, no-repeat and replay checks of the module docs, with the
/// expected strategy planned.
fn assert_bags_answer_as_sets(
    engine: &Engine,
    query: &ConjunctiveQuery,
    strategy: &str,
    backend: &ExecBackend,
    context: &str,
) {
    let snapshot = engine.snapshot();
    for text in heads(query) {
        let mut session = engine.session();
        session.set_backend(backend.clone());
        let run = session.run(&text).expect("run");
        let at = format!("{text} on {context}");
        assert_eq!(run.plan.strategy.name(), strategy, "{at}");
        let plan = &run.plan;
        let output = &run.outcome.output;

        let mut expected = evaluate_sequential(query, snapshot.database())
            .project(&plan.parsed.head, query.name());
        expected.dedup();
        assert_eq!(output.canonicalized(), expected.canonicalized(), "oracle set on {at}");
        assert_eq!(output.len(), expected.len(), "no repeated row on {at}");

        let seed = session.seed();
        let mut replay = match backend {
            ExecBackend::Simulator => in_process(run_plan_with(plan, &snapshot, seed, |data| {
                ThreeDedupSimulator::new(plan.p, data)
            })),
            ExecBackend::Cluster { pool, .. } => run_plan_with(plan, &snapshot, seed, |data| {
                RededupWorkers(Workers::new(pool, None, plan.p, &plan.parsed.query, data))
            })
            .expect("replay on the cluster"),
        }
        .output;
        replay.dedup();
        assert_eq!(output.schema(), replay.schema(), "{at}");
        assert_eq!(output.values(), replay.values(), "row order of the replay on {at}");
    }
}

#[test]
fn repeated_input_rows_leave_every_answer_a_set_in_the_replayed_order() {
    let triangle = ConjunctiveQuery::triangle();
    let star = ConjunctiveQuery::star(3);
    let chain = ConjunctiveQuery::chain(3);
    let fixtures = [
        (&triangle, database_for(&triangle, 200, 23, false), 27, "one-round HyperCube"),
        (&star, database_for(&star, 160, 43, true), 16, "skew-aware star"),
        (&triangle, database_for(&triangle, 300, 41, true), 16, "skew-aware triangle"),
        (&chain, database_for(&chain, 1_200, 47, false), 64, "multi-round bushy plan"),
    ];
    let clusters: Vec<LocalWorkers> = [1, 2, 3]
        .into_iter()
        .map(|workers| LocalWorkers::spawn(workers).expect("spawn local workers"))
        .collect();
    let mut backends = vec![("simulator".to_string(), ExecBackend::Simulator)];
    for cluster in &clusters {
        let config = ClusterConfig::new(cluster.addresses().to_vec());
        let name = format!("{} worker(s)", cluster.addresses().len());
        backends.push((name, ExecBackend::cluster(config)));
    }
    for (query, db, p, strategy) in &fixtures {
        for threads in [1, 2, 8] {
            let engine = Engine::new(db.clone(), *p).with_threads(threads);
            let bags = engine.apply(repeated_rows(query, db)).expect("apply the repeats");
            for atom in query.atoms() {
                let stored = bags.database().expect_relation(atom.relation());
                assert!(stored.canonicalized().len() < stored.len(), "{atom} is a bag now");
            }
            for (name, backend) in &backends {
                let context = format!("{name}, p = {p}, threads = {threads}");
                assert_bags_answer_as_sets(&engine, query, strategy, backend, &context);
            }
        }
    }
    for cluster in clusters {
        cluster.shutdown();
    }
}
