//! One communication round, and the two transports that run it.
//!
//! Every algorithm of this crate is, round by round, a decision about
//! where each tuple goes plus the query each server joins locally over
//! what it received. A [`Round`] is exactly that: a [`Routing`] and the
//! [`Block`]s of logical servers — each with its own local query — that
//! join what the routing delivered (a one-round strategy is one block over
//! all `p` servers; a level of a multi-round plan is one block per
//! operator, Proposition 5.1). A [`Transport`] runs it:
//!
//! * [`InProcess`] — the MPC simulator: [`Cluster::communicate`] keeps the
//!   model's cost account, the servers of a block join their fragments
//!   locally in one block join (as [`crate::hypercube::local_join_block`]
//!   does: fanned out over the `pq-exec` pool, each fragment buffer a
//!   subcube shares indexed once) and project without deduplicating, and
//!   each block's answers are merged by one [`Relation::union_distinct`] —
//!   the only place the simulator enforces set semantics;
//! * [`Workers`] — real worker processes behind a [`WorkerPool`], one pool
//!   run per round: the shipment is folded per worker (a grid folds
//!   *while* it routes, [`HyperCubeRouter::route_folded`]), every worker
//!   gets one `Execute` per block and sends one `Answer` per block — a
//!   set, so the answer bytes on the wire are exact — and the coordinator
//!   merges them block by block with [`Relation::union_distinct`]. The
//!   model account is the simulator's for the same round, bit for bit;
//!   the measured account is what the sockets carried.
//!
//! Between rounds the caller holds the answers — on the wire, that is the
//! coordinator — and routes them in the next round. So no worker keeps
//! state from one round to the next, every round on the wire is a
//! self-contained pool run opening with a fresh `Hello`, and a retry
//! replays only the round that failed (see [`pq_mpc::net::pool`]).

use crate::hypercube::{project_block, HyperCubeRouter};
use pq_mpc::net::{AtomSpec, ClusterError, RoundProgram, Shipment, WorkerPool};
use pq_mpc::{Cluster, Message, RunMetrics};
use pq_obs::MetricsRegistry;
use pq_query::ConjunctiveQuery;
use pq_relation::{Database, Relation, Schema};
use std::convert::Infallible;
use std::ops::Range;
use std::sync::Arc;

/// Where a round sends each tuple.
pub enum Routing {
    /// HyperCube grids, each a router over the bound relations it routes.
    /// In process they route per logical server
    /// ([`HyperCubeRouter::route_bound`]); on the wire they fold per worker
    /// while routing ([`HyperCubeRouter::route_folded`]).
    Grids(Vec<(HyperCubeRouter, Vec<Relation>)>),
    /// Ready-made per-logical-server messages; the wire folds them
    /// set-wise ([`Shipment::from_messages`]).
    Messages(Vec<Message>),
}

impl Routing {
    /// One grid: `router` over `bound`.
    pub fn grid(router: HyperCubeRouter, bound: Vec<Relation>) -> Routing {
        Routing::Grids(vec![(router, bound)])
    }

    fn into_messages(self) -> Vec<Message> {
        match self {
            Routing::Grids(grids) => grids
                .iter()
                .flat_map(|(router, bound)| router.route_bound(bound))
                .collect(),
            Routing::Messages(messages) => messages,
        }
    }

    fn fold(&self, p: usize, workers: usize, bits_per_value: u64) -> Shipment {
        match self {
            Routing::Grids(grids) => {
                let mut shipment = Shipment::new(p, workers);
                for (router, bound) in grids {
                    router.fold_into(bound, bits_per_value, &mut shipment);
                }
                shipment
            }
            Routing::Messages(messages) => {
                Shipment::from_messages(messages.clone(), p, workers, bits_per_value)
            }
        }
    }
}

/// A block of logical servers and the query each of them joins locally.
/// The blocks of one round must read disjoint relation names: a block's
/// answer is the join of the fragments its atoms name.
pub struct Block {
    /// The local query; its answer is named after it, with one column per
    /// variable in [`ConjunctiveQuery::variables`] order.
    pub query: ConjunctiveQuery,
    /// The block's logical servers.
    pub servers: Range<usize>,
}

/// One communication round: where the tuples go, and who joins them.
pub struct Round {
    /// The round's routing.
    pub routing: Routing,
    /// The blocks; [`Transport::round`] answers them in this order.
    pub blocks: Vec<Block>,
}

impl Round {
    /// The round of a one-round algorithm: `query` joined on all `p`
    /// servers.
    pub fn single(query: &ConjunctiveQuery, p: usize, routing: Routing) -> Round {
        Round {
            routing,
            blocks: vec![Block {
                query: query.clone(),
                servers: 0..p,
            }],
        }
    }
}

/// Runs rounds on `p` logical servers and keeps their cost account.
pub trait Transport {
    /// How a round can fail.
    type Error;

    /// Number of logical servers `p`.
    fn p(&self) -> usize;

    /// Run `round`: deliver its tuples, join locally per block, and return
    /// each block's answer in block order. An answer is a set even when
    /// the round's inputs are bags: the set union of its servers'
    /// answers, rows in first-occurrence order over the servers (or
    /// workers) taken in order. The round's statistics join
    /// [`Transport::metrics`].
    ///
    /// # Errors
    /// Whatever the transport's [`Transport::Error`] says can fail.
    fn round(&mut self, round: Round) -> Result<Vec<Relation>, Self::Error>;

    /// The account of every round run so far, numbered from 1.
    fn metrics(&self) -> &RunMetrics;
}

/// Run `query` as one round on all of `transport`'s servers: every
/// one-round algorithm, once it has decided where each tuple goes.
///
/// # Errors
/// As [`Transport::round`].
pub fn run_single<T: Transport>(
    mut transport: T,
    query: &ConjunctiveQuery,
    routing: Routing,
) -> Result<(Relation, RunMetrics), T::Error> {
    let round = Round::single(query, transport.p(), routing);
    let answer = transport.round(round)?.remove(0);
    Ok((answer, transport.metrics().clone()))
}

/// The value of a result the in-process transport produced.
pub fn in_process<V>(result: Result<V, Infallible>) -> V {
    match result {
        Ok(value) => value,
        Err(never) => match never {},
    }
}

/// The in-process transport: the MPC simulator.
pub struct InProcess {
    cluster: Cluster,
}

impl InProcess {
    /// `p` simulated servers charging `database`'s bits per value, with
    /// the relations `query` names as the run's input.
    pub fn new(p: usize, query: &ConjunctiveQuery, database: &Database) -> InProcess {
        let mut cluster = Cluster::new(p, database.bits_per_value());
        cluster.set_input_bits(input_bits(query, database));
        InProcess { cluster }
    }
}

/// The run's input `|I|`: the bits of the relations `query` names (each
/// once: a query has no self-join), however many others `database` holds.
fn input_bits(query: &ConjunctiveQuery, database: &Database) -> u64 {
    let names = query.atoms().iter().map(|atom| atom.relation());
    names.map(|name| database.relation_size_bits(name)).sum()
}

impl Transport for InProcess {
    type Error = Infallible;

    fn p(&self) -> usize {
        self.cluster.p()
    }

    fn round(&mut self, round: Round) -> Result<Vec<Relation>, Infallible> {
        self.cluster.communicate(round.routing.into_messages());
        let servers = self.cluster.servers();
        Ok(round
            .blocks
            .iter()
            .map(|block| {
                let query = &block.query;
                let outputs = project_block(query, &servers[block.servers.clone()]);
                Relation::union_distinct(Schema::new(query.name(), query.variables()), &outputs)
            })
            .collect())
    }

    fn metrics(&self) -> &RunMetrics {
        self.cluster.metrics()
    }
}

/// The worker transport: every round is one [`WorkerPool`] run, recorded
/// into `registry` when one is given.
pub struct Workers<'a> {
    pool: &'a WorkerPool,
    registry: Option<&'a Arc<MetricsRegistry>>,
    p: usize,
    bits_per_value: u64,
    metrics: RunMetrics,
}

impl<'a> Workers<'a> {
    /// `p` logical servers folded onto `pool`'s workers, charging
    /// `database`'s bits per value, with the relations `query` names as the
    /// run's input.
    pub fn new(
        pool: &'a WorkerPool,
        registry: Option<&'a Arc<MetricsRegistry>>,
        p: usize,
        query: &ConjunctiveQuery,
        database: &Database,
    ) -> Workers<'a> {
        Workers {
            pool,
            registry,
            p,
            bits_per_value: database.bits_per_value(),
            metrics: RunMetrics {
                input_bits: input_bits(query, database),
                ..RunMetrics::default()
            },
        }
    }
}

impl Transport for Workers<'_> {
    type Error = ClusterError;

    fn p(&self) -> usize {
        self.p
    }

    /// The pool asks the routing for a shipment once per attempt, folded
    /// for that attempt's live workers, so a retry on a reduced topology
    /// re-folds this round alone. Every worker answers every block: the
    /// fragments a worker holds of a block's relations came from the
    /// block's own servers, so its answer is a sound and complete share of
    /// the block's, whichever of those servers it hosts.
    fn round(&mut self, round: Round) -> Result<Vec<Relation>, ClusterError> {
        let programs: Vec<RoundProgram> = round.blocks.iter().map(|b| program(&b.query)).collect();
        let (p, bits) = (self.p, self.bits_per_value);
        let route = |workers| round.routing.fold(p, workers, bits);
        let input_bits = self.metrics.input_bits;
        let (answers, run) =
            self.pool
                .execute_folded(bits, input_bits, &programs, &route, self.registry)?;
        self.metrics.result_wire_bytes += run.result_wire_bytes;
        for mut stats in run.rounds {
            stats.round = self.metrics.rounds.len() + 1;
            self.metrics.rounds.push(stats);
        }
        Ok(answers)
    }

    fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }
}

/// What a worker joins for `query`: its atoms, projected to its variables.
fn program(query: &ConjunctiveQuery) -> RoundProgram {
    RoundProgram {
        name: query.name().to_string(),
        output_vars: query.variables(),
        atoms: query
            .atoms()
            .iter()
            .map(|atom| AtomSpec {
                relation: atom.relation().to_string(),
                variables: atom.distinct_variables(),
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_mpc::net::ClusterConfig;
    use pq_relation::DataGenerator;

    #[test]
    fn the_input_is_the_querys_relations_alone() {
        let query = ConjunctiveQuery::simple_join();
        let mut generator = DataGenerator::new(3, 1 << 12);
        let mut database = generator.matching_database(&[
            (Schema::from_strs("S1", &["a", "b"]), 40),
            (Schema::from_strs("S2", &["a", "b"]), 30),
        ]);
        let expected = database.total_size_bits();
        let pool = WorkerPool::new(ClusterConfig::new(vec!["127.0.0.1:1".to_string()]));
        let charged = |database: &Database| {
            let simulated = InProcess::new(4, &query, database).metrics().input_bits;
            let wired = Workers::new(&pool, None, 4, &query, database).metrics().input_bits;
            assert_eq!(simulated, wired);
            simulated
        };
        assert_eq!(charged(&database), expected);
        database.insert(generator.matching_relation(Schema::from_strs("U", &["a", "b"]), 500));
        assert_eq!(charged(&database), expected, "an unrelated relation is no input");
    }
}
