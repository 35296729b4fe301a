//! The real-wire backend: a binary framed protocol, worker processes and a
//! coordinator that together execute MPC rounds over TCP.
//!
//! The in-process [`crate::Cluster`] *simulates* the paper's cost model;
//! this module runs the same round structure on actual sockets so the
//! reported load can be checked against measured bytes on a real wire:
//!
//! * [`codec`] — the frame format: magic `PQW1`, a type byte, a u32
//!   little-endian length prefix, and a payload whose relation fragments
//!   are the flat row buffers shipped verbatim
//!   ([`pq_relation::Relation::write_rows_le`]);
//! * [`worker`] — the worker loop behind `pqd --worker`: accept a
//!   coordinator connection, merge incoming fragments by relation name
//!   (exactly like the simulator's [`crate::Server`]), answer each
//!   `Execute` with the local join of its fragments, and shut down cleanly
//!   on a `Shutdown` frame; [`LocalWorkers`] spawns the same loop on
//!   in-process threads for tests and benchmarks;
//! * [`shipment`] — the one input of a round: a [`Shipment`] carries the
//!   model's per-logical-server cost account next to the fragments
//!   grouped by the *worker* that receives them;
//! * [`coordinator`] — the round's wire protocol: feed each worker its
//!   fragments and one `Execute` per block of logical servers in turn,
//!   barrier on every worker's answers, and merge them per block. It
//!   records both the model's idealised
//!   per-server `received_bits` (identical to the simulator's, given the
//!   same router and seed) and the *measured* per-worker
//!   [`crate::RoundStats::wire_bytes`];
//! * [`pool`] — the resilience layer: a persistent, health-checked
//!   [`WorkerPool`] that keeps Hello'd connections alive across runs,
//!   pings stale sockets (`Ping`/`Pong`), runs every round as its own run,
//!   retries a failed round on a freshly rebuilt (possibly reduced)
//!   topology under a deadline, and fails fast behind a circuit breaker;
//! * [`retry`] — the scheduling primitives under the pool: capped
//!   exponential backoff with deterministic jitter ([`RetryPolicy`]), the
//!   test-injectable [`Clock`], and the [`Breaker`].
//!
//! # Folding `p` logical servers onto `w` workers
//!
//! The algorithms above the wire think in `p` logical servers; logical
//! server `s` lives on worker `s % w`, and the unit of shipping is the
//! worker. A folding router (`HyperCubeRouter::route_folded` in
//! `pq_core`) sends a tuple to a worker **once** if the worker hosts *any*
//! of the tuple's destination grid points, in at most one fragment per
//! (worker, relation) — so a worker's fragment of a relation is the *set*
//! union of its logical servers' fragments, not the bag union.
//! [`Shipment::from_messages`] folds ready-made per-server messages (the
//! skew-aware strategies' rounds) to the same invariant: one fragment per
//! (worker, relation), duplicate rows removed, raw statistics payloads
//! charged to the model account and kept off the wire.
//!
//! That is sound and complete for full conjunctive queries: every
//! fragment is a subset of a genuine input relation, so the merged join
//! produces only genuine answers (soundness, with duplicates removed by
//! the coordinator), and every answer tuple's designated logical server
//! maps to *some* worker that therefore holds all of its parts
//! (completeness) — for any worker count ≥ 1. The same argument is what
//! lets the pool route retries *around* dead workers: the round is simply
//! re-folded for the workers that are left.
//!
//! The two cost accounts part ways here on purpose. The **model account**
//! (`received_bits`, `messages`) is still kept per logical server, by
//! counting what each would have received — it is what the paper's
//! `L = M/p^{1/τ*}` bounds and stays bit-identical to the simulator's,
//! whatever `w` is. The **measured account** (`wire_bytes`) is what the
//! sockets carried, and now tracks the `w`-worker replication instead of
//! the `p`-server one: between one copy of the input (`w = 1`) and the
//! model's full replication (every destination on its own worker), at 64
//! bits a value plus framing. Model bits are therefore no lower bound on
//! wire bytes; the input size is.

pub mod codec;
pub mod coordinator;
pub mod pool;
pub mod retry;
pub mod shipment;
pub mod worker;

pub use codec::{
    read_frame, read_frame_into, write_frame, Frame, FrameError, MAGIC, MAX_FRAME_LEN,
};
pub use coordinator::{
    shutdown_workers, AtomSpec, ClusterConfig, ClusterError, RoundProgram,
};
pub use pool::{PoolStats, WorkerPool};
pub use retry::{Breaker, BreakerState, Clock, RetryPolicy, SystemClock, TestClock};
pub use shipment::Shipment;
pub use worker::{serve_worker, LocalWorkers, WorkerLimits, WorkerObs};
