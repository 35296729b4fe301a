//! The MPC (Massively Parallel Communication) cluster simulator.
//!
//! The MPC model (Section 2.1 of the paper) is parameterised by the number
//! of servers `p`, the number of rounds `r`, and the maximum load `L` — the
//! number of bits any server *receives* in any single round. Local
//! computation is free; only communication is charged. This crate simulates
//! exactly that cost model:
//!
//! * [`cluster::Cluster`] owns `p` [`server::Server`]s and executes
//!   synchronised communication rounds, accounting the bits each server
//!   receives per round;
//! * [`message::Message`] carries either relation fragments (tuples) or raw
//!   bit payloads (e.g. broadcast heavy-hitter statistics);
//! * [`metrics::RunMetrics`] reports the quantities the paper's theorems
//!   bound: the number of rounds `r`, the maximum load `L`, per-round loads,
//!   and the replication rate `r = Σ_s L_s / |I|` of Section 3.4;
//! * [`partition`] distributes input relations across servers
//!   (the partitioned-input model) or keeps them whole on conceptual input
//!   servers (the input-server model used by the lower bounds);
//! * [`parallel`] fans per-server computation phases out over the
//!   persistent `pq-exec` worker pool — the simulator's wall-clock
//!   accelerator, irrelevant to the cost model;
//! * [`net`] runs the same round structure over real TCP sockets — worker
//!   processes, a coordinator, and a binary framed protocol — so the
//!   model's idealised load can be compared against measured bytes on an
//!   actual wire.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cluster;
pub mod message;
pub mod metrics;
pub mod net;
pub mod parallel;
pub mod partition;
pub mod server;

pub use cluster::Cluster;
pub use message::{broadcast_relation, Message, Payload};
pub use metrics::{RoundStats, RunMetrics};
pub use net::{
    serve_worker, shutdown_workers, AtomSpec, ClusterConfig, ClusterError, LocalWorkers,
    RoundProgram,
};
pub use parallel::map_servers_parallel;
pub use partition::{partition_by_hash, partition_round_robin};
pub use server::{Server, ServerId};
