//! # pq-engine — a concurrent, end-to-end query engine over the MPC simulator
//!
//! Everything below this crate simulates the *algorithms* of Beame, Koutris
//! and Suciu's "Communication Cost in Parallel Query Processing"; this crate
//! turns them into a *system*: from "a query and a database" to "an answer",
//! with the strategy chosen by inspecting the query's structure and the
//! data's statistics rather than hard-coded per experiment — and served to
//! arbitrarily many concurrent clients from one loaded database.
//!
//! The layers:
//!
//! * [`parser`] — Datalog-style text syntax for full conjunctive queries
//!   (`Q(x, z) :- R(x, y), S(y, z)`), with spans and caret diagnostics;
//! * [`snapshot`] — an immutable [`Snapshot`]: the database plus its
//!   statistics catalogue ([`pq_relation::DatabaseStatistics`]) analysed in
//!   **one** pass, shared behind `Arc` by every concurrent reader;
//! * [`planner`] — a cost-based planner: the share-exponent LP (Eq. 10) and
//!   its fractional-edge-packing dual, heavy-hitter detection against the
//!   paper's `m/p` threshold (read from the snapshot's degree maps, no
//!   re-scan), and an explainable [`Plan`] choosing between one-round
//!   HyperCube, the skew-aware star/triangle algorithms of §4.2, and
//!   multi-round bushy plans of §5;
//! * [`cache`] — an LRU plan cache keyed by (query signature, statistics
//!   fingerprint, `p`), shared by all sessions under one lock, so repeated
//!   queries over unchanged data skip planning; data changes invalidate
//!   **per touched relation** (plans over unchanged relations are re-keyed
//!   and keep hitting);
//! * [`delta`] — typed, insert-only mutation batches ([`Delta`]): the
//!   O(delta) write path behind [`Engine::apply`], which maintains
//!   statistics incrementally instead of re-scanning the database;
//! * [`durability`] — the crash-safety layer over `pq-wal`: [`open_durable`]
//!   recovers a WAL directory (checkpoint + log replay), attaches the
//!   reopened log so every applied [`Delta`] is logged before it lands,
//!   and arms the auto-checkpointer (`pqd --data-dir` is this);
//! * [`executor`] — runs the chosen plan's rounds on the MPC simulator
//!   against a `&Snapshot`, with per-server local joins fanned out over
//!   real OS threads via [`pq_mpc::map_servers_parallel`];
//! * [`engine`] / [`session`] / [`prepared`] — the concurrent façade:
//!   [`Engine`] is a cheap, cloneable handle over the shared snapshot and
//!   plan cache; [`Session`] carries per-client state (budget `p`, seed)
//!   and exposes `plan`/`explain`/`run` as `&self`; [`PreparedQuery`] is a
//!   parse-once/plan-once handle that survives copy-on-write
//!   [`Engine::update`] snapshot swaps by re-planning lazily.
//!
//! [`reply`] holds the one definition of the `ROW` line format `pqd`
//! answers in.
//!
//! Two binaries expose the stack: `pqsh`, the interactive shell / one-shot
//! CLI, and `pqd`, a line-protocol TCP server that opens one [`Session`]
//! per connection — many clients, one engine, one plan cache.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod backend;
pub mod cache;
pub mod delta;
pub mod durability;
pub mod engine;
pub mod executor;
mod obs;
pub mod parser;
pub mod planner;
pub mod prepared;
pub mod reply;
pub mod session;
pub mod snapshot;

pub use backend::{ExecBackend, FallbackPolicy};
pub use cache::{CacheStats, PlanCache, PlanKey};
pub use delta::{Delta, DeltaError};
pub use durability::{open_durable, DurabilityOptions, DurableOpen};
pub use engine::{Engine, EngineError, EngineRun};
pub use executor::{run_plan, run_plan_on, run_plan_with, RunOutcome};
pub use pq_mpc::net::{ClusterConfig, ClusterError, RetryPolicy, WorkerPool};
pub use pq_obs::{MetricsRegistry, Phase, QueryTrace};
pub use parser::{parse_query, ParseError, ParsedQuery, Span};
pub use planner::{plan_query, plan_query_on, HeavyReport, Plan, PlanError, Strategy};
pub use prepared::PreparedQuery;
pub use session::Session;
pub use snapshot::Snapshot;
