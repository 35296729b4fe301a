//! # Communication cost in parallel query processing
//!
//! This crate implements the contribution of Beame, Koutris and Suciu,
//! *"Communication Cost in Parallel Query Processing"*: algorithms and
//! matching lower bounds for evaluating full conjunctive queries on a
//! shared-nothing cluster in the **MPC model**, where the cost of an
//! algorithm is the number of communication rounds `r` and the maximum
//! per-round, per-server load `L` in bits.
//!
//! ## Modules
//!
//! * [`shares`] — the share-exponent linear program (Eq. 10) that drives the
//!   HyperCube algorithm, its closed forms and share integerisation.
//! * [`hypercube`] — the one-round HyperCube (HC) algorithm of Section 3.1,
//!   which routes every tuple to a subcube of a `k`-dimensional grid of
//!   servers and evaluates the query locally.
//! * [`round`] — one communication round (a routing plus a local query
//!   per block of servers) and the two transports that run it: the
//!   in-process simulator and real worker processes. Every join algorithm
//!   below runs its rounds through it.
//! * [`baselines`] — the comparison algorithms: single-server evaluation,
//!   broadcast joins and the standard shuffle hash join / left-deep
//!   sequential plans.
//! * [`skew`] — the skew story of Section 4: what happens to HC under heavy
//!   hitters, the skew-oblivious share LP, and the skew-aware one-round
//!   algorithms for star queries (§4.2.1) and the triangle query (§4.2.2)
//!   that use heavy-hitter statistics.
//! * [`multiround`] — Section 5: the `Γ^r_ε` classes, multi-round query
//!   plans (bushy plans for chains, radius plans for tree-like queries),
//!   their executor (on either transport), and connected components.
//! * [`bounds`] — every lower/upper bound formula in the paper:
//!   `L(u, M, p)` and `L_lower` (Theorem 3.5/3.15), space exponents,
//!   replication-rate bounds (Cor. 3.19), skewed lower bounds (Thm 4.4 and
//!   Eq. 20), multi-round round bounds (Cor. 5.15/5.17, Lemma 5.18) and the
//!   weighted balls-in-bins tail bounds of Appendix A.
//!
//! ## Quick example
//!
//! ```
//! use pq_core::prelude::*;
//!
//! // Generate a skew-free (matching) database for the triangle query.
//! let query = ConjunctiveQuery::triangle();
//! let mut gen = DataGenerator::new(42, 1 << 20);
//! let db = gen.matching_database(&[
//!     (Schema::from_strs("S1", &["a", "b"]), 2_000),
//!     (Schema::from_strs("S2", &["a", "b"]), 2_000),
//!     (Schema::from_strs("S3", &["a", "b"]), 2_000),
//! ]);
//!
//! // Run the one-round HyperCube algorithm on 64 simulated servers.
//! let run = pq_core::hypercube::run_hypercube(&query, &db, 64, 7);
//!
//! // The answer matches the sequential oracle...
//! let oracle = evaluate_sequential(&query, &db);
//! assert_eq!(run.output.canonicalized(), oracle.canonicalized());
//!
//! // ...and the measured load is within a constant factor of the paper's
//! // lower bound  L_lower = max_u L(u, M, p).
//! let lower = pq_core::bounds::one_round::lower_bound_load(&query, &db.sizes_bits(), 64);
//! assert!((run.metrics.max_load() as f64) < 16.0 * lower);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod baselines;
pub mod bounds;
pub mod hypercube;
pub mod multiround;
pub mod round;
pub mod shares;
pub mod skew;

/// Convenience re-exports of the most frequently used items across the
/// workspace (queries, data generation, the simulator and the algorithms).
pub mod prelude {
    pub use crate::baselines::{broadcast_join, sequential_plan_join, single_server_join};
    pub use crate::bounds::one_round::{lower_bound_load, upper_bound_load};
    pub use crate::hypercube::{run_hypercube, HyperCubeRun};
    pub use crate::multiround::plan::{execute_plan, PlanNode};
    pub use crate::shares::{integer_shares, optimal_share_exponents, ShareExponents};
    pub use crate::skew::star::run_star_skew_aware;
    pub use crate::skew::triangle::run_triangle_skew_aware;
    pub use pq_mpc::{Cluster, RunMetrics};
    pub use pq_query::{evaluate_sequential, Atom, ConjunctiveQuery};
    pub use pq_relation::{
        database_fingerprint, load_database_dir, load_database_files, DataGenerator, Database,
        DatabaseStatistics, Relation, RelationStatistics, Schema, ValueDictionary,
    };
}
