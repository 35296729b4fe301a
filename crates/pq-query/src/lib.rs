//! Conjunctive-query machinery.
//!
//! This crate implements the query-side concepts of the paper:
//!
//! * [`atom`] / [`query`] — full conjunctive queries without self-joins
//!   (Section 2.2) and the paper's named query families: cycles `C_k`,
//!   chains `L_k`, stars `T_k`, the `B_{k,m}` family of Table 2, the
//!   two-level star-of-paths `SP_k` of Example 5.3, and `K_4`;
//! * [`hypergraph`] — connectivity, connected components, distances, radius
//!   and diameter of the query hypergraph;
//! * [`characteristic`](mod@characteristic) — the characteristic `χ(q) = a − k − ℓ + c`
//!   (Lemma 2.1), tree-likeness, and the edge-contraction `q/M`;
//! * [`packing`] — fractional edge packings and covers, the fractional
//!   vertex-covering number `τ*` and edge-cover number `ρ*`, and the
//!   vertices `pk(q)` of the packing polytope over which the lower bound is
//!   maximised (Section 3.3);
//! * [`residual`] — residual queries `q_x` obtained by fixing a set of
//!   variables (Section 4.2), and saturation checks for packings;
//! * [`evaluate`] — binding atoms to relation instances and sequential
//!   (single-server) evaluation used as the correctness oracle.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod atom;
pub mod characteristic;
pub mod evaluate;
pub mod hypergraph;
pub mod packing;
pub mod query;
pub mod residual;
pub mod size_bounds;

pub use atom::Atom;
pub use characteristic::{characteristic, contract, is_tree_like};
pub use evaluate::{bind_atom, evaluate_block, evaluate_bound, evaluate_sequential, instantiate};
pub use hypergraph::Hypergraph;
pub use packing::{
    edge_cover_number, edge_packing_polytope, fractional_edge_packing_vertices, is_edge_packing,
    optimal_edge_packing, vertex_cover_number,
};
pub use query::ConjunctiveQuery;
pub use residual::{residual_query, saturates};
pub use size_bounds::{agm_bound, optimal_edge_cover as optimal_fractional_edge_cover};
