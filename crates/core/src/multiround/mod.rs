//! Multi-round algorithms (Section 5.1).
//!
//! A query outside `Γ¹_ε` cannot be computed in one round at load
//! `O(M/p^{1−ε})`, but it can be computed by a *query plan* whose operators
//! are each one-round HyperCube computations: bushy plans for chain queries
//! (Example 5.2), two-round plans for `SP_k` (Example 5.3), and radius-based
//! plans for general tree-like queries (Lemma 5.4). The plan machinery and
//! its executor, on either transport of [`crate::round`], live in [`plan`];
//! the connected-components algorithm whose round complexity Theorem 5.20
//! lower-bounds lives in [`connected`].

pub mod connected;
pub mod plan;
