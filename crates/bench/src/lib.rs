//! Shared helpers for the experiment harness binaries (`src/bin/*.rs`) and
//! the Criterion benchmarks.
//!
//! Each binary reproduces one table, worked example or asymptotic claim from
//! the paper's evaluation; the README's "Experiment binaries" table maps
//! each binary to its paper section (Table 2, Table 3, Thm 3.4/3.5/3.15,
//! Ex. 4.1, §4.2, Ex. 5.2/5.3, Thm 5.20, Cor. 3.19, Appendix A).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod data;
pub mod report;

pub use data::{
    hub_triangle_database, identity_chain_database, matching_database_for_query,
    skewed_star_database, uniform_sizes,
};
pub use report::{markdown_table, ExperimentReport};
