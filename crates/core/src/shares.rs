//! Share exponents for the HyperCube algorithm (Section 3.1, Eq. 10).
//!
//! The HyperCube algorithm organises the `p` servers into a grid
//! `[p_1] × … × [p_k]`, one dimension per query variable, with
//! `Π_i p_i ≤ p`. Writing `p_i = p^{e_i}`, the load of the algorithm is
//! `max_j M_j / Π_{i ∈ S_j} p_i`, so the optimal *share exponents* `e_i`
//! minimise `λ = log_p L` subject to
//!
//! ```text
//!   Σ_i e_i ≤ 1
//!   Σ_{i ∈ S_j} e_i + λ ≥ µ_j      for every atom S_j   (µ_j = log_p M_j)
//!   e_i ≥ 0, λ ≥ 0
//! ```
//!
//! When all relations have the same size the optimum has a closed form:
//! `e_i = v*_i / τ*` for an optimal fractional vertex cover `v*`, giving
//! load `M / p^{1/τ*}` (Section 3.1). For unequal sizes the optimum may be
//! better — small relations get share exponent zero and are broadcast
//! (Lemma 3.18).
//!
//! Real-valued shares must be converted to integers whose product is at most
//! `p`; [`integer_shares`] offers the floor strategy and a greedy
//! redistribution strategy — the integral shares Section 3.1's grid needs;
//! `tests/property_tests.rs` holds both to `Π_i p_i ≤ p`.

use pq_lp::{ConstraintOp, LinearProgram, Objective};
use pq_query::{packing, ConjunctiveQuery};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Result of solving the share-exponent LP.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShareExponents {
    /// Share exponent `e_i` for each query variable.
    pub exponents: BTreeMap<String, f64>,
    /// The optimal objective `λ = log_p L`.
    pub lambda: f64,
    /// Number of servers the exponents were computed for.
    pub p: usize,
}

impl ShareExponents {
    /// The upper-bound load `L_upper = p^λ` in bits (Theorem 3.4).
    pub fn upper_bound_load(&self) -> f64 {
        (self.p as f64).powf(self.lambda)
    }

    /// Real-valued share for a variable: `p^{e_i}`.
    pub fn real_share(&self, variable: &str) -> f64 {
        (self.p as f64).powf(self.exponents.get(variable).copied().unwrap_or(0.0))
    }
}

/// Strategy for converting real shares `p^{e_i}` to integers with product at
/// most `p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShareRounding {
    /// Round every share down to an integer (≥ 1). Simple, can leave a large
    /// fraction of the servers unused.
    Floor,
    /// Round down, then greedily bump the share whose real value is most
    /// under-represented while the product stays ≤ p. Uses more of the
    /// budget; the default.
    GreedyFill,
}

/// Solve the share-exponent LP (Eq. 10) for a query, bit sizes `M_j` keyed by
/// relation name, and `p` servers.
///
/// Relation sizes smaller than `p` are clamped to `p` (so `µ_j ≥ 1`), which
/// matches the paper's w.l.o.g. assumption `M_j ≥ p`; such relations end up
/// broadcast.
///
/// # Panics
/// Panics when a relation of the query has no entry in `sizes_bits`, or
/// `p < 2`.
pub fn optimal_share_exponents(
    query: &ConjunctiveQuery,
    sizes_bits: &BTreeMap<String, u64>,
    p: usize,
) -> ShareExponents {
    assert!(p >= 2, "share optimisation needs at least 2 servers");
    let ln_p = (p as f64).ln();
    let variables = query.variables();

    let mut lp = LinearProgram::new(Objective::Minimize);
    let lambda = lp.add_variable("lambda");
    lp.set_objective_coefficient(lambda, 1.0);
    let vars: Vec<_> = variables
        .iter()
        .map(|v| lp.add_variable(format!("e_{v}")))
        .collect();

    // Σ e_i <= 1
    lp.add_constraint(
        vars.iter().map(|&v| (v, 1.0)).collect(),
        ConstraintOp::Le,
        1.0,
    );
    // Per atom: Σ_{i in S_j} e_i + λ >= µ_j
    for atom in query.atoms() {
        let m = *sizes_bits
            .get(atom.relation())
            .unwrap_or_else(|| panic!("no size for relation `{}`", atom.relation()));
        let mu = ((m.max(p as u64)) as f64).ln() / ln_p;
        let mut terms: Vec<_> = variables
            .iter()
            .enumerate()
            .filter(|(_, v)| atom.contains(v))
            .map(|(i, _)| (vars[i], 1.0))
            .collect();
        terms.push((lambda, 1.0));
        lp.add_constraint(terms, ConstraintOp::Ge, mu);
    }

    let sol = lp
        .solve()
        .expect("share-exponent LP is feasible (e=0, lambda=max µ) and bounded below by 0");
    let exponents = variables
        .iter()
        .enumerate()
        .map(|(i, v)| (v.clone(), sol.value(vars[i]).max(0.0)))
        .collect();
    ShareExponents {
        exponents,
        lambda: sol.objective.max(0.0),
        p,
    }
}

/// The closed-form share exponents for the equal-cardinality case:
/// `e_i = v*_i / τ*` from an optimal fractional vertex cover (Section 3.1).
pub fn equal_size_share_exponents(query: &ConjunctiveQuery, p: usize) -> ShareExponents {
    let (cover, tau_star) = packing::optimal_vertex_cover(query);
    let variables = query.variables();
    let exponents = variables
        .iter()
        .zip(cover.iter())
        .map(|(v, &vi)| (v.clone(), if tau_star > 0.0 { vi / tau_star } else { 0.0 }))
        .collect();
    ShareExponents {
        exponents,
        // λ = µ − 1/τ*; with sizes unknown here we only report the exponent
        // part relative to µ = 0 (callers wanting loads should use
        // `optimal_share_exponents` with real sizes).
        lambda: if tau_star > 0.0 { 1.0 - 1.0 / tau_star } else { 0.0 },
        p,
    }
}

/// Convert share exponents into integer shares `p_i ≥ 1` with
/// `Π_i p_i ≤ p`, using the chosen rounding strategy.
pub fn integer_shares(
    exponents: &ShareExponents,
    strategy: ShareRounding,
) -> BTreeMap<String, usize> {
    let p = exponents.p;
    let mut shares: BTreeMap<String, usize> = exponents
        .exponents
        .iter()
        .map(|(v, &e)| {
            let real = (p as f64).powf(e);
            (v.clone(), (real.floor() as usize).max(1))
        })
        .collect();

    // Floor rounding can overshoot only through numerical slack; renormalise
    // defensively by shrinking the largest share until the product fits.
    loop {
        let product: u128 = shares.values().map(|&s| s as u128).product();
        if product <= p as u128 {
            break;
        }
        let (var, _) = shares
            .iter()
            .max_by_key(|(_, &s)| s)
            .map(|(v, s)| (v.clone(), *s))
            .expect("non-empty shares");
        let entry = shares.get_mut(&var).expect("exists");
        *entry = (*entry - 1).max(1);
        if *entry == 1 && shares.values().all(|&s| s == 1) {
            break;
        }
    }

    if strategy == ShareRounding::GreedyFill {
        // Greedily bump the variable whose real share is most
        // under-represented, as long as the product stays within p.
        loop {
            let product: u128 = shares.values().map(|&s| s as u128).product();
            let mut best: Option<(String, f64)> = None;
            for (v, &s) in &shares {
                let new_product = product / s as u128 * (s as u128 + 1);
                if new_product > p as u128 {
                    continue;
                }
                let real = exponents.real_share(v);
                let deficit = real / (s as f64 + 1.0);
                if best.as_ref().map_or(true, |(_, d)| deficit > *d) {
                    best = Some((v.clone(), deficit));
                }
            }
            match best {
                Some((v, _)) => *shares.get_mut(&v).expect("exists") += 1,
                None => break,
            }
        }
    }
    shares
}

/// Convenience: compute integer shares for a query directly from relation
/// bit sizes, with the default greedy strategy.
pub fn shares_for_query(
    query: &ConjunctiveQuery,
    sizes_bits: &BTreeMap<String, u64>,
    p: usize,
) -> BTreeMap<String, usize> {
    integer_shares(
        &optimal_share_exponents(query, sizes_bits, p),
        ShareRounding::GreedyFill,
    )
}

/// The number of grid points (servers actually used) implied by a share
/// assignment.
pub fn grid_size(shares: &BTreeMap<String, usize>) -> usize {
    shares.values().product()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn equal_sizes(query: &ConjunctiveQuery, m: u64) -> BTreeMap<String, u64> {
        query
            .relation_names()
            .into_iter()
            .map(|r| (r, m))
            .collect()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6
    }

    #[test]
    fn triangle_exponents_are_one_third_each() {
        let q = ConjunctiveQuery::triangle();
        let p = 64;
        let sizes = equal_sizes(&q, 1 << 20);
        let e = optimal_share_exponents(&q, &sizes, p);
        for v in q.variables() {
            assert!(close(e.exponents[&v], 1.0 / 3.0), "e_{v} = {}", e.exponents[&v]);
        }
        // λ = µ − 1/τ* with τ* = 3/2: load = M / p^{2/3}.
        let expected_load = (1u64 << 20) as f64 / (p as f64).powf(2.0 / 3.0);
        assert!((e.upper_bound_load() - expected_load).abs() / expected_load < 1e-6);
    }

    #[test]
    fn star_query_puts_all_share_on_the_center() {
        // Table 2: T_k has share exponents (1, 0, …, 0) — all on z.
        let q = ConjunctiveQuery::star(3);
        let sizes = equal_sizes(&q, 1 << 20);
        let e = optimal_share_exponents(&q, &sizes, 64);
        assert!(close(e.exponents["z"], 1.0));
        for i in 1..=3 {
            assert!(close(e.exponents[&format!("x{i}")], 0.0));
        }
        // Load = M/p (space exponent 0).
        assert!(close(e.lambda, ((1u64 << 20) as f64).ln() / 64f64.ln() - 1.0));
    }

    #[test]
    fn chain_query_alternates_shares() {
        // Table 2: L_k uses exponents 0, 1/ceil(k/2), 0, 1/ceil(k/2), …
        let q = ConjunctiveQuery::chain(4);
        let sizes = equal_sizes(&q, 1 << 24);
        let e = optimal_share_exponents(&q, &sizes, 256);
        // λ must equal µ − 1/τ* with τ* = 2.
        let mu = ((1u64 << 24) as f64).ln() / 256f64.ln();
        assert!(close(e.lambda, mu - 0.5));
        // The load is what matters; individual optima may differ between
        // equivalent optimal solutions, but every atom's constraint must be
        // tight enough: check feasibility and objective only.
        let total: f64 = e.exponents.values().sum();
        assert!(total <= 1.0 + 1e-6);
    }

    #[test]
    fn unequal_sizes_broadcast_the_small_relation() {
        // Example 3.17 / Lemma 3.18: for the triangle with M1 << M2 = M3 and
        // small p, the optimal strategy broadcasts S1 (e share on its
        // variables may stay 0) and achieves load M/p.
        let q = ConjunctiveQuery::triangle();
        let mut sizes = BTreeMap::new();
        sizes.insert("S1".to_string(), 1u64 << 10);
        sizes.insert("S2".to_string(), 1u64 << 30);
        sizes.insert("S3".to_string(), 1u64 << 30);
        // p far below M2/M1 = 2^20: linear speedup regime.
        let p = 64;
        let e = optimal_share_exponents(&q, &sizes, p);
        let expected = (1u64 << 30) as f64 / p as f64;
        assert!(
            (e.upper_bound_load() - expected).abs() / expected < 1e-3,
            "load {} vs expected {expected}",
            e.upper_bound_load()
        );
    }

    #[test]
    fn closed_form_matches_lp_for_equal_sizes() {
        for q in [
            ConjunctiveQuery::triangle(),
            ConjunctiveQuery::star(3),
            ConjunctiveQuery::cycle(4),
            ConjunctiveQuery::b_query(4, 2),
        ] {
            let sizes = equal_sizes(&q, 1 << 20);
            let lp = optimal_share_exponents(&q, &sizes, 64);
            let closed = equal_size_share_exponents(&q, 64);
            // Loads must agree: λ_lp = µ − (1 − λ_closed).
            let mu = ((1u64 << 20) as f64).ln() / 64f64.ln();
            assert!(
                close(lp.lambda, mu - (1.0 - closed.lambda)),
                "load mismatch for {}",
                q.name()
            );
        }
    }

    #[test]
    fn integer_shares_product_never_exceeds_p() {
        for p in [2usize, 3, 5, 8, 16, 27, 64, 100, 1000] {
            for q in [
                ConjunctiveQuery::triangle(),
                ConjunctiveQuery::chain(5),
                ConjunctiveQuery::star(4),
                ConjunctiveQuery::k4(),
            ] {
                let sizes = equal_sizes(&q, 1 << 20);
                let e = optimal_share_exponents(&q, &sizes, p);
                for strategy in [ShareRounding::Floor, ShareRounding::GreedyFill] {
                    let shares = integer_shares(&e, strategy);
                    assert!(grid_size(&shares) <= p, "{} p={p} {strategy:?}", q.name());
                    assert!(shares.values().all(|&s| s >= 1));
                }
            }
        }
    }

    #[test]
    fn greedy_fill_uses_at_least_as_many_servers_as_floor() {
        let q = ConjunctiveQuery::triangle();
        let sizes = equal_sizes(&q, 1 << 20);
        for p in [8usize, 27, 50, 64, 100] {
            let e = optimal_share_exponents(&q, &sizes, p);
            let floor = grid_size(&integer_shares(&e, ShareRounding::Floor));
            let greedy = grid_size(&integer_shares(&e, ShareRounding::GreedyFill));
            assert!(greedy >= floor);
            assert!(greedy <= p);
        }
    }

    #[test]
    fn triangle_integer_shares_for_perfect_cube() {
        let q = ConjunctiveQuery::triangle();
        let sizes = equal_sizes(&q, 1 << 20);
        let e = optimal_share_exponents(&q, &sizes, 64);
        let shares = integer_shares(&e, ShareRounding::GreedyFill);
        // 64 = 4^3: each variable gets share 4.
        for v in q.variables() {
            assert_eq!(shares[&v], 4, "share of {v}");
        }
    }

    #[test]
    #[should_panic(expected = "no size for relation")]
    fn missing_size_panics() {
        let q = ConjunctiveQuery::triangle();
        optimal_share_exponents(&q, &BTreeMap::new(), 8);
    }

    #[test]
    #[should_panic(expected = "at least 2 servers")]
    fn single_server_panics() {
        let q = ConjunctiveQuery::triangle();
        optimal_share_exponents(&q, &equal_sizes(&q, 100), 1);
    }

    #[test]
    fn shares_for_query_convenience() {
        let q = ConjunctiveQuery::simple_join();
        let sizes = equal_sizes(&q, 1 << 16);
        let shares = shares_for_query(&q, &sizes, 16);
        // Simple join: all share on z.
        assert_eq!(shares["z"], 16);
        assert_eq!(shares["x1"], 1);
        assert_eq!(shares["x2"], 1);
    }
}
