//! The skew-aware one-round triangle algorithm (Section 4.2.2).
//!
//! For `C_3 = S_1(x_1,x_2), S_2(x_2,x_3), S_3(x_3,x_1)` with equal-ish sizes
//! `m`, the output triangles are split by where their values sit in the
//! frequency spectrum:
//!
//! * **all values light** (frequency `< m/p^{1/3}` in both adjacent
//!   relations): vanilla HyperCube with shares `(p^{1/3}, p^{1/3}, p^{1/3})`
//!   over the tuples whose endpoints are both light — load
//!   `Õ(M/p^{2/3})`;
//! * **Case 1 — two values of frequency `≥ m/p`**: for each variable pair,
//!   broadcast the (at most `p²`) tuples of their shared relation whose
//!   endpoints are both `m/p`-heavy, and hash-partition the two remaining
//!   relations (restricted to those heavy values) on the third variable —
//!   load `Õ(M/p + p²)`;
//! * **Case 2 — exactly one value of frequency `≥ m/p^{1/3}`, the rest
//!   `< m/p`**: for each such heavy value `h` of a variable, compute the
//!   residual query `R'(y), S(y,z), T'(z)` on a block of `p_h` servers
//!   allocated in proportion to `M_{R'}(h)·M_{T'}(h)`, giving overall load
//!   `Õ(max(M/p, √(Σ_h M_R(h) M_T(h) / p)))`.
//!
//! All three parts are routed within a single communication round; local
//! joins at each server produce the triangles, which are deduplicated.
//!
//! The algorithm is defined on the *roles* of the variables, not on a
//! stored layout: any triangle-shaped query is routed as it is written,
//! its atoms read where they are stored, whatever their names and column
//! order ([`triangle_roles`] says which variable plays `x_1`, `x_2`,
//! `x_3`). Statistics are given, as §4.2 assumes: [`route_triangle_skew_aware`]
//! reads both heavy-hitter levels from a [`DatabaseStatistics`] catalogue
//! and scans no data for them; [`run_triangle_skew_aware`], which has only
//! the database, analyses it once.

use crate::hypercube::{run_one_round, HyperCubeRouter};
use crate::shares;
use crate::skew::heavy::{all_heavy_hitters, VariableHeavyHitters};
use crate::skew::star::SkewAwareRun;
use crate::skew::{broadcast_statistics, Blocks};
use pq_mpc::{broadcast_relation, Message};
use pq_query::{instantiate, residual_query, Atom, ConjunctiveQuery};
use pq_relation::{Database, DatabaseStatistics, Relation, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Run the skew-aware triangle algorithm on `p` servers. The database must
/// contain binary relations `S1`, `S2`, `S3` matching
/// [`ConjunctiveQuery::triangle`]; it is analysed once for the degree
/// statistics the algorithm assumes known.
pub fn run_triangle_skew_aware(database: &Database, p: usize, seed: u64) -> SkewAwareRun {
    let query = ConjunctiveQuery::triangle();
    let statistics = DatabaseStatistics::compute(database);
    let (messages, heavy_hitters) =
        route_triangle_skew_aware(&query, database, &statistics, p, seed);
    let (output, metrics) = run_one_round(&query, database, p, messages);
    SkewAwareRun {
        output,
        metrics,
        heavy_hitters,
    }
}

/// The variables of a triangle query in the roles of `x1, x2, x3`: the
/// first atom's two variables in written order, then the third. `None`
/// when the query is not a triangle (three binary atoms over three
/// variables, every variable in exactly two atoms).
pub fn triangle_roles(query: &ConjunctiveQuery) -> Option<[String; 3]> {
    let vars = query.variables();
    let binary = |atom: &Atom| atom.arity() == 2 && atom.distinct_variables().len() == 2;
    if query.num_atoms() != 3
        || vars.len() != 3
        || !query.atoms().iter().all(binary)
        || vars.iter().any(|v| query.atoms_of(v).len() != 2)
    {
        return None;
    }
    let [v1, v2] = [0, 1].map(|i| query.atoms()[0].variables()[i].clone());
    let v3 = vars.into_iter().find(|v| *v != v1 && *v != v2)?;
    Some([v1, v2, v3])
}

/// Where the skew-aware triangle algorithm sends each tuple of the
/// triangle `query`'s relations: the single round's messages (statistics
/// broadcast plus the three parts above) and every `m/p^{1/3}`-heavy
/// value, read from the catalogue `statistics` of `database`. The
/// fragments are the query's own bound atoms, as stored.
///
/// # Panics
/// Panics when `query` is not a triangle (see [`triangle_roles`]).
pub fn route_triangle_skew_aware(
    query: &ConjunctiveQuery,
    database: &Database,
    statistics: &DatabaseStatistics,
    p: usize,
    seed: u64,
) -> (Vec<Message>, Vec<Value>) {
    let roles = triangle_roles(query)
        .unwrap_or_else(|| panic!("query `{}` is not a triangle", query.name()));
    let role = |i: usize| roles[i % 3].as_str();
    // The query's atoms in role order, atom `i` binding roles `i` and
    // `i + 1`: the routers see the variables in role order, and the atoms
    // bind the relations where they are stored.
    let edge = |i: usize| {
        let atom = query.atoms().iter().find(|a| a.contains(role(i)) && a.contains(role(i + 1)));
        atom.expect("a triangle binds every edge").clone()
    };
    let query = ConjunctiveQuery::new(query.name(), (0..3).map(edge).collect());
    let bound = instantiate(&query, database);

    // Heavy-hitter sets at the two thresholds of §4.2.2.
    let heavy_p = all_heavy_hitters(&query, database, statistics, p as f64);
    let heavy_cube = all_heavy_hitters(&query, database, statistics, (p as f64).powf(1.0 / 3.0));

    // Broadcast the heavy-hitter statistics.
    let stats_values: u64 = heavy_p
        .values()
        .chain(heavy_cube.values())
        .map(|hitters| hitters.values.len() as u64)
        .sum();
    let mut messages = broadcast_statistics(p, stats_values * 2 * database.bits_per_value());

    let var_positions = |rel: &Relation| -> Vec<(String, usize)> {
        rel.schema()
            .attributes()
            .iter()
            .map(|a| (a.clone(), rel.schema().position(a).expect("attr")))
            .collect()
    };
    let is_heavy = |map: &BTreeMap<String, VariableHeavyHitters>, var: &str, value: Value| {
        map.get(var).is_some_and(|hitters| hitters.is_heavy(value))
    };

    // ---- Part A: all endpoints light at the p^{1/3} level. ----
    {
        // Integer cube root of p (the largest c with c^3 <= p), computed
        // exactly to avoid the floating-point pitfall 64^(1/3) = 3.999…
        let cube = (1..=p).take_while(|c| c * c * c <= p).last().unwrap_or(1);
        let shares_a = roles.iter().map(|v| (v.clone(), cube)).collect();
        let router = HyperCubeRouter::new(&query, &shares_a, seed, 0, 0);
        let light: Vec<Relation> = bound
            .iter()
            .map(|r| {
                let positions = var_positions(r);
                r.filter(|t| {
                    positions
                        .iter()
                        .all(|(var, pos)| !is_heavy(&heavy_cube, var, t[*pos]))
                })
            })
            .collect();
        messages.extend(router.route_bound(&light));
    }

    // ---- Part B (Case 1): pairs of m/p-heavy values. ----
    // Pair (x_i, x_{i+1}) shares atom i; the remaining variable is x_{i+2}.
    for i in 0..3 {
        let (va, vb) = (role(i), role(i + 1));
        // Tuples of the shared relation with both endpoints m/p-heavy.
        let shared = &bound[i];
        let positions = var_positions(shared);
        let heavy_heavy = shared.filter(|t| {
            positions.iter().all(|(var, pos)| {
                let endpoint = var == va || var == vb;
                !endpoint || is_heavy(&heavy_p, var, t[*pos])
            })
        });
        if heavy_heavy.is_empty() {
            continue;
        }
        messages.extend(broadcast_relation(&heavy_heavy, p));

        // The other two relations, restricted to the heavy value of the pair
        // variable they contain, hashed on the third variable.
        let join_shares = BTreeMap::from([(role(i + 2).to_string(), p)]);
        let router = HyperCubeRouter::new(&query, &join_shares, seed, 40 + i * 7, 0);
        for (rel, pair_var) in [(&bound[(i + 1) % 3], vb), (&bound[(i + 2) % 3], va)] {
            let pos = rel
                .schema()
                .position(pair_var)
                .expect("relation contains its pair variable");
            let restricted = rel.filter(|t| is_heavy(&heavy_p, pair_var, t[pos]));
            // One pre-sized fragment per destination instead of one
            // single-tuple message per (row, destination) pair.
            messages.extend(router.route_relation(&restricted));
        }
    }

    // ---- Part C (Case 2): one p^{1/3}-heavy value, other endpoints light
    // at the m/p level. ----
    // For x_i: residual R'(x_{i+1}), S(x_{i+1}, x_{i+2}), T'(x_{i+2}) with
    // R = atom i, S = atom i+1, T = atom i+2.
    let mut blocks = Blocks::new(p);
    for i in 0..3 {
        let hv = role(i);
        let hitters: Vec<Value> = heavy_cube[hv].values.iter().copied().collect();
        if hitters.is_empty() {
            continue;
        }
        let (r, s, t) = (i, (i + 1) % 3, (i + 2) % 3);
        // Per-hitter products M_R(h)·M_T(h) for the allocation.
        let freq_of = |atom: usize, h: Value| heavy_cube[hv].frequency(bound[atom].name(), h) as f64;
        let products: Vec<f64> = hitters
            .iter()
            .map(|&h| (freq_of(r, h) * freq_of(t, h)).max(1.0))
            .collect();
        let total_product: f64 = products.iter().sum();
        // S with both endpoints light at the m/p level.
        let s_rel = {
            let positions = var_positions(&bound[s]);
            bound[s].filter(|t| {
                positions
                    .iter()
                    .all(|(var, pos)| !is_heavy(&heavy_p, var, t[*pos]))
            })
        };

        for (hi, &h) in hitters.iter().enumerate() {
            let p_h = ((p as f64 / hitters.len() as f64).ceil() as usize
                + (p as f64 * products[hi] / total_product).ceil() as usize)
                .clamp(1, p);
            // R' and T': the hitter, with a light other endpoint.
            let restrict = |rel: &Relation| -> Relation {
                let positions = var_positions(rel);
                rel.filter(|t| {
                    positions.iter().all(|(var, pos)| {
                        if var == hv {
                            t[*pos] == h
                        } else {
                            !is_heavy(&heavy_p, var, t[*pos])
                        }
                    })
                })
            };
            let r_prime = restrict(&bound[r]);
            let t_prime = restrict(&bound[t]);
            if r_prime.is_empty() || t_prime.is_empty() {
                continue;
            }
            let bits = database.bits_per_value();
            let mut sizes = [0u64; 3];
            for (atom, rel) in [(r, &r_prime), (s, &s_rel), (t, &t_prime)] {
                sizes[atom] = rel.size_bits(bits).max(1);
            }
            let block_shares = residual_shares(&roles, i, sizes, p_h);
            let router =
                HyperCubeRouter::new(&query, &block_shares, seed, 200 + i * 61 + hi * 3, 0);
            let residual = [r_prime, s_rel.clone(), t_prime];
            messages.extend(blocks.route(&router, &residual, p_h));
        }
    }

    let all_heavy: BTreeSet<Value> =
        heavy_cube.values().flat_map(|hitters| hitters.values.iter().copied()).collect();
    (messages, all_heavy.into_iter().collect())
}

/// The shares of Case 2's residual block for a heavy value of role
/// `heavy`: the share LP over the residual of `C_3` itself, with `sizes`
/// (in bits) per role atom, and share 1 on the heavy variable, keyed by
/// the query's variables in their roles. Solving over `C_3`'s own names
/// makes the integer rounding break ties in role order, so a renaming of
/// the query's variables never moves a tuple.
fn residual_shares(
    roles: &[String; 3],
    heavy: usize,
    sizes: [u64; 3],
    p_h: usize,
) -> BTreeMap<String, usize> {
    let canonical = ConjunctiveQuery::triangle();
    let x = canonical.variables();
    let mut block_shares = if p_h >= 2 {
        let residual = residual_query(&canonical, std::slice::from_ref(&x[heavy]));
        let sizes = canonical.relation_names().into_iter().zip(sizes).collect();
        shares::shares_for_query(&residual, &sizes, p_h)
    } else {
        BTreeMap::new()
    };
    block_shares.insert(x[heavy].clone(), 1);
    let role_of = |v: &str| x.iter().position(|xi| xi == v).expect("a variable of C_3");
    block_shares
        .into_iter()
        .map(|(v, share)| (roles[role_of(&v)].clone(), share))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercube::run_hypercube;
    use pq_query::evaluate_sequential;
    use pq_relation::{DataGenerator, Schema, Tuple};

    /// A triangle database where vertex 0 is a hub: it participates in
    /// `hub` edges of S1 (as x1) and `hub` edges of S3 (as the x1 side),
    /// and S2 connects the hub's neighbours so that `hub` triangles exist
    /// through the hub; the rest is a matching.
    fn hub_triangle_db(m: usize, hub: usize, seed: u64) -> Database {
        let mut gen = DataGenerator::new(seed, 1 << 22);
        let mut db = Database::new(1 << 22);
        let base = 1u64 << 20;
        // S1(x1, x2): hub edges (0, base+i) plus matching.
        let mut s1 = gen.matching_relation(Schema::from_strs("S1", &["a", "b"]), m - hub);
        for i in 0..hub as u64 {
            s1.push(Tuple::from([0, base + i]));
        }
        db.insert(s1);
        // S2(x2, x3): connect base+i to 2*base+i (so each hub neighbour has
        // exactly one continuation) plus matching.
        let mut s2 = gen.matching_relation(Schema::from_strs("S2", &["a", "b"]), m - hub);
        for i in 0..hub as u64 {
            s2.push(Tuple::from([base + i, 2 * base + i]));
        }
        db.insert(s2);
        // S3(x3, x1): close the triangle back to the hub.
        let mut s3 = gen.matching_relation(Schema::from_strs("S3", &["a", "b"]), m - hub);
        for i in 0..hub as u64 {
            s3.push(Tuple::from([2 * base + i, 0]));
        }
        db.insert(s3);
        db
    }

    #[test]
    fn matches_oracle_on_hub_skew() {
        let db = hub_triangle_db(400, 200, 3);
        let run = run_triangle_skew_aware(&db, 27, 7);
        let q = ConjunctiveQuery::triangle();
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert!(run.output.len() >= 200);
        assert!(run.heavy_hitters.contains(&0));
        assert_eq!(run.metrics.num_rounds(), 1);
    }

    #[test]
    fn matches_oracle_without_skew() {
        let mut gen = DataGenerator::new(5, 1 << 20);
        let db = gen.matching_database(&[
            (Schema::from_strs("S1", &["a", "b"]), 300),
            (Schema::from_strs("S2", &["a", "b"]), 300),
            (Schema::from_strs("S3", &["a", "b"]), 300),
        ]);
        let run = run_triangle_skew_aware(&db, 8, 11);
        let q = ConjunctiveQuery::triangle();
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert!(run.heavy_hitters.is_empty());
    }

    #[test]
    fn matches_oracle_with_two_heavy_endpoints() {
        // Force Case 1: a pair of hub vertices adjacent in S1.
        let mut gen = DataGenerator::new(9, 1 << 22);
        let mut db = Database::new(1 << 22);
        let m = 300usize;
        let hub = 60u64;
        let base = 1u64 << 20;
        // S1 contains the single heavy-heavy edge (0, 1).
        let mut s1 = gen.matching_relation(Schema::from_strs("S1", &["a", "b"]), m);
        s1.push(Tuple::from([0, 1]));
        db.insert(s1);
        // S2(x2=1, x3=base+i): vertex 1 is heavy in S2.
        let mut s2 = gen.matching_relation(Schema::from_strs("S2", &["a", "b"]), m);
        for i in 0..hub {
            s2.push(Tuple::from([1, base + i]));
        }
        db.insert(s2);
        // S3(x3=base+i, x1=0): vertex 0 is heavy in S3.
        let mut s3 = gen.matching_relation(Schema::from_strs("S3", &["a", "b"]), m);
        for i in 0..hub {
            s3.push(Tuple::from([base + i, 0]));
        }
        db.insert(s3);
        let run = run_triangle_skew_aware(&db, 16, 13);
        let q = ConjunctiveQuery::triangle();
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert!(run.output.len() >= hub as usize);
    }

    #[test]
    fn improves_on_vanilla_hypercube_under_extreme_skew() {
        // A single hub with most of the data: vanilla HC must pile the hub's
        // tuples onto a p^{1/3}-slice of the cube, the skew-aware algorithm
        // spreads the residual join over a whole block.
        let m = 3000;
        let db = hub_triangle_db(m, m / 2, 17);
        let p = 64;
        let q = ConjunctiveQuery::triangle();
        let vanilla = run_hypercube(&q, &db, p, 19);
        let aware = run_triangle_skew_aware(&db, p, 19);
        assert_eq!(
            vanilla.output.canonicalized(),
            aware.output.canonicalized()
        );
        assert!(
            (aware.metrics.max_load() as f64) < 0.8 * vanilla.metrics.max_load() as f64,
            "skew-aware {} not better than vanilla {}",
            aware.metrics.max_load(),
            vanilla.metrics.max_load()
        );
    }
}
