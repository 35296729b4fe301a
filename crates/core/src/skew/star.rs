//! The skew-aware one-round algorithm for star queries (Section 4.2.1).
//!
//! For `T_k = S_1(z, x_1), …, S_k(z, x_k)` with known `z`-statistics:
//!
//! * **light tuples** (`z` not a heavy hitter) are handled by the vanilla
//!   HyperCube with shares `p_z = p`, `p_{x_j} = 1` — i.e. a plain hash
//!   partition on `z`, whose load is `O(max_j M_j / p)` w.h.p. because no
//!   light value exceeds frequency `m_j/p`;
//! * **heavy hitters** `h` are each given a block of `p_h` servers sized in
//!   proportion to the cost of their residual query (the Cartesian product
//!   of the `σ_{z=h}` selections), aggregated over the 0/1 edge packings of
//!   the residual query exactly as in the paper's allocation `p_{h,u}`; the
//!   residual product is computed by HyperCube on that block.
//!
//! Everything happens in a *single* communication round; the measured load
//! matches the heavy-hitter bound of Eq. 20 up to constants, which
//! Theorem 4.4 shows is unavoidable.
//!
//! Statistics are given, as §4.2 assumes: [`route_star_skew_aware`] reads
//! the `z`-degrees from a [`DatabaseStatistics`] catalogue and scans no
//! data for them; [`run_star_skew_aware`], which has only the database,
//! analyses it once.

use crate::hypercube::{run_one_round, HyperCubeRouter};
use crate::shares;
use crate::skew::heavy::{heavy_hitters_of_variable, VariableHeavyHitters};
use crate::skew::{broadcast_statistics, Blocks};
use pq_mpc::{Message, RunMetrics};
use pq_query::{instantiate, residual::residual_query, ConjunctiveQuery};
use pq_relation::{Database, DatabaseStatistics, Relation, Value};
use std::collections::BTreeMap;

/// Result of a skew-aware run.
#[derive(Debug, Clone)]
pub struct SkewAwareRun {
    /// The query answer.
    pub output: Relation,
    /// Communication metrics (a single round plus the statistics broadcast
    /// accounted inside it).
    pub metrics: RunMetrics,
    /// The detected heavy hitters of the join variable.
    pub heavy_hitters: Vec<Value>,
}

/// Identify the centre variable of a star query: the unique variable that
/// appears in every atom.
///
/// # Panics
/// Panics when the query is not a star (no variable is shared by all atoms,
/// or some atom is not binary over the centre and a private variable).
pub fn star_center(query: &ConjunctiveQuery) -> String {
    let candidates: Vec<String> = query
        .variables()
        .into_iter()
        .filter(|v| query.atoms().iter().all(|a| a.contains(v)))
        .collect();
    assert!(
        !candidates.is_empty(),
        "query `{}` is not a star: no variable occurs in every atom",
        query.name()
    );
    for atom in query.atoms() {
        assert!(
            atom.arity() == 2 && atom.distinct_variables().len() == 2,
            "star algorithm expects binary atoms, got `{atom}`"
        );
    }
    candidates[0].clone()
}

/// Run the skew-aware star-query algorithm on `p` servers, analysing the
/// database once for the degree statistics the algorithm assumes known.
pub fn run_star_skew_aware(
    query: &ConjunctiveQuery,
    database: &Database,
    p: usize,
    seed: u64,
) -> SkewAwareRun {
    let statistics = DatabaseStatistics::compute(database);
    let (messages, heavy_hitters) = route_star_skew_aware(query, database, &statistics, p, seed);
    let (output, metrics) = run_one_round(query, database, p, messages);
    SkewAwareRun {
        output,
        metrics,
        heavy_hitters,
    }
}

/// Where the skew-aware star algorithm sends each tuple: the single
/// round's messages (statistics broadcast, light hash partition, one
/// residual HyperCube block per heavy hitter) and the heavy hitters of the
/// centre variable, read from the catalogue `statistics` of `database`.
pub fn route_star_skew_aware(
    query: &ConjunctiveQuery,
    database: &Database,
    statistics: &DatabaseStatistics,
    p: usize,
    seed: u64,
) -> (Vec<Message>, Vec<Value>) {
    let z = star_center(query);
    let bound = instantiate(query, database);
    let hitters = heavy_hitters_of_variable(query, database, statistics, &z, p as f64);

    // Broadcast the heavy-hitter statistics (O(p) values) to every server.
    let stats_bits = hitters
        .frequencies
        .values()
        .map(|m| m.len() as u64 * 2 * database.bits_per_value())
        .sum::<u64>();
    let mut messages = broadcast_statistics(p, stats_bits);

    // ---- Light part: hash partition on z over all p servers. ----
    let mut light_shares = BTreeMap::new();
    light_shares.insert(z.clone(), p);
    let light_router = HyperCubeRouter::new(query, &light_shares, seed, 0, 0);
    let z_positions: Vec<usize> = bound
        .iter()
        .map(|r| r.schema().position(&z).expect("star relation binds z"))
        .collect();
    let light: Vec<Relation> = bound
        .iter()
        .zip(z_positions.iter())
        .map(|(r, &pos)| r.filter(|t| !hitters.is_heavy(t[pos])))
        .collect();
    messages.extend(light_router.route_bound(&light));

    // ---- Heavy part: per-hitter residual Cartesian products. ----
    let residual = residual_query(query, std::slice::from_ref(&z));
    let heavy_values: Vec<Value> = hitters.values.iter().copied().collect();
    let allocations = heavy_allocations(query, &hitters, &heavy_values, database, p);
    let mut blocks = Blocks::new(p);
    for (idx, &h) in heavy_values.iter().enumerate() {
        let p_h = allocations[idx].min(p).max(1);
        // Residual relation sizes M_j(h) in bits.
        let residual_sizes: BTreeMap<String, u64> = query
            .atoms()
            .iter()
            .map(|a| {
                let freq = hitters.frequency(a.relation(), h) as u64;
                (
                    a.relation().to_string(),
                    (freq * a.arity() as u64 * database.bits_per_value()).max(1),
                )
            })
            .collect();
        // Shares over the residual (non-z) variables.
        let mut block_shares = if p_h >= 2 {
            shares::shares_for_query(&residual, &residual_sizes, p_h)
        } else {
            BTreeMap::new()
        };
        block_shares.insert(z.clone(), 1);
        let router = HyperCubeRouter::new(query, &block_shares, seed, 10 + idx * 31, 0);
        let selected: Vec<Relation> = bound
            .iter()
            .zip(z_positions.iter())
            .map(|(r, &pos)| r.filter(|t| t[pos] == h))
            .collect();
        messages.extend(blocks.route(&router, &selected, p_h));
    }

    (messages, heavy_values)
}

/// The paper's per-hitter server allocation: for every 0/1 packing `u` of
/// the residual Cartesian product (every non-empty subset of atoms),
/// `p_{h,u} = ⌈p · Π_{j∈u} M_j(h) / Σ_{h'} Π_{j∈u} M_j(h')⌉`, and
/// `p_h = Σ_u p_{h,u}`.
fn heavy_allocations(
    query: &ConjunctiveQuery,
    hitters: &VariableHeavyHitters,
    heavy_values: &[Value],
    database: &Database,
    p: usize,
) -> Vec<usize> {
    let l = query.num_atoms();
    let bits = database.bits_per_value();
    let size = |relation: &str, h: Value| -> f64 {
        hitters.frequency(relation, h) as f64 * 2.0 * bits as f64
    };
    let mut allocations = vec![0usize; heavy_values.len()];
    for mask in 1u64..(1u64 << l) {
        let members: Vec<&str> = query
            .atoms()
            .iter()
            .enumerate()
            .filter(|(j, _)| mask & (1 << j) != 0)
            .map(|(_, a)| a.relation())
            .collect();
        let scores: Vec<f64> = heavy_values
            .iter()
            .map(|&h| members.iter().map(|r| size(r, h)).product())
            .collect();
        let total: f64 = scores.iter().sum();
        if total <= 0.0 {
            continue;
        }
        for (i, &score) in scores.iter().enumerate() {
            allocations[i] += (p as f64 * score / total).ceil() as usize;
        }
    }
    for a in allocations.iter_mut() {
        *a = (*a).max(1);
    }
    allocations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::shuffle_hash_join;
    use crate::bounds::skew_bounds::star_heavy_hitter_bound;
    use pq_query::evaluate_sequential;
    use pq_relation::{DataGenerator, Schema};

    /// A star database where value 0 of z carries `heavy` tuples in every
    /// relation, and the remaining tuples form matchings.
    fn skewed_star_db(k: usize, m: usize, heavy: usize, seed: u64) -> Database {
        let mut gen = DataGenerator::new(seed, 1 << 22);
        let mut db = Database::new(1 << 22);
        for j in 1..=k {
            let light = gen.matching_relation(
                Schema::from_strs(&format!("S{j}"), &["a", "b"]),
                m - heavy,
            );
            let mut rel = light;
            for i in 0..heavy {
                rel.push(pq_relation::Tuple::from([
                    0,
                    (1 << 21) as u64 + (j * m + i) as u64,
                ]));
            }
            db.insert(rel);
        }
        db
    }

    #[test]
    fn star_center_detection() {
        assert_eq!(star_center(&ConjunctiveQuery::star(3)), "z");
        assert_eq!(star_center(&ConjunctiveQuery::simple_join()), "z");
    }

    #[test]
    #[should_panic(expected = "not a star")]
    fn non_star_query_is_rejected() {
        star_center(&ConjunctiveQuery::chain(3));
    }

    #[test]
    fn matches_oracle_on_skewed_simple_join() {
        let q = ConjunctiveQuery::simple_join();
        let db = skewed_star_db(2, 600, 60, 3);
        let run = run_star_skew_aware(&q, &db, 16, 7);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert!(run.heavy_hitters.contains(&0));
        assert_eq!(run.metrics.num_rounds(), 1);
    }

    #[test]
    fn matches_oracle_on_skewed_three_way_star() {
        let q = ConjunctiveQuery::star(3);
        let db = skewed_star_db(3, 300, 45, 11);
        let run = run_star_skew_aware(&q, &db, 12, 13);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
    }

    #[test]
    fn matches_oracle_without_skew() {
        let q = ConjunctiveQuery::simple_join();
        let db = skewed_star_db(2, 500, 1, 17);
        let run = run_star_skew_aware(&q, &db, 8, 19);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert!(run.heavy_hitters.is_empty());
    }

    #[test]
    fn beats_the_standard_hash_join_under_heavy_skew() {
        // Example 4.1: the standard hash join piles the heavy hitter onto a
        // single server (load ~ M); the skew-aware algorithm splits the
        // residual product across a block.
        let q = ConjunctiveQuery::simple_join();
        let m = 2000;
        let db = skewed_star_db(2, m, m / 2, 23);
        let p = 16;
        let skew_aware = run_star_skew_aware(&q, &db, p, 29);
        let hash_join = shuffle_hash_join(&q, &db, p, 29);
        assert_eq!(
            skew_aware.output.canonicalized(),
            hash_join.output.canonicalized()
        );
        assert!(
            skew_aware.metrics.max_load() * 2 < hash_join.metrics.max_load(),
            "skew-aware {} not clearly better than hash join {}",
            skew_aware.metrics.max_load(),
            hash_join.metrics.max_load()
        );
    }

    #[test]
    fn load_tracks_the_eq_20_bound() {
        let q = ConjunctiveQuery::simple_join();
        let m = 3000;
        let heavy = 1200;
        let db = skewed_star_db(2, m, heavy, 31);
        let p = 16;
        let run = run_star_skew_aware(&q, &db, p, 37);
        // Heavy-hitter bound of Eq. 20 plus the light-part term max_j M_j/p.
        let bits = db.bits_per_value() as f64;
        let maps = [
            BTreeMap::from([(0u64, heavy as f64 * 2.0 * bits)]),
            BTreeMap::from([(0u64, heavy as f64 * 2.0 * bits)]),
        ];
        let bound = star_heavy_hitter_bound(&maps, p)
            .max(db.relation_size_bits("S1") as f64 / p as f64);
        let measured = run.metrics.max_load() as f64;
        assert!(
            measured <= 8.0 * bound,
            "measured {measured} far above bound {bound}"
        );
        assert!(measured >= 0.2 * bound, "measured {measured} suspiciously small vs {bound}");
    }
}
