//! The skew-aware algorithms take their statistics from the degree
//! catalogue (§4.2: "the degrees of the heavy hitters are available").
//!
//! Two contracts:
//!
//! * **the catalogue detector is the scan** — `heavy_hitters_of_variable`
//!   over the engine's *incrementally maintained* catalogue equals both the
//!   same function over a catalogue recomputed from scratch and an
//!   independent two-pass count over the bound relations, for star,
//!   triangle and repeated-variable queries, at divisors `p` and `p^{1/3}`,
//!   after a random number of `Engine::apply` deltas;
//! * **routing did not move** — the messages `route_star_skew_aware` and
//!   `route_triangle_skew_aware` emit (destinations, rows, raw statistics
//!   bits) and the resulting `RunMetrics` digest to the values recorded at
//!   the last commit that re-derived the statistics from the data on every
//!   run, on the fixtures of `skew_integration` and `engine_oracle`.

use pq_bench::{hub_triangle_database, matching_database_for_query, skewed_star_database};
use pq_core::hypercube::run_one_round;
use pq_core::skew::heavy::{heavy_hitters_of_variable, VariableHeavyHitters};
use pq_core::skew::star::route_star_skew_aware;
use pq_core::skew::triangle::route_triangle_skew_aware;
use pq_engine::{parse_query, Delta, Engine};
use pq_query::{bind_atom, ConjunctiveQuery};
use pq_relation::{Database, DatabaseStatistics, Relation, Schema, Tuple, Value};
use proptest::prelude::*;
use std::collections::HashMap;

mod common;
use common::{digest_messages, digest_metrics};

/// The detector as it was before the catalogue: bind every atom holding the
/// variable, count its column, threshold at `m_j / divisor`, then look the
/// union of heavy values up in every relation.
fn scanned_hitters(
    query: &ConjunctiveQuery,
    database: &Database,
    variable: &str,
    divisor: f64,
) -> VariableHeavyHitters {
    let counted: Vec<(String, usize, HashMap<Value, usize>)> = query
        .atoms()
        .iter()
        .filter(|atom| atom.contains(variable))
        .map(|atom| {
            let bound = bind_atom(atom, database.expect_relation(atom.relation()));
            let column = bound.schema().position(variable).expect("bound column");
            let mut counts = HashMap::new();
            for row in bound.iter() {
                *counts.entry(row[column]).or_insert(0usize) += 1;
            }
            (atom.relation().to_string(), bound.len(), counts)
        })
        .collect();
    let mut out = VariableHeavyHitters {
        variable: variable.to_string(),
        ..Default::default()
    };
    for (_, m, counts) in &counted {
        let threshold = *m as f64 / divisor;
        out.values.extend(
            counts
                .iter()
                .filter(|(_, &n)| n as f64 > threshold)
                .map(|(&v, _)| v),
        );
    }
    for (relation, _, counts) in counted {
        let of_heavy = out
            .values
            .iter()
            .map(|v| (*v, counts.get(v).copied().unwrap_or(0)))
            .collect();
        out.frequencies.insert(relation, of_heavy);
    }
    out
}

/// A tiny deterministic generator (xorshift64*), so the database and its
/// deltas derive from one proptest-chosen seed.
struct Xs(u64);

impl Xs {
    fn below(&mut self, span: u64) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) % span.max(1)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn catalogue_hitters_equal_a_scan_after_deltas(
        seed in 0u64..10_000,
        rows in 0usize..120,
        deltas in 0usize..6,
        p in 2usize..40,
    ) {
        // Three binary relations over a small, skewed domain: value
        // `v = min(draws)` makes small values frequent.
        let mut rng = Xs(seed + 1);
        let draw = |rng: &mut Xs| rng.below(12).min(rng.below(12));
        let mut database = Database::new(64);
        for name in ["R0", "R1", "R2"] {
            let mut relation = Relation::empty(Schema::from_strs(name, &["a", "b"]));
            for _ in 0..rows {
                relation.push_row(&[draw(&mut rng), draw(&mut rng)]);
            }
            database.insert(relation);
        }
        let engine = Engine::new(database, p);
        for _ in 0..deltas {
            let relation = format!("R{}", rng.below(3));
            let batch = (0..1 + rng.below(5))
                .map(|_| vec![draw(&mut rng), draw(&mut rng)])
                .collect();
            engine.apply(Delta::insert(relation, batch)).expect("valid delta");
        }
        let snapshot = engine.snapshot();
        let (database, maintained) = (snapshot.database(), snapshot.statistics());
        let recomputed = DatabaseStatistics::compute(database);
        for text in [
            "Q(z, a, b, c) :- R0(z, a), R1(z, b), R2(z, c)",
            "Q(x, y, z) :- R0(x, y), R1(z, y), R2(z, x)",
            "Q(x, y) :- R0(x, x), R1(x, y), R2(y, y)",
        ] {
            let query = parse_query(text).expect("parses").query;
            for variable in query.variables() {
                for divisor in [p as f64, (p as f64).powf(1.0 / 3.0)] {
                    let scanned = scanned_hitters(&query, database, &variable, divisor);
                    for statistics in [maintained, &recomputed] {
                        let read = heavy_hitters_of_variable(
                            &query, database, statistics, &variable, divisor,
                        );
                        prop_assert!(
                            read == scanned,
                            "{text}, {variable} at m/{divisor}: {read:?} vs scanned {scanned:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn star_routing_is_what_the_scanning_detector_produced() {
    // (k, m, heavy, data seed, p, hash seed, messages, metrics)
    for (k, m, heavy, seed, p, hash_seed, messages_digest, metrics_digest) in [
        (
            2usize,
            6000usize,
            400usize,
            17u64,
            64usize,
            19u64,
            0x77b65c44a1de3602u64,
            0xfd709b29904cc50bu64,
        ),
        (
            2,
            6000,
            1200,
            17,
            64,
            19,
            0x8176c72825c58802,
            0x4399e5079b16be72,
        ),
        (
            2,
            4000,
            1000,
            23,
            64,
            29,
            0xcfcf9af052a86a8f,
            0xa51a90d5a0cae0ac,
        ),
        (
            3,
            600,
            40,
            31,
            16,
            5,
            0xbb89271b30c8e5aa,
            0x52c963f5a563a5cf,
        ),
    ] {
        let query = match k {
            2 => ConjunctiveQuery::simple_join(),
            _ => ConjunctiveQuery::star(k),
        };
        let database = skewed_star_database(k, m, heavy, seed);
        let statistics = DatabaseStatistics::compute(&database);
        let (messages, hitters) =
            route_star_skew_aware(&query, &database, &statistics, p, hash_seed);
        assert_eq!(hitters, vec![0], "k={k} heavy={heavy}");
        assert_eq!(
            digest_messages(&messages),
            messages_digest,
            "k={k} heavy={heavy}"
        );
        let (_, metrics) = run_one_round(&query, &database, p, messages);
        assert_eq!(
            digest_metrics(&metrics),
            metrics_digest,
            "k={k} heavy={heavy}"
        );
    }
}

#[test]
fn triangle_routing_is_what_the_scanning_detector_produced() {
    // (m, hub, data seed, p, hash seed, messages, metrics, p^{1/3}-heavy)
    for (m, hub, seed, p, hash_seed, messages_digest, metrics_digest, hitters) in [
        (
            4000usize,
            40usize,
            37u64,
            64usize,
            41u64,
            0x70aa412c4feffb81u64,
            0x6e1c5413d2e762ddu64,
            vec![],
        ),
        (
            4000,
            400,
            37,
            64,
            41,
            0x7209cea4917cc251,
            0x4eb4742aaacb5fa9,
            vec![],
        ),
        (
            4000,
            2000,
            37,
            64,
            41,
            0x8323faad3f3d21e8,
            0xa4359739eabbcba4,
            vec![0],
        ),
    ] {
        let database = hub_triangle_database(m, hub, seed);
        let statistics = DatabaseStatistics::compute(&database);
        let (messages, heavy) = route_triangle_skew_aware(&database, &statistics, p, hash_seed);
        assert_eq!(heavy, hitters, "hub={hub}");
        assert_eq!(digest_messages(&messages), messages_digest, "hub={hub}");
        let (_, metrics) = run_one_round(&ConjunctiveQuery::triangle(), &database, p, messages);
        assert_eq!(digest_metrics(&metrics), metrics_digest, "hub={hub}");
    }
}

/// `engine_oracle`'s skewed fixture: a matching database plus a hub (value
/// 0, degree `m/8`) in the first column of every relation.
fn hub_database(query: &ConjunctiveQuery, m: usize, seed: u64) -> Database {
    let mut database = matching_database_for_query(query, m, seed);
    let domain = database.domain_size();
    for (j, atom) in query.atoms().iter().enumerate() {
        let relation = database
            .relation_mut(atom.relation())
            .expect("relation exists");
        for i in 0..(m / 8).max(8) as u64 {
            let mut row = vec![0u64; atom.arity()];
            for (c, cell) in row.iter_mut().enumerate().skip(1) {
                *cell = domain - 1 - (i * 7 + c as u64 + j as u64 * 977) % 3000;
            }
            relation.push(Tuple::new(row));
        }
        relation.dedup();
    }
    database
}

#[test]
fn engine_runs_account_what_the_scanning_detector_accounted() {
    let triangle = ConjunctiveQuery::triangle();
    let star = ConjunctiveQuery::star(3);
    // (query, text when it is not the query's own, m, data seed, p,
    //  strategy, rows, metrics)
    for (query, text, m, seed, p, strategy, rows, metrics_digest) in [
        (
            &triangle,
            None,
            300usize,
            41u64,
            16usize,
            "skew-aware triangle",
            0usize,
            0x43a52edaaee950e2u64,
        ),
        (
            &star,
            None,
            300,
            43,
            16,
            "skew-aware star",
            50653,
            0x447e1cab96207ac7,
        ),
        // Renamed variables, swapped columns: the canonical `S1..S3` layout
        // is not the stored one, so its statistics are the mapped ones.
        (
            &triangle,
            Some("Q(c, a, b) :- S1(a, b), S2(c, b), S3(c, a)"),
            300,
            47,
            27,
            "skew-aware triangle",
            0,
            0x3c37597eae41fd5d,
        ),
    ] {
        let text = text.map_or_else(|| query.to_string(), str::to_string);
        let engine = Engine::new(hub_database(query, m, seed), p).with_seed(7);
        let run = engine.session().run(&text).expect("runs");
        assert_eq!(run.plan.strategy.name(), strategy, "{text}");
        assert_eq!(run.outcome.output.len(), rows, "{text}");
        assert_eq!(
            digest_metrics(&run.outcome.metrics),
            metrics_digest,
            "{text}"
        );
    }
}
