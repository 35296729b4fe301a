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
use pq_core::skew::triangle::{route_triangle_skew_aware, triangle_roles};
use pq_engine::{parse_query, Delta, Engine, ExecBackend, Strategy};
use pq_mpc::net::{ClusterConfig, LocalWorkers};
use pq_mpc::{Message, Payload};
use pq_query::{bind_atom, evaluate_sequential, ConjunctiveQuery};
use pq_relation::{load_database_dir, Database, DatabaseStatistics, Relation, Schema, Tuple, Value};
use proptest::prelude::*;
use std::collections::HashMap;

mod common;
use common::{digest_messages, digest_metrics, digest_relation, Fnv};

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
        let (messages, heavy) = route_triangle_skew_aware(
            &ConjunctiveQuery::triangle(),
            &database,
            &statistics,
            p,
            hash_seed,
        );
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

/// Every message in order — destination, relation, then each row with its
/// values in the order of `roles` (the variable each column binds), or a
/// raw payload's label and bits: what a router decided, whatever column
/// order the routed relation is stored in.
fn digest_routing(messages: &[Message], roles: &[String]) -> u64 {
    let mut h = Fnv::new();
    for message in messages {
        h.u64(message.to as u64);
        match &message.payload {
            Payload::Tuples(fragment) => {
                h.str(fragment.name());
                let columns: Vec<usize> = roles
                    .iter()
                    .filter_map(|role| fragment.schema().position(role))
                    .collect();
                h.u64(fragment.len() as u64);
                for row in fragment.iter() {
                    for &c in &columns {
                        h.u64(row[c]);
                    }
                }
            }
            Payload::Raw { label, bits } => {
                h.str(label);
                h.u64(*bits);
            }
        }
    }
    h.0
}

/// The messages of both skew-aware routers, pinned to the digests recorded
/// before the triangle routed the user's atoms in place: on this file's
/// fixtures the parent routed the same relations; for the engine queries
/// it routed a re-laid-out copy (`S1..S3`, columns in role order), and
/// the digests read its fragments under the user's relation names. So
/// renamed variables, permuted atoms and swapped stored columns leave
/// every row where the copy sent it.
#[test]
fn skew_routing_messages_are_the_canonical_copys() {
    for ((k, m, heavy, seed, p, hash_seed), digest) in [
        ((2usize, 6000usize, 400usize, 17u64, 64usize, 19u64), 0xf323915a735288e2u64),
        ((2, 6000, 1200, 17, 64, 19), 0x209a043d47c8977e),
        ((2, 4000, 1000, 23, 64, 29), 0xa55e00585031de8f),
        ((3, 600, 40, 31, 16, 5), 0x3cd873bc39ffe562),
    ] {
        let query = match k {
            2 => ConjunctiveQuery::simple_join(),
            _ => ConjunctiveQuery::star(k),
        };
        let database = skewed_star_database(k, m, heavy, seed);
        let statistics = DatabaseStatistics::compute(&database);
        let (messages, _) = route_star_skew_aware(&query, &database, &statistics, p, hash_seed);
        assert_eq!(digest_routing(&messages, &query.variables()), digest, "k={k} heavy={heavy}");
    }
    let star = ConjunctiveQuery::star(3);
    let database = hub_database(&star, 300, 43);
    let statistics = DatabaseStatistics::compute(&database);
    let (messages, _) = route_star_skew_aware(&star, &database, &statistics, 16, 7);
    assert_eq!(digest_routing(&messages, &star.variables()), 0xc300cb8b2e3f4119);

    let triangle = ConjunctiveQuery::triangle();
    let (hubs, engine) = (
        [
            (40usize, 0x322c73eb3850ba81u64),
            (400, 0x8343ff06303a9ab1),
            (2000, 0xb41b2a136a12e64c),
        ],
        [
            ("Q(x1, x2, x3) :- S1(x1, x2), S2(x2, x3), S3(x3, x1)", 41u64, 16usize, 0x16e90e3426cdc151u64),
            ("Q(c, a, b) :- S1(a, b), S2(c, b), S3(c, a)", 47, 27, 0x44e1374ee116f70a),
            ("Q(x, y, z) :- S2(y, z), S3(z, x), S1(x, y)", 47, 27, 0xd5264014c906f6d0),
            ("Q(b, c, a) :- S3(a, c), S1(b, a), S2(c, b)", 41, 16, 0x38cb15c11ddc00b1),
        ],
    );
    for (hub, digest) in hubs {
        let database = hub_triangle_database(4000, hub, 37);
        let statistics = DatabaseStatistics::compute(&database);
        let (messages, _) = route_triangle_skew_aware(&triangle, &database, &statistics, 64, 41);
        assert_eq!(digest_routing(&messages, &triangle.variables()), digest, "hub={hub}");
    }
    for (text, seed, p, digest) in engine {
        let query = parse_query(text).expect("parses").query;
        let roles = triangle_roles(&query).expect("a triangle");
        let database = hub_database(&triangle, 300, seed);
        let statistics = DatabaseStatistics::compute(&database);
        let (messages, _) = route_triangle_skew_aware(&query, &database, &statistics, p, 7);
        assert_eq!(digest_routing(&messages, &roles), digest, "{text}");
    }
}

/// A skewed triangle written with its atoms permuted, over data storing one
/// relation with its columns swapped, is the same triangle: on the
/// simulator and on 1 and 3 workers it answers the oracle's set with the
/// model account of the query in role order over the unswapped data.
#[test]
fn a_permuted_triangle_over_swapped_columns_accounts_like_the_role_order_one() {
    let in_order = "Q(x1, x2, x3) :- S1(x1, x2), S2(x2, x3), S3(x3, x1)";
    let permuted = "Q(x1, x2, x3) :- S1(x1, x2), S3(x3, x1), S2(x3, x2)";
    let database = hub_triangle_database(600, 200, 3);
    let mut swapped = database.clone();
    let columns = ["b".to_string(), "a".to_string()];
    swapped.insert(database.expect_relation("S2").project(&columns, "S2"));
    let oracle = evaluate_sequential(&ConjunctiveQuery::triangle(), &database)
        .canonicalized()
        .to_tuples();
    assert_eq!(oracle.len(), 200);
    let reference = Engine::new(database, 16).session().run(in_order).expect("runs");
    assert_eq!(reference.plan.strategy, Strategy::SkewAwareTriangle);
    assert_eq!(reference.outcome.output.canonicalized().to_tuples(), oracle);

    let engine = Engine::new(swapped, 16);
    let workers = [1, 3].map(|w| LocalWorkers::spawn(w).expect("spawn local workers"));
    let clusters = workers
        .iter()
        .map(|w| ExecBackend::cluster(ClusterConfig::new(w.addresses().to_vec())));
    for backend in [ExecBackend::Simulator].into_iter().chain(clusters) {
        let mut session = engine.session();
        session.set_backend(backend);
        let run = session.run(permuted).expect("runs");
        assert_eq!(run.plan.strategy, Strategy::SkewAwareTriangle);
        assert_eq!(run.outcome.output.canonicalized().to_tuples(), oracle);
        assert_eq!(
            digest_metrics(&run.outcome.metrics),
            digest_metrics(&reference.outcome.metrics)
        );
    }
    for w in workers {
        w.shutdown();
    }
}

/// `data/sample`'s skewed triangle in written and in permuted atom order:
/// the EXPLAIN text and the model account recorded before the triangle
/// routed the user's atoms in place, and the same 260 triangles.
#[test]
fn the_sample_triangle_explains_and_accounts_as_recorded() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/sample");
    let (database, _) = load_database_dir(&dir).expect("the sample loads");
    let engine = Engine::new(database, 16);
    for (text, explain_digest, metrics_digest) in [
        (
            "T(x, y, z) :- H1(x, y), H2(y, z), H3(z, x)",
            0x80660c73412f9e7fu64,
            0xf2c1c830d2c5654bu64,
        ),
        (
            "T(x, y, z) :- H2(y, z), H3(z, x), H1(x, y)",
            0x58cc3d0924f70d6a,
            0x315d79925b440118,
        ),
    ] {
        let session = engine.session();
        let mut explain = Fnv::new();
        explain.str(&session.explain(text).expect("explains"));
        let run = session.run(text).expect("runs");
        assert_eq!(explain.0, explain_digest, "{text}");
        assert_eq!(digest_metrics(&run.outcome.metrics), metrics_digest, "{text}");
        let answer = run.outcome.output.canonicalized();
        assert_eq!(answer.len(), 260, "{text}");
        assert_eq!(digest_relation(&answer), 0x28b5e2b641057c04, "{text}");
    }
}
