//! Golden digests of every in-process multi-round path: `execute_plan`'s
//! [`PlanRun`] (answer rows in order, per-round model account, round
//! views), the shuffle baselines' answers and accounts, and
//! `connected_components` under both strategies, on the fixtures of
//! `multiround_integration`, `multiround::plan`, `baselines` and
//! `multiround::connected`. The values were recorded before those paths
//! were rewritten over the one round primitive (`pq_core::round`), so a
//! match here says the simulator still runs the same program: the same
//! `received_bits` and `messages` in every round, and the same answer rows
//! — in the same order, except for the shuffle baselines, whose servers
//! run the generic local join, and `L16 fan 4`, whose 4-input operators the
//! block join plans once for all their servers (a shared input is the build
//! side, so rows come out in another order). Those answers are compared as
//! sets; their model accounts are pinned like every other.
//!
//! The block join also reorders the answers of `L5 bushy` and
//! `L5 left-deep`. Their ordered digests are pinned at the block join's
//! order, and their answers as sets are checked against the digests
//! recorded before it.

use pq_bench::{identity_chain_database, matching_database_for_query};
use pq_core::baselines::{
    broadcast_join, sequential_plan_join, shuffle_hash_join, single_server_join, BaselineRun,
};
use pq_core::multiround::connected::{connected_components, CcStrategy};
use pq_core::multiround::plan::{
    bushy_chain_plan, execute_plan, left_deep_plan, star_of_paths_plan, PlanNode, PlanRun,
};
use pq_engine::{parse_query, plan_query, run_plan, Snapshot};
use pq_query::ConjunctiveQuery;
use pq_relation::{DataGenerator, Database, Relation, Schema};

mod common;
use common::{digest_metrics, digest_relation, Fnv};

/// The fixture whose answer is compared as a set (see the module docs).
const ANSWER_AS_SET: &str = "L16 fan 4";

fn digest_plan_run(run: &PlanRun, answer_as_set: bool) -> u64 {
    let mut h = Fnv::new();
    if answer_as_set {
        h.u64(digest_relation(&run.output.canonicalized()));
    } else {
        h.u64(digest_relation(&run.output));
    }
    h.u64(digest_metrics(&run.metrics));
    for views in &run.round_views {
        h.u64(views.len() as u64);
        for view in views {
            h.str(view);
        }
    }
    h.0
}

/// The baselines' answers as sets: a shuffle join's servers run the
/// generic local join, which may build on either side, so only the row
/// order of their answers is free to differ.
fn digest_baseline(run: &BaselineRun) -> u64 {
    let mut h = Fnv::new();
    h.u64(digest_relation(&run.output.canonicalized()));
    h.u64(digest_metrics(&run.metrics));
    h.0
}

/// `multiround::plan`'s random chain fixture.
fn chain_db(k: usize, m: usize, seed: u64) -> Database {
    let mut gen = DataGenerator::new(seed, (m * 40) as u64);
    let specs: Vec<(Schema, usize)> = (1..=k)
        .map(|j| (Schema::from_strs(&format!("S{j}"), &["a", "b"]), m))
        .collect();
    gen.matching_database(&specs)
}

/// `baselines`' triangle fixture.
fn triangle_db(m: usize, seed: u64) -> Database {
    let mut gen = DataGenerator::new(seed, (m * 50) as u64);
    gen.matching_database(&[
        (Schema::from_strs("S1", &["a", "b"]), m),
        (Schema::from_strs("S2", &["a", "b"]), m),
        (Schema::from_strs("S3", &["a", "b"]), m),
    ])
}

/// Compare every `(name, actual)` against `expected`, reporting all
/// mismatches at once (with the actual values, ready to paste).
fn assert_digests(actual: &[(&str, u64)], expected: &[(&str, u64)]) {
    let mismatches: Vec<String> = actual
        .iter()
        .zip(expected)
        .filter(|((name, got), (want_name, want))| name != want_name || got != want)
        .map(|((name, got), _)| format!("(\"{name}\", {got:#018x}),"))
        .collect();
    assert!(
        mismatches.is_empty() && actual.len() == expected.len(),
        "digests moved:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn execute_plan_runs_are_unchanged() {
    let plan_fixtures = {
        let l8 = ConjunctiveQuery::chain(8);
        let l5 = ConjunctiveQuery::chain(5);
        let sp3 = ConjunctiveQuery::star_of_paths(3);
        let mut gen = DataGenerator::new(11, 20_000);
        let mut specs = Vec::new();
        for i in 1..=3 {
            specs.push((Schema::from_strs(&format!("R{i}"), &["a", "b"]), 200));
            specs.push((Schema::from_strs(&format!("S{i}"), &["a", "b"]), 200));
        }
        let sp3_db = gen.matching_database(&specs);
        let hand_built = PlanNode::join(
            "root",
            vec![
                PlanNode::join(
                    "left",
                    vec![
                        PlanNode::base("S1"),
                        PlanNode::base("S2"),
                        PlanNode::base("S3"),
                    ],
                ),
                PlanNode::join("right", vec![PlanNode::base("S4"), PlanNode::base("S5")]),
            ],
        );
        vec![
            (
                "L4 bushy",
                execute_plan(
                    &bushy_chain_plan(4, 2),
                    &ConjunctiveQuery::chain(4),
                    &identity_chain_database(4, 200),
                    8,
                    3,
                ),
            ),
            (
                "L8 random",
                execute_plan(&bushy_chain_plan(8, 2), &l8, &chain_db(8, 300, 5), 16, 7),
            ),
            (
                "L8 fan 2",
                execute_plan(
                    &bushy_chain_plan(8, 2),
                    &l8,
                    &identity_chain_database(8, 100),
                    16,
                    7,
                ),
            ),
            (
                "L8 fan 4",
                execute_plan(
                    &bushy_chain_plan(8, 4),
                    &l8,
                    &identity_chain_database(8, 100),
                    16,
                    7,
                ),
            ),
            (
                "SP3 p=12",
                execute_plan(&star_of_paths_plan(3), &sp3, &sp3_db, 12, 13),
            ),
            (
                "L5 bushy",
                execute_plan(
                    &bushy_chain_plan(5, 2),
                    &l5,
                    &identity_chain_database(5, 120),
                    8,
                    3,
                ),
            ),
            (
                "L5 left-deep",
                execute_plan(
                    &left_deep_plan(&l5),
                    &l5,
                    &identity_chain_database(5, 120),
                    8,
                    3,
                ),
            ),
            (
                "L8 load",
                execute_plan(
                    &bushy_chain_plan(8, 2),
                    &l8,
                    &chain_db(8, 2_000, 17),
                    16,
                    19,
                ),
            ),
            (
                "L16 fan 4",
                execute_plan(
                    &bushy_chain_plan(16, 4),
                    &ConjunctiveQuery::chain(16),
                    &identity_chain_database(16, 1_500),
                    64,
                    3,
                ),
            ),
            (
                "L5 hand-built",
                execute_plan(
                    &hand_built,
                    &l5,
                    &matching_database_for_query(&l5, 800, 13),
                    16,
                    17,
                ),
            ),
            (
                "SP3 p=60",
                execute_plan(
                    &star_of_paths_plan(3),
                    &sp3,
                    &matching_database_for_query(&sp3, 6_000, 19),
                    60,
                    23,
                ),
            ),
        ]
    };
    let actual: Vec<(&str, u64)> = plan_fixtures
        .iter()
        .map(|(name, run)| (*name, digest_plan_run(run, *name == ANSWER_AS_SET)))
        .collect();
    assert_digests(
        &actual,
        &[
            ("L4 bushy", 0x2e324ec55e150a05),
            ("L8 random", 0xcae9ebc73316ec6c),
            ("L8 fan 2", 0x28132901d29efa4f),
            ("L8 fan 4", 0x0b26dc9ec5a77da3),
            ("SP3 p=12", 0x5f4f7bd304aa1161),
            ("L5 bushy", 0x6a999a4546b6dbc3),
            ("L5 left-deep", 0x6fe077181a08f19c),
            ("L8 load", 0xd4672e3405f37ea1),
            ("L16 fan 4", 0x5dd68fa882e3d870),
            ("L5 hand-built", 0xf739ae8c7b49436a),
            ("SP3 p=60", 0x030d1f1e7027cd8b),
        ],
    );
    let reordered: Vec<(&str, u64)> = plan_fixtures
        .iter()
        .filter(|(name, _)| ["L5 bushy", "L5 left-deep"].contains(name))
        .map(|(name, run)| (*name, digest_plan_run(run, true)))
        .collect();
    assert_digests(
        &reordered,
        &[
            ("L5 bushy", 0x277ea8e91f1b381b),
            ("L5 left-deep", 0xe890610ba69ab251),
        ],
    );
}

#[test]
fn the_engines_multi_round_run_is_unchanged() {
    let parsed = parse_query("Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)").expect("parses");
    let database = matching_database_for_query(&parsed.query, 1_500, 21);
    let plan = plan_query(&parsed, &database, 64).expect("plans");
    assert_eq!(plan.strategy.name(), "multi-round bushy plan");
    let run = run_plan(&plan, &Snapshot::new(database), 23);
    let mut h = Fnv::new();
    h.u64(digest_relation(&run.output));
    h.u64(digest_metrics(&run.metrics));
    assert_digests(&[("engine L3", h.0)], &[("engine L3", 0xed2243722ff54798)]);
}

#[test]
fn baseline_runs_are_unchanged() {
    let chain4 = ConjunctiveQuery::chain(4);
    let chain4_db = DataGenerator::new(9, 100_000).matching_database(&[
        (Schema::from_strs("S1", &["a", "b"]), 300),
        (Schema::from_strs("S2", &["a", "b"]), 300),
        (Schema::from_strs("S3", &["a", "b"]), 300),
        (Schema::from_strs("S4", &["a", "b"]), 300),
    ]);
    let join = ConjunctiveQuery::simple_join();
    let mut identity_join_db = Database::new(400);
    for name in ["S1", "S2"] {
        identity_join_db.insert(Relation::from_rows(
            Schema::from_strs(name, &["a", "b"]),
            (0..400u64).map(|i| vec![i % 100, i]).collect(),
        ));
    }
    let mut skewed_join_db = Database::new(100_000);
    skewed_join_db.insert(Relation::from_rows(
        Schema::from_strs("S1", &["a", "b"]),
        (0..500u64).map(|i| vec![7, i]).collect(),
    ));
    skewed_join_db.insert(Relation::from_rows(
        Schema::from_strs("S2", &["a", "b"]),
        (0..500u64).map(|i| vec![7, 10_000 + i]).collect(),
    ));
    let triangle = ConjunctiveQuery::triangle();
    let runs = [
        (
            "sequential triangle",
            sequential_plan_join(&triangle, &triangle_db(200, 3), 8, 5),
        ),
        (
            "sequential L4",
            sequential_plan_join(&chain4, &chain4_db, 8, 5),
        ),
        (
            "shuffle identity",
            shuffle_hash_join(&join, &identity_join_db, 8, 11),
        ),
        (
            "shuffle skewed",
            shuffle_hash_join(&join, &skewed_join_db, 16, 13),
        ),
        (
            "single server",
            single_server_join(&triangle, &triangle_db(100, 1), 4),
        ),
        (
            "broadcast",
            broadcast_join(&triangle, &triangle_db(150, 2), 8),
        ),
    ];
    let actual: Vec<(&str, u64)> = runs
        .iter()
        .map(|(name, run)| (*name, digest_baseline(run)))
        .collect();
    assert_digests(
        &actual,
        &[
            ("sequential triangle", 0xf7468b14f6c394e7),
            ("sequential L4", 0xf45634c5f1f24e0c),
            ("shuffle identity", 0x261ce4cfbbfb613f),
            ("shuffle skewed", 0x12d8d0364fb19ce2),
            ("single server", 0x3a9b154ea18896f4),
            ("broadcast", 0x9b76f9b22edd6fcf),
        ],
    );
}

#[test]
fn connected_components_runs_are_unchanged() {
    let small = Relation::from_rows(
        Schema::from_strs("E", &["src", "dst"]),
        vec![vec![1, 2], vec![2, 3], vec![10, 11]],
    );
    let graphs = [
        ("small", small, 4usize, 7u64),
        (
            "layered 40x6",
            DataGenerator::new(3, 1 << 20).layered_matching_graph(40, 6),
            8,
            5,
        ),
        (
            "layered 20x32",
            DataGenerator::new(9, 1 << 20).layered_matching_graph(20, 32),
            8,
            5,
        ),
        (
            "layered 200x8",
            DataGenerator::new(13, 1 << 20).layered_matching_graph(200, 8),
            16,
            5,
        ),
    ];
    let mut actual = Vec::new();
    for (name, edges, p, seed) in &graphs {
        for strategy in [CcStrategy::Propagation, CcStrategy::PointerJumping] {
            let run = connected_components(edges, *p, *seed, strategy);
            let mut h = Fnv::new();
            h.u64(digest_relation(&run.labels));
            h.u64(digest_metrics(&run.metrics));
            h.u64(run.iterations as u64);
            actual.push((*name, h.0));
        }
    }
    assert_digests(
        &actual,
        &[
            ("small", 0x830fa4720560a2fa),
            ("small", 0x72d9e434408f5699),
            ("layered 40x6", 0x295316739bd4d51e),
            ("layered 40x6", 0xd29fef6f8d1e35c3),
            ("layered 20x32", 0x11e826b165477312),
            ("layered 20x32", 0x27f95c9561a42608),
            ("layered 200x8", 0xac957869240da6c9),
            ("layered 200x8", 0xe373c93043815122),
        ],
    );
}
