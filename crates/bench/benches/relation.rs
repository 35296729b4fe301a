//! Criterion microbenchmark for the storage layer in isolation: binary and
//! 3-way natural joins and hash partitioning over matching relations at
//! m ∈ {10k, 100k}, a selective binary join (≈ 1 % of probe keys match),
//! and the local joins of one HyperCube round — the
//! 64 servers of the 4×4×4 triangle grid as one block join against every
//! server joining alone — and the HyperCube round's routing that feeds
//! them, per logical server and folded onto two workers; the merge of a
//! round's 128 star-join answers into one set, against appending them and
//! deduplicating; and the CSV load that builds the value dictionary of
//! `pqd`'s cold start. Baselines live in
//! `BENCH_relation.json`, so
//! regressions in `pq-relation`'s flat row storage or the join/shuffle hot
//! path show up independently of planning and the end-to-end engine
//! pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pq_core::hypercube::HyperCubeRouter;
use pq_mpc::{map_servers_parallel, partition_by_hash, Cluster};
use pq_query::{instantiate, ConjunctiveQuery};
use pq_relation::{
    load_database_files, mix64, natural_join, natural_join_all, natural_join_block, DataGenerator,
    MultiplyShiftHash, Relation, Schema,
};
use std::collections::BTreeMap;

/// A chain of `k` identity matchings S1(x0,x1), …, Sk(x{k-1},xk) of `m`
/// rows each: every join step matches 1:1, so intermediate sizes stay `m`
/// and the benchmark isolates per-row costs rather than output explosion.
fn identity_chain(k: usize, m: usize) -> Vec<Relation> {
    (1..=k)
        .map(|j| {
            Relation::from_rows(
                Schema::from_strs(
                    &format!("S{j}"),
                    &[&format!("x{}", j - 1), &format!("x{j}")],
                ),
                (0..m as u64).map(|i| vec![i, i]).collect(),
            )
        })
        .collect()
}

fn bench_relation(c: &mut Criterion) {
    let mut group = c.benchmark_group("relation");
    group.sample_size(10);
    for m in [10_000usize, 100_000] {
        let chain = identity_chain(3, m);

        group.bench_with_input(BenchmarkId::new("binary_join", m), &chain, |b, chain| {
            b.iter(|| natural_join(&chain[0], &chain[1]).len())
        });

        group.bench_with_input(BenchmarkId::new("three_way_join", m), &chain, |b, chain| {
            b.iter(|| natural_join_all(chain).len())
        });

        let mut gen = DataGenerator::new(11, (m as u64) * 16);
        let skewless = gen.matching_relation(Schema::from_strs("R", &["x", "y"]), m);
        let family = MultiplyShiftHash::new(5);
        group.bench_with_input(
            BenchmarkId::new("hash_partition_p16", m),
            &skewless,
            |b, rel| {
                b.iter(|| {
                    partition_by_hash(rel, "x", 16, &family, 0)
                        .iter()
                        .map(Relation::len)
                        .sum::<usize>()
                })
            },
        );
    }
    // Two random matchings of 32 000 rows over a domain 100 times as wide:
    // ≈ 1 % of the probe keys find a match, the shape of a worker's first
    // join step on the triangle. Beside `binary_join`'s 1:1 hits it benches
    // the other side of the probe's key-filter rule.
    let m = 32_000;
    let mut gen = DataGenerator::new(13, (m as u64) * 100);
    let left = gen.matching_relation(Schema::from_strs("R", &["x", "y"]), m);
    let right = gen.matching_relation(Schema::from_strs("S", &["y", "z"]), m);
    group.bench_with_input(
        BenchmarkId::new("selective_join", m),
        &(left, right),
        |b, (left, right)| b.iter(|| natural_join(left, right).len()),
    );
    group.finish();
}

/// The triangle over random matchings of `m` rows bound to its query
/// variables, its router on the 4×4×4 grid of 64 servers, and the model's
/// bits per value.
fn triangle_routing(m: usize) -> (ConjunctiveQuery, Vec<Relation>, HyperCubeRouter, u64) {
    let query = ConjunctiveQuery::triangle();
    let database = DataGenerator::new(11, (m as u64) * 16).matching_database(&[
        (Schema::from_strs("S1", &["a", "b"]), m),
        (Schema::from_strs("S2", &["a", "b"]), m),
        (Schema::from_strs("S3", &["a", "b"]), m),
    ]);
    let shares: BTreeMap<String, usize> = query.variables().into_iter().map(|v| (v, 4)).collect();
    let router = HyperCubeRouter::new(&query, &shares, 7, 0, 0);
    let bound = instantiate(&query, &database);
    (query, bound, router, database.bits_per_value())
}

/// The triangle's round of [`triangle_routing`] delivered to 64 simulated
/// servers: each fragment buffer is held by the 4 servers of its subcube.
fn triangle_grid(m: usize) -> (ConjunctiveQuery, Cluster) {
    let (query, bound, router, bits_per_value) = triangle_routing(m);
    let mut cluster = Cluster::new(64, bits_per_value);
    cluster.communicate(router.route_bound(&bound));
    (query, cluster)
}

fn bench_block_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("relation");
    group.sample_size(10);
    let m = 64_000;
    let (query, cluster) = triangle_grid(m);
    let fragments: Vec<Vec<&Relation>> = cluster
        .servers()
        .iter()
        .map(|server| {
            query
                .atoms()
                .iter()
                .map(|atom| server.fragment(atom.relation()).expect("every cell is hit"))
                .collect()
        })
        .collect();
    group.bench_with_input(
        BenchmarkId::new("block_join", m),
        &fragments,
        |b, fragments| b.iter(|| natural_join_block(fragments, |joined| joined.len())),
    );
    group.bench_with_input(
        BenchmarkId::new("per_server_join", m),
        &fragments,
        |b, fragments| {
            b.iter(|| map_servers_parallel(fragments, |_, inputs| natural_join_all(inputs).len()))
        },
    );
    group.finish();
}

/// HyperCube routing of the triangle round on the process-wide pool: one
/// message per (server, relation) (`route_bound`, what the simulator
/// backend ships) and one fragment per (worker, relation) for two workers
/// (`route_folded`, what the cluster coordinator ships).
fn bench_hypercube_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("relation");
    group.sample_size(10);
    let m = 64_000;
    let (_, bound, router, bits_per_value) = triangle_routing(m);
    let pool = pq_exec::global();
    group.bench_with_input(BenchmarkId::new("hypercube_route", m), &bound, |b, bound| {
        b.iter(|| pool.install(|| router.route_bound(bound).len()))
    });
    group.bench_with_input(BenchmarkId::new("hypercube_fold", m), &bound, |b, bound| {
        b.iter(|| pool.install(|| router.route_folded(bound, 64, 2, bits_per_value).messages))
    });
    group.finish();
}

/// The `star_skew_wide` answer Q(x, a, b) as `servers` answers: a heavy
/// hitter's 160 × 160 cross product plus 15 840 one-to-one matches, 41 440
/// rows, each on the one server a hash of the row picks — disjoint parts,
/// as the skew-aware star's servers produce them.
fn star_answer_parts(servers: usize) -> Vec<Relation> {
    let (degree, light) = (160u64, 15_840u64);
    let heavy = (0..degree * degree).map(|i| [0, 1 + i / degree, 1_000 + i % degree]);
    let matches = (0..light).map(|i| [10_000 + i, 100_000 + i, 200_000 + i]);
    let mut parts = vec![Vec::new(); servers];
    for row in heavy.chain(matches) {
        let server = mix64(row[1] ^ row[2].rotate_left(32)) % servers as u64;
        parts[server as usize].extend_from_slice(&row);
    }
    parts
        .into_iter()
        .map(|values| {
            let schema = Schema::from_strs("Q", &["x", "a", "b"]);
            Relation::from_values(schema, values.len() / 3, values)
        })
        .collect()
}

/// One round's merge on the `star_skew_wide` shape: `union_distinct` over
/// the 128 servers' answers, and the append-all-then-`dedup` it replaced.
fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("relation");
    group.sample_size(10);
    let parts = star_answer_parts(128);
    let rows: usize = parts.iter().map(Relation::len).sum();
    let schema = Schema::from_strs("Q", &["x", "a", "b"]);
    group.bench_with_input(BenchmarkId::new("union_distinct", rows), &parts, |b, parts| {
        b.iter(|| Relation::union_distinct(schema.clone(), parts).len())
    });
    group.bench_with_input(BenchmarkId::new("append_dedup", rows), &parts, |b, parts| {
        b.iter(|| {
            let mut all = Relation::empty(schema.clone());
            for part in parts {
                all.append(part);
            }
            all.dedup();
            all.len()
        })
    });
    group.finish();
}

/// `load_database_files` over the triangle's three random matchings of
/// 64 000 rows written as CSV, each value a `v` + 7 hex-digit token (the
/// `tri_sim` input shape: 384 000 fields, ≈ 97 % of them distinct tokens).
fn bench_csv_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("relation");
    group.sample_size(10);
    let m = 64_000;
    let dir = std::env::temp_dir().join(format!("pq-bench-csv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creates the input dir");
    let mut gen = DataGenerator::new(17, (m as u64) * 64);
    for (name, columns) in [("S1", ["x", "y"]), ("S2", ["y", "z"]), ("S3", ["z", "x"])] {
        let relation = gen.matching_relation(Schema::from_strs(name, &columns), m);
        let mut text = format!("{},{}\n", columns[0], columns[1]);
        for row in relation.iter() {
            text.push_str(&format!("v{:07x},v{:07x}\n", row[0], row[1]));
        }
        std::fs::write(dir.join(format!("{name}.csv")), text).expect("writes an input file");
    }
    let paths = [dir.clone()];
    group.bench_with_input(BenchmarkId::new("csv_load", m), &paths, |b, paths| {
        b.iter(|| load_database_files(paths).expect("loads").1.len())
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_relation,
    bench_block_join,
    bench_hypercube_route,
    bench_merge,
    bench_csv_load
);
criterion_main!(benches);
