//! Criterion benchmark for the `pq-engine` end-to-end pipeline: cold runs
//! (the plan cache is cleared before every iteration, so each run pays
//! parse + LPs + candidate pricing + execute; the snapshot's statistics
//! catalogue is computed once at engine construction, as on any warm
//! server) versus warm runs (plan served from the shared LRU cache). Both
//! share one engine, so the gap between the two is exactly the planning
//! cost the cache amortises; baselines are recorded in `BENCH_engine.json`.
//!
//! The `engine_update` group measures the mutation paths of the
//! append-heavy workload (one single-row insert per iteration at m=4000):
//! the typed `Engine::apply` delta path (statistics maintained
//! incrementally, untouched relations shared) against the closure-based
//! `Engine::update` fallback (touched relations re-analysed from scratch),
//! each alone and interleaved with a warm query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pq_bench::matching_database_for_query;
use pq_engine::{ClusterConfig, Delta, DurabilityOptions, Engine, ExecBackend};
use pq_mpc::net::LocalWorkers;
use pq_query::ConjunctiveQuery;
use pq_wal::SyncPolicy;

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_end_to_end");
    group.sample_size(10);
    let cases = [
        ("triangle", ConjunctiveQuery::triangle(), 16usize),
        ("chain4", ConjunctiveQuery::chain(4), 16),
        ("star3", ConjunctiveQuery::star(3), 16),
    ];
    for (name, query, p) in cases {
        for m in [1_000usize, 4_000] {
            let db = matching_database_for_query(&query, m, 7);
            let text = query.to_string();

            let cold_engine = Engine::new(db.clone(), p);
            let cold = cold_engine.session();
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_cold"), m),
                &text,
                |b, text| {
                    b.iter(|| {
                        cold_engine.clear_plan_cache_keep_stats();
                        cold.run(text).expect("runs").outcome.output.len()
                    })
                },
            );

            let warm = Engine::new(db.clone(), p).session();
            warm.run(&text).expect("warm-up run");
            group.bench_with_input(
                BenchmarkId::new(format!("{name}_warm"), m),
                &text,
                |b, text| b.iter(|| warm.run(text).expect("runs").outcome.output.len()),
            );
        }
    }
    group.finish();
}

fn bench_engine_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_update");
    group.sample_size(10);
    let query = ConjunctiveQuery::chain(3);
    let text = query.to_string();
    let m = 4_000usize;
    let db = matching_database_for_query(&query, m, 7);
    // A value far outside the generated domain: the inserted row joins
    // nothing, so interleaved query outputs stay comparable as the
    // relation grows across iterations.
    let row = vec![1u64 << 40, (1u64 << 40) + 1];

    // The typed O(delta) path: one single-row insert per iteration.
    let apply_engine = Engine::new(db.clone(), 16);
    group.bench_with_input(BenchmarkId::new("apply_insert", m), &row, |b, row| {
        b.iter(|| {
            apply_engine
                .apply(Delta::insert("S1", vec![row.clone()]))
                .expect("valid delta")
                .fingerprint()
        })
    });

    // The closure fallback: same single-row insert, but the touched
    // relation's statistics are rebuilt by re-scanning it.
    let update_engine = Engine::new(db.clone(), 16);
    group.bench_with_input(BenchmarkId::new("update_recompute", m), &row, |b, row| {
        b.iter(|| {
            update_engine
                .update(|db| db.relation_mut("S1").unwrap().push_row(row))
                .fingerprint()
        })
    });

    // The append-heavy serving mix the ROADMAP targets: one insert, one
    // (plan-cached) query per iteration.
    let mixed_engine = Engine::new(db.clone(), 16);
    let mixed = mixed_engine.session();
    mixed.run(&text).expect("warm-up run");
    group.bench_with_input(
        BenchmarkId::new("apply_insert_then_query", m),
        &row,
        |b, row| {
            b.iter(|| {
                mixed_engine
                    .apply(Delta::insert("S1", vec![row.clone()]))
                    .expect("valid delta");
                mixed.run(&text).expect("runs").outcome.output.len()
            })
        },
    );
    group.finish();
}

/// The price of a real wire: the same warm (plan-cached) triangle run on
/// the in-process simulator versus the cluster backend over 3 local worker
/// threads behind loopback TCP. The gap is pure distribution cost — frame
/// encode/decode, kernel round trips, the barrier — since both backends
/// route identical messages from the identical plan.
fn bench_engine_backend(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_backend");
    group.sample_size(10);
    let query = ConjunctiveQuery::triangle();
    let text = query.to_string();
    let m = 4_000usize;
    let db = matching_database_for_query(&query, m, 7);
    let p = 4usize;

    let sim = Engine::new(db.clone(), p).session();
    sim.run(&text).expect("warm-up run");
    group.bench_with_input(BenchmarkId::new("simulator_warm", m), &text, |b, text| {
        b.iter(|| sim.run(text).expect("runs").outcome.output.len())
    });

    let workers = LocalWorkers::spawn(3).expect("spawn local workers");
    let cluster = Engine::new(db.clone(), p)
        .with_backend(ExecBackend::cluster(ClusterConfig::new(
            workers.addresses().to_vec(),
        )))
        .session();
    cluster.run(&text).expect("warm-up run");
    group.bench_with_input(BenchmarkId::new("cluster_warm", m), &text, |b, text| {
        b.iter(|| cluster.run(text).expect("runs").outcome.output.len())
    });
    drop(cluster);
    workers.shutdown();
    group.finish();
}

/// The redial tax the connection pool deletes: one minimal single-atom
/// round driven through a persistent [`pq_mpc::net::WorkerPool`] (dial +
/// Hello paid once, before the measurement) versus the same pool
/// disconnected before every iteration (dial + Hello + TCP handshake every
/// time — what every cluster query paid before the pool existed).
fn bench_cluster_reconnect(c: &mut Criterion) {
    use pq_mpc::net::{AtomSpec, RoundProgram, WorkerPool};
    use pq_mpc::Message;
    use pq_relation::{Relation, Schema};

    let mut group = c.benchmark_group("cluster_reconnect");
    group.sample_size(10);
    let program = RoundProgram {
        name: "Q".into(),
        output_vars: vec!["x".into(), "y".into()],
        atoms: vec![AtomSpec {
            relation: "R".into(),
            variables: vec!["x".into(), "y".into()],
        }],
    };
    let messages = || {
        (0..2)
            .map(|to| {
                Message::tuples(
                    to,
                    Relation::from_rows(
                        Schema::from_strs("R", &["x", "y"]),
                        vec![vec![1, 2], vec![3, 4]],
                    ),
                )
            })
            .collect::<Vec<_>>()
    };
    let workers = LocalWorkers::spawn(2).expect("spawn local workers");
    let config = ClusterConfig::new(workers.addresses().to_vec());

    let pool = WorkerPool::new(config);
    pool.execute(2, 16, 0, &program, &messages, None).expect("warm-up round");
    group.bench_function("pooled_round", |b| {
        b.iter(|| {
            pool.execute(2, 16, 0, &program, &messages, None)
                .expect("runs")
                .0
                .len()
        })
    });

    group.bench_function("fresh_dial_round", |b| {
        b.iter(|| {
            pool.disconnect();
            pool.execute(2, 16, 0, &program, &messages, None)
                .expect("runs")
                .0
                .len()
        })
    });
    drop(pool);
    workers.shutdown();
    group.finish();
}

/// The persistent executor pool's scaling curve: the same warm
/// (plan-cached) triangle — a three-way join — run on engines whose pool
/// is sized 1, 2 and 4. Pool size 1 is the fully inline path (zero worker
/// threads, the regression guard against the pre-pool records); larger
/// pools split per-server work and, at m=100k, the morsel-parallel join
/// and routing kernels (per-server fragments cross the 2×MORSEL_ROWS
/// probe threshold). Every size returns byte-identical rows.
fn bench_engine_parallel(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_parallel");
    group.sample_size(10);
    let query = ConjunctiveQuery::triangle();
    let text = query.to_string();

    // The big three-way join where parallelism has room to pay.
    let big = matching_database_for_query(&query, 100_000, 7);
    for threads in [1usize, 2, 4] {
        let session = Engine::new(big.clone(), 16).with_threads(threads).session();
        session.run(&text).expect("warm-up run");
        group.bench_with_input(
            BenchmarkId::new(format!("three_way_join_t{threads}"), 100_000),
            &text,
            |b, text| b.iter(|| session.run(text).expect("runs").outcome.output.len()),
        );
    }

    // The small warm triangle: the fixed pool overhead must stay in the
    // noise at every size (t1 inline ≈ the engine_end_to_end record).
    let small = matching_database_for_query(&query, 4_000, 7);
    for threads in [1usize, 2, 4] {
        let session = Engine::new(small.clone(), 16).with_threads(threads).session();
        session.run(&text).expect("warm-up run");
        group.bench_with_input(
            BenchmarkId::new(format!("triangle_warm_t{threads}"), 4_000),
            &text,
            |b, text| b.iter(|| session.run(text).expect("runs").outcome.output.len()),
        );
    }
    group.finish();
}

/// The cost of the observability layer itself: the identical warm
/// (plan-cached) triangle run with metrics recording on (the default)
/// versus stripped (`with_metrics_enabled(false)`, which turns every
/// instrumentation site into one relaxed atomic load). The acceptance
/// budget for the gap is < 2%: a traced run is a handful of `Instant`
/// reads and atomic adds against ~2ms of execution.
fn bench_engine_obs(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_obs");
    group.sample_size(10);
    let query = ConjunctiveQuery::triangle();
    let text = query.to_string();
    let m = 4_000usize;
    let db = matching_database_for_query(&query, m, 7);
    let p = 16usize;

    let observed = Engine::new(db.clone(), p).session();
    observed.run(&text).expect("warm-up run");
    group.bench_with_input(BenchmarkId::new("instrumented_warm", m), &text, |b, text| {
        b.iter(|| observed.run(text).expect("runs").outcome.output.len())
    });

    let stripped = Engine::new(db.clone(), p)
        .with_metrics_enabled(false)
        .session();
    stripped.run(&text).expect("warm-up run");
    group.bench_with_input(BenchmarkId::new("stripped_warm", m), &text, |b, text| {
        b.iter(|| stripped.run(text).expect("runs").outcome.output.len())
    });
    group.finish();
}

/// The price of durability on the delta path: the same single-row
/// `Engine::apply` as `engine_update/apply_insert`, but logged to a
/// write-ahead log first, under each sync policy. `never` pays one
/// buffered `write(2)` per delta (process-crash durable via the page
/// cache), `group-commit` adds an fsync every 64 records / 64 KiB, and
/// `always` fsyncs every append — the full spectrum from "almost free" to
/// "every delta machine-crash durable". The `recover_scan` case measures
/// the other end of the deal: scanning and decoding a 1000-delta log
/// suffix back out of the directory, as startup recovery does.
fn bench_engine_wal(c: &mut Criterion) {
    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let path = std::env::temp_dir()
                .join(format!("pq-bench-wal-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    let mut group = c.benchmark_group("engine_wal");
    group.sample_size(10);
    let query = ConjunctiveQuery::chain(3);
    let m = 4_000usize;
    let db = matching_database_for_query(&query, m, 7);
    let dict = pq_relation::ValueDictionary::new();
    let row = vec![1u64 << 40, (1u64 << 40) + 1];

    // The in-memory baseline the WAL rides on, for the headline ratio.
    let plain = Engine::new(db.clone(), 16);
    group.bench_with_input(BenchmarkId::new("apply_in_memory", m), &row, |b, row| {
        b.iter(|| {
            plain
                .apply(Delta::insert("S1", vec![row.clone()]))
                .expect("valid delta")
                .fingerprint()
        })
    });

    for sync in [SyncPolicy::Never, SyncPolicy::GroupCommit, SyncPolicy::Always] {
        let dir = TempDir::new(sync.name());
        let options = DurabilityOptions { sync, checkpoint_every: 0 };
        let opened =
            pq_engine::open_durable(&dir.0, options, 16, Some((db.clone(), dict.clone())))
                .expect("durable open");
        let id = BenchmarkId::new(format!("apply_wal_{}", sync.name()), m);
        group.bench_with_input(id, &row, |b, row| {
            b.iter(|| {
                opened
                    .engine
                    .apply(Delta::insert("S1", vec![row.clone()]))
                    .expect("valid delta")
                    .fingerprint()
            })
        });
    }

    // Startup recovery's hot half: scan the directory, verify CRCs and
    // decode 1000 logged single-row deltas (read-only, so each iteration
    // sees the identical log).
    let dir = TempDir::new("recover");
    let options = DurabilityOptions { sync: SyncPolicy::Never, checkpoint_every: 0 };
    let opened = pq_engine::open_durable(&dir.0, options, 16, Some((db.clone(), dict.clone())))
        .expect("durable open");
    for i in 0..1_000u64 {
        opened
            .engine
            .apply(Delta::insert("S1", vec![vec![(1 << 41) + 2 * i, (1 << 41) + 2 * i + 1]]))
            .expect("valid delta");
    }
    drop(opened);
    group.bench_with_input(BenchmarkId::new("recover_scan", 1_000), &dir.0, |b, dir| {
        b.iter(|| {
            let recovery = pq_wal::recover(dir).expect("recover");
            assert_eq!(recovery.deltas.len(), 1_000);
            recovery.records_replayed
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_engine,
    bench_engine_update,
    bench_engine_backend,
    bench_cluster_reconnect,
    bench_engine_parallel,
    bench_engine_obs,
    bench_engine_wal
);
criterion_main!(benches);
