//! The traced run: the workload's query replayed in this process, one stage
//! at a time, through the library crates' public functions.
//!
//! Every number is a span or a count taken around a public call, on the
//! very data the served run used. The stage replay follows
//! `pq_engine::executor` for the one-round HyperCube strategy — bind,
//! route, communicate, local joins, merge, project+dedup — with the plan's
//! own shares; for the skew-aware star and the multi-round plan (whose
//! internals are one public call each) the same stages are still replayed
//! with the plan's LP shares, which is exactly what the cluster backend
//! executes for them, and the strategy's own entry point is timed whole.

use crate::served::{Prepared, HASH_SEED, SERVER_THREADS};
use crate::stats::{median, Values};
use crate::trace::{SpanId, Tracer};
use pq_core::hypercube::{local_join, HyperCubeRouter};
use pq_core::multiround::plan::execute_plan;
use pq_core::shares::{integer_shares, optimal_share_exponents, ShareRounding};
use pq_core::skew::star::run_star_skew_aware;
use pq_engine::{
    open_durable, parse_query, plan_query_on, run_plan, Delta, DurabilityOptions, Engine, Plan,
    Session, Snapshot, Strategy,
};
use pq_exec::TaskPool;
use pq_mpc::net::{
    read_frame, write_frame, AtomSpec, ClusterConfig, Frame, LocalWorkers, RoundProgram, WorkerPool,
};
use pq_mpc::{map_servers_parallel, Cluster, Message, Payload};
use pq_query::instantiate;
use pq_relation::{load_database_files, natural_join, Relation, Schema, Value};
use pq_wal::{recover, RelationInserts, SyncPolicy, Wal, WalOptions, WalRecord};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Time `work` `reps` times under a one-off span each; returns the
/// durations in microseconds.
fn repeat<R>(
    tracer: &mut Tracer,
    layer: &'static str,
    name: &'static str,
    reps: usize,
    mut work: impl FnMut() -> R,
) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let (id, result) = tracer.time(0, 0, layer, name, &mut work);
            black_box(result);
            tracer.spans()[id as usize - 1].duration_ns() as f64 / 1e3
        })
        .collect()
}

/// What one staged replay leaves behind for the follow-up measurements.
struct Staged {
    cluster: Cluster,
    /// The largest routed fragment (by rows).
    largest_fragment: Relation,
}

/// Replay one query stage by stage under `root`, like
/// `run_hypercube_with_shares` followed by the executor's project+dedup.
fn staged_query(
    tracer: &mut Tracer,
    root: SpanId,
    query_no: u64,
    plan: &Plan,
    snapshot: &Snapshot,
    pool: &Arc<TaskPool>,
) -> Staged {
    let database = snapshot.database();
    let query = &plan.parsed.query;
    let stages = tracer.open(root, query_no, "pq-engine", "executor.stages");
    let staged = pool.install(|| {
        let (_, bound) = tracer.time(stages, query_no, "pq-query", "bind", || {
            instantiate(query, database)
        });
        let (route, messages) = tracer.time(stages, query_no, "pq_core", "hypercube.route", || {
            HyperCubeRouter::new(query, &plan.shares, HASH_SEED, 0, 0).route_bound(&bound)
        });
        let fragments = messages.iter().filter_map(|m| match &m.payload {
            Payload::Tuples(fragment) => Some(fragment),
            Payload::Raw { .. } => None,
        });
        let routed_rows: usize = fragments.clone().map(Relation::len).sum();
        let largest_fragment = fragments
            .max_by_key(|f| f.len())
            .cloned()
            .unwrap_or_else(|| Relation::empty(Schema::new("none", Vec::new())));
        tracer.count(route, "routed_rows", routed_rows as u64);
        tracer.count(route, "messages", messages.len() as u64);

        let mut cluster = Cluster::new(plan.p, database.bits_per_value());
        cluster.set_input_bits(database.total_size_bits());
        tracer.time(stages, query_no, "pq-mpc", "cluster.communicate", || {
            cluster.communicate(messages);
        });
        let (_, outputs) = tracer.time(stages, query_no, "pq_core", "hypercube.local_join", || {
            map_servers_parallel(cluster.servers(), |_, server| local_join(query, server))
        });
        let (merge, mut merged) =
            tracer.time(stages, query_no, "pq_core", "hypercube.merge", || {
                let mut merged = Relation::empty(Schema::new(query.name(), query.variables()));
                for output in &outputs {
                    merged.append(output);
                }
                merged
            });
        tracer.count(merge, "rows", merged.len() as u64);
        let (dedup, answer) = tracer.time(stages, query_no, "pq-relation", "project_dedup", || {
            merged.dedup();
            let mut answer = merged.project(&plan.parsed.head, query.name());
            answer.dedup();
            answer
        });
        tracer.count(dedup, "rows", answer.len() as u64);
        black_box(answer);
        Staged {
            cluster,
            largest_fragment,
        }
    });
    tracer.close(stages);
    staged
}

/// One fresh, non-joining row for `relation`: values beyond the dictionary.
fn fresh_row(prepared: &Prepared, i: usize) -> Vec<Value> {
    let base = prepared.dictionary.len() as Value + 1_000_000;
    vec![base + 2 * i as Value, base + 2 * i as Value + 1]
}

fn fresh_delta(prepared: &Prepared, i: usize) -> Delta {
    Delta::insert(
        prepared.workload.shape.insert_relation(),
        vec![fresh_row(prepared, i)],
    )
}

/// Run the traced replay for about `budget`, recording into `tracer`.
/// `script_len` is the length of the untraced run's INSERT script: the
/// delta path is timed at both ends of it.
pub fn run(
    prepared: &Prepared,
    script_len: usize,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<Values, String> {
    let workload = &prepared.workload;
    let text = workload.query();
    let p = workload.servers;
    let mut values = Values::default();
    // Two loops share the budget: traced, untraced and `run_plan` queries
    // taking turns, then the instrumentation-overhead pair.
    let loop_budget = budget / 5;

    // -- loading -----------------------------------------------------------
    let loads = repeat(tracer, "pq-relation", "csv.load", 2, || {
        load_database_files(std::slice::from_ref(&prepared.csv_dir)).expect("loaded once already")
    });
    values.put(
        "pq-relation.csv.load_ms",
        median(&loads).unwrap_or(0.0) / 1e3,
        loads.len(),
    );
    let builds = repeat(tracer, "pq-engine", "snapshot.build", 3, || {
        Snapshot::new(prepared.database.clone())
    });
    values.put(
        "pq-engine.snapshot.build_ms",
        median(&builds).unwrap_or(0.0) / 1e3,
        builds.len(),
    );

    // -- front end: parser, cache, planner, LP --------------------------------
    let engine = Engine::new(prepared.database.clone(), p)
        .with_seed(HASH_SEED)
        .with_threads(SERVER_THREADS);
    let session = engine.session();
    let pool = engine.pool().clone();
    let parsed = parse_query(text).map_err(|e| e.to_string())?;
    let query = parsed.query.clone();
    let parses = repeat(tracer, "pq-engine", "parser.parse", 200, || {
        parse_query(text)
    });
    values.put_median("pq-engine.parser.parse_us", &parses);
    // The served plan over the data as loaded: what the strategy's entry
    // point, `run_plan` and the load counts below are taken on (on the write
    // workload the traced queries grow the engine's relations past it).
    let (plan, _) = session.plan(text).map_err(|e| e.to_string())?;
    let snapshot = engine.snapshot();
    let warm_plans = repeat(tracer, "pq-engine", "cache.hit", 200, || session.plan(text));
    // `Session::plan` parses and then probes the cache; the probe alone is
    // not public, so it is what remains after the parse.
    let hit_us = (median(&warm_plans).unwrap_or(0.0) - median(&parses).unwrap_or(0.0)).max(0.0);
    values.put("pq-engine.cache.hit_us", hit_us, warm_plans.len());
    let plans = repeat(tracer, "pq-engine", "planner.plan", 20, || {
        plan_query_on(&parsed, &snapshot, p)
    });
    values.put_median("pq-engine.planner.plan_us", &plans);
    let sizes = prepared.database.sizes_bits();
    let lps = repeat(tracer, "pq_core", "shares.lp", 20, || {
        integer_shares(
            &optimal_share_exponents(&query, &sizes, p),
            ShareRounding::GreedyFill,
        )
    });
    values.put_median("pq_core.shares.lp_us", &lps);

    // -- traced queries, with their untraced parents taking turns ---------------
    // One untraced `Session::run`, preceded by an insert on the write
    // workload (as served: the plan lookup then misses); microseconds.
    let one_run =
        |engine: &Engine, session: &Session, applied: &mut usize| -> Result<f64, String> {
            if workload.write_cycles {
                engine
                    .apply(fresh_delta(prepared, *applied))
                    .map_err(|e| e.to_string())?;
                *applied += 1;
            }
            let start = Instant::now();
            let run = session.run(text).map_err(|e| e.to_string())?;
            let us = start.elapsed().as_secs_f64() * 1e6;
            black_box(run);
            Ok(us)
        };
    // Each turn: one staged (traced) query, one untraced `Session::run`, one
    // `run_plan` — so that the ratios between them see the same host.
    let cache_before = engine.cache_stats();
    let loop_start = Instant::now();
    let mut query_no = 0u64;
    let mut staged = None;
    let mut applied = 0usize;
    let mut session_runs = Vec::new();
    let (mut pool_tasks, mut pool_steals) = (0u64, 0u64);
    while query_no < 5 || (loop_start.elapsed() < 3 * loop_budget && query_no < 2_000) {
        query_no += 1;
        if workload.write_cycles {
            engine
                .apply(fresh_delta(prepared, applied))
                .map_err(|e| e.to_string())?;
            applied += 1;
        }
        let root = tracer.open(0, query_no, "pqbench", "query");
        let (_, planned) = tracer.time(root, query_no, "pq-engine", "session.plan", || {
            session.plan(text)
        });
        let (current_plan, _) = planned.map_err(|e| e.to_string())?;
        staged = Some(staged_query(
            tracer,
            root,
            query_no,
            &current_plan,
            &engine.snapshot(),
            &pool,
        ));
        tracer.close(root);

        let pool_before = pool.stats();
        session_runs.push(one_run(&engine, &session, &mut applied)?);
        let pool_after = pool.stats();
        pool_tasks += pool_after.tasks - pool_before.tasks;
        pool_steals += pool_after.steals - pool_before.steals;

        let (_, outcome) = tracer.time(0, query_no, "pq-engine", "executor.run", || {
            pool.install(|| run_plan(&plan, &snapshot, HASH_SEED))
        });
        black_box(outcome);
    }
    let cache_after = engine.cache_stats();
    let lookups =
        (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
    values.put(
        "pq-engine.cache.hit_ratio",
        (cache_after.hits - cache_before.hits) as f64 / lookups.max(1) as f64,
        lookups as usize,
    );
    for (metric, layer, name) in [
        ("pq-query.bind_us", "pq-query", "bind"),
        ("pq_core.hypercube.route_us", "pq_core", "hypercube.route"),
        (
            "pq-mpc.cluster.communicate_us",
            "pq-mpc",
            "cluster.communicate",
        ),
        (
            "pq_core.hypercube.local_join_us",
            "pq_core",
            "hypercube.local_join",
        ),
        ("pq_core.hypercube.merge_us", "pq_core", "hypercube.merge"),
        (
            "pq-relation.project_dedup_us",
            "pq-relation",
            "project_dedup",
        ),
        ("pq-engine.executor.run_us", "pq-engine", "executor.run"),
    ] {
        values.put_median(metric, &tracer.durations_us(layer, name));
    }
    let routed: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "hypercube.route")
        .filter_map(|s| {
            s.counts
                .iter()
                .find(|(k, _)| *k == "routed_rows")
                .map(|(_, v)| *v as f64)
        })
        .collect();
    values.put_median("pq_core.hypercube.routed_rows", &routed);
    values.put_median("pq-engine.session.run_us", &session_runs);
    let n = session_runs.len();
    values.put("pq-exec.tasks_per_query", pool_tasks as f64 / n as f64, n);
    values.put("pq-exec.steals_per_query", pool_steals as f64 / n as f64, n);
    // Per query: the self times of the stage spans (the `executor.stages`
    // span's own remainder included), to be held against `run_plan`.
    let own = tracer.self_times_ns();
    let mut stage_self_us: HashMap<u64, f64> = HashMap::new();
    let stage_parents: HashMap<SpanId, u64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "executor.stages")
        .map(|s| (s.id, s.query))
        .collect();
    for span in tracer.spans() {
        if stage_parents.contains_key(&span.id) || stage_parents.contains_key(&span.parent) {
            *stage_self_us.entry(span.query).or_default() += own[&span.id] as f64 / 1e3;
        }
    }
    let stage_self_us: Vec<f64> = stage_self_us.into_values().collect();
    values.put(
        "trace.coverage",
        median(&stage_self_us).unwrap_or(0.0)
            / median(&tracer.durations_us("pq-engine", "executor.run")).unwrap_or(f64::NAN),
        stage_self_us.len(),
    );
    let traced_query_us = tracer.durations_us("pqbench", "query");
    values.put(
        "trace.overhead_ratio",
        median(&traced_query_us).unwrap_or(0.0) / median(&session_runs).unwrap_or(f64::NAN),
        traced_query_us.len(),
    );
    let Staged {
        cluster,
        largest_fragment,
    } = staged.expect("at least five traced queries ran");

    // Instrumentation on against off: two fresh engines taking turns, so
    // that drift (and, on the write workload, growth) hits both alike.
    let pair = |enabled: bool| {
        Engine::new(prepared.database.clone(), p)
            .with_seed(HASH_SEED)
            .with_threads(SERVER_THREADS)
            .with_metrics_enabled(enabled)
    };
    let (obs_engine, plain_engine) = (pair(true), pair(false));
    let (obs_session, plain_session) = (obs_engine.session(), plain_engine.session());
    let (mut with_obs, mut without_obs) = (Vec::new(), Vec::new());
    let (mut obs_applied, mut plain_applied) = (0usize, 0usize);
    let loop_start = Instant::now();
    while with_obs.len() < 5 || (loop_start.elapsed() < loop_budget && with_obs.len() < 1_000) {
        with_obs.push(one_run(&obs_engine, &obs_session, &mut obs_applied)?);
        without_obs.push(one_run(&plain_engine, &plain_session, &mut plain_applied)?);
    }
    values.put(
        "pq-obs.overhead_ratio",
        median(&with_obs).unwrap_or(0.0) / median(&without_obs).unwrap_or(f64::NAN),
        with_obs.len(),
    );

    // -- the strategy's own entry point ----------------------------------------
    let database = snapshot.database();
    let star = match &plan.strategy {
        Strategy::SkewAwareStar { .. } => repeat(tracer, "pq_core", "skew.star_run", 5, || {
            pool.install(|| run_star_skew_aware(&plan.parsed.query, database, p, HASH_SEED))
        }),
        _ => Vec::new(),
    };
    values.put_median("pq_core.skew.star_run_us", &star);
    let multiround = match &plan.strategy {
        Strategy::MultiRound { plan: node, .. } => {
            repeat(tracer, "pq_core", "multiround.run", 20, || {
                pool.install(|| execute_plan(node, &plan.parsed.query, database, p, HASH_SEED))
            })
        }
        _ => Vec::new(),
    };
    values.put_median("pq_core.multiround.run_us", &multiround);

    // -- the paper's load counts (exact) ---------------------------------------
    let metrics = pool
        .install(|| run_plan(&plan, &snapshot, HASH_SEED))
        .metrics;
    let heaviest_round = metrics.rounds.iter().max_by_key(|r| r.max_load());
    values.put("pq-mpc.load.max_bits", metrics.max_load() as f64, 1);
    values.put(
        "pq-mpc.load.skew",
        heaviest_round.map_or(0.0, |r| r.max_load() as f64 / r.mean_load().max(1.0)),
        1,
    );
    values.put(
        "pq-mpc.load.replication_rate",
        metrics.replication_rate(),
        1,
    );
    values.put("pq-mpc.load.rounds", metrics.num_rounds() as f64, 1);

    // -- local joins: the parallel floor, the pool's speed-up, the kernel ------
    let hc_query = &plan.parsed.query;
    let servers = cluster.servers();
    let slowest = servers
        .iter()
        .map(|server| {
            let mut runs: Vec<f64> = (0..3)
                .map(|_| {
                    let start = Instant::now();
                    black_box(local_join(hc_query, server));
                    start.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            runs.sort_by(f64::total_cmp);
            runs[1]
        })
        .fold(0.0, f64::max);
    values.put(
        "pq_core.hypercube.local_join_max_us",
        slowest,
        servers.len(),
    );
    let join_phase = |threads: usize| {
        let pool = TaskPool::new(threads);
        let runs: Vec<f64> = (0..5)
            .map(|_| {
                let start = Instant::now();
                black_box(pool.install(|| {
                    map_servers_parallel(servers, |_, server| local_join(hc_query, server))
                }));
                start.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&runs).unwrap_or(0.0)
    };
    values.put(
        "pq-exec.speedup",
        join_phase(1) / join_phase(SERVER_THREADS).max(f64::MIN_POSITIVE),
        5,
    );

    let heaviest = servers
        .iter()
        .max_by_key(|s| s.stored_tuples())
        .expect("p >= 2 servers");
    let atoms = hc_query.atoms();
    match (
        heaviest.fragment(atoms[0].relation()),
        heaviest.fragment(atoms[1].relation()),
    ) {
        (Some(left), Some(right)) => {
            let out_rows = natural_join(left, right).len();
            let joins = repeat(tracer, "pq-relation", "join.natural_join", 20, || {
                natural_join(left, right)
            });
            let inputs = (left.len() + right.len()).max(1);
            values.put(
                "pq-relation.join.ns_per_input_row",
                median(&joins).unwrap_or(0.0) * 1e3 / inputs as f64,
                joins.len(),
            );
            values.put(
                "pq-relation.join.out_rows_per_probe_row",
                out_rows as f64 / left.len().max(right.len()).max(1) as f64,
                joins.len(),
            );
        }
        _ => {
            values.put("pq-relation.join.ns_per_input_row", 0.0, 0);
            values.put("pq-relation.join.out_rows_per_probe_row", 0.0, 0);
        }
    }

    // -- the wire: row codec, frame codec, a pooled round on local workers -----
    let rows = largest_fragment.len().max(1) as f64;
    let mut bytes = Vec::new();
    let encodes = repeat(tracer, "pq-relation", "wire.encode", 20, || {
        bytes.clear();
        largest_fragment.write_rows_le(&mut bytes);
    });
    values.put(
        "pq-relation.wire.encode_ns_per_row",
        median(&encodes).unwrap_or(0.0) * 1e3 / rows,
        encodes.len(),
    );
    let decodes = repeat(tracer, "pq-relation", "wire.decode", 20, || {
        Relation::from_rows_le(
            largest_fragment.schema().clone(),
            largest_fragment.len(),
            &bytes,
        )
    });
    values.put(
        "pq-relation.wire.decode_ns_per_row",
        median(&decodes).unwrap_or(0.0) * 1e3 / rows,
        decodes.len(),
    );
    let frame = Frame::Fragment {
        round: 1,
        relation: largest_fragment.clone(),
    };
    let mut framed = Vec::new();
    let frame_encodes = repeat(tracer, "pq-mpc", "net.codec.encode", 20, || {
        framed.clear();
        write_frame(&mut framed, &frame)
    });
    values.put_median("pq-mpc.net.codec.encode_us", &frame_encodes);
    let frame_decodes = repeat(tracer, "pq-mpc", "net.codec.decode", 20, || {
        read_frame(&mut framed.as_slice())
    });
    values.put_median("pq-mpc.net.codec.decode_us", &frame_decodes);

    let workers = LocalWorkers::spawn(2).map_err(|e| format!("local workers: {e}"))?;
    let worker_pool = WorkerPool::new(ClusterConfig::new(workers.addresses().to_vec()));
    let bound = instantiate(hc_query, database);
    let router = HyperCubeRouter::new(hc_query, &plan.shares, HASH_SEED, 0, 0);
    let program = RoundProgram {
        name: hc_query.name().to_string(),
        output_vars: hc_query.variables(),
        atoms: bound
            .iter()
            .map(|r| AtomSpec {
                relation: r.name().to_string(),
                variables: r.schema().attributes().to_vec(),
            })
            .collect(),
    };
    let route = || -> Vec<Message> { router.route_bound(&bound) };
    let mut wire_ratio = 0.0;
    let mut round_error = None;
    let rounds = repeat(
        tracer,
        "pq-mpc",
        "net.pool.round",
        5,
        || match worker_pool.execute(
            p,
            database.bits_per_value(),
            database.total_size_bits(),
            &program,
            &route,
            None,
        ) {
            Ok((_, metrics)) => {
                wire_ratio = metrics.bytes_on_wire() as f64 / (metrics.total_bits() as f64 / 8.0)
            }
            Err(e) => round_error = Some(e.to_string()),
        },
    );
    let retries = worker_pool.stats().retries;
    drop(worker_pool);
    workers.shutdown();
    if let Some(error) = round_error {
        return Err(format!("pooled round on local workers: {error}"));
    }
    values.put_median("pq-mpc.net.pool.round_us", &rounds);
    values.put(
        "pq-mpc.net.wire_bytes_per_model_byte",
        wire_ratio,
        rounds.len(),
    );
    values.put("pq-mpc.net.retries", retries as f64, rounds.len());

    // -- the write path: delta apply at both ends of the script, WAL ----------
    let delta_engine = Engine::new(prepared.database.clone(), p);
    let script = script_len.max(40);
    let mut first = Vec::new();
    let mut last = Vec::new();
    for i in 0..script {
        let delta = fresh_delta(prepared, i);
        let (_, applied) = tracer.time(0, 0, "pq-engine", "delta.apply", || {
            delta_engine.apply(delta)
        });
        applied.map_err(|e| e.to_string())?;
        let us = tracer.spans().last().expect("just recorded").duration_ns() as f64 / 1e3;
        if i < 20 {
            first.push(us);
        } else if i >= script - 20 {
            last.push(us);
        }
    }
    values.put_median("pq-engine.delta.apply_us_first", &first);
    values.put_median("pq-engine.delta.apply_us_last", &last);

    let wal_dir = prepared.tmp.path().join("layer-wal");
    let wal = Wal::open(&wal_dir, WalOptions::with_sync(SyncPolicy::GroupCommit))
        .map_err(|e| format!("wal open: {e}"))?;
    let mut wal_error = None;
    let mut next = 0usize;
    let appends = repeat(tracer, "pq-wal", "append", 200, || {
        let record = WalRecord::DeltaApplied {
            inserts: vec![RelationInserts {
                relation: workload.shape.insert_relation().to_string(),
                arity: 2,
                rows: 1,
                values: fresh_row(prepared, next),
            }],
        };
        next += 1;
        if let Err(e) = wal.append(&record) {
            wal_error = Some(e.to_string());
        }
    });
    values.put_median("pq-wal.append_us", &appends);
    let checkpoints = repeat(tracer, "pq-wal", "checkpoint", 3, || {
        if let Err(e) = wal.checkpoint(&prepared.database, &prepared.dictionary) {
            wal_error = Some(e.to_string());
        }
    });
    values.put(
        "pq-wal.checkpoint_ms",
        median(&checkpoints).unwrap_or(0.0) / 1e3,
        checkpoints.len(),
    );
    drop(wal);
    let recovers = repeat(tracer, "pq-wal", "recover", 3, || {
        if let Err(e) = recover(&wal_dir) {
            wal_error = Some(e.to_string());
        }
    });
    values.put(
        "pq-wal.recover_ms",
        median(&recovers).unwrap_or(0.0) / 1e3,
        recovers.len(),
    );
    let opens = repeat(tracer, "pq-engine", "durability.open", 3, || {
        if let Err(e) = open_durable(&wal_dir, DurabilityOptions::default(), p, None) {
            wal_error = Some(e.to_string());
        }
    });
    values.put(
        "pq-engine.durability.open_ms",
        median(&opens).unwrap_or(0.0) / 1e3,
        opens.len(),
    );
    if let Some(error) = wal_error {
        return Err(format!("WAL layer: {error}"));
    }
    Ok(values)
}
