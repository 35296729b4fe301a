//! The benchmark's fixed definitions: the four workloads and the two metric
//! tables. `BENCHMARK.json` mirrors these tables (a unit test keeps the two
//! in step); the README explains them.

/// Shape of a workload's query (and therefore of its generated data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `Q(x,y,z) :- E1(x,y),E2(y,z),E3(z,x)` over three matching relations.
    Triangle,
    /// `Q(z,a,b) :- R(z,a),S(z,b)` with one heavy hitter on `z`.
    Star,
    /// `Q(a,b,c,d) :- R(a,b),S(b,c),T(c,d)` over three matching relations.
    Chain,
}

impl Shape {
    pub fn query(self) -> &'static str {
        match self {
            Shape::Triangle => "Q(x,y,z) :- E1(x,y),E2(y,z),E3(z,x)",
            Shape::Star => "Q(z,a,b) :- R(z,a),S(z,b)",
            Shape::Chain => "Q(a,b,c,d) :- R(a,b),S(b,c),T(c,d)",
        }
    }

    /// Relation names in body order; the second one receives the INSERTs.
    pub fn relations(self) -> &'static [&'static str] {
        match self {
            Shape::Triangle => &["E1", "E2", "E3"],
            Shape::Star => &["R", "S"],
            Shape::Chain => &["R", "S", "T"],
        }
    }

    pub fn insert_relation(self) -> &'static str {
        self.relations()[1]
    }
}

/// One workload: what data is generated and how `pqd` is started on it.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub shape: Shape,
    /// Rows per relation.
    pub rows: usize,
    /// Planted answers (triangle/chain) or the heavy hitter's degree (star).
    pub planted: usize,
    /// `--servers`.
    pub servers: usize,
    /// `pqd --worker` processes behind `--cluster`; 0 = simulator backend.
    pub workers: usize,
    /// `--data-dir` + `--wal-sync group-commit`.
    pub durable: bool,
    /// True: the measured phase is `INSERT` + `RUN` cycles (a fixed script);
    /// false: a fixed window of `RUN`s followed by a short INSERT tail.
    pub write_cycles: bool,
}

impl Workload {
    pub fn query(&self) -> &'static str {
        self.shape.query()
    }

    /// The same workload over `rows` rows — unit tests run miniatures.
    #[cfg(test)]
    pub fn scaled(mut self, rows: usize, planted: usize) -> Workload {
        self.rows = rows;
        self.planted = planted;
        self
    }

    /// Length of the INSERT script for a `seconds`-long run. A function of
    /// the run length only, never of the clock: `Engine::apply` is
    /// O(relation), so a loop that ran "until time is up" would hand the
    /// faster build more (and costlier) inserts.
    pub fn script_len(&self, seconds: u64) -> usize {
        if self.write_cycles {
            WRITE_CYCLES_PER_SECOND * seconds as usize
        } else {
            TAIL_INSERTS
        }
    }
}

/// `ins_replan_wal` runs this many INSERT+RUN cycles per second of
/// requested run length (7 500 at the default 15 s, which the reference
/// host finishes in ≈ 11 s: the script ends inside the window it was sized
/// for, and the inserted relation grows 8.5-fold).
pub const WRITE_CYCLES_PER_SECOND: usize = 500;

/// INSERTs sent after the read window of a read-only workload, so that the
/// write path is measured on every data size, not only the small one.
pub const TAIL_INSERTS: usize = 1_000;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 15;

/// Queries sent before the measured window opens.
pub const WARMUP_QUERIES: usize = 20;

/// The control kernel runs between two requests, once per this long.
pub const CONTROL_GAP: std::time::Duration = std::time::Duration::from_millis(250);

/// Cold starts per run; `setup_s` is their median.
pub const COLD_STARTS: usize = 5;

/// Kill -9 / restart cycles per run; `recover_s` is their median.
pub const RESTARTS: usize = 3;

/// Pause between `pqd`'s `listening on` line and the client's connect.
pub const CONNECT_DELAY: std::time::Duration = std::time::Duration::from_millis(2);

/// A reply slower than this is counted as failed.
pub const REPLY_TIMEOUT_SECS: u64 = 10;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tri_sim",
        why: "One-round HyperCube triangle (m=64000, p=64, shares 4x4x4) on the simulator backend with the plan cached: routing and 64 per-server joins do all the work, wire and output none.",
        shape: Shape::Triangle,
        rows: 64_000,
        planted: 64,
        servers: 64,
        workers: 0,
        durable: false,
        write_cycles: false,
    },
    Workload {
        name: "tri_cluster",
        why: "Byte-identical data, query and p as tri_sim but executed on 2 pqd --worker processes: the difference to tri_sim is the distribution cost (frame codec, loopback TCP, worker decode, merge).",
        shape: Shape::Triangle,
        rows: 64_000,
        planted: 64,
        servers: 64,
        workers: 2,
        durable: false,
        write_cycles: false,
    },
    Workload {
        name: "star_skew_wide",
        why: "Skew-aware star join (m=16000, one heavy hitter of degree 160, p=128) returning 41440 rows: the only workload where join fan-out, project+dedup, row formatting and socket writes dominate.",
        shape: Shape::Star,
        rows: 16_000,
        planted: 160,
        servers: 128,
        workers: 0,
        durable: false,
        write_cycles: false,
    },
    Workload {
        name: "ins_replan_wal",
        why: "Durable pqd, fixed script of INSERT+RUN cycles on a small 3-chain: WAL append, COW apply, cache invalidation, re-plan, 2-round run (fixed per-request costs, no kernels), then kill -9 and recovery.",
        shape: Shape::Chain,
        rows: 1_000,
        planted: 100,
        servers: 64,
        workers: 0,
        durable: true,
        write_cycles: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One metric of either table.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median the metric may worsen
    /// by before a change counts as a regression.
    pub bound: f64,
    /// End-to-end: what is measured. Per-layer: the public call the span or
    /// count is taken around, then the end-to-end metric and workload it is
    /// expected to move.
    pub note: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        note,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        note,
    }
}

/// What the control kernel reads on the quiet reference host. Latency,
/// throughput and CPU metrics are scaled by `CONTROL_REFERENCE_MS /
/// control_ms` ("host-corrected"): unchanged on a quiet reference host,
/// relieved of the host's share on a disturbed one.
pub const CONTROL_REFERENCE_MS: f64 = 10.0;

/// Printed by `--trace 0`, on every workload.
pub const END_TO_END: [MetricDef; 10] = [
    e2e("setup_s", "s", "lower", 0.25, "spawn pqd (+workers, +fresh data dir) until the READY line is read; median of 5 cold starts"),
    e2e("query_p50_ms", "ms", "lower", 0.25, "median RUN latency seen by the client, request written until the OK line is read with every ROW consumed; host-corrected"),
    e2e("query_p50_rel", "ratio", "lower", 0.25, "the same median over the median of the control kernel sampled every 250 ms, between requests, in the same run (query_p50_ms / 10 ms)"),
    e2e("queries_per_s", "1/s", "higher", 0.25, "successful RUNs over the measured wall time (closed loop, one client); host-corrected"),
    e2e("server_cpu_ms_per_query", "ms", "lower", 0.25, "utime+stime of pqd and its workers over the measured phase, per RUN (INSERT CPU included on ins_replan_wal); host-corrected"),
    e2e("peak_rss_mib", "MiB", "lower", 0.15, "sum of VmHWM of pqd and its workers when the measured phase ends"),
    e2e("load_over_bound", "ratio", "lower", 0.25, "RunMetrics::max_load() of the served plan (library run, same data, p and hash seed 7) over bounds::one_round::lower_bound_load; exact at a given seed"),
    e2e("wire_bytes_per_query", "B", "lower", 0.05, "bytes on any socket for one RUN: the reply the client read plus bytes_on_wire= from the OK line (cluster backend); exact at a given seed"),
    e2e("insert_p50_ms", "ms", "lower", 0.25, "median INSERT latency over the workload's fixed INSERT script; host-corrected"),
    e2e("recover_s", "s", "lower", 0.25, "after kill -9: restart on the same inputs (and data dir) until READY; median of 3; tuple count and answer must match the oracle"),
];

/// Printed by `--trace 1`, on every workload.
pub const PER_LAYER: [MetricDef; 52] = [
    layer("pqd.startup_ms", "ms", "lower", "process spawn until the `listening on` line | setup_s, all"),
    layer("pq-relation.csv.load_ms", "ms", "lower", "load_database_files | setup_s, largest on tri_*"),
    layer("pq-engine.snapshot.build_ms", "ms", "lower", "Snapshot::new | setup_s, largest on tri_*"),
    layer("pq-engine.parser.parse_us", "us", "lower", "parse_query | query_p50_ms on ins_replan_wal; <1% elsewhere"),
    layer("pq-engine.cache.hit_us", "us", "lower", "Session::plan warm minus parse_query | query_p50_ms, <1% everywhere"),
    layer("pq-engine.cache.hit_ratio", "ratio", "higher", "cache_stats deltas over the traced queries (1 on read workloads, 0 on ins_replan_wal) | query_p50_ms on ins_replan_wal"),
    layer("pq-engine.planner.plan_us", "us", "lower", "plan_query_on | query_p50_ms on ins_replan_wal only"),
    layer("pq_core.shares.lp_us", "us", "lower", "optimal_share_exponents + integer_shares (covers pq-lp) | query_p50_ms on ins_replan_wal only"),
    layer("pq-query.bind_us", "us", "lower", "instantiate | query_p50_ms, all, small"),
    layer("pq_core.hypercube.route_us", "us", "lower", "HyperCubeRouter::new + route_bound at pool size 2 | query_p50_ms, server_cpu_ms_per_query on tri_sim, tri_cluster"),
    layer("pq_core.hypercube.routed_rows", "count", "lower", "rows in the routed fragments | load_over_bound"),
    layer("pq-mpc.cluster.communicate_us", "us", "lower", "Cluster::communicate | query_p50_ms on tri_sim"),
    layer("pq_core.hypercube.local_join_us", "us", "lower", "map_servers_parallel(local_join) at pool size 2 | query_p50_ms on tri_sim"),
    layer("pq_core.hypercube.local_join_max_us", "us", "lower", "slowest single server's local_join run alone: the floor added parallelism can reach | query_p50_ms on tri_sim"),
    layer("pq-relation.join.ns_per_input_row", "ns", "lower", "natural_join on the heaviest server's first two fragments | query_p50_ms on tri_* (fan-out ~0) vs star_skew_wide (fan-out >>1)"),
    layer("pq-relation.join.out_rows_per_probe_row", "ratio", "lower", "same join: output rows over probe-side rows | tells the two uses of the join layer apart"),
    layer("pq_core.hypercube.merge_us", "us", "lower", "Relation::append of the per-server outputs | query_p50_ms on star_skew_wide; ~0 on tri_*"),
    layer("pq-relation.project_dedup_us", "us", "lower", "Relation::project + dedup of the merged answer | query_p50_ms on star_skew_wide; ~0 on tri_*"),
    layer("pq_core.skew.star_run_us", "us", "lower", "run_star_skew_aware (0 unless the served plan is the skew-aware star) | query_p50_ms on star_skew_wide"),
    layer("pq_core.multiround.run_us", "us", "lower", "multiround::plan::execute_plan (0 unless the served plan is multi-round) | query_p50_ms on ins_replan_wal"),
    layer("pq-engine.executor.run_us", "us", "lower", "run_plan | parent of the stage spans; query_p50_ms everywhere"),
    layer("pq-engine.session.run_us", "us", "lower", "Session::run | parent of parse, cache and executor; query_p50_ms everywhere"),
    layer("pq-exec.speedup", "ratio", "higher", "local_join wall at TaskPool::new(1) over TaskPool::new(2) | query_p50_ms down, server_cpu_ms_per_query flat or up on tri_sim; <=1 expected on ins_replan_wal"),
    layer("pq-exec.tasks_per_query", "count", "lower", "TaskPool::stats() deltas per Session::run | server_cpu_ms_per_query on tri_sim"),
    layer("pq-exec.steals_per_query", "count", "lower", "TaskPool::stats() deltas per Session::run | server_cpu_ms_per_query on tri_sim"),
    layer("pq-mpc.load.max_bits", "bits", "lower", "RunMetrics::max_load() of the library run (exact) | load_over_bound"),
    layer("pq-mpc.load.skew", "ratio", "lower", "max over mean received bits of the heaviest round (exact) | load_over_bound"),
    layer("pq-mpc.load.replication_rate", "ratio", "lower", "RunMetrics::replication_rate() (exact) | load_over_bound, wire_bytes_per_query"),
    layer("pq-mpc.load.rounds", "count", "lower", "RunMetrics::num_rounds() (exact) | query_p50_ms on ins_replan_wal"),
    layer("pq-relation.wire.encode_ns_per_row", "ns", "lower", "Relation::write_rows_le of the run's largest fragment | query_p50_ms, server_cpu_ms_per_query on tri_cluster only"),
    layer("pq-relation.wire.decode_ns_per_row", "ns", "lower", "Relation::from_rows_le of the same bytes | query_p50_ms, server_cpu_ms_per_query on tri_cluster only"),
    layer("pq-mpc.net.codec.encode_us", "us", "lower", "write_frame of the largest Fragment into a Vec<u8> | query_p50_ms on tri_cluster only"),
    layer("pq-mpc.net.codec.decode_us", "us", "lower", "read_frame of the same bytes | query_p50_ms on tri_cluster only"),
    layer("pq-mpc.net.pool.round_us", "us", "lower", "WorkerPool::execute against LocalWorkers::spawn(2) | query_p50_ms on tri_cluster"),
    layer("pq-mpc.net.wire_bytes_per_model_byte", "ratio", "lower", "measured bytes_on_wire over the model's total_bits/8 for the same round | wire_bytes_per_query on tri_cluster"),
    layer("pq-mpc.net.retries", "count", "lower", "PoolStats::retries after the traced rounds; must be 0 | a retry invalidates tri_cluster latency"),
    layer("pq-engine.delta.apply_us_first", "us", "lower", "Engine::apply of one row at the loaded size | insert_p50_ms"),
    layer("pq-engine.delta.apply_us_last", "us", "lower", "Engine::apply of one row after the whole INSERT script; the gap to _first is the O(relation) copy | insert_p50_ms, insert_p95_ms"),
    layer("pq-wal.append_us", "us", "lower", "Wal::append of a one-row delta record, group-commit | insert_p50_ms on ins_replan_wal"),
    layer("pq-wal.bytes_per_insert", "B", "lower", "pq_wal_bytes_total delta per INSERT from the served METRICS (0 on non-durable workloads) | insert_p50_ms"),
    layer("pq-wal.fsyncs_per_insert", "ratio", "lower", "pq_wal_fsyncs_total delta per INSERT from the served METRICS (0 on non-durable workloads) | insert_p95_ms"),
    layer("pq-wal.stored_bytes_per_user_byte", "ratio", "lower", "bytes in --data-dir when the script ends over bytes of INSERT row text sent (0 on non-durable workloads) | space cost of the write path"),
    layer("pq-wal.checkpoint_ms", "ms", "lower", "Wal::checkpoint of the loaded database | insert_p95_ms on ins_replan_wal"),
    layer("pq-wal.recover_ms", "ms", "lower", "pq_wal::recover of that directory | recover_s"),
    layer("pq-engine.durability.open_ms", "ms", "lower", "open_durable of that directory | recover_s"),
    layer("pq-obs.overhead_ratio", "ratio", "lower", "Session::run default over with_metrics_enabled(false); budget 1.02 | query_p50_ms, all"),
    layer("pqd.respond_us", "us", "lower", "client mean latency minus the server-side pq_query_latency_micros mean: row decoding, formatting, socket | query_p50_ms on star_skew_wide; floor of every small query on ins_replan_wal"),
    layer("pqd.ns_per_reply_row", "ns", "lower", "pqd.respond_us per reply row | query_p50_ms on star_skew_wide"),
    layer("pqd.reply_bytes_per_query", "B", "lower", "bytes of one reply as read by the client | wire_bytes_per_query"),
    layer("pqbench.control_ms", "ms", "lower", "median of the control kernel during the served phase | denominator of query_p50_rel; informational"),
    layer("trace.coverage", "ratio", "higher", "sum of stage self-times over the run_plan span; 0.90-1.10 expected on tri_sim | validity of the stage table"),
    layer("trace.overhead_ratio", "ratio", "lower", "staged (traced) replay over untraced Session::run; <= 1.05 expected on tri_sim | validity of the stage table"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        for metric in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                matches!(metric.better, "lower" | "higher"),
                "{}",
                metric.name
            );
            assert!(
                metric.unit.len() <= 16 && metric.bound <= 0.25,
                "{}",
                metric.name
            );
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must describe the same benchmark.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            json.get(key)
                .and_then(Json::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, def) in json
            .get("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .zip(&WORKLOADS)
        {
            assert_eq!(entry.get("why").and_then(Json::as_str), Some(def.why));
            assert!(
                def.why.len() <= 200 && !def.why.contains('\n'),
                "{}",
                def.name
            );
        }
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            for (entry, def) in json.get(key).unwrap().as_array().unwrap().iter().zip(table) {
                assert_eq!(
                    entry.get("unit").and_then(Json::as_str),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(def.better),
                    "{}",
                    def.name
                );
                if key == "end_to_end" {
                    assert_eq!(
                        entry.get("bound").and_then(Json::as_f64),
                        Some(def.bound),
                        "{}",
                        def.name
                    );
                }
            }
        }
    }
}
