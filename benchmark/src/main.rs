//! `pqbench` — the served-query benchmark of this repository.
//!
//! ```text
//! pqbench --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line (the contract)
//! pqbench run     [--workload W] [--seed N] [--seconds S] [--repeat R] [--out FILE]
//! pqbench trace   [--workload W] [--seed N] [--seconds S] [--repeat R] [--out FILE]
//! pqbench compare A.json B.json
//! pqbench manifest                                        print BENCHMARK.json from the metric tables
//! pqbench tables                                          print the README's metric tables (markdown)
//! ```
//!
//! See `benchmark/README.md` for what is measured and why.

mod client;
mod compare;
mod control;
mod gen;
mod host;
mod json;
mod layers;
mod oracle;
mod proc;
mod served;
mod spec;
mod stats;
mod trace;

use json::Json;
use served::{Prepared, Served};
use spec::{MetricDef, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use stats::Values;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One workload measured once: what the contract's JSON line carries.
struct Measured {
    correct: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// `(metric, value, samples behind it)`, in table order.
    metrics: Vec<(&'static MetricDef, f64, u64)>,
    /// Untraced runs only: raw timings and tail percentiles, informational.
    raw: Vec<Raw>,
}

fn require(value: Option<f64>, what: &str) -> Result<f64, String> {
    value.ok_or_else(|| format!("no samples for {what}"))
}

/// A value measured next to the table but not part of it: the raw timings
/// behind the host-corrected metrics, and the tail percentiles.
type Raw = (&'static str, &'static str, f64);

/// The end-to-end table from one untraced served run, and the raw figures
/// behind it.
///
/// Latency, throughput and CPU figures are **host-corrected**: scaled by
/// `CONTROL_REFERENCE_MS / control_ms`, i.e. to a host on which the control
/// kernel reads its reference 10 ms. On a quiet reference host that changes
/// nothing; on a disturbed one it takes out what the host did to the run.
fn end_to_end(prepared: &Prepared, served: &Served) -> Result<(Values, Vec<Raw>), String> {
    let runs = served.successful_runs();
    if runs == 0 {
        return Err(format!("no RUN succeeded: {:?}", served.failures));
    }
    let model = prepared.library_run()?;
    let control_ms = require(stats::median(&served.control_ms), "the control kernel")?;
    let corrected = |ms: f64| stats::host_corrected(ms, control_ms, spec::CONTROL_REFERENCE_MS);
    let query_p50 = require(stats::median(&served.query_ms), "query_p50_ms")?;
    let insert_p50 = require(stats::median(&served.insert_ms), "insert_p50_ms")?;
    let queries_per_s = runs as f64 / served.measured_s;
    let cpu_ms_per_query = served.cpu_s * 1e3 / runs as f64;
    let (queries, inserts) = (served.query_ms.len(), served.insert_ms.len());

    let mut table = Values::default();
    table.put_median("setup_s", &served.setup_s);
    table.put("query_p50_ms", corrected(query_p50), queries);
    table.put(
        "query_p50_rel",
        stats::host_corrected(query_p50, control_ms, 1.0),
        served.control_ms.len(),
    );
    // A rate: the correction divides.
    table.put("queries_per_s", queries_per_s / corrected(1.0), queries);
    table.put(
        "server_cpu_ms_per_query",
        corrected(cpu_ms_per_query),
        queries,
    );
    table.put("peak_rss_mib", served.peak_rss_kib as f64 / 1024.0, 1);
    table.put("load_over_bound", prepared.load_over_bound(&model), 1);
    table.put(
        "wire_bytes_per_query",
        (served.reply_bytes + served.bytes_on_wire) as f64,
        1,
    );
    table.put("insert_p50_ms", corrected(insert_p50), inserts);
    table.put_median("recover_s", &served.recover_s);
    // The 95th percentiles need 200 samples (ten beyond them); the write
    // workload's fixed script and the INSERT tail always have them, a read
    // window is extended until it does.
    let query_p95 = require(
        stats::p95(&served.query_ms),
        "query_p95 (needs 200 samples)",
    )?;
    let insert_p95 = require(
        stats::p95(&served.insert_ms),
        "insert_p95 (needs 200 samples)",
    )?;
    let raw = vec![
        ("control_ms", "ms", control_ms),
        ("query_p50_raw_ms", "ms", query_p50),
        ("query_p95_raw_ms", "ms", query_p95),
        ("queries_per_s_raw", "1/s", queries_per_s),
        ("server_cpu_raw_ms_per_query", "ms", cpu_ms_per_query),
        ("insert_p50_raw_ms", "ms", insert_p50),
        ("insert_p95_raw_ms", "ms", insert_p95),
    ];
    Ok((table, raw))
}

/// The per-layer values only a running server can give.
fn served_layers(served: &Served, values: &mut Values) {
    let delta = |name: &str| served.server.get(name).copied().unwrap_or(0.0);
    values.put_median("pqd.startup_ms", &served.startup_ms);
    let queries = delta("pq_query_latency_micros_count");
    let server_side_us = if queries > 0.0 {
        delta("pq_query_latency_micros_sum") / queries
    } else {
        0.0
    };
    // Mean against mean: the registry only keeps the server-side sum.
    let answered = served.query_ms.len();
    let client_us = served.query_ms.iter().sum::<f64>() * 1e3 / answered.max(1) as f64;
    let respond_us = client_us - server_side_us;
    values.put("pqd.respond_us", respond_us, answered);
    values.put(
        "pqd.ns_per_reply_row",
        respond_us * 1e3 / served.reply_rows.max(1) as f64,
        answered,
    );
    values.put("pqd.reply_bytes_per_query", served.reply_bytes as f64, 1);
    let logged = delta("pq_deltas_applied_total").max(1.0);
    values.put(
        "pq-wal.bytes_per_insert",
        delta("pq_wal_bytes_total") / logged,
        logged as usize,
    );
    values.put(
        "pq-wal.fsyncs_per_insert",
        delta("pq_wal_fsyncs_total") / logged,
        logged as usize,
    );
    values.put(
        "pq-wal.stored_bytes_per_user_byte",
        served.stored_bytes as f64 / served.user_bytes.max(1) as f64,
        1,
    );
    values.put_median("pqbench.control_ms", &served.control_ms);
}

/// Measure one workload once, untraced (end-to-end table) or traced
/// (per-layer table).
fn measure(
    root: &Path,
    pqd: &Path,
    workload: &Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<Measured, String> {
    // The traced run still needs a served phase (the `pqd.*` layer), on a
    // shorter window; the rest of its time goes to the in-process replay.
    let served_seconds = if traced {
        (seconds * 2 / 5).max(1)
    } else {
        seconds
    };
    let prepared = served::prepare(root, workload, seed, served_seconds)?;
    let min_runs = if traced {
        spec::WARMUP_QUERIES
    } else {
        stats::MIN_SAMPLES_FOR_P95
    };
    let served = served::run(pqd, &prepared, served_seconds, min_runs)?;
    let (table, values, raw) = if traced {
        let mut tracer = trace::Tracer::new();
        let budget = Duration::from_secs(seconds - served_seconds);
        let mut values = layers::run(&prepared, workload.script_len(seconds), budget, &mut tracer)?;
        served_layers(&served, &mut values);
        let path = root.join(format!("benchmark/out/trace-{}.jsonl", workload.name));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        (&PER_LAYER[..], values, Vec::new())
    } else {
        let (values, raw) = end_to_end(&prepared, &served)?;
        (&END_TO_END[..], values, raw)
    };
    let metrics = table
        .iter()
        .map(|def| {
            let sample = values
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            Ok((def, sample.value, sample.samples))
        })
        .collect::<Result<_, String>>()?;
    Ok(Measured {
        correct: served.failed == 0,
        attempted: served.attempted,
        failed: served.failed,
        failures: served.failures,
        metrics,
        raw,
    })
}

fn metrics_json(measured: &Measured) -> Json {
    Json::Obj(
        measured
            .metrics
            .iter()
            .map(|(def, value, _)| {
                (
                    def.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::str(def.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

fn print_table(workload: &str, measured: &Measured) {
    eprintln!(
        "pqbench: {workload}: attempted {} failed {} correct {}",
        measured.attempted, measured.failed, measured.correct
    );
    for failure in &measured.failures {
        eprintln!("pqbench: {workload}: FAILED {failure}");
    }
    for (name, unit, value) in &measured.raw {
        eprintln!("pqbench: {workload}: {name:<42} {value:>16.6} {unit:<6} (informational)");
    }
    for (def, value, samples) in &measured.metrics {
        eprintln!(
            "pqbench: {workload}: {:<42} {value:>16.6} {:<6} (n={samples})",
            def.name, def.unit
        );
    }
}

/// Parsed `--flag value` pairs and positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let value = args
                        .next()
                        .ok_or_else(|| format!("--{flag} needs a value"))?;
                    parsed.flags.push((flag.to_string(), value));
                }
                None => parsed.positional.push(arg),
            }
        }
        Ok(parsed)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(name, _)| name == flag)
            .map(|(_, value)| value.as_str())
    }

    fn number(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{flag}: `{text}` is not a whole number")),
        }
    }

    fn workloads(&self) -> Result<Vec<&'static Workload>, String> {
        match self.get("workload") {
            None => Ok(WORKLOADS.iter().collect()),
            Some(name) => spec::workload(name).map(|w| vec![w]).ok_or_else(|| {
                format!(
                    "unknown workload `{name}` (one of: {})",
                    WORKLOADS.map(|w| w.name).join(", ")
                )
            }),
        }
    }

    fn seconds(&self, default: u64) -> Result<u64, String> {
        match self.number("seconds", default)? {
            0 => Err("--seconds must be at least 1".to_string()),
            seconds => Ok(seconds),
        }
    }
}

/// `BENCHMARK.json`, generated from the tables so the two cannot drift.
fn manifest() -> Json {
    let metric = |def: &MetricDef, bounded: bool| {
        let mut fields = vec![
            ("name", Json::str(def.name)),
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better)),
        ];
        if bounded {
            fields.push(("bound", Json::Num(def.bound)));
        }
        Json::obj(fields)
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(spec::RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|def| metric(def, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|def| metric(def, false)).collect()),
        ),
    ])
}

/// The two metric tables as markdown, for `benchmark/README.md`.
fn tables() -> String {
    let mut out = String::from(
        "| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n",
    );
    for def in &END_TO_END {
        out += &format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            def.name,
            def.unit,
            def.better,
            def.bound * 100.0,
            def.note
        );
    }
    out += "\n| per-layer metric | unit | taken around | expected to move |\n|---|---|---|---|\n";
    for def in &PER_LAYER {
        let (around, moves) = def.note.split_once(" | ").unwrap_or((def.note, ""));
        out += &format!("| `{}` | {} | {around} | {moves} |\n", def.name, def.unit);
    }
    out
}

/// The contract: one workload, one run, one JSON object as the last line.
fn contract_mode(args: &Args) -> Result<(), String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = spec::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = args.number("seed", 1)?;
    let seconds = args.seconds(spec::RUN_SECONDS)?;
    let traced = match args.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: `{other}` is not 0 or 1")),
    };
    let root = proc::repo_root()?;
    let pqd = proc::build_pqd(&root)?;
    let measured = measure(&root, &pqd, workload, seed, seconds, traced)?;
    print_table(workload.name, &measured);
    println!(
        "{}",
        Json::obj(vec![
            ("correct", Json::Bool(measured.correct)),
            ("attempted", Json::Num(measured.attempted as f64)),
            ("failed", Json::Num(measured.failed as f64)),
            ("metrics", metrics_json(&measured)),
        ])
        .render()
    );
    Ok(())
}

/// `run` / `trace`: every selected workload, `--repeat` times, into one
/// result file with the host fingerprint.
fn full_mode(args: &Args, traced: bool) -> Result<(), String> {
    let workloads = args.workloads()?;
    let seed = args.number("seed", 1)?;
    let seconds = args.seconds(spec::RUN_SECONDS)?;
    let repeat = args.number("repeat", 1)?.max(1);
    let root = proc::repo_root()?;
    let pqd = proc::build_pqd(&root)?;
    let mode = if traced { "trace" } else { "run" };
    let out: PathBuf = match args.get("out") {
        Some(path) => PathBuf::from(path),
        None => root.join(format!("benchmark/out/result-{mode}.json")),
    };
    let mut results = Vec::new();
    let mut all_correct = true;
    for workload in workloads {
        let mut runs: Vec<Measured> = Vec::new();
        for round in 0..repeat {
            eprintln!(
                "pqbench: {} ({mode}), seed {seed}, {seconds} s, run {} of {repeat}",
                workload.name,
                round + 1
            );
            let measured = measure(&root, &pqd, workload, seed, seconds, traced)?;
            print_table(workload.name, &measured);
            runs.push(measured);
        }
        // One entry per table metric, then the raw figures (which carry no
        // bound: `compare` lists them without judging).
        let first = &runs[0];
        let table = first
            .metrics
            .iter()
            .enumerate()
            .map(|(i, (def, _, samples))| {
                let values: Vec<f64> = runs.iter().map(|run| run.metrics[i].1).collect();
                (def.name, def.unit, *samples, values)
            });
        let raw = first.raw.iter().enumerate().map(|(i, (name, unit, _))| {
            let values: Vec<f64> = runs.iter().map(|run| run.raw[i].2).collect();
            (*name, *unit, 0, values)
        });
        let metrics = table
            .chain(raw)
            .map(|(name, unit, samples, values)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        (
                            "value",
                            Json::Num(stats::median(&values).expect("repeat >= 1")),
                        ),
                        ("unit", Json::str(unit)),
                        ("samples", Json::Num(samples as f64)),
                        (
                            "spread",
                            stats::spread(&values).map_or(Json::Null, Json::Num),
                        ),
                        (
                            "runs",
                            Json::Arr(values.into_iter().map(Json::Num).collect()),
                        ),
                    ]),
                )
            })
            .collect();
        let correct = runs.iter().all(|run| run.correct);
        all_correct &= correct;
        results.push((
            workload.name.to_string(),
            Json::obj(vec![
                ("correct", Json::Bool(correct)),
                (
                    "attempted",
                    Json::Num(runs.iter().map(|run| run.attempted).sum::<u64>() as f64),
                ),
                (
                    "failed",
                    Json::Num(runs.iter().map(|run| run.failed).sum::<u64>() as f64),
                ),
                ("metrics", Json::Obj(metrics)),
            ]),
        ));
    }
    let result = Json::obj(vec![
        ("schema", Json::str("pqbench-result-1")),
        ("mode", Json::str(mode)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("repeat", Json::Num(repeat as f64)),
        ("host", host::fingerprint(&root, &pqd)),
        ("workloads", Json::Obj(results)),
    ]);
    if let Some(dir) = out.parent().filter(|dir| !dir.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, result.render() + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("pqbench: wrote {}", out.display());
    if all_correct {
        Ok(())
    } else {
        Err("at least one run failed its correctness check".to_string())
    }
}

fn compare_mode(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.positional.as_slice() else {
        return Err("usage: pqbench compare A.json B.json".to_string());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let manifest = proc::repo_root()?.join("BENCHMARK.json");
    let (report, any_worse) =
        compare::compare(&read(a)?, &read(b)?, &read(&manifest.to_string_lossy())?)?;
    print!("{report}");
    Ok(any_worse)
}

fn main() {
    proc::install_interrupt_handler();
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        match args.positional.first().map(String::as_str) {
            None => contract_mode(&args).map(|()| 0),
            Some("run") => full_mode(&args, false).map(|()| 0),
            Some("trace") => full_mode(&args, true).map(|()| 0),
            Some("compare") => compare_mode(&args).map(i32::from),
            Some("manifest") => {
                println!("{}", manifest().render());
                Ok(0)
            }
            Some("tables") => {
                print!("{}", tables());
                Ok(0)
            }
            Some(other) => Err(format!(
                "unknown command `{other}` (run, trace, compare, manifest, tables)"
            )),
        }
    });
    // Every guard has been dropped by now: children are dead, tmp is gone.
    match outcome {
        Ok(code) => std::process::exit(code),
        Err(message) => {
            eprintln!("pqbench: error: {message}");
            std::process::exit(2);
        }
    }
}
