//! The end-to-end measurement: a real `pqd` (and its `--worker` processes),
//! one client on one connection in a closed loop, every reply checked.
//!
//! Closed loop with one client because that is what `pqd` is today: one
//! thread per connection whose client waits for the `OK` line, on a
//! reference host with two cores — one client plus the server's pool is all
//! the machine can run without the benchmark measuring the scheduler.

use crate::client::{prometheus_totals, Client, Reply};
use crate::control::ControlKernel;
use crate::gen::{generate, Inputs};
use crate::oracle::{expected_answer, AnswerDigest};
use crate::proc::{self, Proc, TmpDir};
use crate::spec::{self, Workload};
use pq_core::bounds::one_round::lower_bound_load;
use pq_engine::{Engine, EngineRun};
use pq_relation::{load_database_files, Database, ValueDictionary};
use std::collections::HashMap;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Router hash seed of every server and of the library run (`pqd`'s
/// default, stated so the load counts can be reproduced).
pub const HASH_SEED: u64 = 7;

/// `--threads` of the server; workers run `--threads 1`.
pub const SERVER_THREADS: usize = 2;

/// One run's inputs, written to disk and loaded back the way `pqd` loads
/// them, with the oracle's expectation.
pub struct Prepared {
    pub workload: Workload,
    pub inputs: Inputs,
    pub tmp: TmpDir,
    pub csv_dir: PathBuf,
    pub database: Database,
    pub dictionary: ValueDictionary,
    pub expected: AnswerDigest,
}

/// Generate, write, load and oracle-check the inputs of one run.
pub fn prepare(
    root: &Path,
    workload: &Workload,
    seed: u64,
    seconds: u64,
) -> Result<Prepared, String> {
    let inputs = generate(workload, seed, workload.script_len(seconds));
    let tmp = TmpDir::create(root, workload.name)?;
    let csv_dir = tmp.path().join("csv");
    std::fs::create_dir_all(&csv_dir).map_err(|e| format!("{}: {e}", csv_dir.display()))?;
    for (name, text) in &inputs.files {
        std::fs::write(csv_dir.join(name), text).map_err(|e| format!("writing {name}: {e}"))?;
    }
    let (database, dictionary) = load_database_files(std::slice::from_ref(&csv_dir))
        .map_err(|e| format!("loading the generated CSVs: {e}"))?;
    let expected = expected_answer(workload.query(), &database, &dictionary, &inputs.planted)?;
    Ok(Prepared {
        workload: *workload,
        inputs,
        tmp,
        csv_dir,
        database,
        dictionary,
        expected,
    })
}

impl Prepared {
    /// The query run through the library on the same data, `p` and hash
    /// seed as the server: the source of the paper's load counts.
    pub fn library_run(&self) -> Result<EngineRun, String> {
        let engine = Engine::new(self.database.clone(), self.workload.servers)
            .with_seed(HASH_SEED)
            .with_threads(SERVER_THREADS);
        let run = engine
            .session()
            .run(self.workload.query())
            .map_err(|e| format!("library run: {e}"))?;
        if run.outcome.output.len() as u64 != self.expected.rows {
            return Err(format!(
                "library run returned {} rows, the oracle {}",
                run.outcome.output.len(),
                self.expected.rows
            ));
        }
        Ok(run)
    }

    /// `max_load / L_lower` of a library run (Theorem 3.5's one-round lower
    /// bound for the query and the loaded relation sizes).
    pub fn load_over_bound(&self, run: &EngineRun) -> f64 {
        let bound = lower_bound_load(
            &run.plan.parsed.query,
            &self.database.sizes_bits(),
            self.workload.servers,
        );
        run.outcome.metrics.max_load() as f64 / bound
    }

    fn base_tuples(&self) -> u64 {
        self.database.total_tuples() as u64
    }
}

/// A running server with its workers and the one client connection.
/// Dropping it kills every process (fields drop in order: the client's
/// socket first, then the server, then the workers).
pub struct Deployment {
    pub client: Client,
    server: Proc,
    workers: Vec<Proc>,
    /// Server process spawn → its `listening on` line.
    pub listening: Duration,
    /// First spawn (workers included) → `READY` read by the client.
    pub ready: Duration,
}

impl Deployment {
    pub fn start(
        pqd: &Path,
        prepared: &Prepared,
        data_dir: Option<&Path>,
    ) -> Result<Deployment, String> {
        let os = |s: &str| OsString::from(s);
        let start = Instant::now();
        let mut workers = Vec::new();
        let mut addresses = Vec::new();
        for _ in 0..prepared.workload.workers {
            let args = [
                os("--worker"),
                os("--threads"),
                os("1"),
                os("--log-level"),
                os("quiet"),
            ];
            let (worker, address, _) = Proc::spawn_listening(pqd, &args)?;
            workers.push(worker);
            addresses.push(address);
        }
        let mut args = vec![
            os("--data"),
            prepared.csv_dir.clone().into_os_string(),
            os("--servers"),
            os(&prepared.workload.servers.to_string()),
            os("--seed"),
            os(&HASH_SEED.to_string()),
            os("--threads"),
            os(&SERVER_THREADS.to_string()),
            os("--log-level"),
            os("quiet"),
        ];
        if !addresses.is_empty() {
            args.extend([os("--cluster"), os(&addresses.join(","))]);
        }
        if let Some(dir) = data_dir {
            args.extend([
                os("--data-dir"),
                dir.as_os_str().to_owned(),
                os("--wal-sync"),
                os("group-commit"),
            ]);
        }
        let (server, address, listening) = Proc::spawn_listening(pqd, &args)?;
        // `pqd` polls its listener every 50 ms. A client that connects the
        // instant the port is announced races the first `accept()`: it
        // wins or loses by scheduler luck, and READY arrives either at once
        // or 50 ms later. Waiting out the race makes every start meet the
        // poll sleep, so `setup_s` and `recover_s` include one poll
        // interval, always, instead of sometimes.
        std::thread::sleep(spec::CONNECT_DELAY);
        let client = Client::connect(&address)?;
        Ok(Deployment {
            client,
            server,
            workers,
            listening,
            ready: start.elapsed(),
        })
    }

    fn pids(&self) -> Vec<u32> {
        std::iter::once(&self.server)
            .chain(&self.workers)
            .map(Proc::pid)
            .collect()
    }

    fn cpu_seconds(&self) -> Result<f64, String> {
        self.pids().into_iter().map(proc::cpu_seconds).sum()
    }

    fn peak_rss_kib(&self) -> Result<u64, String> {
        self.pids().into_iter().map(proc::peak_rss_kib).sum()
    }
}

/// Everything one served run measured, before it is boiled down to the
/// metric tables.
#[derive(Debug, Default)]
pub struct Served {
    pub attempted: u64,
    pub failed: u64,
    /// Why requests failed, first few only.
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub startup_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub insert_ms: Vec<f64>,
    pub control_ms: Vec<f64>,
    pub recover_s: Vec<f64>,
    /// Wall time of the measured phase, control samples excluded.
    pub measured_s: f64,
    /// Server-side CPU over the measured phase.
    pub cpu_s: f64,
    pub peak_rss_kib: u64,
    pub reply_bytes: u64,
    pub reply_rows: u64,
    pub bytes_on_wire: u64,
    pub stored_bytes: u64,
    pub user_bytes: u64,
    /// Deltas of the server's cumulative metrics over the measured phase.
    pub server: HashMap<String, f64>,
}

impl Served {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Count one `RUN` reply; returns true when it matched the oracle.
    fn check_run(&mut self, reply: &Reply, expected: &AnswerDigest) -> bool {
        self.attempted += 1;
        if !reply.is_ok() {
            self.fail(format!("RUN: {}", reply.status));
        } else if reply.digest != *expected {
            self.fail(format!(
                "RUN: {} rows (digest {:#x}), oracle has {} (digest {:#x})",
                reply.digest.rows, reply.digest.sum, expected.rows, expected.sum
            ));
        } else {
            return true;
        }
        false
    }

    fn check_insert(&mut self, reply: &Reply) -> bool {
        self.attempted += 1;
        if !reply.is_ok() {
            self.fail(format!("INSERT: {}", reply.status));
        }
        reply.is_ok()
    }

    pub fn successful_runs(&self) -> usize {
        self.query_ms.len()
    }
}

fn metrics_totals(client: &mut Client) -> Result<HashMap<String, f64>, String> {
    let reply = client.request("METRICS")?;
    if !reply.is_ok() {
        return Err(format!("METRICS: {}", reply.status));
    }
    Ok(prometheus_totals(&reply.body))
}

fn stats_tuples(client: &mut Client) -> Result<u64, String> {
    let reply = client.request("STATS")?;
    reply
        .body
        .iter()
        .find_map(|line| {
            let words: Vec<&str> = line.split_whitespace().collect();
            words
                .iter()
                .position(|w| *w == "tuple(s)")
                .and_then(|i| words.get(i.checked_sub(1)?)?.parse().ok())
        })
        .ok_or_else(|| format!("STATS printed no tuple count: {:?}", reply.body))
}

fn check_interrupt() -> Result<(), String> {
    if proc::interrupted() {
        Err("interrupted".to_string())
    } else {
        Ok(())
    }
}

/// The control kernel on its schedule: between two requests, once per
/// [`spec::CONTROL_GAP`] (≈ 55 samples in a 15-second run whatever the
/// request rate), its time kept out of the measured wall time.
struct ControlSampler {
    kernel: ControlKernel,
    samples_ms: Vec<f64>,
    time: Duration,
    last: Instant,
}

impl ControlSampler {
    fn after_request(&mut self) {
        if self.last.elapsed() >= spec::CONTROL_GAP {
            let start = Instant::now();
            self.samples_ms.push(self.kernel.sample());
            self.last = Instant::now();
            self.time += self.last - start;
        }
    }
}

/// Run the served measurement of one workload: a `seconds`-long window of
/// at least `min_runs` queries (read workloads) or the fixed script (write
/// workload).
pub fn run(
    pqd: &Path,
    prepared: &Prepared,
    seconds: u64,
    min_runs: usize,
) -> Result<Served, String> {
    let workload = &prepared.workload;
    let query = format!("RUN {}", workload.query());
    let mut served = Served::default();
    let mut control = ControlSampler {
        kernel: ControlKernel::new(),
        samples_ms: Vec::new(),
        time: Duration::ZERO,
        last: Instant::now(),
    };

    // Set-up: cold starts, each on a fresh data directory. The last one
    // stays up and serves the measured phase.
    let mut deployment = None;
    let mut data_dir = None;
    for i in 0..spec::COLD_STARTS {
        check_interrupt()?;
        drop(deployment.take());
        data_dir = workload
            .durable
            .then(|| prepared.tmp.path().join(format!("wal-{i}")));
        let started = Deployment::start(pqd, prepared, data_dir.as_deref())?;
        served.setup_s.push(started.ready.as_secs_f64());
        served
            .startup_ms
            .push(started.listening.as_secs_f64() * 1e3);
        deployment = Some(started);
    }
    let mut deployment = deployment.expect("COLD_STARTS > 0");

    for _ in 0..spec::WARMUP_QUERIES {
        let reply = deployment.client.request(&query)?;
        if !served.check_run(&reply, &prepared.expected) {
            return Err(format!("warm-up query failed: {:?}", served.failures));
        }
    }
    // One unrecorded sample, so the peer thread's first wake-up is not in
    // the series.
    control.kernel.sample();

    let before = metrics_totals(&mut deployment.client)?;
    let cpu_before = deployment.cpu_seconds()?;
    let phase_start = Instant::now();
    let mut last_run = Reply::default();
    if workload.write_cycles {
        // The fixed script: INSERT one fresh row, then RUN (a cache miss,
        // since the insert invalidated every plan reading that relation).
        for insert in &prepared.inputs.inserts {
            check_interrupt()?;
            let reply = deployment.client.request(insert)?;
            if served.check_insert(&reply) {
                served.insert_ms.push(reply.latency.as_secs_f64() * 1e3);
            }
            let reply = deployment.client.request(&query)?;
            if served.check_run(&reply, &prepared.expected) {
                served.query_ms.push(reply.latency.as_secs_f64() * 1e3);
                last_run = reply;
            }
            control.after_request();
        }
    } else {
        // The fixed window: RUNs until the time is up and the tail
        // percentile has its samples; a host too slow for that within four
        // windows is reported, not silently measured on fewer samples.
        let window = Duration::from_secs(seconds);
        let mut requests = 0;
        while phase_start.elapsed() - control.time < window || requests < min_runs {
            check_interrupt()?;
            if phase_start.elapsed() > 4 * window + Duration::from_secs(30) {
                return Err(format!(
                    "only {requests} queries completed in four windows; {min_runs} are needed"
                ));
            }
            let reply = deployment.client.request(&query)?;
            if served.check_run(&reply, &prepared.expected) {
                served.query_ms.push(reply.latency.as_secs_f64() * 1e3);
                last_run = reply;
            }
            requests += 1;
            control.after_request();
        }
    }
    served.measured_s = (phase_start.elapsed() - control.time).as_secs_f64();
    served.control_ms = std::mem::take(&mut control.samples_ms);
    served.cpu_s = deployment.cpu_seconds()? - cpu_before;
    served.peak_rss_kib = deployment.peak_rss_kib()?;
    let after = metrics_totals(&mut deployment.client)?;
    served.server = after
        .iter()
        .map(|(name, value)| {
            (
                name.clone(),
                value - before.get(name).copied().unwrap_or(0.0),
            )
        })
        .collect();
    served.reply_bytes = last_run.bytes;
    served.reply_rows = last_run.digest.rows;
    served.bytes_on_wire = last_run.status_field("bytes_on_wire=").unwrap_or(0);

    if !workload.write_cycles {
        // The INSERT tail of a read workload: the write path on this data
        // size, then one RUN to see that fresh rows changed no answer.
        for insert in &prepared.inputs.inserts {
            check_interrupt()?;
            let reply = deployment.client.request(insert)?;
            if served.check_insert(&reply) {
                served.insert_ms.push(reply.latency.as_secs_f64() * 1e3);
            }
        }
        let reply = deployment.client.request(&query)?;
        served.check_run(&reply, &prepared.expected);
    }
    served.user_bytes = prepared.inputs.insert_row_bytes();
    served.stored_bytes = data_dir.as_deref().map_or(0, proc::dir_bytes);

    // Crash and recover: kill -9, restart on the same inputs and data
    // directory, and hold the restarted server to the oracle. A durable
    // server must have every acknowledged INSERT; a non-durable one is back
    // to its CSV files.
    let expected_tuples = prepared.base_tuples()
        + if workload.durable {
            prepared.inputs.inserts.len() as u64
        } else {
            0
        };
    // The crash: dropping a deployment SIGKILLs the server and its workers.
    drop(deployment);
    for _ in 0..spec::RESTARTS {
        check_interrupt()?;
        let mut restarted = Deployment::start(pqd, prepared, data_dir.as_deref())?;
        served.recover_s.push(restarted.ready.as_secs_f64());
        served.attempted += 1;
        let tuples = stats_tuples(&mut restarted.client)?;
        if tuples != expected_tuples {
            served.fail(format!(
                "after recovery: {tuples} tuples, expected {expected_tuples}"
            ));
        }
        let reply = restarted.client.request(&query)?;
        served.check_run(&reply, &prepared.expected);
    }
    Ok(served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proc::{build_pqd, live_children_named, repo_root};
    use crate::spec::WORKLOADS;

    /// Drives the real `pqd` (building it if need be) on miniature inputs:
    /// the cluster workload for the worker processes, the durable one for
    /// the data directory and the recovery check.
    #[test]
    fn miniature_runs_are_correct_and_leave_nothing_behind() {
        let root = repo_root().unwrap();
        let pqd = build_pqd(&root).unwrap();
        for workload in [WORKLOADS[1].scaled(600, 6), WORKLOADS[3].scaled(200, 10)] {
            let prepared = prepare(&root, &workload, 3, 1).unwrap();
            let tmp = prepared.tmp.path().to_path_buf();
            let served = run(&pqd, &prepared, 1, 30).unwrap();
            assert_eq!(served.failed, 0, "{}: {:?}", workload.name, served.failures);
            assert!(served.successful_runs() >= 30, "{}", workload.name);
            assert_eq!(served.insert_ms.len(), workload.script_len(1));
            assert_eq!(served.setup_s.len(), spec::COLD_STARTS);
            assert_eq!(served.recover_s.len(), spec::RESTARTS);
            assert_eq!(
                served.stored_bytes > 0,
                workload.durable,
                "only a durable server owns files"
            );
            assert_eq!(
                served.bytes_on_wire > 0,
                workload.workers > 0,
                "only a cluster has a wire"
            );
            assert!(
                live_children_named("pqd").is_empty(),
                "{}: a pqd survived its run",
                workload.name
            );
            drop(prepared);
            assert!(!tmp.exists(), "{}: out/tmp was not cleaned", workload.name);
        }

        // The panic path: a deployment alive when the stack unwinds.
        let prepared = prepare(&root, &WORKLOADS[1].scaled(300, 3), 4, 1).unwrap();
        let tmp = prepared.tmp.path().to_path_buf();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _prepared = prepared;
            let _deployment = Deployment::start(&pqd, &_prepared, None).unwrap();
            assert_eq!(live_children_named("pqd").len(), 3, "server + 2 workers");
            panic!("a failed assert in the middle of a run");
        }));
        assert!(unwound.is_err());
        assert!(
            live_children_named("pqd").is_empty(),
            "unwinding must kill the server and its workers"
        );
        assert!(!tmp.exists(), "unwinding must clean out/tmp");
    }
}
