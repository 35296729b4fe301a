//! `pqd` — the parallel-query daemon.
//!
//! A minimal line-protocol TCP server that proves the concurrent engine
//! API end to end: the process loads one database into one [`Engine`]
//! (one snapshot, one shared plan cache) and serves every connection from
//! its own thread with its own [`Session`] — so N clients plan and execute
//! concurrently, a plan cached for one client is a HIT for all others, and
//! a delta INSERTed by one client lands copy-on-write: readers mid-query
//! finish on their old snapshot while the next RUN sees the new rows.
//!
//! Protocol (one request line, one response block ending in `OK …`/`ERR …`):
//!
//! ```text
//! → RUN Q(x, y, z) :- E1(x, y), E2(y, z), E3(z, x)
//! ← ROW a,b,c                    (one line per answer tuple; inside a
//!                                 value, `\` is `\\` and `,` is `\,`;
//!                                 formatted by [`pq_engine::reply`] and
//!                                 sent in chunks of about 64 KiB)
//! ← OK 200 rows strategy=one-round HyperCube cache=MISS
//! → INSERT E1 a,b                (same value escaping as ROW; new tokens
//!                                 extend the shared dictionary)
//! ← OK inserted 1 row into E1 (201 rows)
//! → EXPLAIN Q(x, y) :- R(x, y)
//! ← …plan text…
//! ← OK
//! → SERVERS 8        ← OK p=8          (this connection's session only)
//! → SEED 42          ← OK seed=42
//! → STATS            ← …lines… then OK
//! → METRICS          ← Prometheus text exposition of the engine's
//!                      cumulative metrics, then OK (`METRICS JSON` for
//!                      one JSON document instead)
//! → QUIT             ← OK bye
//! ```
//!
//! Observability: every query is traced through the engine (parse → cache
//! lookup → plan → execute) into the cumulative [`pq_obs`] registry that
//! `METRICS` dumps; `--slow-query-ms N` warn-logs any RUN slower than `N`
//! milliseconds with its per-phase breakdown, and `--log-level` gates the
//! structured stderr log (default `info`, `quiet` silences it).
//!
//! Errors never kill the connection: `ERR <message>` (newlines folded) and
//! the session keeps listening. Two knobs bound the damage misbehaving or
//! idle clients can do (the first slice of the async front-end roadmap
//! item): `--read-timeout` closes connections that stay silent too long,
//! and `--max-connections` refuses connections over the cap with a clean
//! `ERR busy` instead of letting threads pile up. A request line longer
//! than 1 MiB is answered `ERR line too long` and the connection closed,
//! so no client can make the server buffer without bound.
//!
//! Every connection runs with `TCP_NODELAY` and each response block is
//! flushed exactly once, at its end: a reply's short last segment never
//! waits on the client's delayed ACK.
//!
//! Two distributed modes turn one `pqd` into a cluster:
//!
//! * `pqd --worker` speaks the binary frame protocol of [`pq_mpc::net`]
//!   instead of the line protocol: no data is loaded, the process joins
//!   whatever fragments a coordinator ships it and exits cleanly on a
//!   `Shutdown` frame;
//! * `pqd --cluster w1:port,w2:port,…` serves the normal line protocol
//!   but executes every plan on those workers, reporting measured
//!   per-round `bytes_on_wire` in `RUN` summaries and `STATS`.
//!
//! The `SHUTDOWN` command tears the whole arrangement down: the daemon
//! asks its workers (if any) to exit and then exits itself — the teardown
//! path scripts and CI use instead of `kill`.

use pq_engine::reply::write_rows;
use pq_engine::{open_durable, DurabilityOptions, Engine, Session};
use pq_mpc::RunMetrics;
use pq_obs::{
    json_text, prometheus_text, Counter, Gauge, Histogram, LogLevel, Logger, MetricsRegistry,
};
use pq_relation::{load_database_files, ValueDictionary};
use pq_wal::SyncPolicy;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

#[path = "cli_common.rs"]
mod cli_common;
use cli_common::{insert_rows, parse_number, value_of, CommonArgs};

/// Set by the C signal handler on SIGTERM/SIGINT; watched by
/// [`wake_listener_on_shutdown`], which unblocks the accept loop so it
/// takes the same graceful path as `SHUTDOWN` (checkpoint the WAL, stop the
/// workers, exit 0) instead of dying mid-write.
static SHUTDOWN_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Bytes of `ROW` lines formatted (under the dictionary read lock) per
/// socket write of a RUN reply.
const REPLY_CHUNK_BYTES: usize = 64 << 10;

/// Longest request line accepted, newline excluded.
const MAX_LINE_BYTES: usize = 1 << 20;

extern "C" fn note_shutdown_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store, no allocation,
    // no locks, no I/O.
    SHUTDOWN_REQUESTED.store(true, Ordering::SeqCst);
}

/// Route SIGTERM and SIGINT to [`note_shutdown_signal`] via libc's
/// `signal(2)` — no crate dependency, just the symbol every libc exports.
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = note_shutdown_signal as extern "C" fn(i32) as usize;
    // SAFETY: `signal` is the C standard library's handler registration;
    // the handler only performs an atomic store, which is
    // async-signal-safe.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

const USAGE: &str = "\
pqd — parallel-query daemon (one engine, one plan cache, N client sessions)

USAGE:
    pqd [OPTIONS] --data PATH...

OPTIONS:
    --data PATH            CSV/TSV file, or directory of .csv/.tsv files (repeatable)
    --data-dir DIR         durable mode: write-ahead log + checkpoints in DIR.
                           A fresh DIR is initialised from --data; an existing
                           one recovers its own state (--data then ignored)
    --wal-sync POLICY      WAL fsync policy: always, group-commit, never
                           (default group-commit; needs --data-dir)
    --checkpoint-every N   checkpoint after N logged deltas, 0 = only on
                           SHUTDOWN (default 1024; needs --data-dir)
    --servers P            default logical servers per session (default 64)
    --seed S               default router hash seed per session (default 7)
    --threads N            executor-pool parallelism: N-1 persistent worker
                           threads plus the helping caller; 1 runs queries
                           fully inline (default: PQ_THREADS, then the
                           machine's available parallelism). With --worker,
                           sizes the pool that parallelises each fragment
                           join
    --port PORT            TCP port to listen on (default 0 = ephemeral, printed)
    --host HOST            address to bind (default 127.0.0.1)
    --read-timeout SECS    close connections idle for SECS seconds (default 0 = never)
    --max-connections N    refuse connections over N with `ERR busy` (default 1024)
    --cluster ADDRS        execute plans on these pqd --worker processes
                           (host:port, repeatable and/or comma-separated)
    --cluster-retries N    extra attempts after a failed cluster run, each
                           on a freshly rebuilt topology (default 2)
    --cluster-deadline-ms MS
                           per-query wall-clock budget across all cluster
                           attempts, backoff included (default 30000)
    --cluster-fallback P   when the cluster stays unhealthy past the retry
                           budget: error (default) surfaces the failure;
                           simulator re-runs the plan in-process and marks
                           the answer degraded=true
    --worker               be a cluster worker: speak the binary frame
                           protocol, load no data, exit on a Shutdown frame
    --max-fragment-bytes N worker mode: reject fragments once a connection
                           holds N stored bytes (default 1 GiB)
    --log-level LEVEL      stderr log verbosity: quiet, error, warn, info,
                           debug (default info)
    --slow-query-ms MS     warn-log RUNs slower than MS milliseconds, with
                           the per-phase breakdown (default 0 = off)
    -h, --help             this text

PROTOCOL: one command per line — RUN <query>, EXPLAIN <query>,
INSERT <relation> <v1,...,vk>[;<v1,...,vk>]..., SERVERS <p>, SEED <n>,
STATS, METRICS [JSON], SHUTDOWN, QUIT; each response block ends with an
OK or ERR line. A batched INSERT (rows separated by `;`) applies as one
delta: one WAL record, one statistics fold, one cache invalidation.
METRICS dumps the engine's cumulative metrics in the Prometheus text
format (or one JSON document). SHUTDOWN flushes and checkpoints the WAL
(with --data-dir), then stops the daemon (and, with --cluster, its
workers); QUIT only closes the connection. SIGTERM and SIGINT take the
same graceful path as SHUTDOWN: stop accepting, checkpoint, stop the
workers, exit 0.
";

struct Options {
    common: CommonArgs,
    port: u16,
    host: String,
    read_timeout: u64,
    max_connections: usize,
    worker: bool,
    max_fragment_bytes: u64,
    log_level: LogLevel,
    slow_query_ms: u64,
    data_dir: Option<PathBuf>,
    wal_sync: SyncPolicy,
    checkpoint_every: u64,
}

fn parse_args() -> Result<Options, String> {
    let mut common = CommonArgs::new();
    let mut port = 0u16;
    let mut host = "127.0.0.1".to_string();
    let mut read_timeout = 0u64;
    let mut max_connections = 1024usize;
    let mut worker = false;
    let mut max_fragment_bytes = pq_mpc::net::WorkerLimits::default().max_fragment_bytes;
    let mut log_level = LogLevel::Info;
    let mut slow_query_ms = 0u64;
    let mut data_dir: Option<PathBuf> = None;
    let mut wal_sync = SyncPolicy::GroupCommit;
    let mut checkpoint_every = 1024u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if common.consume(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--worker" => worker = true,
            "--max-fragment-bytes" => {
                max_fragment_bytes = parse_number(
                    "--max-fragment-bytes",
                    &value_of("--max-fragment-bytes", &mut args)?,
                )?;
                if max_fragment_bytes == 0 {
                    return Err("--max-fragment-bytes must be positive".into());
                }
            }
            "--data-dir" => {
                data_dir = Some(PathBuf::from(value_of("--data-dir", &mut args)?))
            }
            "--wal-sync" => {
                let value = value_of("--wal-sync", &mut args)?;
                wal_sync = SyncPolicy::parse(&value).ok_or_else(|| {
                    format!("--wal-sync: `{value}` is not always|group-commit|never")
                })?;
            }
            "--checkpoint-every" => {
                checkpoint_every = parse_number(
                    "--checkpoint-every",
                    &value_of("--checkpoint-every", &mut args)?,
                )?
            }
            // parse_number::<u16> rejects (not truncates) ports above 65535.
            "--port" => port = parse_number("--port", &value_of("--port", &mut args)?)?,
            "--host" => host = value_of("--host", &mut args)?,
            "--read-timeout" => {
                read_timeout =
                    parse_number("--read-timeout", &value_of("--read-timeout", &mut args)?)?
            }
            "--log-level" => {
                let value = value_of("--log-level", &mut args)?;
                log_level = LogLevel::parse(&value).ok_or_else(|| {
                    format!("--log-level: `{value}` is not quiet|error|warn|info|debug")
                })?;
            }
            "--slow-query-ms" => {
                slow_query_ms =
                    parse_number("--slow-query-ms", &value_of("--slow-query-ms", &mut args)?)?
            }
            "--max-connections" => {
                max_connections = parse_number(
                    "--max-connections",
                    &value_of("--max-connections", &mut args)?,
                )?;
                if max_connections == 0 {
                    return Err("--max-connections must be at least 1".into());
                }
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option `{other}` (see --help)")),
        }
    }
    if worker && !common.cluster.is_empty() {
        return Err("--worker and --cluster are mutually exclusive: a worker \
                    executes fragments, it does not coordinate other workers"
            .into());
    }
    Ok(Options {
        // A worker loads no data, and a durable daemon may recover
        // everything from --data-dir, so the data-is-required validation
        // only applies to the plain in-memory daemon mode.
        common: if worker || data_dir.is_some() { common } else { common.finish()? },
        port,
        host,
        read_timeout,
        max_connections,
        worker,
        max_fragment_bytes,
        log_level,
        slow_query_ms,
        data_dir,
        wal_sync,
        checkpoint_every,
    })
}

/// Daemon-wide observability shared by every connection thread: the
/// structured logger behind `--log-level`, the slow-query threshold, and
/// the pqd-level metrics registered into the engine's registry (so one
/// `METRICS` dump covers both layers).
struct Daemon {
    logger: Logger,
    slow_query_ms: u64,
    slow_queries: Counter,
    connections_total: Counter,
    connections_active: Gauge,
    reply_micros: Histogram,
    reply_bytes: Counter,
    reply_rows: Counter,
}

impl Daemon {
    fn new(logger: Logger, slow_query_ms: u64, registry: &MetricsRegistry) -> Self {
        Daemon {
            logger,
            slow_query_ms,
            slow_queries: registry.counter(
                "pqd_slow_queries_total",
                &[],
                "RUNs slower than --slow-query-ms",
            ),
            connections_total: registry.counter(
                "pqd_connections_total",
                &[],
                "Client connections accepted since startup",
            ),
            connections_active: registry.gauge(
                "pqd_connections_active",
                &[],
                "Client connections currently being served",
            ),
            reply_micros: registry.histogram(
                "pqd_reply_micros",
                &[],
                "Formatting and sending one RUN reply, answer ready to final flush",
            ),
            reply_bytes: registry.counter(
                "pqd_reply_bytes_total",
                &[],
                "Bytes of RUN replies sent, status lines included",
            ),
            reply_rows: registry.counter("pqd_reply_rows_total", &[], "ROW lines sent"),
        }
    }
}

/// The shared token dictionary: RUN decodes under a read lock, INSERT
/// encodes new tokens under a write lock.
type SharedDictionary = Arc<RwLock<ValueDictionary>>;

/// Handle one `INSERT <relation> <row1>[;<row2>]…` request: the shared
/// validate/encode/apply pipeline, encoding under the dictionary write
/// lock. All rows of a batch land as one delta.
fn handle_insert(
    session: &Session,
    dictionary: &SharedDictionary,
    rest: &str,
) -> Result<String, String> {
    insert_rows(
        session,
        rest,
        "INSERT needs: INSERT <relation> <v1,...,vk>[;<v1,...,vk>]...",
        |tokens| {
            let mut dictionary = dictionary.write().unwrap_or_else(PoisonError::into_inner);
            tokens.iter().map(|t| dictionary.encode(t)).collect()
        },
    )
}

/// Read input off `reader` up to and including the next newline (or the
/// end of input), keeping none of it.
fn discard_line(reader: &mut impl BufRead) {
    loop {
        let rest = match reader.fill_buf() {
            Ok(rest) if !rest.is_empty() => rest,
            _ => return,
        };
        let end = rest.iter().position(|&b| b == b'\n');
        let taken = end.map_or(rest.len(), |at| at + 1);
        reader.consume(taken);
        if end.is_some() {
            return;
        }
    }
}

/// Serve one connection: its own session, its own budget/seed, shared
/// engine. Any I/O error simply ends the connection.
fn serve(stream: TcpStream, mut session: Session, dictionary: SharedDictionary, daemon: Arc<Daemon>) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_string());
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    let fold = |message: String| message.replace('\n', " | ");
    // Metrics of this connection's most recent successful RUN, so STATS
    // can report the measured per-round wire traffic of a cluster run.
    let mut last_metrics: Option<RunMetrics> = None;
    let _ = writeln!(
        writer,
        "READY {} relation(s) p={} seed={} backend={}",
        session.engine().snapshot().database().num_relations(),
        session.servers(),
        session.seed(),
        session.backend().describe()
    );
    let _ = writer.flush();
    let mut line = Vec::new();
    loop {
        line.clear();
        // At most one byte past the cap is ever buffered, whatever the
        // client sends.
        let mut capped = reader.by_ref().take(MAX_LINE_BYTES as u64 + 1);
        match capped.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) if line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n") => {
                let _ = writeln!(writer, "ERR line too long (over {MAX_LINE_BYTES} bytes), closing");
                let _ = writer.flush();
                // Closing over unread input would reset the connection and
                // could take the ERR line with it.
                discard_line(&mut reader);
                break;
            }
            Ok(_) => {}
            // The per-connection read timeout surfaces as WouldBlock (unix)
            // or TimedOut; tell the client why it is being dropped.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let _ = writeln!(writer, "ERR idle timeout, closing");
                let _ = writer.flush();
                break;
            }
            Err(_) => break,
        }
        let Ok(line) = std::str::from_utf8(&line) else {
            break;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (command, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        // Set by RUN: when its reply began, and the bytes and rows in it —
        // recorded once the block's flush has handed them to the socket.
        let mut replied: Option<(Instant, u64, u64)> = None;
        let result = match command.to_ascii_uppercase().as_str() {
            "RUN" => match session.run_traced(rest) {
                Ok((run, trace)) => {
                    let began = Instant::now();
                    // Format one bounded chunk under the dictionary read
                    // lock, release it, write, repeat: socket writes can
                    // block on a slow client's backpressure, and holding
                    // the lock across them would wedge every INSERT (and
                    // with it all other decoding) server-wide. Ids are
                    // append-only, so every chunk decodes the same tokens.
                    let mut rows = run.outcome.output.iter();
                    let mut chunk = Vec::with_capacity(REPLY_CHUNK_BYTES + 256);
                    let (mut sent, mut bytes) = (Ok(()), 0u64);
                    while sent.is_ok() {
                        chunk.clear();
                        {
                            let dictionary =
                                dictionary.read().unwrap_or_else(PoisonError::into_inner);
                            write_rows(&mut chunk, &mut rows, &dictionary, REPLY_CHUNK_BYTES);
                        }
                        if chunk.is_empty() {
                            break;
                        }
                        bytes += chunk.len() as u64;
                        sent = writer.write_all(&chunk);
                    }
                    // Cluster runs append the measured wire traffic; the
                    // leading fields stay byte-identical for existing
                    // clients and greps.
                    let wire = if run.outcome.metrics.is_measured() {
                        format!(" bytes_on_wire={}", run.outcome.metrics.bytes_on_wire())
                    } else {
                        String::new()
                    };
                    // Cluster sessions always say whether the answer came
                    // off the workers or the simulator fallback, so a
                    // client need not infer health from a missing
                    // bytes_on_wire field.
                    let degraded = if session.backend().is_cluster() {
                        format!(" degraded={}", run.outcome.metrics.degraded)
                    } else {
                        String::new()
                    };
                    let status = format!(
                        "OK {} rows strategy={} cache={}{wire}{degraded}\n",
                        run.outcome.output.len(),
                        run.plan.strategy.name(),
                        if run.cache_hit { "HIT" } else { "MISS" }
                    );
                    let rows = run.outcome.output.len() as u64;
                    replied = Some((began, bytes + status.len() as u64, rows));
                    let result = sent.and_then(|()| writer.write_all(status.as_bytes()));
                    if daemon.slow_query_ms > 0
                        && trace.total() >= Duration::from_millis(daemon.slow_query_ms)
                    {
                        daemon.slow_queries.inc();
                        daemon
                            .logger
                            .warn("slow query")
                            .kv("peer", &peer)
                            .kvs(trace.summary_fields())
                            .emit();
                    }
                    last_metrics = Some(run.outcome.metrics);
                    result
                }
                Err(e) => writeln!(writer, "ERR {}", fold(e.to_string())),
            },
            "EXPLAIN" => match session.explain(rest) {
                Ok(text) => {
                    let _ = write!(writer, "{text}");
                    writeln!(writer, "OK")
                }
                Err(e) => writeln!(writer, "ERR {}", fold(e.to_string())),
            },
            "INSERT" => match handle_insert(&session, &dictionary, rest) {
                Ok(message) => writeln!(writer, "OK {message}"),
                Err(e) => writeln!(writer, "ERR {}", fold(e)),
            },
            "SERVERS" => match rest.parse::<usize>() {
                Ok(p) if p >= 2 => {
                    session.set_servers(p);
                    writeln!(writer, "OK p={p}")
                }
                _ => writeln!(writer, "ERR SERVERS needs a number >= 2, got `{rest}`"),
            },
            "SEED" => match rest.parse::<u64>() {
                Ok(seed) => {
                    session.set_seed(seed);
                    writeln!(writer, "OK seed={seed}")
                }
                Err(_) => writeln!(writer, "ERR SEED needs a number, got `{rest}`"),
            },
            "STATS" => {
                let snapshot = session.engine().snapshot();
                let cache = session.engine().cache_stats();
                let _ = writeln!(
                    writer,
                    "{} relation(s) {} tuple(s) fingerprint {:#018x}",
                    snapshot.database().num_relations(),
                    snapshot.database().total_tuples(),
                    snapshot.fingerprint()
                );
                let _ = writeln!(
                    writer,
                    "plan cache {} cached {} hit(s) {} miss(es) {} invalidated",
                    cache.len, cache.hits, cache.misses, cache.invalidated
                );
                let _ = writeln!(writer, "backend {}", session.backend().describe());
                if let Some(metrics) = &last_metrics {
                    if metrics.is_measured() {
                        for round in &metrics.rounds {
                            let _ = writeln!(
                                writer,
                                "last run round {} bytes_on_wire={} wall_micros={}",
                                round.round,
                                round.total_wire_bytes(),
                                round.wall_micros
                            );
                        }
                        let _ = writeln!(
                            writer,
                            "last run total bytes_on_wire={} result_bytes={}",
                            metrics.bytes_on_wire(),
                            metrics.result_wire_bytes
                        );
                    }
                }
                // Cumulative server-wide totals from the metrics registry —
                // the last-run lines above cover only this connection's most
                // recent RUN; these cover every query since startup.
                let registry = session.engine().metrics();
                let ok_runs = registry.counter_value("pq_queries_total", &[("status", "ok")]);
                let err_runs = registry.counter_value("pq_queries_total", &[("status", "error")]);
                let _ = writeln!(
                    writer,
                    "totals {} queries ({} ok, {} err) {} rows bytes_on_wire={}",
                    ok_runs + err_runs,
                    ok_runs,
                    err_runs,
                    registry.counter_value("pq_query_rows_total", &[]),
                    registry.counter_value("pq_bytes_on_wire_total", &[]),
                );
                let _ = writeln!(
                    writer,
                    "totals connections active={} served={} slow_queries={}",
                    daemon.connections_active.get(),
                    daemon.connections_total.get(),
                    daemon.slow_queries.get(),
                );
                writeln!(writer, "OK")
            }
            "METRICS" => {
                let snapshot = session.engine().metrics().snapshot();
                if rest.eq_ignore_ascii_case("json") {
                    let _ = writeln!(writer, "{}", json_text(&snapshot));
                } else {
                    let _ = write!(writer, "{}", prometheus_text(&snapshot));
                }
                writeln!(writer, "OK")
            }
            "SHUTDOWN" => {
                // Durable daemons leave a clean directory behind: flush the
                // log and write a final checkpoint so the next startup
                // replays nothing.
                match session.engine().checkpoint() {
                    Ok(Some(lsn)) => {
                        daemon
                            .logger
                            .info("final checkpoint written")
                            .kv("covered_lsn", lsn)
                            .emit();
                        let _ = writeln!(writer, "OK shutting down (checkpoint at lsn {lsn})");
                    }
                    Ok(None) => {
                        let _ = writeln!(writer, "OK shutting down");
                    }
                    Err(e) => {
                        daemon.logger.error("final checkpoint failed").kv("error", &e).emit();
                        let _ = writeln!(writer, "OK shutting down (checkpoint failed: {e})");
                    }
                }
                let _ = writer.flush();
                if let Some(config) = session.backend().cluster_config() {
                    pq_mpc::net::shutdown_workers(config);
                }
                daemon
                    .logger
                    .info("shutdown requested")
                    .kv("peer", &peer)
                    .emit();
                std::process::exit(0);
            }
            "QUIT" | "EXIT" => {
                let _ = writeln!(writer, "OK bye");
                let _ = writer.flush();
                break;
            }
            other => writeln!(
                writer,
                "ERR unknown command `{other}`; try RUN, EXPLAIN, INSERT, SERVERS, SEED, STATS, METRICS, SHUTDOWN, QUIT"
            ),
        };
        if result.is_err() || writer.flush().is_err() {
            break;
        }
        if let Some((began, bytes, rows)) = replied {
            daemon.reply_micros.observe_micros(began.elapsed());
            daemon.reply_bytes.add(bytes);
            daemon.reply_rows.add(rows);
        }
    }
    daemon
        .logger
        .info("connection closed")
        .kv("peer", &peer)
        .emit();
}

/// Let the accept loop block in `accept(2)` — no polling, so `READY` is
/// sent the moment a client connects — and still notice a signal: this
/// thread watches [`SHUTDOWN_REQUESTED`] and, once it is set, connects to
/// the listener itself, which returns the blocked `accept`.
fn wake_listener_on_shutdown(listener: &TcpListener) -> std::thread::JoinHandle<()> {
    let address = listener.local_addr().map(|mut address| {
        // Bound to every interface: reach it over loopback.
        match address.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => address.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => address.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        address
    });
    std::thread::spawn(move || {
        while !SHUTDOWN_REQUESTED.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        if let Ok(address) = address {
            let _ = TcpStream::connect(address);
        }
    })
}

/// RAII share of the connection budget: incremented on accept, given back
/// when the serving thread (or the busy-rejection path) drops it. Mirrors
/// the count into the `pqd_connections_active` gauge.
struct ConnectionPermit(Arc<AtomicUsize>, Gauge);

impl Drop for ConnectionPermit {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
        self.1.sub(1);
    }
}

/// Worker mode: bind, announce, and speak the binary frame protocol until
/// a coordinator sends a `Shutdown` frame. The worker keeps its own
/// registry of frame/byte/round counters and logs their totals on exit.
fn run_worker(options: &Options) -> ! {
    let logger = Logger::new("pqd", options.log_level);
    let listener = match TcpListener::bind((options.host.as_str(), options.port)) {
        Ok(l) => l,
        Err(e) => {
            logger
                .error("worker cannot bind")
                .kv("addr", format_args!("{}:{}", options.host, options.port))
                .kv("error", e)
                .emit();
            std::process::exit(1);
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("pqd: worker listening on {addr}"),
        Err(_) => println!("pqd: worker listening"),
    }
    let registry = MetricsRegistry::new();
    let obs = pq_mpc::net::WorkerObs::new(&registry, logger.clone());
    let limits = pq_mpc::net::WorkerLimits {
        max_fragment_bytes: options.max_fragment_bytes,
    };
    // The worker's own executor pool: every Execute frame's fragment join
    // runs on it, so `--threads` is worker-side parallelism.
    let pool = pq_exec::TaskPool::new(options.common.threads);
    pool.attach_registry(&registry);
    if let Err(e) = pq_mpc::net::serve_worker(&listener, &obs, limits, &pool) {
        logger.error("worker failed").kv("error", e).emit();
        std::process::exit(1);
    }
    logger
        .info("worker totals")
        .kv("frames", registry.counter_value("pq_worker_frames_total", &[]))
        .kv(
            "wire_bytes",
            registry.counter_value("pq_worker_wire_bytes_total", &[]),
        )
        .kv("rounds", registry.counter_value("pq_worker_rounds_total", &[]))
        .emit();
    println!("pqd: worker shut down");
    std::process::exit(0);
}

fn main() {
    let options = match parse_args() {
        Ok(o) => o,
        Err(message) => {
            Logger::new("pqd", LogLevel::Info).error(message).emit();
            std::process::exit(2);
        }
    };
    if options.worker {
        run_worker(&options);
    }
    let logger = Logger::new("pqd", options.log_level);
    // The base state from --data, when given (required without --data-dir;
    // the initial content of a fresh --data-dir; ignored by an existing
    // --data-dir, which recovers its own durable state).
    let base = if options.common.data.is_empty() {
        None
    } else {
        match load_database_files(&options.common.data) {
            Ok(loaded) => Some(loaded),
            Err(e) => {
                logger.error(e.to_string()).emit();
                std::process::exit(1);
            }
        }
    };
    let (engine, dictionary): (Engine, SharedDictionary) = match &options.data_dir {
        Some(dir) => {
            let durability = DurabilityOptions {
                sync: options.wal_sync,
                checkpoint_every: options.checkpoint_every,
            };
            let opened = match open_durable(dir, durability, options.common.servers, base) {
                Ok(opened) => opened,
                Err(e) => {
                    logger
                        .error("cannot open data dir")
                        .kv("dir", dir.display())
                        .kv("error", e)
                        .emit();
                    std::process::exit(1);
                }
            };
            logger
                .info("durable state opened")
                .kv("dir", dir.display())
                .kv("sync", options.wal_sync.name())
                .kv(
                    "source",
                    if opened.from_checkpoint { "checkpoint" } else { "--data" },
                )
                .kv("replayed_records", opened.recovered_records)
                .kv("replayed_rows", opened.recovered_rows)
                .kv("torn_tail", opened.torn_tail)
                .kv("checkpoints_discarded", opened.checkpoints_discarded)
                .emit();
            let engine = opened
                .engine
                .with_seed(options.common.seed)
                .with_backend(options.common.backend())
                .with_threads(options.common.threads);
            (engine, opened.dictionary)
        }
        None => {
            let (database, dictionary) = base.expect("finish() required --data");
            let engine = Engine::new(database, options.common.servers)
                .with_seed(options.common.seed)
                .with_backend(options.common.backend())
                .with_threads(options.common.threads);
            (engine, Arc::new(RwLock::new(dictionary)))
        }
    };
    let daemon = Arc::new(Daemon::new(
        logger.clone(),
        options.slow_query_ms,
        &engine.metrics(),
    ));
    let listener = match TcpListener::bind((options.host.as_str(), options.port)) {
        Ok(l) => l,
        Err(e) => {
            logger
                .error("cannot bind")
                .kv("addr", format_args!("{}:{}", options.host, options.port))
                .kv("error", e)
                .emit();
            std::process::exit(1);
        }
    };
    match listener.local_addr() {
        Ok(addr) => println!("pqd: listening on {addr}"),
        Err(_) => println!("pqd: listening"),
    }
    let active = Arc::new(AtomicUsize::new(0));
    let read_timeout = (options.read_timeout > 0).then(|| Duration::from_secs(options.read_timeout));
    install_signal_handlers();
    let waker = wake_listener_on_shutdown(&listener);
    for stream in listener.incoming() {
        if SHUTDOWN_REQUESTED.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(e) => {
                logger.warn("accept failed").kv("error", e).emit();
                continue;
            }
        };
        // Responses are flushed once, whole: Nagle's algorithm would only
        // hold their last segment back for the client's delayed ACK.
        let _ = stream.set_nodelay(true);
        let permit = ConnectionPermit(Arc::clone(&active), daemon.connections_active.clone());
        permit.1.add(1);
        if permit.0.fetch_add(1, Ordering::SeqCst) >= options.max_connections {
            // Over the cap: one clean protocol line, then hang up
            // (dropping the permit releases the slot we took).
            let mut writer = BufWriter::new(stream);
            let _ = writeln!(writer, "ERR busy ({} connections)", options.max_connections);
            let _ = writer.flush();
            continue;
        }
        daemon.connections_total.inc();
        if let Some(timeout) = read_timeout {
            // A connection that stays silent past the timeout gets
            // its blocking read cancelled and is closed.
            let _ = stream.set_read_timeout(Some(timeout));
        }
        // One thread + one session per connection; the engine handle
        // (snapshot + plan cache) is shared by all of them.
        let session = engine.session();
        let dictionary = Arc::clone(&dictionary);
        let daemon = Arc::clone(&daemon);
        std::thread::spawn(move || {
            let _permit = permit;
            serve(stream, session, dictionary, daemon);
        });
    }
    // The waker only returns once the flag is set, which is also the only
    // way out of the loop above.
    let _ = waker.join();
    // The graceful signal path: same teardown as the SHUTDOWN command.
    // In-flight connection threads keep their engine clones and finish
    // their current request; new connections are no longer accepted.
    logger
        .info("signal received, shutting down")
        .kv("connections_active", active.load(Ordering::SeqCst))
        .emit();
    match engine.checkpoint() {
        Ok(Some(lsn)) => logger
            .info("final checkpoint written")
            .kv("covered_lsn", lsn)
            .emit(),
        Ok(None) => {}
        Err(e) => logger.error("final checkpoint failed").kv("error", &e).emit(),
    }
    if !options.common.cluster.is_empty() {
        pq_mpc::net::shutdown_workers(&options.common.cluster_config());
    }
    std::process::exit(0);
}
