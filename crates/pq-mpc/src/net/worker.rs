//! The worker side of the cluster protocol.
//!
//! A worker is a passive party: it serves each coordinator connection on
//! its own thread (so a connection pool holding a socket open between runs
//! never blocks a second coordinator, a liveness probe, or the shutdown
//! path), accumulates relation fragments exactly like the simulator's
//! [`crate::Server`] (merged by relation name — one flat-buffer append per
//! fragment, state strictly per connection), and on every `Execute` frame
//! joins the fragments of the listed atoms, projects to the output
//! variables and replies with an `Answer` frame carrying its head fragment
//! and the bytes it measured on the wire for the round. Local computation
//! is free in the MPC model, but the wall clock still pays for it: many
//! logical servers fold onto each worker (`server % workers`) and all
//! their rows end up in one stored fragment per relation, so the one join
//! a worker runs per round is large — it reads the stored fragments in
//! place, and each connection runs its local join under the worker's
//! persistent [`pq_exec::TaskPool`], which lets the morsel-parallel
//! kernels in [`pq_relation`] spread that single join across cores without
//! spawning a thread per round. A
//! `Ping` frame is answered with an immediate `Pong` without touching
//! fragment state — the cheap liveness check of the coordinator-side
//! [`crate::net::WorkerPool`].
//!
//! A pooled connection serves run after run, and its rounds run at
//! steady-state memory. Every frame is read into the connection's one
//! payload buffer. The fragment store recycles row storage: a `Hello`
//! turns each stored fragment into a spare row buffer under its relation
//! name, the run's fragment of that name decodes into it, and the spares
//! still unclaimed at the run's first `Execute` are freed before the join.
//! What a connection holds is therefore this run's fragments plus one
//! frame buffer, and a repeated round allocates — and page-faults — no
//! fresh fragment memory. A relation the run does not ship stays absent,
//! so its atom still joins as the empty relation.
//!
//! A `Shutdown` frame ends the whole serve loop (not just the current
//! connection) — the fix for the daemon's listener otherwise looping
//! forever with no teardown path. Connections are bounded by
//! [`WorkerLimits`]: a peer that ships more accumulated fragment bytes
//! than the cap gets a typed `Error` frame and a structured log line
//! instead of unbounded merge growth. [`LocalWorkers`] runs the same loop
//! on in-process threads bound to ephemeral localhost ports, which is how
//! the test suites and benchmarks stand up a real-socket cluster without
//! managing child processes.

use crate::net::codec::{read_frame_into, write_frame, Frame};
use pq_obs::{Counter, LogLevel, Logger, MetricsRegistry};
use pq_relation::{natural_join_all, project, Relation, Schema, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A worker loop's observability bundle: frame/byte/round counters
/// resolved once from a [`MetricsRegistry`], plus the structured logger
/// that replaces the loop's ad-hoc stderr prints. Build one per worker
/// process with [`WorkerObs::new`] and serve through [`serve_worker`].
#[derive(Debug, Clone)]
pub struct WorkerObs {
    frames: Counter,
    wire_bytes: Counter,
    rounds: Counter,
    logger: Logger,
}

impl WorkerObs {
    /// Resolve the worker-side counters in `registry` and log through
    /// `logger`. Counter names: `pq_worker_frames_total`,
    /// `pq_worker_wire_bytes_total`, `pq_worker_rounds_total` — distinct
    /// from the coordinator's `pq_cluster_*` names, so a process hosting
    /// both sides never double-counts a byte.
    pub fn new(registry: &MetricsRegistry, logger: Logger) -> Self {
        WorkerObs {
            frames: registry.counter(
                "pq_worker_frames_total",
                &[],
                "Protocol frames this worker received",
            ),
            wire_bytes: registry.counter(
                "pq_worker_wire_bytes_total",
                &[],
                "Bytes this worker read off its socket, frame headers included",
            ),
            rounds: registry.counter(
                "pq_worker_rounds_total",
                &[],
                "Execute frames (communication rounds) this worker answered",
            ),
            logger,
        }
    }

    /// The bundle [`LocalWorkers`] serve with: counters into a throwaway
    /// registry, warnings and errors to stderr.
    fn fallback() -> Self {
        WorkerObs::new(
            &MetricsRegistry::new(),
            Logger::new("pq-mpc-worker", LogLevel::Warn),
        )
    }
}

/// Per-connection resource bounds for the worker loop.
///
/// A coordinator that keeps shipping fragments without ever executing a
/// round would otherwise grow the worker's merge store without limit; the
/// cap turns that into a typed `Error` frame and a dropped connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerLimits {
    /// Maximum accumulated fragment bytes (stored row-buffer bytes, summed
    /// across all relations) one connection may hold. Exceeding it rejects
    /// the offending fragment with an `Error` frame and closes the
    /// connection. The default matches the 1 GiB frame cap
    /// [`crate::net::MAX_FRAME_LEN`].
    pub max_fragment_bytes: u64,
}

impl Default for WorkerLimits {
    fn default() -> Self {
        WorkerLimits {
            max_fragment_bytes: crate::net::codec::MAX_FRAME_LEN as u64,
        }
    }
}

/// Serve one coordinator connection. Returns `true` when a `Shutdown`
/// frame asked the whole worker to exit (vs. the peer merely hanging up).
fn serve_connection(
    stream: TcpStream,
    obs: &WorkerObs,
    limits: WorkerLimits,
    pool: &Arc<pq_exec::TaskPool>,
) -> bool {
    // `peer` is the coordinator's end of the socket, `worker` ours: log
    // lines carry both, error frames sent to the peer name the worker.
    let peer = stream.peer_addr().map(|a| a.to_string()).unwrap_or_default();
    let worker = stream.local_addr().map(|a| a.to_string()).unwrap_or_default();
    let reader_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return false,
    };
    let mut reader = BufReader::new(reader_stream);
    let mut writer = BufWriter::new(stream);
    // Fragments merged by relation name, like the simulator's Server; the
    // MPC model lets knowledge accumulate across rounds.
    let mut fragments: BTreeMap<String, Relation> = BTreeMap::new();
    // The previous run's row buffers by relation name, until this run's
    // fragment of that name decodes into one or its first Execute frees
    // the rest; and the buffer every frame's payload is read into.
    let mut spares: BTreeMap<String, Vec<Value>> = BTreeMap::new();
    let mut payload = Vec::new();
    // Measured bytes read since the last Answer (frame headers included).
    let mut wire_bytes = 0u64;
    // Stored fragment bytes accumulated on this connection, checked
    // against `limits.max_fragment_bytes`.
    let mut fragment_bytes = 0u64;
    loop {
        let (frame, frame_bytes) = match read_frame_into(&mut reader, &mut payload, &mut spares) {
            Ok(Some(read)) => read,
            // Orderly close between frames: this coordinator is done.
            Ok(None) => return false,
            Err(e) => {
                obs.logger
                    .warn("dropping connection after framing error")
                    .kv("peer", &peer)
                    .kv("worker", &worker)
                    .kv("error", &e)
                    .emit();
                // Best-effort located error back to the peer, then drop the
                // connection — after a framing error the stream cannot be
                // resynchronised.
                let _ = write_frame(
                    &mut writer,
                    &Frame::Error {
                        message: format!("worker {worker}: {e}"),
                    },
                );
                let _ = writer.flush();
                return false;
            }
        };
        obs.frames.inc();
        obs.wire_bytes.add(frame_bytes);
        match frame {
            Frame::Hello { .. } => {
                // A new run on a reused connection: forget previous state,
                // keeping its row storage for this run's fragments.
                spares = std::mem::take(&mut fragments)
                    .into_iter()
                    .map(|(name, relation)| (name, relation.into_values()))
                    .collect();
                wire_bytes = 0;
                fragment_bytes = 0;
            }
            Frame::Fragment { relation, .. } => {
                wire_bytes += frame_bytes;
                let incoming = (relation.len() * relation.arity()) as u64 * 8;
                if fragment_bytes.saturating_add(incoming) > limits.max_fragment_bytes {
                    obs.logger
                        .warn("rejecting fragment over the per-connection byte cap")
                        .kv("peer", &peer)
                        .kv("worker", &worker)
                        .kv("relation", relation.name())
                        .kv("held_bytes", fragment_bytes)
                        .kv("incoming_bytes", incoming)
                        .kv("max_fragment_bytes", limits.max_fragment_bytes)
                        .emit();
                    let _ = write_frame(
                        &mut writer,
                        &Frame::Error {
                            message: format!(
                                "worker {worker}: fragment store over the {}-byte cap \
                                 ({fragment_bytes} held + {incoming} incoming)",
                                limits.max_fragment_bytes
                            ),
                        },
                    );
                    let _ = writer.flush();
                    return false;
                }
                fragment_bytes += incoming;
                match fragments.get_mut(relation.name()) {
                    Some(existing) => existing.append(&relation),
                    None => {
                        fragments.insert(relation.name().to_string(), relation);
                    }
                }
            }
            Frame::Ping { nonce } => {
                // Liveness probe: answer immediately, touch nothing else —
                // pings are pool traffic, not round traffic, so they stay
                // out of the round's `wire_bytes` account.
                let ok = write_frame(&mut writer, &Frame::Pong { nonce }).is_ok()
                    && writer.flush().is_ok();
                if !ok {
                    return false;
                }
            }
            Frame::Execute {
                round,
                name,
                output_vars,
                atoms,
            } => {
                wire_bytes += frame_bytes;
                obs.rounds.inc();
                spares.clear();
                // The folded logical servers were merged into these
                // fragments by the coordinator, so this one join carries
                // the whole round's local work — run it on the pool so the
                // morsel kernels parallelise it.
                let answer =
                    pool.install(|| local_answer(&fragments, &name, &output_vars, &atoms));
                let ok = write_frame(
                    &mut writer,
                    &Frame::Answer {
                        round,
                        bytes_received: wire_bytes,
                        relation: answer,
                    },
                )
                .is_ok()
                    && writer.flush().is_ok();
                wire_bytes = 0;
                if !ok {
                    return false;
                }
            }
            Frame::Shutdown => return true,
            Frame::Error { message } => {
                obs.logger
                    .warn("coordinator reported an error")
                    .kv("peer", &peer)
                    .kv("worker", &worker)
                    .kv("error", &message)
                    .emit();
                return false;
            }
            Frame::Answer { .. } | Frame::Pong { .. } => {
                let _ = write_frame(
                    &mut writer,
                    &Frame::Error {
                        message: "protocol violation: workers receive no Answer or Pong frames"
                            .into(),
                    },
                );
                let _ = writer.flush();
                return false;
            }
        }
    }
}

/// The worker's local computation: join the fragments of the listed atoms
/// (a missing fragment is the correctly-shaped empty relation — no rows
/// were routed here, so this grid point contributes no answers) and
/// project to the output variables with set semantics.
fn local_answer(
    fragments: &BTreeMap<String, Relation>,
    name: &str,
    output_vars: &[String],
    atoms: &[(String, Vec<String>)],
) -> Relation {
    let bound: Vec<Cow<'_, Relation>> = atoms
        .iter()
        .map(|(relation, variables)| match fragments.get(relation) {
            Some(fragment) => Cow::Borrowed(fragment),
            None => Cow::Owned(Relation::empty(Schema::new(
                relation.clone(),
                variables.clone(),
            ))),
        })
        .collect();
    let joined = natural_join_all(&bound);
    project(&joined, output_vars, name)
}

/// Run the worker loop on `listener`: accept coordinator connections and
/// serve each on its own thread until a `Shutdown` frame arrives on any of
/// them, then return. Concurrent service is what lets a coordinator-side
/// [`crate::net::WorkerPool`] keep an idle Hello'd connection open between
/// runs without starving other coordinators (or the shutdown path) of the
/// accept loop. I/O errors on a single connection never kill the loop;
/// accept errors do (the listener itself is broken).
///
/// Frames, bytes and rounds are counted and connection events logged
/// through `obs`, every connection is bounded by `limits`, and every
/// round's local join runs on `pool` (a daemon sizes and meters its own;
/// [`pq_exec::global`] is the process-wide one). Each connection still
/// gets its own service thread — that thread parks on socket reads; the
/// pool parallelises the join *inside* a round.
pub fn serve_worker(
    listener: &TcpListener,
    obs: &WorkerObs,
    limits: WorkerLimits,
    pool: &Arc<pq_exec::TaskPool>,
) -> std::io::Result<()> {
    // Set by the connection thread that receives a Shutdown frame; the
    // accept loop checks it after every accept. The shutting-down thread
    // also dials the listener itself so a blocked accept wakes up.
    let stop = Arc::new(AtomicBool::new(false));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        let stream = stream?;
        // A round of several blocks is answered with frames back to back;
        // with Nagle on, each one after the first would wait for the
        // coordinator's delayed ACK.
        let _ = stream.set_nodelay(true);
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_default();
        obs.logger
            .debug("coordinator connected")
            .kv("peer", &peer)
            .emit();
        let obs = obs.clone();
        let stop = Arc::clone(&stop);
        let wake = listener.local_addr();
        let pool = Arc::clone(pool);
        std::thread::spawn(move || {
            let shutdown = serve_connection(stream, &obs, limits, &pool);
            obs.logger
                .debug("coordinator connection closed")
                .kv("peer", &peer)
                .kv("shutdown", shutdown)
                .emit();
            if shutdown {
                stop.store(true, Ordering::SeqCst);
                // Wake the accept loop so it notices the flag; the dialled
                // connection is dropped immediately and serves no frames.
                if let Ok(addr) = wake {
                    let _ = TcpStream::connect(addr);
                }
            }
        });
    }
    Ok(())
}

/// A cluster of worker loops on in-process threads, each listening on an
/// ephemeral localhost port — real sockets, real frames, no child-process
/// management. Dropping the handle shuts the workers down (each is sent a
/// `Shutdown` frame and joined), so tests cannot leak threads; call
/// [`LocalWorkers::shutdown`] to do it explicitly.
#[derive(Debug)]
pub struct LocalWorkers {
    addresses: Vec<String>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl LocalWorkers {
    /// Spawn `n` workers. Their addresses are in slot order, ready to be
    /// handed to a [`crate::net::ClusterConfig`].
    ///
    /// # Errors
    /// Fails when an ephemeral localhost port cannot be bound.
    pub fn spawn(n: usize) -> std::io::Result<LocalWorkers> {
        LocalWorkers::spawn_with(n, WorkerLimits::default())
    }

    /// [`LocalWorkers::spawn`] with explicit per-connection resource
    /// bounds applied to every worker.
    ///
    /// # Errors
    /// Fails when an ephemeral localhost port cannot be bound.
    pub fn spawn_with(n: usize, limits: WorkerLimits) -> std::io::Result<LocalWorkers> {
        let mut addresses = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addresses.push(listener.local_addr()?.to_string());
            handles.push(std::thread::spawn(move || {
                let _ = serve_worker(&listener, &WorkerObs::fallback(), limits, &pq_exec::global());
            }));
        }
        Ok(LocalWorkers { addresses, handles })
    }

    /// The workers' `host:port` addresses, in slot order.
    pub fn addresses(&self) -> &[String] {
        &self.addresses
    }

    /// Shut every worker down (a `Shutdown` frame each) and join the
    /// threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        for address in &self.addresses {
            if let Ok(stream) = TcpStream::connect(address) {
                let mut writer = BufWriter::new(stream);
                let _ = write_frame(&mut writer, &Frame::Shutdown);
                let _ = writer.flush();
            }
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for LocalWorkers {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::codec::read_frame;
    use pq_relation::Schema;
    use std::io::BufReader;

    fn frag(name: &str, attrs: &[&str], rows: Vec<Vec<u64>>) -> Relation {
        Relation::from_rows(Schema::from_strs(name, attrs), rows)
    }

    /// Drive one worker over a real socket by hand: shuffle two fragments,
    /// execute, check the answer, and shut down.
    #[test]
    fn worker_joins_its_fragments_and_shuts_down() {
        let workers = LocalWorkers::spawn(1).unwrap();
        let stream = TcpStream::connect(&workers.addresses()[0]).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_frame(
            &mut writer,
            &Frame::Hello {
                worker: 0,
                workers: 1,
                bits_per_value: 8,
            },
        )
        .unwrap();
        let mut sent = 0u64;
        sent += write_frame(
            &mut writer,
            &Frame::Fragment {
                round: 1,
                relation: frag("R", &["x", "y"], vec![vec![1, 2], vec![3, 4]]),
            },
        )
        .unwrap();
        // A second fragment of the same relation must merge, not replace.
        sent += write_frame(
            &mut writer,
            &Frame::Fragment {
                round: 1,
                relation: frag("R", &["x", "y"], vec![vec![5, 6]]),
            },
        )
        .unwrap();
        sent += write_frame(
            &mut writer,
            &Frame::Fragment {
                round: 1,
                relation: frag("S", &["y", "z"], vec![vec![2, 20], vec![6, 60]]),
            },
        )
        .unwrap();
        sent += write_frame(
            &mut writer,
            &Frame::Execute {
                round: 1,
                name: "Q".into(),
                output_vars: vec!["x".into(), "y".into(), "z".into()],
                atoms: vec![
                    ("R".into(), vec!["x".into(), "y".into()]),
                    ("S".into(), vec!["y".into(), "z".into()]),
                ],
            },
        )
        .unwrap();
        writer.flush().unwrap();
        let (frame, _) = read_frame(&mut reader).unwrap().expect("an answer");
        let Frame::Answer {
            round,
            bytes_received,
            relation,
        } = frame
        else {
            panic!("expected an Answer, got {frame:?}");
        };
        assert_eq!(round, 1);
        assert_eq!(
            bytes_received, sent,
            "the worker measures exactly the fragment + execute bytes (Hello excluded)"
        );
        assert_eq!(relation.schema().attributes(), &["x", "y", "z"]);
        let mut rows: Vec<Vec<u64>> = relation.iter().map(|r| r.to_vec()).collect();
        rows.sort();
        assert_eq!(rows, vec![vec![1, 2, 20], vec![5, 6, 60]]);
        drop(writer);
        drop(reader);
        workers.shutdown(); // must not hang: Shutdown ends the serve loop
    }

    #[test]
    fn missing_fragments_yield_an_empty_correctly_shaped_answer() {
        let workers = LocalWorkers::spawn(1).unwrap();
        let stream = TcpStream::connect(&workers.addresses()[0]).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        // R arrives, S never does: this grid point must answer empty.
        write_frame(
            &mut writer,
            &Frame::Fragment {
                round: 1,
                relation: frag("R", &["x", "y"], vec![vec![1, 2]]),
            },
        )
        .unwrap();
        write_frame(
            &mut writer,
            &Frame::Execute {
                round: 1,
                name: "Q".into(),
                output_vars: vec!["x".into(), "y".into(), "z".into()],
                atoms: vec![
                    ("R".into(), vec!["x".into(), "y".into()]),
                    ("S".into(), vec!["y".into(), "z".into()]),
                ],
            },
        )
        .unwrap();
        writer.flush().unwrap();
        let (frame, _) = read_frame(&mut reader).unwrap().expect("an answer");
        let Frame::Answer { relation, .. } = frame else {
            panic!("expected an Answer");
        };
        assert!(relation.is_empty());
        assert_eq!(relation.arity(), 3);
    }

    #[test]
    fn a_framing_error_gets_a_located_error_frame_back() {
        let workers = LocalWorkers::spawn(1).unwrap();
        let stream = TcpStream::connect(&workers.addresses()[0]).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writer.write_all(b"GARBAGE!").unwrap();
        writer.flush().unwrap();
        let (frame, _) = read_frame(&mut reader).unwrap().expect("an error frame");
        let Frame::Error { message } = frame else {
            panic!("expected an Error frame, got {frame:?}");
        };
        assert!(message.contains("magic"), "{message}");
        // The worker dropped that connection but still serves new ones.
        let probe = TcpStream::connect(&workers.addresses()[0]).unwrap();
        let mut probe_writer = BufWriter::new(probe.try_clone().unwrap());
        write_frame(
            &mut probe_writer,
            &Frame::Execute {
                round: 1,
                name: "Q".into(),
                output_vars: vec![],
                atoms: vec![],
            },
        )
        .unwrap();
        probe_writer.flush().unwrap();
        let mut probe_reader = BufReader::new(probe);
        assert!(matches!(
            read_frame(&mut probe_reader).unwrap(),
            Some((Frame::Answer { .. }, _))
        ));
    }

    /// A Ping is answered with a matching Pong and leaves the connection's
    /// fragment state and round byte account untouched.
    #[test]
    fn ping_is_answered_without_disturbing_round_state() {
        let workers = LocalWorkers::spawn(1).unwrap();
        let stream = TcpStream::connect(&workers.addresses()[0]).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut sent = 0u64;
        sent += write_frame(
            &mut writer,
            &Frame::Fragment {
                round: 1,
                relation: frag("R", &["x"], vec![vec![7]]),
            },
        )
        .unwrap();
        write_frame(&mut writer, &Frame::Ping { nonce: 0xFEED }).unwrap();
        writer.flush().unwrap();
        let (frame, _) = read_frame(&mut reader).unwrap().expect("a pong");
        assert!(matches!(frame, Frame::Pong { nonce: 0xFEED }), "{frame:?}");
        // The round's byte account excludes the ping: the Answer reports
        // exactly fragment + execute bytes.
        sent += write_frame(
            &mut writer,
            &Frame::Execute {
                round: 1,
                name: "Q".into(),
                output_vars: vec!["x".into()],
                atoms: vec![("R".into(), vec!["x".into()])],
            },
        )
        .unwrap();
        writer.flush().unwrap();
        let (frame, _) = read_frame(&mut reader).unwrap().expect("an answer");
        let Frame::Answer {
            bytes_received,
            relation,
            ..
        } = frame
        else {
            panic!("expected an Answer, got {frame:?}");
        };
        assert_eq!(bytes_received, sent, "pings stay out of round accounting");
        assert_eq!(relation.len(), 1, "the pre-ping fragment survived");
    }

    /// Fragments past the per-connection byte cap get a typed Error frame
    /// and a dropped connection, while the worker keeps serving new ones;
    /// a fresh Hello resets the budget.
    #[test]
    fn over_budget_fragments_are_rejected_with_a_typed_error() {
        // Budget of exactly two 2-column rows (2 rows × 2 cols × 8 bytes).
        let limits = WorkerLimits {
            max_fragment_bytes: 32,
        };
        let workers = LocalWorkers::spawn_with(1, limits).unwrap();
        let stream = TcpStream::connect(&workers.addresses()[0]).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_frame(
            &mut writer,
            &Frame::Fragment {
                round: 1,
                relation: frag("R", &["x", "y"], vec![vec![1, 2], vec![3, 4]]),
            },
        )
        .unwrap();
        // One more row blows the 32-byte budget.
        write_frame(
            &mut writer,
            &Frame::Fragment {
                round: 1,
                relation: frag("R", &["x", "y"], vec![vec![5, 6]]),
            },
        )
        .unwrap();
        writer.flush().unwrap();
        let (frame, _) = read_frame(&mut reader).unwrap().expect("an error frame");
        let Frame::Error { message } = frame else {
            panic!("expected an Error frame, got {frame:?}");
        };
        assert!(message.contains("byte cap"), "{message}");
        // The worker survives: a new connection starts with a fresh budget.
        let stream = TcpStream::connect(&workers.addresses()[0]).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_frame(
            &mut writer,
            &Frame::Fragment {
                round: 1,
                relation: frag("R", &["x", "y"], vec![vec![1, 2], vec![3, 4]]),
            },
        )
        .unwrap();
        write_frame(
            &mut writer,
            &Frame::Execute {
                round: 1,
                name: "Q".into(),
                output_vars: vec!["x".into(), "y".into()],
                atoms: vec![("R".into(), vec!["x".into(), "y".into()])],
            },
        )
        .unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Some((Frame::Answer { .. }, _))
        ));
    }

    /// A run on a pooled connection decodes its fragments into the previous
    /// run's row storage: no row of run 1 may survive into run 2, a
    /// relation run 2 does not ship stays absent, and a relation shipped
    /// with other attributes decodes to its new shape.
    #[test]
    fn recycled_row_storage_never_leaks_rows_into_the_next_run() {
        let workers = LocalWorkers::spawn(1).unwrap();
        let stream = TcpStream::connect(&workers.addresses()[0]).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let strings = |names: &[&str]| names.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let execute = |output: &[&str], atoms: &[(&str, &[&str])]| Frame::Execute {
            round: 1,
            name: "Q".into(),
            output_vars: strings(output),
            atoms: atoms.iter().map(|(r, vars)| (r.to_string(), strings(vars))).collect(),
        };
        let fragment = |relation| Frame::Fragment { round: 1, relation };
        let hello = Frame::Hello { worker: 0, workers: 1, bits_per_value: 8 };
        let r_join_s = execute(&["x", "y", "z"], &[("R", &["x", "y"]), ("S", &["y", "z"])]);
        let mut run = |frames: Vec<Frame>| -> Vec<Relation> {
            for frame in &frames {
                write_frame(&mut writer, frame).unwrap();
            }
            writer.flush().unwrap();
            let executes = frames.iter().filter(|f| matches!(f, Frame::Execute { .. })).count();
            (0..executes)
                .map(|_| match read_frame(&mut reader).unwrap() {
                    Some((Frame::Answer { relation, .. }, _)) => relation,
                    other => panic!("expected an Answer, got {other:?}"),
                })
                .collect()
        };
        let rows = |relation: &Relation| {
            let mut rows: Vec<Vec<u64>> = relation.iter().map(|r| r.to_vec()).collect();
            rows.sort();
            rows
        };

        let answers = run(vec![
            hello.clone(),
            fragment(frag("R", &["x", "y"], vec![vec![1, 2], vec![3, 4], vec![5, 6]])),
            fragment(frag("S", &["y", "z"], vec![vec![2, 20], vec![4, 40], vec![6, 60]])),
            r_join_s.clone(),
        ]);
        assert_eq!(answers[0].len(), 3);

        // Run 2 ships one row of R and no S: R ⋈ S is empty, R is one row.
        let answers = run(vec![
            hello.clone(),
            fragment(frag("R", &["x", "y"], vec![vec![3, 4]])),
            r_join_s,
            execute(&["x", "y"], &[("R", &["x", "y"])]),
        ]);
        assert!(answers[0].is_empty());
        assert_eq!(answers[0].schema().attributes(), &["x", "y", "z"]);
        assert_eq!(rows(&answers[1]), vec![vec![3, 4]]);

        // Run 3 ships R three columns wide, into the storage of R's one row.
        let answers = run(vec![
            hello,
            fragment(frag("R", &["a", "b", "c"], vec![vec![7, 8, 9], vec![1, 1, 1]])),
            execute(&["a", "b", "c"], &[("R", &["a", "b", "c"])]),
        ]);
        assert_eq!(answers[0].schema().attributes(), &["a", "b", "c"]);
        assert_eq!(rows(&answers[0]), vec![vec![1, 1, 1], vec![7, 8, 9]]);
        workers.shutdown();
    }

    /// Two coordinators are served concurrently: one holds its connection
    /// open (as a pool does between runs) while the other completes a full
    /// round — impossible under one-connection-at-a-time service.
    #[test]
    fn an_idle_held_connection_does_not_block_other_coordinators() {
        let workers = LocalWorkers::spawn(1).unwrap();
        // Coordinator A connects and goes idle, holding the socket open.
        let idle = TcpStream::connect(&workers.addresses()[0]).unwrap();
        // Coordinator B runs a complete round meanwhile.
        let stream = TcpStream::connect(&workers.addresses()[0]).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_frame(
            &mut writer,
            &Frame::Execute {
                round: 1,
                name: "Q".into(),
                output_vars: vec![],
                atoms: vec![],
            },
        )
        .unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Some((Frame::Answer { .. }, _))
        ));
        // A's connection still works after B's round.
        let mut idle_reader = BufReader::new(idle.try_clone().unwrap());
        let mut idle_writer = BufWriter::new(idle);
        write_frame(&mut idle_writer, &Frame::Ping { nonce: 1 }).unwrap();
        idle_writer.flush().unwrap();
        assert!(matches!(
            read_frame(&mut idle_reader).unwrap(),
            Some((Frame::Pong { nonce: 1 }, _))
        ));
        drop(idle_writer);
        drop(idle_reader);
        workers.shutdown();
    }
}
