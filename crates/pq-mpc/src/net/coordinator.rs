//! The coordinator side of the cluster protocol.
//!
//! One communication round over the worker connections mirrors the
//! in-process [`crate::Cluster`]: ship the round's [`Shipment`], barrier,
//! collect the answers. The algorithm above it still thinks in `p`
//! *logical* servers, while the unit of shipping is the *worker*: logical
//! server `s` lives on worker `s % workers` (see the module docs of
//! [`crate::net`] for why that folding is sound and complete), and the
//! round records two parallel cost accounts:
//!
//! * the model's [`crate::RoundStats::received_bits`] (length `p`,
//!   idealised `bits_per_value` accounting, bit-identical to what the
//!   simulator would report for the same routing — it comes with the
//!   shipment, counted per logical server whatever was folded), and
//! * the measured [`crate::RoundStats::wire_bytes`] (length `workers`,
//!   what each worker actually read off its socket, frame headers
//!   included).
//!
//! [`crate::net::WorkerPool`] drives every round — one pool run each, over
//! the connections it keeps — and this module holds the configuration, the
//! errors and the round's wire protocol. The write phase is deadlock-free
//! by construction: the coordinator feeds the workers one after the other
//! (fragments, one `Execute` per block of logical servers, flush) and
//! reads nothing before every worker has its `Execute`s, while workers
//! write only after receiving one — so an early worker computes, and at
//! worst blocks on an answer, while the later ones are still being fed.

use crate::metrics::{RoundStats, RunMetrics};
use crate::net::codec::{read_frame_into, write_frame, Frame, FrameError};
use crate::net::retry::RetryPolicy;
use crate::net::shipment::Shipment;
use pq_obs::MetricsRegistry;
use pq_relation::Relation;
use std::collections::BTreeMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Where the workers live, how long to wait for them, and how hard the
/// resilience layer ([`crate::net::WorkerPool`]) tries before giving up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Worker addresses (`host:port`), one per worker slot.
    pub workers: Vec<String>,
    /// Read timeout applied to every worker socket; a worker that stays
    /// silent longer than this during the barrier yields
    /// [`ClusterError::Timeout`] instead of a hang. The per-query
    /// [`ClusterConfig::deadline`] caps it further as the budget drains.
    pub read_timeout: Duration,
    /// Wall-clock budget covering *all* attempts of a run — dials,
    /// Hellos, the round and backoff pauses included; a multi-round plan
    /// is one run per round. When it runs out mid-run the result is
    /// [`ClusterError::DeadlineExceeded`], never a hang.
    pub deadline: Duration,
    /// How failed runs are retried on a freshly rebuilt topology.
    pub retry: RetryPolicy,
    /// Consecutive failed runs before the circuit breaker opens.
    pub breaker_threshold: u32,
    /// How long an open breaker fails fast before admitting a half-open
    /// probe run.
    pub breaker_cooldown: Duration,
}

impl ClusterConfig {
    /// A config for the given worker addresses with the default 10 s read
    /// timeout, a 30 s per-query deadline, 2 retries (50 ms base backoff,
    /// 2 s cap), and a breaker that opens after 3 consecutive failed runs
    /// for a 5 s cooldown.
    pub fn new(workers: Vec<String>) -> Self {
        ClusterConfig {
            workers,
            read_timeout: Duration::from_secs(10),
            deadline: Duration::from_secs(30),
            retry: RetryPolicy::default(),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(5),
        }
    }

    /// Replace the read timeout.
    #[must_use]
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Replace the per-query deadline budget.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Replace the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replace the circuit-breaker tuning.
    #[must_use]
    pub fn with_breaker(mut self, threshold: u32, cooldown: Duration) -> Self {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// The live-worker floor a *retry* attempt may route around dead
    /// peers down to: a majority of the configured workers (at least
    /// one). The first attempt of every run always requires the full
    /// topology.
    pub fn min_workers(&self) -> usize {
        self.workers.len() / 2 + 1
    }
}

/// One atom of the query a worker must join locally: the relation name to
/// look up in its fragment store and the variables naming its columns (so
/// a worker that received no fragment can still build the correctly
/// shaped empty relation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomSpec {
    /// Relation name, the key into the worker's fragment store.
    pub relation: String,
    /// Variable names of the atom's columns, in order.
    pub variables: Vec<String>,
}

/// What every worker computes after the shuffle of a round: join the
/// listed atoms, project to the output variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundProgram {
    /// Name given to the result relation.
    pub name: String,
    /// Head variables to project the local join onto.
    pub output_vars: Vec<String>,
    /// The atoms to join, in instantiation order.
    pub atoms: Vec<AtomSpec>,
}

/// Everything that can go wrong talking to the cluster. Per-connection
/// variants name the worker slot so a failing test or operator log points
/// at a concrete process; the run-level variants describe the resilience
/// layer giving up as a whole.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The per-query deadline budget ran out (across all attempts,
    /// backoff pauses included).
    DeadlineExceeded {
        /// The budget that was exhausted.
        budget: Duration,
    },
    /// The circuit breaker is open: the cluster failed too many
    /// consecutive runs and is cooling down, so the run failed fast
    /// without touching a socket.
    BreakerOpen {
        /// Time left on the cooldown before a probe run is admitted.
        retry_in: Duration,
    },
    /// Too few workers are reachable to satisfy the majority floor
    /// ([`ClusterConfig::min_workers`]), even routing around the dead ones.
    Unavailable {
        /// Workers that answered.
        live: usize,
        /// The floor the attempt had to meet.
        needed: usize,
    },
    /// An I/O error on a worker connection (connect, write or read).
    Io {
        /// Worker slot.
        worker: usize,
        /// The underlying I/O error, rendered.
        message: String,
    },
    /// A worker closed its connection when an answer was still owed.
    Died {
        /// Worker slot.
        worker: usize,
    },
    /// A worker stayed silent past the configured read timeout.
    Timeout {
        /// Worker slot.
        worker: usize,
        /// The timeout that elapsed.
        timeout: Duration,
    },
    /// A worker sent bytes that do not decode as a valid frame.
    Frame {
        /// Worker slot.
        worker: usize,
        /// The located decode failure.
        error: FrameError,
    },
    /// A well-formed frame that violates the protocol (wrong frame type,
    /// mismatched round id).
    Protocol {
        /// Worker slot.
        worker: usize,
        /// What was violated.
        message: String,
    },
    /// The worker itself reported an error frame.
    Worker {
        /// Worker slot.
        worker: usize,
        /// The worker's message.
        message: String,
    },
    /// The run's frames cannot be encoded: a name is too long for the
    /// protocol's `u16` string prefix, or a payload exceeds
    /// [`crate::net::MAX_FRAME_LEN`]. The query, not the cluster, is at
    /// fault, so the pool neither retries the run nor counts it against
    /// the circuit breaker.
    Unencodable {
        /// Why encoding failed.
        message: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::DeadlineExceeded { budget } => {
                write!(f, "query deadline of {budget:?} exceeded")
            }
            ClusterError::BreakerOpen { retry_in } => {
                write!(
                    f,
                    "circuit breaker open; cluster cooling down for another {retry_in:?}"
                )
            }
            ClusterError::Unavailable { live, needed } => {
                write!(
                    f,
                    "only {live} workers reachable but at least {needed} are required"
                )
            }
            ClusterError::Io { worker, message } => {
                write!(f, "worker {worker}: i/o error: {message}")
            }
            ClusterError::Died { worker } => {
                write!(f, "worker {worker} closed its connection mid-round")
            }
            ClusterError::Timeout { worker, timeout } => {
                write!(f, "worker {worker} silent for more than {timeout:?}")
            }
            ClusterError::Frame { worker, error } => {
                write!(f, "worker {worker} sent an invalid frame: {error}")
            }
            ClusterError::Protocol { worker, message } => {
                write!(f, "worker {worker} protocol violation: {message}")
            }
            ClusterError::Worker { worker, message } => {
                write!(f, "worker {worker} reported: {message}")
            }
            ClusterError::Unencodable { message } => {
                write!(f, "the run cannot be encoded as frames: {message}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Map an I/O error on `worker`'s connection to the error naming it; an
/// `InvalidInput` error is [`write_frame`] refusing a frame it cannot encode.
fn io_error(worker: usize) -> impl Fn(std::io::Error) -> ClusterError + Copy {
    move |e| match e.kind() {
        std::io::ErrorKind::InvalidInput => ClusterError::Unencodable {
            message: e.to_string(),
        },
        _ => ClusterError::Io {
            worker,
            message: e.to_string(),
        },
    }
}

/// Map a read-side [`FrameError`] to the cluster error naming the worker.
fn read_error(worker: usize, timeout: Duration, error: FrameError) -> ClusterError {
    match error {
        FrameError::TimedOut => ClusterError::Timeout { worker, timeout },
        FrameError::Io(message) => ClusterError::Io { worker, message },
        other => ClusterError::Frame {
            worker,
            error: other,
        },
    }
}

/// One live worker connection: a dialled, nodelay TCP stream split into a
/// buffered reader/writer pair, and the buffer its frames are read into.
/// [`crate::net::WorkerPool`] keeps these alive between runs.
#[derive(Debug)]
pub(crate) struct Connection {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    payload: Vec<u8>,
}

impl Connection {
    /// Dial `address` with `read_timeout` on the socket. Errors name
    /// `worker`, the slot this connection is being dialled for.
    pub(crate) fn dial(
        address: &str,
        read_timeout: Duration,
        worker: usize,
    ) -> Result<Connection, ClusterError> {
        let io = io_error(worker);
        let stream = TcpStream::connect(address).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        stream.set_read_timeout(Some(read_timeout)).map_err(io)?;
        let reader = BufReader::new(stream.try_clone().map_err(io)?);
        let writer = BufWriter::new(stream);
        Ok(Connection { reader, writer, payload: Vec::new() })
    }

    /// Introduce this run: `Hello` resets whatever fragment state the
    /// worker kept from an earlier run on a reused connection.
    pub(crate) fn send_hello(
        &mut self,
        worker: usize,
        workers: usize,
        bits_per_value: u64,
    ) -> Result<(), ClusterError> {
        let io = io_error(worker);
        write_frame(
            &mut self.writer,
            &Frame::Hello {
                worker: worker as u64,
                workers: workers as u64,
                bits_per_value,
            },
        )
        .map_err(io)?;
        self.writer.flush().map_err(io)
    }

    /// Liveness-check the connection: send a `Ping` and demand the
    /// matching `Pong` back. Any failure — write, read, timeout, a stale
    /// leftover frame — means the socket cannot be trusted for a round.
    pub(crate) fn ping(&mut self, nonce: u64) -> bool {
        if write_frame(&mut self.writer, &Frame::Ping { nonce }).is_err()
            || self.writer.flush().is_err()
        {
            return false;
        }
        matches!(
            self.read_frame(),
            Ok(Some((Frame::Pong { nonce: echoed }, _))) if echoed == nonce
        )
    }

    /// Read the next frame through this connection's buffer.
    fn read_frame(&mut self) -> Result<Option<(Frame, u64)>, FrameError> {
        read_frame_into(&mut self.reader, &mut self.payload, &mut BTreeMap::new())
    }

    /// Adjust the socket's read timeout (the deadline budget shrinks it
    /// as a run burns time).
    fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        // A zero timeout would mean "blocking forever"; the deadline check
        // guarantees a positive remainder before calling this.
        self.reader
            .get_ref()
            .set_read_timeout(Some(timeout.max(Duration::from_millis(1))))
    }
}

/// The driver of one communication round over real worker processes.
/// [`crate::net::WorkerPool`] builds one per attempt, over the connections
/// it acquired — dialled and Hello'd, worker `i` of the attempt on
/// `connections[i]` — so every round is a self-contained run that a retry
/// can replay on a rebuilt topology.
pub(crate) struct Coordinator<'a> {
    pub(crate) connections: &'a mut [Connection],
    /// The flat per-socket read timeout.
    pub(crate) timeout: Duration,
    /// Absolute cut-off of the run plus the budget it came from: barrier
    /// reads cap their socket timeout at the remaining budget, and a
    /// drained budget yields [`ClusterError::DeadlineExceeded`] instead of
    /// another read.
    pub(crate) deadline: (Instant, Duration),
    /// Where the completed round is also recorded (cumulative across
    /// rounds, see [`crate::net::WorkerPool::execute_folded`]).
    pub(crate) registry: Option<&'a MetricsRegistry>,
}

impl Coordinator<'_> {
    /// The timeout for the next read on `worker`'s socket: the flat
    /// per-socket timeout, capped by what is left of the deadline budget.
    fn prepare_read(&mut self, worker: usize) -> Result<Duration, ClusterError> {
        let (deadline, budget) = self.deadline;
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ClusterError::DeadlineExceeded { budget });
        }
        let effective = remaining.min(self.timeout);
        self.connections[worker]
            .set_read_timeout(effective)
            .map_err(io_error(worker))?;
        Ok(effective)
    }

    /// Execute the round: feed the workers
    /// one after the other — that worker's fragments, one `Execute` per
    /// program, a flush — so the first starts joining while the rest are
    /// still being fed, then barrier on their answers and return, per
    /// program, the set union of the workers' answers
    /// ([`Relation::union_distinct`]). Each program is the local
    /// query of one block of logical servers; a worker answers every
    /// program over the fragments it holds, and the fragments of a block's
    /// relations only ever come from that block's servers. The shipment's
    /// model account becomes the round's [`RoundStats::received_bits`] and
    /// `messages` as is, and the answers' frame bytes its
    /// `result_wire_bytes`.
    ///
    /// # Errors
    /// Any [`ClusterError`]; a failed round leaves the workers in an
    /// unknown state, so their connections must not be reused.
    ///
    /// # Panics
    /// Panics when the shipment was folded for a different worker count,
    /// or `programs` is empty.
    pub(crate) fn run(
        mut self,
        shipment: Shipment,
        programs: &[RoundProgram],
    ) -> Result<(Vec<Relation>, RunMetrics), ClusterError> {
        let start = Instant::now();
        let workers = self.connections.len();
        let round = 1;
        let mut metrics = RunMetrics::default();
        let Shipment {
            received_bits,
            messages,
            fragments,
        } = shipment;
        assert_eq!(
            fragments.len(),
            workers,
            "the shipment must be folded for this round's worker count"
        );
        assert!(!programs.is_empty(), "a round runs at least one program");
        let executes: Vec<Frame> = programs
            .iter()
            .map(|program| Frame::Execute {
                round,
                name: program.name.clone(),
                output_vars: program.output_vars.clone(),
                atoms: program
                    .atoms
                    .iter()
                    .map(|a| (a.relation.clone(), a.variables.clone()))
                    .collect(),
            })
            .collect();
        // Write phase, worker by worker (ones with no fragments still get
        // their Executes, barrier and answer empty). Nothing is read before
        // every worker has its Executes.
        for (worker, relations) in fragments.into_iter().enumerate() {
            for relation in relations {
                self.write(worker, &Frame::Fragment { round, relation })?;
            }
            for execute in &executes {
                self.write(worker, execute)?;
            }
            self.connections[worker]
                .writer
                .flush()
                .map_err(io_error(worker))?;
        }
        // Barrier: one Answer per worker and program, in slot order. A
        // worker counts the bytes it read since its previous Answer, so its
        // round total is the sum over its Answers.
        let mut wire_bytes = vec![0u64; workers];
        let mut answers: Vec<Vec<Relation>> = vec![Vec::with_capacity(workers); programs.len()];
        for (worker, wire) in wire_bytes.iter_mut().enumerate() {
            for parts in &mut answers {
                let timeout = self.prepare_read(worker)?;
                let (frame, frame_bytes) = self.connections[worker]
                    .read_frame()
                    .map_err(|e| read_error(worker, timeout, e))?
                    .ok_or(ClusterError::Died { worker })?;
                match frame {
                    Frame::Answer {
                        round: answered,
                        bytes_received,
                        relation,
                    } => {
                        if answered != round {
                            return Err(ClusterError::Protocol {
                                worker,
                                message: format!(
                                    "answered round {answered} while round {round} is running"
                                ),
                            });
                        }
                        *wire += bytes_received;
                        metrics.result_wire_bytes += frame_bytes;
                        parts.push(relation);
                    }
                    Frame::Error { message } => {
                        return Err(ClusterError::Worker { worker, message })
                    }
                    other => {
                        return Err(ClusterError::Protocol {
                            worker,
                            message: format!("expected an Answer frame, got {other:?}"),
                        })
                    }
                }
            }
        }
        // Every worker answered every program with a set; their union is
        // the program's answer, in first-occurrence order over the workers.
        let outputs = answers
            .iter()
            .map(|parts| {
                let schema = parts.first().expect("at least one worker answered").schema();
                Relation::union_distinct(schema.clone(), parts)
            })
            .collect();
        let stats = RoundStats {
            round: 1,
            received_bits,
            messages,
            wire_bytes,
            wall_micros: start.elapsed().as_micros() as u64,
        };
        if let Some(registry) = self.registry.filter(|r| r.is_enabled()) {
            registry
                .counter(
                    "pq_cluster_rounds_total",
                    &[],
                    "Communication rounds executed on the worker cluster",
                )
                .inc();
            registry
                .histogram(
                    "pq_cluster_round_wall_micros",
                    &[],
                    "Wall-clock time of one cluster communication round",
                )
                .observe(stats.wall_micros);
            for (worker, &bytes) in stats.wire_bytes.iter().enumerate() {
                registry
                    .counter(
                        "pq_cluster_worker_wire_bytes_total",
                        &[("worker", &worker.to_string())],
                        "Measured bytes each worker read off its socket, frame headers included",
                    )
                    .add(bytes);
            }
        }
        metrics.rounds.push(stats);
        Ok((outputs, metrics))
    }

    fn write(&mut self, worker: usize, frame: &Frame) -> Result<u64, ClusterError> {
        write_frame(&mut self.connections[worker].writer, frame).map_err(io_error(worker))
    }
}

/// Ask every configured worker process to exit: connect, send a
/// `Shutdown` frame, move on. Best-effort by design — a worker that is
/// already gone is exactly what we wanted.
pub fn shutdown_workers(config: &ClusterConfig) {
    for address in &config.workers {
        if let Ok(stream) = TcpStream::connect(address) {
            let mut writer = BufWriter::new(stream);
            let _ = write_frame(&mut writer, &Frame::Shutdown);
            let _ = writer.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use crate::net::worker::LocalWorkers;
    use crate::net::WorkerPool;
    use pq_relation::{natural_join, Relation, Schema};

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<u64>>) -> Relation {
        Relation::from_rows(Schema::from_strs(name, attrs), rows)
    }

    fn join_program() -> RoundProgram {
        RoundProgram {
            name: "Q".into(),
            output_vars: vec!["x".into(), "y".into(), "z".into()],
            atoms: vec![
                AtomSpec {
                    relation: "R".into(),
                    variables: vec!["x".into(), "y".into()],
                },
                AtomSpec {
                    relation: "S".into(),
                    variables: vec!["y".into(), "z".into()],
                },
            ],
        }
    }

    /// Hand-route a two-atom join across 2 workers folding p = 4 logical
    /// servers, and check the output and both cost accounts.
    #[test]
    fn a_round_over_real_sockets_matches_the_local_join() {
        let workers = LocalWorkers::spawn(2).unwrap();
        let pool = WorkerPool::new(ClusterConfig::new(workers.addresses().to_vec()));
        let r = rel("R", &["x", "y"], vec![vec![1, 2], vec![3, 4], vec![5, 2]]);
        let s = rel("S", &["y", "z"], vec![vec![2, 20], vec![4, 40]]);
        // Partition R by x % 4 onto logical servers, broadcast S — every
        // answer then lands on its x-tuple's server, so the plan is
        // complete, and folding 4 servers onto 2 workers must not change
        // the output.
        let mut messages = Vec::new();
        for row in r.iter() {
            let to = (row[0] % 4) as usize;
            messages.push(Message::tuples(
                to,
                rel("R", &["x", "y"], vec![row.to_vec()]),
            ));
        }
        for to in 0..4 {
            messages.push(Message::tuples(to, s.clone()));
        }
        let (output, metrics) = pool
            .execute(4, 16, 1000, &join_program(), &|| messages.clone(), None)
            .unwrap();
        let mut rows: Vec<Vec<u64>> = output.iter().map(|t| t.to_vec()).collect();
        rows.sort();
        let expected = natural_join(&r, &s);
        let mut expected_rows: Vec<Vec<u64>> = expected.iter().map(|t| t.to_vec()).collect();
        expected_rows.sort();
        assert_eq!(rows, expected_rows);

        assert_eq!(metrics.num_rounds(), 1);
        assert_eq!(metrics.input_bits, 1000);
        let stats = &metrics.rounds[0];
        // Model account: length p, same arithmetic as the simulator
        // (3 R-rows of 2 values + a 2-row broadcast of S, at 16 bits).
        assert_eq!(stats.received_bits.len(), 4);
        assert_eq!(stats.total_bits(), (3 * 2 + 4 * 2 * 2) * 16);
        // Measured account: length workers, nonzero (both workers got S).
        assert_eq!(stats.wire_bytes.len(), 2);
        assert!(stats.wire_bytes.iter().all(|&b| b > 0));
        // 64-bit wire values can only cost more than 16-bit model values.
        assert!(stats.total_wire_bytes() * 8 >= stats.total_bits());
        assert!(metrics.result_wire_bytes > 0);
        assert!(metrics.is_measured());
        workers.shutdown();
    }

    /// Two blocks in one round: each program is answered over its own
    /// relations, and a worker's round bytes are the sum over its answers.
    #[test]
    fn every_program_of_a_round_gets_its_own_answer() {
        let workers = LocalWorkers::spawn(2).unwrap();
        let pool = WorkerPool::new(ClusterConfig::new(workers.addresses().to_vec()));
        let t = rel("T", &["u"], vec![vec![7], vec![8]]);
        let messages = vec![
            Message::tuples(0, rel("R", &["x", "y"], vec![vec![1, 2], vec![3, 4]])),
            Message::tuples(0, rel("S", &["y", "z"], vec![vec![2, 20]])),
            Message::tuples(1, t.clone()),
        ];
        let alone = RoundProgram {
            name: "V".into(),
            output_vars: vec!["u".into()],
            atoms: vec![AtomSpec {
                relation: "T".into(),
                variables: vec!["u".into()],
            }],
        };
        let programs = [join_program(), alone];
        let route = |workers| Shipment::from_messages(messages.clone(), 2, workers, 16);
        let (answers, metrics) = pool.execute_folded(16, 0, &programs, &route, None).unwrap();
        let joined: Vec<Vec<u64>> = answers[0].iter().map(|row| row.to_vec()).collect();
        assert_eq!(joined, vec![vec![1, 2, 20]]);
        assert_eq!(answers[1].canonicalized(), t.renamed("V").canonicalized());
        let bytes = |frame: &Frame| write_frame(&mut Vec::new(), frame).unwrap();
        let execute = |program: &RoundProgram| Frame::Execute {
            round: 1,
            name: program.name.clone(),
            output_vars: program.output_vars.clone(),
            atoms: program
                .atoms
                .iter()
                .map(|a| (a.relation.clone(), a.variables.clone()))
                .collect(),
        };
        let worker_1 = bytes(&Frame::Fragment { round: 1, relation: t })
            + bytes(&execute(&programs[0]))
            + bytes(&execute(&programs[1]));
        assert_eq!(metrics.rounds[0].wire_bytes[1], worker_1);
        workers.shutdown();
    }

    #[test]
    fn raw_payloads_load_the_model_account_and_stay_off_the_wire() {
        let workers = LocalWorkers::spawn(1).unwrap();
        let pool = WorkerPool::new(ClusterConfig::new(workers.addresses().to_vec()));
        let mut wire = Vec::new();
        for messages in [vec![], vec![Message::raw(0, "stats", 64)]] {
            let (output, mut metrics) =
                pool.execute(2, 8, 0, &join_program(), &|| messages.clone(), None).unwrap();
            assert!(output.is_empty());
            wire.push(metrics.rounds.remove(0));
        }
        assert_eq!(wire[1].received_bits, vec![64, 0]);
        assert_eq!(wire[1].messages, 1);
        assert_eq!(wire[1].wire_bytes, wire[0].wire_bytes);
        workers.shutdown();
    }

    /// The error a one-round run on `config` fails with.
    fn pool_error(config: ClusterConfig) -> ClusterError {
        let pool = WorkerPool::new(config);
        pool.execute(2, 8, 0, &join_program(), &Vec::new, None).unwrap_err()
    }

    #[test]
    fn connecting_to_a_dead_address_is_an_io_error() {
        // Bind-then-drop guarantees the port is closed.
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let config = ClusterConfig::new(vec![dead]).with_retry(RetryPolicy {
            retries: 0,
            ..RetryPolicy::default()
        });
        let err = pool_error(config);
        assert!(matches!(err, ClusterError::Io { worker: 0, .. }), "{err}");
    }

    #[test]
    fn empty_configs_are_rejected() {
        let err = pool_error(ClusterConfig::new(vec![]));
        assert!(matches!(err, ClusterError::Protocol { .. }));
    }

    #[test]
    fn shutdown_workers_stops_the_processes() {
        let workers = LocalWorkers::spawn(2).unwrap();
        let config = ClusterConfig::new(workers.addresses().to_vec());
        shutdown_workers(&config);
        // The serve loops have exited; shutdown() now just joins threads
        // (its own Shutdown connects fail, which it tolerates).
        workers.shutdown();
    }
}
