//! The resilience layer of the cluster backend: a persistent,
//! health-checked connection pool with retry, deadlines, and a circuit
//! breaker.
//!
//! A [`WorkerPool`] owns one connection slot per configured worker and
//! keeps dialled, Hello'd sockets alive *across* runs — deleting the
//! dial + Hello tax a fresh connection pays. Each run is one
//! communication round:
//!
//! 1. asks the [`crate::net::retry::Breaker`] for admission (an open
//!    breaker fails fast with [`ClusterError::BreakerOpen`], which is how
//!    the engine above knows to degrade to the simulator);
//! 2. starts the deadline clock — a budget covering dials, health
//!    pings, the round *and* backoff pauses, so a run can never hang past
//!    it;
//! 3. acquires connections: pooled sockets idle past
//!    `health_check_after` are pinged (`Ping`/`Pong`) first, dead ones
//!    silently redialled;
//! 4. runs the round over the borrowed connections (the coordinator
//!    side of the protocol, [`crate::net::coordinator`]);
//! 5. on success, returns the connections to their slots for the next
//!    run; on failure, drops *all* of them (a failed round leaves workers
//!    in an unknown state) and retries on a freshly rebuilt topology
//!    after a capped, jittered backoff.
//!
//! # Why retrying a round is safe
//!
//! Rounds are idempotent by construction. The [`Shipment`] a run sends is
//! recomputed per attempt — for that attempt's worker count — by a pure
//! closure over the engine's *immutable* snapshot; nothing is consumed by
//! a failed attempt. Every attempt
//! opens with a `Hello` on every connection, which resets the worker's
//! per-connection fragment state, and a worker folds fragments only from
//! its own connection — so a half-shipped failed attempt leaves no
//! residue a retry could observe. Same seed, same snapshot, same routing:
//! a retried round computes byte-for-byte the answer the first attempt
//! would have.
//!
//! A multi-round plan is one run per round, each opening with its own
//! `Hello`. Between rounds the *coordinator* holds the intermediate views
//! (merged and deduplicated from the workers' answers), so the next
//! round's shipment is again a pure function of immutable inputs — the
//! snapshot and views no worker can touch — and the argument above holds
//! round by round: a failure replays only the round that failed.
//!
//! # Routing around dead workers
//!
//! The first attempt of a run requires the full configured topology —
//! the common case, and the one whose cost accounting
//! (`wire_bytes.len() == workers`) downstream assertions rely on. Retry
//! attempts may *shrink* the topology to the workers that still answer,
//! as long as at least [`ClusterConfig::effective_min_workers`] of them
//! do (default: a majority). That is sound because the routing closure
//! folds the `p` logical servers onto whatever worker count the attempt
//! Hello'd (`server % workers` — see [`crate::net`]): a 2-worker retry of
//! a 3-worker run is re-folded for two workers and computes the same
//! answer, just with more logical servers per process.
//! A reduced-topology success is therefore *not* a degraded answer — it
//! is exact — and is reported with `degraded = false`.

use crate::message::Message;
use crate::metrics::RunMetrics;
use crate::net::coordinator::{
    ClusterConfig, ClusterError, Connection, Coordinator, RoundProgram,
};
use crate::net::retry::{Breaker, Clock, SystemClock};
use crate::net::shipment::Shipment;
use pq_obs::MetricsRegistry;
use pq_relation::Relation;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A pooled idle connection and when it was last used (for the
/// health-check age test).
#[derive(Debug)]
struct IdleConn {
    connection: Connection,
    last_used: Instant,
}

/// Cumulative counters a pool keeps about itself, mirrored into the
/// metrics registry per run. Snapshot with [`WorkerPool::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Runs the pool executed successfully.
    pub runs_ok: u64,
    /// Runs that failed past the whole retry budget (or fast, breaker
    /// open).
    pub runs_failed: u64,
    /// Retry attempts performed (attempts beyond the first, per run).
    pub retries: u64,
    /// Sockets (re)dialled — first dials and replacements alike.
    pub reconnects: u64,
}

#[derive(Debug, Default)]
struct AtomicStats {
    runs_ok: AtomicU64,
    runs_failed: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
}

#[derive(Debug)]
struct PoolInner {
    config: ClusterConfig,
    clock: Arc<dyn Clock>,
    /// Serialises runs: workers serve one round at a time per connection
    /// anyway, and a single run owning every slot keeps acquire/return
    /// trivially consistent. Each run's deadline clock starts *after*
    /// this lock is acquired, so queued runs get their full budget.
    run_lock: Mutex<()>,
    /// One slot per configured worker address; `None` = not connected.
    slots: Mutex<Vec<Option<IdleConn>>>,
    breaker: Breaker,
    stats: AtomicStats,
    /// Salts the jittered backoff so concurrent pools don't march in
    /// lockstep; bumped once per run.
    runs: AtomicU64,
    /// Ping nonces, bumped per probe so back-to-back pings on one socket
    /// never share a token.
    nonces: AtomicU64,
    /// The registry run metrics and pool gauges are mirrored into, once
    /// one is supplied to [`WorkerPool::execute`].
    registry: Mutex<Option<Arc<MetricsRegistry>>>,
}

/// A persistent, health-checked pool of worker connections — the handle
/// `ExecBackend::Cluster` holds. Cheap to clone (all clones share the
/// slots, breaker and stats); dropping the last clone closes the pooled
/// sockets but leaves the workers running.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    inner: Arc<PoolInner>,
}

impl WorkerPool {
    /// A pool over `config`'s workers. No sockets are dialled until the
    /// first [`WorkerPool::execute`].
    pub fn new(config: ClusterConfig) -> Self {
        WorkerPool::with_clock(config, Arc::new(SystemClock))
    }

    /// [`WorkerPool::new`] with an injected [`Clock`] — how the tests
    /// observe the backoff schedule without sleeping it.
    pub fn with_clock(config: ClusterConfig, clock: Arc<dyn Clock>) -> Self {
        let slots = (0..config.workers.len()).map(|_| None).collect();
        let breaker = Breaker::new(config.breaker_threshold, config.breaker_cooldown);
        WorkerPool {
            inner: Arc::new(PoolInner {
                config,
                clock,
                run_lock: Mutex::new(()),
                slots: Mutex::new(slots),
                breaker,
                stats: AtomicStats::default(),
                runs: AtomicU64::new(0),
                nonces: AtomicU64::new(0),
                registry: Mutex::new(None),
            }),
        }
    }

    /// The configuration this pool was built over.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// Snapshot of the pool's cumulative counters.
    pub fn stats(&self) -> PoolStats {
        let s = &self.inner.stats;
        PoolStats {
            runs_ok: s.runs_ok.load(Ordering::Relaxed),
            runs_failed: s.runs_failed.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
            reconnects: s.reconnects.load(Ordering::Relaxed),
        }
    }

    /// Number of currently pooled (idle, believed-live) connections.
    pub fn pooled_connections(&self) -> usize {
        self.inner
            .slots
            .lock()
            .unwrap()
            .iter()
            .filter(|s| s.is_some())
            .count()
    }

    /// The circuit breaker's current state (for the
    /// `pq_cluster_breaker_state` gauge).
    pub fn breaker_state(&self) -> crate::net::retry::BreakerState {
        self.inner.breaker.state()
    }

    /// Drop every pooled connection. The next run redials; the workers
    /// themselves keep serving.
    pub fn disconnect(&self) {
        let mut slots = self.inner.slots.lock().unwrap();
        for slot in slots.iter_mut() {
            *slot = None;
        }
    }

    /// Execute one communication round of a run on the cluster from
    /// simulator-style messages, every worker running `program`:
    /// [`WorkerPool::execute_folded`] over whatever `messages` returns,
    /// folded set-wise for each attempt's worker count
    /// ([`Shipment::from_messages`]). `messages` is called once per attempt
    /// and must be pure over immutable inputs.
    ///
    /// # Errors
    /// As [`WorkerPool::execute_folded`].
    pub fn execute(
        &self,
        p: usize,
        bits_per_value: u64,
        input_bits: u64,
        program: &RoundProgram,
        messages: &dyn Fn() -> Vec<Message>,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> Result<(Relation, RunMetrics), ClusterError> {
        let route = |workers| Shipment::from_messages(messages(), p, workers, bits_per_value);
        let programs = std::slice::from_ref(program);
        let (mut answers, metrics) =
            self.execute_folded(bits_per_value, input_bits, programs, &route, registry)?;
        Ok((answers.remove(0), metrics))
    }

    /// Execute one communication round of a run on the cluster, with the
    /// full resilience stack: breaker admission, per-run deadline,
    /// pooled connections (health-checked, redialled as needed), and
    /// retry on a rebuilt topology. `route` is called once per attempt
    /// with *that attempt's* live worker count and returns the round's
    /// [`Shipment`] folded for it — a retry on a reduced topology
    /// re-folds for the smaller count. It must be pure over immutable
    /// inputs, which is what makes the retry safe (see the module docs).
    /// Every worker answers every one of `programs` — one per block of
    /// logical servers, whose relations only that block's servers receive
    /// — and the answers come back merged and deduplicated per program, in
    /// order.
    ///
    /// On success the returned [`RunMetrics`] describe exactly the one
    /// successful attempt (plus `input_bits`), as the model accounting
    /// downstream requires; retry/reconnect counts live in
    /// [`WorkerPool::stats`] and the registry counters instead. Once a
    /// `registry` is given, every completed round is also recorded there:
    /// `pq_cluster_rounds_total`, a `pq_cluster_round_wall_micros`
    /// histogram and one `pq_cluster_worker_wire_bytes_total{worker=…}`
    /// counter per worker slot.
    ///
    /// # Errors
    /// The last attempt's [`ClusterError`], [`ClusterError::BreakerOpen`]
    /// when failing fast, or [`ClusterError::DeadlineExceeded`] when the
    /// budget drained mid-run.
    pub fn execute_folded(
        &self,
        bits_per_value: u64,
        input_bits: u64,
        programs: &[RoundProgram],
        route: &dyn Fn(usize) -> Shipment,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> Result<(Vec<Relation>, RunMetrics), ClusterError> {
        let inner = &self.inner;
        if let Some(registry) = registry {
            *inner.registry.lock().unwrap() = Some(registry.clone());
        }
        let _run = inner.run_lock.lock().unwrap();
        let before = self.stats();
        let salt = inner.runs.fetch_add(1, Ordering::Relaxed);
        let start = inner.clock.now();
        let result = match inner.breaker.admit(start) {
            Err(retry_in) => Err(ClusterError::BreakerOpen { retry_in }),
            Ok(()) => self.attempts(bits_per_value, input_bits, programs, route, salt),
        };
        match &result {
            Ok(_) => {
                inner.breaker.record_success();
                inner.stats.runs_ok.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => {
                // A fast-failed (breaker-open) run is no *new* evidence of
                // ill health, nor is a query the codec cannot encode — only
                // real attempt failures move the state.
                if !matches!(
                    e,
                    ClusterError::BreakerOpen { .. } | ClusterError::Unencodable { .. }
                ) {
                    inner.breaker.record_failure(inner.clock.now());
                }
                inner.stats.runs_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.publish(before);
        result
    }

    /// The attempt loop: full topology first, route-around retries after,
    /// all under one deadline.
    fn attempts(
        &self,
        bits_per_value: u64,
        input_bits: u64,
        programs: &[RoundProgram],
        route: &dyn Fn(usize) -> Shipment,
        salt: u64,
    ) -> Result<(Vec<Relation>, RunMetrics), ClusterError> {
        let inner = &self.inner;
        let budget = inner.config.deadline;
        let deadline = inner.clock.now() + budget;
        let retries = inner.config.retry.retries;
        let mut last_err: Option<ClusterError> = None;
        for attempt in 0..=retries {
            if attempt > 0 {
                inner.stats.retries.fetch_add(1, Ordering::Relaxed);
                let pause = inner.config.retry.delay(attempt, salt);
                let remaining = deadline.saturating_duration_since(inner.clock.now());
                if remaining.is_zero() {
                    break;
                }
                inner.clock.sleep(pause.min(remaining));
            }
            if deadline
                .saturating_duration_since(inner.clock.now())
                .is_zero()
            {
                break;
            }
            let require_full = attempt == 0;
            let (slot_map, mut connections) = match self.acquire(bits_per_value, require_full) {
                Ok(acquired) => acquired,
                Err(e) => {
                    last_err = Some(e);
                    continue;
                }
            };
            let shipment = route(connections.len());
            let registry = self.registry_for_rounds();
            let coordinator = Coordinator {
                connections: &mut connections,
                timeout: inner.config.read_timeout,
                deadline: (deadline, budget),
                registry: registry.as_deref(),
            };
            match coordinator.run(shipment, programs) {
                Ok((answers, mut metrics)) => {
                    metrics.input_bits = input_bits;
                    let now = inner.clock.now();
                    let mut slots = inner.slots.lock().unwrap();
                    for (slot, connection) in slot_map.into_iter().zip(connections) {
                        slots[slot] = Some(IdleConn {
                            connection,
                            last_used: now,
                        });
                    }
                    return Ok((answers, metrics));
                }
                Err(e) => {
                    // A failed round leaves the touched workers in an
                    // unknown state: drop every borrowed connection (which
                    // closes them) and rebuild from scratch next attempt.
                    drop(connections);
                    let fatal = matches!(
                        e,
                        ClusterError::DeadlineExceeded { .. } | ClusterError::Unencodable { .. }
                    );
                    last_err = Some(e);
                    if fatal {
                        break;
                    }
                }
            }
        }
        Err(last_err.unwrap_or(ClusterError::DeadlineExceeded { budget }))
    }

    /// Gather one connection per reachable worker: pooled ones (pinged if
    /// stale) where possible, fresh dials otherwise, a `Hello` on every
    /// one. Returns the worker-slot indices alongside the connections (in
    /// matching order) so successful runs can return each socket to its
    /// slot. `require_full` demands the complete topology; otherwise any
    /// subset no smaller than the configured floor passes.
    #[allow(clippy::type_complexity)]
    fn acquire(
        &self,
        bits_per_value: u64,
        require_full: bool,
    ) -> Result<(Vec<usize>, Vec<Connection>), ClusterError> {
        let inner = &self.inner;
        let total = inner.config.workers.len();
        if total == 0 {
            return Err(ClusterError::Protocol {
                worker: 0,
                message: "the cluster config lists no workers".into(),
            });
        }
        let now = inner.clock.now();
        let mut pooled: Vec<Option<IdleConn>> = {
            let mut slots = inner.slots.lock().unwrap();
            slots.iter_mut().map(|s| s.take()).collect()
        };
        let mut live: Vec<(usize, Connection)> = Vec::with_capacity(total);
        let mut first_failure: Option<ClusterError> = None;
        for (slot, address) in inner.config.workers.iter().enumerate() {
            let candidate = match pooled[slot].take() {
                Some(idle) => {
                    let stale = now.saturating_duration_since(idle.last_used)
                        >= inner.config.health_check_after;
                    let mut connection = idle.connection;
                    let nonce = inner.nonces.fetch_add(1, Ordering::Relaxed);
                    if !stale || connection.ping(nonce) {
                        Some(connection)
                    } else {
                        // Stale and unresponsive: silently replace it.
                        None
                    }
                }
                None => None,
            };
            let connection = match candidate {
                Some(connection) => Ok(connection),
                None => {
                    inner.stats.reconnects.fetch_add(1, Ordering::Relaxed);
                    Connection::dial(address, inner.config.read_timeout, slot)
                }
            };
            match connection {
                Ok(connection) => live.push((slot, connection)),
                Err(e) => {
                    if first_failure.is_none() {
                        first_failure = Some(e);
                    }
                }
            }
        }
        if require_full && live.len() < total {
            return Err(first_failure.unwrap_or(ClusterError::Unavailable {
                live: live.len(),
                needed: total,
            }));
        }
        let floor = inner.config.effective_min_workers();
        if live.len() < floor {
            return Err(ClusterError::Unavailable {
                live: live.len(),
                needed: floor,
            });
        }
        // Hello every member of this attempt's topology: worker i of n.
        let n = live.len();
        let mut slot_map = Vec::with_capacity(n);
        let mut connections = Vec::with_capacity(n);
        for (i, (slot, mut connection)) in live.into_iter().enumerate() {
            connection.send_hello(i, n, bits_per_value)?;
            slot_map.push(slot);
            connections.push(connection);
        }
        Ok((slot_map, connections))
    }

    /// The registry the per-round counters go to, if one was published.
    fn registry_for_rounds(&self) -> Option<Arc<MetricsRegistry>> {
        self.inner.registry.lock().unwrap().clone()
    }

    /// Mirror this run's counter deltas (against the `before` snapshot)
    /// and the pool gauges into the published registry:
    /// `pq_cluster_retries_total`, `pq_cluster_reconnects_total`, the
    /// `pq_cluster_pool_size` gauge and the `pq_cluster_breaker_state`
    /// gauge.
    fn publish(&self, before: PoolStats) {
        let Some(registry) = self.registry_for_rounds() else {
            return;
        };
        if !registry.is_enabled() {
            return;
        }
        let stats = self.stats();
        registry
            .counter(
                "pq_cluster_retries_total",
                &[],
                "Cluster run retry attempts (attempts beyond the first)",
            )
            .add(stats.retries.saturating_sub(before.retries));
        registry
            .counter(
                "pq_cluster_reconnects_total",
                &[],
                "Worker sockets dialled by the pool (first dials and replacements)",
            )
            .add(stats.reconnects.saturating_sub(before.reconnects));
        registry
            .gauge(
                "pq_cluster_pool_size",
                &[],
                "Idle, believed-live worker connections held by the pool",
            )
            .set(self.pooled_connections() as u64);
        registry
            .gauge(
                "pq_cluster_breaker_state",
                &[],
                "Cluster circuit breaker state (0 = closed, 1 = open, 2 = half-open)",
            )
            .set(self.breaker_state().gauge());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::coordinator::AtomSpec;
    use crate::net::retry::{BreakerState, RetryPolicy, TestClock};
    use crate::net::worker::LocalWorkers;
    use pq_relation::Schema;
    use std::time::Duration;

    fn rel(rows: Vec<Vec<u64>>) -> Relation {
        Relation::from_rows(Schema::from_strs("R", &["x", "y"]), rows)
    }

    fn identity_program() -> RoundProgram {
        RoundProgram {
            name: "Q".into(),
            output_vars: vec!["x".into(), "y".into()],
            atoms: vec![AtomSpec {
                relation: "R".into(),
                variables: vec!["x".into(), "y".into()],
            }],
        }
    }

    /// Broadcast two R-rows to every logical server: the merged, deduped
    /// answer is exactly those two rows, on any worker count.
    fn broadcast(p: usize) -> Vec<Message> {
        (0..p)
            .map(|to| Message::tuples(to, rel(vec![vec![1, 2], vec![3, 4]])))
            .collect()
    }

    /// An address that is bound, then immediately released: connecting to
    /// it reliably fails.
    fn dead_address() -> String {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    }

    #[test]
    fn a_pool_reuses_its_connections_across_runs() {
        let workers = LocalWorkers::spawn(2).unwrap();
        let pool = WorkerPool::new(ClusterConfig::new(workers.addresses().to_vec()));
        for _ in 0..3 {
            let (output, metrics) = pool
                .execute(4, 16, 1000, &identity_program(), &|| broadcast(4), None)
                .unwrap();
            assert_eq!(output.len(), 2);
            assert_eq!(metrics.num_rounds(), 1);
            assert_eq!(metrics.rounds[0].wire_bytes.len(), 2);
            assert!(metrics.is_measured());
        }
        let stats = pool.stats();
        assert_eq!(stats.runs_ok, 3);
        assert_eq!(stats.retries, 0);
        assert_eq!(
            stats.reconnects, 2,
            "two dials for the first run, zero after: the pool kept them"
        );
        assert_eq!(pool.pooled_connections(), 2);
        drop(pool);
        workers.shutdown();
    }

    #[test]
    fn a_dead_worker_is_retried_and_routed_around() {
        let workers = LocalWorkers::spawn(2).unwrap();
        let mut addresses = workers.addresses().to_vec();
        addresses.push(dead_address());
        // 3 configured workers, majority floor = 2: the first attempt
        // (full topology) fails on the dead dial, the retry folds the 4
        // logical servers onto the 2 live workers and succeeds exactly.
        let config = ClusterConfig::new(addresses)
            .with_retry(RetryPolicy {
                retries: 2,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
            });
        let pool = WorkerPool::new(config);
        let (output, metrics) = pool
            .execute(4, 16, 1000, &identity_program(), &|| broadcast(4), None)
            .unwrap();
        assert_eq!(output.len(), 2, "the reduced-topology answer is exact");
        assert_eq!(
            metrics.rounds[0].wire_bytes.len(),
            2,
            "the successful attempt ran on the reduced topology"
        );
        let stats = pool.stats();
        assert!(stats.retries >= 1, "{stats:?}");
        assert_eq!(stats.runs_ok, 1);
        assert_eq!(pool.breaker_state(), BreakerState::Closed);
        drop(pool);
        workers.shutdown();
    }

    /// A worker that accepts one connection, stops listening, reads up to
    /// the round's `Execute` and hangs up without answering: the first
    /// attempt routes for it and fails, every later dial is refused.
    fn worker_dying_mid_round() -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let address = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            drop(listener);
            let mut reader = std::io::BufReader::new(stream);
            while let Ok(Some((frame, _))) = crate::net::read_frame(&mut reader) {
                if matches!(frame, crate::net::Frame::Execute { .. }) {
                    break;
                }
            }
        });
        (address, handle)
    }

    #[test]
    fn the_route_is_asked_once_per_attempt_for_that_attempts_worker_count() {
        let workers = LocalWorkers::spawn(2).unwrap();
        let (dying, handle) = worker_dying_mid_round();
        let mut addresses = workers.addresses().to_vec();
        addresses.push(dying);
        let config = ClusterConfig::new(addresses).with_retry(RetryPolicy {
            retries: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
        });
        let pool = WorkerPool::new(config);
        let asked = Mutex::new(Vec::new());
        let (output, metrics) = pool
            .execute_folded(
                16,
                1000,
                &[identity_program()],
                &|workers| {
                    asked.lock().unwrap().push(workers);
                    Shipment::from_messages(broadcast(4), 4, workers, 16)
                },
                None,
            )
            .unwrap();
        assert_eq!(output[0].len(), 2);
        // Attempt 0 folded for the full topology and lost a worker
        // mid-round; the retry re-folded for the two survivors.
        assert_eq!(*asked.lock().unwrap(), vec![3, 2]);
        assert_eq!(metrics.rounds[0].wire_bytes.len(), 2);
        assert_eq!(metrics.rounds[0].received_bits.len(), 4);
        assert_eq!(pool.stats().retries, 1);
        drop(pool);
        workers.shutdown();
        handle.join().unwrap();
    }

    #[test]
    fn too_few_live_workers_is_unavailable_not_a_hang() {
        // 2 of 3 dead: majority floor 2 > 1 live, every attempt fails.
        let workers = LocalWorkers::spawn(1).unwrap();
        let addresses = vec![
            workers.addresses()[0].clone(),
            dead_address(),
            dead_address(),
        ];
        let config = ClusterConfig::new(addresses).with_retry(RetryPolicy {
            retries: 1,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(1),
        });
        let pool = WorkerPool::new(config);
        let err = pool
            .execute(4, 16, 1000, &identity_program(), &|| broadcast(4), None)
            .unwrap_err();
        assert!(
            matches!(
                err,
                ClusterError::Unavailable { live: 1, needed: 2 } | ClusterError::Io { .. }
            ),
            "{err}"
        );
        drop(pool);
        workers.shutdown();
    }

    #[test]
    fn the_breaker_opens_after_consecutive_failed_runs_and_fails_fast() {
        let clock = Arc::new(TestClock::new());
        let config = ClusterConfig::new(vec![dead_address()])
            .with_retry(RetryPolicy {
                retries: 0,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(1),
            })
            .with_breaker(2, Duration::from_secs(5));
        let pool = WorkerPool::with_clock(config, clock.clone());
        let run = || pool.execute(2, 8, 0, &identity_program(), &|| broadcast(2), None);
        assert!(matches!(run().unwrap_err(), ClusterError::Io { .. }));
        assert!(matches!(run().unwrap_err(), ClusterError::Io { .. }));
        assert_eq!(pool.breaker_state(), BreakerState::Open);
        // Fail fast now: no socket is touched, the error carries the
        // remaining cooldown.
        let reconnects_before = pool.stats().reconnects;
        let err = run().unwrap_err();
        assert!(matches!(err, ClusterError::BreakerOpen { .. }), "{err}");
        assert_eq!(pool.stats().reconnects, reconnects_before);
        // After the cooldown the half-open probe is admitted (and fails
        // against the still-dead address, re-opening the breaker).
        clock.sleep(Duration::from_secs(5));
        assert!(matches!(run().unwrap_err(), ClusterError::Io { .. }));
        assert_eq!(pool.breaker_state(), BreakerState::Open);
    }

    #[test]
    fn a_zero_deadline_is_deadline_exceeded_not_a_hang() {
        let workers = LocalWorkers::spawn(1).unwrap();
        let config = ClusterConfig::new(workers.addresses().to_vec())
            .with_deadline(Duration::ZERO);
        let pool = WorkerPool::new(config);
        let err = pool
            .execute(2, 8, 0, &identity_program(), &|| broadcast(2), None)
            .unwrap_err();
        assert!(matches!(err, ClusterError::DeadlineExceeded { .. }), "{err}");
        drop(pool);
        workers.shutdown();
    }

    #[test]
    fn pool_metrics_land_in_the_registry() {
        let workers = LocalWorkers::spawn(2).unwrap();
        let mut addresses = workers.addresses().to_vec();
        addresses.push(dead_address());
        let config = ClusterConfig::new(addresses).with_retry(RetryPolicy {
            retries: 1,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(1),
        });
        let pool = WorkerPool::new(config);
        let registry = Arc::new(MetricsRegistry::new());
        pool.execute(
            4,
            16,
            1000,
            &identity_program(),
            &|| broadcast(4),
            Some(&registry),
        )
        .unwrap();
        assert!(registry.counter_value("pq_cluster_retries_total", &[]) >= 1);
        assert!(registry.counter_value("pq_cluster_reconnects_total", &[]) >= 2);
        assert_eq!(registry.counter_value("pq_cluster_rounds_total", &[]), 1);
        drop(pool);
        workers.shutdown();
    }
}
