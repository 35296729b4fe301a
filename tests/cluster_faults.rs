//! Network fault injection for the cluster backend: every way a worker can
//! misbehave — dying before the round, dying mid-round, truncating a frame,
//! or going silent — must surface as a *typed* [`ClusterError`] within the
//! configured timeout. No test here may hang: the coordinator's read
//! timeout and the write-then-barrier round structure are exactly what
//! these tests hold to account.
//!
//! The faulty peers are hand-rolled socket threads, not [`serve_worker`]
//! loops: the real worker is deliberately incapable of answering with a
//! truncated frame or staying silent, so the faults are injected at the
//! raw byte level beneath the codec.

use pq_bench::matching_database_for_query;
use pq_core::baselines::oracle;
use pq_core::hypercube::HyperCubeRouter;
use pq_engine::{Engine, EngineError, EngineRun, ExecBackend, FallbackPolicy};
use pq_mpc::net::{
    read_frame, serve_worker, shutdown_workers, write_frame, AtomSpec, BreakerState, Clock,
    ClusterConfig, ClusterError, Frame, LocalWorkers, RetryPolicy, RoundProgram, TestClock,
    WorkerLimits, WorkerObs, WorkerPool, MAGIC,
};
use pq_mpc::Message;
use pq_query::{Atom, ConjunctiveQuery};
use pq_relation::{Relation, Schema};
use proptest::prelude::*;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a fake worker does after accepting its one connection.
#[derive(Clone, Copy)]
enum Fault {
    /// Close the socket immediately, before even reading the Hello.
    DieOnAccept,
    /// Read frames up to the round's Execute, then close without answering
    /// — a worker crashing mid-round, after the shuffle reached it.
    DieMidRound,
    /// Read up to the Execute, then send a frame whose length prefix
    /// promises more payload than follows, and close.
    TruncateAnswer,
    /// Read everything, answer nothing, hold the connection open.
    Silent,
}

/// Spawn a fake worker exhibiting `fault`; returns its address and the
/// thread handle (joined by the test to prove the peer exited too).
fn faulty_worker(fault: Fault) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let address = listener.local_addr().expect("addr").to_string();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        serve_fault(stream, fault);
    });
    (address, handle)
}

fn serve_fault(stream: TcpStream, fault: Fault) {
    if matches!(fault, Fault::DieOnAccept) {
        return; // drop the stream: RST or EOF at the coordinator
    }
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    // Consume frames (Hello, fragments) until the round's Execute.
    loop {
        match read_frame(&mut reader) {
            Ok(Some((Frame::Execute { .. }, _))) => break,
            Ok(Some(_)) => continue,
            // The coordinator gave up and closed first (e.g. its write
            // failed): nothing more to inject.
            Ok(None) | Err(_) => return,
        }
    }
    match fault {
        Fault::DieOnAccept => unreachable!("handled above"),
        Fault::DieMidRound => (), // drop both halves without answering
        Fault::TruncateAnswer => {
            // A syntactically valid frame start — magic, Answer type byte,
            // a 100-byte length prefix — followed by only 10 payload bytes.
            let mut partial = Vec::new();
            partial.extend_from_slice(&MAGIC);
            partial.push(4); // Frame::Answer's type byte
            partial.extend_from_slice(&100u32.to_le_bytes());
            partial.extend_from_slice(&[0u8; 10]);
            let _ = writer.write_all(&partial);
            let _ = writer.flush();
        }
        Fault::Silent => {
            // Hold the connection open and unanswered until the
            // coordinator hangs up; then exit so the join below returns.
            let mut sink = [0u8; 256];
            while matches!(reader.read(&mut sink), Ok(n) if n > 0) {}
        }
    }
}

/// A minimal single-join round: R(x, y) ⋈ S(y, z) over p = 2 logical
/// servers, everything broadcast, so every worker sees traffic before the
/// fault fires.
fn round_messages() -> Vec<Message> {
    let r = Relation::from_rows(
        Schema::from_strs("R", &["x", "y"]),
        vec![vec![1, 2], vec![3, 4]],
    );
    let s = Relation::from_rows(Schema::from_strs("S", &["y", "z"]), vec![vec![2, 20]]);
    let mut messages = Vec::new();
    for to in 0..2 {
        messages.push(Message::tuples(to, r.clone()));
        messages.push(Message::tuples(to, s.clone()));
    }
    messages
}

/// The real worker loop on `listener`, until it is shut down.
fn serve_healthy(listener: &TcpListener) {
    let obs = WorkerObs::new(
        &pq_obs::MetricsRegistry::new(),
        pq_obs::Logger::new("cluster-faults", pq_obs::LogLevel::Warn),
    );
    serve_worker(listener, &obs, WorkerLimits::default(), &pq_exec::global())
        .expect("worker serves");
}

fn round_program() -> RoundProgram {
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

/// Drive one round against a single faulty worker, with no retry, and
/// return the typed error, bounding the whole exchange by `deadline`.
fn run_against(fault: Fault, timeout: Duration, deadline: Duration) -> ClusterError {
    let (address, handle) = faulty_worker(fault);
    let config = ClusterConfig::new(vec![address])
        .with_read_timeout(timeout)
        .with_retry(RetryPolicy {
            retries: 0,
            ..RetryPolicy::default()
        });
    let started = Instant::now();
    // A failed attempt drops its connections, which hangs up on the
    // Silent peer and ends its read loop.
    let error = WorkerPool::new(config)
        .execute(2, 8, 0, &round_program(), &round_messages, None)
        .expect_err("a faulty worker must fail the round");
    assert!(
        started.elapsed() < deadline,
        "fault must surface within {deadline:?}, took {:?}",
        started.elapsed()
    );
    handle.join().expect("faulty worker thread exits");
    error
}

#[test]
fn a_worker_dying_before_the_round_is_a_typed_error() {
    let error = run_against(
        Fault::DieOnAccept,
        Duration::from_secs(5),
        Duration::from_secs(10),
    );
    // Depending on how fast the RST lands, the death shows up as a failed
    // write (Io), a closed read (Died) or a torn frame — never a hang, and
    // never an untyped panic.
    assert!(
        matches!(
            error,
            ClusterError::Io { .. } | ClusterError::Died { .. } | ClusterError::Frame { .. }
        ),
        "unexpected error for a dead-on-accept worker: {error}"
    );
}

#[test]
fn a_worker_dying_mid_round_is_reported_dead() {
    let error = run_against(
        Fault::DieMidRound,
        Duration::from_secs(5),
        Duration::from_secs(10),
    );
    assert!(
        matches!(
            error,
            ClusterError::Died { .. } | ClusterError::Io { .. } | ClusterError::Frame { .. }
        ),
        "unexpected error for a mid-round death: {error}"
    );
}

#[test]
fn a_truncated_answer_frame_is_a_frame_error() {
    let error = run_against(
        Fault::TruncateAnswer,
        Duration::from_secs(5),
        Duration::from_secs(10),
    );
    assert!(
        matches!(error, ClusterError::Frame { worker: 0, .. }),
        "a torn frame must be a Frame error, got: {error}"
    );
}

#[test]
fn a_silent_worker_times_out_within_the_configured_deadline() {
    let timeout = Duration::from_millis(500);
    let started = Instant::now();
    let error = run_against(Fault::Silent, timeout, Duration::from_secs(5));
    assert!(
        matches!(error, ClusterError::Timeout { worker: 0, .. }),
        "a silent worker must be a Timeout, got: {error}"
    );
    // The barrier gave up soon after the read timeout — it did not wait
    // for some unrelated, longer deadline.
    assert!(
        started.elapsed() >= timeout,
        "the timeout cannot fire early"
    );
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "a 500 ms read timeout must not take {:?}",
        started.elapsed()
    );
}

/// R(x, y) ⋈ S(y, z) as a textbook nested-loop join, sorted — independent
/// of every cluster code path, so it can act as the oracle for the
/// recovery and chaos tests below.
fn nested_loop_join(r: &[[u64; 2]], s: &[[u64; 2]]) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = r
        .iter()
        .flat_map(|&[x, y]| {
            s.iter()
                .filter(move |&&[sy, _]| sy == y)
                .map(move |&[_, z]| vec![x, y, z])
        })
        .collect();
    rows.sort();
    rows
}

/// The answer [`round_messages`]' round must produce.
fn oracle_join() -> Vec<Vec<u64>> {
    nested_loop_join(&[[1, 2], [3, 4]], &[[2, 20]])
}

fn sorted_rows(output: &Relation) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = output.iter().map(|t| t.to_vec()).collect();
    rows.sort();
    rows
}

/// A pool tuned for the fault tests: short read timeout so Silent faults
/// surface quickly, a few retries, millisecond backoff.
fn resilient_pool(addresses: Vec<String>, retries: u32) -> WorkerPool {
    WorkerPool::new(
        ClusterConfig::new(addresses)
            .with_read_timeout(Duration::from_millis(300))
            .with_retry(RetryPolicy {
                retries,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(20),
            }),
    )
}

/// Every injected fault, now with retries: with two healthy workers beside
/// the faulty one (majority floor 2 of 3), the run must *recover* — retry
/// on a rebuilt topology, route around the dead peer, and return the exact
/// answer — instead of surfacing the error the no-retry tests above
/// assert on.
#[test]
fn every_fault_is_recovered_by_a_pool_retry() {
    for fault in [
        Fault::DieOnAccept,
        Fault::DieMidRound,
        Fault::TruncateAnswer,
        Fault::Silent,
    ] {
        let workers = LocalWorkers::spawn(2).expect("spawn");
        let (faulty_address, handle) = faulty_worker(fault);
        let mut addresses = workers.addresses().to_vec();
        addresses.push(faulty_address);
        let pool = resilient_pool(addresses, 4);
        let (output, metrics) = pool
            .execute(2, 8, 0, &round_program(), &round_messages, None)
            .expect("the pool must recover from a single faulty worker");
        assert_eq!(sorted_rows(&output), oracle_join());
        assert_eq!(
            metrics.rounds[0].wire_bytes.len(),
            2,
            "the successful attempt routed around the faulty worker"
        );
        let stats = pool.stats();
        assert!(stats.retries >= 1, "recovery implies at least one retry: {stats:?}");
        assert_eq!(stats.runs_ok, 1);
        drop(pool);
        workers.shutdown();
        handle.join().expect("faulty worker thread exits");
    }
}

/// Losing one of three workers mid-round: the first attempt routed the
/// HyperCube shuffle for three workers; the retry must ask the router
/// again and ship a shipment folded for the two survivors — not replay the
/// three-worker one — and still produce the oracle's rows under the
/// simulator's model account.
#[test]
fn losing_a_worker_mid_round_refolds_the_shuffle_for_the_survivors() {
    let query = ConjunctiveQuery::new(
        "Q",
        vec![
            Atom::from_strs("R", &["x", "y"]),
            Atom::from_strs("S", &["y", "z"]),
        ],
    );
    let r: Vec<[u64; 2]> = (0..60).map(|i| [i, i % 12]).collect();
    let s: Vec<[u64; 2]> = (0..24).map(|j| [j % 12, 100 + j]).collect();
    let relation = |name: &str, attrs: &[&str], rows: &[[u64; 2]]| {
        Relation::from_rows(
            Schema::from_strs(name, attrs),
            rows.iter().map(|row| row.to_vec()).collect(),
        )
    };
    let bound = [
        relation("R", &["x", "y"], &r),
        relation("S", &["y", "z"], &s),
    ];
    let oracle = nested_loop_join(&r, &s);
    assert_eq!(oracle.len(), 120);

    let shares = [("x", 2usize), ("y", 3), ("z", 2)]
        .iter()
        .map(|&(v, share)| (v.to_string(), share))
        .collect();
    let router = HyperCubeRouter::new(&query, &shares, 7, 0, 0);
    let (p, bits_per_value) = (router.grid_size(), 8);

    let workers = LocalWorkers::spawn(2).expect("spawn");
    let (faulty_address, handle) = faulty_worker(Fault::DieMidRound);
    let mut addresses = workers.addresses().to_vec();
    addresses.push(faulty_address);
    let pool = resilient_pool(addresses, 4);
    let folded_for = std::sync::Mutex::new(Vec::new());
    let (output, metrics) = pool
        .execute_folded(
            bits_per_value,
            0,
            &[round_program()],
            &|workers| {
                folded_for.lock().expect("no panics").push(workers);
                router.route_folded(&bound, p, workers, bits_per_value)
            },
            None,
        )
        .expect("the pool must recover from losing one of three workers");
    assert_eq!(sorted_rows(&output[0]), oracle);
    let folded_for = folded_for.into_inner().expect("no panics");
    assert_eq!(folded_for.first(), Some(&3), "the first attempt runs on the full topology");
    assert_eq!(folded_for.last(), Some(&2), "the retry re-folds for the survivors");
    let round = &metrics.rounds[0];
    assert_eq!(round.wire_bytes.len(), 2);
    let mut simulator = pq_mpc::Cluster::new(p, bits_per_value);
    let simulated = simulator.communicate(router.route_bound(&bound));
    assert_eq!(round.received_bits, simulated.received_bits);
    assert_eq!(round.messages, simulated.messages);
    drop(pool);
    workers.shutdown();
    handle.join().expect("faulty worker thread exits");
}

/// A flapping cluster: every worker down long enough for consecutive
/// failed runs to open the breaker, which then fails fast without
/// touching a socket; once the cooldown elapses (on the injected test
/// clock) the half-open probe is admitted and — the workers having come
/// back on the same addresses — closes the breaker again.
#[test]
fn a_flapping_cluster_opens_the_breaker_then_recovers_through_half_open() {
    // Bind three listeners to learn their addresses, then drop them: the
    // cluster starts fully down, every dial refused.
    let addresses: Vec<String> = (0..3)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr").to_string()
        })
        .collect();
    let clock = Arc::new(TestClock::new());
    let config = ClusterConfig::new(addresses.clone())
        .with_read_timeout(Duration::from_millis(300))
        .with_retry(RetryPolicy {
            retries: 0,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(1),
        })
        .with_breaker(2, Duration::from_secs(5));
    let pool = WorkerPool::with_clock(config, clock.clone());
    let run = || pool.execute(2, 8, 0, &round_program(), &round_messages, None);
    assert!(run().is_err());
    assert!(run().is_err());
    assert_eq!(pool.breaker_state(), BreakerState::Open);
    // Open: fail fast, no dial attempted.
    let reconnects_before = pool.stats().reconnects;
    let err = run().unwrap_err();
    assert!(matches!(err, ClusterError::BreakerOpen { .. }), "{err}");
    assert_eq!(pool.stats().reconnects, reconnects_before);
    // The workers come back on the same ports while the breaker cools off.
    let handles: Vec<JoinHandle<()>> = addresses
        .iter()
        .map(|address| {
            let listener = TcpListener::bind(address.as_str()).expect("rebind");
            std::thread::spawn(move || {
                serve_healthy(&listener);
            })
        })
        .collect();
    clock.sleep(Duration::from_secs(5));
    let (output, _) = run().expect("the half-open probe reaches the revived workers");
    assert_eq!(sorted_rows(&output), oracle_join());
    assert_eq!(
        pool.breaker_state(),
        BreakerState::Closed,
        "a successful half-open probe closes the breaker"
    );
    shutdown_workers(pool.config());
    for handle in handles {
        handle.join().expect("worker thread exits");
    }
}

// Chaos: a random fault schedule over three workers — each either healthy
// or exhibiting one of the four injected faults. Whenever the pool reports
// success, its answer must equal the oracle join; with a healthy majority
// it must not fail at all, and with a faulty majority it must fail
// (typed, within the deadline) rather than hang or fabricate rows.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn chaos_schedules_agree_with_the_oracle_whenever_they_succeed(
        schedule in proptest::collection::vec(0usize..6, 3..4),
    ) {
        // 0–3 pick a fault; 4–5 mean healthy, biasing ~1 fault per run.
        let faults = [
            Fault::DieOnAccept,
            Fault::DieMidRound,
            Fault::TruncateAnswer,
            Fault::Silent,
        ];
        let mut addresses = Vec::new();
        let mut fault_handles = Vec::new();
        let mut healthy_handles = Vec::new();
        let mut healthy = 0usize;
        for &choice in &schedule {
            if let Some(&fault) = faults.get(choice) {
                let (address, handle) = faulty_worker(fault);
                addresses.push(address);
                fault_handles.push(handle);
            } else {
                healthy += 1;
                let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
                addresses.push(listener.local_addr().expect("addr").to_string());
                healthy_handles.push(std::thread::spawn(move || {
                    serve_healthy(&listener);
                }));
            }
        }
        let config = pool_addresses_config(&addresses);
        let pool = WorkerPool::new(config);
        let result = pool.execute(2, 8, 0, &round_program(), &round_messages, None);
        let majority = addresses.len() / 2 + 1;
        match result {
            Ok((output, _)) => {
                prop_assert_eq!(sorted_rows(&output), oracle_join());
                prop_assert!(
                    healthy >= majority,
                    "a run without a healthy majority must not succeed"
                );
            }
            Err(error) => {
                prop_assert!(
                    healthy < majority,
                    "a healthy majority must recover, got: {error}"
                );
            }
        }
        shutdown_workers(pool.config());
        drop(pool);
        for handle in healthy_handles {
            handle.join().expect("healthy worker exits");
        }
        for handle in fault_handles {
            handle.join().expect("faulty worker exits");
        }
    }
}

/// The chaos pool's config: same tuning as [`resilient_pool`], factored
/// so the proptest body stays readable.
fn pool_addresses_config(addresses: &[String]) -> ClusterConfig {
    ClusterConfig::new(addresses.to_vec())
        .with_read_timeout(Duration::from_millis(300))
        .with_retry(RetryPolicy {
            retries: 4,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(20),
        })
}

/// A healthy round straight after a faulty one on a fresh pool: fault
/// handling must not poison process-global state.
#[test]
fn a_fresh_coordinator_recovers_after_a_fault() {
    let _ = run_against(
        Fault::DieMidRound,
        Duration::from_secs(5),
        Duration::from_secs(10),
    );
    let workers = pq_mpc::net::LocalWorkers::spawn(1).expect("spawn");
    let pool = WorkerPool::new(ClusterConfig::new(workers.addresses().to_vec()));
    let (output, _) = pool
        .execute(2, 8, 0, &round_program(), &round_messages, None)
        .expect("healthy round");
    assert_eq!(sorted_rows(&output), vec![vec![1, 2, 20]]);
    drop(pool);
    workers.shutdown();
}

/// A worker that serves one run and dies as the next one opens: a relay in
/// front of the real worker at `upstream` that forwards the coordinator's
/// frames and the worker's answers verbatim until the second `Hello` on
/// its one connection — the opening of round 2 of a multi-round plan, each
/// round being its own pool run — then drops both sockets. It stops
/// listening once connected, so every redial is refused.
fn worker_dying_between_rounds(upstream: &str) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let address = listener.local_addr().expect("addr").to_string();
    let upstream = TcpStream::connect(upstream).expect("dial the real worker");
    let handle = std::thread::spawn(move || {
        let (downstream, _) = listener.accept().expect("accept");
        drop(listener);
        let (mut answers, mut back) = (
            upstream.try_clone().expect("clone"),
            downstream.try_clone().expect("clone"),
        );
        let relay_answers = std::thread::spawn(move || {
            let _ = std::io::copy(&mut answers, &mut back);
        });
        let mut reader = BufReader::new(downstream.try_clone().expect("clone"));
        let mut writer = BufWriter::new(upstream.try_clone().expect("clone"));
        let mut hellos = 0;
        while let Ok(Some((frame, _))) = read_frame(&mut reader) {
            hellos += usize::from(matches!(frame, Frame::Hello { .. }));
            let forwarded = hellos < 2 && write_frame(&mut writer, &frame).is_ok();
            if !forwarded || writer.flush().is_err() {
                break;
            }
        }
        let _ = downstream.shutdown(Shutdown::Both);
        let _ = upstream.shutdown(Shutdown::Both);
        relay_answers.join().expect("relay thread exits");
    });
    (address, handle)
}

/// `L_3` at p = 64 on three workers, the last `dying` of them behind
/// [`worker_dying_between_rounds`] relays: the simulator's run and the
/// cluster's (or its fallback's), after checking the plan is the 2-round
/// bushy one.
fn chain_across_a_death(
    dying: usize,
    fallback: FallbackPolicy,
) -> (EngineRun, EngineRun, Relation) {
    let query = ConjunctiveQuery::chain(3);
    let db = matching_database_for_query(&query, 1_200, 47);
    let workers = LocalWorkers::spawn(3).expect("spawn");
    let mut addresses = workers.addresses().to_vec();
    let mut relays = Vec::new();
    for address in addresses.iter_mut().skip(3 - dying) {
        let (relay, handle) = worker_dying_between_rounds(address);
        *address = relay;
        relays.push(handle);
    }
    let config = pool_addresses_config(&addresses);
    let text = query.to_string();
    let sim = Engine::new(db.clone(), 64).session().run(&text).expect("simulator run");
    assert_eq!(sim.plan.strategy.name(), "multi-round bushy plan");
    let backend = ExecBackend::cluster_with_fallback(config, fallback);
    let run = Engine::new(db.clone(), 64)
        .with_backend(backend)
        .session()
        .run(&text)
        .expect("the run is served");
    workers.shutdown();
    for handle in relays {
        handle.join().expect("relay exits");
    }
    (sim, run, oracle(&query, &db).canonicalized())
}

/// One of three workers dies between the rounds of a 2-round plan: the
/// pool retries round 2 alone, re-folded for the two survivors, and the
/// run stays exact and undegraded, with the simulator's model account.
#[test]
fn a_worker_dying_between_rounds_is_routed_around_in_the_next_round() {
    let (sim, run, expected) = chain_across_a_death(1, FallbackPolicy::Error);
    assert_eq!(run.outcome.output.canonicalized(), expected);
    let metrics = &run.outcome.metrics;
    assert!(!metrics.degraded);
    assert_eq!(metrics.num_rounds(), 2);
    assert_eq!(metrics.rounds[0].wire_bytes.len(), 3, "round 1 ran on all three");
    assert_eq!(metrics.rounds[1].wire_bytes.len(), 2, "round 2 ran on the survivors");
    for (round, simulated) in metrics.rounds.iter().zip(&sim.outcome.metrics.rounds) {
        assert_eq!(round.received_bits, simulated.received_bits);
        assert_eq!(round.messages, simulated.messages);
    }
}

/// Two of three die between the rounds: round 2 cannot reach a live
/// majority, so the simulator fallback answers the whole plan — exactly,
/// with the simulator's account, marked degraded.
#[test]
fn losing_the_majority_between_rounds_falls_back_to_the_simulator() {
    let (sim, run, expected) = chain_across_a_death(2, FallbackPolicy::Simulator);
    assert_eq!(run.outcome.output.canonicalized(), expected);
    let metrics = &run.outcome.metrics;
    assert!(metrics.degraded);
    assert!(!metrics.is_measured(), "the fallback has no wire");
    assert_eq!(metrics.rounds, sim.outcome.metrics.rounds);
}

/// A variable name too long for the frame's u16 string prefix cannot be
/// encoded: the run fails with a typed error before the frame is written,
/// and the pool stays usable. Three such runs in a row — the breaker's
/// default threshold — do not open the breaker either: the next query on
/// the same engine is exact.
#[test]
fn an_unencodable_query_is_an_error_and_the_next_query_still_runs() {
    let query = ConjunctiveQuery::triangle();
    let db = matching_database_for_query(&query, 300, 61);
    let workers = LocalWorkers::spawn(2).expect("spawn");
    let session = Engine::new(db.clone(), 8)
        .with_backend(ExecBackend::cluster(ClusterConfig::new(workers.addresses().to_vec())))
        .session();
    let long = "v".repeat(usize::from(u16::MAX) + 1);
    let rename = |v: &str| if v == "x1" { long.clone() } else { v.to_string() };
    let atoms = query.atoms().iter().map(|a| a.map_variables(rename)).collect();
    let text = ConjunctiveQuery::new(query.name(), atoms).to_string();
    for _ in 0..3 {
        let err = session.run(&text).expect_err("the long name cannot be encoded");
        assert!(
            matches!(err, EngineError::Cluster(ClusterError::Unencodable { .. })),
            "{err}"
        );
    }
    let run = session.run(&query.to_string()).expect("the next query runs");
    assert_eq!(run.outcome.output.canonicalized(), oracle(&query, &db).canonicalized());
    assert!(run.outcome.metrics.is_measured());
    workers.shutdown();
}
