//! Per-client sessions: where queries are planned and run.
//!
//! A [`Session`] carries exactly the state that is private to one client —
//! its server budget `p`, its router hash seed — plus a handle to the
//! shared [`crate::Engine`]. Every query entry point takes `&self`:
//! sessions never serialise each other, so N threads each holding a
//! session answer queries concurrently against one snapshot while sharing
//! one plan cache. Changing a session's `p` or seed affects that session
//! only (plans are cached per `p`, so two sessions with different budgets
//! coexist without stepping on each other's cache entries).

use crate::backend::ExecBackend;
use crate::engine::{Engine, EngineError, EngineRun};
use crate::executor::run_plan_on;
use crate::obs::EngineObs;
use crate::parser::parse_query;
use crate::planner::Plan;
use crate::prepared::PreparedQuery;
use crate::snapshot::Snapshot;
use pq_obs::{Phase, QueryTrace};
use std::sync::Arc;
use std::time::Duration;

/// A per-client query session over a shared [`Engine`].
///
/// Obtained from [`Engine::session`]; cheap to create (an `Arc` clone and
/// two integers) and intended to be dropped when the client disconnects.
#[derive(Debug, Clone)]
pub struct Session {
    engine: Engine,
    p: usize,
    seed: u64,
    backend: ExecBackend,
}

impl Session {
    pub(crate) fn new(engine: Engine, p: usize, seed: u64, backend: ExecBackend) -> Self {
        Session {
            engine,
            p,
            seed,
            backend,
        }
    }

    /// The engine this session runs against.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// This session's server budget `p`.
    pub fn servers(&self) -> usize {
        self.p
    }

    /// Change this session's server budget. Other sessions are unaffected;
    /// plans for other budgets stay cached under their own `(…, p)` keys
    /// (see [`crate::CacheStats::per_p`] for the cache's split).
    pub fn set_servers(&mut self, p: usize) {
        self.p = p;
    }

    /// This session's router hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Change this session's router hash seed (any value is correct; the
    /// seed only permutes how tuples are routed to servers).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// This session's execution backend.
    pub fn backend(&self) -> &ExecBackend {
        &self.backend
    }

    /// Change this session's execution backend (simulator or worker
    /// cluster). Other sessions are unaffected; plans are backend-agnostic,
    /// so the cache keeps hitting across a switch.
    pub fn set_backend(&mut self, backend: ExecBackend) {
        self.backend = backend;
    }

    /// Parse and plan a query against the current snapshot, consulting the
    /// shared plan cache. Returns the plan and whether it was a cache hit.
    pub fn plan(&self, text: &str) -> Result<(Plan, bool), EngineError> {
        let parsed = parse_query(text)?;
        let snapshot = self.engine.snapshot();
        self.engine.plan_parsed(&snapshot, &parsed, self.p)
    }

    /// Parse and plan a query, returning the human-readable explanation —
    /// what `pqsh explain` prints.
    pub fn explain(&self, text: &str) -> Result<String, EngineError> {
        let (plan, cache_hit) = self.plan(text)?;
        let stats = self.engine.cache_stats();
        Ok(format!(
            "{}  {:<18} {} ({} hit(s), {} miss(es), {} cached)\n",
            plan.explain(),
            "plan cache",
            if cache_hit { "HIT" } else { "MISS" },
            stats.hits,
            stats.misses,
            stats.len
        ))
    }

    /// Parse, plan (cached) and execute a query against the snapshot that
    /// is current when the call starts. A writer installing a new snapshot
    /// mid-run does not disturb this execution: the session holds the old
    /// snapshot's `Arc` until the answer is computed.
    ///
    /// The run is recorded into the engine's cumulative metrics
    /// ([`Engine::metrics`]); use [`Session::run_traced`] to also get the
    /// per-query lifecycle trace back.
    pub fn run(&self, text: &str) -> Result<EngineRun, EngineError> {
        self.run_traced(text).map(|(run, _)| run)
    }

    /// [`Session::run`] returning the query's lifecycle [`QueryTrace`]
    /// next to the result: per-phase timings (parse → cache lookup →
    /// plan → execute, plus one span per cluster round) and the outcome
    /// labels (strategy, backend, cache hit, rows, measured wire bytes).
    /// This is what `pqsh ANALYZE` prints and what `pqd` feeds its
    /// slow-query log from. The trace is recorded into the engine's
    /// metrics whether the query succeeds or fails.
    pub fn run_traced(&self, text: &str) -> Result<(EngineRun, QueryTrace), EngineError> {
        execute_and_trace(&self.engine, &self.backend, self.seed, |trace| {
            let parsed = trace.time(Phase::Parse, || parse_query(text))?;
            let snapshot = self.engine.snapshot();
            let (plan, cache_hit) =
                self.engine
                    .plan_parsed_traced(&snapshot, &parsed, self.p, Some(trace))?;
            Ok((snapshot, plan, cache_hit))
        })
    }

    /// Parse and plan once, returning a reusable [`PreparedQuery`] bound to
    /// this session's budget and seed. The handle re-plans automatically
    /// (at most once per snapshot change) when [`Engine::update`] installs
    /// new data.
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery, EngineError> {
        PreparedQuery::new(self, text)
    }
}

/// The tail every run shares, whoever planned it: `plan` yields the
/// snapshot to run against, the plan and whether it was a cache hit; the
/// plan then executes on the engine's pool and `backend`, and the trace —
/// stamped with the outcome and one span per measured round — is recorded
/// into the engine's metrics whether the query succeeds or fails.
pub(crate) fn execute_and_trace(
    engine: &Engine,
    backend: &ExecBackend,
    seed: u64,
    plan: impl FnOnce(&mut QueryTrace) -> Result<(Arc<Snapshot>, Plan, bool), EngineError>,
) -> Result<(EngineRun, QueryTrace), EngineError> {
    let mut trace = QueryTrace::start();
    trace.backend = Some(backend.describe());
    let result = plan(&mut trace).and_then(|(snapshot, plan, cache_hit)| {
        let registry = engine.metrics();
        let observe_cluster = registry.is_enabled().then_some(&registry);
        let pool = engine.pool();
        trace.parallelism = Some(pool.threads() as u64);
        let outcome = trace.time(Phase::Execute, || {
            pool.install(|| run_plan_on(&plan, &snapshot, seed, backend, observe_cluster))
        })?;
        Ok(EngineRun {
            plan,
            cache_hit,
            outcome,
        })
    });
    if let Ok(run) = &result {
        EngineObs::stamp_run(&mut trace, run);
        // The cluster measures per-round wall time; the simulator's rounds
        // are part of the execute span and carry no separate wall clock.
        if run.outcome.metrics.is_measured() {
            for (i, round) in run.outcome.metrics.rounds.iter().enumerate() {
                trace.record(
                    Phase::Round(i as u32),
                    Duration::from_micros(round.wall_micros),
                );
            }
        }
    }
    trace.finish();
    engine.obs().record_trace(&trace, result.is_ok());
    result.map(|run| (run, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::{Database, Relation, Schema};

    fn engine() -> Engine {
        let mut db = Database::new(1 << 10);
        db.insert(Relation::from_rows(
            Schema::from_strs("R", &["a", "b"]),
            (0..40).map(|i| vec![i, i + 1]).collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::from_strs("S", &["a", "b"]),
            (0..40).map(|i| vec![i + 1, i + 2]).collect(),
        ));
        Engine::new(db, 8)
    }

    #[test]
    fn sessions_have_independent_budgets_and_seeds() {
        let e = engine();
        let mut a = e.session();
        let b = e.session();
        a.set_servers(4);
        a.set_seed(99);
        assert_eq!(a.servers(), 4);
        assert_eq!(a.seed(), 99);
        assert_eq!(b.servers(), 8, "other sessions keep the default");
        let text = "Q(x, y, z) :- R(x, y), S(y, z)";
        let run_a = a.run(text).unwrap();
        let run_b = b.run(text).unwrap();
        assert_eq!(run_a.plan.p, 4);
        assert_eq!(run_b.plan.p, 8);
        assert_eq!(
            run_a.outcome.output.canonicalized(),
            run_b.outcome.output.canonicalized(),
            "p and seed change the routing, never the answer"
        );
        // Same signature under two budgets occupies two cache slots.
        let per_p = e.cache_stats().per_p;
        assert_eq!(per_p.get(&4), Some(&1));
        assert_eq!(per_p.get(&8), Some(&1));
    }

    #[test]
    fn run_takes_shared_ref_and_runs_from_multiple_threads() {
        let e = engine();
        let text = "Q(x, y, z) :- R(x, y), S(y, z)";
        let expected = e.session().run(text).unwrap().outcome.output.canonicalized();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let session = e.session();
                let expected = &expected;
                scope.spawn(move || {
                    let run = session.run(text).unwrap();
                    assert!(run.cache_hit);
                    assert_eq!(run.outcome.output.canonicalized(), *expected);
                });
            }
        });
        assert_eq!(e.cache_stats().hits, 4);
    }
}
