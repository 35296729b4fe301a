//! Prepared queries: parse once, plan once, run many times.
//!
//! A [`PreparedQuery`] is the serving-path optimisation of the classic
//! prepare/execute split: the query text is parsed exactly once, the plan
//! is memoized inside the handle, and every [`PreparedQuery::run`] skips
//! the parser *and* the shared cache lock as long as the engine's snapshot
//! is unchanged. When a writer installs new data via `Engine::update`, the
//! next `run` notices the fingerprint mismatch and re-plans — through the
//! shared plan cache, so sibling prepared queries (or sessions) with the
//! same rename-invariant signature pay for the new plan only once between
//! them. The handle is `Sync`: one prepared query can be hammered from
//! many threads at once.

use crate::backend::ExecBackend;
use crate::engine::{lock_unpoisoned, Engine, EngineError, EngineRun};
use crate::parser::{parse_query, ParsedQuery};
use crate::planner::Plan;
use crate::session::{execute_and_trace, Session};
use pq_obs::Phase;
use std::sync::Mutex;
use std::time::Instant;

/// A parse-once / plan-once query handle, bound to the session's server
/// budget and seed at [`Session::prepare`] time.
#[derive(Debug)]
pub struct PreparedQuery {
    engine: Engine,
    parsed: ParsedQuery,
    p: usize,
    seed: u64,
    backend: ExecBackend,
    /// The memoized plan; its embedded statistics fingerprint says which
    /// snapshot it was planned against.
    plan: Mutex<Plan>,
}

impl PreparedQuery {
    pub(crate) fn new(session: &Session, text: &str) -> Result<Self, EngineError> {
        let parsed = parse_query(text)?;
        let engine = session.engine().clone();
        let snapshot = engine.snapshot();
        let (plan, _) = engine.plan_parsed(&snapshot, &parsed, session.servers())?;
        Ok(PreparedQuery {
            engine,
            parsed,
            p: session.servers(),
            seed: session.seed(),
            backend: session.backend().clone(),
            plan: Mutex::new(plan),
        })
    }

    /// The parsed query this handle will run.
    pub fn parsed(&self) -> &ParsedQuery {
        &self.parsed
    }

    /// The rename-invariant signature — the plan-cache key this handle
    /// shares with every alpha-equivalent query.
    pub fn signature(&self) -> String {
        self.parsed.signature()
    }

    /// The server budget the handle was prepared with.
    pub fn servers(&self) -> usize {
        self.p
    }

    /// The currently memoized plan (a clone; re-planning may replace it on
    /// the next [`PreparedQuery::run`] after a snapshot change).
    pub fn plan(&self) -> Plan {
        lock_unpoisoned(&self.plan).clone()
    }

    /// Execute against the current snapshot. Reuses the memoized plan when
    /// the snapshot is unchanged (`cache_hit` is then true); otherwise
    /// re-plans through the shared plan cache and memoizes the result. The
    /// handle keeps working across any number of `Engine::update` calls.
    ///
    /// Like [`Session::run`], the run lands in the engine's cumulative
    /// metrics; the memo check is recorded as the cache-lookup phase
    /// (steady-state runs never touch the shared cache, so its counters
    /// only move on re-plans).
    pub fn run(&self) -> Result<EngineRun, EngineError> {
        execute_and_trace(&self.engine, &self.backend, self.seed, |trace| {
            let snapshot = self.engine.snapshot();
            let lookup_start = Instant::now();
            let memoized = {
                let memo = lock_unpoisoned(&self.plan);
                (memo.fingerprint == snapshot.fingerprint()).then(|| memo.clone())
            };
            trace.record(Phase::CacheLookup, lookup_start.elapsed());
            let (plan, cache_hit) = match memoized {
                Some(plan) => (plan, true),
                None => {
                    let (fresh, hit) = self.engine.plan_parsed_traced(
                        &snapshot,
                        &self.parsed,
                        self.p,
                        Some(trace),
                    )?;
                    *lock_unpoisoned(&self.plan) = fresh.clone();
                    (fresh, hit)
                }
            };
            Ok((snapshot, plan, cache_hit))
        })
        .map(|(run, _)| run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::{Database, Relation, Schema, Tuple};

    fn engine() -> Engine {
        let mut db = Database::new(1 << 10);
        db.insert(Relation::from_rows(
            Schema::from_strs("R", &["a", "b"]),
            (0..30).map(|i| vec![i, i + 1]).collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::from_strs("S", &["a", "b"]),
            (0..30).map(|i| vec![i + 1, i + 2]).collect(),
        ));
        Engine::new(db, 8)
    }

    #[test]
    fn prepared_query_reuses_its_plan_without_touching_the_cache() {
        let e = engine();
        let prepared = e.session().prepare("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let misses_after_prepare = e.cache_stats().misses;
        let hits_after_prepare = e.cache_stats().hits;
        for _ in 0..5 {
            let run = prepared.run().unwrap();
            assert!(run.cache_hit);
            assert_eq!(run.outcome.output.len(), 30);
        }
        let stats = e.cache_stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (hits_after_prepare, misses_after_prepare),
            "steady-state prepared runs bypass the shared cache entirely"
        );
    }

    #[test]
    fn prepared_query_survives_a_snapshot_swap_by_replanning() {
        let e = engine();
        let prepared = e.session().prepare("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        assert_eq!(prepared.run().unwrap().outcome.output.len(), 30);
        let old_fingerprint = prepared.plan().fingerprint;
        e.update(|db| {
            db.relation_mut("R").unwrap().push(Tuple::from([100, 200]));
            db.relation_mut("S").unwrap().push(Tuple::from([200, 300]));
        });
        let run = prepared.run().unwrap();
        assert_eq!(run.outcome.output.len(), 31, "answers reflect the new data");
        assert_ne!(prepared.plan().fingerprint, old_fingerprint, "re-planned");
        // And the re-plan is memoized again: the next run is a local hit.
        assert!(prepared.run().unwrap().cache_hit);
    }

    #[test]
    fn prepared_query_over_untouched_relations_rides_the_rekeyed_cache() {
        let mut db = Database::new(1 << 10);
        for (name, offset) in [("R", 0u64), ("S", 1), ("T", 2)] {
            db.insert(Relation::from_rows(
                Schema::from_strs(name, &["a", "b"]),
                (0..30).map(|i| vec![i + offset, i + offset + 1]).collect(),
            ));
        }
        let e = Engine::new(db, 8);
        let prepared = e.session().prepare("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        prepared.run().unwrap();
        // A delta into T changes the snapshot fingerprint, so the memoized
        // plan is refreshed — but through the re-keyed cache entry, not a
        // re-plan: the plan reads only R and S.
        let misses_before = e.cache_stats().misses;
        e.apply(crate::Delta::insert("T", vec![vec![700, 701]]))
            .unwrap();
        let run = prepared.run().unwrap();
        assert!(run.cache_hit, "refresh came from the re-keyed shared cache");
        assert_eq!(e.cache_stats().misses, misses_before, "no fresh planning");
        assert_eq!(run.plan.fingerprint, e.snapshot().fingerprint());
        // And it is memoized again for steady-state runs.
        assert!(prepared.run().unwrap().cache_hit);
    }

    #[test]
    fn prepared_queries_with_equal_signatures_share_replanning_work() {
        let e = engine();
        let s = e.session();
        let a = s.prepare("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let b = s.prepare("P(u, v, w) :- R(u, v), S(v, w)").unwrap();
        assert_eq!(a.signature(), b.signature());
        e.update(|db| {
            db.relation_mut("R").unwrap().push(Tuple::from([500, 501]));
        });
        let misses_before = e.cache_stats().misses;
        assert!(!a.run().unwrap().cache_hit, "first re-plan is fresh work");
        assert!(b.run().unwrap().cache_hit, "second rides the shared cache");
        assert_eq!(e.cache_stats().misses, misses_before + 1);
    }
}
