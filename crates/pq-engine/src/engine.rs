//! The engine: a cheap, cloneable handle over shared, concurrently-served
//! state.
//!
//! An [`Engine`] owns nothing mutable itself — it is an `Arc` around:
//!
//! * the current [`Snapshot`] (immutable database + statistics catalogue,
//!   analysed once), behind an `RwLock` that is held only for the instant
//!   of reading or swapping the `Arc`;
//! * one shared [`PlanCache`] behind a `Mutex`, so every session benefits
//!   from every other session's planning work;
//! * the default server budget and hash seed handed to new [`Session`]s.
//!
//! Cloning an `Engine` clones the handle, not the data. All query entry
//! points live on [`Session`] (and [`crate::PreparedQuery`]) and take
//! `&self`, so arbitrarily many sessions run concurrently on real threads
//! against one engine. Mutation is copy-on-write and per relation: the
//! typed [`Engine::apply`] folds an insert-only [`Delta`] into the next
//! snapshot in O(delta) (touched relations' buffers and statistics rebuilt,
//! everything else shared), while the closure-based [`Engine::update`]
//! remains the recompute fallback for arbitrary edits. Either way the new
//! snapshot is atomically installed — sessions mid-query keep the `Arc` to
//! the old snapshot and finish on it — and the plan cache is maintained
//! per touched relation: plans reading mutated relations are evicted,
//! every other plan is re-keyed to the new statistics fingerprint and
//! keeps hitting.

use crate::backend::ExecBackend;
use crate::cache::{CacheStats, PlanCache, PlanKey};
use crate::delta::{Delta, DeltaError};
use crate::executor::RunOutcome;
use crate::obs::EngineObs;
use pq_mpc::net::ClusterError;
use crate::parser::{ParseError, ParsedQuery};
use crate::planner::{plan_query_on, Plan, PlanError, Strategy};
use crate::session::Session;
use crate::snapshot::Snapshot;
use pq_obs::{MetricsRegistry, Phase, QueryTrace};
use pq_relation::{Database, DatabaseStatistics, Relation, ValueDictionary};
use pq_wal::{Lsn, RelationInserts, Wal, WalRecord};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

/// Anything that can go wrong between query text and answer.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The query text did not parse (or failed validation).
    Parse(ParseError),
    /// The query parsed but cannot be planned over the loaded data.
    Plan(PlanError),
    /// The plan was sound but the worker cluster failed to execute it
    /// (only possible on [`ExecBackend::Cluster`]).
    Cluster(ClusterError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Plan(e) => write!(f, "{e}"),
            EngineError::Cluster(e) => write!(f, "cluster execution failed: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Plan(e)
    }
}

impl From<ClusterError> for EngineError {
    fn from(e: ClusterError) -> Self {
        EngineError::Cluster(e)
    }
}

/// A fully executed query: the plan that was used (and whether it came from
/// a cache) plus the executor's outcome.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// The plan the executor ran.
    pub plan: Plan,
    /// True when the plan was reused (shared LRU cache, or a
    /// [`crate::PreparedQuery`]'s memoized plan) instead of freshly planned.
    pub cache_hit: bool,
    /// Output relation, metrics and wall-clock time.
    pub outcome: RunOutcome,
}

/// Lock a mutex, ignoring poisoning: the protected values (plan cache,
/// snapshot pointer) are valid after any partial operation, and a reader
/// must never be taken down by an unrelated thread's panic.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The engine's attachment to a write-ahead log (present only on durable
/// engines, see [`Engine::with_wal`] and [`crate::durability`]).
///
/// The interior mutexes exist only for interior mutability: every access
/// happens under the engine's `update_lock`, so they are never contended.
#[derive(Debug)]
struct WalAttachment {
    wal: Arc<Wal>,
    /// The dictionary the CLI front-ends encode tokens through; its growth
    /// is logged as `DictExtend` records so recovered answers decode
    /// exactly as before the crash.
    dictionary: Arc<RwLock<ValueDictionary>>,
    /// Auto-checkpoint after this many logged deltas (0 = never).
    checkpoint_every: u64,
    /// Prefix of `dictionary` already durable (in the log or a checkpoint).
    tokens_logged: Mutex<usize>,
    /// Deltas logged since the last checkpoint.
    deltas_since_checkpoint: Mutex<u64>,
}

/// The shared state behind every clone of one [`Engine`].
#[derive(Debug)]
struct SharedState {
    snapshot: RwLock<Arc<Snapshot>>,
    cache: Mutex<PlanCache>,
    /// Serialises copy-on-write updates so concurrent writers cannot lose
    /// each other's mutations (readers are never blocked by this).
    update_lock: Mutex<()>,
    default_p: usize,
    default_seed: u64,
    default_backend: ExecBackend,
    /// The engine's metrics registry and pre-resolved hot-path handles.
    obs: EngineObs,
    /// The write-ahead log, when this engine is durable.
    wal: Option<WalAttachment>,
    /// The persistent executor pool every session installs around plan
    /// execution: per-server fan-out and morsel-parallel join kernels run
    /// on it, so no thread is ever spawned on the query hot path.
    pool: Arc<pq_exec::TaskPool>,
}

/// A cheap, cloneable, thread-safe handle to one loaded database and one
/// shared plan cache.
///
/// ```
/// use pq_engine::Engine;
/// use pq_relation::{Database, Relation, Schema};
///
/// let mut db = Database::new(64);
/// db.insert(Relation::from_rows(
///     Schema::from_strs("R", &["a", "b"]),
///     vec![vec![1, 2], vec![2, 3]],
/// ));
/// db.insert(Relation::from_rows(
///     Schema::from_strs("S", &["a", "b"]),
///     vec![vec![2, 10], vec![3, 30]],
/// ));
/// let engine = Engine::new(db, 4);
/// let session = engine.session(); // per-client; `run` takes `&self`
/// let run = session.run("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
/// assert_eq!(run.outcome.output.len(), 2);
/// assert!(!run.cache_hit);
/// // A different session shares the plan cache: same shape, instant HIT.
/// let other = engine.session();
/// assert!(other.run("Q(x, y, z) :- R(x, y), S(y, z)").unwrap().cache_hit);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    shared: Arc<SharedState>,
}

impl Engine {
    /// An engine over `database`, analysed once into a [`Snapshot`]. New
    /// sessions default to `p` servers and the default hash seed.
    pub fn new(database: Database, p: usize) -> Self {
        Engine {
            shared: Arc::new(SharedState {
                snapshot: RwLock::new(Arc::new(Snapshot::new(database))),
                cache: Mutex::new(PlanCache::default()),
                update_lock: Mutex::new(()),
                default_p: p,
                default_seed: 7,
                default_backend: ExecBackend::Simulator,
                obs: EngineObs::new(),
                wal: None,
                pool: pq_exec::global(),
            }),
        }
    }

    /// Size the engine's executor pool: a dedicated [`pq_exec::TaskPool`]
    /// of total parallelism `threads` (worker threads plus the helping
    /// caller; `1` spawns no threads and runs queries fully inline). The
    /// pool's `pq_exec_*` counters are mirrored into this engine's metrics
    /// registry. Without this call the engine shares the process-wide
    /// [`pq_exec::global`] pool (sized by `PQ_THREADS`, default
    /// `available_parallelism`), whose counters stay internal.
    /// Builder-style: call before the handle is cloned.
    ///
    /// # Panics
    /// Panics when the engine handle has already been cloned or has live
    /// sessions.
    pub fn with_threads(self, threads: usize) -> Self {
        let pool = pq_exec::TaskPool::new(threads);
        let mut shared = self.shared;
        let state = Arc::get_mut(&mut shared).expect("configure the engine before sharing it");
        pool.attach_registry(state.obs.registry());
        state.pool = pool;
        Engine { shared }
    }

    /// The executor pool this engine's sessions run plans on.
    pub fn pool(&self) -> &Arc<pq_exec::TaskPool> {
        &self.shared.pool
    }

    /// The engine's cumulative [`MetricsRegistry`]: query counts, latency
    /// histograms, plan-cache and mutation counters, measured wire bytes.
    /// Share the `Arc` with whatever exposes or merges them (`pqd METRICS`
    /// renders exactly this registry through
    /// [`pq_obs::prometheus_text`]/[`pq_obs::json_text`]).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        self.shared.obs.registry().clone()
    }

    /// Turn instrumentation recording on (the default) or off. Unlike the
    /// other builders this may be called at any time — the flag is one
    /// relaxed atomic — but is builder-shaped for construction-site use;
    /// the `engine_obs` benchmark compares the two settings.
    #[must_use]
    pub fn with_metrics_enabled(self, enabled: bool) -> Self {
        self.shared.obs.registry().set_enabled(enabled);
        self
    }

    /// Select the default hash seed handed to new sessions (any value is
    /// correct). Builder-style: call before the handle is cloned.
    ///
    /// # Panics
    /// Panics when the engine handle has already been cloned or has live
    /// sessions — defaults are fixed once the engine is shared.
    pub fn with_seed(self, seed: u64) -> Self {
        let mut shared = self.shared;
        Arc::get_mut(&mut shared)
            .expect("configure the engine before sharing it")
            .default_seed = seed;
        Engine { shared }
    }

    /// Select the default [`ExecBackend`] handed to new sessions.
    /// Builder-style: call before the handle is cloned.
    ///
    /// # Panics
    /// Panics when the engine handle has already been cloned or has live
    /// sessions.
    pub fn with_backend(self, backend: ExecBackend) -> Self {
        let mut shared = self.shared;
        Arc::get_mut(&mut shared)
            .expect("configure the engine before sharing it")
            .default_backend = backend;
        Engine { shared }
    }

    /// Attach an opened write-ahead log: from here on every
    /// [`Engine::apply`] appends its delta (and any growth of `dictionary`)
    /// to `wal` **before** installing the new snapshot, and a checkpoint is
    /// written automatically every `checkpoint_every` logged deltas
    /// (0 disables auto-checkpointing). The caller is responsible for the
    /// log/state handshake — an engine built from recovered state must be
    /// attached to the *same* directory's log; [`crate::open_durable`] does
    /// all of this in one call and is the usual entry point.
    ///
    /// Builder-style: call before the handle is cloned.
    ///
    /// # Panics
    /// Panics when the engine handle has already been cloned or has live
    /// sessions.
    pub fn with_wal(
        self,
        wal: Arc<Wal>,
        dictionary: Arc<RwLock<ValueDictionary>>,
        checkpoint_every: u64,
    ) -> Self {
        let tokens_logged = dictionary.read().unwrap_or_else(PoisonError::into_inner).len();
        let mut shared = self.shared;
        Arc::get_mut(&mut shared)
            .expect("configure the engine before sharing it")
            .wal = Some(WalAttachment {
            wal,
            dictionary,
            checkpoint_every,
            tokens_logged: Mutex::new(tokens_logged),
            deltas_since_checkpoint: Mutex::new(0),
        });
        Engine { shared }
    }

    /// The attached write-ahead log, when this engine is durable.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.shared.wal.as_ref().map(|attachment| &attachment.wal)
    }

    /// Write a checkpoint now: the current snapshot plus the shared value
    /// dictionary become one durable checkpoint file, and log segments made
    /// dead by it are truncated. Serialised against concurrent mutations.
    /// Returns the covered LSN, or `None` when no WAL is attached.
    pub fn checkpoint(&self) -> Result<Option<Lsn>, DeltaError> {
        let Some(attachment) = &self.shared.wal else {
            return Ok(None);
        };
        let _serialised = lock_unpoisoned(&self.shared.update_lock);
        let snapshot = self.snapshot();
        self.checkpoint_locked(attachment, &snapshot)
            .map(Some)
            .map_err(|e| DeltaError::Wal { message: e.to_string() })
    }

    /// Checkpoint the given snapshot. Caller holds the update lock.
    fn checkpoint_locked(
        &self,
        attachment: &WalAttachment,
        snapshot: &Snapshot,
    ) -> std::io::Result<Lsn> {
        let dictionary =
            attachment.dictionary.read().unwrap_or_else(PoisonError::into_inner);
        let covered = attachment.wal.checkpoint(snapshot.database(), &dictionary)?;
        // The checkpoint file holds the whole dictionary: everything up to
        // its current length is durable without further DictExtend records.
        *lock_unpoisoned(&attachment.tokens_logged) = dictionary.len();
        *lock_unpoisoned(&attachment.deltas_since_checkpoint) = 0;
        Ok(covered)
    }

    /// Append `delta` (preceded by any un-logged dictionary growth) to the
    /// log. Caller holds the update lock; nothing has been applied yet, so
    /// a failed append leaves the engine exactly as it was.
    fn log_delta(&self, attachment: &WalAttachment, delta: &Delta) -> Result<(), DeltaError> {
        let mut records = Vec::with_capacity(2);
        let dictionary =
            attachment.dictionary.read().unwrap_or_else(PoisonError::into_inner);
        let mut tokens_logged = lock_unpoisoned(&attachment.tokens_logged);
        if dictionary.len() > *tokens_logged {
            records.push(WalRecord::DictExtend {
                first_id: *tokens_logged as u64,
                tokens: dictionary.tokens_from(*tokens_logged).map(str::to_owned).collect(),
            });
        }
        let dictionary_len = dictionary.len();
        drop(dictionary);
        let inserts = delta
            .inserts()
            .iter()
            .filter(|(_, rows)| !rows.is_empty())
            .map(|(name, rows)| RelationInserts {
                relation: name.clone(),
                arity: rows[0].len(),
                rows: rows.len(),
                values: rows.iter().flatten().copied().collect(),
            })
            .collect();
        records.push(WalRecord::DeltaApplied { inserts });
        attachment
            .wal
            .append_all(&records)
            .map_err(|e| DeltaError::Wal { message: e.to_string() })?;
        *tokens_logged = dictionary_len;
        Ok(())
    }

    /// Count a logged delta towards the auto-checkpoint threshold and
    /// checkpoint when it trips. Caller holds the update lock; `snapshot`
    /// is the just-installed state. Checkpoint failures don't fail the
    /// already-durable, already-applied delta — they are counted on
    /// `pq_wal_checkpoint_errors_total` and the next delta retries.
    fn after_logged_apply(&self, attachment: &WalAttachment, snapshot: &Snapshot) {
        let mut since = lock_unpoisoned(&attachment.deltas_since_checkpoint);
        *since += 1;
        let due = attachment.checkpoint_every > 0 && *since >= attachment.checkpoint_every;
        drop(since);
        if due {
            if let Err(error) = self.checkpoint_locked(attachment, snapshot) {
                self.count_checkpoint_error(&error);
            }
        }
    }

    fn count_checkpoint_error(&self, error: &std::io::Error) {
        self.shared
            .obs
            .registry()
            .counter(
                "pq_wal_checkpoint_errors_total",
                &[],
                "Checkpoints that failed with an I/O error",
            )
            .inc();
        let _ = error;
    }

    /// The current snapshot. The returned `Arc` stays valid (and fully
    /// queryable through [`crate::run_plan`]) even after a writer installs
    /// a newer snapshot via [`Engine::update`].
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.shared
            .snapshot
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Open a new session with the engine's default server budget and
    /// seed. Sessions are independent: each can change its own `p` and
    /// seed without affecting anyone else, and all of them share this
    /// engine's snapshot and plan cache.
    pub fn session(&self) -> Session {
        Session::new(
            self.clone(),
            self.shared.default_p,
            self.shared.default_seed,
            self.shared.default_backend.clone(),
        )
    }

    /// The default execution backend handed to new sessions.
    pub fn default_backend(&self) -> &ExecBackend {
        &self.shared.default_backend
    }

    /// The default server budget handed to new sessions.
    pub fn default_servers(&self) -> usize {
        self.shared.default_p
    }

    /// Apply a typed, insert-only [`Delta`]: the O(delta) mutation path.
    ///
    /// Builds the next snapshot copy-on-write from the current one:
    ///
    /// * only the touched relations' row buffers are copied (one memcpy
    ///   each, thanks to the flat storage) and extended — untouched
    ///   relations keep sharing their buffers with the previous snapshot;
    /// * statistics are maintained incrementally
    ///   ([`DatabaseStatistics::apply_inserts`]): degree maps,
    ///   cardinalities, bit sizes and fingerprints of touched relations are
    ///   updated in place of a rebuild, untouched relations' statistics are
    ///   shared untouched;
    /// * the plan cache is maintained per touched relation
    ///   ([`PlanCache::on_snapshot_change`]): plans reading a touched
    ///   relation (and stale leftovers) are evicted, every other plan is
    ///   re-keyed to the new fingerprint and keeps hitting.
    ///
    /// The delta is validated up front (every relation loaded, every row of
    /// matching arity) — a rejected delta leaves the engine untouched.
    /// Values are not range-checked against the domain: like
    /// [`Engine::update`], the snapshot's domain (and with it the
    /// bits-per-value accounting) is fixed at load time. Readers are never
    /// blocked; sessions holding the previous snapshot finish on it.
    /// Concurrent `apply`/`update` calls are serialised, so no mutation is
    /// lost. An empty delta is a no-op returning the current snapshot.
    ///
    /// On a durable engine ([`Engine::with_wal`]) the delta is appended to
    /// the write-ahead log **before** anything is applied: an append
    /// failure surfaces as [`DeltaError::Wal`] with the engine untouched,
    /// and a crash at any later point replays the delta from the log.
    pub fn apply(&self, delta: Delta) -> Result<Arc<Snapshot>, DeltaError> {
        self.apply_inner(delta, true)
    }

    /// [`Engine::apply`] with the WAL append optional: recovery replays
    /// already-logged deltas through `log = false`.
    pub(crate) fn apply_inner(
        &self,
        delta: Delta,
        log: bool,
    ) -> Result<Arc<Snapshot>, DeltaError> {
        let _serialised = lock_unpoisoned(&self.shared.update_lock);
        let prev = self.snapshot();
        for (name, rows) in delta.inserts() {
            let Some(stored) = prev.database().relation(name) else {
                return Err(DeltaError::UnknownRelation {
                    relation: name.clone(),
                    available: prev.database().relation_names(),
                });
            };
            if let Some(bad) = rows.iter().find(|row| row.len() != stored.arity()) {
                return Err(DeltaError::ArityMismatch {
                    relation: name.clone(),
                    stored: stored.arity(),
                    given: bad.len(),
                });
            }
        }
        if delta.is_empty() {
            return Ok(prev);
        }
        if log {
            if let Some(attachment) = &self.shared.wal {
                self.log_delta(attachment, &delta)?;
            }
        }
        let old_fingerprint = prev.fingerprint();
        let mut database = prev.database().clone();
        let mut statistics = prev.statistics().clone();
        for (name, rows) in delta.inserts() {
            if rows.is_empty() {
                continue;
            }
            // Build the extended relation in one allocation sized for old +
            // new rows: `relation_mut` would `Arc::make_mut`-clone at exact
            // capacity and then reallocate (a second full-buffer copy) on
            // the first push.
            let stored = prev.database().relation(name).expect("validated above");
            let mut relation =
                Relation::with_capacity(stored.schema().clone(), stored.len() + rows.len());
            relation.append(stored);
            for row in rows {
                relation.push_row(row);
            }
            database.insert_arc(Arc::new(relation));
            statistics.apply_inserts(stored.schema(), rows.iter().map(Vec::as_slice));
        }
        let touched: BTreeSet<String> = delta.relations().map(str::to_string).collect();
        let inserted_rows: usize = delta.inserts().values().map(Vec::len).sum();
        let next = Arc::new(Snapshot::from_parts(database, statistics));
        let evicted = lock_unpoisoned(&self.shared.cache).on_snapshot_change(
            old_fingerprint,
            next.fingerprint(),
            &touched,
        );
        *self
            .shared
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner) = next.clone();
        let obs = &self.shared.obs;
        if obs.enabled() {
            obs.deltas_applied.inc();
            obs.rows_inserted.add(inserted_rows as u64);
            obs.snapshot_updates.inc();
            obs.cache_invalidated.add(evicted as u64);
        }
        if log {
            if let Some(attachment) = &self.shared.wal {
                self.after_logged_apply(attachment, &next);
            }
        }
        Ok(next)
    }

    /// Copy-on-write mutation for **arbitrary** edits: clone the current
    /// database (cheap — relations are shared per [`Arc`] until touched),
    /// apply `mutate`, analyse the result into a fresh [`Snapshot`] and
    /// atomically install it. Returns the new snapshot.
    ///
    /// This is the recompute fallback behind the typed [`Engine::apply`]
    /// path: statistics are rebuilt for every relation the closure touched,
    /// while relations whose shared row buffer is provably unchanged
    /// (pointer-equal to the previous snapshot's) keep their statistics
    /// without a re-scan ([`DatabaseStatistics::compute_reusing`]). For
    /// insert-only changes prefer `apply`, which also skips the rebuild of
    /// the touched relations themselves.
    ///
    /// Readers are never blocked: sessions that already fetched the old
    /// snapshot finish their queries on it, and the old `Arc` stays alive
    /// for as long as anyone holds it. The plan cache is maintained per
    /// changed relation, exactly as for `apply` — plans over unchanged
    /// relations keep hitting. Concurrent `update` calls are serialised,
    /// so no mutation is lost.
    ///
    /// On a durable engine the closure's edits cannot be logged as a typed
    /// delta (they are arbitrary), so `update` **forces a full checkpoint**
    /// after installing the new snapshot — the durable state never lags an
    /// escape-hatch edit. A failed checkpoint is counted on
    /// `pq_wal_checkpoint_errors_total` (the in-memory update itself cannot
    /// fail).
    pub fn update<F: FnOnce(&mut Database)>(&self, mutate: F) -> Arc<Snapshot> {
        let _serialised = lock_unpoisoned(&self.shared.update_lock);
        // `prev` must outlive `mutate`: it pins every shared relation's
        // refcount above 1, so the closure can only mutate via
        // `Arc::make_mut` copies and pointer equality implies "unchanged".
        let prev = self.snapshot();
        let mut database = prev.database().clone();
        mutate(&mut database);
        let statistics =
            DatabaseStatistics::compute_reusing(&database, prev.database(), prev.statistics());
        let touched = changed_relations(prev.statistics(), &statistics);
        let next = Arc::new(Snapshot::from_parts(database, statistics));
        let evicted = lock_unpoisoned(&self.shared.cache).on_snapshot_change(
            prev.fingerprint(),
            next.fingerprint(),
            &touched,
        );
        *self
            .shared
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner) = next.clone();
        let obs = &self.shared.obs;
        if obs.enabled() {
            obs.snapshot_updates.inc();
            obs.cache_invalidated.add(evicted as u64);
        }
        if let Some(attachment) = &self.shared.wal {
            if let Err(error) = self.checkpoint_locked(attachment, &next) {
                self.count_checkpoint_error(&error);
            }
        }
        next
    }

    /// Plan-cache counters and occupancy (including per-`p` entry counts).
    pub fn cache_stats(&self) -> CacheStats {
        lock_unpoisoned(&self.shared.cache).stats()
    }

    /// Drop every cached plan and reset the hit/miss counters.
    pub fn clear_plan_cache(&self) {
        lock_unpoisoned(&self.shared.cache).clear();
    }

    /// Drop every cached plan but keep the hit/miss counters — what
    /// benchmarks use to force cold planning while still reporting
    /// cumulative totals.
    pub fn clear_plan_cache_keep_stats(&self) {
        lock_unpoisoned(&self.shared.cache).clear_keep_stats();
    }

    /// Plan `parsed` against `snapshot` for `p` servers, consulting the
    /// shared cache. Returns the plan and whether it was a cache hit.
    ///
    /// The cache lock is held only for the lookup and the insert, never
    /// while planning — two sessions missing on the same key concurrently
    /// will both plan (identical plans; one insert wins), which keeps the
    /// planner's LP solves out of every other session's critical path.
    pub(crate) fn plan_parsed(
        &self,
        snapshot: &Snapshot,
        parsed: &ParsedQuery,
        p: usize,
    ) -> Result<(Plan, bool), EngineError> {
        self.plan_parsed_traced(snapshot, parsed, p, None)
    }

    /// [`Engine::plan_parsed`] with lifecycle spans: the cache probe and
    /// (on a miss) the planning work are recorded as separate phases on
    /// `trace`, and the engine's cumulative cache hit/miss counters move.
    pub(crate) fn plan_parsed_traced(
        &self,
        snapshot: &Snapshot,
        parsed: &ParsedQuery,
        p: usize,
        mut trace: Option<&mut QueryTrace>,
    ) -> Result<(Plan, bool), EngineError> {
        let obs = &self.shared.obs;
        let record = obs.enabled();
        let key = PlanKey {
            signature: parsed.signature(),
            fingerprint: snapshot.fingerprint(),
            p,
        };
        let lookup_start = Instant::now();
        let cached = lock_unpoisoned(&self.shared.cache).get(&key);
        if let Some(trace) = trace.as_deref_mut() {
            trace.record(Phase::CacheLookup, lookup_start.elapsed());
        }
        if let Some(plan) = cached {
            if record {
                obs.cache_hits.inc();
            }
            return Ok((adapt_cached_plan(plan, parsed.clone()), true));
        }
        if record {
            obs.cache_misses.inc();
        }
        let plan_start = Instant::now();
        let planned = plan_query_on(parsed, snapshot, p);
        if let Some(trace) = trace {
            trace.record(Phase::Plan, plan_start.elapsed());
        }
        let plan = planned?;
        lock_unpoisoned(&self.shared.cache).insert(key, plan.clone());
        Ok((plan, false))
    }

    /// The engine's observability handles (crate-internal shortcut for the
    /// session/prepared hot paths).
    pub(crate) fn obs(&self) -> &EngineObs {
        &self.shared.obs
    }
}

/// Relations whose planner-relevant statistics differ between two
/// catalogues (changed, added or removed) — the "touched" set handed to
/// [`PlanCache::on_snapshot_change`] by the recompute path, where no typed
/// delta says what moved.
fn changed_relations(
    previous: &DatabaseStatistics,
    next: &DatabaseStatistics,
) -> BTreeSet<String> {
    let mut touched = BTreeSet::new();
    for (name, stats) in &next.relations {
        match previous.relations.get(name) {
            Some(old) if old.fingerprint() == stats.fingerprint() => {}
            _ => {
                touched.insert(name.clone());
            }
        }
    }
    for name in previous.relations.keys() {
        if !next.relations.contains_key(name) {
            touched.insert(name.clone());
        }
    }
    touched
}

/// Re-point a cached plan at the user's current query. Signatures are
/// rename-invariant, so a hit may come from an alpha-renamed (or
/// differently named) query; every variable-keyed field of the plan is
/// rewritten through the positional correspondence of the two variable
/// lists (equal signatures guarantee identical structure). Relation names
/// are part of the signature and never change.
pub(crate) fn adapt_cached_plan(mut plan: Plan, parsed: ParsedQuery) -> Plan {
    let old_vars = plan.parsed.query.variables();
    let new_vars = parsed.query.variables();
    if old_vars != new_vars {
        let map: HashMap<&String, &String> = old_vars.iter().zip(new_vars.iter()).collect();
        let rename = |v: &String| -> String {
            map.get(v).map_or_else(|| v.clone(), |s| (*s).clone())
        };
        if let Strategy::HyperCube { shares } = &mut plan.strategy {
            *shares = shares.iter().map(|(k, &s)| (rename(k), s)).collect();
        }
        plan.shares = plan.shares.iter().map(|(k, &s)| (rename(k), s)).collect();
        plan.exponents.exponents = plan
            .exponents
            .exponents
            .iter()
            .map(|(k, &e)| (rename(k), e))
            .collect();
        for h in &mut plan.heavy {
            h.variable = rename(&h.variable);
        }
        // Notes embed variable names only in backticks (the planner's
        // formatting convention), so a backtick-delimited replacement
        // renames them without touching the surrounding prose. The renaming
        // must be simultaneous (an alpha-renaming may swap two variables),
        // hence the placeholder pass.
        for note in &mut plan.notes {
            for (i, old) in old_vars.iter().enumerate() {
                *note = note.replace(&format!("`{old}`"), &format!("\u{1}{i}\u{1}"));
            }
            for (i, new) in new_vars.iter().enumerate() {
                *note = note.replace(&format!("\u{1}{i}\u{1}"), &format!("`{new}`"));
            }
        }
    }
    plan.parsed = parsed;
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::{Relation, Schema, Tuple};

    fn engine() -> Engine {
        let mut db = Database::new(1 << 10);
        db.insert(Relation::from_rows(
            Schema::from_strs("R", &["a", "b"]),
            (0..50).map(|i| vec![i, i + 1]).collect(),
        ));
        db.insert(Relation::from_rows(
            Schema::from_strs("S", &["a", "b"]),
            (0..50).map(|i| vec![i + 1, i + 2]).collect(),
        ));
        Engine::new(db, 8)
    }

    #[test]
    fn sessions_share_the_plan_cache_across_handle_clones() {
        let e = engine();
        let s1 = e.session();
        let first = s1.run("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        assert!(!first.cache_hit);
        assert_eq!(first.outcome.output.len(), 50);
        // Another session from a *cloned* handle still shares the cache.
        let s2 = e.clone().session();
        let again = s2.run("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        assert!(again.cache_hit);
        assert_eq!(again.outcome.output.len(), 50);
        // Alpha-renamed query: same signature, still a hit.
        let renamed = s1.run("P(u, v, w) :- R(u, v), S(v, w)").unwrap();
        assert!(renamed.cache_hit);
        assert_eq!(renamed.outcome.output.name(), "P");
        assert_eq!(e.cache_stats().hits, 2);
        assert_eq!(e.cache_stats().misses, 1);
    }

    #[test]
    fn renamed_cache_hit_still_executes_specialised_strategies() {
        // A skewed triangle: the cached plan is a SkewAwareTriangle, and an
        // alpha-renamed query that hits the cache must explain and run it
        // on its own variables.
        let mut db = Database::new(1 << 20);
        for name in ["R", "S", "T"] {
            let mut rows: Vec<Vec<u64>> = (0..100).map(|i| vec![i, i]).collect();
            if name != "S" {
                // Hub value 0 with high degree in R and T.
                rows.extend((0..80).map(|i| {
                    if name == "R" {
                        vec![0, 10_000 + i]
                    } else {
                        vec![20_000 + i, 0]
                    }
                }));
            }
            db.insert(Relation::from_rows(Schema::from_strs(name, &["a", "b"]), rows));
        }
        let session = Engine::new(db, 16).session();
        let first = session.run("Q(a, b, c) :- R(a, b), S(b, c), T(c, a)").unwrap();
        assert_eq!(first.plan.strategy, Strategy::SkewAwareTriangle);
        let renamed = session.run("P(u, v, w) :- R(u, v), S(v, w), T(w, u)").unwrap();
        assert!(renamed.cache_hit);
        assert_eq!(renamed.plan.strategy, Strategy::SkewAwareTriangle);
        let explain = renamed.plan.explain();
        assert!(explain.contains("(u → x1, v → x2, w → x3)"), "{explain}");
        assert_eq!(
            renamed.outcome.output.canonicalized().to_tuples(),
            first.outcome.output.canonicalized().to_tuples()
        );
    }

    #[test]
    fn renamed_cache_hit_rewrites_planner_notes() {
        let mut db = Database::new(1 << 16);
        let mut r_rows: Vec<Vec<u64>> = (0..100).map(|i| vec![i, i + 200]).collect();
        let mut s_rows: Vec<Vec<u64>> = (0..100).map(|i| vec![i, i + 300]).collect();
        r_rows.extend((0..40).map(|i| vec![7, 1_000 + i]));
        s_rows.extend((0..40).map(|i| vec![7, 2_000 + i]));
        db.insert(Relation::from_rows(Schema::from_strs("R", &["a", "b"]), r_rows));
        db.insert(Relation::from_rows(Schema::from_strs("S", &["a", "b"]), s_rows));
        let session = Engine::new(db, 16).session();
        let first = session.explain("Q(z, a, b) :- R(z, a), S(z, b)").unwrap();
        assert!(first.contains("centre `z`"), "{first}");
        let renamed = session.explain("P(c, x, y) :- R(c, x), S(c, y)").unwrap();
        assert!(renamed.contains("HIT"), "{renamed}");
        assert!(renamed.contains("centre `c`"), "{renamed}");
        assert!(!renamed.contains('z'), "stale variable name leaked: {renamed}");
    }

    #[test]
    fn update_is_copy_on_write_and_invalidates_cached_plans() {
        let e = engine();
        let session = e.session();
        session.run("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let before = e.snapshot();
        let after = e.update(|db| {
            db.relation_mut("R").unwrap().push(Tuple::from([900, 901]));
        });
        // Copy-on-write: the old snapshot is untouched and still readable.
        assert_eq!(before.database().expect_relation("R").len(), 50);
        assert_eq!(after.database().expect_relation("R").len(), 51);
        assert_ne!(before.fingerprint(), after.fingerprint());
        let rerun = session.run("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        assert!(!rerun.cache_hit, "stale plan must not be reused");
    }

    /// R → S → T chain: two 2-atom queries sharing only S.
    fn chain_engine() -> Engine {
        let mut db = Database::new(1 << 10);
        for (name, offset) in [("R", 0u64), ("S", 1), ("T", 2)] {
            db.insert(Relation::from_rows(
                Schema::from_strs(name, &["a", "b"]),
                (0..50).map(|i| vec![i + offset, i + offset + 1]).collect(),
            ));
        }
        Engine::new(db, 8)
    }

    #[test]
    fn apply_validates_before_touching_anything_and_nops_on_empty() {
        let e = chain_engine();
        let before = e.snapshot();
        let err = e.apply(Delta::insert("X", vec![vec![1, 2]])).unwrap_err();
        assert!(matches!(err, DeltaError::UnknownRelation { .. }));
        let err = e.apply(Delta::insert("R", vec![vec![1, 2, 3]])).unwrap_err();
        assert!(matches!(
            err,
            DeltaError::ArityMismatch {
                stored: 2,
                given: 3,
                ..
            }
        ));
        // A mixed delta with one bad row must not land its good rows.
        let err = e
            .apply(Delta::insert("R", vec![vec![900, 901]]).and_insert("S", vec![vec![1]]))
            .unwrap_err();
        assert!(matches!(err, DeltaError::ArityMismatch { .. }));
        assert!(Arc::ptr_eq(&before, &e.snapshot()), "engine untouched");
        // Empty deltas return the current snapshot unchanged.
        let same = e.apply(Delta::new()).unwrap();
        assert!(Arc::ptr_eq(&before, &same));
        let same = e.apply(Delta::insert("R", vec![])).unwrap();
        assert!(Arc::ptr_eq(&before, &same));
    }

    #[test]
    fn apply_invalidates_only_plans_reading_touched_relations() {
        let e = chain_engine();
        let session = e.session();
        let q_rs = "Q(x, y, z) :- R(x, y), S(y, z)";
        let q_st = "Q(x, y, z) :- S(x, y), T(y, z)";
        session.run(q_rs).unwrap();
        session.run(q_st).unwrap();
        assert_eq!(e.cache_stats().misses, 2);

        // R(900, 1) joins S(1, 2): exactly one new answer for the RS query.
        e.apply(Delta::insert("R", vec![vec![900, 1]])).unwrap();
        assert_eq!(e.cache_stats().invalidated, 1, "only the R-reading plan");
        let st = session.run(q_st).unwrap();
        assert!(st.cache_hit, "plan over untouched S, T was re-keyed");
        let rs = session.run(q_rs).unwrap();
        assert!(!rs.cache_hit, "plan over touched R was evicted");
        assert_eq!(rs.outcome.output.len(), 51, "answers see the new data");
    }

    #[test]
    fn update_keeps_plans_over_unchanged_relations_hot() {
        let e = chain_engine();
        let session = e.session();
        let q_rs = "Q(x, y, z) :- R(x, y), S(y, z)";
        let q_st = "Q(x, y, z) :- S(x, y), T(y, z)";
        session.run(q_rs).unwrap();
        session.run(q_st).unwrap();
        // The recompute fallback diffs per-relation fingerprints, so it
        // reaches the same per-relation invalidation as `apply`.
        e.update(|db| {
            db.relation_mut("R").unwrap().push(Tuple::from([900, 901]));
        });
        assert!(session.run(q_st).unwrap().cache_hit);
        assert!(!session.run(q_rs).unwrap().cache_hit);
        assert_eq!(e.cache_stats().invalidated, 1);
    }

    #[test]
    fn clear_plan_cache_variants_follow_their_counter_semantics() {
        let e = engine();
        let session = e.session();
        session.run("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        session.run("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        assert_eq!((e.cache_stats().hits, e.cache_stats().misses), (1, 1));
        e.clear_plan_cache_keep_stats();
        assert_eq!(e.cache_stats().len, 0);
        assert_eq!(
            (e.cache_stats().hits, e.cache_stats().misses),
            (1, 1),
            "keep-stats variant preserves counters"
        );
        e.clear_plan_cache();
        assert_eq!(
            (e.cache_stats().hits, e.cache_stats().misses),
            (0, 0),
            "full clear resets counters"
        );
    }

    #[test]
    fn explain_names_strategy_and_cache_state() {
        let session = engine().session();
        let text = "Q(x, y, z) :- R(x, y), S(y, z)";
        let first = session.explain(text).unwrap();
        assert!(first.contains("MISS"), "{first}");
        assert!(first.contains("strategy"), "{first}");
        let second = session.explain(text).unwrap();
        assert!(second.contains("HIT"), "{second}");
    }

    #[test]
    fn errors_surface_readably() {
        let session = engine().session();
        let err = session.run("Q(x) :- ").unwrap_err();
        assert!(matches!(err, EngineError::Parse(_)));
        let err = session.run("Q(x, y) :- Missing(x, y)").unwrap_err();
        assert!(err.to_string().contains("not loaded"), "{err}");
    }
}
