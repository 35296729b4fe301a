//! Opening a durable engine: recover, replay, attach, checkpoint.
//!
//! [`open_durable`] is the one-call startup path behind `pqd --data-dir`:
//!
//! 1. **recover** — load the newest valid checkpoint from the WAL
//!    directory (falling back over corrupt/deleted ones) and collect the
//!    log suffix after it ([`pq_wal::recover`]);
//! 2. **replay** — apply the recovered deltas through the engine's own
//!    apply path (statistics, plan-cache bookkeeping and snapshot
//!    construction behave exactly as they did pre-crash), without
//!    re-logging them;
//! 3. **attach** — reopen the log for appending (truncating the torn
//!    tail; [`pq_wal::Wal::open_recovered`] reuses step 1's read of the
//!    log), wire its metrics into the engine's registry and arm the
//!    auto-checkpointer;
//! 4. **checkpoint** — when the directory was fresh, or when replay did
//!    work, write a checkpoint immediately so the next startup replays
//!    nothing.
//!
//! The recovered prefix is exactly what the sync policy promised: with
//! `always` every acknowledged delta, with `group-commit`/`never` every
//! delta the OS page cache made it to disk with (all of them on a process
//! kill; the fsync gap only matters for whole-machine crashes).

use crate::delta::Delta;
use crate::engine::Engine;
use pq_relation::{Database, ValueDictionary};
use pq_wal::{apply_dict_extensions, recover, SyncPolicy, Wal, WalOptions};
use std::io;
use std::path::Path;
use std::sync::{Arc, RwLock};

/// Tunables of [`open_durable`].
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// The log's fsync policy (default [`SyncPolicy::GroupCommit`]).
    pub sync: SyncPolicy,
    /// Auto-checkpoint after this many logged deltas; 0 disables
    /// (default 1024).
    pub checkpoint_every: u64,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions { sync: SyncPolicy::GroupCommit, checkpoint_every: 1024 }
    }
}

/// What [`open_durable`] hands back: the durable engine plus a summary of
/// what recovery did (for startup logging and tests).
#[derive(Debug)]
pub struct DurableOpen {
    /// The engine, already attached to the reopened log. Configure
    /// (`with_seed`, `with_backend`, …) before sharing, as usual.
    pub engine: Engine,
    /// The shared value dictionary front-ends encode tokens through. Its
    /// growth is WAL-logged; hand this exact handle to the CLI layer.
    pub dictionary: Arc<RwLock<ValueDictionary>>,
    /// True when the state came from a checkpoint file (false: fresh
    /// directory initialised from the caller's base data).
    pub from_checkpoint: bool,
    /// Redo records (deltas, dictionary extensions) replayed past the
    /// checkpoint.
    pub recovered_records: u64,
    /// Rows re-inserted by replayed deltas.
    pub recovered_rows: u64,
    /// True when the log ended in a torn tail that was truncated.
    pub torn_tail: bool,
    /// Corrupt checkpoint files skipped during recovery.
    pub checkpoints_discarded: u64,
}

/// Open (or create) the durable engine stored in `dir`.
///
/// `base` is the initial state for a **fresh** directory (what `--data`
/// loaded); once a checkpoint exists in `dir` it wins and `base` is
/// ignored. A fresh directory with no `base` is an error — there is
/// nothing to serve.
///
/// Replayed deltas must validate against the recovered state; a delta that
/// does not (impossible without external tampering, since validation
/// passed before logging) surfaces as [`io::ErrorKind::InvalidData`].
pub fn open_durable(
    dir: &Path,
    options: DurabilityOptions,
    p: usize,
    base: Option<(Database, ValueDictionary)>,
) -> io::Result<DurableOpen> {
    let mut recovery = recover(dir)?;
    let from_checkpoint = recovery.checkpoint.is_some();
    let (database, mut dictionary) = match recovery.checkpoint.take() {
        Some(checkpoint) => (checkpoint.database, checkpoint.dictionary),
        None => base.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "WAL directory {} holds no checkpoint and no initial data was supplied",
                    dir.display()
                ),
            )
        })?,
    };
    apply_dict_extensions(&mut dictionary, &recovery.dict_extensions)
        .map_err(|why| io::Error::new(io::ErrorKind::InvalidData, why))?;

    let engine = Engine::new(database, p);
    let recovered_rows = recovery.total_rows() as u64;
    for recovered in &recovery.deltas {
        let mut delta = Delta::new();
        for batch in &recovered.inserts {
            let rows: Vec<Vec<pq_relation::Value>> = if batch.arity == 0 {
                vec![Vec::new(); batch.rows]
            } else {
                batch.values.chunks(batch.arity).map(<[_]>::to_vec).collect()
            };
            delta = delta.and_insert(batch.relation.clone(), rows);
        }
        engine.apply_inner(delta, false).map_err(|error| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("replaying WAL record {} failed: {error}", recovered.lsn),
            )
        })?;
    }

    let wal = Arc::new(Wal::open_recovered(
        dir,
        WalOptions::with_sync(options.sync),
        &recovery,
    )?);
    let registry = engine.metrics();
    wal.set_registry(&registry);
    registry
        .counter(
            "pq_wal_recovery_records_total",
            &[],
            "Log records replayed by crash recovery",
        )
        .add(recovery.records_replayed);
    registry
        .counter("pq_wal_recovery_rows_total", &[], "Rows re-inserted by crash recovery")
        .add(recovered_rows);
    registry
        .counter(
            "pq_wal_recovery_torn_tails_total",
            &[],
            "Torn log tails truncated on startup",
        )
        .add(u64::from(recovery.torn_tail));
    registry
        .counter(
            "pq_wal_recovery_checkpoints_discarded_total",
            &[],
            "Corrupt checkpoint files skipped by recovery",
        )
        .add(recovery.checkpoints_discarded);

    let dictionary = Arc::new(RwLock::new(dictionary));
    let engine = engine.with_wal(wal, dictionary.clone(), options.checkpoint_every);
    if !from_checkpoint || recovery.records_replayed > 0 {
        engine
            .checkpoint()
            .map_err(|error| io::Error::other(format!("initial checkpoint failed: {error}")))?;
    }
    Ok(DurableOpen {
        engine,
        dictionary,
        from_checkpoint,
        recovered_records: recovery.records_replayed,
        recovered_rows,
        torn_tail: recovery.torn_tail,
        checkpoints_discarded: recovery.checkpoints_discarded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::{Relation, Schema};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let path = std::env::temp_dir().join(format!(
                "pq-engine-dur-{tag}-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&path);
            std::fs::create_dir_all(&path).unwrap();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn base() -> (Database, ValueDictionary) {
        let mut dictionary = ValueDictionary::new();
        let a = dictionary.encode("a0");
        let b = dictionary.encode("b0");
        let mut database = Database::new(1 << 12);
        database.insert(Relation::from_rows(
            Schema::from_strs("E", &["x", "y"]),
            vec![vec![a, b]],
        ));
        (database, dictionary)
    }

    #[test]
    fn fresh_directory_initialises_and_reopens_with_applied_deltas() {
        let dir = TempDir::new("fresh");
        let opened = open_durable(&dir.0, DurabilityOptions::default(), 4, Some(base())).unwrap();
        assert!(!opened.from_checkpoint);
        assert_eq!(opened.recovered_records, 0);
        // Grow the dictionary (as the CLI INSERT path does) and apply.
        let v = {
            let mut dict = opened.dictionary.write().unwrap();
            (dict.encode("c1"), dict.encode("c2"))
        };
        opened.engine.apply(Delta::insert("E", vec![vec![v.0, v.1]])).unwrap();
        drop(opened);

        let reopened =
            open_durable(&dir.0, DurabilityOptions::default(), 4, None).unwrap();
        assert!(reopened.from_checkpoint);
        assert!(reopened.recovered_records > 0, "the delta was replayed");
        assert_eq!(reopened.recovered_rows, 1);
        let e = reopened.engine.snapshot();
        assert_eq!(e.database().expect_relation("E").len(), 2);
        // The dictionary growth survived (DictExtend replay).
        let dict = reopened.dictionary.read().unwrap();
        assert_eq!(dict.tokens(), ["a0", "b0", "c1", "c2"]);
    }

    #[test]
    fn fresh_directory_without_base_is_an_error() {
        let dir = TempDir::new("nobase");
        let err = open_durable(&dir.0, DurabilityOptions::default(), 4, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn update_escape_hatch_checkpoints_so_edits_survive() {
        let dir = TempDir::new("update");
        let opened = open_durable(&dir.0, DurabilityOptions::default(), 4, Some(base())).unwrap();
        opened.engine.update(|db| {
            db.relation_mut("E").unwrap().push_row(&[5, 6]);
        });
        drop(opened);
        let reopened = open_durable(&dir.0, DurabilityOptions::default(), 4, None).unwrap();
        assert_eq!(
            reopened.engine.snapshot().database().expect_relation("E").len(),
            2,
            "the closure edit came back from the forced checkpoint"
        );
    }

    #[test]
    fn auto_checkpoint_bounds_replay() {
        let dir = TempDir::new("autockpt");
        let options = DurabilityOptions { checkpoint_every: 4, ..Default::default() };
        let opened = open_durable(&dir.0, options.clone(), 4, Some(base())).unwrap();
        for i in 0..10 {
            opened.engine.apply(Delta::insert("E", vec![vec![i, i + 1]])).unwrap();
        }
        drop(opened);
        let reopened = open_durable(&dir.0, options, 4, None).unwrap();
        assert_eq!(reopened.engine.snapshot().database().expect_relation("E").len(), 11);
        // 10 deltas with a checkpoint every 4: at most 4 deltas (plus
        // checkpoint markers) after the last checkpoint.
        assert!(
            reopened.recovered_rows <= 4,
            "replay not bounded: {} rows",
            reopened.recovered_rows
        );
    }
}
