//! Crash recovery: rebuild the state a WAL directory describes.
//!
//! The pass is deliberately simple — and therefore easy to trust:
//!
//! 1. load the **newest checkpoint that verifies** (corrupt or deleted
//!    newer ones fall back to the previous checkpoint, which retention
//!    keeps exactly for this case);
//! 2. scan the segment log and collect every record with an LSN **after**
//!    the checkpoint, stopping at the first framing error or LSN
//!    discontinuity (the torn tail of an interrupted write); the records
//!    the checkpoint covers are checked just as strictly but not copied;
//! 3. hand the caller the checkpointed state plus the ordered delta and
//!    dictionary-extension payloads to replay.
//!
//! The result is always a **prefix** of the pre-crash history: either
//! everything, or everything up to the record the crash tore. This crate
//! cannot replay the deltas itself (that needs the engine's apply path),
//! so the engine's durability layer drives the replay from this data.

use crate::checkpoint::{load_latest_checkpoint, Checkpoint};
use crate::log::{scan_dir, Scan};
use crate::record::{Lsn, RelationInserts, WalRecord};
use pq_relation::ValueDictionary;
use std::io;
use std::path::Path;

/// One delta payload to replay, in LSN order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredDelta {
    /// The LSN the delta was logged at.
    pub lsn: Lsn,
    /// The per-relation insert batches, exactly as logged.
    pub inserts: Vec<RelationInserts>,
}

/// Everything a WAL directory says about the pre-crash state.
#[derive(Debug)]
pub struct Recovery {
    /// The newest checkpoint that verified, if any.
    pub checkpoint: Option<Checkpoint>,
    /// Delta payloads with LSN after the checkpoint, in LSN order.
    pub deltas: Vec<RecoveredDelta>,
    /// Dictionary extensions with LSN after the checkpoint, in LSN order
    /// (`first_id`, new tokens). Apply with [`apply_dict_extensions`].
    pub dict_extensions: Vec<(u64, Vec<String>)>,
    /// Highest LSN seen anywhere (log or checkpoint); 0 for a fresh dir.
    pub last_lsn: Lsn,
    /// Redo records (deltas and dictionary extensions) past the checkpoint.
    /// The markers a checkpoint itself logs carry nothing to replay and are
    /// not counted: after a clean shutdown this is 0.
    pub records_replayed: u64,
    /// Valid log bytes scanned (whole log, not just past the checkpoint).
    pub bytes_scanned: u64,
    /// True when the log ended in a torn/corrupt tail that was dropped.
    pub torn_tail: bool,
    /// Corrupt checkpoint files skipped while looking for a valid one.
    pub checkpoints_discarded: u64,
    /// Where each segment's valid prefix ends, for [`crate::Wal::open_recovered`].
    pub(crate) log: Scan,
}

impl Recovery {
    /// Total rows across all recovered delta payloads.
    pub fn total_rows(&self) -> usize {
        self.deltas.iter().flat_map(|d| d.inserts.iter()).map(|i| i.rows).sum()
    }
}

/// Read a WAL directory back into a [`Recovery`]. Never modifies the
/// directory (the torn tail is *reported*, not truncated — [`crate::Wal::open`]
/// truncates when the log is reopened for writing). A missing or empty
/// directory recovers to the empty state.
pub fn recover(dir: &Path) -> io::Result<Recovery> {
    let (checkpoint, checkpoints_discarded) = load_latest_checkpoint(dir)?;
    let checkpoint_lsn = checkpoint.as_ref().map_or(0, |c| c.covered_lsn);
    // The records the checkpoint covers are checked, not kept.
    let mut log = scan_dir(dir, checkpoint_lsn.saturating_add(1))?;
    let mut deltas = Vec::new();
    let mut dict_extensions = Vec::new();
    for (lsn, record) in log.segments.iter_mut().flat_map(|s| s.records.drain(..)) {
        match record {
            WalRecord::DeltaApplied { inserts } => deltas.push(RecoveredDelta { lsn, inserts }),
            WalRecord::DictExtend { first_id, tokens } => dict_extensions.push((first_id, tokens)),
            // Checkpoint markers carry no redo state; the files they
            // describe were already considered above.
            WalRecord::CheckpointStart
            | WalRecord::SnapshotWritten { .. }
            | WalRecord::CheckpointEnd { .. } => {}
        }
    }
    Ok(Recovery {
        records_replayed: (deltas.len() + dict_extensions.len()) as u64,
        checkpoint,
        deltas,
        dict_extensions,
        last_lsn: log.last_lsn.max(checkpoint_lsn),
        bytes_scanned: log.bytes,
        torn_tail: log.torn,
        checkpoints_discarded,
        log,
    })
}

/// Replay recovered dictionary extensions onto `dictionary`. Tolerates
/// overlap (extensions the base dictionary already contains re-encode to
/// their existing ids); a **gap** — an extension starting past the end of
/// the dictionary — means the log and the base state disagree and is an
/// error.
pub fn apply_dict_extensions(
    dictionary: &mut ValueDictionary,
    extensions: &[(u64, Vec<String>)],
) -> Result<(), String> {
    for (first_id, tokens) in extensions {
        let len = dictionary.len() as u64;
        if *first_id > len {
            return Err(format!(
                "dictionary extension starts at id {first_id} but only {len} token(s) exist"
            ));
        }
        let skip = (len - first_id) as usize;
        for token in tokens.iter().skip(skip) {
            dictionary.encode(token);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::checkpoint_file_name;
    use crate::log::{SyncPolicy, Wal, WalOptions};
    use crate::testutil::TempDir;
    use pq_relation::{Database, Relation, Schema};
    use std::fs;

    fn delta_record(n: u64) -> WalRecord {
        WalRecord::DeltaApplied {
            inserts: vec![RelationInserts {
                relation: "E".into(),
                arity: 2,
                rows: 1,
                values: vec![n, n + 1],
            }],
        }
    }

    fn state() -> (Database, ValueDictionary) {
        let mut database = Database::new(8);
        database.insert(Relation::from_rows(
            Schema::from_strs("E", &["x", "y"]),
            vec![vec![0, 1]],
        ));
        (database, ValueDictionary::new())
    }

    #[test]
    fn fresh_directory_recovers_to_empty() {
        let dir = TempDir::new("rec-fresh");
        let recovery = recover(&dir.path().join("does-not-exist")).unwrap();
        assert!(recovery.checkpoint.is_none());
        assert!(recovery.deltas.is_empty());
        assert_eq!(recovery.last_lsn, 0);
        assert!(!recovery.torn_tail);
    }

    #[test]
    fn replays_only_past_the_checkpoint() {
        let dir = TempDir::new("rec-suffix");
        let (database, dictionary) = state();
        let wal = Wal::open(dir.path(), WalOptions::with_sync(SyncPolicy::Always)).unwrap();
        wal.append(&delta_record(1)).unwrap();
        wal.append(&delta_record(2)).unwrap();
        let covered = wal.checkpoint(&database, &dictionary).unwrap();
        wal.append(&delta_record(3)).unwrap();
        wal.append(&delta_record(4)).unwrap();
        drop(wal);
        let recovery = recover(dir.path()).unwrap();
        assert_eq!(recovery.checkpoint.as_ref().unwrap().covered_lsn, covered);
        let lsns: Vec<Lsn> = recovery.deltas.iter().map(|d| d.lsn).collect();
        assert_eq!(lsns, vec![covered + 3, covered + 4]);
        assert_eq!(recovery.total_rows(), 2);
        assert!(!recovery.torn_tail);
    }

    #[test]
    fn deleted_newest_checkpoint_falls_back_to_the_previous() {
        let dir = TempDir::new("rec-del-ckpt");
        let (database, dictionary) = state();
        let wal = Wal::open(dir.path(), WalOptions::with_sync(SyncPolicy::Always)).unwrap();
        wal.append(&delta_record(1)).unwrap();
        let first = wal.checkpoint(&database, &dictionary).unwrap();
        wal.append(&delta_record(2)).unwrap();
        let second = wal.checkpoint(&database, &dictionary).unwrap();
        wal.append(&delta_record(3)).unwrap();
        drop(wal);
        fs::remove_file(dir.path().join(checkpoint_file_name(second))).unwrap();
        let recovery = recover(dir.path()).unwrap();
        // Fell back to the first checkpoint; every delta after it — the one
        // covered by the lost checkpoint too — is still in the retained log.
        assert_eq!(recovery.checkpoint.as_ref().unwrap().covered_lsn, first);
        let rows: Vec<u64> = recovery
            .deltas
            .iter()
            .flat_map(|d| d.inserts.iter())
            .flat_map(|i| i.values.clone())
            .collect();
        assert_eq!(rows, vec![2, 3, 3, 4]);
    }

    #[test]
    fn torn_tail_recovers_the_prefix() {
        let dir = TempDir::new("rec-torn");
        let wal = Wal::open(dir.path(), WalOptions::with_sync(SyncPolicy::Always)).unwrap();
        for i in 1..=5 {
            wal.append(&delta_record(i)).unwrap();
        }
        drop(wal);
        let scan = scan_dir(dir.path(), 0).unwrap();
        let segment = scan.segments.last().unwrap();
        let path = segment.path.clone();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let recovery = recover(dir.path()).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.deltas.len(), 4, "the torn fifth record is dropped");
        assert_eq!(recovery.last_lsn, 4);
    }

    #[test]
    fn open_recovered_positions_the_log_as_open_does() {
        // A checkpoint, a suffix past it, and a torn last record: opening
        // from the recovery's scan must truncate and continue exactly as a
        // second scan by Wal::open does.
        let build = |tag: &str| {
            let dir = TempDir::new(tag);
            let (database, dictionary) = state();
            let wal = Wal::open(dir.path(), WalOptions::with_sync(SyncPolicy::Always)).unwrap();
            wal.append(&delta_record(1)).unwrap();
            wal.checkpoint(&database, &dictionary).unwrap();
            for i in 2..=5 {
                wal.append(&delta_record(i)).unwrap();
            }
            drop(wal);
            let path = scan_dir(dir.path(), 0).unwrap().segments.last().unwrap().path.clone();
            let bytes = fs::read(&path).unwrap();
            fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
            (dir, path)
        };
        let (apart, apart_segment) = build("rec-apart");
        let reopened = Wal::open(apart.path(), WalOptions::default()).unwrap();
        let (together, together_segment) = build("rec-together");
        let recovery = recover(together.path()).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.deltas.len(), 3, "LSNs 5-7 survive, the torn 8th does not");
        let wal = Wal::open_recovered(together.path(), WalOptions::default(), &recovery).unwrap();
        assert_eq!(
            wal.append(&delta_record(9)).unwrap(),
            reopened.append(&delta_record(9)).unwrap()
        );
        drop((wal, reopened));
        assert_eq!(fs::read(together_segment).unwrap(), fs::read(apart_segment).unwrap());
    }

    #[test]
    fn open_recovered_creates_a_fresh_directory() {
        let dir = TempDir::new("rec-open-fresh");
        let path = dir.path().join("wal");
        let recovery = recover(&path).unwrap();
        assert!(!path.exists(), "recovery never writes");
        let wal = Wal::open_recovered(&path, WalOptions::default(), &recovery).unwrap();
        assert_eq!(wal.append(&delta_record(1)).unwrap(), 1);
    }

    #[test]
    fn dict_extensions_apply_with_overlap_but_not_gaps() {
        let mut dictionary = ValueDictionary::new();
        dictionary.encode("a");
        dictionary.encode("b");
        // Overlap: extension re-states "b" then adds "c".
        apply_dict_extensions(&mut dictionary, &[(1, vec!["b".into(), "c".into()])]).unwrap();
        assert_eq!(dictionary.tokens(), ["a", "b", "c"]);
        // Gap: starts past the end.
        let err = apply_dict_extensions(&mut dictionary, &[(5, vec!["z".into()])]);
        assert!(err.is_err());
    }
}
