//! Crash-point harness for the WAL + recovery path.
//!
//! Durability's contract is a **prefix** guarantee: whatever byte the crash
//! lands on, recovery yields the base state plus some prefix of the applied
//! deltas — never a torn delta, never a reordering, never an invented row.
//! These tests enforce that contract the brute-force way:
//!
//! * cut the log at **every byte offset** and reopen, checking each
//!   recovered state against an in-memory oracle of cumulative states;
//! * crash between `CheckpointStart` and `CheckpointEnd` (with and without
//!   the snapshot file having landed) and check nothing is lost;
//! * delete or corrupt the **newest** checkpoint file and check recovery
//!   falls back to the previous one plus the retained log;
//! * property-test random delta workloads against the oracle at random cut
//!   points.

use pq_engine::{open_durable, Delta, DurabilityOptions};
use pq_relation::{Database, Relation, Schema, Value, ValueDictionary};
use pq_wal::{recover, SyncPolicy, Wal, WalOptions, WalRecord};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "pq-wal-crash-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn base() -> (Database, ValueDictionary) {
    let mut database = Database::new(1 << 12);
    database.insert(Relation::from_rows(
        Schema::from_strs("E", &["x", "y"]),
        vec![vec![1, 2]],
    ));
    (database, ValueDictionary::new())
}

/// No auto-checkpointing, no fsync stalls: the log holds exactly the
/// initial checkpoint markers plus one `DeltaApplied` per apply.
fn options() -> DurabilityOptions {
    DurabilityOptions { sync: SyncPolicy::Never, checkpoint_every: 0 }
}

/// The WAL segment files in `dir`, sorted by starting LSN (file name order).
fn segments(dir: &Path) -> Vec<PathBuf> {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".seg"))
        })
        .collect();
    segments.sort();
    segments
}

/// The checkpoint files in `dir`, sorted by covered LSN.
fn checkpoints(dir: &Path) -> Vec<PathBuf> {
    let mut checkpoints: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".ckpt"))
        })
        .collect();
    checkpoints.sort();
    checkpoints
}

/// Copy the flat WAL directory `from` into a fresh scratch directory.
fn copy_dir(from: &Path, tag: &str) -> TempDir {
    let scratch = TempDir::new(tag);
    for entry in fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        fs::copy(&path, scratch.0.join(path.file_name().unwrap())).unwrap();
    }
    scratch
}

/// The rows of relation `E` in storage (insertion) order.
fn rows_of(database: &Database) -> Vec<Value> {
    database.expect_relation("E").values().to_vec()
}

/// Apply `deltas` (each a flat `[x, y, x, y, …]` buffer) through a durable
/// engine in `dir`, returning the oracle: the flat row buffer of `E` after
/// the base and after each delta.
fn run_workload(dir: &Path, deltas: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let opened = open_durable(dir, options(), 4, Some(base())).unwrap();
    let mut oracle = vec![rows_of(opened.engine.snapshot().database())];
    for flat in deltas {
        let rows: Vec<Vec<Value>> = flat.chunks(2).map(<[_]>::to_vec).collect();
        opened.engine.apply(Delta::insert("E", rows)).unwrap();
        oracle.push(rows_of(opened.engine.snapshot().database()));
    }
    oracle
}

/// Reopen a copy of `dir` with its last segment truncated to `cut` bytes
/// and return the recovered flat row buffer of `E`.
fn recover_cut_at(dir: &Path, cut: u64, tag: &str) -> Vec<Value> {
    let scratch = copy_dir(dir, tag);
    let segment = segments(&scratch.0).pop().expect("a segment exists");
    let file = fs::OpenOptions::new().write(true).open(&segment).unwrap();
    file.set_len(cut).unwrap();
    drop(file);
    let reopened = open_durable(&scratch.0, options(), 4, None).unwrap();
    rows_of(reopened.engine.snapshot().database())
}

/// Assert `recovered` is the state after some whole number of deltas, and
/// return that number.
fn assert_is_prefix(oracle: &[Vec<Value>], recovered: &[Value]) -> usize {
    for (k, state) in oracle.iter().enumerate() {
        if state == recovered {
            return k;
        }
    }
    panic!(
        "recovered {} value(s) match no oracle state (torn delta?): {recovered:?}",
        recovered.len()
    );
}

#[test]
fn cutting_the_log_at_every_byte_recovers_a_prefix() {
    let dir = TempDir::new("sweep");
    let deltas: Vec<Vec<Value>> = (0..6u64)
        .map(|i| (0..=i).flat_map(|j| [100 + 10 * i + j, 200 + i]).collect())
        .collect();
    let oracle = run_workload(&dir.0, &deltas);

    let segment = segments(&dir.0).pop().expect("a segment exists");
    let len = fs::metadata(&segment).unwrap().len();
    assert!(len > 0, "the log holds the deltas");

    let mut last_k = 0usize;
    for cut in 0..=len {
        let recovered = recover_cut_at(&dir.0, cut, "sweep-cut");
        let k = assert_is_prefix(&oracle, &recovered);
        // Longer surviving logs never recover less.
        assert!(k >= last_k, "cut at {cut}: prefix shrank from {last_k} to {k}");
        last_k = k;
    }
    assert_eq!(last_k, deltas.len(), "an uncut log recovers everything");
}

#[test]
fn crash_between_checkpoint_start_and_end_loses_nothing() {
    // A crash right after the CheckpointStart record: no snapshot file, no
    // CheckpointEnd. Recovery must behave as if the checkpoint never began.
    let dir = TempDir::new("midckpt");
    let (database, dictionary) = base();
    {
        let wal = Wal::open(&dir.0, WalOptions::with_sync(SyncPolicy::Never)).unwrap();
        for i in 0..3u64 {
            wal.append(&WalRecord::DeltaApplied {
                inserts: vec![pq_wal::RelationInserts {
                    relation: "E".into(),
                    arity: 2,
                    rows: 1,
                    values: vec![10 + i, 20 + i],
                }],
            })
            .unwrap();
        }
        wal.append(&WalRecord::CheckpointStart).unwrap();
        // Crash: drop without writing the snapshot file or CheckpointEnd.
    }
    let recovery = recover(&dir.0).unwrap();
    assert!(recovery.checkpoint.is_none());
    assert_eq!(recovery.deltas.len(), 3, "every delta before the orphan Start survives");

    // A crash after the snapshot file landed but before CheckpointEnd: the
    // checkpoint is already usable, and later deltas replay on top of it.
    let start_lsn = 4;
    pq_wal::write_checkpoint_file(&dir.0, start_lsn, &database, &dictionary).unwrap();
    {
        let wal = Wal::open(&dir.0, WalOptions::with_sync(SyncPolicy::Never)).unwrap();
        wal.append(&WalRecord::SnapshotWritten { checkpoint_lsn: start_lsn }).unwrap();
        wal.append(&WalRecord::DeltaApplied {
            inserts: vec![pq_wal::RelationInserts {
                relation: "E".into(),
                arity: 2,
                rows: 1,
                values: vec![77, 88],
            }],
        })
        .unwrap();
        // Crash again: no CheckpointEnd, ever.
    }
    let recovery = recover(&dir.0).unwrap();
    let checkpoint = recovery.checkpoint.as_ref().expect("snapshot file is usable");
    assert_eq!(checkpoint.covered_lsn, start_lsn);
    assert_eq!(recovery.deltas.len(), 1, "only the post-snapshot delta replays");
    assert_eq!(recovery.deltas[0].inserts[0].values, [77, 88]);
}

#[test]
fn deleting_the_newest_checkpoint_falls_back_to_the_previous_one() {
    let dir = TempDir::new("delckpt");
    let opened = open_durable(&dir.0, options(), 4, Some(base())).unwrap();
    for i in 0..3u64 {
        opened.engine.apply(Delta::insert("E", vec![vec![30 + i, 40 + i]])).unwrap();
    }
    opened.engine.checkpoint().unwrap();
    opened.engine.apply(Delta::insert("E", vec![vec![50, 60]])).unwrap();
    let expected = rows_of(opened.engine.snapshot().database());
    drop(opened);

    let newest = checkpoints(&dir.0).pop().expect("two checkpoints exist");
    fs::remove_file(&newest).unwrap();
    let reopened = open_durable(&dir.0, options(), 4, None).unwrap();
    assert_eq!(
        rows_of(reopened.engine.snapshot().database()),
        expected,
        "the older checkpoint plus the retained log rebuilds the full state"
    );
}

#[test]
fn checkpoints_retire_segments_and_the_older_one_still_recovers_everything() {
    let dir = TempDir::new("rotate");
    let opened = open_durable(&dir.0, options(), 4, Some(base())).unwrap();
    for round in 0..4u64 {
        for i in 0..3 {
            // Grow the dictionary the way an INSERT does, then log the row.
            let value = opened.dictionary.write().unwrap().encode(&format!("t{round}-{i}"));
            opened.engine.apply(Delta::insert("E", vec![vec![value, 500 + round]])).unwrap();
        }
        opened.engine.checkpoint().unwrap();
        assert!(segments(&dir.0).len() <= 3, "{:?}", segments(&dir.0));
    }
    opened.engine.apply(Delta::insert("E", vec![vec![50, 60]])).unwrap();
    let expected = rows_of(opened.engine.snapshot().database());
    let tokens: Vec<String> = opened.dictionary.read().unwrap().tokens().map(String::from).collect();
    drop(opened);

    let newest = checkpoints(&dir.0).pop().expect("two checkpoints are retained");
    fs::remove_file(&newest).unwrap();
    let reopened = open_durable(&dir.0, options(), 4, None).unwrap();
    assert_eq!(rows_of(reopened.engine.snapshot().database()), expected);
    let recovered = reopened.dictionary.read().unwrap();
    assert!(recovered.tokens().eq(tokens.iter().map(String::as_str)));
}

#[test]
fn corrupt_newest_checkpoint_is_skipped_and_counted() {
    let dir = TempDir::new("badckpt");
    let opened = open_durable(&dir.0, options(), 4, Some(base())).unwrap();
    opened.engine.apply(Delta::insert("E", vec![vec![5, 6]])).unwrap();
    opened.engine.checkpoint().unwrap();
    let expected = rows_of(opened.engine.snapshot().database());
    drop(opened);

    let newest = checkpoints(&dir.0).pop().unwrap();
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&newest, bytes).unwrap();

    let reopened = open_durable(&dir.0, options(), 4, None).unwrap();
    assert_eq!(rows_of(reopened.engine.snapshot().database()), expected);
    assert_eq!(reopened.checkpoints_discarded, 1, "the mangled file was counted");
}

mod oracle_property {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Random workloads, random crash points: recovery is always the
        // base plus a whole-delta prefix, and an uncut log loses nothing.
        #[test]
        fn random_cut_recovers_a_whole_delta_prefix(
            row_counts in proptest::collection::vec(1usize..4, 1..7),
            raw_values in proptest::collection::vec(1u64..4000, 48..49),
            cut_frac in 0u64..1000,
        ) {
            let dir = TempDir::new("prop");
            let mut draw = raw_values.into_iter().cycle();
            let deltas: Vec<Vec<Value>> = row_counts
                .iter()
                .map(|rows| (0..rows * 2).map(|_| draw.next().unwrap()).collect())
                .collect();
            let oracle = run_workload(&dir.0, &deltas);

            let segment = segments(&dir.0).pop().expect("a segment exists");
            let len = fs::metadata(&segment).unwrap().len();
            let cut = (len * cut_frac) / 1000;
            let recovered = recover_cut_at(&dir.0, cut, "prop-cut");
            let k = assert_is_prefix(&oracle, &recovered);
            prop_assert!(k <= deltas.len());

            let full = recover_cut_at(&dir.0, len, "prop-full");
            prop_assert_eq!(assert_is_prefix(&oracle, &full), deltas.len());
        }
    }
}
