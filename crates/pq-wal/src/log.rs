//! The LSN'd append-only log manager: segment files, sync policies, and
//! the shared scan that both [`crate::recovery`] and [`Wal::open`] use.
//!
//! A WAL directory holds numbered **segment files** `wal-<lsn>.seg` (hex
//! first-LSN, so a lexicographic sort is an LSN sort) plus the checkpoint
//! files of [`crate::checkpoint`]. Records are appended to the newest
//! segment with one `write(2)` each — so an unclean process death loses at
//! most what the kernel had not yet accepted, never already-written
//! records — and `fsync` is governed by the [`SyncPolicy`]:
//!
//! * [`SyncPolicy::Always`] — fsync after every append: no committed
//!   record is ever lost, at ~one disk round-trip per delta;
//! * [`SyncPolicy::GroupCommit`] — fsync once per accumulated batch
//!   (bytes or records, whichever threshold trips first): bounded loss on
//!   machine crash, near-`Never` latency under load;
//! * [`SyncPolicy::Never`] — never fsync on append (the OS page cache
//!   decides): survives process crashes (`kill -9`) but not power loss.
//!
//! Explicit [`Wal::flush_up_to`] honours durability regardless of policy —
//! checkpoints and clean shutdowns use it.

use crate::checkpoint::{self, latest_checkpoint_lsn};
use crate::record::{encode_record, Lsn, RecordError, RecordReader, WalRecord};
use crate::recovery::Recovery;
use pq_obs::{Counter, Histogram, MetricsRegistry};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// When the log manager calls `fsync` on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every appended record.
    Always,
    /// fsync once per accumulated batch (see [`WalOptions`] thresholds).
    GroupCommit,
    /// Never fsync on append; only explicit flushes reach the disk.
    Never,
}

impl SyncPolicy {
    /// Parse the CLI spelling: `always`, `group-commit` (or `group`),
    /// `never`.
    pub fn parse(text: &str) -> Option<SyncPolicy> {
        match text.to_ascii_lowercase().as_str() {
            "always" => Some(SyncPolicy::Always),
            "group-commit" | "group" => Some(SyncPolicy::GroupCommit),
            "never" => Some(SyncPolicy::Never),
            _ => None,
        }
    }

    /// The canonical CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            SyncPolicy::Always => "always",
            SyncPolicy::GroupCommit => "group-commit",
            SyncPolicy::Never => "never",
        }
    }
}

/// Tunables of one [`Wal`].
#[derive(Debug, Clone)]
pub struct WalOptions {
    /// The fsync policy (default [`SyncPolicy::GroupCommit`]).
    pub sync: SyncPolicy,
    /// Rotate to a fresh segment once the active one reaches this size
    /// (default 16 MiB).
    pub segment_bytes: u64,
    /// Group-commit: fsync once this many unsynced bytes accumulate
    /// (default 64 KiB).
    pub group_commit_bytes: u64,
    /// Group-commit: fsync once this many unsynced records accumulate
    /// (default 64).
    pub group_commit_records: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            sync: SyncPolicy::GroupCommit,
            segment_bytes: 16 << 20,
            group_commit_bytes: 64 << 10,
            group_commit_records: 64,
        }
    }
}

impl WalOptions {
    /// Defaults with a different sync policy.
    pub fn with_sync(sync: SyncPolicy) -> Self {
        WalOptions { sync, ..WalOptions::default() }
    }
}

/// Name of the segment file whose first record is `start`.
pub(crate) fn segment_file_name(start: Lsn) -> String {
    format!("wal-{start:016x}.seg")
}

/// Parse a segment file name back to its first LSN.
pub(crate) fn parse_segment_name(name: &str) -> Option<Lsn> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    Lsn::from_str_radix(hex, 16).ok()
}

/// One scanned segment: the records of its valid prefix the scan was asked
/// to keep, and where that prefix ends.
#[derive(Debug)]
pub(crate) struct ScannedSegment {
    pub path: PathBuf,
    pub records: Vec<(Lsn, WalRecord)>,
    /// Byte length of the valid record prefix (file may be longer when the
    /// tail is torn).
    pub valid_bytes: usize,
    /// The framing error the scan stopped at, if any.
    pub error: Option<RecordError>,
}

/// The result of scanning a WAL directory: every decodable record in LSN
/// order from the scan's `keep_from` on, stopping at the first framing
/// error or LSN discontinuity (the torn tail — everything after it is
/// unreachable). Records before `keep_from` are validated all the same;
/// they only count toward `records` and `bytes`.
#[derive(Debug)]
pub(crate) struct Scan {
    pub segments: Vec<ScannedSegment>,
    /// LSN of the last valid record (0 when none).
    pub last_lsn: Lsn,
    /// Total valid records seen.
    pub records: u64,
    /// Total valid bytes seen.
    pub bytes: u64,
    /// True when the scan stopped early (torn tail or discontinuity).
    pub torn: bool,
}

#[cfg(test)]
impl Scan {
    /// Iterate over the kept valid records in LSN order.
    pub fn records(&self) -> impl Iterator<Item = &(Lsn, WalRecord)> {
        self.segments.iter().flat_map(|s| s.records.iter())
    }
}

/// Scan every segment of `dir` in LSN order, keeping the records from LSN
/// `keep_from` on. Never modifies anything — [`Wal::open`] is the
/// destructive counterpart that truncates what this scan rejects.
pub(crate) fn scan_dir(dir: &Path, keep_from: Lsn) -> io::Result<Scan> {
    let mut starts: Vec<(Lsn, PathBuf)> = Vec::new();
    if dir.is_dir() {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(start) = entry.file_name().to_str().and_then(parse_segment_name) {
                starts.push((start, entry.path()));
            }
        }
    }
    starts.sort();
    let mut scan =
        Scan { segments: Vec::new(), last_lsn: 0, records: 0, bytes: 0, torn: false };
    for (_, path) in starts {
        if scan.torn {
            // Everything after a torn segment is unreachable: report it as
            // an (empty) segment so open() can delete it, decode nothing.
            scan.segments.push(ScannedSegment {
                path,
                records: Vec::new(),
                valid_bytes: 0,
                error: None,
            });
            continue;
        }
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        let mut reader = RecordReader::new(&bytes);
        let mut segment = ScannedSegment {
            path,
            records: Vec::new(),
            valid_bytes: 0,
            error: None,
        };
        loop {
            match reader.next_from(keep_from) {
                Ok(Some((lsn, record))) => {
                    if scan.last_lsn != 0 && lsn != scan.last_lsn + 1 {
                        // An LSN discontinuity is as terminal as a bad CRC:
                        // the continuous prefix ends here.
                        segment.error = Some(RecordError::Malformed(format!(
                            "LSN {lsn} after {}; log is not continuous",
                            scan.last_lsn
                        )));
                        scan.torn = true;
                        break;
                    }
                    scan.last_lsn = lsn;
                    scan.records += 1;
                    segment.records.extend(record.map(|record| (lsn, record)));
                    segment.valid_bytes = reader.offset();
                }
                Ok(None) => break,
                Err(error) => {
                    segment.error = Some(error);
                    scan.torn = true;
                    break;
                }
            }
        }
        scan.bytes += segment.valid_bytes as u64;
        scan.segments.push(segment);
    }
    Ok(scan)
}

/// Create `dir` if needed and sweep the `.tmp` files of checkpoints
/// interrupted mid-write: the first step of opening a log for appending.
fn prepare_dir(dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    checkpoint::remove_stale_tmp_files(dir);
    Ok(())
}

/// Best-effort directory fsync (makes file creations/renames durable on
/// unix; a no-op error elsewhere is ignored).
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(handle) = File::open(dir) {
        let _ = handle.sync_all();
    }
}

/// Pre-resolved metric handles (attached via [`Wal::set_registry`]).
#[derive(Debug)]
struct WalObs {
    records_total: Counter,
    bytes_total: Counter,
    fsyncs_total: Counter,
    fsync_micros: Histogram,
    checkpoints_total: Counter,
    segments_removed_total: Counter,
}

/// Mutable log state behind the [`Wal`]'s lock.
#[derive(Debug)]
struct LogState {
    file: File,
    segment_path: PathBuf,
    segment_len: u64,
    next_lsn: Lsn,
    /// Every record with LSN ≤ this has been fsynced.
    synced_lsn: Lsn,
    unsynced_bytes: u64,
    unsynced_records: u64,
}

/// The write-ahead log manager: an opened WAL directory accepting
/// appends, flushes and checkpoints. Thread-safe (appends serialise on an
/// internal lock); cheap to share behind an `Arc`.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    options: WalOptions,
    state: Mutex<LogState>,
    obs: OnceLock<WalObs>,
}

fn lock<'a>(state: &'a Mutex<LogState>) -> MutexGuard<'a, LogState> {
    state.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Wal {
    /// Open (or create) the WAL in `dir` for appending.
    ///
    /// Scans the existing segments, **truncates** the torn tail (the first
    /// record with a bad checksum, short frame or LSN discontinuity, and
    /// everything after it — exactly what recovery refuses to replay) and
    /// positions the next LSN after the last valid record, or after the
    /// newest checkpoint when the log is empty.
    pub fn open(dir: impl Into<PathBuf>, options: WalOptions) -> io::Result<Wal> {
        let dir = dir.into();
        prepare_dir(&dir)?;
        // Opening needs where the valid log ends, not its records.
        let scan = scan_dir(&dir, Lsn::MAX)?;
        Wal::open_scanned(dir, options, &scan)
    }

    /// [`Wal::open`] for the directory `recovery` was just read from by
    /// [`crate::recover`]: the log is truncated and positioned from the
    /// scan recovery already made, so a restart reads the log once. The
    /// directory must not have changed in between.
    pub fn open_recovered(
        dir: impl Into<PathBuf>,
        options: WalOptions,
        recovery: &Recovery,
    ) -> io::Result<Wal> {
        let dir = dir.into();
        prepare_dir(&dir)?;
        Wal::open_scanned(dir, options, &recovery.log)
    }

    fn open_scanned(dir: PathBuf, options: WalOptions, scan: &Scan) -> io::Result<Wal> {
        // Truncate the invalid tail so re-appended LSNs can never collide
        // with unreadable leftovers.
        let mut torn_seen = false;
        let mut keep: Vec<&ScannedSegment> = Vec::new();
        for segment in &scan.segments {
            if torn_seen {
                fs::remove_file(&segment.path)?;
                continue;
            }
            if segment.error.is_some() {
                torn_seen = true;
                if segment.valid_bytes == 0 {
                    fs::remove_file(&segment.path)?;
                    continue;
                }
                let file = OpenOptions::new().write(true).open(&segment.path)?;
                file.set_len(segment.valid_bytes as u64)?;
                file.sync_all()?;
            }
            keep.push(segment);
        }
        let next_lsn = scan.last_lsn.max(latest_checkpoint_lsn(&dir)) + 1;
        // Append to the last kept segment when it has room, else start a
        // fresh one.
        let (segment_path, segment_len) = match keep.last() {
            Some(last) if (last.valid_bytes as u64) < options.segment_bytes => {
                (last.path.clone(), last.valid_bytes as u64)
            }
            _ => (dir.join(segment_file_name(next_lsn)), 0),
        };
        let file = OpenOptions::new().create(true).append(true).open(&segment_path)?;
        sync_dir(&dir);
        Ok(Wal {
            dir,
            options,
            state: Mutex::new(LogState {
                file,
                segment_path,
                segment_len,
                next_lsn,
                synced_lsn: next_lsn - 1,
                unsynced_bytes: 0,
                unsynced_records: 0,
            }),
            obs: OnceLock::new(),
        })
    }

    /// The WAL directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured options.
    pub fn options(&self) -> &WalOptions {
        &self.options
    }

    /// Resolve metric handles against `registry` (first call wins):
    /// `pq_wal_records_total`, `pq_wal_bytes_total`, `pq_wal_fsyncs_total`,
    /// `pq_wal_fsync_micros`, `pq_wal_checkpoints_total`,
    /// `pq_wal_segments_removed_total`.
    pub fn set_registry(&self, registry: &MetricsRegistry) {
        let _ = self.obs.set(WalObs {
            records_total: registry.counter(
                "pq_wal_records_total",
                &[],
                "Records appended to the write-ahead log",
            ),
            bytes_total: registry.counter(
                "pq_wal_bytes_total",
                &[],
                "Bytes appended to the write-ahead log",
            ),
            fsyncs_total: registry.counter(
                "pq_wal_fsyncs_total",
                &[],
                "fsync calls issued by the log manager",
            ),
            fsync_micros: registry.histogram(
                "pq_wal_fsync_micros",
                &[],
                "Latency of log-manager fsync calls",
            ),
            checkpoints_total: registry.counter(
                "pq_wal_checkpoints_total",
                &[],
                "Checkpoints completed",
            ),
            segments_removed_total: registry.counter(
                "pq_wal_segments_removed_total",
                &[],
                "Dead segment files truncated by checkpoints",
            ),
        });
    }

    /// LSN of the most recently appended record (0 when the log is empty).
    pub fn last_lsn(&self) -> Lsn {
        lock(&self.state).next_lsn - 1
    }

    /// LSN of the most recent record known durable (fsynced).
    pub fn synced_lsn(&self) -> Lsn {
        lock(&self.state).synced_lsn
    }

    /// Append one record; returns its LSN. Durability follows the
    /// [`SyncPolicy`].
    pub fn append(&self, record: &WalRecord) -> io::Result<Lsn> {
        self.append_all(std::slice::from_ref(record))
    }

    /// Append several records as one batch (one write, at most one fsync);
    /// returns the LSN of the **last** record. An empty batch returns the
    /// current last LSN.
    pub fn append_all(&self, records: &[WalRecord]) -> io::Result<Lsn> {
        let mut state = lock(&self.state);
        if records.is_empty() {
            return Ok(state.next_lsn - 1);
        }
        if state.segment_len >= self.options.segment_bytes {
            self.rotate(&mut state)?;
        }
        let mut buf = Vec::new();
        for (lsn, record) in (state.next_lsn..).zip(records) {
            if encode_record(record, lsn, &mut buf) == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("a {} record too large for the log format", record.kind()),
                ));
            }
        }
        state.next_lsn += records.len() as u64;
        state.file.write_all(&buf)?;
        state.segment_len += buf.len() as u64;
        state.unsynced_bytes += buf.len() as u64;
        state.unsynced_records += records.len() as u64;
        let must_sync = match self.options.sync {
            SyncPolicy::Always => true,
            SyncPolicy::GroupCommit => {
                state.unsynced_bytes >= self.options.group_commit_bytes
                    || state.unsynced_records >= self.options.group_commit_records
            }
            SyncPolicy::Never => false,
        };
        if must_sync {
            self.fsync(&mut state)?;
        }
        if let Some(obs) = self.obs.get() {
            obs.records_total.add(records.len() as u64);
            obs.bytes_total.add(buf.len() as u64);
        }
        Ok(state.next_lsn - 1)
    }

    /// Make every record with LSN ≤ `lsn` durable, regardless of policy.
    pub fn flush_up_to(&self, lsn: Lsn) -> io::Result<()> {
        let mut state = lock(&self.state);
        if lsn <= state.synced_lsn {
            return Ok(());
        }
        self.fsync(&mut state)
    }

    /// fsync the active segment (rotation keeps earlier segments synced).
    fn fsync(&self, state: &mut LogState) -> io::Result<()> {
        let start = Instant::now();
        state.file.sync_data()?;
        state.synced_lsn = state.next_lsn - 1;
        state.unsynced_bytes = 0;
        state.unsynced_records = 0;
        if let Some(obs) = self.obs.get() {
            obs.fsyncs_total.inc();
            obs.fsync_micros.observe_micros(start.elapsed());
        }
        Ok(())
    }

    /// Close the active segment (fsynced regardless of policy, so only the
    /// active segment is ever unsynced) and start a fresh one.
    fn rotate(&self, state: &mut LogState) -> io::Result<()> {
        self.fsync(state)?;
        let path = self.dir.join(segment_file_name(state.next_lsn));
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        sync_dir(&self.dir);
        state.file = file;
        state.segment_path = path;
        state.segment_len = 0;
        Ok(())
    }

    /// Write a full checkpoint of `database` + `dictionary` and truncate
    /// what it makes dead. Returns the covered LSN.
    ///
    /// The sequence is crash-safe at every step — recovery falls back to
    /// the previous checkpoint until the new one is durably renamed:
    ///
    /// 1. append `CheckpointStart` (its LSN `C` is what the snapshot
    ///    covers) and flush the log up to `C`;
    /// 2. serialise the snapshot to `ckpt-C.tmp`, fsync, rename to its
    ///    final name, fsync the directory;
    /// 3. append `SnapshotWritten(C)` + `CheckpointEnd(C)`;
    /// 4. retain the two newest checkpoints, delete older ones and every
    ///    segment fully covered by the **older retained** checkpoint — so
    ///    even losing the newest checkpoint file entirely still recovers
    ///    the full state from the older one plus the retained log.
    ///
    /// The caller must guarantee `database`/`dictionary` reflect every
    /// record up to `C` and that no concurrent append interleaves (the
    /// engine holds its update lock across checkpoints).
    pub fn checkpoint(
        &self,
        database: &pq_relation::Database,
        dictionary: &pq_relation::ValueDictionary,
    ) -> io::Result<Lsn> {
        let covered = self.append(&WalRecord::CheckpointStart)?;
        self.flush_up_to(covered)?;
        checkpoint::write_checkpoint_file(&self.dir, covered, database, dictionary)?;
        self.append(&WalRecord::SnapshotWritten { checkpoint_lsn: covered })?;
        let end = self.append(&WalRecord::CheckpointEnd { checkpoint_lsn: covered })?;
        self.flush_up_to(end)?;
        let removed = self.truncate_dead(covered)?;
        if let Some(obs) = self.obs.get() {
            obs.checkpoints_total.inc();
            obs.segments_removed_total.add(removed);
        }
        Ok(covered)
    }

    /// Retention after a checkpoint at `covered`: keep the two newest
    /// checkpoint files, then delete every segment whose records are all
    /// covered by the **older** retained checkpoint. Returns the number of
    /// removed segments.
    fn truncate_dead(&self, covered: Lsn) -> io::Result<u64> {
        let mut checkpoints = checkpoint::list_checkpoints(&self.dir)?;
        checkpoints.retain(|&(lsn, _)| lsn <= covered);
        // Newest last; keep the last two.
        let keep_from = checkpoints.len().saturating_sub(2);
        for (_, path) in checkpoints.drain(..keep_from) {
            let _ = fs::remove_file(path);
        }
        let horizon = checkpoints.first().map_or(0, |&(lsn, _)| lsn);
        if horizon == 0 {
            return Ok(0);
        }
        // A segment is dead when the *next* segment starts at or before
        // horizon + 1 — then every record in it has LSN ≤ horizon. The
        // active segment is never dead (there is no next one).
        let mut starts: Vec<(Lsn, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(start) = entry.file_name().to_str().and_then(parse_segment_name) {
                starts.push((start, entry.path()));
            }
        }
        starts.sort();
        let mut removed = 0;
        let state = lock(&self.state);
        for window in starts.windows(2) {
            let (_, path) = &window[0];
            let (next_start, _) = window[1];
            if next_start <= horizon + 1 && *path != state.segment_path {
                fs::remove_file(path)?;
                removed += 1;
            }
        }
        drop(state);
        if removed > 0 {
            sync_dir(&self.dir);
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RelationInserts;
    use crate::testutil::TempDir;

    fn delta(n: u64) -> WalRecord {
        WalRecord::DeltaApplied {
            inserts: vec![RelationInserts {
                relation: "R".into(),
                arity: 2,
                rows: 1,
                values: vec![n, n + 1],
            }],
        }
    }

    #[test]
    fn append_scan_round_trips_across_reopen() {
        let dir = TempDir::new("log-roundtrip");
        {
            let wal = Wal::open(dir.path(), WalOptions::default()).unwrap();
            for i in 0..10 {
                assert_eq!(wal.append(&delta(i)).unwrap(), i + 1);
            }
            assert_eq!(wal.last_lsn(), 10);
        }
        let scan = scan_dir(dir.path(), 0).unwrap();
        assert_eq!(scan.records, 10);
        assert!(!scan.torn);
        // Reopen appends after the existing records.
        let wal = Wal::open(dir.path(), WalOptions::default()).unwrap();
        assert_eq!(wal.append(&delta(99)).unwrap(), 11);
    }

    #[test]
    fn rotation_splits_segments_and_scan_reads_across_them() {
        let dir = TempDir::new("log-rotate");
        let options = WalOptions { segment_bytes: 128, ..WalOptions::default() };
        let wal = Wal::open(dir.path(), options).unwrap();
        for i in 0..20 {
            wal.append(&delta(i)).unwrap();
        }
        drop(wal);
        let scan = scan_dir(dir.path(), 0).unwrap();
        assert!(scan.segments.len() > 1, "expected several segments");
        assert_eq!(scan.records, 20);
        assert_eq!(scan.last_lsn, 20);
        let lsns: Vec<Lsn> = scan.records().map(|&(lsn, _)| lsn).collect();
        assert_eq!(lsns, (1..=20).collect::<Vec<_>>());
    }

    #[test]
    fn sync_policies_track_the_synced_lsn() {
        let dir = TempDir::new("log-sync");
        let wal = Wal::open(dir.path(), WalOptions::with_sync(SyncPolicy::Always)).unwrap();
        wal.append(&delta(1)).unwrap();
        assert_eq!(wal.synced_lsn(), 1, "always syncs immediately");
        drop(wal);

        let dir = TempDir::new("log-sync-never");
        let wal = Wal::open(dir.path(), WalOptions::with_sync(SyncPolicy::Never)).unwrap();
        wal.append(&delta(1)).unwrap();
        assert_eq!(wal.synced_lsn(), 0, "never does not sync on append");
        wal.flush_up_to(1).unwrap();
        assert_eq!(wal.synced_lsn(), 1, "explicit flush is honoured");

        let dir = TempDir::new("log-sync-group");
        let options = WalOptions { group_commit_records: 3, ..WalOptions::default() };
        let wal = Wal::open(dir.path(), options).unwrap();
        wal.append(&delta(1)).unwrap();
        wal.append(&delta(2)).unwrap();
        assert_eq!(wal.synced_lsn(), 0, "below the group threshold");
        wal.append(&delta(3)).unwrap();
        assert_eq!(wal.synced_lsn(), 3, "the batch tripped the threshold");
    }

    #[test]
    fn open_truncates_a_torn_tail_and_later_segments() {
        let dir = TempDir::new("log-torn");
        let options = WalOptions { segment_bytes: 128, ..WalOptions::default() };
        {
            let wal = Wal::open(dir.path(), options.clone()).unwrap();
            for i in 0..20 {
                wal.append(&delta(i)).unwrap();
            }
        }
        let scan = scan_dir(dir.path(), 0).unwrap();
        assert!(scan.segments.len() >= 3, "need a middle segment to corrupt");
        // Chop the middle segment mid-record: everything after is dead.
        let middle = &scan.segments[1];
        let cut = middle.valid_bytes - 3;
        let file = OpenOptions::new().write(true).open(&middle.path).unwrap();
        file.set_len(cut as u64).unwrap();
        drop(file);
        let survivors = scan.segments[0].records.len() + middle.records.len() - 1;

        let wal = Wal::open(dir.path(), options).unwrap();
        let rescan = scan_dir(dir.path(), 0).unwrap();
        assert!(!rescan.torn, "open() removed the torn tail");
        assert_eq!(rescan.records as usize, survivors);
        assert_eq!(wal.last_lsn(), survivors as Lsn);
        // And the log accepts appends again, continuing the LSN sequence.
        assert_eq!(wal.append(&delta(0)).unwrap(), survivors as Lsn + 1);
    }

    #[test]
    fn append_all_is_one_batch() {
        let dir = TempDir::new("log-batch");
        let options = WalOptions { group_commit_records: 2, ..WalOptions::default() };
        let wal = Wal::open(dir.path(), options).unwrap();
        let records = [delta(1), delta(2), delta(3)];
        assert_eq!(wal.append_all(&records).unwrap(), 3);
        assert_eq!(wal.synced_lsn(), 3, "one fsync for the whole batch");
        assert_eq!(wal.append_all(&[]).unwrap(), 3, "empty batch is a no-op");
    }
}
