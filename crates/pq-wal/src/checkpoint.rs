//! Checkpoint files: a full serialised snapshot of the database (every
//! relation's flat row buffer) plus the shared value dictionary, so
//! recovery replays only the log suffix after the covered LSN.
//!
//! File format (`ckpt-<lsn>.ckpt`, hex covered-LSN in the name):
//!
//! ```text
//! [ magic "PQCKPT1\n" ]
//! [ covered_lsn u64 ][ domain_size u64 ]
//! [ nrel u32 ]
//!   per relation: [ name str ][ arity u32 ][ attribute str × arity ]
//!                 [ rows u64 ][ rows·arity·8 bytes of LE row values ]
//! [ ntokens u64 ][ token str × ntokens ]
//! [ crc32 of everything above, u32 LE ]
//! ```
//!
//! where `str` is `[len u32 LE][utf8]`: each relation is a schema and a
//! row block of [`pq_relation::wire`], whose reader also rejects a schema
//! naming an attribute twice. Files are written to a `.tmp` sibling,
//! fsynced and atomically renamed — a crash mid-write leaves only a `.tmp`
//! that [`crate::Wal::open`] sweeps away, never a half-valid checkpoint
//! under the real name.

use crate::crc::crc32;
use crate::record::Lsn;
use pq_relation::wire::{put_count, put_rows, put_schema, put_str, put_u32, put_u64, Prefix};
use pq_relation::wire::{ReadError, Reader};
use pq_relation::{Database, ValueDictionary};
use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"PQCKPT1\n";

/// Name of the checkpoint file covering `lsn`.
pub fn checkpoint_file_name(lsn: Lsn) -> String {
    format!("ckpt-{lsn:016x}.ckpt")
}

/// Parse a checkpoint file name back to its covered LSN.
pub(crate) fn parse_checkpoint_name(name: &str) -> Option<Lsn> {
    let hex = name.strip_prefix("ckpt-")?.strip_suffix(".ckpt")?;
    Lsn::from_str_radix(hex, 16).ok()
}

/// All checkpoint files of `dir`, oldest first.
pub(crate) fn list_checkpoints(dir: &Path) -> io::Result<Vec<(Lsn, PathBuf)>> {
    let mut found = Vec::new();
    if dir.is_dir() {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(lsn) = entry.file_name().to_str().and_then(parse_checkpoint_name) {
                found.push((lsn, entry.path()));
            }
        }
    }
    found.sort();
    Ok(found)
}

/// Covered LSN of the newest checkpoint file (by name; 0 when none).
pub(crate) fn latest_checkpoint_lsn(dir: &Path) -> Lsn {
    list_checkpoints(dir).ok().and_then(|list| list.last().map(|&(lsn, _)| lsn)).unwrap_or(0)
}

/// Delete leftover `.tmp` files from checkpoints interrupted mid-write.
pub(crate) fn remove_stale_tmp_files(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        if entry.file_name().to_str().is_some_and(|n| n.ends_with(".tmp")) {
            let _ = fs::remove_file(entry.path());
        }
    }
}

/// A loaded checkpoint: the state as of `covered_lsn`.
#[derive(Debug)]
pub struct Checkpoint {
    /// Every record with LSN ≤ this is reflected in `database`.
    pub covered_lsn: Lsn,
    /// The reconstructed database.
    pub database: Database,
    /// The reconstructed value dictionary.
    pub dictionary: ValueDictionary,
}

/// Why a checkpoint file could not be loaded. Recovery treats `Corrupt` as
/// "fall back to the previous checkpoint"; `Io` aborts.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read.
    Io(io::Error),
    /// The file content is invalid (bad magic, checksum or structure).
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Corrupt(why) => write!(f, "corrupt checkpoint: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<ReadError> for CheckpointError {
    fn from(e: ReadError) -> Self {
        CheckpointError::Corrupt(e.to_string())
    }
}

/// Serialise `database` + `dictionary` as the checkpoint covering
/// `covered_lsn`, atomically (tmp + fsync + rename + dir fsync). Returns
/// the final path.
pub fn write_checkpoint_file(
    dir: &Path,
    covered_lsn: Lsn,
    database: &Database,
    dictionary: &ValueDictionary,
) -> io::Result<PathBuf> {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(MAGIC);
    put_u64(&mut bytes, covered_lsn);
    put_u64(&mut bytes, database.domain_size());
    put_count(&mut bytes, Prefix::U32, database.num_relations())?;
    for (_, relation) in database.relation_arcs() {
        put_schema(&mut bytes, Prefix::U32, relation.schema())?;
        put_rows(&mut bytes, relation.len(), relation.values());
    }
    put_u64(&mut bytes, dictionary.len() as u64);
    for token in dictionary.tokens() {
        put_str(&mut bytes, Prefix::U32, token)?;
    }
    let checksum = crc32(&bytes);
    put_u32(&mut bytes, checksum);

    let final_path = dir.join(checkpoint_file_name(covered_lsn));
    let tmp_path = dir.join(format!("{}.tmp", checkpoint_file_name(covered_lsn)));
    let mut file = OpenOptions::new().create(true).truncate(true).write(true).open(&tmp_path)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp_path, &final_path)?;
    crate::log::sync_dir(dir);
    Ok(final_path)
}

/// Load and verify one checkpoint file.
pub fn load_checkpoint_file(path: &Path) -> Result<Checkpoint, CheckpointError> {
    let bytes = fs::read(path)?;
    if bytes.len() < MAGIC.len() + 4 {
        return Err(CheckpointError::Corrupt(format!("{} byte(s) is too short", bytes.len())));
    }
    if &bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic".into()));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(tail.try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stored != computed {
        return Err(CheckpointError::Corrupt(format!(
            "checksum mismatch: file says {stored:#010x}, content is {computed:#010x}"
        )));
    }
    let mut r = Reader::new(&body[MAGIC.len()..]);
    let covered_lsn = r.u64("checkpoint.lsn")?;
    let mut database = Database::new(r.u64("checkpoint.domain_size")?);
    for _ in 0..r.count(Prefix::U32, "checkpoint.relations")? {
        database.insert(r.relation(Prefix::U32, "checkpoint.relation", |_| Vec::new())?);
    }
    // Each token is appended from the file's bytes straight into the
    // dictionary's arena. A token takes at least its 4-byte length, which
    // bounds the reservation a hostile count can ask for.
    let tokens = r.u64("checkpoint.tokens")?;
    let mut dictionary = ValueDictionary::new();
    let bound = usize::try_from(tokens).unwrap_or(usize::MAX).min(r.remaining() / 4);
    dictionary.reserve(bound, r.remaining() - 4 * bound);
    for _ in 0..tokens {
        let token = r.str_ref(Prefix::U32, "checkpoint.token")?;
        dictionary.push_new(token).map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
    }
    r.finish("checkpoint.body")?;
    Ok(Checkpoint { covered_lsn, database, dictionary })
}

/// Load the newest checkpoint of `dir` that verifies, discarding corrupt
/// ones from newest to oldest. Returns the checkpoint (if any) and how many
/// corrupt files were skipped.
pub fn load_latest_checkpoint(dir: &Path) -> io::Result<(Option<Checkpoint>, u64)> {
    let mut discarded = 0;
    for (_, path) in list_checkpoints(dir)?.into_iter().rev() {
        match load_checkpoint_file(&path) {
            Ok(checkpoint) => return Ok((Some(checkpoint), discarded)),
            Err(CheckpointError::Io(e)) if e.kind() == io::ErrorKind::NotFound => discarded += 1,
            Err(CheckpointError::Io(e)) => return Err(e),
            Err(CheckpointError::Corrupt(_)) => discarded += 1,
        }
    }
    Ok((None, discarded))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use pq_relation::{Relation, Schema};

    fn sample_state() -> (Database, ValueDictionary) {
        let mut dictionary = ValueDictionary::new();
        let a = dictionary.encode("alice");
        let b = dictionary.encode("bob");
        let c = dictionary.encode("carol");
        let mut database = Database::new(16);
        database.insert(Relation::from_rows(
            Schema::from_strs("E", &["x", "y"]),
            vec![vec![a, b], vec![b, c], vec![c, a]],
        ));
        database.insert(Relation::from_rows(Schema::from_strs("V", &["x"]), vec![vec![a]]));
        (database, dictionary)
    }

    #[test]
    fn checkpoint_round_trips() {
        let dir = TempDir::new("ckpt-roundtrip");
        let (database, dictionary) = sample_state();
        let path = write_checkpoint_file(dir.path(), 42, &database, &dictionary).unwrap();
        let loaded = load_checkpoint_file(&path).unwrap();
        assert_eq!(loaded.covered_lsn, 42);
        assert_eq!(loaded.dictionary, dictionary);
        assert_eq!(loaded.database.domain_size(), 16);
        assert_eq!(loaded.database.relation_names(), vec!["E", "V"]);
        let e = loaded.database.expect_relation("E");
        assert_eq!(e.len(), 3);
        assert_eq!(e.values(), database.expect_relation("E").values());
        assert_eq!(e.schema().attributes(), ["x", "y"]);
    }

    #[test]
    fn every_byte_flip_is_detected() {
        let dir = TempDir::new("ckpt-flip");
        let (database, dictionary) = sample_state();
        let path = write_checkpoint_file(dir.path(), 7, &database, &dictionary).unwrap();
        let clean = fs::read(&path).unwrap();
        for i in (0..clean.len()).step_by(7) {
            let mut mangled = clean.clone();
            mangled[i] ^= 0x40;
            fs::write(&path, &mangled).unwrap();
            assert!(
                matches!(load_checkpoint_file(&path), Err(CheckpointError::Corrupt(_))),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let dir = TempDir::new("ckpt-trunc");
        let (database, dictionary) = sample_state();
        let path = write_checkpoint_file(dir.path(), 7, &database, &dictionary).unwrap();
        let clean = fs::read(&path).unwrap();
        for cut in [0, 1, MAGIC.len(), clean.len() / 2, clean.len() - 1] {
            fs::write(&path, &clean[..cut]).unwrap();
            assert!(
                matches!(load_checkpoint_file(&path), Err(CheckpointError::Corrupt(_))),
                "truncation to {cut} byte(s) went undetected"
            );
        }
    }

    #[test]
    fn latest_falls_back_over_corrupt_checkpoints() {
        let dir = TempDir::new("ckpt-fallback");
        let (database, dictionary) = sample_state();
        write_checkpoint_file(dir.path(), 5, &database, &dictionary).unwrap();
        let newest = write_checkpoint_file(dir.path(), 9, &database, &dictionary).unwrap();
        fs::write(&newest, b"garbage").unwrap();
        let (loaded, discarded) = load_latest_checkpoint(dir.path()).unwrap();
        assert_eq!(loaded.unwrap().covered_lsn, 5);
        assert_eq!(discarded, 1);
        // With no valid checkpoint at all: None, both discarded.
        let older = dir.path().join(checkpoint_file_name(5));
        fs::write(&older, b"also garbage").unwrap();
        let (loaded, discarded) = load_latest_checkpoint(dir.path()).unwrap();
        assert!(loaded.is_none());
        assert_eq!(discarded, 2);
    }

    #[test]
    fn checkpoint_file_keeps_its_encoding() {
        // FNV-1a over every byte of the file, magic and CRC included.
        let digest = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let dir = TempDir::new("ckpt-golden");
        let (database, dictionary) = sample_state();
        let path = write_checkpoint_file(dir.path(), 42, &database, &dictionary).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 170);
        assert_eq!(digest(&bytes), 0x5952_0f4d_187b_6c21);
    }

    #[test]
    fn a_resealed_repeated_attribute_falls_back_to_the_older_checkpoint() {
        let dir = TempDir::new("ckpt-dup-attr");
        let (database, dictionary) = sample_state();
        write_checkpoint_file(dir.path(), 5, &database, &dictionary).unwrap();
        let newest = write_checkpoint_file(dir.path(), 9, &database, &dictionary).unwrap();
        // Rename E's second attribute `y` to `x` (same length), then reseal
        // the CRC so the body decoder, not the checksum, has to catch it.
        let mut bytes = fs::read(&newest).unwrap();
        let attributes = [1, 0, 0, 0, b'x', 1, 0, 0, 0, b'y'];
        let at = bytes.windows(attributes.len()).position(|w| w == attributes).unwrap();
        bytes[at + attributes.len() - 1] = b'x';
        let body = bytes.len() - 4;
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        fs::write(&newest, &bytes).unwrap();
        assert!(matches!(load_checkpoint_file(&newest), Err(CheckpointError::Corrupt(_))));
        let (loaded, discarded) = load_latest_checkpoint(dir.path()).unwrap();
        assert_eq!(loaded.unwrap().covered_lsn, 5);
        assert_eq!(discarded, 1);
    }

    #[test]
    fn empty_database_round_trips() {
        let dir = TempDir::new("ckpt-empty");
        let database = Database::new(4);
        let dictionary = ValueDictionary::new();
        let path = write_checkpoint_file(dir.path(), 1, &database, &dictionary).unwrap();
        let loaded = load_checkpoint_file(&path).unwrap();
        assert_eq!(loaded.database.num_relations(), 0);
        assert!(loaded.dictionary.is_empty());
    }
}
