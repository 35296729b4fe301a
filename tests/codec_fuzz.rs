//! One structural fuzz property over the three binary decoders that read
//! bytes the process does not control: worker frames (`read_frame`), WAL
//! records (`RecordReader`) and checkpoint files (`load_checkpoint_file`).
//!
//! Each case mangles a valid encoding — truncates it, flips a byte,
//! splices one stretch of it over another, or inflates a would-be length
//! or count field — and, for the two CRC-sealed formats, recomputes the
//! checksum afterwards so the body decoder runs rather than stopping at
//! the checksum. The decoder must then return a typed error or a clean
//! decode; it must never panic. A clean frame or WAL decode must also
//! re-encode to exactly the bytes it consumed.

use pq_mpc::net::{read_frame, write_frame, Frame};
use pq_relation::{Database, Relation, Schema, ValueDictionary};
use pq_wal::{
    crc32, encode_record, load_checkpoint_file, write_checkpoint_file, CheckpointError,
    RecordReader, RelationInserts, WalRecord,
};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};

fn nullary(name: &str, rows: usize) -> Relation {
    let mut relation = Relation::empty(Schema::from_strs(name, &[]));
    for _ in 0..rows {
        relation.push_row(&[]);
    }
    relation
}

fn frames() -> Vec<Vec<u8>> {
    let frames = [
        Frame::Hello {
            worker: 1,
            workers: 3,
            bits_per_value: 12,
        },
        Frame::Fragment {
            round: 1,
            relation: Relation::from_rows(
                Schema::from_strs("R", &["x", "y"]),
                vec![vec![1, 2], vec![3, 4], vec![u64::MAX, 0]],
            ),
        },
        Frame::Fragment {
            round: 2,
            relation: nullary("N", 3),
        },
        Frame::Execute {
            round: 1,
            name: "Q".into(),
            output_vars: vec!["x".into(), "y".into()],
            atoms: vec![
                ("R".into(), vec!["x".into(), "y".into()]),
                ("S".into(), vec!["y".into()]),
            ],
        },
        Frame::Answer {
            round: 1,
            bytes_received: 99,
            relation: Relation::from_rows(Schema::from_strs("Q", &["x"]), vec![vec![7]]),
        },
        Frame::Error {
            message: "worker failed".into(),
        },
        Frame::Ping { nonce: 5 },
    ];
    frames
        .iter()
        .map(|frame| {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, frame).expect("encodes");
            bytes
        })
        .collect()
}

fn records() -> Vec<Vec<u8>> {
    let records = [
        WalRecord::DeltaApplied {
            inserts: vec![
                RelationInserts {
                    relation: "E".into(),
                    arity: 2,
                    rows: 2,
                    values: vec![1, 2, 3, 4],
                },
                RelationInserts {
                    relation: "N".into(),
                    arity: 0,
                    rows: 2,
                    values: vec![],
                },
            ],
        },
        WalRecord::CheckpointStart,
        WalRecord::SnapshotWritten { checkpoint_lsn: 3 },
        WalRecord::CheckpointEnd { checkpoint_lsn: 3 },
        WalRecord::DictExtend {
            first_id: 2,
            tokens: vec!["ann".into(), "bo".into()],
        },
    ];
    (1..)
        .zip(&records)
        .map(|(lsn, record)| {
            let mut bytes = Vec::new();
            encode_record(record, lsn, &mut bytes);
            bytes
        })
        .collect()
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pq-codec-fuzz-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn checkpoint() -> Vec<u8> {
    let mut dictionary = ValueDictionary::new();
    let a = dictionary.encode("a");
    let b = dictionary.encode("b");
    let mut database = Database::new(8);
    database.insert(Relation::from_rows(
        Schema::from_strs("E", &["x", "y"]),
        vec![vec![a, b], vec![b, a]],
    ));
    database.insert(nullary("N", 2));
    let dir = scratch_dir();
    let path = write_checkpoint_file(&dir, 1, &database, &dictionary).expect("writes");
    let bytes = fs::read(&path).expect("reads back");
    fs::remove_file(path).expect("removes");
    bytes
}

/// One structural mangling of an encoding.
#[derive(Debug, Clone, Copy)]
enum Mangle {
    /// Keep only the first `at` bytes.
    Truncate,
    /// XOR one byte with a single-bit or all-bits mask.
    Flip,
    /// Copy a short stretch of the encoding over another one.
    Splice,
    /// Treat 2, 4 or 8 bytes as a little-endian length or count and grow it.
    Inflate,
}

const MANGLES: [Mangle; 4] = [
    Mangle::Truncate,
    Mangle::Flip,
    Mangle::Splice,
    Mangle::Inflate,
];

fn mangle(bytes: &mut Vec<u8>, how: Mangle, at: usize, to: usize, value: u64) {
    let len = bytes.len();
    if len == 0 {
        return;
    }
    match how {
        Mangle::Truncate => bytes.truncate(at % len),
        Mangle::Flip => bytes[at % len] ^= [0x01, 0x02, 0x40, 0xFF][(value % 4) as usize],
        Mangle::Splice => {
            let n = 1 + (value as usize % 12).min(len - 1);
            let (src, dst) = (at % (len - n + 1), to % (len - n + 1));
            bytes.copy_within(src..src + n, dst);
        }
        Mangle::Inflate => {
            let width = [2, 4, 8][(value % 3) as usize].min(len);
            let at = at % (len - width + 1);
            let mut field = [0u8; 8];
            field[..width].copy_from_slice(&bytes[at..at + width]);
            let grown = if value & 8 == 0 {
                u64::from_le_bytes(field).wrapping_add(1 + (value >> 4) % 64)
            } else {
                u64::MAX
            };
            bytes[at..at + width].copy_from_slice(&grown.to_le_bytes()[..width]);
        }
    }
}

/// Recompute a WAL frame's CRC over whatever payload its length declares.
fn reseal_record(bytes: &mut [u8]) {
    if bytes.len() < 8 {
        return;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    if let Some(payload) = bytes.get(8..8usize.saturating_add(len)) {
        let crc = crc32(payload);
        bytes[4..8].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Recompute a checkpoint file's trailing CRC.
fn reseal_checkpoint(bytes: &mut [u8]) {
    if let Some(body) = bytes.len().checked_sub(4) {
        let crc = crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
    }
}

fn check_frame(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut stream = bytes;
    if let Ok(Some((frame, read))) = read_frame(&mut stream) {
        let mut again = Vec::new();
        write_frame(&mut again, &frame).expect("a decoded frame re-encodes");
        prop_assert_eq!(again.as_slice(), &bytes[..read as usize]);
    }
    Ok(())
}

fn check_record(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut reader = RecordReader::new(bytes);
    let mut start = 0;
    while let Ok(Some((lsn, record))) = reader.next() {
        let mut again = Vec::new();
        encode_record(&record, lsn, &mut again);
        prop_assert_eq!(again.as_slice(), &bytes[start..reader.offset()]);
        start = reader.offset();
    }
    prop_assert!(reader.offset() <= bytes.len());
    Ok(())
}

fn check_checkpoint(bytes: &[u8], path: &Path) -> Result<(), TestCaseError> {
    fs::write(path, bytes).expect("write the mangled file");
    let outcome = load_checkpoint_file(path);
    prop_assert!(
        !matches!(outcome, Err(CheckpointError::Io(_))),
        "{:?}",
        outcome.err()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mangled_frames_records_and_checkpoints_decode_or_fail_typed(
        which in 0usize..8,
        at in any::<usize>(),
        to in any::<usize>(),
        value in any::<u64>(),
    ) {
        let (frames, records, checkpoint) = (frames(), records(), checkpoint());
        let path = scratch_dir().join("mangled.ckpt");
        for how in MANGLES {
            let mut bytes = frames[which % frames.len()].clone();
            mangle(&mut bytes, how, at, to, value);
            check_frame(&bytes)?;

            let mut bytes = records[which % records.len()].clone();
            mangle(&mut bytes, how, at, to, value);
            reseal_record(&mut bytes);
            check_record(&bytes)?;

            let mut bytes = checkpoint.clone();
            mangle(&mut bytes, how, at, to, value);
            reseal_checkpoint(&mut bytes);
            check_checkpoint(&bytes, &path)?;
        }
        let _ = fs::remove_dir_all(scratch_dir());
    }
}
