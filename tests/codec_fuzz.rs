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
//!
//! Two resealed cases pin what the decoders cannot see on their own: a
//! token listed twice, in a checkpoint or in a logged dictionary
//! extension, would shift every later id, so it is rejected.
//!
//! Frames are read the way a connection reads them: every case goes through
//! one reused payload buffer and one spare-storage map that decoded
//! relations hand their row buffers back to, and each mangled frame is
//! followed by its clean original, which must then decode exactly.

use pq_mpc::net::{read_frame_into, write_frame, Frame, FrameError, MAX_FRAME_LEN};
use pq_engine::{open_durable, Delta, DurabilityOptions};
use pq_relation::{Database, Relation, Schema, Value, ValueDictionary};
use pq_wal::{
    crc32, encode_record, load_checkpoint_file, load_latest_checkpoint, write_checkpoint_file,
    CheckpointError, RecordReader, RelationInserts, SyncPolicy, WalRecord,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn nullary(name: &str, rows: usize) -> Relation {
    let mut relation = Relation::empty(Schema::from_strs(name, &[]));
    for _ in 0..rows {
        relation.push_row(&[]);
    }
    relation
}

fn frames() -> Vec<(Frame, Vec<u8>)> {
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
        .into_iter()
        .map(|frame| {
            let mut bytes = Vec::new();
            write_frame(&mut bytes, &frame).expect("encodes");
            (frame, bytes)
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

/// What a connection keeps between frames: the payload buffer and the
/// row storage decoded relations return to, by relation name.
#[derive(Default)]
struct FrameReader {
    payload: Vec<u8>,
    spares: BTreeMap<String, Vec<Value>>,
}

impl FrameReader {
    fn read(&mut self, bytes: &[u8]) -> Result<Option<(Frame, u64)>, FrameError> {
        read_frame_into(&mut &bytes[..], &mut self.payload, &mut self.spares)
    }

    /// Hand a decoded relation's row buffer back for the next frame.
    fn recycle(&mut self, frame: Frame) {
        if let Frame::Fragment { relation, .. } | Frame::Answer { relation, .. } = frame {
            self.spares.insert(relation.name().to_string(), relation.into_values());
        }
    }
}

thread_local! {
    static READER: RefCell<FrameReader> = RefCell::default();
}

fn check_frame(bytes: &[u8], clean: &(Frame, Vec<u8>)) -> Result<(), TestCaseError> {
    READER.with_borrow_mut(|reader| {
        if let Ok(Some((frame, read))) = reader.read(bytes) {
            let mut again = Vec::new();
            write_frame(&mut again, &frame).expect("a decoded frame re-encodes");
            prop_assert_eq!(again.as_slice(), &bytes[..read as usize]);
            reader.recycle(frame);
        }
        // Whatever the mangled frame left in the buffer and the spares, the
        // clean frame after it decodes exactly.
        let (frame, read) = reader.read(&clean.1).expect("clean frame").expect("a frame");
        prop_assert_eq!(&frame, &clean.0);
        prop_assert_eq!(read as usize, clean.1.len());
        reader.recycle(frame);
        Ok(())
    })
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
            let clean = &frames[which % frames.len()];
            let mut bytes = clean.1.clone();
            mangle(&mut bytes, how, at, to, value);
            check_frame(&bytes, clean)?;

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

/// A header declaring the largest legal payload, then 10 bytes and EOF: a
/// short read, with the buffer grown only by the bytes that arrived.
#[test]
fn a_hostile_length_commits_only_the_bytes_received() {
    let mut bytes = b"PQW1".to_vec();
    bytes.push(2);
    bytes.extend_from_slice(&MAX_FRAME_LEN.to_le_bytes());
    bytes.extend_from_slice(&[7; 10]);
    let mut reader = FrameReader::default();
    let err = reader.read(&bytes).unwrap_err();
    assert_eq!(err, FrameError::ShortRead { context: "frame payload" });
    assert!(reader.payload.capacity() < 1 << 20, "{}", reader.payload.capacity());
    // The same buffer then reads a clean frame.
    let (frame, clean) = &frames()[1];
    assert_eq!(&reader.read(clean).unwrap().unwrap().0, frame);
}

/// A directory of its own: the fuzz property clears [`scratch_dir`].
fn own_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pq-codec-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("own dir");
    dir
}

/// A checkpoint that lists a token twice, CRC resealed, is corrupt — its
/// `encode` and `decode` would disagree — so recovery falls back to the
/// older checkpoint.
#[test]
fn a_resealed_repeated_checkpoint_token_is_corrupt() {
    let dir = own_dir("repeated-token");
    let mut dictionary = ValueDictionary::new();
    let (a, b) = (dictionary.encode("a"), dictionary.encode("b"));
    let mut database = Database::new(8);
    database.insert(Relation::from_rows(Schema::from_strs("E", &["x", "y"]), vec![vec![a, b]]));
    write_checkpoint_file(&dir, 5, &database, &dictionary).expect("writes");
    let newest = write_checkpoint_file(&dir, 9, &database, &dictionary).expect("writes");
    // The file ends `[1u32]"a" [1u32]"b" [crc u32]`: make the last token `a`.
    let mut bytes = fs::read(&newest).expect("reads");
    let last = bytes.len() - 5;
    assert_eq!(bytes[last - 9..=last], [1, 0, 0, 0, b'a', 1, 0, 0, 0, b'b']);
    bytes[last] = b'a';
    reseal_checkpoint(&mut bytes);
    fs::write(&newest, &bytes).expect("writes back");

    let err = load_checkpoint_file(&newest).unwrap_err();
    assert!(matches!(&err, CheckpointError::Corrupt(why) if why.contains("`a` repeats id 0")));
    let (loaded, discarded) = load_latest_checkpoint(&dir).expect("reads the dir");
    assert_eq!(loaded.expect("the older checkpoint").covered_lsn, 5);
    assert_eq!(discarded, 1);
    let _ = fs::remove_dir_all(&dir);
}

/// A logged dictionary extension that repeats a token, CRC resealed, would
/// give no id to it and shift every later id: the restart fails with
/// `InvalidData` instead.
#[test]
fn a_resealed_repeated_dict_extend_token_is_invalid_data() {
    let dir = own_dir("repeated-extend");
    let options = DurabilityOptions { sync: SyncPolicy::Never, checkpoint_every: 0 };
    let mut database = Database::new(8);
    database.insert(Relation::from_rows(Schema::from_strs("E", &["x", "y"]), vec![vec![7, 7]]));
    let opened = open_durable(&dir, options.clone(), 4, Some((database, ValueDictionary::new())))
        .expect("opens");
    let row = {
        let mut dictionary = opened.dictionary.write().unwrap();
        vec![dictionary.encode("c"), dictionary.encode("d")]
    };
    opened.engine.apply(Delta::insert("E", vec![row])).expect("applies");
    drop(opened);

    let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("lists")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segments.sort();
    let segment = segments.pop().expect("a segment");
    let mut bytes = fs::read(&segment).expect("reads");
    let (start, end) = {
        let mut reader = RecordReader::new(&bytes);
        let mut start = 0;
        loop {
            let (_, record) = reader.next().expect("decodes").expect("a dict-extend record");
            if matches!(record, WalRecord::DictExtend { .. }) {
                break (start, reader.offset());
            }
            start = reader.offset();
        }
    };
    // The record's tokens end `[1u32]"c" [1u32]"d"`: make the second `c`.
    assert_eq!(bytes[end - 10..end], [1, 0, 0, 0, b'c', 1, 0, 0, 0, b'd']);
    bytes[end - 1] = b'c';
    reseal_record(&mut bytes[start..end]);
    fs::write(&segment, &bytes).expect("writes back");

    let err = open_durable(&dir, options, 4, None).expect_err("the restart fails");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("`c` repeats id 0"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}
