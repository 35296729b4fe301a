//! WAL record types and their CRC-framed binary encoding.
//!
//! Every record is framed as
//!
//! ```text
//! [ payload_len: u32 LE ][ crc32(payload): u32 LE ][ payload ]
//! payload = [ type: u8 ][ lsn: u64 LE ][ body ]
//! ```
//!
//! so the reader can verify integrity before interpreting a single body
//! byte. Bodies are written and read with the shared primitives of
//! [`pq_relation::wire`]: strings and lists carry a `u32` prefix, and the
//! rows of a [`WalRecord::DeltaApplied`] batch are a row block — the same
//! flat little-endian bytes the cluster codec ships.
//!
//! Decoding is defensive end to end: a truncated frame, a checksum
//! mismatch, an oversized declared length, an unknown type byte or a
//! malformed body all surface as a typed [`RecordError`] — recovery treats
//! the first such error as the torn tail of the log and stops, keeping the
//! clean prefix.

use crate::crc::crc32;
use pq_relation::wire::{put_count, put_rows, put_str, put_strs, put_u32, put_u64, Prefix};
use pq_relation::wire::{ReadError, Reader};
use pq_relation::Value;
use std::fmt;

/// A log sequence number. LSNs start at 1 and increase by one per record;
/// 0 means "before every record" (a fresh log / no checkpoint yet).
pub type Lsn = u64;

/// Frames larger than this are rejected as corrupt before any allocation —
/// a mangled length field must not ask the reader for gigabytes.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

/// The flat insert batch for one relation inside a
/// [`WalRecord::DeltaApplied`] record: `rows` rows of `arity` values each,
/// row-major in `values` (exactly the storage layout of
/// [`pq_relation::Relation`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationInserts {
    /// Name of the relation the rows land in.
    pub relation: String,
    /// Row width; must match the stored relation's arity at replay time.
    pub arity: usize,
    /// Number of rows (kept explicitly so nullary relations work).
    pub rows: usize,
    /// Row-major values; `values.len() == rows * arity`.
    pub values: Vec<Value>,
}

/// One logical WAL record (its LSN is assigned by the log manager at
/// append time and carried in the frame, not in the enum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A typed insert-only delta, exactly as `Engine::apply` consumed it:
    /// the logical redo record of the delta path.
    DeltaApplied {
        /// Per-relation insert batches, in relation-name order.
        inserts: Vec<RelationInserts>,
    },
    /// A checkpoint began: the snapshot serialised next covers every record
    /// up to and including this record's LSN.
    CheckpointStart,
    /// The checkpoint file covering `checkpoint_lsn` is durably on disk.
    SnapshotWritten {
        /// LSN the written snapshot covers (its `CheckpointStart`'s LSN).
        checkpoint_lsn: Lsn,
    },
    /// The checkpoint covering `checkpoint_lsn` fully completed (dead
    /// segments and stale checkpoint files have been truncated).
    CheckpointEnd {
        /// LSN the completed checkpoint covers.
        checkpoint_lsn: Lsn,
    },
    /// The shared [`pq_relation::ValueDictionary`] grew: `tokens` were
    /// assigned ids `first_id..`. Logged before the delta whose rows use
    /// the new ids, so replay decodes answers exactly as before the crash.
    DictExtend {
        /// Id of the first token in `tokens`.
        first_id: u64,
        /// The newly interned tokens, in id order.
        tokens: Vec<String>,
    },
}

impl WalRecord {
    /// The frame type byte and the record-kind name.
    fn tag(&self) -> (u8, &'static str) {
        match self {
            WalRecord::DeltaApplied { .. } => (1, "delta"),
            WalRecord::CheckpointStart => (2, "checkpoint-start"),
            WalRecord::SnapshotWritten { .. } => (3, "snapshot-written"),
            WalRecord::CheckpointEnd { .. } => (4, "checkpoint-end"),
            WalRecord::DictExtend { .. } => (5, "dict-extend"),
        }
    }

    /// Short record-kind name (metrics/log labels).
    pub fn kind(&self) -> &'static str {
        self.tag().1
    }
}

/// Why a frame failed to decode. Recovery stops at the first error and
/// keeps the prefix before it (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The buffer ends inside a frame — the classic torn tail of an
    /// interrupted write.
    ShortFrame {
        /// Bytes the frame declared (header + payload).
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload's checksum does not match the frame header.
    BadCrc {
        /// Checksum stored in the frame.
        stored: u32,
        /// Checksum computed over the payload read back.
        computed: u32,
    },
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    OversizedFrame {
        /// The declared length.
        len: u32,
    },
    /// The checksum held but the type byte is unknown (written by a newer
    /// format version, or corruption the CRC happened to miss).
    UnknownType(u8),
    /// The checksum held but the body structure is inconsistent.
    Malformed(String),
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::ShortFrame { needed, available } => {
                write!(f, "torn frame: {needed} byte(s) declared, {available} available")
            }
            RecordError::BadCrc { stored, computed } => {
                write!(f, "checksum mismatch: frame says {stored:#010x}, payload is {computed:#010x}")
            }
            RecordError::OversizedFrame { len } => {
                write!(f, "frame declares {len} payload byte(s), over the {MAX_FRAME_BYTES} cap")
            }
            RecordError::UnknownType(t) => write!(f, "unknown record type byte {t:#04x}"),
            RecordError::Malformed(why) => write!(f, "malformed record body: {why}"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<ReadError> for RecordError {
    fn from(e: ReadError) -> Self {
        RecordError::Malformed(e.to_string())
    }
}

/// Append the framed encoding of `record` at `lsn` to `out`; returns the
/// number of bytes appended, or 0 (appending nothing) when a string exceeds
/// its `u32` prefix or the payload exceeds [`MAX_FRAME_BYTES`].
pub fn encode_record(record: &WalRecord, lsn: Lsn, out: &mut Vec<u8>) -> usize {
    let mut payload = Vec::new();
    payload.push(record.tag().0);
    put_u64(&mut payload, lsn);
    let len = encode_body(record, &mut payload).ok().and_then(|()| u32::try_from(payload.len()).ok());
    let Some(len) = len.filter(|&len| len <= MAX_FRAME_BYTES) else {
        return 0;
    };
    put_u32(out, len);
    put_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
    8 + payload.len()
}

fn encode_body(record: &WalRecord, out: &mut Vec<u8>) -> std::io::Result<()> {
    match record {
        WalRecord::DeltaApplied { inserts } => {
            put_count(out, Prefix::U32, inserts.len())?;
            for batch in inserts {
                put_str(out, Prefix::U32, &batch.relation)?;
                put_count(out, Prefix::U32, batch.arity)?;
                put_rows(out, batch.rows, &batch.values);
            }
        }
        WalRecord::CheckpointStart => {}
        WalRecord::SnapshotWritten { checkpoint_lsn }
        | WalRecord::CheckpointEnd { checkpoint_lsn } => put_u64(out, *checkpoint_lsn),
        WalRecord::DictExtend { first_id, tokens } => {
            put_u64(out, *first_id);
            put_strs(out, Prefix::U32, tokens)?;
        }
    }
    Ok(())
}

fn decode_payload(payload: &[u8]) -> Result<(Lsn, WalRecord), RecordError> {
    let mut r = Reader::new(payload);
    let type_byte = r.u8("record.type")?;
    let lsn = r.u64("record.lsn")?;
    let record = match type_byte {
        1 => {
            let count = r.count(Prefix::U32, "delta.relations")?;
            let mut inserts = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let relation = r.str(Prefix::U32, "delta.relation")?;
                let arity = r.count(Prefix::U32, "delta.arity")?;
                let (rows, values) = r.rows(arity, "delta.rows")?;
                inserts.push(RelationInserts { relation, arity, rows, values });
            }
            WalRecord::DeltaApplied { inserts }
        }
        2 => WalRecord::CheckpointStart,
        3 => WalRecord::SnapshotWritten { checkpoint_lsn: r.u64("snapshot.lsn")? },
        4 => WalRecord::CheckpointEnd { checkpoint_lsn: r.u64("checkpoint_end.lsn")? },
        5 => WalRecord::DictExtend {
            first_id: r.u64("dict.first_id")?,
            tokens: r.strs(Prefix::U32, "dict.tokens")?,
        },
        other => return Err(RecordError::UnknownType(other)),
    };
    r.finish("record.body")?;
    Ok((lsn, record))
}

/// A sequential reader over the framed records of one in-memory segment
/// buffer. Yields `Ok(None)` on a clean end exactly at a frame boundary;
/// any partial or invalid frame is the typed error recovery stops at.
pub struct RecordReader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> RecordReader<'a> {
    /// Read records from `bytes`, starting at its beginning.
    pub fn new(bytes: &'a [u8]) -> Self {
        RecordReader { bytes, offset: 0 }
    }

    /// Byte offset of the next unread frame — after an error, the exact
    /// place the clean prefix ends (where recovery truncates).
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// The next record, `Ok(None)` at a clean end of the buffer.
    #[allow(clippy::should_implement_trait)] // fallible, not an Iterator
    pub fn next(&mut self) -> Result<Option<(Lsn, WalRecord)>, RecordError> {
        let remaining = &self.bytes[self.offset..];
        if remaining.is_empty() {
            return Ok(None);
        }
        if remaining.len() < 8 {
            return Err(RecordError::ShortFrame { needed: 8, available: remaining.len() });
        }
        let len = u32::from_le_bytes(remaining[0..4].try_into().expect("4 bytes"));
        if len > MAX_FRAME_BYTES {
            return Err(RecordError::OversizedFrame { len });
        }
        let stored = u32::from_le_bytes(remaining[4..8].try_into().expect("4 bytes"));
        let needed = 8 + len as usize;
        if remaining.len() < needed {
            return Err(RecordError::ShortFrame { needed, available: remaining.len() });
        }
        let payload = &remaining[8..needed];
        let computed = crc32(payload);
        if computed != stored {
            return Err(RecordError::BadCrc { stored, computed });
        }
        let decoded = decode_payload(payload)?;
        self.offset += needed;
        Ok(Some(decoded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::DeltaApplied {
                inserts: vec![
                    RelationInserts {
                        relation: "R".into(),
                        arity: 2,
                        rows: 2,
                        values: vec![1, 2, u64::MAX, 0],
                    },
                    RelationInserts { relation: "N".into(), arity: 0, rows: 3, values: vec![] },
                ],
            },
            WalRecord::CheckpointStart,
            WalRecord::SnapshotWritten { checkpoint_lsn: 7 },
            WalRecord::CheckpointEnd { checkpoint_lsn: 7 },
            WalRecord::DictExtend { first_id: 4, tokens: vec!["alice".into(), "bob".into()] },
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, r) in records.iter().enumerate() {
            encode_record(r, i as Lsn + 1, &mut out);
        }
        out
    }

    #[test]
    fn records_round_trip_with_lsns() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let mut reader = RecordReader::new(&bytes);
        for (i, expected) in records.iter().enumerate() {
            let (lsn, record) = reader.next().expect("decodes").expect("present");
            assert_eq!(lsn, i as Lsn + 1);
            assert_eq!(&record, expected);
        }
        assert_eq!(reader.next().expect("clean end"), None);
        assert_eq!(reader.offset(), bytes.len());
    }

    #[test]
    fn truncation_at_any_byte_is_a_clean_stop() {
        let records = sample_records();
        let bytes = encode_all(&records);
        for cut in 0..bytes.len() {
            let mut reader = RecordReader::new(&bytes[..cut]);
            let mut decoded = 0usize;
            loop {
                match reader.next() {
                    Ok(Some(_)) => decoded += 1,
                    Ok(None) => break,       // cut exactly at a boundary
                    Err(RecordError::ShortFrame { .. }) => break,
                    Err(other) => panic!("cut at {cut}: unexpected {other}"),
                }
            }
            assert!(decoded <= records.len());
            assert!(reader.offset() <= cut, "prefix offset within the cut");
        }
    }

    #[test]
    fn bit_flips_never_panic_and_rarely_pass() {
        let records = sample_records();
        let clean = encode_all(&records);
        for i in 0..clean.len() {
            let mut mangled = clean.clone();
            mangled[i] ^= 0x40;
            let mut reader = RecordReader::new(&mangled);
            // Every outcome is acceptable except a panic; flips in a length
            // field may shift framing, flips in a payload must fail the CRC.
            while let Ok(Some(_)) = reader.next() {}
        }
    }

    #[test]
    fn payload_flips_are_caught_by_the_crc() {
        let mut bytes = Vec::new();
        encode_record(&WalRecord::CheckpointEnd { checkpoint_lsn: 9 }, 10, &mut bytes);
        // Flip one payload byte (offset 8 is the type byte).
        bytes[9] ^= 0x01;
        let err = RecordReader::new(&bytes).next().unwrap_err();
        assert!(matches!(err, RecordError::BadCrc { .. }), "{err}");
    }

    #[test]
    fn oversized_and_unknown_frames_are_rejected() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAX_FRAME_BYTES + 1);
        put_u32(&mut bytes, 0);
        let err = RecordReader::new(&bytes).next().unwrap_err();
        assert!(matches!(err, RecordError::OversizedFrame { .. }), "{err}");

        // A frame with a valid CRC over an unknown type byte.
        let payload = [0xEEu8, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut bytes = Vec::new();
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crc32(&payload));
        bytes.extend_from_slice(&payload);
        let err = RecordReader::new(&bytes).next().unwrap_err();
        assert_eq!(err, RecordError::UnknownType(0xEE));
    }

    #[test]
    fn trailing_garbage_inside_a_valid_crc_is_malformed() {
        let mut payload = vec![2u8]; // CheckpointStart
        payload.extend_from_slice(&5u64.to_le_bytes());
        payload.push(0xAB); // one stray body byte
        let mut bytes = Vec::new();
        put_u32(&mut bytes, payload.len() as u32);
        put_u32(&mut bytes, crc32(&payload));
        bytes.extend_from_slice(&payload);
        let err = RecordReader::new(&bytes).next().unwrap_err();
        assert!(matches!(err, RecordError::Malformed(_)), "{err}");
    }

    #[test]
    fn every_record_kind_keeps_its_encoding() {
        // FNV-1a over every byte of the framed record, header and CRC
        // included: a change to the on-disk format breaks these pins.
        let digest = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let pinned = [
            (87, 0x20dd_5541_df80_c213u64),
            (17, 0xb0d2_729f_e0da_6748),
            (25, 0x3015_520d_a22e_afb1),
            (25, 0x2214_bb62_5285_ab75),
            (45, 0x4868_61f6_b0e2_14cc),
        ];
        for ((lsn, record), (len, pin)) in (1..).zip(sample_records()).zip(pinned) {
            let mut bytes = Vec::new();
            assert_eq!(encode_record(&record, lsn, &mut bytes), len, "{}", record.kind());
            assert_eq!(bytes.len(), len);
            assert_eq!(digest(&bytes), pin, "{}", record.kind());
        }
    }
}
