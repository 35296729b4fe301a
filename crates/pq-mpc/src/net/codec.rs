//! The binary frame codec of the worker protocol.
//!
//! Every frame is `MAGIC ‖ type ‖ length ‖ payload`:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "PQW1"
//! 4       1     frame type (one byte per [`Frame`] variant)
//! 5       4     payload length, u32 little-endian (≤ MAX_FRAME_LEN)
//! 9       len   payload
//! ```
//!
//! Inside payloads: integers are little-endian (`u32`/`u64`), strings are a
//! `u16` length followed by UTF-8 bytes, string lists are a `u16` count of
//! strings, and a relation is `name ‖ attributes ‖ row count (u64) ‖ raw
//! row buffer` — the flat storage shipped verbatim in the layout of
//! [`Relation::write_rows_le`], encoded in bounded chunks straight from the
//! relation's buffer as the frame is written. These fields are written and
//! read with the shared primitives of [`pq_relation::wire`] ([`Prefix::U16`]).
//!
//! Decoding never panics: a bad magic, an unknown type byte, an oversized
//! length prefix, a stream that ends mid-frame or a payload whose fields
//! disagree with its length all surface as located [`FrameError`]s. A
//! clean EOF *between* frames is `Ok(None)` — the peer hung up, which is
//! an orderly close, not a malformed frame. Nor does encoding panic: see
//! [`write_frame`].

use pq_relation::wire::{put_count, put_schema, put_str, put_strs, put_u64, Prefix};
use pq_relation::wire::{ReadError, Reader};
use pq_relation::{values_to_le_bytes, Relation, WireError};
use std::fmt;
use std::io::{ErrorKind, Read, Write};

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"PQW1";

/// Upper bound on a frame's payload length (1 GiB). A length prefix above
/// this is rejected before any allocation: a corrupt or hostile prefix
/// must not become an out-of-memory attempt.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Coordinator → worker, once per connection: identify the worker's
    /// slot, the cluster width and the model's value width. Resets any
    /// fragment state left by a previous run on the same connection.
    Hello {
        /// This worker's index in the coordinator's worker list.
        worker: u64,
        /// Total number of workers in the cluster.
        workers: u64,
        /// Bits per value charged by the cost model (`log n`).
        bits_per_value: u64,
    },
    /// Coordinator → worker: one relation fragment of one round. The
    /// worker merges fragments by relation name, like the simulator's
    /// [`crate::Server::receive`].
    Fragment {
        /// 1-based round the fragment belongs to.
        round: u64,
        /// The fragment itself (schema attributes are query variables).
        relation: Relation,
    },
    /// Coordinator → worker: the round's shuffle is complete — join the
    /// fragments of the listed atoms, project to the output variables and
    /// reply with an [`Frame::Answer`].
    Execute {
        /// 1-based round to execute.
        round: u64,
        /// Head name of the answer relation.
        name: String,
        /// Output variables (columns of the answer), in order.
        output_vars: Vec<String>,
        /// Per atom: relation name, then its variable list (so a worker
        /// that received *no* fragment of an atom can still build the
        /// correctly-shaped empty relation and return an empty join).
        atoms: Vec<(String, Vec<String>)>,
    },
    /// Worker → coordinator: the round's barrier message, carrying the
    /// worker's head fragment and its measured receive bytes.
    Answer {
        /// Round being acknowledged.
        round: u64,
        /// Bytes this worker read off the wire during the round (fragment
        /// and execute frames included, headers and all).
        bytes_received: u64,
        /// The local join's head fragment.
        relation: Relation,
    },
    /// Either direction: a fatal, human-readable error. The sender closes
    /// the connection after it.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Coordinator (or admin) → worker: exit the serve loop cleanly.
    Shutdown,
    /// Coordinator → worker: a liveness probe. A healthy worker answers
    /// immediately with a [`Frame::Pong`] echoing the nonce; the connection
    /// pool uses the exchange to detect dead or stale pooled sockets
    /// cheaply, before committing a round's fragments to them. A ping never
    /// touches the worker's fragment state or its round byte accounting.
    Ping {
        /// Opaque echo token: the pong must carry it back, so a pool that
        /// pipelines probes can match responses to requests.
        nonce: u64,
    },
    /// Worker → coordinator: the answer to a [`Frame::Ping`], carrying the
    /// probe's nonce back.
    Pong {
        /// The nonce of the ping being answered.
        nonce: u64,
    },
}

impl Frame {
    /// The type byte (as [`read_frame`] matches it) and the payload's name.
    fn kind(&self) -> (u8, &'static str) {
        match self {
            Frame::Hello { .. } => (1, "hello"),
            Frame::Fragment { .. } => (2, "fragment"),
            Frame::Execute { .. } => (3, "execute"),
            Frame::Answer { .. } => (4, "answer"),
            Frame::Error { .. } => (5, "error"),
            Frame::Shutdown => (6, "shutdown"),
            Frame::Ping { .. } => (7, "ping"),
            Frame::Pong { .. } => (8, "pong"),
        }
    }
}

/// Everything that can go wrong reading or decoding a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes actually read.
        got: [u8; 4],
    },
    /// The type byte named no known frame.
    UnknownType {
        /// The offending type byte.
        type_byte: u8,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared payload length.
        len: u32,
    },
    /// The stream ended in the middle of a frame (a truncated frame — the
    /// peer died or cut the payload short).
    ShortRead {
        /// Which part of the frame was being read.
        context: &'static str,
    },
    /// The payload decoded inconsistently with its length prefix (a field
    /// ran past the end, trailing bytes remained, a string was not UTF-8
    /// or a relation named an attribute twice).
    Malformed {
        /// Which field was being decoded.
        context: &'static str,
    },
    /// The payload's raw row buffer disagreed with its declared shape.
    Wire(WireError),
    /// The read timed out (the socket's read timeout elapsed with the
    /// frame incomplete or absent).
    TimedOut,
    /// Any other I/O failure, stringified.
    Io(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic { got } => {
                write!(f, "bad frame magic {got:02x?} (expected {MAGIC:02x?})")
            }
            FrameError::UnknownType { type_byte } => {
                write!(f, "unknown frame type byte {type_byte:#04x}")
            }
            FrameError::Oversized { len } => write!(
                f,
                "frame length prefix {len} exceeds the {MAX_FRAME_LEN}-byte cap"
            ),
            FrameError::ShortRead { context } => {
                write!(f, "stream ended mid-frame while reading {context}")
            }
            FrameError::Malformed { context } => {
                write!(f, "malformed frame payload at {context}")
            }
            FrameError::Wire(e) => write!(f, "frame row buffer: {e}"),
            FrameError::TimedOut => write!(f, "read timed out waiting for a frame"),
            FrameError::Io(message) => write!(f, "frame I/O error: {message}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<ReadError> for FrameError {
    fn from(e: ReadError) -> Self {
        FrameError::Malformed { context: e.field }
    }
}

// ---------------------------------------------------------------- encoding

/// Bytes of a relation's row buffer encoded and written per write: the
/// most a frame ever copies beyond its few header fields.
const ROW_CHUNK_BYTES: usize = 64 * 1024;

/// Serialise `frame` to `writer`. Returns the number of bytes written
/// (header included) so both ends can account real wire traffic.
///
/// A [`Frame::Fragment`] or [`Frame::Answer`] ends in its relation's row
/// buffer: the length prefix counts it up front and the rows are encoded
/// in 64 KiB pieces straight from the relation, so a large fragment is
/// never copied into a payload buffer whole.
///
/// # Errors
/// [`ErrorKind::InvalidInput`], before any byte is written, when a string
/// or list is too long for its `u16` prefix or the payload would exceed
/// [`MAX_FRAME_LEN`]; otherwise the writer's own I/O errors.
pub fn write_frame(writer: &mut impl Write, frame: &Frame) -> std::io::Result<u64> {
    let mut payload = Vec::new();
    let mut rows: Option<&Relation> = None;
    match frame {
        Frame::Hello { worker, workers, bits_per_value } => {
            put_u64(&mut payload, *worker);
            put_u64(&mut payload, *workers);
            put_u64(&mut payload, *bits_per_value);
        }
        Frame::Fragment { round, relation } => {
            put_u64(&mut payload, *round);
            rows = Some(relation);
        }
        Frame::Execute { round, name, output_vars, atoms } => {
            put_u64(&mut payload, *round);
            put_str(&mut payload, Prefix::U16, name)?;
            put_strs(&mut payload, Prefix::U16, output_vars)?;
            put_count(&mut payload, Prefix::U16, atoms.len())?;
            for (relation, variables) in atoms {
                put_str(&mut payload, Prefix::U16, relation)?;
                put_strs(&mut payload, Prefix::U16, variables)?;
            }
        }
        Frame::Answer { round, bytes_received, relation } => {
            put_u64(&mut payload, *round);
            put_u64(&mut payload, *bytes_received);
            rows = Some(relation);
        }
        Frame::Error { message } => {
            put_str(&mut payload, Prefix::U16, &message.chars().take(1024).collect::<String>())?;
        }
        Frame::Shutdown => {}
        Frame::Ping { nonce } | Frame::Pong { nonce } => put_u64(&mut payload, *nonce),
    }
    if let Some(relation) = rows {
        put_schema(&mut payload, Prefix::U16, relation.schema())?;
        put_u64(&mut payload, relation.len() as u64);
    }
    let values = rows.map_or(&[][..], Relation::values);
    let total = payload.len() + values.len() * 8;
    let len = u32::try_from(total).ok().filter(|&len| len <= MAX_FRAME_LEN).ok_or_else(|| {
        let message = format!("a {total}-byte frame payload exceeds the {MAX_FRAME_LEN}-byte cap");
        std::io::Error::new(ErrorKind::InvalidInput, message)
    })?;
    writer.write_all(&MAGIC)?;
    writer.write_all(&[frame.kind().0])?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(&payload)?;
    let mut chunk = Vec::with_capacity(ROW_CHUNK_BYTES.min(values.len() * 8));
    for piece in values.chunks(ROW_CHUNK_BYTES / 8) {
        chunk.clear();
        values_to_le_bytes(piece, &mut chunk);
        writer.write_all(&chunk)?;
    }
    Ok(9 + total as u64)
}

// ---------------------------------------------------------------- decoding

fn io_error(e: std::io::Error, context: &'static str) -> FrameError {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => FrameError::TimedOut,
        ErrorKind::UnexpectedEof => FrameError::ShortRead { context },
        _ => FrameError::Io(e.to_string()),
    }
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame boundary
/// (the peer closed the connection between frames); everything else that
/// is not a whole, well-formed frame is a [`FrameError`]. On success the
/// byte count (header included) is returned alongside the frame.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<(Frame, u64)>, FrameError> {
    let mut magic = [0u8; 4];
    // Distinguish "no more frames" (0 bytes then EOF) from a truncated
    // frame (1–3 bytes then EOF): the former is an orderly close.
    let mut filled = 0;
    while filled < magic.len() {
        match reader.read(&mut magic[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(FrameError::ShortRead { context: "magic" }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e, "magic")),
        }
    }
    if magic != MAGIC {
        return Err(FrameError::BadMagic { got: magic });
    }
    let mut head = [0u8; 5];
    reader.read_exact(&mut head).map_err(|e| io_error(e, "frame header"))?;
    let type_byte = head[0];
    let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload).map_err(|e| io_error(e, "frame payload"))?;
    let mut r = Reader::new(&payload);
    let frame = match type_byte {
        1 => Frame::Hello {
            worker: r.u64("hello.worker")?,
            workers: r.u64("hello.workers")?,
            bits_per_value: r.u64("hello.bits_per_value")?,
        },
        2 => Frame::Fragment {
            round: r.u64("fragment.round")?,
            relation: r.relation(Prefix::U16, "fragment.relation")?,
        },
        3 => Frame::Execute {
            round: r.u64("execute.round")?,
            name: r.str(Prefix::U16, "execute.name")?,
            output_vars: r.strs(Prefix::U16, "execute.output_vars")?,
            atoms: (0..r.count(Prefix::U16, "execute.atoms")?)
                .map(|_| {
                    let relation = r.str(Prefix::U16, "execute.atom.relation")?;
                    Ok((relation, r.strs(Prefix::U16, "execute.atom.variables")?))
                })
                .collect::<Result<_, ReadError>>()?,
        },
        4 => Frame::Answer {
            round: r.u64("answer.round")?,
            bytes_received: r.u64("answer.bytes_received")?,
            relation: r.relation(Prefix::U16, "answer.relation")?,
        },
        5 => Frame::Error { message: r.str(Prefix::U16, "error.message")? },
        6 => Frame::Shutdown,
        7 => Frame::Ping { nonce: r.u64("ping.nonce")? },
        8 => Frame::Pong { nonce: r.u64("pong.nonce")? },
        other => return Err(FrameError::UnknownType { type_byte: other }),
    };
    r.finish(frame.kind().1)?;
    Ok(Some((frame, 9 + len as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::Schema;
    use std::io::Cursor;

    fn roundtrip(frame: Frame) -> Frame {
        let mut bytes = Vec::new();
        let written = write_frame(&mut bytes, &frame).expect("write");
        assert_eq!(written as usize, bytes.len());
        let mut cursor = Cursor::new(bytes);
        let (back, read) = read_frame(&mut cursor).expect("read").expect("a frame");
        assert_eq!(read, written, "both ends account the same bytes");
        assert!(
            read_frame(&mut cursor).expect("clean EOF").is_none(),
            "stream is exhausted after one frame"
        );
        back
    }

    fn rel(name: &str, attrs: &[&str], rows: Vec<Vec<u64>>) -> Relation {
        Relation::from_rows(Schema::from_strs(name, attrs), rows)
    }

    #[test]
    fn hello_and_shutdown_round_trip() {
        let hello = Frame::Hello {
            worker: 2,
            workers: 5,
            bits_per_value: 17,
        };
        assert_eq!(roundtrip(hello.clone()), hello);
        assert_eq!(roundtrip(Frame::Shutdown), Frame::Shutdown);
    }

    #[test]
    fn fragment_round_trips_for_every_relation_shape() {
        // Binary with content, arity-1, empty, and nullary with rows.
        let shapes = vec![
            rel("R", &["x", "y"], vec![vec![1, 2], vec![u64::MAX, 0]]),
            rel("U", &["only"], vec![vec![9], vec![10], vec![11]]),
            rel("E", &["a", "b", "c"], vec![]),
            {
                let mut nullary = Relation::empty(Schema::from_strs("N", &[]));
                nullary.push_row(&[]);
                nullary.push_row(&[]);
                nullary
            },
        ];
        for relation in shapes {
            let frame = Frame::Fragment {
                round: 3,
                relation: relation.clone(),
            };
            let Frame::Fragment { relation: back, .. } = roundtrip(frame) else {
                panic!("frame type changed");
            };
            assert_eq!(back, relation);
        }
    }

    #[test]
    fn large_fragment_round_trips() {
        let rows: Vec<Vec<u64>> = (0..10_000u64).map(|i| vec![i, i * 31, i ^ 0xABCD]).collect();
        let relation = rel("Big", &["x", "y", "z"], rows);
        let frame = Frame::Fragment { round: 1, relation: relation.clone() };
        let Frame::Fragment { relation: back, .. } = roundtrip(frame) else {
            panic!("frame type changed");
        };
        assert_eq!(back, relation);
        assert_eq!(back.len(), 10_000);
    }

    #[test]
    fn execute_and_answer_round_trip() {
        let execute = Frame::Execute {
            round: 1,
            name: "Q".into(),
            output_vars: vec!["x".into(), "y".into(), "z".into()],
            atoms: vec![
                ("R".into(), vec!["x".into(), "y".into()]),
                ("S".into(), vec!["y".into(), "z".into()]),
            ],
        };
        assert_eq!(roundtrip(execute.clone()), execute);
        let answer = Frame::Answer {
            round: 1,
            bytes_received: 12_345,
            relation: rel("Q", &["x", "y"], vec![vec![7, 8]]),
        };
        assert_eq!(roundtrip(answer.clone()), answer);
        let error = Frame::Error {
            message: "it broke".into(),
        };
        assert_eq!(roundtrip(error.clone()), error);
    }

    #[test]
    fn ping_and_pong_round_trip_with_their_nonce() {
        for nonce in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            assert_eq!(roundtrip(Frame::Ping { nonce }), Frame::Ping { nonce });
            assert_eq!(roundtrip(Frame::Pong { nonce }), Frame::Pong { nonce });
        }
    }

    #[test]
    fn ping_with_a_short_or_long_payload_is_malformed() {
        // 7 bytes: one short of the nonce.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(7);
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 7]);
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err, FrameError::Malformed { context: "ping.nonce" });
        // 9 bytes: a trailing byte after the nonce.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(8);
        bytes.extend_from_slice(&9u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 9]);
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err, FrameError::Malformed { context: "pong" });
    }

    #[test]
    fn bad_magic_is_rejected_with_the_offending_bytes() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &Frame::Shutdown).unwrap();
        bytes[0] = b'X';
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err, FrameError::BadMagic { got: *b"XQW1" });
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(6); // Shutdown
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err, FrameError::Oversized { len: u32::MAX });
    }

    #[test]
    fn truncated_frames_are_short_reads_not_panics() {
        let mut full = Vec::new();
        write_frame(
            &mut full,
            &Frame::Fragment {
                round: 1,
                relation: rel("R", &["x", "y"], vec![vec![1, 2], vec![3, 4]]),
            },
        )
        .unwrap();
        // Cutting the stream anywhere inside the frame must yield a located
        // ShortRead, never a panic or a bogus frame.
        for cut in 1..full.len() {
            let err = read_frame(&mut Cursor::new(&full[..cut])).unwrap_err();
            assert!(
                matches!(err, FrameError::ShortRead { .. }),
                "cut at {cut}: got {err}"
            );
        }
        // The whole stream still decodes (the loop above did not mutate it).
        assert!(read_frame(&mut Cursor::new(&full)).unwrap().is_some());
    }

    #[test]
    fn unknown_type_byte_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(99);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err, FrameError::UnknownType { type_byte: 99 });
    }

    #[test]
    fn payload_length_mismatches_are_malformed() {
        // A Shutdown frame with trailing payload bytes.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(6);
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(err, FrameError::Malformed { context: "shutdown" });

        // A Hello whose payload is one u64 short.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(1);
        bytes.extend_from_slice(&16u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(
            err,
            FrameError::Malformed {
                context: "hello.bits_per_value"
            }
        );
    }

    #[test]
    fn fragment_row_count_must_match_its_buffer() {
        // Hand-build a fragment whose declared row count exceeds the rows
        // actually shipped: the relation decoder sees the mismatch as a
        // truncated payload.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes()); // round
        payload.extend_from_slice(&1u16.to_le_bytes()); // name len
        payload.push(b'R');
        payload.extend_from_slice(&1u16.to_le_bytes()); // one attribute
        payload.extend_from_slice(&1u16.to_le_bytes());
        payload.push(b'x');
        payload.extend_from_slice(&5u64.to_le_bytes()); // claims 5 rows
        payload.extend_from_slice(&7u64.to_le_bytes()); // ships 1
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(2);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        let err = read_frame(&mut Cursor::new(bytes)).unwrap_err();
        assert_eq!(
            err,
            FrameError::Malformed {
                context: "fragment.relation"
            }
        );
    }

    /// Records every `write` call's size, to see how a frame is written.
    #[derive(Default)]
    struct Writes {
        bytes: Vec<u8>,
        largest: usize,
    }

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.largest = self.largest.max(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn multi_chunk_fragments_and_answers_keep_their_encoding() {
        // FNV-1a over every byte of the frame.
        let digest = |bytes: &[u8]| {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            })
        };
        let rows = |arity: u64, n: u64| -> Vec<Vec<u64>> {
            (0..n)
                .map(|i| (0..arity).map(|c| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (c << 60)).collect())
                .collect()
        };
        // 80 000 and 72 000 bytes of rows: two chunks each. The digests are
        // those of the encoder that built the whole payload before writing.
        let fragment = Frame::Fragment {
            round: 3,
            relation: rel("S1", &["a", "b"], rows(2, 5000)),
        };
        let answer = Frame::Answer {
            round: 2,
            bytes_received: 77,
            relation: rel("Q", &["x", "y", "z"], rows(3, 3000)),
        };
        for (frame, len, pinned) in [
            (&fragment, 80_037, 0xdc9a_944b_2b64_7e82u64),
            (&answer, 72_047, 0x9126_321b_e9e5_5e2c),
        ] {
            let mut writes = Writes::default();
            assert_eq!(write_frame(&mut writes, frame).unwrap(), len);
            assert_eq!(writes.bytes.len() as u64, len);
            assert_eq!(digest(&writes.bytes), pinned);
            assert!(writes.largest <= ROW_CHUNK_BYTES, "largest write {}", writes.largest);
            assert_eq!(&roundtrip(frame.clone()), frame);
        }
    }

    #[test]
    fn clean_eof_between_frames_is_none() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut Cursor::new(empty)).unwrap().is_none());
    }
}
