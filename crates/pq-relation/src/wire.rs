//! The one binary codec of the workspace: the little-endian writers
//! (`put_*`) and the bounds-checked [`Reader`] under `PQW1` worker frames
//! (`pq_mpc::net::codec`), WAL records and `PQCKPT1` checkpoints (`pq_wal`).
//! Each format keeps its own layout, magic and CRC; they share integers,
//! strings and lists behind a [`Prefix`], schemas and the row block
//! `rows: u64 ‖ rows·arity·8` bytes — the flat storage of [`Relation`],
//! converted in one pass. The reader never panics or over-reads: every
//! malformed field is a [`ReadError`] naming it.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Value;
use std::fmt;
use std::io;

/// Ways a raw row buffer can fail to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The byte length is not a multiple of 8 (whole `u64` values).
    UnalignedBytes {
        /// Length of the offending byte slice.
        len: usize,
    },
    /// The value count does not equal `rows · arity`.
    ShapeMismatch {
        /// Relation name the buffer was decoded for.
        relation: String,
        /// Declared row count.
        rows: usize,
        /// Arity of the declared schema.
        arity: usize,
        /// Number of values actually present in the buffer.
        values: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnalignedBytes { len } => {
                write!(f, "row buffer of {len} byte(s) is not a whole number of u64 values")
            }
            WireError::ShapeMismatch {
                relation,
                rows,
                arity,
                values,
            } => write!(
                f,
                "row buffer for `{relation}` holds {values} value(s) but {rows} row(s) of \
                 arity {arity} need exactly {}",
                rows.saturating_mul(*arity)
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// Append `values` to `out` as little-endian bytes (8 bytes per value).
pub fn values_to_le_bytes(values: &[Value], out: &mut Vec<u8>) {
    out.reserve(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decode a little-endian byte slice into values. The slice must hold a
/// whole number of `u64`s.
pub fn values_from_le_bytes(bytes: &[u8]) -> Result<Vec<Value>, WireError> {
    if bytes.len() % 8 != 0 {
        return Err(WireError::UnalignedBytes { len: bytes.len() });
    }
    let mut values = Vec::new();
    decode_le_into(bytes, &mut values);
    Ok(values)
}

/// Replace `values` with the whole `u64`s of `bytes`, reusing its capacity
/// and trimming it to the decoded length, so reused storage never outgrows
/// what it holds.
#[inline]
fn decode_le_into(bytes: &[u8], values: &mut Vec<Value>) {
    let len = bytes.len() / 8;
    values.clear();
    values.shrink_to(len);
    values.reserve_exact(len);
    values.extend(
        bytes.chunks_exact(8).map(|c| Value::from_le_bytes(c.try_into().expect("8 bytes"))),
    );
}

impl Relation {
    /// Append this relation's raw row buffer to `out` as little-endian
    /// bytes — `len() · arity() · 8` bytes, rows in storage order. The
    /// row count is **not** encoded; wire formats carry it alongside (it
    /// cannot be recovered from the buffer for nullary relations).
    pub fn write_rows_le(&self, out: &mut Vec<u8>) {
        values_to_le_bytes(self.values(), out);
    }

    /// Rebuild a relation from a schema, an explicit row count and the raw
    /// little-endian row buffer produced by [`Relation::write_rows_le`].
    ///
    /// The byte slice must be exactly `rows · arity · 8` bytes; anything
    /// else (truncation, padding, a row count that disagrees with the
    /// buffer) is a [`WireError`]. The declared row count comes off the
    /// wire, so even `rows · arity` overflowing `usize` is an error here,
    /// never a panic or a wrapped (and thus accidentally matching) size.
    pub fn from_rows_le(schema: Schema, rows: usize, bytes: &[u8]) -> Result<Relation, WireError> {
        let values = values_from_le_bytes(bytes)?;
        let expected = rows.checked_mul(schema.arity());
        if expected != Some(values.len()) {
            return Err(WireError::ShapeMismatch {
                relation: schema.name().to_string(),
                rows,
                arity: schema.arity(),
                values: values.len(),
            });
        }
        Ok(Relation::from_values(schema, rows, values))
    }
}

/// Width of a string length or list count: `U16` in frames, `U32` on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prefix {
    /// A little-endian `u16`.
    U16,
    /// A little-endian `u32`.
    U32,
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a string length or list count `n` in `prefix` width.
///
/// # Errors
/// [`io::ErrorKind::InvalidInput`], appending nothing, when `n` does not fit
/// the prefix. The writers built on it fail alike, after their earlier fields.
pub fn put_count(out: &mut Vec<u8>, prefix: Prefix, n: usize) -> io::Result<()> {
    match prefix {
        Prefix::U16 => u16::try_from(n).map(|n| out.extend_from_slice(&n.to_le_bytes())).ok(),
        Prefix::U32 => u32::try_from(n).map(|n| put_u32(out, n)).ok(),
    }
    .ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("length {n} overflows a {prefix:?} prefix"))
    })
}

/// Append `s` as its byte length ([`put_count`]) and its UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, prefix: Prefix, s: &str) -> io::Result<()> {
    put_count(out, prefix, s.len())?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Append a string list: its count, then each string ([`put_str`]).
pub fn put_strs(out: &mut Vec<u8>, prefix: Prefix, list: &[String]) -> io::Result<()> {
    put_count(out, prefix, list.len())?;
    list.iter().try_for_each(|s| put_str(out, prefix, s))
}

/// Append a schema: its name, then its attribute list.
pub fn put_schema(out: &mut Vec<u8>, prefix: Prefix, schema: &Schema) -> io::Result<()> {
    put_str(out, prefix, schema.name())?;
    put_strs(out, prefix, schema.attributes())
}

/// Append a row block: `rows` as a `u64`, then `values` as little-endian bytes.
pub fn put_rows(out: &mut Vec<u8>, rows: usize, values: &[Value]) {
    put_u64(out, rows as u64);
    values_to_le_bytes(values, out);
}

/// Why a [`Reader`] rejected its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadError {
    /// The field being decoded, e.g. `"ping.nonce"`.
    pub field: &'static str,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ReadError {}

/// A bounds-checked reader over one encoded payload. Each decoder names
/// the field it reads; a failure carries that name back.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read `bytes` from their start.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    #[inline]
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], ReadError> {
        let Some(bytes) = self.bytes[self.pos..].get(..n) else {
            let reason = format!("{n} byte(s) wanted at {} of {}", self.pos, self.bytes.len());
            return Err(ReadError { field, reason });
        };
        self.pos += n;
        Ok(bytes)
    }

    #[inline]
    fn array<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], ReadError> {
        let mut array = [0; N];
        array.copy_from_slice(self.take(N, field)?);
        Ok(array)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self, field: &'static str) -> Result<u8, ReadError> {
        self.array(field).map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, field: &'static str) -> Result<u16, ReadError> {
        self.array(field).map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, field: &'static str) -> Result<u32, ReadError> {
        self.array(field).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, field: &'static str) -> Result<u64, ReadError> {
        self.array(field).map(u64::from_le_bytes)
    }

    /// A string length or list count ([`put_count`]).
    #[inline]
    pub fn count(&mut self, prefix: Prefix, field: &'static str) -> Result<usize, ReadError> {
        match prefix {
            Prefix::U16 => self.u16(field).map(usize::from),
            Prefix::U32 => self.u32(field).map(|n| n as usize),
        }
    }

    /// A length-prefixed UTF-8 string ([`put_str`]).
    pub fn str(&mut self, prefix: Prefix, field: &'static str) -> Result<String, ReadError> {
        self.str_ref(prefix, field).map(str::to_owned)
    }

    /// [`Reader::str`], borrowed from the payload instead of copied.
    pub fn str_ref(&mut self, prefix: Prefix, field: &'static str) -> Result<&'a str, ReadError> {
        let len = self.count(prefix, field)?;
        std::str::from_utf8(self.take(len, field)?)
            .map_err(|_| ReadError { field, reason: "not UTF-8".into() })
    }

    /// A string list ([`put_strs`]).
    pub fn strs(&mut self, prefix: Prefix, field: &'static str) -> Result<Vec<String>, ReadError> {
        (0..self.count(prefix, field)?).map(|_| self.str(prefix, field)).collect()
    }

    /// A row block of `arity`-wide rows ([`put_rows`]): the row count and
    /// the values, decoded into `values` — cleared, its capacity reused and
    /// trimmed to the block. `rows · arity · 8` is computed with checked
    /// arithmetic, so a hostile row count is an error, never a wrapped size.
    pub fn rows(
        &mut self,
        arity: usize,
        field: &'static str,
        mut values: Vec<Value>,
    ) -> Result<(usize, Vec<Value>), ReadError> {
        let (rows, block) = self.row_block(arity, field)?;
        decode_le_into(block, &mut values);
        Ok((rows, values))
    }

    /// [`Reader::rows`] without the decode: the row count and the block's
    /// `rows · arity · 8` little-endian bytes, borrowed from the payload.
    pub fn row_block(
        &mut self,
        arity: usize,
        field: &'static str,
    ) -> Result<(usize, &'a [u8]), ReadError> {
        let declared = self.u64(field)?;
        let rows = usize::try_from(declared).ok();
        let len = rows.and_then(|r| r.checked_mul(arity)?.checked_mul(8));
        let (Some(rows), Some(len)) = (rows, len) else {
            let reason = format!("{declared} row(s) of arity {arity} overflow");
            return Err(ReadError { field, reason });
        };
        Ok((rows, self.take(len, field)?))
    }

    /// A relation: its schema ([`put_schema`]), then its row block decoded
    /// as [`Reader::rows`] does into the storage `storage` hands out for the
    /// relation's name. A schema naming an attribute twice is an error
    /// here, before [`Schema::new`] would panic on it.
    pub fn relation(
        &mut self,
        prefix: Prefix,
        field: &'static str,
        storage: impl FnOnce(&str) -> Vec<Value>,
    ) -> Result<Relation, ReadError> {
        let name = self.str(prefix, field)?;
        let attributes = self.strs(prefix, field)?;
        if let Some(i) = (1..attributes.len()).find(|&i| attributes[..i].contains(&attributes[i])) {
            let reason = format!("`{name}` repeats attribute `{}`", attributes[i]);
            return Err(ReadError { field, reason });
        }
        let (rows, values) = self.rows(attributes.len(), field, storage(&name))?;
        Ok(Relation::from_values(Schema::new(name, attributes), rows, values))
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Succeed only if every byte was read.
    pub fn finish(self, field: &'static str) -> Result<(), ReadError> {
        match self.remaining() {
            0 => Ok(()),
            left => Err(ReadError { field, reason: format!("{left} trailing byte(s)") }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(relation: &Relation) -> Relation {
        let mut bytes = Vec::new();
        relation.write_rows_le(&mut bytes);
        assert_eq!(bytes.len(), relation.len() * relation.arity() * 8);
        Relation::from_rows_le(relation.schema().clone(), relation.len(), &bytes)
            .expect("round trip decodes")
    }

    #[test]
    fn binary_relation_round_trips() {
        let r = Relation::from_rows(
            Schema::from_strs("R", &["x", "y"]),
            vec![vec![1, 2], vec![u64::MAX, 0], vec![3, 4]],
        );
        assert_eq!(roundtrip(&r), r);
    }

    #[test]
    fn empty_and_nullary_relations_round_trip() {
        let empty = Relation::empty(Schema::from_strs("E", &["x"]));
        assert_eq!(roundtrip(&empty), empty);
        // A nullary relation with rows: zero bytes, explicit row count.
        let mut nullary = Relation::empty(Schema::from_strs("N", &[]));
        nullary.push_row(&[]);
        nullary.push_row(&[]);
        assert_eq!(nullary.len(), 2);
        let back = roundtrip(&nullary);
        assert_eq!(back.len(), 2);
        assert_eq!(back, nullary);
    }

    #[test]
    fn little_endian_layout_is_stable() {
        let r = Relation::from_rows(Schema::from_strs("R", &["x"]), vec![vec![0x0102_0304]]);
        let mut bytes = Vec::new();
        r.write_rows_le(&mut bytes);
        assert_eq!(bytes, vec![0x04, 0x03, 0x02, 0x01, 0, 0, 0, 0]);
    }

    #[test]
    fn unaligned_bytes_are_rejected() {
        let err = values_from_le_bytes(&[1, 2, 3]).unwrap_err();
        assert_eq!(err, WireError::UnalignedBytes { len: 3 });
        assert!(err.to_string().contains("3 byte(s)"));
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let schema = Schema::from_strs("R", &["x", "y"]);
        // One value where one row of arity 2 needs two.
        let err = Relation::from_rows_le(schema.clone(), 1, &7u64.to_le_bytes()).unwrap_err();
        assert!(matches!(err, WireError::ShapeMismatch { values: 1, .. }), "{err}");
        assert!(err.to_string().contains('R'));
        // Extra trailing row the count does not admit.
        let mut bytes = Vec::new();
        values_to_le_bytes(&[1, 2, 3, 4], &mut bytes);
        let err = Relation::from_rows_le(schema, 1, &bytes).unwrap_err();
        assert!(matches!(err, WireError::ShapeMismatch { values: 4, .. }));
    }

    #[test]
    fn overflowing_row_count_is_an_error_not_a_panic() {
        // `rows · arity` would overflow usize; a wrapped multiply could
        // accidentally equal the buffer's value count and mis-frame it.
        let schema = Schema::from_strs("R", &["x", "y"]);
        let err = Relation::from_rows_le(schema, usize::MAX, &[]).unwrap_err();
        assert!(matches!(err, WireError::ShapeMismatch { values: 0, .. }), "{err}");
        // The Display path saturates instead of overflowing too.
        assert!(err.to_string().contains("need exactly"));
    }

    mod mangling {
        use super::super::*;
        use proptest::prelude::*;

        fn relation(arity: usize, rows: usize, values: &[u64]) -> Relation {
            let attrs: Vec<String> = (0..arity).map(|i| format!("a{i}")).collect();
            let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let mut relation = Relation::empty(Schema::from_strs("M", &attrs));
            if arity == 0 {
                for _ in 0..rows {
                    relation.push_row(&[]);
                }
            } else {
                for row in values[..rows * arity].chunks(arity) {
                    relation.push_row(row);
                }
            }
            relation
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            // Decoding a mangled frame must never panic or over-read: every
            // outcome is either a clean decode (when the mangling happens to
            // preserve the frame's shape) or a typed `WireError`.
            #[test]
            fn mangled_frames_never_panic(
                arity in 0usize..4,
                values in proptest::collection::vec(any::<u64>(), 0..24),
                cut in 0usize..200,
                flip_at in 0usize..200,
                claimed_rows in 0usize..32,
            ) {
                let rows = values.len().checked_div(arity).unwrap_or(values.len());
                let relation = relation(arity, rows, &values);
                let mut bytes = Vec::new();
                relation.write_rows_le(&mut bytes);

                // Truncation: a cut that is not on a whole-row boundary must
                // be rejected; a whole-row cut with the matching count decodes.
                let cut = cut.min(bytes.len());
                let truncated = &bytes[..cut];
                match Relation::from_rows_le(relation.schema().clone(), rows, truncated) {
                    Ok(back) => {
                        prop_assert_eq!(cut, bytes.len());
                        prop_assert_eq!(back, relation.clone());
                    }
                    Err(WireError::UnalignedBytes { len }) => prop_assert!(len % 8 != 0),
                    Err(WireError::ShapeMismatch { values, .. }) => {
                        prop_assert_eq!(values, cut / 8);
                    }
                }

                // Bit flips keep the shape: any u64 is a legal value, so the
                // decode succeeds and returns exactly the flipped buffer.
                if !bytes.is_empty() {
                    let mut flipped = bytes.clone();
                    let at = flip_at % flipped.len();
                    flipped[at] ^= 0x40;
                    let back = Relation::from_rows_le(
                        relation.schema().clone(), rows, &flipped,
                    );
                    let back = back.expect("shape-preserving flip decodes");
                    prop_assert_eq!(back.len(), rows);
                    prop_assert_ne!(back, relation.clone());
                }

                // A dishonest row count never decodes (except nullary, where
                // zero bytes carry any claimed count by design).
                if claimed_rows != rows && arity > 0 {
                    let err = Relation::from_rows_le(
                        relation.schema().clone(), claimed_rows, &bytes,
                    );
                    prop_assert!(err.is_err());
                }
            }
        }
    }
}
