//! Zero-copy-friendly wire encoding for flat row buffers.
//!
//! The flat row-major storage of [`Relation`] is already the ideal wire
//! format: a fragment is fully described by its schema, a row count and the
//! raw `u64` row buffer. This module converts that buffer to and from
//! little-endian bytes — one pass, no per-row allocation — so network
//! codecs (the `pq-mpc` cluster frames) can ship fragments as
//! `length ‖ memcpy` without inventing their own tuple serialisation.
//!
//! Decoding is defensive: the byte slice must be exactly `rows · arity · 8`
//! bytes, so a truncated or padded frame surfaces as a located
//! [`WireError`] instead of silently mis-framing rows.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Value;
use std::fmt;

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
    Ok(bytes
        .chunks_exact(8)
        .map(|c| Value::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
        .collect())
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
