//! The text of a `RUN` reply's answer: one `ROW v1,v2,…` line per tuple.
//!
//! Socket-free, so the format has one definition and one test: `pqd` calls
//! [`write_rows`] to fill a bounded chunk under the dictionary read lock,
//! releases the lock, writes the chunk, and repeats. Lines are formatted
//! straight from the `&[Value]` row view into bytes — the dictionary token
//! is borrowed, never copied into a `String` — so a reply costs what its
//! bytes cost and holds one chunk of memory, not the whole answer.
//!
//! Inside a value `\` is written `\\` and `,` is written `\,` (the
//! `INSERT` parser undoes exactly that); a value outside the dictionary
//! (synthetic data) is written as its number.

use pq_relation::{Value, ValueDictionary};
use std::io::Write;

/// Append `ROW v1,v2,…\n` for the next rows of `rows` to `out`, stopping
/// once `out` holds at least `limit` bytes (whole lines only, so a chunk
/// overshoots by at most one line) or `rows` is exhausted. Call again with
/// the same iterator for the next chunk; an `out` left empty means the
/// answer is fully written.
pub fn write_rows<'a>(
    out: &mut Vec<u8>,
    rows: &mut impl Iterator<Item = &'a [Value]>,
    dictionary: &ValueDictionary,
    limit: usize,
) {
    while out.len() < limit {
        let Some(row) = rows.next() else { return };
        out.extend_from_slice(b"ROW ");
        for (i, &value) in row.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            match dictionary.decode(value) {
                Some(token) => write_escaped(out, token.as_bytes()),
                None => write!(out, "{value}").expect("writing to a Vec cannot fail"),
            }
        }
        out.push(b'\n');
    }
}

/// `token` with `\` → `\\` and `,` → `\,`. Both are ASCII, so scanning
/// bytes never splits a UTF-8 sequence.
fn write_escaped(out: &mut Vec<u8>, mut token: &[u8]) {
    while let Some(at) = token.iter().position(|b| matches!(b, b'\\' | b',')) {
        out.extend_from_slice(&token[..at]);
        out.extend_from_slice(&[b'\\', token[at]]);
        token = &token[at + 1..];
    }
    out.extend_from_slice(token);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::{Relation, Schema};
    use proptest::prelude::*;

    /// The formatter this module replaced, kept as the reference: decode
    /// to a `String`, two `replace` passes, `join`, `writeln!`.
    fn reference(relation: &Relation, dictionary: &ValueDictionary) -> Vec<u8> {
        let mut out = Vec::new();
        for tuple in relation.iter() {
            let row: Vec<String> = tuple
                .iter()
                .map(|&v| {
                    dictionary
                        .decode_or_number(v)
                        .replace('\\', "\\\\")
                        .replace(',', "\\,")
                })
                .collect();
            writeln!(out, "ROW {}", row.join(",")).unwrap();
        }
        out
    }

    fn chunked(relation: &Relation, dictionary: &ValueDictionary, limit: usize) -> Vec<u8> {
        let (mut all, mut chunk, mut rows) = (Vec::new(), Vec::new(), relation.iter());
        loop {
            chunk.clear();
            write_rows(&mut chunk, &mut rows, dictionary, limit);
            if chunk.is_empty() {
                return all;
            }
            assert!(chunk.ends_with(b"\n"), "chunks hold whole lines");
            all.extend_from_slice(&chunk);
        }
    }

    #[test]
    fn escapes_delimiters_and_falls_back_to_numbers() {
        let mut dictionary = ValueDictionary::new();
        let ids: Vec<Value> = ["plain", "a,b", r"c\d", r"\,", "", "é,ü"]
            .iter()
            .map(|t| dictionary.encode(t))
            .collect();
        let relation = Relation::from_rows(
            Schema::from_strs("Q", &["x", "y", "z"]),
            vec![
                vec![ids[0], ids[1], ids[2]],
                vec![ids[3], ids[4], 99],
                vec![ids[5], 7, 7],
            ],
        );
        let expected = "ROW plain,a\\,b,c\\\\d\nROW \\\\\\,,,99\nROW é\\,ü,7,7\n";
        assert_eq!(
            chunked(&relation, &dictionary, usize::MAX),
            expected.as_bytes()
        );
        assert_eq!(reference(&relation, &dictionary), expected.as_bytes());
    }

    #[test]
    fn nullary_rows_are_bare_row_lines() {
        let mut relation = Relation::empty(Schema::from_strs("Q", &[]));
        relation.push_row(&[]);
        let dictionary = ValueDictionary::new();
        assert_eq!(chunked(&relation, &dictionary, 1), b"ROW \n");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Byte-for-byte the old formatter, wherever the chunk boundaries
        // fall: arity 0–4, tokens with `,`, `\`, both, neither or nothing
        // in them, and ids the dictionary never assigned.
        #[test]
        fn matches_the_reference_formatter_at_every_chunk_size(
            arity in 0usize..5,
            cells in proptest::collection::vec(0u64..40, 0..60),
            limit in 1usize..200,
        ) {
            const ALPHABET: [&str; 6] = ["a", ",", "\\", "", "xy", "é"];
            let mut dictionary = ValueDictionary::new();
            // Two-letter words over the alphabet, the empty one included;
            // the ids left over, up to 40, stay outside the dictionary.
            for id in 0..30usize {
                dictionary.encode(&format!("{}{}", ALPHABET[id % 6], ALPHABET[id / 6]));
            }
            let mut relation = Relation::empty(Schema::new(
                "Q",
                (0..arity).map(|i| format!("c{i}")).collect(),
            ));
            for row in cells.chunks(arity.max(1)).filter(|row| row.len() == arity.max(1)) {
                relation.push_row(&row[..arity]);
            }
            let expected = reference(&relation, &dictionary);
            prop_assert_eq!(&chunked(&relation, &dictionary, limit), &expected);
            prop_assert_eq!(&chunked(&relation, &dictionary, usize::MAX), &expected);
        }
    }
}
