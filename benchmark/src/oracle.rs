//! The correctness oracle: what every `RUN` reply must contain.
//!
//! The expected answer is computed once per run by
//! `pq_query::evaluate_sequential` over the CSV files exactly as `pqd`
//! loads them, decoded through the same dictionary and escaped like `pqd`
//! escapes `ROW` payloads; the generator's planted answers must all be in
//! it. Replies are then compared by row count and an order-independent
//! hash, so checking a 41 440-row reply costs one pass and no allocation.

use pq_engine::parse_query;
use pq_query::evaluate_sequential;
use pq_relation::{Database, ValueDictionary};
use std::collections::HashSet;

/// Order-independent digest of a set of rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnswerDigest {
    pub rows: u64,
    /// Wrapping sum of the per-row hashes: commutative, so the order in
    /// which the server emits rows does not matter, while a duplicated,
    /// missing or altered row changes it.
    pub sum: u64,
}

impl AnswerDigest {
    pub fn add_row(&mut self, payload: &[u8]) {
        self.rows += 1;
        self.sum = self.sum.wrapping_add(row_hash(payload));
    }
}

/// FNV-1a over the row's bytes with a final avalanche, so rows differing in
/// one character do not produce nearby hashes that could cancel in the sum.
fn row_hash(payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in payload {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^ (h >> 29)
}

/// `pqd`'s `ROW` escaping: `\` → `\\`, `,` → `\,` inside a value.
fn escape(token: &str) -> String {
    token.replace('\\', "\\\\").replace(',', "\\,")
}

/// Evaluate `query_text` sequentially and digest the answer the way a
/// client sees it: the planted answers plus whatever the random rows
/// happen to add.
///
/// # Errors
/// When the query does not parse, or a planted answer is missing from the
/// oracle's result — either means the generator and the loader disagree,
/// and nothing measured afterwards could be trusted.
pub fn expected_answer(
    query_text: &str,
    database: &Database,
    dictionary: &ValueDictionary,
    planted: &[String],
) -> Result<AnswerDigest, String> {
    let parsed = parse_query(query_text).map_err(|e| format!("oracle: {e}"))?;
    let mut answer =
        evaluate_sequential(&parsed.query, database).project(&parsed.head, parsed.query.name());
    answer.dedup();
    let mut digest = AnswerDigest::default();
    let mut rows: HashSet<String> = HashSet::with_capacity(answer.len());
    for row in answer.iter() {
        let payload = row
            .iter()
            .map(|&v| escape(&dictionary.decode_or_number(v)))
            .collect::<Vec<_>>()
            .join(",");
        digest.add_row(payload.as_bytes());
        rows.insert(payload);
    }
    if let Some(missing) = planted.iter().find(|p| !rows.contains(*p)) {
        return Err(format!(
            "oracle: planted answer `{missing}` is not in the sequential result"
        ));
    }
    Ok(digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let rows: [&[u8]; 3] = [
            b"v0000001,v0000002",
            b"v0000003,v0000004",
            b"v0000005,v0000006",
        ];
        let mut forward = AnswerDigest::default();
        rows.iter().for_each(|r| forward.add_row(r));
        let mut backward = AnswerDigest::default();
        rows.iter().rev().for_each(|r| backward.add_row(r));
        assert_eq!(forward, backward);

        let mut altered = AnswerDigest::default();
        for row in [rows[0], rows[1], b"v0000005,v0000007"] {
            altered.add_row(row);
        }
        assert_ne!(forward, altered, "one changed character");

        let mut duplicated = AnswerDigest::default();
        for row in [rows[0], rows[0], rows[2]] {
            duplicated.add_row(row);
        }
        assert_ne!(
            forward, duplicated,
            "same count, one row swapped for a duplicate"
        );

        // Swapping characters between two rows keeps every byte but must
        // still change the digest.
        let mut swapped = AnswerDigest::default();
        for row in [&b"v0000003,v0000002"[..], b"v0000001,v0000004", rows[2]] {
            swapped.add_row(row);
        }
        assert_ne!(forward, swapped);
    }

    #[test]
    fn expected_answer_cross_checks_the_planted_rows() {
        use crate::gen::generate;
        use crate::spec::WORKLOADS;
        use pq_relation::csv::parse_relation_text;
        use std::path::Path;

        let workload = WORKLOADS[0].scaled(300, 5);
        let inputs = generate(&workload, 9, 0);
        let mut dictionary = ValueDictionary::new();
        let relations: Vec<_> = inputs
            .files
            .iter()
            .map(|(name, text)| {
                parse_relation_text(
                    name.trim_end_matches(".csv"),
                    text,
                    Path::new(name),
                    &mut dictionary,
                )
                .unwrap()
            })
            .collect();
        let mut database = Database::new(dictionary.len() as u64);
        relations.into_iter().for_each(|r| database.insert(r));

        let expected =
            expected_answer(workload.query(), &database, &dictionary, &inputs.planted).unwrap();
        assert!(
            expected.rows >= 5,
            "the planted triangles, plus accidental ones"
        );

        let bogus = vec!["v0000000,v0000000,v0000000".to_string()];
        assert!(expected_answer(workload.query(), &database, &dictionary, &bogus).is_err());
    }
}
