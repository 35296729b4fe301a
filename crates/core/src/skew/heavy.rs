//! Heavy-hitter detection (the statistics assumed by Section 4.2).
//!
//! A value `h` of variable `x` is a *heavy hitter* of relation `S_j` when
//! its frequency `m_j(h)` exceeds `m_j / p`. At most `p` values per relation
//! can be heavy, so the complete list (with frequencies) is `O(p)` numbers —
//! small enough to assume every server knows it, as the paper does.
//!
//! Statistics are given, as §4.2 assumes: the one detector here,
//! [`heavy_hitters_of_variable`], reads the per-column degree catalogue
//! ([`DatabaseStatistics`], which the engine maintains incrementally) and
//! touches no tuple. Callers holding only a [`Database`] analyse it once
//! with [`DatabaseStatistics::compute`] and pass the result in.

use pq_query::{bind_atom, ConjunctiveQuery};
use pq_relation::{Database, DatabaseStatistics, DegreeStatistics, Value};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// The heavy hitters of one query variable: the set of heavy values and,
/// per relation containing the variable, each heavy value's frequency.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VariableHeavyHitters {
    /// The variable.
    pub variable: String,
    /// Heavy values (union over all relations containing the variable).
    pub values: BTreeSet<Value>,
    /// `frequencies[relation][value]` = number of tuples of `relation` whose
    /// `variable` column equals `value` (recorded for heavy values only).
    pub frequencies: BTreeMap<String, BTreeMap<Value, usize>>,
}

impl VariableHeavyHitters {
    /// Frequency of a heavy value in a relation (0 when not recorded).
    pub fn frequency(&self, relation: &str, value: Value) -> usize {
        self.frequencies
            .get(relation)
            .and_then(|m| m.get(&value))
            .copied()
            .unwrap_or(0)
    }

    /// Is the value heavy (in any relation containing the variable)?
    pub fn is_heavy(&self, value: Value) -> bool {
        self.values.contains(&value)
    }

    /// The largest recorded frequency of any heavy value (0 without one).
    pub fn max_frequency(&self) -> usize {
        let recorded = self.frequencies.values().flat_map(BTreeMap::values);
        recorded.copied().max().unwrap_or(0)
    }
}

/// Detect the heavy hitters of `variable` across all atoms of the query that
/// contain it, with threshold `m_j / threshold_divisor` per relation, from
/// the degree catalogue `statistics` of `database`. The paper's default
/// divisor is `p`; the triangle algorithm also uses `p^{1/3}` (§4.2.2).
///
/// An atom repeating a variable (`R(x, x)`) filters its relation before
/// counting, which per-column statistics cannot express: only such atoms
/// are bound and scanned here.
///
/// # Panics
/// Panics when the divisor is not positive, or when `statistics` does not
/// describe a relation of the query as stored in `database`.
pub fn heavy_hitters_of_variable(
    query: &ConjunctiveQuery,
    database: &Database,
    statistics: &DatabaseStatistics,
    variable: &str,
    threshold_divisor: f64,
) -> VariableHeavyHitters {
    assert!(threshold_divisor > 0.0, "threshold divisor must be positive");
    // Per atom binding the variable: its relation, `m_j`, and the degree
    // statistics of the column the variable binds.
    let columns: Vec<(&str, usize, Cow<'_, DegreeStatistics>)> = query
        .atoms()
        .iter()
        .filter(|atom| atom.contains(variable))
        .map(|atom| {
            let stored = database.expect_relation(atom.relation());
            if atom.distinct_variables().len() != atom.arity() {
                let bound = bind_atom(atom, stored);
                let degrees = DegreeStatistics::compute(&bound, variable);
                return (atom.relation(), bound.len(), Cow::Owned(degrees));
            }
            let analysed = statistics
                .relation(atom.relation())
                .unwrap_or_else(|| panic!("relation `{}` is not analysed", atom.relation()));
            let column = atom.variables().iter().position(|v| v == variable);
            let attribute = &stored.schema().attributes()[column.expect("atom contains it")];
            let degrees = Cow::Borrowed(&*analysed.degrees[attribute]);
            (atom.relation(), analysed.cardinality, degrees)
        })
        .collect();
    let values: BTreeSet<Value> = columns
        .iter()
        .flat_map(|(_, m, degrees)| degrees.heavy_hitters(*m as f64 / threshold_divisor))
        .map(|(value, _)| value)
        .collect();
    // Exact frequencies of every heavy value in *every* relation that
    // contains the variable (a value heavy in one relation may be light in
    // another; its frequency there is still needed by the algorithms).
    let frequencies = columns
        .iter()
        .map(|(relation, _, degrees)| {
            let of_heavy = values.iter().map(|&v| (v, degrees.frequency(v))).collect();
            (relation.to_string(), of_heavy)
        })
        .collect();
    VariableHeavyHitters {
        variable: variable.to_string(),
        values,
        frequencies,
    }
}

/// Heavy hitters for every variable of the query, with the given divisor.
pub fn all_heavy_hitters(
    query: &ConjunctiveQuery,
    database: &Database,
    statistics: &DatabaseStatistics,
    threshold_divisor: f64,
) -> BTreeMap<String, VariableHeavyHitters> {
    query
        .variables()
        .into_iter()
        .map(|v| {
            let hitters =
                heavy_hitters_of_variable(query, database, statistics, &v, threshold_divisor);
            (v, hitters)
        })
        .collect()
}

/// The number of bits a broadcast of all heavy-hitter statistics costs: one
/// `(value, frequency)` pair per heavy hitter per relation, at
/// `2 · bits_per_value` bits each. The paper argues this is `O(p)` values.
pub fn statistics_broadcast_bits(
    hitters: &BTreeMap<String, VariableHeavyHitters>,
    bits_per_value: u64,
) -> u64 {
    hitters
        .values()
        .map(|vh| {
            vh.frequencies
                .values()
                .map(|m| m.len() as u64 * 2 * bits_per_value)
                .sum::<u64>()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::{Relation, Schema};

    fn hitters(q: &ConjunctiveQuery, db: &Database, variable: &str, divisor: f64) -> VariableHeavyHitters {
        heavy_hitters_of_variable(q, db, &DatabaseStatistics::compute(db), variable, divisor)
    }

    fn skewed_join_db(m: usize, heavy: usize) -> Database {
        let mut db = Database::new(1 << 20);
        for (j, name) in ["S1", "S2"].iter().enumerate() {
            let mut rows = Vec::new();
            for i in 0..heavy {
                rows.push(vec![42, (j * 100_000 + i) as u64 + 1]);
            }
            for i in heavy..m {
                rows.push(vec![1000 + i as u64, (j * 100_000 + i) as u64 + 1]);
            }
            db.insert(Relation::from_rows(Schema::from_strs(name, &["a", "b"]), rows));
        }
        db
    }

    #[test]
    fn detects_the_planted_heavy_hitter() {
        let q = ConjunctiveQuery::simple_join();
        let db = skewed_join_db(1000, 200);
        let hh = hitters(&q, &db, "z", 16.0);
        assert!(hh.is_heavy(42));
        assert_eq!(hh.values.len(), 1);
        assert_eq!(hh.frequency("S1", 42), 200);
        assert_eq!(hh.frequency("S2", 42), 200);
        assert_eq!(hh.frequency("S1", 1000), 0);
    }

    #[test]
    fn no_heavy_hitters_in_matching_data() {
        let q = ConjunctiveQuery::simple_join();
        let db = skewed_join_db(1000, 1);
        let hh = hitters(&q, &db, "z", 16.0);
        assert!(hh.values.is_empty());
        // x1 / x2 columns are all distinct: never heavy.
        let hh = hitters(&q, &db, "x1", 16.0);
        assert!(hh.values.is_empty());
    }

    #[test]
    fn at_most_p_heavy_hitters_per_relation() {
        // Construct maximal skew: every value appears exactly m/p times.
        let p = 8usize;
        let m = 800usize;
        let mut rows = Vec::new();
        for v in 0..(2 * p) as u64 {
            for i in 0..(m / (2 * p)) {
                rows.push(vec![v, (v * 1000 + i as u64) + 1]);
            }
        }
        let mut db = Database::new(1 << 20);
        db.insert(Relation::from_rows(Schema::from_strs("S1", &["a", "b"]), rows.clone()));
        db.insert(Relation::from_rows(Schema::from_strs("S2", &["a", "b"]), rows));
        let q = ConjunctiveQuery::simple_join();
        let hh = hitters(&q, &db, "z", p as f64);
        // Frequencies are exactly m/(2p) = m/p / 2 < m/p: nothing is heavy.
        assert!(hh.values.is_empty());
        // With divisor 4p the same values become heavy, and there are 2p of
        // them — still at most 4p.
        let hh = hitters(&q, &db, "z", 4.0 * p as f64);
        assert!(hh.values.len() <= 4 * p);
        assert_eq!(hh.values.len(), 2 * p);
    }

    #[test]
    fn all_heavy_hitters_covers_every_variable() {
        let q = ConjunctiveQuery::simple_join();
        let db = skewed_join_db(1000, 300);
        let all = all_heavy_hitters(&q, &db, &DatabaseStatistics::compute(&db), 8.0);
        assert_eq!(all.len(), 3); // z, x1, x2
        assert!(all["z"].is_heavy(42));
        assert!(all["x1"].values.is_empty());
    }

    #[test]
    fn broadcast_cost_is_small() {
        let q = ConjunctiveQuery::simple_join();
        let db = skewed_join_db(1000, 300);
        let all = all_heavy_hitters(&q, &db, &DatabaseStatistics::compute(&db), 8.0);
        let bits = statistics_broadcast_bits(&all, db.bits_per_value());
        // One heavy value recorded in two relations: 2 pairs of 2 values.
        assert_eq!(bits, 2 * 2 * db.bits_per_value());
    }

    #[test]
    fn repeated_variable_atoms_count_the_filtered_relation() {
        // R(x, x) keeps only the diagonal: 3 rows, of which value 5 twice
        // (rows are a bag here) — while column 0 alone has 9 on top.
        let mut rows = vec![vec![5, 5], vec![5, 5], vec![6, 6]];
        rows.extend((0..10).map(|i| vec![9, 100 + i]));
        let mut db = Database::new(1 << 10);
        db.insert(Relation::from_rows(Schema::from_strs("R", &["a", "b"]), rows));
        db.insert(Relation::from_rows(Schema::from_strs("S", &["a"]), vec![vec![5], vec![6], vec![9]]));
        let q = ConjunctiveQuery::new(
            "Q",
            vec![
                pq_query::Atom::from_strs("R", &["x", "x"]),
                pq_query::Atom::from_strs("S", &["x"]),
            ],
        );
        let hh = hitters(&q, &db, "x", 2.0);
        // Threshold 3/2 in R's diagonal, 3/2 in S: only 5 (twice) is heavy.
        assert_eq!(hh.values, BTreeSet::from([5]));
        assert_eq!(hh.frequency("R", 5), 2);
        assert_eq!(hh.frequency("S", 5), 1);
        assert_eq!(hh.max_frequency(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_divisor_panics() {
        let q = ConjunctiveQuery::simple_join();
        let db = skewed_join_db(10, 1);
        hitters(&q, &db, "z", 0.0);
    }
}
