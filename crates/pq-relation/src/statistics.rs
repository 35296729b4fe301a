//! Data statistics: cardinalities, degree sequences and heavy hitters.
//!
//! The paper distinguishes three knowledge regimes (Table 1): cardinality
//! statistics only (`m_j` / `M_j`), skew-oblivious computation, and
//! computation with heavy-hitter information — the identities and
//! (approximate) frequencies of every value whose frequency exceeds
//! `m_j / p` (Section 4.2). This module computes all of these from concrete
//! relation instances.
//!
//! Statistics can also be maintained **incrementally** for insert-only
//! deltas: [`DegreeStatistics::apply_insert`],
//! [`RelationStatistics::apply_inserts`] and
//! [`DatabaseStatistics::apply_inserts`] update cardinalities, bit sizes,
//! degree maps, the derived heavy-hitter sets and every fingerprint in
//! O(delta) instead of re-scanning the data — with the invariant, checked
//! by property tests, that the incremental result is **identical** (same
//! `PartialEq`, same fingerprints) to a recomputation from scratch.

use crate::database::Database;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::{Tuple, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Degree statistics of one column: the histogram of its values. Which
/// relation and attribute it describes is the key it is filed under in
/// [`RelationStatistics::degrees`].
///
/// The histogram is kept in two parts so that counting an insert into
/// statistics a snapshot still shares copies little: `base`, the
/// frequencies as of the last fold, behind an [`Arc`] every clone shares,
/// and `recent`, the current frequencies of the values counted since. A
/// clone copies `recent` only, which is folded into a fresh `base` once it
/// holds more than about √distinct values. The distinct count, total and
/// maximum frequency are cached, so fingerprints (and the skew checks
/// reading them) stay O(1) per attribute.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegreeStatistics {
    /// Frequencies as of the last fold.
    base: Arc<BTreeMap<Value, usize>>,
    /// Current frequencies of the values counted since the last fold.
    recent: BTreeMap<Value, usize>,
    distinct: usize,
    total: usize,
    /// Maximum frequency (inserts can only raise it).
    max_frequency: usize,
}

impl DegreeStatistics {
    /// Compute the degree statistics of `relation` over `attribute`.
    ///
    /// # Panics
    /// Panics when the attribute is not part of the relation's schema.
    pub fn compute(relation: &Relation, attribute: &str) -> Self {
        let pos = relation
            .schema()
            .position(attribute)
            .unwrap_or_else(|| panic!("attribute `{attribute}` not in `{}`", relation.name()));
        // Sort the column and count its runs: the map is then bulk-built
        // from sorted pairs, several times cheaper than one tree insert per
        // tuple.
        let mut column: Vec<Value> = relation.iter().map(|row| row[pos]).collect();
        column.sort_unstable();
        let mut runs: Vec<(Value, usize)> = Vec::new();
        for value in column {
            match runs.last_mut() {
                Some((last, count)) if *last == value => *count += 1,
                _ => runs.push((value, 1)),
            }
        }
        let max_frequency = runs.iter().map(|&(_, count)| count).max().unwrap_or(0);
        let frequencies: BTreeMap<Value, usize> = runs.into_iter().collect();
        DegreeStatistics {
            distinct: frequencies.len(),
            total: relation.len(),
            base: Arc::new(frequencies),
            recent: BTreeMap::new(),
            max_frequency,
        }
    }

    /// Count one inserted value: bump its frequency and the cached maximum.
    /// O(log distinct) amortised — the insert-only incremental path.
    pub fn apply_insert(&mut self, value: Value) {
        let frequency = self.recent.entry(value).or_insert_with(|| {
            let counted = self.base.get(&value).copied().unwrap_or(0);
            self.distinct += usize::from(counted == 0);
            counted
        });
        *frequency += 1;
        self.max_frequency = self.max_frequency.max(*frequency);
        self.total += 1;
        if self.recent.len().pow(2) > self.base.len().max(1 << 10) {
            // Copies `base` when a snapshot still shares it: O(distinct)
            // once per √distinct counted values.
            Arc::make_mut(&mut self.base).append(&mut self.recent);
        }
    }

    /// Frequency of a specific value (zero when absent).
    pub fn frequency(&self, value: Value) -> usize {
        self.recent
            .get(&value)
            .or_else(|| self.base.get(&value))
            .copied()
            .unwrap_or(0)
    }

    /// Maximum frequency over all values (cached; O(1)).
    pub fn max_frequency(&self) -> usize {
        self.max_frequency
    }

    /// Number of distinct values (cached; O(1)).
    pub fn distinct(&self) -> usize {
        self.distinct
    }

    /// Total number of tuples counted (cached; O(1)).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Every value with its frequency, in value order.
    fn iter(&self) -> impl Iterator<Item = (Value, usize)> + '_ {
        let mut base = self.base.iter().peekable();
        let mut recent = self.recent.iter().peekable();
        std::iter::from_fn(move || {
            // `recent` holds the current count of every value it has.
            let next_base = base.peek().map(|&(&b, _)| b);
            let next_recent = recent.peek().map(|&(&r, _)| r);
            let take_recent = match (next_base, next_recent) {
                (Some(b), Some(r)) => {
                    if r == b {
                        base.next();
                    }
                    r <= b
                }
                (None, _) => true,
                (Some(_), None) => false,
            };
            let (&value, &frequency) = if take_recent { recent.next() } else { base.next() }?;
            Some((value, frequency))
        })
    }

    /// The values whose frequency is strictly above `threshold` (the
    /// paper's `m_j / p`, or any other cut), with their frequencies, in
    /// value order. O(1) when nothing is that frequent.
    pub fn heavy_hitters(&self, threshold: f64) -> impl Iterator<Item = (Value, usize)> + '_ {
        let frequent = (self.max_frequency as f64 > threshold).then(|| self.iter());
        frequent
            .into_iter()
            .flatten()
            .filter(move |&(_, f)| f as f64 > threshold)
    }
}

/// Equal histograms, however each side splits them between its two parts.
impl PartialEq for DegreeStatistics {
    fn eq(&self, other: &Self) -> bool {
        self.distinct == other.distinct
            && self.total == other.total
            && self.max_frequency == other.max_frequency
            && self.iter().eq(other.iter())
    }
}

/// Full statistics of a relation: cardinality, bit size and per-attribute
/// degree statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationStatistics {
    /// Relation name.
    pub relation: String,
    /// Cardinality `m_j`.
    pub cardinality: usize,
    /// Bit size `M_j`.
    pub size_bits: u64,
    /// Degree statistics keyed by attribute name, each behind an [`Arc`]
    /// so views of the relation share them.
    pub degrees: BTreeMap<String, Arc<DegreeStatistics>>,
}

impl RelationStatistics {
    /// Compute statistics for a relation given the bits needed per value.
    pub fn compute(relation: &Relation, bits_per_value: u64) -> Self {
        let degrees = relation
            .schema()
            .attributes()
            .iter()
            .map(|a| (a.clone(), Arc::new(DegreeStatistics::compute(relation, a))))
            .collect();
        RelationStatistics {
            relation: relation.name().to_string(),
            cardinality: relation.len(),
            size_bits: relation.size_bits(bits_per_value),
            degrees,
        }
    }

    /// Fold an insert-only delta into the statistics: cardinality, bit
    /// size and every per-attribute degree map (and with them the derived
    /// heavy-hitter sets and the fingerprint) are updated in O(delta),
    /// never re-scanning the relation. The result is identical to
    /// recomputing from the relation after the insert.
    ///
    /// # Panics
    /// Panics when `schema` does not name this relation, when an attribute
    /// is missing from the degree catalogue, or when a row's arity does not
    /// match the schema.
    pub fn apply_inserts<'a>(
        &mut self,
        schema: &Schema,
        rows: impl IntoIterator<Item = &'a [Value]>,
        bits_per_value: u64,
    ) {
        assert_eq!(
            schema.name(),
            self.relation,
            "schema names `{}` but the statistics are for `{}`",
            schema.name(),
            self.relation
        );
        let attributes = schema.attributes();
        for row in rows {
            assert_eq!(
                row.len(),
                attributes.len(),
                "row arity mismatch for relation `{}`",
                self.relation
            );
            self.cardinality += 1;
            for (attribute, &value) in attributes.iter().zip(row) {
                let degrees = self.degrees.get_mut(attribute).unwrap_or_else(|| {
                    panic!("attribute `{attribute}` not in the catalogue of `{}`", schema.name())
                });
                Arc::make_mut(degrees).apply_insert(value);
            }
        }
        // M_j = a_j · m_j · log n, so the new bit size follows from the new
        // cardinality directly.
        self.size_bits = attributes.len() as u64 * self.cardinality as u64 * bits_per_value;
    }

    /// Maximum frequency of any value of `attribute`.
    pub fn max_degree(&self, attribute: &str) -> usize {
        self.degrees
            .get(attribute)
            .map(|d| d.max_frequency())
            .unwrap_or(0)
    }

    /// A 64-bit fingerprint of the planner-relevant statistics: name,
    /// cardinality, bit size, and per-attribute distinct counts and maximum
    /// frequencies. Two relations with equal fingerprints look identical to
    /// a cost-based planner, so the fingerprint is a sound cache key for
    /// query plans; the full degree maps are deliberately *not* hashed.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_str(&self.relation);
        h.write_u64(self.cardinality as u64);
        h.write_u64(self.size_bits);
        for (attribute, degrees) in &self.degrees {
            h.write_str(attribute);
            h.write_u64(degrees.distinct() as u64);
            h.write_u64(degrees.max_frequency() as u64);
        }
        h.finish()
    }
}

/// Statistics of a whole database, computed in **one pass** over the data:
/// per-relation [`RelationStatistics`] (cardinalities, bit sizes, full
/// per-attribute degree maps) plus the combined fingerprint. Every consumer
/// that used to re-scan the data independently — fingerprint for the plan
/// cache, heavy-hitter detection per join variable, per-column distinct
/// counts for selectivity estimation — reads from this catalogue instead.
///
/// Per-relation statistics sit behind [`Arc`], mirroring the per-relation
/// copy-on-write of [`Database`]: cloning a catalogue is shallow, and the
/// incremental paths ([`DatabaseStatistics::apply_inserts`],
/// [`DatabaseStatistics::compute_reusing`]) rebuild only the touched
/// relations' entries while untouched ones keep being shared — which is
/// also how tests *assert* that nothing was recomputed (`Arc::ptr_eq`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatabaseStatistics {
    /// Per-relation statistics, keyed by relation name.
    pub relations: BTreeMap<String, Arc<RelationStatistics>>,
    /// The combined fingerprint (equals [`database_fingerprint`]).
    pub fingerprint: u64,
    /// Domain size of the analysed database — needed to recombine the
    /// fingerprint after incremental maintenance.
    domain_size: u64,
}

impl DatabaseStatistics {
    /// A catalogue over already analysed relations (keyed by name) of a
    /// database with this domain size — no data is scanned.
    fn from_relations(
        domain_size: u64,
        relations: BTreeMap<String, Arc<RelationStatistics>>,
    ) -> Self {
        DatabaseStatistics {
            fingerprint: combined_fingerprint(domain_size, &relations),
            relations,
            domain_size,
        }
    }

    /// Scan every relation of `database` once and build the catalogue.
    pub fn compute(database: &Database) -> Self {
        let bpv = database.bits_per_value();
        let relations: BTreeMap<String, Arc<RelationStatistics>> = database
            .relations()
            .map(|r| {
                (
                    r.name().to_string(),
                    Arc::new(RelationStatistics::compute(r, bpv)),
                )
            })
            .collect();
        DatabaseStatistics::from_relations(database.domain_size(), relations)
    }

    /// Build the catalogue for `database`, **reusing** the statistics of
    /// every relation whose shared row buffer is pointer-equal to the one
    /// `previous` was computed from (see [`Database::relation_arc`]) — the
    /// copy-on-write mutation path: after an edit that touched one relation
    /// of a cloned database, only that relation is re-scanned.
    pub fn compute_reusing(
        database: &Database,
        previous_database: &Database,
        previous: &DatabaseStatistics,
    ) -> Self {
        if database.domain_size() != previous_database.domain_size() {
            // A different domain changes the bits-per-value accounting of
            // every relation; nothing is reusable.
            return DatabaseStatistics::compute(database);
        }
        let bpv = database.bits_per_value();
        let relations: BTreeMap<String, Arc<RelationStatistics>> = database
            .relation_arcs()
            .map(|(name, rows)| {
                let reusable = previous_database
                    .relation_arc(name)
                    .filter(|old| Arc::ptr_eq(old, rows))
                    .and_then(|_| previous.relations.get(name));
                let stats = match reusable {
                    Some(shared) => Arc::clone(shared),
                    None => Arc::new(RelationStatistics::compute(rows, bpv)),
                };
                (name.to_string(), stats)
            })
            .collect();
        DatabaseStatistics::from_relations(database.domain_size(), relations)
    }

    /// Fold an insert-only delta for one relation into the catalogue in
    /// O(delta): the touched relation's entry is copied once
    /// (copy-on-write) and updated via [`RelationStatistics::apply_inserts`],
    /// every other entry keeps being shared, and the combined fingerprint is
    /// recombined from the per-relation fingerprints (O(relations), no data
    /// scan). Identical to recomputing from the post-insert database.
    ///
    /// # Panics
    /// Panics when the relation named by `schema` is not in the catalogue,
    /// or on any arity/attribute mismatch (see
    /// [`RelationStatistics::apply_inserts`]).
    pub fn apply_inserts<'a>(
        &mut self,
        schema: &Schema,
        rows: impl IntoIterator<Item = &'a [Value]>,
    ) {
        let bpv = crate::bits_per_value(self.domain_size);
        let stats = self
            .relations
            .get_mut(schema.name())
            .unwrap_or_else(|| panic!("relation `{}` not in the catalogue", schema.name()));
        Arc::make_mut(stats).apply_inserts(schema, rows, bpv);
        self.fingerprint = combined_fingerprint(self.domain_size, &self.relations);
    }

    /// The domain size of the database this catalogue was computed from.
    pub fn domain_size(&self) -> u64 {
        self.domain_size
    }

    /// Statistics of one relation (None when it is not in the catalogue).
    pub fn relation(&self, name: &str) -> Option<&RelationStatistics> {
        self.relations.get(name).map(Arc::as_ref)
    }
}

/// Combine the domain size and every relation's fingerprint (in name
/// order) into the database fingerprint. O(relations × attributes) thanks
/// to the cached per-attribute maxima — no degree map is walked.
fn combined_fingerprint(
    domain_size: u64,
    relations: &BTreeMap<String, Arc<RelationStatistics>>,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(domain_size);
    for stats in relations.values() {
        h.write_u64(stats.fingerprint());
    }
    h.finish()
}

/// A 64-bit fingerprint of a whole database's planner-relevant statistics:
/// the domain size combined with every relation's
/// [`RelationStatistics::fingerprint`]. Plan caches key on this value — any
/// change of cardinality, size or skew profile changes the fingerprint and
/// invalidates the cached plan.
///
/// Convenience wrapper over [`DatabaseStatistics::compute`]; callers that
/// also need degree or distinct-count statistics should compute the full
/// catalogue once and read the fingerprint from it.
pub fn database_fingerprint(database: &crate::database::Database) -> u64 {
    DatabaseStatistics::compute(database).fingerprint
}

/// Minimal FNV-1a hasher (the workspace is offline, so no hashing crates).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_str(&mut self, s: &str) {
        for byte in s.as_bytes() {
            self.0 ^= *byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length delimiter so `("ab","c")` and `("a","bc")` differ.
        self.write_u64(s.len() as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `x`-statistics of a relation (Section 4.2.3): for a set of attributes
/// `x_j = x ∩ vars(S_j)`, the exact frequency of every tuple over those
/// attributes. Generalises cardinality statistics (empty `x`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupStatistics {
    /// Relation name.
    pub relation: String,
    /// The attributes the statistics are grouped by (possibly empty).
    pub attributes: Vec<String>,
    /// Frequency `m_j(h)` of every group tuple `h`.
    pub frequencies: BTreeMap<Tuple, usize>,
}

impl GroupStatistics {
    /// Compute grouped frequencies. With an empty attribute set there is a
    /// single group (the empty tuple) whose frequency is the cardinality.
    pub fn compute(relation: &Relation, attributes: &[String]) -> Self {
        let mut frequencies: BTreeMap<Tuple, usize> = BTreeMap::new();
        if attributes.is_empty() {
            frequencies.insert(Tuple::new(vec![]), relation.len());
        } else {
            for (key, count) in relation.degree_map(attributes) {
                frequencies.insert(key, count);
            }
        }
        GroupStatistics {
            relation: relation.name().to_string(),
            attributes: attributes.to_vec(),
            frequencies,
        }
    }

    /// Frequency of a group (zero if absent).
    pub fn frequency(&self, group: &Tuple) -> usize {
        self.frequencies.get(group).copied().unwrap_or(0)
    }

    /// Sum of all group frequencies (the relation cardinality).
    pub fn total(&self) -> usize {
        self.frequencies.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Schema;

    fn skewed_relation() -> Relation {
        // Value 7 appears 5 times in attribute x, others once.
        let mut rows = vec![];
        for i in 0..5 {
            rows.push(vec![7, 100 + i]);
        }
        for i in 0..5 {
            rows.push(vec![i, 200 + i]);
        }
        Relation::from_rows(Schema::from_strs("R", &["x", "y"]), rows)
    }

    #[test]
    fn degree_statistics_basics() {
        let r = skewed_relation();
        let d = DegreeStatistics::compute(&r, "x");
        assert_eq!(d.frequency(7), 5);
        assert_eq!(d.frequency(0), 1);
        assert_eq!(d.frequency(999), 0);
        assert_eq!(d.max_frequency(), 5);
        assert_eq!(d.distinct(), 6);
        assert_eq!(d.total(), 10);
    }

    #[test]
    fn heavy_hitter_detection() {
        let r = skewed_relation();
        let d = DegreeStatistics::compute(&r, "x");
        assert_eq!(d.heavy_hitters(2.0).collect::<Vec<_>>(), vec![(7, 5)]);
        // Threshold at the max: nothing qualifies (strict inequality).
        assert_eq!(d.heavy_hitters(5.0).count(), 0);
    }

    #[test]
    fn relation_statistics_threshold_m_over_p() {
        let r = skewed_relation();
        let stats = RelationStatistics::compute(&r, 8);
        assert_eq!(stats.cardinality, 10);
        assert_eq!(stats.size_bits, 10 * 2 * 8);
        // p = 4: threshold 10/4 = 2.5, so value 7 (freq 5) in x is heavy;
        // y values all have frequency 1.
        let heavy = |attribute: &str, p: f64| -> Vec<(Value, usize)> {
            stats.degrees[attribute]
                .heavy_hitters(stats.cardinality as f64 / p)
                .collect()
        };
        assert_eq!(heavy("x", 4.0), vec![(7, 5)]);
        assert!(heavy("y", 4.0).is_empty());
        // p = 1: threshold 10, nothing heavy.
        assert!(heavy("x", 1.0).is_empty());
        assert_eq!(stats.max_degree("x"), 5);
        assert_eq!(stats.max_degree("y"), 1);
        assert_eq!(stats.max_degree("nonexistent"), 0);
    }

    #[test]
    fn group_statistics_over_attributes() {
        let r = skewed_relation();
        let g = GroupStatistics::compute(&r, &["x".to_string()]);
        assert_eq!(g.frequency(&Tuple::from([7])), 5);
        assert_eq!(g.total(), 10);
        // Empty grouping = cardinality statistics.
        let g0 = GroupStatistics::compute(&r, &[]);
        assert_eq!(g0.frequency(&Tuple::new(vec![])), 10);
        assert_eq!(g0.total(), 10);
    }

    #[test]
    fn fingerprints_track_planner_relevant_changes() {
        let r = skewed_relation();
        let base = RelationStatistics::compute(&r, 8).fingerprint();
        // Deterministic.
        assert_eq!(base, RelationStatistics::compute(&r, 8).fingerprint());
        // Adding a tuple changes cardinality => new fingerprint.
        let mut bigger = r.clone();
        bigger.push(Tuple::from([99, 999]));
        assert_ne!(base, RelationStatistics::compute(&bigger, 8).fingerprint());
        // Same shape under a different name => new fingerprint.
        let renamed = r.renamed("R2");
        assert_ne!(base, RelationStatistics::compute(&renamed, 8).fingerprint());
    }

    #[test]
    fn database_fingerprint_changes_with_content() {
        let mut db = crate::Database::new(1 << 10);
        db.insert(skewed_relation());
        let base = database_fingerprint(&db);
        assert_eq!(base, database_fingerprint(&db));
        db.relation_mut("R").unwrap().push(Tuple::from([5, 501]));
        assert_ne!(base, database_fingerprint(&db));
    }

    #[test]
    fn apply_insert_tracks_frequencies_and_cached_maximum() {
        let r = skewed_relation();
        let mut d = DegreeStatistics::compute(&r, "x");
        d.apply_insert(0); // 1 -> 2, below the max of 5
        assert_eq!(d.frequency(0), 2);
        assert_eq!(d.max_frequency(), 5);
        for _ in 0..4 {
            d.apply_insert(3); // 1 -> 5, ties the max
        }
        assert_eq!(d.max_frequency(), 5);
        d.apply_insert(3); // 6, a new max
        assert_eq!(d.max_frequency(), 6);
        // Brand-new value.
        d.apply_insert(777);
        assert_eq!(d.frequency(777), 1);
        assert_eq!(d.distinct(), 7);
    }

    #[test]
    fn counted_inserts_equal_a_recount_across_folds_and_leave_clones_alone() {
        let mut r = skewed_relation();
        let mut d = DegreeStatistics::compute(&r, "x");
        let mut snapshots = vec![(d.clone(), r.clone())];
        for i in 0..600u64 {
            // Old values, new values and a few hot ones, past several folds.
            let x = [i % 7, 1_000 + i, 3, 2_000 + i / 3][(i % 4) as usize];
            r.push_row(&[x, i]);
            d.apply_insert(x);
            if i % 97 == 0 {
                snapshots.push((d.clone(), r.clone()));
            }
        }
        assert!(d.recent.len() < 600, "the recent values were folded");
        assert_eq!(d, DegreeStatistics::compute(&r, "x"));
        assert_eq!(d.total(), r.len());
        assert_eq!(d.heavy_hitters(50.0).collect::<Vec<_>>(), vec![(3, d.frequency(3))]);
        // Every clone still describes the relation it was taken with.
        for (degrees, relation) in &snapshots {
            assert_eq!(degrees, &DegreeStatistics::compute(relation, "x"));
        }
    }

    #[test]
    fn relation_apply_inserts_matches_recompute() {
        let mut r = skewed_relation();
        let mut stats = RelationStatistics::compute(&r, 8);
        let schema = r.schema().clone();
        let delta: Vec<Vec<Value>> = vec![vec![7, 300], vec![42, 301], vec![7, 300]];
        stats.apply_inserts(&schema, delta.iter().map(Vec::as_slice), 8);
        for row in &delta {
            r.push_row(row);
        }
        let recomputed = RelationStatistics::compute(&r, 8);
        assert_eq!(stats, recomputed);
        assert_eq!(stats.fingerprint(), recomputed.fingerprint());
        assert_eq!(stats.cardinality, 13);
        assert_eq!(stats.size_bits, 13 * 2 * 8);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn relation_apply_inserts_rejects_ragged_rows() {
        let r = skewed_relation();
        let mut stats = RelationStatistics::compute(&r, 8);
        let schema = r.schema().clone();
        stats.apply_inserts(&schema, std::iter::once(&[1u64][..]), 8);
    }

    fn two_relation_db() -> crate::Database {
        let mut db = crate::Database::new(1 << 10);
        db.insert(skewed_relation());
        db.insert(Relation::from_rows(
            Schema::from_strs("S", &["y", "z"]),
            vec![vec![100, 1], vec![101, 2]],
        ));
        db
    }

    #[test]
    fn database_apply_inserts_matches_recompute_and_shares_untouched_entries() {
        let mut db = two_relation_db();
        let mut stats = DatabaseStatistics::compute(&db);
        let untouched_before = Arc::clone(&stats.relations["S"]);
        let schema = db.relation("R").unwrap().schema().clone();
        stats.apply_inserts(&schema, std::iter::once(&[7u64, 999][..]));
        db.relation_mut("R").unwrap().push(Tuple::from([7, 999]));
        let recomputed = DatabaseStatistics::compute(&db);
        assert_eq!(stats, recomputed, "incremental == from-scratch");
        assert_eq!(stats.fingerprint, recomputed.fingerprint);
        assert!(
            Arc::ptr_eq(&stats.relations["S"], &untouched_before),
            "untouched relation's statistics stay shared, not recomputed"
        );
    }

    #[test]
    fn compute_reusing_shares_statistics_of_pointer_equal_relations() {
        let before = two_relation_db();
        let previous = DatabaseStatistics::compute(&before);
        let mut after = before.clone();
        after.relation_mut("R").unwrap().push(Tuple::from([7, 999]));
        let next = DatabaseStatistics::compute_reusing(&after, &before, &previous);
        assert_eq!(next, DatabaseStatistics::compute(&after));
        assert!(
            Arc::ptr_eq(&next.relations["S"], &previous.relations["S"]),
            "S's rows are pointer-equal, so its statistics are reused"
        );
        assert!(
            !Arc::ptr_eq(&next.relations["R"], &previous.relations["R"]),
            "R changed and was re-analysed"
        );
    }

    #[test]
    fn matching_relation_has_no_heavy_hitters() {
        let r = Relation::from_rows(
            Schema::from_strs("M", &["x", "y"]),
            (0..20).map(|i| vec![i, i + 100]).collect(),
        );
        let stats = RelationStatistics::compute(&r, 8);
        for p in [4.0, 20.0] {
            for degrees in stats.degrees.values() {
                assert_eq!(degrees.heavy_hitters(20.0 / p).count(), 0);
            }
        }
    }
}
