//! Relations: a schema plus a multiset of rows in flat columnar storage.
//!
//! Relations support the operations the paper's analysis needs: projection,
//! selection, set union, frequency ("degree") computation `d_J(R)` from the
//! HyperCube load analysis, and bit-size accounting; joins live in
//! [`crate::join`].
//!
//! # Storage layout
//!
//! Rows are stored **row-major in a single flat `Vec<Value>`** with the
//! arity as stride: row `i` occupies `values[i * arity .. (i + 1) * arity]`.
//! There is no per-row allocation anywhere, and scanning is a linear walk
//! over one contiguous buffer. The owned [`Tuple`] type survives only at API
//! boundaries that genuinely need owned rows (serde payloads, `pqd` output,
//! degree-map keys); everything on the execution hot path works with
//! borrowed `&[Value]` row views.
//!
//! The buffer is **shared and copy-on-write** (`Arc<Vec<Value>>`): every
//! operation that keeps the rows as they are — [`Clone`],
//! [`Relation::with_schema`], [`Relation::renamed`], an identity
//! [`Relation::project`] — is O(1) and hands out another handle on the same
//! buffer. That is how a HyperCube fragment reaches every server of its
//! destination subcube without being copied once per server. A mutation
//! ([`Relation::push_row`], [`Relation::append`], …) writes in place while
//! the handle is the buffer's only one and copies the buffer first when it
//! is not, so no handle ever observes another's writes. Checking for
//! uniqueness costs an atomic operation per call: loops that emit many rows
//! fill a plain `Vec<Value>` and freeze it once with
//! [`Relation::from_values`].

use crate::hash::hash_values;
use crate::rowindex::{assert_indexable, RowKeyIndex};
use crate::schema::Schema;
use crate::tuple::{Tuple, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A relation instance: a schema plus a flat row-major buffer of rows.
///
/// Rows are stored contiguously, so a relation is a bag; [`Relation::dedup`]
/// converts it to a set. All algorithms in this workspace produce and expect
/// set semantics, but intermediate routing states may briefly hold
/// duplicates.
///
/// # Iteration and borrowing contract
///
/// [`Relation::iter`] (and `&Relation as IntoIterator`) yields **borrowed
/// row views** `&[Value]` of length [`Relation::arity`], valid for as long
/// as *this handle* is not mutated; no row is copied or allocated during
/// iteration. [`Relation::row`] returns the same view by index. Callers that
/// need an owned row (to store it beyond the borrow, or to use it as an
/// owned map key) convert explicitly via [`Relation::tuple_at`] or
/// [`Relation::to_tuples`] — those are the only places a [`Tuple`] is
/// materialised.
///
/// `clone()` is O(1): the clone shares the row buffer, and whichever of the
/// two is mutated first takes its own copy (see the module docs). A clone is
/// therefore a stable snapshot — mutating the original, or any other clone,
/// never changes the rows it yields — and equality compares rows, not
/// buffer identity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Relation {
    schema: Schema,
    /// Row-major values, shared between clones and copied on the first
    /// write to a shared buffer; `values.len() == rows * schema.arity()`.
    values: Arc<Vec<Value>>,
    /// Number of rows. Kept explicitly so nullary relations (arity 0) can
    /// still hold tuples — the empty tuple has no values to store.
    rows: usize,
}

impl Relation {
    /// Create an empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation::from_values(schema, 0, Vec::new())
    }

    /// Create an empty relation with pre-allocated space for `rows` rows.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let capacity = rows * schema.arity();
        Relation::from_values(schema, 0, Vec::with_capacity(capacity))
    }

    /// Freeze a filled row-major buffer into a relation of `rows` rows —
    /// the constructor of every loop that emits rows (see the module docs:
    /// the loop pushes onto a plain `Vec`, the shape is checked once here).
    /// The row count is explicit because a nullary relation's buffer is
    /// empty however many rows it holds.
    ///
    /// # Panics
    /// Panics when `values.len() != rows * schema.arity()`.
    pub fn from_values(schema: Schema, rows: usize, values: Vec<Value>) -> Self {
        assert_eq!(
            rows.checked_mul(schema.arity()),
            Some(values.len()),
            "{rows} row(s) of relation `{schema}` do not make a buffer of {} value(s)",
            values.len()
        );
        Relation {
            schema,
            values: Arc::new(values),
            rows,
        }
    }

    /// Create a relation from a schema and owned tuples (boundary
    /// constructor; the tuples are flattened into the row buffer).
    ///
    /// # Panics
    /// Panics when a tuple's arity does not match the schema.
    pub fn new(schema: Schema, tuples: Vec<Tuple>) -> Self {
        Relation::collect_rows(schema, tuples.iter().map(Tuple::values))
    }

    /// Create a relation from raw value rows.
    ///
    /// # Panics
    /// Panics when a row's length does not match the schema arity.
    pub fn from_rows(schema: Schema, rows: Vec<Vec<Value>>) -> Self {
        Relation::collect_rows(schema, rows.iter().map(Vec::as_slice))
    }

    /// Flatten row views of the schema's arity into a fresh buffer.
    fn collect_rows<'a>(schema: Schema, rows: impl ExactSizeIterator<Item = &'a [Value]>) -> Self {
        let arity = schema.arity();
        let count = rows.len();
        let mut values = Vec::with_capacity(count * arity);
        for row in rows {
            assert_eq!(row.len(), arity, "row arity mismatch for relation `{}`", schema.name());
            values.extend_from_slice(row);
        }
        Relation::from_values(schema, count, values)
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The relation's name (shorthand for `schema().name()`).
    pub fn name(&self) -> &str {
        self.schema.name()
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of tuples (cardinality `m_j`).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The raw row-major value buffer (`len() * arity()` values).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Give up the relation for its row buffer: the buffer itself when no
    /// clone shares it, else a copy.
    pub fn into_values(self) -> Vec<Value> {
        Arc::try_unwrap(self.values).unwrap_or_else(|shared| (*shared).clone())
    }

    /// The identity of the row buffer — its address, length and stride —
    /// or `None` for an empty buffer (every empty buffer has the same
    /// dangling address). Two live relations with the same id share their
    /// rows: that is how a block join tells which servers of a HyperCube
    /// subcube hold one fragment.
    pub(crate) fn buffer_id(&self) -> Option<BufferId> {
        (!self.values.is_empty()).then(|| BufferId {
            address: self.values.as_ptr() as usize,
            values: self.values.len(),
            arity: self.schema.arity(),
        })
    }

    /// Borrowed view of row `i` (length [`Relation::arity`]).
    ///
    /// # Panics
    /// Panics when `i >= len()`.
    pub fn row(&self, i: usize) -> &[Value] {
        assert!(i < self.rows, "row {i} out of bounds (len {})", self.rows);
        let a = self.schema.arity();
        &self.values[i * a..(i + 1) * a]
    }

    /// Iterate over borrowed row views (see the type-level borrowing
    /// contract).
    pub fn iter(&self) -> Rows<'_> {
        self.iter_range(0, self.rows)
    }

    /// [`Relation::iter`] over rows `lo..hi` only (a morsel's scan).
    ///
    /// # Panics
    /// Panics unless `lo <= hi <= len()`.
    pub(crate) fn iter_range(&self, lo: usize, hi: usize) -> Rows<'_> {
        assert!(lo <= hi && hi <= self.rows, "rows {lo}..{hi} out of bounds (len {})", self.rows);
        Rows {
            values: &self.values,
            arity: self.schema.arity(),
            front: lo,
            back: hi,
        }
    }

    /// Owned copy of row `i` (boundary use only).
    pub fn tuple_at(&self, i: usize) -> Tuple {
        Tuple::new(self.row(i).to_vec())
    }

    /// Owned copies of all rows (boundary use: serde payloads, assertions in
    /// tests). Never called on the execution hot path.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        self.iter().map(|r| Tuple::new(r.to_vec())).collect()
    }

    /// Append a row view: one `extend_from_slice`, after the copy-on-write
    /// uniqueness check every mutation pays (see the module docs).
    ///
    /// # Panics
    /// Panics when the row length does not match the schema arity.
    pub fn push_row(&mut self, row: &[Value]) {
        assert_eq!(
            row.len(),
            self.schema.arity(),
            "row arity mismatch for relation `{}`",
            self.schema.name()
        );
        Arc::make_mut(&mut self.values).extend_from_slice(row);
        self.rows += 1;
    }

    /// Append `row[positions[0]], row[positions[1]], …` as a new row —
    /// projection without an intermediate allocation.
    ///
    /// # Panics
    /// Panics when `positions.len()` does not match the schema arity or a
    /// position is out of bounds for `row`.
    pub fn push_row_projected(&mut self, row: &[Value], positions: &[usize]) {
        assert_eq!(
            positions.len(),
            self.schema.arity(),
            "projected row arity mismatch for relation `{}`",
            self.schema.name()
        );
        Arc::make_mut(&mut self.values).extend(positions.iter().map(|&p| row[p]));
        self.rows += 1;
    }

    /// Add an owned tuple (boundary convenience; flattened on insert).
    ///
    /// # Panics
    /// Panics when the tuple arity does not match the schema.
    pub fn push(&mut self, tuple: Tuple) {
        self.push_row(tuple.values());
    }

    /// Extend with many owned tuples.
    ///
    /// # Panics
    /// Panics when a tuple's arity does not match the schema.
    pub fn extend(&mut self, tuples: impl IntoIterator<Item = Tuple>) {
        let arity = self.schema.arity();
        let values = Arc::make_mut(&mut self.values);
        for t in tuples {
            assert_eq!(t.arity(), arity, "row arity mismatch for relation `{}`", self.schema.name());
            values.extend_from_slice(t.values());
            self.rows += 1;
        }
    }

    /// Append every row of `other` (one buffer copy; the fragment-merge path
    /// of the simulated servers — a server that holds a fragment shared with
    /// the rest of its subcube takes its own copy here).
    ///
    /// # Panics
    /// Panics when the arities differ.
    pub fn append(&mut self, other: &Relation) {
        assert_eq!(
            self.schema.arity(),
            other.schema.arity(),
            "cannot append `{}` (arity {}) to `{}` (arity {})",
            other.name(),
            other.arity(),
            self.name(),
            self.arity()
        );
        Arc::make_mut(&mut self.values).extend_from_slice(&other.values);
        self.rows += other.rows;
    }

    /// Size of the relation in bits: `arity * len * bits_per_value`
    /// (the paper's `M_j = a_j · m_j · log n`).
    pub fn size_bits(&self, bits_per_value: u64) -> u64 {
        self.arity() as u64 * self.len() as u64 * bits_per_value
    }

    /// Remove duplicate tuples (set semantics). Preserves first occurrence
    /// order: the one-part case of [`Relation::union_distinct`].
    pub fn dedup(&mut self) {
        if self.rows > 1 {
            *self = Relation::union_distinct(self.schema.clone(), std::slice::from_ref(self));
        }
    }

    /// The set union of `parts` under `schema`: their rows in
    /// first-occurrence order over the parts taken in order — byte for byte
    /// what appending every part and then calling [`Relation::dedup`] gives,
    /// without the appended copy. One seen-set sized to the parts' total row
    /// count and one output buffer, allocated once: insert-if-absent on the
    /// join's compact chained key index over the seeded row hash of
    /// [`crate::hash`], with full-row verification on equal hashes.
    ///
    /// # Panics
    /// Panics when a part's arity differs from the schema's.
    pub fn union_distinct(schema: Schema, parts: &[Relation]) -> Relation {
        let arity = schema.arity();
        if let Some(part) = parts.iter().find(|part| part.arity() != arity) {
            panic!("cannot merge `{}` (arity {}) into `{schema}`", part.name(), part.arity());
        }
        let total: usize = parts.iter().map(Relation::len).sum();
        if total == 0 || arity == 0 {
            // All nullary rows are the empty tuple.
            return Relation::from_values(schema, total.min(1), Vec::new());
        }
        // `kept` indexes the rows of `out`, the kept prefix; slice equality
        // against it resolves hash collisions exactly.
        assert_indexable(total, schema.name());
        let mut kept = RowKeyIndex::with_capacity(total);
        let mut out: Vec<Value> = Vec::with_capacity(total * arity);
        for row in parts.iter().flat_map(Relation::iter) {
            let h = hash_values(row);
            if !kept
                .chain(h, kept.find(h))
                .any(|k| &out[k * arity..(k + 1) * arity] == row)
            {
                kept.insert(h);
                out.extend_from_slice(row);
            }
        }
        Relation::from_values(schema, kept.len(), out)
    }

    /// Sort tuples lexicographically (useful for comparisons in tests).
    pub fn sort(&mut self) {
        let arity = self.schema.arity();
        if arity == 0 || self.rows <= 1 {
            return;
        }
        let mut order: Vec<usize> = (0..self.rows).collect();
        order.sort_unstable_by(|&a, &b| {
            self.values[a * arity..(a + 1) * arity]
                .cmp(&self.values[b * arity..(b + 1) * arity])
        });
        let mut sorted = Vec::with_capacity(self.values.len());
        for &i in &order {
            sorted.extend_from_slice(&self.values[i * arity..(i + 1) * arity]);
        }
        self.values = Arc::new(sorted);
    }

    /// Return a sorted, deduplicated copy (canonical form for equality
    /// comparisons between query answers).
    pub fn canonicalized(&self) -> Relation {
        let mut r = self.clone();
        r.dedup();
        r.sort();
        r
    }

    /// Rename the relation in place (schema attributes unchanged).
    pub fn rename(&mut self, name: impl Into<String>) {
        self.schema = self.schema.renamed(name);
    }

    /// The same rows under another relation name (schema attributes
    /// unchanged; the buffer is shared, not copied).
    pub fn renamed(&self, name: impl Into<String>) -> Relation {
        Relation {
            schema: self.schema.renamed(name),
            values: self.values.clone(),
            rows: self.rows,
        }
    }

    /// The same rows under a different schema of the same arity (the buffer
    /// is shared, not copied; used to bind stored relations to query atoms
    /// without touching any row).
    ///
    /// # Panics
    /// Panics when the arities differ.
    pub fn with_schema(&self, schema: Schema) -> Relation {
        assert_eq!(
            schema.arity(),
            self.schema.arity(),
            "schema `{schema}` does not fit relation `{}` of arity {}",
            self.name(),
            self.arity()
        );
        Relation {
            schema,
            values: self.values.clone(),
            rows: self.rows,
        }
    }

    /// Project onto the given attributes (set semantics is *not* enforced;
    /// call [`Relation::dedup`] afterwards if needed). When the requested
    /// attributes are exactly this relation's columns in order, the buffer
    /// is shared instead of copied row by row.
    ///
    /// # Panics
    /// Panics when an attribute is missing from the schema.
    pub fn project(&self, attributes: &[String], name: &str) -> Relation {
        let positions: Vec<usize> = attributes
            .iter()
            .map(|a| {
                self.schema
                    .position(a)
                    .unwrap_or_else(|| panic!("attribute `{a}` not in `{}`", self.schema.name()))
            })
            .collect();
        let schema = Schema::new(name, attributes.to_vec());
        if positions.len() == self.schema.arity()
            && positions.iter().enumerate().all(|(i, &p)| i == p)
        {
            return Relation {
                schema,
                values: self.values.clone(),
                rows: self.rows,
            };
        }
        let mut values = Vec::with_capacity(self.rows * positions.len());
        for row in self.iter() {
            values.extend(positions.iter().map(|&p| row[p]));
        }
        Relation::from_values(schema, self.rows, values)
    }

    /// Select tuples where `attribute == value`.
    ///
    /// # Panics
    /// Panics when the attribute is missing from the schema.
    pub fn select_eq(&self, attribute: &str, value: Value) -> Relation {
        let pos = self
            .schema
            .position(attribute)
            .unwrap_or_else(|| panic!("attribute `{attribute}` not in `{}`", self.schema.name()));
        self.filter(|row| row[pos] == value)
    }

    /// Select tuples satisfying an arbitrary predicate over the row view.
    pub fn filter(&self, predicate: impl Fn(&[Value]) -> bool) -> Relation {
        let mut values = Vec::new();
        let mut rows = 0usize;
        for row in self.iter().filter(|row| predicate(row)) {
            values.extend_from_slice(row);
            rows += 1;
        }
        Relation::from_values(self.schema.clone(), rows, values)
    }

    /// Frequency map over a subset of attributes: for every distinct
    /// projection value `J`, the degree `d_J(R) = |σ_J(R)|`. The keys are
    /// owned [`Tuple`]s (one allocation per *distinct* key, not per row) —
    /// this is a statistics-time API, not an execution-time one.
    ///
    /// # Panics
    /// Panics when an attribute is missing from the schema.
    pub fn degree_map(&self, attributes: &[String]) -> HashMap<Tuple, usize> {
        let positions: Vec<usize> = attributes
            .iter()
            .map(|a| {
                self.schema
                    .position(a)
                    .unwrap_or_else(|| panic!("attribute `{a}` not in `{}`", self.schema.name()))
            })
            .collect();
        let mut map: HashMap<Tuple, usize> = HashMap::new();
        let mut key: Vec<Value> = Vec::with_capacity(positions.len());
        for row in self.iter() {
            key.clear();
            key.extend(positions.iter().map(|&p| row[p]));
            // Borrow-based lookup: a Tuple is allocated only for new keys.
            match map.get_mut(key.as_slice()) {
                Some(count) => *count += 1,
                None => {
                    map.insert(Tuple::new(key.clone()), 1);
                }
            }
        }
        map
    }

    /// Maximum degree over a subset of attributes (`max_J d_J(R)`); zero for
    /// the empty relation.
    pub fn max_degree(&self, attributes: &[String]) -> usize {
        self.degree_map(attributes).values().copied().max().unwrap_or(0)
    }

    /// True when every degree over every single attribute is exactly one,
    /// i.e. the relation is an `a`-dimensional (partial) matching — the
    /// skew-free inputs of Section 3.
    pub fn is_matching(&self) -> bool {
        for attr in self.schema.attributes() {
            if self
                .degree_map(std::slice::from_ref(attr))
                .values()
                .any(|&d| d > 1)
            {
                return false;
            }
        }
        true
    }
}

/// The identity of a live row buffer (see [`Relation::buffer_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct BufferId {
    address: usize,
    values: usize,
    arity: usize,
}

/// Iterator over the borrowed row views of a [`Relation`].
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    values: &'a [Value],
    arity: usize,
    front: usize,
    back: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        if self.front == self.back {
            return None;
        }
        let i = self.front;
        self.front += 1;
        Some(&self.values[i * self.arity..(i + 1) * self.arity])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl DoubleEndedIterator for Rows<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        if self.front == self.back {
            return None;
        }
        self.back -= 1;
        let i = self.back;
        Some(&self.values[i * self.arity..(i + 1) * self.arity])
    }
}

impl ExactSizeIterator for Rows<'_> {}
impl std::iter::FusedIterator for Rows<'_> {}

impl<'a> IntoIterator for &'a Relation {
    type Item = &'a [Value];
    type IntoIter = Rows<'a>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Relation {
        Relation::from_rows(
            Schema::from_strs("R", &["x", "y"]),
            vec![vec![1, 10], vec![2, 20], vec![3, 10], vec![1, 10]],
        )
    }

    #[test]
    fn construction_and_size() {
        let r = sample();
        assert_eq!(r.len(), 4);
        assert_eq!(r.arity(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.size_bits(8), 4 * 2 * 8);
        assert_eq!(r.name(), "R");
        assert_eq!(r.values().len(), 8);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        Relation::from_rows(Schema::from_strs("R", &["x"]), vec![vec![1, 2]]);
    }

    #[test]
    fn row_views_and_iteration() {
        let r = sample();
        assert_eq!(r.row(0), &[1, 10]);
        assert_eq!(r.row(3), &[1, 10]);
        let rows: Vec<&[Value]> = r.iter().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[1], &[2, 20]);
        // Reverse iteration and exact size.
        assert_eq!(r.iter().len(), 4);
        assert_eq!(r.iter().next_back().unwrap(), &[1, 10]);
        assert_eq!(r.tuple_at(1), Tuple::from([2, 20]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_out_of_bounds_panics() {
        sample().row(4);
    }

    #[test]
    fn dedup_and_sort() {
        let r = sample().canonicalized();
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.to_tuples(),
            vec![
                Tuple::from([1, 10]),
                Tuple::from([2, 20]),
                Tuple::from([3, 10])
            ]
        );
    }

    #[test]
    fn dedup_preserves_first_occurrence_order() {
        let mut r = Relation::from_rows(
            Schema::from_strs("R", &["x"]),
            vec![vec![5], vec![3], vec![5], vec![9], vec![3]],
        );
        r.dedup();
        assert_eq!(r.values(), &[5, 3, 9]);
    }

    /// The merge [`Relation::union_distinct`] replaces: append every part,
    /// then deduplicate.
    fn append_then_dedup(schema: &Schema, parts: &[Relation]) -> Relation {
        let mut all = Relation::empty(schema.clone());
        for part in parts {
            all.append(part);
        }
        all.dedup();
        all
    }

    /// The distinct rows of `parts` in first-occurrence order, kept by a
    /// `HashSet` of owned rows: a reference that shares no code with
    /// [`Relation::union_distinct`], of which `dedup` is now a case.
    fn first_occurrences(parts: &[Relation]) -> (usize, Vec<Value>) {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for row in parts.iter().flat_map(Relation::iter) {
            if seen.insert(row.to_vec()) {
                out.extend_from_slice(row);
            }
        }
        (seen.len(), out)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn union_distinct_equals_append_then_dedup(
            arity in 0usize..5,
            cells in proptest::collection::vec(
                proptest::collection::vec(0u64..4, 0..48),
                0..9,
            ),
        ) {
            // Values below 4 repeat rows within and across parts; a part
            // with fewer cells than the arity is empty.
            let attributes: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
            let schema = Schema::new("U", attributes.clone());
            let parts: Vec<Relation> = cells
                .iter()
                .enumerate()
                .map(|(j, cells)| {
                    let rows = cells.len().checked_div(arity).unwrap_or(cells.len());
                    let part = Schema::new(format!("P{j}"), attributes.clone());
                    Relation::from_values(part, rows, cells[..rows * arity].to_vec())
                })
                .collect();
            let merged = Relation::union_distinct(schema.clone(), &parts);
            let expected = append_then_dedup(&schema, &parts);
            prop_assert_eq!(merged.schema(), &schema);
            prop_assert_eq!(merged.len(), expected.len());
            prop_assert_eq!(merged.values(), expected.values());
            let (rows, values) = first_occurrences(&parts);
            prop_assert_eq!(merged.len(), rows);
            prop_assert_eq!(merged.values(), values.as_slice());
        }
    }

    #[test]
    fn union_distinct_of_no_part_one_part_and_empty_parts() {
        let schema = Schema::from_strs("U", &["x", "y"]);
        let none = Relation::union_distinct(schema.clone(), &[]);
        assert_eq!((none.len(), none.name()), (0, "U"));
        let merged = Relation::union_distinct(schema.clone(), &[sample()]);
        assert_eq!(merged.values(), &[1, 10, 2, 20, 3, 10]);
        let empty = Relation::empty(Schema::from_strs("E", &["a", "b"]));
        let parts = [empty.clone(), sample(), empty.clone(), sample().renamed("S"), empty];
        let merged = Relation::union_distinct(schema, &parts);
        assert_eq!(merged.values(), &[1, 10, 2, 20, 3, 10]);
        // Nullary parts: one empty tuple however many are merged.
        let nullary = Relation::from_values(Schema::from_strs("N", &[]), 3, Vec::new());
        let parts = [nullary.clone(), nullary];
        assert_eq!(Relation::union_distinct(Schema::from_strs("N", &[]), &parts).len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot merge")]
    fn union_distinct_arity_mismatch_panics() {
        Relation::union_distinct(Schema::from_strs("U", &["x"]), &[sample()]);
    }

    #[test]
    fn nullary_relation_roundtrip() {
        let mut r = Relation::empty(Schema::new("N", vec![]));
        assert_eq!(r.arity(), 0);
        r.push_row(&[]);
        r.push_row(&[]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.iter().count(), 2);
        for row in r.iter() {
            assert!(row.is_empty());
        }
        r.dedup();
        assert_eq!(r.len(), 1);
        r.sort();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn append_merges_buffers() {
        let mut r = sample();
        let s = Relation::from_rows(Schema::from_strs("S", &["a", "b"]), vec![vec![7, 8]]);
        r.append(&s);
        assert_eq!(r.len(), 5);
        assert_eq!(r.row(4), &[7, 8]);
    }

    #[test]
    #[should_panic(expected = "cannot append")]
    fn append_arity_mismatch_panics() {
        let mut r = sample();
        r.append(&Relation::empty(Schema::from_strs("S", &["a"])));
    }

    #[test]
    fn projection() {
        let r = sample();
        let p = r.project(&["y".to_string()], "P");
        assert_eq!(p.arity(), 1);
        assert_eq!(p.len(), 4);
        let p = p.canonicalized();
        assert_eq!(p.to_tuples(), vec![Tuple::from([10]), Tuple::from([20])]);
        // Identity projection takes the fast path but must stay equivalent.
        let id = r.project(&["x".to_string(), "y".to_string()], "Q");
        assert_eq!(id.values(), r.values());
        assert_eq!(id.name(), "Q");
    }

    #[test]
    fn projection_reorders_and_repeats() {
        let r = sample();
        let p = r.project(&["y".to_string(), "x".to_string()], "P");
        assert_eq!(p.row(0), &[10, 1]);
    }

    #[test]
    fn push_row_projected_projects_in_place() {
        let mut out = Relation::empty(Schema::from_strs("P", &["b", "a"]));
        out.push_row_projected(&[1, 2, 3], &[2, 0]);
        assert_eq!(out.row(0), &[3, 1]);
    }

    #[test]
    fn selection() {
        let r = sample();
        assert_eq!(r.select_eq("x", 1).len(), 2);
        assert_eq!(r.select_eq("y", 20).len(), 1);
        assert_eq!(r.select_eq("y", 999).len(), 0);
    }

    #[test]
    fn degree_map_counts_frequencies() {
        let r = sample();
        let d = r.degree_map(&["y".to_string()]);
        assert_eq!(d[&Tuple::from([10])], 3);
        assert_eq!(d[&Tuple::from([20])], 1);
        assert_eq!(r.max_degree(&["y".to_string()]), 3);
        assert_eq!(r.max_degree(&["x".to_string(), "y".to_string()]), 2);
    }

    #[test]
    fn matching_detection() {
        let m = Relation::from_rows(
            Schema::from_strs("M", &["x", "y"]),
            vec![vec![1, 4], vec![2, 5], vec![3, 6]],
        );
        assert!(m.is_matching());
        assert!(!sample().is_matching());
        assert!(Relation::empty(Schema::from_strs("E", &["x"])).is_matching());
    }

    #[test]
    fn with_schema_rebinds_columns() {
        let r = sample();
        let bound = r.with_schema(Schema::from_strs("R", &["u", "v"]));
        assert_eq!(bound.schema().attributes(), &["u".to_string(), "v".to_string()]);
        assert_eq!(bound.values(), r.values());
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn with_schema_arity_mismatch_panics() {
        sample().with_schema(Schema::from_strs("R", &["u"]));
    }

    #[test]
    fn from_values_freezes_a_filled_buffer() {
        let r = Relation::from_values(Schema::from_strs("R", &["x", "y"]), 2, vec![1, 2, 3, 4]);
        assert_eq!(r.row(1), &[3, 4]);
        // A nullary relation's rows leave nothing in the buffer.
        let truthy = Relation::from_values(Schema::from_strs("N", &[]), 3, Vec::new());
        assert_eq!(truthy.len(), 3);
    }

    #[test]
    #[should_panic(expected = "do not make a buffer of 3 value(s)")]
    fn from_values_rejects_a_ragged_buffer() {
        Relation::from_values(Schema::from_strs("R", &["x", "y"]), 2, vec![1, 2, 3]);
    }

    #[test]
    fn copies_share_rows_until_one_of_them_is_mutated() {
        let original = sample();
        let mut clone = original.clone();
        let mut bound = original.with_schema(Schema::from_strs("R", &["u", "v"]));
        let mut renamed = original.renamed("S");
        let identity = original.project(&["x".to_string(), "y".to_string()], "P");
        // O(1): every copy reads the original's buffer.
        for copy in [&clone, &bound, &renamed, &identity] {
            assert_eq!(copy.values().as_ptr(), original.values().as_ptr());
        }
        // Each kind of write lands in the writer's own copy only.
        clone.push_row(&[7, 70]);
        bound.append(&clone);
        renamed.dedup();
        let mut sorted = identity.clone();
        sorted.sort();
        assert_eq!(original, sample());
        assert_eq!(identity.values(), sample().values());
        assert_eq!((clone.len(), bound.len(), renamed.len()), (5, 9, 3));
        assert_eq!(sorted.row(0), &[1, 10]);
        // And the other way round: writing the original leaves copies alone.
        let mut original = original;
        let snapshot = original.clone();
        original.extend([Tuple::from([8, 80])]);
        original.push_row_projected(&[0, 9, 90], &[1, 2]);
        assert_eq!(original.len(), 6);
        assert_eq!(snapshot, sample());
    }

    #[test]
    fn filter_with_predicate() {
        let r = sample();
        let f = r.filter(|t| t[0] + t[1] > 20);
        assert_eq!(f.len(), 1);
        assert_eq!(f.row(0), &[2, 20]);
    }
}
