//! Sequential join evaluation.
//!
//! Two uses:
//!
//! 1. **Local computation** — after the communication phase each simulated
//!    server evaluates its residual query over the tuples it received; the
//!    MPC model does not charge for this, so any in-memory algorithm is
//!    admissible. We use hash-based natural joins with a greedy
//!    most-connected-first ordering.
//! 2. **Correctness oracle** — tests compare every distributed algorithm's
//!    output against [`natural_join_all`] run on the full database.
//!
//! Attribute names double as query-variable names, so the natural join over
//! shared attribute names is exactly conjunctive-query evaluation for the
//! instantiated atoms.
//!
//! The build/probe loops are **allocation-free per row**: attribute
//! positions are resolved to position vectors once per join (no `String`
//! comparison inside loops), the build-side index hashes key slices in place
//! with the seeded mixer of [`crate::hash`] (no key tuple, no SipHash), the
//! output is pre-sized from the build-side match counts, and output rows are
//! emitted by `extend_from_slice` into the flat buffer.
//!
//! **Morsel parallelism.** When the calling thread has a `pq-exec` pool
//! installed (the engine installs its pool around execution; cluster
//! workers install theirs around `local_answer`), a large probe side is
//! split into fixed-size morsels of [`MORSEL_ROWS`] rows. Every morsel
//! probes the same shared read-only `RowKeyIndex` build, emits into its
//! own exactly pre-sized buffer, and the buffers are concatenated in morsel
//! order — so the output is byte-identical to the sequential path at any
//! pool size. Small inputs (and pool size 1) take the sequential path
//! unconditionally.

use crate::hash::hash_key;
use crate::relation::Relation;
use crate::rowindex::RowKeyIndex;
use crate::schema::Schema;
use crate::tuple::Value;
use std::borrow::{Borrow, Cow};

/// Natural join of two relations over their shared attribute names.
///
/// The output schema is the left schema followed by the right attributes
/// that are not shared; the output name is `"{left}⋈{right}"`.
/// With no shared attributes this is the Cartesian product.
pub fn natural_join(left: &Relation, right: &Relation) -> Relation {
    let common = left.schema().common_attributes(right.schema());
    let left_positions: Vec<usize> = common
        .iter()
        .map(|a| left.schema().position(a).expect("common attr in left"))
        .collect();
    let right_positions: Vec<usize> = common
        .iter()
        .map(|a| right.schema().position(a).expect("common attr in right"))
        .collect();
    // Right attributes not in common, found by a position-set lookup (one
    // boolean mask) instead of scanning `common` per attribute.
    let mut right_is_common = vec![false; right.arity()];
    for &p in &right_positions {
        right_is_common[p] = true;
    }
    let right_extra: Vec<usize> = (0..right.arity())
        .filter(|&p| !right_is_common[p])
        .collect();

    let mut out_attrs: Vec<String> = left.schema().attributes().to_vec();
    out_attrs.extend(
        right_extra
            .iter()
            .map(|&p| right.schema().attributes()[p].clone()),
    );
    let out_schema = Schema::new(format!("{}⋈{}", left.name(), right.name()), out_attrs);
    if left.is_empty() || right.is_empty() {
        return Relation::empty(out_schema);
    }

    if common.is_empty() {
        // Cartesian product, exactly pre-sized.
        let rows = left.len() * right.len();
        let mut values = Vec::with_capacity(rows * out_schema.arity());
        for lrow in left.iter() {
            for rrow in right.iter() {
                values.extend_from_slice(lrow);
                values.extend(right_extra.iter().map(|&p| rrow[p]));
            }
        }
        return Relation::from_values(out_schema, rows, values);
    }

    // Build a hash index on the smaller side keyed by the join attributes,
    // and stream the larger side over it. The output row format is the same
    // either way (left row followed by the extra right attributes), so the
    // choice of build side never changes the output schema or contents.
    let spec = if right.len() <= left.len() {
        JoinSpec {
            probe: left,
            probe_positions: &left_positions,
            build: right,
            build_positions: &right_positions,
            index: RowKeyIndex::build(right, &right_positions),
            right_extra: &right_extra,
            build_is_left: false,
        }
    } else {
        JoinSpec {
            probe: right,
            probe_positions: &right_positions,
            build: left,
            build_positions: &left_positions,
            index: RowKeyIndex::build(left, &left_positions),
            right_extra: &right_extra,
            build_is_left: true,
        }
    };

    // Split the probe side into morsels over the shared read-only build
    // index. Each morsel emits into its own pre-sized buffer; in-order
    // concatenation makes the output identical to the sequential path.
    let parts = map_morsels(spec.probe.len(), |lo, hi| {
        let mut values = Vec::new();
        let rows = spec.probe_range(lo, hi, &mut values);
        (values, rows)
    });
    let rows = parts.iter().map(|&(_, rows)| rows).sum();
    let mut buffers = parts.into_iter().map(|(values, _)| values);
    let values = match buffers.len() {
        1 => buffers.next().expect("one morsel"),
        _ => buffers.collect::<Vec<_>>().concat(),
    };
    Relation::from_values(out_schema, rows, values)
}

/// Run `work` over the row range `0..n` and return its results in morsel
/// order: one call for the whole range when the range is small or the
/// calling thread has no multi-threaded `pq-exec` pool installed, else one
/// call per [`MORSEL_ROWS`] rows on that pool.
pub(crate) fn map_morsels<T: Send>(n: usize, work: impl Fn(usize, usize) -> T + Sync) -> Vec<T> {
    match pq_exec::current().filter(|pool| pool.threads() > 1) {
        Some(pool) if n >= 2 * MORSEL_ROWS => {
            let ranges: Vec<(usize, usize)> = (0..n)
                .step_by(MORSEL_ROWS)
                .map(|lo| (lo, (lo + MORSEL_ROWS).min(n)))
                .collect();
            pool.map_indexed(&ranges, |_, &(lo, hi)| work(lo, hi))
        }
        _ => vec![work(0, n)],
    }
}

/// Probe-side rows per parallel task. Coarse enough that per-morsel
/// bookkeeping (two passes over the range, one buffer append) is noise
/// next to the hash probes; fine enough that a skewed key leaves the other
/// workers with plenty of morsels to steal.
pub const MORSEL_ROWS: usize = 4096;

/// Everything one probe pass needs, resolved once per join so both the
/// sequential path and every parallel morsel share the exact same loop.
struct JoinSpec<'a> {
    probe: &'a Relation,
    probe_positions: &'a [usize],
    build: &'a Relation,
    build_positions: &'a [usize],
    index: RowKeyIndex,
    right_extra: &'a [usize],
    /// Which side of the output the build rows land on: output rows are
    /// always the *left* row followed by the extra *right* columns,
    /// independent of which side was indexed.
    build_is_left: bool,
}

impl JoinSpec<'_> {
    /// Probe rows `lo..hi` against the build index, appending output rows to
    /// `values` (exactly pre-sized from the build-side match counts) and
    /// returning the number of rows emitted.
    fn probe_range(&self, lo: usize, hi: usize, values: &mut Vec<Value>) -> usize {
        // First pass: hash every probe key once and sum the build-side
        // match counts to pre-size the output buffer.
        let mut hashes: Vec<u64> = Vec::with_capacity(hi - lo);
        let mut expected = 0usize;
        for r in lo..hi {
            let h = hash_key(self.probe.row(r), self.probe_positions);
            expected += self.index.count_for_hash(h);
            hashes.push(h);
        }
        let out_arity = self.probe.arity() + self.build.arity() - self.build_positions.len();
        values.reserve(expected * out_arity);
        let mut rows = 0usize;
        for (k, &h) in hashes.iter().enumerate() {
            let prow = self.probe.row(lo + k);
            for i in self.index.candidates(h) {
                let brow = self.build.row(i);
                if !keys_match(prow, self.probe_positions, brow, self.build_positions) {
                    continue;
                }
                let (lrow, rrow) = if self.build_is_left {
                    (brow, prow)
                } else {
                    (prow, brow)
                };
                values.extend_from_slice(lrow);
                values.extend(self.right_extra.iter().map(|&p| rrow[p]));
                rows += 1;
            }
        }
        rows
    }
}

/// Do two rows agree on their respective key positions?
#[inline]
fn keys_match(
    lrow: &[Value],
    left_positions: &[usize],
    rrow: &[Value],
    right_positions: &[usize],
) -> bool {
    left_positions
        .iter()
        .zip(right_positions.iter())
        .all(|(&lp, &rp)| lrow[lp] == rrow[rp])
}

/// Natural join of a list of relations, using a greedy ordering that always
/// joins in a relation sharing at least one attribute with the accumulated
/// result when possible (avoiding needless Cartesian products).
///
/// The accumulator is renamed to `⋈{k}` (with `k` the number of relations
/// absorbed so far) after every step, so wide queries never build an
/// unbounded `A⋈B⋈C⋈…` name string.
///
/// Returns an empty nullary relation when the input list is empty.
///
/// The inputs are only read — pass owned relations or references
/// (`&[&Relation]`), whichever the caller holds; a server joining the
/// fragments it stores never has to copy them first.
pub fn natural_join_all<R: Borrow<Relation>>(relations: &[R]) -> Relation {
    if relations.is_empty() {
        return Relation::empty(Schema::new("⊤", vec![]));
    }
    let mut remaining: Vec<&Relation> = relations.iter().map(Borrow::borrow).collect();
    // Start from the smallest relation: cheap and a decent heuristic.
    let start = remaining
        .iter()
        .enumerate()
        .min_by_key(|(_, r)| r.len())
        .map(|(i, _)| i)
        .expect("non-empty");
    let mut acc = Cow::Borrowed(remaining.remove(start));
    let mut joined = 1usize;
    while !remaining.is_empty() {
        // Prefer a relation sharing attributes with the accumulator; for
        // disconnected queries (no such relation) the Cartesian step picks
        // the smallest remaining relation, like the connected case.
        let next = remaining
            .iter()
            .enumerate()
            .filter(|(_, r)| !acc.schema().common_attributes(r.schema()).is_empty())
            .min_by_key(|(_, r)| r.len())
            .map(|(i, _)| i)
            .unwrap_or_else(|| {
                remaining
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| r.len())
                    .map(|(i, _)| i)
                    .expect("non-empty remaining")
            });
        let r = remaining.remove(next);
        let mut step = natural_join(&acc, r);
        joined += 1;
        step.rename(format!("⋈{joined}"));
        acc = Cow::Owned(step);
    }
    acc.into_owned()
}

/// Project a relation onto the given attributes with set semantics and a
/// fresh name (convenience wrapper used for query heads).
pub fn project(relation: &Relation, attributes: &[String], name: &str) -> Relation {
    let mut out = relation.project(attributes, name);
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Schema, Tuple};

    fn r(name: &str, attrs: &[&str], rows: Vec<Vec<u64>>) -> Relation {
        Relation::from_rows(Schema::from_strs(name, attrs), rows)
    }

    #[test]
    fn binary_join_on_one_attribute() {
        let left = r("R", &["x", "y"], vec![vec![1, 10], vec![2, 20], vec![3, 10]]);
        let right = r("S", &["y", "z"], vec![vec![10, 100], vec![20, 200], vec![30, 300]]);
        let j = natural_join(&left, &right).canonicalized();
        assert_eq!(
            j.schema().attributes(),
            &["x".to_string(), "y".to_string(), "z".to_string()]
        );
        assert_eq!(
            j.to_tuples(),
            vec![
                Tuple::from([1, 10, 100]),
                Tuple::from([2, 20, 200]),
                Tuple::from([3, 10, 100]),
            ]
        );
    }

    #[test]
    fn build_side_choice_does_not_change_the_output() {
        // Larger right side: the index is built on the (smaller) left, but
        // the result must be identical to the right-build case.
        let small = r("R", &["x", "y"], vec![vec![1, 10], vec![2, 20]]);
        let big = r(
            "S",
            &["y", "z"],
            vec![vec![10, 100], vec![10, 101], vec![20, 200], vec![30, 300], vec![40, 400]],
        );
        let forward = natural_join(&small, &big).canonicalized();
        assert_eq!(
            forward.schema().attributes(),
            &["x".to_string(), "y".to_string(), "z".to_string()]
        );
        assert_eq!(
            forward.to_tuples(),
            vec![
                Tuple::from([1, 10, 100]),
                Tuple::from([1, 10, 101]),
                Tuple::from([2, 20, 200]),
            ]
        );
        // Swapping the sides swaps the schema prefix but yields the same
        // rows up to column order.
        let backward = natural_join(&big, &small);
        assert_eq!(
            backward.schema().attributes(),
            &["y".to_string(), "z".to_string(), "x".to_string()]
        );
        let reordered = backward
            .project(
                &["x".to_string(), "y".to_string(), "z".to_string()],
                "j",
            )
            .canonicalized();
        assert_eq!(reordered.to_tuples(), forward.to_tuples());
    }

    #[test]
    fn join_all_accumulator_name_stays_bounded() {
        let rels: Vec<Relation> = (0..12)
            .map(|j| {
                r(
                    &format!("S{j}"),
                    &[&format!("x{j}"), &format!("x{}", j + 1)],
                    (0..5).map(|i| vec![i, i]).collect(),
                )
            })
            .collect();
        let out = natural_join_all(&rels);
        assert_eq!(out.len(), 5);
        // Bounded name, not the concatenation of all twelve inputs.
        assert!(out.name().len() < 8, "unbounded name `{}`", out.name());
    }

    #[test]
    fn join_without_common_attributes_is_cartesian_product() {
        let left = r("R", &["x"], vec![vec![1], vec![2]]);
        let right = r("S", &["y"], vec![vec![10], vec![20], vec![30]]);
        let j = natural_join(&left, &right);
        assert_eq!(j.len(), 6);
    }

    #[test]
    fn join_with_empty_relation_is_empty() {
        let left = r("R", &["x", "y"], vec![vec![1, 2]]);
        let right = r("S", &["y", "z"], vec![]);
        assert!(natural_join(&left, &right).is_empty());
    }

    #[test]
    fn join_over_two_shared_attributes() {
        let left = r("R", &["x", "y"], vec![vec![1, 2], vec![3, 4]]);
        let right = r("S", &["x", "y"], vec![vec![1, 2], vec![3, 5]]);
        let j = natural_join(&left, &right);
        assert_eq!(j.len(), 1);
        assert_eq!(j.row(0), &[1, 2]);
    }

    #[test]
    fn triangle_query_via_three_way_join() {
        // C3 = S1(x,y), S2(y,z), S3(z,x); single triangle (1,2,3) plus noise.
        let s1 = r("S1", &["x", "y"], vec![vec![1, 2], vec![5, 6]]);
        let s2 = r("S2", &["y", "z"], vec![vec![2, 3], vec![6, 9]]);
        let s3 = r("S3", &["z", "x"], vec![vec![3, 1], vec![7, 5]]);
        let out = natural_join_all(&[s1, s2, s3]).canonicalized();
        assert_eq!(out.len(), 1);
        let t = out.row(0).to_vec();
        let sch = out.schema().clone();
        let x = t[sch.position("x").unwrap()];
        let y = t[sch.position("y").unwrap()];
        let z = t[sch.position("z").unwrap()];
        assert_eq!((x, y, z), (1, 2, 3));
    }

    #[test]
    fn join_all_of_single_relation_is_identity() {
        let only = r("R", &["x"], vec![vec![1], vec![2]]);
        let out = natural_join_all(std::slice::from_ref(&only));
        assert_eq!(out.canonicalized().to_tuples(), only.canonicalized().to_tuples());
    }

    #[test]
    fn join_all_of_empty_list_is_nullary_empty() {
        let out = natural_join_all::<Relation>(&[]);
        assert_eq!(out.arity(), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn greedy_order_handles_disconnected_queries() {
        // R(x), S(y): a Cartesian product is unavoidable but must still be
        // computed correctly.
        let a = r("R", &["x"], vec![vec![1], vec![2]]);
        let b = r("S", &["y"], vec![vec![7]]);
        let out = natural_join_all(&[a, b]);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn disconnected_fallback_picks_the_smallest_remaining_relation() {
        // Accumulator starts from the smallest relation (T, 1 row). Both R
        // and S are disconnected from T; the Cartesian step must absorb the
        // *smaller* of the two first, keeping the intermediate at 1·2 = 2
        // rows instead of 1·3 = 3. Output size is invariant either way, so
        // we check order via the schema: T's attr, then S's, then R's.
        let big = r("R", &["x"], vec![vec![1], vec![2], vec![3]]);
        let small = r("S", &["y"], vec![vec![7], vec![8]]);
        let tiny = r("T", &["w"], vec![vec![0]]);
        let out = natural_join_all(&[big, small, tiny]);
        assert_eq!(out.len(), 6);
        assert_eq!(
            out.schema().attributes(),
            &["w".to_string(), "y".to_string(), "x".to_string()]
        );
    }

    #[test]
    fn star_query_join() {
        // T2 = S1(z, x1), S2(z, x2).
        let s1 = r("S1", &["z", "x1"], vec![vec![1, 10], vec![1, 11], vec![2, 20]]);
        let s2 = r("S2", &["z", "x2"], vec![vec![1, 100], vec![2, 200], vec![3, 300]]);
        let out = natural_join_all(&[s1, s2]);
        assert_eq!(out.len(), 3); // (1,10,100), (1,11,100), (2,20,200)
    }

    #[test]
    fn morsel_parallel_join_is_byte_identical_to_sequential() {
        // Probe side large enough for the parallel path (≥ 2 morsels),
        // with repeated keys so morsels emit different row counts.
        let m = 2 * MORSEL_ROWS + 777;
        let left_rows: Vec<Vec<u64>> = (0..m as u64).map(|i| vec![i, i % 97]).collect();
        let right_rows: Vec<Vec<u64>> = (0..97u64).flat_map(|y| [vec![y, y + 1000], vec![y, y + 2000]]).collect();
        let left = r("R", &["x", "y"], left_rows);
        let right = r("S", &["y", "z"], right_rows);
        let sequential = natural_join(&left, &right);
        for threads in [2, 4] {
            let pool = pq_exec::TaskPool::new(threads);
            let parallel = pool.install(|| natural_join(&left, &right));
            assert_eq!(parallel.schema().attributes(), sequential.schema().attributes());
            assert_eq!(parallel.len(), sequential.len());
            assert!(
                parallel.iter().zip(sequential.iter()).all(|(a, b)| a == b),
                "rows must match in order at pool size {threads}"
            );
            assert!(pool.stats().tasks > 0, "the probe must run on the pool");
        }
        // Build side as the big side: probe is still the bigger relation.
        let swapped_seq = natural_join(&right, &left);
        let pool = pq_exec::TaskPool::new(4);
        let swapped_par = pool.install(|| natural_join(&right, &left));
        assert_eq!(swapped_par.len(), swapped_seq.len());
        assert!(swapped_par.iter().zip(swapped_seq.iter()).all(|(a, b)| a == b));
    }

    #[test]
    fn project_applies_set_semantics() {
        let rel = r("R", &["x", "y"], vec![vec![1, 2], vec![1, 3]]);
        let p = project(&rel, &["x".to_string()], "P");
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn long_chain_query_join() {
        // L4: S1(x0,x1), S2(x1,x2), S3(x2,x3), S4(x3,x4) over matchings of
        // the identity permutation: every i yields one path.
        let mk = |name: &str, a: &str, b: &str| {
            r(name, &[a, b], (0..50).map(|i| vec![i, i]).collect())
        };
        let rels = vec![
            mk("S1", "x0", "x1"),
            mk("S2", "x1", "x2"),
            mk("S3", "x2", "x3"),
            mk("S4", "x3", "x4"),
        ];
        let out = natural_join_all(&rels);
        assert_eq!(out.len(), 50);
        assert_eq!(out.arity(), 5);
    }
}
