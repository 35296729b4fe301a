//! The one scatter kernel: split a relation's rows over output parts.
//!
//! Every shuffle in the workspace — HyperCube routing per logical server
//! and per worker, hash and round-robin partitioning, the shuffle join — is
//! the same two-pass counting scatter. Each row belongs to one **cell**
//! (a grid point of the bound dimensions, a hash bucket, a round-robin
//! slot) and each cell names the **parts** its rows go to:
//!
//! 1. *Classify.* Compute every row's cell and a histogram of rows per
//!    cell. This is where the hashing happens, and it runs morsel-parallel
//!    on the calling thread's installed `pq-exec` pool.
//! 2. *Fill.* The histogram gives every part's exact size, so each part is
//!    one exactly pre-sized plain `Vec<Value>` filled in input order and
//!    frozen into a [`Relation`] once ([`Relation::from_values`]) — no
//!    reallocation, no merge of per-morsel pieces, no per-row
//!    copy-on-write check. A part that turns out to take *every* row (a
//!    broadcast, a one-cell grid, a worker hosting part of every subcube)
//!    is not filled at all: it shares the input's buffer.
//!
//! Parts hold their rows in input order at any pool size: pass 1 only
//! labels rows, and pass 2 walks them in order.

use crate::join::map_morsels;
use crate::relation::Relation;
use crate::tuple::Value;

/// What [`Relation::scatter`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Scatter {
    /// Rows per cell (pass 1's histogram), indexed by cell id.
    pub cell_rows: Vec<usize>,
    /// The parts, indexed by part id; each has the input's schema and holds
    /// its rows in input order.
    pub parts: Vec<Relation>,
}

impl Relation {
    /// Copy every row into the parts its cell names: row `i` is in cell
    /// `cell_of(i, row)` (`< cells`), and a row of cell `c` goes to every
    /// part listed in `destinations(c)` (distinct ids `< parts`). See the
    /// [module docs](crate::scatter) for the two passes and the ordering
    /// guarantee.
    ///
    /// # Panics
    /// Panics when `cell_of` returns a cell `>= cells` or a destination
    /// list names a part `>= parts`.
    pub fn scatter<'d>(
        &self,
        cells: usize,
        cell_of: impl Fn(usize, &[Value]) -> usize + Sync,
        parts: usize,
        destinations: impl Fn(usize) -> &'d [usize],
    ) -> Scatter {
        assert!(
            u32::try_from(cells).is_ok(),
            "{cells} cells do not fit a u32 cell id"
        );
        let classified = map_morsels(self.len(), |lo, hi| {
            let mut ids: Vec<u32> = Vec::with_capacity(hi - lo);
            let mut histogram = vec![0usize; cells];
            for (r, row) in (lo..hi).zip(self.iter_range(lo, hi)) {
                let cell = cell_of(r, row);
                histogram[cell] += 1;
                ids.push(cell as u32);
            }
            (ids, histogram)
        });
        let mut cell_rows = vec![0usize; cells];
        for (_, histogram) in &classified {
            for (total, rows) in cell_rows.iter_mut().zip(histogram) {
                *total += rows;
            }
        }
        let mut part_rows = vec![0usize; parts];
        for (cell, &rows) in cell_rows.iter().enumerate().filter(|(_, &rows)| rows > 0) {
            for &part in destinations(cell) {
                part_rows[part] += rows;
            }
        }
        // A part that takes every row is the input itself, in input order:
        // it shares the input's buffer and pass 2 skips it.
        let copied: Vec<bool> = part_rows.iter().map(|&rows| rows < self.len()).collect();
        let arity = self.arity();
        let mut buffers: Vec<Vec<Value>> = (0..parts)
            .map(|part| match copied[part] {
                true => Vec::with_capacity(part_rows[part] * arity),
                false => Vec::new(),
            })
            .collect();
        let mut lo = 0;
        for (ids, _) in &classified {
            let hi = lo + ids.len();
            for (&cell, row) in ids.iter().zip(self.iter_range(lo, hi)) {
                for &part in destinations(cell as usize) {
                    if copied[part] {
                        buffers[part].extend_from_slice(row);
                    }
                }
            }
            lo = hi;
        }
        let freeze = |(part, values)| match copied[part] {
            true => Relation::from_values(self.schema().clone(), part_rows[part], values),
            false => self.clone(),
        };
        Scatter {
            parts: buffers.into_iter().enumerate().map(freeze).collect(),
            cell_rows,
        }
    }

    /// Split the rows over `parts` parts, row `i` going to part
    /// `part_of(i, row)`: [`Relation::scatter`] with one cell per part.
    ///
    /// # Panics
    /// Panics when `part_of` returns a part `>= parts`.
    pub fn partition(
        &self,
        parts: usize,
        part_of: impl Fn(usize, &[Value]) -> usize + Sync,
    ) -> Vec<Relation> {
        let ids: Vec<usize> = (0..parts).collect();
        self.scatter(parts, part_of, parts, |cell| {
            std::slice::from_ref(&ids[cell])
        })
        .parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::MORSEL_ROWS;
    use crate::schema::Schema;

    fn numbers(n: usize) -> Relation {
        Relation::from_rows(
            Schema::from_strs("R", &["x", "y"]),
            (0..n as u64).map(|i| vec![i, i * i]).collect(),
        )
    }

    #[test]
    fn partition_keeps_every_row_once_in_input_order() {
        let r = numbers(10);
        let parts = r.partition(3, |_, row| (row[0] % 3) as usize);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[1].values(), &[1, 1, 4, 16, 7, 49]);
        assert_eq!(parts.iter().map(Relation::len).sum::<usize>(), 10);
        assert!(parts.iter().all(|part| part.schema() == r.schema()));
        // The row index is a classifier input too (round robin).
        let slots = r.partition(4, |i, _| i % 4);
        assert_eq!(slots[3].values(), &[3, 9, 7, 49]);
    }

    #[test]
    fn scatter_replicates_a_cell_to_each_of_its_parts_and_counts_cells() {
        let r = numbers(6);
        // Even rows go to parts 0 and 2, odd rows to part 1; cell 2 is unused.
        let destinations: [&[usize]; 3] = [&[0, 2], &[1], &[0, 1, 2]];
        let scatter = r.scatter(
            3,
            |_, row| (row[0] % 2) as usize,
            3,
            |cell| destinations[cell],
        );
        assert_eq!(scatter.cell_rows, vec![3, 3, 0]);
        assert_eq!(scatter.parts[0].values(), &[0, 0, 2, 4, 4, 16]);
        assert_eq!(scatter.parts[0], scatter.parts[2]);
        assert_eq!(scatter.parts[1].values(), &[1, 1, 3, 9, 5, 25]);
    }

    #[test]
    fn a_part_that_takes_every_row_shares_the_input_buffer() {
        let r = numbers(6);
        // Part 0 hosts both cells, part 1 only the odd rows.
        let destinations: [&[usize]; 2] = [&[0], &[0, 1]];
        let scatter = r.scatter(
            2,
            |_, row| (row[0] % 2) as usize,
            2,
            |cell| destinations[cell],
        );
        assert_eq!(scatter.parts[0], r);
        assert_eq!(scatter.parts[0].values().as_ptr(), r.values().as_ptr());
        assert_eq!(scatter.parts[1].values(), &[1, 1, 3, 9, 5, 25]);
    }

    #[test]
    fn empty_and_nullary_inputs_scatter() {
        let empty = Relation::empty(Schema::from_strs("E", &["x"]));
        let parts = empty.partition(2, |_, _| unreachable!("no row to classify"));
        assert!(parts.iter().all(Relation::is_empty));
        let mut nullary = Relation::empty(Schema::from_strs("N", &[]));
        for _ in 0..5 {
            nullary.push_row(&[]);
        }
        let parts = nullary.partition(2, |i, _| i % 2);
        assert_eq!((parts[0].len(), parts[1].len()), (3, 2));
    }

    #[test]
    fn parts_are_identical_at_any_pool_size() {
        let r = numbers(3 * MORSEL_ROWS + 17);
        let split = || r.partition(5, |_, row| (row[1] % 5) as usize);
        let inline = pq_exec::TaskPool::new(1).install(split);
        let pooled = pq_exec::TaskPool::new(4).install(split);
        assert_eq!(inline, pooled);
        assert_eq!(inline.iter().map(Relation::len).sum::<usize>(), r.len());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_cell_beyond_the_declared_count_panics() {
        numbers(3).partition(2, |_, _| 2);
    }
}
