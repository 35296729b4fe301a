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
//!    on the calling thread's installed `pq-exec` pool. The classifier is
//!    the caller's closure, inlined into the loop: the HyperCube router
//!    compiles each relation's bound dimensions into a closure specialised
//!    for one, two or three dimensions, so a row costs a couple of
//!    multiply-shift hashes and no lookups.
//! 2. *Resolve.* The histogram gives every part's exact size. A part that
//!    turns out to take *every* row (a broadcast, a one-cell grid, a worker
//!    hosting part of every subcube) is not filled at all: it shares the
//!    input's buffer. Every non-empty cell's list of the *other* parts —
//!    the ones that are copied into — is then resolved once per call, so
//!    the fill asks no closure and checks no flag per row.
//! 3. *Fill.* Each copied part is one exactly pre-sized plain
//!    `Vec<Value>`, filled in input order and frozen into a [`Relation`]
//!    once ([`Relation::from_values`]) — no reallocation, no merge of
//!    per-morsel pieces, no per-row copy-on-write check. Rows of arity 1
//!    to 4 are copied at a fixed width the compiler unrolls; wider rows
//!    take the same loop at a runtime width. When pass 1 ran on a pool,
//!    the fill runs there too, one task per morsel: the morsel's
//!    histogram sizes its own disjoint slice of every part, and the slices
//!    follow each other in morsel order.
//!
//! Parts hold their rows in input order at any pool size: pass 1 only
//! labels rows, and pass 3 writes each morsel's rows, in order, behind the
//! rows of the morsels before it.

use crate::join::map_morsels;
use crate::relation::Relation;
use crate::tuple::Value;
use std::sync::Mutex;

/// What [`Relation::scatter`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Scatter {
    /// Rows per cell (pass 1's histogram), indexed by cell id.
    pub cell_rows: Vec<usize>,
    /// The parts, indexed by part id; each has the input's schema and holds
    /// its rows in input order.
    pub parts: Vec<Relation>,
}

/// Pass 1's output for one morsel of rows.
struct Classified {
    /// The cell of every row of the morsel, in row order.
    ids: Vec<u32>,
    /// Rows of the morsel per cell.
    histogram: Vec<usize>,
}

/// The copied parts of every cell, resolved once per scatter: the rows of
/// cell `c` are copied into `parts[starts[c]..starts[c + 1]]`.
struct Targets {
    starts: Vec<usize>,
    parts: Vec<usize>,
}

impl Targets {
    /// Keep the parts of each cell's destination list that are `copied`.
    fn resolve(lists: &[&[usize]], copied: &[bool]) -> Targets {
        let mut starts = Vec::with_capacity(lists.len() + 1);
        let mut parts = Vec::new();
        starts.push(0);
        for list in lists {
            parts.extend(list.iter().copied().filter(|&part| copied[part]));
            starts.push(parts.len());
        }
        Targets { starts, parts }
    }

    /// The copied parts of `cell`.
    #[inline(always)]
    fn of(&self, cell: usize) -> &[usize] {
        &self.parts[self.starts[cell]..self.starts[cell + 1]]
    }
}

impl Relation {
    /// Copy every row into the parts its cell names: row `i` is in cell
    /// `cell_of(i, row)` (`< cells`), and a row of cell `c` goes to every
    /// part listed in `destinations(c)` (distinct ids `< parts`). See the
    /// [module docs](crate::scatter) for the passes and the ordering
    /// guarantee. `destinations` is called once per non-empty cell.
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
        let arity = self.arity();
        let classified = map_morsels(self.len(), |lo, hi| {
            let mut ids = vec![0u32; hi - lo];
            let mut histogram = vec![0usize; cells];
            let mut label = |(r, row), id: &mut u32| {
                let cell = cell_of(r, row);
                histogram[cell] += 1;
                *id = cell as u32;
            };
            match arity {
                0 => (lo..hi)
                    .zip(self.iter_range(lo, hi))
                    .zip(&mut ids)
                    .for_each(|(row, id)| label(row, id)),
                _ => {
                    let rows = self.values()[lo * arity..hi * arity].chunks_exact(arity);
                    (lo..hi)
                        .zip(rows)
                        .zip(&mut ids)
                        .for_each(|(row, id)| label(row, id));
                }
            }
            Classified { ids, histogram }
        });
        let mut cell_rows = vec![0usize; cells];
        for morsel in &classified {
            for (total, rows) in cell_rows.iter_mut().zip(&morsel.histogram) {
                *total += rows;
            }
        }
        let lists: Vec<&[usize]> = cell_rows
            .iter()
            .enumerate()
            .map(|(cell, &rows)| if rows > 0 { destinations(cell) } else { &[] })
            .collect();
        self.distribute(parts, cell_rows, &lists, &classified)
    }

    /// Passes 2 and 3 of [`Relation::scatter`], which do not depend on the
    /// classifier: size the parts, resolve the copied parts per cell, fill.
    fn distribute(
        &self,
        parts: usize,
        cell_rows: Vec<usize>,
        lists: &[&[usize]],
        classified: &[Classified],
    ) -> Scatter {
        let mut part_rows = vec![0usize; parts];
        for (list, &rows) in lists.iter().zip(&cell_rows) {
            for &part in *list {
                part_rows[part] += rows;
            }
        }
        // A part that takes every row is the input itself, in input order:
        // it shares the input's buffer and the fill skips it.
        let copied: Vec<bool> = part_rows.iter().map(|&rows| rows < self.len()).collect();
        let targets = Targets::resolve(lists, &copied);
        let buffers = self.fill(classified, &targets, &part_rows, &copied);
        let freeze = |(part, values)| match copied[part] {
            true => Relation::from_values(self.schema().clone(), part_rows[part], values),
            false => self.clone(),
        };
        Scatter {
            parts: buffers.into_iter().enumerate().map(freeze).collect(),
            cell_rows,
        }
    }

    /// Pass 3: one exactly sized buffer per copied part (empty for the
    /// others), filled one task per morsel — on the installed pool when
    /// pass 1 ran there — each task owning the next slice of every part.
    fn fill(
        &self,
        morsels: &[Classified],
        targets: &Targets,
        part_rows: &[usize],
        copied: &[bool],
    ) -> Vec<Vec<Value>> {
        let arity = self.arity();
        let mut buffers: Vec<Vec<Value>> = part_rows
            .iter()
            .zip(copied)
            .map(|(&rows, &copied)| vec![0; if copied { rows * arity } else { 0 }])
            .collect();
        if arity == 0 {
            return buffers; // nullary rows carry no values: sizing was the fill
        }
        let mut rests: Vec<&mut [Value]> = buffers.iter_mut().map(Vec::as_mut_slice).collect();
        let mut lo = 0;
        // A task's lock is only ever taken by that task.
        let tasks: Vec<(usize, Mutex<Vec<&mut [Value]>>)> = morsels
            .iter()
            .map(|morsel| {
                let mut rows = vec![0usize; part_rows.len()];
                for (cell, &n) in morsel.histogram.iter().enumerate() {
                    for &part in targets.of(cell) {
                        rows[part] += n;
                    }
                }
                let slices = rests
                    .iter_mut()
                    .zip(rows)
                    .map(|(rest, rows)| {
                        let (slice, tail) = std::mem::take(rest).split_at_mut(rows * arity);
                        *rest = tail;
                        slice
                    })
                    .collect();
                let task = (lo, Mutex::new(slices));
                lo += morsel.ids.len();
                task
            })
            .collect();
        let run = |m: usize, (lo, slices): &(usize, Mutex<Vec<&mut [Value]>>)| {
            let ids = &morsels[m].ids;
            let values = &self.values()[lo * arity..(lo + ids.len()) * arity];
            let mut slices = slices.lock().expect("one task per morsel");
            fill_rows(arity, values, ids, targets, &mut slices);
        };
        match pq_exec::current() {
            Some(pool) if tasks.len() > 1 => {
                pool.map_indexed(&tasks, run);
            }
            _ => tasks.iter().enumerate().for_each(|(m, task)| run(m, task)),
        }
        drop(tasks);
        buffers
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

/// Copy the rows of `values` (arity `arity > 0`, row `i` in cell `ids[i]`)
/// into their cells' copied parts. `outs[part]` is the unfilled rest of
/// the task's slice of that part; it advances past every row written.
fn fill_rows(
    arity: usize,
    values: &[Value],
    ids: &[u32],
    targets: &Targets,
    outs: &mut [&mut [Value]],
) {
    match arity {
        1 => fill_width::<1>(arity, values, ids, targets, outs),
        2 => fill_width::<2>(arity, values, ids, targets, outs),
        3 => fill_width::<3>(arity, values, ids, targets, outs),
        4 => fill_width::<4>(arity, values, ids, targets, outs),
        _ => fill_width::<0>(arity, values, ids, targets, outs),
    }
}

/// [`fill_rows`] at the row width `W`, a constant the copy is unrolled
/// for, or at the runtime `arity` when `W == 0`.
#[inline(always)]
fn fill_width<const W: usize>(
    arity: usize,
    values: &[Value],
    ids: &[u32],
    targets: &Targets,
    outs: &mut [&mut [Value]],
) {
    let put = |outs: &mut [&mut [Value]], part: usize, row: &[Value]| {
        let (slot, rest) = std::mem::take(&mut outs[part]).split_at_mut(row.len());
        slot.copy_from_slice(row);
        outs[part] = rest;
    };
    let width = if W == 0 { arity } else { W };
    for (row, &cell) in values.chunks_exact(width).zip(ids) {
        for &part in targets.of(cell as usize) {
            put(outs, part, row);
        }
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

    /// The scatter's definition, one row at a time: compute the row's
    /// cell, then push the row onto every destination part, in input order.
    /// Returns the rows per cell and every part's row count and values.
    fn scatter_row_by_row(
        r: &Relation,
        cells: usize,
        cell_of: impl Fn(usize, &[Value]) -> usize,
        destinations: &[Vec<usize>],
        parts: usize,
    ) -> (Vec<usize>, Vec<(usize, Vec<Value>)>) {
        let mut cell_rows = vec![0; cells];
        let mut filled = vec![(0, Vec::new()); parts];
        for (i, row) in r.iter().enumerate() {
            let cell = cell_of(i, row);
            cell_rows[cell] += 1;
            for &part in &destinations[cell] {
                filled[part].0 += 1;
                filled[part].1.extend_from_slice(row);
            }
        }
        (cell_rows, filled)
    }

    #[test]
    fn scatter_and_partition_match_the_row_by_row_definition() {
        // Five parts over six cells; cell 5 is never hit and part 4 is in
        // every hit cell's list, so it takes every row. `one` leaves each
        // cell at most one other part; `lists` gives cells up to three.
        let one = vec![
            vec![4],
            vec![0, 4],
            vec![1, 4],
            vec![4, 2],
            vec![3, 4],
            vec![0],
        ];
        let lists = vec![
            vec![4],
            vec![0, 4],
            vec![1, 2, 4],
            vec![3, 4, 0],
            vec![2, 4, 1, 3],
            vec![1],
        ];
        let cell_of = |i: usize, row: &[Value]| {
            (crate::hash::mix64(row.iter().fold(i as u64, |h, &v| h.rotate_left(7) ^ v)) % 5)
                as usize
        };
        let pools: Vec<_> = [1, 2, 8].map(pq_exec::TaskPool::new).into();
        for arity in [0, 1, 2, 3, 5] {
            for n in [
                0,
                1,
                7,
                2 * MORSEL_ROWS - 1,
                2 * MORSEL_ROWS + 1,
                3 * MORSEL_ROWS + 17,
            ] {
                let attributes: Vec<String> = (0..arity).map(|a| format!("c{a}")).collect();
                let mut r = Relation::empty(Schema::new("R", attributes));
                for i in 0..n as u64 {
                    let row: Vec<Value> = (0..arity as u64)
                        .map(|a| crate::hash::mix64(i * 8 + a) % 97)
                        .collect();
                    r.push_row(&row);
                }
                for destinations in [&one, &lists] {
                    let (cell_rows, filled) = scatter_row_by_row(&r, 6, cell_of, destinations, 5);
                    let identity: Vec<Vec<usize>> = (0..5).map(|part| vec![part]).collect();
                    let (_, partitioned) = scatter_row_by_row(&r, 5, cell_of, &identity, 5);
                    for pool in &pools {
                        let context =
                            format!("arity {arity}, {n} rows, {} thread(s)", pool.threads());
                        let scatter = pool.install(|| {
                            r.scatter(6, cell_of, 5, |cell| destinations[cell].as_slice())
                        });
                        assert_eq!(scatter.cell_rows, cell_rows, "{context}");
                        assert_eq!(scatter.parts.len(), 5, "{context}");
                        for (part, (rows, values)) in scatter.parts.iter().zip(&filled) {
                            assert_eq!(part.schema(), r.schema(), "{context}");
                            assert_eq!(
                                (part.len(), part.values()),
                                (*rows, values.as_slice()),
                                "{context}"
                            );
                        }
                        if n > 0 {
                            let every_row = &scatter.parts[4];
                            assert_eq!(
                                every_row.values().as_ptr(),
                                r.values().as_ptr(),
                                "{context}"
                            );
                        }
                        let parts = pool.install(|| r.partition(5, cell_of));
                        for (part, (rows, values)) in parts.iter().zip(&partitioned) {
                            assert_eq!(
                                (part.len(), part.values()),
                                (*rows, values.as_slice()),
                                "{context}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_cell_beyond_the_declared_count_panics() {
        numbers(3).partition(2, |_, _| 2);
    }
}
