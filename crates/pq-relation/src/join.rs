//! Sequential join evaluation.
//!
//! Two uses:
//!
//! 1. **Local computation** — after the communication phase each simulated
//!    server evaluates its residual query over the tuples it received; the
//!    MPC model does not charge for this, so any in-memory algorithm is
//!    admissible. We use a chain of hash-based binary natural joins in a
//!    greedy order: start from the smallest relation, then absorb the
//!    smallest relation sharing an attribute with the result so far (the
//!    smallest of all when none does, a Cartesian step).
//! 2. **Correctness oracle** — tests compare every distributed algorithm's
//!    output against [`natural_join_all`] run on the full database.
//!
//! Attribute names double as query-variable names, so the natural join over
//! shared attribute names is exactly conjunctive-query evaluation for the
//! instantiated atoms.
//!
//! The build/probe loops are **allocation-free per row**: attribute
//! positions are resolved to position vectors once per join (no `String`
//! comparison inside loops), the build-side index is one compact chained
//! table over key hashes taken in place with the seeded mixer of
//! [`crate::hash`] (no key tuple, no SipHash), and each probe key is looked
//! up once: the first pass finds where its chain starts and counts it to
//! pre-size the output, the second walks on from there and emits rows by
//! `extend_from_slice` into the flat buffer. The two passes take at most
//! [`MORSEL_ROWS`] probe rows at a time, so the chain starts they keep
//! between them never outgrow one morsel.
//!
//! **Selective probes.** Most of a HyperCube server's probe keys find
//! nothing on a skew-free triangle (≈ 0.5 % do on random matchings), and
//! each miss still reads a bucket head and a chain of the index's tables,
//! which a block's shared indexes together hold far outside L2. A probe
//! therefore watches its own miss rate: every probe range (the whole probe
//! side, or one morsel) looks its first `PROBE_SAMPLE` (64) keys up plainly,
//! and when at least three in four of them miss, it looks every later key
//! up behind the index's blocked Bloom filter, which answers almost every
//! miss from one word without touching the table (see `rowindex`). A
//! filtered lookup returns exactly what a plain one does, so the rows and
//! their order do not change. The filter is lazy — built by the first
//! probe that asks for it, once per index however many servers share it —
//! because on a join whose keys hit it saves nothing and its build is pure
//! cost: in an in-process A/B, indexes that built their filter on every
//! insert slowed 1:1 joins by 15–19 % and a fan-out join by 3–4 %. A
//! hit-heavy or fan-out probe, or one shorter than the sample, never builds
//! a filter.
//!
//! **Block joins.** HyperCube sends every tuple to its whole destination
//! subcube, and the servers of a subcube hold the *same* shared row buffer
//! (Eq. 9's replication is accounted, not copied). [`natural_join_block`]
//! joins the servers of one block together so that they also share the
//! work of indexing it. A fragment's *sharing factor* `k` is the number of
//! the block's servers holding its buffer (same address, same length).
//! When some `k ≥ 2`, the block is planned once:
//!
//! * **order** — the greedy order above, over the block's *summed*
//!   fragment sizes, for every server;
//! * **shared input vs intermediate** — an input with `k ≥ 2` is always the
//!   build side, and its index is built once per (buffer, key columns) and
//!   probed by every server holding it;
//! * **first step, two inputs, at least one shared** — one build side for
//!   the block: the input with fewer distinct buffered rows (each buffer
//!   counted once), ties to the right;
//! * **anything else** — the smaller side builds, per server, ties to the
//!   right.
//!
//! Key columns are ordered by build-side column, so an index serves every
//! probe whatever its schema. When nothing is shared, every server plans
//! alone — its own greedy order, its own indexes — which is exactly
//! [`natural_join_all`], the one-server case. The choice reads only the
//! inputs' sizes, schemas and buffer identities. The shared indexes are
//! built first (in parallel, each build sequential), then every server
//! joins; the last server to probe an index releases it.
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
use crate::relation::{BufferId, Relation};
use crate::rowindex::{RowKeyIndex, NONE};
use crate::schema::Schema;
use crate::tuple::Value;
use std::borrow::{Borrow, Cow};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Natural join of two relations over their shared attribute names.
///
/// The output schema is the left schema followed by the right attributes
/// that are not shared; the output name is `"{left}⋈{right}"`.
/// With no shared attributes this is the Cartesian product.
pub fn natural_join(left: &Relation, right: &Relation) -> Relation {
    let step = StepLayout::new(
        left.schema(),
        right.schema(),
        format!("{}⋈{}", left.name(), right.name()),
    );
    join_step(left, right, &step, Side::smaller(left, right), None)
}

/// The side of a binary join step that is indexed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Left,
    Right,
}

impl Side {
    /// The rule when nothing is shared: the smaller side builds, ties go
    /// right.
    fn smaller(left: &Relation, right: &Relation) -> Side {
        if right.len() <= left.len() {
            Side::Right
        } else {
            Side::Left
        }
    }
}

/// One binary join step resolved against its two schemas: the output
/// schema (the left attributes, then the right ones not shared), the shared
/// attributes as position pairs, and the right positions appended to each
/// output row.
struct StepLayout {
    schema: Schema,
    /// `(left position, right position)` of each shared attribute.
    keys: Vec<(usize, usize)>,
    right_extra: Vec<usize>,
}

impl StepLayout {
    fn new(left: &Schema, right: &Schema, name: String) -> StepLayout {
        let keys: Vec<(usize, usize)> = left
            .common_attributes(right)
            .iter()
            .map(|a| {
                (
                    left.position(a).expect("common attr in left"),
                    right.position(a).expect("common attr in right"),
                )
            })
            .collect();
        // Right attributes not in common, found by a position-set lookup (one
        // boolean mask) instead of scanning the keys per attribute.
        let mut right_is_common = vec![false; right.arity()];
        for &(_, p) in &keys {
            right_is_common[p] = true;
        }
        let right_extra: Vec<usize> = (0..right.arity())
            .filter(|&p| !right_is_common[p])
            .collect();
        let mut attributes = left.attributes().to_vec();
        attributes.extend(right_extra.iter().map(|&p| right.attributes()[p].clone()));
        StepLayout {
            schema: Schema::new(name, attributes),
            keys,
            right_extra,
        }
    }

    /// The key positions on the `build` side and on the probe side, in
    /// build-column order: an index over one buffer serves every probe,
    /// whatever the probe's schema.
    fn key_positions(&self, build: Side) -> (Vec<usize>, Vec<usize>) {
        let mut pairs: Vec<(usize, usize)> = self
            .keys
            .iter()
            .map(|&(l, r)| match build {
                Side::Left => (l, r),
                Side::Right => (r, l),
            })
            .collect();
        pairs.sort_unstable();
        pairs.into_iter().unzip()
    }
}

/// `left ⋈ right` laid out by `step`, indexing the `build` side: through
/// `index` when the caller holds one over that side, built with
/// [`StepLayout::key_positions`], else through one built here. Rows come out
/// probe row by probe row, each with its matching build rows in reverse
/// insertion order — so the build side decides the row order, never the
/// row set or the schema.
fn join_step(
    left: &Relation,
    right: &Relation,
    step: &StepLayout,
    build: Side,
    index: Option<&RowKeyIndex>,
) -> Relation {
    let out_schema = step.schema.clone();
    if left.is_empty() || right.is_empty() {
        return Relation::empty(out_schema);
    }

    if step.keys.is_empty() {
        // Cartesian product, exactly pre-sized.
        let rows = left.len() * right.len();
        let mut values = Vec::with_capacity(rows * out_schema.arity());
        for lrow in left.iter() {
            for rrow in right.iter() {
                values.extend_from_slice(lrow);
                values.extend(step.right_extra.iter().map(|&p| rrow[p]));
            }
        }
        return Relation::from_values(out_schema, rows, values);
    }

    let (build_rel, probe) = match build {
        Side::Left => (left, right),
        Side::Right => (right, left),
    };
    let (build_positions, probe_positions) = step.key_positions(build);
    let own;
    let index = match index {
        Some(index) => index,
        None => {
            own = RowKeyIndex::build(build_rel, &build_positions);
            &own
        }
    };
    let spec = JoinSpec {
        probe,
        probe_positions: &probe_positions,
        build: build_rel,
        build_positions: &build_positions,
        index,
        right_extra: &step.right_extra,
        build_is_left: build == Side::Left,
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

/// Probe rows a [`JoinSpec::probe_range`] looks up plainly before it
/// decides whether the rest of its range goes through the key filter.
const PROBE_SAMPLE: usize = 64;

/// Misses in the sample that switch the key filter on: three in four.
const PROBE_SAMPLE_MISSES: usize = PROBE_SAMPLE * 3 / 4;

/// Everything one probe pass needs, resolved once per join so both the
/// sequential path and every parallel morsel share the exact same loop.
struct JoinSpec<'a> {
    probe: &'a Relation,
    probe_positions: &'a [usize],
    build: &'a Relation,
    build_positions: &'a [usize],
    index: &'a RowKeyIndex,
    right_extra: &'a [usize],
    /// Which side of the output the build rows land on: output rows are
    /// always the *left* row followed by the extra *right* columns,
    /// independent of which side was indexed.
    build_is_left: bool,
}

impl JoinSpec<'_> {
    /// Probe rows `lo..hi` against the build index, appending output rows to
    /// `values` and returning the number of rows emitted. Both passes run
    /// over at most [`MORSEL_ROWS`] rows at a time, so the chain-start
    /// scratch stays bounded however long the range; the output order is
    /// the range's. The output is pre-sized from the build-side match
    /// counts: the first chunk's exactly, plus its match rate projected
    /// over the rest of the range, at most one row per remaining probe row
    /// — a uniform probe sizes its output once, and a bounded guess never
    /// over-reserves more than the probe side; later chunks grow it as
    /// needed. The first [`PROBE_SAMPLE`] rows look their keys up plainly;
    /// when [`PROBE_SAMPLE_MISSES`] of them find nothing, the rest of the
    /// range looks up through the index's key filter.
    fn probe_range(&self, lo: usize, hi: usize, values: &mut Vec<Value>) -> usize {
        let out_arity = self.probe.arity() + self.build.arity() - self.build_positions.len();
        let mut starts: Vec<(u64, u32)> = Vec::with_capacity((hi - lo).min(MORSEL_ROWS));
        let mut filtered = false;
        let mut rows = 0usize;
        let chunks = (lo..hi).step_by(MORSEL_ROWS).map(|chunk| {
            let end = (chunk + MORSEL_ROWS).min(hi);
            (chunk, end, if chunk == lo { hi - end } else { 0 })
        });
        for (c, (lo, hi, rest)) in chunks.enumerate() {
            // First pass: hash every probe key once, look it up once —
            // where its chain starts — and count the chain to pre-size. The
            // range's first chunk (MORSEL_ROWS ≥ PROBE_SAMPLE) takes the
            // sample.
            starts.clear();
            let mut expected = 0usize;
            let mut from = lo;
            if c == 0 && hi - lo >= PROBE_SAMPLE {
                from = lo + PROBE_SAMPLE;
                expected += self.look_up(lo, from, false, &mut starts);
                let misses = starts.iter().filter(|&&(_, start)| start == NONE).count();
                filtered = misses >= PROBE_SAMPLE_MISSES;
            }
            expected += self.look_up(from, hi, filtered, &mut starts);
            let projected = (expected.saturating_mul(rest) / (hi - lo)).min(rest);
            values.reserve((expected + projected) * out_arity);
            for (prow, &(h, start)) in self.probe.iter_range(lo, hi).zip(&starts) {
                for i in self.index.chain(h, start) {
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
        }
        rows
    }

    /// Hash the keys of probe rows `lo..hi`, look each up — through the
    /// key filter when `filtered` — and push `(hash, chain start)` to
    /// `starts`; returns the number of rows on those chains.
    #[inline]
    fn look_up(&self, lo: usize, hi: usize, filtered: bool, starts: &mut Vec<(u64, u32)>) -> usize {
        let mut expected = 0usize;
        for prow in self.probe.iter_range(lo, hi) {
            let h = hash_key(prow, self.probe_positions);
            let start = if filtered {
                self.index.find_filtered(h)
            } else {
                self.index.find(h)
            };
            expected += self.index.chain(h, start).count();
            starts.push((h, start));
        }
        expected
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

/// Natural join of a list of relations, in the greedy order of the module
/// docs: the smallest relation first, then always the smallest relation
/// sharing at least one attribute with the accumulated result when there is
/// one (avoiding needless Cartesian products). This is
/// [`natural_join_block`] on one server.
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
    let inputs: Vec<&Relation> = relations.iter().map(Borrow::borrow).collect();
    natural_join_block(&[inputs], |joined| joined)
        .pop()
        .expect("one server, one output")
}

/// Join every server of a block: `servers[s]` lists server `s`'s inputs
/// (one relation per atom, in the same atom order at every server), and
/// each server's join is handed to `finish`, whose results come back in
/// server order. `finish` runs in that server's task, so per-server
/// post-processing (projection, deduplication) shares its parallelism.
/// Servers run on the calling thread's `pq-exec` pool
/// (the process-wide one when none is installed; a single server runs
/// inline without touching any pool).
///
/// Every output equals [`natural_join_all`] of that server's inputs as a
/// set of rows over the same attributes; when no fragment buffer is shared
/// it is that very relation, byte for byte. See the module docs for the
/// plan.
pub fn natural_join_block<T, F>(servers: &[Vec<&Relation>], finish: F) -> Vec<T>
where
    T: Send,
    F: Fn(Relation) -> T + Sync,
{
    let block = BlockPlan::new(servers);
    let built = map_items(&block.indexes, |_, spec| {
        RowKeyIndex::build(spec.relation, &spec.keys)
    });
    let shared: Vec<SharedIndex> = built
        .into_iter()
        .zip(&block.indexes)
        .map(|(index, spec)| SharedIndex {
            index: Mutex::new(Some(Arc::new(index))),
            users: AtomicUsize::new(spec.users),
        })
        .collect();
    map_items(servers, |s, inputs| finish(block.join(s, inputs, &shared)))
}

/// `work` over `items` on the calling thread's `pq-exec` pool (the global
/// one when none is installed); zero or one item runs inline.
fn map_items<T: Sync, R: Send>(items: &[T], work: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    if items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| work(i, item))
            .collect();
    }
    pq_exec::current_or_global().map_indexed(items, work)
}

/// A join order and, when the block fixes it, the first step's build side.
struct JoinPlan {
    /// Inputs in join order.
    order: Vec<usize>,
    /// `steps[t]` joins the first `t + 1` inputs of `order` with
    /// `order[t + 1]`.
    steps: Vec<StepLayout>,
    first_build: Option<Side>,
}

impl JoinPlan {
    /// The greedy order over inputs of the given schemas and sizes: the
    /// smallest first, then repeatedly the smallest one sharing an
    /// attribute with those joined so far, or the smallest of all when none
    /// does. Ties go to the earlier input.
    fn greedy(schemas: &[&Schema], sizes: &[usize]) -> JoinPlan {
        let mut order: Vec<usize> = Vec::with_capacity(schemas.len());
        let mut remaining: Vec<usize> = (0..schemas.len()).collect();
        let mut joined: Vec<&String> = Vec::new();
        while !remaining.is_empty() {
            let connected =
                |j: &usize| schemas[*j].attributes().iter().any(|a| joined.contains(&a));
            let next = remaining
                .iter()
                .copied()
                .filter(connected)
                .min_by_key(|&j| sizes[j])
                .or_else(|| remaining.iter().copied().min_by_key(|&j| sizes[j]))
                .expect("non-empty remaining");
            remaining.retain(|&j| j != next);
            joined.extend(schemas[next].attributes());
            order.push(next);
        }
        let mut steps = Vec::with_capacity(order.len().saturating_sub(1));
        if let Some((&start, rest)) = order.split_first() {
            let mut acc = schemas[start].clone();
            for (t, &j) in rest.iter().enumerate() {
                let step = StepLayout::new(&acc, schemas[j], format!("⋈{}", t + 2));
                acc = step.schema.clone();
                steps.push(step);
            }
        }
        JoinPlan {
            order,
            steps,
            first_build: None,
        }
    }

    /// The plan of one server joining alone.
    fn alone(inputs: &[&Relation]) -> JoinPlan {
        let schemas: Vec<&Schema> = inputs.iter().map(|r| r.schema()).collect();
        let sizes: Vec<usize> = inputs.iter().map(|r| r.len()).collect();
        JoinPlan::greedy(&schemas, &sizes)
    }
}

/// How a block is joined: one plan for all its servers when some fragment
/// buffer is shared (else every server plans alone), the shared indexes to
/// build, and which server probes which.
struct BlockPlan<'a> {
    plan: Option<JoinPlan>,
    indexes: Vec<IndexSpec<'a>>,
    /// `probes[s][j]`: the shared index server `s` joins input `j` through.
    /// Empty when nothing is shared.
    probes: Vec<Vec<Option<usize>>>,
}

/// A shared index to build: over which buffer (any of its holders), by
/// which key columns, and for how many probing servers.
struct IndexSpec<'a> {
    relation: &'a Relation,
    keys: Vec<usize>,
    users: usize,
}

/// A built shared index and the number of servers still to probe it.
struct SharedIndex {
    index: Mutex<Option<Arc<RowKeyIndex>>>,
    users: AtomicUsize,
}

impl SharedIndex {
    fn get(&self) -> Arc<RowKeyIndex> {
        let index = self.index.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(index.as_ref().expect("released only after its last probe"))
    }

    /// One server is done probing; the last one frees the index.
    fn release(&self) {
        if self.users.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.index
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
        }
    }
}

impl<'a> BlockPlan<'a> {
    fn new(servers: &[Vec<&'a Relation>]) -> BlockPlan<'a> {
        let alone = BlockPlan {
            plan: None,
            indexes: Vec::new(),
            probes: Vec::new(),
        };
        let [first, _, ..] = servers else {
            return alone;
        };
        let same_schemas = servers.iter().all(|inputs| {
            inputs.len() == first.len()
                && inputs
                    .iter()
                    .zip(first)
                    .all(|(r, f)| r.schema().attributes() == f.schema().attributes())
        });
        let ids: Vec<Vec<Option<BufferId>>> = servers
            .iter()
            .map(|inputs| inputs.iter().map(|r| r.buffer_id()).collect())
            .collect();
        let mut holders: HashMap<(usize, BufferId), usize> = HashMap::new();
        for (j, id) in ids.iter().flat_map(|row| row.iter().enumerate()) {
            if let Some(id) = id {
                *holders.entry((j, *id)).or_default() += 1;
            }
        }
        if !same_schemas || holders.values().all(|&k| k < 2) {
            return alone;
        }
        let shared = |s: usize, j: usize| ids[s][j].is_some_and(|id| holders[&(j, id)] >= 2);
        let distinct_rows = |j: usize| {
            let mut seen = HashSet::new();
            servers
                .iter()
                .zip(&ids)
                .filter(|(_, row)| row[j].map_or(true, |id| seen.insert(id)))
                .map(|(inputs, _)| inputs[j].len())
                .sum::<usize>()
        };

        let schemas: Vec<&Schema> = first.iter().map(|r| r.schema()).collect();
        let sizes: Vec<usize> = (0..first.len())
            .map(|j| servers.iter().map(|inputs| inputs[j].len()).sum())
            .collect();
        let mut plan = JoinPlan::greedy(&schemas, &sizes);
        if let ([a, b, ..], Some(step)) = (&plan.order[..], plan.steps.first()) {
            let (a, b) = (*a, *b);
            if !step.keys.is_empty() && (0..servers.len()).any(|s| shared(s, a) || shared(s, b)) {
                plan.first_build = Some(if distinct_rows(b) <= distinct_rows(a) {
                    Side::Right
                } else {
                    Side::Left
                });
            }
        }

        // One index per (buffer, key columns), whichever servers and steps
        // probe it.
        let mut indexes: Vec<IndexSpec<'a>> = Vec::new();
        let mut slots: HashMap<(BufferId, Vec<usize>), usize> = HashMap::new();
        let mut probes = vec![vec![None; first.len()]; servers.len()];
        for (t, step) in plan.steps.iter().enumerate() {
            let (input, side) = match (t, plan.first_build) {
                _ if step.keys.is_empty() => continue,
                (0, None) => continue,
                (0, Some(Side::Left)) => (plan.order[0], Side::Left),
                _ => (plan.order[t + 1], Side::Right),
            };
            let (keys, _) = step.key_positions(side);
            for (s, inputs) in servers.iter().enumerate() {
                let Some(id) = ids[s][input].filter(|_| shared(s, input)) else {
                    continue;
                };
                let slot = *slots.entry((id, keys.clone())).or_insert_with(|| {
                    indexes.push(IndexSpec {
                        relation: inputs[input],
                        keys: keys.clone(),
                        users: 0,
                    });
                    indexes.len() - 1
                });
                indexes[slot].users += 1;
                probes[s][input] = Some(slot);
            }
        }
        BlockPlan {
            plan: Some(plan),
            indexes,
            probes,
        }
    }

    /// Server `s`'s join of `inputs`, through the built `shared` indexes.
    fn join(&self, s: usize, inputs: &[&Relation], shared: &[SharedIndex]) -> Relation {
        let own;
        let plan = match &self.plan {
            Some(plan) => plan,
            None => {
                own = JoinPlan::alone(inputs);
                &own
            }
        };
        let slot_of = |j: usize| self.probes.get(s).and_then(|row| row[j]);
        let Some((&start, rest)) = plan.order.split_first() else {
            return Relation::empty(Schema::new("⊤", vec![]));
        };
        let mut acc = Cow::Borrowed(inputs[start]);
        for (t, (&j, step)) in rest.iter().zip(&plan.steps).enumerate() {
            let right = inputs[j];
            let build = match plan.first_build {
                Some(side) if t == 0 => side,
                _ if slot_of(j).is_some() => Side::Right,
                _ => Side::smaller(&acc, right),
            };
            let built_input = match build {
                Side::Left if t == 0 => Some(start),
                Side::Left => None,
                Side::Right => Some(j),
            };
            let slot = built_input.and_then(slot_of).map(|i| &shared[i]);
            let index = slot.map(SharedIndex::get);
            let joined = join_step(&acc, right, step, build, index.as_deref());
            drop(index);
            if let Some(slot) = slot {
                slot.release();
            }
            acc = Cow::Owned(joined);
        }
        acc.into_owned()
    }
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

    /// `probe ⋈ build` over `P(x, y)` and `B(y, z)` by nested loops, in the
    /// order the hash join promises when `build` is indexed: probe row by
    /// probe row, build rows in reverse insertion order.
    fn nested_loop_join(probe: &Relation, build: &Relation) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        for p in probe.iter() {
            for b in build.iter().collect::<Vec<_>>().into_iter().rev() {
                if p[1] == b[0] {
                    out.push(vec![p[0], p[1], b[1]]);
                }
            }
        }
        out
    }

    /// A build side `B(y, z)` of 40 keys `y = 7j`, the even ones twice (so
    /// their matches come out in reverse insertion order), and a probe
    /// side `P(x, y)` of `n` rows whose row `i` hits key `i mod 40` when
    /// `hit(i)`, else misses.
    fn selective_pair(n: usize, hit: Hit) -> (Relation, Relation) {
        let mut build: Vec<Vec<u64>> = (0..40u64).map(|j| vec![7 * j, j]).collect();
        build.extend((0..40u64).step_by(2).map(|j| vec![7 * j, 100 + j]));
        let probe = (0..n)
            .map(|i| {
                let y = if hit(i) {
                    7 * (i as u64 % 40)
                } else {
                    1_000_000 + i as u64
                };
                vec![i as u64, y]
            })
            .collect();
        (r("P", &["x", "y"], probe), r("B", &["y", "z"], build))
    }

    /// Probe all of `probe` against a fresh index over `build` in one
    /// range, as the sequential path does; returns the output rows and
    /// whether the probe asked for the index's key filter.
    fn probe_once(probe: &Relation, build: &Relation) -> (Vec<Vec<u64>>, bool) {
        let index = RowKeyIndex::build(build, &[0]);
        let spec = JoinSpec {
            probe,
            probe_positions: &[1],
            build,
            build_positions: &[0],
            index: &index,
            right_extra: &[1],
            build_is_left: false,
        };
        let mut values = Vec::new();
        let rows = spec.probe_range(0, probe.len(), &mut values);
        assert_eq!(values.len(), rows * 3);
        (
            values.chunks(3).map(<[u64]>::to_vec).collect(),
            index.has_filter(),
        )
    }

    /// Which probe rows of [`selective_pair`] hit.
    type Hit = fn(usize) -> bool;

    #[test]
    fn selective_probes_keep_the_nested_loop_order_at_every_pool_size() {
        let shapes: [(&str, Hit); 3] = [
            ("1 % hits", |i| i % 97 == 5),
            ("first 64 miss, then all hit", |i| i >= PROBE_SAMPLE),
            ("first 64 hit, then all miss", |i| i < PROBE_SAMPLE),
        ];
        for (shape, hit) in shapes {
            for n in [63, 64, 65, 2 * MORSEL_ROWS + 1] {
                let (probe, build) = selective_pair(n, hit);
                let reference = nested_loop_join(&probe, &build);
                for threads in [1, 2, 4] {
                    let pool = pq_exec::TaskPool::new(threads);
                    let joined = pool.install(|| natural_join(&probe, &build));
                    let rows: Vec<Vec<u64>> = joined.iter().map(<[u64]>::to_vec).collect();
                    assert_eq!(rows, reference, "{shape}, {n} probe rows, pool {threads}");
                }
            }
        }
    }

    #[test]
    fn the_key_filter_is_built_only_for_a_probe_whose_sample_misses() {
        let cases: [(usize, Hit, bool); 5] = [
            (65, |i| i % 97 == 5, true),
            // The sample is all the probe has: nothing is left to filter.
            (64, |i| i % 97 == 5, false),
            (63, |i| i % 97 == 5, false),
            // Exactly three in four of the sample miss; one more hit keeps
            // the filter off.
            (200, |i| i % 4 == 0, true),
            (200, |i| i % 4 == 0 || i == 1, false),
        ];
        for (n, hit, filtered) in cases {
            let (probe, build) = selective_pair(n, hit);
            let (rows, built) = probe_once(&probe, &build);
            assert_eq!(rows, nested_loop_join(&probe, &build));
            assert_eq!(built, filtered, "{n} probe rows");
        }
        // Every later hit gets through a filter switched on by a missing
        // sample; a hitting sample leaves the filter off.
        let (probe, build) = selective_pair(4_000, |i| i >= PROBE_SAMPLE);
        let (rows, built) = probe_once(&probe, &build);
        assert!(built);
        assert_eq!(rows.len(), (4_000 - PROBE_SAMPLE) * 3 / 2);
        assert_eq!(rows, nested_loop_join(&probe, &build));
        let (probe, build) = selective_pair(4_000, |i| i < PROBE_SAMPLE);
        let (rows, built) = probe_once(&probe, &build);
        assert!(!built);
        assert_eq!(rows, nested_loop_join(&probe, &build));
    }

    #[test]
    fn a_block_indexes_each_shared_fragment_once() {
        // The 4x4x4 triangle grid by hand: S1(x1,x2), S2(x2,x3), S3(x3,x1)
        // over the complete 8x8 graph, each cut into 16 cells by its two
        // values mod 4. Server (a, b, c) holds clones — one shared buffer —
        // of cell (a, b) of S1, (b, c) of S2 and (c, a) of S3, so every
        // cell is held by 4 servers. The block builds the indexed atom of
        // both steps once per cell: 2 x 16 indexes for 64 servers, where
        // every server alone would build 2 of its own.
        let cells = |name: &str, attrs: &[&str]| -> Vec<Vec<Relation>> {
            (0..4u64)
                .map(|a| {
                    (0..4u64)
                        .map(|b| {
                            let rows = (0..8u64)
                                .flat_map(|u| (0..8u64).map(move |v| vec![u, v]))
                                .filter(|row| row[0] % 4 == a && row[1] % 4 == b)
                                .collect();
                            r(name, attrs, rows)
                        })
                        .collect()
                })
                .collect()
        };
        let (s1, s2, s3) = (
            cells("S1", &["x1", "x2"]),
            cells("S2", &["x2", "x3"]),
            cells("S3", &["x3", "x1"]),
        );
        let mut held = Vec::new();
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    held.push([s1[a][b].clone(), s2[b][c].clone(), s3[c][a].clone()]);
                }
            }
        }
        let servers: Vec<Vec<&Relation>> = held.iter().map(|inputs| inputs.iter().collect()).collect();
        let block = BlockPlan::new(&servers);
        assert_eq!(block.indexes.len(), 32);
        assert!(block.indexes.iter().all(|index| index.users == 4));
        assert_eq!(BlockPlan::new(&servers[..1]).indexes.len(), 0);
        let answers = natural_join_block(&servers, |joined| joined.canonicalized());
        assert_eq!(answers.len(), 64);
        for (answer, inputs) in answers.iter().zip(&servers) {
            assert_eq!(answer.len(), 8);
            assert_eq!(answer, &natural_join_all(inputs).canonicalized());
        }
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
