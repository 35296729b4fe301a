//! The one-round HyperCube (HC) algorithm (Section 3.1).
//!
//! Servers are organised into a grid `[p_1] × … × [p_k]`, one dimension per
//! query variable, with `Π_i p_i ≤ p`. Independent hash functions
//! `h_i : [n] → [p_i]` are chosen per variable, and every tuple `t` of an
//! atom `S_j` is sent to its **destination subcube**: all grid points that
//! agree with `h_i(t[i])` on the variables the atom binds (Eq. 9). After the
//! single communication round each server joins the fragments it received;
//! every potential output tuple `(a_1, …, a_k)` is fully visible at the
//! server `(h_1(a_1), …, h_k(a_k))`, which makes the algorithm correct.
//!
//! On skew-free data with the share exponents of [`crate::shares`] the
//! maximum load is `O(L_upper)` with high probability (Theorem 3.4), which
//! matches the lower bound of Theorem 3.5 (Section 3.3).
//!
//! **The replication is accounted, not copied.** All servers of one
//! subcube receive byte-identical fragments, so the router partitions each
//! relation once, by the grid cell of its *bound* dimensions
//! ([`Relation::scatter`]), and addresses one message per server of the
//! cell's subcube to the same shared copy-on-write buffer. The model's
//! cost — every one of those servers is charged the fragment's bits
//! ([`pq_mpc::Cluster::communicate`]) — is unchanged; it is the
//! simulator's memory traffic that no longer scales with the replication
//! factor.

use crate::round::{in_process, run_single, InProcess, Routing};
use crate::shares::{self, ShareRounding};
use pq_mpc::net::Shipment;
use pq_mpc::{Message, RunMetrics, Server};
use pq_query::{instantiate, ConjunctiveQuery};
use pq_relation::hash::MultiplyShiftHasher;
use pq_relation::{
    natural_join_block, BucketHasher, Database, HashFamily, MultiplyShiftHash, Relation, Scatter,
    Schema, Value,
};
use std::collections::BTreeMap;

/// A configured HyperCube router: the grid layout (shares per variable), the
/// per-variable hash functions, and the block of physical servers the grid
/// is mapped onto.
///
/// The router is deliberately independent of the [`pq_mpc::Cluster`], so
/// skew-aware and multi-round algorithms can combine several routers (e.g.
/// one per heavy hitter, each on its own server block) inside a *single*
/// communication round.
pub struct HyperCubeRouter {
    variables: Vec<String>,
    shares: Vec<usize>,
    /// `strides[d]` = Π_{d' > d} shares[d']: the weight of dimension `d` in
    /// the row-major linearisation of the grid.
    strides: Vec<usize>,
    hashers: Vec<MultiplyShiftHasher>,
    server_offset: usize,
}

impl HyperCubeRouter {
    /// Build a router for the query's variables with the given integer
    /// shares, mapping grid point `(0,…,0)` to physical server
    /// `server_offset`. `seed` and `hash_index_base` select the hash
    /// functions: routers that must be independent (e.g. per heavy hitter)
    /// should use different bases.
    pub fn new(
        query: &ConjunctiveQuery,
        shares: &BTreeMap<String, usize>,
        seed: u64,
        hash_index_base: usize,
        server_offset: usize,
    ) -> Self {
        let variables = query.variables();
        let family = MultiplyShiftHash::new(seed);
        let share_vec: Vec<usize> = variables
            .iter()
            .map(|v| shares.get(v).copied().unwrap_or(1).max(1))
            .collect();
        let hashers = variables
            .iter()
            .enumerate()
            .map(|(i, _)| family.hasher(hash_index_base + i, share_vec[i]))
            .collect();
        let mut strides = vec![1usize; share_vec.len()];
        for d in (0..share_vec.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * share_vec[d + 1];
        }
        HyperCubeRouter {
            variables,
            shares: share_vec,
            strides,
            hashers,
            server_offset,
        }
    }

    /// Number of grid points (`Π_i p_i`), i.e. physical servers used.
    pub fn grid_size(&self) -> usize {
        self.shares.iter().product()
    }

    /// The variables of the grid, in dimension order.
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// The integer shares, in dimension order.
    pub fn shares(&self) -> &[usize] {
        &self.shares
    }

    /// Physical server of a full variable assignment (the unique server that
    /// sees an output tuple with these values).
    pub fn server_of_assignment(&self, values: &BTreeMap<String, u64>) -> usize {
        let idx: usize = self
            .variables
            .iter()
            .enumerate()
            .map(|(i, v)| {
                values
                    .get(v)
                    .map(|&val| self.hashers[i].bucket(val))
                    .unwrap_or(0)
                    * self.strides[i]
            })
            .sum();
        self.server_offset + idx
    }

    /// Compile a bound relation's schema against the grid once: which grid
    /// dimension each schema position pins, with that dimension's hasher
    /// and stride, and the linear-index offsets of every combination of the
    /// remaining free dimensions. Per-row routing is then one hash, one
    /// multiply and one add per bound dimension — no string comparison, no
    /// lookup, no allocation.
    fn route_plan(&self, bound_schema_vars: &[String]) -> RoutePlan {
        let mut bound = Vec::new();
        let mut dim_is_bound = vec![false; self.variables.len()];
        for (pos, var) in bound_schema_vars.iter().enumerate() {
            if let Some(dim) = self.variables.iter().position(|v| v == var) {
                bound.push(BoundDim {
                    pos,
                    hasher: self.hashers[dim].clone(),
                    stride: self.strides[dim],
                });
                dim_is_bound[dim] = true;
            }
        }
        let mut free_offsets = vec![0usize];
        for dim in (0..self.variables.len()).rev() {
            if dim_is_bound[dim] {
                continue;
            }
            let mut next = Vec::with_capacity(free_offsets.len() * self.shares[dim]);
            for c in 0..self.shares[dim] {
                let base = c * self.strides[dim];
                next.extend(free_offsets.iter().map(|&o| base + o));
            }
            free_offsets = next;
        }
        RoutePlan {
            bound,
            free_offsets,
        }
    }

    /// The destination subcube of a row of the given bound relation
    /// (schema attributes = query variables): every physical server whose
    /// grid coordinates agree with the hashes of the row's values.
    pub fn destinations(&self, bound_schema_vars: &[String], row: &[Value]) -> Vec<usize> {
        let plan = self.route_plan(bound_schema_vars);
        let cell: usize = plan.bound.iter().map(|dim| dim.offset(row)).sum();
        let base = self.server_offset + cell;
        plan.free_offsets.iter().map(|&o| base + o).collect()
    }

    /// Route one bound relation (schema attributes = query variables):
    /// one message per (non-empty cell of the bound dimensions, server of
    /// that cell's subcube), in ascending server order. Each row is copied
    /// once, into its cell's fragment ([`Relation::scatter`] with one part
    /// per cell: hashing and filling morsel-parallel on the installed
    /// `pq-exec` pool, rows in input order at any pool size); the messages
    /// to the servers of one subcube share that fragment's buffer, so the
    /// replication Eq. 9 prescribes is charged to every receiver but not
    /// performed as a memory copy.
    pub fn route_relation(&self, relation: &Relation) -> Vec<Message> {
        let plan = self.route_plan(relation.schema().attributes());
        let grid = self.grid_size();
        let cells: Vec<usize> = (0..grid).collect();
        let scatter = plan.scatter(relation, grid, grid, |cell| {
            std::slice::from_ref(&cells[cell])
        });
        let free_offsets = &plan.free_offsets;
        let mut messages: Vec<Message> = scatter
            .parts
            .iter()
            .enumerate()
            .filter(|(_, cell)| !cell.is_empty())
            .flat_map(|(base, cell)| {
                let subcube = free_offsets.iter().map(move |&off| self.server_offset + base + off);
                subcube.map(|server| Message::tuples(server, cell.clone()))
            })
            .collect();
        messages.sort_by_key(|message| message.to);
        messages
    }

    /// Route a set of bound relations (one per atom, attributes named by
    /// query variables): returns one message per (destination server,
    /// relation) pair carrying that server's fragment.
    pub fn route_bound(&self, bound: &[Relation]) -> Vec<Message> {
        bound
            .iter()
            .flat_map(|relation| self.route_relation(relation))
            .collect()
    }

    /// Route a set of bound relations for a cluster that folds the `p`
    /// logical servers onto `workers` processes (`server % workers`):
    /// the [`Shipment`] holds at most one fragment per (worker, relation),
    /// with each row **once per worker** that hosts any of its destination
    /// grid points — not once per grid point, as [`Self::route_bound`]
    /// accounts it. The model account is still kept per logical server,
    /// by counting: `received_bits` and `messages` are exactly what
    /// [`pq_mpc::Cluster::communicate`] records for `route_bound`'s
    /// messages, so the load the paper bounds is unchanged while the wire
    /// carries the `workers`-fold replication instead of the `p`-fold one.
    ///
    /// The same scatter kernel as [`Self::route_relation`], with the
    /// workers hosting a cell's subcube as that cell's destinations, and
    /// the same input-order guarantee for every fragment at any pool size.
    ///
    /// # Panics
    /// Panics when `workers == 0`, or when a row is bound for a logical
    /// server `>= p` (the simulator's contract for oversized grids).
    pub fn route_folded(
        &self,
        bound: &[Relation],
        p: usize,
        workers: usize,
        bits_per_value: u64,
    ) -> Shipment {
        assert!(workers > 0, "a cluster needs at least one worker");
        let mut shipment = Shipment::new(p, workers);
        self.fold_into(bound, bits_per_value, &mut shipment);
        shipment
    }

    /// [`Self::route_folded`], added onto `shipment` — how the grids of
    /// several operators share one round.
    pub(crate) fn fold_into(
        &self,
        bound: &[Relation],
        bits_per_value: u64,
        shipment: &mut Shipment,
    ) {
        for relation in bound {
            self.fold_relation(relation, bits_per_value, shipment);
        }
    }

    /// [`Self::fold_into`] for one relation.
    fn fold_relation(&self, relation: &Relation, bits_per_value: u64, shipment: &mut Shipment) {
        let p = shipment.received_bits.len();
        let workers = shipment.fragments.len();
        let plan = self.route_plan(relation.schema().attributes());
        let free_offsets = &plan.free_offsets;
        // `(base + off) % workers` depends on `base` only through its
        // residue, so the deduplicated worker list of a cell is one of
        // `workers` lists, picked once per cell.
        let hosts: Vec<Vec<usize>> = (0..workers)
            .map(|residue| {
                let mut hit = vec![false; workers];
                for &off in free_offsets {
                    hit[(residue + off) % workers] = true;
                }
                (0..workers).filter(|&w| hit[w]).collect()
            })
            .collect();
        let folded = plan.scatter(relation, self.grid_size(), workers, |base| {
            hosts[(self.server_offset + base) % workers].as_slice()
        });
        // Bound and free dimensions are disjoint, so every (base, offset)
        // pair is a distinct logical server: one model message each.
        let bits_per_row = relation.arity() as u64 * bits_per_value;
        for (base, &rows) in folded.cell_rows.iter().enumerate() {
            if rows == 0 {
                continue;
            }
            for &off in free_offsets {
                let server = self.server_offset + base + off;
                assert!(
                    server < p,
                    "message addressed to server {server} but the run has only {p} servers"
                );
                shipment.received_bits[server] += rows as u64 * bits_per_row;
                shipment.messages += 1;
            }
        }
        for (worker, fragment) in folded.parts.into_iter().enumerate() {
            if !fragment.is_empty() {
                shipment.fragments[worker].push(fragment);
            }
        }
    }
}

/// One bound dimension of a relation's route plan: the schema position
/// it reads, the dimension's hash function and its stride in the grid's
/// row-major linear index.
struct BoundDim {
    pos: usize,
    hasher: MultiplyShiftHasher,
    stride: usize,
}

impl BoundDim {
    /// The dimension's share of the row's cell id.
    #[inline(always)]
    fn offset(&self, row: &[Value]) -> usize {
        self.hasher.bucket(row[self.pos]) * self.stride
    }
}

/// A bound relation compiled against a grid ([`HyperCubeRouter::route_plan`]):
/// its cell classifier (the bound dimensions) and its subcube (the
/// linear-index offsets of the free dimensions).
struct RoutePlan {
    bound: Vec<BoundDim>,
    free_offsets: Vec<usize>,
}

impl RoutePlan {
    /// [`Relation::scatter`] by the grid cell of the bound dimensions. The
    /// classifier is picked once per relation, specialised for up to three
    /// bound dimensions — a fixed set of hashes inlined into the kernel's
    /// loop — with a loop over the dimensions for more.
    fn scatter<'d>(
        &self,
        relation: &Relation,
        cells: usize,
        parts: usize,
        destinations: impl Fn(usize) -> &'d [usize],
    ) -> Scatter {
        match self.bound.as_slice() {
            [] => relation.scatter(cells, |_, _| 0, parts, destinations),
            [a] => relation.scatter(cells, |_, row| a.offset(row), parts, destinations),
            [a, b] => relation.scatter(
                cells,
                |_, row| a.offset(row) + b.offset(row),
                parts,
                destinations,
            ),
            [a, b, c] => relation.scatter(
                cells,
                |_, row| a.offset(row) + b.offset(row) + c.offset(row),
                parts,
                destinations,
            ),
            dims => relation.scatter(
                cells,
                |_, row| dims.iter().map(|dim| dim.offset(row)).sum(),
                parts,
                destinations,
            ),
        }
    }
}

/// The result of a HyperCube run.
#[derive(Debug, Clone)]
pub struct HyperCubeRun {
    /// The query answer (set semantics), columns in query-variable order.
    pub output: Relation,
    /// Communication metrics (one round).
    pub metrics: RunMetrics,
    /// The integer shares used, keyed by variable.
    pub shares: BTreeMap<String, usize>,
}

/// Evaluate the query locally at one server over the fragments it received.
/// Missing fragments mean the server cannot produce any answers. This is
/// [`local_join_block`] on one server.
pub fn local_join(query: &ConjunctiveQuery, server: &Server) -> Relation {
    local_join_block(query, std::slice::from_ref(server))
        .pop()
        .expect("one server, one answer")
}

/// Evaluate the query locally at every server of a block, in server order:
/// one block join over the servers that hold a fragment of every atom —
/// the servers of one destination subcube share a fragment's buffer, and
/// its index is built once for all of them — and the empty answer at the
/// others. Each answer is projected onto the query's variables with set
/// semantics, as [`pq_query::evaluate_block`] returns it.
pub fn local_join_block(query: &ConjunctiveQuery, servers: &[Server]) -> Vec<Relation> {
    let mut answers = project_block(query, servers);
    answers.iter_mut().for_each(Relation::dedup);
    answers
}

/// [`local_join_block`] without its per-server deduplication: each answer
/// is the server's join projected onto the query's variables, a bag only
/// where the server's fragments are bags. The simulator's round takes the
/// set union of these once, at its merge.
pub(crate) fn project_block(query: &ConjunctiveQuery, servers: &[Server]) -> Vec<Relation> {
    let fragments: Vec<Option<Vec<&Relation>>> = servers
        .iter()
        .map(|server| {
            query
                .atoms()
                .iter()
                .map(|atom| server.fragment(atom.relation()))
                .collect()
        })
        .collect();
    let complete: Vec<Vec<&Relation>> = fragments.iter().flatten().cloned().collect();
    let head = query.variables();
    let mut answers =
        natural_join_block(&complete, |joined| joined.project(&head, query.name())).into_iter();
    fragments
        .iter()
        .map(|held| match held {
            Some(_) => answers.next().expect("one answer per complete server"),
            None => Relation::empty(Schema::new(query.name(), head.clone())),
        })
        .collect()
}

/// Run one communication round in process — what every one-round
/// algorithm shares once it has decided where each tuple goes: deliver
/// `messages` to `p` simulated servers (the model's cost account), join
/// locally at every server, and take the set union of the answers.
pub fn run_one_round(
    query: &ConjunctiveQuery,
    database: &Database,
    p: usize,
    messages: Vec<Message>,
) -> (Relation, RunMetrics) {
    let transport = InProcess::new(p, query, database);
    in_process(run_single(transport, query, Routing::Messages(messages)))
}

/// Run the HyperCube algorithm with explicitly provided integer shares.
///
/// # Panics
/// Panics when the share grid has more points than `p`.
pub fn run_hypercube_with_shares(
    query: &ConjunctiveQuery,
    database: &Database,
    p: usize,
    shares: &BTreeMap<String, usize>,
    seed: u64,
) -> HyperCubeRun {
    let router = HyperCubeRouter::new(query, shares, seed, 0, 0);
    assert!(
        router.grid_size() <= p,
        "share grid of size {} does not fit on {p} servers",
        router.grid_size()
    );
    let routing = Routing::grid(router, instantiate(query, database));
    let (output, metrics) = in_process(run_single(InProcess::new(p, query, database), query, routing));
    HyperCubeRun {
        output,
        metrics,
        shares: shares.clone(),
    }
}

/// Run the full one-round HyperCube algorithm: optimise the shares for the
/// database's relation sizes (Eq. 10), route, and join locally.
pub fn run_hypercube(
    query: &ConjunctiveQuery,
    database: &Database,
    p: usize,
    seed: u64,
) -> HyperCubeRun {
    let exps = shares::optimal_share_exponents(query, &database.sizes_bits(), p);
    let shares = shares::integer_shares(&exps, ShareRounding::GreedyFill);
    run_hypercube_with_shares(query, database, p, &shares, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_mpc::Cluster;
    use pq_query::evaluate_sequential;
    use pq_relation::DataGenerator;

    fn matching_db(query: &ConjunctiveQuery, m: usize, seed: u64) -> Database {
        let mut gen = DataGenerator::new(seed, (m as u64 * 100).max(1000));
        let specs: Vec<(Schema, usize)> = query
            .atoms()
            .iter()
            .map(|a| {
                let attrs: Vec<&str> = (0..a.arity()).map(|_| "").collect();
                // Positional column names; binding renames them.
                let names: Vec<String> = (0..attrs.len()).map(|i| format!("c{i}")).collect();
                (
                    Schema::new(a.relation(), names),
                    m,
                )
            })
            .collect();
        gen.matching_database(&specs)
    }

    fn identity_db(query: &ConjunctiveQuery, m: usize) -> Database {
        // Identity matchings give exactly m answers for chains/cycles.
        let mut db = Database::new((m as u64).max(2));
        for a in query.atoms() {
            let names: Vec<String> = (0..a.arity()).map(|i| format!("c{i}")).collect();
            let rows = (0..m as u64).map(|i| vec![i; a.arity()]).collect();
            db.insert(Relation::from_rows(Schema::new(a.relation(), names), rows));
        }
        db
    }

    #[test]
    fn router_grid_and_destinations() {
        let q = ConjunctiveQuery::triangle();
        let shares: BTreeMap<String, usize> =
            [("x1", 2usize), ("x2", 2), ("x3", 2)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let router = HyperCubeRouter::new(&q, &shares, 1, 0, 0);
        assert_eq!(router.grid_size(), 8);
        // A binary atom fixes two of three dimensions: |destinations| = 2.
        let dests = router.destinations(&["x1".to_string(), "x2".to_string()], &[5, 9]);
        assert_eq!(dests.len(), 2);
        for d in &dests {
            assert!(*d < 8);
        }
        // Unary binding fixes one dimension: 4 destinations.
        let dests = router.destinations(&["x2".to_string()], &[9]);
        assert_eq!(dests.len(), 4);
    }

    #[test]
    fn router_with_offset_shifts_servers() {
        let q = ConjunctiveQuery::simple_join();
        let shares: BTreeMap<String, usize> =
            [("z", 4usize)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let router = HyperCubeRouter::new(&q, &shares, 1, 0, 10);
        let dests = router.destinations(&["z".to_string(), "x1".to_string()], &[3, 7]);
        assert_eq!(dests.len(), 1);
        assert!(dests[0] >= 10 && dests[0] < 14);
    }

    #[test]
    fn output_tuple_server_sees_all_its_parts() {
        // The defining property of HC: for any potential output tuple, the
        // server indexed by the hashes of its values receives all matching
        // atom tuples.
        let q = ConjunctiveQuery::triangle();
        let shares: BTreeMap<String, usize> =
            [("x1", 3usize), ("x2", 3), ("x3", 3)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let router = HyperCubeRouter::new(&q, &shares, 9, 0, 0);
        let assignment: BTreeMap<String, u64> =
            [("x1", 11u64), ("x2", 22), ("x3", 33)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let target = router.server_of_assignment(&assignment);
        // Each atom's projection of the assignment must route through target.
        for (vars, row) in [
            (vec!["x1".to_string(), "x2".to_string()], [11u64, 22]),
            (vec!["x2".to_string(), "x3".to_string()], [22, 33]),
            (vec!["x3".to_string(), "x1".to_string()], [33, 11]),
        ] {
            let dests = router.destinations(&vars, &row);
            assert!(dests.contains(&target));
        }
    }

    #[test]
    fn triangle_matches_sequential_oracle() {
        let q = ConjunctiveQuery::triangle();
        let db = identity_db(&q, 200); // every i forms a triangle (i,i,i)
        let run = run_hypercube(&q, &db, 8, 3);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert_eq!(run.output.len(), 200);
        assert_eq!(run.metrics.num_rounds(), 1);
    }

    #[test]
    fn triangle_on_random_matchings_matches_oracle() {
        let q = ConjunctiveQuery::triangle();
        let db = matching_db(&q, 400, 5);
        let run = run_hypercube(&q, &db, 27, 11);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
    }

    #[test]
    fn chain_query_matches_oracle() {
        let q = ConjunctiveQuery::chain(3);
        let db = identity_db(&q, 300);
        let run = run_hypercube(&q, &db, 16, 7);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert_eq!(run.output.len(), 300);
    }

    #[test]
    fn star_query_matches_oracle() {
        let q = ConjunctiveQuery::star(3);
        let db = matching_db(&q, 500, 17);
        let run = run_hypercube(&q, &db, 16, 23);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
    }

    #[test]
    fn load_is_near_m_over_p_two_thirds_for_triangle() {
        // Theorem 3.4: with equal sizes the triangle load is O(M / p^{2/3}).
        let q = ConjunctiveQuery::triangle();
        let m = 3000;
        let db = matching_db(&q, m, 29);
        let p = 64;
        let run = run_hypercube(&q, &db, p, 31);
        let m_bits = db.relation_size_bits("S1") as f64;
        let predicted = m_bits / (p as f64).powf(2.0 / 3.0);
        let measured = run.metrics.max_load() as f64;
        assert!(
            measured < 6.0 * predicted,
            "measured {measured} too far above predicted {predicted}"
        );
        // And not absurdly small either (sanity of the accounting).
        assert!(measured > 0.2 * predicted);
    }

    #[test]
    fn every_server_receives_roughly_balanced_load() {
        let q = ConjunctiveQuery::simple_join();
        let db = matching_db(&q, 4000, 41);
        let run = run_hypercube(&q, &db, 16, 43);
        let round = &run.metrics.rounds[0];
        let mean = round.mean_load();
        assert!(round.max_load() as f64 <= 3.0 * mean + 64.0);
    }

    #[test]
    fn broadcast_relation_when_share_is_one() {
        // Simple join: x1, x2 get share 1, so S1 tuples go to exactly one
        // server each (hash on z): total bits across servers equals |S1|+|S2|.
        let q = ConjunctiveQuery::simple_join();
        let db = identity_db(&q, 100);
        let run = run_hypercube(&q, &db, 8, 3);
        assert_eq!(run.metrics.total_bits(), db.total_size_bits());
    }

    #[test]
    fn folding_ships_each_row_once_per_worker_and_keeps_the_model_account() {
        // Triangle on a 4x4x4 grid (strides 16/4/1) over 2 workers: S1 fixes
        // x1, x2 and fans out over x3 (offsets 0..4, both parities), S2 and
        // S3 fan out over even offsets only (one worker per row).
        let q = ConjunctiveQuery::triangle();
        let db = matching_db(&q, 500, 5);
        let bound = instantiate(&q, &db);
        let shares: BTreeMap<String, usize> =
            [("x1", 4usize), ("x2", 4), ("x3", 4)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let router = HyperCubeRouter::new(&q, &shares, 7, 0, 0);
        let shipment = router.route_folded(&bound, 64, 2, db.bits_per_value());
        let shipped: usize = shipment.fragments.iter().flatten().map(Relation::len).sum();
        assert_eq!(shipped, 500 * 2 + 500 + 500);
        let mut cluster = Cluster::new(64, db.bits_per_value());
        let stats = cluster.communicate(router.route_bound(&bound));
        assert_eq!(stats.total_bits() / (2 * db.bits_per_value()), 3 * 500 * 4);
        assert_eq!(shipment.received_bits, stats.received_bits);
        assert_eq!(shipment.messages, stats.messages);
    }

    #[test]
    fn both_shipment_builders_keep_the_same_invariant() {
        // Folding ready-made messages set-wise must ship exactly what the
        // folding router ships — the same row set in one fragment per
        // (worker, relation), no row twice — under the same model account.
        let q = ConjunctiveQuery::triangle();
        let db = matching_db(&q, 500, 5);
        let bound = instantiate(&q, &db);
        let shares: BTreeMap<String, usize> =
            [("x1", 3usize), ("x2", 3), ("x3", 3)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let router = HyperCubeRouter::new(&q, &shares, 7, 0, 0);
        let bits = db.bits_per_value();
        for workers in [1, 2, 3] {
            let folded = router.route_folded(&bound, 27, workers, bits);
            let from_messages = Shipment::from_messages(router.route_bound(&bound), 27, workers, bits);
            assert_eq!(from_messages.received_bits, folded.received_bits);
            assert_eq!(from_messages.messages, folded.messages);
            for (ours, theirs) in from_messages.fragments.iter().zip(&folded.fragments) {
                assert_eq!(ours.len(), 3, "one fragment per relation at {workers} workers");
                for (a, b) in ours.iter().zip(theirs) {
                    assert_eq!(a.len(), b.len(), "{} at {workers} workers", a.name());
                    assert_eq!(a.canonicalized(), b.canonicalized());
                    assert_eq!(a.len(), a.canonicalized().len(), "no row twice");
                }
            }
        }
    }

    #[test]
    fn folded_routing_is_identical_at_any_pool_size() {
        let q = ConjunctiveQuery::triangle();
        let db = matching_db(&q, 3 * pq_relation::MORSEL_ROWS + 17, 9);
        let bound = instantiate(&q, &db);
        let shares: BTreeMap<String, usize> =
            [("x1", 3usize), ("x2", 2), ("x3", 4)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let router = HyperCubeRouter::new(&q, &shares, 3, 0, 1);
        let fold = || router.route_folded(&bound, 25, 3, db.bits_per_value());
        let inline = pq_exec::TaskPool::new(1).install(fold);
        let pooled = pq_exec::TaskPool::new(4).install(fold);
        assert_eq!(inline, pooled);
    }

    #[test]
    fn route_bound_is_identical_at_any_pool_size() {
        let q = ConjunctiveQuery::triangle();
        let db = matching_db(&q, 3 * pq_relation::MORSEL_ROWS + 17, 9);
        let bound = instantiate(&q, &db);
        let shares: BTreeMap<String, usize> =
            [("x1", 3usize), ("x2", 2), ("x3", 4)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let router = HyperCubeRouter::new(&q, &shares, 3, 0, 1);
        let route = || router.route_bound(&bound);
        let inline = pq_exec::TaskPool::new(1).install(route);
        let pooled = pq_exec::TaskPool::new(4).install(route);
        assert_eq!(inline, pooled);
    }

    #[test]
    fn a_subcube_shares_one_fragment_until_a_server_receives_more() {
        // S1(x1, x2) on a 2x2x3 grid: each of its 4 cells fans out over the
        // 3 servers of the x3 dimension.
        let q = ConjunctiveQuery::triangle();
        let db = matching_db(&q, 200, 5);
        let bound = instantiate(&q, &db);
        let shares: BTreeMap<String, usize> =
            [("x1", 2usize), ("x2", 2), ("x3", 3)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let router = HyperCubeRouter::new(&q, &shares, 7, 0, 0);
        let mut cluster = Cluster::new(12, db.bits_per_value());
        let stats = cluster.communicate(router.route_relation(&bound[0]));
        // Charged three times over, stored once per cell.
        assert_eq!(stats.total_bits(), 3 * bound[0].size_bits(db.bits_per_value()));
        let subcube = [0usize, 1, 2];
        let delivered = cluster.server(0).fragment("S1").expect("cell (0,0) is hit").clone();
        for &s in &subcube {
            let fragment = cluster.server(s).fragment("S1").expect("same subcube");
            assert_eq!(fragment.values().as_ptr(), delivered.values().as_ptr());
        }
        // A second fragment of the same name at server 1 is appended to
        // server 1's own copy; its siblings still hold what was delivered.
        let extra = Relation::from_rows(bound[0].schema().clone(), vec![vec![1, 2]]);
        cluster.server_mut(1).receive(pq_mpc::Payload::Tuples(extra));
        assert_eq!(cluster.server(1).fragment("S1").unwrap().len(), delivered.len() + 1);
        for s in [0, 2] {
            assert_eq!(cluster.server(s).fragment("S1").unwrap(), &delivered);
        }
    }

    #[test]
    #[should_panic(expected = "only 8 servers")]
    fn folding_an_oversized_grid_panics_like_the_simulator() {
        let q = ConjunctiveQuery::triangle();
        let db = identity_db(&q, 10);
        let shares: BTreeMap<String, usize> =
            [("x1", 4usize), ("x2", 4), ("x3", 4)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        let router = HyperCubeRouter::new(&q, &shares, 1, 0, 0);
        router.route_folded(&instantiate(&q, &db), 8, 2, 8);
    }

    #[test]
    fn a_routed_block_answers_like_each_server_alone() {
        // The 4x4x4 triangle grid: every relation has 16 cells, each held
        // by the 4 servers of its subcube, so the block join plans once and
        // indexes each shared cell once.
        let q = ConjunctiveQuery::triangle();
        let db = matching_db(&q, 2_000, 5);
        let shares: BTreeMap<String, usize> = [("x1", 4usize), ("x2", 4), ("x3", 4)]
            .iter()
            .map(|(v, s)| (v.to_string(), *s))
            .collect();
        let router = HyperCubeRouter::new(&q, &shares, 7, 0, 0);
        let mut cluster = Cluster::new(64, db.bits_per_value());
        cluster.communicate(router.route_bound(&instantiate(&q, &db)));
        // Same answers as each server joining alone.
        let answers = local_join_block(&q, cluster.servers());
        for (server, answer) in cluster.servers().iter().zip(&answers) {
            assert_eq!(
                answer.canonicalized(),
                local_join(&q, server).canonicalized()
            );
        }
        let mut merged = Relation::empty(Schema::new(q.name(), q.variables()));
        for answer in &answers {
            merged.append(answer);
        }
        assert_eq!(
            merged.canonicalized(),
            evaluate_sequential(&q, &db).canonicalized()
        );
    }

    #[test]
    fn local_join_with_missing_fragment_is_empty() {
        let q = ConjunctiveQuery::triangle();
        let server = Server::new(0);
        let out = local_join(&q, &server);
        assert!(out.is_empty());
        assert_eq!(out.arity(), 3);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_grid_panics() {
        let q = ConjunctiveQuery::triangle();
        let db = identity_db(&q, 10);
        let shares: BTreeMap<String, usize> =
            [("x1", 4usize), ("x2", 4), ("x3", 4)].iter().map(|(v, s)| (v.to_string(), *s)).collect();
        run_hypercube_with_shares(&q, &db, 8, &shares, 1);
    }
}
