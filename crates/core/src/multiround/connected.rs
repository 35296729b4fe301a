//! Connected components in the tuple-based MPC model.
//!
//! Theorem 5.20 shows that any tuple-based MPC algorithm computing connected
//! components with load `O(M/p^{1−ε})` needs `Ω(log p)` rounds. This module
//! implements two concrete algorithms whose measured round counts bracket
//! that bound on the paper's hard instances (graphs whose components are
//! long paths of matchings):
//!
//! * **label propagation** — every vertex repeatedly adopts the minimum
//!   label in its neighbourhood; `Θ(diameter)` iterations;
//! * **label propagation + pointer jumping** — after each propagation step
//!   every vertex also jumps to its label's label (`lab(v) ← lab(lab(v))`),
//!   which converges in `Θ(log diameter)` iterations — for the
//!   `k = p^δ`-layer instances of Theorem 5.20 this is `Θ(log p)` rounds,
//!   matching the lower bound's shape.
//!
//! Each iteration is executed as genuine MPC rounds (hash-partitioned
//! shuffles of the edge and label relations), so the simulator's metrics
//! report both the round count and the per-round load (`O(M/p)` w.h.p.).
//!
//! This is the one algorithm that drives the simulator's [`Cluster`]
//! directly instead of running its rounds through [`crate::round`]: its
//! local programs take per-vertex minima over labels rather than join, and
//! a transport's blocks run joins only — so no transport path, and no
//! worker, runs it.

use pq_mpc::{map_servers_parallel, Cluster, Message, RunMetrics};
use pq_relation::{BucketHasher, HashFamily, MultiplyShiftHash, Relation, Schema, Value};
use std::collections::BTreeMap;

/// Result of a connected-components run.
#[derive(Debug, Clone)]
pub struct ConnectedComponentsRun {
    /// The labelling: one `(vertex, label)` tuple per vertex, where two
    /// vertices share a label iff they are connected.
    pub labels: Relation,
    /// Communication metrics; `metrics.num_rounds()` is the number of
    /// synchronisation barriers used.
    pub metrics: RunMetrics,
    /// Number of propagate/jump iterations until the fixpoint.
    pub iterations: usize,
}

/// Strategy for the connected-components computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcStrategy {
    /// Pure min-label propagation: `Θ(diameter)` iterations.
    Propagation,
    /// Propagation plus pointer jumping: `Θ(log diameter)` iterations.
    PointerJumping,
}

/// Compute connected components of an undirected graph given as an edge
/// relation with two columns, on `p` simulated servers.
///
/// The label of each component is the minimum vertex id it contains.
pub fn connected_components(
    edges: &Relation,
    p: usize,
    seed: u64,
    strategy: CcStrategy,
) -> ConnectedComponentsRun {
    assert_eq!(edges.arity(), 2, "edge relation must be binary");
    let family = MultiplyShiftHash::new(seed);
    // Domain: max vertex id + 1.
    let max_vertex = edges.values().iter().copied().max().unwrap_or(0);
    let bits = pq_relation::bits_per_value(max_vertex + 2);
    let mut cluster = Cluster::new(p, bits);
    cluster.set_input_bits(edges.size_bits(bits));

    // Symmetrise the edges.
    let mut sym = Vec::with_capacity(edges.len() * 2);
    for t in edges.iter() {
        sym.push((t[0], t[1]));
        sym.push((t[1], t[0]));
    }
    // Initial labels: every vertex labels itself.
    let mut labels: BTreeMap<Value, Value> = BTreeMap::new();
    for &(u, v) in &sym {
        labels.entry(u).or_insert(u);
        labels.entry(v).or_insert(v);
    }

    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let before = labels.clone();
        propagate_round(&mut cluster, &sym, &mut labels, &family, iterations);
        if strategy == CcStrategy::PointerJumping {
            jump_round(&mut cluster, &mut labels, &family, iterations);
        }
        if labels == before || iterations > 10 * (p + 64) {
            break;
        }
    }

    let label_rel = Relation::from_rows(
        Schema::from_strs("CC", &["vertex", "label"]),
        labels.iter().map(|(&v, &l)| vec![v, l]).collect(),
    );
    ConnectedComponentsRun {
        labels: label_rel,
        metrics: cluster.into_metrics(),
        iterations,
    }
}

/// One propagation iteration = two MPC rounds:
/// 1. co-locate each edge `(u, v)` with `lab(u)` (hash by `u`) and emit the
///    candidate `(v, lab(u))`;
/// 2. co-locate the candidates with `lab(v)` (hash by `v`) and take the
///    minimum.
fn propagate_round(
    cluster: &mut Cluster,
    sym_edges: &[(Value, Value)],
    labels: &mut BTreeMap<Value, Value>,
    family: &MultiplyShiftHash,
    iteration: usize,
) {
    let p = cluster.p();
    let h = family.hasher(iteration, p);
    let ename = format!("E_{iteration}");
    let lname = format!("LabU_{iteration}");

    // Round A: partition edges and labels by u.
    let mut messages = shuffle(&ename, ["u", "v"], sym_edges.iter().copied(), 0, &h, p);
    let labelled = labels.iter().map(|(&v, &l)| (v, l));
    messages.extend(shuffle(&lname, ["u", "lab"], labelled, 0, &h, p));
    cluster.communicate(messages);

    // Local: candidates (v, lab(u)) for each edge (u, v).
    let candidate_lists = map_servers_parallel(cluster.servers(), |_, server| {
        let mut out: Vec<(Value, Value)> = Vec::new();
        let (Some(e), Some(lab)) = (server.fragment(&ename), server.fragment(&lname)) else {
            return out;
        };
        let mut local: BTreeMap<Value, Value> = BTreeMap::new();
        for t in lab.iter() {
            local.insert(t[0], t[1]);
        }
        for t in e.iter() {
            if let Some(&lu) = local.get(&t[0]) {
                out.push((t[1], lu));
            }
        }
        out
    });

    // Round B: partition candidates and labels by the target vertex v.
    let cname = format!("Cand_{iteration}");
    let vname = format!("LabV_{iteration}");
    let candidates = candidate_lists.into_iter().flatten();
    let mut messages = shuffle(&cname, ["v", "lab"], candidates, 0, &h, p);
    let labelled = labels.iter().map(|(&v, &l)| (v, l));
    messages.extend(shuffle(&vname, ["v", "lab"], labelled, 0, &h, p));
    cluster.communicate(messages);

    // Local: new label(v) = min(lab(v), min candidates).
    let updates = map_servers_parallel(cluster.servers(), |_, server| {
        let mut mins: BTreeMap<Value, Value> = BTreeMap::new();
        if let Some(lab) = server.fragment(&vname) {
            for t in lab.iter() {
                mins.insert(t[0], t[1]);
            }
        }
        if let Some(cand) = server.fragment(&cname) {
            for t in cand.iter() {
                let entry = mins.entry(t[0]).or_insert(t[1]);
                *entry = (*entry).min(t[1]);
            }
        }
        mins
    });
    for server_mins in updates {
        for (v, l) in server_mins {
            let entry = labels.entry(v).or_insert(l);
            *entry = (*entry).min(l);
        }
    }
}

/// One pointer-jumping iteration = one MPC round: co-locate `Lab(v, l)`
/// (hashed by `l`) with `Lab(l, l2)` (hashed by its vertex) and set
/// `lab(v) ← min(lab(v), l2)`.
fn jump_round(
    cluster: &mut Cluster,
    labels: &mut BTreeMap<Value, Value>,
    family: &MultiplyShiftHash,
    iteration: usize,
) {
    let p = cluster.p();
    let h = family.hasher(1000 + iteration, p);
    let lname = format!("ByLab_{iteration}");
    let vname = format!("ByVer_{iteration}");
    let labelled = || labels.iter().map(|(&v, &l)| (v, l));
    let mut messages = shuffle(&lname, ["v", "lab"], labelled(), 1, &h, p);
    messages.extend(shuffle(&vname, ["v", "lab"], labelled(), 0, &h, p));
    cluster.communicate(messages);

    let updates = map_servers_parallel(cluster.servers(), |_, server| {
        let mut out: Vec<(Value, Value)> = Vec::new();
        let (Some(by_lab), Some(by_ver)) = (server.fragment(&lname), server.fragment(&vname)) else {
            return out;
        };
        // label -> its own label (lab(l) = l2), from the by-vertex copy.
        let mut lab_of: BTreeMap<Value, Value> = BTreeMap::new();
        for t in by_ver.iter() {
            lab_of.insert(t[0], t[1]);
        }
        for t in by_lab.iter() {
            if let Some(&l2) = lab_of.get(&t[1]) {
                out.push((t[0], l2));
            }
        }
        out
    });
    for list in updates {
        for (v, l2) in list {
            let entry = labels.get_mut(&v).expect("vertex exists");
            *entry = (*entry).min(l2);
        }
    }
}

/// One hash shuffle of `(x, y)` pairs: the pairs, in input order, as
/// relation `name`, split over the `p` servers by the hash of column `by`
/// ([`Relation::partition`]), one message per non-empty part.
fn shuffle(
    name: &str,
    columns: [&str; 2],
    pairs: impl Iterator<Item = (Value, Value)>,
    by: usize,
    h: &impl BucketHasher,
    p: usize,
) -> Vec<Message> {
    let values: Vec<Value> = pairs.flat_map(|(x, y)| [x, y]).collect();
    let rows = values.len() / 2;
    let relation = Relation::from_values(Schema::from_strs(name, &columns), rows, values);
    relation
        .partition(p, |_, row| h.bucket(row[by]))
        .into_iter()
        .enumerate()
        .filter(|(_, part)| !part.is_empty())
        .map(|(server, part)| Message::tuples(server, part))
        .collect()
}

/// Sequential union-find oracle for correctness checks.
pub fn connected_components_oracle(edges: &Relation) -> BTreeMap<Value, Value> {
    assert_eq!(edges.arity(), 2);
    let mut parent: BTreeMap<Value, Value> = BTreeMap::new();
    fn find(parent: &mut BTreeMap<Value, Value>, v: Value) -> Value {
        let p = *parent.get(&v).unwrap_or(&v);
        if p == v {
            return v;
        }
        let root = find(parent, p);
        parent.insert(v, root);
        root
    }
    for t in edges.iter() {
        let (u, v) = (t[0], t[1]);
        parent.entry(u).or_insert(u);
        parent.entry(v).or_insert(v);
        let ru = find(&mut parent, u);
        let rv = find(&mut parent, v);
        if ru != rv {
            let (lo, hi) = if ru < rv { (ru, rv) } else { (rv, ru) };
            parent.insert(hi, lo);
        }
    }
    let vertices: Vec<Value> = parent.keys().copied().collect();
    vertices
        .into_iter()
        .map(|v| {
            let root = find(&mut parent, v);
            (v, root)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::DataGenerator;

    fn labels_as_map(rel: &Relation) -> BTreeMap<Value, Value> {
        rel.iter().map(|t| (t[0], t[1])).collect()
    }

    fn same_partition(a: &BTreeMap<Value, Value>, b: &BTreeMap<Value, Value>) -> bool {
        // Two labellings describe the same partition iff they induce the
        // same equivalence classes.
        if a.len() != b.len() {
            return false;
        }
        let mut pairs: BTreeMap<Value, Value> = BTreeMap::new();
        for (v, la) in a {
            let lb = match b.get(v) {
                Some(l) => *l,
                None => return false,
            };
            match pairs.get(la) {
                Some(&expected) if expected != lb => return false,
                Some(_) => {}
                None => {
                    pairs.insert(*la, lb);
                }
            }
        }
        true
    }

    #[test]
    fn small_graph_components() {
        // Two components: {1,2,3} and {10,11}.
        let edges = Relation::from_rows(
            Schema::from_strs("E", &["src", "dst"]),
            vec![vec![1, 2], vec![2, 3], vec![10, 11]],
        );
        for strategy in [CcStrategy::Propagation, CcStrategy::PointerJumping] {
            let run = connected_components(&edges, 4, 7, strategy);
            let got = labels_as_map(&run.labels);
            let oracle = connected_components_oracle(&edges);
            assert!(same_partition(&got, &oracle), "{strategy:?}");
            assert_eq!(got[&1], got[&3]);
            assert_ne!(got[&1], got[&10]);
        }
    }

    #[test]
    fn layered_graph_matches_oracle() {
        let mut gen = DataGenerator::new(3, 1 << 20);
        let edges = gen.layered_matching_graph(40, 6);
        let oracle = connected_components_oracle(&edges);
        for strategy in [CcStrategy::Propagation, CcStrategy::PointerJumping] {
            let run = connected_components(&edges, 8, 5, strategy);
            assert!(same_partition(&labels_as_map(&run.labels), &oracle), "{strategy:?}");
        }
    }

    #[test]
    fn pointer_jumping_uses_fewer_iterations_on_long_paths() {
        let mut gen = DataGenerator::new(9, 1 << 20);
        let edges = gen.layered_matching_graph(20, 32);
        let prop = connected_components(&edges, 8, 5, CcStrategy::Propagation);
        let jump = connected_components(&edges, 8, 5, CcStrategy::PointerJumping);
        assert!(
            jump.iterations < prop.iterations,
            "jumping {} !< propagation {}",
            jump.iterations,
            prop.iterations
        );
        // Propagation needs ~diameter iterations; jumping ~log(diameter).
        assert!(prop.iterations >= 30);
        assert!(jump.iterations <= 10);
    }

    #[test]
    fn per_round_load_is_balanced() {
        let mut gen = DataGenerator::new(13, 1 << 20);
        let edges = gen.layered_matching_graph(200, 8);
        let p = 16;
        let run = connected_components(&edges, p, 5, CcStrategy::PointerJumping);
        let input_bits = edges.size_bits(pq_relation::bits_per_value(1 << 20)) as f64;
        for load in run.metrics.per_round_max_loads() {
            // Each round ships O(|E| + |V|) tuples; with p = 16 every
            // server should stay well below half the input.
            assert!((load as f64) < 0.5 * input_bits + 1024.0);
        }
    }

    #[test]
    fn singleton_and_empty_graphs() {
        let empty = Relation::empty(Schema::from_strs("E", &["src", "dst"]));
        let run = connected_components(&empty, 4, 1, CcStrategy::Propagation);
        assert!(run.labels.is_empty());
        let single = Relation::from_rows(
            Schema::from_strs("E", &["src", "dst"]),
            vec![vec![5, 5]],
        );
        let run = connected_components(&single, 4, 1, CcStrategy::PointerJumping);
        assert_eq!(labels_as_map(&run.labels)[&5], 5);
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn non_binary_edges_are_rejected() {
        let bad = Relation::from_rows(Schema::from_strs("E", &["a"]), vec![vec![1]]);
        connected_components(&bad, 2, 1, CcStrategy::Propagation);
    }
}
