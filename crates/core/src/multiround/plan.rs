//! Multi-round query plans and their executor.
//!
//! A plan is a tree whose leaves are the query's atoms and whose internal
//! nodes are *one-round joins*: each internal node is evaluated by the
//! HyperCube algorithm over its children's results, and all nodes at the
//! same depth run in the same communication round on disjoint blocks of
//! servers (Proposition 5.1). The depth of the plan is therefore the number
//! of rounds: each level is one [`Round`] with a block per operator, run by
//! any [`Transport`] — the simulator, or real workers with the views held
//! by the coordinator between rounds.
//!
//! Example 5.2's plan for `L_16` at ε = 1/2 has two levels: four `L_4`
//! operators in round one, then an `L_4` over the four views in round two.

use crate::hypercube::HyperCubeRouter;
use crate::round::{in_process, Block, InProcess, Round, Routing, Transport};
use crate::shares;
use pq_mpc::RunMetrics;
use pq_query::{instantiate, Atom, ConjunctiveQuery};
use pq_relation::{Database, Relation};
use std::collections::BTreeMap;

/// A node of a multi-round query plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanNode {
    /// A leaf: one of the query's atoms, identified by its relation name.
    Base(String),
    /// An internal node: a one-round join of its children's results,
    /// materialised as a view with the given (unique) name.
    Join {
        /// Name of the materialised view.
        name: String,
        /// Child nodes joined by this operator.
        children: Vec<PlanNode>,
    },
}

impl PlanNode {
    /// Leaf constructor.
    pub fn base(relation: impl Into<String>) -> Self {
        PlanNode::Base(relation.into())
    }

    /// Join constructor.
    pub fn join(name: impl Into<String>, children: Vec<PlanNode>) -> Self {
        PlanNode::Join {
            name: name.into(),
            children,
        }
    }

    /// The depth of the plan: number of communication rounds needed
    /// (leaves are depth 0).
    pub fn depth(&self) -> usize {
        match self {
            PlanNode::Base(_) => 0,
            PlanNode::Join { children, .. } => {
                1 + children.iter().map(PlanNode::depth).max().unwrap_or(0)
            }
        }
    }

    /// Names of all base relations referenced by the plan.
    pub fn base_relations(&self) -> Vec<String> {
        match self {
            PlanNode::Base(name) => vec![name.clone()],
            PlanNode::Join { children, .. } => {
                children.iter().flat_map(PlanNode::base_relations).collect()
            }
        }
    }

    /// The view/relation name this node produces.
    pub fn output_name(&self) -> &str {
        match self {
            PlanNode::Base(name) => name,
            PlanNode::Join { name, .. } => name,
        }
    }

    /// The output attributes of this node for the given query: the union of
    /// its atoms' variables, in query-variable order.
    pub fn output_variables(&self, query: &ConjunctiveQuery) -> Vec<String> {
        let bases = self.base_relations();
        let mut vars = Vec::new();
        for v in query.variables() {
            let used = query
                .atoms()
                .iter()
                .any(|a| bases.contains(&a.relation().to_string()) && a.contains(&v));
            if used {
                vars.push(v);
            }
        }
        vars
    }
}

/// Build the canonical bushy plan for the chain query `L_k`, grouping
/// `fan_in` consecutive sub-chains per round (Example 5.2 uses `fan_in = 2`
/// for ε = 0 and `fan_in = 4` for ε = 1/2).
pub fn bushy_chain_plan(k: usize, fan_in: usize) -> PlanNode {
    assert!(k >= 1 && fan_in >= 2, "need k >= 1 and fan_in >= 2");
    let mut level: Vec<PlanNode> = (1..=k).map(|j| PlanNode::base(format!("S{j}"))).collect();
    let mut view = 0usize;
    while level.len() > 1 {
        let mut next = Vec::new();
        for chunk in level.chunks(fan_in) {
            if chunk.len() == 1 {
                next.push(chunk[0].clone());
            } else {
                view += 1;
                next.push(PlanNode::join(format!("V{view}"), chunk.to_vec()));
            }
        }
        level = next;
    }
    level.pop().expect("non-empty plan")
}

/// Build the two-round plan for `SP_k` of Example 5.3: round one computes
/// each path `R_i(z, x_i) ⋈ S_i(x_i, y_i)`, round two joins the `k` paths on
/// `z`.
pub fn star_of_paths_plan(k: usize) -> PlanNode {
    assert!(k >= 1);
    let paths: Vec<PlanNode> = (1..=k)
        .map(|i| {
            PlanNode::join(
                format!("P{i}"),
                vec![PlanNode::base(format!("R{i}")), PlanNode::base(format!("S{i}"))],
            )
        })
        .collect();
    if paths.len() == 1 {
        paths.into_iter().next().expect("one path")
    } else {
        PlanNode::join("SP", paths)
    }
}

/// A left-deep plan (one binary join per round) for any query — the
/// strawman baseline with `ℓ − 1` rounds.
pub fn left_deep_plan(query: &ConjunctiveQuery) -> PlanNode {
    let mut iter = query.atoms().iter();
    let first = iter.next().expect("query has at least one atom");
    let mut acc = PlanNode::base(first.relation());
    for (i, atom) in iter.enumerate() {
        acc = PlanNode::join(format!("LD{}", i + 1), vec![acc, PlanNode::base(atom.relation())]);
    }
    acc
}

/// Result of executing a plan.
#[derive(Debug, Clone)]
pub struct PlanRun {
    /// The query answer.
    pub output: Relation,
    /// Communication metrics; `metrics.num_rounds()` equals the plan depth.
    pub metrics: RunMetrics,
    /// Per-round names of the views computed in that round.
    pub round_views: Vec<Vec<String>>,
}

/// Execute a plan for `query` over `database` on `p` simulated servers:
/// [`execute_plan_on`] in process.
///
/// # Panics
/// As [`execute_plan_on`].
pub fn execute_plan(
    plan: &PlanNode,
    query: &ConjunctiveQuery,
    database: &Database,
    p: usize,
    seed: u64,
) -> PlanRun {
    in_process(execute_plan_on(plan, query, database, seed, &mut InProcess::new(p, query, database)))
}

/// Execute a plan for `query` over `database` on `transport`'s servers.
///
/// Every node at depth `d` is evaluated in round `d` by the HyperCube
/// algorithm for its induced join, on its own block of servers
/// (`p / #nodes-at-that-depth` servers each). Between rounds the caller's
/// side holds every view: each block's answer, the set union of its
/// servers' answers ([`Transport::round`]), is routed as an input of the
/// next round.
///
/// # Errors
/// As [`Transport::round`].
///
/// # Panics
/// Panics when the plan does not reference every atom of the query exactly
/// once, or `p` is smaller than the number of operators in some round.
pub fn execute_plan_on<T: Transport>(
    plan: &PlanNode,
    query: &ConjunctiveQuery,
    database: &Database,
    seed: u64,
    transport: &mut T,
) -> Result<PlanRun, T::Error> {
    // Validate atom coverage.
    let mut bases = plan.base_relations();
    bases.sort();
    let mut expected = query.relation_names();
    expected.sort();
    assert_eq!(
        bases, expected,
        "plan must reference every atom of the query exactly once"
    );
    let p = transport.p();

    // Materialised node outputs by view name; base relations are bound atom
    // instances.
    let mut views: BTreeMap<String, Relation> = BTreeMap::new();
    for (atom, bound) in query.atoms().iter().zip(instantiate(query, database)) {
        views.insert(atom.relation().to_string(), bound);
    }

    let depth = plan.depth();
    let mut round_views = Vec::with_capacity(depth);
    for round in 1..=depth {
        let nodes = nodes_at_depth(plan, round);
        assert!(
            !nodes.is_empty(),
            "internal error: no plan nodes at depth {round}"
        );
        assert!(
            p >= nodes.len(),
            "round {round} has {} operators but only {p} servers",
            nodes.len()
        );
        let block = p / nodes.len();
        let mut grids = Vec::with_capacity(nodes.len());
        let mut blocks = Vec::with_capacity(nodes.len());
        for (idx, node) in nodes.iter().enumerate() {
            let (induced, inputs) = induced_query(node, query, &views);
            let sizes: BTreeMap<String, u64> = inputs
                .iter()
                .map(|r| (r.name().to_string(), r.size_bits(database.bits_per_value())))
                .collect();
            let share_p = block.max(2);
            let exps = shares::optimal_share_exponents(&induced, &sizes, share_p);
            let mut node_shares = shares::integer_shares(&exps, shares::ShareRounding::GreedyFill);
            // Clamp to the block size (the share LP already guarantees the
            // product fits, but stay defensive when block == 1).
            if block == 1 {
                node_shares.values_mut().for_each(|v| *v = 1);
            }
            let offset = idx * block;
            let router =
                HyperCubeRouter::new(&induced, &node_shares, seed, round * 97 + idx * 13, offset);
            grids.push((router, inputs));
            blocks.push(Block {
                query: induced,
                servers: offset..offset + block,
            });
        }
        let produced: Vec<String> = nodes.iter().map(|n| n.output_name().to_string()).collect();
        let answers = transport.round(Round {
            routing: Routing::Grids(grids),
            blocks,
        })?;
        views.extend(produced.iter().cloned().zip(answers));
        round_views.push(produced);
    }

    // The root's view is a set (a round's merge) over exactly the query's
    // variables, so reordering its columns keeps it one; a plan with no
    // join ran no round, and its lone atom may be a bag.
    let root = &views[plan.output_name()];
    debug_assert_eq!(root.arity(), query.num_variables(), "the root binds every variable");
    let mut output = root.project(&query.variables(), query.name());
    if depth == 0 {
        output.dedup();
    }
    Ok(PlanRun {
        output,
        metrics: transport.metrics().clone(),
        round_views,
    })
}

/// The join nodes whose depth equals `depth` (1-based rounds) — the
/// operators [`execute_plan`] schedules in round `depth`. Public so cost
/// models (e.g. `pq-engine`'s planner) can price exactly these rounds.
pub fn nodes_at_depth(plan: &PlanNode, depth: usize) -> Vec<&PlanNode> {
    let mut out = Vec::new();
    collect_at_depth(plan, depth, &mut out);
    out
}

fn collect_at_depth<'a>(node: &'a PlanNode, depth: usize, out: &mut Vec<&'a PlanNode>) {
    if let PlanNode::Join { children, .. } = node {
        if node.depth() == depth {
            out.push(node);
        }
        for c in children {
            collect_at_depth(c, depth, out);
        }
    }
}

/// The one-round query induced by a join node: one atom per child, named by
/// the child's output view, over the child's output variables. Also returns
/// the child input relations in the same order.
fn induced_query(
    node: &PlanNode,
    query: &ConjunctiveQuery,
    views: &BTreeMap<String, Relation>,
) -> (ConjunctiveQuery, Vec<Relation>) {
    let PlanNode::Join { name, children } = node else {
        panic!("induced_query called on a leaf");
    };
    let mut atoms = Vec::new();
    let mut inputs = Vec::new();
    for child in children {
        let vars = child.output_variables(query);
        atoms.push(Atom::new(child.output_name(), vars));
        let rel = views
            .get(child.output_name())
            .unwrap_or_else(|| panic!("view `{}` not yet materialised", child.output_name()))
            .clone();
        inputs.push(rel);
    }
    (ConjunctiveQuery::new(name.clone(), atoms), inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_query::evaluate_sequential;
    use pq_relation::{DataGenerator, Schema};

    fn chain_db(k: usize, m: usize, seed: u64) -> Database {
        let mut gen = DataGenerator::new(seed, (m * 40) as u64);
        let specs: Vec<(Schema, usize)> = (1..=k)
            .map(|j| (Schema::from_strs(&format!("S{j}"), &["a", "b"]), m))
            .collect();
        gen.matching_database(&specs)
    }

    fn identity_chain_db(k: usize, m: usize) -> Database {
        let mut db = Database::new((m as u64).max(2));
        for j in 1..=k {
            db.insert(Relation::from_rows(
                Schema::from_strs(&format!("S{j}"), &["a", "b"]),
                (0..m as u64).map(|i| vec![i, i]).collect(),
            ));
        }
        db
    }

    #[test]
    fn plan_structure_helpers() {
        let plan = bushy_chain_plan(8, 2);
        assert_eq!(plan.depth(), 3);
        assert_eq!(plan.base_relations().len(), 8);
        let plan = bushy_chain_plan(16, 4);
        assert_eq!(plan.depth(), 2);
        let plan = bushy_chain_plan(16, 2);
        assert_eq!(plan.depth(), 4);
        let sp = star_of_paths_plan(3);
        assert_eq!(sp.depth(), 2);
        assert_eq!(sp.base_relations().len(), 6);
        let ld = left_deep_plan(&ConjunctiveQuery::chain(5));
        assert_eq!(ld.depth(), 4);
    }

    #[test]
    fn output_variables_follow_query_order() {
        let q = ConjunctiveQuery::chain(4);
        let plan = bushy_chain_plan(4, 2);
        let PlanNode::Join { children, .. } = &plan else { panic!() };
        let left = &children[0];
        assert_eq!(left.output_variables(&q), vec!["x0", "x1", "x2"]);
        assert_eq!(plan.output_variables(&q), q.variables());
    }

    #[test]
    fn bushy_plan_computes_l4_correctly() {
        let q = ConjunctiveQuery::chain(4);
        let db = identity_chain_db(4, 200);
        let plan = bushy_chain_plan(4, 2);
        let run = execute_plan(&plan, &q, &db, 8, 3);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert_eq!(run.metrics.num_rounds(), 2);
        assert_eq!(run.round_views.len(), 2);
        assert_eq!(run.round_views[0].len(), 2);
        assert_eq!(run.round_views[1].len(), 1);
    }

    #[test]
    fn bushy_plan_computes_l8_on_random_matchings() {
        let q = ConjunctiveQuery::chain(8);
        let db = chain_db(8, 300, 5);
        let plan = bushy_chain_plan(8, 2);
        let run = execute_plan(&plan, &q, &db, 16, 7);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert_eq!(run.metrics.num_rounds(), 3);
    }

    #[test]
    fn four_way_plan_uses_fewer_rounds() {
        let q = ConjunctiveQuery::chain(8);
        let db = identity_chain_db(8, 100);
        let run2 = execute_plan(&bushy_chain_plan(8, 2), &q, &db, 16, 7);
        let run4 = execute_plan(&bushy_chain_plan(8, 4), &q, &db, 16, 7);
        assert_eq!(run2.output.canonicalized(), run4.output.canonicalized());
        assert_eq!(run2.metrics.num_rounds(), 3);
        assert_eq!(run4.metrics.num_rounds(), 2);
    }

    #[test]
    fn star_of_paths_plan_is_two_rounds_and_correct() {
        let q = ConjunctiveQuery::star_of_paths(3);
        let mut gen = DataGenerator::new(11, 20_000);
        let mut specs = Vec::new();
        for i in 1..=3 {
            specs.push((Schema::from_strs(&format!("R{i}"), &["a", "b"]), 200));
            specs.push((Schema::from_strs(&format!("S{i}"), &["a", "b"]), 200));
        }
        let db = gen.matching_database(&specs);
        let run = execute_plan(&star_of_paths_plan(3), &q, &db, 12, 13);
        let oracle = evaluate_sequential(&q, &db);
        assert_eq!(run.output.canonicalized(), oracle.canonicalized());
        assert_eq!(run.metrics.num_rounds(), 2);
    }

    #[test]
    fn left_deep_plan_matches_bushy_output() {
        let q = ConjunctiveQuery::chain(5);
        let db = identity_chain_db(5, 120);
        let bushy = execute_plan(&bushy_chain_plan(5, 2), &q, &db, 8, 3);
        let left = execute_plan(&left_deep_plan(&q), &q, &db, 8, 3);
        assert_eq!(bushy.output.canonicalized(), left.output.canonicalized());
        assert_eq!(left.metrics.num_rounds(), 4);
        assert_eq!(bushy.metrics.num_rounds(), 3);
    }

    #[test]
    fn per_round_load_stays_near_m_over_p() {
        // Proposition 5.1: every round's load is O(M/p^{1-eps}); for the
        // bushy binary plan over matchings the load should stay within a
        // small factor of M/p per round.
        let q = ConjunctiveQuery::chain(8);
        let m = 2000;
        let db = chain_db(8, m, 17);
        let p = 16;
        let run = execute_plan(&bushy_chain_plan(8, 2), &q, &db, p, 19);
        let m_bits = db.relation_size_bits("S1") as f64;
        for (round, load) in run.metrics.per_round_max_loads().iter().enumerate() {
            assert!(
                (*load as f64) <= 8.0 * m_bits * 2.0 / (p / 4) as f64,
                "round {round} load {load} too high"
            );
        }
    }

    #[test]
    #[should_panic(expected = "every atom")]
    fn incomplete_plan_is_rejected() {
        let q = ConjunctiveQuery::chain(3);
        let db = identity_chain_db(3, 10);
        let plan = PlanNode::join(
            "V",
            vec![PlanNode::base("S1"), PlanNode::base("S2")],
        );
        execute_plan(&plan, &q, &db, 4, 1);
    }
}
