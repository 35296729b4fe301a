//! The cost-based planner.
//!
//! Given a parsed query, a database snapshot and a server budget `p`, the
//! planner produces an explainable [`Plan`]:
//!
//! 1. it reads **statistics** (cardinalities, bit sizes, per-variable
//!    distinct counts, degree maps) and their fingerprint from the
//!    snapshot's shared [`pq_relation::DatabaseStatistics`] catalogue —
//!    computed once per snapshot, so planning itself makes **no O(data)
//!    pass** (the sole exception is an atom binding the same variable
//!    twice, whose filtered statistics cannot be precomputed per column);
//! 2. it solves the **share-exponent LP** (Eq. 10 of the paper) for the
//!    one-round HyperCube shares, and independently the size-weighted
//!    **fractional edge-packing LP** — the dual that yields the one-round
//!    lower bound `L_lower = max_u L(u, M, p)` — as a cross-check that the
//!    chosen shares are LP-optimal;
//! 3. it detects **heavy hitters** against the paper's skew threshold
//!    `m_j / p` on every join variable; when the query is a triangle or a
//!    star, skew routes the plan to the matching skew-aware one-round
//!    algorithm of Section 4.2;
//! 4. for deeper skew-free queries it prices a **multi-round bushy plan**
//!    (Section 5) with a textbook cardinality estimator (distinct-count
//!    selectivities, one share LP per operator) and switches to it when the
//!    estimated total communication clearly beats the one-round load.
//!
//! The resulting [`Plan`] names its strategy, shares, and estimated load —
//! `pqsh explain` prints it verbatim — and is cached by the engine keyed on
//! (query signature, statistics fingerprint, `p`).

use crate::parser::ParsedQuery;
use crate::snapshot::Snapshot;
use pq_core::multiround::plan::PlanNode;
use pq_core::shares::{self, ShareExponents, ShareRounding};
use pq_core::skew::heavy::heavy_hitters_of_variable;
use pq_core::skew::star::star_center;
use pq_core::skew::triangle::triangle_roles;
use pq_lp::{ConstraintOp, LinearProgram, Objective};
use pq_query::{agm_bound, ConjunctiveQuery, Hypergraph};
use pq_relation::{Database, DatabaseStatistics};
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// Preference factor for the one-round strategy: a multi-round plan is
/// chosen only when its estimated total communication is below
/// `one-round load / MULTIROUND_ADVANTAGE`, pricing in synchronisation
/// overhead and estimator error.
const MULTIROUND_ADVANTAGE: f64 = 2.0;

/// How the executor will evaluate the query.
#[derive(Debug, Clone, PartialEq)]
pub enum Strategy {
    /// One communication round of the HyperCube algorithm with the given
    /// integer shares (Section 3.1).
    HyperCube {
        /// Integer shares per variable, product ≤ `p`.
        shares: BTreeMap<String, usize>,
    },
    /// The skew-aware one-round star algorithm (Section 4.2.1): hash the
    /// light tuples on the centre ([`pq_core::skew::star::star_center`]),
    /// give every heavy hitter its own server block for the residual join.
    SkewAwareStar,
    /// The skew-aware one-round triangle algorithm (Section 4.2.2), on the
    /// query's variables in their roles
    /// ([`pq_core::skew::triangle::triangle_roles`]).
    SkewAwareTriangle,
    /// A multi-round bushy plan (Section 5): every operator is a one-round
    /// HyperCube join on its own server block.
    MultiRound {
        /// The operator tree (leaves are the query's relations).
        plan: PlanNode,
        /// Number of communication rounds (the tree depth).
        rounds: usize,
    },
}

impl Strategy {
    /// Short human-readable name, used by `explain` and the CLI summary.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::HyperCube { .. } => "one-round HyperCube",
            Strategy::SkewAwareStar => "skew-aware star",
            Strategy::SkewAwareTriangle => "skew-aware triangle",
            Strategy::MultiRound { .. } => "multi-round bushy plan",
        }
    }
}

/// Heavy-hitter summary for one join variable (threshold `m_j / p`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeavyReport {
    /// The variable.
    pub variable: String,
    /// Number of heavy values detected across the relations binding it.
    pub num_values: usize,
    /// The largest frequency of any heavy value.
    pub max_frequency: usize,
}

/// An executable, explainable query plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The parsed query (body atoms plus head order).
    pub parsed: ParsedQuery,
    /// Server budget the plan was optimised for.
    pub p: usize,
    /// The chosen evaluation strategy.
    pub strategy: Strategy,
    /// Solution of the share-exponent LP (Eq. 10).
    pub exponents: ShareExponents,
    /// Integer shares derived from the LP solution (greedy fill).
    pub shares: BTreeMap<String, usize>,
    /// Optimum of the size-weighted fractional edge-packing LP: the
    /// one-round lower-bound exponent `λ_lower` (equals the primal λ by LP
    /// duality — the planner checks this).
    pub packing_lambda: f64,
    /// Estimated per-server load of the chosen strategy, in bits.
    pub estimated_load_bits: f64,
    /// AGM upper bound on the number of output tuples.
    pub estimated_output_tuples: f64,
    /// Heavy hitters per join variable (empty on skew-free data).
    pub heavy: Vec<HeavyReport>,
    /// Statistics fingerprint of the database the plan was built against.
    pub fingerprint: u64,
    /// Total tuples across the query's relations (for the explain header).
    pub input_tuples: usize,
    /// Free-form notes about decisions taken (cost comparisons, fallbacks).
    pub notes: Vec<String>,
}

impl Plan {
    /// Multi-line, human-readable explanation of the plan — what `pqsh
    /// explain` prints.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, k: &str, v: String| {
            out.push_str(&format!("  {k:<18} {v}\n"));
        };
        out.push_str(&format!("{}\n", self.parsed.query));
        push(&mut out, "servers", format!("p = {}", self.p));
        push(
            &mut out,
            "statistics",
            format!(
                "{} relations · {} tuples · fingerprint {:#018x}",
                self.parsed.query.num_atoms(),
                self.input_tuples,
                self.fingerprint
            ),
        );
        let exps: Vec<String> = self
            .exponents
            .exponents
            .iter()
            .map(|(v, e)| format!("{v}={e:.3}"))
            .collect();
        push(
            &mut out,
            "share LP",
            format!(
                "λ = {:.3} (dual packing bound {:.3}) · {}",
                self.exponents.lambda,
                self.packing_lambda,
                exps.join(" ")
            ),
        );
        let shares: Vec<String> = self
            .shares
            .iter()
            .map(|(v, s)| format!("{v}={s}"))
            .collect();
        push(
            &mut out,
            "integer shares",
            format!(
                "{} (grid {} of {} servers)",
                shares.join(" "),
                shares::grid_size(&self.shares),
                self.p
            ),
        );
        if self.heavy.is_empty() {
            push(&mut out, "heavy hitters", "none above m/p".to_string());
        } else {
            let hh: Vec<String> = self
                .heavy
                .iter()
                .map(|h| {
                    format!(
                        "{}: {} value(s), max frequency {}",
                        h.variable, h.num_values, h.max_frequency
                    )
                })
                .collect();
            push(&mut out, "heavy hitters", hh.join(" · "));
        }
        let query = &self.parsed.query;
        let strategy = match &self.strategy {
            Strategy::HyperCube { .. } => self.strategy.name().to_string(),
            Strategy::SkewAwareStar => {
                format!("{} (centre `{}`)", self.strategy.name(), star_center(query))
            }
            Strategy::SkewAwareTriangle => {
                let [v1, v2, v3] = triangle_roles(query).expect("planned as a triangle");
                format!("{} ({v1} → x1, {v2} → x2, {v3} → x3)", self.strategy.name())
            }
            Strategy::MultiRound { rounds, .. } => {
                format!("{} ({rounds} rounds)", self.strategy.name())
            }
        };
        push(&mut out, "strategy", strategy);
        push(
            &mut out,
            "estimated load",
            format!("{:.0} bits/server", self.estimated_load_bits),
        );
        push(
            &mut out,
            "estimated output",
            format!("≤ {:.0} tuples (AGM)", self.estimated_output_tuples),
        );
        for note in &self.notes {
            push(&mut out, "note", note.clone());
        }
        out
    }
}

/// Why the planner could not produce a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The paper's algorithms need at least two servers.
    TooFewServers {
        /// The offending budget.
        p: usize,
    },
    /// A relation named by the query is not loaded.
    MissingRelation {
        /// The missing relation.
        relation: String,
        /// Names that *are* loaded, for the error message.
        available: Vec<String>,
    },
    /// A loaded relation's arity does not match the atom using it.
    ArityMismatch {
        /// The relation.
        relation: String,
        /// Columns in the loaded data.
        stored: usize,
        /// Variables in the query atom.
        expected: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::TooFewServers { p } => {
                write!(f, "cannot plan for p = {p} servers; need at least 2")
            }
            PlanError::MissingRelation {
                relation,
                available,
            } => {
                write!(
                    f,
                    "relation `{relation}` is not loaded (loaded: {})",
                    if available.is_empty() {
                        "none".to_string()
                    } else {
                        available.join(", ")
                    }
                )
            }
            PlanError::ArityMismatch {
                relation,
                stored,
                expected,
            } => write!(
                f,
                "relation `{relation}` has {stored} column(s) but the query uses it with \
                 {expected} variable(s)"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// Build a plan for the query over a bare database on `p` servers.
///
/// Computes a throwaway statistics catalogue first; callers that plan more
/// than once against the same data should build a [`Snapshot`] and use
/// [`plan_query_on`], which shares the single statistics pass across the
/// fingerprint, heavy-hitter detection and the selectivity estimator.
pub fn plan_query(parsed: &ParsedQuery, database: &Database, p: usize) -> Result<Plan, PlanError> {
    let statistics = DatabaseStatistics::compute(database);
    plan_with_statistics(parsed, database, &statistics, p)
}

/// Build a plan against an analysed [`Snapshot`] — the engine's path. All
/// statistics (fingerprint, degree maps, distinct counts) come from the
/// snapshot's catalogue, so no data is scanned here.
pub fn plan_query_on(parsed: &ParsedQuery, snapshot: &Snapshot, p: usize) -> Result<Plan, PlanError> {
    plan_with_statistics(parsed, snapshot.database(), snapshot.statistics(), p)
}

fn plan_with_statistics(
    parsed: &ParsedQuery,
    database: &Database,
    statistics: &DatabaseStatistics,
    p: usize,
) -> Result<Plan, PlanError> {
    let fingerprint = statistics.fingerprint;
    if p < 2 {
        return Err(PlanError::TooFewServers { p });
    }
    let query = &parsed.query;
    for atom in query.atoms() {
        match database.relation(atom.relation()) {
            None => {
                return Err(PlanError::MissingRelation {
                    relation: atom.relation().to_string(),
                    available: database.relation_names(),
                })
            }
            Some(stored) if stored.arity() != atom.arity() => {
                return Err(PlanError::ArityMismatch {
                    relation: atom.relation().to_string(),
                    stored: stored.arity(),
                    expected: atom.arity(),
                })
            }
            Some(_) => {}
        }
    }

    let sizes: BTreeMap<String, u64> = query
        .relation_names()
        .into_iter()
        .map(|r| {
            let bits = statistics.relation(&r).expect("validated above").size_bits;
            (r, bits)
        })
        .collect();
    let input_tuples: usize = query
        .relation_names()
        .iter()
        .map(|r| statistics.relation(r).expect("validated above").cardinality)
        .sum();

    // Share-exponent LP and its integerisation (the one-round candidate).
    let exponents = shares::optimal_share_exponents(query, &sizes, p);
    let integer = shares::integer_shares(&exponents, ShareRounding::GreedyFill);
    let one_round_load = exponents.upper_bound_load();
    let packing_lambda = packing_dual_lambda(query, &sizes, p);

    // Heavy hitters on every join variable, at the paper's m/p threshold,
    // read from the precomputed degree maps (no data scan).
    let mut heavy = Vec::new();
    for variable in query.variables() {
        if query.atoms_of(&variable).len() < 2 {
            continue;
        }
        if let Some(report) = heavy_report(query, database, statistics, &variable, p) {
            heavy.push(report);
        }
    }

    let estimated_output_tuples = agm_bound(query, &database.cardinalities());
    let max_relation_bits = sizes.values().copied().max().unwrap_or(0) as f64;
    let mut notes = Vec::new();

    // Skew routes to a specialised one-round algorithm when the shape has
    // one (Section 4.2); otherwise the skew is noted and the skew-free cost
    // model decides.
    let mut skew_aware = None;
    if !heavy.is_empty() {
        if triangle_roles(query).is_some() {
            notes.push(format!(
                "skew above m/{p} detected; splitting light/heavy tuples as in §4.2.2"
            ));
            let load = one_round_load.max(max_relation_bits / p as f64);
            skew_aware = Some((Strategy::SkewAwareTriangle, load));
        } else if let Some(center) = detect_star_center(query)
            .filter(|center| heavy.iter().any(|h| h.variable == *center))
        {
            notes.push(format!(
                "skew on centre `{center}` above m/{p}; residual joins get dedicated \
                 server blocks as in §4.2.1"
            ));
            skew_aware = Some((Strategy::SkewAwareStar, max_relation_bits / p as f64));
        } else {
            notes.push(
                "heavy hitters present but no specialised one-round algorithm for this \
                 shape; falling back to the skew-free cost model"
                    .to_string(),
            );
        }
    }

    // Multi-round candidate for skew-free plans of connected queries of at
    // least three atoms.
    let (mut strategy, mut estimated_load_bits) = skew_aware.unwrap_or_else(|| {
        let shares = integer.clone();
        (Strategy::HyperCube { shares }, one_round_load)
    });
    if matches!(strategy, Strategy::HyperCube { .. })
        && query.num_atoms() >= 3
        && Hypergraph::of(query).is_connected()
    {
        let plan_node = bushy_plan(query);
        if let Some(estimate) = estimate_multiround(&plan_node, query, database, statistics, p) {
            notes.push(format!(
                "multi-round candidate: {} rounds, estimated total {:.0} bits/server vs \
                 one-round {:.0}",
                estimate.rounds, estimate.cost_bits, one_round_load
            ));
            if estimate.cost_bits * MULTIROUND_ADVANTAGE < one_round_load {
                strategy = Strategy::MultiRound {
                    plan: plan_node,
                    rounds: estimate.rounds,
                };
                estimated_load_bits = estimate.cost_bits;
            }
        }
    }

    Ok(Plan {
        parsed: parsed.clone(),
        p,
        strategy,
        estimated_load_bits,
        exponents,
        shares: integer,
        packing_lambda,
        estimated_output_tuples,
        heavy,
        fingerprint,
        input_tuples,
        notes,
    })
}

/// Heavy-hitter report of one join variable: a summary of
/// [`heavy_hitters_of_variable`] at the paper's divisor `p`, so `explain`
/// counts exactly the values the skew-aware executors will split on. The
/// reported maximum ranges over every heavy value in every relation
/// binding the variable (a value heavy in one may be light in another).
fn heavy_report(
    query: &ConjunctiveQuery,
    database: &Database,
    statistics: &DatabaseStatistics,
    variable: &str,
    p: usize,
) -> Option<HeavyReport> {
    let hitters = heavy_hitters_of_variable(query, database, statistics, variable, p as f64);
    (!hitters.values.is_empty()).then(|| HeavyReport {
        variable: variable.to_string(),
        num_values: hitters.values.len(),
        max_frequency: hitters.max_frequency(),
    })
}

/// The size-weighted fractional edge-packing LP, solved directly with
/// `pq-lp`: maximise `Σ_j u_j (µ_j − 1/Σu)`… in its linearised form
/// `max Σ_j µ_j u_j − 1` over packings scaled to `Σ_i` constraints — i.e.
/// the LP dual of the share-exponent program of Eq. 10. Its optimum equals
/// the primal `λ` by strong duality, which gives the planner an independent
/// check (and the paper's lower-bound exponent) for the explain output.
fn packing_dual_lambda(
    query: &ConjunctiveQuery,
    sizes_bits: &BTreeMap<String, u64>,
    p: usize,
) -> f64 {
    let ln_p = (p as f64).ln();
    let mut lp = LinearProgram::new(Objective::Maximize);
    // Dual variables: u_j per atom (packing weights) and y ≥ 0 for the
    // Σ e_i ≤ 1 primal constraint.
    let u: Vec<_> = query
        .atoms()
        .iter()
        .map(|a| lp.add_variable(format!("u_{}", a.relation())))
        .collect();
    let y = lp.add_variable("y");
    for (j, atom) in query.atoms().iter().enumerate() {
        let m = sizes_bits.get(atom.relation()).copied().unwrap_or(1);
        let mu = ((m.max(p as u64)) as f64).ln() / ln_p;
        lp.set_objective_coefficient(u[j], mu);
    }
    lp.set_objective_coefficient(y, -1.0);
    // Dual constraint of each primal e_i: Σ_{j: x_i ∈ S_j} u_j ≤ y.
    for variable in query.variables() {
        let mut terms: Vec<_> = query
            .atoms()
            .iter()
            .enumerate()
            .filter(|(_, a)| a.contains(&variable))
            .map(|(j, _)| (u[j], 1.0))
            .collect();
        terms.push((y, -1.0));
        lp.add_constraint(terms, ConstraintOp::Le, 0.0);
    }
    // Dual constraint of the primal λ: Σ_j u_j = 1.
    lp.add_constraint(u.iter().map(|&v| (v, 1.0)).collect(), ConstraintOp::Eq, 1.0);
    lp.solve().map(|s| s.objective.max(0.0)).unwrap_or(0.0)
}

/// Detect a star query: at least two binary atoms, all sharing one centre
/// variable. Returns the centre.
///
/// The selection (including the tie-break when several variables occur in
/// every atom) is delegated to [`pq_core::skew::star::star_center`], the
/// same function the executor's algorithm uses — `explain` can never name
/// a different centre than the one the run partitions on.
pub(crate) fn detect_star_center(query: &ConjunctiveQuery) -> Option<String> {
    if query.num_atoms() < 2 {
        return None;
    }
    for atom in query.atoms() {
        if atom.arity() != 2 || atom.distinct_variables().len() != 2 {
            return None;
        }
    }
    query
        .variables()
        .iter()
        .any(|v| query.atoms().iter().all(|a| a.contains(v)))
        .then(|| star_center(query))
}

/// Order the atoms greedily by connectivity (never pull in a Cartesian
/// product while a connected atom is available), then pair consecutive
/// atoms into a bushy operator tree, exactly one leaf per atom.
pub(crate) fn bushy_plan(query: &ConjunctiveQuery) -> PlanNode {
    // Connectivity-greedy atom order.
    let mut remaining: Vec<usize> = (0..query.num_atoms()).collect();
    let mut order: Vec<usize> = vec![remaining.remove(0)];
    let mut vars: HashSet<String> = query.atoms()[order[0]]
        .distinct_variables()
        .into_iter()
        .collect();
    while !remaining.is_empty() {
        let next_pos = remaining
            .iter()
            .position(|&i| {
                query.atoms()[i]
                    .distinct_variables()
                    .iter()
                    .any(|v| vars.contains(v))
            })
            .unwrap_or(0);
        let i = remaining.remove(next_pos);
        vars.extend(query.atoms()[i].distinct_variables());
        order.push(i);
    }

    // View names must not collide with user relation names.
    let mut prefix = "__v".to_string();
    while query
        .relation_names()
        .iter()
        .any(|r| r.starts_with(&prefix))
    {
        prefix.push('_');
    }

    let mut level: Vec<PlanNode> = order
        .iter()
        .map(|&i| PlanNode::base(query.atoms()[i].relation()))
        .collect();
    let mut view = 0usize;
    while level.len() > 1 {
        let mut next = Vec::new();
        for chunk in level.chunks(2) {
            if chunk.len() == 1 {
                next.push(chunk[0].clone());
            } else {
                view += 1;
                next.push(PlanNode::join(format!("{prefix}{view}"), chunk.to_vec()));
            }
        }
        level = next;
    }
    level.pop().expect("non-empty plan")
}

/// Cost estimate of a multi-round plan.
pub(crate) struct MultiRoundEstimate {
    /// Number of communication rounds.
    pub rounds: usize,
    /// Estimated total communication: the sum over rounds of the largest
    /// per-operator load estimate, in bits.
    pub cost_bits: f64,
}

/// Cardinality/distinct-count estimate of one operator output.
struct NodeEstimate {
    cardinality: f64,
    bits: f64,
    variables: Vec<String>,
    distinct: BTreeMap<String, f64>,
}

/// Price a multi-round plan: a textbook estimator (join selectivity
/// `1 / max(d_A(v), d_B(v))` over shared variables from real distinct
/// counts, AGM-free) sizes every view, then each operator's load is its own
/// share LP on its server block. Returns `None` when a round has more
/// operators than servers.
pub(crate) fn estimate_multiround(
    plan: &PlanNode,
    query: &ConjunctiveQuery,
    database: &Database,
    statistics: &DatabaseStatistics,
    p: usize,
) -> Option<MultiRoundEstimate> {
    let bits_per_value = database.bits_per_value() as f64;

    // Base estimates from the statistics catalogue: cardinality and
    // per-variable distinct counts of every atom's relation (the distinct
    // count of a variable is that of the stored column it first binds,
    // exactly what the previous direct scan computed).
    let mut estimates: BTreeMap<String, NodeEstimate> = BTreeMap::new();
    for atom in query.atoms() {
        let stored = database.expect_relation(atom.relation());
        let stats = statistics
            .relation(atom.relation())
            .expect("validated by the planner");
        let variables = atom.distinct_variables();
        let mut distinct = BTreeMap::new();
        for v in &variables {
            let pos = atom
                .variables()
                .iter()
                .position(|w| w == v)
                .expect("variable occurs in its atom");
            let attribute = &stored.schema().attributes()[pos];
            let count = stats.degrees[attribute].distinct();
            distinct.insert(v.clone(), (count as f64).max(1.0));
        }
        let cardinality = stats.cardinality.max(1) as f64;
        estimates.insert(
            atom.relation().to_string(),
            NodeEstimate {
                cardinality,
                bits: cardinality * variables.len() as f64 * bits_per_value,
                variables,
                distinct,
            },
        );
    }

    // Bottom-up view estimates.
    fn estimate_node(
        node: &PlanNode,
        estimates: &mut BTreeMap<String, NodeEstimate>,
        bits_per_value: f64,
    ) {
        let PlanNode::Join { name, children } = node else {
            return;
        };
        for child in children {
            estimate_node(child, estimates, bits_per_value);
        }
        let mut cardinality = 1.0f64;
        let mut variables: Vec<String> = Vec::new();
        let mut distinct: BTreeMap<String, f64> = BTreeMap::new();
        for child in children {
            let est = &estimates[child.output_name()];
            let mut selectivity = 1.0f64;
            for (v, d) in &est.distinct {
                if let Some(acc_d) = distinct.get(v) {
                    selectivity /= acc_d.max(*d);
                }
            }
            cardinality = (cardinality * est.cardinality * selectivity).max(1.0);
            for v in &est.variables {
                if !variables.contains(v) {
                    variables.push(v.clone());
                }
            }
            for (v, d) in &est.distinct {
                let merged = distinct.get(v).map_or(*d, |acc| acc.min(*d));
                distinct.insert(v.clone(), merged);
            }
        }
        for d in distinct.values_mut() {
            *d = d.min(cardinality);
        }
        let bits = cardinality * variables.len() as f64 * bits_per_value;
        estimates.insert(
            name.clone(),
            NodeEstimate {
                cardinality,
                bits,
                variables,
                distinct,
            },
        );
    }
    estimate_node(plan, &mut estimates, bits_per_value);

    // Per-round loads: one share LP per operator on its block. The round
    // grouping reuses the executor's own `nodes_at_depth`, so the cost
    // model prices exactly the rounds `execute_plan` will run.
    let rounds = plan.depth();
    let mut cost_bits = 0.0f64;
    for depth in 1..=rounds {
        let nodes = pq_core::multiround::plan::nodes_at_depth(plan, depth);
        if nodes.is_empty() || nodes.len() > p {
            return None;
        }
        // Same block size as the executor (`p / #operators`, no rounding
        // up): with a single-server block the executor clamps every share
        // to 1 and the whole operator input lands on that server.
        let block = p / nodes.len();
        let mut round_max = 0.0f64;
        for node in nodes {
            let PlanNode::Join { name, children } = node else {
                unreachable!("nodes_at_depth returns joins only");
            };
            let mut atoms = Vec::new();
            let mut sizes = BTreeMap::new();
            for child in children {
                let est = &estimates[child.output_name()];
                atoms.push(pq_query::Atom::new(
                    child.output_name(),
                    est.variables.clone(),
                ));
                sizes.insert(
                    child.output_name().to_string(),
                    (est.bits.ceil() as u64).max(1),
                );
            }
            let node_load = if block < 2 {
                sizes.values().map(|&b| b as f64).sum::<f64>()
            } else {
                let induced = ConjunctiveQuery::new(name.clone(), atoms);
                shares::optimal_share_exponents(&induced, &sizes, block).upper_bound_load()
            };
            round_max = round_max.max(node_load);
        }
        cost_bits += round_max;
    }
    Some(MultiRoundEstimate { rounds, cost_bits })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use pq_relation::{DataGenerator, Relation, Schema, Tuple};

    fn matching_db(query: &ConjunctiveQuery, m: usize, seed: u64) -> Database {
        let domain = ((m as u64) * 64).max(1 << 12);
        let mut gen = DataGenerator::new(seed, domain);
        let specs: Vec<(Schema, usize)> = query
            .atoms()
            .iter()
            .map(|a| {
                let cols: Vec<String> = (0..a.arity()).map(|i| format!("c{i}")).collect();
                (Schema::new(a.relation(), cols), m)
            })
            .collect();
        gen.matching_database(&specs)
    }

    #[test]
    fn triangle_on_skew_free_data_picks_hypercube_with_lp_shares() {
        let parsed = parse_query("Q(a, b, c) :- R(a, b), S(b, c), T(c, a)").unwrap();
        let db = matching_db(&parsed.query, 500, 7);
        let plan = plan_query(&parsed, &db, 64).expect("plans");
        let Strategy::HyperCube { shares } = &plan.strategy else {
            panic!("expected HyperCube, got {}", plan.strategy.name());
        };
        // 64 = 4³ servers: every variable gets share 4 (τ* = 3/2).
        for v in parsed.query.variables() {
            assert_eq!(shares[&v], 4, "share of {v}");
        }
        assert!(plan.heavy.is_empty());
        // Primal λ equals the packing dual by strong duality.
        assert!(
            (plan.exponents.lambda - plan.packing_lambda).abs() < 1e-6,
            "primal {} vs dual {}",
            plan.exponents.lambda,
            plan.packing_lambda
        );
        let explain = plan.explain();
        assert!(explain.contains("one-round HyperCube"), "{explain}");
        assert!(explain.contains("estimated load"), "{explain}");
    }

    #[test]
    fn skewed_triangle_picks_the_skew_aware_algorithm() {
        let parsed = parse_query("Q(a, b, c) :- R(a, b), S(b, c), T(c, a)").unwrap();
        let mut db = matching_db(&parsed.query, 400, 11);
        // Plant a hub: value 0 of `a` participates in many R and T tuples.
        for i in 0..200u64 {
            db.relation_mut("R").unwrap().push(Tuple::from([0, 100_000 + i]));
            db.relation_mut("T").unwrap().push(Tuple::from([200_000 + i, 0]));
        }
        let plan = plan_query(&parsed, &db, 16).expect("plans");
        assert_eq!(plan.strategy, Strategy::SkewAwareTriangle);
        assert!(!plan.heavy.is_empty());
        let explain = plan.explain();
        assert!(
            explain.contains("skew-aware triangle (a → x1, b → x2, c → x3)"),
            "{explain}"
        );
    }

    #[test]
    fn skewed_star_picks_the_skew_aware_algorithm() {
        let parsed = parse_query("Q(z, x, y) :- R(z, x), S(z, y)").unwrap();
        let mut db = matching_db(&parsed.query, 400, 13);
        for i in 0..150u64 {
            db.relation_mut("R").unwrap().push(Tuple::from([7, 300_000 + i]));
            db.relation_mut("S").unwrap().push(Tuple::from([7, 400_000 + i]));
        }
        let plan = plan_query(&parsed, &db, 16).expect("plans");
        assert_eq!(plan.strategy, Strategy::SkewAwareStar);
        let explain = plan.explain();
        assert!(explain.contains("skew-aware star (centre `z`)"), "{explain}");
    }

    #[test]
    fn long_chain_on_many_servers_goes_multi_round() {
        let parsed =
            parse_query("Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)").unwrap();
        let db = matching_db(&parsed.query, 2_000, 17);
        let plan = plan_query(&parsed, &db, 64).expect("plans");
        let Strategy::MultiRound { rounds, plan: node } = &plan.strategy else {
            panic!("expected multi-round, got {}", plan.strategy.name());
        };
        assert_eq!(*rounds, 2);
        assert_eq!(node.base_relations().len(), 3);
        assert!(plan.explain().contains("multi-round"));
    }

    #[test]
    fn small_p_keeps_the_chain_one_round() {
        let parsed = parse_query("Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)").unwrap();
        let db = matching_db(&parsed.query, 2_000, 17);
        let plan = plan_query(&parsed, &db, 4).expect("plans");
        assert!(
            matches!(plan.strategy, Strategy::HyperCube { .. }),
            "got {}",
            plan.strategy.name()
        );
    }

    #[test]
    fn missing_relation_and_arity_mismatch_are_reported() {
        let parsed = parse_query("Q(x, y) :- R(x, y)").unwrap();
        let db = Database::new(16);
        let err = plan_query(&parsed, &db, 8).expect_err("missing");
        assert!(err.to_string().contains("not loaded"), "{err}");

        let mut db = Database::new(16);
        db.insert(Relation::from_rows(
            Schema::from_strs("R", &["a", "b", "c"]),
            vec![vec![1, 2, 3]],
        ));
        let err = plan_query(&parsed, &db, 8).expect_err("arity");
        assert!(err.to_string().contains("3 column(s)"), "{err}");

        let err = plan_query(&parsed, &db, 1).expect_err("p too small");
        assert!(err.to_string().contains("at least 2"), "{err}");
    }

    #[test]
    fn triangle_and_star_detection() {
        let triangle = parse_query("Q(x, y, z) :- A(x, y), B(y, z), C(z, x)").unwrap();
        assert!(triangle_roles(&triangle.query).is_some());
        assert!(detect_star_center(&triangle.query).is_none());

        let star = parse_query("Q(z, a, b, c) :- R(z, a), S(z, b), T(z, c)").unwrap();
        assert!(triangle_roles(&star.query).is_none());
        assert_eq!(detect_star_center(&star.query), Some("z".to_string()));

        let chain = parse_query("Q(a, b, c) :- R(a, b), S(b, c)").unwrap();
        assert!(triangle_roles(&chain.query).is_none());
        assert_eq!(detect_star_center(&chain.query), Some("b".to_string()));
    }

    #[test]
    fn bushy_plan_covers_every_atom_once_without_name_collisions() {
        let parsed = parse_query(
            "Q(a, b, c, d, e) :- __v1(a, b), R(b, c), S(c, d), T(d, e)",
        )
        .unwrap();
        let plan = bushy_plan(&parsed.query);
        let mut bases = plan.base_relations();
        bases.sort();
        assert_eq!(bases, vec!["R", "S", "T", "__v1"]);
        // Generated view names avoided the user's `__v1`.
        fn views(node: &PlanNode, out: &mut Vec<String>) {
            if let PlanNode::Join { name, children } = node {
                out.push(name.clone());
                for c in children {
                    views(c, out);
                }
            }
        }
        let mut names = Vec::new();
        views(&plan, &mut names);
        assert!(names.iter().all(|n| n.starts_with("__v_")), "{names:?}");
    }
}
