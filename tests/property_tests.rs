//! Property-based tests (proptest) on the core invariants:
//!
//! * HyperCube output always equals the sequential oracle, for random
//!   databases (matching or skewed) and random cluster sizes;
//! * the characteristic identities of Lemma 2.1 hold for random queries;
//! * packing-polytope vertices are always feasible packings and `L(u,M,p)`
//!   never exceeds `L_lower`;
//! * integer shares never exceed the server budget;
//! * multi-round plans compute the query, whatever the fan-in;
//! * worker-granular routing (`route_folded`) ships the per-worker set
//!   union of `route_bound`'s messages under the simulator's model account;
//! * `route_bound` (one shared fragment per destination subcube) delivers
//!   what a naive row-by-row `destinations()` router delivers;
//! * both HyperCube routers, whose classifiers are specialised by the
//!   number of grid dimensions a relation binds, deliver what Eq. 9
//!   computed from the hash functions themselves delivers, on relations
//!   binding 0 to 4 dimensions;
//! * the block join gives every server of a HyperCube grid the answer it
//!   would join alone — the very same rows in the same order wherever no
//!   fragment buffer is shared — at pool sizes 1, 2 and 8.

use proptest::prelude::*;
use std::collections::BTreeMap;

use pq_core::bounds::one_round::{load_for_packing, lower_bound_load};
use pq_core::multiround::plan::{bushy_chain_plan, execute_plan};
use pq_core::shares::{grid_size, integer_shares, optimal_share_exponents, ShareRounding};
use pq_core::{hypercube, skew};
use pq_query::{characteristic, evaluate_sequential, packing, Atom, ConjunctiveQuery};
use pq_relation::{
    natural_join_all, natural_join_block, DataGenerator, Database, Relation, Schema,
};

/// Build a database for a query with uniformly random relations of the given
/// cardinality (duplicates removed), over a domain that guarantees plenty of
/// accidental joins.
fn random_database(query: &ConjunctiveQuery, m: usize, domain: u64, seed: u64) -> Database {
    let mut gen = DataGenerator::new(seed, domain.max(4));
    let mut db = Database::new(domain.max(4));
    for atom in query.atoms() {
        let cols: Vec<String> = (0..atom.arity()).map(|i| format!("c{i}")).collect();
        let rel = gen.uniform_relation(Schema::new(atom.relation(), cols), m);
        db.insert(rel);
    }
    db
}

/// A random connected binary query over at most 5 variables: a random tree
/// plus a few extra edges. Atom names are unique so there are no self-joins.
fn arbitrary_connected_query() -> impl Strategy<Value = ConjunctiveQuery> {
    (2usize..6, proptest::collection::vec(any::<u32>(), 0..4), any::<u32>()).prop_map(
        |(k, extra_edges, tree_seed)| {
            let mut atoms = Vec::new();
            let mut counter = 0usize;
            // Random tree over variables x0..x{k-1}.
            for i in 1..k {
                let parent = (tree_seed as usize + i * 7) % i;
                counter += 1;
                atoms.push(Atom::new(
                    format!("R{counter}"),
                    vec![format!("x{parent}"), format!("x{i}")],
                ));
            }
            for e in extra_edges {
                let a = (e as usize) % k;
                let b = (e as usize / 7) % k;
                if a != b {
                    counter += 1;
                    atoms.push(Atom::new(
                        format!("R{counter}"),
                        vec![format!("x{a}"), format!("x{b}")],
                    ));
                }
            }
            if atoms.is_empty() {
                atoms.push(Atom::new("R1", vec!["x0".to_string(), "x1".to_string()]));
            }
            ConjunctiveQuery::new("rand", atoms)
        },
    )
}

/// [`arbitrary_connected_query`] (a tree, acyclic, or a tree with extra
/// edges, cyclic), plus — for `extra` of 1 or 2 — an atom over variables of
/// its own, which makes one join step a Cartesian product.
fn arbitrary_block_query() -> impl Strategy<Value = ConjunctiveQuery> {
    (arbitrary_connected_query(), 0usize..3).prop_map(|(query, extra)| {
        let mut atoms = query.atoms().to_vec();
        if extra > 0 {
            atoms.push(Atom::new(
                "D",
                (0..extra).map(|i| format!("y{i}")).collect(),
            ));
        }
        ConjunctiveQuery::new("rand", atoms)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The block join against each server joining alone, on HyperCube-routed
    // fragments: random acyclic, cyclic and Cartesian queries, random grids
    // (shares of 1 included) at a server offset, pool sizes 1, 2 and 8.
    // Every server's answer is the bag its own `natural_join_all` returns;
    // where no two servers hold one buffer, it is that very relation — same
    // schema, same rows, same order.
    #[test]
    fn block_join_equals_each_server_joining_alone(
        query in arbitrary_block_query(),
        share_seed in proptest::collection::vec(1usize..4, 7..8),
        server_offset in 0usize..4,
        m in 1usize..50,
        seed in 0u64..1000,
    ) {
        let db = random_database(&query, m, 30, seed);
        let shares: BTreeMap<String, usize> =
            query.variables().into_iter().zip(share_seed).collect();
        let router = hypercube::HyperCubeRouter::new(&query, &shares, seed, 0, server_offset);
        let mut cluster = pq_mpc::Cluster::new(server_offset + router.grid_size(), 8);
        cluster.communicate(router.route_bound(&pq_query::instantiate(&query, &db)));
        let fragments: Vec<Vec<&Relation>> = cluster
            .servers()
            .iter()
            .filter_map(|server| {
                query.atoms().iter().map(|a| server.fragment(a.relation())).collect()
            })
            .collect();
        let shared = fragments.iter().enumerate().any(|(s, inputs)| {
            fragments[..s].iter().any(|other| {
                inputs
                    .iter()
                    .zip(other)
                    .any(|(a, b)| !a.is_empty() && a.values().as_ptr() == b.values().as_ptr())
            })
        });
        let alone: Vec<Relation> = fragments.iter().map(|inputs| natural_join_all(inputs)).collect();
        let variables = query.variables();
        let sorted_bag = |joined: &Relation| {
            let mut rows = joined.project(&variables, "bag");
            rows.sort();
            rows
        };
        for threads in [1, 2, 8] {
            let block = pq_exec::TaskPool::new(threads)
                .install(|| natural_join_block(&fragments, |joined| joined));
            prop_assert_eq!(block.len(), fragments.len());
            for (joined, own) in block.iter().zip(&alone) {
                if shared {
                    prop_assert_eq!(sorted_bag(joined), sorted_bag(own));
                } else {
                    prop_assert_eq!(joined, own);
                }
            }
        }
    }

    #[test]
    fn hypercube_always_matches_oracle_on_random_data(
        seed in 0u64..1000,
        m in 50usize..300,
        p in 2usize..40,
        domain in 16u64..400,
    ) {
        let query = ConjunctiveQuery::triangle();
        let db = random_database(&query, m, domain, seed);
        let run = hypercube::run_hypercube(&query, &db, p, seed ^ 0xABCD);
        let oracle = evaluate_sequential(&query, &db);
        prop_assert_eq!(run.output.canonicalized(), oracle.canonicalized());
    }

    #[test]
    fn hypercube_matches_oracle_on_random_queries(
        query in arbitrary_connected_query(),
        seed in 0u64..1000,
        p in 2usize..30,
    ) {
        let db = random_database(&query, 80, 60, seed);
        let run = hypercube::run_hypercube(&query, &db, p, seed);
        let oracle = evaluate_sequential(&query, &db);
        prop_assert_eq!(run.output.canonicalized(), oracle.canonicalized());
    }

    // Worker-granular routing against the per-logical-server router it
    // folds: for random queries, shares, server offsets and worker counts,
    // every worker's fragment holds exactly the rows some message with
    // `to % workers == worker` carries — each as often as the input has it,
    // however many of the worker's logical servers want it — and the model
    // account is the one the simulator records for the unfolded messages.
    #[test]
    fn route_folded_is_the_per_worker_union_of_route_bound(
        query in arbitrary_connected_query(),
        share_seed in proptest::collection::vec(1usize..5, 6..7),
        server_offset in 0usize..5,
        workers in 1usize..8,
        bits_per_value in 1u64..40,
        seed in 0u64..1000,
    ) {
        let db = random_database(&query, 60, 40, seed);
        let mut bound = pq_query::instantiate(&query, &db);
        // Duplicate input rows must keep their multiplicity, not gain one.
        let first = bound[0].clone();
        bound[0].append(&first);
        let shares: BTreeMap<String, usize> = query
            .variables()
            .into_iter()
            .zip(share_seed)
            .collect();
        let router = hypercube::HyperCubeRouter::new(&query, &shares, seed, 0, server_offset);
        let p = server_offset + router.grid_size();
        let shipment = router.route_folded(&bound, p, workers, bits_per_value);
        let messages = router.route_bound(&bound);

        prop_assert_eq!(shipment.fragments.len(), workers);
        let count_rows = |relations: Vec<&Relation>| {
            let mut counts: BTreeMap<(String, Vec<u64>), usize> = BTreeMap::new();
            for relation in relations {
                for row in relation.iter() {
                    *counts.entry((relation.name().to_string(), row.to_vec())).or_default() += 1;
                }
            }
            counts
        };
        let input = count_rows(bound.iter().collect());
        for (worker, fragments) in shipment.fragments.iter().enumerate() {
            let names: Vec<&str> = fragments.iter().map(Relation::name).collect();
            let mut distinct = names.clone();
            distinct.dedup();
            prop_assert!(names.len() == distinct.len(), "one fragment per (worker, relation)");
            prop_assert!(fragments.iter().all(|f| !f.is_empty()));
            let folded = count_rows(fragments.iter().collect());
            let unfolded = count_rows(
                messages
                    .iter()
                    .filter(|m| m.to % workers == worker)
                    .map(|m| match &m.payload {
                        pq_mpc::Payload::Tuples(relation) => relation,
                        pq_mpc::Payload::Raw { .. } => unreachable!("routers ship tuples"),
                    })
                    .collect(),
            );
            prop_assert!(
                folded.keys().eq(unfolded.keys()),
                "worker {worker} of {workers} holds {:?}, the messages carry {:?}",
                folded.keys(),
                unfolded.keys()
            );
            for (row, &copies) in &folded {
                prop_assert!(
                    copies == input[row],
                    "row {row:?} is {copies} times on worker {worker}, {} times in the input",
                    input[row]
                );
            }
        }

        let mut cluster = pq_mpc::Cluster::new(p, bits_per_value);
        let stats = cluster.communicate(messages);
        prop_assert_eq!(&shipment.received_bits, &stats.received_bits);
        prop_assert_eq!(shipment.messages, stats.messages);
    }

    // The scatter-kernel router against the definition of Eq. 9 applied one
    // row at a time: the same servers get the same rows in input order and
    // the simulator charges the same account, at pool sizes 1 and 4, with
    // share-1 dimensions, shifted server blocks, unary atoms, empty and
    // morsel-sized relations; folding that round onto any worker count
    // charges it identically.
    #[test]
    fn route_bound_delivers_what_row_by_row_destinations_deliver(
        query in arbitrary_connected_query(),
        unary_on in proptest::collection::vec(0usize..6, 0..3),
        sizes in proptest::collection::vec(0usize..4, 9..10),
        share_seed in proptest::collection::vec(1usize..5, 6..7),
        server_offset in 1usize..6,
        bits_per_value in 1u64..40,
        seed in 0u64..1000,
    ) {
        let variables = query.variables();
        let mut atoms: Vec<Atom> = query.atoms().to_vec();
        for (i, v) in unary_on.iter().enumerate() {
            atoms.push(Atom::new(format!("U{i}"), vec![variables[v % variables.len()].clone()]));
        }
        let query = ConjunctiveQuery::new("rand", atoms);
        // Per atom: empty, a handful of rows, or enough for several morsels.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next_value = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 64
        };
        let mut db = Database::new(64);
        for (atom, size) in query.atoms().iter().zip(&sizes) {
            let m = [0, 7, 60, 2 * pq_relation::MORSEL_ROWS + 31][*size];
            let cols: Vec<String> = (0..atom.arity()).map(|i| format!("c{i}")).collect();
            // Uniform draws repeat rows: multiplicities must survive too.
            let rows = (0..m).map(|_| (0..atom.arity()).map(|_| next_value()).collect());
            db.insert(Relation::from_rows(Schema::new(atom.relation(), cols), rows.collect()));
        }
        let bound = pq_query::instantiate(&query, &db);
        let shares: BTreeMap<String, usize> = variables.iter().cloned().zip(share_seed).collect();
        let router = hypercube::HyperCubeRouter::new(&query, &shares, seed, 0, server_offset);
        let p = server_offset + router.grid_size();

        let mut naive: BTreeMap<(usize, String), Vec<Vec<u64>>> = BTreeMap::new();
        for relation in &bound {
            for row in relation.iter() {
                for server in router.destinations(relation.schema().attributes(), row) {
                    let key = (server, relation.name().to_string());
                    naive.entry(key).or_default().push(row.to_vec());
                }
            }
        }
        let reference: Vec<pq_mpc::Message> = naive
            .iter()
            .map(|((server, name), rows)| {
                let schema = bound.iter().find(|r| r.name() == name).unwrap().schema().clone();
                pq_mpc::Message::tuples(*server, Relation::from_rows(schema, rows.clone()))
            })
            .collect();
        let mut simulator = pq_mpc::Cluster::new(p, bits_per_value);
        let expected = simulator.communicate(reference).clone();

        for threads in [1, 4] {
            let messages = pq_exec::TaskPool::new(threads).install(|| router.route_bound(&bound));
            let mut routed: BTreeMap<(usize, String), Vec<Vec<u64>>> = BTreeMap::new();
            for message in &messages {
                let pq_mpc::Payload::Tuples(fragment) = &message.payload else {
                    unreachable!("routers ship tuples")
                };
                let rows = fragment.iter().map(<[u64]>::to_vec).collect();
                let twice = routed.insert((message.to, fragment.name().to_string()), rows);
                prop_assert!(twice.is_none(), "one fragment per (server, relation)");
            }
            prop_assert!(routed == naive, "pool size {threads}");
            let mut cluster = pq_mpc::Cluster::new(p, bits_per_value);
            let stats = cluster.communicate(messages);
            prop_assert_eq!(&stats.received_bits, &expected.received_bits);
            prop_assert_eq!(stats.messages, expected.messages);
        }
        for workers in [1, 2, 3, p] {
            let shipment = router.route_folded(&bound, p, workers, bits_per_value);
            prop_assert_eq!(&shipment.received_bits, &expected.received_bits);
            prop_assert_eq!(shipment.messages, expected.messages);
        }
    }

    // Both routers against Eq. 9 evaluated straight from the hash family,
    // one row at a time, sharing no code with the routers' compiled route
    // plans: random grids over 1–5 variables (shares of 1 included) at a
    // positive server offset, relations binding 0 to 4 of the dimensions
    // in any column order beside columns the grid does not know, so every
    // specialised classifier and the general one run. `route_bound`
    // delivers the reference's rows in input order at pool sizes 1, 2 and
    // 8; `route_folded` ships every worker exactly what `Shipment::from_messages`
    // makes of `route_bound`'s messages; both keep the simulator's account.
    #[test]
    fn routers_deliver_what_eq9_from_the_hashers_delivers(
        k in 1usize..6,
        share_seed in proptest::collection::vec(1usize..5, 5..6),
        layout in proptest::collection::vec(0usize..1000, 4..5),
        sizes in proptest::collection::vec(0usize..4, 4..5),
        server_offset in 1usize..6,
        bits_per_value in 1u64..40,
        seed in 0u64..1000,
    ) {
        use pq_relation::{BucketHasher, HashFamily, MultiplyShiftHash};
        let variables: Vec<String> = (0..k).map(|d| format!("x{d}")).collect();
        let query = ConjunctiveQuery::new("grid", vec![Atom::new("Q", variables.clone())]);
        let shares: Vec<usize> = share_seed[..k].to_vec();
        let share_map: BTreeMap<String, usize> = variables.iter().cloned().zip(shares.clone()).collect();
        let router = hypercube::HyperCubeRouter::new(&query, &share_map, seed, 0, server_offset);
        let grid: usize = shares.iter().product();
        let p = server_offset + grid;
        let family = MultiplyShiftHash::new(seed);
        let hashers: Vec<_> = (0..k).map(|d| family.hasher(d, shares[d])).collect();
        let stride = |d: usize| shares[d + 1..].iter().product::<usize>();

        // Relation j binds `binds` of the dimensions, in a rotated order,
        // with `extras` columns outside the grid interleaved.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut bound = Vec::new();
        for (j, (&shape, &size)) in layout.iter().zip(&sizes).enumerate() {
            let binds = (shape % 5).min(k);
            let extras = (shape / 5) % 3;
            let mut attributes: Vec<String> =
                (0..binds).map(|i| variables[(i + shape / 15) % k].clone()).collect();
            for e in 0..extras {
                attributes.insert((shape / 45 + e) % (attributes.len() + 1), format!("e{e}"));
            }
            let m = [0, 9, 70, 2 * pq_relation::MORSEL_ROWS + 31][size];
            let arity = attributes.len();
            let mut relation = Relation::empty(Schema::new(format!("S{j}"), attributes));
            for _ in 0..m {
                let row: Vec<u64> = (0..arity).map(|_| next() % 50).collect();
                relation.push_row(&row);
            }
            // Distinct rows: a worker's set union then has every row once.
            relation.dedup();
            bound.push(relation);
        }

        let mut reference: BTreeMap<(usize, String), Vec<Vec<u64>>> = BTreeMap::new();
        for relation in &bound {
            let pins: Vec<(usize, usize)> = relation
                .schema()
                .attributes()
                .iter()
                .enumerate()
                .filter_map(|(pos, a)| variables.iter().position(|v| v == a).map(|d| (d, pos)))
                .collect();
            // The grid points agreeing with each combination of buckets.
            let mut subcubes: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
            for row in relation.iter() {
                let buckets: Vec<usize> =
                    pins.iter().map(|&(d, pos)| hashers[d].bucket(row[pos])).collect();
                let points = subcubes.entry(buckets.clone()).or_insert_with(|| {
                    (0..grid)
                        .filter(|point| {
                            pins.iter()
                                .zip(&buckets)
                                .all(|(&(d, _), &b)| (point / stride(d)) % shares[d] == b)
                        })
                        .collect()
                });
                for &point in points.iter() {
                    let key = (server_offset + point, relation.name().to_string());
                    reference.entry(key).or_default().push(row.to_vec());
                }
            }
        }
        let reference_messages: Vec<pq_mpc::Message> = reference
            .iter()
            .map(|((server, name), rows)| {
                let schema = bound.iter().find(|r| r.name() == name).unwrap().schema().clone();
                pq_mpc::Message::tuples(*server, Relation::from_rows(schema, rows.clone()))
            })
            .collect();
        let expected = pq_mpc::Cluster::new(p, bits_per_value)
            .communicate(reference_messages)
            .clone();

        let mut messages = Vec::new();
        for threads in [1, 2, 8] {
            messages = pq_exec::TaskPool::new(threads).install(|| router.route_bound(&bound));
            let mut routed: BTreeMap<(usize, String), Vec<Vec<u64>>> = BTreeMap::new();
            for message in &messages {
                let pq_mpc::Payload::Tuples(fragment) = &message.payload else {
                    unreachable!("routers ship tuples")
                };
                let rows = fragment.iter().map(<[u64]>::to_vec).collect();
                let twice = routed.insert((message.to, fragment.name().to_string()), rows);
                prop_assert!(twice.is_none(), "one fragment per (server, relation)");
            }
            prop_assert!(routed == reference, "pool size {threads}");
            let stats = pq_mpc::Cluster::new(p, bits_per_value).communicate(messages.clone()).clone();
            prop_assert_eq!(&stats.received_bits, &expected.received_bits);
            prop_assert_eq!(stats.messages, expected.messages);
        }

        let sorted_rows = |fragments: &[Relation]| {
            let mut rows: Vec<(String, Vec<u64>)> = fragments
                .iter()
                .flat_map(|f| f.iter().map(|row| (f.name().to_string(), row.to_vec())))
                .collect();
            rows.sort();
            rows
        };
        for workers in [1, 2, 3, 5] {
            let folded = pq_exec::TaskPool::new(2)
                .install(|| router.route_folded(&bound, p, workers, bits_per_value));
            let unfolded =
                pq_mpc::net::Shipment::from_messages(messages.clone(), p, workers, bits_per_value);
            prop_assert_eq!(&folded.received_bits, &expected.received_bits);
            prop_assert_eq!(folded.messages, expected.messages);
            for worker in 0..workers {
                prop_assert!(
                    sorted_rows(&folded.fragments[worker]) == sorted_rows(&unfolded.fragments[worker]),
                    "worker {worker} of {workers}"
                );
            }
        }
    }

    #[test]
    fn characteristic_is_nonnegative_and_contraction_identity_holds(
        query in arbitrary_connected_query(),
        mask in any::<u32>(),
    ) {
        let chi = characteristic::characteristic(&query);
        prop_assert!(chi >= 0, "chi must be non-negative");
        // Lemma 2.1(d): contraction never increases the characteristic.
        let l = query.num_atoms();
        let m: Vec<usize> = (0..l).filter(|i| mask & (1 << (i % 32)) != 0).collect();
        if !m.is_empty() && m.len() < l {
            let contracted = characteristic::contract(&query, &m);
            let chi_contracted = characteristic::characteristic(&contracted);
            prop_assert!(chi >= chi_contracted, "Lemma 2.1(d) violated");
            // Lemma 2.1(b): chi(q/M) = chi(q) - chi(M).
            let chi_m = characteristic::characteristic_of_atoms(&query, &m);
            prop_assert_eq!(chi_contracted, chi - chi_m);
        }
    }

    #[test]
    fn packing_vertices_are_feasible_and_bounded_by_lower_bound(
        query in arbitrary_connected_query(),
        p in 2usize..200,
    ) {
        let sizes: BTreeMap<String, u64> = query
            .relation_names()
            .into_iter()
            .map(|r| (r, 1u64 << 20))
            .collect();
        let size_vec: Vec<f64> = query.atoms().iter().map(|_| (1u64 << 20) as f64).collect();
        let lower = lower_bound_load(&query, &sizes, p);
        for u in packing::fractional_edge_packing_vertices(&query) {
            prop_assert!(packing::is_edge_packing(&query, &u, 1e-6));
            let load = load_for_packing(&u, &size_vec, p);
            prop_assert!(load <= lower * (1.0 + 1e-6));
        }
    }

    #[test]
    fn integer_shares_respect_the_server_budget(
        query in arbitrary_connected_query(),
        p in 2usize..500,
    ) {
        let sizes: BTreeMap<String, u64> = query
            .relation_names()
            .into_iter()
            .map(|r| (r, 1u64 << 22))
            .collect();
        let exps = optimal_share_exponents(&query, &sizes, p);
        for strategy in [ShareRounding::Floor, ShareRounding::GreedyFill] {
            let shares = integer_shares(&exps, strategy);
            prop_assert!(grid_size(&shares) <= p);
            prop_assert!(shares.values().all(|&s| s >= 1));
        }
    }

    #[test]
    fn bushy_plans_compute_chains_for_any_fan_in(
        k in 2usize..10,
        fan_in in 2usize..5,
        seed in 0u64..100,
    ) {
        let query = ConjunctiveQuery::chain(k);
        let db = random_database(&query, 60, 40, seed);
        let plan = bushy_chain_plan(k, fan_in);
        let run = execute_plan(&plan, &query, &db, 16, seed);
        let oracle = evaluate_sequential(&query, &db);
        prop_assert_eq!(run.output.canonicalized(), oracle.canonicalized());
    }

    #[test]
    fn skew_aware_star_matches_oracle_on_random_skew(
        m in 100usize..400,
        heavy in 0usize..200,
        p in 2usize..32,
        seed in 0u64..1000,
    ) {
        let heavy = heavy.min(m);
        let query = ConjunctiveQuery::simple_join();
        // Random data plus a planted heavy hitter.
        let mut db = random_database(&query, m, 500, seed);
        for name in ["S1", "S2"] {
            let rel = db.relation_mut(name).expect("exists");
            for i in 0..heavy as u64 {
                rel.push(pq_relation::Tuple::from([0, 1000 + i]));
            }
        }
        let run = skew::star::run_star_skew_aware(&query, &db, p, seed);
        let oracle = evaluate_sequential(&query, &db);
        prop_assert_eq!(run.output.canonicalized(), oracle.canonicalized());
    }

    #[test]
    fn relation_algebra_invariants(
        rows in proptest::collection::vec((0u64..50, 0u64..50), 0..200),
    ) {
        let rel = Relation::from_rows(
            Schema::from_strs("R", &["x", "y"]),
            rows.iter().map(|&(a, b)| vec![a, b]).collect(),
        );
        let other = Relation::from_rows(
            Schema::from_strs("S", &["y", "z"]),
            rows.iter().map(|&(a, b)| vec![b, a]).collect(),
        );
        // Semijoin + antijoin partition the relation.
        let semi = rel.semijoin(&other);
        let anti = rel.antijoin(&other);
        prop_assert_eq!(semi.len() + anti.len(), rel.len());
        // Join output size equals the sum over keys of the degree products.
        let join = pq_relation::natural_join(&rel, &other);
        let d_rel = rel.degree_map(&["y".to_string()]);
        let d_other = other.degree_map(&["y".to_string()]);
        let expected: usize = d_rel
            .iter()
            .map(|(k, c)| c * d_other.get(k).copied().unwrap_or(0))
            .sum();
        prop_assert_eq!(join.len(), expected);
    }
}
