//! Binding atoms to relation instances and sequential evaluation.
//!
//! The database stores relations under the atom's relation name, with
//! positional columns. Binding renames the columns to the atom's variables
//! (handling repeated variables by an equality selection), after which the
//! conjunctive query is exactly the natural join of the bound relations,
//! projected onto the head variables. Sequential evaluation on a single
//! server is the correctness oracle every distributed algorithm is compared
//! against.

use crate::atom::Atom;
use crate::query::ConjunctiveQuery;
use pq_relation::{natural_join_block, Database, Relation, Schema};
use std::borrow::Borrow;

/// Bind a stored relation to an atom: the result has one column per
/// *distinct* variable of the atom, named after the variables.
///
/// Repeated variables in the atom (e.g. `S(x, x)`) induce an equality
/// selection on the corresponding positions before projection.
///
/// # Panics
/// Panics when the stored relation's arity differs from the atom's arity.
pub fn bind_atom(atom: &Atom, stored: &Relation) -> Relation {
    assert_eq!(
        stored.arity(),
        atom.arity(),
        "relation `{}` has arity {}, but atom `{}` expects {}",
        stored.name(),
        stored.arity(),
        atom,
        atom.arity()
    );
    let distinct = atom.distinct_variables();
    let schema = Schema::new(atom.relation(), distinct.clone());
    if distinct.len() == atom.arity() {
        // No repeated variables: binding is a pure column rename over the
        // stored relation's own (shared, copy-on-write) row buffer.
        return stored.with_schema(schema);
    }
    // Position of the first occurrence of each distinct variable, and the
    // equality checks repeated variables induce — both resolved once, before
    // the scan.
    let first_positions: Vec<usize> = distinct
        .iter()
        .map(|v| {
            atom.variables()
                .iter()
                .position(|w| w == v)
                .expect("distinct variable occurs in atom")
        })
        .collect();
    let equality_checks: Vec<(usize, usize)> = atom
        .variables()
        .iter()
        .enumerate()
        .filter_map(|(i, v)| {
            let first = atom.variables().iter().position(|w| w == v).expect("occurs");
            (first != i).then_some((i, first))
        })
        .collect();
    let mut values = Vec::new();
    let mut rows = 0usize;
    for row in stored.iter() {
        if equality_checks.iter().all(|&(i, first)| row[i] == row[first]) {
            values.extend(first_positions.iter().map(|&p| row[p]));
            rows += 1;
        }
    }
    Relation::from_values(schema, rows, values)
}

/// Bind every atom of the query to its relation in the database, in atom
/// order.
///
/// # Panics
/// Panics when a relation named in the query is missing from the database
/// or has the wrong arity.
pub fn instantiate(query: &ConjunctiveQuery, database: &Database) -> Vec<Relation> {
    query
        .atoms()
        .iter()
        .map(|atom| bind_atom(atom, database.expect_relation(atom.relation())))
        .collect()
}

/// Evaluate the query sequentially (single server): the natural join of all
/// bound atoms projected onto the query's variables, with set semantics.
/// The output relation is named after the query and has one column per
/// query variable, in [`ConjunctiveQuery::variables`] order.
pub fn evaluate_sequential(query: &ConjunctiveQuery, database: &Database) -> Relation {
    let bound = instantiate(query, database);
    evaluate_bound(query, &bound)
}

/// Evaluate the query over already-bound relations (one per atom, schema
/// attributes named by query variables). Exposed so distributed algorithms
/// can reuse the same local-evaluation code on whatever fragments a server
/// received — by reference (`&[&Relation]`) when the fragments are stored
/// elsewhere. This is [`evaluate_block`] on one server.
pub fn evaluate_bound<R: Borrow<Relation>>(query: &ConjunctiveQuery, bound: &[R]) -> Relation {
    let inputs: Vec<&Relation> = bound.iter().map(Borrow::borrow).collect();
    evaluate_block(query, &[inputs])
        .pop()
        .expect("one server, one answer")
}

/// Evaluate the query at every server of a block, each over its own bound
/// fragments (`servers[s]`, one per atom in atom order): one
/// [`natural_join_block`], so fragment buffers the servers share are
/// indexed once, then each server's answer projected onto the query's
/// variables with set semantics, as [`evaluate_bound`] would return it —
/// a set even where the fragments are bags. A round of servers needs the
/// set union of these answers only: `pq_core`'s simulator projects without
/// deduplicating and enforces set semantics once, at the round's merge
/// ([`Relation::union_distinct`]).
pub fn evaluate_block(query: &ConjunctiveQuery, servers: &[Vec<&Relation>]) -> Vec<Relation> {
    let head = query.variables();
    natural_join_block(servers, |joined| {
        let mut out = joined.project(&head, query.name());
        out.dedup();
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::{DataGenerator, Tuple};

    fn triangle_db() -> Database {
        let mut db = Database::new(100);
        db.insert(Relation::from_rows(
            Schema::from_strs("S1", &["a", "b"]),
            vec![vec![1, 2], vec![4, 5], vec![7, 8]],
        ));
        db.insert(Relation::from_rows(
            Schema::from_strs("S2", &["a", "b"]),
            vec![vec![2, 3], vec![5, 6], vec![8, 9]],
        ));
        db.insert(Relation::from_rows(
            Schema::from_strs("S3", &["a", "b"]),
            vec![vec![3, 1], vec![6, 4], vec![9, 70]],
        ));
        db
    }

    #[test]
    fn binding_renames_columns_to_variables() {
        let atom = Atom::from_strs("S1", &["x", "y"]);
        let stored = Relation::from_rows(
            Schema::from_strs("S1", &["col0", "col1"]),
            vec![vec![1, 2]],
        );
        let bound = bind_atom(&atom, &stored);
        assert_eq!(
            bound.schema().attributes(),
            &["x".to_string(), "y".to_string()]
        );
        assert_eq!(bound.row(0), &[1, 2]);
    }

    #[test]
    fn binding_with_repeated_variable_selects_diagonal() {
        let atom = Atom::from_strs("S", &["x", "x"]);
        let stored = Relation::from_rows(
            Schema::from_strs("S", &["a", "b"]),
            vec![vec![1, 1], vec![2, 3], vec![4, 4]],
        );
        let bound = bind_atom(&atom, &stored);
        assert_eq!(bound.arity(), 1);
        assert_eq!(bound.len(), 2);
        let c = bound.canonicalized();
        assert_eq!(c.to_tuples(), vec![Tuple::from([1]), Tuple::from([4])]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn binding_with_wrong_arity_panics() {
        let atom = Atom::from_strs("S", &["x", "y", "z"]);
        let stored = Relation::from_rows(Schema::from_strs("S", &["a", "b"]), vec![vec![1, 2]]);
        bind_atom(&atom, &stored);
    }

    #[test]
    fn triangle_query_finds_both_triangles() {
        let db = triangle_db();
        let out = evaluate_sequential(&ConjunctiveQuery::triangle(), &db);
        let out = out.canonicalized();
        assert_eq!(out.len(), 2);
        assert_eq!(
            out.to_tuples(),
            vec![Tuple::from([1, 2, 3]), Tuple::from([4, 5, 6])]
        );
        assert_eq!(
            out.schema().attributes(),
            &["x1".to_string(), "x2".to_string(), "x3".to_string()]
        );
    }

    #[test]
    fn chain_query_on_matching_database() {
        // Identity matchings: L3 answer has exactly m tuples.
        let mut db = Database::new(1000);
        for j in 1..=3 {
            db.insert(Relation::from_rows(
                Schema::from_strs(&format!("S{j}"), &["a", "b"]),
                (0..50).map(|i| vec![i, i]).collect(),
            ));
        }
        let out = evaluate_sequential(&ConjunctiveQuery::chain(3), &db);
        assert_eq!(out.len(), 50);
        assert_eq!(out.arity(), 4);
    }

    #[test]
    fn star_query_groups_on_shared_variable() {
        let mut db = Database::new(1000);
        db.insert(Relation::from_rows(
            Schema::from_strs("S1", &["a", "b"]),
            vec![vec![1, 10], vec![1, 11], vec![2, 20]],
        ));
        db.insert(Relation::from_rows(
            Schema::from_strs("S2", &["a", "b"]),
            vec![vec![1, 100], vec![2, 200]],
        ));
        let out = evaluate_sequential(&ConjunctiveQuery::star(2), &db);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn random_matching_database_answer_count_is_plausible() {
        // On random matchings over a huge domain, the expected number of
        // chain-query answers is tiny; just confirm evaluation runs and
        // output arity is right.
        let mut gen = DataGenerator::new(3, 1 << 20);
        let q = ConjunctiveQuery::chain(2);
        let db = gen.matching_database(&[
            (Schema::from_strs("S1", &["a", "b"]), 1000),
            (Schema::from_strs("S2", &["a", "b"]), 1000),
        ]);
        let out = evaluate_sequential(&q, &db);
        assert_eq!(out.arity(), 3);
        assert!(out.len() <= 1000);
    }

    #[test]
    fn empty_relation_gives_empty_answer() {
        let mut db = triangle_db();
        db.insert(Relation::empty(Schema::from_strs("S2", &["a", "b"])));
        let out = evaluate_sequential(&ConjunctiveQuery::triangle(), &db);
        assert!(out.is_empty());
        assert_eq!(out.arity(), 3);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn missing_relation_panics() {
        let db = Database::new(10);
        evaluate_sequential(&ConjunctiveQuery::triangle(), &db);
    }
}
