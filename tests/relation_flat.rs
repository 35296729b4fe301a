//! Oracle equivalence for the flat-storage relation layer: `natural_join`,
//! `natural_join_all` and `project` over the row-major flat buffers must be **set-equal** to naive tuple-at-a-time
//! reference implementations (the pre-refactor semantics) on random
//! databases, plus deterministic edge cases — nullary relations, empty
//! relations, arity 1, and duplicate rows ahead of `dedup`.

use pq_relation::{natural_join, natural_join_all, project, Relation, Schema, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Rows of a relation as an order-insensitive multiset-collapsed set,
/// keyed per attribute name so relations with different column orders
/// compare structurally.
fn row_set(rel: &Relation) -> BTreeSet<BTreeMap<String, Value>> {
    let attrs = rel.schema().attributes();
    rel.iter()
        .map(|row| {
            attrs
                .iter()
                .cloned()
                .zip(row.iter().copied())
                .collect::<BTreeMap<_, _>>()
        })
        .collect()
}

/// Reference natural join: nested loops over owned tuples, no hashing.
fn oracle_join(left: &Relation, right: &Relation) -> BTreeSet<BTreeMap<String, Value>> {
    let lattrs = left.schema().attributes();
    let rattrs = right.schema().attributes();
    let mut out = BTreeSet::new();
    for lrow in left.iter() {
        let lmap: BTreeMap<String, Value> =
            lattrs.iter().cloned().zip(lrow.iter().copied()).collect();
        'rows: for rrow in right.iter() {
            let mut merged = lmap.clone();
            for (a, &v) in rattrs.iter().zip(rrow.iter()) {
                match merged.get(a) {
                    Some(&existing) if existing != v => continue 'rows,
                    _ => {
                        merged.insert(a.clone(), v);
                    }
                }
            }
            out.insert(merged);
        }
    }
    out
}

/// Reference multiway join: left fold of [`oracle_join`] in input order
/// (set semantics makes the order irrelevant).
fn oracle_join_all(relations: &[Relation]) -> BTreeSet<BTreeMap<String, Value>> {
    let Some((first, rest)) = relations.split_first() else {
        return BTreeSet::new();
    };
    let mut acc = row_set(first);
    for rel in rest {
        let rattrs = rel.schema().attributes();
        let mut next = BTreeSet::new();
        for lmap in &acc {
            'rows: for rrow in rel.iter() {
                let mut merged = lmap.clone();
                for (a, &v) in rattrs.iter().zip(rrow.iter()) {
                    match merged.get(a) {
                        Some(&existing) if existing != v => continue 'rows,
                        _ => {
                            merged.insert(a.clone(), v);
                        }
                    }
                }
                next.insert(merged);
            }
        }
        acc = next;
    }
    acc
}

/// A tiny deterministic generator (xorshift64*) so random databases derive
/// from one proptest-chosen seed.
struct Xs(u64);

impl Xs {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, span: u64) -> u64 {
        self.next() % span.max(1)
    }
}

/// A random relation over a shared attribute pool: arity 0..=3, up to 24
/// rows over a small domain (plenty of join hits and duplicates).
fn random_relation(rng: &mut Xs, name: &str) -> Relation {
    const POOL: [&str; 4] = ["a", "b", "c", "d"];
    let arity = rng.below(4) as usize;
    let mut attrs: Vec<String> = Vec::new();
    let mut start = rng.below(4) as usize;
    while attrs.len() < arity {
        attrs.push(POOL[start % POOL.len()].to_string());
        start += 1;
    }
    let rows = rng.below(25) as usize;
    let mut rel = Relation::empty(Schema::new(name, attrs));
    let mut row = Vec::with_capacity(arity);
    for _ in 0..rows {
        row.clear();
        row.extend((0..arity).map(|_| rng.below(6)));
        rel.push_row(&row);
    }
    rel
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn natural_join_matches_tuple_oracle(seed in 0u64..1_000_000) {
        let mut rng = Xs(seed);
        let left = random_relation(&mut rng, "L");
        let right = random_relation(&mut rng, "R");
        let joined = natural_join(&left, &right);
        // Schema: left attributes then the right extras, exactly.
        let mut expected_attrs = left.schema().attributes().to_vec();
        for a in right.schema().attributes() {
            if left.schema().position(a).is_none() {
                expected_attrs.push(a.clone());
            }
        }
        prop_assert_eq!(joined.schema().attributes(), &expected_attrs[..]);
        prop_assert_eq!(row_set(&joined), oracle_join(&left, &right));
    }

    #[test]
    fn natural_join_all_matches_tuple_oracle(seed in 0u64..1_000_000, k in 1usize..5) {
        let mut rng = Xs(seed);
        let rels: Vec<Relation> = (0..k)
            .map(|i| random_relation(&mut rng, &format!("R{i}")))
            .collect();
        let joined = natural_join_all(&rels);
        prop_assert_eq!(row_set(&joined), oracle_join_all(&rels));
    }

    #[test]
    fn project_matches_tuple_oracle(seed in 0u64..1_000_000) {
        let mut rng = Xs(seed);
        let rel = random_relation(&mut rng, "R");
        let keep = rng.below(rel.arity() as u64 + 1) as usize;
        let attrs: Vec<String> = rel.schema().attributes()[..keep].to_vec();
        let projected = project(&rel, &attrs, "P");
        // Set semantics: the distinct projections of every row.
        let expected: BTreeSet<Vec<Value>> = rel
            .iter()
            .map(|row| attrs.iter().map(|a| row[rel.schema().position(a).unwrap()]).collect())
            .collect();
        let got: BTreeSet<Vec<Value>> = projected.iter().map(|r| r.to_vec()).collect();
        prop_assert_eq!(got, expected);
        // `project` (the join-module wrapper) applies set semantics.
        prop_assert_eq!(projected.len(), projected.canonicalized().len());
    }

    #[test]
    fn dedup_collapses_exact_duplicates_only(seed in 0u64..1_000_000) {
        let mut rng = Xs(seed);
        let rel = random_relation(&mut rng, "R");
        let mut doubled = rel.clone();
        doubled.append(&rel);
        let mut deduped = doubled.clone();
        deduped.dedup();
        let distinct: BTreeSet<Vec<Value>> = rel.iter().map(|r| r.to_vec()).collect();
        prop_assert_eq!(deduped.len(), distinct.len());
        let got: BTreeSet<Vec<Value>> = deduped.iter().map(|r| r.to_vec()).collect();
        prop_assert_eq!(got, distinct);
    }
}

#[test]
fn nullary_relations_join_as_logical_conjunction() {
    let mut truthy = Relation::empty(Schema::new("T", vec![]));
    truthy.push_row(&[]);
    let falsy = Relation::empty(Schema::new("F", vec![]));
    let r = Relation::from_rows(Schema::from_strs("R", &["x"]), vec![vec![1], vec![2]]);
    // true ⋈ R = R; false ⋈ R = ∅; true ⋈ true = true.
    assert_eq!(natural_join(&truthy, &r).len(), 2);
    assert_eq!(natural_join(&r, &truthy).len(), 2);
    assert!(natural_join(&falsy, &r).is_empty());
    let tt = natural_join(&truthy, &truthy);
    assert_eq!(tt.arity(), 0);
    assert_eq!(tt.len(), 1);
}

#[test]
fn empty_relations_annihilate_joins() {
    let empty = Relation::empty(Schema::from_strs("E", &["x", "y"]));
    let r = Relation::from_rows(Schema::from_strs("R", &["y", "z"]), vec![vec![1, 2]]);
    assert!(natural_join(&empty, &r).is_empty());
    assert!(natural_join(&r, &empty).is_empty());
    assert!(natural_join_all(&[r.clone(), empty.clone()]).is_empty());
}

#[test]
fn arity_one_joins_are_intersections() {
    let a = Relation::from_rows(
        Schema::from_strs("A", &["x"]),
        vec![vec![1], vec![2], vec![3], vec![2]],
    );
    let b = Relation::from_rows(Schema::from_strs("B", &["x"]), vec![vec![2], vec![3], vec![9]]);
    let j = natural_join(&a, &b).canonicalized();
    assert_eq!(j.arity(), 1);
    assert_eq!(j.values(), &[2, 3]);
}

#[test]
fn duplicate_rows_survive_until_dedup() {
    // Joins have bag semantics until dedup: 2 copies × 3 copies = 6 rows.
    let a = Relation::from_rows(Schema::from_strs("A", &["x"]), vec![vec![5], vec![5]]);
    let b = Relation::from_rows(
        Schema::from_strs("B", &["x", "y"]),
        vec![vec![5, 1], vec![5, 1], vec![5, 1]],
    );
    let mut j = natural_join(&a, &b);
    assert_eq!(j.len(), 6);
    j.dedup();
    assert_eq!(j.len(), 1);
    assert_eq!(j.row(0), &[5, 1]);
}
