//! Seeded input generation: CSV files, planted answers and the INSERT
//! script. `pqd` only ever sees what this module wrote; the same seed gives
//! byte-identical inputs, so two runs at one seed measure the same work.

use crate::spec::{Shape, Workload};
use std::collections::HashSet;

/// SplitMix64: the benchmark's own generator, so its inputs do not change
/// when the workspace's `rand` shim does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for the
    /// domains used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Everything one workload run feeds the server, plus what must come back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    /// `(file name, CSV text)`, one per relation, in body order.
    pub files: Vec<(String, String)>,
    /// The answers the generator planted, as `ROW` payloads (`v1,v2,…` in
    /// head order). The oracle must find every one of them.
    pub planted: Vec<String>,
    /// Full `INSERT <relation> <row>` lines: fresh values that join nothing.
    pub inserts: Vec<String>,
}

impl Inputs {
    /// Bytes of row text the INSERT script carries (the "user bytes" of
    /// `stored_bytes_per_user_byte`).
    pub fn insert_row_bytes(&self) -> u64 {
        self.inserts
            .iter()
            .map(|line| line.splitn(3, ' ').nth(2).map_or(0, str::len) as u64)
            .sum()
    }
}

/// Values are drawn from `0..64·rows`, the skew-free regime of the paper's
/// matching databases: a random pair of relations shares a value with
/// probability 1/64 per row, so accidental answers are vanishingly rare.
const DOMAIN_PER_ROW: u64 = 64;

/// Maps domain values to fixed-width tokens. The seed picks the bijection
/// (odd multiplier and xor mask over 28 bits), so token *names* differ
/// between seeds while their length — and with it the reply size — does not.
struct Tokens {
    multiplier: u64,
    mask: u64,
}

const TOKEN_BITS: u32 = 28;

impl Tokens {
    fn new(rng: &mut Rng) -> Tokens {
        Tokens {
            multiplier: rng.next_u64() | 1,
            mask: rng.next_u64(),
        }
    }

    fn token(&self, value: u64) -> String {
        let scrambled = (value.wrapping_mul(self.multiplier) ^ self.mask) & ((1 << TOKEN_BITS) - 1);
        format!("v{scrambled:07x}")
    }
}

/// `n` distinct values below `domain`, none of them in `taken`; the drawn
/// values are added to `taken`.
fn distinct(rng: &mut Rng, n: usize, domain: u64, taken: &mut HashSet<u64>) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let v = rng.below(domain);
        if taken.insert(v) {
            out.push(v);
        }
    }
    out
}

/// Generate the inputs of `workload` for `seed` with an INSERT script of
/// `inserts` lines.
pub fn generate(workload: &Workload, seed: u64, inserts: usize) -> Inputs {
    // Mix the shape in so the star and the chain at one seed do not share
    // a value stream; tri_sim and tri_cluster deliberately do.
    let mut rng = Rng::new(seed ^ ((workload.shape as u64 + 1) << 56));
    let tokens = Tokens::new(&mut rng);
    let rows = workload.rows;
    let domain = DOMAIN_PER_ROW * rows as u64;
    assert!(
        domain + inserts as u64 * 2 < 1 << TOKEN_BITS,
        "domain exceeds the token width"
    );
    assert!(workload.planted <= rows, "more planted rows than rows");
    let relations = workload.shape.relations();

    // Per relation, the (first column, second column) value pairs.
    let mut columns: Vec<Vec<(u64, u64)>> = Vec::with_capacity(relations.len());
    let mut planted = Vec::new();
    match workload.shape {
        Shape::Triangle | Shape::Chain => {
            // Matching relations: every value occurs at most once per
            // column. The first `planted` rows of each relation are
            // overwritten so that they chain into an answer.
            for _ in relations {
                let a = distinct(&mut rng, rows, domain, &mut HashSet::new());
                let b = distinct(&mut rng, rows, domain, &mut HashSet::new());
                columns.push(a.into_iter().zip(b).collect());
            }
            let width = if workload.shape == Shape::Triangle {
                3
            } else {
                4
            };
            // Planted values come from above the random domain: they can
            // neither collide with a random value nor with each other.
            // (`i` walks three relations in step, hence the index loop.)
            #[allow(clippy::needless_range_loop)]
            for i in 0..workload.planted {
                let v: Vec<u64> = (0..width)
                    .map(|k| domain + (i * width + k) as u64)
                    .collect();
                columns[0][i] = (v[0], v[1]);
                columns[1][i] = (v[1], v[2]);
                columns[2][i] = if workload.shape == Shape::Triangle {
                    (v[2], v[0])
                } else {
                    (v[2], v[3])
                };
                planted.push(
                    v.iter()
                        .map(|&x| tokens.token(x))
                        .collect::<Vec<_>>()
                        .join(","),
                );
            }
        }
        Shape::Star => {
            // One heavy hitter of degree `planted` in both relations; every
            // other centre value occurs exactly once on each side.
            let degree = workload.planted;
            let mut taken = HashSet::new();
            let centres = distinct(&mut rng, rows - degree + 1, domain, &mut taken);
            let (heavy, light) = centres.split_first().expect("at least the heavy hitter");
            let mut sides = Vec::new();
            for _ in relations {
                let privates = distinct(&mut rng, rows, domain, &mut taken);
                let pairs: Vec<(u64, u64)> = privates
                    .iter()
                    .enumerate()
                    .map(|(i, &private)| {
                        (
                            if i < degree {
                                *heavy
                            } else {
                                light[i - degree]
                            },
                            private,
                        )
                    })
                    .collect();
                sides.push(privates);
                columns.push(pairs);
            }
            // Planted answers: the heavy hitter's full cross product, then
            // the 1:1 matches — the whole expected answer, in fact.
            for a in &sides[0][..degree] {
                for b in &sides[1][..degree] {
                    planted.push(format!(
                        "{},{},{}",
                        tokens.token(*heavy),
                        tokens.token(*a),
                        tokens.token(*b)
                    ));
                }
            }
            for i in degree..rows {
                planted.push(format!(
                    "{},{},{}",
                    tokens.token(light[i - degree]),
                    tokens.token(sides[0][i]),
                    tokens.token(sides[1][i])
                ));
            }
        }
    }

    let files = relations
        .iter()
        .zip(&mut columns)
        .map(|(name, pairs)| {
            rng.shuffle(pairs);
            let mut text = String::with_capacity(20 * pairs.len() + 8);
            text.push_str("a,b\n");
            for (a, b) in pairs.iter() {
                text.push_str(&tokens.token(*a));
                text.push(',');
                text.push_str(&tokens.token(*b));
                text.push('\n');
            }
            (format!("{name}.csv"), text)
        })
        .collect();

    // Fresh values from beyond everything generated above: an inserted row
    // joins nothing, so the expected answer never changes.
    let fresh_base = domain + (workload.planted * 4) as u64;
    let inserts = (0..inserts as u64)
        .map(|i| {
            format!(
                "INSERT {} {},{}",
                workload.shape.insert_relation(),
                tokens.token(fresh_base + 2 * i),
                tokens.token(fresh_base + 2 * i + 1)
            )
        })
        .collect();

    Inputs {
        files,
        planted,
        inserts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn small(workload: &Workload) -> Workload {
        match workload.shape {
            Shape::Star => workload.scaled(400, 20),
            _ => workload.scaled(500, 8),
        }
    }

    #[test]
    fn same_seed_is_byte_identical_and_next_seed_differs() {
        for workload in WORKLOADS.iter().map(small) {
            let a = generate(&workload, 11, 30);
            let b = generate(&workload, 11, 30);
            assert_eq!(a, b, "{}: same seed, same bytes", workload.name);
            let c = generate(&workload, 12, 30);
            assert_ne!(
                a.files, c.files,
                "{}: CSVs depend on the seed",
                workload.name
            );
            assert_ne!(
                a.inserts, c.inserts,
                "{}: script depends on the seed",
                workload.name
            );
            assert_ne!(
                a.planted, c.planted,
                "{}: planted rows depend on the seed",
                workload.name
            );
        }
    }

    #[test]
    fn the_two_triangle_workloads_share_their_data() {
        let sim = generate(&small(&WORKLOADS[0]), 5, 10);
        let cluster = generate(&small(&WORKLOADS[1]), 5, 10);
        assert_eq!(sim, cluster);
    }

    #[test]
    fn files_have_the_requested_shape() {
        let star = small(&WORKLOADS[2]);
        let inputs = generate(&star, 3, 7);
        assert_eq!(inputs.files.len(), 2);
        for (_, text) in &inputs.files {
            assert_eq!(text.lines().count(), star.rows + 1, "header + rows");
            assert!(
                text.lines().all(|l| l == "a,b" || l.len() == 17),
                "fixed-width tokens"
            );
        }
        // degree² heavy answers plus one per light centre.
        assert_eq!(inputs.planted.len(), 20 * 20 + (400 - 20));
        assert_eq!(inputs.inserts.len(), 7);
        assert_eq!(inputs.insert_row_bytes(), 7 * 17);
        assert!(inputs.inserts[0].starts_with("INSERT S v"));

        let tri = generate(&small(&WORKLOADS[0]), 3, 0);
        assert_eq!(tri.files.len(), 3);
        assert_eq!(tri.planted.len(), 8);
    }
}
