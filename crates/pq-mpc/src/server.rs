//! A single simulated server.

use crate::message::Payload;
use pq_relation::Relation;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Identifier of a server in `[0, p)`.
pub type ServerId = usize;

/// A simulated server: the data it has received (its *knowledge*), grouped
/// by relation name, plus any raw payloads.
///
/// The MPC model places no bound on local storage other than the load
/// itself (a server must store what it receives), so servers simply
/// accumulate fragments across rounds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Server {
    id: ServerId,
    fragments: BTreeMap<String, Relation>,
    raw: BTreeMap<String, u64>,
}

impl Server {
    /// Create an empty server.
    pub fn new(id: ServerId) -> Self {
        Server {
            id,
            fragments: BTreeMap::new(),
            raw: BTreeMap::new(),
        }
    }

    /// This server's id.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Deliver a payload to this server (merging relation fragments of the
    /// same name). A first fragment is kept as delivered — the servers of one
    /// HyperCube subcube all hold the same shared buffer — and a second one
    /// of the same name is appended to this server's own copy of it.
    pub fn receive(&mut self, payload: Payload) {
        match payload {
            Payload::Tuples(rel) => match self.fragments.get_mut(rel.name()) {
                // Copy-on-write: the siblings sharing `existing` keep theirs.
                Some(existing) => existing.append(&rel),
                None => {
                    self.fragments.insert(rel.name().to_string(), rel);
                }
            },
            Payload::Raw { label, bits } => {
                *self.raw.entry(label).or_insert(0) += bits;
            }
        }
    }

    /// The fragment of relation `name` received so far (possibly absent).
    pub fn fragment(&self, name: &str) -> Option<&Relation> {
        self.fragments.get(name)
    }

    /// All received fragments, keyed by relation name.
    pub fn fragments(&self) -> &BTreeMap<String, Relation> {
        &self.fragments
    }

    /// Number of bits recorded under a raw label.
    pub fn raw_bits(&self, label: &str) -> u64 {
        self.raw.get(label).copied().unwrap_or(0)
    }

    /// Total number of tuples stored across all fragments.
    pub fn stored_tuples(&self) -> usize {
        self.fragments.values().map(Relation::len).sum()
    }

    /// Total stored size in bits (fragments plus raw payloads).
    pub fn stored_bits(&self, bits_per_value: u64) -> u64 {
        let tuple_bits: u64 = self
            .fragments
            .values()
            .map(|r| r.size_bits(bits_per_value))
            .sum();
        tuple_bits + self.raw.values().sum::<u64>()
    }

    /// Forget everything (used between independent experiments that reuse a
    /// cluster).
    pub fn clear(&mut self) {
        self.fragments.clear();
        self.raw.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::{Relation, Schema};

    fn frag(name: &str, rows: Vec<Vec<u64>>) -> Relation {
        Relation::from_rows(Schema::from_strs(name, &["x", "y"]), rows)
    }

    #[test]
    fn receiving_merges_fragments_by_name() {
        let mut s = Server::new(2);
        assert_eq!(s.id(), 2);
        s.receive(Payload::Tuples(frag("R", vec![vec![1, 2]])));
        s.receive(Payload::Tuples(frag("R", vec![vec![3, 4]])));
        s.receive(Payload::Tuples(frag("S", vec![vec![5, 6]])));
        assert_eq!(s.fragment("R").unwrap().len(), 2);
        assert_eq!(s.fragment("S").unwrap().len(), 1);
        assert!(s.fragment("T").is_none());
        assert_eq!(s.stored_tuples(), 3);
        assert_eq!(s.fragments().len(), 2);
    }

    #[test]
    fn raw_payloads_accumulate() {
        let mut s = Server::new(0);
        s.receive(Payload::Raw { label: "hh".into(), bits: 100 });
        s.receive(Payload::Raw { label: "hh".into(), bits: 50 });
        assert_eq!(s.raw_bits("hh"), 150);
        assert_eq!(s.raw_bits("other"), 0);
        assert_eq!(s.stored_bits(8), 150);
    }

    #[test]
    fn stored_bits_counts_fragments_and_raw() {
        let mut s = Server::new(0);
        s.receive(Payload::Tuples(frag("R", vec![vec![1, 2], vec![3, 4]])));
        s.receive(Payload::Raw { label: "x".into(), bits: 10 });
        assert_eq!(s.stored_bits(8), 2 * 2 * 8 + 10);
    }

    #[test]
    fn clear_resets_state() {
        let mut s = Server::new(1);
        s.receive(Payload::Tuples(frag("R", vec![vec![1, 2]])));
        s.clear();
        assert_eq!(s.stored_tuples(), 0);
        assert_eq!(s.stored_bits(8), 0);
    }
}
