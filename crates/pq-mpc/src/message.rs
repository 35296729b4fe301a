//! Messages exchanged during a communication phase.

use crate::server::ServerId;
use pq_relation::Relation;
use serde::{Deserialize, Serialize};

/// The payload of a message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// A fragment of a relation: the receiving server stores it under the
    /// relation's name (merging with fragments of the same relation received
    /// earlier). Its cost is `arity · |tuples| · bits_per_value`.
    Tuples(Relation),
    /// An opaque payload of a given size in bits, stored under a label
    /// (used for statistics such as heavy-hitter frequencies, whose size the
    /// paper argues is `O(p)` values). Cost is exactly `bits`.
    Raw {
        /// Label under which the receiving server can look the payload up.
        label: String,
        /// Size of the payload in bits, charged to the receiver's load.
        bits: u64,
    },
}

impl Payload {
    /// Size of the payload in bits, given the per-value width.
    pub fn size_bits(&self, bits_per_value: u64) -> u64 {
        match self {
            Payload::Tuples(rel) => rel.size_bits(bits_per_value),
            Payload::Raw { bits, .. } => *bits,
        }
    }
}

/// A message addressed to one server. The sender is not tracked: the MPC
/// cost model only charges the *receiver's* load, and the lower bounds are
/// stated in the input-server model where round-one senders are conceptual
/// input servers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// Destination server.
    pub to: ServerId,
    /// Payload delivered to the destination.
    pub payload: Payload,
}

impl Message {
    /// A message carrying relation tuples.
    pub fn tuples(to: ServerId, relation: Relation) -> Self {
        Message {
            to,
            payload: Payload::Tuples(relation),
        }
    }

    /// A message carrying `bits` opaque bits under `label`.
    pub fn raw(to: ServerId, label: impl Into<String>, bits: u64) -> Self {
        Message {
            to,
            payload: Payload::Raw {
                label: label.into(),
                bits,
            },
        }
    }
}

/// Broadcast a relation to every one of `p` servers (one message each, all
/// sharing the relation's row buffer).
pub fn broadcast_relation(relation: &Relation, p: usize) -> Vec<Message> {
    (0..p).map(|s| Message::tuples(s, relation.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::{Relation, Schema};

    fn rel() -> Relation {
        Relation::from_rows(
            Schema::from_strs("R", &["x", "y"]),
            vec![vec![1, 2], vec![3, 4]],
        )
    }

    #[test]
    fn payload_sizes() {
        let p = Payload::Tuples(rel());
        assert_eq!(p.size_bits(10), 2 * 2 * 10);
        let r = Payload::Raw {
            label: "stats".into(),
            bits: 123,
        };
        assert_eq!(r.size_bits(10), 123);
    }

    #[test]
    fn constructors() {
        let m = Message::tuples(3, rel());
        assert_eq!(m.to, 3);
        assert!(matches!(m.payload, Payload::Tuples(_)));
        let m = Message::raw(1, "hh", 64);
        assert_eq!(m.to, 1);
        assert_eq!(m.payload.size_bits(8), 64);
    }

    #[test]
    fn broadcast_sends_to_every_server() {
        let msgs = broadcast_relation(&rel(), 4);
        assert_eq!(msgs.len(), 4);
        let dests: Vec<_> = msgs.iter().map(|m| m.to).collect();
        assert_eq!(dests, vec![0, 1, 2, 3]);
    }
}
