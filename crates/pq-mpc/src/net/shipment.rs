//! What one round puts on the wire, worker by worker.
//!
//! The algorithms above the wire think in `p` *logical* servers; the wire
//! has `workers ≤ p` processes, logical server `s` living on worker
//! `s % workers`. A [`Shipment`] holds both views of one round at once:
//! the model account per logical server (what the paper's load `L`
//! bounds, kept by counting) and the fragments grouped by the worker that
//! will actually receive them (what the sockets carry).

use crate::message::{Message, Payload};
use pq_relation::Relation;

/// The one input of a cluster round: the model's cost account plus the
/// fragments to ship, bucketed by destination worker.
///
/// Build one with [`Shipment::from_messages`] from simulator-style
/// per-logical-server messages, or directly from a router that folds
/// logical servers onto workers while it routes. Whoever builds it, the
/// same invariant holds: the model account is what
/// [`crate::Cluster::communicate`] records for the same messages, and a
/// worker gets at most one fragment per relation name, in which folding
/// several logical servers onto the worker never repeats a row.
#[derive(Debug, Clone, PartialEq)]
pub struct Shipment {
    /// Model bits received per logical server this round (length `p`),
    /// charged at `bits_per_value` exactly like
    /// [`crate::Cluster::communicate`] would.
    pub received_bits: Vec<u64>,
    /// Number of (logical server, payload) deliveries the model counts.
    pub messages: usize,
    /// `fragments[w]` are the relations worker `w` receives, each in its
    /// own `Fragment` frame; a worker merges fragments of one relation by
    /// name. Length = the worker count the shipment was folded for.
    pub fragments: Vec<Vec<Relation>>,
}

impl Shipment {
    /// An empty shipment for `p` logical servers on `workers` workers.
    pub fn new(p: usize, workers: usize) -> Shipment {
        Shipment {
            received_bits: vec![0; p],
            messages: 0,
            fragments: vec![Vec::new(); workers],
        }
    }

    /// Fold per-logical-server messages onto `workers` workers, set-wise:
    /// every tuple payload is merged into its worker's (`to % workers`)
    /// one fragment of that relation and duplicate rows are removed, so a
    /// row bound for several logical servers of one worker crosses its
    /// socket once. Every payload's bits are charged to logical server
    /// `to`; a [`Payload::Raw`] (statistics the model prices but no worker
    /// reads) is charged and not shipped.
    ///
    /// # Panics
    /// Panics when a message addresses a logical server `>= p`, matching
    /// the simulator's contract, or when `workers == 0`.
    pub fn from_messages(
        messages: Vec<Message>,
        p: usize,
        workers: usize,
        bits_per_value: u64,
    ) -> Shipment {
        let mut shipment = Shipment::new(p, workers);
        shipment.messages = messages.len();
        // Per worker, the payloads of each relation name, in message order.
        let mut held: Vec<Vec<Vec<Relation>>> = vec![Vec::new(); workers];
        for msg in messages {
            assert!(
                msg.to < p,
                "message addressed to server {} but the run has only {p} servers",
                msg.to
            );
            shipment.received_bits[msg.to] += msg.payload.size_bits(bits_per_value);
            if let Payload::Tuples(relation) = msg.payload {
                let named = &mut held[msg.to % workers];
                match named.iter_mut().find(|f| f[0].name() == relation.name()) {
                    Some(parts) => parts.push(relation),
                    None => named.push(vec![relation]),
                }
            }
        }
        let union = |f: &Vec<Relation>| Relation::union_distinct(f[0].schema().clone(), f);
        shipment.fragments = held.iter().map(|named| named.iter().map(union).collect()).collect();
        shipment
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_relation::Schema;

    fn rel(rows: Vec<Vec<u64>>) -> Relation {
        Relation::from_rows(Schema::from_strs("R", &["x", "y"]), rows)
    }

    #[test]
    fn messages_are_bucketed_by_worker_and_charged_by_server() {
        let messages = vec![
            Message::tuples(0, rel(vec![vec![1, 2]])),
            Message::tuples(3, rel(vec![vec![3, 4], vec![5, 6]])),
            Message::tuples(2, rel(vec![vec![7, 8], vec![1, 2]])),
        ];
        let shipment = Shipment::from_messages(messages, 4, 2, 10);
        assert_eq!(shipment.received_bits, vec![20, 0, 40, 40]);
        assert_eq!(shipment.messages, 3);
        // Servers 0 and 2 fold onto worker 0 — one fragment of R, the row
        // both wanted shipped once — and server 3 onto worker 1.
        assert_eq!(shipment.fragments[0], vec![rel(vec![vec![1, 2], vec![7, 8]])]);
        assert_eq!(shipment.fragments[1], vec![rel(vec![vec![3, 4], vec![5, 6]])]);
    }

    #[test]
    fn raw_payloads_are_charged_to_the_model_and_not_shipped() {
        let messages = vec![
            Message::raw(3, "stats", 64),
            Message::tuples(3, rel(vec![vec![1, 2]])),
        ];
        let shipment = Shipment::from_messages(messages.clone(), 4, 2, 8);
        let mut cluster = crate::Cluster::new(4, 8);
        let simulated = cluster.communicate(messages);
        assert_eq!(shipment.received_bits, simulated.received_bits);
        assert_eq!(shipment.received_bits[3], 64 + 16);
        assert_eq!(shipment.messages, simulated.messages);
        assert_eq!(shipment.fragments, vec![vec![], vec![rel(vec![vec![1, 2]])]]);
    }

    #[test]
    #[should_panic(expected = "only 2 servers")]
    fn addressing_a_missing_server_panics() {
        let _ = Shipment::from_messages(vec![Message::tuples(5, rel(vec![]))], 2, 1, 8);
    }
}
