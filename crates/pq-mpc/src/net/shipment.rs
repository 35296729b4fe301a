//! What one round puts on the wire, worker by worker.
//!
//! The algorithms above the wire think in `p` *logical* servers; the wire
//! has `workers ≤ p` processes, logical server `s` living on worker
//! `s % workers`. A [`Shipment`] holds both views of one round at once:
//! the model account per logical server (what the paper's load `L`
//! bounds, kept by counting) and the fragments grouped by the worker that
//! will actually receive them (what the sockets carry).

use crate::message::{Message, Payload};
use crate::net::coordinator::ClusterError;
use pq_relation::Relation;

/// The one input of a cluster round: the model's cost account plus the
/// fragments to ship, bucketed by destination worker.
///
/// Build one with [`Shipment::from_messages`] from simulator-style
/// per-logical-server messages, or directly from a router that folds
/// logical servers onto workers while it routes (so a row bound for
/// several logical servers of one worker is shipped to it once).
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

    /// Bucket per-logical-server messages under `to % workers`, moving
    /// each relation (no copy) and charging its bits to logical server
    /// `to`.
    ///
    /// # Errors
    /// [`ClusterError::Protocol`] for a [`Payload::Raw`] message: the wire
    /// carries only tuples.
    ///
    /// # Panics
    /// Panics when a message addresses a logical server `>= p`, matching
    /// the simulator's contract, or when `workers == 0`.
    pub fn from_messages(
        messages: Vec<Message>,
        p: usize,
        workers: usize,
        bits_per_value: u64,
    ) -> Result<Shipment, ClusterError> {
        let mut shipment = Shipment::new(p, workers);
        shipment.messages = messages.len();
        for msg in messages {
            assert!(
                msg.to < p,
                "message addressed to server {} but the run has only {p} servers",
                msg.to
            );
            shipment.received_bits[msg.to] += msg.payload.size_bits(bits_per_value);
            let worker = msg.to % workers;
            match msg.payload {
                Payload::Tuples(relation) => shipment.fragments[worker].push(relation),
                Payload::Raw { label, .. } => {
                    return Err(ClusterError::Protocol {
                        worker,
                        message: format!(
                            "the wire backend ships only tuple payloads, got raw payload {label:?}"
                        ),
                    })
                }
            }
        }
        Ok(shipment)
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
            Message::tuples(2, rel(vec![vec![7, 8]])),
        ];
        let shipment = Shipment::from_messages(messages, 4, 2, 10).unwrap();
        assert_eq!(shipment.received_bits, vec![20, 0, 20, 40]);
        assert_eq!(shipment.messages, 3);
        // Servers 0 and 2 fold onto worker 0, server 3 onto worker 1.
        assert_eq!(shipment.fragments[0].len(), 2);
        assert_eq!(shipment.fragments[1].len(), 1);
        assert_eq!(shipment.fragments[1][0].len(), 2);
    }

    #[test]
    fn raw_payloads_name_the_worker_they_were_bound_for() {
        let err = Shipment::from_messages(vec![Message::raw(3, "stats", 64)], 4, 2, 8).unwrap_err();
        assert!(matches!(err, ClusterError::Protocol { worker: 1, .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "only 2 servers")]
    fn addressing_a_missing_server_panics() {
        let _ = Shipment::from_messages(vec![Message::tuples(5, rel(vec![]))], 2, 1, 8);
    }
}
