//! FNV-1a digests of what a run routed, accounted and answered, shared by
//! the golden suites that pin an execution path to the values recorded
//! before a refactor of it.

// Each suite includes this module and uses a subset of it.
#![allow(dead_code)]

use pq_mpc::{Message, Payload, RunMetrics};
use pq_relation::Relation;

pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn str(&mut self, text: &str) {
        for byte in text.bytes() {
            self.u64(byte as u64);
        }
        self.u64(text.len() as u64);
    }

    /// A relation: name, attributes, then every row in storage order.
    pub fn relation(&mut self, relation: &Relation) {
        self.str(relation.name());
        for attribute in relation.schema().attributes() {
            self.str(attribute);
        }
        self.u64(relation.len() as u64);
        for row in relation.iter() {
            for &value in row {
                self.u64(value);
            }
        }
    }
}

/// Every message in order: destination, then the fragment (relation name,
/// attributes, rows) or the raw payload (label, bits).
pub fn digest_messages(messages: &[Message]) -> u64 {
    let mut h = Fnv::new();
    for message in messages {
        h.u64(message.to as u64);
        match &message.payload {
            Payload::Tuples(fragment) => h.relation(fragment),
            Payload::Raw { label, bits } => {
                h.str(label);
                h.u64(*bits);
            }
        }
    }
    h.0
}

/// The model account of a run: input bits, and per round the message count
/// and every server's received bits.
pub fn digest_metrics(metrics: &RunMetrics) -> u64 {
    let mut h = Fnv::new();
    h.u64(metrics.input_bits);
    for round in &metrics.rounds {
        h.u64(round.round as u64);
        h.u64(round.messages as u64);
        for &bits in &round.received_bits {
            h.u64(bits);
        }
    }
    h.0
}

/// A relation's digest on its own (rows in storage order).
pub fn digest_relation(relation: &Relation) -> u64 {
    let mut h = Fnv::new();
    h.relation(relation);
    h.0
}
