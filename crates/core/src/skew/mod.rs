//! Handling data skew in one communication round (Section 4).
//!
//! * [`oblivious`] — the skew-oblivious setting of §4.1: the HyperCube
//!   algorithm knows only the relation cardinalities, and the worst-case
//!   load over all data distributions is minimised by the LP of Eq. 18.
//! * [`heavy`] — heavy-hitter detection: the values whose frequency exceeds
//!   `m_j/p`, of which there can be at most `p` per relation, together with
//!   their (approximate) frequencies — the statistics §4.2 assumes every
//!   input server knows.
//! * [`star`] — the skew-aware one-round algorithm for star queries
//!   (§4.2.1), which runs vanilla HC on the light tuples and allocates
//!   server blocks to each heavy hitter's residual Cartesian product in
//!   proportion to its cost; it matches the lower bound of Eq. 20.
//! * [`triangle`] — the skew-aware one-round triangle algorithm (§4.2.2),
//!   which splits the output into the no-heavy-value part (vanilla HC at
//!   shares `p^{1/3}`), the two-heavy-values part (Case 1: broadcast the
//!   heavy-heavy tuples, hash the rest on the remaining variable) and the
//!   one-heavy-value part (Case 2: per-heavy-hitter residual joins).

pub mod heavy;
pub mod oblivious;
pub mod star;
pub mod triangle;

use crate::hypercube::HyperCubeRouter;
use pq_mpc::Message;
use pq_relation::Relation;

/// The heavy-hitter statistics §4.2 assumes every server knows: one raw
/// message of `bits` to each of the `p` servers, none when `bits` is 0.
fn broadcast_statistics(p: usize, bits: u64) -> Vec<Message> {
    let servers = if bits == 0 { 0..0 } else { 0..p };
    servers
        .map(|s| Message::raw(s, "heavy-hitter-statistics", bits))
        .collect()
}

/// The server blocks of one round, handed out in turn: each block starts
/// where the previous one ended, wrapping modulo `p`. Every heavy hitter's
/// residual HyperCube gets the next one.
struct Blocks {
    p: usize,
    next: usize,
}

impl Blocks {
    fn new(p: usize) -> Blocks {
        Blocks { p, next: 0 }
    }

    /// Route `bound` with `router`, a grid over servers `0..size`, onto
    /// the next block of `size` servers.
    fn route(
        &mut self,
        router: &HyperCubeRouter,
        bound: &[Relation],
        size: usize,
    ) -> impl Iterator<Item = Message> {
        let (p, offset) = (self.p, self.next);
        self.next = (offset + size) % p;
        router.route_bound(bound).into_iter().map(move |mut message| {
            message.to = (offset + message.to) % p;
            message
        })
    }
}
