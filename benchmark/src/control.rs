//! The control kernel: a fixed piece of work that touches no repository
//! code, sampled between requests, so that what the *host* did to a run can
//! be divided out of it (`query_p50_rel = query_p50_ms / control_ms`).
//!
//! The kernel is a **thread hand-off loop**: a token bounces between this
//! thread and a peer over two channels, each bounce a futex wake and a
//! sleep. That is what was found to move with the workloads. On the
//! reference host (a 2-vCPU guest on a shared machine) unchanged code runs
//! 1.3–1.6× slower for a minute or three, every ten minutes or so, on all
//! four workloads at once. Side by side over 18 minutes, seven candidate
//! kernels moved like this in an episode that moved `tri_sim` +53 %,
//! `ins_replan_wal` +52 % and `star_skew_wide` +38 %:
//!
//! | kernel | moved | correlation with `tri_sim` p50 |
//! |---|---|---|
//! | integer mix loop (compute-bound) | +2 % | 0.73 |
//! | 32 MiB copy, one thread / two threads | +12 % / +21 % | 0.82 / 0.86 |
//! | dependent loads over 32 MiB (latency-bound) | +13 % | 0.80 |
//! | hash build + probe over 4 MiB | +27 % | 0.82 |
//! | 16 MiB allocate, touch, free | +12 % | 0.80 |
//! | **thread hand-offs** | **+36 %** | **0.93** (0.94 `ins_replan_wal`, 0.87 `star_skew_wide`) |
//!
//! Dividing by the hand-off kernel cut the spread of 20-second medians from
//! 0.15 to 0.06 (`tri_sim`), 0.09 to 0.05 (`star_skew_wide`) and 0.14 to 0.06
//! (`ins_replan_wal`); no other kernel, nor any pairing, did better. The
//! reading: what the neighbours take from this guest is mostly prompt vCPU
//! wake-ups, and every workload here — a thread pool's fork-joins, a client
//! and a server taking turns — is made of wake-ups.
//!
//! Two details keep the kernel from being bimodal. The hand-off is
//! `park`/`unpark` on an atomic turn flag, which always sleeps; a channel
//! spins first, and a peer that answers inside the spin makes a round trip
//! cost 4 µs instead of 38 µs. And the two threads are pinned to different
//! CPUs while a sample runs; left to the scheduler they sometimes share one,
//! and a wake-up that never leaves the CPU measures nothing of the host.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::Instant;

/// Hand-offs (round trips) per sample: ≈ 10 ms on the reference host.
const ROUND_TRIPS: u32 = 250;

/// Whose turn it is.
const MAIN: u32 = 0;
const PEER: u32 = 1;
const QUIT: u32 = 2;

/// A CPU set as `sched_setaffinity(2)` takes it: one bit per CPU.
type CpuMask = [u64; 16];

/// The calling thread's allowed CPUs, or `None` where the call fails.
fn allowed_cpus() -> Option<CpuMask> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    }
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    (status == 0).then_some(mask)
}

/// Restrict the calling thread to `mask`. Best effort: where the kernel
/// refuses, the thread stays where it was and the sample is merely noisier.
fn run_on(mask: &CpuMask) {
    extern "C" {
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `mask` is a live buffer of exactly the size passed; pid 0
    // names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr());
    }
}

fn only(cpu: usize) -> CpuMask {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

pub struct ControlKernel {
    /// [`MAIN`], [`PEER`] or [`QUIT`]. It only sequences the two threads and
    /// publishes no other data, but they must agree on its order: `SeqCst`.
    turn: Arc<AtomicU32>,
    peer_thread: Thread,
    peer: Option<JoinHandle<()>>,
    /// `(every CPU this thread may use, the one it samples on)`; `None`
    /// when fewer than two CPUs are allowed and nothing is pinned.
    pinning: Option<(CpuMask, CpuMask)>,
}

impl ControlKernel {
    /// Spawn the peer thread, which hands the turn straight back until the
    /// kernel is dropped. It lives on the last allowed CPU; samples run on
    /// the first.
    pub fn new() -> ControlKernel {
        let allowed = allowed_cpus();
        let cpus: Vec<usize> = allowed
            .iter()
            .flat_map(|mask| (0..1024).filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1))
            .collect();
        let ends = match (cpus.first(), cpus.last()) {
            (Some(&first), Some(&last)) if first != last => Some((only(first), only(last))),
            _ => None,
        };
        let turn = Arc::new(AtomicU32::new(MAIN));
        let main_thread = std::thread::current();
        let peer_turn = Arc::clone(&turn);
        let peer_cpu = ends.map(|(_, last)| last);
        let peer = std::thread::spawn(move || {
            if let Some(cpu) = &peer_cpu {
                run_on(cpu);
            }
            loop {
                match peer_turn.load(Ordering::SeqCst) {
                    QUIT => return,
                    PEER => {
                        peer_turn.store(MAIN, Ordering::SeqCst);
                        main_thread.unpark();
                    }
                    // Not our turn (or a spurious wake-up): sleep.
                    _ => std::thread::park(),
                }
            }
        });
        ControlKernel {
            turn,
            peer_thread: peer.thread().clone(),
            peer: Some(peer),
            pinning: allowed.zip(ends).map(|(all, (first, _))| (all, first)),
        }
    }

    /// Run one sample; returns its wall time in milliseconds.
    pub fn sample(&mut self) -> f64 {
        if let Some((_, first)) = &self.pinning {
            run_on(first);
        }
        let start = Instant::now();
        for _ in 0..ROUND_TRIPS {
            self.turn.store(PEER, Ordering::SeqCst);
            self.peer_thread.unpark();
            while self.turn.load(Ordering::SeqCst) != MAIN {
                std::thread::park();
            }
        }
        let elapsed = start.elapsed();
        if let Some((all, _)) = &self.pinning {
            run_on(all);
        }
        elapsed.as_secs_f64() * 1e3
    }
}

impl Drop for ControlKernel {
    fn drop(&mut self) {
        // Tell the peer to leave, then join it, so no thread outlives the run.
        self.turn.store(QUIT, Ordering::SeqCst);
        self.peer_thread.unpark();
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_take_time_and_the_peer_is_joined_on_drop() {
        let mut kernel = ControlKernel::new();
        assert!(kernel.sample() > 0.0);
        assert!(kernel.sample() > 0.0);
        assert_eq!(
            kernel.turn.load(Ordering::SeqCst),
            MAIN,
            "every hand-off came back"
        );
        drop(kernel); // would hang here if the peer did not exit
    }
}
