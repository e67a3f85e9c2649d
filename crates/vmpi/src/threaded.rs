//! Threaded world: each rank is an OS thread, transport is a full
//! mesh of `std::sync::mpsc` channels (one per ordered rank pair, so
//! each endpoint is the only reader of its queues). [`run_world`]
//! builds the mesh and hands each rank thread its [`Comm`].
//!
//! This is the *functional* backend used for real parallel runs
//! (examples, validation, threaded benches). Large-scale experiments
//! (hundreds–thousands of ranks) use the sequential cluster driver in
//! the `coupled` crate instead, with identical exchange semantics.
//!
//! Fault tolerance: the world carries a control plane — a per-rank
//! dead flag plus a breakable fault barrier — so a rank that fails can
//! [`Comm::abort`] and the rest of the world fails *promptly* with
//! [`CommError::PeerDead`] instead of hanging in a receive or a
//! barrier a dead rank can never reach. Receives are bounded by a
//! configurable timeout ([`Comm::set_recv_timeout`]) as the backstop
//! for genuinely stuck peers.

use crate::comm::{Comm, CommStats};
use crate::error::{CommError, CommResult};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};

/// Shared per-world control plane: which ranks are dead.
#[derive(Debug)]
pub(crate) struct WorldControl {
    dead: Vec<AtomicBool>,
}

impl WorldControl {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(WorldControl {
            dead: (0..n).map(|_| AtomicBool::new(false)).collect(),
        })
    }

    pub(crate) fn mark_dead(&self, rank: usize) {
        self.dead[rank].store(true, Ordering::SeqCst);
    }

    pub(crate) fn is_dead(&self, rank: usize) -> bool {
        self.dead[rank].load(Ordering::SeqCst)
    }
}

/// A breakable barrier: like [`std::sync::Barrier`], but a rank that
/// dies can break it, waking every waiter with an error — a dead rank
/// never arrives, so waiting for it would hang the world forever.
#[derive(Debug)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    /// `Some(rank)` once broken by `rank`'s death.
    broken_by: Option<usize>,
}

#[derive(Debug)]
pub(crate) struct FaultBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

impl FaultBarrier {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(FaultBarrier {
            n,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                broken_by: None,
            }),
            cv: Condvar::new(),
        })
    }

    pub(crate) fn wait(&self) -> CommResult<()> {
        let mut st = self.state.lock().map_err(|_| CommError::Poisoned)?;
        if let Some(peer) = st.broken_by {
            return Err(CommError::PeerDead { peer });
        }
        let gen = st.generation;
        st.arrived += 1;
        if st.arrived == self.n {
            st.arrived = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            return Ok(());
        }
        while st.generation == gen && st.broken_by.is_none() {
            st = self.cv.wait(st).map_err(|_| CommError::Poisoned)?;
        }
        // judge by generation first: if our round completed, a break
        // that happened *afterwards* belongs to a later round
        if st.generation != gen {
            return Ok(());
        }
        match st.broken_by {
            Some(peer) => Err(CommError::PeerDead { peer }),
            None => Ok(()),
        }
    }

    pub(crate) fn break_all(&self, by: usize) {
        if let Ok(mut st) = self.state.lock() {
            if st.broken_by.is_none() {
                st.broken_by = Some(by);
            }
        }
        self.cv.notify_all();
    }
}

/// Run `f(comm)` on `n` rank threads and collect the per-rank return
/// values in rank order. Panics in any rank propagate (communication
/// *faults* do not panic — they surface as [`CommError`] values from
/// the comm operations, which `f` is free to return).
pub fn run_world<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Comm) -> R + Sync,
{
    assert!(n >= 1);
    let stats = CommStats::new();
    let barrier = FaultBarrier::new(n);
    let control = WorldControl::new(n);

    // one channel per ordered pair: senders[i][j] sends i → j, and
    // receivers[j][i] is its reading end (rows fill in source order)
    let mut senders: Vec<Vec<Sender<Vec<u8>>>> = Vec::with_capacity(n);
    let mut receivers: Vec<Vec<Receiver<Vec<u8>>>> = (0..n).map(|_| Vec::new()).collect();
    for _ in 0..n {
        let mut row = Vec::with_capacity(n);
        for recv_row in receivers.iter_mut() {
            let (s, r) = channel();
            row.push(s);
            recv_row.push(r);
        }
        senders.push(row);
    }

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (rank, (to, from)) in senders.into_iter().zip(receivers).enumerate() {
            let comm = Comm::new(
                rank,
                to,
                from,
                barrier.clone(),
                control.clone(),
                stats.clone(),
            );
            let f = &f;
            handles.push(scope.spawn(move || f(comm)));
        }
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn ranks_see_their_ids() {
        let ids = run_world(4, |c| (c.rank(), c.size()));
        assert_eq!(ids, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn point_to_point_ring() {
        // each rank sends its id to the next rank and reports what it got
        let got = run_world(5, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            c.send(next, vec![c.rank() as u8]).unwrap();
            let m = c.recv(prev).unwrap();
            m[0] as usize
        });
        assert_eq!(got, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn source_matched_receive_ordering() {
        // rank 0 receives from 2 then 1; messages must be matched by
        // source regardless of arrival order
        let got = run_world(3, |c| match c.rank() {
            0 => {
                let a = c.recv(2).unwrap();
                let b = c.recv(1).unwrap();
                (a[0], b[0])
            }
            r => {
                c.send(0, vec![r as u8]).unwrap();
                (0, 0)
            }
        });
        assert_eq!(got[0], (2, 1));
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let out = run_world(2, |c| {
            if c.rank() == 0 {
                c.send(1, vec![0u8; 10]).unwrap();
            } else {
                let _ = c.recv(0).unwrap();
            }
            c.barrier().unwrap();
            (c.stats().transactions(), c.stats().bytes())
        });
        assert_eq!(out[0], (1, 10));
        assert_eq!(out[1], (1, 10));
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_world(8, |c| {
            counter.fetch_add(1, Ordering::SeqCst);
            c.barrier().unwrap();
            // after the barrier, every rank must see all increments
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn queued_messages_survive_peer_exit() {
        // rank 0 sends then exits immediately; rank 1 must still get
        // the message, and only *then* see the hangup
        let got = run_world(2, |c| {
            if c.rank() == 0 {
                c.send(1, vec![7]).unwrap();
                Ok(Vec::new())
            } else {
                std::thread::sleep(Duration::from_millis(20));
                c.recv(0)
            }
        });
        assert_eq!(got[1].as_deref().unwrap(), &[7]);
    }

    #[test]
    fn recv_from_exited_peer_is_peer_dead() {
        let got = run_world(2, |c| {
            if c.rank() == 0 {
                Ok(Vec::new()) // exit without sending
            } else {
                c.recv(0)
            }
        });
        assert_eq!(got[1], Err(CommError::PeerDead { peer: 0 }));
    }

    #[test]
    fn recv_times_out_without_sender() {
        let got = run_world(2, |mut c| {
            c.set_recv_timeout(Duration::from_millis(10));
            if c.rank() == 1 {
                let r = c.recv(0);
                c.barrier().unwrap(); // release rank 0
                r
            } else {
                c.barrier().unwrap(); // stay alive until rank 1 timed out
                Ok(Vec::new())
            }
        });
        assert_eq!(got[1], Err(CommError::Timeout { from: 0, seq: 0 }));
    }

    #[test]
    fn timeout_reports_the_pending_sequence() {
        // two messages delivered, then a stall: the timeout must name
        // the *third* (seq 2) as pending
        let got = run_world(2, |mut c| {
            c.set_recv_timeout(Duration::from_millis(10));
            if c.rank() == 1 {
                let a = c.recv(0);
                let b = c.recv(0);
                let stalled = c.recv(0);
                c.barrier().unwrap();
                (a.is_ok() && b.is_ok(), stalled)
            } else {
                c.send(1, vec![1]).unwrap();
                c.send(1, vec![2]).unwrap();
                c.barrier().unwrap();
                (true, Ok(Vec::new()))
            }
        });
        assert!(got[1].0);
        assert_eq!(got[1].1, Err(CommError::Timeout { from: 0, seq: 2 }));
    }

    #[test]
    fn a_declined_frame_stays_ahead_of_later_frames() {
        // rank 1 declines frame 1 twice; both the blocking recv and an
        // accepting try_recv_if must then see it before frame 2, and
        // the declines must not count as deliveries
        let got = run_world(2, |mut c| {
            c.set_recv_timeout(Duration::from_millis(10));
            if c.rank() == 0 {
                c.send(1, vec![1]).unwrap();
                c.send(1, vec![2]).unwrap();
                c.send(1, vec![3]).unwrap();
                c.barrier().unwrap();
                c.barrier().unwrap();
                Vec::new()
            } else {
                c.barrier().unwrap(); // all three frames are queued
                let reject = |m: &[u8]| m[0] != 1;
                assert_eq!(c.try_recv_if(0, reject), Ok(None));
                assert_eq!(c.try_recv_if(0, reject), Ok(None));
                let first = c.recv(0).unwrap();
                assert_eq!(c.try_recv_if(0, |m| m[0] != 2), Ok(None));
                let second = c.try_recv_if(0, |_| true).unwrap().unwrap();
                let third = c.recv(0).unwrap();
                // three delivered, so a fourth receive stalls at seq 3
                let stalled = c.recv(0);
                c.barrier().unwrap();
                assert_eq!(stalled, Err(CommError::Timeout { from: 0, seq: 3 }));
                vec![first[0], second[0], third[0]]
            }
        });
        assert_eq!(got[1], vec![1, 2, 3]);
    }

    #[test]
    fn epochs_advance_per_endpoint() {
        let epochs = run_world(2, |c| (c.next_epoch(), c.next_epoch(), c.next_epoch()));
        for e in epochs {
            assert_eq!(e, (0, 1, 2));
        }
    }

    #[test]
    fn abort_breaks_the_barrier_for_everyone() {
        let got = run_world(3, |c| {
            if c.rank() == 2 {
                std::thread::sleep(Duration::from_millis(10));
                c.abort();
                Err(CommError::Killed { rank: 2 })
            } else {
                c.barrier()
            }
        });
        assert_eq!(got[0], Err(CommError::PeerDead { peer: 2 }));
        assert_eq!(got[1], Err(CommError::PeerDead { peer: 2 }));
    }

    #[test]
    fn dead_rank_operations_fail_fast() {
        let got = run_world(2, |c| {
            if c.rank() == 0 {
                c.abort();
                // a killed endpoint refuses further traffic
                let send_err = c.send(1, vec![1]).unwrap_err();
                let barrier_err = c.barrier().unwrap_err();
                (send_err, barrier_err)
            } else {
                // peer-facing operations fail promptly, not at timeout
                let t0 = Instant::now();
                let e = loop {
                    if let Err(e) = c.recv(0) {
                        break e;
                    }
                };
                assert!(t0.elapsed() < Duration::from_secs(5));
                (e, e)
            }
        });
        assert_eq!(got[0].0, CommError::Killed { rank: 0 });
        assert_eq!(got[0].1, CommError::Killed { rank: 0 });
        assert_eq!(got[1].0, CommError::PeerDead { peer: 0 });
    }
}
