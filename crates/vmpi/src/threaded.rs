//! Threaded world: each rank is an OS thread, transport is a full
//! mesh of `std::sync::mpsc` channels (one per ordered rank pair, so
//! each endpoint is the only reader of its queues).
//!
//! This is the *functional* backend used for real parallel runs
//! (examples, validation, threaded benches). Large-scale experiments
//! (hundreds–thousands of ranks) use the sequential cluster driver in
//! the `coupled` crate instead, with identical exchange semantics.
//!
//! Fault tolerance: the world carries a control plane — a per-rank
//! dead flag plus a breakable fault barrier — so a rank that
//! latches an unrecoverable fault can [`Comm::abort`] and the rest of
//! the world fails *promptly* with [`CommError::PeerDead`] instead of
//! hanging in a receive or a barrier a dead rank can never reach.
//! Receives are bounded by a configurable timeout
//! ([`ThreadComm::set_recv_timeout`]) as the backstop for genuinely
//! stuck peers.

use crate::comm::{Comm, CommStats};
use crate::error::{CommError, CommResult};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default bound on a blocking receive. Generous: the clean path never
/// waits anywhere near this long, and fault tests shorten it.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Granularity of the receive poll loop: how often a blocked receive
/// re-checks the control plane (peer death) and its deadline.
const POLL_SLICE: Duration = Duration::from_millis(1);

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

    fn mark_dead(&self, rank: usize) {
        self.dead[rank].store(true, Ordering::SeqCst);
    }

    fn is_dead(&self, rank: usize) -> bool {
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

    fn wait(&self) -> CommResult<()> {
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

    fn break_all(&self, by: usize) {
        if let Ok(mut st) = self.state.lock() {
            if st.broken_by.is_none() {
                st.broken_by = Some(by);
            }
        }
        self.cv.notify_all();
    }
}

/// Per-rank endpoint of a threaded world.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    /// `to[j]` sends to rank `j` (our dedicated (i→j) channel).
    to: Vec<Sender<Vec<u8>>>,
    /// `from[j]` receives messages rank `j` sent us.
    from: Vec<Receiver<Vec<u8>>>,
    barrier: Arc<FaultBarrier>,
    control: Arc<WorldControl>,
    stats: Arc<CommStats>,
    recv_timeout: Duration,
    /// Per-source unexpected-message queue ([`Comm::pushback`]):
    /// consulted *before* the channel, so a parked frame is re-matched
    /// first (front = oldest). Endpoint-local, hence `RefCell`.
    parked: Vec<RefCell<VecDeque<Vec<u8>>>>,
    /// Messages delivered per source so far — the per-pair sequence
    /// ordinal a stalled receive reports in [`CommError::Timeout`].
    recvd: Vec<Cell<u64>>,
    /// Collective-epoch counter ([`Comm::next_epoch`]). Endpoint
    /// state, *not* [`CommStats`]: the stats block is shared by the
    /// whole world, while epochs advance per rank.
    epoch: Cell<u64>,
}

impl ThreadComm {
    /// Bound every blocking receive on this endpoint by `timeout`
    /// (default [`DEFAULT_RECV_TIMEOUT`]). Past the bound, `recv`
    /// returns [`CommError::Timeout`] instead of blocking forever.
    pub fn set_recv_timeout(&mut self, timeout: Duration) {
        self.recv_timeout = timeout;
    }

    fn check_alive(&self, peer: usize) -> CommResult<()> {
        if self.control.is_dead(self.rank) {
            return Err(CommError::Killed { rank: self.rank });
        }
        if self.control.is_dead(peer) {
            return Err(CommError::PeerDead { peer });
        }
        Ok(())
    }

    /// Pop the oldest parked (pushed-back) message from `from`, if any,
    /// bumping the delivery ordinal.
    fn take_parked(&self, from: usize) -> Option<Vec<u8>> {
        let msg = self.parked[from].borrow_mut().pop_front();
        if msg.is_some() {
            self.recvd[from].set(self.recvd[from].get() + 1);
        }
        msg
    }

    /// Record a channel delivery from `from`.
    fn note_delivery(&self, from: usize) {
        self.recvd[from].set(self.recvd[from].get() + 1);
    }
}

impl Comm for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: usize, msg: Vec<u8>) -> CommResult<()> {
        self.check_alive(to)?;
        self.stats.record(msg.len());
        self.to[to]
            .send(msg)
            .map_err(|_| CommError::PeerDead { peer: to })
    }

    fn recv(&self, from: usize) -> CommResult<Vec<u8>> {
        if let Some(m) = self.take_parked(from) {
            return Ok(m);
        }
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            // a queued message wins even over a freshly-dead peer: it
            // was sent while the peer was alive
            match self.from[from].try_recv() {
                Ok(m) => {
                    self.note_delivery(from);
                    return Ok(m);
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => return Err(CommError::PeerDead { peer: from }),
            }
            self.check_alive(from)?;
            if Instant::now() >= deadline {
                return Err(CommError::Timeout {
                    from,
                    seq: self.recvd[from].get(),
                });
            }
            match self.from[from].recv_timeout(POLL_SLICE) {
                Ok(m) => {
                    self.note_delivery(from);
                    return Ok(m);
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::PeerDead { peer: from })
                }
            }
        }
    }

    fn try_recv(&self, from: usize) -> CommResult<Option<Vec<u8>>> {
        if let Some(m) = self.take_parked(from) {
            return Ok(Some(m));
        }
        match self.from[from].try_recv() {
            Ok(m) => {
                self.note_delivery(from);
                Ok(Some(m))
            }
            Err(TryRecvError::Empty) => {
                if self.control.is_dead(from) {
                    Err(CommError::PeerDead { peer: from })
                } else {
                    Ok(None)
                }
            }
            // normal exit of the peer thread with nothing queued: for
            // the fenced sparse-counts drain this *is* the zero
            Err(TryRecvError::Disconnected) => {
                if self.control.is_dead(from) {
                    Err(CommError::PeerDead { peer: from })
                } else {
                    Ok(None)
                }
            }
        }
    }

    fn pushback(&self, from: usize, msg: Vec<u8>) {
        // the message goes back to the *front* of the matched queue,
        // and its delivery is retracted from the ordinal
        self.parked[from].borrow_mut().push_front(msg);
        let n = self.recvd[from].get();
        self.recvd[from].set(n.saturating_sub(1));
    }

    fn next_epoch(&self) -> u64 {
        let e = self.epoch.get();
        self.epoch.set(e.wrapping_add(1));
        e
    }

    fn barrier(&self) -> CommResult<()> {
        if self.control.is_dead(self.rank) {
            return Err(CommError::Killed { rank: self.rank });
        }
        self.barrier.wait()
    }

    fn abort(&self) {
        self.control.mark_dead(self.rank);
        self.barrier.break_all(self.rank);
    }

    fn stats(&self) -> &CommStats {
        &self.stats
    }
}

/// Run `f(comm)` on `n` rank threads and collect the per-rank return
/// values in rank order. Panics in any rank propagate (communication
/// *faults* do not panic — they surface as [`CommError`] values from
/// the comm operations, which `f` is free to return).
pub fn run_world<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(ThreadComm) -> R + Sync,
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

    let mut comms: Vec<ThreadComm> = Vec::with_capacity(n);
    for (rank, (to, from)) in senders.into_iter().zip(receivers).enumerate() {
        comms.push(ThreadComm {
            rank,
            size: n,
            to,
            from,
            barrier: barrier.clone(),
            control: control.clone(),
            stats: stats.clone(),
            recv_timeout: DEFAULT_RECV_TIMEOUT,
            parked: (0..n).map(|_| RefCell::new(VecDeque::new())).collect(),
            recvd: (0..n).map(|_| Cell::new(0)).collect(),
            epoch: Cell::new(0),
        });
    }

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for comm in comms {
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
    fn pushback_requeues_at_the_front() {
        let got = run_world(2, |c| {
            if c.rank() == 0 {
                c.send(1, vec![1]).unwrap();
                c.send(1, vec![2]).unwrap();
                Vec::new()
            } else {
                let first = c.recv(0).unwrap();
                c.pushback(0, first); // unreceive
                                      // both recv and try_recv must see the parked frame first
                let again = c.try_recv(0).unwrap().unwrap();
                let second = c.recv(0).unwrap();
                vec![again[0], second[0]]
            }
        });
        assert_eq!(got[1], vec![1, 2]);
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
