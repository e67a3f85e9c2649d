//! The per-rank endpoint and traffic accounting.
//!
//! The paper's solver uses MPI point-to-point messaging; here a
//! [`Comm`] is the per-rank endpoint of an in-process message-passing
//! world ([`crate::run_world`] makes one per rank thread). It is one
//! concrete type: the collectives and the particle-exchange strategies
//! take `&Comm`. Like MPI's, the transport is reliable and FIFO per
//! ordered pair of ranks.
//!
//! A payload is copied once: [`Comm::send`] takes the `Vec` by value,
//! so a caller that keeps its buffer copies it there, and a receive
//! hands the sent `Vec` over without another copy.
//!
//! Every operation is fallible: a dead peer, a stuck receive or a
//! poisoned shared structure surfaces as a [`CommError`] value instead
//! of a panic, so drivers can tear the world down and restart from a
//! checkpoint (see `coupled`'s recovery path).
//!
//! Every send is accounted in a shared [`CommStats`] so experiments
//! can report *transactions* (message count) and *bytes* — the two
//! quantities the paper's efficiency analysis (§IV-B.3) contrasts
//! between the centralized and distributed strategies.

use crate::error::{CommError, CommResult};
use crate::threaded::{FaultBarrier, WorldControl};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on a blocking receive. Generous: the clean path never
/// waits anywhere near this long, and fault tests shorten it.
pub const DEFAULT_RECV_TIMEOUT: Duration = Duration::from_secs(30);

/// Granularity of the receive poll loop: how often a blocked receive
/// re-checks the control plane (peer death) and its deadline.
const POLL_SLICE: Duration = Duration::from_millis(1);

/// Point-to-point message endpoint of one rank.
///
/// `recv(from)` is *matched by source*, mirroring
/// `MPI_Recv(source=from)`. Sends are buffered (eager) like small-
/// message MPI; the protocols implemented on top still follow the
/// paper's deadlock-avoidance ordering so they would also be correct
/// over a rendezvous transport.
pub struct Comm {
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
    /// Per source, the frame [`Comm::try_recv_if`] took off the channel
    /// and declined: still the head of that source's queue, so every
    /// receive matched against the source sees it first.
    head: Vec<Cell<Option<Vec<u8>>>>,
    /// Messages delivered per source so far — the per-pair sequence
    /// ordinal a stalled receive reports in [`CommError::Timeout`].
    recvd: Vec<Cell<u64>>,
    /// Collective-epoch counter. Endpoint state, *not* [`CommStats`]:
    /// the stats block is shared by the whole world, while epochs
    /// advance per rank.
    epoch: Cell<u64>,
}

impl Comm {
    /// The endpoint of rank `rank` over its channel row (`to[j]` sends
    /// to rank `j`, `from[j]` receives what rank `j` sent; one entry
    /// per rank of the world) and the world's shared control plane and
    /// counters.
    pub(crate) fn new(
        rank: usize,
        to: Vec<Sender<Vec<u8>>>,
        from: Vec<Receiver<Vec<u8>>>,
        barrier: Arc<FaultBarrier>,
        control: Arc<WorldControl>,
        stats: Arc<CommStats>,
    ) -> Self {
        let size = to.len();
        Comm {
            rank,
            size,
            to,
            from,
            barrier,
            control,
            stats,
            recv_timeout: DEFAULT_RECV_TIMEOUT,
            head: (0..size).map(|_| Cell::new(None)).collect(),
            recvd: (0..size).map(|_| Cell::new(0)).collect(),
            epoch: Cell::new(0),
        }
    }

    /// This rank's id, `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Bound every blocking receive on this endpoint by `timeout`
    /// (default [`DEFAULT_RECV_TIMEOUT`]). Past the bound, `recv`
    /// returns [`CommError::Timeout`] instead of blocking forever.
    pub fn set_recv_timeout(&mut self, timeout: Duration) {
        self.recv_timeout = timeout;
    }

    /// Send `msg` to rank `to`.
    pub fn send(&self, to: usize, msg: Vec<u8>) -> CommResult<()> {
        self.check_alive(to)?;
        self.stats.record(msg.len());
        self.to[to]
            .send(msg)
            .map_err(|_| CommError::PeerDead { peer: to })
    }

    /// Receive the next message sent by rank `from`, waiting for it.
    pub fn recv(&self, from: usize) -> CommResult<Vec<u8>> {
        if let Some(m) = self.head[from].take() {
            return Ok(self.delivered(from, m));
        }
        let deadline = Instant::now() + self.recv_timeout;
        loop {
            // a queued message wins even over a freshly-dead peer: it
            // was sent while the peer was alive
            match self.from[from].try_recv() {
                Ok(m) => return Ok(self.delivered(from, m)),
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
                Ok(m) => return Ok(self.delivered(from, m)),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::PeerDead { peer: from })
                }
            }
        }
    }

    /// Non-blocking, filtered receive: the next message rank `from`
    /// sent us, if one is already queued and `accept` likes its bytes.
    /// A message `accept` declines stays at the head of `from`'s queue,
    /// ahead of everything sent after it, and is not counted as
    /// delivered. `Ok(None)` = nothing acceptable queued. Callers must
    /// fence with [`Comm::barrier`] to know the set of queued messages
    /// is complete: the fence-and-drain protocols (the sparse counts
    /// round, the Hier phases) read "none" as "this source posted
    /// nothing this round", and decline a frame that belongs to a
    /// later round or phase.
    pub fn try_recv_if(
        &self,
        from: usize,
        accept: impl FnOnce(&[u8]) -> bool,
    ) -> CommResult<Option<Vec<u8>>> {
        let frame = match self.head[from].take() {
            Some(m) => m,
            None => match self.from[from].try_recv() {
                Ok(m) => m,
                // nothing queued — and a disconnected channel is the
                // normal exit of the peer thread: for a fenced drain
                // that *is* the zero
                Err(_) if !self.control.is_dead(from) => return Ok(None),
                Err(_) => return Err(CommError::PeerDead { peer: from }),
            },
        };
        if accept(&frame) {
            Ok(Some(self.delivered(from, frame)))
        } else {
            self.head[from].set(Some(frame));
            Ok(None)
        }
    }

    /// Block until every rank has entered the barrier (or the world
    /// has failed: a dead rank can never arrive, so a broken barrier
    /// reports the failure instead of hanging).
    pub fn barrier(&self) -> CommResult<()> {
        if self.control.is_dead(self.rank) {
            return Err(CommError::Killed { rank: self.rank });
        }
        self.barrier.wait()
    }

    /// Declare this rank dead to the rest of the world (peers' pending
    /// and future operations involving it fail promptly with
    /// [`CommError::PeerDead`] instead of hanging). Called when a rank
    /// fails, so the world collapses deterministically.
    pub fn abort(&self) {
        self.control.mark_dead(self.rank);
        self.barrier.break_all(self.rank);
    }

    /// Shared traffic statistics for the whole world.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Per-endpoint collective-epoch counter: returns the current
    /// epoch and advances it. Matched collectives call this exactly
    /// once per rank per round, so all endpoints stay in lockstep and
    /// an early frame from round `E+1` can be told apart from round
    /// `E`'s.
    pub(crate) fn next_epoch(&self) -> u64 {
        let e = self.epoch.get();
        self.epoch.set(e.wrapping_add(1));
        e
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

    /// Count `msg` as delivered from `from` and hand it over.
    fn delivered(&self, from: usize, msg: Vec<u8>) -> Vec<u8> {
        self.recvd[from].set(self.recvd[from].get() + 1);
        msg
    }
}

/// World-wide traffic counters (lock-free).
#[derive(Debug, Default)]
pub struct CommStats {
    transactions: AtomicU64,
    bytes: AtomicU64,
}

impl CommStats {
    pub fn new() -> Arc<Self> {
        Arc::new(CommStats::default())
    }

    /// Record one message of `len` bytes.
    #[inline]
    pub fn record(&self, len: usize) {
        self.transactions.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(len as u64, Ordering::Relaxed);
    }

    /// Total messages sent in this world so far.
    pub fn transactions(&self) -> u64 {
        self.transactions.load(Ordering::Relaxed)
    }

    /// Total bytes sent in this world so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Reset both counters (between experiment phases).
    pub fn reset(&self) {
        self.transactions.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_and_reset() {
        let s = CommStats::new();
        s.record(100);
        s.record(28);
        assert_eq!(s.transactions(), 2);
        assert_eq!(s.bytes(), 128);
        s.reset();
        assert_eq!(s.transactions(), 0);
        assert_eq!(s.bytes(), 0);
    }
}
