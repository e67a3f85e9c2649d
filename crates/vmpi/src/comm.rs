//! The communicator abstraction and traffic accounting.
//!
//! The paper's solver uses MPI point-to-point messaging; here a
//! [`Comm`] is the per-rank endpoint of an in-process message-passing
//! world. Algorithms (collectives, the two particle-exchange
//! strategies) are written against the trait so they run unchanged on
//! the threaded backend and in tests. Like MPI's, the transport is
//! reliable and FIFO per ordered pair of ranks.
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

#[allow(unused_imports)] // doc links
use crate::error::CommError;
use crate::error::CommResult;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Point-to-point message transport for one rank.
///
/// `recv(from)` is *matched by source*, mirroring
/// `MPI_Recv(source=from)`. Sends are buffered (eager) like small-
/// message MPI; the protocols implemented on top still follow the
/// paper's deadlock-avoidance ordering so they would also be correct
/// over a rendezvous transport.
pub trait Comm {
    /// This rank's id, `0..size`.
    fn rank(&self) -> usize;
    /// Number of ranks in the world.
    fn size(&self) -> usize;
    /// Send `msg` to rank `to`.
    fn send(&self, to: usize, msg: Vec<u8>) -> CommResult<()>;
    /// Receive the next message sent by rank `from`.
    fn recv(&self, from: usize) -> CommResult<Vec<u8>>;
    /// Non-blocking receive: the next message rank `from` sent us, if
    /// one is already queued (`Ok(None)` = nothing queued). Callers
    /// must fence with [`Comm::barrier`] to know the set of queued
    /// messages is complete (used by the sparse counts round, where
    /// "no message" means "zero bytes").
    fn try_recv(&self, from: usize) -> CommResult<Option<Vec<u8>>>;
    /// Send from a borrowed slice. Transports that must own their
    /// payload copy here; the caller's buffer stays available for
    /// reuse, which is what keeps the exchange path allocation-free in
    /// steady state.
    fn send_from(&self, to: usize, msg: &[u8]) -> CommResult<()> {
        self.send(to, msg.to_vec())
    }
    /// Receive into a caller-supplied buffer (cleared first, capacity
    /// retained). The reusable-buffer counterpart of [`Comm::recv`].
    fn recv_into(&self, from: usize, buf: &mut Vec<u8>) -> CommResult<()> {
        let msg = self.recv(from)?;
        buf.clear();
        buf.extend_from_slice(&msg);
        Ok(())
    }
    /// Block until every rank has entered the barrier (or the world
    /// has failed: a dead rank can never arrive, so a broken barrier
    /// reports the failure instead of hanging).
    fn barrier(&self) -> CommResult<()>;
    /// Declare this rank dead to the rest of the world (peers' pending
    /// and future operations involving it fail promptly with
    /// [`CommError::PeerDead`] instead of hanging). Called when a rank
    /// fails, so the world collapses deterministically.
    fn abort(&self);
    /// Shared traffic statistics for the whole world.
    fn stats(&self) -> &CommStats;

    /// Return an already-received message to the *front* of the
    /// receive queue for `from` (MPI's unexpected-message queue): the
    /// next `recv`/`try_recv` matched against `from` yields it first.
    /// Used by fence-and-drain protocols that probe a source and find
    /// a frame belonging to a later round.
    fn pushback(&self, from: usize, msg: Vec<u8>);

    /// Per-endpoint collective-epoch counter: returns the current
    /// epoch and advances it. Matched collectives call this exactly
    /// once per rank per round, so all endpoints stay in lockstep and
    /// an early frame from round `E+1` can be told apart from round
    /// `E`'s.
    fn next_epoch(&self) -> u64;
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
