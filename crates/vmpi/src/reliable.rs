//! The reliability sublayer: exactly-once, in-order delivery over a
//! lossy, duplicating, reordering transport.
//!
//! [`ReliableComm`] frames every message with a per-ordered-pair
//! sequence number and, on the receive side, restores the sender's
//! order:
//!
//! * **dedup** — a frame with a sequence number below the expected one
//!   has already been consumed (a duplicate); it is counted and
//!   discarded.
//! * **reorder** — a frame from the future is stashed in a per-source
//!   buffer until its turn comes.
//! * **retransmission** — every sent payload is journaled in the
//!   world-shared [`ReliableWorld`] *before* it touches the wire. A
//!   receive that exhausts its patience polls the journal: if the
//!   expected sequence number is journaled, the message was posted and
//!   lost in flight — the journal copy is consumed (a *retry*). The
//!   journal plays the role of MPI's sender-side retransmit queue; in
//!   an in-process world the receiver can read it directly.
//!
//! Retries back off exponentially and are bounded; exhausting them is
//! [`CommError::Timeout`]. Because journaling happens before the send,
//! "expected seq present in the journal" is ground truth for "the
//! message was posted" — which also makes the barrier-fenced
//! [`try_recv`](Comm::try_recv) drain of the sparse counts round
//! fault-tolerant: after the fence, a missing wire message with a
//! journaled expected seq *is* the dropped message, and an absent
//! journal entry *is* the zero.
//!
//! Determinism: the layer delivers exactly the sequence of payloads
//! the sender posted, in posting order, each exactly once — the
//! protocols above observe bit-for-bit the traffic of a clean run, so
//! the physics cannot tell the transport was lossy.

use crate::comm::{Comm, CommStats};
use crate::error::{take_u64, CommError, CommResult};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Journal depth per ordered pair: how many recent sends stay
/// recoverable. Collective rounds are fenced, so in-flight depth per
/// pair is tiny; this bound only guards memory under pathological
/// traffic.
const JOURNAL_DEPTH: usize = 1024;

/// One pair's send journal: recent `(seq, payload)` entries, newest
/// last, available for retransmission until evicted by depth.
type Journal = Mutex<VecDeque<(u64, Arc<Vec<u8>>)>>;

/// World-shared reliability state: the per-pair send journals and the
/// fault counters. Shared by every rank's [`ReliableComm`] and kept
/// across recovery attempts (counters are cumulative run totals;
/// journals are [`reset`](ReliableWorld::reset) because a fresh world
/// restarts its sequence numbers).
#[derive(Debug)]
pub struct ReliableWorld {
    n: usize,
    /// `journals[src * n + dst]`: recent `(seq, payload)` sends.
    journals: Vec<Journal>,
    retries: AtomicU64,
    dedup_dropped: AtomicU64,
}

impl ReliableWorld {
    /// Reliability state for an `n`-rank world.
    pub fn new(n: usize) -> Arc<Self> {
        Arc::new(ReliableWorld {
            n,
            journals: (0..n * n).map(|_| Mutex::new(VecDeque::new())).collect(),
            retries: AtomicU64::new(0),
            dedup_dropped: AtomicU64::new(0),
        })
    }

    fn journal(&self, src: usize, dst: usize) -> &Journal {
        &self.journals[src * self.n + dst]
    }

    fn push(&self, src: usize, dst: usize, seq: u64, payload: Arc<Vec<u8>>) -> CommResult<()> {
        let mut j = self
            .journal(src, dst)
            .lock()
            .map_err(|_| CommError::Poisoned)?;
        j.push_back((seq, payload));
        while j.len() > JOURNAL_DEPTH {
            j.pop_front();
        }
        Ok(())
    }

    fn lookup(&self, src: usize, dst: usize, seq: u64) -> CommResult<Option<Arc<Vec<u8>>>> {
        let j = self
            .journal(src, dst)
            .lock()
            .map_err(|_| CommError::Poisoned)?;
        Ok(j.iter().find(|&&(s, _)| s == seq).map(|(_, p)| p.clone()))
    }

    /// Clear every journal for a fresh world (recovery replay restarts
    /// per-pair sequence numbers at zero). Counters persist: they are
    /// cumulative totals for the whole run including its recoveries.
    pub fn reset(&self) {
        for j in &self.journals {
            if let Ok(mut j) = j.lock() {
                j.clear();
            }
        }
    }

    /// Receives recovered from the journal after the wire lost them.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Duplicate frames discarded on the receive side.
    pub fn dedup_dropped(&self) -> u64 {
        self.dedup_dropped.load(Ordering::Relaxed)
    }
}

/// A [`Comm`] that adds sequence numbers, dedup, reordering and
/// journal-based retransmission on top of any transport (normally a
/// [`ChaosComm`](crate::ChaosComm)).
///
/// One endpoint serves one rank thread (interior state is `Cell`-
/// based, matching the one-thread-per-rank usage of every transport in
/// this crate).
pub struct ReliableComm<C: Comm> {
    inner: C,
    world: Arc<ReliableWorld>,
    /// Next sequence number to stamp, per destination.
    send_seq: Vec<Cell<u64>>,
    /// Next sequence number expected, per source.
    expect_seq: Vec<Cell<u64>>,
    /// Out-of-order frames parked until their turn, per source.
    reorder: Vec<RefCell<BTreeMap<u64, Vec<u8>>>>,
    /// Decoded payloads returned by [`Comm::pushback`], per source,
    /// redelivered ahead of the wire. These already passed the seq
    /// machinery once, so redelivery must not re-enter it.
    unreceived: Vec<RefCell<VecDeque<Vec<u8>>>>,
    /// How long to poll the wire before consulting the journal.
    patience: Duration,
    /// Bounded retry budget for one receive.
    max_retries: u32,
}

impl<C: Comm> ReliableComm<C> {
    /// Wrap `inner` with reliability state from `world`.
    pub fn new(inner: C, world: Arc<ReliableWorld>) -> Self {
        assert_eq!(
            world.n,
            inner.size(),
            "reliable world sized for another world"
        );
        let n = inner.size();
        ReliableComm {
            inner,
            world,
            send_seq: (0..n).map(|_| Cell::new(0)).collect(),
            expect_seq: (0..n).map(|_| Cell::new(0)).collect(),
            reorder: (0..n).map(|_| RefCell::new(BTreeMap::new())).collect(),
            unreceived: (0..n).map(|_| RefCell::new(VecDeque::new())).collect(),
            patience: Duration::from_millis(1),
            max_retries: 20,
        }
    }

    /// Override how long a receive polls the wire before each journal
    /// consultation (default 1 ms).
    pub fn with_patience(mut self, patience: Duration) -> Self {
        self.patience = patience;
        self
    }

    /// Override the bounded retry budget per receive (default 20).
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// The shared reliability state (for counters).
    pub fn world(&self) -> &Arc<ReliableWorld> {
        &self.world
    }

    /// Classify one wire frame against `expect` for `from`: consume,
    /// dedup-discard, or park. Returns the payload if it was the
    /// expected frame.
    fn absorb(&self, from: usize, frame: Vec<u8>) -> CommResult<Option<Vec<u8>>> {
        let mut cur = frame.as_slice();
        let seq = take_u64(&mut cur, "reliable seq header")?;
        let expect = self.expect_seq[from].get();
        if seq == expect {
            self.expect_seq[from].set(expect + 1);
            Ok(Some(cur.to_vec()))
        } else if seq < expect {
            self.world.dedup_dropped.fetch_add(1, Ordering::Relaxed);
            Ok(None)
        } else {
            self.reorder[from].borrow_mut().insert(seq, cur.to_vec());
            Ok(None)
        }
    }

    /// The expected frame, if already parked in the reorder buffer.
    fn take_parked(&self, from: usize) -> Option<Vec<u8>> {
        let expect = self.expect_seq[from].get();
        let got = self.reorder[from].borrow_mut().remove(&expect);
        if got.is_some() {
            self.expect_seq[from].set(expect + 1);
        }
        got
    }

    /// The expected frame, if the journal proves it was posted.
    fn take_journaled(&self, from: usize) -> CommResult<Option<Vec<u8>>> {
        let expect = self.expect_seq[from].get();
        if let Some(payload) = self.world.lookup(from, self.inner.rank(), expect)? {
            self.world.retries.fetch_add(1, Ordering::Relaxed);
            self.expect_seq[from].set(expect + 1);
            Ok(Some(payload.as_ref().clone()))
        } else {
            Ok(None)
        }
    }
}

impl<C: Comm> Comm for ReliableComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: usize, msg: Vec<u8>) -> CommResult<()> {
        let seq = self.send_seq[to].get();
        self.send_seq[to].set(seq + 1);
        let mut frame = Vec::with_capacity(8 + msg.len());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&msg);
        // journal BEFORE the wire: once the journal holds seq, the
        // message is recoverable no matter what the transport does
        self.world.push(self.inner.rank(), to, seq, Arc::new(msg))?;
        self.inner.send(to, frame)
    }

    fn recv(&self, from: usize) -> CommResult<Vec<u8>> {
        if let Some(m) = self.unreceived[from].borrow_mut().pop_front() {
            return Ok(m);
        }
        if let Some(m) = self.take_parked(from) {
            return Ok(m);
        }
        let mut attempt = 0u32;
        let mut patience = self.patience;
        let mut deadline = Instant::now() + patience;
        loop {
            match self.inner.try_recv(from)? {
                Some(frame) => {
                    if let Some(m) = self.absorb(from, frame)? {
                        return Ok(m);
                    }
                    // progress was made (dedup or park) — keep polling
                    continue;
                }
                None => {
                    if Instant::now() >= deadline {
                        if let Some(m) = self.take_journaled(from)? {
                            return Ok(m);
                        }
                        attempt += 1;
                        if attempt > self.max_retries {
                            return Err(CommError::Timeout {
                                from,
                                seq: self.expect_seq[from].get(),
                            });
                        }
                        // exponential backoff, bounded per attempt
                        patience = (patience * 2).min(Duration::from_millis(100));
                        deadline = Instant::now() + patience;
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }

    fn try_recv(&self, from: usize) -> CommResult<Option<Vec<u8>>> {
        if let Some(m) = self.unreceived[from].borrow_mut().pop_front() {
            return Ok(Some(m));
        }
        if let Some(m) = self.take_parked(from) {
            return Ok(Some(m));
        }
        // drain whatever the wire already holds
        while let Some(frame) = self.inner.try_recv(from)? {
            if let Some(m) = self.absorb(from, frame)? {
                return Ok(Some(m));
            }
            if let Some(m) = self.take_parked(from) {
                return Ok(Some(m));
            }
        }
        // wire empty: callers fence with barriers (sparse counts
        // round), so a journaled expected seq is a posted-and-lost
        // message, and no journal entry is a genuine "no message"
        self.take_journaled(from)
    }

    fn barrier(&self) -> CommResult<()> {
        self.inner.barrier()
    }

    fn on_step(&self, step: usize) -> CommResult<()> {
        self.inner.on_step(step)
    }

    fn abort(&self) {
        self.inner.abort()
    }

    fn stats(&self) -> &CommStats {
        self.inner.stats()
    }

    fn pushback(&self, from: usize, msg: Vec<u8>) {
        // `msg` is a decoded payload that already consumed its seq;
        // park it locally instead of delegating, or the inner layer
        // would try to re-parse a seq header that is no longer there
        self.unreceived[from].borrow_mut().push_front(msg);
    }

    fn next_epoch(&self) -> u64 {
        self.inner.next_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosComm, ChaosWorld, FaultAction, FaultPlan};
    use crate::exchange::{exchange_into, Strategy};
    use crate::threaded::run_world;

    fn lossy_pair_world(plan: FaultPlan) -> (Arc<ChaosWorld>, Arc<ReliableWorld>) {
        (ChaosWorld::new(plan, 2), ReliableWorld::new(2))
    }

    #[test]
    fn dropped_message_is_recovered_from_the_journal() {
        let (cw, rw) = lossy_pair_world(FaultPlan::seeded(0).action(0, 1, 0, FaultAction::Drop));
        let (cw2, rw2) = (cw.clone(), rw.clone());
        let out = run_world(2, move |c| {
            let c = ReliableComm::new(ChaosComm::new(c, cw2.clone()), rw2.clone())
                .with_patience(Duration::from_millis(1));
            if c.rank() == 0 {
                c.send(1, vec![10]).unwrap();
                c.send(1, vec![20]).unwrap();
                c.barrier().unwrap();
                Vec::new()
            } else {
                let a = c.recv(0).unwrap();
                let b = c.recv(0).unwrap();
                c.barrier().unwrap();
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[1], vec![10, 20], "drop is invisible above the layer");
        assert_eq!(cw.injected_drops(), 1);
        assert!(rw.retries() >= 1, "recovery must go through the journal");
    }

    #[test]
    fn duplicate_is_deduped() {
        let (cw, rw) =
            lossy_pair_world(FaultPlan::seeded(0).action(0, 1, 0, FaultAction::Duplicate));
        let (cw2, rw2) = (cw.clone(), rw.clone());
        let out = run_world(2, move |c| {
            let c = ReliableComm::new(ChaosComm::new(c, cw2.clone()), rw2.clone());
            if c.rank() == 0 {
                c.send(1, vec![1]).unwrap();
                c.send(1, vec![2]).unwrap();
                c.barrier().unwrap();
                Vec::new()
            } else {
                let a = c.recv(0).unwrap();
                let b = c.recv(0).unwrap();
                // nothing further may be queued after the barrier
                c.barrier().unwrap();
                assert_eq!(c.try_recv(0).unwrap(), None);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[1], vec![1, 2]);
        assert_eq!(cw.injected_dups(), 1);
        assert_eq!(rw.dedup_dropped(), 1, "the extra copy is discarded");
    }

    #[test]
    fn reordered_messages_are_resequenced() {
        // delay msg 0 past msgs 1 and 2: the wire order is 1,2,0 but
        // the layer must deliver 0,1,2
        let (cw, rw) =
            lossy_pair_world(FaultPlan::seeded(0).action(0, 1, 0, FaultAction::Delay(2)));
        let (cw2, rw2) = (cw.clone(), rw.clone());
        let out = run_world(2, move |c| {
            let c = ReliableComm::new(ChaosComm::new(c, cw2.clone()), rw2.clone());
            if c.rank() == 0 {
                for v in [5u8, 6, 7] {
                    c.send(1, vec![v]).unwrap();
                }
                c.barrier().unwrap();
                Vec::new()
            } else {
                let got: Vec<u8> = (0..3).map(|_| c.recv(0).unwrap()[0]).collect();
                c.barrier().unwrap();
                got
            }
        });
        assert_eq!(out[1], vec![5, 6, 7], "sender order restored");
        assert_eq!(cw.injected_delays(), 1);
    }

    #[test]
    fn fenced_try_recv_sees_journal_truth() {
        // the single counts-style message is dropped; after the fence,
        // try_recv must recover it from the journal — and a pair that
        // posted nothing must stay None
        let (cw, rw) = lossy_pair_world(FaultPlan::seeded(0).action(0, 1, 0, FaultAction::Drop));
        let (cw2, rw2) = (cw.clone(), rw.clone());
        let out = run_world(2, move |c| {
            let c = ReliableComm::new(ChaosComm::new(c, cw2.clone()), rw2.clone());
            if c.rank() == 0 {
                c.send(1, vec![42]).unwrap();
            }
            c.barrier().unwrap();
            let got = if c.rank() == 1 {
                let m = c.try_recv(0).unwrap();
                assert_eq!(c.try_recv(0).unwrap(), None, "only one message posted");
                m
            } else {
                // rank 1 posted nothing: genuine zero
                assert_eq!(c.try_recv(1).unwrap(), None);
                None
            };
            c.barrier().unwrap();
            got
        });
        assert_eq!(out[1].as_deref(), Some(&[42u8][..]));
        assert!(rw.retries() >= 1);
    }

    #[test]
    fn missing_message_times_out_with_bounded_retries() {
        let rw = ReliableWorld::new(2);
        let rw2 = rw.clone();
        let out = run_world(2, move |c| {
            let c = ReliableComm::new(c, rw2.clone())
                .with_patience(Duration::from_micros(200))
                .with_max_retries(3);
            if c.rank() == 1 {
                let r = c.recv(0); // never sent, never journaled
                c.barrier().unwrap();
                r
            } else {
                c.barrier().unwrap();
                Ok(Vec::new())
            }
        });
        assert_eq!(out[1], Err(CommError::Timeout { from: 0, seq: 0 }));
    }

    #[test]
    fn short_frame_is_malformed() {
        let rw = ReliableWorld::new(2);
        let rw2 = rw.clone();
        let out = run_world(2, move |c| {
            if c.rank() == 0 {
                // bypass the reliable layer: a 3-byte frame cannot
                // carry the 8-byte seq header
                c.send(1, vec![1, 2, 3]).unwrap();
                Ok(Vec::new())
            } else {
                ReliableComm::new(c, rw2.clone()).recv(0)
            }
        });
        assert_eq!(
            out[1],
            Err(CommError::Malformed {
                what: "reliable seq header"
            })
        );
    }

    #[test]
    fn poisoned_journal_reports_poisoned() {
        let rw = ReliableWorld::new(2);
        // poison the 0→1 journal lock by panicking while holding it
        {
            let rw = rw.clone();
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                let _guard = rw.journal(0, 1).lock().unwrap();
                panic!("poison the lock");
            }));
        }
        assert_eq!(rw.lookup(0, 1, 0), Err(CommError::Poisoned));
        assert_eq!(
            rw.push(0, 1, 0, Arc::new(Vec::new())),
            Err(CommError::Poisoned)
        );
        // other pairs are unaffected
        assert_eq!(rw.lookup(1, 0, 0), Ok(None));
    }

    #[test]
    fn every_strategy_survives_a_seeded_lossy_transport() {
        // heavy seeded chaos under full all-to-all payload traffic:
        // the delivered buffers must equal the clean run's exactly
        fn payload(src: usize, dst: usize) -> Vec<u8> {
            vec![(src * 16 + dst) as u8; (src + 1) * (dst + 2)]
        }
        for strategy in Strategy::CONCRETE {
            for n in [2usize, 3, 5] {
                // seeded rates plus one pinned duplicate so even the
                // low-traffic cases (CC at n=2) provably inject
                let plan = FaultPlan::seeded(0xC0FFEE)
                    .drops(60)
                    .dups(60)
                    .delays(60, 3)
                    .action(1, 0, 0, FaultAction::Duplicate);
                let cw = ChaosWorld::new(plan, n);
                let rw = ReliableWorld::new(n);
                let (cw2, rw2) = (cw.clone(), rw.clone());
                let results = run_world(n, move |c| {
                    let c = ReliableComm::new(ChaosComm::new(c, cw2.clone()), rw2.clone());
                    let mut outgoing: Vec<Vec<u8>> =
                        (0..c.size()).map(|dst| payload(c.rank(), dst)).collect();
                    let mut inc = Vec::new();
                    exchange_into(&c, strategy, &mut outgoing, &mut inc).unwrap();
                    c.barrier().unwrap();
                    inc
                });
                for (dst, incoming) in results.iter().enumerate() {
                    for (src, buf) in incoming.iter().enumerate() {
                        assert_eq!(buf, &payload(src, dst), "{strategy:?} n={n} {src}->{dst}");
                    }
                }
                assert!(
                    cw.injected_total() > 0,
                    "{strategy:?} n={n}: plan injected nothing — test is vacuous"
                );
            }
        }
    }
}
