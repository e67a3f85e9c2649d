//! Deterministic fault injection under the [`Comm`] trait.
//!
//! A [`FaultPlan`] describes, reproducibly from a seed, which messages
//! of a run are dropped, duplicated or delay-reordered — per ordered
//! `(src, dst, message-index)` — plus rank-stall and rank-kill events
//! scheduled at chosen engine steps. [`ChaosComm`] wraps any transport
//! and applies the plan at send time, so the layers above (the
//! reliability sublayer, the exchange strategies, the coupled engine)
//! can be proven to survive a lossy, reordering, partially-failing
//! network bit-for-bit.
//!
//! Determinism: the per-message decision is a pure hash of
//! `(seed, src, dst, index)` (splitmix64), and the per-pair message
//! index is counted at the chaos layer itself — so the same plan over
//! the same traffic always misbehaves identically, including when a
//! recovery replay re-sends the same messages.
//!
//! Delay model: a delayed message is *held* until `span` further sends
//! occur on the same ordered pair (later sends overtake it — a true
//! reorder, not just latency), and any still-held messages are flushed
//! at the next barrier so collective rounds stay fenced.

use crate::comm::{Comm, CommStats};
use crate::error::{CommError, CommResult};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What happens to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver normally.
    Deliver,
    /// Silently discard (the reliability layer must recover it).
    Drop,
    /// Deliver twice (the reliability layer must dedup).
    Duplicate,
    /// Hold until this many further sends occur on the same ordered
    /// pair (they overtake it), or until the next barrier.
    Delay(u32),
}

/// A scheduled in-place sleep of one rank at one engine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallEvent {
    /// Which rank stalls.
    pub rank: usize,
    /// At the start of which engine step.
    pub step: usize,
    /// For how long.
    pub millis: u64,
}

/// A scheduled death of one rank at one engine step. Fires once per
/// run (surviving recovery attempts): the replayed run passes the same
/// step again, and re-killing would loop forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillEvent {
    /// Which rank dies.
    pub rank: usize,
    /// At the start of which engine step.
    pub step: usize,
}

/// A seeded, reproducible description of every fault of a run.
///
/// Message faults come from two sources, checked in order: explicit
/// per-`(src, dst, index)` entries, then seeded per-mille rates hashed
/// from `(seed, src, dst, index)`. Rank events (stall/kill) are always
/// explicit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Seed for the per-message hash decisions.
    pub seed: u64,
    /// Per-mille (‰) of messages to drop.
    pub drop_per_mille: u32,
    /// Per-mille (‰) of messages to duplicate.
    pub dup_per_mille: u32,
    /// Per-mille (‰) of messages to delay-reorder.
    pub delay_per_mille: u32,
    /// Maximum delay span (in later sends on the pair) for seeded
    /// delays; actual span is `1 + hash % max_delay_span`.
    pub max_delay_span: u32,
    /// Explicit per-message overrides.
    pub explicit: Vec<(usize, usize, u64, FaultAction)>,
    /// Scheduled rank stalls.
    pub stalls: Vec<StallEvent>,
    /// Scheduled rank kills.
    pub kills: Vec<KillEvent>,
}

/// splitmix64 — the standard 64-bit finalizer-style mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// A plan with the given seed and no faults (builder entry point).
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            max_delay_span: 1,
            ..FaultPlan::default()
        }
    }

    /// Drop `per_mille` ‰ of messages (seeded).
    pub fn drops(mut self, per_mille: u32) -> Self {
        self.drop_per_mille = per_mille;
        self
    }

    /// Duplicate `per_mille` ‰ of messages (seeded).
    pub fn dups(mut self, per_mille: u32) -> Self {
        self.dup_per_mille = per_mille;
        self
    }

    /// Delay-reorder `per_mille` ‰ of messages by up to `max_span`
    /// later sends (seeded).
    pub fn delays(mut self, per_mille: u32, max_span: u32) -> Self {
        self.delay_per_mille = per_mille;
        self.max_delay_span = max_span.max(1);
        self
    }

    /// Force `action` on message `idx` of the ordered pair `src → dst`.
    pub fn action(mut self, src: usize, dst: usize, idx: u64, action: FaultAction) -> Self {
        self.explicit.push((src, dst, idx, action));
        self
    }

    /// Stall `rank` for `millis` ms at the start of engine step `step`.
    pub fn stall(mut self, rank: usize, step: usize, millis: u64) -> Self {
        self.stalls.push(StallEvent { rank, step, millis });
        self
    }

    /// Kill `rank` at the start of engine step `step`.
    pub fn kill(mut self, rank: usize, step: usize) -> Self {
        self.kills.push(KillEvent { rank, step });
        self
    }

    /// The deterministic fate of message number `idx` on `src → dst`.
    pub fn decide(&self, src: usize, dst: usize, idx: u64) -> FaultAction {
        for &(s, d, i, a) in &self.explicit {
            if s == src && d == dst && i == idx {
                return a;
            }
        }
        let key = (src as u64)
            .wrapping_mul(0x517C_C1B7_2722_0A95)
            .wrapping_add((dst as u64).wrapping_mul(0x2545_F491_4F6C_DD1D))
            .wrapping_add(idx);
        let h = splitmix64(self.seed ^ key);
        let roll = (h % 1000) as u32;
        if roll < self.drop_per_mille {
            FaultAction::Drop
        } else if roll < self.drop_per_mille + self.dup_per_mille {
            FaultAction::Duplicate
        } else if roll < self.drop_per_mille + self.dup_per_mille + self.delay_per_mille {
            FaultAction::Delay(1 + ((h >> 32) as u32) % self.max_delay_span)
        } else {
            FaultAction::Deliver
        }
    }

    /// Parse the compact CLI form used by the bench binaries:
    /// `seed=7,drop=30,dup=20,delay=20/4,kill=1@5,stall=2@3/50`
    /// (rates in ‰; `delay=p/span`; `kill=rank@step`;
    /// `stall=rank@step/millis`). Unknown or malformed fields are an
    /// error.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::seeded(0);
        for field in spec.split(',').filter(|f| !f.is_empty()) {
            let (key, val) = field
                .split_once('=')
                .ok_or_else(|| format!("fault-plan field without '=': {field:?}"))?;
            let num = |s: &str| -> Result<u64, String> {
                s.parse::<u64>()
                    .map_err(|_| format!("fault-plan: bad number {s:?} in {field:?}"))
            };
            match key {
                "seed" => plan.seed = num(val)?,
                "drop" => plan.drop_per_mille = num(val)? as u32,
                "dup" => plan.dup_per_mille = num(val)? as u32,
                "delay" => {
                    let (p, span) = val.split_once('/').unwrap_or((val, "1"));
                    plan.delay_per_mille = num(p)? as u32;
                    plan.max_delay_span = (num(span)? as u32).max(1);
                }
                "kill" => {
                    let (rank, step) = val
                        .split_once('@')
                        .ok_or_else(|| format!("fault-plan: kill needs rank@step: {field:?}"))?;
                    plan = plan.kill(num(rank)? as usize, num(step)? as usize);
                }
                "stall" => {
                    let (rank, rest) = val.split_once('@').ok_or_else(|| {
                        format!("fault-plan: stall needs rank@step/ms: {field:?}")
                    })?;
                    let (step, ms) = rest.split_once('/').unwrap_or((rest, "10"));
                    plan = plan.stall(num(rank)? as usize, num(step)? as usize, num(ms)?);
                }
                other => return Err(format!("fault-plan: unknown field {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// Per-ordered-pair chaos state.
#[derive(Debug, Default)]
struct PairChaos {
    /// Messages sent on this pair so far (the next message's index).
    sent: u64,
    /// Held (delayed) messages: `(release_at_send_count, payload)`.
    held: Vec<(u64, Vec<u8>)>,
}

/// World-shared chaos state: the plan, per-pair counters, one-shot
/// kill flags and fault-injection counters. Shared by every rank's
/// [`ChaosComm`] and across recovery attempts (the kill flags must
/// survive a world teardown so the replay does not re-kill).
#[derive(Debug)]
pub struct ChaosWorld {
    plan: FaultPlan,
    n: usize,
    pairs: Vec<Mutex<PairChaos>>,
    kill_fired: Vec<AtomicBool>,
    drops: AtomicU64,
    dups: AtomicU64,
    delays: AtomicU64,
    stalls: AtomicU64,
    kills: AtomicU64,
}

impl ChaosWorld {
    /// Chaos state for an `n`-rank world under `plan`.
    pub fn new(plan: FaultPlan, n: usize) -> Arc<Self> {
        Arc::new(ChaosWorld {
            plan,
            n,
            pairs: (0..n * n)
                .map(|_| Mutex::new(PairChaos::default()))
                .collect(),
            kill_fired: (0..n).map(|_| AtomicBool::new(false)).collect(),
            drops: AtomicU64::new(0),
            dups: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            kills: AtomicU64::new(0),
        })
    }

    /// Reset per-pair message counters and held messages for a fresh
    /// world (recovery replay). Kill flags and fault counters persist:
    /// flags so the replay is not re-killed, counters because they are
    /// cumulative run totals.
    pub fn reset_pairs(&self) {
        for p in &self.pairs {
            if let Ok(mut p) = p.lock() {
                p.sent = 0;
                p.held.clear();
            }
        }
    }

    fn pair(&self, src: usize, dst: usize) -> &Mutex<PairChaos> {
        &self.pairs[src * self.n + dst]
    }

    /// Messages dropped so far.
    pub fn injected_drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }
    /// Messages duplicated so far.
    pub fn injected_dups(&self) -> u64 {
        self.dups.load(Ordering::Relaxed)
    }
    /// Messages delay-reordered so far.
    pub fn injected_delays(&self) -> u64 {
        self.delays.load(Ordering::Relaxed)
    }
    /// Stall events fired so far.
    pub fn stalls_fired(&self) -> u64 {
        self.stalls.load(Ordering::Relaxed)
    }
    /// Kill events fired so far.
    pub fn kills_fired(&self) -> u64 {
        self.kills.load(Ordering::Relaxed)
    }
    /// Total message faults injected (drops + dups + delays).
    pub fn injected_total(&self) -> u64 {
        self.injected_drops() + self.injected_dups() + self.injected_delays()
    }
}

/// A [`Comm`] that applies a [`FaultPlan`] to everything it sends.
///
/// Wrap the real transport in this, then wrap this in
/// [`ReliableComm`](crate::ReliableComm) — the reliability layer must
/// sit *above* the chaos so it can undo it.
pub struct ChaosComm<C: Comm> {
    inner: C,
    world: Arc<ChaosWorld>,
}

impl<C: Comm> ChaosComm<C> {
    /// Wrap `inner`, injecting faults from `world`'s plan.
    pub fn new(inner: C, world: Arc<ChaosWorld>) -> Self {
        assert_eq!(world.n, inner.size(), "chaos world sized for another world");
        ChaosComm { inner, world }
    }

    /// The shared chaos state (for counters).
    pub fn world(&self) -> &Arc<ChaosWorld> {
        &self.world
    }

    /// Flush every held (delayed) message this rank still owes, in
    /// scheduled-release order.
    fn flush_held(&self) -> CommResult<()> {
        let me = self.inner.rank();
        for dst in 0..self.inner.size() {
            let held: Vec<(u64, Vec<u8>)> = {
                let mut p = self
                    .world
                    .pair(me, dst)
                    .lock()
                    .map_err(|_| CommError::Poisoned)?;
                let mut h = std::mem::take(&mut p.held);
                h.sort_by_key(|&(at, _)| at);
                h
            };
            for (_, msg) in held {
                self.inner.send(dst, msg)?;
            }
        }
        Ok(())
    }
}

impl<C: Comm> Comm for ChaosComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn send(&self, to: usize, msg: Vec<u8>) -> CommResult<()> {
        let me = self.inner.rank();
        let (idx, ready): (u64, Vec<(u64, Vec<u8>)>) = {
            let mut p = self
                .world
                .pair(me, to)
                .lock()
                .map_err(|_| CommError::Poisoned)?;
            let idx = p.sent;
            p.sent += 1;
            let now = p.sent;
            // release holds that this send overtakes
            let mut ready: Vec<(u64, Vec<u8>)> = Vec::new();
            p.held.retain_mut(|(at, m)| {
                if *at <= now {
                    ready.push((*at, std::mem::take(m)));
                    false
                } else {
                    true
                }
            });
            ready.sort_by_key(|&(at, _)| at);
            (idx, ready)
        };
        match self.world.plan.decide(me, to, idx) {
            FaultAction::Deliver => self.inner.send(to, msg)?,
            FaultAction::Drop => {
                self.world.drops.fetch_add(1, Ordering::Relaxed);
            }
            FaultAction::Duplicate => {
                self.world.dups.fetch_add(1, Ordering::Relaxed);
                self.inner.send(to, msg.clone())?;
                self.inner.send(to, msg)?;
            }
            FaultAction::Delay(span) => {
                self.world.delays.fetch_add(1, Ordering::Relaxed);
                let mut p = self
                    .world
                    .pair(me, to)
                    .lock()
                    .map_err(|_| CommError::Poisoned)?;
                let release_at = p.sent + u64::from(span);
                p.held.push((release_at, msg));
            }
        }
        for (_, m) in ready {
            self.inner.send(to, m)?;
        }
        Ok(())
    }

    fn recv(&self, from: usize) -> CommResult<Vec<u8>> {
        self.inner.recv(from)
    }

    fn try_recv(&self, from: usize) -> CommResult<Option<Vec<u8>>> {
        self.inner.try_recv(from)
    }

    fn barrier(&self) -> CommResult<()> {
        // a barrier fences the round: nothing may stay held across it
        self.flush_held()?;
        self.inner.barrier()
    }

    fn on_step(&self, step: usize) -> CommResult<()> {
        let me = self.inner.rank();
        for s in &self.world.plan.stalls {
            if s.rank == me && s.step == step {
                self.world.stalls.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(s.millis));
            }
        }
        for k in &self.world.plan.kills {
            if k.rank == me
                && k.step == step
                && !self.world.kill_fired[me].swap(true, Ordering::SeqCst)
            {
                self.world.kills.fetch_add(1, Ordering::Relaxed);
                self.inner.abort();
                return Err(CommError::Killed { rank: me });
            }
        }
        self.inner.on_step(step)
    }

    fn abort(&self) {
        self.inner.abort()
    }

    fn stats(&self) -> &CommStats {
        self.inner.stats()
    }

    fn pushback(&self, from: usize, msg: Vec<u8>) {
        // a pushback un-receives a frame already past the fault layer:
        // it is a local queue operation, never a new wire send, so no
        // fault decision applies
        self.inner.pushback(from, msg)
    }

    fn next_epoch(&self) -> u64 {
        self.inner.next_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::run_world;

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::seeded(7).drops(100).dups(100).delays(100, 4);
        let again = FaultPlan::seeded(7).drops(100).dups(100).delays(100, 4);
        let other = FaultPlan::seeded(8).drops(100).dups(100).delays(100, 4);
        let mut same = 0usize;
        let mut diff_seed_diff = 0usize;
        let mut non_deliver = 0usize;
        for src in 0..4 {
            for dst in 0..4 {
                for idx in 0..200u64 {
                    let a = plan.decide(src, dst, idx);
                    assert_eq!(a, again.decide(src, dst, idx));
                    same += 1;
                    if a != other.decide(src, dst, idx) {
                        diff_seed_diff += 1;
                    }
                    if a != FaultAction::Deliver {
                        non_deliver += 1;
                    }
                }
            }
        }
        assert_eq!(same, 4 * 4 * 200);
        assert!(
            diff_seed_diff > 100,
            "seeds barely differ: {diff_seed_diff}"
        );
        // ~30% fault rate over 3200 messages
        assert!(
            (500..1500).contains(&non_deliver),
            "fault rate off: {non_deliver}/3200"
        );
    }

    #[test]
    fn explicit_actions_override_seeded_rates() {
        let plan = FaultPlan::seeded(1).action(0, 1, 3, FaultAction::Drop);
        assert_eq!(plan.decide(0, 1, 3), FaultAction::Drop);
        assert_eq!(plan.decide(0, 1, 2), FaultAction::Deliver);
        assert_eq!(plan.decide(1, 0, 3), FaultAction::Deliver);
    }

    #[test]
    fn parse_round_trips_the_cli_form() {
        let plan =
            FaultPlan::parse("seed=7,drop=30,dup=20,delay=25/4,kill=1@5,stall=2@3/50").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.drop_per_mille, 30);
        assert_eq!(plan.dup_per_mille, 20);
        assert_eq!(plan.delay_per_mille, 25);
        assert_eq!(plan.max_delay_span, 4);
        assert_eq!(plan.kills, vec![KillEvent { rank: 1, step: 5 }]);
        assert_eq!(
            plan.stalls,
            vec![StallEvent {
                rank: 2,
                step: 3,
                millis: 50
            }]
        );
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("drop=x").is_err());
        assert!(FaultPlan::parse("kill=3").is_err());
    }

    #[test]
    fn dropped_message_never_arrives_and_is_counted() {
        let world = ChaosWorld::new(FaultPlan::seeded(0).action(0, 1, 0, FaultAction::Drop), 2);
        let w = world.clone();
        let out = run_world(2, move |c| {
            let c = ChaosComm::new(c, w.clone());
            if c.rank() == 0 {
                c.send(1, vec![1]).unwrap(); // dropped
                c.send(1, vec![2]).unwrap(); // delivered
                Vec::new()
            } else {
                c.recv(0).unwrap()
            }
        });
        assert_eq!(out[1], vec![2], "first message silently gone");
        assert_eq!(world.injected_drops(), 1);
    }

    #[test]
    fn duplicated_message_arrives_twice() {
        let world = ChaosWorld::new(
            FaultPlan::seeded(0).action(0, 1, 0, FaultAction::Duplicate),
            2,
        );
        let w = world.clone();
        let out = run_world(2, move |c| {
            let c = ChaosComm::new(c, w.clone());
            if c.rank() == 0 {
                c.send(1, vec![9]).unwrap();
                Vec::new()
            } else {
                let a = c.recv(0).unwrap();
                let b = c.recv(0).unwrap();
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[1], vec![9, 9]);
        assert_eq!(world.injected_dups(), 1);
    }

    #[test]
    fn delayed_message_is_overtaken_then_released() {
        let world = ChaosWorld::new(
            FaultPlan::seeded(0).action(0, 1, 0, FaultAction::Delay(2)),
            2,
        );
        let w = world.clone();
        let out = run_world(2, move |c| {
            let c = ChaosComm::new(c, w.clone());
            if c.rank() == 0 {
                c.send(1, vec![1]).unwrap(); // held (span 2)
                c.send(1, vec![2]).unwrap(); // overtakes
                c.send(1, vec![3]).unwrap(); // overtakes → releases [1]
                Vec::new()
            } else {
                (0..3).map(|_| c.recv(0).unwrap()[0]).collect()
            }
        });
        assert_eq!(out[1], vec![2, 3, 1], "reorder: later sends overtake");
        assert_eq!(world.injected_delays(), 1);
    }

    #[test]
    fn barrier_flushes_held_messages() {
        let world = ChaosWorld::new(
            FaultPlan::seeded(0).action(0, 1, 0, FaultAction::Delay(100)),
            2,
        );
        let w = world.clone();
        let out = run_world(2, move |c| {
            let c = ChaosComm::new(c, w.clone());
            if c.rank() == 0 {
                c.send(1, vec![5]).unwrap(); // held far beyond traffic
                c.barrier().unwrap(); // fence forces the flush
                Vec::new()
            } else {
                c.barrier().unwrap();
                c.recv(0).unwrap()
            }
        });
        assert_eq!(out[1], vec![5]);
    }

    #[test]
    fn kill_fires_once_and_collapses_the_world() {
        let world = ChaosWorld::new(FaultPlan::seeded(0).kill(1, 3), 2);
        let w = world.clone();
        let out = run_world(2, move |c| {
            let c = ChaosComm::new(c, w.clone());
            for step in 0..5 {
                if let Err(e) = c.on_step(step) {
                    return Err((step, e));
                }
                if c.barrier().is_err() {
                    return Ok(step);
                }
            }
            Ok(5)
        });
        assert_eq!(out[1], Err((3, CommError::Killed { rank: 1 })));
        // rank 0 saw the broken barrier at step 3, not a hang
        assert_eq!(out[0], Ok(3));
        assert_eq!(world.kills_fired(), 1);
        // the flag persists: a second world on the same ChaosWorld
        // replays without re-killing
        world.reset_pairs();
        let w2 = world.clone();
        let replay = run_world(2, move |c| {
            let c = ChaosComm::new(c, w2.clone());
            for step in 0..5 {
                c.on_step(step)?;
                c.barrier()?;
            }
            Ok::<_, CommError>(())
        });
        assert!(replay.iter().all(|r| r.is_ok()));
        assert_eq!(world.kills_fired(), 1);
    }

    #[test]
    fn stall_delays_but_preserves_results() {
        let world = ChaosWorld::new(FaultPlan::seeded(0).stall(0, 1, 30), 2);
        let w = world.clone();
        let t0 = std::time::Instant::now();
        let out = run_world(2, move |c| {
            let c = ChaosComm::new(c, w.clone());
            let mut got = Vec::new();
            for step in 0..3 {
                c.on_step(step).unwrap();
                if c.rank() == 0 {
                    c.send(1, vec![step as u8]).unwrap();
                } else {
                    got.push(c.recv(0).unwrap()[0]);
                }
                c.barrier().unwrap();
            }
            got
        });
        assert!(t0.elapsed() >= std::time::Duration::from_millis(30));
        assert_eq!(out[1], vec![0, 1, 2]);
        assert_eq!(world.stalls_fired(), 1);
    }
}
