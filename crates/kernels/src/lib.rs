//! Intra-rank parallel kernel layer: a chunked scoped-thread worker
//! pool shared by the hot DSMC/PIC kernels (collide, deposit, push),
//! the SPMD [`team`] region the CG solve and the particle move run in,
//! and deterministic reduction and RNG-forking helpers.
//!
//! Design constraints (see DESIGN.md "Single-node performance"):
//!
//! * **No external threading runtime.** rayon is not on the approved
//!   dependency list, so the pool is built directly on
//!   `std::thread::scope` (stable since 1.63). Threads are spawned per
//!   parallel region; at the 10⁴–10⁶-particle workloads of a paper-scale rank
//!   the 41–48 µs a two-lane region costs (`kernels.dispatch_us`) is
//!   small against ms-scale kernels. A loop of many short steps that
//!   all need every lane — a CG solve — is one [`team`] region whose
//!   lanes meet at a [`TeamBarrier`] instead of one region per step.
//! * **Serial fallback is bit-identical.** A [`Pool`] with one worker
//!   never spawns and callers route through the untouched serial
//!   kernels, so `threads_per_rank = 1` (the default) reproduces the
//!   pre-existing results exactly.
//! * **Deterministic reductions.** A reduction over lanes sums fixed
//!   blocks whose boundaries do not depend on the lane count and folds
//!   the block sums in block order, so its output is identical for any
//!   lane count (the CG's inner products, `sparse::krylov`).
//! * **Lane-invariant kernels.** The CG solve, the E refresh, the
//!   deposit and the particle move give the same bits on any lane
//!   count; the move does so by flying each particle up to its first
//!   wall in parallel and replaying the wall hits in order on the
//!   caller's RNG (`dsmc::move_particles_pooled`). Only collide forks
//!   per-lane streams ([`fork_rng`]), so only its result depends on
//!   the worker count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Contiguous near-equal split of `0..n` into at most `parts` ranges
/// (fewer when `n < parts`; never empty ranges).
pub fn chunk_ranges(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        if len == 0 {
            break;
        }
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Carve `data` into disjoint consecutive mutable sub-slices with the
/// lengths of `ranges` (contiguous from 0, as produced by
/// [`chunk_ranges`]). Multi-lane SoA kernels call this once per scalar
/// lane to hand each worker chunk a set of parallel `&mut [f64]`
/// slices without unsafe code.
pub fn carve_mut<'a, T>(ranges: &[Range<usize>], data: &'a mut [T]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut rest = data;
    for r in ranges {
        let (head, tail) = rest.split_at_mut(r.len());
        out.push(head);
        rest = tail;
    }
    debug_assert!(rest.is_empty(), "ranges must cover the whole slice");
    out
}

/// Deterministically fork an independent RNG stream for a worker
/// chunk (the pooled collide's lanes). Distinct `(base, lane)` pairs
/// give well-separated streams; the same pair always gives the same
/// stream, so a chunked kernel stays reproducible for a fixed worker
/// count.
pub fn fork_rng(base: u64, lane: u64) -> StdRng {
    // golden-ratio mixing keeps lanes far apart even for small bases
    let mixed = base
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(lane.wrapping_mul(0xD1B54A32D192ED03))
        .rotate_left(29)
        ^ lane;
    StdRng::seed_from_u64(mixed)
}

/// Scoped-thread worker pool of a fixed width. Clones share the
/// per-lane busy-time accounting.
#[derive(Debug, Clone)]
pub struct Pool {
    workers: usize,
    /// Cumulative busy nanoseconds per lane (lane = chunk/group
    /// index; serial fast paths charge lane 0).
    busy: Arc<Vec<AtomicU64>>,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::serial()
    }
}

impl Pool {
    /// Pool with `workers` lanes (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        Pool {
            workers,
            busy: Arc::new((0..workers).map(|_| AtomicU64::new(0)).collect()),
        }
    }

    /// Single-lane pool: every `par_*` call runs inline on the caller
    /// thread with no spawns.
    pub fn serial() -> Self {
        Pool::new(1)
    }

    pub fn workers(&self) -> usize {
        self.workers
    }

    pub fn is_serial(&self) -> bool {
        self.workers == 1
    }

    /// Cumulative busy time per lane, in seconds — kernel work only
    /// (spawn/join overhead and idle tail-wait excluded), so the
    /// spread across lanes shows intra-rank imbalance.
    pub fn busy_seconds(&self) -> Vec<f64> {
        self.busy
            .iter()
            .map(|b| b.load(Ordering::Relaxed) as f64 * 1e-9)
            .collect()
    }

    /// Reset the per-lane busy counters.
    pub fn reset_busy(&self) {
        for b in self.busy.iter() {
            b.store(0, Ordering::Relaxed);
        }
    }

    #[inline]
    fn charge(&self, lane: usize, started: Instant) {
        let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.busy[lane.min(self.workers - 1)].fetch_add(ns, Ordering::Relaxed);
    }

    /// Run `f(part_index, part)` over an explicit list of parts
    /// (worker threads take contiguous groups); results in part order.
    pub fn run_parts<T, R, F>(&self, parts: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = parts.len();
        if self.workers == 1 || n <= 1 {
            let started = Instant::now();
            let out = parts
                .into_iter()
                .enumerate()
                .map(|(i, p)| f(i, p))
                .collect();
            self.charge(0, started);
            return out;
        }
        let groups = chunk_ranges(n, self.workers);
        let mut indexed: Vec<Vec<(usize, T)>> = Vec::with_capacity(groups.len());
        let mut it = parts.into_iter().enumerate();
        for g in &groups {
            indexed.push((&mut it).take(g.len()).collect());
        }
        let f = &f;
        let grouped: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = indexed
                .into_iter()
                .enumerate()
                .map(|(lane, group)| {
                    scope.spawn(move || {
                        let started = Instant::now();
                        let out = group
                            .into_iter()
                            .map(|(i, p)| (i, f(i, p)))
                            .collect::<Vec<_>>();
                        self.charge(lane, started);
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("kernel worker panicked"))
                .collect()
        });
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for group in grouped {
            for (i, r) in group {
                out[i] = Some(r);
            }
        }
        out.into_iter().map(|r| r.unwrap()).collect()
    }
}

/// Polls of [`TeamBarrier::wait`] before a waiting lane sleeps. A CG
/// phase on a few thousand rows keeps the lanes within a few µs of
/// each other, which this covers; a lane whose partner is descheduled
/// (more lanes than free cores) stops burning the core after it.
const BARRIER_SPINS: u32 = 1 << 12;

/// The barrier the lanes of one [`team`] region meet at. A waiting
/// lane polls `BARRIER_SPINS` times, then sleeps on a condvar until
/// the last lane arrives.
pub struct TeamBarrier {
    lanes: usize,
    arrived: AtomicUsize,
    /// Bumped by the last arrival: a waiter leaves when it changes.
    generation: AtomicUsize,
    /// Set when a lane panicked: waiters panic instead of sleeping on.
    poisoned: AtomicBool,
    sleep: Mutex<()>,
    wake: Condvar,
}

impl TeamBarrier {
    fn new(lanes: usize) -> Self {
        TeamBarrier {
            lanes,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// The mutex guards no data (only the sleep/wake handshake), so a
    /// panic while it was held leaves nothing to repair.
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.sleep.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until every lane of the team has made as many `wait`
    /// calls as this one. What a lane wrote before its call is visible
    /// to every lane after theirs: each arrival's `AcqRel` increment
    /// orders the earlier arrivals' writes before the last one's, whose
    /// `Release` store of the generation pairs with every waiter's
    /// `Acquire` load of it.
    pub fn wait(&self) {
        if self.lanes == 1 {
            return;
        }
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.lanes {
            // the others leave only after the generation store, so
            // none can arrive again before the count is reset
            self.arrived.store(0, Ordering::Relaxed);
            let _sleepers = self.lock();
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            self.wake.notify_all();
            return;
        }
        for _ in 0..BARRIER_SPINS {
            if self.generation.load(Ordering::Acquire) != generation {
                return;
            }
            std::hint::spin_loop();
        }
        // the last arrival stores the generation under the lock, so it
        // cannot slip in between this check and the sleep
        let mut sleepers = self.lock();
        while self.generation.load(Ordering::Acquire) == generation {
            if self.poisoned.load(Ordering::Acquire) {
                drop(sleepers);
                panic!("another lane of the team panicked");
            }
            sleepers = self
                .wake
                .wait(sleepers)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        let _sleepers = self.lock();
        self.wake.notify_all();
    }
}

/// Poisons the team's barrier when its lane unwinds, so the other
/// lanes panic out of their waits instead of waiting forever.
struct PoisonOnUnwind<'a>(&'a TeamBarrier);

impl Drop for PoisonOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// One SPMD region: `f(lane, part, barrier)` runs on every part at
/// once, the caller thread as lane 0 and one scoped thread per further
/// part — `parts.len() − 1` spawns for the whole region, however many
/// [`TeamBarrier::wait`]s `f` makes. Every lane must make the same
/// number of waits. Results come back in part order; a panic in any
/// lane reaches the caller.
pub fn team<T, R, F>(parts: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T, &TeamBarrier) -> R + Sync,
{
    let barrier = TeamBarrier::new(parts.len());
    let (barrier, f) = (&barrier, &f);
    let lane = move |i: usize, part: T| {
        let _poison = PoisonOnUnwind(barrier);
        f(i, part, barrier)
    };
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let helpers: Vec<_> = parts
            .enumerate()
            .map(|(i, part)| scope.spawn(move || lane(i + 1, part)))
            .collect();
        let mut out = vec![lane(0, first)];
        out.extend(
            helpers
                .into_iter()
                .map(|h| h.join().expect("team lane panicked")),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn chunk_ranges_cover_everything() {
        for n in [0usize, 1, 5, 16, 17, 1000] {
            for p in [1usize, 2, 3, 4, 7, 32] {
                let rs = chunk_ranges(n, p);
                let total: usize = rs.iter().map(|r| r.len()).sum();
                assert_eq!(total, n, "n={n} p={p}");
                let mut expect = 0usize;
                for r in &rs {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                // near-equal: sizes differ by at most 1
                if let (Some(min), Some(max)) = (
                    rs.iter().map(|r| r.len()).min(),
                    rs.iter().map(|r| r.len()).max(),
                ) {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn carve_mut_partitions_parallel_lanes_identically() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let ranges = chunk_ranges(100, 7);
        let ca = carve_mut(&ranges, &mut a);
        let cb = carve_mut(&ranges, &mut b);
        assert_eq!(ca.len(), ranges.len());
        assert_eq!(ca.iter().map(|s| s.len()).sum::<usize>(), 100);
        for (sa, sb) in ca.iter().zip(&cb) {
            assert_eq!(sa.len(), sb.len(), "lanes must chunk in lockstep");
        }
        // first element of each chunk matches its range start
        for (s, r) in ca.iter().zip(&ranges) {
            assert_eq!(s[0] as usize, r.start);
        }
    }

    #[test]
    fn run_parts_preserves_order() {
        let parts: Vec<usize> = (0..37).collect();
        let out = Pool::new(5).run_parts(parts, |i, p| {
            assert_eq!(i, p);
            p * 2
        });
        assert_eq!(out, (0..37).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn busy_time_accumulates_per_lane() {
        let pool = Pool::new(3);
        assert_eq!(pool.busy_seconds(), vec![0.0; 3]);
        let out = pool.run_parts(vec![10_000u64; 3], |_, n| {
            (0..n * 50).fold(1u64, |v, _| {
                v.wrapping_mul(6364136223846793005).wrapping_add(1)
            })
        });
        assert!(out.iter().all(|&v| v == out[0]));
        let busy = pool.busy_seconds();
        assert_eq!(busy.len(), 3);
        assert!(busy.iter().all(|&b| b > 0.0), "{busy:?}");
        // clones share the accounting
        let clone = pool.clone();
        assert_eq!(clone.busy_seconds(), busy);
        pool.reset_busy();
        assert_eq!(clone.busy_seconds(), vec![0.0; 3]);
    }

    #[test]
    fn team_lanes_see_each_others_writes_across_barriers() {
        // each round every lane writes its own slot, then reads all of
        // them: a barrier that let a lane through early shows as a
        // stale or torn sum
        let lanes = 3;
        let slots: Vec<AtomicU64> = (0..lanes).map(|_| AtomicU64::new(0)).collect();
        let sums = team((0..lanes).collect(), |lane, part, barrier| {
            assert_eq!(lane, part);
            let mut seen = Vec::new();
            for round in 1..=200u64 {
                slots[lane].store(round * (lane as u64 + 1), Ordering::Relaxed);
                barrier.wait();
                seen.push(slots.iter().map(|s| s.load(Ordering::Relaxed)).sum::<u64>());
                barrier.wait();
            }
            seen
        });
        let want: Vec<u64> = (1..=200u64).map(|round| round * 6).collect();
        assert_eq!(sums, vec![want; lanes]);
        assert!(team(Vec::<()>::new(), |_, (), _| 0).is_empty());
    }

    #[test]
    fn a_panicking_lane_fails_the_region_instead_of_hanging_it() {
        let result = std::panic::catch_unwind(|| {
            team(vec![0, 1], |lane, _, barrier| {
                assert_ne!(lane, 1, "lane 1 fails before the barrier");
                barrier.wait();
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn fork_rng_deterministic_and_distinct() {
        let mut a = fork_rng(42, 0);
        let mut a2 = fork_rng(42, 0);
        let mut b = fork_rng(42, 1);
        let xs: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let xs2: Vec<u64> = (0..16).map(|_| a2.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(xs, xs2);
        assert_ne!(xs, ys);
    }
}
