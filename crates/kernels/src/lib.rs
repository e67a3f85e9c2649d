//! Intra-rank parallel kernel layer: the lane count of a rank's
//! engine ([`Pool`]), the SPMD [`team`] region the CG solve and the
//! particle move run in, and the chunking helpers they share.
//!
//! Design constraints (see DESIGN.md "Single-node performance"):
//!
//! * **No external threading runtime.** rayon is not on the approved
//!   dependency list, so a region is built directly on
//!   `std::thread::scope` (stable since 1.63): the caller is lane 0
//!   and each further lane is one scoped spawn. At the
//!   10⁴–10⁶-particle workloads of a paper-scale rank the tens of µs
//!   a two-lane region costs (`kernels.dispatch_us`) are small against
//!   ms-scale kernels. A loop of many short steps that all need every
//!   lane — a CG solve — is one [`team`] region whose lanes meet at a
//!   [`TeamBarrier`] instead of one region per step.
//! * **Deterministic reductions.** A reduction over lanes sums fixed
//!   blocks whose boundaries do not depend on the lane count and folds
//!   the block sums in block order, so its output is identical for any
//!   lane count (the CG's inner products, `sparse::krylov`).
//! * **Lane-invariant kernels.** Every kernel that takes lanes gives
//!   the same bits on any lane count, because it draws from streams
//!   keyed by what it acts on, not by the lane: the move's flights
//!   draw their wall hits from a stream keyed by the move and the
//!   particle's buffer index, so each lane flies its contiguous chunk
//!   to the end (`dsmc::move_particles_pooled`); the collision passes
//!   draw each cell's pairs from a stream keyed by the cell
//!   (`dsmc::collision_key`) over contiguous cell ranges. Push and
//!   deposit run serially on the caller's thread.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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

/// Lanes that store into disjoint but interleaved elements of one
/// slice — a counting sort's scatter, a collision pass's cells — share
/// it as atomics: these are the views, each what the still unstable
/// `Atomic*::from_mut_slice` returns. A `Relaxed` access is a plain
/// load or store on the targets this runs on; the region's join orders
/// every lane's stores before the caller's next access.
pub fn atomic_u32s(data: &mut [u32]) -> &[AtomicU32] {
    // SAFETY: `AtomicU32` has the size, alignment and bit validity of
    // `u32`, and the exclusive borrow keeps every non-atomic access out
    // while the view lives.
    unsafe { &*(data as *mut [u32] as *const [AtomicU32]) }
}

/// [`atomic_u32s`] for the bits of an `f64` slice.
pub fn atomic_f64s(data: &mut [f64]) -> &[AtomicU64] {
    const _: () = assert!(std::mem::align_of::<AtomicU64>() == std::mem::align_of::<f64>());
    // SAFETY: as in `atomic_u32s`: `AtomicU64` has the size, alignment
    // (asserted above) and bit validity of `f64`'s bits.
    unsafe { &*(data as *mut [f64] as *const [AtomicU64]) }
}

/// [`atomic_u32s`] for a `u8` slice.
pub fn atomic_u8s(data: &mut [u8]) -> &[AtomicU8] {
    // SAFETY: as in `atomic_u32s`.
    unsafe { &*(data as *mut [u8] as *const [AtomicU8]) }
}

/// A lane count for the kernels that split their work: the CG
/// [`team`], the particle move and the collision passes take at most
/// [`Pool::workers`] lanes each, and give the same bits on any count.
#[derive(Debug, Clone)]
pub struct Pool {
    workers: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::serial()
    }
}

impl Pool {
    /// Pool with `workers` lanes (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// Single-lane pool: every kernel runs inline on the caller
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

    /// Run `f(part_index, part)` over an explicit list of parts, one
    /// [`team`] region whose lanes take contiguous groups; results in
    /// part order. Kept for the benchmark ledger's dispatch row.
    pub fn run_parts<T, R, F>(&self, parts: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let groups = chunk_ranges(parts.len(), self.workers);
        let mut it = parts.into_iter();
        let groups: Vec<_> = groups
            .into_iter()
            .map(|g| (g.start, (&mut it).take(g.len()).collect::<Vec<T>>()))
            .collect();
        team(groups, |_, (start, group), _| {
            group
                .into_iter()
                .enumerate()
                .map(|(k, p)| f(start + k, p))
                .collect::<Vec<R>>()
        })
        .into_iter()
        .flatten()
        .collect()
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
/// part — `parts.len() − 1` spawns for the whole region (one part runs
/// on the caller alone, no scope opened), however many
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
    if parts.len() == 0 {
        return vec![lane(0, first)];
    }
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
    use std::sync::atomic::AtomicU64;

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
}
