//! Intra-rank parallel kernel layer: the lane count of a rank's
//! engine ([`Pool`]), the [`team`] region the particle moves, the
//! collision passes and the cell index run in, and the chunking helpers
//! they share. The field solve (CG) has no lanes.
//!
//! Design constraints (see DESIGN.md §9, "Kernels: particle layout,
//! hot loops, the worker pool"):
//!
//! * **No external threading runtime.** rayon is not on the approved
//!   dependency list, so a region is built directly on
//!   `std::thread::scope` (stable since 1.63): the caller is lane 0
//!   and each further lane is one scoped spawn. At the
//!   10⁴–10⁶-particle workloads of a paper-scale rank the tens of µs
//!   a two-lane region costs (`kernels.dispatch_us`) are small against
//!   ms-scale kernels.
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
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8};

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

/// A lane count for the kernels that split their work: the particle
/// move, the collision passes and the cell index take at most
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
        team(groups, |_, (start, group)| {
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

/// One parallel region: `f(lane, part)` runs on every part at once,
/// the caller thread as lane 0 and one scoped thread per further part
/// — `parts.len() − 1` spawns (one part runs on the caller alone, no
/// scope opened). Results come back in part order; a panic in any lane
/// reaches the caller.
pub fn team<T, R, F>(parts: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let f = &f;
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    if parts.len() == 0 {
        return vec![f(0, first)];
    }
    std::thread::scope(|scope| {
        let helpers: Vec<_> = parts
            .enumerate()
            .map(|(i, part)| scope.spawn(move || f(i + 1, part)))
            .collect();
        let mut out = vec![f(0, first)];
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
    fn team_returns_each_lane_its_part_in_part_order() {
        let out = team((0..3).collect(), |lane, part: usize| (lane, part * 10));
        assert_eq!(out, [(0, 0), (1, 10), (2, 20)]);
        assert!(team(Vec::<()>::new(), |_, ()| 0).is_empty());
    }

    #[test]
    fn a_panicking_lane_fails_the_region_instead_of_hanging_it() {
        let result = std::panic::catch_unwind(|| {
            team(vec![0, 1], |lane, _| {
                assert_ne!(lane, 1, "lane 1 fails");
            })
        });
        assert!(result.is_err());
    }
}
