//! Intra-rank parallel kernel layer: a chunked scoped-thread worker
//! pool shared by the hot DSMC/PIC kernels (move, collide, deposit,
//! push, SpMV) plus deterministic reduction and RNG-forking helpers.
//!
//! Design constraints (see DESIGN.md "Single-node performance"):
//!
//! * **No external threading runtime.** rayon is not on the approved
//!   dependency list, so the pool is built directly on
//!   `std::thread::scope` (stable since 1.63). Threads are spawned per
//!   parallel region; at the 10⁴–10⁶-particle workloads of a paper-scale rank
//!   the ~10 µs spawn cost is noise against ms-scale kernels.
//! * **Serial fallback is bit-identical.** A [`Pool`] with one worker
//!   never spawns and callers route through the untouched serial
//!   kernels, so `threads_per_rank = 1` (the default) reproduces the
//!   pre-existing results exactly.
//! * **Deterministic reductions.** [`Pool::par_map_reduce`] maps over
//!   *fixed-size blocks* whose boundaries do not depend on the worker
//!   count and folds block results in block-index order, so its output
//!   is identical for any worker count (given a pure map function).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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
/// chunk. Distinct `(base, lane)` pairs give well-separated streams;
/// the same pair always gives the same stream, so chunked kernels
/// stay reproducible for a fixed worker count.
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

    /// Split `data` into one contiguous chunk per worker and run
    /// `f(chunk_index, start_offset, chunk)` on each, returning the
    /// per-chunk results in chunk order.
    pub fn par_chunks_mut<T, R, F>(&self, data: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, usize, &mut [T]) -> R + Sync,
    {
        let ranges = chunk_ranges(data.len(), self.workers);
        if ranges.len() <= 1 {
            let started = Instant::now();
            let r = f(0, 0, data);
            self.charge(0, started);
            return vec![r];
        }
        // carve `data` into disjoint &mut chunks
        let mut parts: Vec<(usize, &mut [T])> = Vec::with_capacity(ranges.len());
        let mut rest = data;
        let mut offset = 0usize;
        for r in &ranges {
            let (head, tail) = rest.split_at_mut(r.len());
            parts.push((offset, head));
            offset += r.len();
            rest = tail;
        }
        self.run_parts(parts, |ci, (off, chunk)| f(ci, off, chunk))
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

    /// Deterministic parallel map-reduce over `0..n` in fixed-size
    /// blocks: `map` runs on each block range (parallel, pure), `fold`
    /// combines block results **in block-index order** on the caller
    /// thread. Because block boundaries depend only on `block`, the
    /// result is bitwise identical for every worker count.
    pub fn par_map_reduce<R, A, M, F>(
        &self,
        n: usize,
        block: usize,
        map: M,
        init: A,
        mut fold: F,
    ) -> A
    where
        R: Send,
        M: Fn(Range<usize>) -> R + Sync,
        F: FnMut(A, R) -> A,
    {
        assert!(block > 0);
        let nblocks = n.div_ceil(block);
        if self.workers == 1 || nblocks <= 1 {
            let started = Instant::now();
            let mut acc = init;
            for b in 0..nblocks {
                let r = b * block..((b + 1) * block).min(n);
                acc = fold(acc, map(r));
            }
            self.charge(0, started);
            return acc;
        }
        let blocks: Vec<Range<usize>> = (0..nblocks)
            .map(|b| b * block..((b + 1) * block).min(n))
            .collect();
        let results = self.run_parts(blocks, |_, r| map(r));
        results.into_iter().fold(init, fold)
    }
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
    fn par_chunks_mut_equals_serial() {
        let mut serial: Vec<u64> = (0..10_000).collect();
        for v in serial.iter_mut() {
            *v = v.wrapping_mul(3).wrapping_add(1);
        }
        for workers in [1usize, 2, 4, 7] {
            let mut par: Vec<u64> = (0..10_000).collect();
            let pool = Pool::new(workers);
            let chunk_count = pool
                .par_chunks_mut(&mut par, |_, _, chunk| {
                    for v in chunk.iter_mut() {
                        *v = v.wrapping_mul(3).wrapping_add(1);
                    }
                    chunk.len()
                })
                .len();
            assert!(chunk_count <= workers.max(1));
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn par_chunks_offsets_are_global() {
        let mut data = vec![0usize; 1000];
        Pool::new(4).par_chunks_mut(&mut data, |_, off, chunk| {
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = off + k;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }

    #[test]
    fn map_reduce_is_worker_count_invariant() {
        // floating-point sum: identical bits for every worker count
        let xs: Vec<f64> = (0..40_000)
            .map(|i| ((i * 37) % 1009) as f64 * 1e-3)
            .collect();
        let sum_with = |workers: usize| {
            Pool::new(workers).par_map_reduce(
                xs.len(),
                1024,
                |r| xs[r].iter().sum::<f64>(),
                0.0f64,
                |a, b| a + b,
            )
        };
        let s1 = sum_with(1);
        for w in [2usize, 3, 4, 8] {
            assert_eq!(s1.to_bits(), sum_with(w).to_bits(), "workers={w}");
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
        let mut data = vec![1u64; 30_000];
        pool.par_chunks_mut(&mut data, |_, _, chunk| {
            for v in chunk.iter_mut() {
                for _ in 0..50 {
                    *v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
            }
        });
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
    fn serial_fast_paths_charge_lane_zero() {
        let pool = Pool::serial();
        let sum = pool.par_map_reduce(1000, 128, |r| r.len(), 0usize, |a, b| a + b);
        assert_eq!(sum, 1000);
        let busy = pool.busy_seconds();
        assert_eq!(busy.len(), 1);
        assert!(busy[0] > 0.0);
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
