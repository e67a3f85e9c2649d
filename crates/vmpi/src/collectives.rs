//! Collective operations built on point-to-point messaging.
//!
//! The coupled solver needs: barrier ([`Comm::barrier`]),
//! gather through a root, broadcast, and an all-reduce for
//! charge-density boundary sums and residual norms in the distributed
//! Poisson solve.
//!
//! Every collective is fallible: a communication fault on any hop
//! propagates as a [`crate::CommError`] so the driver can
//! abort the world and recover, instead of a rank panicking mid-
//! collective and poisoning everything it shared.

use crate::comm::Comm;
use crate::error::{take_u64, CommError, CommResult};
use std::ops::AddAssign;

/// Wire bytes of a slice of 8-byte little-endian words; `to_le` is
/// `f64::to_le_bytes` or `u64::to_le_bytes`.
pub fn encode_words<T: Copy>(words: &[T], to_le: fn(T) -> [u8; 8]) -> Vec<u8> {
    words.iter().flat_map(|&w| to_le(w)).collect()
}

/// The `len` words [`encode_words`] wrote into `bytes`
/// ([`CommError::Malformed`] naming `what` on any other length).
pub fn decode_words<T>(
    bytes: &[u8],
    len: usize,
    from_le: fn([u8; 8]) -> T,
    what: &'static str,
) -> CommResult<Vec<T>> {
    if bytes.len() != len * 8 {
        return Err(CommError::Malformed { what });
    }
    let words = bytes.chunks_exact(8);
    Ok(words
        .map(|c| from_le(c.try_into().expect("8-byte chunk")))
        .collect())
}

/// Gather each rank's buffer at `root`. Returns `Some(buffers)` (in
/// rank order, including the root's own) on the root, `None`
/// elsewhere.
pub fn gather(comm: &Comm, root: usize, mine: Vec<u8>) -> CommResult<Option<Vec<Vec<u8>>>> {
    if comm.rank() == root {
        let mut all = vec![Vec::new(); comm.size()];
        all[root] = mine;
        for (r, slot) in all.iter_mut().enumerate() {
            if r != root {
                *slot = comm.recv(r)?;
            }
        }
        Ok(Some(all))
    } else {
        comm.send(root, mine)?;
        Ok(None)
    }
}

/// Broadcast `msg` from `root` to all ranks (returns the message on
/// every rank).
///
/// Panics if the root passes `None` — API misuse, not a comm fault.
pub fn broadcast(comm: &Comm, root: usize, msg: Option<Vec<u8>>) -> CommResult<Vec<u8>> {
    if comm.rank() == root {
        let msg = msg.expect("root must provide the message");
        for r in 0..comm.size() {
            if r != root {
                comm.send(r, msg.clone())?;
            }
        }
        Ok(msg)
    } else {
        comm.recv(root)
    }
}

/// All-reduce a vector of words by element-wise summation, in rank
/// order; every rank receives the full sum. (Gather-reduce-broadcast
/// through rank 0 — the topology-oblivious scheme, adequate for the
/// rank counts the threaded backend runs at.) `what` names a
/// malformed contribution and a malformed result.
fn allreduce_sum<T: Copy + Default + AddAssign>(
    comm: &Comm,
    mine: &[T],
    to_le: fn(T) -> [u8; 8],
    from_le: fn([u8; 8]) -> T,
    what: [&'static str; 2],
) -> CommResult<Vec<T>> {
    let len = mine.len();
    let reduced = match gather(comm, 0, encode_words(mine, to_le))? {
        Some(bufs) => {
            let mut acc = vec![T::default(); len];
            for buf in bufs {
                for (a, v) in acc
                    .iter_mut()
                    .zip(decode_words(&buf, len, from_le, what[0])?)
                {
                    *a += v;
                }
            }
            Some(encode_words(&acc, to_le))
        }
        None => None,
    };
    decode_words(&broadcast(comm, 0, reduced)?, len, from_le, what[1])
}

/// All-gather a fixed-size slice of words from every rank: the
/// concatenation in rank order (`size() * mine.len()` values) on all
/// ranks. Every rank must contribute the same number of values.
fn allgather<T: Copy>(
    comm: &Comm,
    mine: &[T],
    to_le: fn(T) -> [u8; 8],
    from_le: fn([u8; 8]) -> T,
    what: [&'static str; 2],
) -> CommResult<Vec<T>> {
    let len = mine.len();
    let packed = match gather(comm, 0, encode_words(mine, to_le))? {
        Some(bufs) => {
            let mut out = Vec::with_capacity(comm.size() * len * 8);
            for b in bufs {
                if b.len() != len * 8 {
                    return Err(CommError::Malformed { what: what[0] });
                }
                out.extend_from_slice(&b);
            }
            Some(out)
        }
        None => None,
    };
    let out = broadcast(comm, 0, packed)?;
    decode_words(&out, comm.size() * len, from_le, what[1])
}

/// All-reduce a vector of f64 by element-wise summation (charge
/// boundary sums, density diagnostics).
pub fn allreduce_sum_f64(comm: &Comm, mine: &[f64]) -> CommResult<Vec<f64>> {
    let what = ["allreduce_sum_f64 contribution", "allreduce_sum_f64 result"];
    allreduce_sum(comm, mine, f64::to_le_bytes, f64::from_le_bytes, what)
}

/// Wire magic stamped on every [`alltoall_u64`] value frame, so a
/// fence-and-drain receiver can tell the round's frames from anything
/// a faster peer posted for a *later* protocol phase.
const ALLTOALL_MAGIC: u8 = 0xA2;

/// Bytes of one [`alltoall_u64`] value frame, `[magic][epoch][value]`
/// — what [`crate::traffic_all`] prices a sparse count message at.
pub(crate) const ALLTOALL_FRAME: usize = 1 + 8 + 8;

/// Sparse all-to-all of one `u64` per destination: rank `d` receives
/// `mine[d]` of every source, as `out[src]` (the column of the
/// world-wide matrix addressed to it). **Zero entries cost no
/// message**: senders send only the nonzero values, tagged
/// `[magic][epoch][value]`, one barrier fences the round, and
/// receivers drain queued frames with [`Comm::try_recv_if`] — absence
/// of an acceptable frame *is* the zero. The per-endpoint epoch stamp
/// replaces the old trailing barrier: a peer that races into the next
/// round posts frames carrying the next epoch, which the drain
/// declines unread instead of mistaking for this round's value. This
/// is the counts-first round of the sparse exchange (§IV-B): on a
/// quiet step its transaction count is proportional to the nonzero
/// pairs, not to `N²`.
pub fn alltoall_u64(comm: &Comm, mine: &[u64]) -> CommResult<Vec<u64>> {
    let me = comm.rank();
    let n = comm.size();
    assert_eq!(mine.len(), n);
    let epoch = comm.next_epoch();
    for (d, &v) in mine.iter().enumerate() {
        if d != me && v != 0 {
            let mut frame = Vec::with_capacity(ALLTOALL_FRAME);
            frame.push(ALLTOALL_MAGIC);
            frame.extend_from_slice(&epoch.to_le_bytes());
            frame.extend_from_slice(&v.to_le_bytes());
            comm.send(d, frame)?;
        }
    }
    // The only fence: after it, every frame of this round is queued.
    comm.barrier()?;
    let mut out = vec![0u64; n];
    out[me] = mine[me];
    for (s, slot) in out.iter_mut().enumerate() {
        if s == me {
            continue;
        }
        // at most one acceptable frame per source this round; per-pair
        // FIFO puts it ahead of anything the source posted afterwards
        let mine_this_round = |hdr: &[u8]| {
            hdr.len() == ALLTOALL_FRAME
                && hdr[0] == ALLTOALL_MAGIC
                && hdr[1..9] == epoch.to_le_bytes()
        };
        if let Some(frame) = comm.try_recv_if(s, mine_this_round)? {
            *slot = take_u64(&mut &frame[9..], "alltoall_u64 value")?;
        }
    }
    Ok(out)
}

/// All-reduce a vector of u64 by element-wise summation — the
/// lossless counterpart of [`allreduce_sum_f64`] for particle counts
/// (a count round-tripped through f64 silently loses precision past
/// 2^53).
pub fn allreduce_sum_u64(comm: &Comm, mine: &[u64]) -> CommResult<Vec<u64>> {
    let what = ["allreduce_sum_u64 contribution", "allreduce_sum_u64 result"];
    allreduce_sum(comm, mine, u64::to_le_bytes, u64::from_le_bytes, what)
}

/// All-gather a fixed-size slice of f64 from every rank: the
/// concatenation in rank order on all ranks. Used to share measured
/// per-rank phase times for the load-imbalance indicator.
pub fn allgather_f64(comm: &Comm, mine: &[f64]) -> CommResult<Vec<f64>> {
    let what = ["ragged allgather_f64 contribution", "allgather_f64 result"];
    allgather(comm, mine, f64::to_le_bytes, f64::from_le_bytes, what)
}

/// All-gather a u64 from every rank (returned in rank order on all
/// ranks). Used for global particle counts and the Reindex scan.
pub fn allgather_u64(comm: &Comm, mine: u64) -> CommResult<Vec<u64>> {
    let what = ["allgather_u64 contribution", "allgather_u64 result"];
    allgather(comm, &[mine], u64::to_le_bytes, u64::from_le_bytes, what)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::run_world;

    #[test]
    fn gather_collects_in_rank_order_at_the_root() {
        let out = run_world(4, |c| {
            gather(&c, 0, vec![c.rank() as u8; c.rank() + 1]).unwrap()
        });
        let g = out[0].as_ref().expect("root holds the buffers");
        assert_eq!(g.len(), 4);
        for (r, b) in g.iter().enumerate() {
            assert_eq!(b, &vec![r as u8; r + 1]);
        }
        assert!(out[1..].iter().all(Option::is_none));
    }

    #[test]
    fn broadcast_reaches_all() {
        let out = run_world(5, |c| {
            let msg = if c.rank() == 2 {
                Some(b"hello".to_vec())
            } else {
                None
            };
            broadcast(&c, 2, msg).unwrap()
        });
        assert!(out.iter().all(|m| m == b"hello"));
    }

    #[test]
    fn allreduce_sums_vectors() {
        let out = run_world(3, |c| {
            let mine = vec![c.rank() as f64, 1.0];
            allreduce_sum_f64(&c, &mine).unwrap()
        });
        for v in out {
            assert_eq!(v, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn alltoall_delivers_columns() {
        let n = 5usize;
        let out = run_world(n, |c| {
            // mine[d] = 100*me + d, except a band of zeros
            let mine: Vec<u64> = (0..c.size())
                .map(|d| {
                    if (c.rank() + d) % 3 == 0 {
                        0
                    } else {
                        (100 * c.rank() + d) as u64
                    }
                })
                .collect();
            alltoall_u64(&c, &mine).unwrap()
        });
        for (d, col) in out.iter().enumerate() {
            for (s, &v) in col.iter().enumerate() {
                let want = if (s + d) % 3 == 0 {
                    0
                } else {
                    (100 * s + d) as u64
                };
                assert_eq!(v, want, "{s} -> {d}");
            }
        }
    }

    #[test]
    fn alltoall_zero_entries_cost_no_messages() {
        let tx = run_world(6, |c| {
            c.stats().reset();
            c.barrier().unwrap();
            // only rank 2 posts anything: one value to rank 5
            let mut mine = vec![0u64; 6];
            if c.rank() == 2 {
                mine[5] = 77;
            }
            let out = alltoall_u64(&c, &mine).unwrap();
            if c.rank() == 5 {
                assert_eq!(out[2], 77);
            }
            assert!(out.iter().enumerate().all(|(s, &v)| v == 0 || s == 2));
            c.barrier().unwrap();
            c.stats().transactions()
        })[0];
        assert_eq!(tx, 1, "one nonzero entry = one message");
    }

    #[test]
    fn back_to_back_alltoalls_do_not_interleave() {
        let out = run_world(4, |c| {
            let a: Vec<u64> = (0..4).map(|d| (c.rank() * 10 + d) as u64).collect();
            let first = alltoall_u64(&c, &a).unwrap();
            let b: Vec<u64> = (0..4).map(|d| (c.rank() * 1000 + d) as u64).collect();
            let second = alltoall_u64(&c, &b).unwrap();
            (first, second)
        });
        for (d, (f, s)) in out.iter().enumerate() {
            for src in 0..4 {
                assert_eq!(f[src], (src * 10 + d) as u64);
                assert_eq!(s[src], (src * 1000 + d) as u64);
            }
        }
    }

    #[test]
    fn allreduce_u64_is_lossless() {
        // 2^53 + rank is not representable round-tripped through f64;
        // the u64 reduction must keep every bit
        let out = run_world(3, |c| {
            let mine = vec![(1u64 << 53) + c.rank() as u64, c.rank() as u64];
            allreduce_sum_u64(&c, &mine).unwrap()
        });
        for v in out {
            assert_eq!(v, vec![3 * (1u64 << 53) + 3, 3]);
        }
    }

    #[test]
    fn allgather_f64_concatenates_in_rank_order() {
        let out = run_world(3, |c| {
            let r = c.rank() as f64;
            allgather_f64(&c, &[r, r + 0.5]).unwrap()
        });
        for v in out {
            assert_eq!(v, vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.5]);
        }
    }

    #[test]
    fn allgather_orders_by_rank() {
        let out = run_world(4, |c| allgather_u64(&c, (c.rank() * 10) as u64).unwrap());
        for v in out {
            assert_eq!(v, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn ragged_contribution_is_malformed_not_a_panic() {
        // rank 1 contributes the wrong element count; the root must
        // report Malformed (and abort so nobody hangs), not panic
        let out = run_world(2, |c| {
            if c.rank() == 0 {
                let r = allreduce_sum_f64(&c, &[0.0, 0.0]);
                c.abort(); // release the peer waiting on the broadcast
                r
            } else {
                // deliberately ragged: 1 element instead of 2
                allreduce_sum_f64(&c, &[1.0])
            }
        });
        assert_eq!(
            out[0],
            Err(CommError::Malformed {
                what: "allreduce_sum_f64 contribution"
            })
        );
        assert!(out[1].is_err());
    }
}
