//! Property tests for per-pair FIFO delivery on the point-to-point
//! surface (`send` / `try_recv_if` / `recv`): however receive polls and
//! blocking receives are interleaved across sources, each ordered
//! (source, destination) pair must deliver its messages in send
//! order. The hierarchical exchange's funnel/trunk/scatter drains and
//! the sparse counts round are built directly on this guarantee.

use proptest::prelude::*;
use vmpi::{run_world, Comm};

/// Payload of the `k`-th message from `src` to `dst` — self-describing
/// so a misrouted or reordered delivery names itself in the failure.
fn payload(src: usize, dst: usize, k: usize) -> Vec<u8> {
    vec![0xF1, src as u8, dst as u8, k as u8]
}

/// Every rank sends `msgs` numbered messages to every peer (sends
/// interleaved across peers), then receives each expected message
/// with a proptest-driven mix of accept-all `try_recv_if` polling and
/// blocking `recv`. Returns, per rank, the sequence numbers seen from
/// each source in completion order.
fn world_run(comm: &Comm, msgs: usize, polls: &[u32]) -> vmpi::CommResult<Vec<Vec<u8>>> {
    let me = comm.rank();
    let n = comm.size();
    for k in 0..msgs {
        for d in 0..n {
            if d != me {
                comm.send(d, payload(me, d, k))?;
            }
        }
    }
    // Per-pair FIFO is a statement about one source's stream, so the
    // interleaving freedom under test is *across* sources: the poll
    // pattern decides, round by round, which peer's next message gets
    // polled for versus blocked on.
    let mut seen: Vec<Vec<u8>> = vec![Vec::new(); n];
    let mut pending: Vec<usize> = (0..n).map(|s| if s == me { 0 } else { msgs }).collect();
    let mut turn = 0usize;
    while pending.iter().any(|&p| p > 0) {
        let src = (0..n)
            .cycle()
            .skip(turn % n)
            .find(|&s| pending[s] > 0)
            .expect("some pair still pending");
        // an all-poll pattern gets a budget after which receives fall
        // through to the blocking path, so it never spins unbounded
        let poll = polls[turn % polls.len()] == 1 && turn < 64 * n * msgs;
        turn += 1;
        let msg = if poll {
            // not ready: move to the next source — this is the
            // completion interleaving
            comm.try_recv_if(src, |_| true)?
        } else {
            Some(comm.recv(src)?)
        };
        if let Some(msg) = msg {
            seen[src].push(msg[3]);
            pending[src] -= 1;
        }
    }
    comm.barrier()?;
    Ok(seen)
}

proptest! {
    /// Bare `Comm`: the transport itself is FIFO per pair, and
    /// no interleaving of polls and blocking receives can reorder it.
    #[test]
    fn interleaved_completions_preserve_pair_fifo(
        n in 2usize..5,
        msgs in 1usize..6,
        polls in proptest::collection::vec(0u32..2, 1..24),
    ) {
        let all = run_world(n, move |c| {
            world_run(&c, msgs, &polls).expect("clean wire never fails")
        });
        for (me, seen) in all.iter().enumerate() {
            for (src, stream) in seen.iter().enumerate() {
                let want: Vec<u8> = if src == me {
                    Vec::new()
                } else {
                    (0..msgs as u8).collect()
                };
                prop_assert_eq!(stream, &want);
            }
        }
    }
}
