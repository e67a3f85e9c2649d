//! The particle-migration strategies (§IV-B) plus the sparse adaptive
//! extension.
//!
//! Particles can cross from any rank's subdomain to any other's, so
//! the solver needs all-to-any exchange rather than neighbour halo
//! exchange. Every strategy takes, on each rank, one packed byte
//! buffer per destination rank, and fills the buffers this rank
//! received.
//!
//! * [`Strategy::Centralized`]: gather → classify → scatter through a
//!   root rank. ~2N transactions, but every byte crosses the network
//!   twice (≈2M data volume).
//! * [`Strategy::Distributed`]: all-pairs two-round ordered
//!   send/recv. ~N(N−1) transactions but each byte moves once (≈M).
//! * [`Strategy::Sparse`]: counts-first — a sparse
//!   [`alltoall_u64`] of
//!   per-destination byte counts, then point-to-point transfers **only
//!   between pairs with nonzero payload**, still walking the paper's
//!   rank-ordered two-round schedule for deadlock freedom. A quiet
//!   step (particles mostly staying put or crossing into neighbouring
//!   subdomains) costs `O(nonzero pairs)` messages instead of
//!   `N(N−1)`.
//! * [`Strategy::Hier`]: two-level, node-aware. Ranks are grouped
//!   into nodes by a [`NodeMap`]; intra-node migrants travel the
//!   cheap direct path while inter-node migrants are funneled to the
//!   node leader, aggregated into **one packed message per active
//!   node pair**, trunked leader-to-leader, and scattered to their
//!   destination ranks. Message count scales with node pairs instead
//!   of rank pairs, which is the two-level aggregation of Bogdanov et
//!   al.
//! * [`Strategy::Auto`]: a marker resolved per step by the caller
//!   (`coupled::machine::CostModel::pick_strategy`) from the measured
//!   migration byte matrix — it never reaches the wire itself
//!   (reaching it unresolved is [`CommError::AutoUnresolved`]).
//!
//! The deadlock-avoidance ordering follows the paper: round 1 receives
//! from lower ranks then sends to higher ranks; round 2 receives from
//! higher ranks then sends to lower ranks.
//!
//! [`exchange_on_nodes`] is the one entry point; [`exchange_into`] is
//! the same call under the default two-node grouping. The caller's
//! `outgoing` buffers are only borrowed and keep their capacity for
//! the next step's packing, so each payload is copied once, into the
//! message [`Comm::send`] takes. On the receive side the flat
//! strategies move each delivered message into `incoming[src]`
//! uncopied; Centralized and Hier copy the payload out of the frame
//! that carried it.
//!
//! Every strategy is fallible end to end: a dead peer, a timed-out
//! receive or a malformed gathered frame surfaces as a
//! [`CommError`] instead of a panic, so the coupled driver can tear
//! the world down and restart from a checkpoint.

use crate::collectives::{alltoall_u64, ALLTOALL_FRAME};
use crate::comm::Comm;
use crate::error::{take_u32, take_u64, CommError, CommResult};

/// Which particle-migration strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Gather/classify/scatter through rank 0.
    Centralized,
    /// All-pairs two-round ordered exchange.
    Distributed,
    /// Counts-first, then point-to-point only between nonzero pairs.
    Sparse,
    /// Two-level node-aware: direct intra-node delivery, inter-node
    /// migrants aggregated into one message per active node pair and
    /// routed through the node leaders.
    Hier,
    /// Pick a concrete strategy per step from the migration matrix and
    /// the machine model. Must be resolved before the exchange itself
    /// runs.
    Auto,
}

impl Strategy {
    /// The strategies that actually move bytes (everything but
    /// [`Strategy::Auto`]), in the order the auto-selector scores them.
    pub const CONCRETE: [Strategy; 4] = [
        Strategy::Centralized,
        Strategy::Distributed,
        Strategy::Sparse,
        Strategy::Hier,
    ];

    /// This strategy's position in [`Strategy::CONCRETE`] (the index
    /// into per-strategy tallies and [`traffic_all`]'s result); `None`
    /// for [`Strategy::Auto`].
    pub fn concrete_index(self) -> Option<usize> {
        Self::CONCRETE.iter().position(|&c| c == self)
    }
}

/// Grouping of the world's ranks into nodes for [`Strategy::Hier`]:
/// consecutive blocks of `per_node` ranks (the last node may be
/// short), matching how schedulers hand out contiguous rank ranges
/// per host.
///
/// The node of rank `r` is `node_of(r)`; the *leader* of a node is its
/// lowest-numbered member and carries that node's share of the
/// aggregated inter-node traffic. Mirrors the machine placement in
/// `coupled::machine`: ranks on one node talk over the cheap
/// inner-frame tier, node pairs over the expensive inter-rack tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeMap {
    ranks: usize,
    per_node: usize,
}

impl NodeMap {
    /// `ranks` ranks in nodes of `per_node`.
    pub fn grouped(ranks: usize, per_node: usize) -> Self {
        assert!(per_node > 0, "ranks_per_node must be positive");
        NodeMap { ranks, per_node }
    }

    /// Default grouping when the caller gave none: two equal halves —
    /// the smallest shape that exercises both tiers of the protocol.
    pub fn default_for(n_ranks: usize) -> Self {
        Self::grouped(n_ranks, n_ranks.div_ceil(2).max(1))
    }

    /// Number of ranks mapped.
    pub fn len(&self) -> usize {
        self.ranks
    }

    /// Whether the map covers no ranks (`grouped(0, _)`).
    pub fn is_empty(&self) -> bool {
        self.ranks == 0
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.per_node)
    }

    /// The node rank `r` lives on.
    pub fn node_of(&self, r: usize) -> usize {
        r / self.per_node
    }

    /// The leader (lowest member rank) of `node`.
    pub fn leader(&self, node: usize) -> usize {
        node * self.per_node
    }

    /// Whether `r` is its node's leader.
    pub fn is_leader(&self, r: usize) -> bool {
        r.is_multiple_of(self.per_node)
    }

    /// The member ranks of `node`, ascending.
    pub fn members(&self, node: usize) -> std::ops::Range<usize> {
        self.leader(node)..self.leader(node + 1).min(self.ranks)
    }
}

/// Exchange under the default node grouping
/// ([`NodeMap::default_for`]); see [`exchange_on_nodes`].
pub fn exchange_into(
    comm: &Comm,
    strategy: Strategy,
    outgoing: &mut [Vec<u8>],
    incoming: &mut Vec<Vec<u8>>,
) -> CommResult<()> {
    let nodes = NodeMap::default_for(comm.size());
    exchange_on_nodes(comm, strategy, &nodes, outgoing, incoming)
}

/// Exchange `outgoing[dest]` buffers between all ranks: fills
/// `incoming[src]` (resized to world size, every buffer cleared, then
/// filled with what `src` sent) from `outgoing[dest]`, which is only
/// borrowed — its buffers keep their contents and capacity, ready to
/// be cleared and repacked next step. `outgoing[comm.rank()]` is
/// delivered straight to `incoming[comm.rank()]` without touching the
/// network.
/// `nodes` groups the ranks for [`Strategy::Hier`]; the flat
/// strategies ignore it.
pub fn exchange_on_nodes(
    comm: &Comm,
    strategy: Strategy,
    nodes: &NodeMap,
    outgoing: &mut [Vec<u8>],
    incoming: &mut Vec<Vec<u8>>,
) -> CommResult<()> {
    let n = comm.size();
    let me = comm.rank();
    assert_eq!(outgoing.len(), n);
    incoming.resize_with(n, Vec::new);
    for buf in incoming.iter_mut() {
        buf.clear();
    }
    incoming[me].extend_from_slice(&outgoing[me]);
    match strategy {
        Strategy::Centralized => exchange_centralized_into(comm, outgoing, incoming),
        Strategy::Distributed => exchange_ordered_into(comm, outgoing, incoming, None),
        Strategy::Sparse => {
            // the counts round tells every rank which peers hold
            // payload for it
            let counts: Vec<u64> = outgoing
                .iter()
                .enumerate()
                .map(|(d, b)| if d == me { 0 } else { b.len() as u64 })
                .collect();
            let expect = alltoall_u64(comm, &counts)?;
            exchange_ordered_into(comm, outgoing, incoming, Some(&expect))
        }
        Strategy::Hier => exchange_hier(comm, nodes, outgoing, incoming),
        Strategy::Auto => Err(CommError::AutoUnresolved),
    }
}

/// Wire magics for the three hierarchical phases. Distinct per phase
/// so a fence-and-drain that meets a frame posted early for a later
/// phase can decline it ([`Comm::try_recv_if`]) instead of misparsing
/// it.
const HIER_INTRA: u8 = 0xE1;
const HIER_TRUNK: u8 = 0xE2;
const HIER_SCATTER: u8 = 0xE3;

/// Header bytes of a frame that carries only its phase magic (the
/// hierarchical trunk and scatter frames).
const TAG_HEADER: u64 = 1;
/// Header bytes of a hierarchical intra frame: the magic and the `u64`
/// length of the direct payload (funneled groups follow it).
const INTRA_HEADER: u64 = TAG_HEADER + 8;

/// Header bytes of a *group* — one payload inside a larger frame,
/// prefixed by `ids` little-endian `u32` rank ids and its `u64` length.
const fn group_header(ids: usize) -> u64 {
    4 * ids as u64 + 8
}
/// `(who, len)`: the centralized gather/scatter groups and the
/// hierarchical scatter bundles name the one rank the frame does not.
const ADDRESSED_HEADER: u64 = group_header(1);
/// `(src, dst, len)`: the hierarchical funnel and trunk groups.
const ROUTED_HEADER: u64 = group_header(2);

/// What a group's fields are called in [`CommError::Malformed`].
struct GroupNames<const K: usize> {
    ids: [&'static str; K],
    length: &'static str,
    body: &'static str,
}
const HIER_GROUP: GroupNames<2> = GroupNames {
    ids: ["hier group src", "hier group dst"],
    length: "hier group length",
    body: "hier group body",
};
const HIER_BUNDLE: GroupNames<1> = GroupNames {
    ids: ["hier scatter src"],
    length: "hier scatter length",
    body: "hier scatter body",
};
const CENTRALIZED_GROUP: GroupNames<1> = GroupNames {
    ids: ["centralized group header"],
    length: "centralized group length",
    body: "centralized group body",
};

/// Append one group to `buf`.
fn put_group<const K: usize>(buf: &mut Vec<u8>, ids: [usize; K], payload: &[u8]) {
    for id in ids {
        buf.extend_from_slice(&(id as u32).to_le_bytes());
    }
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Split the group [`put_group`] wrote off the front of `cur`; every
/// id must be a rank of the `n`-rank world.
fn take_group<'a, const K: usize>(
    cur: &mut &'a [u8],
    n: usize,
    what: &GroupNames<K>,
) -> CommResult<([usize; K], &'a [u8])> {
    let mut ids = [0usize; K];
    for (id, what) in ids.iter_mut().zip(what.ids) {
        *id = take_u32(cur, what)? as usize;
    }
    let len = take_u64(cur, what.length)? as usize;
    if ids.iter().any(|&id| id >= n) || cur.len() < len {
        return Err(CommError::Malformed { what: what.body });
    }
    let (payload, rest) = cur.split_at(len);
    *cur = rest;
    Ok((ids, payload))
}

/// The three-phase hierarchical protocol (assumes the caller already
/// prepared `incoming` and delivered the self slot):
///
/// 1. **Intra + funnel** (`0xE1`): each rank sends every same-node
///    peer its direct payload, and appends to the *leader's* frame the
///    `(src, dst, len, payload)` groups of all its inter-node
///    emigrants. Empty frames are skipped.
/// 2. **Trunk** (`0xE2`): each leader packs everything its node sends
///    to node `b` into **one** frame for `b`'s leader — the
///    per-node-pair aggregation.
/// 3. **Scatter** (`0xE3`): the destination leader regroups arrived
///    groups by destination rank and forwards `(src, len, payload)`
///    bundles to its members; its own groups are delivered locally.
///
/// Every phase is sends → barrier → single-try filtered drain from
/// the known source set (same fence-and-drain as the sparse counts
/// round: after the fence, per-pair FIFO delivery guarantees every
/// frame of the phase is queued). A trailing barrier keeps a fast
/// rank's post-exchange traffic out of a slow peer's final drain.
fn exchange_hier(
    comm: &Comm,
    nodes: &NodeMap,
    outgoing: &[Vec<u8>],
    incoming: &mut [Vec<u8>],
) -> CommResult<()> {
    let n = comm.size();
    let me = comm.rank();
    assert_eq!(nodes.len(), n, "node map sized for another world");
    let my_node = nodes.node_of(me);
    let my_leader = nodes.leader(my_node);

    // --- phase 1: intra-node payloads, inter-node funnel ------------
    let mut funnel = Vec::new();
    for (dst, payload) in outgoing.iter().enumerate() {
        if dst != me && nodes.node_of(dst) != my_node && !payload.is_empty() {
            put_group(&mut funnel, [me, dst], payload);
        }
    }
    for q in nodes.members(my_node) {
        if q == me {
            continue;
        }
        let intra = &outgoing[q];
        let tail: &[u8] = if q == my_leader { &funnel } else { &[] };
        if intra.is_empty() && tail.is_empty() {
            continue;
        }
        let mut frame = Vec::with_capacity(INTRA_HEADER as usize + intra.len() + tail.len());
        frame.push(HIER_INTRA);
        frame.extend_from_slice(&(intra.len() as u64).to_le_bytes());
        frame.extend_from_slice(intra);
        frame.extend_from_slice(tail);
        comm.send(q, frame)?;
    }
    comm.barrier()?;

    // drain phase 1: everyone collects intra payloads; leaders also
    // bucket the funneled groups by destination node
    let mut trunk: Vec<Vec<u8>> = vec![Vec::new(); nodes.nodes()];
    let bucket = |mut groups: &[u8], trunk: &mut Vec<Vec<u8>>| {
        while !groups.is_empty() {
            let ([src, dst], payload) = take_group(&mut groups, n, &HIER_GROUP)?;
            let to = nodes.node_of(dst);
            if to == my_node {
                return Err(CommError::Malformed {
                    what: "hier funnel group already intra-node",
                });
            }
            put_group(&mut trunk[to], [src, dst], payload);
        }
        Ok(())
    };
    if me == my_leader && !funnel.is_empty() {
        bucket(&funnel, &mut trunk)?;
    }
    for q in nodes.members(my_node) {
        if q == me {
            continue;
        }
        if let Some(frame) = comm.try_recv_if(q, |h| h.first() == Some(&HIER_INTRA))? {
            let mut cur = &frame[1..];
            let intra_len = take_u64(&mut cur, "hier intra length")? as usize;
            if cur.len() < intra_len {
                return Err(CommError::Malformed {
                    what: "hier intra payload",
                });
            }
            let (intra, groups) = cur.split_at(intra_len);
            incoming[q].extend_from_slice(intra);
            if me == my_leader && !groups.is_empty() {
                bucket(groups, &mut trunk)?;
            }
        }
    }

    // --- phase 2: one aggregated frame per active node pair ---------
    if me == my_leader {
        for (b, groups) in trunk.iter().enumerate() {
            if b == my_node || groups.is_empty() {
                continue;
            }
            let mut frame = Vec::with_capacity(TAG_HEADER as usize + groups.len());
            frame.push(HIER_TRUNK);
            frame.extend_from_slice(groups);
            comm.send(nodes.leader(b), frame)?;
        }
    }
    comm.barrier()?;

    // drain phase 2 and post phase 3 (leaders only): regroup arrived
    // groups by destination member; own groups deliver locally
    if me == my_leader {
        let mut scatter: Vec<Vec<u8>> = vec![Vec::new(); n];
        for b in 0..nodes.nodes() {
            if b == my_node {
                continue;
            }
            let lb = nodes.leader(b);
            if let Some(frame) = comm.try_recv_if(lb, |h| h.first() == Some(&HIER_TRUNK))? {
                let mut cur = &frame[1..];
                while !cur.is_empty() {
                    let ([src, dst], payload) = take_group(&mut cur, n, &HIER_GROUP)?;
                    if nodes.node_of(dst) != my_node {
                        return Err(CommError::Malformed {
                            what: "hier trunk group for another node",
                        });
                    }
                    if dst == me {
                        incoming[src].extend_from_slice(payload);
                    } else {
                        put_group(&mut scatter[dst], [src], payload);
                    }
                }
            }
        }
        for (q, bundles) in scatter.iter().enumerate() {
            if bundles.is_empty() {
                continue;
            }
            let mut frame = Vec::with_capacity(TAG_HEADER as usize + bundles.len());
            frame.push(HIER_SCATTER);
            frame.extend_from_slice(bundles);
            comm.send(q, frame)?;
        }
    }
    comm.barrier()?;

    // drain phase 3 (non-leader members)
    if me != my_leader {
        if let Some(frame) = comm.try_recv_if(my_leader, |h| h.first() == Some(&HIER_SCATTER))? {
            let mut cur = &frame[1..];
            while !cur.is_empty() {
                let ([src], payload) = take_group(&mut cur, n, &HIER_BUNDLE)?;
                incoming[src].extend_from_slice(payload);
            }
        }
    }
    // trailing fence: a fast rank's post-exchange traffic must not
    // land in a slow peer's still-pending scatter drain
    comm.barrier()?;
    Ok(())
}

/// The paper's two-round ordered schedule, shared by Distributed
/// (`expect` is `None`: every ordered pair exchanges one message) and
/// Sparse (`expect[src]` is the byte count the counts round announced:
/// every zero pair is skipped on both sides — the counts are symmetric
/// knowledge, so the schedule stays deadlock-free).
// index loops: the loop variable is the peer rank of an ordered
// schedule, and the iteration bounds (`0..me`, `me+1..n`, reversed)
// are the deadlock-freedom argument — keep them explicit
#[allow(clippy::needless_range_loop)]
fn exchange_ordered_into(
    comm: &Comm,
    outgoing: &[Vec<u8>],
    incoming: &mut [Vec<u8>],
    expect: Option<&[u64]>,
) -> CommResult<()> {
    let me = comm.rank();
    let n = comm.size();
    // the received message moves in; the caller keeps `outgoing`, so
    // its buffer is copied into the message `send` takes
    let recv = |src: usize, incoming: &mut [Vec<u8>]| match expect {
        Some(expect) if expect[src] == 0 => Ok(()),
        _ => comm.recv(src).map(|msg| incoming[src] = msg),
    };
    let send = |dst: usize| match expect {
        Some(_) if outgoing[dst].is_empty() => Ok(()),
        _ => comm.send(dst, outgoing[dst].clone()),
    };
    // Round 1: receive from every lower rank (ascending), then send to
    // every higher rank (ascending).
    for src in 0..me {
        recv(src, incoming)?;
    }
    for dst in me + 1..n {
        send(dst)?;
    }
    // Round 2: receive from every higher rank (descending), then send
    // to every lower rank (descending).
    for src in (me + 1..n).rev() {
        recv(src, incoming)?;
    }
    for dst in (0..me).rev() {
        send(dst)?;
    }
    Ok(())
}

/// Centralized strategy: gather at root, classify by destination,
/// scatter. Classification borrows byte ranges of the gathered
/// messages — each payload is copied exactly once into its scatter
/// buffer, not staged through intermediate per-payload `Vec`s.
fn exchange_centralized_into(
    comm: &Comm,
    outgoing: &mut [Vec<u8>],
    incoming: &mut [Vec<u8>],
) -> CommResult<()> {
    const ROOT: usize = 0;
    let me = comm.rank();
    let n = comm.size();

    if me == ROOT {
        // --- gather stage -------------------------------------------
        let mut gathered: Vec<Vec<u8>> = Vec::with_capacity(n);
        gathered.push(Vec::new()); // root's groups come straight from `outgoing`
        for src in 1..n {
            gathered.push(comm.recv(src)?);
        }
        // --- classify stage: borrowed (src, payload-slice) refs -----
        let mut classified: Vec<Vec<(usize, &[u8])>> = vec![Vec::new(); n];
        for (dst, payload) in outgoing.iter().enumerate() {
            if dst != ROOT && !payload.is_empty() {
                classified[dst].push((ROOT, payload.as_slice()));
            }
        }
        for (src, buf) in gathered.iter().enumerate().skip(1) {
            let mut cur = buf.as_slice();
            while !cur.is_empty() {
                let ([dst], payload) = take_group(&mut cur, n, &CENTRALIZED_GROUP)?;
                classified[dst].push((src, payload));
            }
        }
        // --- scatter stage: one copy per payload, into a fresh frame
        // that moves into `send` --------------------------------------
        for (dst, groups) in classified.iter().enumerate() {
            if dst == ROOT {
                for &(src, payload) in groups {
                    incoming[src].extend_from_slice(payload);
                }
            } else {
                let group_len = |&(_, p): &(usize, &[u8])| ADDRESSED_HEADER as usize + p.len();
                let mut scatter = Vec::with_capacity(groups.iter().map(group_len).sum());
                for &(src, payload) in groups {
                    put_group(&mut scatter, [src], payload);
                }
                comm.send(dst, scatter)?;
            }
        }
    } else {
        // one message of (dst, payload) groups, skipping self
        let mut msg = Vec::new();
        for (dst, payload) in outgoing.iter().enumerate() {
            if dst != me && !payload.is_empty() {
                put_group(&mut msg, [dst], payload);
            }
        }
        comm.send(ROOT, msg)?;
        let buf = comm.recv(ROOT)?;
        let mut cur = buf.as_slice();
        while !cur.is_empty() {
            let ([src], payload) = take_group(&mut cur, n, &CENTRALIZED_GROUP)?;
            incoming[src].extend_from_slice(payload);
        }
    }
    Ok(())
}

/// Traffic summary for one exchange given the migration byte matrix
/// `matrix[src][dst]` (diagonal ignored). Used by the analytic cluster
/// performance model so the modelled experiments charge exactly the
/// traffic the real protocols generate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficSummary {
    /// Total point-to-point messages on the network.
    pub transactions: u64,
    /// Total bytes moved over the network.
    pub total_bytes: u64,
    /// Worst per-rank sum of (sent + received) bytes — the serial
    /// bottleneck rank (the root, under the centralized scheme).
    pub max_rank_bytes: u64,
    /// Nonzero off-diagonal entries of the migration matrix: the
    /// ordered src→dst pairs that actually carry bytes.
    pub nonzero_pairs: u64,
    /// Worst per-rank count of point-to-point operations (sends +
    /// receives) — the serialized-latency bound of the protocol.
    pub max_rank_msgs: u64,
    /// Ordered node pairs carrying an aggregated trunk frame — the
    /// hierarchical strategy's message-count currency (zero for the
    /// flat strategies).
    pub node_pairs: u64,
    /// Bytes of the aggregated leader-to-leader trunk frames, headers
    /// included (zero for the flat strategies).
    pub aggregated_bytes: u64,
    /// Log-depth barrier sweeps the protocol synchronizes with — a
    /// latency the cost model charges on top of the messages (barriers
    /// are not transactions), two per barrier: none for Centralized
    /// and Distributed, 2 for the one barrier of Sparse's counts round,
    /// 8 for Hier's three phase fences and trailing fence.
    pub fences: u64,
    /// Whether the busiest rank's operations queue at one root, one
    /// eager message after another (Centralized), instead of running
    /// in the strict source-order rounds whose skew every rank of a
    /// node contends for (all other protocols).
    pub root_serialized: bool,
}

/// One migration byte matrix in sparse form: its nonzero off-diagonal
/// `(src, dst, bytes)` entries, every ordered pair at most once, in
/// `(src, dst)` order — what [`traffic_all`] prices without ever
/// looking at the `N²` cells that carry nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Flows {
    entries: Vec<(u32, u32, u64)>,
}

impl Flows {
    /// An empty matrix (nothing migrates).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replace the contents with the sum of `contributions`; a pair may
    /// contribute any number of times, `src == dst` and zero-byte
    /// contributions are dropped. Keeps the allocation, so one `Flows`
    /// can be refilled exchange after exchange.
    pub fn assign(&mut self, contributions: impl IntoIterator<Item = (u32, u32, u64)>) {
        self.entries.clear();
        self.entries.extend(
            contributions
                .into_iter()
                .filter(|&(s, d, b)| s != d && b > 0),
        );
        self.entries.sort_unstable_by_key(|&(s, d, _)| (s, d));
        self.entries.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 += next.2;
            }
            same
        });
    }

    /// The sparse form of the dense square `matrix[src][dst]`
    /// (diagonal ignored).
    pub fn from_matrix(matrix: &[Vec<u64>]) -> Self {
        let n = matrix.len();
        let mut flows = Flows::new();
        flows.assign(matrix.iter().enumerate().flat_map(|(s, row)| {
            assert_eq!(row.len(), n, "migration matrix must be square");
            row.iter()
                .enumerate()
                .map(move |(d, &b)| (s as u32, d as u32, b))
        }));
        flows
    }
}

/// Predict the traffic of one exchange under `strategy` (the
/// hierarchical strategy under the two-node default grouping).
///
/// Panics on [`Strategy::Auto`]: the auto marker has no traffic of its
/// own — resolving it first is a caller precondition, not a runtime
/// communication fault.
pub fn traffic(strategy: Strategy, matrix: &[Vec<u64>]) -> TrafficSummary {
    let idx = strategy.concrete_index().expect(
        "Strategy::Auto has no traffic of its own — resolve it to a concrete \
         strategy first (CostModel::pick_strategy)",
    );
    let nodes = NodeMap::default_for(matrix.len());
    traffic_all(&nodes, &Flows::from_matrix(matrix))[idx]
}

/// Predict the traffic of one exchange of `flows` between
/// `nodes.len()` ranks under every concrete strategy at once, in
/// [`Strategy::CONCRETE`] order — one pass over the nonzero pairs,
/// mirroring each wire protocol byte for byte (barriers are
/// synchronization, not transactions):
///
/// * **Centralized**: N−1 gathers + N−1 scatters through rank 0; a
///   pair's payload and its `(who, len)` group header cross the wire
///   once per hop — twice unless source or destination is the root
///   itself.
/// * **Distributed**: every ordered pair exchanges exactly one
///   message; bytes move once.
/// * **Sparse**: per nonzero pair one tagged count frame (the sparse
///   alltoall — zero entries cost no message) + one payload message.
/// * **Hier** (grouped by `nodes`): phase-1 frames are the intra
///   header and the direct payload plus, toward the leader, one routed
///   group per funneled payload; phase-2 trunk frames are the magic
///   plus the aggregated routed groups of the node pair; phase-3
///   scatter frames are the magic plus one addressed group per bundle.
///
/// The header sizes are the constants the wire code above writes its
/// frames by.
pub fn traffic_all(nodes: &NodeMap, flows: &Flows) -> [TrafficSummary; 4] {
    let n = nodes.len();
    let nn = nodes.nodes();
    let all_pairs = 2 * (n as u64 - 1);
    let nonzero_pairs = flows.entries.len() as u64;

    // flat strategies: bytes sent + received, and nonzero partners in
    // either direction, per rank
    let mut off_diag = 0u64; // M: bytes that actually change ranks
    let mut rank_bytes = vec![0u64; n];
    let mut rank_pairs = vec![0u64; n];
    let mut root_bytes = 0u64;

    // hierarchical: per-rank frame tallies, then what the later phases
    // will carry
    let mut hier = TrafficSummary {
        nonzero_pairs,
        fences: 8,
        ..TrafficSummary::default()
    };
    let mut hier_bytes = vec![0u64; n];
    let mut hier_msgs = vec![0u64; n];
    let mut frame = |from: usize, to: usize, bytes: u64| {
        hier.transactions += 1;
        hier.total_bytes += bytes;
        hier_bytes[from] += bytes;
        hier_bytes[to] += bytes;
        hier_msgs[from] += 1;
        hier_msgs[to] += 1;
    };
    // up[s]: what non-leader s sends its leader in phase 1 (direct
    // payload + funneled groups; a leader's own funnel stays local)
    let mut up = vec![0u64; n];
    // trunk[a·nn + b]: aggregated group bytes node a sends node b
    let mut trunk = vec![0u64; nn * nn];
    // scatter[q]: bundle bytes q's leader forwards to member q
    let mut scatter = vec![0u64; n];

    for &(s, d, b) in &flows.entries {
        let (s, d) = (s as usize, d as usize);
        off_diag += b;
        for r in [s, d] {
            rank_bytes[r] += b;
            rank_pairs[r] += 1;
        }
        root_bytes += (ADDRESSED_HEADER + b) * (u64::from(s != 0) + u64::from(d != 0));

        let (from, to) = (nodes.node_of(s), nodes.node_of(d));
        let leader = nodes.leader(from);
        if from != to {
            if s != leader {
                up[s] += ROUTED_HEADER + b;
            }
            trunk[from * nn + to] += ROUTED_HEADER + b;
            if d != nodes.leader(to) {
                scatter[d] += ADDRESSED_HEADER + b;
            }
        } else if d == leader {
            up[s] += b;
        } else {
            frame(s, d, INTRA_HEADER + b);
        }
    }
    // phase 1 toward the leader: one frame if there is anything to carry
    for (s, &bytes) in up.iter().enumerate() {
        if bytes > 0 {
            frame(s, nodes.leader(nodes.node_of(s)), INTRA_HEADER + bytes);
        }
    }
    // phase 2: one frame per active ordered node pair
    let (mut node_pairs, mut aggregated_bytes) = (0u64, 0u64);
    for (at, &groups) in trunk.iter().enumerate() {
        if groups > 0 {
            node_pairs += 1;
            aggregated_bytes += TAG_HEADER + groups;
            frame(
                nodes.leader(at / nn),
                nodes.leader(at % nn),
                TAG_HEADER + groups,
            );
        }
    }
    // phase 3: one frame per member with inbound inter-node bundles
    for (q, &bundles) in scatter.iter().enumerate() {
        if bundles > 0 {
            frame(nodes.leader(nodes.node_of(q)), q, TAG_HEADER + bundles);
        }
    }
    hier.max_rank_bytes = hier_bytes.iter().copied().max().unwrap_or(0);
    hier.max_rank_msgs = hier_msgs.iter().copied().max().unwrap_or(0);
    hier.node_pairs = node_pairs;
    hier.aggregated_bytes = aggregated_bytes;

    let flat = |transactions, total_bytes, max_rank_bytes, max_rank_msgs, fences| TrafficSummary {
        transactions,
        total_bytes,
        max_rank_bytes,
        nonzero_pairs,
        max_rank_msgs,
        fences,
        ..TrafficSummary::default()
    };
    let busiest = |per_pair: u64| {
        rank_bytes
            .iter()
            .zip(&rank_pairs)
            .map(|(&b, &p)| b + per_pair * p)
            .max()
            .unwrap_or(0)
    };
    let max_pairs = rank_pairs.iter().copied().max().unwrap_or(0);
    let count_frame = ALLTOALL_FRAME as u64;
    [
        // the root is the serial bottleneck: everything passes through it
        TrafficSummary {
            root_serialized: true,
            ..flat(all_pairs, root_bytes, root_bytes, all_pairs, 0)
        },
        flat(
            n as u64 * (n as u64 - 1),
            off_diag,
            busiest(0),
            all_pairs,
            0,
        ),
        flat(
            2 * nonzero_pairs,
            off_diag + count_frame * nonzero_pairs,
            busiest(count_frame),
            2 * max_pairs,
            2,
        ),
        hier,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::run_world;

    /// Build a deterministic payload for (src → dst).
    fn payload(src: usize, dst: usize) -> Vec<u8> {
        vec![(src * 16 + dst) as u8; (src + 1) * (dst + 2)]
    }

    /// Owned-buffer form of [`exchange_into`] for one-shot test worlds.
    fn exchange(
        comm: &Comm,
        strategy: Strategy,
        mut outgoing: Vec<Vec<u8>>,
    ) -> CommResult<Vec<Vec<u8>>> {
        let mut incoming = Vec::new();
        exchange_into(comm, strategy, &mut outgoing, &mut incoming)?;
        Ok(incoming)
    }

    fn check_all_to_all(strategy: Strategy, n: usize) {
        let results = run_world(n, |c| {
            let outgoing: Vec<Vec<u8>> = (0..c.size()).map(|dst| payload(c.rank(), dst)).collect();
            exchange(&c, strategy, outgoing).unwrap()
        });
        for (dst, incoming) in results.iter().enumerate() {
            assert_eq!(incoming.len(), n);
            for (src, buf) in incoming.iter().enumerate() {
                assert_eq!(buf, &payload(src, dst), "{src} -> {dst}");
            }
        }
    }

    #[test]
    fn distributed_delivers_everything() {
        for n in [1usize, 2, 3, 5, 8] {
            check_all_to_all(Strategy::Distributed, n);
        }
    }

    #[test]
    fn centralized_delivers_everything() {
        for n in [1usize, 2, 3, 5, 8] {
            check_all_to_all(Strategy::Centralized, n);
        }
    }

    #[test]
    fn sparse_delivers_everything() {
        for n in [1usize, 2, 3, 5, 8] {
            check_all_to_all(Strategy::Sparse, n);
        }
    }

    #[test]
    fn hier_delivers_everything() {
        for n in [1usize, 2, 3, 5, 8] {
            check_all_to_all(Strategy::Hier, n);
        }
    }

    #[test]
    fn hier_delivers_under_every_node_shape() {
        // same dense traffic, every grouping of 6 ranks: single node
        // (pure intra), one rank per node (pure trunk), and the mixed
        // shapes in between
        for rpn in [1usize, 2, 3, 4, 6] {
            let results = run_world(6, move |c| {
                let nodes = NodeMap::grouped(c.size(), rpn);
                let mut outgoing: Vec<Vec<u8>> =
                    (0..c.size()).map(|dst| payload(c.rank(), dst)).collect();
                let mut incoming = Vec::new();
                exchange_on_nodes(&c, Strategy::Hier, &nodes, &mut outgoing, &mut incoming)
                    .unwrap();
                incoming
            });
            for (dst, incoming) in results.iter().enumerate() {
                for (src, buf) in incoming.iter().enumerate() {
                    assert_eq!(buf, &payload(src, dst), "rpn={rpn} {src}->{dst}");
                }
            }
        }
    }

    /// ISSUE acceptance shape: on the 8-rank quiet matrix the
    /// hierarchical strategy must send strictly fewer messages than
    /// Sparse's 2·nnz — aggregation means the cross-node pair costs
    /// funnel + trunk, not counts + payload per rank pair.
    #[test]
    fn hier_quiet_step_beats_sparse_transactions() {
        let n = 8usize;
        let measure = |strategy: Strategy| {
            run_world(n, move |c| {
                c.stats().reset();
                c.barrier().unwrap();
                // nodes {0..3} and {4..7}: 1→3 is intra-node, 6→0
                // crosses nodes into the destination leader
                let mut outgoing = vec![Vec::new(); c.size()];
                match c.rank() {
                    1 => outgoing[3] = vec![7u8; 61],
                    6 => outgoing[0] = vec![9u8; 122],
                    _ => {}
                }
                let inc = exchange(&c, strategy, outgoing).unwrap();
                c.barrier().unwrap();
                (c.stats().transactions(), inc)
            })
        };
        let hier = measure(Strategy::Hier);
        let sparse = measure(Strategy::Sparse);
        let (tx_hier, _) = hier[0];
        let (tx_sparse, _) = sparse[0];
        assert_eq!(tx_hier, 3, "intra + funnel + trunk");
        assert_eq!(tx_sparse, 4, "counts + payload per nonzero pair");
        assert!(tx_hier < tx_sparse);
        // identical deliveries
        for (rank, ((_, a), (_, b))) in hier.iter().zip(&sparse).enumerate() {
            assert_eq!(a, b, "rank {rank} incoming differs");
        }
    }

    /// The Hier entry of `traffic_all` must agree with what CommStats
    /// measures on the threaded backend for the same migration matrix
    /// and node map.
    #[test]
    fn hier_traffic_model_matches_measurement() {
        let n = 6usize;
        let rpn = 2usize; // nodes {0,1} {2,3} {4,5}
        let mut m = vec![vec![0u64; n]; n];
        m[0][1] = 40; // intra
        m[0][3] = 100; // cross, from a leader, to a non-leader
        m[3][0] = 50; // cross, from a non-leader, to a leader
        m[2][5] = 7; // cross
        m[4][1] = 1; // cross, from a leader
        m[5][4] = 9; // intra toward the leader
        let nodes = NodeMap::grouped(n, rpn);
        let model = traffic_all(&nodes, &Flows::from_matrix(&m))[3];
        let m2 = m.clone();
        let (tx, bytes) = {
            let out = run_world(n, move |c| {
                c.stats().reset();
                c.barrier().unwrap();
                let nodes = NodeMap::grouped(c.size(), rpn);
                let mut outgoing: Vec<Vec<u8>> = (0..c.size())
                    .map(|d| vec![0xBBu8; m2[c.rank()][d] as usize])
                    .collect();
                let mut incoming = Vec::new();
                exchange_on_nodes(&c, Strategy::Hier, &nodes, &mut outgoing, &mut incoming)
                    .unwrap();
                // deliveries must match the matrix
                for (src, buf) in incoming.iter().enumerate() {
                    assert_eq!(buf.len() as u64, m2[src][c.rank()], "{src}->{}", c.rank());
                }
                c.barrier().unwrap();
                (c.stats().transactions(), c.stats().bytes())
            });
            out[0]
        };
        assert_eq!(model.transactions, tx, "transactions");
        assert_eq!(model.total_bytes, bytes, "frame bytes");
        assert_eq!(model.nonzero_pairs, 6);
        assert!(model.node_pairs > 0 && model.aggregated_bytes > 0);
    }

    #[test]
    fn node_map_shapes() {
        let m = NodeMap::grouped(8, 3); // {0,1,2} {3,4,5} {6,7}
        assert_eq!(m.nodes(), 3);
        assert_eq!(m.len(), 8);
        assert_eq!(m.node_of(5), 1);
        assert_eq!(m.leader(2), 6);
        assert!(m.is_leader(3));
        assert!(!m.is_leader(4));
        assert_eq!(m.members(1).collect::<Vec<_>>(), vec![3, 4, 5]);
        let d = NodeMap::default_for(7); // {0..3} {4..6}
        assert_eq!(d.nodes(), 2);
        assert_eq!(d.node_of(3), 0);
        assert_eq!(d.node_of(4), 1);
        assert_eq!(NodeMap::default_for(1).nodes(), 1);
    }

    #[test]
    fn grouped_handles_ragged_last_node() {
        // 10 ranks in nodes of 4: the last node holds only 2 ranks
        let m = NodeMap::grouped(10, 4);
        assert_eq!(m.nodes(), 3);
        assert_eq!(m.members(2).collect::<Vec<_>>(), vec![8, 9]);
        assert_eq!(m.leader(2), 8);
        assert!(m.is_leader(8) && !m.is_leader(9));
        // every rank lands on exactly one node, in contiguous blocks
        for r in 0..10 {
            assert_eq!(m.node_of(r), r / 4);
        }
    }

    #[test]
    fn grouped_single_node_and_one_rank_per_node() {
        // node size >= world: everything on one node, rank 0 leads
        let one = NodeMap::grouped(6, 8);
        assert_eq!(one.nodes(), 1);
        assert!(one.is_leader(0));
        assert_eq!((0..6).filter(|&r| one.is_leader(r)).count(), 1);
        assert_eq!(one.members(0).count(), 6);

        // node size 1: every rank is its own node and its own leader
        let solo = NodeMap::grouped(5, 1);
        assert_eq!(solo.nodes(), 5);
        for r in 0..5 {
            assert_eq!(solo.node_of(r), r);
            assert_eq!(solo.leader(r), r);
            assert!(solo.is_leader(r));
        }
    }

    #[test]
    fn grouped_partitions_the_world_into_led_contiguous_blocks() {
        for n in 1..=64 {
            for per_node in 1..=n + 2 {
                let m = NodeMap::grouped(n, per_node);
                let mut next = 0;
                for node in 0..m.nodes() {
                    let members: Vec<usize> = m.members(node).collect();
                    assert!(!members.is_empty(), "n={n} per_node={per_node} node={node}");
                    assert_eq!(m.leader(node), next, "led by its lowest member");
                    for (i, &r) in members.iter().enumerate() {
                        assert_eq!(r, next + i, "ascending and contiguous");
                        assert_eq!(m.node_of(r), node);
                        assert_eq!(m.is_leader(r), i == 0);
                    }
                    next += members.len();
                }
                assert_eq!(next, n, "every rank on exactly one node");
                let distinct: std::collections::BTreeSet<usize> =
                    (0..n).map(|r| m.node_of(r)).collect();
                assert_eq!(m.nodes(), distinct.len(), "n={n} per_node={per_node}");
            }
        }
    }

    #[test]
    fn default_for_tiny_worlds() {
        // div_ceil keeps the first half no smaller than the second
        let two = NodeMap::default_for(2); // {0} {1}
        assert_eq!(two.nodes(), 2);
        assert_eq!(two.node_of(0), 0);
        assert_eq!(two.node_of(1), 1);
        let three = NodeMap::default_for(3); // {0,1} {2}
        assert_eq!(three.nodes(), 2);
        assert_eq!(three.members(0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(three.members(1).collect::<Vec<_>>(), vec![2]);
        // a lone rank maps to a single one-rank node
        let lone = NodeMap::default_for(1);
        assert_eq!(lone.len(), 1);
        assert!(lone.is_leader(0));
    }

    #[test]
    fn unresolved_auto_is_an_error_not_a_panic() {
        let out = run_world(2, |c| {
            let outgoing = vec![Vec::new(); c.size()];
            exchange(&c, Strategy::Auto, outgoing)
        });
        assert_eq!(out[0], Err(CommError::AutoUnresolved));
        assert_eq!(out[1], Err(CommError::AutoUnresolved));
    }

    #[test]
    fn empty_buffers_allowed() {
        for strategy in Strategy::CONCRETE {
            let results = run_world(4, move |c| {
                // only rank 1 sends, and only to rank 3
                let mut outgoing = vec![Vec::new(); 4];
                if c.rank() == 1 {
                    outgoing[3] = vec![42u8; 7];
                }
                exchange(&c, strategy, outgoing).unwrap()
            });
            assert_eq!(results[3][1], vec![42u8; 7]);
            for (dst, inc) in results.iter().enumerate() {
                for (src, buf) in inc.iter().enumerate() {
                    if !(src == 1 && dst == 3) {
                        assert!(
                            buf.is_empty(),
                            "unexpected bytes {src}->{dst} ({strategy:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exchange_into_reuses_buffers_across_steps() {
        // two consecutive exchanges through the same scratch buffers:
        // outgoing keeps its contents (borrowed sends), incoming is
        // cleared and refilled.
        for strategy in Strategy::CONCRETE {
            let results = run_world(3, move |c| {
                let mut outgoing: Vec<Vec<u8>> =
                    (0..c.size()).map(|dst| payload(c.rank(), dst)).collect();
                let mut incoming = Vec::new();
                exchange_into(&c, strategy, &mut outgoing, &mut incoming).unwrap();
                let first: Vec<Vec<u8>> = incoming.clone();
                // outgoing untouched by the exchange
                for (dst, buf) in outgoing.iter().enumerate() {
                    assert_eq!(buf, &payload(c.rank(), dst));
                }
                // repack different content into the same buffers
                for (dst, buf) in outgoing.iter_mut().enumerate() {
                    buf.clear();
                    buf.extend_from_slice(&payload(c.rank(), dst));
                    buf.push(0xEE);
                }
                exchange_into(&c, strategy, &mut outgoing, &mut incoming).unwrap();
                (first, incoming)
            });
            for (dst, (first, second)) in results.iter().enumerate() {
                for (src, buf) in first.iter().enumerate() {
                    assert_eq!(buf, &payload(src, dst), "{strategy:?} step1 {src}->{dst}");
                }
                for (src, buf) in second.iter().enumerate() {
                    let mut want = payload(src, dst);
                    want.push(0xEE);
                    assert_eq!(buf, &want, "{strategy:?} step2 {src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn transaction_counts_match_theory() {
        let n = 6;
        for (strategy, expect) in [
            (Strategy::Distributed, (n * (n - 1)) as u64),
            (Strategy::Centralized, 2 * (n as u64 - 1)),
            // dense matrix: every ordered pair is nonzero — counts
            // round + payload round each cost n(n-1) messages
            (Strategy::Sparse, 2 * (n * (n - 1)) as u64),
        ] {
            let tx = run_world(n, move |c| {
                c.stats().reset();
                c.barrier().unwrap();
                let outgoing = vec![vec![1u8; 4]; c.size()];
                let _ = exchange(&c, strategy, outgoing).unwrap();
                c.barrier().unwrap();
                c.stats().transactions()
            })[0];
            assert_eq!(tx, expect, "{strategy:?}");
        }
    }

    /// ISSUE acceptance: a quiet step (≤2 nonzero pairs) at 8 ranks
    /// must cost Sparse well under 25% of DC's N(N−1) transactions,
    /// and exactly `alltoall cost + 2·(nonzero off-diagonal pairs)`
    /// (the sparse alltoall costs one message per nonzero pair, so
    /// 2 messages per pair in total).
    #[test]
    fn sparse_quiet_step_transactions() {
        let n = 8usize;
        let measure = |strategy: Strategy| {
            run_world(n, move |c| {
                c.stats().reset();
                c.barrier().unwrap();
                // two nonzero pairs: 1→3 and 6→2
                let mut outgoing = vec![Vec::new(); c.size()];
                match c.rank() {
                    1 => outgoing[3] = vec![7u8; 61],
                    6 => outgoing[2] = vec![9u8; 122],
                    _ => {}
                }
                let inc = exchange(&c, strategy, outgoing).unwrap();
                c.barrier().unwrap();
                (c.stats().transactions(), inc)
            })
        };
        let sparse = measure(Strategy::Sparse);
        let dc = measure(Strategy::Distributed);
        let (tx_sparse, _) = &sparse[0];
        let (tx_dc, _) = &dc[0];
        assert_eq!(*tx_dc, (n * (n - 1)) as u64);
        assert_eq!(
            *tx_sparse,
            2 * 2,
            "counts msg + payload msg per nonzero pair"
        );
        assert!(
            (*tx_sparse as f64) < 0.25 * (*tx_dc as f64),
            "sparse {tx_sparse} !< 25% of dc {tx_dc}"
        );
        // identical deliveries
        for (rank, ((_, a), (_, b))) in sparse.iter().zip(&dc).enumerate() {
            assert_eq!(a, b, "rank {rank} incoming differs");
        }
    }

    /// The symmetric-pair form of the counts test: both directions of
    /// two unordered pairs are nonzero, so transactions =
    /// 2·(nonzero ordered pairs) = 4·(unordered pairs).
    #[test]
    fn sparse_transactions_two_per_nonzero_pair() {
        let n = 5usize;
        let tx = run_world(n, move |c| {
            c.stats().reset();
            c.barrier().unwrap();
            let mut outgoing = vec![Vec::new(); c.size()];
            // symmetric pairs {0,4} and {1,2}
            match c.rank() {
                0 => outgoing[4] = vec![1u8; 10],
                4 => outgoing[0] = vec![2u8; 20],
                1 => outgoing[2] = vec![3u8; 30],
                2 => outgoing[1] = vec![4u8; 40],
                _ => {}
            }
            let _ = exchange(&c, Strategy::Sparse, outgoing).unwrap();
            c.barrier().unwrap();
            c.stats().transactions()
        })[0];
        assert_eq!(tx, 2 * 4, "4 nonzero ordered pairs, 2 messages each");
    }

    /// `traffic(Sparse, m)` must agree with what CommStats measures on
    /// the threaded backend for the same migration matrix.
    #[test]
    fn sparse_traffic_model_matches_measurement() {
        let n = 6usize;
        // a lumpy, asymmetric matrix with plenty of zeros
        let mut m = vec![vec![0u64; n]; n];
        m[0][3] = 100;
        m[3][0] = 50;
        m[2][5] = 7;
        m[4][1] = 1;
        m[1][4] = 900;
        let model = traffic(Strategy::Sparse, &m);
        let m2 = m.clone();
        let (tx, bytes) = {
            let out = run_world(n, move |c| {
                c.stats().reset();
                c.barrier().unwrap();
                let outgoing: Vec<Vec<u8>> = (0..c.size())
                    .map(|d| vec![0xAAu8; m2[c.rank()][d] as usize])
                    .collect();
                let _ = exchange(&c, Strategy::Sparse, outgoing).unwrap();
                c.barrier().unwrap();
                (c.stats().transactions(), c.stats().bytes())
            });
            out[0]
        };
        assert_eq!(model.transactions, tx, "transactions");
        assert_eq!(model.total_bytes, bytes, "bytes (payload + tagged counts)");
        assert_eq!(model.nonzero_pairs, 5);
    }

    #[test]
    fn traffic_model_distributed() {
        // 3 ranks, only 0->2 sends 100 bytes
        let mut m = vec![vec![0u64; 3]; 3];
        m[0][2] = 100;
        let t = traffic(Strategy::Distributed, &m);
        assert_eq!(t.transactions, 6);
        assert_eq!(t.total_bytes, 100);
        assert_eq!(t.max_rank_bytes, 100);
        assert_eq!(t.nonzero_pairs, 1);
        assert_eq!(t.max_rank_msgs, 4);
    }

    #[test]
    fn traffic_model_centralized_double_hops() {
        let mut m = vec![vec![0u64; 3]; 3];
        m[1][2] = 100; // neither endpoint is root: 2 hops
        m[0][1] = 50; // source is root: 1 hop
        let t = traffic(Strategy::Centralized, &m);
        assert_eq!(t.transactions, 4);
        // each hop also carries the group's 12-byte (who, len) header
        assert_eq!(t.total_bytes, 250 + 12 * 3);
        assert_eq!(t.max_rank_bytes, 286);
    }

    #[test]
    fn traffic_model_sparse_quiet_vs_dense() {
        let n = 8usize;
        // quiet: one pair
        let mut quiet = vec![vec![0u64; n]; n];
        quiet[1][3] = 1000;
        let tq = traffic(Strategy::Sparse, &quiet);
        assert_eq!(tq.transactions, 2);
        assert_eq!(tq.total_bytes, 1000 + 17);
        assert_eq!(tq.max_rank_msgs, 2);
        // dense: every pair — sparse pays the counts overhead on top
        let dense: Vec<Vec<u64>> = (0..n)
            .map(|s| (0..n).map(|d| if s == d { 0 } else { 10 }).collect())
            .collect();
        let td = traffic(Strategy::Sparse, &dense);
        let dc = traffic(Strategy::Distributed, &dense);
        assert_eq!(td.transactions, 2 * dc.transactions);
        assert!(td.total_bytes > dc.total_bytes);
    }

    #[test]
    fn centralized_moves_more_bytes_distributed_more_messages() {
        // uniform all-to-all migration matrix
        let n = 8usize;
        let m: Vec<Vec<u64>> = (0..n)
            .map(|s| (0..n).map(|d| if s == d { 0 } else { 10 }).collect())
            .collect();
        let cc = traffic(Strategy::Centralized, &m);
        let dc = traffic(Strategy::Distributed, &m);
        assert!(cc.transactions < dc.transactions);
        assert!(cc.total_bytes > dc.total_bytes);
    }
}
