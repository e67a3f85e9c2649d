//! Functional parallel runner: every MPI rank is an OS thread.
//!
//! This is the *real* parallel implementation (paper §IV): ranks own
//! disjoint sets of coarse cells, keep only their own particles,
//! migrate particles with the configured exchange strategy after
//! every move phase, sum boundary charge with an all-reduce before
//! the Poisson solve, and re-decompose with the measured-lii dynamic
//! load balancer. Used for validation (serial vs parallel, paper
//! Fig. 8/9) and for the threaded benches.
//!
//! The step itself is the one [`StepPipeline`]; this module only
//! supplies [`ThreadedBackend`] — real `vmpi` communication plus
//! measured [`crate::engine::WallClock`] timing — and the run
//! harness around it. Rank 0 additionally drives an [`obs::Recorder`]
//! (metrics registry + trace sink) when the run's
//! [`crate::config::ObsConfig`] asks for one.
//!
//! # Faults and recovery (DESIGN.md §12)
//!
//! Every communication call is fallible ([`vmpi::CommError`]); the
//! backend latches the first error it sees, aborts its rank so peers
//! collapse promptly instead of waiting out timeouts, and the rank
//! surfaces the failure. [`run_threaded_result`] is the recovering
//! entry point: with a [`vmpi::FaultPlan`] installed each
//! rank's transport is wrapped in [`vmpi::ChaosComm`] (deterministic
//! drop/duplicate/delay/stall/kill injection) under
//! [`vmpi::ReliableComm`] (sequence numbers, dedup and journal
//! retransmission), and under
//! [`FaultPolicy::RestartFromCheckpoint`] a detected rank death tears
//! the world down, restores every rank from the last consistent
//! in-memory checkpoint (taken every
//! [`RunConfig::checkpoint_every`] steps, only at fault-free
//! boundaries) and replays to completion. Because the reliability
//! sublayer delivers exactly the clean run's per-pair payloads in
//! order, and v2 checkpoints capture the whole evolving per-rank
//! state, the recovered run finishes **bitwise identical** to the
//! clean one; the trace of a recovered run contains only the replayed
//! steps.
//!
//! Determinism note: each rank owns an independent RNG stream, so a
//! k-rank run is statistically — not bitwise — equivalent to the
//! serial run, exactly like the paper's MPI solver ("minor
//! differences ... mainly due to random seeds").

use crate::checkpoint::{checkpoint_rank, restore_rank, CheckpointError};
use crate::config::{FaultPolicy, RunConfig};
use crate::engine::{
    run_whole_domain, Backend, BackendStats, ExchangeInfo, ExchangeScratch, RankEngine,
    SerialBackend, StepComm, StepOutcome, StepPipeline, StepRecord, WallClock,
};
use crate::machine::{CostModel, MachineProfile};
use crate::report::{ReportBuilder, RunReport};
use balance::{load_imbalance_indicator, CostSample, RankTimes, RebalanceOutcome, Rebalancer};
use dsmc::Injector;
use mesh::NestedMesh;
use obs::{Breakdown, Phase, Recorder, Tee};
use particles::{pack_index, unpack_all, ParticleBuffer, SpeciesTable};
use partition::{block_ranges, Decomposition};
use std::sync::{Arc, Mutex};
use vmpi::collectives::{
    allgather_f64, allgather_u64, allreduce_sum_f64, allreduce_sum_u64, broadcast, gather,
};
use vmpi::{
    exchange_hier_overlapped, exchange_into, run_world, ChaosComm, ChaosWorld, Comm, CommError,
    CommResult, Flows, NodeMap, ReliableComm, ReliableWorld, Strategy,
};

/// Recovery replays attempted before a fault is surfaced to the
/// caller — a backstop against fault plans (or genuinely broken
/// transports) that keep killing the run faster than checkpoints can
/// advance it.
const MAX_RECOVERIES: usize = 8;

/// Why a threaded run failed (see [`run_threaded_result`]).
#[derive(Debug)]
pub enum RunError {
    /// A rank died — a fault-plan kill, an exhausted retry budget, or
    /// a wedged peer — and the policy was [`FaultPolicy::Abort`], or
    /// the bounded recovery budget was already spent.
    RankFailure {
        /// First failing rank (lowest rank id when several latch).
        rank: usize,
        /// DSMC step the failure surfaced at (`steps` = during the
        /// end-of-run diagnostics collectives).
        step: usize,
        error: CommError,
        /// Checkpoint restarts performed before giving up.
        recoveries: usize,
    },
    /// A recovery replay could not restore a stored checkpoint; never
    /// recoverable, surfaced under every policy.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::RankFailure {
                rank,
                step,
                error,
                recoveries,
            } => write!(
                f,
                "rank {rank} failed at step {step}: {error} (after {recoveries} recoveries)"
            ),
            RunError::Checkpoint(e) => write!(f, "recovery checkpoint unusable: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// One rank's failure, surfaced out of [`rank_main`].
enum RankError {
    Comm { step: usize, error: CommError },
    Checkpoint(CheckpointError),
}

/// Per-rank in-memory checkpoint slots shared across recovery
/// attempts: `(next step to run, checkpoint_rank envelope)`. Slots are
/// only written after a world-wide barrier at the boundary succeeds,
/// so the stored set is always consistent (every rank at the same
/// step).
type CheckpointStore = Vec<Mutex<Option<(usize, Vec<u8>)>>>;

/// Fault-injection / recovery context one attempt runs under.
struct FaultCtx<'a> {
    chaos: Option<&'a Arc<ChaosWorld>>,
    reliable: Option<&'a Arc<ReliableWorld>>,
    /// Replays performed before this attempt.
    recoveries: usize,
    store: &'a CheckpointStore,
}

impl FaultCtx<'_> {
    /// Whether faults were possible this run (a plan was installed).
    fn chaotic(&self) -> bool {
        self.chaos.is_some()
    }

    fn faults_injected(&self) -> u64 {
        self.chaos.map_or(0, |c| c.injected_total())
    }

    fn retries(&self) -> u64 {
        self.reliable.map_or(0, |r| r.retries())
    }

    fn dedup_dropped(&self) -> u64 {
        self.reliable.map_or(0, |r| r.dedup_dropped())
    }
}

/// Run the coupled solver on `run.ranks` OS threads for `run.steps`
/// DSMC iterations, panicking on failure (the historical signature;
/// use [`run_threaded_result`] to handle faults).
pub fn run_threaded(run: &RunConfig) -> RunReport {
    match run_threaded_result(run) {
        Ok(report) => report,
        Err(e) => panic!("threaded run failed: {e}"),
    }
}

/// Run the coupled solver on `run.ranks` OS threads, applying the
/// configured fault plan and recovery policy.
///
/// With [`RunConfig::fault_plan`] set, each rank's transport becomes
/// `ReliableComm<ChaosComm<ThreadComm>>`; the chaos and reliability
/// worlds are shared across recovery attempts, so kill events stay
/// one-shot and the injected/retry counters in the returned report
/// are cumulative over replays.
///
/// This is the one-shot wrapper around [`EngineSession`]: build a
/// session, attempt until done or the retry policy says stop. Hold an
/// `EngineSession` directly when the engine's lifecycle must outlive
/// one call — e.g. the job server re-attempts a crashed job from the
/// session's checkpoints on another worker.
pub fn run_threaded_result(run: &RunConfig) -> Result<RunReport, RunError> {
    let mut session = EngineSession::new(run);
    loop {
        match session.attempt() {
            Ok(report) => return Ok(report),
            Err(e) => {
                if !session.can_retry_after(&e) {
                    return Err(e);
                }
                session.prepare_retry();
            }
        }
    }
}

/// Engine lifecycle detached from process (and call) lifecycle: mesh,
/// species, initial decomposition, fault-injection worlds and the
/// checkpoint store built once, then any number of [`attempt`]s run
/// against them. Checkpoints and the one-shot fault state live in the
/// session, so an attempt that dies mid-run (worker crash, fault-plan
/// kill) can be resumed later — even from a different thread — by
/// calling [`attempt`] again after [`prepare_retry`].
///
/// [`run_threaded_result`] is the simple driver: it owns a session
/// for exactly one `loop { attempt / prepare_retry }`. The job server
/// stashes sessions across worker deaths instead.
///
/// [`attempt`]: EngineSession::attempt
/// [`prepare_retry`]: EngineSession::prepare_retry
pub struct EngineSession {
    run: RunConfig,
    nm: Arc<NestedMesh>,
    species: Arc<SpeciesTable>,
    h_id: u8,
    hp_id: u8,
    owner0: Arc<Vec<u32>>,
    xadj: Vec<u32>,
    adjncy: Vec<u32>,
    chaos: Option<Arc<ChaosWorld>>,
    reliable: Option<Arc<ReliableWorld>>,
    store: CheckpointStore,
    recoveries: usize,
    attempts: usize,
}

impl std::fmt::Debug for EngineSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSession")
            .field("ranks", &self.run.ranks)
            .field("steps", &self.run.steps)
            .field("attempts", &self.attempts)
            .field("recoveries", &self.recoveries)
            .finish_non_exhaustive()
    }
}

impl EngineSession {
    /// Build the immutable world for `run`: mesh hierarchy, species
    /// table, seed decomposition, fault worlds and empty checkpoint
    /// slots. No simulation work happens until [`EngineSession::attempt`].
    pub fn new(run: &RunConfig) -> Self {
        let spec = run.sim.nozzle;
        let coarse = spec.generate();
        let nm = Arc::new(NestedMesh::from_coarse(coarse, move |c, n| {
            spec.classify(c, n)
        }));
        let (species, h_id, hp_id) =
            SpeciesTable::hydrogen_plasma(run.sim.weight_h, run.sim.weight_hplus);
        let species = Arc::new(species);

        // initial unweighted decomposition, shared by all ranks
        let (xadj, adjncy) = nm.coarse.cell_graph();
        let g = partition::Graph::new(xadj.clone(), adjncy.clone(), vec![1; nm.num_coarse()]);
        let owner0 = Arc::new(partition::part_graph_kway(
            &g,
            run.ranks,
            partition::KwayOptions::default(),
        ));

        let chaos = run
            .fault_plan
            .clone()
            .map(|plan| ChaosWorld::new(plan, run.ranks));
        let reliable = run
            .fault_plan
            .is_some()
            .then(|| ReliableWorld::new(run.ranks));
        let store: CheckpointStore = (0..run.ranks).map(|_| Mutex::new(None)).collect();

        EngineSession {
            run: run.clone(),
            nm,
            species,
            h_id,
            hp_id,
            owner0,
            xadj,
            adjncy,
            chaos,
            reliable,
            store,
            recoveries: 0,
            attempts: 0,
        }
    }

    /// The configuration this session was built for.
    pub fn config(&self) -> &RunConfig {
        &self.run
    }

    /// Checkpoint restarts performed so far.
    pub fn recoveries(&self) -> usize {
        self.recoveries
    }

    /// Engine attempts performed so far (1 + recoveries once at least
    /// one attempt ran).
    pub fn attempt_count(&self) -> usize {
        self.attempts
    }

    /// Run one world pass: every rank resumes from its checkpoint slot
    /// (step 0 when empty) and steps to completion. On success returns
    /// rank 0's report; on failure returns the first failing rank's
    /// error, stamped with the session's recovery count. The session
    /// stays usable after an error — call [`EngineSession::can_retry_after`]
    /// and [`EngineSession::prepare_retry`] to replay.
    pub fn attempt(&mut self) -> Result<RunReport, RunError> {
        self.attempts += 1;
        let run = &self.run;
        let ctx = FaultCtx {
            chaos: self.chaos.as_ref(),
            reliable: self.reliable.as_ref(),
            recoveries: self.recoveries,
            store: &self.store,
        };
        let (nm, species, owner0) = (&self.nm, &self.species, &self.owner0);
        let (h_id, hp_id) = (self.h_id, self.hp_id);
        let (xadj, adjncy) = (&self.xadj, &self.adjncy);
        let results = run_world(run.ranks, |comm| match (&self.chaos, &self.reliable) {
            (Some(cw), Some(rw)) => {
                let comm = ReliableComm::new(ChaosComm::new(comm, cw.clone()), rw.clone());
                rank_main(
                    &comm, run, nm, species, h_id, hp_id, owner0, xadj, adjncy, &ctx,
                )
            }
            _ => rank_main(
                &comm, run, nm, species, h_id, hp_id, owner0, xadj, adjncy, &ctx,
            ),
        });

        let mut failure: Option<(usize, usize, CommError)> = None;
        let mut rank0 = None;
        for (rank, res) in results.into_iter().enumerate() {
            match res {
                Ok(report) => {
                    if rank == 0 {
                        rank0 = Some(report);
                    }
                }
                Err(RankError::Checkpoint(e)) => return Err(RunError::Checkpoint(e)),
                Err(RankError::Comm { step, error }) => {
                    if failure.is_none() {
                        failure = Some((rank, step, error));
                    }
                }
            }
        }
        match failure {
            None => Ok(rank0.expect("rank 0 report")),
            Some((rank, step, error)) => Err(RunError::RankFailure {
                rank,
                step,
                error,
                recoveries: self.recoveries,
            }),
        }
    }

    /// Whether the configured policy permits replaying after `err`:
    /// a rank failure under [`FaultPolicy::RestartFromCheckpoint`]
    /// with recovery budget left. Checkpoint-restore errors are never
    /// retryable.
    pub fn can_retry_after(&self, err: &RunError) -> bool {
        matches!(err, RunError::RankFailure { .. })
            && self.run.on_fault == FaultPolicy::RestartFromCheckpoint
            && self.recoveries < MAX_RECOVERIES
    }

    /// Arm the next replay: count the recovery and flush the failed
    /// attempt's in-flight chaos holds and reliability journals
    /// (counters stay cumulative). One-shot kill events have already
    /// fired and stay fired, so the replay runs past the kill step.
    pub fn prepare_retry(&mut self) {
        self.recoveries += 1;
        if let Some(cw) = &self.chaos {
            cw.reset_pairs();
        }
        if let Some(rw) = &self.reliable {
            rw.reset();
        }
    }
}

/// Serialise the particles of `buf` that no longer belong to `me`
/// straight into their destinations' wire buffers, building the keep
/// mask in the same pass. Compaction is left to the caller — under an
/// overlapped hierarchical exchange it runs while the sends are in
/// flight. Returns the emigrant count.
fn pack_emigrants(
    buf: &ParticleBuffer,
    owner: &[u32],
    me: usize,
    ranks: usize,
    scratch: &mut ExchangeScratch,
) -> usize {
    scratch.outgoing.resize_with(ranks, Vec::new);
    for b in scratch.outgoing.iter_mut() {
        b.clear();
    }
    scratch.keep.clear();
    scratch.keep.resize(buf.len(), true);
    let mut emigrants = 0usize;
    for i in 0..buf.len() {
        let dest = owner[buf.cell[i] as usize] as usize;
        if dest != me {
            pack_index(buf, i, &mut scratch.outgoing[dest]);
            scratch.keep[i] = false;
            emigrants += 1;
        }
    }
    emigrants
}

/// Resolve [`Strategy::Auto`] for one exchange: every rank contributes
/// its per-destination byte counts (8·ranks bytes), rank 0 assembles
/// the migration byte matrix and scores the concrete strategies with
/// the cost model, and the 1-byte pick is broadcast. The pick only
/// changes the message schedule — every strategy delivers identical
/// buffers — so the machine profile behind `cost` can never affect
/// physics.
fn resolve_strategy<C: Comm>(
    comm: &C,
    configured: Strategy,
    outgoing: &[Vec<u8>],
    cost: &CostModel,
) -> CommResult<Strategy> {
    if configured != Strategy::Auto {
        return Ok(configured);
    }
    let mut row = Vec::with_capacity(outgoing.len() * 8);
    for b in outgoing {
        row.extend_from_slice(&(b.len() as u64).to_le_bytes());
    }
    let choice = gather(comm, 0, row)?.map(|rows| {
        let mut flows = Flows::new();
        flows.assign(rows.iter().enumerate().flat_map(|(src, r)| {
            r.chunks_exact(8).enumerate().map(move |(dst, c)| {
                let mut w = [0u8; 8];
                w.copy_from_slice(c);
                (src as u32, dst as u32, u64::from_le_bytes(w))
            })
        }));
        vec![cost.cheapest(&cost.traffic(&flows)) as u8]
    });
    match broadcast(comm, 0, choice)?.first() {
        Some(&i) if (i as usize) < Strategy::CONCRETE.len() => Ok(Strategy::CONCRETE[i as usize]),
        _ => Err(CommError::Malformed {
            what: "auto strategy pick",
        }),
    }
}

/// What [`migrate`] may defer into the overlapped send window.
#[derive(Clone, Copy)]
struct MigrateFlags {
    /// Run compaction (and pre-bucketing) inside the hierarchical
    /// exchange's post-isend window ([`RunConfig::overlap`]).
    overlap: bool,
    /// Pre-build the collide cell lists for the immediately following
    /// collide pass (DSMC exchange only).
    prebucket: bool,
}

/// One full particle migration: pack emigrants, resolve the strategy,
/// run the wire exchange through the reused scratch buffers, unpack
/// immigrants. Returns the concrete strategy that carried it.
///
/// Under [`Strategy::Hier`] with `overlap` set, the buffer compaction
/// (and, for the DSMC exchange, the collide pre-bucketing — set
/// `prebucket`) runs inside [`exchange_hier_overlapped`]'s window:
/// after the phase-1 nonblocking sends are posted, before the first
/// fence-and-drain. Only RNG-free work moves into the window, so the
/// delivered state is bitwise identical to the sequential path either
/// way (compaction order relative to the wire is unobservable, and
/// pre-built collide buckets list the same indices in the same
/// order).
fn migrate<C: Comm>(
    comm: &C,
    configured: Strategy,
    cost: &CostModel,
    nodes: &NodeMap,
    flags: MigrateFlags,
    eng: &mut RankEngine,
    owner: &[u32],
) -> CommResult<Strategy> {
    let MigrateFlags { overlap, prebucket } = flags;
    let me = comm.rank();
    let RankEngine {
        particles,
        exch,
        collisions,
        h_id,
        ..
    } = eng;
    let emigrants = pack_emigrants(particles, owner, me, comm.size(), exch);
    let strategy = resolve_strategy(comm, configured, &exch.outgoing, cost)?;
    let ExchangeScratch {
        keep,
        outgoing,
        incoming,
    } = exch;
    let overlapped = strategy == Strategy::Hier && overlap;
    if !overlapped && emigrants > 0 {
        particles.compact(keep);
    }
    if strategy == Strategy::Hier {
        let do_prebucket = overlapped && prebucket;
        exchange_hier_overlapped(comm, nodes, outgoing, incoming, || {
            if overlapped {
                if emigrants > 0 {
                    particles.compact(keep);
                }
                if do_prebucket {
                    collisions.prebucket(particles, *h_id);
                }
            }
        })?;
        let from = particles.len();
        for inc in incoming.iter() {
            unpack_all(inc, particles);
        }
        if do_prebucket {
            collisions.extend_bucket(particles, from, *h_id);
        }
    } else {
        exchange_into(comm, strategy, outgoing, incoming)?;
        for inc in incoming.iter() {
            unpack_all(inc, particles);
        }
    }
    Ok(strategy)
}

/// Tally one resolved exchange into the CONCRETE-ordered counters,
/// returning the concrete index.
fn tally(uses: &mut [u64; 4], s: Strategy) -> usize {
    let idx = s.concrete_index().expect("resolved strategy is concrete");
    uses[idx] += 1;
    idx
}

/// Real-communication backend: `vmpi` collectives between the phases,
/// measured [`WallClock`] timing, measured-lii rebalancing
/// (Algorithm 1).
///
/// The [`Backend`] trait is infallible, so communication errors are
/// *latched*: the first [`CommError`] is stored, the rank aborts its
/// comm (collapsing peers' blocking operations promptly), and every
/// later comm-touching backend call short-circuits to a local
/// fallback. The run harness checks [`ThreadedBackend::fault`] after
/// each step and discards the poisoned rank state.
pub struct ThreadedBackend<'a, C: Comm> {
    comm: &'a C,
    strategy: Strategy,
    /// Parameters for the Auto decision rule. The threaded backend
    /// has no real α/β of its own, so the Tianhe-2 profile is the
    /// documented default; see [`resolve_strategy`] for why this can
    /// never change the physics.
    cost: CostModel,
    /// Node grouping for [`Strategy::Hier`] (from
    /// [`RunConfig::ranks_per_node`]; 0 = two equal halves).
    nodes: NodeMap,
    /// Overlap compaction/pre-bucketing with the hierarchical
    /// exchange (from [`RunConfig::overlap`]).
    overlap: bool,
    owner: Vec<u32>,
    xadj: &'a [u32],
    adjncy: &'a [u32],
    /// Unified particle/field ownership (default) or the split
    /// Eulerian/Lagrangian mode: the field grid stays statically
    /// block-partitioned and the charge reduction becomes a per-owner
    /// gather/scatter (see [`Backend::reduce_charge`]).
    decomp: Decomposition,
    rebalancer: Option<Rebalancer>,
    clock: WallClock,
    strategy_uses: [u64; 4],
    rebalance_migrated: u64,
    /// Per-rank populations from the Reindex allgather (reused for
    /// the step trace's share).
    pops: Vec<u64>,
    /// World counter values at the last step boundary (the per-step
    /// deltas telescope, so trace sums equal the run totals exactly).
    comm_mark: (u64, u64),
    uses_mark: [u64; 4],
    /// Accumulated per-step deltas = run totals for the report.
    total_tx: u64,
    total_bytes: u64,
    /// Attribution of the exchange in flight, for the pipeline's
    /// exchange events.
    pending_exchange: Option<ExchangeInfo>,
    /// First communication error observed; once set, comm-touching
    /// calls short-circuit (the rank's state is already condemned).
    fault: Option<CommError>,
}

impl<'a, C: Comm> ThreadedBackend<'a, C> {
    pub fn new(
        comm: &'a C,
        run: &RunConfig,
        owner0: &[u32],
        xadj: &'a [u32],
        adjncy: &'a [u32],
    ) -> Self {
        ThreadedBackend {
            comm,
            strategy: run.strategy,
            cost: CostModel::new(MachineProfile::tianhe2(), comm.size()),
            nodes: if run.ranks_per_node == 0 {
                NodeMap::default_for(comm.size())
            } else {
                NodeMap::grouped(comm.size(), run.ranks_per_node)
            },
            overlap: run.overlap,
            owner: owner0.to_vec(),
            xadj,
            adjncy,
            decomp: run.decomposition,
            rebalancer: run.rebalance.map(|mut rc| {
                if run.decomposition == Decomposition::EulLag {
                    // the field grid is statically block-partitioned
                    // under the split mode, so the balancer weighs
                    // particle work only
                    rc.wlm.w_cell = 0;
                }
                Rebalancer::new(rc)
            }),
            clock: WallClock::start(),
            strategy_uses: [0; 4],
            rebalance_migrated: 0,
            pops: Vec::new(),
            comm_mark: (0, 0),
            uses_mark: [0; 4],
            total_tx: 0,
            total_bytes: 0,
            pending_exchange: None,
            fault: None,
        }
    }

    /// The first communication error this backend latched, if any.
    pub fn fault(&self) -> Option<CommError> {
        self.fault
    }

    /// The coarse-cell ownership map the backend is running under
    /// (changes when the balancer remaps).
    pub fn owner(&self) -> &[u32] {
        &self.owner
    }

    /// Latch the first fault and abort this rank's comm so peers
    /// blocked on it collapse with [`CommError::PeerDead`] instead of
    /// waiting out their timeouts.
    fn latch(&mut self, error: CommError) {
        if self.fault.is_none() {
            self.fault = Some(error);
            self.comm.abort();
        }
    }

    /// Carry one migration and record its attribution: the strategy
    /// index plus the world-counter delta observed around it. The
    /// delta is best-effort per exchange (other ranks may be
    /// mid-flight); per-*step* deltas are exact. `prebucket` allows
    /// the overlapped hierarchical path to pre-bucket the collide
    /// lists (DSMC exchange only — the buckets must be consumed by
    /// the very next collide pass).
    fn migrate_and_tally(&mut self, eng: &mut RankEngine, prebucket: bool) {
        if self.fault.is_some() {
            return;
        }
        let before = (self.comm.stats().transactions(), self.comm.stats().bytes());
        match migrate(
            self.comm,
            self.strategy,
            &self.cost,
            &self.nodes,
            MigrateFlags {
                overlap: self.overlap,
                prebucket,
            },
            eng,
            &self.owner,
        ) {
            Ok(s) => {
                let idx = tally(&mut self.strategy_uses, s);
                self.pending_exchange = Some(ExchangeInfo {
                    strategy: idx,
                    transactions: self.comm.stats().transactions().saturating_sub(before.0),
                    bytes: self.comm.stats().bytes().saturating_sub(before.1),
                    max_rank_msgs: 0,
                    node_pairs: 0,
                    aggregated_bytes: 0,
                });
            }
            Err(e) => self.latch(e),
        }
    }
}

impl<C: Comm> Backend for ThreadedBackend<'_, C> {
    fn begin_step(&mut self, _eng: &RankEngine) {
        self.clock.begin_step();
    }

    fn lap(
        &mut self,
        phase: Phase,
        _sub: usize,
        _eng: &RankEngine,
        _rec: &StepRecord,
        bd: &mut Breakdown,
    ) {
        self.clock.lap(bd, phase);
    }

    fn exchange(&mut self, eng: &mut RankEngine, phase: Phase, _sub: usize) {
        // only the DSMC exchange is immediately followed by the
        // collide pass, so only it may pre-bucket under overlap
        self.migrate_and_tally(eng, phase == Phase::DsmcExchange);
    }

    fn take_exchange_info(&mut self) -> Option<ExchangeInfo> {
        self.pending_exchange.take()
    }

    fn step_comm(&mut self) -> StepComm {
        let now = (self.comm.stats().transactions(), self.comm.stats().bytes());
        let delta = (
            now.0.saturating_sub(self.comm_mark.0),
            now.1.saturating_sub(self.comm_mark.1),
        );
        self.comm_mark = now;
        self.total_tx += delta.0;
        self.total_bytes += delta.1;
        let mut uses = [0u64; 4];
        for (u, (&cur, &mark)) in uses
            .iter_mut()
            .zip(self.strategy_uses.iter().zip(&self.uses_mark))
        {
            *u = cur - mark;
        }
        self.uses_mark = self.strategy_uses;
        StepComm {
            transactions: delta.0,
            bytes: delta.1,
            strategy_uses: uses,
        }
    }

    fn reduce_charge(&mut self, _eng: &RankEngine, node_charge: Vec<f64>) -> Vec<f64> {
        if self.fault.is_some() {
            return node_charge;
        }
        // sum boundary/node charge across ranks (paper §IV-C
        // reduction); every rank then solves the replicated system.
        // Under the Eulerian/Lagrangian split each static field owner
        // reduces its own block and scatters it back — the additions
        // happen in the same rank order, so the result is bitwise
        // identical to the allreduce.
        let reduced = if self.decomp == Decomposition::EulLag {
            eullag_reduce_charge(self.comm, &node_charge)
        } else {
            allreduce_sum_f64(self.comm, &node_charge)
        };
        match reduced {
            Ok(summed) => summed,
            Err(e) => {
                self.latch(e);
                node_charge
            }
        }
    }

    fn reindex_base(&mut self, eng: &RankEngine) -> u64 {
        if self.fault.is_some() {
            return 0;
        }
        match allgather_u64(self.comm, eng.particles.len() as u64) {
            Ok(pops) => {
                self.pops = pops;
                self.pops[..self.comm.rank()].iter().sum()
            }
            Err(e) => {
                self.latch(e);
                0
            }
        }
    }

    fn rebalance(
        &mut self,
        eng: &mut RankEngine,
        bd: &Breakdown,
        _rec: &StepRecord,
    ) -> StepOutcome {
        if self.fault.is_some() {
            return StepOutcome::default();
        }
        // share measured times: (total, migration, poisson) triples —
        // extended with the per-phase kernel times when the
        // timer-augmented cost source wants samples (the wire layout
        // stays the 3-float triple otherwise, so the default path's
        // message stream is untouched)
        let sampling = self
            .rebalancer
            .as_ref()
            .is_some_and(|rb| rb.wants_samples());
        let mine: Vec<f64> = if sampling {
            vec![
                bd.total(),
                bd.migration(),
                bd.poisson(),
                bd[Phase::DsmcMove],
                bd[Phase::ColliReact],
                bd[Phase::PicMove],
            ]
        } else {
            vec![bd.total(), bd.migration(), bd.poisson()]
        };
        let width = mine.len();
        let all = match allgather_f64(self.comm, &mine) {
            Ok(all) => all,
            Err(e) => {
                self.latch(e);
                return StepOutcome::default();
            }
        };
        let times: Vec<RankTimes> = all
            .chunks_exact(width)
            .map(|c| RankTimes {
                total: c[0],
                migration: c[1],
                poisson: c[2],
            })
            .collect();
        // world-wide kernel seconds, summed in rank order
        let phase_secs: [f64; 3] = if sampling {
            let mut s = [0.0; 3];
            for c in all.chunks_exact(width) {
                s[0] += c[3];
                s[1] += c[4];
                s[2] += c[5];
            }
            s
        } else {
            [0.0; 3]
        };
        let lii = load_imbalance_indicator(&times);
        let mut outcome = StepOutcome {
            lii,
            ..StepOutcome::default()
        };
        if self.rebalancer.is_some() {
            // global per-cell counts (needed by the load model)
            let nc = eng.nm.num_coarse();
            let mut local = vec![0u64; 2 * nc];
            for i in 0..eng.particles.len() {
                let c = eng.particles.cell[i] as usize;
                if eng.particles.species[i] == eng.h_id {
                    local[c] += 1;
                } else {
                    local[nc + c] += 1;
                }
            }
            let global = match allreduce_sum_u64(self.comm, &local) {
                Ok(global) => global,
                Err(e) => {
                    self.latch(e);
                    return outcome;
                }
            };
            let (neutral, charged) = global.split_at(nc);

            // every rank runs the (deterministic) algorithm on the
            // same inputs => identical new ownership everywhere
            let rb = self.rebalancer.as_mut().expect("checked above");
            if sampling {
                // feed the measured kernel seconds and the global work
                // units they covered to the timer-augmented source
                let neutral_total: u64 = neutral.iter().sum();
                let charged_total: u64 = charged.iter().sum();
                let pair_total: u64 = neutral.iter().map(|&n| n * n.saturating_sub(1)).sum();
                rb.observe(&CostSample {
                    dsmc_move_seconds: phase_secs[0],
                    colli_react_seconds: phase_secs[1],
                    pic_move_seconds: phase_secs[2],
                    neutral_total,
                    pair_total,
                    charged_total,
                });
            }
            outcome.cost_source = rb.cost_source_name();
            outcome.decomposition = self.decomp.name();
            outcome.cost_rates = rb.cost_rates();
            let remap_started = std::time::Instant::now();
            if let RebalanceOutcome::Remapped {
                new_owner,
                migration_volume,
                ..
            } = rb.step(
                lii,
                self.xadj,
                self.adjncy,
                neutral,
                charged,
                &self.owner,
                self.comm.size(),
            ) {
                self.owner = new_owner;
                let me = self.comm.rank() as u32;
                let owner = &self.owner;
                eng.injector = Injector::with_filter(&eng.nm.coarse, |t| owner[t as usize] == me);
                self.migrate_and_tally(eng, false);
                self.rebalance_migrated += migration_volume;
                outcome.rebalanced = true;
                outcome.migrated = migration_volume;
                outcome.remap_seconds = remap_started.elapsed().as_secs_f64();
            }
        }
        outcome
    }

    fn end_step(&mut self, _eng: &RankEngine, _bd: &mut Breakdown) {}

    fn share(&self, _eng: &RankEngine) -> Vec<f64> {
        let total = self.pops.iter().sum::<u64>().max(1) as f64;
        self.pops.iter().map(|&p| p as f64 / total).collect()
    }

    fn stats(&self) -> BackendStats {
        BackendStats {
            strategy_uses: self.strategy_uses,
            rebalances: self.rebalancer.as_ref().map_or(0, |r| r.rebalance_count),
            rebalance_migrated: self.rebalance_migrated,
            transactions: self.total_tx,
            bytes: self.total_bytes,
        }
    }
}

/// Gather/scatter charge reduction of the Eulerian/Lagrangian split
/// (DESIGN.md §15): the field grid is statically block-partitioned
/// over ranks, each owner gathers every rank's contribution to its
/// block, reduces them in rank order, and broadcasts the reduced
/// block back so every rank can run the replicated Poisson solve.
/// Summing per element in rank order makes the result bitwise
/// identical to [`allreduce_sum_f64`] over the same inputs.
fn eullag_reduce_charge<C: Comm>(comm: &C, node_charge: &[f64]) -> CommResult<Vec<f64>> {
    let me = comm.rank();
    let ranges = block_ranges(node_charge.len(), comm.size());
    // phase 1: each owner gathers and reduces its block
    let mut owned: Vec<f64> = Vec::new();
    for (root, range) in ranges.iter().enumerate() {
        let bytes: Vec<u8> = node_charge[range.clone()]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        if let Some(parts) = gather(comm, root, bytes)? {
            let mut acc = vec![0.0f64; range.len()];
            for part in &parts {
                if part.len() != range.len() * 8 {
                    return Err(CommError::Malformed {
                        what: "eullag charge block",
                    });
                }
                for (a, chunk) in acc.iter_mut().zip(part.chunks_exact(8)) {
                    *a += f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
                }
            }
            owned = acc;
        }
    }
    // phase 2: owners scatter the reduced blocks; every rank
    // reassembles the full vector
    let mut out = vec![0.0f64; node_charge.len()];
    for (root, range) in ranges.iter().enumerate() {
        let mine = (me == root).then(|| {
            owned
                .iter()
                .flat_map(|v| v.to_le_bytes())
                .collect::<Vec<u8>>()
        });
        let block = broadcast(comm, root, mine)?;
        if block.len() != range.len() * 8 {
            return Err(CommError::Malformed {
                what: "eullag reduced block",
            });
        }
        for (slot, chunk) in out[range.clone()].iter_mut().zip(block.chunks_exact(8)) {
            *slot = f64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
    }
    Ok(out)
}

/// Read a checkpoint-store slot, surviving a poisoned lock (a rank
/// that panicked while storing): the stored bytes are still the last
/// consistently committed envelope.
fn read_slot(slot: &Mutex<Option<(usize, Vec<u8>)>>) -> Option<(usize, Vec<u8>)> {
    slot.lock().unwrap_or_else(|p| p.into_inner()).clone()
}

#[allow(clippy::too_many_arguments)]
fn rank_main<C: Comm>(
    comm: &C,
    run: &RunConfig,
    nm: &Arc<NestedMesh>,
    species: &Arc<SpeciesTable>,
    h_id: u8,
    hp_id: u8,
    owner0: &[u32],
    xadj: &[u32],
    adjncy: &[u32],
    ctx: &FaultCtx<'_>,
) -> Result<RunReport, RankError> {
    let me = comm.rank();
    let mut eng = RankEngine::for_rank(
        run.sim.clone(),
        nm.clone(),
        species.clone(),
        h_id,
        hp_id,
        owner0,
        me,
        run.threads_per_rank,
    );
    // Resume from the last consistently committed checkpoint, if one
    // exists (a recovery replay); otherwise start from step 0.
    let (start_step, owner) = match read_slot(&ctx.store[me]) {
        Some((next_step, blob)) => {
            let owner = restore_rank(&mut eng, me, &blob).map_err(RankError::Checkpoint)?;
            (next_step, owner)
        }
        None => (0, owner0.to_vec()),
    };
    let mut be = ThreadedBackend::new(comm, run, &owner, xadj, adjncy);
    let pipeline = StepPipeline {
        sort_every: run.sort_every,
    };
    let mut builder = ReportBuilder::new();
    // Rank 0 additionally drives the run's observability: one
    // Recorder taps the shared metrics registry and streams events to
    // the configured trace sink. Other ranks observe nothing.
    let mut recorder = if me == 0 {
        let sink = run.obs.trace.make_sink().map_err(|_| RankError::Comm {
            step: start_step,
            error: CommError::Malformed {
                what: "trace sink creation",
            },
        })?;
        let mut rec = Recorder::new(run.obs.metrics.as_ref(), sink);
        rec.meta(run.ranks, run.steps);
        Some(rec)
    } else {
        None
    };
    for step in start_step..run.steps {
        // fire scheduled stall/kill events for this rank, if any
        if let Err(error) = comm.on_step(step) {
            return Err(RankError::Comm { step, error });
        }
        match recorder.as_mut() {
            Some(rec) => {
                let mut obs = Tee(&mut builder, rec);
                pipeline.run_step(&mut eng, &mut be, &mut obs, step);
            }
            None => {
                pipeline.run_step(&mut eng, &mut be, &mut builder, step);
            }
        }
        if let Some(error) = be.fault() {
            return Err(RankError::Comm { step, error });
        }
        // Consistent checkpoint: the barrier proves every rank
        // reached this fault-free boundary, so the stored set is a
        // coherent restart point even if a fault lands one
        // instruction later.
        if run.checkpoint_every > 0 && (step + 1) % run.checkpoint_every == 0 {
            match comm.barrier() {
                Ok(()) => {
                    let envelope = checkpoint_rank(&eng, be.owner());
                    *ctx.store[me].lock().unwrap_or_else(|p| p.into_inner()) =
                        Some((step + 1, envelope));
                }
                Err(error) => return Err(RankError::Comm { step, error }),
            }
        }
    }
    // Every rank exports its kernel-pool busy time (the registry is
    // shared across the rank threads; names are rank-qualified).
    if let Some(reg) = &run.obs.metrics {
        for (w, b) in eng.pool.busy_seconds().iter().enumerate() {
            reg.gauge(&format!("kernels.rank{me}.worker{w}.busy_seconds"))
                .set(*b);
        }
    }

    // --- final diagnostics: global H density per coarse cell ---------
    let nc = eng.nm.num_coarse();
    let mut counts = vec![0.0f64; nc];
    for i in 0..eng.particles.len() {
        if eng.particles.species[i] == h_id {
            counts[eng.particles.cell[i] as usize] += 1.0;
        }
    }
    let at_diag = |error| RankError::Comm {
        step: run.steps,
        error,
    };
    let counts = allreduce_sum_f64(comm, &counts).map_err(at_diag)?;
    let pops = allgather_u64(comm, eng.particles.len() as u64).map_err(at_diag)?;

    // counters read *after* the diagnostics collectives so faults
    // injected into them are counted too
    let faults_injected = ctx.faults_injected();
    let comm_retries = ctx.retries();
    let comm_dedup_dropped = ctx.dedup_dropped();
    if let Some(rec) = recorder.as_mut() {
        if ctx.chaotic() || ctx.recoveries > 0 {
            rec.fault_summary(
                ctx.recoveries,
                comm_retries,
                comm_dedup_dropped,
                faults_injected,
            );
        }
        rec.finish();
    }

    let stats = be.stats();
    let mut report = builder.finish();
    report.density_h =
        crate::diag::number_density(&counts, &eng.nm.coarse.volumes, species.get(h_id).weight);
    report.population = pops.iter().sum::<u64>() as usize;
    // Backend-accumulated per-step totals, NOT `comm.stats()` read
    // here: the diagnostics collectives above already bumped the raw
    // counters, and the report promises trace sums == totals exactly.
    report.transactions = stats.transactions;
    report.bytes = stats.bytes;
    report.rebalances = stats.rebalances;
    report.rebalance_migrated = stats.rebalance_migrated;
    report.strategy_uses = stats.strategy_uses;
    report.recoveries = ctx.recoveries;
    report.comm_retries = comm_retries;
    report.comm_dedup_dropped = comm_dedup_dropped;
    report.faults_injected = faults_injected;
    Ok(report)
}

/// Reference serial run of the same configuration (the paper's
/// validated serial baseline), returning the same diagnostics — now
/// including a measured breakdown and per-step trace, through the
/// same pipeline.
pub fn run_serial(run: &RunConfig) -> RunReport {
    let mut eng = RankEngine::new(run.sim.clone());
    let pipeline = StepPipeline {
        sort_every: run.sort_every,
    };
    let report = run_whole_domain(
        &mut eng,
        &mut SerialBackend::new(),
        pipeline,
        &run.obs,
        1,
        run.steps,
    );
    if let Some(reg) = &run.obs.metrics {
        for (w, b) in eng.pool.busy_seconds().iter().enumerate() {
            reg.gauge(&format!("kernels.rank0.worker{w}.busy_seconds"))
                .set(*b);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Dataset, RunConfig};
    use vmpi::{FaultAction, FaultPlan};

    fn quick_run(ranks: usize, strategy: Strategy, lb: bool) -> RunReport {
        let run = RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(ranks)
            .seed(5)
            .steps(12)
            .strategy(strategy)
            .rebalance(lb.then(|| balance::RebalanceConfig {
                t_interval: 4,
                ..Default::default()
            }))
            .build()
            .expect("valid test config");
        run_threaded(&run)
    }

    #[test]
    fn threaded_run_produces_particles() {
        let r = quick_run(3, Strategy::Distributed, false);
        assert!(r.population > 0);
        assert!(r.transactions > 0, "ranks must communicate");
        assert!(r.density_h.iter().any(|&d| d > 0.0));
        assert_eq!(r.recoveries, 0, "clean run never recovers");
        assert_eq!(r.faults_injected, 0, "clean run injects nothing");
    }

    #[test]
    fn strategies_agree_statistically() {
        let dc = quick_run(3, Strategy::Distributed, false);
        let cc = quick_run(3, Strategy::Centralized, false);
        // same seeds, same physics: populations must be close
        let diff =
            (dc.population as f64 - cc.population as f64).abs() / dc.population.max(1) as f64;
        assert!(diff < 0.15, "dc {} vs cc {}", dc.population, cc.population);
    }

    #[test]
    fn parallel_matches_serial_density() {
        let run = RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(4)
            .seed(5)
            .steps(16)
            .rebalance(None)
            .build()
            .expect("valid test config");
        let par = run_threaded(&run);
        let ser = run_serial(&run);
        // total inventory within statistical scatter
        let tot_par: f64 = par.density_h.iter().sum();
        let tot_ser: f64 = ser.density_h.iter().sum();
        let rel = (tot_par - tot_ser).abs() / tot_ser.max(1e-300);
        assert!(rel < 0.2, "parallel {tot_par} vs serial {tot_ser}");
    }

    #[test]
    fn rebalancing_fires_in_threaded_mode() {
        let r = quick_run(4, Strategy::Distributed, true);
        assert!(r.rebalances >= 1, "threaded balancer never fired");
        assert!(r.population > 0);
        let fired: usize = r.trace.iter().filter(|t| t.rebalanced).count();
        assert_eq!(fired, r.rebalances, "trace must record each rebalance");
    }

    #[test]
    fn sparse_matches_distributed_exactly() {
        // same seeds, and both strategies deliver identical buffers in
        // identical source order — the full pipeline must agree bit
        // for bit, not just statistically. (No load balancer here: its
        // trigger is *measured wall time*, which is nondeterministic
        // across runs regardless of strategy.)
        let dc = quick_run(3, Strategy::Distributed, false);
        let sp = quick_run(3, Strategy::Sparse, false);
        assert_eq!(sp.population, dc.population);
        assert_eq!(sp.density_h, dc.density_h);
        let [_, _, sparse_uses, _] = sp.strategy_uses;
        assert!(sparse_uses > 0, "sparse never carried an exchange");
    }

    #[test]
    fn hier_matches_distributed_exactly() {
        // the hierarchical schedule delivers the same buffers in the
        // same source order as every flat strategy, with or without
        // an explicit node map — the full pipeline must agree bitwise
        let dc = quick_run(4, Strategy::Distributed, false);
        let hier = {
            let run = RunConfig::builder()
                .paper(Dataset::D1, 0.02)
                .ranks(4)
                .seed(5)
                .steps(12)
                .strategy(Strategy::Hier)
                .ranks_per_node(2)
                .rebalance(None)
                .build()
                .expect("valid test config");
            run_threaded(&run)
        };
        assert_eq!(hier.population, dc.population);
        assert_eq!(hier.density_h, dc.density_h);
        let [_, _, _, hier_uses] = hier.strategy_uses;
        assert!(hier_uses > 0, "hier never carried an exchange");
    }

    #[test]
    fn overlapped_hier_is_bitwise_identical_to_sequential_hier() {
        let base = |overlap: bool| {
            let run = RunConfig::builder()
                .paper(Dataset::D1, 0.02)
                .ranks(4)
                .seed(5)
                .steps(12)
                .strategy(Strategy::Hier)
                .ranks_per_node(2)
                .overlap(overlap)
                .rebalance(None)
                .build()
                .expect("valid test config");
            run_threaded(&run)
        };
        let seq = base(false);
        let ov = base(true);
        assert_eq!(ov.population, seq.population);
        assert_eq!(ov.density_h, seq.density_h, "overlap changed physics");
        // the wire schedule must be unchanged too: same exchanges, all
        // hierarchical. (Absolute transaction totals are sampled from
        // the world-shared counter while other ranks may be mid-flight
        // in a collective, so they carry a few messages of run-to-run
        // jitter and are not compared here.)
        assert_eq!(
            ov.strategy_uses, seq.strategy_uses,
            "overlap changed schedule"
        );
    }

    #[test]
    fn auto_resolves_concrete_strategies() {
        let a = quick_run(3, Strategy::Auto, false);
        assert!(a.population > 0);
        let used: u64 = a.strategy_uses.iter().sum();
        // one DSMC exchange + one per PIC substep, every step
        assert!(
            used >= 12,
            "expected an exchange tally per step, got {used}"
        );
        // same seeds → same physics as any fixed strategy
        let dc = quick_run(3, Strategy::Distributed, false);
        assert_eq!(a.population, dc.population);
        assert_eq!(a.density_h, dc.density_h);
    }

    #[test]
    fn every_driver_reports_a_trace() {
        let r = quick_run(3, Strategy::Distributed, false);
        assert_eq!(r.trace.len(), 12);
        for t in &r.trace {
            assert_eq!(t.share.len(), 3);
            assert!((t.share.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        let run = RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(1)
            .seed(5)
            .steps(4)
            .rebalance(None)
            .build()
            .expect("valid test config");
        let s = run_serial(&run);
        assert_eq!(s.trace.len(), 4);
        assert!(s.breakdown.total() > 0.0, "serial breakdown now measured");
        assert!((s.total_time - s.breakdown.total()).abs() < 1e-12);
    }

    #[test]
    fn lossy_transport_matches_the_clean_run_bitwise() {
        let base = |plan: Option<FaultPlan>| {
            RunConfig::builder()
                .paper(Dataset::D1, 0.02)
                .ranks(3)
                .seed(5)
                .steps(12)
                .rebalance(None)
                .fault_plan(plan)
                .build()
                .expect("valid test config")
        };
        let clean = run_threaded(&base(None));
        let plan = FaultPlan::seeded(0xFA11)
            .drops(40)
            .dups(40)
            .delays(40, 3)
            .action(1, 0, 0, FaultAction::Drop);
        let chaotic = run_threaded_result(&base(Some(plan))).expect("reliable layer recovers");
        assert_eq!(chaotic.density_h, clean.density_h);
        assert_eq!(chaotic.population, clean.population);
        assert!(chaotic.faults_injected > 0, "plan must have injected");
        assert!(
            chaotic.comm_retries > 0,
            "the pinned drop must force a retransmission"
        );
    }

    #[test]
    fn abort_policy_surfaces_a_kill() {
        let run = RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(3)
            .seed(5)
            .steps(8)
            .rebalance(None)
            .fault_plan(Some(FaultPlan::seeded(1).kill(1, 3)))
            .build()
            .expect("valid test config");
        match run_threaded_result(&run) {
            Err(RunError::RankFailure {
                step, recoveries, ..
            }) => {
                assert!(step >= 3, "no rank can fail before the kill fires");
                assert_eq!(recoveries, 0, "abort policy never replays");
            }
            other => panic!("expected a rank failure, got {other:?}"),
        }
    }

    #[test]
    fn kill_recovers_from_checkpoint_bitwise() {
        let base = |plan: Option<FaultPlan>| {
            RunConfig::builder()
                .paper(Dataset::D1, 0.02)
                .ranks(3)
                .seed(5)
                .steps(12)
                .rebalance(None)
                .checkpoint_every(4)
                .on_fault(FaultPolicy::RestartFromCheckpoint)
                .fault_plan(plan)
                .build()
                .expect("valid test config")
        };
        let clean = run_threaded(&base(None));
        let killed =
            run_threaded_result(&base(Some(FaultPlan::seeded(2).kill(2, 6)))).expect("recovers");
        assert_eq!(killed.recoveries, 1, "exactly one replay");
        assert_eq!(killed.density_h, clean.density_h, "recovery is bitwise");
        assert_eq!(killed.population, clean.population);
        // the replay resumed from the step-4 checkpoint
        assert_eq!(killed.trace.len(), 12 - 4, "trace holds replayed steps");
    }
}
