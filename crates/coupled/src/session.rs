//! The session lifecycle of a threaded run: build the world once, then
//! attempt — and, after a rank death, replay from checkpoints — until
//! the run completes or the fault policy says stop. An attempt is one
//! `rank_main` per rank thread: the decomposed run loop, with its
//! one fault exit, barrier-fenced checkpoints and collective
//! end-of-run diagnostics (the whole-domain drivers' loop is
//! `engine::run_whole_domain`).
//!
//! # Rank failures and recovery (DESIGN.md §12)
//!
//! Every communication call is fallible ([`vmpi::CommError`]). The
//! [`crate::threaded::ThreadedBackend`] returns the first error it
//! sees, [`crate::engine::run_step`] stops the step at that exchange
//! or collective, and `rank_main` — the one place that handles it —
//! aborts the rank's comm so peers collapse promptly instead of
//! waiting out timeouts, and surfaces the failure. A
//! [`crate::config::FaultPlan`] schedules rank stalls and kills, which
//! `rank_main` fires itself at the top of a step; the wire is the raw
//! transport either way. [`EngineSession::run`] is the one place that
//! decides a replay: under [`FaultPolicy::RestartFromCheckpoint`] a
//! detected rank death tears the world down, restores every rank from
//! the last consistent in-memory checkpoint (taken every
//! [`RunConfig::checkpoint_every`] steps, only at fault-free
//! boundaries) and replays to completion, at most `MAX_RECOVERIES` (8)
//! times. Because the transport delivers every message once and in
//! order per pair, and checkpoints capture the whole evolving per-rank
//! state, the recovered run finishes **bitwise identical** to the
//! clean one; the trace of a recovered run contains only the replayed
//! steps.

use crate::checkpoint::{checkpoint_rank, restore_rank, CheckpointError};
use crate::config::{FaultPolicy, RunConfig};
use crate::engine::{run_step, RankEngine};
use crate::report::{ReportBuilder, RunReport};
use crate::threaded::ThreadedBackend;
use crate::world::{Geometry, World};
use obs::{Recorder, Tee};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use vmpi::collectives::{allgather_u64, allreduce_sum_f64};
use vmpi::{run_world, Comm, CommError};

/// Recovery replays attempted before a fault is surfaced to the
/// caller — a backstop against fault plans (or genuinely broken
/// transports) that keep killing the run faster than checkpoints can
/// advance it.
const MAX_RECOVERIES: usize = 8;

/// Why a threaded run failed (see [`EngineSession::run`]).
#[derive(Debug)]
pub enum RunError {
    /// A rank died — a fault-plan kill, a dead peer, or a receive
    /// that timed out on a wedged one — and the policy was
    /// [`FaultPolicy::Abort`], or the bounded recovery budget was
    /// already spent.
    RankFailure {
        /// First failing rank (lowest rank id when several fail).
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
    /// Rank 0 could not create the configured trace sink (say, an
    /// unwritable [`obs::TraceSpec::Jsonl`] path). No rank died and a
    /// replay would fail the same way, so it is never retried.
    TraceSink(std::io::Error),
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
            RunError::TraceSink(e) => write!(f, "trace sink unusable: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Per-rank in-memory checkpoint slots shared across recovery
/// attempts: `(next step to run, checkpoint_rank envelope)`. Slots are
/// only written after a world-wide barrier at the boundary succeeds,
/// so the stored set is always consistent (every rank at the same
/// step).
type CheckpointStore = Vec<Mutex<Option<(usize, Vec<u8>)>>>;

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
/// configured fault plan and recovery policy: [`EngineSession::run`]
/// on a session of its own. A scheduled kill fires once per run: the
/// recovery replay passes its step unharmed.
pub fn run_threaded_result(run: &RunConfig) -> Result<RunReport, RunError> {
    EngineSession::new(run).run()
}

/// One threaded run's engine lifecycle: mesh, species, initial
/// decomposition, the per-rank kill flags and the checkpoint store
/// built once, then [`run`] — attempts, replayed from the checkpoints
/// after a rank death while the fault policy allows. The session is
/// the only owner of that decision: the job server hands each job's
/// session to one worker, which calls [`run`] once.
///
/// [`attempt`] is one world pass on its own (what a benchmark times,
/// or a test that wants the first failure unreplayed).
///
/// [`run`]: EngineSession::run
/// [`attempt`]: EngineSession::attempt
pub struct EngineSession {
    run: RunConfig,
    world: Arc<World>,
    /// Per rank: whether its scheduled kill has fired. Set once and
    /// kept across attempts, so the replay is not killed again.
    killed: Vec<AtomicBool>,
    store: CheckpointStore,
    recoveries: usize,
}

impl std::fmt::Debug for EngineSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSession")
            .field("ranks", &self.run.ranks)
            .field("steps", &self.run.steps)
            .field("recoveries", &self.recoveries)
            .finish_non_exhaustive()
    }
}

impl EngineSession {
    /// A session for `run` on a geometry of its own: build it, then
    /// [`EngineSession::on`].
    pub fn new(run: &RunConfig) -> Self {
        Self::on(Arc::new(Geometry::build(&run.sim.nozzle)), run)
    }

    /// Build the immutable world for `run` on `geometry` (species
    /// table, seed decomposition), the kill flags and empty
    /// checkpoint slots. No simulation work happens until
    /// [`EngineSession::attempt`] — the Poisson operator of a geometry
    /// no engine has run on yet is assembled there too, by the first
    /// rank to ask for it.
    pub fn on(geometry: Arc<Geometry>, run: &RunConfig) -> Self {
        EngineSession {
            run: run.clone(),
            world: Arc::new(World::on(geometry, &run.sim, run.ranks)),
            killed: (0..run.ranks).map(|_| AtomicBool::new(false)).collect(),
            store: (0..run.ranks).map(|_| Mutex::new(None)).collect(),
            recoveries: 0,
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

    /// Run to completion: attempt, and while the error is a rank
    /// failure under [`FaultPolicy::RestartFromCheckpoint`] with fewer
    /// than `MAX_RECOVERIES` replays behind it, count a recovery and
    /// replay from the checkpoints. Checkpoint-restore and trace-sink
    /// errors are never replayed. One-shot kills have already fired
    /// and stay fired, so a replay runs past its kill step.
    pub fn run(&mut self) -> Result<RunReport, RunError> {
        loop {
            match self.attempt() {
                Err(RunError::RankFailure { .. })
                    if self.run.on_fault == FaultPolicy::RestartFromCheckpoint
                        && self.recoveries < MAX_RECOVERIES =>
                {
                    self.recoveries += 1
                }
                result => return result,
            }
        }
    }

    /// Run one world pass: every rank resumes from its checkpoint slot
    /// (step 0 when empty) and steps to completion. On success returns
    /// rank 0's report; on failure returns the first failing rank's
    /// error, stamped with the session's recovery count. Replays nothing
    /// itself: that is [`EngineSession::run`]'s.
    pub fn attempt(&mut self) -> Result<RunReport, RunError> {
        let session = &*self;
        let results = run_world(self.run.ranks, |comm| rank_main(&comm, session));

        // rank 0's report, unless a rank failed: then the lowest failing
        // rank's error, one that is never retryable first
        let (mut rank0, mut failure) = (None, None);
        for (rank, result) in results.into_iter().enumerate() {
            match result {
                Ok(report) if rank == 0 => rank0 = Some(report),
                Ok(_) => {}
                Err(e @ (RunError::Checkpoint(_) | RunError::TraceSink(_))) => return Err(e),
                Err(e) => failure = failure.or(Some(e)),
            }
        }
        failure.map_or_else(|| Ok(rank0.expect("rank 0 report")), Err)
    }

    /// Rank `me`'s last consistently committed checkpoint, if any.
    /// Survives a poisoned lock (a rank that panicked while storing):
    /// the stored bytes are still the last committed envelope.
    fn checkpoint_of(&self, me: usize) -> Option<(usize, Vec<u8>)> {
        self.store[me]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Commit rank `me`'s checkpoint: resume at `next_step` from
    /// `envelope`.
    fn commit_checkpoint(&self, me: usize, next_step: usize, envelope: Vec<u8>) {
        *self.store[me].lock().unwrap_or_else(|p| p.into_inner()) = Some((next_step, envelope));
    }

    /// Fire rank `me`'s scheduled faults at the top of engine step
    /// `step`: a stall sleeps in place; a kill, at most once per rank
    /// and session, fails the step with [`CommError::Killed`] (the
    /// caller aborts the comm like after any failed step).
    fn fire_faults(&self, me: usize, step: usize) -> Result<(), CommError> {
        let Some(plan) = &self.run.fault_plan else {
            return Ok(());
        };
        for stall in plan
            .stalls
            .iter()
            .filter(|s| s.rank == me && s.step == step)
        {
            std::thread::sleep(Duration::from_millis(stall.millis));
        }
        let due = plan.kills.iter().any(|k| k.rank == me && k.step == step);
        if due && !self.killed[me].swap(true, Ordering::SeqCst) {
            return Err(CommError::Killed { rank: me });
        }
        Ok(())
    }
}

/// One rank of one attempt of `session`: build the rank's engine over
/// the shared world, resume from its checkpoint slot if one is
/// committed, step to the end under a [`ThreadedBackend`], and return
/// the report with the global end-of-run diagnostics.
fn rank_main(comm: &Comm, session: &EngineSession) -> Result<RunReport, RunError> {
    let (run, world) = (&session.run, &session.world);
    let me = comm.rank();
    let fail = |step, error| RunError::RankFailure {
        rank: me,
        step,
        error,
        recoveries: session.recoveries,
    };
    let mut eng = RankEngine::for_rank(run.sim.clone(), world, me);
    // Resume from the last consistently committed checkpoint, if one
    // exists (a recovery replay); otherwise start from step 0.
    let (start_step, owner) = match session.checkpoint_of(me) {
        Some((next_step, blob)) => {
            let owner = restore_rank(&mut eng, me, &blob).map_err(RunError::Checkpoint)?;
            (next_step, owner)
        }
        None => (0, world.owner0.clone()),
    };
    let mut be = ThreadedBackend::new(comm, run, world, owner);
    let mut builder = ReportBuilder::new();
    // Rank 0 additionally drives the run's observability: one
    // Recorder taps the shared metrics registry and streams events to
    // the configured trace sink. Other ranks observe nothing.
    let mut recorder = if me == 0 {
        let sink = run.obs.trace.make_sink().map_err(|e| {
            // no peer can finish without rank 0: collapse them now
            comm.abort();
            RunError::TraceSink(e)
        })?;
        let mut rec = Recorder::new(run.obs.metrics.as_ref(), sink);
        rec.meta(run.ranks, run.steps);
        Some(rec)
    } else {
        None
    };
    for step in start_step..run.steps {
        let stepped = session
            .fire_faults(me, step)
            .and_then(|()| match recorder.as_mut() {
                Some(rec) => run_step(&mut eng, &mut be, &mut Tee(&mut builder, rec)),
                None => run_step(&mut eng, &mut be, &mut builder),
            });
        if let Err(error) = stepped {
            // collapse the peers blocked on this rank at once instead
            // of leaving them to wait out their timeouts
            comm.abort();
            return Err(fail(step, error));
        }
        // Consistent checkpoint: the barrier proves every rank
        // reached this fault-free boundary, so the stored set is a
        // coherent restart point even if a fault lands one
        // instruction later.
        if run.checkpoint_every > 0 && (step + 1) % run.checkpoint_every == 0 {
            match comm.barrier() {
                Ok(()) => {
                    session.commit_checkpoint(me, step + 1, checkpoint_rank(&eng, be.owner()))
                }
                Err(error) => return Err(fail(step, error)),
            }
        }
    }

    // --- final diagnostics: global H density per coarse cell ---------
    let at_diag = |error| fail(run.steps, error);
    // fence the last step boundary: without it a peer's diagnostics
    // messages can reach the world counter before rank 0's last
    // `end_step` reads it, and the run's wire totals jitter
    comm.barrier().map_err(at_diag)?;
    let h_counts = allreduce_sum_f64(comm, &eng.h_counts()).map_err(at_diag)?;
    let pops = allgather_u64(comm, eng.particles.len() as u64).map_err(at_diag)?;

    if let Some(rec) = recorder.as_mut() {
        // a summary only when faults were possible (a plan installed)
        if run.fault_plan.is_some() || session.recoveries > 0 {
            rec.fault_summary(session.recoveries);
        }
        rec.finish();
    }

    let mut report = builder.finish();
    report.density_h = eng.density_h(&h_counts);
    report.population = pops.iter().sum::<u64>() as usize;
    report.recoveries = session.recoveries;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Dataset, FaultPlan, RunConfigBuilder};

    /// The small fixed-seed 3-rank run every test here injects faults
    /// into.
    fn quick(steps: usize, plan: Option<FaultPlan>) -> RunConfigBuilder {
        RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(3)
            .seed(5)
            .steps(steps)
            .rebalance(None)
            .fault_plan(plan)
    }

    #[test]
    fn rank_engines_of_a_session_share_one_operator() {
        let run = quick(1, None).ranks(2).build().expect("valid test config");
        let session = EngineSession::new(&run);
        let [a, b] = [0, 1].map(|me| RankEngine::for_rank(run.sim.clone(), &session.world, me));
        assert!(Arc::ptr_eq(a.poisson.operator(), b.poisson.operator()));
        assert!(Arc::ptr_eq(&a.nm, &b.nm));
    }

    #[test]
    fn abort_policy_surfaces_a_kill() {
        let run = quick(8, Some(FaultPlan::default().kill(1, 3)))
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
        let base = |plan| {
            quick(12, plan)
                .checkpoint_every(4)
                .on_fault(FaultPolicy::RestartFromCheckpoint)
                .build()
                .expect("valid test config")
        };
        let clean = run_threaded(&base(None));
        let killed =
            run_threaded_result(&base(Some(FaultPlan::default().kill(2, 6)))).expect("recovers");
        assert_eq!(killed.recoveries, 1, "exactly one replay");
        assert_eq!(killed.density_h, clean.density_h, "recovery is bitwise");
        assert_eq!(killed.population, clean.population);
        // the replay resumed from the step-4 checkpoint
        assert_eq!(killed.trace.len(), 12 - 4, "trace holds replayed steps");
    }
}
