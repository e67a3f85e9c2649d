//! The threaded backend: every MPI rank is an OS thread.
//!
//! This is the *real* parallel implementation (paper §IV): ranks own
//! disjoint sets of coarse cells, keep only their own particles,
//! migrate particles with the configured exchange strategy after
//! every move phase, sum boundary charge with an all-reduce before
//! the Poisson solve, and re-decompose with the measured-lii dynamic
//! load balancer. Used for validation (serial vs parallel, paper
//! Fig. 8/9) and by the job server.
//!
//! The step itself is the one [`crate::engine::run_step`]; this
//! module supplies [`ThreadedBackend`] — real `vmpi` communication
//! plus measured [`LapTimer`] timing. A failed exchange or collective
//! is returned as the backend's [`CommError`], which ends the step;
//! the run loop around it, and its one abort on that error, are the
//! session's ([`crate::session`]).
//!
//! Determinism note: each rank owns an independent RNG stream, so a
//! k-rank run is statistically — not bitwise — equivalent to the
//! serial run, exactly like the paper's MPI solver ("minor
//! differences ... mainly due to random seeds").

use crate::config::RunConfig;
use crate::engine::{Backend, ExchangeScratch, RankEngine, StepRecord};
use crate::machine::{CostModel, MachineProfile};
use crate::rebalance::BalanceHook;
use crate::world::World;
use balance::{load_imbalance_indicator, RankTimes};
use obs::{Breakdown, ExchangeEvent, LapTimer, Phase, RebalanceEvent, StepTrace};
use particles::{pack_index, unpack_all, ParticleBuffer};
use std::sync::Arc;
use vmpi::collectives::{
    allgather_f64, allgather_u64, allreduce_sum_f64, allreduce_sum_u64, broadcast, decode_words,
    encode_words, gather,
};
use vmpi::{exchange_on_nodes, Comm, CommError, CommResult, Flows, NodeMap, Strategy};

/// Serialise the particles of `buf` that no longer belong to `me`
/// straight into their destinations' wire buffers, building the keep
/// mask in the same pass (the caller compacts). Returns the emigrant
/// count.
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
fn resolve_strategy(
    comm: &Comm,
    configured: Strategy,
    outgoing: &[Vec<u8>],
    cost: &CostModel,
) -> CommResult<Strategy> {
    if configured != Strategy::Auto {
        return Ok(configured);
    }
    let lens: Vec<u64> = outgoing.iter().map(|b| b.len() as u64).collect();
    let choice = match gather(comm, 0, encode_words(&lens, u64::to_le_bytes))? {
        None => None,
        Some(rows) => {
            let decode =
                |row: &Vec<u8>| decode_words(row, comm.size(), u64::from_le_bytes, "auto byte row");
            let matrix = rows.iter().map(decode).collect::<CommResult<Vec<_>>>()?;
            let flows = Flows::from_matrix(&matrix);
            Some(vec![cost.cheapest(&cost.traffic(&flows)) as u8])
        }
    };
    match broadcast(comm, 0, choice)?.first() {
        Some(&i) if (i as usize) < Strategy::CONCRETE.len() => Ok(Strategy::CONCRETE[i as usize]),
        _ => Err(CommError::Malformed {
            what: "auto strategy pick",
        }),
    }
}

/// The threaded backend's cost model for `ranks` ranks. It has no
/// real α/β of its own, so the Tianhe-2 profile is the documented
/// default; see [`resolve_strategy`] for why this can never change the
/// physics. Hier is priced on the node map the wire runs it on: two
/// equal halves ([`NodeMap::default_for`]).
fn wire_cost(ranks: usize) -> CostModel {
    CostModel::on_nodes(MachineProfile::tianhe2(), NodeMap::default_for(ranks))
}

/// Real-communication backend: `vmpi` collectives between the phases,
/// measured [`LapTimer`] timing, measured-lii rebalancing
/// (Algorithm 1).
///
/// Its [`Backend::Error`] is the first [`CommError`] a collective or
/// exchange returns; [`crate::engine::run_step`] stops there, and the
/// rank's run loop aborts the comm and discards the rank's state.
pub struct ThreadedBackend<'a> {
    comm: &'a Comm,
    strategy: Strategy,
    /// Parameters for the Auto decision rule, and the node grouping
    /// [`Strategy::Hier`] runs on; see [`wire_cost`].
    cost: CostModel,
    /// Decomposition state and rebalancing policy (Algorithm 1).
    balance: BalanceHook,
    /// The world's cumulative (transactions, bytes) at the last step
    /// boundary: per-step traffic is the counter delta since.
    wire_mark: (u64, u64),
    clock: LapTimer,
    /// Per-rank populations from the Reindex allgather (reused for
    /// the step trace's share).
    pops: Vec<u64>,
}

impl<'a> ThreadedBackend<'a> {
    /// The backend of rank `comm.rank()` for `run`, resuming under the
    /// ownership map `owner` (the world's seed decomposition, or a
    /// checkpointed one).
    pub fn new(comm: &'a Comm, run: &RunConfig, world: &Arc<World>, owner: Vec<u32>) -> Self {
        ThreadedBackend {
            comm,
            strategy: run.strategy,
            cost: wire_cost(comm.size()),
            balance: BalanceHook::new(run, world.clone(), owner),
            wire_mark: (0, 0),
            clock: LapTimer::start(),
            pops: Vec::new(),
        }
    }

    /// The coarse-cell ownership map the backend is running under
    /// (changes when the balancer remaps).
    pub fn owner(&self) -> &[u32] {
        self.balance.owner()
    }

    /// This world's cumulative (transactions, bytes) counters.
    fn wire(&self) -> (u64, u64) {
        let stats = self.comm.stats();
        (stats.transactions(), stats.bytes())
    }

    /// One full particle migration: pack emigrants, resolve the
    /// strategy, compact, run the wire exchange through the reused
    /// scratch buffers, unpack immigrants. Returns the concrete
    /// strategy that carried it.
    fn migrate(&self, eng: &mut RankEngine) -> CommResult<Strategy> {
        let comm = self.comm;
        let RankEngine {
            particles, exch, ..
        } = eng;
        let owner = self.balance.owner();
        let emigrants = pack_emigrants(particles, owner, comm.rank(), comm.size(), exch);
        let strategy = resolve_strategy(comm, self.strategy, &exch.outgoing, &self.cost)?;
        if emigrants > 0 {
            particles.compact(&exch.keep);
        }
        exchange_on_nodes(
            comm,
            strategy,
            self.cost.node_map(),
            &mut exch.outgoing,
            &mut exch.incoming,
        )?;
        for inc in exch.incoming.iter() {
            unpack_all(inc, particles);
        }
        Ok(strategy)
    }
}

impl Backend for ThreadedBackend<'_> {
    type Error = CommError;

    /// Discard the time since the last lap (inter-step gaps belong to
    /// no phase).
    fn begin_step(&mut self, _eng: &RankEngine) {
        self.clock.lap();
    }

    fn lap(
        &mut self,
        phase: Phase,
        _sub: usize,
        _eng: &RankEngine,
        _rec: &StepRecord,
        bd: &mut Breakdown,
    ) {
        bd[phase] += self.clock.lap();
    }

    /// Carry one migration and report it: the strategy that carried
    /// it plus the world-counter delta observed around it. The delta
    /// is best-effort per exchange (other ranks may be mid-flight);
    /// per-*step* deltas are exact.
    fn exchange(
        &mut self,
        eng: &mut RankEngine,
        phase: Phase,
        sub: usize,
        _rec: &StepRecord,
    ) -> CommResult<Option<ExchangeEvent>> {
        let before = self.wire();
        let strategy = self.migrate(eng)?;
        let after = self.wire();
        Ok(Some(ExchangeEvent {
            step: eng.step_count,
            phase,
            sub,
            strategy: strategy
                .concrete_index()
                .expect("resolved strategy is concrete"),
            transactions: after.0.saturating_sub(before.0),
            bytes: after.1.saturating_sub(before.1),
            // protocol predictions, unknown on a measured wire
            max_rank_msgs: 0,
            node_pairs: 0,
            aggregated_bytes: 0,
        }))
    }

    /// Sum boundary/node charge across ranks (paper §IV-C reduction);
    /// every rank then solves the replicated system.
    fn reduce_charge(&mut self, _eng: &RankEngine, node_charge: Vec<f64>) -> CommResult<Vec<f64>> {
        allreduce_sum_f64(self.comm, &node_charge)
    }

    fn reindex_base(&mut self, eng: &RankEngine) -> CommResult<u64> {
        self.pops = allgather_u64(self.comm, eng.particles.len() as u64)?;
        Ok(self.pops[..self.comm.rank()].iter().sum())
    }

    fn rebalance(
        &mut self,
        eng: &mut RankEngine,
        bd: &Breakdown,
        rec: &StepRecord,
    ) -> CommResult<(f64, Option<RebalanceEvent>, Option<ExchangeEvent>)> {
        // share measured times: (total, migration, poisson) triples
        let mine = [bd.total(), bd.migration(), bd.poisson()];
        let all = allgather_f64(self.comm, &mine)?;
        let times: Vec<RankTimes> = all
            .chunks_exact(3)
            .map(|c| RankTimes {
                total: c[0],
                migration: c[1],
                poisson: c[2],
            })
            .collect();
        let lii = load_imbalance_indicator(&times);
        if !self.balance.due(lii) {
            return Ok((lii, None, None));
        }
        // global per-cell counts (needed by the load model)
        let (neutral, charged) = eng.counts_per_cell();
        let global = allreduce_sum_u64(self.comm, &[neutral, charged].concat())?;
        let (neutral, charged) = global.split_at(eng.nm.num_coarse());

        // every rank runs the (deterministic) algorithm on the same
        // inputs => identical new ownership everywhere
        let remap_started = std::time::Instant::now();
        let remapped = self.balance.step(eng.step_count, lii, neutral, charged);
        let Some((mut event, _)) = remapped else {
            return Ok((lii, None, None));
        };
        eng.claim_inlet(self.balance.owner(), self.comm.rank());
        let migration = self.exchange(eng, Phase::Rebalance, 0, rec)?;
        event.remap_seconds = remap_started.elapsed().as_secs_f64();
        Ok((lii, Some(event), migration))
    }

    /// Share from the Reindex allgather's populations; traffic from
    /// the world counters, which also see the collectives between the
    /// exchanges. Deltas between step boundaries telescope, and
    /// whatever runs after the last step (end-of-run diagnostics
    /// collectives) is never counted.
    fn end_step(&mut self, _eng: &RankEngine, _bd: &mut Breakdown, trace: &mut StepTrace) {
        let total = self.pops.iter().sum::<u64>().max(1) as f64;
        trace.share = self.pops.iter().map(|&p| p as f64 / total).collect();
        let now = self.wire();
        trace.transactions = now.0.saturating_sub(self.wire_mark.0);
        trace.bytes = now.1.saturating_sub(self.wire_mark.1);
        self.wire_mark = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Dataset, RunConfigBuilder};
    use crate::engine::{run_serial, run_step};
    use crate::report::RunReport;
    use crate::session::run_threaded;
    use vmpi::run_world;

    /// The small fixed-seed run every test here varies.
    fn quick(ranks: usize, strategy: Strategy) -> RunConfigBuilder {
        RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(ranks)
            .seed(5)
            .steps(12)
            .strategy(strategy)
            .rebalance(None)
    }

    fn run(config: RunConfigBuilder) -> RunReport {
        run_threaded(&config.build().expect("valid test config"))
    }

    #[test]
    fn threaded_run_produces_particles() {
        let r = run(quick(3, Strategy::Distributed));
        assert!(r.population > 0);
        assert!(r.transactions > 0, "ranks must communicate");
        assert!(r.density_h.iter().any(|&d| d > 0.0));
        assert_eq!(r.recoveries, 0, "clean run never recovers");
    }

    #[test]
    fn strategies_agree_statistically() {
        let dc = run(quick(3, Strategy::Distributed));
        let cc = run(quick(3, Strategy::Centralized));
        // same seeds, same physics: populations must be close
        let diff =
            (dc.population as f64 - cc.population as f64).abs() / dc.population.max(1) as f64;
        assert!(diff < 0.15, "dc {} vs cc {}", dc.population, cc.population);
    }

    #[test]
    fn parallel_matches_serial_density() {
        let config = quick(4, Strategy::Distributed)
            .steps(16)
            .build()
            .expect("valid test config");
        let par = run_threaded(&config);
        let ser = run_serial(&config);
        // total inventory within statistical scatter
        let tot_par: f64 = par.density_h.iter().sum();
        let tot_ser: f64 = ser.density_h.iter().sum();
        let rel = (tot_par - tot_ser).abs() / tot_ser.max(1e-300);
        assert!(rel < 0.2, "parallel {tot_par} vs serial {tot_ser}");
    }

    #[test]
    fn rebalancing_fires_in_threaded_mode() {
        let r = run(
            quick(4, Strategy::Distributed).rebalance(Some(balance::RebalanceConfig {
                t_interval: 4,
                ..Default::default()
            })),
        );
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
        let dc = run(quick(3, Strategy::Distributed));
        let sp = run(quick(3, Strategy::Sparse));
        assert_eq!(sp.population, dc.population);
        assert_eq!(sp.density_h, dc.density_h);
        let [_, _, sparse_uses, _] = sp.strategy_uses;
        assert!(sparse_uses > 0, "sparse never carried an exchange");
    }

    #[test]
    fn hier_matches_distributed_exactly() {
        // the hierarchical schedule delivers the same buffers in the
        // same source order as every flat strategy — the full pipeline
        // must agree bitwise
        let dc = run(quick(4, Strategy::Distributed));
        let hier = run(quick(4, Strategy::Hier));
        assert_eq!(hier.population, dc.population);
        assert_eq!(hier.density_h, dc.density_h);
        let [_, _, _, hier_uses] = hier.strategy_uses;
        assert!(hier_uses > 0, "hier never carried an exchange");
    }

    #[test]
    fn hier_is_priced_on_the_node_map_it_runs_on() {
        let hier = Strategy::Hier.concrete_index().unwrap();
        for n in [3, 4, 7, 30] {
            let bytes = |i: usize, j: usize| u64::from(i != j) * 64 * (1 + (i * 7 + j) as u64 % 5);
            let m: Vec<Vec<u64>> = (0..n)
                .map(|i| (0..n).map(|j| bytes(i, j)).collect())
                .collect();
            let flows = Flows::from_matrix(&m);
            let priced = wire_cost(n).traffic(&flows)[hier];
            assert_eq!(priced, vmpi::traffic(Strategy::Hier, &m), "ranks={n}");
            let machine = CostModel::new(MachineProfile::tianhe2(), n).traffic(&flows)[hier];
            assert_ne!(
                priced, machine,
                "test premise: the machine's nodes differ, ranks={n}"
            );
        }
    }

    #[test]
    fn auto_resolves_concrete_strategies() {
        let a = run(quick(3, Strategy::Auto));
        assert!(a.population > 0);
        let used: u64 = a.strategy_uses.iter().sum();
        // one DSMC exchange + one per PIC substep, every step
        assert!(
            used >= 12,
            "expected an exchange tally per step, got {used}"
        );
        // same seeds → same physics as any fixed strategy
        let dc = run(quick(3, Strategy::Distributed));
        assert_eq!(a.population, dc.population);
        assert_eq!(a.density_h, dc.density_h);
    }

    #[test]
    fn a_dead_peer_ends_the_step_at_the_failed_collective() {
        #[derive(Default)]
        struct Counting {
            phases: usize,
            steps: usize,
        }
        impl obs::Observer for Counting {
            fn phase(&mut self, _p: Phase, _s: f64) {
                self.phases += 1;
            }
            fn step(&mut self, _i: usize, _t: &StepTrace) {
                self.steps += 1;
            }
        }
        let run = quick(2, Strategy::Distributed)
            .build()
            .expect("valid test config");
        let world = Arc::new(World::build(&run.sim, run.ranks));
        let got = run_world(2, |comm| {
            if comm.rank() == 1 {
                comm.abort();
                return None;
            }
            let mut eng = RankEngine::for_rank(run.sim.clone(), &world, 0);
            let mut be = ThreadedBackend::new(&comm, &run, &world, world.owner0.clone());
            let mut counting = Counting::default();
            let stepped = run_step(&mut eng, &mut be, &mut counting).map(|_| ());
            Some((stepped, eng.step_count, counting.phases, counting.steps))
        });
        let (stepped, step_count, phases, steps) = got[0].expect("rank 0 ran");
        assert_eq!(stepped, Err(CommError::PeerDead { peer: 1 }));
        assert_eq!(step_count, 0, "a failed step is not counted");
        assert_eq!((phases, steps), (0, 0), "the observer hears nothing");
    }

    #[test]
    fn every_driver_reports_a_trace() {
        let r = run(quick(3, Strategy::Distributed));
        assert_eq!(r.trace.len(), 12);
        for t in &r.trace {
            assert_eq!(t.share.len(), 3);
            assert!((t.share.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        let config = quick(1, Strategy::Distributed)
            .steps(4)
            .build()
            .expect("valid test config");
        let s = run_serial(&config);
        assert_eq!(s.trace.len(), 4);
        assert!(s.breakdown.total() > 0.0, "serial breakdown now measured");
        assert!((s.total_time - s.breakdown.total()).abs() < 1e-12);
    }
}
