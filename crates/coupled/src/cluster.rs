//! The modelled-scale cluster driver (see DESIGN.md §2).
//!
//! Runs the *real* coupled DSMC/PIC algorithm over a real domain
//! decomposition while charging wall time with the analytic
//! [`CostModel`]: per-rank work counts come from actually executing
//! every phase and attributing each unit of work to the rank that
//! owns the cell it happens in; communication is charged from the
//! exact migration byte matrices the exchange protocols would move.
//! This reproduces the paper's scaling experiments (Tables II–VI,
//! Figs 10–15) at rank counts far beyond the local core count.
//!
//! The step itself is the one [`run_step`]; this module only
//! supplies [`ModelledBackend`] — cost-model attribution in the `lap`
//! hooks instead of a stopwatch, no real communication — and the
//! [`ClusterSim`] wrapper around a whole-domain [`RankEngine`].

use crate::config::RunConfig;
use crate::engine::{run_step, run_whole_domain, Backend, RankEngine, StepRecord};
use crate::machine::{CostModel, MachineProfile, Placement};
use crate::rebalance::BalanceHook;
use crate::report::RunReport;
use crate::world::World;
use balance::load_imbalance_indicator;
use dsmc::EXITED;
use obs::{Breakdown, ExchangeEvent, NullObserver, Phase, RebalanceEvent};
use particles::PACKED_SIZE;
use std::convert::Infallible;
use std::sync::Arc;
use vmpi::{Flows, Strategy, TrafficSummary};

/// How the coarse level's envelope Cholesky factor grows with its
/// unknowns `n` when the grid is refined in every direction: the
/// natural-order envelope of a lattice numbered along its axis is one
/// cross-section wide, so it holds `n^{5/3}` entries.
const COARSE_FACTOR_GROWTH: f64 = 5.0 / 3.0;

pub use crate::report::StepTrace;

/// Attribution backend: no real communication, modelled per-rank
/// costs. Each `lap` charges the phase's work to the virtual rank
/// owning the cell it happened in; `end_step` collapses the per-rank
/// breakdowns bulk-synchronously (per phase, the slowest rank holds
/// everyone up).
pub struct ModelledBackend {
    /// Decomposition state and rebalancing policy (Algorithm 1).
    balance: BalanceHook,
    strategy: Strategy,
    cost: CostModel,
    ranks: usize,
    /// Cost-model work multiplier per simulation particle (see
    /// `Dataset::work_boost`).
    boost: f64,
    /// Cost-model multiplier for grid work: paper fine cells / our
    /// fine cells. Restores the paper-scale magnitude of the Poisson
    /// solve and the partitioner (their inputs are mesh-sized, which
    /// the dataset `scale` shrinks).
    grid_boost: f64,
    /// Modelled per-rank phase times of the step in flight.
    per_rank: Vec<Breakdown>,
    /// Migration byte matrix of the exchange being priced, refilled in
    /// place (sparse: only the rank pairs that carry bytes).
    flows: Flows,
    /// Modelled seconds of the exchange priced in [`Backend::exchange`],
    /// charged to every rank by the phase's `lap`.
    exchange_seconds: f64,
    /// Subcycle watermarks: [`StepRecord`] accumulates neutral
    /// transitions and collision candidates across DSMC subcycles, so
    /// each lap must charge only the delta since the previous subcycle
    /// (at `k_sub_dsmc = 1` the marks are always 0 and the laps see
    /// the whole record, bitwise identical to before).
    neutral_mark: usize,
    cand_mark: usize,
}

impl ModelledBackend {
    fn new(run: &RunConfig, profile: MachineProfile, world: Arc<World>) -> Self {
        let ncoarse = world.geometry.nm.num_coarse();
        let owner = world.owner0.clone();
        ModelledBackend {
            balance: BalanceHook::new(run, world, owner),
            strategy: run.strategy,
            cost: CostModel::new(profile, run.ranks),
            ranks: run.ranks,
            boost: run.work_boost,
            grid_boost: run
                .paper_cells
                .map(|pc| (pc as f64 / (8.0 * ncoarse as f64)).max(1.0))
                .unwrap_or(1.0),
            per_rank: Vec::new(),
            flows: Flows::new(),
            exchange_seconds: 0.0,
            neutral_mark: 0,
            cand_mark: 0,
        }
    }

    /// Price the exchange of `self.flows` once, under the strategy
    /// that carries it — the configured one, or under
    /// [`Strategy::Auto`] the cost model's pick — and report its
    /// protocol traffic (Hier aggregated over the machine's node map;
    /// exact, the protocol prediction is this backend's ground truth)
    /// as the event of `phase` / `sub` in step `step`.
    fn price(&self, step: usize, phase: Phase, sub: usize) -> (TrafficSummary, ExchangeEvent) {
        let traffic = self.cost.traffic(&self.flows);
        let strategy = self
            .strategy
            .concrete_index()
            .unwrap_or_else(|| self.cost.cheapest(&traffic));
        let tf = traffic[strategy];
        let event = ExchangeEvent {
            step,
            phase,
            sub,
            strategy,
            transactions: tf.transactions,
            bytes: tf.total_bytes,
            max_rank_msgs: tf.max_rank_msgs,
            node_pairs: tf.node_pairs,
            aggregated_bytes: tf.aggregated_bytes,
        };
        (tf, event)
    }

    /// How many of `cells` (one entry per unit of work, repeats
    /// allowed) each rank owns.
    fn per_owner(&self, cells: impl Iterator<Item = u32>) -> Vec<u64> {
        let owner = self.balance.owner();
        let mut counts = vec![0u64; self.ranks];
        for c in cells {
            counts[owner[c as usize] as usize] += 1;
        }
        counts
    }

    /// Load the migration byte matrix of `(old_cell, new_cell)`
    /// transitions into `self.flows`.
    fn load_migration(&mut self, transitions: &[(u32, u32)]) {
        let per_particle = (PACKED_SIZE as f64 * self.boost) as u64;
        let owner = self.balance.owner();
        self.flows.assign(
            transitions
                .iter()
                .filter(|&&(_, nc)| nc != EXITED)
                .map(|&(oc, nc)| (owner[oc as usize], owner[nc as usize], per_particle)),
        );
    }
}

impl Backend for ModelledBackend {
    type Error = Infallible;

    fn track(&self) -> bool {
        true
    }

    fn begin_step(&mut self, _eng: &RankEngine) {
        self.per_rank = vec![Breakdown::new(); self.ranks];
        self.neutral_mark = 0;
        self.cand_mark = 0;
    }

    fn lap(
        &mut self,
        phase: Phase,
        sub: usize,
        eng: &RankEngine,
        rec: &StepRecord,
        _bd: &mut Breakdown,
    ) {
        let k = self.ranks;
        let prof = self.cost.profile;
        match phase {
            // Inject: embarrassingly parallel. The production solver
            // generates the inflow cooperatively — every rank creates
            // an equal share of the new particles and ships misplaced
            // ones with the regular exchange — which is what lets the
            // paper's Inject scale near-linearly to 1536 ranks
            // (Table IV: 1622 s -> 31 s).
            Phase::Inject => {
                let each = rec.injected_cells.len() as f64 * self.boost / k as f64;
                let t = self.cost.compute(each, prof.inject_rate);
                for bd in self.per_rank.iter_mut() {
                    bd[Phase::Inject] += t;
                }
            }
            // DSMC_Move / PIC_Move: each move is charged to the owner
            // of the particle's start-of-step cell.
            Phase::DsmcMove | Phase::PicMove => {
                let tr = if phase == Phase::DsmcMove {
                    &rec.neutral_transitions[self.neutral_mark..]
                } else {
                    &rec.charged_transitions[sub]
                };
                let moves = self.per_owner(tr.iter().map(|&(oc, _)| oc));
                for (bd, &mv) in self.per_rank.iter_mut().zip(&moves) {
                    bd[phase] += self.cost.compute(mv as f64 * self.boost, prof.move_rate);
                }
            }
            // Exchanges: synchronized phases, same cost on all ranks
            // (priced in `exchange`, which just ran).
            Phase::DsmcExchange | Phase::PicExchange => {
                for bd in self.per_rank.iter_mut() {
                    bd[phase] += self.exchange_seconds;
                }
            }
            // Colli_React: candidates distributed ∝ n_c(n_c−1) over
            // owned cells. (Neutral counts are stable from here to the
            // end of the step: PIC moves only the charged species.)
            Phase::ColliReact => {
                let (neutral, _) = eng.counts_per_cell();
                let owner = self.balance.owner();
                let mut pairs = vec![0f64; k];
                let mut total_pairs = 0f64;
                for (c, &n) in neutral.iter().enumerate() {
                    let w = n as f64 * (n as f64 - 1.0);
                    pairs[owner[c] as usize] += w;
                    total_pairs += w;
                }
                let cand = rec.collision_candidates - self.cand_mark;
                self.cand_mark = rec.collision_candidates;
                if total_pairs > 0.0 {
                    for (bd, &p) in self.per_rank.iter_mut().zip(&pairs) {
                        let share = p / total_pairs * cand as f64 * self.boost;
                        bd[Phase::ColliReact] += self.cost.compute(share, prof.collide_rate);
                    }
                }
            }
            // Poisson_Solve: grid work at paper scale — more cells
            // mean proportionally more non-zeros, nodes and coarse
            // unknowns. The two-level CG's iteration count does not
            // grow with the grid, and the coarse level's envelope
            // factor grows as its unknowns to the power
            // `COARSE_FACTOR_GROWTH` (both measured:
            // `tests::poisson_lap_grows_as_measured`).
            Phase::PoissonSolve => {
                let gb = self.grid_boost;
                let nnz = (eng.poisson.matrix.nnz() as f64 * gb) as usize;
                let nodes = (eng.poisson.num_nodes() as f64 * gb) as usize;
                let pre = &eng.poisson.preconditioner;
                let coarse = self.cost.coarse_correction_time(
                    pre.coarse_unknowns() as f64 * gb,
                    pre.factor_entries() as f64 * gb.powf(COARSE_FACTOR_GROWTH),
                );
                let iters = rec.poisson_iters[sub];
                let t = self.cost.poisson_time(iters, nnz, nodes) + iters as f64 * coarse;
                for bd in self.per_rank.iter_mut() {
                    bd[Phase::PoissonSolve] += t;
                }
            }
            // Reindex: prefix-scan of counts + local renumber.
            Phase::Reindex => {
                let owned = self.per_owner(eng.particles.cell.iter().copied());
                let scan_latency = (k as f64).log2().max(1.0) * self.cost.alpha();
                for (bd, &ow) in self.per_rank.iter_mut().zip(&owned) {
                    bd[Phase::Reindex] +=
                        self.cost.compute(ow as f64 * self.boost, prof.reindex_rate) + scan_latency;
                }
            }
            // Rebalance time is attributed inside the rebalance hook
            // (it needs the re-decomposition's own byte matrix).
            Phase::Rebalance => {}
        }
    }

    /// Price the exchange from the exact byte matrix the protocol
    /// would move for this phase's transitions.
    fn exchange(
        &mut self,
        eng: &mut RankEngine,
        phase: Phase,
        sub: usize,
        rec: &StepRecord,
    ) -> Result<Option<ExchangeEvent>, Infallible> {
        let tr: &[(u32, u32)] = if phase == Phase::DsmcExchange {
            let mark = self.neutral_mark;
            self.neutral_mark = rec.neutral_transitions.len();
            &rec.neutral_transitions[mark..]
        } else {
            &rec.charged_transitions[sub]
        };
        self.load_migration(tr);
        let (tf, event) = self.price(eng.step_count, phase, sub);
        self.exchange_seconds = self.cost.exchange_time(&tf);
        Ok(Some(event))
    }

    fn rebalance(
        &mut self,
        eng: &mut RankEngine,
        _bd: &Breakdown,
        _rec: &StepRecord,
    ) -> Result<(f64, Option<RebalanceEvent>, Option<ExchangeEvent>), Infallible> {
        // lii (paper eq. 6) subtracts the components that are "largely
        // constant" across ranks. In this model Inject is cooperative
        // and rank-constant (like the exchanges and the Poisson
        // solve), so it is excluded from the adjusted compute time as
        // well.
        let times: Vec<balance::RankTimes> = self
            .per_rank
            .iter()
            .map(|bd| balance::RankTimes {
                total: bd.total() - bd[Phase::Inject],
                migration: bd.migration(),
                poisson: bd.poisson(),
            })
            .collect();
        let lii = load_imbalance_indicator(&times);
        if !self.balance.due(lii) {
            return Ok((lii, None, None));
        }
        let (neutral, charged) = eng.counts_per_cell();
        let remapped = self.balance.step(eng.step_count, lii, &neutral, &charged);
        let Some((mut event, old_owner)) = remapped else {
            return Ok((lii, None, None));
        };
        // migration byte matrix: every particle in a cell changing
        // hands moves once
        let boost = self.boost;
        self.flows.assign(
            old_owner
                .iter()
                .zip(self.balance.owner())
                .zip(neutral.iter().zip(&charged))
                .map(|((&o, &n), (&nl, &ch))| {
                    let load = (nl + ch) as f64;
                    (o, n, (load * PACKED_SIZE as f64 * boost) as u64)
                }),
        );
        let cells_eff = (old_owner.len() as f64 * self.grid_boost) as usize;
        let (tf, migration) = self.price(eng.step_count, Phase::Rebalance, 0);
        let t_reb = self
            .cost
            .rebalance_time(cells_eff, &tf, self.balance.use_km());
        for bd in self.per_rank.iter_mut() {
            bd[Phase::Rebalance] += t_reb;
        }
        event.remap_seconds = t_reb;
        Ok((lii, Some(event), Some(migration)))
    }

    /// Step wall time: per phase, the slowest rank holds everyone up
    /// (bulk-synchronous execution). Share: particles per owning rank.
    fn end_step(&mut self, eng: &RankEngine, bd: &mut Breakdown, trace: &mut StepTrace) {
        for p in Phase::ALL {
            bd[p] = self.per_rank.iter().map(|r| r[p]).fold(0.0f64, f64::max);
        }
        let counts = self.per_owner(eng.particles.cell.iter().copied());
        let total = eng.particles.len().max(1) as f64;
        trace.share = counts.iter().map(|&c| c as f64 / total).collect();
    }
}

/// Domain-decomposed coupled simulation with modelled timing: one
/// whole-domain [`RankEngine`] plus the [`ModelledBackend`] running
/// through the shared [`run_step`].
pub struct ClusterSim {
    pub state: RankEngine,
    backend: ModelledBackend,
    /// Observability config carried from the [`RunConfig`]; honored
    /// by [`ClusterSim::run`] exactly like the other drivers.
    obs: crate::config::ObsConfig,
}

impl ClusterSim {
    /// Build from a [`RunConfig`] on a machine profile.
    pub fn new(run: &RunConfig, profile: MachineProfile) -> Self {
        let world = Arc::new(World::build(&run.sim, run.ranks));
        ClusterSim {
            state: RankEngine::whole_domain(run.sim.clone(), &world),
            backend: ModelledBackend::new(run, profile, world),
            obs: run.obs.clone(),
        }
    }

    /// Set the MPI rank placement (Fig. 14 experiment).
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.backend.cost.placement = placement;
        self
    }

    /// Current coarse-cell ownership: cell → rank.
    pub fn owner(&self) -> &[u32] {
        self.backend.balance.owner()
    }

    /// Run one DSMC iteration and return the per-step trace.
    pub fn step(&mut self) -> (StepTrace, Breakdown) {
        let Ok((_, trace, bd)) = run_step(&mut self.state, &mut self.backend, &mut NullObserver);
        (trace, bd)
    }

    /// Run `steps` DSMC iterations, returning the aggregate report.
    pub fn run(&mut self, steps: usize) -> RunReport {
        let ranks = self.backend.ranks;
        run_whole_domain(&mut self.state, &mut self.backend, &self.obs, ranks, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Dataset, RunConfig};
    use balance::RebalanceConfig;

    fn run_cfg(ranks: usize, lb: bool, strategy: Strategy) -> RunConfig {
        RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .seed(11)
            .strategy(strategy)
            .rebalance(lb.then(|| RebalanceConfig {
                t_interval: 5,
                ..RebalanceConfig::default()
            }))
            .ranks(ranks)
            .steps(20)
            .build()
            .expect("valid test config")
    }

    /// The Poisson lap's extrapolation to paper scale, checked on the
    /// jet and `field_serial` lattices and on `field_serial` refined
    /// 1.5× in every direction: the two-level CG's iteration count
    /// stays flat while the fine nodes grow 8×, and the coarse factor
    /// grows as its unknowns to the power `COARSE_FACTOR_GROWTH` (the
    /// exponent rises towards it as the lattice grows).
    #[test]
    fn poisson_lap_grows_as_measured() {
        use mesh::{NestedMesh, NozzleSpec};
        use pic::PoissonSolver;
        use sparse::KrylovOptions;
        let lattices = [(6, 12, 0.8e-3), (8, 20, 3e-3), (12, 30, 3e-3)];
        let mut levels = Vec::new();
        for (nd, nz, inlet_radius) in lattices {
            let spec = NozzleSpec {
                radius: 5e-3,
                length: 20e-3,
                inlet_radius,
                nd,
                nz,
            };
            let nm = NestedMesh::from_coarse(spec.generate(), move |c, n| spec.classify(c, n));
            let opts = KrylovOptions {
                rtol: 1e-6,
                max_iters: 1000,
            };
            let mut solver = PoissonSolver::new(&nm.fine, opts);
            // a charge blob on the axis, as the plume deposits it
            let charge: Vec<f64> = nm
                .fine
                .nodes
                .iter()
                .map(|p| {
                    let dz = p.z - 6e-3;
                    1e-15 * (-(p.x * p.x + p.y * p.y + dz * dz) / 4e-6).exp()
                })
                .collect();
            let iters = solver.solve(&charge).1.iterations;
            let pre = &solver.preconditioner;
            let (unknowns, entries) = (pre.coarse_unknowns(), pre.factor_entries());
            eprintln!(
                "nd {nd}, nz {nz}: {} fine nodes, {iters} iterations, \
                 {unknowns} coarse unknowns, {entries} factor entries",
                solver.num_nodes()
            );
            levels.push((solver.num_nodes(), iters, unknowns, entries));
        }
        let (first, last) = (levels[0], levels[2]);
        assert!(last.0 > 7 * first.0, "{levels:?}");
        let iters: Vec<usize> = levels.iter().map(|l| l.1).collect();
        let (lo, hi) = (iters.iter().min().unwrap(), iters.iter().max().unwrap());
        assert!(4 * hi <= 5 * lo, "iterations grow with the grid: {iters:?}");
        let growth: Vec<f64> = levels
            .windows(2)
            .map(|w| (w[1].3 as f64 / w[0].3 as f64).ln() / (w[1].2 as f64 / w[0].2 as f64).ln())
            .collect();
        assert!(
            growth[0] < growth[1] && growth[1] <= COARSE_FACTOR_GROWTH,
            "factor growth exponents {growth:?}"
        );
        assert!(
            COARSE_FACTOR_GROWTH - growth[1] < 0.05,
            "factor growth exponents {growth:?}"
        );
    }

    #[test]
    fn initial_partition_covers_all_ranks() {
        let cs = ClusterSim::new(
            &run_cfg(4, true, Strategy::Distributed),
            MachineProfile::tianhe2(),
        );
        for r in 0..4u32 {
            assert!(cs.owner().contains(&r), "rank {r} owns nothing");
        }
    }

    #[test]
    fn imbalance_appears_without_lb() {
        let mut cs = ClusterSim::new(
            &run_cfg(4, false, Strategy::Distributed),
            MachineProfile::tianhe2(),
        );
        let report = cs.run(15);
        // plume fills from the inlet: early steps should show one rank
        // holding the bulk of the particles (paper Fig. 5)
        let max_share = report.trace[5..]
            .iter()
            .map(|t| t.share.iter().copied().fold(0.0f64, f64::max))
            .fold(0.0f64, f64::max);
        assert!(max_share > 0.5, "expected concentration, got {max_share}");
        assert_eq!(report.rebalances, 0);
    }

    #[test]
    fn lb_reduces_total_time() {
        let profile = MachineProfile::tianhe2();
        let t_no = ClusterSim::new(&run_cfg(4, false, Strategy::Distributed), profile)
            .run(20)
            .total_time;
        let t_lb = ClusterSim::new(&run_cfg(4, true, Strategy::Distributed), profile)
            .run(20)
            .total_time;
        assert!(
            t_lb < t_no,
            "load balancing must help on the skewed plume: {t_lb} !< {t_no}"
        );
    }

    #[test]
    fn rebalance_fires_and_improves_share() {
        let mut cs = ClusterSim::new(
            &run_cfg(4, true, Strategy::Distributed),
            MachineProfile::tianhe2(),
        );
        let report = cs.run(25);
        assert!(report.rebalances >= 1, "balancer never fired");
        // after rebalance the worst share should drop well below the
        // no-LB concentration
        let last = report.trace.last().unwrap();
        let max_share = last.share.iter().copied().fold(0.0f64, f64::max);
        assert!(max_share < 0.9, "{max_share}");
    }

    #[test]
    fn breakdown_phases_all_populated() {
        let mut cs = ClusterSim::new(
            &run_cfg(3, true, Strategy::Distributed),
            MachineProfile::tianhe2(),
        );
        let report = cs.run(12);
        assert!(report.breakdown[Phase::Inject] > 0.0);
        assert!(report.breakdown[Phase::DsmcMove] > 0.0);
        assert!(report.breakdown[Phase::PoissonSolve] > 0.0);
        assert!(report.breakdown[Phase::Reindex] > 0.0);
        assert!(report.total_time > 0.0);
        assert_eq!(report.trace.len(), 12);
        // the unified report now carries the density diagnostic too
        assert!(report.density_h.iter().any(|&d| d > 0.0));
    }

    #[test]
    fn fixed_strategy_tallies_every_exchange() {
        let mut cs = ClusterSim::new(
            &run_cfg(4, false, Strategy::Distributed),
            MachineProfile::tianhe2(),
        );
        let report = cs.run(10);
        let [cc, dc, sparse, hier] = report.strategy_uses;
        assert_eq!(cc, 0);
        assert_eq!(sparse, 0);
        assert_eq!(hier, 0);
        // one DSMC exchange plus one per PIC substep, every step
        assert!(dc >= 20, "expected >= 2 exchanges/step, got {dc}");
    }

    #[test]
    fn auto_is_never_slower_than_a_fixed_strategy() {
        let profile = MachineProfile::tianhe2();
        let auto = ClusterSim::new(&run_cfg(4, false, Strategy::Auto), profile).run(15);
        let used: u64 = auto.strategy_uses.iter().sum();
        assert!(used > 0, "auto never resolved a strategy");
        // physics is strategy-independent, and auto picks the argmin
        // of the same per-exchange model, so it can only tie or win
        for s in Strategy::CONCRETE {
            let fixed = ClusterSim::new(&run_cfg(4, false, s), profile).run(15);
            assert_eq!(
                fixed.population, auto.population,
                "physics drifted under {s:?}"
            );
            assert!(
                auto.total_time <= fixed.total_time * (1.0 + 1e-12),
                "auto {} slower than {s:?} {}",
                auto.total_time,
                fixed.total_time
            );
        }
    }

    #[test]
    fn more_ranks_do_not_slow_down_compute_phases() {
        let profile = MachineProfile::tianhe2();
        let r4 = ClusterSim::new(&run_cfg(4, true, Strategy::Distributed), profile).run(15);
        let r16 = ClusterSim::new(&run_cfg(16, true, Strategy::Distributed), profile).run(15);
        // DSMC_Move (pure compute) must speed up with more ranks
        assert!(
            r16.breakdown[Phase::DsmcMove] < r4.breakdown[Phase::DsmcMove],
            "{} !< {}",
            r16.breakdown[Phase::DsmcMove],
            r4.breakdown[Phase::DsmcMove]
        );
    }
}
