//! The unified per-rank step pipeline.
//!
//! Every driver in this crate executes the same coupled DSMC/PIC
//! timestep (paper Fig. 1): Inject → DSMC_Move → Exchange →
//! Colli_React → R × (PIC_Move → Exchange → Poisson_Solve) → Reindex
//! → Rebalance. This module defines that sequence **exactly once**:
//!
//! * [`RankEngine`] owns all per-rank simulation state — particle
//!   buffer, RNG stream, (filtered) injector, field solver, exchange
//!   scratch, kernel lanes — with one method per physics phase.
//! * [`run_step`] is the phase sequence. Nothing else in the crate
//!   orders the phases.
//! * [`Backend`] supplies the execution context between the physics
//!   phases: [`SerialBackend`] (single rank, no communication, real
//!   wall clock), the threaded backend in [`crate::threaded`] (real
//!   `vmpi` messaging, measured timing) and the modelled backend in
//!   [`crate::cluster`] (cost-model attribution, no real
//!   communication).
//! * [`obs::Observer`] is the only way a step reports: backends hand
//!   the pipeline the observer's own [`ExchangeEvent`] /
//!   [`RebalanceEvent`] for what they carried, the pipeline forwards
//!   them and sums them into the [`StepTrace`], and
//!   [`crate::report::ReportBuilder`] folds those signals into the
//!   shared [`crate::report::RunReport`] — so the trace sums equal the
//!   report totals by construction.

use crate::config::{ObsConfig, RunConfig, SimConfig};
use crate::report::{ReportBuilder, RunReport, StepTrace};
use crate::world::World;
use dsmc::{
    collision_key, move_particles_pooled, CellScratch, ChemistryModel, ColliReact, CollisionModel,
    CrossCollisionModel, Injector, Pump, ReactStats,
};
use kernels::Pool;
use mesh::NestedMesh;
use obs::{
    Breakdown, ExchangeEvent, LapTimer, NullObserver, Observer, Phase, RebalanceEvent, Recorder,
    Tee,
};
use particles::{CellIndex, ParticleBuffer, SpeciesTable};
use pic::{accelerate_charged, deposit_charge_into, ElectricField, PoissonSolver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparse::KrylovOptions;
use std::convert::Infallible;
use std::sync::Arc;

/// Per-rank scratch state for the exchange phases, reused across
/// steps so the steady state is allocation-free: the keep mask and
/// both buffer sets persist at capacity — emigrants are serialized
/// straight into `outgoing` and `vmpi::exchange_into` refills
/// `incoming` in place.
#[derive(Debug, Default)]
pub struct ExchangeScratch {
    pub(crate) keep: Vec<bool>,
    /// `outgoing[d]`: wire bytes headed to rank `d`, cleared and
    /// repacked each exchange (capacity retained).
    pub(crate) outgoing: Vec<Vec<u8>>,
    /// `incoming[s]`: wire bytes received from rank `s`.
    pub(crate) incoming: Vec<Vec<u8>>,
}

/// All per-rank state of one coupled simulation. A serial run is one
/// engine owning the whole domain; a threaded run is one engine per
/// rank-thread sharing the meshes behind [`Arc`]s; the modelled
/// cluster driver is one engine executing the global physics while
/// its backend attributes the work to virtual ranks.
pub struct RankEngine {
    pub config: SimConfig,
    pub nm: Arc<NestedMesh>,
    pub species: Arc<SpeciesTable>,
    pub h_id: u8,
    pub hp_id: u8,
    pub particles: ParticleBuffer,
    /// Inlet injector over the cells this engine owns (`None` when a
    /// decomposed rank owns no inlet cells).
    pub injector: Option<Injector>,
    pub collisions: CollisionModel,
    pub cross: CrossCollisionModel,
    pub chemistry: ChemistryModel,
    pub poisson: PoissonSolver,
    pub efield: ElectricField,
    pub rng: StdRng,
    /// Dedicated DSMC stream for subcycled runs: when
    /// `config.k_sub_dsmc > 1` the neutral move takes its key from this
    /// stream instead of `rng` (Colli_React draws from keyed per-cell
    /// streams only), so changing the subcycle count never perturbs the
    /// PIC draws on `rng`. At `k_sub_dsmc == 1` it is never consumed
    /// and the engine keeps the legacy single-stream behaviour bit for
    /// bit.
    pub rng_dsmc: StdRng,
    /// Dedicated stream for partial-pump wall absorption decisions
    /// (`config.pump_prob`): one draw per step seeds that step's
    /// `pump_step`, whatever the subcycle count and the wall hits;
    /// never consumed when pumping is off.
    pub rng_pump: StdRng,
    /// The step's pump stream, seeded at subcycle 0 from `rng_pump`:
    /// each subcycle's move takes one key from it per move that reaches
    /// a wall, under which each flight decides on its own stream.
    pump_step: StdRng,
    /// DSMC iterations completed.
    pub step_count: usize,
    /// Lanes of the neutral and ion moves, the two collision passes
    /// and the CG team, each bitwise the same on any lane count: every core
    /// for a whole-domain engine, one for a rank of a decomposed run,
    /// whose sibling rank threads (or job-server workers) already fill
    /// the cores.
    pub lanes: Pool,
    /// Exchange scratch (used by communicating backends).
    pub exch: ExchangeScratch,
    /// Colli_React scratch: this subcycle's particles by cell, neutrals
    /// in slot 0 and ions in slot 1, built once on the lanes for the
    /// whole pass.
    index: CellIndex,
    /// Colli_React scratch: one per lane, kept from pass to pass.
    scratch: Vec<CellScratch>,
    /// PIC substep scratch, cleared and reused: the deposited node
    /// charge (taken by `deposit`, handed back by `field_solve`).
    node_charge: Vec<f64>,
}

/// Seed of the dedicated DSMC subcycle stream for a rank seeded with
/// `seed` (splitmix64 golden-ratio offset — decorrelated from both
/// the main stream and the pump stream).
fn dsmc_stream_seed(seed: u64) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15)
}

/// Seed of the dedicated pump-decision stream (see
/// [`dsmc_stream_seed`]).
fn pump_stream_seed(seed: u64) -> u64 {
    seed.wrapping_add(0x3C6E_F372_FE94_F82A)
}

impl RankEngine {
    /// Build a whole-domain engine and its own single-rank world.
    pub fn new(config: SimConfig) -> Self {
        let world = World::build(&config, 1);
        Self::whole_domain(config, &world)
    }

    /// The whole-domain engine of `world` (the serial and modelled
    /// drivers): full injector, a lane per core, RNG seeded from
    /// `config.seed`.
    pub(crate) fn whole_domain(config: SimConfig, world: &World) -> Self {
        let injector = Some(Injector::new(&world.geometry.nm.coarse));
        let seed = config.seed;
        let lanes = Pool::new(std::thread::available_parallelism().map_or(1, |n| n.get()));
        Self::assemble(config, world, injector, seed, lanes)
    }

    /// Build the per-rank engine of a decomposed run: the world's
    /// shared meshes and species table, the inlet cells rank `me` owns
    /// under the seed decomposition, and an independent RNG stream
    /// (`seed + 1 + me`, the paper's per-rank seeding), on one lane.
    pub fn for_rank(config: SimConfig, world: &World, me: usize) -> Self {
        let seed = config.seed.wrapping_add(1 + me as u64);
        let mut eng = Self::assemble(config, world, None, seed, Pool::serial());
        eng.claim_inlet(&world.owner0, me);
        eng
    }

    /// Inject over exactly the inlet cells rank `me` owns under
    /// `owner` (`None` when it owns none). A fresh injector: its
    /// fractional-particle carry starts at zero.
    pub(crate) fn claim_inlet(&mut self, owner: &[u32], me: usize) {
        self.injector = Injector::with_filter(&self.nm.coarse, |t| owner[t as usize] == me as u32);
    }

    fn assemble(
        config: SimConfig,
        world: &World,
        injector: Option<Injector>,
        seed: u64,
        lanes: Pool,
    ) -> Self {
        let (nm, species) = (world.geometry.nm.clone(), world.species.clone());
        let (h_id, hp_id) = (world.h_id, world.hp_id);
        let collisions = CollisionModel::new(nm.num_coarse(), &species, config.t_inject);
        // the geometry's one operator: the first engine on it assembles
        let poisson = PoissonSolver::on(
            world.geometry.poisson(),
            KrylovOptions {
                rtol: 1e-6,
                max_iters: 1000,
            },
        );
        let efield = ElectricField::zeros(&nm.fine);
        RankEngine {
            config,
            nm,
            species,
            h_id,
            hp_id,
            particles: ParticleBuffer::new(),
            injector,
            collisions,
            cross: CrossCollisionModel::default(),
            chemistry: ChemistryModel::default(),
            poisson,
            efield,
            rng: StdRng::seed_from_u64(seed),
            rng_dsmc: StdRng::seed_from_u64(dsmc_stream_seed(seed)),
            rng_pump: StdRng::seed_from_u64(pump_stream_seed(seed)),
            pump_step: StdRng::seed_from_u64(0),
            step_count: 0,
            lanes,
            exch: ExchangeScratch::default(),
            index: CellIndex::default(),
            scratch: Vec::new(),
            node_charge: Vec::new(),
        }
    }

    /// Per-step injection rate (simulation particles) for H over this
    /// engine's inlet share.
    pub fn h_rate(&self) -> f64 {
        self.injector.as_ref().map_or(0.0, |inj| {
            inj.particles_per_step(
                self.config.density_h,
                self.config.v_drift,
                self.config.dt_dsmc,
                self.config.weight_h,
            )
        })
    }

    /// Per-step injection rate (simulation particles) for H⁺.
    pub fn ion_rate(&self) -> f64 {
        self.injector.as_ref().map_or(0.0, |inj| {
            inj.particles_per_step(
                self.config.density_hplus,
                self.config.v_drift,
                self.config.dt_dsmc,
                self.config.weight_hplus,
            )
        })
    }

    /// Neutral / charged particle counts per coarse cell.
    pub fn counts_per_cell(&self) -> (Vec<u64>, Vec<u64>) {
        let nc = self.nm.num_coarse();
        let mut neutral = vec![0u64; nc];
        let mut charged = vec![0u64; nc];
        for i in 0..self.particles.len() {
            let c = self.particles.cell[i] as usize;
            if self.particles.species[i] == self.h_id {
                neutral[c] += 1;
            } else {
                charged[c] += 1;
            }
        }
        (neutral, charged)
    }

    /// H number density per coarse cell, given the *global* H count of
    /// every cell (this engine's own [`RankEngine::counts_per_cell`]
    /// when it owns the whole domain, their sum over ranks otherwise).
    pub(crate) fn density_h(&self, h_counts: &[f64]) -> Vec<f64> {
        crate::diag::number_density(
            h_counts,
            &self.nm.coarse.volumes,
            self.species.get(self.h_id).weight,
        )
    }

    /// This engine's H count per coarse cell, as the floats the
    /// density diagnostic (and its cross-rank sum) works in.
    pub(crate) fn h_counts(&self) -> Vec<f64> {
        let (neutral, _) = self.counts_per_cell();
        neutral.iter().map(|&c| c as f64).collect()
    }

    /// Execute one full DSMC iteration through the unified pipeline
    /// with the serial backend (no communication, full record: the
    /// injected cells and both transition lists are filled).
    pub fn dsmc_step(&mut self) -> StepRecord {
        let Ok((rec, _, _)) = run_step(self, &mut SerialBackend::recording(), &mut NullObserver);
        rec
    }

    // --- phase methods, called only by `run_step` --------------------

    /// Inject (only effective on engines owning inlet cells).
    fn inject(&mut self, rec: &mut StepRecord, track: bool) {
        let before = self.particles.len();
        let (h_rate, ion_rate) = (self.h_rate(), self.ion_rate());
        if let Some(inj) = self.injector.as_mut() {
            let cfg = &self.config;
            let h_sp = self.species.get(self.h_id).clone();
            let ion_sp = self.species.get(self.hp_id).clone();
            inj.inject(
                &self.nm.coarse,
                &mut self.particles,
                self.h_id,
                &h_sp,
                h_rate,
                cfg.v_drift,
                cfg.t_inject,
                &mut self.rng,
            );
            inj.inject(
                &self.nm.coarse,
                &mut self.particles,
                self.hp_id,
                &ion_sp,
                ion_rate,
                cfg.v_drift,
                cfg.t_inject,
                &mut self.rng,
            );
        }
        if track {
            rec.injected_cells
                .extend_from_slice(&self.particles.cell[before..]);
        }
    }

    /// DSMC_Move: advect the neutrals for DSMC subcycle `subcycle`, of
    /// `dt` (`dt_dsmc / k_sub_dsmc`; the full `dt_dsmc` when not
    /// subcycling). The move keys its wall draws by one draw from the
    /// engine's stream (the dedicated [`RankEngine::rng_dsmc`] when
    /// subcycling); the optional partial pump keys its decisions by one
    /// from the step's pump stream, which subcycle 0 seeds with one
    /// draw from [`RankEngine::rng_pump`].
    fn dsmc_move(&mut self, rec: &mut StepRecord, track: bool, dt: f64, subcycle: usize) {
        let h_id = self.h_id;
        if self.config.pump_prob.is_some() && subcycle == 0 {
            self.pump_step = StdRng::seed_from_u64(self.rng_pump.gen());
        }
        let pump = self.config.pump_prob.map(|prob| Pump {
            prob,
            rng: &mut self.pump_step,
        });
        let rng = if self.config.k_sub_dsmc > 1 {
            &mut self.rng_dsmc
        } else {
            &mut self.rng
        };
        let stats = move_particles_pooled(
            &self.nm.coarse,
            &mut self.particles,
            &self.species,
            dt,
            self.config.t_wall,
            rng,
            &self.lanes,
            |s| s == h_id,
            track.then_some(&mut rec.neutral_transitions),
            pump,
        );
        rec.exited += stats.exited;
        rec.pumped += stats.pumped;
        rec.wall_hits += stats.wall_hits;
        rec.crossings += stats.crossings;
    }

    /// Colli_React over DSMC subcycle `subcycle`, of `dt`: one
    /// [`ColliReact`] pass on [`RankEngine::lanes`] — in each cell NTC,
    /// the optional MEX/CEX, the cell's dissociations and its
    /// recombination, each on a stream keyed by the run seed
    /// (`config.seed`, the same on every rank), the step, the subcycle,
    /// the part and the global coarse cell ([`dsmc::collision_key`]). It
    /// reads one [`CellIndex`] of the subcycle's particles, neutrals in
    /// slot 0 and ions in slot 1, built on the same lanes, and draws
    /// nothing from the engine's streams. Record fields accumulate so
    /// subcycles sum.
    fn colli_react(&mut self, rec: &mut StepRecord, dt: f64, subcycle: usize) {
        let key = collision_key(self.config.seed, self.step_count as u64, subcycle as u64);
        let ids = [self.h_id, self.hp_id];
        let slot = |s| ids.iter().position(|&id| id == s);
        let nc = self.nm.coarse.num_cells();
        self.index.build(&self.particles, nc, 2, slot, &self.lanes);
        let stats = ColliReact {
            mesh: &self.nm.coarse,
            species: &self.species,
            ids,
            dt,
            key,
            ntc: Some(&mut self.collisions),
            cross: self.config.cross_collisions.then_some(&self.cross),
            chemistry: Some(&self.chemistry),
        }
        .run(
            &mut self.particles,
            &mut self.index,
            &self.lanes,
            &mut self.scratch,
        );
        rec.collision_candidates += stats.ntc.candidates + stats.cross.candidates;
        rec.collisions += stats.ntc.collisions + stats.cross.mex + stats.cross.cex;
        rec.reactions.dissociations += stats.react.dissociations;
        rec.reactions.recombinations += stats.react.recombinations;
    }

    /// PIC_Move: kick with the *previous* substep's field, then
    /// advect the charged species (paper §III-B: "driven by the
    /// electric field of the previous timestep").
    fn pic_move(&mut self, rec: &mut StepRecord, track: bool) {
        let dt_pic = self.config.dt_pic();
        accelerate_charged(
            &self.nm,
            &mut self.particles,
            &self.species,
            &self.efield,
            self.config.b_field,
            dt_pic,
        );
        let hp_id = self.hp_id;
        let mut tr = Vec::new();
        let stats = move_particles_pooled(
            &self.nm.coarse,
            &mut self.particles,
            &self.species,
            dt_pic,
            self.config.t_wall,
            &mut self.rng,
            &self.lanes,
            |s| s == hp_id,
            track.then_some(&mut tr),
            None,
        );
        rec.exited += stats.exited;
        if track {
            rec.charged_transitions.push(tr);
        }
    }

    /// Deposit the local charge onto the fine-grid nodes.
    fn deposit(&mut self) -> Vec<f64> {
        let mut node_charge = std::mem::take(&mut self.node_charge);
        node_charge.clear();
        node_charge.resize(self.nm.fine.num_nodes(), 0.0);
        deposit_charge_into(&self.nm, &self.particles, &self.species, &mut node_charge);
        node_charge
    }

    /// Poisson_Solve on the (globally reduced) node charge, then hand
    /// φ to E, which the next push gathers at the ions. The vector
    /// becomes the next deposit's scratch.
    fn field_solve(&mut self, node_charge: Vec<f64>, rec: &mut StepRecord) {
        let (phi, stats) = self.poisson.solve_with(&node_charge, &self.lanes, None);
        self.efield.refresh(&self.nm.fine, phi);
        rec.poisson_iters.push(stats.iterations);
        rec.poisson_unconverged += usize::from(!stats.converged);
        rec.poisson_rel_residual_max = rec.poisson_rel_residual_max.max(stats.rel_residual);
        self.node_charge = node_charge;
    }

    /// Reindex: renumber owned particles from this rank's global
    /// offset.
    fn reindex(&mut self, start: u64) {
        self.particles.renumber(start);
    }
}

/// Work quantities of one DSMC iteration, for timing attribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepRecord {
    /// Coarse cell of every particle injected this step.
    pub injected_cells: Vec<u32>,
    /// `(old_cell, new_cell)` per neutral moved in DSMC_Move
    /// (`new_cell == dsmc::EXITED` when it left the domain).
    pub neutral_transitions: Vec<(u32, u32)>,
    /// Same, per PIC substep, for charged particles.
    pub charged_transitions: Vec<Vec<(u32, u32)>>,
    /// NTC candidates examined.
    pub collision_candidates: usize,
    /// Accepted collisions.
    pub collisions: usize,
    /// Reaction counts.
    pub reactions: ReactStats,
    /// CG iterations of each PIC substep's Poisson solve.
    pub poisson_iters: Vec<usize>,
    /// Poisson solves that hit the iteration cap before converging.
    pub poisson_unconverged: usize,
    /// Largest final relative residual ‖b − Kφ‖ / ‖b‖ of this step's
    /// Poisson solves.
    pub poisson_rel_residual_max: f64,
    /// Particles removed at the boundaries this step.
    pub exited: usize,
    /// Particles absorbed by the partial pump this step (disjoint
    /// from `exited`; always 0 when `pump_prob` is unset).
    pub pumped: usize,
    /// Diffuse wall reflections in this step's DSMC_Move subcycles.
    pub wall_hits: usize,
    /// Cell-face crossings in this step's DSMC_Move subcycles.
    pub crossings: usize,
    /// Particle population after the step.
    pub population: usize,
}

/// Execution context of the pipeline: where time is accounted, how
/// particles and charge move between ranks, and what the Rebalance
/// phase does. The physics phases themselves live on [`RankEngine`]
/// and are identical under every backend.
///
/// The four communicating methods are fallible: a failed exchange or
/// collective ends the step ([`run_step`] returns the error at once,
/// like MPI's abort-on-error), and nothing is substituted for the
/// value it would have produced. A backend with no wire has
/// `Error = std::convert::Infallible`.
pub trait Backend {
    /// What a failed communication reports.
    type Error;

    /// Whether the engine should record per-particle work quantities
    /// (injection cells, cell transitions) into the [`StepRecord`].
    /// Attribution backends need them; real-time backends skip the
    /// overhead.
    fn track(&self) -> bool {
        false
    }

    /// A new step begins (reset the stopwatch / attribution scratch).
    fn begin_step(&mut self, eng: &RankEngine);

    /// Close `phase` (`sub` = PIC substep index, 0 otherwise):
    /// measure the elapsed wall time or attribute the modelled cost
    /// into `bd`.
    fn lap(
        &mut self,
        phase: Phase,
        sub: usize,
        eng: &RankEngine,
        rec: &StepRecord,
        bd: &mut Breakdown,
    );

    /// Migrate emigrant particles to their owning ranks and return
    /// the event describing what was carried, stamped with `phase`,
    /// `sub` and `eng.step_count` (`None` without real decomposition).
    /// The pipeline laps the exchange's phase right after, so an
    /// attribution backend prices the exchange here — `rec` holds the
    /// transitions it is priced from — and its `lap` only charges the
    /// time.
    fn exchange(
        &mut self,
        _eng: &mut RankEngine,
        _phase: Phase,
        _sub: usize,
        _rec: &StepRecord,
    ) -> Result<Option<ExchangeEvent>, Self::Error> {
        Ok(None)
    }

    /// Sum the node charge across ranks (paper §IV-C reduction);
    /// identity without real decomposition.
    fn reduce_charge(
        &mut self,
        _eng: &RankEngine,
        node_charge: Vec<f64>,
    ) -> Result<Vec<f64>, Self::Error> {
        Ok(node_charge)
    }

    /// Global base index for Reindex (exclusive scan of per-rank
    /// populations; 0 without real decomposition).
    fn reindex_base(&mut self, _eng: &RankEngine) -> Result<u64, Self::Error> {
        Ok(0)
    }

    /// The Rebalance phase: measure the load-imbalance indicator
    /// (paper eq. 6) and, when a rebalancer is armed, possibly
    /// re-decompose. Returns `lii`, the rebalance that happened (if
    /// one did) and the exchange that carried its migration. A single
    /// rank has nothing to measure.
    fn rebalance(
        &mut self,
        _eng: &mut RankEngine,
        _bd: &Breakdown,
        _rec: &StepRecord,
    ) -> Result<(f64, Option<RebalanceEvent>, Option<ExchangeEvent>), Self::Error> {
        Ok((0.0, None, None))
    }

    /// The step is complete: write the per-rank particle `share` into
    /// `trace`; attribution backends collapse their per-rank costs
    /// into `bd` here, and a backend with a real wire overwrites the
    /// trace's `transactions` / `bytes` (the pipeline's sum over the
    /// step's exchange events) with its world-counter delta, which
    /// also sees the collectives between the exchanges.
    fn end_step(&mut self, eng: &RankEngine, bd: &mut Breakdown, trace: &mut StepTrace);
}

/// Forward a carried exchange to the observer and count it into the
/// step's trace.
fn forward_exchange<O: Observer>(
    ev: Option<ExchangeEvent>,
    trace: &mut StepTrace,
    observer: &mut O,
) {
    if let Some(ev) = ev {
        trace.transactions += ev.transactions;
        trace.bytes += ev.bytes;
        trace.strategy_uses[ev.strategy] += 1;
        observer.exchange(&ev);
    }
}

/// Execute one coupled DSMC/PIC timestep of `eng` (paper Fig. 1; its
/// index is `eng.step_count`) under `be`, reporting to `observer`.
/// The phase sequence is defined here exactly once: every driver —
/// [`run_serial`], `run_threaded`, `ClusterSim` — iterates this.
/// Returns the work record, the step trace and the per-phase time
/// breakdown, or the backend's first communication error: the step
/// stops at the failed exchange or collective, and the observer sees
/// no `phase` or `step` signal for it.
pub fn run_step<B: Backend, O: Observer>(
    eng: &mut RankEngine,
    be: &mut B,
    observer: &mut O,
) -> Result<(StepRecord, StepTrace, Breakdown), B::Error> {
    let step = eng.step_count;
    let mut rec = StepRecord::default();
    let mut bd = Breakdown::new();
    let mut trace = StepTrace::default();
    let track = be.track();
    be.begin_step(eng);

    // --- Inject ------------------------------------------------------
    eng.inject(&mut rec, track);
    be.lap(Phase::Inject, 0, eng, &rec, &mut bd);

    // --- k_sub × (DSMC_Move + DSMC_Exchange + Colli_React) ------------
    // One DSMC subcycle at k_sub == 1 reproduces the original
    // unrolled sequence exactly: `dt_dsmc / 1` is bitwise `dt_dsmc`
    // and the subcycle index passed as `sub` is 0, so every
    // existing guard hash is preserved.
    let k_sub = eng.config.k_sub_dsmc;
    let dt_sub = eng.config.dt_dsmc / k_sub as f64;
    for sc in 0..k_sub {
        eng.dsmc_move(&mut rec, track, dt_sub, sc);
        be.lap(Phase::DsmcMove, sc, eng, &rec, &mut bd);
        let carried = be.exchange(eng, Phase::DsmcExchange, sc, &rec)?;
        be.lap(Phase::DsmcExchange, sc, eng, &rec, &mut bd);
        forward_exchange(carried, &mut trace, observer);

        eng.colli_react(&mut rec, dt_sub, sc);
        be.lap(Phase::ColliReact, sc, eng, &rec, &mut bd);
    }

    // --- R × (PIC_Move + PIC_Exchange + Poisson_Solve) ----------------
    for sub in 0..eng.config.pic_per_dsmc {
        eng.pic_move(&mut rec, track);
        be.lap(Phase::PicMove, sub, eng, &rec, &mut bd);
        let carried = be.exchange(eng, Phase::PicExchange, sub, &rec)?;
        be.lap(Phase::PicExchange, sub, eng, &rec, &mut bd);
        forward_exchange(carried, &mut trace, observer);
        let local = eng.deposit();
        let node_charge = be.reduce_charge(eng, local)?;
        eng.field_solve(node_charge, &mut rec);
        be.lap(Phase::PoissonSolve, sub, eng, &rec, &mut bd);
    }

    // --- Reindex ------------------------------------------------------
    let base = be.reindex_base(eng)?;
    eng.reindex(base);
    be.lap(Phase::Reindex, 0, eng, &rec, &mut bd);

    // --- Rebalance (Algorithm 1) --------------------------------------
    let (lii, rebalanced, migration) = be.rebalance(eng, &bd, &rec)?;
    be.lap(Phase::Rebalance, 0, eng, &rec, &mut bd);
    // rebalance migration is also an exchange
    forward_exchange(migration, &mut trace, observer);
    if let Some(ev) = &rebalanced {
        observer.rebalance(ev);
    }

    trace.lii = lii;
    trace.rebalanced = rebalanced.is_some();
    trace.poisson_unconverged = rec.poisson_unconverged as u64;
    trace.poisson_rel_residual_max = rec.poisson_rel_residual_max;
    trace.wall_hits = rec.wall_hits as u64;
    trace.crossings = rec.crossings as u64;
    be.end_step(eng, &mut bd, &mut trace);
    trace.step_time = bd.total();
    eng.step_count += 1;
    rec.population = eng.particles.len();

    for p in Phase::ALL {
        observer.phase(p, bd[p]);
    }
    observer.step(step, &trace);
    Ok((rec, trace, bd))
}

/// The run loop of the two whole-domain drivers (`run_serial` and
/// `ClusterSim::run`): `steps` iterations of the pipeline on the one
/// engine owning every cell, observed by a [`ReportBuilder`] and an
/// [`obs::Recorder`] set up from `obs`. The returned report carries
/// the trace, the breakdown, the folded totals, the final and
/// time-averaged diagnostics and the population. `ranks` labels the
/// trace's metadata record.
pub(crate) fn run_whole_domain<B: Backend<Error = Infallible>>(
    eng: &mut RankEngine,
    be: &mut B,
    obs: &ObsConfig,
    ranks: usize,
    steps: usize,
) -> RunReport {
    let mut builder = ReportBuilder::new();
    let sink = obs.trace.make_sink().expect("open trace sink");
    let mut rec = Recorder::new(obs.metrics.as_ref(), sink).with_time_average(obs.avg_window);
    rec.meta(ranks, steps);
    for _ in 0..steps {
        let Ok(_) = run_step(eng, be, &mut Tee(&mut builder, &mut rec));
        // time-averaged diagnostics are read-only taps: sampling
        // never perturbs the physics, and with avg_window == 0 the
        // samples are dropped before they are even computed
        if obs.avg_window > 0 {
            rec.field_sample("density_h", &eng.density_h(&eng.h_counts()));
            rec.field_sample("phi", eng.poisson.phi());
        }
    }
    rec.finish();
    let mut report = builder.finish();
    report.density_h = eng.density_h(&eng.h_counts());
    report.population = eng.particles.len();
    if let Some(avg) = rec.time_average() {
        report.density_h_avg = avg.mean("density_h").unwrap_or_default();
        report.phi_avg = avg.mean("phi").unwrap_or_default();
    }
    report
}

/// Reference serial run of `run` (the paper's validated serial
/// baseline): one engine owning the whole domain under the
/// [`SerialBackend`], reporting the same diagnostics, measured
/// breakdown and per-step trace as the decomposed drivers.
pub fn run_serial(run: &RunConfig) -> RunReport {
    let mut eng = RankEngine::new(run.sim.clone());
    run_whole_domain(&mut eng, &mut SerialBackend::new(), &run.obs, 1, run.steps)
}

/// Single-rank backend: no communication, real wall-clock timing
/// through the shared gap-free [`LapTimer`]. It records the
/// per-particle work (injected cells, cell transitions) only for
/// [`RankEngine::dsmc_step`], whose caller reads the record;
/// [`run_serial`] drops it.
pub struct SerialBackend {
    clock: LapTimer,
    track: bool,
}

impl SerialBackend {
    pub fn new() -> Self {
        SerialBackend {
            clock: LapTimer::start(),
            track: false,
        }
    }

    /// The backend of [`RankEngine::dsmc_step`]: the full record.
    fn recording() -> Self {
        SerialBackend {
            track: true,
            ..Self::new()
        }
    }
}

impl Default for SerialBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for SerialBackend {
    type Error = Infallible;

    fn track(&self) -> bool {
        self.track
    }

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

    fn end_step(&mut self, _eng: &RankEngine, _bd: &mut Breakdown, trace: &mut StepTrace) {
        trace.share = vec![1.0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Dataset, SimConfig};

    fn small_state() -> RankEngine {
        let mut cfg = Dataset::D1.config(0.02);
        cfg.seed = 7;
        RankEngine::new(cfg)
    }

    #[test]
    fn serial_pipeline_matches_monolithic_record() {
        // the pipeline-driven dsmc_step must fill the full record
        let mut eng = small_state();
        let rec = eng.dsmc_step();
        assert!(!rec.injected_cells.is_empty());
        assert_eq!(rec.poisson_iters.len(), eng.config.pic_per_dsmc);
        assert_eq!(rec.charged_transitions.len(), eng.config.pic_per_dsmc);
        assert_eq!(rec.population, eng.particles.len());
        assert_eq!(eng.step_count, 1);
    }

    #[test]
    fn run_serial_steps_are_dsmc_steps_without_the_record() {
        // run_serial's backend records no per-particle work; the
        // particles and both RNG streams take the same bits
        let (mut tracked, mut untracked) = (small_state(), small_state());
        for _ in 0..3 {
            let full = tracked.dsmc_step();
            let Ok((rec, _, _)) =
                run_step(&mut untracked, &mut SerialBackend::new(), &mut NullObserver);
            assert!(!full.injected_cells.is_empty() && !full.neutral_transitions.is_empty());
            assert!(rec.injected_cells.is_empty() && rec.neutral_transitions.is_empty());
            assert!(rec.charged_transitions.is_empty());
            assert_eq!(rec.collisions, full.collisions);
            assert_eq!(rec.population, full.population);
        }
        let bits = |e: &RankEngine| {
            let p = &e.particles;
            let lanes = [&p.px, &p.py, &p.pz, &p.vx, &p.vy, &p.vz];
            let bits: Vec<u64> = lanes
                .iter()
                .flat_map(|l| l.iter().map(|x| x.to_bits()))
                .collect();
            (bits, p.cell.clone(), p.species.clone(), e.rng.clone())
        };
        assert!(bits(&tracked) == bits(&untracked));
    }

    #[test]
    fn colli_react_draws_nothing_from_the_engine_streams() {
        // a dense cold gas, as the collide_serial workload, with cross
        // collisions and a chemistry that reacts both ways
        let mut eng = RankEngine::new(SimConfig {
            nozzle: mesh::NozzleSpec {
                nd: 4,
                nz: 6,
                ..mesh::NozzleSpec::default()
            },
            density_h: 6e23,
            weight_h: 3e11,
            v_drift: 500.0,
            t_inject: 120.0,
            t_wall: 120.0,
            dt_dsmc: 1e-7,
            cross_collisions: true,
            seed: 3,
            ..SimConfig::default()
        });
        eng.chemistry.k_recomb = 1.0;
        for _ in 0..3 {
            eng.dsmc_step();
        }
        let streams = |e: &RankEngine| (e.rng.clone(), e.rng_dsmc.clone(), e.rng_pump.clone());
        let before = (streams(&eng), eng.particles.vx.clone());
        let mut rec = StepRecord::default();
        eng.colli_react(&mut rec, eng.config.dt_dsmc, 0);
        assert!(
            streams(&eng) == before.0,
            "Colli_React drew an engine stream"
        );
        assert_ne!(eng.particles.vx, before.1);
        let r = rec.reactions;
        assert!(
            rec.collisions > 0 && r.dissociations > 0 && r.recombinations > 0,
            "premise: collisions and reactions both ways, {rec:?}"
        );
    }

    #[test]
    fn serial_backend_breakdown_tiles_the_step() {
        let mut eng = small_state();
        let mut be = SerialBackend::new();
        let Ok((_, trace, bd)) = run_step(&mut eng, &mut be, &mut NullObserver);
        assert!(bd.total() > 0.0, "laps must measure wall time");
        assert_eq!(trace.step_time, bd.total());
        assert_eq!(trace.share, vec![1.0]);
        assert!(!trace.rebalanced);
    }

    #[test]
    fn observer_sees_every_phase_and_step() {
        #[derive(Default)]
        struct Counting {
            phases: usize,
            steps: usize,
            time: f64,
        }
        impl Observer for Counting {
            fn phase(&mut self, _p: Phase, s: f64) {
                self.phases += 1;
                self.time += s;
            }
            fn step(&mut self, _i: usize, t: &StepTrace) {
                self.steps += 1;
                assert!((self.time - t.step_time).abs() < 1e-12);
                self.time = 0.0;
            }
        }
        let mut eng = small_state();
        let mut be = SerialBackend::new();
        let mut counting = Counting::default();
        for _ in 0..3 {
            let Ok(_) = run_step(&mut eng, &mut be, &mut counting);
        }
        assert_eq!(counting.steps, 3);
        assert_eq!(counting.phases, 3 * Phase::ALL.len());
    }

    #[test]
    fn serial_trace_carries_no_traffic() {
        let mut eng = small_state();
        let mut be = SerialBackend::new();
        let Ok((_, trace, _)) = run_step(&mut eng, &mut be, &mut NullObserver);
        assert_eq!(trace.transactions, 0);
        assert_eq!(trace.bytes, 0);
        assert_eq!(trace.strategy_uses, [0; 4]);
    }

    #[test]
    fn unconverged_poisson_solves_reach_record_trace_and_report() {
        let mut eng = small_state();
        // one CG iteration can never reach rtol on a charged plume
        let capped = KrylovOptions {
            rtol: 1e-6,
            max_iters: 1,
        };
        eng.poisson = PoissonSolver::new(&eng.nm.fine, capped);
        let mut builder = ReportBuilder::new();
        let Ok((rec, trace, _)) = run_step(&mut eng, &mut SerialBackend::new(), &mut builder);
        let solves = eng.config.pic_per_dsmc;
        assert_eq!(rec.poisson_unconverged, solves);
        assert_eq!(trace.poisson_unconverged, solves as u64);
        assert_eq!(builder.finish().poisson_unconverged, solves as u64);
        assert!(rec.poisson_rel_residual_max > capped.rtol, "{rec:?}");
        assert_eq!(trace.poisson_rel_residual_max, rec.poisson_rel_residual_max);
        // the default solver converges on the same step
        let rec = small_state().dsmc_step();
        assert_eq!(rec.poisson_unconverged, 0);
        assert!(rec.poisson_rel_residual_max <= capped.rtol, "{rec:?}");
    }

    #[test]
    fn step_injects_and_grows_population() {
        let mut st = small_state();
        let rec = st.dsmc_step();
        assert!(!rec.injected_cells.is_empty(), "must inject particles");
        assert_eq!(rec.population, st.particles.len());
        assert!(!st.particles.is_empty());
        assert_eq!(rec.poisson_iters.len(), st.config.pic_per_dsmc);
        assert_eq!(rec.charged_transitions.len(), st.config.pic_per_dsmc);
    }

    #[test]
    fn population_reaches_quasi_steady_state() {
        let mut st = small_state();
        let mut pops = Vec::new();
        for _ in 0..60 {
            pops.push(st.dsmc_step().population);
        }
        // population grows at first then saturates (injection balanced
        // by outflow): the last-10 mean must be within 3x of the
        // mid-run mean and nonzero
        let mid: f64 = pops[25..35].iter().sum::<usize>() as f64 / 10.0;
        let end: f64 = pops[50..60].iter().sum::<usize>() as f64 / 10.0;
        assert!(end > 0.0);
        assert!(
            end < 3.0 * mid + 100.0,
            "population must not diverge: {pops:?}"
        );
    }

    #[test]
    fn particles_track_cells() {
        let mut st = small_state();
        for _ in 0..5 {
            st.dsmc_step();
        }
        for p in st.particles.iter() {
            assert!(
                st.nm.coarse.contains(p.cell as usize, p.pos, 1e-5),
                "particle/cell desync"
            );
        }
    }

    #[test]
    fn transitions_cover_all_moved_neutrals() {
        let mut st = small_state();
        st.dsmc_step();
        let rec = st.dsmc_step();
        // every neutral present at move time produces one record
        let exited_neutrals = rec
            .neutral_transitions
            .iter()
            .filter(|&&(_, n)| n == dsmc::EXITED)
            .count();
        let survived = rec.neutral_transitions.len() - exited_neutrals;
        let neutrals_now = st
            .particles
            .species
            .iter()
            .filter(|&&s| s == st.h_id)
            .count();
        // survivors can since have reacted, so allow slack of the
        // reaction counts
        let slack =
            rec.reactions.dissociations + rec.reactions.recombinations + rec.injected_cells.len();
        assert!(
            (neutrals_now as i64 - survived as i64).unsigned_abs() as usize <= slack,
            "{neutrals_now} vs {survived} (slack {slack})"
        );
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = small_state();
        let mut b = small_state();
        for _ in 0..3 {
            a.dsmc_step();
            b.dsmc_step();
        }
        assert_eq!(a.particles.len(), b.particles.len());
        for i in 0..a.particles.len() {
            assert_eq!(a.particles.pos(i), b.particles.pos(i));
        }
    }

    #[test]
    fn a_whole_domain_run_is_the_same_on_one_lane_and_two() {
        // 100× the neutrals of `small_state`, and a pump: the last
        // step moves enough neutrals for two lanes of the move (the
        // golden guards stay below that floor, on one chunk), and walls
        // are hit and particles pumped on the way (the last step hits
        // four or five walls, and at a 20 % survival all of them survive
        // with a chance of 0.2⁴ or less)
        let run = |lanes: usize| {
            let mut cfg = Dataset::D1.config(0.02);
            cfg.seed = 7;
            cfg.weight_h /= 100.0;
            cfg.pump_prob = Some(0.2);
            let mut eng = RankEngine::new(cfg);
            eng.lanes = Pool::new(lanes);
            let recs: Vec<StepRecord> = (0..4).map(|_| eng.dsmc_step()).collect();
            let p = &eng.particles;
            let bits: Vec<u64> = [&p.px, &p.py, &p.pz, &p.vx, &p.vy, &p.vz]
                .iter()
                .flat_map(|lane| lane.iter().map(|x| x.to_bits()))
                .collect();
            let ids = (p.cell.clone(), p.species.clone(), p.id.clone());
            (bits, ids, recs, eng.rng, eng.rng_pump)
        };
        let one = run(1);
        let last = one.2.last().unwrap();
        assert!(
            last.neutral_transitions.len() >= 2 * 4096,
            "test premise: two lanes' worth of moved neutrals, {}",
            last.neutral_transitions.len()
        );
        let (walls, pumped) = (last.wall_hits, last.pumped);
        assert!(walls > 0 && pumped > 0, "walls {walls}, pumped {pumped}");
        assert!(one == run(2), "two lanes moved the particles differently");
    }

    #[test]
    fn counts_per_cell_sum_to_population() {
        let mut st = small_state();
        for _ in 0..4 {
            st.dsmc_step();
        }
        let (n, c) = st.counts_per_cell();
        let total: u64 = n.iter().sum::<u64>() + c.iter().sum::<u64>();
        assert_eq!(total as usize, st.particles.len());
    }
}
