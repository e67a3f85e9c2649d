//! The unified per-rank step pipeline.
//!
//! Every driver in this crate executes the same coupled DSMC/PIC
//! timestep (paper Fig. 1): Inject → DSMC_Move → Exchange →
//! Colli_React → R × (PIC_Move → Exchange → Poisson_Solve) → Reindex
//! → Rebalance. This module defines that sequence **exactly once**:
//!
//! * [`RankEngine`] owns all per-rank simulation state — particle
//!   buffer, RNG stream, (filtered) injector, field solver, exchange
//!   scratch, kernel pool — with one method per physics phase.
//! * [`StepPipeline::run_step`] is the phase sequence. Nothing else
//!   in the crate orders the phases.
//! * [`Backend`] supplies the execution context between the physics
//!   phases: [`SerialBackend`] (single rank, no communication, real
//!   wall clock), the threaded backend in [`crate::threaded`] (real
//!   `vmpi` messaging, measured timing) and the modelled backend in
//!   [`crate::cluster`] (cost-model attribution, no real
//!   communication).
//! * [`obs::Observer`] observes per-phase times, per-exchange
//!   traffic, rebalances and per-step traces; the default
//!   implementation is a no-op, and
//!   [`crate::report::ReportBuilder`] uses it to assemble the shared
//!   [`crate::report::RunReport`].

use crate::config::{ObsConfig, RunConfig, SimConfig};
use crate::report::{ReportBuilder, RunReport, StepTrace};
use crate::world::World;
use dsmc::{
    move_particles_pooled, ChemistryModel, CollisionEvent, CollisionModel, CrossCollisionModel,
    Injector, Pump, ReactStats,
};
use kernels::Pool;
use mesh::NestedMesh;
use obs::{
    Breakdown, ExchangeEvent, NullObserver, Observer, Phase, RebalanceEvent, Recorder, SpanTimer,
    Tee,
};
use particles::{ParticleBuffer, SpeciesTable};
use pic::{accelerate_charged_pooled, deposit_charge_pooled, ElectricField, PoissonSolver};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparse::KrylovOptions;
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
    /// `config.k_sub_dsmc > 1` the neutral move/collide/react phases
    /// draw from this stream instead of `rng`, so changing the
    /// subcycle count never perturbs the PIC draws on `rng`. At
    /// `k_sub_dsmc == 1` it is never consumed and the engine keeps
    /// the legacy single-stream behaviour bit for bit.
    pub rng_dsmc: StdRng,
    /// Dedicated stream for partial-pump wall absorption decisions
    /// (`config.pump_prob`); never consumed when pumping is off.
    pub rng_pump: StdRng,
    /// DSMC iterations completed.
    pub step_count: usize,
    /// Kernel worker pool for the pooled phase kernels (serial pools
    /// delegate to the scalar kernels bit-identically).
    pub pool: Pool,
    /// Exchange scratch (used by communicating backends).
    pub exch: ExchangeScratch,
    events: Vec<CollisionEvent>,
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
    /// drivers): full injector, serial kernel pool, RNG seeded from
    /// `config.seed`.
    pub(crate) fn whole_domain(config: SimConfig, world: &World) -> Self {
        let injector = Some(Injector::new(&world.nm.coarse));
        let seed = config.seed;
        Self::assemble(config, world, injector, seed, Pool::serial())
    }

    /// Build the per-rank engine of a decomposed run: the world's
    /// shared meshes and species table, the inlet cells rank `me` owns
    /// under the seed decomposition, and an independent RNG stream
    /// (`seed + 1 + me`, the paper's per-rank seeding).
    pub(crate) fn for_rank(config: SimConfig, world: &World, me: usize, threads: usize) -> Self {
        let seed = config.seed.wrapping_add(1 + me as u64);
        let mut eng = Self::assemble(config, world, None, seed, Pool::new(threads));
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
        pool: Pool,
    ) -> Self {
        let (nm, species) = (world.nm.clone(), world.species.clone());
        let (h_id, hp_id) = (world.h_id, world.hp_id);
        let collisions = CollisionModel::new(nm.num_coarse(), &species, config.t_inject);
        let poisson = PoissonSolver::new(
            &nm.fine,
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
            step_count: 0,
            pool,
            exch: ExchangeScratch::default(),
            events: Vec::new(),
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

    /// Export the kernel pool's per-worker busy time as
    /// `kernels.rank{rank}.worker{w}.busy_seconds` gauges (the registry
    /// is shared across rank threads, hence the rank-qualified names).
    pub(crate) fn export_pool_busy(&self, obs: &ObsConfig, rank: usize) {
        if let Some(reg) = &obs.metrics {
            for (w, b) in self.pool.busy_seconds().iter().enumerate() {
                reg.gauge(&format!("kernels.rank{rank}.worker{w}.busy_seconds"))
                    .set(*b);
            }
        }
    }

    /// Execute one full DSMC iteration through the unified pipeline
    /// with the serial backend (no communication, full record).
    pub fn dsmc_step(&mut self) -> StepRecord {
        let step = self.step_count;
        let (rec, _, _) =
            StepPipeline::run_step(self, &mut SerialBackend::new(), &mut NullObserver, step);
        rec
    }

    // --- phase methods, called only by `StepPipeline::run_step` -----

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

    /// DSMC_Move: advect the neutrals for one subcycle of `dt`
    /// (`dt_dsmc / k_sub_dsmc`; the full `dt_dsmc` when not
    /// subcycling). Subcycled runs draw from the dedicated
    /// [`RankEngine::rng_dsmc`] stream; the optional partial pump
    /// always decides on [`RankEngine::rng_pump`].
    fn dsmc_move(&mut self, rec: &mut StepRecord, track: bool, dt: f64) {
        let h_id = self.h_id;
        let pump = self.config.pump_prob.map(|prob| Pump {
            prob,
            rng: &mut self.rng_pump,
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
            &self.pool,
            |s| s == h_id,
            track.then_some(&mut rec.neutral_transitions),
            pump,
        );
        rec.exited += stats.exited;
        rec.pumped += stats.pumped;
    }

    /// Colli_React: NTC collisions, optional cross-species pass,
    /// chemistry — over one subcycle of `dt`. Record fields
    /// accumulate so subcycles sum (a single subcycle writes the
    /// identical totals the pre-subcycling assignment did).
    fn colli_react(&mut self, rec: &mut StepRecord, dt: f64) {
        self.events.clear();
        let rng = if self.config.k_sub_dsmc > 1 {
            &mut self.rng_dsmc
        } else {
            &mut self.rng
        };
        let cstats = self.collisions.collide_pooled(
            &self.nm.coarse,
            &mut self.particles,
            &self.species,
            self.h_id,
            dt,
            rng,
            &mut self.events,
            &self.pool,
        );
        rec.collision_candidates += cstats.candidates;
        rec.collisions += cstats.collisions;
        if self.config.cross_collisions {
            let xstats = self.cross.collide(
                &self.nm.coarse,
                &mut self.particles,
                &self.species,
                self.h_id,
                self.hp_id,
                dt,
                rng,
                &mut self.events,
            );
            rec.collision_candidates += xstats.candidates;
            rec.collisions += xstats.mex + xstats.cex;
        }
        let r1 = self.chemistry.react_collisions(
            &mut self.particles,
            &self.species,
            self.h_id,
            self.hp_id,
            &self.events,
            rng,
        );
        let r2 = self.chemistry.recombine(
            &self.nm.coarse,
            &mut self.particles,
            &self.species,
            self.h_id,
            self.hp_id,
            dt,
            rng,
        );
        rec.reactions.dissociations += r1.dissociations + r2.dissociations;
        rec.reactions.recombinations += r1.recombinations + r2.recombinations;
    }

    /// PIC_Move: kick with the *previous* substep's field, then
    /// advect the charged species (paper §III-B: "driven by the
    /// electric field of the previous timestep").
    fn pic_move(&mut self, rec: &mut StepRecord, track: bool) {
        let dt_pic = self.config.dt_pic();
        accelerate_charged_pooled(
            &self.nm,
            &mut self.particles,
            &self.species,
            &self.efield,
            self.config.b_field,
            dt_pic,
            &self.pool,
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
            &self.pool,
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
        let mut node_charge = vec![0.0f64; self.nm.fine.num_nodes()];
        deposit_charge_pooled(
            &self.nm,
            &self.particles,
            &self.species,
            &mut node_charge,
            &self.pool,
        );
        node_charge
    }

    /// Poisson_Solve on the (globally reduced) node charge, then
    /// refresh E.
    fn field_solve(&mut self, node_charge: &[f64], rec: &mut StepRecord) {
        let (phi, stats) = self.poisson.solve_with(node_charge, &self.pool, None);
        self.efield = ElectricField::from_potential(&self.nm.fine, phi);
        rec.poisson_iters.push(stats.iterations);
    }

    /// Reindex: renumber owned particles from this rank's global
    /// offset.
    fn reindex(&mut self, start: u64) {
        self.particles.renumber(start);
    }
}

/// Work quantities of one DSMC iteration, for timing attribution.
#[derive(Debug, Clone, Default)]
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
    /// Particles removed at the boundaries this step.
    pub exited: usize,
    /// Particles absorbed by the partial pump this step (disjoint
    /// from `exited`; always 0 when `pump_prob` is unset).
    pub pumped: usize,
    /// Particle population after the step.
    pub population: usize,
}

/// What a rebalance hook decided this step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepOutcome {
    /// Load-imbalance indicator (paper eq. 6) measured this step.
    pub lii: f64,
    /// Whether the decomposition changed.
    pub rebalanced: bool,
    /// Particles migrated by the re-decomposition.
    pub migrated: u64,
    /// Seconds spent re-decomposing (WLM + partition + KM remap +
    /// migration) — measured for real backends, modelled for the
    /// cluster; 0 when no rebalance happened.
    pub remap_seconds: f64,
    /// Stable name of the cost source that produced the partition
    /// weights (`""` when balancing is off).
    pub cost_source: &'static str,
    /// Stable name of the active decomposition mode.
    pub decomposition: &'static str,
    /// Smoothed per-unit cost rates of the active cost source
    /// (seconds per neutral move / collision pair / charged move);
    /// zeros for analytic sources.
    pub cost_rates: [f64; 3],
}

impl StepOutcome {
    /// `lii` was measured and the decomposition stayed as it was.
    pub(crate) fn measured(lii: f64) -> Self {
        StepOutcome {
            lii,
            ..StepOutcome::default()
        }
    }
}

/// Traffic attribution of one particle exchange, reported by a
/// backend for the exchange it just carried (see
/// [`Backend::take_exchange_info`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ExchangeInfo {
    /// Concrete strategy index ([`vmpi::Strategy::CONCRETE`] order).
    pub strategy: usize,
    /// Messages attributed to the exchange (exact protocol prediction
    /// for the modelled backend; a world-counter delta, best-effort,
    /// for the threaded one).
    pub transactions: u64,
    /// Bytes attributed to the exchange (same provenance).
    pub bytes: u64,
    /// Worst per-rank message count (0 when unknown).
    pub max_rank_msgs: u64,
    /// Ordered node pairs carrying an aggregated trunk frame (Hier
    /// only; 0 for the flat strategies).
    pub node_pairs: u64,
    /// Bytes of the aggregated leader-to-leader frames (Hier only).
    pub aggregated_bytes: u64,
}

/// Communication carried during one step, as attributed by the
/// backend (see [`Backend::step_comm`]). Per-step values telescope:
/// summed over a run they equal the backend's cumulative totals
/// exactly.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepComm {
    /// Messages sent in the world this step.
    pub transactions: u64,
    /// Bytes sent in the world this step.
    pub bytes: u64,
    /// Exchanges carried this step per concrete strategy
    /// ([`vmpi::Strategy::CONCRETE`] order).
    pub strategy_uses: [u64; 4],
}

/// Cumulative backend-side counters a driver folds into its report.
#[derive(Debug, Clone, Copy, Default)]
pub struct BackendStats {
    /// Exchanges carried per concrete strategy
    /// ([`vmpi::Strategy::CONCRETE`] order: CC, DC, Sparse, Hier).
    pub strategy_uses: [u64; 4],
    /// Re-decompositions performed.
    pub rebalances: usize,
    /// Total particles migrated by rebalancing.
    pub rebalance_migrated: u64,
    /// Total messages over all steps (sum of the per-step
    /// [`StepComm::transactions`], so trace sums match exactly).
    pub transactions: u64,
    /// Total bytes over all steps (sum of the per-step
    /// [`StepComm::bytes`]).
    pub bytes: u64,
}

/// Execution context of the pipeline: where time is accounted, how
/// particles and charge move between ranks, and what the Rebalance
/// phase does. The physics phases themselves live on [`RankEngine`]
/// and are identical under every backend.
pub trait Backend {
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

    /// Migrate emigrant particles to their owning ranks (no-op
    /// without real decomposition).
    fn exchange(&mut self, _eng: &mut RankEngine, _phase: Phase, _sub: usize) {}

    /// Traffic attribution of the most recent exchange, if the
    /// backend measured or modelled one. Called by the pipeline right
    /// after each exchange's `lap` (the modelled backend only knows
    /// the traffic once the lap has attributed it); the returned
    /// record is consumed.
    fn take_exchange_info(&mut self) -> Option<ExchangeInfo> {
        None
    }

    /// Communication attributed to the step that just ended; resets
    /// the per-step accumulation. Backends without communication
    /// return zeros.
    fn step_comm(&mut self) -> StepComm {
        StepComm::default()
    }

    /// Sum the node charge across ranks (paper §IV-C reduction);
    /// identity without real decomposition.
    fn reduce_charge(&mut self, _eng: &RankEngine, node_charge: Vec<f64>) -> Vec<f64> {
        node_charge
    }

    /// Global base index for Reindex (exclusive scan of per-rank
    /// populations; 0 without real decomposition).
    fn reindex_base(&mut self, _eng: &RankEngine) -> u64 {
        0
    }

    /// The Rebalance phase: measure the load-imbalance indicator and,
    /// when a rebalancer is armed, possibly re-decompose. A single
    /// rank has nothing to measure.
    fn rebalance(
        &mut self,
        _eng: &mut RankEngine,
        _bd: &Breakdown,
        _rec: &StepRecord,
    ) -> StepOutcome {
        StepOutcome::default()
    }

    /// The step is complete; attribution backends collapse their
    /// per-rank costs into `bd` here.
    fn end_step(&mut self, _eng: &RankEngine, _bd: &mut Breakdown) {}

    /// Fraction of the particle population owned by each rank.
    fn share(&self, eng: &RankEngine) -> Vec<f64>;

    /// Cumulative counters for the run report.
    fn stats(&self) -> BackendStats {
        BackendStats::default()
    }
}

/// The coupled timestep's phase sequence (paper Fig. 1), defined
/// exactly once. Every driver — [`run_serial`], `run_threaded`,
/// `ClusterSim` — iterates this.
pub struct StepPipeline;

impl StepPipeline {
    /// Emit the exchange the backend just attributed (if any) to the
    /// observer.
    fn emit_exchange<B: Backend, O: Observer>(
        be: &mut B,
        observer: &mut O,
        step: usize,
        phase: Phase,
        sub: usize,
    ) {
        if let Some(info) = be.take_exchange_info() {
            observer.exchange(&ExchangeEvent {
                step,
                phase,
                sub,
                strategy: info.strategy,
                transactions: info.transactions,
                bytes: info.bytes,
                max_rank_msgs: info.max_rank_msgs,
                node_pairs: info.node_pairs,
                aggregated_bytes: info.aggregated_bytes,
            });
        }
    }

    /// Execute one coupled DSMC/PIC timestep of `eng` under `be`,
    /// reporting to `observer`. Returns the work record, the step
    /// trace and the per-phase time breakdown.
    pub fn run_step<B: Backend, O: Observer>(
        eng: &mut RankEngine,
        be: &mut B,
        observer: &mut O,
        step_index: usize,
    ) -> (StepRecord, StepTrace, Breakdown) {
        let mut rec = StepRecord::default();
        let mut bd = Breakdown::new();
        let track = be.track();
        be.begin_step(eng);

        // --- Inject --------------------------------------------------
        eng.inject(&mut rec, track);
        be.lap(Phase::Inject, 0, eng, &rec, &mut bd);

        // --- k_sub × (DSMC_Move + DSMC_Exchange + Colli_React) --------
        // One DSMC subcycle at k_sub == 1 reproduces the original
        // unrolled sequence exactly: `dt_dsmc / 1` is bitwise `dt_dsmc`
        // and the subcycle index passed as `sub` is 0, so every
        // existing guard hash is preserved.
        let k_sub = eng.config.k_sub_dsmc;
        let dt_sub = eng.config.dt_dsmc / k_sub as f64;
        for sc in 0..k_sub {
            eng.dsmc_move(&mut rec, track, dt_sub);
            be.lap(Phase::DsmcMove, sc, eng, &rec, &mut bd);
            be.exchange(eng, Phase::DsmcExchange, sc);
            be.lap(Phase::DsmcExchange, sc, eng, &rec, &mut bd);
            Self::emit_exchange(be, observer, step_index, Phase::DsmcExchange, sc);

            eng.colli_react(&mut rec, dt_sub);
            be.lap(Phase::ColliReact, sc, eng, &rec, &mut bd);
        }

        // --- R × (PIC_Move + PIC_Exchange + Poisson_Solve) ------------
        for sub in 0..eng.config.pic_per_dsmc {
            eng.pic_move(&mut rec, track);
            be.lap(Phase::PicMove, sub, eng, &rec, &mut bd);
            be.exchange(eng, Phase::PicExchange, sub);
            be.lap(Phase::PicExchange, sub, eng, &rec, &mut bd);
            Self::emit_exchange(be, observer, step_index, Phase::PicExchange, sub);
            let local = eng.deposit();
            let node_charge = be.reduce_charge(eng, local);
            eng.field_solve(&node_charge, &mut rec);
            be.lap(Phase::PoissonSolve, sub, eng, &rec, &mut bd);
        }

        // --- Reindex --------------------------------------------------
        let base = be.reindex_base(eng);
        eng.reindex(base);
        be.lap(Phase::Reindex, 0, eng, &rec, &mut bd);

        // --- Rebalance (Algorithm 1) ----------------------------------
        let outcome = be.rebalance(eng, &bd, &rec);
        be.lap(Phase::Rebalance, 0, eng, &rec, &mut bd);
        // rebalance migration is also an exchange
        Self::emit_exchange(be, observer, step_index, Phase::Rebalance, 0);
        if outcome.rebalanced {
            observer.rebalance(&RebalanceEvent {
                step: step_index,
                lii: outcome.lii,
                migrated: outcome.migrated,
                remap_seconds: outcome.remap_seconds,
                cost_source: outcome.cost_source,
                decomposition: outcome.decomposition,
                cost_rates: outcome.cost_rates,
            });
        }

        be.end_step(eng, &mut bd);
        eng.step_count += 1;
        rec.population = eng.particles.len();

        let comm = be.step_comm();
        let trace = StepTrace {
            step_time: bd.total(),
            lii: outcome.lii,
            share: be.share(eng),
            rebalanced: outcome.rebalanced,
            transactions: comm.transactions,
            bytes: comm.bytes,
            strategy_uses: comm.strategy_uses,
        };
        for p in Phase::ALL {
            observer.phase(p, bd[p]);
        }
        observer.step(step_index, &trace);
        (rec, trace, bd)
    }
}

/// The run loop of the two whole-domain drivers (`run_serial` and
/// `ClusterSim::run`): `steps` iterations of the pipeline on the one
/// engine owning every cell, observed by a [`ReportBuilder`] and an
/// [`obs::Recorder`] set up from `obs`. The returned report carries
/// the trace, the breakdown, the final and time-averaged diagnostics,
/// the population and the backend's counters. `ranks` labels the
/// trace's metadata record.
pub(crate) fn run_whole_domain<B: Backend>(
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
        let idx = eng.step_count;
        StepPipeline::run_step(eng, be, &mut Tee(&mut builder, &mut rec), idx);
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
    report.fill_backend_stats(&be.stats());
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
    let report = run_whole_domain(&mut eng, &mut SerialBackend::new(), &run.obs, 1, run.steps);
    eng.export_pool_busy(&run.obs, 0);
    report
}

/// The one wall-clock phase-attribution path shared by the serial and
/// threaded backends: a flat [`SpanTimer`] whose gap-free laps are
/// charged to the closing phase, so every lap-filled breakdown sums
/// to exactly the origin-to-last-lap wall time.
#[derive(Debug)]
pub struct WallClock {
    timer: SpanTimer,
}

impl WallClock {
    pub fn start() -> Self {
        WallClock {
            timer: SpanTimer::start(),
        }
    }

    /// Begin a step: discard time since the last lap (inter-step gaps
    /// belong to no phase).
    pub fn begin_step(&mut self) {
        self.timer.lap();
    }

    /// Charge the time since the previous lap to `bd[phase]`.
    pub fn lap(&mut self, bd: &mut Breakdown, phase: Phase) {
        bd[phase] += self.timer.lap();
    }

    /// Seconds since the previous lap, without restarting it.
    pub fn elapsed(&self) -> f64 {
        self.timer.elapsed()
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::start()
    }
}

/// Single-rank backend: no communication, full work record, real
/// wall-clock timing through the shared [`WallClock`].
#[derive(Default)]
pub struct SerialBackend {
    clock: WallClock,
}

impl SerialBackend {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Backend for SerialBackend {
    fn track(&self) -> bool {
        true
    }

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

    fn share(&self, _eng: &RankEngine) -> Vec<f64> {
        vec![1.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Dataset;

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
    fn serial_backend_breakdown_tiles_the_step() {
        let mut eng = small_state();
        let mut be = SerialBackend::new();
        let (_, trace, bd) = StepPipeline::run_step(&mut eng, &mut be, &mut NullObserver, 0);
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
        for step in 0..3 {
            StepPipeline::run_step(&mut eng, &mut be, &mut counting, step);
        }
        assert_eq!(counting.steps, 3);
        assert_eq!(counting.phases, 3 * Phase::ALL.len());
    }

    #[test]
    fn serial_step_comm_is_zero() {
        let mut eng = small_state();
        let mut be = SerialBackend::new();
        let (_, trace, _) = StepPipeline::run_step(&mut eng, &mut be, &mut NullObserver, 0);
        assert_eq!(trace.transactions, 0);
        assert_eq!(trace.bytes, 0);
        assert_eq!(trace.strategy_uses, [0; 4]);
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
