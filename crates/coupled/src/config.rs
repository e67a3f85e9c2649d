//! Simulation configuration and the paper's datasets (Table I).
//!
//! Paper-scale runs use up to 2.2M PIC cells and 10⁹ simulation
//! particles on 1536 cores; a single machine cannot hold that, so
//! every dataset carries a `scale` factor (see DESIGN.md §5) that
//! shrinks mesh resolution and particle counts *uniformly across all
//! configurations of an experiment*, preserving relative comparisons.

use balance::RebalanceConfig;
use mesh::NozzleSpec;
use obs::json::{obj, Json};
use obs::{Registry, TraceSpec};
use vmpi::Strategy;

/// Physics and numerics of one simulation.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Nozzle geometry / mesh resolution.
    pub nozzle: NozzleSpec,
    /// Real number density of H at the inlet (1/m³).
    pub density_h: f64,
    /// Real number density of H⁺ at the inlet (1/m³).
    pub density_hplus: f64,
    /// Scaling factor for H (real per simulation particle).
    pub weight_h: f64,
    /// Scaling factor for H⁺.
    pub weight_hplus: f64,
    /// Injection drift speed (m/s); paper: 10 000 m/s.
    pub v_drift: f64,
    /// Injection gas temperature (K).
    pub t_inject: f64,
    /// Wall temperature (K); paper: 300 K.
    pub t_wall: f64,
    /// DSMC timestep (s).
    pub dt_dsmc: f64,
    /// PIC timesteps per DSMC timestep (`R`); paper: 2.
    pub pic_per_dsmc: usize,
    /// Uniform magnetic flux density (T). The paper's electrostatic
    /// default is zero; a constant user-supplied B is also supported
    /// (§III-C) and handled by the Boris rotation.
    pub b_field: mesh::Vec3,
    /// Enable cross-species MEX/CEX collisions between H and H⁺.
    pub cross_collisions: bool,
    /// DSMC subcycles per engine step (`k_sub_dsmc` of the scenario
    /// format): the neutral move/exchange/collide phases run this many
    /// times per step at `dt_dsmc / k_sub_dsmc` each, while the PIC
    /// sub-stepping is unchanged. 1 (the default) routes through the
    /// exact pre-subcycling code path, bit for bit.
    pub k_sub_dsmc: usize,
    /// Partial-pump survival probability at wall hits during the
    /// neutral (DSMC) move: `0 = full pump` (every wall hit absorbs
    /// the particle), `1 = no pump` (every wall hit diffusely
    /// reflects, as without pumping). `None` disables the pump
    /// machinery entirely — the bit-identical legacy path.
    pub pump_prob: Option<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nozzle: NozzleSpec::default(),
            density_h: 7e18,
            density_hplus: 3e8,
            weight_h: 1e12,
            weight_hplus: 6000.0,
            v_drift: 1e4,
            t_inject: 1000.0,
            t_wall: 300.0,
            dt_dsmc: 2e-7,
            pic_per_dsmc: 2,
            b_field: mesh::Vec3::ZERO,
            cross_collisions: false,
            k_sub_dsmc: 1,
            pump_prob: None,
            seed: 42,
        }
    }
}

impl SimConfig {
    /// PIC timestep (s) = `dt_dsmc / pic_per_dsmc`.
    pub fn dt_pic(&self) -> f64 {
        self.dt_dsmc / self.pic_per_dsmc as f64
    }
}

/// One of the paper's six datasets (Table I), possibly scaled down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    D1,
    D2,
    D3,
    D4,
    D5,
    D6,
}

impl Dataset {
    /// Paper Table I: number of PIC cells.
    pub fn paper_pic_cells(self) -> usize {
        match self {
            Dataset::D1 => 55_576,
            Dataset::D2 | Dataset::D3 | Dataset::D4 => 583_386,
            Dataset::D5 | Dataset::D6 => 2_242_948,
        }
    }

    /// Paper Table I: scaling factors (H, H⁺).
    pub fn paper_factors(self) -> (f64, f64) {
        match self {
            Dataset::D1 => (1.000e12, 6000.0),
            Dataset::D2 => (9.940e10, 0.477),
            Dataset::D3 => (9.940e11, 4.77),
            Dataset::D4 => (1.988e11, 0.954),
            Dataset::D5 => (1.400e11, 12_500.0),
            Dataset::D6 => (2.800e11, 25_000.0),
        }
    }

    /// Approximate simulation-particle population the paper runs for
    /// this dataset (H, H⁺) — used to derive scaled-down populations.
    pub fn paper_particles(self) -> (f64, f64) {
        match self {
            Dataset::D1 => (1e7, 5e4),
            Dataset::D2 => (1e9, 1e8),
            Dataset::D3 => (1e8, 1e7),
            Dataset::D4 => (5e8, 5e7),
            Dataset::D5 => (1e9, 1e8),
            Dataset::D6 => (5e8, 5e7),
        }
    }

    /// Base mesh resolution and target steady-state particle
    /// populations `(nd, nz, target_H, target_H+)` at scale 1.0.
    fn base_params(self) -> (usize, usize, f64, f64) {
        match self {
            Dataset::D1 => (8, 16, 40_000.0, 4_000.0),
            Dataset::D2 => (10, 22, 120_000.0, 12_000.0),
            Dataset::D3 => (10, 22, 12_000.0, 1_200.0),
            Dataset::D4 => (10, 22, 60_000.0, 6_000.0),
            Dataset::D5 => (14, 30, 120_000.0, 12_000.0),
            Dataset::D6 => (14, 30, 60_000.0, 6_000.0),
        }
    }

    /// Target simulation-particle populations `(H, H⁺)` at `scale`.
    pub fn targets(self, scale: f64) -> (f64, f64) {
        let (_, _, th, ti) = self.base_params();
        ((th * scale).max(500.0), (ti * scale).max(50.0))
    }

    /// Work-boost factor for the cluster cost model: how many
    /// paper-scale simulation particles each of our simulation
    /// particles stands for. The modelled run executes the real
    /// algorithm on the scaled population and charges `boost ×` the
    /// per-particle work, preserving the measured *distribution* of
    /// work across ranks while restoring the paper-scale ratio of
    /// particle work to grid work (documented in DESIGN.md §5).
    pub fn work_boost(self, scale: f64) -> f64 {
        let (paper_h, _) = self.paper_particles();
        let (target_h, _) = self.targets(scale);
        (paper_h / target_h).max(1.0)
    }

    /// Build a runnable configuration scaled down by `scale`
    /// (1.0 = the largest size we run locally; smaller = cheaper).
    ///
    /// Mesh resolution and target particle populations scale
    /// together; all experiments compare configurations at the *same*
    /// scale, so relative results are preserved.
    pub fn config(self, scale: f64) -> SimConfig {
        assert!(scale > 0.0 && scale <= 1.0);
        let (nd, nz, _, _) = self.base_params();
        let (target_h, target_ion) = self.targets(scale);
        let lin = scale.cbrt();
        let nd = ((nd as f64 * lin).round() as usize).max(4);
        let nz = ((nz as f64 * lin).round() as usize).max(6);

        let nozzle = NozzleSpec {
            nd,
            nz,
            ..NozzleSpec::default()
        };

        // Choose weights so the steady-state population approaches the
        // targets: particles ≈ n · A · v · t_res / w with residence
        // time t_res = L / v.
        let area = std::f64::consts::PI * nozzle.inlet_radius * nozzle.inlet_radius;
        let base = SimConfig::default();
        let flux_h = base.density_h * area * base.v_drift;
        let flux_ion = base.density_hplus.max(1e8) * area * base.v_drift;
        let t_res = nozzle.length / base.v_drift;
        let weight_h = flux_h * t_res / target_h;
        let weight_hplus = (flux_ion * t_res / target_ion).max(1e-6);

        // Timestep sized to a quarter coarse cell per DSMC step: the
        // paper simulates an *unsteady* filling plume whose transit
        // takes hundreds of steps (Fig. 5 still shows ~90% of
        // particles near the inlet at step 200), so the timestep must
        // be small relative to the transit time.
        let dt_dsmc = nozzle.hz() / base.v_drift / 4.0;

        SimConfig {
            nozzle,
            weight_h,
            weight_hplus,
            dt_dsmc,
            ..base
        }
    }
}

/// Observability settings of a run (see the `obs` crate and
/// DESIGN.md §10). The default observes nothing and is bit-identical
/// to an unobserved run: the drivers' physics never reads either
/// field.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Metrics registry the run taps (phase times, exchange traffic,
    /// rebalances, solver and move counters). Keep a clone to read the
    /// snapshot after the run; `None` records no metrics.
    pub metrics: Option<Registry>,
    /// Where the structured trace (one event per step, exchange and
    /// rebalance) goes. [`TraceSpec::Off`] by default.
    pub trace: TraceSpec,
    /// Trailing window (in engine steps) for time-averaged field
    /// diagnostics (`density_h`, `phi`) kept by the serial and
    /// modelled drivers' run loop ([`obs::TimeAverage`]). 0 (the default) disables
    /// sampling entirely; like the rest of `ObsConfig`, the value
    /// never feeds back into the physics.
    pub avg_window: usize,
}

/// What the threaded driver does when a rank dies mid-run (a
/// [`vmpi::CommError`] that ends any rank's step: a scheduled kill, a
/// dead peer, or a receive that timed out on a wedged one).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Tear the world down and surface the failure to the caller
    /// (the default — matches MPI's abort-on-error discipline).
    #[default]
    Abort,
    /// Tear the world down, restore every rank from the last
    /// consistent checkpoint (step 0 if none was taken yet) and replay
    /// to completion. Requires `checkpoint_every > 0` to make forward
    /// progress past the first faulty step; see DESIGN.md §12 for the
    /// bitwise-determinism argument.
    RestartFromCheckpoint,
}

/// A scheduled in-place sleep of one rank at one engine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallEvent {
    /// Which rank stalls.
    pub rank: usize,
    /// At the start of which engine step.
    pub step: usize,
    /// For how long.
    pub millis: u64,
}

/// A scheduled death of one rank at one engine step. A rank dies at
/// most once per session: the recovery replay passes the same step
/// again, and re-killing would loop forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillEvent {
    /// Which rank dies.
    pub rank: usize,
    /// At the start of which engine step.
    pub step: usize,
}

/// The rank failures to inject into a threaded run, by engine step.
/// The rank fires them itself at the top of the step (DESIGN.md §12);
/// the wire is never touched, so a run with a plan sends exactly the
/// clean run's messages.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Scheduled rank stalls.
    pub stalls: Vec<StallEvent>,
    /// Scheduled rank kills.
    pub kills: Vec<KillEvent>,
}

impl FaultPlan {
    /// Stall `rank` for `millis` ms at the start of engine step `step`.
    pub fn stall(mut self, rank: usize, step: usize, millis: u64) -> Self {
        self.stalls.push(StallEvent { rank, step, millis });
        self
    }

    /// Kill `rank` at the start of engine step `step`.
    pub fn kill(mut self, rank: usize, step: usize) -> Self {
        self.kills.push(KillEvent { rank, step });
        self
    }

    /// Parse the compact CLI form `kill=1@5,stall=2@3/50`
    /// (`kill=rank@step`; `stall=rank@step/millis`, 10 ms when the
    /// duration is left out). Unknown or malformed fields are an
    /// error.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for field in spec.split(',').filter(|f| !f.is_empty()) {
            let (key, val) = field
                .split_once('=')
                .ok_or_else(|| format!("fault-plan field without '=': {field:?}"))?;
            let num = |s: &str| -> Result<u64, String> {
                s.parse::<u64>()
                    .map_err(|_| format!("fault-plan: bad number {s:?} in {field:?}"))
            };
            match key {
                "kill" => {
                    let (rank, step) = val
                        .split_once('@')
                        .ok_or_else(|| format!("fault-plan: kill needs rank@step: {field:?}"))?;
                    plan = plan.kill(num(rank)? as usize, num(step)? as usize);
                }
                "stall" => {
                    let (rank, rest) = val.split_once('@').ok_or_else(|| {
                        format!("fault-plan: stall needs rank@step/ms: {field:?}")
                    })?;
                    let (step, ms) = rest.split_once('/').unwrap_or((rest, "10"));
                    plan = plan.stall(num(rank)? as usize, num(step)? as usize, num(ms)?);
                }
                other => return Err(format!("fault-plan: unknown field {other:?}")),
            }
        }
        Ok(plan)
    }
}

/// Why [`RunConfig::validate`] rejected a configuration. Variants that
/// cover several fields carry the offending field's name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `ranks` was 0 — every run needs at least one rank.
    ZeroRanks,
    /// The rebalance cadence (`t_interval`) was 0 — Algorithm 1 checks
    /// at most once per step, so the interval must be >= 1.
    ZeroRebalanceInterval,
    /// The rebalance lii threshold was NaN or negative; `lii >= 1` by
    /// construction, so any finite value >= 0 is accepted.
    InvalidRebalanceThreshold,
    /// A weighted-load-model weight (`rebalance.wlm.w_cell` or
    /// `rebalance.wlm.r`) was negative; eq. 7 adds work, so 0 is the
    /// least a cell or a charged particle can weigh.
    NegativeWlmWeight(&'static str),
    /// `sim.k_sub_dsmc` was 0 — the DSMC phases run at least once per
    /// engine step.
    ZeroDsmcSubcycle,
    /// `sim.pump_prob` was set outside `[0, 1]` (or non-finite); it is
    /// a survival probability.
    InvalidPumpProb,
    /// A length, scaling factor, temperature or timestep (`radius`,
    /// `length`, `inlet_radius`, `weight_h`, `weight_hplus`,
    /// `t_inject`, `t_wall`, `dt_dsmc`) was not a positive finite
    /// number.
    NotPositive(&'static str),
    /// The injection flux would be negative: `density_h`,
    /// `density_hplus` or `v_drift` was below zero (or non-finite).
    NegativeFlux(&'static str),
    /// The nozzle lattice was smaller than `nd = 2` by `nz = 1`.
    DegenerateMesh,
    /// `nozzle.inlet_radius` exceeded `nozzle.radius`.
    InletExceedsRadius,
    /// `sim.pic_per_dsmc` (`R`) was 0 — the PIC phases run at least
    /// once per DSMC step.
    ZeroPicPerDsmc,
    /// `work_boost` was NaN, infinite or below 1 — each simulation
    /// particle stands for at least one paper-scale particle.
    InvalidWorkBoost,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroRanks => write!(f, "ranks must be >= 1"),
            ConfigError::ZeroRebalanceInterval => {
                write!(f, "rebalance t_interval must be >= 1")
            }
            ConfigError::InvalidRebalanceThreshold => {
                write!(f, "rebalance threshold must be finite and >= 0")
            }
            ConfigError::NegativeWlmWeight(field) => write!(f, "{field} must be >= 0"),
            ConfigError::ZeroDsmcSubcycle => {
                write!(f, "k_sub_dsmc must be >= 1")
            }
            ConfigError::InvalidPumpProb => {
                write!(f, "pump_prob must lie in [0, 1]")
            }
            ConfigError::NotPositive(field) => {
                write!(f, "{field} must be a positive finite number")
            }
            ConfigError::NegativeFlux(field) => {
                write!(
                    f,
                    "negative injection flux: {field} must be finite and >= 0"
                )
            }
            ConfigError::DegenerateMesh => {
                write!(f, "the mesh needs nd >= 2 and nz >= 1")
            }
            ConfigError::InletExceedsRadius => {
                write!(f, "inlet_radius must not exceed radius")
            }
            ConfigError::ZeroPicPerDsmc => {
                write!(f, "pic_per_dsmc must be >= 1")
            }
            ConfigError::InvalidWorkBoost => {
                write!(f, "work_boost must be finite and >= 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Complete experiment setup: physics + parallel strategy + balancer.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub sim: SimConfig,
    /// Communication strategy for every particle exchange (DSMC, PIC
    /// and rebalance migration). Concrete strategies (`Centralized`,
    /// `Distributed`, `Sparse`, `Hier`) run as configured; [`Strategy::Auto`]
    /// re-picks among them before each exchange from the
    /// rank-0-reduced migration byte matrix and the machine cost
    /// model. The choice only changes the message schedule — every
    /// strategy delivers identical buffers in identical source order,
    /// so outputs are bitwise independent of this field.
    pub strategy: Strategy,
    /// Dynamic load balancing on/off + parameters (trigger cadence,
    /// lii threshold, eq. 7 weights, KM remap).
    pub rebalance: Option<RebalanceConfig>,
    /// Number of (virtual or threaded) ranks.
    pub ranks: usize,
    /// DSMC steps to run.
    pub steps: usize,
    /// Cost-model particle work boost (see [`Dataset::work_boost`]).
    pub work_boost: f64,
    /// Paper-scale fine (PIC) cell count for the cost model's grid
    /// work (Poisson, partitioner); `None` disables grid boosting.
    pub paper_cells: Option<usize>,
    /// Observability: metrics registry + trace sink selection.
    pub obs: ObsConfig,
    /// Take an in-memory per-rank checkpoint every this many DSMC
    /// steps (0 = never). Checkpoints are only taken at fault-free
    /// step boundaries, so every stored state is a consistent restart
    /// point for [`FaultPolicy::RestartFromCheckpoint`].
    pub checkpoint_every: usize,
    /// Reaction to a detected rank death (see [`FaultPolicy`]).
    pub on_fault: FaultPolicy,
    /// Scheduled rank stalls and kills for the threaded driver, fired
    /// by each rank at the top of a step. `None` schedules nothing.
    pub fault_plan: Option<FaultPlan>,
}

/// Version tag of the canonical config serialization (independent of
/// the report/trace [`obs::SCHEMA_VERSION`]). Bump whenever the set
/// of serialized fields or their encoding changes — the tag is hashed
/// along with the fields, so configs canonicalized under different
/// schema versions can never collide in the result cache.
pub const CONFIG_SCHEMA_VERSION: u32 = 7;

/// Stable lowercase name of an exchange strategy for the canonical
/// serialization (enum `Debug` output is not a schema).
fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Centralized => "centralized",
        Strategy::Distributed => "distributed",
        Strategy::Sparse => "sparse",
        Strategy::Hier => "hier",
        Strategy::Auto => "auto",
    }
}

impl RunConfig {
    /// Validating builder — the preferred way to assemble a run:
    /// `RunConfig::builder().ranks(8).strategy(Strategy::Auto).build()?`.
    pub fn builder() -> RunConfigBuilder {
        RunConfigBuilder::default()
    }

    /// Every range rule a run parameter must satisfy, in one list: the
    /// builder, the scenario reader and the job server all call this
    /// and nothing else, so "valid" means one thing at every door. The
    /// fields are `pub`; call it again after editing a built config.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let sim = &self.sim;
        let nozzle = &sim.nozzle;
        for (field, v) in [
            ("radius", nozzle.radius),
            ("length", nozzle.length),
            ("inlet_radius", nozzle.inlet_radius),
            ("weight_h", sim.weight_h),
            ("weight_hplus", sim.weight_hplus),
            ("t_inject", sim.t_inject),
            ("t_wall", sim.t_wall),
            ("dt_dsmc", sim.dt_dsmc),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(ConfigError::NotPositive(field));
            }
        }
        if nozzle.nd < 2 || nozzle.nz < 1 {
            return Err(ConfigError::DegenerateMesh);
        }
        if nozzle.inlet_radius > nozzle.radius {
            return Err(ConfigError::InletExceedsRadius);
        }
        for (field, v) in [
            ("density_h", sim.density_h),
            ("density_hplus", sim.density_hplus),
            ("v_drift", sim.v_drift),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(ConfigError::NegativeFlux(field));
            }
        }
        if sim.pic_per_dsmc == 0 {
            return Err(ConfigError::ZeroPicPerDsmc);
        }
        if sim.k_sub_dsmc == 0 {
            return Err(ConfigError::ZeroDsmcSubcycle);
        }
        if let Some(p) = sim.pump_prob {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(ConfigError::InvalidPumpProb);
            }
        }
        if self.ranks == 0 {
            return Err(ConfigError::ZeroRanks);
        }
        if !(self.work_boost.is_finite() && self.work_boost >= 1.0) {
            return Err(ConfigError::InvalidWorkBoost);
        }
        if let Some(rb) = &self.rebalance {
            if rb.t_interval == 0 {
                return Err(ConfigError::ZeroRebalanceInterval);
            }
            if !rb.threshold.is_finite() || rb.threshold < 0.0 {
                return Err(ConfigError::InvalidRebalanceThreshold);
            }
            for (field, v) in [
                ("rebalance.wlm.w_cell", rb.wlm.w_cell),
                ("rebalance.wlm.r", rb.wlm.r),
            ] {
                if v < 0 {
                    return Err(ConfigError::NegativeWlmWeight(field));
                }
            }
        }
        Ok(())
    }

    /// The canonical serialization of this configuration: every field
    /// that can influence the run's *output* (physics, seeds, parallel
    /// shape, exchange strategy, balancing, fault plan and recovery
    /// settings), tagged with [`CONFIG_SCHEMA_VERSION`] and with
    /// object keys sorted at every level, so the serialized text — and
    /// hence [`RunConfig::config_hash`] — is independent of field
    /// declaration order.
    ///
    /// The [`ObsConfig`] is deliberately **excluded**: observability
    /// is bitwise-neutral by contract (the obs guard suite pins
    /// observed runs to unobserved hashes), so two runs differing only
    /// in metrics/trace wiring are the same cache entry.
    pub fn canonical_json(&self) -> Json {
        let sim = &self.sim;
        let nozzle = obj(vec![
            ("radius", Json::Num(sim.nozzle.radius)),
            ("length", Json::Num(sim.nozzle.length)),
            ("inlet_radius", Json::Num(sim.nozzle.inlet_radius)),
            ("nd", Json::U64(sim.nozzle.nd as u64)),
            ("nz", Json::U64(sim.nozzle.nz as u64)),
        ]);
        let sim_json = obj(vec![
            ("nozzle", nozzle),
            ("density_h", Json::Num(sim.density_h)),
            ("density_hplus", Json::Num(sim.density_hplus)),
            ("weight_h", Json::Num(sim.weight_h)),
            ("weight_hplus", Json::Num(sim.weight_hplus)),
            ("v_drift", Json::Num(sim.v_drift)),
            ("t_inject", Json::Num(sim.t_inject)),
            ("t_wall", Json::Num(sim.t_wall)),
            ("dt_dsmc", Json::Num(sim.dt_dsmc)),
            ("pic_per_dsmc", Json::U64(sim.pic_per_dsmc as u64)),
            (
                "b_field",
                obj(vec![
                    ("x", Json::Num(sim.b_field.x)),
                    ("y", Json::Num(sim.b_field.y)),
                    ("z", Json::Num(sim.b_field.z)),
                ]),
            ),
            ("cross_collisions", Json::Bool(sim.cross_collisions)),
            ("k_sub_dsmc", Json::U64(sim.k_sub_dsmc as u64)),
            ("pump_prob", sim.pump_prob.map_or(Json::Null, Json::Num)),
            ("seed", Json::U64(sim.seed)),
        ]);
        let rebalance = match &self.rebalance {
            None => Json::Null,
            Some(rb) => obj(vec![
                ("t_interval", Json::U64(rb.t_interval as u64)),
                ("threshold", Json::Num(rb.threshold)),
                (
                    "wlm",
                    obj(vec![
                        ("r", Json::Num(rb.wlm.r as f64)),
                        ("w_cell", Json::Num(rb.wlm.w_cell as f64)),
                    ]),
                ),
                ("use_km", Json::Bool(rb.use_km)),
            ]),
        };
        let fault_plan = match &self.fault_plan {
            None => Json::Null,
            Some(plan) => obj(vec![
                (
                    "stalls",
                    Json::Arr(
                        plan.stalls
                            .iter()
                            .map(|s| {
                                obj(vec![
                                    ("rank", Json::U64(s.rank as u64)),
                                    ("step", Json::U64(s.step as u64)),
                                    ("millis", Json::U64(s.millis)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                (
                    "kills",
                    Json::Arr(
                        plan.kills
                            .iter()
                            .map(|k| {
                                obj(vec![
                                    ("rank", Json::U64(k.rank as u64)),
                                    ("step", Json::U64(k.step as u64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        };
        let doc = obj(vec![
            ("config_schema", Json::U64(CONFIG_SCHEMA_VERSION as u64)),
            ("sim", sim_json),
            (
                "strategy",
                Json::Str(strategy_name(self.strategy).to_string()),
            ),
            ("rebalance", rebalance),
            ("ranks", Json::U64(self.ranks as u64)),
            ("steps", Json::U64(self.steps as u64)),
            ("work_boost", Json::Num(self.work_boost)),
            (
                "paper_cells",
                self.paper_cells.map_or(Json::Null, |c| Json::U64(c as u64)),
            ),
            ("checkpoint_every", Json::U64(self.checkpoint_every as u64)),
            (
                "on_fault",
                Json::Str(
                    match self.on_fault {
                        FaultPolicy::Abort => "abort",
                        FaultPolicy::RestartFromCheckpoint => "restart_from_checkpoint",
                    }
                    .to_string(),
                ),
            ),
            ("fault_plan", fault_plan),
        ]);
        obs::json::canonicalize(&doc)
    }

    /// [`RunConfig::canonical_json`] rendered to its one canonical
    /// string — what [`RunConfig::config_hash`] hashes, and a stable
    /// line users can log next to a served report.
    pub fn canonical_string(&self) -> String {
        self.canonical_json().to_string()
    }

    /// Order-independent, version-tagged 64-bit digest of the
    /// canonical serialization (FNV-1a over
    /// [`RunConfig::canonical_string`]). Two configs hash equal iff
    /// they would produce bitwise-identical runs' inputs — the result
    /// cache in `jobsrv` keys on exactly this value, which is sound
    /// because the engine is deterministic for a fixed config.
    pub fn config_hash(&self) -> u64 {
        obs::fnv1a(self.canonical_string().bytes())
    }

    /// [`RunConfig::config_hash`] as the 16-digit hex string used in
    /// report JSON and logs.
    pub fn config_hash_hex(&self) -> String {
        format!("{:016x}", self.config_hash())
    }
}

/// Builder for [`RunConfig`]; [`build`] runs [`RunConfig::validate`].
///
/// Defaults: [`SimConfig::default`] physics, Distributed strategy,
/// rebalancing on with default parameters, 1 rank, 100 steps, no cost
/// boosts, no observability.
///
/// [`build`]: RunConfigBuilder::build
#[derive(Debug, Clone)]
pub struct RunConfigBuilder {
    run: RunConfig,
}

impl Default for RunConfigBuilder {
    fn default() -> Self {
        RunConfigBuilder {
            run: RunConfig {
                sim: SimConfig::default(),
                strategy: Strategy::Distributed,
                rebalance: Some(RebalanceConfig::default()),
                ranks: 1,
                steps: 100,
                work_boost: 1.0,
                paper_cells: None,
                obs: ObsConfig::default(),
                checkpoint_every: 0,
                on_fault: FaultPolicy::default(),
                fault_plan: None,
            },
        }
    }
}

impl RunConfigBuilder {
    /// Set the physics/numerics configuration wholesale.
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.run.sim = sim;
        self
    }

    /// Use `dataset` scaled by `scale`, with the matching cost-model
    /// work boost and paper-scale cell count (the standard experiment
    /// setup).
    pub fn paper(mut self, dataset: Dataset, scale: f64) -> Self {
        self.run.sim = dataset.config(scale);
        self.run.work_boost = dataset.work_boost(scale);
        self.run.paper_cells = Some(dataset.paper_pic_cells());
        self
    }

    /// RNG seed (convenience for `sim.seed`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.run.sim.seed = seed;
        self
    }

    /// Exchange strategy for every particle migration.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.run.strategy = strategy;
        self
    }

    /// Dynamic load balancing settings (`None` disables).
    pub fn rebalance(mut self, rebalance: Option<RebalanceConfig>) -> Self {
        self.run.rebalance = rebalance;
        self
    }

    /// Number of (virtual or threaded) ranks. Must be >= 1.
    pub fn ranks(mut self, ranks: usize) -> Self {
        self.run.ranks = ranks;
        self
    }

    /// DSMC steps to run.
    pub fn steps(mut self, steps: usize) -> Self {
        self.run.steps = steps;
        self
    }

    /// Tap this metrics registry during the run.
    pub fn metrics(mut self, registry: Registry) -> Self {
        self.run.obs.metrics = Some(registry);
        self
    }

    /// Send the structured trace to this sink specification.
    pub fn trace(mut self, trace: TraceSpec) -> Self {
        self.run.obs.trace = trace;
        self
    }

    /// Keep trailing time-averaged field diagnostics over this many
    /// engine steps (0 = off, the default).
    pub fn avg_window(mut self, window: usize) -> Self {
        self.run.obs.avg_window = window;
        self
    }

    /// In-memory per-rank checkpoint cadence in DSMC steps (0 = off).
    pub fn checkpoint_every(mut self, steps: usize) -> Self {
        self.run.checkpoint_every = steps;
        self
    }

    /// Reaction to a detected rank death (see [`FaultPolicy`]).
    pub fn on_fault(mut self, policy: FaultPolicy) -> Self {
        self.run.on_fault = policy;
        self
    }

    /// Schedule these rank stalls and kills (threaded driver only;
    /// `None` = none).
    pub fn fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.run.fault_plan = plan;
        self
    }

    /// [`RunConfig::validate`], then hand over the [`RunConfig`].
    pub fn build(self) -> Result<RunConfig, ConfigError> {
        self.run.validate()?;
        Ok(self.run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table1_reproduced() {
        assert_eq!(Dataset::D1.paper_pic_cells(), 55_576);
        assert_eq!(Dataset::D5.paper_pic_cells(), 2_242_948);
        let (h, ion) = Dataset::D2.paper_factors();
        assert_eq!(h, 9.94e10);
        assert_eq!(ion, 0.477);
    }

    #[test]
    fn scaled_configs_shrink_with_scale() {
        let big = Dataset::D2.config(1.0);
        let small = Dataset::D2.config(0.1);
        assert!(small.nozzle.nd <= big.nozzle.nd);
        assert!(
            small.weight_h > big.weight_h,
            "fewer particles = larger weight"
        );
    }

    #[test]
    fn dataset5_has_bigger_grid_than_dataset2() {
        let d2 = Dataset::D2.config(1.0);
        let d5 = Dataset::D5.config(1.0);
        assert!(d5.nozzle.nd > d2.nozzle.nd);
    }

    #[test]
    fn d3_has_fewer_particles_than_d2() {
        // paper: dataset 3 = dataset 2 grid with 10x fewer particles
        let d2 = Dataset::D2.config(0.5);
        let d3 = Dataset::D3.config(0.5);
        assert_eq!(d2.nozzle.nd, d3.nozzle.nd);
        assert!(d3.weight_h > d2.weight_h * 5.0);
    }

    #[test]
    fn pic_timestep_half_of_dsmc_at_r2() {
        let c = SimConfig::default();
        assert_eq!(c.pic_per_dsmc, 2);
        assert!((c.dt_pic() - c.dt_dsmc / 2.0).abs() < 1e-20);
    }

    #[test]
    fn builder_validates_and_applies_the_paper_setup() {
        let built = RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(3)
            .strategy(Strategy::Auto)
            .steps(12)
            .build()
            .unwrap();
        assert_eq!(built.work_boost, Dataset::D1.work_boost(0.02));
        assert_eq!(built.paper_cells, Some(Dataset::D1.paper_pic_cells()));
        assert_eq!(built.ranks, 3);
        assert_eq!(built.strategy, Strategy::Auto);
        assert_eq!(built.steps, 12);
        assert!(built.obs.metrics.is_none());
        assert!(built.obs.trace.is_off());
        // a boost below 1 would run like 1 under another config hash
        for bad in [f64::NAN, 0.0, -2.0, 0.5, f64::INFINITY] {
            let mut run = built.clone();
            run.work_boost = bad;
            assert_eq!(
                run.validate().unwrap_err(),
                ConfigError::InvalidWorkBoost,
                "work_boost {bad} must be rejected"
            );
        }
        assert!(ConfigError::InvalidWorkBoost
            .to_string()
            .contains("work_boost"));
    }

    #[test]
    fn builder_rejects_zero_ranks() {
        assert_eq!(
            RunConfig::builder().ranks(0).build().unwrap_err(),
            ConfigError::ZeroRanks
        );
        assert!(ConfigError::ZeroRanks.to_string().contains("ranks"));
    }

    #[test]
    fn builder_carries_fault_and_recovery_settings() {
        let run = RunConfig::builder()
            .checkpoint_every(4)
            .on_fault(FaultPolicy::RestartFromCheckpoint)
            .fault_plan(Some(FaultPlan::default().kill(1, 3)))
            .build()
            .unwrap();
        assert_eq!(run.checkpoint_every, 4);
        assert_eq!(run.on_fault, FaultPolicy::RestartFromCheckpoint);
        assert!(run.fault_plan.is_some());
        // defaults: no checkpoints, abort on fault, no scheduled fault
        let plain = RunConfig::builder().build().unwrap();
        assert_eq!(plain.checkpoint_every, 0);
        assert_eq!(plain.on_fault, FaultPolicy::Abort);
        assert!(plain.fault_plan.is_none());
    }

    #[test]
    fn fault_plan_parses_kills_and_stalls_only() {
        let plan = FaultPlan::parse("kill=1@5,stall=2@3/50,stall=0@1").unwrap();
        assert_eq!(plan.kills, vec![KillEvent { rank: 1, step: 5 }]);
        assert_eq!(
            plan.stalls,
            vec![
                StallEvent {
                    rank: 2,
                    step: 3,
                    millis: 50
                },
                StallEvent {
                    rank: 0,
                    step: 1,
                    millis: 10
                }
            ]
        );
        // the transport is reliable: no message fault is in the grammar
        for gone in ["seed=7", "drop=30", "dup=20", "delay=25/4"] {
            let err = FaultPlan::parse(gone).unwrap_err();
            assert!(err.contains("unknown field"), "{gone}: {err}");
        }
        assert!(FaultPlan::parse("kill=x@1").is_err());
        assert!(FaultPlan::parse("kill=3").is_err());
        assert!(FaultPlan::parse("stall").is_err());
    }

    /// The default balancer with one trigger value replaced.
    fn trigger(t_interval: usize, threshold: f64) -> Option<RebalanceConfig> {
        Some(RebalanceConfig {
            t_interval,
            threshold,
            ..RebalanceConfig::default()
        })
    }

    #[test]
    fn builder_validates_rebalance_trigger() {
        assert_eq!(
            RunConfig::builder()
                .rebalance(trigger(0, 2.0))
                .build()
                .unwrap_err(),
            ConfigError::ZeroRebalanceInterval
        );
        for bad in [f64::NAN, -1.0, f64::INFINITY] {
            assert_eq!(
                RunConfig::builder()
                    .rebalance(trigger(20, bad))
                    .build()
                    .unwrap_err(),
                ConfigError::InvalidRebalanceThreshold,
                "threshold {bad} must be rejected"
            );
        }
        assert!(ConfigError::ZeroRebalanceInterval
            .to_string()
            .contains("t_interval"));
        assert!(ConfigError::InvalidRebalanceThreshold
            .to_string()
            .contains("threshold"));
        // a zeroed trigger is fine when balancing is off entirely
        let off = RunConfig::builder()
            .rebalance(trigger(0, f64::NAN))
            .rebalance(None)
            .build();
        assert!(off.is_ok());
        assert!(RunConfig::builder()
            .rebalance(trigger(0, f64::NAN))
            .build()
            .is_err());
    }

    #[test]
    fn builder_rejects_negative_wlm_weights() {
        let weighted = |w_cell: i64, r: i64| {
            RunConfig::builder()
                .rebalance(Some(RebalanceConfig {
                    wlm: balance::WlmParams { r, w_cell },
                    ..RebalanceConfig::default()
                }))
                .build()
        };
        assert_eq!(
            weighted(-1, 2).unwrap_err(),
            ConfigError::NegativeWlmWeight("rebalance.wlm.w_cell")
        );
        assert_eq!(
            weighted(1, -1).unwrap_err(),
            ConfigError::NegativeWlmWeight("rebalance.wlm.r")
        );
        assert!(ConfigError::NegativeWlmWeight("rebalance.wlm.r")
            .to_string()
            .contains("wlm.r"));
        // zero weights are legal: w_cell = 0 weighs particles only
        assert!(weighted(0, 0).is_ok());
        // like the trigger rules, checked only when balancing is on
        let mut run = weighted(0, 0).unwrap();
        run.rebalance.as_mut().unwrap().wlm.w_cell = -1;
        assert!(run.validate().is_err());
        run.rebalance = None;
        assert!(run.validate().is_ok());
    }

    #[test]
    fn builder_carries_rebalance_trigger_and_modes() {
        let run = RunConfig::builder()
            .rebalance(trigger(5, 1.3))
            .build()
            .unwrap();
        let rb = run.rebalance.expect("balancing enabled");
        assert_eq!(rb.t_interval, 5);
        assert_eq!(rb.threshold, 1.3);
        // defaults: paper wlm, paper trigger values
        let plain = RunConfig::builder().build().unwrap();
        let prb = plain.rebalance.unwrap();
        assert_eq!(prb.t_interval, 20);
        assert_eq!(prb.threshold, 2.0);
    }

    #[test]
    fn builder_carries_observability() {
        let reg = Registry::new();
        let run = RunConfig::builder()
            .metrics(reg.clone())
            .trace(TraceSpec::Memory(obs::MemorySink::new()))
            .build()
            .unwrap();
        assert!(run.obs.metrics.is_some());
        assert!(!run.obs.trace.is_off());
        // RunConfig stays Clone with observability attached
        let _copy = run.clone();
    }

    #[test]
    fn canonical_string_roundtrips_and_is_canonical() {
        let run = RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(3)
            .seed(4242)
            .steps(12)
            .fault_plan(Some(FaultPlan::default().stall(1, 4, 5).kill(2, 6)))
            .on_fault(FaultPolicy::RestartFromCheckpoint)
            .build()
            .unwrap();
        let s = run.canonical_string();
        // Parse → canonicalize → re-render reproduces the exact string:
        // the serialization is already in canonical form.
        let parsed = obs::json::parse(&s).unwrap();
        assert_eq!(obs::json::canonicalize(&parsed).to_string(), s);
        // Version tag and the excluded obs field.
        assert_eq!(
            parsed.get("config_schema").unwrap().as_u64(),
            Some(CONFIG_SCHEMA_VERSION as u64)
        );
        assert!(parsed.get("obs").is_none());
        // Keys at the top level are sorted, so field declaration order
        // in the struct can never leak into the hash.
        if let obs::json::Json::Obj(members) = &parsed {
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            let mut sorted = keys.clone();
            sorted.sort_unstable();
            assert_eq!(keys, sorted);
        } else {
            panic!("canonical form must be an object");
        }
    }

    #[test]
    fn config_hash_tracks_semantic_fields_only() {
        let base = || {
            RunConfig::builder()
                .paper(Dataset::D1, 0.02)
                .ranks(3)
                .seed(4242)
                .steps(12)
        };
        let a = base().build().unwrap();
        let b = base().build().unwrap();
        assert_eq!(a.config_hash(), b.config_hash());
        assert_eq!(a.config_hash_hex(), format!("{:016x}", a.config_hash()));
        // Observability is bitwise-neutral and excluded from the hash.
        let observed = base()
            .metrics(Registry::new())
            .trace(TraceSpec::Memory(obs::MemorySink::new()))
            .build()
            .unwrap();
        assert_eq!(observed.config_hash(), a.config_hash());
        // Every semantic knob moves the hash.
        let seeded = base().seed(4243).build().unwrap();
        assert_ne!(seeded.config_hash(), a.config_hash());
        let wider = base().ranks(4).build().unwrap();
        assert_ne!(wider.config_hash(), a.config_hash());
        let strat = base().strategy(Strategy::Sparse).build().unwrap();
        assert_ne!(strat.config_hash(), a.config_hash());
        let faulted = base()
            .fault_plan(Some(FaultPlan::default().kill(0, 2)))
            .build()
            .unwrap();
        assert_ne!(faulted.config_hash(), a.config_hash());
    }

    /// The default physics with the two scenario-format knobs set.
    fn knobs(k_sub_dsmc: usize, pump_prob: Option<f64>) -> SimConfig {
        SimConfig {
            k_sub_dsmc,
            pump_prob,
            ..SimConfig::default()
        }
    }

    #[test]
    fn builder_validates_subcycling_and_pump() {
        let build = |sim: SimConfig| RunConfig::builder().sim(sim).build();
        assert_eq!(
            build(knobs(0, None)).unwrap_err(),
            ConfigError::ZeroDsmcSubcycle
        );
        for bad in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            assert_eq!(
                build(knobs(1, Some(bad))).unwrap_err(),
                ConfigError::InvalidPumpProb,
                "pump_prob {bad} must be rejected"
            );
        }
        let run = build(knobs(3, Some(0.25))).unwrap();
        assert_eq!(run.sim.k_sub_dsmc, 3);
        assert_eq!(run.sim.pump_prob, Some(0.25));
        // defaults: single subcycle, pump machinery absent
        let plain = RunConfig::builder().build().unwrap();
        assert_eq!(plain.sim.k_sub_dsmc, 1);
        assert!(plain.sim.pump_prob.is_none());
        assert!(ConfigError::ZeroDsmcSubcycle
            .to_string()
            .contains("k_sub_dsmc"));
        assert!(ConfigError::InvalidPumpProb.to_string().contains("pump"));
        // both knobs move the canonical hash
        assert_ne!(
            build(knobs(2, None)).unwrap().config_hash(),
            plain.config_hash()
        );
        assert_ne!(
            build(knobs(1, Some(1.0))).unwrap().config_hash(),
            plain.config_hash()
        );
    }

    #[test]
    fn config_hash_is_pinned_across_releases() {
        // The cache key of the engine-guard config. If this moves, the
        // canonical serialization changed: bump CONFIG_SCHEMA_VERSION
        // and re-pin deliberately — silent drift would split result
        // caches across builds.
        let run = RunConfig::builder()
            .paper(Dataset::D1, 0.02)
            .ranks(3)
            .seed(4242)
            .steps(12)
            .rebalance(None)
            .build()
            .unwrap();
        assert_eq!(run.config_hash_hex(), run.config_hash_hex());
        assert_eq!(run.config_hash(), PINNED_GUARD_CONFIG_HASH);
    }

    /// Pinned canonical hash of the guard config (see
    /// `config_hash_is_pinned_across_releases`). Re-pinned with
    /// CONFIG_SCHEMA_VERSION 7 (the fault plan's canonical form kept
    /// only its kills and stalls).
    const PINNED_GUARD_CONFIG_HASH: u64 = 0x35e4_e716_b5a6_d156;
}
