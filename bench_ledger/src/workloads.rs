//! The six workloads: what each one runs, why it exists, and the
//! inputs generated for it from `--seed`.
//!
//! The program under test only ever sees generated inputs: scenario
//! TOML text (through `coupled::scenario::parse`) and, for the knobs
//! the scenario language does not carry (strategy, rebalance cadence),
//! fields of the lowered `RunConfig`.

use balance::RebalanceConfig;
use coupled::{RunConfig, ScenarioError};
use vmpi::Strategy;

/// Which driver a workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `run_serial` on one whole-domain engine.
    Serial,
    /// `EngineSession` on real rank threads over the `vmpi` wire.
    Threaded,
    /// `ClusterSim` pricing virtual ranks with the α–β cost model.
    Modelled,
    /// `JobServer` serving a closed-loop mix of tiny jobs.
    JobMix,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub driver: Driver,
    /// Scenario template; `{seed}` and `{steps}` are filled in.
    template: &'static str,
    /// DSMC steps of one rep. Sized on the 2-CPU reference host so a
    /// rep takes 1–2 s; lattice, weights and rank counts (which set
    /// the phase mix) are as the issue specifies.
    pub steps: usize,
}

/// Steps of one rep under `--smoke`.
pub const SMOKE_STEPS: usize = 2;
/// Unique configs of the job mix's cold phase, full and smoke.
pub const COLD_JOBS: usize = 200;
pub const SMOKE_COLD_JOBS: usize = 12;
/// Warm phase: the `WARM_HITS` most recently completed cold configs are
/// still in the 32-entry LRU; the `WARM_MISSES` earliest completed were
/// evicted long ago.
pub const WARM_HITS: usize = 24;
pub const WARM_MISSES: usize = 8;
/// Identical copies submitted at once in the coalesce phase.
pub const COALESCE_COPIES: usize = 8;
pub const CACHE_CAPACITY: usize = 32;

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "transport_serial",
        why: "rarefied 280k-particle plume: the neutral tet-walk (DSMC_Move) and Inject take ~90% of the step, so a move/inject/layout change shows here and nowhere else as strongly",
        driver: Driver::Serial,
        template: include_str!("../workloads/transport_serial.toml"),
        steps: 24,
    },
    Workload {
        name: "collide_serial",
        why: "dense cold gas on the same lattice: Colli_React is the largest phase, so a collide/sort/gather change shows here while a move change mostly does not",
        driver: Driver::Serial,
        template: include_str!("../workloads/collide_serial.toml"),
        steps: 12,
    },
    Workload {
        name: "field_serial",
        why: "ion plume on a fine lattice, 4 PIC substeps: Poisson_Solve and PIC_Move take the step and DSMC is below 1%, so a neutral-move change must show nothing",
        driver: Driver::Serial,
        template: include_str!("../workloads/field_serial.toml"),
        steps: 16,
    },
    Workload {
        name: "jet_threaded2",
        why: "dense jet on 2 real rank threads, Distributed exchange, fixed-cadence rebalance: pays the vmpi wire, pack/unpack, waiting and migration that serial runs never see",
        driver: Driver::Threaded,
        template: include_str!("../workloads/jet_threaded2.toml"),
        steps: 12,
    },
    Workload {
        name: "jet_modelled384",
        why: "same jet priced on 384 virtual ranks (Auto strategy, rebalance every 2 steps): wall time is mostly CostModel pricing, traffic mirrors, k-way and Kuhn-Munkres, not physics",
        driver: Driver::Modelled,
        template: include_str!("../workloads/jet_modelled384.toml"),
        steps: 30,
    },
    Workload {
        name: "jobsrv_mix",
        why: "closed loop of 2 clients on a 2-worker JobServer: cold unique jobs write the cache, warm resubmits hit or miss it, 8 copies coalesce, so set-up, queueing and cache dominate",
        driver: Driver::JobMix,
        template: "",
        steps: 12,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The generated scenario TOML of a simulation workload.
    pub fn scenario_text(&self, seed: u64, steps: usize) -> String {
        assert!(
            self.driver != Driver::JobMix,
            "the job mix has many scenarios"
        );
        self.template
            .replace("{seed}", &seed.to_string())
            .replace("{steps}", &steps.to_string())
    }

    /// Parse generated scenario text and set the knobs the scenario
    /// language does not carry. The rebalance threshold is 0 so the
    /// balancer fires on its cadence, not on a timer-dependent lii:
    /// the rebalance count is then the same every run.
    pub fn lower(&self, text: &str) -> Result<RunConfig, ScenarioError> {
        let mut run = coupled::scenario::parse(text)?.run;
        let fixed_cadence = |t_interval| {
            Some(RebalanceConfig {
                t_interval,
                threshold: 0.0,
                ..RebalanceConfig::default()
            })
        };
        match self.driver {
            Driver::Threaded => {
                run.strategy = Strategy::Distributed;
                run.rebalance = fixed_cadence(3);
            }
            Driver::Modelled => {
                run.strategy = Strategy::Auto;
                run.rebalance = fixed_cadence(2);
            }
            Driver::Serial | Driver::JobMix => {}
        }
        Ok(run)
    }
}

/// SplitMix64: the harness's own seeded generator for the job mix, so
/// the mix does not depend on the vendored `rand` under test.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One canned scenario rewritten as a single-rank job with its own
/// `[run] seed`.
pub fn job_text(canned_index: usize, sim_seed: u64) -> String {
    let (_, text) = coupled::scenario::CANNED[canned_index % coupled::scenario::CANNED.len()];
    let mut out = String::with_capacity(text.len() + 16);
    for line in text.lines() {
        let key = line.split('=').next().unwrap_or("").trim();
        match key {
            "seed" => out.push_str(&format!("seed = {sim_seed}")),
            "ranks" => out.push_str("ranks = 1"),
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// The job mix of one rep: `n` scenario texts cycling through the
/// canned scenarios, each with a distinct seeded `sim.seed` (48 bits,
/// so it stays a TOML integer), then one more for the coalesce phase.
pub fn job_mix(seed: u64, n: usize) -> Vec<String> {
    let mut state = seed ^ 0x6A09_E667_F3BC_C908;
    let mut seen = std::collections::BTreeSet::new();
    let mut texts = Vec::with_capacity(n + 1);
    while texts.len() < n + 1 {
        let sim_seed = splitmix64(&mut state) >> 16;
        if seen.insert(sim_seed) {
            texts.push(job_text(texts.len(), sim_seed));
        }
    }
    texts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in WORKLOADS.iter().filter(|w| w.driver != Driver::JobMix) {
            assert_eq!(w.scenario_text(5, w.steps), w.scenario_text(5, w.steps));
            assert!(!w.scenario_text(5, w.steps).contains('{'), "{}", w.name);
        }
        assert_eq!(job_mix(5, 40), job_mix(5, 40));
        assert_ne!(job_mix(5, 40), job_mix(6, 40));
    }

    #[test]
    fn different_seed_gives_different_config_hash() {
        for w in WORKLOADS.iter().filter(|w| w.driver != Driver::JobMix) {
            let a = w.lower(&w.scenario_text(1, w.steps)).unwrap();
            let b = w.lower(&w.scenario_text(2, w.steps)).unwrap();
            assert_eq!(a.sim.seed, 1);
            assert_eq!(a.steps, w.steps);
            assert_ne!(a.config_hash(), b.config_hash(), "{}", w.name);
        }
        let hashes: std::collections::BTreeSet<u64> = job_mix(1, COLD_JOBS)
            .iter()
            .map(|t| coupled::scenario::parse(t).unwrap().run.config_hash())
            .collect();
        assert_eq!(
            hashes.len(),
            COLD_JOBS + 1,
            "every job is its own cache key"
        );
    }

    #[test]
    fn harness_knobs_land_on_the_lowered_config() {
        let t = find("jet_threaded2").unwrap();
        let run = t.lower(&t.scenario_text(1, t.steps)).unwrap();
        assert_eq!((run.ranks, run.strategy), (2, Strategy::Distributed));
        assert_eq!(run.rebalance.unwrap().t_interval, 3);
        let m = find("jet_modelled384").unwrap();
        let run = m.lower(&m.scenario_text(1, m.steps)).unwrap();
        assert_eq!((run.ranks, run.strategy), (384, Strategy::Auto));
        let job = coupled::scenario::parse(&job_text(2, 99)).unwrap().run;
        assert_eq!((job.ranks, job.sim.seed), (1, 99));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert!(names.iter().all(|n| crate::valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WORKLOADS.len());
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
    }
}
