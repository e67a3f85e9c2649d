//! The balancer's frozen inputs: what four modelled runs offered the
//! eq. 7 k-way + Kuhn–Munkres balancer, recorded once as plain text
//! under `tests/fixtures/`, and a replay of `balance::Rebalancer` on
//! them. The replay calls `due` / `hold` / `step` the way
//! `coupled::rebalance::BalanceHook` does, on the mesh's cell graph and
//! from the seed owner map, so a pin on what it decides holds whatever
//! the physics does. Only a change to the mesh, the seed decomposition
//! or the modelled timing a run's `lii` comes from re-records a
//! fixture (`balance_guard::record_frozen_inputs`).
//!
//! A fixture has one `step <lii as f64 bits>` line per DSMC step. A
//! step on which the balancer was due is followed by one
//! `<cell> <neutral> <charged>` line per coarse cell holding a particle.

use balance::{RebalanceConfig, RebalanceOutcome, Rebalancer, WlmParams};
use coupled::world::World;
use coupled::{ClusterSim, MachineProfile, RunConfig};
use std::fmt::Write as _;
use vmpi::Strategy;

/// One recorded modelled run: its fixture and the config
/// `ClusterSim` stepped, whose `rebalance` the replay runs.
pub struct FrozenRun {
    pub name: &'static str,
    pub run: RunConfig,
}

fn canned(name: &str) -> RunConfig {
    coupled::scenario::canned(name)
        .expect("canned scenario lowers")
        .run
}

/// The canned jet on 384 virtual ranks under `Auto`, rebalanced every
/// 2 steps at threshold 0 for 10 steps: the shape of the benchmark's
/// `jet_modelled384`.
pub fn jet_384_every_2() -> FrozenRun {
    let mut run = canned("jet");
    run.ranks = 384;
    run.steps = 10;
    run.strategy = Strategy::Auto;
    run.rebalance = Some(RebalanceConfig {
        t_interval: 2,
        threshold: 0.0,
        ..RebalanceConfig::default()
    });
    FrozenRun {
        name: "jet_384_every_2",
        run,
    }
}

/// The canned jet on 384 virtual ranks, re-decomposed once, at the
/// end of its 12 steps: nothing coarsens there and every part is a
/// handful of cells.
pub fn jet_384_once() -> FrozenRun {
    let mut run = canned("jet");
    run.ranks = 384;
    run.rebalance = Some(RebalanceConfig {
        t_interval: run.steps,
        threshold: 0.0,
        ..RebalanceConfig::default()
    });
    FrozenRun {
        name: "jet_384_once",
        run,
    }
}

/// The guard config under particle-only weights (`W_cell = 0`),
/// checked every 3 steps at threshold 1.2.
pub fn guard_particle_only() -> FrozenRun {
    let run = super::guard_builder()
        .rebalance(Some(RebalanceConfig {
            t_interval: 3,
            threshold: 1.2,
            wlm: WlmParams {
                w_cell: 0,
                ..WlmParams::default()
            },
            ..RebalanceConfig::default()
        }))
        .build()
        .expect("valid guard config");
    FrozenRun {
        name: "guard_particle_only",
        run,
    }
}

/// The canned freestream under the paper weights, checked every 3
/// steps at threshold 1.2.
pub fn freestream_every_3() -> FrozenRun {
    let mut run = canned("freestream");
    run.rebalance = Some(RebalanceConfig {
        t_interval: 3,
        threshold: 1.2,
        ..RebalanceConfig::default()
    });
    FrozenRun {
        name: "freestream_every_3",
        run,
    }
}

pub fn all() -> [FrozenRun; 4] {
    [
        jet_384_every_2(),
        jet_384_once(),
        guard_particle_only(),
        freestream_every_3(),
    ]
}

const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

fn path(name: &str) -> String {
    format!("{DIR}/{name}.txt")
}

/// What one DSMC step offered the balancer: its `lii`, and the global
/// (neutral, charged) counts per coarse cell when it was due.
struct Step {
    lii: f64,
    counts: Option<(Vec<u64>, Vec<u64>)>,
}

fn read(name: &str, cells: usize) -> Vec<Step> {
    let text = std::fs::read_to_string(path(name)).expect("fixture present");
    let mut steps: Vec<Step> = Vec::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        if let Some(bits) = line.strip_prefix("step 0x") {
            let bits = u64::from_str_radix(bits, 16).expect("lii bits");
            steps.push(Step {
                lii: f64::from_bits(bits),
                counts: None,
            });
            continue;
        }
        let words: Vec<u64> = line
            .split(' ')
            .map(|w| w.parse().expect("a count"))
            .collect();
        let [cell, neutral, charged] = words[..] else {
            panic!("{name}: not `<cell> <neutral> <charged>`: {line:?}");
        };
        let step = steps.last_mut().expect("counts follow a step line");
        let (n, c) = step
            .counts
            .get_or_insert_with(|| (vec![0; cells], vec![0; cells]));
        n[cell as usize] = neutral;
        c[cell as usize] = charged;
    }
    steps
}

/// One re-decomposition: the DSMC step it ran on, the owner map it
/// chose ([`owner_hash`]) and the particles it migrated.
#[derive(Debug, PartialEq, Eq)]
pub struct Remap {
    pub step: usize,
    pub owner_hash: u64,
    pub migrated: u64,
}

/// What the balancer decides on `frozen`'s recorded inputs, and the
/// FNV-1a of the recorded `lii` trajectory (which fixes the fixture).
#[derive(Debug, PartialEq, Eq)]
pub struct Replay {
    pub lii_hash: u64,
    pub remaps: Vec<Remap>,
}

/// FNV-1a of an owner map's little-endian ranks.
pub fn owner_hash(owner: &[u32]) -> u64 {
    obs::fnv1a(owner.iter().flat_map(|o| o.to_le_bytes()))
}

/// The balancer of `frozen.run` replayed on its fixture, starting from
/// the seed owner map.
pub fn replay(frozen: &FrozenRun) -> Replay {
    let run = &frozen.run;
    let world = World::build(&run.sim, run.ranks);
    let graph = &world.geometry.graph;
    let steps = read(frozen.name, world.owner0.len());
    assert_eq!(steps.len(), run.steps, "{}: one line per step", frozen.name);
    let mut rebalancer = Rebalancer::new(run.rebalance.expect("the run rebalances"));
    let mut owner = world.owner0.clone();
    let mut remaps = Vec::new();
    for (step, s) in steps.iter().enumerate() {
        if !rebalancer.due(s.lii) {
            rebalancer.hold(s.lii);
            assert!(s.counts.is_none(), "{}: counts on step {step}", frozen.name);
            continue;
        }
        let (neutral, charged) = s.counts.as_ref().expect("counts on a due step");
        let outcome = rebalancer.step(
            s.lii,
            &graph.xadj,
            &graph.adjncy,
            neutral,
            charged,
            &owner,
            run.ranks,
        );
        let RebalanceOutcome::Remapped {
            new_owner,
            migration_volume,
            ..
        } = outcome
        else {
            panic!("{}: a due step must remap, got {outcome:?}", frozen.name);
        };
        owner = new_owner;
        remaps.push(Remap {
            step,
            owner_hash: owner_hash(&owner),
            migrated: migration_volume,
        });
    }
    let lii: Vec<f64> = steps.iter().map(|s| s.lii).collect();
    Replay {
        lii_hash: obs::fnv1a_f64(&lii),
        remaps,
    }
}

/// Steps `frozen.run` on the modelled machine and writes its fixture;
/// returns the owner map the run ended on.
pub fn record(frozen: &FrozenRun) -> Vec<u32> {
    let run = &frozen.run;
    let mut sim = ClusterSim::new(run, MachineProfile::tianhe2());
    let mut text = format!(
        "# {}: balancer inputs of a {}-rank modelled run, {} steps.\n\
         # Re-record: cargo test --test balance_guard -- --ignored record_frozen_inputs\n",
        frozen.name, run.ranks, run.steps
    );
    for _ in 0..run.steps {
        let (trace, _) = sim.step();
        writeln!(text, "step {:#018x}", trace.lii.to_bits()).unwrap();
        if !trace.rebalanced {
            continue;
        }
        // the hook read these at the step's end, after every move
        let (neutral, charged) = sim.state.counts_per_cell();
        for (cell, (n, c)) in neutral.iter().zip(&charged).enumerate() {
            if n + c > 0 {
                writeln!(text, "{cell} {n} {c}").unwrap();
            }
        }
    }
    std::fs::create_dir_all(DIR).expect("fixture directory");
    std::fs::write(path(frozen.name), text).expect("fixture written");
    sim.owner().to_vec()
}
