//! Regression guard for the balancing pipeline (DESIGN.md §13): what
//! the eq. 7 k-way + Kuhn–Munkres balancer decides, pinned on frozen
//! inputs (`common::frozen`).
//!
//! Three recorded modelled runs are replayed here: the guard config
//! under particle-only weights (`W_cell = 0`), the freestream scenario
//! under the paper weights, and one re-partition of the jet on 384
//! ranks (`model_guard` replays the fourth, the jet rebalanced every 2
//! steps). Each pins the steps that fired, the owner map each chose
//! and the particles each migrated, plus the FNV-1a of the recorded
//! `lii` trajectory — the value the stepped run's own pin read when
//! the fixture was recorded. The physics never moves these pins: the
//! end-to-end modelled run is pinned once, in `engine_guard`.

mod common;

use balance::RebalanceConfig;
use common::frozen::{self, Remap, Replay};
use coupled::{ClusterSim, MachineProfile};

/// Writes the four fixtures from stepped modelled runs and prints what
/// their replays decide, for re-pinning. A physics change never needs
/// it: only a change to the mesh, the seed decomposition or the
/// modelled timing does.
#[test]
#[ignore = "maintenance helper: re-records tests/fixtures/ and prints the replays"]
fn record_frozen_inputs() {
    for run in frozen::all() {
        let owner = frozen::record(&run);
        let replay = frozen::replay(&run);
        let last = replay.remaps.last().map(|r| r.owner_hash);
        assert_eq!(last, Some(frozen::owner_hash(&owner)), "{}", run.name);
        println!("{}: lii_hash {:#018x}", run.name, replay.lii_hash);
        for r in &replay.remaps {
            println!(
                "    Remap {{ step: {}, owner_hash: {:#018x}, migrated: {} }},",
                r.step, r.owner_hash, r.migrated
            );
        }
    }
}

/// Particle-only weights decide what the removed Eulerian/Lagrangian
/// split decided: 3 rebalances, 195 particles migrated (55 + 54 + 86).
#[test]
fn particle_only_weights_modelled_is_pinned() {
    assert_eq!(
        frozen::replay(&frozen::guard_particle_only()),
        Replay {
            lii_hash: 0x23fd_d275_a769_57c4,
            remaps: vec![
                Remap {
                    step: 2,
                    owner_hash: 0xaef9_ef68_0e55_e604,
                    migrated: 55,
                },
                Remap {
                    step: 5,
                    owner_hash: 0x97a8_392f_1577_8cd5,
                    migrated: 54,
                },
                Remap {
                    step: 8,
                    owner_hash: 0x4f85_5c5a_8484_da05,
                    migrated: 86,
                },
            ],
        },
        "W_cell = 0 decisions drifted from the pinned baseline"
    );
}

/// A scenario-lowered config drives the balancer exactly like a
/// hand-built one: the freestream scenario under the eq. 7 balancer
/// rebalances.
#[test]
fn freestream_scenario_balancer_modelled_is_pinned() {
    assert_eq!(
        frozen::replay(&frozen::freestream_every_3()),
        Replay {
            lii_hash: 0x1808_4daf_4270_c29b,
            remaps: vec![
                Remap {
                    step: 2,
                    owner_hash: 0xb1bd_968e_e500_a914,
                    migrated: 9,
                },
                Remap {
                    step: 5,
                    owner_hash: 0x623c_d3fc_0486_9c77,
                    migrated: 49,
                },
                Remap {
                    step: 8,
                    owner_hash: 0xd87c_cd7b_faea_c9a6,
                    migrated: 25,
                },
                Remap {
                    step: 11,
                    owner_hash: 0x1d4c_dfb5_de22_99e4,
                    migrated: 15,
                },
            ],
        },
        "freestream balancer decisions drifted from the pinned baseline"
    );
}

/// One `Rebalancer::step` — weighted k-way, then the Kuhn–Munkres
/// remap — on the canned jet's per-cell counts at 384 ranks, where
/// nothing coarsens and every part is a handful of cells. Recorded
/// before the partitioner's kernels stopped looping over all `k`
/// parts: a cheaper re-partition must be the same re-partition.
#[test]
fn one_rebalance_of_the_jet_on_384_ranks_is_pinned() {
    let replay = frozen::replay(&frozen::jet_384_once());
    assert_eq!(
        replay.remaps,
        [Remap {
            step: 11,
            owner_hash: 0x53cd_e6fa_e984_94e1,
            migrated: 750,
        }],
        "the jet's re-decomposition drifted from the pinned baseline"
    );
}

/// Every re-decomposition of the jet on 384 modelled ranks (rebalance
/// every 2 steps, as the ledger's `jet_modelled384` runs it) reports
/// its granularity floor, and the floor is a ratio of the heaviest
/// cell to the mean rank: at least 1, at most the rank count. The
/// report carries the largest of them.
#[test]
fn every_rebalance_of_the_jet_on_384_ranks_reports_its_floor() {
    let mem = obs::MemorySink::new();
    let mut run = coupled::scenario::canned("jet")
        .expect("canned scenario lowers")
        .run;
    run.ranks = 384;
    run.rebalance = Some(RebalanceConfig {
        t_interval: 2,
        threshold: 0.0,
        ..RebalanceConfig::default()
    });
    run.obs.trace = obs::TraceSpec::Memory(mem.clone());
    let steps = run.steps;
    let rep = ClusterSim::new(&run, MachineProfile::tianhe2()).run(steps);
    let floors: Vec<f64> = mem
        .events()
        .iter()
        .filter_map(|e| match e {
            obs::TraceEvent::Rebalance(ev) => Some(ev.lii_floor),
            _ => None,
        })
        .collect();
    assert_eq!(floors.len(), rep.rebalances);
    assert!(!floors.is_empty(), "threshold 0 must rebalance");
    assert!(
        floors.iter().all(|f| (1.0..=384.0).contains(f)),
        "{floors:?}"
    );
    let max = floors.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(rep.lii_floor_max.to_bits(), max.to_bits(), "{floors:?}");
}
