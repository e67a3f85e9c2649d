//! Regression guard for the pluggable balancing pipeline
//! (DESIGN.md §13).
//!
//! The default mode (paper WLM, `W_cell = 1`) is pinned by
//! `engine_guard`; these tests pin the two alternative weightings. The
//! modelled driver is fully deterministic — kernel "timings" are cost
//! model evaluations — so the timer-augmented source and the
//! particle-only weights (`W_cell = 0`) each get a bitwise-pinned lii
//! trajectory.

use balance::{CostSourceKind, RebalanceConfig, RebalanceOutcome, Rebalancer, WlmParams};
use coupled::{run_threaded, ClusterSim, Dataset, MachineProfile, RunConfig};
use obs::{fnv1a, fnv1a_f64};

fn modelled_config(cost_source: CostSourceKind, w_cell: i64) -> RunConfig {
    RunConfig::builder()
        .paper(Dataset::D1, 0.02)
        .ranks(3)
        .seed(4242)
        .steps(12)
        .rebalance(Some(RebalanceConfig {
            t_interval: 3,
            threshold: 1.2,
            cost_source,
            wlm: WlmParams {
                w_cell,
                ..WlmParams::default()
            },
            ..RebalanceConfig::default()
        }))
        .build()
        .expect("valid guard config")
}

/// Modelled run → (lii-trajectory hash, rebalance count, particles
/// migrated by them).
fn modelled_lii(cost_source: CostSourceKind, w_cell: i64) -> (u64, usize, u64) {
    let run = modelled_config(cost_source, w_cell);
    let rep = ClusterSim::new(&run, MachineProfile::tianhe2()).run(12);
    let lii: Vec<f64> = rep.trace.iter().map(|t| t.lii).collect();
    assert_eq!(lii.len(), 12);
    (fnv1a_f64(&lii), rep.rebalances, rep.rebalance_migrated)
}

#[test]
fn timer_augmented_modelled_is_pinned() {
    let (h1, reb1, _) = modelled_lii(CostSourceKind::TimerAugmented, 1);
    let (h2, _, _) = modelled_lii(CostSourceKind::TimerAugmented, 1);
    assert_eq!(h1, h2, "timer-augmented modelled run is nondeterministic");
    assert!(reb1 > 0, "guard config never rebalanced");
    assert_eq!(
        h1, 0x1aa2_463d_b1d6_a8fe,
        "timer-augmented lii trajectory drifted from the pinned baseline"
    );
}

/// Particle-only weights decide what the removed Eulerian/Lagrangian
/// split decided (same rebalances, same migration); the lii
/// trajectory was re-pinned once, because the split also priced a
/// charge halo into the modelled Poisson lap, and once more when the
/// field solve took its coarse-grid correction (fewer CG iterations,
/// no longer grown with the grid, each priced with the correction's
/// allreduce and coarse solve).
#[test]
fn particle_only_weights_modelled_is_pinned() {
    let (h1, reb1, migrated) = modelled_lii(CostSourceKind::PaperWlm, 0);
    let (h2, _, _) = modelled_lii(CostSourceKind::PaperWlm, 0);
    assert_eq!(h1, h2, "W_cell = 0 modelled run is nondeterministic");
    assert_eq!((reb1, migrated), (3, 178), "rebalances / migrated");
    assert_eq!(
        h1, 0x9483_d09d_b5e0_f5a7,
        "W_cell = 0 lii trajectory drifted from the pinned baseline"
    );
}

/// A scenario-lowered config drives the balancer exactly like a
/// hand-built one: the high-imbalance jet scenario under the
/// timer-augmented source on the modelled driver gets its own pinned
/// lii trajectory, and the freestream scenario must rebalance too.
#[test]
fn freestream_scenario_timer_augmented_modelled_is_pinned() {
    let lii_of = |name: &str| {
        let mut run = coupled::scenario::canned(name)
            .expect("canned scenario lowers")
            .run;
        run.rebalance = Some(RebalanceConfig {
            t_interval: 3,
            threshold: 1.2,
            cost_source: CostSourceKind::TimerAugmented,
            ..RebalanceConfig::default()
        });
        let steps = run.steps;
        let rep = ClusterSim::new(&run, MachineProfile::tianhe2()).run(steps);
        let lii: Vec<f64> = rep.trace.iter().map(|t| t.lii).collect();
        assert_eq!(lii.len(), steps);
        (fnv1a_f64(&lii), rep.rebalances)
    };
    let (h1, reb1) = lii_of("freestream");
    let (h2, _) = lii_of("freestream");
    assert_eq!(h1, h2, "scenario modelled run is nondeterministic");
    assert!(reb1 > 0, "freestream scenario never rebalanced");
    assert_eq!(
        h1, 0x76b2_08e2_8d6a_4c4c,
        "freestream timer-augmented lii trajectory drifted from the pinned baseline"
    );
}

/// The timer-augmented source on the threaded driver feeds measured
/// wall-clock kernel times, so its trajectory is not pinnable — but
/// the run must complete, rebalance, and report the mode it ran.
#[test]
fn timer_augmented_threaded_fires_and_completes() {
    let run = RunConfig::builder()
        .paper(Dataset::D1, 0.02)
        .ranks(3)
        .seed(4242)
        .steps(12)
        .rebalance(Some(RebalanceConfig {
            t_interval: 3,
            threshold: 0.0,
            cost_source: CostSourceKind::TimerAugmented,
            ..RebalanceConfig::default()
        }))
        .build()
        .expect("valid guard config");
    let r = run_threaded(&run);
    assert_eq!(r.trace.len(), 12);
    assert!(r.population > 0);
    assert!(r.rebalances > 0, "threshold 0 must trigger the balancer");
}

/// One `Rebalancer::step` — weighted k-way, then the Kuhn–Munkres
/// remap — on the canned jet's per-cell counts at 384 ranks, where
/// nothing coarsens and every part is a handful of cells. Recorded
/// before the partitioner's kernels stopped looping over all `k`
/// parts: a cheaper re-partition must be the same re-partition.
#[test]
fn one_rebalance_of_the_jet_on_384_ranks_is_pinned() {
    let mut run = coupled::scenario::canned("jet")
        .expect("canned scenario lowers")
        .run;
    run.ranks = 384;
    run.rebalance = None;
    let mut sim = ClusterSim::new(&run, MachineProfile::tianhe2());
    for _ in 0..run.steps {
        sim.step();
    }
    let (neutral, charged) = sim.state.counts_per_cell();
    let (xadj, adjncy) = sim.state.nm.coarse.cell_graph();
    let mut rebalancer = Rebalancer::new(RebalanceConfig {
        t_interval: 1,
        threshold: 0.0,
        ..RebalanceConfig::default()
    });
    let outcome = rebalancer.step(9.0, &xadj, &adjncy, &neutral, &charged, sim.owner(), 384);
    let RebalanceOutcome::Remapped {
        new_owner,
        migration_volume,
        ..
    } = outcome
    else {
        panic!("threshold 0 must remap, got {outcome:?}");
    };
    assert_eq!(
        (
            fnv1a(new_owner.iter().flat_map(|o| o.to_le_bytes())),
            migration_volume
        ),
        (0xb555_ed85_eebc_861d, 742),
        "the jet's re-decomposition drifted from the pinned baseline"
    );
}
