//! Regression guard for the balancing pipeline (DESIGN.md §13).
//!
//! The default weighting (paper WLM, `W_cell = 1`) is pinned by
//! `engine_guard`; these tests pin the particle-only weights
//! (`W_cell = 0`), a scenario-lowered balancer and one re-partition.
//! The modelled driver is fully deterministic — kernel "timings" are
//! cost model evaluations — so each run gets a bitwise-pinned lii
//! trajectory.

use balance::{RebalanceConfig, RebalanceOutcome, Rebalancer, WlmParams};
use coupled::{ClusterSim, Dataset, MachineProfile, RunConfig};
use obs::{fnv1a, fnv1a_f64};

fn modelled_config(w_cell: i64) -> RunConfig {
    RunConfig::builder()
        .paper(Dataset::D1, 0.02)
        .ranks(3)
        .seed(4242)
        .steps(12)
        .rebalance(Some(RebalanceConfig {
            t_interval: 3,
            threshold: 1.2,
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
fn modelled_lii(w_cell: i64) -> (u64, usize, u64) {
    let run = modelled_config(w_cell);
    let rep = ClusterSim::new(&run, MachineProfile::tianhe2()).run(12);
    let lii: Vec<f64> = rep.trace.iter().map(|t| t.lii).collect();
    assert_eq!(lii.len(), 12);
    (fnv1a_f64(&lii), rep.rebalances, rep.rebalance_migrated)
}

/// Particle-only weights decide what the removed Eulerian/Lagrangian
/// split decided (same rebalances, same migration); the lii
/// trajectory was re-pinned once, because the split also priced a
/// charge halo into the modelled Poisson lap, and once more when the
/// field solve took its coarse-grid correction (fewer CG iterations,
/// no longer grown with the grid, each priced with the correction's
/// allreduce and coarse solve). The rebalances, migration and lii were
/// re-pinned when the collision passes moved to keyed per-cell streams
/// (other collisions, other particle counts per cell), and again when
/// the move keyed each flight's wall draws (other reflections).
#[test]
fn particle_only_weights_modelled_is_pinned() {
    let (h1, reb1, migrated) = modelled_lii(0);
    let (h2, _, _) = modelled_lii(0);
    assert_eq!(h1, h2, "W_cell = 0 modelled run is nondeterministic");
    assert_eq!((reb1, migrated), (3, 195), "rebalances / migrated");
    assert_eq!(
        h1, 0x23fd_d275_a769_57c4,
        "W_cell = 0 lii trajectory drifted from the pinned baseline"
    );
}

/// A scenario-lowered config drives the balancer exactly like a
/// hand-built one: the freestream scenario under the eq. 7 balancer on
/// the modelled driver must rebalance, and gets its own pinned lii
/// trajectory.
#[test]
fn freestream_scenario_balancer_modelled_is_pinned() {
    let lii_of = |name: &str| {
        let mut run = coupled::scenario::canned(name)
            .expect("canned scenario lowers")
            .run;
        run.rebalance = Some(RebalanceConfig {
            t_interval: 3,
            threshold: 1.2,
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
        h1, 0x1808_4daf_4270_c29b,
        "freestream balancer lii trajectory drifted from the pinned baseline"
    );
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
        (0x53cd_e6fa_e984_94e1, 750),
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
