//! Regression guard for the unified step-pipeline engine.
//!
//! The serial/threaded/modelled drivers all execute the one
//! `run_step`; these tests pin their outputs for a fixed seed to
//! the exact values the pre-engine (monolithic) drivers produced, so
//! any refactor that perturbs the phase order, RNG consumption or
//! exchange semantics shows up as a bitwise difference. The load
//! balancer stays off: its trigger is measured wall time, which is
//! nondeterministic across runs.

use coupled::{
    run_serial, run_threaded, ClusterSim, Dataset, MachineProfile, RunConfig, RunReport,
};
use obs::fnv1a_f64;

fn guard_config() -> RunConfig {
    RunConfig::builder()
        .paper(Dataset::D1, 0.02)
        .ranks(3)
        .seed(4242)
        .steps(12)
        .rebalance(None)
        .build()
        .expect("valid guard config")
}

#[test]
fn threaded_density_is_bitwise_pinned() {
    let r = run_threaded(&guard_config());
    assert_eq!(r.population, 389, "population drifted");
    assert_eq!(r.density_h.len(), 432);
    assert_eq!(
        fnv1a_f64(&r.density_h),
        0x8e483db2789e1ad2,
        "threaded density_h no longer bitwise identical to the pinned baseline"
    );
}

/// The hierarchical exchange (DESIGN.md §11) must be a pure transport
/// change: Hier with node grouping and pooled intra-rank workers has to
/// reproduce the plain distributed run bit for bit. Any RNG draw or
/// particle reorder smuggled into the exchange shows up here.
#[test]
fn hier_matches_distributed_bitwise() {
    use vmpi::Strategy;
    let base = RunConfig::builder()
        .paper(Dataset::D1, 0.02)
        .ranks(4)
        .seed(4242)
        .steps(12)
        .threads_per_rank(2)
        .rebalance(None);
    let dc = run_threaded(
        &base
            .clone()
            .strategy(Strategy::Distributed)
            .build()
            .expect("valid DC guard config"),
    );
    let hier = run_threaded(
        &base
            .strategy(Strategy::Hier)
            .build()
            .expect("valid Hier guard config"),
    );
    assert_eq!(hier.population, dc.population, "population diverged");
    assert_eq!(
        fnv1a_f64(&hier.density_h),
        fnv1a_f64(&dc.density_h),
        "Hier density_h is not bitwise identical to DC"
    );
    let [_, dc_uses, _, _] = dc.strategy_uses;
    let [_, _, _, hier_uses] = hier.strategy_uses;
    assert!(
        dc_uses > 0 && hier_uses > 0,
        "guards ran the wrong protocol"
    );
}

#[test]
fn serial_density_is_bitwise_pinned() {
    let r = run_serial(&guard_config());
    assert_eq!(r.population, 389, "population drifted");
    assert_eq!(r.density_h.len(), 432);
    assert_eq!(
        fnv1a_f64(&r.density_h),
        0x9839330415d13fb3,
        "serial density_h no longer bitwise identical to the pinned baseline"
    );
}

/// The two whole-domain drivers share one run loop: the modelled
/// driver steps the same whole-domain engine as `run_serial`, so the
/// final and time-averaged diagnostics agree bitwise whatever the
/// virtual rank count — only the backend's attribution differs.
#[test]
fn serial_and_modelled_drivers_agree_bitwise_on_the_shared_loop() {
    let mut run = guard_config();
    run.obs.avg_window = 4;
    let serial = run_serial(&run);
    let modelled = ClusterSim::new(&run, MachineProfile::tianhe2()).run(run.steps);
    assert!(!serial.density_h_avg.is_empty() && !serial.phi_avg.is_empty());
    assert_eq!(serial.density_h, modelled.density_h);
    assert_eq!(serial.density_h_avg, modelled.density_h_avg);
    assert_eq!(serial.phi_avg, modelled.phi_avg);
    assert_eq!(serial.population, modelled.population);
    assert_eq!(serial.trace.len(), modelled.trace.len());
}

/// What the balance hook and the report's fold of the step events
/// fill for the *threaded* driver (`tests/model_guard.rs` pins the modelled one): the canned
/// `jet` on 3 rank threads, paper WLM, threshold 0 at a fixed cadence
/// `T = 3` — the trigger never depends on measured wall time, so the
/// run is deterministic. Recorded before the drivers were
/// consolidated behind one hook and one reporting channel.
fn balanced_jet(strategy: vmpi::Strategy, w_cell: i64) -> RunReport {
    let mut run = coupled::scenario::canned("jet")
        .expect("canned scenario lowers")
        .run;
    run.strategy = strategy;
    run.rebalance = Some(balance::RebalanceConfig {
        t_interval: 3,
        threshold: 0.0,
        wlm: balance::WlmParams {
            w_cell,
            ..balance::WlmParams::default()
        },
        ..balance::RebalanceConfig::default()
    });
    let r = run_threaded(&run);
    // the report folds the trace: trace sums are the totals
    let sum = |f: fn(&coupled::StepTrace) -> u64| r.trace.iter().map(f).sum::<u64>();
    assert_eq!(sum(|t| t.transactions), r.transactions);
    assert_eq!(sum(|t| t.bytes), r.bytes);
    for (s, &uses) in r.strategy_uses.iter().enumerate() {
        assert_eq!(
            r.trace.iter().map(|t| t.strategy_uses[s]).sum::<u64>(),
            uses
        );
    }
    let fired: Vec<usize> = (0..r.trace.len())
        .filter(|&i| r.trace[i].rebalanced)
        .collect();
    assert_eq!(fired, [2, 5, 8, 11], "fixed cadence T = 3");
    assert_eq!(r.rebalances, 4);
    r
}

#[test]
fn threaded_balance_and_comm_stats_are_pinned() {
    use vmpi::Strategy::{Auto, Distributed};
    // per `W_cell`: rebalance_migrated, population, density_h digest
    // (the exchange strategy never changes the physics), the
    // strategies `Auto` resolved to and the (transactions, bytes) wire
    // totals of the DC and the Auto run. `W_cell = 0` weighs particles
    // only, so its balancer cuts elsewhere: more migration, another
    // owner map, another density.
    for (w_cell, migrated, population, digest, auto_uses, wires) in [
        (
            1,
            412,
            1332,
            0x3c98_0260_4fb4_f90d,
            [17, 0, 35, 0],
            [(552, 4_765_044), (516, 4_823_141)],
        ),
        (
            0,
            1097,
            1329,
            0x76f5_5484_2f15_b0e9,
            [22, 0, 30, 0],
            [(552, 4_873_807), (536, 4_921_847)],
        ),
    ] {
        let runs = [(Distributed, [0, 52, 0, 0]), (Auto, auto_uses)];
        for ((strategy, uses), wire) in runs.into_iter().zip(wires) {
            let r = balanced_jet(strategy, w_cell);
            let what = format!("{strategy:?}/W_cell={w_cell}");
            assert_eq!(r.rebalance_migrated, migrated, "{what}: migration volume");
            assert_eq!(r.strategy_uses, uses, "{what}: strategy tally");
            assert_eq!(r.population, population, "{what}: population");
            assert_eq!(fnv1a_f64(&r.density_h), digest, "{what}: density_h");
            assert_eq!((r.transactions, r.bytes), wire, "{what}: wire totals");
        }
    }
}
