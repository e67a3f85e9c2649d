//! Regression guard for the unified step-pipeline engine.
//!
//! The serial/threaded/modelled drivers all execute the one
//! `run_step`; these tests pin their outputs for a fixed seed to
//! the exact values the pre-engine (monolithic) drivers produced, so
//! any refactor that perturbs the phase order, RNG consumption or
//! exchange semantics shows up as a bitwise difference. Every pin that
//! involves collisions was re-pinned once when the NTC and MEX/CEX
//! passes moved to streams keyed per cell (`dsmc::collision_key`;
//! `dsmc::collide::tests::ntc_rate_matches_the_maxwellian_rate` checks
//! the new stream against the analytic rate). The load
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
        0xe1f39b21588a2aeb,
        "threaded density_h no longer bitwise identical to the pinned baseline"
    );
}

/// Every exchange protocol (DESIGN.md §11) must be a pure transport
/// change: CC, Sparse, Auto and Hier (two nodes) each reproduce the
/// plain distributed run bit for bit, at 3 and at 4 ranks. Any RNG
/// draw or particle reorder smuggled into an exchange shows up here.
#[test]
fn hier_matches_distributed_bitwise() {
    use vmpi::Strategy;
    for ranks in [3, 4] {
        let run = |strategy| {
            run_threaded(
                &RunConfig::builder()
                    .paper(Dataset::D1, 0.02)
                    .ranks(ranks)
                    .seed(4242)
                    .steps(12)
                    .rebalance(None)
                    .strategy(strategy)
                    .build()
                    .expect("valid guard config"),
            )
        };
        let dc = run(Strategy::Distributed);
        let dc_index = Strategy::Distributed
            .concrete_index()
            .expect("DC is concrete");
        assert!(
            dc.strategy_uses[dc_index] > 0,
            "DC guard ran the wrong protocol"
        );
        for strategy in [
            Strategy::Centralized,
            Strategy::Sparse,
            Strategy::Auto,
            Strategy::Hier,
        ] {
            let r = run(strategy);
            assert_eq!(
                r.population, dc.population,
                "{strategy:?} at {ranks} ranks: population diverged"
            );
            assert_eq!(
                fnv1a_f64(&r.density_h),
                fnv1a_f64(&dc.density_h),
                "{strategy:?} at {ranks} ranks: density_h is not bitwise identical to DC"
            );
            if let Some(i) = strategy.concrete_index() {
                assert!(
                    r.strategy_uses[i] > 0,
                    "{strategy:?} guard ran the wrong protocol"
                );
            }
        }
    }
}

#[test]
fn serial_density_is_bitwise_pinned() {
    let r = run_serial(&guard_config());
    assert_eq!(r.population, 389, "population drifted");
    assert_eq!(r.density_h.len(), 432);
    assert_eq!(
        fnv1a_f64(&r.density_h),
        0x23d1aa6e79c3c5ed,
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
    // owner map, another density. The per-cell counts are allreduced
    // only on the 4 steps a rebalance is due, not on all 12: each wire
    // total is its earlier pin less 8 allreduces of 4 messages
    // (gather and broadcast over 3 ranks) of 2 × 2,304 cells × 8 B,
    // i.e. 32 messages and 1,179,648 bytes.
    for (w_cell, migrated, population, digest, auto_uses, wires) in [
        (
            1,
            405,
            1332,
            0x47d4_7491_1280_2876,
            [17, 0, 35, 0],
            [(520, 3_584_725), (484, 3_642_151)],
        ),
        (
            0,
            1096,
            1329,
            0xe1e7_8b25_bc5e_6480,
            [23, 0, 29, 0],
            [(520, 3_694_342), (508, 3_742_333)],
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
