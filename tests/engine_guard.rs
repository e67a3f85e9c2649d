//! Regression guard for the unified step-pipeline engine.
//!
//! The serial/threaded/modelled drivers all execute the one
//! `StepPipeline`; these tests pin their outputs for a fixed seed to
//! the exact values the pre-engine (monolithic) drivers produced, so
//! any refactor that perturbs the phase order, RNG consumption or
//! exchange semantics shows up as a bitwise difference. The load
//! balancer stays off: its trigger is measured wall time, which is
//! nondeterministic across runs.

use coupled::{run_serial, run_threaded, ClusterSim, Dataset, MachineProfile, RunConfig};

/// FNV-1a over the little-endian bytes of the density field.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

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
        fnv1a(&r.density_h),
        0x8e483db2789e1ad2,
        "threaded density_h no longer bitwise identical to the pinned baseline"
    );
}

/// The overlapped hierarchical exchange (DESIGN.md §14) must be a pure
/// transport change: Hier with node grouping, RNG-free overlap enabled
/// and pooled intra-rank workers has to reproduce the plain distributed
/// run bit for bit. Any RNG draw or particle reorder smuggled into the
/// overlap window shows up here.
#[test]
fn hier_overlapped_matches_distributed_bitwise() {
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
            .ranks_per_node(2)
            .overlap(true)
            .build()
            .expect("valid Hier guard config"),
    );
    assert_eq!(hier.population, dc.population, "population diverged");
    assert_eq!(
        fnv1a(&hier.density_h),
        fnv1a(&dc.density_h),
        "overlapped Hier density_h is not bitwise identical to DC"
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
        fnv1a(&r.density_h),
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
