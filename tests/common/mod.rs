//! What the root guard suites share: the one guard configuration and
//! its solo serial and threaded runs, computed once per test binary,
//! and the balancer's frozen inputs ([`frozen`]).
//!
//! Only `engine_guard` and `scenario_guard` pin physics. A suite that
//! guards another layer — serving, recovery, observation — asserts
//! that its run is bitwise the solo run of the same config, computed
//! here or in the test, so a physics change re-pins nothing there.

// Every test binary that declares `mod common;` uses part of it.
#![allow(dead_code)]

pub mod frozen;

use coupled::{run_serial, run_threaded, Dataset, RunConfig, RunConfigBuilder, RunReport};
use std::sync::OnceLock;

/// The guard configuration: dataset D1 at 2 % on 3 ranks (DC), seed
/// 4242, 12 steps, no rebalancing — its trigger is measured wall time
/// on the threaded driver, which does not repeat.
pub fn guard_builder() -> RunConfigBuilder {
    RunConfig::builder()
        .paper(Dataset::D1, 0.02)
        .ranks(3)
        .seed(4242)
        .steps(12)
        .rebalance(None)
}

pub fn guard_config() -> RunConfig {
    guard_builder().build().expect("valid guard config")
}

/// `run_serial` of the guard config, run once per test binary.
pub fn serial_baseline() -> &'static RunReport {
    static RUN: OnceLock<RunReport> = OnceLock::new();
    RUN.get_or_init(|| run_serial(&guard_config()))
}

/// `run_threaded` of the guard config, run once per test binary.
pub fn threaded_baseline() -> &'static RunReport {
    static RUN: OnceLock<RunReport> = OnceLock::new();
    RUN.get_or_init(|| run_threaded(&guard_config()))
}

/// Asserts that `run` has bitwise the physics of `solo`: the same
/// population and the same `density_h` bits.
pub fn assert_same_physics(run: &RunReport, solo: &RunReport, what: &str) {
    let bits = |r: &RunReport| r.density_h.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(run.population, solo.population, "{what}: population");
    assert_eq!(bits(run), bits(solo), "{what}: density_h bits");
}
