//! Regression guard for the scenario subsystem (DESIGN.md §15).
//!
//! Five properties are pinned:
//!
//! 1. Each canned scenario (`scenarios/*.toml`) lowers and runs to a
//!    bitwise-pinned end-of-run `density_h`, serial and 3-rank
//!    threaded. Any drift in the TOML parser, the lowering, the
//!    subcycled DSMC phase or the partial-pump boundary shows up as a
//!    digest mismatch.
//! 2. The pump is a strict opt-in: `pump_prob = 1.0` (every wall hit
//!    survives) is bitwise identical to no pump at all — the solo runs
//!    of the guard config, which `engine_guard` pins (with
//!    `k_sub_dsmc = 1`, the unsubcycled engine).
//! 3. Subcycled DSMC draws from its own RNG stream: changing `k_sub`
//!    never perturbs the main (inject/PIC) stream or the pump stream,
//!    so another species' physics is untouched.
//! 4. The TOML parser is shape-insensitive (key order, whitespace,
//!    comments never change the lowered canonical config) and rejects
//!    bad physics with typed errors — checked property-style.
//! 5. A value is judged by `RunConfig::validate` alone: the builder
//!    and the scenario reader return the same `ConfigError` for the
//!    same offending value, and the same config for a legal one.

mod common;

use common::{assert_same_physics, guard_config, serial_baseline, threaded_baseline};
use coupled::scenario::{self, ScenarioError};
use coupled::{run_serial, run_threaded, ConfigError, Dataset, RankEngine, RunConfig, SimConfig};
use obs::fnv1a_f64;
use proptest::prelude::*;

/// Golden digests of the canned scenarios: (name, serial fnv1a,
/// 3-rank threaded fnv1a) of end-of-run `density_h`. With
/// `engine_guard` these are the physics pins: `cargo test --test
/// engine_guard --test scenario_guard -- --ignored --nocapture` prints
/// every one. Last re-pinned when the move keyed each flight's wall
/// draws.
const GOLDEN: &[(&str, u64, u64)] = &[
    ("freestream", 0xbbc7d5cc6068d0b2, 0x5c1350fc742e94a6),
    ("thermal_box", 0x80bd902cc5bb006e, 0x262e7c037eea5fa9),
    ("jet", 0x1cbbd92b9f1c3f2b, 0x298db846a7caabd7),
];

#[test]
#[ignore = "maintenance helper: prints the GOLDEN table for re-pinning"]
fn print_golden_hashes() {
    for &(name, _, _) in GOLDEN {
        let sc = scenario::canned(name).expect("canned scenario lowers");
        let serial = run_serial(&sc.run);
        let threaded = run_threaded(&sc.run);
        println!(
            "    (\"{name}\", {:#018x}, {:#018x}),",
            fnv1a_f64(&serial.density_h),
            fnv1a_f64(&threaded.density_h)
        );
    }
}

#[test]
fn canned_scenarios_serial_density_is_bitwise_pinned() {
    for &(name, serial_hash, _) in GOLDEN {
        let sc = scenario::canned(name).expect("canned scenario lowers");
        let r = run_serial(&sc.run);
        assert!(r.population > 0, "{name}: serial run produced no particles");
        assert_eq!(
            fnv1a_f64(&r.density_h),
            serial_hash,
            "{name}: serial density_h drifted from the golden digest"
        );
    }
}

#[test]
fn canned_scenarios_threaded_density_is_bitwise_pinned() {
    for &(name, _, threaded_hash) in GOLDEN {
        let sc = scenario::canned(name).expect("canned scenario lowers");
        assert_eq!(sc.run.ranks, 3, "{name}: guard expects 3-rank scenarios");
        let r = run_threaded(&sc.run);
        assert!(
            r.population > 0,
            "{name}: threaded run produced no particles"
        );
        assert_eq!(
            fnv1a_f64(&r.density_h),
            threaded_hash,
            "{name}: threaded density_h drifted from the golden digest"
        );
    }
}

/// `pump_prob = 1.0` means every wall hit survives; the survival
/// draws come from the dedicated pump stream, so the run must be
/// bitwise identical to the same config with no pump at all.
#[test]
fn full_survival_pump_is_bitwise_identical_to_no_pump() {
    let mut run = guard_config();
    assert_eq!(run.sim.pump_prob, None, "the guard config has no pump");
    run.sim.pump_prob = Some(1.0);
    run.validate()
        .expect("full survival is a legal probability");
    assert_same_physics(
        &run_serial(&run),
        serial_baseline(),
        "serial, full survival",
    );
    assert_same_physics(
        &run_threaded(&run),
        threaded_baseline(),
        "threaded, full survival",
    );
}

/// Subcycled DSMC must draw from its dedicated stream only: with
/// chemistry and cross-species collisions disabled, runs at
/// `k_sub = 2` and `k_sub = 4` consume different amounts of DSMC
/// randomness, yet the main stream (injection + PIC) and the pump
/// stream end in the same state and the charged physics is bitwise
/// untouched.
#[test]
fn changing_k_sub_never_perturbs_other_rng_streams() {
    let engine_at = |k_sub: usize| {
        let mut cfg = Dataset::D1.config(0.02);
        cfg.seed = 99;
        cfg.cross_collisions = false;
        cfg.k_sub_dsmc = k_sub;
        cfg.pump_prob = Some(0.7);
        let mut eng = RankEngine::new(cfg);
        // neutralize chemistry so neutrals cannot react into ions
        eng.chemistry.p_steric = 0.0;
        eng.chemistry.k_recomb = 0.0;
        for _ in 0..8 {
            eng.dsmc_step();
        }
        eng
    };
    let a = engine_at(2);
    let b = engine_at(4);
    assert_ne!(
        a.rng_dsmc, b.rng_dsmc,
        "different k_sub must consume the DSMC stream differently"
    );
    assert_eq!(
        a.rng, b.rng,
        "k_sub leaked draws into the main (inject/PIC) stream"
    );
    assert_eq!(
        a.rng_pump, b.rng_pump,
        "k_sub changed how the pump stream is consumed"
    );
    assert_eq!(
        a.poisson.phi(),
        b.poisson.phi(),
        "charged physics diverged under a neutral-only knob"
    );
}

/// The thermal-box scenario opts into time-averaged diagnostics
/// (`avg_window = 4`): the serial driver must fill the averaged
/// fields, matched in shape to their instantaneous counterparts, and
/// the read-only sampling must not perturb the pinned density.
#[test]
fn thermal_box_serial_run_fills_time_averaged_diagnostics() {
    let sc = scenario::canned("thermal_box").expect("canned scenario lowers");
    assert_eq!(sc.run.obs.avg_window, 4);
    let r = run_serial(&sc.run);
    assert_eq!(r.density_h_avg.len(), r.density_h.len());
    assert!(!r.phi_avg.is_empty());
    assert!(r.density_h_avg.iter().all(|d| d.is_finite()));
    assert!(
        r.density_h_avg.iter().any(|&d| d > 0.0),
        "averaged density is identically zero"
    );
}

// ---------------------------------------------------------------------
// One validator behind both doors
// ---------------------------------------------------------------------

/// One value at one door: the scenario TOML that sets it, the same
/// edit on a hand-built `SimConfig`, and what `RunConfig::validate`
/// must say about it (`None` = a legal boundary value).
type DoorCase = (&'static str, fn(&mut SimConfig), Option<ConfigError>);

fn door_cases() -> Vec<DoorCase> {
    use ConfigError::*;
    vec![
        // every rule that used to live in the scenario reader only
        (
            "[domain]\nradius = 0.0",
            |s| s.nozzle.radius = 0.0,
            Some(NotPositive("radius")),
        ),
        (
            "[domain]\nlength = -1.0",
            |s| s.nozzle.length = -1.0,
            Some(NotPositive("length")),
        ),
        (
            "[domain]\ninlet_radius = 0",
            |s| s.nozzle.inlet_radius = 0.0,
            Some(NotPositive("inlet_radius")),
        ),
        (
            "[domain]\nnd = 1",
            |s| s.nozzle.nd = 1,
            Some(DegenerateMesh),
        ),
        (
            "[domain]\nnz = 0",
            |s| s.nozzle.nz = 0,
            Some(DegenerateMesh),
        ),
        (
            "[domain]\ninlet_radius = 6e-3",
            |s| s.nozzle.inlet_radius = 6e-3,
            Some(InletExceedsRadius),
        ),
        (
            "[species.h]\ndensity = -1e18",
            |s| s.density_h = -1e18,
            Some(NegativeFlux("density_h")),
        ),
        (
            "[species.h]\nweight = 0",
            |s| s.weight_h = 0.0,
            Some(NotPositive("weight_h")),
        ),
        (
            "[species.hplus]\ndensity = -1.0",
            |s| s.density_hplus = -1.0,
            Some(NegativeFlux("density_hplus")),
        ),
        (
            "[species.hplus]\nweight = -6000.0",
            |s| s.weight_hplus = -6000.0,
            Some(NotPositive("weight_hplus")),
        ),
        (
            "[injection]\nv_drift = -10.0",
            |s| s.v_drift = -10.0,
            Some(NegativeFlux("v_drift")),
        ),
        (
            "[injection]\nt_inject = 0.0",
            |s| s.t_inject = 0.0,
            Some(NotPositive("t_inject")),
        ),
        (
            "[time]\ndt_dsmc = 0.0",
            |s| s.dt_dsmc = 0.0,
            Some(NotPositive("dt_dsmc")),
        ),
        // `1e999` parses to +inf: non-finite is out of range too
        (
            "[time]\ndt_dsmc = 1e999",
            |s| s.dt_dsmc = f64::INFINITY,
            Some(NotPositive("dt_dsmc")),
        ),
        (
            "[time]\npic_per_dsmc = 0",
            |s| s.pic_per_dsmc = 0,
            Some(ZeroPicPerDsmc),
        ),
        (
            "[walls]\nt_wall = -300.0",
            |s| s.t_wall = -300.0,
            Some(NotPositive("t_wall")),
        ),
        // boundary values that must still pass
        ("[species.h]\ndensity = 0", |s| s.density_h = 0.0, None),
        (
            "[species.hplus]\ndensity = 0.0",
            |s| s.density_hplus = 0.0,
            None,
        ),
        ("[injection]\nv_drift = 0.0", |s| s.v_drift = 0.0, None),
        (
            "[walls]\npump_prob = 0.0",
            |s| s.pump_prob = Some(0.0),
            None,
        ),
        ("[walls]\npump_prob = 1", |s| s.pump_prob = Some(1.0), None),
        (
            "[domain]\ninlet_radius = 5e-3",
            |s| s.nozzle.inlet_radius = 5e-3,
            None,
        ),
    ]
}

/// `RunConfig::builder().sim(..).build()` and the same value in
/// scenario TOML reach the same `RunConfig::validate`: the same
/// `ConfigError` from both, or — for a legal value — the same config.
#[test]
fn builder_and_scenario_doors_give_the_same_verdict() {
    for (toml, edit, expected) in door_cases() {
        let mut sim = SimConfig::default();
        edit(&mut sim);
        let built = RunConfig::builder().sim(sim).build();
        let parsed = scenario::parse(toml).map(|sc| sc.run);
        match expected {
            Some(e) => {
                assert_eq!(built.unwrap_err(), e, "builder door: {toml:?}");
                assert_eq!(
                    parsed.unwrap_err(),
                    ScenarioError::Config(e),
                    "scenario door: {toml:?}"
                );
            }
            None => assert_eq!(
                built.expect("legal boundary value").canonical_string(),
                parsed.expect("legal boundary value").canonical_string(),
                "{toml:?}"
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Property tests: parser shape-insensitivity and typed error paths
// ---------------------------------------------------------------------

/// The fixed key set the shuffling property rearranges.
const SECTIONS: &[(&str, &[(&str, &str)])] = &[
    (
        "scenario",
        &[("name", "\"prop\""), ("description", "\"p\"")],
    ),
    (
        "domain",
        &[("nd", "4"), ("nz", "6"), ("inlet_radius", "1.5e-3")],
    ),
    ("species.h", &[("density", "7e18"), ("weight", "1e9")]),
    ("injection", &[("v_drift", "1e4"), ("t_inject", "1000.0")]),
    (
        "time",
        &[("dt_dsmc", "5e-8"), ("steps", "3"), ("k_sub_dsmc", "2")],
    ),
    ("walls", &[("t_wall", "300.0"), ("pump_prob", "0.5")]),
    ("run", &[("seed", "21"), ("ranks", "2")]),
];

/// Deterministic Fisher-Yates driven by a splitmix64 stream, so the
/// permutation is a pure function of the proptest-chosen seed.
fn shuffle<T>(items: &mut [T], state: &mut u64) {
    let mut next = || {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// Render the fixed scenario with shuffled section/key order plus
/// seed-dependent spacing and comment noise.
fn render_shuffled(seed: u64) -> String {
    let mut state = seed;
    let mut sections: Vec<_> = SECTIONS.to_vec();
    shuffle(&mut sections, &mut state);
    let mut out = String::new();
    for (section, keys) in sections {
        let pad = " ".repeat((state % 4) as usize);
        out.push_str(&format!("{pad}[{section}]  # section\n"));
        let mut keys: Vec<_> = keys.to_vec();
        shuffle(&mut keys, &mut state);
        for (key, value) in keys {
            let lead = " ".repeat((state % 3) as usize);
            let gap = " ".repeat(1 + (state % 2) as usize);
            out.push_str(&format!("{lead}{key}{gap}={gap}{value}\n"));
        }
        out.push('\n');
    }
    out
}

proptest! {
    #[test]
    fn lowered_config_is_stable_under_key_order_and_whitespace(
        seed_a in 0u64..1_000_000, seed_b in 0u64..1_000_000
    ) {
        let a = scenario::parse(&render_shuffled(seed_a)).expect("shuffled scenario parses");
        let b = scenario::parse(&render_shuffled(seed_b)).expect("shuffled scenario parses");
        prop_assert_eq!(a.run.canonical_string(), b.run.canonical_string());
        prop_assert_eq!(a.run.config_hash(), b.run.config_hash());
    }

    #[test]
    fn negative_density_is_a_typed_flux_error(d in -1e22f64..-1e-3) {
        let text = format!("[species.h]\ndensity = {d:e}\n");
        prop_assert_eq!(
            scenario::parse(&text).unwrap_err(),
            ScenarioError::Config(ConfigError::NegativeFlux("density_h"))
        );
    }

    #[test]
    fn negative_drift_is_a_typed_flux_error(v in -1e6f64..-1e-3) {
        let text = format!("[injection]\nv_drift = {v:e}\n");
        prop_assert_eq!(
            scenario::parse(&text).unwrap_err(),
            ScenarioError::Config(ConfigError::NegativeFlux("v_drift"))
        );
    }

    #[test]
    fn out_of_range_pump_prob_is_a_typed_config_error(
        above in 1.0001f64..100.0, below in -100.0f64..-0.0001
    ) {
        for p in [above, below] {
            let text = format!("[walls]\npump_prob = {p}\n");
            prop_assert_eq!(
                scenario::parse(&text).unwrap_err(),
                ScenarioError::Config(ConfigError::InvalidPumpProb)
            );
        }
    }

    #[test]
    fn zero_subcycle_is_a_typed_config_error(steps in 1usize..50) {
        let text = format!("[time]\nk_sub_dsmc = 0\nsteps = {steps}\n");
        prop_assert_eq!(
            scenario::parse(&text).unwrap_err(),
            ScenarioError::Config(ConfigError::ZeroDsmcSubcycle)
        );
    }
}
