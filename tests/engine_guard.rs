//! Regression guard for the physics of the unified step pipeline.
//!
//! The serial, threaded and modelled drivers all execute the one
//! `run_step`; these tests pin their outputs for a fixed seed, so a
//! change to the phase order, the RNG consumption, the kernels or the
//! exchange semantics shows up as a bitwise difference. Together with
//! `scenario_guard`'s canned scenarios this is where the physics is
//! pinned, and the only place a physics change re-pins: every other
//! guard suite compares with a solo run of its config or replays
//! frozen balancer inputs. `cargo test --test engine_guard --test
//! scenario_guard -- --ignored --nocapture` prints every constant.
//!
//! Every pin that involves collisions was re-pinned when the NTC and
//! MEX/CEX passes moved to streams keyed per cell
//! (`dsmc::collide::tests::ntc_rate_matches_the_maxwellian_rate`
//! checks them against the analytic rate), and every pin when the move
//! keyed each flight's wall draws by the move and the particle
//! (`dsmc::movepush::tests::keyed_wall_reflection_has_the_diffuse_wall_moments`
//! checks those against the diffuse wall's moments). The threaded runs
//! rebalance only at a fixed cadence: the measured-time trigger does
//! not repeat across runs. The 3-rank guard run's cells rarely hold two
//! particles, so a second 3-rank pin, at 40× the inlet density, is the
//! one whose Colli_React accepts collisions.

mod common;

use balance::RebalanceConfig;
use common::{guard_builder, guard_config, serial_baseline, threaded_baseline};
use coupled::world::World;
use coupled::{
    run_step, run_threaded, ClusterSim, MachineProfile, Phase, RankEngine, RunConfig, RunReport,
    ThreadedBackend,
};
use obs::{fnv1a_f64, NullObserver};
use std::sync::Arc;
use vmpi::run_world;
use vmpi::Strategy::{self, Auto, Distributed};

/// A 64-bit digest, printed in hex.
#[derive(PartialEq, Eq)]
struct Hex(u64);

impl std::fmt::Debug for Hex {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        write!(f, "Hex({:#018x})", self.0)
    }
}

/// What a run's physics fixes at its end.
#[derive(Debug, PartialEq, Eq)]
struct Density {
    population: usize,
    cells: usize,
    digest: Hex,
}

fn density(r: &RunReport) -> Density {
    Density {
        population: r.population,
        cells: r.density_h.len(),
        digest: Hex(fnv1a_f64(&r.density_h)),
    }
}

#[test]
#[ignore = "maintenance helper: prints every pinned constant for re-pinning"]
fn print_golden_pins() {
    println!("serial: {:?}", density(serial_baseline()));
    println!("threaded: {:?}", density(threaded_baseline()));
    println!(
        "threaded, occupied cells: {:?}",
        density(&run_threaded(&occupied_config()))
    );
    for w_cell in [1, 0] {
        println!(
            "balanced jet, W_cell = {w_cell}: {:?}",
            balanced_jet(w_cell)
        );
    }
    println!("modelled: {:?}", modelled_guard_run());
}

#[test]
fn threaded_density_is_bitwise_pinned() {
    assert_eq!(
        density(threaded_baseline()),
        Density {
            population: 389,
            cells: 432,
            digest: Hex(0xea0a_09cc_40cc_0ccd),
        },
        "threaded run no longer bitwise identical to the pinned baseline"
    );
}

/// The guard config at 40× the neutral inlet density: the guard run's
/// 389 particles in 432 cells rarely meet, so its threaded Colli_React
/// accepts nothing and its pin does not move with the collision
/// kernels or their keys. Here 14,182 particles collide on the ranks
/// that hold the plume.
fn occupied_config() -> RunConfig {
    let mut run = guard_config();
    run.sim.density_h *= 40.0;
    run
}

/// Accepted collisions per rank of `run`'s threaded step loop: the
/// ranks of `session::rank_main`, stepped by hand to read each step's
/// record, which the report does not carry.
fn threaded_collisions(run: &RunConfig) -> Vec<usize> {
    let world = Arc::new(World::build(&run.sim, run.ranks));
    run_world(run.ranks, |comm| {
        let mut eng = RankEngine::for_rank(run.sim.clone(), &world, comm.rank());
        let mut be = ThreadedBackend::new(&comm, run, &world, world.owner0.clone());
        (0..run.steps)
            .map(|_| {
                let (rec, ..) = run_step(&mut eng, &mut be, &mut NullObserver).expect("no fault");
                rec.collisions
            })
            .sum()
    })
}

#[test]
fn threaded_colli_react_is_bitwise_pinned() {
    let run = occupied_config();
    let collisions = threaded_collisions(&run);
    assert!(
        collisions.iter().sum::<usize>() > 100,
        "premise: the threaded run accepts collisions, {collisions:?} per rank"
    );
    assert_eq!(
        density(&run_threaded(&run)),
        Density {
            population: 14_182,
            cells: 432,
            digest: Hex(0xcffe_bd19_7307_0086),
        },
        "threaded run with occupied cells no longer bitwise identical to the pinned baseline"
    );
}

#[test]
fn serial_density_is_bitwise_pinned() {
    // so these pins are the unsubcycled engine (`scenario_guard`'s
    // canned jet pins a subcycled one)
    assert_eq!(
        guard_config().sim.k_sub_dsmc,
        1,
        "the guard config is not subcycled"
    );
    assert_eq!(
        density(serial_baseline()),
        Density {
            population: 389,
            cells: 432,
            digest: Hex(0x0c0a_b640_7196_6466),
        },
        "serial run no longer bitwise identical to the pinned baseline"
    );
}

/// Every exchange protocol (DESIGN.md §11) must be a pure transport
/// change: CC, Sparse, Auto and Hier (two nodes) each reproduce the
/// plain distributed run bit for bit, at 3 ranks (the guard config)
/// and at 4. Any RNG draw or particle reorder smuggled into an
/// exchange shows up here.
#[test]
fn hier_matches_distributed_bitwise() {
    let run = |ranks, strategy| {
        run_threaded(
            &guard_builder()
                .ranks(ranks)
                .strategy(strategy)
                .build()
                .expect("valid guard config"),
        )
    };
    let dc4 = run(4, Distributed);
    for (ranks, dc) in [(3, threaded_baseline()), (4, &dc4)] {
        let dc_index = Distributed.concrete_index().expect("DC is concrete");
        assert!(
            dc.strategy_uses[dc_index] > 0,
            "DC guard ran the wrong protocol"
        );
        for strategy in [
            Strategy::Centralized,
            Strategy::Sparse,
            Auto,
            Strategy::Hier,
        ] {
            let r = run(ranks, strategy);
            assert_eq!(
                density(&r),
                density(dc),
                "{strategy:?} at {ranks} ranks is not bitwise the DC run"
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

/// The two whole-domain drivers share one run loop: the modelled
/// driver steps the same whole-domain engine as `run_serial`, so the
/// final and time-averaged diagnostics agree bitwise whatever the
/// virtual rank count — only the backend's attribution differs.
#[test]
fn serial_and_modelled_drivers_agree_bitwise_on_the_shared_loop() {
    let mut run = guard_config();
    run.obs.avg_window = 4;
    let serial = coupled::run_serial(&run);
    let modelled = ClusterSim::new(&run, MachineProfile::tianhe2()).run(run.steps);
    assert!(!serial.density_h_avg.is_empty() && !serial.phi_avg.is_empty());
    assert_eq!(serial.density_h, modelled.density_h);
    assert_eq!(serial.density_h_avg, modelled.density_h_avg);
    assert_eq!(serial.phi_avg, modelled.phi_avg);
    assert_eq!(serial.population, modelled.population);
    assert_eq!(serial.trace.len(), modelled.trace.len());
}

/// The canned `jet` on 3 rank threads, paper WLM at `w_cell`,
/// threshold 0 at a fixed cadence `T = 3` — the trigger never depends
/// on measured wall time, so the run is deterministic.
fn balanced_jet_run(strategy: Strategy, w_cell: i64) -> RunReport {
    let mut run = coupled::scenario::canned("jet")
        .expect("canned scenario lowers")
        .run;
    run.strategy = strategy;
    run.rebalance = Some(RebalanceConfig {
        t_interval: 3,
        threshold: 0.0,
        wlm: balance::WlmParams {
            w_cell,
            ..balance::WlmParams::default()
        },
        ..RebalanceConfig::default()
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

/// What the balance hook and the report's fold of the step events
/// fill for the *threaded* driver on the balanced jet, run once with
/// DC and once with `Auto` — the exchange strategy never changes the
/// physics.
#[derive(Debug, PartialEq, Eq)]
struct BalancedJet {
    migrated: u64,
    end: Density,
    /// Exchanges per concrete strategy, of the DC and of the Auto run.
    uses: [[u64; 4]; 2],
    /// (transactions, bytes), of the DC and of the Auto run.
    wires: [(u64, u64); 2],
}

fn balanced_jet(w_cell: i64) -> BalancedJet {
    let [dc, auto] = [Distributed, Auto].map(|s| balanced_jet_run(s, w_cell));
    assert_eq!(auto.rebalance_migrated, dc.rebalance_migrated);
    assert_eq!(density(&auto), density(&dc), "Auto changed the physics");
    BalancedJet {
        migrated: dc.rebalance_migrated,
        end: density(&dc),
        uses: [dc.strategy_uses, auto.strategy_uses],
        wires: [(dc.transactions, dc.bytes), (auto.transactions, auto.bytes)],
    }
}

/// `W_cell = 0` weighs particles only, so its balancer cuts elsewhere:
/// more migration, another owner map, another density. The per-cell
/// counts are allreduced only on the 4 steps a rebalance is due, not
/// on all 12: each wire total is its earlier pin less 8 allreduces of
/// 4 messages (gather and broadcast over 3 ranks) of 2 × 2,304 cells
/// × 8 B, i.e. 32 messages and 1,179,648 bytes.
#[test]
fn threaded_balance_and_comm_stats_are_pinned() {
    assert_eq!(
        balanced_jet(1),
        BalancedJet {
            migrated: 324,
            end: Density {
                population: 1330,
                cells: 2304,
                digest: Hex(0xf044_79b4_bbcc_bb13),
            },
            uses: [[0, 52, 0, 0], [15, 0, 37, 0]],
            wires: [(520, 3_585_091), (476, 3_642_493)],
        },
        "W_cell = 1"
    );
    assert_eq!(
        balanced_jet(0),
        BalancedJet {
            migrated: 1080,
            end: Density {
                population: 1328,
                cells: 2304,
                digest: Hex(0x5af4_513f_40c2_ca86),
            },
            uses: [[0, 52, 0, 0], [22, 0, 30, 0]],
            wires: [(520, 3_700_198), (504, 3_772_026)],
        },
        "W_cell = 0"
    );
}

/// The modelled machine end to end: what only a stepped run shows.
#[derive(Debug, PartialEq, Eq)]
struct Modelled {
    /// FNV-1a of the per-step `lii`.
    lii: Hex,
    /// Bits of the summed modelled step times.
    time: Hex,
    strategy_uses: [u64; 4],
    transactions: u64,
    bytes: u64,
    rebalanced: Vec<usize>,
    /// The owner map the run ends on.
    owner: Hex,
}

/// The guard config on 24 virtual ranks under `Auto`, re-decomposed
/// every 2 steps at threshold 0. It injects ions, so every step
/// prices a Poisson lap; a run whose ions came only from reactions
/// would price one or none on the turn of a single draw.
fn modelled_guard_run() -> Modelled {
    let run = guard_builder()
        .ranks(24)
        .strategy(Auto)
        .rebalance(Some(RebalanceConfig {
            t_interval: 2,
            threshold: 0.0,
            ..RebalanceConfig::default()
        }))
        .build()
        .expect("valid modelled config");
    let mut sim = ClusterSim::new(&run, MachineProfile::tianhe2());
    let trace: Vec<_> = (0..run.steps)
        .map(|step| {
            let (trace, bd) = sim.step();
            assert!(
                bd[Phase::PoissonSolve] > 0.0,
                "step {step} priced no Poisson lap: no ion was left"
            );
            trace
        })
        .collect();
    let sum = |f: fn(&coupled::StepTrace) -> u64| trace.iter().map(f).sum::<u64>();
    let lii: Vec<f64> = trace.iter().map(|t| t.lii).collect();
    Modelled {
        lii: Hex(fnv1a_f64(&lii)),
        time: Hex(trace.iter().map(|t| t.step_time).sum::<f64>().to_bits()),
        strategy_uses: std::array::from_fn(|s| trace.iter().map(|t| t.strategy_uses[s]).sum()),
        transactions: sum(|t| t.transactions),
        bytes: sum(|t| t.bytes),
        rebalanced: (0..trace.len()).filter(|&i| trace[i].rebalanced).collect(),
        owner: Hex(common::frozen::owner_hash(sim.owner())),
    }
}

#[test]
fn modelled_guard_run_is_pinned() {
    assert_eq!(
        modelled_guard_run(),
        Modelled {
            lii: Hex(0x35cb_35bf_d0ca_c90c),
            time: Hex(0x4017_a6ac_3abe_4dae),
            strategy_uses: [0, 0, 40, 2],
            transactions: 1042,
            bytes: 986_683_898,
            rebalanced: vec![1, 3, 5, 7, 9, 11],
            owner: Hex(0x126e_ef11_2a04_7c43),
        },
        "the modelled run drifted from the pinned baseline"
    );
}
