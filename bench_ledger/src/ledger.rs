//! The serial twin of a workload and its kernel ledger.
//!
//! Every workload has a *twin*: one whole-domain `RankEngine` on the
//! workload's own `SimConfig`, stepped with `dsmc_step()`. Untraced,
//! the twin is the warm-up pass that yields the exact particle-step
//! count and the population/density every rep is checked against.
//! Traced, it also carries the kernel probes: at 25 %, 50 % and 100 %
//! of the steps the live public state is cloned and one call is made
//! into each layer's public kernel, in pipeline order, under its own
//! span. Clones are never fed back, so a probed twin ends bitwise
//! where an unprobed one does.
//!
//! The ledger then has to add up: per phase, Σ over the sampling
//! intervals of (kernel ns per unit at the interval's sample) × (exact
//! work units of the interval, from `StepRecord`) is compared with the
//! phase time the program itself reports for the same config.

use crate::spans::{timed, Trace, Tracer};
use coupled::{Phase, RankEngine, SimConfig};
use dsmc::{move_particles_pooled, Pump};
use kernels::Pool;
use mesh::NestedMesh;
use particles::{ParticleBuffer, SortScratch};
use pic::{accelerate_charged_pooled, deposit_charge_pooled, ElectricField, PoissonSolver};
use sparse::KrylovOptions;
use std::hint::black_box;

/// The kernels whose cost the ledger attributes to a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Inject,
    MoveH,
    Collide,
    Push,
    IonMove,
    Deposit,
    Cg,
    Efield,
}

impl Kernel {
    pub const ALL: [Kernel; 8] = [
        Kernel::Inject,
        Kernel::MoveH,
        Kernel::Collide,
        Kernel::Push,
        Kernel::IonMove,
        Kernel::Deposit,
        Kernel::Cg,
        Kernel::Efield,
    ];

    /// The pipeline phase whose reported time this kernel is part of.
    pub fn phase(self) -> Phase {
        match self {
            Kernel::Inject => Phase::Inject,
            Kernel::MoveH => Phase::DsmcMove,
            Kernel::Collide => Phase::ColliReact,
            Kernel::Push | Kernel::IonMove => Phase::PicMove,
            Kernel::Deposit | Kernel::Cg | Kernel::Efield => Phase::PoissonSolve,
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            Kernel::Inject => "dsmc.inject",
            Kernel::MoveH => "dsmc.move",
            Kernel::Collide => "dsmc.collide",
            Kernel::Push => "pic.push",
            Kernel::IonMove => "pic.ion_move",
            Kernel::Deposit => "pic.deposit",
            Kernel::Cg => "sparse.cg",
            Kernel::Efield => "pic.efield",
        }
    }
}

/// The phases that have at least one ledger kernel.
pub const LEDGER_PHASES: [Phase; 5] = [
    Phase::Inject,
    Phase::DsmcMove,
    Phase::ColliReact,
    Phase::PicMove,
    Phase::PoissonSolve,
];

/// Seconds and work units of one kernel, summed over probe calls or
/// over the steps of a run.
#[derive(Debug, Clone, Copy, Default)]
struct Cost {
    seconds: f64,
    units: f64,
}

/// What the kernel probes measured over one twin pass.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Per ledger kernel: Σ interval (rate × units) and Σ units.
    predicted: [Cost; 8],
    pub mesh_build_s: f64,
    pub poisson_assemble_s: f64,
    pub sort_ns_per_particle: f64,
    pub pack_ns_per_particle: f64,
    pub spmv_ns_per_nnz: f64,
    pub candidates: u64,
    pub collisions: u64,
    pub cg_solves: u64,
    pub cg_iterations: u64,
    /// Probe solves that did not converge, plus run solves that hit
    /// the iteration cap.
    pub cg_unconverged: u64,
    pub pool2_move_speedup: f64,
    pub dispatch_us: f64,
    pub checkpoint_s: f64,
    pub restore_s: f64,
    pub checkpoint_mb: f64,
}

impl Ledger {
    /// Effective ns per work unit of a kernel over the whole run.
    pub fn ns_per_unit(&self, k: Kernel) -> f64 {
        let c = self.predicted[k as usize];
        if c.units > 0.0 {
            c.seconds * 1e9 / c.units
        } else {
            0.0
        }
    }

    /// Kernel-predicted seconds of a phase.
    pub fn predicted_s(&self, phase: Phase) -> f64 {
        Kernel::ALL
            .iter()
            .filter(|k| k.phase() == phase)
            .map(|&k| self.predicted[k as usize].seconds)
            .sum()
    }

    pub fn accept_ratio(&self) -> f64 {
        if self.candidates > 0 {
            self.collisions as f64 / self.candidates as f64
        } else {
            0.0
        }
    }

    pub fn cg_iters_per_solve(&self) -> f64 {
        if self.cg_solves > 0 {
            self.cg_iterations as f64 / self.cg_solves as f64
        } else {
            0.0
        }
    }
}

/// Result of one twin pass.
#[derive(Debug, Clone)]
pub struct Twin {
    pub setup_s: f64,
    /// Wall seconds of each `dsmc_step()`.
    pub step_s: Vec<f64>,
    /// Σ over steps of the population after the step: the exact
    /// numerator of `particle_steps_per_s`.
    pub particle_steps: u64,
    pub population: usize,
    pub density: Vec<f64>,
    /// Per-cell (neutral, charged) counts of the final state, for the
    /// partition and balance probes.
    pub cell_counts: (Vec<u64>, Vec<u64>),
    pub cell_graph: (Vec<u32>, Vec<u32>),
    pub coarse_cells: usize,
    pub fine_nodes: usize,
    pub ledger: Option<Ledger>,
}

const CG_OPTS: KrylovOptions = KrylovOptions {
    rtol: 1e-6,
    max_iters: 1000,
};

/// One call into each layer's kernel on a clone of `eng`'s state, in
/// pipeline order. Returns (seconds, units) per ledger kernel.
fn probe_kernels(
    eng: &RankEngine,
    solver: &mut PoissonSolver,
    tr: &mut Tracer,
    led: &mut Ledger,
    last: bool,
) -> [Cost; 8] {
    let cfg = &eng.config;
    let nm: &NestedMesh = &eng.nm;
    let pool = Pool::serial();
    let (h_id, hp_id) = (eng.h_id, eng.hp_id);
    // a clone with headroom, so the injection probe appends into spare
    // capacity as the engine's own long-lived buffer does
    let headroom = (eng.h_rate() + eng.ion_rate()) as usize + 16;
    let mut buf = ParticleBuffer::with_capacity(eng.particles.len() + headroom);
    buf.append(&mut eng.particles.clone());
    let mut rng = eng.rng.clone();
    let mut rng_pump = eng.rng_pump.clone();
    let mut cost = [Cost::default(); 8];
    let mut put = |k: Kernel, seconds: f64, units: usize| {
        cost[k as usize] = Cost {
            seconds,
            units: units as f64,
        }
    };
    let count = |buf: &ParticleBuffer, id: u8| buf.species.iter().filter(|&&s| s == id).count();
    let dt_sub = cfg.dt_dsmc / cfg.k_sub_dsmc as f64;

    // --- dsmc: inject, neutral move, collide ------------------------
    if let Some(mut inj) = eng.injector.clone() {
        let h_sp = eng.species.get(h_id).clone();
        let ion_sp = eng.species.get(hp_id).clone();
        let (h_rate, ion_rate) = (eng.h_rate(), eng.ion_rate());
        let (n, s) = tr.time(Kernel::Inject.span_name(), || {
            inj.inject(
                &nm.coarse,
                &mut buf,
                h_id,
                &h_sp,
                h_rate,
                cfg.v_drift,
                cfg.t_inject,
                &mut rng,
            ) + inj.inject(
                &nm.coarse,
                &mut buf,
                hp_id,
                &ion_sp,
                ion_rate,
                cfg.v_drift,
                cfg.t_inject,
                &mut rng,
            )
        });
        put(Kernel::Inject, s, n);
    }

    let before_move = buf.clone();
    let neutrals = count(&buf, h_id);
    let mut transitions = Vec::new();
    let (_, s_move) = tr.time(Kernel::MoveH.span_name(), || {
        let pump = cfg.pump_prob.map(|prob| Pump {
            prob,
            rng: &mut rng_pump,
        });
        black_box(move_particles_pooled(
            &nm.coarse,
            &mut buf,
            &eng.species,
            dt_sub,
            cfg.t_wall,
            &mut rng,
            &pool,
            |s| s == h_id,
            Some(&mut transitions),
            pump,
        ))
    });
    put(Kernel::MoveH, s_move, neutrals);

    let mut collisions = eng.collisions.clone();
    let mut events = Vec::new();
    let (cstats, s) = tr.time(Kernel::Collide.span_name(), || {
        collisions.collide_pooled(
            &nm.coarse,
            &mut buf,
            &eng.species,
            h_id,
            dt_sub,
            &mut rng,
            &mut events,
            &pool,
        )
    });
    put(Kernel::Collide, s, cstats.candidates);

    // --- pic: push, ion move, deposit, solve, E-field ---------------
    let dt_pic = cfg.dt_pic();
    let ions = count(&buf, hp_id);
    let (_, s) = tr.time(Kernel::Push.span_name(), || {
        black_box(accelerate_charged_pooled(
            nm,
            &mut buf,
            &eng.species,
            &eng.efield,
            cfg.b_field,
            dt_pic,
            &pool,
        ))
    });
    put(Kernel::Push, s, ions);

    transitions.clear();
    let (_, s) = tr.time(Kernel::IonMove.span_name(), || {
        black_box(move_particles_pooled(
            &nm.coarse,
            &mut buf,
            &eng.species,
            dt_pic,
            cfg.t_wall,
            &mut rng,
            &pool,
            |s| s == hp_id,
            Some(&mut transitions),
            None,
        ))
    });
    put(Kernel::IonMove, s, ions);

    let mut node_charge = vec![0.0f64; nm.fine.num_nodes()];
    let charged = count(&buf, hp_id);
    let (_, s) = tr.time(Kernel::Deposit.span_name(), || {
        deposit_charge_pooled(nm, &buf, &eng.species, &mut node_charge, &pool)
    });
    put(Kernel::Deposit, s, charged);

    // warm start from the engine's last potential, as the step does
    solver.set_phi(eng.poisson.phi());
    let nodes = nm.fine.num_nodes();
    let (stats, s) = tr.time(Kernel::Cg.span_name(), || {
        solver.solve_with(&node_charge, &pool, None).1
    });
    put(Kernel::Cg, s, stats.iterations * nodes);
    led.cg_unconverged += u64::from(!stats.converged);

    let (_, s) = tr.time(Kernel::Efield.span_name(), || {
        black_box(ElectricField::from_potential(&nm.fine, solver.phi()))
    });
    put(Kernel::Efield, s, nodes);

    // --- kernels outside the default step: rates only ----------------
    const SPMV_REPS: usize = 20;
    let x: Vec<f64> = solver.phi().to_vec();
    let mut y = vec![0.0f64; nodes];
    let (_, s) = tr.time("sparse.spmv", || {
        for _ in 0..SPMV_REPS {
            solver.matrix.spmv(black_box(&x), &mut y);
        }
        black_box(y[0])
    });
    led.spmv_ns_per_nnz = s * 1e9 / (SPMV_REPS * solver.matrix.nnz()) as f64;

    let indices: Vec<usize> = (0..buf.len()).step_by(4).collect();
    let mut wire = Vec::new();
    let (_, s) = tr.time("particles.pack", || {
        particles::pack_selected_into(&buf, &indices, &mut wire);
        black_box(wire.len())
    });
    led.pack_ns_per_particle = s * 1e9 / indices.len().max(1) as f64;

    let mut scratch = SortScratch::default();
    let sorted_n = buf.len().max(1);
    let (_, s) = tr.time("particles.sort_by_cell", || {
        buf.sort_by_cell(nm.num_coarse(), &mut scratch)
    });
    led.sort_ns_per_particle = s * 1e9 / sorted_n as f64;

    if last {
        // the same neutral move on 2 pool workers (this host has 2 CPUs)
        let pool2 = Pool::new(2);
        let mut buf2 = before_move;
        let mut rng2 = eng.rng.clone();
        let mut rng_pump2 = eng.rng_pump.clone();
        transitions.clear();
        let (_, s2) = tr.time("kernels.pool2_move", || {
            let pump = cfg.pump_prob.map(|prob| Pump {
                prob,
                rng: &mut rng_pump2,
            });
            black_box(move_particles_pooled(
                &nm.coarse,
                &mut buf2,
                &eng.species,
                dt_sub,
                cfg.t_wall,
                &mut rng2,
                &pool2,
                |s| s == h_id,
                Some(&mut transitions),
                pump,
            ))
        });
        led.pool2_move_speedup = if s2 > 0.0 { s_move / s2 } else { 0.0 };
        const DISPATCHES: usize = 200;
        let (_, s) = tr.time("kernels.dispatch", || {
            for _ in 0..DISPATCHES {
                black_box(pool2.run_parts(vec![(), ()], |lane, ()| lane));
            }
        });
        led.dispatch_us = s * 1e6 / DISPATCHES as f64;

        let (bytes, s) = tr.time("coupled.checkpoint", || coupled::checkpoint(eng));
        led.checkpoint_s = s;
        led.checkpoint_mb = bytes.len() as f64 / (1024.0 * 1024.0);
        let mut fresh = RankEngine::new(cfg.clone());
        let (res, s) = tr.time("coupled.restore", || coupled::restore(&mut fresh, &bytes));
        res.expect("a checkpoint just taken restores");
        assert_eq!(fresh.particles.len(), eng.particles.len());
        led.restore_s = s;
    }
    cost
}

/// Steps after which the probes run: 25 %, 50 % and 100 % of `steps`.
pub fn sample_points(steps: usize) -> Vec<usize> {
    let mut pts: Vec<usize> = [0.25, 0.5, 1.0]
        .iter()
        .map(|f| ((steps as f64 * f).ceil() as usize).clamp(1, steps))
        .collect();
    pts.dedup();
    pts
}

/// Step the twin of `sim` for `steps` steps. With a tracer the pass is
/// spanned and probed; without, it is the plain warm-up pass.
pub fn twin_pass(sim: &SimConfig, steps: usize, mut tracer: Trace<'_>) -> Twin {
    // when tracing: the ledger, and the probes' own Poisson solver
    let mut probing: Option<(Ledger, PoissonSolver)> = tracer.as_deref_mut().map(|tr| {
        // the same constructions RankEngine::new performs inside, timed
        // from outside through the layers' public constructors
        let spec = sim.nozzle;
        let (nm, mesh_build_s) = tr.time("mesh.build", || {
            NestedMesh::from_coarse(spec.generate(), move |c, n| spec.classify(c, n))
        });
        let (solver, poisson_assemble_s) = tr.time("pic.poisson_assemble", || {
            PoissonSolver::new(&nm.fine, CG_OPTS)
        });
        let ledger = Ledger {
            mesh_build_s,
            poisson_assemble_s,
            ..Ledger::default()
        };
        (ledger, solver)
    });
    let (mut eng, setup_s) = timed(&mut tracer, "coupled.setup", || {
        RankEngine::new(sim.clone())
    });

    let samples = sample_points(steps);
    // work units of each kernel over the steps since the last sample
    let mut units = [0.0f64; 8];
    let mut step_s = Vec::with_capacity(steps);
    let mut particle_steps = 0u64;
    let nodes = eng.nm.fine.num_nodes() as f64;
    for step in 1..=steps {
        let (rec, seconds) = timed(&mut tracer, "coupled.step", || eng.dsmc_step());
        step_s.push(seconds);
        particle_steps += rec.population as u64;

        let (Some(tr), Some((led, solver))) = (tracer.as_deref_mut(), probing.as_mut()) else {
            continue;
        };
        let ion_moves: usize = rec.charged_transitions.iter().map(Vec::len).sum();
        let iters: usize = rec.poisson_iters.iter().sum();
        units[Kernel::Inject as usize] += rec.injected_cells.len() as f64;
        units[Kernel::MoveH as usize] += rec.neutral_transitions.len() as f64;
        units[Kernel::Collide as usize] += rec.collision_candidates as f64;
        units[Kernel::Push as usize] += ion_moves as f64;
        units[Kernel::IonMove as usize] += ion_moves as f64;
        units[Kernel::Deposit as usize] += ion_moves as f64;
        units[Kernel::Cg as usize] += iters as f64 * nodes;
        units[Kernel::Efield as usize] += rec.poisson_iters.len() as f64 * nodes;
        led.candidates += rec.collision_candidates as u64;
        led.collisions += rec.collisions as u64;
        led.cg_solves += rec.poisson_iters.len() as u64;
        led.cg_iterations += iters as u64;
        led.cg_unconverged += rec
            .poisson_iters
            .iter()
            .filter(|&&i| i >= CG_OPTS.max_iters)
            .count() as u64;
        tr.count("particle_steps", rec.population as u64);

        if samples.contains(&step) {
            let probe = tr.begin("probe");
            let cost = probe_kernels(&eng, solver, tr, led, step == steps);
            tr.end(probe);
            for k in Kernel::ALL {
                let (c, u) = (cost[k as usize], units[k as usize]);
                if c.units > 0.0 {
                    led.predicted[k as usize].seconds += c.seconds / c.units * u;
                    led.predicted[k as usize].units += u;
                }
            }
            units = [0.0; 8];
        }
    }

    let (neutral, charged) = eng.counts_per_cell();
    let counts: Vec<f64> = neutral.iter().map(|&c| c as f64).collect();
    let density = coupled::diag::number_density(
        &counts,
        &eng.nm.coarse.volumes,
        eng.species.get(eng.h_id).weight,
    );
    Twin {
        setup_s,
        step_s,
        particle_steps,
        population: eng.particles.len(),
        density,
        cell_counts: (neutral, charged),
        cell_graph: eng.nm.coarse.cell_graph(),
        coarse_cells: eng.nm.num_coarse(),
        fine_nodes: eng.nm.fine.num_nodes(),
        ledger: probing.map(|(ledger, _)| ledger),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_points_cover_quarter_half_and_end() {
        assert_eq!(sample_points(40), vec![10, 20, 40]);
        assert_eq!(sample_points(10), vec![3, 5, 10]);
        assert_eq!(sample_points(2), vec![1, 2]);
        assert_eq!(sample_points(1), vec![1]);
    }

    #[test]
    fn every_ledger_phase_has_a_kernel() {
        for p in LEDGER_PHASES {
            assert!(Kernel::ALL.iter().any(|k| k.phase() == p));
        }
        for k in Kernel::ALL {
            assert!(LEDGER_PHASES.contains(&k.phase()));
        }
    }

    #[test]
    fn probes_do_not_perturb_the_twin() {
        let sim = coupled::scenario::canned("jet").unwrap().run.sim;
        let plain = twin_pass(&sim, 4, None);
        let mut tr = Tracer::new();
        let probed = twin_pass(&sim, 4, Some(&mut tr));
        assert_eq!(plain.population, probed.population);
        assert_eq!(plain.density, probed.density);
        assert_eq!(plain.particle_steps, probed.particle_steps);
        let led = probed.ledger.unwrap();
        assert!(led.ns_per_unit(Kernel::MoveH) > 0.0);
        assert!(led.predicted_s(Phase::DsmcMove) > 0.0);
        assert!(led.checkpoint_mb > 0.0);
        assert_eq!(tr.durations("coupled.step").len(), 4);
        assert_eq!(tr.durations("probe").len(), 3);
    }
}
