//! The team CG is the serial CG, bit for bit: every lane count gives
//! the iteration count, every residual-history entry and every bit of
//! `x` that a single-threaded two-level CG (Jacobi plus the coarse-grid
//! correction, whole vectors, block-ordered inner products) gives — on
//! the Poisson operators the benchmark's lattices assemble and on the
//! edge cases of the iteration. The two-level solution is also checked
//! against the plain Jacobi-CG oracle and against its true residual,
//! and the nesting it is built on against the coarse mesh.
//!
//! `scripts/verify.sh` also runs these pinned to one CPU: a barrier
//! that spins instead of yielding the core shows up there as a timeout.

use kernels::Pool;
use mesh::{NestedMesh, NozzleSpec};
use pic::{PoissonOperator, EPS0};
use sparse::{
    CgWorkspace, CooBuilder, CsrMatrix, KrylovOptions, SolveStats, TwoLevel, DET_DOT_BLOCK,
};

/// Inner product as the serial solver forms it: left-to-right within
/// each [`DET_DOT_BLOCK`] block, the block sums folded in order from 0.
fn det_dot(a: &[f64], b: &[f64]) -> f64 {
    a.chunks(DET_DOT_BLOCK)
        .zip(b.chunks(DET_DOT_BLOCK))
        .fold(0.0, |acc, (x, y)| {
            acc + x.iter().zip(y).map(|(x, y)| x * y).sum::<f64>()
        })
}

fn inv_diag(a: &CsrMatrix) -> Vec<f64> {
    a.diagonal()
        .iter()
        .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
        .collect()
}

/// Whole-vector CG, one thread, with the preconditioner `precondition`
/// (`z ← M⁻¹ r`).
fn serial_pcg(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    opts: KrylovOptions,
    history: &mut Vec<f64>,
    mut precondition: impl FnMut(&[f64], &mut [f64]),
) -> SolveStats {
    let n = b.len();
    let norm_b = det_dot(b, b).sqrt();
    if norm_b == 0.0 {
        x.fill(0.0);
        return SolveStats {
            iterations: 0,
            rel_residual: 0.0,
            converged: true,
        };
    }
    let mut r = a.mul_vec(x);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut z = vec![0.0; n];
    precondition(&r, &mut z);
    let mut p = z.clone();
    let mut ap = vec![0.0; n];
    let mut rz = det_dot(&r, &z);
    for it in 0..opts.max_iters {
        let res = det_dot(&r, &r).sqrt() / norm_b;
        history.push(res);
        if res <= opts.rtol {
            return SolveStats {
                iterations: it,
                rel_residual: res,
                converged: true,
            };
        }
        a.spmv(&p, &mut ap);
        let pap = det_dot(&p, &ap);
        if pap <= 0.0 {
            return SolveStats {
                iterations: it,
                rel_residual: res,
                converged: false,
            };
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
        }
        for i in 0..n {
            r[i] += -alpha * ap[i];
        }
        precondition(&r, &mut z);
        let rz_new = det_dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    let res = det_dot(&r, &r).sqrt() / norm_b;
    history.push(res);
    SolveStats {
        iterations: opts.max_iters,
        rel_residual: res,
        converged: res <= opts.rtol,
    }
}

/// The convergence oracle: Jacobi-preconditioned CG.
fn serial_cg(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    opts: KrylovOptions,
    history: &mut Vec<f64>,
) -> SolveStats {
    let d = inv_diag(a);
    serial_pcg(a, b, x, opts, history, |r, z| {
        for i in 0..r.len() {
            z[i] = r[i] * d[i];
        }
    })
}

/// The nesting as the oracle reads it from the mesh: per fine row the
/// two coarse slots `P` averages — the coarse unknowns are the
/// non-Dirichlet coarse nodes in node order, and slot `nu`, past them,
/// always holds 0. No nesting: no unknowns.
struct Nesting {
    nu: usize,
    slots: Vec<[usize; 2]>,
}

impl Nesting {
    fn none(n: usize) -> Self {
        Nesting {
            nu: 0,
            slots: vec![[0, 0]; n],
        }
    }

    fn of(op: &PoissonOperator, bisected: &[[u32; 2]]) -> Self {
        let n = op.is_boundary.len();
        let nc = n - bisected.len();
        let unknowns: Vec<usize> = (0..nc).filter(|&i| !op.is_boundary[i]).collect();
        let nu = unknowns.len();
        let mut slot = vec![nu; nc];
        for (j, &i) in unknowns.iter().enumerate() {
            slot[i] = j;
        }
        let slots = (0..n)
            .map(|i| {
                if i < nc {
                    [slot[i]; 2]
                } else if op.is_boundary[i] {
                    [nu; 2]
                } else {
                    bisected[i - nc].map(|c| slot[c as usize])
                }
            })
            .collect();
        Nesting { nu, slots }
    }
}

/// The oracle: two-level CG, one thread, whole vectors:
/// `z = D⁻¹ r + P Ac⁻¹ Pᵀ r`, `Pᵀ r` scattered row by row in ascending
/// order (each slot a row names gets its value, every sum halved) and
/// `Ac⁻¹` the preconditioner's own coarse solve.
fn serial_two_level(
    a: &CsrMatrix,
    two: &TwoLevel,
    nest: &Nesting,
    b: &[f64],
    x: &mut [f64],
    opts: KrylovOptions,
    history: &mut Vec<f64>,
) -> SolveStats {
    let d = inv_diag(a);
    serial_pcg(a, b, x, opts, history, |r, z| {
        let mut e = vec![0.0; nest.nu + 1];
        for (ri, &[s, t]) in r.iter().zip(&nest.slots) {
            e[s] += ri;
            e[t] += ri;
        }
        let mut e: Vec<f64> = e[..nest.nu].iter().map(|v| v * 0.5).chain([0.0]).collect();
        two.coarse_solve(&mut e);
        for i in 0..r.len() {
            let [s, t] = nest.slots[i];
            z[i] = r[i] * d[i] + 0.5 * (e[s] + e[t]);
        }
    })
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Solve the sequence `rhs` (each warm-started from the last `x`,
/// starting at `x0`) with the oracle and with a kept workspace on 1–4
/// lanes; assert every lane count reproduces the oracle's stats,
/// history and iterates. Returns the oracle's stats and solutions.
fn assert_team_is_serial(
    what: &str,
    (a, two, nest): (&CsrMatrix, &TwoLevel, &Nesting),
    rhs: &[Vec<f64>],
    x0: &[f64],
    opts: KrylovOptions,
) -> Vec<(SolveStats, Vec<f64>)> {
    let mut x = x0.to_vec();
    let mut want = Vec::new();
    for b in rhs {
        let mut history = Vec::new();
        let stats = serial_two_level(a, two, nest, b, &mut x, opts, &mut history);
        want.push((stats, bits(&history), x.clone()));
    }
    for lanes in 1..=4 {
        let pool = Pool::new(lanes);
        let mut ws = CgWorkspace::new(a.nrows());
        let mut x = x0.to_vec();
        for (k, (b, (stats, history, xs))) in rhs.iter().zip(&want).enumerate() {
            let mut got = Vec::new();
            let got_stats = ws.solve(a, two, b, &mut x, opts, &pool, Some(&mut got));
            let at = format!("{what}, solve {k}, {lanes} lanes");
            assert_eq!(got_stats, *stats, "{at}");
            assert_eq!(bits(&got), *history, "{at}: history");
            assert_eq!(bits(&x), bits(xs), "{at}: x");
        }
    }
    want.into_iter().map(|(stats, _, x)| (stats, x)).collect()
}

/// `nd`, `nz` and inlet radius of a nozzle lattice.
type Lattice = (&'static str, usize, usize, f64);

/// The lattices the benchmark's `field_serial` and jet workloads run
/// on.
const LATTICES: [Lattice; 2] = [("field_serial", 8, 20, 3e-3), ("jet", 6, 12, 0.8e-3)];

/// The canned scenarios' lattices (`scenarios/*.toml`).
const CANNED: [Lattice; 3] = [
    ("freestream", 4, 8, 4.5e-3),
    ("jet", 6, 12, 0.8e-3),
    ("thermal_box", 4, 6, 3e-3),
];

fn nested((_, nd, nz, inlet_radius): Lattice) -> NestedMesh {
    let spec = NozzleSpec {
        radius: 5e-3,
        length: 20e-3,
        inlet_radius,
        nd,
        nz,
    };
    NestedMesh::from_coarse(spec.generate(), move |c, n| spec.classify(c, n))
}

/// A plume-like charge: a Gaussian blob on the axis that drifts
/// downstream with `step`, as successive PIC substeps deposit it, as
/// the right-hand side of `op` (0 on Dirichlet rows).
fn plume_rhs(nm: &NestedMesh, op: &PoissonOperator, step: usize) -> Vec<f64> {
    let w = 2e-3;
    nm.fine
        .nodes
        .iter()
        .zip(&op.is_boundary)
        .map(|(p, &grounded)| {
            let dz = p.z - (4e-3 + 1e-3 * step as f64);
            let q = 1e-15 * (-(p.x * p.x + p.y * p.y + dz * dz) / (w * w)).exp();
            if grounded {
                0.0
            } else {
                q / EPS0
            }
        })
        .collect()
}

const ENGINE: KrylovOptions = KrylovOptions {
    rtol: 1e-6,
    max_iters: 1000,
};

#[test]
fn team_cg_is_serial_cg_on_the_benchmark_operators() {
    for lattice in LATTICES {
        let name = lattice.0;
        let nm = nested(lattice);
        let op = PoissonOperator::assemble(&nm.fine);
        let nest = Nesting::of(&op, &nm.fine.bisected);
        let sys = (&op.matrix, &op.preconditioner, &nest);
        let n = op.matrix.nrows();
        assert!(n > 3 * DET_DOT_BLOCK, "{name}: {n} nodes fill four lanes");
        // a drifting charge, as successive PIC substeps deposit: an
        // oscillating one, then the plume
        let wave = (0..3).map(|step| {
            (0..n)
                .map(|i| {
                    let q = 1e-15 * (0.37 * i as f64 + 0.1 * step as f64).sin();
                    if op.is_boundary[i] {
                        0.0
                    } else {
                        q / EPS0
                    }
                })
                .collect()
        });
        let plume = (0..3).map(|step| plume_rhs(&nm, &op, step));
        let rhs: Vec<Vec<f64>> = wave.chain(plume).collect();
        let solved = assert_team_is_serial(name, sys, &rhs, &vec![0.0; n], ENGINE);
        assert!(
            solved.iter().all(|(s, _)| s.converged && s.iterations > 0),
            "{name}: {solved:?}"
        );
        // b = 0 from a nonzero start, then a warm start that has
        // already converged
        let x0 = solved[5].1.clone();
        let zero = assert_team_is_serial(name, sys, &[vec![0.0; n]], &x0, ENGINE);
        assert_eq!(zero[0].0.iterations, 0);
        assert!(zero[0].1.iter().all(|&v| v == 0.0));
        let again = assert_team_is_serial(name, sys, &rhs[5..], &x0, ENGINE);
        assert!(again[0].0.converged, "{name}: {again:?}");
        for max_iters in [0, 1, 7] {
            let capped = KrylovOptions {
                rtol: 1e-14,
                max_iters,
            };
            let stats = assert_team_is_serial(name, sys, &rhs[..1], &vec![0.0; n], capped);
            assert_eq!(stats[0].0.iterations, max_iters, "{name}");
            assert!(!stats[0].0.converged, "{name}");
        }
    }
}

/// `‖b − A x‖ / ‖b‖`, computed afresh (CG tracks only its recurrence).
fn true_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.mul_vec(x);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(b, ax)| b - ax).collect();
    det_dot(&r, &r).sqrt() / det_dot(b, b).sqrt()
}

fn norm(v: &[f64]) -> f64 {
    det_dot(v, v).sqrt()
}

/// An estimate of the 2-norm condition number of `op` on its interior
/// (the Dirichlet rows are decoupled identity): the Rayleigh quotients
/// of 60 power steps and of 12 inverse steps, each inverse step a tight
/// two-level solve. Both quotients lie inside the spectrum, so the
/// estimate is no larger than κ.
fn interior_condition(op: &PoissonOperator) -> f64 {
    let a = &op.matrix;
    let n = a.nrows();
    let start: Vec<f64> = (0..n)
        .map(|i| {
            if op.is_boundary[i] {
                0.0
            } else {
                1.0 + 0.1 * (i as f64).sin()
            }
        })
        .collect();
    let rayleigh = |v: &[f64]| det_dot(v, &a.mul_vec(v)) / det_dot(v, v);
    let mut v = start.clone();
    for _ in 0..60 {
        let w = a.mul_vec(&v);
        let s = norm(&w);
        v = w.iter().map(|x| x / s).collect();
    }
    let lambda_max = rayleigh(&v);
    let tight = KrylovOptions {
        rtol: 1e-10,
        max_iters: 1000,
    };
    let mut ws = CgWorkspace::new(n);
    let mut v = start;
    for _ in 0..12 {
        let mut w = vec![0.0; n];
        let stats = ws.solve(
            a,
            &op.preconditioner,
            &v,
            &mut w,
            tight,
            &Pool::serial(),
            None,
        );
        assert!(stats.converged);
        let s = norm(&w);
        v = w.iter().map(|x| x / s).collect();
    }
    lambda_max / rayleigh(&v)
}

#[test]
fn team_cg_two_level_solutions_are_jacobi_solutions_in_a_third_of_the_iterations() {
    let mut jacobi_mean = Vec::new();
    for lattice in LATTICES {
        let name = lattice.0;
        let nm = nested(lattice);
        let op = PoissonOperator::assemble(&nm.fine);
        let n = op.matrix.nrows();
        let kappa = interior_condition(&op);
        let mut ws = CgWorkspace::new(n);
        let (mut x, mut xj) = (vec![0.0; n], vec![0.0; n]);
        let (mut iters, mut iters_j) = (Vec::new(), Vec::new());
        for step in 0..4 {
            let b = plume_rhs(&nm, &op, step);
            let stats = ws.solve(
                &op.matrix,
                &op.preconditioner,
                &b,
                &mut x,
                ENGINE,
                &Pool::serial(),
                None,
            );
            let sj = serial_cg(&op.matrix, &b, &mut xj, ENGINE, &mut Vec::new());
            assert!(
                stats.converged && sj.converged,
                "{name} {step}: {stats:?} {sj:?}"
            );
            let res = true_residual(&op.matrix, &b, &x);
            assert!(
                res <= 10.0 * ENGINE.rtol,
                "{name} {step}: true residual {res:e}"
            );
            let diff: Vec<f64> = x.iter().zip(&xj).map(|(a, b)| a - b).collect();
            let rel = norm(&diff) / norm(&xj);
            assert!(
                rel <= kappa * ENGINE.rtol,
                "{name} {step}: |φ − φ_Jacobi| / |φ_Jacobi| = {rel:e} > κ·rtol, κ ≈ {kappa:.0}"
            );
            iters.push(stats.iterations);
            iters_j.push(sj.iterations);
        }
        assert!(iters.iter().all(|&k| k < 20), "{name}: {iters:?}");
        eprintln!("{name}: κ ≈ {kappa:.0}, two-level {iters:?}, Jacobi {iters_j:?}");
        jacobi_mean.push(iters_j.iter().sum::<usize>() as f64 / iters_j.len() as f64);
    }
    // Jacobi's count grows with the lattice (field_serial is the finer
    // one); the two-level count stays below 20 on both
    assert!(jacobi_mean[0] > jacobi_mean[1], "{jacobi_mean:?}");
}

#[test]
fn team_cg_coarse_level_is_the_coarse_mesh() {
    for lattice in LATTICES.into_iter().chain(CANNED) {
        let name = lattice.0;
        let nm = nested(lattice);
        let (fine, coarse) = (
            PoissonOperator::assemble(&nm.fine),
            PoissonOperator::assemble(&nm.coarse),
        );
        let nc = nm.coarse.num_nodes();
        assert_eq!(nm.fine.num_nodes(), nc + nm.fine.bisected.len(), "{name}");
        // a coarse node is Dirichlet on the fine mesh exactly when it
        // is on the coarse mesh
        assert_eq!(fine.is_boundary[..nc], coarse.is_boundary[..], "{name}");
        // the coarse solve inverts the coarse stiffness matrix K on
        // the interior rows: Ac⁻¹ K = I, column by column, to within
        // κ(Ac)·1e-12 — what a relative error of 1e-12 in Ac = Pᵀ A P
        // becomes through its inverse
        let pre = &fine.preconditioner;
        let unknowns: Vec<usize> = (0..nc).filter(|&i| !coarse.is_boundary[i]).collect();
        let nu = unknowns.len();
        assert_eq!(pre.coarse_unknowns(), nu, "{name}");
        let mut slot = vec![usize::MAX; nc];
        for (j, &i) in unknowns.iter().enumerate() {
            slot[i] = j;
        }
        // K and Ac⁻¹ on vectors over the unknowns: row i of K as
        // (unknown, entry) pairs
        let (k, slot) = (&coarse, &slot);
        let k_row = move |i: usize| {
            k.matrix
                .row(i)
                .filter(move |&(l, _)| !k.is_boundary[l])
                .map(move |(l, a)| (slot[l], a))
        };
        let k_mul = |v: &[f64]| -> Vec<f64> {
            unknowns
                .iter()
                .map(|&i| k_row(i).map(|(l, a)| a * v[l]).sum())
                .collect()
        };
        let ac_solve = |v: &[f64]| -> Vec<f64> {
            let mut e: Vec<f64> = v.iter().copied().chain([0.0]).collect();
            pre.coarse_solve(&mut e);
            assert_eq!(e[nu], 0.0, "{name}: the zero slot is left alone");
            e.truncate(nu);
            e
        };
        let unit = |v: Vec<f64>| {
            let s = norm(&v);
            v.into_iter().map(|x| x / s).collect::<Vec<f64>>()
        };
        // κ(Ac) from 60 power steps on K and 30 inverse steps through
        // the coarse solve (Rayleigh quotients: an underestimate)
        let start: Vec<f64> = (0..nu).map(|j| 1.0 + 0.1 * (j as f64).sin()).collect();
        let mut v = unit(start.clone());
        for _ in 0..60 {
            v = unit(k_mul(&v));
        }
        let lambda_max = det_dot(&v, &k_mul(&v));
        let mut v = unit(start);
        for _ in 0..30 {
            v = unit(ac_solve(&v));
        }
        let kappa = lambda_max * det_dot(&v, &ac_solve(&v));
        let mut worst = 0.0f64;
        for (j, &i) in unknowns.iter().enumerate() {
            // column j of K is row i (K is symmetric)
            let mut column = vec![0.0; nu];
            for (l, a) in k_row(i) {
                column[l] = a;
            }
            let mut e = ac_solve(&column);
            e[j] -= 1.0;
            worst = worst.max(norm(&e));
        }
        eprintln!("{name}: κ(Ac) ≈ {kappa:.0}, max_j |Ac⁻¹ K e_j − e_j| = {worst:e}");
        assert!(
            worst <= 1e-12 * kappa,
            "{name}: |Ac⁻¹ K e_j − e_j| = {worst:e}, κ(Ac) ≈ {kappa:.0}"
        );
    }
}

/// `scale · tridiag(−1, 2.5, −1)`: diagonally dominant, so CG
/// converges in a few dozen iterations at any `n` when `scale > 0`.
fn shifted_laplacian(n: usize, scale: f64) -> CsrMatrix {
    let mut b = CooBuilder::new(n, n);
    for i in 0..n {
        b.add(i, i, 2.5 * scale);
        if i > 0 {
            b.add(i, i - 1, -scale);
        }
        if i + 1 < n {
            b.add(i, i + 1, -scale);
        }
    }
    b.build()
}

fn wave(n: usize, k: f64) -> Vec<f64> {
    (0..n).map(|i| (k * i as f64).sin()).collect()
}

const TIGHT: KrylovOptions = KrylovOptions {
    rtol: 1e-10,
    max_iters: 400,
};

/// `a` with no nesting: its preconditioner is Jacobi alone.
fn bare(a: &CsrMatrix) -> (TwoLevel, Nesting) {
    (TwoLevel::new(a, &[], &[]), Nesting::none(a.nrows()))
}

#[test]
fn team_cg_is_serial_cg_below_one_block_and_off_the_block_grid() {
    // one partial block; three blocks with a short last one (four
    // lanes capped at three); exactly two full blocks
    for n in [700, 2500, 2 * DET_DOT_BLOCK] {
        let a = shifted_laplacian(n, 1.0);
        let (two, nest) = bare(&a);
        let b = a.mul_vec(&wave(n, 0.01));
        let stats = assert_team_is_serial(
            &format!("n = {n}"),
            (&a, &two, &nest),
            &[b],
            &vec![0.0; n],
            TIGHT,
        );
        assert!(stats[0].0.converged, "n = {n}: {stats:?}");
    }
}

#[test]
fn team_cg_is_serial_cg_on_a_zero_rhs() {
    let n = 3000;
    let a = shifted_laplacian(n, 1.0);
    let (two, nest) = bare(&a);
    // a nonzero start, so the zeroing of x is what is checked
    let stats = assert_team_is_serial(
        "b = 0",
        (&a, &two, &nest),
        &[vec![0.0; n]],
        &wave(n, 0.3),
        TIGHT,
    );
    assert_eq!(
        stats[0].0,
        SolveStats {
            iterations: 0,
            rel_residual: 0.0,
            converged: true
        }
    );
}

#[test]
fn team_cg_is_serial_cg_when_the_warm_start_has_converged() {
    let n = 3000;
    let a = shifted_laplacian(n, 1.0);
    let (two, nest) = bare(&a);
    let x0 = wave(n, 0.02);
    let b = a.mul_vec(&x0);
    let stats = assert_team_is_serial("converged start", (&a, &two, &nest), &[b], &x0, TIGHT);
    assert_eq!(stats[0].0.iterations, 0);
    assert!(stats[0].0.converged);
}

#[test]
fn team_cg_is_serial_cg_at_a_breakdown() {
    // negative definite: p·Ap < 0 on the first iteration
    let n = 3000;
    let a = shifted_laplacian(n, -1.0);
    let (two, nest) = bare(&a);
    let b = wave(n, 0.05);
    let stats = assert_team_is_serial("pap <= 0", (&a, &two, &nest), &[b], &vec![0.0; n], TIGHT);
    assert!(!stats[0].0.converged, "{stats:?}");
    assert_eq!(stats[0].0.iterations, 0);
}

#[test]
fn team_cg_is_serial_cg_at_the_iteration_cap() {
    let n = 3000;
    let a = shifted_laplacian(n, 1.0);
    let (two, nest) = bare(&a);
    let b = a.mul_vec(&wave(n, 0.01));
    for max_iters in [0, 1, 7] {
        let opts = KrylovOptions {
            rtol: 1e-14,
            max_iters,
        };
        let sys = (&a, &two, &nest);
        let stats =
            assert_team_is_serial("capped", sys, std::slice::from_ref(&b), &vec![0.0; n], opts);
        assert_eq!(stats[0].0.iterations, max_iters);
        assert!(!stats[0].0.converged);
    }
}

#[test]
fn team_cg_is_serial_cg_over_many_short_iterations() {
    // four blocks, a few µs of work per lane per phase and 1,500
    // iterations: nearly all of the solve is barrier crossings, which
    // is where a team with more lanes than free cores spends its time
    let n = 3 * DET_DOT_BLOCK + 1;
    let a = shifted_laplacian(n, 1.0);
    let (two, nest) = bare(&a);
    let b = a.mul_vec(&wave(n, 0.01));
    let opts = KrylovOptions {
        rtol: 0.0,
        max_iters: 1500,
    };
    let sys = (&a, &two, &nest);
    let stats = assert_team_is_serial("1,500 iterations", sys, &[b], &vec![0.0; n], opts);
    assert_eq!(stats[0].0.iterations, 1500, "{stats:?}");
}
