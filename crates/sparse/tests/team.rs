//! The team CG is the serial CG, bit for bit: every lane count gives
//! the iteration count, every residual-history entry and every bit of
//! `x` that a single-threaded Jacobi-CG with block-ordered inner
//! products gives — on the Poisson operators the benchmark's lattices
//! assemble and on the edge cases of the iteration.
//!
//! `scripts/verify.sh` also runs these pinned to one CPU: a barrier
//! that spins instead of yielding the core shows up there as a timeout.

use kernels::Pool;
use mesh::{NestedMesh, NozzleSpec};
use pic::{PoissonOperator, EPS0};
use sparse::{CgWorkspace, CooBuilder, CsrMatrix, KrylovOptions, SolveStats, DET_DOT_BLOCK};

/// Inner product as the serial solver forms it: left-to-right within
/// each [`DET_DOT_BLOCK`] block, the block sums folded in order from 0.
fn det_dot(a: &[f64], b: &[f64]) -> f64 {
    a.chunks(DET_DOT_BLOCK)
        .zip(b.chunks(DET_DOT_BLOCK))
        .fold(0.0, |acc, (x, y)| {
            acc + x.iter().zip(y).map(|(x, y)| x * y).sum::<f64>()
        })
}

/// The oracle: Jacobi-preconditioned CG, one thread, whole vectors.
fn serial_cg(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    opts: KrylovOptions,
    history: &mut Vec<f64>,
) -> SolveStats {
    let n = b.len();
    let inv_diag: Vec<f64> = a
        .diagonal()
        .iter()
        .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
        .collect();
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
    let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(r, d)| r * d).collect();
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
        for i in 0..n {
            z[i] = r[i] * inv_diag[i];
        }
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

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Solve the sequence `rhs` (each warm-started from the last `x`,
/// starting at `x0`) with the oracle and with a kept workspace on 1–4
/// lanes; assert every lane count reproduces the oracle's stats,
/// history and iterates. Returns the oracle's stats.
fn assert_team_is_serial(
    what: &str,
    a: &CsrMatrix,
    rhs: &[Vec<f64>],
    x0: &[f64],
    opts: KrylovOptions,
) -> Vec<SolveStats> {
    let mut x = x0.to_vec();
    let mut want = Vec::new();
    for b in rhs {
        let mut history = Vec::new();
        let stats = serial_cg(a, b, &mut x, opts, &mut history);
        want.push((stats, bits(&history), bits(&x)));
    }
    for lanes in 1..=4 {
        let pool = Pool::new(lanes);
        let mut ws = CgWorkspace::new(a);
        let mut x = x0.to_vec();
        for (k, (b, (stats, history, xs))) in rhs.iter().zip(&want).enumerate() {
            let mut got = Vec::new();
            let got_stats = ws.solve(a, b, &mut x, opts, &pool, Some(&mut got));
            let at = format!("{what}, solve {k}, {lanes} lanes");
            assert_eq!(got_stats, *stats, "{at}");
            assert_eq!(bits(&got), *history, "{at}: history");
            assert_eq!(bits(&x), *xs, "{at}: x");
        }
    }
    want.into_iter().map(|(stats, _, _)| stats).collect()
}

/// Name, `nd`, `nz` and inlet radius of the lattices the benchmark's
/// `field_serial` and jet workloads run on.
const LATTICES: [(&str, usize, usize, f64); 2] =
    [("field_serial", 8, 20, 3e-3), ("jet", 6, 12, 0.8e-3)];

#[test]
fn team_cg_is_serial_cg_on_the_benchmark_operators() {
    for (name, nd, nz, inlet_radius) in LATTICES {
        let spec = NozzleSpec {
            radius: 5e-3,
            length: 20e-3,
            inlet_radius,
            nd,
            nz,
        };
        let nm = NestedMesh::from_coarse(spec.generate(), move |c, n| spec.classify(c, n));
        let op = PoissonOperator::assemble(&nm.fine);
        let n = op.matrix.nrows();
        assert!(n > 3 * DET_DOT_BLOCK, "{name}: {n} nodes fill four lanes");
        // a drifting charge, as successive PIC substeps deposit
        let rhs: Vec<Vec<f64>> = (0..3)
            .map(|step| {
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
            })
            .collect();
        let opts = KrylovOptions {
            rtol: 1e-6,
            max_iters: 1000,
        };
        let stats = assert_team_is_serial(name, &op.matrix, &rhs, &vec![0.0; n], opts);
        assert!(
            stats.iter().all(|s| s.converged && s.iterations > 0),
            "{name}: {stats:?}"
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

#[test]
fn team_cg_is_serial_cg_below_one_block_and_off_the_block_grid() {
    // one partial block; three blocks with a short last one (four
    // lanes capped at three); exactly two full blocks
    for n in [700, 2500, 2 * DET_DOT_BLOCK] {
        let a = shifted_laplacian(n, 1.0);
        let b = a.mul_vec(&wave(n, 0.01));
        let stats = assert_team_is_serial(&format!("n = {n}"), &a, &[b], &vec![0.0; n], TIGHT);
        assert!(stats[0].converged, "n = {n}: {stats:?}");
    }
}

#[test]
fn team_cg_is_serial_cg_on_a_zero_rhs() {
    let n = 3000;
    let a = shifted_laplacian(n, 1.0);
    // a nonzero start, so the zeroing of x is what is checked
    let stats = assert_team_is_serial("b = 0", &a, &[vec![0.0; n]], &wave(n, 0.3), TIGHT);
    assert_eq!(
        stats,
        [SolveStats {
            iterations: 0,
            rel_residual: 0.0,
            converged: true
        }]
    );
}

#[test]
fn team_cg_is_serial_cg_when_the_warm_start_has_converged() {
    let n = 3000;
    let a = shifted_laplacian(n, 1.0);
    let x0 = wave(n, 0.02);
    let b = a.mul_vec(&x0);
    let stats = assert_team_is_serial("converged start", &a, &[b], &x0, TIGHT);
    assert_eq!(stats[0].iterations, 0);
    assert!(stats[0].converged);
}

#[test]
fn team_cg_is_serial_cg_at_a_breakdown() {
    // negative definite: p·Ap < 0 on the first iteration
    let n = 3000;
    let a = shifted_laplacian(n, -1.0);
    let b = wave(n, 0.05);
    let stats = assert_team_is_serial("pap <= 0", &a, &[b], &vec![0.0; n], TIGHT);
    assert!(!stats[0].converged, "{stats:?}");
    assert_eq!(stats[0].iterations, 0);
}

#[test]
fn team_cg_is_serial_cg_at_the_iteration_cap() {
    let n = 3000;
    let a = shifted_laplacian(n, 1.0);
    let b = a.mul_vec(&wave(n, 0.01));
    for max_iters in [0, 1, 7] {
        let opts = KrylovOptions {
            rtol: 1e-14,
            max_iters,
        };
        let stats =
            assert_team_is_serial("capped", &a, std::slice::from_ref(&b), &vec![0.0; n], opts);
        assert_eq!(stats[0].iterations, max_iters);
        assert!(!stats[0].converged);
    }
}

#[test]
fn team_cg_is_serial_cg_over_many_short_iterations() {
    // four blocks, a few µs of work per lane per phase and 1,500
    // iterations: nearly all of the solve is barrier crossings, which
    // is where a team with more lanes than free cores spends its time
    let n = 3 * DET_DOT_BLOCK + 1;
    let a = shifted_laplacian(n, 1.0);
    let b = a.mul_vec(&wave(n, 0.01));
    let opts = KrylovOptions {
        rtol: 0.0,
        max_iters: 1500,
    };
    let stats = assert_team_is_serial("1,500 iterations", &a, &[b], &vec![0.0; n], opts);
    assert_eq!(stats[0].iterations, 1500, "{stats:?}");
}
