//! Criterion benchmarks for the Poisson path (assembly + CG, the
//! paper's scalability bottleneck) and the graph partitioner + KM
//! remapping used by the load balancer.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mesh::{NestedMesh, NozzleSpec};
use partition::{max_weight_assignment_sparse, part_graph_kway, Graph, KwayOptions};
use pic::PoissonSolver;
use sparse::KrylovOptions;

fn nested() -> NestedMesh {
    let spec = NozzleSpec {
        nd: 8,
        nz: 16,
        ..NozzleSpec::default()
    };
    let coarse = spec.generate();
    NestedMesh::from_coarse(coarse, move |c, n| spec.classify(c, n))
}

fn bench_poisson(c: &mut Criterion) {
    let nm = nested();
    c.bench_function("poisson/assemble", |b| {
        b.iter(|| black_box(PoissonSolver::new(&nm.fine, KrylovOptions::default())))
    });

    let mut solver = PoissonSolver::new(
        &nm.fine,
        KrylovOptions {
            rtol: 1e-6,
            max_iters: 1000,
        },
    );
    let interior = (0..nm.fine.num_nodes())
        .find(|&i| !solver.is_boundary[i])
        .unwrap();
    let mut q = vec![0.0; nm.fine.num_nodes()];
    q[interior] = 1e-15;
    c.bench_function("poisson/cg_solve_cold", |b| {
        b.iter(|| {
            // perturb so the warm start does not trivialize the solve
            q[interior] *= -1.0;
            let (_, stats) = solver.solve(&q);
            black_box(stats.iterations)
        })
    });
}

fn bench_partition(c: &mut Criterion) {
    let nm = nested();
    let (xadj, adjncy) = nm.coarse.cell_graph();
    let g = Graph::new(xadj, adjncy, vec![1; nm.num_coarse()]);
    c.bench_function("partition/kway_16", |b| {
        b.iter(|| black_box(part_graph_kway(&g, 16, KwayOptions::default())))
    });
    c.bench_function("partition/kway_64", |b| {
        b.iter(|| black_box(part_graph_kway(&g, 64, KwayOptions::default())))
    });
}

/// The assignment the balancer actually solves: overlap of particle
/// load between the parts of a load-weighted k-way decomposition and
/// the owners of the unweighted one, for a plume that loads only the
/// cells near the axis — almost every (part, rank) cell is zero. (A
/// dense `(i·7 + j·13) % 100` matrix at n ≤ 128, which this replaced,
/// is a shape remap never produces and hid the dense solver's k³.)
fn bench_hungarian(c: &mut Criterion) {
    let spec = NozzleSpec {
        nd: 10,
        nz: 20,
        ..NozzleSpec::default()
    };
    let mesh = spec.generate();
    let (xadj, adjncy) = mesh.cell_graph();
    let load: Vec<i64> = (0..mesh.num_cells())
        .map(|t| {
            let p = mesh.tet_pos(t);
            let (x, y, z) = (0..4).fold((0.0, 0.0, 0.0), |(x, y, z), v| {
                (x + p[v].x / 4.0, y + p[v].y / 4.0, z + p[v].z / 4.0)
            });
            if x.hypot(y) < spec.inlet_radius {
                (400.0 * (1.0 - z / spec.length)) as i64
            } else {
                0
            }
        })
        .collect();
    for k in [64usize, 384, 1536] {
        let unweighted = Graph::new(xadj.clone(), adjncy.clone(), vec![1; load.len()]);
        let old = part_graph_kway(&unweighted, k, KwayOptions::default());
        let weights = load.iter().map(|&l| 1 + 2 * l).collect();
        let weighted = Graph::new(xadj.clone(), adjncy.clone(), weights);
        let new = part_graph_kway(&weighted, k, KwayOptions::default());
        let cells: Vec<(usize, usize, i64)> = new
            .iter()
            .zip(&old)
            .zip(&load)
            .map(|((&p, &o), &l)| (p as usize, o as usize, l))
            .collect();
        c.bench_function(&format!("hungarian/remap_km_{k}"), |b| {
            b.iter(|| black_box(max_weight_assignment_sparse(k, cells.iter().copied())))
        });
    }
}

criterion_group!(benches, bench_poisson, bench_partition, bench_hungarian);
criterion_main!(benches);
