//! Cross-crate integration: the real threaded parallel solver against
//! the serial reference, and the two exchange strategies against each
//! other (the paper's §VII-A validation, at test scale).

use coupled::{run_serial, run_threaded, Dataset, RunConfig};
use kernels::Pool;
use mesh::{NestedMesh, NozzleSpec};
use particles::{sample, Particle, ParticleBuffer, SpeciesTable};
use pic::{deposit_charge_pooled, PoissonSolver};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sparse::{KrylovOptions, DET_DOT_BLOCK};
use vmpi::Strategy;

fn base_run(ranks: usize) -> RunConfig {
    RunConfig::builder()
        .paper(Dataset::D1, 0.03)
        .ranks(ranks)
        .seed(1234)
        .steps(20)
        .rebalance(None)
        .build()
        .expect("valid test config")
}

#[test]
fn parallel_population_tracks_serial() {
    let run4 = base_run(4);
    let ser = run_serial(&run4);
    let par = run_threaded(&run4);
    let rel = (par.population as f64 - ser.population as f64).abs() / ser.population.max(1) as f64;
    assert!(
        rel < 0.1,
        "serial {} vs parallel {}",
        ser.population,
        par.population
    );
}

#[test]
fn density_profiles_agree_between_rank_counts() {
    // 2 ranks vs 6 ranks: same physics, different decomposition
    let a = run_threaded(&base_run(2));
    let b = run_threaded(&base_run(6));
    let ta: f64 = a.density_h.iter().sum();
    let tb: f64 = b.density_h.iter().sum();
    assert!(
        (ta - tb).abs() / ta.max(1e-300) < 0.15,
        "2-rank {ta:e} vs 6-rank {tb:e}"
    );
}

#[test]
fn centralized_and_distributed_same_physics() {
    let mut dc = base_run(4);
    dc.strategy = Strategy::Distributed;
    let mut cc = base_run(4);
    cc.strategy = Strategy::Centralized;
    let rdc = run_threaded(&dc);
    let rcc = run_threaded(&cc);
    // identical seeds and identical exchange *semantics*: bit-equal
    // populations (only the message routing differs)
    assert_eq!(rdc.population, rcc.population);
    for (a, b) in rdc.density_h.iter().zip(&rcc.density_h) {
        assert!((a - b).abs() <= 1e-9 * a.abs().max(1.0), "{a} vs {b}");
    }
}

/// ISSUE acceptance: the sparse counts-first protocol must be a pure
/// message-schedule change — the full coupled pipeline ends in the
/// *identical* final particle state as under the distributed protocol,
/// bit for bit, at both an odd and an even rank count.
#[test]
fn sparse_matches_distributed_bitwise() {
    for ranks in [3usize, 4] {
        let mut dc = base_run(ranks);
        dc.strategy = Strategy::Distributed;
        let mut sp = base_run(ranks);
        sp.strategy = Strategy::Sparse;
        let rdc = run_threaded(&dc);
        let rsp = run_threaded(&sp);
        assert_eq!(rsp.population, rdc.population, "{ranks} ranks");
        assert_eq!(rsp.density_h, rdc.density_h, "{ranks} ranks");
        // the quiet plume flow leaves most rank pairs idle, so the
        // counts-first schedule sends strictly fewer messages
        assert!(
            rsp.transactions < rdc.transactions,
            "{ranks} ranks: sparse {} !< dc {}",
            rsp.transactions,
            rdc.transactions
        );
    }
}

/// Auto is a routing decision per exchange; it must leave the physics
/// bitwise untouched too.
#[test]
fn auto_matches_distributed_bitwise() {
    let mut dc = base_run(4);
    dc.strategy = Strategy::Distributed;
    let mut auto = base_run(4);
    auto.strategy = Strategy::Auto;
    let rdc = run_threaded(&dc);
    let rauto = run_threaded(&auto);
    assert_eq!(rauto.population, rdc.population);
    assert_eq!(rauto.density_h, rdc.density_h);
    assert!(
        rauto.strategy_uses.iter().sum::<u64>() > 0,
        "auto never resolved a concrete strategy"
    );
}

#[test]
fn transaction_counts_reflect_strategy() {
    let mut dc = base_run(5);
    dc.strategy = Strategy::Distributed;
    let mut cc = base_run(5);
    cc.strategy = Strategy::Centralized;
    let rdc = run_threaded(&dc);
    let rcc = run_threaded(&cc);
    // distributed: ~N(N-1) per exchange; centralized: ~2(N-1) plus
    // collectives. DC must send far more messages overall.
    assert!(
        rdc.transactions > rcc.transactions,
        "DC {} !> CC {}",
        rdc.transactions,
        rcc.transactions
    );
    // ... while CC moves at least as many bytes (everything twice,
    // minus root-local traffic)
    assert!(rcc.bytes as f64 >= rdc.bytes as f64 * 0.8);
}

/// The ISSUE acceptance criterion for intra-rank threading: running
/// the field pipeline (deposit → Poisson/CG) with 1 worker and with 4
/// workers must produce *bitwise identical* node charge and an
/// *identical* CG residual history. Deposition replays contribution
/// logs in particle order and CG reduces inner products in fixed-size
/// blocks, so worker count must not leak into a single bit.
#[test]
fn worker_count_invariant_deposit_and_cg_history() {
    let spec = NozzleSpec {
        nd: 8,
        nz: 20,
        ..NozzleSpec::default()
    };
    let coarse = spec.generate();
    let nm = NestedMesh::from_coarse(coarse, move |c, n| spec.classify(c, n));
    // the field solve gives a lane four blocks at least
    assert!(
        nm.fine.num_nodes() > 8 * DET_DOT_BLOCK,
        "test premise: blocks for two CG lanes, {} nodes",
        nm.fine.num_nodes()
    );
    let (table, h, hp) = SpeciesTable::hydrogen_plasma(1.0, 100.0);

    // mixed population: charged ions among neutral background
    let mut buf = ParticleBuffer::new();
    let mut rng = StdRng::seed_from_u64(99);
    for k in 0..400u64 {
        let c = (k as usize * 13) % nm.num_coarse();
        let p = nm.coarse.tet_pos(c);
        buf.push(Particle {
            pos: sample::point_in_tet(&mut rng, p[0], p[1], p[2], p[3]),
            vel: mesh::Vec3::ZERO,
            cell: c as u32,
            species: if k % 3 == 0 { hp } else { h },
            id: k,
        });
    }

    let opts = KrylovOptions {
        rtol: 1e-10,
        max_iters: 400,
    };
    let solve = |workers: usize| {
        let pool = Pool::new(workers);
        let mut q = vec![0.0f64; nm.fine.num_nodes()];
        deposit_charge_pooled(&nm, &buf, &table, &mut q, &pool);
        let mut solver = PoissonSolver::new(&nm.fine, opts);
        let mut hist = Vec::new();
        let (phi, stats) = solver.solve_with(&q, &pool, Some(&mut hist));
        (q, phi.to_vec(), hist, stats.iterations)
    };

    let (q1, phi1, hist1, it1) = solve(1);
    let (q4, phi4, hist4, it4) = solve(4);

    assert_eq!(q1, q4, "deposited charge differs between 1 and 4 workers");
    assert_eq!(it1, it4, "CG iteration count differs");
    assert_eq!(hist1.len(), it1 + 1, "history records every iteration");
    assert_eq!(hist1, hist4, "CG residual history differs");
    assert_eq!(phi1, phi4, "potential differs");
    assert!(hist1.last().unwrap() <= &opts.rtol, "CG did not converge");
}

#[test]
fn load_balanced_run_matches_unbalanced_physics() {
    let mut plain = base_run(4);
    plain.steps = 24;
    let mut lb = plain.clone();
    lb.rebalance = Some(balance::RebalanceConfig {
        t_interval: 8,
        threshold: 1.2,
        ..Default::default()
    });
    let a = run_threaded(&plain);
    let b = run_threaded(&lb);
    let rel = (a.population as f64 - b.population as f64).abs() / a.population.max(1) as f64;
    assert!(
        rel < 0.1,
        "LB changed the physics: {} vs {}",
        a.population,
        b.population
    );
}
