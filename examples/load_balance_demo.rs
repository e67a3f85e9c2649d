//! Dynamic load balancing on the real threaded backend: run the same
//! plume on 4 rank-threads with and without the balancer and compare
//! measured wall-clock times and rebalance activity (the paper's §V
//! mechanism end-to-end, with genuinely parallel ranks).
//!
//! ```bash
//! cargo run --release --example load_balance_demo
//! ```

use coupled::prelude::*;

fn main() {
    let ranks = 4usize;
    let steps = 40usize;

    let base = RunConfig::builder()
        .paper(Dataset::D1, 0.08)
        .ranks(ranks)
        .steps(steps);

    println!("running {steps} DSMC steps on {ranks} rank-threads ...\n");

    // --- without load balancing -------------------------------------
    let no_lb = base.clone().rebalance(None).build().expect("valid config");
    let t0 = std::time::Instant::now();
    let res_no = run_threaded(&no_lb);
    let wall_no = t0.elapsed().as_secs_f64();

    // --- with the dynamic load balancer ------------------------------
    let with_lb = base
        .rebalance(Some(balance::RebalanceConfig {
            t_interval: 10,
            threshold: 1.5,
            ..Default::default()
        }))
        .build()
        .expect("valid config");
    let t0 = std::time::Instant::now();
    let res_lb = run_threaded(&with_lb);
    let wall_lb = t0.elapsed().as_secs_f64();

    println!(
        "without LB: wall {wall_no:.2}s, population {}, rebalances 0",
        res_no.population
    );
    println!(
        "with    LB: wall {wall_lb:.2}s, population {}, rebalances {}",
        res_lb.population, res_lb.rebalances
    );
    println!(
        "\nrank-0 measured breakdown (with LB):\n{}",
        res_lb.breakdown
    );
    println!(
        "communication: {} messages, {} bytes (with LB)",
        res_lb.transactions, res_lb.bytes
    );
    println!(
        "\nThe balancer re-decomposed the grid {} time(s): the paper's Algorithm 1\n\
         triggered on the measured load-imbalance indicator (eq. 6), re-partitioned\n\
         the coarse grid with the weighted load model (eq. 7) and remapped parts to\n\
         ranks with the Kuhn–Munkres algorithm to minimise migrated particles.",
        res_lb.rebalances
    );
}
