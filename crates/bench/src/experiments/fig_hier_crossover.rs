//! Modelled exchange-strategy crossover over the paper's rank ladder,
//! extended to the hierarchical protocol (DESIGN.md §11). Evaluates
//! the α–β `CostModel` on the Tianhe-3 profile for every concrete
//! strategy against two migration shapes per rank count:
//!
//! * `uniform`: 1 KiB between every ordered pair — the saturated
//!   plume where per-operation latency dominates. CC wins the small
//!   worlds (the root's 2(N−1) serialized sends dodge the contended
//!   `per_op`), but from 384 ranks up the node-level trunk aggregation
//!   makes Hier the cheapest: its leaders pay one frame per active
//!   node pair instead of one per rank pair.
//! * `quiet`: two nonzero pairs (one of them cross-node) — the settled
//!   flow where Sparse's pay-per-pair bill stays flat. Sparse owns the
//!   small and mid ladder; at 768+ ranks even its two log-depth count
//!   fences cost more than routing the two payloads through leaders,
//!   and Hier edges ahead.
//!
//! Purely analytic (no simulation), so the full ladder runs in
//! milliseconds. Writes `fig_hier_crossover.csv`.

use crate::{strat_name, write_csv, RANK_LADDER};
use coupled::report::table;
use coupled::{CostModel, MachineProfile};
use vmpi::Strategy;

fn uniform(n: usize) -> Vec<Vec<u64>> {
    (0..n)
        .map(|s| (0..n).map(|d| if s == d { 0 } else { 1024 }).collect())
        .collect()
}

/// Two migrating pairs; the second crosses a node boundary on every
/// profile (rank 3 → the far end of the world).
fn quiet(n: usize) -> Vec<Vec<u64>> {
    let mut m = vec![vec![0u64; n]; n];
    m[1][3 % n] = 61 * 32;
    m[3][n - 2] = 61 * 64;
    m
}

pub fn run() {
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (kind, matrix) in [
        ("uniform", uniform as fn(usize) -> Vec<Vec<u64>>),
        ("quiet", quiet),
    ] {
        for &ranks in &RANK_LADDER {
            let cost = CostModel::new(MachineProfile::tianhe3(), ranks);
            let m = matrix(ranks);
            let times: Vec<(Strategy, f64)> = Strategy::CONCRETE
                .into_iter()
                .zip(cost.exchange_times(&m))
                .collect();
            let &(winner, _) = times
                .iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
                .expect("CONCRETE is non-empty");
            assert_eq!(winner, cost.pick_strategy(&m), "Auto must agree");
            let mut row = vec![kind.to_string(), ranks.to_string()];
            for &(s, t) in &times {
                row.push(format!("{:.3}", t * 1e3));
                csv_rows.push(vec![
                    kind.to_string(),
                    ranks.to_string(),
                    strat_name(s).to_string(),
                    format!("{:.6}", t * 1e3),
                    (s == winner).to_string(),
                ]);
            }
            row.push(strat_name(winner).to_string());
            rows.push(row);
        }
    }

    println!("modelled exchange time (ms), Tianhe-3 profile, by migration shape");
    let headers = [
        "matrix",
        "ranks",
        "CC_ms",
        "DC_ms",
        "Sparse_ms",
        "Hier_ms",
        "winner",
    ];
    println!("{}", table(&headers, &rows));
    write_csv(
        "fig_hier_crossover.csv",
        &["matrix", "ranks", "strategy", "time_ms", "winner"],
        &csv_rows,
    );
    println!(
        "shape: CC leads uniform traffic until node-level aggregation pays off\n\
         (trunk frames scale with node pairs, not rank pairs — Hier from 384\n\
         ranks); Sparse owns quiet steps until the very top of the ladder."
    );

    // The headline crossover the EXPERIMENTS.md entry records.
    let cost = CostModel::new(MachineProfile::tianhe3(), 1536);
    assert_eq!(
        cost.pick_strategy(&uniform(1536)),
        Strategy::Hier,
        "1536-rank uniform traffic must resolve to the hierarchical strategy"
    );
    println!("[ok] 1536-rank uniform crossover resolves to Hier");
}
