//! Layer probes that do not need a stepping engine: the `vmpi`
//! exchange protocols on a persistent world, and `partition` /
//! `balance` on a twin's final state at the paper's 384 ranks.

use crate::ledger::Twin;
use crate::spans::Tracer;
use crate::stats;
use balance::{RebalanceConfig, RebalanceOutcome, Rebalancer};
use partition::{Graph, KwayOptions};
use std::time::Instant;
use vmpi::{exchange_into, run_world, traffic, Comm, Strategy};

/// Virtual ranks of the partition and balance probes (the modelled
/// workload's rank count).
pub const PROBE_RANKS: usize = 384;

/// One exchange case: strategy × migration matrix × world size.
#[derive(Debug, Clone)]
pub struct ExchangeCase {
    /// `<strategy>.<matrix>.r<ranks>`, the metric-name suffix.
    pub key: String,
    pub us_per_exchange: f64,
    pub transactions: u64,
    pub bytes: u64,
    /// More rank threads than CPUs: the time is not comparable across
    /// hosts and is excluded from bounds; the counts are exact.
    pub oversubscribed: bool,
    /// How the measured counts differ from the closed-form
    /// `vmpi::traffic`, if they do.
    pub mismatch: Option<String>,
}

const STRATEGIES: [(&str, Strategy); 4] = [
    ("cc", Strategy::Centralized),
    ("dc", Strategy::Distributed),
    ("sparse", Strategy::Sparse),
    ("hier", Strategy::Hier),
];

/// The cases of the probe, in metric order: every strategy on a quiet
/// and a dense matrix at 4 ranks, then the two paper strategies on the
/// dense matrix at 2 ranks (the only world that fits this host).
pub fn exchange_case_keys() -> Vec<(String, Strategy, bool, usize)> {
    let mut cases = Vec::new();
    for (label, strategy) in STRATEGIES {
        for (kind, dense) in [("quiet", false), ("dense", true)] {
            cases.push((format!("{label}.{kind}.r4"), strategy, dense, 4));
        }
    }
    cases.push(("dc.dense.r2".to_string(), Strategy::Distributed, true, 2));
    cases.push(("cc.dense.r2".to_string(), Strategy::Centralized, true, 2));
    cases
}

/// Migration byte matrix: `dense` fills every ordered pair with 32
/// wire particles; quiet keeps two nonzero pairs, the shape of a
/// settled flow.
fn migration_matrix(n: usize, dense: bool) -> Vec<Vec<u64>> {
    let payload = (particles::PACKED_SIZE * 32) as u64;
    let mut m = vec![vec![0u64; n]; n];
    if dense {
        for (s, row) in m.iter_mut().enumerate() {
            for (d, entry) in row.iter_mut().enumerate() {
                if s != d {
                    *entry = payload;
                }
            }
        }
    } else {
        m[1][3 % n] = payload;
        m[n - 2][0] = payload / 2;
    }
    m
}

/// Time `rounds` exchanges inside ONE world: spawn, barrier, timed
/// exchanges, barrier, rank 0 reports. Thread spawn and join stay
/// outside the timed region (the flaw of the old `bench_snapshot`
/// rows, which timed `run_world` itself).
fn exchange_case(
    key: &str,
    strategy: Strategy,
    dense: bool,
    n: usize,
    rounds: usize,
) -> ExchangeCase {
    const WARMUP: usize = 10;
    let m = migration_matrix(n, dense);
    let results = run_world(n, |c| {
        let mut outgoing: Vec<Vec<u8>> = (0..n)
            .map(|d| vec![0xA5u8; m[c.rank()][d] as usize])
            .collect();
        let mut incoming = Vec::new();
        for _ in 0..WARMUP {
            exchange_into(&c, strategy, &mut outgoing, &mut incoming).expect("clean wire");
        }
        c.barrier().expect("clean wire");
        if c.rank() == 0 {
            c.stats().reset();
        }
        c.barrier().expect("clean wire");
        let t = Instant::now();
        for _ in 0..rounds {
            exchange_into(&c, strategy, &mut outgoing, &mut incoming).expect("clean wire");
        }
        c.barrier().expect("clean wire");
        let seconds = t.elapsed().as_secs_f64();
        let delivered: usize = incoming.iter().map(Vec::len).sum();
        let expected: u64 = (0..n).map(|s| m[s][c.rank()]).sum();
        assert_eq!(delivered as u64, expected, "exchange lost bytes");
        (seconds, c.stats().transactions(), c.stats().bytes())
    });
    let (seconds, tx, bytes) = results[0];
    let model = traffic(strategy, &m);
    let rounds = rounds as u64;
    let (tx_each, bytes_each) = (tx / rounds, bytes / rounds);
    ExchangeCase {
        key: key.to_string(),
        us_per_exchange: seconds * 1e6 / rounds as f64,
        transactions: tx_each,
        bytes: bytes_each,
        oversubscribed: n > crate::host::nproc(),
        mismatch: (tx % rounds != 0
            || bytes % rounds != 0
            || tx_each != model.transactions
            || bytes_each != model.total_bytes)
            .then(|| {
                format!(
                    "{key}: measured {tx} tx / {bytes} B over {rounds} exchanges, closed form {} tx / {} B each",
                    model.transactions, model.total_bytes
                )
            }),
    }
}

pub fn exchange_probe(tr: &mut Tracer, rounds: usize) -> Vec<ExchangeCase> {
    exchange_case_keys()
        .into_iter()
        .map(|(key, strategy, dense, n)| {
            let span = tr.begin(&format!("vmpi.exchange.{key}"));
            let case = exchange_case(&key, strategy, dense, n, rounds);
            tr.end(span);
            case
        })
        .collect()
}

/// `partition` and `balance` on one state.
#[derive(Debug, Clone, Default)]
pub struct DecompProbe {
    pub kway_s: f64,
    pub kway_edge_cut: i64,
    pub kway_imbalance: f64,
    pub hungarian_s: f64,
    pub rebalance_s_p50: f64,
    pub lii_before: f64,
    pub lii_after: f64,
    pub migrated_fraction: f64,
}

/// Heaviest rank's particle load over the mean rank load.
fn load_imbalance(owner: &[u32], load: &[u64], k: usize) -> f64 {
    let mut per_rank = vec![0u64; k];
    for (&o, &l) in owner.iter().zip(load) {
        per_rank[o as usize] += l;
    }
    let total: u64 = per_rank.iter().sum();
    let max = per_rank.iter().copied().max().unwrap_or(0);
    if total == 0 {
        1.0
    } else {
        max as f64 * k as f64 / total as f64
    }
}

/// Decompose the twin's final state over [`PROBE_RANKS`] ranks the way
/// the modelled driver does: unweighted k-way as the starting owner
/// map, then one full `Rebalancer::step` (weighted k-way +
/// Kuhn–Munkres remap), repeated `reps` times for a median.
pub fn decomposition_probe(twin: &Twin, tr: &mut Tracer, reps: usize) -> DecompProbe {
    let k = PROBE_RANKS;
    let (xadj, adjncy) = &twin.cell_graph;
    let (neutral, charged) = &twin.cell_counts;
    let load: Vec<u64> = neutral.iter().zip(charged).map(|(&n, &c)| n + c).collect();
    let unweighted = Graph::new(xadj.clone(), adjncy.clone(), vec![1; load.len()]);
    let old_owner = partition::part_graph_kway(&unweighted, k, KwayOptions::default());

    // partition: weighted k-way on the workload's own cell graph
    let weights: Vec<i64> = load.iter().map(|&l| l as i64 + 1).collect();
    let weighted = Graph::new(xadj.clone(), adjncy.clone(), weights);
    let (part, kway_s) = tr.time("partition.kway384", || {
        partition::part_graph_kway(&weighted, k, KwayOptions::default())
    });

    // the 384×384 assignment the KM remap solves: overlap of particle
    // load between every new part and every old owner
    let mut overlap = vec![vec![0i64; k]; k];
    for ((&p, &o), &l) in part.iter().zip(&old_owner).zip(&load) {
        overlap[p as usize][o as usize] += l as i64;
    }
    let (_, hungarian_s) = tr.time("partition.hungarian384", || {
        std::hint::black_box(partition::max_weight_assignment(&overlap))
    });

    let mut seconds = Vec::with_capacity(reps);
    let mut lii_after = 0.0;
    let mut migrated = 0u64;
    let lii_before = load_imbalance(&old_owner, &load, k);
    for _ in 0..reps.max(1) {
        let mut rb = Rebalancer::new(RebalanceConfig {
            t_interval: 1,
            threshold: 0.0,
            ..RebalanceConfig::default()
        });
        let (outcome, s) = tr.time("balance.rebalance", || {
            rb.step(lii_before, xadj, adjncy, neutral, charged, &old_owner, k)
        });
        seconds.push(s);
        if let RebalanceOutcome::Remapped {
            new_owner,
            migration_volume,
            ..
        } = outcome
        {
            lii_after = load_imbalance(&new_owner, &load, k);
            migrated = migration_volume;
        }
    }
    let total: u64 = load.iter().sum();
    DecompProbe {
        kway_s,
        kway_edge_cut: partition::edge_cut(&weighted, &part),
        kway_imbalance: partition::imbalance(&weighted, &part, k),
        hungarian_s,
        rebalance_s_p50: stats::median(&seconds),
        lii_before,
        lii_after,
        migrated_fraction: migrated as f64 / total.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exchange_counts_match_the_closed_form() {
        let mut tr = Tracer::new();
        let cases = exchange_probe(&mut tr, 5);
        assert_eq!(cases.len(), 10);
        for c in &cases {
            // the centralized wire carries a 12-byte header per group
            // that vmpi::traffic leaves out; every other strategy's
            // closed form is exact
            if !c.key.starts_with("cc.") {
                assert_eq!(c.mismatch, None);
            }
            assert!(c.us_per_exchange > 0.0);
        }
        // the quiet matrix is where the strategies differ in messages
        let tx = |key: &str| cases.iter().find(|c| c.key == key).unwrap().transactions;
        assert!(tx("sparse.quiet.r4") < tx("dc.quiet.r4"));
    }

    #[test]
    fn load_imbalance_is_max_over_mean() {
        assert_eq!(load_imbalance(&[0, 0, 1, 1], &[3, 1, 2, 2], 2), 1.0);
        assert_eq!(load_imbalance(&[0, 0, 0, 1], &[2, 2, 2, 2], 2), 1.5);
        assert_eq!(load_imbalance(&[0, 1], &[0, 0], 2), 1.0);
    }
}
