//! Regression guard for the modelled machine (DESIGN.md §11).
//!
//! The cluster model's *decisions* — which rank owns which cell after
//! every Kuhn–Munkres remap and which exchange strategy `Auto` picks —
//! are pinned here without the physics, so the solver and the pricing
//! can be made cheaper without being made different:
//!
//! 1. The canned `jet` on 384 virtual ranks, rebalancing every 2 steps
//!    (the shape of the benchmark's `jet_modelled384`), is replayed on
//!    its frozen balancer inputs (`common::frozen`) to pinned owner
//!    maps and migration volumes. The hashes were recorded with the
//!    dense O(k³) Hungarian, before it was replaced. What only a
//!    stepped run shows — its `lii`, modelled time, `Auto` tally and
//!    traffic — is pinned once, in `engine_guard`.
//! 2. The one-pass sparse pricing equals four independent dense
//!    closed forms (kept below as the oracle) field by field, and
//!    `pick_strategy` is the first minimum in `Strategy::CONCRETE`
//!    order, exact ties included.

mod common;

use common::frozen::{self, Remap};
use coupled::{CostModel, MachineProfile};
use proptest::prelude::*;
use vmpi::{Flows, NodeMap, Strategy, TrafficSummary};

/// Five rebalances, 547 particles migrated, ending on owner map
/// `0xf18e_18c6_25c7_ebf0`.
#[test]
fn jet_on_384_ranks_decisions_are_pinned() {
    assert_eq!(
        frozen::replay(&frozen::jet_384_every_2()).remaps,
        [
            Remap {
                step: 1,
                owner_hash: 0x0808_9f86_1203_3d79,
                migrated: 84,
            },
            Remap {
                step: 3,
                owner_hash: 0x7048_38db_ad36_52c6,
                migrated: 58,
            },
            Remap {
                step: 5,
                owner_hash: 0xc7b8_8186_7ccb_c745,
                migrated: 93,
            },
            Remap {
                step: 7,
                owner_hash: 0x306c_72f1_0593_f696,
                migrated: 149,
            },
            Remap {
                step: 9,
                owner_hash: 0xf18e_18c6_25c7_ebf0,
                migrated: 163,
            },
        ],
        "the modelled machine decided differently than the pinned baseline"
    );
}

/// The four dense closed forms, one full-matrix scan each, written
/// independently of `vmpi::traffic_all` — the oracle the one-pass
/// sparse pricing is compared against.
mod reference {
    use super::*;

    fn flat(
        transactions: u64,
        total: u64,
        max_bytes: u64,
        max_msgs: u64,
        fences: u64,
    ) -> TrafficSummary {
        TrafficSummary {
            transactions,
            total_bytes: total,
            max_rank_bytes: max_bytes,
            max_rank_msgs: max_msgs,
            fences,
            ..TrafficSummary::default()
        }
    }

    fn nonzero(m: &[Vec<u64>]) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        m.iter().enumerate().flat_map(|(s, row)| {
            row.iter()
                .enumerate()
                .filter(move |&(d, &b)| s != d && b > 0)
                .map(move |(d, &b)| (s, d, b))
        })
    }

    /// Gather to rank 0, scatter from it: payload + 12-byte group
    /// header per hop.
    fn centralized(m: &[Vec<u64>]) -> TrafficSummary {
        let n = m.len() as u64;
        let through_root: u64 = nonzero(m)
            .map(|(s, d, b)| (b + 12) * (u64::from(s != 0) + u64::from(d != 0)))
            .sum();
        TrafficSummary {
            root_serialized: true,
            ..flat(2 * (n - 1), through_root, through_root, 2 * (n - 1), 0)
        }
    }

    fn distributed(m: &[Vec<u64>]) -> TrafficSummary {
        let n = m.len();
        let busiest = (0..n)
            .map(|r| (0..n).filter(|&q| q != r).map(|q| m[r][q] + m[q][r]).sum())
            .max()
            .unwrap_or(0);
        flat(
            (n * (n - 1)) as u64,
            nonzero(m).map(|(_, _, b)| b).sum(),
            busiest,
            2 * (n as u64 - 1),
            0,
        )
    }

    /// A 17-byte count frame plus a payload message per nonzero pair,
    /// between the two fences of the counts round.
    fn sparse(m: &[Vec<u64>]) -> TrafficSummary {
        let n = m.len();
        let partners = |r: usize| nonzero(m).filter(|&(s, d, _)| s == r || d == r).count() as u64;
        let bytes = |r: usize| -> u64 {
            nonzero(m)
                .filter(|&(s, d, _)| s == r || d == r)
                .map(|(_, _, b)| b + 17)
                .sum()
        };
        let pairs = nonzero(m).count() as u64;
        flat(
            2 * pairs,
            nonzero(m).map(|(_, _, b)| b + 17).sum(),
            (0..n).map(bytes).max().unwrap_or(0),
            (0..n).map(|r| 2 * partners(r)).max().unwrap_or(0),
            2,
        )
    }

    /// Frame by frame, the way `exchange_hier` sends them.
    fn hier(nodes: &NodeMap, m: &[Vec<u64>]) -> TrafficSummary {
        let n = m.len();
        let mut frames: Vec<(usize, usize, u64)> = Vec::new();
        // phase 1: every rank → each same-node peer, funnel rides to the leader
        for s in 0..n {
            let node = nodes.node_of(s);
            let funnel: u64 = nonzero(m)
                .filter(|&(src, d, _)| src == s && nodes.node_of(d) != node)
                .map(|(_, _, b)| 16 + b)
                .sum();
            for q in nodes.members(node).filter(|&q| q != s) {
                let tail = if q == nodes.leader(node) { funnel } else { 0 };
                if m[s][q] + tail > 0 {
                    frames.push((s, q, 9 + m[s][q] + tail));
                }
            }
        }
        // phase 2: one trunk frame per active ordered node pair
        let (mut node_pairs, mut aggregated_bytes) = (0, 0);
        for a in 0..nodes.nodes() {
            for b in (0..nodes.nodes()).filter(|&b| b != a) {
                let groups: u64 = nonzero(m)
                    .filter(|&(s, d, _)| nodes.node_of(s) == a && nodes.node_of(d) == b)
                    .map(|(_, _, bytes)| 16 + bytes)
                    .sum();
                if groups > 0 {
                    node_pairs += 1;
                    aggregated_bytes += 1 + groups;
                    frames.push((nodes.leader(a), nodes.leader(b), 1 + groups));
                }
            }
        }
        // phase 3: the destination leader forwards to its members
        for q in (0..n).filter(|&q| !nodes.is_leader(q)) {
            let bundles: u64 = nonzero(m)
                .filter(|&(s, d, _)| d == q && nodes.node_of(s) != nodes.node_of(q))
                .map(|(_, _, b)| 12 + b)
                .sum();
            if bundles > 0 {
                frames.push((nodes.leader(nodes.node_of(q)), q, 1 + bundles));
            }
        }
        let at = |r: usize| frames.iter().filter(move |&&(f, t, _)| f == r || t == r);
        TrafficSummary {
            transactions: frames.len() as u64,
            total_bytes: frames.iter().map(|&(_, _, b)| b).sum(),
            max_rank_bytes: (0..n)
                .map(|r| at(r).map(|&(_, _, b)| b).sum())
                .max()
                .unwrap_or(0),
            nonzero_pairs: 0,
            max_rank_msgs: (0..n).map(|r| at(r).count() as u64).max().unwrap_or(0),
            node_pairs,
            aggregated_bytes,
            fences: 8,
            root_serialized: false,
        }
    }

    /// All four in `Strategy::CONCRETE` order.
    pub fn traffic_all(nodes: &NodeMap, m: &[Vec<u64>]) -> [TrafficSummary; 4] {
        let pairs = nonzero(m).count() as u64;
        [centralized(m), distributed(m), sparse(m), hier(nodes, m)].map(|t| TrafficSummary {
            nonzero_pairs: pairs,
            ..t
        })
    }
}

/// `n×n` migration matrix from a flat draw; `zeros` % of the cells
/// (and the diagonal's draws, which pricing must ignore) carry nothing.
fn migration_matrix(n: usize, cells: &[u64], zeros: u64) -> Vec<Vec<u64>> {
    (0..n)
        .map(|s| {
            (0..n)
                .map(|d| {
                    let c = cells[s * n + d];
                    if c % 100 < zeros {
                        0
                    } else {
                        c
                    }
                })
                .collect()
        })
        .collect()
}

fn first_argmin(cost: &CostModel, traffic: &[TrafficSummary; 4]) -> Strategy {
    let mut best = 0;
    for (idx, t) in traffic.iter().enumerate().skip(1) {
        if cost.exchange_time(t) < cost.exchange_time(&traffic[best]) {
            best = idx;
        }
    }
    Strategy::CONCRETE[best]
}

proptest! {
    #[test]
    fn one_pass_pricing_equals_the_four_closed_forms(
        n in 1usize..13,
        ranks_per_node in 1usize..6,
        zeros in 0u64..101,
        cells in proptest::collection::vec(0u64..5_000, 144),
    ) {
        let m = migration_matrix(n, &cells, zeros);
        let nodes = NodeMap::grouped(n, ranks_per_node);
        let want = reference::traffic_all(&nodes, &m);
        prop_assert_eq!(vmpi::traffic_all(&nodes, &Flows::from_matrix(&m)), want);
        // the dense front-end is the same core
        let two_nodes = reference::traffic_all(&NodeMap::default_for(n), &m);
        for (s, want) in Strategy::CONCRETE.into_iter().zip(two_nodes) {
            prop_assert_eq!(vmpi::traffic(s, &m), want);
        }
    }

    #[test]
    fn auto_pick_is_the_first_minimum_in_concrete_order(
        n in 1usize..13,
        zeros in 0u64..101,
        cells in proptest::collection::vec(0u64..200_000, 144),
    ) {
        let m = migration_matrix(n, &cells, zeros);
        for profile in [MachineProfile::tianhe2(), MachineProfile::bscc()] {
            let cost = CostModel::new(profile, n);
            let traffic = reference::traffic_all(cost.node_map(), &m);
            let want = first_argmin(&cost, &traffic);
            prop_assert_eq!(cost.pick_strategy(&m), want);
            let priced = cost.traffic(&Flows::from_matrix(&m));
            prop_assert_eq!(Strategy::CONCRETE[cost.cheapest(&priced)], want);
        }
    }
}

/// A constructed exact tie: in a one-rank world Centralized and
/// Distributed both cost exactly 0 s (no peer, no byte) while the
/// fenced strategies cost more, and the earlier CONCRETE entry wins.
#[test]
fn exact_ties_break_toward_the_earlier_concrete_entry() {
    for profile in [MachineProfile::tianhe2(), MachineProfile::tianhe3()] {
        let lone = CostModel::new(profile, 1);
        let traffic = lone.traffic(&Flows::new());
        assert_eq!(lone.exchange_time(&traffic[0]), 0.0);
        assert_eq!(lone.exchange_time(&traffic[1]), 0.0);
        assert_eq!(lone.cheapest(&traffic), 0);
        assert_eq!(lone.pick_strategy(&[vec![7]]), Strategy::Centralized);
    }
}
