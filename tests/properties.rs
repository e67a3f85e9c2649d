//! Property-based tests (proptest) on the core invariants: geometry,
//! wire format, sparse algebra, assignment and the exchange traffic
//! model.

// small dense-matrix constructions read naturally as index loops
#![allow(clippy::needless_range_loop)]

use mesh::geom::{barycentric, tet_contains, tet_volume, tet_volume_signed, Vec3};
use particles::{
    pack_particle, pack_selected, unpack_all, unpack_particle, Particle, ParticleBuffer,
    SortScratch, PACKED_SIZE,
};
use proptest::prelude::*;
use sparse::{cg, solve_dense, CooBuilder, KrylovOptions};
use vmpi::{exchange_into, run_world, traffic, Comm, CommResult, Strategy as CommStrategy};

/// One exchange of owned buffers: what every rank received, by source.
fn exchange(
    comm: &Comm,
    strategy: CommStrategy,
    mut outgoing: Vec<Vec<u8>>,
) -> CommResult<Vec<Vec<u8>>> {
    let mut incoming = Vec::new();
    exchange_into(comm, strategy, &mut outgoing, &mut incoming)?;
    Ok(incoming)
}

fn vec3() -> impl Strategy<Value = Vec3> {
    (-1e3f64..1e3, -1e3f64..1e3, -1e3f64..1e3).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// A tet with volume bounded away from zero (degenerate tets are
/// rejected; the mesh generator never produces them).
fn good_tet() -> impl Strategy<Value = [Vec3; 4]> {
    [vec3(), vec3(), vec3(), vec3()].prop_filter("non-degenerate", |p| {
        tet_volume(p[0], p[1], p[2], p[3]) > 10.0
    })
}

proptest! {
    #[test]
    fn barycentric_weights_sum_to_one(p in good_tet(), q in vec3()) {
        let w = barycentric(q, p[0], p[1], p[2], p[3]);
        let s: f64 = w.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-6, "sum {s}");
    }

    #[test]
    fn barycentric_reconstructs_point(p in good_tet(), a in 0.01f64..1.0, b in 0.01f64..1.0, c in 0.01f64..1.0, d in 0.01f64..1.0) {
        // random convex combination of vertices lies inside, and its
        // barycentric coordinates reproduce the combination
        let sum = a + b + c + d;
        let (w0, w1, w2, w3) = (a / sum, b / sum, c / sum, d / sum);
        let q = p[0] * w0 + p[1] * w1 + p[2] * w2 + p[3] * w3;
        prop_assert!(tet_contains(q, p[0], p[1], p[2], p[3], 1e-4));
        let w = barycentric(q, p[0], p[1], p[2], p[3]);
        // tolerance scales with conditioning: thin tets amplify roundoff
        prop_assert!((w[0] - w0).abs() < 1e-4);
        prop_assert!((w[3] - w3).abs() < 1e-4);
    }

    #[test]
    fn swapping_vertices_flips_orientation(p in good_tet()) {
        let v1 = tet_volume_signed(p[0], p[1], p[2], p[3]);
        let v2 = tet_volume_signed(p[1], p[0], p[2], p[3]);
        prop_assert!((v1 + v2).abs() < 1e-9 * v1.abs().max(1.0));
    }

    #[test]
    fn particle_wire_roundtrip(
        px in -1e3f64..1e3, py in -1e3f64..1e3, pz in -1e3f64..1e3,
        vx in -1e6f64..1e6, vy in -1e6f64..1e6, vz in -1e6f64..1e6,
        cell in 0u32..u32::MAX, species in 0u8..255, id in 0u64..u64::MAX,
    ) {
        let p = Particle {
            pos: Vec3::new(px, py, pz),
            vel: Vec3::new(vx, vy, vz),
            cell, species, id,
        };
        let mut buf = Vec::new();
        pack_particle(&p, &mut buf);
        prop_assert_eq!(buf.len(), PACKED_SIZE);
        prop_assert_eq!(unpack_particle(&buf, 0), p);
    }

    #[test]
    fn particle_roundtrips_bitwise_through_scalar_lanes(
        px in -1e3f64..1e3, py in -1e3f64..1e3, pz in -1e3f64..1e3,
        vx in -1e6f64..1e6, vy in -1e6f64..1e6, vz in -1e6f64..1e6,
        cell in 0u32..u32::MAX, species in 0u8..255, id in 0u64..u64::MAX,
    ) {
        let p = Particle {
            pos: Vec3::new(px, py, pz),
            vel: Vec3::new(vx, vy, vz),
            cell, species, id,
        };
        let mut buf = ParticleBuffer::new();
        buf.push(p);
        // push scatters into the six scalar lanes bit-exactly
        prop_assert_eq!(buf.px[0].to_bits(), px.to_bits());
        prop_assert_eq!(buf.py[0].to_bits(), py.to_bits());
        prop_assert_eq!(buf.pz[0].to_bits(), pz.to_bits());
        prop_assert_eq!(buf.vx[0].to_bits(), vx.to_bits());
        prop_assert_eq!(buf.vy[0].to_bits(), vy.to_bits());
        prop_assert_eq!(buf.vz[0].to_bits(), vz.to_bits());
        // get() regathers the identical Particle value
        prop_assert_eq!(buf.get(0), p);
        // pack_selected reads the lanes directly and must agree
        // byte-for-byte with the Particle-value packer
        let mut via_value = Vec::new();
        pack_particle(&p, &mut via_value);
        let via_lanes = pack_selected(&buf, &[0]);
        prop_assert_eq!(&via_value, &via_lanes);
        // unpacking lands the same bits back in the lanes
        let mut back = ParticleBuffer::new();
        unpack_all(&via_lanes, &mut back);
        prop_assert_eq!(back.px[0].to_bits(), px.to_bits());
        prop_assert_eq!(back.vz[0].to_bits(), vz.to_bits());
        prop_assert_eq!(back.id[0], id);
        prop_assert!(back.lanes_consistent());
    }

    #[test]
    fn lanes_stay_consistent_through_sort_and_emigrant_packing(
        cells in proptest::collection::vec(0u32..13, 0..120),
        emigrant_stride in 2usize..5,
    ) {
        let num_cells = 13usize;
        let mut buf = ParticleBuffer::new();
        for (k, &c) in cells.iter().enumerate() {
            let k = k as u64;
            buf.push(Particle {
                pos: Vec3::new(k as f64, 2.0 * k as f64, -(k as f64)),
                vel: Vec3::new(0.5, k as f64, 1.5),
                cell: c,
                species: (k % 2) as u8,
                id: k,
            });
        }
        prop_assert!(buf.lanes_consistent());
        let mut scratch = SortScratch::default();
        buf.sort_by_cell(num_cells, &mut scratch);
        prop_assert!(buf.lanes_consistent());
        // emigrant packing: every `emigrant_stride`-th particle leaves
        let emigrants: Vec<usize> = (0..buf.len()).step_by(emigrant_stride).collect();
        let packed = pack_selected(&buf, &emigrants);
        prop_assert_eq!(packed.len(), emigrants.len() * PACKED_SIZE);
        let mut keep = vec![true; buf.len()];
        for &e in &emigrants {
            keep[e] = false;
        }
        let total = buf.len();
        buf.compact(&keep);
        prop_assert!(buf.lanes_consistent());
        prop_assert_eq!(buf.len(), total - emigrants.len());
        // immigrants arriving re-extend every lane in lockstep
        unpack_all(&packed, &mut buf);
        prop_assert!(buf.lanes_consistent());
        prop_assert_eq!(buf.len(), total);
    }

    #[test]
    fn sort_by_cell_preserves_multiset_and_orders_cells(
        cells in proptest::collection::vec(0u32..17, 0..200),
    ) {
        let num_cells = 17usize;
        let mut buf = ParticleBuffer::new();
        for (k, &c) in cells.iter().enumerate() {
            let k = k as u64;
            buf.push(Particle {
                pos: Vec3::new(k as f64, -(k as f64), 0.5 * k as f64),
                vel: Vec3::new(1.0 + k as f64, 2.0, -3.0),
                cell: c,
                species: (k % 3) as u8,
                id: k,
            });
        }
        let before: Vec<Particle> = (0..buf.len()).map(|i| buf.get(i)).collect();

        let mut scratch = SortScratch::default();
        buf.sort_by_cell(num_cells, &mut scratch);

        // cell[] is non-decreasing
        prop_assert!(buf.cell.windows(2).all(|w| w[0] <= w[1]));

        // same multiset of particles: ids are unique, so sorting both
        // snapshots by id must give identical full records
        let mut after: Vec<Particle> = (0..buf.len()).map(|i| buf.get(i)).collect();
        let mut want = before;
        want.sort_by_key(|p| p.id);
        after.sort_by_key(|p| p.id);
        prop_assert_eq!(after, want);
    }

    #[test]
    fn cg_matches_dense_on_random_spd(seed in 0u64..5000) {
        // random SPD: A = B^T B + n I on small n
        let n = 6usize;
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut rnd = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s % 2000) as f64 - 1000.0) / 500.0
        };
        let b_mat: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| rnd()).collect()).collect();
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    a[i][j] += b_mat[k][i] * b_mat[k][j];
                }
            }
            a[i][i] += n as f64;
        }
        let rhs: Vec<f64> = (0..n).map(|_| rnd()).collect();

        let mut coo = CooBuilder::new(n, n);
        for i in 0..n {
            for j in 0..n {
                coo.add(i, j, a[i][j]);
            }
        }
        let csr = coo.build();
        let mut x = vec![0.0; n];
        let stats = cg(&csr, &rhs, &mut x, KrylovOptions { rtol: 1e-12, max_iters: 500 });
        prop_assert!(stats.converged);
        let exact = solve_dense(&a, &rhs).unwrap();
        for (xi, ei) in x.iter().zip(&exact) {
            prop_assert!((xi - ei).abs() < 1e-6 * ei.abs().max(1.0), "{xi} vs {ei}");
        }
    }

    #[test]
    fn hungarian_beats_or_matches_greedy(seed in 0u64..2000) {
        let n = 5usize;
        let mut s = seed.wrapping_mul(0xBF58476D1CE4E5B9).wrapping_add(7);
        let mut rnd = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; (s % 1000) as i64 };
        let w: Vec<Vec<i64>> = (0..n).map(|_| (0..n).map(|_| rnd()).collect()).collect();
        let (assign, total) = partition::max_weight_assignment(&w);
        // valid permutation
        let mut seen = vec![false; n];
        for &j in &assign {
            prop_assert!(!seen[j]);
            seen[j] = true;
        }
        // greedy row-by-row baseline
        let mut taken = vec![false; n];
        let mut greedy = 0i64;
        for i in 0..n {
            let j = (0..n)
                .filter(|&j| !taken[j])
                .max_by_key(|&j| w[i][j])
                .unwrap();
            taken[j] = true;
            greedy += w[i][j];
        }
        prop_assert!(total >= greedy, "KM {total} < greedy {greedy}");
    }

    #[test]
    fn traffic_model_invariants(nbytes in proptest::collection::vec(0u64..10_000, 9)) {
        // 3x3 migration matrix from the flat vector
        let m: Vec<Vec<u64>> = nbytes.chunks(3).map(|c| c.to_vec()).collect();
        let dc = traffic(CommStrategy::Distributed, &m);
        let cc = traffic(CommStrategy::Centralized, &m);
        let sp = traffic(CommStrategy::Sparse, &m);
        // centralized never has more transactions
        prop_assert!(cc.transactions <= dc.transactions);
        // distributed never moves more bytes
        prop_assert!(dc.total_bytes <= cc.total_bytes);
        // busiest rank bounded by total traffic
        prop_assert!(dc.max_rank_bytes <= 2 * dc.total_bytes);
        prop_assert!(cc.max_rank_bytes <= cc.total_bytes);
        // sparse: 2 messages per nonzero ordered pair, payload plus a
        // 17-byte tagged count frame each (magic + epoch + value);
        // never more pairs than DC slots
        prop_assert_eq!(sp.nonzero_pairs, dc.nonzero_pairs);
        prop_assert_eq!(sp.transactions, 2 * sp.nonzero_pairs);
        prop_assert_eq!(sp.total_bytes, dc.total_bytes + 17 * sp.nonzero_pairs);
        prop_assert!(sp.transactions <= 2 * dc.transactions);
        prop_assert!(sp.max_rank_msgs <= 2 * dc.max_rank_msgs);
        // hierarchical: a nonzero pair costs at most 3 frames (funnel,
        // trunk, scatter; intra-node pairs cost at most 1), every
        // migrated byte moves at least once, and only Hier reports
        // node-pair aggregation
        let hi = traffic(CommStrategy::Hier, &m);
        prop_assert_eq!(hi.nonzero_pairs, dc.nonzero_pairs);
        prop_assert!(hi.transactions <= 3 * hi.nonzero_pairs);
        prop_assert!(hi.total_bytes >= dc.total_bytes);
        prop_assert!(hi.node_pairs <= hi.nonzero_pairs);
        prop_assert_eq!(dc.node_pairs, 0);
        prop_assert_eq!(sp.aggregated_bytes, 0);
    }

    #[test]
    fn sparse_and_distributed_deliver_identical_buffers(
        n in 2usize..7,
        entries in proptest::collection::vec(0u64..600, 36),
    ) {
        // random migration matrix, weighted 75% toward zero entries so
        // all-empty and single-pair cases occur regularly; payload
        // bytes are a deterministic function of (src, dst, offset)
        let weight = |e: u64| if e < 450 { 0 } else { e - 449 };
        let m: Vec<Vec<u64>> = (0..n)
            .map(|s| {
                (0..n)
                    .map(|d| if s == d { 0 } else { weight(entries[s * 6 + d]) })
                    .collect()
            })
            .collect();
        let deliver = |strategy: CommStrategy| {
            let m = m.clone();
            run_world(n, move |c| {
                let outgoing: Vec<Vec<u8>> = (0..c.size())
                    .map(|d| {
                        (0..m[c.rank()][d])
                            .map(|i| (c.rank() as u64 * 31 + d as u64 * 7 + i) as u8)
                            .collect()
                    })
                    .collect();
                exchange(&c, strategy, outgoing)
            })
        };
        let sp = deliver(CommStrategy::Sparse);
        let dc = deliver(CommStrategy::Distributed);
        prop_assert_eq!(sp, dc);
    }

    #[test]
    fn kway_partition_is_total_and_bounded(k in 2usize..6, seed in 0u64..100) {
        // ring graph of 40 vertices with pseudo-random weights
        let n = 40usize;
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
        let mut s = seed.wrapping_add(3);
        let mut rnd = move || { s ^= s << 13; s ^= s >> 7; s ^= s << 17; (s % 20 + 1) as i64 };
        let vwgt: Vec<i64> = (0..n).map(|_| rnd()).collect();
        let g = partition::Graph::from_edges(n, &edges, vwgt);
        let part = partition::part_graph_kway(&g, k, partition::KwayOptions::default());
        prop_assert_eq!(part.len(), n);
        prop_assert!(part.iter().all(|&p| (p as usize) < k));
        // weighted imbalance within a generous bound for a ring
        prop_assert!(partition::imbalance(&g, &part, k) < 1.8);
    }
}

/// ROADMAP item 4: every malformed input is a typed error. Each canned
/// scenario is mutated one byte at a time (flip a bit, delete,
/// duplicate) from a fixed seed; `scenario::parse` must answer every
/// mutant with `Ok` or a `ScenarioError` and never panic. Parse only —
/// no mesh is built, so a mutant asking for `nd = 912` costs nothing.
#[test]
fn mutated_scenarios_parse_or_fail_typed_and_never_panic() {
    const MUTANTS: usize = 2_000;
    let mut state = 0x5CE7A210u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for &(name, text) in coupled::scenario::CANNED {
        let (mut parsed, mut rejected) = (0, 0);
        for i in 0..MUTANTS {
            let mut bytes = text.as_bytes().to_vec();
            let at = (next() % bytes.len() as u64) as usize;
            match next() % 3 {
                0 => bytes[at] ^= 1 << (next() % 8),
                1 => drop(bytes.remove(at)),
                _ => bytes.insert(at, bytes[at]),
            }
            let mutant = String::from_utf8_lossy(&bytes).into_owned();
            match std::panic::catch_unwind(|| coupled::scenario::parse(&mutant).map(|_| ())) {
                Ok(Ok(())) => parsed += 1,
                Ok(Err(_)) => rejected += 1,
                Err(_) => panic!("{name} mutant {i} panicked the scenario reader:\n{mutant}"),
            }
        }
        // the loop reaches both verdicts, or it is testing nothing
        assert!(parsed > 0 && rejected > 0, "{name}: {parsed} / {rejected}");
    }
}
