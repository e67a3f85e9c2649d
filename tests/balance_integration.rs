//! Integration of the load balancer with the real mesh and the
//! modelled cluster driver: Algorithm 1 end-to-end.

use balance::{remap_identity, remap_km, RebalanceConfig};
use coupled::{ClusterSim, Dataset, MachineProfile, RunConfig};
use mesh::NozzleSpec;
use partition::{imbalance, part_graph_kway, Graph, KwayOptions};
use vmpi::Strategy;

fn cluster(ranks: usize, lb: bool) -> ClusterSim {
    let run = RunConfig::builder()
        .paper(Dataset::D1, 0.03)
        .ranks(ranks)
        .seed(31)
        .strategy(Strategy::Distributed)
        .rebalance(lb.then(|| RebalanceConfig {
            t_interval: 6,
            ..RebalanceConfig::default()
        }))
        .build()
        .expect("valid test config");
    ClusterSim::new(&run, MachineProfile::tianhe2())
}

#[test]
fn weighted_partition_balances_real_plume_load() {
    // run to build a skewed particle field, then partition with the
    // weighted load model and check the weighted imbalance
    let mut cs = cluster(4, false);
    for _ in 0..15 {
        cs.step();
    }
    let (neutral, charged) = cs.state.counts_per_cell();
    let wlm = balance::weighted_load_model(&neutral, &charged, balance::WlmParams::default());
    let (xadj, adjncy) = cs.state.nm.coarse.cell_graph();
    let g = Graph::new(xadj, adjncy, wlm);
    let part = part_graph_kway(&g, 4, KwayOptions::default());
    let imb = imbalance(&g, &part, 4);
    assert!(imb < 1.35, "weighted partition imbalance {imb}");
}

#[test]
fn unweighted_partition_is_much_worse_for_particles() {
    let mut cs = cluster(4, false);
    for _ in 0..15 {
        cs.step();
    }
    let (neutral, charged) = cs.state.counts_per_cell();
    let load: Vec<i64> = neutral
        .iter()
        .zip(&charged)
        .map(|(&n, &c)| (n + c) as i64 + 1)
        .collect();
    let (xadj, adjncy) = cs.state.nm.coarse.cell_graph();

    // unweighted decomposition (the initial one)
    let g_unit = Graph::new(xadj.clone(), adjncy.clone(), vec![1; load.len()]);
    let part_unit = part_graph_kway(&g_unit, 4, KwayOptions::default());
    // weighted decomposition
    let g_load = Graph::new(xadj, adjncy, load.clone());
    let part_load = part_graph_kway(&g_load, 4, KwayOptions::default());

    // evaluate both against the *particle* load
    let eval = |part: &[u32]| {
        let mut w = [0i64; 4];
        for (c, &p) in part.iter().enumerate() {
            w[p as usize] += load[c];
        }
        *w.iter().max().unwrap() as f64 * 4.0 / load.iter().sum::<i64>() as f64
    };
    let unweighted = eval(&part_unit);
    let weighted = eval(&part_load);
    assert!(
        weighted < unweighted,
        "weighted {weighted} must beat unweighted {unweighted}"
    );
}

#[test]
fn km_remap_on_real_partitions_migrates_less() {
    let mut cs = cluster(6, false);
    for _ in 0..12 {
        cs.step();
    }
    let (neutral, charged) = cs.state.counts_per_cell();
    let load: Vec<u64> = neutral.iter().zip(&charged).map(|(&n, &c)| n + c).collect();
    let wlm = balance::weighted_load_model(&neutral, &charged, balance::WlmParams::default());
    let (xadj, adjncy) = cs.state.nm.coarse.cell_graph();
    let g = Graph::new(xadj, adjncy, wlm);
    let new_part = part_graph_kway(&g, 6, KwayOptions::default());

    let km = remap_km(cs.owner(), &new_part, &load, 6);
    let id = remap_identity(&new_part);
    let vol_km = balance::migration_volume(cs.owner(), &km, &load);
    let vol_id = balance::migration_volume(cs.owner(), &id, &load);
    assert!(vol_km <= vol_id, "KM {vol_km} !<= identity {vol_id}");
}

#[test]
fn modelled_lb_improves_worst_rank_share() {
    // 45 steps (3 rebalance intervals) rather than 30: right after the
    // plume front crosses the domain the instantaneous worst-rank
    // share is noisy and the 30-step comparison flips sign depending
    // on the RNG stream; by 45 steps the balanced run wins for every
    // seed we probed.
    let no = {
        let mut cs = cluster(4, false);
        cs.run(45)
    };
    let with = {
        let mut cs = cluster(4, true);
        cs.run(45)
    };
    let worst = |rep: &coupled::RunReport| {
        rep.trace
            .last()
            .unwrap()
            .share
            .iter()
            .copied()
            .fold(0.0f64, f64::max)
    };
    assert!(with.rebalances >= 1);
    assert!(
        worst(&with) < worst(&no),
        "LB worst share {} !< no-LB {}",
        worst(&with),
        worst(&no)
    );
}

#[test]
fn partitions_of_nozzle_mesh_are_connected_enough() {
    // sanity on mesh+partition integration: the k-way partitioner on
    // the real nozzle adjacency should produce a cut far below the
    // total face count
    let mesh = NozzleSpec {
        nd: 8,
        nz: 12,
        ..NozzleSpec::default()
    }
    .generate();
    let (xadj, adjncy) = mesh.cell_graph();
    let total_adj = adjncy.len() as i64 / 2;
    let g = Graph::new(xadj, adjncy, vec![1; mesh.num_cells()]);
    let part = part_graph_kway(&g, 8, KwayOptions::default());
    let cut = partition::edge_cut(&g, &part);
    assert!(
        cut * 4 < total_adj,
        "cut {cut} vs {total_adj} interior faces"
    );
}
