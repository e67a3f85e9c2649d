//! Analytic machine profiles and the cluster cost model.
//!
//! The paper runs on Tianhe-2, BSCC and the ARM Tianhe-3 prototype;
//! none of those is available here, so scale experiments run the real
//! decomposed algorithm while *time* is charged by this α–β model
//! (documented substitution, DESIGN.md §2):
//!
//! * compute phases: work units ÷ per-core rate, maximised over ranks
//!   (work units are counted by actually running the algorithm);
//! * particle exchange: per-rank message latency + serialized byte
//!   transfer, specialised per strategy so the centralized root
//!   bottleneck and the distributed N(N−1) transaction growth both
//!   appear, as in the paper's §IV-B.3 analysis;
//! * Poisson solve: per-iteration SpMV compute that shrinks with
//!   ranks plus log-depth reduction latency that grows with ranks —
//!   reproducing the paper's non-scaling `Poisson_Solve` (Table IV).

use vmpi::{Flows, NodeMap, Strategy, TrafficSummary};

/// Per-core processing rates and network parameters of one platform.
#[derive(Debug, Clone, Copy)]
pub struct MachineProfile {
    pub name: &'static str,
    /// CPU cores per node (Tianhe-2: 24, BSCC: 96, Tianhe-3: 64).
    pub cores_per_node: usize,
    /// Neutral/charged particle moves per second per core.
    pub move_rate: f64,
    /// Particle injections per second per core (RNG + placement).
    pub inject_rate: f64,
    /// NTC collision candidates per second per core.
    pub collide_rate: f64,
    /// Particle renumber operations per second per core.
    pub reindex_rate: f64,
    /// SpMV throughput, non-zeros per second per core.
    pub spmv_rate: f64,
    /// Graph-partitioner vertex throughput (vertices/s, serial).
    pub partition_rate: f64,
    /// Point-to-point message latency (s).
    pub alpha: f64,
    /// Point-to-point bandwidth (bytes/s).
    pub beta: f64,
}

impl MachineProfile {
    /// Intel Xeon E5-2692v2 nodes, 160 Gb/s custom fat-tree.
    pub fn tianhe2() -> Self {
        MachineProfile {
            name: "Tianhe-2",
            cores_per_node: 24,
            move_rate: 5.0e6,
            inject_rate: 5.0e4,
            collide_rate: 1.2e7,
            reindex_rate: 6.0e7,
            spmv_rate: 4.0e8,
            partition_rate: 2.0e6,
            alpha: 2.0e-6,
            beta: 2.0e10,
        }
    }

    /// Xeon Platinum 9242 nodes, 100 Gb/s InfiniBand.
    pub fn bscc() -> Self {
        MachineProfile {
            name: "BSCC",
            cores_per_node: 96,
            move_rate: 8.0e6,
            inject_rate: 7.5e4,
            collide_rate: 1.8e7,
            reindex_rate: 9.0e7,
            spmv_rate: 6.0e8,
            partition_rate: 3.0e6,
            alpha: 1.6e-6,
            beta: 1.25e10,
        }
    }

    /// Phytium 2000+ ARMv8 nodes, 200 Gb/s custom interconnect.
    pub fn tianhe3() -> Self {
        MachineProfile {
            name: "Tianhe-3",
            cores_per_node: 64,
            move_rate: 3.0e6,
            inject_rate: 3.0e4,
            collide_rate: 0.8e7,
            reindex_rate: 4.0e7,
            spmv_rate: 2.5e8,
            partition_rate: 1.2e6,
            alpha: 2.4e-6,
            beta: 2.5e10,
        }
    }
}

/// MPI rank placement on the fat-tree (paper §VII-D.2): longer routes
/// cost slightly more latency and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All ranks within one 32-node frame.
    InnerFrame,
    /// Spanning frames within one rack.
    InnerRack,
    /// Spanning racks.
    InterRack,
}

impl Placement {
    /// Multiplier on message latency.
    pub fn latency_factor(self) -> f64 {
        match self {
            Placement::InnerFrame => 1.0,
            Placement::InnerRack => 1.35,
            Placement::InterRack => 1.8,
        }
    }

    /// Divisor on effective bandwidth.
    pub fn bandwidth_factor(self) -> f64 {
        match self {
            Placement::InnerFrame => 1.0,
            Placement::InnerRack => 1.04,
            Placement::InterRack => 1.09,
        }
    }
}

/// The cost model for one run: profile + placement + rank count.
/// `profile` and `ranks` are fixed by [`CostModel::new`] (the node map
/// is derived from them); only `placement` may be changed afterwards.
#[derive(Debug, Clone)]
pub struct CostModel {
    pub profile: MachineProfile,
    pub placement: Placement,
    pub ranks: usize,
    /// The rank → node grouping the hierarchical strategy is priced
    /// on, fixed at construction.
    nodes: NodeMap,
}

impl CostModel {
    /// The model of `ranks` ranks on the machine `profile` implies:
    /// contiguous blocks of `cores_per_node` ranks per node, the way
    /// schedulers hand out rank ranges.
    pub fn new(profile: MachineProfile, ranks: usize) -> Self {
        CostModel::on_nodes(profile, NodeMap::grouped(ranks, profile.cores_per_node))
    }

    /// The model of `nodes.len()` ranks grouped into nodes by `nodes`
    /// (a backend that runs Hier on its own map prices it there too).
    pub fn on_nodes(profile: MachineProfile, nodes: NodeMap) -> Self {
        CostModel {
            profile,
            placement: Placement::InnerFrame,
            ranks: nodes.len(),
            nodes,
        }
    }

    /// Effective message latency (s).
    pub fn alpha(&self) -> f64 {
        self.profile.alpha * self.placement.latency_factor()
    }

    /// Effective bandwidth (bytes/s).
    pub fn beta(&self) -> f64 {
        self.profile.beta / self.placement.bandwidth_factor()
    }

    /// Time for `units` of work at `rate` units/s/core on one core.
    #[inline]
    pub fn compute(&self, units: f64, rate: f64) -> f64 {
        units / rate
    }

    /// Wall time of one particle exchange with the given protocol
    /// traffic (one entry of [`CostModel::traffic`]): the protocol's
    /// log-depth fences, then the busiest rank's point-to-point
    /// operations at the per-operation latency, then its bytes.
    ///
    /// Distributed: every rank performs 2(N−1) *synchronized*
    /// send/recv rounds (the paper's two-round ordered protocol), so
    /// the latency term grows linearly in N with a synchronization
    /// penalty; bytes move once, bounded by the busiest rank.
    ///
    /// Centralized: the root serializes 2(N−1) eager messages at the
    /// bare link latency and every migrated byte crosses the wire
    /// twice through it.
    ///
    /// Sparse: two barrier fences bracket the counts round, then only
    /// the busiest rank's nonzero pairs pay per-operation latency
    /// (one count message + one payload message per partner) — the
    /// latency bill scales with actual migration, not with N².
    ///
    /// Hier: three phase fences plus the trailing one, and the busiest
    /// rank — a node leader — pays per-operation latency for its funnel
    /// fan-in, trunk frames and scatter fan-out plus its aggregated
    /// bytes. The leader drains members in strict rank order, so skew
    /// accumulates exactly like the flat ordered protocols.
    pub fn exchange_time(&self, t: &TrafficSummary) -> f64 {
        let n = self.ranks as f64;
        let a = self.alpha();
        let b = self.beta();
        // NIC contention: the paper's two-round ordered protocols make
        // every rank block in strict source order, so skew accumulates
        // and each node's link is contended by all `cores_per_node`
        // ranks simultaneously — the N(N−1)-transaction cost §IV-B.3
        // predicts. Calibrated so the DC/CC crossover appears near 768
        // ranks on BSCC (Fig. 11) while DC stays ahead on Tianhe-2's
        // particle-heavy runs (Table II).
        let contention = n * self.profile.cores_per_node as f64 / 1536.0;
        let per_op = if t.root_serialized {
            a
        } else {
            a * (2.0 + contention)
        };
        let fences = t.fences as f64 * n.log2().max(1.0) * a;
        fences + t.max_rank_msgs as f64 * per_op + t.max_rank_bytes as f64 / b
    }

    /// The rank → node grouping the hierarchical strategy is priced
    /// with.
    pub fn node_map(&self) -> &NodeMap {
        &self.nodes
    }

    /// Price one exchange once: the protocol traffic of every concrete
    /// strategy for the migration `flows` between this model's ranks,
    /// in [`Strategy::CONCRETE`] order, from a single pass over the
    /// nonzero pairs.
    pub fn traffic(&self, flows: &Flows) -> [TrafficSummary; 4] {
        vmpi::traffic_all(&self.nodes, flows)
    }

    /// The per-step Auto decision rule (§IV-B addendum): charge each
    /// concrete strategy's traffic with this machine's α/β parameters
    /// and return the [`Strategy::CONCRETE`] index of the cheapest.
    /// Ties break toward the earlier entry, so the rule is
    /// deterministic.
    pub fn cheapest(&self, traffic: &[TrafficSummary; 4]) -> usize {
        let mut best = (0, f64::INFINITY);
        for (idx, t) in traffic.iter().enumerate() {
            let time = self.exchange_time(t);
            if time < best.1 {
                best = (idx, time);
            }
        }
        best.0
    }

    /// Modelled wall time of one exchange of the migration byte matrix
    /// `m` under every concrete strategy, in [`Strategy::CONCRETE`]
    /// order (traffic prediction + α–β charge). Dense convenience over
    /// [`CostModel::traffic`].
    pub fn exchange_times(&self, m: &[Vec<u64>]) -> [f64; 4] {
        self.traffic(&self.flows_of(m))
            .map(|t| self.exchange_time(&t))
    }

    /// [`CostModel::cheapest`] on the rank-0-reduced migration byte
    /// matrix `m`. Dense convenience over [`CostModel::traffic`].
    pub fn pick_strategy(&self, m: &[Vec<u64>]) -> Strategy {
        Strategy::CONCRETE[self.cheapest(&self.traffic(&self.flows_of(m)))]
    }

    fn flows_of(&self, m: &[Vec<u64>]) -> Flows {
        assert_eq!(m.len(), self.ranks, "matrix sized for another world");
        Flows::from_matrix(m)
    }

    /// Wall time of one distributed Poisson solve: `iters` CG
    /// iterations over a matrix of `nnz` non-zeros and `nodes`
    /// unknowns split across ranks.
    pub fn poisson_time(&self, iters: usize, nnz: usize, nodes: usize) -> f64 {
        let k = self.ranks as f64;
        let local_nnz = nnz as f64 / k;
        // Per iteration: local SpMV + two log-depth dot-product
        // allreduces + halo exchange of surface nodes. Collectives pay
        // MPI software overhead well above the raw link latency
        // (~10×); this is what makes the fixed-size Poisson solve stop
        // scaling (paper Table IV).
        let collective_alpha = 10.0 * self.alpha();
        let halo_nodes = ((nodes as f64 / k).powf(2.0 / 3.0)).max(1.0) * 6.0;
        let per_iter = local_nnz / self.profile.spmv_rate
            + 2.0 * (k.log2().max(1.0)) * collective_alpha
            + halo_nodes * 8.0 / self.beta();
        iters as f64 * per_iter
    }

    /// Wall time of one CG iteration's coarse-grid correction on a
    /// coarse level of `unknowns` unknowns whose Cholesky factor holds
    /// `factor_entries` entries: a log-depth allreduce of the
    /// restricted residual (a double per unknown, at the collective
    /// overhead of [`CostModel::poisson_time`]), then the coarse solve
    /// every rank repeats — two sweeps over the factor at the SpMV's
    /// rate per entry. It shrinks with no rank count.
    pub fn coarse_correction_time(&self, unknowns: f64, factor_entries: f64) -> f64 {
        let depth = (self.ranks as f64).log2().max(1.0);
        depth * (10.0 * self.alpha() + unknowns * 8.0 / self.beta())
            + 2.0 * factor_entries / self.profile.spmv_rate
    }

    /// Cost of one rebalance: serial partition on rank 0 + mapping
    /// broadcast + the particle migration's protocol traffic.
    pub fn rebalance_time(&self, cells: usize, migration: &TrafficSummary, use_km: bool) -> f64 {
        let n = self.ranks as f64;
        let partition = cells as f64 * (cells as f64).log2().max(1.0) / self.profile.partition_rate;
        let km = if use_km {
            // the paper's machine runs the textbook O(k³) Hungarian
            // (Table V): this prices *their* solver, not the sparse
            // one this repo remaps with
            n.powi(3) * 2e-10
        } else {
            0.0
        };
        let bcast = (n.log2().max(1.0)) * self.alpha() + cells as f64 * 4.0 / self.beta();
        partition + km + bcast + self.exchange_time(migration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_matrix(n: usize, bytes: u64) -> Vec<Vec<u64>> {
        (0..n)
            .map(|s| (0..n).map(|d| if s == d { 0 } else { bytes }).collect())
            .collect()
    }

    #[test]
    fn profiles_are_distinct() {
        let t2 = MachineProfile::tianhe2();
        let bs = MachineProfile::bscc();
        let t3 = MachineProfile::tianhe3();
        assert!(t3.move_rate < t2.move_rate, "ARM cores slower");
        assert!(bs.beta < t2.beta, "IB 100G slower than TH-2 custom");
        assert!(t3.beta > t2.beta, "TH-3 has the fastest links");
    }

    #[test]
    fn placement_ordering() {
        assert!(Placement::InnerFrame.latency_factor() < Placement::InnerRack.latency_factor());
        assert!(Placement::InnerRack.latency_factor() < Placement::InterRack.latency_factor());
    }

    #[test]
    fn dc_wins_with_many_bytes_cc_wins_with_many_ranks() {
        // many particles, few ranks: distributed faster
        let few = CostModel::new(MachineProfile::tianhe2(), 16);
        let m = uniform_matrix(16, 2_000_000);
        let dc = few.exchange_time(&vmpi::traffic(Strategy::Distributed, &m));
        let cc = few.exchange_time(&vmpi::traffic(Strategy::Centralized, &m));
        assert!(dc < cc, "dc {dc} cc {cc}");

        // few particles, many ranks: centralized faster
        let many = CostModel::new(MachineProfile::bscc(), 768);
        let m = uniform_matrix(768, 20);
        let dc = many.exchange_time(&vmpi::traffic(Strategy::Distributed, &m));
        let cc = many.exchange_time(&vmpi::traffic(Strategy::Centralized, &m));
        assert!(cc < dc, "cc {cc} dc {dc}");
    }

    fn pair_matrix(n: usize, pairs: &[(usize, usize, u64)]) -> Vec<Vec<u64>> {
        let mut m = vec![vec![0u64; n]; n];
        for &(s, d, b) in pairs {
            m[s][d] = b;
        }
        m
    }

    #[test]
    fn sparse_wins_quiet_steps_dc_wins_dense_ones() {
        let cm = CostModel::new(MachineProfile::tianhe2(), 96);

        // quiet step: two migrating pairs out of 96·95 — the sparse
        // protocol's 4-message bill beats both all-pairs schedules
        let quiet = pair_matrix(96, &[(3, 7, 4_000), (40, 12, 2_000)]);
        let [cc, dc, sp, _] = cm.exchange_times(&quiet);
        assert!(sp < dc, "sparse {sp} dc {dc}");
        assert!(sp < cc, "sparse {sp} cc {cc}");

        // dense step: every pair migrates, so sparse pays the same
        // payload plus count messages and fences — distributed wins
        let dense = uniform_matrix(96, 50_000);
        let [_, dc, sp, _] = cm.exchange_times(&dense);
        assert!(dc < sp, "dc {dc} sparse {sp}");
    }

    #[test]
    fn pick_strategy_follows_the_matrix() {
        let cm = CostModel::new(MachineProfile::tianhe2(), 96);
        let quiet = pair_matrix(96, &[(3, 7, 4_000)]);
        assert_eq!(cm.pick_strategy(&quiet), Strategy::Sparse);
        let dense = uniform_matrix(96, 50_000);
        assert_eq!(cm.pick_strategy(&dense), Strategy::Distributed);

        // tiny dense traffic at high rank counts: root serialization
        // is cheaper than either all-pairs schedule (Fig. 11 regime)
        let many = CostModel::new(MachineProfile::bscc(), 768);
        let trickle = uniform_matrix(768, 20);
        assert_eq!(many.pick_strategy(&trickle), Strategy::Centralized);
    }

    #[test]
    fn hier_wins_dense_heavy_traffic_at_scale() {
        // 1536 ranks, every pair migrating ~1 KB: the centralized
        // root chokes on 2M bytes through one link, the all-pairs
        // schedules choke on per-rank message latency — only the
        // node-aggregated strategy keeps both bills bounded by the
        // node fan-in. This is the crossover the fig-style experiment
        // records.
        let cm = CostModel::new(MachineProfile::tianhe3(), 1536);
        let dense = uniform_matrix(1536, 1_000);
        let [cc, dc, sp, hier] = cm.exchange_times(&dense);
        assert!(hier < cc, "hier {hier} cc {cc}");
        assert!(hier < dc, "hier {hier} dc {dc}");
        assert!(hier < sp, "hier {hier} sparse {sp}");
        assert_eq!(cm.pick_strategy(&dense), Strategy::Hier);

        // but on a quiet step that crosses nodes, the three-hop relay
        // and the four fences make it lose to Sparse
        let quiet = pair_matrix(1536, &[(3, 1000, 4_000)]);
        assert_eq!(cm.pick_strategy(&quiet), Strategy::Sparse);
    }

    #[test]
    fn poisson_stops_scaling() {
        // fixed-size problem: time should *increase* from 96 to 1536
        // ranks (latency-bound), mirroring Table IV
        let nnz = 4_000_000usize;
        let nodes = 600_000usize;
        let t =
            |k: usize| CostModel::new(MachineProfile::tianhe2(), k).poisson_time(200, nnz, nodes);
        assert!(t(24) > t(96) * 0.5, "some speedup early is fine");
        assert!(t(1536) > t(96), "latency must dominate at scale");
    }

    #[test]
    fn placement_effect_is_percent_level() {
        // paper Fig. 14: inner-frame vs inter-rack differs by ~1-2%
        let mk = |p: Placement| {
            let mut cm = CostModel::new(MachineProfile::tianhe2(), 96);
            cm.placement = p;
            let m = uniform_matrix(96, 10_000);
            // a step dominated by compute with some exchange
            1.0 + cm.exchange_time(&vmpi::traffic(Strategy::Distributed, &m))
        };
        let inner = mk(Placement::InnerFrame);
        let inter = mk(Placement::InterRack);
        assert!(inter > inner);
        assert!(
            (inter - inner) / inner < 0.05,
            "{}",
            (inter - inner) / inner
        );
    }

    #[test]
    fn rebalance_km_overhead_is_small() {
        let cm = CostModel::new(MachineProfile::tianhe2(), 96);
        let m = uniform_matrix(96, 1000);
        let tr = vmpi::traffic(Strategy::Distributed, &m);
        let with = cm.rebalance_time(100_000, &tr, true);
        let without = cm.rebalance_time(100_000, &tr, false);
        // KM itself adds well under 10% here
        assert!((with - without) / without < 0.1);
    }
}
