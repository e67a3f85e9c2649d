//! The metric catalogue: every name the benchmark emits, with its
//! unit and direction. `BENCHMARK.json` lists exactly these (a unit
//! test compares the two), and a run that fails to produce one of
//! them exits non-zero.

use crate::ledger::LEDGER_PHASES;
use crate::probes::exchange_case_keys;
use coupled::Phase;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// A count the program makes that repeats exactly for one seed.
    pub exact: bool,
    /// End-to-end only: the floor of the regression bound (share of
    /// the parent's median); `--calibrate` may only widen it.
    pub bound_floor: f64,
}

fn def(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        exact: false,
        bound_floor: 0.0,
    }
}

fn exact(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        exact: true,
        ..def(name, unit, better)
    }
}

/// The end-to-end rows: what a user of the system sees. Every workload
/// reports every row (see the README for what a row means on a
/// workload it was not designed for).
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::*;
    let bounded = |name, unit, better, bound_floor| MetricDef {
        bound_floor,
        ..def(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", Lower, 0.25),
        bounded("run_s", "s", Lower, 0.10),
        bounded("particle_steps_per_s", "1/s", Higher, 0.10),
        bounded("peak_rss_mb", "MiB", Lower, 0.05),
        bounded("modelled_step_ms", "ms", Lower, 0.10),
        bounded("jobs_per_s", "1/s", Higher, 0.10),
        bounded("job_latency_p50_s", "s", Lower, 0.10),
    ]
}

/// The per-layer ledger, layer = crate.
pub fn per_layer() -> Vec<MetricDef> {
    use Better::*;
    let mut m = vec![
        def("mesh.build_s", "s", Lower),
        exact("mesh.coarse_cells", "count", Lower),
        exact("mesh.fine_nodes", "count", Lower),
        def("particles.sort_ns_per_particle", "ns", Lower),
        def("particles.pack_ns_per_particle", "ns", Lower),
        exact("particles.bytes_per_particle", "B", Lower),
        def("dsmc.inject_ns_per_particle", "ns", Lower),
        def("dsmc.move_ns_per_particle", "ns", Lower),
        def("dsmc.collide_ns_per_candidate", "ns", Lower),
        exact("dsmc.collide_accept_ratio", "ratio", Higher),
        def("pic.deposit_ns_per_particle", "ns", Lower),
        def("pic.push_ns_per_particle", "ns", Lower),
        def("pic.ion_move_ns_per_particle", "ns", Lower),
        def("pic.efield_ns_per_node", "ns", Lower),
        def("pic.poisson_assemble_s", "s", Lower),
        exact("sparse.cg_iters_per_solve", "count", Lower),
        def("sparse.cg_ns_per_iter_node", "ns", Lower),
        def("sparse.spmv_ns_per_nnz", "ns", Lower),
        exact("sparse.cg_unconverged", "count", Lower),
        def("kernels.pool2_move_speedup", "ratio", Higher),
        def("kernels.dispatch_us", "us", Lower),
    ];
    for (key, ..) in exchange_case_keys() {
        m.push(def(&format!("vmpi.exchange_us.{key}"), "us", Lower));
        if key.ends_with(".r4") {
            m.push(exact(&format!("vmpi.exchange_tx.{key}"), "count", Lower));
            m.push(exact(&format!("vmpi.exchange_bytes.{key}"), "B", Lower));
        }
    }
    m.push(exact("vmpi.traffic_mismatch", "count", Lower));
    m.extend([
        def("partition.kway384_s", "s", Lower),
        exact("partition.kway384_edge_cut", "count", Lower),
        exact("partition.kway384_imbalance", "ratio", Lower),
        def("partition.hungarian384_s", "s", Lower),
        def("balance.rebalance_s_p50", "s", Lower),
        exact("balance.rebalances", "count", Lower),
        exact("balance.lii_before", "ratio", Lower),
        exact("balance.lii_after", "ratio", Lower),
        exact("balance.migrated_fraction", "ratio", Lower),
    ]);
    for p in Phase::ALL {
        m.push(def(&format!("coupled.phase_s.{}", p.name()), "s", Lower));
    }
    m.push(def("coupled.phase_residual_ratio", "ratio", Lower));
    m.push(def("coupled.kernel_ledger_residual_ratio", "ratio", Lower));
    for p in LEDGER_PHASES {
        m.push(def(
            &format!("coupled.kernel_ledger_residual_ratio.{}", p.name()),
            "ratio",
            Lower,
        ));
    }
    m.extend([
        def("coupled.step_s_p50", "s", Lower),
        def("coupled.step_s_p90", "s", Lower),
        def("coupled.model_overhead_ratio", "ratio", Lower),
        def("coupled.tx", "count", Lower),
        def("coupled.bytes", "B", Lower),
        def("coupled.scenario_parse_us", "us", Lower),
        def("coupled.checkpoint_s", "s", Lower),
        def("coupled.restore_s", "s", Lower),
        exact("coupled.checkpoint_mb", "MiB", Lower),
        def("obs.recorder_overhead_ratio", "ratio", Lower),
        def("jobsrv.submit_us_p50", "us", Lower),
        def("jobsrv.queue_s_p50", "s", Lower),
        def("jobsrv.run_s_p50", "s", Lower),
        def("jobsrv.latency_p95_s", "s", Lower),
        def("jobsrv.cache_hit_us_p50", "us", Lower),
        exact("jobsrv.cache_hits", "count", Higher),
        exact("jobsrv.attempts", "count", Lower),
        exact("jobsrv.coalesced", "count", Higher),
        exact("jobsrv.failed", "count", Lower),
        def("harness.trace_overhead_ratio", "ratio", Lower),
    ]);
    m
}

/// Measured values in emission order.
#[derive(Debug, Clone, Default)]
pub struct Values(pub Vec<(String, f64)>);

impl Values {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Names of `defs` with no finite value here, and names here that
    /// `defs` does not list.
    pub fn mismatches(&self, defs: &[MetricDef]) -> Vec<String> {
        let mut bad: Vec<String> = defs
            .iter()
            .filter(|d| !self.get(&d.name).is_some_and(f64::is_finite))
            .map(|d| format!("missing {}", d.name))
            .collect();
        bad.extend(
            self.0
                .iter()
                .filter(|(n, _)| !defs.iter().any(|d| &d.name == n))
                .map(|(n, _)| format!("unlisted {n}")),
        );
        bad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        obs::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, section: &str) -> Vec<(String, String, String)> {
        doc.get(section)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{section} is an array"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        assert!(names.iter().all(|n| crate::valid_name(n)), "{names:?}");
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a metric name is used twice");
        assert!(per_layer().len() <= 128 && end_to_end().len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let doc = benchmark_json();
        for (section, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let want: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| {
                    (
                        d.name.clone(),
                        d.unit.to_string(),
                        d.better.as_str().to_string(),
                    )
                })
                .collect();
            assert_eq!(listed(&doc, section), want, "{section}");
        }
        for (m, d) in doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .zip(end_to_end())
        {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(
                bound >= d.bound_floor && bound <= 0.25,
                "{}: bound {bound} outside [{}, 0.25]",
                d.name,
                d.bound_floor
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_workloads() {
        let doc = benchmark_json();
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| {
                let field = |k: &str| w.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("why"))
            })
            .collect();
        let want: Vec<(String, String)> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(listed, want);
    }

    #[test]
    fn mismatches_name_missing_and_unlisted_rows() {
        let defs = vec![def("a", "s", Better::Lower), def("b", "s", Better::Lower)];
        let mut v = Values::default();
        v.put("a", 1.0);
        v.put("c", 2.0);
        assert_eq!(v.mismatches(&defs), vec!["missing b", "unlisted c"]);
        v.put("b", f64::NAN);
        assert_eq!(v.mismatches(&defs), vec!["missing b", "unlisted c"]);
    }
}
