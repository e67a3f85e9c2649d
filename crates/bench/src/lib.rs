//! Experiment harness shared by the table/figure reproduction
//! binaries (`src/bin/*`). Each binary regenerates one table or
//! figure of the paper; see EXPERIMENTS.md for the index and the
//! recorded paper-vs-measured comparison.
//!
//! Environment knobs (all optional):
//! * `REPRO_SCALE` — dataset scale factor (default 0.35; §5 of
//!   DESIGN.md). Larger = closer to paper resolution, slower.
//! * `REPRO_STEPS` — DSMC steps per run (default 50; paper uses 100).
//! * `REPRO_OUT` — directory for CSV output (default `results/`).
//! * `REPRO_TRACE` / `--trace-out <path>` — structured JSONL trace of
//!   the designated run (see [`trace_spec`] and DESIGN.md §11).

use balance::{CostSourceKind, RebalanceConfig};
use coupled::{
    ClusterSim, Dataset, Decomposition, MachineProfile, Placement, RunConfig, RunReport,
};
use obs::{MetricsSnapshot, TraceSpec};
use std::path::PathBuf;
use vmpi::Strategy;

/// The paper's strong-scaling rank ladder (Table II).
pub const RANK_LADDER: [usize; 7] = [24, 48, 96, 192, 384, 768, 1536];

/// FNV-1a over the little-endian bytes of a float series — the same
/// digest the guard tests pin, so bench output can be compared
/// against the golden hashes directly.
pub fn fnv1a(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

/// Dataset scale for experiments (env `REPRO_SCALE`).
pub fn scale() -> f64 {
    std::env::var("REPRO_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.35)
}

/// DSMC steps per experiment run (env `REPRO_STEPS`).
pub fn steps() -> usize {
    std::env::var("REPRO_STEPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(50)
}

/// Output directory for CSV artifacts (env `REPRO_OUT`).
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("REPRO_OUT").unwrap_or_else(|_| "results".into());
    let p = PathBuf::from(dir);
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Write a CSV artifact and report where it went.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let path = out_dir().join(name);
    std::fs::write(&path, coupled::report::csv(headers, rows)).expect("write csv");
    println!("[csv] {}", path.display());
}

/// Trace output path: `--trace-out <path>` (or `--trace-out=<path>`)
/// on the command line, else env `REPRO_TRACE`, else `None`.
pub fn trace_out() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--trace-out" {
            return args.next().map(PathBuf::from);
        }
        if let Some(p) = a.strip_prefix("--trace-out=") {
            return Some(PathBuf::from(p));
        }
    }
    std::env::var("REPRO_TRACE").ok().map(PathBuf::from)
}

/// The [`TraceSpec`] selected for this process: JSONL at
/// [`trace_out`]'s path, or [`TraceSpec::Off`] when no path is given.
/// Binaries that run several simulations attach this to one
/// designated run (re-opening the same path would overwrite it).
pub fn trace_spec() -> TraceSpec {
    trace_out().map(TraceSpec::Jsonl).unwrap_or_default()
}

/// Write a versioned [`coupled::RunReport`] JSON artifact (schema
/// [`obs::SCHEMA_VERSION`]) next to the CSVs, with an optional
/// metrics snapshot embedded.
pub fn write_report_json(
    name: &str,
    report: &coupled::RunReport,
    metrics: Option<&MetricsSnapshot>,
) {
    let path = out_dir().join(name);
    std::fs::write(&path, format!("{}\n", report.to_json(metrics))).expect("write report json");
    println!("[json] {}", path.display());
}

/// Configuration of one modelled cluster run.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    pub dataset: Dataset,
    pub ranks: usize,
    pub strategy: Strategy,
    pub load_balance: bool,
    pub use_km: bool,
    pub t_interval: usize,
    pub threshold: f64,
    pub w_cell: i64,
    /// Where the balancer's partition weights come from (analytic
    /// paper WLM or the timer-augmented measured-cost source).
    pub cost_source: CostSourceKind,
    /// Unified particle/field ownership or the Eulerian/Lagrangian
    /// split decomposition.
    pub decomposition: Decomposition,
    /// Steps to run; `None` uses the global [`steps`] knob.
    pub steps: Option<usize>,
    pub profile: fn() -> MachineProfile,
    pub placement: Placement,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment {
            dataset: Dataset::D2,
            ranks: 24,
            strategy: Strategy::Distributed,
            load_balance: true,
            use_km: true,
            t_interval: 20,
            threshold: 2.0,
            w_cell: 1,
            cost_source: CostSourceKind::PaperWlm,
            decomposition: Decomposition::Unified,
            steps: None,
            profile: MachineProfile::tianhe2,
            placement: Placement::InnerFrame,
        }
    }
}

impl Experiment {
    /// Run the modelled cluster simulation and return its report.
    pub fn run(&self) -> RunReport {
        self.run_with(obs::TraceSpec::Off, None)
    }

    /// Like [`Experiment::run`], with an explicit trace sink and
    /// optional metrics registry attached to the run.
    pub fn run_with(&self, trace: TraceSpec, metrics: Option<obs::Registry>) -> RunReport {
        let mut builder = RunConfig::builder()
            .paper(self.dataset, scale())
            .ranks(self.ranks)
            .strategy(self.strategy)
            .rebalance(self.load_balance.then(|| RebalanceConfig {
                t_interval: self.t_interval,
                threshold: self.threshold,
                use_km: self.use_km,
                wlm: balance::WlmParams {
                    r: 2,
                    w_cell: self.w_cell,
                },
                cost_source: self.cost_source,
                ..RebalanceConfig::default()
            }))
            .decomposition(self.decomposition)
            .trace(trace);
        if let Some(reg) = metrics {
            builder = builder.metrics(reg);
        }
        let run = builder.build().expect("valid experiment config");
        let mut sim = ClusterSim::new(&run, (self.profile)()).with_placement(self.placement);
        sim.run(self.steps.unwrap_or_else(steps))
    }
}

/// Human label for a strategy.
pub fn strat_name(s: Strategy) -> &'static str {
    match s {
        Strategy::Distributed => "DC",
        Strategy::Centralized => "CC",
        Strategy::Sparse => "Sparse",
        Strategy::Hier => "Hier",
        Strategy::Auto => "Auto",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_ladder_matches_paper() {
        assert_eq!(RANK_LADDER[0], 24);
        assert_eq!(*RANK_LADDER.last().unwrap(), 1536);
    }

    #[test]
    fn tiny_experiment_runs() {
        // guard against env leakage from the defaults test
        std::env::set_var("REPRO_SCALE", "0.02");
        std::env::set_var("REPRO_STEPS", "3");
        let e = Experiment {
            ranks: 4,
            ..Experiment::default()
        };
        let rep = e.run();
        assert!(rep.total_time > 0.0);
        assert_eq!(rep.trace.len(), 3);
        std::env::remove_var("REPRO_SCALE");
        std::env::remove_var("REPRO_STEPS");
    }
}
