//! Experiment harness and the table/figure reproductions themselves
//! ([`experiments`], one module each, dispatched by the `repro`
//! binary). Each experiment regenerates one table or figure of the
//! paper; see EXPERIMENTS.md for the index and the recorded
//! paper-vs-measured comparison.
//!
//! Environment knobs (all optional):
//! * `REPRO_SCALE` — dataset scale factor (default 0.35; §5 of
//!   DESIGN.md). Larger = closer to paper resolution, slower.
//! * `REPRO_STEPS` — DSMC steps per run (default 50; paper uses 100).
//! * `REPRO_OUT` — directory for CSV output (default `results/`).
//! * `REPRO_TRACE` / `--trace-out <path>` — structured JSONL trace of
//!   the designated run (see [`trace_spec`] and DESIGN.md §10).

use balance::RebalanceConfig;
use coupled::{ClusterSim, Dataset, MachineProfile, Placement, RunConfig, RunReport};
use obs::{MetricsSnapshot, TraceSpec};
use std::path::PathBuf;
use vmpi::Strategy;

/// One module per experiment, each a `pub fn run()`; `src/bin/repro.rs`
/// holds the table that names them.
pub mod experiments {
    pub mod ablation_autotune;
    pub mod chaos_run;
    pub mod fig05_imbalance;
    pub mod fig08_contours;
    pub mod fig09_validation;
    pub mod fig11_cc_vs_dc;
    pub mod fig12_sweep_t;
    pub mod fig13_sweep_threshold;
    pub mod fig14_placement;
    pub mod fig15_portability;
    pub mod fig_hier_crossover;
    pub mod fig_scenario_imbalance;
    pub mod tab02_strong_scaling;
    pub mod tab03_move_times;
    pub mod tab04_breakdown;
    pub mod tab05_km_overhead;
    pub mod tab06_sweep_wcell;
}

/// The paper's strong-scaling rank ladder (Table II).
pub const RANK_LADDER: [usize; 7] = [24, 48, 96, 192, 384, 768, 1536];

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
    /// The balancer's settings; `None` runs without load balancing.
    pub rebalance: Option<RebalanceConfig>,
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
            rebalance: Some(RebalanceConfig::default()),
            steps: None,
            profile: MachineProfile::tianhe2,
            placement: Placement::InnerFrame,
        }
    }
}

impl Experiment {
    /// Run the modelled cluster simulation and return its report.
    pub fn run(&self) -> RunReport {
        let run = RunConfig::builder()
            .paper(self.dataset, scale())
            .ranks(self.ranks)
            .strategy(self.strategy)
            .rebalance(self.rebalance)
            .build()
            .expect("valid experiment config");
        let mut sim = ClusterSim::new(&run, (self.profile)()).with_placement(self.placement);
        sim.run(self.steps.unwrap_or_else(steps))
    }
}

/// One variant of a [`ladder_sweep`]: its table row label, its CSV key
/// columns, and the experiment run at every rank count (its `ranks`
/// is overwritten).
pub type Variant = (String, Vec<String>, Experiment);

/// The paper-shaped sweep table: run every variant at every rank
/// count of `ladder`, with `point` turning each report into `(table
/// cell, CSV value columns, progress note)`. Prints a progress line per
/// run to stderr and the titled table to stdout, writes the CSV (key
/// columns, ranks, value columns) and returns the table rows.
pub fn ladder_sweep(
    title: &str,
    ladder: &[usize],
    (csv_name, csv_headers): (&str, &[&str]),
    variants: Vec<Variant>,
    point: impl Fn(&RunReport) -> (String, Vec<String>, String),
) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (label, key, experiment) in variants {
        let mut row = vec![label.clone()];
        for &ranks in ladder {
            let rep = Experiment {
                ranks,
                ..experiment
            }
            .run();
            let (cell, values, note) = point(&rep);
            row.push(cell);
            csv_rows.push([key.clone(), vec![ranks.to_string()], values].concat());
            eprintln!("  {label} @ {ranks}: {note}");
        }
        rows.push(row);
    }
    println!("\n{title}");
    let ranks: Vec<String> = ladder.iter().map(|r| r.to_string()).collect();
    let headers: Vec<&str> = std::iter::once("variant")
        .chain(ranks.iter().map(String::as_str))
        .collect();
    println!("{}", coupled::report::table(&headers, &rows));
    write_csv(csv_name, csv_headers, &csv_rows);
    rows
}

/// The [`ladder_sweep`] point of the total-time sweeps: the modelled
/// total time, one decimal in the table, three in the CSV.
pub fn total_time_point(rep: &RunReport) -> (String, Vec<String>, String) {
    let t = rep.total_time;
    (
        format!("{t:.1}"),
        vec![format!("{t:.3}")],
        format!("{t:.1}s"),
    )
}

/// Steady-state lii: mean over the last quarter of a trajectory.
pub fn steady_state_lii(lii: &[f64]) -> f64 {
    let tail = &lii[lii.len() - (lii.len() / 4).max(1)..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// The lii trajectory of `report`, appending one
/// `(label, step, lii, rebalanced)` CSV row per step to `csv_rows`.
pub fn lii_trajectory(
    label: &str,
    report: &RunReport,
    csv_rows: &mut Vec<Vec<String>>,
) -> Vec<f64> {
    let lii: Vec<f64> = report.trace.iter().map(|tr| tr.lii).collect();
    for (i, (tr, &l)) in report.trace.iter().zip(&lii).enumerate() {
        csv_rows.push(vec![
            label.to_string(),
            i.to_string(),
            format!("{l:.4}"),
            tr.rebalanced.to_string(),
        ]);
    }
    lii
}

/// Human label for a strategy.
pub fn strat_name(s: Strategy) -> &'static str {
    s.concrete_index()
        .map_or("Auto", |i| obs::STRATEGY_NAMES[i])
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
