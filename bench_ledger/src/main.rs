//! `bench_ledger` — the repo's benchmark.
//!
//! Six workloads drive the public API of every layer from outside.
//! A run of one workload (`--workload W --seed N --seconds S --trace
//! 0|1`) prints every metric by name with its unit, checks the
//! results, and ends with one JSON line: the end-to-end rows with
//! tracing off (`--trace 0`), or the per-layer ledger from a separate
//! traced pass (`--trace 1`). Without `--workload` the binary is the
//! suite: it re-executes itself per (workload, rep) round-robin and
//! aggregates, compares or calibrates. See README.md beside this file.

mod e2e;
mod host;
mod layers;
mod ledger;
mod metrics;
mod probes;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use metrics::Values;
use obs::json::{obj, Json};
use std::path::PathBuf;
use workloads::Workload;

/// Names of metrics and workloads: `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
pub fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

pub fn hash_text(h: u64) -> String {
    format!("{h:#018x}")
}

/// Where traces and suite results go: under the cargo target dir, so
/// nothing lands among the sources.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench_ledger/target"));
    target.join("bench_ledger")
}

/// Seconds one run measures: the `run_seconds` of `BENCHMARK.json`
/// and the suite's default.
pub const RUN_SECONDS: u64 = 12;

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    /// 2 steps, 1 rep, 12 jobs: same code paths, same self-checks.
    pub smoke: bool,
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub steps: usize,
    pub population: usize,
    pub mean_density: f64,
    pub result_hash: u64,
    /// Whether `result_hash` equals the recorded reference (only
    /// meaningful at the reference's seed and step count).
    pub matches_reference: bool,
    /// Metrics timed with more runnable threads than CPUs.
    pub oversubscribed: Vec<String>,
}

/// Print every metric by name with its unit, the checks, the suite's
/// `info` line and, last, the driver's JSON line.
fn report(w: &Workload, o: &Opts, traced: bool, out: &RunResult) -> bool {
    let defs = if traced {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let mut missing = out.values.mismatches(&defs);
    // the builder contract: an end-to-end metric is never 0
    if !traced {
        missing.extend(
            out.values
                .0
                .iter()
                .filter(|(_, v)| *v == 0.0)
                .map(|(n, _)| format!("zero {n}")),
        );
    }
    let mut metric_rows = Vec::new();
    for d in &defs {
        let Some(value) = out.values.get(&d.name) else {
            continue;
        };
        let mut tags = String::new();
        if d.exact {
            tags.push_str(" [exact count]");
        }
        if out.oversubscribed.contains(&d.name) {
            tags.push_str(" [oversubscribed: excluded from bounds]");
        }
        println!("{:<48} {:>18.6} {}{tags}", d.name, value, d.unit);
        metric_rows.push((
            d.name.as_str(),
            obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(d.unit.to_string())),
            ]),
        ));
    }
    for e in out.errors.iter().chain(&missing) {
        println!("FAILED {e}");
    }
    let correct = out.failed == 0 && out.errors.is_empty() && missing.is_empty();
    println!(
        "# {} seed {}: population {} mean_density {:e} result_hash {} matches_reference {} ops {} failed {}",
        w.name,
        o.seed,
        out.population,
        out.mean_density,
        hash_text(out.result_hash),
        out.matches_reference,
        out.attempted,
        out.failed
    );
    let info = obj(vec![
        ("workload", Json::Str(w.name.to_string())),
        ("seed", Json::U64(o.seed)),
        ("steps", Json::U64(out.steps as u64)),
        ("population", Json::U64(out.population as u64)),
        ("mean_density", Json::Num(out.mean_density)),
        ("result_hash", Json::Str(hash_text(out.result_hash))),
        ("matches_reference", Json::Bool(out.matches_reference)),
        (
            "oversubscribed",
            Json::Arr(out.oversubscribed.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    println!("info {info}");
    let line = obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(out.attempted.max(1))),
        ("failed", Json::U64(out.failed)),
        ("metrics", obj(metric_rows)),
    ]);
    println!("{line}");
    missing.is_empty()
}

/// One run of one workload, the builder contract's interface.
fn run_one(name: &str, o: &Opts, traced: bool) -> Result<bool, String> {
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (have: {})", names.join(", "))
    })?;
    let load = host::loadavg();
    host::warn_if_loaded(load);
    println!(
        "# bench_ledger {} seed {} seconds {} trace {} | nproc {} load {:?}{}",
        w.name,
        o.seed,
        o.seconds,
        u8::from(traced),
        host::nproc(),
        load,
        if o.smoke { " | smoke" } else { "" }
    );
    let out = if traced {
        layers::trace(w, o)
    } else {
        e2e::measure(w, o)
    }?;
    Ok(report(w, o, traced, &out))
}

const USAGE: &str = "usage:
  bench_ledger --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run, JSON on the last line
  bench_ledger [--seed N] [--workload W]... [--reps R] [--seconds S] [--traced] [--out FILE]
                                                                     the suite: R runs per workload, round-robin
  bench_ledger --smoke                                               every workload, both passes, tiny sizes
  bench_ledger --calibrate                                           two suites; widen bounds in BENCHMARK.json
  bench_ledger --compare OLD.json NEW.json                           better / worse / unresolved per row";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let mut workloads_named = Vec::new();
    let mut o = Opts {
        seed: 1,
        seconds: RUN_SECONDS as f64,
        smoke: false,
    };
    let (mut trace_flag, mut reps, mut traced_suite, mut calibrate) = (None, 5usize, false, false);
    let mut out_path = None;
    let mut compare = None;
    let fail = |msg: String| -> ! {
        eprintln!("bench_ledger: {msg}\n{USAGE}");
        std::process::exit(2);
    };
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> String {
            it.next()
                .cloned()
                .unwrap_or_else(|| fail(format!("{arg} needs {what}")))
        };
        let number = |text: String| -> f64 {
            text.parse()
                .unwrap_or_else(|_| fail(format!("`{text}` is not a number")))
        };
        match arg.as_str() {
            "--workload" => workloads_named.push(value("a workload name")),
            "--seed" => o.seed = number(value("a seed")) as u64,
            "--seconds" => o.seconds = number(value("seconds")),
            "--trace" => trace_flag = Some(number(value("0 or 1")) != 0.0),
            "--reps" => reps = (number(value("a count")) as usize).max(1),
            "--traced" => traced_suite = true,
            "--smoke" => o.smoke = true,
            "--calibrate" => calibrate = true,
            "--out" => out_path = Some(PathBuf::from(value("a path"))),
            "--compare" => compare = Some((value("OLD.json"), value("NEW.json"))),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(format!("unknown argument `{other}`")),
        }
    }
    if o.smoke {
        o.seconds = 0.0;
    }

    let outcome = if let Some((old, new)) = compare {
        suite::compare(&old, &new)
    } else if calibrate {
        suite::calibrate(&o, reps)
    } else if let (Some(traced), [name]) = (trace_flag, workloads_named.as_slice()) {
        run_one(name, &o, traced)
    } else if trace_flag.is_some() {
        Err("--trace runs exactly one --workload".to_string())
    } else {
        let out_path = out_path.unwrap_or_else(|| out_dir().join("result.json"));
        suite::run(
            &o,
            &workloads_named,
            reps,
            traced_suite || o.smoke,
            &out_path,
        )
        .map(|_| true)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("bench_ledger: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_rule_is_the_contracts() {
        for good in [
            "a",
            "run_s",
            "vmpi.exchange_us.cc.dense.r4",
            "DSMC_Move",
            "p-1",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
