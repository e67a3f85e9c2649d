//! The suite: many runs of the single-run interface, aggregated the
//! way the PR driver aggregates them, plus `--compare` and
//! `--calibrate` on the resulting files.
//!
//! The parent re-executes this binary as a child per (workload, rep),
//! round-robin — rep 0 of every workload, then rep 1, … — so
//! `peak_rss_mb` is per workload and a noisy minute on a shared host
//! does not land on one workload only.

use crate::metrics::{self, Better, MetricDef};
use crate::stats::{summarize, Summary};
use crate::workloads::{self, WORKLOADS};
use crate::{host, Opts};
use obs::json::{obj, Json};
use std::path::Path;
use std::process::Command;

/// What a child run printed: its `info` line and its last JSON line.
struct ChildRun {
    info: Json,
    result: Json,
}

fn child(workload: &str, o: &Opts, seed: u64, traced: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let fail = |why: &str| {
        format!(
            "{workload} (trace {}): {why}\n{text}{}",
            u8::from(traced),
            String::from_utf8_lossy(&out.stderr)
        )
    };
    if !out.status.success() {
        return Err(fail("child exited non-zero"));
    }
    let info = text
        .lines()
        .find_map(|l| l.strip_prefix("info "))
        .and_then(|l| obs::json::parse(l).ok())
        .ok_or_else(|| fail("no info line"))?;
    let result = text
        .lines()
        .last()
        .and_then(|l| obs::json::parse(l).ok())
        .ok_or_else(|| fail("last line is not JSON"))?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(fail("result is not correct"));
    }
    Ok(ChildRun { info, result })
}

fn metric_value(run: &ChildRun, name: &str) -> Option<f64> {
    run.result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn summary_json(d: &MetricDef, values: &[f64]) -> Json {
    let s = summarize(values);
    obj(vec![
        ("name", Json::Str(d.name.clone())),
        ("unit", Json::Str(d.unit.to_string())),
        ("better", Json::Str(d.better.as_str().to_string())),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("n", Json::U64(s.n as u64)),
        (
            "values",
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

/// Run the suite and write its result JSON to `out_path`.
pub fn run(
    o: &Opts,
    named: &[String],
    reps: usize,
    traced: bool,
    out_path: &Path,
) -> Result<Json, String> {
    let names: Vec<&str> = if named.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        named.iter().map(String::as_str).collect()
    };
    for n in &names {
        workloads::find(n).ok_or_else(|| format!("unknown workload `{n}`"))?;
    }
    let reps = if o.smoke { 1 } else { reps };
    let load_before = host::loadavg();
    host::warn_if_loaded(load_before);
    let e2e = metrics::end_to_end();
    let layer = metrics::per_layer();

    // round-robin: rep r of every workload before rep r+1 of any.
    // Like the PR driver, each rep takes another seed (seed + r), so
    // the spread of a row includes what the inputs contribute; rep 0
    // is the seed the reference was recorded at.
    let mut runs: Vec<Vec<ChildRun>> = names.iter().map(|_| Vec::new()).collect();
    for rep in 0..reps {
        for (slot, name) in runs.iter_mut().zip(&names) {
            eprintln!("[suite] {name} rep {}/{reps}", rep + 1);
            slot.push(child(name, o, o.seed + rep as u64, false)?);
        }
    }
    let mut traces = Vec::new();
    if traced {
        for name in &names {
            eprintln!("[suite] {name} traced pass");
            traces.push(Some(child(name, o, o.seed, true)?));
        }
    } else {
        traces.extend(names.iter().map(|_| None));
    }

    let mut rows = Vec::new();
    for ((name, runs), traced_run) in names.iter().zip(&runs).zip(&traces) {
        let first = &runs[0];
        let info = |k: &str| first.info.get(k).cloned().unwrap_or(Json::Null);
        let count = |k: &str| -> u64 {
            runs.iter()
                .filter_map(|r| r.result.get(k).and_then(Json::as_u64))
                .sum()
        };
        let mut missing = Vec::new();
        let mut e2e_rows = Vec::new();
        println!("\n== {name}");
        for d in &e2e {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(r, &d.name))
                .collect();
            if values.len() != runs.len() {
                missing.push(d.name.clone());
                continue;
            }
            let s = summarize(&values);
            println!(
                "{:<28} median {:>14.6} {:<6} q1 {:.6} q3 {:.6} min {:.6} max {:.6} n {} spread {:.1}%",
                d.name, s.median, d.unit, s.q1, s.q3, s.min, s.max, s.n, s.iqr_ratio() * 100.0
            );
            e2e_rows.push(summary_json(d, &values));
        }
        let mut layer_rows = Vec::new();
        if let Some(t) = traced_run {
            let over: Vec<&str> = t
                .info
                .get("oversubscribed")
                .and_then(Json::as_array)
                .map(|a| a.iter().filter_map(Json::as_str).collect())
                .unwrap_or_default();
            for d in &layer {
                let Some(value) = metric_value(t, &d.name) else {
                    missing.push(d.name.clone());
                    continue;
                };
                let oversubscribed = over.contains(&d.name.as_str());
                println!(
                    "{:<48} {:>18.6} {}{}{}",
                    d.name,
                    value,
                    d.unit,
                    if d.exact { " [exact count]" } else { "" },
                    if oversubscribed {
                        " [oversubscribed]"
                    } else {
                        ""
                    }
                );
                layer_rows.push(obj(vec![
                    ("name", Json::Str(d.name.clone())),
                    ("unit", Json::Str(d.unit.to_string())),
                    ("value", Json::Num(value)),
                    ("exact", Json::Bool(d.exact)),
                    ("oversubscribed", Json::Bool(oversubscribed)),
                ]));
            }
        }
        if !missing.is_empty() {
            return Err(format!("{name}: missing rows: {}", missing.join(", ")));
        }
        rows.push(obj(vec![
            ("name", Json::Str(name.to_string())),
            ("steps", info("steps")),
            ("population", info("population")),
            ("mean_density", info("mean_density")),
            ("result_hash", info("result_hash")),
            ("matches_reference", info("matches_reference")),
            ("attempted", Json::U64(count("attempted"))),
            ("failed", Json::U64(count("failed"))),
            ("end_to_end", Json::Arr(e2e_rows)),
            ("per_layer", Json::Arr(layer_rows)),
        ]));
    }

    let load_after = host::loadavg();
    let num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
    let doc = obj(vec![
        ("schema", Json::U64(1)),
        ("seed", Json::U64(o.seed)),
        ("reps", Json::U64(reps as u64)),
        ("run_seconds", Json::Num(o.seconds)),
        ("smoke", Json::Bool(o.smoke)),
        ("host", host::fingerprint()),
        ("load_before", num(load_before)),
        ("load_after", num(load_after)),
        ("workloads", Json::Arr(rows)),
    ]);
    if let Some(dir) = out_path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(out_path, format!("{doc}\n"))
        .map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!(
        "\nresult written to {} (load {:?} -> {:?})",
        out_path.display(),
        load_before,
        load_after
    );
    Ok(doc)
}

// ---------------------------------------------------------------------
// --compare and --calibrate
// ---------------------------------------------------------------------

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The regression bound of each end-to-end metric in `BENCHMARK.json`.
fn bounds(doc: &Json) -> Vec<(String, f64)> {
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// The object called `name` in the array `doc[section]`.
pub fn named_row<'a>(doc: &'a Json, section: &str, name: &str) -> Option<&'a Json> {
    doc.get(section)?
        .as_array()?
        .iter()
        .find(|row| row.get("name").and_then(Json::as_str) == Some(name))
}

/// The summary of one end-to-end row of a suite result.
fn e2e_row(doc: &Json, workload: &str, metric: &str) -> Option<Summary> {
    let m = named_row(named_row(doc, "workloads", workload)?, "end_to_end", metric)?;
    let f = |k: &str| m.get(k).and_then(Json::as_f64);
    Some(Summary {
        n: f("n")? as usize,
        min: f("min")?,
        q1: f("q1")?,
        median: f("median")?,
        q3: f("q3")?,
        max: f("max")?,
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    /// The medians differ by less than the bound or the run-to-run
    /// spread: no claim either way.
    Unresolved,
}

/// Judge one (metric, workload) row. `worsening` is the relative
/// change of the median in the bad direction; it has to clear both
/// the metric's bound and the wider of the two sides' spreads.
pub fn judge(old: &Summary, new: &Summary, better: Better, bound: f64) -> (Verdict, f64) {
    let change = (new.median - old.median) / old.median.abs();
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let noise = bound.max(old.iqr_ratio()).max(new.iqr_ratio());
    let verdict = if worsening > noise {
        Verdict::Worse
    } else if worsening < -noise {
        Verdict::Better
    } else {
        Verdict::Unresolved
    };
    (verdict, worsening)
}

/// `--compare old.json new.json`: one row per (metric, workload).
/// Returns `Ok(false)` when any row is worse.
pub fn compare(old_path: &str, new_path: &str) -> Result<bool, String> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    let bounds = bounds(&load("BENCHMARK.json")?);
    let mut worse = 0;
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "old median", "new median", "change", "bound"
    );
    for w in &WORKLOADS {
        for d in metrics::end_to_end() {
            let (Some(a), Some(b)) = (
                e2e_row(&old, w.name, &d.name),
                e2e_row(&new, w.name, &d.name),
            ) else {
                continue;
            };
            let bound = bounds
                .iter()
                .find(|(n, _)| *n == d.name)
                .map_or(d.bound_floor, |(_, b)| *b);
            let (verdict, worsening) = judge(&a, &b, d.better, bound);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{:<18} {:<22} {:>14.6} {:>14.6} {:>+8.1}% {:>6.1}%  {}",
                w.name,
                d.name,
                a.median,
                b.median,
                (b.median - a.median) / a.median.abs() * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Better => "better".to_string(),
                    Verdict::Worse => format!("WORSE by {:.1}%", worsening * 100.0),
                    Verdict::Unresolved => "unresolved-within-noise".to_string(),
                }
            );
        }
        // counts the program makes must repeat exactly
        for (name, a, b) in exact_counts(&old, &new, w.name) {
            if a != b {
                println!("{:<18} {name:<22} exact count changed: {a} -> {b}", w.name);
            }
        }
    }
    println!("{worse} row(s) worse");
    Ok(worse == 0)
}

/// (name, old, new) of every exact-count per-layer metric of a workload
/// present in both results.
fn exact_counts(old: &Json, new: &Json, workload: &str) -> Vec<(String, f64, f64)> {
    let rows = |doc: &Json| -> Vec<(String, f64)> {
        named_row(doc, "workloads", workload)
            .and_then(|w| w.get("per_layer"))
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .filter(|m| m.get("exact").and_then(Json::as_bool) == Some(true))
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("value")?.as_f64()?,
                ))
            })
            .collect()
    };
    let new_rows = rows(new);
    rows(old)
        .into_iter()
        .filter_map(|(name, a)| {
            let b = new_rows.iter().find(|(n, _)| *n == name)?.1;
            Some((name, a, b))
        })
        .collect()
}

/// The `BENCHMARK.json` document for the given bounds.
pub fn benchmark_json(bounds: &[(String, f64)]) -> Json {
    let str_of = |s: &str| Json::Str(s.to_string());
    obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "bench_ledger/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(str_of)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![str_of("bench_ledger")])),
        ("run_seconds", Json::U64(crate::RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", str_of(w.name)), ("why", str_of(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                metrics::end_to_end()
                    .iter()
                    .map(|d| {
                        let bound = bounds
                            .iter()
                            .find(|(n, _)| *n == d.name)
                            .map_or(d.bound_floor, |(_, b)| *b);
                        obj(vec![
                            ("name", str_of(&d.name)),
                            ("unit", str_of(d.unit)),
                            ("better", str_of(d.better.as_str())),
                            ("bound", Json::Num(bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                metrics::per_layer()
                    .iter()
                    .map(|d| {
                        obj(vec![
                            ("name", str_of(&d.name)),
                            ("unit", str_of(d.unit)),
                            ("better", str_of(d.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One metric per line, so a later bound change is a one-line diff.
pub fn pretty(doc: &Json) -> String {
    let Json::Obj(members) = doc else {
        return doc.to_string();
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in members.iter().enumerate() {
        let comma = if i + 1 < members.len() { "," } else { "" };
        match value {
            Json::Arr(items) if items.iter().any(|v| matches!(v, Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let c = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {item}{c}\n"));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            _ => out.push_str(&format!("  \"{key}\": {value}{comma}\n")),
        }
    }
    out.push_str("}\n");
    out
}

/// The bound of a metric: its floor, or three times the widest spread
/// seen on any workload in either suite if that is larger (the builder
/// contract wants every spread below a third of its bound), capped at
/// the contract's 0.25 and rounded up to a whole percent.
pub fn calibrated_bound(floor: f64, spreads: &[f64]) -> f64 {
    let widest = spreads.iter().copied().fold(0.0, f64::max);
    let bound = floor.max(3.0 * widest).min(0.25);
    (bound * 100.0 - 1e-9).ceil() / 100.0
}

/// `--calibrate`: two full suites (traced passes included, so the
/// comparison also covers the exact counts), then write the bounds.
pub fn calibrate(o: &Opts, reps: usize) -> Result<bool, String> {
    let dir = crate::out_dir();
    let paths = [dir.join("calibrate-a.json"), dir.join("calibrate-b.json")];
    let docs = [
        run(o, &[], reps, true, &paths[0])?,
        run(o, &[], reps, true, &paths[1])?,
    ];
    let mut bounds = Vec::new();
    for d in metrics::end_to_end() {
        let spreads: Vec<f64> = docs
            .iter()
            .flat_map(|doc| {
                WORKLOADS
                    .iter()
                    .filter_map(|w| e2e_row(doc, w.name, &d.name))
            })
            .map(|s| s.iqr_ratio())
            .collect();
        let bound = calibrated_bound(d.bound_floor, &spreads);
        println!(
            "{:<24} floor {:>4.0}%  widest spread {:>5.1}%  bound {:>4.0}%{}",
            d.name,
            d.bound_floor * 100.0,
            spreads.iter().copied().fold(0.0, f64::max) * 100.0,
            bound * 100.0,
            if bound > d.bound_floor {
                "  (widened: noise on this host)"
            } else {
                ""
            }
        );
        bounds.push((d.name, bound));
    }
    std::fs::write("BENCHMARK.json", pretty(&benchmark_json(&bounds)))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    println!("BENCHMARK.json written; comparing the two sets:");
    compare(
        &paths[0].display().to_string(),
        &paths[1].display().to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, spread: f64) -> Summary {
        Summary {
            n: 10,
            min: median * (1.0 - spread),
            q1: median * (1.0 - spread / 2.0),
            median,
            q3: median * (1.0 + spread / 2.0),
            max: median * (1.0 + spread),
        }
    }

    #[test]
    fn verdicts_need_to_clear_bound_and_spread() {
        let old = summary(10.0, 0.02);
        let j = |new: f64, better| judge(&old, &summary(new, 0.02), better, 0.10).0;
        assert_eq!(j(11.5, Better::Lower), Verdict::Worse);
        assert_eq!(j(10.5, Better::Lower), Verdict::Unresolved);
        assert_eq!(j(8.5, Better::Lower), Verdict::Better);
        assert_eq!(j(8.5, Better::Higher), Verdict::Worse);
        assert_eq!(j(11.5, Better::Higher), Verdict::Better);
        // a spread wider than the bound swallows a 15 % change
        let noisy = summary(11.5, 0.30);
        assert_eq!(
            judge(&old, &noisy, Better::Lower, 0.10).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn calibration_only_widens() {
        assert_eq!(calibrated_bound(0.10, &[0.01, 0.03]), 0.10);
        assert_eq!(calibrated_bound(0.10, &[0.01, 0.042]), 0.13);
        assert_eq!(calibrated_bound(0.05, &[0.4]), 0.25);
        assert_eq!(calibrated_bound(0.25, &[]), 0.25);
    }

    #[test]
    fn generated_benchmark_json_round_trips() {
        let doc = benchmark_json(&[("run_s".to_string(), 0.12)]);
        let parsed = obs::json::parse(&pretty(&doc)).unwrap();
        assert_eq!(parsed, doc);
        let keys: Vec<&str> = match &parsed {
            Json::Obj(m) => m.iter().map(|(k, _)| k.as_str()).collect(),
            _ => unreachable!(),
        };
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            bounds(&parsed)
                .iter()
                .find(|(n, _)| n == "run_s")
                .unwrap()
                .1,
            0.12
        );
    }
}
