//! Observability guard (DESIGN.md §10): turning on the metrics
//! registry and trace sinks must not perturb the physics by a single
//! bit — an observed run is bitwise the unobserved solo run of the
//! guard config — and the structured trace must account for the
//! report's communication totals exactly.

mod common;

use common::{assert_same_physics, guard_builder, serial_baseline, threaded_baseline};
use coupled::prelude::*;

#[test]
fn observed_threaded_run_is_bitwise_identical_to_baseline() {
    let reg = Registry::new();
    let run = guard_builder()
        .metrics(reg.clone())
        .trace(TraceSpec::Memory(MemorySink::new()))
        .build()
        .unwrap();
    let r = run_threaded(&run);
    assert_same_physics(&r, threaded_baseline(), "metrics/trace observation");
    // ... while the registry really recorded the run
    let snap = reg.snapshot();
    assert_eq!(snap.counter("engine.steps"), Some(12));
    assert!(snap.counter("dsmc.move.crossings").unwrap() > 0);
    // the engine's CG tolerance
    let rtol = 1e-6;
    let residual = snap.gauge("pic.poisson.rel_residual_max").unwrap();
    assert!(residual <= rtol, "residual {residual}");
}

#[test]
fn observed_serial_run_is_bitwise_identical_to_baseline() {
    let reg = Registry::new();
    let run = guard_builder().metrics(reg.clone()).build().unwrap();
    let r = run_serial(&run);
    assert_same_physics(&r, serial_baseline(), "metrics observation");
    assert_eq!(reg.snapshot().counter("engine.steps"), Some(12));
    // serial runs never touch the wire
    assert_eq!(r.transactions, 0);
    assert!(r.trace.iter().all(|t| t.transactions == 0));
}

#[test]
fn jsonl_trace_sums_match_threaded_report_totals_exactly() {
    let path = std::env::temp_dir().join(format!("obs_guard_{}.jsonl", std::process::id()));
    let run = guard_builder()
        .trace(TraceSpec::Jsonl(path.clone()))
        .build()
        .unwrap();
    let r = run_threaded(&run);

    let text = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let (mut tx, mut bytes, mut steps, mut meta_seen) = (0u64, 0u64, 0usize, false);
    for line in text.lines() {
        let v = obs::json::parse(line).expect("every trace line is valid JSON");
        match v.get("type").and_then(|t| t.as_str()).expect("typed event") {
            "meta" => {
                meta_seen = true;
                assert_eq!(
                    v.get("schema_version").unwrap().as_u64(),
                    Some(obs::SCHEMA_VERSION as u64)
                );
                assert_eq!(v.get("ranks").unwrap().as_u64(), Some(3));
                assert_eq!(v.get("steps").unwrap().as_u64(), Some(12));
            }
            "step" => {
                steps += 1;
                tx += v.get("transactions").unwrap().as_u64().unwrap();
                bytes += v.get("bytes").unwrap().as_u64().unwrap();
            }
            "exchange" | "rebalance" => {}
            other => panic!("unknown trace event type {other:?}"),
        }
    }
    assert!(meta_seen, "trace must lead with the meta record");
    assert_eq!(steps, 12);
    assert!(r.transactions > 0, "3 ranks must communicate");
    assert_eq!(tx, r.transactions, "per-step sums != report.transactions");
    assert_eq!(bytes, r.bytes, "per-step sums != report.bytes");
}

#[test]
fn memory_trace_agrees_with_report_trace() {
    let mem = MemorySink::new();
    let run = guard_builder()
        .trace(TraceSpec::Memory(mem.clone()))
        .build()
        .unwrap();
    let r = run_threaded(&run);
    let steps: Vec<StepTrace> = mem
        .events()
        .into_iter()
        .filter_map(|e| match e {
            TraceEvent::Step { trace, .. } => Some(trace),
            _ => None,
        })
        .collect();
    assert_eq!(steps, r.trace, "sink and report must see identical steps");
    let sum_tx: u64 = steps.iter().map(|t| t.transactions).sum();
    let sum_bytes: u64 = steps.iter().map(|t| t.bytes).sum();
    assert_eq!(sum_tx, r.transactions);
    assert_eq!(sum_bytes, r.bytes);
}

#[test]
fn modelled_driver_trace_sums_match_totals() {
    let mem = MemorySink::new();
    let run = RunConfig::builder()
        .paper(Dataset::D1, 0.02)
        .ranks(4)
        .seed(7)
        .steps(10)
        .rebalance(Some(balance::RebalanceConfig {
            t_interval: 4,
            ..Default::default()
        }))
        .trace(TraceSpec::Memory(mem.clone()))
        .build()
        .unwrap();
    let report = ClusterSim::new(&run, MachineProfile::tianhe2()).run(10);
    assert!(report.transactions > 0);
    let sum_tx: u64 = report.trace.iter().map(|t| t.transactions).sum();
    let sum_bytes: u64 = report.trace.iter().map(|t| t.bytes).sum();
    assert_eq!(sum_tx, report.transactions);
    assert_eq!(sum_bytes, report.bytes);
    let sum_uses: [u64; 4] =
        std::array::from_fn(|s| report.trace.iter().map(|t| t.strategy_uses[s]).sum());
    assert_eq!(sum_uses, report.strategy_uses);
    assert!(report.rebalances > 0, "the balancer must fire on the plume");
    let fired = report.trace.iter().filter(|t| t.rebalanced).count();
    assert_eq!(fired, report.rebalances);
    let migrated: u64 = mem
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Rebalance(ev) => Some(ev.migrated),
            _ => None,
        })
        .sum();
    assert_eq!(migrated, report.rebalance_migrated);
    // exchange events carry the exact protocol prediction here, so
    // they account for the same totals
    let ev_bytes: u64 = mem
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Exchange(ev) => Some(ev.bytes),
            _ => None,
        })
        .sum();
    assert_eq!(ev_bytes, report.bytes);
}

#[test]
fn run_report_json_export_is_parseable_and_versioned() {
    let reg = Registry::new();
    let run = guard_builder().metrics(reg.clone()).build().unwrap();
    let r = run_threaded(&run);
    let text = r.to_json(Some(&reg.snapshot())).to_string();
    let v = obs::json::parse(&text).unwrap();
    assert_eq!(
        v.get("schema_version").unwrap().as_u64(),
        Some(obs::SCHEMA_VERSION as u64)
    );
    assert_eq!(
        v.get("transactions").unwrap().as_u64(),
        Some(r.transactions)
    );
    assert_eq!(v.get("steps").unwrap().as_u64(), Some(12));
    assert_eq!(
        v.get("density_h").unwrap().as_array().unwrap().len(),
        r.density_h.len()
    );
    assert!(v.get("metrics").is_some());
}
