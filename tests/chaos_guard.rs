//! Rank-failure guard: the threaded driver must produce **bitwise
//! identical** results when ranks stall or die and the run recovers
//! from checkpoints (DESIGN.md §12).
//!
//! Every scenario schedules stalls or kills with a `FaultPlan` and
//! asserts that the final population and `density_h` bits are the
//! clean solo run's (`common::threaded_baseline` for the guard config),
//! while the report's recovery count proves the kill actually happened
//! and was recovered. A plan never touches the wire: a run with one
//! sends exactly the clean run's messages. The physics itself is
//! pinned in `engine_guard` and `scenario_guard`, never here.
//!
//! The load balancer stays off throughout: its trigger is measured
//! wall time, which is nondeterministic across runs regardless of the
//! transport.

mod common;

use common::{assert_same_physics, guard_builder, threaded_baseline};
use coupled::prelude::*;
use coupled::{run_threaded_result, FaultPolicy};

/// The guard config (3 ranks, DC) killed at step 6 of rank 2,
/// recovering from checkpoints every 4 steps.
fn killed_mid_run() -> RunConfigBuilder {
    guard_builder()
        .checkpoint_every(4)
        .on_fault(FaultPolicy::RestartFromCheckpoint)
        .fault_plan(Some(FaultPlan::default().kill(2, 6)))
}

#[test]
fn a_stalled_rank_changes_nothing_but_time() {
    let plan = FaultPlan::default().stall(1, 3, 40).stall(2, 7, 40);
    let run = guard_builder().fault_plan(Some(plan)).build().unwrap();
    let r = run_threaded_result(&run).expect("stalls must never fail a run");
    assert_same_physics(&r, threaded_baseline(), "stalled run");
    assert_eq!(r.recoveries, 0);
}

#[test]
fn rank_kill_restarts_from_checkpoint_and_matches_the_pinned_hash() {
    let run = killed_mid_run().build().expect("valid recovery config");
    let r = run_threaded_result(&run).expect("recovery must complete the run");
    assert_eq!(r.recoveries, 1, "exactly one replay after the kill");
    assert_same_physics(&r, threaded_baseline(), "recovered run");
}

/// Scenario-lowered configs recover exactly like hand-built ones: the
/// freestream scenario, killed mid-run, must replay from its
/// checkpoint to the clean run's density.
#[test]
fn freestream_scenario_kill_recovers_to_the_golden_hash() {
    let clean = coupled::scenario::canned("freestream")
        .expect("canned scenario lowers")
        .run;
    let mut run = clean.clone();
    run.checkpoint_every = 4;
    run.on_fault = FaultPolicy::RestartFromCheckpoint;
    run.fault_plan = Some(FaultPlan::default().kill(2, 6));
    let r = run_threaded_result(&run).expect("recovery must complete the run");
    assert_eq!(r.recoveries, 1, "exactly one replay after the kill");
    assert_same_physics(&r, &run_threaded(&clean), "recovered freestream run");
}

#[test]
fn kill_without_checkpoints_replays_from_scratch() {
    // no cadence: the store stays empty, so recovery restarts the
    // whole run from step 0 — still bitwise identical.
    let run = guard_builder()
        .on_fault(FaultPolicy::RestartFromCheckpoint)
        .fault_plan(Some(FaultPlan::default().kill(0, 2)))
        .build()
        .expect("valid config");
    let r = run_threaded_result(&run).expect("scratch replay must complete");
    assert_eq!(r.recoveries, 1);
    assert_eq!(r.trace.len(), 12, "full rerun re-traces every step");
    assert_same_physics(&r, threaded_baseline(), "replayed run");
}

#[test]
fn fault_counters_reach_the_metrics_registry_and_trace() {
    let reg = Registry::new();
    let mem = MemorySink::new();
    let run = killed_mid_run()
        .metrics(reg.clone())
        .trace(TraceSpec::Memory(mem.clone()))
        .build()
        .expect("valid config");
    let r = run_threaded_result(&run).expect("recovery must complete the run");
    assert_eq!(r.recoveries, 1);
    assert_eq!(reg.snapshot().counter("engine.recoveries"), Some(1));
    let summaries: Vec<_> = mem
        .events()
        .into_iter()
        .filter(|e| matches!(e, TraceEvent::FaultSummary { .. }))
        .collect();
    assert_eq!(
        summaries,
        vec![TraceEvent::FaultSummary { recoveries: 1 }],
        "one trailing fault summary"
    );
}

/// A plan fires in the rank, never on the wire: a stalled run sends
/// exactly the clean run's messages and bytes.
#[test]
fn a_fault_plan_leaves_the_wire_totals_alone() {
    let clean = threaded_baseline();
    let plan = FaultPlan::default().stall(1, 3, 1);
    let run = guard_builder().fault_plan(Some(plan)).build().unwrap();
    let stalled = run_threaded_result(&run).expect("stalls must never fail a run");
    assert_same_physics(&stalled, clean, "stalled run");
    assert_eq!(
        (stalled.transactions, stalled.bytes),
        (clean.transactions, clean.bytes),
        "a fault plan changed the wire"
    );
}

/// A trace sink that cannot be created is a configuration error, not
/// a rank death: it fails the first attempt and is never replayed.
#[test]
fn an_unwritable_trace_fails_once_and_is_not_retried() {
    let missing = std::env::temp_dir()
        .join(format!("no-such-dir-{}", std::process::id()))
        .join("trace.jsonl");
    let run = guard_builder()
        .checkpoint_every(4)
        .on_fault(FaultPolicy::RestartFromCheckpoint)
        .trace(TraceSpec::Jsonl(missing))
        .build()
        .expect("valid config");
    let mut session = EngineSession::new(&run);
    let err = session.attempt().expect_err("the sink cannot be created");
    assert!(matches!(err, RunError::TraceSink(_)), "got {err:?}");
    assert_eq!(session.recoveries(), 0);
    // the session's own replay loop does not retry it either
    let err = session.run().expect_err("the sink still cannot be created");
    assert!(matches!(err, RunError::TraceSink(_)), "got {err:?}");
    assert_eq!(session.recoveries(), 0, "a sink failure is not retried");
    match run_threaded_result(&run) {
        Err(RunError::TraceSink(_)) => {}
        other => panic!("expected a trace-sink error, got {other:?}"),
    }
}
