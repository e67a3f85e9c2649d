//! Rank-failure guard: the threaded driver must produce **bitwise
//! identical** results when ranks stall or die and the run recovers
//! from checkpoints (DESIGN.md §12).
//!
//! Every scenario schedules stalls or kills with a `FaultPlan` and
//! asserts the final `density_h` field hashes to exactly the clean
//! run's value — for the 3-rank guard configuration, the same pinned
//! constant `engine_guard` protects — while the report's recovery
//! count proves the kill actually happened and was recovered. A plan
//! never touches the wire: a run with one sends exactly the clean
//! run's messages.
//!
//! The load balancer stays off throughout: its trigger is measured
//! wall time, which is nondeterministic across runs regardless of the
//! transport.

use coupled::prelude::*;
use coupled::{run_threaded_result, FaultPolicy};
use obs::fnv1a_f64;

/// The `engine_guard` pinned fingerprint of the clean 3-rank run.
const PINNED_3RANK_HASH: u64 = 0xe1f39b21588a2aeb;

/// `engine_guard`'s guard configuration (3 ranks, DC) under `plan`.
fn config(plan: Option<FaultPlan>) -> RunConfig {
    RunConfig::builder()
        .paper(Dataset::D1, 0.02)
        .ranks(3)
        .seed(4242)
        .steps(12)
        .rebalance(None)
        .fault_plan(plan)
        .build()
        .expect("valid fault config")
}

#[test]
fn a_stalled_rank_changes_nothing_but_time() {
    let plan = FaultPlan::default().stall(1, 3, 40).stall(2, 7, 40);
    let r = run_threaded_result(&config(Some(plan))).expect("stalls must never fail a run");
    assert_eq!(fnv1a_f64(&r.density_h), PINNED_3RANK_HASH);
    assert_eq!(r.recoveries, 0);
}

#[test]
fn rank_kill_restarts_from_checkpoint_and_matches_the_pinned_hash() {
    let plan = FaultPlan::default().kill(2, 6);
    let run = RunConfig::builder()
        .paper(Dataset::D1, 0.02)
        .ranks(3)
        .seed(4242)
        .steps(12)
        .rebalance(None)
        .checkpoint_every(4)
        .on_fault(FaultPolicy::RestartFromCheckpoint)
        .fault_plan(Some(plan))
        .build()
        .expect("valid recovery config");
    let r = run_threaded_result(&run).expect("recovery must complete the run");
    assert_eq!(r.recoveries, 1, "exactly one replay after the kill");
    assert_eq!(r.population, 389, "population drifted under recovery");
    assert_eq!(
        fnv1a_f64(&r.density_h),
        PINNED_3RANK_HASH,
        "recovered run no longer bitwise identical to the pinned baseline"
    );
}

/// Scenario-lowered configs recover exactly like hand-built ones: the
/// freestream scenario, killed mid-run, must
/// replay from its checkpoint to the same digest `scenario_guard`
/// pins for the clean threaded run.
#[test]
fn freestream_scenario_kill_recovers_to_the_golden_hash() {
    /// `scenario_guard`'s pinned 3-rank threaded freestream digest.
    const GOLDEN_FREESTREAM_3RANK: u64 = 0x01bfa6edf885402a;
    let mut run = coupled::scenario::canned("freestream")
        .expect("canned scenario lowers")
        .run;
    run.checkpoint_every = 4;
    run.on_fault = FaultPolicy::RestartFromCheckpoint;
    run.fault_plan = Some(FaultPlan::default().kill(2, 6));
    let r = run_threaded_result(&run).expect("recovery must complete the run");
    assert_eq!(r.recoveries, 1, "exactly one replay after the kill");
    assert_eq!(
        fnv1a_f64(&r.density_h),
        GOLDEN_FREESTREAM_3RANK,
        "recovered freestream run diverged from the scenario golden hash"
    );
}

#[test]
fn kill_without_checkpoints_replays_from_scratch() {
    // no cadence: the store stays empty, so recovery restarts the
    // whole run from step 0 — still bitwise identical.
    let run = RunConfig::builder()
        .paper(Dataset::D1, 0.02)
        .ranks(3)
        .seed(4242)
        .steps(12)
        .rebalance(None)
        .on_fault(FaultPolicy::RestartFromCheckpoint)
        .fault_plan(Some(FaultPlan::default().kill(0, 2)))
        .build()
        .expect("valid config");
    let r = run_threaded_result(&run).expect("scratch replay must complete");
    assert_eq!(r.recoveries, 1);
    assert_eq!(r.trace.len(), 12, "full rerun re-traces every step");
    assert_eq!(fnv1a_f64(&r.density_h), PINNED_3RANK_HASH);
}

#[test]
fn fault_counters_reach_the_metrics_registry_and_trace() {
    let reg = Registry::new();
    let mem = MemorySink::new();
    let run = RunConfig::builder()
        .paper(Dataset::D1, 0.02)
        .ranks(3)
        .seed(4242)
        .steps(12)
        .rebalance(None)
        .metrics(reg.clone())
        .trace(TraceSpec::Memory(mem.clone()))
        .checkpoint_every(4)
        .on_fault(FaultPolicy::RestartFromCheckpoint)
        .fault_plan(Some(FaultPlan::default().kill(2, 6)))
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
    let clean = run_threaded(&config(None));
    let plan = FaultPlan::default().stall(1, 3, 1);
    let stalled = run_threaded_result(&config(Some(plan))).expect("stalls must never fail a run");
    assert_eq!(fnv1a_f64(&stalled.density_h), PINNED_3RANK_HASH);
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
    let run = RunConfig::builder()
        .paper(Dataset::D1, 0.02)
        .ranks(3)
        .seed(4242)
        .steps(12)
        .rebalance(None)
        .checkpoint_every(4)
        .on_fault(FaultPolicy::RestartFromCheckpoint)
        .trace(TraceSpec::Jsonl(missing))
        .build()
        .expect("valid config");
    let mut session = EngineSession::new(&run);
    let err = session.attempt().expect_err("the sink cannot be created");
    assert!(matches!(err, RunError::TraceSink(_)), "got {err:?}");
    assert!(
        !session.can_retry_after(&err),
        "a sink failure must not be retried"
    );
    assert_eq!(session.recoveries(), 0);
    match run_threaded_result(&run) {
        Err(RunError::TraceSink(_)) => {}
        other => panic!("expected a trace-sink error, got {other:?}"),
    }
}
