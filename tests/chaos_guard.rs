//! Chaos guard: the threaded driver must produce **bitwise identical**
//! results over a deterministically faulty transport (DESIGN.md §12).
//!
//! Every scenario wraps each rank's wire in `ChaosComm` (seeded
//! drop/duplicate/delay/stall/kill injection) under `ReliableComm`
//! (sequencing, dedup, journal retransmission) and asserts the final
//! `density_h` field hashes to exactly the clean run's value — for the
//! 3-rank guard configuration, the same pinned constant
//! `engine_guard` protects — while the report's fault counters prove
//! the faults actually happened and were recovered.
//!
//! The load balancer stays off throughout: its trigger is measured
//! wall time, which is nondeterministic across runs regardless of the
//! transport.

use coupled::prelude::*;
use coupled::{run_threaded_result, FaultPolicy};
use obs::fnv1a_f64;
use vmpi::FaultAction;

/// The `engine_guard` pinned fingerprint of the clean 3-rank run.
const PINNED_3RANK_HASH: u64 = 0x8e483db2789e1ad2;

fn config(ranks: usize, strategy: Strategy, plan: Option<FaultPlan>) -> RunConfig {
    RunConfig::builder()
        .paper(Dataset::D1, 0.02)
        .ranks(ranks)
        .seed(4242)
        .steps(12)
        .strategy(strategy)
        .rebalance(None)
        .fault_plan(plan)
        .build()
        .expect("valid chaos config")
}

/// A lossy-but-survivable plan: seeded rates exercise every fault
/// kind, and the pinned drop + duplicate guarantee at least one
/// retransmission and one dedup discard on every topology.
fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .drops(35)
        .dups(35)
        .delays(35, 3)
        .action(1, 0, 0, FaultAction::Drop)
        .action(0, 1, 0, FaultAction::Duplicate)
}

#[test]
fn every_strategy_matches_the_clean_hash_under_chaos() {
    for &ranks in &[3usize, 4] {
        let clean = run_threaded(&config(ranks, Strategy::Distributed, None));
        let clean_hash = fnv1a_f64(&clean.density_h);
        if ranks == 3 {
            assert_eq!(clean_hash, PINNED_3RANK_HASH, "clean baseline drifted");
        }
        for (i, &strategy) in [
            Strategy::Centralized,
            Strategy::Distributed,
            Strategy::Sparse,
            Strategy::Auto,
        ]
        .iter()
        .enumerate()
        {
            let plan = lossy_plan(0xC4A0_5000 + (ranks * 16 + i) as u64);
            let r = run_threaded_result(&config(ranks, strategy, Some(plan)))
                .expect("reliability layer must absorb a kill-free plan");
            assert_eq!(
                fnv1a_f64(&r.density_h),
                clean_hash,
                "{strategy:?} at {ranks} ranks diverged under chaos"
            );
            assert_eq!(r.population, clean.population);
            assert!(
                r.faults_injected > 0,
                "{strategy:?}/{ranks}: plan injected nothing"
            );
            assert!(
                r.comm_retries > 0,
                "{strategy:?}/{ranks}: the pinned drop must force a retry"
            );
            assert!(
                r.comm_dedup_dropped > 0,
                "{strategy:?}/{ranks}: the pinned duplicate must be deduped"
            );
            assert_eq!(r.recoveries, 0, "no rank death in a kill-free plan");
        }
    }
}

#[test]
fn a_stalled_rank_changes_nothing_but_time() {
    let plan = FaultPlan::seeded(9).stall(1, 3, 40).stall(2, 7, 40);
    let r = run_threaded_result(&config(3, Strategy::Distributed, Some(plan)))
        .expect("stalls must never fail a run");
    assert_eq!(fnv1a_f64(&r.density_h), PINNED_3RANK_HASH);
    assert_eq!(r.recoveries, 0);
}

#[test]
fn rank_kill_restarts_from_checkpoint_and_matches_the_pinned_hash() {
    let plan = lossy_plan(0xDEAD).kill(2, 6);
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
    assert!(r.faults_injected > 0);
    assert!(r.comm_retries > 0);
}

/// Scenario-lowered configs recover exactly like hand-built ones: the
/// freestream scenario, killed mid-run over a lossy transport, must
/// replay from its checkpoint to the same digest `scenario_guard`
/// pins for the clean threaded run.
#[test]
fn freestream_scenario_kill_recovers_to_the_golden_hash() {
    /// `scenario_guard`'s pinned 3-rank threaded freestream digest.
    const GOLDEN_FREESTREAM_3RANK: u64 = 0x71708dc81019711a;
    let mut run = coupled::scenario::canned("freestream")
        .expect("canned scenario lowers")
        .run;
    run.checkpoint_every = 4;
    run.on_fault = FaultPolicy::RestartFromCheckpoint;
    run.fault_plan = Some(lossy_plan(0xF2EE).kill(2, 6));
    let r = run_threaded_result(&run).expect("recovery must complete the run");
    assert_eq!(r.recoveries, 1, "exactly one replay after the kill");
    assert_eq!(
        fnv1a_f64(&r.density_h),
        GOLDEN_FREESTREAM_3RANK,
        "recovered freestream run diverged from the scenario golden hash"
    );
    assert!(r.faults_injected > 0);
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
        .fault_plan(Some(FaultPlan::seeded(3).kill(0, 2)))
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
        .fault_plan(Some(lossy_plan(0x0B5)))
        .build()
        .expect("valid config");
    let r = run_threaded_result(&run).expect("lossy run completes");
    let snap = reg.snapshot();
    assert_eq!(snap.counter("comm.retries"), Some(r.comm_retries));
    assert_eq!(
        snap.counter("comm.dedup_dropped"),
        Some(r.comm_dedup_dropped)
    );
    assert_eq!(
        snap.counter("comm.faults_injected"),
        Some(r.faults_injected)
    );
    assert_eq!(snap.counter("engine.recoveries"), Some(0));
    let summaries: Vec<_> = mem
        .events()
        .into_iter()
        .filter(|e| matches!(e, TraceEvent::FaultSummary { .. }))
        .collect();
    assert_eq!(summaries.len(), 1, "one trailing fault summary");
    match &summaries[0] {
        TraceEvent::FaultSummary {
            recoveries,
            retries,
            injected,
            ..
        } => {
            assert_eq!(*recoveries, 0);
            assert_eq!(*retries, r.comm_retries);
            assert_eq!(*injected, r.faults_injected);
        }
        _ => unreachable!(),
    }
}
