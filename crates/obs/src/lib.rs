//! Low-overhead observability for the coupled DSMC/PIC stack.
//!
//! This crate is the single home for everything a run can *tell you*
//! about itself, decoupled from the solver so drivers, benches and
//! tests share one vocabulary:
//!
//! * [`Registry`] — typed metrics (counters, gauges, time
//!   histograms) behind cheap atomic handles; clones share state, so
//!   every rank thread taps the same registry.
//! * [`LapTimer`] — the flat gap-free lap timer; the one code path
//!   wall-clock phase attribution goes through.
//! * [`Observer`] — the public hook the step pipeline drives:
//!   per-phase times, per-exchange traffic, rebalances, per-step
//!   traces. All methods default to no-ops.
//! * [`TraceSink`] / [`TraceSpec`] — structured event streams:
//!   [`NullSink`] (default, zero cost), [`JsonlSink`] (one JSON
//!   object per line), [`MemorySink`] (tests).
//! * [`Recorder`] — the standard observer wiring a registry and a
//!   sink together.
//!
//! All exported JSON (trace lines, metric snapshots, run reports)
//! carries [`SCHEMA_VERSION`] so downstream tooling can detect
//! incompatible changes.

pub mod avg;
pub mod events;
pub mod json;
pub mod lap;
pub mod metrics;
pub mod observer;
pub mod phase;
pub mod recorder;
pub mod sink;

/// Version tag stamped into every exported JSON artifact (trace meta
/// records and run reports). Bump on incompatible schema changes.
///
/// History: v1 introduced the versioned trace/report export; v2 adds
/// the optional `job` object on run reports (job id, canonical config
/// hash, cache-hit flag, queue/run wall times). v2 is a strict
/// superset of v1 — every v1 key is still present with the same
/// meaning, so v1 readers that look fields up by name keep working.
/// Rebalance lines gained `lii_floor` within v2, and run reports
/// `lii_floor_max` (the largest of them): added keys, so a reader that
/// looks fields up by name is unaffected. v3 removes the three
/// wire-fault counters from run reports and every `fault_summary` key
/// but `recoveries`: the transport is reliable, so nothing fills them.
pub const SCHEMA_VERSION: u32 = 3;

/// FNV-1a (64-bit) over a byte stream: the one digest the guard tests
/// pin, the canonical config is keyed by and the experiment binaries
/// print.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// [`fnv1a`] over the little-endian bytes of a float series (a density
/// field, an lii trajectory).
pub fn fnv1a_f64(values: &[f64]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_le_bytes()))
}

pub use avg::TimeAverage;
pub use events::{ExchangeEvent, RebalanceEvent, StepTrace, STRATEGY_NAMES};
pub use json::Json;
pub use lap::LapTimer;
pub use metrics::{
    Counter, Gauge, HistSnapshot, MetricKind, MetricValue, MetricsSnapshot, Registry, TimeHist,
};
pub use observer::{NullObserver, Observer, Tee};
pub use phase::{Breakdown, Phase};
pub use recorder::Recorder;
pub use sink::{FanoutSink, JsonlSink, MemorySink, NullSink, TraceEvent, TraceSink, TraceSpec};
