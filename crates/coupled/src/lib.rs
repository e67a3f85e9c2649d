//! The coupled DSMC/PIC solver and experiment rig (paper §III, §VI).
//!
//! Observability (metrics registry, gap-free lap timing, structured
//! trace sinks) lives in the `obs` crate; every driver here reports
//! through the same [`obs::Observer`] signals from the one
//! [`run_step`]. See DESIGN.md §10 and [`prelude`] for the
//! recommended imports.

pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod diag;
pub mod engine;
pub mod job;
pub mod machine;
mod rebalance;
pub mod report;
pub mod scenario;
pub mod session;
pub mod threaded;
pub mod tune;
pub mod world;

/// One-stop imports for configuring runs, driving them (directly or
/// as jobs), and consuming their reports and traces:
///
/// ```
/// use coupled::prelude::*;
///
/// let run = RunConfig::builder()
///     .paper(Dataset::D1, 0.02)
///     .ranks(2)
///     .steps(2)
///     .build()
///     .unwrap();
/// let key = run.config_hash(); // result-cache identity of this run
/// let report: RunReport = run_threaded(&run);
/// assert_eq!(report.trace.len(), 2);
/// assert_eq!(key, run.config_hash());
/// ```
pub mod prelude {
    pub use crate::cluster::ClusterSim;
    pub use crate::config::{
        ConfigError, Dataset, FaultPlan, FaultPolicy, ObsConfig, RunConfig, RunConfigBuilder,
        SimConfig, CONFIG_SCHEMA_VERSION,
    };
    pub use crate::engine::run_serial;
    pub use crate::job::{JobId, JobMeta, JobSpec, JobStatus};
    pub use crate::machine::MachineProfile;
    pub use crate::report::{ReportBuilder, RunReport, StepTrace};
    pub use crate::scenario::{Scenario, ScenarioError};
    pub use crate::session::{run_threaded, run_threaded_result, EngineSession, RunError};
    pub use obs::{
        FanoutSink, MemorySink, MetricsSnapshot, Observer, Registry, TraceEvent, TraceSpec,
        SCHEMA_VERSION,
    };
    pub use vmpi::Strategy;
}

pub use checkpoint::{checkpoint, checkpoint_rank, restore, restore_rank, CheckpointError};
pub use cluster::{ClusterSim, ModelledBackend};
pub use config::{
    ConfigError, Dataset, FaultPlan, FaultPolicy, ObsConfig, RunConfig, RunConfigBuilder,
    SimConfig, CONFIG_SCHEMA_VERSION,
};
pub use engine::{
    run_serial, run_step, Backend, ExchangeScratch, RankEngine, SerialBackend, StepRecord,
};
pub use job::{JobId, JobMeta, JobSpec, JobStatus};
pub use machine::{CostModel, MachineProfile, Placement};
pub use obs::{Breakdown, Phase};
pub use report::{ReportBuilder, RunReport, StepTrace};
pub use scenario::{Scenario, ScenarioError};
pub use session::{run_threaded, run_threaded_result, EngineSession, RunError};
pub use threaded::ThreadedBackend;
pub use tune::{tune_balancer, TunePoint, TuneReport};
