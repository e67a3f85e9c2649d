//! Simulation-as-a-service job server over the coupled DSMC/PIC
//! engine (DESIGN.md §14).
//!
//! Submit a [`coupled::RunConfig`] wrapped in a [`JobSpec`], get a
//! [`JobHandle`] back; the server queues it with tenant fair share,
//! runs it on a worker under a shared thread budget,
//! streams its step trace to any number of subscribers, and serves
//! repeated submissions of the same canonical configuration from a
//! result cache — sound because the engine is
//! bitwise-deterministic per config (the cached report is
//! indistinguishable from a re-run). If a worker dies mid-job, the
//! job's [`coupled::EngineSession`] — which outlives any worker —
//! replays from the engine's periodic checkpoints on the next
//! dispatch.
//!
//! ```
//! use jobsrv::prelude::*;
//!
//! let srv = JobServer::start(ServerConfig::default());
//! let run = RunConfig::builder()
//!     .paper(Dataset::D1, 0.02)
//!     .ranks(2)
//!     .steps(2)
//!     .build()
//!     .unwrap();
//! let job = srv.submit(JobSpec::new(run).tenant("docs").label("quick start"));
//! let report = job.wait().unwrap();
//! assert_eq!(report.trace.len(), 2);
//! assert!(report.job.as_ref().is_some_and(|m| !m.cache_hit));
//! ```

pub mod cache;
pub mod queue;
pub mod server;

pub use cache::Lru;
pub use queue::{FairQueue, QueueEntry};
pub use server::{JobError, JobHandle, JobServer, ServerConfig, ServerStats};

// The job vocabulary is `coupled`'s (shared with report consumers);
// re-export it so `jobsrv` alone is a complete client surface.
pub use coupled::job::{JobId, JobMeta, JobSpec, JobStatus};

/// One-stop imports for job-server clients: everything from
/// [`coupled::prelude`] plus the server types.
pub mod prelude {
    pub use crate::{JobError, JobHandle, JobServer, ServerConfig, ServerStats};
    pub use coupled::prelude::*;
}
