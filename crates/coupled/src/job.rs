//! The typed job vocabulary of the simulation-as-a-service surface
//! (DESIGN.md §14): what a submission looks like ([`JobSpec`]), how
//! it is addressed ([`JobId`]), where it is in its lifecycle
//! ([`JobStatus`]), and the provenance stamp a served report carries
//! ([`JobMeta`]).
//!
//! These types live in `coupled` — not in the `jobsrv` crate that
//! schedules them — so a report consumer can read job metadata
//! without depending on the server, and `coupled::prelude` exports
//! the whole job vocabulary in one import. The server machinery
//! (queueing, fair share, caching, recovery supervision) is
//! `jobsrv`'s.

use crate::config::RunConfig;
use obs::json::{obj, Json};

/// Server-assigned identity of one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// One submission: the run to execute plus scheduling attributes.
/// Build with [`JobSpec::new`] and the chainable setters.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The run configuration; the server re-checks it with
    /// [`RunConfig::validate`] at submission. Its canonical hash
    /// ([`RunConfig::config_hash`]) is the result-cache key.
    pub run: RunConfig,
    /// Fair-share tenant the job is accounted to.
    pub tenant: String,
    /// Free-form label for humans; never affects scheduling or the
    /// cache key.
    pub label: String,
}

impl JobSpec {
    /// A spec for `run` under the default tenant.
    pub fn new(run: RunConfig) -> Self {
        JobSpec {
            run,
            tenant: "default".to_string(),
            label: String::new(),
        }
    }

    /// A spec for a canned scenario by name (see
    /// [`crate::scenario::CANNED`]), labelled `scenario:<name>`. The
    /// cache key is the lowered config's canonical hash, so two
    /// submissions of the same scenario name — or of TOML text that
    /// lowers to the same physics — coalesce onto one engine run.
    pub fn from_scenario(name: &str) -> Result<Self, crate::scenario::ScenarioError> {
        let sc = crate::scenario::canned(name)?;
        Ok(JobSpec::new(sc.run).label(format!("scenario:{name}")))
    }

    /// Account the job to this fair-share tenant.
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// Attach a human-readable label.
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the fair-share queue (or coalesced behind an
    /// identical in-flight job).
    Queued,
    /// An engine attempt is executing on a worker.
    Running,
    /// Finished with a report. `cache_hit` is true when the report
    /// was served from the result cache or coalesced onto another
    /// job's engine run instead of running the engine itself.
    Done {
        /// Served without an engine run of its own.
        cache_hit: bool,
    },
    /// Gave up: the engine attempt(s) failed and the retry budget (or
    /// the job's fault policy) forbade another replay.
    Failed {
        /// Human-readable cause (the final [`RunError`] or panic).
        ///
        /// [`RunError`]: crate::session::RunError
        error: String,
    },
}

impl JobStatus {
    /// Whether the job has reached a final state.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Done { .. } | JobStatus::Failed { .. })
    }
}

/// Provenance stamp on a served [`RunReport`]: which job produced it,
/// under which canonical config hash, and at what cost. Exported in
/// the report's JSON (schema v2) under the `"job"` key.
///
/// [`RunReport`]: crate::report::RunReport
#[derive(Debug, Clone, PartialEq)]
pub struct JobMeta {
    /// Server-assigned job id ([`JobId`]'s inner value).
    pub job_id: u64,
    /// Canonical config hash ([`RunConfig::config_hash`]) — the
    /// result-cache key this report is stored under.
    pub config_hash: u64,
    /// True when the report was served from the cache (or coalesced
    /// onto an identical in-flight run) instead of running the engine.
    pub cache_hit: bool,
    /// Wall time from submission to the first engine attempt (or to
    /// cache service).
    pub queue_seconds: f64,
    /// Wall time executing engine attempts (0 for a cache hit).
    pub run_seconds: f64,
    /// Engine attempts performed (1 = clean run; more = worker-death
    /// replays from checkpoints; 0 = cache hit).
    pub attempts: usize,
}

impl JobMeta {
    /// The metadata as one JSON object (what `RunReport::to_json`
    /// embeds under `"job"`).
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("id", Json::U64(self.job_id)),
            (
                "config_hash",
                Json::Str(format!("{:016x}", self.config_hash)),
            ),
            ("cache_hit", Json::Bool(self.cache_hit)),
            ("queue_seconds", Json::Num(self.queue_seconds)),
            ("run_seconds", Json::Num(self.run_seconds)),
            ("attempts", Json::U64(self.attempts as u64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_setters_chain() {
        let run = RunConfig::builder().build().unwrap();
        let spec = JobSpec::new(run).tenant("team-a").label("smoke");
        assert_eq!(spec.tenant, "team-a");
        assert_eq!(spec.label, "smoke");
        assert_eq!(JobSpec::new(spec.run.clone()).tenant, "default");
    }

    #[test]
    fn status_terminality() {
        assert!(!JobStatus::Queued.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
        assert!(JobStatus::Done { cache_hit: false }.is_terminal());
        assert!(JobStatus::Failed {
            error: "x".to_string()
        }
        .is_terminal());
    }

    #[test]
    fn meta_json_roundtrips() {
        let meta = JobMeta {
            job_id: 42,
            config_hash: 0xdead_beef_0123_4567,
            cache_hit: true,
            queue_seconds: 0.25,
            run_seconds: 0.0,
            attempts: 0,
        };
        let v = obs::json::parse(&meta.to_json().to_string()).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(42));
        assert_eq!(
            v.get("config_hash").unwrap().as_str(),
            Some("deadbeef01234567")
        );
        assert_eq!(v.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("attempts").unwrap().as_u64(), Some(0));
        assert_eq!(format!("{}", JobId(42)), "job-42");
    }
}
