//! The shared run report of every driver, plus minimal table/CSV
//! rendering for the experiment binaries (so every bench prints rows
//! in the same layout the paper's tables use).

use crate::job::JobMeta;
use obs::json::{obj, Json};
use obs::{Breakdown, Observer, Phase, RebalanceEvent};
use std::fmt::Write as _;

pub use obs::StepTrace;

/// Unified result of a coupled run. The serial, threaded and
/// modelled-cluster drivers all return this one type, so every
/// consumer gets the same breakdown, traffic and per-step trace
/// regardless of which backend produced it.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// H number density per coarse cell at the end of the run.
    pub density_h: Vec<f64>,
    /// Trailing time-averaged H number density per coarse cell
    /// (empty unless `ObsConfig::avg_window > 0` on a serial or
    /// modelled run).
    pub density_h_avg: Vec<f64>,
    /// Trailing time-averaged electric potential per fine node (same
    /// opt-in as `density_h_avg`; kept out of the JSON export, which
    /// only carries coarse-cell fields).
    pub phi_avg: Vec<f64>,
    /// Final global particle population.
    pub population: usize,
    /// Total wall time attributed to phases (measured or modelled).
    pub total_time: f64,
    /// Accumulated per-phase times (rank 0's measurement for the
    /// threaded backend; max over ranks per step for the cluster).
    pub breakdown: Breakdown,
    /// Total messages sent in the world during the stepped run —
    /// measured for the threaded backend, protocol-predicted for the
    /// modelled one, 0 for serial. The sum of the per-step
    /// [`StepTrace::transactions`] (end-of-run diagnostics collectives
    /// are not counted).
    pub transactions: u64,
    /// Total bytes sent in the world during the stepped run (the sum
    /// of the per-step [`StepTrace::bytes`]).
    pub bytes: u64,
    /// Number of rebalances performed.
    pub rebalances: usize,
    /// Total particles migrated by rebalancing.
    pub rebalance_migrated: u64,
    /// The largest granularity floor ([`RebalanceEvent::lii_floor`]) of
    /// the run's rebalances: the imbalance no partition of the mesh
    /// could get below at the worst of them. 0 when none ran.
    pub lii_floor_max: f64,
    /// Exchanges carried per concrete strategy, indexed by
    /// [`vmpi::Strategy::CONCRETE`] order (CC, DC, Sparse, Hier).
    /// Under [`vmpi::Strategy::Auto`] the per-exchange decision rule
    /// fills whichever buckets it picks; a fixed strategy fills one.
    pub strategy_uses: [u64; 4],
    /// Poisson solves that hit the iteration cap before converging.
    pub poisson_unconverged: u64,
    /// Times the run restored from a checkpoint and replayed after a
    /// detected rank death
    /// ([`crate::config::FaultPolicy::RestartFromCheckpoint`]); 0 on a
    /// fault-free run.
    pub recoveries: usize,
    /// Per-step traces.
    pub trace: Vec<StepTrace>,
    /// Provenance stamp when the report was served by the job server
    /// (schema v2 `"job"` key): job id, canonical config hash, cache
    /// hit, queue/run wall times. `None` for direct engine runs —
    /// the key is simply absent from the JSON, keeping v2 documents
    /// readable by v1 consumers.
    pub job: Option<JobMeta>,
}

impl RunReport {
    /// Versioned JSON export of the whole report (schema version
    /// [`obs::SCHEMA_VERSION`]); pass a registry snapshot to embed
    /// the run's metrics under a `"metrics"` key.
    pub fn to_json(&self, metrics: Option<&obs::MetricsSnapshot>) -> Json {
        let mut fields = vec![
            ("schema_version", Json::U64(obs::SCHEMA_VERSION as u64)),
            ("population", Json::U64(self.population as u64)),
            ("total_time", Json::Num(self.total_time)),
            (
                "breakdown",
                obj(Phase::ALL
                    .iter()
                    .map(|&p| (p.name(), Json::Num(self.breakdown[p])))
                    .collect()),
            ),
            ("transactions", Json::U64(self.transactions)),
            ("bytes", Json::U64(self.bytes)),
            ("rebalances", Json::U64(self.rebalances as u64)),
            ("rebalance_migrated", Json::U64(self.rebalance_migrated)),
            ("lii_floor_max", Json::Num(self.lii_floor_max)),
            (
                "strategy_uses",
                obj(obs::STRATEGY_NAMES
                    .iter()
                    .zip(self.strategy_uses)
                    .map(|(&n, u)| (n, Json::U64(u)))
                    .collect()),
            ),
            ("poisson_unconverged", Json::U64(self.poisson_unconverged)),
            ("recoveries", Json::U64(self.recoveries as u64)),
            ("steps", Json::U64(self.trace.len() as u64)),
            (
                "density_h",
                Json::Arr(self.density_h.iter().map(|&d| Json::Num(d)).collect()),
            ),
        ];
        if !self.density_h_avg.is_empty() {
            fields.push((
                "density_h_avg",
                Json::Arr(self.density_h_avg.iter().map(|&d| Json::Num(d)).collect()),
            ));
        }
        if let Some(meta) = &self.job {
            fields.push(("job", meta.to_json()));
        }
        if let Some(snap) = metrics {
            fields.push(("metrics", snap.to_json()));
        }
        obj(fields)
    }
}

/// An [`Observer`] that folds the pipeline's signals into a
/// [`RunReport`]: phase times, the step traces and — summed from those
/// traces and the rebalance events — every traffic, strategy and
/// balance total, so the trace sums equal the totals by construction.
/// The driver fills in the end-of-run fields (diagnostics, fault
/// counters) after [`ReportBuilder::finish`].
#[derive(Debug, Default)]
pub struct ReportBuilder {
    report: RunReport,
}

impl ReportBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn finish(self) -> RunReport {
        self.report
    }
}

impl Observer for ReportBuilder {
    fn phase(&mut self, phase: Phase, seconds: f64) {
        self.report.breakdown[phase] += seconds;
        self.report.total_time += seconds;
    }

    fn rebalance(&mut self, ev: &RebalanceEvent) {
        self.report.rebalances += 1;
        self.report.rebalance_migrated += ev.migrated;
        self.report.lii_floor_max = self.report.lii_floor_max.max(ev.lii_floor);
    }

    fn step(&mut self, _index: usize, trace: &StepTrace) {
        let report = &mut self.report;
        report.transactions += trace.transactions;
        report.bytes += trace.bytes;
        for (total, uses) in report.strategy_uses.iter_mut().zip(trace.strategy_uses) {
            *total += uses;
        }
        report.poisson_unconverged += trace.poisson_unconverged;
        report.trace.push(trace.clone());
    }
}

/// Render an aligned text table. `headers.len()` must match every
/// row's length.
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = headers.len();
    let mut width: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncol, "ragged table row");
        for (w, cell) in width.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let hline: String = width
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    for (h, w) in headers.iter().zip(&width) {
        let _ = write!(out, " {h:>w$} |");
    }
    out.pop();
    out.push('\n');
    out.push_str(&hline);
    out.push('\n');
    for row in rows {
        for (cell, w) in row.iter().zip(&width) {
            let _ = write!(out, " {cell:>w$} |");
        }
        out.pop();
        out.push('\n');
    }
    out
}

/// Render rows as CSV (no quoting — experiment output is numeric).
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Format a speedup/ratio with two decimals.
pub fn ratio(r: f64) -> String {
    format!("{r:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["procs", "time"],
            &[
                vec!["24".into(), "2258.5".into()],
                vec!["1536".into(), "245.8".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("procs"));
        assert!(lines[2].contains("2258.5"));
        // all rows same width
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn csv_roundtrip() {
        let c = csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(c, "a,b\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        table(&["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn builder_folds_every_total_from_the_signals() {
        // two steps, three exchanges over two strategies, one rebalance
        let exchange = |step, strategy, transactions, bytes| obs::ExchangeEvent {
            step,
            phase: Phase::DsmcExchange,
            sub: 0,
            strategy,
            transactions,
            bytes,
            max_rank_msgs: 0,
            node_pairs: 0,
            aggregated_bytes: 0,
        };
        let mut b = ReportBuilder::new();
        b.exchange(&exchange(0, 1, 6, 600));
        b.exchange(&exchange(0, 2, 2, 80));
        b.phase(Phase::DsmcExchange, 0.5);
        b.step(
            0,
            &StepTrace {
                transactions: 8,
                bytes: 680,
                strategy_uses: [0, 1, 1, 0],
                poisson_unconverged: 2,
                ..StepTrace::default()
            },
        );
        b.exchange(&exchange(1, 1, 4, 400));
        b.rebalance(&RebalanceEvent {
            step: 1,
            lii: 1.7,
            lii_floor: 1.0,
            migrated: 42,
            remap_seconds: 0.01,
        });
        b.phase(Phase::Rebalance, 0.25);
        b.step(
            1,
            &StepTrace {
                rebalanced: true,
                // a real wire also counts the collectives between the
                // exchanges: the step's own numbers are what is summed
                transactions: 9,
                bytes: 450,
                strategy_uses: [0, 1, 0, 0],
                ..StepTrace::default()
            },
        );
        let r = b.finish();
        assert_eq!(r.trace.len(), 2);
        assert_eq!(r.transactions, 17);
        assert_eq!(r.bytes, 1130);
        assert_eq!(r.strategy_uses, [0, 2, 1, 0]);
        assert_eq!((r.rebalances, r.rebalance_migrated), (1, 42));
        assert_eq!(r.lii_floor_max, 1.0);
        assert_eq!(r.poisson_unconverged, 2);
        assert_eq!(r.total_time, 0.75);
        assert_eq!(r.breakdown[Phase::Rebalance], 0.25);
    }

    #[test]
    fn report_json_is_versioned_and_parseable() {
        let mut report = RunReport {
            population: 123,
            transactions: 45,
            bytes: 6789,
            strategy_uses: [1, 2, 3, 4],
            density_h: vec![0.5, 1.5],
            ..RunReport::default()
        };
        report.breakdown[Phase::PoissonSolve] = 2.0;
        let reg = obs::Registry::new();
        reg.counter("engine.steps").add(4);
        let text = report.to_json(Some(&reg.snapshot())).to_string();
        let v = obs::json::parse(&text).unwrap();
        assert_eq!(
            v.get("schema_version").unwrap().as_u64(),
            Some(obs::SCHEMA_VERSION as u64)
        );
        assert_eq!(v.get("transactions").unwrap().as_u64(), Some(45));
        assert_eq!(
            v.get("breakdown")
                .unwrap()
                .get("Poisson_Solve")
                .unwrap()
                .as_f64(),
            Some(2.0)
        );
        assert_eq!(
            v.get("strategy_uses")
                .unwrap()
                .get("Sparse")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        assert_eq!(v.get("metrics").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn report_json_carries_fault_counters() {
        let report = RunReport {
            recoveries: 2,
            ..RunReport::default()
        };
        let v = obs::json::parse(&report.to_json(None).to_string()).unwrap();
        assert_eq!(v.get("recoveries").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn report_json_carries_the_largest_floor() {
        let report = RunReport {
            lii_floor_max: 6.25,
            ..RunReport::default()
        };
        let v = obs::json::parse(&report.to_json(None).to_string()).unwrap();
        assert_eq!(v.get("lii_floor_max").unwrap().as_f64(), Some(6.25));
        let v = obs::json::parse(&RunReport::default().to_json(None).to_string()).unwrap();
        assert_eq!(v.get("lii_floor_max").unwrap().as_f64(), Some(0.0));
    }

    #[test]
    fn schema_v2_adds_job_as_strict_superset_of_v1() {
        // Every key a v1 document had (frozen list — do not derive it
        // from the code, the point is catching accidental removals),
        // less the three wire-fault counters schema v3 removed.
        const V1_KEYS: &[&str] = &[
            "schema_version",
            "population",
            "total_time",
            "breakdown",
            "transactions",
            "bytes",
            "rebalances",
            "rebalance_migrated",
            "strategy_uses",
            "recoveries",
            "steps",
            "density_h",
        ];
        let plain = RunReport::default();
        let v = obs::json::parse(&plain.to_json(None).to_string()).unwrap();
        for key in V1_KEYS {
            assert!(v.get(key).is_some(), "v1 key {key} missing from v3");
        }
        // A direct engine run omits the job key entirely, so a v1
        // consumer that iterates known keys sees exactly what it did.
        assert!(v.get("job").is_none());
        assert_eq!(v.get("schema_version").unwrap().as_u64(), Some(3));

        // A server-stamped report adds the job object on top.
        let served = RunReport {
            job: Some(JobMeta {
                job_id: 7,
                config_hash: 0x1234,
                cache_hit: true,
                queue_seconds: 0.5,
                run_seconds: 0.0,
                attempts: 0,
            }),
            ..RunReport::default()
        };
        let v = obs::json::parse(&served.to_json(None).to_string()).unwrap();
        for key in V1_KEYS {
            assert!(v.get(key).is_some(), "v1 key {key} missing from v3");
        }
        let job = v.get("job").unwrap();
        assert_eq!(job.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(
            job.get("config_hash").unwrap().as_str(),
            Some("0000000000001234")
        );
        assert_eq!(job.get("cache_hit").unwrap().as_bool(), Some(true));
    }
}
