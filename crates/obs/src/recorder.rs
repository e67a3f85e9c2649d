//! The standard [`Observer`] that feeds a metrics [`Registry`] and a
//! [`TraceSink`] from pipeline signals.
//!
//! Drivers install one `Recorder` on the reporting rank; everything
//! else (per-rank kernel gauges, comm counters) taps the shared
//! registry directly. With metrics off and a [`NullSink`], a recorder
//! degenerates to a handful of no-op calls, which is what keeps the
//! default path bit-identical to an unobserved run.

use crate::events::{ExchangeEvent, RebalanceEvent, StepTrace, STRATEGY_NAMES};
use crate::metrics::{Counter, Gauge, Registry, TimeHist};
use crate::observer::Observer;
use crate::phase::Phase;
use crate::sink::{NullSink, TraceEvent, TraceSink};

/// Registry handles the recorder updates on each signal.
#[derive(Debug)]
struct Taps {
    phase_time: [TimeHist; Phase::ALL.len()],
    exchange_count: [Counter; STRATEGY_NAMES.len()],
    exchange_tx: [Counter; STRATEGY_NAMES.len()],
    exchange_bytes: [Counter; STRATEGY_NAMES.len()],
    exchange_max_rank_msgs: [Gauge; STRATEGY_NAMES.len()],
    exchange_node_pairs: Gauge,
    exchange_aggregated_bytes: Counter,
    steps: Counter,
    step_time: TimeHist,
    lii: Gauge,
    poisson_unconverged: Counter,
    /// Largest final relative residual of any Poisson solve so far.
    poisson_rel_residual_max: Gauge,
    /// Wall reflections and face crossings of the neutral move. Each
    /// flight that reaches a wall seeds its keyed reflection stream
    /// once (and its pump stream once when pumping), so wall hits per
    /// moved particle bound the share of flights that pay for a keyed
    /// stream.
    move_wall_hits: Counter,
    move_crossings: Counter,
    rebalances: Counter,
    /// The last rebalance's granularity floor.
    lii_floor: Gauge,
    rebalance_migrated: Counter,
    remap_time: TimeHist,
    recoveries: Counter,
}

impl Taps {
    fn new(reg: &Registry) -> Self {
        Taps {
            phase_time: std::array::from_fn(|i| {
                reg.time_hist(&format!("engine.phase.{}.seconds", Phase::ALL[i].name()))
            }),
            exchange_count: std::array::from_fn(|s| {
                reg.counter(&format!("vmpi.exchange.{}.count", STRATEGY_NAMES[s]))
            }),
            exchange_tx: std::array::from_fn(|s| {
                reg.counter(&format!("vmpi.exchange.{}.transactions", STRATEGY_NAMES[s]))
            }),
            exchange_bytes: std::array::from_fn(|s| {
                reg.counter(&format!("vmpi.exchange.{}.bytes", STRATEGY_NAMES[s]))
            }),
            exchange_max_rank_msgs: std::array::from_fn(|s| {
                reg.gauge(&format!(
                    "vmpi.exchange.{}.max_rank_msgs",
                    STRATEGY_NAMES[s]
                ))
            }),
            exchange_node_pairs: reg.gauge("vmpi.exchange.Hier.node_pairs"),
            exchange_aggregated_bytes: reg.counter("vmpi.exchange.Hier.aggregated_bytes"),
            steps: reg.counter("engine.steps"),
            step_time: reg.time_hist("engine.step.seconds"),
            lii: reg.gauge("balance.lii"),
            poisson_unconverged: reg.counter("pic.poisson.unconverged"),
            poisson_rel_residual_max: reg.gauge("pic.poisson.rel_residual_max"),
            move_wall_hits: reg.counter("dsmc.move.wall_hits"),
            move_crossings: reg.counter("dsmc.move.crossings"),
            rebalances: reg.counter("balance.rebalances"),
            lii_floor: reg.gauge("balance.lii_floor"),
            rebalance_migrated: reg.counter("balance.migrated_particles"),
            remap_time: reg.time_hist("balance.remap.seconds"),
            recoveries: reg.counter("engine.recoveries"),
        }
    }
}

/// Feeds pipeline signals into a registry and a trace sink.
pub struct Recorder {
    taps: Option<Taps>,
    sink: Box<dyn TraceSink>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("metrics", &self.taps.is_some())
            .finish()
    }
}

impl Default for Recorder {
    /// A recorder that observes nothing (no registry, null sink).
    fn default() -> Self {
        Recorder::new(None, Box::new(NullSink))
    }
}

impl Recorder {
    /// Build a recorder tapping `registry` (if any) and writing events
    /// to `sink`.
    pub fn new(registry: Option<&Registry>, sink: Box<dyn TraceSink>) -> Self {
        Recorder {
            taps: registry.map(Taps::new),
            sink,
        }
    }

    /// Emit the leading metadata record (call once, before the run).
    pub fn meta(&mut self, ranks: usize, steps: usize) {
        self.sink.emit(&TraceEvent::Meta { ranks, steps });
    }

    /// Emit the trailing recovery summary of a run that could fail
    /// (call at most once, before [`Recorder::finish`]), and mirror
    /// the count into the registry under `engine.recoveries`.
    pub fn fault_summary(&mut self, recoveries: usize) {
        if let Some(taps) = &self.taps {
            taps.recoveries.add(recoveries as u64);
        }
        self.sink.emit(&TraceEvent::FaultSummary { recoveries });
    }

    /// Flush the sink (call once, after the run).
    pub fn finish(&mut self) {
        self.sink.flush();
    }
}

impl Observer for Recorder {
    fn phase(&mut self, phase: Phase, seconds: f64) {
        if let Some(taps) = &self.taps {
            taps.phase_time[phase.idx()].record(seconds);
        }
    }

    fn exchange(&mut self, ev: &ExchangeEvent) {
        if let Some(taps) = &self.taps {
            let s = ev.strategy.min(STRATEGY_NAMES.len() - 1);
            taps.exchange_count[s].inc();
            taps.exchange_tx[s].add(ev.transactions);
            taps.exchange_bytes[s].add(ev.bytes);
            if ev.max_rank_msgs > 0 {
                taps.exchange_max_rank_msgs[s].set(ev.max_rank_msgs as f64);
            }
            if ev.node_pairs > 0 {
                taps.exchange_node_pairs.set(ev.node_pairs as f64);
            }
            taps.exchange_aggregated_bytes.add(ev.aggregated_bytes);
        }
        self.sink.emit(&TraceEvent::Exchange(*ev));
    }

    fn rebalance(&mut self, ev: &RebalanceEvent) {
        if let Some(taps) = &self.taps {
            taps.rebalances.inc();
            taps.lii_floor.set(ev.lii_floor);
            taps.rebalance_migrated.add(ev.migrated);
            taps.remap_time.record(ev.remap_seconds);
        }
        self.sink.emit(&TraceEvent::Rebalance(*ev));
    }

    fn step(&mut self, index: usize, trace: &StepTrace) {
        if let Some(taps) = &self.taps {
            taps.steps.inc();
            taps.step_time.record(trace.step_time);
            taps.lii.set(trace.lii);
            taps.poisson_unconverged.add(trace.poisson_unconverged);
            let worst = &taps.poisson_rel_residual_max;
            worst.set(worst.get().max(trace.poisson_rel_residual_max));
            taps.move_wall_hits.add(trace.wall_hits);
            taps.move_crossings.add(trace.crossings);
        }
        self.sink.emit(&TraceEvent::Step {
            index,
            trace: trace.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::MemorySink;

    #[test]
    fn recorder_taps_registry_and_sink() {
        let reg = Registry::new();
        let mem = MemorySink::new();
        let mut rec = Recorder::new(Some(&reg), Box::new(mem.clone()));
        rec.meta(3, 2);
        rec.phase(Phase::Inject, 0.25);
        rec.exchange(&ExchangeEvent {
            step: 0,
            phase: Phase::DsmcExchange,
            sub: 0,
            strategy: 1,
            transactions: 6,
            bytes: 640,
            max_rank_msgs: 2,
            node_pairs: 0,
            aggregated_bytes: 0,
        });
        rec.rebalance(&RebalanceEvent {
            step: 0,
            lii: 1.8,
            lii_floor: 1.2,
            migrated: 42,
            remap_seconds: 0.01,
        });
        for (index, residual) in [3e-7, 1e-7].into_iter().enumerate() {
            let trace = StepTrace {
                poisson_rel_residual_max: residual,
                wall_hits: 3,
                crossings: 50,
                ..StepTrace::default()
            };
            rec.step(index, &trace);
        }
        rec.fault_summary(1);
        rec.finish();

        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine.recoveries"), Some(1));
        assert_eq!(snap.counter("vmpi.exchange.DC.transactions"), Some(6));
        assert_eq!(snap.counter("vmpi.exchange.DC.bytes"), Some(640));
        assert_eq!(snap.counter("balance.rebalances"), Some(1));
        assert_eq!(snap.gauge("balance.lii_floor"), Some(1.2));
        assert_eq!(snap.counter("balance.migrated_particles"), Some(42));
        assert_eq!(snap.counter("engine.steps"), Some(2));
        assert_eq!(snap.gauge("pic.poisson.rel_residual_max"), Some(3e-7));
        assert_eq!(snap.counter("dsmc.move.wall_hits"), Some(6));
        assert_eq!(snap.counter("dsmc.move.crossings"), Some(100));
        // meta + exchange + rebalance + two steps + fault summary
        assert_eq!(mem.len(), 6);
    }

    #[test]
    fn recorder_without_registry_still_traces() {
        let mem = MemorySink::new();
        let mut rec = Recorder::new(None, Box::new(mem.clone()));
        rec.phase(Phase::Inject, 0.1);
        rec.step(0, &StepTrace::default());
        assert_eq!(mem.len(), 1); // phases don't emit events
    }
}
