//! Structured trace sinks: where pipeline events go.
//!
//! A [`TraceSink`] consumes [`TraceEvent`]s — one per step, exchange
//! and rebalance, plus a leading metadata record. Three
//! implementations cover every consumer:
//!
//! * [`NullSink`] — the default; events vanish at zero cost.
//! * [`JsonlSink`] — one JSON object per line (machine-readable,
//!   append-only, versioned via the meta record). This is what
//!   `--trace-out <path>` selects in the bench binaries.
//! * [`MemorySink`] — events accumulate in a shared in-memory buffer,
//!   for tests and in-process consumers.

use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};

use crate::events::{ExchangeEvent, RebalanceEvent, StepTrace};
use crate::json::{obj, Json};
use crate::SCHEMA_VERSION;

/// One record of the structured trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Leading record: schema version and run shape.
    Meta { ranks: usize, steps: usize },
    /// One DSMC step completed.
    Step { index: usize, trace: StepTrace },
    /// One particle exchange completed.
    Exchange(ExchangeEvent),
    /// One rebalance performed.
    Rebalance(RebalanceEvent),
    /// Trailing record of a run that could fail: how many times it
    /// recovered from a rank death. Emitted once, before the final
    /// flush, and only when a fault plan was installed or a recovery
    /// happened.
    FaultSummary {
        /// Checkpoint restarts performed after detected rank deaths.
        recoveries: usize,
    },
}

impl TraceEvent {
    /// The event as one JSON object (what [`JsonlSink`] writes per
    /// line).
    pub fn to_json(&self) -> Json {
        match self {
            TraceEvent::Meta { ranks, steps } => obj(vec![
                ("type", Json::Str("meta".into())),
                ("schema_version", Json::U64(SCHEMA_VERSION as u64)),
                ("ranks", Json::U64(*ranks as u64)),
                ("steps", Json::U64(*steps as u64)),
            ]),
            TraceEvent::Step { index, trace } => trace.to_json(*index),
            TraceEvent::Exchange(ev) => ev.to_json(),
            TraceEvent::Rebalance(ev) => ev.to_json(),
            TraceEvent::FaultSummary { recoveries } => obj(vec![
                ("type", Json::Str("fault_summary".into())),
                ("recoveries", Json::U64(*recoveries as u64)),
            ]),
        }
    }
}

/// Consumer of trace events. Implementations must be `Send` so the
/// threaded driver can hand the sink to rank 0's thread.
pub trait TraceSink: Send {
    fn emit(&mut self, ev: &TraceEvent);
    /// Flush buffered output (called once at end of run).
    fn flush(&mut self) {}
}

/// The default sink: drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _ev: &TraceEvent) {}
}

/// Writes one JSON object per line.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    out: BufWriter<W>,
}

impl JsonlSink<std::fs::File> {
    /// Create (truncate) `path` and write events to it.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlSink {
            out: BufWriter::new(std::fs::File::create(path)?),
        })
    }
}

impl<W: Write + Send> JsonlSink<W> {
    pub fn new(out: W) -> Self {
        JsonlSink {
            out: BufWriter::new(out),
        }
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn emit(&mut self, ev: &TraceEvent) {
        // an I/O error on a trace stream must not kill the simulation;
        // drop the event (flush reports persistent failure via stderr)
        let _ = writeln!(self.out, "{}", ev.to_json());
    }

    fn flush(&mut self) {
        if let Err(e) = self.out.flush() {
            eprintln!("obs: trace flush failed: {e}");
        }
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

/// Shared in-memory sink: clones see the same buffer, so a test can
/// keep one handle and hand the other to the run.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemorySink {
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Copy of the events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn emit(&mut self, ev: &TraceEvent) {
        self.events.lock().unwrap().push(ev.clone());
    }
}

/// Broadcast sink: every emitted event is fanned out to every live
/// subscriber channel, and optionally teed into one inner sink (so a
/// run can stream to in-process followers *and* keep its JSONL file).
///
/// Clones share the subscriber list, which is how the job server
/// works: the server keeps one handle per job, hands a clone to the
/// run via [`TraceSpec::Fanout`], and [`FanoutSink::subscribe`] can
/// attach followers at any time. Subscribers whose receiver was
/// dropped are pruned on the next emit; [`FanoutSink::close`] drops
/// every sender so followers observe a clean end-of-stream.
#[derive(Clone, Default)]
pub struct FanoutSink {
    subscribers: Arc<Mutex<Vec<mpsc::Sender<TraceEvent>>>>,
    tee: Arc<Mutex<Option<Box<dyn TraceSink>>>>,
}

impl std::fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutSink")
            .field("subscribers", &self.subscriber_count())
            .finish_non_exhaustive()
    }
}

impl FanoutSink {
    pub fn new() -> Self {
        FanoutSink::default()
    }

    /// Attach a follower: an unbounded receiver of every event
    /// emitted from now on.
    pub fn subscribe(&self) -> mpsc::Receiver<TraceEvent> {
        let (tx, rx) = mpsc::channel();
        self.subscribers.lock().unwrap().push(tx);
        rx
    }

    /// Also deliver every event into `sink` (e.g. the JSONL sink the
    /// submitter originally asked for).
    pub fn tee_into(&self, sink: Box<dyn TraceSink>) {
        *self.tee.lock().unwrap() = Some(sink);
    }

    /// Live subscriber channels (dropped receivers are only pruned on
    /// the next emit).
    pub fn subscriber_count(&self) -> usize {
        self.subscribers.lock().unwrap().len()
    }

    /// Drop every subscriber sender (followers see the channel close)
    /// and flush + drop the teed sink. The handle stays usable; later
    /// subscribers start from an empty stream.
    pub fn close(&self) {
        self.subscribers.lock().unwrap().clear();
        if let Some(mut sink) = self.tee.lock().unwrap().take() {
            sink.flush();
        }
    }
}

impl TraceSink for FanoutSink {
    fn emit(&mut self, ev: &TraceEvent) {
        self.subscribers
            .lock()
            .unwrap()
            .retain(|tx| tx.send(ev.clone()).is_ok());
        if let Some(sink) = self.tee.lock().unwrap().as_mut() {
            sink.emit(ev);
        }
    }

    fn flush(&mut self) {
        if let Some(sink) = self.tee.lock().unwrap().as_mut() {
            sink.flush();
        }
    }
}

/// Where a run's trace should go — the cloneable *specification*
/// carried by the run configuration; the driver materializes the sink
/// at run start via [`TraceSpec::make_sink`].
#[derive(Debug, Clone, Default)]
pub enum TraceSpec {
    /// No trace (the default).
    #[default]
    Off,
    /// Write JSONL to this path (created/truncated at run start).
    Jsonl(PathBuf),
    /// Record into this shared buffer.
    Memory(MemorySink),
    /// Fan every event out to the sink's subscribers (and its teed
    /// inner sink, if any). This is how the job server streams live
    /// progress to followers.
    Fanout(FanoutSink),
}

impl TraceSpec {
    /// Materialize the sink. Only [`TraceSpec::Jsonl`] can fail (file
    /// creation).
    pub fn make_sink(&self) -> std::io::Result<Box<dyn TraceSink>> {
        Ok(match self {
            TraceSpec::Off => Box::new(NullSink),
            TraceSpec::Jsonl(path) => Box::new(JsonlSink::create(path)?),
            TraceSpec::Memory(m) => Box::new(m.clone()),
            TraceSpec::Fanout(f) => Box::new(f.clone()),
        })
    }

    /// Whether any events would be recorded.
    pub fn is_off(&self) -> bool {
        matches!(self, TraceSpec::Off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&TraceEvent::Meta { ranks: 3, steps: 2 });
        sink.emit(&TraceEvent::Step {
            index: 0,
            trace: StepTrace::default(),
        });
        sink.flush();
        let text = String::from_utf8(sink.out.get_ref().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let meta = parse(lines[0]).unwrap();
        assert_eq!(
            meta.get("schema_version").unwrap().as_u64(),
            Some(SCHEMA_VERSION as u64)
        );
        assert_eq!(
            parse(lines[1]).unwrap().get("type").unwrap().as_str(),
            Some("step")
        );
    }

    #[test]
    fn memory_sink_clones_share_buffer() {
        let keep = MemorySink::new();
        let mut given: Box<dyn TraceSink> = TraceSpec::Memory(keep.clone()).make_sink().unwrap();
        given.emit(&TraceEvent::Meta { ranks: 1, steps: 1 });
        assert_eq!(keep.len(), 1);
        assert!(matches!(
            keep.events()[0],
            TraceEvent::Meta { ranks: 1, .. }
        ));
    }

    #[test]
    fn fault_summary_json_carries_the_recoveries() {
        let ev = TraceEvent::FaultSummary { recoveries: 1 };
        let v = parse(&ev.to_json().to_string()).unwrap();
        assert_eq!(v.get("type").unwrap().as_str(), Some("fault_summary"));
        assert_eq!(v.get("recoveries").unwrap().as_u64(), Some(1));
        assert!(v.get("retries").is_none(), "the wire counters are gone");
    }

    #[test]
    fn fanout_reaches_every_subscriber_and_tee() {
        let fan = FanoutSink::new();
        let keep = MemorySink::new();
        fan.tee_into(Box::new(keep.clone()));
        let rx1 = fan.subscribe();
        let rx2 = fan.subscribe();
        let mut sink = TraceSpec::Fanout(fan.clone()).make_sink().unwrap();
        sink.emit(&TraceEvent::Meta { ranks: 2, steps: 5 });
        for rx in [&rx1, &rx2] {
            assert!(matches!(
                rx.try_recv().unwrap(),
                TraceEvent::Meta { ranks: 2, steps: 5 }
            ));
        }
        assert_eq!(keep.len(), 1, "teed sink saw the event");
        // a dropped receiver is pruned on the next emit
        drop(rx1);
        sink.emit(&TraceEvent::Meta { ranks: 2, steps: 5 });
        assert_eq!(fan.subscriber_count(), 1);
        // close ends the stream for followers
        fan.close();
        assert!(rx2.try_recv().is_ok(), "buffered event still delivered");
        assert!(rx2.recv().is_err(), "stream closed after close()");
    }

    #[test]
    fn off_spec_makes_null_sink() {
        let mut s = TraceSpec::Off.make_sink().unwrap();
        s.emit(&TraceEvent::Meta { ranks: 1, steps: 0 });
        assert!(TraceSpec::Off.is_off());
    }
}
