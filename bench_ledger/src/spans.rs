//! The harness's in-memory span recorder (choosing-metrics §4).
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public API; they stay in memory and are written
//! as JSONL when the run ends. Only the traced pass records spans —
//! the end-to-end numbers are taken with this module idle.

use obs::json::{obj, Json};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one began.
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// One thread's span stack. Client threads of the job mix each get a
/// [`Tracer::fork`] sharing the epoch and merge back with
/// [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    counts: BTreeMap<String, u64>,
    /// For a fork: the span of the parent tracer its root spans hang
    /// under once absorbed.
    attach: Option<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            attach: None,
        }
    }

    /// A tracer on the same clock whose root spans hang under `parent`
    /// of this tracer once absorbed.
    pub fn fork(&self, parent: u32) -> Tracer {
        Tracer {
            epoch: self.epoch,
            attach: Some(parent),
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (which must be the innermost open one) and
    /// return its duration in seconds.
    pub fn end(&mut self, id: u32) -> f64 {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.seconds()
    }

    /// Rename an open span once its outcome is known (a step turns out
    /// to have rebalanced).
    pub fn rename(&mut self, id: u32, name: &str) {
        self.spans[id as usize].name = name.to_string();
    }

    /// Time `f` under a span; returns its result and the duration.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += n;
    }

    /// Merge a forked tracer's spans and counts, renumbering its ids
    /// after this tracer's.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base).or(other.attach);
            s.id += base;
            self.spans.push(s);
        }
        for (k, v) in other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    #[cfg(test)]
    pub fn counts(&self) -> &BTreeMap<String, u64> {
        &self.counts
    }

    /// Durations (seconds) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Write spans (with self time) and counts as JSONL.
    pub fn write_jsonl(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let own = self_times(&self.spans);
        for (s, self_ns) in self.spans.iter().zip(own) {
            let line = obj(vec![
                ("id", Json::U64(s.id as u64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                ),
                ("workload", Json::Str(workload.to_string())),
                ("name", Json::Str(s.name.clone())),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
                ("self_ns", Json::U64(self_ns)),
            ]);
            writeln!(out, "{line}")?;
        }
        for (name, n) in &self.counts {
            let line = obj(vec![
                ("workload", Json::Str(workload.to_string())),
                ("count", Json::Str(name.clone())),
                ("value", Json::U64(*n)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// The tracer as the passes hand it around: `None` while end-to-end
/// numbers are taken, so the timed region records nothing.
pub type Trace<'a> = Option<&'a mut Tracer>;

pub fn begin(tr: &mut Trace<'_>, name: &str) -> Option<u32> {
    tr.as_deref_mut().map(|t| t.begin(name))
}

pub fn end(tr: &mut Trace<'_>, id: Option<u32>) {
    if let (Some(t), Some(id)) = (tr.as_deref_mut(), id) {
        t.end(id);
    }
}

/// Time `f`, under a span when tracing.
pub fn timed<T>(tr: &mut Trace<'_>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    match tr {
        Some(t) => t.time(name, f),
        None => {
            let t0 = Instant::now();
            let out = f();
            (out, t0.elapsed().as_secs_f64())
        }
    }
}

/// Self time of each span: its duration minus the part of its
/// interval that its direct children cover (overlapping children,
/// e.g. from two client threads, are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_time() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // overlaps span 1 on [30, 40): that stretch counts once
            span(2, Some(0), 30, 60),
            span(3, Some(2), 35, 45),
            // sticks out past the parent: only [90, 100) is covered
            span(4, Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30, 20, 10, 30]);
    }

    #[test]
    fn tracer_nests_and_forks() {
        let mut t = Tracer::new();
        let root = t.begin("root");
        let ((), d) = t.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(d >= 0.002);
        let mut f = t.fork(root);
        let a = f.begin("forked");
        let b = f.begin("forked.inner");
        f.end(b);
        f.end(a);
        f.count("jobs", 2);
        t.count("jobs", 1);
        t.end(root);
        t.absorb(f);
        let names: Vec<(&str, Option<u32>)> = t
            .spans()
            .iter()
            .map(|s| (s.name.as_str(), s.parent))
            .collect();
        assert_eq!(
            names,
            vec![
                ("root", None),
                ("child", Some(0)),
                ("forked", Some(0)),
                ("forked.inner", Some(2)),
            ]
        );
        assert_eq!(t.counts()["jobs"], 3);
        assert_eq!(t.durations("child").len(), 1);
        let own = self_times(t.spans());
        assert!(own[0] <= t.spans()[0].end_ns - t.spans()[0].start_ns);
    }
}
