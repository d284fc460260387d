//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The program carries no probes for this: a span opens before the
//! benchmark calls into a layer and closes when the call returns. Pipeline
//! executions are timed by [`TimedPipeline`], a wrapper the engine calls
//! from its worker threads. Spans stay in memory and are written out once,
//! when the run ends.

use bugdoc_core::{EvalResult, Instance, ParamSpace};
use bugdoc_engine::{Pipeline, PipelineError, SimTime};
use std::collections::HashSet;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The diagnosis the span belongs to.
    pub diagnosis: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log with a stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    diagnosis: usize,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            diagnosis: 0,
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts attributing spans to the next diagnosis.
    pub fn next_diagnosis(&mut self) -> usize {
        self.diagnosis += 1;
        self.diagnosis
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            diagnosis: self.diagnosis,
            parent: self.open.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Adds closed spans timed elsewhere (pipeline executions on worker
    /// threads), each under the span of this diagnosis named one of
    /// `parents` whose interval contains its start.
    pub fn adopt(&mut self, name: &'static str, intervals: &[(u64, u64)], parents: &[&str]) {
        for &(start_ns, end_ns) in intervals {
            let parent = self.spans.iter().position(|s| {
                s.diagnosis == self.diagnosis
                    && parents.contains(&s.name)
                    && s.start_ns <= start_ns
                    && start_ns <= s.end_ns
            });
            self.spans.push(Span {
                diagnosis: self.diagnosis,
                parent,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    /// Total duration of the current diagnosis's spans named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.diagnosis == self.diagnosis && s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .sum()
    }

    /// Self time of the current diagnosis's spans named `name`, in ms: each
    /// span's duration minus the part of it its child spans cover.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (id, s) in self.spans.iter().enumerate() {
            if s.diagnosis != self.diagnosis || s.name != name {
                continue;
            }
            let children: Vec<(u64, u64)> = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .collect();
            total += s.ns().saturating_sub(covered_ns(children)) as f64 / 1e6;
        }
        total
    }

    /// Writes the spans as tab-separated lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tdiagnosis\tparent\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}",
                s.diagnosis, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of intervals (which may overlap: two workers
/// execute at once).
pub fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.retain(|&(a, b)| b > a);
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// What [`TimedPipeline`] saw since it was last drained.
#[derive(Debug, Default)]
pub struct Executions {
    pub threads: HashSet<ThreadId>,
    pub intervals: Vec<(u64, u64)>,
}

/// A pipeline wrapper that records which threads execute instances and
/// for how long. Used only in the traced run.
pub struct TimedPipeline {
    inner: Arc<dyn Pipeline>,
    epoch: Instant,
    seen: Mutex<Executions>,
}

impl TimedPipeline {
    pub fn new(inner: Arc<dyn Pipeline>, epoch: Instant) -> TimedPipeline {
        TimedPipeline {
            inner,
            epoch,
            seen: Mutex::new(Executions::default()),
        }
    }

    /// Takes what was recorded so far.
    pub fn drain(&self) -> Executions {
        std::mem::take(
            &mut *self
                .seen
                .lock()
                .expect("no execution panics while recording"),
        )
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Pipeline for TimedPipeline {
    fn space(&self) -> &Arc<ParamSpace> {
        self.inner.space()
    }

    fn execute(&self, instance: &Instance) -> Result<EvalResult, PipelineError> {
        let start = self.now_ns();
        let out = self.inner.execute(instance);
        let end = self.now_ns();
        let mut seen = self
            .seen
            .lock()
            .expect("no execution panics while recording");
        seen.threads.insert(std::thread::current().id());
        seen.intervals.push((start, end));
        out
    }

    fn cost(&self, instance: &Instance) -> SimTime {
        self.inner.cost(instance)
    }

    fn available_instances(&self) -> Option<Vec<Instance>> {
        self.inner.available_instances()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
