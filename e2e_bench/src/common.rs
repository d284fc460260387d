//! What every workload shares: options, the metric catalogue, the run
//! tally, percentile arithmetic, process accounting read from `/proc`, and
//! by-name access to the program's counters.

use crate::trace::Tracer;
use bugdoc_engine::ExecStats;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Command-line options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured loop runs (it always ends on a whole round).
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// The `bugdoc` binary built from this tree (served workload only).
    pub bugdoc: Option<PathBuf>,
    /// Scratch directory for the run's files; removed at the end.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
}

/// Fewest diagnoses a run makes, so the tail percentile has a tail.
pub const MIN_DIAGNOSES: usize = 40;

/// Set-ups per run (unless a workload says otherwise); `setup_s` is
/// their median.
pub const SETUPS: usize = 3;

/// Executor worker threads in every workload (the host has 2 cores).
pub const WORKERS: usize = 2;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run, printed as the last line of standard output.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines for standard error: failed checks, absent metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (non-finite values cannot be written; they are
/// reported as 0 and the run is marked incorrect by its caller).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// End-to-end metrics, printed by the untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("diagnose_p50_ms", "ms"),
    ("diagnose_tail_ms", "ms"),
    ("diagnoses_per_s", "1/s"),
    ("cpu_ms_per_diagnosis", "ms"),
    ("executions_per_diagnosis", "count"),
    ("virtual_s_per_diagnosis", "virtual_s"),
    ("causes_recovered_per_diagnosis", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by the traced run of every workload. A layer
/// a workload does not reach reads 0 and is named on standard error.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.worker_threads", "count"),
    ("engine.pipeline_execute_ms", "ms"),
    ("engine.new_executions", "count"),
    ("engine.cache_hits", "count"),
    ("engine.hit_ratio", "ratio"),
    ("dtree.fit_ms", "ms"),
    ("dtree.leaves", "count"),
    ("core.support_us", "us"),
    ("core.provenance_runs", "count"),
    ("core.epochs_scanned", "count"),
    ("core.parallel_epoch_queries", "count"),
    ("core.bounds_pruned_subtrees", "count"),
    ("core.bounds_short_circuits", "count"),
    ("core.bounds_fallthroughs", "count"),
    ("algorithms.stacked_ms", "ms"),
    ("algorithms.ddt_ms", "ms"),
    ("algorithms.ddt_rebuilds", "count"),
    ("algorithms.self_ms", "ms"),
    ("qm.minimize_ms", "ms"),
    ("store.recover_ms", "ms"),
    ("store.recovered_runs", "count"),
    ("store.wal_appends", "count"),
    ("store.wal_append_ns", "ns"),
    ("store.snapshot_ms", "ms"),
    ("store.bytes_per_run", "B"),
    ("serve.session_ms", "ms"),
    ("serve.spec_ms", "ms"),
    ("serve.diagnose_ms", "ms"),
    ("serve.diagnose_server_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.executors", "count"),
    ("serve.shared_hit_ratio", "ratio"),
    ("serve.daemon_cpu_ms", "ms"),
    ("serve.pipeline_cpu_ms", "ms"),
    ("synth.generate_ms", "ms"),
    ("harness.self_ms", "ms"),
    ("harness.trace_overhead_pct", "%"),
];

/// What the measured loop of an untraced run accumulates.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Wall time of each diagnosis as its caller waited for it.
    pub latencies_ms: Vec<f64>,
    pub executions: u64,
    pub virtual_s: f64,
    pub causes_recovered: u64,
    /// Wall time of the whole measured loop.
    pub wall_s: f64,
    /// CPU time of the process that runs the program, over the loop.
    pub cpu_ms: f64,
    pub peak_rss_mb: f64,
    pub setup_s: Vec<f64>,
}

impl Tally {
    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let n = self.latencies_ms.len().max(1) as f64;
        let values = [
            median(&self.latencies_ms),
            tail(&self.latencies_ms).unwrap_or(f64::NAN),
            self.latencies_ms.len() as f64 / self.wall_s,
            self.cpu_ms / n,
            self.executions as f64 / n,
            self.virtual_s / n,
            self.causes_recovered as f64 / n,
            median(&self.setup_s),
            self.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, value, unit })
            .collect()
    }
}

/// Per-layer sums over a traced run; [`Layers::metrics`] fills in the
/// whole [`PER_LAYER`] catalogue.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown layer metric {name}"
        );
        *self.values.entry(name).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "unknown layer metric {name}"
        );
        self.values.insert(name, v);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Divides every named sum by `n` (turning totals into means).
    pub fn average(&mut self, names: &[&'static str], n: f64) {
        for name in names {
            if let Some(v) = self.values.get_mut(name) {
                *v /= n.max(1.0);
            }
        }
    }

    /// Every per-layer metric; those never recorded read 0 and are
    /// returned as absent.
    pub fn metrics(&self) -> (Vec<Metric>, Vec<&'static str>) {
        let mut absent = Vec::new();
        let metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = self.values.get(name).copied().unwrap_or_else(|| {
                    absent.push(name);
                    0.0
                });
                Metric { name, value, unit }
            })
            .collect();
        (metrics, absent)
    }
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it: the sample
/// at rank `n - 11` of `n` sorted ascending. `None` below
/// [`MIN_DIAGNOSES`] samples, where that percentile would be no tail.
pub fn tail(xs: &[f64]) -> Option<f64> {
    if xs.len() < MIN_DIAGNOSES {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[v.len() - 11])
}

/// A counter of [`ExecStats`] by its name in `counter_fields()`; `None`
/// when the program no longer has it.
pub fn counter(stats: &ExecStats, name: &str) -> Option<u64> {
    stats
        .counter_fields()
        .into_iter()
        .find(|&(n, _)| n == name)
        .map(|(_, v)| v)
}

/// Adds the counter `name` of `after - before` to a per-layer sum, if the
/// program still has it.
pub fn add_counter(
    layers: &mut Layers,
    metric: &'static str,
    name: &str,
    before: &ExecStats,
    after: &ExecStats,
) {
    if let (Some(a), Some(b)) = (counter(after, name), counter(before, name)) {
        layers.add(metric, a.saturating_sub(b) as f64);
    }
}

/// A sample `name value` of Prometheus text exposition, by exact name
/// (unlabelled series only); `None` when the program does not export it.
pub fn exposition_value(text: &str, name: &str) -> Option<f64> {
    text.lines().filter(|l| !l.starts_with('#')).find_map(|l| {
        let (n, v) = l.split_once(' ')?;
        (n == name).then(|| v.trim().parse().ok()).flatten()
    })
}

/// The number of labelled samples of `name` (one per executor for the
/// daemon's per-executor gauges).
pub fn exposition_series(text: &str, name: &str) -> usize {
    let prefix = format!("{name}{{");
    text.lines().filter(|l| l.starts_with(&prefix)).count()
}

/// `(count, sum)` of a histogram in the exposition.
fn histogram(text: &str, name: &str) -> Option<(f64, f64)> {
    Some((
        exposition_value(text, &format!("{name}_count"))?,
        exposition_value(text, &format!("{name}_sum"))?,
    ))
}

/// `(count, sum)` a histogram gained between two scrapes; `None` when the
/// program does not export it. A histogram is registered on first use, so
/// one missing from the first scrape counts from zero.
pub fn histogram_delta(before: &str, after: &str, name: &str) -> Option<(f64, f64)> {
    let (count, sum) = histogram(after, name)?;
    let (c0, s0) = histogram(before, name).unwrap_or((0.0, 0.0));
    Some((count - c0, sum - s0))
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this benchmark targets).
const CLOCK_TICKS: f64 = 100.0;

/// CPU time of a process from `/proc/<pid>/stat`, in ms: its own user +
/// system time, and that of its waited-for children.
pub fn cpu_ms(pid: &str) -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime is field 14.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .map(|x| x.parse().unwrap_or(f64::NAN))
        .collect();
    if f.len() < 4 {
        return None;
    }
    let tick_ms = 1e3 / CLOCK_TICKS;
    Some(((f[0] + f[1]) * tick_ms, (f[2] + f[3]) * tick_ms))
}

/// Peak resident set size of a process (`VmHWM`), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Total size of the regular files directly in `dir`, in bytes.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Whether the measured loop should start another round.
pub fn another_round(started: Instant, seconds: f64, diagnoses: usize) -> bool {
    started.elapsed().as_secs_f64() < seconds || diagnoses < MIN_DIAGNOSES
}

/// Completes a run's report: end-to-end metrics, or in the traced run the
/// per-layer means per diagnosis and the written spans.
#[allow(clippy::too_many_arguments)]
pub fn finish(
    opts: &Options,
    workload: &str,
    mut report: Report,
    tally: Tally,
    mut layers: Layers,
    tracer: Tracer,
    reference_ms: &[f64],
    staged_ms: &[f64],
    harness_ms: f64,
) -> Result<Report, String> {
    if !opts.trace {
        report.metrics = tally.end_to_end();
        return Ok(report);
    }
    let n = report.attempted as f64;
    layers.average(
        &[
            "engine.worker_threads",
            "engine.pipeline_execute_ms",
            "engine.new_executions",
            "engine.cache_hits",
            "dtree.fit_ms",
            "dtree.leaves",
            "core.support_us",
            "core.provenance_runs",
            "core.epochs_scanned",
            "core.parallel_epoch_queries",
            "core.bounds_pruned_subtrees",
            "core.bounds_short_circuits",
            "core.bounds_fallthroughs",
            "algorithms.stacked_ms",
            "algorithms.ddt_ms",
            "algorithms.ddt_rebuilds",
            "algorithms.self_ms",
            "qm.minimize_ms",
        ],
        n,
    );
    if let (Some(new), Some(hits)) = (
        layers.get("engine.new_executions"),
        layers.get("engine.cache_hits"),
    ) {
        if new + hits > 0.0 {
            layers.set("engine.hit_ratio", hits / (new + hits));
        }
    }
    layers.set("harness.self_ms", harness_ms / n.max(1.0));
    let reference = median(reference_ms);
    if reference > 0.0 {
        layers.set(
            "harness.trace_overhead_pct",
            (median(staged_ms) / reference - 1.0) * 100.0,
        );
    }
    let path = opts.out.join(format!("trace-{workload}-{}.tsv", opts.seed));
    tracer
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let (metrics, absent) = layers.metrics();
    report.metrics = metrics;
    if !absent.is_empty() {
        report
            .notes
            .push(format!("absent on {workload}: {}", absent.join(" ")));
    }
    Ok(report)
}
