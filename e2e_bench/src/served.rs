//! `served-subprocess`: the `bugdoc serve` daemon built from this tree,
//! with the CLI's own executor factory and durable `persist_dir` specs.
//! Every instance is a real fork/exec of a small shell script that encodes
//! a planted failure condition.
//!
//! Two client connections run a closed loop of `SESSION NEW` → `SPEC` →
//! `DIAGNOSE` → `CLOSE`, in rounds. A round has one spec text per shape,
//! and both connections diagnose each of them, so the second session to
//! bind a spec shares the first one's executor. A round has two phases
//! split by a barrier: in the first, each connection diagnoses its own half
//! of the shapes on fresh executors; in the second, the other half, on the
//! executors the other connection left. No two sessions ever diagnose on one
//! executor at once, so every executor's history, and every diagnosis, is
//! the same in every round and every run; `--seed` orders each phase.
//!
//! Each round's specs name their own persist directories, so every round
//! starts from empty histories and the executions are real. A daemon serves
//! [`ROUNDS_PER_DAEMON`] rounds and drains; the next one starts outside the
//! measured time. After the last daemon drains, the benchmark reopens every
//! directory and checks what was recorded.

use crate::checks::{
    all_instances, brute_force_recovered, check_outcomes, check_recovered_count, judge,
    parse_cause, parse_report,
};
use crate::common::{
    another_round, cpu_ms, dir_bytes, exposition_series, exposition_value, histogram_delta, median,
    ms_since, peak_rss_mb, Layers, Options, Report, Tally, SETUPS, WORKERS,
};
use crate::trace::Tracer;
use bugdoc_core::{Conjunction, ParamSpace};
use bugdoc_serve::{Client, DiagnoseParams};
use bugdoc_store::{DurableStore, PersistConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Client connections (the host has 2 cores).
pub const CONNECTIONS: usize = 2;

/// Rounds one daemon serves before it drains. The daemon keeps every
/// executor it built until it exits, so its memory grows with the rounds
/// served; a fixed count keeps `peak_rss_mb` a measure of the same work
/// however fast the rounds run.
pub const ROUNDS_PER_DAEMON: usize = 40;

/// Parameters shared by every spec: 5 × 4 × 3 = 60 instances.
const PARAMS: &str = "param version ordinal 1 2 3 4 5
param estimator categorical lr dt gb svm
param dataset categorical iris digits images
";

/// One planted failure condition: the script that encodes it, and the
/// same condition as causes the benchmark evaluates itself.
pub struct Shape {
    pub name: &'static str,
    pub script: &'static str,
    pub planted: &'static [&'static str],
}

/// The cause kinds of the paper: a single triple, two conjunctions, a
/// disjunction. Each fails on a third to a half of the space, so the
/// diagnosis's random probes meet a failure from an empty history.
pub const SHAPES: [Shape; 4] = [
    Shape {
        name: "triple",
        script: "#!/bin/sh\n# fails when estimator = gb\n[ \"$2\" = gb ] && exit 1\nexit 0\n",
        planted: &["estimator = gb"],
    },
    Shape {
        name: "conjunction",
        script: "#!/bin/sh\n# fails when version > 2 and estimator != lr\n[ \"$1\" -gt 2 ] && [ \"$2\" != lr ] && exit 1\nexit 0\n",
        planted: &["version > 2 ∧ estimator ≠ lr"],
    },
    Shape {
        name: "disjunction",
        script: "#!/bin/sh\n# fails when version <= 1, or when estimator = svm and dataset = images\n[ \"$1\" -le 1 ] && exit 1\n[ \"$2\" = svm ] && [ \"$3\" = images ] && exit 1\nexit 0\n",
        planted: &["version ≤ 1", "estimator = svm ∧ dataset = images"],
    },
    Shape {
        name: "categorical",
        script: "#!/bin/sh\n# fails when estimator != lr and dataset != iris\n[ \"$2\" != lr ] && [ \"$3\" != iris ] && exit 1\nexit 0\n",
        planted: &["estimator ≠ lr ∧ dataset ≠ iris"],
    },
];

/// The shapes connection `c` diagnoses in `phase` (0 or 1) of a round: the
/// even shapes or the odd ones, the other connection taking the rest.
fn phase_shapes(c: usize, phase: usize) -> Vec<usize> {
    (0..SHAPES.len())
        .filter(|k| k % 2 == (c + phase) % 2)
        .collect()
}

/// The diagnosis seed connection `c` uses on shape `k` (the same in every
/// round).
fn diagnose_seed(c: usize, k: usize) -> u64 {
    (c * SHAPES.len() + k) as u64
}

/// The spec text of shape `k` in round `r`.
fn spec_text(work: &Path, r: usize, k: usize) -> String {
    let shape = &SHAPES[k];
    format!(
        "{PARAMS}command sh {}/{}.sh {{version}} {{estimator}} {{dataset}}\neval exit_code\nworkers {WORKERS}\npersist_dir {}\n",
        work.display(),
        shape.name,
        persist_dir(work, r, k).display()
    )
}

fn persist_dir(work: &Path, r: usize, k: usize) -> PathBuf {
    work.join("persist")
        .join(format!("r{r}-{}", SHAPES[k].name))
}

/// The daemon process; killed and waited for if dropped while running.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(bugdoc: &Path, socket: &Path) -> Result<Daemon, String> {
        let child = Command::new(bugdoc)
            .args(["serve", "--socket"])
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bugdoc.display()))?;
        let daemon = Daemon {
            child,
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(mut client) = Client::connect(socket) {
                if client.request("PING").is_ok() {
                    return Ok(daemon);
                }
            }
            if Instant::now() > deadline {
                return Err("the daemon did not answer PING within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the daemon to drain and waits for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut client = Client::connect(&self.socket)?;
        client.request("SHUTDOWN")?;
        let deadline = Instant::now() + Duration::from_secs(120);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("the daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("the daemon did not drain within 120 s".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One diagnosis as a client saw it.
#[derive(Debug, Clone)]
struct Served {
    round: usize,
    shape: usize,
    report: Result<String, String>,
    shared: bool,
    /// Round trips of SESSION NEW, SPEC, DIAGNOSE, CLOSE, in ms.
    parts_ms: [f64; 4],
}

/// What the connections to one daemon share.
struct Lifetime<'a> {
    socket: &'a Path,
    work: &'a Path,
    seed: u64,
    seconds: f64,
    started: Instant,
    first_round: usize,
    barrier: Barrier,
    /// Whether the connections start another round on this daemon.
    go_on: AtomicBool,
    /// Whether the run goes on (on a fresh daemon once this one is full).
    time_left: AtomicBool,
    /// Whether a connection was lost.
    broken: AtomicBool,
    done: &'a AtomicUsize,
}

/// One connection's closed loop over one daemon's lifetime. Rounds end
/// together: after each round the first connection to arrive decides
/// whether another one starts.
fn connection(c: usize, life: &Lifetime, tracer: &mut Tracer) -> Result<Vec<Served>, String> {
    let mut client = Client::connect(life.socket)?;
    let mut rng = StdRng::seed_from_u64(life.seed ^ ((life.first_round as u64) << 32) ^ c as u64);
    let mut out = Vec::new();
    let mut round = life.first_round;
    // A lost connection ends the run, but this connection still meets the
    // other at every barrier, so neither waits forever.
    let mut lost = None;
    loop {
        for phase in 0..2 {
            if phase == 1 {
                life.barrier.wait();
            }
            let mut order = phase_shapes(c, phase);
            order.shuffle(&mut rng);
            for &k in &order {
                if lost.is_some() {
                    break;
                }
                tracer.next_diagnosis();
                let root = tracer.enter("serve.request");
                let mut parts = [0.0; 4];
                let t = Instant::now();
                let session = tracer.span("serve.session", |_| client.request("SESSION NEW"));
                parts[0] = ms_since(t);
                let t = Instant::now();
                let text = spec_text(life.work, round, k);
                let ack =
                    session.and_then(|_| tracer.span("serve.spec", |_| client.spec(&text, 0)));
                parts[1] = ms_since(t);
                let t = Instant::now();
                let params = DiagnoseParams {
                    seed: diagnose_seed(c, k),
                    ..DiagnoseParams::default()
                };
                let report = match &ack {
                    Ok(_) => tracer.span("serve.diagnose", |_| client.diagnose(params)),
                    Err(e) => Err(e.clone()),
                };
                parts[2] = ms_since(t);
                let t = Instant::now();
                let closed = tracer.span("serve.close", |_| client.request("CLOSE"));
                parts[3] = ms_since(t);
                tracer.exit(root);
                if let Err(e) = closed {
                    life.broken.store(true, Ordering::SeqCst);
                    lost = Some(e);
                    break;
                }
                life.done.fetch_add(1, Ordering::SeqCst);
                out.push(Served {
                    round,
                    shape: k,
                    shared: ack.as_deref().is_ok_and(|a| a.contains("shared")),
                    report,
                    parts_ms: parts,
                });
            }
        }
        round += 1;
        if life.barrier.wait().is_leader() {
            let left = !life.broken.load(Ordering::SeqCst)
                && another_round(life.started, life.seconds, life.done.load(Ordering::SeqCst));
            life.time_left.store(left, Ordering::SeqCst);
            life.go_on.store(
                left && round - life.first_round < ROUNDS_PER_DAEMON,
                Ordering::SeqCst,
            );
        }
        life.barrier.wait();
        if !life.go_on.load(Ordering::SeqCst) {
            return lost.map_or(Ok(out), Err);
        }
    }
}

/// What the daemons reported over the run, summed over their lifetimes.
#[derive(Default)]
struct Totals {
    executed: f64,
    hits: Option<f64>,
    diagnose_ns: Option<(f64, f64)>,
    wal_append_ns: Option<(f64, f64)>,
    executors: Vec<f64>,
    daemon_cpu_ms: f64,
    pipeline_cpu_ms: f64,
}

fn add(slot: &mut Option<(f64, f64)>, delta: Option<(f64, f64)>) {
    if let Some((count, sum)) = delta {
        let (c, s) = slot.unwrap_or((0.0, 0.0));
        *slot = Some((c + count, s + sum));
    }
}

fn scrape(socket: &Path) -> Result<String, String> {
    Ok(Client::connect(socket)?
        .metrics()
        .map_err(|e| format!("METRICS: {e}"))?
        .join("\n"))
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let bugdoc = opts
        .bugdoc
        .as_deref()
        .ok_or("served-subprocess needs --bugdoc <path>")?;
    let work = opts.work.as_path();
    for shape in &SHAPES {
        let path = work.join(format!("{}.sh", shape.name));
        std::fs::write(&path, shape.script)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let socket = work.join("bd.sock");
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let mut daemon = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let d = Daemon::start(bugdoc, &socket)?;
        tally.setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }

    let done = AtomicUsize::new(0);
    let started = Instant::now();
    let mut tracers: Vec<Tracer> = (0..CONNECTIONS).map(|_| Tracer::new(started)).collect();
    let mut served: Vec<Served> = Vec::new();
    let mut totals = Totals::default();
    loop {
        // A daemon serves ROUNDS_PER_DAEMON rounds, then drains; the next
        // one is started outside the measured time.
        let d = match daemon.take() {
            Some(d) => d,
            None => Daemon::start(bugdoc, &socket)?,
        };
        let pid = d.pid();
        let metrics0 = scrape(&socket)?;
        let cpu0 = cpu_ms(&pid).ok_or("cannot read the daemon's /proc stat")?;
        let life = Lifetime {
            socket: &socket,
            work,
            seed: opts.seed,
            seconds: opts.seconds,
            started,
            first_round: served.iter().map(|s| s.round + 1).max().unwrap_or(0),
            barrier: Barrier::new(CONNECTIONS),
            go_on: AtomicBool::new(true),
            time_left: AtomicBool::new(true),
            broken: AtomicBool::new(false),
            done: &done,
        };
        let t = Instant::now();
        let results: Vec<Result<Vec<Served>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = tracers
                .iter_mut()
                .enumerate()
                .map(|(c, tracer)| {
                    let life = &life;
                    s.spawn(move || connection(c, life, tracer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("a client thread panicked".into()))
                })
                .collect()
        });
        tally.wall_s += t.elapsed().as_secs_f64();
        let cpu1 = cpu_ms(&pid).ok_or("cannot read the daemon's /proc stat")?;
        let rss = peak_rss_mb(&pid).ok_or("cannot read the daemon's /proc status")?;
        let metrics1 = scrape(&socket)?;
        d.shutdown()?;
        for r in results {
            served.extend(r?);
        }
        tally.peak_rss_mb = tally.peak_rss_mb.max(rss);
        totals.daemon_cpu_ms += cpu1.0 - cpu0.0;
        totals.pipeline_cpu_ms += cpu1.1 - cpu0.1;
        let counter = |name: &str| -> Option<f64> {
            Some(
                exposition_value(&metrics1, name)?
                    - exposition_value(&metrics0, name).unwrap_or(0.0),
            )
        };
        totals.executed += counter("bugdoc_executor_new_executions_total")
            .ok_or("the daemon exports no bugdoc_executor_new_executions_total")?;
        if let Some(hits) = counter("bugdoc_executor_cache_hits_total") {
            totals.hits = Some(totals.hits.unwrap_or(0.0) + hits);
        }
        add(
            &mut totals.diagnose_ns,
            histogram_delta(&metrics0, &metrics1, "bugdoc_serve_diagnose_ns"),
        );
        add(
            &mut totals.wal_append_ns,
            histogram_delta(&metrics0, &metrics1, "bugdoc_store_wal_append_ns"),
        );
        totals
            .executors
            .push(exposition_series(&metrics1, "bugdoc_serve_executor_runs") as f64);
        if !life.time_left.load(Ordering::SeqCst) {
            break;
        }
    }
    tally.cpu_ms = totals.daemon_cpu_ms + totals.pipeline_cpu_ms;

    let checked = Instant::now();
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let space: Arc<ParamSpace> = bugdoc_cli::spec::parse_spec(&spec_text(work, 0, 0))
        .map_err(|e| e.to_string())?
        .space;
    let instances = all_instances(&space);
    let planted: Vec<Vec<Conjunction>> = SHAPES
        .iter()
        .map(|s| {
            s.planted
                .iter()
                .map(|p| parse_cause(&space, p))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<_, _>>()?;
    let rounds = served.iter().map(|s| s.round + 1).max().unwrap_or(0);
    let (mut recovered, mut recover_ms, mut bytes, mut dirs) = (0usize, Vec::new(), 0u64, 0usize);
    for r in 0..rounds {
        for (k, planted) in planted.iter().enumerate() {
            let dir = persist_dir(work, r, k);
            let t = Instant::now();
            let (store, durable, _) = DurableStore::open(&space, &PersistConfig::new(&dir))
                .map_err(|e| format!("cannot reopen {}: {e}", dir.display()))?;
            recover_ms.push(ms_since(t));
            drop(durable);
            recovered += store.len();
            bytes += dir_bytes(&dir);
            dirs += 1;
            let mut problems: Vec<String> = check_outcomes(store.runs(), planted)
                .err()
                .into_iter()
                .collect();
            for s in served.iter().filter(|s| s.round == r && s.shape == k) {
                report.attempted += 1;
                tally.latencies_ms.push(s.parts_ms.iter().sum());
                let causes = match s
                    .report
                    .as_ref()
                    .map_err(Clone::clone)
                    .and_then(|t| parse_report(&space, t))
                {
                    Ok(causes) => causes,
                    Err(e) => {
                        report.failed += 1;
                        report
                            .notes
                            .push(format!("round {r} {}: {e}", SHAPES[k].name));
                        continue;
                    }
                };
                let verdict = judge(&space, &causes, store.runs(), planted);
                if verdict.unwitnessed > 0 {
                    problems.push(format!(
                        "{} asserted cause(s) match no failing run",
                        verdict.unwitnessed
                    ));
                }
                report.failed += u64::from(verdict.refuted > 0);
                tally.causes_recovered +=
                    brute_force_recovered(&instances, &causes, planted) as u64;
            }
            for p in problems {
                report.correct = false;
                report
                    .notes
                    .push(format!("round {r} {}: {p}", SHAPES[k].name));
            }
        }
    }
    let executed_here = totals.executed;
    if let Err(e) = check_recovered_count(recovered, executed_here as u64) {
        report.correct = false;
        report.notes.push(e);
    }
    tally.executions = executed_here as u64;
    // The daemon does not export virtual time; each execution of the
    // command pipeline costs 1 virtual second on one of WORKERS machines.
    tally.virtual_s = executed_here / WORKERS as f64;
    let harness_ms = ms_since(checked);

    if !opts.trace {
        report.metrics = tally.end_to_end();
        return Ok(report);
    }
    let n = report.attempted.max(1) as f64;
    let mean = |i: usize| served.iter().map(|s| s.parts_ms[i]).sum::<f64>() / n;
    layers.set("serve.session_ms", mean(0));
    layers.set("serve.spec_ms", mean(1));
    layers.set("serve.diagnose_ms", mean(2));
    if let Some((count, sum)) = totals.diagnose_ns {
        let server_ms = sum / count.max(1.0) / 1e6;
        layers.set("serve.diagnose_server_ms", server_ms);
        layers.set("serve.wire_ms", mean(2) - server_ms);
    }
    layers.set("serve.executors", median(&totals.executors));
    layers.set(
        "serve.shared_hit_ratio",
        served.iter().filter(|s| s.shared).count() as f64 / n,
    );
    layers.set("serve.daemon_cpu_ms", totals.daemon_cpu_ms / n);
    layers.set("serve.pipeline_cpu_ms", totals.pipeline_cpu_ms / n);
    layers.set("engine.new_executions", executed_here / n);
    if let Some(hits) = totals.hits {
        layers.set("engine.cache_hits", hits / n);
        if hits + executed_here > 0.0 {
            layers.set("engine.hit_ratio", hits / (hits + executed_here));
        }
    }
    if let Some((count, sum)) = totals.wal_append_ns {
        layers.set("store.wal_appends", count / n);
        layers.set("store.wal_append_ns", sum / count.max(1.0));
    }
    layers.set("store.recover_ms", median(&recover_ms));
    layers.set(
        "store.recovered_runs",
        recovered as f64 / dirs.max(1) as f64,
    );
    layers.set(
        "store.bytes_per_run",
        bytes as f64 / recovered.max(1) as f64,
    );
    let client_ms: f64 = served.iter().map(|s| s.parts_ms.iter().sum::<f64>()).sum();
    layers.set(
        "harness.self_ms",
        ((tally.wall_s * 1e3 * CONNECTIONS as f64 - client_ms).max(0.0) + harness_ms) / n,
    );
    for (c, tracer) in tracers.iter().enumerate() {
        let path = opts
            .out
            .join(format!("trace-served-subprocess-{}-c{c}.tsv", opts.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let (metrics, absent) = layers.metrics();
    report.metrics = metrics;
    report
        .notes
        .push(format!("absent on served-subprocess: {}", absent.join(" ")));
    Ok(report)
}
