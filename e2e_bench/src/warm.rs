//! `warm-history`: the large-history path. Set-up generates one wide
//! synthetic pipeline's durable history of [`HISTORY_RUNS`] runs and
//! persists it. Each diagnosis is a one-shot warm start: open the
//! directory (recovery), run the combined FindAll diagnosis, close (final
//! snapshot). New runs accumulate across the diagnoses of a round; every
//! round starts again from the persisted set-up history, so each round
//! makes the same diagnoses on the same histories.

use crate::checks::{check_growth, check_outcomes, judge};
use crate::common::{
    another_round, cpu_ms, dir_bytes, histogram_delta, median, ms_since, peak_rss_mb, Layers,
    Options, Report, Tally, SETUPS, WORKERS,
};
use crate::staged::traced_diagnosis;
use crate::trace::{TimedPipeline, Tracer};
use bugdoc_algorithms::{diagnose, BugDocConfig, DdtMode, Diagnosis, Strategy};
use bugdoc_core::{Conjunction, EvalResult, Outcome, ProvenanceStore};
use bugdoc_engine::{Executor, ExecutorConfig, PersistConfig, Pipeline};
use bugdoc_synth::{sample_instance, CauseScenario, SynthConfig, SyntheticPipeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Runs in the persisted history: twelve full 1024-run epochs, above the
/// provenance store's eight-epoch parallel fan-out threshold.
pub const HISTORY_RUNS: usize = 12 * 1024;

/// Share of history runs drawn from the failing region; the rest are
/// uniform over the space.
pub const FAILING_SHARE: f64 = 0.1;

/// Generator seed of the pipeline (the same pipeline in every run).
pub const PIPELINE_SEED: u64 = 5;

/// Diagnosis seeds of one round, in order.
pub const ROUND_SEEDS: [u64; 4] = [0, 1, 2, 3];

/// The pipeline: 15 parameters of 20 values, a disjunction of
/// conjunctions planted.
pub fn pipeline() -> Arc<SyntheticPipeline> {
    let config = SynthConfig {
        n_params: (15, 15),
        n_values: (20, 20),
        scenario: CauseScenario::DisjunctionOfConjunctions,
        ..SynthConfig::default()
    };
    Arc::new(SyntheticPipeline::generate(&config, PIPELINE_SEED))
}

/// The history: `HISTORY_RUNS` distinct runs drawn with `seed`.
pub fn history(pipe: &SyntheticPipeline, seed: u64) -> ProvenanceStore {
    let space = pipe.space().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = ProvenanceStore::new(space.clone());
    while store.len() < HISTORY_RUNS {
        let inst = if rng.gen_bool(FAILING_SHARE) {
            pipe.truth().sample_failing(&space, &mut rng)
        } else {
            sample_instance(&space, None, &[], &mut rng)
        }
        .expect("the planted condition leaves both outcomes reachable");
        let outcome = Outcome::from_check(!pipe.truth().fails(&inst));
        store.record(inst, EvalResult::of(outcome));
    }
    store
}

fn persist(dir: &Path) -> ExecutorConfig {
    ExecutorConfig {
        workers: WORKERS,
        persist: Some(PersistConfig {
            snapshot_every: Some(512),
            ..PersistConfig::new(dir)
        }),
        ..Default::default()
    }
}

/// Replaces `to` with a copy of the regular files of `from`.
fn restore(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("cannot read {}: {e}", from.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            let name = path.file_name().expect("a directory entry has a name");
            std::fs::copy(&path, to.join(name))
                .map_err(|e| format!("cannot copy {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// A one-shot warm start: open, diagnose, close. The closed executor is
/// returned so its history can be checked in place, outside the timing.
fn one_shot(
    pipe: Arc<dyn Pipeline>,
    dir: &Path,
    config: &BugDocConfig,
) -> Result<(Executor, Result<Diagnosis, String>), String> {
    let exec = Executor::try_new(pipe, persist(dir))
        .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    let diagnosis = diagnose(&exec, config).map_err(|e| e.to_string());
    exec.shutdown()
        .map_err(|e| format!("cannot close {}: {e}", dir.display()))?;
    Ok((exec, diagnosis))
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let pipe = pipeline();
    let planted: Vec<Conjunction> = pipe.truth().failure_dnf().conjuncts().to_vec();
    let pristine = opts.work.join("pristine");
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let mut generate_ms = Vec::new();
    for _ in 0..SETUPS {
        let _ = std::fs::remove_dir_all(&pristine);
        let t = Instant::now();
        let store = history(&pipe, opts.seed);
        generate_ms.push(ms_since(t));
        let exec = Executor::try_with_provenance(pipe.clone(), persist(&pristine), store)
            .map_err(|e| format!("cannot persist the history: {e}"))?;
        exec.shutdown()
            .map_err(|e| format!("cannot close the history: {e}"))?;
        tally.setup_s.push(t.elapsed().as_secs_f64());
    }
    layers.set("synth.generate_ms", median(&generate_ms));

    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let dir = opts.work.join("history");
    let traced_dir = opts.work.join("traced");
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let (mut reference_ms, mut staged_ms) = (Vec::new(), Vec::new());
    let mut harness_ms = 0.0;

    let cpu0 = cpu_ms("self").ok_or("cannot read /proc/self/stat")?.0;
    let started = Instant::now();
    while another_round(started, opts.seconds, tally.latencies_ms.len()) {
        let restored = Instant::now();
        restore(&pristine, &dir)?;
        if opts.trace {
            restore(&pristine, &traced_dir)?;
        }
        let mut expected_runs = HISTORY_RUNS;
        harness_ms += ms_since(restored);
        for seed in ROUND_SEEDS {
            let config = BugDocConfig::front_end(Strategy::Combined, DdtMode::FindAll, seed);
            let staged_first = opts.trace && report.attempted % 2 == 1;
            let mut staged = None;
            if staged_first {
                staged = Some(traced(
                    &pipe,
                    &traced_dir,
                    &config,
                    &mut tracer,
                    &mut layers,
                )?);
            }
            let t = Instant::now();
            let (exec, diagnosis) = one_shot(pipe.clone(), &dir, &config)?;
            let latency = ms_since(t);
            let checked = Instant::now();
            report.attempted += 1;
            tally.latencies_ms.push(latency);
            let d = match diagnosis {
                Ok(d) => d,
                Err(e) => {
                    report.failed += 1;
                    report
                        .notes
                        .push(format!("seed {seed}: diagnosis error: {e}"));
                    continue;
                }
            };
            let recovered = exec.recovery().map_or(0, |r| r.runs);
            let mut problems = Vec::new();
            if recovered != expected_runs {
                problems.push(format!(
                    "recovered {recovered} runs, {expected_runs} were closed"
                ));
            }
            let (runs, verdict) = exec.with_provenance_ref(|p| {
                problems.extend(check_growth(d.new_executions, recovered, p.len()).err());
                problems.extend(check_outcomes(p.runs(), &planted).err());
                (
                    p.len(),
                    judge(pipe.space(), d.causes.conjuncts(), p.runs(), &planted),
                )
            });
            if verdict.unwitnessed > 0 {
                problems.push(format!(
                    "{} asserted cause(s) match no failing run",
                    verdict.unwitnessed
                ));
            }
            for p in problems {
                report.correct = false;
                report.notes.push(format!("seed {seed}: {p}"));
            }
            expected_runs = runs;
            report.failed += u64::from(verdict.refuted > 0);
            tally.executions += d.new_executions as u64;
            tally.virtual_s += exec.stats().sim_time.secs();
            drop(exec);
            tally.causes_recovered += verdict.recovered as u64;
            harness_ms += ms_since(checked);

            if opts.trace {
                let staged = match staged {
                    Some(s) => s,
                    None => traced(&pipe, &traced_dir, &config, &mut tracer, &mut layers)?,
                };
                staged_ms.push(staged.1);
                reference_ms.push(latency);
                if staged.0.causes != d.causes || staged.0.new_executions != d.new_executions {
                    report.correct = false;
                    report.notes.push(format!(
                        "seed {seed}: staged diagnosis differs from diagnose"
                    ));
                }
            }
        }
    }
    tally.wall_s = started.elapsed().as_secs_f64();
    tally.cpu_ms = cpu_ms("self").ok_or("cannot read /proc/self/stat")?.0 - cpu0;
    tally.peak_rss_mb = peak_rss_mb("self").ok_or("cannot read /proc/self/status")?;
    if opts.trace {
        if let (Some(count), Some(sum)) = (
            layers.get("store.wal_appends"),
            layers.get("store.wal_append_ns"),
        ) {
            layers.set(
                "store.wal_append_ns",
                if count > 0.0 { sum / count } else { 0.0 },
            );
        }
        layers.average(
            &[
                "store.recover_ms",
                "store.recovered_runs",
                "store.snapshot_ms",
                "store.bytes_per_run",
                "store.wal_appends",
            ],
            report.attempted as f64,
        );
    }
    crate::common::finish(
        opts,
        "warm-history",
        report,
        tally,
        layers,
        tracer,
        &reference_ms,
        &staged_ms,
        harness_ms,
    )
}

/// The traced one-shot warm start on its own copy of the history: the
/// store layer timed around open and close, the diagnosis in stages.
/// Returns the staged result and the time of open + diagnose + close.
fn traced(
    pipe: &Arc<SyntheticPipeline>,
    dir: &Path,
    config: &BugDocConfig,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<(crate::staged::Staged, f64), String> {
    let timed = Arc::new(TimedPipeline::new(pipe.clone(), tracer.epoch()));
    tracer.next_diagnosis();
    let before = bugdoc_telemetry::render();
    let exec = tracer
        .span("store.recover", |_| {
            Executor::try_new(timed.clone(), persist(dir))
        })
        .map_err(|e| format!("cannot open {}: {e}", dir.display()))?;
    layers.add("store.recover_ms", tracer.total_ms("store.recover"));
    layers.add(
        "store.recovered_runs",
        exec.recovery().map_or(0, |r| r.runs) as f64,
    );
    let staged = traced_diagnosis(&exec, &timed, config, tracer, layers).map_err(|e| e.to_string());
    tracer
        .span("store.snapshot", |_| exec.shutdown())
        .map_err(|e| format!("cannot close {}: {e}", dir.display()))?;
    layers.add("store.snapshot_ms", tracer.total_ms("store.snapshot"));
    let runs = exec.with_provenance_ref(|p| p.len()).max(1);
    layers.add("store.bytes_per_run", dir_bytes(dir) as f64 / runs as f64);
    let after = bugdoc_telemetry::render();
    if let Some((count, sum)) = histogram_delta(&before, &after, "bugdoc_store_wal_append_ns") {
        layers.add("store.wal_appends", count);
        layers.add("store.wal_append_ns", sum);
    }
    let wall = tracer.total_ms("store.recover")
        + tracer.total_ms("diagnose")
        + tracer.total_ms("store.snapshot");
    Ok((staged?, wall))
}
