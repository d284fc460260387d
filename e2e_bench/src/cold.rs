//! `cold-synthetic`: the paper's own traffic (§5.1). A fixed set of
//! synthetic pipelines cycling through the three cause shapes at paper
//! ranges, each diagnosed once per round from a tiny seeded history with
//! the front-end configuration and the in-memory pipeline.
//!
//! The set does not depend on `--seed`; the seed orders each round. Every
//! diagnosis is independent of the others (a fresh executor over the same
//! two-run history), so the failed share is the same in every run.

use crate::checks::{check_growth, judge};
use crate::common::{
    another_round, cpu_ms, ms_since, peak_rss_mb, Layers, Options, Report, Tally, WORKERS,
};
use crate::staged::{traced_diagnosis, Staged};
use crate::trace::{TimedPipeline, Tracer};
use bugdoc_algorithms::{diagnose, BugDocConfig, DdtMode, Strategy};
use bugdoc_core::{Conjunction, EvalResult, Instance, ProvenanceStore};
use bugdoc_engine::{Executor, ExecutorConfig, Pipeline};
use bugdoc_synth::{CauseScenario, SynthConfig, SyntheticPipeline};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Pipelines per round, eight of each cause shape.
pub const PIPELINES: u64 = 24;

/// Set-ups per run. Generating the set takes about 2 ms, so the median
/// of many is needed for a steady `setup_s`.
const SETUPS: usize = 15;

/// Generator seed of pipeline `i` is `GENERATOR_BASE + i`.
pub const GENERATOR_BASE: u64 = 1000;

/// One pipeline with its seeded history and planted causes.
pub struct Case {
    pub pipeline: Arc<SyntheticPipeline>,
    pub history: Vec<(Instance, EvalResult)>,
    pub planted: Vec<Conjunction>,
    pub config: BugDocConfig,
}

impl Case {
    fn executor(&self, pipe: Arc<dyn Pipeline>) -> Executor {
        let mut store = ProvenanceStore::new(self.pipeline.space().clone());
        for (inst, eval) in &self.history {
            store.record(inst.clone(), *eval);
        }
        Executor::with_provenance(
            pipe,
            ExecutorConfig {
                workers: WORKERS,
                ..Default::default()
            },
            store,
        )
    }
}

/// Generates the fixed pipeline set with one failing and one succeeding
/// run of history each.
pub fn generate() -> Vec<Case> {
    let shapes = [
        CauseScenario::SingleTriple,
        CauseScenario::SingleConjunction,
        CauseScenario::DisjunctionOfConjunctions,
    ];
    (0..PIPELINES)
        .map(|i| {
            let config = SynthConfig {
                scenario: shapes[(i % 3) as usize],
                ..SynthConfig::default()
            };
            let pipeline = Arc::new(SyntheticPipeline::generate(&config, GENERATOR_BASE + i));
            let history = pipeline.seed_history(1, 1, GENERATOR_BASE + i);
            let planted = pipeline.truth().failure_dnf().conjuncts().to_vec();
            Case {
                pipeline,
                history,
                planted,
                config: BugDocConfig::front_end(Strategy::Combined, DdtMode::FindAll, i),
            }
        })
        .collect()
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let mut cases = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        cases = generate();
        tally.setup_s.push(t.elapsed().as_secs_f64());
    }
    layers.set(
        "synth.generate_ms",
        crate::common::median(&tally.setup_s) * 1e3,
    );
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut tracer = Tracer::new(Instant::now());
    let mut reference_ms = Vec::new();
    let mut staged_ms = Vec::new();
    let mut harness_ms = 0.0;
    let mut faulty = std::collections::BTreeMap::new();

    let cpu0 = cpu_ms("self").ok_or("cannot read /proc/self/stat")?.0;
    let started = Instant::now();
    while another_round(started, opts.seconds, tally.latencies_ms.len()) {
        order.shuffle(&mut rng);
        for &i in &order {
            let case = &cases[i];
            // The traced run alternates which of the two goes first, so
            // neither always runs with warm caches.
            let mut staged = None;
            if opts.trace && report.attempted % 2 == 1 {
                staged = Some(
                    traced(case, &mut tracer, &mut layers)
                        .map_err(|e| format!("pipeline {i}: {e}"))?,
                );
            }
            let t = Instant::now();
            let exec = case.executor(case.pipeline.clone());
            let called = Instant::now();
            let outcome = diagnose(&exec, &case.config);
            let diagnose_ms = ms_since(called);
            let latency = ms_since(t);
            let checked = Instant::now();
            report.attempted += 1;
            tally.latencies_ms.push(latency);
            let d = match outcome {
                Ok(d) => d,
                Err(e) => {
                    report.failed += 1;
                    report
                        .notes
                        .push(format!("pipeline {i}: diagnosis error: {e}"));
                    continue;
                }
            };
            let runs = exec.runs();
            if let Err(e) = check_growth(d.new_executions, case.history.len(), runs.len()) {
                report.correct = false;
                report.notes.push(format!("pipeline {i}: {e}"));
            }
            let causes = d.causes.conjuncts();
            let verdict = judge(case.pipeline.space(), causes, &runs, &case.planted);
            if verdict.unwitnessed > 0 {
                report.correct = false;
                report.notes.push(format!(
                    "pipeline {i}: {} asserted cause(s) match no failing run",
                    verdict.unwitnessed
                ));
            }
            report.failed += u64::from(verdict.refuted > 0);
            if verdict.refuted > 0 && !faulty.contains_key(&i) {
                // Where the refuted causes came from, counted on the first
                // round: Stacked Shortcut's cause or DDT's confirmed ones.
                let stacked: Vec<_> = d.stacked_cause.iter().cloned().collect();
                let ddt = d.ddt_causes.as_ref().map_or(&[][..], |c| c.conjuncts());
                let refuted = |causes: &[Conjunction]| {
                    judge(case.pipeline.space(), causes, &runs, &[]).refuted
                };
                faulty.insert(i, (refuted(&stacked), refuted(ddt)));
            }
            tally.executions += d.new_executions as u64;
            tally.virtual_s += exec.stats().sim_time.secs();
            tally.causes_recovered += verdict.recovered as u64;

            harness_ms += ms_since(checked);
            if opts.trace {
                let staged = match staged {
                    Some(s) => s,
                    None => traced(case, &mut tracer, &mut layers)
                        .map_err(|e| format!("pipeline {i}: {e}"))?,
                };
                staged_ms.push(staged.1);
                reference_ms.push(diagnose_ms);
                let staged = staged.0;
                if staged.causes != d.causes || staged.new_executions != d.new_executions {
                    report.correct = false;
                    report.notes.push(format!(
                        "pipeline {i}: staged diagnosis differs from diagnose"
                    ));
                }
            }
        }
    }
    tally.wall_s = started.elapsed().as_secs_f64();
    if !faulty.is_empty() {
        let ids: Vec<String> = faulty.keys().map(|i| i.to_string()).collect();
        report.notes.push(format!(
            "known fault: the diagnoses of pipelines {} (of 0..{PIPELINES}) assert causes that a succeeding run of their history satisfies: {} from Stacked Shortcut, {} from DDT",
            ids.join(" "),
            faulty.values().map(|v| v.0).sum::<usize>(),
            faulty.values().map(|v| v.1).sum::<usize>(),
        ));
    }
    tally.cpu_ms = cpu_ms("self").ok_or("cannot read /proc/self/stat")?.0 - cpu0;
    tally.peak_rss_mb = peak_rss_mb("self").ok_or("cannot read /proc/self/status")?;
    crate::common::finish(
        opts,
        "cold-synthetic",
        report,
        tally,
        layers,
        tracer,
        &reference_ms,
        &staged_ms,
        harness_ms,
    )
}

/// The staged diagnosis of one case on its own executor over the timing
/// wrapper; returns its result and the time of the staged diagnosis.
fn traced(case: &Case, tracer: &mut Tracer, layers: &mut Layers) -> Result<(Staged, f64), String> {
    let pipe = Arc::new(TimedPipeline::new(case.pipeline.clone(), tracer.epoch()));
    let exec = case.executor(pipe.clone());
    tracer.next_diagnosis();
    let staged = traced_diagnosis(&exec, &pipe, &case.config, tracer, layers)
        .map_err(|e| format!("staged diagnosis error: {e}"))?;
    Ok((staged, tracer.total_ms("diagnose")))
}
