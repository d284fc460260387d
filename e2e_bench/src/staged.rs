//! The combined diagnosis, called stage by stage so each stage can be timed
//! from outside, and the per-layer probes that run after it.
//!
//! [`staged_diagnose`] calls `stacked_shortcut`, `debugging_decision_trees`
//! and `minimize_dnf` in the order `diagnose` uses for
//! `Strategy::Combined`. The traced run checks that its result equals
//! `diagnose`'s own on the same history.

use crate::common::{add_counter, Layers};
use crate::trace::{TimedPipeline, Tracer};
use bugdoc_algorithms::{
    debugging_decision_trees, stacked_shortcut, AlgoError, BugDocConfig, DdtConfig,
};
use bugdoc_core::{CanonicalCause, Conjunction, Dnf};
use bugdoc_dtree::{DecisionTree, TreeConfig};
use bugdoc_engine::Executor;

/// The result of a staged diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct Staged {
    pub causes: Dnf,
    pub new_executions: usize,
}

/// The combined diagnosis in stages, each inside a span.
pub fn staged_diagnose(
    exec: &Executor,
    config: &BugDocConfig,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Staged, AlgoError> {
    let space = exec.space();
    let runs_before = exec.with_provenance_ref(|p| p.len());
    let root = tracer.enter("diagnose");
    let mut collected: Vec<Conjunction> = Vec::new();
    let stacked = tracer.span("algorithms.stacked", |_| {
        stacked_shortcut(exec, &config.stacked)
    });
    match stacked {
        Ok(report) => collected.extend(report.cause),
        Err(AlgoError::NoSucceedingInstance | AlgoError::NoFailingInstance) => {}
        Err(e) => {
            tracer.exit(root);
            return Err(e);
        }
    }
    let ddt_config = DdtConfig {
        mode: config.mode,
        ..config.ddt.clone()
    };
    let ddt = tracer.span("algorithms.ddt", |_| {
        debugging_decision_trees(exec, &ddt_config)
    });
    let report = match ddt {
        Ok(report) => report,
        Err(e) => {
            tracer.exit(root);
            return Err(e);
        }
    };
    layers.add("algorithms.ddt_rebuilds", report.rebuilds as f64);
    collected.extend(report.causes.conjuncts().iter().cloned());

    let mut seen: Vec<CanonicalCause> = Vec::new();
    let mut unique: Vec<Conjunction> = Vec::new();
    for c in collected {
        let canon = c.canonicalize(&space);
        if !canon.is_unsatisfiable() && !seen.contains(&canon) {
            seen.push(canon);
            unique.push(c);
        }
    }
    let mut causes = Dnf::new(unique);
    if causes.len() > 1 {
        causes = tracer.span("qm.minimize", |_| bugdoc_qm::minimize_dnf(&space, &causes));
    }
    tracer.exit(root);
    let runs_after = exec.with_provenance_ref(|p| p.len());
    Ok(Staged {
        causes,
        new_executions: runs_after - runs_before,
    })
}

/// Runs [`staged_diagnose`] on an executor over `pipe` and records every
/// per-layer number the in-process workloads reach: engine counters and
/// executions, stage times and self time, and a decision-tree fit and
/// support queries on the final history.
pub fn traced_diagnosis(
    exec: &Executor,
    pipe: &TimedPipeline,
    config: &BugDocConfig,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<Staged, AlgoError> {
    pipe.drain();
    let before = exec.stats();
    let staged = staged_diagnose(exec, config, tracer, layers)?;
    let after = exec.stats();
    for (metric, counter) in [
        ("engine.new_executions", "new_executions"),
        ("engine.cache_hits", "cache_hits"),
        ("core.epochs_scanned", "epochs_scanned"),
        ("core.parallel_epoch_queries", "parallel_epoch_queries"),
        ("core.bounds_pruned_subtrees", "bounds_pruned_subtrees"),
        ("core.bounds_short_circuits", "bounds_short_circuits"),
        ("core.bounds_fallthroughs", "bounds_fallthroughs"),
    ] {
        add_counter(layers, metric, counter, &before, &after);
    }
    let seen = pipe.drain();
    layers.add("engine.worker_threads", seen.threads.len() as f64);
    tracer.adopt(
        "engine.execute",
        &seen.intervals,
        &["algorithms.stacked", "algorithms.ddt"],
    );
    layers.add(
        "engine.pipeline_execute_ms",
        tracer.total_ms("engine.execute"),
    );
    layers.add(
        "algorithms.stacked_ms",
        tracer.total_ms("algorithms.stacked"),
    );
    layers.add("algorithms.ddt_ms", tracer.total_ms("algorithms.ddt"));
    layers.add("qm.minimize_ms", tracer.total_ms("qm.minimize"));
    layers.add(
        "algorithms.self_ms",
        tracer.self_ms("algorithms.stacked")
            + tracer.self_ms("algorithms.ddt")
            + tracer.self_ms("diagnose"),
    );

    // The decision tree DDT fits, refitted once on the final history.
    let space = exec.space();
    let rows: Vec<_> = exec.with_provenance_ref(|p| {
        p.runs()
            .iter()
            .map(|r| {
                (
                    r.instance.clone(),
                    if r.outcome().is_fail() { 1.0 } else { 0.0 },
                )
            })
            .collect()
    });
    layers.add("core.provenance_runs", rows.len() as f64);
    let tree = tracer.span("dtree.fit", |_| {
        DecisionTree::fit(&space, &rows, &TreeConfig::default())
    });
    layers.add("dtree.fit_ms", tracer.total_ms("dtree.fit"));
    layers.add("dtree.leaves", tree.n_leaves() as f64);

    // Support queries of the asserted causes on the final history.
    let causes = staged.causes.conjuncts();
    if !causes.is_empty() {
        tracer.span("core.support", |_| {
            exec.with_provenance_ref(|p| {
                for c in causes {
                    std::hint::black_box(p.support(c));
                }
            })
        });
        layers.add(
            "core.support_us",
            tracer.total_ms("core.support") * 1e3 / causes.len() as f64,
        );
    }
    Ok(staged)
}
