//! Each output check of the benchmark, fed a known-bad input, must fire;
//! fed the matching good input, it must stay quiet.

use bugdoc_core::{
    Comparator, Conjunction, EvalResult, Instance, Outcome, ParamSpace, Predicate, ProvenanceStore,
    Run,
};
use bugdoc_e2e_bench::checks::{
    all_instances, brute_force_recovered, brute_force_same, check_growth, check_outcomes,
    check_recovered_count, judge, parse_cause, parse_report, same_cause,
};
use bugdoc_e2e_bench::common::{median, tail, Report, END_TO_END, MIN_DIAGNOSES};
use bugdoc_e2e_bench::trace::covered_ns;
use bugdoc_engine::{Executor, ExecutorConfig, FnPipeline, PersistConfig, Pipeline};
use bugdoc_store::DurableStore;
use std::sync::Arc;

fn space() -> Arc<ParamSpace> {
    ParamSpace::builder()
        .ordinal("version", [1, 2, 3, 4])
        .categorical("estimator", ["lr", "dt", "gb"])
        .build()
}

fn inst(s: &ParamSpace, version: i64, estimator: &str) -> Instance {
    Instance::from_pairs(
        s,
        [("version", version.into()), ("estimator", estimator.into())],
    )
}

fn run(s: &ParamSpace, version: i64, estimator: &str, fails: bool) -> Run {
    Run {
        instance: inst(s, version, estimator),
        eval: EvalResult::of(Outcome::from_check(!fails)),
    }
}

/// Planted: estimator = gb.
fn planted(s: &ParamSpace) -> Vec<Conjunction> {
    vec![parse_cause(s, "estimator = gb").unwrap()]
}

#[test]
fn a_cause_a_succeeding_run_satisfies_is_refuted() {
    let s = space();
    let cause = parse_cause(&s, "version > 2").unwrap();
    let good_history = [run(&s, 3, "gb", true), run(&s, 1, "lr", false)];
    let v = judge(
        &s,
        std::slice::from_ref(&cause),
        &good_history,
        &planted(&s),
    );
    assert_eq!((v.refuted, v.unwitnessed), (0, 0));

    // The known fault: version = 4 ∧ estimator = lr succeeded, yet the
    // asserted cause `version > 2` covers it.
    let bad_history = [run(&s, 3, "gb", true), run(&s, 4, "lr", false)];
    let v = judge(&s, &[cause], &bad_history, &planted(&s));
    assert_eq!(v.refuted, 1);
}

#[test]
fn a_cause_no_failing_run_satisfies_is_unwitnessed() {
    let s = space();
    let cause = parse_cause(&s, "estimator = dt").unwrap();
    let v = judge(
        &s,
        &[cause],
        &[run(&s, 3, "gb", true), run(&s, 1, "lr", false)],
        &planted(&s),
    );
    assert_eq!(v.unwitnessed, 1);
}

#[test]
fn recovered_causes_are_compared_by_value_sets() {
    let s = space();
    // On the ordinal domain 1..4, `version ≤ 1` and `version = 1` select
    // the same instances; `version ≤ 2` does not.
    let le1 = parse_cause(&s, "version ≤ 1").unwrap();
    let eq1 = parse_cause(&s, "version = 1").unwrap();
    let le2 = parse_cause(&s, "version ≤ 2").unwrap();
    assert!(same_cause(&s, &le1, &eq1));
    assert!(!same_cause(&s, &le1, &le2));
    let all = all_instances(&s);
    assert_eq!(all.len(), 12);
    assert!(brute_force_same(&all, &le1, &eq1));
    assert!(!brute_force_same(&all, &le1, &le2));
    let gb = parse_cause(&s, "estimator = gb").unwrap();
    let not_lr_dt = Conjunction::new(vec![
        Predicate::new(s.by_name("estimator").unwrap(), Comparator::Neq, "lr"),
        Predicate::new(s.by_name("estimator").unwrap(), Comparator::Neq, "dt"),
    ]);
    assert_eq!(
        brute_force_recovered(&all, &[not_lr_dt.clone(), le2], &planted(&s)),
        1
    );
    let v = judge(
        &s,
        &[not_lr_dt, gb],
        &[run(&s, 2, "gb", true)],
        &planted(&s),
    );
    assert_eq!(v.recovered, 2);
}

#[test]
fn a_wrong_persisted_outcome_is_caught() {
    let s = space();
    assert!(check_outcomes(
        &[run(&s, 1, "gb", true), run(&s, 1, "lr", false)],
        &planted(&s)
    )
    .is_ok());

    // A pipeline that lies about one instance, persisted and reopened.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrong-outcome");
    let _ = std::fs::remove_dir_all(&dir);
    let lie = inst(&s, 2, "lr");
    let pipe: Arc<dyn Pipeline> = Arc::new(FnPipeline::new(s.clone(), {
        let s = s.clone();
        move |i: &Instance| {
            let fails = i.get(s.by_name("estimator").unwrap()) == &"gb".into() || *i == lie;
            EvalResult::of(Outcome::from_check(!fails))
        }
    }));
    let exec = Executor::new(
        pipe,
        ExecutorConfig {
            workers: 1,
            persist: Some(PersistConfig::new(&dir)),
            ..Default::default()
        },
    );
    for i in all_instances(&s) {
        exec.evaluate(&i).unwrap();
    }
    exec.shutdown().unwrap();
    drop(exec);
    let (store, durable, _) = DurableStore::open(&s, &PersistConfig::new(&dir)).unwrap();
    drop(durable);
    assert_eq!(store.len(), 12);
    let err = check_outcomes(store.runs(), &planted(&s)).unwrap_err();
    assert!(err.contains("Fail"), "{err}");
    check_recovered_count(store.len(), 12).unwrap();
}

#[test]
fn run_count_mismatches_are_caught() {
    assert!(check_recovered_count(12, 12).is_ok());
    assert!(check_recovered_count(11, 12).is_err());
    assert!(check_recovered_count(13, 12).is_err());
    assert!(check_growth(3, 10, 13).is_ok());
    assert!(check_growth(3, 10, 12).is_err());
    assert!(check_growth(3, 10, 9).is_err());
}

#[test]
fn reports_parse_back_into_causes() {
    let s = space();
    let mut store = ProvenanceStore::new(s.clone());
    store.record(inst(&s, 1, "gb"), EvalResult::of(Outcome::Fail));
    let causes = [
        parse_cause(&s, "version > 2 ∧ estimator ≠ lr").unwrap(),
        parse_cause(&s, "estimator = gb").unwrap(),
    ];
    let text = format!(
        "minimal definitive root cause(s):\n  {}\n  {}\n",
        causes[0].display(&s),
        causes[1].display(&s)
    );
    assert_eq!(parse_report(&s, &text).unwrap(), causes.to_vec());
    assert!(parse_report(&s, "no definitive root cause asserted\n")
        .unwrap()
        .is_empty());
    assert!(parse_report(&s, "garbage\n").is_err());
    assert!(parse_report(&s, "minimal definitive root cause(s):\n  colour = red\n").is_err());
}

#[test]
fn the_tail_needs_forty_samples() {
    let xs: Vec<f64> = (1..=MIN_DIAGNOSES).map(|i| i as f64).collect();
    assert_eq!(tail(&xs[..MIN_DIAGNOSES - 1]), None);
    // Ten samples (31..=40) lie beyond the reported one.
    assert_eq!(tail(&xs), Some(30.0));
    assert_eq!(median(&xs), 20.5);
}

#[test]
fn overlapping_spans_are_covered_once() {
    assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 30), (30, 30)]), 25);
    assert_eq!(covered_ns(Vec::new()), 0);
}

#[test]
fn the_result_line_has_exactly_the_four_keys() {
    let report = Report {
        correct: true,
        attempted: 24,
        failed: 4,
        metrics: END_TO_END
            .iter()
            .map(|&(name, unit)| bugdoc_e2e_bench::common::Metric {
                name,
                value: 1.25,
                unit,
            })
            .collect(),
        notes: vec!["not printed on this line".into()],
    };
    let line = report.to_json();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 24, \"failed\": 4, \"metrics\": {")
    );
    assert!(line.contains("\"diagnose_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}"));
    assert!(!line.contains("not printed"));
}
