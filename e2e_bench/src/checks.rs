//! Output checks that do not rely on the program's own answers.
//!
//! Causes are evaluated here from their predicates and the raw values (no
//! `satisfied_by`, no canonical forms, no provenance index), histories are
//! scanned run by run, and a planted condition is compared with an asserted
//! cause value by value. Every check runs outside the timed intervals.

use bugdoc_core::{Comparator, Conjunction, Instance, ParamSpace, Predicate, Run, Value};

/// Whether the value `v` satisfies the triple `p`.
pub fn holds(p: &Predicate, v: &Value) -> bool {
    match p.cmp {
        Comparator::Eq => v == &p.value,
        Comparator::Neq => v != &p.value,
        Comparator::Le => v <= &p.value,
        Comparator::Gt => v > &p.value,
    }
}

/// Whether the instance satisfies every triple of `c`.
pub fn satisfies(c: &Conjunction, instance: &Instance) -> bool {
    c.predicates()
        .iter()
        .all(|p| holds(p, &instance.values()[p.param.index()]))
}

/// What the checks found about one diagnosis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Asserted causes that a succeeding run of the history satisfies:
    /// the known fault, counted as a failed diagnosis.
    pub refuted: usize,
    /// Asserted causes that no failing run of the history satisfies: a
    /// wrong answer, which makes the run incorrect.
    pub unwitnessed: usize,
    /// Asserted causes equal to a planted cause.
    pub recovered: usize,
}

/// Judges the causes of one diagnosis against the history it ran on (by a
/// plain scan of its runs) and against the planted causes.
pub fn judge(
    space: &ParamSpace,
    causes: &[Conjunction],
    runs: &[Run],
    planted: &[Conjunction],
) -> Verdict {
    let mut v = Verdict::default();
    for c in causes {
        let mut failing = false;
        let mut succeeding = false;
        for r in runs {
            if satisfies(c, &r.instance) {
                if r.outcome().is_fail() {
                    failing = true;
                } else {
                    succeeding = true;
                }
            }
            if failing && succeeding {
                break;
            }
        }
        v.refuted += usize::from(succeeding);
        v.unwitnessed += usize::from(!failing);
        v.recovered += usize::from(planted.iter().any(|p| same_cause(space, c, p)));
    }
    v
}

/// The values of each parameter a conjunction allows.
fn allowed(space: &ParamSpace, c: &Conjunction) -> Vec<Vec<bool>> {
    space
        .ids()
        .map(|id| {
            space
                .domain(id)
                .values()
                .iter()
                .map(|v| {
                    c.predicates()
                        .iter()
                        .filter(|p| p.param == id)
                        .all(|p| holds(p, v))
                })
                .collect()
        })
        .collect()
}

/// Whether two conjunctions select the same instances: equal allowed
/// values on every parameter, or both empty.
pub fn same_cause(space: &ParamSpace, a: &Conjunction, b: &Conjunction) -> bool {
    let (ma, mb) = (allowed(space, a), allowed(space, b));
    let empty = |m: &[Vec<bool>]| m.iter().any(|vals| !vals.contains(&true));
    if empty(&ma) || empty(&mb) {
        return empty(&ma) && empty(&mb);
    }
    ma == mb
}

/// Every instance of a small space, in row-major order of domain indices.
pub fn all_instances(space: &ParamSpace) -> Vec<Instance> {
    let domains: Vec<&[Value]> = space.ids().map(|id| space.domain(id).values()).collect();
    let mut out = vec![Vec::new()];
    for d in domains {
        out = out
            .into_iter()
            .flat_map(|prefix: Vec<Value>| {
                d.iter().map(move |v| {
                    let mut next = prefix.clone();
                    next.push(v.clone());
                    next
                })
            })
            .collect();
    }
    out.into_iter().map(Instance::new).collect()
}

/// Whether two causes select the same instances, by evaluating both on
/// every instance of the space.
pub fn brute_force_same(instances: &[Instance], a: &Conjunction, b: &Conjunction) -> bool {
    instances.iter().all(|i| satisfies(a, i) == satisfies(b, i))
}

/// The number of `asserted` causes equal, by brute force, to some planted
/// cause.
pub fn brute_force_recovered(
    instances: &[Instance],
    asserted: &[Conjunction],
    planted: &[Conjunction],
) -> usize {
    asserted
        .iter()
        .filter(|a| planted.iter().any(|p| brute_force_same(instances, a, p)))
        .count()
}

/// A diagnosis adds exactly its new executions to the history.
pub fn check_growth(
    new_executions: usize,
    runs_before: usize,
    runs_after: usize,
) -> Result<(), String> {
    if runs_after.checked_sub(runs_before) == Some(new_executions) {
        Ok(())
    } else {
        Err(format!(
            "history grew from {runs_before} to {runs_after} runs, but the diagnosis reports {new_executions} new executions"
        ))
    }
}

/// Every persisted outcome equals the planted condition evaluated here.
pub fn check_outcomes(runs: &[Run], planted: &[Conjunction]) -> Result<(), String> {
    for (i, r) in runs.iter().enumerate() {
        let fails = planted.iter().any(|c| satisfies(c, &r.instance));
        if fails != r.outcome().is_fail() {
            return Err(format!(
                "persisted run {i} is recorded as {:?}, but the planted condition says {}",
                r.outcome(),
                if fails { "fail" } else { "succeed" }
            ));
        }
    }
    Ok(())
}

/// The runs recovered from disk are exactly the runs executed.
pub fn check_recovered_count(recovered: usize, executed: u64) -> Result<(), String> {
    if recovered as u64 == executed {
        Ok(())
    } else {
        Err(format!(
            "{recovered} runs recovered from disk, but {executed} were executed"
        ))
    }
}

/// Parses a cause as rendered in a report, `name op value [∧ ...]`, with
/// values parsed the way the spec parser reads them.
pub fn parse_cause(space: &ParamSpace, text: &str) -> Result<Conjunction, String> {
    let text = text.trim();
    if text == "⊤" {
        return Ok(Conjunction::top());
    }
    let mut preds = Vec::new();
    for triple in text.split(" ∧ ") {
        let parts: Vec<&str> = triple.split_whitespace().collect();
        let [name, op, value] = parts[..] else {
            return Err(format!("malformed triple {triple:?}"));
        };
        let param = space
            .by_name(name)
            .ok_or_else(|| format!("unknown parameter {name:?}"))?;
        let cmp = match op {
            "=" => Comparator::Eq,
            "≠" => Comparator::Neq,
            "≤" => Comparator::Le,
            ">" => Comparator::Gt,
            other => return Err(format!("unknown comparator {other:?}")),
        };
        preds.push(Predicate::new(
            param,
            cmp,
            bugdoc_cli::spec::parse_value(value),
        ));
    }
    Ok(Conjunction::new(preds))
}

/// Parses the cause section of a served report.
pub fn parse_report(space: &ParamSpace, report: &str) -> Result<Vec<Conjunction>, String> {
    let mut lines = report.lines();
    match lines.next().map(str::trim) {
        Some("no definitive root cause asserted") => Ok(Vec::new()),
        Some("minimal definitive root cause(s):") => lines
            .filter(|l| !l.trim().is_empty())
            .map(|l| parse_cause(space, l))
            .collect(),
        other => Err(format!("unexpected report head {other:?}")),
    }
}
