//! End-to-end diagnosis benchmark for BugDoc: three workloads that drive
//! the program through its public functions and the shipped `bugdoc serve`
//! daemon, check every output, and report end-to-end metrics (untraced
//! run) or per-layer metrics (traced run). See README.md.

pub mod checks;
pub mod cold;
pub mod common;
pub mod served;
pub mod staged;
pub mod trace;
pub mod warm;

use common::{Options, Report};

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["cold-synthetic", "warm-history", "served-subprocess"];

/// Runs one workload.
pub fn run(workload: &str, opts: &Options) -> Result<Report, String> {
    match workload {
        "cold-synthetic" => cold::run(opts),
        "warm-history" => warm::run(opts),
        "served-subprocess" => served::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}
