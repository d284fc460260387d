//! `e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--bugdoc <path>]`: runs one workload and prints its result as one JSON
//! object on the last line of standard output. Exits 1, printing no
//! result, when the workload cannot run.

use bugdoc_e2e_bench::common::Options;
use std::path::PathBuf;

fn parse(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 0,
        seconds: 10.0,
        trace: false,
        bugdoc: None,
        work: PathBuf::from(".bench_work"),
        out: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--bugdoc" => opts.bugdoc = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    opts.work = opts.work.join(format!("{workload}-{}", std::process::id()));
    Ok((workload, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|(workload, opts)| {
        std::fs::create_dir_all(&opts.work)
            .map_err(|e| format!("cannot create {}: {e}", opts.work.display()))?;
        let report = bugdoc_e2e_bench::run(&workload, &opts);
        let _ = std::fs::remove_dir_all(&opts.work);
        report
    });
    match result {
        Ok(report) => {
            for note in &report.notes {
                eprintln!("e2e-bench: {note}");
            }
            println!("{}", report.to_json());
        }
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            std::process::exit(1);
        }
    }
}
