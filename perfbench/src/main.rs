//! Wall-clock benchmark of the robustmap layers.
//!
//! ```text
//! perfbench --workload <select_sweep|serve_mixed|churn_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans-out <file>]
//! ```
//!
//! Drives the public library API from outside, as a user would: builds
//! the workload from the seed (set-up, timed), then runs the workload's
//! closed loop for `--seconds`, checking every output.  Prints one JSON
//! object of raw samples on its last stdout line; `run.py` turns it into
//! the benchmark's metrics.  With `--trace 1` it also records a span
//! around every call into a layer, keeps them in memory and writes them
//! to `--spans-out` (Chrome trace-event JSON) when it ends.

mod churn;
mod common;
mod serve;
mod sweep;

use std::process::ExitCode;

use common::{RunSpec, Tracer};

/// Environment knobs that change the program under measurement.
const REFUSED_ENV: [&str; 4] = [
    "ROBUSTMAP_BATCH_ROWS",
    "ROBUSTMAP_QUANTUM",
    "ROBUSTMAP_TRACE",
    "ROBUSTMAP_TRACE_DETAIL",
];

struct Args {
    workload: String,
    spec: RunSpec,
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut spans_out) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--spans-out" => spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        spec: RunSpec {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            threads: cores.min(2),
        },
        spans_out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: {var} is set; it changes the program under measurement");
        return ExitCode::from(2);
    }
    // Never touch the shared workload cache: without a directory of the
    // benchmark's own, caching is off.
    if std::env::var_os("ROBUSTMAP_WORKLOAD_CACHE").is_none() {
        std::env::set_var("ROBUSTMAP_WORKLOAD_CACHE", "off");
    }
    let run = match args.workload.as_str() {
        "select_sweep" => sweep::run,
        "serve_mixed" => serve::run,
        "churn_mixed" => churn::run,
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    // Before the workload, which may pin its thread to one CPU.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tracer = Tracer::new(args.spec.trace);
    let report = run(&args.spec, &mut tracer);
    if let Some(path) = &args.spans_out {
        if let Err(e) = std::fs::write(path, tracer.to_chrome_json()) {
            eprintln!("perfbench: writing spans to {path}: {e}");
            return ExitCode::from(1);
        }
    }
    let rss = common::peak_rss_mib();
    let params: Vec<String> = [
        ("cores_available", cores.to_string()),
        ("threads", args.spec.threads.to_string()),
        ("seed", args.spec.seed.to_string()),
        ("seconds", args.spec.seconds.to_string()),
        ("trace", (args.spec.trace as u8).to_string()),
    ]
    .iter()
    .chain(&report.params)
    .map(|(k, v)| format!("\"{k}\":\"{}\"", common::escape(v)))
    .collect();
    println!(
        "{{\"workload\":\"{}\",\"manifest\":{{{}}},\"raw\":{}}}",
        args.workload,
        params.join(","),
        report.to_json(rss)
    );
    ExitCode::SUCCESS
}
