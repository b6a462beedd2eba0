//! Write the rid-path charge ledger (see `robustmap_bench::ledger`).
//!
//! ```text
//! cargo run --release -p robustmap-bench --bin ledger -- --out target/ledger_smoke.csv
//! cargo run --release -p robustmap-bench --bin ledger -- --rows 65536 --grid 10
//! ```
//!
//! Defaults to the committed smoke scale (`--rows 16384 --grid 8`) and
//! writes to stdout unless `--out` is given.

use robustmap_bench::ledger::rid_path_ledger;
use robustmap_bench::HarnessConfig;
use robustmap_workload::{TableBuilder, WorkloadConfig};

const USAGE: &str = "usage: ledger [--rows N] [--grid EXP] [--out PATH]";

fn main() {
    let mut config = HarnessConfig { rows: 1 << 14, grid_exp: 8, ..Default::default() };
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rows" => {
                config.rows = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--rows needs a number"));
            }
            "--grid" => {
                config.grid_exp = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--grid needs an exponent"));
            }
            "--out" => out = Some(args.next().unwrap_or_else(|| die("--out needs a path"))),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    if let Err(msg) = config.validate() {
        die(&msg);
    }
    let w = TableBuilder::build_cached(WorkloadConfig::with_rows(config.rows));
    let csv = rid_path_ledger(&w, config.grid_exp);
    match out {
        Some(path) => std::fs::write(&path, csv).unwrap_or_else(|e| die(&format!("{path}: {e}"))),
        None => print!("{csv}"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}
