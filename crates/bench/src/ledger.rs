//! The rid-path charge ledger: every simulated charge of the fifteen-plan
//! two-predicate map, cell by cell, as a byte-comparable CSV.
//!
//! The map's plans cover every rid-ordering path of the executor: the
//! improved fetch's rid sort (System A), the merge intersection's two sorts
//! and the hash intersection's build/probe (System A), System B's bitmap
//! fetch and System C's covering plans.  A second section re-runs the two
//! hash-intersection plans under a grant small enough to force the grace
//! partitioning path.  Each line records the cell's simulated seconds as
//! raw `f64` bits, its full [`IoStats`](robustmap_storage::IoStats), its
//! result rows and whether it spilled, so any drift in any charge shows as
//! a byte difference.  Plan names contain commas and are quoted.
//!
//! `crates/bench/baselines/ledger_smoke.csv` is the committed ledger at
//! smoke scale (`--rows 16384 --grid 8`); `scripts/verify.sh` regenerates
//! it with the `ledger` binary and compares byte for byte.  Regenerate the
//! committed file only for a deliberate cost-model change.

use std::fmt::Write as _;

use robustmap_core::{build_map2d, Grid2D, Map2D, MeasureConfig};
use robustmap_systems::{two_predicate_plans, SystemId, TwoPredPlan};
use robustmap_workload::Workload;

use crate::harness::full_catalog;

/// Memory grant of the grace section: far below a smoke-scale build side,
/// so the hash intersections partition wherever a side holds more than
/// 1,024 rids.
const GRACE_MEMORY_BYTES: usize = 16 << 10;

/// The CSV header.
const HEADER: &str = "section,plan,sel_a,sel_b,seconds_bits,seq_reads,single_reads,\
                          random_reads,page_writes,buffer_hits,cpu_rows,cpu_compares,\
                          cpu_hashes,rows,spilled";

/// Measure the ledger over `w` on a `2^-grid_exp ..= 1` grid and render it.
pub fn rid_path_ledger(w: &Workload, grid_exp: u32) -> String {
    let grid = Grid2D::pow2(grid_exp);
    let map = build_map2d(w, &full_catalog(w), &grid, &MeasureConfig::default());
    let hash: Vec<TwoPredPlan> = two_predicate_plans(SystemId::A, w)
        .into_iter()
        .filter(|p| p.name.contains("hash"))
        .collect();
    let grace_cfg = MeasureConfig { memory_bytes: GRACE_MEMORY_BYTES, ..Default::default() };
    let grace = build_map2d(w, &hash, &grid, &grace_cfg);

    let mut out = String::new();
    writeln!(out, "{HEADER}").expect("writing to a String cannot fail");
    write_section(&mut out, "map", &map);
    write_section(&mut out, "grace", &grace);
    out
}

fn write_section(out: &mut String, section: &str, map: &Map2D) {
    let (na, nb) = map.dims();
    for (pi, plan) in map.plans.iter().enumerate() {
        for ia in 0..na {
            for ib in 0..nb {
                let m = map.get(pi, ia, ib);
                let io = &m.io;
                writeln!(
                    out,
                    "{section},\"{plan}\",{},{},{:016x},{},{},{},{},{},{},{},{},{},{}",
                    map.sel_a[ia],
                    map.sel_b[ib],
                    m.seconds.to_bits(),
                    io.seq_reads,
                    io.single_reads,
                    io.random_reads,
                    io.page_writes,
                    io.buffer_hits,
                    io.cpu_rows,
                    io.cpu_compares,
                    io.cpu_hashes,
                    m.rows,
                    m.spilled,
                )
                .expect("writing to a String cannot fail");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustmap_workload::{TableBuilder, WorkloadConfig};

    #[test]
    fn ledger_covers_every_plan_and_the_grace_path() {
        let w = TableBuilder::build(WorkloadConfig::with_rows(1 << 12));
        let csv = rid_path_ledger(&w, 2);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], HEADER);
        // Plan names hold commas ("A4 merge(a,b) intersect"), so they are
        // quoted; every line has the header's fields outside the quotes.
        let cols = HEADER.split(',').count();
        for l in &lines[1..] {
            let unquoted: String = l.split('"').step_by(2).collect();
            assert_eq!(unquoted.split(',').count(), cols, "{l}");
        }
        // 15 plans + 2 grace plans, 3x3 cells each.
        assert_eq!(lines.len() - 1, (15 + 2) * 9);
        let grace: Vec<&&str> = lines.iter().filter(|l| l.starts_with("grace,")).collect();
        assert_eq!(grace.len(), 2 * 9);
        assert!(grace.iter().any(|l| l.ends_with(",true")), "no grace cell spilled");
    }
}
