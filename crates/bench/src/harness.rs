//! Shared harness state: the workload (served from the workload cache),
//! measurement config, lazily built maps (several figures share the System
//! A map, and the System A map itself is carved out of the all-systems map
//! when both are needed), and artifact output.

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use robustmap_core::{build_map1d, build_map2d, Grid1D, Grid2D, Map1D, Map2D, MeasureConfig};
use robustmap_systems::{
    single_predicate_plans, two_predicate_plans, SinglePredPlanSet, SystemId, TwoPredPlan,
};
use robustmap_workload::gen::MIN_ROWS;
use robustmap_workload::{TableBuilder, Workload, WorkloadConfig};

/// Harness scale parameters.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Table rows (paper: 60M; default here: 2^20, recorded in
    /// `docs/EXPERIMENTS.md`).
    pub rows: u64,
    /// Grid exponent: axes run `2^-grid_exp ..= 1` in factor-2 steps.
    pub grid_exp: u32,
    /// Where CSV/SVG artifacts go.
    pub out_dir: PathBuf,
    /// Measurement conditions.
    pub measure: MeasureConfig,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            rows: 1 << 20,
            grid_exp: 16,
            out_dir: PathBuf::from("target/figures"),
            measure: MeasureConfig::default(),
        }
    }
}

impl HarnessConfig {
    /// Reject scales the harness cannot sweep: a table below the
    /// generator's minimum, or a grid whose smallest selectivity
    /// `2^-grid_exp` selects under one row (its low cells would all be
    /// empty).  Checked at the command-line edge, before any build.
    pub fn validate(&self) -> Result<(), String> {
        if self.rows < MIN_ROWS {
            return Err(format!("--rows must be at least {MIN_ROWS}, got {}", self.rows));
        }
        if self.grid_exp >= u64::BITS || self.rows >> self.grid_exp == 0 {
            return Err(format!(
                "--grid {} is too fine for {} rows: selectivity 2^-{} selects under one row",
                self.grid_exp, self.rows, self.grid_exp
            ));
        }
        Ok(())
    }
}

/// One regenerated figure: its printed report, written artifact files, and
/// how long the regeneration took.
#[derive(Debug, Clone)]
pub struct FigureOutput {
    /// Figure id, e.g. `"fig7"`.
    pub name: String,
    /// The text the harness prints (series, landmarks, statistics).
    pub report: String,
    /// Paths of artifacts written (CSV, SVG).
    pub files: Vec<PathBuf>,
    /// Real (wall clock) seconds the sweep + rendering took, filled in by
    /// [`crate::run_figure`] — the number `BENCH_*.json` trajectories track.
    pub wall_seconds: f64,
}

impl FigureOutput {
    /// A figure output with the wall time still unset (the runner stamps
    /// it).
    pub fn new(name: &str, report: String, files: Vec<PathBuf>) -> Self {
        FigureOutput { name: name.to_string(), report, files, wall_seconds: 0.0 }
    }
}

/// All fifteen two-predicate plans of the three systems, in system order.
pub(crate) fn full_catalog(w: &Workload) -> Vec<TwoPredPlan> {
    SystemId::all().into_iter().flat_map(|s| two_predicate_plans(s, w)).collect()
}

/// Workload + caches shared by all figure functions.
pub struct Harness {
    /// The built workload.
    pub w: Workload,
    /// Scale parameters.
    pub config: HarnessConfig,
    map_a: RefCell<Option<Map2D>>,
    map_all: RefCell<Option<Map2D>>,
    map1_basic: RefCell<Option<Map1D>>,
    want_all_systems: Cell<bool>,
}

/// Figure ids that need the fifteen-plan all-systems map.  When a run will
/// touch any of these *and* a System-A-only figure, the harness builds the
/// all-systems map once and carves the System A map out of it instead of
/// sweeping the same seven plans twice (cell measurements are independent,
/// so the subset is identical to a dedicated sweep).
pub(crate) const NEEDS_ALL_SYSTEMS: &[&str] = &[
    "fig8",
    "fig9",
    "fig10",
    "ext_worst",
    "ext_shootout",
    "ext_optimizer",
    "ext_regression",
];

impl Harness {
    /// Build (or load from the workload cache) the workload and prepare
    /// the output directory.
    pub fn new(config: HarnessConfig) -> Self {
        let w = TableBuilder::build_cached(WorkloadConfig::with_rows(config.rows));
        std::fs::create_dir_all(&config.out_dir).expect("create output directory");
        Harness {
            w,
            config,
            map_a: RefCell::new(None),
            map_all: RefCell::new(None),
            map1_basic: RefCell::new(None),
            want_all_systems: Cell::new(false),
        }
    }

    /// A fast harness for tests and Criterion benches: 2^14 rows, 2^-8
    /// grids, artifacts under `target/figures-test`.
    pub fn tiny() -> Self {
        Self::new(HarnessConfig {
            rows: 1 << 14,
            grid_exp: 8,
            out_dir: PathBuf::from("target/figures-test"),
            ..Default::default()
        })
    }

    /// Announce which figures a run will regenerate, letting the harness
    /// choose shared sweeps (see `NEEDS_ALL_SYSTEMS` in this module).
    /// Calling this is optional — figures are correct without it, just
    /// slower when both the System A and all-systems maps end up being
    /// built.
    pub fn plan_for<S: AsRef<str>>(&self, names: &[S]) {
        if names.iter().any(|n| NEEDS_ALL_SYSTEMS.contains(&n.as_ref())) {
            self.want_all_systems.set(true);
        }
    }

    /// Whether the all-systems map has been built — test introspection
    /// keeping `NEEDS_ALL_SYSTEMS` honest against actual figure behaviour.
    #[cfg(test)]
    pub(crate) fn map_all_is_built(&self) -> bool {
        self.map_all.borrow().is_some()
    }

    /// The 2-D grid all two-predicate maps use.
    pub fn grid2d(&self) -> Grid2D {
        Grid2D::pow2(self.config.grid_exp)
    }

    /// System A's seven-plan 2-D map (Figures 4, 5, 7), built once — as a
    /// subset of the all-systems map whenever that map exists or is known
    /// to be coming ([`Harness::plan_for`]).
    pub fn map_system_a(&self) -> Map2D {
        if self.map_a.borrow().is_none() {
            let map = if self.want_all_systems.get() || self.map_all.borrow().is_some() {
                self.map_all_systems().subset_by_prefix("A")
            } else {
                let plans = two_predicate_plans(SystemId::A, &self.w);
                build_map2d(&self.w, &plans, &self.grid2d(), &self.config.measure)
            };
            *self.map_a.borrow_mut() = Some(map);
        }
        self.map_a.borrow().clone().expect("just built")
    }

    /// The all-systems fifteen-plan map (Figures 8-10, extensions), built
    /// once.
    pub fn map_all_systems(&self) -> Map2D {
        if self.map_all.borrow().is_none() {
            let plans = full_catalog(&self.w);
            let map = build_map2d(&self.w, &plans, &self.grid2d(), &self.config.measure);
            *self.map_all.borrow_mut() = Some(map);
        }
        self.map_all.borrow().clone().expect("just built")
    }

    /// The Figure 1 single-predicate map (basic plan set over the full
    /// grid), built once and shared with the regression suite.
    pub fn map1d_basic(&self) -> Map1D {
        if self.map1_basic.borrow().is_none() {
            let plans = single_predicate_plans(SinglePredPlanSet::Basic, &self.w);
            let grid = Grid1D::pow2(self.config.grid_exp);
            let map = build_map1d(&self.w, &plans, &grid, &self.config.measure);
            *self.map1_basic.borrow_mut() = Some(map);
        }
        self.map1_basic.borrow().clone().expect("just built")
    }

    /// Write an artifact file, returning its path.
    ///
    /// The contents go to a temporary file beside the target, which is then
    /// renamed over it, so a reader never sees a truncated or half-written
    /// file, even while another writer (a parallel test sharing the output
    /// directory) rewrites the same artifact.
    pub fn write_artifact(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.config.out_dir.join(name);
        write_replacing(&path, contents);
        path
    }

    /// The output directory.
    pub fn out_dir(&self) -> &Path {
        &self.config.out_dir
    }
}

/// Write `contents` to a uniquely named temporary file next to `path`,
/// then rename it over `path` (atomic on one file system).
fn write_replacing(path: &Path, contents: &str) {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let name = path.file_name().expect("artifact path names a file").to_string_lossy();
    let tmp = path.with_file_name(format!(".{name}.{}.{seq}.tmp", std::process::id()));
    std::fs::write(&tmp, contents).expect("write artifact");
    std::fs::rename(&tmp, path).expect("rename artifact into place");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_artifact_writers_never_expose_a_partial_file() {
        let dir = PathBuf::from("target/figures-test/write-replacing");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("shared.csv");
        let bodies: Vec<String> = (0..4).map(|i| format!("{i},").repeat(50_000)).collect();
        write_replacing(&path, &bodies[0]);
        // Writers and the reader start together, so reads overlap writes.
        let start = std::sync::Barrier::new(bodies.len() + 1);
        std::thread::scope(|scope| {
            for body in &bodies {
                let (path, start) = (&path, &start);
                scope.spawn(move || {
                    start.wait();
                    for _ in 0..20 {
                        write_replacing(path, body);
                    }
                });
            }
            start.wait();
            for _ in 0..200 {
                let seen = std::fs::read_to_string(&path).unwrap();
                assert!(bodies.contains(&seen), "read a partial artifact ({} bytes)", seen.len());
            }
        });
        let leftovers =
            std::fs::read_dir(&dir).unwrap().filter(|e| e.as_ref().unwrap().path() != path).count();
        assert_eq!(leftovers, 0, "temporary files left behind");
    }

    #[test]
    fn validate_rejects_tables_and_grids_too_small_to_sweep() {
        let cfg = |rows, grid_exp| HarnessConfig { rows, grid_exp, ..Default::default() };
        assert!(HarnessConfig::default().validate().is_ok());
        assert!(cfg(0, 0).validate().is_err());
        assert!(cfg(1, 0).validate().is_err());
        assert!(cfg(MIN_ROWS, 2).validate().is_ok());
        assert!(cfg(1 << 10, 10).validate().is_ok());
        assert!(cfg(1 << 10, 11).validate().is_err());
        assert!(cfg(1 << 10, 40).validate().is_err());
        assert!(cfg(u64::MAX, 64).validate().is_err());
    }

    #[test]
    fn tiny_harness_builds_and_caches_maps() {
        let h = Harness::tiny();
        let m1 = h.map_system_a();
        let m2 = h.map_system_a();
        assert_eq!(m1, m2);
        assert_eq!(m1.plan_count(), 7);
        assert_eq!(m1.dims(), (9, 9));
        let all = h.map_all_systems();
        assert_eq!(all.plan_count(), 15);
    }

    #[test]
    fn system_a_map_is_the_same_standalone_or_carved_from_all_systems() {
        // Standalone: no plan announced, A map swept directly.
        let standalone = Harness::tiny().map_system_a();
        // Carved: fig8 announced, so the A map is a subset of the
        // all-systems sweep.  Cells are measured in isolation, so the two
        // must be identical — this is what keeps CSV artifacts byte-stable
        // whichever figures a run regenerates.
        let h = Harness::tiny();
        h.plan_for(&["fig4", "fig8"]);
        let carved = h.map_system_a();
        assert_eq!(standalone, carved);
        assert_eq!(h.map_all_systems().subset_by_prefix("A"), carved);
    }

    #[test]
    fn artifacts_are_written() {
        let h = Harness::tiny();
        let p = h.write_artifact("smoke.txt", "hello");
        assert!(p.exists());
        assert_eq!(std::fs::read_to_string(p).unwrap(), "hello");
    }
}
