//! The chooser-map pipeline behind the plan-choice figures
//! (`ext_optimizer`, `ext_correlated`, `ext_robust_choice`,
//! `ext_adaptive`, `ext_churn`).
//!
//! The paper's relative maps (Figs 7-10) divide each plan's cost by the
//! best plan's cost at the same cell.  A chooser figure applies that same
//! quotient to a *chooser's* picks: the regret of a pick is the picked
//! plan's measured cost over the cell's best.  A figure supplies a
//! measured cost cube (a [`Map2D`]: plans over two axes, a diagonal
//! sweep being a one-row cube) and one pick grid per chooser; the
//! pipeline returns regret grids, per-chooser [`Tally`]s, regret SVGs and
//! the checks text.  Everything else — workloads, choosers, CSV columns,
//! report prose, named checks — stays with the figure.

use robustmap_core::render::{heatmap_svg, relative_scale};
use robustmap_core::{build_map2d, measure_batch, Grid2D, Map2D, RegressionSuite, RelativeMap2D};
use robustmap_executor::PlanSpec;
use robustmap_systems::{Choice, Chooser, Estimator, TwoPredPlan};
use robustmap_workload::gen::PredicateDistribution;
use robustmap_workload::{TableBuilder, Workload, WorkloadConfig};

use crate::harness::Harness;

/// A measured cost cube with its quotient map — the per-cell best plan
/// (the oracle, ties to the lower index) and every plan's quotient — and
/// where each cell sits on the cube's workload.
pub(crate) struct ChooserMap {
    pub cube: Map2D,
    pub rel: RelativeMap2D,
    /// The `(sel_a, sel_b)` of every cell, ia-major (`ia * |b| + ib`).
    pub sels: Vec<(f64, f64)>,
    /// The predicate constants of every cell.
    pub thr: Vec<(i64, i64)>,
}

impl ChooserMap {
    /// A measured cube whose cells sit at `sels` on `w`.
    pub fn new(w: &Workload, cube: Map2D, sels: Vec<(f64, f64)>) -> Self {
        let rel = RelativeMap2D::from_map(&cube);
        let thr =
            sels.iter().map(|&(sa, sb)| (w.cal_a.threshold(sa), w.cal_b.threshold(sb))).collect();
        ChooserMap { cube, rel, sels, thr }
    }

    /// An `(sel_a x sel_b)` map of `w`.
    pub fn of_map(w: &Workload, cube: Map2D) -> Self {
        let sels = cube.sel_a.iter().flat_map(|&sa| cube.sel_b.iter().map(move |&sb| (sa, sb)));
        let sels = sels.collect();
        Self::new(w, cube, sels)
    }

    /// The `(sel_a x sel_b)` map of `plans` on `w` through the standard map
    /// builder, on a grid no finer than 2^-6.
    pub fn map(h: &Harness, w: &Workload, plans: &[TwoPredPlan]) -> Self {
        let grid = Grid2D::pow2(h.config.grid_exp.min(6));
        Self::of_map(w, build_map2d(w, plans, &grid, &h.config.measure))
    }

    /// The diagonal `sel_a = sel_b = s` of `w` over `sels`, every plan
    /// measured through the warm batch engine: a one-row cube at `x`.
    pub fn diagonal(
        h: &Harness,
        w: &Workload,
        plans: &[TwoPredPlan],
        x: f64,
        sels: &[f64],
    ) -> Self {
        let specs: Vec<PlanSpec> = plans
            .iter()
            .flat_map(|p| sels.iter().map(|&s| p.build(w.cal_a.threshold(s), w.cal_b.threshold(s))))
            .collect();
        let results = measure_batch(&w.db, &specs, &h.config.measure);
        let grids = results.chunks(sels.len()).map(<[_]>::to_vec).collect();
        let names = plans.iter().map(|p| p.name.clone()).collect();
        let cube = Map2D::new(vec![x], sels.to_vec(), names, grids);
        Self::new(w, cube, sels.iter().map(|&s| (s, s)).collect())
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.sels.len()
    }

    /// One chooser's decision at every cell.
    pub fn choose<E: Estimator + ?Sized>(&self, chooser: &Chooser, est: &E) -> Vec<Choice> {
        self.thr.iter().map(|&(ta, tb)| chooser.choose(est, ta, tb)).collect()
    }

    /// Measured seconds of `plan` at cell `c`.
    pub fn seconds(&self, plan: usize, c: usize) -> f64 {
        self.cube.plan_grid(plan)[c].seconds
    }

    /// The measured-cheapest plan at cell `c`.
    pub fn oracle(&self, c: usize) -> usize {
        let nb = self.rel.sel_b.len();
        self.rel.best_plan_at(c / nb, c % nb)
    }

    /// The regret grid of one chooser: per cell, the quotient of the plan
    /// it picked there.
    pub fn regret(&self, picks: impl IntoIterator<Item = usize>) -> Vec<f64> {
        let regret: Vec<f64> =
            picks.into_iter().enumerate().map(|(c, p)| self.rel.quotient_grid(p)[c]).collect();
        assert_eq!(regret.len(), self.cells(), "one pick per cell");
        regret
    }

    /// A regret (or any quotient) grid over this cube's axes as a heatmap.
    pub fn svg(&self, grid: &[f64], title: &str) -> String {
        relative_svg(grid, &self.rel.sel_a, &self.rel.sel_b, title)
    }
}

/// A quotient grid (regret, slowdown, ...) over `xs` x `ys` as a heatmap
/// on the relative scale.
pub(crate) fn relative_svg(grid: &[f64], xs: &[f64], ys: &[f64], title: &str) -> String {
    heatmap_svg(grid, xs, ys, &relative_scale(), title)
}

/// One chooser's regret summary over a set of cells.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Tally {
    pub cells: usize,
    /// Cells whose regret exceeds 1.001: the pick is measurably worse
    /// than the cell's best plan.
    pub wrong: usize,
    pub worst: f64,
    pub sum: f64,
}

impl Tally {
    /// Tally a regret grid (or any slice of one), summing in cell order.
    pub fn of(regret: &[f64]) -> Tally {
        let mut t = Tally { cells: regret.len(), ..Tally::default() };
        for &q in regret {
            t.wrong += (q > 1.001) as usize;
            t.worst = t.worst.max(q);
            t.sum += q;
        }
        t
    }

    pub fn wrong_frac(&self) -> f64 {
        self.wrong as f64 / self.cells.max(1) as f64
    }

    pub fn mean(&self) -> f64 {
        self.sum / self.cells as f64
    }
}

/// Append the named-check block (`suite` plus its verdict) to `report`
/// under a heading, and return the block for the figure's checks file.
pub(crate) fn push_checks(report: &mut String, over: &str, suite: &RegressionSuite) -> String {
    let checks =
        format!("{}verdict: {}\n", suite.report(), if suite.passed() { "PASS" } else { "FAIL" });
    report.push_str(&format!("\nregression checks over {over}:\n{checks}"));
    checks
}

/// The chooser figures' side workload: up to 2^17 rows at the harness
/// seed with predicate columns drawn from `dist`.
pub(crate) fn side_workload(h: &Harness, dist: PredicateDistribution) -> Workload {
    TableBuilder::build_cached(WorkloadConfig {
        rows: h.w.rows().min(1 << 17),
        seed: h.w.config.seed,
        predicate_dist: dist,
        mutation_epoch: 0,
    })
}

/// The diagonal axis `sel_a = sel_b = s`, `s` from `2^-min(grid, 10)` to 1.
pub(crate) fn diagonal_sels(h: &Harness) -> Vec<f64> {
    (0..=h.config.grid_exp.min(10) as i32).rev().map(|e| 0.5f64.powi(e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use robustmap_core::Measurement;

    /// A two-by-two cube over a tiny workload, one seconds grid per plan.
    fn chooser_map(secs: &[[f64; 4]]) -> ChooserMap {
        let w = TableBuilder::build(WorkloadConfig::with_rows(1 << 8));
        let grid = |g: &[f64; 4]| g.map(|s| Measurement { seconds: s, ..Default::default() });
        let names = (0..secs.len()).map(|p| format!("p{p}")).collect();
        let cube = Map2D::new(
            vec![0.5, 1.0],
            vec![0.5, 1.0],
            names,
            secs.iter().map(|g| grid(g).to_vec()).collect(),
        );
        ChooserMap::of_map(&w, cube)
    }

    #[test]
    fn wrong_means_regret_above_1_001() {
        let t = Tally::of(&[1.0, 1.001, 1.0011, 3.0]);
        assert_eq!((t.cells, t.wrong, t.worst), (4, 2, 3.0));
        assert_eq!(t.sum, 1.0 + 1.001 + 1.0011 + 3.0);
        assert_eq!(t.wrong_frac(), 0.5);
    }

    #[test]
    fn oracle_breaks_ties_to_the_lower_index() {
        let cm = chooser_map(&[[2.0, 1.0, 3.0, 5.0], [2.0, 4.0, 1.0, 5.0], [1.0, 1.0, 3.0, 5.0]]);
        assert_eq!((0..4).map(|c| cm.oracle(c)).collect::<Vec<_>>(), [2, 0, 1, 0]);
    }

    #[test]
    fn regret_is_the_relative_map_quotient_at_the_pick() {
        let cm = chooser_map(&[[2.0, 1.0, 3.0, 5.0], [4.0, 3.0, 1.0, 7.0]]);
        let picks = [1, 1, 0, 1];
        let regret = cm.regret(picks);
        for (c, &p) in picks.iter().enumerate() {
            assert_eq!(regret[c], cm.rel.quotient(p, c / 2, c % 2));
        }
        assert_eq!(regret, [2.0, 3.0, 3.0, 1.4]);
    }
}
