//! `select_sweep`: the paper's own map (Figs 4/8) — the 15 two-predicate
//! plans of Systems A/B/C over a 9×9 selectivity grid on 2^20 rows, built
//! and rendered to CSV plus one heat-map SVG per plan.  The 1,024-page
//! measurement pool is far smaller than the 5,638-page heap, so the data
//! does not fit the cache.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use robustmap::core::render::{absolute_scale, heatmap_svg, map2d_to_csv};
use robustmap::core::{
    build_map2d, measure_plan, Grid2D, Map2D, MeasureConfig, Measurement, SweepArena,
};
use robustmap::executor::{execute_count_batched, ExecConfig, ExecCtx, PlanSpec};
use robustmap::storage::{BufferPool, Session};
use robustmap::systems::{two_predicate_plans, SystemId, TwoPredPlan};
use robustmap::workload::Workload;

use crate::common::{
    cache_load, family, same_measurement, setup, FamilyTimes, Report, Rng, RunSpec, Tracer, Work,
};

pub const ROWS: u64 = 1 << 20;
/// Selectivities 2^-8 ..= 1 on both axes: 9×9 cells per plan.
pub const GRID_EXP: u32 = 8;
const BUILDS: usize = 5;
/// Cells per map re-measured alone and compared bit for bit.
const CHECK_CELLS: usize = 16;

pub fn run(spec: &RunSpec, tr: &mut Tracer) -> Report {
    let mut r = Report::default();
    let cfg = MeasureConfig {
        threads: spec.threads,
        ..MeasureConfig::default()
    };
    let grid = Grid2D::pow2(GRID_EXP);
    let w = setup(ROWS, spec.seed, BUILDS, &mut r, tr);
    r.params = vec![
        ("rows", ROWS.to_string()),
        ("grid", format!("{0}x{0}", grid.sel_a().len())),
        ("plans", catalog(&w).len().to_string()),
        ("pool_pages", cfg.pool_pages.to_string()),
        ("heap_pages", w.heap_pages().to_string()),
        ("check_cells_per_map", CHECK_CELLS.to_string()),
    ];
    if spec.trace {
        cache_load(&w, &mut r, tr);
    }

    let mut work = Work::default();
    let mut families = FamilyTimes::default();
    let mut first_map: Option<Map2D> = None;
    let started = Instant::now();
    let mut round = 0;
    // Trace runs alternate untraced and traced maps, for the overhead ratio.
    while spec.more_rounds(started, round, if spec.trace { 2 } else { 1 }) {
        let traced = spec.trace && round % 2 == 1;
        let map = if traced {
            let (map, map_s) = tr.span("select_sweep.map", round, None, |tr, id| {
                traced_map(&w, &grid, &cfg, round, id, tr, &mut r, &mut families)
            });
            r.rounds_s.push(map_s);
            map
        } else {
            let t0 = Instant::now();
            let plans = catalog(&w);
            let t1 = Instant::now();
            let map = build_map2d(&w, &plans, &grid, &cfg);
            let sweep_s = t1.elapsed().as_secs_f64();
            std::hint::black_box(render(&map));
            let map_s = t0.elapsed().as_secs_f64();
            if spec.trace {
                r.untraced_rounds_s.push(map_s);
            } else {
                r.rounds_s.push(map_s);
                r.ops += cells(&map) as u64;
                r.ops_s += sweep_s;
            }
            map
        };
        check_map(&w, &map, &cfg, spec.seed, round, &mut r);
        match &first_map {
            None => first_map = Some(map),
            Some(first) => r.checks.check(*first == map, || {
                format!("map {round} differs from map 0 of the same seed")
            }),
        }
        round += 1;
    }
    if spec.trace {
        // Counters cover one map: every map of a seed is the same.
        let first = first_map.as_ref().expect("at least one map");
        for m in &measurements(first) {
            work.add(m);
        }
        work.evictions = replay_evictions(&w, first, &grid, &cfg, &mut r);
        r.publish(&work, &families);
        r.bypassed(&[
            "workload.churn_batch_s",
            "workload.batch_ms_tail",
            "workload.stats_maint_s",
            "workload.rows_mutated",
            "workload.churn_page_writes",
            "serve.burst_s",
            "serve.isolated_s",
            "serve.sched_overhead_s",
            "serve.yields",
            "serve.idle_resets",
            "serve.grants_shrunk",
            "serve.pool_hits",
            "serve.pool_misses",
        ]);
    }
    r
}

/// The 15 two-predicate plans of Systems A, B and C.
fn catalog(w: &Workload) -> Vec<TwoPredPlan> {
    SystemId::all()
        .into_iter()
        .flat_map(|s| two_predicate_plans(s, w))
        .collect()
}

fn cells(map: &Map2D) -> usize {
    let (na, nb) = map.dims();
    map.plan_count() * na * nb
}

fn thresholds(w: &Workload, sel_a: &[f64], sel_b: &[f64]) -> (Vec<i64>, Vec<i64>) {
    (
        sel_a.iter().map(|&s| w.cal_a.threshold(s)).collect(),
        sel_b.iter().map(|&s| w.cal_b.threshold(s)).collect(),
    )
}

/// The map's cells in [`specs`] order.
fn measurements(map: &Map2D) -> Vec<Measurement> {
    let (na, nb) = map.dims();
    (0..map.plan_count())
        .flat_map(|p| (0..na).flat_map(move |ia| (0..nb).map(move |ib| *map.get(p, ia, ib))))
        .collect()
}

/// The map's artifacts: one long-form CSV and a heat map per plan.
/// Returns the bytes rendered.
fn render(map: &Map2D) -> usize {
    let mut bytes = map2d_to_csv(map).len();
    for p in 0..map.plan_count() {
        let svg = heatmap_svg(
            &map.seconds_grid(p),
            &map.sel_a,
            &map.sel_b,
            &absolute_scale(),
            &map.plans[p],
        );
        bytes += svg.len();
    }
    bytes
}

/// One cell measured by a traced sweep worker.
struct Cell {
    m: Measurement,
    start: Instant,
    end: Instant,
    worker: usize,
}

/// The map's plan specs in `build_map2d`'s plan-major, row-major order.
fn specs(w: &Workload, plans: &[TwoPredPlan], grid: &Grid2D) -> Vec<PlanSpec> {
    let (ta, tb) = thresholds(w, grid.sel_a(), grid.sel_b());
    let mut specs = Vec::with_capacity(plans.len() * grid.cells());
    for p in plans {
        for &a in &ta {
            specs.extend(tb.iter().map(|&b| p.build(a, b)));
        }
    }
    specs
}

/// The same map as [`build_map2d`], with a span per layer call and per
/// cell.  The sweep runs `measure_batch`'s scheme (workers pulling cells
/// from a shared counter, one [`SweepArena`] each) and times every
/// `SweepArena::measure` call.  Every map is compared with the run's
/// first map.
#[allow(clippy::too_many_arguments)]
fn traced_map(
    w: &Workload,
    grid: &Grid2D,
    cfg: &MeasureConfig,
    round: usize,
    parent: Option<usize>,
    tr: &mut Tracer,
    r: &mut Report,
    families: &mut FamilyTimes,
) -> Map2D {
    let ((plans, specs), plan_s) = tr.span("systems.plan_build", round, parent, |_, _| {
        let plans = catalog(w);
        let specs = specs(w, &plans, grid);
        (plans, specs)
    });
    let (cells, sweep_s) = tr.span("measure.sweep", round, parent, |tr, id| {
        let cells = traced_sweep(w, &specs, cfg);
        for c in &cells {
            tr.record("measure.cell", round, c.worker, id, c.start, c.end);
        }
        cells
    });
    let mut cell_sum = 0.0;
    for (spec, c) in specs.iter().zip(&cells) {
        let s = (c.end - c.start).as_secs_f64();
        cell_sum += s;
        families.add(family(spec), s);
    }
    let per_plan = grid.cells();
    let map = Map2D::new(
        grid.sel_a().to_vec(),
        grid.sel_b().to_vec(),
        plans.iter().map(|p| p.name.clone()).collect(),
        cells
            .chunks(per_plan)
            .map(|c| c.iter().map(|c| c.m).collect())
            .collect(),
    );
    let (bytes, render_s) = tr.span("render", round, parent, |_, _| render(&map));
    r.sample("systems.plan_build_s", plan_s);
    r.sample("measure.sweep_s", sweep_s);
    r.sample("measure.cell_time_sum_s", cell_sum);
    r.sample(
        "measure.parallel_efficiency",
        cell_sum / (cfg.threads as f64 * sweep_s),
    );
    r.sample("render.s", render_s);
    r.values.insert("render.bytes", bytes as f64);
    map
}

fn traced_sweep(w: &Workload, specs: &[PlanSpec], cfg: &MeasureConfig) -> Vec<Cell> {
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Cell>> = specs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (1..=cfg.threads)
            .map(|worker| {
                let next = &next;
                scope.spawn(move || {
                    let mut arena = SweepArena::new(cfg);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        let start = Instant::now();
                        let m = arena.measure(&w.db, spec);
                        let end = Instant::now();
                        out.push((
                            i,
                            Cell {
                                m,
                                start,
                                end,
                                worker,
                            },
                        ));
                    }
                    out
                })
            })
            .collect();
        for handle in workers {
            for (i, cell) in handle.join().expect("sweep worker panicked") {
                slots[i] = Some(cell);
            }
        }
    });
    slots
        .into_iter()
        .map(|c| c.expect("every cell measured"))
        .collect()
}

/// Pool evictions of the whole map, which `SweepArena` keeps to itself:
/// every cell is executed again, untimed, on a cold session of the
/// benchmark's own under the same conditions, and must measure exactly
/// as in `map`.
fn replay_evictions(
    w: &Workload,
    map: &Map2D,
    grid: &Grid2D,
    cfg: &MeasureConfig,
    r: &mut Report,
) -> u64 {
    let specs = specs(w, &catalog(w), grid);
    let swept = measurements(map);
    let chunk = specs.len().div_ceil(cfg.threads);
    let (evictions, differ) = std::thread::scope(|scope| {
        let workers: Vec<_> = specs
            .chunks(chunk)
            .zip(swept.chunks(chunk))
            .map(|(specs, swept)| {
                scope.spawn(move || {
                    let session = Session::new(
                        cfg.model.clone(),
                        BufferPool::new(cfg.pool_pages, cfg.policy),
                    );
                    let exec_cfg = ExecConfig::from_env();
                    let (mut evictions, mut differ) = (0, 0);
                    for (spec, swept) in specs.iter().zip(swept) {
                        session.reset();
                        let ctx = ExecCtx::new(&w.db, &session, cfg.memory_bytes);
                        let stats = execute_count_batched(spec, &ctx, &exec_cfg)
                            .expect("catalog plans are well-formed");
                        let m = Measurement {
                            seconds: stats.seconds,
                            io: stats.io,
                            rows: stats.rows_out,
                            spilled: stats.spilled,
                        };
                        evictions += session.pool_counters().2;
                        differ += !same_measurement(&m, swept) as usize;
                    }
                    (evictions, differ)
                })
            })
            .collect();
        workers.into_iter().fold((0, 0), |(e, d), h| {
            let (we, wd) = h.join().expect("replay worker panicked");
            (e + we, d + wd)
        })
    });
    r.checks.check(differ == 0, || {
        format!("{differ} cells replayed for the eviction count differ from the sweep")
    });
    evictions
}

/// Output checks on one map: every plan returns the same rows in every
/// cell, and a seeded sample of cells re-measured alone with
/// `measure_plan` (a fresh session) matches the sweep bit for bit.
fn check_map(
    w: &Workload,
    map: &Map2D,
    cfg: &MeasureConfig,
    seed: u64,
    round: usize,
    r: &mut Report,
) {
    let (na, nb) = map.dims();
    let agree = (0..na).all(|ia| {
        (0..nb).all(|ib| {
            let rows = map.get(0, ia, ib).rows;
            (1..map.plan_count()).all(|p| map.get(p, ia, ib).rows == rows)
        })
    });
    r.checks.check(agree, || {
        format!("map {round}: plans disagree on result rows")
    });

    let plans = catalog(w);
    let (ta, tb) = thresholds(w, &map.sel_a, &map.sel_b);
    let single = MeasureConfig {
        threads: 1,
        ..cfg.clone()
    };
    let mut rng = Rng::new(seed, 0x5EED_0000 + round as u64);
    for _ in 0..CHECK_CELLS {
        let (p, ia, ib) = (rng.below(plans.len()), rng.below(na), rng.below(nb));
        let t = Instant::now();
        let alone = measure_plan(&w.db, &plans[p].build(ta[ia], tb[ib]), &single);
        r.sample("measure.probe_ms_p50", 1e3 * t.elapsed().as_secs_f64());
        let swept = map.get(p, ia, ib);
        r.checks.check(same_measurement(&alone, swept), || {
            format!(
                "map {round}: {} at ({ia},{ib}) differs from measure_plan",
                plans[p].name
            )
        });
    }
}
