//! `serve_mixed`: seeded 64-query bursts served over one shared buffer
//! pool by `core::serve`'s scheduler, 8 in flight at the default quantum.
//! The 4,096-page pool holds the whole 2^18-row table (1,410 heap pages
//! plus indexes), so the data fits the cache; the memory budget is 7.5
//! default grants, so the eighth admitted query runs on a shrunk grant.

use std::time::Instant;

use robustmap::core::{measure_plan, serve_concurrent, MeasureConfig, ServeConfig, ServeReport};
use robustmap::executor::{ColRange, JoinAlgo, PlanSpec, Predicate, Projection, SpillMode};
use robustmap::storage::IoStats;
use robustmap::systems::{
    apply_grant, two_predicate_plans, AdmissionConfig, SystemId, TwoPredPlan,
};
use robustmap::workload::{Workload, COL_A, COL_B, COL_C};

use crate::common::{
    allowed_cpus, cache_load, family, pin_to_cpu, setup, FamilyTimes, Report, Rng, RunSpec, Tracer, Work,
};

pub const ROWS: u64 = 1 << 18;
pub const BURST: usize = 64;
pub const MAX_IN_FLIGHT: usize = 8;
pub const POOL_PAGES: usize = 4096;
/// The per-query grant every query asks for (the admission default).
const GRANT: usize = 8 << 20;
/// Not a multiple of the grant, so the shrink-grant path runs.
const MEMORY_BUDGET: usize = 7 * GRANT + GRANT / 2;
const BUILDS: usize = 15;
/// Bursts the deterministic counters cover.
const COUNTED_BURSTS: usize = 4;

/// Each burst's fixed mix: every selection plan 3 times, every join
/// algorithm 5 times and the spilling sort 4 times (64 queries).  Only
/// the selectivities and the arrival order are drawn from the seed, each
/// instance of a kind from its own stratum of the range, so the work per
/// burst varies little from seed to seed.
const SELECT_EACH: usize = 3;
const JOIN_EACH: usize = 5;
const SORTS: usize = 4;
const JOIN_ALGOS: [JoinAlgo; 3] = [
    JoinAlgo::SortMerge,
    JoinAlgo::Hash { build_left: true },
    JoinAlgo::Hash { build_left: false },
];

pub fn run(spec: &RunSpec, tr: &mut Tracer) -> Report {
    let mut r = Report::default();
    let w = setup(ROWS, spec.seed, BUILDS, &mut r, tr);
    let plans: Vec<TwoPredPlan> = SystemId::all()
        .into_iter()
        .flat_map(|s| two_predicate_plans(s, &w))
        .collect();
    assert_eq!(
        plans.len() * SELECT_EACH + JOIN_ALGOS.len() * JOIN_EACH + SORTS,
        BURST
    );
    let cfg = ServeConfig {
        pool_pages: POOL_PAGES,
        admission: AdmissionConfig {
            max_in_flight: MAX_IN_FLIGHT,
            memory_budget: MEMORY_BUDGET,
            default_grant: GRANT,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    r.params = vec![
        ("rows", ROWS.to_string()),
        ("burst", BURST.to_string()),
        ("max_in_flight", MAX_IN_FLIGHT.to_string()),
        ("quantum", cfg.quantum.to_string()),
        ("pool_pages", POOL_PAGES.to_string()),
        ("heap_pages", w.heap_pages().to_string()),
        ("memory_budget_bytes", MEMORY_BUDGET.to_string()),
    ];
    if spec.trace {
        cache_load(&w, &mut r, tr);
    }
    // Each burst runs on one CPU.  The scheduler runs one query thread at
    // a time and hands the baton over some 17,000 times a burst; unpinned,
    // each hand-off can be a cross-CPU wake-up, whose cost on a virtual
    // machine varies several-fold from run to run.  The bursts take the
    // CPUs in turn: on a shared host each virtual CPU's speed drifts on its
    // own by some 15% over seconds, and one CPU for the whole run would
    // carry its drift into the median.  Set-up is not pinned.
    let cpus = allowed_cpus();
    r.params.push((
        "bursts_pinned_to_cpus",
        cpus.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(" "),
    ));
    let mut work = Work::default();
    let mut families = FamilyTimes::default();
    let (mut yields, mut idle_resets, mut shrunk, mut hits, mut misses) = (0, 0, 0, 0, 0);
    let started = Instant::now();
    let mut round = 0;
    while spec.more_rounds(started, round, COUNTED_BURSTS) {
        // Trace runs alternate untraced and traced bursts.
        let traced = spec.trace && round % 2 == 1;
        tr.set_recording(traced);
        // A traced run moves on after each untraced/traced pair, so both
        // halves of the pair run on the same CPU.
        let turn = if spec.trace { round / 2 } else { round };
        pin_to_cpu(cpus[turn % cpus.len()]);
        let ((specs, rep, isolated), _) = tr.span("serve_mixed.burst", round, None, |tr, id| {
            let (specs, plan_s) = tr.span("systems.plan_build", round, id, |_, _| {
                burst(&w, &plans, spec.seed, round)
            });
            let (rep, burst_s) = tr.span("serve.burst", round, id, |_, _| {
                serve_concurrent(&w.db, &specs, &cfg)
            });
            let (isolated, iso_s) = tr.span("serve.isolated", round, id, |tr, id| {
                measure_alone(&w, &specs, &rep, round, id, tr, &mut r, &mut families)
            });
            if !spec.trace {
                r.rounds_s.push(burst_s);
                r.ops += BURST as u64;
                r.ops_s += burst_s;
            } else if traced {
                r.rounds_s.push(burst_s);
                r.sample("systems.plan_build_s", plan_s);
                r.sample("serve.burst_s", burst_s);
                r.sample("serve.isolated_s", iso_s);
                r.sample("serve.sched_overhead_s", burst_s - iso_s);
            } else {
                r.untraced_rounds_s.push(burst_s);
            }
            (specs, rep, isolated)
        });
        check_burst(&specs, &rep, &isolated, round, &mut r);
        if round < COUNTED_BURSTS {
            for q in &rep.queries {
                work.add(&q.measurement());
                yields += q.yields;
                shrunk += (q.grant < GRANT) as u64;
                hits += q.pool_hits;
                misses += q.pool_misses;
            }
            work.evictions += rep.pool_counters.2;
            idle_resets += rep.idle_resets;
        }
        round += 1;
    }
    if spec.trace {
        r.publish(&work, &families);
        for (name, v) in [
            ("serve.yields", yields),
            ("serve.idle_resets", idle_resets),
            ("serve.grants_shrunk", shrunk),
            ("serve.pool_hits", hits),
            ("serve.pool_misses", misses),
        ] {
            r.values.insert(name, v as f64);
        }
        r.bypassed(&[
            "workload.churn_batch_s",
            "workload.batch_ms_tail",
            "workload.stats_maint_s",
            "workload.rows_mutated",
            "workload.churn_page_writes",
            "measure.sweep_s",
            "measure.cell_time_sum_s",
            "measure.parallel_efficiency",
            "render.s",
            "render.bytes",
        ]);
    }
    r
}

/// Exponent drawn uniformly from stratum `k` of `n` equal strata of
/// `[lo, hi]`.
fn stratum(rng: &mut Rng, k: usize, n: usize, lo: f64, hi: f64) -> f64 {
    let width = (hi - lo) / n as f64;
    rng.uniform(lo + width * k as f64, lo + width * (k + 1) as f64)
}

/// Per-instance `(exponent of sel_a, exponent of sel_b)`: stratum `k` for
/// `a`, a seeded permutation of the strata for `b`.
fn stratified_pairs(rng: &mut Rng, n: usize, lo: f64, hi: f64) -> Vec<(f64, f64)> {
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    (0..n)
        .map(|k| (stratum(rng, k, n, lo, hi), stratum(rng, perm[k], n, lo, hi)))
        .collect()
}

/// Burst `round` of the seed's stream, in arrival order.
fn burst(w: &Workload, plans: &[TwoPredPlan], seed: u64, round: usize) -> Vec<PlanSpec> {
    let mut rng = Rng::new(seed, 0xB0_0000 + round as u64);
    let ta = |e: f64| w.cal_a.threshold(2f64.powf(e));
    let tb = |e: f64| w.cal_b.threshold(2f64.powf(e));
    let scan = |col: usize, t: i64, project: Projection| PlanSpec::TableScan {
        table: w.table,
        pred: Predicate::single(ColRange::at_most(col, t)),
        project,
    };
    let mut specs = Vec::with_capacity(BURST);
    for p in plans {
        for (ea, eb) in stratified_pairs(&mut rng, SELECT_EACH, -8.0, 0.0) {
            specs.push(p.build(ta(ea), tb(eb)));
        }
    }
    for algo in JOIN_ALGOS {
        for (ea, eb) in stratified_pairs(&mut rng, JOIN_EACH, -6.0, -1.0) {
            specs.push(PlanSpec::Join {
                left: Box::new(scan(COL_A, ta(ea), Projection::Columns(vec![COL_C, COL_A]))),
                right: Box::new(scan(COL_B, tb(eb), Projection::Columns(vec![COL_C, COL_B]))),
                left_key: 0,
                right_key: 0,
                algo,
                memory_bytes: GRANT,
                project: Projection::All,
            });
        }
    }
    for k in 0..SORTS {
        let e = stratum(&mut rng, k, SORTS, -4.0, 0.0);
        specs.push(PlanSpec::Sort {
            input: Box::new(scan(COL_A, ta(e), Projection::All)),
            key_cols: vec![COL_B],
            mode: SpillMode::Abrupt,
            memory_bytes: GRANT,
        });
    }
    rng.shuffle(&mut specs);
    specs
}

/// Each served query measured alone on one thread, under the grant it
/// was served with: the isolated baseline and the reference for the
/// work-signature check.
#[allow(clippy::too_many_arguments)]
fn measure_alone(
    w: &Workload,
    specs: &[PlanSpec],
    rep: &ServeReport,
    round: usize,
    parent: Option<usize>,
    tr: &mut Tracer,
    r: &mut Report,
    families: &mut FamilyTimes,
) -> Vec<robustmap::core::Measurement> {
    specs
        .iter()
        .zip(&rep.queries)
        .map(|(spec, q)| {
            let granted = if q.grant < GRANT {
                apply_grant(spec, q.grant)
            } else {
                spec.clone()
            };
            let cfg = MeasureConfig {
                pool_pages: POOL_PAGES,
                memory_bytes: q.grant,
                threads: 1,
                ..MeasureConfig::default()
            };
            let start = Instant::now();
            let m = measure_plan(&w.db, &granted, &cfg);
            let end = Instant::now();
            tr.record("measure.cell", round, 0, parent, start, end);
            let s = (end - start).as_secs_f64();
            r.sample("measure.probe_ms_p50", 1e3 * s);
            families.add(family(spec), s);
            m
        })
        .collect()
}

/// The work a query does regardless of what else shares the pool.
fn work_signature(io: &IoStats) -> (u64, u64, u64, u64, u64) {
    (
        io.page_requests(),
        io.page_writes,
        io.cpu_rows,
        io.cpu_compares,
        io.cpu_hashes,
    )
}

/// Every query completes, admission is FIFO, and each query's work
/// signature and rows equal its isolated measurement.
fn check_burst(
    specs: &[PlanSpec],
    rep: &ServeReport,
    isolated: &[robustmap::core::Measurement],
    round: usize,
    r: &mut Report,
) {
    let c = &mut r.checks;
    c.check(
        rep.queries.len() == specs.len() && rep.completion_order.len() == specs.len(),
        || {
            format!(
                "burst {round}: {} of {} queries completed",
                rep.completion_order.len(),
                specs.len()
            )
        },
    );
    c.check(
        rep.admission_order.iter().copied().eq(0..specs.len()),
        || format!("burst {round}: admission was not FIFO"),
    );
    for (i, (q, alone)) in rep.queries.iter().zip(isolated).enumerate() {
        c.check(
            work_signature(&q.stats.io) == work_signature(&alone.io)
                && q.stats.rows_out == alone.rows,
            || {
                format!(
                    "burst {round}: query {i} ({}) did other work than alone",
                    specs[i].synopsis()
                )
            },
        );
    }
}
