//! `churn_mixed`: writes beside reads.  `ChurnDriver` applies 1,024-op
//! batches (20/20/60 insert/delete/update, downward drift 85) to a
//! 2^18-row table through a 64-page session, `MaintainedJoint::apply`
//! folds every batch into the statistics, and every 32 batches a seeded
//! probe set of selection plans is re-measured on the churned,
//! tombstoned heap.
//!
//! The loop runs in epochs of 128 batches, each on a freshly built copy
//! of the seed's table: batches get slower as the heap fills with
//! tombstones and appended rows, so without epochs the median batch would
//! depend on how many batches the host managed in the run.

use std::time::Instant;

use robustmap::core::{measure_plan, MeasureConfig};
use robustmap::executor::{PlanSpec, Predicate, Projection};
use robustmap::storage::Session;
use robustmap::systems::{two_predicate_plans, SystemId, TwoPredPlan};
use robustmap::workload::{
    ChurnConfig, ChurnDriver, JointHistogram, JointHistogramConfig, MaintainedJoint, TableBuilder,
    Workload, COL_A,
};

use crate::common::{cache_load, family, setup, FamilyTimes, Report, Rng, RunSpec, Tracer, Work};

pub const ROWS: u64 = 1 << 18;
/// Inserted and updated rows draw column `a` from the lowest 15% of its
/// domain.
const DRIFT: u32 = 85;
pub const SESSION_PAGES: usize = 64;
const PROBE_EVERY: usize = 32;
const PROBE_PLANS: usize = 8;
const BUILDS: usize = 15;
/// Batches per epoch; the deterministic counters cover the first epoch.
const EPOCH_BATCHES: usize = 128;

/// One epoch's state: a fresh table, its statistics, the churn stream
/// from step 0 and the session the writes are charged to.
struct Epoch {
    w: Workload,
    maint: MaintainedJoint,
    driver: ChurnDriver,
    session: Session,
}

impl Epoch {
    fn new(w: Workload) -> Self {
        let maint = MaintainedJoint::new(JointHistogram::from_workload(
            &w,
            &JointHistogramConfig::default(),
        ));
        let driver = ChurnDriver::new(&w, churn_config(&w));
        Epoch {
            w,
            maint,
            driver,
            session: Session::with_pool_pages(SESSION_PAGES),
        }
    }
}

fn churn_config(w: &Workload) -> ChurnConfig {
    ChurnConfig::for_workload(w).with_drift_down(DRIFT)
}

pub fn run(spec: &RunSpec, tr: &mut Tracer) -> Report {
    let mut r = Report::default();
    let w = setup(ROWS, spec.seed, BUILDS, &mut r, tr);
    if spec.trace {
        cache_load(&w, &mut r, tr);
    }
    let churn = churn_config(&w);
    let mcfg = MeasureConfig {
        threads: 1,
        ..MeasureConfig::default()
    };

    // The probe set: seeded plans at seeded selectivities, fixed for the
    // run, plus a selectivity-1 table scan whose row count is checked.
    let mut rng = Rng::new(spec.seed, 0xC0_0000);
    let mut plans: Vec<TwoPredPlan> = SystemId::all()
        .into_iter()
        .flat_map(|s| two_predicate_plans(s, &w))
        .collect();
    rng.shuffle(&mut plans);
    let mut probes: Vec<PlanSpec> = plans[..PROBE_PLANS]
        .iter()
        .map(|p| {
            let (ea, eb) = (rng.uniform(-8.0, 0.0), rng.uniform(-8.0, 0.0));
            p.build(
                w.cal_a.threshold(2f64.powf(ea)),
                w.cal_b.threshold(2f64.powf(eb)),
            )
        })
        .collect();
    probes.push(PlanSpec::TableScan {
        table: w.table,
        pred: Predicate::always_true(),
        project: Projection::Columns(vec![COL_A]),
    });
    r.params = vec![
        ("rows", ROWS.to_string()),
        ("batch_ops", churn.batch_ops.to_string()),
        (
            "mix_insert_delete_update_pct",
            format!(
                "{}/{}/{}",
                churn.insert_pct,
                churn.delete_pct,
                100 - churn.insert_pct - churn.delete_pct
            ),
        ),
        ("drift_down_hundredths", DRIFT.to_string()),
        ("session_pages", SESSION_PAGES.to_string()),
        ("heap_pages", w.heap_pages().to_string()),
        ("probe_every_batches", PROBE_EVERY.to_string()),
        ("probe_plans", probes.len().to_string()),
        ("epoch_batches", EPOCH_BATCHES.to_string()),
    ];
    let config = w.config.clone();
    let mut epoch = Epoch::new(w);

    let mut work = Work::default();
    let mut families = FamilyTimes::default();
    let (mut rows_mutated, mut churn_writes) = (0u64, 0u64);
    let started = Instant::now();
    let mut round = 0;
    while spec.more_rounds(started, round, EPOCH_BATCHES) {
        if round > 0 && round % EPOCH_BATCHES == 0 {
            drop(epoch);
            epoch = Epoch::new(TableBuilder::build(config.clone()));
        }
        let Epoch {
            w,
            maint,
            driver,
            session,
        } = &mut epoch;
        // Trace runs alternate untraced and traced batches.
        let traced = spec.trace && round % 2 == 1;
        tr.set_recording(traced);
        let counted = round < EPOCH_BATCHES;
        let ((batch_s, maint_s, ops), round_s) =
            tr.span("churn_mixed.batch", round, None, |tr, id| {
                let (b, batch_s) = tr.span("workload.churn_batch", round, id, |_, _| {
                    driver.apply_batch(w, session)
                });
                let (_, maint_s) =
                    tr.span("workload.stats_maint", round, id, |_, _| maint.apply(&b));
                if counted {
                    rows_mutated += b.rows_applied;
                    churn_writes += b.io.page_writes;
                    work.add_storage(&b.io);
                }
                (batch_s, maint_s, b.ops.0 + b.ops.1 + b.ops.2)
            });
        if !spec.trace {
            r.rounds_s.push(round_s);
            r.ops += ops;
            r.ops_s += round_s;
        } else if traced {
            r.rounds_s.push(round_s);
            r.sample("workload.churn_batch_s", batch_s);
            r.sample("workload.stats_maint_s", maint_s);
            r.tails
                .entry("workload.batch_ms_tail")
                .or_default()
                .push(1e3 * round_s);
        } else {
            r.untraced_rounds_s.push(round_s);
        }
        if counted && round + 1 == EPOCH_BATCHES {
            work.evictions = session.pool_counters().2;
        }
        if (round + 1) % PROBE_EVERY == 0 {
            tr.span("churn_mixed.probe", round, None, |tr, id| {
                for (i, probe) in probes.iter().enumerate() {
                    let start = Instant::now();
                    let m = measure_plan(&w.db, probe, &mcfg);
                    let end = Instant::now();
                    tr.record("measure.cell", round, 0, id, start, end);
                    let s = (end - start).as_secs_f64();
                    r.sample("measure.probe_ms_p50", 1e3 * s);
                    families.add(family(probe), s);
                    if counted {
                        work.add(&m);
                    }
                    if i + 1 == probes.len() {
                        let (live, stats) = (driver.live_rows(), maint.live_rows());
                        r.checks.check(m.rows == live && live == stats, || {
                            format!(
                                "batch {round}: table scan counts {} rows, driver {live}, \
                                 statistics {stats}",
                                m.rows
                            )
                        });
                    }
                }
            });
        }
        round += 1;
    }
    if spec.trace {
        r.publish(&work, &families);
        r.values
            .insert("workload.rows_mutated", rows_mutated as f64);
        r.values
            .insert("workload.churn_page_writes", churn_writes as f64);
        r.bypassed(&[
            "systems.plan_build_s",
            "measure.sweep_s",
            "measure.cell_time_sum_s",
            "measure.parallel_efficiency",
            "serve.burst_s",
            "serve.isolated_s",
            "serve.sched_overhead_s",
            "serve.yields",
            "serve.idle_resets",
            "serve.grants_shrunk",
            "serve.pool_hits",
            "serve.pool_misses",
            "render.s",
            "render.bytes",
        ]);
    }
    r
}
