#!/usr/bin/env bash
# CI-style verification: build, tests (unit + integration + property +
# doc), clippy, and rustdoc — all with warnings denied — plus a figure
# smoke run executed twice (cold workload cache, then warm) so cache
# regressions show up as timing regressions right here.  Any warning or
# failure exits non-zero.  Each phase prints its wall time.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "== $*"
    local t0 t1
    t0=$(date +%s)
    "$@"
    t1=$(date +%s)
    echo "== done in $((t1 - t0))s: $*"
}

export RUSTFLAGS="${RUSTFLAGS:--D warnings}"
export RUSTDOCFLAGS="${RUSTDOCFLAGS:--D warnings}"

run cargo build --release --workspace --all-targets
# --no-fail-fast: one failing test binary must not hide the results of
# every binary after it.
run cargo test -q --release --workspace --no-fail-fast
run cargo test -q --release --workspace --doc

# The batch-executor, adaptive no-switch and concurrent-serving
# differential suites run inside the workspace tests above at the default
# batch size and scheduling quantum; run them again at deliberately odd
# sizes so partial final batches, mid-page batch boundaries and
# mid-operator suspension points are exercised too (neither knob may
# change a single charge: a never-switching adaptive run and a
# concurrency-1 served run must stay bit-identical to the static
# executor at any batch size or quantum).
echo "== batch + adaptive + concurrent equivalence at ROBUSTMAP_BATCH_ROWS=513, ROBUSTMAP_QUANTUM=513"
ROBUSTMAP_BATCH_ROWS=513 ROBUSTMAP_QUANTUM=513 run cargo test -q --release \
    --test batch_equivalence --test warm_sweep_equivalence \
    --test adaptive_equivalence --test concurrent_equivalence \
    --test tombstone_equivalence

# Tracing must be charge-free: re-run the same differential suites with a
# process-wide trace sink attached (every session auto-attaches and emits
# page/op/scheduler events).  If observation changes a single charge, the
# bit-identity assertions inside these suites fail.  Full detail =
# per-page events, the worst case.
echo "== the same equivalence suites again, traced (ROBUSTMAP_TRACE, full detail)"
ROBUSTMAP_TRACE="target/trace-verify.json" ROBUSTMAP_TRACE_DETAIL=full run cargo test -q --release \
    --test batch_equivalence --test warm_sweep_equivalence \
    --test adaptive_equivalence --test concurrent_equivalence \
    --test tombstone_equivalence
run cargo clippy --release --workspace --all-targets -- -D warnings
run cargo doc --no-deps --workspace

# The smoke uses a private cache directory so "cold" really is cold no
# matter what earlier builds or tests populated.
SMOKE_CACHE="target/workload-cache-verify"
rm -rf "$SMOKE_CACHE" target/figures-verify target/figures-verify-t1

echo "== smoke 1/3: regenerate Figure 1 at reduced scale, COLD workload cache"
ROBUSTMAP_WORKLOAD_CACHE="$SMOKE_CACHE" run cargo run --release -p robustmap-bench --bin figures -- \
    --rows 16384 --grid 8 --out target/figures-verify fig1
test -s target/figures-verify/fig1.csv
test -s target/figures-verify/fig1.svg
test -n "$(ls "$SMOKE_CACHE"/wl-*.bin 2>/dev/null)" || {
    echo "cold run did not populate the workload cache" >&2
    exit 1
}
cp target/figures-verify/fig1.csv target/figures-verify/fig1.cold.csv

echo "== smoke 2/3: same figure, WARM workload cache"
ROBUSTMAP_WORKLOAD_CACHE="$SMOKE_CACHE" run cargo run --release -p robustmap-bench --bin figures -- \
    --rows 16384 --grid 8 --out target/figures-verify fig1
cmp target/figures-verify/fig1.csv target/figures-verify/fig1.cold.csv || {
    echo "warm-cache artifacts differ from cold-cache artifacts" >&2
    exit 1
}
# Byte-identity against the committed baseline: simulated costs must not
# drift, no matter how the executor is rearranged (the batch refactor's
# contract).  Regenerate crates/bench/baselines/fig1_smoke.csv only for
# a deliberate cost-model change.
cmp target/figures-verify/fig1.csv crates/bench/baselines/fig1_smoke.csv || {
    echo "fig1 smoke CSV drifted from the committed baseline — simulated costs changed" >&2
    exit 1
}
# The same contract for the fifteen-plan two-predicate map and the grace
# hash intersection: every cell's seconds bits, IoStats and rows.  These
# cover every rid sort, rid dedup and rid membership path of the executor.
ROBUSTMAP_WORKLOAD_CACHE="$SMOKE_CACHE" run cargo run --release -p robustmap-bench --bin ledger -- \
    --rows 16384 --grid 8 --out target/figures-verify/ledger_smoke.csv
cmp target/figures-verify/ledger_smoke.csv crates/bench/baselines/ledger_smoke.csv || {
    echo "rid-path charge ledger drifted from the committed baseline — simulated costs changed" >&2
    exit 1
}

echo "== smoke 3/3: sort-spill + correlated + chooser + adaptive + concurrency + trace + churn sweeps, and the regression-check gate"
SMOKE3_FIGURES=(ext_sort_spill ext_correlated ext_optimizer ext_robust_choice ext_adaptive
    ext_concurrency ext_trace ext_churn ext_regression)
SMOKE3=target/figures-verify/smoke3
ROBUSTMAP_WORKLOAD_CACHE="$SMOKE_CACHE" run cargo run --release -p robustmap-bench --bin figures -- \
    --rows 16384 --grid 8 --out "$SMOKE3" "${SMOKE3_FIGURES[@]}"
for f in ext_sort_spill.csv ext_correlated.csv ext_correlated_regret.svg ext_optimizer.csv \
    ext_optimizer_rho1.csv ext_optimizer_joint_regret.svg ext_robust_choice.csv \
    ext_robust_choice_scores.csv ext_robust_choice_robust_regret.svg ext_adaptive.csv \
    ext_adaptive_checks.txt ext_adaptive_regret.svg ext_concurrency.csv \
    ext_concurrency_sweep.csv ext_concurrency_checks.txt ext_concurrency.svg ext_trace.json \
    ext_trace_timeline.svg ext_trace_adaptive.svg ext_trace_ops.csv ext_trace_metrics.txt \
    ext_trace_checks.txt ext_churn.csv ext_churn_checks.txt ext_churn_frozen_regret.svg \
    ext_churn_maint_regret.svg; do
    test -s "$SMOKE3/$f"
done
# The same byte-identity contract for the five plan-choice figures: each
# CSV prints every measured cost in shortest round-trip form, so these
# files pin the figures' simulated costs and every chooser's pick.
# Regenerate crates/bench/baselines/chooser_smoke/ only for a deliberate
# cost-model or chooser change.
for f in crates/bench/baselines/chooser_smoke/*.csv; do
    cmp "$SMOKE3/${f##*/}" "$f" || {
        echo "${f##*/} drifted from the committed baseline — simulated costs or choices changed" >&2
        exit 1
    }
done
# The Chrome trace artifact must be loadable JSON (Perfetto/chrome://tracing
# take exactly this shape); validate with python when available.
if command -v python3 >/dev/null 2>&1; then
    python3 - "$SMOKE3/ext_trace.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
evs = d["traceEvents"]
assert evs, "trace has no events"
assert sum(e["ph"] == "B" for e in evs) == sum(e["ph"] == "E" for e in evs), "unbalanced spans"
print(f"== ext_trace.json: {len(evs)} Chrome trace events, spans balanced")
EOF
fi
# The regression gate spans the §4 benchmark (28 checks at the seed) and
# every figure's named-check file (robust chooser 8, estimator
# comparison 5, adaptive executor 7, concurrent serving 8, tracing 7,
# churn 8).  The §4 benchmark keeps its 28, all reports together keep
# the floor of 71, and every check must PASS (the figures binary prints,
# it does not gate).
total_checks=0
counts=""
for report in "$SMOKE3/ext_regression.txt" "$SMOKE3"/ext_*_checks.txt; do
    n=$(grep -Eo '^[0-9]+ checks' "$report" | head -1 | cut -d' ' -f1 || true)
    n=${n:-0}
    grep -q 'verdict: PASS' "$report" || {
        echo "robustness regression benchmark FAILED ($report):" >&2
        grep '^\[FAIL\]' "$report" >&2
        exit 1
    }
    if [ "$report" = "$SMOKE3/ext_regression.txt" ] && [ "$n" -lt 28 ]; then
        echo "regression-check count $n dropped below the seed's 28" >&2
        exit 1
    fi
    total_checks=$((total_checks + n))
    counts="$counts ${report##*/}=$n"
done
if [ "$total_checks" -lt 71 ]; then
    echo "combined regression-check count $total_checks dropped below the floor of 71" >&2
    exit 1
fi
echo "== regression-check count: $total_checks (>= 71:$counts), verdicts PASS"

# The thread count must not be observable in any artifact: the same
# figures again on one measurement thread, diffed as a whole directory.
# Only the trace's JSON and its checks file may differ: they carry
# real-clock microseconds and the JSON's byte count.
echo "== smoke 3/3 again at --threads 1: whole-directory determinism"
rm -rf target/figures-verify-t1
ROBUSTMAP_WORKLOAD_CACHE="$SMOKE_CACHE" run cargo run --release -p robustmap-bench --bin figures -- \
    --rows 16384 --grid 8 --threads 1 --out target/figures-verify-t1 "${SMOKE3_FIGURES[@]}"
diff -r --exclude=ext_trace.json --exclude=ext_trace_checks.txt "$SMOKE3" target/figures-verify-t1 || {
    echo "artifacts differ between --threads 1 and the default thread count" >&2
    exit 1
}
rm -rf "$SMOKE_CACHE"

echo "verify: all green"
