//! Pieces every workload shares: the seeded draw, the in-memory span
//! recorder, work counters, operator families and the raw report.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use robustmap::core::Measurement;
use robustmap::executor::{FetchKind, PlanSpec};
use robustmap::workload::{cache, TableBuilder, Workload, WorkloadConfig};

/// What one workload run is asked to do.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Seed of every workload input (table data, draws, churn stream).
    pub seed: u64,
    /// Wall seconds the measured closed loop runs for (at least the
    /// workload's minimum round count).
    pub seconds: f64,
    /// Whether the per-layer (traced) run is wanted.
    pub trace: bool,
    /// Sweep worker threads: `min(2, available cores)`.
    pub threads: usize,
}

impl RunSpec {
    /// Whether the closed loop may start another round.
    pub fn more_rounds(&self, started: Instant, rounds: usize, min_rounds: usize) -> bool {
        rounds < min_rounds || started.elapsed().as_secs_f64() < self.seconds
    }
}

/// SplitMix64: the benchmark's only source of seeded draws, so that one
/// seed fixes every plan, selectivity, burst and sample choice.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream keyed by `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One recorded span: a call into a layer, made from the benchmark.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The closed-loop round the span belongs to (its request id).
    pub round: usize,
    /// Recording thread: 0 is the benchmark thread, sweep workers are 1..
    pub tid: usize,
    pub start: Duration,
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// In-memory span recorder.  Disabled, it only times; enabled, it also
/// keeps every span until [`Tracer::to_chrome_json`] writes them out when
/// the benchmark ends.
pub struct Tracer {
    enabled: bool,
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            recording: enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Pause or resume recording (trace runs alternate untraced and
    /// traced rounds); a disabled tracer never records.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on && self.enabled;
    }

    /// Time `f` and record it as a span; `f` gets the span's index, the
    /// parent of any span it opens.  Returns the result and the seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        round: usize,
        parent: Option<usize>,
        f: impl FnOnce(&mut Self, Option<usize>) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let id = self.open(name, round, parent, start);
        let out = f(self, id);
        let end = Instant::now();
        if let Some(i) = id {
            self.spans[i].end = end - self.origin;
        }
        (out, (end - start).as_secs_f64())
    }

    fn open(
        &mut self,
        name: &'static str,
        round: usize,
        parent: Option<usize>,
        start: Instant,
    ) -> Option<usize> {
        if !self.recording {
            return None;
        }
        let at = start - self.origin;
        self.spans.push(Span {
            name,
            round,
            tid: 0,
            start: at,
            end: at,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Record a span measured elsewhere (a sweep worker's cell).
    pub fn record(
        &mut self,
        name: &'static str,
        round: usize,
        tid: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        if self.recording {
            let (start, end) = (start - self.origin, end - self.origin);
            self.spans.push(Span {
                name,
                round,
                tid,
                start,
                end,
                parent,
            });
        }
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let us = |d: Duration| d.as_nanos() as f64 / 1e3;
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"round\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.tid,
                us(s.start),
                us(s.end.saturating_sub(s.start)),
                s.round,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The per-cell wall-time metric of a plan's operator family, named
/// after its root operator.
pub fn family(plan: &PlanSpec) -> &'static str {
    match plan {
        PlanSpec::TableScan { .. } | PlanSpec::ParallelTableScan { .. } => {
            "executor.table_scan_ms_per_cell"
        }
        PlanSpec::IndexFetch {
            fetch: FetchKind::BitmapSorted,
            ..
        } => "executor.bitmap_fetch_ms_per_cell",
        PlanSpec::IndexFetch { .. } => "executor.index_fetch_ms_per_cell",
        PlanSpec::IndexIntersect { .. } => "executor.intersect_ms_per_cell",
        PlanSpec::CoveringIndexScan { .. }
        | PlanSpec::CoveringRidJoin { .. }
        | PlanSpec::Mdam { .. } => "executor.covering_ms_per_cell",
        PlanSpec::Join { .. } => "executor.join_ms_per_cell",
        PlanSpec::Sort { .. } | PlanSpec::HashAgg { .. } => "executor.sort_ms_per_cell",
    }
}

/// Every family metric [`family`] returns.
const FAMILIES: [&str; 7] = [
    "executor.table_scan_ms_per_cell",
    "executor.index_fetch_ms_per_cell",
    "executor.intersect_ms_per_cell",
    "executor.bitmap_fetch_ms_per_cell",
    "executor.covering_ms_per_cell",
    "executor.join_ms_per_cell",
    "executor.sort_ms_per_cell",
];

/// Deterministic work totals over a fixed prefix of a run's rounds.
#[derive(Debug, Clone, Default)]
pub struct Work {
    pub rows_out: u64,
    pub cpu_rows: u64,
    pub cpu_compares: u64,
    pub cpu_hashes: u64,
    pub spills: u64,
    pub sim_seconds: f64,
    pub page_requests: u64,
    pub pages_read: u64,
    pub buffer_hits: u64,
    pub page_writes: u64,
    pub evictions: u64,
}

impl Work {
    /// Fold in one plan execution.
    pub fn add(&mut self, m: &Measurement) {
        self.rows_out += m.rows;
        self.cpu_rows += m.io.cpu_rows;
        self.cpu_compares += m.io.cpu_compares;
        self.cpu_hashes += m.io.cpu_hashes;
        self.spills += m.spilled as u64;
        self.sim_seconds += m.seconds;
        self.add_storage(&m.io);
    }

    /// Fold in storage work that produced no plan output (churn batches).
    pub fn add_storage(&mut self, io: &robustmap::storage::IoStats) {
        self.page_requests += io.page_requests();
        self.pages_read += io.pages_read();
        self.buffer_hits += io.buffer_hits;
        self.page_writes += io.page_writes;
    }

    fn publish(&self, r: &mut Report) {
        let v = &mut r.values;
        v.insert("executor.rows_out", self.rows_out as f64);
        v.insert("executor.cpu_rows", self.cpu_rows as f64);
        v.insert("executor.cpu_compares", self.cpu_compares as f64);
        v.insert("executor.cpu_hashes", self.cpu_hashes as f64);
        v.insert("executor.spills", self.spills as f64);
        v.insert("executor.sim_seconds_sum", self.sim_seconds);
        v.insert("storage.page_requests", self.page_requests as f64);
        v.insert("storage.pages_read", self.pages_read as f64);
        v.insert(
            "storage.buffer_hit_ratio",
            self.buffer_hits as f64 / self.page_requests.max(1) as f64,
        );
        v.insert("storage.page_writes", self.page_writes as f64);
        v.insert("storage.evictions", self.evictions as f64);
    }
}

/// Per-family wall time of plans measured one at a time.
#[derive(Debug, Clone, Default)]
pub struct FamilyTimes(BTreeMap<&'static str, (f64, u64)>);

impl FamilyTimes {
    pub fn add(&mut self, family: &'static str, seconds: f64) {
        let e = self.0.entry(family).or_default();
        e.0 += seconds;
        e.1 += 1;
    }

    fn publish(&self, r: &mut Report) {
        for f in FAMILIES {
            let (s, n) = self.0.get(f).copied().unwrap_or_default();
            let ms = if n == 0 { 0.0 } else { 1e3 * s / n as f64 };
            r.values.insert(f, ms);
        }
    }
}

/// Output checks: attempted and failed, with the first few failures.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// Bit-for-bit equality of two measurements of the same plan.
pub fn same_measurement(a: &Measurement, b: &Measurement) -> bool {
    a.seconds.to_bits() == b.seconds.to_bits()
        && a.io == b.io
        && a.rows == b.rows
        && a.spilled == b.spilled
}

/// A run's raw results.  The wrapper (`run.py`) turns them into the
/// benchmark's metrics: medians of `samples` and of the round times,
/// `values` as they are.
#[derive(Debug, Default)]
pub struct Report {
    /// Seconds of each workload build (set-up).
    pub setup_s: Vec<f64>,
    /// Peak RSS of each workload build, in MiB.
    pub setup_peak_rss_mib: Vec<f64>,
    /// Wall seconds of each measured closed-loop round.
    pub rounds_s: Vec<f64>,
    /// Trace runs only: rounds run untraced first, for the overhead ratio.
    pub untraced_rounds_s: Vec<f64>,
    /// Operations completed by the measured rounds, and the seconds of
    /// the layer call that did them.
    pub ops: u64,
    pub ops_s: f64,
    pub checks: Checks,
    /// Per-layer timing samples, one per round (medians are reported).
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer latency samples whose tail percentile is reported.
    pub tails: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer scalars: deterministic counters and ratios.
    pub values: BTreeMap<&'static str, f64>,
    /// Workload parameters for the run manifest.
    pub params: Vec<(&'static str, String)>,
}

impl Report {
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Per-layer metrics of layers this workload bypasses: the
    /// prediction for them is "no change", so they read 0.
    pub fn bypassed(&mut self, names: &[&'static str]) {
        for n in names {
            self.values.insert(n, 0.0);
        }
    }

    /// Publish the deterministic counters and the family times.
    pub fn publish(&mut self, work: &Work, families: &FamilyTimes) {
        work.publish(self);
        families.publish(self);
    }

    pub fn to_json(&self, peak_rss_mib: f64) -> String {
        let list = |v: &[f64]| {
            let items: Vec<String> = v.iter().map(|x| num(*x)).collect();
            format!("[{}]", items.join(","))
        };
        let mut out = String::from("{");
        let _ = write!(out, "\"setup_s\":{},", list(&self.setup_s));
        let _ = write!(
            out,
            "\"setup_peak_rss_mib\":{},",
            list(&self.setup_peak_rss_mib)
        );
        let _ = write!(out, "\"rounds_s\":{},", list(&self.rounds_s));
        let _ = write!(
            out,
            "\"untraced_rounds_s\":{},",
            list(&self.untraced_rounds_s)
        );
        let _ = write!(out, "\"ops\":{},\"ops_s\":{},", self.ops, num(self.ops_s));
        let _ = write!(out, "\"peak_rss_mib\":{},", num(peak_rss_mib));
        let failures: Vec<String> = self
            .checks
            .failures
            .iter()
            .map(|f| format!("\"{}\"", escape(f)))
            .collect();
        let _ = write!(
            out,
            "\"checks\":{{\"attempted\":{},\"failed\":{},\"failures\":[{}]}},",
            self.checks.attempted,
            self.checks.failed,
            failures.join(",")
        );
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", list(v)))
            .collect();
        let _ = write!(out, "\"samples\":{{{}}},", samples.join(","));
        let tails: Vec<String> = self
            .tails
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", list(v)))
            .collect();
        let _ = write!(out, "\"tails\":{{{}}},", tails.join(","));
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("\"{k}\":{}", num(*v)))
            .collect();
        let _ = write!(out, "\"values\":{{{}}}", values.join(","));
        out.push('}');
        out
    }
}

/// A JSON number with every digit (`{:?}` round-trips `f64`).
pub fn num(x: f64) -> String {
    assert!(x.is_finite(), "non-finite benchmark value {x}");
    format!("{x:?}")
}

pub fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', " ")
}

/// Set-up: build the workload `builds` times from the seed with the
/// workload cache bypassed, timing each build and reading its peak RSS;
/// keeps the last.  The resident-set high-water mark restarts before
/// each build and after the last, so the closed loop's peak is its own.
pub fn setup(rows: u64, seed: u64, builds: usize, r: &mut Report, tr: &mut Tracer) -> Workload {
    let config = WorkloadConfig {
        rows,
        seed,
        ..WorkloadConfig::default()
    };
    let mut w = None;
    for i in 0..builds {
        // Free the previous copy first, so peak memory is one workload.
        drop(w.take());
        reset_peak_rss();
        let (built, s) = tr.span("workload.build", i, None, |_, _| {
            TableBuilder::build(config.clone())
        });
        r.setup_s.push(s);
        r.setup_peak_rss_mib.push(peak_rss_mib());
        r.sample("workload.build_s", s);
        w = Some(built);
    }
    reset_peak_rss();
    w.expect("at least one build")
}

/// Restart the resident-set high-water mark (`VmHWM`) at the current
/// resident set.  The allocator is left alone: memory it keeps from
/// before still counts.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("resetting the resident-set high-water mark (VmHWM)");
}

/// Peak resident set size (`VmHWM`) since the last reset, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}

extern "C" {
    /// glibc: the CPU mask of thread `pid` (0: the calling thread).
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    /// glibc: set the CPU mask of thread `pid` (0: the calling thread).
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: 1,024 bits.
type CpuMask = [u64; 16];

/// The CPUs the calling thread may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of its own size.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    let cpus: Vec<usize> = (0..64 * mask.len())
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    assert!(!cpus.is_empty(), "the thread may run on some CPU");
    cpus
}

/// Pin the calling thread, and every thread it starts from now on, to
/// `cpu`.
pub fn pin_to_cpu(cpu: usize) {
    let mut one: CpuMask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of its own size.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity failed");
}

/// Traced runs only: the cost of a workload cache hit, which the figures
/// binary pays on every run.  The cache directory is the benchmark's own
/// (`ROBUSTMAP_WORKLOAD_CACHE`); the file is removed afterwards.
pub fn cache_load(w: &Workload, r: &mut Report, tr: &mut Tracer) {
    let Some(path) = cache::cache_path(&w.config) else {
        r.values.insert("workload.cache_load_s", 0.0);
        return;
    };
    cache::store(w);
    let (loaded, s) = tr.span("workload.cache_load", 0, None, |_, _| {
        cache::load(&w.config)
    });
    let _ = std::fs::remove_file(&path);
    r.checks.check(
        loaded.is_some_and(|l| l.rows() == w.rows() && l.heap_pages() == w.heap_pages()),
        || "workload cache round trip lost rows or pages".into(),
    );
    r.values.insert("workload.cache_load_s", s);
}
