//! Pieces shared by the three workloads: the seeded sampler, result
//! digests, the batch-layer metric block, and the fixed metric lists.

use std::time::{Duration, Instant};

use awe_batch::{BatchRun, NetResult, RunMetrics};

use crate::layers::LayerSplit;
use crate::report::Metric;

/// Every end-to-end metric, in output order. Each workload reports all
/// of them under these shared names (its own names are the labels).
/// The 1-thread throughputs and the p50 latencies are printed in the
/// `#` block instead: the host's drift moved them by 20–28 % between
/// runs of the same code, beyond the widest bound a check can hold.
pub const END_TO_END: [&str; 4] = [
    "setup_s",
    "peak_rss_mb",
    "throughput_per_s",
    "latency_tail_ms",
];

/// Serve-layer metrics; zero on workloads that never reach the daemon.
pub const SERVE: [(&str, &str); 12] = [
    ("serve.load_design_p50_us", "us"),
    ("serve.load_design_p99_us", "us"),
    ("serve.eco_p50_us", "us"),
    ("serve.eco_p99_us", "us"),
    ("serve.analyze_p50_us", "us"),
    ("serve.analyze_p99_us", "us"),
    ("serve.report_p50_us", "us"),
    ("serve.report_p99_us", "us"),
    ("serve.metrics_p50_us", "us"),
    ("serve.metrics_p99_us", "us"),
    ("serve.read_p99_ms", "ms"),
    ("serve.queue_ms", "ms"),
];

/// Every per-layer metric, in output order.
pub fn per_layer_keys() -> Vec<&'static str> {
    let mut keys = vec![
        "host.cores",
        "circuit.generate_s",
        "mna.assemble_s",
        "mna.unknowns",
        "mna.dense_bytes",
        "numeric.factor_s",
        "numeric.refactor_s",
        "numeric.fill_ratio",
        "core.moments_s",
        "core.reduce_s",
        "core.escalations",
        "core.delay_err_p50",
        "core.delay_err_p95",
        "core.delay_err_max",
        "batch.run_s",
        "batch.unattributed_s",
        "batch.scaling_eff",
        "batch.granted_threads",
        "batch.steals",
        "batch.solves_per_corner",
        "batch.pattern_hit_rate",
        "batch.new_symbolic_after_donor",
        "batch.lane_occupancy",
        "batch.scalar_fallbacks",
    ];
    keys.extend(SERVE.iter().map(|(k, _)| *k));
    keys.push("obs.trace_overhead_frac");
    keys
}

/// splitmix64: the benchmark's own input stream, so inputs depend on
/// the seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `k` distinct indices below `n`, ascending.
pub fn sample(seed: u64, stream: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, stream);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k.min(n) {
        picked.insert(rng.below(n));
    }
    picked.into_iter().collect()
}

/// FNV-1a over a net result's full debug rendering — every field,
/// floats by their exact round-trip digits — so equal digests mean
/// byte-identical results.
pub fn digest(r: &NetResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{r:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Nets of `run` whose results differ from `reference` digests.
pub fn check_identical(what: &str, reference: &[u64], run: &BatchRun) -> Vec<String> {
    if reference.len() != run.results.len() {
        return vec![format!(
            "{what}: {} results vs {} in the reference",
            run.results.len(),
            reference.len()
        )];
    }
    run.results
        .iter()
        .zip(reference)
        .filter(|(r, d)| digest(r) != **d)
        .map(|(r, _)| format!("{what}: net {} differs from the 1-thread result", r.name))
        .collect()
}

/// Set-up is repeated for at least this long (and at least
/// [`SETUP_MIN_REPS`] times); `setup_s` is the median repetition. The
/// first two repetitions of a process run 20–50 % slow while its heap
/// grows, so the median needs several more behind them.
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);
pub const SETUP_MIN_REPS: usize = 7;

/// Set-up repeated at the start of every timed cycle for at least this
/// long (and at least once), so its samples span the whole run rather
/// than one stretch of the host; `setup_s` is the median repetition.
pub const SETUP_SLICE: Duration = Duration::from_millis(100);

/// Regenerates `slot` with `make` for at least [`SETUP_SLICE`], freeing
/// the previous value before each repetition (set-up holds one value
/// at a time), and appends each repetition's seconds to `times`.
pub fn set_up<T>(slot: &mut Option<T>, times: &mut Vec<f64>, mut make: impl FnMut() -> T) {
    times.extend(repeat_for(SETUP_SLICE, 1, || {
        *slot = None;
        let t = Instant::now();
        *slot = Some(make());
        t.elapsed().as_secs_f64()
    }));
}

/// Runs `f` until `budget` has passed and at least `min` times,
/// returning each call's result.
pub fn repeat_for<T>(budget: Duration, min: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed() < budget {
        out.push(f());
    }
    out
}

/// Inputs of the batch-layer metric block.
pub struct BatchLayer<'a> {
    /// Median untraced 1-thread wall of the workload's batch entry call.
    pub run_1t_s: f64,
    /// Layer totals of the traced pipeline on the same inputs.
    pub split: &'a LayerSplit,
    /// An untraced run at the granted thread count.
    pub run_n: &'a BatchRun,
    /// Workload throughput at the granted thread count and at 1 thread.
    pub throughput: f64,
    pub throughput_1t: f64,
    /// Solves per corner (`None` off the sweep workload).
    pub solves_per_corner: Option<f64>,
    pub new_symbolic_after_donor: f64,
}

impl BatchLayer<'_> {
    pub fn metrics(&self) -> Vec<Metric> {
        let m = RunMetrics::of(self.run_n);
        let granted = self.run_n.pool.threads;
        let hit_rate = if self.run_n.solves > 0 {
            self.run_n.pattern_hits as f64 / self.run_n.solves as f64
        } else {
            0.0
        };
        let nets = self.run_n.results.len();
        vec![
            Metric::new("batch.run_s", self.run_1t_s, "s", 1),
            Metric::new(
                "batch.unattributed_s",
                self.run_1t_s - self.split.attributed_s(),
                "s",
                1,
            ),
            Metric::new(
                "batch.scaling_eff",
                self.throughput / (granted.max(1) as f64 * self.throughput_1t),
                "ratio",
                1,
            ),
            Metric::new("batch.granted_threads", granted as f64, "count", 1),
            Metric::new(
                "batch.steals",
                self.run_n.pool.total_steals() as f64,
                "count",
                1,
            ),
            Metric::new(
                "batch.solves_per_corner",
                self.solves_per_corner.unwrap_or(0.0),
                "count",
                1,
            ),
            Metric::new("batch.pattern_hit_rate", hit_rate, "frac", nets),
            Metric::new(
                "batch.new_symbolic_after_donor",
                self.new_symbolic_after_donor,
                "count",
                1,
            ),
            Metric::new(
                "batch.lane_occupancy",
                m.lane_occupancy.unwrap_or(0.0),
                "frac",
                m.tape_replays,
            ),
            Metric::new(
                "batch.scalar_fallbacks",
                m.scalar_fallbacks as f64,
                "count",
                nets,
            ),
        ]
    }
}

/// The serve block for a workload that never reaches the daemon.
pub fn serve_absent() -> Vec<Metric> {
    SERVE
        .iter()
        .map(|&(k, unit)| Metric::new(k, 0.0, unit, 0))
        .collect()
}
