//! Metric records, quantiles, process memory, and the result line.

/// One reported figure. `key` is the name in the result JSON (shared by
/// every workload); `label` is the workload's own name for the same
/// quantity, printed in the human-readable block.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub key: &'static str,
    pub label: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
}

impl Metric {
    pub fn new(key: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            key,
            label: key,
            value,
            unit,
            samples,
        }
    }

    /// The same metric under the workload's own name.
    pub fn labeled(mut self, label: &'static str) -> Self {
        self.label = label;
        self
    }
}

/// What one workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: nets, corner members or requests.
    pub attempted: u64,
    /// Operations that failed, plus every failed correctness check.
    pub failed: u64,
    /// One line per failure, printed before the result line.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Figures printed in the `#` block only, not in the result line:
    /// their run-to-run spread on a shared host exceeds any bound a
    /// regression check could hold them to.
    pub printed: Vec<Metric>,
    /// Context lines (sizes, cores, known limits) for the human block.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(msg.into());
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Adds a figure to the `#` block only.
    pub fn print(&mut self, m: Metric) {
        self.printed.push(m);
    }

    /// Appends `checks` (from a `check_*` function) as failures.
    pub fn absorb(&mut self, checks: Vec<String>) {
        for c in checks {
            self.fail(c);
        }
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile, up to p99, that still has at least ten
/// samples beyond it, as `(percentile, value)`. With fewer than eleven
/// samples there is no such percentile and the maximum is returned with
/// percentile 100.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n <= 10 {
        return (100.0, sorted.last().copied().unwrap_or(0.0));
    }
    let p = (100.0 * (n - 10) as f64 / n as f64).min(99.0);
    (p, percentile(sorted, p))
}

/// A latency figure robust to a slow stretch of the host: the samples
/// come in parts (passes, sweeps, or consecutive time slices), and the
/// p50 and the [`tail`] of each part are taken, then their medians.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    pub p50: f64,
    /// Percentile of the tail (the same in every equal-sized part).
    pub tail_p: f64,
    pub tail: f64,
    pub samples: usize,
    pub parts: usize,
}

pub fn latency(parts: &[Vec<f64>]) -> Latency {
    let mut p50 = Vec::new();
    let mut tails = Vec::new();
    let mut tail_p = Vec::new();
    for part in parts {
        let s = sorted(part.clone());
        let (p, t) = tail(&s);
        p50.push(percentile(&s, 50.0));
        tails.push(t);
        tail_p.push(p);
    }
    Latency {
        p50: median(&p50),
        tail_p: median(&tail_p),
        tail: median(&tails),
        samples: parts.iter().map(Vec::len).sum(),
        parts: parts.len(),
    }
}

/// Splits time-ordered samples into consecutive parts of at least
/// `min` samples each (one part when there are fewer).
pub fn slices(samples: &[f64], min: usize) -> Vec<Vec<f64>> {
    let k = (samples.len() / min.max(1)).max(1);
    (0..k)
        .map(|i| samples[i * samples.len() / k..(i + 1) * samples.len() / k].to_vec())
        .collect()
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Peak resident set of this process (`VmHWM`), in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Cores this process may use.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Relative difference `|a − b| / max(|b|, tiny)`.
pub fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
}

/// Whether `a` is within relative `tol` of `b`; false when either is NaN,
/// so a missing value never passes a check.
pub fn within(a: f64, b: f64, tol: f64) -> bool {
    rel(a, b) <= tol
}

/// Prints the human-readable block and the result line (last line of
/// stdout). Non-finite values cannot be represented in JSON: they print
/// as 0 and count as a failure.
pub fn print_outcome(workload: &str, seed: u64, mut out: Outcome) {
    let non_finite = out
        .metrics
        .iter()
        .chain(&out.printed)
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("metric {} is not finite", m.key))
        .collect();
    out.absorb(non_finite);
    for n in &out.notes {
        println!("# {workload}: {n}");
    }
    let shown = out.metrics.iter().map(|m| (m, true));
    for (m, in_result) in shown.chain(out.printed.iter().map(|m| (m, false))) {
        let alias = if !in_result {
            "  [not in the result line]".to_owned()
        } else if m.label == m.key {
            String::new()
        } else {
            format!("  [{}]", m.key)
        };
        println!(
            "# {workload} {:<28} {:>16.6} {:<6} n={}{alias}",
            m.label, m.value, m.unit, m.samples
        );
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "# {workload} {:<28} {:>16.6} {:<6} n={}  (failed {} of {} attempted, seed {seed})",
        "failed_frac", frac, "frac", out.attempted, out.failed, out.attempted
    );
    for f in &out.failures {
        println!("# FAILED {workload}: {f}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.key, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, x) = tail(&v);
        assert_eq!(p, 90.0);
        assert_eq!(x, 90.0);
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 1980.0));
    }

    #[test]
    fn latency_takes_medians_over_parts() {
        let parts = slices(&(1..=3000).map(f64::from).collect::<Vec<_>>(), 1000);
        assert_eq!(parts.len(), 3);
        let l = latency(&parts);
        assert_eq!((l.p50, l.tail_p, l.tail), (1500.0, 99.0, 1990.0));
        assert_eq!((l.samples, l.parts), (3000, 3));
        assert_eq!(slices(&[1.0, 2.0], 1000).len(), 1);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
