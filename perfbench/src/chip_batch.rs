//! `chip_batch`: full-design batch timing. `BatchEngine::run` over
//! `Design::synthetic_groups` — shared-topology RC trees of 8–32 nodes
//! with perturbed values — at default options (order 2, tape on), on a
//! fresh engine per pass, once at 1 thread and once at every granted
//! core after a warm-up pass.

use std::time::Duration;

use awe_batch::{BatchEngine, BatchOptions, BatchRun, Design, NetResult};

use crate::common::{
    check_identical, digest, repeat_for, sample, serve_absent, set_up, BatchLayer, Rng,
};
use crate::layers::{accuracy_metrics, check_cold_solve, sim_delay, Pipeline};
use crate::report::{host_cores, latency, median, peak_rss_mb, rel, within, Metric, Outcome};
use crate::trace::Tracer;

/// Source step of every generated net.
const VDD: f64 = 5.0;
/// Nets re-solved cold per run.
const COLD_SAMPLE: usize = 24;

/// Design size: `groups` topologies × `members` nets each.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub groups: usize,
    pub members: usize,
}

pub const FULL: Size = Size {
    groups: 200,
    members: 100,
};

fn pass(design: &Design, threads: usize) -> BatchRun {
    let opts = BatchOptions {
        threads,
        ..BatchOptions::default()
    };
    BatchEngine::new().run(design, &opts)
}

/// Per-net contract: solved, stable, a finite positive delay, and the
/// final value at the source step.
pub fn check_results(results: &[NetResult]) -> Vec<String> {
    let mut bad = Vec::new();
    for r in results {
        if let Some(e) = &r.error {
            bad.push(format!("net {}: analysis failed: {e}", r.name));
            continue;
        }
        if !r.stable {
            bad.push(format!("net {}: unstable model", r.name));
        }
        match r.delay_50 {
            Some(d) if d.is_finite() && d > 0.0 => {}
            other => bad.push(format!("net {}: delay_50 {other:?}", r.name)),
        }
        if !within(r.final_value, VDD, 1e-9) {
            bad.push(format!("net {}: final value {}", r.name, r.final_value));
        }
    }
    bad
}

/// A seeded sample re-solved with a cold `AweEngine` (no batch, tape
/// or cache) must agree with the batch results within 1e-9.
pub fn check_cold(design: &Design, results: &[NetResult], picks: &[usize]) -> Vec<String> {
    picks
        .iter()
        .filter_map(|&i| {
            let net = &design.nets()[i];
            check_cold_solve(&net.circuit, net.output, &results[i])
        })
        .collect()
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    run_sized(FULL, seed, seconds, traced)
}

pub fn run_sized(size: Size, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let cores = host_cores();
    let generate = || Design::synthetic_groups(size.groups, size.members, seed);
    let mut setup_times = Vec::new();
    let mut design = None;
    set_up(&mut design, &mut setup_times, generate);
    let first = design.as_ref().expect("set-up ran");
    let nets = first.len();
    out.notes.push(format!(
        "{} nets ({} groups x {} members), {cores} cores, order 2, tape on",
        nets, size.groups, size.members
    ));

    // Warm-up: the first multi-thread pass of a process runs slow.
    let warm = pass(first, cores);
    let reference_run = pass(first, 1);
    out.attempted += 2 * nets as u64;
    out.absorb(check_results(&reference_run.results));
    let reference: Vec<u64> = reference_run.results.iter().map(digest).collect();
    out.absorb(check_identical("warm-up pass", &reference, &warm));
    let picks = sample(seed, 1, nets, COLD_SAMPLE);
    out.absorb(check_cold(first, &reference_run.results, &picks));
    drop(warm);

    // Timed cycles: set-up, a 1-thread pass, a pass at every core. The
    // host has slow stretches lasting seconds, so each figure samples
    // the whole window instead of one block of it.
    let window = Duration::from_secs_f64(seconds * if traced { 0.24 } else { 0.8 });
    let mut walls_1t = Vec::new();
    let mut walls_n = Vec::new();
    let mut latencies = Vec::new();
    let mut last_n = None;
    repeat_for(window, 3, || {
        set_up(&mut design, &mut setup_times, generate);
        let d = design.as_ref().expect("set-up ran");
        let r = pass(d, 1);
        walls_1t.push(r.wall.as_secs_f64());
        out.absorb(check_identical("1-thread pass", &reference, &r));
        drop(r);
        // One pass's results alive at a time.
        last_n = None;
        let r = pass(d, cores);
        walls_n.push(r.wall.as_secs_f64());
        latencies.push(
            r.timings
                .iter()
                .map(|t| t.latency.as_secs_f64() * 1e3)
                .collect(),
        );
        out.absorb(check_identical("multi-thread pass", &reference, &r));
        out.attempted += 2 * nets as u64;
        last_n = Some(r);
    });
    let design = design.expect("set-up ran");
    let (setup_s, setup_n) = (median(&setup_times), setup_times.len());
    let run_n = last_n.expect("at least one multi-thread pass");
    let run_1t_s = median(&walls_1t);
    let throughput_1t = nets as f64 / run_1t_s;
    let throughput = nets as f64 / median(&walls_n);
    let lat = latency(&latencies);
    out.notes.push(format!(
        "granted {} threads; per-net latency: medians over {} passes of each pass's p50 and p{:.2}",
        run_n.pool.threads, lat.parts, lat.tail_p
    ));

    if !traced {
        out.push(Metric::new("setup_s", setup_s, "s", setup_n));
        out.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
        out.push(
            Metric::new("throughput_per_s", throughput, "1/s", walls_n.len()).labeled("nets_per_s"),
        );
        out.print(Metric::new(
            "nets_per_s_1t",
            throughput_1t,
            "1/s",
            walls_1t.len(),
        ));
        out.print(Metric::new(
            "net_latency_p50_ms",
            lat.p50,
            "ms",
            lat.samples,
        ));
        out.push(
            Metric::new("latency_tail_ms", lat.tail, "ms", lat.samples)
                .labeled("net_latency_p99_ms"),
        );
        return out;
    }

    // Traced run: the same nets through each layer's public functions.
    let mut tr = Tracer::default();
    let s = tr.begin("circuit.generate");
    let regenerated = Design::synthetic_groups(size.groups, size.members, seed);
    tr.end(s);
    if regenerated.to_multi_deck() != design.to_multi_deck() {
        out.fail("design generation is not a function of the seed");
    }
    let mut pipe = Pipeline::new(2);
    let s = tr.begin("layers");
    for (net, r) in design.nets().iter().zip(&reference_run.results) {
        out.attempted += 1;
        if let Some(e) = pipe.solve_checked(&mut tr, &net.circuit, net.output, r.delay_50) {
            out.fail(format!("net {}: {e}", net.name));
        }
    }
    tr.end(s);

    let recording = awe_obs::Recording::start();
    let s = tr.begin("obs.recorded_run");
    let recorded = pass(&design, 1);
    tr.end(s);
    drop(recording.map(awe_obs::Recording::finish));
    out.attempted += nets as u64;
    out.absorb(check_identical("recorded pass", &reference, &recorded));

    let s = tr.begin("sim.oracle");
    let mut pairs = Vec::new();
    let mut worst: Option<(f64, usize, f64, f64)> = None;
    // One seeded member of every structure group: the accuracy tail is a
    // property of a topology, so every topology is checked.
    let mut rng = Rng::new(seed, 2);
    for i in (0..size.groups).map(|g| g * size.members + rng.below(size.members)) {
        let (net, r) = (&design.nets()[i], &reference_run.results[i]);
        let Some(d) = r.delay_50 else { continue };
        match sim_delay(&net.circuit, net.output, d) {
            Some(s) => {
                pairs.push((d, s));
                if worst.is_none_or(|w| rel(d, s) > w.0) {
                    worst = Some((rel(d, s), i, d, s));
                }
            }
            None => out
                .notes
                .push(format!("net {}: simulator found no crossing", net.name)),
        }
    }
    tr.end(s);
    if let Some((_, i, a, s)) = worst {
        out.notes.push(format!(
            "worst sampled AWE delay: net {} AWE {a:e} s vs simulated {s:e} s (known accuracy tail, not gated)",
            design.nets()[i].name
        ));
    }

    out.push(Metric::new("host.cores", cores as f64, "count", 1));
    out.push(Metric::new("circuit.generate_s", setup_s, "s", setup_n));
    out.metrics.extend(pipe.split.metrics());
    out.metrics.extend(accuracy_metrics(&pairs));
    out.metrics.extend(
        BatchLayer {
            run_1t_s,
            split: &pipe.split,
            run_n: &run_n,
            throughput,
            throughput_1t,
            solves_per_corner: None,
            new_symbolic_after_donor: 0.0,
        }
        .metrics(),
    );
    out.metrics.extend(serve_absent());
    out.push(Metric::new(
        "obs.trace_overhead_frac",
        recorded.wall.as_secs_f64() / run_1t_s,
        "ratio",
        1,
    ));
    match tr.write(&format!("chip_batch-seed{seed}")) {
        Ok(path) => out
            .notes
            .push(format!("{} spans written to {path}", tr.len())),
        Err(e) => out.fail(format!("writing the trace: {e}")),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Size = Size {
        groups: 3,
        members: 6,
    };

    fn tiny() -> (Design, BatchRun) {
        let design = Design::synthetic_groups(TINY.groups, TINY.members, 7);
        let run = pass(&design, 1);
        (design, run)
    }

    #[test]
    fn clean_run_passes_every_check() {
        let (design, run) = tiny();
        assert!(check_results(&run.results).is_empty());
        let picks: Vec<usize> = (0..design.len()).collect();
        assert!(check_cold(&design, &run.results, &picks).is_empty());
        let reference: Vec<u64> = run.results.iter().map(digest).collect();
        assert!(check_identical("t", &reference, &pass(&design, 2)).is_empty());
    }

    #[test]
    fn each_check_fires_on_a_corrupted_output() {
        let (design, run) = tiny();
        let corrupt = |f: &dyn Fn(&mut NetResult)| {
            let mut results = run.results.clone();
            f(&mut results[4]);
            results
        };
        assert_eq!(
            check_results(&corrupt(&|r| r.delay_50 = Some(-1e-12))).len(),
            1
        );
        assert_eq!(check_results(&corrupt(&|r| r.delay_50 = None)).len(), 1);
        assert_eq!(check_results(&corrupt(&|r| r.stable = false)).len(), 1);
        assert_eq!(
            check_results(&corrupt(&|r| r.final_value *= 1.0 + 1e-8)).len(),
            1
        );
        assert_eq!(
            check_results(&corrupt(&|r| r.error = Some("x".into()))).len(),
            1
        );
        let nudged = corrupt(&|r| r.delay_50 = r.delay_50.map(|d| d * (1.0 + 1e-8)));
        assert_eq!(check_cold(&design, &nudged, &[4]).len(), 1);
        let reference: Vec<u64> = run.results.iter().map(digest).collect();
        let mut other = pass(&design, 2);
        other.results[4].poles[0].0 *= 1.0 + f64::EPSILON;
        assert_eq!(check_identical("t", &reference, &other).len(), 1);
    }

    #[test]
    fn tiny_workload_runs_clean_in_both_modes() {
        let plain = run_sized(TINY, 3, 0.05, false);
        assert_eq!(plain.failed, 0, "{:?}", plain.failures);
        let traced = run_sized(TINY, 3, 0.05, true);
        assert_eq!(traced.failed, 0, "{:?}", traced.failures);
    }
}
