//! `pdn_sweep`: Monte-Carlo corners on a power grid. `batch::sweep`
//! over `pdn_design(PdnSpec::square(n))` with 4 observation taps and
//! σ = 0.05, on a fresh engine per sweep, at 1 thread and at every
//! granted core. The mesh is large enough (40×40, about 1.7k unknowns)
//! that dense MNA assembly and the sparse refactor/moment lanes dominate.

use std::time::{Duration, Instant};

use awe_batch::{
    corner_circuit, pdn_design, sweep, BatchEngine, BatchOptions, CornerSpec, Design, SweepRun,
};
use awe_circuit::pdn::PdnSpec;

use crate::common::{repeat_for, sample, serve_absent, set_up, BatchLayer};
use crate::layers::{accuracy_metrics, check_cold_solve, sim_delay, Pipeline};
use crate::report::{host_cores, latency, median, peak_rss_mb, within, Metric, Outcome};
use crate::trace::Tracer;

pub const SIGMA: f64 = 0.05;
/// Relative agreement the small-mesh worst corner must reach against
/// the trapezoidal simulator.
const SIM_TOL: f64 = 0.01;

#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Mesh side of the timed sweeps.
    pub mesh: usize,
    /// Corners per sweep.
    pub corners: usize,
    /// Mesh side of the simulator cross-check.
    pub oracle_mesh: usize,
}

pub const FULL: Size = Size {
    mesh: 40,
    corners: 16,
    oracle_mesh: 12,
};

fn spec(mesh: usize) -> PdnSpec {
    PdnSpec {
        taps: 4,
        ..PdnSpec::square(mesh)
    }
}

fn run_sweep(base: &Design, corners: &CornerSpec, threads: usize) -> (SweepRun, f64) {
    let opts = BatchOptions {
        threads,
        ..BatchOptions::default()
    };
    let t = Instant::now();
    let run = sweep(&BatchEngine::new(), base, corners, &opts);
    (run, t.elapsed().as_secs_f64())
}

/// Sweep contract: no corner rejected, and every member solved, stable,
/// with a finite positive delay and the tap settling at vdd.
pub fn check_sweep(run: &SweepRun, vdd: f64) -> Vec<String> {
    let mut bad = Vec::new();
    for r in &run.rejected {
        bad.push(format!("corner rejected: {r}"));
    }
    for r in &run.run.results {
        if let Some(e) = &r.error {
            bad.push(format!("member {}: analysis failed: {e}", r.name));
            continue;
        }
        if !r.stable {
            bad.push(format!("member {}: unstable model", r.name));
        }
        match r.delay_50 {
            Some(d) if d.is_finite() && d > 0.0 => {}
            other => bad.push(format!("member {}: delay_50 {other:?}", r.name)),
        }
        if !within(r.final_value, vdd, 1e-9) {
            bad.push(format!("member {}: final value {}", r.name, r.final_value));
        }
    }
    bad
}

/// On a mesh above the sparse threshold the donor pays the only
/// symbolic analysis; every other corner replays it.
pub fn check_symbolic(run: &SweepRun) -> Vec<String> {
    if run.new_symbolic_after_donor == 0 {
        return Vec::new();
    }
    vec![format!(
        "new_symbolic_after_donor = {}",
        run.new_symbolic_after_donor
    )]
}

/// Corner `corner` re-derived from `(base, spec, corner)` and solved
/// cold per tap must agree with the sweep within 1e-9.
pub fn check_cold_corner(
    base: &Design,
    spec: &CornerSpec,
    run: &SweepRun,
    corner: usize,
) -> Vec<String> {
    let mut bad = Vec::new();
    for (m, &(k, net)) in run.members.iter().enumerate() {
        if k != corner {
            continue;
        }
        let r = &run.run.results[m];
        let base_net = &base.nets()[net];
        match corner_circuit(&base_net.circuit, spec, corner) {
            Ok(c) => bad.extend(check_cold_solve(&c, base_net.output, r)),
            Err(e) => bad.push(format!("member {}: {e}", r.name)),
        }
    }
    bad
}

/// The worst corner of every tap of a small-mesh sweep against the
/// trapezoidal simulator: `(awe, sim)` pairs plus failures beyond 1 %.
pub fn check_oracle(
    base: &Design,
    spec: &CornerSpec,
    run: &SweepRun,
) -> (Vec<(f64, f64)>, Vec<String>) {
    let mut pairs = Vec::new();
    let mut bad = Vec::new();
    for (node, net) in run.nodes.iter().zip(base.nets()) {
        let (Some(corner), Some(worst)) = (node.worst_corner, node.worst_delay) else {
            bad.push(format!("tap {}: no worst corner", node.node));
            continue;
        };
        let sim = corner_circuit(&net.circuit, spec, corner)
            .ok()
            .and_then(|c| sim_delay(&c, net.output, worst));
        match sim {
            Some(s) => {
                if !within(worst, s, SIM_TOL) {
                    bad.push(format!(
                        "tap {}: worst corner {corner} AWE {worst:e} vs simulated {s:e}",
                        node.node
                    ));
                }
                pairs.push((worst, s));
            }
            None => bad.push(format!("tap {}: simulator found no crossing", node.node)),
        }
    }
    (pairs, bad)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    run_sized(FULL, seed, seconds, traced)
}

pub fn run_sized(size: Size, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let cores = host_cores();
    let pdn = spec(size.mesh);
    let mut setup_times = Vec::new();
    let mut base = None;
    set_up(&mut base, &mut setup_times, || pdn_design("pdn", &pdn));
    let first = base.as_ref().expect("set-up ran");
    let corners = CornerSpec::new(size.corners, SIGMA, seed);
    let members = (size.corners * first.len()) as u64;
    out.notes.push(format!(
        "{0}x{0} mesh, {1} nodes, {2} taps, {3} corners per sweep, sigma {SIGMA}, {cores} cores",
        size.mesh,
        pdn.node_count(),
        first.len(),
        size.corners
    ));

    // Warm-up sweep; its digest is the reference every later sweep,
    // at any thread count, must reproduce.
    let (reference, _) = run_sweep(first, &corners, cores);
    out.attempted += members;
    out.absorb(check_sweep(&reference, pdn.vdd));
    out.absorb(check_symbolic(&reference));
    let corner = sample(seed, 3, size.corners, 1)[0];
    out.absorb(check_cold_corner(first, &corners, &reference, corner));
    let digest = reference.digest();
    let check = |out: &mut Outcome, run: &SweepRun| {
        out.attempted += members;
        out.absorb(check_sweep(run, pdn.vdd));
        out.absorb(check_symbolic(run));
        if run.digest() != digest {
            out.fail(format!(
                "sweep digest {:016x} != reference {digest:016x}",
                run.digest()
            ));
        }
    };

    // Timed cycles: set-up, a 1-thread sweep, a sweep at every core.
    // The host has slow stretches lasting seconds, so each figure
    // samples the whole window instead of one block of it.
    let window = Duration::from_secs_f64(seconds * if traced { 0.16 } else { 0.8 });
    let mut walls_1t = Vec::new();
    let mut run_1t_s = Vec::new();
    let mut walls_n = Vec::new();
    let mut latencies = Vec::new();
    let mut last_n = None;
    repeat_for(window, 2, || {
        set_up(&mut base, &mut setup_times, || pdn_design("pdn", &pdn));
        let b = base.as_ref().expect("set-up ran");
        let (r, wall) = run_sweep(b, &corners, 1);
        check(&mut out, &r);
        walls_1t.push(wall);
        run_1t_s.push(r.run.wall.as_secs_f64());
        drop(r);
        // One sweep's results alive at a time.
        last_n = None;
        let (r, wall) = run_sweep(b, &corners, cores);
        check(&mut out, &r);
        walls_n.push(wall);
        latencies.push(
            r.run
                .timings
                .iter()
                .map(|t| t.latency.as_secs_f64() * 1e3)
                .collect(),
        );
        last_n = Some(r);
    });
    let base = base.expect("set-up ran");
    let run_n = last_n.expect("at least one multi-thread sweep");
    let throughput = size.corners as f64 / median(&walls_n);
    let throughput_1t = size.corners as f64 / median(&walls_1t);
    let lat = latency(&latencies);
    out.notes.push(format!(
        "granted {} threads; per-member latency: medians over {} sweeps of each sweep's p50 and p{:.2}",
        run_n.run.pool.threads, lat.parts, lat.tail_p
    ));

    let small_base = pdn_design("pdn-oracle", &spec(size.oracle_mesh));
    let (small, _) = run_sweep(&small_base, &corners, cores);
    out.attempted += (size.corners * small_base.len()) as u64;
    out.absorb(check_sweep(&small, pdn.vdd));
    let (pairs, bad) = check_oracle(&small_base, &corners, &small);
    out.absorb(bad);

    if !traced {
        out.push(Metric::new(
            "setup_s",
            median(&setup_times),
            "s",
            setup_times.len(),
        ));
        out.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
        out.push(
            Metric::new("throughput_per_s", throughput, "1/s", walls_n.len())
                .labeled("corners_per_s"),
        );
        out.print(Metric::new(
            "corners_per_s_1t",
            throughput_1t,
            "1/s",
            walls_1t.len(),
        ));
        out.print(Metric::new(
            "member_latency_p50_ms",
            lat.p50,
            "ms",
            lat.samples,
        ));
        out.push(
            Metric::new("latency_tail_ms", lat.tail, "ms", lat.samples)
                .labeled("member_latency_tail_ms"),
        );
        return out;
    }

    // Traced run: every corner member through the layers, the corner
    // circuits regenerated the way the sweep generates them.
    let mut tr = Tracer::default();
    let mut pipe = Pipeline::new(2);
    let mut generate_s = 0.0;
    let s = tr.begin("layers");
    for (m, &(k, net)) in reference.members.iter().enumerate() {
        let base_net = &base.nets()[net];
        let g = tr.begin("circuit.generate");
        let circuit = corner_circuit(&base_net.circuit, &corners, k);
        generate_s += tr.end(g);
        out.attempted += 1;
        let want = reference.run.results[m].delay_50;
        let failure = match circuit {
            Ok(c) => pipe.solve_checked(&mut tr, &c, base_net.output, want),
            Err(e) => Some(e.to_string()),
        };
        if let Some(e) = failure {
            out.fail(format!("member {m}: {e}"));
        }
    }
    tr.end(s);

    let recording = awe_obs::Recording::start();
    let s = tr.begin("obs.recorded_sweep");
    let (recorded, recorded_wall) = run_sweep(&base, &corners, 1);
    tr.end(s);
    drop(recording.map(awe_obs::Recording::finish));
    check(&mut out, &recorded);

    let run_1t = median(&run_1t_s);
    out.push(Metric::new("host.cores", cores as f64, "count", 1));
    out.push(Metric::new(
        "circuit.generate_s",
        generate_s,
        "s",
        reference.members.len(),
    ));
    out.metrics.extend(pipe.split.metrics());
    out.metrics.extend(accuracy_metrics(&pairs));
    out.metrics.extend(
        BatchLayer {
            run_1t_s: run_1t,
            split: &pipe.split,
            run_n: &run_n.run,
            throughput,
            throughput_1t,
            solves_per_corner: Some(run_n.run.solves as f64 / size.corners as f64),
            new_symbolic_after_donor: run_n.new_symbolic_after_donor as f64,
        }
        .metrics(),
    );
    out.metrics.extend(serve_absent());
    out.push(Metric::new(
        "obs.trace_overhead_frac",
        recorded_wall / median(&walls_1t),
        "ratio",
        1,
    ));
    match tr.write(&format!("pdn_sweep-seed{seed}")) {
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
        mesh: 15,
        corners: 3,
        oracle_mesh: 6,
    };

    #[test]
    fn each_check_fires_on_a_corrupted_output() {
        let base = pdn_design("t", &spec(TINY.mesh));
        let corners = CornerSpec::new(TINY.corners, SIGMA, 5);
        let (run, _) = run_sweep(&base, &corners, 2);
        assert!(check_sweep(&run, 1.0).is_empty());
        assert!(check_cold_corner(&base, &corners, &run, 1).is_empty());

        let mut bad = run.clone();
        assert!(check_symbolic(&run).is_empty());
        bad.new_symbolic_after_donor = 1;
        assert_eq!(check_symbolic(&bad).len(), 1);
        let mut bad = run.clone();
        bad.run.results[2].final_value *= 1.0 + 1e-8;
        assert_eq!(check_sweep(&bad, 1.0).len(), 1);
        let mut bad = run.clone();
        bad.run.results[2].stable = false;
        assert_eq!(check_sweep(&bad, 1.0).len(), 1);
        let mut bad = run.clone();
        bad.rejected.push(awe_batch::CornerError {
            corner: 0,
            net: "n".into(),
            element: "R1".into(),
            value: -1.0,
        });
        assert_eq!(check_sweep(&bad, 1.0).len(), 1);
        let mut bad = run.clone();
        let m = bad
            .members
            .iter()
            .position(|&(k, _)| k == 1)
            .expect("corner 1");
        bad.run.results[m].delay_50 = bad.run.results[m].delay_50.map(|d| d * (1.0 + 1e-8));
        assert_eq!(check_cold_corner(&base, &corners, &bad, 1).len(), 1);

        let small = pdn_design("o", &spec(TINY.oracle_mesh));
        let (srun, _) = run_sweep(&small, &corners, 1);
        let (pairs, fails) = check_oracle(&small, &corners, &srun);
        assert!(fails.is_empty(), "{fails:?}");
        assert_eq!(pairs.len(), small.len());
        let mut bad = srun.clone();
        bad.nodes[0].worst_delay = bad.nodes[0].worst_delay.map(|d| d * 1.02);
        assert_eq!(check_oracle(&small, &corners, &bad).1.len(), 1);
    }

    #[test]
    fn tiny_workload_runs_clean_in_both_modes() {
        let plain = run_sized(TINY, 9, 0.05, false);
        assert_eq!(plain.failed, 0, "{:?}", plain.failures);
        let traced = run_sized(TINY, 9, 0.05, true);
        assert_eq!(traced.failed, 0, "{:?}", traced.failures);
    }
}
