//! `eco_serve`: incremental ECO edits against a warm daemon. An
//! in-process `ServeState` driven through `handle_line`: a cold
//! `load_design` of chains above the sparse threshold, then closed-loop
//! clients — first one, then two sharing the one warm session — running
//! a seeded mix of value edits (`eco` resize + `analyze`), topology
//! edits (`eco` add-cap + `analyze`) and reads (`report`, `metrics`).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use awe_batch::{BatchEngine, BatchOptions, Design};
use awe_serve::{handle_line, EcoOp, Json, ServeOptions, ServeState};

use crate::common::{repeat_for, sample, BatchLayer, Rng, SERVE, SETUP_BUDGET, SETUP_MIN_REPS};
use crate::layers::{accuracy_metrics, sim_delay, Pipeline};
use crate::report::{
    host_cores, latency, median, peak_rss_mb, percentile, slices, sorted, Metric, Outcome,
};
use crate::trace::Tracer;

const SESSION: &str = "eco";
const SIM_SAMPLE: usize = 3;

#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub nets: usize,
    pub stages: usize,
}

/// 200 stages puts every chain above the sparse-LU threshold.
/// Sessions analyze on one thread (`opts.threads = 1`): with two
/// clients the load then uses exactly the host's two cores.
pub const FULL: Size = Size {
    nets: 500,
    stages: 200,
};

/// Closed-loop iterations per second of one client alone, and of each
/// of two clients together, a little under what a 2-core host
/// sustains: they size the phases.
const RATE_1: f64 = 370.0;
const RATE_2: f64 = 300.0;
/// An interactive caller's pause between iterations. It keeps the two
/// clients well short of saturating the two cores, so their latencies
/// show the wait on the session lock rather than run-queue noise of the
/// host.
const THINK: Duration = Duration::from_millis(1);

/// Verbs timed per request, in `SERVE` order.
const VERBS: [&str; 5] = ["load_design", "eco", "analyze", "report", "metrics"];

fn load_line(size: Size, seed: u64) -> String {
    format!(
        r#"{{"id":0,"verb":"load_design","session":"{SESSION}","opts":{{"threads":1}},"chains":{{"nets":{},"stages":{},"seed":{seed}}}}}"#,
        size.nets, size.stages
    )
}

/// Whether a reply is a well-formed `ok:true` response.
pub fn reply_ok(reply: &str) -> bool {
    awe_serve::json::parse(reply).is_ok_and(|v| v.get("ok") == Some(&Json::Bool(true)))
}

/// One client's closed-loop record.
#[derive(Default)]
struct ClientLog {
    /// `(verb index, microseconds)` per request.
    verbs: Vec<(usize, f64)>,
    /// `(completion s into the phase, ms)` per edit and per read; the
    /// merged phase log is in completion order.
    edits_ms: Vec<(f64, f64)>,
    reads_ms: Vec<(f64, f64)>,
    ops: Vec<EcoOp>,
    requests: u64,
    /// Completion time of every request, seconds into the phase.
    done_s: Vec<f64>,
    failures: Vec<String>,
}

impl ClientLog {
    fn send(&mut self, st: &ServeState, start: Instant, verb: usize, line: &str) -> f64 {
        let t = Instant::now();
        let reply = handle_line(st, line);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.requests += 1;
        self.done_s.push(start.elapsed().as_secs_f64());
        self.verbs.push((verb, us));
        if !reply_ok(&reply) {
            self.failures.push(format!("{line} -> {reply}"));
        }
        us
    }
}

/// How much one phase runs: `iterations` per client, cut short at
/// `budget` when the host is slower than the nominal rates.
#[derive(Clone, Copy, Debug)]
struct Work {
    iterations: usize,
    budget: Duration,
}

/// Runs one closed-loop client for `work`, editing only nets
/// `i ≡ client (mod clients)` so concurrent clients' edits commute and
/// the final design is a function of the per-client op logs alone.
fn client(
    st: &ServeState,
    size: Size,
    seed: u64,
    phase: u64,
    client: usize,
    clients: usize,
    work: Work,
) -> ClientLog {
    let mut rng = Rng::new(seed, 100 + 10 * phase + client as u64);
    let mut log = ClientLog::default();
    let start = Instant::now();
    let mut added = 0usize;
    for _ in 0..work.iterations {
        if start.elapsed() >= work.budget {
            break;
        }
        std::thread::sleep(THINK);
        let roll = rng.unit();
        if roll < 0.55 {
            let own = (size.nets - client).div_ceil(clients);
            let net = format!("net{:04}", client + clients * rng.below(own) + 1);
            let stage = 1 + rng.below(size.stages);
            let op = if roll < 0.45 {
                let (element, value) = if rng.unit() < 0.5 {
                    (format!("R{stage}"), 50.0 + 150.0 * rng.unit())
                } else {
                    (format!("C{stage}"), 1e-12 * (0.5 + rng.unit()))
                };
                EcoOp::Resize {
                    net,
                    element,
                    value,
                }
            } else {
                added += 1;
                EcoOp::Add {
                    net,
                    card: format!(
                        "CX{phase}c{client}k{added} n{stage} 0 {:.3}e-15",
                        1.0 + 19.0 * rng.unit()
                    ),
                }
            };
            let eco = match &op {
                EcoOp::Resize {
                    net,
                    element,
                    value,
                } => format!(
                    r#"{{"verb":"eco","session":"{SESSION}","ops":[{{"op":"resize","net":"{net}","element":"{element}","value":{value}}}]}}"#
                ),
                EcoOp::Add { net, card } => format!(
                    r#"{{"verb":"eco","session":"{SESSION}","ops":[{{"op":"add","net":"{net}","card":"{card}"}}]}}"#
                ),
                _ => unreachable!("only resize and add are generated"),
            };
            let a = log.send(st, start, 1, &eco);
            let b = log.send(
                st,
                start,
                2,
                &format!(r#"{{"verb":"analyze","session":"{SESSION}"}}"#),
            );
            log.edits_ms
                .push((start.elapsed().as_secs_f64(), (a + b) * 1e-3));
            log.ops.push(op);
        } else if roll < 0.8 {
            let us = log.send(
                st,
                start,
                3,
                &format!(r#"{{"verb":"report","session":"{SESSION}","limit":16}}"#),
            );
            log.reads_ms
                .push((start.elapsed().as_secs_f64(), us * 1e-3));
        } else {
            let us = log.send(st, start, 4, r#"{"verb":"metrics"}"#);
            log.reads_ms
                .push((start.elapsed().as_secs_f64(), us * 1e-3));
        }
    }
    log
}

/// One load phase: `clients` closed-loop clients doing `work` each;
/// returns the merged log and the phase wall time.
fn phase(
    st: &ServeState,
    size: Size,
    seed: u64,
    id: u64,
    clients: usize,
    work: Work,
) -> (ClientLog, f64) {
    let t = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| s.spawn(move || client(st, size, seed, id, c, clients, work)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t.elapsed().as_secs_f64();
    let mut merged = ClientLog::default();
    for l in logs {
        merged.verbs.extend(l.verbs);
        merged.edits_ms.extend(l.edits_ms);
        merged.reads_ms.extend(l.reads_ms);
        merged.ops.extend(l.ops);
        merged.requests += l.requests;
        merged.done_s.extend(l.done_s);
        merged.failures.extend(l.failures);
    }
    merged.edits_ms.sort_by(|a, b| a.0.total_cmp(&b.0));
    merged.reads_ms.sort_by(|a, b| a.0.total_cmp(&b.0));
    (merged, wall)
}

/// Median over the phase's whole seconds of requests completed per
/// second: one slow second of the host moves it less than a mean.
fn rate(log: &ClientLog, wall: f64) -> (f64, usize) {
    if wall < 1.0 {
        return (log.requests as f64 / wall, 1);
    }
    let mut counts = vec![0.0; wall.floor() as usize];
    for &t in &log.done_s {
        if let Some(c) = counts.get_mut(t as usize) {
            *c += 1.0;
        }
    }
    (median(&counts), counts.len())
}

/// Per-net `(delay_50, final_value)` from a `report` reply.
pub fn report_values(reply: &str) -> Result<HashMap<String, (Option<f64>, f64)>, String> {
    let v = awe_serve::json::parse(reply).map_err(|e| e.to_string())?;
    let Some(Json::Arr(nets)) = v.get("nets") else {
        return Err(format!("report without nets: {reply:.200}"));
    };
    nets.iter()
        .map(|n| {
            let name = n
                .get("name")
                .and_then(Json::as_str)
                .ok_or("net without name")?;
            let delay = n.get("delay_50").and_then(Json::as_f64);
            let fv = n
                .get("final_value")
                .and_then(Json::as_f64)
                .ok_or("net without final value")?;
            Ok((name.to_owned(), (delay, fv)))
        })
        .collect()
}

/// Warm ≡ cold: the warm session's per-net results must equal a cold
/// batch analysis of the design rebuilt from the benchmark's own ECO log.
pub fn check_warm_cold(
    warm: &HashMap<String, (Option<f64>, f64)>,
    cold_design: &Design,
) -> Vec<String> {
    let run = BatchEngine::new().run(cold_design, &BatchOptions::default());
    let mut bad = Vec::new();
    if warm.len() != run.results.len() {
        bad.push(format!(
            "warm report has {} nets, design {}",
            warm.len(),
            run.results.len()
        ));
    }
    for r in &run.results {
        match warm.get(&r.name) {
            Some(&(d, fv)) if d == r.delay_50 && fv == r.final_value => {}
            Some(&(d, fv)) => bad.push(format!(
                "net {}: warm ({d:?}, {fv}) vs cold ({:?}, {})",
                r.name, r.delay_50, r.final_value
            )),
            None => bad.push(format!("net {}: missing from the warm report", r.name)),
        }
    }
    bad
}

/// Applies an ECO log to a design copy.
pub fn replay(design: &mut Design, ops: &[EcoOp]) -> Result<(), String> {
    for op in ops {
        let net = design
            .net_mut(op.net())
            .ok_or_else(|| format!("no net {}", op.net()))?;
        op.apply(&mut net.circuit)
            .map_err(|e| format!("{op}: {e}"))?;
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    run_sized(FULL, seed, seconds, traced)
}

pub fn run_sized(size: Size, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let cores = host_cores();
    out.notes.push(format!(
        "{} chains x {} stages, 1 then 2 closed-loop clients pausing {:?} per iteration, {cores} cores",
        size.nets, size.stages, THINK
    ));
    // Cold loads, each on a fresh daemon state: half of the set-up
    // repetitions here (the last one's state is the warm session), the
    // other half after the load phases, so `setup_s` samples both ends
    // of the run rather than one stretch of the host.
    let load = |out: &mut Outcome| {
        let st = ServeState::new(ServeOptions::default());
        let t = Instant::now();
        let reply = handle_line(&st, &load_line(size, seed));
        let us = t.elapsed().as_secs_f64() * 1e6;
        out.attempted += 1;
        if !reply_ok(&reply) {
            out.fail(format!("load_design: {reply:.300}"));
        }
        (st, us)
    };
    let slice = (SETUP_BUDGET / 2, SETUP_MIN_REPS.div_ceil(2));
    let mut state = None;
    let mut load_us: Vec<f64> = repeat_for(slice.0, slice.1, || {
        // One daemon state alive at a time.
        state = None;
        let (st, us) = load(&mut out);
        state = Some(st);
        us
    });
    let st = state.expect("at least one load");

    // A fixed amount of work sized from `seconds` at the nominal rates:
    // the request sequence is a function of the seed alone, and the
    // daemon's O(requests) `metrics` cost grows the same way every run,
    // unless a slow host hits the time share first.
    let share = if traced { 0.25 } else { 0.33 };
    let work = |share: f64, rate: f64| Work {
        iterations: (seconds * share * rate).ceil() as usize,
        budget: Duration::from_secs_f64(seconds * share),
    };
    let (one, wall_one) = phase(&st, size, seed, 1, 1, work(share, RATE_1));
    let (two, wall_two) = phase(&st, size, seed, 2, 2, work(0.95 - share, RATE_2));
    for log in [&one, &two] {
        out.attempted += log.requests;
        out.absorb(log.failures.clone());
    }

    // Warm ≡ cold over the final design.
    out.attempted += 2;
    let analyze = handle_line(
        &st,
        &format!(r#"{{"verb":"analyze","session":"{SESSION}"}}"#),
    );
    if !reply_ok(&analyze) {
        out.fail(format!("final analyze: {analyze:.300}"));
    }
    let report = handle_line(
        &st,
        &format!(r#"{{"verb":"report","session":"{SESSION}"}}"#),
    );
    let mut design = Design::synthetic_chains(size.nets, size.stages, seed);
    match report_values(&report).and_then(|warm| {
        replay(&mut design, &one.ops)?;
        replay(&mut design, &two.ops)?;
        Ok(warm)
    }) {
        Ok(warm) => out.absorb(check_warm_cold(&warm, &design)),
        Err(e) => out.fail(format!("warm/cold comparison: {e}")),
    }
    drop(st);
    load_us.extend(repeat_for(slice.0, slice.1, || load(&mut out).1));

    let (throughput, windows_two) = rate(&two, wall_two);
    let (throughput_1t, windows_one) = rate(&one, wall_one);
    // Edit and read latencies: medians over consecutive slices of at
    // least 1000 samples, so each slice's p99 has 10 samples beyond it.
    let ms = |v: &[(f64, f64)]| v.iter().map(|x| x.1).collect::<Vec<f64>>();
    let edits_1 = latency(&slices(&ms(&one.edits_ms), 1000));
    let edits_2 = latency(&slices(&ms(&two.edits_ms), 1000));
    let reads_2 = latency(&slices(&ms(&two.reads_ms), 1000));
    out.notes.push(format!(
        "2 clients: {} edits in {} slices (p{:.2}), {} reads in {} slices; read_p99_ms (p{:.2}) = {:.6} ms n={}; {} ECO ops replayed for the cold check",
        edits_2.samples,
        edits_2.parts,
        edits_2.tail_p,
        reads_2.samples,
        reads_2.parts,
        reads_2.tail_p,
        reads_2.tail,
        reads_2.samples,
        one.ops.len() + two.ops.len()
    ));

    if !traced {
        out.push(
            Metric::new("setup_s", median(&load_us) * 1e-6, "s", load_us.len())
                .labeled("load_design_s"),
        );
        out.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
        out.push(
            Metric::new("throughput_per_s", throughput, "1/s", windows_two)
                .labeled("requests_per_s"),
        );
        out.print(Metric::new(
            "requests_per_s_1client",
            throughput_1t,
            "1/s",
            windows_one,
        ));
        out.print(Metric::new(
            "edit_p50_ms",
            edits_2.p50,
            "ms",
            edits_2.samples,
        ));
        out.push(
            Metric::new("latency_tail_ms", edits_2.tail, "ms", edits_2.samples)
                .labeled("edit_p99_ms"),
        );
        return out;
    }

    // Traced run: the loaded design's nets through the layers, and the
    // batch engine on the same design.
    let mut tr = Tracer::default();
    let s = tr.begin("circuit.generate");
    let initial = Design::synthetic_chains(size.nets, size.stages, seed);
    let generate_s = tr.end(s);
    let opts = |threads| BatchOptions {
        threads,
        ..BatchOptions::default()
    };
    let runs_1t = repeat_for(Duration::ZERO, 2, || {
        BatchEngine::new().run(&initial, &opts(1))
    });
    let run_1t_s = median(
        &runs_1t
            .iter()
            .map(|r| r.wall.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let run_n = BatchEngine::new().run(&initial, &opts(cores));
    let reference = &runs_1t[0];

    let mut pipe = Pipeline::new(2);
    let s = tr.begin("layers");
    for (net, r) in initial.nets().iter().zip(&reference.results) {
        out.attempted += 1;
        if let Some(e) = pipe.solve_checked(&mut tr, &net.circuit, net.output, r.delay_50) {
            out.fail(format!("net {}: {e}", net.name));
        }
    }
    tr.end(s);

    let recording = awe_obs::Recording::start();
    let s = tr.begin("obs.recorded_load");
    let recorded = ServeState::new(ServeOptions::default());
    let t = Instant::now();
    let reply = handle_line(&recorded, &load_line(size, seed));
    let recorded_us = t.elapsed().as_secs_f64() * 1e6;
    tr.end(s);
    drop(recording.map(awe_obs::Recording::finish));
    out.attempted += 1;
    if !reply_ok(&reply) {
        out.fail(format!("recorded load_design: {reply:.300}"));
    }

    let s = tr.begin("sim.oracle");
    let mut pairs = Vec::new();
    for i in sample(seed, 4, initial.len(), SIM_SAMPLE) {
        let (net, r) = (&initial.nets()[i], &reference.results[i]);
        if let Some(s) = r
            .delay_50
            .and_then(|d| sim_delay(&net.circuit, net.output, d))
        {
            pairs.push((r.delay_50.unwrap_or(f64::NAN), s));
        }
    }
    tr.end(s);

    let mut verbs: Vec<Vec<f64>> = vec![Vec::new(); VERBS.len()];
    verbs[0] = load_us.clone();
    for &(v, us) in one.verbs.iter().chain(&two.verbs) {
        verbs[v].push(us);
    }
    out.push(Metric::new("host.cores", cores as f64, "count", 1));
    out.push(Metric::new("circuit.generate_s", generate_s, "s", 1));
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
            // The chains form one structure group: one donor analysis.
            new_symbolic_after_donor: run_n
                .solves
                .saturating_sub(run_n.pattern_hits)
                .saturating_sub(1) as f64,
        }
        .metrics(),
    );
    for (i, v) in verbs.into_iter().enumerate() {
        let v = sorted(v);
        out.push(Metric::new(
            SERVE[2 * i].0,
            percentile(&v, 50.0),
            "us",
            v.len(),
        ));
        out.push(Metric::new(
            SERVE[2 * i + 1].0,
            percentile(&v, 99.0),
            "us",
            v.len(),
        ));
    }
    out.push(Metric::new(
        "serve.read_p99_ms",
        reads_2.tail,
        "ms",
        reads_2.samples,
    ));
    out.push(Metric::new(
        "serve.queue_ms",
        edits_2.p50 - edits_1.p50,
        "ms",
        edits_2.samples,
    ));
    out.push(Metric::new(
        "obs.trace_overhead_frac",
        recorded_us / median(&load_us),
        "ratio",
        1,
    ));
    match tr.write(&format!("eco_serve-seed{seed}")) {
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
        nets: 6,
        stages: 12,
    };

    #[test]
    fn each_check_fires_on_a_corrupted_output() {
        assert!(reply_ok(r#"{"id":1,"ok":true}"#));
        assert!(!reply_ok(r#"{"id":1,"ok":false,"error":{}}"#));
        assert!(!reply_ok("garbage"));

        let st = ServeState::new(ServeOptions::default());
        assert!(reply_ok(&handle_line(&st, &load_line(TINY, 4))));
        let (log, _) = phase(
            &st,
            TINY,
            4,
            1,
            2,
            Work {
                iterations: 40,
                budget: Duration::from_secs(60),
            },
        );
        assert!(log.failures.is_empty(), "{:?}", log.failures);
        assert!(reply_ok(&handle_line(
            &st,
            r#"{"verb":"analyze","session":"eco"}"#
        )));
        let report = handle_line(&st, r#"{"verb":"report","session":"eco"}"#);
        let warm = report_values(&report).expect("report parses");
        let mut design = Design::synthetic_chains(TINY.nets, TINY.stages, 4);
        replay(&mut design, &log.ops).expect("log replays");
        assert!(check_warm_cold(&warm, &design).is_empty());

        let mut bad = warm.clone();
        let entry = bad.get_mut("net0003").expect("net0003");
        entry.0 = entry.0.map(|d| d * (1.0 + f64::EPSILON));
        assert_eq!(check_warm_cold(&bad, &design).len(), 1);
        // A lost edit: the cold design misses one op of the log.
        let mut stale = Design::synthetic_chains(TINY.nets, TINY.stages, 4);
        let resize = log
            .ops
            .iter()
            .rposition(|op| matches!(op, EcoOp::Resize { .. }))
            .expect("the mix made a value edit");
        let mut ops = log.ops.clone();
        ops.remove(resize);
        replay(&mut stale, &ops).expect("log replays");
        assert!(!check_warm_cold(&warm, &stale).is_empty());
    }

    #[test]
    fn tiny_workload_runs_clean_in_both_modes() {
        let plain = run_sized(TINY, 2, 0.1, false);
        assert_eq!(plain.failed, 0, "{:?}", plain.failures);
        let traced = run_sized(TINY, 2, 0.1, true);
        assert_eq!(traced.failed, 0, "{:?}", traced.failures);
    }
}
