//! The traced layer pipeline: one net at a time through the public
//! functions of each layer, in the order the batch engine's scalar path
//! calls them — `MnaSystem::build` (mna) → `MomentEngine::with_pattern`
//! (numeric factor or refactor) → `decompose_with` (core moments) →
//! `reduce_decomposition` (core Padé/residues) — with a span around each
//! call. Structurally identical nets share one symbolic analysis, as
//! they do in the batch engine, so the factor/refactor split matches.

use std::collections::{HashMap, HashSet};

use awe::{
    reduce_decomposition, AweApproximation, AweEngine, AweOptions, SharedSymbolic, StageTimings,
};
use awe_batch::NetResult;
use awe_circuit::{Circuit, NodeId};
use awe_mna::{MnaSystem, MomentEngine, MomentWorkspace};
use awe_sim::{simulate, TransientOptions};

use crate::report::{percentile, rel, sorted, within, Metric};
use crate::trace::Tracer;

/// Per-layer totals over every net the pipeline solved.
#[derive(Clone, Debug, Default)]
pub struct LayerSplit {
    pub assemble_s: f64,
    pub factor_s: f64,
    pub refactor_s: f64,
    pub moments_s: f64,
    pub reduce_s: f64,
    pub nets: usize,
    /// Largest unknown count assembled.
    pub unknowns: usize,
    /// Structural `L+U` entries and `G̃` nonzeros, summed once per
    /// distinct sparse pattern.
    pub factor_nnz: usize,
    pub g_nnz: usize,
    /// Orders added beyond the requested one (§3.3 escalations).
    pub escalations: usize,
}

impl LayerSplit {
    /// Seconds inside the mna, numeric and core layers.
    pub fn attributed_s(&self) -> f64 {
        self.assemble_s + self.factor_s + self.refactor_s + self.moments_s + self.reduce_s
    }

    /// The dense `G`, `C`, `G̃`, `C̃` images of the largest system,
    /// computed from its unknown count (not measured).
    pub fn dense_bytes(&self) -> f64 {
        4.0 * 8.0 * (self.unknowns as f64).powi(2)
    }

    /// The per-layer metrics this split provides.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.nets;
        let fill = if self.g_nnz > 0 {
            self.factor_nnz as f64 / self.g_nnz as f64
        } else {
            0.0
        };
        vec![
            Metric::new("mna.assemble_s", self.assemble_s, "s", n),
            Metric::new("mna.unknowns", self.unknowns as f64, "count", n),
            Metric::new("mna.dense_bytes", self.dense_bytes(), "B-computed", 1),
            Metric::new("numeric.factor_s", self.factor_s, "s", n),
            Metric::new("numeric.refactor_s", self.refactor_s, "s", n),
            Metric::new("numeric.fill_ratio", fill, "ratio", n),
            Metric::new("core.moments_s", self.moments_s, "s", n),
            Metric::new("core.reduce_s", self.reduce_s, "s", n),
            Metric::new("core.escalations", self.escalations as f64, "count", n),
        ]
    }
}

/// Scalar solver with the batch engine's pattern sharing.
pub struct Pipeline {
    order: usize,
    options: AweOptions,
    patterns: HashMap<u64, SharedSymbolic>,
    fill_seen: HashSet<u64>,
    ws: MomentWorkspace,
    pub split: LayerSplit,
}

impl Pipeline {
    pub fn new(order: usize) -> Self {
        Pipeline {
            order,
            options: AweOptions::default(),
            patterns: HashMap::new(),
            fill_seen: HashSet::new(),
            ws: MomentWorkspace::new(),
            split: LayerSplit::default(),
        }
    }

    /// Solves one net with a span around each layer call, and checks its
    /// delay against the batch engine's result `want` within 1e-9.
    /// Returns the failure, if any.
    pub fn solve_checked(
        &mut self,
        tr: &mut Tracer,
        circuit: &Circuit,
        output: NodeId,
        want: Option<f64>,
    ) -> Option<String> {
        let key = awe_batch::pattern_key(circuit);
        let net = tr.begin("net");
        let result = self.solve_in(tr, key, circuit, output);
        tr.end(net);
        self.split.nets += 1;
        match result {
            Ok(a) => {
                let (d, w) = (a.delay_50().unwrap_or(f64::NAN), want.unwrap_or(f64::NAN));
                (!within(d, w, 1e-9)).then(|| format!("layer pipeline {d:e} vs batch {w:e}"))
            }
            Err(e) => Some(format!("layer pipeline failed: {e}")),
        }
    }

    fn solve_in(
        &mut self,
        tr: &mut Tracer,
        key: u64,
        circuit: &Circuit,
        output: NodeId,
    ) -> Result<AweApproximation, String> {
        let s = tr.begin("mna.assemble");
        let system = MnaSystem::build(circuit);
        self.split.assemble_s += tr.end(s);
        let system = system.map_err(|e| format!("mna: {e}"))?;
        self.split.unknowns = self.split.unknowns.max(system.num_unknowns());
        let idx = system
            .unknown_of_node(output)
            .ok_or("output node has no unknown")?;

        let s = tr.begin("numeric.factor");
        let engine = MomentEngine::with_pattern(&system, self.patterns.get(&key));
        let refactored = engine.as_ref().is_ok_and(|e| e.refactored());
        let d = tr.end_as(s, refactored.then_some("numeric.refactor"));
        if refactored {
            self.split.refactor_s += d;
        } else {
            self.split.factor_s += d;
        }
        let engine = engine.map_err(|e| format!("factor: {e}"))?;
        if let Some(sym) = engine.lu_symbolic() {
            if self.fill_seen.insert(key) {
                self.split.factor_nnz += sym.pattern_nnz();
                self.split.g_nnz += system
                    .g_tilde
                    .as_slice()
                    .iter()
                    .filter(|v| **v != 0.0)
                    .count();
            }
            self.patterns.entry(key).or_insert_with(|| sym.clone());
        }

        let count = 2 * (self.order + self.options.max_escalation + 1);
        let s = tr.begin("core.moments");
        let dec = engine.decompose_with(&mut self.ws, count);
        self.split.moments_s += tr.end(s);
        let dec = dec.map_err(|e| format!("moments: {e}"))?;

        let s = tr.begin("core.reduce");
        let mut clock = StageTimings::default();
        let approx = reduce_decomposition(&dec, idx, self.order, self.options, &mut clock);
        self.split.reduce_s += tr.end(s);
        self.ws.recycle(dec);
        let approx = approx.map_err(|e| format!("reduce: {e}"))?;
        self.split.escalations += approx.order.saturating_sub(self.order);
        Ok(approx)
    }
}

/// Re-solves `circuit` with a cold `AweEngine` (no batch, tape or cache)
/// at order 2; `r` must agree with it within 1e-9. Returns the failure,
/// if any.
pub fn check_cold_solve(circuit: &Circuit, output: NodeId, r: &NetResult) -> Option<String> {
    match AweEngine::new(circuit).and_then(|e| e.approximate(output, 2)) {
        Ok(a) => {
            let (d, cd) = (
                r.delay_50.unwrap_or(f64::NAN),
                a.delay_50().unwrap_or(f64::NAN),
            );
            (!within(d, cd, 1e-9) || !within(r.final_value, a.final_value(), 1e-9)).then(|| {
                format!(
                    "{}: batch delay {d:e} vs cold {cd:e}, final {} vs {}",
                    r.name,
                    r.final_value,
                    a.final_value()
                )
            })
        }
        Err(e) => Some(format!("{}: cold solve failed: {e}", r.name)),
    }
}

/// 50 % delay of `output` from the trapezoidal reference simulator,
/// widening the horizon until the crossing is inside it.
pub fn sim_delay(circuit: &Circuit, output: NodeId, guess: f64) -> Option<f64> {
    let mut horizon = 20.0 * guess;
    for _ in 0..4 {
        if let Some(d) = simulate(circuit, TransientOptions::new(horizon))
            .ok()
            .and_then(|r| r.delay_50(output))
        {
            return Some(d);
        }
        horizon *= 8.0;
    }
    None
}

/// AWE-vs-simulation delay error over `(awe, sim)` pairs, recorded as a
/// product accuracy figure and never gated on.
pub fn accuracy_metrics(pairs: &[(f64, f64)]) -> Vec<Metric> {
    let errs = sorted(pairs.iter().map(|&(a, s)| rel(a, s)).collect());
    let n = errs.len();
    vec![
        Metric::new("core.delay_err_p50", percentile(&errs, 50.0), "frac", n),
        Metric::new("core.delay_err_p95", percentile(&errs, 95.0), "frac", n),
        Metric::new(
            "core.delay_err_max",
            errs.last().copied().unwrap_or(0.0),
            "frac",
            n,
        ),
    ]
}
