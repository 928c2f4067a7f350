//! Experiment runners shared by the `repro_*` binaries.

use igp_core::parallel::ParallelPartitioner;
use igp_core::{IgpConfig, IncrementalPartitioner};
use igp_graph::metrics::CutMetrics;
use igp_graph::{CsrGraph, IncrementalGraph, Partitioning};
use igp_mesh::sequence::MeshSequence;
use igp_runtime::{Backend, CostModel};
use igp_spectral::{recursive_spectral_bisection, RsbOptions};
use std::time::Instant;

/// One printed table row (one partitioner on one incremental mesh).
#[derive(Clone, Debug)]
pub struct RowResult {
    /// `"SB"`, `"IGP"` or `"IGPR"`.
    pub name: &'static str,
    /// Measured sequential wall time on this host (seconds).
    pub wall_s: f64,
    /// Simulated 1-rank CM-5 time (seconds); `None` for SB.
    pub model_s: Option<f64>,
    /// Simulated 32-rank CM-5 time (seconds); `None` for SB.
    pub model_p: Option<f64>,
    /// Cut edges (paper `Cutset Total`).
    pub cut_total: u64,
    /// `max_q C(q)`.
    pub cut_max: u64,
    /// `min_q C(q)`.
    pub cut_min: u64,
    /// Balancing stages used (IGP/IGPR only; paper Figure 14 footnote).
    pub stages: usize,
    /// Largest LP size solved, `(vars, constraints)` — experiment E7.
    pub lp_size: (usize, usize),
}

/// Results for one incremental mesh.
#[derive(Clone, Debug)]
pub struct StepResult {
    /// Step label from the mesh sequence.
    pub label: String,
    /// `|V|` of the incremental graph.
    pub num_vertices: usize,
    /// `|E|` of the incremental graph.
    pub num_edges: usize,
    /// SB / IGP / IGPR rows.
    pub rows: Vec<RowResult>,
}

/// Parallel worker count behind the modeled `Time-p` column (the
/// paper's 32-node CM-5).
const MODEL_WORKERS: usize = 32;

fn cut_row(g: &CsrGraph, part: &Partitioning) -> (u64, u64, u64) {
    let m = CutMetrics::compute(g, part);
    (m.total_cut_edges, m.max_boundary, m.min_boundary)
}

/// Run SB / IGP / IGPR on every step of a mesh sequence with `p`
/// partitions — the Figure 11 (chained) and Figure 14 (star) experiment.
///
/// Returns `(base_row, steps)`: the SB row for the base mesh plus one
/// [`StepResult`] per increment. For chained sequences the incremental
/// partitioner's result is carried forward as the next step's old
/// partitioning, as in the paper ("using the partitioning obtained by
/// using the IGP for the previous mesh in the sequence"); we carry the
/// refined (IGPR) partitioning so per-step rows measure one increment
/// from a healthy base rather than compounding unrefined drift.
pub fn run_sequence_experiment(seq: &MeshSequence, p: usize) -> (RowResult, Vec<StepResult>) {
    let rsb_opts = RsbOptions::paper();
    // Base partitioning via RSB (timed).
    let t = Instant::now();
    let base_part = recursive_spectral_bisection(&seq.base, p, rsb_opts);
    let base_wall = t.elapsed().as_secs_f64();
    let (ct, cmax, cmin) = cut_row(&seq.base, &base_part);
    let base_row = RowResult {
        name: "SB",
        wall_s: base_wall,
        model_s: None,
        model_p: None,
        cut_total: ct,
        cut_max: cmax,
        cut_min: cmin,
        stages: 0,
        lp_size: (0, 0),
    };

    let mut carried = base_part.clone();
    let mut steps = Vec::new();
    for step in &seq.steps {
        let inc = &step.inc;
        let g = inc.new_graph();
        let old_part = if seq.chained {
            carried.clone()
        } else {
            base_part.clone()
        };
        let mut rows = Vec::new();

        // SB from scratch on the new graph.
        let t = Instant::now();
        let sb = recursive_spectral_bisection(g, p, rsb_opts);
        let sb_wall = t.elapsed().as_secs_f64();
        let (ct, cmax, cmin) = cut_row(g, &sb);
        rows.push(RowResult {
            name: "SB",
            wall_s: sb_wall,
            model_s: None,
            model_p: None,
            cut_total: ct,
            cut_max: cmax,
            cut_min: cmin,
            stages: 0,
            lp_size: (0, 0),
        });

        // IGP (sequential wall + modeled times).
        let igp = IncrementalPartitioner::igp(IgpConfig::paper(p));
        let t = Instant::now();
        let (igp_part, igp_rep) = igp.repartition(inc, &old_part);
        let igp_wall = t.elapsed().as_secs_f64();
        let model_s = model_time(inc, &old_part, p, 1, false);
        let model_p = model_time(inc, &old_part, p, MODEL_WORKERS, false);
        let (ct, cmax, cmin) = cut_row(g, &igp_part);
        rows.push(RowResult {
            name: "IGP",
            wall_s: igp_wall,
            model_s: Some(model_s),
            model_p: Some(model_p),
            cut_total: ct,
            cut_max: cmax,
            cut_min: cmin,
            stages: igp_rep.num_stages(),
            lp_size: igp_rep.max_lp_size(),
        });

        // IGPR.
        let igpr = IncrementalPartitioner::igpr(IgpConfig::paper(p));
        let t = Instant::now();
        let (igpr_part, igpr_rep) = igpr.repartition(inc, &old_part);
        let igpr_wall = t.elapsed().as_secs_f64();
        let model_s_r = model_time(inc, &old_part, p, 1, true);
        let model_p_r = model_time(inc, &old_part, p, MODEL_WORKERS, true);
        let (ct, cmax, cmin) = cut_row(g, &igpr_part);
        rows.push(RowResult {
            name: "IGPR",
            wall_s: igpr_wall,
            model_s: Some(model_s_r),
            model_p: Some(model_p_r),
            cut_total: ct,
            cut_max: cmax,
            cut_min: cmin,
            stages: igpr_rep.num_stages(),
            lp_size: igpr_rep.max_lp_size(),
        });

        steps.push(StepResult {
            label: step.label.clone(),
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
            rows,
        });
        let _ = igp_part;
        carried = igpr_part;
    }
    (base_row, steps)
}

/// Simulated CM-5 makespan for one IGP/IGPR run on `workers` ranks.
pub fn model_time(
    inc: &IncrementalGraph,
    old: &Partitioning,
    p: usize,
    workers: usize,
    refine: bool,
) -> f64 {
    let pp = ParallelPartitioner::new(IgpConfig::paper(p), workers, refine, CostModel::cm5());
    let (_, rep) = pp.repartition(inc, old);
    rep.sim.makespan
}

/// One point of the speedup sweep.
#[derive(Clone, Debug)]
pub struct SpeedupPoint {
    /// Worker count.
    pub workers: usize,
    /// Makespan: simulated CM-5 time under [`Backend::SimCm5`], measured
    /// wall seconds under [`Backend::SharedMem`].
    pub model_time: f64,
    /// Speedup vs 1 worker (same unit as `model_time`).
    pub model_speedup: f64,
    /// Real wall time of the threaded run on this host.
    pub wall_time: f64,
}

/// Sweep worker counts on one incremental step (experiment E3) under the
/// simulated-CM-5 backend.
pub fn run_speedup_experiment(
    inc: &IncrementalGraph,
    old: &Partitioning,
    p: usize,
    worker_counts: &[usize],
    refine: bool,
) -> Vec<SpeedupPoint> {
    run_speedup_experiment_on(inc, old, p, worker_counts, refine, Backend::SimCm5)
}

/// [`run_speedup_experiment`] on an explicit [`Backend`]. Under
/// [`Backend::SharedMem`] the curve is real wall time — bounded by this
/// host's core count rather than the CM-5 cost model.
pub fn run_speedup_experiment_on(
    inc: &IncrementalGraph,
    old: &Partitioning,
    p: usize,
    worker_counts: &[usize],
    refine: bool,
    backend: Backend,
) -> Vec<SpeedupPoint> {
    let mut out = Vec::new();
    let mut base = None;
    for &w in worker_counts {
        let cfg = IgpConfig::paper(p).with_backend(backend);
        let pp = ParallelPartitioner::new(cfg, w, refine, CostModel::cm5());
        let (_, rep) = pp.repartition(inc, old);
        let t = rep.sim.makespan;
        let b = *base.get_or_insert(t);
        out.push(SpeedupPoint {
            workers: w,
            model_time: t,
            model_speedup: b / t,
            wall_time: rep.sim.wall_seconds,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use igp_mesh::sequence::tiny_sequence;

    #[test]
    fn tiny_sequence_experiment_shape() {
        let seq = tiny_sequence(3);
        let (base, steps) = run_sequence_experiment(&seq, 4);
        assert_eq!(base.name, "SB");
        assert!(base.cut_total > 0);
        assert_eq!(steps.len(), 2);
        for s in &steps {
            assert_eq!(s.rows.len(), 3);
            let sb = &s.rows[0];
            let igp = &s.rows[1];
            let igpr = &s.rows[2];
            // Quality shape: IGPR ≤ IGP (+ slack), both within ~2× SB on a
            // tiny mesh (statistical noise is large at this size).
            assert!(igpr.cut_total <= igp.cut_total + 2);
            assert!(igp.cut_total as f64 <= 2.5 * sb.cut_total as f64 + 10.0);
            // Modeled parallel time beats modeled sequential time.
            assert!(igp.model_p.unwrap() < igp.model_s.unwrap());
            assert!(igp.stages >= 1);
        }
    }

    #[test]
    fn speedup_monotone_on_tiny() {
        let seq = tiny_sequence(5);
        let old = recursive_spectral_bisection(&seq.base, 4, RsbOptions::paper());
        let pts = run_speedup_experiment(&seq.steps[0].inc, &old, 4, &[1, 2, 8], false);
        assert_eq!(pts.len(), 3);
        assert!((pts[0].model_speedup - 1.0).abs() < 1e-9);
        assert!(pts[2].model_speedup > pts[1].model_speedup * 0.8);
        assert!(pts[1].model_speedup > 1.0);
    }
}
