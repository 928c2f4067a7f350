//! Cross-crate integration: the full paper pipeline on real (small)
//! meshes — mesh generation → RSB → localized refinement → incremental
//! repartitioning → quality/balance checks, sequential and parallel.

mod common;

use common::rcb::recursive_coordinate_bisection;
use igp::graph::metrics::CutMetrics;
use igp::graph::{IncrementalGraph, Partitioning};
use igp::mesh::sequence::tiny_sequence;
use igp::parallel::ParallelPartitioner;
use igp::runtime::CostModel;
use igp::spectral::{recursive_spectral_bisection, RsbOptions};
use igp::{CapPolicy, IgpConfig, IncrementalPartitioner};

fn rsb(g: &igp::graph::CsrGraph, p: usize) -> Partitioning {
    recursive_spectral_bisection(g, p, RsbOptions::default())
}

#[test]
fn full_pipeline_on_mesh_sequence() {
    let seq = tiny_sequence(1);
    let p = 4;
    let mut part = rsb(&seq.base, p);
    let base_cut = CutMetrics::compute(&seq.base, &part).total_cut_edges;
    assert!(base_cut > 0);

    let igpr = IncrementalPartitioner::igpr(IgpConfig::new(p));
    for step in &seq.steps {
        let (new_part, report) = igpr.repartition(&step.inc, &part);
        assert!(
            report.balance.balanced,
            "step {} did not balance",
            step.label
        );
        let g = step.inc.new_graph();
        new_part.validate(g).unwrap();
        // Quality stays within 2x of from-scratch RSB on this tiny mesh.
        let scratch = rsb(g, p);
        let cut_inc = CutMetrics::compute(g, &new_part).total_cut_edges;
        let cut_rsb = CutMetrics::compute(g, &scratch).total_cut_edges;
        assert!(
            (cut_inc as f64) <= 2.0 * cut_rsb as f64 + 6.0,
            "step {}: cut {} vs scratch {}",
            step.label,
            cut_inc,
            cut_rsb
        );
        part = new_part;
    }
}

#[test]
fn sequential_and_parallel_agree_on_mesh() {
    let seq = tiny_sequence(2);
    let p = 4;
    let old = rsb(&seq.base, p);
    let inc = &seq.steps[0].inc;
    let (seq_part, seq_rep) = IncrementalPartitioner::igp(IgpConfig::new(p)).repartition(inc, &old);
    for workers in [1, 2, 3] {
        let (par_part, rep) =
            ParallelPartitioner::igp(IgpConfig::new(p), workers).repartition(inc, &old);
        assert!(rep.balanced, "workers {workers}");
        assert_eq!(par_part.counts(), seq_part.counts(), "workers {workers}");
        assert_eq!(
            rep.total_moved, seq_rep.balance.total_moved,
            "movement objective must match (workers {workers})"
        );
    }
}

#[test]
fn modeled_speedup_increases_with_workers() {
    let seq = tiny_sequence(3);
    let p = 4;
    let old = rsb(&seq.base, p);
    let inc = &seq.steps[0].inc;
    let mk = |w: usize| {
        ParallelPartitioner::new(IgpConfig::new(p), w, false, CostModel::cm5())
            .repartition(inc, &old)
            .1
            .sim
            .makespan
    };
    let t1 = mk(1);
    let t2 = mk(2);
    let t4 = mk(4);
    assert!(t2 < t1, "t1={t1} t2={t2}");
    assert!(t4 < t2 * 1.05, "t2={t2} t4={t4}");
}

#[test]
fn cap_policies_both_balance_but_differ_in_deformation() {
    let seq = tiny_sequence(4);
    let p = 4;
    let old = rsb(&seq.base, p);
    let inc = &seq.steps[0].inc;
    let mut deformations = Vec::new();
    for policy in [CapPolicy::Strict, CapPolicy::Relaxed] {
        let mut cfg = IgpConfig::new(p);
        cfg.cap_policy = policy;
        let (part, rep) = IncrementalPartitioner::igp(cfg).repartition(inc, &old);
        assert!(rep.balance.balanced, "{policy:?}");
        let moved_old = inc
            .old()
            .vertices()
            .filter(|&v| {
                let nv = inc.new_of_old(v);
                nv != igp::graph::INVALID_NODE && part.part_of(nv) != old.part_of(v)
            })
            .count();
        deformations.push(moved_old);
    }
    // Strict caps never deform more than relaxed + slack (usually less).
    assert!(
        deformations[0] <= deformations[1] + 8,
        "strict {} vs relaxed {}",
        deformations[0],
        deformations[1]
    );
}

#[test]
fn metis_roundtrip_of_mesh_graph() {
    let seq = tiny_sequence(5);
    let text = igp::graph::io::write_metis(&seq.base);
    let back = igp::graph::io::read_metis(&text).unwrap();
    assert_eq!(back, seq.base);
}

#[test]
fn incremental_graph_diff_matches_mesh_edit() {
    let seq = tiny_sequence(6);
    let inc = &seq.steps[0].inc;
    let d = inc.diff();
    assert_eq!(d.add_vertices.len(), 12);
    assert!(d.remove_vertices.is_empty());
    assert!(!d.add_edges.is_empty());
    // Mesh refinement re-triangulates cavities → some old edges vanish.
    assert!(!d.remove_edges.is_empty());
    // Round-trip: applying the diff to the old graph gives the new graph.
    let re = d.apply(inc.old());
    assert_eq!(re.new_graph(), inc.new_graph());
}

#[test]
fn rsb_vs_rcb_on_mesh() {
    // RCB (geometric) and RSB (spectral) both balance; RSB usually cuts
    // fewer edges on irregular meshes.
    let seq = tiny_sequence(8);
    let coords: Vec<(f64, f64)> = seq.base_mesh.points.iter().map(|p| (p.x, p.y)).collect();
    let p = 4;
    let spectral = rsb(&seq.base, p);
    let geometric = recursive_coordinate_bisection(&seq.base, &coords, p);
    let cut_s = CutMetrics::compute(&seq.base, &spectral).total_cut_edges;
    let cut_g = CutMetrics::compute(&seq.base, &geometric).total_cut_edges;
    assert!(cut_s > 0 && cut_g > 0);
    assert!(
        (cut_s as f64) < 1.6 * cut_g as f64,
        "spectral {cut_s} should be competitive with geometric {cut_g}"
    );
}

#[test]
fn report_lp_dominates_work_share() {
    // The paper: "Most of the time spent by our algorithm is in the
    // solution of the linear programming formulation".
    let seq = tiny_sequence(9);
    let p = 8;
    let old = rsb(&seq.base, p);
    let (_, rep) =
        IncrementalPartitioner::igpr(IgpConfig::new(p)).repartition(&seq.steps[0].inc, &old);
    assert!(
        rep.lp_work_share() > 0.3,
        "LP share {:.2} unexpectedly small",
        rep.lp_work_share()
    );
}

#[test]
fn empty_increment_stability() {
    let seq = tiny_sequence(10);
    let p = 4;
    let old = rsb(&seq.base, p);
    let inc = IncrementalGraph::new(
        seq.base.clone(),
        seq.base.clone(),
        (0..seq.base.num_vertices() as u32).collect(),
    );
    let (part, rep) = IncrementalPartitioner::igp(IgpConfig::new(p)).repartition(&inc, &old);
    // RSB output is balanced within ±1 already; IGP may shuffle at most a
    // remainder vertex or two, never more.
    assert!(
        rep.balance.total_moved <= 2,
        "moved {}",
        rep.balance.total_moved
    );
    assert!(part.count_imbalance() <= old.count_imbalance() + 1e-9);
}
