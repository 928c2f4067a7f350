//! Edge cases and failure-mode coverage across the stack: infeasible
//! balancing (the paper's "it would be better to start partitioning from
//! scratch" signal), disconnected graphs, degenerate partition counts,
//! and pathological increments.

use igp::graph::metrics::CutMetrics;
use igp::graph::{generators, CsrGraph, GraphDelta, PartId, Partitioning};
use igp::{CapPolicy, IgpConfig, IncrementalPartitioner};

/// Two disconnected islands, each wholly owned by one partition. No
/// adjacency between partitions → the balance LP has no variables and the
/// partitioner must report "not balanced" (the paper's from-scratch
/// signal) instead of looping or panicking.
#[test]
fn isolated_partitions_signal_from_scratch() {
    let mut edges = Vec::new();
    for i in 0..8u32 {
        edges.push((i, (i + 1) % 8)); // island A: cycle 0..8
        edges.push((8 + i, 8 + (i + 1) % 8)); // island B
    }
    let g = CsrGraph::from_edges(16, &edges);
    let old =
        Partitioning::from_assignment(&g, 2, (0..16).map(|v| if v < 8 { 0 } else { 1 }).collect());
    // Grow island A only → partition 0 overloaded, but nothing can move.
    let delta = GraphDelta {
        add_vertices: vec![1; 6],
        add_edges: (0..6).map(|i| (0, 16 + i, 1)).collect(),
        ..Default::default()
    };
    let inc = delta.apply(&g);
    let (part, report) = IncrementalPartitioner::igp(IgpConfig::new(2)).repartition(&inc, &old);
    assert!(
        !report.balance.balanced,
        "balance is impossible across components"
    );
    // Nothing lost: all vertices still assigned.
    assert_eq!(part.counts().iter().sum::<u32>(), 22);
}

/// P = 1 degenerates gracefully: everything in partition 0, no LPs.
#[test]
fn single_partition_trivial() {
    let g = generators::grid(5, 5);
    let old = Partitioning::all_in_one(&g, 1);
    let delta = generators::localized_growth_delta(&g, 0, 5, 3);
    let inc = delta.apply(&g);
    let (part, report) = IncrementalPartitioner::igpr(IgpConfig::new(1)).repartition(&inc, &old);
    assert!(report.balance.balanced);
    assert_eq!(part.count(0), 30);
    assert_eq!(
        CutMetrics::compute(inc.new_graph(), &part).total_cut_edges,
        0
    );
}

/// More partitions than new vertices: balance still lands within ±1.
#[test]
fn many_parts_tiny_increment() {
    let g = generators::grid(8, 8);
    // A contiguous 16-part layout (4×4 blocks of 2×2).
    let assign: Vec<PartId> = (0..64)
        .map(|v| {
            let (r, c) = (v / 8, v % 8);
            ((r / 2) * 4 + (c / 2)) as PartId
        })
        .collect();
    let old = Partitioning::from_assignment(&g, 16, assign);
    let delta = generators::localized_growth_delta(&g, 0, 3, 9);
    let inc = delta.apply(&g);
    let (part, report) = IncrementalPartitioner::igp(IgpConfig::new(16)).repartition(&inc, &old);
    assert!(report.balance.balanced);
    let (min, max) = (
        part.counts().iter().min().unwrap(),
        part.counts().iter().max().unwrap(),
    );
    assert!(max - min <= 1, "{:?}", part.counts());
}

/// Pure-deletion increment: vertices disappear, balance restores.
#[test]
fn shrink_only_increment() {
    let g = generators::grid(6, 8);
    let assign: Vec<PartId> = (0..48).map(|v| if v % 8 < 4 { 0 } else { 1 }).collect();
    let old = Partitioning::from_assignment(&g, 2, assign);
    // Delete 3 scattered vertices from partition 1's side (alternate rows
    // of column 6, keeping the graph connected).
    let delta = GraphDelta {
        remove_vertices: vec![6, 22, 38],
        ..Default::default()
    };
    let inc = delta.apply(&g);
    assert!(igp::graph::traversal::is_connected(inc.new_graph()));
    let (part, report) = IncrementalPartitioner::igp(IgpConfig::new(2)).repartition(&inc, &old);
    assert!(report.balance.balanced, "{report}");
    let diff = part.count(0).abs_diff(part.count(1));
    assert!(diff <= 1, "{:?}", part.counts());
    assert_eq!(part.counts().iter().sum::<u32>(), 45);
}

/// An increment that rewires edges without adding vertices still triggers
/// re-layering/refinement but no balancing movement.
#[test]
fn edge_only_increment() {
    let g = generators::cycle(12);
    let assign: Vec<PartId> = (0..12).map(|v| (v / 4) as PartId).collect();
    let old = Partitioning::from_assignment(&g, 3, assign);
    let delta = GraphDelta {
        add_edges: vec![(0, 6, 1), (2, 8, 1)],
        remove_edges: vec![(3, 4)],
        ..Default::default()
    };
    let inc = delta.apply(&g);
    let (part, report) = IncrementalPartitioner::igpr(IgpConfig::new(3)).repartition(&inc, &old);
    assert!(report.balance.balanced);
    assert_eq!(
        report.balance.total_moved, 0,
        "counts unchanged → no balancing moves"
    );
    assert_eq!(part.counts(), &[4, 4, 4]);
}

/// Strict caps with an overload exceeding one partition's size: the
/// δ-staging machinery must converge (paper §2.3's hard case).
#[test]
fn overload_bigger_than_partition() {
    let side = 24usize;
    let g = generators::grid(side, side); // 576 vertices
    let assign: Vec<PartId> = (0..side * side)
        .map(|v| {
            let (r, c) = (v / side, v % side);
            ((r / 12) * 2 + c / 12) as PartId // 4 parts of 144
        })
        .collect();
    let old = Partitioning::from_assignment(&g, 4, assign);
    // +200 vertices all at the corner → partition 0 nearly doubles.
    let delta = generators::localized_growth_delta(&g, 0, 200, 17);
    let inc = delta.apply(&g);
    let mut cfg = IgpConfig::new(4);
    cfg.cap_policy = CapPolicy::Strict;
    cfg.max_stages = 12;
    let (part, report) = IncrementalPartitioner::igp(cfg).repartition(&inc, &old);
    assert!(
        report.balance.balanced,
        "stages used: {}",
        report.num_stages()
    );
    let (min, max) = (
        part.counts().iter().min().unwrap(),
        part.counts().iter().max().unwrap(),
    );
    assert!(max - min <= 1, "{:?}", part.counts());
    part.validate(inc.new_graph()).unwrap();
}

/// Star graph: one hub adjacent to everything. Every vertex's nearest
/// foreign partition is the hub's, so λ_i→(non-hub) = 0 and the strict
/// balance LP is structurally infeasible (flow can only converge on the
/// hub's partition) — the partitioner must report "not balanced" rather
/// than hang. Relaxed caps handle it.
#[test]
fn star_graph_partitioning() {
    let n = 21;
    let edges: Vec<(u32, u32)> = (1..n).map(|v| (0u32, v)).collect();
    let g = CsrGraph::from_edges(n as usize, &edges);
    let assign: Vec<PartId> = (0..n).map(|v| (v % 3) as PartId).collect();
    let old = Partitioning::from_assignment(&g, 3, assign);
    let delta = GraphDelta {
        add_vertices: vec![1; 4],
        add_edges: (0..4).map(|i| (0, n + i, 1)).collect(),
        ..Default::default()
    };
    let inc = delta.apply(&g);
    // Strict caps: structurally infeasible, reported honestly.
    let (part_s, rep_s) = IncrementalPartitioner::igpr(IgpConfig::new(3)).repartition(&inc, &old);
    assert!(
        !rep_s.balance.balanced,
        "star λ-structure cannot balance under strict caps"
    );
    assert_eq!(part_s.counts().iter().sum::<u32>(), 25);
    // Relaxed caps: balances fine.
    let mut cfg = IgpConfig::new(3);
    cfg.cap_policy = CapPolicy::Relaxed;
    let (part_r, rep_r) = IncrementalPartitioner::igpr(cfg).repartition(&inc, &old);
    assert!(rep_r.balance.balanced);
    let (min, max) = (
        part_r.counts().iter().min().unwrap(),
        part_r.counts().iter().max().unwrap(),
    );
    assert!(max - min <= 1, "{:?}", part_r.counts());
}

/// Weighted-edge graphs: refinement respects weighted gains.
#[test]
fn weighted_edges_respected_by_refinement() {
    // Adversarial case for batch LP refinement: on this weighted cycle,
    // BOTH endpoints of the weight-10 edge want to cross in opposite
    // directions — any balance-preserving batch keeps the heavy edge cut
    // (the LP correctly refuses to make things worse and leaves the cut
    // at 15).
    let g = CsrGraph::from_weighted_edges(
        6,
        &[
            (0, 1, 1),
            (1, 2, 1),
            (2, 3, 10),
            (3, 4, 1),
            (4, 5, 1),
            (5, 0, 5),
        ],
    );
    let old = Partitioning::from_assignment(&g, 2, vec![0, 0, 0, 1, 1, 1]);
    let inc = GraphDelta::default().apply(&g);

    // Monotone (never worse) and exactly balanced, but stuck.
    let (part_lp, _) = IncrementalPartitioner::igpr(IgpConfig::new(2)).repartition(&inc, &old);
    let m_lp = CutMetrics::compute(&g, &part_lp);
    assert_eq!(part_lp.count(0), 3, "LP preserves balance exactly");
    assert!(m_lp.total_cut_weight <= 15, "LP must not worsen the cut");
}
