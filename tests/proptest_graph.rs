//! Property tests on the graph substrate: CSR invariants, delta
//! apply/diff inversion, row-merge `apply` ≡ the edge-list builder,
//! maintained cut/boundary ≡ recount, BFS-owner verification, metric
//! identities.

mod common;

use igp::graph::metrics::CutMetrics;
use igp::graph::traversal::{nearest_owner_bfs, verify_nearest_owner};
use igp::graph::{
    generators, CsrBuilder, CsrGraph, GraphDelta, NodeId, Partitioning, Weight, INVALID_NODE,
};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Random simple undirected graph: spanning tree + `n` random chords.
fn graph_strategy() -> impl Strategy<Value = CsrGraph> {
    (2usize..40, any::<u64>()).prop_map(|(n, seed)| common::random_connected_graph(n, n, seed))
}

/// `GraphDelta::apply` as it was before it merged rows: every surviving
/// and added edge goes through [`CsrBuilder`]'s edge list, counting sort
/// and per-row sort. Kept verbatim as the reference the row merge must
/// reproduce — graph, `old_of_new` map, and which deltas panic.
fn apply_via_builder(delta: &GraphDelta, old: &CsrGraph) -> (CsrGraph, Vec<NodeId>) {
    let n_old = old.num_vertices();
    let n_ext = n_old + delta.add_vertices.len();
    let mut removed = vec![false; n_ext];
    for &v in &delta.remove_vertices {
        assert!((v as usize) < n_old, "remove_vertices id out of range");
        assert!(!removed[v as usize], "vertex {v} removed twice");
        removed[v as usize] = true;
    }
    let mut new_of_ext = vec![INVALID_NODE; n_ext];
    let mut next: NodeId = 0;
    for (i, slot) in new_of_ext.iter_mut().enumerate() {
        if !removed[i] {
            *slot = next;
            next += 1;
        }
    }
    let n_new = next as usize;
    let mut b = CsrBuilder::new(n_new);
    for v in 0..n_old {
        if !removed[v] {
            b.set_vertex_weight(new_of_ext[v], old.vertex_weight(v as NodeId));
        }
    }
    for (i, &w) in delta.add_vertices.iter().enumerate() {
        b.set_vertex_weight(new_of_ext[n_old + i], w);
    }
    let mut kill: Vec<(NodeId, NodeId)> = delta
        .remove_edges
        .iter()
        .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
        .collect();
    kill.sort_unstable();
    kill.dedup();
    assert_eq!(
        kill.len(),
        delta.remove_edges.len(),
        "duplicate edge removal"
    );
    for (u, v, w) in old.undirected_edges() {
        if removed[u as usize] || removed[v as usize] {
            continue;
        }
        if kill.binary_search(&(u, v)).is_ok() {
            continue;
        }
        b.add_edge(new_of_ext[u as usize], new_of_ext[v as usize], w);
    }
    for &e in &kill {
        assert!(
            old.has_edge(e.0, e.1),
            "remove_edges names a non-existent edge {{{},{}}}",
            e.0,
            e.1
        );
    }
    for &(u, v, w) in &delta.add_edges {
        let (nu, nv) = (new_of_ext[u as usize], new_of_ext[v as usize]);
        assert!(
            nu != INVALID_NODE && nv != INVALID_NODE,
            "added edge touches removed vertex"
        );
        b.add_edge(nu, nv, w);
    }
    let new = b.build();
    let mut old_of_new = vec![INVALID_NODE; n_new];
    for v in 0..n_old {
        if new_of_ext[v] != INVALID_NODE {
            old_of_new[new_of_ext[v] as usize] = v as NodeId;
        }
    }
    (new, old_of_new)
}

/// The panic message of `f`, or `None` if it returns.
fn panic_message<R>(f: impl FnOnce() -> R) -> Option<String> {
    catch_unwind(AssertUnwindSafe(f)).err().map(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    })
}

/// `g` with seeded vertex and edge weights in `1..=9` (the generators
/// only produce unit weights; a row merge must carry weights along).
fn reweighted(g: &CsrGraph, seed: u64) -> CsrGraph {
    let mut rng = common::Lcg::new(seed);
    let edges: Vec<(NodeId, NodeId, Weight)> = g
        .undirected_edges()
        .map(|(u, v, _)| (u, v, 1 + rng.below(9) as Weight))
        .collect();
    let mut out = CsrGraph::from_weighted_edges(g.num_vertices(), &edges);
    out.set_vertex_weights(
        (0..g.num_vertices())
            .map(|_| 1 + rng.below(9) as Weight)
            .collect(),
    );
    out
}

proptest! {
    #![proptest_config(common::tier1_config(128))]

    /// Row-merge `apply` ≡ the builder: same graph, same identity map,
    /// for growth-only deltas (rows copy as slices), full churn (vertex
    /// and edge removals, compaction), a killed edge re-added at another
    /// weight, and a kill that names an edge dying with its endpoint
    /// anyway. `apply_owned` is the same function.
    #[test]
    fn apply_row_merge_equals_builder(
        g in graph_strategy(),
        (adds, removes) in (0usize..7, 0usize..5),
        seed in any::<u64>(),
    ) {
        let g = reweighted(&g, seed);
        let mut rng = common::Lcg::new(seed ^ 0xa991);
        let mut delta = if removes == 0 {
            generators::localized_growth_delta(&g, rng.below(g.num_vertices()) as NodeId, adds, seed)
        } else {
            generators::random_churn_delta(&g, adds, removes, seed)
        };
        for w in delta.add_vertices.iter_mut() {
            *w = 1 + rng.below(9) as Weight;
        }
        for e in delta.add_edges.iter_mut() {
            e.2 = 1 + rng.below(9) as Weight;
        }
        if let Some(&(u, v)) = delta.remove_edges.first() {
            delta.add_edges.push((v, u, 17));
        }
        if let Some(&r) = delta.remove_vertices.first() {
            if let Some(&u) = g.neighbors(r).first() {
                delta.remove_edges.push((r, u));
            }
        }
        let (want, want_map) = apply_via_builder(&delta, &g);
        let inc = delta.apply(&g);
        prop_assert_eq!(inc.new_graph(), &want);
        prop_assert_eq!(inc.old(), &g);
        let map: Vec<NodeId> = want.vertices().map(|v| inc.old_of_new(v)).collect();
        prop_assert_eq!(&map, &want_map);
        inc.new_graph().validate().unwrap();
        let owned = delta.apply_owned(g.clone());
        prop_assert_eq!(owned.new_graph(), &want);
        prop_assert_eq!(owned.old(), &g);
        prop_assert_eq!(owned.into_new_graph(), want);
    }

    /// Every class of malformed delta panics out of the row merge with
    /// the message the builder path raised.
    #[test]
    fn apply_row_merge_panics_like_builder(g in graph_strategy(), seed in any::<u64>()) {
        let n = g.num_vertices() as NodeId;
        let mut rng = common::Lcg::new(seed);
        let v = rng.below(n as usize) as NodeId;
        let u = g.neighbors(v)[0];
        let (a, b, _) = g.undirected_edges().nth(rng.below(g.num_edges())).unwrap();
        let non_edge = (0..n)
            .flat_map(|x| (x + 1..n).map(move |y| (x, y)))
            .find(|&(x, y)| !g.has_edge(x, y));
        let malformed: Vec<(&str, GraphDelta)> = vec![
            ("out of range", GraphDelta { remove_vertices: vec![n + 1], ..Default::default() }),
            ("removed twice", GraphDelta { remove_vertices: vec![v, v], ..Default::default() }),
            ("duplicate edge removal", GraphDelta { remove_edges: vec![(a, b), (b, a)], ..Default::default() }),
            ("non-existent edge", GraphDelta { remove_edges: vec![(v, v)], ..Default::default() }),
            ("non-existent edge", GraphDelta { remove_edges: vec![(v, n + 2)], ..Default::default() }),
            ("touches removed vertex", GraphDelta {
                remove_vertices: vec![v],
                add_vertices: vec![1],
                add_edges: vec![(v, n, 1)],
                ..Default::default()
            }),
            ("self loop", GraphDelta { add_edges: vec![(v, v, 1)], ..Default::default() }),
            ("duplicate edge", GraphDelta { add_edges: vec![(u, v, 1)], ..Default::default() }),
            ("duplicate edge", GraphDelta {
                add_vertices: vec![1],
                add_edges: vec![(v, n, 1), (n, v, 2)],
                ..Default::default()
            }),
        ];
        for (what, delta) in &malformed {
            let reference = panic_message(|| apply_via_builder(delta, &g));
            prop_assert!(reference.as_ref().is_some_and(|m| m.contains(what)), "builder on `{}`: {:?}", what, reference);
            let merged = panic_message(|| delta.apply(&g));
            prop_assert!(merged.as_ref().is_some_and(|m| m.contains(what)), "row merge on `{}`: {:?}", what, merged);
        }
        if let Some((x, y)) = non_edge {
            let delta = GraphDelta { remove_edges: vec![(y, x)], ..Default::default() };
            prop_assert!(panic_message(|| apply_via_builder(&delta, &g)).is_some_and(|m| m.contains("non-existent edge")));
            prop_assert!(panic_message(|| delta.apply(&g)).is_some_and(|m| m.contains("non-existent edge")));
        }
        // An added edge past the extended id space: the builder path died
        // on an index before its range assert could speak; the row merge
        // asserts first.
        let delta = GraphDelta { add_edges: vec![(v, n + 3, 1)], ..Default::default() };
        prop_assert!(panic_message(|| apply_via_builder(&delta, &g)).is_some());
        prop_assert!(panic_message(|| delta.apply(&g)).is_some_and(|m| m.contains("out of range")));
    }

    /// After `from_assignment` and after every move of a random sequence
    /// (moves back included), the maintained cut, per-vertex foreign
    /// count and boundary list equal a from-scratch recount.
    #[test]
    fn maintained_cut_and_boundary_equal_recount(
        g in graph_strategy(),
        parts in 2usize..5,
        seed in any::<u64>(),
    ) {
        let n = g.num_vertices();
        let mut rng = common::Lcg::new(seed);
        let assign: Vec<u32> = (0..n).map(|_| rng.below(parts) as u32).collect();
        let mut p = Partitioning::from_assignment(&g, parts, assign);
        let mut history: Vec<(NodeId, u32)> = Vec::new();
        for step in 0..24 {
            let foreign: Vec<u32> = g
                .vertices()
                .map(|v| g.neighbors(v).iter().filter(|&&u| p.part_of(u) != p.part_of(v)).count() as u32)
                .collect();
            let maintained: Vec<u32> = g.vertices().map(|v| p.foreign_degree(v)).collect();
            prop_assert_eq!(&maintained, &foreign, "step {}", step);
            let boundary: Vec<NodeId> = g.vertices().filter(|&v| foreign[v as usize] > 0).collect();
            prop_assert_eq!(p.boundary_vertices(&g), boundary);
            prop_assert_eq!(p.cut_edges(), CutMetrics::compute(&g, &p).total_cut_edges);
            p.validate(&g).unwrap();
            // Two moves forward, then one of the earlier ones undone.
            if step % 3 == 2 {
                let (v, back) = history[rng.below(history.len())];
                p.move_vertex(&g, v, back);
            } else {
                let v = rng.below(n) as NodeId;
                history.push((v, p.part_of(v)));
                p.move_vertex(&g, v, rng.below(parts) as u32);
            }
        }
    }

    #[test]
    fn csr_structural_invariants(g in graph_strategy()) {
        g.validate().unwrap();
        // Handshake lemma.
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
        // undirected_edges yields each edge once.
        prop_assert_eq!(g.undirected_edges().count(), g.num_edges());
    }

    #[test]
    fn metis_roundtrip(g in graph_strategy()) {
        let text = igp::graph::io::write_metis(&g);
        let back = igp::graph::io::read_metis(&text).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn delta_apply_then_diff_is_identity(g in graph_strategy(), seed in any::<u64>()) {
        let delta = igp::graph::generators::localized_growth_delta(&g, 0, 5, seed);
        let inc = delta.apply(&g);
        let d2 = inc.diff();
        // Re-applying the recovered diff reproduces the same new graph.
        let inc2 = d2.apply(&g);
        prop_assert_eq!(inc.new_graph(), inc2.new_graph());
    }

    #[test]
    fn nearest_owner_is_verified(g in graph_strategy(), k in 1usize..4) {
        let n = g.num_vertices();
        let seeds: Vec<(NodeId, u32)> =
            (0..k.min(n)).map(|i| ((i * n / k.min(n)) as NodeId, i as u32)).collect();
        let (owner, dist) = nearest_owner_bfs(&g, &seeds);
        prop_assert!(verify_nearest_owner(&g, &seeds, &owner, &dist));
    }

    #[test]
    fn cut_metric_identities(g in graph_strategy(), parts in 2usize..5, seed in any::<u64>()) {
        let n = g.num_vertices();
        let assign: Vec<u32> =
            (0..n).map(|v| (((v as u64).wrapping_mul(seed | 1) >> 7) % parts as u64) as u32).collect();
        let p = Partitioning::from_assignment(&g, parts, assign);
        let m = CutMetrics::compute(&g, &p);
        // Σ_q C(q) = 2 × total cut weight.
        prop_assert_eq!(m.sum_boundary(), 2 * m.total_cut_weight);
        // Per-part counts sum to n.
        let total: u32 = m.per_part.iter().map(|c| c.count).sum();
        prop_assert_eq!(total as usize, n);
        // max ≥ min, boundaries consistent with boundary_vertices.
        prop_assert!(m.max_boundary >= m.min_boundary);
        let bv = p.boundary_vertices(&g).len() as u32;
        let bv_sum: u32 = m.per_part.iter().map(|c| c.boundary_vertices).sum();
        prop_assert_eq!(bv, bv_sum);
    }

    #[test]
    fn moves_keep_partition_consistent(g in graph_strategy(), seed in any::<u64>()) {
        let n = g.num_vertices();
        let mut p = Partitioning::round_robin(&g, 3);
        let mut rng = common::Lcg::new(seed);
        for _ in 0..10 {
            let v = rng.below(n) as NodeId;
            let to = rng.below(3) as u32;
            p.move_vertex(&g, v, to);
        }
        p.validate(&g).unwrap();
        let total: u32 = p.counts().iter().sum();
        prop_assert_eq!(total as usize, n);
    }

    #[test]
    fn induced_subgraph_edge_subset(g in graph_strategy()) {
        let n = g.num_vertices();
        let keep: Vec<NodeId> = (0..n as NodeId).filter(|v| v % 2 == 0).collect();
        if keep.len() >= 2 {
            let (sub, map) = g.induced_subgraph(&keep);
            sub.validate().unwrap();
            for (u, v, w) in sub.undirected_edges() {
                prop_assert_eq!(g.edge_weight(map[u as usize], map[v as usize]), Some(w));
            }
        }
    }
}
