//! Synthetic graph families for tests, property suites and benches.
//!
//! These complement the mesh workloads in `igp-mesh`: they exercise the
//! partitioner on structures with known properties (grids, tori, random
//! geometric graphs) and provide randomized incremental deltas.

use crate::csr::{CsrBuilder, CsrGraph};
use crate::delta::GraphDelta;
use crate::rng::SplitMix64;
use crate::NodeId;

/// `rows × cols` 4-neighbour grid.
pub fn grid(rows: usize, cols: usize) -> CsrGraph {
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut b = CsrBuilder::with_edge_capacity(rows * cols, 2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(id(r, c), id(r, c + 1), 1);
            }
            if r + 1 < rows {
                b.add_edge(id(r, c), id(r + 1, c), 1);
            }
        }
    }
    b.build()
}

/// `rows × cols` torus (wrap-around grid). Every vertex has degree 4
/// (degree 2 when a dimension has length 2 would duplicate edges, so both
/// dimensions must be ≥ 3).
pub fn torus(rows: usize, cols: usize) -> CsrGraph {
    assert!(rows >= 3 && cols >= 3, "torus needs both dims >= 3");
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    let mut b = CsrBuilder::with_edge_capacity(rows * cols, 2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(id(r, c), id(r, (c + 1) % cols), 1);
            b.add_edge(id(r, c), id((r + 1) % rows, c), 1);
        }
    }
    b.build()
}

/// Path on `n` vertices.
pub fn path(n: usize) -> CsrGraph {
    let edges: Vec<(NodeId, NodeId)> = (0..n.saturating_sub(1))
        .map(|i| (i as NodeId, i as NodeId + 1))
        .collect();
    CsrGraph::from_edges(n, &edges)
}

/// Cycle on `n ≥ 3` vertices.
pub fn cycle(n: usize) -> CsrGraph {
    assert!(n >= 3);
    let mut edges: Vec<(NodeId, NodeId)> =
        (0..n - 1).map(|i| (i as NodeId, i as NodeId + 1)).collect();
    edges.push((n as NodeId - 1, 0));
    CsrGraph::from_edges(n, &edges)
}

/// Complete graph on `n` vertices.
pub fn complete(n: usize) -> CsrGraph {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in u + 1..n {
            edges.push((u as NodeId, v as NodeId));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Random geometric graph: `n` points uniform in the unit square, edges
/// between pairs closer than `radius`. The classic model for mesh-like
/// irregular computation graphs. Uses a grid spatial index (O(n) expected).
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> CsrGraph {
    let mut rng = SplitMix64::new(seed);
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.unit_f64(), rng.unit_f64())).collect();
    let cells = (1.0 / radius).floor().max(1.0) as usize;
    let cell_of = |x: f64| ((x * cells as f64) as usize).min(cells - 1);
    let mut grid_idx: Vec<Vec<u32>> = vec![Vec::new(); cells * cells];
    for (i, &(x, y)) in pts.iter().enumerate() {
        grid_idx[cell_of(y) * cells + cell_of(x)].push(i as u32);
    }
    let r2 = radius * radius;
    let mut b = CsrBuilder::new(n);
    for (i, &(x, y)) in pts.iter().enumerate() {
        let (cx, cy) = (cell_of(x), cell_of(y));
        for dy in cy.saturating_sub(1)..=(cy + 1).min(cells - 1) {
            for dx in cx.saturating_sub(1)..=(cx + 1).min(cells - 1) {
                for &j in &grid_idx[dy * cells + dx] {
                    if (j as usize) <= i {
                        continue;
                    }
                    let (px, py) = pts[j as usize];
                    let (ddx, ddy) = (px - x, py - y);
                    if ddx * ddx + ddy * ddy <= r2 {
                        b.add_edge(i as NodeId, j, 1);
                    }
                }
            }
        }
    }
    b.build()
}

/// Erdős–Rényi `G(n, p)` (only for small tests — dense representation).
pub fn gnp(n: usize, p: f64, seed: u64) -> CsrGraph {
    let mut rng = SplitMix64::new(seed);
    let mut b = CsrBuilder::new(n);
    for u in 0..n {
        for v in u + 1..n {
            if rng.unit_f64() < p {
                b.add_edge(u as NodeId, v as NodeId, 1);
            }
        }
    }
    b.build()
}

/// A random *incremental* delta that grows the graph around a localized
/// seed vertex: `k` new vertices, each attached to 1–3 hosts chosen from a
/// BFS ball around `center` plus previously added vertices. Mirrors the
/// paper's "renements in a localized area".
pub fn localized_growth_delta(graph: &CsrGraph, center: NodeId, k: usize, seed: u64) -> GraphDelta {
    let mut rng = SplitMix64::new(seed);
    let dist = crate::traversal::bfs_distances(graph, &[center]);
    // Hosts: the ~4k nearest old vertices to the centre.
    let mut hosts: Vec<NodeId> = graph.vertices().collect();
    hosts.sort_by_key(|&v| (dist[v as usize], v));
    hosts.truncate((4 * k).max(8).min(graph.num_vertices()));
    let n_old = graph.num_vertices() as NodeId;
    let mut delta = GraphDelta::default();
    let mut attach_pool: Vec<NodeId> = hosts.clone();
    for i in 0..k {
        let new_id = n_old + i as NodeId;
        delta.add_vertices.push(1);
        let fan = 1 + rng.below(3).min(attach_pool.len() - 1);
        // Sample `fan` distinct hosts.
        let mut chosen: Vec<NodeId> = Vec::with_capacity(fan);
        while chosen.len() < fan {
            let h = attach_pool[rng.below(attach_pool.len())];
            if !chosen.contains(&h) {
                chosen.push(h);
            }
        }
        for h in chosen {
            delta.add_edges.push((h, new_id, 1));
        }
        attach_pool.push(new_id);
    }
    delta
}

/// A random *churn* delta: removes up to `removes` low-impact vertices
/// and a few existing edges, then adds `adds` new vertices attached to
/// survivors (plus an occasional survivor–survivor chord).
///
/// Always valid for [`GraphDelta::apply`] against `graph`
/// (`GraphDelta::validate` passes, removed edges exist, added edges are
/// absent and avoid removed vertices) — the generator behind the
/// coalescing property suite and the service end-to-end churn traffic.
/// Unlike [`localized_growth_delta`] it exercises the full edit algebra:
/// vertex deletion, edge deletion, and deletion/re-addition interplay.
pub fn random_churn_delta(graph: &CsrGraph, adds: usize, removes: usize, seed: u64) -> GraphDelta {
    let mut rng = SplitMix64::new(seed);
    let n_old = graph.num_vertices();
    let mut delta = GraphDelta::default();
    // Remove vertices, never more than a quarter of the graph so the
    // remainder stays partitionable.
    let max_rm = removes.min(n_old / 4);
    let mut removed = vec![false; n_old];
    for _ in 0..max_rm {
        let v = rng.below(n_old);
        if !removed[v] {
            removed[v] = true;
            delta.remove_vertices.push(v as NodeId);
        }
    }
    delta.remove_vertices.sort_unstable();
    // Remove a few surviving edges (skip bridges to survivors' last
    // link: keep every survivor at degree ≥ 1 where possible).
    let survivor_edges: Vec<(NodeId, NodeId)> = graph
        .undirected_edges()
        .filter(|&(u, v, _)| !removed[u as usize] && !removed[v as usize])
        .map(|(u, v, _)| (u, v))
        .collect();
    let mut deg_left = vec![0usize; n_old];
    for &(u, v) in &survivor_edges {
        deg_left[u as usize] += 1;
        deg_left[v as usize] += 1;
    }
    let edge_removes = (max_rm / 2 + adds / 4).min(survivor_edges.len() / 4);
    let mut killed: Vec<(NodeId, NodeId)> = Vec::new();
    for _ in 0..edge_removes {
        let e = survivor_edges[rng.below(survivor_edges.len())];
        if !killed.contains(&e) && deg_left[e.0 as usize] > 1 && deg_left[e.1 as usize] > 1 {
            deg_left[e.0 as usize] -= 1;
            deg_left[e.1 as usize] -= 1;
            killed.push(e);
        }
    }
    killed.sort_unstable();
    delta.remove_edges = killed.clone();
    // Attach new vertices to random survivors / earlier additions.
    let survivors: Vec<NodeId> = (0..n_old as NodeId)
        .filter(|&v| !removed[v as usize])
        .collect();
    let mut attach_pool = survivors.clone();
    let present = |d: &GraphDelta, a: NodeId, b: NodeId| -> bool {
        let k = if a < b { (a, b) } else { (b, a) };
        d.add_edges.iter().any(|&(u, v, _)| (u, v) == k)
            || ((k.1 as usize) < n_old && graph.has_edge(k.0, k.1) && !killed.contains(&k))
    };
    for i in 0..adds {
        let new_id = (n_old + i) as NodeId;
        delta.add_vertices.push(1 + rng.below(3) as u64);
        let fan = 1 + rng.below(2).min(attach_pool.len() - 1);
        let mut linked = 0;
        while linked < fan {
            let h = attach_pool[rng.below(attach_pool.len())];
            if h != new_id && !present(&delta, h, new_id) {
                let k = if h < new_id { (h, new_id) } else { (new_id, h) };
                delta.add_edges.push((k.0, k.1, 1 + rng.below(4) as u64));
                linked += 1;
            }
        }
        attach_pool.push(new_id);
    }
    // Occasionally re-link two survivors (possibly re-adding a killed
    // edge with a fresh weight — the fold-to-weight-update case).
    if survivors.len() >= 2 && rng.below(3) == 0 {
        for _ in 0..4 {
            let a = survivors[rng.below(survivors.len())];
            let b = survivors[rng.below(survivors.len())];
            if a != b && !present(&delta, a, b) {
                let k = if a < b { (a, b) } else { (b, a) };
                delta.add_edges.push((k.0, k.1, 1 + rng.below(4) as u64));
                break;
            }
        }
    }
    delta.add_edges.sort_unstable();
    debug_assert_eq!(delta.validate(n_old), Ok(()));
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;

    #[test]
    fn grid_counts() {
        let g = grid(3, 4);
        assert_eq!(g.num_vertices(), 12);
        assert_eq!(g.num_edges(), 3 * 3 + 2 * 4); // 17
        assert!(is_connected(&g));
        g.validate().unwrap();
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(4, 5);
        assert!(g.vertices().all(|v| g.degree(v) == 4));
        assert_eq!(g.num_edges(), 2 * 20);
        g.validate().unwrap();
    }

    #[test]
    fn complete_graph_edges() {
        let g = complete(6);
        assert_eq!(g.num_edges(), 15);
        assert!(g.vertices().all(|v| g.degree(v) == 5));
    }

    #[test]
    fn random_geometric_deterministic_and_valid() {
        let a = random_geometric(300, 0.1, 42);
        let b = random_geometric(300, 0.1, 42);
        assert_eq!(a, b);
        a.validate().unwrap();
        // Sanity: with r=0.1, n=300 expect a decent number of edges.
        assert!(a.num_edges() > 100, "{}", a.num_edges());
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(gnp(10, 0.0, 1).num_edges(), 0);
        assert_eq!(gnp(10, 1.0, 1).num_edges(), 45);
    }

    #[test]
    fn localized_growth_applies_cleanly() {
        let g = grid(10, 10);
        let delta = localized_growth_delta(&g, 0, 15, 7);
        assert_eq!(delta.add_vertices.len(), 15);
        let inc = delta.apply(&g);
        assert_eq!(inc.new_graph().num_vertices(), 115);
        assert!(is_connected(inc.new_graph()));
        inc.new_graph().validate().unwrap();
        // Locality: every attachment host is near the corner vertex 0.
        let dist = crate::traversal::bfs_distances(&g, &[0]);
        for &(u, _, _) in delta.add_edges.iter().filter(|&&(u, _, _)| u < 100) {
            assert!(
                dist[u as usize] <= 12,
                "host {u} too far: {}",
                dist[u as usize]
            );
        }
    }

    #[test]
    fn churn_delta_valid_over_long_sequence() {
        let mut cur = grid(6, 6);
        let mut edits = 0;
        for step in 0..10 {
            let d = random_churn_delta(&cur, 3, 2, step);
            d.validate(cur.num_vertices()).unwrap();
            edits += d.add_vertices.len() + d.remove_vertices.len();
            let inc = d.apply(&cur);
            cur = inc.new_graph().clone();
            cur.validate().unwrap();
        }
        assert!(edits > 10, "churn generator produced almost no edits");
        assert!(cur.num_vertices() > 0);
    }
}
