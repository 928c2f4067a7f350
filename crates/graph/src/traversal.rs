//! Breadth-first traversal utilities.
//!
//! Phase 1 of the partitioner assigns each new vertex to the partition of
//! the *nearest old vertex* (shortest graph distance in `G'`), and phase 2
//! layers each partition by distance from its boundary — both are
//! multi-source BFS problems provided here in reusable form.

use crate::csr::CsrGraph;
use crate::NodeId;

/// Distance label for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single/multi-source BFS distances from `sources` over the whole graph.
pub fn bfs_distances(graph: &CsrGraph, sources: &[NodeId]) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; graph.num_vertices()];
    let mut frontier: Vec<NodeId> = Vec::with_capacity(sources.len());
    for &s in sources {
        if dist[s as usize] == UNREACHABLE {
            dist[s as usize] = 0;
            frontier.push(s);
        }
    }
    let mut next: Vec<NodeId> = Vec::new();
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        for &v in &frontier {
            for &u in graph.neighbors(v) {
                if dist[u as usize] == UNREACHABLE {
                    dist[u as usize] = level;
                    next.push(u);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    dist
}

/// Multi-source BFS that propagates an *owner label* outward: every vertex
/// receives the label of (one of) the nearest seed(s), ties broken by the
/// smaller label for determinism. Returns `(owner, dist)`; vertices
/// unreachable from any seed keep `(u32::MAX, UNREACHABLE)`.
///
/// This is exactly the paper's phase-1 rule (eq. 7): `M'(v) = M(x)` where
/// `x` minimizes `d(v, x)` over old vertices.
pub fn nearest_owner_bfs(graph: &CsrGraph, seeds: &[(NodeId, u32)]) -> (Vec<u32>, Vec<u32>) {
    nearest_owner_bfs_into(graph, seeds, |_| true)
}

/// [`nearest_owner_bfs`] that only ever claims vertices for which
/// `open(v)` holds; everything else is a wall. A vertex's label is the
/// minimum over its previous-level neighbours, so the result does not
/// depend on the order seeds or frontiers are visited in.
pub fn nearest_owner_bfs_into(
    graph: &CsrGraph,
    seeds: &[(NodeId, u32)],
    open: impl Fn(NodeId) -> bool,
) -> (Vec<u32>, Vec<u32>) {
    let n = graph.num_vertices();
    let mut owner = vec![u32::MAX; n];
    let mut dist = vec![UNREACHABLE; n];
    let mut frontier: Vec<NodeId> = Vec::with_capacity(seeds.len());
    for &(s, lab) in seeds {
        let sl = s as usize;
        if dist[sl] != 0 || owner[sl] > lab {
            // Multiple seeds on one vertex: keep the smallest label.
            if dist[sl] == UNREACHABLE {
                frontier.push(s);
            }
            dist[sl] = 0;
            owner[sl] = owner[sl].min(lab);
        }
    }
    let mut next: Vec<NodeId> = Vec::new();
    let mut level = 0u32;
    while !frontier.is_empty() {
        level += 1;
        // First sweep: claim distances; second sweep within the level keeps
        // the minimum label among same-distance predecessors (determinism).
        for &v in &frontier {
            let lab = owner[v as usize];
            for &u in graph.neighbors(v) {
                let ul = u as usize;
                if dist[ul] == UNREACHABLE {
                    if !open(u) {
                        continue;
                    }
                    dist[ul] = level;
                    owner[ul] = lab;
                    next.push(u);
                } else if dist[ul] == level && owner[ul] > lab {
                    owner[ul] = lab;
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    (owner, dist)
}

/// Connected components. Returns `(num_components, component_id_per_vertex)`
/// with component ids dense in `0..num_components`, numbered by smallest
/// contained vertex.
pub fn connected_components(graph: &CsrGraph) -> (usize, Vec<u32>) {
    components_filtered(graph, |_| true)
}

/// Connected components of the subgraph induced by `keep(v)`. Vertices
/// outside the filter get component id `u32::MAX`.
pub fn components_filtered(graph: &CsrGraph, keep: impl Fn(NodeId) -> bool) -> (usize, Vec<u32>) {
    let n = graph.num_vertices();
    let mut comp = vec![u32::MAX; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut count = 0u32;
    for v in graph.vertices() {
        if comp[v as usize] != u32::MAX || !keep(v) {
            continue;
        }
        comp[v as usize] = count;
        stack.push(v);
        while let Some(x) = stack.pop() {
            for &u in graph.neighbors(x) {
                if comp[u as usize] == u32::MAX && keep(u) {
                    comp[u as usize] = count;
                    stack.push(u);
                }
            }
        }
        count += 1;
    }
    (count as usize, comp)
}

/// True if the whole graph is connected (the paper assumes `G'` connected
/// for the basic assignment rule; callers check this to pick a fallback).
pub fn is_connected(graph: &CsrGraph) -> bool {
    graph.num_vertices() <= 1 || connected_components(graph).0 == 1
}

/// BFS visit order from `source` (for layout experiments and tests).
pub fn bfs_order(graph: &CsrGraph, source: NodeId) -> Vec<NodeId> {
    let n = graph.num_vertices();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    seen[source as usize] = true;
    order.push(source);
    while head < order.len() {
        let v = order[head];
        head += 1;
        for &u in graph.neighbors(v) {
            if !seen[u as usize] {
                seen[u as usize] = true;
                order.push(u);
            }
        }
    }
    order
}

/// Cluster the vertices for which `in_set` is true into connected clusters
/// (within the induced subgraph), returning one `Vec` per cluster. The
/// paper needs this for new vertices not connected to any old vertex: "the
/// new nodes … can be clustered together (into potentially disjoint
/// clusters) and assigned to the partition that has the least number of
/// vertices".
pub fn clusters_of(graph: &CsrGraph, in_set: &[bool]) -> Vec<Vec<NodeId>> {
    let (count, comp) = components_filtered(graph, |v| in_set[v as usize]);
    let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); count];
    for v in graph.vertices() {
        let c = comp[v as usize];
        if c != u32::MAX {
            out[c as usize].push(v);
        }
    }
    out
}

/// Farthest-first check helper: the nearest seed actually attained.
/// Verifies the `nearest_owner_bfs` output in tests/property suites.
pub fn verify_nearest_owner(
    graph: &CsrGraph,
    seeds: &[(NodeId, u32)],
    owner: &[u32],
    dist: &[u32],
) -> bool {
    // Distances from each label's seed set must match the claimed dist, and
    // the owning label must achieve it.
    let mut by_label: Vec<(u32, Vec<NodeId>)> = Vec::new();
    for &(s, lab) in seeds {
        match by_label.iter_mut().find(|(l, _)| *l == lab) {
            Some((_, v)) => v.push(s),
            None => by_label.push((lab, vec![s])),
        }
    }
    let all_sources: Vec<NodeId> = seeds.iter().map(|&(s, _)| s).collect();
    let true_dist = bfs_distances(graph, &all_sources);
    for v in graph.vertices() {
        if true_dist[v as usize] != dist[v as usize] {
            return false;
        }
        if dist[v as usize] == UNREACHABLE {
            if owner[v as usize] != u32::MAX {
                return false;
            }
            continue;
        }
        let lab = owner[v as usize];
        let Some((_, srcs)) = by_label.iter().find(|(l, _)| *l == lab) else {
            return false;
        };
        let lab_dist = bfs_distances(graph, srcs);
        if lab_dist[v as usize] != dist[v as usize] {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> CsrGraph {
        let edges: Vec<(NodeId, NodeId)> =
            (0..n - 1).map(|i| (i as NodeId, i as NodeId + 1)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn distances_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, &[0]);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d2 = bfs_distances(&g, &[0, 4]);
        assert_eq!(d2, vec![0, 1, 2, 1, 0]);
    }

    #[test]
    fn unreachable_marked() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let d = bfs_distances(&g, &[0]);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn nearest_owner_on_path() {
        let g = path(7);
        let (owner, dist) = nearest_owner_bfs(&g, &[(0, 10), (6, 20)]);
        assert_eq!(owner, vec![10, 10, 10, 10, 20, 20, 20]); // tie at 3 → smaller label
        assert_eq!(dist, vec![0, 1, 2, 3, 2, 1, 0]);
        assert!(verify_nearest_owner(&g, &[(0, 10), (6, 20)], &owner, &dist));
    }

    #[test]
    fn nearest_owner_tie_determinism() {
        // Square: seeds at opposite corners with labels 5 and 3; the two
        // middle vertices are equidistant → both take label 3.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let (owner, _) = nearest_owner_bfs(&g, &[(0, 5), (2, 3)]);
        assert_eq!(owner[1], 3);
        assert_eq!(owner[3], 3);
    }

    #[test]
    fn components() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (4, 5)]);
        let (n, comp) = connected_components(&g);
        assert_eq!(n, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], 1); // isolated vertex 3 is its own component
        assert_eq!(comp[4], comp[5]);
        assert!(!is_connected(&g));
        assert!(is_connected(&path(4)));
    }

    #[test]
    fn filtered_components() {
        // Path 0-1-2-3-4 with 2 filtered out → {0,1} and {3,4}.
        let g = path(5);
        let (n, comp) = components_filtered(&g, |v| v != 2);
        assert_eq!(n, 2);
        assert_eq!(comp[2], u32::MAX);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
    }

    #[test]
    fn clusters_listing() {
        let g = path(5);
        let in_set = vec![true, true, false, true, true];
        let cl = clusters_of(&g, &in_set);
        assert_eq!(cl, vec![vec![0, 1], vec![3, 4]]);
    }

    #[test]
    fn bfs_order_visits_all() {
        let g = path(4);
        assert_eq!(bfs_order(&g, 2), vec![2, 1, 3, 0]);
    }
}
