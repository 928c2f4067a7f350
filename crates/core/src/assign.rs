//! Phase 1 — assign an initial partition to the new vertices.
//!
//! Paper §2.1: every surviving vertex keeps its partition (`M'(v) = M(v)`),
//! and every new vertex takes the partition of the *nearest old vertex*
//! in `G'` (eq. 7). New vertices in components containing no old vertex
//! are clustered and each cluster goes to the least-loaded partition
//! (the paper's fallback strategy).

use igp_graph::traversal::{clusters_of, nearest_owner_bfs_into};
use igp_graph::{IncrementalGraph, NodeId, PartId, Partitioning, NO_PART};

/// Statistics from the assignment phase.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AssignReport {
    /// Number of newly added vertices assigned.
    pub new_vertices: usize,
    /// Vertices assigned through the disconnected-cluster fallback.
    pub clustered: usize,
    /// Largest BFS distance from a new vertex to its seeding old vertex.
    pub max_dist: u32,
    /// Work units (edges scanned: the new vertices' rows, the seeding old
    /// vertices' rows and the BFS over claimed new vertices) — feeds the
    /// cost model.
    pub work: u64,
}

/// Compute the initial mapping `M'` on the new graph.
///
/// Returns the full (total) assignment vector plus the report. The old
/// partitioning must cover `inc.old()`.
pub fn assign_new_vertices(
    inc: &IncrementalGraph,
    old_part: &Partitioning,
) -> (Vec<PartId>, AssignReport) {
    let g = inc.new_graph();
    let p = old_part.num_parts();
    let mut assign = igp_graph::partition::transfer_assignment(inc, old_part);
    let added: Vec<NodeId> = g
        .vertices()
        .filter(|&v| assign[v as usize] == NO_PART)
        .collect();
    let mut report = AssignReport {
        new_vertices: added.len(),
        ..Default::default()
    };
    // The first partition to reach a new vertex claims it (= nearest old
    // vertex, eq. 7). In a multi-source BFS from all old vertices every
    // old vertex sits at distance 0, so only those with a new neighbour
    // can claim anything and claims only ever spread through new
    // vertices: seed those, expand into new vertices only.
    let mut seeds: Vec<(NodeId, u32)> = Vec::new();
    for &a in &added {
        report.work += g.degree(a) as u64;
        for &u in g.neighbors(a) {
            let q = assign[u as usize];
            if q != NO_PART {
                seeds.push((u, q));
            }
        }
    }
    if !seeds.is_empty() {
        seeds.sort_unstable();
        seeds.dedup();
        let (owner, dist) = nearest_owner_bfs_into(g, &seeds, |v| assign[v as usize] == NO_PART);
        report.work += seeds.iter().map(|&(s, _)| g.degree(s) as u64).sum::<u64>();
        for &a in &added {
            let ai = a as usize;
            if owner[ai] != u32::MAX {
                assign[ai] = owner[ai];
                report.max_dist = report.max_dist.max(dist[ai]);
                report.work += g.degree(a) as u64;
            }
        }
    }
    // Fallback: clusters of new vertices unreachable from any old vertex
    // go, whole, to the currently least-loaded partition.
    if assign.contains(&NO_PART) {
        let mut counts: Vec<u64> = vec![0; p];
        for &q in &assign {
            if q != NO_PART {
                counts[q as usize] += 1;
            }
        }
        let orphan: Vec<bool> = assign.iter().map(|&q| q == NO_PART).collect();
        for cluster in clusters_of(g, &orphan) {
            let target = counts
                .iter()
                .enumerate()
                .min_by_key(|&(q, &c)| (c, q))
                .map(|(q, _)| q)
                .unwrap();
            counts[target] += cluster.len() as u64;
            report.clustered += cluster.len();
            for v in cluster {
                assign[v as usize] = target as PartId;
            }
        }
    }
    debug_assert!(assign.iter().all(|&q| (q as usize) < p));
    (assign, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igp_graph::{generators, CsrGraph, GraphDelta};

    fn two_part_path() -> (CsrGraph, Partitioning) {
        let g = generators::path(6);
        let p = Partitioning::from_assignment(&g, 2, vec![0, 0, 0, 1, 1, 1]);
        (g, p)
    }

    #[test]
    fn survivors_keep_partitions() {
        let (g, p) = two_part_path();
        let delta = GraphDelta {
            add_vertices: vec![1],
            add_edges: vec![(5, 6, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, rep) = assign_new_vertices(&inc, &p);
        assert_eq!(&assign[..6], &[0, 0, 0, 1, 1, 1]);
        assert_eq!(rep.new_vertices, 1);
        assert_eq!(rep.clustered, 0);
    }

    #[test]
    fn new_vertex_takes_nearest_partition() {
        let (g, p) = two_part_path();
        // One new vertex attached at each end.
        let delta = GraphDelta {
            add_vertices: vec![1, 1],
            add_edges: vec![(0, 6, 1), (5, 7, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, rep) = assign_new_vertices(&inc, &p);
        assert_eq!(assign[6], 0);
        assert_eq!(assign[7], 1);
        assert_eq!(rep.max_dist, 1);
    }

    #[test]
    fn chain_of_new_vertices_propagates() {
        let (g, p) = two_part_path();
        // Chain 6-7-8 hanging off vertex 5 (partition 1).
        let delta = GraphDelta {
            add_vertices: vec![1, 1, 1],
            add_edges: vec![(5, 6, 1), (6, 7, 1), (7, 8, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, rep) = assign_new_vertices(&inc, &p);
        assert_eq!(&assign[6..9], &[1, 1, 1]);
        assert_eq!(rep.max_dist, 3);
    }

    #[test]
    fn equidistant_tie_breaks_to_smaller_partition() {
        let (g, p) = two_part_path();
        // New vertex adjacent to both 2 (part 0) and 3 (part 1).
        let delta = GraphDelta {
            add_vertices: vec![1],
            add_edges: vec![(2, 6, 1), (3, 6, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, _) = assign_new_vertices(&inc, &p);
        assert_eq!(assign[6], 0);
    }

    #[test]
    fn disconnected_cluster_goes_to_least_loaded() {
        let g = generators::path(5);
        // Partition 1 is smaller (2 vs 3).
        let p = Partitioning::from_assignment(&g, 2, vec![0, 0, 0, 1, 1]);
        // Two new vertices forming their own component.
        let delta = GraphDelta {
            add_vertices: vec![1, 1],
            add_edges: vec![(5, 6, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, rep) = assign_new_vertices(&inc, &p);
        assert_eq!(assign[5], 1);
        assert_eq!(assign[6], 1);
        assert_eq!(rep.clustered, 2);
    }

    #[test]
    fn multiple_orphan_clusters_spread() {
        let g = generators::path(4);
        let p = Partitioning::from_assignment(&g, 2, vec![0, 0, 1, 1]);
        // Two separate orphan clusters of different sizes.
        let delta = GraphDelta {
            add_vertices: vec![1, 1, 1],
            add_edges: vec![(4, 5, 1)], // cluster {4,5}; cluster {6}
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, rep) = assign_new_vertices(&inc, &p);
        assert_eq!(rep.clustered, 3);
        // First cluster {4,5} → part 0 (tie, lower id); then {6} → part 1.
        assert_eq!(assign[4], 0);
        assert_eq!(assign[5], 0);
        assert_eq!(assign[6], 1);
    }

    #[test]
    fn vertex_deletion_handled() {
        let (g, p) = two_part_path();
        let delta = GraphDelta {
            remove_vertices: vec![0],
            add_vertices: vec![1],
            add_edges: vec![(3, 6, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (assign, _) = assign_new_vertices(&inc, &p);
        // New graph: old 1..5 → new 0..4, new vertex = id 5, attached to
        // old 3 (new 2, part 1).
        assert_eq!(assign.len(), 6);
        assert_eq!(assign[5], 1);
    }
}
