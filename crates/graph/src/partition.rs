//! Partition assignments `M : V → P` with maintained per-partition loads,
//! cut size and boundary.

use crate::csr::CsrGraph;
use crate::{NodeId, PartId, Weight, NO_PART};

/// A total assignment of the vertices of one graph to `P` partitions,
/// with per-partition vertex counts and weights, the number of cut edges
/// and every vertex's foreign-neighbour count maintained incrementally
/// under moves.
///
/// This is the object the paper's algorithm updates in place: phase 3 moves
/// `l_ij` vertices from partition `i` to `j`, phase 4 migrates boundary
/// vertices; both go through [`Partitioning::move_vertex`].
///
/// The cut and boundary state belongs to the graph the partitioning was
/// built on ([`Partitioning::from_assignment`]): every method taking a
/// `graph` must be handed that same graph. To carry an assignment over to
/// another graph, rebuild with `from_assignment`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partitioning {
    num_parts: usize,
    assign: Vec<PartId>,
    counts: Vec<u32>,
    weights: Vec<Weight>,
    /// `foreign[v]` = neighbours of `v` assigned to another partition.
    foreign: Vec<u32>,
    /// Edges whose endpoints lie in different partitions, each once.
    cut_edges: u64,
}

impl Partitioning {
    /// Wrap an existing assignment vector. Panics if any entry is out of
    /// range. `graph` supplies the vertex weights and the adjacency the
    /// cut and boundary state is counted over (one O(n + m) pass).
    pub fn from_assignment(graph: &CsrGraph, num_parts: usize, assign: Vec<PartId>) -> Self {
        assert_eq!(
            assign.len(),
            graph.num_vertices(),
            "assignment length mismatch"
        );
        let mut counts = vec![0u32; num_parts];
        let mut weights = vec![0 as Weight; num_parts];
        let mut foreign = vec![0u32; assign.len()];
        let mut cut_ends = 0u64;
        for (v, &p) in assign.iter().enumerate() {
            assert!(
                (p as usize) < num_parts,
                "vertex {v} assigned to invalid part {p}"
            );
            counts[p as usize] += 1;
            weights[p as usize] += graph.vertex_weight(v as NodeId);
            let f = graph
                .neighbors(v as NodeId)
                .iter()
                .filter(|&&u| assign[u as usize] != p)
                .count();
            foreign[v] = f as u32;
            cut_ends += f as u64;
        }
        Partitioning {
            num_parts,
            assign,
            counts,
            weights,
            foreign,
            cut_edges: cut_ends / 2,
        }
    }

    /// Assign every vertex to partition 0 (useful as a degenerate baseline).
    pub fn all_in_one(graph: &CsrGraph, num_parts: usize) -> Self {
        Self::from_assignment(graph, num_parts, vec![0; graph.num_vertices()])
    }

    /// Round-robin assignment `v ↦ v mod P` (a deliberately bad baseline
    /// with terrible cut, used by tests and ablations).
    pub fn round_robin(graph: &CsrGraph, num_parts: usize) -> Self {
        let assign = (0..graph.num_vertices())
            .map(|v| (v % num_parts) as PartId)
            .collect();
        Self::from_assignment(graph, num_parts, assign)
    }

    /// Number of partitions `P`.
    #[inline]
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.assign.len()
    }

    /// Partition of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: NodeId) -> PartId {
        self.assign[v as usize]
    }

    /// The raw assignment slice.
    #[inline]
    pub fn assignment(&self) -> &[PartId] {
        &self.assign
    }

    /// Vertex count of partition `p` (the paper's `|B(p)|`).
    #[inline]
    pub fn count(&self, p: PartId) -> usize {
        self.counts[p as usize] as usize
    }

    /// Vertex-weight load of partition `p` (the paper's `W(p)`).
    #[inline]
    pub fn weight(&self, p: PartId) -> Weight {
        self.weights[p as usize]
    }

    /// All partition vertex counts.
    #[inline]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// All partition weights.
    #[inline]
    pub fn weights(&self) -> &[Weight] {
        &self.weights
    }

    /// Move vertex `v` to partition `to`, maintaining loads, the cut and
    /// the foreign-neighbour counts of `v` and its neighbours in O(deg v):
    /// an edge into `v`'s old partition becomes cut, one into `to` stops
    /// being cut. `graph` must be the graph this partitioning was built on.
    pub fn move_vertex(&mut self, graph: &CsrGraph, v: NodeId, to: PartId) {
        debug_assert!((to as usize) < self.num_parts);
        debug_assert_eq!(graph.num_vertices(), self.assign.len());
        let from = self.assign[v as usize];
        if from == to {
            return;
        }
        let w = graph.vertex_weight(v);
        self.counts[from as usize] -= 1;
        self.weights[from as usize] -= w;
        self.counts[to as usize] += 1;
        self.weights[to as usize] += w;
        self.assign[v as usize] = to;
        for &u in graph.neighbors(v) {
            let q = self.assign[u as usize];
            if q == from {
                self.foreign[u as usize] += 1;
                self.foreign[v as usize] += 1;
                self.cut_edges += 1;
            } else if q == to {
                self.foreign[u as usize] -= 1;
                self.foreign[v as usize] -= 1;
                self.cut_edges -= 1;
            }
        }
    }

    /// Number of cut edges (each counted once, unweighted): what
    /// [`crate::CutMetrics::compute`] recounts as `total_cut_edges`.
    #[inline]
    pub fn cut_edges(&self) -> u64 {
        self.cut_edges
    }

    /// Average load `μ̄ = Σ|B(i)| / P` in vertex count.
    pub fn average_count(&self) -> f64 {
        self.assign.len() as f64 / self.num_parts as f64
    }

    /// Max/avg count imbalance ratio (1.0 = perfectly balanced).
    pub fn count_imbalance(&self) -> f64 {
        let max = *self.counts.iter().max().unwrap_or(&0) as f64;
        let avg = self.average_count();
        if avg == 0.0 {
            1.0
        } else {
            max / avg
        }
    }

    /// Members of partition `p`, ascending.
    pub fn members(&self, p: PartId) -> Vec<NodeId> {
        self.assign
            .iter()
            .enumerate()
            .filter(|&(_, &q)| q == p)
            .map(|(v, _)| v as NodeId)
            .collect()
    }

    /// Member lists of all partitions in one pass.
    pub fn all_members(&self) -> Vec<Vec<NodeId>> {
        let mut out: Vec<Vec<NodeId>> = (0..self.num_parts)
            .map(|p| Vec::with_capacity(self.counts[p] as usize))
            .collect();
        for (v, &p) in self.assign.iter().enumerate() {
            out[p as usize].push(v as NodeId);
        }
        out
    }

    /// Number of neighbours of `v` in a different partition (O(1): the
    /// maintained count).
    #[inline]
    pub fn foreign_degree(&self, v: NodeId) -> u32 {
        self.foreign[v as usize]
    }

    /// True if `v` has a neighbour in a different partition (O(1)).
    #[inline]
    pub fn is_boundary(&self, graph: &CsrGraph, v: NodeId) -> bool {
        debug_assert_eq!(graph.num_vertices(), self.assign.len());
        self.foreign[v as usize] > 0
    }

    /// All boundary vertices, ascending.
    pub fn boundary_vertices(&self, graph: &CsrGraph) -> Vec<NodeId> {
        graph
            .vertices()
            .filter(|&v| self.is_boundary(graph, v))
            .collect()
    }

    /// Check internal consistency: counts, weights, cut and
    /// foreign-neighbour counts all match a from-scratch recount of the
    /// assignment over `graph`.
    pub fn validate(&self, graph: &CsrGraph) -> Result<(), String> {
        if self.assign.len() != graph.num_vertices() {
            return Err("assignment length mismatch".into());
        }
        if let Some((v, &p)) = self
            .assign
            .iter()
            .enumerate()
            .find(|&(_, &p)| p as usize >= self.num_parts)
        {
            return Err(format!("vertex {v} in invalid part {p}"));
        }
        let fresh = Self::from_assignment(graph, self.num_parts, self.assign.clone());
        if fresh.counts != self.counts {
            return Err("cached counts stale".into());
        }
        if fresh.weights != self.weights {
            return Err("cached weights stale".into());
        }
        if fresh.foreign != self.foreign {
            return Err("cached foreign-neighbour counts stale".into());
        }
        if fresh.cut_edges != self.cut_edges {
            return Err("cached cut stale".into());
        }
        Ok(())
    }
}

/// A *partial* assignment used mid-pipeline by phase 1: surviving vertices
/// carry their old partition, added vertices start as [`NO_PART`].
pub fn transfer_assignment(
    inc: &crate::IncrementalGraph,
    old_partitioning: &Partitioning,
) -> Vec<PartId> {
    let new_g = inc.new_graph();
    let mut assign = vec![NO_PART; new_g.num_vertices()];
    for v in new_g.vertices() {
        let old = inc.old_of_new(v);
        if old != crate::INVALID_NODE {
            assign[v as usize] = old_partitioning.part_of(old);
        }
    }
    assign
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::GraphDelta;

    fn cycle6() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    }

    fn halves(g: &CsrGraph) -> Partitioning {
        Partitioning::from_assignment(g, 2, vec![0, 0, 0, 1, 1, 1])
    }

    #[test]
    fn loads_maintained_by_moves() {
        let g = cycle6();
        let mut p = halves(&g);
        assert_eq!(p.count(0), 3);
        p.move_vertex(&g, 2, 1);
        assert_eq!(p.count(0), 2);
        assert_eq!(p.count(1), 4);
        assert_eq!(p.part_of(2), 1);
        p.validate(&g).unwrap();
        // Moving to the same partition is a no-op.
        p.move_vertex(&g, 2, 1);
        assert_eq!(p.count(1), 4);
    }

    #[test]
    fn cut_and_boundary_maintained_by_moves() {
        let g = cycle6();
        let mut p = halves(&g);
        assert_eq!(p.cut_edges(), 2);
        // 2 joins part 1: the cut edge {2,3} heals, {1,2} opens.
        p.move_vertex(&g, 2, 1);
        assert_eq!(p.cut_edges(), 2);
        assert_eq!(p.boundary_vertices(&g), vec![0, 1, 2, 5]);
        // 1 follows: part 0 is the single vertex 0, still two cut edges.
        p.move_vertex(&g, 1, 1);
        assert_eq!(p.cut_edges(), 2);
        assert_eq!(p.boundary_vertices(&g), vec![0, 1, 5]);
        p.validate(&g).unwrap();
        // And back again.
        p.move_vertex(&g, 1, 0);
        p.move_vertex(&g, 2, 0);
        assert_eq!(p, halves(&g));
    }

    #[test]
    fn boundary_detection_on_cycle() {
        let g = cycle6();
        let p = halves(&g);
        // Boundary vertices: 0 and 2 (adjacent to part 1), 3 and 5.
        assert_eq!(p.boundary_vertices(&g), vec![0, 2, 3, 5]);
        assert!(!p.is_boundary(&g, 1));
        assert!(!p.is_boundary(&g, 4));
    }

    #[test]
    fn imbalance_ratios() {
        let g = cycle6();
        let p = Partitioning::from_assignment(&g, 3, vec![0, 0, 0, 0, 1, 2]);
        assert!((p.count_imbalance() - 2.0).abs() < 1e-12); // max 4 / avg 2
        assert!((p.average_count() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn members_listing() {
        let g = cycle6();
        let p = halves(&g);
        assert_eq!(p.members(1), vec![3, 4, 5]);
        let all = p.all_members();
        assert_eq!(all[0], vec![0, 1, 2]);
        assert_eq!(all[1], vec![3, 4, 5]);
    }

    #[test]
    fn transfer_assignment_marks_new_vertices() {
        let g = cycle6();
        let p = halves(&g);
        let delta = GraphDelta {
            add_vertices: vec![1],
            add_edges: vec![(0, 6, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let partial = transfer_assignment(&inc, &p);
        assert_eq!(partial[..6], [0, 0, 0, 1, 1, 1]);
        assert_eq!(partial[6], NO_PART);
    }

    #[test]
    fn transfer_assignment_skips_removed() {
        let g = cycle6();
        let p = halves(&g);
        let delta = GraphDelta {
            remove_vertices: vec![0],
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let partial = transfer_assignment(&inc, &p);
        // New ids 0..5 map to old 1..6.
        assert_eq!(partial, vec![0, 0, 1, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "invalid part")]
    fn out_of_range_part_rejected() {
        let g = cycle6();
        Partitioning::from_assignment(&g, 2, vec![0, 0, 0, 1, 1, 2]);
    }
}
