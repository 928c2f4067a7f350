//! Immutable compressed-sparse-row (CSR) undirected graphs.
//!
//! A [`CsrGraph`] stores each undirected edge twice (once per endpoint) in
//! flat arrays, which is the layout every phase of the partitioner scans:
//! assignment BFS, layering BFS, boundary classification and refinement all
//! iterate neighbour lists linearly.

use crate::{NodeId, Weight};

/// An immutable undirected graph in CSR form.
///
/// Invariants (checked by [`CsrGraph::validate`], enforced by the builder):
/// * `xadj.len() == n + 1`, `xadj[0] == 0`, `xadj` non-decreasing.
/// * `adj.len() == ewgt.len() == xadj[n]` = 2·(number of undirected edges).
/// * adjacency is symmetric: `v ∈ adj(u)` ⇔ `u ∈ adj(v)`, with equal weight.
/// * no self-loops, no duplicate edges.
/// * neighbour lists are sorted ascending (enables binary-search `has_edge`
///   and deterministic iteration).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    xadj: Vec<u32>,
    adj: Vec<NodeId>,
    ewgt: Vec<Weight>,
    vwgt: Vec<Weight>,
}

impl CsrGraph {
    /// The empty graph.
    pub fn empty() -> Self {
        CsrGraph {
            xadj: vec![0],
            adj: Vec::new(),
            ewgt: Vec::new(),
            vwgt: Vec::new(),
        }
    }

    /// Assemble from finished CSR arrays. The caller vouches for every
    /// invariant in the type's docs (checked in debug builds).
    pub(crate) fn from_raw_parts(
        xadj: Vec<u32>,
        adj: Vec<NodeId>,
        ewgt: Vec<Weight>,
        vwgt: Vec<Weight>,
    ) -> Self {
        let g = CsrGraph {
            xadj,
            adj,
            ewgt,
            vwgt,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// Build from an undirected edge list with unit vertex and edge weights.
    ///
    /// Duplicate edges and self-loops are rejected with a panic — callers
    /// own deduplication (the builders in this workspace never produce
    /// them). Edges may be listed in either orientation.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let mut b = CsrBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v, 1);
        }
        b.build()
    }

    /// Build from an edge list with explicit edge weights (unit vertex weights).
    pub fn from_weighted_edges(n: usize, edges: &[(NodeId, NodeId, Weight)]) -> Self {
        let mut b = CsrBuilder::new(n);
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.build()
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.xadj[v as usize + 1] - self.xadj[v as usize]) as usize
    }

    /// Neighbours of `v`, sorted ascending.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.xadj[v as usize] as usize..self.xadj[v as usize + 1] as usize]
    }

    /// Edge weights aligned with [`CsrGraph::neighbors`].
    #[inline]
    pub fn edge_weights(&self, v: NodeId) -> &[Weight] {
        &self.ewgt[self.xadj[v as usize] as usize..self.xadj[v as usize + 1] as usize]
    }

    /// Neighbour/weight pairs of `v`.
    #[inline]
    pub fn edges_of(&self, v: NodeId) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.edge_weights(v).iter().copied())
    }

    /// Weight of vertex `v`.
    #[inline]
    pub fn vertex_weight(&self, v: NodeId) -> Weight {
        self.vwgt[v as usize]
    }

    /// All vertex weights.
    #[inline]
    pub fn vertex_weights(&self) -> &[Weight] {
        &self.vwgt
    }

    /// Sum of all vertex weights.
    pub fn total_vertex_weight(&self) -> Weight {
        self.vwgt.iter().sum()
    }

    /// Replace the vertex weights (length must equal `num_vertices`).
    pub fn set_vertex_weights(&mut self, w: Vec<Weight>) {
        assert_eq!(
            w.len(),
            self.num_vertices(),
            "vertex weight length mismatch"
        );
        self.vwgt = w;
    }

    /// True if the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Weight of edge `{u, v}` if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.neighbors(u)
            .binary_search(&v)
            .ok()
            .map(|i| self.edge_weights(u)[i])
    }

    /// Iterate over every vertex id.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_vertices() as NodeId
    }

    /// Iterate each undirected edge once, as `(u, v, w)` with `u < v`.
    pub fn undirected_edges(&self) -> impl Iterator<Item = (NodeId, NodeId, Weight)> + '_ {
        self.vertices().flat_map(move |u| {
            self.edges_of(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, w)| (u, v, w))
        })
    }

    /// Raw CSR offsets (length `n + 1`); useful for external solvers.
    #[inline]
    pub fn xadj(&self) -> &[u32] {
        &self.xadj
    }

    /// Raw adjacency array (length `2m`).
    #[inline]
    pub fn adjacency(&self) -> &[NodeId] {
        &self.adj
    }

    /// Raw edge-weight array, aligned with [`CsrGraph::adjacency`].
    #[inline]
    pub(crate) fn edge_weight_array(&self) -> &[Weight] {
        &self.ewgt
    }

    /// Extract the vertex-induced subgraph on `keep` (which must be sorted,
    /// deduplicated and in range). Returns the subgraph plus the mapping
    /// from subgraph ids back to original ids.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (CsrGraph, Vec<NodeId>) {
        debug_assert!(
            keep.windows(2).all(|w| w[0] < w[1]),
            "keep must be sorted+unique"
        );
        let n = self.num_vertices();
        let mut local = vec![u32::MAX; n];
        for (i, &v) in keep.iter().enumerate() {
            local[v as usize] = i as u32;
        }
        let mut b = CsrBuilder::new(keep.len());
        for (i, &v) in keep.iter().enumerate() {
            b.set_vertex_weight(i as NodeId, self.vertex_weight(v));
            for (u, w) in self.edges_of(v) {
                let lu = local[u as usize];
                if lu != u32::MAX && (i as u32) < lu {
                    b.add_edge(i as NodeId, lu, w);
                }
            }
        }
        (b.build(), keep.to_vec())
    }

    /// Check every structural invariant; returns a description of the first
    /// violation. Intended for tests and debug assertions, not hot paths.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.xadj[0] != 0 {
            return Err("xadj[0] != 0".into());
        }
        if self.adj.len() != *self.xadj.last().unwrap() as usize {
            return Err("adj length mismatch".into());
        }
        if self.ewgt.len() != self.adj.len() {
            return Err("ewgt length mismatch".into());
        }
        if self.vwgt.len() != n {
            return Err("vwgt length mismatch".into());
        }
        for v in 0..n {
            if self.xadj[v] > self.xadj[v + 1] {
                return Err(format!("xadj decreasing at {v}"));
            }
            let nbrs = self.neighbors(v as NodeId);
            for w in nbrs.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("neighbours of {v} not sorted+unique"));
                }
            }
            for (&u, &w) in nbrs.iter().zip(self.edge_weights(v as NodeId)) {
                if u as usize >= n {
                    return Err(format!("edge target {u} out of range"));
                }
                if u as usize == v {
                    return Err(format!("self loop at {v}"));
                }
                match self.edge_weight(u, v as NodeId) {
                    Some(wr) if wr == w => {}
                    Some(_) => return Err(format!("asymmetric weight on {{{v},{u}}}")),
                    None => return Err(format!("missing reverse edge {{{u},{v}}}")),
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder producing a [`CsrGraph`].
///
/// Edges are buffered as oriented pairs and materialized (both directions,
/// sorted) by [`CsrBuilder::build`] with a counting-sort pass — O(n + m),
/// no hashing.
#[derive(Clone, Debug)]
pub struct CsrBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId, Weight)>,
    vwgt: Vec<Weight>,
}

impl CsrBuilder {
    /// A builder for a graph of `n` vertices, unit vertex weights.
    pub fn new(n: usize) -> Self {
        CsrBuilder {
            n,
            edges: Vec::new(),
            vwgt: vec![1; n],
        }
    }

    /// Reserve space for `m` undirected edges.
    pub fn with_edge_capacity(n: usize, m: usize) -> Self {
        let mut b = Self::new(n);
        b.edges.reserve(m);
        b
    }

    /// Add the undirected edge `{u, v}` with weight `w`.
    ///
    /// Panics on self-loops or out-of-range endpoints. Duplicates are
    /// detected at `build` time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) {
        assert!(u != v, "self loop {u}");
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range"
        );
        self.edges.push((u, v, w));
    }

    /// Set the weight of vertex `v`.
    pub fn set_vertex_weight(&mut self, v: NodeId, w: Weight) {
        self.vwgt[v as usize] = w;
    }

    /// Number of vertices this builder was created with.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Materialize the CSR graph. Panics on duplicate edges.
    pub fn build(self) -> CsrGraph {
        let n = self.n;
        let mut deg = vec![0u32; n + 1];
        for &(u, v, _) in &self.edges {
            deg[u as usize + 1] += 1;
            deg[v as usize + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let xadj = deg.clone();
        let total = xadj[n] as usize;
        let mut adj = vec![0 as NodeId; total];
        let mut ewgt = vec![0 as Weight; total];
        let mut cursor = xadj.clone();
        for &(u, v, w) in &self.edges {
            let cu = &mut cursor[u as usize];
            adj[*cu as usize] = v;
            ewgt[*cu as usize] = w;
            *cu += 1;
            let cv = &mut cursor[v as usize];
            adj[*cv as usize] = u;
            ewgt[*cv as usize] = w;
            *cv += 1;
        }
        // Sort each neighbour list (typically tiny: mesh degree ≈ 6) and
        // check for duplicates.
        let mut scratch: Vec<(NodeId, Weight)> = Vec::new();
        for v in 0..n {
            let lo = xadj[v] as usize;
            let hi = xadj[v + 1] as usize;
            scratch.clear();
            scratch.extend(
                adj[lo..hi]
                    .iter()
                    .copied()
                    .zip(ewgt[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(u, _)| u);
            for w in scratch.windows(2) {
                assert!(w[0].0 != w[1].0, "duplicate edge {{{v},{}}}", w[0].0);
            }
            for (i, &(u, w)) in scratch.iter().enumerate() {
                adj[lo + i] = u;
                ewgt[lo + i] = w;
            }
        }
        CsrGraph {
            xadj,
            adj,
            ewgt,
            vwgt: self.vwgt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> CsrGraph {
        CsrGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn triangle_structure() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert!(g.has_edge(2, 1));
        assert!(!g.has_edge(0, 0));
        g.validate().unwrap();
    }

    #[test]
    fn weighted_edges_roundtrip() {
        let g = CsrGraph::from_weighted_edges(4, &[(0, 1, 5), (1, 2, 7), (3, 0, 2)]);
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 0), Some(5));
        assert_eq!(g.edge_weight(2, 1), Some(7));
        assert_eq!(g.edge_weight(0, 3), Some(2));
        assert_eq!(g.edge_weight(0, 2), None);
        g.validate().unwrap();
    }

    #[test]
    fn vertex_weights() {
        let mut b = CsrBuilder::new(3);
        b.add_edge(0, 1, 1);
        b.set_vertex_weight(2, 10);
        let g = b.build();
        assert_eq!(g.vertex_weight(0), 1);
        assert_eq!(g.vertex_weight(2), 10);
        assert_eq!(g.total_vertex_weight(), 12);
    }

    #[test]
    fn undirected_edges_each_once() {
        let g = triangle();
        let edges: Vec<_> = g.undirected_edges().collect();
        assert_eq!(edges, vec![(0, 1, 1), (0, 2, 1), (1, 2, 1)]);
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn rejects_self_loop() {
        CsrGraph::from_edges(2, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edge() {
        CsrGraph::from_edges(2, &[(0, 1), (1, 0)]);
    }

    #[test]
    fn induced_subgraph_of_path() {
        // 0-1-2-3-4; keep {0,1,3,4} -> edges {0,1} and {3,4} only.
        let g = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let (sub, map) = g.induced_subgraph(&[0, 1, 3, 4]);
        assert_eq!(sub.num_vertices(), 4);
        assert_eq!(sub.num_edges(), 2);
        assert!(sub.has_edge(0, 1)); // 0-1
        assert!(sub.has_edge(2, 3)); // 3-4
        assert!(!sub.has_edge(1, 2));
        assert_eq!(map, vec![0, 1, 3, 4]);
        sub.validate().unwrap();
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = CsrGraph::from_edges(5, &[(0, 1)]);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(4), &[] as &[NodeId]);
        g.validate().unwrap();
    }
}
