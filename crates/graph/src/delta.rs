//! The paper's incremental-graph model.
//!
//! Ou & Ranka define the incremental graph as
//! `G'(V', E')` with `V' = V ∪ V₁ − V₂` and `E' = E ∪ E₁ − E₂`: a small
//! number of vertices and edges are added and/or deleted. The partitioner
//! consumes an [`IncrementalGraph`]: the old graph, the new graph, and the
//! identity map tying surviving vertices together. [`GraphDelta`] is the
//! edit-list form, convertible in both directions.

use crate::csr::CsrGraph;
use crate::{NodeId, Weight, INVALID_NODE, MAX_WEIGHT};

/// Why a [`GraphDelta`] is malformed with respect to a graph of `n_old`
/// vertices.
///
/// [`GraphDelta::validate`] reports these *before* anything is applied:
/// the service boundary turns them into protocol errors instead of
/// letting [`GraphDelta::apply`] panic deep inside a step. Everything
/// checkable from `n_old` alone is covered; existence of removed edges
/// in the concrete old graph is the one condition that still needs the
/// graph itself (checked by `apply`, and by
/// [`crate::coalesce::DeltaCoalescer`] for edges created inside a
/// queued sequence).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// `remove_vertices` is not strictly ascending (unsorted or
    /// duplicated entries).
    RemoveVerticesUnsorted,
    /// A removed vertex id is not a vertex of the old graph.
    RemoveVertexOutOfRange { v: NodeId, n_old: usize },
    /// An edge endpoint is outside the id space allowed for its list
    /// (`n_old + add_vertices.len()` for added edges, `n_old` for
    /// removed edges, which may only name old-graph edges).
    EdgeOutOfRange {
        u: NodeId,
        v: NodeId,
        bound: usize,
        list: &'static str,
    },
    /// An edge with both endpoints equal.
    SelfLoop { v: NodeId, list: &'static str },
    /// An added or removed edge touches a vertex named in
    /// `remove_vertices` (incident edges of removed vertices are
    /// implicit; naming them is ambiguous).
    EdgeTouchesRemovedVertex {
        u: NodeId,
        v: NodeId,
        list: &'static str,
    },
    /// The same undirected edge appears twice in `add_edges`.
    DuplicateAddEdge { u: NodeId, v: NodeId },
    /// The same undirected edge appears twice in `remove_edges`.
    DuplicateRemoveEdge { u: NodeId, v: NodeId },
    /// An added vertex or edge weighs more than [`MAX_WEIGHT`].
    WeightTooLarge { w: Weight, what: &'static str },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DeltaError::RemoveVerticesUnsorted => {
                write!(f, "remove_vertices must be strictly ascending")
            }
            DeltaError::RemoveVertexOutOfRange { v, n_old } => {
                write!(f, "removed vertex {v} out of range (n_old = {n_old})")
            }
            DeltaError::EdgeOutOfRange { u, v, bound, list } => {
                write!(f, "{list} edge {{{u},{v}}} out of range (bound {bound})")
            }
            DeltaError::SelfLoop { v, list } => write!(f, "{list} self-loop at {v}"),
            DeltaError::EdgeTouchesRemovedVertex { u, v, list } => {
                write!(f, "{list} edge {{{u},{v}}} touches a removed vertex")
            }
            DeltaError::DuplicateAddEdge { u, v } => {
                write!(f, "edge {{{u},{v}}} added twice")
            }
            DeltaError::DuplicateRemoveEdge { u, v } => {
                write!(f, "edge {{{u},{v}}} removed twice")
            }
            DeltaError::WeightTooLarge { w, what } => {
                write!(f, "{what} weight {w} exceeds {MAX_WEIGHT}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// An edit list transforming an old graph into a new one.
///
/// Vertex addressing: survivors and removed vertices use *old* ids; the
/// `i`-th added vertex is addressed as `n_old + i`. Edges may reference any
/// of those.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphDelta {
    /// Weights of the added vertices (the `i`-th gets id `n_old + i`).
    pub add_vertices: Vec<Weight>,
    /// Old ids of removed vertices (sorted, unique). Their incident edges
    /// are removed implicitly.
    pub remove_vertices: Vec<NodeId>,
    /// Added undirected edges, in the extended old-id space.
    pub add_edges: Vec<(NodeId, NodeId, Weight)>,
    /// Removed undirected edges (old ids; must exist and not touch removed
    /// vertices — those are implicit).
    pub remove_edges: Vec<(NodeId, NodeId)>,
}

impl GraphDelta {
    /// True if the delta performs no edits.
    pub fn is_empty(&self) -> bool {
        self.add_vertices.is_empty()
            && self.remove_vertices.is_empty()
            && self.add_edges.is_empty()
            && self.remove_edges.is_empty()
    }

    /// Summary string like `+25v -0v +71e -46e` (used in reports).
    pub fn summary(&self) -> String {
        format!(
            "+{}v -{}v +{}e -{}e",
            self.add_vertices.len(),
            self.remove_vertices.len(),
            self.add_edges.len(),
            self.remove_edges.len()
        )
    }

    /// Check the delta against a graph of `n_old` vertices, returning the
    /// first structural violation as a typed [`DeltaError`].
    ///
    /// Everything checkable without the concrete graph is verified:
    /// weights up to [`MAX_WEIGHT`], id ranges, `remove_vertices` ordering, self-loops, duplicate edge
    /// entries, and edges naming removed vertices. A delta that passes
    /// can still be wrong about *edge existence* (removing an edge the
    /// old graph does not have, or re-adding one it does); those are
    /// caught by [`GraphDelta::apply`]'s assertions and, for queued
    /// sequences, by [`crate::coalesce::DeltaCoalescer::push`].
    pub fn validate(&self, n_old: usize) -> Result<(), DeltaError> {
        let heavy =
            |w: Weight, what| (w > MAX_WEIGHT).then_some(DeltaError::WeightTooLarge { w, what });
        if let Some(e) = self.add_vertices.iter().find_map(|&w| heavy(w, "vertex")) {
            return Err(e);
        }
        if let Some(e) = self
            .add_edges
            .iter()
            .find_map(|&(_, _, w)| heavy(w, "edge"))
        {
            return Err(e);
        }
        if !self.remove_vertices.windows(2).all(|w| w[0] < w[1]) {
            return Err(DeltaError::RemoveVerticesUnsorted);
        }
        if let Some(&v) = self.remove_vertices.last() {
            if (v as usize) >= n_old {
                return Err(DeltaError::RemoveVertexOutOfRange { v, n_old });
            }
        }
        let removed = |v: NodeId| self.remove_vertices.binary_search(&v).is_ok();
        let check_edge = |u: NodeId, v: NodeId, bound: usize, list: &'static str| {
            if (u as usize) >= bound || (v as usize) >= bound {
                return Err(DeltaError::EdgeOutOfRange { u, v, bound, list });
            }
            if u == v {
                return Err(DeltaError::SelfLoop { v, list });
            }
            if removed(u) || removed(v) {
                return Err(DeltaError::EdgeTouchesRemovedVertex { u, v, list });
            }
            Ok(())
        };
        let n_ext = n_old + self.add_vertices.len();
        let mut seen: Vec<(NodeId, NodeId)> = Vec::with_capacity(self.add_edges.len());
        for &(u, v, _) in &self.add_edges {
            check_edge(u, v, n_ext, "added")?;
            seen.push(if u < v { (u, v) } else { (v, u) });
        }
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(DeltaError::DuplicateAddEdge {
                u: w[0].0,
                v: w[0].1,
            });
        }
        seen.clear();
        for &(u, v) in &self.remove_edges {
            // Removed edges must name *old-graph* edges; added vertices
            // cannot have pre-existing edges.
            check_edge(u, v, n_old, "removed")?;
            seen.push(if u < v { (u, v) } else { (v, u) });
        }
        seen.sort_unstable();
        if let Some(w) = seen.windows(2).find(|w| w[0] == w[1]) {
            return Err(DeltaError::DuplicateRemoveEdge {
                u: w[0].0,
                v: w[0].1,
            });
        }
        Ok(())
    }

    /// Apply the delta to `old`, producing the incremental-graph pair.
    ///
    /// Panics on a delta that is malformed against `old` (see
    /// [`GraphDelta::validate`] for the typed form of everything that can
    /// be checked without the graph).
    pub fn apply(&self, old: &CsrGraph) -> IncrementalGraph {
        let (new, old_of_new) = self.merge_rows(old);
        IncrementalGraph::new(old.clone(), new, old_of_new)
    }

    /// [`GraphDelta::apply`] for a caller that gives its graph up: `old`
    /// becomes the pair's old side without being copied. Take the new
    /// graph back out with [`IncrementalGraph::into_new_graph`].
    pub fn apply_owned(&self, old: CsrGraph) -> IncrementalGraph {
        let (new, old_of_new) = self.merge_rows(&old);
        IncrementalGraph::new(old, new, old_of_new)
    }

    /// The new graph and its `old_of_new` map, by merging rows.
    ///
    /// Id compaction is monotone, so a surviving row stays sorted under
    /// the renaming: each row of the new CSR is the old row minus removed
    /// endpoints and killed edges, merged with the (sorted) additions
    /// that name it. Only the rows an edit names are merged entry by
    /// entry; when no vertex is removed every run of rows between them
    /// is one slice copy.
    fn merge_rows(&self, old: &CsrGraph) -> (CsrGraph, Vec<NodeId>) {
        let n_old = old.num_vertices();
        let n_ext = n_old + self.add_vertices.len();
        // New id of every extended id (old ids ∪ added ids), with
        // `INVALID_NODE` for the removed. Stays empty when no vertex is
        // removed: nothing is gone and ids keep their names.
        let mut new_of_ext: Vec<NodeId> = Vec::new();
        if !self.remove_vertices.is_empty() {
            new_of_ext = vec![0; n_ext];
            for &v in &self.remove_vertices {
                assert!((v as usize) < n_old, "remove_vertices id out of range");
                assert!(
                    new_of_ext[v as usize] != INVALID_NODE,
                    "vertex {v} removed twice"
                );
                new_of_ext[v as usize] = INVALID_NODE;
            }
            let survivors = new_of_ext.iter_mut().filter(|s| **s != INVALID_NODE);
            for (next, slot) in (0..).zip(survivors) {
                *slot = next;
            }
        }
        let compacting = !new_of_ext.is_empty();
        let renamed = |v: NodeId| {
            if compacting {
                new_of_ext[v as usize]
            } else {
                v
            }
        };
        let gone = |v: NodeId| compacting && new_of_ext[v as usize] == INVALID_NODE;
        let n_surv = n_old - self.remove_vertices.len();
        let n_new = n_ext - self.remove_vertices.len();

        // Explicit removals: each must name an edge of `old`.
        let mut kill: Vec<(NodeId, NodeId)> = self
            .remove_edges
            .iter()
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        kill.sort_unstable();
        kill.dedup();
        assert_eq!(
            kill.len(),
            self.remove_edges.len(),
            "duplicate edge removal"
        );
        for &(u, v) in &kill {
            assert!(
                (v as usize) < n_old && old.has_edge(u, v),
                "remove_edges names a non-existent edge {{{u},{v}}}"
            );
        }
        // As directed (row, col) pairs in old ids, row-major. An edge that
        // dies with an endpoint needs no kill of its own.
        let mut kills: Vec<(NodeId, NodeId)> = kill
            .iter()
            .filter(|&&(u, v)| !gone(u) && !gone(v))
            .flat_map(|&(u, v)| [(u, v), (v, u)])
            .collect();
        kills.sort_unstable();

        // Additions as directed (row, col, weight) triples in new ids,
        // row-major.
        let mut adds: Vec<(NodeId, NodeId, Weight)> = Vec::with_capacity(2 * self.add_edges.len());
        for &(u, v, w) in &self.add_edges {
            assert!(
                (u as usize) < n_ext && (v as usize) < n_ext,
                "added edge ({u},{v}) out of range"
            );
            assert!(!gone(u) && !gone(v), "added edge touches removed vertex");
            let (nu, nv) = (renamed(u), renamed(v));
            assert!(nu != nv, "self loop {nu}");
            adds.push((nu, nv, w));
            adds.push((nv, nu, w));
        }
        adds.sort_unstable_by_key(|&(r, c, _)| (r, c));
        for w in adds.windows(2) {
            assert!(
                (w[0].0, w[0].1) != (w[1].0, w[1].1),
                "duplicate edge {{{},{}}}",
                w[0].0,
                w[0].1
            );
        }

        let mut old_of_new: Vec<NodeId> = (0..n_old as NodeId).filter(|&v| !gone(v)).collect();
        old_of_new.resize(n_new, INVALID_NODE);

        let (xadj_o, adj_o, ewgt_o) = (old.xadj(), old.adjacency(), old.edge_weight_array());
        let mut xadj: Vec<u32> = Vec::with_capacity(n_new + 1);
        xadj.push(0);
        let mut adj: Vec<NodeId> = Vec::with_capacity(adj_o.len() + adds.len());
        let mut ewgt: Vec<Weight> = Vec::with_capacity(adj_o.len() + adds.len());
        let (mut kp, mut ap) = (0usize, 0usize);
        // Append the additions from `adds[*ap]` on for which `wanted` holds.
        fn take_adds(
            adds: &[(NodeId, NodeId, Weight)],
            ap: &mut usize,
            (adj, ewgt): (&mut Vec<NodeId>, &mut Vec<Weight>),
            wanted: impl Fn(&(NodeId, NodeId, Weight)) -> bool,
        ) {
            while let Some(&(_, c, w)) = adds.get(*ap).filter(|a| wanted(a)) {
                adj.push(c);
                ewgt.push(w);
                *ap += 1;
            }
        }
        let mut row = 0usize;
        while row < n_old {
            if !compacting {
                // The next row an edit names; the untouched rows before
                // it keep their contents, only their offsets shift.
                let next_kill = kills.get(kp).map_or(n_old, |k| k.0 as usize);
                let next_add = adds.get(ap).map_or(n_old, |a| (a.0 as usize).min(n_old));
                let touched = next_kill.min(next_add);
                if touched > row {
                    let (lo, hi) = (xadj_o[row] as usize, xadj_o[touched] as usize);
                    let shift = adj.len() as i64 - lo as i64;
                    adj.extend_from_slice(&adj_o[lo..hi]);
                    ewgt.extend_from_slice(&ewgt_o[lo..hi]);
                    xadj.extend(
                        xadj_o[row + 1..=touched]
                            .iter()
                            .map(|&x| (x as i64 + shift) as u32),
                    );
                    row = touched;
                    continue;
                }
            } else if gone(row as NodeId) {
                row += 1;
                continue;
            }
            let row_new = renamed(row as NodeId);
            for at in xadj_o[row] as usize..xadj_o[row + 1] as usize {
                let col_old = adj_o[at];
                if kills.get(kp) == Some(&(row as NodeId, col_old)) {
                    kp += 1;
                    continue;
                }
                if gone(col_old) {
                    continue;
                }
                let col = renamed(col_old);
                take_adds(&adds, &mut ap, (&mut adj, &mut ewgt), |a| {
                    a.0 == row_new && a.1 < col
                });
                assert!(
                    adds.get(ap).is_none_or(|a| (a.0, a.1) != (row_new, col)),
                    "duplicate edge {{{row_new},{col}}}"
                );
                adj.push(col);
                ewgt.push(ewgt_o[at]);
            }
            take_adds(&adds, &mut ap, (&mut adj, &mut ewgt), |a| a.0 == row_new);
            xadj.push(adj.len() as u32);
            row += 1;
        }
        // Rows of the added vertices: additions only.
        for row_new in n_surv..n_new {
            take_adds(&adds, &mut ap, (&mut adj, &mut ewgt), |a| {
                a.0 as usize == row_new
            });
            xadj.push(adj.len() as u32);
        }
        debug_assert_eq!((kp, ap), (kills.len(), adds.len()));

        let mut vwgt: Vec<Weight> = old
            .vertex_weights()
            .iter()
            .enumerate()
            .filter(|&(v, _)| !gone(v as NodeId))
            .map(|(_, &w)| w)
            .collect();
        vwgt.extend_from_slice(&self.add_vertices);
        (CsrGraph::from_raw_parts(xadj, adj, ewgt, vwgt), old_of_new)
    }
}

/// An old/new graph pair with vertex identity between them.
///
/// `old_of_new[v']` is the old id of the surviving vertex `v'`, or
/// [`INVALID_NODE`] if `v'` is newly added; `new_of_old` is the inverse
/// (with [`INVALID_NODE`] for deleted vertices).
#[derive(Clone, Debug)]
pub struct IncrementalGraph {
    old: CsrGraph,
    new: CsrGraph,
    old_of_new: Vec<NodeId>,
    new_of_old: Vec<NodeId>,
}

impl IncrementalGraph {
    /// Build from the old graph, new graph and the `old_of_new` map.
    ///
    /// Panics unless the map is a partial injection from new ids onto old
    /// ids (each old id used at most once, all in range).
    pub fn new(old: CsrGraph, new: CsrGraph, old_of_new: Vec<NodeId>) -> Self {
        assert_eq!(
            old_of_new.len(),
            new.num_vertices(),
            "old_of_new length mismatch"
        );
        let mut new_of_old = vec![INVALID_NODE; old.num_vertices()];
        for (v_new, &v_old) in old_of_new.iter().enumerate() {
            if v_old != INVALID_NODE {
                assert!((v_old as usize) < old.num_vertices(), "old id out of range");
                assert_eq!(
                    new_of_old[v_old as usize], INVALID_NODE,
                    "old vertex {v_old} mapped twice"
                );
                new_of_old[v_old as usize] = v_new as NodeId;
            }
        }
        IncrementalGraph {
            old,
            new,
            old_of_new,
            new_of_old,
        }
    }

    /// The graph before the incremental change.
    #[inline]
    pub fn old(&self) -> &CsrGraph {
        &self.old
    }

    /// The graph after the incremental change.
    #[inline]
    pub fn new_graph(&self) -> &CsrGraph {
        &self.new
    }

    /// Give up the pair, keeping the graph after the change.
    pub fn into_new_graph(self) -> CsrGraph {
        self.new
    }

    /// Old id of new vertex `v`, or [`INVALID_NODE`] if `v` was added.
    #[inline]
    pub fn old_of_new(&self, v: NodeId) -> NodeId {
        self.old_of_new[v as usize]
    }

    /// New id of old vertex `v`, or [`INVALID_NODE`] if `v` was deleted.
    #[inline]
    pub fn new_of_old(&self, v: NodeId) -> NodeId {
        self.new_of_old[v as usize]
    }

    /// True if new-graph vertex `v` was added by the increment.
    #[inline]
    pub fn is_added(&self, v: NodeId) -> bool {
        self.old_of_new[v as usize] == INVALID_NODE
    }

    /// New ids of all added vertices (increasing order).
    pub fn added_vertices(&self) -> Vec<NodeId> {
        self.new.vertices().filter(|&v| self.is_added(v)).collect()
    }

    /// Old ids of all deleted vertices (increasing order).
    pub fn removed_vertices(&self) -> Vec<NodeId> {
        self.old
            .vertices()
            .filter(|&v| self.new_of_old[v as usize] == INVALID_NODE)
            .collect()
    }

    /// Count of surviving vertices.
    pub fn num_survivors(&self) -> usize {
        self.old_of_new
            .iter()
            .filter(|&&v| v != INVALID_NODE)
            .count()
    }

    /// Recover the edit list (for reporting and tests).
    pub fn diff(&self) -> GraphDelta {
        let added_v: Vec<NodeId> = self.added_vertices();
        let removed_v = self.removed_vertices();
        // Extended-id addressing for added vertices: n_old + rank.
        let n_old = self.old.num_vertices() as NodeId;
        let ext_of_new = |v: NodeId| -> NodeId {
            let o = self.old_of_new[v as usize];
            if o != INVALID_NODE {
                o
            } else {
                n_old + added_v.binary_search(&v).unwrap() as NodeId
            }
        };
        let mut add_edges = Vec::new();
        for (u, v, w) in self.new.undirected_edges() {
            let (ou, ov) = (self.old_of_new[u as usize], self.old_of_new[v as usize]);
            let existed = ou != INVALID_NODE && ov != INVALID_NODE && self.old.has_edge(ou, ov);
            if !existed {
                let (a, b) = (ext_of_new(u), ext_of_new(v));
                add_edges.push(if a < b { (a, b, w) } else { (b, a, w) });
            }
        }
        let mut remove_edges = Vec::new();
        for (u, v, _) in self.old.undirected_edges() {
            let (nu, nv) = (self.new_of_old[u as usize], self.new_of_old[v as usize]);
            if nu == INVALID_NODE || nv == INVALID_NODE {
                continue; // implicit via vertex removal
            }
            if !self.new.has_edge(nu, nv) {
                remove_edges.push((u, v));
            }
        }
        add_edges.sort_unstable();
        remove_edges.sort_unstable();
        GraphDelta {
            add_vertices: added_v.iter().map(|&v| self.new.vertex_weight(v)).collect(),
            remove_vertices: removed_v,
            add_edges,
            remove_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path5() -> CsrGraph {
        CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn apply_pure_growth() {
        // Append vertices 5, 6 hanging off vertex 4.
        let delta = GraphDelta {
            add_vertices: vec![1, 1],
            add_edges: vec![(4, 5, 1), (5, 6, 1)],
            ..Default::default()
        };
        let inc = delta.apply(&path5());
        assert_eq!(inc.new_graph().num_vertices(), 7);
        assert_eq!(inc.new_graph().num_edges(), 6);
        assert_eq!(inc.added_vertices(), vec![5, 6]);
        assert_eq!(inc.old_of_new(3), 3);
        assert!(inc.is_added(6));
        assert_eq!(inc.num_survivors(), 5);
        inc.new_graph().validate().unwrap();
    }

    #[test]
    fn apply_with_removals() {
        // Remove vertex 2 (splitting the path), bridge with a new edge 1-3,
        // and drop edge 3-4.
        let delta = GraphDelta {
            add_vertices: vec![],
            remove_vertices: vec![2],
            add_edges: vec![(1, 3, 1)],
            remove_edges: vec![(3, 4)],
        };
        let inc = delta.apply(&path5());
        let g = inc.new_graph();
        assert_eq!(g.num_vertices(), 4);
        // Edges: 0-1 (kept), 1-3 (added). 1-2/2-3 die with vertex 2, 3-4 removed.
        assert_eq!(g.num_edges(), 2);
        assert_eq!(inc.new_of_old(2), INVALID_NODE);
        assert_eq!(inc.new_of_old(3), 2);
        assert_eq!(inc.new_of_old(4), 3);
        assert_eq!(inc.removed_vertices(), vec![2]);
        g.validate().unwrap();
    }

    #[test]
    fn diff_inverts_apply() {
        let delta = GraphDelta {
            add_vertices: vec![7, 9],
            remove_vertices: vec![0],
            add_edges: vec![(1, 5, 2), (5, 6, 3)],
            remove_edges: vec![(2, 3)],
        };
        let inc = delta.apply(&path5());
        let back = inc.diff();
        assert_eq!(back.add_vertices, delta.add_vertices);
        assert_eq!(back.remove_vertices, delta.remove_vertices);
        assert_eq!(back.remove_edges, vec![(2, 3)]);
        let mut expect = delta.add_edges.clone();
        expect.sort_unstable();
        assert_eq!(back.add_edges, expect);
    }

    #[test]
    fn empty_delta_is_identity() {
        let delta = GraphDelta::default();
        assert!(delta.is_empty());
        let inc = delta.apply(&path5());
        assert_eq!(inc.new_graph(), inc.old());
        assert!(inc.diff().is_empty());
    }

    #[test]
    #[should_panic(expected = "non-existent edge")]
    fn removing_missing_edge_panics() {
        let delta = GraphDelta {
            remove_edges: vec![(0, 4)],
            ..Default::default()
        };
        delta.apply(&path5());
    }

    #[test]
    fn validate_accepts_well_formed() {
        let delta = GraphDelta {
            add_vertices: vec![7, 9],
            remove_vertices: vec![0, 2],
            add_edges: vec![(1, 5, 2), (5, 6, 3)],
            remove_edges: vec![(3, 4)],
        };
        delta.validate(5).unwrap();
    }

    #[test]
    fn validate_typed_errors() {
        let n = 5;
        let unsorted = GraphDelta {
            remove_vertices: vec![2, 1],
            ..Default::default()
        };
        assert_eq!(
            unsorted.validate(n),
            Err(DeltaError::RemoveVerticesUnsorted)
        );
        let dup_rm_v = GraphDelta {
            remove_vertices: vec![1, 1],
            ..Default::default()
        };
        assert_eq!(
            dup_rm_v.validate(n),
            Err(DeltaError::RemoveVerticesUnsorted)
        );
        let oor_v = GraphDelta {
            remove_vertices: vec![5],
            ..Default::default()
        };
        assert_eq!(
            oor_v.validate(n),
            Err(DeltaError::RemoveVertexOutOfRange { v: 5, n_old: 5 })
        );
        // Added edges may use extended ids; removed edges may not.
        let ext_add = GraphDelta {
            add_vertices: vec![1],
            add_edges: vec![(0, 5, 1)],
            ..Default::default()
        };
        ext_add.validate(n).unwrap();
        let ext_rm = GraphDelta {
            add_vertices: vec![1],
            remove_edges: vec![(0, 5)],
            ..Default::default()
        };
        assert_eq!(
            ext_rm.validate(n),
            Err(DeltaError::EdgeOutOfRange {
                u: 0,
                v: 5,
                bound: 5,
                list: "removed"
            })
        );
        let loop_e = GraphDelta {
            add_edges: vec![(3, 3, 1)],
            ..Default::default()
        };
        assert_eq!(
            loop_e.validate(n),
            Err(DeltaError::SelfLoop {
                v: 3,
                list: "added"
            })
        );
        let touches = GraphDelta {
            remove_vertices: vec![2],
            add_edges: vec![(2, 4, 1)],
            ..Default::default()
        };
        assert_eq!(
            touches.validate(n),
            Err(DeltaError::EdgeTouchesRemovedVertex {
                u: 2,
                v: 4,
                list: "added"
            })
        );
        let dup_add = GraphDelta {
            add_edges: vec![(1, 3, 1), (3, 1, 2)],
            ..Default::default()
        };
        assert_eq!(
            dup_add.validate(n),
            Err(DeltaError::DuplicateAddEdge { u: 1, v: 3 })
        );
        let dup_rm = GraphDelta {
            remove_edges: vec![(4, 0), (0, 4)],
            ..Default::default()
        };
        assert_eq!(
            dup_rm.validate(n),
            Err(DeltaError::DuplicateRemoveEdge { u: 0, v: 4 })
        );
    }

    #[test]
    fn validate_refuses_weights_above_max() {
        let n = 5;
        let at_max = GraphDelta {
            add_vertices: vec![MAX_WEIGHT],
            add_edges: vec![(0, 5, MAX_WEIGHT)],
            ..Default::default()
        };
        at_max.validate(n).unwrap();
        let heavy_vertex = GraphDelta {
            add_vertices: vec![1, MAX_WEIGHT + 1],
            ..Default::default()
        };
        assert_eq!(
            heavy_vertex.validate(n),
            Err(DeltaError::WeightTooLarge {
                w: 1 << 31,
                what: "vertex"
            })
        );
        let heavy_edge = GraphDelta {
            add_edges: vec![(0, 2, u64::MAX / 2)],
            ..Default::default()
        };
        assert_eq!(
            heavy_edge.validate(n),
            Err(DeltaError::WeightTooLarge {
                w: u64::MAX / 2,
                what: "edge"
            })
        );
    }

    #[test]
    fn summary_format() {
        let delta = GraphDelta {
            add_vertices: vec![1, 1, 1],
            add_edges: vec![(0, 5, 1)],
            ..Default::default()
        };
        assert_eq!(delta.summary(), "+3v -0v +1e -0e");
    }
}
