//! Phase 2 — layering each partition (paper Figure 3).
//!
//! For every partition `i`, a multi-source BFS from the partition boundary
//! labels each vertex with the *closest foreign partition* `L₀(v)` (eq. 8)
//! and its distance ("level"). Level-0 vertices pick the foreign partition
//! with the most incident cross-edges; deeper vertices take the majority
//! tag of their already-labelled neighbours one level closer to the
//! boundary — exactly the counting scheme of Figure 3. Ties break to the
//! smaller partition id (the paper breaks them arbitrarily).
//!
//! The products are `λ_ij` (how many vertices of `i` may migrate to `j`)
//! and per-vertex `(tag, level)` so the balancing phase can drain vertices
//! in boundary-first order.

use igp_graph::{CsrGraph, GraphDelta, IncrementalGraph, NodeId, PartId, INVALID_NODE, NO_PART};

/// Result of layering all partitions.
#[derive(Clone, Debug, PartialEq)]
pub struct Layering {
    /// Number of partitions.
    pub num_parts: usize,
    /// `tag[v]` = closest foreign partition of `v` (`NO_PART` if none is
    /// reachable inside `v`'s partition subgraph).
    pub tag: Vec<PartId>,
    /// BFS level of `v` from its partition boundary (`u32::MAX` untagged).
    pub level: Vec<u32>,
    /// Dense `P×P` row-major movability counts: `lambda[i·P + j] = λ_ij`.
    pub lambda: Vec<u64>,
    /// Work units (edge scans) for the cost model: the sum of
    /// [`Layering::part_work`].
    pub work: u64,
    /// Edge scans spent on each partition (what a rank layering only
    /// its own partitions is charged).
    pub part_work: Vec<u64>,
}

impl Layering {
    /// `λ_ij`.
    #[inline]
    pub fn lambda(&self, i: PartId, j: PartId) -> u64 {
        self.lambda[i as usize * self.num_parts + j as usize]
    }

    /// Ordered movement buckets: for each `(i, j)` the vertices of `i`
    /// tagged `j`, sorted by `(level, id)` — the order phase 3 drains.
    pub fn buckets(&self, assign: &[PartId]) -> Vec<Vec<NodeId>> {
        let p = self.num_parts;
        let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); p * p];
        // Collect (level, v) then sort each bucket.
        let mut tmp: Vec<Vec<(u32, NodeId)>> = vec![Vec::new(); p * p];
        for (v, (&t, &l)) in self.tag.iter().zip(&self.level).enumerate() {
            if t != NO_PART {
                tmp[assign[v] as usize * p + t as usize].push((l, v as NodeId));
            }
        }
        for (b, mut list) in buckets.iter_mut().zip(tmp) {
            list.sort_unstable();
            *b = list.into_iter().map(|(_, v)| v).collect();
        }
        buckets
    }
}

/// Layer every partition.
pub fn layer_partitions(g: &CsrGraph, assign: &[PartId], p: usize) -> Layering {
    layer_owned(g, assign, p, |_| true)
}

/// Layer the partitions `owned` selects; vertices of every other
/// partition stay untagged and cost nothing.
///
/// Partitions are disjoint and the inward sweep only looks at
/// same-partition neighbours, so one level-synchronous BFS over flat
/// arrays labels all of them at once. A vertex's tag is the majority over
/// its neighbours one level closer to the boundary — labels that were
/// final before its level began — so neither the labels nor the
/// per-partition work depend on the order vertices are visited in.
pub fn layer_owned(
    g: &CsrGraph,
    assign: &[PartId],
    p: usize,
    owned: impl Fn(PartId) -> bool,
) -> Layering {
    let n = g.num_vertices();
    debug_assert_eq!(assign.len(), n);
    let mut out = Layering {
        num_parts: p,
        tag: vec![NO_PART; n],
        level: vec![u32::MAX; n],
        lambda: vec![0; p * p],
        work: 0,
        part_work: vec![0; p],
    };
    // Scratch tally of the tags seen around one vertex; zeroed again by
    // `majority` before the next vertex.
    let mut counts = vec![0u32; p];
    let mut touched: Vec<PartId> = Vec::new();
    fn count(q: PartId, counts: &mut [u32], touched: &mut Vec<PartId>) {
        if counts[q as usize] == 0 {
            touched.push(q);
        }
        counts[q as usize] += 1;
    }
    // The most frequent tag, ties to the smaller partition id.
    fn majority(counts: &mut [u32], touched: &mut Vec<PartId>) -> Option<PartId> {
        let mut best: Option<(u32, PartId)> = None;
        for q in touched.drain(..) {
            let c = std::mem::take(&mut counts[q as usize]);
            if best.is_none_or(|(bc, bq)| c > bc || (c == bc && q < bq)) {
                best = Some((c, q));
            }
        }
        best.map(|(_, q)| q)
    }

    // Level 0: boundary vertices pick the foreign partition with the most
    // incident edges.
    let mut frontier: Vec<NodeId> = Vec::new();
    for v in g.vertices() {
        let i = assign[v as usize];
        if !owned(i) {
            continue;
        }
        out.part_work[i as usize] += g.degree(v) as u64;
        for &u in g.neighbors(v) {
            let q = assign[u as usize];
            if q != i {
                count(q, &mut counts, &mut touched);
            }
        }
        if let Some(q) = majority(&mut counts, &mut touched) {
            out.tag[v as usize] = q;
            out.level[v as usize] = 0;
            frontier.push(v);
        }
    }

    // Inward sweep: untagged vertices adjacent to the frontier inside
    // their own partition take the majority tag of their level-`lvl`
    // neighbours.
    let mut lvl = 0u32;
    let mut candidates: Vec<NodeId> = Vec::new();
    let mut in_candidates = vec![false; n];
    while !frontier.is_empty() {
        candidates.clear();
        for &v in &frontier {
            let i = assign[v as usize];
            out.part_work[i as usize] += g.degree(v) as u64;
            for &u in g.neighbors(v) {
                let ui = u as usize;
                if assign[ui] == i && out.tag[ui] == NO_PART && !in_candidates[ui] {
                    in_candidates[ui] = true;
                    candidates.push(u);
                }
            }
        }
        frontier.clear();
        for &v in &candidates {
            let i = assign[v as usize];
            in_candidates[v as usize] = false;
            out.part_work[i as usize] += g.degree(v) as u64;
            for &u in g.neighbors(v) {
                let ui = u as usize;
                if assign[ui] == i && out.level[ui] == lvl {
                    count(out.tag[ui], &mut counts, &mut touched);
                }
            }
            let q = majority(&mut counts, &mut touched)
                .expect("candidate must have a levelled neighbour");
            out.tag[v as usize] = q;
            out.level[v as usize] = lvl + 1;
            frontier.push(v);
        }
        lvl += 1;
    }

    for (v, &t) in out.tag.iter().enumerate() {
        if t != NO_PART {
            out.lambda[assign[v] as usize * p + t as usize] += 1;
        }
    }
    out.work = out.part_work.iter().sum();
    out
}

/// A layering kept across one increment, with the assignment it was
/// computed on.
///
/// A partition's tags, levels, λ row and edge-scan work depend only on
/// its members, their rows, and the partitions of their neighbours. An
/// increment and the moves made since the layering change those inputs
/// for a few partitions only; [`LayerCarry::relayer`] re-sweeps those and
/// copies every other partition's labels across the increment.
#[derive(Clone, Debug)]
pub struct LayerCarry {
    assign: Vec<PartId>,
    layering: Layering,
}

impl LayerCarry {
    /// Keep `layering`, the layering of `assign`.
    pub fn new(assign: Vec<PartId>, layering: Layering) -> Self {
        debug_assert_eq!(assign.len(), layering.tag.len());
        LayerCarry { assign, layering }
    }

    /// The layering of `assign` on `inc.new_graph()`: equal to
    /// [`layer_partitions`] on it, computed by re-sweeping only the
    /// partitions whose inputs may differ.
    ///
    /// The carried layering belongs to `inc.old()`, and `delta` is the
    /// edit list `inc` was built from. A partition is *dirty* if it
    /// holds, under the carried assignment or under `assign`:
    /// * a vertex the delta names in an edge (its row changed);
    /// * a vertex added, removed, or in another partition than the
    ///   carried assignment put it (the members changed), or a
    ///   neighbour of one (a neighbour's partition changed).
    ///
    /// Every clean partition has the same members, rows and neighbour
    /// partitions on both sides, so its labels, λ row and work carry
    /// over unchanged.
    pub fn relayer(
        &self,
        inc: &IncrementalGraph,
        delta: &GraphDelta,
        assign: &[PartId],
    ) -> Layering {
        let (old, g) = (inc.old(), inc.new_graph());
        let p = self.layering.num_parts;
        assert_eq!(
            self.assign.len(),
            old.num_vertices(),
            "carry is of another graph"
        );
        let mut dirty = vec![false; p];
        // The partitions holding old vertex `v` on either side.
        let mut hold = |v: NodeId| {
            dirty[self.assign[v as usize] as usize] = true;
            let nv = inc.new_of_old(v);
            if nv != INVALID_NODE {
                dirty[assign[nv as usize] as usize] = true;
            }
        };
        let n_old = old.num_vertices() as NodeId;
        let ends = delta.add_edges.iter().map(|&(u, v, _)| (u, v));
        for (u, v) in ends.chain(delta.remove_edges.iter().copied()) {
            for w in [u, v].into_iter().filter(|&w| w < n_old) {
                hold(w);
            }
        }
        let moved = old.vertices().filter(|&v| {
            let nv = inc.new_of_old(v);
            nv != INVALID_NODE && assign[nv as usize] != self.assign[v as usize]
        });
        for v in delta.remove_vertices.iter().copied().chain(moved) {
            hold(v);
            for &u in old.neighbors(v) {
                hold(u);
            }
        }
        for v in g.vertices().filter(|&v| inc.is_added(v)) {
            dirty[assign[v as usize] as usize] = true;
            for &u in g.neighbors(v) {
                dirty[assign[u as usize] as usize] = true;
            }
        }
        if dirty.iter().all(|&d| d) {
            return layer_partitions(g, assign, p);
        }

        let mut out = layer_owned(g, assign, p, |i| dirty[i as usize]);
        let prev = &self.layering;
        for v in g.vertices() {
            if !dirty[assign[v as usize] as usize] {
                // A clean partition holds no added vertex.
                let o = inc.old_of_new(v) as usize;
                out.tag[v as usize] = prev.tag[o];
                out.level[v as usize] = prev.level[o];
            }
        }
        for i in (0..p).filter(|&i| !dirty[i]) {
            let row = i * p..(i + 1) * p;
            out.lambda[row.clone()].copy_from_slice(&prev.lambda[row]);
            out.part_work[i] = prev.part_work[i];
        }
        out.work = out.part_work.iter().sum();
        debug_assert_eq!(
            out,
            layer_partitions(g, assign, p),
            "carried layering differs from the full sweep"
        );
        out
    }
}

#[cfg(test)]
// Bucket/assignment indices are written `row * stride + col` even when
// the row is 0, keeping the flat-matrix layout visible.
#[allow(clippy::identity_op, clippy::erasing_op)]
mod tests {
    use super::*;
    use igp_graph::{generators, Partitioning};

    /// 1×8 path split in the middle.
    fn path_setup() -> (CsrGraph, Vec<PartId>) {
        let g = generators::path(8);
        (g, vec![0, 0, 0, 0, 1, 1, 1, 1])
    }

    #[test]
    fn path_levels_count_from_boundary() {
        let (g, assign) = path_setup();
        let lay = layer_partitions(&g, &assign, 2);
        // Partition 0: vertex 3 is boundary (level 0), 2 → 1, 1 → 2, 0 → 3.
        assert_eq!(lay.level[3], 0);
        assert_eq!(lay.level[2], 1);
        assert_eq!(lay.level[1], 2);
        assert_eq!(lay.level[0], 3);
        // All of partition 0 is movable only to partition 1.
        assert!(lay.tag[..4].iter().all(|&t| t == 1));
        assert!(lay.tag[4..].iter().all(|&t| t == 0));
        assert_eq!(lay.lambda(0, 1), 4);
        assert_eq!(lay.lambda(1, 0), 4);
        assert_eq!(lay.lambda(0, 0), 0);
    }

    #[test]
    fn grid_three_parts_majority_tags() {
        // 3×9 grid in three vertical bands of 3 columns each.
        let g = generators::grid(3, 9);
        let assign: Vec<PartId> = (0..27).map(|v| ((v % 9) / 3) as PartId).collect();
        let lay = layer_partitions(&g, &assign, 3);
        // Middle band borders both 0 and 2: columns 3 tag→0, column 5 tag→2.
        for r in 0..3 {
            assert_eq!(lay.tag[r * 9 + 3], 0);
            assert_eq!(lay.tag[r * 9 + 5], 2);
            assert_eq!(lay.level[r * 9 + 3], 0);
            assert_eq!(lay.level[r * 9 + 5], 0);
        }
        // λ row sums cover every vertex (graph fully layered).
        let total: u64 = lay.lambda.iter().sum();
        assert_eq!(total, 27);
        // Partition 0 can only send to 1 (not adjacent to 2).
        assert_eq!(lay.lambda(0, 2), 0);
        assert!(lay.lambda(0, 1) > 0);
    }

    #[test]
    fn level_zero_iff_boundary() {
        let g = generators::grid(6, 6);
        let assign: Vec<PartId> = (0..36).map(|v| if v % 6 < 3 { 0 } else { 1 }).collect();
        let part = Partitioning::from_assignment(&g, 2, assign.clone());
        let lay = layer_partitions(&g, &assign, 2);
        for v in g.vertices() {
            let is_boundary = part.is_boundary(&g, v);
            assert_eq!(
                lay.level[v as usize] == 0,
                is_boundary,
                "vertex {v}: level {} boundary {is_boundary}",
                lay.level[v as usize]
            );
        }
    }

    #[test]
    fn boundary_tag_picks_heaviest_cross_partition() {
        // Vertex 0 in part 0 with one neighbour in part 1 and two in part 2.
        let g = CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let assign = vec![0, 1, 2, 2];
        let lay = layer_partitions(&g, &assign, 3);
        assert_eq!(lay.tag[0], 2);
    }

    #[test]
    fn tie_breaks_to_smaller_partition() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let assign = vec![0, 2, 1];
        let lay = layer_partitions(&g, &assign, 3);
        assert_eq!(lay.tag[0], 1);
    }

    #[test]
    fn unreachable_interior_gets_no_part() {
        // Partition 0 = {0,1} ∪ {4,5} where {4,5} is a separate component
        // with no cross edges.
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let assign = vec![0, 0, 1, 1, 0, 0];
        let lay = layer_partitions(&g, &assign, 2);
        assert_eq!(lay.tag[4], NO_PART);
        assert_eq!(lay.tag[5], NO_PART);
        assert_eq!(lay.level[4], u32::MAX);
        // λ only counts taggable vertices.
        assert_eq!(lay.lambda(0, 1), 2);
    }

    #[test]
    fn buckets_sorted_by_level() {
        let (g, assign) = path_setup();
        let lay = layer_partitions(&g, &assign, 2);
        let buckets = lay.buckets(&assign);
        // Bucket (0 → 1): vertices 3,2,1,0 in boundary-first order.
        assert_eq!(buckets[0 * 2 + 1], vec![3, 2, 1, 0]);
        assert_eq!(buckets[1 * 2 + 0], vec![4, 5, 6, 7]);
    }

    #[test]
    fn work_accounted() {
        let (g, assign) = path_setup();
        let lay = layer_partitions(&g, &assign, 2);
        assert!(lay.work >= 2 * g.num_edges() as u64);
    }
}
