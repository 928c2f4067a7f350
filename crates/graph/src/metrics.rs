//! Cutset and cost metrics exactly as reported in the paper's tables.
//!
//! The paper's evaluation tables print, per partitioner, the columns
//! `Cutset Total / Max / Min`:
//!
//! * **Total** — the number of edges whose endpoints lie in different
//!   partitions (each cut edge counted once).
//! * **Max / Min** — the largest/smallest per-partition *outgoing* cost
//!   `C(q) = Σ_{v∈B(q), u∉B(q)} w(v,u)` (paper eq. 2). With unit weights
//!   `Σ_q C(q) = 2·Total`.

use crate::csr::CsrGraph;
use crate::partition::Partitioning;
use crate::{NodeId, Weight};

/// Per-partition load and boundary cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartitionCosts {
    /// Vertex count `|B(q)|`.
    pub count: u32,
    /// Vertex weight `W(q)`.
    pub weight: Weight,
    /// Outgoing edge cost `C(q)` (weighted).
    pub boundary: Weight,
    /// Number of boundary vertices of `q`.
    pub boundary_vertices: u32,
}

/// Full cut statistics for one partitioning.
#[derive(Clone, Debug, PartialEq)]
pub struct CutMetrics {
    /// Number of cut edges (unweighted), the paper's `Cutset Total`.
    pub total_cut_edges: u64,
    /// Total weight of cut edges.
    pub total_cut_weight: Weight,
    /// `max_q C(q)` — the paper's `Cutset Max`.
    pub max_boundary: Weight,
    /// `min_q C(q)` — the paper's `Cutset Min`.
    pub min_boundary: Weight,
    /// Max/avg vertex-count imbalance ratio.
    pub count_imbalance: f64,
    /// Largest partition vertex count.
    pub max_count: u32,
    /// Smallest partition vertex count.
    pub min_count: u32,
    /// Per-partition detail.
    pub per_part: Vec<PartitionCosts>,
}

impl CutMetrics {
    /// Compute all statistics in one pass over the edges.
    pub fn compute(graph: &CsrGraph, part: &Partitioning) -> Self {
        let p = part.num_parts();
        let mut per_part = vec![PartitionCosts::default(); p];
        for q in 0..p {
            per_part[q].count = part.count(q as u32) as u32;
            per_part[q].weight = part.weight(q as u32);
        }
        let mut total_cut_edges = 0u64;
        let mut total_cut_weight: Weight = 0;
        for v in graph.vertices() {
            let pv = part.part_of(v);
            let mut on_boundary = false;
            for (u, w) in graph.edges_of(v) {
                let pu = part.part_of(u);
                if pu != pv {
                    on_boundary = true;
                    per_part[pv as usize].boundary += w;
                    if v < u {
                        total_cut_edges += 1;
                        total_cut_weight += w;
                    }
                }
            }
            if on_boundary {
                per_part[pv as usize].boundary_vertices += 1;
            }
        }
        let max_boundary = per_part.iter().map(|c| c.boundary).max().unwrap_or(0);
        let min_boundary = per_part.iter().map(|c| c.boundary).min().unwrap_or(0);
        let max_count = per_part.iter().map(|c| c.count).max().unwrap_or(0);
        let min_count = per_part.iter().map(|c| c.count).min().unwrap_or(0);
        CutMetrics {
            total_cut_edges,
            total_cut_weight,
            max_boundary,
            min_boundary,
            count_imbalance: part.count_imbalance(),
            max_count,
            min_count,
            per_part,
        }
    }

    /// `Σ_q C(q)`; equals `2 × total_cut_weight` (checked by tests).
    pub fn sum_boundary(&self) -> Weight {
        self.per_part.iter().map(|c| c.boundary).sum()
    }
}

/// Gain of moving `v` to partition `to`: (weighted) external edges to `to`
/// minus internal edges — the quantity `out(v, to) − in(v)` from §2.4.
pub fn move_gain(graph: &CsrGraph, part: &Partitioning, v: NodeId, to: crate::PartId) -> i64 {
    let from = part.part_of(v);
    let mut gain: i64 = 0;
    for (u, w) in graph.edges_of(v) {
        let q = part.part_of(u);
        if q == to {
            gain += w as i64;
        } else if q == from {
            gain -= w as i64;
        }
    }
    gain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle6() -> CsrGraph {
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    }

    #[test]
    fn cycle_halves_metrics() {
        let g = cycle6();
        let p = Partitioning::from_assignment(&g, 2, vec![0, 0, 0, 1, 1, 1]);
        let m = CutMetrics::compute(&g, &p);
        assert_eq!(m.total_cut_edges, 2); // edges 2-3 and 5-0
        assert_eq!(m.total_cut_weight, 2);
        assert_eq!(m.max_boundary, 2);
        assert_eq!(m.min_boundary, 2);
        assert_eq!(m.sum_boundary(), 2 * m.total_cut_weight);
        assert_eq!(m.max_count, 3);
        assert_eq!(m.min_count, 3);
        assert!((m.count_imbalance - 1.0).abs() < 1e-12);
        assert_eq!(m.per_part[0].boundary_vertices, 2);
    }

    #[test]
    fn weighted_cut() {
        let g = CsrGraph::from_weighted_edges(4, &[(0, 1, 10), (1, 2, 3), (2, 3, 10)]);
        let p = Partitioning::from_assignment(&g, 2, vec![0, 0, 1, 1]);
        let m = CutMetrics::compute(&g, &p);
        assert_eq!(m.total_cut_edges, 1);
        assert_eq!(m.total_cut_weight, 3);
    }

    #[test]
    fn single_partition_no_cut() {
        let g = cycle6();
        let p = Partitioning::all_in_one(&g, 1);
        let m = CutMetrics::compute(&g, &p);
        assert_eq!(m.total_cut_edges, 0);
        assert_eq!(m.max_boundary, 0);
    }

    #[test]
    fn round_robin_cuts_everything_on_cycle() {
        let g = cycle6();
        let p = Partitioning::round_robin(&g, 3);
        let m = CutMetrics::compute(&g, &p);
        assert_eq!(m.total_cut_edges, 6);
    }

    #[test]
    fn move_gain_matches_definition() {
        let g = cycle6();
        let p = Partitioning::from_assignment(&g, 2, vec![0, 0, 0, 1, 1, 1]);
        // Vertex 2: neighbours 1 (part 0), 3 (part 1) → out(2,1)=1, in(2)=1.
        assert_eq!(move_gain(&g, &p, 2, 1), 0);
        // Vertex 1: both neighbours internal → gain -2.
        assert_eq!(move_gain(&g, &p, 1, 1), -2);
    }
}
