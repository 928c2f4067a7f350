//! Recursive Spectral Bisection (the from-scratch baseline, paper "SB").
//!
//! Each recursion level extracts the induced subgraph, computes its
//! Fiedler vector, sorts vertices by Fiedler value and splits at the
//! position proportional to the partition counts assigned to each side
//! (supporting non-power-of-two `P`). Disconnected subgraphs are handled
//! by concatenating components before the split, which keeps whole
//! components together whenever sizes allow.

use crate::lanczos::{fiedler_multilevel, fiedler_vector, FiedlerOptions};
use igp_graph::traversal::connected_components;
use igp_graph::{CsrGraph, NodeId, PartId, Partitioning};

/// Which Fiedler solver each bisection runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FiedlerSolver {
    /// [`fiedler_multilevel`]: coarsen, solve small, polish each level.
    #[default]
    Multilevel,
    /// [`fiedler_vector`]: restarted Lanczos on the whole subgraph.
    Exact,
}

/// RSB options.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RsbOptions {
    /// Fiedler solver parameters (for [`FiedlerSolver::Multilevel`],
    /// those of its coarsest-level solve).
    pub fiedler: FiedlerOptions,
    /// The solver: multilevel by default, exact on the paper path.
    pub solver: FiedlerSolver,
}

impl RsbOptions {
    /// The paper's SB baseline: every Fiedler vector from the exact
    /// Lanczos solver. Every `repro_*` table and paper golden runs it.
    pub fn paper() -> Self {
        RsbOptions {
            solver: FiedlerSolver::Exact,
            ..Self::default()
        }
    }
}

/// Partition `graph` into `p` parts by recursive spectral bisection.
pub fn recursive_spectral_bisection(graph: &CsrGraph, p: usize, opts: RsbOptions) -> Partitioning {
    assert!(p >= 1, "need at least one partition");
    let n = graph.num_vertices();
    let mut assign: Vec<PartId> = vec![0; n];
    let all: Vec<NodeId> = graph.vertices().collect();
    let mut next_part: PartId = 0;
    bisect(graph, &all, p, &mut next_part, &mut assign, &opts);
    debug_assert_eq!(next_part as usize, p);
    Partitioning::from_assignment(graph, p, assign)
}

/// Recursively assign `verts` to `parts` partition labels starting at
/// `next_part`.
fn bisect(
    graph: &CsrGraph,
    verts: &[NodeId],
    parts: usize,
    next_part: &mut PartId,
    assign: &mut [PartId],
    opts: &RsbOptions,
) {
    if parts == 1 {
        let label = *next_part;
        *next_part += 1;
        for &v in verts {
            assign[v as usize] = label;
        }
        return;
    }
    let p_left = parts / 2;
    let p_right = parts - p_left;
    // Target left share, proportional to partition counts.
    let target_left = verts.len() * p_left / parts;
    let order = split_order(graph, verts, opts);
    let (left, right) = order.split_at(target_left.min(order.len()));
    bisect(graph, left, p_left, next_part, assign, opts);
    bisect(graph, right, p_right, next_part, assign, opts);
}

/// Order `verts` so that a prefix/suffix split is a spectral bisection:
/// Fiedler order for connected subgraphs, component-concatenated Fiedler
/// order otherwise.
fn split_order(graph: &CsrGraph, verts: &[NodeId], opts: &RsbOptions) -> Vec<NodeId> {
    if verts.len() <= 2 {
        return verts.to_vec();
    }
    let (sub, back) = {
        let mut sorted = verts.to_vec();
        sorted.sort_unstable();
        graph.induced_subgraph(&sorted)
    };
    let (ncomp, comp) = connected_components(&sub);
    if ncomp == 1 {
        let fied = match opts.solver {
            FiedlerSolver::Multilevel => fiedler_multilevel(&sub, opts.fiedler),
            FiedlerSolver::Exact => fiedler_vector(&sub, opts.fiedler),
        };
        let mut idx: Vec<u32> = (0..sub.num_vertices() as u32).collect();
        idx.sort_by(|&a, &b| {
            fied.vector[a as usize]
                .partial_cmp(&fied.vector[b as usize])
                .unwrap()
                .then(a.cmp(&b))
        });
        idx.into_iter().map(|i| back[i as usize]).collect()
    } else {
        // Concatenate components largest-first; within a component keep
        // local Fiedler order when it is big enough to matter.
        let mut groups: Vec<Vec<u32>> = vec![Vec::new(); ncomp];
        for (i, &c) in comp.iter().enumerate() {
            groups[c as usize].push(i as u32);
        }
        groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
        let mut out = Vec::with_capacity(verts.len());
        for g in groups {
            if g.len() > 8 {
                let members: Vec<NodeId> = g.iter().map(|&i| back[i as usize]).collect();
                let mut sorted = members.clone();
                sorted.sort_unstable();
                let inner = split_order(graph, &sorted, opts);
                out.extend(inner);
            } else {
                out.extend(g.iter().map(|&i| back[i as usize]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igp_graph::generators;
    use igp_graph::metrics::CutMetrics;

    fn balanced(p: &Partitioning) -> bool {
        let max = *p.counts().iter().max().unwrap();
        let min = *p.counts().iter().min().unwrap();
        (max - min) as usize <= 1 + p.num_vertices() / (p.num_parts() * 16)
    }

    #[test]
    fn grid_two_way_cut_is_short_axis() {
        // 8×16 grid split in two: optimal cut = 8 (a vertical line).
        let g = generators::grid(8, 16);
        let part = recursive_spectral_bisection(&g, 2, RsbOptions::default());
        assert!(balanced(&part));
        let m = CutMetrics::compute(&g, &part);
        assert!(
            m.total_cut_edges <= 12,
            "cut {} too large",
            m.total_cut_edges
        );
    }

    #[test]
    fn grid_four_way() {
        let g = generators::grid(12, 12);
        let part = recursive_spectral_bisection(&g, 4, RsbOptions::default());
        assert!(balanced(&part));
        let m = CutMetrics::compute(&g, &part);
        // Optimal 4-way cut of a 12×12 grid is 24; allow slack.
        assert!(m.total_cut_edges <= 40, "cut {}", m.total_cut_edges);
    }

    #[test]
    fn non_power_of_two_parts() {
        let g = generators::grid(9, 10);
        let part = recursive_spectral_bisection(&g, 3, RsbOptions::default());
        assert_eq!(part.num_parts(), 3);
        assert!(balanced(&part), "counts {:?}", part.counts());
    }

    #[test]
    fn single_part_trivial() {
        let g = generators::cycle(10);
        let part = recursive_spectral_bisection(&g, 1, RsbOptions::default());
        assert_eq!(part.count(0), 10);
    }

    #[test]
    fn path_bisection_cuts_middle() {
        let g = generators::path(32);
        let part = recursive_spectral_bisection(&g, 2, RsbOptions::default());
        let m = CutMetrics::compute(&g, &part);
        assert_eq!(m.total_cut_edges, 1);
        assert!(balanced(&part));
        // Contiguity: part of v should equal part of v+1 except at one spot.
        let changes = (0..31)
            .filter(|&v| part.part_of(v) != part.part_of(v + 1))
            .count();
        assert_eq!(changes, 1);
    }

    #[test]
    fn disconnected_graph_keeps_components_together() {
        // Two disjoint 8-cycles → 2 parts should align with components.
        let mut edges = Vec::new();
        for i in 0..8u32 {
            edges.push((i, (i + 1) % 8));
            edges.push((8 + i, 8 + (i + 1) % 8));
        }
        let g = CsrGraph::from_edges(16, &edges);
        let part = recursive_spectral_bisection(&g, 2, RsbOptions::default());
        let m = CutMetrics::compute(&g, &part);
        assert_eq!(m.total_cut_edges, 0, "components should not be split");
        assert!(balanced(&part));
    }

    #[test]
    fn partition_count_exact_for_many_parts() {
        let g = generators::grid(16, 16);
        let part = recursive_spectral_bisection(&g, 8, RsbOptions::default());
        assert_eq!(part.num_parts(), 8);
        // Every part non-empty and balanced.
        assert!(part.counts().iter().all(|&c| c == 32));
    }

    #[test]
    fn paper_differs_from_default_only_in_solver() {
        let (paper, serving) = (RsbOptions::paper(), RsbOptions::default());
        assert_eq!(paper.solver, FiedlerSolver::Exact);
        assert_eq!(serving.solver, FiedlerSolver::Multilevel);
        assert_eq!(
            RsbOptions {
                solver: serving.solver,
                ..paper
            },
            serving
        );
    }

    #[test]
    fn deterministic() {
        let g = generators::grid(10, 10);
        let a = recursive_spectral_bisection(&g, 4, RsbOptions::default());
        let b = recursive_spectral_bisection(&g, 4, RsbOptions::default());
        assert_eq!(a.assignment(), b.assignment());
    }
}
