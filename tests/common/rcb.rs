//! Recursive Coordinate Bisection (geometric baseline).
//!
//! When vertex coordinates are available (mesh node graphs), RCB splits
//! along the longer bounding-box axis at the median. It is far cheaper
//! than RSB but blind to connectivity — the paper's introduction lists it
//! among the standard heuristics. No library path runs it: the tests use
//! it as a fast base partition (`step_golden`'s `STAR`) and as the
//! geometric side of the RSB-vs-RCB comparison.

use igp::graph::{CsrGraph, NodeId, PartId, Partitioning};

/// Partition by recursive coordinate bisection. `coords[v] = (x, y)`.
pub fn recursive_coordinate_bisection(
    graph: &CsrGraph,
    coords: &[(f64, f64)],
    p: usize,
) -> Partitioning {
    assert_eq!(coords.len(), graph.num_vertices(), "coords length mismatch");
    assert!(p >= 1);
    let mut assign: Vec<PartId> = vec![0; graph.num_vertices()];
    let all: Vec<NodeId> = graph.vertices().collect();
    let mut next: PartId = 0;
    rcb(coords, all, p, &mut next, &mut assign);
    Partitioning::from_assignment(graph, p, assign)
}

fn rcb(
    coords: &[(f64, f64)],
    mut verts: Vec<NodeId>,
    parts: usize,
    next: &mut PartId,
    assign: &mut [PartId],
) {
    if parts == 1 {
        let label = *next;
        *next += 1;
        for v in verts {
            assign[v as usize] = label;
        }
        return;
    }
    let p_left = parts / 2;
    let target_left = verts.len() * p_left / parts;
    // Pick the wider axis.
    let (mut minx, mut maxx, mut miny, mut maxy) = (
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
    );
    for &v in &verts {
        let (x, y) = coords[v as usize];
        minx = minx.min(x);
        maxx = maxx.max(x);
        miny = miny.min(y);
        maxy = maxy.max(y);
    }
    let use_x = (maxx - minx) >= (maxy - miny);
    verts.sort_by(|&a, &b| {
        let ka = if use_x {
            coords[a as usize].0
        } else {
            coords[a as usize].1
        };
        let kb = if use_x {
            coords[b as usize].0
        } else {
            coords[b as usize].1
        };
        ka.partial_cmp(&kb).unwrap().then(a.cmp(&b))
    });
    let right = verts.split_off(target_left);
    rcb(coords, verts, p_left, next, assign);
    rcb(coords, right, parts - p_left, next, assign);
}
