//! The two benchmark-owned delta-stream generators. Both are pure
//! functions of their arguments and the seed; the program under test
//! only ever sees the generated graph and deltas.
//!
//! * [`window_stream`] — a refinement window moving over an `igp-mesh`
//!   mesh: each step coarsens the disc refined `lag` steps earlier and
//!   refines the disc at the front, so `V₁`, `V₂`, `E₁`, `E₂` are all
//!   non-empty and the vertex count stays put.
//! * [`churn_stream`] — tiny edge-split edits on a fixed base graph:
//!   every delta hangs two new vertices off base vertices and removes
//!   the two added `lag` deltas earlier. O(1) per delta, no mirror graph.

use igp_graph::traversal::{bfs_order, is_connected};
use igp_graph::{CsrGraph, GraphDelta, NodeId};
use igp_mesh::domain::Domain;
use igp_mesh::sequence::mixed_inc;
use igp_mesh::{Disc, MeshBuilder, Point};
use std::collections::VecDeque;

/// A generated workload input: the graph a session opens on and the
/// deltas streamed at it, each addressing the graph its predecessors
/// produce.
pub struct Stream {
    pub base: CsrGraph,
    pub deltas: Vec<GraphDelta>,
    /// Vertex count after each delta (what `STAT.n` must report).
    pub n_after: Vec<usize>,
}

/// SplitMix64: the benchmark's own seeded generator (the vendored `rand`
/// stand-in belongs to the program's workspace, not to the benchmark).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Shape of a moving-window stream.
#[derive(Clone, Copy, Debug)]
pub struct WindowSpec {
    /// Mesh nodes before the first step.
    pub n0: usize,
    /// Steps (= deltas) to generate.
    pub steps: usize,
    /// Radius of the refined disc.
    pub radius: f64,
    /// Nodes refined at the front per step.
    pub per_step: usize,
    /// A disc is coarsened this many steps after it was refined.
    pub lag: usize,
}

/// True if a window centred at `p` lies mostly inside the domain: the
/// centre and a ring at 0.6 r. (`refine_region` falls back to the
/// globally largest triangle when the disc holds no in-domain triangle,
/// which would scatter the "localized" refinement.)
fn window_fits<D: Domain>(domain: &D, p: Point, r: f64) -> bool {
    domain.contains(p)
        && (0..8).all(|k| {
            let a = std::f64::consts::FRAC_PI_4 * k as f64;
            domain.contains(Point::new(p.x + 0.6 * r * a.cos(), p.y + 0.6 * r * a.sin()))
        })
}

fn random_fit<D: Domain>(domain: &D, rng: &mut SplitMix64, r: f64) -> Point {
    let (lo, hi) = domain.bounding_box();
    for _ in 0..100_000 {
        let p = Point::new(
            lo.x + rng.unit() * (hi.x - lo.x),
            lo.y + rng.unit() * (hi.y - lo.y),
        );
        if window_fits(domain, p, r) {
            return p;
        }
    }
    panic!("no window of radius {r} fits the domain");
}

/// Generate a moving-window stream over `domain`.
///
/// The window walks toward seeded waypoints in steps of half a radius.
/// Each step coarsens the disc refined `lag` steps earlier by exactly
/// the current surplus over `n0 + lag·per_step` (a coarsening that
/// under-delivers is made up by the next one — the naive fixed-count wake
/// drifts 1071 → 6964 and silently changes the workload), then refines
/// `per_step` nodes at the front.
///
/// Panics if the vertex count ever leaves `n0 ± (10 % + lag·per_step)`,
/// if a delta fails [`GraphDelta::validate`], or if the mesh graph
/// disconnects.
pub fn window_stream<D: Domain + Clone>(domain: D, spec: &WindowSpec, seed: u64) -> Stream {
    let mut builder = MeshBuilder::generate(domain.clone(), spec.n0, seed);
    let base = builder.graph();
    assert!(is_connected(&base), "base mesh disconnected (seed {seed})");
    let mut rng = SplitMix64::new(seed ^ 0x77696e646f77); // "window"
    let r = spec.radius;
    let hop = 0.5 * r;
    let steady = spec.n0 + spec.lag * spec.per_step;
    let slack = spec.n0 / 10 + spec.lag * spec.per_step;

    let mut pos = random_fit(&domain, &mut rng, r);
    let mut waypoint = random_fit(&domain, &mut rng, r);
    let mut wake: VecDeque<Disc> = VecDeque::new();
    let mut g = base.clone();
    let mut deltas = Vec::with_capacity(spec.steps);
    let mut n_after = Vec::with_capacity(spec.steps);
    for step in 0..spec.steps {
        // Advance; a hop that would leave the domain (or an arrival)
        // draws a fresh waypoint.
        let mut next = None;
        for _ in 0..64 {
            let d = pos.dist(waypoint);
            if d >= hop {
                let p = Point::new(
                    pos.x + hop * (waypoint.x - pos.x) / d,
                    pos.y + hop * (waypoint.y - pos.y) / d,
                );
                if window_fits(&domain, p, r) {
                    next = Some(p);
                    break;
                }
            }
            waypoint = random_fit(&domain, &mut rng, r);
        }
        pos = next.expect("window is stuck: no waypoint reachable in 64 draws");

        let n_cur = builder.num_points();
        let removed = if wake.len() == spec.lag {
            let old = wake.pop_front().expect("lag > 0");
            let surplus = (n_cur + spec.per_step).saturating_sub(steady);
            // Densest-first removal takes the refined nodes back out; the
            // wider disc only matters when those alone cannot supply
            // `surplus` pairwise non-adjacent interior nodes.
            builder.coarsen_region(&Disc::new(old.center, 1.5 * r), surplus)
        } else {
            Vec::new()
        };
        let front = Disc::new(pos, r);
        let added = builder.refine_region(&front, spec.per_step);
        wake.push_back(front);

        let g_new = builder.graph();
        assert!(is_connected(&g_new), "mesh disconnected at step {step}");
        let n = g_new.num_vertices();
        assert!(
            n.abs_diff(spec.n0) <= slack,
            "window drifted: n = {n} at step {step} (n0 = {}, slack = {slack})",
            spec.n0
        );
        let delta = mixed_inc(g.clone(), g_new.clone(), &removed, added.len()).diff();
        delta
            .validate(g.num_vertices())
            .unwrap_or_else(|e| panic!("window delta {step} invalid: {e}"));
        deltas.push(delta);
        n_after.push(n);
        g = g_new;
    }
    Stream {
        base,
        deltas,
        n_after,
    }
}

/// Shape of an edge-split churn stream.
#[derive(Clone, Copy, Debug)]
pub struct ChurnSpec {
    /// Deltas to generate.
    pub deltas: usize,
    /// A delta removes the two vertices added this many deltas earlier.
    pub lag: usize,
}

/// Generate an edge-split churn stream on `base`.
///
/// Delta `i` adds two vertices; each is joined to a base vertex `u` and
/// to one seeded base neighbour of `u`, with `u` walking a BFS order
/// from a seeded start. From delta `lag` on it also removes the two
/// vertices added `lag` deltas earlier. Base vertices and base edges
/// are never touched, so base ids are stable and the live additions
/// always occupy ids `n0..` in creation order — which is what makes the
/// generator O(1) per delta without a mirror graph.
pub fn churn_stream(base: CsrGraph, spec: &ChurnSpec, seed: u64) -> Stream {
    let n0 = base.num_vertices();
    assert!(is_connected(&base), "churn base graph disconnected");
    let mut rng = SplitMix64::new(seed ^ 0x636875726e); // "churn"
    let order = bfs_order(&base, rng.below(n0) as NodeId);
    let mut cursor = 0usize;
    let mut deltas = Vec::with_capacity(spec.deltas);
    let mut n_after = Vec::with_capacity(spec.deltas);
    for i in 0..spec.deltas {
        let n_cur = n0 + 2 * i.min(spec.lag);
        let mut d = GraphDelta {
            add_vertices: vec![1, 1],
            ..Default::default()
        };
        for k in 0..2 {
            let u = order[cursor % order.len()];
            cursor += 1;
            let nbrs = base.neighbors(u);
            let w = nbrs[rng.below(nbrs.len())];
            let new = (n_cur + k) as NodeId;
            d.add_edges.push((u, new, 1));
            d.add_edges.push((w, new, 1));
        }
        if i >= spec.lag {
            d.remove_vertices = vec![n0 as NodeId, n0 as NodeId + 1];
        }
        d.validate(n_cur)
            .unwrap_or_else(|e| panic!("churn delta {i} invalid: {e}"));
        n_after.push(n_cur + 2 - d.remove_vertices.len());
        deltas.push(d);
    }
    Stream {
        base,
        deltas,
        n_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igp_graph::io::write_delta_bin;
    use igp_mesh::domain::paper_domain_a;

    const SPEC: WindowSpec = WindowSpec {
        n0: 300,
        steps: 24,
        radius: 0.3,
        per_step: 8,
        lag: 3,
    };

    fn bytes(s: &Stream) -> Vec<u8> {
        s.deltas.iter().flat_map(write_delta_bin).collect()
    }

    fn small_base(seed: u64) -> CsrGraph {
        MeshBuilder::generate(paper_domain_a(), 300, seed).graph()
    }

    #[test]
    fn window_same_seed_same_bytes_other_seed_other_bytes() {
        let a = window_stream(paper_domain_a(), &SPEC, 7);
        let b = window_stream(paper_domain_a(), &SPEC, 7);
        let c = window_stream(paper_domain_a(), &SPEC, 8);
        assert_eq!(a.base, b.base);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
    }

    #[test]
    fn window_is_stationary_mixed_and_replays_to_n_after() {
        let s = window_stream(paper_domain_a(), &SPEC, 3);
        let steady = SPEC.n0 + SPEC.lag * SPEC.per_step;
        // Once the wake is full the count sits at the steady level give
        // or take one under-delivering coarsening.
        for &n in &s.n_after[SPEC.lag..] {
            assert!(n.abs_diff(steady) <= SPEC.per_step, "n = {n}");
        }
        let mut g = s.base.clone();
        for (d, &n) in s.deltas.iter().zip(&s.n_after) {
            d.validate(g.num_vertices()).unwrap();
            g = d.apply(&g).new_graph().clone();
            assert_eq!(g.num_vertices(), n);
        }
        let last = s.deltas.last().unwrap();
        assert!(!last.add_vertices.is_empty() && !last.remove_vertices.is_empty());
        assert!(!last.add_edges.is_empty() && !last.remove_edges.is_empty());
    }

    #[test]
    fn churn_same_seed_same_bytes_other_seed_other_bytes() {
        let spec = ChurnSpec {
            deltas: 600,
            lag: 128,
        };
        let a = churn_stream(small_base(1), &spec, 5);
        let b = churn_stream(small_base(1), &spec, 5);
        let c = churn_stream(small_base(1), &spec, 6);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
    }

    #[test]
    fn churn_is_accepted_by_coalesce_and_cancels_half_of_each_batch() {
        let spec = ChurnSpec {
            deltas: 512,
            lag: 128,
        };
        let s = churn_stream(small_base(2), &spec, 9);
        let n0 = s.base.num_vertices();
        // Steady state from delta `lag` on: n0 + 2·lag live vertices.
        assert!(s.n_after[spec.lag..]
            .iter()
            .all(|&n| n == n0 + 2 * spec.lag));
        // One every:256 batch taken from the steady state, folded by the
        // program's own coalescer against the graph the first half built.
        let (warm, batch) = s.deltas.split_at(256);
        let g = igp_graph::coalesce(n0, warm)
            .unwrap()
            .apply(&s.base)
            .new_graph()
            .clone();
        assert_eq!(g.num_vertices(), n0 + 2 * spec.lag);
        let net = igp_graph::coalesce(g.num_vertices(), batch).unwrap();
        net.validate(g.num_vertices()).unwrap();
        // 512 adds pushed, 256 survive: the other half was removed again
        // inside the batch; the 256 removals that remain hit pre-batch
        // vertices.
        assert_eq!(net.add_vertices.len(), 256);
        assert_eq!(net.remove_vertices.len(), 256);
        assert_eq!(net.add_edges.len(), 512);
        let after = net.apply(&g);
        assert_eq!(after.new_graph().num_vertices(), n0 + 2 * spec.lag);
        assert!(is_connected(after.new_graph()));
    }
}
