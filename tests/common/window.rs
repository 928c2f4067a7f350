//! The moving-window delta stream shared by `step_golden` (whose `n`
//! column pins it) and `window_replay`: a refinement window walking a
//! mesh of the paper's domain A, 20 nodes refined at the front and the
//! disc refined five steps earlier coarsened back, so `V₁`, `V₂`, `E₁`
//! and `E₂` are all non-empty.

use super::Lcg;
use igp::graph::traversal::is_connected;
use igp::graph::{CsrGraph, GraphDelta};
use igp::mesh::domain::{paper_domain_a, Domain};
use igp::mesh::sequence::mixed_inc;
use igp::mesh::{Disc, MeshBuilder, Point};
use std::collections::VecDeque;

/// True if a window centred at `p` lies mostly inside the domain.
fn window_fits<D: Domain>(domain: &D, p: Point, r: f64) -> bool {
    domain.contains(p)
        && (0..8).all(|k| {
            let a = std::f64::consts::FRAC_PI_4 * k as f64;
            domain.contains(Point::new(p.x + 0.6 * r * a.cos(), p.y + 0.6 * r * a.sin()))
        })
}

fn random_fit<D: Domain>(domain: &D, rng: &mut Lcg, r: f64) -> Point {
    let (lo, hi) = domain.bounding_box();
    loop {
        let p = Point::new(
            lo.x + rng.unit_f64() * (hi.x - lo.x),
            lo.y + rng.unit_f64() * (hi.y - lo.y),
        );
        if window_fits(domain, p, r) {
            return p;
        }
    }
}

/// A moving-window delta stream: each step coarsens the disc refined
/// `LAG` steps earlier by the current surplus over the steady size and
/// refines `PER_STEP` nodes at the front, walking toward seeded
/// waypoints in hops of half a radius.
pub fn window_stream(n0: usize, steps: usize, seed: u64) -> (CsrGraph, Vec<GraphDelta>) {
    const RADIUS: f64 = 0.3;
    const PER_STEP: usize = 20;
    const LAG: usize = 5;
    let domain = paper_domain_a();
    let mut builder = MeshBuilder::generate(domain.clone(), n0, seed);
    let base = builder.graph();
    assert!(is_connected(&base));
    let mut rng = Lcg::new(seed ^ 0x77696e646f77);
    let hop = 0.5 * RADIUS;
    let steady = n0 + LAG * PER_STEP;
    let mut pos = random_fit(&domain, &mut rng, RADIUS);
    let mut waypoint = random_fit(&domain, &mut rng, RADIUS);
    let mut wake: VecDeque<Disc> = VecDeque::new();
    let mut g = base.clone();
    let mut deltas = Vec::with_capacity(steps);
    for step in 0..steps {
        pos = loop {
            let d = pos.dist(waypoint);
            if d >= hop {
                let p = Point::new(
                    pos.x + hop * (waypoint.x - pos.x) / d,
                    pos.y + hop * (waypoint.y - pos.y) / d,
                );
                if window_fits(&domain, p, RADIUS) {
                    break p;
                }
            }
            waypoint = random_fit(&domain, &mut rng, RADIUS);
        };
        let removed = if wake.len() == LAG {
            let old = wake.pop_front().expect("lag > 0");
            let surplus = (builder.num_points() + PER_STEP).saturating_sub(steady);
            builder.coarsen_region(&Disc::new(old.center, 1.5 * RADIUS), surplus)
        } else {
            Vec::new()
        };
        let front = Disc::new(pos, RADIUS);
        let added = builder.refine_region(&front, PER_STEP);
        wake.push_back(front);
        let g_new = builder.graph();
        assert!(is_connected(&g_new), "mesh disconnected at step {step}");
        let delta = mixed_inc(g.clone(), g_new.clone(), &removed, added.len()).diff();
        delta.validate(g.num_vertices()).expect("generated delta");
        deltas.push(delta);
        g = g_new;
    }
    (base, deltas)
}
