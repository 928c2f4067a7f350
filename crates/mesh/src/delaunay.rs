//! Incremental Bowyer–Watson Delaunay triangulation.
//!
//! The triangulation is maintained under point insertion, which is exactly
//! what localized mesh refinement needs: each refinement step inserts one
//! new point, carving a cavity of invalidated triangles and re-triangulating
//! it as a fan — adding edges (`E₁`) and deleting cavity edges (`E₂`), the
//! paper's incremental-graph model.
//!
//! Implementation notes:
//! * Three synthetic "super-triangle" vertices bound the working area;
//!   triangles touching them are hidden from the public API.
//! * Point location walks from a hint triangle (the last insertion), which
//!   is O(1) amortized for the localized insertion patterns used here.
//! * Triangles store `nbr[i]` = the triangle across the edge *opposite*
//!   vertex `i`; all triangles are kept counter-clockwise.

use crate::geometry::{in_circle, orient2d, point_in_triangle, Point};

const NIL: u32 = u32::MAX;
const SUPER: u32 = 3; // vertices 0, 1, 2 are the super-triangle

#[derive(Clone, Copy, Debug)]
struct Tri {
    v: [u32; 3],
    nbr: [u32; 3],
    alive: bool,
}

/// An incremental Delaunay triangulation.
///
/// Public vertex ids start at 0 for the first inserted point and are
/// stable forever (internal ids are offset by the 3 super vertices).
#[derive(Clone, Debug)]
pub struct Delaunay {
    pts: Vec<Point>,
    tris: Vec<Tri>,
    free: Vec<u32>,
    hint: u32,
    // Reusable scratch (workhorse buffers; see perf-book "reusing collections").
    bad: Vec<u32>,
    cavity: Vec<(u32, u32, u32)>, // directed boundary edge (a, b) + outside tri
}

impl Delaunay {
    /// A triangulation whose super-triangle encloses the axis-aligned box
    /// `[min, max]` with a wide margin.
    pub fn new(min: Point, max: Point) -> Self {
        let cx = 0.5 * (min.x + max.x);
        let cy = 0.5 * (min.y + max.y);
        let span = (max.x - min.x).max(max.y - min.y).max(1.0);
        let m = 1e4 * span;
        let pts = vec![
            Point::new(cx - 2.0 * m, cy - m),
            Point::new(cx + 2.0 * m, cy - m),
            Point::new(cx, cy + 2.0 * m),
        ];
        debug_assert!(orient2d(pts[0], pts[1], pts[2]) > 0.0);
        let tris = vec![Tri {
            v: [0, 1, 2],
            nbr: [NIL, NIL, NIL],
            alive: true,
        }];
        Delaunay {
            pts,
            tris,
            free: Vec::new(),
            hint: 0,
            bad: Vec::new(),
            cavity: Vec::new(),
        }
    }

    /// Number of (public) inserted points.
    #[inline]
    pub fn num_points(&self) -> usize {
        self.pts.len() - SUPER as usize
    }

    /// Coordinates of public vertex `v`.
    #[inline]
    pub fn point(&self, v: u32) -> Point {
        self.pts[(v + SUPER) as usize]
    }

    /// Insert `p`; returns its public vertex id.
    ///
    /// Panics if `p` coincides (within predicate tolerance) with an
    /// existing vertex — callers jitter or pre-filter duplicates.
    pub fn insert(&mut self, p: Point) -> u32 {
        let pid = self.pts.len() as u32;
        self.pts.push(p);
        let t0 = self.locate(p);
        self.carve_cavity(t0, p);
        self.fill_cavity(pid);
        pid - SUPER
    }

    /// All triangles not touching the super-triangle, as CCW public-id
    /// triples.
    pub fn triangles(&self) -> Vec<[u32; 3]> {
        let mut out = Vec::new();
        for t in &self.tris {
            if t.alive && t.v.iter().all(|&v| v >= SUPER) {
                out.push([t.v[0] - SUPER, t.v[1] - SUPER, t.v[2] - SUPER]);
            }
        }
        out
    }

    /// Walk from the hint triangle to one containing `p`.
    fn locate(&self, p: Point) -> u32 {
        let mut t = self.hint;
        if !self.tris[t as usize].alive {
            t = self
                .tris
                .iter()
                .position(|x| x.alive)
                .expect("triangulation has no live triangles") as u32;
        }
        let max_steps = 4 * self.tris.len() + 16;
        for _ in 0..max_steps {
            let tri = &self.tris[t as usize];
            let mut advanced = false;
            for i in 0..3 {
                let a = self.pts[tri.v[(i + 1) % 3] as usize];
                let b = self.pts[tri.v[(i + 2) % 3] as usize];
                if orient2d(a, b, p) < 0.0 {
                    let nb = tri.nbr[i];
                    if nb != NIL {
                        t = nb;
                        advanced = true;
                        break;
                    }
                }
            }
            if !advanced {
                return t;
            }
        }
        // Walk failed (numerical corner case): fall back to a linear scan.
        for (i, tri) in self.tris.iter().enumerate() {
            if tri.alive
                && point_in_triangle(
                    p,
                    self.pts[tri.v[0] as usize],
                    self.pts[tri.v[1] as usize],
                    self.pts[tri.v[2] as usize],
                )
            {
                return i as u32;
            }
        }
        panic!("point ({}, {}) not inside the super-triangle", p.x, p.y);
    }

    /// Grow the Bowyer–Watson cavity from `t0`: every connected triangle
    /// whose circumcircle strictly contains `p`, recording the directed
    /// boundary edges.
    fn carve_cavity(&mut self, t0: u32, p: Point) {
        self.bad.clear();
        self.cavity.clear();
        debug_assert!(self.tris[t0 as usize].alive);
        // Mark via a stack; `alive = false` doubles as the visited flag.
        let mut stack = vec![t0];
        self.tris[t0 as usize].alive = false;
        self.bad.push(t0);
        while let Some(t) = stack.pop() {
            let tri = self.tris[t as usize];
            for i in 0..3 {
                let nb = tri.nbr[i];
                let a = tri.v[(i + 1) % 3];
                let b = tri.v[(i + 2) % 3];
                if nb == NIL {
                    self.cavity.push((a, b, NIL));
                    continue;
                }
                let n = &self.tris[nb as usize];
                if !n.alive {
                    // Either already in the cavity or its boundary is
                    // recorded from the other side; only record from the
                    // inside triangle (this one), so check whether nb is in
                    // `bad` — it always is, because dead non-bad triangles
                    // are recycled and unreachable via nbr pointers.
                    continue;
                }
                let nv = n.v;
                let inc = in_circle(
                    self.pts[nv[0] as usize],
                    self.pts[nv[1] as usize],
                    self.pts[nv[2] as usize],
                    p,
                );
                if inc > 0.0 {
                    self.tris[nb as usize].alive = false;
                    self.bad.push(nb);
                    stack.push(nb);
                } else {
                    self.cavity.push((a, b, nb));
                }
            }
        }
    }

    /// Star the cavity from the new point `pid`, wiring all adjacency.
    fn fill_cavity(&mut self, pid: u32) {
        let k = self.cavity.len();
        debug_assert!(k >= 3, "cavity must have at least 3 boundary edges");
        // Allocate new triangle slots (reuse the just-killed ones).
        let mut new_ids = Vec::with_capacity(k);
        for _ in 0..k {
            if let Some(id) = self.free.pop() {
                new_ids.push(id);
            } else {
                self.tris.push(Tri {
                    v: [0; 3],
                    nbr: [NIL; 3],
                    alive: false,
                });
                new_ids.push(self.tris.len() as u32 - 1);
            }
        }
        // Recycle bad slots for *future* inserts.
        self.free
            .extend(self.bad.iter().copied().filter(|id| !new_ids.contains(id)));
        // Build (p, a, b) per boundary edge; link across the boundary.
        let cavity = std::mem::take(&mut self.cavity);
        for (idx, &(a, b, outside)) in cavity.iter().enumerate() {
            let id = new_ids[idx];
            self.tris[id as usize] = Tri {
                v: [pid, a, b],
                nbr: [outside, NIL, NIL],
                alive: true,
            };
            if outside != NIL {
                // Fix the outside triangle's back-pointer (it pointed at a
                // dead cavity triangle; find the edge (b, a) seen from
                // outside).
                let o = &mut self.tris[outside as usize];
                for i in 0..3 {
                    let oa = o.v[(i + 1) % 3];
                    let ob = o.v[(i + 2) % 3];
                    if oa == b && ob == a {
                        o.nbr[i] = id;
                        break;
                    }
                }
            }
        }
        // Link fan neighbours: triangle with boundary edge (a, b) has
        //   nbr[1] (edge (b, p)) = triangle whose boundary edge starts at b,
        //   nbr[2] (edge (p, a)) = triangle whose boundary edge ends at a.
        // The cavity boundary is a cycle, so linear scan over ≤ k entries.
        for (idx, &(a, b, _)) in cavity.iter().enumerate() {
            let id = new_ids[idx];
            let next = cavity
                .iter()
                .position(|&(a2, _, _)| a2 == b)
                .expect("cavity boundary not closed (next)");
            let prev = cavity
                .iter()
                .position(|&(_, b2, _)| b2 == a)
                .expect("cavity boundary not closed (prev)");
            self.tris[id as usize].nbr[1] = new_ids[next];
            self.tris[id as usize].nbr[2] = new_ids[prev];
        }
        self.cavity = cavity;
        self.hint = new_ids[0];
    }

    /// Structural validation: adjacency symmetry, CCW orientation, and the
    /// Delaunay empty-circumcircle property over all live triangles.
    /// O(T²) — tests only.
    pub fn validate(&self) -> Result<(), String> {
        for (ti, t) in self.tris.iter().enumerate() {
            if !t.alive {
                continue;
            }
            let [a, b, c] = [
                self.pts[t.v[0] as usize],
                self.pts[t.v[1] as usize],
                self.pts[t.v[2] as usize],
            ];
            if orient2d(a, b, c) <= 0.0 {
                return Err(format!("triangle {ti} not CCW"));
            }
            for i in 0..3 {
                let nb = t.nbr[i];
                if nb == NIL {
                    continue;
                }
                let n = &self.tris[nb as usize];
                if !n.alive {
                    return Err(format!("triangle {ti} points at dead neighbour {nb}"));
                }
                if !n.nbr.contains(&(ti as u32)) {
                    return Err(format!("asymmetric adjacency {ti} ↔ {nb}"));
                }
            }
            // Empty circumcircle over all real vertices.
            for (vi, &p) in self.pts.iter().enumerate().skip(SUPER as usize) {
                if t.v.contains(&(vi as u32)) {
                    continue;
                }
                if in_circle(a, b, c, p) > 0.0 {
                    return Err(format!("vertex {vi} inside circumcircle of triangle {ti}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box() -> Delaunay {
        Delaunay::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0))
    }

    #[test]
    fn empty_triangulation() {
        let d = unit_box();
        assert_eq!(d.num_points(), 0);
        assert!(d.triangles().is_empty());
        d.validate().unwrap();
    }

    #[test]
    fn single_point_no_real_triangles() {
        let mut d = unit_box();
        assert_eq!(d.insert(Point::new(0.4, 0.4)), 0);
        assert!(d.triangles().is_empty());
        d.validate().unwrap();
    }

    #[test]
    fn three_points_one_triangle() {
        let mut d = unit_box();
        d.insert(Point::new(0.1, 0.1));
        d.insert(Point::new(0.9, 0.1));
        d.insert(Point::new(0.5, 0.8));
        let tris = d.triangles();
        assert_eq!(tris.len(), 1);
        let mut vs = tris[0].to_vec();
        vs.sort_unstable();
        assert_eq!(vs, vec![0, 1, 2]);
        d.validate().unwrap();
    }

    #[test]
    fn four_points_two_triangles() {
        let mut d = unit_box();
        d.insert(Point::new(0.1, 0.1));
        d.insert(Point::new(0.9, 0.1));
        d.insert(Point::new(0.9, 0.9));
        d.insert(Point::new(0.1, 0.92)); // break exact cocircularity
        assert_eq!(d.triangles().len(), 2);
        d.validate().unwrap();
    }

    #[test]
    fn delaunay_flip_behaviour() {
        // Points placed so the Delaunay diagonal is forced: a thin quad.
        let mut d = unit_box();
        d.insert(Point::new(0.0, 0.0));
        d.insert(Point::new(1.0, 0.05));
        d.insert(Point::new(2.0, 0.0));
        d.insert(Point::new(1.0, -0.05));
        // The Delaunay triangulation must use the short diagonal (1-3).
        let tris = d.triangles();
        assert_eq!(tris.len(), 2);
        let has_short_diag = tris.iter().all(|t| t.contains(&1) && t.contains(&3));
        assert!(
            has_short_diag,
            "triangles {tris:?} should share diagonal 1-3"
        );
        d.validate().unwrap();
    }

    #[test]
    fn random_points_satisfy_delaunay_property() {
        // Deterministic pseudo-random points (LCG) — no rand dependency in
        // the hot library, and the test stays reproducible.
        let mut d = unit_box();
        let mut state: u64 = 0x1234_5678_9abc_def0;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for _ in 0..200 {
            let p = Point::new(next(), next());
            d.insert(p);
        }
        assert_eq!(d.num_points(), 200);
        d.validate().unwrap();
        // Euler: for n points with h on the hull, triangles = 2n - h - 2.
        let tris = d.triangles();
        assert!(tris.len() > 300, "too few triangles: {}", tris.len());
    }

    #[test]
    fn localized_insertions_stay_valid() {
        let mut d = unit_box();
        let mut state: u64 = 7;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        for _ in 0..60 {
            d.insert(Point::new(next(), next()));
        }
        // Cluster insertions in a tiny disc — the refinement access pattern.
        for i in 0..40 {
            let ang = i as f64 * 2.399963; // golden angle
            let r = 0.02 * ((i + 1) as f64).sqrt() / 6.4;
            d.insert(Point::new(0.3 + r * ang.cos(), 0.3 + r * ang.sin()));
        }
        assert_eq!(d.num_points(), 100);
        d.validate().unwrap();
    }

    #[test]
    fn point_ids_sequential() {
        let mut d = unit_box();
        for i in 0..10 {
            let id = d.insert(Point::new(0.05 + 0.09 * i as f64, 0.5 + 0.01 * i as f64));
            assert_eq!(id, i);
        }
    }
}
