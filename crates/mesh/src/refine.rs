//! Mesh generation and localized refinement (the DIME work-alike).
//!
//! [`MeshBuilder`] owns a live Delaunay triangulation over an irregular
//! domain. Initial meshes are produced by best-candidate (Mitchell)
//! sampling — blue-noise point sets that triangulate into well-shaped
//! elements. Refinement inserts one point per requested node at the
//! centroid of the currently largest triangle inside the target region,
//! matching the paper's "sequence of refinements in a localized area" with
//! *exact* control over node counts.

use crate::delaunay::Delaunay;
use crate::domain::{Disc, Domain};
use crate::geometry::{centroid, tri_area, Point};
use crate::mesh::TriMesh;
use igp_graph::rng::SplitMix64;
use igp_graph::CsrGraph;

/// A mesh under construction/refinement.
pub struct MeshBuilder<D: Domain> {
    domain: D,
    del: Delaunay,
    rng: SplitMix64,
}

impl<D: Domain + Clone> Clone for MeshBuilder<D> {
    fn clone(&self) -> Self {
        MeshBuilder {
            domain: self.domain.clone(),
            del: self.del.clone(),
            rng: self.rng.clone(),
        }
    }
}

impl<D: Domain> MeshBuilder<D> {
    /// Generate an initial mesh with exactly `n` points inside `domain`.
    ///
    /// Uses Mitchell's best-candidate sampling (8 candidates per point)
    /// for an even, irregular distribution, then triangulates.
    pub fn generate(domain: D, n: usize, seed: u64) -> Self {
        let (lo, hi) = domain.bounding_box();
        let mut del = Delaunay::new(lo, hi);
        let mut rng = SplitMix64::new(seed);
        let mut placed: Vec<Point> = Vec::with_capacity(n);
        // Coarse grid over the bbox for nearest-point queries.
        let cells = ((n as f64).sqrt().ceil() as usize).max(1);
        let mut grid: Vec<Vec<u32>> = vec![Vec::new(); cells * cells];
        let cw = (hi.x - lo.x) / cells as f64;
        let ch = (hi.y - lo.y) / cells as f64;
        let cell_of = |p: Point| {
            let cx = (((p.x - lo.x) / cw) as usize).min(cells - 1);
            let cy = (((p.y - lo.y) / ch) as usize).min(cells - 1);
            cy * cells + cx
        };
        let nearest2 = |grid: &Vec<Vec<u32>>, placed: &Vec<Point>, p: Point| -> f64 {
            let cx = (((p.x - lo.x) / cw) as isize).clamp(0, cells as isize - 1);
            let cy = (((p.y - lo.y) / ch) as isize).clamp(0, cells as isize - 1);
            let mut best = f64::INFINITY;
            for ring in 0..3isize {
                for dy in -ring..=ring {
                    for dx in -ring..=ring {
                        if dx.abs() != ring && dy.abs() != ring {
                            continue;
                        }
                        let (gx, gy) = (cx + dx, cy + dy);
                        if gx < 0 || gy < 0 || gx >= cells as isize || gy >= cells as isize {
                            continue;
                        }
                        for &i in &grid[gy as usize * cells + gx as usize] {
                            best = best.min(p.dist2(placed[i as usize]));
                        }
                    }
                }
                if best < f64::INFINITY && ring >= 1 {
                    break;
                }
            }
            best
        };
        let sample_inside = |rng: &mut SplitMix64, domain: &D| -> Point {
            for _ in 0..100_000 {
                let p = Point::new(
                    lo.x + rng.unit_f64() * (hi.x - lo.x),
                    lo.y + rng.unit_f64() * (hi.y - lo.y),
                );
                if domain.contains(p) {
                    return p;
                }
            }
            panic!("domain rejection sampling failed — empty domain?");
        };
        for i in 0..n {
            let mut best_p = sample_inside(&mut rng, &domain);
            if i > 0 {
                let mut best_d = nearest2(&grid, &placed, best_p);
                for _ in 0..7 {
                    let cand = sample_inside(&mut rng, &domain);
                    let d = nearest2(&grid, &placed, cand);
                    if d > best_d {
                        best_d = d;
                        best_p = cand;
                    }
                }
            }
            grid[cell_of(best_p)].push(placed.len() as u32);
            placed.push(best_p);
            del.insert(best_p);
        }
        MeshBuilder { domain, del, rng }
    }

    /// Number of mesh points so far.
    pub fn num_points(&self) -> usize {
        self.del.num_points()
    }

    /// Point coordinates by id.
    pub fn point(&self, v: u32) -> Point {
        self.del.point(v)
    }

    /// Triangles kept by the domain filter (centroid inside the domain).
    fn kept_triangles(&self) -> Vec<[u32; 3]> {
        self.del
            .triangles()
            .into_iter()
            .filter(|t| {
                let g = centroid(
                    self.del.point(t[0]),
                    self.del.point(t[1]),
                    self.del.point(t[2]),
                );
                self.domain.contains(g)
            })
            .collect()
    }

    /// Insert `k` refinement points inside `region` (one mesh node each).
    /// Each insertion splits the largest in-region triangle at its
    /// centroid. Returns the new point ids.
    pub fn refine_region(&mut self, region: &Disc, k: usize) -> Vec<u32> {
        let mut new_ids = Vec::with_capacity(k);
        for _ in 0..k {
            let kept = self.kept_triangles();
            let target = kept
                .iter()
                .map(|t| {
                    let (a, b, c) = (
                        self.del.point(t[0]),
                        self.del.point(t[1]),
                        self.del.point(t[2]),
                    );
                    (centroid(a, b, c), tri_area(a, b, c).abs())
                })
                .filter(|(g, _)| region.contains(*g) && self.domain.contains(*g))
                .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap());
            let p = match target {
                Some((g, _)) => g,
                None => {
                    // Region has no kept triangles (e.g. fully outside the
                    // domain): fall back to the globally largest triangle.
                    kept.iter()
                        .map(|t| {
                            let (a, b, c) = (
                                self.del.point(t[0]),
                                self.del.point(t[1]),
                                self.del.point(t[2]),
                            );
                            (centroid(a, b, c), tri_area(a, b, c).abs())
                        })
                        .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
                        .expect("mesh has no kept triangles")
                        .0
                }
            };
            // Tiny jitter avoids exactly-cocircular configurations.
            let jx = (self.rng.unit_f64() - 0.5) * 1e-9;
            let jy = (self.rng.unit_f64() - 0.5) * 1e-9;
            new_ids.push(self.del.insert(Point::new(p.x + jx, p.y + jy)));
        }
        new_ids
    }

    /// Rebuild the triangulation from an explicit point list (used by
    /// smoothing and derefinement, which cannot be expressed as pure
    /// insertions). Point order defines the new ids.
    fn rebuild(&mut self, points: &[Point]) {
        let (lo, hi) = self.domain.bounding_box();
        let mut del = Delaunay::new(lo, hi);
        for &p in points {
            del.insert(p);
        }
        self.del = del;
    }

    /// Laplacian smoothing: move every *interior* point halfway toward the
    /// centroid of its node-graph neighbours (DIME performs analogous mesh
    /// relaxation after refinement). Points on the mesh boundary and moves
    /// leaving the domain are skipped. Vertex ids are preserved; the node
    /// graph is re-triangulated, so smoothing produces a pure
    /// edge-rewiring increment (`E₁`/`E₂` with `V₁ = V₂ = ∅`).
    pub fn smooth(&mut self, iterations: usize) {
        for _ in 0..iterations {
            let mesh = self.mesh();
            let n = mesh.num_points();
            let mut on_boundary = vec![false; n];
            for (a, b) in mesh.boundary_edges() {
                on_boundary[a as usize] = true;
                on_boundary[b as usize] = true;
            }
            let g = mesh.node_graph();
            let mut new_pts = mesh.points.clone();
            for v in 0..n {
                if on_boundary[v] || g.degree(v as u32) == 0 {
                    continue;
                }
                let (mut sx, mut sy) = (0.0, 0.0);
                for &u in g.neighbors(v as u32) {
                    let q = mesh.points[u as usize];
                    sx += q.x;
                    sy += q.y;
                }
                let d = g.degree(v as u32) as f64;
                let target = Point::new(sx / d, sy / d);
                let p = mesh.points[v];
                let cand = Point::new(0.5 * (p.x + target.x), 0.5 * (p.y + target.y));
                if self.domain.contains(cand) {
                    new_pts[v] = cand;
                }
            }
            self.rebuild(&new_pts);
        }
    }

    /// Derefinement: delete up to `k` points inside `region` (densest
    /// first — smallest nearest-neighbour spacing), re-triangulating the
    /// remainder. Returns the deleted (old) point ids, ascending.
    ///
    /// Surviving points keep their relative order, so the old→new id map
    /// is the order-preserving compaction (see
    /// [`crate::sequence::removal_inc`] for building the corresponding
    /// [`igp_graph::IncrementalGraph`]).
    pub fn coarsen_region(&mut self, region: &Disc, k: usize) -> Vec<u32> {
        let mesh = self.mesh();
        let g = mesh.node_graph();
        let n = mesh.num_points();
        let mut on_boundary = vec![false; n];
        for (a, b) in mesh.boundary_edges() {
            on_boundary[a as usize] = true;
            on_boundary[b as usize] = true;
        }
        // Candidates: interior points inside the region, densest first.
        let mut cands: Vec<(f64, u32)> = (0..n as u32)
            .filter(|&v| !on_boundary[v as usize] && region.contains(mesh.points[v as usize]))
            .map(|v| {
                let p = mesh.points[v as usize];
                let spacing = g
                    .neighbors(v)
                    .iter()
                    .map(|&u| p.dist2(mesh.points[u as usize]))
                    .fold(f64::INFINITY, f64::min);
                (spacing, v)
            })
            .collect();
        cands.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        // Avoid deleting adjacent pairs in one sweep (keeps mesh quality).
        let mut doomed = vec![false; n];
        let mut removed: Vec<u32> = Vec::new();
        for &(_, v) in &cands {
            if removed.len() == k {
                break;
            }
            if g.neighbors(v).iter().any(|&u| doomed[u as usize]) {
                continue;
            }
            doomed[v as usize] = true;
            removed.push(v);
        }
        removed.sort_unstable();
        let survivors: Vec<Point> = (0..n)
            .filter(|&v| !doomed[v])
            .map(|v| mesh.points[v])
            .collect();
        self.rebuild(&survivors);
        removed
    }

    /// Extract the current mesh (kept triangles only).
    pub fn mesh(&self) -> TriMesh {
        let points: Vec<Point> = (0..self.del.num_points() as u32)
            .map(|v| self.del.point(v))
            .collect();
        TriMesh {
            points,
            tris: self.kept_triangles(),
        }
    }

    /// Extract the node graph, repairing isolated vertices (points whose
    /// every incident triangle was filtered out) by linking them to their
    /// nearest in-domain neighbour so the partitioner's connectivity
    /// assumptions hold.
    pub fn graph(&self) -> CsrGraph {
        let mesh = self.mesh();
        let n = mesh.num_points();
        let mut edges = mesh.edges();
        let mut deg = vec![0u32; n];
        for &(u, v) in &edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        for v in 0..n as u32 {
            if deg[v as usize] == 0 {
                // Link to nearest other point (O(n) scan — rare repair path).
                let p = mesh.points[v as usize];
                let mut best = (f64::INFINITY, v);
                for u in 0..n as u32 {
                    if u != v {
                        let d = p.dist2(mesh.points[u as usize]);
                        if d < best.0 {
                            best = (d, u);
                        }
                    }
                }
                let (a, b) = if v < best.1 { (v, best.1) } else { (best.1, v) };
                edges.push((a, b));
                deg[a as usize] += 1;
                deg[b as usize] += 1;
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let mut b = igp_graph::CsrBuilder::with_edge_capacity(n, edges.len());
        for (u, v) in edges {
            b.add_edge(u, v, 1);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{paper_domain_a, Rect};
    use igp_graph::traversal::is_connected;

    #[test]
    fn generates_exact_point_count() {
        let dom = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 1.0));
        let mb = MeshBuilder::generate(dom, 150, 3);
        assert_eq!(mb.num_points(), 150);
        let g = mb.graph();
        assert_eq!(g.num_vertices(), 150);
        assert!(is_connected(&g));
        // Planar triangulation: |E| ≈ 3n.
        assert!(g.num_edges() > 2 * 150 && g.num_edges() < 3 * 150);
    }

    #[test]
    fn irregular_domain_mesh_connected() {
        let mb = MeshBuilder::generate(paper_domain_a(), 400, 11);
        let g = mb.graph();
        assert_eq!(g.num_vertices(), 400);
        assert!(
            is_connected(&g),
            "mesh graph over holed domain must stay connected"
        );
        let mesh = mb.mesh();
        // Holes must actually remove triangles: area < bbox-filling mesh.
        assert!(mesh.area() < 4.0 * 2.0 * 0.95);
    }

    #[test]
    fn refinement_adds_exact_nodes_and_edits_edges() {
        let dom = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let mut mb = MeshBuilder::generate(dom, 200, 5);
        let g_old = mb.graph();
        let region = Disc::new(Point::new(0.3, 0.3), 0.15);
        let new_ids = mb.refine_region(&region, 20);
        assert_eq!(new_ids.len(), 20);
        assert_eq!(mb.num_points(), 220);
        let g_new = mb.graph();
        assert_eq!(g_new.num_vertices(), 220);
        assert!(is_connected(&g_new));
        // Refinement must both add and delete edges (cavity re-triangulation).
        let inc = igp_graph::IncrementalGraph::new(
            g_old.clone(),
            g_new.clone(),
            (0..220u32)
                .map(|v| if v < 200 { v } else { igp_graph::INVALID_NODE })
                .collect(),
        );
        let d = inc.diff();
        assert_eq!(d.add_vertices.len(), 20);
        assert!(!d.add_edges.is_empty());
        assert!(
            !d.remove_edges.is_empty(),
            "re-triangulation should delete old edges"
        );
    }

    #[test]
    fn refinement_is_localized() {
        let dom = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let mut mb = MeshBuilder::generate(dom, 300, 9);
        let center = Point::new(0.7, 0.7);
        let region = Disc::new(center, 0.1);
        let new_ids = mb.refine_region(&region, 25);
        for &v in &new_ids {
            let d = mb.point(v).dist(center);
            assert!(d < 0.25, "refinement point {v} strayed to distance {d}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let dom = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let a = MeshBuilder::generate(dom, 120, 77).graph();
        let dom = Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let b = MeshBuilder::generate(dom, 120, 77).graph();
        assert_eq!(a, b);
    }
}
