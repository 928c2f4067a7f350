//! Extracted triangle meshes and node-graph export.

use crate::geometry::{min_angle, tri_area, Point};
use igp_graph::{CsrBuilder, CsrGraph, NodeId};

/// An immutable triangle mesh: points plus CCW vertex-index triples.
///
/// The partitioner consumes the **node graph**: one graph vertex per mesh
/// point, one graph edge per triangle edge (deduplicated) — the
/// representation whose sizes the paper reports (e.g. 1071 nodes / 3185
/// edges for test graph A).
#[derive(Clone, Debug)]
pub struct TriMesh {
    /// Vertex coordinates.
    pub points: Vec<Point>,
    /// Triangles as CCW index triples.
    pub tris: Vec<[u32; 3]>,
}

impl TriMesh {
    /// Number of mesh points.
    pub fn num_points(&self) -> usize {
        self.points.len()
    }

    /// Unique undirected triangle edges, sorted.
    pub fn edges(&self) -> Vec<(u32, u32)> {
        let mut e = Vec::with_capacity(self.tris.len() * 3);
        for t in &self.tris {
            for k in 0..3 {
                let (a, b) = (t[k], t[(k + 1) % 3]);
                e.push(if a < b { (a, b) } else { (b, a) });
            }
        }
        e.sort_unstable();
        e.dedup();
        e
    }

    /// The node graph (unit weights). Every mesh point becomes a vertex;
    /// isolated points (not referenced by any triangle) are permitted but
    /// the generators in [`crate::refine`] repair them before export.
    pub fn node_graph(&self) -> CsrGraph {
        let edges = self.edges();
        let mut b = CsrBuilder::with_edge_capacity(self.points.len(), edges.len());
        for (u, v) in edges {
            b.add_edge(u as NodeId, v as NodeId, 1);
        }
        b.build()
    }

    /// Edges incident to exactly one triangle (the mesh boundary).
    pub fn boundary_edges(&self) -> Vec<(u32, u32)> {
        let mut count: std::collections::BTreeMap<(u32, u32), u32> = Default::default();
        for t in &self.tris {
            for k in 0..3 {
                let (a, b) = (t[k], t[(k + 1) % 3]);
                let key = if a < b { (a, b) } else { (b, a) };
                *count.entry(key).or_insert(0) += 1;
            }
        }
        count
            .into_iter()
            .filter(|&(_, c)| c == 1)
            .map(|(e, _)| e)
            .collect()
    }

    /// Smallest interior angle over all triangles, in radians.
    pub fn min_angle(&self) -> f64 {
        self.tris
            .iter()
            .map(|t| {
                min_angle(
                    self.points[t[0] as usize],
                    self.points[t[1] as usize],
                    self.points[t[2] as usize],
                )
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Total mesh area.
    pub fn area(&self) -> f64 {
        self.tris
            .iter()
            .map(|t| {
                tri_area(
                    self.points[t[0] as usize],
                    self.points[t[1] as usize],
                    self.points[t[2] as usize],
                )
            })
            .sum()
    }

    /// Render to a standalone SVG string; when `part_of` is given, faces
    /// are coloured by partition (reproduces the paper's Figures 2/6/9
    /// qualitatively; see the `partition_viz` example).
    pub fn to_svg(&self, part_of: Option<&[u32]>, width: f64) -> String {
        use std::fmt::Write;
        let (mut minx, mut miny) = (f64::INFINITY, f64::INFINITY);
        let (mut maxx, mut maxy) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in &self.points {
            minx = minx.min(p.x);
            miny = miny.min(p.y);
            maxx = maxx.max(p.x);
            maxy = maxy.max(p.y);
        }
        let scale = width / (maxx - minx).max(1e-9);
        let height = (maxy - miny) * scale;
        let tx = |p: Point| ((p.x - minx) * scale, height - (p.y - miny) * scale);
        let mut s = String::new();
        let _ = writeln!(
            s,
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:.0}\" height=\"{height:.0}\">"
        );
        for t in &self.tris {
            let (x0, y0) = tx(self.points[t[0] as usize]);
            let (x1, y1) = tx(self.points[t[1] as usize]);
            let (x2, y2) = tx(self.points[t[2] as usize]);
            let fill = match part_of {
                Some(assign) => {
                    // Colour by majority partition of the corners.
                    let p = assign[t[0] as usize];
                    let hue = (p as u64 * 47) % 360;
                    format!("hsl({hue},70%,65%)")
                }
                None => "none".to_string(),
            };
            let _ = writeln!(
                s,
                "<polygon points=\"{x0:.1},{y0:.1} {x1:.1},{y1:.1} {x2:.1},{y2:.1}\" \
                 fill=\"{fill}\" stroke=\"#333\" stroke-width=\"0.4\"/>"
            );
        }
        s.push_str("</svg>\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tri_mesh() -> TriMesh {
        // Unit square split along the diagonal 0-2.
        TriMesh {
            points: vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(0.0, 1.0),
            ],
            tris: vec![[0, 1, 2], [0, 2, 3]],
        }
    }

    #[test]
    fn edges_deduplicated() {
        let m = two_tri_mesh();
        assert_eq!(m.edges(), vec![(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn node_graph_matches_edges() {
        let m = two_tri_mesh();
        let g = m.node_graph();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 5);
        assert!(g.has_edge(0, 2)); // the shared diagonal
        g.validate().unwrap();
    }

    #[test]
    fn boundary_of_square() {
        let m = two_tri_mesh();
        assert_eq!(m.boundary_edges(), vec![(0, 1), (0, 3), (1, 2), (2, 3)]);
    }

    #[test]
    fn area_of_square() {
        assert!((two_tri_mesh().area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_angle_of_right_triangles() {
        let m = two_tri_mesh();
        assert!((m.min_angle() - std::f64::consts::FRAC_PI_4).abs() < 1e-9);
    }

    #[test]
    fn svg_renders() {
        let m = two_tri_mesh();
        let svg = m.to_svg(Some(&[0, 0, 1, 1]), 100.0);
        assert!(svg.starts_with("<svg"));
        assert!(svg.matches("<polygon").count() == 2);
        assert!(svg.contains("hsl("));
    }
}
