//! Matrix-free graph Laplacian.
//!
//! `L = D − A` with `D` the (weighted) degree diagonal. RSB needs only
//! `y = Lx` products, so the Laplacian is never materialized: one fused
//! CSR sweep per product.

use igp_graph::CsrGraph;

/// The Laplacian operator of a graph.
pub struct Laplacian<'g> {
    graph: &'g CsrGraph,
    degree: Vec<f64>,
}

impl<'g> Laplacian<'g> {
    /// Wrap `graph` (precomputes weighted degrees).
    pub fn new(graph: &'g CsrGraph) -> Self {
        let degree = graph
            .vertices()
            .map(|v| graph.edge_weights(v).iter().map(|&w| w as f64).sum())
            .collect();
        Laplacian { graph, degree }
    }

    /// Dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.num_vertices()
    }

    /// `y ← Lx`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.n());
        debug_assert_eq!(y.len(), self.n());
        for v in self.graph.vertices() {
            let mut acc = self.degree[v as usize] * x[v as usize];
            for (u, w) in self.graph.edges_of(v) {
                acc -= w as f64 * x[u as usize];
            }
            y[v as usize] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igp_graph::generators;

    #[test]
    fn constant_vector_in_nullspace() {
        let g = generators::grid(4, 4);
        let l = Laplacian::new(&g);
        let x = vec![1.0; 16];
        let mut y = vec![9.0; 16];
        l.matvec(&x, &mut y);
        assert!(y.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn path_laplacian_matvec() {
        // Path 0-1-2: L = [[1,-1,0],[-1,2,-1],[0,-1,1]].
        let g = generators::path(3);
        let l = Laplacian::new(&g);
        let mut y = vec![0.0; 3];
        l.matvec(&[1.0, 0.0, 0.0], &mut y);
        assert_eq!(y, vec![1.0, -1.0, 0.0]);
        l.matvec(&[0.0, 1.0, 0.0], &mut y);
        assert_eq!(y, vec![-1.0, 2.0, -1.0]);
    }

    #[test]
    fn weighted_degrees() {
        let g = igp_graph::CsrGraph::from_weighted_edges(3, &[(0, 1, 2), (1, 2, 5)]);
        let l = Laplacian::new(&g);
        let mut y = vec![0.0; 3];
        l.matvec(&[0.0, 1.0, 0.0], &mut y);
        assert_eq!(y, vec![-2.0, 7.0, -5.0]);
    }
}
