//! The seeded stream, pinned where the library spends it: FNV-1a digests
//! of the generated graphs, deltas and mesh points that every golden,
//! figure and benchmark workload is built from. The stream itself (raw
//! outputs and the `unit_f64` / `below` mappings) is pinned beside the
//! generator in `igp_graph::rng`'s unit tests; these four pin the call
//! sites' number and order of draws on top of it. A failure here means
//! every mesh, generated graph and RSB start vector moved: see
//! DESIGN.md §7 before touching the numbers.

use igp::graph::generators::{grid, localized_growth_delta, random_churn_delta, random_geometric};
use igp::graph::{CsrGraph, GraphDelta};
use igp::mesh::domain::paper_domain_a;
use igp::mesh::MeshBuilder;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        let mut n = 0u64;
        for w in ws {
            self.word(w);
            n += 1;
        }
        self.word(n);
    }
}

fn delta_digest(d: &GraphDelta) -> u64 {
    let mut h = Fnv::new();
    h.words(d.add_vertices.iter().copied());
    h.words(d.remove_vertices.iter().map(|&v| v as u64));
    h.words(
        d.add_edges
            .iter()
            .flat_map(|&(u, v, w)| [u as u64, v as u64, w]),
    );
    h.words(
        d.remove_edges
            .iter()
            .flat_map(|&(u, v)| [u as u64, v as u64]),
    );
    h.0
}

fn graph_digest(g: &CsrGraph) -> u64 {
    let mut h = Fnv::new();
    h.words(g.xadj().iter().map(|&x| x as u64));
    h.words(g.adjacency().iter().map(|&v| v as u64));
    h.words(g.vertices().flat_map(|v| g.edge_weights(v).to_vec()));
    h.words(g.vertex_weights().iter().copied());
    h.0
}

#[test]
fn random_churn_delta_stream_unchanged() {
    let d = random_churn_delta(&grid(16, 16), 8, 4, 7);
    assert_eq!(delta_digest(&d), 0x006aeca4e46d94c1);
}

#[test]
fn random_geometric_stream_unchanged() {
    let g = random_geometric(300, 0.1, 3);
    assert_eq!(graph_digest(&g), 0x752b2d0f786b20e3);
}

#[test]
fn localized_growth_delta_stream_unchanged() {
    let d = localized_growth_delta(&grid(8, 8), 0, 12, 5);
    assert_eq!(delta_digest(&d), 0x73d34564b489ac00);
}

#[test]
fn mesh_points_stream_unchanged() {
    let mb = MeshBuilder::generate(paper_domain_a(), 500, 42);
    let mut h = Fnv::new();
    h.words((0..mb.num_points() as u32).flat_map(|v| {
        let p = mb.point(v);
        [p.x.to_bits(), p.y.to_bits()]
    }));
    assert_eq!(h.0, 0x2aae5b1e74451fc4);
}
