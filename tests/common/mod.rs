//! Shared test support for the integration/property suites: the one LCG
//! scenario generator (previously copy-pasted per test file), seeded
//! graph/mesh fixtures, partition-invariant assertion helpers and the
//! pinned tier-1 proptest configuration.

// Each test binary includes this module and uses its own subset.
#![allow(dead_code)]

pub mod rcb;

use igp::graph::{CsrGraph, NodeId, PartId, Partitioning};
use igp::mesh::Point;
use proptest::ProptestConfig;

/// The tier-1 proptest configuration: explicit case count, no shrinking
/// (the stub reproduces by seed), failures persisted to
/// `tests/regressions/` and replayed on every subsequent run.
pub fn tier1_config(cases: u32) -> ProptestConfig {
    ProptestConfig {
        cases,
        max_shrink_iters: 0,
        failure_persistence: Some(std::path::PathBuf::from("tests/regressions")),
    }
}

/// The deterministic LCG every scenario generator derives randomness
/// from (Knuth's MMIX multiplier; high bits are the usable ones).
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }

    /// Uniform draw from `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0);
        (self.next_u64() >> 33) as usize % bound
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

/// Random connected simple graph: a random spanning tree (which keeps
/// most instances connected even after edits) plus `extra` random
/// chords, deduplicated.
pub fn random_connected_graph(n: usize, extra: usize, seed: u64) -> CsrGraph {
    assert!(n >= 2);
    let mut rng = Lcg::new(seed);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for v in 1..n {
        let u = rng.below(v);
        edges.push((u as NodeId, v as NodeId));
    }
    for _ in 0..extra {
        let a = rng.below(n);
        let b = rng.below(n);
        if a != b {
            let e = (a.min(b) as NodeId, a.max(b) as NodeId);
            if !edges.contains(&e) {
                edges.push(e);
            }
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Slab partitioning by BFS order from vertex 0: contiguous, roughly
/// (not exactly) balanced — the shape RSB output has in practice.
pub fn bfs_slab_partitioning(g: &CsrGraph, parts: usize) -> Partitioning {
    let n = g.num_vertices();
    let order = igp::graph::traversal::bfs_order(g, 0);
    let mut assign = vec![0 as PartId; n];
    for (rank, &v) in order.iter().enumerate() {
        assign[v as usize] = ((rank * parts) / n) as PartId;
    }
    Partitioning::from_assignment(g, parts, assign)
}

/// Uniform random points in the unit square.
pub fn random_unit_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = Lcg::new(seed | 1);
    (0..n)
        .map(|_| Point::new(rng.unit_f64(), rng.unit_f64()))
        .collect()
}

/// Random transshipment instance over `p` partitions: a bidirected ring
/// plus random chords with random caps, and a random balanced surplus
/// vector — the structure of the paper's balance LP.
pub fn random_transshipment(p: usize, seed: u64) -> (usize, Vec<(usize, usize, i64)>, Vec<i64>) {
    let mut rng = Lcg::new(seed);
    let mut arcs = Vec::new();
    for i in 0..p {
        arcs.push((i, (i + 1) % p, (rng.below(12) + 1) as i64));
        arcs.push(((i + 1) % p, i, (rng.below(12) + 1) as i64));
    }
    for _ in 0..p {
        let a = rng.below(p);
        let b = rng.below(p);
        if a != b && !arcs.iter().any(|&(x, y, _)| x == a && y == b) {
            arcs.push((a, b, (rng.below(12) + 1) as i64));
        }
    }
    let mut surplus = vec![0i64; p];
    for _ in 0..2 * p {
        let a = rng.below(p);
        let b = rng.below(p);
        if a != b {
            surplus[a] += 1;
            surplus[b] -= 1;
        }
    }
    (p, arcs, surplus)
}

/// Invariants every valid partitioning of `g` satisfies: internal
/// consistency, every vertex assigned, counts summing to `|V|`.
pub fn assert_partition_invariants(g: &CsrGraph, part: &Partitioning) {
    part.validate(g).unwrap();
    assert_eq!(part.num_vertices(), g.num_vertices());
    let total: u32 = part.counts().iter().sum();
    assert_eq!(total as usize, g.num_vertices(), "counts must sum to |V|");
}

/// Balance within ±1 vertex of the average — what the paper's balance LP
/// guarantees whenever it reports success.
pub fn assert_balanced_within_one(part: &Partitioning, context: &str) {
    let max = *part.counts().iter().max().unwrap() as i64;
    let min = *part.counts().iter().min().unwrap() as i64;
    assert!(
        max - min <= 1,
        "{context}: counts {:?} spread more than 1",
        part.counts()
    );
}
