//! # igp-graph — graph substrate for incremental graph partitioning
//!
//! This crate provides every graph-side building block needed by the
//! Ou & Ranka SC'94 incremental graph partitioner:
//!
//! * [`CsrGraph`] — an immutable, cache-friendly compressed-sparse-row
//!   undirected graph with integer vertex and edge weights.
//! * [`GraphDelta`] / [`IncrementalGraph`] — the paper's incremental-graph
//!   model `G'(V ∪ V₁ − V₂, E ∪ E₁ − E₂)` with stable vertex-identity
//!   mappings between the old and new graphs, typed boundary validation
//!   ([`GraphDelta::validate`]), and a [`DeltaCoalescer`] folding queued
//!   delta sequences into one canonical edit list. [`GraphDelta::apply`]
//!   is the one way a graph changes: it merges the edit into the CSR rows.
//! * [`Partitioning`] — a `V → P` assignment with partition loads, cut
//!   size and boundary maintained under moves, and validation.
//! * [`metrics`] — cutset statistics exactly as reported in the paper's
//!   tables (total cut edges, per-partition boundary cost `C(q)` max/min,
//!   load imbalance).
//! * [`traversal`] — BFS utilities (single and multi-source, ownership
//!   propagation) used by the assignment and layering phases.
//! * [`generators`] — synthetic graph families for tests and benches.
//! * [`io`] — a METIS-compatible plain-text graph format reader/writer.
//!
//! All hot data structures follow the flat-`Vec` + `u32`-index idiom: no
//! per-vertex allocation, no hashing on hot paths.
//!
//! ```
//! use igp_graph::{CsrGraph, GraphDelta, Partitioning, metrics::CutMetrics};
//!
//! // A 6-cycle split into two halves: the cut is 2 edges.
//! let g = CsrGraph::from_edges(6, &[(0,1),(1,2),(2,3),(3,4),(4,5),(5,0)]);
//! let part = Partitioning::from_assignment(&g, 2, vec![0,0,0,1,1,1]);
//! assert_eq!(CutMetrics::compute(&g, &part).total_cut_edges, 2);
//!
//! // Grow it incrementally: one vertex hanging off vertex 0.
//! let delta = GraphDelta {
//!     add_vertices: vec![1],
//!     add_edges: vec![(0, 6, 1)],
//!     ..Default::default()
//! };
//! let inc = delta.apply(&g);
//! assert_eq!(inc.new_graph().num_vertices(), 7);
//! assert!(inc.is_added(6));
//! ```

pub mod coalesce;
pub mod csr;
pub mod delta;
pub mod generators;
pub mod io;
pub mod metrics;
pub mod partition;
pub mod traversal;

pub use coalesce::{coalesce, CoalesceError, DeltaCoalescer, DirtStats};
pub use csr::{CsrBuilder, CsrGraph};
pub use delta::{DeltaError, GraphDelta, IncrementalGraph};
pub use metrics::{CutMetrics, PartitionCosts};
pub use partition::Partitioning;

/// Vertex identifier. Graphs in this workspace are bounded well below
/// `u32::MAX` vertices; 32-bit ids halve the memory traffic of the hot
/// CSR scans relative to `usize` (see the Rust Performance Book notes on
/// smaller integers).
pub type NodeId = u32;

/// Partition identifier (the paper's `p` processors / partitions).
pub type PartId = u32;

/// Integer vertex/edge weight. The paper assumes unit weights but notes
/// "all of our algorithms can be easily modified if this is not the case";
/// we carry weights everywhere.
pub type Weight = u64;

/// Largest vertex or edge weight accepted from outside the process (a
/// METIS upload, a delta). With at most `NodeId::MAX` vertices, every
/// total vertex weight and every weighted degree then fits in `i64`.
pub const MAX_WEIGHT: Weight = (1 << 31) - 1;

/// Sentinel for "no vertex".
pub const INVALID_NODE: NodeId = u32::MAX;

/// Sentinel for "no partition".
pub const NO_PART: PartId = u32::MAX;
