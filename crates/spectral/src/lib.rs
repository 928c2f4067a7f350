//! # igp-spectral — the Recursive Spectral Bisection baseline
//!
//! The paper benchmarks its incremental partitioner against **Recursive
//! Spectral Bisection** (RSB, Pothen–Simon–Liou 1990) applied from scratch,
//! "regarded as one of the best-known methods for graph partitioning".
//! This crate implements RSB from first principles:
//!
//! * [`laplacian`] — graph Laplacian operator (matrix-free matvec).
//! * [`lanczos`] — Lanczos iteration with full reorthogonalization and
//!   constant-vector deflation to extract the **Fiedler vector** (the
//!   eigenvector of the second-smallest Laplacian eigenvalue): exactly
//!   ([`fiedler_vector`]), or multilevel ([`fiedler_multilevel`]:
//!   heavy-edge coarsening, an exact solve on the coarsest graph, a
//!   short Lanczos polish per finer level). Start vectors are seeded
//!   draws from [`igp_graph::rng::SplitMix64`].
//! * [`tridiag`] — implicit-shift QL eigensolver for the symmetric
//!   tridiagonal Rayleigh–Ritz systems Lanczos produces.
//! * [`rsb`] — the recursive driver: sort by Fiedler value, split at the
//!   weighted median, recurse; handles disconnected subgraphs and
//!   arbitrary (non-power-of-two) partition counts.
//!   [`RsbOptions::default()`] (what sessions serve on) runs the
//!   multilevel solver; [`RsbOptions::paper()`] (the SB baseline of
//!   every paper table) runs the exact one.
//!
//! ```
//! use igp_graph::{generators, metrics::CutMetrics};
//! use igp_spectral::{recursive_spectral_bisection, RsbOptions};
//!
//! // Bisecting an 8×16 grid: the spectral cut is (near-)optimal: 8 edges.
//! let g = generators::grid(8, 16);
//! let part = recursive_spectral_bisection(&g, 2, RsbOptions::default());
//! let cut = CutMetrics::compute(&g, &part).total_cut_edges;
//! assert!(cut <= 12);
//! assert_eq!(part.count(0), 64);
//! ```

pub mod lanczos;
pub mod laplacian;
pub mod rsb;
pub mod tridiag;

pub use lanczos::{fiedler_multilevel, fiedler_vector, FiedlerOptions};
pub use rsb::{recursive_spectral_bisection, FiedlerSolver, RsbOptions};
