//! # igp-core — Parallel Incremental Graph Partitioning Using Linear Programming
//!
//! This crate is the primary contribution of Ou & Ranka (SC '94): keep a
//! `P`-way graph partition up to date as the graph changes incrementally,
//! using linear programming for both load balancing and cut refinement.
//! The four phases (paper Figure 1):
//!
//! 1. [`assign`] — new vertices take the partition of the nearest old
//!    vertex (multi-source BFS).
//! 2. [`layer`] — each partition is layered by distance from its boundary,
//!    producing the movability counts `λ_ij` (paper Figure 3).
//! 3. [`balance`] — an LP minimizes total movement subject to caps and
//!    balance (paper eq. 10–12), with δ-staged retries when infeasible.
//! 4. [`refine`] — an LP maximizes balance-neutral boundary migration that
//!    reduces the cut (paper eq. 14–16); iterated (IGPR).
//!
//! Drivers:
//! * [`IncrementalPartitioner`] — sequential IGP / IGPR.
//! * [`parallel::ParallelPartitioner`] — the same algorithm as an SPMD
//!   program written against `igp-runtime`'s [`Executor`](igp_runtime::Executor)
//!   abstraction, its LPs solved collectively by `igp-lp`'s column-owned
//!   simplex kernel, reproducing the paper's "all the steps used by our
//!   method are inherently parallel" claim. The substrate is
//!   selected by [`IgpConfig::backend`]: [`Backend::SimCm5`] for
//!   simulated CM-5 timings (figure reproduction) or
//!   [`Backend::SharedMem`] for real wall-clock execution.
//! * [`session::IgpSession`] — the solver-loop API: owns the evolving
//!   graph + partitioning, applies successive increments and raises the
//!   paper's from-scratch signal on capped-balance infeasibility.

pub mod assign;
pub mod balance;
pub mod config;
pub mod layer;
pub mod obs;
pub mod parallel;
pub mod partitioner;
pub mod refine;
pub mod report;
pub mod session;

pub use config::{BalanceSolver, CapPolicy, IgpConfig, RefineConfig};
pub use igp_runtime::Backend;
pub use parallel::ParallelPartitioner;
pub use partitioner::IncrementalPartitioner;
pub use report::IgpReport;
