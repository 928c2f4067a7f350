//! # igp-bench — experiment harness for the SC'94 reproduction
//!
//! Regenerates every table and figure from the paper's evaluation
//! (see DESIGN.md §3 for the experiment index):
//!
//! * [`experiments::run_sequence_experiment`] — the Figure 11 / Figure 14
//!   tables: SB (recursive spectral bisection from scratch) vs IGP vs
//!   IGPR per incremental mesh, with cutset total/max/min, measured
//!   sequential wall time, and simulated CM-5 `Time-s` / `Time-p`.
//! * [`experiments::run_speedup_experiment`] — the in-text "speedup of
//!   around 15 to 20 on a 32-node CM-5" claim, sweeping worker counts.
//! * `repro_*` binaries print the tables; `benches/{service,store}.rs`
//!   price the serving and durability layers ([`artifact`] writes their
//!   `BENCH_*.json`). Kernel timings at the paper's sizes come from the
//!   standalone `benchmark/` package.

pub mod artifact;
pub mod experiments;
pub mod tables;

pub use experiments::{
    run_sequence_experiment, run_speedup_experiment, RowResult, SpeedupPoint, StepResult,
};
