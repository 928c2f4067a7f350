//! # igp-lp — linear programming for incremental graph partitioning
//!
//! Ou & Ranka solve both the load-balancing step and the refinement step of
//! their incremental partitioner as linear programs, "using a dense version
//! of \[the\] simplex algorithm" (§2.3, footnote 1). This crate provides:
//!
//! * [`LpModel`] — a small builder for LPs with non-negative variables,
//!   optional upper bounds, and `≤ / = / ≥` constraints.
//!   [`movement_lp`] and [`circulation_lp`] state the paper's two LPs
//!   (eq. 10 and eq. 14) over a partition adjacency.
//! * [`solve`] / [`solve_on`] — one dense **two-phase primal simplex**
//!   kernel with Dantzig pricing and a Bland's-rule anti-cycling
//!   fallback, written as an SPMD routine over
//!   [`igp_runtime::Executor`]: ranks own strided tableau columns (the
//!   paper's parallelisation), and the sequential solver is the same
//!   code at size 1. Variable bounds are native;
//!   [`LpModel::caps_as_rows`] restates them as rows to reproduce the
//!   paper's tableau sizes and pivot counts.
//! * [`flow`] — network-flow solvers (SPFA-based min-cost flow,
//!   cycle-cancelling max circulation). Both of the paper's
//!   LPs are integral network problems, so these serve as independent
//!   oracles in tests *and* as an ablation comparator for the simplex.
//!
//! The paper reports that for 32 partitions the load-balance LP has
//! `v = 188` variables and `c = 126` constraints and that each dense
//! iteration costs `O(v·c)` — sizes this implementation handles in
//! microseconds, while keeping the same dense-tableau structure that the
//! paper parallelizes across processors.
//!
//! ```
//! use igp_lp::{LpModel, solve};
//!
//! // max 3x + 2y  s.t.  x + y ≤ 4,  x + 3y ≤ 6,  x,y ≥ 0.
//! let mut m = LpModel::maximize(2);
//! m.set_objective(0, 3.0);
//! m.set_objective(1, 2.0);
//! m.add_le(vec![(0, 1.0), (1, 1.0)], 4.0);
//! m.add_le(vec![(0, 1.0), (1, 3.0)], 6.0);
//! let sol = solve(&m).unwrap();
//! assert!((sol.objective - 12.0).abs() < 1e-9);
//! ```

pub mod flow;
pub mod model;
pub mod simplex;

pub use model::{circulation_lp, movement_lp, Cmp, Constraint, LpModel, Sense};
pub use simplex::{solve, solve_on, LpError, LpSolution, SimplexStats};
