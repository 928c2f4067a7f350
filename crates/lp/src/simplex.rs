//! The simplex kernel: one dense two-phase primal simplex, column-owned
//! over an [`Executor`].
//!
//! The paper solves both of its LPs with "a dense version of simplex
//! algorithm" (§2.3 fn. 1), `O(v·c)` per iteration, and parallelises that
//! same tableau by columns. This module is that solver, once:
//!
//! * rank `r` of `p` owns the tableau columns `j ≡ r (mod p)`, stored
//!   row-major so the pivot's inner loop is a contiguous
//!   `row[k] -= f * prow[k]`; the basic solution, basis, bounds and
//!   at-upper flags are replicated;
//! * one iteration is a local pricing scan → global arg-min
//!   [`Executor::allreduce`] → the owner [`Executor::broadcast`]s the
//!   entering column → every rank runs the identical ratio test on the
//!   replicated state → every rank rank-1-updates its own columns;
//! * variable bounds are native (the upper-bounding technique: non-basic
//!   variables rest at either bound and a *bound flip* moves one across
//!   without a pivot), so the tableau has one row per functional
//!   constraint. The paper's formulation, with one more row per cap, is
//!   the same kernel on [`LpModel::caps_as_rows`];
//! * the sequential solver is this kernel on [`Solo`] — rank 0 of 1,
//!   collectives the identity — not a second implementation.
//!
//! Pricing is Dantzig's rule (most violating reduced cost, first index on
//! ties) with a switch to Bland's rule after `BLAND_AFTER` iterations;
//! the ratio test breaks ties by smallest basis index. Every choice is a
//! pure function of replicated or rank-order-reduced values, so the pivot
//! sequence is identical on every executor and at every rank count.
//!
//! **Charge schedule** (the simulated CM-5 clock is pinned bit for bit by
//! `tests/backend_equiv.rs`, so amounts and their order relative to the
//! collectives are part of the contract). With `m` rows and `c` local
//! columns: `m·c` at assembly and at each reduced-cost recomputation;
//! per iteration `c` for the pricing scan, a 3-word arg-min allreduce, an
//! `m+1`-word column broadcast, `m` for the ratio test, then `m·c + m`
//! for a pivot or `m` for a bound flip; per basic artificial after
//! phase 1, `c` for the row scan, a 2-word min allreduce, and the
//! broadcast + pivot charges without a ratio test.

use crate::model::{Cmp, LpModel, Sense};
use igp_runtime::{Executor, Solo};

/// Hard iteration cap per phase.
const MAX_ITERS: usize = 100_000;
/// Feasibility/optimality tolerance.
const EPS: f64 = 1e-9;
/// Switch from Dantzig to Bland's rule after this many iterations of a
/// phase (the paper's LPs are network-structured and highly degenerate).
const BLAND_AFTER: usize = 2_000;

/// Iteration counters (the paper's E7 accounting: tableau size + pivots).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimplexStats {
    /// Iterations in phase 1 (feasibility).
    pub phase1_iters: usize,
    /// Iterations in phase 2 (optimality).
    pub phase2_iters: usize,
    /// Tableau rows (the paper's `c` when caps are rows).
    pub rows: usize,
    /// Total tableau columns (structural + slack + artificial).
    pub cols: usize,
}

impl SimplexStats {
    /// Total pivots.
    pub fn total_iters(&self) -> usize {
        self.phase1_iters + self.phase2_iters
    }
}

/// An optimal solution.
#[derive(Clone, Debug, PartialEq)]
pub struct LpSolution {
    /// Optimal values of the structural variables.
    pub x: Vec<f64>,
    /// Objective value in the model's own sense.
    pub objective: f64,
    /// Work counters.
    pub stats: SimplexStats,
}

/// Solver failure modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LpError {
    /// No feasible point exists (phase-1 optimum > 0). The partitioner
    /// reacts to this by δ-scaling the balance RHS (multi-stage, §2.3).
    Infeasible,
    /// Objective unbounded in the optimization direction.
    Unbounded,
    /// Iteration cap exceeded (numerical trouble).
    IterationLimit,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "infeasible"),
            LpError::Unbounded => write!(f, "unbounded"),
            LpError::IterationLimit => write!(f, "iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// Solve `model` sequentially: [`solve_on`] at size 1.
pub fn solve(model: &LpModel) -> Result<LpSolution, LpError> {
    solve_on(&mut Solo, model)
}

/// Solve `model` collectively on the ranks of `ctx`; every rank calls
/// this with the same model and receives the same result.
pub fn solve_on<E: Executor>(ctx: &mut E, model: &LpModel) -> Result<LpSolution, LpError> {
    solve_with(ctx, model, BLAND_AFTER)
}

fn solve_with<E: Executor>(
    ctx: &mut E,
    model: &LpModel,
    bland_after: usize,
) -> Result<LpSolution, LpError> {
    let mut t = Tableau::build(ctx, model);
    let mut stats = SimplexStats {
        rows: t.xb.len(),
        cols: t.ncols,
        ..Default::default()
    };
    let art_lo = t.ncols - t.n_art;

    // Phase 1: minimize the sum of artificials.
    if t.n_art > 0 {
        let mut c1 = vec![0.0; t.ncols];
        c1[art_lo..].fill(1.0);
        t.price_out(ctx, &c1);
        stats.phase1_iters = t.run(ctx, t.ncols, bland_after)?;
        let infeas: f64 = (0..t.xb.len())
            .filter(|&i| t.basis[i] >= art_lo)
            .map(|i| t.xb[i])
            .sum();
        let scale = t.xb.iter().fold(0.0f64, |a, &b| a.max(b.abs()));
        if infeas > 1e-7 * (1.0 + scale) {
            return Err(LpError::Infeasible);
        }
        t.expel_artificials(ctx);
    }

    // Phase 2: the real objective (converted to minimization);
    // artificials may not re-enter.
    let flip = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut c2 = vec![0.0; t.ncols];
    for (j, &c) in model.objective().iter().enumerate() {
        c2[j] = flip * c;
    }
    t.price_out(ctx, &c2);
    stats.phase2_iters = t.run(ctx, art_lo, bland_after)?;

    let n = model.num_vars();
    let mut x = vec![0.0; n];
    for j in 0..n {
        if t.at_upper[j] {
            x[j] = t.upper[j];
        }
    }
    for (i, &b) in t.basis.iter().enumerate() {
        if t.active[i] && b < n {
            x[b] = t.xb[i].max(0.0);
        }
    }
    let objective = model.objective_value(&x);
    Ok(LpSolution {
        x,
        objective,
        stats,
    })
}

/// This rank's share of the tableau `B⁻¹A` plus the replicated state.
///
/// Invariant: the column of `basis[i]` is the unit vector `e_i` over the
/// active rows, its reduced cost is exactly `0.0` and its `at_upper` flag
/// is false — exactly, not within `EPS`: a pivot *writes* the unit column
/// and later pivots only subtract multiples of its zeros. Pricing
/// therefore never proposes a basic column and needs no membership test.
struct Tableau {
    /// `rows[i][k]` is row `i` of global column `rank + k·size`.
    rows: Vec<Vec<f64>>,
    /// Reduced costs of the local columns.
    red: Vec<f64>,
    /// Values of the basic variables (replicated, as is all that follows).
    xb: Vec<f64>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Cleared for rows found redundant after phase 1.
    active: Vec<bool>,
    /// Upper bound per column (`INFINITY` for slacks/artificials).
    upper: Vec<f64>,
    /// Non-basic-at-upper flag per column.
    at_upper: Vec<bool>,
    n_art: usize,
    ncols: usize,
    rank: usize,
    size: usize,
}

impl Tableau {
    /// Global index of local column `k`.
    #[inline]
    fn global(&self, k: usize) -> usize {
        self.rank + k * self.size
    }

    /// Local index of global column `j`, if this rank owns it.
    #[inline]
    fn local(&self, j: usize) -> Option<usize> {
        (j % self.size == self.rank).then(|| j / self.size)
    }

    /// Standard-form assembly: rows normalized to `rhs ≥ 0`, a slack or
    /// surplus column per inequality, an artificial per `≥`/`=` row, the
    /// starting basis on slacks and artificials.
    fn build<E: Executor>(ctx: &mut E, model: &LpModel) -> Tableau {
        let n = model.num_vars();
        let cons = model.constraints();
        let m = cons.len();
        // A negative rhs negates the row, which mirrors its comparison.
        let cmp_of = |c: &crate::model::Constraint| match (c.rhs < 0.0, c.cmp) {
            (true, Cmp::Le) => Cmp::Ge,
            (true, Cmp::Ge) => Cmp::Le,
            (_, cmp) => cmp,
        };
        let n_slack = cons.iter().filter(|c| cmp_of(c) != Cmp::Eq).count();
        let n_art = cons.iter().filter(|c| cmp_of(c) != Cmp::Le).count();
        let ncols = n + n_slack + n_art;
        let (rank, size) = (ctx.rank(), ctx.size());
        let local_cols = (ncols + size - 1 - rank) / size;
        let mut t = Tableau {
            rows: vec![vec![0.0; local_cols]; m],
            red: vec![0.0; local_cols],
            xb: vec![0.0; m],
            basis: vec![usize::MAX; m],
            active: vec![true; m],
            upper: vec![f64::INFINITY; ncols],
            at_upper: vec![false; ncols],
            n_art,
            ncols,
            rank,
            size,
        };
        for (j, ub) in model.upper_bounds().iter().enumerate() {
            if let Some(u) = ub {
                t.upper[j] = *u;
            }
        }
        let mut next_slack = n;
        let mut next_art = n + n_slack;
        for (i, c) in cons.iter().enumerate() {
            let sign = if c.rhs < 0.0 { -1.0 } else { 1.0 };
            t.xb[i] = sign * c.rhs;
            for &(j, a) in &c.coeffs {
                t.set(i, j, sign * a);
            }
            let cmp = cmp_of(c);
            if cmp != Cmp::Eq {
                t.set(i, next_slack, if cmp == Cmp::Le { 1.0 } else { -1.0 });
                t.basis[i] = next_slack;
                next_slack += 1;
            }
            if cmp != Cmp::Le {
                t.set(i, next_art, 1.0);
                t.basis[i] = next_art;
                next_art += 1;
            }
        }
        ctx.charge((m * local_cols) as u64);
        t
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, a: f64) {
        if let Some(k) = self.local(j) {
            self.rows[i][k] = a;
        }
    }

    /// Recompute the local reduced costs for cost vector `c` over the
    /// current basis: `red = c − c_B·(current rows)`.
    fn price_out<E: Executor>(&mut self, ctx: &mut E, c: &[f64]) {
        for k in 0..self.red.len() {
            self.red[k] = c[self.global(k)];
        }
        for (i, row) in self.rows.iter().enumerate() {
            let cb = c[self.basis[i]];
            if self.active[i] && cb != 0.0 {
                for (r, a) in self.red.iter_mut().zip(row) {
                    *r -= cb * a;
                }
            }
        }
        ctx.charge((self.rows.len() * self.red.len()) as u64);
    }

    /// Iterate to optimality over columns `< limit`; returns the
    /// iteration count.
    fn run<E: Executor>(
        &mut self,
        ctx: &mut E,
        limit: usize,
        bland_after: usize,
    ) -> Result<usize, LpError> {
        for iter in 0..MAX_ITERS {
            let bland = iter >= bland_after;
            // Local entering candidate, keyed by reduced cost in the
            // variable's resting direction (negative = improving).
            let mut local: (f64, u64) = (f64::INFINITY, u64::MAX);
            for (k, &r) in self.red.iter().enumerate() {
                let j = self.global(k);
                if j >= limit {
                    break;
                }
                let key = if self.at_upper[j] { -r } else { r };
                if key < -EPS && key < local.0 {
                    local = (if bland { 0.0 } else { key }, j as u64);
                    if bland {
                        break;
                    }
                }
            }
            ctx.charge(self.red.len() as u64);
            let (_, enter) = ctx.allreduce(local, 3, |a, b| {
                if b.0 < a.0 || (b.0 == a.0 && b.1 < a.1) {
                    b
                } else {
                    a
                }
            });
            if enter == u64::MAX {
                return Ok(iter);
            }
            self.step(ctx, enter as usize, None)?;
        }
        Err(LpError::IterationLimit)
    }

    /// Bring column `e` into the basis, or flip it to its other bound:
    /// the owner broadcasts the column, every rank runs the same ratio
    /// test on the replicated state and updates its own columns. With
    /// `forced_row` the ratio test is skipped and `e` replaces that row's
    /// basic variable (an artificial at value 0) without changing value.
    fn step<E: Executor>(
        &mut self,
        ctx: &mut E,
        e: usize,
        forced_row: Option<usize>,
    ) -> Result<(), LpError> {
        let m = self.xb.len();
        let payload = self
            .local(e)
            .map(|k| (self.rows.iter().map(|r| r[k]).collect(), self.red[k]));
        let (col, red_e): (Vec<f64>, f64) = ctx.broadcast(e % self.size, payload, m as u64 + 1);

        if let Some(r) = forced_row {
            let x_e = if self.at_upper[e] { self.upper[e] } else { 0.0 };
            self.at_upper[e] = false;
            self.pivot(ctx, r, e, &col, red_e);
            self.xb[r] = x_e;
            return Ok(());
        }

        // Ratio test. `e` moves up from 0 or down from its upper bound;
        // the step ends when `e` reaches its own other bound (`t_max`
        // starts there) or a basic variable reaches 0 or its upper bound.
        // Ties go to the smallest basis index (needed for termination
        // under Bland's rule); `e`'s own bound wins a tie against a row.
        let d: f64 = if self.at_upper[e] { -1.0 } else { 1.0 };
        let mut t_max = self.upper[e];
        let mut leave: Option<(usize, bool)> = None; // (row, leaves at upper)
        for i in 0..m {
            if !self.active[i] {
                continue;
            }
            let y = d * col[i];
            let ub = self.upper[self.basis[i]];
            let (lim, to_upper) = if y > EPS {
                (self.xb[i] / y, false)
            } else if y < -EPS && ub.is_finite() {
                ((ub - self.xb[i]) / -y, true)
            } else {
                continue;
            };
            let wins_tie =
                leave.map_or(t_max.is_infinite(), |(r, _)| self.basis[i] < self.basis[r]);
            if lim < t_max - EPS || (lim < t_max + EPS && wins_tie) {
                t_max = lim.max(0.0);
                leave = Some((i, to_upper));
            }
        }
        ctx.charge(m as u64);
        if t_max.is_infinite() {
            return Err(LpError::Unbounded);
        }

        let pivot_row = leave.map(|(r, _)| r);
        for i in 0..m {
            if self.active[i] && Some(i) != pivot_row {
                self.xb[i] -= d * t_max * col[i];
            }
        }
        match leave {
            None => {
                self.at_upper[e] = !self.at_upper[e];
                ctx.charge(m as u64);
            }
            Some((r, to_upper)) => {
                let x_e = if self.at_upper[e] {
                    self.upper[e] - t_max
                } else {
                    t_max
                };
                self.at_upper[self.basis[r]] = to_upper;
                self.at_upper[e] = false;
                self.pivot(ctx, r, e, &col, red_e);
                self.xb[r] = x_e;
            }
        }
        Ok(())
    }

    /// Gauss-Jordan pivot on `(r, e)` over the local columns, given the
    /// broadcast entering column `col` and its reduced cost `red_e`.
    fn pivot<E: Executor>(&mut self, ctx: &mut E, r: usize, e: usize, col: &[f64], red_e: f64) {
        debug_assert!(col[r].abs() > EPS, "pivot too small: {}", col[r]);
        let inv = 1.0 / col[r];
        let own = self.local(e);
        // Take the pivot row out while the others are updated against it.
        let mut prow = std::mem::take(&mut self.rows[r]);
        for v in prow.iter_mut() {
            *v *= inv;
        }
        for (i, row) in self.rows.iter_mut().enumerate() {
            let f = col[i];
            if i != r && self.active[i] && f != 0.0 {
                for (a, p) in row.iter_mut().zip(&prow) {
                    *a -= f * p;
                }
                if let Some(k) = own {
                    row[k] = 0.0; // kill roundoff
                }
            }
        }
        if red_e != 0.0 {
            for (a, p) in self.red.iter_mut().zip(&prow) {
                *a -= red_e * p;
            }
        }
        if let Some(k) = own {
            prow[k] = 1.0;
            self.red[k] = 0.0;
        }
        ctx.charge((col.len() * prow.len() + col.len()) as u64);
        self.rows[r] = prow;
        self.basis[r] = e;
    }

    /// After phase 1: pivot basic artificials (all at value 0) out of the
    /// basis on the first non-artificial column with a usable entry; rows
    /// that are zero over the non-artificial columns are redundant
    /// constraints and get deactivated.
    fn expel_artificials<E: Executor>(&mut self, ctx: &mut E) {
        let art_lo = self.ncols - self.n_art;
        for r in 0..self.xb.len() {
            if !self.active[r] || self.basis[r] < art_lo {
                continue;
            }
            let local = (0..self.red.len())
                .map(|k| (k, self.global(k)))
                .take_while(|&(_, j)| j < art_lo)
                .find(|&(k, _)| self.rows[r][k].abs() > 1e-7)
                .map_or(u64::MAX, |(_, j)| j as u64);
            ctx.charge(self.red.len() as u64);
            let j = ctx.allreduce(local, 2, |a, b| a.min(b));
            if j == u64::MAX {
                self.active[r] = false;
            } else {
                self.step(ctx, j as usize, Some(r))
                    .expect("a forced pivot runs no ratio test");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{circulation_lp, movement_lp};
    use igp_runtime::{CostModel, Machine, SharedMachine};

    fn assert_close(a: f64, b: f64, what: &str) {
        assert!((a - b).abs() < 1e-6, "{what}: {a} != {b}");
    }

    type LpResult = Result<LpSolution, LpError>;

    /// Solve `model` on `Solo`, and on `Machine` and `SharedMachine` at
    /// 1, 2, 3 and 5 ranks; every rank of every executor must return the
    /// same outcome bit for bit — `x`, objective and pivot counts.
    fn on_every_executor(model: &LpModel, tag: &str) -> LpResult {
        let solo = solve(model);
        for w in [1usize, 2, 3, 5] {
            let (sim, _) = Machine::new(w, CostModel::cm5()).run(|ctx| solve_on(ctx, model));
            let (shm, _) = SharedMachine::new(w).run(|ctx| solve_on(ctx, model));
            for (r, out) in sim.iter().chain(&shm).enumerate() {
                assert_eq!(*out, solo, "{tag}: w={w} rank slot {r}");
            }
        }
        solo
    }

    /// The full matrix for one model: {caps as rows, native bounds} ×
    /// every executor. The two cap modes must agree on the outcome
    /// (optimal value or failure mode) and any optimum must be feasible
    /// for the model as stated. Returns `(dense, native)`.
    fn solve_everywhere(model: &LpModel, tag: &str) -> (LpResult, LpResult) {
        let dense = on_every_executor(&model.caps_as_rows(), &format!("{tag} caps-as-rows"));
        let native = on_every_executor(model, &format!("{tag} native"));
        match (&dense, &native) {
            (Ok(a), Ok(b)) => {
                assert_close(a.objective, b.objective, tag);
                for s in [a, b] {
                    model.check_feasible(&s.x, 1e-6).unwrap();
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{tag}"),
            (a, b) => panic!("{tag}: cap modes disagree: {a:?} vs {b:?}"),
        }
        (dense, native)
    }

    /// What a table case must produce in both cap modes.
    enum Want {
        /// Optimal value, plus the entries of `x` the optimum pins.
        Opt(f64, &'static [(usize, f64)]),
        Fails(LpError),
    }

    /// One table-case constraint: sparse coefficients, comparison, rhs.
    type Row<'a> = (&'a [(usize, f64)], Cmp, f64);

    fn lp(sense: Sense, objective: &[f64], upper: &[(usize, f64)], rows: &[Row]) -> LpModel {
        let mut m = match sense {
            Sense::Minimize => LpModel::minimize(objective.len()),
            Sense::Maximize => LpModel::maximize(objective.len()),
        };
        for (i, &c) in objective.iter().enumerate() {
            m.set_objective(i, c);
        }
        for &(i, u) in upper {
            m.set_upper_bound(i, u);
        }
        for &(coeffs, cmp, rhs) in rows {
            match cmp {
                Cmp::Le => m.add_le(coeffs.to_vec(), rhs),
                Cmp::Eq => m.add_eq(coeffs.to_vec(), rhs),
                Cmp::Ge => m.add_ge(coeffs.to_vec(), rhs),
            }
        }
        m
    }

    /// The paper's 4-partition adjacency (Figures 5 and 8): variables
    /// l01 l02 l03 l10 l12 l20 l21 l23 l30 l32.
    const FIG_ARCS: [(usize, usize); 10] = [
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 0),
        (1, 2),
        (2, 0),
        (2, 1),
        (2, 3),
        (3, 0),
        (3, 2),
    ];

    fn sample_lp() -> LpModel {
        lp(
            Sense::Maximize,
            &[3.0, 2.0, 4.0],
            &[],
            &[
                (&[(0, 1.0), (1, 1.0), (2, 1.0)], Cmp::Le, 10.0),
                (&[(0, 2.0), (2, 1.0)], Cmp::Le, 8.0),
                (&[(1, 1.0)], Cmp::Ge, 1.0),
            ],
        )
    }

    fn cases() -> Vec<(&'static str, LpModel, Want)> {
        use Cmp::*;
        use Sense::*;
        use Want::*;
        let xy: &[(usize, f64)] = &[(0, 1.0), (1, 1.0)];
        vec![
            (
                "textbook max: 3x + 2y, x + y <= 4, x + 3y <= 6",
                lp(
                    Maximize,
                    &[3.0, 2.0],
                    &[],
                    &[(xy, Le, 4.0), (&[(0, 1.0), (1, 3.0)], Le, 6.0)],
                ),
                Opt(12.0, &[(0, 4.0), (1, 0.0)]),
            ),
            (
                "textbook min with >= rows",
                lp(
                    Minimize,
                    &[2.0, 3.0],
                    &[],
                    &[
                        (xy, Ge, 10.0),
                        (&[(0, 1.0)], Ge, 2.0),
                        (&[(1, 1.0)], Ge, 3.0),
                    ],
                ),
                Opt(23.0, &[(0, 7.0), (1, 3.0)]),
            ),
            (
                "three-variable max with a >= row",
                sample_lp(),
                Opt(36.0, &[(0, 0.0), (1, 2.0), (2, 8.0)]),
            ),
            (
                "equality row",
                lp(Minimize, &[1.0, 0.0], &[], &[(xy, Eq, 2.0)]),
                Opt(0.0, &[(1, 2.0)]),
            ),
            (
                "negative rhs is normalized: x - y = -3",
                lp(
                    Minimize,
                    &[0.0, 1.0],
                    &[],
                    &[(&[(0, 1.0), (1, -1.0)], Eq, -3.0)],
                ),
                Opt(3.0, &[(0, 0.0), (1, 3.0)]),
            ),
            (
                "upper bounds bind with a row",
                lp(
                    Maximize,
                    &[1.0, 1.0],
                    &[(0, 1.5), (1, 2.5)],
                    &[(xy, Le, 3.0)],
                ),
                Opt(3.0, &[]),
            ),
            (
                "optimum parks both variables at their upper bounds",
                lp(
                    Maximize,
                    &[5.0, 1.0],
                    &[(0, 2.0), (1, 3.0)],
                    &[(xy, Le, 10.0)],
                ),
                Opt(13.0, &[(0, 2.0), (1, 3.0)]),
            ),
            (
                "equality with bounds",
                lp(
                    Minimize,
                    &[1.0, 2.0],
                    &[(0, 3.0), (1, 4.0)],
                    &[(xy, Eq, 5.0)],
                ),
                Opt(7.0, &[(0, 3.0), (1, 2.0)]),
            ),
            (
                "equality, >= row and bounds together",
                lp(
                    Minimize,
                    &[1.0, 2.0, 3.0, 4.0],
                    &[(0, 5.0), (1, 5.0), (2, 5.0), (3, 5.0)],
                    &[
                        (&[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)], Eq, 12.0),
                        (&[(2, 1.0), (3, 1.0)], Ge, 3.0),
                    ],
                ),
                Opt(22.0, &[(0, 5.0), (1, 4.0), (2, 3.0), (3, 0.0)]),
            ),
            (
                "zero upper bound fixes a variable",
                lp(Maximize, &[5.0, 1.0], &[(0, 0.0)], &[(xy, Le, 4.0)]),
                Opt(4.0, &[(0, 0.0)]),
            ),
            (
                "negative objective under maximize stays at 0",
                lp(Maximize, &[-2.0], &[], &[(&[(0, 1.0)], Le, 10.0)]),
                Opt(0.0, &[(0, 0.0)]),
            ),
            (
                "redundant equalities (rank-1 system stated three times)",
                lp(
                    Maximize,
                    &[1.0, 0.0],
                    &[],
                    &[
                        (xy, Eq, 2.0),
                        (xy, Eq, 2.0),
                        (&[(0, 2.0), (1, 2.0)], Eq, 4.0),
                    ],
                ),
                Opt(2.0, &[(0, 2.0)]),
            ),
            ("no variables", LpModel::minimize(0), Opt(0.0, &[])),
            (
                "infeasible rows",
                lp(
                    Minimize,
                    &[0.0],
                    &[],
                    &[(&[(0, 1.0)], Le, 1.0), (&[(0, 1.0)], Ge, 2.0)],
                ),
                Fails(LpError::Infeasible),
            ),
            (
                "infeasible against an upper bound",
                lp(Minimize, &[0.0], &[(0, 1.0)], &[(&[(0, 1.0)], Ge, 5.0)]),
                Fails(LpError::Infeasible),
            ),
            (
                "unbounded ray",
                lp(
                    Maximize,
                    &[1.0, 0.0],
                    &[],
                    &[(&[(0, 1.0), (1, -1.0)], Ge, 0.0)],
                ),
                Fails(LpError::Unbounded),
            ),
            (
                // Net-outflow equalities +8, +1, −1, −8; the unique
                // minimum-movement routing is the direct one.
                "paper Figure 5 load-balance LP",
                movement_lp(
                    4,
                    &FIG_ARCS,
                    Some(&[9, 7, 12, 10, 11, 3, 7, 9, 7, 5]),
                    &[8, 1, -1, -8],
                ),
                Opt(9.0, &[(2, 8.0), (4, 1.0)]),
            ),
            (
                // The LP optimum is 9; the paper prints a solution summing
                // to 8 with a per-node imbalance — a typo (EXPERIMENTS.md E5).
                "paper Figure 8 refinement LP",
                circulation_lp(4, &FIG_ARCS, &[1, 1, 1, 2, 1, 0, 1, 1, 2, 1]),
                Opt(9.0, &[]),
            ),
        ]
    }

    #[test]
    fn table_in_both_cap_modes_on_every_executor() {
        for (name, model, want) in cases() {
            let (dense, native) = solve_everywhere(&model, name);
            for got in [dense, native] {
                match (&got, &want) {
                    (Ok(s), Want::Opt(objective, pinned)) => {
                        assert_close(s.objective, *objective, name);
                        for &(i, v) in *pinned {
                            assert_close(s.x[i], v, &format!("{name}: x[{i}]"));
                        }
                    }
                    (Err(e), Want::Fails(f)) => assert_eq!(e, f, "{name}"),
                    _ => panic!("{name}: unexpected outcome {got:?}"),
                }
            }
        }
    }

    #[test]
    fn network_lps_have_integral_optima() {
        for (name, model, _) in cases().into_iter().filter(|c| c.0.starts_with("paper")) {
            for m in [model.caps_as_rows(), model] {
                for v in solve(&m).unwrap().x {
                    assert!((v - v.round()).abs() < 1e-6, "{name}: non-integral {v}");
                }
            }
        }
    }

    #[test]
    fn random_instances_agree_across_modes_and_executors() {
        let mut state = 1234u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 1000) as f64 / 100.0
        };
        let mut optimal = 0;
        for trial in 0..40 {
            let n = 2 + (trial % 5);
            let mut m = if trial % 2 == 0 {
                LpModel::minimize(n)
            } else {
                LpModel::maximize(n)
            };
            for i in 0..n {
                m.set_objective(i, next() - 5.0);
                m.set_upper_bound(i, next() + 0.5);
            }
            for _ in 0..1 + trial % 3 {
                let row: Vec<(usize, f64)> = (0..n).map(|i| (i, next() - 5.0)).collect();
                match trial % 3 {
                    0 => m.add_le(row, next() + 1.0),
                    1 => m.add_ge(row, -(next())),
                    _ => m.add_eq(row, next() - 5.0),
                }
            }
            let (_, native) = solve_everywhere(&m, &format!("random trial {trial}"));
            optimal += native.is_ok() as usize;
        }
        assert!(
            optimal >= 10,
            "only {optimal} of 40 instances were solvable"
        );
    }

    #[test]
    fn caps_as_rows_pays_one_row_per_cap() {
        let mut m = LpModel::minimize(10);
        for i in 0..10 {
            m.set_objective(i, 1.0);
            m.set_upper_bound(i, 5.0);
        }
        m.add_ge(vec![(0, 1.0), (5, 1.0)], 3.0);
        let dense = solve(&m.caps_as_rows()).unwrap().stats;
        let native = solve(&m).unwrap().stats;
        // 1 + 10 rows against 1; each row brings a slack, the `≥` row an
        // artificial on top.
        assert_eq!((dense.rows, dense.cols), (11, 22));
        assert_eq!((native.rows, native.cols), (1, 12));
        assert!(dense.total_iters() >= 1 && native.total_iters() >= 1);
    }

    #[test]
    fn pure_bland_terminates_on_beales_cycling_example() {
        // Cycles under pure Dantzig without an anti-cycling rule.
        let m = lp(
            Sense::Minimize,
            &[-0.75, 150.0, -0.02, 6.0],
            &[],
            &[
                (&[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], Cmp::Le, 0.0),
                (&[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], Cmp::Le, 0.0),
                (&[(2, 1.0)], Cmp::Le, 1.0),
            ],
        );
        let s = solve_with(&mut Solo, &m, 0).unwrap();
        assert_close(s.objective, -0.05, "Beale");
        let (outs, _) = Machine::new(3, CostModel::cm5()).run(|ctx| solve_with(ctx, &m, 0));
        assert!(outs.iter().all(|o| o.as_ref() == Ok(&s)));
    }

    #[test]
    fn more_ranks_cut_the_charged_work_per_rank() {
        let m = sample_lp();
        let run = |w: usize| {
            Machine::new(w, CostModel::compute_only())
                .run(|ctx| solve_on(ctx, &m).unwrap().objective)
                .1
                .makespan
        };
        let (t1, t4) = (run(1), run(4));
        assert!(t4 < t1, "t1={t1} t4={t4}");
    }
}
