//! LP model builder.
//!
//! Variables are non-negative reals `x_i ≥ 0`, optionally with an upper
//! bound `x_i ≤ u_i` (the paper's `l_ij ≤ λ_ij` caps). Constraints are
//! sparse rows compared against a right-hand side with `≤`, `=` or `≥`.

/// Optimization direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective (paper's load-balance step, eq. 10).
    Minimize,
    /// Maximize the objective (paper's refinement step, eq. 14).
    Maximize,
}

/// Constraint comparison operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ = b`
    Eq,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
}

/// One sparse constraint row.
#[derive(Clone, Debug, PartialEq)]
pub struct Constraint {
    /// `(variable index, coefficient)` — indices must be strictly
    /// increasing (enforced by [`LpModel`]'s adders).
    pub coeffs: Vec<(usize, f64)>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: f64,
}

/// A linear program over non-negative variables.
#[derive(Clone, Debug)]
pub struct LpModel {
    num_vars: usize,
    sense: Sense,
    objective: Vec<f64>,
    upper: Vec<Option<f64>>,
    constraints: Vec<Constraint>,
}

impl LpModel {
    /// A minimization model with `num_vars` variables (objective all-zero).
    pub fn minimize(num_vars: usize) -> Self {
        Self::new(num_vars, Sense::Minimize)
    }

    /// A maximization model with `num_vars` variables.
    pub fn maximize(num_vars: usize) -> Self {
        Self::new(num_vars, Sense::Maximize)
    }

    fn new(num_vars: usize, sense: Sense) -> Self {
        LpModel {
            num_vars,
            sense,
            objective: vec![0.0; num_vars],
            upper: vec![None; num_vars],
            constraints: Vec::new(),
        }
    }

    /// Number of structural variables.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Optimization sense.
    #[inline]
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Objective coefficients.
    #[inline]
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// Constraint rows (upper bounds not included — see
    /// [`LpModel::upper_bounds`]).
    #[inline]
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Per-variable upper bounds (`None` = unbounded above).
    #[inline]
    pub fn upper_bounds(&self) -> &[Option<f64>] {
        &self.upper
    }

    /// Number of constraint rows including materialized upper bounds —
    /// the paper's `c`.
    pub fn num_rows_expanded(&self) -> usize {
        self.constraints.len() + self.upper.iter().filter(|u| u.is_some()).count()
    }

    /// The same LP with every upper bound `x_i ≤ u_i` restated as a
    /// constraint row (appended after the functional rows, in variable
    /// order) and no bounds left — the paper's own formulation, in which
    /// the eq. 11 / eq. 15 caps are rows of the dense tableau. Solving
    /// this reproduces the paper's tableau sizes and pivot counts;
    /// solving `self` handles the caps as native bounds.
    pub fn caps_as_rows(&self) -> LpModel {
        let mut m = self.clone();
        for (i, ub) in m.upper.iter_mut().enumerate() {
            if let Some(u) = ub.take() {
                m.constraints.push(Constraint {
                    coeffs: vec![(i, 1.0)],
                    cmp: Cmp::Le,
                    rhs: u,
                });
            }
        }
        m
    }

    /// Set the objective coefficient of variable `i`.
    pub fn set_objective(&mut self, i: usize, c: f64) {
        self.objective[i] = c;
    }

    /// Set `x_i ≤ u` (`u ≥ 0`; `u = 0` fixes the variable at zero).
    pub fn set_upper_bound(&mut self, i: usize, u: f64) {
        assert!(
            u >= 0.0,
            "upper bound must be non-negative (variables are ≥ 0)"
        );
        self.upper[i] = Some(u);
    }

    fn add(&mut self, mut coeffs: Vec<(usize, f64)>, cmp: Cmp, rhs: f64) {
        coeffs.retain(|&(_, a)| a != 0.0);
        coeffs.sort_unstable_by_key(|&(i, _)| i);
        for w in coeffs.windows(2) {
            assert!(
                w[0].0 != w[1].0,
                "duplicate variable {} in constraint",
                w[0].0
            );
        }
        if let Some(&(i, _)) = coeffs.last() {
            assert!(i < self.num_vars, "variable {i} out of range");
        }
        self.constraints.push(Constraint { coeffs, cmp, rhs });
    }

    /// Add `Σ aᵢxᵢ ≤ rhs`.
    pub fn add_le(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) {
        self.add(coeffs, Cmp::Le, rhs);
    }

    /// Add `Σ aᵢxᵢ = rhs`.
    pub fn add_eq(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) {
        self.add(coeffs, Cmp::Eq, rhs);
    }

    /// Add `Σ aᵢxᵢ ≥ rhs`.
    pub fn add_ge(&mut self, coeffs: Vec<(usize, f64)>, rhs: f64) {
        self.add(coeffs, Cmp::Ge, rhs);
    }

    /// Evaluate the objective at `x`.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Check primal feasibility of `x` within tolerance `eps`.
    /// Returns the first violation description, if any.
    pub fn check_feasible(&self, x: &[f64], eps: f64) -> Result<(), String> {
        if x.len() != self.num_vars {
            return Err(format!("solution length {} != {}", x.len(), self.num_vars));
        }
        for (i, &v) in x.iter().enumerate() {
            if v < -eps {
                return Err(format!("x[{i}] = {v} negative"));
            }
            if let Some(u) = self.upper[i] {
                if v > u + eps {
                    return Err(format!("x[{i}] = {v} exceeds upper bound {u}"));
                }
            }
        }
        for (r, c) in self.constraints.iter().enumerate() {
            let lhs: f64 = c.coeffs.iter().map(|&(i, a)| a * x[i]).sum();
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + eps,
                Cmp::Eq => (lhs - c.rhs).abs() <= eps,
                Cmp::Ge => lhs >= c.rhs - eps,
            };
            if !ok {
                return Err(format!(
                    "constraint {r}: lhs {lhs} {:?} rhs {} violated",
                    c.cmp, c.rhs
                ));
            }
        }
        Ok(())
    }
}

/// The paper's load-balancing LP (eq. 10–12): minimize total movement
/// `Σ l_k` over the directed partition pairs `arcs`, with `l_k ≤ caps[k]`
/// when capped, subject to `out(q) − in(q) = surplus[q]` at every
/// partition `q`.
pub fn movement_lp(
    num_parts: usize,
    arcs: &[(usize, usize)],
    caps: Option<&[u64]>,
    surplus: &[i64],
) -> LpModel {
    net_flow_lp(Sense::Minimize, num_parts, arcs, caps, Some(surplus))
}

/// The paper's refinement LP (eq. 14–16): maximize total movement
/// `Σ l_k` with `l_k ≤ caps[k]`, subject to zero net flow at every
/// partition an arc touches.
pub fn circulation_lp(num_parts: usize, arcs: &[(usize, usize)], caps: &[u64]) -> LpModel {
    net_flow_lp(Sense::Maximize, num_parts, arcs, Some(caps), None)
}

/// Unit objective, optional caps, and one net-outflow equality per
/// partition (`+1` on outgoing arcs, `−1` on incoming): against
/// `surplus` when given, else against 0 with untouched partitions
/// skipped.
fn net_flow_lp(
    sense: Sense,
    num_parts: usize,
    arcs: &[(usize, usize)],
    caps: Option<&[u64]>,
    surplus: Option<&[i64]>,
) -> LpModel {
    let mut m = LpModel::new(arcs.len(), sense);
    m.objective.fill(1.0);
    for (k, &c) in caps.into_iter().flatten().enumerate() {
        m.set_upper_bound(k, c as f64);
    }
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); num_parts];
    for (k, &(i, j)) in arcs.iter().enumerate() {
        rows[i].push((k, 1.0));
        if j != i {
            rows[j].push((k, -1.0));
        }
    }
    for (q, row) in rows.into_iter().enumerate() {
        match surplus {
            Some(s) => m.add_eq(row, s[q] as f64),
            None if !row.is_empty() => m.add_eq(row, 0.0),
            None => {}
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_as_rows_appends_bounds_in_variable_order() {
        let mut m = LpModel::maximize(3);
        m.set_upper_bound(2, 4.0);
        m.set_upper_bound(0, 1.0);
        m.add_ge(vec![(1, 1.0)], 2.0);
        let d = m.caps_as_rows();
        assert!(d.upper_bounds().iter().all(Option::is_none));
        assert_eq!(d.constraints()[0], m.constraints()[0]);
        let caps: Vec<_> = d.constraints()[1..]
            .iter()
            .map(|c| (c.coeffs.clone(), c.cmp, c.rhs))
            .collect();
        assert_eq!(
            caps,
            vec![
                (vec![(0, 1.0)], Cmp::Le, 1.0),
                (vec![(2, 1.0)], Cmp::Le, 4.0)
            ]
        );
        assert_eq!(d.constraints().len(), m.num_rows_expanded());
    }

    #[test]
    fn paper_lp_builders_state_net_outflow_per_partition() {
        let arcs = [(0, 1), (1, 0), (1, 2)];
        let mv = movement_lp(4, &arcs, None, &[2, -1, -1, 0]);
        assert_eq!(mv.sense(), Sense::Minimize);
        assert_eq!(mv.objective(), &[1.0, 1.0, 1.0]);
        assert!(mv.upper_bounds().iter().all(Option::is_none));
        let rows: Vec<_> = mv
            .constraints()
            .iter()
            .map(|c| (c.coeffs.clone(), c.rhs))
            .collect();
        assert_eq!(
            rows,
            vec![
                (vec![(0, 1.0), (1, -1.0)], 2.0),
                (vec![(0, -1.0), (1, 1.0), (2, 1.0)], -1.0),
                (vec![(2, -1.0)], -1.0),
                (vec![], 0.0), // the movement LP keeps untouched partitions
            ]
        );
        let circ = circulation_lp(4, &arcs, &[5, 6, 7]);
        assert_eq!(circ.sense(), Sense::Maximize);
        assert_eq!(circ.upper_bounds(), &[Some(5.0), Some(6.0), Some(7.0)]);
        assert_eq!(circ.constraints().len(), 3); // partition 3 skipped
        assert!(circ
            .constraints()
            .iter()
            .all(|c| c.cmp == Cmp::Eq && c.rhs == 0.0));
    }

    #[test]
    fn builder_basics() {
        let mut m = LpModel::maximize(3);
        m.set_objective(0, 1.0);
        m.set_objective(2, 2.0);
        m.set_upper_bound(1, 4.0);
        m.add_le(vec![(0, 1.0), (1, 1.0)], 5.0);
        m.add_eq(vec![(2, 1.0)], 2.0);
        assert_eq!(m.num_vars(), 3);
        assert_eq!(m.constraints().len(), 2);
        assert_eq!(m.num_rows_expanded(), 3);
        assert_eq!(m.objective_value(&[1.0, 0.0, 2.0]), 5.0);
    }

    #[test]
    fn feasibility_checker() {
        let mut m = LpModel::minimize(2);
        m.add_ge(vec![(0, 1.0), (1, 1.0)], 2.0);
        m.set_upper_bound(0, 1.0);
        assert!(m.check_feasible(&[1.0, 1.0], 1e-9).is_ok());
        assert!(m.check_feasible(&[2.0, 0.0], 1e-9).is_err()); // ub violated
        assert!(m.check_feasible(&[0.5, 0.5], 1e-9).is_err()); // ge violated
        assert!(m.check_feasible(&[-0.1, 2.2], 1e-9).is_err()); // negative
    }

    #[test]
    fn zero_coeffs_dropped_and_sorted() {
        let mut m = LpModel::minimize(3);
        m.add_le(vec![(2, 1.0), (0, 0.0), (1, -1.0)], 1.0);
        assert_eq!(m.constraints()[0].coeffs, vec![(1, -1.0), (2, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate variable")]
    fn duplicate_var_rejected() {
        let mut m = LpModel::minimize(2);
        m.add_le(vec![(0, 1.0), (0, 2.0)], 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_var_rejected() {
        let mut m = LpModel::minimize(2);
        m.add_le(vec![(5, 1.0)], 1.0);
    }
}
