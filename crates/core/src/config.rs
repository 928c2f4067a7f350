//! Configuration for the incremental partitioner.

use igp_runtime::Backend;

/// How the load-balancing LP treats the `l_ij ≤ λ_ij` movement caps
/// (paper §2.3: "One approach is to relax the constraint in (11) and not
/// have `l_ij ≤ λ_ij` as a constraint").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapPolicy {
    /// Keep the caps; fall back to δ-staged balancing when infeasible
    /// (the paper's multi-stage scheme). Movement stays near boundaries.
    Strict,
    /// Drop the caps. Always feasible in one stage but "may lead to major
    /// modifications in the mapping".
    Relaxed,
}

/// Which engine solves the two LPs — the dense simplex the paper used, or
/// one of the structured alternatives the paper's footnote anticipates
/// (ablations E8/E9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalanceSolver {
    /// The simplex kernel on the LP with its caps restated as rows
    /// ([`igp_lp::LpModel::caps_as_rows`]) — the paper's solver, tableau
    /// sizes and pivot counts. The engine of [`IgpConfig::paper`].
    DenseSimplex,
    /// The same kernel on the LP as given, caps handled as native
    /// variable bounds: ~7× smaller tableau at P = 32 (the paper's "can
    /// be substantially reduced"). The engine of [`IgpConfig::new`].
    BoundedSimplex,
    /// Min-cost-flow / max-circulation network solvers.
    NetworkFlow,
}

/// Refinement-phase (IGPR) parameters.
#[derive(Clone, Copy, Debug)]
pub struct RefineConfig {
    /// Maximum refinement LP rounds ("applied iteratively until the
    /// effective gain ... is small").
    pub max_iters: usize,
    /// Stop when a round improves the cut by less than this much: the
    /// summed gain of its moves, in edge weight (edges on unit weights).
    pub min_gain: u64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            max_iters: 8,
            min_gain: 1,
        }
    }
}

/// Full configuration of the incremental graph partitioner.
#[derive(Clone, Debug)]
pub struct IgpConfig {
    /// Number of partitions `P`.
    pub num_parts: usize,
    /// Cap policy for the balance LP.
    pub cap_policy: CapPolicy,
    /// Upper bound on balancing stages (the paper's constant `C`).
    pub max_stages: usize,
    /// Largest δ tried when scaling the balance RHS.
    pub max_delta: u32,
    /// Refinement parameters (used by IGPR).
    pub refine: RefineConfig,
    /// LP engine for both the balance and the refinement LP:
    /// [`BalanceSolver::BoundedSimplex`] under [`IgpConfig::new`],
    /// [`BalanceSolver::DenseSimplex`] under [`IgpConfig::paper`].
    pub solver: BalanceSolver,
    /// Execution substrate for the parallel driver
    /// ([`crate::ParallelPartitioner`]): the simulated CM-5 machine or
    /// the shared-memory backend. Ignored by the sequential driver.
    pub backend: Backend,
}

impl IgpConfig {
    /// Defaults for `P` partitions: both LPs on the bounded simplex.
    pub fn new(num_parts: usize) -> Self {
        assert!(num_parts >= 1);
        IgpConfig {
            num_parts,
            cap_policy: CapPolicy::Strict,
            max_stages: 8,
            max_delta: 16,
            refine: RefineConfig::default(),
            solver: BalanceSolver::BoundedSimplex,
            backend: Backend::SimCm5,
        }
    }

    /// The paper's configuration for `P` partitions: [`IgpConfig::new`]
    /// on the dense simplex, so the figure reproductions keep the paper's
    /// tableau sizes and pivot counts.
    pub fn paper(num_parts: usize) -> Self {
        IgpConfig {
            solver: BalanceSolver::DenseSimplex,
            ..Self::new(num_parts)
        }
    }

    /// Builder-style substrate selection for the parallel driver.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_sane() {
        let c = IgpConfig::new(32);
        assert_eq!(c.num_parts, 32);
        assert_eq!(c.cap_policy, CapPolicy::Strict);
        assert!(c.max_stages >= 1);
        assert!(c.refine.max_iters >= 1);
        assert_eq!(c.backend, Backend::SimCm5);
        assert_eq!(c.solver, BalanceSolver::BoundedSimplex);
    }

    #[test]
    fn paper_differs_from_new_only_in_solver() {
        let paper = IgpConfig::paper(32);
        assert_eq!(paper.solver, BalanceSolver::DenseSimplex);
        let new = IgpConfig {
            solver: paper.solver,
            ..IgpConfig::new(32)
        };
        assert_eq!(format!("{paper:?}"), format!("{new:?}"));
    }

    #[test]
    fn backend_builder() {
        let c = IgpConfig::new(4).with_backend(Backend::SharedMem);
        assert_eq!(c.backend, Backend::SharedMem);
        assert_eq!(c.num_parts, 4);
    }

    #[test]
    #[should_panic]
    fn zero_parts_rejected() {
        IgpConfig::new(0);
    }
}
