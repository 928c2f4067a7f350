//! Run reports: phase timings, work accounting and quality metrics.

use crate::assign::AssignReport;
use crate::balance::BalanceOutcome;
use crate::refine::RefineOutcome;
use igp_graph::metrics::CutMetrics;
use std::time::Duration;

/// Wall-clock time per phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Phase 1 (assignment).
    pub assign: Duration,
    /// Phases 2+3 (layering + LP balancing, possibly multi-stage).
    pub balance: Duration,
    /// Phase 4 (LP refinement), zero if not run.
    pub refine: Duration,
}

impl PhaseTimings {
    /// Total across phases.
    pub fn total(&self) -> Duration {
        self.assign + self.balance + self.refine
    }
}

/// Full report of one incremental repartitioning.
#[derive(Clone, Debug)]
pub struct IgpReport {
    /// Phase-1 statistics.
    pub assign: AssignReport,
    /// Phase-2/3 statistics (stages, LP sizes, movement).
    pub balance: BalanceOutcome,
    /// Phase-4 statistics (present for IGPR).
    pub refine: Option<RefineOutcome>,
    /// Wall-clock timings.
    pub timings: PhaseTimings,
    /// Cut metrics of the final partitioning.
    pub metrics: CutMetrics,
}

impl IgpReport {
    /// Number of balancing stages used (paper Figure 14 reports 1–3).
    pub fn num_stages(&self) -> usize {
        self.balance.stages.len()
    }

    /// Total modeled work units across phases.
    pub fn total_work(&self) -> u64 {
        self.assign.work + self.balance.work + self.refine.as_ref().map_or(0, |r| r.work)
    }

    /// Fraction of modeled work spent inside LP solves — the paper's
    /// observation "most of the time spent by our algorithm is in the
    /// solution of the linear programming".
    pub fn lp_work_share(&self) -> f64 {
        let lp: u64 = self
            .balance
            .stages
            .iter()
            .map(|s| s.lp.work)
            .chain(
                self.refine
                    .iter()
                    .flat_map(|r| r.iters.iter().map(|i| i.lp.work)),
            )
            .sum();
        let total = self.total_work();
        if total == 0 {
            0.0
        } else {
            lp as f64 / total as f64
        }
    }

    /// Largest LP solved, as `(vars, constraints)` — the paper's E7 datum.
    pub fn max_lp_size(&self) -> (usize, usize) {
        let mut best = (0usize, 0usize);
        for s in &self.balance.stages {
            if s.lp.vars * s.lp.constraints > best.0 * best.1 {
                best = (s.lp.vars, s.lp.constraints);
            }
        }
        if let Some(r) = &self.refine {
            for i in &r.iters {
                if i.lp.vars * i.lp.constraints > best.0 * best.1 {
                    best = (i.lp.vars, i.lp.constraints);
                }
            }
        }
        best
    }

    /// Total vertices moved across balancing and refinement.
    pub fn total_moved(&self) -> u64 {
        self.balance.total_moved + self.refine.as_ref().map_or(0, |r| r.total_moved)
    }
}

impl std::fmt::Display for IgpReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "IGP report: {} new vertices assigned (max dist {}), {} stage(s), {} moved",
            self.assign.new_vertices,
            self.assign.max_dist,
            self.num_stages(),
            self.total_moved(),
        )?;
        for (k, s) in self.balance.stages.iter().enumerate() {
            writeln!(
                f,
                "  stage {k}: delta={} moved={} lp {}v x {}c ({} pivots)",
                s.delta, s.moved, s.lp.vars, s.lp.constraints, s.lp.pivots
            )?;
        }
        if let Some(r) = &self.refine {
            for (k, i) in r.iters.iter().enumerate() {
                writeln!(
                    f,
                    "  refine {k}: cut {} -> {} (moved {})",
                    i.cut_before, i.cut_after, i.moved
                )?;
            }
        }
        write!(
            f,
            "  cut total/max/min = {}/{}/{}  balanced={} lp-share={:.0}%",
            self.metrics.total_cut_edges,
            self.metrics.max_boundary,
            self.metrics.min_boundary,
            self.balance.balanced,
            100.0 * self.lp_work_share()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::{LpAccounting, StageReport};

    fn dummy_report() -> IgpReport {
        IgpReport {
            assign: AssignReport {
                new_vertices: 5,
                clustered: 0,
                max_dist: 2,
                work: 100,
            },
            balance: BalanceOutcome {
                stages: vec![StageReport {
                    delta: 1,
                    moved: 7,
                    lp: LpAccounting {
                        vars: 10,
                        constraints: 14,
                        pivots: 6,
                        work: 840,
                    },
                    layer_work: 50,
                }],
                balanced: true,
                total_moved: 7,
                work: 940,
            },
            refine: None,
            timings: PhaseTimings::default(),
            metrics: CutMetrics {
                total_cut_edges: 12,
                total_cut_weight: 12,
                max_boundary: 5,
                min_boundary: 2,
                count_imbalance: 1.0,
                max_count: 10,
                min_count: 10,
                per_part: vec![],
            },
        }
    }

    #[test]
    fn aggregates() {
        let r = dummy_report();
        assert_eq!(r.num_stages(), 1);
        assert_eq!(r.total_work(), 100 + 940);
        assert_eq!(r.max_lp_size(), (10, 14));
        assert_eq!(r.total_moved(), 7);
        assert!((r.lp_work_share() - 840.0 / 1040.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_key_facts() {
        let s = format!("{}", dummy_report());
        assert!(s.contains("5 new vertices"));
        assert!(s.contains("delta=1"));
        assert!(s.contains("12/5/2"));
    }
}
