//! The sequential Incremental Graph Partitioner driver (IGP / IGPR).

use crate::assign::{assign_new_vertices, AssignReport};
use crate::balance::{balance_from, BalanceOutcome};
use crate::config::IgpConfig;
use crate::layer::{layer_partitions, LayerCarry, Layering};
use crate::refine::{refine, RefineOutcome};
use crate::report::{IgpReport, PhaseTimings};
use igp_graph::metrics::CutMetrics;
use igp_graph::{IncrementalGraph, PartId, Partitioning};
use std::time::Instant;

/// The paper's incremental partitioner.
///
/// * `IGP` — phases 1–3 (assignment, layering, LP load balancing);
/// * `IGPR` — IGP plus the phase-4 LP refinement.
///
/// ```
/// use igp_core::{IgpConfig, IncrementalPartitioner};
/// use igp_graph::{generators, GraphDelta, Partitioning};
///
/// let g = generators::grid(8, 8);
/// let old = Partitioning::from_assignment(
///     &g, 2, (0..64).map(|v| if v % 8 < 4 { 0 } else { 1 }).collect());
/// let delta = generators::localized_growth_delta(&g, 0, 10, 42);
/// let inc = delta.apply(&g);
///
/// let igp = IncrementalPartitioner::igpr(IgpConfig::new(2));
/// let (new_part, report) = igp.repartition(&inc, &old);
/// assert!(report.balance.balanced);
/// assert_eq!(new_part.num_vertices(), 74);
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalPartitioner {
    cfg: IgpConfig,
    with_refinement: bool,
}

impl IncrementalPartitioner {
    /// IGP: no refinement phase.
    pub fn igp(cfg: IgpConfig) -> Self {
        IncrementalPartitioner {
            cfg,
            with_refinement: false,
        }
    }

    /// IGPR: with the LP refinement phase.
    pub fn igpr(cfg: IgpConfig) -> Self {
        IncrementalPartitioner {
            cfg,
            with_refinement: true,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &IgpConfig {
        &self.cfg
    }

    /// Whether refinement runs.
    pub fn refines(&self) -> bool {
        self.with_refinement
    }

    /// Repartition the incremental graph, starting from `old_part` (a
    /// partitioning of `inc.old()`). Returns the new partitioning of
    /// `inc.new_graph()` plus a full report.
    pub fn repartition(
        &self,
        inc: &IncrementalGraph,
        old_part: &Partitioning,
    ) -> (Partitioning, IgpReport) {
        let g = inc.new_graph();
        let (part, phases, _) = self.run(inc, old_part, |assign| {
            layer_partitions(g, assign, self.cfg.num_parts)
        });
        let metrics = CutMetrics::compute(g, &part);
        let report = IgpReport {
            assign: phases.assign,
            balance: phases.balance,
            refine: phases.refine,
            timings: phases.timings,
            metrics,
        };
        (part, report)
    }

    /// The four phases of [`IncrementalPartitioner::repartition`], without
    /// the closing cut recount: the first balancing stage layers with
    /// `first_layer` (which must equal [`layer_partitions`] of the
    /// assignment it is given), and that layering comes back with its
    /// assignment when a stage ran.
    pub(crate) fn run(
        &self,
        inc: &IncrementalGraph,
        old_part: &Partitioning,
        first_layer: impl FnOnce(&[PartId]) -> Layering,
    ) -> (Partitioning, Phases, Option<LayerCarry>) {
        assert_eq!(
            old_part.num_vertices(),
            inc.old().num_vertices(),
            "old partitioning does not match the old graph"
        );
        assert_eq!(
            old_part.num_parts(),
            self.cfg.num_parts,
            "partition count mismatch"
        );
        let g = inc.new_graph();
        let mut timings = PhaseTimings::default();

        let t = Instant::now();
        let (assign_vec, assign) = assign_new_vertices(inc, old_part);
        let mut part = Partitioning::from_assignment(g, self.cfg.num_parts, assign_vec);
        timings.assign = t.elapsed();

        let t = Instant::now();
        let (balance, carry) = balance_from(g, &mut part, &self.cfg, first_layer);
        timings.balance = t.elapsed();

        let refine = if self.with_refinement {
            let t = Instant::now();
            let r = refine(g, &mut part, &self.cfg);
            timings.refine = t.elapsed();
            Some(r)
        } else {
            None
        };
        let phases = Phases {
            assign,
            balance,
            refine,
            timings,
        };
        (part, phases, carry)
    }
}

/// What the four phases report: an [`IgpReport`] short of its cut metrics.
pub(crate) struct Phases {
    pub assign: AssignReport,
    pub balance: BalanceOutcome,
    pub refine: Option<RefineOutcome>,
    pub timings: PhaseTimings,
}

impl Phases {
    /// Vertices moved by balancing and refinement.
    pub fn total_moved(&self) -> u64 {
        self.balance.total_moved + self.refine.as_ref().map_or(0, |r| r.total_moved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igp_graph::{generators, CsrGraph, GraphDelta, PartId};

    /// 8×8 grid in 4 vertical bands + a localized growth delta.
    fn grid_scenario(k: usize) -> (CsrGraph, Partitioning, IncrementalGraph) {
        let g = generators::grid(8, 8);
        let assign: Vec<PartId> = (0..64).map(|v| ((v % 8) / 2) as PartId).collect();
        let old = Partitioning::from_assignment(&g, 4, assign);
        let delta = generators::localized_growth_delta(&g, 7, k, 123);
        let inc = delta.apply(&g);
        (g, old, inc)
    }

    #[test]
    fn igp_balances_after_growth() {
        let (_, old, inc) = grid_scenario(20);
        let igp = IncrementalPartitioner::igp(IgpConfig::new(4));
        let (part, report) = igp.repartition(&inc, &old);
        assert!(report.balance.balanced, "{report}");
        assert_eq!(part.num_vertices(), 84);
        assert_eq!(part.counts(), &[21, 21, 21, 21]);
        assert!(report.refine.is_none());
        part.validate(inc.new_graph()).unwrap();
    }

    #[test]
    fn igpr_never_worse_than_igp() {
        let (_, old, inc) = grid_scenario(24);
        let igp = IncrementalPartitioner::igp(IgpConfig::new(4));
        let igpr = IncrementalPartitioner::igpr(IgpConfig::new(4));
        let (_, rep_plain) = igp.repartition(&inc, &old);
        let (part_r, rep_refined) = igpr.repartition(&inc, &old);
        assert!(rep_refined.metrics.total_cut_edges <= rep_plain.metrics.total_cut_edges);
        // Refinement preserves balance (88 vertices / 4 parts).
        assert_eq!(part_r.counts(), &[22, 22, 22, 22]);
    }

    #[test]
    fn deformation_is_local() {
        // Only a bounded number of *old* vertices may change partition:
        // the growth is 20 vertices, so at most ~20 surviving vertices
        // (plus slack for multi-hop flow) should move.
        let (_, old, inc) = grid_scenario(20);
        let igp = IncrementalPartitioner::igp(IgpConfig::new(4));
        let (part, _) = igp.repartition(&inc, &old);
        let moved_old = inc
            .old()
            .vertices()
            .filter(|&v| {
                let nv = inc.new_of_old(v);
                nv != igp_graph::INVALID_NODE && part.part_of(nv) != old.part_of(v)
            })
            .count();
        assert!(
            moved_old <= 40,
            "deformation too large: {moved_old} old vertices moved"
        );
    }

    #[test]
    fn empty_delta_is_identity_when_balanced() {
        let g = generators::grid(8, 8);
        let assign: Vec<PartId> = (0..64).map(|v| ((v % 8) / 2) as PartId).collect();
        let old = Partitioning::from_assignment(&g, 4, assign);
        let inc = GraphDelta::default().apply(&g);
        let igp = IncrementalPartitioner::igp(IgpConfig::new(4));
        let (part, report) = igp.repartition(&inc, &old);
        assert_eq!(part.assignment(), old.assignment());
        assert_eq!(report.total_moved(), 0);
    }

    #[test]
    fn determinism() {
        let (_, old, inc) = grid_scenario(16);
        let igp = IncrementalPartitioner::igpr(IgpConfig::new(4));
        let (a, _) = igp.repartition(&inc, &old);
        let (b, _) = igp.repartition(&inc, &old);
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn vertex_deletions_supported() {
        let g = generators::grid(6, 6);
        let assign: Vec<PartId> = (0..36).map(|v| if v % 6 < 3 { 0 } else { 1 }).collect();
        let old = Partitioning::from_assignment(&g, 2, assign);
        // Delete a handful of vertices from partition 1's side and add a
        // couple on partition 0's side.
        let delta = GraphDelta {
            remove_vertices: vec![5, 11, 17],
            add_vertices: vec![1, 1],
            add_edges: vec![(0, 36, 1), (36, 37, 1)],
            remove_edges: vec![],
        };
        let inc = delta.apply(&g);
        let igp = IncrementalPartitioner::igp(IgpConfig::new(2));
        let (part, report) = igp.repartition(&inc, &old);
        assert!(report.balance.balanced);
        let n = inc.new_graph().num_vertices() as u32;
        assert_eq!(part.counts().iter().sum::<u32>(), n);
        let diff = part.count(0).abs_diff(part.count(1));
        assert!(diff <= 1, "{:?}", part.counts());
    }

    #[test]
    #[should_panic(expected = "partition count mismatch")]
    fn config_mismatch_caught() {
        let (_, old, inc) = grid_scenario(4);
        let igp = IncrementalPartitioner::igp(IgpConfig::new(8));
        let _ = igp.repartition(&inc, &old);
    }

    #[test]
    fn report_lp_accounting_present() {
        let (_, old, inc) = grid_scenario(20);
        let igp = IncrementalPartitioner::igpr(IgpConfig::new(4));
        let (_, report) = igp.repartition(&inc, &old);
        let (v, c) = report.max_lp_size();
        assert!(v > 0 && c > 0);
        assert!(report.lp_work_share() > 0.0);
        assert!(report.total_work() > 0);
    }
}
