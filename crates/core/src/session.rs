//! Long-running repartitioning sessions.
//!
//! The paper's use case is a solver loop: compute for a few iterations,
//! refine the mesh, repartition, repeat — "the remapping must have a
//! lower cost relative to the computational cost of executing the few
//! iterations for which the computational structure remains fixed."
//! [`IgpSession`] packages that loop: it owns the current graph and
//! partitioning, applies successive increments, tracks cumulative
//! statistics, and raises the paper's *from-scratch signal* when capped
//! balancing becomes infeasible.

use crate::config::IgpConfig;
use crate::layer::{layer_partitions, LayerCarry};
use crate::partitioner::IncrementalPartitioner;
use igp_graph::coalesce::{CoalesceError, DeltaCoalescer};
use igp_graph::{
    CsrGraph, GraphDelta, IncrementalGraph, NodeId, PartId, Partitioning, INVALID_NODE,
};

// The serving layer hands sessions across threads (one registry shard
// can be locked from any connection handler); keep the session and its
// driver `Send` by construction.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<IgpSession>();
    assert_send::<StepSummary>();
    assert_send::<IncrementalPartitioner>();
};

/// Summary of one session step.
#[derive(Clone, Debug)]
pub struct StepSummary {
    /// Step index (0-based).
    pub step: usize,
    /// Vertices after the step.
    pub num_vertices: usize,
    /// Cut edges after the step.
    pub cut: u64,
    /// Max/avg count imbalance after the step.
    pub imbalance: f64,
    /// Vertices moved by balancing + refinement.
    pub moved: u64,
    /// Balancing stages used.
    pub stages: usize,
    /// False if capped balancing gave up (the paper's "it would be better
    /// to start partitioning from scratch" condition).
    pub balanced: bool,
}

/// A stateful incremental-repartitioning session.
///
/// ```
/// use igp_core::{session::IgpSession, IgpConfig};
/// use igp_graph::{generators, Partitioning};
///
/// let g = generators::grid(10, 10);
/// let part = Partitioning::from_assignment(
///     &g, 2, (0..100).map(|v| if v % 10 < 5 { 0 } else { 1 }).collect());
/// let mut session = IgpSession::new(g.clone(), part, IgpConfig::new(2), true);
///
/// for step in 0..3 {
///     let delta = generators::localized_growth_delta(session.graph(), 0, 6, step);
///     let summary = session.apply_delta(&delta);
///     assert!(summary.balanced);
/// }
/// assert_eq!(session.graph().num_vertices(), 118);
/// assert_eq!(session.steps(), 3);
/// ```
pub struct IgpSession {
    graph: CsrGraph,
    part: Partitioning,
    partitioner: IncrementalPartitioner,
    /// Steps taken over the session's whole lifetime; a rehydrated
    /// session continues from its seed's count, so step indices in
    /// summaries carry across restarts.
    steps: usize,
    /// Vertices moved by all of those steps.
    total_moved: u64,
    /// The most recent step taken by *this process* (`None` until one
    /// runs: snapshots do not persist summaries).
    last: Option<StepSummary>,
    needs_scratch: bool,
    /// Deltas queued via [`IgpSession::queue_delta`], folded but not yet
    /// applied; `None` when nothing is pending.
    pending: Option<DeltaCoalescer>,
    /// Birth-graph id of each current vertex ([`INVALID_NODE`] for
    /// vertices added after the session started): the per-step
    /// [`IncrementalGraph`] identity maps composed over the whole
    /// session. Durability snapshots persist it, and the recovery
    /// property suite asserts it bit-identical across crash + replay.
    base_of_current: Vec<NodeId>,
    /// The first balancing stage's layering of the last step, with the
    /// assignment it was computed on: the next step re-layers only the
    /// partitions its delta and the moves since then touched. `None`
    /// (the next step sweeps every partition) after a step whose balance
    /// reached no LP, an [`IgpSession::apply_increment`], a
    /// [`IgpSession::reset_partitioning`] and a rehydrate.
    carry: Option<LayerCarry>,
}

/// Persisted session state consumed by [`IgpSession::rehydrate`]: what
/// a durability snapshot stores beyond the graph + partitioning pair.
#[derive(Clone, Debug)]
pub struct SessionSeed {
    /// The graph at snapshot time.
    pub graph: CsrGraph,
    /// The partitioning at snapshot time.
    pub part: Partitioning,
    /// Birth-graph id per current vertex (see
    /// [`IgpSession::base_of_current`]).
    pub base_of_current: Vec<NodeId>,
    /// Steps the session had taken when the snapshot was written.
    pub steps: usize,
    /// Total vertices moved by those steps.
    pub total_moved: u64,
    /// The from-scratch flag at snapshot time.
    pub needs_scratch: bool,
}

impl SessionSeed {
    /// The seed of a session that has not stepped yet.
    fn fresh(graph: CsrGraph, part: Partitioning) -> Self {
        let base_of_current = (0..graph.num_vertices() as NodeId).collect();
        SessionSeed {
            graph,
            part,
            base_of_current,
            steps: 0,
            total_moved: 0,
            needs_scratch: false,
        }
    }
}

impl IgpSession {
    /// Start a session from an initial graph and a partitioning built on
    /// it (typically by RSB). `refined` selects IGPR vs IGP.
    pub fn new(graph: CsrGraph, part: Partitioning, cfg: IgpConfig, refined: bool) -> Self {
        Self::rehydrate(SessionSeed::fresh(graph, part), cfg, refined)
    }

    /// Resume a session from persisted state (crash recovery): the
    /// graph, partitioning, composed identity map and counters come
    /// from a durability snapshot instead of a fresh start.
    ///
    /// The rehydrated session is observationally identical to the
    /// never-crashed one: step indices, [`IgpSession::steps`],
    /// [`IgpSession::total_moved`] and the from-scratch flag all
    /// continue where the snapshot left off, and subsequent
    /// repartitions are bit-identical because the driver is
    /// deterministic in (graph, partitioning, config). A fresh session
    /// ([`IgpSession::new`]) is a seed with zeroed counters and the
    /// identity map.
    pub fn rehydrate(seed: SessionSeed, cfg: IgpConfig, refined: bool) -> Self {
        assert_eq!(seed.graph.num_vertices(), seed.part.num_vertices());
        assert_eq!(seed.part.num_parts(), cfg.num_parts);
        assert_eq!(
            seed.base_of_current.len(),
            seed.graph.num_vertices(),
            "base_of_current length mismatch"
        );
        debug_assert_eq!(
            seed.part.validate(&seed.graph),
            Ok(()),
            "`part` was built on `graph`"
        );
        IgpSession {
            graph: seed.graph,
            part: seed.part,
            partitioner: if refined {
                IncrementalPartitioner::igpr(cfg)
            } else {
                IncrementalPartitioner::igp(cfg)
            },
            steps: seed.steps,
            total_moved: seed.total_moved,
            last: None,
            needs_scratch: seed.needs_scratch,
            pending: None,
            base_of_current: seed.base_of_current,
            carry: None,
        }
    }

    /// Snapshot the persistable session state (the inverse of
    /// [`IgpSession::rehydrate`]). Queued deltas are *not* part of the
    /// seed — the durability layer journals them separately and replays
    /// them through [`IgpSession::queue_delta`] after rehydration.
    pub fn seed(&self) -> SessionSeed {
        SessionSeed {
            graph: self.graph.clone(),
            part: self.part.clone(),
            base_of_current: self.base_of_current.clone(),
            steps: self.steps,
            total_moved: self.total_moved,
            needs_scratch: self.needs_scratch,
        }
    }

    /// The current graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The current partitioning.
    pub fn partitioning(&self) -> &Partitioning {
        &self.part
    }

    /// The most recent step taken by *this process* (a rehydrated session
    /// does not reconstruct pre-crash summaries; [`IgpSession::steps`]
    /// counts across restarts).
    pub fn last_step(&self) -> Option<&StepSummary> {
        self.last.as_ref()
    }

    /// Steps taken over the session's whole lifetime, including steps
    /// that predate a [`IgpSession::rehydrate`].
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Birth-graph id of each current vertex ([`INVALID_NODE`] for
    /// vertices added after the session started): the composition of
    /// every step's [`IncrementalGraph`] identity map.
    pub fn base_of_current(&self) -> &[NodeId] {
        &self.base_of_current
    }

    /// True once a step failed to balance under the configured caps — the
    /// paper's signal to repartition from scratch. Clear it by installing
    /// a fresh partitioning via [`IgpSession::reset_partitioning`].
    pub fn needs_scratch(&self) -> bool {
        self.needs_scratch
    }

    /// Apply an edit list to the current graph and repartition.
    ///
    /// The session's graph becomes the increment's old side and the
    /// increment's new side becomes the session's graph: neither is
    /// copied. Panics if deltas are queued, or (inside
    /// [`GraphDelta::apply_owned`]) if `delta` is malformed against the
    /// current graph; a session that panicked mid-step is not usable
    /// afterwards — validate first ([`IgpSession::queue_delta`] does).
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> StepSummary {
        self.assert_nothing_queued();
        let inc = delta.apply_owned(std::mem::replace(&mut self.graph, CsrGraph::empty()));
        self.step(inc, Some(delta))
    }

    /// Queue a delta without repartitioning yet.
    ///
    /// The delta addresses the *virtual* current graph — the session
    /// graph with every already-queued delta applied (so a stream of
    /// deltas can be queued exactly as it would be applied one by one).
    /// Queued deltas are folded incrementally by a
    /// [`DeltaCoalescer`]; [`IgpSession::flush`] pays a single apply +
    /// repartition for the whole batch. On error nothing is queued.
    /// Returns the number of deltas now pending.
    ///
    /// Fully validated at the boundary: structural errors *and*
    /// base-edge existence mismatches (removing an absent edge, adding
    /// a present one) come back as typed [`CoalesceError`]s — a queued
    /// delta can no longer panic later inside the flush.
    pub fn queue_delta(&mut self, delta: &GraphDelta) -> Result<usize, CoalesceError> {
        let co = self
            .pending
            .get_or_insert_with(|| DeltaCoalescer::new(self.graph.num_vertices()));
        match co.push_verified(delta, &self.graph) {
            Ok(()) => Ok(co.len()),
            Err(e) => {
                // Don't let a failed first push pin an empty coalescer
                // to today's graph size: direct applies may change the
                // graph before the next queue attempt, and a stale
                // `n_base` would then panic instead of erroring.
                if co.is_empty() {
                    self.pending = None;
                }
                Err(e)
            }
        }
    }

    /// Number of deltas queued and not yet flushed.
    pub fn pending_deltas(&self) -> usize {
        self.pending.as_ref().map_or(0, |c| c.len())
    }

    /// The pending coalescer, if any deltas are queued (repartition
    /// policies read its [`DeltaCoalescer::dirt`]).
    pub fn pending(&self) -> Option<&DeltaCoalescer> {
        self.pending.as_ref()
    }

    /// Apply every queued delta as **one** coalesced increment and
    /// repartition once.
    ///
    /// Returns `None` when nothing is pending or the queue cancelled out
    /// to a no-op (e.g. adds exactly undone by removes); in both cases
    /// the queue is cleared and no step is recorded.
    pub fn flush(&mut self) -> Option<StepSummary> {
        let co = self.pending.take()?;
        let net = co.net();
        if net.is_empty() {
            return None;
        }
        let m = crate::obs::metrics();
        m.coalesced_batch_deltas.observe(co.len() as u64);
        m.coalesced_delta_ops.observe(
            (net.add_vertices.len()
                + net.remove_vertices.len()
                + net.add_edges.len()
                + net.remove_edges.len()) as u64,
        );
        Some(self.apply_delta(&net))
    }

    /// Queue `deltas` (each addressing the graph produced by its
    /// predecessors) and flush them as one step. On error the already
    /// queued prefix stays pending and nothing is applied.
    pub fn apply_deltas(
        &mut self,
        deltas: &[GraphDelta],
    ) -> Result<Option<StepSummary>, CoalesceError> {
        for d in deltas {
            self.queue_delta(d)?;
        }
        Ok(self.flush())
    }

    /// Apply a pre-built incremental graph (its `old` side must equal the
    /// session's current graph) and repartition.
    ///
    /// Panics if deltas are queued (they address a virtual graph ahead
    /// of `inc.old()`): flush or drop the queue first.
    pub fn apply_increment(&mut self, inc: IncrementalGraph) -> StepSummary {
        self.assert_nothing_queued();
        assert!(
            inc.old() == &self.graph,
            "increment does not start from the session's current graph"
        );
        self.step(inc, None)
    }

    fn assert_nothing_queued(&self) {
        assert_eq!(
            self.pending_deltas(),
            0,
            "apply_increment with queued deltas pending; flush() first"
        );
    }

    /// Repartition `inc` (built from `delta`, when known) from the
    /// current partitioning and make its new side the session's state.
    /// Everything read here besides the repartition itself is O(1) or
    /// O(n): the cut before and after come from the partitionings'
    /// maintained counters, and the first layering re-sweeps only the
    /// partitions the carry cannot vouch for.
    fn step(&mut self, inc: IncrementalGraph, delta: Option<&GraphDelta>) -> StepSummary {
        let m = crate::obs::metrics();
        m.edge_cut_before.set(self.part.cut_edges() as i64);
        let carry = self.carry.take();
        let first_layer = |assign: &[PartId]| match (&carry, delta) {
            (Some(c), Some(d)) => c.relayer(&inc, d, assign),
            _ => layer_partitions(inc.new_graph(), assign, self.part.num_parts()),
        };
        let (new_part, phases, carry) = m
            .repartition_us
            .time(|| self.partitioner.run(&inc, &self.part, first_layer));
        m.repartitions_total.inc();
        let balance_lps = phases.balance.stages.iter().map(|s| &s.lp);
        let refine_lps = phases
            .refine
            .iter()
            .flat_map(|r| r.iters.iter().map(|i| &i.lp));
        m.pivots_total.add(
            balance_lps
                .chain(refine_lps)
                .map(|lp| lp.pivots as u64)
                .sum(),
        );
        let moved = phases.total_moved();
        m.moved_vertices_total.add(moved);
        let balanced = phases.balance.balanced;
        if !balanced {
            m.scratch_signals_total.inc();
        }
        let summary = StepSummary {
            step: self.steps,
            num_vertices: new_part.num_vertices(),
            cut: new_part.cut_edges(),
            imbalance: new_part.count_imbalance(),
            moved,
            stages: phases.balance.stages.len(),
            balanced,
        };
        m.edge_cut_after.set(summary.cut as i64);
        // Compose the step's identity map into the birth-relative map.
        self.base_of_current = (0..new_part.num_vertices() as NodeId)
            .map(|v| match inc.old_of_new(v) {
                INVALID_NODE => INVALID_NODE,
                old => self.base_of_current[old as usize],
            })
            .collect();
        self.graph = inc.into_new_graph();
        self.part = new_part;
        self.carry = carry;
        self.needs_scratch |= !summary.balanced;
        self.steps += 1;
        self.total_moved += moved;
        self.last = Some(summary.clone());
        summary
    }

    /// Replace the partitioning (e.g. after an out-of-band from-scratch
    /// RSB run); clears the from-scratch flag. Only `part`'s assignment
    /// is taken: the cut and boundary state is recounted over the
    /// session's own graph, whichever graph `part` was built on.
    pub fn reset_partitioning(&mut self, part: Partitioning) {
        assert_eq!(part.num_vertices(), self.graph.num_vertices());
        self.part = Partitioning::from_assignment(
            &self.graph,
            part.num_parts(),
            part.assignment().to_vec(),
        );
        self.needs_scratch = false;
        self.carry = None;
    }

    /// Total vertices moved across the whole session lifetime (the cost
    /// the paper trades against solver time), including pre-rehydrate
    /// steps.
    pub fn total_moved(&self) -> u64 {
        self.total_moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igp_graph::generators;
    use igp_graph::PartId;

    fn start() -> IgpSession {
        let g = generators::grid(8, 8);
        let assign: Vec<PartId> = (0..64).map(|v| ((v % 8) / 2) as PartId).collect();
        let part = Partitioning::from_assignment(&g, 4, assign);
        IgpSession::new(g, part, IgpConfig::new(4), true)
    }

    #[test]
    fn multi_step_session() {
        let mut s = start();
        for step in 0..4 {
            let delta = generators::localized_growth_delta(s.graph(), 0, 8, step);
            let sum = s.apply_delta(&delta);
            assert!(sum.balanced, "step {step}");
            assert!(sum.imbalance < 1.05);
        }
        assert_eq!(s.graph().num_vertices(), 64 + 32);
        assert_eq!(s.steps(), 4);
        assert!(s.total_moved() > 0);
        assert!(!s.needs_scratch());
        s.partitioning().validate(s.graph()).unwrap();
    }

    #[test]
    fn scratch_flag_on_infeasible() {
        // Disconnected islands: growth on one island cannot be balanced.
        let mut edges = Vec::new();
        for i in 0..6u32 {
            edges.push((i, (i + 1) % 6));
            edges.push((6 + i, 6 + (i + 1) % 6));
        }
        let g = igp_graph::CsrGraph::from_edges(12, &edges);
        let part = Partitioning::from_assignment(
            &g,
            2,
            (0..12).map(|v| if v < 6 { 0 } else { 1 }).collect(),
        );
        let mut s = IgpSession::new(g, part, IgpConfig::new(2), false);
        let delta = GraphDelta {
            add_vertices: vec![1; 4],
            add_edges: (0..4).map(|i| (0, 12 + i, 1)).collect(),
            ..Default::default()
        };
        let sum = s.apply_delta(&delta);
        assert!(!sum.balanced);
        assert!(s.needs_scratch());
        // Installing a fresh partitioning clears the flag.
        let fresh = Partitioning::round_robin(s.graph(), 2);
        s.reset_partitioning(fresh);
        assert!(!s.needs_scratch());
    }

    #[test]
    fn batched_flush_matches_sequential_graph_evolution() {
        let mut s = start();
        // Ground-truth graph evolution: apply the stream delta by delta.
        let mut expect = s.graph().clone();
        let mut deltas = Vec::new();
        for step in 0..4 {
            let d = generators::localized_growth_delta(&expect, 0, 6, step);
            expect = d.apply(&expect).new_graph().clone();
            deltas.push(d);
        }
        // Queue the same stream; nothing applies until flush.
        for d in &deltas {
            s.queue_delta(d).unwrap();
        }
        assert_eq!(s.pending_deltas(), 4);
        assert_eq!(s.graph().num_vertices(), 64);
        assert_eq!(s.steps(), 0);
        let sum = s.flush().expect("non-empty batch must step");
        assert_eq!(s.pending_deltas(), 0);
        assert_eq!(s.graph(), &expect);
        assert_eq!(s.steps(), 1);
        assert_eq!(sum.num_vertices, 64 + 24);
        s.partitioning().validate(s.graph()).unwrap();
        // Flushing an empty queue is a no-op.
        assert!(s.flush().is_none());
    }

    #[test]
    fn cancelling_batch_flushes_to_nothing() {
        let mut s = start();
        s.queue_delta(&GraphDelta {
            add_vertices: vec![1],
            add_edges: vec![(0, 64, 1)],
            ..Default::default()
        })
        .unwrap();
        s.queue_delta(&GraphDelta {
            remove_vertices: vec![64],
            ..Default::default()
        })
        .unwrap();
        assert_eq!(s.pending_deltas(), 2);
        assert!(s.flush().is_none(), "cancelled batch must not step");
        assert_eq!(s.steps(), 0);
        assert_eq!(s.graph().num_vertices(), 64);
    }

    #[test]
    fn apply_deltas_convenience_and_error_keeps_prefix() {
        let mut s = start();
        let d1 = generators::localized_growth_delta(s.graph(), 0, 4, 1);
        let bad = GraphDelta {
            remove_vertices: vec![9999],
            ..Default::default()
        };
        let err = s.apply_deltas(&[d1.clone(), bad]).unwrap_err();
        assert!(matches!(
            err,
            igp_graph::CoalesceError::Invalid { index: 1, .. }
        ));
        // The valid prefix is still queued; a later flush applies it.
        assert_eq!(s.pending_deltas(), 1);
        assert!(s.flush().is_some());
        assert_eq!(s.graph().num_vertices(), 68);
        // And the happy path steps once for the whole batch.
        let d2 = generators::localized_growth_delta(s.graph(), 0, 4, 2);
        let sum = s.apply_deltas(std::slice::from_ref(&d2)).unwrap().unwrap();
        assert!(sum.balanced);
        assert_eq!(s.steps(), 2);
    }

    /// Regression: a rejected queue_delta must not pin an empty
    /// coalescer to the pre-rejection graph size — after a direct
    /// apply_delta grows the graph, queueing must work again (it used
    /// to panic on the stale `n_base`).
    #[test]
    fn rejected_queue_does_not_pin_stale_coalescer() {
        let mut s = start();
        let bad = GraphDelta {
            remove_vertices: vec![9999],
            ..Default::default()
        };
        assert!(s.queue_delta(&bad).is_err());
        assert_eq!(s.pending_deltas(), 0);
        // Direct apply changes the graph size (64 → 68)…
        let d = generators::localized_growth_delta(s.graph(), 0, 4, 0);
        s.apply_delta(&d);
        // …and queueing against the new size still works.
        let d2 = generators::localized_growth_delta(s.graph(), 0, 4, 1);
        assert_eq!(s.queue_delta(&d2).unwrap(), 1);
        assert!(s.flush().is_some());
        assert_eq!(s.graph().num_vertices(), 72);
    }

    #[test]
    #[should_panic(expected = "queued deltas pending")]
    fn apply_increment_rejected_while_queue_pending() {
        let mut s = start();
        let d = generators::localized_growth_delta(s.graph(), 0, 4, 0);
        s.queue_delta(&d).unwrap();
        let inc = GraphDelta::default().apply(s.graph());
        s.apply_increment(inc);
    }

    #[test]
    #[should_panic(expected = "does not start from the session's current graph")]
    fn stale_increment_rejected() {
        let mut s = start();
        let other = generators::grid(5, 5);
        let inc = GraphDelta::default().apply(&other);
        s.apply_increment(inc);
    }

    /// Regression: an increment built on another graph of the same size
    /// was repartitioned against the session's cut and counts.
    #[test]
    #[should_panic(expected = "does not start from the session's current graph")]
    fn foreign_increment_of_same_size_rejected() {
        let mut s = start();
        let other = generators::cycle(64);
        assert_eq!(other.num_vertices(), s.graph().num_vertices());
        let inc = GraphDelta::default().apply(&other);
        s.apply_increment(inc);
    }

    /// The composed identity map tracks survivors across steps: growth
    /// keeps old ids, removals drop them, additions map to
    /// `INVALID_NODE`.
    #[test]
    fn base_of_current_composes_across_steps() {
        let mut s = start();
        // Identity at birth.
        assert_eq!(s.base_of_current()[..4], [0, 1, 2, 3]);
        let d = generators::localized_growth_delta(s.graph(), 0, 4, 0);
        s.apply_delta(&d);
        // Pure growth: survivors keep ids, additions are INVALID.
        for v in 0..64u32 {
            assert_eq!(s.base_of_current()[v as usize], v);
        }
        for v in 64..68 {
            assert_eq!(s.base_of_current()[v], igp_graph::INVALID_NODE);
        }
        // Remove a birth vertex: every later id shifts down by one and
        // still maps to its birth id.
        s.apply_delta(&GraphDelta {
            remove_vertices: vec![10],
            ..Default::default()
        });
        assert_eq!(s.base_of_current()[9], 9);
        assert_eq!(s.base_of_current()[10], 11);
        assert_eq!(s.graph().num_vertices(), 67);
    }

    /// Rehydrating from a seed is observationally identical to the
    /// uninterrupted session: same graph, partition, identity map, step
    /// indices and totals, before and after further steps.
    #[test]
    fn rehydrate_matches_uninterrupted_session() {
        let mut full = start();
        let mut deltas = Vec::new();
        let mut g = full.graph().clone();
        for step in 0..4 {
            let d = generators::localized_growth_delta(&g, 0, 6, step);
            g = d.apply(&g).new_graph().clone();
            deltas.push(d);
        }
        for d in &deltas[..2] {
            full.apply_delta(d);
        }
        // "Crash" here: persist the seed, rebuild, replay the tail.
        let seed = full.seed();
        assert_eq!(seed.steps, 2);
        let mut recovered = IgpSession::rehydrate(seed, IgpConfig::new(4), true);
        assert!(recovered.last_step().is_none());
        for d in &deltas[2..] {
            let a = full.apply_delta(d);
            let b = recovered.apply_delta(d);
            assert_eq!(a.step, b.step, "step indices must continue");
            assert_eq!(a.cut, b.cut);
            assert_eq!(a.moved, b.moved);
        }
        assert_eq!(recovered.graph(), full.graph());
        assert_eq!(
            recovered.partitioning().assignment(),
            full.partitioning().assignment()
        );
        assert_eq!(recovered.base_of_current(), full.base_of_current());
        assert_eq!(recovered.steps(), full.steps());
        assert_eq!(recovered.total_moved(), full.total_moved());
        assert_eq!(recovered.needs_scratch(), full.needs_scratch());
        // Summaries are not persisted, but indices align.
        assert_eq!(recovered.last_step().map(|s| s.step), Some(3));
    }
}
