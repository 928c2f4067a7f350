//! The SPMD-parallel incremental partitioner (paper §1: "All the steps
//! used by our method are inherently parallel").
//!
//! Runs the identical four-phase algorithm as
//! [`crate::IncrementalPartitioner`], but as a rank-per-worker SPMD
//! program over [`igp_runtime`]:
//!
//! * partitions are owned round-robin by ranks (`q mod W`);
//! * **phase 1** is a level-synchronous distributed BFS — each rank
//!   expands the frontier of its owned partitions and claims are merged
//!   deterministically each superstep;
//! * **phase 2** layers owned partitions locally and allgathers labels;
//! * **phase 3** solves its LPs collectively ([`solve_movement_on`]):
//!   `igp-lp`'s simplex kernel with columns strided across ranks — the
//!   paper's main parallelization claim;
//! * **phase 4** is [`crate::refine`]'s round run on the executor, so it
//!   returns the sequential partition at every rank count;
//! * every compute step charges work units and every exchange pays
//!   `α + β·words`, so a [`Backend::SimCm5`] run yields simulated CM-5
//!   phase timings.
//!
//! The driver is written against [`igp_runtime::Executor`], so the same
//! rank program runs on either substrate selected by
//! [`IgpConfig::backend`]:
//!
//! * [`Backend::SimCm5`] — message passing plus the charged cost model.
//!   Graph and replicated state live behind `&` references (threads on
//!   one host), but *charged* work follows the ownership split and all
//!   replication traffic goes through real messages, so the simulated
//!   clock reflects the distributed algorithm (DESIGN.md §4,
//!   substitution 1).
//! * [`Backend::SharedMem`] — the collectives are direct slot reductions
//!   and the phase loops run data-parallel over the per-rank ownership
//!   chunks; `PhaseSim`/`SimReport` then carry measured wall-clock
//!   seconds. Collective results are rank-order deterministic, so both
//!   backends produce **bit-identical** partitions and pivot counts
//!   (pinned by `tests/backend_equiv.rs`; DESIGN.md §6).

use crate::balance::{adjacency_pairs, integer_targets, scale_surplus, solve_movement_on};
use crate::config::{CapPolicy, IgpConfig};
use crate::layer::layer_owned;
use crate::refine::refine_on;
use igp_graph::{IncrementalGraph, NodeId, PartId, Partitioning, INVALID_NODE, NO_PART};
use igp_lp::LpError;
use igp_runtime::{Backend, CostModel, Executor, SimReport, SpmdJob};

/// Simulated seconds spent in each phase (makespan over ranks).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseSim {
    /// Phase 1 (assignment BFS).
    pub assign: f64,
    /// Phases 2+3 (layering + balance LPs, all stages).
    pub balance: f64,
    /// Phase 4 (refinement LPs).
    pub refine: f64,
}

/// Report from a parallel repartitioning run.
#[derive(Clone, Debug)]
pub struct ParallelRunReport {
    /// The substrate that executed the run.
    pub backend: Backend,
    /// Machine-level statistics (makespan = simulated `Time-p` on
    /// [`Backend::SimCm5`], measured seconds on [`Backend::SharedMem`]).
    pub sim: SimReport,
    /// Per-phase times (same unit convention as `sim`).
    pub phases: PhaseSim,
    /// Vertices moved by balancing + refinement.
    pub total_moved: u64,
    /// Balancing stages used.
    pub stages: usize,
    /// Whether balance targets were met.
    pub balanced: bool,
    /// Simplex pivots of every balance LP and of each refine round's LP —
    /// identical on every backend, and to the sequential driver where no
    /// drain tie-break diverges.
    pub total_pivots: u64,
}

/// SPMD-parallel IGP/IGPR driver.
#[derive(Clone, Debug)]
pub struct ParallelPartitioner {
    cfg: IgpConfig,
    with_refinement: bool,
    workers: usize,
    cost: CostModel,
}

impl ParallelPartitioner {
    /// Parallel IGP on `workers` ranks.
    pub fn igp(cfg: IgpConfig, workers: usize) -> Self {
        Self::new(cfg, workers, false, CostModel::cm5())
    }

    /// Parallel IGPR on `workers` ranks.
    pub fn igpr(cfg: IgpConfig, workers: usize) -> Self {
        Self::new(cfg, workers, true, CostModel::cm5())
    }

    /// Full constructor. The execution substrate comes from
    /// [`IgpConfig::backend`].
    pub fn new(cfg: IgpConfig, workers: usize, refine: bool, cost: CostModel) -> Self {
        assert!(
            workers >= 1,
            "ParallelPartitioner: workers must be >= 1 (got {workers})"
        );
        assert!(
            cfg.num_parts >= 1,
            "ParallelPartitioner: num_parts must be >= 1"
        );
        ParallelPartitioner {
            cfg,
            with_refinement: refine,
            workers,
            cost,
        }
    }

    /// Number of ranks.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The execution substrate this partitioner will launch on.
    pub fn backend(&self) -> Backend {
        self.cfg.backend
    }

    /// Same partitioner, different substrate.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.cfg.backend = backend;
        self
    }

    /// Repartition; result is identical in quality structure to the
    /// sequential driver (same LPs, same deterministic tie-breaks).
    pub fn repartition(
        &self,
        inc: &IncrementalGraph,
        old_part: &Partitioning,
    ) -> (Partitioning, ParallelRunReport) {
        assert_eq!(
            old_part.num_parts(),
            self.cfg.num_parts,
            "partition count mismatch"
        );
        let job = RepartitionJob {
            inc,
            old_part,
            cfg: &self.cfg,
            with_refinement: self.with_refinement,
        };
        let (mut outs, sim) = self.cfg.backend.launch(self.workers, self.cost, &job);
        let max = |t: fn(&RankOut) -> f64| outs.iter().map(t).fold(0.0, f64::max);
        let phases = PhaseSim {
            assign: max(|o| o.t_assign),
            balance: max(|o| o.t_balance),
            refine: max(|o| o.t_refine),
        };
        // All ranks compute identical state; take rank 0's copy.
        let r0 = outs.swap_remove(0);
        let part = Partitioning::from_assignment(inc.new_graph(), self.cfg.num_parts, r0.assign);
        let report = ParallelRunReport {
            backend: self.cfg.backend,
            sim,
            phases,
            total_moved: r0.moved,
            stages: r0.stages,
            balanced: r0.balanced,
            total_pivots: r0.lp_pivots,
        };
        (part, report)
    }
}

/// The SPMD rank program, packaged for [`Backend::launch`].
struct RepartitionJob<'a> {
    inc: &'a IncrementalGraph,
    old_part: &'a Partitioning,
    cfg: &'a IgpConfig,
    with_refinement: bool,
}

impl SpmdJob for RepartitionJob<'_> {
    type Out = RankOut;

    fn run<E: Executor>(&self, exec: &mut E) -> RankOut {
        run_rank(exec, self)
    }
}

struct RankOut {
    assign: Vec<PartId>,
    t_assign: f64,
    t_balance: f64,
    t_refine: f64,
    moved: u64,
    stages: usize,
    balanced: bool,
    lp_pivots: u64,
}

fn run_rank<E: Executor>(ctx: &mut E, job: &RepartitionJob) -> RankOut {
    let RepartitionJob {
        inc,
        old_part,
        cfg,
        with_refinement,
    } = *job;
    let g = inc.new_graph();
    let p = cfg.num_parts;
    let w = ctx.size();
    let me = ctx.rank();
    let owns = |q: PartId| (q as usize) % w == me;

    // ---------------- Phase 1: distributed assignment BFS ----------------
    let mut assign: Vec<PartId> = vec![NO_PART; g.num_vertices()];
    let mut claimed: Vec<bool> = vec![false; g.num_vertices()];
    let mut frontier: Vec<NodeId> = Vec::new();
    for v in g.vertices() {
        let old = inc.old_of_new(v);
        if old != INVALID_NODE {
            let q = old_part.part_of(old);
            assign[v as usize] = q;
            claimed[v as usize] = true;
            if owns(q) {
                frontier.push(v);
            }
        }
    }
    loop {
        // Expand the locally-owned frontier; claims = (vertex, partition).
        let mut claims: Vec<(NodeId, PartId)> = Vec::new();
        for &v in &frontier {
            let q = assign[v as usize];
            for &u in g.neighbors(v) {
                ctx.charge(1);
                if !claimed[u as usize] {
                    claims.push((u, q));
                }
            }
        }
        // Replicate claims everywhere; merge deterministically (min
        // partition label wins a same-level tie, as in the sequential BFS).
        let all: Vec<Vec<(NodeId, PartId)>> = ctx.allgather(claims, 2);
        let mut merged: Vec<(NodeId, PartId)> = all.into_iter().flatten().collect();
        if merged.is_empty() {
            break;
        }
        merged.sort_unstable();
        frontier.clear();
        for &(v, q) in &merged {
            ctx.charge(1);
            if !claimed[v as usize] {
                claimed[v as usize] = true;
                assign[v as usize] = q;
                if owns(q) {
                    frontier.push(v);
                }
            }
            // later duplicates have larger q (sorted) — ignored
        }
    }
    // Orphan clusters (new vertices unreachable from any survivor): rank 0
    // decides, everyone applies.
    let have_orphans = assign.contains(&NO_PART);
    if have_orphans {
        let decided: Vec<(NodeId, PartId)> = if me == 0 {
            let mut counts: Vec<u64> = vec![0; p];
            for &q in &assign {
                if q != NO_PART {
                    counts[q as usize] += 1;
                }
            }
            let orphan: Vec<bool> = assign.iter().map(|&q| q == NO_PART).collect();
            let mut out = Vec::new();
            for cluster in igp_graph::traversal::clusters_of(g, &orphan) {
                ctx.charge(cluster.len() as u64);
                let target = counts
                    .iter()
                    .enumerate()
                    .min_by_key(|&(q, &c)| (c, q))
                    .map(|(q, _)| q as PartId)
                    .unwrap();
                counts[target as usize] += cluster.len() as u64;
                out.extend(cluster.into_iter().map(|v| (v, target)));
            }
            out
        } else {
            Vec::new()
        };
        let decided = ctx.broadcast(0, if me == 0 { Some(decided) } else { None }, 8);
        for (v, q) in decided {
            assign[v as usize] = q;
        }
    }
    let t_assign = ctx.now();

    // ---------------- Phases 2+3: layering + LP balancing ----------------
    let mut part = Partitioning::from_assignment(g, p, assign);
    let targets = integer_targets(part.counts());
    ctx.charge(p as u64);
    let mut moved_total = 0u64;
    let mut stages = 0usize;
    let mut balanced = false;
    let mut lp_pivots = 0u64;

    for _stage in 0..cfg.max_stages {
        let surplus: Vec<i64> = (0..p)
            .map(|q| part.count(q as PartId) as i64 - targets[q])
            .collect();
        ctx.charge(p as u64);
        if surplus.iter().all(|&s| s == 0) {
            balanced = true;
            break;
        }
        let assign_now = part.assignment().to_vec();
        // Parallel layering: each rank layers owned partitions, then the
        // labels are replicated.
        ctx.charge(g.num_vertices() as u64 / w as u64);
        let mine = layer_owned(g, &assign_now, p, owns);
        for q in 0..p {
            if owns(q as PartId) {
                ctx.charge(mine.part_work[q]);
            }
        }
        let labels_mine: Vec<(NodeId, PartId, u32)> = g
            .vertices()
            .filter(|&v| owns(assign_now[v as usize]))
            .map(|v| (v, mine.tag[v as usize], mine.level[v as usize]))
            .collect();
        let all_labels: Vec<Vec<(NodeId, PartId, u32)>> = ctx.allgather(labels_mine, 3);
        let mut tag = vec![NO_PART; g.num_vertices()];
        let mut level = vec![u32::MAX; g.num_vertices()];
        let mut lambda = vec![0u64; p * p];
        for labels in &all_labels {
            for &(v, t, l) in labels {
                tag[v as usize] = t;
                level[v as usize] = l;
                if t != NO_PART {
                    lambda[assign_now[v as usize] as usize * p + t as usize] += 1;
                }
            }
        }
        ctx.charge(g.num_vertices() as u64);

        // Movement variables under the cap policy (replicated).
        let (pairs, caps): (Vec<(PartId, PartId)>, Option<Vec<u64>>) = match cfg.cap_policy {
            CapPolicy::Strict => {
                let mut pr = Vec::new();
                let mut cp = Vec::new();
                for i in 0..p {
                    for j in 0..p {
                        if lambda[i * p + j] > 0 {
                            pr.push((i as PartId, j as PartId));
                            cp.push(lambda[i * p + j]);
                        }
                    }
                }
                (pr, Some(cp))
            }
            CapPolicy::Relaxed => (adjacency_pairs(g, &assign_now, p), None),
        };
        if pairs.is_empty() {
            break;
        }
        let mut applied = false;
        for delta in 1..=cfg.max_delta {
            let s = scale_surplus(&surplus, delta);
            ctx.charge(p as u64);
            if s.iter().all(|&v| v == 0) {
                break;
            }
            ctx.charge(pairs.len() as u64);
            match solve_movement_on(ctx, p, &pairs, caps.as_deref(), &s, cfg) {
                Ok((l, acc)) => {
                    lp_pivots += acc.pivots as u64;
                    // Apply moves on the replicated partitioning: drain
                    // buckets boundary-first, gain-ordered within a level
                    // (identical to sequential).
                    let mut buckets: Vec<Vec<(u32, i64, NodeId)>> = vec![Vec::new(); p * p];
                    for (v, (&t, &lv)) in tag.iter().zip(&level).enumerate() {
                        if t != NO_PART {
                            let gain = igp_graph::metrics::move_gain(g, &part, v as NodeId, t);
                            buckets[assign_now[v] as usize * p + t as usize].push((
                                lv,
                                -gain,
                                v as NodeId,
                            ));
                        }
                    }
                    for b in &mut buckets {
                        b.sort_unstable();
                    }
                    ctx.charge(g.num_vertices() as u64);
                    let mut moved_flag = vec![false; g.num_vertices()];
                    let mut moved = 0u64;
                    for (k, &(i, j)) in pairs.iter().enumerate() {
                        let want = l[k].max(0) as usize;
                        let bucket = &buckets[i as usize * p + j as usize];
                        let mut taken = 0usize;
                        for &(_, _, v) in bucket {
                            if taken == want {
                                break;
                            }
                            if !moved_flag[v as usize] {
                                moved_flag[v as usize] = true;
                                part.move_vertex(g, v, j);
                                taken += 1;
                                moved += 1;
                            }
                        }
                        if taken < want {
                            let mut rest: Vec<(u32, NodeId)> = (0..g.num_vertices())
                                .filter(|&v| assign_now[v] == i && !moved_flag[v])
                                .map(|v| (level[v].min(u32::MAX - 1), v as NodeId))
                                .collect();
                            rest.sort_unstable();
                            for (_, v) in rest {
                                if taken == want {
                                    break;
                                }
                                moved_flag[v as usize] = true;
                                part.move_vertex(g, v, j);
                                taken += 1;
                                moved += 1;
                            }
                        }
                    }
                    ctx.charge(moved);
                    moved_total += moved;
                    stages += 1;
                    applied = moved > 0;
                    break;
                }
                Err(LpError::Infeasible) => continue,
                Err(e) => panic!("parallel balance LP failed: {e}"),
            }
        }
        if !applied {
            break;
        }
    }
    if !balanced {
        balanced = (0..p).all(|q| part.count(q as PartId) as i64 == targets[q]);
    }
    let t_balance = ctx.now();

    // ---------------- Phase 4: refinement ----------------
    if with_refinement {
        let r = refine_on(ctx, g, &mut part, cfg, owns);
        moved_total += r.total_moved;
        lp_pivots += r.iters.iter().map(|i| i.lp.pivots as u64).sum::<u64>();
    }
    let t_refine = ctx.now();

    RankOut {
        assign: part.assignment().to_vec(),
        t_assign,
        t_balance,
        t_refine,
        moved: moved_total,
        stages,
        balanced,
        lp_pivots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioner::IncrementalPartitioner;
    use igp_graph::metrics::CutMetrics;
    use igp_graph::{generators, GraphDelta};

    fn scenario(k: usize) -> (Partitioning, IncrementalGraph) {
        let g = generators::grid(8, 8);
        let assign: Vec<PartId> = (0..64).map(|v| ((v % 8) / 2) as PartId).collect();
        let old = Partitioning::from_assignment(&g, 4, assign);
        let delta = generators::localized_growth_delta(&g, 7, k, 123);
        let inc = delta.apply(&g);
        (old, inc)
    }

    #[test]
    fn parallel_matches_sequential_objectives() {
        let (old, inc) = scenario(20);
        let seq = IncrementalPartitioner::igp(IgpConfig::new(4));
        let (seq_part, seq_rep) = seq.repartition(&inc, &old);
        for workers in [1, 2, 4] {
            let par = ParallelPartitioner::igp(IgpConfig::new(4), workers);
            let (par_part, rep) = par.repartition(&inc, &old);
            assert!(rep.balanced, "w={workers}");
            assert_eq!(par_part.counts(), seq_part.counts(), "w={workers}");
            // Same optimal movement objective.
            assert_eq!(rep.total_moved, seq_rep.balance.total_moved, "w={workers}");
        }
    }

    #[test]
    fn parallel_igpr_quality() {
        let (old, inc) = scenario(24);
        let seq = IncrementalPartitioner::igpr(IgpConfig::new(4));
        let (_, seq_rep) = seq.repartition(&inc, &old);
        let par = ParallelPartitioner::igpr(IgpConfig::new(4), 3);
        let (par_part, _) = par.repartition(&inc, &old);
        let cut = CutMetrics::compute(inc.new_graph(), &par_part).total_cut_edges;
        // Refinement is the sequential round; the remaining slack comes
        // from the balance drain only, whose tie-breaks may differ.
        assert!(
            (cut as i64 - seq_rep.metrics.total_cut_edges as i64).abs() <= 3,
            "parallel cut {cut} vs sequential {}",
            seq_rep.metrics.total_cut_edges
        );
    }

    #[test]
    fn simulated_time_improves_with_ranks() {
        let (old, inc) = scenario(30);
        let t1 = ParallelPartitioner::igp(IgpConfig::new(4), 1)
            .repartition(&inc, &old)
            .1
            .sim
            .makespan;
        let t4 = ParallelPartitioner::igp(IgpConfig::new(4), 4)
            .repartition(&inc, &old)
            .1
            .sim
            .makespan;
        assert!(t4 < t1, "t1={t1} t4={t4}");
    }

    #[test]
    fn phase_times_monotone() {
        let (old, inc) = scenario(12);
        let (_, rep) = ParallelPartitioner::igpr(IgpConfig::new(4), 2).repartition(&inc, &old);
        assert!(rep.phases.assign > 0.0);
        assert!(rep.phases.balance >= rep.phases.assign);
        assert!(rep.phases.refine >= rep.phases.balance);
    }

    #[test]
    fn orphan_clusters_in_parallel() {
        let g = generators::path(6);
        let old = Partitioning::from_assignment(&g, 2, vec![0, 0, 0, 1, 1, 1]);
        let delta = GraphDelta {
            add_vertices: vec![1, 1],
            add_edges: vec![(6, 7, 1)], // disconnected pair
            ..Default::default()
        };
        let inc = delta.apply(&g);
        let (part, rep) = ParallelPartitioner::igp(IgpConfig::new(2), 2).repartition(&inc, &old);
        assert!(rep.balanced);
        assert_eq!(part.counts().iter().sum::<u32>(), 8);
    }
}
