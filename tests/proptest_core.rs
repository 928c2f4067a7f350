//! Property tests on the incremental partitioner itself: the DESIGN.md §7
//! invariants under randomized graphs, partitions and increments.

mod common;

use igp::assign::assign_new_vertices;
use igp::graph::coalesce::coalesce;
use igp::graph::metrics::{move_gain, CutMetrics};
use igp::graph::partition::transfer_assignment;
use igp::graph::traversal::nearest_owner_bfs;
use igp::graph::{generators, CsrGraph, GraphDelta, NodeId, PartId, Partitioning, NO_PART};
use igp::layer::{layer_owned, layer_partitions, LayerCarry};
use igp::refine::refine;
use igp::session::IgpSession;
use igp::{BalanceSolver, CapPolicy, IgpConfig, IncrementalPartitioner};
use proptest::prelude::*;

/// Connected random graph + a partitioning built from BFS-ish slabs so it
/// starts roughly (not exactly) balanced.
fn scenario_strategy() -> impl Strategy<Value = (CsrGraph, Partitioning, u64)> {
    (12usize..60, 2usize..5, any::<u64>()).prop_map(|(n, parts, seed)| {
        let g = common::random_connected_graph(n, 2 * n, seed);
        let part = common::bfs_slab_partitioning(&g, parts);
        (g, part, seed)
    })
}

/// A grid, or a random tree with a few chords, in up to 11 BFS slabs:
/// local enough that an increment leaves some partitions untouched.
fn carry_strategy() -> impl Strategy<Value = (CsrGraph, Partitioning, u64)> {
    (5usize..14, 5usize..14, 3usize..12, any::<u64>()).prop_map(|(rows, cols, parts, seed)| {
        let g = if seed % 2 == 0 {
            generators::grid(rows, cols)
        } else {
            common::random_connected_graph(rows * cols, rows * cols / 8, seed)
        };
        let part = common::bfs_slab_partitioning(&g, parts);
        (g, part, seed)
    })
}

/// A random valid edit list for `g`: up to two vertex removals (none
/// below 8 vertices), added vertices hung off survivors, chained to each
/// other or forming an isolated cluster, and edges added and removed
/// between survivors.
fn random_delta(g: &CsrGraph, rng: &mut common::Lcg) -> GraphDelta {
    let n = g.num_vertices();
    let mut remove_vertices: Vec<NodeId> = (0..rng.below(3))
        .filter(|_| n >= 8)
        .map(|_| rng.below(n) as NodeId)
        .collect();
    remove_vertices.sort_unstable();
    remove_vertices.dedup();
    let alive: Vec<NodeId> = (0..n as NodeId)
        .filter(|v| remove_vertices.binary_search(v).is_err())
        .collect();
    let mut named: Vec<(NodeId, NodeId)> = Vec::new();
    let mut fresh = |u: NodeId, v: NodeId| {
        let key = (u.min(v), u.max(v));
        let new = u != v && !named.contains(&key);
        named.push(key);
        new
    };
    let k = rng.below(6);
    let isolated = rng.below(3) == 0;
    let mut add_edges: Vec<(NodeId, NodeId, u64)> = Vec::new();
    for a in 0..k {
        let me = (n + a) as NodeId;
        for _ in 0..1 + rng.below(2) {
            let to = if a > 0 && (isolated || rng.below(2) == 0) {
                (n + rng.below(a)) as NodeId
            } else if !isolated && !alive.is_empty() {
                alive[rng.below(alive.len())]
            } else {
                continue;
            };
            if fresh(to, me) {
                add_edges.push((to, me, 1));
            }
        }
    }
    let mut remove_edges = Vec::new();
    for _ in 0..rng.below(3) {
        if alive.len() < 2 {
            break;
        }
        let (u, v) = (alive[rng.below(alive.len())], alive[rng.below(alive.len())]);
        if !g.has_edge(u, v) && fresh(u, v) {
            add_edges.push((u, v, 1));
        }
        let row = g.neighbors(u);
        if !row.is_empty() {
            let w = row[rng.below(row.len())];
            if alive.binary_search(&w).is_ok() && fresh(u, w) {
                remove_edges.push((u, w));
            }
        }
    }
    GraphDelta {
        add_vertices: vec![1; k],
        remove_vertices,
        add_edges,
        remove_edges,
    }
}

/// Layering as it was before the one-sweep kernel: one partition at a
/// time, a private BFS over that partition's member list with its own
/// position map and level counter. Kept verbatim as the reference
/// [`layer_owned`] must reproduce — labels and edge-scan count.
fn layer_one_partition(
    g: &CsrGraph,
    assign: &[PartId],
    i: PartId,
    members: &[NodeId],
) -> (Vec<(NodeId, PartId, u32)>, u64) {
    let p_sentinel = u32::MAX;
    let mut work = 0u64;
    let local_of = {
        let mut map = vec![u32::MAX; g.num_vertices()];
        for (k, &v) in members.iter().enumerate() {
            map[v as usize] = k as u32;
        }
        map
    };
    let m = members.len();
    let mut tag = vec![p_sentinel; m];
    let mut level = vec![u32::MAX; m];
    let mut counts: Vec<u32> = Vec::new();
    let mut frontier: Vec<NodeId> = Vec::new();
    for (k, &v) in members.iter().enumerate() {
        let mut best: Option<(u32, PartId)> = None;
        counts.clear();
        counts.resize(64, 0);
        let mut touched: Vec<PartId> = Vec::new();
        for &u in g.neighbors(v) {
            work += 1;
            let q = assign[u as usize];
            if q != i {
                let qi = q as usize;
                if qi >= counts.len() {
                    counts.resize(qi + 1, 0);
                }
                if counts[qi] == 0 {
                    touched.push(q);
                }
                counts[qi] += 1;
            }
        }
        for &q in &touched {
            let c = counts[q as usize];
            counts[q as usize] = 0;
            match best {
                None => best = Some((c, q)),
                Some((bc, bq)) => {
                    if c > bc || (c == bc && q < bq) {
                        best = Some((c, q));
                    }
                }
            }
        }
        if let Some((_, q)) = best {
            tag[k] = q;
            level[k] = 0;
            frontier.push(v);
        }
    }
    let mut lvl = 0u32;
    let mut candidates: Vec<NodeId> = Vec::new();
    let mut in_candidates = vec![false; m];
    while !frontier.is_empty() {
        candidates.clear();
        for &v in &frontier {
            for &u in g.neighbors(v) {
                work += 1;
                let lu = local_of[u as usize];
                if lu != u32::MAX && tag[lu as usize] == p_sentinel && !in_candidates[lu as usize] {
                    in_candidates[lu as usize] = true;
                    candidates.push(u);
                }
            }
        }
        frontier.clear();
        for &v in &candidates {
            let k = local_of[v as usize] as usize;
            in_candidates[k] = false;
            let mut best: Option<(u32, PartId)> = None;
            let mut touched: Vec<PartId> = Vec::new();
            for &u in g.neighbors(v) {
                work += 1;
                let lu = local_of[u as usize];
                if lu != u32::MAX && level[lu as usize] == lvl {
                    let q = tag[lu as usize];
                    let qi = q as usize;
                    if qi >= counts.len() {
                        counts.resize(qi + 1, 0);
                    }
                    if counts[qi] == 0 {
                        touched.push(q);
                    }
                    counts[qi] += 1;
                }
            }
            for &q in &touched {
                let c = counts[q as usize];
                counts[q as usize] = 0;
                match best {
                    None => best = Some((c, q)),
                    Some((bc, bq)) => {
                        if c > bc || (c == bc && q < bq) {
                            best = Some((c, q));
                        }
                    }
                }
            }
            let (_, q) = best.expect("candidate must have a levelled neighbour");
            tag[k] = q;
            level[k] = lvl + 1;
            frontier.push(v);
        }
        lvl += 1;
    }
    let labels = members
        .iter()
        .enumerate()
        .map(|(k, &v)| {
            let t = if tag[k] == p_sentinel {
                NO_PART
            } else {
                tag[k]
            };
            (v, t, level[k])
        })
        .collect();
    (labels, work)
}

proptest! {
    #![proptest_config(common::tier1_config(48))]

    /// The one-sweep kernel ≡ the per-partition reference on tag, level,
    /// λ and per-partition work — for every partition at once and for the
    /// strided ownership of each rank of a 2- and 3-rank SPMD run, on
    /// slab partitions roughened by random reassignments (disconnected
    /// partitions, interiors no boundary reaches).
    #[test]
    fn one_sweep_layering_equals_per_partition((g, part, seed) in scenario_strategy()) {
        let (n, p) = (g.num_vertices(), part.num_parts());
        let mut rng = common::Lcg::new(seed);
        let mut assign = part.assignment().to_vec();
        for _ in 0..rng.below(n / 3 + 1) {
            assign[rng.below(n)] = rng.below(p) as PartId;
        }
        let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); p];
        for (v, &q) in assign.iter().enumerate() {
            members[q as usize].push(v as NodeId);
        }
        for (ranks, rank) in [(1usize, 0usize), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)] {
            let owned = |q: PartId| q as usize % ranks == rank;
            let mut tag = vec![NO_PART; n];
            let mut level = vec![u32::MAX; n];
            let mut lambda = vec![0u64; p * p];
            let mut work = vec![0u64; p];
            for q in (0..p).filter(|&q| owned(q as PartId)) {
                let (labels, w) = layer_one_partition(&g, &assign, q as PartId, &members[q]);
                work[q] = w;
                for (v, t, l) in labels {
                    tag[v as usize] = t;
                    level[v as usize] = l;
                    if t != NO_PART {
                        lambda[q * p + t as usize] += 1;
                    }
                }
            }
            let lay = if ranks == 1 {
                layer_partitions(&g, &assign, p)
            } else {
                layer_owned(&g, &assign, p, owned)
            };
            prop_assert_eq!(&lay.tag, &tag, "tags, rank {}/{}", rank, ranks);
            prop_assert_eq!(&lay.level, &level, "levels, rank {}/{}", rank, ranks);
            prop_assert_eq!(&lay.lambda, &lambda, "λ, rank {}/{}", rank, ranks);
            prop_assert_eq!(&lay.part_work, &work, "work, rank {}/{}", rank, ranks);
            prop_assert_eq!(lay.work, work.iter().sum::<u64>());
        }
    }

    /// Phase 1 seeded only where new vertices touch old ones ≡ the BFS
    /// from every old vertex it replaced: same owner for each new vertex
    /// an old one reaches, same `max_dist`, the rest clustered — on
    /// increments that remove vertices and hang chains and orphan
    /// clusters of new vertices off the graph.
    #[test]
    fn phase1_seeded_bfs_equals_all_sources((g, old, seed) in scenario_strategy()) {
        let mut rng = common::Lcg::new(seed);
        let n = g.num_vertices();
        let remove_vertices: Vec<NodeId> =
            (1..n as NodeId).filter(|_| rng.below(8) == 0).collect();
        let alive: Vec<NodeId> =
            (0..n as NodeId).filter(|v| !remove_vertices.contains(v)).collect();
        let k = 1 + rng.below(12);
        let mut add_edges: Vec<(NodeId, NodeId, u64)> = Vec::new();
        for a in 0..k {
            let me = (n + a) as NodeId;
            // Attach to old vertices, to earlier new ones (chains), or to
            // nothing at all (an orphan cluster of its own).
            for _ in 0..rng.below(3) {
                let to = if a > 0 && rng.below(2) == 0 {
                    (n + rng.below(a)) as NodeId
                } else {
                    alive[rng.below(alive.len())]
                };
                if !add_edges.iter().any(|&(u, v, _)| (u, v) == (to, me)) {
                    add_edges.push((to, me, 1));
                }
            }
        }
        let delta = igp::graph::GraphDelta {
            add_vertices: vec![1; k],
            remove_vertices,
            add_edges,
            remove_edges: Vec::new(),
        };
        let inc = delta.apply(&g);
        let (assign, report) = assign_new_vertices(&inc, &old);

        let new = inc.new_graph();
        let carried = transfer_assignment(&inc, &old);
        let seeds: Vec<(NodeId, u32)> = new
            .vertices()
            .filter(|&v| carried[v as usize] != NO_PART)
            .map(|v| (v, carried[v as usize]))
            .collect();
        let (owner, dist) = nearest_owner_bfs(new, &seeds);
        let (mut max_dist, mut orphans) = (0u32, 0usize);
        for v in inc.added_vertices() {
            if owner[v as usize] == u32::MAX {
                orphans += 1;
            } else {
                prop_assert_eq!(assign[v as usize], owner[v as usize], "owner of {}", v);
                max_dist = max_dist.max(dist[v as usize]);
            }
        }
        prop_assert_eq!(report.new_vertices, k);
        prop_assert_eq!(report.max_dist, max_dist);
        prop_assert_eq!(report.clustered, orphans);
        for v in new.vertices().filter(|&v| !inc.is_added(v)) {
            prop_assert_eq!(assign[v as usize], carried[v as usize]);
        }
    }

    /// After IGP: every vertex assigned, totals preserved, counts within
    /// one of the averages, and (strict caps) at most slight deformation.
    #[test]
    fn igp_invariants((g, old, seed) in scenario_strategy()) {
        let delta = generators::localized_growth_delta(&g, 0, 6, seed);
        let inc = delta.apply(&g);
        let parts = old.num_parts();
        let (part, report) = IncrementalPartitioner::igp(IgpConfig::new(parts))
            .repartition(&inc, &old);
        let n_new = inc.new_graph().num_vertices();
        prop_assert_eq!(part.num_vertices(), n_new);
        prop_assert_eq!(part.counts().iter().sum::<u32>() as usize, n_new);
        if report.balance.balanced {
            let max = *part.counts().iter().max().unwrap() as i64;
            let min = *part.counts().iter().min().unwrap() as i64;
            prop_assert!(max - min <= 1, "{:?}", part.counts());
        }
        part.validate(inc.new_graph()).unwrap();
    }

    /// Refinement (IGPR vs IGP) never increases the cut and never changes
    /// partition sizes.
    #[test]
    fn igpr_refines_without_unbalancing((g, old, seed) in scenario_strategy()) {
        let delta = generators::localized_growth_delta(&g, 0, 5, seed);
        let inc = delta.apply(&g);
        let parts = old.num_parts();
        let (p1, r1) = IncrementalPartitioner::igp(IgpConfig::new(parts))
            .repartition(&inc, &old);
        let (p2, r2) = IncrementalPartitioner::igpr(IgpConfig::new(parts))
            .repartition(&inc, &old);
        prop_assert_eq!(p1.counts(), p2.counts());
        prop_assert!(r2.metrics.total_cut_edges <= r1.metrics.total_cut_edges,
            "IGPR {} > IGP {}", r2.metrics.total_cut_edges, r1.metrics.total_cut_edges);
        // Refinement iterations individually monotone.
        if let Some(rf) = &r2.refine {
            for it in &rf.iters {
                prop_assert!(it.cut_after <= it.cut_before);
            }
        }
    }

    /// A refine round moves no two adjacent vertices, lowers the weighted
    /// cut by exactly the gain of what it moved (so never raises it),
    /// reports no rollback and keeps every partition count — on unit and
    /// random edge weights, rough partitions and every engine. On unit
    /// weights the reported cut is that cut.
    #[test]
    fn refine_rounds_lower_the_cut_by_their_gain((g, slabs, seed) in scenario_strategy()) {
        let mut rng = common::Lcg::new(seed | 1);
        let parts = slabs.num_parts();
        let unit = seed % 2 == 0;
        let g = if unit {
            g
        } else {
            let edges: Vec<_> = g
                .undirected_edges()
                .map(|(u, v, _)| (u, v, 1 + rng.below(9) as u64))
                .collect();
            CsrGraph::from_weighted_edges(g.num_vertices(), &edges)
        };
        // Slabs with about one vertex in four sent elsewhere.
        let assign: Vec<PartId> = (0..g.num_vertices() as NodeId)
            .map(|v| match rng.below(4) {
                0 => rng.below(parts) as PartId,
                _ => slabs.part_of(v),
            })
            .collect();
        let base = Partitioning::from_assignment(&g, parts, assign);
        for solver in [BalanceSolver::DenseSimplex, BalanceSolver::BoundedSimplex, BalanceSolver::NetworkFlow] {
            let mut cfg = IgpConfig::new(parts);
            cfg.solver = solver;
            cfg.refine.max_iters = 1;
            let mut part = base.clone();
            for round in 0..8 {
                let before = part.clone();
                let out = refine(&g, &mut part, &cfg);
                let moved: Vec<NodeId> = g
                    .vertices()
                    .filter(|&v| part.part_of(v) != before.part_of(v))
                    .collect();
                let tag = format!("{solver:?} round {round}");
                prop_assert_eq!(out.total_moved, moved.len() as u64, "{}", &tag);
                prop_assert_eq!(part.counts(), before.counts(), "{}", &tag);
                for &v in &moved {
                    prop_assert!(
                        g.neighbors(v).iter().all(|&u| part.part_of(u) == before.part_of(u)),
                        "{}: {} moved beside a moved neighbour", &tag, v
                    );
                }
                let gain: i64 = moved.iter().map(|&v| move_gain(&g, &before, v, part.part_of(v))).sum();
                let cut = |p: &Partitioning| CutMetrics::compute(&g, p).total_cut_weight as i64;
                prop_assert!(moved.is_empty() || gain > 0, "{}: gain {}", &tag, gain);
                prop_assert_eq!(cut(&before) - cut(&part), gain, "{}", &tag);
                for it in &out.iters {
                    prop_assert!(!it.rolled_back, "{}", &tag);
                    if unit {
                        prop_assert!(it.cut_after <= it.cut_before, "{}", &tag);
                    }
                }
                if moved.is_empty() {
                    break;
                }
            }
        }
    }

    /// Layering invariants: every vertex of a connected partition with a
    /// boundary gets tagged; level-0 = boundary; λ row sums count tagged
    /// vertices; tags always foreign.
    #[test]
    fn layering_invariants((g, part, _) in scenario_strategy()) {
        let parts = part.num_parts();
        let lay = layer_partitions(&g, part.assignment(), parts);
        for v in g.vertices() {
            let i = part.part_of(v);
            let t = lay.tag[v as usize];
            if t != NO_PART {
                prop_assert_ne!(t, i, "tag must be foreign");
            }
            let boundary = part.is_boundary(&g, v);
            prop_assert_eq!(lay.level[v as usize] == 0, boundary);
        }
        let tagged = lay.tag.iter().filter(|&&t| t != NO_PART).count() as u64;
        let lambda_sum: u64 = (0..parts).flat_map(|i| (0..parts).map(move |j| (i, j)))
            .map(|(i, j)| lay.lambda(i as PartId, j as PartId)).sum();
        prop_assert_eq!(lambda_sum, tagged);
    }

    /// Relaxed caps always balance in few stages; strict caps, when they
    /// report balanced, agree with the targets.
    #[test]
    fn cap_policies_balance((g, old, seed) in scenario_strategy()) {
        let delta = generators::localized_growth_delta(&g, 0, 8, seed);
        let inc = delta.apply(&g);
        let parts = old.num_parts();
        for policy in [CapPolicy::Strict, CapPolicy::Relaxed] {
            let mut cfg = IgpConfig::new(parts);
            cfg.cap_policy = policy;
            let (part, report) = IncrementalPartitioner::igp(cfg).repartition(&inc, &old);
            if report.balance.balanced {
                let max = *part.counts().iter().max().unwrap() as i64;
                let min = *part.counts().iter().min().unwrap() as i64;
                prop_assert!(max - min <= 1, "{policy:?}: {:?}", part.counts());
            }
        }
    }

    /// Determinism: repeated runs produce identical assignments.
    #[test]
    fn igp_deterministic((g, old, seed) in scenario_strategy()) {
        let delta = generators::localized_growth_delta(&g, 0, 4, seed);
        let inc = delta.apply(&g);
        let igp = IncrementalPartitioner::igpr(IgpConfig::new(old.num_parts()));
        let (a, _) = igp.repartition(&inc, &old);
        let (b, _) = igp.repartition(&inc, &old);
        prop_assert_eq!(a.assignment(), b.assignment());
    }

    /// Quality sanity: the final machine cost is bounded by the trivial
    /// upper bound (every edge cut).
    #[test]
    fn metrics_bounded((g, old, seed) in scenario_strategy()) {
        let delta = generators::localized_growth_delta(&g, 0, 4, seed);
        let inc = delta.apply(&g);
        let (part, _) = IncrementalPartitioner::igpr(IgpConfig::new(old.num_parts()))
            .repartition(&inc, &old);
        let m = CutMetrics::compute(inc.new_graph(), &part);
        prop_assert!(m.total_cut_edges <= inc.new_graph().num_edges() as u64);
        prop_assert!(m.sum_boundary() == 2 * m.total_cut_weight);
    }

    /// The carried layering ≡ the full sweep on tag, level, λ,
    /// per-partition and total work: a layering of one assignment, random
    /// moves after it, then an increment (empty, or removing vertices,
    /// adding chained or isolated ones and editing edges) whose phase-1
    /// assignment the carry re-layers.
    #[test]
    fn carried_layering_equals_full_sweep((g, part, seed) in carry_strategy()) {
        let (n, p) = (g.num_vertices(), part.num_parts());
        let mut rng = common::Lcg::new(seed);
        let before = part.assignment().to_vec();
        let first = layer_partitions(&g, &before, p);
        let mut settled = before.clone();
        for _ in 0..rng.below(6) {
            settled[rng.below(n)] = rng.below(p) as PartId;
        }
        let delta = if rng.below(4) == 0 {
            GraphDelta::default()
        } else {
            random_delta(&g, &mut rng)
        };
        let inc = delta.apply(&g);
        let settled = Partitioning::from_assignment(&g, p, settled);
        let (assign, _) = assign_new_vertices(&inc, &settled);
        let carried = LayerCarry::new(before, first).relayer(&inc, &delta, &assign);
        let full = layer_partitions(inc.new_graph(), &assign, p);
        prop_assert_eq!(&carried.tag, &full.tag);
        prop_assert_eq!(&carried.level, &full.level);
        prop_assert_eq!(&carried.lambda, &full.lambda);
        prop_assert_eq!(&carried.part_work, &full.part_work);
        prop_assert_eq!(carried.work, full.work);
    }

    /// A session that carries its layering from step to step ≡ the
    /// library `repartition` from scratch on the same inputs, step for
    /// step: assignment and every [`StepSummary`] field, across direct
    /// deltas, queued batches, `apply_increment`, `reset_partitioning`
    /// and a `seed` → `rehydrate` restart.
    #[test]
    fn session_steps_equal_library_repartition((g, part, seed) in carry_strategy()) {
        let p = part.num_parts();
        let cfg = IgpConfig::new(p);
        let igpr = IncrementalPartitioner::igpr(cfg.clone());
        let mut rng = common::Lcg::new(seed);
        let mut s = IgpSession::new(g.clone(), part.clone(), cfg.clone(), true);
        let (mut graph, mut reference) = (g, part);
        for step in 0..10 {
            let (inc, summary) = match rng.below(8) {
                0 => {
                    reference = common::bfs_slab_partitioning(&graph, p);
                    s.reset_partitioning(reference.clone());
                    continue;
                }
                1 => {
                    s = IgpSession::rehydrate(s.seed(), cfg.clone(), true);
                    continue;
                }
                2 => {
                    let d = random_delta(&graph, &mut rng);
                    (d.apply(&graph), s.apply_increment(d.apply(&graph)))
                }
                3 | 4 => {
                    let mut batch = Vec::new();
                    let mut ahead = graph.clone();
                    for _ in 0..1 + rng.below(3) {
                        let d = random_delta(&ahead, &mut rng);
                        ahead = d.apply(&ahead).into_new_graph();
                        s.queue_delta(&d).unwrap();
                        batch.push(d);
                    }
                    let net = coalesce(graph.num_vertices(), &batch).unwrap();
                    match s.flush() {
                        Some(summary) => (net.apply(&graph), summary),
                        None => {
                            prop_assert!(net.is_empty(), "step {}", step);
                            continue;
                        }
                    }
                }
                _ => {
                    let d = random_delta(&graph, &mut rng);
                    (d.apply(&graph), s.apply_delta(&d))
                }
            };
            let (part, report) = igpr.repartition(&inc, &reference);
            prop_assert_eq!(s.partitioning().assignment(), part.assignment(), "step {}", step);
            prop_assert_eq!(summary.step + 1, s.steps());
            prop_assert_eq!(summary.num_vertices, part.num_vertices());
            prop_assert_eq!(summary.cut, report.metrics.total_cut_edges, "step {}", step);
            prop_assert_eq!(summary.imbalance, part.count_imbalance());
            prop_assert_eq!(summary.moved, report.total_moved(), "step {}", step);
            prop_assert_eq!(summary.stages, report.num_stages());
            prop_assert_eq!(summary.balanced, report.balance.balanced);
            graph = inc.into_new_graph();
            prop_assert_eq!(s.graph(), &graph);
            reference = part;
        }
    }
}
