//! Phase 3 — load balancing via linear programming (paper §2.3).
//!
//! Minimize total vertex movement `Σ l_ij` subject to the movability caps
//! `0 ≤ l_ij ≤ λ_ij` (eq. 11) and per-partition balance
//! `out(j) − in(j) = |B'(j)| − μ̄` (eq. 12, oriented as in the paper's
//! Figure 5 instance). When the capped system is infeasible the right-hand
//! side is scaled by `δ > 1` and the solve-move-relayer cycle repeats —
//! the paper's **multi-stage** scheme ("this would not achieve load
//! balancing in one step, but several such steps can be applied") — or the
//! caps are dropped entirely ([`CapPolicy::Relaxed`]).
//!
//! Selected vertices are drained from the layer buckets in boundary-first
//! order, which is what keeps the deformation of the original partitions
//! small.

use crate::config::{BalanceSolver, CapPolicy, IgpConfig};
use crate::layer::{layer_partitions, LayerCarry, Layering};
use igp_graph::{CsrGraph, NodeId, PartId, Partitioning, NO_PART};
use igp_lp::{flow, LpError, LpModel};
use igp_runtime::{Executor, Solo};

/// LP size/work accounting (experiment E7).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LpAccounting {
    /// Structural variables `v` (the paper reports v = 188 for P = 32).
    pub vars: usize,
    /// Constraint rows `c` including caps (paper: c = 126).
    pub constraints: usize,
    /// Simplex pivots (0 for the network solver).
    pub pivots: usize,
    /// Modeled work units: pivots × rows × cols (dense iteration cost).
    pub work: u64,
}

/// One balancing stage.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// The δ used (1 = full correction).
    pub delta: u32,
    /// Vertices moved in this stage.
    pub moved: u64,
    /// LP accounting.
    pub lp: LpAccounting,
    /// Layering work units for this stage.
    pub layer_work: u64,
}

/// Outcome of the balancing phase.
#[derive(Clone, Debug)]
pub struct BalanceOutcome {
    /// Stage-by-stage detail (the paper's "number of stages required").
    pub stages: Vec<StageReport>,
    /// True if the partition reached its integer targets.
    pub balanced: bool,
    /// Total vertices moved.
    pub total_moved: u64,
    /// Total work units (layering + LP + applying moves).
    pub work: u64,
}

/// Integer per-partition targets summing exactly to `n`: `⌊n/P⌋` each,
/// with the remainder going to the currently largest partitions (less
/// movement than arbitrary assignment). Ties break to the smaller id.
pub fn integer_targets(counts: &[u32]) -> Vec<i64> {
    let p = counts.len();
    let n: u64 = counts.iter().map(|&c| c as u64).sum();
    let base = (n / p as u64) as i64;
    let rem = (n % p as u64) as usize;
    let mut order: Vec<usize> = (0..p).collect();
    order.sort_by_key(|&j| (std::cmp::Reverse(counts[j]), j));
    let mut t = vec![base; p];
    for &j in order.iter().take(rem) {
        t[j] += 1;
    }
    t
}

/// Scale the surplus vector by `δ` (truncating toward zero) while keeping
/// the total at zero — the paper's eq. 13 RHS.
pub fn scale_surplus(surplus: &[i64], delta: u32) -> Vec<i64> {
    let d = delta as i64;
    let mut s: Vec<i64> = surplus.iter().map(|&x| x / d).collect();
    let mut sum: i64 = s.iter().sum();
    // Nudge entries with the largest dropped remainder first, in the
    // direction of their own remainder, until the total is zero again.
    let mut order: Vec<usize> = (0..s.len()).collect();
    order.sort_by_key(|&j| (std::cmp::Reverse((surplus[j] - d * s[j]).abs()), j));
    let mut k = 0usize;
    let mut guard = 0usize;
    while sum != 0 && guard < 8 * s.len().max(1) {
        let j = order[k % order.len()];
        let rem = surplus[j] - d * s[j];
        if sum > 0 && rem < 0 {
            s[j] -= 1;
            sum -= 1;
        } else if sum < 0 && rem > 0 {
            s[j] += 1;
            sum += 1;
        }
        k += 1;
        guard += 1;
    }
    // Forced fallback (cannot trigger when Σ surplus = 0, kept for safety).
    while sum > 0 {
        let j = (0..s.len()).max_by_key(|&j| s[j]).unwrap();
        s[j] -= 1;
        sum -= 1;
    }
    while sum < 0 {
        let j = (0..s.len()).min_by_key(|&j| s[j]).unwrap();
        s[j] += 1;
        sum += 1;
    }
    s
}

/// Solve one movement LP: variables are the directed pairs in `pairs`
/// (with optional caps), constraints are `out(j) − in(j) = surplus[j]`.
/// Returns the integral movement counts aligned with `pairs`.
///
/// The sequential entry point: [`solve_movement_on`] at size 1.
pub fn solve_movement(
    num_parts: usize,
    pairs: &[(PartId, PartId)],
    caps: Option<&[u64]>,
    surplus: &[i64],
    cfg: &IgpConfig,
) -> Result<(Vec<i64>, LpAccounting), LpError> {
    solve_movement_on(&mut Solo, num_parts, pairs, caps, surplus, cfg)
}

/// [`solve_movement`] as a collective over the ranks of `ctx`: the
/// simplex engines split the tableau by columns, the network engine runs
/// replicated. Every rank receives the same result.
pub fn solve_movement_on<E: Executor>(
    ctx: &mut E,
    num_parts: usize,
    pairs: &[(PartId, PartId)],
    caps: Option<&[u64]>,
    surplus: &[i64],
    cfg: &IgpConfig,
) -> Result<(Vec<i64>, LpAccounting), LpError> {
    debug_assert_eq!(surplus.iter().sum::<i64>(), 0);
    if cfg.solver != BalanceSolver::NetworkFlow {
        let model = igp_lp::movement_lp(num_parts, &arcs_of(pairs), caps, surplus);
        return solve_paper_lp(ctx, &model, cfg.solver);
    }
    let big = surplus.iter().map(|s| s.unsigned_abs()).sum::<u64>().max(1) as i64;
    let arcs: Vec<(usize, usize, i64)> = pairs
        .iter()
        .enumerate()
        .map(|(k, &(i, j))| {
            let cap = caps.map(|c| c[k] as i64).unwrap_or(big);
            (i as usize, j as usize, cap)
        })
        .collect();
    match flow::min_movement_transshipment(num_parts, &arcs, surplus) {
        Some((_, l)) => {
            let acc = LpAccounting {
                vars: pairs.len(),
                constraints: num_parts + caps.map_or(0, |c| c.len()),
                pivots: 0,
                work: (pairs.len() * num_parts) as u64,
            };
            Ok((l, acc))
        }
        None => Err(LpError::Infeasible),
    }
}

/// Partition pairs as the `usize` arcs `igp-lp`'s builders take.
pub(crate) fn arcs_of(pairs: &[(PartId, PartId)]) -> Vec<(usize, usize)> {
    pairs
        .iter()
        .map(|&(i, j)| (i as usize, j as usize))
        .collect()
}

/// Solve one of the paper's two LPs with the simplex kernel —
/// [`BalanceSolver::DenseSimplex`] on the model with its caps restated
/// as rows, [`BalanceSolver::BoundedSimplex`] on the model as given —
/// and round the (integral, both LPs being network problems) optimum.
pub(crate) fn solve_paper_lp<E: Executor>(
    ctx: &mut E,
    model: &LpModel,
    solver: BalanceSolver,
) -> Result<(Vec<i64>, LpAccounting), LpError> {
    let sol = match solver {
        BalanceSolver::DenseSimplex => igp_lp::solve_on(ctx, &model.caps_as_rows())?,
        _ => igp_lp::solve_on(ctx, model)?,
    };
    let l: Vec<i64> = sol
        .x
        .iter()
        .map(|&v| {
            let r = v.round();
            debug_assert!((v - r).abs() < 1e-5, "LP returned non-integral value {v}");
            r as i64
        })
        .collect();
    let acc = LpAccounting {
        vars: model.num_vars(),
        constraints: model.num_rows_expanded(),
        pivots: sol.stats.total_iters(),
        work: (sol.stats.total_iters() * sol.stats.rows * sol.stats.cols) as u64,
    };
    Ok((l, acc))
}

/// Gain of moving `v` to partition `j` under the *current* assignment:
/// weighted edges into `j` minus edges into `v`'s own partition.
pub(crate) fn drain_gain(g: &CsrGraph, part: &Partitioning, v: NodeId, j: PartId) -> i64 {
    igp_graph::metrics::move_gain(g, part, v, j)
}

/// Directed partition-adjacency pairs `(i, j)` (an edge of the graph
/// crosses from `i` to `j`).
pub fn adjacency_pairs(g: &CsrGraph, assign: &[PartId], p: usize) -> Vec<(PartId, PartId)> {
    let mut seen = vec![false; p * p];
    for v in g.vertices() {
        let i = assign[v as usize];
        for &u in g.neighbors(v) {
            let j = assign[u as usize];
            if i != j {
                seen[i as usize * p + j as usize] = true;
            }
        }
    }
    let mut pairs = Vec::new();
    for i in 0..p {
        for j in 0..p {
            if seen[i * p + j] {
                pairs.push((i as PartId, j as PartId));
            }
        }
    }
    pairs
}

/// Run the full multi-stage balancing phase, mutating `part` in place.
pub fn balance(g: &CsrGraph, part: &mut Partitioning, cfg: &IgpConfig) -> BalanceOutcome {
    let layer = |assign: &[PartId]| layer_partitions(g, assign, cfg.num_parts);
    balance_from(g, part, cfg, layer).0
}

/// [`balance`] with the first stage's layering taken from `first_layer`
/// (which must return [`layer_partitions`] of the assignment it is given).
/// Also hands back that layering with its assignment; `None` when no
/// stage got as far as its LP.
pub(crate) fn balance_from(
    g: &CsrGraph,
    part: &mut Partitioning,
    cfg: &IgpConfig,
    first_layer: impl FnOnce(&[PartId]) -> Layering,
) -> (BalanceOutcome, Option<LayerCarry>) {
    let p = cfg.num_parts;
    debug_assert_eq!(part.num_parts(), p);
    let targets = integer_targets(part.counts());
    let mut out = BalanceOutcome {
        stages: Vec::new(),
        balanced: false,
        total_moved: 0,
        work: 0,
    };
    let mut first_layer = Some(first_layer);
    let mut carry = None;

    for stage in 0..cfg.max_stages {
        let surplus: Vec<i64> = (0..p)
            .map(|q| part.count(q as PartId) as i64 - targets[q])
            .collect();
        if surplus.iter().all(|&s| s == 0) {
            out.balanced = true;
            break;
        }
        let assign = part.assignment().to_vec();
        let layering = match first_layer.take() {
            Some(f) => f(&assign),
            None => layer_partitions(g, &assign, p),
        };
        out.work += layering.work;

        // Variables: movable pairs under the cap policy.
        let (pairs, caps): (Vec<(PartId, PartId)>, Option<Vec<u64>>) = match cfg.cap_policy {
            CapPolicy::Strict => {
                let mut pr = Vec::new();
                let mut cp = Vec::new();
                for i in 0..p {
                    for j in 0..p {
                        let lam = layering.lambda(i as PartId, j as PartId);
                        if lam > 0 {
                            pr.push((i as PartId, j as PartId));
                            cp.push(lam);
                        }
                    }
                }
                (pr, Some(cp))
            }
            CapPolicy::Relaxed => (adjacency_pairs(g, &assign, p), None),
        };
        if pairs.is_empty() {
            break; // nothing can move (no adjacency) — give up
        }

        // Try δ = 1, 2, 3, … until a feasible scaled problem appears.
        let mut applied = false;
        for delta in 1..=cfg.max_delta {
            let s = scale_surplus(&surplus, delta);
            if s.iter().all(|&v| v == 0) {
                break; // δ so coarse nothing would move — infeasible path
            }
            match solve_movement(p, &pairs, caps.as_deref(), &s, cfg) {
                Ok((l, acc)) => {
                    out.work += acc.work;
                    let moved =
                        apply_moves(g, part, &layering, &assign, &pairs, &l, cfg.cap_policy);
                    out.work += moved;
                    out.total_moved += moved;
                    out.stages.push(StageReport {
                        delta,
                        moved,
                        lp: acc,
                        layer_work: layering.work,
                    });
                    applied = moved > 0;
                    break;
                }
                Err(LpError::Infeasible) => continue,
                Err(e) => panic!("balance LP failed unexpectedly: {e}"),
            }
        }
        if stage == 0 {
            carry = Some(LayerCarry::new(assign, layering));
        }
        if !applied {
            break; // no δ feasible or zero movement — report unbalanced
        }
    }
    if !out.balanced {
        // Final check (the loop may have exited on max_stages right after
        // the balancing move).
        let surplus_zero = (0..p).all(|q| part.count(q as PartId) as i64 == targets[q]);
        out.balanced = surplus_zero;
    }
    (out, carry)
}

/// Apply LP movement counts: drain `l[k]` vertices from bucket `(i → j)`
/// in boundary-first order, breaking level ties by the *gain* of moving
/// the vertex to `j` (`out(v,j) − in(v)`, best first) so migration peels
/// the corner of the partition nearest `j` instead of scattering dents
/// along the whole boundary. Under [`CapPolicy::Relaxed`] overflow beyond
/// the bucket takes further vertices of `i` by (level, id) order.
fn apply_moves(
    g: &CsrGraph,
    part: &mut Partitioning,
    layering: &Layering,
    assign_before: &[PartId],
    pairs: &[(PartId, PartId)],
    l: &[i64],
    policy: CapPolicy,
) -> u64 {
    let p = layering.num_parts;
    // Gather buckets only for the pairs the LP moves anything along
    // (a handful of the P² a full bucketing would fill).
    let mut slot = vec![usize::MAX; p * p];
    let mut buckets: Vec<Vec<NodeId>> = Vec::new();
    for (k, &(i, j)) in pairs.iter().enumerate() {
        if l[k] > 0 {
            slot[i as usize * p + j as usize] = buckets.len();
            buckets.push(Vec::new());
        }
    }
    for (v, &t) in layering.tag.iter().enumerate() {
        if t != NO_PART {
            if let Some(b) = buckets.get_mut(slot[assign_before[v] as usize * p + t as usize]) {
                b.push(v as NodeId);
            }
        }
    }
    let mut moved_flag = vec![false; g.num_vertices()];
    let mut moved = 0u64;
    for (k, &(i, j)) in pairs.iter().enumerate() {
        let want = l[k].max(0) as usize;
        if want == 0 {
            continue;
        }
        // Drain order: level, then gain under the assignment as it
        // stands when this pair's turn comes, then id.
        let mut bucket: Vec<(u32, i64, NodeId)> = buckets[slot[i as usize * p + j as usize]]
            .iter()
            .map(|&v| (layering.level[v as usize], -drain_gain(g, part, v, j), v))
            .collect();
        bucket.sort_unstable();
        let mut taken = 0usize;
        for &(_, _, v) in bucket.iter() {
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
            debug_assert!(
                policy == CapPolicy::Relaxed,
                "strict caps guarantee bucket capacity (pair {i}->{j}: want {want}, bucket {})",
                bucket.len()
            );
            // Overflow: any remaining vertices of i, shallowest layer first.
            let mut rest: Vec<(u32, NodeId)> = (0..g.num_vertices())
                .filter(|&v| assign_before[v] == i && !moved_flag[v])
                .map(|v| (layering.level[v].min(u32::MAX - 1), v as NodeId))
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
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use igp_graph::generators;

    fn cfg(p: usize) -> IgpConfig {
        IgpConfig::new(p)
    }

    #[test]
    fn integer_targets_distribute_remainder_to_largest() {
        // 10 vertices, 3 parts with counts [5, 3, 2] → base 3, rem 1 → the
        // largest part keeps the extra: targets [4, 3, 3].
        assert_eq!(integer_targets(&[5, 3, 2]), vec![4, 3, 3]);
        assert_eq!(integer_targets(&[2, 3, 5]), vec![3, 3, 4]);
        assert_eq!(integer_targets(&[4, 4]), vec![4, 4]);
    }

    #[test]
    fn scale_surplus_preserves_zero_sum() {
        let s = scale_surplus(&[7, -3, -4], 2);
        assert_eq!(s.iter().sum::<i64>(), 0);
        assert!(s[0] >= 2 && s[0] <= 4, "{s:?}");
        let s1 = scale_surplus(&[7, -3, -4], 1);
        assert_eq!(s1, vec![7, -3, -4]);
    }

    #[test]
    fn scale_surplus_large_delta_zeroes() {
        let s = scale_surplus(&[3, -3], 100);
        assert_eq!(s, vec![0, 0]);
    }

    #[test]
    fn paper_figure5_through_solver() {
        // The Figure 5 instance via the movement-LP interface.
        let pairs: Vec<(PartId, PartId)> = vec![
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
        let caps = vec![9u64, 7, 12, 10, 11, 3, 7, 9, 7, 5];
        let surplus = vec![8i64, 1, -1, -8];
        for solver in [
            BalanceSolver::DenseSimplex,
            BalanceSolver::BoundedSimplex,
            BalanceSolver::NetworkFlow,
        ] {
            let mut c = cfg(4);
            c.solver = solver;
            let (l, acc) = solve_movement(4, &pairs, Some(&caps), &surplus, &c).unwrap();
            assert_eq!(l.iter().sum::<i64>(), 9, "{solver:?}");
            assert_eq!(l[2], 8, "l03 via {solver:?}"); // direct 0→3
            assert_eq!(l[4], 1, "l12 via {solver:?}"); // direct 1→2
            assert!(acc.vars == 10);
        }
    }

    #[test]
    fn infeasible_when_caps_too_tight() {
        let pairs: Vec<(PartId, PartId)> = vec![(0, 1)];
        let caps = vec![2u64];
        let surplus = vec![5i64, -5];
        let c = cfg(2);
        assert!(matches!(
            solve_movement(2, &pairs, Some(&caps), &surplus, &c),
            Err(LpError::Infeasible)
        ));
    }

    #[test]
    fn balance_path_two_parts() {
        // Path of 10, lopsided 8/2 split → must end 5/5 with only boundary
        // vertices moved.
        let g = generators::path(10);
        let assign: Vec<PartId> = (0..10).map(|v| if v < 8 { 0 } else { 1 }).collect();
        let mut part = Partitioning::from_assignment(&g, 2, assign);
        let outcome = balance(&g, &mut part, &cfg(2));
        assert!(outcome.balanced);
        assert_eq!(part.count(0), 5);
        assert_eq!(part.count(1), 5);
        assert_eq!(outcome.total_moved, 3);
        // Contiguity preserved: moved vertices are 5, 6, 7.
        for v in 0..10u32 {
            assert_eq!(part.part_of(v), if v < 5 { 0 } else { 1 });
        }
    }

    #[test]
    fn balance_respects_adjacency_multihop() {
        // Three bands on a grid; band 0 overloaded, band 2 underloaded, the
        // flow must pass through band 1.
        let g = generators::grid(4, 12);
        let mut assign: Vec<PartId> = Vec::new();
        for v in 0..48 {
            let col = v % 12;
            assign.push(if col < 6 {
                0
            } else if col < 9 {
                1
            } else {
                2
            });
        }
        let mut part = Partitioning::from_assignment(&g, 3, assign);
        assert_eq!(part.counts(), &[24, 12, 12]);
        let outcome = balance(&g, &mut part, &cfg(3));
        assert!(outcome.balanced, "stages: {:?}", outcome.stages.len());
        assert_eq!(part.counts(), &[16, 16, 16]);
        // Partition 0 only borders 1, so everything must have flowed 0→1→2.
        assert!(outcome.total_moved >= 8 + 4);
    }

    #[test]
    fn already_balanced_is_noop() {
        let g = generators::cycle(12);
        let assign: Vec<PartId> = (0..12).map(|v| (v / 4) as PartId).collect();
        let mut part = Partitioning::from_assignment(&g, 3, assign);
        let outcome = balance(&g, &mut part, &cfg(3));
        assert!(outcome.balanced);
        assert_eq!(outcome.total_moved, 0);
        assert!(outcome.stages.is_empty());
    }

    #[test]
    fn multi_stage_on_tight_boundary() {
        // A "funnel": partition 0 has a big overload but only one boundary
        // vertex per stage can see partition 1 (a path), so λ caps force
        // multiple stages with δ > 1 or repeated small stages.
        let g = generators::path(16);
        let assign: Vec<PartId> = (0..16).map(|v| if v < 14 { 0 } else { 1 }).collect();
        let mut part = Partitioning::from_assignment(&g, 2, assign);
        let mut c = cfg(2);
        c.max_stages = 8;
        let outcome = balance(&g, &mut part, &c);
        // On a path λ_01 = 14 (every vertex layers toward the single
        // boundary), so this is single-stage; the point is the invariant:
        assert!(outcome.balanced);
        assert_eq!(part.count(0), 8);
        assert_eq!(part.count(1), 8);
    }

    #[test]
    fn relaxed_policy_always_one_stage() {
        let g = generators::grid(6, 8);
        let assign: Vec<PartId> = (0..48).map(|v| if v < 40 { 0 } else { 1 }).collect();
        let mut part = Partitioning::from_assignment(&g, 2, assign);
        let mut c = cfg(2);
        c.cap_policy = CapPolicy::Relaxed;
        let outcome = balance(&g, &mut part, &c);
        assert!(outcome.balanced);
        assert_eq!(outcome.stages.len(), 1);
        assert_eq!(part.count(0), 24);
    }

    #[test]
    fn network_and_simplex_agree_on_balance() {
        let g = generators::grid(5, 10);
        let assign: Vec<PartId> = (0..50).map(|v| if v % 10 < 7 { 0 } else { 1 }).collect();
        for solver in [
            BalanceSolver::DenseSimplex,
            BalanceSolver::BoundedSimplex,
            BalanceSolver::NetworkFlow,
        ] {
            let mut part = Partitioning::from_assignment(&g, 2, assign.clone());
            let mut c = cfg(2);
            c.solver = solver;
            let outcome = balance(&g, &mut part, &c);
            assert!(outcome.balanced, "{solver:?}");
            assert_eq!(part.count(0), 25, "{solver:?}");
            assert_eq!(outcome.total_moved, 10, "{solver:?}");
        }
    }

    #[test]
    fn adjacency_pairs_on_bands() {
        let g = generators::grid(3, 9);
        let assign: Vec<PartId> = (0..27).map(|v| ((v % 9) / 3) as PartId).collect();
        let pairs = adjacency_pairs(&g, &assign, 3);
        assert_eq!(pairs, vec![(0, 1), (1, 0), (1, 2), (2, 1)]);
    }
}
