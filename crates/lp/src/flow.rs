//! Network-flow solvers.
//!
//! Both LPs in the paper are integral network problems: the load-balancing
//! step (eq. 10–12) is a minimum-cost transshipment on the partition
//! adjacency graph (unit cost per moved vertex per hop), and the refinement
//! step (eq. 14–16) is a maximum circulation, or a maximum-weight one
//! under the refine round's gain objective. This module provides direct
//! combinatorial solvers for both:
//!
//! * as **independent oracles** for property-testing the dense simplex, and
//! * as an **ablation comparator** (`benchmark/`'s `lp.*_flow_us` rows):
//!   the paper remarks their dense simplex dominates total runtime and
//!   that sparse/structured approaches "can substantially reduce" the
//!   cost — these are that structured alternative.

/// A directed flow network with per-arc capacity and cost, stored as a
/// paired residual edge list (`edge ^ 1` is the reverse arc).
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    n: usize,
    first: Vec<Vec<u32>>,
    to: Vec<u32>,
    cap: Vec<i64>,
    cost: Vec<i64>,
}

impl FlowNetwork {
    /// An empty network on `n` nodes.
    pub fn new(n: usize) -> Self {
        FlowNetwork {
            n,
            first: vec![Vec::new(); n],
            to: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
        }
    }

    /// Add arc `u → v` with capacity `cap ≥ 0` and per-unit cost `cost`.
    /// Returns the arc id (use with [`FlowNetwork::flow_on`]).
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64, cost: i64) -> usize {
        assert!(u < self.n && v < self.n && u != v, "bad arc {u}->{v}");
        assert!(cap >= 0);
        let id = self.to.len();
        self.first[u].push(id as u32);
        self.to.push(v as u32);
        self.cap.push(cap);
        self.cost.push(cost);
        self.first[v].push(id as u32 + 1);
        self.to.push(u as u32);
        self.cap.push(0);
        self.cost.push(-cost);
        id
    }

    /// Flow currently routed on arc `id` (reverse residual capacity).
    pub fn flow_on(&self, id: usize) -> i64 {
        self.cap[id ^ 1]
    }

    /// Minimum-cost maximum flow from `s` to `t` via successive shortest
    /// paths (SPFA; arc costs may be negative as long as no negative cycle
    /// is reachable with residual capacity). Returns `(flow, cost)`.
    pub fn min_cost_max_flow(&mut self, s: usize, t: usize) -> (i64, i64) {
        let mut flow = 0i64;
        let mut cost = 0i64;
        loop {
            let (dist, pred) = self.spfa(s);
            if dist[t] == i64::MAX {
                return (flow, cost);
            }
            let mut push = i64::MAX;
            let mut v = t;
            while v != s {
                let e = pred[v] as usize;
                push = push.min(self.cap[e]);
                v = self.to[e ^ 1] as usize;
            }
            let mut v = t;
            while v != s {
                let e = pred[v] as usize;
                self.cap[e] -= push;
                self.cap[e ^ 1] += push;
                v = self.to[e ^ 1] as usize;
            }
            flow += push;
            cost += push * dist[t];
        }
    }

    /// SPFA single-source shortest residual distances and predecessor arcs.
    fn spfa(&self, s: usize) -> (Vec<i64>, Vec<u32>) {
        let mut dist = vec![i64::MAX; self.n];
        let mut pred = vec![u32::MAX; self.n];
        let mut inq = vec![false; self.n];
        let mut queue = std::collections::VecDeque::new();
        dist[s] = 0;
        queue.push_back(s);
        inq[s] = true;
        while let Some(u) = queue.pop_front() {
            inq[u] = false;
            for &e in &self.first[u] {
                let ei = e as usize;
                if self.cap[ei] <= 0 {
                    continue;
                }
                let v = self.to[ei] as usize;
                let nd = dist[u] + self.cost[ei];
                if nd < dist[v] {
                    dist[v] = nd;
                    pred[v] = e;
                    if !inq[v] {
                        inq[v] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        (dist, pred)
    }

    /// Cancel all negative-cost residual cycles (Klein's algorithm) and
    /// return the total cost improvement. Used for min-cost *circulation*
    /// problems (no source/sink).
    pub fn cancel_negative_cycles(&mut self) -> i64 {
        let mut improved = 0i64;
        while let Some(cycle) = self.find_negative_cycle() {
            let mut push = i64::MAX;
            for &e in &cycle {
                push = push.min(self.cap[e as usize]);
            }
            debug_assert!(push > 0);
            let mut gain = 0i64;
            for &e in &cycle {
                self.cap[e as usize] -= push;
                self.cap[e as usize ^ 1] += push;
                gain += self.cost[e as usize];
            }
            improved += gain * push;
        }
        improved
    }

    /// Bellman–Ford negative-cycle detection over the residual graph.
    /// Returns the arc ids of one negative cycle, if any.
    fn find_negative_cycle(&self) -> Option<Vec<u32>> {
        let n = self.n;
        // Virtual super-source: dist 0 everywhere.
        let mut dist = vec![0i64; n];
        let mut pred = vec![u32::MAX; n];
        let mut updated_node = None;
        for round in 0..n {
            updated_node = None;
            for u in 0..n {
                if dist[u] == i64::MAX {
                    continue;
                }
                for &e in &self.first[u] {
                    let ei = e as usize;
                    if self.cap[ei] <= 0 {
                        continue;
                    }
                    let v = self.to[ei] as usize;
                    let nd = dist[u] + self.cost[ei];
                    if nd < dist[v] {
                        dist[v] = nd;
                        pred[v] = e;
                        updated_node = Some(v);
                    }
                }
            }
            updated_node?;
            let _ = round;
        }
        // A node updated in round n lies on or downstream of a negative
        // cycle: walk predecessors n steps to land inside the cycle.
        let mut v = updated_node?;
        for _ in 0..n {
            v = self.to[pred[v] as usize ^ 1] as usize;
        }
        let start = v;
        let mut cycle = Vec::new();
        loop {
            let e = pred[v];
            cycle.push(e);
            v = self.to[e as usize ^ 1] as usize;
            if v == start {
                break;
            }
        }
        cycle.reverse();
        Some(cycle)
    }
}

/// Solve the paper's **load-balancing problem** combinatorially: given the
/// per-pair movement caps `caps[(i,j)]` and the per-partition surplus
/// `surplus[j] = |B'(j)| − target_j` (positive = must shed vertices),
/// find flows `l_ij` minimizing `Σ l_ij` (unit cost per hop).
///
/// Returns `None` if infeasible, else `(total_movement, l)` with `l`
/// aligned to `arcs`.
pub fn min_movement_transshipment(
    num_parts: usize,
    arcs: &[(usize, usize, i64)],
    surplus: &[i64],
) -> Option<(i64, Vec<i64>)> {
    assert_eq!(surplus.len(), num_parts);
    debug_assert_eq!(surplus.iter().sum::<i64>(), 0, "surpluses must net to zero");
    let s = num_parts;
    let t = num_parts + 1;
    let mut net = FlowNetwork::new(num_parts + 2);
    let ids: Vec<usize> = arcs
        .iter()
        .map(|&(u, v, cap)| net.add_edge(u, v, cap, 1))
        .collect();
    let mut need = 0i64;
    for (j, &b) in surplus.iter().enumerate() {
        if b > 0 {
            net.add_edge(s, j, b, 0);
            need += b;
        } else if b < 0 {
            net.add_edge(j, t, -b, 0);
        }
    }
    let (flow, cost) = net.min_cost_max_flow(s, t);
    if flow < need {
        return None;
    }
    let l = ids.iter().map(|&id| net.flow_on(id)).collect();
    Some((cost, l))
}

/// Solve the paper's **refinement problem** combinatorially: maximize
/// `Σ l_ij` subject to per-arc caps and zero net flow at every node.
/// [`max_weight_circulation`] with unit weights; returns
/// `(total_movement, l)` aligned to `arcs`.
pub fn max_circulation(num_parts: usize, arcs: &[(usize, usize, i64)]) -> (i64, Vec<i64>) {
    max_weight_circulation(num_parts, arcs, &vec![1; arcs.len()])
}

/// A maximum-weight circulation: maximize `Σ weights[k] · l_k` subject
/// to per-arc caps and zero net flow at every node (cost `−weights[k]`
/// per unit on arc `k`, then cancel negative cycles). Returns
/// `(Σ weights[k] · l_k, l)` with `l` aligned to `arcs`.
pub fn max_weight_circulation(
    num_parts: usize,
    arcs: &[(usize, usize, i64)],
    weights: &[i64],
) -> (i64, Vec<i64>) {
    let mut net = FlowNetwork::new(num_parts);
    let ids: Vec<usize> = arcs
        .iter()
        .zip(weights)
        .map(|(&(u, v, cap), &w)| net.add_edge(u, v, cap, -w))
        .collect();
    let improvement = net.cancel_negative_cycles();
    let l: Vec<i64> = ids.iter().map(|&id| net.flow_on(id)).collect();
    debug_assert_eq!(
        -improvement,
        l.iter().zip(weights).map(|(x, w)| x * w).sum::<i64>()
    );
    (-improvement, l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mcmf_prefers_cheap_path() {
        // Two parallel routes 0→3: via 1 (cost 1+1), via 2 (cost 5+5).
        let mut n = FlowNetwork::new(4);
        let a = n.add_edge(0, 1, 10, 1);
        n.add_edge(1, 3, 10, 1);
        let b = n.add_edge(0, 2, 10, 5);
        n.add_edge(2, 3, 10, 5);
        let (flow, cost) = n.min_cost_max_flow(0, 3);
        assert_eq!(flow, 20);
        assert_eq!(cost, 10 * 2 + 10 * 10);
        assert_eq!(n.flow_on(a), 10);
        assert_eq!(n.flow_on(b), 10);
    }

    #[test]
    fn transshipment_paper_figure5() {
        // Figure 5: caps on adjacent pairs, surplus (+8, +1, -1, -8).
        let arcs = [
            (0usize, 1usize, 9i64),
            (0, 2, 7),
            (0, 3, 12),
            (1, 0, 10),
            (1, 2, 11),
            (2, 0, 3),
            (2, 1, 7),
            (2, 3, 9),
            (3, 0, 7),
            (3, 2, 5),
        ];
        let (cost, l) = min_movement_transshipment(4, &arcs, &[8, 1, -1, -8]).unwrap();
        assert_eq!(cost, 9);
        assert_eq!(l[2], 8); // l03
        assert_eq!(l[4], 1); // l12
    }

    #[test]
    fn transshipment_infeasible_when_caps_too_small() {
        // Partition 0 must shed 5 but the only outgoing cap is 3.
        let arcs = [(0usize, 1usize, 3i64)];
        assert!(min_movement_transshipment(2, &arcs, &[5, -5]).is_none());
    }

    #[test]
    fn transshipment_multi_hop() {
        // 0 must shed 4, 2 must gain 4; only route is through 1.
        let arcs = [(0usize, 1usize, 4i64), (1, 2, 10)];
        let (cost, l) = min_movement_transshipment(3, &arcs, &[4, 0, -4]).unwrap();
        assert_eq!(cost, 8); // 4 units × 2 hops
        assert_eq!(l, vec![4, 4]);
    }

    #[test]
    fn circulation_paper_figure8() {
        let arcs = [
            (0usize, 1usize, 1i64),
            (0, 2, 1),
            (0, 3, 1),
            (1, 0, 2),
            (1, 2, 1),
            (2, 0, 0),
            (2, 1, 1),
            (2, 3, 1),
            (3, 0, 2),
            (3, 2, 1),
        ];
        let (total, l) = max_circulation(4, &arcs);
        assert_eq!(total, 9);
        // Conservation at every node.
        let mut net = vec![0i64; 4];
        for (k, &(u, v, _)) in arcs.iter().enumerate() {
            net[u] += l[k];
            net[v] -= l[k];
        }
        assert_eq!(net, vec![0, 0, 0, 0]);
        // Caps respected.
        for (k, &(_, _, c)) in arcs.iter().enumerate() {
            assert!(l[k] <= c);
        }
    }

    #[test]
    fn circulation_empty_when_no_cycles() {
        // A DAG has no circulation.
        let arcs = [(0usize, 1usize, 5i64), (1, 2, 5), (0, 2, 5)];
        let (total, l) = max_circulation(3, &arcs);
        assert_eq!(total, 0);
        assert_eq!(l, vec![0, 0, 0]);
    }

    #[test]
    fn circulation_simple_cycle() {
        let arcs = [(0usize, 1usize, 3i64), (1, 2, 4), (2, 0, 2)];
        let (total, l) = max_circulation(3, &arcs);
        assert_eq!(total, 6); // bottleneck 2, three arcs
        assert_eq!(l, vec![2, 2, 2]);
    }

    #[test]
    fn weighted_circulation_skips_a_cycle_of_negative_weight() {
        // Two 2-cycles through node 0: weights 3 − 1 (worth taking) and
        // 1 − 2 (not).
        let arcs = [(0usize, 1usize, 2i64), (1, 0, 2), (0, 2, 5), (2, 0, 5)];
        let (total, l) = max_weight_circulation(3, &arcs, &[3, -1, 1, -2]);
        assert_eq!(l, vec![2, 2, 0, 0]);
        assert_eq!(total, 4);
    }

    #[test]
    fn flow_on_reports_zero_initially() {
        let mut n = FlowNetwork::new(2);
        let e = n.add_edge(0, 1, 7, 0);
        assert_eq!(n.flow_on(e), 0);
        assert_eq!(n.min_cost_max_flow(0, 1), (7, 0));
        assert_eq!(n.flow_on(e), 7);
    }
}
