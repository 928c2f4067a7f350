//! Repartition policies: *when* is incremental repartitioning worth it?
//!
//! Ou & Ranka frame repartitioning as an economic decision inside a
//! solver loop: "the remapping must have a lower cost relative to the
//! computational cost of executing the few iterations for which the
//! computational structure remains fixed." The serving layer makes that
//! trigger explicit. Every queued delta widens the gap between the
//! stale partition and the evolving graph; a [`RepartitionPolicy`]
//! inspects the coalesced pending edit ([`DirtStats`]) and decides
//! whether the next delta tips the balance.
//!
//! Three policies, from crude to the paper's cost argument:
//!
//! * [`RepartitionPolicy::EveryK`] — repartition after every `k`-th
//!   delta (`k = 1` is the paper's per-increment loop);
//! * [`RepartitionPolicy::DirtFraction`] — repartition once the net
//!   edit touches ≥ `θ` of the current vertices;
//! * [`RepartitionPolicy::CostModelDriven`] — compare the estimated
//!   simulated-time cost of a repartition against the accumulated
//!   imbalance penalty of *not* repartitioning, both priced with the
//!   [`CostModel`] the SPMD backends charge (DESIGN.md §8.2).

use igp_graph::DirtStats;
use igp_runtime::CostModel;
use std::fmt;
use std::str::FromStr;

/// Everything a policy may consult: the session's current (flushed)
/// graph and the coalesced pending edit.
#[derive(Clone, Copy, Debug)]
pub struct PolicyView {
    /// Vertices of the current (last flushed) graph.
    pub n_current: usize,
    /// Total vertex weight of the current graph.
    pub total_weight: u64,
    /// Partition count `P`.
    pub parts: usize,
    /// Net pending edit.
    pub dirt: DirtStats,
}

/// Parameters of the cost-model-driven trigger.
///
/// The model (per queued delta, i.e. per solver episode executed on the
/// stale partition):
///
/// * the unassimilated edit leaves at worst `excess = added_weight ·
///   (P−1)/P + removed_avg_weight · removed_vertices` extra work on one
///   partition (growth all lands in one partition's neighbourhood; a
///   removal idles the other partitions by the average vertex weight);
/// * each solver episode therefore wastes `t_work · excess ·
///   solver_iters_per_delta` seconds of makespan;
/// * a repartition costs `t_work · remap_work_per_vertex · n` compute
///   plus an all-to-all of the assignment, `P(P−1)` messages of `n/P`
///   words.
///
/// Flush when the accumulated waste exceeds the repartition cost.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostTrigger {
    /// Cost constants (defaults to [`CostModel::cm5`], the same
    /// constants the simulated backend charges).
    pub cost: CostModel,
    /// Solver iterations executed between consecutive deltas.
    pub solver_iters_per_delta: f64,
    /// Charged work units per vertex for one IGP repartition pass
    /// (assign + layer + LP solves, amortized).
    pub remap_work_per_vertex: f64,
}

impl Default for CostTrigger {
    fn default() -> Self {
        CostTrigger {
            cost: CostModel::cm5(),
            solver_iters_per_delta: 10.0,
            remap_work_per_vertex: 40.0,
        }
    }
}

impl CostTrigger {
    /// Estimated simulated seconds one repartition costs.
    pub fn remap_cost(&self, view: &PolicyView) -> f64 {
        let n = view.n_current.max(1) as f64;
        let p = view.parts.max(1) as f64;
        let compute = self.cost.t_work * self.remap_work_per_vertex * n;
        let exchange = p * (p - 1.0) * self.cost.msg_cost((n / p).ceil() as u64);
        compute + exchange
    }

    /// Estimated simulated seconds wasted so far by computing on the
    /// stale partition instead of repartitioning.
    pub fn accumulated_staleness(&self, view: &PolicyView) -> f64 {
        let p = view.parts.max(1) as f64;
        let avg_w = view.total_weight as f64 / view.n_current.max(1) as f64;
        let excess = view.dirt.added_weight as f64 * (p - 1.0) / p
            + view.dirt.removed_vertices as f64 * avg_w;
        self.cost.t_work * excess * self.solver_iters_per_delta * view.dirt.deltas as f64
    }
}

/// When to fold the pending deltas into the partition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RepartitionPolicy {
    /// Repartition after every `k`-th queued delta.
    EveryK(usize),
    /// Repartition once the net edit touches at least this fraction of
    /// the current vertices.
    DirtFraction(f64),
    /// The paper's trigger made explicit: repartition as soon as the
    /// accumulated staleness penalty exceeds the estimated remap cost.
    CostModelDriven(CostTrigger),
}

impl RepartitionPolicy {
    /// Should the session flush now? Evaluated after each queued delta.
    pub fn should_flush(&self, view: &PolicyView) -> bool {
        if view.dirt.deltas == 0 {
            return false;
        }
        match *self {
            RepartitionPolicy::EveryK(k) => view.dirt.deltas >= k.max(1),
            RepartitionPolicy::DirtFraction(theta) => {
                view.dirt.touched_vertices as f64 >= theta * view.n_current.max(1) as f64
            }
            RepartitionPolicy::CostModelDriven(t) => {
                t.accumulated_staleness(view) >= t.remap_cost(view)
            }
        }
    }
}

impl Default for RepartitionPolicy {
    fn default() -> Self {
        RepartitionPolicy::EveryK(1)
    }
}

impl fmt::Display for RepartitionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RepartitionPolicy::EveryK(k) => write!(f, "every:{k}"),
            RepartitionPolicy::DirtFraction(t) => write!(f, "dirt:{t}"),
            RepartitionPolicy::CostModelDriven(t) => write!(
                f,
                "cost:{}:{}",
                t.solver_iters_per_delta, t.remap_work_per_vertex
            ),
        }
    }
}

impl FromStr for RepartitionPolicy {
    type Err = String;

    /// Parse the protocol's policy spec: `every:<k>`, `dirt:<θ>`,
    /// `cost`, `cost:<iters>` or `cost:<iters>:<work-per-vertex>`
    /// (always with CM-5 cost constants).
    fn from_str(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let kind = parts.next().unwrap_or("");
        let parsed = match kind {
            "every" => {
                let k: usize = parts
                    .next()
                    .ok_or("every needs :<k>")?
                    .parse()
                    .map_err(|e| format!("bad every:<k>: {e}"))?;
                if k == 0 {
                    return Err("every:<k> must be ≥ 1".into());
                }
                RepartitionPolicy::EveryK(k)
            }
            "dirt" => {
                let t: f64 = parts
                    .next()
                    .ok_or("dirt needs :<theta>")?
                    .parse()
                    .map_err(|e| format!("bad dirt:<theta>: {e}"))?;
                if t <= 0.0 || !t.is_finite() {
                    return Err("dirt:<theta> must be a positive number".into());
                }
                RepartitionPolicy::DirtFraction(t)
            }
            "cost" => {
                let mut trig = CostTrigger::default();
                if let Some(iters) = parts.next() {
                    trig.solver_iters_per_delta = iters
                        .parse()
                        .map_err(|e| format!("bad cost:<iters>: {e}"))?;
                }
                if let Some(work) = parts.next() {
                    trig.remap_work_per_vertex = work
                        .parse()
                        .map_err(|e| format!("bad cost:<iters>:<work>: {e}"))?;
                }
                // NaN and ∞ would never fire (`NaN >= x` is false) and
                // cannot round-trip through the config line (NaN ≠ NaN).
                let positive = |x: f64| x > 0.0 && x.is_finite();
                if !positive(trig.solver_iters_per_delta) || !positive(trig.remap_work_per_vertex) {
                    return Err("cost parameters must be positive numbers".into());
                }
                RepartitionPolicy::CostModelDriven(trig)
            }
            other => return Err(format!("unknown policy kind `{other}`")),
        };
        if parts.next().is_some() {
            return Err(format!("trailing fields in policy spec `{s}`"));
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(deltas: usize, touched: usize, added_weight: u64) -> PolicyView {
        PolicyView {
            n_current: 1000,
            total_weight: 1000,
            parts: 8,
            dirt: DirtStats {
                deltas,
                added_vertices: touched / 2,
                added_weight,
                touched_vertices: touched,
                ..Default::default()
            },
        }
    }

    #[test]
    fn every_k_counts_deltas() {
        let p = RepartitionPolicy::EveryK(3);
        assert!(!p.should_flush(&view(1, 5, 5)));
        assert!(!p.should_flush(&view(2, 50, 50)));
        assert!(p.should_flush(&view(3, 5, 5)));
        // k = 1 flushes on every delta (the paper's loop).
        assert!(RepartitionPolicy::EveryK(1).should_flush(&view(1, 1, 1)));
    }

    #[test]
    fn dirt_fraction_thresholds_touched_vertices() {
        let p = RepartitionPolicy::DirtFraction(0.05);
        assert!(!p.should_flush(&view(4, 49, 49)));
        assert!(p.should_flush(&view(4, 50, 50)));
    }

    #[test]
    fn cost_model_accumulates_until_remap_pays() {
        let trig = CostTrigger::default();
        let p = RepartitionPolicy::CostModelDriven(trig);
        // A tiny edit after one delta: staleness ≪ remap cost.
        assert!(!p.should_flush(&view(1, 2, 2)));
        // The same per-delta edit rate eventually tips the balance as
        // deltas (episodes on the stale partition) accumulate.
        let mut flushed_at = None;
        for k in 1..200 {
            if p.should_flush(&view(k, 2 * k, (2 * k) as u64)) {
                flushed_at = Some(k);
                break;
            }
        }
        let k = flushed_at.expect("cost trigger never fired");
        assert!(k > 1, "fired immediately: not accumulating");
        // Monotone in the trigger parameters: cheaper remap fires earlier.
        let cheap = RepartitionPolicy::CostModelDriven(CostTrigger {
            remap_work_per_vertex: 4.0,
            ..trig
        });
        let mut cheap_at = None;
        for j in 1..200 {
            if cheap.should_flush(&view(j, 2 * j, (2 * j) as u64)) {
                cheap_at = Some(j);
                break;
            }
        }
        assert!(cheap_at.unwrap() <= k);
    }

    #[test]
    fn nothing_pending_never_flushes() {
        for p in [
            RepartitionPolicy::EveryK(1),
            RepartitionPolicy::DirtFraction(0.0001),
            RepartitionPolicy::CostModelDriven(CostTrigger::default()),
        ] {
            assert!(!p.should_flush(&view(0, 0, 0)));
        }
    }

    #[test]
    fn spec_roundtrip() {
        for spec in ["every:1", "every:8", "dirt:0.05", "cost:10:40"] {
            let p: RepartitionPolicy = spec.parse().unwrap();
            assert_eq!(p.to_string(), spec);
        }
        assert_eq!(
            "cost".parse::<RepartitionPolicy>().unwrap(),
            RepartitionPolicy::CostModelDriven(CostTrigger::default())
        );
        for bad in [
            "",
            "every",
            "every:0",
            "dirt:-1",
            "cost:0",
            "cost:NaN",
            "cost:inf",
            "cost:10:NaN",
            "nope:3",
            "every:2:3",
        ] {
            assert!(bad.parse::<RepartitionPolicy>().is_err(), "{bad}");
        }
    }
}
