//! Property tests: the simplex kernel (caps as rows — the paper's dense
//! formulation — and caps as native bounds) against the combinatorial
//! network-flow oracles on randomized instances of both paper LPs.

mod common;

use igp::lp::{flow, solve, LpModel};
use proptest::prelude::*;

/// Random transshipment instance: `p` partitions on a ring plus random
/// chords, random caps, random balanced surplus.
fn transshipment_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize, i64)>, Vec<i64>)> {
    (3usize..8, any::<u64>()).prop_map(|(p, seed)| common::random_transshipment(p, seed))
}

fn balance_lp(p: usize, arcs: &[(usize, usize, i64)], surplus: &[i64]) -> LpModel {
    let mut m = LpModel::minimize(arcs.len());
    for (k, &(_, _, cap)) in arcs.iter().enumerate() {
        m.set_objective(k, 1.0);
        m.set_upper_bound(k, cap as f64);
    }
    for q in 0..p {
        let mut row = Vec::new();
        for (k, &(i, j, _)) in arcs.iter().enumerate() {
            if i == q {
                row.push((k, 1.0));
            } else if j == q {
                row.push((k, -1.0));
            }
        }
        m.add_eq(row, surplus[q] as f64);
    }
    m
}

proptest! {
    #![proptest_config(common::tier1_config(64))]

    /// Simplex and min-cost-flow agree on feasibility AND optimal value of
    /// the balance LP; simplex solutions are feasible and integral.
    #[test]
    fn simplex_matches_flow_oracle((p, arcs, surplus) in transshipment_strategy()) {
        let model = balance_lp(p, &arcs, &surplus);
        let oracle = flow::min_movement_transshipment(p, &arcs, &surplus);
        match solve(&model.caps_as_rows()) {
            Ok(sol) => {
                let (cost, _) = oracle.expect("simplex feasible but oracle infeasible");
                prop_assert!((sol.objective - cost as f64).abs() < 1e-6,
                    "objective {} vs oracle {}", sol.objective, cost);
                model.check_feasible(&sol.x, 1e-6).unwrap();
                for &v in &sol.x {
                    prop_assert!((v - v.round()).abs() < 1e-6, "non-integral {v}");
                }
                // Native bounds must agree too.
                let bd = solve(&model).expect("bounded solver disagrees");
                prop_assert!((bd.objective - cost as f64).abs() < 1e-6,
                    "bounded objective {} vs oracle {}", bd.objective, cost);
                model.check_feasible(&bd.x, 1e-6).unwrap();
            }
            Err(igp::lp::LpError::Infeasible) => {
                prop_assert!(oracle.is_none(), "oracle feasible but simplex infeasible");
                prop_assert_eq!(
                    solve(&model).err(),
                    Some(igp::lp::LpError::Infeasible)
                );
            }
            Err(e) => return Err(TestCaseError::fail(format!("solver error {e}"))),
        }
    }

    /// Simplex and cycle-cancelling agree on the max-circulation value of
    /// the refinement LP.
    #[test]
    fn circulation_matches_oracle((p, arcs, _) in transshipment_strategy()) {
        let (oracle_total, _) = flow::max_circulation(p, &arcs);
        let mut m = LpModel::maximize(arcs.len());
        for (k, &(_, _, cap)) in arcs.iter().enumerate() {
            m.set_objective(k, 1.0);
            m.set_upper_bound(k, cap as f64);
        }
        for q in 0..p {
            let mut row = Vec::new();
            for (k, &(i, j, _)) in arcs.iter().enumerate() {
                if i == q { row.push((k, 1.0)); } else if j == q { row.push((k, -1.0)); }
            }
            if !row.is_empty() {
                m.add_eq(row, 0.0);
            }
        }
        let sol = solve(&m.caps_as_rows()).unwrap();
        prop_assert!((sol.objective - oracle_total as f64).abs() < 1e-6,
            "simplex {} vs cycle-cancelling {}", sol.objective, oracle_total);
        m.check_feasible(&sol.x, 1e-6).unwrap();
    }

    /// Random small LPs: any returned optimum is primal feasible, and
    /// maximization/minimization are consistent under objective negation.
    #[test]
    fn sense_negation_consistency(
        n in 1usize..5,
        coeffs in prop::collection::vec(-5.0f64..5.0, 1..5),
        rhs in prop::collection::vec(0.5f64..10.0, 1..5),
    ) {
        let mut maxm = LpModel::maximize(n);
        let mut minm = LpModel::minimize(n);
        for i in 0..n {
            let c = coeffs[i % coeffs.len()];
            maxm.set_objective(i, c);
            minm.set_objective(i, -c);
            maxm.set_upper_bound(i, 7.0);
            minm.set_upper_bound(i, 7.0);
        }
        for (r, &b) in rhs.iter().enumerate() {
            let row: Vec<(usize, f64)> =
                (0..n).map(|i| (i, 1.0 + ((r + i) % 3) as f64)).collect();
            maxm.add_le(row.clone(), b * n as f64);
            minm.add_le(row, b * n as f64);
        }
        let a = solve(&maxm.caps_as_rows()).unwrap();
        let b = solve(&minm.caps_as_rows()).unwrap();
        prop_assert!((a.objective + b.objective).abs() < 1e-6,
            "max {} vs -min {}", a.objective, -b.objective);
        maxm.check_feasible(&a.x, 1e-6).unwrap();
    }
}
