//! The simplex kernel's regression pin: tableau size, per-phase pivot
//! counts and the optimal vertex `x` for the Figure 5 and Figure 8 LPs
//! and a fixed-seed set of [`common::random_transshipment`] instances,
//! in both cap modes, as captured from the three separate solvers the
//! kernel replaced (`Simplex`, `solve_bounded`, `parallel_simplex` at
//! commit f5bc994). Both LPs are network matrices, so every tableau entry
//! stays in {0, ±1} and the arithmetic is exact: any difference here is a
//! drifted tie-break (entering column, leaving row, artificial expulsion
//! order), never roundoff — fix the kernel, do not re-capture.

mod common;

use igp::lp::{circulation_lp, movement_lp, solve, solve_on, LpModel, LpSolution};
use igp::runtime::{CostModel, Machine, SharedMachine};

/// `(lp, partitions, instance seed, caps as rows?, (rows, cols, phase-1
/// pivots, phase-2 pivots, x))`.
type Pin = (
    &'static str,
    usize,
    u64,
    bool,
    (usize, usize, usize, usize, &'static [i64]),
);

#[rustfmt::skip]
const GOLDEN: &[Pin] = &[
    ("fig5", 4, 0x0, true, (14, 24, 3, 1, &[0, 0, 8, 0, 1, 0, 0, 0, 0, 0])),
    ("fig5", 4, 0x0, false, (4, 14, 3, 1, &[0, 0, 8, 0, 1, 0, 0, 0, 0, 0])),
    ("fig8", 4, 0x0, true, (14, 24, 0, 7, &[1, 1, 1, 2, 0, 0, 1, 1, 1, 1])),
    ("fig8", 4, 0x0, false, (4, 14, 0, 7, &[1, 1, 1, 1, 1, 0, 1, 1, 2, 0])),
    ("movement", 3, 0x243f1229d740, true, (9, 15, 2, 1, &[1, 0, 2, 0, 0, 1])),
    ("movement", 3, 0x243f1229d740, false, (3, 9, 2, 1, &[1, 0, 2, 0, 0, 1])),
    ("circulation", 3, 0x243f1229d740, true, (9, 15, 0, 4, &[9, 7, 7, 5, 3, 1])),
    ("circulation", 3, 0x243f1229d740, false, (3, 9, 0, 4, &[9, 7, 7, 5, 3, 1])),
    ("movement", 4, 0xc734fde173c6, true, (14, 24, 3, 1, &[0, 1, 0, 0, 1, 0, 0, 0, 1, 0])),
    ("movement", 4, 0xc734fde173c6, false, (4, 14, 3, 1, &[0, 1, 0, 0, 1, 0, 0, 0, 1, 0])),
    ("circulation", 4, 0xc734fde173c6, true, (14, 24, 0, 7, &[12, 9, 8, 2, 8, 2, 10, 7, 0, 3])),
    ("circulation", 4, 0xc734fde173c6, false, (4, 14, 0, 7, &[12, 9, 8, 2, 8, 2, 10, 7, 0, 3])),
    ("movement", 5, 0x67d00e8bccee, true, (16, 27, 5, 1, &[1, 0, 0, 0, 0, 3, 0, 3, 0, 0, 0])),
    ("movement", 5, 0x67d00e8bccee, false, (5, 16, 5, 1, &[1, 0, 0, 0, 0, 3, 0, 3, 0, 0, 0])),
    ("circulation", 5, 0x67d00e8bccee, true, (16, 27, 0, 7, &[1, 2, 0, 1, 2, 3, 1, 2, 11, 12, 0])),
    ("circulation", 5, 0x67d00e8bccee, false, (5, 16, 0, 7, &[1, 2, 0, 1, 2, 3, 1, 2, 11, 12, 0])),
    ("movement", 6, 0x3a1c5fc75e06, true, (21, 36, 6, 1, &[0, 0, 2, 0, 1, 0, 0, 0, 3, 0, 0, 1, 0, 0, 2])),
    ("movement", 6, 0x3a1c5fc75e06, false, (6, 21, 6, 1, &[0, 2, 2, 0, 1, 0, 0, 0, 1, 0, 0, 3, 0, 0, 0])),
    ("circulation", 6, 0x3a1c5fc75e06, true, (21, 36, 0, 8, &[0, 3, 5, 2, 12, 9, 5, 2, 3, 0, 3, 6, 0, 6, 0])),
    ("circulation", 6, 0x3a1c5fc75e06, false, (6, 21, 0, 8, &[0, 3, 5, 2, 12, 9, 5, 2, 3, 0, 3, 6, 0, 6, 0])),
    ("movement", 7, 0xfe67d1832dc3, true, (24, 41, 8, 1, &[0, 0, 0, 1, 0, 0, 0, 2, 2, 0, 1, 0, 1, 0, 0, 3, 0])),
    ("movement", 7, 0xfe67d1832dc3, false, (7, 24, 8, 1, &[0, 0, 0, 1, 0, 0, 0, 2, 2, 0, 1, 0, 1, 0, 0, 3, 0])),
    ("circulation", 7, 0xfe67d1832dc3, true, (24, 41, 0, 12, &[3, 5, 3, 2, 3, 2, 2, 2, 8, 8, 3, 2, 0, 2, 1, 3, 0])),
    ("circulation", 7, 0xfe67d1832dc3, false, (7, 24, 0, 11, &[3, 5, 3, 2, 3, 2, 2, 2, 8, 8, 3, 2, 0, 2, 1, 3, 0])),
    ("movement", 3, 0x665d3eb32ef9, true, (9, 15, 3, 1, &[0, 0, 0, 0, 2, 0])),
    ("movement", 3, 0x665d3eb32ef9, false, (3, 9, 3, 1, &[0, 0, 0, 0, 2, 0])),
    ("circulation", 3, 0x665d3eb32ef9, true, (9, 15, 0, 4, &[12, 8, 6, 2, 5, 1])),
    ("circulation", 3, 0x665d3eb32ef9, false, (3, 9, 0, 4, &[12, 8, 6, 2, 5, 1])),
    ("movement", 4, 0x3bb84cbbf7b0, true, (13, 22, 2, 0, &[0, 2, 0, 1, 0, 0, 0, 0, 0])),
    ("movement", 4, 0x3bb84cbbf7b0, false, (4, 13, 2, 0, &[0, 2, 0, 1, 0, 0, 0, 0, 0])),
    ("circulation", 4, 0x3bb84cbbf7b0, true, (13, 22, 0, 7, &[7, 4, 5, 9, 1, 5, 8, 5, 7])),
    ("circulation", 4, 0x3bb84cbbf7b0, false, (4, 13, 0, 7, &[7, 4, 5, 9, 1, 5, 8, 5, 7])),
    ("movement", 5, 0xc4b703192135, true, (15, 25, 4, 0, &[0, 0, 1, 0, 0, 0, 0, 1, 0, 0])),
    ("movement", 5, 0xc4b703192135, false, (5, 15, 4, 0, &[0, 0, 1, 0, 0, 0, 0, 1, 0, 0])),
    ("circulation", 5, 0xc4b703192135, true, (15, 25, 0, 7, &[1, 2, 4, 5, 0, 1, 9, 10, 2, 3])),
    ("circulation", 5, 0xc4b703192135, false, (5, 15, 0, 6, &[1, 2, 4, 5, 0, 1, 9, 10, 2, 3])),
    ("movement", 6, 0xad5a6717feb7, true, (21, 36, 6, 2, &[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1])),
    ("movement", 6, 0xad5a6717feb7, false, (6, 21, 6, 2, &[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1])),
    ("circulation", 6, 0xad5a6717feb7, true, (21, 36, 0, 10, &[9, 5, 7, 8, 6, 7, 2, 3, 11, 7, 9, 5, 0, 0, 5])),
    ("circulation", 6, 0xad5a6717feb7, false, (6, 21, 0, 11, &[9, 5, 7, 8, 6, 7, 2, 3, 11, 7, 9, 5, 0, 0, 5])),
    ("movement", 7, 0xa4474175c599, true, (25, 43, 6, 0, &[0, 0, 0, 2, 0, 2, 0, 2, 1, 0, 3, 0, 0, 0, 0, 0, 0, 0])),
    ("movement", 7, 0xa4474175c599, false, (7, 25, 6, 0, &[0, 0, 0, 2, 0, 2, 0, 2, 1, 0, 3, 0, 0, 0, 0, 0, 0, 0])),
    ("circulation", 7, 0xa4474175c599, true, (25, 43, 0, 13, &[0, 5, 3, 4, 2, 0, 2, 0, 7, 5, 6, 7, 4, 9, 3, 7, 4, 4])),
    ("circulation", 7, 0xa4474175c599, false, (7, 25, 0, 13, &[0, 5, 3, 8, 2, 4, 2, 4, 3, 5, 2, 7, 4, 9, 3, 7, 4, 0])),
    ("movement", 16, 0xaa20311c6d1, true, (61, 106, 19, 6, &[0, 1, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 2, 0, 2, 0, 0, 0, 1, 1, 0, 0, 0, 3, 1, 0, 0, 0, 0, 0, 0])),
    ("movement", 16, 0xaa20311c6d1, false, (16, 61, 19, 6, &[0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 2, 0, 0, 1, 0, 0, 0, 1, 0, 0, 2, 0, 2, 0, 2, 0, 0, 0, 2, 1, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0])),
    ("circulation", 16, 0xaa20311c6d1, true, (61, 106, 0, 28, &[0, 1, 2, 3, 4, 3, 3, 3, 1, 0, 0, 1, 4, 5, 2, 1, 3, 2, 4, 3, 11, 11, 2, 2, 10, 8, 4, 0, 2, 2, 2, 1, 2, 4, 2, 0, 3, 7, 0, 6, 2, 3, 2, 9, 4])),
    ("circulation", 16, 0xaa20311c6d1, false, (16, 61, 0, 28, &[0, 1, 2, 3, 4, 3, 3, 3, 1, 0, 0, 1, 4, 5, 2, 1, 3, 2, 4, 3, 11, 11, 2, 2, 10, 8, 4, 0, 2, 2, 2, 1, 2, 4, 2, 0, 3, 7, 0, 6, 2, 3, 2, 9, 4])),
    ("movement", 32, 0x3897e7add88d, true, (122, 212, 38, 21, &[0, 0, 0, 0, 0, 2, 0, 2, 0, 1, 2, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 3, 0, 3, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 1, 1, 0, 3, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 1, 0, 0, 1, 5, 0, 2, 0])),
    ("movement", 32, 0x3897e7add88d, false, (32, 122, 37, 20, &[0, 0, 0, 0, 0, 2, 0, 2, 0, 1, 2, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 3, 0, 3, 0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 1, 1, 0, 3, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 1, 0, 0, 1, 5, 0, 2, 0])),
    ("circulation", 32, 0x3897e7add88d, true, (122, 212, 0, 70, &[2, 0, 0, 3, 1, 5, 2, 3, 7, 8, 2, 3, 4, 4, 5, 4, 7, 8, 2, 3, 3, 1, 4, 4, 3, 3, 1, 0, 7, 6, 6, 5, 4, 3, 0, 5, 2, 6, 6, 6, 9, 9, 6, 6, 4, 5, 0, 1, 9, 5, 10, 6, 6, 2, 9, 9, 4, 9, 4, 9, 0, 9, 2, 5, 0, 3, 0, 6, 0, 2, 2, 1, 2, 0, 0, 0, 4, 11, 0, 0, 0, 5, 10, 5, 4, 0, 1, 0, 5, 0])),
    ("circulation", 32, 0x3897e7add88d, false, (32, 122, 0, 64, &[2, 0, 0, 3, 1, 5, 2, 3, 7, 8, 2, 3, 4, 6, 5, 4, 7, 8, 3, 3, 3, 1, 4, 4, 3, 3, 1, 0, 7, 6, 4, 5, 4, 5, 0, 5, 2, 6, 5, 6, 9, 10, 6, 4, 4, 5, 0, 1, 9, 5, 10, 6, 3, 2, 9, 9, 4, 9, 4, 9, 3, 9, 3, 5, 0, 2, 2, 4, 0, 4, 0, 3, 2, 0, 0, 1, 1, 11, 0, 3, 2, 5, 10, 5, 1, 0, 1, 0, 2, 0])),
];

/// The paper's 4-partition adjacency (Figures 5 and 8).
const FIG_ARCS: [(usize, usize); 10] = [
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

fn instance(lp: &str, p: usize, seed: u64) -> LpModel {
    match lp {
        "fig5" => {
            let caps = [9, 7, 12, 10, 11, 3, 7, 9, 7, 5];
            return movement_lp(4, &FIG_ARCS, Some(&caps), &[8, 1, -1, -8]);
        }
        "fig8" => return circulation_lp(4, &FIG_ARCS, &[1, 1, 1, 2, 1, 0, 1, 1, 2, 1]),
        _ => {}
    }
    let (_, arcs, surplus) = common::random_transshipment(p, seed);
    let pairs: Vec<(usize, usize)> = arcs.iter().map(|&(i, j, _)| (i, j)).collect();
    let caps: Vec<u64> = arcs.iter().map(|&(_, _, c)| c as u64).collect();
    match lp {
        "movement" => movement_lp(p, &pairs, Some(&caps), &surplus),
        "circulation" => circulation_lp(p, &pairs, &caps),
        other => panic!("unknown golden LP `{other}`"),
    }
}

#[test]
fn pivot_sequences_unchanged_on_every_executor_and_rank_count() {
    for &(lp, p, seed, caps_as_rows, (rows, cols, phase1, phase2, x)) in GOLDEN {
        let model = instance(lp, p, seed);
        let model = if caps_as_rows {
            model.caps_as_rows()
        } else {
            model
        };
        let tag = format!("{lp} p={p} seed={seed:#x} caps_as_rows={caps_as_rows}");
        let check = |s: &LpSolution, on: &str| {
            let st = s.stats;
            assert_eq!(
                (st.rows, st.cols, st.phase1_iters, st.phase2_iters),
                (rows, cols, phase1, phase2),
                "{tag} on {on}"
            );
            let want: Vec<f64> = x.iter().map(|&v| v as f64).collect();
            assert_eq!(s.x, want, "{tag} on {on}");
        };
        check(&solve(&model).unwrap(), "Solo");
        for w in [1usize, 2, 3, 5] {
            let (sim, _) = Machine::new(w, CostModel::cm5()).run(|ctx| solve_on(ctx, &model));
            let (shm, _) = SharedMachine::new(w).run(|ctx| solve_on(ctx, &model));
            for (r, out) in sim.iter().enumerate() {
                check(out.as_ref().unwrap(), &format!("Machine rank {r}/{w}"));
            }
            for (r, out) in shm.iter().enumerate() {
                check(
                    out.as_ref().unwrap(),
                    &format!("SharedMachine rank {r}/{w}"),
                );
            }
        }
    }
}
