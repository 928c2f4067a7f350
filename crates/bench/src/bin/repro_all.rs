//! Runs every reproduction experiment in one pass (E1–E3 via the other
//! binaries' code paths, plus the worked-LP checks E4/E5 and the LP-size
//! accounting E7) and prints a combined report. Used to fill
//! `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p igp-bench --release --bin repro_all [seed]
//! ```

use igp_bench::experiments::{run_sequence_experiment, run_speedup_experiment};
use igp_bench::tables::{full_table, speedup_table};
use igp_lp::{circulation_lp, movement_lp, solve};
use igp_mesh::sequence::{paper_sequence_a, paper_sequence_b};
use igp_spectral::{recursive_spectral_bisection, RsbOptions};

/// The 4-partition adjacency of the paper's worked examples: variables
/// l01 l02 l03 l10 l12 l20 l21 l23 l30 l32.
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

fn check_figure5() {
    let caps = [9, 7, 12, 10, 11, 3, 7, 9, 7, 5];
    let m = movement_lp(4, &FIG_ARCS, Some(&caps), &[8, 1, -1, -8]);
    let s = solve(&m.caps_as_rows()).unwrap();
    println!(
        "E4 (paper Figure 5 LP): objective = {} (paper: l03=8, l12=1, total 9) -> {}",
        s.objective,
        if (s.objective - 9.0).abs() < 1e-6 && (s.x[2] - 8.0).abs() < 1e-6 {
            "MATCHES"
        } else {
            "MISMATCH"
        }
    );
}

fn check_figure8() {
    let m = circulation_lp(4, &FIG_ARCS, &[1, 1, 1, 2, 1, 0, 1, 1, 2, 1]);
    let s = solve(&m.caps_as_rows()).unwrap();
    println!(
        "E5 (paper Figure 8 LP): objective = {} (LP optimum 9; the paper prints a \
         solution totalling 8 with a per-node conservation typo) -> {}",
        s.objective,
        if (s.objective - 9.0).abs() < 1e-6 {
            "LP OPTIMUM CONFIRMED"
        } else {
            "MISMATCH"
        }
    );
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let parts = 32;
    println!("================ repro_all (seed {seed}, P = {parts}) ================\n");
    check_figure5();
    check_figure8();

    println!("\n---------------- E1: Figure 11 (test set A) ----------------");
    let seq_a = paper_sequence_a(seed);
    let (base_a, steps_a) = run_sequence_experiment(&seq_a, parts);
    println!(
        "{}",
        full_table(
            "A",
            seq_a.base.num_vertices(),
            seq_a.base.num_edges(),
            &base_a,
            &steps_a
        )
    );
    // E7: LP sizes (paper: v = 188, c = 126 for the first increment).
    let (v, c) = steps_a[0].rows[1].lp_size;
    println!("E7: balance LP size on A1 = {v} vars x {c} constraints (paper: 188 x 126)");

    println!("\n---------------- E2: Figure 14 (test set B) ----------------");
    let seq_b = paper_sequence_b(seed);
    let (base_b, steps_b) = run_sequence_experiment(&seq_b, parts);
    println!(
        "{}",
        full_table(
            "B",
            seq_b.base.num_vertices(),
            seq_b.base.num_edges(),
            &base_b,
            &steps_b
        )
    );
    println!(
        "stage counts: {:?} (paper: [1, 1, 2, 3])",
        steps_b.iter().map(|s| s.rows[1].stages).collect::<Vec<_>>()
    );

    println!("\n---------------- E3: speedup ----------------");
    let old_a = recursive_spectral_bisection(&seq_a.base, parts, RsbOptions::paper());
    let pts = run_speedup_experiment(
        &seq_a.steps[0].inc,
        &old_a,
        parts,
        &[1, 2, 4, 8, 16, 32],
        false,
    );
    println!("{}", speedup_table("test A step 1, IGP", &pts));
    println!(
        "32-worker modeled speedup: {:.1}x (paper claims 15-20x)",
        pts.last().unwrap().model_speedup
    );
}
