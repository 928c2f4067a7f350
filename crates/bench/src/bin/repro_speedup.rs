//! Regenerates the paper's in-text parallel-speedup claim (experiment E3):
//! "The algorithm provides speedup of around 15 to 20 on a 32 node CM-5."
//!
//! Sweeps SPMD worker counts 1..32 on an increment from each test set and
//! prints the per-worker times plus speedup. The substrate is selectable
//! (DESIGN.md §6): under `sim-cm5` the sweep reports simulated CM-5 times
//! (cost model: DESIGN.md §4); under `shared-mem` it reports real wall
//! time on this host, bounded by the core count.
//!
//! ```text
//! cargo run -p igp-bench --release --bin repro_speedup [seed] [parts] [backend]
//! ```
//!
//! `backend` is `sim-cm5` (default) or `shared-mem`.

use igp_bench::experiments::run_speedup_experiment_on;
use igp_bench::tables::speedup_table_for;
use igp_mesh::sequence::{paper_sequence_a, paper_sequence_b};
use igp_runtime::Backend;
use igp_spectral::{recursive_spectral_bisection, RsbOptions};

fn main() {
    let mut args = std::env::args().skip(1);
    // Positional args are strict: a malformed `seed` or `parts` must not
    // silently become the default and swallow what the user meant as a
    // later argument (e.g. `repro_speedup 42 shared-mem`).
    let seed: u64 = match args.next() {
        None => 42,
        Some(s) => match s.parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!(
                    "error: seed must be a number (got '{s}'); usage: repro_speedup [seed] [parts] [backend]"
                );
                std::process::exit(2);
            }
        },
    };
    let parts: usize = match args.next() {
        None => 32,
        Some(s) => match s.parse() {
            Ok(p) if p >= 1 => p,
            Ok(_) => {
                eprintln!("error: parts must be >= 1");
                std::process::exit(2);
            }
            Err(_) => {
                eprintln!("error: parts must be a number >= 1 (got '{s}'); usage: repro_speedup [seed] [parts] [backend]");
                std::process::exit(2);
            }
        },
    };
    let backend: Backend = match args.next() {
        None => Backend::SimCm5,
        Some(s) => match s.parse() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        },
    };
    let workers = [1usize, 2, 4, 8, 16, 32];

    eprintln!("building mesh sequence A (seed {seed}) ...");
    let seq_a = paper_sequence_a(seed);
    let old_a = recursive_spectral_bisection(&seq_a.base, parts, RsbOptions::paper());
    let pts_a =
        run_speedup_experiment_on(&seq_a.steps[0].inc, &old_a, parts, &workers, false, backend);
    println!("==== Speedup reproduction (E3), P = {parts}, backend = {backend} ====\n");
    println!(
        "{}",
        speedup_table_for("test A, 1071 -> 1096 nodes, IGP", &pts_a, backend)
    );

    eprintln!("building mesh sequence B (seed {seed}) ...");
    let seq_b = paper_sequence_b(seed);
    let old_b = recursive_spectral_bisection(&seq_b.base, parts, RsbOptions::paper());
    let pts_b =
        run_speedup_experiment_on(&seq_b.steps[3].inc, &old_b, parts, &workers, false, backend);
    println!(
        "{}",
        speedup_table_for("test B, 10166 -> 10838 nodes (+672), IGP", &pts_b, backend)
    );

    let s_a = pts_a.last().unwrap().model_speedup;
    let s_b = pts_b.last().unwrap().model_speedup;
    match backend {
        Backend::SimCm5 => {
            println!("paper claim: speedup 15–20 at 32 nodes.");
            println!("measured (modeled CM-5): A = {s_a:.1}x, B = {s_b:.1}x at 32 workers.");
            println!(
                "shape {}",
                if s_a > 8.0 && s_b > 8.0 {
                    "HOLDS (within 2x of claim)"
                } else {
                    "VIOLATED"
                }
            );
            println!("(real wall speedup is bounded by this host's core count; see DESIGN.md §4)");
        }
        Backend::SharedMem => {
            println!("shared-mem wall speedup at 32 workers: A = {s_a:.1}x, B = {s_b:.1}x");
            println!(
                "(wall time on this host; the CM-5 shape claim is checked under sim-cm5 — \
                 see DESIGN.md §6 and EXPERIMENTS.md E3)"
            );
        }
    }
}
