//! Regenerates the paper's **Figure 14** table (test set B): the
//! 10166-node highly irregular mesh with star increments of +48, +139,
//! +229 and +672 nodes concentrated in one region, 32 partitions.
//! The paper reports stage counts 1, 1, 2, 3 for these increments.
//!
//! ```text
//! cargo run -p igp-bench --release --bin repro_fig14 [seed] [parts]
//! ```

use igp_bench::experiments::run_sequence_experiment;
use igp_bench::tables::full_table;
use igp_mesh::sequence::paper_sequence_b;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);
    let parts: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);
    if parts == 0 {
        eprintln!("error: parts must be >= 1");
        std::process::exit(2);
    }

    eprintln!("building mesh sequence B (seed {seed}) — 10k nodes, takes a few seconds ...");
    let seq = paper_sequence_b(seed);
    eprintln!(
        "base mesh: {} nodes, {} edges (paper: 10166 nodes, 30471 edges)",
        seq.base.num_vertices(),
        seq.base.num_edges()
    );
    let (base, steps) = run_sequence_experiment(&seq, parts);
    println!("==== Figure 14 reproduction: test set B, P = {parts} ====\n");
    println!(
        "{}",
        full_table(
            "B",
            seq.base.num_vertices(),
            seq.base.num_edges(),
            &base,
            &steps
        )
    );
    println!("paper reference (32 partitions, CM-5):");
    println!("  +48  (10214): SB 800.05s / IGP 13.90s, 1.01s par, 1 stage");
    println!("  +139 (10305): SB 814.36s / IGP 18.89s, 1.08s par, 1 stage");
    println!("  +229 (10395): SB 853.35s / IGP(2) 35.98s, 2.08s par, 2 stages");
    println!("  +672 (10838): SB 904.81s / IGP(3) 76.78s, 3.66s par, 3 stages");
    println!("\nshape checks (see EXPERIMENTS.md E2):");
    let mut prev_stages = 0usize;
    let mut monotone = true;
    for s in &steps {
        let sb = &s.rows[0];
        let igp = &s.rows[1];
        let igpr = &s.rows[2];
        println!(
            "  {}: stages = {}, cut(IGP)/cut(SB) = {:.3}, cut(IGPR)/cut(SB) = {:.3}, \
             IGP speedup over SB (wall) = {:.1}x",
            s.label,
            igp.stages,
            igp.cut_total as f64 / sb.cut_total as f64,
            igpr.cut_total as f64 / sb.cut_total as f64,
            sb.wall_s / igp.wall_s.max(1e-9)
        );
        monotone &= igp.stages >= prev_stages;
        prev_stages = igp.stages;
    }
    println!(
        "\nstage counts non-decreasing with increment size: {}",
        if monotone {
            "HOLDS (paper: 1,1,2,3)"
        } else {
            "VIOLATED"
        }
    );
}
