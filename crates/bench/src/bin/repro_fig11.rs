//! Regenerates the paper's **Figure 11** table (test set A): SB vs IGP vs
//! IGPR on the chained mesh sequence 1071 → 1096 → 1121 → 1152 → 1192
//! nodes, 32 partitions.
//!
//! ```text
//! cargo run -p igp-bench --release --bin repro_fig11 [seed] [parts]
//! ```

use igp_bench::experiments::run_sequence_experiment;
use igp_bench::tables::full_table;
use igp_mesh::sequence::paper_sequence_a;

fn main() {
    let mut args = std::env::args().skip(1);
    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(42);
    let parts: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(32);
    if parts == 0 {
        eprintln!("error: parts must be >= 1");
        std::process::exit(2);
    }

    eprintln!("building mesh sequence A (seed {seed}) ...");
    let seq = paper_sequence_a(seed);
    eprintln!(
        "base mesh: {} nodes, {} edges (paper: 1071 nodes, 3185 edges)",
        seq.base.num_vertices(),
        seq.base.num_edges()
    );
    let (base, steps) = run_sequence_experiment(&seq, parts);
    println!("==== Figure 11 reproduction: test set A, P = {parts} ====\n");
    println!(
        "{}",
        full_table(
            "A",
            seq.base.num_vertices(),
            seq.base.num_edges(),
            &base,
            &steps
        )
    );
    println!("paper reference (32 partitions, CM-5):");
    println!("  |V|=1096: SB 31.71s  / IGP 14.75s, 0.68s par, cut 747 / IGPR 730");
    println!("  |V|=1121: SB 34.05s  / IGP 13.63s, 0.73s par, cut 752 / IGPR 727");
    println!("  |V|=1152: SB 34.96s  / IGP 15.89s, 0.92s par, cut 757 / IGPR 741");
    println!("  |V|=1192: SB 38.20s  / IGP 15.69s, 0.94s par, cut 815 / IGPR 779");
    println!("\nshape checks (see EXPERIMENTS.md E1):");
    let mut ok = true;
    for s in &steps {
        let sb = &s.rows[0];
        let igp = &s.rows[1];
        let igpr = &s.rows[2];
        let q_igp = igp.cut_total as f64 / sb.cut_total as f64;
        let q_igpr = igpr.cut_total as f64 / sb.cut_total as f64;
        let faster = igp.wall_s < sb.wall_s;
        let par_gain = igp.model_s.unwrap() / igp.model_p.unwrap();
        println!(
            "  {}: cut(IGP)/cut(SB) = {q_igp:.3}, cut(IGPR)/cut(SB) = {q_igpr:.3}, \
             IGP {:.1}x faster than SB (wall), modeled parallel gain {par_gain:.1}x",
            s.label,
            sb.wall_s / igp.wall_s.max(1e-9),
        );
        ok &= q_igp < 1.25 && q_igpr < 1.20 && faster;
    }
    println!("\nshape {}", if ok { "HOLDS" } else { "VIOLATED" });
}
