//! Parallel scaling of the SPMD incremental partitioner.
//!
//! ```text
//! cargo run --release --example parallel_speedup [-- --backend sim-cm5|shared-mem]
//! ```
//!
//! Runs the same repartitioning problem on 1..32 ranks and prints the
//! per-worker time, per-phase breakdown and speedup. On the default
//! `sim-cm5` backend the clock is the simulated CM-5 cost model of
//! DESIGN.md §4 (the paper's claim is "speedup of around 15 to 20 on a
//! 32 node CM-5"); on `shared-mem` every column is real wall time on
//! this host (DESIGN.md §6), so the speedup is bounded by the core
//! count.

use igp::graph::{generators, PartId, Partitioning};
use igp::parallel::ParallelPartitioner;
use igp::runtime::{Backend, CostModel};
use igp::IgpConfig;

fn backend_from_args() -> Backend {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(first) = args.first() else {
        return Backend::SimCm5;
    };
    // Anything but the one supported flag is a mistake — don't silently
    // run the default sweep when the user mistyped it.
    let (value, consumed) = match first.strip_prefix("--backend=") {
        Some(v) => (v.to_string(), 1),
        None if first == "--backend" => match args.get(1) {
            Some(v) => (v.clone(), 2),
            None => {
                eprintln!("error: --backend requires a value (sim-cm5 or shared-mem)");
                std::process::exit(2);
            }
        },
        None => {
            eprintln!("error: unknown argument '{first}' (usage: --backend sim-cm5|shared-mem)");
            std::process::exit(2);
        }
    };
    if args.len() > consumed {
        eprintln!("error: unexpected argument '{}'", args[consumed]);
        std::process::exit(2);
    }
    match value.parse() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let backend = backend_from_args();
    let parts = 32;
    // A 64×64 grid with 32 vertical-band partitions and localized growth.
    let side = 64usize;
    let g = generators::grid(side, side);
    let assign: Vec<PartId> = (0..side * side)
        .map(|v| ((v % side) / 2) as PartId)
        .collect();
    let old = Partitioning::from_assignment(&g, parts, assign);
    let delta = generators::localized_growth_delta(&g, (side * side - 1) as u32, 96, 3);
    let inc = delta.apply(&g);
    println!(
        "workload: {} -> {} vertices, {} partitions, backend {}\n",
        g.num_vertices(),
        inc.new_graph().num_vertices(),
        parts,
        backend
    );
    let time_col = match backend {
        Backend::SimCm5 => "model-time",
        Backend::SharedMem => "rank-time",
    };
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workers", time_col, "speedup", "assign", "balance", "refine", "wall"
    );
    let mut t1 = None;
    for workers in [1usize, 2, 4, 8, 16, 32] {
        let cfg = IgpConfig::paper(parts).with_backend(backend);
        let pp = ParallelPartitioner::new(cfg, workers, true, CostModel::cm5());
        let (part, rep) = pp.repartition(&inc, &old);
        assert!(rep.balanced);
        assert!(part.count_imbalance() < 1.02);
        let base = *t1.get_or_insert(rep.sim.makespan);
        println!(
            "{:>8} {:>11.4}s {:>9.2}x {:>9.4}s {:>9.4}s {:>9.4}s {:>9.4}s",
            workers,
            rep.sim.makespan,
            base / rep.sim.makespan,
            rep.phases.assign,
            rep.phases.balance - rep.phases.assign,
            rep.phases.refine - rep.phases.balance,
            rep.sim.wall_seconds,
        );
    }
    match backend {
        Backend::SimCm5 => println!(
            "\n(model-time = simulated CM-5 makespan; wall = real threaded run on this host)"
        ),
        Backend::SharedMem => println!(
            "\n(rank-time = slowest rank's wall clock; speedup is bounded by this host's cores)"
        ),
    }
}
