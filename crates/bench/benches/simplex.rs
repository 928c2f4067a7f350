//! Criterion bench for experiments E7/E9: the dense simplex on
//! paper-scale balance LPs ("Most of the time spent by our algorithm is
//! in the solution of the linear programming formulation"), versus the
//! structured network-flow solver (the paper's "sparse representation"
//! remark).

use criterion::{criterion_group, criterion_main, Criterion};
use igp_lp::{flow, movement_lp, solve, LpModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// A synthetic balance LP shaped like a `p`-partition mesh adjacency:
/// partitions arranged in a ring with `extra` chords, random caps, random
/// balanced surplus.
fn synth_balance_lp(
    p: usize,
    extra: usize,
    seed: u64,
) -> (LpModel, Vec<(usize, usize, i64)>, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arcs: Vec<(usize, usize, i64)> = Vec::new();
    for i in 0..p {
        let j = (i + 1) % p;
        let c1 = rng.gen_range(5..40);
        let c2 = rng.gen_range(5..40);
        arcs.push((i, j, c1));
        arcs.push((j, i, c2));
    }
    for _ in 0..extra {
        let i = rng.gen_range(0..p);
        let j = rng.gen_range(0..p);
        if i != j && !arcs.iter().any(|&(a, b, _)| a == i && b == j) {
            arcs.push((i, j, rng.gen_range(5..40)));
        }
    }
    // Balanced surplus: move ~p units around.
    let mut surplus = vec![0i64; p];
    for _ in 0..p {
        let a = rng.gen_range(0..p);
        let b = rng.gen_range(0..p);
        if a != b {
            surplus[a] += 1;
            surplus[b] -= 1;
        }
    }
    let pairs: Vec<(usize, usize)> = arcs.iter().map(|&(i, j, _)| (i, j)).collect();
    let caps: Vec<u64> = arcs.iter().map(|&(_, _, c)| c as u64).collect();
    let m = movement_lp(p, &pairs, Some(&caps), &surplus);
    (m, arcs, surplus)
}

fn bench_simplex(c: &mut Criterion) {
    let mut g = c.benchmark_group("simplex_balance_lp");
    g.sample_size(20);
    // Paper scale: P = 32 with ~3 neighbours each → v ≈ 190, c ≈ 130.
    for (p, extra, label) in [
        (8usize, 8usize, "P8"),
        (32, 64, "P32_paper_scale"),
        (64, 160, "P64"),
    ] {
        let (model, arcs, surplus) = synth_balance_lp(p, extra, 7);
        // Dense: the kernel on the caps-as-rows restatement, which is
        // part of what `BalanceSolver::DenseSimplex` pays per solve.
        g.bench_function(format!("dense_simplex_{label}"), |b| {
            b.iter(|| black_box(solve(&black_box(&model).caps_as_rows()).unwrap().objective))
        });
        g.bench_function(format!("bounded_simplex_{label}"), |b| {
            b.iter(|| black_box(solve(black_box(&model)).unwrap().objective))
        });
        g.bench_function(format!("network_flow_{label}"), |b| {
            b.iter(|| {
                black_box(
                    flow::min_movement_transshipment(p, black_box(&arcs), black_box(&surplus))
                        .unwrap()
                        .0,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_simplex);
criterion_main!(benches);
