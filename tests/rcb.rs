//! Recursive coordinate bisection, the geometric baseline the tests use
//! (`tests/common/rcb.rs`): exact splits on grids, where geometry and
//! connectivity agree.

mod common;

use common::rcb::recursive_coordinate_bisection;
use igp::graph::generators;
use igp::graph::metrics::CutMetrics;

fn grid_coords(rows: usize, cols: usize) -> Vec<(f64, f64)> {
    let mut c = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for col in 0..cols {
            c.push((col as f64, r as f64));
        }
    }
    c
}

#[test]
fn grid_split_matches_geometry() {
    let g = generators::grid(8, 16);
    let coords = grid_coords(8, 16);
    let part = recursive_coordinate_bisection(&g, &coords, 2);
    let m = CutMetrics::compute(&g, &part);
    assert_eq!(m.total_cut_edges, 8); // clean vertical cut
    assert_eq!(part.count(0), 64);
    assert_eq!(part.count(1), 64);
}

#[test]
fn four_way_balanced() {
    let g = generators::grid(8, 8);
    let part = recursive_coordinate_bisection(&g, &grid_coords(8, 8), 4);
    assert!(part.counts().iter().all(|&c| c == 16));
}

#[test]
fn odd_part_count() {
    let g = generators::grid(6, 5);
    let part = recursive_coordinate_bisection(&g, &grid_coords(6, 5), 3);
    assert_eq!(part.num_parts(), 3);
    let (min, max) = (
        part.counts().iter().min().unwrap(),
        part.counts().iter().max().unwrap(),
    );
    assert!(max - min <= 1, "{:?}", part.counts());
}
