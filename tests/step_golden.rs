//! The step's regression pin: per-step `(n, cut, moved, stages, pivots,
//! assignment hash)` of two fixed-seed increment streams under
//! sequential IGPR at P = 32, as captured at commit 8050a4a — before cut
//! and boundary were maintained under `move_vertex`, before the one-sweep
//! layering, the row-merge `apply` and the seeded phase-1 BFS. Every pass
//! those changes touched feeds an ordering (candidate order, drain order,
//! tie-breaks), so any difference here is a drifted order, never noise —
//! fix the code, do not re-capture.
//!
//! * **window** — a refinement window walking a 1071-node mesh of the
//!   paper's domain A (20 nodes refined at the front, the disc refined
//!   five steps earlier coarsened back): `V₁`, `V₂`, `E₁`, `E₂` all
//!   non-empty. Driven through [`IgpSession::apply_delta`] *and*, on the
//!   same inputs, through `GraphDelta::apply` +
//!   [`IncrementalPartitioner::repartition`], which must agree. `WINDOW`
//!   runs it on the paper's engine ([`IgpConfig::paper`], the dense
//!   simplex) and is the table captured at 8050a4a.
//! * **window, serving** — the same stream under [`IgpConfig::new`], the
//!   engine every session serves on (the bounded simplex). A different
//!   engine returns a different optimal vertex of the same LP, so the
//!   partitions differ from `WINDOW` while staying balanced; this second
//!   table, `WINDOW_SERVING`, pins the serving default the same way.
//!   It was captured when the default moved to the bounded simplex.
//! * **star** — `paper_sequence_b(1)`'s four increments (+48, +139, +229,
//!   +672 on 10166 nodes, multi-stage balancing) under each of the three
//!   balance engines: 12 rows. The base partition is recursive coordinate
//!   bisection: RSB of 10⁴ vertices takes a minute in a debug build.
//!
//! `IGP_STEP_GOLDEN_PRINT=1 cargo test --release --test step_golden --
//! --nocapture` prints the tables in source form.

mod common;

use common::Lcg;
use igp::graph::traversal::is_connected;
use igp::graph::{CsrGraph, GraphDelta, PartId, Partitioning};
use igp::mesh::domain::{paper_domain_a, Domain};
use igp::mesh::sequence::{mixed_inc, paper_sequence_b};
use igp::mesh::{Disc, MeshBuilder, Point};
use igp::session::IgpSession;
use igp::spectral::{recursive_coordinate_bisection, recursive_spectral_bisection, RsbOptions};
use igp::{BalanceSolver, IgpConfig, IgpReport, IncrementalPartitioner};
use std::collections::VecDeque;

const PARTS: usize = 32;

/// `(n, cut, moved, stages, pivots, assignment hash)`.
type Row = (usize, u64, u64, usize, u64, u64);

#[rustfmt::skip]
const WINDOW: &[Row] = &[
    (1091, 673, 70, 1, 199, 0x1782ddcfd7b2c1a5),
    (1111, 704, 87, 1, 284, 0xa7f35900d6bb2dc2),
    (1131, 685, 259, 1, 413, 0xacb71bae81bd5b9f),
    (1151, 743, 90, 1, 332, 0xafb33dc8e3a327aa),
    (1171, 750, 58, 1, 220, 0x315568b5236a3676),
    (1171, 759, 52, 1, 217, 0xab90d4709256e24d),
    (1171, 774, 23, 1, 108, 0x98618858ffdf0344),
    (1171, 704, 234, 1, 379, 0x3b14e9ce11fd9eee),
    (1171, 713, 22, 1, 123, 0xe32ccf07be240ee7),
    (1171, 733, 49, 1, 206, 0x9ede943d3ab1caf2),
    (1171, 742, 90, 1, 285, 0x87a7da26329380c2),
    (1171, 742, 57, 1, 190, 0x294d1ae65b1942ce),
    (1171, 749, 45, 1, 130, 0x8e172c4ba4e8ac00),
    (1171, 738, 59, 1, 211, 0xf36474c093d87310),
    (1171, 730, 26, 1, 258, 0xac25456829a3df36),
    (1171, 727, 29, 1, 264, 0x1c5569d4d7278e5e),
    (1171, 739, 11, 1, 102, 0xd381ecd4a130cda0),
    (1171, 728, 19, 1, 267, 0x123add3ba2b92722),
    (1171, 726, 31, 1, 235, 0x79fb9077e6059990),
    (1171, 720, 22, 1, 253, 0x5d27accf28522e94),
    (1171, 720, 35, 1, 306, 0x6e4fca97bfb6fd50),
    (1171, 720, 41, 1, 273, 0xb2802da102ffc812),
    (1171, 733, 30, 1, 109, 0xf037f8f0e8715360),
    (1171, 742, 52, 1, 264, 0x4dc8b48d4066f920),
    (1171, 725, 81, 1, 278, 0xdec9910ccfd778a5),
    (1171, 715, 46, 1, 243, 0x7579cb57b6297f85),
    (1171, 710, 56, 1, 260, 0xbb10be471cac0e71),
    (1171, 739, 149, 1, 129, 0x29e437cc640bf056),
    (1171, 671, 495, 1, 353, 0x9df74ddf02a26a86),
    (1171, 682, 57, 1, 237, 0x38132acb63726036),
    (1171, 681, 52, 1, 185, 0xcd51c7ca4303f736),
    (1171, 676, 24, 1, 216, 0xec00c04e4ad571e5),
    (1171, 678, 18, 1, 92, 0x083f00b6bb68af53),
    (1171, 687, 37, 1, 235, 0xc38360ed2cb3eec5),
    (1171, 697, 48, 1, 252, 0xa7d11f81448343b6),
    (1171, 698, 61, 1, 263, 0x8cafec45dd67a716),
    (1171, 701, 61, 1, 191, 0x53bf208477978446),
    (1171, 718, 63, 1, 135, 0x30de84728566e196),
    (1171, 731, 54, 1, 117, 0x30722b252720ae43),
    (1171, 710, 52, 1, 244, 0xcf1cde8fbe3892e2),
    (1171, 719, 24, 1, 108, 0x7d0d4accb4ce3e38),
    (1171, 709, 51, 1, 273, 0x4e680e20b8cdc0e7),
    (1171, 708, 59, 1, 266, 0x866f72f957ae1f75),
    (1171, 710, 23, 1, 191, 0xd5b3fa52137c3401),
    (1171, 717, 9, 1, 256, 0xd3c272a571684a4c),
    (1171, 706, 15, 1, 219, 0xfd3f4475d8b371f8),
    (1171, 711, 28, 1, 213, 0x04e381a7c0bebfef),
    (1171, 699, 42, 1, 247, 0x1b6ad71370b893c1),
];

#[rustfmt::skip]
const WINDOW_SERVING: &[Row] = &[
    (1091, 673, 70, 1, 166, 0x1782ddcfd7b2c1a5),
    (1111, 681, 107, 1, 214, 0xb131ef724cc7ece2),
    (1131, 705, 73, 1, 249, 0x55c4e3d9ef638b6f),
    (1151, 703, 376, 1, 381, 0x38612724d6689c4a),
    (1171, 712, 49, 1, 155, 0x9f45469cd4d90796),
    (1171, 742, 52, 1, 156, 0x808e3f93e2535bdd),
    (1171, 745, 28, 1, 186, 0x8e084d010e812404),
    (1171, 749, 15, 1, 139, 0xc4d68132aadfafe5),
    (1171, 708, 186, 1, 283, 0xbc11422a675505b8),
    (1171, 713, 93, 1, 209, 0xe2497627843a8c40),
    (1171, 734, 93, 1, 225, 0xda1786f53cccdc72),
    (1171, 749, 51, 1, 104, 0xdd6b4ecb48ee3640),
    (1171, 745, 41, 1, 74, 0xcb13b5567972c4c0),
    (1171, 745, 63, 1, 192, 0x91a9699479cc90d0),
    (1171, 739, 46, 1, 215, 0xe7f22f2a6462ec8a),
    (1171, 750, 43, 1, 137, 0x4059f59ecd95df33),
    (1171, 741, 36, 1, 180, 0xad0eddc0ad077c6a),
    (1171, 746, 20, 1, 92, 0x65fec6222181d481),
    (1171, 739, 20, 1, 139, 0x0506cae1ac7efd20),
    (1171, 741, 29, 1, 204, 0x12d95c0e5a7f758f),
    (1171, 739, 39, 1, 213, 0xba76127c0cf35398),
    (1171, 746, 52, 1, 135, 0xb5697ef75f6bc408),
    (1171, 744, 51, 1, 229, 0x516f1c01d81a6ea3),
    (1171, 745, 72, 1, 207, 0xbcc3525af2eb83b3),
    (1171, 744, 41, 1, 157, 0x12e858a372e6f886),
    (1171, 736, 58, 1, 230, 0xa34643a4f32a6fd6),
    (1171, 738, 55, 1, 218, 0x6bacb67e139d77f2),
    (1171, 746, 59, 1, 147, 0xbc7acf34c4664800),
    (1171, 739, 59, 1, 195, 0xdc624f886e01aed0),
    (1171, 735, 69, 1, 184, 0xb0aed9a86f0bb9dd),
    (1171, 697, 224, 1, 279, 0xd898a51f33b50823),
    (1171, 711, 10, 1, 85, 0x1fa6bb8c29664440),
    (1171, 698, 46, 1, 180, 0xc56d82cdad5a8584),
    (1171, 707, 43, 1, 188, 0xf252bef2aad41c75),
    (1171, 716, 66, 1, 204, 0x34d8e73f745cb0c7),
    (1171, 710, 98, 1, 222, 0x0fa7014139856cf3),
    (1171, 724, 91, 1, 233, 0xaf2291934606f0f6),
    (1171, 740, 65, 1, 158, 0x99fa6d537e2d5ce6),
    (1171, 744, 80, 1, 171, 0x95f5fc64a6314ac3),
    (1171, 736, 25, 1, 139, 0xb5579092ade8db06),
    (1171, 726, 48, 1, 186, 0x030c2dcd36a04a1f),
    (1171, 731, 59, 1, 183, 0x5a37a946253ac45f),
    (1171, 740, 60, 1, 148, 0xe847b4a8b3fccc67),
    (1171, 733, 128, 1, 219, 0x626265f9ea5962d7),
    (1171, 684, 161, 1, 236, 0x2781dde42dfa05c7),
    (1171, 692, 8, 1, 73, 0xfe53182f54b9b405),
    (1171, 705, 18, 1, 100, 0x7eb673d3f35f4254),
    (1171, 710, 28, 1, 167, 0x953e26ebb1ae126a),
];

#[rustfmt::skip]
const STAR: &[Row] = &[
    (10214, 2031, 469, 1, 570, 0x334c9116195c111d),
    (10305, 2059, 926, 1, 545, 0xbdd0d8abdff30a1b),
    (10395, 2136, 1315, 1, 607, 0xf6bef1f08bbf05b7),
    (10838, 2315, 3247, 2, 755, 0xbbe1748adb590c65),
    (10214, 2003, 602, 1, 494, 0x904cf6f4527d17bd),
    (10305, 2063, 923, 1, 502, 0xd23ca7599c8ae72b),
    (10395, 2114, 1338, 1, 543, 0x3eff3224f9882887),
    (10838, 2333, 3265, 2, 749, 0xe01115d34dd6ea85),
    (10214, 2016, 560, 1, 0, 0xca971dc3278cf32d),
    (10305, 2062, 953, 1, 0, 0x813858f99bb3f46b),
    (10395, 2122, 1326, 1, 0, 0x84f0fee28f5dc2d7),
    (10838, 2312, 3240, 2, 0, 0xcc912b28f715ae35),
];

/// FNV-1a over the assignment: the partition itself, not only its cut.
fn assign_hash(assign: &[PartId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &q in assign {
        for b in q.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn pivots(report: &IgpReport) -> u64 {
    let balance = report.balance.stages.iter().map(|s| s.lp.pivots as u64);
    let refine = report
        .refine
        .iter()
        .flat_map(|r| r.iters.iter().map(|i| i.lp.pivots as u64));
    balance.chain(refine).sum()
}

fn row(n: usize, part: &Partitioning, report: &IgpReport) -> Row {
    (
        n,
        report.metrics.total_cut_edges,
        report.total_moved(),
        report.num_stages(),
        pivots(report),
        assign_hash(part.assignment()),
    )
}

fn check(name: &str, got: &[Row], want: &[Row]) {
    if std::env::var_os("IGP_STEP_GOLDEN_PRINT").is_some() {
        println!("const {name}: &[Row] = &[");
        for (n, cut, moved, stages, pivots, hash) in got {
            println!("    ({n}, {cut}, {moved}, {stages}, {pivots}, {hash:#018x}),");
        }
        println!("];");
        return;
    }
    assert_eq!(got.len(), want.len(), "{name}: step count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g, w,
            "{name} step {i}: (n, cut, moved, stages, pivots, hash)"
        );
    }
}

/// True if a window centred at `p` lies mostly inside the domain.
fn window_fits<D: Domain>(domain: &D, p: Point, r: f64) -> bool {
    domain.contains(p)
        && (0..8).all(|k| {
            let a = std::f64::consts::FRAC_PI_4 * k as f64;
            domain.contains(Point::new(p.x + 0.6 * r * a.cos(), p.y + 0.6 * r * a.sin()))
        })
}

fn random_fit<D: Domain>(domain: &D, rng: &mut Lcg, r: f64) -> Point {
    let (lo, hi) = domain.bounding_box();
    loop {
        let p = Point::new(
            lo.x + rng.unit_f64() * (hi.x - lo.x),
            lo.y + rng.unit_f64() * (hi.y - lo.y),
        );
        if window_fits(domain, p, r) {
            return p;
        }
    }
}

/// A moving-window delta stream: each step coarsens the disc refined
/// `LAG` steps earlier by the current surplus over the steady size and
/// refines `PER_STEP` nodes at the front, walking toward seeded
/// waypoints in hops of half a radius.
fn window_stream(n0: usize, steps: usize, seed: u64) -> (CsrGraph, Vec<GraphDelta>) {
    const RADIUS: f64 = 0.3;
    const PER_STEP: usize = 20;
    const LAG: usize = 5;
    let domain = paper_domain_a();
    let mut builder = MeshBuilder::generate(domain.clone(), n0, seed);
    let base = builder.graph();
    assert!(is_connected(&base));
    let mut rng = Lcg::new(seed ^ 0x77696e646f77);
    let hop = 0.5 * RADIUS;
    let steady = n0 + LAG * PER_STEP;
    let mut pos = random_fit(&domain, &mut rng, RADIUS);
    let mut waypoint = random_fit(&domain, &mut rng, RADIUS);
    let mut wake: VecDeque<Disc> = VecDeque::new();
    let mut g = base.clone();
    let mut deltas = Vec::with_capacity(steps);
    for step in 0..steps {
        pos = loop {
            let d = pos.dist(waypoint);
            if d >= hop {
                let p = Point::new(
                    pos.x + hop * (waypoint.x - pos.x) / d,
                    pos.y + hop * (waypoint.y - pos.y) / d,
                );
                if window_fits(&domain, p, RADIUS) {
                    break p;
                }
            }
            waypoint = random_fit(&domain, &mut rng, RADIUS);
        };
        let removed = if wake.len() == LAG {
            let old = wake.pop_front().expect("lag > 0");
            let surplus = (builder.num_points() + PER_STEP).saturating_sub(steady);
            builder.coarsen_region(&Disc::new(old.center, 1.5 * RADIUS), surplus)
        } else {
            Vec::new()
        };
        let front = Disc::new(pos, RADIUS);
        let added = builder.refine_region(&front, PER_STEP);
        wake.push_back(front);
        let g_new = builder.graph();
        assert!(is_connected(&g_new), "mesh disconnected at step {step}");
        let delta = mixed_inc(g.clone(), g_new.clone(), &removed, added.len()).diff();
        delta.validate(g.num_vertices()).expect("generated delta");
        deltas.push(delta);
        g = g_new;
    }
    (base, deltas)
}

/// The window stream's rows under `cfg`, each step driven through the
/// session and through the library entry point, which must agree.
fn window_rows(cfg: IgpConfig) -> Vec<Row> {
    let (base, deltas) = window_stream(1071, 48, 1);
    let last = deltas.last().unwrap();
    assert!(!last.add_vertices.is_empty() && !last.remove_vertices.is_empty());
    assert!(!last.add_edges.is_empty() && !last.remove_edges.is_empty());
    // The paper's exact RSB: both tables were captured on its partition.
    let part = recursive_spectral_bisection(&base, PARTS, RsbOptions::paper());
    let igpr = IncrementalPartitioner::igpr(cfg.clone());
    let mut session = IgpSession::new(base, part, cfg, true);
    let mut got = Vec::with_capacity(deltas.len());
    for (i, delta) in deltas.iter().enumerate() {
        // The library entry point on the session's inputs…
        let inc = delta.apply(session.graph());
        let (part, report) = igpr.repartition(&inc, session.partitioning());
        got.push(row(inc.new_graph().num_vertices(), &part, &report));
        // …and the session step itself must be the same step.
        let summary = session.apply_delta(delta);
        assert_eq!(session.graph(), inc.new_graph(), "step {i}: graph");
        assert_eq!(
            session.partitioning().assignment(),
            part.assignment(),
            "step {i}: session and library partitions differ"
        );
        assert_eq!(
            (
                summary.num_vertices,
                summary.cut,
                summary.moved,
                summary.stages
            ),
            (got[i].0, got[i].1, got[i].2, got[i].3),
            "step {i}: session summary"
        );
        assert!(summary.balanced, "step {i}");
    }
    got
}

#[test]
fn window_stream_steps_unchanged() {
    check("WINDOW", &window_rows(IgpConfig::paper(PARTS)), WINDOW);
}

#[test]
fn window_stream_serving_steps_unchanged() {
    check(
        "WINDOW_SERVING",
        &window_rows(IgpConfig::new(PARTS)),
        WINDOW_SERVING,
    );
}

#[test]
fn paper_star_increments_unchanged() {
    let seq = paper_sequence_b(1);
    let coords: Vec<(f64, f64)> = seq.base_mesh.points.iter().map(|p| (p.x, p.y)).collect();
    let part = recursive_coordinate_bisection(&seq.base, &coords, PARTS);
    let mut got = Vec::new();
    for solver in [
        BalanceSolver::DenseSimplex,
        BalanceSolver::BoundedSimplex,
        BalanceSolver::NetworkFlow,
    ] {
        let mut cfg = IgpConfig::new(PARTS);
        cfg.solver = solver;
        let igpr = IncrementalPartitioner::igpr(cfg);
        for step in &seq.steps {
            let (new_part, report) = igpr.repartition(&step.inc, &part);
            got.push(row(step.inc.new_graph().num_vertices(), &new_part, &report));
        }
    }
    check("STAR", &got, STAR);
}
