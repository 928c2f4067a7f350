//! Live ≡ rehydrate-and-replay on moving-window streams at P = 32.
//!
//! Recovery and followers rebuild a session from a snapshot
//! ([`IgpSession::rehydrate`]), which carries no layering from the step
//! before it, and replay the journaled deltas through
//! [`IgpSession::queue_delta`] + [`IgpSession::flush`]. A step that took
//! a different path on replay than live would fork a recovered daemon
//! from the one that never crashed. So for six window streams on the
//! 1071-node domain-A mesh, one session runs live and a second is
//! rehydrated from the live one's [`IgpSession::seed`] at a per-stream
//! step (the first step included), and both must agree step for step:
//! summary, assignment and graph.
//!
//! Every step is also run through the library entry point, which must
//! agree with the live session, and every refine round of it must leave
//! the cut no higher than it found it, with nothing rolled back.
//!
//! The base partition is recursive coordinate bisection, so a debug build
//! stays fast.

mod common;

use common::rcb::recursive_coordinate_bisection;
use common::window::window_stream;
use igp::mesh::domain::paper_domain_a;
use igp::mesh::MeshBuilder;
use igp::session::{IgpSession, StepSummary};
use igp::{IgpConfig, IncrementalPartitioner};

const PARTS: usize = 32;
const N0: usize = 1071;
const STEPS: usize = 40;

/// `(stream seed, step before which the replica is rehydrated)`.
const CASES: [(u64, usize); 6] = [(2, 0), (3, 6), (4, 13), (5, 21), (6, 30), (7, 39)];

/// Every field of a summary, `imbalance` by its bits.
fn fields(s: &StepSummary) -> (usize, usize, u64, u64, u64, usize, bool) {
    (
        s.step,
        s.num_vertices,
        s.cut,
        s.imbalance.to_bits(),
        s.moved,
        s.stages,
        s.balanced,
    )
}

fn run_case(seed: u64, rehydrate_at: usize) {
    let (base, deltas) = window_stream(N0, STEPS, seed);
    let mesh = MeshBuilder::generate(paper_domain_a(), N0, seed);
    assert_eq!(mesh.graph(), base, "seed {seed}: base mesh");
    let coords: Vec<(f64, f64)> = (0..N0 as u32)
        .map(|v| {
            let p = mesh.point(v);
            (p.x, p.y)
        })
        .collect();
    let part = recursive_coordinate_bisection(&base, &coords, PARTS);
    let cfg = IgpConfig::new(PARTS);
    let igpr = IncrementalPartitioner::igpr(cfg.clone());
    let mut live = IgpSession::new(base, part, cfg.clone(), true);
    let mut replica: Option<IgpSession> = None;
    for (i, delta) in deltas.iter().enumerate() {
        let tag = format!("seed {seed} step {i}");
        if i == rehydrate_at {
            replica = Some(IgpSession::rehydrate(live.seed(), cfg.clone(), true));
        }
        let inc = delta.apply(live.graph());
        let (part, report) = igpr.repartition(&inc, live.partitioning());
        for (r, it) in report.refine.iter().flat_map(|o| &o.iters).enumerate() {
            assert!(
                it.cut_after <= it.cut_before && !it.rolled_back,
                "{tag} round {r}: cut {} -> {}, rolled back {}",
                it.cut_before,
                it.cut_after,
                it.rolled_back
            );
        }
        let want = live.apply_delta(delta);
        assert_eq!(
            live.partitioning().assignment(),
            part.assignment(),
            "{tag}: session and library partitions differ"
        );
        let Some(r) = replica.as_mut() else {
            continue;
        };
        r.queue_delta(delta).expect(&tag);
        let got = r.flush().expect(&tag);
        assert_eq!(fields(&got), fields(&want), "{tag}: summary");
        assert_eq!(r.graph(), live.graph(), "{tag}: graph");
        assert_eq!(
            r.partitioning().assignment(),
            live.partitioning().assignment(),
            "{tag}: assignment"
        );
    }
    assert!(replica.is_some(), "seed {seed}: replica never started");
}

#[test]
fn replay_from_a_snapshot_equals_the_live_session() {
    for (seed, k) in CASES {
        run_case(seed, k);
    }
}
