//! The five workloads: what each generates and how it is driven. Every
//! session is P = 32, sequential IGPR (`workers=0`), `init=rsb`.
//!
//! A run draws several independent inputs from its seed
//! ([`substreams`]) — each its own mesh, its own window walk or churn
//! start — and spends one session on each. Mesh-to-mesh variation (RSB
//! cut, LP sizes, how far a window step moves vertices) is the largest
//! source of run-to-run spread when the seed changes: one 1k mesh to the
//! next moves `step_p50_ms` by ≈ 9 %, against ≈ 1.5 % between two runs
//! of one seed. Pooling k meshes per run cuts that by √k for the price
//! of set-ups the run pays anyway (`setup_s` is their median).

use crate::gen::{churn_stream, window_stream, ChurnSpec, SplitMix64, Stream, WindowSpec};
use igp_mesh::domain::{paper_domain_a, paper_domain_b};
use igp_mesh::sequence::{build_sequence, paper_sequence_b, MeshSequence};
use igp_mesh::{Disc, MeshBuilder, Point};
use igp_service::{RepartitionPolicy, SessionConfig};
use std::time::Instant;

/// Partition count of every session (the paper's experiments use 32).
pub const PARTS: usize = 32;

/// Independent inputs (and sessions) per untraced run: three where a
/// set-up is a 3 s RSB of 10⁴ vertices, nine where it is 0.13 s.
pub fn substreams(name: &str) -> usize {
    match name {
        "window1k" | "tenants_rw" => 9,
        _ => 3,
    }
}

/// Window steps per sub-stream at 10k nodes: 3 × 90 = 270 stepped
/// samples a run (a p95 needs 200), a little over `run_seconds` at
/// ≈ 12 ms a step so that no fourth session has to be set up. Generating
/// a step costs ≈ 50 ms (`coarsen_region` re-triangulates the whole
/// mesh), four times what the daemon needs to apply it, so more would
/// only buy generator time.
const WINDOW10K_STEPS: usize = 90;
/// Window steps per sub-stream at 1k nodes: 9 × 84 = 756 a run
/// (generation ≈ 4 ms a step).
const WINDOW1K_STEPS: usize = 84;
/// Churn deltas per sub-stream: 67 batches of 256, 201 steps a run.
const INGEST_DELTAS: usize = 67 * INGEST_BATCH;
const INGEST_BATCH: usize = 256;
/// Steps per workload under `--smoke` (n = 300).
const SMOKE_STEPS: usize = 20;
const SMOKE_NODES: usize = 300;

/// Generated input of one run.
pub enum Input {
    /// Streamed at a daemon over TCP.
    Daemon(DaemonInput),
    /// Repartitioned in-process, every increment from its sequence's base.
    Star(Vec<MeshSequence>),
}

pub struct DaemonInput {
    /// One per session of the run; each pass replays one of them whole.
    pub streams: Vec<Stream>,
    pub policy: RepartitionPolicy,
    /// Connections = sessions of one pass, each replaying the same stream.
    pub tenants: usize,
    /// Issue `PART` after every `OK step`.
    pub read_after_step: bool,
}

impl DaemonInput {
    pub fn session_config(&self) -> SessionConfig {
        let mut cfg = SessionConfig::new(PARTS);
        cfg.policy = self.policy;
        cfg
    }
}

pub struct Prepared {
    pub input: Input,
    /// Generator wall time (`mesh.gen_s`): reported, never part of set-up.
    pub gen_s: f64,
}

/// Fewest repetitions of the star increments: 3 × 4 × 17 = 204 samples,
/// the fewest a p95 is reported from.
pub fn star_min_reps(smoke: bool) -> usize {
    if smoke {
        2
    } else {
        17
    }
}

const WINDOW10K: WindowSpec = WindowSpec {
    n0: 10166,
    steps: WINDOW10K_STEPS,
    radius: 0.22,
    per_step: 20,
    lag: 5,
};

const WINDOW1K: WindowSpec = WindowSpec {
    n0: 1071,
    steps: WINDOW1K_STEPS,
    radius: 0.3,
    per_step: 20,
    lag: 5,
};

const WINDOW_SMOKE: WindowSpec = WindowSpec {
    n0: SMOKE_NODES,
    steps: SMOKE_STEPS,
    radius: 0.3,
    per_step: 8,
    lag: 3,
};

/// Generate the first `substreams` of `name`'s inputs from `seed`.
/// `None` for an unknown name.
pub fn prepare(name: &str, seed: u64, smoke: bool, substreams: usize) -> Option<Prepared> {
    let t = Instant::now();
    // Sub-seeds are drawn, not `seed + k`: consecutive run seeds must not
    // share a mesh.
    let mut draw = SplitMix64::new(seed);
    let subs: Vec<u64> = (0..substreams).map(|_| draw.next_u64()).collect();
    let every1 = RepartitionPolicy::EveryK(1);
    let daemon = |one: &dyn Fn(u64) -> Stream, policy, tenants, read_after_step| {
        Input::Daemon(DaemonInput {
            streams: subs.iter().map(|&s| one(s)).collect(),
            policy,
            tenants,
            read_after_step,
        })
    };
    let window = |s: u64| match (name, smoke) {
        (_, true) => window_stream(paper_domain_a(), &WINDOW_SMOKE, s),
        ("window10k", _) => window_stream(paper_domain_b(), &WINDOW10K, s),
        _ => window_stream(paper_domain_a(), &WINDOW1K, s),
    };
    let churn = |s: u64| {
        // (Under --smoke the lag is short: 256 live extras would nearly
        // double a 300-node graph and balancing gives up.)
        let (base, deltas, lag) = if smoke {
            let base = MeshBuilder::generate(paper_domain_a(), SMOKE_NODES, s).graph();
            (base, SMOKE_STEPS * INGEST_BATCH, 4)
        } else {
            let base = MeshBuilder::generate(paper_domain_b(), 10166, s).graph();
            (base, INGEST_DELTAS, INGEST_BATCH / 2)
        };
        churn_stream(base, &ChurnSpec { deltas, lag }, s)
    };
    let star = |s: u64| {
        if smoke {
            build_sequence(
                "S",
                paper_domain_a(),
                SMOKE_NODES,
                Disc::new(Point::new(3.3, 1.55), 0.45),
                &[2, 4, 6, 10],
                false,
                s,
            )
        } else {
            paper_sequence_b(s)
        }
    };
    let input = match name {
        "window10k" | "window1k" => daemon(&window, every1, 1, false),
        "tenants_rw" => daemon(&window, every1, 2, true),
        "ingest10k" => daemon(&churn, RepartitionPolicy::EveryK(INGEST_BATCH), 1, false),
        "paper_star10k" => Input::Star(subs.iter().map(|&s| star(s)).collect()),
        _ => return None,
    };
    Some(Prepared {
        input,
        gen_s: t.elapsed().as_secs_f64(),
    })
}
