//! Serving RSB against the paper's: `RsbOptions::default()` (the
//! multilevel Fiedler solver every `init=rsb` `OPEN` runs) must cut
//! within 3 % of `RsbOptions::paper()` (exact Lanczos, the SB baseline
//! of every paper table) on the paper's meshes at P = 32, and its output
//! on one 10³ mesh is pinned.
//!
//! * the 10³ gate (`paper_domain_a`, 1071 nodes, seeds 1–4) runs in
//!   tier-1;
//! * the 10⁴ gate (`paper_domain_b`, 10166 nodes) is `#[ignore]`d — the
//!   exact solver takes seconds per seed in release — and CI runs it as
//!   `cargo test --release -q --test rsb_quality -- --ignored`;
//! * `SERVING_PIN` was captured once, when the multilevel solver became
//!   the default. A change there means the serving solver's arithmetic
//!   or tie-breaks moved: fix the code, do not re-capture.
//!
//! `IGP_STEP_GOLDEN_PRINT=1 cargo test --release --test rsb_quality --
//! --nocapture` prints the pin.

use igp::graph::{CsrGraph, PartId};
use igp::mesh::domain::{paper_domain_a, paper_domain_b, Domain};
use igp::mesh::MeshBuilder;
use igp::spectral::{recursive_spectral_bisection, RsbOptions};

const PARTS: usize = 32;

/// `(cut, assignment hash)` of serving RSB on the 1071-node mesh of
/// seed 1 (the base of `step_golden`'s window stream).
const SERVING_PIN: (u64, u64) = (623, 0xbef8_07c3_36b7_1214);

fn mesh<D: Domain>(domain: D, n: usize, seed: u64) -> CsrGraph {
    MeshBuilder::generate(domain, n, seed).graph()
}

fn assign_hash(assign: &[PartId]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &q in assign {
        for b in q.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Serving cut ≤ 1.03 × paper cut on each seed's mesh.
fn check_gate(graphs: impl Iterator<Item = (u64, CsrGraph)>) {
    for (seed, g) in graphs {
        let serving = recursive_spectral_bisection(&g, PARTS, RsbOptions::default());
        let paper = recursive_spectral_bisection(&g, PARTS, RsbOptions::paper());
        let (cs, cp) = (serving.cut_edges(), paper.cut_edges());
        assert!(
            cs as f64 <= 1.03 * cp as f64,
            "seed {seed}, n = {}: serving cut {cs} > 1.03 × paper cut {cp}",
            g.num_vertices()
        );
    }
}

#[test]
fn serving_rsb_pinned() {
    let g = mesh(paper_domain_a(), 1071, 1);
    let part = recursive_spectral_bisection(&g, PARTS, RsbOptions::default());
    let got = (part.cut_edges(), assign_hash(part.assignment()));
    if std::env::var_os("IGP_STEP_GOLDEN_PRINT").is_some() {
        println!(
            "const SERVING_PIN: (u64, u64) = ({}, {:#018x});",
            got.0, got.1
        );
        return;
    }
    assert_eq!(got, SERVING_PIN, "(cut, assignment hash)");
}

#[test]
fn serving_cut_within_3pct_of_paper_at_1k() {
    check_gate((1..=4).map(|s| (s, mesh(paper_domain_a(), 1071, s))));
}

#[test]
#[ignore = "exact RSB at 10⁴ takes seconds per seed; CI runs it in release"]
fn serving_cut_within_3pct_of_paper_at_10k() {
    check_gate((1..=4).map(|s| (s, mesh(paper_domain_b(), 10166, s))));
}
