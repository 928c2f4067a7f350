//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! carries the same table for the driver; a unit test keeps the two in
//! step. Later issues refer to these names — do not rename.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression; `None` for per-layer
    /// metrics, which are reported but never gate.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
pub const RUN_SECONDS: u32 = 3;

/// What a user of the system sees; every workload reports every one
/// (`--trace 0`). A bound has to cover the spread *across seeds* (the
/// driver changes the seed from run to run), so each is about three
/// times the widest quartile distance seen over ten seeds on any
/// workload, capped at the contract's 0.25 — README.md has the spreads.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("step_p50_ms", "ms", Lower, 0.20),
    e2e("step_p95_ms", "ms", Lower, 0.25),
    e2e("rss_peak_mb", "MB", Lower, 0.20),
    e2e("cut_drift", "ratio", Lower, 0.08),
    e2e("moved_per_step", "vertices", Lower, 0.25),
];

/// Single-layer numbers from the traced run (`--trace 1`). A value of 0
/// with `n=0` in the printed table means the workload does not exercise
/// that call.
pub const PER_LAYER: &[MetricDef] = &[
    // End-to-end numbers that cannot be bounded: `deltas_per_s` and
    // `queued_*` follow the host's thread wake-up cost, which this
    // sandbox flips by 4x for tens of minutes at a time; the others only
    // some workloads have (the contract wants every workload to report
    // every bounded metric, never 0).
    layer("deltas_per_s", "1/s", Higher),
    layer("queued_p50_us", "us", Lower),
    layer("queued_p95_us", "us", Lower),
    layer("part_p50_us", "us", Lower),
    layer("recover_ms", "ms", Lower),
    // service
    layer("service.encode_delta_us", "us", Lower),
    layer("service.parse_request_us", "us", Lower),
    layer("service.ingest_mem_us", "us", Lower),
    layer("service.ingest_durable_us", "us", Lower),
    layer("service.part_reply_bytes", "bytes", Lower),
    layer("service.open_bytes", "bytes", Lower),
    // net
    layer("net.ping_us", "us", Lower),
    layer("net.roundtrip_overhead_us", "us", Lower),
    // graph
    layer("graph.validate_us", "us", Lower),
    layer("graph.coalesce_push_us", "us", Lower),
    layer("graph.coalesce_net_us", "us", Lower),
    layer("graph.coalesce_keep_ratio", "ratio", Higher),
    layer("graph.apply_us", "us", Lower),
    layer("graph.cut_metrics_us", "us", Lower),
    layer("graph.clone_us", "us", Lower),
    layer("graph.read_metis_us", "us", Lower),
    layer("graph.delta_ops", "count", Lower),
    // core
    layer("core.assign_us", "us", Lower),
    layer("core.layer_us", "us", Lower),
    layer("core.balance_us", "us", Lower),
    layer("core.refine_us", "us", Lower),
    layer("core.repartition_us", "us", Lower),
    layer("core.session_step_us", "us", Lower),
    layer("core.session_overhead_us", "us", Lower),
    layer("core.stages", "count", Lower),
    layer("core.balance_pivots", "count", Lower),
    layer("core.refine_pivots", "count", Lower),
    layer("core.refine_rounds", "count", Lower),
    layer("core.refine_waste_ratio", "ratio", Lower),
    layer("core.lp_rows", "count", Lower),
    layer("core.lp_cols", "count", Lower),
    layer("core.lp_work_share_model", "ratio", Lower),
    // lp
    layer("lp.movement_dense_us", "us", Lower),
    layer("lp.movement_bounded_us", "us", Lower),
    layer("lp.movement_flow_us", "us", Lower),
    layer("lp.circulation_dense_us", "us", Lower),
    layer("lp.circulation_bounded_us", "us", Lower),
    layer("lp.circulation_flow_us", "us", Lower),
    layer("lp.share_est", "ratio", Lower),
    // spectral, runtime
    layer("spectral.rsb_us", "us", Lower),
    layer("runtime.par2_repartition_us", "us", Lower),
    // store
    layer("store.wal_append_us", "us", Lower),
    layer("store.wal_bytes_per_delta", "bytes", Lower),
    layer("store.snapshot_us", "us", Lower),
    layer("store.snapshot_bytes", "bytes", Lower),
    layer("store.snapshots_per_100_steps", "count", Lower),
    layer("store.recover_us", "us", Lower),
    layer("store.durable_overhead_us", "us", Lower),
    // obs, mesh, harness
    layer("obs.overhead_frac", "ratio", Lower),
    layer("mesh.gen_s", "s", Lower),
    layer("bench.trace_overhead_frac", "ratio", Lower),
    layer("attributed_frac", "ratio", Higher),
    layer("unattributed_us", "us", Lower),
];

/// Workload name → why it exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "window10k",
        "10k-node mesh, gentle moving-window increments, every:1: whole-graph passes are a large share of the step",
    ),
    (
        "window1k",
        "1k-node mesh, same window: the two LPs are the bulk of the step, O(n) passes are 10x cheaper",
    ),
    (
        "ingest10k",
        "10k base, tiny edge-split deltas, every:256: parse, validate, coalesce and WAL append per op, algorithm amortised",
    ),
    (
        "tenants_rw",
        "two connections and sessions replaying the window1k stream with a PART read after every step: concurrency and reads",
    ),
    (
        "paper_star10k",
        "the paper's +48/+139/+229/+672 star increments as library calls, no daemon: multi-stage balancing, bypasses serving",
    ),
];

/// A reported value with the number of samples behind it.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub value: f64,
    pub n: usize,
}

/// One run's outcome: what the last stdout line carries.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// In table order ([`END_TO_END`] or [`PER_LAYER`]).
    pub metrics: Vec<(&'static MetricDef, Sample)>,
}

impl RunResult {
    /// The contract's result object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(def, s)| {
                    (
                        def.name,
                        Json::obj([("value", Json::Num(s.value)), ("unit", Json::str(def.unit))]),
                    )
                })),
            ),
        ])
    }

    /// Human-readable table: every metric by name with unit and sample
    /// count.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (def, s) in &self.metrics {
            out.push_str(&format!(
                "  {:<32} {:>16.4} {:<8} n={:<7} ({} is better)\n",
                def.name,
                s.value,
                def.unit,
                s.n,
                def.better.as_str()
            ));
        }
        out
    }
}

/// Pair every definition in `table` with its measured sample; panics if
/// the run forgot one or produced a name the table does not have, so
/// the output can never drift from `BENCHMARK.json`.
pub fn collect(
    table: &'static [MetricDef],
    mut measured: Vec<(&'static str, Sample)>,
) -> Vec<(&'static MetricDef, Sample)> {
    let out = table
        .iter()
        .map(|def| {
            let at = measured
                .iter()
                .position(|(name, _)| *name == def.name)
                .unwrap_or_else(|| panic!("run produced no `{}`", def.name));
            (def, measured.swap_remove(at).1)
        })
        .collect();
    assert!(
        measured.is_empty(),
        "run produced metrics outside the table: {:?}",
        measured.iter().map(|(n, _)| *n).collect::<Vec<_>>()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints. They must agree name for name.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let file = Json::parse(&text).unwrap();
        let names: Vec<&str> = file
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, WORKLOADS.iter().map(|(n, _)| *n).collect::<Vec<_>>());
        assert_eq!(
            file.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = file.get(key).unwrap().as_arr();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (j, def) in listed.iter().zip(table) {
                assert_eq!(j.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(j.get("unit").and_then(Json::as_str), Some(def.unit));
                assert_eq!(
                    j.get("better").and_then(Json::as_str),
                    Some(def.better.as_str())
                );
                assert_eq!(
                    j.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (name, why) in WORKLOADS {
            assert!(seen.insert(name) && why.len() <= 200 && !why.contains('\n'));
        }
    }
}
