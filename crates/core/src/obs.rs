//! Core-layer metrics: repartition wall-clock, simplex pivot
//! totals, coalesced-batch sizes, edge-cut before/after, from-scratch
//! signals. Registered into the global igp-obs registry (naming per
//! DESIGN.md §10.1).
//!
//! Everything here is timing and counting only — the instrumentation
//! must never influence the repartition result, which the replay
//! determinism contract requires to be a pure function of
//! (graph, partitioning, config).

use std::sync::{Arc, OnceLock};

use igp_obs::{registry, Counter, Gauge, Histogram};

/// All core-layer metric handles; one instance per process.
pub struct CoreMetrics {
    /// `igp_core_repartition_us{driver="sequential"}` — wall time of one
    /// session repartition. (The label predates the session's single
    /// driver; it stays so scrapers keep matching the series.)
    pub repartition_us: Arc<Histogram>,
    /// `igp_core_repartitions_total{driver="sequential"}`.
    pub repartitions_total: Arc<Counter>,
    /// `igp_core_pivots_total` — simplex pivots across all LP solves.
    pub pivots_total: Arc<Counter>,
    /// `igp_core_moved_vertices_total` — vertices moved by balancing +
    /// refinement (the remap cost the paper prices).
    pub moved_vertices_total: Arc<Counter>,
    /// `igp_core_coalesced_batch_deltas` — deltas folded per flush.
    pub coalesced_batch_deltas: Arc<Histogram>,
    /// `igp_core_coalesced_delta_ops` — net edit ops per flushed batch.
    pub coalesced_delta_ops: Arc<Histogram>,
    /// `igp_core_edge_cut_before` — cut entering the last repartition.
    pub edge_cut_before: Arc<Gauge>,
    /// `igp_core_edge_cut_after` — cut leaving the last repartition.
    pub edge_cut_after: Arc<Gauge>,
    /// `igp_core_scratch_signals_total` — steps that raised the paper's
    /// repartition-from-scratch signal (capped balancing infeasible).
    pub scratch_signals_total: Arc<Counter>,
}

/// The core layer's registered metric handles.
pub fn metrics() -> &'static CoreMetrics {
    static M: OnceLock<CoreMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = registry();
        let driver = || vec![("driver", "sequential".to_string())];
        CoreMetrics {
            repartition_us: r.histogram(
                "igp_core_repartition_us",
                "Repartition wall time, all four phases (microseconds)",
                driver(),
            ),
            repartitions_total: r.counter(
                "igp_core_repartitions_total",
                "Incremental repartitions executed",
                driver(),
            ),
            pivots_total: r.counter(
                "igp_core_pivots_total",
                "Simplex pivots across every LP solve",
                vec![],
            ),
            moved_vertices_total: r.counter(
                "igp_core_moved_vertices_total",
                "Vertices moved by balancing and refinement",
                vec![],
            ),
            coalesced_batch_deltas: r.histogram(
                "igp_core_coalesced_batch_deltas",
                "Queued deltas folded into one increment per flush",
                vec![],
            ),
            coalesced_delta_ops: r.histogram(
                "igp_core_coalesced_delta_ops",
                "Net edit operations in a flushed coalesced delta",
                vec![],
            ),
            edge_cut_before: r.gauge(
                "igp_core_edge_cut_before",
                "Edge cut entering the most recent repartition",
                vec![],
            ),
            edge_cut_after: r.gauge(
                "igp_core_edge_cut_after",
                "Edge cut leaving the most recent repartition",
                vec![],
            ),
            scratch_signals_total: r.counter(
                "igp_core_scratch_signals_total",
                "Steps where capped balancing gave up (from-scratch signal)",
                vec![],
            ),
        }
    })
}
