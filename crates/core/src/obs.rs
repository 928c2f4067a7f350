//! Core-layer metrics: repartition wall-clock, simplex pivot
//! totals, coalesced-batch sizes, edge-cut before/after, from-scratch
//! signals. Registered into the global igp-obs registry (naming per
//! DESIGN.md §10.1).
//!
//! Everything here is timing and counting only — the instrumentation
//! must never influence the repartition result, which the replay
//! determinism contract requires to be a pure function of
//! (graph, partitioning, config).

igp_obs::metric_table! {
    /// All core-layer metric handles; one instance per process.
    pub struct CoreMetrics {
        histogram(
            "igp_core_repartition_us",
            "Repartition wall time, all four phases (microseconds)",
        ) {
            /// The label predates the session's single driver; it stays
            /// so scrapers keep matching the series.
            pub repartition_us { driver: "sequential" },
        }
        counter("igp_core_repartitions_total", "Incremental repartitions executed") {
            pub repartitions_total { driver: "sequential" },
        }
        counter("igp_core_pivots_total", "Simplex pivots across every LP solve") {
            pub pivots_total,
        }
        counter("igp_core_moved_vertices_total", "Vertices moved by balancing and refinement") {
            pub moved_vertices_total,
        }
        histogram(
            "igp_core_coalesced_batch_deltas",
            "Queued deltas folded into one increment per flush",
        ) {
            pub coalesced_batch_deltas,
        }
        histogram(
            "igp_core_coalesced_delta_ops",
            "Net edit operations in a flushed coalesced delta",
        ) {
            pub coalesced_delta_ops,
        }
        gauge("igp_core_edge_cut_before", "Edge cut entering the most recent repartition") {
            pub edge_cut_before,
        }
        gauge("igp_core_edge_cut_after", "Edge cut leaving the most recent repartition") {
            pub edge_cut_after,
        }
        counter(
            "igp_core_scratch_signals_total",
            "Steps where capped balancing gave up (from-scratch signal)",
        ) {
            pub scratch_signals_total,
        }
    }
}
