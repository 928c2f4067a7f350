//! Store-layer metrics: WAL append latency and volume, snapshot and
//! recovery durations, corrupt-tail truncations. Registered into the
//! global igp-obs registry (naming per DESIGN.md §10.1). Also home of
//! the process-global durability [`health_cell`] the serving layer's
//! watchdog registers as its `store` component.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use igp_obs::health::HealthCell;

/// How long a durable write may run before the watchdog calls it a
/// stall — generous, because fsync-class latency spikes are normal.
const STORE_STALL_BAR: Duration = Duration::from_secs(2);

/// How long a failed durable write holds the store `unhealthy`.
pub(crate) const STORE_FAIL_HOLD: Duration = Duration::from_secs(5);

/// The process-global store heartbeat cell, stamped busy/idle around
/// every WAL append and snapshot write (and `unhealthy` for a hold
/// after one fails). Process-global — unlike the serving layer's
/// per-daemon cells — because a stalling or failing disk is a
/// process-wide condition.
pub fn health_cell() -> &'static Arc<HealthCell> {
    static CELL: OnceLock<Arc<HealthCell>> = OnceLock::new();
    CELL.get_or_init(|| HealthCell::new(STORE_STALL_BAR))
}

igp_obs::metric_table! {
    /// All store-layer metric handles; one instance per process.
    pub struct StoreMetrics {
        histogram(
            "igp_store_wal_append_us",
            "WAL frame append latency, write through OS flush (microseconds)",
        ) {
            pub wal_append_us,
        }
        counter("igp_store_wal_frames_total", "WAL frames appended") {
            pub wal_frames_total,
        }
        counter("igp_store_wal_bytes_total", "WAL bytes written, frame headers included") {
            pub wal_bytes_total,
        }
        histogram(
            "igp_store_snapshot_us",
            "Snapshot encode + write + WAL rotation on the ack path, fsyncs excluded (microseconds)",
        ) {
            pub snapshot_us,
        }
        counter("igp_store_snapshots_total", "Snapshots written") {
            pub snapshots_total,
        }
        histogram(
            "igp_store_recovery_us",
            "Crash-recovery duration: snapshot load + WAL tail replay (microseconds)",
        ) {
            pub recovery_us,
        }
        counter("igp_store_recoveries_total", "Successful session recoveries") {
            pub recoveries_total,
        }
        counter(
            "igp_store_recovery_truncations_total",
            "Recoveries that truncated a corrupt or torn WAL tail",
        ) {
            pub recovery_truncations_total,
        }
    }
}
