//! Store-layer metrics: WAL append latency and volume, snapshot and
//! recovery durations, corrupt-tail truncations. Registered into the
//! global igp-obs registry (naming per DESIGN.md §10.1). Also home of
//! the process-global durability [`health_cell`] the serving layer's
//! watchdog registers as its `store` component.

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use igp_obs::health::HealthCell;
use igp_obs::{registry, Counter, Histogram};

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

/// All store-layer metric handles; one instance per process.
pub struct StoreMetrics {
    /// `igp_store_wal_append_us` — one WAL frame write + flush.
    pub wal_append_us: Arc<Histogram>,
    /// `igp_store_wal_frames_total` — frames appended.
    pub wal_frames_total: Arc<Counter>,
    /// `igp_store_wal_bytes_total` — frame bytes written (headers incl.).
    pub wal_bytes_total: Arc<Counter>,
    /// `igp_store_snapshot_us` — the ack-path half of a rotation: encode,
    /// write, rename, new WAL (the fsyncs run behind it).
    pub snapshot_us: Arc<Histogram>,
    /// `igp_store_snapshots_total` — snapshots written.
    pub snapshots_total: Arc<Counter>,
    /// `igp_store_recovery_us` — full `SessionStore::recover` duration.
    pub recovery_us: Arc<Histogram>,
    /// `igp_store_recoveries_total` — recovery attempts that succeeded.
    pub recoveries_total: Arc<Counter>,
    /// `igp_store_recovery_truncations_total` — recoveries that dropped
    /// a corrupt/torn WAL tail.
    pub recovery_truncations_total: Arc<Counter>,
}

/// The store layer's registered metric handles.
pub fn metrics() -> &'static StoreMetrics {
    static M: OnceLock<StoreMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = registry();
        StoreMetrics {
            wal_append_us: r.histogram(
                "igp_store_wal_append_us",
                "WAL frame append latency, write through OS flush (microseconds)",
                vec![],
            ),
            wal_frames_total: r.counter(
                "igp_store_wal_frames_total",
                "WAL frames appended",
                vec![],
            ),
            wal_bytes_total: r.counter(
                "igp_store_wal_bytes_total",
                "WAL bytes written, frame headers included",
                vec![],
            ),
            snapshot_us: r.histogram(
                "igp_store_snapshot_us",
                "Snapshot encode + write + WAL rotation on the ack path, fsyncs excluded (microseconds)",
                vec![],
            ),
            snapshots_total: r.counter("igp_store_snapshots_total", "Snapshots written", vec![]),
            recovery_us: r.histogram(
                "igp_store_recovery_us",
                "Crash-recovery duration: snapshot load + WAL tail replay (microseconds)",
                vec![],
            ),
            recoveries_total: r.counter(
                "igp_store_recoveries_total",
                "Successful session recoveries",
                vec![],
            ),
            recovery_truncations_total: r.counter(
                "igp_store_recovery_truncations_total",
                "Recoveries that truncated a corrupt or torn WAL tail",
                vec![],
            ),
        }
    })
}
