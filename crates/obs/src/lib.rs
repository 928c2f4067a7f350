//! igp-obs: the observability substrate for the IGP serving stack.
//!
//! Dependency-free (std only), in the same vendored-stub spirit as the
//! workspace's `rand` stand-in: every crate in the serving path links
//! this, so it must stay tiny and pull nothing in.
//!
//! Four pieces:
//!
//! - **Metrics** ([`Counter`], [`Gauge`], [`Histogram`], [`SpanTimer`])
//!   registered into the process-wide [`registry()`], which renders a
//!   Prometheus-style text exposition for the daemon's `METRICS` verb.
//!   Recording is lock-free (relaxed atomics) and respects a global
//!   kill switch ([`set_enabled`]) so benches can price the
//!   instrumentation itself.
//! - **Structured logging** ([`error!`], [`warn!`], [`info!`],
//!   [`debug!`]) with a global `--log-level` gate, per-target
//!   overrides, and a per-thread context prefix ([`set_log_ctx`]) so
//!   interleaved daemon lines stay attributable; lines are
//!   `LEVEL target [ctx] message key=value ...`.
//! - **Span timers** ([`SpanTimer`]) that feed wall-clock durations
//!   (µs) into histograms on drop.
//! - **Request tracing** ([`trace::Span`]) recording causal span trees
//!   into per-thread ring-buffer flight recorders, rendered by the
//!   daemon's `TRACE DUMP` verb and the slow-request log
//!   ([`trace::set_slow_threshold_us`]).
//! - **Liveness watchdogs** ([`health::Watchdog`]) — busy-since and
//!   freshness heartbeat cells with per-component stall bars, feeding
//!   the daemon's `/healthz`/`/readyz` endpoints — and **black-box
//!   dumps** ([`health`], [`dump`]): the crash-time bundle the daemon
//!   writes on panic or SIGTERM.
//!
//! Metric naming follows DESIGN.md §10.1: `igp_<layer>_<what>_<unit>`,
//! with time histograms in microseconds (`_us`) and counts as
//! `_total`.

pub mod dump;
pub mod health;
mod log;
mod metrics;
mod registry;
pub mod trace;

pub use log::{
    current_log_ctx, log_enabled, max_level, set_log_ctx, set_max_level, set_target_level,
    write_log, Level, LogCtxGuard,
};
pub use metrics::{Counter, Gauge, Histogram, SpanTimer};
pub use registry::{registry, Labels, Registry};

use std::sync::atomic::{AtomicBool, Ordering};

/// Global metrics kill switch. On by default; benches flip it off to
/// measure the serving path with instrumentation inert.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is metric recording enabled? One relaxed load; checked inside every
/// `Counter::add` / `Gauge::set` / `Histogram::observe`.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn metric recording on or off process-wide. Reads (rendering,
/// `get()`, quantiles) always work; only recording is gated.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Unit tests share one process and `ENABLED` is global, so tests that
/// record take the read lock (keeping it on) and the kill-switch test
/// takes the write lock while it toggles.
#[cfg(test)]
pub(crate) mod testsync {
    use std::sync::RwLock;

    static LOCK: RwLock<()> = RwLock::new(());

    pub fn recording() -> std::sync::RwLockReadGuard<'static, ()> {
        let g = LOCK.read().unwrap_or_else(|e| e.into_inner());
        crate::set_enabled(true);
        g
    }

    pub fn exclusive() -> std::sync::RwLockWriteGuard<'static, ()> {
        LOCK.write().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn kill_switch_gates_recording() {
        let _g = crate::testsync::exclusive();
        let c = crate::Counter::new();
        crate::set_enabled(false);
        c.inc();
        let off = c.get();
        crate::set_enabled(true);
        c.inc();
        assert_eq!(c.get(), off + 1);
        assert_eq!(off, 0);
    }
}
