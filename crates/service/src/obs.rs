//! Service-layer metrics: per-verb request counts and latency, typed
//! error counts, repartition triggers by policy, queue depth,
//! backpressure rejections, active sessions and wire volume. Registered
//! into the global igp-obs registry (naming per DESIGN.md §10.1); the
//! daemon's `METRICS` verb renders the whole registry, so the
//! store/core/runtime families appear beside these.

use std::sync::OnceLock;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::policy::RepartitionPolicy;
use igp_obs::Counter;

/// The protocol verbs in the order
/// [`Request::verb_idx`](crate::protocol::Request::verb_idx) assigns:
/// `(verb label value, trace root-span name)`.
pub const VERBS: [(&str, &str); 15] = [
    ("ping", "req:ping"),
    ("open", "req:open"),
    ("delta", "req:delta"),
    ("flush", "req:flush"),
    ("stat", "req:stat"),
    ("part", "req:part"),
    ("close", "req:close"),
    ("list", "req:list"),
    ("metrics", "req:metrics"),
    ("shutdown", "req:shutdown"),
    ("repl-sync", "req:repl-sync"),
    ("repl-frames", "req:repl-frames"),
    ("promote", "req:promote"),
    ("trace", "req:trace"),
    ("stall", "req:stall"),
];

/// Wire error kinds (`ERR <kind> …`): every [`crate::ServiceError`]
/// kind plus `proto` for unparseable request lines.
const ERROR_KINDS: [&str; 10] = [
    "proto",
    "unknown-session",
    "session-exists",
    "delta",
    "graph",
    "backpressure",
    "storage",
    "internal",
    "read-only",
    "repl-stale",
];

/// Ops-plane HTTP paths; the final `other` bucket absorbs 404s and
/// unknown paths.
pub const HTTP_PATHS: [&str; 6] = [
    "metrics", "healthz", "readyz", "traces", "sessions", "other",
];

igp_obs::metric_table! {
    /// All service-layer metric handles; one instance per process.
    pub struct ServiceMetrics {
        counter("igp_service_requests_total", "Requests handled, by protocol verb") {
            pub requests_total[v in VERBS] { verb: v.0 },
        }
        histogram(
            "igp_service_request_us",
            "Request wall time from parse to reply (microseconds)",
        ) {
            pub request_us[v in VERBS] { verb: v.0 },
        }
        counter("igp_service_errors_total", "ERR replies sent, by wire error kind") {
            errors_total[k in ERROR_KINDS] { kind: k },
        }
        counter(
            "igp_service_repartitions_total",
            "Repartition steps, by session policy and firing trigger",
        ) {
            repartitions_total[p in ["every", "dirt", "cost"]][t in ["policy", "flush"]] {
                policy: p,
                trigger: t,
            },
        }
        gauge("igp_service_queue_depth", "Pending deltas after the most recent DELTA") {
            pub queue_depth,
        }
        counter(
            "igp_service_backpressure_total",
            "DELTA requests rejected at the per-session queue cap",
        ) {
            pub backpressure_total,
        }
        gauge("igp_service_active_sessions", "Sessions currently open in the registry") {
            /// Refreshed on `METRICS`.
            pub active_sessions,
        }
        counter(
            "igp_service_bytes_in_total",
            "Request bytes read from clients (graph uploads included)",
        ) {
            pub bytes_in_total,
        }
        counter("igp_service_bytes_out_total", "Reply bytes written to clients") {
            pub bytes_out_total,
        }
        counter(
            "igp_service_repl_frames_total",
            "WAL frames crossing the replication link, by direction",
        ) {
            pub repl_frames_shipped_total { dir: "shipped" },
            pub repl_frames_applied_total { dir: "applied" },
        }
        counter("igp_service_repl_syncs_total", "Full REPL SYNC bootstraps, by direction") {
            pub repl_syncs_shipped_total { dir: "shipped" },
            pub repl_syncs_applied_total { dir: "applied" },
        }
        gauge(
            "igp_service_repl_lag_bytes",
            "WAL bytes the follower had left to fetch at its last poll",
        ) {
            /// Summed over sessions.
            pub repl_lag_bytes,
        }
        histogram(
            "igp_service_repl_apply_us",
            "Per-frame apply latency on the follower (microseconds)",
        ) {
            pub repl_apply_us,
        }
        counter(
            "igp_service_promotions_total",
            "Follower-to-primary promotions (manual or heartbeat failover)",
        ) {
            pub promotions_total,
        }
        gauge(
            "igp_service_conns_active",
            "TCP connections currently registered with the event loop",
        ) {
            pub conns_active,
        }
        counter(
            "igp_service_loop_wakeups_total",
            "Event-loop poll returns (readiness, waker, or timer)",
        ) {
            /// A slow client must cost O(bytes) wakeups, not a busy spin —
            /// the slowloris regression test asserts on this counter.
            pub loop_wakeups_total,
        }
        histogram(
            "igp_service_poll_wait_us",
            "Time the event loop spent blocked per poll wait (microseconds)",
        ) {
            /// The idle-heavy distribution is the proof the loop sleeps
            /// instead of spinning.
            pub poll_wait_us,
        }
        counter(
            "igp_service_write_backpressure_total",
            "Writes that filled the socket buffer and parked the connection on writability",
        ) {
            pub write_backpressure_total,
        }
        histogram(
            "igp_service_loop_iter_us",
            "Event-loop iteration time, poll wait excluded (microseconds)",
        ) {
            /// A fat tail here means inline work is starving the loop.
            pub loop_iter_us,
        }
        histogram(
            "igp_service_pool_queue_wait_us",
            "Worker-pool job wait from dispatch to pickup (microseconds)",
        ) {
            /// The direct measure of pool saturation, and the quantity
            /// the `queue_wait` trace span shows per request.
            pub pool_queue_wait_us,
        }
        counter("igp_service_http_requests_total", "Ops-plane HTTP GET requests served, by path") {
            http_requests_total[p in HTTP_PATHS] { path: p },
        }
        gauge(
            "igp_service_repl_lag_ms",
            "Milliseconds since the follower was last fully caught up (0 while caught up)",
        ) {
            pub repl_lag_ms,
        }
        gauge(
            "igp_service_repl_heartbeat_age_ms",
            "Milliseconds since the follower's last successful replication tick",
        ) {
            pub repl_heartbeat_age_ms,
        }
        gauge("process_start_time_seconds", "Unix time the process started, in seconds") {
            /// Prometheus' well-known name.
            pub process_start_time_seconds,
        }
        gauge("process_uptime_seconds", "Seconds since the process started") {
            /// Set by [`refresh_process_gauges`].
            pub process_uptime_seconds,
        }
        gauge("igp_build_info", "Build identity (constant 1; labels carry version and profile)") {
            pub build_info {
                version: env!("CARGO_PKG_VERSION"),
                profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            },
        }
    }
    init |m| {
        let unix_s = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
        m.process_start_time_seconds.set(unix_s.saturating_sub(uptime_s()) as i64);
        m.build_info.set(1);
    }
}

impl ServiceMetrics {
    /// The error counter for a wire kind token (`None` for tokens the
    /// protocol never emits).
    pub fn error(&self, kind: &str) -> Option<&Counter> {
        ERROR_KINDS
            .iter()
            .position(|k| *k == kind)
            .map(|i| &*self.errors_total[i])
    }

    /// The repartition counter for a session's policy and the firing
    /// trigger (`trigger="policy"` for policy-initiated steps,
    /// `trigger="flush"` for explicit `FLUSH`).
    pub fn repartition_counter(
        &self,
        policy: &RepartitionPolicy,
        explicit_flush: bool,
    ) -> &Counter {
        // The order the family lists its `policy` labels in.
        let p = match policy {
            RepartitionPolicy::EveryK(_) => 0,
            RepartitionPolicy::DirtFraction(_) => 1,
            RepartitionPolicy::CostModelDriven(_) => 2,
        };
        &self.repartitions_total[p][usize::from(explicit_flush)]
    }

    /// The HTTP request counter for an ops-plane path token (see
    /// [`HTTP_PATHS`]); unknown tokens land in the `other` bucket.
    pub fn http_request(&self, path: &str) -> &Counter {
        let i = HTTP_PATHS
            .iter()
            .position(|p| *p == path)
            .unwrap_or(HTTP_PATHS.len() - 1);
        &self.http_requests_total[i]
    }
}

/// Whole seconds since the first call, which registering this table
/// makes: the daemon does so at boot.
pub fn uptime_s() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs()
}

/// Refresh [`ServiceMetrics::process_uptime_seconds`]; every metrics
/// render path (`METRICS` verb, HTTP `/metrics`) calls this first.
pub fn refresh_process_gauges() {
    metrics().process_uptime_seconds.set(uptime_s() as i64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_table_matches_request_enum() {
        use crate::protocol::{Request, StallTarget};
        let sid = || String::from("s");
        let reqs = [
            Request::Ping,
            Request::Open {
                sid: sid(),
                cfg: crate::SessionConfig::new(2),
            },
            Request::Delta {
                sid: sid(),
                delta: Default::default(),
            },
            Request::Flush { sid: sid() },
            Request::Stat { sid: sid() },
            Request::Part { sid: sid() },
            Request::Close { sid: sid() },
            Request::List,
            Request::Metrics,
            Request::Shutdown,
            Request::ReplSync { sid: sid() },
            Request::ReplFrames {
                sid: sid(),
                seq: 0,
                offset: 0,
            },
            Request::Promote,
            Request::TraceDump { n: 1 },
            Request::TraceSlow { threshold_us: 1 },
            Request::Stall {
                target: StallTarget::Loop,
                ms: 1,
            },
        ];
        let mut seen = [false; VERBS.len()];
        for req in &reqs {
            // No `_` arm: a new variant must be added to `reqs` too.
            let (label, has_sid) = match req {
                Request::Ping => ("ping", false),
                Request::Open { .. } => ("open", true),
                Request::Delta { .. } => ("delta", true),
                Request::Flush { .. } => ("flush", true),
                Request::Stat { .. } => ("stat", true),
                Request::Part { .. } => ("part", true),
                Request::Close { .. } => ("close", true),
                Request::List => ("list", false),
                Request::Metrics => ("metrics", false),
                Request::Shutdown => ("shutdown", false),
                Request::ReplSync { .. } => ("repl-sync", true),
                Request::ReplFrames { .. } => ("repl-frames", true),
                Request::Promote => ("promote", false),
                Request::TraceDump { .. } | Request::TraceSlow { .. } => ("trace", false),
                Request::Stall { .. } => ("stall", false),
            };
            let (got_label, got_span) = VERBS[req.verb_idx()];
            assert_eq!(got_label, label, "{req:?}");
            assert_eq!(got_span, format!("req:{label}"), "{req:?}");
            assert_eq!(req.sid().is_some(), has_sid, "{req:?}");
            seen[req.verb_idx()] = true;
        }
        assert_eq!(seen, [true; VERBS.len()], "every verb has a request");
    }

    #[test]
    fn error_kind_lookup_covers_service_errors() {
        let m = metrics();
        for e in [
            crate::ServiceError::UnknownSession("x".into()),
            crate::ServiceError::SessionExists("x".into()),
            crate::ServiceError::Graph("g".into()),
            crate::ServiceError::Backpressure {
                sid: "x".into(),
                pending: 1,
                cap: 1,
            },
            crate::ServiceError::Storage("s".into()),
            crate::ServiceError::Internal("i".into()),
            crate::ServiceError::ReadOnly,
            crate::ServiceError::ReplStale {
                sid: "x".into(),
                seq: 1,
            },
        ] {
            assert!(m.error(e.kind()).is_some(), "{}", e.kind());
        }
        assert!(m.error("proto").is_some());
        assert!(m.error("not-a-kind").is_none());
    }

    #[test]
    fn http_path_lookup_and_process_gauges() {
        let m = metrics();
        let before = m.http_request("other").get();
        m.http_request("metrics").inc();
        m.http_request("not-a-path").inc();
        assert_eq!(m.http_request("other").get(), before + 1);
        refresh_process_gauges();
        assert_eq!(m.build_info.get(), 1);
        assert!(m.process_start_time_seconds.get() > 0);
    }
}
