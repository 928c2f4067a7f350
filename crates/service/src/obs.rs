//! Service-layer metrics: per-verb request counts and latency, typed
//! error counts, repartition triggers by policy, queue depth,
//! backpressure rejections, active sessions and wire volume. Registered
//! into the global igp-obs registry (naming per DESIGN.md §10.1); the
//! daemon's `METRICS` verb renders the whole registry, so the
//! store/core/runtime families appear beside these.

use std::sync::{Arc, OnceLock};

use crate::policy::RepartitionPolicy;
use igp_obs::{registry, Counter, Gauge, Histogram};

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

/// Ops-plane HTTP paths, in the order `ServiceMetrics::http_requests_total`
/// indexes; the final `other` bucket absorbs 404s and unknown paths.
pub const HTTP_PATHS: [&str; 6] = [
    "metrics", "healthz", "readyz", "traces", "sessions", "other",
];

/// All service-layer metric handles; one instance per process.
pub struct ServiceMetrics {
    /// `igp_service_requests_total{verb=…}` — indexed per [`VERBS`].
    pub requests_total: [Arc<Counter>; VERBS.len()],
    /// `igp_service_request_us{verb=…}` — wall time from parse to reply.
    pub request_us: [Arc<Histogram>; VERBS.len()],
    /// `igp_service_errors_total{kind=…}` — indexed per [`ERROR_KINDS`];
    /// use [`ServiceMetrics::error`] for the by-kind lookup.
    errors_total: [Arc<Counter>; ERROR_KINDS.len()],
    /// `igp_service_repartitions_total{policy=…,trigger=…}` —
    /// `[policy: every|dirt|cost][trigger: policy|flush]`; use
    /// [`ServiceMetrics::repartition_counter`].
    repartitions_total: [[Arc<Counter>; 2]; 3],
    /// `igp_service_queue_depth` — pending deltas after the most recent
    /// `DELTA` (whichever session it hit).
    pub queue_depth: Arc<Gauge>,
    /// `igp_service_backpressure_total` — `DELTA`s rejected at the
    /// queue cap.
    pub backpressure_total: Arc<Counter>,
    /// `igp_service_active_sessions` — open sessions (refreshed on
    /// `METRICS`).
    pub active_sessions: Arc<Gauge>,
    /// `igp_service_bytes_in_total` — request bytes read, graph uploads
    /// included.
    pub bytes_in_total: Arc<Counter>,
    /// `igp_service_bytes_out_total` — reply bytes written.
    pub bytes_out_total: Arc<Counter>,
    /// `igp_service_repl_frames_total{dir="shipped"}` — WAL frames this
    /// primary served to followers over `REPL FRAME`.
    pub repl_frames_shipped_total: Arc<Counter>,
    /// `igp_service_repl_frames_total{dir="applied"}` — WAL frames this
    /// follower decoded and applied through the replay ingest path.
    pub repl_frames_applied_total: Arc<Counter>,
    /// `igp_service_repl_syncs_total{dir="shipped"}` — full `REPL SYNC`
    /// bootstraps served by this primary.
    pub repl_syncs_shipped_total: Arc<Counter>,
    /// `igp_service_repl_syncs_total{dir="applied"}` — full syncs this
    /// follower installed (bootstrap or post-rotation resync).
    pub repl_syncs_applied_total: Arc<Counter>,
    /// `igp_service_repl_lag_bytes` — WAL bytes the follower still had
    /// to fetch at its most recent poll, summed over sessions.
    pub repl_lag_bytes: Arc<Gauge>,
    /// `igp_service_repl_apply_us` — per-frame apply latency on the
    /// follower (decode + ingest/flush through the replay path).
    pub repl_apply_us: Arc<Histogram>,
    /// `igp_service_promotions_total` — follower→primary promotions
    /// (manual `PROMOTE` or heartbeat-timeout failover).
    pub promotions_total: Arc<Counter>,
    /// `igp_service_conns_active` — TCP connections currently registered
    /// with the event loop.
    pub conns_active: Arc<Gauge>,
    /// `igp_service_loop_wakeups_total` — times the event loop returned
    /// from its poll wait (readiness, waker, or timer). A slow client
    /// must cost O(bytes) wakeups, not a busy spin — the slowloris
    /// regression test asserts on this counter.
    pub loop_wakeups_total: Arc<Counter>,
    /// `igp_service_poll_wait_us` — time the loop spent blocked in each
    /// poll wait; the idle-heavy distribution is the proof the loop
    /// sleeps instead of spinning.
    pub poll_wait_us: Arc<Histogram>,
    /// `igp_service_write_backpressure_total` — writes that filled the
    /// socket buffer and left the connection parked on writability.
    pub write_backpressure_total: Arc<Counter>,
    /// `igp_service_loop_iter_us` — time per event-loop iteration
    /// (readiness sweep + completions), excluding the poll wait. The
    /// loop-health gauge traces contextualize: a fat tail here means
    /// inline work is starving the loop.
    pub loop_iter_us: Arc<Histogram>,
    /// `igp_service_pool_queue_wait_us` — dispatch→pickup latency for
    /// worker-pool jobs; the direct measure of pool saturation, and
    /// the same quantity the `queue_wait` trace span shows per request.
    pub pool_queue_wait_us: Arc<Histogram>,
    /// `igp_service_http_requests_total{path=…}` — ops-plane HTTP GETs
    /// served, indexed per [`HTTP_PATHS`]; use
    /// [`ServiceMetrics::http_request`] for the by-path lookup.
    http_requests_total: [Arc<Counter>; HTTP_PATHS.len()],
    /// `igp_service_repl_lag_ms` — milliseconds since this follower was
    /// last fully caught up with its primary (0 while caught up).
    pub repl_lag_ms: Arc<Gauge>,
    /// `igp_service_repl_heartbeat_age_ms` — milliseconds since the
    /// follower's last successful replication tick against the primary.
    pub repl_heartbeat_age_ms: Arc<Gauge>,
    /// `process_start_time_seconds` — Unix time this process started
    /// (Prometheus well-known name; constant after startup).
    pub process_start_time_seconds: Arc<Gauge>,
    /// `process_uptime_seconds` — seconds since process start; refreshed
    /// on every `METRICS` / `/metrics` render.
    pub process_uptime_seconds: Arc<Gauge>,
    /// `igp_build_info{version=…,profile=…}` — constant 1; the labels
    /// carry the build identity.
    pub build_info: Arc<Gauge>,
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

/// Monotonic process start instant (first call wins; the daemon calls
/// this at startup so it reflects serve time, not first-metric time).
pub fn process_start() -> std::time::Instant {
    static START: OnceLock<std::time::Instant> = OnceLock::new();
    *START.get_or_init(std::time::Instant::now)
}

/// Whole seconds since [`process_start`].
pub fn uptime_s() -> u64 {
    process_start().elapsed().as_secs()
}

/// Refresh `process_uptime_seconds`; called from every metrics render
/// path (`METRICS` verb and the HTTP `/metrics` endpoint).
pub fn refresh_process_gauges() {
    metrics().process_uptime_seconds.set(uptime_s() as i64);
}

/// The service layer's registered metric handles.
pub fn metrics() -> &'static ServiceMetrics {
    static M: OnceLock<ServiceMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = registry();
        let policy_names = ["every", "dirt", "cost"];
        let trigger_names = ["policy", "flush"];
        ServiceMetrics {
            requests_total: std::array::from_fn(|i| {
                r.counter(
                    "igp_service_requests_total",
                    "Requests handled, by protocol verb",
                    vec![("verb", VERBS[i].0.to_string())],
                )
            }),
            request_us: std::array::from_fn(|i| {
                r.histogram(
                    "igp_service_request_us",
                    "Request wall time from parse to reply (microseconds)",
                    vec![("verb", VERBS[i].0.to_string())],
                )
            }),
            errors_total: std::array::from_fn(|i| {
                r.counter(
                    "igp_service_errors_total",
                    "ERR replies sent, by wire error kind",
                    vec![("kind", ERROR_KINDS[i].to_string())],
                )
            }),
            repartitions_total: std::array::from_fn(|p| {
                std::array::from_fn(|t| {
                    r.counter(
                        "igp_service_repartitions_total",
                        "Repartition steps, by session policy and firing trigger",
                        vec![
                            ("policy", policy_names[p].to_string()),
                            ("trigger", trigger_names[t].to_string()),
                        ],
                    )
                })
            }),
            queue_depth: r.gauge(
                "igp_service_queue_depth",
                "Pending deltas after the most recent DELTA",
                vec![],
            ),
            backpressure_total: r.counter(
                "igp_service_backpressure_total",
                "DELTA requests rejected at the per-session queue cap",
                vec![],
            ),
            active_sessions: r.gauge(
                "igp_service_active_sessions",
                "Sessions currently open in the registry",
                vec![],
            ),
            bytes_in_total: r.counter(
                "igp_service_bytes_in_total",
                "Request bytes read from clients (graph uploads included)",
                vec![],
            ),
            bytes_out_total: r.counter(
                "igp_service_bytes_out_total",
                "Reply bytes written to clients",
                vec![],
            ),
            repl_frames_shipped_total: r.counter(
                "igp_service_repl_frames_total",
                "WAL frames crossing the replication link, by direction",
                vec![("dir", "shipped".to_string())],
            ),
            repl_frames_applied_total: r.counter(
                "igp_service_repl_frames_total",
                "WAL frames crossing the replication link, by direction",
                vec![("dir", "applied".to_string())],
            ),
            repl_syncs_shipped_total: r.counter(
                "igp_service_repl_syncs_total",
                "Full REPL SYNC bootstraps, by direction",
                vec![("dir", "shipped".to_string())],
            ),
            repl_syncs_applied_total: r.counter(
                "igp_service_repl_syncs_total",
                "Full REPL SYNC bootstraps, by direction",
                vec![("dir", "applied".to_string())],
            ),
            repl_lag_bytes: r.gauge(
                "igp_service_repl_lag_bytes",
                "WAL bytes the follower had left to fetch at its last poll",
                vec![],
            ),
            repl_apply_us: r.histogram(
                "igp_service_repl_apply_us",
                "Per-frame apply latency on the follower (microseconds)",
                vec![],
            ),
            promotions_total: r.counter(
                "igp_service_promotions_total",
                "Follower-to-primary promotions (manual or heartbeat failover)",
                vec![],
            ),
            conns_active: r.gauge(
                "igp_service_conns_active",
                "TCP connections currently registered with the event loop",
                vec![],
            ),
            loop_wakeups_total: r.counter(
                "igp_service_loop_wakeups_total",
                "Event-loop poll returns (readiness, waker, or timer)",
                vec![],
            ),
            poll_wait_us: r.histogram(
                "igp_service_poll_wait_us",
                "Time the event loop spent blocked per poll wait (microseconds)",
                vec![],
            ),
            write_backpressure_total: r.counter(
                "igp_service_write_backpressure_total",
                "Writes that filled the socket buffer and parked the connection on writability",
                vec![],
            ),
            loop_iter_us: r.histogram(
                "igp_service_loop_iter_us",
                "Event-loop iteration time, poll wait excluded (microseconds)",
                vec![],
            ),
            pool_queue_wait_us: r.histogram(
                "igp_service_pool_queue_wait_us",
                "Worker-pool job wait from dispatch to pickup (microseconds)",
                vec![],
            ),
            http_requests_total: std::array::from_fn(|i| {
                r.counter(
                    "igp_service_http_requests_total",
                    "Ops-plane HTTP GET requests served, by path",
                    vec![("path", HTTP_PATHS[i].to_string())],
                )
            }),
            repl_lag_ms: r.gauge(
                "igp_service_repl_lag_ms",
                "Milliseconds since the follower was last fully caught up (0 while caught up)",
                vec![],
            ),
            repl_heartbeat_age_ms: r.gauge(
                "igp_service_repl_heartbeat_age_ms",
                "Milliseconds since the follower's last successful replication tick",
                vec![],
            ),
            process_start_time_seconds: {
                let g = r.gauge(
                    "process_start_time_seconds",
                    "Unix time the process started, in seconds",
                    vec![],
                );
                let started = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| {
                        d.as_secs()
                            .saturating_sub(process_start().elapsed().as_secs())
                    })
                    .unwrap_or(0);
                g.set(started as i64);
                g
            },
            process_uptime_seconds: r.gauge(
                "process_uptime_seconds",
                "Seconds since the process started",
                vec![],
            ),
            build_info: {
                let g = r.gauge(
                    "igp_build_info",
                    "Build identity (constant 1; labels carry version and profile)",
                    vec![
                        ("version", env!("CARGO_PKG_VERSION").to_string()),
                        (
                            "profile",
                            if cfg!(debug_assertions) {
                                "debug"
                            } else {
                                "release"
                            }
                            .to_string(),
                        ),
                    ],
                );
                g.set(1);
                g
            },
        }
    })
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
