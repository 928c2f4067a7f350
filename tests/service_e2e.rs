//! End-to-end acceptance for the serving layer: the daemon serves
//! concurrent sessions over real TCP, each streaming deltas under a
//! cost-model-driven repartition policy, and every session's final
//! partition is **bit-identical** to a single-threaded replay of the
//! same delta stream through the session machinery.

mod common;

use igp::graph::{generators, CsrGraph, GraphDelta, PartId};
use igp::service::client::{ClientError, DeltaAck, IgpClient};
use igp::service::server::{serve, ServeOptions};
use igp::service::session::{Ingest, InitPartition, ServiceSession, SessionConfig};
use igp::service::RepartitionPolicy;

const SESSIONS: usize = 5;
const DELTAS: usize = 22;

/// Per-session scenario: base graph + config, deterministic per index.
fn scenario(i: usize) -> (CsrGraph, SessionConfig) {
    let base = match i % 3 {
        0 => generators::grid(9, 9),
        1 => generators::grid(8, 10),
        _ => common::random_connected_graph(70 + 10 * (i % 2), 90, 7 + i as u64),
    };
    let mut cfg = SessionConfig::new(4);
    cfg.policy = "cost".parse::<RepartitionPolicy>().unwrap();
    cfg.init = if i.is_multiple_of(2) {
        InitPartition::Rsb
    } else {
        InitPartition::RoundRobin
    };
    // One uses plain IGP instead of IGPR.
    cfg.refined = i != 3;
    (base, cfg)
}

/// The delta stream for one session, generated against the evolving
/// mirror exactly as the daemon's coalescer will see it.
fn delta_stream(base: &CsrGraph, i: usize) -> Vec<GraphDelta> {
    let mut mirror = base.clone();
    let mut deltas = Vec::with_capacity(DELTAS);
    for k in 0..DELTAS {
        let seed = (i as u64) << 40 | k as u64;
        let d = if k % 3 == 2 {
            generators::random_churn_delta(&mirror, 3, 2, seed)
        } else {
            generators::localized_growth_delta(&mirror, (k % 5) as u32, 3, seed)
        };
        mirror = d.apply(&mirror).new_graph().clone();
        deltas.push(d);
    }
    deltas
}

/// Single-threaded ground truth: the same graph, config and stream
/// through `ServiceSession` directly (no sockets, no threads).
fn replay(base: CsrGraph, cfg: SessionConfig, deltas: &[GraphDelta]) -> (Vec<PartId>, usize) {
    let mut s = ServiceSession::open(base, cfg);
    let mut steps = 0;
    for d in deltas {
        if let Ingest::Stepped { .. } = s.ingest(d).expect("replay ingest") {
            steps += 1;
        }
    }
    if s.flush().expect("replay flush").is_some() {
        steps += 1;
    }
    (s.assignment().to_vec(), steps)
}

#[test]
fn concurrent_sessions_match_single_threaded_replay() {
    let server = serve(
        "127.0.0.1:0",
        ServeOptions {
            shards: 4,
            ..Default::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    // Drive SESSIONS concurrent clients, each with its own connection
    // and tenant session.
    let workers: Vec<_> = (0..SESSIONS)
        .map(|i| {
            std::thread::spawn(move || {
                let (base, cfg) = scenario(i);
                let deltas = delta_stream(&base, i);
                let sid = format!("e2e-{i}");
                let mut cli = IgpClient::connect(addr).expect("connect");
                let ack = cli.open(&sid, &base, &cfg).expect("open");
                assert_eq!(ack.n, base.num_vertices());
                assert_eq!(ack.m, base.num_edges());
                let mut wire_steps = 0;
                let mut batched = false;
                for d in &deltas {
                    match cli.delta(&sid, d).expect("delta") {
                        DeltaAck::Queued { .. } => batched = true,
                        DeltaAck::Stepped(s) => {
                            wire_steps += 1;
                            assert!(s.coalesced >= 1);
                            if s.coalesced > 1 {
                                batched = true;
                            }
                        }
                    }
                }
                if cli.flush(&sid).expect("flush").is_some() {
                    wire_steps += 1;
                }
                let stat = cli.stat(&sid).expect("stat");
                assert_eq!(stat.pending, 0);
                assert_eq!(stat.steps, wire_steps);
                let assignment = cli.partition(&sid).expect("partition");
                assert_eq!(assignment.len(), stat.n);
                cli.close(&sid).expect("close");
                // The cost policy must actually have batched something
                // (otherwise this test degenerates to every:1).
                assert!(batched, "session {i}: cost policy never coalesced");
                (i, base, cfg, deltas, assignment, wire_steps)
            })
        })
        .collect();

    let results: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();

    // After every close the registry is empty again.
    let mut cli = IgpClient::connect(addr).expect("connect");
    assert_eq!(cli.list().expect("list"), Vec::<String>::new());
    cli.shutdown().expect("shutdown");
    server.wait();

    // Bit-identical replay, session by session, single-threaded.
    for (i, base, cfg, deltas, wire_assignment, wire_steps) in results {
        let (replay_assignment, replay_steps) = replay(base, cfg, &deltas);
        assert_eq!(replay_steps, wire_steps, "session {i}: step count differs");
        assert_eq!(
            replay_assignment, wire_assignment,
            "session {i}: partition differs from single-threaded replay"
        );
    }
}

/// A malformed `OPEN` line must not desynchronize the connection: the
/// server drains the graph block through its `END` terminator, so the
/// next request on the same connection gets its own reply (regression
/// for the graph block being reinterpreted as request lines).
#[test]
fn malformed_open_drains_graph_block() {
    use std::io::{BufRead, BufReader, Write};

    let server = serve("127.0.0.1:0", ServeOptions::default()).expect("bind");
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));

    // sid contains `/` → parse error; the METIS block follows anyway,
    // exactly as a non-validating client would send it.
    let g = generators::grid(4, 4);
    let mut block = String::from("OPEN bad/sid parts=2\n");
    block.push_str(&igp::graph::io::write_metis(&g));
    block.push_str("END\nPING\n");
    stream.write_all(block.as_bytes()).expect("write");

    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.starts_with("ERR proto"), "got `{line}`");
    // The very next reply must answer the PING — not leftover graph
    // lines echoed back as unknown verbs.
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert_eq!(line.trim(), "PONG");
    drop(stream);

    let mut cli = IgpClient::connect(server.addr()).expect("connect");
    cli.shutdown().expect("shutdown");
    server.wait();
}

/// A METIS upload whose weights exceed `MAX_WEIGHT` is refused with
/// `ERR graph` before any sum over it is taken, and a session already
/// open on the daemon keeps serving.
#[test]
fn open_with_out_of_range_weight_answers_err() {
    let server = serve("127.0.0.1:0", ServeOptions::default()).expect("bind");
    let mut cli = IgpClient::connect(server.addr()).expect("connect");
    let sibling = generators::grid(4, 4);
    cli.open("ok", &sibling, &SessionConfig::new(2))
        .expect("open sibling");

    let mut heavy = generators::cycle(12);
    heavy.set_vertex_weights(vec![1 << 31; 12]);
    match cli.open("heavy", &heavy, &SessionConfig::new(2)) {
        Err(ClientError::Server { kind, detail }) => {
            assert_eq!(kind, "graph", "{detail}");
            assert!(detail.contains("exceeds"), "{detail}");
        }
        other => panic!("expected ERR graph, got {other:?}"),
    }
    assert_eq!(cli.list().expect("list"), vec!["ok".to_string()]);

    let grow = GraphDelta {
        add_vertices: vec![1],
        add_edges: vec![(15, 16, 1)],
        ..Default::default()
    };
    cli.delta("ok", &grow).expect("sibling still serves");
    cli.flush("ok").expect("flush");
    assert_eq!(cli.partition("ok").expect("part").len(), 17);
    cli.shutdown().expect("shutdown");
    server.wait();
}

/// One sample line's value from a Prometheus-style exposition; `series`
/// is the full series name including any label set.
fn metric_value(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            let rest = l.strip_prefix(series)?;
            rest.strip_prefix(' ')?.trim().parse::<f64>().ok()
        })
        .unwrap_or_else(|| panic!("series `{series}` missing from exposition:\n{text}"))
}

/// The `METRICS` verb serves a parseable exposition covering all four
/// instrumented layers, with live values reflecting the workload just
/// driven through the daemon, and `STAT` carries the per-session
/// repartition-latency subset once a step has happened.
///
/// The registry is process-global and the test binary runs tests
/// concurrently, so value assertions are lower bounds (≥), never
/// equality.
#[test]
fn metrics_exposition_covers_all_layers() {
    let server = serve("127.0.0.1:0", ServeOptions::default()).expect("bind");
    let mut cli = IgpClient::connect(server.addr()).expect("connect");

    let base = generators::grid(8, 8);
    let mut cfg = SessionConfig::new(4);
    cfg.init = InitPartition::RoundRobin;
    cfg.policy = "every:2".parse::<RepartitionPolicy>().unwrap();
    cli.open("obs", &base, &cfg).expect("open");
    const N_DELTAS: usize = 6;
    let mut mirror = base;
    let mut steps = 0usize;
    for k in 0..N_DELTAS {
        let d = generators::random_churn_delta(&mirror, 2, 1, 91 + k as u64);
        mirror = d.apply(&mirror).new_graph().clone();
        if let DeltaAck::Stepped(_) = cli.delta("obs", &d).expect("delta") {
            steps += 1;
        }
    }
    if cli.flush("obs").expect("flush").is_some() {
        steps += 1;
    }
    assert!(steps >= 1, "every:2 over {N_DELTAS} deltas must step");

    // Per-session subset on STAT: present once a repartition ran, and
    // internally consistent (quantiles are clamped to the max).
    let stat = cli.stat("obs").expect("stat");
    let p50 = stat.repart_p50_us.expect("repart_p50_us after steps");
    let p99 = stat.repart_p99_us.expect("repart_p99_us after steps");
    let max = stat.repart_max_us.expect("repart_max_us after steps");
    assert!(p50 <= p99 && p99 <= max, "p50={p50} p99={p99} max={max}");

    let text = cli.metrics().expect("metrics");

    // Grammar: every line is a `# HELP`/`# TYPE` comment or
    // `name[{labels}] value` with a numeric value.
    for line in text.lines() {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("unparseable exposition line `{line}`");
        });
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric value in `{line}`"
        );
        // `process_*` is the conventional Prometheus prefix for the
        // process-level families (start time / uptime); everything
        // else is namespaced under `igp_`.
        assert!(
            (series.starts_with("igp_") || series.starts_with("process_"))
                && series.matches('{').count() == series.matches('}').count(),
            "malformed series name in `{line}`"
        );
    }

    // Every serving layer's families render — the daemon touches each
    // layer's metric struct at boot, so these exist even where still
    // zero. The SPMD runtime's families are library-only: no session
    // runs that driver, so the daemon never exposes them.
    for family in [
        "igp_service_requests_total",
        "igp_service_request_us",
        "igp_service_errors_total",
        "igp_service_repartitions_total",
        "igp_service_queue_depth",
        "igp_service_backpressure_total",
        "igp_service_active_sessions",
        "igp_service_bytes_in_total",
        "igp_service_bytes_out_total",
        "igp_core_repartition_us",
        "igp_core_repartitions_total",
        "igp_core_pivots_total",
        "igp_core_edge_cut_before",
        "igp_core_edge_cut_after",
        "igp_core_coalesced_batch_deltas",
        "igp_store_wal_append_us",
        "igp_store_wal_frames_total",
        "igp_store_snapshot_us",
        "igp_store_recovery_us",
        "igp_store_recovery_truncations_total",
    ] {
        assert!(
            text.contains(&format!("# TYPE {family} ")),
            "family `{family}` missing from exposition:\n{text}"
        );
    }
    assert!(!text.contains("igp_runtime_"), "{text}");
    assert!(!text.contains("driver=\"parallel\""), "{text}");

    // Live values for the workload just driven (lower bounds).
    assert!(metric_value(&text, "igp_service_requests_total{verb=\"open\"}") >= 1.0);
    assert!(metric_value(&text, "igp_service_requests_total{verb=\"delta\"}") >= N_DELTAS as f64);
    assert!(metric_value(&text, "igp_service_requests_total{verb=\"metrics\"}") >= 1.0);
    assert!(metric_value(&text, "igp_service_request_us_count{verb=\"delta\"}") >= N_DELTAS as f64);
    assert!(metric_value(&text, "igp_service_bytes_in_total") >= 1.0);
    assert!(metric_value(&text, "igp_service_bytes_out_total") >= 1.0);
    // Every session runs the sequential driver.
    let seq = "igp_core_repartitions_total{driver=\"sequential\"}";
    assert!(metric_value(&text, seq) >= steps as f64);
    let seq_us = "igp_core_repartition_us_count{driver=\"sequential\"}";
    assert!(metric_value(&text, seq_us) >= steps as f64);
    assert!(metric_value(&text, "igp_core_coalesced_batch_deltas_count") >= steps as f64);
    // Present with a sane (non-negative) value; may legitimately be 0.
    assert!(metric_value(&text, "igp_core_pivots_total") >= 0.0);

    cli.close("obs").expect("close");
    cli.shutdown().expect("shutdown");
    server.wait();
}

/// Protocol-level error paths stay typed end to end: malformed deltas
/// are rejected at the boundary without killing the session or the
/// connection.
#[test]
fn boundary_errors_are_reported_not_fatal() {
    let server = serve("127.0.0.1:0", ServeOptions::default()).expect("bind");
    let mut cli = IgpClient::connect(server.addr()).expect("connect");

    let base = generators::grid(6, 6);
    let mut cfg = SessionConfig::new(2);
    cfg.init = InitPartition::RoundRobin;
    cli.open("s", &base, &cfg).expect("open");

    // Unknown session.
    let err = cli.stat("ghost").unwrap_err();
    assert!(matches!(
        err,
        igp::service::ClientError::Server { ref kind, .. } if kind == "unknown-session"
    ));
    // Duplicate open.
    let err = cli.open("s", &base, &cfg).unwrap_err();
    assert!(matches!(
        err,
        igp::service::ClientError::Server { ref kind, .. } if kind == "session-exists"
    ));
    // Malformed delta (vertex out of range) → typed boundary rejection.
    let bad = GraphDelta {
        remove_vertices: vec![9999],
        ..Default::default()
    };
    let err = cli.delta("s", &bad).unwrap_err();
    assert!(matches!(
        err,
        igp::service::ClientError::Server { ref kind, .. } if kind == "delta"
    ));
    // A structurally fine delta lying about base-edge existence (edge
    // {0,5} is not in a 6-wide grid row) — regression: this used to
    // pass the boundary and panic at flush, poisoning the session.
    let lying = GraphDelta {
        remove_edges: vec![(0, 5)],
        ..Default::default()
    };
    let err = cli.delta("s", &lying).unwrap_err();
    assert!(matches!(
        err,
        igp::service::ClientError::Server { ref kind, .. } if kind == "delta"
    ));
    // The session still works afterwards.
    let d = generators::localized_growth_delta(&base, 0, 3, 1);
    assert!(matches!(
        cli.delta("s", &d).expect("valid delta after rejected one"),
        DeltaAck::Stepped(_)
    ));
    cli.close("s").expect("close");
    cli.shutdown().expect("shutdown");
    server.wait();
}
