//! Durability end to end over real TCP: a daemon in `--data-dir` mode
//! serves tenants, goes away, restarts on the same directory, and
//! every session answers `PART` bit-identically to a single-threaded
//! replay twin — then keeps serving. Plus the admission-control path:
//! a client outrunning its flushes gets a typed `ERR backpressure`.
//!
//! (The kill -9 variant of the restart runs in CI's `durability` job
//! against the release binaries; in-process we crash by dropping the
//! server, which exercises the same recovery path — the WAL is
//! appended synchronously per request, so the on-disk state at any
//! drop point is exactly a crash image.)

use igp::graph::{generators, CsrGraph, GraphDelta};
use igp::service::client::IgpClient;
use igp::service::server::{serve, ServeOptions};
use igp::service::session::{Ingest, InitPartition, ServiceSession, SessionConfig};
use igp::service::{ClientError, SnapshotPolicy};
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("igp-durable-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(data_dir: &std::path::Path) -> ServeOptions {
    ServeOptions {
        shards: 4,
        data_dir: Some(data_dir.to_path_buf()),
        snapshot_policy: SnapshotPolicy::EveryK(4),
        ..Default::default()
    }
}

/// Per-tenant scenario: graph, config, and a deterministic stream.
fn scenario(i: usize) -> (CsrGraph, SessionConfig, Vec<GraphDelta>) {
    let base = generators::grid(6 + i, 6);
    let mut cfg = SessionConfig::new(2 + i % 2);
    cfg.init = InitPartition::RoundRobin;
    cfg.policy = ["every:1", "every:3", "cost"][i % 3].parse().unwrap();
    let mut mirror = base.clone();
    let mut deltas = Vec::new();
    for k in 0..10 {
        let d = generators::random_churn_delta(&mirror, 2, 1, (i as u64) << 32 | k);
        mirror = d.apply(&mirror).new_graph().clone();
        deltas.push(d);
    }
    (base, cfg, deltas)
}

/// Single-threaded ground truth over the same prefix.
fn replay(base: &CsrGraph, cfg: &SessionConfig, deltas: &[GraphDelta]) -> ServiceSession {
    let mut s = ServiceSession::open(base.clone(), cfg.clone());
    for d in deltas {
        s.ingest(d).expect("replay ingest");
    }
    s
}

#[test]
fn daemon_restart_recovers_every_session_bit_identical() {
    let dir = scratch_dir("restart");
    const TENANTS: usize = 3;
    const BEFORE: usize = 6; // deltas per tenant before the "crash"

    // Epoch 1: open tenants, stream a prefix, vanish without CLOSE.
    let server = serve("127.0.0.1:0", opts(&dir)).expect("bind");
    let addr = server.addr();
    let mut cli = IgpClient::connect(addr).expect("connect");
    for i in 0..TENANTS {
        let (base, cfg, deltas) = scenario(i);
        let sid = format!("t{i}");
        cli.open(&sid, &base, &cfg).expect("open");
        for d in &deltas[..BEFORE] {
            cli.delta(&sid, d).expect("delta");
        }
        let stat = cli.stat(&sid).expect("stat");
        assert!(
            stat.wal_records.is_some() && stat.snap_seq.is_some(),
            "durable sessions must report WAL/snapshot stats, got {stat:?}"
        );
    }
    drop(cli);
    drop(server); // the daemon is gone; only the data dir survives

    // Epoch 2: a fresh daemon on the same directory.
    let server = serve("127.0.0.1:0", opts(&dir)).expect("rebind");
    let mut cli = IgpClient::connect(server.addr()).expect("reconnect");
    let mut ids = cli.list().expect("list");
    ids.sort();
    assert_eq!(ids, vec!["t0".to_string(), "t1".into(), "t2".into()]);

    for i in 0..TENANTS {
        let (base, cfg, deltas) = scenario(i);
        let sid = format!("t{i}");
        // Bit-identical to the replay twin at the crash point…
        let truth = replay(&base, &cfg, &deltas[..BEFORE]);
        let assignment = cli.partition(&sid).expect("partition");
        assert_eq!(
            assignment,
            truth.assignment(),
            "session {sid}: recovered partition differs from replay"
        );
        let stat = cli.stat(&sid).expect("stat");
        assert_eq!(stat.steps, truth.steps(), "session {sid}: steps differ");
        assert_eq!(
            stat.pending,
            truth.inner().pending_deltas(),
            "session {sid}: pending queue differs"
        );
        // …and after recovery the session keeps serving identically.
        let truth = replay(&base, &cfg, &deltas);
        for d in &deltas[BEFORE..] {
            cli.delta(&sid, d).expect("post-recovery delta");
        }
        let assignment = cli.partition(&sid).expect("partition");
        assert_eq!(
            assignment,
            truth.assignment(),
            "session {sid}: post-recovery partition differs"
        );
    }

    // CLOSE deletes the tenant's directory: nothing resurrects.
    cli.close("t0").expect("close");
    assert!(
        !dir.join("t0").exists(),
        "CLOSE must delete the session dir"
    );
    cli.shutdown().expect("shutdown");
    server.wait();

    // Epoch 3: only the unclosed tenants come back.
    let server = serve("127.0.0.1:0", opts(&dir)).expect("rebind");
    let mut cli = IgpClient::connect(server.addr()).expect("reconnect");
    let mut ids = cli.list().expect("list");
    ids.sort();
    assert_eq!(ids, vec!["t1".to_string(), "t2".into()]);
    cli.shutdown().expect("shutdown");
    server.wait();
    std::fs::remove_dir_all(&dir).ok();
}

/// Admission control (satellite): the per-session queue cap answers
/// `ERR backpressure` — typed, non-fatal — and a FLUSH drains the
/// queue so traffic resumes.
#[test]
fn queue_cap_backpressure_is_typed_and_recoverable() {
    let server = serve(
        "127.0.0.1:0",
        ServeOptions {
            queue_cap: 3,
            ..Default::default()
        },
    )
    .expect("bind");
    let mut cli = IgpClient::connect(server.addr()).expect("connect");
    let base = generators::grid(6, 6);
    let mut cfg = SessionConfig::new(2);
    cfg.init = InitPartition::RoundRobin;
    // A policy that never fires on its own: the queue only drains on
    // explicit FLUSH.
    cfg.policy = "every:1000000".parse().unwrap();
    cli.open("q", &base, &cfg).expect("open");

    let mut mirror = base.clone();
    let mut queued = Vec::new();
    for k in 0..3u64 {
        let d = generators::localized_growth_delta(&mirror, 0, 2, k);
        mirror = d.apply(&mirror).new_graph().clone();
        cli.delta("q", &d).expect("under the cap");
        queued.push(d);
    }
    let overflow = generators::localized_growth_delta(&mirror, 0, 2, 99);
    let err = cli.delta("q", &overflow).expect_err("cap reached");
    match err {
        ClientError::Server {
            ref kind,
            ref detail,
        } => {
            assert_eq!(kind, "backpressure", "{detail}");
            assert!(detail.contains("cap 3"), "{detail}");
        }
        other => panic!("expected typed server error, got {other:?}"),
    }
    // The rejected delta was not applied: the session still matches a
    // replay of the accepted prefix.
    let stat = cli.stat("q").expect("stat");
    assert_eq!(stat.pending, 3);

    // FLUSH drains the queue; the same delta is admitted afterwards.
    cli.flush("q").expect("flush").expect("3 deltas pending");
    match cli.delta("q", &overflow).expect("admitted after flush") {
        igp::service::client::DeltaAck::Queued { pending } => assert_eq!(pending, 1),
        other => panic!("policy must not fire: {other:?}"),
    }
    // Equivalence with the in-process session under the same events.
    let mut truth = ServiceSession::open(base, cfg);
    for d in &queued {
        truth.ingest(d).expect("truth ingest");
    }
    truth.flush().expect("truth flush");
    match truth.ingest(&overflow).expect("truth overflow") {
        Ingest::Queued { pending } => assert_eq!(pending, 1),
        other => panic!("{other:?}"),
    }
    let assignment = cli.partition("q").expect("partition");
    assert_eq!(assignment, truth.assignment());
    cli.shutdown().expect("shutdown");
    server.wait();
}

/// A daemon without `--data-dir` reports no WAL fields and survives a
/// restart with... nothing, which is exactly the pre-durability
/// contract (regression guard for the memory-only path).
#[test]
fn memory_only_mode_reports_no_wal_fields() {
    let server = serve("127.0.0.1:0", ServeOptions::default()).expect("bind");
    let mut cli = IgpClient::connect(server.addr()).expect("connect");
    let base = generators::grid(5, 5);
    let mut cfg = SessionConfig::new(2);
    cfg.init = InitPartition::RoundRobin;
    cli.open("m", &base, &cfg).expect("open");
    let stat = cli.stat("m").expect("stat");
    assert_eq!(stat.wal_records, None);
    assert_eq!(stat.wal_bytes, None);
    assert_eq!(stat.snap_seq, None);
    assert_eq!(stat.snapshots, None);
    cli.shutdown().expect("shutdown");
    server.wait();
}

/// Regression: a durable session's id names its directory under the
/// data dir, so `.` and `..` must not be session ids. `OPEN ..` used to
/// answer `OK open` after deleting the data dir's parent tree (a
/// sibling session and a file next to the data dir included); `OPEN .`
/// deleted every session directory before failing.
#[test]
fn dot_session_ids_cannot_escape_the_data_dir() {
    let parent = scratch_dir("dots");
    let data = parent.join("data");
    std::fs::create_dir_all(&data).unwrap();
    let canary = parent.join("canary.txt");
    std::fs::write(&canary, "keep").unwrap();
    let base = generators::grid(4, 4);
    let mut cfg = SessionConfig::new(2);
    cfg.init = InitPartition::RoundRobin;

    let server = serve("127.0.0.1:0", opts(&data)).expect("bind");
    let mut cli = IgpClient::connect(server.addr()).expect("connect");
    let a = cli.open("a", &base, &cfg).expect("open a");
    for sid in ["..", "."] {
        let err = cli.open(sid, &base, &cfg).unwrap_err();
        assert!(
            matches!(err, ClientError::Server { ref kind, .. } if kind == "proto"),
            "OPEN {sid}: got {err:?}"
        );
        assert!(
            canary.exists(),
            "OPEN {sid} deleted a file outside the data dir"
        );
        assert!(
            data.join("a").is_dir(),
            "OPEN {sid} deleted a sibling session"
        );
    }
    assert_eq!(cli.list().expect("list"), vec!["a".to_string()]);
    drop(cli);
    drop(server);

    // The sibling's files are intact: a restart recovers it.
    let server = serve("127.0.0.1:0", opts(&data)).expect("rebind");
    let mut cli = IgpClient::connect(server.addr()).expect("reconnect");
    assert_eq!(cli.list().expect("list"), vec!["a".to_string()]);
    assert_eq!(cli.stat("a").expect("stat").n, a.n);
    cli.shutdown().expect("shutdown");
    server.wait();
    assert_eq!(std::fs::read_to_string(&canary).unwrap(), "keep");
    std::fs::remove_dir_all(&parent).ok();
}

/// Regression: a tenant whose snapshot partition count disagrees with
/// the `parts=` of its stored config line used to panic recovery (an
/// `assert_eq!` in session rehydration), aborting the daemon at start.
/// It must be reported as a failure while its sibling recovers.
#[test]
fn partition_count_mismatch_fails_only_that_tenant() {
    use igp::graph::Partitioning;
    use igp::service::protocol::encode_open_opts;
    use igp::store::{SessionState, SessionStore, StoreMeta};

    let dir = scratch_dir("parts-mismatch");
    let (base, cfg, deltas) = scenario(0);
    let server = serve("127.0.0.1:0", opts(&dir)).expect("bind");
    let mut cli = IgpClient::connect(server.addr()).expect("connect");
    cli.open("good", &base, &cfg).expect("open");
    for d in &deltas {
        cli.delta("good", d).expect("delta");
    }
    cli.shutdown().expect("shutdown");
    server.wait();

    // A 3-part snapshot under a `parts=4` config line.
    let g = generators::grid(4, 4);
    let part = Partitioning::round_robin(&g, 3);
    let ids: Vec<u32> = (0..16).collect();
    SessionStore::create(
        &dir.join("bad"),
        StoreMeta {
            sid: "bad".into(),
            config_line: encode_open_opts(&SessionConfig::new(4)),
        },
        SnapshotPolicy::EveryK(4),
        SessionState {
            graph: &g,
            part: &part,
            base_of_current: &ids,
            steps: 0,
            total_moved: 0,
            deltas_received: 0,
            needs_scratch: false,
        },
    )
    .expect("create");

    let (recovered, failures) =
        igp::service::recover_all(&dir, SnapshotPolicy::EveryK(4)).expect("read data dir");
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(
        failures[0].contains("bad") && failures[0].contains('3') && failures[0].contains('4'),
        "{failures:?}"
    );
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered[0].sid, "good");
    let truth = replay(&base, &cfg, &deltas);
    assert_eq!(recovered[0].session.assignment(), truth.assignment());
    assert_eq!(recovered[0].session.steps(), truth.steps());
    drop(recovered);

    // The daemon starts on the same directory and serves the sibling.
    let server = serve("127.0.0.1:0", opts(&dir)).expect("rebind");
    let mut cli = IgpClient::connect(server.addr()).expect("reconnect");
    assert_eq!(cli.list().expect("list"), vec!["good".to_string()]);
    assert_eq!(
        cli.partition("good").expect("partition"),
        truth.assignment()
    );
    cli.shutdown().expect("shutdown");
    server.wait();
    std::fs::remove_dir_all(&dir).ok();
}
