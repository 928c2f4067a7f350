//! Crash-recovery property suite: for any random churn scenario,
//! killing the durable session at a random point — between requests or
//! at a random byte offset *inside* the WAL — and recovering from disk
//! yields a session bit-identical to the uninterrupted single-threaded
//! replay: same graph, same partition assignment, same composed
//! identity map, same counters. Failure seeds persist to
//! `tests/regressions/`.

mod common;

use igp::graph::{generators, CsrGraph, GraphDelta, Partitioning};
use igp::service::durable::{recover_all, recover_session};
use igp::service::session::{InitPartition, ServiceSession, SessionConfig};
use igp::service::{RepartitionPolicy, ServiceError, SnapshotPolicy};
use igp::store::store::SessionState;
use igp::store::{SessionStore, StoreError, StoreMeta};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// A scratch session directory, unique per test case.
fn scratch_dir(tag: &str, case: u64) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("igp-recovery-{}-{tag}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(parts: usize, policy_ix: u8, refined: bool) -> SessionConfig {
    let mut cfg = SessionConfig::new(parts);
    cfg.init = InitPartition::RoundRobin;
    cfg.refined = refined;
    cfg.policy = match policy_ix % 3 {
        0 => RepartitionPolicy::EveryK(1),
        1 => RepartitionPolicy::EveryK(3),
        _ => "cost".parse().unwrap(),
    };
    cfg
}

fn snapshot_policy(ix: u8) -> SnapshotPolicy {
    match ix % 3 {
        0 => SnapshotPolicy::Never,
        1 => SnapshotPolicy::EveryK(2),
        _ => SnapshotPolicy::default(),
    }
}

/// The event stream one scenario feeds: deltas, with an explicit flush
/// sprinkled in every few events (flushes are journaled as markers, so
/// they exercise the non-delta record path).
fn delta_stream(base: &CsrGraph, k: usize, seed: u64) -> Vec<GraphDelta> {
    let mut mirror = base.clone();
    let mut deltas = Vec::with_capacity(k);
    for i in 0..k {
        let d = if i % 3 == 2 {
            generators::random_churn_delta(&mirror, 2, 1, seed ^ (i as u64) << 21)
        } else {
            generators::localized_growth_delta(&mirror, (i % 4) as u32, 3, seed ^ (i as u64) << 9)
        };
        mirror = d.apply(&mirror).new_graph().clone();
        deltas.push(d);
    }
    deltas
}

fn feed(s: &mut ServiceSession, deltas: &[GraphDelta], flush_every: usize) {
    for (i, d) in deltas.iter().enumerate() {
        s.ingest(d).expect("valid generated delta");
        if flush_every > 0 && (i + 1) % flush_every == 0 {
            s.flush().expect("flush");
        }
    }
}

/// The recovery contract, field by field.
fn assert_bit_identical(recovered: &ServiceSession, truth: &ServiceSession, ctx: &str) {
    assert_eq!(
        recovered.inner().graph(),
        truth.inner().graph(),
        "{ctx}: graph differs"
    );
    assert_eq!(
        recovered.assignment(),
        truth.assignment(),
        "{ctx}: partition assignment differs"
    );
    assert_eq!(
        recovered.inner().base_of_current(),
        truth.inner().base_of_current(),
        "{ctx}: composed id map differs"
    );
    assert_eq!(recovered.steps(), truth.steps(), "{ctx}: steps differ");
    assert_eq!(
        recovered.inner().pending_deltas(),
        truth.inner().pending_deltas(),
        "{ctx}: pending queue differs"
    );
    assert_eq!(
        recovered.deltas_received(),
        truth.deltas_received(),
        "{ctx}: delta counter differs"
    );
    assert_eq!(
        recovered.inner().total_moved(),
        truth.inner().total_moved(),
        "{ctx}: total moved differs"
    );
    assert_eq!(
        recovered.inner().needs_scratch(),
        truth.inner().needs_scratch(),
        "{ctx}: scratch flag differs"
    );
}

proptest! {
    #![proptest_config(common::tier1_config(24))]

    /// Kill the durable session after a random prefix of the stream
    /// (mid-batch included: nothing forces the queue empty at the
    /// crash); the recovered session must be bit-identical to a fresh
    /// replay of that prefix, and stay bit-identical while both
    /// continue through the rest of the stream.
    #[test]
    fn crash_anywhere_in_stream_recovers_bit_identical(
        n in 5usize..9,
        k in 1usize..9,
        crash_at_raw in 0usize..9,
        parts in 2usize..4,
        // Packed small knobs (the vendored proptest caps tuple arity):
        // repartition policy × snapshot policy × refined × flush cadence.
        knobs in 0u32..90,
        seed in any::<u64>(),
    ) {
        let policy_ix = (knobs % 3) as u8;
        let snap_ix = ((knobs / 3) % 3) as u8;
        let refined = (knobs / 9) % 2 == 1;
        let flush_every = (knobs / 18) as usize % 5;
        let crash_at = crash_at_raw.min(k);
        let dir = scratch_dir("stream", seed ^ k as u64);
        let base = generators::grid(n, n);
        let cfg = config(parts, policy_ix, refined);
        let deltas = delta_stream(&base, k, seed);

        let mut durable = ServiceSession::open_durable(
            base.clone(), cfg.clone(), &dir, "p", snapshot_policy(snap_ix),
        ).expect("open durable");
        let mut truth = ServiceSession::open(base, cfg);
        feed(&mut durable, &deltas[..crash_at], flush_every);
        feed(&mut truth, &deltas[..crash_at], flush_every);
        // Crash: the in-memory half simply ceases to exist.
        drop(durable);

        let rec = recover_session(&dir, snapshot_policy(snap_ix)).expect("recover");
        prop_assert_eq!(rec.sid.as_str(), "p");
        prop_assert!(rec.warning.is_none(), "clean log must recover warning-free");
        let mut recovered = rec.session;
        assert_bit_identical(&recovered, &truth, "at crash point");

        // Both halves keep serving the rest of the stream identically
        // (the recovered one keeps journaling too).
        feed(&mut recovered, &deltas[crash_at..], flush_every);
        feed(&mut truth, &deltas[crash_at..], flush_every);
        assert_bit_identical(&recovered, &truth, "after post-recovery traffic");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Torn write: truncate the WAL at a random *byte* offset. Recovery
    /// must come back warning-or-not, bit-identical to replaying
    /// exactly the records that survived in full.
    #[test]
    fn wal_truncated_at_random_byte_offset_recovers_prefix(
        n in 5usize..9,
        k in 1usize..8,
        parts in 2usize..4,
        cut_frac in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let dir = scratch_dir("torn", seed ^ (k as u64) << 32);
        let base = generators::grid(n, n);
        // every:1 keeps all records deltas, so "records survived" maps
        // 1:1 onto a stream prefix we can replay for ground truth.
        let cfg = config(parts, 0, true);
        let deltas = delta_stream(&base, k, seed);
        let mut durable = ServiceSession::open_durable(
            base.clone(), cfg.clone(), &dir, "t", SnapshotPolicy::Never,
        ).expect("open durable");
        feed(&mut durable, &deltas, 0);
        drop(durable);

        // Tear the log at a random byte offset past the header.
        let wal = dir.join("wal-0.log");
        let len = std::fs::metadata(&wal).expect("wal exists").len();
        let cut = 16 + ((len - 16) as f64 * cut_frac) as u64;
        let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let rec = recover_session(&dir, SnapshotPolicy::Never).expect("recover");
        let survived = rec.session.deltas_received();
        prop_assert!(survived <= k);
        if survived < k {
            prop_assert!(rec.warning.is_some(), "dropped records must be reported");
        }
        let mut truth = ServiceSession::open(base, cfg);
        feed(&mut truth, &deltas[..survived], 0);
        assert_bit_identical(&rec.session, &truth, "after torn-write recovery");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Regression (satellite): a corrupt trailing record — bit flip, not
/// truncation — is detected by the frame checksum, reported, dropped,
/// and the session recovers to the last intact record. No panic, and
/// the reopened log accepts new traffic.
#[test]
fn corrupt_trailing_record_is_dropped_not_fatal() {
    let dir = scratch_dir("corrupt-tail", 1);
    let base = generators::grid(6, 6);
    let cfg = config(2, 0, true);
    let deltas = delta_stream(&base, 5, 0xC0FFEE);
    let mut durable =
        ServiceSession::open_durable(base.clone(), cfg.clone(), &dir, "c", SnapshotPolicy::Never)
            .expect("open durable");
    feed(&mut durable, &deltas, 0);
    drop(durable);

    // Flip a byte inside the last frame's payload.
    let wal = dir.join("wal-0.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    let last = bytes.len() - 2;
    bytes[last] ^= 0x55;
    std::fs::write(&wal, &bytes).unwrap();

    let rec = recover_session(&dir, SnapshotPolicy::Never).expect("recover");
    let warning = rec.warning.expect("corruption must be reported");
    assert!(warning.contains("checksum"), "{warning}");
    assert_eq!(rec.session.deltas_received(), 4, "last record dropped");
    let mut truth = ServiceSession::open(base, cfg);
    feed(&mut truth, &deltas[..4], 0);
    assert_bit_identical(&rec.session, &truth, "after corrupt-tail drop");

    // The log was truncated back to the intact prefix: new traffic
    // journals and survives another restart.
    let mut recovered = rec.session;
    recovered.ingest(&deltas[4]).expect("replacement delta");
    drop(recovered);
    let rec2 = recover_session(&dir, SnapshotPolicy::Never).expect("re-recover");
    assert!(rec2.warning.is_none(), "{:?}", rec2.warning);
    assert_eq!(rec2.session.deltas_received(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

/// Assemble a session directory from named files of other directories.
fn assemble(tag: &str, files: &[(&Path, &str, &str)]) -> PathBuf {
    let dir = scratch_dir(tag, 0xA55E);
    std::fs::create_dir_all(&dir).unwrap();
    for (src, name, dst) in files {
        std::fs::copy(src.join(name), dir.join(dst))
            .unwrap_or_else(|e| panic!("copy {name} for {tag}: {e}"));
    }
    dir
}

/// Crash-point sweep over the snapshot-rotation protocol (satellite):
/// `write snap-(q+1).tmp → rename → create wal-(q+1) → fsync snapshot
/// → fsync dir → delete old pair` (the ack returns after the third
/// step; the rest runs behind it). A kill between any two steps leaves
/// at least one complete `(snapshot, WAL)` lineage on disk, so
/// recovery from every intermediate state must be bit-identical to the
/// never-crashed replay — and so must a power cut before the fsyncs,
/// which may leave the renamed snapshot torn while the old pair is
/// still there. The intermediate states are reassembled from directory
/// copies taken before and after a real rotation.
#[test]
fn rotation_crash_points_all_recover_bit_identical() {
    let base = generators::grid(6, 6);
    let cfg = config(2, 0, true); // every:1 — each delta applies immediately
    let deltas = delta_stream(&base, 5, 0x0D15C0);
    let dir = scratch_dir("rotation", 5);
    let mut s =
        ServiceSession::open_durable(base.clone(), cfg.clone(), &dir, "r", SnapshotPolicy::Never)
            .expect("open durable");
    feed(&mut s, &deltas, 0);
    let mut truth = ServiceSession::open(base, cfg);
    feed(&mut truth, &deltas, 0);

    // `pre`: the state just before the rotation (snap-0 + full wal-0).
    let pre = assemble(
        "rot-pre",
        &[
            (&dir, "meta", "meta"),
            (&dir, "snap-0.snap", "snap-0.snap"),
            (&dir, "wal-0.log", "wal-0.log"),
        ],
    );
    // Drive the rotation by hand at the store level, then capture
    // `post` (snap-1 + fresh empty wal-1; old pair deleted).
    let mut st = s.detach_store().expect("session is durable");
    st.snapshot_now(SessionState {
        graph: s.inner().graph(),
        part: s.inner().partitioning(),
        base_of_current: s.inner().base_of_current(),
        steps: s.inner().steps() as u64,
        total_moved: s.inner().total_moved(),
        deltas_received: s.deltas_received() as u64,
        needs_scratch: s.inner().needs_scratch(),
    })
    .expect("forced rotation");
    drop(st);
    assert!(
        !dir.join("snap-0.snap").exists() && !dir.join("wal-0.log").exists(),
        "rotation must have retired the old pair"
    );
    let post = &dir;

    // Each interruption point, as the file set a kill would leave.
    let states: Vec<(&str, PathBuf)> = vec![
        // Killed after writing the tmp snapshot, before the rename:
        // the tmp file must be ignored, the old lineage replayed.
        (
            "tmp written, not renamed",
            assemble(
                "rot-s1",
                &[
                    (pre.as_path(), "meta", "meta"),
                    (pre.as_path(), "snap-0.snap", "snap-0.snap"),
                    (pre.as_path(), "wal-0.log", "wal-0.log"),
                    (post.as_path(), "snap-1.snap", "snap-1.tmp"),
                ],
            ),
        ),
        // Killed after the rename, before the new WAL existed: benign
        // interrupted rotation — the new snapshot wins, empty tail.
        (
            "renamed, no new wal",
            assemble(
                "rot-s2",
                &[
                    (pre.as_path(), "meta", "meta"),
                    (pre.as_path(), "snap-0.snap", "snap-0.snap"),
                    (pre.as_path(), "wal-0.log", "wal-0.log"),
                    (post.as_path(), "snap-1.snap", "snap-1.snap"),
                ],
            ),
        ),
        // Killed after creating the new WAL, before deleting the old
        // pair: both lineages complete; the newest wins.
        (
            "old pair not deleted",
            assemble(
                "rot-s3",
                &[
                    (pre.as_path(), "meta", "meta"),
                    (pre.as_path(), "snap-0.snap", "snap-0.snap"),
                    (pre.as_path(), "wal-0.log", "wal-0.log"),
                    (post.as_path(), "snap-1.snap", "snap-1.snap"),
                    (post.as_path(), "wal-1.log", "wal-1.log"),
                ],
            ),
        ),
        // Killed between the two deletes (snapshot goes first).
        (
            "old wal lingers",
            assemble(
                "rot-s4",
                &[
                    (pre.as_path(), "meta", "meta"),
                    (pre.as_path(), "wal-0.log", "wal-0.log"),
                    (post.as_path(), "snap-1.snap", "snap-1.snap"),
                    (post.as_path(), "wal-1.log", "wal-1.log"),
                ],
            ),
        ),
    ];
    // Power lost after the ack-path half, before any fsync: both new
    // files exist by name, but how much of the snapshot reached the
    // disk is anyone's guess. Whatever is there fails its CRC (or its
    // length check) and the old pair, not yet retired, takes over.
    let full = std::fs::read(post.join("snap-1.snap")).unwrap();
    let mut states = states;
    for (what, keep) in [
        ("nothing fsynced: snapshot empty", 0),
        ("nothing fsynced: snapshot torn", full.len() / 2),
    ] {
        let state_dir = assemble(
            &format!("rot-unsynced-{keep}"),
            &[
                (pre.as_path(), "meta", "meta"),
                (pre.as_path(), "snap-0.snap", "snap-0.snap"),
                (pre.as_path(), "wal-0.log", "wal-0.log"),
                (post.as_path(), "wal-1.log", "wal-1.log"),
            ],
        );
        std::fs::write(state_dir.join("snap-1.snap"), &full[..keep]).unwrap();
        states.push((what, state_dir));
    }
    for (what, state_dir) in states {
        let rec = recover_session(&state_dir, SnapshotPolicy::Never)
            .unwrap_or_else(|e| panic!("recover `{what}`: {e}"));
        assert_bit_identical(&rec.session, &truth, what);
        std::fs::remove_dir_all(&state_dir).ok();
    }
    std::fs::remove_dir_all(&pre).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// The fsyncs of a rotation run behind the ack, so their failure has no
/// request to fail: it surfaces one request later. Pull the directory
/// out from under a durable session in the middle of a stream of
/// every:1 steps with a snapshot after each: whichever half of a
/// rotation meets the missing directory first — the background fsync of
/// the one in flight, or the next one's `snap-<n>.tmp` — the client
/// sees exactly one typed storage error, the request it rode on is
/// applied all the same, and the session carries on memory-only,
/// bit-identical to one that never had a disk.
#[test]
fn rotation_failure_behind_the_ack_detaches_the_store_once() {
    let base = generators::grid(6, 6);
    let cfg = config(2, 0, true);
    let deltas = delta_stream(&base, 8, 0xB6);
    let dir = scratch_dir("bgfail", 9);
    let mut s = ServiceSession::open_durable(
        base.clone(),
        cfg.clone(),
        &dir,
        "g",
        SnapshotPolicy::EveryK(1),
    )
    .expect("open durable");
    feed(&mut s, &deltas[..3], 0);
    assert!(s.store().is_some_and(|st| st.seq() == 3));
    std::fs::remove_dir_all(&dir).unwrap();
    let mut errors = Vec::new();
    for d in &deltas[3..] {
        if let Err(e) = s.ingest(d) {
            errors.push((e.kind(), e.to_string()));
        }
    }
    assert_eq!(errors.len(), 1, "one storage error, once: {errors:?}");
    assert_eq!(errors[0].0, "storage");
    assert!(errors[0].1.contains("durability lost"), "{}", errors[0].1);
    assert!(s.store().is_none(), "memory-only from here on");
    let mut truth = ServiceSession::open(base, cfg);
    feed(&mut truth, &deltas, 0);
    assert_bit_identical(&s, &truth, "after losing the disk");
    assert!(!dir.exists(), "a detached store writes nothing");
}

/// Satellite: `inspect` and `recover` must agree that a missing WAL is
/// a benign interrupted rotation — on the *same* fixture, `inspect`
/// reports a note (not corruption) and `recover` comes back
/// bit-identical with only a warning.
#[test]
fn missing_wal_is_benign_for_inspect_and_recover_alike() {
    let base = generators::grid(6, 6);
    let cfg = config(2, 0, true);
    let deltas = delta_stream(&base, 4, 0xBE9);
    let dir = scratch_dir("nowal", 8);
    let mut s = ServiceSession::open_durable(
        base.clone(),
        cfg.clone(),
        &dir,
        "b",
        SnapshotPolicy::EveryK(2),
    )
    .expect("open durable");
    feed(&mut s, &deltas, 0);
    let mut truth = ServiceSession::open(base, cfg);
    feed(&mut truth, &deltas, 0);
    drop(s);
    // Reproduce the crash window: the current WAL never got created.
    let seq = (0..10)
        .rev()
        .find(|q| dir.join(format!("snap-{q}.snap")).exists())
        .expect("some snapshot");
    std::fs::remove_file(dir.join(format!("wal-{seq}.log"))).expect("remove current wal");

    let insp = SessionStore::inspect(&dir).expect("inspect survives a missing WAL");
    assert!(
        insp.corruption.is_none(),
        "interrupted rotation misreported as corruption: {:?}",
        insp.corruption
    );
    let note = insp.note.expect("the missing WAL is still worth a note");
    assert!(note.contains("missing"), "{note}");
    assert_eq!(
        insp.tail_deltas + insp.tail_flushes,
        0,
        "tail must be empty"
    );

    let rec = recover_session(&dir, SnapshotPolicy::EveryK(2)).expect("recover");
    let warning = rec
        .warning
        .clone()
        .expect("recovery reports the recreated WAL");
    assert!(warning.contains("missing"), "{warning}");
    // EveryK(2) on 4 deltas: the last rotation compacted everything,
    // so the snapshot alone carries the full state.
    assert_bit_identical(&rec.session, &truth, "after interrupted rotation");
    // The recreated log accepts traffic: a second recovery is clean.
    drop(rec);
    let rec2 = recover_session(&dir, SnapshotPolicy::EveryK(2)).expect("re-recover");
    assert!(rec2.warning.is_none(), "{:?}", rec2.warning);
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: only a *missing* meta file may be read as
/// "not a session directory". Any other I/O failure (here EISDIR, from
/// meta existing as a directory) must abort recovery loudly instead of
/// silently skipping the session.
#[test]
fn meta_io_error_is_not_mistaken_for_missing() {
    let dir = scratch_dir("badmeta", 6);
    std::fs::create_dir_all(dir.join("meta")).unwrap();
    let Err(err) = SessionStore::recover(&dir, SnapshotPolicy::Never) else {
        panic!("meta-as-directory cannot recover");
    };
    assert!(
        matches!(err, StoreError::Io(_)),
        "EISDIR must abort loudly, got: {err}"
    );

    // A genuinely absent meta still reads as "not a session dir".
    let empty = scratch_dir("nometa", 7);
    std::fs::create_dir_all(&empty).unwrap();
    let Err(err) = SessionStore::recover(&empty, SnapshotPolicy::Never) else {
        panic!("empty dir is no session");
    };
    assert!(matches!(err, StoreError::Missing(_)), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&empty).ok();
}

/// Stores written before the per-session SPMD driver was removed carry
/// `workers=` / `backend=` in their config line. The exact line an
/// older daemon wrote for a sequential session still recovers, to a
/// session bit-identical to a fresh one; a line asking for SPMD workers
/// is refused with a typed storage error, without taking its sibling
/// down in `recover_all`.
#[test]
fn legacy_config_line_recovers_bit_identical() {
    const LEGACY: &str = "parts=4 policy=every:1 refined=1 workers=0 backend=sim-cm5 init=rr";
    let data = scratch_dir("legacy", 2);
    let base = generators::grid(8, 8);
    let cfg = config(4, 0, true);
    let fresh = ServiceSession::open(base.clone(), cfg.clone());
    for (sid, line) in [
        ("old", LEGACY.to_string()),
        ("spmd", LEGACY.replace("=0", "=2")),
    ] {
        SessionStore::create(
            &data.join(sid),
            StoreMeta {
                sid: sid.into(),
                config_line: line,
            },
            SnapshotPolicy::EveryK(3),
            SessionState {
                graph: fresh.inner().graph(),
                part: fresh.inner().partitioning(),
                base_of_current: fresh.inner().base_of_current(),
                steps: 0,
                total_moved: 0,
                deltas_received: 0,
                needs_scratch: false,
            },
        )
        .expect("create store");
    }

    let Err(err) = recover_session(&data.join("spmd"), SnapshotPolicy::EveryK(3)) else {
        panic!("a store asking for SPMD workers must not recover");
    };
    assert!(matches!(err, ServiceError::Storage(_)), "got: {err}");
    assert!(err.to_string().contains("workers=2"), "got: {err}");
    let (mut recovered, failures) =
        recover_all(&data, SnapshotPolicy::EveryK(3)).expect("recover all");
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("spmd"), "{failures:?}");
    assert_eq!(recovered.len(), 1);
    let rec = recovered.pop().unwrap();
    assert_eq!(rec.sid, "old");
    let mut recovered = rec.session;
    assert_eq!(recovered.config(), &cfg);

    let deltas = delta_stream(&base, 6, 99);
    let mut truth = fresh;
    assert_bit_identical(&recovered, &truth, "legacy at recovery");
    feed(&mut recovered, &deltas[..4], 0);
    feed(&mut truth, &deltas[..4], 0);
    assert_bit_identical(&recovered, &truth, "legacy after replay");
    // The recovered store journals on, and recovers again.
    drop(recovered);
    let mut again = recover_session(&data.join("old"), SnapshotPolicy::EveryK(3))
        .expect("re-recover")
        .session;
    assert_bit_identical(&again, &truth, "legacy re-recovered");
    feed(&mut again, &deltas[4..], 0);
    feed(&mut truth, &deltas[4..], 0);
    assert_bit_identical(&again, &truth, "legacy after re-recovery");
    std::fs::remove_dir_all(&data).ok();
}

/// A snapshot whose graph carries a weight above `MAX_WEIGHT` (written
/// before the bound existed, or crafted) would overflow a step's sums.
/// Its decoder refuses it, `recover_all` reports that session, and its
/// sibling recovers.
#[test]
fn snapshot_weight_above_max_is_refused_and_its_sibling_recovers() {
    const LINE: &str = "parts=4 policy=every:1 refined=1 init=rr";
    let data = scratch_dir("heavy", 3);
    let good = generators::grid(8, 8);
    let heavy = CsrGraph::from_weighted_edges(
        4,
        &[(0, 1, 1), (1, 2, igp::graph::MAX_WEIGHT + 1), (2, 3, 1)],
    );
    for (sid, g) in [("good", &good), ("heavy", &heavy)] {
        let n = g.num_vertices();
        let part = Partitioning::from_assignment(g, 4, (0..n as u32).map(|v| v % 4).collect());
        let base_of_current: Vec<u32> = (0..n as u32).collect();
        SessionStore::create(
            &data.join(sid),
            StoreMeta {
                sid: sid.into(),
                config_line: LINE.into(),
            },
            SnapshotPolicy::EveryK(3),
            SessionState {
                graph: g,
                part: &part,
                base_of_current: &base_of_current,
                steps: 0,
                total_moved: 0,
                deltas_received: 0,
                needs_scratch: false,
            },
        )
        .expect("create store");
    }
    let (recovered, failures) = recover_all(&data, SnapshotPolicy::EveryK(3)).expect("recover all");
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("heavy"), "{failures:?}");
    assert!(
        failures[0].contains("exceeds"),
        "names the refusal: {failures:?}"
    );
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered[0].sid, "good");
    assert_eq!(recovered[0].session.inner().graph(), &good);
    std::fs::remove_dir_all(&data).ok();
}
