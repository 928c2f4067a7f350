//! Durability overhead and recovery latency.
//!
//! Custom harness (`harness = false`): besides the table it emits a
//! machine-readable `BENCH_store.json` (CI uploads it as an artifact)
//! recording
//!
//! * **WAL append throughput** — records/s and MB/s for journaling a
//!   churn stream through `SessionStore::journal_delta` (frame
//!   encoding + CRC + write + flush, no session work);
//! * **ingest overhead** — deltas/s through a `ServiceSession` with
//!   and without a store attached (what durability actually costs the
//!   serving path);
//! * **recovery latency vs log length** — wall time for
//!   `recover_session` (snapshot load + WAL replay) as the tail grows,
//!   with and without snapshots enabled.

use igp_graph::{generators, CsrGraph, GraphDelta, Partitioning};
use igp_service::durable::recover_session;
use igp_service::session::{InitPartition, ServiceSession, SessionConfig};
use igp_service::SnapshotPolicy;
use igp_store::store::{SessionState, StoreMeta};
use igp_store::SessionStore;
use std::path::PathBuf;
use std::time::Instant;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("igp-bench-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A churn stream over an evolving mirror (valid delta sequence).
fn stream(base: &CsrGraph, k: usize, seed: u64) -> Vec<GraphDelta> {
    let mut mirror = base.clone();
    let mut deltas = Vec::with_capacity(k);
    for i in 0..k {
        let d = generators::random_churn_delta(&mirror, 2, 1, seed ^ (i as u64) << 13);
        mirror = d.apply(&mirror).new_graph().clone();
        deltas.push(d);
    }
    deltas
}

fn cfg(parts: usize) -> SessionConfig {
    let mut cfg = SessionConfig::new(parts);
    cfg.init = InitPartition::RoundRobin;
    cfg.policy = "every:4".parse().unwrap();
    cfg
}

/// Raw WAL append throughput, no session attached. Returns
/// `(wall_s, records_per_s, mb_per_s, per-record latency histogram)`.
fn bench_wal_append(records: usize) -> (f64, f64, f64, igp_obs::Histogram) {
    let dir = scratch("wal");
    let base = generators::grid(32, 32);
    let part = Partitioning::round_robin(&base, 4);
    let deltas = stream(&base, records, 7);
    let identity: Vec<u32> = (0..base.num_vertices() as u32).collect();
    let state = SessionState {
        graph: &base,
        part: &part,
        base_of_current: &identity,
        steps: 0,
        total_moved: 0,
        deltas_received: 0,
        needs_scratch: false,
    };
    let meta = StoreMeta {
        sid: "bench".into(),
        config_line: "parts=4".into(),
    };
    let mut store = SessionStore::create(&dir, meta, SnapshotPolicy::Never, state).unwrap();
    let append_us = igp_obs::Histogram::new();
    let t0 = Instant::now();
    for d in &deltas {
        append_us.time(|| store.journal_delta(d)).unwrap();
    }
    let wall = t0.elapsed().as_secs_f64();
    let bytes = store.wal_bytes() as f64;
    std::fs::remove_dir_all(&dir).ok();
    (wall, records as f64 / wall, bytes / wall / 1e6, append_us)
}

/// Ingest throughput with/without durability.
fn bench_ingest(durable: bool, deltas: &[GraphDelta], base: &CsrGraph) -> (f64, f64, usize) {
    let dir = scratch(if durable { "ingest-dur" } else { "ingest-mem" });
    let mut s = if durable {
        ServiceSession::open_durable(
            base.clone(),
            cfg(4),
            &dir,
            "bench",
            SnapshotPolicy::default(),
        )
        .unwrap()
    } else {
        ServiceSession::open(base.clone(), cfg(4))
    };
    let t0 = Instant::now();
    for d in deltas {
        s.ingest(d).unwrap();
    }
    s.flush().unwrap();
    let wall = t0.elapsed().as_secs_f64();
    let steps = s.steps();
    std::fs::remove_dir_all(&dir).ok();
    (wall, deltas.len() as f64 / wall, steps)
}

/// Recovery latency for a log of `k` records.
fn bench_recovery(k: usize, snapshots: bool) -> (f64, u64) {
    let dir = scratch(&format!("recover-{k}-{snapshots}"));
    let policy = if snapshots {
        SnapshotPolicy::default()
    } else {
        SnapshotPolicy::Never
    };
    let base = generators::grid(16, 16);
    let deltas = stream(&base, k, 23);
    let mut s = ServiceSession::open_durable(base, cfg(4), &dir, "bench", policy).unwrap();
    for d in &deltas {
        s.ingest(d).unwrap();
    }
    drop(s);
    let t0 = Instant::now();
    let rec = recover_session(&dir, policy).unwrap();
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(rec.session.deltas_received(), k, "recovery lost records");
    let snap_seq = rec.session.store().map(|st| st.seq()).unwrap_or(0);
    std::fs::remove_dir_all(&dir).ok();
    (wall, snap_seq)
}

fn main() {
    let mut json = String::new();

    // 1. WAL append throughput (+ per-record latency quantiles).
    const WAL_RECORDS: usize = 5000;
    let (wall, rps, mbps, append_us) = bench_wal_append(WAL_RECORDS);
    println!(
        "WAL append: {WAL_RECORDS} records in {wall:.3}s → {rps:.0} rec/s, {mbps:.1} MB/s \
         (p50 {}µs, p99 {}µs)",
        append_us.quantile(0.5),
        append_us.quantile(0.99),
    );
    json.push_str(&format!(
        "  \"wal_append\": {{\"records\": {WAL_RECORDS}, \"wall_s\": {wall:.6}, \
         \"records_per_s\": {rps:.1}, \"mb_per_s\": {mbps:.3}, {}}},\n",
        igp_bench::artifact::hist_fields(&append_us)
    ));

    // 2. Ingest overhead (same stream, durable vs memory-only).
    let base = generators::grid(12, 12);
    let deltas = stream(&base, 120, 5);
    let (mem_wall, mem_rate, mem_steps) = bench_ingest(false, &deltas, &base);
    let (dur_wall, dur_rate, dur_steps) = bench_ingest(true, &deltas, &base);
    assert_eq!(mem_steps, dur_steps, "durability must not change stepping");
    let overhead = (dur_wall / mem_wall - 1.0) * 100.0;
    println!(
        "ingest: memory {mem_rate:.0} deltas/s, durable {dur_rate:.0} deltas/s \
         ({overhead:+.1}% wall)"
    );
    json.push_str(&format!(
        "  \"ingest\": {{\"deltas\": {}, \"memory_per_s\": {mem_rate:.1}, \
         \"durable_per_s\": {dur_rate:.1}, \"overhead_pct\": {overhead:.2}}},\n",
        deltas.len()
    ));

    // 3. Recovery latency vs log length, with and without snapshots.
    println!(
        "{:>10} {:>10} {:>14} {:>10}",
        "records", "snapshots", "recovery", "snap_seq"
    );
    json.push_str("  \"recovery\": [\n");
    let lengths = [50usize, 200, 800];
    let mut first = true;
    let mut never_walls = Vec::new();
    for &k in &lengths {
        for snapshots in [false, true] {
            let (wall, snap_seq) = bench_recovery(k, snapshots);
            println!(
                "{:>10} {:>10} {:>13.4}s {:>10}",
                k,
                if snapshots { "cost" } else { "never" },
                wall,
                snap_seq
            );
            if !snapshots {
                never_walls.push(wall);
            }
            if !first {
                json.push_str(",\n");
            }
            first = false;
            json.push_str(&format!(
                "    {{\"log_records\": {k}, \"snapshots\": {snapshots}, \
                 \"recovery_s\": {wall:.6}, \"snap_seq\": {snap_seq}}}"
            ));
        }
    }
    json.push_str("\n  ]");

    // Sanity: snapshot-free recovery replays the whole log, so its
    // latency must grow with log length (the point of snapshots).
    assert!(
        never_walls.windows(2).all(|w| w[0] <= w[1] * 1.5),
        "snapshot-free recovery latency not roughly monotone: {never_walls:?}"
    );

    igp_bench::artifact::write_artifact("BENCH_store.json", &json);
}
