//! Crash recovery: turning an on-disk [`SessionStore`] back into a
//! live [`ServiceSession`].
//!
//! The protocol (DESIGN.md §9.5):
//!
//! 1. [`SessionStore::recover`] yields the stored config line, the
//!    latest valid snapshot, and the intact WAL tail (corrupt trailing
//!    bytes already reported and truncated).
//! 2. The config line is parsed by the same grammar the `OPEN` request
//!    uses ([`crate::protocol::parse_open_opts`]) — a recovered session
//!    runs under exactly the configuration the original acked.
//! 3. [`igp_core::session::IgpSession::rehydrate`] rebuilds the solver
//!    session from the snapshot (graph, partitioning, composed
//!    identity map, counters, from-scratch flag).
//! 4. The WAL tail is replayed through the *same* ingest/flush code
//!    the daemon runs — journaled deltas re-queue, the repartition
//!    policy re-fires at the same points, explicit flush markers
//!    re-flush — without re-journaling anything.
//! 5. The reopened store is attached; subsequent traffic journals
//!    as before.
//!
//! Because every repartition driver is deterministic in (graph,
//! partitioning, config), the recovered session is bit-identical —
//! partition assignment, graph, composed identity map, pending queue —
//! to the session that never crashed (property-tested in
//! `tests/store_recovery.rs`, kill-9-tested in CI).
//!
//! Replication rides the same path (DESIGN.md §11): a follower
//! bootstraps each session by installing the primary's shipped files
//! ([`igp_store::install_replica`]) and rehydrating through
//! [`recover_session`] — so the equivalence argument above is also the
//! correctness argument for `REPL SYNC`.

use crate::session::ServiceSession;
use crate::ServiceError;
use igp_core::session::SessionSeed;
use igp_store::{SessionStore, SnapshotPolicy};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// One session brought back from disk.
pub struct RecoveredSession {
    /// Session id (from the store's meta file).
    pub sid: String,
    /// The rehydrated session, store attached, ready to register.
    pub session: ServiceSession,
    /// Non-fatal recovery notes (dropped corrupt WAL tail, skipped
    /// stale snapshot files) for the operator log.
    pub warning: Option<String>,
}

/// Recover one session directory.
pub fn recover_session(
    dir: &Path,
    snapshot_policy: SnapshotPolicy,
) -> Result<RecoveredSession, ServiceError> {
    let rec = SessionStore::recover(dir, snapshot_policy)
        .map_err(|e| ServiceError::Storage(e.to_string()))?;
    let tokens: Vec<&str> = rec.meta.config_line.split_ascii_whitespace().collect();
    let cfg = crate::protocol::parse_open_opts(&tokens)
        .map_err(|e| ServiceError::Storage(format!("stored config line does not parse: {e}")))?;
    let snapshot_parts = rec.snapshot.part.num_parts();
    if snapshot_parts != cfg.parts {
        return Err(ServiceError::Storage(format!(
            "snapshot has {snapshot_parts} partitions, stored config says parts={}",
            cfg.parts
        )));
    }
    let seed = SessionSeed {
        graph: rec.snapshot.graph,
        part: rec.snapshot.part,
        base_of_current: rec.snapshot.base_of_current,
        steps: rec.snapshot.steps as usize,
        total_moved: rec.snapshot.total_moved,
        needs_scratch: rec.snapshot.needs_scratch,
    };
    let mut session = ServiceSession::rehydrate(cfg, seed, rec.snapshot.deltas_received as usize);
    for (i, r) in rec.tail.iter().enumerate() {
        session
            .replay_record(r)
            .map_err(|e| ServiceError::Storage(format!("WAL record {i}: {e}")))?;
    }
    session.attach_store(rec.store);
    Ok(RecoveredSession {
        sid: rec.meta.sid,
        session,
        warning: rec.dropped_tail,
    })
}

/// Recover every session directory under `data_dir`. Directories that
/// fail to recover are skipped and reported (second element) — one
/// corrupt tenant must not take the daemon down with it, and neither
/// must one whose replay panics: the panic is reported as that
/// directory's failure and its siblings recover.
pub fn recover_all(
    data_dir: &Path,
    snapshot_policy: SnapshotPolicy,
) -> std::io::Result<(Vec<RecoveredSession>, Vec<String>)> {
    let mut dirs: Vec<_> = std::fs::read_dir(data_dir)?
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.path())
        .collect();
    dirs.sort();
    Ok(recover_each(&dirs, |dir| {
        recover_session(dir, snapshot_policy)
    }))
}

/// Run `recover` on each directory in order, each under `catch_unwind`:
/// the successes, and one `"<dir>: <error>"` line per failure.
fn recover_each<T>(
    dirs: &[PathBuf],
    mut recover: impl FnMut(&Path) -> Result<T, ServiceError>,
) -> (Vec<T>, Vec<String>) {
    let mut recovered = Vec::new();
    let mut failures = Vec::new();
    for dir in dirs {
        match catch_unwind(AssertUnwindSafe(|| recover(dir))) {
            Ok(Ok(r)) => recovered.push(r),
            Ok(Err(e)) => failures.push(format!("{}: {e}", dir.display())),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                failures.push(format!("{}: replay panicked: {msg}", dir.display()));
            }
        }
    }
    (recovered, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_recovery_is_reported_and_its_siblings_recover() {
        let dirs: Vec<PathBuf> = ["a", "b", "c"].iter().map(PathBuf::from).collect();
        let (ok, failures) = recover_each(&dirs, |dir| {
            if dir == Path::new("b") {
                panic!("step {} out of range", 7);
            }
            Ok(dir.display().to_string())
        });
        assert_eq!(ok, ["a", "c"]);
        assert_eq!(failures, ["b: replay panicked: step 7 out of range"]);
    }
}
