//! The per-session store: one directory holding a meta file, the
//! latest snapshot and the WAL extending it.
//!
//! ```text
//! <dir>/meta            text: format version · sid · config line
//! <dir>/snap-<seq>.snap latest snapshot (see `snapshot`)
//! <dir>/wal-<seq>.log   records appended since snapshot <seq>
//! ```
//!
//! Rotation protocol (crash-safe at every step): write
//! `snap-<seq+1>.tmp` → rename to `.snap` → create `wal-<seq+1>.log` →
//! fsync the snapshot → fsync the directory → delete the previous pair.
//! The ack waits for the first three steps, which only touch the page
//! cache; the two fsyncs and the deletion run on a background thread
//! ([`SessionStore::snapshot_now`]). Recovery picks the highest *valid*
//! snapshot — a renamed snapshot that never reached the disk fails its
//! CRC and the previous pair, not yet deleted, takes over — ignores stale
//! files from interrupted rotations, and replays whatever WAL tail it
//! finds (an absent tail file — crash between rename and WAL creation —
//! is an empty tail).

use crate::policy::{SnapshotPolicy, SnapshotView};
use crate::snapshot::{
    encode_snapshot, fsync_dir, install_synced, read_snapshot, write_tmp, SnapshotData,
};
use crate::wal::{read_wal, WalRecord, WalWriter, HEADER_BYTES};
use crate::StoreError;
use igp_graph::coalesce::DeltaCoalescer;
use igp_graph::{CsrGraph, DirtStats, GraphDelta, NodeId, Partitioning};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

const META_VERSION: u32 = 1;

/// Identity of a stored session: who it is and how to reconstruct its
/// configuration. The config line is opaque to this crate — the serving
/// layer writes its wire `OPEN` option grammar there and parses it back
/// at recovery, which is what guarantees a recovered session runs under
/// exactly the configuration the original acked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreMeta {
    /// Session id (the directory is normally named after it).
    pub sid: String,
    /// Opaque configuration line (no newlines).
    pub config_line: String,
}

/// A live session's persistable state, borrowed at journaling and
/// snapshot points.
#[derive(Clone, Copy, Debug)]
pub struct SessionState<'a> {
    /// Current graph.
    pub graph: &'a CsrGraph,
    /// Current partitioning.
    pub part: &'a Partitioning,
    /// Birth-graph id per current vertex.
    pub base_of_current: &'a [NodeId],
    /// Steps taken so far.
    pub steps: u64,
    /// Total vertices moved so far.
    pub total_moved: u64,
    /// Deltas accepted so far.
    pub deltas_received: u64,
    /// The from-scratch signal.
    pub needs_scratch: bool,
}

/// Everything [`SessionStore::recover`] reconstructs from disk.
#[derive(Debug)]
pub struct Recovered {
    /// Session identity + config line.
    pub meta: StoreMeta,
    /// The snapshot recovery starts from.
    pub snapshot: SnapshotData,
    /// Intact WAL records to replay on top of the snapshot, in order.
    pub tail: Vec<WalRecord>,
    /// Why trailing log bytes were dropped, if any were (the file has
    /// already been truncated back to the intact prefix).
    pub dropped_tail: Option<String>,
    /// The store, reopened for appending.
    pub store: SessionStore,
}

/// Read-only summary of a stored session (the `igp-cli replay`
/// inspector); never mutates the directory.
#[derive(Debug)]
pub struct Inspection {
    /// Session identity + config line.
    pub meta: StoreMeta,
    /// The snapshot recovery would start from.
    pub snapshot: SnapshotData,
    /// Intact delta records in the tail.
    pub tail_deltas: usize,
    /// Intact flush markers in the tail.
    pub tail_flushes: usize,
    /// Tail size on disk (bytes, header included).
    pub tail_bytes: u64,
    /// The tail's deltas folded into one canonical edit.
    pub tail_net: GraphDelta,
    /// Net edit-size statistics of the folded tail.
    pub tail_dirt: DirtStats,
    /// Why trailing bytes are unusable, if any are.
    pub corruption: Option<String>,
    /// Benign observation (e.g. an interrupted rotation recovery will
    /// repair); never set for states that lose data.
    pub note: Option<String>,
}

/// The on-disk half of one durable session.
#[derive(Debug)]
pub struct SessionStore {
    dir: PathBuf,
    meta: StoreMeta,
    policy: SnapshotPolicy,
    wal: WalWriter,
    /// Folds the tail incrementally so snapshot-time compaction is one
    /// `net()` call, not a re-read of the log.
    co: DeltaCoalescer,
    seq: u64,
    snapshots_written: u64,
    ops_since_snap: u64,
    steps_at_snap: u64,
    /// The durable half of the latest rotation while it runs behind the
    /// acks; at most one. Polled by every journaling call, joined by the
    /// next rotation and by `Drop`.
    rotation: Option<JoinHandle<Result<(), StoreError>>>,
}

/// What a rotation still owes the disk once the ack-path half is done:
/// make the new pair durable, then — only then — retire the old one.
struct RotationTail {
    /// The renamed, not yet synced snapshot.
    snapshot: File,
    dir: PathBuf,
    /// Sequence number of the pair to delete.
    retired: u64,
}

impl RotationTail {
    fn run(self) -> Result<(), StoreError> {
        self.snapshot.sync_data()?;
        // One directory fsync covers both new entries (the rename and
        // the new WAL happened before this thread started).
        fsync_dir(&self.dir)?;
        // Best-effort cleanup; stale files are ignored by recovery.
        let _ = std::fs::remove_file(snap_path(&self.dir, self.retired));
        let _ = std::fs::remove_file(wal_path(&self.dir, self.retired));
        Ok(())
    }

    fn spawn(self) -> Result<JoinHandle<Result<(), StoreError>>, StoreError> {
        Ok(std::thread::Builder::new()
            .name("igp-store-rotate".into())
            .spawn(move || {
                let done = self.run();
                if done.is_err() {
                    crate::obs::health_cell().note_failure(crate::obs::STORE_FAIL_HOLD);
                }
                done
            })?)
    }
}

fn snap_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq}.snap"))
}

fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq}.log"))
}

fn meta_path(dir: &Path) -> PathBuf {
    dir.join("meta")
}

fn edit_ops(d: &GraphDelta) -> u64 {
    (d.add_vertices.len() + d.remove_vertices.len() + d.add_edges.len() + d.remove_edges.len())
        as u64
}

fn write_meta(dir: &Path, meta: &StoreMeta) -> Result<(), StoreError> {
    if meta.sid.contains(char::is_whitespace) || meta.config_line.contains('\n') {
        return Err(StoreError::Corrupt {
            what: "meta".into(),
            reason: "sid/config not single-line".into(),
        });
    }
    let text = format!(
        "igp-store {META_VERSION}\nsid {}\nconfig {}\n",
        meta.sid, meta.config_line
    );
    std::fs::write(meta_path(dir), text)?;
    Ok(())
}

fn read_meta(dir: &Path) -> Result<StoreMeta, StoreError> {
    let path = meta_path(dir);
    // Only an absent file means "not a session dir". Any other I/O
    // failure (EACCES, EIO, ...) on a file that may well exist must
    // abort recovery loudly — mapping it to `Missing` would let boot
    // silently skip a live session over a transient error.
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(StoreError::Missing(format!(
                "{} (not a session dir?)",
                path.display()
            )))
        }
        Err(e) => return Err(StoreError::Io(e)),
    };
    let corrupt = |reason: &str| StoreError::Corrupt {
        what: path.display().to_string(),
        reason: reason.to_string(),
    };
    let mut lines = text.lines();
    match lines.next().and_then(|l| l.strip_prefix("igp-store ")) {
        Some(v) if v.trim() == META_VERSION.to_string() => {}
        Some(_) => return Err(corrupt("unsupported meta version")),
        None => return Err(corrupt("missing `igp-store <version>` header")),
    }
    let sid = lines
        .next()
        .and_then(|l| l.strip_prefix("sid "))
        .ok_or_else(|| corrupt("missing `sid` line"))?
        .to_string();
    let config_line = lines
        .next()
        .and_then(|l| l.strip_prefix("config "))
        .ok_or_else(|| corrupt("missing `config` line"))?
        .to_string();
    Ok(StoreMeta { sid, config_line })
}

/// Highest-seq valid snapshot in `dir`, trying lower sequences if the
/// newest file is unreadable (e.g. bit rot), plus warnings for every
/// file skipped on the way.
fn latest_snapshot(dir: &Path) -> Result<(SnapshotData, Vec<String>), StoreError> {
    let mut seqs: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".snap"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            seqs.push(seq);
        }
    }
    if seqs.is_empty() {
        return Err(StoreError::Missing(format!(
            "no snapshot in {}",
            dir.display()
        )));
    }
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    let mut warnings = Vec::new();
    for &seq in &seqs {
        match read_snapshot(&snap_path(dir, seq)) {
            Ok(snap) if snap.seq == seq => return Ok((snap, warnings)),
            Ok(snap) => warnings.push(format!(
                "snap-{seq}.snap carries wrong seq {}; skipped",
                snap.seq
            )),
            Err(e) => warnings.push(format!("snap-{seq}.snap unreadable: {e}; skipped")),
        }
    }
    Err(StoreError::Corrupt {
        what: dir.display().to_string(),
        reason: format!(
            "no readable snapshot among {} candidates: {}",
            seqs.len(),
            warnings.join("; ")
        ),
    })
}

impl SessionStore {
    /// Create a fresh store for a just-opened session: wipes any stale
    /// directory, writes `meta` and snapshot 0 from `state`, and opens
    /// an empty WAL.
    pub fn create(
        dir: &Path,
        meta: StoreMeta,
        policy: SnapshotPolicy,
        state: SessionState<'_>,
    ) -> Result<Self, StoreError> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::create_dir_all(dir)?;
        write_meta(dir, &meta)?;
        let snap = snap_path(dir, 0);
        install_synced(
            &snap,
            &encode_snapshot(&snap, 0, &state, &GraphDelta::default(), 0)?,
        )?;
        let wal = WalWriter::create(&wal_path(dir, 0), 0)?;
        // Make the directory entries of the initial meta/snap/wal trio
        // durable before the first ack can be issued against them.
        fsync_dir(dir)?;
        Ok(SessionStore {
            dir: dir.to_path_buf(),
            meta,
            policy,
            wal,
            co: DeltaCoalescer::new(state.graph.num_vertices()),
            seq: 0,
            snapshots_written: 1,
            ops_since_snap: 0,
            steps_at_snap: state.steps,
            rotation: None,
        })
    }

    /// Collect the background half of the latest rotation if it is done
    /// (or, with `wait`, whenever it is), surfacing its error: the store
    /// is no longer durable and the caller must stop relying on it.
    fn finish_rotation(&mut self, wait: bool) -> Result<(), StoreError> {
        match self.rotation.take_if(|h| wait || h.is_finished()) {
            Some(h) => h.join().unwrap_or_else(|_| {
                Err(StoreError::Io(std::io::Error::other(
                    "snapshot rotation thread panicked",
                )))
            }),
            None => Ok(()),
        }
    }

    /// Journal one accepted delta (append to the WAL *and* fold into
    /// the tail compactor). Called after the session accepted the delta
    /// and before the client is acked.
    pub fn journal_delta(&mut self, d: &GraphDelta) -> Result<(), StoreError> {
        self.finish_rotation(false)?;
        // The session validated this delta against the same virtual
        // graph the compactor mirrors, so a push failure means the
        // store has diverged — surface it, don't panic.
        self.co.push(d).map_err(|e| StoreError::Corrupt {
            what: "tail compactor".into(),
            reason: e.to_string(),
        })?;
        self.wal.append_delta(d)?;
        self.ops_since_snap += edit_ops(d);
        Ok(())
    }

    /// Journal an explicit client-requested flush.
    pub fn journal_flush(&mut self) -> Result<(), StoreError> {
        self.finish_rotation(false)?;
        self.wal.append(&WalRecord::Flush)?;
        Ok(())
    }

    /// Evaluate the snapshot policy against `state` (call at step
    /// boundaries, where the session queue is empty); writes and
    /// rotates if it fires. Returns whether a snapshot was written.
    pub fn maybe_snapshot(&mut self, state: SessionState<'_>) -> Result<bool, StoreError> {
        self.finish_rotation(false)?;
        let view = SnapshotView {
            n_current: state.graph.num_vertices(),
            records_since_snap: self.wal.records(),
            flushes_since_snap: state.steps.saturating_sub(self.steps_at_snap),
            ops_since_snap: self.ops_since_snap,
        };
        if !self.policy.should_snapshot(&view) {
            return Ok(false);
        }
        self.snapshot_now(state)?;
        Ok(true)
    }

    /// Unconditionally fold the WAL tail into a new snapshot and rotate
    /// the log. The tail (`compacted_records` frames) is replaced by
    /// its [`DeltaCoalescer::net`] — one canonical delta recorded as
    /// the snapshot's lineage.
    ///
    /// Returns once the new pair is written, renamed and created — page
    /// cache only. The fsyncs, and after them the deletion of the old
    /// pair, run on a background thread: journal-before-ack is the WAL's
    /// invariant, and WAL appends are flushed to the OS, not fsynced
    /// (DESIGN.md §9.2), so no ack promises less for it. Its error
    /// surfaces from the next call on this store; a previous rotation
    /// still in flight is waited for first.
    pub fn snapshot_now(&mut self, state: SessionState<'_>) -> Result<(), StoreError> {
        let _sp = igp_obs::trace::Span::ambient("snapshot");
        let m = crate::obs::metrics();
        let cell = crate::obs::health_cell();
        cell.busy();
        let started = m.snapshot_us.time(|| -> Result<(), StoreError> {
            self.finish_rotation(true)?;
            let tail = self.begin_rotation(state)?;
            self.rotation = Some(tail.spawn()?);
            Ok(())
        });
        cell.idle();
        if started.is_err() {
            cell.note_failure(crate::obs::STORE_FAIL_HOLD);
        }
        started?;
        m.snapshots_total.inc();
        Ok(())
    }

    /// The ack-path half of a rotation: encode from the borrowed state,
    /// write `snap-<next>.tmp`, rename it, create `wal-<next>.log`. Every
    /// prefix of these steps is a state recovery already handles.
    fn begin_rotation(&mut self, state: SessionState<'_>) -> Result<RotationTail, StoreError> {
        let next = self.seq + 1;
        let path = snap_path(&self.dir, next);
        let bytes = encode_snapshot(&path, next, &state, &self.co.net(), self.wal.records())?;
        let (snapshot, tmp) = write_tmp(&path, &bytes)?;
        std::fs::rename(&tmp, &path)?;
        self.wal = WalWriter::create(&wal_path(&self.dir, next), next)?;
        let tail = RotationTail {
            snapshot,
            dir: self.dir.clone(),
            retired: self.seq,
        };
        self.seq = next;
        self.snapshots_written += 1;
        self.co = DeltaCoalescer::new(state.graph.num_vertices());
        self.ops_since_snap = 0;
        self.steps_at_snap = state.steps;
        Ok(tail)
    }

    /// Recover a session directory: latest valid snapshot + intact WAL
    /// tail, with any corrupt trailing bytes reported and truncated
    /// away so the reopened log appends cleanly.
    pub fn recover(dir: &Path, policy: SnapshotPolicy) -> Result<Recovered, StoreError> {
        let m = crate::obs::metrics();
        let recovered = m.recovery_us.time(|| Self::recover_inner(dir, policy))?;
        m.recoveries_total.inc();
        if recovered.dropped_tail.is_some() {
            m.recovery_truncations_total.inc();
        }
        Ok(recovered)
    }

    fn recover_inner(dir: &Path, policy: SnapshotPolicy) -> Result<Recovered, StoreError> {
        let meta = read_meta(dir)?;
        let (snapshot, mut warnings) = latest_snapshot(dir)?;
        let wpath = wal_path(dir, snapshot.seq);
        // One compactor serves double duty: it validates the tail
        // record by record and ends up as the reopened store's
        // tail-fold state.
        let mut co = DeltaCoalescer::new(snapshot.graph.num_vertices());
        let mut ops = 0;
        let (tail, wal, dropped) = if wpath.exists() {
            let mut tail = read_wal(&wpath)?;
            if tail.seq != snapshot.seq {
                return Err(StoreError::Corrupt {
                    what: wpath.display().to_string(),
                    reason: format!(
                        "log seq {} does not extend snapshot {}",
                        tail.seq, snapshot.seq
                    ),
                });
            }
            // Fold the tail through the compactor exactly as journaling
            // did; a record the compactor rejects (and everything after
            // it) is unusable — drop it like a checksum failure.
            let mut good = tail.records.len();
            for (i, rec) in tail.records.iter().enumerate() {
                if let WalRecord::Delta(d) = rec {
                    if let Err(e) = co.push(d) {
                        tail.corruption =
                            Some(format!("record {i} inconsistent with snapshot: {e}"));
                        good = i;
                        break;
                    }
                    ops += edit_ops(d);
                }
            }
            tail.records.truncate(good);
            if good < tail.ends.len() {
                tail.good_bytes = if good == 0 {
                    HEADER_BYTES
                } else {
                    tail.ends[good - 1]
                };
                tail.ends.truncate(good);
            }
            let dropped = tail.corruption.clone();
            let wal = WalWriter::reopen(&wpath, &tail)?;
            (tail.records, wal, dropped)
        } else {
            // Crash between snapshot rename and WAL creation: an empty
            // tail, recreated now.
            warnings.push(format!("missing {}; starting empty", wpath.display()));
            let wal = WalWriter::create(&wpath, snapshot.seq)?;
            fsync_dir(dir)?;
            (Vec::new(), wal, None)
        };
        let dropped = match (dropped, warnings.is_empty()) {
            (d, true) => d,
            (Some(d), false) => Some(format!("{}; {d}", warnings.join("; "))),
            (None, false) => Some(warnings.join("; ")),
        };
        Ok(Recovered {
            store: SessionStore {
                dir: dir.to_path_buf(),
                meta: meta.clone(),
                policy,
                wal,
                co,
                seq: snapshot.seq,
                snapshots_written: 0,
                ops_since_snap: ops,
                steps_at_snap: snapshot.steps,
                rotation: None,
            },
            meta,
            snapshot,
            tail,
            dropped_tail: dropped,
        })
    }

    /// Read-only inspection of a session directory (nothing is
    /// truncated, reopened or repaired).
    pub fn inspect(dir: &Path) -> Result<Inspection, StoreError> {
        let meta = read_meta(dir)?;
        let (snapshot, warnings) = latest_snapshot(dir)?;
        let wpath = wal_path(dir, snapshot.seq);
        // An absent WAL is the same state `recover` treats as a benign
        // interrupted rotation (crash between snapshot rename and WAL
        // creation): an empty tail, not corruption. Keep the two paths
        // aligned so the inspector never flags a directory recovery
        // would rehydrate losslessly.
        let mut note = None;
        let (records, tail_bytes, mut corruption) = if wpath.exists() {
            let tail = read_wal(&wpath)?;
            if tail.seq != snapshot.seq {
                (
                    Vec::new(),
                    tail.total_bytes,
                    Some("log/snapshot seq mismatch".to_string()),
                )
            } else {
                (tail.records, tail.total_bytes, tail.corruption)
            }
        } else {
            note = Some(format!(
                "missing {}; interrupted rotation, empty tail (recovery recreates it)",
                wpath.display()
            ));
            (Vec::new(), 0, None)
        };
        let mut co = DeltaCoalescer::new(snapshot.graph.num_vertices());
        let mut tail_deltas = 0;
        let mut tail_flushes = 0;
        for (i, rec) in records.iter().enumerate() {
            match rec {
                WalRecord::Flush => tail_flushes += 1,
                WalRecord::Delta(d) => match co.push(d) {
                    Ok(()) => tail_deltas += 1,
                    Err(e) => {
                        corruption = Some(format!("record {i} inconsistent with snapshot: {e}"));
                        break;
                    }
                },
            }
        }
        if !warnings.is_empty() {
            let w = warnings.join("; ");
            corruption = Some(match corruption {
                Some(c) => format!("{w}; {c}"),
                None => w,
            });
        }
        Ok(Inspection {
            meta,
            snapshot,
            tail_deltas,
            tail_flushes,
            tail_bytes,
            tail_net: co.net(),
            tail_dirt: co.dirt(),
            corruption,
            note,
        })
    }

    /// The session directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Session identity + config line.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Current snapshot sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Snapshots written by this process (including the initial one at
    /// create; 0 right after recovery).
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written
    }

    /// Records in the current WAL tail.
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// Bytes in the current WAL tail (header included).
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// The snapshot policy in force.
    pub fn policy(&self) -> &SnapshotPolicy {
        &self.policy
    }

    /// The replication cursor: `(snapshot seq, WAL byte end)`. A
    /// follower holding `(seq, offset)` asks for the frame bytes in
    /// `[offset, wal_bytes())` of `wal-<seq>.log`; after a rotation the
    /// seq no longer matches and the follower must full-resync (its
    /// local state is equivalent — replay determinism — just based on
    /// an older snapshot lineage).
    pub fn repl_cursor(&self) -> (u64, u64) {
        (self.seq, self.wal.bytes())
    }

    /// Raw bytes of the meta file, as shipped by `REPL SYNC`.
    pub fn meta_file_bytes(&self) -> Result<Vec<u8>, StoreError> {
        Ok(std::fs::read(meta_path(&self.dir))?)
    }

    /// Raw bytes of the current snapshot file, as shipped by
    /// `REPL SYNC`.
    pub fn snapshot_file_bytes(&self) -> Result<Vec<u8>, StoreError> {
        Ok(std::fs::read(snap_path(&self.dir, self.seq))?)
    }

    /// Raw bytes of the current WAL file in `[offset, wal_bytes())`.
    /// `offset = 0` ships the whole file (bootstrap); a frame-boundary
    /// offset ≥ [`HEADER_BYTES`] ships the
    /// frames a follower has not yet applied. A cursor past the current
    /// end is an error (the caller turns it into a resync).
    pub fn wal_file_bytes_from(&self, offset: u64) -> Result<Vec<u8>, StoreError> {
        let end = self.wal.bytes();
        if offset > end {
            return Err(StoreError::Corrupt {
                what: self.wal.path().display().to_string(),
                reason: format!("replication offset {offset} past WAL end {end}"),
            });
        }
        let bytes = std::fs::read(self.wal.path())?;
        if (bytes.len() as u64) < end {
            return Err(StoreError::Corrupt {
                what: self.wal.path().display().to_string(),
                reason: format!(
                    "file holds {} bytes but the writer acked {end}",
                    bytes.len()
                ),
            });
        }
        Ok(bytes[offset as usize..end as usize].to_vec())
    }
}

impl Drop for SessionStore {
    /// Let an in-flight rotation finish (its error has nobody left to go
    /// to; the thread itself flagged the store's health cell).
    fn drop(&mut self) {
        let _ = self.finish_rotation(true);
    }
}

/// Install a replica of a primary's session directory from the raw
/// file bytes shipped by `REPL SYNC` (meta, current snapshot, current
/// WAL). Replaces any existing directory. The caller rehydrates the
/// session afterwards via [`SessionStore::recover`] — the same code
/// path proven bit-identical for crash recovery.
pub fn install_replica(
    dir: &Path,
    seq: u64,
    meta: &[u8],
    snapshot: &[u8],
    wal: &[u8],
) -> Result<(), StoreError> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    for (path, bytes) in [
        (meta_path(dir), meta),
        (snap_path(dir, seq), snapshot),
        (wal_path(dir, seq), wal),
    ] {
        let mut f = std::fs::File::create(&path)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    fsync_dir(dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use igp_graph::generators;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("igp-store-test-{}-{name}", std::process::id()))
    }

    fn meta() -> StoreMeta {
        StoreMeta {
            sid: "s1".into(),
            config_line: "parts=2 policy=every:1".into(),
        }
    }

    /// A toy durable "session": graph evolves by applied deltas, state
    /// borrowed for the store calls.
    struct Toy {
        graph: CsrGraph,
        part: Partitioning,
        base: Vec<NodeId>,
        steps: u64,
        deltas: u64,
    }

    impl Toy {
        fn new() -> Self {
            let graph = generators::grid(4, 4);
            let part = Partitioning::round_robin(&graph, 2);
            Toy {
                base: (0..16).collect(),
                graph,
                part,
                steps: 0,
                deltas: 0,
            }
        }

        fn state(&self) -> SessionState<'_> {
            SessionState {
                graph: &self.graph,
                part: &self.part,
                base_of_current: &self.base,
                steps: self.steps,
                total_moved: 0,
                deltas_received: self.deltas,
                needs_scratch: false,
            }
        }

        fn apply(&mut self, d: &GraphDelta) {
            let inc = d.apply(&self.graph);
            let n = inc.new_graph().num_vertices();
            let mut base = vec![igp_graph::INVALID_NODE; n];
            for (v, slot) in base.iter_mut().enumerate() {
                let o = inc.old_of_new(v as NodeId);
                if o != igp_graph::INVALID_NODE {
                    *slot = self.base[o as usize];
                }
            }
            self.base = base;
            self.graph = inc.new_graph().clone();
            self.part = Partitioning::round_robin(&self.graph, 2);
            self.steps += 1;
            self.deltas += 1;
        }
    }

    fn growth(g: &CsrGraph, seed: u64) -> GraphDelta {
        generators::localized_growth_delta(g, 0, 2, seed)
    }

    #[test]
    fn create_journal_snapshot_recover_roundtrip() {
        let dir = tmp("lifecycle");
        let mut toy = Toy::new();
        let mut store =
            SessionStore::create(&dir, meta(), SnapshotPolicy::EveryK(2), toy.state()).unwrap();
        assert_eq!(store.seq(), 0);
        // Two deltas → EveryK(2) snapshot fires, tail compacted.
        for k in 0..2 {
            let d = growth(&toy.graph, k);
            toy.apply(&d);
            store.journal_delta(&d).unwrap();
        }
        assert_eq!(store.wal_records(), 2);
        assert!(store.maybe_snapshot(toy.state()).unwrap());
        assert_eq!(store.seq(), 1);
        assert_eq!(store.wal_records(), 0);
        // One more delta rides the new tail.
        let d = growth(&toy.graph, 9);
        toy.apply(&d);
        store.journal_delta(&d).unwrap();
        store.journal_flush().unwrap();
        drop(store);

        let rec = SessionStore::recover(&dir, SnapshotPolicy::EveryK(2)).unwrap();
        assert!(rec.dropped_tail.is_none());
        assert_eq!(rec.meta, meta());
        assert_eq!(rec.snapshot.seq, 1);
        assert_eq!(rec.snapshot.compacted_records, 2);
        assert_eq!(rec.snapshot.steps, 2);
        // Lineage applied to... the *previous* snapshot graph — here we
        // just check the tail survives verbatim.
        assert_eq!(rec.tail.len(), 2);
        assert!(matches!(rec.tail[0], WalRecord::Delta(_)));
        assert!(matches!(rec.tail[1], WalRecord::Flush));
        // Snapshot state is NOT the live state (one delta in the tail).
        assert_eq!(
            rec.snapshot.graph.num_vertices() + 2,
            toy.graph.num_vertices()
        );
        // Reopened store appends cleanly.
        let mut store = rec.store;
        let d = growth(&toy.graph, 11);
        toy.apply(&d);
        store.journal_delta(&d).unwrap();
        assert_eq!(store.wal_records(), 3);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn lineage_delta_reproduces_next_snapshot_graph() {
        let dir = tmp("lineage");
        let mut toy = Toy::new();
        let snap0_graph = toy.graph.clone();
        let mut store =
            SessionStore::create(&dir, meta(), SnapshotPolicy::Never, toy.state()).unwrap();
        for k in 0..4 {
            let d = growth(&toy.graph, k);
            toy.apply(&d);
            store.journal_delta(&d).unwrap();
        }
        store.snapshot_now(toy.state()).unwrap();
        drop(store);
        let rec = SessionStore::recover(&dir, SnapshotPolicy::Never).unwrap();
        assert_eq!(rec.snapshot.seq, 1);
        assert_eq!(rec.snapshot.compacted_records, 4);
        // Compaction-by-coalescing: applying the lineage delta to the
        // previous snapshot's graph reproduces this snapshot's graph.
        let rebuilt = rec.snapshot.lineage.apply(&snap0_graph);
        assert_eq!(rebuilt.new_graph(), &rec.snapshot.graph);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn recovery_survives_interrupted_rotation() {
        let dir = tmp("rotation");
        let mut toy = Toy::new();
        let mut store =
            SessionStore::create(&dir, meta(), SnapshotPolicy::Never, toy.state()).unwrap();
        let d = growth(&toy.graph, 1);
        toy.apply(&d);
        store.journal_delta(&d).unwrap();
        store.snapshot_now(toy.state()).unwrap();
        drop(store);
        // Simulate a crash between rename and WAL creation: delete the
        // new WAL; and leave a stale *invalid* higher snapshot behind.
        std::fs::remove_file(dir.join("wal-1.log")).unwrap();
        std::fs::write(dir.join("snap-9.snap"), b"garbage").unwrap();
        let rec = SessionStore::recover(&dir, SnapshotPolicy::Never).unwrap();
        assert_eq!(rec.snapshot.seq, 1, "invalid snap-9 must be skipped");
        assert!(rec.tail.is_empty());
        let note = rec.dropped_tail.expect("warnings surface");
        assert!(note.contains("snap-9"), "{note}");
        assert!(note.contains("starting empty"), "{note}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// The ack returns before the fsyncs: if they then fail (here the
    /// directory vanishes between the two halves of a rotation), the
    /// error comes back typed, once, from the next call on the store —
    /// whether that call polls (`journal_delta`) or joins
    /// (`snapshot_now`).
    #[test]
    fn background_rotation_failure_surfaces_on_the_next_call() {
        for join in [false, true] {
            let dir = tmp(if join { "bg-join" } else { "bg-poll" });
            let mut toy = Toy::new();
            let mut store =
                SessionStore::create(&dir, meta(), SnapshotPolicy::Never, toy.state()).unwrap();
            let d = growth(&toy.graph, 1);
            toy.apply(&d);
            store.journal_delta(&d).unwrap();
            let tail = store.begin_rotation(toy.state()).unwrap();
            assert_eq!(store.seq(), 1, "the ack-path half already rotated");
            std::fs::remove_dir_all(&dir).unwrap();
            store.rotation = Some(tail.spawn().unwrap());
            let err = if join {
                store.snapshot_now(toy.state()).unwrap_err()
            } else {
                while !store.rotation.as_ref().unwrap().is_finished() {
                    std::thread::yield_now();
                }
                store.journal_delta(&growth(&toy.graph, 2)).unwrap_err()
            };
            assert!(matches!(err, StoreError::Io(_)), "got: {err}");
            assert!(store.rotation.is_none(), "reported once");
        }
    }

    #[test]
    fn inspect_is_read_only_and_reports_corruption() {
        let dir = tmp("inspect");
        let mut toy = Toy::new();
        let mut store =
            SessionStore::create(&dir, meta(), SnapshotPolicy::Never, toy.state()).unwrap();
        for k in 0..3 {
            let d = growth(&toy.graph, k);
            toy.apply(&d);
            store.journal_delta(&d).unwrap();
        }
        drop(store);
        let wal = dir.join("wal-0.log");
        let before = std::fs::read(&wal).unwrap();
        // Corrupt the last byte: inspect reports it but repairs nothing.
        let mut bytes = before.clone();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&wal, &bytes).unwrap();
        let insp = SessionStore::inspect(&dir).unwrap();
        assert_eq!(insp.tail_deltas, 2);
        assert_eq!(insp.tail_flushes, 0);
        assert!(insp.corruption.is_some());
        assert_eq!(insp.tail_dirt.deltas, 2);
        assert!(!insp.tail_net.is_empty());
        assert_eq!(
            std::fs::read(&wal).unwrap(),
            bytes,
            "inspect must not mutate"
        );
        std::fs::remove_dir_all(dir).unwrap();
    }
}
