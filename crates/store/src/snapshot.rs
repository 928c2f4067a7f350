//! Snapshot files: the full persistable session state at one step
//! boundary, plus the *lineage* of how it got there.
//!
//! Layout (little-endian, CRC32 trailer over everything before it):
//!
//! ```text
//! magic "IGPS" · version u32 · seq u64
//! steps u64 · total_moved u64 · deltas_received u64 · needs_scratch u8
//! graph   : len u32 · igp_graph::io::write_graph_bin
//! part    : len u32 · igp_graph::io::write_partition_bin
//! basemap : count u32 · count × u32      (birth id per current vertex)
//! lineage : len u32 · igp_graph::io::write_delta_bin
//! compacted_records u64
//! crc32 u32
//! ```
//!
//! The **lineage delta** is the previous snapshot's WAL tail folded
//! into one canonical edit by [`igp_graph::DeltaCoalescer`] — log
//! compaction by coalescing: `compacted_records` journal frames are
//! replaced by a single delta whose application to the previous
//! snapshot's graph reproduces this one (and whose identity map links
//! vertex ids across the two). Snapshot writes go through a temp file +
//! fsync + rename + directory fsync, so a crash mid-write leaves the
//! previous snapshot intact and a completed install cannot be undone
//! by the directory entry never reaching disk. (A rotation renames first
//! and runs the two fsyncs behind the ack — see [`crate::store`] — which
//! is safe because the previous pair stays until they are done and a
//! torn snapshot fails its CRC.)

use crate::store::SessionState;
use crate::{crc32, StoreError};
use igp_graph::{io as graph_io, CsrGraph, GraphDelta, NodeId, Partitioning};
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

const SNAP_MAGIC: [u8; 4] = *b"IGPS";
const SNAP_VERSION: u32 = 1;

/// Everything one snapshot persists.
#[derive(Clone, Debug)]
pub struct SnapshotData {
    /// Snapshot sequence number (0 = the state at `OPEN`).
    pub seq: u64,
    /// Session steps taken when the snapshot was written.
    pub steps: u64,
    /// Total vertices moved by those steps.
    pub total_moved: u64,
    /// Deltas accepted over the session's lifetime.
    pub deltas_received: u64,
    /// The from-scratch signal at snapshot time.
    pub needs_scratch: bool,
    /// The session graph.
    pub graph: CsrGraph,
    /// The session partitioning.
    pub part: Partitioning,
    /// Birth-graph id per current vertex (the session's composed
    /// identity map).
    pub base_of_current: Vec<NodeId>,
    /// The WAL tail since the previous snapshot, coalesced into one
    /// canonical delta (empty for snapshot 0).
    pub lineage: GraphDelta,
    /// How many WAL records the lineage delta compacted.
    pub compacted_records: u64,
}

/// Serialize a snapshot of `state` into one buffer, CRC trailer
/// included. `path` only names the snapshot in errors.
pub(crate) fn encode_snapshot(
    path: &Path,
    seq: u64,
    state: &SessionState<'_>,
    lineage: &GraphDelta,
    compacted_records: u64,
) -> Result<Vec<u8>, StoreError> {
    // Append one length-prefixed block. The prefix is a u32; fail the
    // write rather than wrap silently into a snapshot the reader would
    // call corrupt — after rotation deleted its only predecessor.
    fn block(
        out: &mut Vec<u8>,
        path: &Path,
        what: &str,
        write: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), StoreError> {
        let at = out.len();
        out.extend_from_slice(&[0; 4]);
        write(out);
        let len = out.len() - at - 4;
        let prefix = u32::try_from(len).map_err(|_| StoreError::Corrupt {
            what: path.display().to_string(),
            reason: format!("{what} block of {len} bytes exceeds the u32 frame bound"),
        })?;
        out[at..at + 4].copy_from_slice(&prefix.to_le_bytes());
        Ok(())
    }
    let mut out = Vec::new();
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&state.steps.to_le_bytes());
    out.extend_from_slice(&state.total_moved.to_le_bytes());
    out.extend_from_slice(&state.deltas_received.to_le_bytes());
    out.push(u8::from(state.needs_scratch));
    block(&mut out, path, "graph", |o| {
        graph_io::write_graph_bin_into(o, state.graph)
    })?;
    block(&mut out, path, "partition", |o| {
        graph_io::write_partition_bin_into(o, state.part)
    })?;
    out.extend_from_slice(&(state.base_of_current.len() as u32).to_le_bytes());
    for &b in state.base_of_current {
        out.extend_from_slice(&b.to_le_bytes());
    }
    block(&mut out, path, "lineage", |o| {
        graph_io::write_delta_bin_into(o, lineage)
    })?;
    out.extend_from_slice(&compacted_records.to_le_bytes());
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Write `bytes` to `path.tmp` and hand back the open file and its
/// path. Nothing is synced: the caller decides when, and renames.
pub(crate) fn write_tmp(path: &Path, bytes: &[u8]) -> Result<(File, PathBuf), StoreError> {
    let tmp = path.with_extension("tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    Ok((f, tmp))
}

/// Atomically and durably install encoded snapshot `bytes` at `path`:
/// write to `path.tmp`, fsync, rename, fsync the directory.
pub(crate) fn install_synced(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let (f, tmp) = write_tmp(path, bytes)?;
    f.sync_data()?;
    std::fs::rename(&tmp, path)?;
    // The rename is durable only once the directory entry is: without
    // this, a crash can resurrect the pre-rotation state even though
    // the snapshot's own bytes were fsynced.
    if let Some(dir) = path.parent() {
        fsync_dir(dir)?;
    }
    Ok(())
}

/// Serialize and atomically install a snapshot at `path` (write to
/// `path.tmp`, fsync, rename, fsync the directory).
pub fn write_snapshot(path: &Path, data: &SnapshotData) -> Result<(), StoreError> {
    let state = SessionState {
        graph: &data.graph,
        part: &data.part,
        base_of_current: &data.base_of_current,
        steps: data.steps,
        total_moved: data.total_moved,
        deltas_received: data.deltas_received,
        needs_scratch: data.needs_scratch,
    };
    let bytes = encode_snapshot(
        path,
        data.seq,
        &state,
        &data.lineage,
        data.compacted_records,
    )?;
    install_synced(path, &bytes)
}

/// Fsync a directory so metadata operations inside it (create, rename,
/// delete) survive a crash. On non-Unix targets this is a no-op —
/// opening a directory for sync is a Unix idiom.
pub fn fsync_dir(dir: &Path) -> Result<(), StoreError> {
    #[cfg(unix)]
    File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Read and verify a snapshot file.
pub fn read_snapshot(path: &Path) -> Result<SnapshotData, StoreError> {
    let corrupt = |reason: String| StoreError::Corrupt {
        what: path.display().to_string(),
        reason,
    };
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 4 + 4 + 8 * 4 + 1 + 4 {
        return Err(corrupt(format!("short file ({} bytes)", bytes.len())));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != crc {
        return Err(corrupt("checksum mismatch".into()));
    }
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], StoreError> {
        let end = pos
            .checked_add(n)
            .filter(|&e| e <= body.len())
            .ok_or_else(|| StoreError::Corrupt {
                what: path.display().to_string(),
                reason: format!("truncated at offset {pos}"),
            })?;
        let s = &body[*pos..end];
        *pos = end;
        Ok(s)
    };
    let u32_at = |pos: &mut usize| -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(take(pos, 4)?.try_into().unwrap()))
    };
    let u64_at = |pos: &mut usize| -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(take(pos, 8)?.try_into().unwrap()))
    };
    if take(&mut pos, 4)? != SNAP_MAGIC {
        return Err(corrupt("bad magic".into()));
    }
    let ver = u32_at(&mut pos)?;
    if ver != SNAP_VERSION {
        return Err(corrupt(format!("unsupported version {ver}")));
    }
    let seq = u64_at(&mut pos)?;
    let steps = u64_at(&mut pos)?;
    let total_moved = u64_at(&mut pos)?;
    let deltas_received = u64_at(&mut pos)?;
    let needs_scratch = take(&mut pos, 1)?[0] != 0;
    let graph_len = u32_at(&mut pos)? as usize;
    let graph =
        graph_io::read_graph_bin(take(&mut pos, graph_len)?).map_err(|e| corrupt(e.to_string()))?;
    let part_len = u32_at(&mut pos)? as usize;
    let part = graph_io::read_partition_bin(take(&mut pos, part_len)?, &graph)
        .map_err(|e| corrupt(e.to_string()))?;
    let map_len = u32_at(&mut pos)? as usize;
    if map_len != graph.num_vertices() {
        return Err(corrupt(format!(
            "identity map has {map_len} entries for {} vertices",
            graph.num_vertices()
        )));
    }
    let mut base_of_current = Vec::with_capacity(map_len);
    for _ in 0..map_len {
        base_of_current.push(u32_at(&mut pos)?);
    }
    let lineage_len = u32_at(&mut pos)? as usize;
    let lineage = graph_io::read_delta_bin(take(&mut pos, lineage_len)?)
        .map_err(|e| corrupt(e.to_string()))?;
    let compacted_records = u64_at(&mut pos)?;
    if pos != body.len() {
        return Err(corrupt(format!("{} trailing bytes", body.len() - pos)));
    }
    Ok(SnapshotData {
        seq,
        steps,
        total_moved,
        deltas_received,
        needs_scratch,
        graph,
        part,
        base_of_current,
        lineage,
        compacted_records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use igp_graph::generators;

    fn sample() -> SnapshotData {
        let graph = generators::grid(4, 4);
        let part = Partitioning::round_robin(&graph, 2);
        SnapshotData {
            seq: 3,
            steps: 7,
            total_moved: 41,
            deltas_received: 19,
            needs_scratch: true,
            base_of_current: (0..16).collect(),
            lineage: GraphDelta {
                add_vertices: vec![1, 1],
                add_edges: vec![(0, 16, 1), (16, 17, 2)],
                ..Default::default()
            },
            compacted_records: 6,
            graph,
            part,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("igp-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrip() {
        let path = tmp("roundtrip.snap");
        let data = sample();
        write_snapshot(&path, &data).unwrap();
        let back = read_snapshot(&path).unwrap();
        assert_eq!(back.seq, data.seq);
        assert_eq!(back.steps, data.steps);
        assert_eq!(back.total_moved, data.total_moved);
        assert_eq!(back.deltas_received, data.deltas_received);
        assert_eq!(back.needs_scratch, data.needs_scratch);
        assert_eq!(back.graph, data.graph);
        assert_eq!(back.part, data.part);
        assert_eq!(back.base_of_current, data.base_of_current);
        assert_eq!(back.lineage, data.lineage);
        assert_eq!(back.compacted_records, data.compacted_records);
        std::fs::remove_file(path).unwrap();
    }

    /// Regression (satellite): `write_snapshot` persists the *directory
    /// entry* too — the rename alone does not survive a power cut on
    /// its own. The dir-sync path must accept a real directory and
    /// refuse a missing one (a silent no-op there would quietly skip
    /// the durability barrier).
    #[test]
    fn dir_sync_path_stats_the_directory() {
        let path = tmp("dirsync.snap");
        write_snapshot(&path, &sample()).unwrap();
        let dir = path.parent().unwrap();
        assert!(dir.metadata().unwrap().is_dir());
        fsync_dir(dir).expect("fsync of the snapshot's directory");
        #[cfg(unix)]
        assert!(
            fsync_dir(&dir.join("no-such-subdir")).is_err(),
            "a vanished directory must surface, not no-op"
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn corruption_detected_by_trailer_crc() {
        let path = tmp("corrupt.snap");
        write_snapshot(&path, &sample()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(StoreError::Corrupt { .. })
        ));
        // Truncation too.
        std::fs::write(&path, &bytes[..mid]).unwrap();
        assert!(read_snapshot(&path).is_err());
        std::fs::remove_file(path).unwrap();
    }
}
