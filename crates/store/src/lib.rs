//! # igp-store — durability for the serving layer
//!
//! The paper's economics — incremental repartitioning beats recompute
//! from scratch — only pay off in a long-lived service if the
//! incremental state *survives restarts*: an `igp-serve` crash that
//! loses every tenant's graph forces exactly the full recompute the
//! method exists to avoid. This crate is the persistence substrate
//! (DESIGN.md §9):
//!
//! * [`wal`] — a per-session **write-ahead log** of validated
//!   [`igp_graph::GraphDelta`]s and explicit flush markers, in
//!   length+CRC32 frames. A truncated or corrupt trailing record is
//!   detected, reported and dropped — never a panic.
//! * [`snapshot`] — periodic **partition+graph snapshots** carrying the
//!   graph, the partitioning, the session's composed identity map and
//!   its counters, plus the *lineage delta*: the WAL tail since the
//!   previous snapshot folded into one canonical edit by
//!   [`igp_graph::DeltaCoalescer`] (log compaction by coalescing).
//! * [`policy`] — a [`SnapshotPolicy`] priced with
//!   [`igp_runtime::CostModel`]: snapshot when the estimated cost of
//!   replaying the WAL tail exceeds the cost of writing a snapshot,
//!   mirroring the serving layer's remap-vs-stale repartition trigger.
//! * [`store`] — [`SessionStore`]: the on-disk session directory
//!   (`meta`, `snap-<seq>`, `wal-<seq>`), journaling, snapshot
//!   rotation, read-only inspection and crash [`SessionStore::recover`].
//!
//! The recovery contract, asserted by `tests/store_recovery.rs` and the
//! CI kill-9 end-to-end job: *loading the latest snapshot and replaying
//! the WAL tail rehydrates a session bit-identical — graph, partition
//! assignment and composed identity map — to the session that never
//! crashed.* It holds because every repartition driver is
//! deterministic in (graph, partitioning, config) and the WAL records
//! every externally visible input (accepted deltas, explicit flushes)
//! in order.

pub mod obs;
pub mod policy;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use policy::{SnapshotPolicy, SnapshotTrigger, SnapshotView};
pub use snapshot::SnapshotData;
pub use store::{install_replica, Inspection, Recovered, SessionState, SessionStore, StoreMeta};
pub use wal::{decode_frames, WalRecord, WalTail};

/// Failure in the durability layer. Storage failures never take the
/// in-memory session down; the serving layer reports them and degrades
/// the session to memory-only.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error.
    Io(std::io::Error),
    /// A file exists but its contents are not usable (bad magic,
    /// version, checksum, or decode failure).
    Corrupt {
        /// File (or logical part) the corruption was found in.
        what: String,
        /// What was wrong.
        reason: String,
    },
    /// The session directory is structurally incomplete (missing meta
    /// or no usable snapshot).
    Missing(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io: {e}"),
            StoreError::Corrupt { what, reason } => write!(f, "corrupt {what}: {reason}"),
            StoreError::Missing(m) => write!(f, "missing: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected), the checksum in WAL frames and
/// snapshot trailers. Slicing-by-8: eight bytes per step through eight
/// tables built at compile time, the tail byte by byte.
pub fn crc32(bytes: &[u8]) -> u32 {
    /// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
    /// of byte `b` followed by `k` zero bytes.
    const TABLES: [[u32; 256]; 8] = {
        let mut t = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[0][i] = c;
            i += 1;
        }
        let mut k = 1;
        while k < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
                i += 1;
            }
            k += 1;
        }
        t
    };
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]);
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xff) as usize]
            ^ TABLES[2][((hi >> 8) & 0xff) as usize]
            ^ TABLES[1][((hi >> 16) & 0xff) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-table-lookup-per-byte loop `crc32` replaced, kept as the
    /// reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn crc32_sliced_equals_bytewise_on_random_buffers() {
        // SplitMix64 bytes; every length 0..=64 (all chunk remainders,
        // several whole chunks) plus random lengths up to 4 KiB, each at a
        // random offset so the 8-byte chunks are not allocation-aligned.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let pool: Vec<u8> = (0..4096 + 8).map(|_| next() as u8).collect();
        let lens = (0..=64).chain((0..200).map(|_| (next() % 4097) as usize));
        for len in lens.collect::<Vec<_>>() {
            let at = (next() % 8) as usize;
            let buf = &pool[at..at + len];
            assert_eq!(crc32(buf), crc32_bytewise(buf), "len {len} at {at}");
        }
    }
}
