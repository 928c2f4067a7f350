//! One tenant of the daemon: an [`IgpSession`] plus its repartition
//! policy, fed by the delta queue and flushed when the policy fires —
//! and, in `--data-dir` mode, journaled through an
//! [`igp_store::SessionStore`] so a crash recovers it bit-identically.
//!
//! `ingest`/`flush` are also the replication apply path (DESIGN.md
//! §11): a follower feeds decoded WAL frames through them with its own
//! store attached, so every applied record is re-journaled locally and
//! the replica's disk stays byte-identical to the primary's.

use crate::policy::{PolicyView, RepartitionPolicy};
use crate::ServiceError;
use igp_core::session::{IgpSession, SessionSeed, StepSummary};
use igp_core::IgpConfig;
use igp_graph::{CsrGraph, GraphDelta, PartId, Partitioning};
use igp_spectral::{recursive_spectral_bisection, RsbOptions};
use igp_store::store::SessionState;
use igp_store::{SessionStore, SnapshotPolicy, StoreError, StoreMeta, WalRecord};
use std::fmt;
use std::path::Path;
use std::str::FromStr;

/// How a fresh session computes its initial partitioning.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InitPartition {
    /// Recursive spectral bisection (the paper's from-scratch baseline;
    /// deterministic — fixed Lanczos start-vector seed).
    #[default]
    Rsb,
    /// Round-robin assignment (fast, low quality; useful in tests).
    RoundRobin,
}

impl fmt::Display for InitPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            InitPartition::Rsb => "rsb",
            InitPartition::RoundRobin => "rr",
        })
    }
}

impl FromStr for InitPartition {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "rsb" => Ok(InitPartition::Rsb),
            "rr" => Ok(InitPartition::RoundRobin),
            other => Err(format!("unknown init `{other}` (rsb|rr)")),
        }
    }
}

/// Per-session configuration carried by the `OPEN` request.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionConfig {
    /// Partition count `P`.
    pub parts: usize,
    /// IGPR (LP refinement) vs plain IGP.
    pub refined: bool,
    /// Repartition trigger.
    pub policy: RepartitionPolicy,
    /// Initial partitioning method.
    pub init: InitPartition,
}

impl SessionConfig {
    /// Defaults for `P` partitions: IGPR, flush every delta.
    pub fn new(parts: usize) -> Self {
        SessionConfig {
            parts,
            refined: true,
            policy: RepartitionPolicy::default(),
            init: InitPartition::default(),
        }
    }
}

/// Result of feeding one delta to a session.
#[derive(Clone, Debug)]
pub enum Ingest {
    /// The policy held back: the delta joined the pending batch.
    Queued {
        /// Deltas now pending.
        pending: usize,
    },
    /// The policy fired: the pending batch (this delta included) was
    /// coalesced and applied as one repartition step.
    Stepped {
        /// The step's summary.
        summary: StepSummary,
        /// How many queued deltas the step coalesced.
        coalesced: usize,
    },
}

/// A registered session: the solver-loop state machine the daemon
/// drives over the wire. Also the single-threaded **replay vehicle**:
/// feeding the same graph, config and delta stream through
/// [`ServiceSession::ingest`] reproduces the daemon's partitions
/// bit-for-bit (asserted by `tests/service_e2e.rs`).
pub struct ServiceSession {
    session: IgpSession,
    cfg: SessionConfig,
    deltas_received: usize,
    /// Total vertex weight of the current (flushed) graph, cached so
    /// per-delta policy evaluation avoids an O(n) rescan.
    total_weight: u64,
    /// The durability store in `--data-dir` mode; `None` for
    /// memory-only sessions, and detached (with a one-time error to the
    /// client) if the storage layer ever fails.
    store: Option<SessionStore>,
    /// Wall time (µs) of this session's repartition flushes — private
    /// (unregistered) so `STAT` can report a per-tenant latency subset
    /// next to the global `igp_core_repartition_us` family. Timing
    /// only: never influences the repartition result, so replay stays
    /// bit-identical.
    repart_us: igp_obs::Histogram,
}

/// Borrow the persistable state for the store (a free function so the
/// store field can be borrowed mutably alongside it).
fn persist_state(session: &IgpSession, deltas_received: usize) -> SessionState<'_> {
    SessionState {
        graph: session.graph(),
        part: session.partitioning(),
        base_of_current: session.base_of_current(),
        steps: session.steps() as u64,
        total_moved: session.total_moved(),
        deltas_received: deltas_received as u64,
        needs_scratch: session.needs_scratch(),
    }
}

impl ServiceSession {
    /// Open a session on `graph` (computes the initial partitioning).
    pub fn open(graph: CsrGraph, cfg: SessionConfig) -> Self {
        assert!(cfg.parts >= 1, "need at least one partition");
        let part = match cfg.init {
            InitPartition::Rsb => {
                recursive_spectral_bisection(&graph, cfg.parts, RsbOptions::default())
            }
            InitPartition::RoundRobin => Partitioning::round_robin(&graph, cfg.parts),
        };
        let total_weight = graph.total_vertex_weight();
        let session = IgpSession::new(graph, part, IgpConfig::new(cfg.parts), cfg.refined);
        ServiceSession {
            session,
            cfg,
            deltas_received: 0,
            total_weight,
            store: None,
            repart_us: igp_obs::Histogram::new(),
        }
    }

    /// Open a *durable* session: like [`ServiceSession::open`], plus a
    /// fresh [`SessionStore`] at `dir` holding the config line, the
    /// initial snapshot (graph + initial partitioning) and an empty
    /// WAL. Fails if `cfg` cannot be expressed by the wire grammar —
    /// recovery reconstructs the config from its encoded line, so a
    /// lossy encoding would silently diverge after a restart.
    pub fn open_durable(
        graph: CsrGraph,
        cfg: SessionConfig,
        dir: &Path,
        sid: &str,
        snapshot_policy: SnapshotPolicy,
    ) -> Result<Self, ServiceError> {
        let mut s = Self::open(graph, cfg);
        s.make_durable(dir, sid, snapshot_policy)?;
        Ok(s)
    }

    /// Attach a fresh store to a running session: writes the config
    /// line and a snapshot of the session's *current* state, then
    /// journals everything from here on. (The daemon registers a
    /// session first and makes it durable under its lock, so a
    /// duplicate-`OPEN` loser can never touch the winner's directory.)
    pub fn make_durable(
        &mut self,
        dir: &Path,
        sid: &str,
        snapshot_policy: SnapshotPolicy,
    ) -> Result<(), ServiceError> {
        if self.store.is_some() {
            // Typed, not an assert: a panic here would poison the
            // session's mutex for every other connection.
            return Err(ServiceError::Storage(
                "session is already durable".to_string(),
            ));
        }
        crate::protocol::check_wire_representable(&self.cfg).map_err(ServiceError::Storage)?;
        // The initial snapshot only captures flushed state; deltas that
        // raced in between registration and this call (another
        // connection hitting the sid) are folded in first so nothing
        // escapes the journal.
        if self.session.pending_deltas() > 0 {
            self.flush_replay();
        }
        let store = SessionStore::create(
            dir,
            StoreMeta {
                sid: sid.to_string(),
                config_line: crate::protocol::encode_open_opts(&self.cfg),
            },
            snapshot_policy,
            persist_state(&self.session, self.deltas_received),
        )
        .map_err(|e| ServiceError::Storage(e.to_string()))?;
        self.store = Some(store);
        Ok(())
    }

    /// Rebuild a session from a recovery seed (see [`crate::durable`]):
    /// like [`ServiceSession::open`], but the graph, partitioning,
    /// identity map and counters come from the snapshot instead of a
    /// fresh initial partitioning.
    pub(crate) fn rehydrate(cfg: SessionConfig, seed: SessionSeed, deltas_received: usize) -> Self {
        let total_weight = seed.graph.total_vertex_weight();
        let session = IgpSession::rehydrate(seed, IgpConfig::new(cfg.parts), cfg.refined);
        ServiceSession {
            session,
            cfg,
            deltas_received,
            total_weight,
            store: None,
            repart_us: igp_obs::Histogram::new(),
        }
    }

    /// Queue one delta; flush if the policy fires. The delta addresses
    /// the session's *virtual* current graph (current graph + already
    /// queued deltas), exactly as a client streaming edits sees it.
    ///
    /// In durable mode the accepted delta is journaled to the WAL
    /// before this returns (i.e. before the daemon acks), and a flushed
    /// step may fold the log into a fresh snapshot per the store's
    /// [`SnapshotPolicy`].
    pub fn ingest(&mut self, delta: &GraphDelta) -> Result<Ingest, ServiceError> {
        let r = self.ingest_replay(delta).map_err(ServiceError::Delta)?;
        let stepped = matches!(r, Ingest::Stepped { .. });
        self.durable_event(Some(delta), false, stepped)?;
        Ok(r)
    }

    /// The pure (journal-free) ingest path: exactly what recovery
    /// replays, and what [`ServiceSession::ingest`] wraps.
    pub(crate) fn ingest_replay(
        &mut self,
        delta: &GraphDelta,
    ) -> Result<Ingest, igp_graph::CoalesceError> {
        let pending = self.session.queue_delta(delta)?;
        self.deltas_received += 1;
        if self.cfg.policy.should_flush(&self.policy_view()) {
            let coalesced = pending;
            // Inert during recovery replay (no ambient trace there).
            let _sp = igp_obs::trace::Span::ambient("repartition");
            match self.repart_us.time(|| self.session.flush()) {
                Some(summary) => {
                    self.total_weight = self.session.graph().total_vertex_weight();
                    Ok(Ingest::Stepped { summary, coalesced })
                }
                // The batch cancelled out to a no-op: nothing pending
                // any more, no step recorded.
                None => Ok(Ingest::Queued { pending: 0 }),
            }
        } else {
            Ok(Ingest::Queued { pending })
        }
    }

    /// Force a repartition of whatever is pending (the protocol's
    /// `FLUSH`). Returns `(summary, coalesced)` or `None` if there was
    /// nothing to do. An explicit flush is journaled (it is an external
    /// event replay cannot re-derive from the delta stream).
    pub fn flush(&mut self) -> Result<Option<(StepSummary, usize)>, ServiceError> {
        if self.session.pending_deltas() == 0 {
            return Ok(None);
        }
        let stepped = self.flush_replay();
        self.durable_event(None, true, stepped.is_some())?;
        Ok(stepped)
    }

    /// The pure (journal-free) flush path used by recovery replay.
    pub(crate) fn flush_replay(&mut self) -> Option<(StepSummary, usize)> {
        let coalesced = self.session.pending_deltas();
        // Inert during recovery replay (no ambient trace there).
        let _sp = igp_obs::trace::Span::ambient("repartition");
        let stepped = self
            .repart_us
            .time(|| self.session.flush())
            .map(|s| (s, coalesced));
        if stepped.is_some() {
            self.total_weight = self.session.graph().total_vertex_weight();
        }
        stepped
    }

    /// Replay one journaled record (recovery only — nothing is
    /// re-journaled).
    pub(crate) fn replay_record(&mut self, rec: &WalRecord) -> Result<(), String> {
        match rec {
            WalRecord::Delta(d) => self
                .ingest_replay(d)
                .map(|_| ())
                .map_err(|e| format!("journaled delta rejected on replay: {e}")),
            WalRecord::Flush => {
                self.flush_replay();
                Ok(())
            }
        }
    }

    /// Journal the event and evaluate the snapshot policy. On a storage
    /// failure the store is detached — the session stays usable,
    /// memory-only — and the error is surfaced once.
    fn durable_event(
        &mut self,
        delta: Option<&GraphDelta>,
        explicit_flush: bool,
        stepped: bool,
    ) -> Result<(), ServiceError> {
        if self.store.is_none() {
            return Ok(());
        }
        let state = persist_state(&self.session, self.deltas_received);
        let store = self.store.as_mut().expect("checked above");
        let result = (|| -> Result<(), StoreError> {
            if let Some(d) = delta {
                store.journal_delta(d)?;
            }
            if explicit_flush {
                store.journal_flush()?;
            }
            // Snapshots only at step boundaries: the queue is empty
            // there, so snapshot + WAL tail fully describe the session.
            if stepped {
                store.maybe_snapshot(state)?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            self.store = None;
            // NB the request itself already succeeded in memory — the
            // `storage` kind plus this wording is the client's contract
            // that it must NOT retry the delta (DESIGN.md §9.2).
            return Err(ServiceError::Storage(format!(
                "durability lost; the request WAS applied in memory (do not retry) \
                 and the session continues memory-only: {e}"
            )));
        }
        Ok(())
    }

    /// Attach a recovered store (recovery glue in [`crate::durable`]).
    pub(crate) fn attach_store(&mut self, store: SessionStore) {
        self.store = Some(store);
    }

    /// Detach and return the store (used at `CLOSE` so the directory
    /// can be deleted after the session is unregistered).
    pub fn detach_store(&mut self) -> Option<SessionStore> {
        self.store.take()
    }

    /// The durability store, if this session is durable.
    pub fn store(&self) -> Option<&SessionStore> {
        self.store.as_ref()
    }

    fn policy_view(&self) -> PolicyView {
        PolicyView {
            n_current: self.session.graph().num_vertices(),
            // Cached: the graph only changes at flush, so per-delta
            // ingest stays O(|edit|), not O(n).
            total_weight: self.total_weight,
            parts: self.cfg.parts,
            dirt: self.session.pending().map(|c| c.dirt()).unwrap_or_default(),
        }
    }

    /// The configuration the session was opened with.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The underlying solver-loop session.
    pub fn inner(&self) -> &IgpSession {
        &self.session
    }

    /// Current assignment (vertex → partition), in current-graph id
    /// order.
    pub fn assignment(&self) -> &[PartId] {
        self.session.partitioning().assignment()
    }

    /// Deltas received over the session's lifetime.
    pub fn deltas_received(&self) -> usize {
        self.deltas_received
    }

    /// `(p50, p99, max)` of this session's repartition wall time in
    /// microseconds; `None` until the first repartition (or while the
    /// igp-obs kill switch is off). Lifetime of this process only — a
    /// recovered session starts a fresh histogram.
    pub fn repart_latency_us(&self) -> Option<(u64, u64, u64)> {
        (self.repart_us.count() > 0).then(|| {
            (
                self.repart_us.quantile(0.5),
                self.repart_us.quantile(0.99),
                self.repart_us.max(),
            )
        })
    }

    /// Repartition steps taken so far (continues across a crash +
    /// recovery).
    pub fn steps(&self) -> usize {
        self.session.steps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RepartitionPolicy;
    use igp_graph::generators;

    fn growth(g: &CsrGraph, seed: u64) -> GraphDelta {
        generators::localized_growth_delta(g, 0, 4, seed)
    }

    #[test]
    fn every_k_policy_batches_k_deltas_per_step() {
        let g = generators::grid(8, 8);
        let mut cfg = SessionConfig::new(4);
        cfg.policy = RepartitionPolicy::EveryK(3);
        cfg.init = InitPartition::RoundRobin;
        let mut s = ServiceSession::open(g.clone(), cfg);
        // Mirror the virtual graph like a client would.
        let mut mirror = g;
        let mut steps = 0;
        for i in 0..6u64 {
            let d = growth(&mirror, i);
            mirror = d.apply(&mirror).new_graph().clone();
            match s.ingest(&d).unwrap() {
                Ingest::Queued { pending } => assert!(pending < 3),
                Ingest::Stepped { coalesced, .. } => {
                    assert_eq!(coalesced, 3);
                    steps += 1;
                }
            }
        }
        assert_eq!(steps, 2);
        assert_eq!(s.steps(), 2);
        assert_eq!(s.deltas_received(), 6);
        assert_eq!(s.inner().graph(), &mirror);
        // Forced flush with nothing pending is a no-op.
        assert!(s.flush().unwrap().is_none());
    }

    #[test]
    fn forced_flush_applies_partial_batch() {
        let g = generators::grid(6, 6);
        let mut cfg = SessionConfig::new(2);
        cfg.policy = RepartitionPolicy::EveryK(10);
        cfg.init = InitPartition::RoundRobin;
        let mut s = ServiceSession::open(g.clone(), cfg);
        let d = growth(&g, 0);
        assert!(matches!(
            s.ingest(&d).unwrap(),
            Ingest::Queued { pending: 1 }
        ));
        let (summary, coalesced) = s.flush().unwrap().expect("pending batch");
        assert_eq!(coalesced, 1);
        assert_eq!(summary.num_vertices, 40);
        s.inner()
            .partitioning()
            .validate(s.inner().graph())
            .unwrap();
    }

    #[test]
    fn boundary_rejects_malformed_delta_without_state_damage() {
        let g = generators::grid(4, 4);
        let mut s = ServiceSession::open(g, SessionConfig::new(2));
        let bad = GraphDelta {
            remove_vertices: vec![999],
            ..Default::default()
        };
        assert!(s.ingest(&bad).is_err());
        assert_eq!(s.deltas_received(), 0);
        // Session still serves valid traffic.
        let d = growth(s.inner().graph(), 1);
        assert!(matches!(s.ingest(&d).unwrap(), Ingest::Stepped { .. }));
    }

    /// Regression: a delta that names a non-existent base edge (or
    /// re-adds an existing one) is rejected at ingest with a typed
    /// error — it must never reach the flush and panic there.
    #[test]
    fn base_edge_lies_rejected_at_ingest_not_flush() {
        let g = generators::grid(4, 4);
        let mut s = ServiceSession::open(g, SessionConfig::new(2));
        // {0,5} does not exist in a 4x4 grid (0's neighbours: 1 and 4).
        let missing = GraphDelta {
            remove_edges: vec![(0, 5)],
            ..Default::default()
        };
        assert!(s.ingest(&missing).is_err());
        // {0,1} already exists.
        let duplicate = GraphDelta {
            add_edges: vec![(0, 1, 1)],
            ..Default::default()
        };
        assert!(s.ingest(&duplicate).is_err());
        // Nothing was queued; the session still steps on valid input.
        assert_eq!(s.inner().pending_deltas(), 0);
        let d = generators::localized_growth_delta(s.inner().graph(), 0, 3, 1);
        assert!(matches!(s.ingest(&d).unwrap(), Ingest::Stepped { .. }));
    }

    #[test]
    fn rsb_init_is_deterministic() {
        let g = generators::grid(8, 8);
        let a = ServiceSession::open(g.clone(), SessionConfig::new(4));
        let b = ServiceSession::open(g, SessionConfig::new(4));
        assert_eq!(a.assignment(), b.assignment());
    }
}
