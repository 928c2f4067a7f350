//! Follower-side replication engine (DESIGN.md §11).
//!
//! A follower daemon owns one [`ReplEngine`]; the event loop fires
//! [`ReplEngine::run_tick`] on the worker pool at the configured
//! cadence (one tick in flight at a time — the loop timer replaces the
//! dedicated `igp-repl` thread the old core spawned). Each tick polls
//! the primary over the ordinary wire protocol, `REPL SYNC`s any
//! session it does not hold yet (installing the shipped files verbatim
//! and rehydrating them through [`recover_session`] — the *same* path
//! crash recovery takes, proven bit-identical by the replay-equivalence
//! suite), then tails each session's WAL with `REPL FRAME` and applies
//! the decoded records through [`ServiceSession::ingest`]/`flush`.
//! Because the follower's session keeps its own store attached, every
//! applied record is re-journaled locally, so the follower's WAL stays
//! byte-identical to the primary's and promotion is nothing more than
//! flipping the role flag — the on-disk state is already a primary's.
//!
//! Failure handling:
//! * `ERR repl-stale` (the primary rotated its log under our cursor) —
//!   drop the local copy and full-resync; replay determinism makes the
//!   freshly shipped lineage equivalent to the one we were tailing.
//! * apply/decode errors — treated the same way: resync from scratch
//!   rather than serve a fork.
//! * transport errors — retried every poll tick; once the primary has
//!   been unreachable for the configured failover window the follower
//!   promotes itself ([`ServerCtx::promote`]) and starts taking writes.

use crate::client::{ClientError, IgpClient, ReplSyncInfo};
use crate::durable::recover_session;
use crate::server::ServerCtx;
use crate::session::ServiceSession;
use igp_obs::trace::Span;
use igp_store::{decode_frames, install_replica, WalRecord};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Follower tuning, fixed at construction.
pub(crate) struct FollowerConfig {
    /// The primary's address (`host:port`).
    pub primary: String,
    /// Auto-promote after the primary has been unreachable this long;
    /// `None` = only explicit `PROMOTE`.
    pub failover: Option<Duration>,
}

/// Minimum spacing of repeated `primary unreachable` warnings: a
/// follower ticks every few tens of milliseconds, and an outage would
/// otherwise log one line per failed tick.
const DOWN_LOG_EVERY: Duration = Duration::from_secs(1);

/// Rate limiter for the failed-tick warning. The ok→down transition is
/// always logged; repeats at most once per [`DOWN_LOG_EVERY`], carrying
/// the number of failures skipped in between; the first success after
/// an outage is reported once. The clock is the caller's `now`.
#[derive(Default)]
struct DownLog {
    /// When the current outage was last logged; `None` while up.
    last_logged: Option<Instant>,
    suppressed: u64,
}

impl DownLog {
    /// A tick failed at `now`. `Some(n)` = log it, with `n` failures
    /// suppressed since the previous line; `None` = stay quiet.
    fn failed(&mut self, now: Instant) -> Option<u64> {
        match self.last_logged {
            Some(t) if now.duration_since(t) < DOWN_LOG_EVERY => {
                self.suppressed += 1;
                None
            }
            _ => {
                self.last_logged = Some(now);
                Some(std::mem::take(&mut self.suppressed))
            }
        }
    }

    /// A tick succeeded; true when that ends an outage.
    fn recovered(&mut self) -> bool {
        self.suppressed = 0;
        self.last_logged.take().is_some()
    }
}

/// Where the follower stands in one session's WAL: the snapshot
/// sequence it is tailing and the absolute byte offset of the next
/// frame to fetch.
struct Cursor {
    seq: u64,
    offset: u64,
}

/// The follower's replication state machine. The event loop holds one
/// behind a mutex and schedules [`ReplEngine::run_tick`] on the worker
/// pool; because the loop keeps at most one tick in flight, the mutex
/// is uncontended — it exists so the engine can live in a pool closure.
pub(crate) struct ReplEngine {
    cfg: FollowerConfig,
    cursors: HashMap<String, Cursor>,
    /// Kept across ticks; dropped (to force a reconnect) on any
    /// transport error.
    conn: Option<IgpClient>,
    /// Last successful tick, for the failover window.
    last_ok: Instant,
    down_log: DownLog,
}

/// True once replication must cease: server shutdown, explicit stop,
/// or promotion (we are no longer a follower).
fn stopped(ctx: &ServerCtx, server_stop: &AtomicBool) -> bool {
    server_stop.load(Ordering::SeqCst) || ctx.repl_stop.load(Ordering::SeqCst) || !ctx.is_follower()
}

impl ReplEngine {
    pub(crate) fn new(cfg: FollowerConfig) -> ReplEngine {
        ReplEngine {
            cfg,
            cursors: HashMap::new(),
            conn: None,
            last_ok: Instant::now(),
            down_log: DownLog::default(),
        }
    }

    /// One replication tick. Returns `false` when replication is over
    /// (stopped, promoted, or failover fired) and must not be
    /// rescheduled; `true` asks the loop to fire again after its
    /// interval.
    pub(crate) fn run_tick(&mut self, ctx: &Arc<ServerCtx>, server_stop: &AtomicBool) -> bool {
        if stopped(ctx, server_stop) {
            return false;
        }
        match tick(
            ctx,
            server_stop,
            &self.cfg,
            &mut self.conn,
            &mut self.cursors,
        ) {
            Ok(()) => {
                if self.down_log.recovered() {
                    igp_obs::info!(
                        target: "repl", "primary reachable again";
                        primary = self.cfg.primary.as_str(),
                        down_ms = self.last_ok.elapsed().as_millis() as u64,
                    );
                }
                self.last_ok = Instant::now();
                true
            }
            Err(e) => {
                self.conn = None; // reconnect next tick
                let down = self.last_ok.elapsed();
                if let Some(suppressed) = self.down_log.failed(Instant::now()) {
                    igp_obs::warn!(
                        target: "repl", "primary unreachable";
                        primary = self.cfg.primary.as_str(), detail = e.to_string(),
                        down_ms = down.as_millis() as u64, suppressed = suppressed,
                    );
                }
                if self.cfg.failover.is_some_and(|w| down >= w) {
                    igp_obs::warn!(
                        target: "repl", "heartbeat window elapsed; promoting";
                        primary = self.cfg.primary.as_str(), down_ms = down.as_millis() as u64,
                    );
                    ctx.promote();
                    return false;
                }
                true
            }
        }
    }
}

/// One poll of the primary. A returned error means the primary was
/// unreachable (transport/protocol failure) and counts against the
/// failover window; per-session server errors are handled inside.
fn tick(
    ctx: &Arc<ServerCtx>,
    server_stop: &AtomicBool,
    cfg: &FollowerConfig,
    conn: &mut Option<IgpClient>,
    cursors: &mut HashMap<String, Cursor>,
) -> Result<(), ClientError> {
    if conn.is_none() {
        let c = IgpClient::connect(&*cfg.primary).map_err(ClientError::Io)?;
        // A frozen (but not dead) primary must not wedge the loop past
        // the heartbeat window.
        let _ = c.set_read_timeout(Some(Duration::from_secs(5)));
        *conn = Some(c);
        igp_obs::info!(target: "repl", "connected to primary"; primary = cfg.primary.as_str());
    }
    let cli = conn.as_mut().expect("connection just established");
    cli.ping()?; // heartbeat even when there are no sessions
    let sids: Vec<String> = cli
        .list()?
        .into_iter()
        // Each sid names a directory under our data_dir: never trust one
        // the wire grammar would refuse (an older primary admitted `..`).
        .filter(|sid| crate::protocol::check_sid(sid).is_ok())
        .collect();
    // Sessions the primary closed (or never had) disappear here too —
    // a follower must not serve reads for state the primary deleted.
    for sid in ctx.registry.list() {
        if !sids.contains(&sid) {
            cursors.remove(&sid);
            drop_local(ctx, &sid);
            igp_obs::info!(target: "repl", "dropped session absent on primary"; sid = sid);
        }
    }
    let mut lag_total: i64 = 0;
    for sid in &sids {
        if stopped(ctx, server_stop) {
            return Ok(());
        }
        let r = if cursors.contains_key(sid) {
            poll_session(ctx, cli, sid, cursors, &mut lag_total)
        } else {
            sync_session(ctx, cli, sid, cursors)
        };
        match r {
            Ok(()) => {}
            Err(ClientError::Server { kind, detail }) if kind == "repl-stale" => {
                // The primary rotated its log under our cursor; the
                // shipped snapshot lineage replaces ours wholesale.
                igp_obs::info!(target: "repl", "cursor stale; resyncing"; sid = sid, detail = detail);
                cursors.remove(sid);
                sync_session(ctx, cli, sid, cursors)?;
            }
            Err(ClientError::Server { kind, detail }) => {
                // Session-scoped server error (e.g. poisoned on the
                // primary): log and retry next tick.
                igp_obs::warn!(
                    target: "repl", "session poll failed";
                    sid = sid, kind = kind, detail = detail,
                );
            }
            Err(e) => return Err(e), // transport: the whole tick failed
        }
    }
    let m = crate::obs::metrics();
    m.repl_lag_bytes.set(lag_total);
    // Successful tick: stamp the watchdog's freshness cell and refresh
    // the time-domain lag gauges (repl_lag_ms is "how long have we been
    // behind", not a byte count — see DESIGN.md §14.2).
    if let Some(rh) = &ctx.health.repl {
        let lag_ms = rh.note_tick(lag_total.max(0) as u64);
        m.repl_lag_ms.set(lag_ms as i64);
        if let Some(age) = rh.heartbeat_age_ms() {
            m.repl_heartbeat_age_ms.set(age as i64);
        }
    }
    Ok(())
}

/// Bootstrap (or re-bootstrap) one session from a full `REPL SYNC`.
fn sync_session(
    ctx: &Arc<ServerCtx>,
    cli: &mut IgpClient,
    sid: &str,
    cursors: &mut HashMap<String, Cursor>,
) -> Result<(), ClientError> {
    let sync = cli.repl_sync(sid)?;
    match install_and_register(ctx, sid, &sync) {
        Ok(()) => {
            crate::obs::metrics().repl_syncs_applied_total.inc();
            igp_obs::info!(
                target: "repl", "session synced";
                sid = sid, seq = sync.seq, wal_end = sync.wal_end,
            );
            cursors.insert(
                sid.to_string(),
                Cursor {
                    seq: sync.seq,
                    offset: sync.wal_end,
                },
            );
        }
        Err(e) => {
            // Leave no half-installed replica behind; retried next tick.
            igp_obs::warn!(target: "repl", "sync install failed"; sid = sid, detail = e);
            drop_local(ctx, sid);
        }
    }
    Ok(())
}

/// Install the shipped files and rehydrate through the recovery path.
fn install_and_register(ctx: &ServerCtx, sid: &str, sync: &ReplSyncInfo) -> Result<(), String> {
    let data_dir = ctx
        .data_dir
        .as_ref()
        .ok_or("follower has no data_dir (unreachable: serve() enforces it)")?;
    // Unregister any previous local copy first so no reader observes a
    // session whose directory is being replaced underneath it.
    let _ = ctx.registry.close(sid);
    let dir = data_dir.join(sid);
    install_replica(&dir, sync.seq, &sync.meta, &sync.snapshot, &sync.wal)
        .map_err(|e| e.to_string())?;
    let rec = recover_session(&dir, ctx.snapshot_policy).map_err(|e| e.to_string())?;
    if let Some(w) = rec.warning {
        // The primary ships only clean state; a repair here means the
        // transfer itself is suspect.
        return Err(format!("synced state needed repair: {w}"));
    }
    if rec.sid != sid {
        return Err(format!(
            "shipped meta names `{}`, expected `{sid}`",
            rec.sid
        ));
    }
    ctx.registry
        .open(sid, rec.session)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Tail one session: fetch the frames past our cursor and apply them.
fn poll_session(
    ctx: &Arc<ServerCtx>,
    cli: &mut IgpClient,
    sid: &str,
    cursors: &mut HashMap<String, Cursor>,
    lag_total: &mut i64,
) -> Result<(), ClientError> {
    let (seq, offset) = {
        let c = &cursors[sid];
        (c.seq, c.offset)
    };
    let batch = cli.repl_frames(sid, seq, offset)?;
    // Lag observed at poll time: how far the primary's WAL had run
    // ahead of this cursor.
    *lag_total += batch.to.saturating_sub(batch.from) as i64;
    if batch.bytes.is_empty() {
        return Ok(());
    }
    let applied = apply_frames(ctx, sid, &batch.bytes, batch.trace);
    match applied {
        Ok(true) => {
            if let Some(c) = cursors.get_mut(sid) {
                c.offset = batch.to;
            }
        }
        Ok(false) => {} // stopped mid-batch; cursor untouched
        Err(e) => {
            // Never serve a fork: drop the local copy and resync.
            igp_obs::warn!(target: "repl", "frame apply failed; resyncing"; sid = sid, detail = e);
            cursors.remove(sid);
            drop_local(ctx, sid);
        }
    }
    Ok(())
}

/// Decode and apply one shipped frame batch. `Ok(false)` means the
/// loop was stopped (shutdown/promotion) before the batch finished —
/// the cursor must not advance.
///
/// `trace` is the primary trace id the `REPL FRAME` reply carried;
/// when present the whole batch is applied under an adopted root span
/// (`repl:apply`), so a `TRACE DUMP` on the follower shows the same
/// trace id as the primary request that journaled the frames.
fn apply_frames(
    ctx: &Arc<ServerCtx>,
    sid: &str,
    bytes: &[u8],
    trace: Option<u64>,
) -> Result<bool, String> {
    let root = match trace {
        Some(t) => Span::adopted_root(t, "repl:apply"),
        None => Span::disabled(),
    };
    let _ambient = root.enter();
    let _lctx = match trace {
        Some(t) => igp_obs::set_log_ctx(format_args!("sid={sid} trace={t:#018x}")),
        None => igp_obs::set_log_ctx(format_args!("sid={sid}")),
    };
    let records = decode_frames(bytes).map_err(|e| e.to_string())?;
    let entry = ctx.registry.get(sid).map_err(|e| e.to_string())?;
    let m = crate::obs::metrics();
    for rec in &records {
        let mut s = entry
            .lock()
            .map_err(|_| "session lock poisoned".to_string())?;
        // Checked under the session's lock: a promotion flips the flag
        // *before* the first local write can acquire this lock, so no
        // replicated frame lands on top of a post-promotion write.
        if !ctx.is_follower() || ctx.repl_stop.load(Ordering::SeqCst) {
            return Ok(false);
        }
        let t0 = Instant::now();
        // Entered so the re-journaling `wal_append` span nests here.
        let frame_span = root.child("frame_apply");
        let _frame_ambient = frame_span.enter();
        apply_one(&mut s, rec).map_err(|e| e.to_string())?;
        m.repl_apply_us.observe_duration(t0.elapsed());
        m.repl_frames_applied_total.inc();
    }
    Ok(true)
}

/// Apply one WAL record exactly as recovery replay would — but through
/// the journaling entry points, so the local store re-logs it and the
/// follower's WAL stays byte-identical to the primary's. The primary
/// already admission-controlled the delta; the follower mirrors its
/// queue without re-checking the cap.
fn apply_one(s: &mut ServiceSession, rec: &WalRecord) -> Result<(), crate::ServiceError> {
    match rec {
        WalRecord::Delta(d) => s.ingest(d).map(|_| ()),
        WalRecord::Flush => s.flush().map(|_| ()),
    }
}

/// Unregister a session and delete its replica directory.
fn drop_local(ctx: &ServerCtx, sid: &str) {
    if let Ok(entry) = ctx.registry.close(sid) {
        if let Ok(mut s) = entry.lock() {
            // Stop any in-flight journaling before the files go away.
            let _ = s.detach_store();
        }
    }
    if let Some(dd) = &ctx.data_dir {
        let _ = std::fs::remove_dir_all(dd.join(sid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn down_log_speaks_on_transitions_and_once_per_interval() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut log = DownLog::default();
        assert!(!log.recovered(), "never down: nothing to report");

        // ok → down is logged at once; 25 ms ticks inside the interval are not.
        assert_eq!(log.failed(at(0)), Some(0));
        for tick in 1..40 {
            assert_eq!(log.failed(at(25 * tick)), None, "tick {tick}");
        }
        // One interval on: one line, carrying what was skipped.
        assert_eq!(log.failed(at(1000)), Some(39));
        assert_eq!(log.failed(at(1500)), None);
        assert_eq!(log.failed(at(2000)), Some(1));

        // Recovery is reported exactly once and rearms the transition.
        assert!(log.recovered());
        assert!(!log.recovered());
        assert_eq!(log.failed(at(2010)), Some(0));
    }
}
