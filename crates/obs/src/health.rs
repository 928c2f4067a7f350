//! Liveness watchdogs and the process health model (DESIGN.md §14.2).
//!
//! Two primitives feed a [`Watchdog`]:
//!
//! * [`HealthCell`] — a *busy-since* heartbeat for components that
//!   alternate between parked and working (the event loop around its
//!   poll wait, each pool worker around its current job, the store
//!   around a WAL append). The component stamps [`HealthCell::busy`]
//!   when it starts working and [`HealthCell::idle`] when it parks; a
//!   busy period that outlives the cell's bar is a **stall**. Stalls
//!   are sticky: after the component resumes, the cell keeps reporting
//!   `degraded` for as long as the stall itself lasted (clamped), so a
//!   checker that could not run *during* the stall — the `/healthz`
//!   handler lives on the very loop being watched — still observes it.
//! * [`FreshnessCell`] — a *last-success* heartbeat for periodic work
//!   (the follower's replication tick). The component stamps
//!   [`FreshnessCell::stamp`] on success; health decays with the age
//!   of the newest stamp.
//!
//! A [`Watchdog`] owns a named set of cells and renders per-component
//! verdicts plus an overall state: `ok` < `degraded` < `unhealthy`.
//! Verdict thresholds are per-cell bars; `unhealthy` fires at 4× the
//! bar (`FAIL_FACTOR`). All stamping is one relaxed atomic store and is
//! *not* gated by the metrics kill switch — health must stay accurate
//! while instrumentation is priced out.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A busy period (or freshness age) this many times over the bar flips
/// the verdict from `degraded` to `unhealthy`.
const FAIL_FACTOR: u64 = 4;

/// Longest time a finished stall keeps its component `degraded`.
const MAX_STALL_HOLD: Duration = Duration::from_secs(10);

/// Microseconds since the process-wide health epoch; never 0 (0 is the
/// "idle"/"never" sentinel in the cells).
fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64 + 1
}

/// Component (and overall) health verdict, ordered by severity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Working within its bar.
    Ok,
    /// Stalled past the bar (or recently recovered from a stall).
    Degraded,
    /// Stalled past `FAIL_FACTOR`× the bar, or explicitly failed.
    Unhealthy,
}

impl HealthState {
    /// The wire token (`ok` / `degraded` / `unhealthy`).
    pub fn as_str(self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Degraded => "degraded",
            HealthState::Unhealthy => "unhealthy",
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Busy-since heartbeat cell; see the module docs for the model.
pub struct HealthCell {
    /// Stall bar in µs (settable so a server option can retune it).
    bar_us: AtomicU64,
    /// When the current busy period started; 0 = idle (parked).
    busy_since_us: AtomicU64,
    /// A finished stall keeps the verdict degraded until this instant.
    stall_hold_until_us: AtomicU64,
    /// Duration of the most recent stall (µs).
    last_stall_us: AtomicU64,
    /// Busy periods that exceeded the bar.
    stalls_total: AtomicU64,
    /// Explicit failure ([`HealthCell::note_failure`]) holds the
    /// verdict at unhealthy until this instant.
    fail_until_us: AtomicU64,
}

impl HealthCell {
    /// A new idle cell with the given stall bar.
    pub fn new(bar: Duration) -> Arc<HealthCell> {
        Arc::new(HealthCell {
            bar_us: AtomicU64::new(bar.as_micros().max(1) as u64),
            busy_since_us: AtomicU64::new(0),
            stall_hold_until_us: AtomicU64::new(0),
            last_stall_us: AtomicU64::new(0),
            stalls_total: AtomicU64::new(0),
            fail_until_us: AtomicU64::new(0),
        })
    }

    /// The component started working.
    #[inline]
    pub fn busy(&self) {
        self.busy_since_us.store(now_us(), Ordering::Relaxed);
    }

    /// The component parked; a busy period past the bar is recorded as
    /// a stall and holds the verdict degraded for the stall's own
    /// duration (clamped to `MAX_STALL_HOLD`).
    #[inline]
    pub fn idle(&self) {
        let since = self.busy_since_us.swap(0, Ordering::Relaxed);
        if since == 0 {
            return;
        }
        let now = now_us();
        let dur = now.saturating_sub(since);
        if dur >= self.bar_us.load(Ordering::Relaxed) {
            let hold = dur.min(MAX_STALL_HOLD.as_micros() as u64);
            self.last_stall_us.store(dur, Ordering::Relaxed);
            self.stall_hold_until_us
                .store(now + hold, Ordering::Relaxed);
            self.stalls_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Report an external failure: the verdict is `unhealthy` for
    /// `hold` from now (e.g. the store cell on a journaling error).
    pub fn note_failure(&self, hold: Duration) {
        self.fail_until_us
            .store(now_us() + hold.as_micros() as u64, Ordering::Relaxed);
    }

    /// Busy periods that exceeded the bar so far.
    pub fn stalls(&self) -> u64 {
        self.stalls_total.load(Ordering::Relaxed)
    }

    fn verdict(&self, now: u64) -> (HealthState, String) {
        let bar = self.bar_us.load(Ordering::Relaxed);
        let since = self.busy_since_us.load(Ordering::Relaxed);
        let busy = if since == 0 {
            0
        } else {
            now.saturating_sub(since)
        };
        let stalls = self.stalls_total.load(Ordering::Relaxed);
        let state = if now < self.fail_until_us.load(Ordering::Relaxed)
            || busy >= bar.saturating_mul(FAIL_FACTOR)
        {
            HealthState::Unhealthy
        } else if busy >= bar || now < self.stall_hold_until_us.load(Ordering::Relaxed) {
            HealthState::Degraded
        } else {
            HealthState::Ok
        };
        let mut detail = format!("busy_us={busy} bar_us={bar} stalls={stalls}");
        if state != HealthState::Ok && busy < bar {
            detail.push_str(&format!(
                " last_stall_us={}",
                self.last_stall_us.load(Ordering::Relaxed)
            ));
        }
        (state, detail)
    }
}

/// Last-success heartbeat cell for periodic work; see the module docs.
pub struct FreshnessCell {
    bar_us: AtomicU64,
    /// When the work last succeeded; 0 = never.
    last_ok_us: AtomicU64,
    /// The periodic work was deliberately stopped: report `ok` forever
    /// (a promoted follower's replication tick is *supposed* to be
    /// silent, not late).
    retired: AtomicBool,
}

impl FreshnessCell {
    /// A new never-stamped cell: `degraded` until the first success.
    pub fn new(bar: Duration) -> Arc<FreshnessCell> {
        Arc::new(FreshnessCell {
            bar_us: AtomicU64::new(bar.as_micros().max(1) as u64),
            last_ok_us: AtomicU64::new(0),
            retired: AtomicBool::new(false),
        })
    }

    /// The periodic work has been shut down on purpose; the verdict is
    /// `ok` from here on. Irreversible.
    pub fn retire(&self) {
        self.retired.store(true, Ordering::Relaxed);
    }

    /// The periodic work just succeeded.
    #[inline]
    pub fn stamp(&self) {
        self.last_ok_us.store(now_us(), Ordering::Relaxed);
    }

    /// Age of the newest stamp; `None` if never stamped.
    pub fn age(&self) -> Option<Duration> {
        let last = self.last_ok_us.load(Ordering::Relaxed);
        (last != 0).then(|| Duration::from_micros(now_us().saturating_sub(last)))
    }

    fn verdict(&self, now: u64) -> (HealthState, String) {
        if self.retired.load(Ordering::Relaxed) {
            return (HealthState::Ok, "retired=1".to_string());
        }
        let bar = self.bar_us.load(Ordering::Relaxed);
        let last = self.last_ok_us.load(Ordering::Relaxed);
        if last == 0 {
            return (HealthState::Degraded, format!("age_us=never bar_us={bar}"));
        }
        let age = now.saturating_sub(last);
        let state = if age >= bar.saturating_mul(FAIL_FACTOR) {
            HealthState::Unhealthy
        } else if age >= bar {
            HealthState::Degraded
        } else {
            HealthState::Ok
        };
        (state, format!("age_us={age} bar_us={bar}"))
    }
}

enum Probe {
    Busy(Arc<HealthCell>),
    Fresh(Arc<FreshnessCell>),
}

struct Component {
    name: String,
    probe: Probe,
}

/// A named set of heartbeat cells with one overall verdict.
///
/// Each daemon owns its own watchdog (they are not process-global, so
/// in-process test fleets do not cross-contaminate); the `/healthz`
/// handler, `STAT`, and the diagnostic dump all render through
/// [`Watchdog::check`].
#[derive(Default)]
pub struct Watchdog {
    components: Mutex<Vec<Component>>,
}

impl Watchdog {
    pub fn new() -> Watchdog {
        Watchdog::default()
    }

    /// Register a busy-since component under `name`.
    pub fn register_cell(&self, name: &str, cell: Arc<HealthCell>) {
        self.components
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Component {
                name: name.to_string(),
                probe: Probe::Busy(cell),
            });
    }

    /// Register a freshness component under `name`.
    pub fn register_freshness(&self, name: &str, cell: Arc<FreshnessCell>) {
        self.components
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Component {
                name: name.to_string(),
                probe: Probe::Fresh(cell),
            });
    }

    /// Evaluate every component now.
    pub fn check(&self) -> HealthReport {
        let now = now_us();
        let comps = self.components.lock().unwrap_or_else(|p| p.into_inner());
        let mut overall = HealthState::Ok;
        let components = comps
            .iter()
            .map(|c| {
                let (state, detail) = match &c.probe {
                    Probe::Busy(cell) => cell.verdict(now),
                    Probe::Fresh(cell) => cell.verdict(now),
                };
                overall = overall.max(state);
                ComponentHealth {
                    name: c.name.clone(),
                    state,
                    detail,
                }
            })
            .collect();
        HealthReport {
            overall,
            components,
        }
    }
}

/// One component's verdict at check time.
pub struct ComponentHealth {
    /// Registration name (`loop`, `worker-0`, `store`, `repl`, …).
    pub name: String,
    pub state: HealthState,
    /// `key=value` detail tokens (`busy_us=… bar_us=… stalls=…`).
    pub detail: String,
}

/// A full watchdog evaluation.
pub struct HealthReport {
    /// The worst component state ([`HealthState::Ok`] when empty).
    pub overall: HealthState,
    pub components: Vec<ComponentHealth>,
}

impl HealthReport {
    /// Wire rendering: `status <overall>` then one
    /// `<name> <state> <detail…>` line per component.
    pub fn render(&self) -> String {
        let mut out = format!("status {}\n", self.overall);
        for c in &self.components {
            out.push_str(&format!("{} {} {}\n", c.name, c.state, c.detail));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn idle_cell_is_ok() {
        let cell = HealthCell::new(Duration::from_millis(10));
        let wd = Watchdog::new();
        wd.register_cell("loop", cell.clone());
        let r = wd.check();
        assert_eq!(r.overall, HealthState::Ok);
        assert!(
            r.render().starts_with("status ok\nloop ok "),
            "{}",
            r.render()
        );
    }

    #[test]
    fn busy_past_bar_degrades_then_fails() {
        let cell = HealthCell::new(Duration::from_millis(5));
        let wd = Watchdog::new();
        wd.register_cell("w", cell.clone());
        cell.busy();
        std::thread::sleep(Duration::from_millis(8));
        assert_eq!(wd.check().overall, HealthState::Degraded);
        std::thread::sleep(Duration::from_millis(15)); // past 4× the bar
        assert_eq!(wd.check().overall, HealthState::Unhealthy);
    }

    #[test]
    fn finished_stall_holds_degraded_then_recovers() {
        let cell = HealthCell::new(Duration::from_millis(5));
        let wd = Watchdog::new();
        wd.register_cell("w", cell.clone());
        cell.busy();
        std::thread::sleep(Duration::from_millis(20));
        cell.idle();
        assert_eq!(cell.stalls(), 1);
        // The stall lasted ~20ms, so the hold keeps us degraded…
        assert_eq!(wd.check().overall, HealthState::Degraded);
        // …and expires after roughly the stall's own duration.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(wd.check().overall, HealthState::Ok);
    }

    #[test]
    fn short_busy_periods_never_stall() {
        let cell = HealthCell::new(Duration::from_millis(50));
        cell.busy();
        cell.idle();
        assert_eq!(cell.stalls(), 0);
        let wd = Watchdog::new();
        wd.register_cell("w", cell);
        assert_eq!(wd.check().overall, HealthState::Ok);
    }

    #[test]
    fn explicit_failure_is_unhealthy_until_hold_expires() {
        let cell = HealthCell::new(Duration::from_millis(50));
        cell.note_failure(Duration::from_millis(15));
        let wd = Watchdog::new();
        wd.register_cell("store", cell);
        assert_eq!(wd.check().overall, HealthState::Unhealthy);
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(wd.check().overall, HealthState::Ok);
    }

    #[test]
    fn freshness_decays_with_age() {
        let cell = FreshnessCell::new(Duration::from_millis(10));
        let wd = Watchdog::new();
        wd.register_freshness("repl", cell.clone());
        // Never stamped: degraded, not ok.
        assert_eq!(wd.check().overall, HealthState::Degraded);
        cell.stamp();
        assert_eq!(wd.check().overall, HealthState::Ok);
        assert!(cell.age().unwrap() < Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(wd.check().overall, HealthState::Degraded);
        std::thread::sleep(Duration::from_millis(30)); // past 4× the bar
        assert_eq!(wd.check().overall, HealthState::Unhealthy);
        // Deliberately stopped work is not late work: retired = ok,
        // no matter how stale the last stamp is.
        cell.retire();
        let r = wd.check();
        assert_eq!(r.overall, HealthState::Ok);
        assert!(r.render().contains("repl ok retired=1"), "{}", r.render());
    }

    #[test]
    fn overall_is_worst_component() {
        let ok = HealthCell::new(Duration::from_secs(10));
        let bad = HealthCell::new(Duration::from_micros(1));
        bad.busy();
        std::thread::sleep(Duration::from_millis(2));
        let wd = Watchdog::new();
        wd.register_cell("a", ok);
        wd.register_cell("b", bad.clone());
        let r = wd.check();
        assert_eq!(r.overall, HealthState::Unhealthy);
        assert_eq!(r.components.len(), 2);
        assert_eq!(r.components[0].state, HealthState::Ok);
        assert_eq!(r.components[1].state, HealthState::Unhealthy);
        bad.idle();
    }
}
