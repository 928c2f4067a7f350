//! [`WorkerPool`]: a small fixed pool for CPU-heavy jobs off the event loop.
//!
//! Built on `Mutex<VecDeque> + Condvar` rather than `std::sync::mpsc`:
//! that channel is single-consumer, and a pool needs N consumers on one
//! queue.
//!
//! The pool itself carries no observability state: jobs are opaque
//! closures, so callers that need per-request context on the worker
//! (trace ids, log prefixes, enqueue timestamps) capture it in the
//! closure and re-establish it as the job's first act. `igp-service`
//! relies on this to propagate request traces loop → worker without
//! the pool growing an `igp-obs` dependency. The one exception is
//! per-*worker* (not per-job) liveness: a [`PoolHook`] installed at
//! construction is told which worker index goes busy/idle around each
//! job — something a job closure cannot know — so the service's stall
//! watchdog can stamp one heartbeat cell per worker.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Observes worker liveness transitions. `busy` fires on the worker
/// thread immediately before each job, `idle` immediately after it
/// (panicking jobs included — the pool's `catch_unwind` sits inside
/// the pair). Implementations must be cheap and non-blocking; they run
/// on the hot dispatch path of every job.
pub trait PoolHook: Send + Sync {
    /// Worker `worker` picked up a job.
    fn busy(&self, worker: usize);
    /// Worker `worker` finished its job and is parked again.
    fn idle(&self, worker: usize);
}

struct State {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// Fixed-size worker pool. Jobs run FIFO; a panicking job is contained
/// (`catch_unwind`) so the worker survives — poisoned per-session locks are
/// the caller's typed-error concern, not the pool's.
///
/// [`WorkerPool::join`] drains every queued job before the workers exit, so
/// "enqueue shutdown, then join" guarantees all prior work completed.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads (minimum 1) named `{name}-{i}`.
    pub fn new(workers: usize, name: &str) -> WorkerPool {
        WorkerPool::with_hook(workers, name, None)
    }

    /// Like [`WorkerPool::new`], with an optional liveness hook called
    /// around every job (see [`PoolHook`]).
    pub fn with_hook(workers: usize, name: &str, hook: Option<Arc<dyn PoolHook>>) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let hook = hook.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&shared, i, hook.as_deref()))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Queue a job. Returns `false` (job dropped) if `join` already ran.
    pub fn execute(&self, job: Job) -> bool {
        let mut state = lock(&self.shared.state);
        if state.shutdown {
            return false;
        }
        state.jobs.push_back(job);
        drop(state);
        self.shared.cv.notify_one();
        true
    }

    /// Jobs currently queued (not those mid-execution).
    pub fn queued(&self) -> usize {
        lock(&self.shared.state).jobs.len()
    }

    /// Drain the queue, stop the workers, and join them.
    pub fn join(mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Same semantics as `join` for the path where the pool is dropped
        // without an explicit join (e.g. the loop thread unwinding).
        lock(&self.shared.state).shutdown = true;
        self.shared.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn lock(m: &Mutex<State>) -> std::sync::MutexGuard<'_, State> {
    // State holds no invariants a panicked job could have broken mid-update
    // (jobs run outside the lock), so poison is safe to clear.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn worker_loop(shared: &Shared, worker: usize, hook: Option<&dyn PoolHook>) {
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.cv.wait(state).unwrap_or_else(|p| p.into_inner());
            }
        };
        if let Some(h) = hook {
            h.busy(worker);
        }
        let _ = catch_unwind(AssertUnwindSafe(job));
        if let Some(h) = hook {
            h.idle(worker);
        }
    }
}
