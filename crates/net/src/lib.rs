//! igp-net — minimal mio-style readiness substrate for the serving daemon.
//!
//! Three pieces, all std-only (syscalls bound directly in the private
//! `sys` module, same offline stand-in discipline as the `vendor/` crates):
//!
//! * [`Poller`] — level-triggered readiness selector over `epoll(7)`. One
//!   loop thread registers nonblocking fds under [`Token`]s and blocks in
//!   [`Poller::poll`] until something is ready.
//! * [`Waker`] — self-pipe wakeup so *other* threads (worker pool, shutdown
//!   callers) can interrupt that blocking poll, with an atomic dedup so a
//!   burst of completions costs one wakeup.
//! * [`WorkerPool`] — small fixed thread pool the loop dispatches CPU-heavy
//!   jobs to (repartition, WAL append, snapshot), keeping the loop itself
//!   free to service thousands of idle sockets.
//!
//! The API mirrors mio's shape (`register`/`reregister`/`deregister`,
//! reusable [`Events`]) so the stand-in can be swapped for the real crate
//! when a registry mirror is available; see `vendor/README.md` for the
//! discipline. Linux is the only target: CI runs nothing else.

#[cfg(not(target_os = "linux"))]
compile_error!("igp-net is Linux-only: its selector is epoll(7)");

mod epoll;
mod event;
mod poller;
mod pool;
pub mod signal;
mod sys;
mod waker;

pub use event::{Event, Events, Interest, Token};
pub use poller::Poller;
pub use pool::{PoolHook, WorkerPool};
pub use waker::Waker;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoll::Selector;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn epoll_readiness_roundtrip() {
        let mut sel = Selector::new().unwrap();
        let (mut client, server) = tcp_pair();
        server.set_nonblocking(true).unwrap();
        let fd = server.as_raw_fd();
        sel.register(fd, 7, Interest::READABLE).unwrap();
        let mut out = Vec::new();

        // Nothing to read yet → timeout path.
        sel.poll(&mut out, 8, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(out.is_empty(), "spurious readiness on idle socket");

        client.write_all(b"x").unwrap();
        sel.poll(&mut out, 8, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token().0, 7);
        assert!(out[0].is_readable());
        assert!(!out[0].is_writable());

        // Level-triggered: unread data re-fires.
        sel.poll(&mut out, 8, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(out.len(), 1, "level-triggered readiness must re-fire");

        // Add writable interest: a fresh socket's send buffer is writable.
        sel.reregister(fd, 9, Interest::READABLE | Interest::WRITABLE)
            .unwrap();
        sel.poll(&mut out, 8, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].token().0, 9, "reregister must swap the token");
        assert!(out[0].is_readable() && out[0].is_writable());

        sel.deregister(fd).unwrap();
        sel.poll(&mut out, 8, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(out.is_empty(), "deregistered fd still firing");
    }

    #[test]
    fn epoll_hup_is_readable() {
        let mut sel = Selector::new().unwrap();
        let (client, server) = tcp_pair();
        server.set_nonblocking(true).unwrap();
        let fd = server.as_raw_fd();
        sel.register(fd, 1, Interest::READABLE).unwrap();
        drop(client);
        let mut out = Vec::new();
        sel.poll(&mut out, 8, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(out.len(), 1);
        assert!(
            out[0].is_readable(),
            "peer close must surface as readable so the loop reads EOF"
        );
        sel.deregister(fd).unwrap();
    }

    #[test]
    fn waker_unblocks_poll_from_another_thread() {
        let mut poller = Poller::new().unwrap();
        let waker = Arc::new(Waker::new(&poller, Token(0)).unwrap());
        let w = Arc::clone(&waker);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            w.wake();
        });
        let mut events = Events::with_capacity(8);
        let start = Instant::now();
        poller
            .poll(&mut events, Some(Duration::from_secs(30)))
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "wake did not land"
        );
        assert_eq!(events.len(), 1);
        assert_eq!(events.iter().next().unwrap().token(), Token(0));
        waker.drain();
        t.join().unwrap();

        // Drained: the next poll must time out, not spin on a stale byte.
        poller
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "waker byte not drained");
    }

    #[test]
    fn waker_dedups_bursts() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, Token(0)).unwrap();
        for _ in 0..1000 {
            waker.wake();
        }
        let mut events = Events::with_capacity(8);
        poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        waker.drain();
        // 1000 wakes collapse to one pipe byte → one drained wakeup.
        poller
            .poll(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "burst of wakes left residue in the pipe");
    }

    #[test]
    fn waker_after_drain_fires_again() {
        let mut poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, Token(3)).unwrap();
        waker.wake();
        let mut events = Events::with_capacity(8);
        poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        waker.drain();
        waker.wake();
        poller
            .poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1, "post-drain wake was lost");
    }

    /// Regression: a `wake()` landing between drain's flag-clear and its
    /// pipe read must never kill the waker. The old greedy multi-byte
    /// drain could consume the racing wake's byte, leaving `pending ==
    /// true` over an empty pipe — after which every `wake()` is a no-op
    /// and the loop sleeps forever. Hammer the interleaving, then prove
    /// a fresh wake still fires.
    #[test]
    fn waker_survives_wake_racing_drain() {
        let mut poller = Poller::new().unwrap();
        let waker = Arc::new(Waker::new(&poller, Token(0)).unwrap());
        let w = Arc::clone(&waker);
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let d = Arc::clone(&done);
        let t = std::thread::spawn(move || {
            for _ in 0..20_000 {
                w.wake();
                std::hint::spin_loop();
            }
            d.store(true, Ordering::SeqCst);
        });
        // Drain as fast as fires arrive (drain ONLY on a fire: its
        // one-byte read assumes readability), maximizing store/read vs
        // swap/write interleavings.
        let mut events = Events::with_capacity(8);
        loop {
            poller
                .poll(&mut events, Some(Duration::from_millis(20)))
                .unwrap();
            if !events.is_empty() {
                waker.drain();
            } else if done.load(Ordering::SeqCst) {
                break; // producer finished and the pipe is empty
            }
        }
        t.join().unwrap();
        // The waker must still be alive.
        waker.wake();
        poller
            .poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(events.len(), 1, "wake after a drain race was lost");
        waker.drain();
    }

    #[test]
    fn pool_runs_jobs_and_join_drains() {
        let pool = WorkerPool::new(3, "test-pool");
        assert_eq!(pool.workers(), 3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            assert!(pool.execute(Box::new(move || {
                c.fetch_add(1, Ordering::SeqCst);
            })));
        }
        pool.join();
        assert_eq!(
            counter.load(Ordering::SeqCst),
            100,
            "join must drain the queue"
        );
    }

    #[test]
    fn pool_survives_panicking_job() {
        let pool = WorkerPool::new(1, "panic-pool");
        pool.execute(Box::new(|| panic!("job blew up")));
        let counter = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&counter);
        pool.execute(Box::new(move || {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        pool.join();
        assert_eq!(
            counter.load(Ordering::SeqCst),
            1,
            "worker died with the panicking job"
        );
    }

    /// The liveness hook sees a balanced busy/idle pair per job, on the
    /// executing worker's index — including around a panicking job.
    #[test]
    fn pool_hook_brackets_every_job() {
        struct CountingHook {
            busy: [AtomicUsize; 2],
            idle: [AtomicUsize; 2],
        }
        impl PoolHook for CountingHook {
            fn busy(&self, worker: usize) {
                self.busy[worker].fetch_add(1, Ordering::SeqCst);
            }
            fn idle(&self, worker: usize) {
                self.idle[worker].fetch_add(1, Ordering::SeqCst);
            }
        }
        let hook = Arc::new(CountingHook {
            busy: [AtomicUsize::new(0), AtomicUsize::new(0)],
            idle: [AtomicUsize::new(0), AtomicUsize::new(0)],
        });
        let pool = WorkerPool::with_hook(2, "hook-pool", Some(hook.clone()));
        for i in 0..40 {
            if i % 10 == 3 {
                pool.execute(Box::new(|| panic!("hooked panic")));
            } else {
                pool.execute(Box::new(|| {}));
            }
        }
        pool.join();
        let busy: usize = hook.busy.iter().map(|c| c.load(Ordering::SeqCst)).sum();
        let idle: usize = hook.idle.iter().map(|c| c.load(Ordering::SeqCst)).sum();
        assert_eq!(busy, 40, "one busy per job");
        assert_eq!(idle, 40, "one idle per job, panics included");
    }

    #[test]
    fn pool_shared_across_threads_rejects_after_shutdown() {
        let pool = Arc::new(WorkerPool::new(2, "shared-pool"));
        let done = Arc::new(AtomicUsize::new(0));
        let producers: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let d = Arc::clone(&done);
                        pool.execute(Box::new(move || {
                            d.fetch_add(1, Ordering::SeqCst);
                        }));
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let pool = Arc::try_unwrap(pool).ok().expect("sole owner");
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn interest_algebra() {
        let rw = Interest::READABLE | Interest::WRITABLE;
        assert!(rw.is_readable() && rw.is_writable());
        let r = rw.remove(Interest::WRITABLE);
        assert!(r.is_readable() && !r.is_writable());
        assert!(r.remove(Interest::READABLE).is_empty());
    }
}
