//! [`Poller`]: the epoll selector behind a mio-shaped API.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

use crate::epoll::Selector;
use crate::event::{Events, Interest, Token};

/// Level-triggered readiness poller over epoll.
///
/// Registrations borrow the fd, they do not own it: callers must
/// [`Poller::deregister`] before (or at) close. All methods are intended for
/// a single event-loop thread; cross-thread signalling goes through
/// [`crate::Waker`], which is the one piece built to be called from anywhere.
pub struct Poller {
    sel: Selector,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            sel: Selector::new()?,
        })
    }

    /// Start watching `fd` for `interest`; `token` is echoed on every event.
    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.sel.register(fd, token.0, interest)
    }

    /// Replace the token/interest of an existing registration.
    pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.sel.reregister(fd, token.0, interest)
    }

    /// Stop watching `fd`.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.sel.deregister(fd)
    }

    /// Block until readiness, `timeout` elapses (`None` = forever), or a
    /// signal interrupts the wait (returned as an empty `events` batch —
    /// callers re-derive their timers every iteration anyway).
    pub fn poll(&mut self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let cap = events.capacity;
        self.sel.poll(&mut events.list, cap, timeout)
    }
}
