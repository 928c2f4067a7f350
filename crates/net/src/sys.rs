//! Raw syscall surface for the poller.
//!
//! Offline stand-in discipline (see `vendor/README.md`): the container has no
//! crates.io mirror, so instead of the `libc` crate this module declares the
//! handful of bindings the poller needs directly against the platform C
//! library. Constants and struct layouts follow the Linux UAPI header
//! `<sys/epoll.h>`; they are `pub(crate)` so the typed wrapper in
//! [`crate::epoll`] is the only consumer.

#![allow(non_camel_case_types)]

use std::os::raw::c_int;

pub(crate) const EPOLL_CLOEXEC: c_int = 0o2000000;
pub(crate) const EPOLL_CTL_ADD: c_int = 1;
pub(crate) const EPOLL_CTL_DEL: c_int = 2;
pub(crate) const EPOLL_CTL_MOD: c_int = 3;

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;

/// `struct epoll_event`. On x86/x86_64 the kernel declares it packed (the
/// 64-bit `data` field sits at offset 4); every other architecture uses
/// natural alignment. Fields are only ever copied out by value — never
/// borrowed — so the packed repr cannot produce unaligned references.
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(C, packed))]
#[cfg_attr(not(any(target_arch = "x86", target_arch = "x86_64")), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct epoll_event {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    pub(crate) fn epoll_create1(flags: c_int) -> c_int;
    pub(crate) fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub(crate) fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
}

/// Clamp an optional wait to the millisecond argument `epoll_wait`
/// expects: `None` blocks forever (-1), sub-millisecond waits round *up* so
/// a 100µs timer does not degenerate into a busy spin at 0ms.
pub(crate) fn timeout_ms(timeout: Option<std::time::Duration>) -> c_int {
    match timeout {
        None => -1,
        Some(d) => {
            let mut ms = d.as_millis();
            if d.subsec_nanos() % 1_000_000 != 0 {
                ms += 1;
            }
            ms.min(c_int::MAX as u128) as c_int
        }
    }
}
