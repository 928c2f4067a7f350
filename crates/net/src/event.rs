//! Readiness vocabulary: [`Token`], [`Interest`], [`Event`], and the
//! reusable [`Events`] buffer.

/// Opaque per-registration identifier, echoed back on every [`Event`].
///
/// The event loop owns the meaning: igp-serve uses `0` for the listener,
/// `1` for the waker, and `slot + FIRST_CONN` for connections.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Token(pub usize);

/// Which readiness classes a registration wants to be told about.
///
/// Combine with [`Interest::add`] (or `|`): `Interest::READABLE.add(Interest::WRITABLE)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest(u8);

impl Interest {
    /// No readiness classes: the fd stays registered (keeping its token)
    /// but produces no events until re-armed. Event loops use this to
    /// park a connection whose input must not be consumed right now —
    /// under level-triggered polling, leaving readable interest on an
    /// unread socket would refire every wait.
    pub const NONE: Interest = Interest(0);
    pub const READABLE: Interest = Interest(0b01);
    pub const WRITABLE: Interest = Interest(0b10);

    /// Union of two interest sets.
    #[must_use]
    pub const fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Interest set with `other`'s bits removed; may become empty.
    #[must_use]
    pub const fn remove(self, other: Interest) -> Interest {
        Interest(self.0 & !other.0)
    }

    pub const fn is_readable(self) -> bool {
        self.0 & Interest::READABLE.0 != 0
    }

    pub const fn is_writable(self) -> bool {
        self.0 & Interest::WRITABLE.0 != 0
    }

    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        self.add(rhs)
    }
}

/// One readiness notification.
///
/// `is_readable()` deliberately folds error/hang-up conditions in (mio does
/// the same): a peer reset must wake a reader so the subsequent `read()`
/// observes EOF/ECONNRESET instead of the connection idling forever.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    pub(crate) token: usize,
    pub(crate) readable: bool,
    pub(crate) writable: bool,
    pub(crate) error: bool,
    pub(crate) hup: bool,
}

impl Event {
    pub fn token(&self) -> Token {
        Token(self.token)
    }

    pub fn is_readable(&self) -> bool {
        self.readable || self.error || self.hup
    }

    pub fn is_writable(&self) -> bool {
        self.writable
    }
}

/// Reusable buffer of [`Event`]s filled by [`crate::Poller::poll`].
///
/// `capacity` bounds how many events one poll call may return; leftover
/// readiness is level-triggered, so anything truncated simply re-fires on
/// the next call.
pub struct Events {
    pub(crate) list: Vec<Event>,
    pub(crate) capacity: usize,
}

impl Events {
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            list: Vec::with_capacity(capacity),
            capacity: capacity.max(1),
        }
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.list.iter()
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

impl<'a> IntoIterator for &'a Events {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.list.iter()
    }
}
