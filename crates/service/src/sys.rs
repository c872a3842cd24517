//! Minimal epoll bindings for the readiness-based transport.
//!
//! The build environment cannot reach crates.io, so instead of `mio` or the
//! `libc` crate this module declares the four symbols it needs via
//! `extern "C"` against the C library `std` already links, and wraps them in
//! a small safe [`Poller`] API. This is the only place in the workspace that
//! uses `unsafe`; everything above it (the event loop in [`crate::http`])
//! sees plain `std::io` types.
//!
//! The shim is Linux-only by construction (epoll is a Linux API). The event
//! data word carries an opaque `u64` token chosen by the caller, which the
//! transport uses to map readiness events back to connections.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;
use std::time::Duration;

const EPOLL_CLOEXEC: c_int = 0o200_0000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

/// Mirror of the kernel's `struct epoll_event`. The x86-64 ABI packs it so
/// the 64-bit data word sits directly after the 32-bit event mask.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// Which readiness classes a registration is interested in.
///
/// `EPOLLRDHUP` is deliberately **not** part of any mask: a half-closed peer
/// already shows up as level-triggered readability (`read` returns 0), and a
/// level-triggered `EPOLLRDHUP` on a connection whose reads are paused would
/// re-fire forever without anything consuming it — a busy-spin. Full-close
/// and error conditions (`EPOLLHUP`/`EPOLLERR`, which epoll always reports
/// regardless of the mask) are surfaced via [`Event::hangup`] so the caller
/// can drop the fd, which is the only way to consume them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable (includes a pending EOF).
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Readable-only interest.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };

    fn mask(self) -> u32 {
        let mut mask = 0;
        if self.readable {
            mask |= EPOLLIN;
        }
        if self.writable {
            mask |= EPOLLOUT;
        }
        mask
    }
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd is readable (a subsequent `read` returns data or EOF).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The connection is gone in both directions (`EPOLLHUP`) or errored
    /// (`EPOLLERR`). These conditions are reported by the kernel regardless
    /// of the registered mask and persist until the fd is closed — the
    /// caller must drop the fd, or a level-triggered wait loop spins.
    pub hangup: bool,
}

/// A level-triggered epoll instance.
///
/// Level-triggered (the epoll default) keeps the event loop simple: a fd with
/// unread input or unflushed output interest keeps showing up in
/// [`Poller::wait`] until the condition clears, so a handler that reads or
/// writes less than everything is never stranded.
#[derive(Debug)]
pub struct Poller {
    epfd: c_int,
}

impl Poller {
    /// Creates the epoll instance.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: epoll_create1 takes a flags word and returns a new fd or -1.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, event: Option<EpollEvent>) -> io::Result<()> {
        let mut event = event;
        let ptr = event
            .as_mut()
            .map_or(std::ptr::null_mut(), std::ptr::from_mut);
        // SAFETY: `ptr` is either null (only for EPOLL_CTL_DEL, which ignores
        // it) or points at a live EpollEvent for the duration of the call.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, ptr) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (e.g. the fd is already registered).
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_ADD,
            fd,
            Some(EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Changes the interest of an already-registered fd.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(
            EPOLL_CTL_MOD,
            fd,
            Some(EpollEvent {
                events: interest.mask(),
                data: token,
            }),
        )
    }

    /// Deregisters `fd`. Harmless to call for an fd the kernel already
    /// dropped (closing an fd removes it from every epoll set).
    pub fn remove(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, None);
    }

    /// Blocks until at least one registered fd is ready or `timeout` passes,
    /// appending the ready events to `out` (which is cleared first).
    ///
    /// A `None` timeout blocks indefinitely; `EINTR` returns an empty batch
    /// instead of an error so callers simply loop.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_wait` failure.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        const MAX_EVENTS: usize = 64;
        let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let timeout_ms: c_int = match timeout {
            // Round up so a 100µs deadline does not spin at timeout 0.
            Some(t) => c_int::try_from(t.as_millis().max(1)).unwrap_or(c_int::MAX),
            None => -1,
        };
        // SAFETY: the buffer pointer and capacity describe `raw`, which
        // outlives the call; the kernel writes at most MAX_EVENTS entries.
        let rc =
            unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for slot in raw.iter().take(rc as usize) {
            let events = slot.events;
            out.push(Event {
                token: slot.data,
                readable: events & (EPOLLIN | EPOLLRDHUP) != 0,
                writable: events & EPOLLOUT != 0,
                hangup: events & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd came from epoll_create1 and is closed exactly once.
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;

    #[test]
    fn pipe_readiness_round_trip() {
        let (reader, mut writer) = std::io::pipe().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .add(reader.as_raw_fd(), 7, Interest::READABLE)
            .unwrap();

        let mut events = Vec::new();
        // Nothing written yet: a short wait times out with no events.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());

        writer.write_all(b"x").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        assert!(!events[0].writable);

        poller.remove(reader.as_raw_fd());
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    /// Linux errno values the kernel answers `epoll_ctl` misuse with.
    const ENOENT: i32 = 2;
    const EBADF: i32 = 9;
    const EEXIST: i32 = 17;

    #[test]
    fn registration_errors_carry_the_kernels_errno() {
        let (reader, _writer) = std::io::pipe().unwrap();
        let poller = Poller::new().unwrap();
        let fd = reader.as_raw_fd();
        let errno = |result: io::Result<()>| result.unwrap_err().raw_os_error();

        assert_eq!(
            errno(poller.modify(fd, 1, Interest::READABLE)),
            Some(ENOENT)
        );
        poller.add(fd, 1, Interest::READABLE).unwrap();
        assert_eq!(errno(poller.add(fd, 2, Interest::READABLE)), Some(EEXIST));
        assert_eq!(errno(poller.add(-1, 3, Interest::READABLE)), Some(EBADF));
        // Removing an fd that was never registered (or was already dropped)
        // is silent, and leaves the poller working.
        poller.remove(-1);
        poller.remove(fd);
        poller.remove(fd);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn a_closed_writer_reports_hangup() {
        let (reader, writer) = std::io::pipe().unwrap();
        let poller = Poller::new().unwrap();
        poller
            .add(reader.as_raw_fd(), 5, Interest::READABLE)
            .unwrap();
        drop(writer);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 5);
        assert!(events[0].hangup, "{:?}", events[0]);
        assert!(!events[0].writable);
    }

    #[test]
    fn interest_masks_cover_the_classes() {
        // Exactly EPOLLIN: registering EPOLLRDHUP would busy-spin the wait
        // loop when a half-closed connection has its reads paused (nothing
        // consumes a level-triggered RDHUP).
        assert_eq!(Interest::READABLE.mask(), EPOLLIN);
        assert_eq!(Interest::READABLE.mask() & EPOLLOUT, 0);
        let both = Interest {
            readable: true,
            writable: true,
        };
        assert_eq!(both.mask(), EPOLLIN | EPOLLOUT);
    }
}
