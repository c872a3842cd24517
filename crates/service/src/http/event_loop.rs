//! The shell around [`LoopCore`]: the one thread that owns every socket.
//!
//! This module does the syscalls and decides nothing. The listener, a
//! wakeup pipe and every connection sit in one level-triggered `Poller`, so
//! idle keep-alive clients cost one sleeping thread. Each readiness event
//! becomes a core event stamped with the clock, and the shell carries out
//! the core's [`Action`]s: a nonblocking write pass (a slow peer never
//! stalls the loop), a new registration, a close.

use super::loop_core::{Action, Completion, LoopCore};
use crate::sys::{Event, Interest, Poller};
use std::collections::HashMap;
use std::io::{ErrorKind, PipeReader, PipeWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Reads drained from one connection per readiness event before yielding to
/// the other connections (level-triggered epoll re-arms automatically).
const READS_PER_EVENT: usize = 16;
/// Registration tokens of the listener socket and the wakeup pipe, above
/// every connection token the core hands out.
const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// The way back to the event loop, shared by every worker (and by the
/// solver-thread callbacks of a streaming search): completions queue here,
/// and a byte down the wakeup pipe rouses the loop.
#[derive(Debug)]
pub(super) struct Completions {
    pub(super) queue: Mutex<Vec<Completion>>,
    pub(super) waker: PipeWriter,
}

impl Completions {
    /// Queues a completion and rouses the event loop. One wakeup byte per
    /// completion; the loop drains in batches, so a full (64 KiB) pipe is
    /// unreachable in practice and a short block here is harmless anyway.
    pub(super) fn push(&self, completion: Completion) {
        self.queue.lock().expect("completion lock").push(completion);
        self.wake();
    }

    /// Rouses the event loop (on its own, how shutdown interrupts the wait).
    pub(super) fn wake(&self) {
        let _ = (&self.waker).write(&[1]);
    }
}

/// The single-threaded readiness loop that owns every socket.
pub(super) struct EventLoop {
    poller: Poller,
    listener: TcpListener,
    wake_rx: PipeReader,
    streams: HashMap<u64, TcpStream>,
    core: LoopCore,
    completions: Arc<Completions>,
    stop: Arc<AtomicBool>,
}

impl EventLoop {
    /// Registers `listener` and a fresh wakeup pipe around `core`; workers
    /// answer through the returned [`Completions`].
    pub(super) fn new(
        listener: TcpListener,
        core: LoopCore,
        stop: Arc<AtomicBool>,
    ) -> std::io::Result<(Self, Arc<Completions>)> {
        listener.set_nonblocking(true)?;
        let (wake_rx, waker) = std::io::pipe()?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        poller.add(wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READABLE)?;
        let queue = Mutex::default();
        let completions = Arc::new(Completions { queue, waker });
        let event_loop = EventLoop {
            poller,
            listener,
            wake_rx,
            streams: HashMap::new(),
            core,
            completions: completions.clone(),
            stop,
        };
        Ok((event_loop, completions))
    }

    /// Serves until the stop flag is raised, then shuts the core down.
    pub(super) fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut sweep: Option<Instant> = None;
        while !self.stop.load(Relaxed) {
            let timeout = sweep.map(|due| due.saturating_duration_since(Instant::now()));
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            self.core.begin_batch(events.len());
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        // One read never blocks; leftovers re-arm the poller.
                        let _ = self.wake_rx.read(&mut [0u8; 1024]);
                        let batch = std::mem::take(
                            &mut *self.completions.queue.lock().expect("completion lock"),
                        );
                        self.core.completed(batch, Instant::now());
                    }
                    // Dead both ways or errored: only dropping the fd
                    // consumes the level-triggered condition.
                    token if event.hangup => self.core.hangup(token, Instant::now()),
                    token => {
                        if event.readable {
                            self.read(token);
                        }
                        if event.writable {
                            self.write_pass(token);
                        }
                    }
                }
                self.act();
            }
            sweep = self.core.tick(Instant::now());
            self.act();
        }
        self.core.shutdown(Instant::now());
        self.act();
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    let now = Instant::now();
                    let Some(token) = self.core.accept(peer.ip(), now) else {
                        continue;
                    };
                    let _ = stream.set_nodelay(true);
                    let registered = stream.set_nonblocking(true).and_then(|()| {
                        (self.poller).add(stream.as_raw_fd(), token, Interest::READABLE)
                    });
                    match registered {
                        Ok(()) => drop(self.streams.insert(token, stream)),
                        Err(_) => self.core.hangup(token, now),
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // `WouldBlock`: the backlog is drained.
                Err(_) => break,
            }
        }
    }

    /// Reads what the connection's socket holds into the core.
    fn read(&mut self, token: u64) {
        let Some(stream) = self.streams.get_mut(&token) else {
            return;
        };
        if !self.core.reading(token) {
            return;
        }
        let mut chunk = [0u8; 16 * 1024];
        for _ in 0..READS_PER_EVENT {
            match stream.read(&mut chunk) {
                Ok(0) => return self.core.received(token, &[], Instant::now()),
                Ok(n) => {
                    self.core.received(token, &chunk[..n], Instant::now());
                    // A short read drained the socket; the poller reports
                    // whatever arrives later.
                    if n < chunk.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.core.hangup(token, Instant::now()),
            }
        }
    }

    /// Writes what the core owes the connection, as far as the socket takes.
    fn write_pass(&mut self, token: u64) {
        let Some(stream) = self.streams.get_mut(&token) else {
            return;
        };
        let unwritten = self.core.unwritten(token);
        let mut sent = 0;
        while sent < unwritten.len() {
            match stream.write(&unwritten[sent..]) {
                Ok(n) if n > 0 => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Ok(_) | Err(_) => return self.core.hangup(token, Instant::now()),
            }
        }
        self.core.written(token, sent, Instant::now());
    }

    /// Carries out the core's actions until it has none left.
    fn act(&mut self) {
        while let Some(action) = self.core.next_action() {
            match action {
                Action::Write(token) => self.write_pass(token),
                Action::Interest(token, want) => {
                    let Some(stream) = self.streams.get(&token) else {
                        continue;
                    };
                    let interest = Interest {
                        readable: want.read,
                        writable: want.write,
                    };
                    if (self.poller)
                        .modify(stream.as_raw_fd(), token, interest)
                        .is_err()
                    {
                        self.core.hangup(token, Instant::now());
                    }
                }
                // Dropping the stream closes the socket.
                Action::Close(token) => {
                    if let Some(stream) = self.streams.remove(&token) {
                        self.poller.remove(stream.as_raw_fd());
                    }
                }
            }
        }
    }
}
