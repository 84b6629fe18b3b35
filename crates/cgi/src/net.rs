//! Raw readiness primitives: `epoll` + `eventfd` without any crates.
//!
//! The evented edge ([`crate::evloop`]) needs exactly three kernel services:
//! a readiness multiplexer (`epoll`), a cross-thread wakeup (`eventfd`), and
//! socket I/O that never blocks on an otherwise blocking socket
//! (`recv`/`send` with `MSG_DONTWAIT`). All three are declared here as
//! `extern "C"` bindings to the libc the binary already links. Linux-only by
//! design: the repo's north star runs on Linux.

#![allow(clippy::missing_safety_doc)]

use std::io;
use std::os::unix::io::RawFd;

// --- libc declarations -----------------------------------------------------
// std links glibc; these symbols are always present on Linux.
extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn recv(fd: i32, buf: *mut u8, len: usize, flags: i32) -> isize;
    fn send(fd: i32, buf: *const u8, len: usize, flags: i32) -> isize;
    fn close(fd: i32) -> i32;
}

/// Readable (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Error condition (`EPOLLERR`) — always reported, no need to register.
pub const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;
/// Report one event, then disarm the fd until it is re-armed
/// (`EPOLLONESHOT`).
pub const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CLOEXEC: i32 = 0x80000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const EFD_NONBLOCK: i32 = 0x800;
const EFD_CLOEXEC: i32 = 0x80000;
const MSG_DONTWAIT: i32 = 0x40;
const MSG_NOSIGNAL: i32 = 0x4000;

/// The kernel's `struct epoll_event`. On x86-64 the kernel ABI packs the
/// struct (no padding between `events` and `data`); other architectures use
/// natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-state bit mask (`EPOLLIN` | …).
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

impl EpollEvent {
    /// A zeroed event, for the `epoll_wait` output buffer.
    pub const fn zeroed() -> EpollEvent {
        EpollEvent { events: 0, data: 0 }
    }
}

/// An epoll instance plus an eventfd for cross-thread wakeups.
///
/// The wake fd is registered under [`Poller::WAKE_TOKEN`]; callers must treat
/// that token as reserved and call [`Poller::drain_wake`] when it fires.
pub struct Poller {
    epfd: RawFd,
    wakefd: RawFd,
}

impl Poller {
    /// The token the internal wakeup eventfd reports readiness under.
    pub const WAKE_TOKEN: u64 = u64::MAX;

    /// Create the epoll instance and its wakeup eventfd.
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        let wakefd = unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) };
        if wakefd < 0 {
            let err = io::Error::last_os_error();
            unsafe { close(epfd) };
            return Err(err);
        }
        let poller = Poller { epfd, wakefd };
        poller.register(wakefd, Poller::WAKE_TOKEN, EPOLLIN)?;
        Ok(poller)
    }

    /// Watch `fd` for `events`, reporting readiness under `token`. Closing
    /// `fd` is what stops the watch.
    pub fn register(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Replace a registered fd's `events` and `token`; for an
    /// [`EPOLLONESHOT`] fd this re-arms it. Readiness is level-triggered, so
    /// data that arrived while the fd was disarmed is reported at once.
    pub(crate) fn rearm(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, properly laid out `epoll_event` the kernel
        // only reads; a bad `epfd`, `op` or `fd` is reported as an error.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Block up to `timeout_ms` for readiness; fills `events` and returns the
    /// ready count. `EINTR` is treated as "zero events", not an error.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.epfd,
                events.as_mut_ptr(),
                events.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }

    /// Wake a thread blocked in [`Poller::wait`] from any other thread.
    pub fn wake(&self) {
        let one: u64 = 1;
        // A full eventfd counter (EAGAIN) already guarantees a pending wake.
        unsafe { write(self.wakefd, &one as *const u64 as *const u8, 8) };
    }

    /// Clear the wakeup counter after a [`Poller::WAKE_TOKEN`] event.
    pub fn drain_wake(&self) {
        let mut buf = [0u8; 8];
        unsafe { read(self.wakefd, buf.as_mut_ptr(), 8) };
    }
}

/// Read what `fd` has buffered without waiting, even on a blocking socket:
/// `Ok(0)` is end of stream, and an empty buffer is `WouldBlock`.
pub(crate) fn recv_now(fd: RawFd, buf: &mut [u8]) -> io::Result<usize> {
    // SAFETY: the kernel writes at most `buf.len()` bytes into `buf`, which
    // is exclusively borrowed for the call; a bad `fd` is reported as an error.
    let n = unsafe { recv(fd, buf.as_mut_ptr(), buf.len(), MSG_DONTWAIT) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(n as usize)
}

/// Queue what fits of `buf` on `fd` without waiting, even on a blocking
/// socket, and return how much that was (`WouldBlock` when none fits).
pub(crate) fn send_now(fd: RawFd, buf: &[u8]) -> io::Result<usize> {
    // SAFETY: the kernel reads at most `buf.len()` bytes from `buf`, which
    // is borrowed for the call; a bad `fd` is reported as an error.
    let n = unsafe { send(fd, buf.as_ptr(), buf.len(), MSG_DONTWAIT | MSG_NOSIGNAL) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(n as usize)
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.wakefd);
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn wake_round_trip() {
        let poller = Poller::new().unwrap();
        poller.wake();
        let mut events = [EpollEvent::zeroed(); 4];
        let n = poller.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, Poller::WAKE_TOKEN);
        poller.drain_wake();
        // Drained: an immediate poll sees nothing.
        let n = poller.wait(&mut events, 0).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn socket_readiness_reported_under_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let poller = Poller::new().unwrap();
        poller.register(listener.as_raw_fd(), 7, EPOLLIN).unwrap();

        let mut events = [EpollEvent::zeroed(); 4];
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 0);

        let mut client = TcpStream::connect(addr).unwrap();
        let n = poller.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, 7);

        let (server_side, _) = listener.accept().unwrap();
        poller
            .register(server_side.as_raw_fd(), 9, EPOLLIN | EPOLLRDHUP)
            .unwrap();
        client.write_all(b"x").unwrap();
        let n = poller.wait(&mut events, 2000).unwrap();
        assert_eq!(n, 1);
        let data = events[0].data;
        assert_eq!(data, 9);
    }

    /// A connected loopback pair: (client, server side).
    fn connected() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (client, listener.accept().unwrap().0)
    }

    #[test]
    fn oneshot_rearm_reports_bytes_that_arrived_while_disarmed() {
        let (mut client, server_side) = connected();
        let fd = server_side.as_raw_fd();
        let poller = Poller::new().unwrap();
        poller
            .register(fd, fd as u64, EPOLLIN | EPOLLONESHOT)
            .unwrap();
        let mut events = [EpollEvent::zeroed(); 4];

        client.write_all(b"a").unwrap();
        assert_eq!(poller.wait(&mut events, 2000).unwrap(), 1);
        // Disarmed: more bytes raise nothing until the fd is re-armed...
        client.write_all(b"b").unwrap();
        assert_eq!(poller.wait(&mut events, 100).unwrap(), 0);
        // ...and then the unread bytes are reported at once.
        poller.rearm(fd, fd as u64, EPOLLIN | EPOLLONESHOT).unwrap();
        assert_eq!(poller.wait(&mut events, 0).unwrap(), 1);
        let data = events[0].data;
        assert_eq!(data, fd as u64);
    }

    #[test]
    fn recv_now_and_send_now_never_wait_on_a_blocking_socket() {
        let (mut client, server_side) = connected();
        let fd = server_side.as_raw_fd();
        let poller = Poller::new().unwrap();
        poller.register(fd, 1, EPOLLIN).unwrap();
        let mut events = [EpollEvent::zeroed(); 1];
        let mut buf = [0u8; 16];
        let empty = recv_now(fd, &mut buf).unwrap_err();
        assert_eq!(empty.kind(), io::ErrorKind::WouldBlock);

        client.write_all(b"ping").unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        poller.wait(&mut events, 2000).unwrap();
        assert_eq!(recv_now(fd, &mut buf).unwrap(), 4);
        poller.wait(&mut events, 2000).unwrap();
        assert_eq!(recv_now(fd, &mut buf).unwrap(), 0, "half-close is EOF");

        // Nobody reads the client side: sending stops at full socket
        // buffers with `WouldBlock` instead of waiting.
        let block = vec![0u8; 1 << 16];
        let full = loop {
            if let Err(e) = send_now(fd, &block) {
                break e;
            }
        };
        assert_eq!(full.kind(), io::ErrorKind::WouldBlock);
    }
}
