//! The readiness loop that multiplexes idle keep-alive connections.
//!
//! One thread owns the listener and waits on the [`crate::net::Poller`]. A
//! connection is registered once, at accept, one-shot and under its fd, and
//! keeps one socket mode for life: blocking, with the write timeout set at
//! accept. The loop never blocks on it (it reads with `MSG_DONTWAIT`), and a
//! connection only leaves the loop when a complete request has been parsed
//! from its buffer (or it must be rejected), so slow and idle peers cost a
//! file descriptor and a buffer — never a worker thread. A worker that keeps
//! a connection alive parks it itself: back into `ServerInner::parked`, then
//! one `EPOLL_CTL_MOD` to re-arm it.
//!
//! Timeout policy, enforced by a sweep every tick:
//! - empty buffer + idle past `keepalive` → silent close (idle expiry);
//! - partial request past `io_timeout` → `408 Request Timeout` (slowloris);
//! - open connections at `max_conns` → refuse new accepts with 503;
//! - work queue full → shed with `503 Retry-After: 1`, as the thread pool
//!   always has.

use crate::http::{parse_request, response_bytes, HttpRequest, ParseStatus, ServerInner};
use crate::net::{self, EpollEvent, Poller, EPOLLIN, EPOLLONESHOT, EPOLLRDHUP};
use crate::request::CgiResponse;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// How a connection is watched: one readable (or hung-up) report, then
/// disarmed until whoever parks it next re-arms it.
const CONN_EVENTS: u32 = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;

/// The poll timeout, and so the period of the timeout sweep.
const TICK: Duration = Duration::from_millis(50);

/// One client connection and its accumulated, not-yet-parsed bytes.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Bytes read but not yet consumed by the parser (partial request, or
    /// pipelined successors).
    pub(crate) buf: Vec<u8>,
    /// How much of `buf` the parser has searched for the end of the header
    /// block (see [`parse_request`]).
    pub(crate) scanned: usize,
    /// Requests already served on this connection.
    pub(crate) served: u64,
    /// Last accept, read, or re-park; drives the idle/slowloris sweeps.
    pub(crate) last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            scanned: 0,
            served: 0,
            last_activity: Instant::now(),
        }
    }
}

/// What the event loop hands the worker pool.
pub(crate) enum Work {
    /// A fully parsed request on its connection.
    Request(Conn, HttpRequest),
    /// A protocol rejection (400/408/413) to write before closing.
    Reject(Conn, CgiResponse),
}

/// Close a tracked connection, keeping the open-connections gauge honest.
/// Every `Conn` must end here.
pub(crate) fn close_conn(conn: Conn) {
    dbgw_obs::metrics().open_connections.dec();
    drop(conn);
}

/// Put `conn` back in the parked table and re-arm its registration; the
/// next bytes (or bytes already waiting) bring it back to the loop. Should
/// the re-arm fail, the sweep still times the connection out.
pub(crate) fn park(inner: &ServerInner, conn: Conn) {
    let fd = conn.stream.as_raw_fd();
    inner.parked.lock().insert(fd, conn);
    let _ = inner.poller.rearm(fd, fd as u64, CONN_EVENTS);
}

/// Best-effort 503 with `Retry-After`, for a connection the server will not
/// serve and is about to close: whatever fits in the socket buffer goes out
/// at once.
fn refuse(stream: &TcpStream, why: &str) {
    let resp = CgiResponse::error(503, why);
    let _ = net::send_now(
        stream.as_raw_fd(),
        &response_bytes(&resp, None, Some(1), false),
    );
}

/// Hand work to the pool, or shed it if the bounded queue is full.
fn submit(inner: &ServerInner, work: Work) {
    let mut q = inner.work.lock();
    if q.len() >= inner.config.queue {
        drop(q);
        dbgw_obs::metrics().requests_shed.inc();
        let (Work::Request(conn, _) | Work::Reject(conn, _)) = work;
        refuse(&conn.stream, "server busy, try again shortly");
        return close_conn(conn);
    }
    q.push_back(work);
    dbgw_obs::metrics().queue_depth.set(q.len() as i64);
    drop(q);
    inner.ready.notify_one();
}

/// Read whatever the socket has, then try to parse one request: submit it,
/// reject the connection, or park it to wait for more bytes.
fn drive(inner: &ServerInner, mut conn: Conn) {
    // A request with a max-size body plus its headers must fit; anything
    // still incomplete past this is a flood.
    let buf_cap = inner.config.max_body + 64 * 1024;
    let mut chunk = [0u8; 4096];
    let eof = loop {
        match net::recv_now(conn.stream.as_raw_fd(), &mut chunk) {
            Ok(0) => break true,
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                // A short read drained the socket; anything later re-raises
                // the level-triggered event once the connection is re-armed.
                if n < chunk.len() || conn.buf.len() > buf_cap {
                    break false;
                }
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break false,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return close_conn(conn),
        }
    };
    if eof && conn.buf.is_empty() {
        return close_conn(conn); // clean close between requests
    }
    // A request the peer finished before half-closing is still served; the
    // end of stream closes the connection when it next comes back here.
    let resp = match parse_request(&mut conn.buf, &mut conn.scanned, &inner.config) {
        ParseStatus::Request(req) => return submit(inner, Work::Request(conn, req)),
        ParseStatus::Incomplete if eof => CgiResponse::error(400, "malformed request"),
        ParseStatus::Incomplete if conn.buf.len() <= buf_cap => return park(inner, conn),
        ParseStatus::Malformed => CgiResponse::error(400, "malformed request"),
        ParseStatus::Incomplete | ParseStatus::TooLarge => {
            CgiResponse::error(413, "request larger than the configured limit")
        }
    };
    submit(inner, Work::Reject(conn, resp));
}

/// Accept until the listener would block. A new connection is parked and
/// registered under its fd; its first bytes raise its first event.
fn accept_burst(inner: &ServerInner, listener: &TcpListener) {
    let m = dbgw_obs::metrics();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if m.open_connections.get() >= inner.config.max_conns as i64 {
                    refuse(&stream, "connection limit reached, try again shortly");
                    continue;
                }
                // Responses are written in few large segments; disabling
                // Nagle keeps keep-alive turnarounds off the delayed-ACK
                // clock (~40 ms per stall otherwise).
                let _ = stream.set_nodelay(true);
                // Workers write with plain blocking writes; the timeout
                // bounds how long a peer that stops reading can hold one.
                // Only this thread waits on the poller, so the connection
                // is in the table before its first event can be seen.
                let fd = stream.as_raw_fd();
                if stream
                    .set_write_timeout(Some(inner.config.io_timeout))
                    .is_err()
                    || inner.poller.register(fd, fd as u64, CONN_EVENTS).is_err()
                {
                    continue;
                }
                m.open_connections.inc();
                inner.parked.lock().insert(fd, Conn::new(stream));
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Expire idle keep-alive connections and time out half-sent requests.
fn sweep(inner: &ServerInner) {
    let now = Instant::now();
    let expired: Vec<Conn> = {
        let mut parked = inner.parked.lock();
        let expired = parked
            .extract_if(|_, conn| {
                let limit = if conn.buf.is_empty() {
                    inner.config.keepalive
                } else {
                    inner.config.io_timeout
                };
                now.duration_since(conn.last_activity) >= limit
            })
            .map(|(_, conn)| conn)
            .collect();
        dbgw_obs::metrics()
            .idle_connections
            .set(parked.values().filter(|c| c.buf.is_empty()).count() as i64);
        expired
    };
    for conn in expired {
        if conn.buf.is_empty() {
            close_conn(conn); // idle expiry: nothing owed to the peer
        } else {
            // Slowloris: a partial request outlived the IO timeout.
            let resp = CgiResponse::error(408, "request timed out");
            submit(inner, Work::Reject(conn, resp));
        }
    }
}

/// The loop body: owned by one thread for the server's lifetime. Shutdown
/// closes whatever is still parked once the workers are joined.
pub(crate) fn event_loop(inner: &ServerInner, listener: TcpListener) {
    let listener_token = listener.as_raw_fd() as u64;
    if listener.set_nonblocking(true).is_err()
        || inner
            .poller
            .register(listener.as_raw_fd(), listener_token, EPOLLIN)
            .is_err()
    {
        return;
    }
    let mut events = [EpollEvent::zeroed(); 64];
    let mut next_sweep = Instant::now() + TICK;
    loop {
        // The tick bounds both sweep latency and stop-flag latency.
        let n = inner
            .poller
            .wait(&mut events, TICK.as_millis() as i32)
            .unwrap_or(0);
        for ev in events.iter().take(n) {
            let token = ev.data; // copy out: the struct is packed on x86-64
            if token == listener_token {
                accept_burst(inner, &listener);
            } else if token == Poller::WAKE_TOKEN {
                inner.poller.drain_wake();
            } else {
                // A connection a worker holds is not in the table; its
                // worker re-arms it when it parks it.
                let conn = inner.parked.lock().remove(&(token as RawFd));
                if let Some(conn) = conn {
                    drive(inner, conn);
                }
            }
        }
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        if Instant::now() >= next_sweep {
            sweep(inner);
            next_sweep = Instant::now() + TICK;
        }
    }
}
