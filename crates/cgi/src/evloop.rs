//! The readiness loop that multiplexes idle keep-alive connections.
//!
//! One thread owns the listener and every parked connection, registered with
//! the [`crate::net::Poller`]. A connection only leaves the loop when a
//! complete request has been parsed from its buffer (or it must be rejected),
//! so slow and idle peers cost a file descriptor and a buffer — never a
//! worker thread. Workers hand keep-alive connections back through
//! `ServerInner::returned` plus an eventfd wake.
//!
//! Timeout policy, enforced by a sweep on every loop tick:
//! - empty buffer + idle past `keepalive` → silent close (idle expiry);
//! - partial request past `io_timeout` → `408 Request Timeout` (slowloris);
//! - open connections at `max_conns` → refuse new accepts with 503;
//! - work queue full → shed with `503 Retry-After: 1`, as the thread pool
//!   always has.

use crate::http::{
    parse_request, write_response, HttpRequest, ParseStatus, ServerConfig, ServerInner,
};
use crate::net::{EpollEvent, Poller, EPOLLIN, EPOLLRDHUP};
use crate::request::CgiResponse;
use std::collections::HashMap;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The listener's epoll token; parked connections get tokens from 1 up.
const LISTENER_TOKEN: u64 = 0;

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
    /// Last accept, read, or hand-back; drives the idle/slowloris sweeps.
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

    /// Switch the socket to blocking mode with the worker IO timeouts; the
    /// event loop runs it nonblocking, workers run it blocking.
    pub(crate) fn prepare_blocking(&self, config: &ServerConfig) -> std::io::Result<()> {
        self.stream.set_nonblocking(false)?;
        self.stream.set_read_timeout(Some(config.io_timeout))?;
        self.stream.set_write_timeout(Some(config.io_timeout))?;
        Ok(())
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
/// Every `Conn` must end here (or in [`shed_conn`]).
pub(crate) fn close_conn(conn: Conn) {
    dbgw_obs::metrics().open_connections.dec();
    drop(conn);
}

/// Queue-full shed: best-effort 503 with `Retry-After`, then close.
fn shed_conn(conn: Conn) {
    let _ = conn.stream.set_nonblocking(false);
    let _ = conn
        .stream
        .set_write_timeout(Some(Duration::from_millis(250)));
    dbgw_obs::metrics().open_connections.dec();
    let mut stream = conn.stream;
    let resp = CgiResponse::error(503, "server busy, try again shortly");
    let _ = write_response(&mut stream, &resp, None, Some(1), false);
}

/// Connection-cap refusal for sockets never admitted into the loop.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let resp = CgiResponse::error(503, "connection limit reached, try again shortly");
    let _ = write_response(&mut stream, &resp, None, Some(1), false);
}

/// Hand work to the pool, or shed it if the bounded queue is full.
fn submit(inner: &Arc<ServerInner>, work: Work) {
    let notify = {
        let mut q = inner.work.lock();
        if q.len() >= inner.config.queue {
            drop(q);
            dbgw_obs::metrics().requests_shed.inc();
            let conn = match work {
                Work::Request(conn, _) => conn,
                Work::Reject(conn, _) => conn,
            };
            shed_conn(conn);
            false
        } else {
            q.push_back(work);
            dbgw_obs::metrics().queue_depth.set(q.len() as i64);
            true
        }
    };
    if notify {
        inner.ready.notify_one();
    }
}

enum Driven {
    /// Still waiting for a complete request; return it to epoll.
    Park(Conn),
    /// Submitted to the pool, rejected, or closed — the loop is done with it.
    Done,
}

/// Read whatever the socket has, then try to parse one request.
fn drive(inner: &Arc<ServerInner>, mut conn: Conn) -> Driven {
    // A request with a max-size body plus its headers must fit; anything
    // still incomplete past this is a flood.
    let buf_cap = inner.config.max_body + 64 * 1024;
    let mut chunk = [0u8; 4096];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                if conn.buf.is_empty() {
                    close_conn(conn); // clean close between requests
                } else {
                    let resp = CgiResponse::error(400, "malformed request");
                    submit(inner, Work::Reject(conn, resp));
                }
                return Driven::Done;
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                if conn.buf.len() > buf_cap {
                    break;
                }
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                close_conn(conn);
                return Driven::Done;
            }
        }
    }
    match parse_request(&mut conn.buf, &mut conn.scanned, &inner.config) {
        ParseStatus::Incomplete => {
            if conn.buf.len() > buf_cap {
                let resp = CgiResponse::error(413, "request larger than the configured limit");
                submit(inner, Work::Reject(conn, resp));
                Driven::Done
            } else {
                Driven::Park(conn)
            }
        }
        ParseStatus::Request(req) => {
            submit(inner, Work::Request(conn, req));
            Driven::Done
        }
        ParseStatus::Malformed => {
            let resp = CgiResponse::error(400, "malformed request");
            submit(inner, Work::Reject(conn, resp));
            Driven::Done
        }
        ParseStatus::TooLarge => {
            let resp = CgiResponse::error(413, "request larger than the configured limit");
            submit(inner, Work::Reject(conn, resp));
            Driven::Done
        }
    }
}

/// Register the connection for readiness under a fresh token.
fn park(
    inner: &Arc<ServerInner>,
    conn: Conn,
    parked: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    let token = *next_token;
    *next_token += 1;
    if *next_token == Poller::WAKE_TOKEN {
        *next_token = 1;
    }
    match inner
        .poller
        .register(conn.stream.as_raw_fd(), token, EPOLLIN | EPOLLRDHUP)
    {
        Ok(()) => {
            parked.insert(token, conn);
        }
        Err(_) => close_conn(conn),
    }
}

/// Accept until the listener would block.
fn accept_burst(
    inner: &Arc<ServerInner>,
    listener: &TcpListener,
    parked: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    let m = dbgw_obs::metrics();
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if m.open_connections.get() >= inner.config.max_conns as i64 {
                    refuse(stream);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Responses are written in few large segments; disabling
                // Nagle keeps keep-alive turnarounds off the delayed-ACK
                // clock (~40 ms per stall otherwise).
                let _ = stream.set_nodelay(true);
                m.open_connections.inc();
                match drive(inner, Conn::new(stream)) {
                    Driven::Park(conn) => park(inner, conn, parked, next_token),
                    Driven::Done => {}
                }
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Expire idle keep-alive connections and time out half-sent requests.
fn sweep(inner: &Arc<ServerInner>, parked: &mut HashMap<u64, Conn>) {
    let now = Instant::now();
    let mut expired = Vec::new();
    for (token, conn) in parked.iter() {
        let idle = now.duration_since(conn.last_activity);
        let limit = if conn.buf.is_empty() {
            inner.config.keepalive
        } else {
            inner.config.io_timeout
        };
        if idle >= limit {
            expired.push(*token);
        }
    }
    for token in expired {
        let Some(conn) = parked.remove(&token) else {
            continue;
        };
        let _ = inner.poller.deregister(conn.stream.as_raw_fd());
        if conn.buf.is_empty() {
            close_conn(conn); // idle expiry: nothing owed to the peer
        } else {
            // Slowloris: a partial request outlived the IO timeout.
            let resp = CgiResponse::error(408, "request timed out");
            submit(inner, Work::Reject(conn, resp));
        }
    }
}

/// The loop body: owned by one thread for the server's lifetime.
pub(crate) fn event_loop(inner: &Arc<ServerInner>, listener: TcpListener) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    if inner
        .poller
        .register(listener.as_raw_fd(), LISTENER_TOKEN, EPOLLIN)
        .is_err()
    {
        return;
    }
    let m = dbgw_obs::metrics();
    let mut parked: HashMap<u64, Conn> = HashMap::new();
    let mut next_token: u64 = 1;
    let mut events = [EpollEvent::zeroed(); 64];
    loop {
        // 50 ms tick bounds both sweep latency and stop-flag latency.
        let n = inner.poller.wait(&mut events, 50).unwrap_or(0);
        for ev in events.iter().take(n) {
            let token = ev.data; // copy out: the struct is packed on x86-64
            if token == LISTENER_TOKEN {
                accept_burst(inner, &listener, &mut parked, &mut next_token);
            } else if token == Poller::WAKE_TOKEN {
                inner.poller.drain_wake();
            } else if let Some(conn) = parked.remove(&token) {
                let _ = inner.poller.deregister(conn.stream.as_raw_fd());
                match drive(inner, conn) {
                    Driven::Park(conn) => park(inner, conn, &mut parked, &mut next_token),
                    Driven::Done => {}
                }
            }
        }
        // Re-park (or re-drive) keep-alive connections workers handed back.
        let returned: Vec<Conn> = inner.returned.lock().drain(..).collect();
        for mut conn in returned {
            conn.last_activity = Instant::now();
            match drive(inner, conn) {
                Driven::Park(conn) => park(inner, conn, &mut parked, &mut next_token),
                Driven::Done => {}
            }
        }
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        sweep(inner, &mut parked);
        m.idle_connections
            .set(parked.values().filter(|c| c.buf.is_empty()).count() as i64);
    }
    let _ = inner.poller.deregister(listener.as_raw_fd());
    for (_, conn) in parked.drain() {
        let _ = inner.poller.deregister(conn.stream.as_raw_fd());
        close_conn(conn);
    }
    m.idle_connections.set(0);
}
