//! The evented HTTP/1.1 edge fronting the gateway.
//!
//! Stands in for the NCSA/IBM httpd of Figure 1, but upgraded past the 1996
//! close-per-request model: connections are **persistent** (`keep-alive`) and
//! parked in an epoll-driven event loop ([`crate::evloop`]) while idle, so
//! ten thousand open browsers cost file descriptors, not threads. Only a
//! connection with a *fully parsed* request occupies one of the fixed pool of
//! workers (`DBGW_WORKERS`); the bounded work queue (`DBGW_QUEUE`) still
//! sheds overload with `503 Retry-After`, and shutdown still drains queued
//! and in-flight requests before joining the pool.
//!
//! Responses are HTTP/1.1. Small pages go out with `Content-Length` exactly
//! as before; a CGI report that crosses the streaming watermark
//! ([`ServerConfig::stream_watermark`]) switches to `Transfer-Encoding: chunked` and
//! flushes rows as the executor yields them, so time-to-first-byte on a large
//! report no longer pays the full render. HTTP/1.0 clients (and conditional
//! GETs, which need the whole body for the `ETag`) keep the buffered path.

use crate::auth::{AuthDecision, BasicAuth};
use crate::evloop::{Conn, Work};
use crate::gateway::{BodySink, Gateway, Handled};
use crate::log::{AccessLog, LogEntry};
use crate::net::Poller;
use crate::request::{CgiRequest, CgiResponse, Method};
use crate::sync::{Mutex, RwLock};
use dbgw_core::PageSink;
use dbgw_obs::{export, CancelReason, RequestCtx};
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The CGI program mount point, as in the paper's URLs.
pub const CGI_PREFIX: &str = "/cgi-bin/db2www";

/// The admin metrics page: HTML by default, Prometheus-style text with
/// `?format=prometheus`.
pub const STATS_PATH: &str = "/stats";

/// Worker-pool, connection, and socket limits. The variables named below are
/// read by [`crate::Config`]; the other fields are set in code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads serving requests (`DBGW_WORKERS`).
    pub workers: usize,
    /// Parsed requests waiting for a worker before the server sheds load
    /// with 503 (`DBGW_QUEUE`).
    pub queue: usize,
    /// Largest request body accepted before answering 413 (`DBGW_MAX_BODY`).
    pub max_body: usize,
    /// Largest number of request headers accepted.
    pub max_headers: usize,
    /// The socket write timeout, set once at accept: how long a worker's
    /// write may wait on a peer that stops reading. Also the patience for a
    /// *partial* request parked in the event loop (a slowloris peer gets 408
    /// when it expires).
    pub io_timeout: Duration,
    /// How long an idle keep-alive connection may stay parked before the
    /// server closes it (`DBGW_KEEPALIVE_MS`).
    pub keepalive: Duration,
    /// Requests served on one connection before it is closed.
    pub max_requests: u64,
    /// Open-connection cap (`DBGW_MAX_CONNS`); connections beyond it are
    /// refused with 503 at accept time.
    pub max_conns: usize,
    /// Bytes of rendered page buffered before a CGI response commits to
    /// chunked streaming. Pages that finish under the watermark are sent
    /// with `Content-Length` as before.
    pub stream_watermark: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue: 64,
            max_body: 1 << 20,
            max_headers: 100,
            io_timeout: Duration::from_secs(10),
            keepalive: Duration::from_secs(5),
            max_requests: 1000,
            max_conns: 10_000,
            stream_watermark: 16 * 1024,
        }
    }
}

/// A running server.
pub struct HttpServer {
    inner: Arc<ServerInner>,
    addr: std::net::SocketAddr,
    evloop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

pub(crate) struct ServerInner {
    pub(crate) gateway: Gateway,
    pub(crate) config: ServerConfig,
    /// What [`HttpServer::start_from_config`] applied, for display on `/stats`.
    boot_config: RwLock<Option<crate::Config>>,
    pub(crate) static_pages: RwLock<HashMap<String, String>>,
    pub(crate) auth: RwLock<Option<BasicAuth>>,
    pub(crate) log: AccessLog,
    pub(crate) stop: AtomicBool,
    /// Parsed requests (and protocol rejects) awaiting a worker.
    pub(crate) work: Mutex<VecDeque<Work>>,
    pub(crate) ready: Condvar,
    /// The event loop's readiness multiplexer. Workers re-arm the
    /// connections they park; shutdown uses its eventfd to wake the loop.
    pub(crate) poller: Poller,
    /// Connections waiting for their next bytes, keyed by fd (which is
    /// also their epoll token). The loop takes one out when it fires.
    pub(crate) parked: Mutex<HashMap<RawFd, Conn>>,
}

impl HttpServer {
    /// Bind to `127.0.0.1:port` (0 picks a free port) and start accepting,
    /// with the default pool configuration.
    pub fn start(gateway: Gateway, port: u16) -> std::io::Result<HttpServer> {
        HttpServer::start_with_config(gateway, port, ServerConfig::default())
    }

    /// Bind and start with an explicit pool configuration.
    pub fn start_with_config(
        gateway: Gateway,
        port: u16,
        config: ServerConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let inner = Arc::new(ServerInner {
            gateway,
            config,
            boot_config: RwLock::new(None),
            static_pages: RwLock::new(HashMap::new()),
            auth: RwLock::new(None),
            log: AccessLog::new(),
            stop: AtomicBool::new(false),
            work: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            poller,
            parked: Mutex::new(HashMap::new()),
        });
        let mut workers = Vec::with_capacity(inner.config.workers);
        for _ in 0..inner.config.workers {
            let worker_inner = Arc::clone(&inner);
            workers.push(std::thread::spawn(move || worker_loop(&worker_inner)));
        }
        let ev_inner = Arc::clone(&inner);
        let evloop_thread =
            std::thread::spawn(move || crate::evloop::event_loop(&ev_inner, listener));
        Ok(HttpServer {
            inner,
            addr,
            evloop_thread: Some(evloop_thread),
            workers,
        })
    }

    /// Bind and start as the boot [`crate::Config`] says: its settings are
    /// applied to `gateway` ([`Gateway::configured`]) and to the pool, and the
    /// same object is what `/stats` displays, so the page cannot disagree
    /// with what is in force.
    pub fn start_from_config(
        gateway: Gateway,
        port: u16,
        config: &crate::Config,
    ) -> std::io::Result<HttpServer> {
        let gateway = gateway.configured(config);
        let server = HttpServer::start_with_config(gateway, port, config.server.clone())?;
        *server.inner.boot_config.write() = Some(config.clone());
        Ok(server)
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Register a static page at `path` (must start with `/`).
    pub fn add_static_page(&self, path: &str, html: &str) {
        self.inner
            .static_pages
            .write()
            .insert(path.to_owned(), html.to_owned());
    }

    /// The gateway being served.
    pub fn gateway(&self) -> &Gateway {
        &self.inner.gateway
    }

    /// Install HTTP Basic authentication (httpd-style path protection, §5).
    pub fn set_auth(&self, auth: BasicAuth) {
        *self.inner.auth.write() = Some(auth);
    }

    /// The shared access log (Common Log Format entries).
    pub fn access_log(&self) -> AccessLog {
        self.inner.log.clone()
    }

    /// Stop accepting, drain queued and in-flight requests, and join the
    /// event loop and worker pool.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        // The event loop re-checks `stop` after every wakeup.
        self.inner.poller.wake();
        if let Some(handle) = self.evloop_thread.take() {
            let _ = handle.join();
        }
        // Wake every waiting worker; each drains the queue, finishes its
        // in-flight request, and exits.
        drop(self.inner.work.lock());
        self.inner.ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        for (_, conn) in self.inner.parked.lock().drain() {
            crate::evloop::close_conn(conn);
        }
        dbgw_obs::metrics().idle_connections.set(0);
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One pool worker: serve queued work until stopped *and* the queue is
/// drained.
fn worker_loop(inner: &Arc<ServerInner>) {
    loop {
        let work = {
            let mut q = inner.work.lock();
            loop {
                if let Some(w) = q.pop_front() {
                    dbgw_obs::metrics().queue_depth.set(q.len() as i64);
                    break Some(w);
                }
                if inner.stop.load(Ordering::SeqCst) {
                    break None;
                }
                // Bounded wait so a missed wakeup can never wedge shutdown.
                q = match inner.ready.wait_timeout(q, Duration::from_millis(50)) {
                    Ok((guard, _)) => guard,
                    Err(poisoned) => poisoned.into_inner().0,
                };
            }
        };
        let Some(work) = work else { return };
        match work {
            Work::Reject(mut conn, response) => {
                let _ = write_response(&mut conn.stream, &response, None, false);
                let remote = peer_ip(&conn.stream);
                inner.log.record(LogEntry {
                    remote,
                    user: "-".to_owned(),
                    timestamp: 0,
                    request_line: "- - -".to_owned(),
                    status: response.status,
                    bytes: response.body.len(),
                });
                crate::evloop::close_conn(conn);
            }
            Work::Request(conn, req) => serve_connection(inner, conn, req),
        }
    }
}

/// Serve one parsed request, then any complete pipelined requests already
/// buffered on the connection, then either close it or park it to await the
/// next request.
fn serve_connection(inner: &ServerInner, mut conn: Conn, mut req: HttpRequest) {
    let m = dbgw_obs::metrics();
    loop {
        if conn.served > 0 {
            m.keepalive_reuses.inc();
        }
        m.requests_in_flight.inc();
        let keep = serve_request(inner, &mut conn, req);
        m.requests_in_flight.dec();
        conn.served += 1;
        if !keep || conn.served >= inner.config.max_requests || inner.stop.load(Ordering::SeqCst) {
            crate::evloop::close_conn(conn);
            return;
        }
        // Pipelined peer: the next request may already be buffered whole.
        match parse_request(&mut conn.buf, &mut conn.scanned, &inner.config) {
            ParseStatus::Request(next) => {
                m.pipelined_requests.inc();
                req = next;
            }
            ParseStatus::Incomplete => break,
            ParseStatus::Malformed => {
                let resp = CgiResponse::error(400, "malformed request");
                let _ = write_response(&mut conn.stream, &resp, None, false);
                crate::evloop::close_conn(conn);
                return;
            }
            ParseStatus::TooLarge => {
                let resp = CgiResponse::error(413, "request larger than the configured limit");
                let _ = write_response(&mut conn.stream, &resp, None, false);
                crate::evloop::close_conn(conn);
                return;
            }
        }
    }
    conn.last_activity = Instant::now();
    crate::evloop::park(inner, conn);
}

fn peer_ip(stream: &TcpStream) -> String {
    stream
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "-".into())
}

/// Serve one request on `conn`. Returns whether the connection may be kept
/// alive for another request.
fn serve_request(inner: &ServerInner, conn: &mut Conn, req: HttpRequest) -> bool {
    let started = Instant::now();
    let remote = peer_ip(&conn.stream);
    let request_line = format!("{} {} {}", req.method, req.target, req.version.as_str());
    let wants_keep = req.keep_alive()
        && conn.served + 1 < inner.config.max_requests
        && !inner.stop.load(Ordering::SeqCst);
    let streamable = req.version == Version::H11;
    // Either a complete response still to send, or — once the CGI path has
    // streamed the body itself — nothing but the log line.
    let (response, user, realm) = match route(inner, req) {
        Routed::Done {
            response,
            user,
            realm,
        } => (response, user, realm),
        Routed::Cgi { cgi, user } => {
            // The request context is created here, at the HTTP edge, so the
            // deadline covers the whole request.
            let ctx = inner.gateway.make_ctx(cgi.request_id);
            // Conditional GETs need the complete body for the ETag check,
            // and HTTP/1.0 clients cannot parse chunked framing: both keep
            // the fully buffered path.
            let watermark = if cgi.if_none_match.is_some() || !streamable {
                usize::MAX
            } else {
                inner.config.stream_watermark
            };
            let mut sink =
                ResponseSink::new(&mut conn.stream, &ctx, watermark, wants_keep, started);
            match inner.gateway.handle_streaming(&cgi, &ctx, &mut sink) {
                Handled::Full(response) => (response, user, None),
                Handled::Streamed { failed } => {
                    let finished = sink.finish().is_ok();
                    inner.log.record(LogEntry {
                        remote,
                        user,
                        timestamp: 0,
                        request_line,
                        status: 200,
                        bytes: sink.bytes_out(),
                    });
                    // A truncated stream must not be reused: the client would
                    // misparse the next response as the tail of this one.
                    return wants_keep && finished && !failed;
                }
            }
        }
    };
    dbgw_obs::metrics()
        .ttfb_ns
        .observe_ns(started.elapsed().as_nanos() as u64);
    let sent = write_response(&mut conn.stream, &response, realm.as_deref(), wants_keep).is_ok();
    inner.log.record(LogEntry {
        remote,
        user,
        timestamp: 0,
        request_line,
        status: response.status,
        bytes: response.body.len(),
    });
    wants_keep && sent
}

/// The protocol version of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Version {
    /// HTTP/1.0 — close-per-request unless `Connection: keep-alive`.
    H10,
    /// HTTP/1.1 — persistent unless `Connection: close`.
    H11,
}

impl Version {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Version::H10 => "HTTP/1.0",
            Version::H11 => "HTTP/1.1",
        }
    }
}

/// A parsed HTTP request.
pub(crate) struct HttpRequest {
    pub(crate) method: String,
    pub(crate) target: String,
    pub(crate) version: Version,
    pub(crate) headers: Vec<(String, String)>,
    pub(crate) body: String,
}

impl HttpRequest {
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Persistent-connection semantics: an explicit `Connection` header wins;
    /// otherwise HTTP/1.1 defaults to keep-alive and HTTP/1.0 to close.
    pub(crate) fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version == Version::H11,
        }
    }
}

/// What one parse attempt over the connection's buffer produced.
pub(crate) enum ParseStatus {
    /// Not enough bytes yet; keep the connection parked.
    Incomplete,
    /// One complete request, consumed from the buffer (pipelined successors
    /// stay buffered).
    Request(HttpRequest),
    /// Not parseable as HTTP.
    Malformed,
    /// Headers or declared body size exceed the configured limits.
    TooLarge,
}

/// Try to parse one complete request from the front of `buf`, consuming it on
/// success. Incremental: callers append bytes as they arrive and re-try,
/// passing back `scanned`, the prefix of `buf` already searched for the end
/// of the header block, so a header dribbled in a few bytes at a time is
/// scanned once rather than once per arrival. It is reset when a request is
/// consumed.
pub(crate) fn parse_request(
    buf: &mut Vec<u8>,
    scanned: &mut usize,
    config: &ServerConfig,
) -> ParseStatus {
    let Some(header_end) = find_header_end(buf, scanned) else {
        if buf.len() > 64 * 1024 {
            return ParseStatus::TooLarge; // header flood
        }
        return ParseStatus::Incomplete;
    };
    let header_text = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = header_text.lines();
    let request_line = lines.next().unwrap_or_default().to_owned();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let target = parts.next().unwrap_or("").to_owned();
    let version = match parts.next() {
        Some("HTTP/1.1") => Version::H11,
        _ => Version::H10,
    };
    if method.is_empty() || target.is_empty() {
        return ParseStatus::Malformed;
    }
    let mut content_length: Option<usize> = None;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if headers.len() >= config.max_headers {
                return ParseStatus::TooLarge;
            }
            let (name, value) = (name.trim(), value.trim());
            // Where the body ends must be certain, or its bytes would be read
            // as the next pipelined request (RFC 9112 §6.3): refuse any
            // transfer coding (we decode none) and any length that is not all
            // digits, overflows, or disagrees with an earlier one.
            if name.eq_ignore_ascii_case("transfer-encoding") {
                return ParseStatus::Malformed;
            }
            if name.eq_ignore_ascii_case("content-length") {
                let digits = value.bytes().all(|b| b.is_ascii_digit());
                match value.parse() {
                    Ok(n) if digits && content_length.unwrap_or(n) == n => content_length = Some(n),
                    _ => return ParseStatus::Malformed,
                }
            }
            headers.push((name.to_owned(), value.to_owned()));
        }
    }
    let content_length = content_length.unwrap_or(0);
    // Refuse oversized bodies up front instead of trusting Content-Length to
    // size a buffer: the declared length is a client-controlled number.
    if content_length > config.max_body {
        return ParseStatus::TooLarge;
    }
    let body_start = header_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return ParseStatus::Incomplete;
    }
    let body = String::from_utf8_lossy(&buf[body_start..total]).into_owned();
    buf.drain(..total);
    *scanned = 0;
    ParseStatus::Request(HttpRequest {
        method,
        target,
        version,
        headers,
        body,
    })
}

/// Offset of the `\r\n\r\n` ending the header block, searching only past
/// `scanned` (less the 3 bytes a terminator split across reads may have left
/// there), and recording how far the search got.
fn find_header_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    let from = scanned.saturating_sub(3);
    match buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
        Some(at) => {
            *scanned = from + at;
            Some(from + at)
        }
        None => {
            *scanned = buf.len();
            None
        }
    }
}

/// Where a request goes after auth and method checks.
enum Routed {
    /// Fully answered locally (static page, `/stats`, auth challenge, error).
    Done {
        response: CgiResponse,
        user: String,
        realm: Option<String>,
    },
    /// A CGI invocation for the gateway (the streaming-capable path).
    Cgi { cgi: CgiRequest, user: String },
}

fn route(inner: &ServerInner, req: HttpRequest) -> Routed {
    let (path, query) = match req.target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (req.target.as_str(), ""),
    };
    // Authentication before anything else, like httpd's access checks.
    let mut user = "-".to_owned();
    if let Some(guard) = inner.auth.read().as_ref() {
        match guard.check(path, req.header("authorization")) {
            AuthDecision::Open => {}
            AuthDecision::Allow(name) => user = name,
            AuthDecision::Challenge(realm) => {
                return Routed::Done {
                    response: CgiResponse::error(401, "authorization required"),
                    user,
                    realm: Some(realm),
                };
            }
        }
    }
    let method = match req.method.as_str() {
        "GET" => Method::Get,
        "POST" => Method::Post,
        _ => {
            return Routed::Done {
                response: CgiResponse::error(405, "only GET and POST are supported"),
                user,
                realm: None,
            }
        }
    };
    // CGI dispatch (also accept the paper's db2www.exe spelling; the longer
    // prefix must be tried first, and the remainder must be a real subpath).
    for prefix in ["/cgi-bin/db2www.exe", CGI_PREFIX] {
        if let Some(path_info) = path.strip_prefix(prefix).filter(|p| p.starts_with('/')) {
            let cgi = CgiRequest {
                method,
                path_info: path_info.to_owned(),
                query_string: query.to_owned(),
                if_none_match: req.header("if-none-match").map(str::to_owned),
                body: req.body,
                request_id: dbgw_obs::next_request_id(),
            };
            return Routed::Cgi { cgi, user };
        }
    }
    if path == STATS_PATH {
        return Routed::Done {
            response: stats_response(inner, query),
            user,
            realm: None,
        };
    }
    if let Some(page) = inner.static_pages.read().get(path) {
        return Routed::Done {
            response: CgiResponse::html(page.clone()),
            user,
            realm: None,
        };
    }
    Routed::Done {
        response: CgiResponse::error(404, &format!("no page at {path}")),
        user,
        realm: None,
    }
}

/// How many digests the `/stats` views show (top-N by total time).
const STATS_DIGEST_TOP_N: usize = 20;

/// The `/stats` admin page: process metrics, the query-digest table, the
/// sampled time series with SLO attainment, and the slow-query log as HTML —
/// or the raw Prometheus-style text with `?format=prometheus`.
fn stats_response(inner: &ServerInner, query: &str) -> CgiResponse {
    let m = dbgw_obs::metrics();
    let points = inner.gateway.sampler().points();
    let slo = dbgw_obs::slo::evaluate(&points, &inner.gateway.slo_config());
    if query
        .split('&')
        .any(|pair| pair == "format=prometheus" || pair == "format=text")
    {
        let mut body = export::render_prometheus(m);
        body.push_str(&export::digest_prometheus(
            dbgw_obs::digests(),
            STATS_DIGEST_TOP_N,
        ));
        body.push_str(&export::slo_prometheus(&slo));
        return CgiResponse {
            status: 200,
            content_type: "text/plain".into(),
            body,
            headers: Vec::new(),
        };
    }
    let mut body = String::from(
        "<HTML><HEAD><TITLE>Gateway Statistics</TITLE></HEAD>\n<BODY><H1>Gateway Statistics</H1>\n",
    );
    // One row per exported family, labelled for people and named as the
    // Prometheus text names it, so the two views cannot drift apart.
    let row = |label: &str, value: String, name: &str| {
        format!("<TR><TD>{label}</TD><TD>{value}</TD><TD><CODE>{name}</CODE></TD></TR>\n")
    };
    body.push_str("<H2>Counters</H2>\n<TABLE BORDER=1>\n");
    for (name, label, _, counter) in export::counters(m) {
        body.push_str(&row(label, counter.get().to_string(), name));
    }
    body.push_str("</TABLE>\n<H2>Pool</H2>\n<TABLE BORDER=1>\n");
    for (name, label, _, gauge) in export::gauges(m) {
        body.push_str(&row(label, gauge.get().to_string(), name));
    }
    let age = export::snapshot_age_ms(m).to_string();
    body.push_str(&row("snapshot age ms", age, "dbgw_snapshot_age_ms"));
    body.push_str("</TABLE>\n<H2>Latency</H2>\n<TABLE BORDER=1>\n");
    for (name, label, _, h) in export::histograms(m) {
        let count = h.count();
        let mean_ms = h.sum_ns() as f64 / count.max(1) as f64 / 1e6;
        let value = format!("{count} observations, mean {mean_ms:.3} ms");
        body.push_str(&row(label, value, name));
    }
    body.push_str(
        "</TABLE>\n<H2>SQLCODEs</H2>\n<TABLE BORDER=1>\n\
         <TR><TH>SQLCODE</TH><TH>errors</TH><TH><CODE>dbgw_sqlcode_errors_total</CODE></TH></TR>\n",
    );
    for (code, count) in m.sqlcode_errors.snapshot() {
        body.push_str(&format!("<TR><TD>{code}</TD><TD>{count}</TD></TR>\n"));
    }
    body.push_str("</TABLE>\n");
    push_digest_table(&mut body);
    push_series_section(&mut body, &points, inner.gateway.sampler().interval_ms());
    push_slo_section(&mut body, &slo);
    push_config_section(&mut body, inner.boot_config.read().as_ref());
    let slow = inner.gateway.slow_queries().entries();
    if !slow.is_empty() {
        body.push_str("<H2>Slow queries</H2>\n<UL>\n");
        for q in slow.iter().rev().take(20) {
            body.push_str(&format!(
                "<LI><CODE>{}</CODE>\n",
                dbgw_html::escape_text(&q.to_line())
            ));
        }
        body.push_str("</UL>\n");
    }
    body.push_str("<P><A HREF=\"/stats?format=prometheus\">prometheus text</A></P>\n");
    body.push_str("</BODY></HTML>\n");
    CgiResponse::html(body)
}

/// The pg_stat_statements-style digest table: top-N normalized statements by
/// total execution time, with latency quantiles from each digest's histogram.
fn push_digest_table(body: &mut String) {
    let store = dbgw_obs::digests();
    let top = store.top_by_total_time(STATS_DIGEST_TOP_N);
    if top.is_empty() {
        return;
    }
    body.push_str(
        "<H2>Query digests</H2>\n<TABLE BORDER=1>\n\
         <TR><TH>digest</TH><TH>statement</TH><TH>calls</TH><TH>errors</TH>\
         <TH>rows ret</TH><TH>rows scan</TH><TH>cache hit%</TH>\
         <TH>mean ms</TH><TH>p99 ms</TH><TH>total ms</TH><TH>latch ms</TH></TR>\n",
    );
    for d in &top {
        let lookups = d.cache_hits + d.cache_misses;
        let hit_pct = if lookups == 0 {
            "-".to_owned()
        } else {
            format!("{:.0}", d.cache_hits as f64 * 100.0 / lookups as f64)
        };
        let mean_ms = d.total_ns as f64 / d.calls.max(1) as f64 / 1e6;
        let p99_ms = dbgw_obs::digest::quantile_from_buckets(&d.buckets, 0.99) as f64 / 1e6;
        body.push_str(&format!(
            "<TR><TD><CODE>{:016x}</CODE></TD><TD><CODE>{}</CODE></TD>\
             <TD>{}</TD><TD>{}</TD><TD>{}</TD><TD>{}</TD><TD>{hit_pct}</TD>\
             <TD>{mean_ms:.3}</TD><TD>{p99_ms:.3}</TD><TD>{:.3}</TD><TD>{:.3}</TD></TR>\n",
            d.key,
            dbgw_html::escape_text(&d.text),
            d.calls,
            d.errors,
            d.rows_returned,
            d.rows_scanned,
            d.total_ns as f64 / 1e6,
            d.latch_wait_ns as f64 / 1e6,
        ));
    }
    body.push_str(&format!(
        "</TABLE>\n<P>{} digest{} tracked.</P>\n",
        store.len(),
        if store.len() == 1 { "" } else { "s" }
    ));
}

/// Sparkline history from the sampled ring: request rate, p99, error rate,
/// and cache hit ratio per interval, oldest to newest.
fn push_series_section(
    body: &mut String,
    points: &[dbgw_obs::series::SamplePoint],
    interval_ms: u64,
) {
    if points.is_empty() {
        return;
    }
    use dbgw_obs::series::sparkline;
    body.push_str(&format!(
        "<H2>History</H2>\n<P>{} sample{} at {interval_ms} ms intervals (oldest first)</P>\n\
         <TABLE BORDER=1>\n",
        points.len(),
        if points.len() == 1 { "" } else { "s" }
    ));
    let latest = points.last().expect("non-empty");
    let rows: [(&str, Vec<f64>, String); 4] = [
        (
            "req/s",
            points.iter().map(|p| p.req_rate).collect(),
            format!("{:.1}", latest.req_rate),
        ),
        (
            "p99 ms",
            points.iter().map(|p| p.p99_ms).collect(),
            format!("{:.3}", latest.p99_ms),
        ),
        (
            "error rate",
            points.iter().map(|p| p.error_rate).collect(),
            format!("{:.3}", latest.error_rate),
        ),
        (
            "cache hit ratio",
            points.iter().map(|p| p.cache_hit_ratio).collect(),
            format!("{:.2}", latest.cache_hit_ratio),
        ),
    ];
    for (name, values, latest) in rows {
        body.push_str(&format!(
            "<TR><TD>{name}</TD><TD><CODE>{}</CODE></TD><TD>latest {latest}</TD></TR>\n",
            sparkline(&values)
        ));
    }
    body.push_str("</TABLE>\n");
}

/// SLO attainment and burn rate over the sampled window.
fn push_slo_section(body: &mut String, slo: &dbgw_obs::slo::SloReport) {
    if slo.p99_target_ms.is_none() && slo.error_budget.is_none() {
        return;
    }
    body.push_str("<H2>SLO</H2>\n<TABLE BORDER=1>\n");
    body.push_str(&format!(
        "<TR><TD>window</TD><TD>{} samples ({} busy), {} requests, {} errors</TD></TR>\n",
        slo.samples, slo.busy_samples, slo.requests, slo.errors
    ));
    if let Some(target) = slo.p99_target_ms {
        let att = match slo.latency_attainment_pct {
            Some(pct) => format!("{pct:.1}% of busy samples met it"),
            None => "no traffic yet".to_owned(),
        };
        body.push_str(&format!(
            "<TR><TD>p99 target</TD><TD>{target} ms &mdash; {att}</TD></TR>\n"
        ));
    }
    if let Some(budget) = slo.error_budget {
        let burn = slo.burn_rate.unwrap_or(0.0);
        let remaining = slo.budget_remaining_pct.unwrap_or(100.0);
        body.push_str(&format!(
            "<TR><TD>error budget</TD><TD>{budget} &mdash; burn rate {burn:.2}&times; \
             ({remaining:.1}% of budget remaining)</TD></TR>\n",
        ));
    }
    body.push_str("</TABLE>\n");
}

/// The configuration the process booted with: every accepted `DBGW_*` name,
/// its effective value, and whether the environment set it.
fn push_config_section(body: &mut String, config: Option<&crate::Config>) {
    let Some(config) = config else { return };
    body.push_str(
        "<H2>Configuration</H2>\n<TABLE BORDER=1>\n\
         <TR><TH>variable</TH><TH>value</TH><TH>origin</TH></TR>\n",
    );
    for (name, value, set) in config.settings() {
        body.push_str(&format!(
            "<TR><TD>{name}</TD><TD>{}</TD><TD>{}</TD></TR>\n",
            dbgw_html::escape_text(&value),
            if set { "set" } else { "default" }
        ));
    }
    body.push_str("</TABLE>\n");
}

/// How a response body is framed on the wire.
pub(crate) enum Framing {
    /// `Content-Length: n` — the complete-body path.
    Length(usize),
    /// `Transfer-Encoding: chunked` — the streaming path.
    Chunked,
}

/// The one place status lines and standard headers are emitted: every
/// response — success, error, shed, streamed — goes through
/// [`ResponseHead::emit`], so the protocol version and `Connection` semantics
/// cannot drift between paths.
pub(crate) struct ResponseHead<'r> {
    status: u16,
    reason: &'r str,
    content_type: &'r str,
    keep_alive: bool,
    realm: Option<&'r str>,
    retry_after: Option<u64>,
    extra: &'r [(String, String)],
}

impl<'r> ResponseHead<'r> {
    pub(crate) fn new(
        status: u16,
        reason: &'r str,
        content_type: &'r str,
        keep_alive: bool,
    ) -> ResponseHead<'r> {
        ResponseHead {
            status,
            reason,
            content_type,
            keep_alive,
            realm: None,
            retry_after: None,
            extra: &[],
        }
    }

    /// Render the status line and headers, terminated by the blank line.
    pub(crate) fn emit(&self, framing: Framing) -> String {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}; charset=utf-8\r\n",
            self.status, self.reason, self.content_type
        );
        match framing {
            Framing::Length(n) => head.push_str(&format!("Content-Length: {n}\r\n")),
            Framing::Chunked => head.push_str("Transfer-Encoding: chunked\r\n"),
        }
        head.push_str(if self.keep_alive {
            "Connection: keep-alive\r\n"
        } else {
            "Connection: close\r\n"
        });
        if let Some(realm) = self.realm {
            head.push_str(&format!("WWW-Authenticate: Basic realm=\"{realm}\"\r\n"));
        }
        if let Some(seconds) = self.retry_after {
            head.push_str(&format!("Retry-After: {seconds}\r\n"));
        }
        for (name, value) in self.extra {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        head
    }
}

/// Write a complete response with `Content-Length` framing.
pub(crate) fn write_response(
    stream: &mut TcpStream,
    resp: &CgiResponse,
    challenge_realm: Option<&str>,
    keep_alive: bool,
) -> std::io::Result<()> {
    stream.write_all(&response_bytes(resp, challenge_realm, None, keep_alive))?;
    stream.flush()
}

/// A complete response with `Content-Length` framing, as it goes on the wire.
pub(crate) fn response_bytes(
    resp: &CgiResponse,
    challenge_realm: Option<&str>,
    retry_after: Option<u64>,
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = ResponseHead::new(resp.status, resp.reason(), &resp.content_type, keep_alive);
    head.realm = challenge_realm;
    head.retry_after = retry_after;
    head.extra = &resp.headers;
    let head = head.emit(Framing::Length(resp.body.len()));
    // Head and body leave in one write so a keep-alive peer never waits a
    // delayed-ACK round for the tail segment (Nagle holds back the second
    // small write until the first is acknowledged).
    let mut wire = Vec::with_capacity(head.len() + resp.body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(resp.body.as_bytes());
    wire
}

/// The streaming response writer: a [`PageSink`] over the connection.
///
/// Buffers rendered text until the watermark, then commits the response as
/// `Transfer-Encoding: chunked` and flushes a chunk per watermark-full
/// thereafter. A page that finishes under the watermark never commits — the
/// gateway takes the buffer back and the response goes out with
/// `Content-Length` (and full `ETag` semantics) instead. A failed socket
/// write cancels the request context, so the executor stops paging rows for
/// a browser that hung up.
pub(crate) struct ResponseSink<'a> {
    stream: &'a mut TcpStream,
    ctx: &'a Arc<RequestCtx>,
    watermark: usize,
    keep_alive: bool,
    started: Instant,
    buf: String,
    committed: bool,
    dead: bool,
    bytes_out: usize,
}

impl<'a> ResponseSink<'a> {
    pub(crate) fn new(
        stream: &'a mut TcpStream,
        ctx: &'a Arc<RequestCtx>,
        watermark: usize,
        keep_alive: bool,
        started: Instant,
    ) -> ResponseSink<'a> {
        ResponseSink {
            stream,
            ctx,
            watermark,
            keep_alive,
            started,
            buf: String::new(),
            committed: false,
            dead: false,
            bytes_out: 0,
        }
    }

    /// Body bytes flushed to the socket so far (for the access log).
    pub(crate) fn bytes_out(&self) -> usize {
        self.bytes_out
    }

    /// Commit (if not yet) and flush the buffered text as one chunk.
    fn flush_pending(&mut self) -> std::io::Result<()> {
        // One write per flush: head + chunk framing + data go out in a
        // single segment so Nagle/delayed-ACK never stalls the stream.
        let mut wire = Vec::with_capacity(self.buf.len() + 256);
        if !self.committed {
            let m = dbgw_obs::metrics();
            m.ttfb_ns
                .observe_ns(self.started.elapsed().as_nanos() as u64);
            m.responses_streamed.inc();
            let head = ResponseHead::new(200, "OK", "text/html", self.keep_alive);
            wire.extend_from_slice(head.emit(Framing::Chunked).as_bytes());
            self.committed = true;
        }
        if !self.buf.is_empty() {
            wire.extend_from_slice(format!("{:x}\r\n", self.buf.len()).as_bytes());
            wire.extend_from_slice(self.buf.as_bytes());
            wire.extend_from_slice(b"\r\n");
            self.bytes_out += self.buf.len();
            self.buf.clear();
        }
        self.stream.write_all(&wire)?;
        self.stream.flush()
    }

    /// A socket write failed: the client is gone. Cancel the request so the
    /// executor stops producing rows nobody will read.
    fn mark_dead(&mut self) -> CancelReason {
        self.dead = true;
        self.ctx.cancel();
        dbgw_obs::metrics().client_disconnects.inc();
        CancelReason::Cancelled
    }

    /// Flush any tail and terminate the chunked stream.
    pub(crate) fn finish(&mut self) -> std::io::Result<()> {
        if self.dead {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "client disconnected mid-stream",
            ));
        }
        self.flush_pending()?;
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

impl PageSink for ResponseSink<'_> {
    fn push(&mut self, text: &str) -> Result<(), CancelReason> {
        if self.dead {
            return Err(CancelReason::Cancelled);
        }
        self.buf.push_str(text);
        if self.buf.len() >= self.watermark {
            self.flush_pending().map_err(|_| self.mark_dead())?;
        }
        Ok(())
    }
}

impl BodySink for ResponseSink<'_> {
    fn committed(&self) -> bool {
        self.committed
    }

    fn take(&mut self) -> String {
        std::mem::take(&mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use dbgw_testkit::gen::{ascii, bytes, ident, usizes, vec_of};
    use dbgw_testkit::{prop_assert, prop_assert_eq, props};

    fn server() -> HttpServer {
        let db = minisql::Database::new();
        db.run_script(
            "CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80));
             INSERT INTO urldb VALUES ('http://www.ibm.com', 'IBM');",
        )
        .unwrap();
        let gw = Gateway::new(db);
        gw.add_macro(
            "q.d2w",
            "%SQL{ SELECT url, title FROM urldb %}\n\
             %HTML_INPUT{<FORM METHOD=\"post\" ACTION=\"/cgi-bin/db2www/q.d2w/report\">\
             <INPUT NAME=\"SEARCH\"></FORM>%}\n\
             %HTML_REPORT{%EXEC_SQL%}",
        )
        .unwrap();
        let server = HttpServer::start_with_config(gw, 0, ServerConfig::default()).unwrap();
        server.add_static_page("/", "<HTML><BODY>home</BODY></HTML>");
        server
    }

    #[test]
    fn serves_static_and_cgi() {
        let server = server();
        let client = HttpClient::new(server.addr());
        let home = client.get("/").unwrap();
        assert_eq!(home.status, 200);
        assert!(home.body.contains("home"));

        let form = client.get("/cgi-bin/db2www/q.d2w/input").unwrap();
        assert!(form.body.contains("NAME=\"SEARCH\""));

        let report = client
            .post("/cgi-bin/db2www/q.d2w/report", "SEARCH=ib")
            .unwrap();
        assert!(report.body.contains("http://www.ibm.com"));
        server.shutdown();
    }

    #[test]
    fn missing_page_404_and_bad_method() {
        let server = server();
        let client = HttpClient::new(server.addr());
        assert_eq!(client.get("/nowhere").unwrap().status, 404);
        let raw = client
            .raw("PUT /cgi-bin/db2www/q.d2w/input HTTP/1.0\r\n\r\n")
            .unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn exe_spelling_accepted() {
        let server = server();
        let client = HttpClient::new(server.addr());
        let resp = client.get("/cgi-bin/db2www.exe/q.d2w/input").unwrap();
        assert_eq!(resp.status, 200);
        server.shutdown();
    }

    #[test]
    fn concurrent_requests() {
        let server = server();
        let addr = server.addr();
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(std::thread::spawn(move || {
                let client = HttpClient::new(addr);
                let resp = client.get("/cgi-bin/db2www/q.d2w/report").unwrap();
                assert_eq!(resp.status, 200);
                assert!(resp.body.contains("IBM"));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn oversized_body_gets_413() {
        let server = server();
        let client = HttpClient::new(server.addr());
        // Declared length far over the limit: refused before any body read.
        let raw = client
            .raw("POST /cgi-bin/db2www/q.d2w/report HTTP/1.0\r\nContent-Length: 99999999\r\n\r\n")
            .unwrap();
        assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn too_many_headers_rejected() {
        let server = server();
        let client = HttpClient::new(server.addr());
        let mut req = String::from("GET / HTTP/1.0\r\n");
        for i in 0..200 {
            req.push_str(&format!("X-Pad-{i}: x\r\n"));
        }
        req.push_str("\r\n");
        let raw = client.raw(&req).unwrap();
        assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
        server.shutdown();
    }

    #[test]
    fn parser_is_incremental_and_pipelined() {
        let config = ServerConfig::default();
        let mut scanned = 0;
        let mut buf = b"GET /a HT".to_vec();
        assert!(matches!(
            parse_request(&mut buf, &mut scanned, &config),
            ParseStatus::Incomplete
        ));
        buf.extend_from_slice(b"TP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n");
        let ParseStatus::Request(a) = parse_request(&mut buf, &mut scanned, &config) else {
            panic!("first request should parse");
        };
        assert_eq!(a.target, "/a");
        assert_eq!(a.version, Version::H11);
        assert!(a.keep_alive());
        let ParseStatus::Request(b) = parse_request(&mut buf, &mut scanned, &config) else {
            panic!("second (pipelined) request should parse");
        };
        assert_eq!(b.target, "/b");
        assert!(!b.keep_alive());
        assert!(buf.is_empty());
        assert!(matches!(
            parse_request(&mut buf, &mut scanned, &config),
            ParseStatus::Incomplete
        ));
    }

    #[test]
    fn parser_resumes_its_header_scan_across_reads() {
        let wire = b"POST /a HTTP/1.1\r\nContent-Length: 4\r\n\r\nab\r\n\
                     GET /b HTTP/1.1\r\nHost: x\r\n\r\n";
        let config = ServerConfig::default();
        // The requests `wire` yields when fed `step` bytes per parse attempt.
        let fed = |step: usize| {
            let (mut buf, mut scanned, mut out) = (Vec::new(), 0, Vec::new());
            for piece in wire.chunks(step) {
                buf.extend_from_slice(piece);
                while let ParseStatus::Request(r) = parse_request(&mut buf, &mut scanned, &config) {
                    out.push((r.method, r.target, r.body));
                }
            }
            out
        };
        let whole = fed(wire.len());
        assert_eq!(whole.len(), 2);
        assert_eq!(whole[0], ("POST".into(), "/a".into(), "ab\r\n".into()));
        // One byte per call splits every `\r\n\r\n` across calls; two and
        // three bytes split it at each other offset.
        for step in 1..=3 {
            assert_eq!(fed(step), whole, "fed {step} byte(s) at a time");
        }
    }

    #[test]
    fn parser_reads_body_and_honors_version_defaults() {
        let config = ServerConfig::default();
        let mut scanned = 0;
        let mut buf = b"POST /p HTTP/1.0\r\nContent-Length: 3\r\n\r\nab".to_vec();
        assert!(matches!(
            parse_request(&mut buf, &mut scanned, &config),
            ParseStatus::Incomplete
        ));
        buf.push(b'c');
        let ParseStatus::Request(req) = parse_request(&mut buf, &mut scanned, &config) else {
            panic!("request should parse once the body arrives");
        };
        assert_eq!(req.body, "abc");
        assert_eq!(req.version, Version::H10);
        assert!(!req.keep_alive(), "HTTP/1.0 defaults to close");
    }

    /// A request whose framing headers are `head`, followed by bytes that
    /// would parse as a second request if the first one's body were read
    /// as empty, must be refused whole.
    fn assert_refused(head: &str) {
        let request = format!("POST /p HTTP/1.1\r\n{head}\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n");
        let status = parse_request(&mut request.into_bytes(), &mut 0, &ServerConfig::default());
        assert!(
            matches!(status, ParseStatus::Malformed),
            "{head:?} was accepted"
        );
    }

    #[test]
    fn content_length_that_is_not_a_number_is_malformed() {
        assert_refused("Content-Length: abc");
    }

    #[test]
    fn negative_content_length_is_malformed() {
        assert_refused("Content-Length: -5");
    }

    #[test]
    fn overflowing_content_length_is_malformed() {
        assert_refused("Content-Length: 99999999999999999999999");
    }

    #[test]
    fn disagreeing_content_lengths_are_malformed() {
        assert_refused("Content-Length: 0\r\nContent-Length: 27");
        // Repeating the same length is unambiguous and still accepted.
        let mut buf =
            b"POST /p HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3\r\n\r\nabc".to_vec();
        let ParseStatus::Request(req) = parse_request(&mut buf, &mut 0, &ServerConfig::default())
        else {
            panic!("identical lengths should parse");
        };
        assert_eq!(req.body, "abc");
    }

    #[test]
    fn any_transfer_encoding_is_malformed() {
        assert_refused("Transfer-Encoding: chunked");
        assert_refused("Content-Length: 0\r\nTransfer-Encoding: identity");
    }

    /// A parsed request as comparable fields, plus the stream offset where
    /// it ended.
    type Parsed = (
        String,
        String,
        Version,
        Vec<(String, String)>,
        String,
        usize,
    );

    /// Feed `wire` to the parser in pieces of the `cuts` sizes (the rest in
    /// one piece), carrying the buffer and `scanned` across calls as a
    /// connection does, and collect every request parsed.
    fn feed(wire: &[u8], cuts: &[usize]) -> Result<(Vec<Parsed>, usize), String> {
        let config = ServerConfig::default();
        let (mut buf, mut scanned, mut fed, mut out) = (Vec::new(), 0, 0, Vec::new());
        let mut rest = wire;
        let mut sizes = cuts.iter();
        while !rest.is_empty() {
            let take = sizes.next().map_or(rest.len(), |&n| n.min(rest.len()));
            buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            fed += take;
            loop {
                match parse_request(&mut buf, &mut scanned, &config) {
                    ParseStatus::Request(r) => out.push((
                        r.method,
                        r.target,
                        r.version,
                        r.headers,
                        r.body,
                        fed - buf.len(),
                    )),
                    ParseStatus::Incomplete => break,
                    ParseStatus::Malformed | ParseStatus::TooLarge => {
                        return Err(format!("refused after {fed} bytes"))
                    }
                }
            }
        }
        Ok((out, buf.len()))
    }

    props! {
        config(cases = 128);

        /// Split invariance: however a pipeline of valid requests is cut
        /// into reads, the parser yields the same requests, in the same
        /// order and consuming the same bytes, as when fed the whole stream
        /// at once, and each request ends exactly where it was framed.
        fn parse_request_is_split_invariant(
            pipeline in vec_of(
                (
                    usizes(0..3),
                    ident(1..=8),
                    vec_of((ident(1..=6), ascii(0..=12)), 0..=3),
                    bytes(0..=24),
                ),
                1..=4,
            ),
            cuts in vec_of(usizes(1..40), 0..=12),
        ) {
            let (mut wire, mut ends) = (Vec::new(), Vec::new());
            for (kind, path, headers, body) in &pipeline {
                let (method, version) = [("GET", "1.1"), ("POST", "1.1"), ("POST", "1.0")][*kind];
                wire.extend_from_slice(format!("{method} /{path} HTTP/{version}\r\n").as_bytes());
                for (name, value) in headers {
                    wire.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
                }
                if method == "POST" {
                    wire.extend_from_slice(format!("Content-Length: {}\r\n", body.len()).as_bytes());
                }
                wire.extend_from_slice(b"\r\n");
                if method == "POST" {
                    wire.extend_from_slice(body);
                }
                ends.push(wire.len());
            }
            let whole = feed(&wire, &[]);
            let split = feed(&wire, &cuts);
            prop_assert_eq!(&split, &whole);
            let (requests, left) = whole.unwrap();
            prop_assert_eq!(left, 0);
            let parsed_ends: Vec<usize> = requests.iter().map(|r| r.5).collect();
            prop_assert_eq!(parsed_ends, ends);
            for (request, (_, path, _, _)) in requests.iter().zip(&pipeline) {
                prop_assert!(request.1 == format!("/{path}"), "target {:?}", request.1);
            }
        }
    }

    #[test]
    fn response_head_centralizes_framing() {
        let head = ResponseHead::new(200, "OK", "text/html", true).emit(Framing::Chunked);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains("Transfer-Encoding: chunked\r\n"));
        assert!(head.contains("Connection: keep-alive\r\n"));
        assert!(head.ends_with("\r\n\r\n"));
        let head = ResponseHead::new(503, "Service Unavailable", "text/html", false)
            .emit(Framing::Length(5));
        assert!(head.contains("Content-Length: 5\r\n"));
        assert!(head.contains("Connection: close\r\n"));
    }
}
