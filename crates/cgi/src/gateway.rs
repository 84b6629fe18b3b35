//! The gateway program itself: the `db2www` CGI application of §4.
//!
//! Invoked as `/cgi-bin/db2www/{macro-file}/{cmd}[?name=val&…]`, it loads the
//! named macro, processes it in `input` or `report` mode with the HTML input
//! variables from the request, and returns the generated page.

use crate::bridge::MiniSqlDatabase;
use crate::config::Config;
use crate::log::{SlowQuery, SlowQueryLog};
use crate::request::{CgiRequest, CgiResponse, Method};
use crate::session::{SessionManager, END_VAR, SESSION_ID_VAR, SESSION_VAR};
use crate::sync::RwLock;
use dbgw_core::db::{Database, DbError, DbRows, RowSource};
use dbgw_core::security::safe_macro_name;
use dbgw_core::{
    parse_macro, Engine, EngineConfig, MacroError, MacroFile, Mode, PageSink, TxnMode,
};
use dbgw_obs::{CancelReason, Clock, RequestCtx, StdClock, Trace};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Reserved input variable carrying the request's correlation id into macro
/// text: `$(DTW_REQUEST_ID)` works in `%SQL_MESSAGE` handlers and reports.
pub const REQUEST_ID_VAR: &str = "DTW_REQUEST_ID";

/// A [`PageSink`] the gateway can hand to the HTTP server's streaming
/// response writer: besides accepting page text it reports whether response
/// bytes have already been committed to the wire, and surrenders the buffered
/// text when they have not (so the caller can fall back to an ordinary
/// complete response with `ETag`/`Content-Length` semantics).
pub trait BodySink: PageSink {
    /// Have any response bytes already been sent to the client?
    fn committed(&self) -> bool;
    /// Take the text buffered so far (only meaningful while uncommitted).
    fn take(&mut self) -> String;
}

/// The trivial buffered sink: never commits, accumulates everything.
impl BodySink for String {
    fn committed(&self) -> bool {
        false
    }
    fn take(&mut self) -> String {
        std::mem::take(self)
    }
}

/// How [`Gateway::handle_streaming`] answered a request.
#[derive(Debug)]
pub enum Handled {
    /// The page stayed under the sink's watermark (or errored before any
    /// byte went out): a complete response for the caller to frame and send.
    Full(CgiResponse),
    /// The response body went out incrementally through the sink. `failed`
    /// means rendering aborted after bytes were committed, so the stream is
    /// truncated and the connection must not be reused.
    Streamed {
        /// Rendering aborted mid-stream (the page is incomplete).
        failed: bool,
    },
}

/// Supplies a fresh DBMS connection per request, the way the CGI model
/// re-connected in every process.
pub trait ConnectionSource: Send + Sync {
    /// Open a connection.
    fn connect(&self) -> Box<dyn Database + Send>;

    /// Open a connection bound to a request context. Sources whose executor
    /// supports cooperative cancellation override this; the default ignores
    /// the context (the engine's own cancellation points still apply).
    fn connect_ctx(&self, ctx: &Arc<RequestCtx>) -> Box<dyn Database + Send> {
        let _ = ctx;
        self.connect()
    }
}

impl ConnectionSource for minisql::Database {
    fn connect(&self) -> Box<dyn Database + Send> {
        Box::new(MiniSqlDatabase::connect(self))
    }

    fn connect_ctx(&self, ctx: &Arc<RequestCtx>) -> Box<dyn Database + Send> {
        Box::new(MiniSqlDatabase::connect_ctx(self, ctx.clone()))
    }
}

/// Closure-based source for tests.
pub struct FnSource<F>(pub F);

impl<F> ConnectionSource for FnSource<F>
where
    F: Fn() -> Box<dyn Database + Send> + Send + Sync,
{
    fn connect(&self) -> Box<dyn Database + Send> {
        (self.0)()
    }
}

/// Per-request tracing and slow-query configuration, everything off by
/// default. The stock binaries fill it from the environment
/// ([`crate::Config`]):
///
/// * `DBGW_TRACE=1` — append each request's trace to the page as an HTML
///   comment (and record it at all);
/// * `DBGW_TRACE_FILE=<path>` — also append every trace to `<path>` as
///   JSON lines (implies tracing even without `DBGW_TRACE`);
/// * `DBGW_SLOW_MS=<n>` — log SQL statements slower than `n` milliseconds
///   to the gateway's slow-query log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceOptions {
    /// Append the rendered trace tree to report output as an HTML comment.
    pub annotate: bool,
    /// Append every trace to this file as JSON lines.
    pub trace_file: Option<PathBuf>,
    /// Slow-query threshold in milliseconds; `None` disables the slow log.
    pub slow_ms: Option<u64>,
}

impl TraceOptions {
    /// Should requests record a trace at all?
    pub fn tracing(&self) -> bool {
        self.annotate || self.trace_file.is_some()
    }

    fn slow_ns(&self) -> Option<u64> {
        self.slow_ms.map(|ms| ms.saturating_mul(1_000_000))
    }
}

/// A macro as installed: the parsed form served on the fast path, plus the
/// include-expanded source so trace mode can re-parse per request (surfacing
/// the parse cost every CGI invocation actually paid in 1996).
struct StoredMacro {
    parsed: Arc<MacroFile>,
    source: Arc<String>,
    /// Every `%SQL` section is a plain SELECT, decided once at install: the
    /// report page may then be revalidated instead of re-run.
    reads_only: bool,
}

/// Wraps a request's connection to time every statement: latency goes to the
/// `sql_latency_ns` histogram, statements over the threshold go to the
/// slow-query log tagged with the current request id. The time is the
/// DBMS's alone: rows are formatted later, as the report reads them.
struct SqlMeter {
    inner: Box<dyn Database + Send>,
    clock: Arc<dyn Clock>,
    slow_ns: Option<u64>,
    slow_log: SlowQueryLog,
}

impl Database for SqlMeter {
    fn execute(&mut self, sql: &str) -> Result<DbRows, DbError> {
        self.query(sql).map(|rows| rows.collect())
    }

    fn query(&mut self, sql: &str) -> Result<Box<dyn RowSource>, DbError> {
        let start = self.clock.now_ns();
        let result = self.inner.query(sql);
        let dur_ns = self.clock.now_ns().saturating_sub(start);
        dbgw_obs::metrics().sql_latency_ns.observe_ns(dur_ns);
        // Taken unconditionally so one statement's actuals never leak into a
        // later statement's slow-log entry.
        let plan = minisql::analyze::take_last_summary();
        if self.slow_ns.is_some_and(|t| dur_ns >= t) {
            dbgw_obs::metrics().slow_queries.inc();
            self.slow_log.record(SlowQuery {
                request_id: dbgw_obs::current_request_id(),
                statement: minisql::digest_sql(sql),
                dur_ns,
                sqlcode: match &result {
                    Ok(rows) => rows.sqlcode(),
                    Err(e) => e.code,
                },
                plan,
            });
        }
        result
    }

    fn begin(&mut self) -> Result<(), DbError> {
        self.inner.begin()
    }

    fn commit(&mut self) -> Result<(), DbError> {
        self.inner.commit()
    }

    fn rollback(&mut self) -> Result<(), DbError> {
        self.inner.rollback()
    }
}

/// The macro store + engine: one of these serves all requests.
pub struct Gateway {
    macros: RwLock<HashMap<String, StoredMacro>>,
    config: EngineConfig,
    source: Box<dyn ConnectionSource>,
    sessions: Option<SessionManager>,
    trace: TraceOptions,
    clock: Arc<dyn Clock>,
    slow_log: SlowQueryLog,
    deadline_ms: Option<u64>,
    /// Metric time series, ticked opportunistically after each request on
    /// the gateway's clock.
    sampler: Arc<dbgw_obs::series::Sampler>,
    /// SLO objectives evaluated against the sampler's ring on `/stats`
    /// (`DBGW_SLO_P99_MS` / `DBGW_SLO_ERROR_BUDGET`).
    slo: dbgw_obs::slo::SloConfig,
}

impl Gateway {
    /// Gateway over a connection source with default engine config.
    pub fn new(source: impl ConnectionSource + 'static) -> Gateway {
        Gateway::with_config(source, EngineConfig::default())
    }

    /// Gateway with explicit engine configuration: tracing and the slow log
    /// off, no deadline, no SLO objectives.
    pub fn with_config(source: impl ConnectionSource + 'static, config: EngineConfig) -> Gateway {
        Gateway {
            macros: RwLock::new(HashMap::new()),
            config,
            source: Box::new(source),
            sessions: None,
            trace: TraceOptions::default(),
            clock: Arc::new(StdClock::new()),
            slow_log: SlowQueryLog::new(),
            deadline_ms: None,
            sampler: Arc::default(),
            slo: dbgw_obs::slo::SloConfig::default(),
        }
    }

    /// Apply the boot [`Config`]: trace options, deadline and SLO
    /// objectives.
    pub fn configured(self, config: &Config) -> Gateway {
        self.with_trace(config.trace.clone())
            .with_deadline_ms(config.deadline_ms)
            .with_slo(config.slo)
    }

    /// Set the per-request wall-clock deadline (`None`, the default,
    /// disables it).
    pub fn with_deadline_ms(mut self, deadline_ms: Option<u64>) -> Gateway {
        self.deadline_ms = deadline_ms;
        self
    }

    /// Set the trace/slow-query configuration.
    pub fn with_trace(mut self, trace: TraceOptions) -> Gateway {
        if trace.slow_ms.is_some() {
            // Collect plan actuals for every SELECT so slow-log entries can
            // carry an EXPLAIN ANALYZE summary. Enable-only: another gateway
            // in the process may rely on it too.
            minisql::analyze::set_passive_capture(true);
        }
        self.trace = trace;
        self
    }

    /// Override the metric sampler (tests pin the interval/capacity and
    /// drive it with a [`dbgw_obs::TestClock`] via [`Gateway::with_clock`]).
    pub fn with_sampler(mut self, sampler: Arc<dbgw_obs::series::Sampler>) -> Gateway {
        self.sampler = sampler;
        self
    }

    /// Set the SLO objectives.
    pub fn with_slo(mut self, slo: dbgw_obs::slo::SloConfig) -> Gateway {
        self.slo = slo;
        self
    }

    /// The metric time-series sampler (rendered as sparklines on `/stats`).
    pub fn sampler(&self) -> &Arc<dbgw_obs::series::Sampler> {
        &self.sampler
    }

    /// The active SLO objectives.
    pub fn slo_config(&self) -> dbgw_obs::slo::SloConfig {
        self.slo
    }

    /// Override the monotonic clock (tests inject a [`dbgw_obs::TestClock`]
    /// for deterministic span durations and slow-query detection).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Gateway {
        self.clock = clock;
        self
    }

    /// The active trace/slow-query configuration.
    pub fn trace_options(&self) -> &TraceOptions {
        &self.trace
    }

    /// The slow-query log (statements over `DBGW_SLOW_MS`).
    pub fn slow_queries(&self) -> SlowQueryLog {
        self.slow_log.clone()
    }

    /// Enable conversational transactions (§5's future work): requests may
    /// open a cross-request transaction with `DTW_SESSION=new`, continue it
    /// with `DTW_SESSION=<id>`, and finish with `DTW_END=commit|abort`.
    /// Idle sessions roll back after `ttl`.
    pub fn enable_sessions(mut self, ttl: Duration) -> Gateway {
        self.sessions = Some(SessionManager::new(ttl));
        self
    }

    /// The session manager, when conversations are enabled.
    pub fn sessions(&self) -> Option<&SessionManager> {
        self.sessions.as_ref()
    }

    /// Install (or replace) a macro under `name` — the application developer
    /// "stores them in files (called macros) at the Web server".
    pub fn add_macro(&self, name: &str, source: &str) -> Result<(), MacroError> {
        let parsed = parse_macro(source)?;
        let reads_only = parsed.sql_sections().all(|s| is_select(s.command.source()));
        self.macros.write().insert(
            name.to_owned(),
            StoredMacro {
                parsed: Arc::new(parsed),
                source: Arc::new(source.to_owned()),
                reads_only,
            },
        );
        Ok(())
    }

    /// Names of installed macros, sorted.
    pub fn macro_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.macros.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Load the `*.d2w` files of a directory as macros — every one, or only
    /// the file named `only` — with `%INCLUDE` fragments resolved against the
    /// `*.hti` files in the same directory: the product's macro-directory
    /// deployment model. Returns the macro names loaded (sorted); a macro
    /// that fails to expand or parse is an `InvalidData` error naming it.
    pub fn load_macro_dir(
        &self,
        dir: &std::path::Path,
        only: Option<&str>,
    ) -> std::io::Result<Vec<String>> {
        use dbgw_core::MapResolver;
        let mut resolver = MapResolver::new();
        let mut macro_files = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()).map(String::from) else {
                continue;
            };
            if name.ends_with(".hti") {
                resolver.insert(&name, &std::fs::read_to_string(&path)?);
            } else if name.ends_with(".d2w") && only.is_none_or(|o| o == name) {
                macro_files.push((name, std::fs::read_to_string(&path)?));
            }
        }
        let mut loaded = Vec::new();
        for (name, source) in macro_files {
            // Expand includes once, so the stored source is self-contained
            // (trace mode re-parses it with no resolver in reach).
            dbgw_core::expand_includes(&source, &resolver)
                .and_then(|expanded| self.add_macro(&name, &expanded))
                .map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{name}: {e}"))
                })?;
            loaded.push(name);
        }
        loaded.sort();
        Ok(loaded)
    }

    /// Build the execution context for one request: correlation id, the
    /// gateway's clock, and the configured deadline.
    pub fn make_ctx(&self, request_id: u64) -> Arc<RequestCtx> {
        let mut ctx = RequestCtx::new(request_id, self.clock.clone());
        if let Some(ms) = self.deadline_ms {
            ctx = ctx.with_deadline_ms(ms);
        }
        Arc::new(ctx)
    }

    /// Handle one CGI invocation under a fresh request context.
    pub fn handle(&self, req: &CgiRequest) -> CgiResponse {
        self.handle_with_ctx(req, &self.make_ctx(req.request_id))
    }

    /// Handle one CGI invocation under the caller's request context, fully
    /// buffered: [`Gateway::handle_streaming`] over the `String` sink, which
    /// never commits, so the answer is always a complete response.
    pub fn handle_with_ctx(&self, req: &CgiRequest, ctx: &Arc<RequestCtx>) -> CgiResponse {
        match self.handle_streaming(req, ctx, &mut String::new()) {
            Handled::Full(response) => response,
            Handled::Streamed { .. } => unreachable!("a String sink never commits"),
        }
    }

    /// Handle one CGI invocation with a streaming body sink, under the
    /// caller's request context (the HTTP server builds the context at the
    /// edge so cancellation covers the whole request, not just macro
    /// processing): dispatch under metrics + (optionally) a trace owned by
    /// this call, unless an enclosing binary already owns one. Report rows
    /// flush to the client as the executor yields them once the sink's
    /// watermark is crossed. Pages that stay under the watermark — and
    /// every error that strikes before the first flush — come back as
    /// [`Handled::Full`] with the usual caching/`ETag` treatment.
    pub fn handle_streaming<S: BodySink>(
        &self,
        req: &CgiRequest,
        ctx: &Arc<RequestCtx>,
        sink: &mut S,
    ) -> Handled {
        let m = dbgw_obs::metrics();
        m.requests.inc();
        let _id_guard = dbgw_obs::set_request_id(req.request_id);
        let start_ns = self.clock.now_ns();
        let owned = self.trace.tracing()
            && dbgw_obs::trace::start_trace(self.clock.clone(), req.request_id);
        let outcome = {
            let _span = dbgw_obs::trace::span("request");
            dbgw_obs::trace::note("path", &req.path_info);
            self.dispatch_into(req, ctx, sink)
        };
        let trace = if owned {
            dbgw_obs::trace::finish_trace()
        } else {
            None
        };
        let mut handled = match outcome {
            Ok(()) if !sink.committed() => {
                let mut response = CgiResponse::html(sink.take());
                self.apply_http_caching(req, &mut response);
                Handled::Full(response)
            }
            Ok(()) => Handled::Streamed { failed: false },
            Err(response) if !sink.committed() => {
                // Discard any partial render; the error page replaces it.
                let _ = sink.take();
                Handled::Full(response)
            }
            Err(response) => {
                // Too late for an error page: bytes are on the wire. Mark
                // the truncation so the page is visibly incomplete, and let
                // the server close the connection.
                let _ = sink.push(&format!(
                    "\n<!-- request {} aborted mid-stream: error {} -->\n",
                    req.request_id, response.status
                ));
                Handled::Streamed { failed: true }
            }
        };
        let end_ns = self.clock.now_ns();
        m.request_latency_ns
            .observe_ns(end_ns.saturating_sub(start_ns));
        let errored = match &handled {
            Handled::Full(response) => response.status >= 400,
            Handled::Streamed { failed } => *failed,
        };
        if errored {
            m.request_errors.inc();
        }
        // Offer the sampler the current time; it snapshots at most once per
        // configured interval (no background thread — the request path is
        // the scheduler, exactly like the 1996 CGI model's "do work only
        // when a request arrives").
        self.sampler.tick(end_ns / 1_000_000, m);
        // Export the finished trace per the configured sinks.
        if let Some(trace) = trace {
            if let Some(path) = &self.trace.trace_file {
                let _ = trace.append_jsonl(path);
            }
            if self.trace.annotate {
                match &mut handled {
                    // A 304 must stay body-less; the JSONL sink still records it.
                    Handled::Full(response) if response.status == 304 => {}
                    Handled::Full(response) => response.body.push_str(&trace_comment(&trace)),
                    Handled::Streamed { .. } => {
                        let _ = sink.push(&trace_comment(&trace));
                    }
                }
            }
        }
        handled
    }

    /// The HTTP caching layer: on a cacheable 200 GET, attach a deterministic
    /// `ETag` (FNV-1a over the rendered page) and `Cache-Control: no-cache`
    /// (always revalidate, which the `ETag` makes cheap); when the client's
    /// `If-None-Match` still matches, collapse the response to `304 Not
    /// Modified`. Non-cacheable macro pages are marked `no-store`.
    fn apply_http_caching(&self, req: &CgiRequest, response: &mut CgiResponse) {
        if req.method != Method::Get || response.status != 200 {
            return;
        }
        let Some(cacheable) = self.macro_cacheability(req) else {
            return;
        };
        if !cacheable {
            response
                .headers
                .push(("Cache-Control".into(), "no-store".into()));
            return;
        }
        let etag = format!(
            "\"{:016x}\"",
            dbgw_cache::fnv1a_64(response.body.as_bytes())
        );
        if req
            .if_none_match
            .as_deref()
            .is_some_and(|header| etag_matches(header, &etag))
        {
            dbgw_obs::metrics().http_not_modified.inc();
            *response = CgiResponse::not_modified(&etag);
        } else {
            response.headers.push(("ETag".into(), etag));
        }
        response
            .headers
            .push(("Cache-Control".into(), "no-cache".into()));
    }

    /// Whether the page this request renders may be cached by clients:
    /// input forms always; report pages only when every `%SQL` section is a
    /// plain SELECT (a report that writes must re-execute on every GET);
    /// conversational-transaction requests never. `None` when the request
    /// does not resolve to an installed macro.
    fn macro_cacheability(&self, req: &CgiRequest) -> Option<bool> {
        let mut parts = req.path_info.trim_start_matches('/').splitn(2, '/');
        let macro_name = parts.next().unwrap_or("");
        let cmd = parts.next().unwrap_or("");
        let mode = Mode::from_command(cmd)?;
        if req
            .variables()
            .get(SESSION_VAR)
            .is_some_and(|v| !v.is_empty())
        {
            return Some(false);
        }
        let reads_only = self.macros.read().get(macro_name)?.reads_only;
        Some(match mode {
            Mode::Input => true,
            Mode::Report => reads_only,
        })
    }

    /// Resolve and process the requested macro, rendering into `sink`.
    /// `Err` is a complete prebuilt response (resolution failure, macro
    /// error, …); the caller decides what to do with any partial render the
    /// sink received before the error.
    fn dispatch_into(
        &self,
        req: &CgiRequest,
        ctx: &Arc<RequestCtx>,
        sink: &mut dyn PageSink,
    ) -> Result<(), CgiResponse> {
        // PATH_INFO = /{macro-file}/{cmd}
        let mut parts = req.path_info.trim_start_matches('/').splitn(2, '/');
        let macro_name = parts.next().unwrap_or("");
        let cmd = parts.next().unwrap_or("");
        if !safe_macro_name(macro_name) {
            return Err(CgiResponse::error_for_request(
                400,
                "invalid macro file name",
                req.request_id,
            ));
        }
        let Some(mode) = Mode::from_command(cmd) else {
            return Err(CgiResponse::error_for_request(
                400,
                &format!("unknown command {cmd:?}: expected input or report"),
                req.request_id,
            ));
        };
        let Some((mac, source)) = self
            .macros
            .read()
            .get(macro_name)
            .map(|s| (s.parsed.clone(), s.source.clone()))
        else {
            return Err(CgiResponse::error_for_request(
                404,
                &format!("no macro named {macro_name}"),
                req.request_id,
            ));
        };
        // Under a trace, re-parse the macro from source so the trace shows
        // the `parse_macro` cost every CGI invocation paid in 1996; the fast
        // path serves the parse done at install time.
        let mac = if dbgw_obs::trace::trace_active() {
            match parse_macro(&source) {
                Ok(parsed) => Arc::new(parsed),
                Err(_) => mac,
            }
        } else {
            mac
        };
        let mut inputs: Vec<(String, String)> = req
            .variables()
            .pairs()
            .iter()
            .map(|(a, b)| (a.clone(), b.clone()))
            .collect();
        inputs.push((REQUEST_ID_VAR.to_owned(), req.request_id.to_string()));

        // Conversational transactions (reserved DTW_* variables).
        let session_request = inputs
            .iter()
            .find(|(n, _)| n == SESSION_VAR)
            .map(|(_, v)| v.clone())
            .filter(|v| !v.is_empty());
        if let (Some(mgr), Some(session)) = (self.sessions.as_ref(), session_request) {
            // Inside a conversation the engine must not open its own
            // transaction — the session holds the open one.
            let config = EngineConfig {
                txn_mode: TxnMode::AutoCommit,
                ..self.config.clone()
            };
            let engine = Engine::with_config(config).with_request_ctx(ctx.clone());
            let id = if session == "new" {
                match mgr.start(self.metered_connect(ctx)) {
                    Ok(id) => id,
                    Err(e) => {
                        return Err(CgiResponse::error_for_request(
                            500,
                            &e.to_string(),
                            req.request_id,
                        ))
                    }
                }
            } else {
                session
            };
            inputs.push((SESSION_ID_VAR.to_owned(), id.clone()));
            let outcome = mgr.with_session(&id, |conn| engine.process(&mac, mode, &inputs, conn));
            let Some(result) = outcome else {
                return Err(CgiResponse::error_for_request(
                    400,
                    &format!("unknown or expired session {id}"),
                    req.request_id,
                ));
            };
            // Conversations stay fully buffered: the transaction's fate
            // (below) can still replace the page with an error.
            let body = match result {
                Ok(body) => body,
                Err(e) => {
                    // A failed request aborts the whole conversation.
                    let _ = mgr.end(&id, false);
                    return Err(macro_error_response(&e, req.request_id));
                }
            };
            let end = inputs
                .iter()
                .find(|(n, _)| n == END_VAR)
                .map(|(_, v)| v.to_ascii_lowercase());
            match end.as_deref() {
                Some("commit") => {
                    if let Some(Err(e)) = mgr.end(&id, true) {
                        return Err(CgiResponse::error_for_request(
                            500,
                            &e.to_string(),
                            req.request_id,
                        ));
                    }
                }
                Some("abort") => {
                    let _ = mgr.end(&id, false);
                }
                _ => {}
            }
            return sink
                .push(&body)
                .map_err(|reason| cancel_response(reason, req.request_id));
        }

        let engine = Engine::with_config(self.config.clone()).with_request_ctx(ctx.clone());
        let mut conn = self.metered_connect(ctx);
        engine
            .process_into(&mac, mode, &inputs, conn.as_mut(), sink)
            .map_err(|e| macro_error_response(&e, req.request_id))
    }

    /// A fresh context-bound connection wrapped in the statement-timing meter.
    fn metered_connect(&self, ctx: &Arc<RequestCtx>) -> Box<dyn Database + Send> {
        Box::new(SqlMeter {
            inner: self.source.connect_ctx(ctx),
            clock: self.clock.clone(),
            slow_ns: self.trace.slow_ns(),
            slow_log: self.slow_log.clone(),
        })
    }

    /// Convenience for tests and benches: handle a GET.
    pub fn get(&self, macro_name: &str, cmd: &str, query: &str) -> CgiResponse {
        self.handle(&CgiRequest::get(&format!("/{macro_name}/{cmd}"), query))
    }
}

/// Does the statement open with the keyword SELECT, after any whitespace
/// and comments? Read with minisql's own lexer: the digest drops what comes
/// before the first lexeme and lowercases keywords. A statement that opens
/// with a `$(…)` reference is not known to read (the digest masks it).
fn is_select(command: &str) -> bool {
    let digest = minisql::digest_sql(command);
    let mut words = digest.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '$'));
    words.next() == Some("select")
}

/// `If-None-Match` comparison: `*` matches anything; otherwise any member of
/// the comma-separated validator list may match our `ETag` exactly.
fn etag_matches(header: &str, etag: &str) -> bool {
    header.trim() == "*" || header.split(',').any(|candidate| candidate.trim() == etag)
}

/// Map a macro-processing error to a response. Cancellation gets its own
/// page and status; everything else stays a 500 with the error's message.
fn macro_error_response(e: &MacroError, request_id: u64) -> CgiResponse {
    match e {
        MacroError::Cancelled { reason } => cancel_response(*reason, request_id),
        _ => CgiResponse::error_for_request(500, &e.to_string(), request_id),
    }
}

/// The page a cancelled request renders: the same `<B>SQL error</B>` banner a
/// `%SQL_MESSAGE`-less SQLCODE failure produces (code -952, DB2's
/// "processing cancelled due to interrupt"), carrying the request id so the
/// failure can be matched to its trace and slow-query entries.
fn cancel_response(reason: CancelReason, request_id: u64) -> CgiResponse {
    let status = match reason {
        CancelReason::DeadlineExceeded { .. } => {
            dbgw_obs::metrics().request_timeouts.inc();
            504
        }
        CancelReason::Cancelled => 503,
        CancelReason::RowBudgetExceeded { .. } | CancelReason::ByteBudgetExceeded { .. } => 500,
    };
    CgiResponse {
        status,
        content_type: "text/html".into(),
        body: format!(
            "<HTML><HEAD><TITLE>Error {status}</TITLE></HEAD>\n\
             <BODY><H1>Error {status}</H1>\n\
             <P><B>SQL error {}</B>: {}</P>\n\
             <P><SMALL>request {request_id}</SMALL></P></BODY></HTML>\n",
            dbgw_obs::CANCELLED_SQLCODE,
            dbgw_html::escape_text(&reason.to_string()),
        ),
        headers: Vec::new(),
    }
}

/// Render `trace` as an HTML comment safe to append to a page: `--` is not
/// allowed inside comments (and `>` after it would end one early), so any
/// run of hyphens from SQL text is broken up.
pub fn trace_comment(trace: &Trace) -> String {
    let mut tree = trace.render_tree();
    // One pass leaves a pair behind in odd runs ("---" → "- --"), so repeat.
    while tree.contains("--") {
        tree = tree.replace("--", "- -");
    }
    format!("\n<!-- dbgw trace\n{tree}-->\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gateway() -> Gateway {
        let db = minisql::Database::new();
        db.run_script(
            "CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80), description VARCHAR(200));
             INSERT INTO urldb VALUES ('http://www.ibm.com', 'IBM', 'Big Blue'),
                                      ('http://www.eso.org', 'ESO', 'Observatory');",
        )
        .unwrap();
        let gw = Gateway::new(db);
        gw.add_macro(
            "urlquery.d2w",
            r#"%DEFINE dbtbl = "urldb"
%SQL{ SELECT url, title FROM $(dbtbl) WHERE title LIKE '%$(SEARCH)%' ORDER BY title
%SQL_REPORT{<UL>
%ROW{<LI><A HREF="$(V1)">$(V2)</A>
%}</UL>
%}
%}
%HTML_INPUT{<FORM METHOD="post" ACTION="/cgi-bin/db2www/urlquery.d2w/report">
<INPUT TYPE="text" NAME="SEARCH">
<INPUT TYPE="submit" VALUE="Submit Query">
</FORM>%}
%HTML_REPORT{<H1>URL Query Result</H1>
%EXEC_SQL
%}"#,
        )
        .unwrap();
        gw
    }

    #[test]
    fn input_mode_serves_form() {
        let gw = gateway();
        let resp = gw.get("urlquery.d2w", "input", "");
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("<INPUT TYPE=\"text\" NAME=\"SEARCH\">"));
        assert!(dbgw_html::check_balanced(&resp.body).is_ok());
    }

    #[test]
    fn report_mode_runs_query_end_to_end() {
        let gw = gateway();
        let resp = gw.get("urlquery.d2w", "report", "SEARCH=IB");
        assert_eq!(resp.status, 200);
        assert!(resp
            .body
            .contains(r#"<A HREF="http://www.ibm.com">IBM</A>"#));
        assert!(!resp.body.contains("eso"));
    }

    #[test]
    fn post_body_variables_work() {
        let gw = gateway();
        let resp = gw.handle(&CgiRequest::post("/urlquery.d2w/report", "SEARCH=ESO"));
        assert!(resp.body.contains("eso.org"));
    }

    #[test]
    fn unknown_macro_404() {
        let gw = gateway();
        assert_eq!(gw.get("nope.d2w", "input", "").status, 404);
    }

    #[test]
    fn bad_command_400() {
        let gw = gateway();
        assert_eq!(gw.get("urlquery.d2w", "destroy", "").status, 400);
    }

    #[test]
    fn path_traversal_rejected() {
        let gw = gateway();
        let resp = gw.handle(&CgiRequest::get("/../etc/passwd/input", ""));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn sql_injection_attempt_is_contained() {
        // A hostile SEARCH value cannot escape the LIKE literal thanks to the
        // engine passing it through one string context; a quote breaks the
        // statement and surfaces as a SQL error page, not data loss.
        let gw = gateway();
        let resp = gw.get(
            "urlquery.d2w",
            "report",
            "SEARCH=%27%3B%20DROP%20TABLE%20urldb%3B%20--",
        );
        assert_eq!(resp.status, 200); // error rendered inside the report page
        assert!(resp.body.contains("SQL error"));
    }

    #[test]
    fn macro_names_listed() {
        let gw = gateway();
        assert_eq!(gw.macro_names(), vec!["urlquery.d2w"]);
    }

    #[test]
    fn deadline_expiry_renders_timeout_page() {
        // The DB "blocks" past the deadline by advancing the injected test
        // clock inside execute; the response must be the 504 timeout page
        // styled like a %SQL_MESSAGE-less SQLCODE banner, with the request id.
        let clock = Arc::new(dbgw_obs::TestClock::new());
        let db_clock = clock.clone();
        let gw = Gateway::new(FnSource(move || {
            let c = db_clock.clone();
            Box::new(dbgw_core::db::FnDatabase(move |_sql: &str| {
                c.advance_millis(100);
                Ok(DbRows {
                    columns: vec!["n".into()],
                    rows: vec![vec!["1".into()]],
                    affected: 0,
                })
            })) as Box<dyn Database + Send>
        }))
        .with_clock(clock)
        .with_deadline_ms(Some(20));
        gw.add_macro("t.d2w", "%SQL{ SLOW %}\n%HTML_REPORT{%EXEC_SQL%}")
            .unwrap();
        let before = dbgw_obs::metrics().request_timeouts.get();
        let req = CgiRequest::get("/t.d2w/report", "");
        let resp = gw.handle(&req);
        assert_eq!(resp.status, 504);
        assert!(resp.body.contains("SQL error -952"), "{}", resp.body);
        assert!(resp.body.contains("deadline of 20 ms"), "{}", resp.body);
        assert!(
            resp.body.contains(&format!("request {}", req.request_id)),
            "{}",
            resp.body
        );
        assert!(dbgw_obs::metrics().request_timeouts.get() > before);
    }

    #[test]
    fn sql_message_handler_can_intercept_timeout() {
        // A macro with a %SQL_MESSAGE{-952} handler renders its own page and
        // the response stays 200: cancellation surfaces through the same
        // SQLCODE machinery as any DBMS error.
        let clock = Arc::new(dbgw_obs::TestClock::new());
        let db_clock = clock.clone();
        let gw = Gateway::new(FnSource(move || {
            let c = db_clock.clone();
            Box::new(dbgw_core::db::FnDatabase(move |_sql: &str| {
                c.advance_millis(100);
                Err(dbgw_core::db::DbError {
                    code: dbgw_obs::CANCELLED_SQLCODE,
                    message: "processing cancelled due to interrupt".into(),
                })
            })) as Box<dyn Database + Send>
        }))
        .with_clock(clock)
        .with_deadline_ms(Some(20));
        gw.add_macro(
            "t.d2w",
            "%SQL{ SLOW\n%SQL_MESSAGE{ -952 : \"<P>query interrupted on request $(DTW_REQUEST_ID)</P>\" : exit %}\n%}\n\
             %HTML_REPORT{%EXEC_SQL%}",
        )
        .unwrap();
        let resp = gw.get("t.d2w", "report", "");
        assert_eq!(resp.status, 200);
        assert!(
            resp.body.contains("query interrupted on request"),
            "{}",
            resp.body
        );
    }

    #[test]
    fn load_macro_dir_resolves_hti_includes() {
        let dir = std::env::temp_dir().join(format!("dbgw-macro-dir-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("header.hti"), "<TITLE>Shared</TITLE>").unwrap();
        std::fs::write(
            dir.join("app.d2w"),
            "%HTML_INPUT{\n%INCLUDE \"header.hti\"\n<FORM ACTION=\"x\"></FORM>%}\n%SQL{ SELECT 1 %}\n%HTML_REPORT{%EXEC_SQL%}",
        )
        .unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let gw = Gateway::new(minisql::Database::new());
        let loaded = gw.load_macro_dir(&dir, None).unwrap();
        assert_eq!(loaded, vec!["app.d2w"]);
        let resp = gw.get("app.d2w", "input", "");
        assert!(resp.body.contains("<TITLE>Shared</TITLE>"), "{}", resp.body);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
