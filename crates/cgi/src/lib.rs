//! **dbgw-cgi** — the Web substrate of the gateway reproduction.
//!
//! Everything between the end user's browser and the macro engine:
//!
//! * [`urlencode`] — `application/x-www-form-urlencoded` percent coding,
//! * [`query`] — `QUERY_STRING` multimap parsing (§2.2/§2.3 of the paper),
//! * [`request`] — the CGI request/response boundary (Figure 4),
//! * [`bridge`] — the [`minisql`] adapter behind [`dbgw_core::Database`],
//! * [`config`] — every `DBGW_*` variable, parsed and validated once at boot,
//! * [`gateway`] — the `db2www` program: macro store + dispatch (§4),
//! * [`http`] — an evented HTTP/1.1 server standing in for httpd: epoll
//!   keep-alive multiplexing, pipelining, and chunked streaming of reports,
//! * [`client`] — a programmatic browser with §2.2-faithful form submission
//!   and keep-alive connection reuse.

#![warn(missing_docs)]

pub mod auth;
pub mod bridge;
pub mod client;
pub mod config;
mod evloop;
pub mod gateway;
pub mod http;
pub mod log;
pub mod net;
pub mod query;
pub mod request;
pub mod session;
pub mod urlencode;

/// Poison-recovering lock wrappers, re-exported from the shared
/// [`dbgw_sync`] crate (the former in-crate copy moved there).
pub use dbgw_sync as sync;

pub use auth::{base64_decode, base64_encode, AuthDecision, BasicAuth};
pub use bridge::MiniSqlDatabase;
pub use client::{FormFill, HttpClient, HttpConnection};
pub use config::Config;
pub use gateway::{
    trace_comment, BodySink, ConnectionSource, FnSource, Gateway, Handled, TraceOptions,
    REQUEST_ID_VAR,
};
pub use http::{HttpServer, ServerConfig, CGI_PREFIX, STATS_PATH};
pub use log::{AccessLog, LogEntry, SlowQuery, SlowQueryLog};
pub use query::QueryString;
pub use request::{CgiRequest, CgiResponse, Method};
pub use session::SessionManager;
