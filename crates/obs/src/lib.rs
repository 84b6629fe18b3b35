//! **dbgw-obs** — observability for the gateway reproduction, with zero
//! external dependencies (the same policy as `dbgw-testkit`).
//!
//! The 1996 DB2 WWW Connection was a black box: a CGI process that either
//! returned a report or an SQLCODE message, with nothing in between. This
//! crate makes the reproduction's request path visible without giving up the
//! hermetic build:
//!
//! * [`clock`] — injectable time sources: a monotonic [`Clock`] (std
//!   [`std::time::Instant`] in binaries, a hand-advanced [`TestClock`] in
//!   tests) and a [`WallClock`] for access-log timestamps.
//! * [`trace`] — hierarchical **spans** recorded into a per-request
//!   [`Trace`]. The active trace lives in a thread local, so instrumentation
//!   points in `minisql`, `dbgw-core`, and `dbgw-cgi` need no threaded-through
//!   context argument; when no trace is active a span is a single
//!   thread-local flag read (the "cheap no-op default").
//! * [`ctx`] — the per-request execution context ([`RequestCtx`]): request
//!   id, deadline on the injectable clock, cancellation flag, and row/byte
//!   budgets, polled cooperatively by every layer below the HTTP edge.
//! * [`mod@metrics`] — process-wide counters and fixed-bucket latency
//!   histograms over `AtomicU64`, plus a per-SQLCODE error table. All
//!   increments are single relaxed atomic ops and are always on.
//! * [`export`] — a JSON-lines trace sink, a Prometheus-style text dump of
//!   the global metrics, and a human-readable [`TraceTree`] renderer.
//! * [`mod@digest`] — a `pg_stat_statements`-style table aggregating per
//!   query *shape* (literal-masked SQL): calls, errors, rows, latency
//!   histogram, cache-hit split, latch waits — sharded, bounded, LRU.
//! * [`series`] — a fixed-size ring of periodic metric snapshots (request
//!   rate, p50/p99, error rate, cache hit ratio), driven opportunistically
//!   from the request path on the injectable clock.
//! * [`slo`] — attainment and error-budget burn rate evaluated over the
//!   ring against `DBGW_SLO_P99_MS` / `DBGW_SLO_ERROR_BUDGET`.
//!
//! ```
//! use dbgw_obs::{clock::TestClock, trace};
//! use std::sync::Arc;
//!
//! let clock = Arc::new(TestClock::new());
//! trace::start_trace(clock.clone(), 7);
//! {
//!     let _req = trace::span("request");
//!     clock.advance_micros(5);
//!     let _sql = trace::span("exec_sql");
//!     clock.advance_micros(20);
//! }
//! let t = trace::finish_trace().unwrap();
//! assert_eq!(t.spans[0].name, "request");
//! assert_eq!(t.spans[1].name, "exec_sql");
//! assert_eq!(t.spans[1].dur_ns, 20_000);
//! assert!(t.render_tree().contains("exec_sql"));
//! ```

#![warn(missing_docs)]

pub mod clock;
pub mod ctx;
pub mod digest;
pub mod export;
pub mod metrics;
pub mod series;
pub mod slo;
pub mod trace;

pub use clock::{
    process_mono_ms, Clock, StdClock, SystemWallClock, TestClock, TestWallClock, WallClock,
};
pub use ctx::{CancelReason, RequestCtx, CANCELLED_SQLCODE, EXPANDED_TEXT_BUDGET};
pub use digest::{digests, DigestObservation, DigestSnapshot, DigestStore};
pub use export::{digest_prometheus, metrics_json, render_prometheus, slo_prometheus, TraceTree};
pub use metrics::{metrics, CodeCounters, Counter, Gauge, Histogram, Metrics};
pub use series::{sparkline, SamplePoint, Sampler};
pub use slo::{SloConfig, SloReport};
pub use trace::{current_request_id, next_request_id, set_request_id, Span, Trace};
