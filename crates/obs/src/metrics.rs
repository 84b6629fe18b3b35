//! Process-wide metrics: counters, fixed-bucket latency histograms, and a
//! per-SQLCODE error table — all lock-free over `AtomicU64`.
//!
//! Unlike traces (opt-in, per request), metrics are **always on**: every
//! increment is a single relaxed atomic add, cheap enough to leave in the
//! hot paths unconditionally. The global registry is [`metrics`]; exporters
//! render it (see [`crate::export::render_prometheus`]) and the CGI server
//! serves that rendering at `/stats`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter (const, so registries can be statics).
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (in-flight requests, queue depth): goes up *and*
/// down, unlike [`Counter`].
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge (const, so registries can be statics).
    pub const fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Set the level outright.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram bucket upper bounds in nanoseconds: 1 µs doubling up to
/// ~0.5 s, plus an implicit overflow bucket. Fixed at compile time so
/// `observe` is a shift-free scan over a small array and snapshots from
/// different processes always align.
pub const BUCKET_BOUNDS_NS: [u64; 20] = {
    let mut bounds = [0u64; 20];
    let mut i = 0;
    while i < 20 {
        bounds[i] = 1_000u64 << i;
        i += 1;
    }
    bounds
};

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

/// A fixed-bucket latency histogram (bounds: [`BUCKET_BOUNDS_NS`] + overflow).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_NS.len() + 1],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A zeroed histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [ZERO; BUCKET_BOUNDS_NS.len() + 1],
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Record one observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .unwrap_or(BUCKET_BOUNDS_NS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Per-bucket counts (non-cumulative), the last entry being overflow.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

const CODE_SLOTS: usize = 64;
const EMPTY_SLOT: i64 = i64::MIN;

/// Per-SQLCODE error counters: a small lock-free open-addressed table.
/// SQLCODE cardinality is tiny (a few dozen codes exist at all), so 64
/// linear-probed slots never fill in practice; if they somehow do, the
/// overflow counter keeps the total honest.
#[derive(Debug)]
pub struct CodeCounters {
    codes: [AtomicI64; CODE_SLOTS],
    counts: [AtomicU64; CODE_SLOTS],
    overflow: Counter,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: AtomicI64 = AtomicI64::new(EMPTY_SLOT);

impl Default for CodeCounters {
    fn default() -> Self {
        CodeCounters::new()
    }
}

impl CodeCounters {
    /// An empty table.
    pub const fn new() -> CodeCounters {
        CodeCounters {
            codes: [EMPTY; CODE_SLOTS],
            counts: [ZERO; CODE_SLOTS],
            overflow: Counter::new(),
        }
    }

    /// Count one occurrence of `code`.
    pub fn record(&self, code: i32) {
        let code = code as i64;
        let start = (code.unsigned_abs() as usize) % CODE_SLOTS;
        for probe in 0..CODE_SLOTS {
            let slot = (start + probe) % CODE_SLOTS;
            let current = self.codes[slot].load(Ordering::Acquire);
            if current == code {
                self.counts[slot].fetch_add(1, Ordering::Relaxed);
                return;
            }
            if current == EMPTY_SLOT {
                match self.codes[slot].compare_exchange(
                    EMPTY_SLOT,
                    code,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => {
                        self.counts[slot].fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(actual) if actual == code => {
                        self.counts[slot].fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                    Err(_) => continue, // raced with a different code; probe on
                }
            }
        }
        self.overflow.inc();
    }

    /// Count recorded for `code`.
    pub fn get(&self, code: i32) -> u64 {
        let code = code as i64;
        let start = (code.unsigned_abs() as usize) % CODE_SLOTS;
        for probe in 0..CODE_SLOTS {
            let slot = (start + probe) % CODE_SLOTS;
            match self.codes[slot].load(Ordering::Acquire) {
                c if c == code => return self.counts[slot].load(Ordering::Relaxed),
                EMPTY_SLOT => return 0,
                _ => continue,
            }
        }
        0
    }

    /// All `(code, count)` pairs, sorted by code.
    pub fn snapshot(&self) -> Vec<(i32, u64)> {
        let mut out: Vec<(i32, u64)> = (0..CODE_SLOTS)
            .filter_map(|slot| {
                let code = self.codes[slot].load(Ordering::Acquire);
                if code == EMPTY_SLOT {
                    return None;
                }
                let count = self.counts[slot].load(Ordering::Relaxed);
                (count > 0).then_some((code as i32, count))
            })
            .collect();
        out.sort_unstable();
        out
    }
}

/// The gateway's metric registry. One static instance per process
/// ([`metrics`]); fields are public so instrumentation points write
/// `metrics().sql_statements.inc()` with no registry lookups.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests handled by the gateway.
    pub requests: Counter,
    /// Requests that produced an error page (HTTP status >= 400).
    pub request_errors: Counter,
    /// Macro files parsed.
    pub macro_parses: Counter,
    /// Variable-substitution passes run.
    pub substitutions: Counter,
    /// SQL statements the engine executed.
    pub sql_statements: Counter,
    /// Report rows rendered into HTML.
    pub rows_rendered: Counter,
    /// SQL statements that exceeded the slow-query threshold.
    pub slow_queries: Counter,
    /// Traces recorded (DBGW_TRACE mode).
    pub traces_recorded: Counter,
    /// Connections shed with `503 Retry-After` because the accept queue was
    /// full.
    pub requests_shed: Counter,
    /// Requests that hit their `RequestCtx` deadline and returned a timeout
    /// page.
    pub request_timeouts: Counter,
    /// SQL result-cache lookups that returned a still-valid row set.
    pub cache_hits: Counter,
    /// SELECTs the SQL result cache could not answer (absent or
    /// invalidated), so they were executed.
    pub cache_misses: Counter,
    /// Result-cache entries pushed out by the byte budget.
    pub cache_evictions: Counter,
    /// Result-cache entries rejected at lookup because a referenced table
    /// changed since the entry was stored.
    pub cache_invalidations: Counter,
    /// Conditional GETs answered `304 Not Modified` from the `ETag`.
    pub http_not_modified: Counter,
    /// Rows fetched from table heaps by scans (probe candidates + full-scan
    /// rows) — the raw cost of access-path choices.
    pub rows_scanned: Counter,
    /// Table-latch acquisitions that had to wait for another writer.
    pub latch_waits: Counter,
    /// Query digests evicted from the bounded digest store (cold shapes
    /// pushed out by the per-shard capacity).
    pub digest_evictions: Counter,
    /// Database snapshots published (one per applied write statement or
    /// rollback).
    pub snapshots_published: Counter,
    /// Logical records appended to the write-ahead log (one per committed
    /// statement or rollback when durability is on).
    pub wal_records: Counter,
    /// Group-commit flushes fsynced to the log. The ratio
    /// `wal_records / wal_fsyncs` is the achieved batching factor.
    pub wal_fsyncs: Counter,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: Counter,
    /// Checkpoints completed (log rewritten as a base snapshot).
    pub checkpoints: Counter,
    /// Requests served over an already-established keep-alive connection
    /// (every request on a connection after its first).
    pub keepalive_reuses: Counter,
    /// Requests that were already buffered behind an earlier request on the
    /// same connection when the worker picked it up (HTTP/1.1 pipelining).
    pub pipelined_requests: Counter,
    /// Responses sent with `Transfer-Encoding: chunked` because the body
    /// crossed the streaming watermark before rendering finished.
    pub responses_streamed: Counter,
    /// Requests aborted because the client vanished mid-response (write
    /// error on the socket cancelled the executor).
    pub client_disconnects: Counter,
    /// Requests currently being processed by pool workers.
    pub requests_in_flight: Gauge,
    /// Accepted connections waiting in the bounded queue for a worker.
    pub queue_depth: Gauge,
    /// Bytes currently resident in the statement + result caches.
    pub cache_bytes: Gauge,
    /// Epoch (publication count) of the most recently published database
    /// snapshot — strictly monotonic while the process lives.
    pub snapshot_epoch: Gauge,
    /// [`crate::process_mono_ms`] reading at the last snapshot publication;
    /// exporters subtract it from "now" to report the snapshot's age.
    pub snapshot_publish_ms: Gauge,
    /// Current size of the write-ahead log file in bytes (checkpoints
    /// shrink it back to the base-snapshot size).
    pub wal_size_bytes: Gauge,
    /// Size in bytes of the log the most recent checkpoint wrote.
    pub checkpoint_last_bytes: Gauge,
    /// TCP connections currently open on the evented HTTP edge (parked in
    /// the epoll set or owned by a worker).
    pub open_connections: Gauge,
    /// Open connections currently idle between requests (keep-alive sockets
    /// parked in the epoll set with no bytes buffered).
    pub idle_connections: Gauge,
    /// End-to-end gateway request latency.
    pub request_latency_ns: Histogram,
    /// Per-statement SQL latency.
    pub sql_latency_ns: Histogram,
    /// Per-write-statement latch wait: one observation per latch set a
    /// writer acquired, valued at the nanoseconds it spent blocked. A full
    /// histogram (PR 6 exported only the sum, which hid the latch-wait p99
    /// behind the mean).
    pub latch_wait_ns: Histogram,
    /// Time a committing writer spent in group commit, from enqueueing its
    /// record to the durable acknowledgment (waiting for an in-flight flush,
    /// and leading its own) — the latency cost of durability,
    /// batch-amortized fsync included.
    pub group_commit_wait_ns: Histogram,
    /// Time from accepting a request to the first response byte hitting the
    /// socket — the streaming render path exists to shrink this.
    pub ttfb_ns: Histogram,
    /// Error occurrences by SQLCODE.
    pub sqlcode_errors: CodeCounters,
}

impl Metrics {
    /// A zeroed registry (const — usable as a `static`).
    pub const fn new() -> Metrics {
        Metrics {
            requests: Counter::new(),
            request_errors: Counter::new(),
            macro_parses: Counter::new(),
            substitutions: Counter::new(),
            sql_statements: Counter::new(),
            rows_rendered: Counter::new(),
            slow_queries: Counter::new(),
            traces_recorded: Counter::new(),
            requests_shed: Counter::new(),
            request_timeouts: Counter::new(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            cache_evictions: Counter::new(),
            cache_invalidations: Counter::new(),
            http_not_modified: Counter::new(),
            rows_scanned: Counter::new(),
            latch_waits: Counter::new(),
            digest_evictions: Counter::new(),
            snapshots_published: Counter::new(),
            wal_records: Counter::new(),
            wal_fsyncs: Counter::new(),
            wal_bytes: Counter::new(),
            checkpoints: Counter::new(),
            keepalive_reuses: Counter::new(),
            pipelined_requests: Counter::new(),
            responses_streamed: Counter::new(),
            client_disconnects: Counter::new(),
            requests_in_flight: Gauge::new(),
            queue_depth: Gauge::new(),
            cache_bytes: Gauge::new(),
            snapshot_epoch: Gauge::new(),
            snapshot_publish_ms: Gauge::new(),
            wal_size_bytes: Gauge::new(),
            checkpoint_last_bytes: Gauge::new(),
            open_connections: Gauge::new(),
            idle_connections: Gauge::new(),
            request_latency_ns: Histogram::new(),
            sql_latency_ns: Histogram::new(),
            latch_wait_ns: Histogram::new(),
            group_commit_wait_ns: Histogram::new(),
            ttfb_ns: Histogram::new(),
            sqlcode_errors: CodeCounters::new(),
        }
    }
}

static METRICS: Metrics = Metrics::new();

/// The process-wide metric registry.
pub fn metrics() -> &'static Metrics {
    &METRICS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_concurrent_increments() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = Histogram::new();
        // Exactly on a bound lands in that bucket (bounds are inclusive).
        h.observe_ns(1_000); // bucket 0: <= 1 µs
        h.observe_ns(1_001); // bucket 1: <= 2 µs
        h.observe_ns(2_000); // bucket 1
        h.observe_ns(0); // bucket 0
        h.observe_ns(BUCKET_BOUNDS_NS[19]); // last bounded bucket
        h.observe_ns(BUCKET_BOUNDS_NS[19] + 1); // overflow
        h.observe_ns(u64::MAX); // overflow
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[1], 2);
        assert_eq!(counts[19], 1);
        assert_eq!(counts[20], 2);
        assert_eq!(h.count(), 7);
    }

    #[test]
    fn histogram_concurrent_observations() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1_000u64 {
                        h.observe_ns(t * 1_000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4_000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 4_000);
    }

    #[test]
    fn bucket_bounds_double_from_one_micro() {
        assert_eq!(BUCKET_BOUNDS_NS[0], 1_000);
        assert_eq!(BUCKET_BOUNDS_NS[1], 2_000);
        assert_eq!(BUCKET_BOUNDS_NS[19], 524_288_000);
    }

    #[test]
    fn code_counters_record_and_snapshot() {
        let t = CodeCounters::new();
        t.record(-204);
        t.record(-204);
        t.record(100);
        t.record(-803);
        assert_eq!(t.get(-204), 2);
        assert_eq!(t.get(100), 1);
        assert_eq!(t.get(0), 0);
        assert_eq!(t.snapshot(), vec![(-803, 1), (-204, 2), (100, 1)]);
    }

    #[test]
    fn code_counters_concurrent_mixed_codes() {
        let t = CodeCounters::new();
        std::thread::scope(|s| {
            for i in 0..8i32 {
                let t = &t;
                s.spawn(move || {
                    for _ in 0..1_000 {
                        t.record(-100 - (i % 4));
                    }
                });
            }
        });
        let total: u64 = t.snapshot().iter().map(|(_, n)| n).sum();
        assert_eq!(total, 8_000);
        assert_eq!(t.get(-100), 2_000);
        assert_eq!(t.get(-103), 2_000);
    }

    #[test]
    fn global_registry_is_live() {
        let before = metrics().requests.get();
        metrics().requests.inc();
        assert!(metrics().requests.get() > before);
    }
}
