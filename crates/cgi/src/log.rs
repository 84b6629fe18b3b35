//! Access logging in NCSA Common Log Format, plus the slow-query log.
//!
//! The 1996 httpd wrote `access_log` lines that a generation of analytics
//! tooling parsed; the reproduction's server records the same shape so the
//! concurrency experiments can audit exactly which requests ran. Timestamps
//! come from an injectable [`WallClock`]: binaries use the system clock,
//! tests pin a [`dbgw_obs::TestWallClock`] so entries stay structurally
//! comparable.

use crate::sync::Mutex;
use dbgw_obs::clock::format_clf;
use dbgw_obs::{SystemWallClock, WallClock};
use std::collections::VecDeque;
use std::sync::Arc;

/// Entries the access log keeps: the most recent ones, so a long-running
/// server's log costs a fixed amount of memory.
pub const ACCESS_LOG_CAPACITY: usize = 1024;

/// One logged request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Client identifier (we log the peer address).
    pub remote: String,
    /// Authenticated user, `-` when anonymous.
    pub user: String,
    /// Request completion time, seconds since the Unix epoch. Stamped by
    /// [`AccessLog::record`] from the log's clock — whatever the caller set
    /// here is overwritten, so entry construction stays clock-free.
    pub timestamp: u64,
    /// Request line, e.g. `GET /cgi-bin/db2www/u.d2w/input HTTP/1.0`.
    pub request_line: String,
    /// Response status code.
    pub status: u16,
    /// Response body bytes.
    pub bytes: usize,
}

impl LogEntry {
    /// Render in Common Log Format, timestamp included:
    /// `host - user [04/Jun/1996:12:00:00 +0000] "request" status bytes`.
    pub fn to_common_log(&self) -> String {
        format!(
            "{} - {} {} \"{}\" {} {}",
            self.remote,
            self.user,
            format_clf(self.timestamp),
            self.request_line,
            self.status,
            self.bytes
        )
    }
}

/// A shared, thread-safe access log: a ring of the last
/// [`ACCESS_LOG_CAPACITY`] requests.
#[derive(Clone)]
pub struct AccessLog {
    entries: Arc<Mutex<VecDeque<LogEntry>>>,
    clock: Arc<dyn WallClock>,
}

impl Default for AccessLog {
    fn default() -> Self {
        AccessLog::new()
    }
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessLog")
            .field("entries", &self.entries.lock().len())
            .finish()
    }
}

impl AccessLog {
    /// Empty log stamping entries from the system wall clock.
    pub fn new() -> AccessLog {
        AccessLog::with_clock(Arc::new(SystemWallClock))
    }

    /// Empty log over an explicit clock (tests inject a
    /// [`dbgw_obs::TestWallClock`] for deterministic timestamps).
    pub fn with_clock(clock: Arc<dyn WallClock>) -> AccessLog {
        AccessLog {
            entries: Arc::new(Mutex::new(VecDeque::new())),
            clock,
        }
    }

    /// Record one request, stamping it with the log's clock; once the ring
    /// is full the oldest entry makes room.
    pub fn record(&self, mut entry: LogEntry) {
        entry.timestamp = self.clock.epoch_secs();
        let mut entries = self.entries.lock();
        let _evicted = (entries.len() == ACCESS_LOG_CAPACITY).then(|| entries.pop_front());
        entries.push_back(entry);
        drop(entries); // the evicted entry's strings are freed outside the lock
    }

    /// Snapshot of the entries the ring holds, oldest first.
    pub fn entries(&self) -> Vec<LogEntry> {
        self.entries.lock().iter().cloned().collect()
    }

    /// Number of entries the ring holds.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Clear all entries (benchmark hygiene).
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

/// One SQL statement that crossed the slow-query threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// The request that executed it (see [`crate::CgiRequest::request_id`]).
    pub request_id: u64,
    /// The statement's digest text (`minisql::digest_sql`, literals masked
    /// as `?`), not the raw post-substitution SQL — slow logs are long-lived
    /// and must not retain user-supplied literal values.
    pub statement: String,
    /// Observed execution time, nanoseconds on the gateway's clock.
    pub dur_ns: u64,
    /// The statement's SQLCODE (0 on success, negative on error).
    pub sqlcode: i32,
    /// Per-operator plan actuals (`EXPLAIN ANALYZE` summary), present when
    /// the gateway's passive capture collected them for this statement.
    pub plan: Option<String>,
}

impl SlowQuery {
    /// Render as one log line, the shape the access log's consumers expect:
    /// `slow-query request=7 12.500ms sqlcode=0 "select …" plan=[scan 5→3 …]`.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "slow-query request={} {:.3}ms sqlcode={} \"{}\"",
            self.request_id,
            self.dur_ns as f64 / 1e6,
            self.sqlcode,
            self.statement
        );
        if let Some(plan) = &self.plan {
            line.push_str(&format!(" plan=[{plan}]"));
        }
        line
    }
}

/// A shared, thread-safe slow-query log, fed by the gateway whenever a
/// statement exceeds the `DBGW_SLOW_MS` threshold.
#[derive(Debug, Clone, Default)]
pub struct SlowQueryLog {
    entries: Arc<Mutex<Vec<SlowQuery>>>,
}

impl SlowQueryLog {
    /// Empty log.
    pub fn new() -> SlowQueryLog {
        SlowQueryLog::default()
    }

    /// Record one slow statement.
    pub fn record(&self, entry: SlowQuery) {
        self.entries.lock().push(entry);
    }

    /// Snapshot of all entries.
    pub fn entries(&self) -> Vec<SlowQuery> {
        self.entries.lock().clone()
    }

    /// Number of recorded statements.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Clear all entries.
    pub fn clear(&self) {
        self.entries.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgw_obs::TestWallClock;

    fn entry() -> LogEntry {
        LogEntry {
            remote: "127.0.0.1".into(),
            user: "-".into(),
            timestamp: 0,
            request_line: "GET /cgi-bin/db2www/u.d2w/input HTTP/1.0".into(),
            status: 200,
            bytes: 1234,
        }
    }

    #[test]
    fn records_and_formats_with_timestamp() {
        // 1996-06-04 12:00:00 UTC.
        let log = AccessLog::with_clock(Arc::new(TestWallClock::at(833_889_600)));
        log.record(entry());
        assert_eq!(log.len(), 1);
        assert_eq!(
            log.entries()[0].to_common_log(),
            "127.0.0.1 - - [04/Jun/1996:12:00:00 +0000] \
             \"GET /cgi-bin/db2www/u.d2w/input HTTP/1.0\" 200 1234"
        );
    }

    #[test]
    fn record_stamps_from_the_log_clock() {
        let clock = Arc::new(TestWallClock::at(100));
        let log = AccessLog::with_clock(clock.clone());
        let mut e = entry();
        e.timestamp = 999_999; // caller-set values are overwritten
        log.record(e);
        clock.advance_secs(50);
        log.record(entry());
        let entries = log.entries();
        assert_eq!(entries[0].timestamp, 100);
        assert_eq!(entries[1].timestamp, 150);
        // Structural comparison works because the clock is deterministic.
        let expected = LogEntry {
            timestamp: 100,
            ..entry()
        };
        assert_eq!(entries[0], expected);
    }

    #[test]
    fn shared_across_clones() {
        let log = AccessLog::with_clock(Arc::new(TestWallClock::at(0)));
        let clone = log.clone();
        clone.record(LogEntry {
            remote: "10.0.0.1".into(),
            user: "tam".into(),
            timestamp: 0,
            request_line: "POST /x HTTP/1.0".into(),
            status: 404,
            bytes: 0,
        });
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(clone.is_empty());
    }

    #[test]
    fn ring_keeps_only_the_most_recent_entries() {
        let log = AccessLog::with_clock(Arc::new(TestWallClock::at(0)));
        for bytes in 0..ACCESS_LOG_CAPACITY + 5 {
            log.record(LogEntry { bytes, ..entry() });
        }
        assert_eq!(log.len(), ACCESS_LOG_CAPACITY);
        let held: Vec<usize> = log.entries().iter().map(|e| e.bytes).collect();
        let expected: Vec<usize> = (5..ACCESS_LOG_CAPACITY + 5).collect();
        assert_eq!(held, expected, "the oldest 5 are gone, order kept");
    }

    #[test]
    fn slow_query_log_lines() {
        let log = SlowQueryLog::new();
        log.record(SlowQuery {
            request_id: 7,
            statement: "select * from urldb where url = ?".into(),
            dur_ns: 12_500_000,
            sqlcode: 0,
            plan: None,
        });
        assert_eq!(
            log.entries()[0].to_line(),
            "slow-query request=7 12.500ms sqlcode=0 \"select * from urldb where url = ?\""
        );
        assert_eq!(log.len(), 1);
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn slow_query_line_appends_plan_actuals() {
        let q = SlowQuery {
            request_id: 3,
            statement: "select * from urldb".into(),
            dur_ns: 1_000_000,
            sqlcode: 0,
            plan: Some("scan 5\u{2192}3 x1 0.010ms; total 0.055ms".into()),
        };
        assert_eq!(
            q.to_line(),
            "slow-query request=3 1.000ms sqlcode=0 \"select * from urldb\" \
             plan=[scan 5\u{2192}3 x1 0.010ms; total 0.055ms]"
        );
    }
}
