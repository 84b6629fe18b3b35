//! Exporters: JSON-lines trace sink, Prometheus-style metrics text, and a
//! human-readable trace tree.
//!
//! All output is assembled by hand (zero-dependency policy); the JSON subset
//! emitted here is exactly what the trajectory tooling and the CI smoke test
//! consume, and the Prometheus text is the standard exposition format so any
//! scraper can parse `/stats?format=prometheus`.

use crate::digest::{DigestSnapshot, DigestStore};
use crate::metrics::{Counter, Gauge, Histogram, Metrics, BUCKET_BOUNDS_NS};
use crate::slo::SloReport;
use crate::trace::{Span, Trace};
use std::io::Write;

/// Escape a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn span_json(trace: &Trace, idx: usize, span: &Span) -> String {
    let parent = match span.parent {
        Some(p) => p.to_string(),
        None => "null".to_owned(),
    };
    let mut notes = String::new();
    for (i, (key, value)) in span.notes.iter().enumerate() {
        if i > 0 {
            notes.push(',');
        }
        notes.push_str(&format!(
            "\"{}\":\"{}\"",
            json_escape(key),
            json_escape(value)
        ));
    }
    format!(
        "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"depth\":{},\
         \"start_ns\":{},\"dur_ns\":{},\"notes\":{{{}}}}}",
        trace.request_id,
        idx,
        parent,
        json_escape(span.name),
        span.depth,
        span.start_ns,
        span.dur_ns,
        notes,
    )
}

impl Trace {
    /// Render the trace as JSON lines: one object per span, in start order,
    /// each carrying the owning trace's request id. Ends with a newline.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (idx, span) in self.spans.iter().enumerate() {
            out.push_str(&span_json(self, idx, span));
            out.push('\n');
        }
        out
    }

    /// Append the trace's JSON lines to the file at `path` (created if
    /// absent). Concurrent appenders interleave whole lines at worst.
    pub fn append_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(self.to_json_lines().as_bytes())
    }

    /// Render as a human-readable tree (see [`TraceTree`]).
    pub fn render_tree(&self) -> String {
        TraceTree(self).to_string()
    }
}

/// Human-readable rendering of a [`Trace`]: one line per span, indented by
/// depth, with durations and notes. `Display` does the work so it can be
/// written into anything.
pub struct TraceTree<'a>(pub &'a Trace);

fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.3}s", ns as f64 / 1_000_000_000.0)
    }
}

impl std::fmt::Display for TraceTree<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let trace = self.0;
        writeln!(
            f,
            "trace request={} spans={} total={}{}",
            trace.request_id,
            trace.spans.len(),
            fmt_ns(trace.total_ns()),
            if trace.dropped > 0 {
                format!(" dropped={}", trace.dropped)
            } else {
                String::new()
            }
        )?;
        for span in &trace.spans {
            let mut label = format!("{}{}", "  ".repeat(span.depth + 1), span.name);
            for (key, value) in &span.notes {
                label.push_str(&format!(" {key}={value:?}"));
            }
            let pad = label.chars().count();
            let pad = if pad < 48 { 48 - pad } else { 1 };
            writeln!(f, "{label}{:pad$}{}", "", fmt_ns(span.dur_ns))?;
        }
        Ok(())
    }
}

/// One metric family as every view shows it: `(exposition name, row label on
/// the HTML /stats page, help text, metric)`.
pub type Family<'m, M> = (&'static str, &'static str, &'static str, &'m M);

/// The gateway's counters — the single vocabulary shared by
/// [`render_prometheus`], [`metrics_json`] and the HTML `/stats` page.
pub fn counters(m: &Metrics) -> [Family<'_, Counter>; 27] {
    [
        (
            "dbgw_requests_total",
            "requests",
            "Requests handled by the gateway.",
            &m.requests,
        ),
        (
            "dbgw_request_errors_total",
            "request errors",
            "Requests that produced an error page (HTTP status >= 400).",
            &m.request_errors,
        ),
        (
            "dbgw_macro_parses_total",
            "macro parses",
            "Macro files parsed.",
            &m.macro_parses,
        ),
        (
            "dbgw_substitutions_total",
            "substitutions",
            "Variable-substitution passes run.",
            &m.substitutions,
        ),
        (
            "dbgw_sql_statements_total",
            "SQL statements",
            "SQL statements the engine executed.",
            &m.sql_statements,
        ),
        (
            "dbgw_rows_rendered_total",
            "rows rendered",
            "Report rows rendered into HTML.",
            &m.rows_rendered,
        ),
        (
            "dbgw_slow_queries_total",
            "slow queries",
            "SQL statements that exceeded the slow-query threshold.",
            &m.slow_queries,
        ),
        (
            "dbgw_traces_recorded_total",
            "traces recorded",
            "Traces recorded (DBGW_TRACE mode).",
            &m.traces_recorded,
        ),
        (
            "dbgw_requests_shed_total",
            "requests shed",
            "Connections shed with 503 because the accept queue was full.",
            &m.requests_shed,
        ),
        (
            "dbgw_request_timeouts_total",
            "request timeouts",
            "Requests that hit their deadline and returned a timeout page.",
            &m.request_timeouts,
        ),
        (
            "dbgw_cache_hits_total",
            "cache hits",
            "SQL result-cache lookups that returned a fresh row set.",
            &m.cache_hits,
        ),
        (
            "dbgw_cache_misses_total",
            "cache misses",
            "SELECTs the SQL result cache could not answer.",
            &m.cache_misses,
        ),
        (
            "dbgw_cache_evictions_total",
            "cache evictions",
            "Result-cache entries pushed out by the byte budget.",
            &m.cache_evictions,
        ),
        (
            "dbgw_cache_invalidations_total",
            "cache invalidations",
            "Result-cache entries rejected because a referenced table changed.",
            &m.cache_invalidations,
        ),
        (
            "dbgw_http_not_modified_total",
            "HTTP 304 not modified",
            "Conditional GETs answered 304 Not Modified from the ETag.",
            &m.http_not_modified,
        ),
        (
            "dbgw_rows_scanned_total",
            "rows scanned",
            "Rows fetched from table heaps by scans.",
            &m.rows_scanned,
        ),
        (
            "dbgw_latch_waits_total",
            "latch waits",
            "Table-latch acquisitions that had to wait for another writer.",
            &m.latch_waits,
        ),
        (
            "dbgw_digest_evictions_total",
            "digest evictions",
            "Query digests evicted from the bounded digest store.",
            &m.digest_evictions,
        ),
        (
            "dbgw_snapshots_published_total",
            "snapshots published",
            "Database snapshots published.",
            &m.snapshots_published,
        ),
        (
            "dbgw_wal_records_total",
            "WAL records",
            "Logical records appended to the write-ahead log.",
            &m.wal_records,
        ),
        (
            "dbgw_wal_fsyncs_total",
            "WAL fsyncs",
            "Group-commit flushes fsynced to the write-ahead log.",
            &m.wal_fsyncs,
        ),
        (
            "dbgw_wal_bytes_total",
            "WAL bytes",
            "Bytes appended to the write-ahead log.",
            &m.wal_bytes,
        ),
        (
            "dbgw_checkpoints_total",
            "checkpoints",
            "Checkpoints completed (log rewritten as a base snapshot).",
            &m.checkpoints,
        ),
        (
            "dbgw_keepalive_reuses_total",
            "keep-alive reuses",
            "Requests served over an already-established keep-alive connection.",
            &m.keepalive_reuses,
        ),
        (
            "dbgw_pipelined_requests_total",
            "pipelined requests",
            "Requests already buffered behind an earlier one on the same connection.",
            &m.pipelined_requests,
        ),
        (
            "dbgw_responses_streamed_total",
            "responses streamed",
            "Responses sent chunked because the body crossed the streaming watermark.",
            &m.responses_streamed,
        ),
        (
            "dbgw_client_disconnects_total",
            "client disconnects",
            "Requests aborted because the client vanished mid-response.",
            &m.client_disconnects,
        ),
    ]
}

/// The gauges, same shape as [`counters`].
pub fn gauges(m: &Metrics) -> [Family<'_, Gauge>; 8] {
    [
        (
            "dbgw_requests_in_flight",
            "requests in flight",
            "Requests currently being processed by pool workers.",
            &m.requests_in_flight,
        ),
        (
            "dbgw_queue_depth",
            "queue depth",
            "Accepted connections waiting in the bounded queue for a worker.",
            &m.queue_depth,
        ),
        (
            "dbgw_cache_bytes",
            "cache bytes",
            "Bytes currently resident in the SQL result cache.",
            &m.cache_bytes,
        ),
        (
            "dbgw_snapshot_epoch",
            "snapshot epoch",
            "Epoch of the most recently published database snapshot.",
            &m.snapshot_epoch,
        ),
        (
            "dbgw_wal_size_bytes",
            "WAL size bytes",
            "Current size of the write-ahead log file in bytes.",
            &m.wal_size_bytes,
        ),
        (
            "dbgw_checkpoint_last_bytes",
            "checkpoint last bytes",
            "Size in bytes of the log the most recent checkpoint wrote.",
            &m.checkpoint_last_bytes,
        ),
        (
            "dbgw_open_connections",
            "open connections",
            "TCP connections currently open on the evented HTTP edge.",
            &m.open_connections,
        ),
        (
            "dbgw_idle_connections",
            "idle connections",
            "Open connections currently idle between requests.",
            &m.idle_connections,
        ),
    ]
}

/// The latency histograms, same shape as [`counters`].
pub fn histograms(m: &Metrics) -> [Family<'_, Histogram>; 5] {
    [
        (
            "dbgw_request_latency_seconds",
            "request",
            "End-to-end gateway request latency.",
            &m.request_latency_ns,
        ),
        (
            "dbgw_sql_latency_seconds",
            "sql",
            "Per-statement SQL latency.",
            &m.sql_latency_ns,
        ),
        (
            "dbgw_latch_wait_seconds",
            "latch wait",
            "Per-write-statement time blocked on table latches.",
            &m.latch_wait_ns,
        ),
        (
            "dbgw_group_commit_wait_seconds",
            "group-commit wait",
            "Time committing writers spent waiting for the group-commit fsync.",
            &m.group_commit_wait_ns,
        ),
        (
            "dbgw_ttfb_seconds",
            "ttfb",
            "Time from accepting a request to the first response byte on the socket.",
            &m.ttfb_ns,
        ),
    ]
}

fn histogram_block(out: &mut String, name: &str, help: &str, h: &Histogram) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let counts = h.bucket_counts();
    let mut cumulative = 0u64;
    for (i, bound) in BUCKET_BOUNDS_NS.iter().enumerate() {
        cumulative += counts[i];
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            *bound as f64 / 1e9
        ));
    }
    cumulative += counts[BUCKET_BOUNDS_NS.len()];
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
    out.push_str(&format!("{name}_sum {}\n", h.sum_ns() as f64 / 1e9));
    // `_count` is the `+Inf` bucket by definition; printing it from this
    // read rather than a second `h.count()` keeps a concurrent observe from
    // splitting the two.
    out.push_str(&format!("{name}_count {cumulative}\n"));
}

/// Age in milliseconds of the most recently published database snapshot
/// (0 until the first publication). A large value on a write-active gateway
/// would mean publication has stalled — the snapshot-read analogue of
/// replication lag.
pub fn snapshot_age_ms(m: &Metrics) -> u64 {
    if m.snapshots_published.get() == 0 {
        return 0;
    }
    crate::clock::process_mono_ms().saturating_sub(m.snapshot_publish_ms.get().max(0) as u64)
}

/// Render a metric registry in the Prometheus text exposition format.
/// Latency histograms are exported in seconds, per convention. Every family
/// carries `# HELP` and `# TYPE` headers (scrapers and the conformance
/// property suite both require them).
pub fn render_prometheus(m: &Metrics) -> String {
    let mut out = String::new();
    for (name, _, help, counter) in counters(m) {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} counter\n{name} {}\n",
            counter.get()
        ));
    }
    for (name, _, help, gauge) in gauges(m) {
        out.push_str(&format!(
            "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {}\n",
            gauge.get()
        ));
    }
    out.push_str(&format!(
        "# HELP dbgw_snapshot_age_ms Age of the newest published database snapshot.\n\
         # TYPE dbgw_snapshot_age_ms gauge\ndbgw_snapshot_age_ms {}\n",
        snapshot_age_ms(m)
    ));
    out.push_str(
        "# HELP dbgw_sqlcode_errors_total Error occurrences by SQLCODE.\n\
         # TYPE dbgw_sqlcode_errors_total counter\n",
    );
    for (code, count) in m.sqlcode_errors.snapshot() {
        out.push_str(&format!(
            "dbgw_sqlcode_errors_total{{code=\"{code}\"}} {count}\n"
        ));
    }
    for (name, _, help, h) in histograms(m) {
        histogram_block(&mut out, name, help, h);
    }
    out
}

/// Escape a string for use as a Prometheus label value (`\\`, `"`, `\n`).
fn label_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A per-digest family: name, help text, and the value it reads.
type DigestFamily = (&'static str, &'static str, fn(&DigestSnapshot) -> String);

/// Render the top-`n` query digests (by total execution time) as Prometheus
/// families labelled by digest key and masked statement text — the scraped
/// counterpart of the `/stats` digest table.
pub fn digest_prometheus(store: &DigestStore, n: usize) -> String {
    let top = store.top_by_total_time(n);
    let mut out = String::new();
    let families: [DigestFamily; 7] = [
        (
            "dbgw_digest_calls_total",
            "Executions folded into this query digest.",
            |d| d.calls.to_string(),
        ),
        (
            "dbgw_digest_errors_total",
            "Executions of this digest that returned an error.",
            |d| d.errors.to_string(),
        ),
        (
            "dbgw_digest_rows_returned_total",
            "Result rows returned by this digest.",
            |d| d.rows_returned.to_string(),
        ),
        (
            "dbgw_digest_rows_scanned_total",
            "Heap rows scanned executing this digest.",
            |d| d.rows_scanned.to_string(),
        ),
        (
            "dbgw_digest_cache_hits_total",
            "Executions of this digest served by the SQL result cache.",
            |d| d.cache_hits.to_string(),
        ),
        (
            "dbgw_digest_time_seconds_total",
            "Total execution time of this digest.",
            |d| format!("{}", d.total_ns as f64 / 1e9),
        ),
        (
            "dbgw_digest_latch_wait_seconds_total",
            "Time this digest spent blocked on table latches.",
            |d| format!("{}", d.latch_wait_ns as f64 / 1e9),
        ),
    ];
    for (name, help, value) in families {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
        for d in &top {
            out.push_str(&format!(
                "{name}{{digest=\"{:016x}\",text=\"{}\"}} {}\n",
                d.key,
                label_escape(&d.text),
                value(d)
            ));
        }
    }
    out
}

/// Render an [`SloReport`] as Prometheus gauges (families are emitted even
/// when unconfigured, with the unconfigured halves omitted).
pub fn slo_prometheus(report: &SloReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# HELP dbgw_slo_window_error_rate Error fraction over the sampled window.\n\
         # TYPE dbgw_slo_window_error_rate gauge\ndbgw_slo_window_error_rate {}\n",
        report.error_rate
    ));
    if let Some(att) = report.latency_attainment_pct {
        out.push_str(&format!(
            "# HELP dbgw_slo_latency_attainment_pct Share of sampled intervals meeting the p99 target.\n\
             # TYPE dbgw_slo_latency_attainment_pct gauge\ndbgw_slo_latency_attainment_pct {att}\n"
        ));
    }
    if let Some(burn) = report.burn_rate {
        out.push_str(&format!(
            "# HELP dbgw_slo_burn_rate Error-budget burn rate (1 = burning exactly at budget).\n\
             # TYPE dbgw_slo_burn_rate gauge\ndbgw_slo_burn_rate {burn}\n"
        ));
    }
    out
}

/// Render a metric registry as one JSON object keyed by the same names the
/// Prometheus exposition uses, so BENCH_JSON consumers and `/stats` scrapers
/// agree on vocabulary. Histograms export their `_count` and `_sum` (seconds).
pub fn metrics_json(m: &Metrics) -> String {
    let mut out = String::from("{");
    for (name, _, _, counter) in counters(m) {
        out.push_str(&format!("\"{name}\":{},", counter.get()));
    }
    for (name, _, _, gauge) in gauges(m) {
        out.push_str(&format!("\"{name}\":{},", gauge.get()));
    }
    out.push_str(&format!("\"dbgw_snapshot_age_ms\":{},", snapshot_age_ms(m)));
    for (name, _, _, h) in histograms(m) {
        out.push_str(&format!(
            "\"{name}_count\":{},\"{name}_sum\":{},",
            h.count(),
            h.sum_ns() as f64 / 1e9
        ));
    }
    out.push_str("\"dbgw_sqlcode_errors_total\":{");
    for (i, (code, count)) in m.sqlcode_errors.snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{code}\":{count}"));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use crate::trace;
    use std::sync::Arc;

    fn sample_trace() -> Trace {
        let clock = Arc::new(TestClock::new());
        trace::start_trace(clock.clone(), 42);
        {
            let _request = trace::span("request");
            clock.advance_micros(2);
            let _sql = trace::span("exec_sql");
            trace::note("sql", "SELECT \"x\"\nFROM t");
            clock.advance_micros(8);
        }
        trace::finish_trace().unwrap()
    }

    #[test]
    fn json_lines_shape_and_escaping() {
        let t = sample_trace();
        let jsonl = t.to_json_lines();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"trace\":42"));
        assert!(lines[0].contains("\"name\":\"request\""));
        assert!(lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0"));
        assert!(lines[1].contains("\"dur_ns\":8000"));
        // The note survives with its quote and newline escaped.
        assert!(lines[1].contains("SELECT \\\"x\\\"\\nFROM t"));
    }

    #[test]
    fn json_escape_handles_controls() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn tree_renders_nesting_and_durations() {
        let t = sample_trace();
        let tree = t.render_tree();
        assert!(tree.starts_with("trace request=42 spans=2 total=10.0us"));
        assert!(tree.contains("\n  request"));
        assert!(tree.contains("\n    exec_sql"));
        assert!(tree.contains("8.0us"));
    }

    #[test]
    fn jsonl_sink_appends() {
        let t = sample_trace();
        let path = std::env::temp_dir().join(format!("dbgw-obs-sink-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        t.append_jsonl(&path).unwrap();
        t.append_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn prometheus_render_is_well_formed() {
        let m = Metrics::new();
        m.requests.add(3);
        m.sqlcode_errors.record(-204);
        m.request_latency_ns.observe_ns(1_500);
        m.request_latency_ns.observe_ns(3_000_000);
        let text = render_prometheus(&m);
        assert!(text.contains("# TYPE dbgw_requests_total counter\ndbgw_requests_total 3\n"));
        assert!(text.contains("dbgw_sqlcode_errors_total{code=\"-204\"} 1"));
        // Cumulative buckets: the 2µs bucket holds the 1.5µs sample…
        assert!(text.contains("dbgw_request_latency_seconds_bucket{le=\"0.000002\"} 1"));
        // …and +Inf holds everything.
        assert!(text.contains("dbgw_request_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("dbgw_request_latency_seconds_count 2"));
    }

    #[test]
    fn every_family_has_help_and_type() {
        let text = render_prometheus(&Metrics::new());
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split(&['{', ' '][..]).next().unwrap();
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .unwrap_or(name);
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "missing TYPE for {family}"
            );
            assert!(
                text.contains(&format!("# HELP {family} ")),
                "missing HELP for {family}"
            );
        }
    }

    #[test]
    fn latch_wait_exports_as_histogram() {
        let m = Metrics::new();
        m.latch_wait_ns.observe_ns(1_500); // ≤ 2 µs bucket
        m.latch_wait_ns.observe_ns(600_000_000); // overflow
        let text = render_prometheus(&m);
        assert!(text.contains("# TYPE dbgw_latch_wait_seconds histogram"));
        assert!(text.contains("dbgw_latch_wait_seconds_bucket{le=\"0.000002\"} 1"));
        assert!(text.contains("dbgw_latch_wait_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("dbgw_latch_wait_seconds_count 2"));
        // The old bare-sum counter is gone.
        assert!(!text.contains("dbgw_latch_wait_ns_total"));
    }

    #[test]
    fn digest_families_render_top_n_with_labels() {
        let store = crate::digest::DigestStore::with_capacity(16, true);
        store.record(
            0xabc,
            "select \"q\" from t where x = ?",
            &crate::digest::DigestObservation {
                dur_ns: 2_000_000_000,
                rows_returned: 4,
                ..Default::default()
            },
        );
        store.record(
            0xdef,
            "cheap",
            &crate::digest::DigestObservation {
                dur_ns: 10,
                ..Default::default()
            },
        );
        let text = digest_prometheus(&store, 1);
        assert!(text.contains("# TYPE dbgw_digest_calls_total counter"));
        assert!(text.contains("# HELP dbgw_digest_calls_total"));
        // Only the top-1 (by time) digest appears, with escaped text label.
        assert!(text.contains("digest=\"0000000000000abc\""), "{text}");
        assert!(!text.contains("cheap"));
        assert!(text.contains("text=\"select \\\"q\\\" from t where x = ?\""));
        assert!(text.contains("dbgw_digest_time_seconds_total{digest=\"0000000000000abc\""));
        assert!(text.contains("} 2\n"), "seconds value: {text}");
    }

    #[test]
    fn slo_gauges_render_when_configured() {
        let report = crate::slo::evaluate(
            &[crate::series::SamplePoint {
                requests: 100,
                errors: 1,
                p99_ms: 5.0,
                ..Default::default()
            }],
            &crate::slo::SloConfig {
                p99_target_ms: Some(10.0),
                error_budget: Some(0.01),
            },
        );
        let text = slo_prometheus(&report);
        assert!(text.contains("dbgw_slo_window_error_rate 0.01"));
        assert!(text.contains("dbgw_slo_latency_attainment_pct 100"));
        assert!(text.contains("dbgw_slo_burn_rate 1\n"));
        assert!(text.contains("# TYPE dbgw_slo_burn_rate gauge"));
    }

    #[test]
    fn metrics_json_uses_prometheus_names() {
        let m = Metrics::new();
        m.sql_statements.add(5);
        m.sqlcode_errors.record(100);
        m.sql_latency_ns.observe_ns(2_000_000);
        let json = metrics_json(&m);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"dbgw_sql_statements_total\":5"));
        assert!(json.contains("\"dbgw_sql_latency_seconds_count\":1"));
        assert!(json.contains("\"dbgw_sql_latency_seconds_sum\":0.002"));
        assert!(json.contains("\"dbgw_sqlcode_errors_total\":{\"100\":1}"));
    }
}
