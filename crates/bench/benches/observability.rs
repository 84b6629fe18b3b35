//! E9 — observability overhead guard.
//!
//! The instrumentation points (spans, counters) live permanently in the hot
//! paths, so the acceptance bar is: with tracing *off*, an end-to-end gateway
//! request must cost the same as before the instrumentation existed (the
//! no-op path is one thread-local flag read per span plus a handful of
//! relaxed atomic adds). With tracing *on*, every span records timestamps
//! and the macro is re-parsed per request, so a real gap is expected — that
//! gap is the price of a trace, not of shipping the feature.
//!
//! Both modes land in BENCH_JSON, followed by the process metric counters
//! under their Prometheus names (via `Suite::record_metric`).

use dbgw_baselines::URLQUERY_MACRO;
use dbgw_cgi::{Gateway, TraceOptions};
use dbgw_testkit::bench::Suite;
use dbgw_workload::UrlDirectory;
use std::hint::black_box;

fn build_gateway(trace: TraceOptions) -> Gateway {
    let db = minisql::Database::new();
    UrlDirectory::generate(1_000, 1996).load(&db).unwrap();
    let gw = Gateway::new(db).with_trace(trace);
    gw.add_macro("urlquery.d2w", URLQUERY_MACRO).unwrap();
    gw
}

const QUERY: &str = "SEARCH=ib&USE_TITLE=yes&DBFIELDS=title";

fn main() {
    let mut suite = Suite::new("observability");
    {
        let mut group = suite.group("E9_trace_overhead");
        group.sample_size(20);

        let off = build_gateway(TraceOptions::default());
        group.bench("trace_off", || {
            let resp = off.get("urlquery.d2w", "report", black_box(QUERY));
            assert_eq!(resp.status, 200);
            black_box(resp)
        });

        // Tracing on: spans record, the macro re-parses per request, and the
        // finished trace is rendered into an HTML comment on every response.
        let on = build_gateway(TraceOptions {
            annotate: true,
            trace_file: None,
            slow_ms: None,
        });
        group.bench("trace_on", || {
            let resp = on.get("urlquery.d2w", "report", black_box(QUERY));
            assert_eq!(resp.status, 200);
            black_box(resp)
        });
    }

    // Snapshot the process counters the run just drove, under the same names
    // the /stats Prometheus dump uses.
    let m = dbgw_obs::metrics();
    for (name, value) in [
        ("dbgw_requests_total", m.requests.get()),
        ("dbgw_macro_parses_total", m.macro_parses.get()),
        ("dbgw_substitutions_total", m.substitutions.get()),
        ("dbgw_sql_statements_total", m.sql_statements.get()),
        ("dbgw_rows_rendered_total", m.rows_rendered.get()),
        ("dbgw_traces_recorded_total", m.traces_recorded.get()),
    ] {
        suite.record_metric(name, value as f64);
    }
    suite.finish();
}
