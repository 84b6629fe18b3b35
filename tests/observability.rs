//! End-to-end observability: a traced request produces the span tree the
//! tentpole promises, `/stats` reflects the traffic, the slow-query log and
//! request ids correlate, and the trace sinks (HTML comment, JSON lines)
//! carry the same trace.

use dbgw_cgi::{CgiRequest, Config, Gateway, HttpClient, HttpServer, TraceOptions};
use dbgw_obs::{trace, StdClock, TestClock};
use std::sync::Arc;

const MACRO: &str = r#"%DEFINE greet = "hello"
%SQL{ SELECT url, title FROM urldb WHERE title LIKE '%$(SEARCH)%'
%SQL_REPORT{<UL>
%ROW{<LI><A HREF="$(V1)">$(V2)</A>
%}</UL>
%}
%}
%HTML_INPUT{<FORM ACTION="/cgi-bin/db2www/u.d2w/report"><INPUT NAME="SEARCH"></FORM>%}
%HTML_REPORT{<H1>$(greet) from request $(DTW_REQUEST_ID)</H1>
%EXEC_SQL
%}"#;

fn gateway(trace: TraceOptions) -> Gateway {
    let db = minisql::Database::new();
    db.run_script(
        "CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80));
         INSERT INTO urldb VALUES ('http://www.ibm.com', 'IBM'),
                                  ('http://www.eso.org', 'ESO');",
    )
    .unwrap();
    let gw = Gateway::new(db).with_trace(trace);
    gw.add_macro("u.d2w", MACRO).unwrap();
    gw
}

/// The acceptance-criteria trace: request, parse_macro, substitute,
/// exec_sql, and render_report spans, nested plausibly.
#[test]
fn traced_request_produces_the_expected_span_tree() {
    let gw = gateway(TraceOptions::default());
    let req = CgiRequest::get("/u.d2w/report", "SEARCH=IB");
    // Own the trace from outside, as the db2www binary does: the gateway
    // nests its `request` span (and re-parses the macro) under it.
    assert!(trace::start_trace(
        Arc::new(StdClock::new()),
        req.request_id
    ));
    let resp = gw.handle(&req);
    let t = trace::finish_trace().unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(t.request_id, req.request_id);

    for name in [
        "request",
        "parse_macro",
        "substitute",
        "exec_sql",
        "render_report",
        "sql_parse",
        "sql_execute",
    ] {
        assert!(!t.spans_named(name).is_empty(), "missing span {name}");
    }

    // Nesting: everything sits under `request`; render_report and the
    // minisql spans sit under exec_sql.
    let request_idx = t.spans.iter().position(|s| s.name == "request").unwrap();
    assert_eq!(t.spans[request_idx].depth, 0);
    let exec_idx = t.spans.iter().position(|s| s.name == "exec_sql").unwrap();
    assert_eq!(t.spans[exec_idx].parent, Some(request_idx));
    let render = &t.spans_named("render_report")[0];
    assert_eq!(render.parent, Some(exec_idx));
    assert_eq!(t.spans_named("sql_execute")[0].parent, Some(exec_idx));

    // Plausible durations under a real clock: children start no earlier
    // than their parent and end no later.
    for span in &t.spans {
        if let Some(p) = span.parent {
            let parent = &t.spans[p];
            assert!(span.start_ns >= parent.start_ns);
            assert!(span.start_ns + span.dur_ns <= parent.start_ns + parent.dur_ns);
        }
    }

    // The exec_sql span carries the substituted statement as a note.
    let exec = &t.spans[exec_idx];
    let sql = &exec.notes.iter().find(|(k, _)| *k == "sql").unwrap().1;
    assert!(sql.contains("LIKE '%IB%'"), "{sql}");
}

#[test]
fn annotate_mode_appends_sanitized_html_comment() {
    let gw = gateway(TraceOptions {
        annotate: true,
        trace_file: None,
        slow_ms: None,
    });
    // A SEARCH containing `--` flows into the SQL note; the comment must
    // not contain a literal `--` anywhere inside its body.
    let resp = gw.get("u.d2w", "report", "SEARCH=a--b");
    assert_eq!(resp.status, 200);
    let opener = "<!-- dbgw trace";
    let start = resp.body.find(opener).expect("trace comment");
    let inner = &resp.body[start + opener.len()..];
    let end = inner.find("-->").expect("comment closed");
    let inner = &inner[..end];
    assert!(inner.contains("request"));
    assert!(inner.contains("exec_sql"));
    assert!(
        !inner.contains("--"),
        "unsanitized `--` inside HTML comment: {inner}"
    );
}

#[test]
fn trace_file_sink_records_json_lines() {
    let path = std::env::temp_dir().join(format!("dbgw-obs-test-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let gw = gateway(TraceOptions {
        annotate: false,
        trace_file: Some(path.clone()),
        slow_ms: None,
    });
    assert!(gw.trace_options().tracing());
    let resp = gw.get("u.d2w", "report", "SEARCH=ESO");
    assert_eq!(resp.status, 200);
    let text = std::fs::read_to_string(&path).unwrap();
    for name in [
        "request",
        "parse_macro",
        "substitute",
        "exec_sql",
        "render_report",
    ] {
        assert!(
            text.contains(&format!("\"name\":\"{name}\"")),
            "missing {name} in {text}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn slow_query_log_correlates_by_request_id() {
    // Threshold 0 ms: every statement is "slow".
    let gw = gateway(TraceOptions {
        annotate: false,
        trace_file: None,
        slow_ms: Some(0),
    });
    let req = CgiRequest::get("/u.d2w/report", "SEARCH=IB");
    let resp = gw.handle(&req);
    assert_eq!(resp.status, 200);
    let slow = gw.slow_queries().entries();
    assert_eq!(slow.len(), 1);
    assert_eq!(slow[0].request_id, req.request_id);
    // The log records the *digest* text: literals masked, never raw user
    // input. `'%IB%'` must not survive.
    assert!(
        slow[0].statement.contains("like ?"),
        "{}",
        slow[0].statement
    );
    assert!(!slow[0].statement.contains("IB"), "{}", slow[0].statement);
    assert_eq!(slow[0].sqlcode, 0);
    // DBGW_SLOW_MS enables passive plan capture: the entry carries the
    // per-operator EXPLAIN ANALYZE summary.
    let plan = slow[0].plan.as_deref().expect("plan actuals attached");
    assert!(plan.contains("scan"), "{plan}");
    assert!(plan.contains("total"), "{plan}");
    assert!(slow[0]
        .to_line()
        .starts_with(&format!("slow-query request={}", req.request_id)));
    assert!(
        slow[0].to_line().contains(" plan=["),
        "{}",
        slow[0].to_line()
    );
}

#[test]
fn request_id_reaches_error_pages_and_macro_text() {
    let gw = gateway(TraceOptions::default());
    // Error page: carries the correlation id.
    let req = CgiRequest::get("/nope.d2w/report", "");
    let resp = gw.handle(&req);
    assert_eq!(resp.status, 404);
    assert!(resp.body.contains(&format!("request {}", req.request_id)));
    // Macro text: $(DTW_REQUEST_ID) substitutes to the same id.
    let req = CgiRequest::get("/u.d2w/report", "SEARCH=IB");
    let resp = gw.handle(&req);
    assert!(resp
        .body
        .contains(&format!("hello from request {}", req.request_id)));
}

#[test]
fn stats_page_reports_the_traffic_it_serves() {
    let gw = gateway(TraceOptions::default());
    let server = HttpServer::start(gw, 0).unwrap();
    let client = HttpClient::new(server.addr());
    let resp = client
        .get("/cgi-bin/db2www/u.d2w/report?SEARCH=IB")
        .unwrap();
    assert_eq!(resp.status, 200);

    let stats = client.get("/stats").unwrap();
    assert_eq!(stats.status, 200);
    assert!(stats.body.contains("Gateway Statistics"));
    // No `Config` was applied at start, so none is claimed to be in force.
    assert!(!stats.body.contains("<H2>Configuration</H2>"));

    let prom = client.get("/stats?format=prometheus").unwrap();
    assert_eq!(prom.status, 200);
    let requests: u64 = prom
        .body
        .lines()
        .find_map(|l| l.strip_prefix("dbgw_requests_total "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(requests >= 1, "{}", prom.body);
    let statements: u64 = prom
        .body
        .lines()
        .find_map(|l| l.strip_prefix("dbgw_sql_statements_total "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(statements >= 1);
    assert!(prom.body.contains("dbgw_request_latency_seconds_count"));
    server.shutdown();
}

/// The HTML page and the Prometheus text read one metric list: every family
/// the exposition declares is named on the page.
#[test]
fn stats_page_names_every_exported_family() {
    let server = HttpServer::start(gateway(TraceOptions::default()), 0).unwrap();
    let html = HttpClient::new(server.addr()).get("/stats").unwrap().body;
    let prom = dbgw_obs::export::render_prometheus(dbgw_obs::metrics());
    let families = prom.lines().filter_map(|l| l.strip_prefix("# TYPE "));
    for family in families.filter_map(|l| l.split(' ').next()) {
        assert!(
            html.contains(&format!("<CODE>{family}</CODE>")),
            "{family} is exported but not on /stats"
        );
    }
    server.shutdown();
}

/// A server booted from a `Config` shows it on `/stats`: every accepted name
/// with its effective value and whether the environment set it — and what is
/// shown is what is in force, over whatever the gateway was built with (here
/// trace annotation, appended to the page, and the deadline). The
/// Prometheus text carries no such section.
#[test]
fn stats_page_shows_the_boot_configuration() {
    let config = Config::from_lookup([("DBGW_TRACE", "1"), ("DBGW_WORKERS", "2")])
        .expect("valid configuration");
    let db = config.open_database().unwrap();
    db.run_script("CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80))")
        .unwrap();
    let gw = Gateway::new(db).with_deadline_ms(Some(1));
    gw.add_macro("u.d2w", MACRO).unwrap();
    let server = HttpServer::start_from_config(gw, 0, &config).unwrap();
    let client = HttpClient::new(server.addr());

    let page = client.get("/cgi-bin/db2www/u.d2w/input").unwrap();
    assert!(page.body.contains("<!-- dbgw trace"), "{}", page.body);

    let html = client.get("/stats").unwrap().body;
    assert!(html.contains("<H2>Configuration</H2>"), "{html}");
    for (name, _, _) in config.settings() {
        assert!(html.contains(&format!("<TD>{name}</TD>")), "{name} missing");
    }
    assert!(
        html.contains("<TD>DBGW_TRACE</TD><TD>1</TD><TD>set</TD>"),
        "{html}"
    );
    assert!(
        html.contains("<TD>DBGW_WORKERS</TD><TD>2</TD><TD>set</TD>"),
        "{html}"
    );
    assert!(
        html.contains("<TD>DBGW_DEADLINE_MS</TD><TD>-</TD><TD>default</TD>"),
        "{html}"
    );
    assert!(
        html.contains("<TD>DBGW_FSYNC</TD><TD>1</TD><TD>default</TD>"),
        "{html}"
    );
    let prom = client.get("/stats?format=prometheus").unwrap().body;
    assert!(!prom.contains("DBGW_WORKERS"), "{prom}");
    server.shutdown();
}

/// The tentpole's time-series + SLO layer, driven deterministically: a
/// `TestClock` paces the sampler, fat latency observations pin the sampled
/// p99, and a burst of error pages burns the error budget. The assertions
/// tolerate traffic from concurrently running tests (the metrics registry is
/// process-global) — pollution only adds *successful, fast* requests, which
/// cannot un-burn the budget or drag a 400 ms p99 under a 10 ms target.
#[test]
fn stats_reports_sampled_p99_and_slo_burn_rate() {
    let clock = Arc::new(TestClock::new());
    let sampler = Arc::new(dbgw_obs::series::Sampler::new(1_000, 60));
    let db = minisql::Database::new();
    db.run_script(
        "CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80));
         INSERT INTO urldb VALUES ('http://www.ibm.com', 'IBM');",
    )
    .unwrap();
    let gw = Gateway::new(db)
        .with_clock(clock.clone())
        .with_sampler(sampler.clone())
        .with_slo(dbgw_obs::slo::SloConfig {
            p99_target_ms: Some(10.0),
            error_budget: Some(0.05),
        });
    gw.add_macro("u.d2w", MACRO).unwrap();
    let server = HttpServer::start(gw, 0).unwrap();
    let client = HttpClient::new(server.addr());

    // First gateway request anchors the sampler's baseline at t=0.
    assert_eq!(
        client
            .get("/cgi-bin/db2www/u.d2w/report?SEARCH=IB")
            .unwrap()
            .status,
        200
    );
    // Window traffic: 50 successes, 50 error pages (missing macro → 404).
    for _ in 0..50 {
        client
            .get("/cgi-bin/db2www/u.d2w/report?SEARCH=IB")
            .unwrap();
        client.get("/cgi-bin/db2www/nope.d2w/report").unwrap();
    }
    // Pin the window's p99: 200 observations land in the ≤ 524.288 ms
    // bucket, far past the 10 ms target and numerous enough to own the
    // 99th percentile against any concurrent traffic.
    for _ in 0..200 {
        dbgw_obs::metrics()
            .request_latency_ns
            .observe_ns(400_000_000);
    }
    // One full interval elapses; the next request's tick emits the sample.
    clock.advance_millis(1_000);
    assert_eq!(
        client
            .get("/cgi-bin/db2www/u.d2w/report?SEARCH=IB")
            .unwrap()
            .status,
        200
    );
    assert!(
        !sampler.points().is_empty(),
        "sample should have been taken"
    );

    let prom = client.get("/stats?format=prometheus").unwrap().body;
    let burn: f64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("dbgw_slo_burn_rate "))
        .expect("burn rate exported")
        .parse()
        .unwrap();
    // ≥ 50 errors over ~101 window requests against a 5% budget: the burn
    // rate is far above 1 even with concurrent successful traffic mixed in.
    assert!(burn > 1.0, "burn rate {burn}\n{prom}");
    let attainment: f64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("dbgw_slo_latency_attainment_pct "))
        .expect("attainment exported")
        .parse()
        .unwrap();
    assert_eq!(attainment, 0.0, "{prom}");
    // The digest families ride along on the same exposition.
    assert!(prom.contains("dbgw_digest_calls_total{digest=\""), "{prom}");
    assert!(prom.contains("like ?"), "{prom}");

    let html = client.get("/stats").unwrap().body;
    assert!(html.contains("<H2>History</H2>"), "{html}");
    // The sampled p99 is exactly the fat bucket's upper bound.
    assert!(html.contains("latest 524.288"), "{html}");
    assert!(html.contains("<H2>SLO</H2>"), "{html}");
    assert!(html.contains("<H2>Query digests</H2>"), "{html}");
    assert!(html.contains("like ?"), "{html}");
    // The durability families render in both views even for an in-memory
    // database (the counters exist; they just read zero here).
    assert!(html.contains("WAL records"), "{html}");
    assert!(html.contains("checkpoint last bytes"), "{html}");
    assert!(prom.contains("dbgw_wal_fsyncs_total"), "{prom}");
    assert!(prom.contains("dbgw_checkpoints_total"), "{prom}");
    assert!(
        prom.contains("dbgw_group_commit_wait_seconds_bucket"),
        "{prom}"
    );
    server.shutdown();
}
