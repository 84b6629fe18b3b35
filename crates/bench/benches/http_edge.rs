//! E16 — the evented HTTP edge: keep-alive multiplexing at scale and
//! streamed time-to-first-byte.
//!
//! Two claims under test (DESIGN.md §15):
//!
//! 1. **Idle connections are nearly free.** Thousands of open keep-alive
//!    connections park in the epoll loop as one fd + one buffer each — no
//!    worker, no thread. With the fleet parked, `/stats` round-trips must
//!    still clear a generous p99 floor, and a reused connection must beat a
//!    fresh connect-per-request round trip.
//!
//! 2. **Streaming decouples TTFB from page size.** On a large report
//!    (100 k rows, materialized before each request's clock starts so
//!    render latency isn't hidden behind scan or copy time) the buffered edge cannot answer before the full render,
//!    while the chunked edge answers after the first watermark of rows.
//!    The ratio of the two TTFBs is the asserted floor. A second series
//!    serves the same report from a real minisql table through its result
//!    cache — the path a repeated report takes in production — so a copy or
//!    conversion of the whole cached result before the first row renders
//!    shows in its TTFB; it has its own floor.
//!
//! Full mode holds 10 000 idle connections. The process fd ceiling is
//! 20 000, so a single process cannot own both ends of 10 000 loopback
//! pairs; the bench re-execs itself as a *holder* child process
//! (`HTTP_EDGE_HOLD=addr count`) that opens the client ends and parks,
//! leaving the server process with just its 10 000 accepted sockets.
//! Quick mode scales everything down for CI.

use dbgw_cache::CacheConfig;
use dbgw_cgi::{FnSource, Gateway, HttpClient, HttpConnection, HttpServer, ServerConfig};
use dbgw_core::db::{Database, DbRows, FnDatabase};
use dbgw_testkit::bench::Suite;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// A small gateway for round-trip and idle-fleet measurements.
fn small_gateway() -> Gateway {
    let db = minisql::Database::new();
    db.run_script(
        "CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80));
         INSERT INTO urldb VALUES ('http://www.ibm.com', 'IBM'),
                                  ('http://www.eso.org', 'ESO');",
    )
    .unwrap();
    let gw = Gateway::new(db);
    gw.add_macro(
        "q.d2w",
        "%SQL{ SELECT url, title FROM urldb ORDER BY title %}\n%HTML_REPORT{%EXEC_SQL%}",
    )
    .unwrap();
    gw
}

/// The result set the next report request will receive, staged by the
/// caller before the request's clock starts.
type Staged = Arc<Mutex<Option<Vec<Vec<String>>>>>;

/// The paper's flagship report: a hyperlink list rendered row by row
/// through a %ROW template (column slots bound once per result).
const BIG_REPORT: &str = "%SQL{ SELECT n, pad FROM big ORDER BY n\n\
     %SQL_REPORT{<UL>\n\
     %ROW{<LI>#$(ROW_NUM) <A HREF=\"/item/$(V1)\">$(V_pad)</A> ($(VLIST))\n%}\
     </UL>\nTotal $(ROW_NUM) rows.%}\n%}\n\
     %HTML_REPORT{%EXEC_SQL%}";

/// Row `i` of the big report: a number and a padded item label.
fn big_row(i: usize) -> (usize, String) {
    (i, format!("item {i} {}", "x".repeat(40)))
}

/// A gateway over a `rows`-row result set, for reports far past the
/// watermark, plus a closure that stages one materialized copy of that
/// result set for the next request. The deep clone runs in the caller,
/// outside the timed window, so neither edge's TTFB includes it or scan
/// time: the TTFB comparison isolates the edge's render path.
fn report_gateway(rows: usize) -> (Gateway, impl Fn()) {
    let data: Vec<Vec<String>> = (0..rows)
        .map(|i| {
            let (n, pad) = big_row(i);
            vec![n.to_string(), pad]
        })
        .collect();
    let staged: Staged = Arc::default();
    let stage = {
        let staged = staged.clone();
        move || *staged.lock().unwrap() = Some(data.clone())
    };
    let gw = Gateway::new(FnSource(move || {
        let staged = staged.clone();
        Box::new(FnDatabase(move |_sql: &str| {
            let rows = staged.lock().unwrap().take();
            Ok(DbRows {
                columns: vec!["n".into(), "pad".into()],
                rows: rows.expect("a result set staged for this request"),
                affected: 0,
            })
        })) as Box<dyn Database + Send>
    }));
    gw.add_macro("big.d2w", BIG_REPORT).unwrap();
    (gw, stage)
}

/// A gateway over a real `rows`-row minisql table, with a result cache
/// large enough that every request after the first is served from it:
/// nothing is staged, so each timed request reads the cached rows the way
/// a repeated report does in production.
fn cached_report_gateway(rows: usize) -> Gateway {
    let db = minisql::Database::with_cache_config(&CacheConfig {
        max_bytes: 256 << 20,
    });
    db.run_script("CREATE TABLE big (n INTEGER, pad VARCHAR(80))")
        .unwrap();
    for start in (0..rows).step_by(1000) {
        let values: Vec<String> = (start..rows.min(start + 1000))
            .map(|i| {
                let (n, pad) = big_row(i);
                format!("({n}, '{pad}')")
            })
            .collect();
        db.run_script(&format!("INSERT INTO big VALUES {}", values.join(",")))
            .unwrap();
    }
    let gw = Gateway::new(db);
    gw.add_macro("big.d2w", BIG_REPORT).unwrap();
    gw
}

/// TTFB of the big report from a streaming and a buffered edge over the
/// gateways `make` builds; records `{prefix}_…` metrics, asserts both pages
/// match and the TTFB speedup clears `floor`.
fn ttfb_series(
    suite: &mut Suite,
    prefix: &str,
    k: usize,
    floor: f64,
    make: impl Fn() -> (Gateway, Box<dyn Fn()>),
) {
    let (streaming_gw, stage_streaming) = make();
    let (buffered_gw, stage_buffered) = make();
    let streaming = HttpServer::start_with_config(streaming_gw, 0, ServerConfig::default())
        .expect("start streaming server");
    let buffered = HttpServer::start_with_config(
        buffered_gw,
        0,
        ServerConfig {
            // An unreachable watermark reproduces the pre-streaming edge:
            // the whole page is rendered before the first byte leaves.
            stream_watermark: usize::MAX,
            ..ServerConfig::default()
        },
    )
    .expect("start buffered server");

    let (ttfb_streamed, full_streamed, body_streamed) =
        measure_report(streaming.addr(), k, stage_streaming);
    let (ttfb_buffered, full_buffered, body_buffered) =
        measure_report(buffered.addr(), k, stage_buffered);
    assert_eq!(
        body_streamed, body_buffered,
        "both edges must serve the identical page"
    );
    let speedup = ttfb_buffered / ttfb_streamed.max(1e-6);
    suite.record_metric(&format!("{prefix}_report_bytes"), body_streamed as f64);
    suite.record_metric(&format!("{prefix}_ttfb_streamed_ms"), ttfb_streamed);
    suite.record_metric(&format!("{prefix}_ttfb_buffered_ms"), ttfb_buffered);
    suite.record_metric(&format!("{prefix}_full_streamed_ms"), full_streamed);
    suite.record_metric(&format!("{prefix}_full_buffered_ms"), full_buffered);
    suite.record_metric(&format!("{prefix}_ttfb_speedup"), speedup);
    assert!(
        speedup >= floor,
        "{prefix}: streamed TTFB {ttfb_streamed:.2} ms vs buffered {ttfb_buffered:.2} ms: \
         speedup {speedup:.1}x under the {floor}x floor"
    );
    streaming.shutdown();
    buffered.shutdown();
}

/// Child-process mode: open `count` sockets to `addr`, report readiness on
/// stdout, and hold them all open until the parent closes our stdin.
fn run_holder(spec: &str) -> ! {
    let (addr, count) = spec.split_once(' ').expect("HTTP_EDGE_HOLD = 'addr count'");
    let count: usize = count.parse().expect("holder count");
    let mut fleet = Vec::with_capacity(count);
    for i in 0..count {
        fleet.push(TcpStream::connect(addr).unwrap_or_else(|e| {
            panic!("holder: open connection {i}/{count}: {e}");
        }));
    }
    println!("ready {count}");
    let _ = std::io::stdout().flush();
    // Park until the parent is done with us (stdin EOF), then let the
    // process exit drop the whole fleet at once.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    drop(fleet);
    std::process::exit(0);
}

/// Spawn the holder child and wait until its fleet is fully connected.
fn spawn_holder(addr: std::net::SocketAddr, count: usize) -> Child {
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = Command::new(exe)
        .env("HTTP_EDGE_HOLD", format!("{addr} {count}"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn holder child");
    let mut ready = String::new();
    BufReader::new(child.stdout.take().expect("holder stdout"))
        .read_line(&mut ready)
        .expect("holder readiness");
    assert!(ready.starts_with("ready "), "holder said: {ready:?}");
    child
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Warm the connection once, then measure TTFB and full-response time over
/// `k` requests, staging each request's result set with `stage` before its
/// clock starts; returns (median TTFB ms, median full ms, body bytes).
fn measure_report(addr: std::net::SocketAddr, k: usize, stage: impl Fn()) -> (f64, f64, usize) {
    let path = "/cgi-bin/db2www/big.d2w/report";
    let mut conn = HttpConnection::open(addr).expect("connect");
    stage();
    let warm = conn.get(path).expect("warm request");
    assert_eq!(warm.status, 200, "warm request failed: {}", warm.body);
    let body_len = warm.body.len();
    let mut ttfbs = Vec::with_capacity(k);
    let mut fulls = Vec::with_capacity(k);
    for _ in 0..k {
        stage();
        let started = Instant::now();
        conn.send_get(path).expect("send");
        let (resp, ttfb) = conn.read_response_timed().expect("read");
        let full = started.elapsed();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), body_len, "unstable body size");
        ttfbs.push(ttfb.as_secs_f64() * 1e3);
        fulls.push(full.as_secs_f64() * 1e3);
    }
    (median(&mut ttfbs), median(&mut fulls), body_len)
}

fn main() {
    if let Ok(spec) = std::env::var("HTTP_EDGE_HOLD") {
        run_holder(&spec);
    }
    let mut suite = Suite::new("http_edge");
    let quick = quick_mode();

    // ---- Part 1: a parked fleet of idle keep-alive connections ----------
    let idle_n: usize = if quick { 500 } else { 10_000 };
    let server = HttpServer::start_with_config(
        small_gateway(),
        0,
        ServerConfig {
            // The fleet must stay parked for the whole measurement, and the
            // probe connections must fit above it.
            keepalive: Duration::from_secs(600),
            max_conns: 12_000,
            // The timed reused-connection loop makes far more requests than
            // the default per-connection cap.
            max_requests: 1_000_000,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();

    let mut holder = spawn_holder(addr, idle_n);
    // Give the event loop a tick to accept and park the stragglers.
    std::thread::sleep(Duration::from_millis(300));
    let open = dbgw_obs::metrics().open_connections.get();
    suite.record_metric("http_open_connections", open as f64);
    assert!(
        open >= idle_n as i64,
        "only {open} of {idle_n} connections tracked open"
    );

    // p99 of /stats with the whole fleet parked.
    let samples = if quick { 60 } else { 200 };
    let mut probe = HttpConnection::open(addr).expect("probe connection");
    let mut lat = Vec::with_capacity(samples);
    for _ in 0..samples {
        let started = Instant::now();
        let resp = probe.get("/stats").expect("stats request");
        assert_eq!(resp.status, 200);
        lat.push(started.elapsed().as_secs_f64() * 1e3);
    }
    lat.sort_by(f64::total_cmp);
    let p99 = lat[(samples * 99 / 100).min(samples - 1)];
    suite.record_metric("http_stats_p99_ms", p99);
    assert!(
        p99 < 250.0,
        "/stats p99 {p99:.1} ms with {idle_n} idle connections parked"
    );

    // Reused keep-alive connection vs a fresh connect per request.
    {
        let mut group = suite.group("roundtrip");
        group.bench("fresh_connection", || {
            let resp = HttpClient::new(addr)
                .get("/cgi-bin/db2www/q.d2w/report")
                .expect("fresh get");
            assert_eq!(resp.status, 200);
        });
        let mut reused = HttpConnection::open(addr).expect("reused connection");
        group.bench("reused_connection", move || {
            let resp = reused
                .get("/cgi-bin/db2www/q.d2w/report")
                .expect("reused get");
            assert_eq!(resp.status, 200);
        });
    }
    drop(holder.stdin.take());
    let _ = holder.wait();
    server.shutdown();

    // ---- Part 2: TTFB, streamed vs buffered ------------------------------
    let rows = if quick { 20_000 } else { 100_000 };
    let k = if quick { 3 } else { 5 };
    // Staged result sets: the edge's render path alone.
    let staged_floor = if quick { 3.0 } else { 10.0 };
    ttfb_series(&mut suite, "http", k, staged_floor, || {
        let (gw, stage) = report_gateway(rows);
        (gw, Box::new(stage))
    });
    // Result-cache hits on a real table: the path a repeated report takes.
    // An edge that copies or formats the whole cached result before the
    // first row renders reads 2–5x here; one that does not, 50–300x, and
    // 8x in the worst quick run seen on a busy 2-core host. More samples
    // than above: a hit is cheap, and the median must ride out a
    // scheduling hiccup.
    let cached_floor = if quick { 6.0 } else { 20.0 };
    ttfb_series(&mut suite, "http_cached", 9, cached_floor, || {
        (cached_report_gateway(rows), Box::new(|| {}))
    });

    suite.finish();
}
