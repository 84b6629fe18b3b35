//! End-to-end tests for the evented HTTP/1.1 edge: keep-alive reuse,
//! pipelining, slowloris defense, idle expiry, chunked streaming, and
//! mid-stream disconnect cancellation.
//!
//! The process-wide metrics registry is shared across tests, so every
//! assertion on counters is a before/after delta with `>=`, never equality.

use dbgw_cgi::client::{decode_chunked, encode_chunked, ChunkStatus};
use dbgw_cgi::{FnSource, Gateway, HttpClient, HttpConnection, HttpServer, ServerConfig};
use dbgw_core::db::{Database, DbRows, FnDatabase};
use dbgw_testkit::gen::{bytes, vec_of};
use dbgw_testkit::{prop_assert, prop_assert_eq, props};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn minisql_gateway() -> Gateway {
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
        "%SQL{ SELECT url, title FROM urldb ORDER BY title %}\n\
         %HTML_REPORT{%EXEC_SQL%}",
    )
    .unwrap();
    gw
}

/// A gateway whose database returns `rows` copies of a padded row, for
/// reports far larger than the streaming watermark.
fn big_report_gateway(rows: usize) -> Gateway {
    let gw = Gateway::new(FnSource(move || {
        Box::new(FnDatabase(move |_sql: &str| {
            Ok(DbRows {
                columns: vec!["line".into()],
                rows: (0..rows)
                    .map(|i| vec![format!("row {i} {}", "x".repeat(40))])
                    .collect(),
                affected: 0,
            })
        })) as Box<dyn Database + Send>
    }));
    gw.add_macro(
        "big.d2w",
        "%SQL{ SELECT line FROM big %}\n%HTML_REPORT{%EXEC_SQL%}",
    )
    .unwrap();
    gw
}

#[test]
fn keepalive_connection_reuses_and_pipelines() {
    let server =
        HttpServer::start_with_config(minisql_gateway(), 0, ServerConfig::default()).unwrap();
    server.add_static_page("/p1", "<HTML><BODY>page one</BODY></HTML>");
    server.add_static_page("/p2", "<HTML><BODY>the second page</BODY></HTML>");
    server.add_static_page("/p3", "<HTML><BODY>a third, longer page body</BODY></HTML>");
    let m = dbgw_obs::metrics();
    let reuses_before = m.keepalive_reuses.get();
    let pipelined_before = m.pipelined_requests.get();

    let mut conn = HttpConnection::open(server.addr()).unwrap();
    // Sequential reuse: several requests on the one connection.
    for _ in 0..3 {
        let resp = conn.get("/cgi-bin/db2www/q.d2w/report").unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("IBM"));
    }
    assert!(m.keepalive_reuses.get() >= reuses_before + 2);

    // Pipelined burst: three requests written back-to-back in one segment
    // before any response is read; the responses must come back complete
    // and in order.
    conn.send_get_burst(&["/p1", "/p2", "/p3"]).unwrap();
    let bodies: Vec<String> = (0..3).map(|_| conn.read_response().unwrap().body).collect();
    assert!(bodies[0].contains("page one"), "{bodies:?}");
    assert!(bodies[1].contains("the second page"), "{bodies:?}");
    assert!(
        bodies[2].contains("a third, longer page body"),
        "{bodies:?}"
    );
    assert!(m.pipelined_requests.get() > pipelined_before);
    server.shutdown();
}

#[test]
fn slowloris_partial_request_gets_408_and_frees_the_connection_slot() {
    let config = ServerConfig {
        io_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = HttpServer::start_with_config(minisql_gateway(), 0, config).unwrap();

    // Drip half a request line and stall, like a slowloris client.
    let mut sock = TcpStream::connect(server.addr()).unwrap();
    sock.write_all(b"GET /cgi-bin/db2www/q.d2w/rep").unwrap();
    sock.flush().unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut raw = String::new();
    sock.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 408"), "{raw}");
    assert!(raw.contains("Connection: close"), "{raw}");

    // The stalled connection tied up no worker: a real request still works.
    let resp = HttpClient::new(server.addr())
        .get("/cgi-bin/db2www/q.d2w/report")
        .unwrap();
    assert_eq!(resp.status, 200);
    server.shutdown();
}

#[test]
fn idle_keepalive_connection_expires_silently() {
    let config = ServerConfig {
        keepalive: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let server = HttpServer::start_with_config(minisql_gateway(), 0, config).unwrap();
    let mut conn = HttpConnection::open(server.addr()).unwrap();
    assert_eq!(
        conn.get("/cgi-bin/db2www/q.d2w/report").unwrap().status,
        200
    );

    // Past the keep-alive budget the server just closes the parked socket.
    std::thread::sleep(Duration::from_millis(700));
    conn.send_get("/cgi-bin/db2www/q.d2w/report").ok();
    assert!(
        conn.read_response().is_err(),
        "an expired keep-alive connection must be closed"
    );
    server.shutdown();
}

#[test]
fn large_report_streams_chunked_and_small_pages_keep_etags() {
    let server =
        HttpServer::start_with_config(big_report_gateway(2_000), 0, ServerConfig::default())
            .unwrap();
    let m = dbgw_obs::metrics();
    let streamed_before = m.responses_streamed.get();

    // Far over the 16 KB watermark: the response must arrive chunked.
    let mut conn = HttpConnection::open(server.addr()).unwrap();
    conn.send_get("/cgi-bin/db2www/big.d2w/report").unwrap();
    let resp = conn.read_response().unwrap();
    assert_eq!(resp.status, 200);
    assert!(
        resp.header("Transfer-Encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked")),
        "large report should stream: {:?}",
        resp.headers
    );
    assert!(
        resp.header("ETag").is_none(),
        "streamed pages carry no ETag"
    );
    assert!(resp.body.contains("row 0 "), "first row present");
    assert!(resp.body.contains("row 1999 "), "last row present");
    assert!(m.responses_streamed.get() > streamed_before);

    // The connection survives a streamed response: reuse it.
    let again = conn.get("/cgi-bin/db2www/big.d2w/report").unwrap();
    assert_eq!(again.status, 200);

    // A conditional GET forces the buffered path so ETag/304 semantics hold
    // even on a page that would otherwise stream.
    let raw = HttpClient::new(server.addr())
        .raw(
            "GET /cgi-bin/db2www/big.d2w/report HTTP/1.1\r\nHost: localhost\r\n\
             Connection: close\r\nIf-None-Match: \"no-such-etag\"\r\n\r\n",
        )
        .unwrap();
    assert!(
        raw.starts_with("HTTP/1.1 200"),
        "{}",
        &raw[..60.min(raw.len())]
    );
    assert!(
        raw.contains("Content-Length:"),
        "conditional GET is buffered"
    );
    assert!(raw.contains("ETag:"), "buffered CGI pages carry an ETag");
    server.shutdown();
}

#[test]
fn mid_stream_disconnect_cancels_the_request() {
    // ~12 MB of report: far beyond what the socket buffers can absorb, so
    // the server is still streaming when the client hangs up.
    let server =
        HttpServer::start_with_config(big_report_gateway(250_000), 0, ServerConfig::default())
            .unwrap();
    let m = dbgw_obs::metrics();
    let disconnects_before = m.client_disconnects.get();

    {
        let mut sock = TcpStream::connect(server.addr()).unwrap();
        sock.write_all(b"GET /cgi-bin/db2www/big.d2w/report HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .unwrap();
        let mut first = [0u8; 4096];
        let n = sock.read(&mut first).unwrap();
        assert!(n > 0, "stream should have started");
        // Drop mid-body: the kernel RSTs the server's subsequent writes.
    }

    // The failed write must cancel the request context and be counted.
    let mut waited = 0;
    while m.client_disconnects.get() <= disconnects_before && waited < 10_000 {
        std::thread::sleep(Duration::from_millis(50));
        waited += 50;
    }
    assert!(
        m.client_disconnects.get() > disconnects_before,
        "a mid-stream disconnect must be detected and cancel the request"
    );

    // The pool is healthy afterwards.
    let resp = HttpClient::new(server.addr()).get("/stats").unwrap();
    assert_eq!(resp.status, 200);
    server.shutdown();
}

props! {
    config(cases = 64);

    /// Chunked transfer coding round-trips: any piece sequence encodes to a
    /// stream that decodes back to the concatenation, consuming every byte.
    fn chunked_encode_decode_round_trip(
        pieces in vec_of(bytes(0..=50), 0..=8),
    ) {
        let refs: Vec<&[u8]> = pieces.iter().map(|p| p.as_slice()).collect();
        let encoded = encode_chunked(&refs);
        let expected: Vec<u8> = pieces.concat();
        match decode_chunked(&encoded) {
            ChunkStatus::Complete(body, used) => {
                prop_assert_eq!(&body, &expected);
                prop_assert_eq!(used, encoded.len());
            }
            other => prop_assert!(false, "decode failed: {:?}", other),
        }
        // Every strict prefix is incomplete, never complete or invalid.
        for cut in 0..encoded.len() {
            prop_assert!(
                matches!(decode_chunked(&encoded[..cut]), ChunkStatus::Incomplete),
                "prefix of {} bytes must be incomplete", cut
            );
        }
    }
}
