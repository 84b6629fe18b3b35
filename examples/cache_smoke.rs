//! Cache smoke: drive two identical GETs through a live server and verify
//! the whole dbgw-cache stack end to end — the second request is served from
//! the shared SQL result cache, the page carries a deterministic `ETag`, and
//! replaying that validator in `If-None-Match` yields a bodyless `304`.
//!
//! Run: `cargo run --release --example cache_smoke`. Prints
//! `cache_smoke PASS` and exits 0 on success; panics (nonzero exit) on any
//! violated guarantee.

use dbgw_cgi::{Gateway, HttpClient, HttpServer, ServerConfig};

fn main() {
    let db = minisql::Database::new();
    db.run_script(
        "CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80));
         INSERT INTO urldb VALUES ('http://www.ibm.com', 'IBM');
         INSERT INTO urldb VALUES ('http://www.almaden.ibm.com', 'Almaden');",
    )
    .unwrap();
    let stats_db = db.clone();
    let gw = Gateway::new(db).with_http_cache(true);
    gw.add_macro(
        "urls.d2w",
        "%SQL{ SELECT url, title FROM urldb ORDER BY url %}\n\
         %HTML_REPORT{%EXEC_SQL%}",
    )
    .unwrap();
    let server = HttpServer::start_with_config(gw, 0, ServerConfig::default()).unwrap();
    let client = HttpClient::new(server.addr());

    // First GET is a cold miss; the identical second GET must hit the shared
    // result cache.
    let first = client.get("/cgi-bin/db2www/urls.d2w/report").unwrap();
    assert_eq!(first.status, 200);
    assert!(first.body.contains("Almaden"), "{}", first.body);
    let after_first = stats_db.cache_stats().expect("cache enabled");
    assert_eq!(after_first.results.hits, 0, "{after_first:?}");
    assert!(after_first.results.misses >= 1, "{after_first:?}");

    let second = client.get("/cgi-bin/db2www/urls.d2w/report").unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(
        second.body, first.body,
        "cached page must be byte-identical"
    );
    let after_second = stats_db.cache_stats().expect("cache enabled");
    assert!(after_second.results.hits >= 1, "{after_second:?}");

    // The SELECT-only report is cacheable, so it carries a validator …
    let etag = first
        .header("ETag")
        .expect("cacheable report must carry an ETag")
        .to_owned();

    // … and replaying it as If-None-Match earns a bodyless 304.
    let raw = client
        .raw(&format!(
            "GET /cgi-bin/db2www/urls.d2w/report HTTP/1.0\r\nIf-None-Match: {etag}\r\n\r\n"
        ))
        .unwrap();
    assert!(raw.starts_with("HTTP/1.1 304"), "{raw}");
    let (head, body) = raw.split_once("\r\n\r\n").unwrap();
    assert!(body.is_empty(), "304 must not carry a body: {body:?}");
    assert!(head.contains(&etag), "304 must echo the ETag: {head}");

    // A write through the gateway invalidates: the next read re-executes and
    // publishes a fresh ETag.
    let mut conn = stats_db.connect();
    conn.execute("INSERT INTO urldb VALUES ('http://www.w3.org', 'W3C')")
        .unwrap();
    let third = client.get("/cgi-bin/db2www/urls.d2w/report").unwrap();
    assert!(third.body.contains("W3C"), "stale read after write");
    assert_ne!(third.header("ETag"), Some(etag.as_str()));

    server.shutdown();
    println!(
        "cache_smoke PASS: {} result hits, 304 round trip, write invalidated",
        stats_db.cache_stats().unwrap().results.hits
    );
}
