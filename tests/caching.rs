//! The dbgw-cache stack, exercised at both layers: the shared SQL result
//! cache (hits before the parser, bind-sensitivity, table invalidation),
//! HTTP conditional GET, and a concurrency hammer proving a committed write
//! is never followed by a stale read.

use dbgw_cgi::{CgiRequest, Gateway, HttpClient, HttpServer, ServerConfig};
use dbgw_obs::{trace, StdClock, Trace};
use minisql::{Database, Value};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// A database with the result cache (every `Database::new` has one).
fn cached_db() -> Database {
    Database::new()
}

fn seed_urldb(db: &Database) {
    db.run_script(
        "CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80));
         INSERT INTO urldb VALUES ('http://www.ibm.com', 'IBM');
         INSERT INTO urldb VALUES ('http://www.almaden.ibm.com', 'Almaden');",
    )
    .unwrap();
}

fn first_cell(db: &Database, sql: &str) -> Value {
    let mut conn = db.connect();
    let result = conn.execute(sql).unwrap();
    result.rows().unwrap().rows[0][0].clone()
}

#[test]
fn repeated_select_hits_the_result_cache() {
    let db = cached_db();
    seed_urldb(&db);
    let mut conn = db.connect();
    let sql = "SELECT title FROM urldb ORDER BY url";
    let cold = conn.execute(sql).unwrap().rows().unwrap().clone();
    let stats = db.cache_stats().unwrap();
    assert_eq!(stats.results.hits, 0, "{stats:?}");
    assert_eq!(stats.results.misses, 1, "{stats:?}");

    let warm = conn.execute(sql).unwrap().rows().unwrap().clone();
    let stats = db.cache_stats().unwrap();
    assert_eq!(stats.results.hits, 1, "{stats:?}");
    assert_eq!(warm, cold, "cached result must be identical");

    // Normalization: case and whitespace outside literals do not miss.
    let spaced = "  select TITLE from urldb   ORDER   by url";
    let normalized = conn.execute(spaced).unwrap().rows().unwrap().clone();
    assert_eq!(db.cache_stats().unwrap().results.hits, 2);
    assert_eq!(normalized, cold);
}

#[test]
fn bind_values_key_separate_entries() {
    let db = cached_db();
    seed_urldb(&db);
    let mut conn = db.connect();
    let sql = "SELECT url FROM urldb WHERE title = ?";
    let ibm = conn
        .execute_with_params(sql, &[Value::Text("IBM".into())])
        .unwrap();
    let almaden = conn
        .execute_with_params(sql, &[Value::Text("Almaden".into())])
        .unwrap();
    assert_ne!(
        ibm.rows().unwrap().rows,
        almaden.rows().unwrap().rows,
        "different binds must not alias"
    );
    let stats = db.cache_stats().unwrap();
    assert_eq!(stats.results.hits, 0, "{stats:?}");
    assert_eq!(stats.results.misses, 2, "{stats:?}");

    // Same binds again: both entries are live.
    conn.execute_with_params(sql, &[Value::Text("IBM".into())])
        .unwrap();
    conn.execute_with_params(sql, &[Value::Text("Almaden".into())])
        .unwrap();
    assert_eq!(db.cache_stats().unwrap().results.hits, 2);
}

/// The spans `run` records on this thread.
fn traced(run: impl FnOnce()) -> Trace {
    assert!(trace::start_trace(Arc::new(StdClock::new()), 1));
    run();
    trace::finish_trace().unwrap()
}

#[test]
fn result_cache_hit_skips_the_parser() {
    let db = cached_db();
    seed_urldb(&db);
    let mut conn = db.connect();
    let sql = "SELECT title FROM urldb WHERE url = ?";
    let url = [Value::Text("http://www.ibm.com".into())];
    let cold = traced(|| {
        conn.execute_with_params(sql, &url).unwrap();
    });
    assert_eq!(cold.spans_named("sql_parse").len(), 1);

    // The repeated SELECT is answered from the lookup, before any parse.
    let warm = traced(|| {
        conn.execute_with_params(sql, &url).unwrap();
    });
    assert_eq!(warm.spans_named("cache_lookup").len(), 1);
    assert!(warm.spans_named("sql_parse").is_empty(), "{warm:?}");
    assert_eq!(db.cache_stats().unwrap().results.hits, 1);

    // A write is never stored, so even a repeated one parses every time.
    let update = "UPDATE urldb SET title = 'Big Blue' WHERE url = 'http://www.ibm.com'";
    for _ in 0..2 {
        let write = traced(|| {
            conn.execute(update).unwrap();
        });
        assert_eq!(write.spans_named("sql_parse").len(), 1);
    }
}

#[test]
fn any_write_to_the_table_invalidates() {
    let db = cached_db();
    seed_urldb(&db);
    let mut conn = db.connect();
    let sql = "SELECT COUNT(*) FROM urldb";
    assert_eq!(first_cell(&db, sql), Value::Int(2));
    assert_eq!(first_cell(&db, sql), Value::Int(2)); // cached

    conn.execute("INSERT INTO urldb VALUES ('http://www.w3.org', 'W3C')")
        .unwrap();
    assert_eq!(
        first_cell(&db, sql),
        Value::Int(3),
        "committed insert must be visible immediately"
    );
    let stats = db.cache_stats().unwrap();
    assert_eq!(stats.invalidations, 1, "{stats:?}");

    // Writes to an unrelated table leave the entry alone.
    conn.execute("CREATE TABLE other (n INT)").unwrap();
    conn.execute("INSERT INTO other VALUES (1)").unwrap();
    assert_eq!(first_cell(&db, sql), Value::Int(3));
    let stats = db.cache_stats().unwrap();
    assert_eq!(
        stats.invalidations, 1,
        "unrelated write invalidated: {stats:?}"
    );
}

#[test]
fn rolled_back_writes_never_reach_the_cache() {
    let db = cached_db();
    seed_urldb(&db);
    let mut conn = db.connect();
    let sql = "SELECT COUNT(*) FROM urldb";
    assert_eq!(first_cell(&db, sql), Value::Int(2));
    conn.execute("BEGIN").unwrap();
    conn.execute("INSERT INTO urldb VALUES ('http://x.org', 'X')")
        .unwrap();
    assert_eq!(
        first_cell(&db, sql),
        Value::Int(2),
        "uncommitted insert seen"
    );
    conn.execute("ROLLBACK").unwrap();
    assert_eq!(first_cell(&db, sql), Value::Int(2));
    let stats = db.cache_stats().unwrap();
    assert_eq!(stats.invalidations, 0, "{stats:?}");
}

#[test]
fn ddl_invalidates_in_both_directions() {
    let db = cached_db();
    seed_urldb(&db);
    let sql = "SELECT COUNT(*) FROM urldb";
    assert_eq!(first_cell(&db, sql), Value::Int(2));
    let mut conn = db.connect();
    conn.execute("DROP TABLE urldb").unwrap();
    assert!(
        conn.execute(sql).is_err(),
        "dropped table must not serve from cache"
    );
    conn.execute("CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80))")
        .unwrap();
    assert_eq!(
        first_cell(&db, sql),
        Value::Int(0),
        "recreated table must not resurrect the old count"
    );
}

#[test]
fn conditional_get_round_trip() {
    let db = cached_db();
    seed_urldb(&db);
    let gw = Gateway::new(db);
    gw.add_macro(
        "q.d2w",
        "%SQL{ SELECT url, title FROM urldb ORDER BY url %}\n%HTML_REPORT{%EXEC_SQL%}",
    )
    .unwrap();

    let fresh = gw.get("q.d2w", "report", "");
    assert_eq!(fresh.status, 200);
    let etag = fresh
        .header("ETag")
        .expect("SELECT-only report gets an ETag");
    assert!(etag.starts_with('"') && etag.ends_with('"'), "{etag}");
    let etag = etag.to_owned();

    // Replaying the validator earns a bodyless 304 with the same ETag.
    let mut req = CgiRequest::get("/q.d2w/report", "");
    req.if_none_match = Some(etag.clone());
    let not_modified = gw.handle(&req);
    assert_eq!(not_modified.status, 304);
    assert!(not_modified.body.is_empty());
    assert_eq!(not_modified.header("ETag"), Some(etag.as_str()));

    // A stale validator gets the full page again.
    let mut req = CgiRequest::get("/q.d2w/report", "");
    req.if_none_match = Some("\"0000000000000000\"".to_owned());
    let full = gw.handle(&req);
    assert_eq!(full.status, 200);
    assert_eq!(full.body, fresh.body);

    // `If-None-Match: *` matches any current representation.
    let mut req = CgiRequest::get("/q.d2w/report", "");
    req.if_none_match = Some("*".to_owned());
    assert_eq!(gw.handle(&req).status, 304);

    // POSTs are never conditional.
    let post = gw.handle(&CgiRequest::post("/q.d2w/report", ""));
    assert_eq!(post.status, 200);
    assert!(post.header("ETag").is_none());

    // Over a live server the page carries the same validator, and replaying
    // it on the wire earns a bodyless 304 that echoes it.
    let server = HttpServer::start_with_config(gw, 0, ServerConfig::default()).unwrap();
    let client = HttpClient::new(server.addr());
    let page = client.get("/cgi-bin/db2www/q.d2w/report").unwrap();
    assert_eq!(page.status, 200);
    assert_eq!(page.header("ETag"), Some(etag.as_str()));
    let raw = client
        .raw(&format!(
            "GET /cgi-bin/db2www/q.d2w/report HTTP/1.0\r\nIf-None-Match: {etag}\r\n\r\n"
        ))
        .unwrap();
    server.shutdown();
    assert!(raw.starts_with("HTTP/1.1 304"), "{raw}");
    let (head, body) = raw.split_once("\r\n\r\n").unwrap();
    assert!(body.is_empty(), "304 must not carry a body: {body:?}");
    assert!(head.contains(&etag), "304 must echo the ETag: {head}");
}

#[test]
fn reports_that_write_are_not_cacheable() {
    let db = cached_db();
    db.run_script("CREATE TABLE audit (note VARCHAR(250))")
        .unwrap();
    let gw = Gateway::new(db);
    gw.add_macro(
        "w.d2w",
        "%SQL{ INSERT INTO audit (note) VALUES ('hit') %}\n\
         %HTML_INPUT{<FORM></FORM>%}\n\
         %HTML_REPORT{done %EXEC_SQL%}",
    )
    .unwrap();
    let resp = gw.get("w.d2w", "report", "");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("Cache-Control"), Some("no-store"));
    assert!(resp.header("ETag").is_none(), "{:?}", resp.headers);

    // The input form of the same macro runs no SQL and is cacheable.
    let input = gw.get("w.d2w", "input", "");
    assert_eq!(input.status, 200);
    assert!(input.header("ETag").is_some(), "{:?}", input.headers);
}

/// The hammer: one writer bumps a counter and publishes each committed value;
/// readers racing it must never observe a value older than what was already
/// published when their query started.
#[test]
fn no_stale_read_after_committed_write() {
    let db = cached_db();
    db.run_script(
        "CREATE TABLE counter (id INT PRIMARY KEY, val INT);
         INSERT INTO counter VALUES (1, 0);",
    )
    .unwrap();
    let published = Arc::new(AtomicI64::new(0));

    const WRITES: i64 = 200;
    std::thread::scope(|scope| {
        let writer_db = db.clone();
        let writer_published = Arc::clone(&published);
        scope.spawn(move || {
            let mut conn = writer_db.connect();
            for v in 1..=WRITES {
                conn.execute_with_params(
                    "UPDATE counter SET val = ? WHERE id = 1",
                    &[Value::Int(v)],
                )
                .unwrap();
                // The write is committed (auto-commit): publish it.
                writer_published.store(v, Ordering::SeqCst);
            }
        });
        for _ in 0..4 {
            let reader_db = db.clone();
            let reader_published = Arc::clone(&published);
            scope.spawn(move || {
                let mut conn = reader_db.connect();
                loop {
                    let floor = reader_published.load(Ordering::SeqCst);
                    let result = conn
                        .execute("SELECT val FROM counter WHERE id = 1")
                        .unwrap();
                    let Value::Int(seen) = result.rows().unwrap().rows[0][0] else {
                        panic!("val must be an integer");
                    };
                    assert!(
                        seen >= floor,
                        "stale read: saw {seen} after {floor} was committed"
                    );
                    if seen >= WRITES {
                        break;
                    }
                }
            });
        }
    });
    assert_eq!(
        first_cell(&db, "SELECT val FROM counter WHERE id = 1"),
        Value::Int(WRITES)
    );
}
