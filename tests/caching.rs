//! The dbgw-cache stack, exercised at both layers: the shared SQL result
//! cache (hits before the parser, bind-sensitivity, table invalidation),
//! HTTP conditional GET, and a concurrency hammer proving a committed write
//! is never followed by a stale read.

use dbgw_cgi::{CgiRequest, Gateway, HttpClient, HttpServer, ServerConfig, TraceOptions};
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

    // The key is the text as sent: another spelling is another statement,
    // and its column is named as that spelling names it.
    let spaced = "  select TITLE from urldb   ORDER   by url";
    let respelled = conn.execute(spaced).unwrap().rows().unwrap().clone();
    let stats = db.cache_stats().unwrap();
    assert_eq!(
        (stats.results.hits, stats.results.misses),
        (1, 2),
        "{stats:?}"
    );
    let plain = Database::without_cache();
    seed_urldb(&plain);
    let expected = plain.connect().execute(spaced).unwrap();
    assert_eq!(&respelled, expected.rows().unwrap());
    assert_eq!(respelled.columns, ["TITLE"]);
}

/// Run `statements` in order against a cached and an uncached database
/// holding `urldb`; every answer must agree, errors included.
fn agrees_with_an_uncached_database(statements: &[(&str, &[Value])]) {
    let (cached, plain) = (cached_db(), Database::without_cache());
    seed_urldb(&cached);
    seed_urldb(&plain);
    let (mut warm, mut cold) = (cached.connect(), plain.connect());
    for (sql, params) in statements {
        let (hit, truth) = (
            warm.execute_with_params(sql, params),
            cold.execute_with_params(sql, params),
        );
        assert_eq!(hit, truth, "{sql:?} {params:?}");
    }
}

/// A column's output label is its name as the statement spells it (column
/// aliases are refused), so two spellings are two cache entries.
#[test]
fn an_alias_is_named_as_each_statement_spells_it() {
    for order in [["Title", "TITLE"], ["TITLE", "Title"]] {
        let [first, second] = order.map(|a| format!("SELECT {a} FROM urldb"));
        agrees_with_an_uncached_database(&[(&first, &[]), (&second, &[])]);
    }
}

#[test]
fn a_form_feed_is_a_syntax_error_even_after_the_spaced_statement_is_cached() {
    // The uncached answer is SQLCODE -104: the lexer knows no form feed.
    agrees_with_an_uncached_database(&[
        ("SELECT 1 FROM urldb", &[]),
        ("SELECT\x0c1 FROM urldb", &[]),
    ]);
}

#[test]
fn statement_text_that_spells_a_bind_never_meets_the_bind() {
    // Keyed as text, a NUL and the encoding of `[Int(5)]`, the second
    // statement once found the first one's entry.
    let binds = [Value::Text("a\0i5".into())];
    agrees_with_an_uncached_database(&[
        ("SELECT ? FROM urldb", &binds),
        ("SELECT ? FROM urldb\0t4:a", &[Value::Int(5)]),
    ]);
}

/// Two macros that spell one column differently each render their own
/// spelling as the report's column header, whichever ran first.
#[test]
fn each_macro_reports_its_own_alias_spelling() {
    let name = |alias: &str| format!("{}.d2w", if alias == "Url" { "mixed" } else { "upper" });
    let mut wrong = Vec::new();
    for order in [["Url", "URL"], ["URL", "Url"]] {
        let db = cached_db();
        seed_urldb(&db);
        let gw = Gateway::new(db);
        for alias in order {
            let source = format!(
                "%SQL{{ SELECT {alias} FROM urldb ORDER BY url %}}\n\
                 %HTML_REPORT{{%EXEC_SQL%}}"
            );
            gw.add_macro(&name(alias), &source).unwrap();
        }
        for alias in order.into_iter().chain(order) {
            let page = gw.get(&name(alias), "report", "").body;
            if !page.contains(&format!("<TH>{alias}</TH>")) {
                wrong.push(format!("after {order:?}, {alias} rendered {page}"));
            }
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
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
    let sql = "SELECT COUNT(*) FROM urldb WHERE title = 'IBM'";
    let mut conn = db.connect();
    assert!(
        conn.execute(sql).is_err(),
        "a missing table is an error, never a cached result"
    );
    seed_urldb(&db);
    assert_eq!(
        first_cell(&db, sql),
        Value::Int(1),
        "the created table must not read as missing"
    );
    // An index that appears, then disappears, under the cached count: each
    // later write still reaches the next read, by probe or by scan.
    let ddl = [
        "CREATE INDEX urldb_title ON urldb (title)",
        "DROP INDEX urldb_title",
    ];
    for (n, ddl) in (2..).zip(ddl) {
        conn.execute(ddl).unwrap();
        conn.execute("INSERT INTO urldb VALUES ('http://www.ibm.org', 'IBM')")
            .unwrap();
        assert_eq!(first_cell(&db, sql), Value::Int(n), "after {ddl}");
    }
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

#[test]
fn a_select_that_opens_with_a_comment_is_cacheable() {
    let db = cached_db();
    seed_urldb(&db);
    db.run_script("CREATE TABLE audit (note VARCHAR(250))")
        .unwrap();
    let gw = Gateway::new(db);
    let cacheable = |sql: &str| {
        let source = format!("%SQL{{ {sql} %}}\n%HTML_REPORT{{%EXEC_SQL%}}");
        gw.add_macro("c.d2w", &source).unwrap();
        let resp = gw.get("c.d2w", "report", "Q=title");
        assert_eq!(resp.status, 200, "{sql}: {}", resp.body);
        match (resp.header("ETag"), resp.header("Cache-Control")) {
            (Some(_), Some("no-cache")) => true,
            (None, Some("no-store")) => false,
            other => panic!("{sql}: {other:?}"),
        }
    };
    // The first keyword after whitespace and comments decides.
    assert!(cacheable("-- the list\nSELECT url FROM urldb"));
    assert!(cacheable("\n  -- one\n-- two\n  select url FROM urldb"));
    assert!(cacheable("SELECT\turl FROM urldb"));
    assert!(!cacheable(
        "-- SELECT\nINSERT INTO audit (note) VALUES ('x')"
    ));
    assert!(!cacheable("-- list\nSELECTED_NOTHING"));
    // A statement that opens with a variable is not known to read.
    assert!(!cacheable("$(Q) FROM urldb"));
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

// Report semantics on the shared path: the page a result-cache hit renders
// from the cached rows is the page the miss rendered, row for row.

/// A gateway over `db` serving `source` as `m.d2w`.
fn serving(db: &Database, source: &str) -> Gateway {
    let gw = Gateway::new(db.clone());
    gw.add_macro("m.d2w", source).unwrap();
    gw
}

/// The report page, rendered twice: once filling the result cache and once
/// served from it. Both renderings must agree; the second must be a hit.
fn miss_then_hit(db: &Database, gw: &Gateway) -> String {
    let hits = db.cache_stats().unwrap().results.hits;
    let miss = gw.get("m.d2w", "report", "");
    assert_eq!(miss.status, 200, "{}", miss.body);
    let hit = gw.get("m.d2w", "report", "");
    assert_eq!(db.cache_stats().unwrap().results.hits, hits + 1);
    assert_eq!(hit.body, miss.body);
    hit.body
}

#[test]
fn rpt_max_rows_stops_the_printing_but_row_num_counts_every_row() {
    let db = cached_db();
    db.run_script("CREATE TABLE big (n INTEGER)").unwrap();
    for chunk in 0..4 {
        let values: Vec<String> = (0..1000)
            .map(|i| format!("({})", chunk * 1000 + i))
            .collect();
        db.run_script(&format!("INSERT INTO big VALUES {}", values.join(",")))
            .unwrap();
    }
    let gw = serving(
        &db,
        "%DEFINE RPT_MAX_ROWS = \"10\"\n\
         %SQL{ SELECT n FROM big ORDER BY n\n\
         %SQL_REPORT{<UL>%ROW{<LI>$(V1)%}</UL>total $(ROW_NUM)%}%}\n\
         %HTML_REPORT{%EXEC_SQL%}",
    );
    let page = miss_then_hit(&db, &gw);
    assert_eq!(page.matches("<LI>").count(), 10, "{page}");
    assert!(page.contains("<LI>9</UL>"), "{page}");
    assert!(page.contains("total 4000"), "{page}");
}

#[test]
fn null_renders_empty_in_row_values_lists_and_the_default_table() {
    let db = cached_db();
    db.run_script(
        "CREATE TABLE t (a INTEGER, b VARCHAR(10), c DOUBLE);
         INSERT INTO t VALUES (1, NULL, 2.5);",
    )
    .unwrap();
    let custom = serving(
        &db,
        "%SQL{ SELECT a, b, c FROM t\n\
         %SQL_REPORT{%ROW{[$(V1)|$(V2)|$(V_c)] [$(VLIST)]%}%}%}\n\
         %HTML_REPORT{%EXEC_SQL%}",
    );
    assert!(miss_then_hit(&db, &custom).contains("[1||2.5] [1, , 2.5]"));
    let table = serving(&db, "%SQL{ SELECT b, a FROM t %}\n%HTML_REPORT{%EXEC_SQL%}");
    let page = miss_then_hit(&db, &table);
    assert!(page.contains("<TR><TD></TD><TD>1</TD></TR>"), "{page}");
}

#[test]
fn an_empty_cached_result_raises_sqlcode_100() {
    let db = cached_db();
    seed_urldb(&db);
    let gw = serving(
        &db,
        "%SQL{ SELECT url FROM urldb WHERE title = 'none'\n\
         %SQL_REPORT{rows:%ROW{$(V1)%}%}\n\
         %SQL_MESSAGE{ 100 : \"<P>No match.</P>\" : continue %}%}\n\
         %HTML_REPORT{%EXEC_SQL%}",
    );
    let page = miss_then_hit(&db, &gw);
    assert!(page.contains("rows:<P>No match.</P>"), "{page}");
}

#[test]
fn a_define_reached_from_row_reads_the_current_row() {
    // urlquery.d2w's `D2`: a conditional DEFINE over `$(V2)`, null (and so
    // empty) on the row whose second value is NULL.
    let db = cached_db();
    db.run_script(
        "CREATE TABLE u (url VARCHAR(20), title VARCHAR(20));
         INSERT INTO u VALUES ('a', 'First'), ('b', NULL), ('c', 'Third');",
    )
    .unwrap();
    let gw = serving(
        &db,
        "%DEFINE D2 = ? \"<br>$(V2)\"\n\
         %SQL{ SELECT url, title FROM u ORDER BY url\n\
         %SQL_REPORT{%ROW{<LI>$(V1) $(D2)\n%}%}%}\n\
         %HTML_REPORT{%EXEC_SQL%}",
    );
    let page = miss_then_hit(&db, &gw);
    assert!(
        page.contains("<LI>a <br>First\n<LI>b \n<LI>c <br>Third\n"),
        "{page}"
    );
}

#[test]
fn an_update_between_two_identical_requests_shows_in_the_second_page() {
    let db = cached_db();
    seed_urldb(&db);
    let gw = serving(
        &db,
        "%SQL{ SELECT title FROM urldb ORDER BY url %}\n%HTML_REPORT{%EXEC_SQL%}",
    );
    let before = miss_then_hit(&db, &gw);
    assert!(before.contains("<TD>IBM</TD>"), "{before}");
    db.connect()
        .execute("UPDATE urldb SET title = 'Big Blue' WHERE title = 'IBM'")
        .unwrap();
    let after = gw.get("m.d2w", "report", "").body;
    assert!(after.contains("<TD>Big Blue</TD>"), "{after}");
    assert!(!after.contains("<TD>IBM</TD>"), "{after}");
}

#[test]
fn the_slow_log_records_sqlcode_100_for_an_empty_result() {
    let db = cached_db();
    seed_urldb(&db);
    let gw = serving(
        &db,
        "%SQL{ SELECT url FROM urldb WHERE title = 'none' %}\n%HTML_REPORT{%EXEC_SQL%}",
    )
    .with_trace(TraceOptions {
        slow_ms: Some(0),
        ..TraceOptions::default()
    });
    miss_then_hit(&db, &gw);
    let slow = gw.slow_queries().entries();
    assert_eq!(slow.len(), 2);
    assert!(slow.iter().all(|q| q.sqlcode == 100), "{slow:?}");
}
