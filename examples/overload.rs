//! Overload smoke: burst a 2-worker server past its queue and verify the
//! request-lifecycle guarantees end to end — a mix of 200s and 503s (with
//! `Retry-After`), no hung threads, and a clean drained shutdown.
//!
//! Run: `cargo run --release --example overload`. Prints `overload PASS` and
//! exits 0 on success; panics (nonzero exit) on any violated guarantee.

use dbgw_cgi::{FnSource, Gateway, HttpClient, HttpServer, ServerConfig};
use dbgw_core::db::{Database, DbRows, FnDatabase};
use std::time::Duration;

fn main() {
    // ~30 ms per statement: slow enough that a 24-request burst against 2
    // workers and a 4-slot queue must shed, fast enough to finish quickly.
    let gw = Gateway::new(FnSource(|| {
        Box::new(FnDatabase(|_sql: &str| {
            std::thread::sleep(Duration::from_millis(30));
            Ok(DbRows {
                columns: vec!["n".into()],
                rows: vec![vec!["1".into()]],
                affected: 0,
            })
        })) as Box<dyn Database + Send>
    }));
    gw.add_macro("slow.d2w", "%SQL{ SLOW %}\n%HTML_REPORT{ok %EXEC_SQL%}")
        .unwrap();

    let config = ServerConfig {
        workers: 2,
        queue: 4,
        ..ServerConfig::default()
    };
    let server = HttpServer::start_with_config(gw, 0, config).unwrap();
    let addr = server.addr();

    const BURST: usize = 24;
    let responses: Vec<String> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..BURST {
            handles.push(scope.spawn(move || {
                HttpClient::new(addr)
                    .raw("GET /cgi-bin/db2www/slow.d2w/report HTTP/1.0\r\n\r\n")
                    .unwrap()
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let ok = responses
        .iter()
        .filter(|r| r.starts_with("HTTP/1.1 200"))
        .count();
    let shed: Vec<&String> = responses
        .iter()
        .filter(|r| r.starts_with("HTTP/1.1 503"))
        .collect();
    assert_eq!(
        ok + shed.len(),
        BURST,
        "every request must get a well-formed answer: {responses:?}"
    );
    assert!(
        ok >= 2,
        "the pool must keep serving under overload (got {ok})"
    );
    assert!(
        !shed.is_empty(),
        "a {BURST}-request burst against 2 workers + 4 queue slots must shed"
    );
    for r in &shed {
        assert!(r.contains("Retry-After:"), "503 without Retry-After: {r}");
    }

    // Clean drained shutdown: joins the accept thread and every worker.
    server.shutdown();
    println!(
        "overload PASS: {ok} served, {} shed with Retry-After, drained shutdown",
        shed.len()
    );
}
