//! End-to-end tests for the request lifecycle: worker pool, bounded queue
//! with 503 shedding, drain-on-shutdown, and deterministic deadline expiry.
//!
//! The process-wide metrics registry is shared across tests, so every
//! assertion on counters is a before/after delta with `>=`, never equality.

use dbgw_cgi::{FnSource, Gateway, HttpClient, HttpConnection, HttpServer, ServerConfig};
use dbgw_core::db::{Database, DbRows, FnDatabase};
use dbgw_obs::TestClock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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

/// A connection source whose `execute` blocks until released, so tests can
/// hold a worker in-flight deterministically.
struct Blocker {
    entered: AtomicUsize,
    released: Mutex<bool>,
    release: Condvar,
}

impl Blocker {
    fn new() -> Arc<Blocker> {
        Arc::new(Blocker {
            entered: AtomicUsize::new(0),
            released: Mutex::new(false),
            release: Condvar::new(),
        })
    }

    fn wait_entered(&self, n: usize) {
        for _ in 0..400 {
            if self.entered.load(Ordering::SeqCst) >= n {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("no request reached the database in time");
    }

    fn release_all(&self) {
        *self.released.lock().unwrap() = true;
        self.release.notify_all();
    }

    fn block(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut released = self.released.lock().unwrap();
        while !*released {
            released = self.release.wait(released).unwrap();
        }
    }
}

fn blocking_gateway(blocker: Arc<Blocker>) -> Gateway {
    let gw = Gateway::new(FnSource(move || {
        let b = blocker.clone();
        Box::new(FnDatabase(move |_sql: &str| {
            b.block();
            Ok(DbRows {
                columns: vec!["n".into()],
                rows: vec![vec!["1".into()]],
                affected: 0,
            })
        })) as Box<dyn Database + Send>
    }));
    gw.add_macro("slow.d2w", "%SQL{ SLOW %}\n%HTML_REPORT{ok %EXEC_SQL%}")
        .unwrap();
    gw
}

/// Pull one counter value out of the Prometheus-format /stats text.
fn stat(body: &str, name: &str) -> u64 {
    body.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{body}"))
}

#[test]
fn hammer_pool_from_many_threads() {
    let server =
        HttpServer::start_with_config(minisql_gateway(), 0, ServerConfig::default()).unwrap();
    let addr = server.addr();
    let client = HttpClient::new(addr);
    let before = client.get("/stats?format=prometheus").unwrap();
    let requests_before = stat(&before.body, "dbgw_requests_total");

    const THREADS: usize = 8;
    const PER_THREAD: usize = 6;
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        handles.push(std::thread::spawn(move || {
            let client = HttpClient::new(addr);
            for _ in 0..PER_THREAD {
                let resp = client.get("/cgi-bin/db2www/q.d2w/report").unwrap();
                assert_eq!(resp.status, 200);
                assert!(resp.body.contains("IBM"));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let after = client.get("/stats?format=prometheus").unwrap();
    let requests_after = stat(&after.body, "dbgw_requests_total");
    assert!(
        requests_after >= requests_before + (THREADS * PER_THREAD) as u64,
        "requests counter must grow monotonically: {requests_before} -> {requests_after}"
    );
    // The pool gauges are exported and live: the /stats request observes at
    // least itself in flight (other tests in this binary may add more).
    assert!(stat(&after.body, "dbgw_requests_in_flight") >= 1);
    let _ = stat(&after.body, "dbgw_queue_depth");
    server.shutdown();
}

#[test]
fn saturated_queue_sheds_with_503_retry_after() {
    let blocker = Blocker::new();
    let config = ServerConfig {
        workers: 1,
        queue: 1,
        ..ServerConfig::default()
    };
    let server =
        HttpServer::start_with_config(blocking_gateway(blocker.clone()), 0, config).unwrap();
    let addr = server.addr();
    let shed_before = dbgw_obs::metrics().requests_shed.get();

    let get = move || {
        HttpClient::new(addr)
            .raw("GET /cgi-bin/db2www/slow.d2w/report HTTP/1.0\r\n\r\n")
            .unwrap()
    };
    // Stage the saturation deterministically: one request in flight (blocked
    // in the DB), one sitting in the single queue slot...
    let first = std::thread::spawn(get);
    blocker.wait_entered(1);
    let second = std::thread::spawn(get);
    std::thread::sleep(Duration::from_millis(150));

    // ...then a burst that must be shed in full while they hold the pool.
    const BURST: usize = 4;
    let mut burst = Vec::new();
    for _ in 0..BURST {
        burst.push(std::thread::spawn(get));
    }
    let shed: Vec<String> = burst.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &shed {
        assert!(r.starts_with("HTTP/1.1 503"), "{r}");
        assert!(r.contains("Retry-After:"), "{r}");
    }
    assert!(dbgw_obs::metrics().requests_shed.get() >= shed_before + BURST as u64);

    // Releasing the database lets the held requests complete normally.
    blocker.release_all();
    for handle in [first, second] {
        let r = handle.join().unwrap();
        assert!(r.starts_with("HTTP/1.1 200"), "{r}");
    }
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_and_queued_requests() {
    let blocker = Blocker::new();
    let config = ServerConfig {
        workers: 1,
        queue: 4,
        ..ServerConfig::default()
    };
    let server =
        HttpServer::start_with_config(blocking_gateway(blocker.clone()), 0, config).unwrap();
    let addr = server.addr();

    let first = std::thread::spawn(move || {
        HttpClient::new(addr)
            .get("/cgi-bin/db2www/slow.d2w/report")
            .unwrap()
    });
    blocker.wait_entered(1);
    // A second request sits in the queue behind the blocked one.
    let second = std::thread::spawn(move || {
        HttpClient::new(addr)
            .get("/cgi-bin/db2www/slow.d2w/report")
            .unwrap()
    });
    std::thread::sleep(Duration::from_millis(150));

    // Release while shutdown is draining; both requests must complete fully.
    let releaser = {
        let blocker = blocker.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            blocker.release_all();
        })
    };
    server.shutdown();
    releaser.join().unwrap();
    let first = first.join().unwrap();
    let second = second.join().unwrap();
    assert_eq!(first.status, 200);
    assert!(first.body.contains("ok"), "{}", first.body);
    assert_eq!(second.status, 200);
    assert!(second.body.contains("ok"), "{}", second.body);
}

#[test]
fn bytes_sent_while_a_worker_holds_the_connection_are_served() {
    let blocker = Blocker::new();
    let server = HttpServer::start_with_config(
        blocking_gateway(blocker.clone()),
        0,
        ServerConfig::default(),
    )
    .unwrap();
    let mut conn = HttpConnection::open(server.addr()).unwrap();
    conn.send_get("/cgi-bin/db2www/slow.d2w/report").unwrap();
    blocker.wait_entered(1);
    // The second request reaches the socket while a worker holds the
    // connection; no event reports it until the worker parks it again.
    conn.send_get("/stats").unwrap();
    std::thread::sleep(Duration::from_millis(100));
    blocker.release_all();
    let first = conn.read_response().unwrap();
    assert_eq!(first.status, 200);
    assert!(first.body.contains("ok"), "{}", first.body);
    let second = conn.read_response().unwrap();
    assert_eq!(second.status, 200);
    assert!(
        second.body.contains("Gateway Statistics"),
        "{}",
        second.body
    );
    server.shutdown();
}

#[test]
fn deadline_expiry_returns_timeout_page_deterministically() {
    // The injectable clock makes the deadline test exact: the DB call
    // "takes" 100 ms against a 20 ms deadline by advancing the TestClock,
    // and the request must come back as the 504 timeout page.
    let clock = Arc::new(TestClock::new());
    let db_clock = clock.clone();
    let gw = Gateway::new(FnSource(move || {
        let c = db_clock.clone();
        Box::new(FnDatabase(move |_sql: &str| {
            c.advance_millis(100);
            Ok(DbRows {
                columns: vec!["n".into()],
                rows: vec![vec!["1".into()]],
                affected: 0,
            })
        })) as Box<dyn Database + Send>
    }))
    .with_clock(clock)
    .with_deadline_ms(Some(20));
    gw.add_macro("slow.d2w", "%SQL{ SLOW %}\n%HTML_REPORT{%EXEC_SQL%}")
        .unwrap();
    let timeouts_before = dbgw_obs::metrics().request_timeouts.get();
    let server = HttpServer::start_with_config(gw, 0, ServerConfig::default()).unwrap();
    let client = HttpClient::new(server.addr());

    let resp = client.get("/cgi-bin/db2www/slow.d2w/report").unwrap();
    assert_eq!(resp.status, 504);
    assert!(resp.body.contains("SQL error -952"), "{}", resp.body);
    assert!(resp.body.contains("deadline of 20 ms"), "{}", resp.body);
    assert!(resp.body.contains("request "), "{}", resp.body);
    assert!(dbgw_obs::metrics().request_timeouts.get() > timeouts_before);

    // The pool keeps serving after a timeout.
    let again = client.get("/cgi-bin/db2www/slow.d2w/report").unwrap();
    assert_eq!(again.status, 504);
    server.shutdown();
}

#[test]
fn oversized_content_length_rejected_with_413() {
    let config = ServerConfig {
        max_body: 1024,
        ..ServerConfig::default()
    };
    let server = HttpServer::start_with_config(minisql_gateway(), 0, config).unwrap();
    let client = HttpClient::new(server.addr());
    let raw = client
        .raw("POST /cgi-bin/db2www/q.d2w/report HTTP/1.0\r\nContent-Length: 4096\r\n\r\n")
        .unwrap();
    assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");
    // A request inside the limit still works.
    let ok = client
        .post("/cgi-bin/db2www/q.d2w/report", "SEARCH=x")
        .unwrap();
    assert_eq!(ok.status, 200);
    server.shutdown();
}
