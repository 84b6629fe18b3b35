//! E7 / E12 — throughput under concurrency.
//!
//! The paper motivates the system with the Web's "tens of millions of users";
//! the 1996 deployment scaled by forking a CGI process per request. Our
//! in-process gateway handles requests on threads against the snapshot-read
//! engine (DESIGN.md §11): SELECTs pin an immutable snapshot and run with no
//! lock held, writers serialize per table through short latches.
//!
//! Four sections:
//!
//! * **E12_engine** — the scaling proof for the snapshot engine itself:
//!   mixed Zipf point reads (90%) and single-row UPDATEs (10%), plus a
//!   pure-read series, at 1/2/4/8 threads straight against `Database`. The
//!   read-scaling floor is asserted here (core-scaled — see
//!   [`read_scaling_floor`] — so a 1-core CI box gates on "threads don't
//!   collapse throughput" while a many-core box gates on real parallelism).
//!   The gated ratio is the median of three samples of it.
//! * **E12 write sweep** — what one write costs as the table grows: median
//!   single-row UPDATE of an unindexed and of an indexed column, and
//!   single-row INSERT, at 5k/20k/80k/200k rows of the load rig's `orders`
//!   schema, in memory. Quick mode asserts that both UPDATE series stay
//!   within 2× between 5k and 200k rows (a write copies what it changes,
//!   not the table), on the median of three samples of each growth ratio.
//! * **E7_throughput** — requests/second through the full gateway with 1–8
//!   worker threads over a Zipf-skewed 90/10 report/sign mix.
//! * **pool** — the real worker-pool HTTP server over sockets, recording
//!   throughput and p99 latency as BENCH_JSON metrics.

use dbgw_baselines::URLQUERY_MACRO;
use dbgw_cgi::{CgiRequest, Gateway, HttpClient, HttpServer, ServerConfig};
use dbgw_testkit::bench::{Suite, Throughput};
use dbgw_testkit::Rng;
use dbgw_workload::{UrlDirectory, Zipf};
use minisql::{Connection, Database, Value};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const REQUESTS_PER_ITER: usize = 200;

// ---------------------------------------------------------------------------
// E12: the snapshot engine under mixed read/write load
// ---------------------------------------------------------------------------

const HOT_ROWS: usize = 1_024;

/// A hot table the Zipf workload hammers: 1k rows, point-indexed key.
fn engine_db() -> Database {
    let db = Database::without_cache();
    db.run_script("CREATE TABLE hot (k INTEGER, v INTEGER); CREATE INDEX hot_k ON hot (k)")
        .unwrap();
    let mut conn = db.connect();
    for k in 0..HOT_ROWS as i64 {
        conn.execute_with_params(
            "INSERT INTO hot VALUES (?, ?)",
            &[Value::Int(k), Value::Int(0)],
        )
        .unwrap();
    }
    db
}

/// Run `threads` workers, each issuing `ops_per_thread` statements —
/// `write_pct`% single-row UPDATEs, the rest indexed point SELECTs, keys
/// Zipf-skewed so readers and writers collide on the same hot rows.
/// Returns aggregate statements/second.
fn engine_run(db: &Database, threads: usize, ops_per_thread: usize, write_pct: u32) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = db.clone();
            scope.spawn(move || {
                let mut conn = db.connect();
                let mut rng = dbgw_workload::rng(t as u64 + 0x5EED);
                let zipf = Zipf::new(HOT_ROWS, 1.0);
                for _ in 0..ops_per_thread {
                    let k = (zipf.sample(&mut rng) % HOT_ROWS) as i64;
                    if rng.gen_range(0u32..100) < write_pct {
                        conn.execute_with_params(
                            "UPDATE hot SET v = v + 1 WHERE k = ?",
                            &[Value::Int(k)],
                        )
                        .unwrap();
                    } else {
                        black_box(
                            conn.execute_with_params(
                                "SELECT v FROM hot WHERE k = ?",
                                &[Value::Int(k)],
                            )
                            .unwrap(),
                        );
                    }
                }
            });
        }
    });
    (threads * ops_per_thread) as f64 / start.elapsed().as_secs_f64()
}

/// Best-of-N statements/second for one (threads, mix) point.
fn engine_series(db: &Database, threads: usize, ops_per_thread: usize, write_pct: u32) -> f64 {
    let samples = if quick_mode() { 2 } else { 4 };
    (0..samples)
        .map(|_| engine_run(db, threads, ops_per_thread, write_pct))
        .fold(0.0f64, f64::max)
}

/// The middle value of `samples`: what each floor gates on, so that one
/// sample taken in a busy spell on the host neither fails nor passes it.
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The honest scaling gate. Snapshot reads share no lock, so on a machine
/// with enough cores 8 reader threads must deliver multiples of one
/// thread's throughput; on a starved box the most the hardware can prove is
/// that adding threads does not collapse it. Floors by available cores:
/// ≥8 → 4×, ≥4 → 2×, ≥2 → 1.3×, 1 → 0.5× (threads may only cost the
/// scheduling overhead, never serialize behind a global lock).
fn read_scaling_floor() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 8 {
        4.0
    } else if cores >= 4 {
        2.0
    } else if cores >= 2 {
        1.3
    } else {
        0.5
    }
}

/// Table sizes of the write sweep.
const SWEEP_ROWS: [usize; 4] = [5_000, 20_000, 80_000, 200_000];

/// The load rig's `orders` schema — a primary key and secondary indexes on
/// `custid` and `product_name` — holding `rows` rows, five per customer.
/// Loaded in 500-row statements, in memory, without a result cache.
fn orders_db(rows: usize) -> Database {
    let db = Database::without_cache();
    db.run_script(
        "CREATE TABLE orders (orderid INTEGER PRIMARY KEY, custid INTEGER NOT NULL, \
         product_name VARCHAR(60), quantity INTEGER, price DOUBLE); \
         CREATE INDEX orders_cust ON orders (custid); \
         CREATE INDEX orders_product ON orders (product_name)",
    )
    .unwrap();
    let mut conn = db.connect();
    for start in (1..=rows).step_by(500) {
        let values: Vec<String> = (start..(start + 500).min(rows + 1))
            .map(|id| {
                format!(
                    "({id}, {}, 'item {}', {}, 9.5)",
                    id / 5 + 1,
                    id % 97,
                    id % 10
                )
            })
            .collect();
        conn.execute(&format!("INSERT INTO orders VALUES {}", values.join(", ")))
            .unwrap();
    }
    db
}

/// Median microseconds of `ops` runs of `sql`, each with fresh `params`.
fn median_us(
    conn: &mut Connection,
    sql: &str,
    ops: usize,
    mut params: impl FnMut() -> Vec<Value>,
) -> f64 {
    let mut samples: Vec<f64> = (0..ops)
        .map(|_| {
            let params = params();
            let t = Instant::now();
            black_box(conn.execute_with_params(sql, &params).unwrap());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[ops / 2]
}

/// One `orders` table of the write sweep and the connection writing to it.
struct SweepTable {
    conn: Connection,
    rng: Rng,
    rows: i64,
    next_id: i64,
}

impl SweepTable {
    fn new(rows: usize) -> SweepTable {
        SweepTable {
            conn: orders_db(rows).connect(),
            rng: dbgw_workload::rng(rows as u64),
            rows: rows as i64,
            next_id: rows as i64,
        }
    }

    /// Median microseconds of `ops` single-row writes of each kind:
    /// `UPDATE … SET quantity` (no index on it), `UPDATE … SET custid`
    /// (indexed), and `INSERT` of a new order.
    fn round(&mut self, ops: usize) -> [f64; 3] {
        let SweepTable {
            conn,
            rng,
            rows,
            next_id,
        } = self;
        let (rows, customers) = (*rows, *rows / 5);
        let sql = "UPDATE orders SET quantity = ? WHERE orderid = ?";
        let unindexed = median_us(conn, sql, ops, || {
            vec![
                Value::Int(rng.gen_range(0..100i64)),
                Value::Int(rng.gen_range(1..=rows)),
            ]
        });
        let sql = "UPDATE orders SET custid = ? WHERE orderid = ?";
        let indexed = median_us(conn, sql, ops, || {
            vec![
                Value::Int(rng.gen_range(1..=customers)),
                Value::Int(rng.gen_range(1..=rows)),
            ]
        });
        let sql = "INSERT INTO orders VALUES (?, ?, 'item new', 1, 9.5)";
        let insert = median_us(conn, sql, ops, || {
            *next_id += 1;
            vec![
                Value::Int(*next_id),
                Value::Int(rng.gen_range(1..=customers)),
            ]
        });
        [unindexed, indexed, insert]
    }
}

/// Per-write microseconds at each of [`SWEEP_ROWS`]' `tables`: the lowest
/// of three rounds' medians (the best-of-N of [`engine_series`]), the table
/// sizes taking turns within each round so that a busy spell on the host
/// reaches every size alike.
fn write_sweep(tables: &mut [SweepTable], ops: usize) -> Vec<[f64; 3]> {
    let mut best = vec![[f64::MAX; 3]; tables.len()];
    for _ in 0..3 {
        for (table, best) in tables.iter_mut().zip(&mut best) {
            for (best, us) in best.iter_mut().zip(table.round(ops)) {
                *best = best.min(us);
            }
        }
    }
    best
}

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
}

fn build_gateway() -> Arc<Gateway> {
    let db = minisql::Database::new();
    UrlDirectory::generate(2_000, 1996).load(&db).unwrap();
    db.run_script("CREATE TABLE guest (name VARCHAR(40) NOT NULL, message VARCHAR(200))")
        .unwrap();
    let gw = Gateway::new(db);
    gw.add_macro("urlquery.d2w", URLQUERY_MACRO).unwrap();
    gw.add_macro(
        "sign.d2w",
        "%SQL{ INSERT INTO guest (name, message) VALUES ('$(NAME)', 'hi') %}\n\
         %HTML_REPORT{signed%EXEC_SQL%}",
    )
    .unwrap();
    Arc::new(gw)
}

/// The request mix: mostly searches with Zipf-popular terms, some writes.
fn request(rng: &mut Rng, zipf: &Zipf, terms: &[&str]) -> CgiRequest {
    if rng.gen_bool(0.9) {
        let term = terms[zipf.sample(rng) % terms.len()];
        CgiRequest::get(
            "/urlquery.d2w/report",
            &format!("SEARCH={term}&USE_TITLE=yes&DBFIELDS=title"),
        )
    } else {
        CgiRequest::get(
            "/sign.d2w/report",
            &format!("NAME=u{}", rng.next_u32() as u16),
        )
    }
}

/// Drive the worker-pool HTTP server end to end: `clients` threads each send
/// `per_client` GETs over real sockets. Returns (requests/second, p99 ms).
fn pool_run(clients: usize, per_client: usize) -> (f64, f64) {
    let db = minisql::Database::new();
    UrlDirectory::generate(1_000, 1996).load(&db).unwrap();
    let gw = Gateway::new(db);
    gw.add_macro("urlquery.d2w", URLQUERY_MACRO).unwrap();
    let config = ServerConfig {
        workers: 4,
        queue: 256,
        ..ServerConfig::default()
    };
    let server = HttpServer::start_with_config(gw, 0, config).unwrap();
    let addr = server.addr();

    let start = Instant::now();
    let mut latencies_ns: Vec<u64> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..clients {
            handles.push(scope.spawn(move || {
                let client = HttpClient::new(addr);
                let mut samples = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let t = Instant::now();
                    let resp = client
                        .get("/cgi-bin/db2www/urlquery.d2w/report?SEARCH=ib&USE_TITLE=yes")
                        .unwrap();
                    assert_eq!(resp.status, 200);
                    samples.push(t.elapsed().as_nanos() as u64);
                }
                samples
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    server.shutdown();

    latencies_ns.sort_unstable();
    let total = latencies_ns.len();
    let p99 = latencies_ns[(total * 99 / 100).min(total - 1)] as f64 / 1e6;
    ((total as f64) / elapsed, p99)
}

fn main() {
    let gateway = build_gateway();
    let terms = ["ib", "web", "net", "lab", "arch", "zzz"];
    let mut suite = Suite::new("concurrency");

    // E12: the engine itself. Mixed 90/10 series is the recorded headline;
    // the pure-read series carries the asserted scaling gate.
    {
        let db = engine_db();
        let ops = if quick_mode() { 400 } else { 2_000 };
        for threads in [1usize, 2, 4, 8] {
            let mixed = engine_series(&db, threads, ops, 10);
            let reads = engine_series(&db, threads, ops, 0);
            suite.record_metric(&format!("engine_mixed_ops_per_sec_{threads}t"), mixed);
            suite.record_metric(&format!("engine_read_ops_per_sec_{threads}t"), reads);
        }
        let scaling = median(
            (0..3)
                .map(|_| engine_series(&db, 8, ops, 0) / engine_series(&db, 1, ops, 0))
                .collect(),
        );
        let floor = read_scaling_floor();
        suite.record_metric("engine_read_scaling_8t_over_1t", scaling);
        suite.record_metric("engine_read_scaling_floor", floor);
        assert!(
            scaling >= floor,
            "snapshot-read scaling regressed: 8t/1t = {scaling:.2} < floor {floor:.2} \
             ({} cores)",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
    }
    // E12 write sweep: per-write cost against table size.
    {
        let ops = if quick_mode() { 100 } else { 300 };
        let series = ["update_unindexed", "update_indexed", "insert"];
        let mut tables: Vec<SweepTable> = SWEEP_ROWS.iter().map(|&r| SweepTable::new(r)).collect();
        let samples: Vec<Vec<[f64; 3]>> = (0..3).map(|_| write_sweep(&mut tables, ops)).collect();
        // Each cost and growth ratio recorded is the median of its samples.
        let at = |size: usize, i: usize| median(samples.iter().map(|s| s[size][i]).collect());
        for (size, &rows) in SWEEP_ROWS.iter().enumerate() {
            for (i, name) in series.iter().enumerate() {
                suite.record_metric(&format!("sweep_{name}_us_{rows}"), at(size, i));
            }
        }
        let last = SWEEP_ROWS.len() - 1;
        for (i, name) in series.iter().enumerate() {
            let growth = median(samples.iter().map(|s| s[last][i] / s[0][i]).collect());
            let (small, large) = (at(0, i), at(last, i));
            suite.record_metric(&format!("sweep_{name}_200k_over_5k"), growth);
            if quick_mode() && i < 2 {
                assert!(
                    growth <= 2.0,
                    "single-row {name} grew {growth:.2}x from 5k to 200k rows: \
                     {small:.1} -> {large:.1} us (medians of three samples)",
                );
            }
        }
    }
    {
        let mut group = suite.group("E7_throughput");
        group.sample_size(10);
        group.throughput(Throughput::Elements(REQUESTS_PER_ITER as u64));
        for threads in [1usize, 2, 4, 8] {
            group.bench(&threads.to_string(), || {
                let per_thread = REQUESTS_PER_ITER / threads;
                std::thread::scope(|scope| {
                    for t in 0..threads {
                        let gw = Arc::clone(&gateway);
                        scope.spawn(move || {
                            let mut rng = dbgw_workload::rng(t as u64 + 1);
                            let zipf = Zipf::new(terms.len(), 1.0);
                            for _ in 0..per_thread {
                                let req = request(&mut rng, &zipf, &terms);
                                let resp = gw.handle(&req);
                                assert_eq!(resp.status, 200);
                            }
                        });
                    }
                });
            });
        }
    }
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");
    let (rps, p99_ms) = if quick {
        pool_run(4, 10)
    } else {
        pool_run(8, 50)
    };
    suite.record_metric("pool_throughput_rps", rps);
    suite.record_metric("pool_p99_latency_ms", p99_ms);
    suite.finish();
}
