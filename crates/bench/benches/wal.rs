//! E14 — the price of durability: WAL on vs off, and what group commit buys.
//!
//! The durable write path (DESIGN.md §13) holds every committing statement
//! until its redo record is fsync-durable. That is the single most expensive
//! thing the engine does per write, and group commit exists to amortize it:
//! while one committer leads an fsync, every other committer's record queues
//! into the next batch, so N concurrent writers share ~1 fsync instead of
//! paying N.
//!
//! Two series, single-row UPDATE commits against a hot table:
//!
//! * **wal_off** — the in-memory engine (no persistence), the ceiling;
//! * **wal_on** — durable, fsync on: batching only from concurrency.
//!
//! Each at 1/4/8 writer threads. The asserted floor is the one that proves
//! group commit works at all: at 8 writers the fsync count must stay
//! **below one per commit** (equivalently, >1 records per fsync) — a WAL
//! that fsyncs every commit individually fails here.

use dbgw_testkit::bench::Suite;
use minisql::{Database, Value};
use std::path::PathBuf;
use std::time::Instant;

const HOT_ROWS: i64 = 256;

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Scratch dir under the system temp root; caller removes it.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbgw-bench-wal-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One table per writer thread: writers on the *same* table serialize
/// through its latch (held across log → publish), which would hide the
/// group-commit path entirely — per-writer tables let commits actually
/// arrive at the log concurrently, like independent applications would.
fn seed(db: &Database, tables: usize) {
    let mut conn = db.connect();
    for t in 0..tables {
        conn.execute(&format!(
            "CREATE TABLE hot{t} (k INTEGER PRIMARY KEY, v INTEGER)"
        ))
        .unwrap();
        for k in 0..HOT_ROWS {
            conn.execute_with_params(
                &format!("INSERT INTO hot{t} VALUES (?, ?)"),
                &[Value::Int(k), Value::Int(0)],
            )
            .unwrap();
        }
    }
}

/// `threads` writers, each committing `ops_per_thread` single-row UPDATEs
/// against its own table. Returns aggregate commits/second.
fn run_commits(db: &Database, threads: usize, ops_per_thread: usize) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let db = db.clone();
            scope.spawn(move || {
                let mut conn = db.connect();
                let sql = format!("UPDATE hot{t} SET v = v + 1 WHERE k = ?");
                for i in 0..ops_per_thread {
                    conn.execute_with_params(&sql, &[Value::Int(i as i64 % HOT_ROWS)])
                        .unwrap();
                }
            });
        }
    });
    (threads * ops_per_thread) as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let mut suite = Suite::new("wal");
    let ops = if quick_mode() { 150 } else { 1_500 };
    let threads_series = [1usize, 4, 8];

    // Ceiling: the same workload with no persistence at all.
    {
        let db = Database::new();
        seed(&db, *threads_series.last().unwrap());
        for threads in threads_series {
            let rate = run_commits(&db, threads, ops);
            suite.record_metric(&format!("wal_off_commits_per_sec_{threads}t"), rate);
        }
    }

    // Durable: batching only from writers colliding. The 8-writer point
    // carries the asserted batching floor, measured from the global WAL
    // counters. A run stays far below the checkpoint threshold, so this
    // measures the append path alone.
    let m = dbgw_obs::metrics();
    for threads in threads_series {
        let dir = scratch(&format!("on-{threads}"));
        let db = Database::open(&dir).unwrap();
        seed(&db, threads);
        let records_before = m.wal_records.get();
        let fsyncs_before = m.wal_fsyncs.get();
        let rate = run_commits(&db, threads, ops);
        let records = (m.wal_records.get() - records_before) as f64;
        let fsyncs = (m.wal_fsyncs.get() - fsyncs_before).max(1) as f64;
        suite.record_metric(&format!("wal_on_commits_per_sec_{threads}t"), rate);
        suite.record_metric(
            &format!("wal_records_per_fsync_{threads}t"),
            records / fsyncs,
        );
        if threads == 8 {
            let fsyncs_per_commit = fsyncs / records;
            suite.record_metric("wal_fsyncs_per_commit_8t", fsyncs_per_commit);
            assert!(
                fsyncs_per_commit < 1.0,
                "group commit is not batching: {fsyncs:.0} fsyncs for {records:.0} \
                 commits at 8 writers (want < 1 fsync per commit)"
            );
        }
        db.close();
        let _ = std::fs::remove_dir_all(&dir);
    }

    suite.finish();
}
