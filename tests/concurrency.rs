//! Concurrency guarantees of the snapshot-read engine, proven under stress.
//!
//! The engine's contract (DESIGN.md §11): SELECTs pin one immutable snapshot
//! and never observe a partially applied statement; writers serialize per
//! table through sorted-order latches and publish atomically; table version
//! counters and the snapshot epoch only ever move forward. Every test here
//! runs real threads through the public `Database`/`Connection` API with the
//! testkit stress harness — barrier-started, workloads deterministic by seed
//! (failures print `TESTKIT_SEED=<seed>` to replay), deadlocks converted into
//! named failures by the watchdog rather than hung builds. No test
//! synchronizes with sleeps.

use dbgw_testkit::stress::{self, StressConfig};
use dbgw_testkit::{prop_assert, prop_assert_eq};
use minisql::{Database, ExecResult, SqlCode, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn rows_of(r: ExecResult) -> Vec<Vec<Value>> {
    match r {
        ExecResult::Rows(rs) => rs.rows,
        other => panic!("expected rows, got {other:?}"),
    }
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected int, got {other:?}"),
    }
}

/// Caching on for readers is deliberate in most tests below: the result
/// cache revalidates against the pinned snapshot's version counters, so a
/// stale hit would be a correctency bug this suite must catch too.
fn stamped_table_db() -> Database {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE pairs (k INTEGER PRIMARY KEY, a INTEGER NOT NULL, b INTEGER NOT NULL)",
    )
    .unwrap();
    let mut conn = db.connect();
    for k in 0..32 {
        conn.execute_with_params("INSERT INTO pairs VALUES (?, 0, 0)", &[Value::Int(k)])
            .unwrap();
    }
    db
}

/// A multi-row UPDATE is one atomic publication: every reader sees all 32
/// rows carrying the *same* stamp with `a = -b`, never a half-applied
/// statement (the torn read the old global lock prevented by blocking).
#[test]
fn no_torn_multi_row_reads() {
    let db = stamped_table_db();
    let writer_db = db.clone();
    let reader_db = db.clone();
    let mut config = StressConfig::named("no_torn_multi_row_reads");
    config.threads = 4;
    stress::run_observed(
        &config,
        move |w| {
            let mut conn = writer_db.connect();
            let stamp = (w.thread as i64 + 1) * 1_000_000 + w.iter as i64;
            let n = conn
                .execute_with_params(
                    "UPDATE pairs SET a = ?, b = 0 - ?",
                    &[Value::Int(stamp), Value::Int(stamp)],
                )
                .map_err(|e| e.to_string())?;
            prop_assert_eq!(rows_touched(n), 32);
            Ok(())
        },
        move || {
            let mut conn = reader_db.connect();
            let rows = rows_of(
                conn.execute("SELECT a, b FROM pairs")
                    .map_err(|e| e.to_string())?,
            );
            prop_assert_eq!(rows.len(), 32);
            let first = int(&rows[0][0]);
            for row in &rows {
                let (a, b) = (int(&row[0]), int(&row[1]));
                prop_assert_eq!(a, -b, "torn row: a={a} b={b}");
                prop_assert_eq!(a, first, "mixed stamps in one snapshot: {a} vs {first}");
            }
            Ok(())
        },
    );
}

fn rows_touched(r: ExecResult) -> usize {
    match r {
        ExecResult::Count(n) => n,
        other => panic!("expected count, got {other:?}"),
    }
}

/// Randomized transfers between accounts preserve the total balance in every
/// intermediate snapshot. Each transfer is a single CASE-expression UPDATE —
/// one statement, one atomic publication — so the observer's SUM must read
/// 0 drift no matter when it lands.
#[test]
fn balance_sum_invariant_under_concurrent_transfers() {
    const ACCOUNTS: i64 = 8;
    const OPENING: i64 = 1_000;
    let db = Database::new();
    db.run_script("CREATE TABLE accounts (id INTEGER PRIMARY KEY, balance INTEGER NOT NULL)")
        .unwrap();
    {
        let mut conn = db.connect();
        for id in 0..ACCOUNTS {
            conn.execute_with_params(
                "INSERT INTO accounts VALUES (?, ?)",
                &[Value::Int(id), Value::Int(OPENING)],
            )
            .unwrap();
        }
    }
    let writer_db = db.clone();
    let reader_db = db.clone();
    let mut config = StressConfig::named("balance_sum_invariant");
    config.threads = 4;
    stress::run_observed(
        &config,
        move |w| {
            let mut conn = writer_db.connect();
            // Always two distinct accounts: a self-transfer would hit only
            // the first CASE arm and (correctly) destroy money.
            let from = w.rng.gen_range(0i64..ACCOUNTS);
            let to = (from + w.rng.gen_range(1i64..ACCOUNTS)) % ACCOUNTS;
            let amount = w.rng.gen_range(1i64..50);
            let n = conn.execute_with_params(
                "UPDATE accounts SET balance = CASE \
                     WHEN id = ? THEN balance - ? \
                     WHEN id = ? THEN balance + ? \
                     ELSE balance END \
                 WHERE id = ? OR id = ?",
                &[
                    Value::Int(from),
                    Value::Int(amount),
                    Value::Int(to),
                    Value::Int(amount),
                    Value::Int(from),
                    Value::Int(to),
                ],
            );
            prop_assert_eq!(rows_touched(n.map_err(|e| e.to_string())?), 2);
            Ok(())
        },
        move || {
            let mut conn = reader_db.connect();
            let rows = rows_of(
                conn.execute("SELECT SUM(balance) FROM accounts")
                    .map_err(|e| e.to_string())?,
            );
            prop_assert_eq!(int(&rows[0][0]), ACCOUNTS * OPENING);
            Ok(())
        },
    );
    let mut conn = db.connect();
    let rows = rows_of(conn.execute("SELECT SUM(balance) FROM accounts").unwrap());
    assert_eq!(int(&rows[0][0]), ACCOUNTS * OPENING, "final ledger drifted");
}

/// Version counters and the snapshot epoch never go backwards, from any
/// thread's point of view, while writers churn — and committed writes are
/// reflected: the final version is at least the number of UPDATE statements.
#[test]
fn version_counters_and_epoch_are_monotonic() {
    let db = stamped_table_db();
    let version_floor = Arc::new(AtomicU64::new(db.table_version("pairs")));
    let epoch_floor = Arc::new(AtomicU64::new(db.snapshot_epoch()));
    let writes = Arc::new(AtomicU64::new(0));

    let writer_db = db.clone();
    let observer_db = db.clone();
    let (vf, ef, wr) = (
        Arc::clone(&version_floor),
        Arc::clone(&epoch_floor),
        Arc::clone(&writes),
    );
    let mut config = StressConfig::named("monotonic_versions");
    config.threads = 4;
    stress::run_observed(
        &config,
        move |w| {
            let mut conn = writer_db.connect();
            let before = writer_db.table_version("pairs");
            conn.execute_with_params(
                "UPDATE pairs SET a = ?, b = 0 - ? WHERE k = ?",
                &[
                    Value::Int(w.iter as i64),
                    Value::Int(w.iter as i64),
                    Value::Int(w.rng.gen_range(0i64..32)),
                ],
            )
            .map_err(|e| e.to_string())?;
            wr.fetch_add(1, Ordering::Relaxed);
            let after = writer_db.table_version("pairs");
            // A writer's own committed update is visible to itself at once.
            prop_assert!(after > before, "own write invisible: {before} -> {after}");
            Ok(())
        },
        move || {
            let version = observer_db.table_version("pairs");
            let epoch = observer_db.snapshot_epoch();
            let vprev = vf.fetch_max(version, Ordering::AcqRel);
            let eprev = ef.fetch_max(epoch, Ordering::AcqRel);
            prop_assert!(
                version >= vprev,
                "version went backwards: {vprev} -> {version}"
            );
            prop_assert!(epoch >= eprev, "epoch went backwards: {eprev} -> {epoch}");
            Ok(())
        },
    );
    let total_writes = writes.load(Ordering::Relaxed);
    assert!(
        db.table_version("pairs") >= version_floor.load(Ordering::Relaxed)
            && db.table_version("pairs") - stamped_table_db_base_version() >= total_writes,
        "final version {} does not cover {} writes",
        db.table_version("pairs"),
        total_writes
    );
}

/// The version counter of `pairs` right after `stamped_table_db()` setup:
/// one CREATE TABLE bump plus 32 single-row INSERT bumps.
fn stamped_table_db_base_version() -> u64 {
    33
}

/// A pinned snapshot is a stable world: its contents bit-match across the
/// whole run no matter how much the live database churns underneath it.
#[test]
fn pinned_snapshot_never_moves() {
    let db = stamped_table_db();
    {
        let mut conn = db.connect();
        conn.execute("UPDATE pairs SET a = 7, b = 0 - 7").unwrap();
    }
    let pinned = db.pin();
    let frozen_epoch = pinned.epoch;

    let writer_db = db.clone();
    let mut config = StressConfig::named("pinned_snapshot_never_moves");
    config.threads = 2;
    let p = Arc::clone(&pinned);
    stress::run_observed(
        &config,
        move |w| {
            let mut conn = writer_db.connect();
            conn.execute_with_params(
                "UPDATE pairs SET a = ?, b = 0 - ? WHERE k = ?",
                &[
                    Value::Int(w.iter as i64 + 100),
                    Value::Int(w.iter as i64 + 100),
                    Value::Int(w.rng.gen_range(0i64..32)),
                ],
            )
            .map_err(|e| e.to_string())?;
            Ok(())
        },
        move || {
            prop_assert_eq!(p.epoch, frozen_epoch);
            let t = p.table("pairs").map_err(|e| e.to_string())?;
            prop_assert_eq!(t.heap.len(), 32);
            for (_, row) in t.heap.iter() {
                prop_assert_eq!(int(&row[1]), 7, "pinned snapshot mutated");
            }
            Ok(())
        },
    );
    // The live database did move on.
    assert!(db.snapshot_epoch() > frozen_epoch);
}

/// Writer-writer ordering: randomized DML, DDL and multi-table transactions
/// with rollbacks, all racing. The sorted-latch protocol (catalog latch
/// first, then table names in order) must never deadlock — the harness
/// watchdog turns a latch cycle into a named failure instead of a hang.
#[test]
fn randomized_multi_table_dml_never_deadlocks() {
    let db = Database::without_cache();
    db.run_script(
        "CREATE TABLE t0 (v INTEGER); CREATE TABLE t1 (v INTEGER); \
         CREATE TABLE t2 (v INTEGER); CREATE TABLE t3 (v INTEGER)",
    )
    .unwrap();
    let worker_db = db.clone();
    let mut config = StressConfig::named("multi_table_no_deadlock");
    config.threads = 8;
    config.iters = 48;
    stress::run(&config, move |w| {
        let mut conn = worker_db.connect();
        match w.rng.gen_range(0u32..10) {
            // Multi-table transaction, rolled back half the time: the
            // rollback path re-acquires every touched table's latch as one
            // sorted set.
            0..=4 => {
                conn.execute("BEGIN").map_err(|e| e.to_string())?;
                let statements = w.rng.gen_range(2u32..5);
                for _ in 0..statements {
                    let table = w.rng.gen_range(0u32..4);
                    let sql = format!("INSERT INTO t{table} VALUES ({})", w.iter);
                    conn.execute(&sql).map_err(|e| e.to_string())?;
                }
                let end = if w.rng.gen_bool(0.5) {
                    "ROLLBACK"
                } else {
                    "COMMIT"
                };
                conn.execute(end).map_err(|e| e.to_string())?;
            }
            // Cross-table DML in opposite orders from different threads —
            // the classic deadlock shape if latches were held across
            // statements or acquired unsorted.
            5..=6 => {
                let (x, y) = if w.thread % 2 == 0 { (0, 3) } else { (3, 0) };
                conn.execute(&format!("DELETE FROM t{x} WHERE v < 0"))
                    .map_err(|e| e.to_string())?;
                conn.execute(&format!("DELETE FROM t{y} WHERE v < 0"))
                    .map_err(|e| e.to_string())?;
            }
            // DDL: private per-thread table created and dropped, taking the
            // catalog latch against everyone else's table latches.
            7..=8 => {
                let name = format!("scratch_{}", w.thread);
                conn.execute(&format!("CREATE TABLE {name} (x INTEGER)"))
                    .map_err(|e| e.to_string())?;
                conn.execute(&format!("INSERT INTO {name} VALUES (1)"))
                    .map_err(|e| e.to_string())?;
                conn.execute(&format!("DROP TABLE {name}"))
                    .map_err(|e| e.to_string())?;
            }
            // Index churn: CREATE INDEX holds catalog+table; DROP INDEX
            // resolves its table under the catalog latch then latches it.
            _ => {
                let table = w.rng.gen_range(0u32..4);
                let name = format!("idx_{}_{table}", w.thread);
                conn.execute(&format!("CREATE INDEX {name} ON t{table} (v)"))
                    .map_err(|e| e.to_string())?;
                conn.execute(&format!("DROP INDEX {name}"))
                    .map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    });
    // Engine still coherent after the storm: every base table answers.
    let mut conn = db.connect();
    for t in 0..4 {
        conn.execute(&format!("SELECT COUNT(*) FROM t{t}")).unwrap();
    }
}

/// Readers pin snapshots while a writer drops and recreates the table they
/// are reading: each individual SELECT must be internally consistent (all
/// rows from one incarnation), and version counters survive the DROP so the
/// result cache can never resurrect rows across incarnations.
#[test]
fn drop_recreate_under_readers_is_snapshot_consistent() {
    let db = Database::new();
    db.run_script("CREATE TABLE flip (gen INTEGER NOT NULL)")
        .unwrap();
    {
        let mut conn = db.connect();
        for _ in 0..8 {
            conn.execute("INSERT INTO flip VALUES (0)").unwrap();
        }
    }
    let writer_db = db.clone();
    let reader_db = db.clone();
    let mut config = StressConfig::named("drop_recreate_consistency");
    config.threads = 2;
    config.iters = 24;
    stress::run_observed(
        &config,
        move |w| {
            if w.thread != 0 {
                // One DDL writer is enough; the rest hammer row DML — which,
                // like the reader below, may land between DROP and CREATE.
                // "Table not found" is the one error that race explains.
                let mut conn = writer_db.connect();
                return match conn.execute_with_params(
                    "UPDATE flip SET gen = gen WHERE gen >= ?",
                    &[Value::Int(0)],
                ) {
                    Err(e) if e.code != SqlCode::UNDEFINED_OBJECT => Err(e.to_string()),
                    _ => Ok(()),
                };
            }
            let mut conn = writer_db.connect();
            let generation = w.iter as i64 + 1;
            conn.execute("DROP TABLE flip").map_err(|e| e.to_string())?;
            conn.execute("CREATE TABLE flip (gen INTEGER NOT NULL)")
                .map_err(|e| e.to_string())?;
            for _ in 0..8 {
                conn.execute_with_params("INSERT INTO flip VALUES (?)", &[Value::Int(generation)])
                    .map_err(|e| e.to_string())?;
            }
            Ok(())
        },
        move || {
            let mut conn = reader_db.connect();
            // Between DROP and the 8th INSERT the table legitimately has
            // 0..8 rows; what must NEVER appear is a mix of generations.
            match conn.execute("SELECT gen FROM flip") {
                Ok(r) => {
                    let rows = rows_of(r);
                    if let Some(first) = rows.first() {
                        let g = int(&first[0]);
                        for row in &rows {
                            prop_assert_eq!(int(&row[0]), g, "mixed incarnations in one snapshot");
                        }
                    }
                }
                // The snapshot this reader pinned may predate the CREATE.
                Err(e) => prop_assert!(e.to_string().contains("flip"), "unexpected error: {e}"),
            }
            Ok(())
        },
    );
}

// The declarative macro form, driving the engine: concurrent single-row
// inserts through the full parse → plan → latch → publish path; the
// PRIMARY KEY index must end exactly as large as the row count.
dbgw_testkit::stress! {
    config(threads = 4, iters = 32);

    fn stress_macro_unique_inserts(w, shared = {
        let db = Database::without_cache();
        db.run_script("CREATE TABLE ids (id INTEGER PRIMARY KEY)").unwrap();
        db
    }) {
        let mut conn = shared.connect();
        let id = (w.thread as i64) * 1_000_000 + w.iter as i64;
        let inserted = conn
            .execute_with_params("INSERT INTO ids VALUES (?)", &[Value::Int(id)])
            .map_err(|e| e.to_string())?;
        prop_assert_eq!(rows_touched(inserted), 1);
        // A duplicate from the same thread must be rejected by the index.
        prop_assert!(conn
            .execute_with_params("INSERT INTO ids VALUES (?)", &[Value::Int(id)])
            .is_err());
    }
}
