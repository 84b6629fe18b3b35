//! End-to-end durability: the WAL, recovery, and checkpoints driven through
//! the public [`minisql::Database`] API, the way a deployment would hit them.
//!
//! Tests share one process; WAL crash points ([`dbgw_testkit::crash`]) are a
//! process-wide registry, so every test here serializes on [`serial`] — an
//! armed point must never fire in a neighbouring test's group-commit daemon.

use minisql::storage::RowId;
use minisql::wal::{DurabilityConfig, LOG_FILE};
use minisql::{Database, Value};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Std-only temp dir, removed on drop.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("dbgw-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
}

/// Open with explicit knobs so the ambient environment cannot skew a test:
/// fsync on, no group-commit linger, effectively-never automatic checkpoints.
fn open(dir: &Path) -> Database {
    let config = DurabilityConfig {
        fsync: true,
        group_commit_us: 0,
        checkpoint_bytes: u64::MAX,
    };
    Database::open_with_config(dir, &config, &dbgw_cache::CacheConfig::default()).unwrap()
}

fn count(db: &Database, table: &str) -> i64 {
    let mut conn = db.connect();
    let r = conn
        .execute(&format!("SELECT COUNT(*) FROM {table}"))
        .unwrap();
    match r.rows().unwrap().rows[0][0] {
        Value::Int(n) => n,
        ref v => panic!("unexpected COUNT type: {v:?}"),
    }
}

/// The observable content of a table: every row with its stable id.
fn rows_with_ids(db: &Database, table: &str) -> Vec<(RowId, Vec<Value>)> {
    let state = db.pin();
    let t = &state.tables[table];
    t.heap.iter().map(|(id, row)| (id, row.to_vec())).collect()
}

#[test]
fn committed_statements_survive_close_and_reopen() {
    let _guard = serial();
    let tmp = temp_dir("reopen");
    {
        let db = open(&tmp.0);
        db.run_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(20));
             CREATE INDEX t_name ON t (name);
             INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three');
             UPDATE t SET name = 'TWO' WHERE id = 2;
             DELETE FROM t WHERE id = 3;",
        )
        .unwrap();
        db.close();
    }
    let db = open(&tmp.0);
    let mut conn = db.connect();
    let r = conn.execute("SELECT id, name FROM t ORDER BY id").unwrap();
    assert_eq!(
        r.rows().unwrap().rows,
        vec![
            vec![Value::Int(1), Value::Text("one".into())],
            vec![Value::Int(2), Value::Text("TWO".into())],
        ]
    );
    // The secondary index came back too (recovery rebuilds indexes).
    let r = conn.execute("SELECT id FROM t WHERE name = 'TWO'").unwrap();
    assert_eq!(r.rows().unwrap().rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn short_write_tail_is_truncated_to_last_whole_record() {
    let _guard = serial();
    let tmp = temp_dir("shortwrite");
    {
        let db = open(&tmp.0);
        db.run_script("CREATE TABLE t (n INTEGER)").unwrap();
        let mut conn = db.connect();
        for n in 0..10 {
            conn.execute(&format!("INSERT INTO t VALUES ({n})"))
                .unwrap();
        }
        db.close();
    }
    let log = tmp.0.join(LOG_FILE);
    let full = std::fs::read(&log).unwrap();
    // Cut mid-record (3 bytes shy of the end): a torn final append.
    let cut = full.len() as u64 - 3;
    std::fs::OpenOptions::new()
        .write(true)
        .open(&log)
        .unwrap()
        .set_len(cut)
        .unwrap();
    let db = open(&tmp.0);
    assert_eq!(count(&db, "t"), 9, "exactly the torn record is lost");
    // Recovery truncated the file in place to the valid prefix.
    assert!(std::fs::metadata(&log).unwrap().len() < cut);
    // The reopened database keeps working past the old torn point.
    let mut conn = db.connect();
    conn.execute("INSERT INTO t VALUES (99)").unwrap();
    db.close();
    let db = open(&tmp.0);
    assert_eq!(count(&db, "t"), 10);
}

#[test]
fn bit_flip_tail_is_discarded_by_checksum() {
    let _guard = serial();
    let tmp = temp_dir("bitflip");
    {
        let db = open(&tmp.0);
        db.run_script("CREATE TABLE t (n INTEGER)").unwrap();
        let mut conn = db.connect();
        for n in 0..5 {
            conn.execute(&format!("INSERT INTO t VALUES ({n})"))
                .unwrap();
        }
        db.close();
    }
    let log = tmp.0.join(LOG_FILE);
    let mut bytes = std::fs::read(&log).unwrap();
    // Flip one bit in the last record's payload: the length is intact, so
    // only the checksum can catch it.
    let last = bytes.len() - 2;
    bytes[last] ^= 0x40;
    std::fs::write(&log, &bytes).unwrap();
    let db = open(&tmp.0);
    assert_eq!(count(&db, "t"), 4, "checksum rejects the corrupt record");
}

#[test]
fn recovery_is_idempotent_across_repeated_reopens() {
    let _guard = serial();
    let tmp = temp_dir("idempotent");
    {
        let db = open(&tmp.0);
        db.run_script(
            "CREATE TABLE a (n INTEGER PRIMARY KEY);
             INSERT INTO a VALUES (1), (2), (3);
             CREATE TABLE doomed (n INTEGER);
             INSERT INTO doomed VALUES (7);
             DROP TABLE doomed;
             DELETE FROM a WHERE n = 2;",
        )
        .unwrap();
        db.close();
    }
    // Replaying the same log twice (reopen without writing) must converge on
    // the same state, byte for byte in content terms.
    let first = {
        let db = open(&tmp.0);
        let rows = rows_with_ids(&db, "a");
        db.close();
        rows
    };
    let db = open(&tmp.0);
    assert_eq!(rows_with_ids(&db, "a"), first);
    assert!(!db.pin().tables.contains_key("doomed"));
}

#[test]
fn row_ids_are_stable_across_checkpoint_and_recovery() {
    let _guard = serial();
    let tmp = temp_dir("rowids");
    let before;
    {
        let db = open(&tmp.0);
        db.run_script(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10));
             INSERT INTO t VALUES (1,'a'), (2,'b'), (3,'c'), (4,'d'), (5,'e');
             DELETE FROM t WHERE id = 2;
             DELETE FROM t WHERE id = 4;",
        )
        .unwrap();
        before = rows_with_ids(&db, "t");
        db.checkpoint_now().unwrap();
        db.close();
    }
    let db = open(&tmp.0);
    assert_eq!(
        rows_with_ids(&db, "t"),
        before,
        "checkpoint + recovery must not renumber surviving rows"
    );
    // A post-checkpoint append addresses rows by those same ids.
    let mut conn = db.connect();
    conn.execute("UPDATE t SET v = 'C' WHERE id = 3").unwrap();
    db.close();
    let db = open(&tmp.0);
    let rows = rows_with_ids(&db, "t");
    let updated = rows.iter().find(|(_, r)| r[0] == Value::Int(3)).unwrap();
    assert_eq!(updated.1[1], Value::Text("C".into()));
    assert_eq!(
        updated.0,
        before
            .iter()
            .find(|(_, r)| r[0] == Value::Int(3))
            .unwrap()
            .0
    );
}

#[test]
fn simulated_crash_loses_only_unlogged_tail_and_stays_consistent() {
    let _guard = serial();
    let tmp = temp_dir("crashpoint");
    dbgw_testkit::crash::disarm_all();
    {
        let db = open(&tmp.0);
        db.run_script("CREATE TABLE t (n INTEGER)").unwrap();
        let mut conn = db.connect();
        // Fire the crash point on a later batch: everything after it is
        // acked to the client but never reaches disk — a real power cut
        // between ack and platter.
        dbgw_testkit::crash::arm("wal.append", 3);
        for n in 0..20 {
            conn.execute(&format!("INSERT INTO t VALUES ({n})"))
                .unwrap();
        }
        assert_eq!(count(&db, "t"), 20, "in-memory state saw every ack");
        db.close();
    }
    dbgw_testkit::crash::disarm_all();
    let db = open(&tmp.0);
    let survivors = count(&db, "t");
    assert!(
        (0..20).contains(&survivors),
        "a strict prefix survives, got {survivors}"
    );
    // Whatever survived is well-formed and writable.
    let mut conn = db.connect();
    conn.execute("INSERT INTO t VALUES (100)").unwrap();
    assert_eq!(count(&db, "t"), survivors + 1);
}

#[test]
fn torn_batch_crash_point_is_cut_by_recovery() {
    let _guard = serial();
    let tmp = temp_dir("tornpoint");
    dbgw_testkit::crash::disarm_all();
    {
        let db = open(&tmp.0);
        db.run_script("CREATE TABLE t (n INTEGER)").unwrap();
        let mut conn = db.connect();
        dbgw_testkit::crash::arm("wal.torn", 4);
        for n in 0..12 {
            conn.execute(&format!("INSERT INTO t VALUES ({n})"))
                .unwrap();
        }
        db.close();
    }
    dbgw_testkit::crash::disarm_all();
    let db = open(&tmp.0);
    let survivors = count(&db, "t");
    assert!(
        (0..12).contains(&survivors),
        "the half-written batch must be cut, got {survivors}"
    );
}

#[test]
fn explicit_transaction_is_durable_whole_or_not_at_all() {
    let _guard = serial();
    let tmp = temp_dir("txnatomic");
    {
        let db = open(&tmp.0);
        db.run_script(
            "CREATE TABLE acct (id INTEGER PRIMARY KEY, n INTEGER NOT NULL);
             INSERT INTO acct VALUES (1, 100), (2, 100);",
        )
        .unwrap();
        let mut committed = db.connect();
        for sql in [
            "BEGIN",
            "UPDATE acct SET n = n - 5 WHERE id = 1",
            "UPDATE acct SET n = n + 5 WHERE id = 2",
            "COMMIT",
        ] {
            committed.execute(sql).unwrap();
        }
        let mut open_txn = db.connect();
        for sql in [
            "BEGIN",
            "UPDATE acct SET n = n - 30 WHERE id = 1",
            "UPDATE acct SET n = n + 30 WHERE id = 2",
        ] {
            open_txn.execute(sql).unwrap();
        }
        // The process dies between the statements and COMMIT: neither
        // COMMIT nor ROLLBACK (nor the connection's drop) ever runs.
        std::mem::forget(open_txn);
        db.close();
    }
    let db = open(&tmp.0);
    let mut conn = db.connect();
    let r = conn.execute("SELECT id, n FROM acct ORDER BY id").unwrap();
    assert_eq!(
        r.rows().unwrap().rows,
        vec![
            vec![Value::Int(1), Value::Int(95)],
            vec![Value::Int(2), Value::Int(105)],
        ],
        "the committed transaction survives whole, the open one not at all"
    );
}

#[test]
fn checkpoint_crash_before_rename_preserves_the_old_log() {
    let _guard = serial();
    let tmp = temp_dir("ckptcrash");
    dbgw_testkit::crash::disarm_all();
    {
        let db = open(&tmp.0);
        db.run_script(
            "CREATE TABLE t (n INTEGER);
             INSERT INTO t VALUES (1), (2), (3);",
        )
        .unwrap();
        dbgw_testkit::crash::arm("checkpoint.before_rename", 1);
        db.checkpoint_now().unwrap();
        db.close();
    }
    dbgw_testkit::crash::disarm_all();
    // The aborted checkpoint left its scratch file behind — exactly what a
    // real crash would leave — and recovery must ignore it.
    assert!(tmp.0.join(minisql::checkpoint::TMP_FILE).exists());
    let db = open(&tmp.0);
    assert_eq!(count(&db, "t"), 3);
}

#[test]
fn fsync_off_still_recovers_cleanly_on_orderly_close() {
    let _guard = serial();
    let tmp = temp_dir("nofsync");
    {
        let config = DurabilityConfig {
            fsync: false,
            group_commit_us: 0,
            checkpoint_bytes: u64::MAX,
        };
        let db = Database::open_with_config(&tmp.0, &config, &dbgw_cache::CacheConfig::default())
            .unwrap();
        db.run_script("CREATE TABLE t (n INTEGER); INSERT INTO t VALUES (1)")
            .unwrap();
        db.close();
    }
    let db = open(&tmp.0);
    assert_eq!(count(&db, "t"), 1);
}

// ---------------------------------------------------------------------------
// Planner statistics across the durability boundary
// ---------------------------------------------------------------------------
//
// Table statistics live inside `TableData`, so they ride the same snapshot
// publication and recovery machinery as rows and indexes. These tests pin
// the lifecycle: statistics are rebuilt by recovery (both from a checkpoint
// image and from a raw WAL replay), reflect exactly the rows that survived,
// and are never corrupted by statements that fail or writers that die.

/// The published statistics for `table` (`None` until its first write).
fn table_stats(db: &Database, table: &str) -> Option<minisql::stats::TableStats> {
    db.pin().tables[table].stats.clone()
}

#[test]
fn stats_survive_checkpoint_and_recovery() {
    let _guard = serial();
    let tmp = temp_dir("statsckpt");
    {
        let db = open(&tmp.0);
        db.run_script("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
            .unwrap();
        let mut conn = db.connect();
        for i in 0..40i64 {
            conn.execute_with_params(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(i), Value::Int(i * 3)],
            )
            .unwrap();
        }
        conn.execute("DELETE FROM t WHERE id >= 30").unwrap();
        if let Some(stats) = table_stats(&db, "t") {
            assert_eq!(stats.rows, 30, "live stats track inserts and deletes");
        }
        db.checkpoint_now().unwrap();
        db.close();
    }
    // Reopen from the checkpoint image: recovery must rebuild statistics so
    // the cost model never plans against a blank slate after a restart.
    let db = open(&tmp.0);
    assert_eq!(count(&db, "t"), 30);
    if let Some(stats) = table_stats(&db, "t") {
        assert_eq!(stats.rows, 30, "recovered stats match surviving rows");
        let id = &stats.columns[0];
        assert_eq!(id.min, Some(Value::Int(0)));
        assert_eq!(id.max, Some(Value::Int(29)));
        assert_eq!(id.nulls, 0);
        assert!(id.histogram.is_some(), "numeric column regains a histogram");
    }
}

#[test]
fn stats_match_survivors_after_simulated_crash() {
    let _guard = serial();
    let tmp = temp_dir("statscrash");
    dbgw_testkit::crash::disarm_all();
    {
        let db = open(&tmp.0);
        db.run_script("CREATE TABLE t (n INTEGER)").unwrap();
        let mut conn = db.connect();
        // Lose everything after the third batch: acked but never durable.
        dbgw_testkit::crash::arm("wal.append", 3);
        for n in 0..25 {
            conn.execute(&format!("INSERT INTO t VALUES ({n})"))
                .unwrap();
        }
        db.close();
    }
    dbgw_testkit::crash::disarm_all();
    let db = open(&tmp.0);
    let survivors = count(&db, "t");
    if let Some(stats) = table_stats(&db, "t") {
        assert_eq!(
            stats.rows, survivors as u64,
            "stats describe the recovered world, not the pre-crash one"
        );
        if survivors > 0 {
            assert_eq!(
                stats.columns[0].max,
                Some(Value::Int(survivors - 1)),
                "max reflects the surviving prefix"
            );
        }
    }
}

#[test]
fn failed_statements_leave_stats_coherent() {
    let _guard = serial();
    let tmp = temp_dir("statsfail");
    let db = open(&tmp.0);
    db.run_script(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER);
         INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)",
    )
    .unwrap();
    let before = table_stats(&db, "t");
    let mut conn = db.connect();
    // The third row violates the primary key: the whole statement fails and
    // its working copy — including any stats updates for rows 50/51 — must
    // be discarded, exactly like the rows themselves.
    let err = conn.execute("INSERT INTO t VALUES (50, 1), (51, 2), (1, 3)");
    assert!(err.is_err(), "duplicate key must fail the statement");
    assert_eq!(count(&db, "t"), 3);
    let after = table_stats(&db, "t");
    match (&before, &after) {
        (Some(b), Some(a)) => {
            assert_eq!(a.rows, b.rows, "failed insert leaked into stats");
            assert_eq!(
                a.columns[0].max, b.columns[0].max,
                "phantom max from a rolled-back row"
            );
        }
        (None, None) => {}
        other => panic!("stats flipped presence across a failed statement: {other:?}"),
    }
    // The table keeps working and stats keep tracking after the failure.
    conn.execute("INSERT INTO t VALUES (4, 40)").unwrap();
    if let Some(stats) = table_stats(&db, "t") {
        assert_eq!(stats.rows, 4);
        assert_eq!(stats.columns[0].max, Some(Value::Int(4)));
    }
}

#[test]
fn stats_refresh_past_threshold_widens_histograms() {
    let _guard = serial();
    let tmp = temp_dir("statsrefresh");
    let db = open(&tmp.0);
    db.run_script("CREATE TABLE t (n INTEGER)").unwrap();
    let refreshes_before = dbgw_obs::metrics().stats_refreshes.get();
    let mut conn = db.connect();
    conn.execute("BEGIN").unwrap();
    // Far past the refresh threshold (default 256 writes): incremental
    // maintenance must hand off to full rebuilds along the way, so the
    // histogram covers the late, larger values too.
    for n in 0..600i64 {
        conn.execute_with_params("INSERT INTO t VALUES (?)", &[Value::Int(n * 10)])
            .unwrap();
    }
    conn.execute("COMMIT").unwrap();
    let stats = table_stats(&db, "t").expect("stats enabled");
    assert_eq!(stats.rows, 600);
    let col = &stats.columns[0];
    assert_eq!(col.max, Some(Value::Int(5990)));
    let hist = col.histogram.as_ref().expect("numeric histogram");
    // fraction_below(hi) ≈ 1 only if rebuilds widened the histogram past the
    // values that arrived after the initial build.
    assert!(
        hist.fraction_below(6000.0) > 0.99,
        "histogram never refreshed past the initial build"
    );
    assert!(
        dbgw_obs::metrics().stats_refreshes.get() > refreshes_before,
        "no refresh counted past the threshold"
    );
    // Distinct estimate is sane for 600 distinct values (linear counting
    // saturates gracefully; it must not report a tiny NDV).
    assert!(col.distinct() > 150, "NDV collapsed: {}", col.distinct());
}
