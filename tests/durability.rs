//! End-to-end durability: the WAL, recovery, and checkpoints driven through
//! the public [`minisql::Database`] API, the way a deployment would hit them.
//!
//! Tests share one process; WAL crash points ([`dbgw_testkit::crash`]) are a
//! process-wide registry, so every test here serializes on [`serial`] — an
//! armed point must never fire in a neighbouring test's group commit.

use dbgw_testkit::gen::{ints, usizes, vec_of};
use dbgw_testkit::{prop_assert_eq, props};
use minisql::storage::RowId;
use minisql::wal::{DurabilityConfig, LOG_FILE};
use minisql::{Database, SqlCode, Value};
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
/// fsync on.
fn open(dir: &Path) -> Database {
    let config = DurabilityConfig { fsync: true };
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
             UPDATE t SET id = 4 WHERE id = 3;",
        )
        .unwrap();
        // The third row violates the primary key: the whole statement fails,
        // logs nothing, and the table keeps taking writes.
        let mut conn = db.connect();
        let err = conn.execute("INSERT INTO t VALUES (50, 'x'), (51, 'y'), (1, 'dup')");
        assert!(err.is_err(), "duplicate key must fail the statement");
        assert_eq!(count(&db, "t"), 3);
        conn.execute("INSERT INTO t VALUES (5, 'five')").unwrap();
        db.close();
    }
    let db = open(&tmp.0);
    assert_eq!(count(&db, "t"), 4, "the failed statement's rows stayed out");
    let mut conn = db.connect();
    let r = conn.execute("SELECT id, name FROM t ORDER BY id").unwrap();
    assert_eq!(
        r.rows().unwrap().rows,
        vec![
            vec![Value::Int(1), Value::Text("one".into())],
            vec![Value::Int(2), Value::Text("TWO".into())],
            vec![Value::Int(4), Value::Text("three".into())],
            vec![Value::Int(5), Value::Text("five".into())],
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
             CREATE INDEX doomed ON a (n);
             DROP INDEX doomed;
             UPDATE a SET n = 20 WHERE n = 2;",
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
    assert_eq!(first.len(), 3);
    assert!(!db.pin().indexes.contains_key("doomed"));
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
             UPDATE t SET id = 12 WHERE id = 2;
             UPDATE t SET v = 'D' WHERE id = 4;",
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
        "checkpoint + recovery must not renumber rows"
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

props! {
    config(cases = 16);

    // After `n` inserts and any UPDATEs, the ids are exactly 0..n in
    // insertion order (`seq` records it and no UPDATE touches it), and a
    // checkpoint taken after `ckpt` of the UPDATEs, plus a reopen that
    // replays the ones after it, returns the same ids.
    fn row_ids_are_insertion_ordinals_across_checkpoint_and_reopen(
        n in usizes(0..150),
        updates in vec_of((usizes(0..160), ints(0..1000)), 0..=24),
        ckpt in usizes(0..25),
    ) {
        let _guard = serial();
        let tmp = temp_dir("ordinals");
        let config = DurabilityConfig { fsync: false };
        let cache = dbgw_cache::CacheConfig::default();
        let db = Database::open_with_config(&tmp.0, &config, &cache).unwrap();
        db.run_script("CREATE TABLE t (seq INTEGER NOT NULL, v INTEGER)").unwrap();
        let mut conn = db.connect();
        let mut model: Vec<Vec<Value>> = Vec::new();
        for i in 0..n as i64 {
            conn.execute_with_params("INSERT INTO t VALUES (?, ?)", &[Value::Int(i), Value::Null])
                .unwrap();
            model.push(vec![Value::Int(i), Value::Null]);
        }
        for (k, &(seq, v)) in updates.iter().enumerate() {
            if k == ckpt {
                db.checkpoint_now().unwrap();
            }
            let params = [Value::Int(v), Value::Int(seq as i64)];
            conn.execute_with_params("UPDATE t SET v = ? WHERE seq = ?", &params).unwrap();
            if let Some(row) = model.get_mut(seq) {
                row[1] = Value::Int(v);
            }
        }
        let want: Vec<(RowId, Vec<Value>)> =
            (model.into_iter().enumerate()).map(|(i, row)| (RowId(i as u32), row)).collect();
        prop_assert_eq!(rows_with_ids(&db, "t"), want.clone(), "live");
        db.close();
        drop((conn, db));
        let db = open(&tmp.0);
        prop_assert_eq!(rows_with_ids(&db, "t"), want, "reopened");
        // The recovered heap hands out the next ordinal.
        db.run_script("INSERT INTO t VALUES (-1, NULL)").unwrap();
        let last = rows_with_ids(&db, "t").pop().unwrap();
        prop_assert_eq!(last, (RowId(n as u32), vec![Value::Int(-1), Value::Null]));
    }
}

#[test]
fn a_whole_record_that_does_not_decode_fails_open_and_keeps_the_log() {
    let _guard = serial();
    let tmp = temp_dir("undecodable");
    {
        let db = open(&tmp.0);
        db.run_script("CREATE TABLE t (n INTEGER); INSERT INTO t VALUES (1), (2)")
            .unwrap();
        db.close();
    }
    // Append a checksummed frame holding tag 3, the Delete op of earlier
    // versions (`DELETE FROM t` of row 0), then one more whole record: an
    // acknowledged commit after it that truncation would lose.
    let log = tmp.0.join(LOG_FILE);
    let mut bytes = std::fs::read(&log).unwrap();
    let frame = |payload: &[u8]| {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&dbgw_cache::fnv1a_64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    };
    let mut delete = 1u32.to_le_bytes().to_vec();
    delete.push(3);
    delete.extend_from_slice(&1u32.to_le_bytes());
    delete.extend_from_slice(b"t");
    delete.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&frame(&delete));
    bytes.extend_from_slice(&frame(&0u32.to_le_bytes()));
    std::fs::write(&log, &bytes).unwrap();
    let config = DurabilityConfig { fsync: true };
    let cache = dbgw_cache::CacheConfig::default();
    let err = Database::open_with_config(&tmp.0, &config, &cache)
        .err()
        .expect("an undecodable whole record must not open");
    assert_eq!(err.code, SqlCode::RESOURCE, "{err:?}");
    assert_eq!(std::fs::read(&log).unwrap(), bytes, "the log was rewritten");
}

/// A data directory written by a version that had the DATE type: a DATE
/// column in a DDL record, or a DATE value (tag 4) in a row image. Either
/// makes the log one this version cannot replay, so it fails to open with
/// −904 and the file is left as it was.
#[test]
fn a_date_column_or_value_in_an_old_log_fails_open_with_904() {
    let _guard = serial();
    let frame = |payload: &[u8]| {
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&dbgw_cache::fnv1a_64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    };
    let put_str = |buf: &mut Vec<u8>, s: &str| {
        buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    };
    // One Ddl op (tag 4) creating a DATE column.
    let mut ddl = 1u32.to_le_bytes().to_vec();
    ddl.push(4);
    put_str(&mut ddl, "CREATE TABLE d (day DATE)");
    // One Insert op (tag 1) of row 1 of `t`, whose one value is a DATE.
    let mut insert = 1u32.to_le_bytes().to_vec();
    insert.push(1);
    put_str(&mut insert, "t");
    insert.extend_from_slice(&1u32.to_le_bytes());
    insert.extend_from_slice(&1u32.to_le_bytes());
    insert.push(4);
    insert.extend_from_slice(&9_131i64.to_le_bytes());
    for (tag, payload) in [("datecol", ddl), ("dateval", insert)] {
        let tmp = temp_dir(tag);
        {
            let db = open(&tmp.0);
            db.run_script("CREATE TABLE t (n INTEGER); INSERT INTO t VALUES (1)")
                .unwrap();
            db.close();
        }
        let log = tmp.0.join(LOG_FILE);
        let mut bytes = std::fs::read(&log).unwrap();
        bytes.extend_from_slice(&frame(&payload));
        std::fs::write(&log, &bytes).unwrap();
        let config = DurabilityConfig { fsync: true };
        let cache = dbgw_cache::CacheConfig::default();
        let err = Database::open_with_config(&tmp.0, &config, &cache)
            .err()
            .unwrap_or_else(|| panic!("{tag}: a log holding a DATE must not open"));
        assert_eq!(err.code, SqlCode::RESOURCE, "{tag}: {err:?}");
        assert_eq!(err.code.0, -904, "{tag}");
        assert_eq!(
            std::fs::read(&log).unwrap(),
            bytes,
            "{tag}: the log was rewritten"
        );
    }
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
    let mut conn = db.connect();
    let prefix = format!("SELECT COUNT(*) FROM t WHERE n < {survivors}");
    let r = conn.execute(&prefix).unwrap();
    assert_eq!(
        r.rows().unwrap().rows,
        [[Value::Int(survivors)]],
        "the survivors are the first {survivors} inserts"
    );
    // Whatever survived is well-formed and writable.
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
        let config = DurabilityConfig { fsync: false };
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
// Checkpoints and threads: the committing thread does the durability work
// ---------------------------------------------------------------------------

#[cfg(unix)]
#[test]
fn checkpoint_runs_on_the_crossing_commit_and_never_storms() {
    use minisql::checkpoint::CHECKPOINT_BYTES;
    use std::os::unix::fs::MetadataExt;
    let _guard = serial();
    let tmp = temp_dir("ckptstorm");
    let config = DurabilityConfig { fsync: false };
    let cache = dbgw_cache::CacheConfig::default();
    let db = Database::open_with_config(&tmp.0, &config, &cache).unwrap();
    db.run_script("CREATE TABLE big (id INTEGER, body TEXT); CREATE TABLE small (n INTEGER)")
        .unwrap();
    let inode = || std::fs::metadata(tmp.0.join(LOG_FILE)).unwrap().ino();
    let mut conn = db.connect();
    let mut insert_big = |id: i64| {
        let body = Value::Text("x".repeat(128 * 1024));
        conn.execute_with_params("INSERT INTO big VALUES (?, ?)", &[Value::Int(id), body])
            .unwrap();
    };
    // Every commit returns with the log below the threshold: the one that
    // crosses it has already replaced `wal.log` by the time it returns.
    let threshold = minisql::wal::MAGIC.len() as u64 + CHECKPOINT_BYTES;
    let original = inode();
    let mut id = 0;
    while inode() == original {
        assert!(db.wal_size() <= threshold, "commit {id} left the log due");
        insert_big(id);
        id += 1;
    }
    // The log is now over 4 MiB with little beyond its base snapshot; only
    // growth past that snapshot makes the next checkpoint due.
    insert_big(id);
    assert!(db.wal_size() > CHECKPOINT_BYTES);
    let (settled, checkpoints) = (inode(), dbgw_obs::metrics().checkpoints.get());
    for n in 0..20 {
        db.run_script(&format!("INSERT INTO small VALUES ({n})"))
            .unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(200));
    assert_eq!(inode(), settled, "a checkpoint ran with nothing to bound");
    assert_eq!(dbgw_obs::metrics().checkpoints.get(), checkpoints);
    let before = (rows_with_ids(&db, "big"), rows_with_ids(&db, "small"));
    db.close();
    let db = open(&tmp.0);
    assert_eq!(
        (rows_with_ids(&db, "big"), rows_with_ids(&db, "small")),
        before
    );
}

#[cfg(target_os = "linux")]
#[test]
fn durable_open_starts_no_threads() {
    // Thread counts are per process, and the harness starts and ends test
    // threads at will: count in a child that runs this test alone.
    const CHILD: &str = "DURABILITY_THREAD_COUNT_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "durable_open_starts_no_threads",
                "--exact",
                "--test-threads=1",
            ])
            .env(CHILD, "1")
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "{stdout}"
        );
        return;
    }
    let threads = || std::fs::read_dir("/proc/self/task").unwrap().count();
    let tmp = temp_dir("threads");
    let before = threads();
    let db = open(&tmp.0);
    db.run_script("CREATE TABLE t (n INTEGER); INSERT INTO t VALUES (1)")
        .unwrap();
    let running = threads();
    db.close();
    assert_eq!((running, threads()), (before, before));
}
