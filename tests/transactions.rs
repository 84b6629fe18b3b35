//! §5 transaction modes, exercised through the whole stack: a guestbook
//! macro whose report mode runs several INSERT statements.

use dbgw_cgi::{CgiRequest, Gateway};
use dbgw_core::{EngineConfig, TxnMode};

/// A write-heavy macro: sign the guestbook (two inserts — an entry and an
/// audit row), then show the book. The second insert fails when NAME is
/// missing (NOT NULL), which distinguishes the two modes.
const GUESTBOOK_MACRO: &str = r#"%DEFINE nm = NAME ? "'$(NAME)'" : "NULL"
%SQL{ INSERT INTO audit (note) VALUES ('signing: $(MESSAGE)') %}
%SQL{ INSERT INTO guest (name, message) VALUES ($(nm), '$(MESSAGE)') %}
%SQL(list){ SELECT name, message FROM guest ORDER BY name
%SQL_REPORT{<UL>
%ROW{<LI><B>$(V1)</B>: $(V2)
%}</UL>
%}
%}
%HTML_INPUT{<FORM METHOD="post" ACTION="/cgi-bin/db2www/guestbook.d2w/report">
<INPUT NAME="NAME"> <INPUT NAME="MESSAGE">
<INPUT TYPE="submit" VALUE="Sign">
</FORM>%}
%HTML_REPORT{<H1>Guestbook</H1>
%EXEC_SQL
%EXEC_SQL(list)
%}"#;

fn database() -> minisql::Database {
    let db = minisql::Database::new();
    db.run_script(
        "CREATE TABLE guest (name VARCHAR(40) NOT NULL, message VARCHAR(200));
         CREATE TABLE audit (note VARCHAR(250));",
    )
    .unwrap();
    db
}

fn gateway(db: &minisql::Database, mode: TxnMode) -> Gateway {
    let gw = Gateway::with_config(
        db.clone(),
        EngineConfig {
            txn_mode: mode,
            ..EngineConfig::default()
        },
    );
    gw.add_macro("guestbook.d2w", GUESTBOOK_MACRO).unwrap();
    gw
}

#[test]
fn successful_signing_works_in_both_modes() {
    for mode in [TxnMode::AutoCommit, TxnMode::SingleTransaction] {
        let db = database();
        let gw = gateway(&db, mode);
        let resp = gw.handle(&CgiRequest::post(
            "/guestbook.d2w/report",
            "NAME=Ada&MESSAGE=hello",
        ));
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("<LI><B>Ada</B>: hello"), "{}", resp.body);
        assert_eq!(db.table_len("guest").unwrap(), 1);
        assert_eq!(db.table_len("audit").unwrap(), 1);
    }
}

#[test]
fn autocommit_keeps_the_audit_row_when_insert_fails() {
    // "one mode in which every SQL statement in a macro is a separate
    // transaction (auto-commit)": the audit insert survives the guest
    // insert's NOT NULL failure.
    let db = database();
    let gw = gateway(&db, TxnMode::AutoCommit);
    let resp = gw.handle(&CgiRequest::post(
        "/guestbook.d2w/report",
        "MESSAGE=anonymous", // no NAME
    ));
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("SQL error"));
    assert_eq!(db.table_len("audit").unwrap(), 1); // committed
    assert_eq!(db.table_len("guest").unwrap(), 0);
}

#[test]
fn single_transaction_rolls_everything_back() {
    // "another mode in which all SQL statements in a macro are executed as a
    // single transaction (i.e., a rollback will occur if any SQL statement
    // fails)".
    let db = database();
    let gw = gateway(&db, TxnMode::SingleTransaction);
    let resp = gw.handle(&CgiRequest::post(
        "/guestbook.d2w/report",
        "MESSAGE=anonymous",
    ));
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("SQL error"));
    assert_eq!(db.table_len("audit").unwrap(), 0); // rolled back with it
    assert_eq!(db.table_len("guest").unwrap(), 0);
}

#[test]
fn single_transaction_commits_atomically_across_statements() {
    let db = database();
    let gw = gateway(&db, TxnMode::SingleTransaction);
    for i in 0..5 {
        let resp = gw.handle(&CgiRequest::post(
            "/guestbook.d2w/report",
            &format!("NAME=user{i}&MESSAGE=m{i}"),
        ));
        assert_eq!(resp.status, 200);
    }
    assert_eq!(db.table_len("guest").unwrap(), 5);
    assert_eq!(db.table_len("audit").unwrap(), 5);
}

#[test]
fn quote_in_message_is_a_contained_failure() {
    // The macro splices $(MESSAGE) textually (as the original did); a quote
    // breaks that statement. In single-transaction mode nothing persists.
    let db = database();
    let gw = gateway(&db, TxnMode::SingleTransaction);
    let resp = gw.handle(&CgiRequest::post(
        "/guestbook.d2w/report",
        "NAME=Eve&MESSAGE=it%27s%20broken",
    ));
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("SQL error"));
    assert_eq!(db.table_len("guest").unwrap(), 0);
    assert_eq!(db.table_len("audit").unwrap(), 0);
}

// ---------------------------------------------------------------------------
// Isolation and atomicity of an explicit transaction, on minisql connections
// ---------------------------------------------------------------------------

fn count(conn: &mut minisql::Connection, table: &str) -> i64 {
    let r = conn
        .execute(&format!("SELECT COUNT(*) FROM {table}"))
        .unwrap();
    match r.rows().unwrap().rows[0][0] {
        minisql::Value::Int(n) => n,
        ref v => panic!("unexpected COUNT type: {v:?}"),
    }
}

fn ledger() -> minisql::Database {
    let db = minisql::Database::new();
    db.run_script(
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, n INTEGER NOT NULL);
         INSERT INTO acct VALUES (1, 0), (2, 0);",
    )
    .unwrap();
    db
}

fn balances(db: &minisql::Database) -> Vec<Vec<minisql::Value>> {
    let mut conn = db.connect();
    let r = conn.execute("SELECT id, n FROM acct ORDER BY id").unwrap();
    r.rows().unwrap().rows.clone()
}

fn ints(pairs: &[(i64, i64)]) -> Vec<Vec<minisql::Value>> {
    use minisql::Value::Int;
    pairs.iter().map(|&(a, b)| vec![Int(a), Int(b)]).collect()
}

#[test]
fn uncommitted_writes_are_invisible_to_other_connections() {
    let db = database();
    let (mut a, mut b) = (db.connect(), db.connect());
    assert_eq!(count(&mut b, "guest"), 0);
    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO guest VALUES ('Ada', 'hello')")
        .unwrap();
    assert_eq!(
        count(&mut a, "guest"),
        1,
        "a transaction reads its own writes"
    );
    assert_eq!(count(&mut b, "guest"), 0, "B read A's uncommitted insert");
    a.execute("COMMIT").unwrap();
    assert_eq!(count(&mut b, "guest"), 1, "B misses A's committed insert");
}

#[test]
fn rollback_never_overwrites_a_concurrent_commit() {
    let db = ledger();
    let (mut a, mut b) = (db.connect(), db.connect());
    a.execute("BEGIN").unwrap();
    a.execute("UPDATE acct SET n = n + 1 WHERE id = 1").unwrap();
    b.execute("UPDATE acct SET n = n + 10 WHERE id = 1")
        .unwrap();
    a.execute("ROLLBACK").unwrap();
    assert_eq!(
        balances(&db),
        ints(&[(1, 10), (2, 0)]),
        "B's commit was lost"
    );
}

#[test]
fn commit_conflict_is_first_committer_wins() {
    let db = ledger();
    let (mut a, mut b) = (db.connect(), db.connect());
    a.execute("BEGIN").unwrap();
    a.execute("UPDATE acct SET n = n + 1 WHERE id = 1").unwrap();
    // B writes another row of the same table: conflicts are per table.
    b.execute("UPDATE acct SET n = n + 10 WHERE id = 2")
        .unwrap();
    let err = a.execute("COMMIT").unwrap_err();
    assert_eq!(err.code, minisql::SqlCode::ROLLED_BACK, "{err}");
    assert!(!a.in_transaction(), "a failed COMMIT ends the transaction");
    assert_eq!(balances(&db), ints(&[(1, 0), (2, 10)]));
}

#[test]
fn rollback_publishes_and_logs_nothing() {
    let dir = std::env::temp_dir().join(format!("dbgw-txn-rollback-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let db = minisql::Database::open(&dir).unwrap();
        db.run_script("CREATE TABLE t (n INTEGER); INSERT INTO t VALUES (1)")
            .unwrap();
        let (epoch, wal) = (db.snapshot_epoch(), db.wal_size());
        let mut conn = db.connect();
        conn.execute("BEGIN").unwrap();
        conn.execute("INSERT INTO t VALUES (2)").unwrap();
        conn.execute("UPDATE t SET n = n + 1").unwrap();
        conn.execute("ROLLBACK").unwrap();
        assert_eq!(db.snapshot_epoch(), epoch, "ROLLBACK published a snapshot");
        assert_eq!(db.wal_size(), wal, "ROLLBACK wrote to the log");
        assert_eq!(count(&mut conn, "t"), 1);
        db.close();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
