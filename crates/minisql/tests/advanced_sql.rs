//! Integration tests for the richer SQL surface: set operations, EXPLAIN,
//! expression positions, the refusal of the forms minisql does not support
//! (joins, subqueries, scalar functions, window functions, and every
//! statement that would remove a row or a table) and DB2's
//! SQLCODEs for overflow, grouping and the DATE range — everything exercised
//! through the full text → parse → plan → execute path.

use minisql::{Database, ExecResult, SqlCode, Value};

fn db() -> Database {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE customers (custid INTEGER PRIMARY KEY, name VARCHAR(60), region VARCHAR(10));
         CREATE TABLE orders (orderid INTEGER PRIMARY KEY, custid INTEGER, amount DOUBLE);
         CREATE INDEX orders_cust ON orders (custid);
         INSERT INTO customers VALUES
           (1, 'Ada', 'west'), (2, 'Bob', 'east'), (3, 'Cyn', 'west'), (4, 'Dee', 'north');
         INSERT INTO orders VALUES
           (100, 1, 25.0), (101, 1, 75.0), (102, 2, 10.0), (103, 3, 300.0);",
    )
    .unwrap();
    db
}

fn rows(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let mut conn = db.connect();
    match conn.execute(sql).unwrap() {
        ExecResult::Rows(rs) => std::sync::Arc::unwrap_or_clone(rs).rows,
        other => panic!("expected rows, got {other:?}"),
    }
}

fn texts(db: &Database, sql: &str) -> Vec<String> {
    rows(db, sql)
        .into_iter()
        .map(|r| r[0].to_display_string())
        .collect()
}

// ---------------------------------------------------------------------------
// Set operations
// ---------------------------------------------------------------------------

#[test]
fn union_dedups_union_all_does_not() {
    let db = db();
    let distinct = texts(
        &db,
        "SELECT region FROM customers UNION SELECT region FROM customers ORDER BY 1",
    );
    assert_eq!(distinct, vec!["east", "north", "west"]);
    let all = texts(
        &db,
        "SELECT region FROM customers UNION ALL SELECT region FROM customers",
    );
    assert_eq!(all.len(), 8);
}

#[test]
fn except_and_intersect() {
    let db = db();
    assert_eq!(
        texts(
            &db,
            "SELECT custid FROM customers EXCEPT SELECT custid FROM orders ORDER BY 1"
        ),
        vec!["4"]
    );
    assert_eq!(
        texts(
            &db,
            "SELECT custid FROM customers INTERSECT SELECT custid FROM orders ORDER BY 1"
        ),
        vec!["1", "2", "3"]
    );
}

#[test]
fn union_order_by_applies_to_whole() {
    let db = db();
    let got = texts(
        &db,
        "SELECT name FROM customers WHERE region = 'west' \
         UNION SELECT name FROM customers WHERE region = 'east' \
         ORDER BY name DESC LIMIT 2",
    );
    assert_eq!(got, vec!["Cyn", "Bob"]);
}

#[test]
fn union_column_count_mismatch_errors() {
    let db = db();
    let mut conn = db.connect();
    assert!(conn
        .execute("SELECT custid FROM customers UNION SELECT custid, name FROM customers")
        .is_err());
}

#[test]
fn interior_order_by_rejected() {
    let db = db();
    let mut conn = db.connect();
    assert!(conn
        .execute("SELECT name FROM customers ORDER BY 1 UNION SELECT name FROM customers")
        .is_err());
}

/// Two one-column tables for the compound tail: `t` holds 5, 1, 4 and `u`
/// holds 3, 2.
fn compound_db() -> Database {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE t (a INTEGER); CREATE TABLE u (a INTEGER);
         INSERT INTO t VALUES (5), (1), (4);
         INSERT INTO u VALUES (3), (2);",
    )
    .unwrap();
    db
}

#[test]
fn compound_tail_runs_and_explains_once_after_the_branches() {
    let db = compound_db();
    for (sql, want) in [
        (
            "SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY a LIMIT 2",
            vec!["1", "2"],
        ),
        (
            "SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY 1 DESC LIMIT 2 OFFSET 1",
            vec!["4", "3"],
        ),
        (
            "SELECT a AS x FROM t UNION SELECT a FROM u ORDER BY x LIMIT 5 OFFSET 3",
            vec!["4", "5"],
        ),
    ] {
        assert_eq!(texts(&db, sql), want, "{sql}");
    }
    let plan = texts(
        &db,
        "EXPLAIN SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY a LIMIT 2",
    );
    // The branches are indented under the SET OPERATION line; the tail runs
    // once, over the combined rows, and prints at the compound's level.
    let n = plan.len();
    assert_eq!(plan[0], "SET OPERATION (2 branches)", "{plan:?}");
    assert_eq!(plan[n - 2], "TOP-K SORT (1 keys, k=2)", "{plan:?}");
    assert_eq!(plan[n - 1], "LIMIT 2", "{plan:?}");
    assert!(
        plan[1..n - 2].iter().all(|l| l.starts_with("  ")),
        "{plan:?}"
    );
    assert!(
        !plan[1..n - 2]
            .iter()
            .any(|l| l.contains("SORT") || l.contains("LIMIT")),
        "{plan:?}"
    );
    // Without LIMIT the sort is a full sort; EXPLAIN ANALYZE attributes the
    // tail's actuals to it.
    let plan = texts(
        &db,
        "EXPLAIN ANALYZE SELECT a FROM t UNION ALL SELECT a FROM u ORDER BY a DESC",
    );
    let sort = plan.iter().find(|l| l.starts_with("SORT (1 keys)"));
    assert!(
        sort.is_some_and(|l| l.contains("(actual rows=5 in=5")),
        "{plan:?}"
    );
}

#[test]
fn compound_order_by_keys_resolve_as_a_single_selects_do() {
    let db = compound_db();
    let mut conn = db.connect();
    let message =
        |conn: &mut minisql::Connection, sql: &str| conn.execute(sql).unwrap_err().to_string();
    // Out of range: the message a single SELECT gives.
    let single = message(&mut conn, "SELECT a FROM t ORDER BY 3");
    let compound = message(
        &mut conn,
        "SELECT a FROM t UNION SELECT a FROM u ORDER BY 3",
    );
    assert!(
        compound.contains("ORDER BY position 3 is out of range"),
        "{compound}"
    );
    assert_eq!(compound, single);
    // Also over no rows at all.
    let empty = "SELECT a FROM t WHERE a > 9 UNION SELECT a FROM u WHERE a > 9 ORDER BY 3";
    assert_eq!(message(&mut conn, empty), single);
    // A name that labels no output column is unknown.
    let err = conn
        .execute("SELECT a FROM t UNION SELECT a FROM u ORDER BY b")
        .unwrap_err();
    assert_eq!(err.code, SqlCode::UNDEFINED_COLUMN, "{err}");
    // An expression key still has no source row to read.
    let err = message(
        &mut conn,
        "SELECT a FROM t UNION SELECT a FROM u ORDER BY a + 1",
    );
    assert!(
        err.contains("must use output column names or positions"),
        "{err}"
    );
}

// ---------------------------------------------------------------------------
// EXPLAIN
// ---------------------------------------------------------------------------

#[test]
fn explain_shows_index_probe_vs_scan() {
    let db = db();
    let probe = texts(&db, "EXPLAIN SELECT * FROM orders WHERE custid = 1");
    assert!(
        probe[0].contains("INDEX equality PROBE orders_cust"),
        "{probe:?}"
    );
    let scan = texts(&db, "EXPLAIN SELECT * FROM orders WHERE amount > 50");
    assert!(scan[0].contains("FULL SCAN orders (4 rows)"), "{scan:?}");
}

#[test]
fn explain_like_prefix_probe() {
    let db = db();
    db.run_script("CREATE INDEX cust_name ON customers (name)")
        .unwrap();
    let probe = texts(&db, "EXPLAIN SELECT * FROM customers WHERE name LIKE 'A%'");
    assert!(
        probe[0].contains("INDEX prefix PROBE cust_name"),
        "{probe:?}"
    );
    // Leading wildcard: no probe possible.
    let scan = texts(&db, "EXPLAIN SELECT * FROM customers WHERE name LIKE '%a%'");
    assert!(scan[0].contains("FULL SCAN"), "{scan:?}");
}

#[test]
fn explain_describes_operators() {
    let db = db();
    let plan = texts(
        &db,
        "EXPLAIN SELECT custid, COUNT(*) FROM orders \
         WHERE amount > 1 GROUP BY custid HAVING COUNT(*) > 0 ORDER BY 2 LIMIT 3",
    );
    let joined = plan.join("\n");
    assert!(joined.contains("FILTER <where>"), "{joined}");
    assert!(joined.contains("AGGREGATE (group keys: 1)"), "{joined}");
    assert!(joined.contains("FILTER <having>"), "{joined}");
    assert!(joined.contains("TOP-K SORT (1 keys, k=3)"), "{joined}");
    assert!(joined.contains("LIMIT 3"), "{joined}");
}

#[test]
fn explain_does_not_execute_dml() {
    let db = db();
    let plan = texts(&db, "EXPLAIN UPDATE orders SET amount = 0 WHERE amount > 0");
    assert_eq!(plan, ["UPDATE orders SET amount = 0 WHERE (amount > 0)"]);
    let zero = "SELECT COUNT(*) FROM orders WHERE amount = 0";
    assert_eq!(rows(&db, zero), [[Value::Int(0)]]); // nothing updated
}

#[test]
fn explain_set_operation() {
    let db = db();
    let plan = texts(
        &db,
        "EXPLAIN SELECT custid FROM customers UNION SELECT custid FROM orders",
    );
    assert!(plan[0].contains("SET OPERATION (2 branches)"), "{plan:?}");
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE
// ---------------------------------------------------------------------------

#[test]
fn explain_analyze_shows_scan_and_filter_actuals() {
    let db = db();
    let plan = texts(
        &db,
        "EXPLAIN ANALYZE SELECT name FROM customers WHERE name LIKE '___'",
    );
    let joined = plan.join("\n");
    // name LIKE '___' has no index to serve it: the scan reads all 4 rows
    // and the filter keeps all 4 three-letter names.
    let scan = plan.iter().find(|l| l.contains("FULL SCAN")).unwrap();
    assert!(scan.contains("(actual rows=4 in=4 loops=1"), "{joined}");
    assert!(
        joined.contains("FILTER <where> (actual rows=4 in=4 loops=1"),
        "{joined}"
    );
}

#[test]
fn explain_analyze_on_dml_plans_without_executing() {
    let db = db();
    let plan = texts(
        &db,
        "EXPLAIN ANALYZE INSERT INTO orders VALUES (104, 4, 1.0)",
    );
    assert_eq!(plan, ["INSERT INTO orders VALUES (104, 4, 1.0)"]);
    assert_eq!(db.table_len("orders").unwrap(), 4); // nothing inserted
}

#[test]
fn explain_analyze_aggregate_having_and_limit() {
    let db = db();
    let plan = texts(
        &db,
        "EXPLAIN ANALYZE SELECT region, COUNT(*) FROM customers \
         GROUP BY region HAVING COUNT(*) > 1 LIMIT 5",
    );
    let joined = plan.join("\n");
    // 4 customers collapse into 3 regions; only 'west' has more than one.
    assert!(
        joined.contains("AGGREGATE (group keys: 1) (actual rows=3 in=4"),
        "{joined}"
    );
    assert!(
        joined.contains("FILTER <having> (actual rows=1 in=3 loops=3"),
        "{joined}"
    );
    assert!(joined.contains("LIMIT 5 (actual rows=1 in=1"), "{joined}");
}

// ---------------------------------------------------------------------------
// Access paths: the scan EXPLAIN names is the scan that runs
// ---------------------------------------------------------------------------

/// 201 rows of `t (a, b)`, `b` cycling through 50 values `k0`..`k49`; only
/// `b` is indexed.
fn access_db() -> Database {
    let db = Database::new();
    db.run_script("CREATE TABLE t (a INTEGER, b VARCHAR(8)); CREATE INDEX t_b ON t (b)")
        .unwrap();
    let values: Vec<String> = (0..201).map(|i| format!("({i}, 'k{}')", i % 50)).collect();
    db.run_script(&format!("INSERT INTO t VALUES {}", values.join(", ")))
        .unwrap();
    db
}

#[test]
fn null_comparisons_scan_nothing_and_explain_says_so() {
    let db = access_db();
    for pred in ["a = NULL", "a BETWEEN NULL AND 5"] {
        let plan = texts(
            &db,
            &format!("EXPLAIN ANALYZE SELECT * FROM t WHERE {pred}"),
        );
        let joined = plan.join("\n");
        assert!(!joined.contains("FULL SCAN"), "{pred}:\n{joined}");
        assert!(
            plan[0].starts_with("EMPTY SCAN t (a matches no row)")
                && plan[0].contains("(actual rows=0 in=0"),
            "{pred}:\n{joined}"
        );
    }
}

#[test]
fn empty_like_pattern_names_the_index() {
    let plan = texts(&access_db(), "EXPLAIN SELECT * FROM t WHERE b LIKE ''");
    assert!(
        plan[0].starts_with("INDEX equality PROBE t_b (b)"),
        "{plan:?}"
    );
}

#[test]
fn exact_like_pattern_prints_an_equality_probe() {
    let db = access_db();
    let plan = texts(&db, "EXPLAIN SELECT * FROM t WHERE b LIKE 'k1'");
    assert!(
        plan[0].starts_with("INDEX equality PROBE t_b (b)"),
        "{plan:?}"
    );
    assert_eq!(rows(&db, "SELECT a FROM t WHERE b LIKE 'k1'").len(), 4);
}

#[test]
fn folded_constant_gets_the_literal_estimate() {
    let db = access_db();
    let folded = texts(&db, "EXPLAIN SELECT * FROM t WHERE b = 'k' || '1'");
    let literal = texts(&db, "EXPLAIN SELECT * FROM t WHERE b = 'k1'");
    assert_eq!(folded[0], literal[0]);
    assert!(literal[0].contains("(est rows=4)"), "{literal:?}");
}

#[test]
fn having_only_aggregate_explains_its_aggregate() {
    let plan = texts(&access_db(), "EXPLAIN SELECT 1 FROM t HAVING COUNT(*) > 0");
    assert!(
        plan.iter()
            .any(|l| l.starts_with("AGGREGATE (group keys: 0)")),
        "{plan:?}"
    );
}

#[test]
fn primary_key_update_probes_the_index() {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE orders (orderid INTEGER PRIMARY KEY, custid INTEGER, quantity INTEGER)",
    )
    .unwrap();
    for chunk in 0..20 {
        let values: Vec<String> = (chunk * 1000..(chunk + 1) * 1000)
            .map(|i| format!("({i}, {}, 1)", i % 97))
            .collect();
        db.run_script(&format!("INSERT INTO orders VALUES {}", values.join(", ")))
            .unwrap();
    }
    // An UPDATE finds its rows by the scan `SELECT * … WHERE` plans.
    let update = "UPDATE orders SET quantity = 5 WHERE orderid = 7";
    let plan = texts(&db, "EXPLAIN SELECT * FROM orders WHERE orderid = 7");
    assert!(
        plan[0].starts_with("INDEX equality PROBE orders_orderid_unique (orderid)"),
        "{plan:?}"
    );
    minisql::plan::reset_thread_stats();
    let mut conn = db.connect();
    assert_eq!(conn.execute(update).unwrap(), ExecResult::Count(1));
    assert_eq!(minisql::plan::thread_stats().rows_scanned, 1);
    assert_eq!(
        rows(&db, "SELECT quantity FROM orders WHERE orderid = 7"),
        vec![vec![Value::Int(5)]]
    );
}

// ---------------------------------------------------------------------------
// Expression positions: aggregates wherever an expression can stand
// ---------------------------------------------------------------------------

#[test]
fn distinct_grouped_order_by_reads_each_rows_own_aggregates() {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE t (g INTEGER, g2 INTEGER, x INTEGER);
         INSERT INTO t VALUES (1, 7, 5), (2, 7, 5), (3, 8, 1), (4, 9, 100);",
    )
    .unwrap();
    // DISTINCT folds the two (7, 5) groups into one row; the sort key of
    // every later row must still come from that row's own group.
    let ints = |pairs: &[(i64, i64)]| -> Vec<Vec<Value>> {
        (pairs.iter())
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect()
    };
    assert_eq!(
        rows(
            &db,
            "SELECT DISTINCT g2, SUM(x) FROM t GROUP BY g, g2 ORDER BY SUM(x) + 0"
        ),
        ints(&[(8, 1), (7, 5), (9, 100)])
    );
    assert_eq!(
        rows(
            &db,
            "SELECT DISTINCT g2, SUM(x) FROM t GROUP BY g, g2 ORDER BY SUM(x) + 0 DESC"
        ),
        ints(&[(9, 100), (7, 5), (8, 1)])
    );
}

#[test]
fn aggregate_or_window_in_where_is_rejected() {
    let db = db();
    let mut conn = db.connect();
    for sql in [
        "SELECT name FROM customers WHERE COUNT(*) > 1",
        "SELECT name FROM customers WHERE ROW_NUMBER() OVER (ORDER BY name) = 1",
    ] {
        let err = conn.execute(sql).unwrap_err();
        assert_eq!(err.code, SqlCode::SYNTAX, "{sql}: {err:?}");
    }
}

#[test]
fn window_functions_are_refused_at_parse_time() {
    let db = db();
    let mut conn = db.connect();
    for sql in [
        "SELECT orderid, ROW_NUMBER() OVER (ORDER BY orderid) FROM orders",
        "SELECT custid, SUM(amount) OVER (PARTITION BY custid) FROM orders",
        "SELECT RANK() OVER () FROM orders",
    ] {
        for err in [
            minisql::parse(sql).unwrap_err(),
            conn.execute(sql).unwrap_err(),
        ] {
            assert_eq!(err.code, SqlCode::SYNTAX, "{sql}: {err:?}");
            assert_eq!(err.message, "window functions are not supported", "{sql}");
        }
    }
}

#[test]
fn subqueries_outer_joins_and_scalar_functions_are_refused() {
    let db = db();
    db.run_script("CREATE TABLE e (k INTEGER)").unwrap();
    let mut conn = db.connect();
    let subquery = "subqueries are not supported";
    let outer = "outer joins are not supported";
    let joins = "joins are not supported";
    for (sql, message) in [
        (
            "SELECT c.name FROM customers c JOIN orders o ON c.custid = o.custid",
            joins,
        ),
        (
            "SELECT name FROM customers INNER JOIN orders ON customers.custid = orders.custid",
            joins,
        ),
        ("SELECT name FROM customers CROSS JOIN orders", joins),
        ("SELECT name FROM customers, orders", joins),
        ("EXPLAIN SELECT name FROM e, orders", joins),
        ("SELECT (SELECT MAX(amount) FROM orders)", subquery),
        (
            "SELECT name FROM customers WHERE custid IN (SELECT custid FROM orders)",
            subquery,
        ),
        (
            "SELECT name FROM customers WHERE NOT EXISTS (SELECT 1 FROM orders)",
            subquery,
        ),
        (
            "UPDATE orders SET amount = 0 WHERE custid IN (SELECT custid FROM customers)",
            subquery,
        ),
        (
            "SELECT c.name FROM customers c LEFT JOIN orders o ON c.custid = o.custid",
            outer,
        ),
        (
            "SELECT c.name FROM customers c LEFT OUTER JOIN orders o ON c.custid = o.custid",
            outer,
        ),
        (
            "SELECT UPPER(name) FROM customers",
            "scalar function UPPER is not supported",
        ),
        // Names resolve at parse time, so an empty table hides nothing.
        (
            "SELECT NOSUCHFN(k) FROM e",
            "scalar function NOSUCHFN is not supported",
        ),
        (
            "SELECT UPPER(1, 2) FROM e",
            "scalar function UPPER is not supported",
        ),
    ] {
        for err in [
            minisql::parse(sql).unwrap_err(),
            conn.execute(sql).unwrap_err(),
        ] {
            assert_eq!(err.code, SqlCode::SYNTAX, "{sql}: {err:?}");
            assert_eq!(err.message, message, "{sql}");
        }
    }
    // Nothing ran: the refused UPDATE left every amount as it was.
    assert_eq!(
        rows(&db, "SELECT COUNT(*) FROM orders WHERE amount = 0"),
        [[Value::Int(0)]]
    );
}

#[test]
fn statements_that_remove_rows_or_tables_are_refused() {
    let populated = db();
    let empty = Database::new();
    for (sql, message) in [
        ("DELETE FROM orders", "DELETE is not supported"),
        (
            "DELETE FROM orders WHERE amount > 0",
            "DELETE is not supported",
        ),
        ("DROP TABLE orders", "DROP TABLE is not supported"),
        ("DROP TABLE IF EXISTS orders", "DROP TABLE is not supported"),
        (
            "INSERT INTO orders SELECT * FROM orders",
            "INSERT ... SELECT is not supported",
        ),
        (
            "INSERT INTO orders (orderid, custid) SELECT orderid + 10, custid FROM orders",
            "INSERT ... SELECT is not supported",
        ),
        ("EXPLAIN DELETE FROM orders", "DELETE is not supported"),
    ] {
        // Refused at parse time: a database without the table answers alike.
        let mut errs = vec![minisql::parse(sql).unwrap_err()];
        for db in [&populated, &empty] {
            errs.push(db.connect().execute(sql).unwrap_err());
            errs.push(db.run_script(sql).unwrap_err());
        }
        for err in errs {
            assert_eq!(err.code, SqlCode::SYNTAX, "{sql}: {err:?}");
            assert_eq!(err.message, message, "{sql}");
        }
    }
    assert_eq!(populated.table_len("orders").unwrap(), 4);
    assert!(empty.pin().tables.is_empty());
}

// ---------------------------------------------------------------------------
// DB2's SQLCODEs for integer overflow (-802), ungrouped columns (-122) and
// dates outside 0001-01-01..9999-12-31 (-183)
// ---------------------------------------------------------------------------

#[test]
fn integer_overflow_raises_802_and_changes_nothing() {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, balance INTEGER);
         INSERT INTO acct VALUES (1, 100), (2, 100);",
    )
    .unwrap();
    let mut conn = db.connect();
    let overflows = |conn: &mut minisql::Connection, sql: &str| {
        let err = conn.execute(sql).unwrap_err();
        assert_eq!(err.code, SqlCode::ARITHMETIC, "{sql}: {err:?}");
        assert_eq!(err.message, "arithmetic overflow", "{sql}");
    };
    // transfer.d2w's credit shape with an amount near i64::MAX.
    overflows(
        &mut conn,
        "UPDATE acct SET balance = balance + 9223372036854775807 WHERE id = 2",
    );
    assert_eq!(
        rows(&db, "SELECT balance FROM acct ORDER BY id"),
        [[Value::Int(100)], [Value::Int(100)]]
    );
    // SUM of integers that leaves i64; AVG of the same rows is a DOUBLE.
    conn.execute("INSERT INTO acct VALUES (3, 9223372036854775807)")
        .unwrap();
    overflows(&mut conn, "SELECT SUM(balance) FROM acct");
    assert_eq!(
        rows(&db, "SELECT AVG(balance) FROM acct"),
        [[Value::Double((9223372036854775807.0 + 200.0) / 3.0)]]
    );
    for sql in [
        "SELECT -(-9223372036854775807 - 1)",
        "SELECT DATE '2020-01-01' + 9223372036854775807",
        "SELECT 9223372036854775807 * 2",
        "SELECT (-9223372036854775807 - 1) / -1",
        "SELECT DATE '2020-01-01' - (-9223372036854775807 - 1)",
    ] {
        overflows(&mut conn, sql);
    }
    // The edges themselves are in range.
    assert_eq!(
        rows(
            &db,
            "SELECT -9223372036854775807 - 1, -(-9223372036854775807)"
        ),
        [[Value::Int(i64::MIN), Value::Int(i64::MAX)]]
    );
}

#[test]
fn ungrouped_column_raises_122() {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE t (k INTEGER, v INTEGER);
         INSERT INTO t VALUES (1, 10), (1, 20), (2, 30), (3, 40);",
    )
    .unwrap();
    let mut conn = db.connect();
    for sql in [
        "SELECT k, COUNT(*) FROM t",
        "SELECT k, v FROM t GROUP BY k",
        "SELECT k + v, COUNT(*) FROM t GROUP BY k",
        "SELECT * FROM t GROUP BY k",
        "SELECT k FROM t GROUP BY k HAVING v > 1",
        "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY v",
        "SELECT k + 1 FROM t GROUP BY k + 2",
    ] {
        let err = conn.execute(sql).unwrap_err();
        assert_eq!(err.code, SqlCode::GROUPING, "{sql}: {err:?}");
    }
    let ints = |r: &[&[i64]]| -> Vec<Vec<Value>> {
        (r.iter())
            .map(|row| row.iter().map(|&i| Value::Int(i)).collect())
            .collect()
    };
    // Keys match by bound slot, expressions by equality; aggregates, output
    // names and positions read no ungrouped column.
    for (sql, want) in [
        (
            "SELECT t.k, COUNT(*) AS n FROM t GROUP BY k ORDER BY n DESC, 1",
            ints(&[&[1, 2], &[2, 1], &[3, 1]]),
        ),
        (
            "SELECT k + 1, SUM(v) FROM t GROUP BY k + 1 HAVING SUM(v) >= 30 ORDER BY 1",
            ints(&[&[2, 30], &[3, 30], &[4, 40]]),
        ),
        (
            "SELECT * FROM t GROUP BY k, v HAVING k = 1 ORDER BY v",
            ints(&[&[1, 10], &[1, 20]]),
        ),
        ("SELECT MAX(v) - MIN(v) FROM t", ints(&[&[30]])),
    ] {
        assert_eq!(rows(&db, sql), want, "{sql}");
    }
}

// ---------------------------------------------------------------------------
// Prepared LIKE patterns are derived data
// ---------------------------------------------------------------------------

/// A literal LIKE pattern is prepared when its expression binds. HAVING and
/// ORDER BY find their aggregate by comparing expressions, so the prepared
/// copy must compare equal to the unprepared one; EXPLAIN, labels and
/// results read as before.
#[test]
fn prepared_like_patterns_are_invisible() {
    let db = db();
    let text = |v: &str| Value::Text(v.into());
    assert_eq!(
        rows(
            &db,
            "SELECT region, SUM(CASE WHEN name LIKE '%d%' OR name LIKE 'B%' THEN 1 ELSE 0 END) \
             FROM customers GROUP BY region \
             HAVING SUM(CASE WHEN name LIKE '%d%' OR name LIKE 'B%' THEN 1 ELSE 0 END) > 0 \
             ORDER BY region"
        ),
        vec![
            vec![text("east"), Value::Int(1)],
            vec![text("west"), Value::Int(1)],
        ]
    );
    assert_eq!(
        rows(
            &db,
            "SELECT region, SUM(CASE WHEN name LIKE '_y%' OR name LIKE 'A%' THEN 1 ELSE 0 END) \
             FROM customers GROUP BY region \
             ORDER BY SUM(CASE WHEN name LIKE '_y%' OR name LIKE 'A%' THEN 1 ELSE 0 END) DESC, \
             region"
        ),
        vec![
            vec![text("west"), Value::Int(2)],
            vec![text("east"), Value::Int(0)],
            vec![text("north"), Value::Int(0)],
        ]
    );
    let mut conn = db.connect();
    let r = conn
        .execute(
            "SELECT name LIKE 'A%', name NOT LIKE '%b' ESCAPE '!' FROM customers ORDER BY name",
        )
        .unwrap();
    let rs = r.rows().unwrap();
    assert_eq!(rs.columns, ["1", "2"]);
    let hits: Vec<Vec<Value>> = [(1, 1), (0, 0), (0, 1), (0, 1)]
        .iter()
        .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
        .collect();
    assert_eq!(rs.rows, hits);

    db.run_script("CREATE INDEX cust_name ON customers (name)")
        .unwrap();
    assert_eq!(
        texts(
            &db,
            "EXPLAIN SELECT name FROM customers \
             WHERE name LIKE 'A!%%' ESCAPE '!' AND region LIKE '%st' ORDER BY name"
        ),
        [
            "INDEX prefix PROBE cust_name (name LIKE 'A%%…') (est rows=1)",
            "FILTER <where>",
            "SORT (1 keys)",
        ]
    );
    assert_eq!(
        texts(
            &db,
            "EXPLAIN SELECT name FROM customers WHERE name LIKE 'B!_b' ESCAPE '!'"
        ),
        [
            "INDEX equality PROBE cust_name (name) (est rows=1)",
            "FILTER <where>",
        ]
    );
}

#[test]
fn date_arithmetic_outside_0001_to_9999_raises_183() {
    let db = Database::new();
    let mut conn = db.connect();
    for sql in [
        "SELECT CAST(DATE '2000-01-01' + 3000000 AS VARCHAR(30))",
        "SELECT CAST(DATE '2000-01-01' + 9223372036854000000 AS VARCHAR(30))",
        "SELECT CAST(DATE '9999-12-31' + 1 AS VARCHAR(30))",
        "SELECT CAST(DATE '0001-01-01' - 1 AS VARCHAR(30))",
        "SELECT CAST(1 + DATE '9999-12-31' AS VARCHAR(30))",
    ] {
        let err = conn.execute(sql).unwrap_err();
        assert_eq!(err.code, SqlCode::DATETIME_RANGE, "{sql}: {err:?}");
    }
    // Text outside the range is no date: a literal, a CAST and a DATE
    // column refuse it as they refuse any bad date.
    for sql in [
        "SELECT DATE '0000-01-01'",
        "SELECT DATE '10000-01-01'",
        "SELECT CAST('0000-12-31' AS DATE)",
    ] {
        assert!(conn.execute(sql).is_err(), "{sql}");
    }
    conn.execute("CREATE TABLE d (day DATE)").unwrap();
    assert!(conn
        .execute("INSERT INTO d VALUES ('10000-01-01')")
        .is_err());
    // The edges themselves are in range, and date - date is unchanged.
    let text = |v: &str| Value::Text(v.into());
    assert_eq!(
        rows(
            &db,
            "SELECT CAST(DATE '9999-12-31' - 1 AS VARCHAR(30)), \
             CAST(DATE '0001-01-02' - 1 AS VARCHAR(30)), \
             DATE '9999-12-31' - DATE '0001-01-01'"
        ),
        [[
            text("9999-12-30"),
            text("0001-01-01"),
            Value::Int(3_652_058)
        ]]
    );
}
