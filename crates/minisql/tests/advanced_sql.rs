//! Integration tests for EXPLAIN, access paths, aggregates, the refusal of
//! the forms minisql does not support (joins, subqueries, scalar and window
//! functions, every statement that would remove a row or a table, and the
//! grouping, set operations, aliases and operators the system never sends)
//! and DB2's SQLCODEs for overflow and ungrouped columns — everything
//! exercised through the full text → parse → plan → execute path.

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
// Set operations: refused at parse time
// ---------------------------------------------------------------------------

#[test]
fn except_and_intersect() {
    let db = db();
    let mut conn = db.connect();
    for (sql, message) in [
        (
            "SELECT custid FROM customers EXCEPT SELECT custid FROM orders ORDER BY 1",
            "EXCEPT is not supported",
        ),
        (
            "SELECT custid FROM customers INTERSECT SELECT custid FROM orders ORDER BY 1",
            "INTERSECT is not supported",
        ),
    ] {
        let err = conn.execute(sql).unwrap_err();
        assert_eq!((err.code, err.message.as_str()), (SqlCode::SYNTAX, message));
    }
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
        "EXPLAIN SELECT COUNT(*), SUM(amount) FROM orders WHERE amount > 1 ORDER BY 2 LIMIT 3",
    );
    assert_eq!(
        plan,
        [
            "FULL SCAN orders (4 rows)",
            "FILTER <where>",
            "AGGREGATE",
            "TOP-K SORT (1 keys, k=3)",
            "LIMIT 3",
        ]
    );
    let plan = texts(
        &db,
        "EXPLAIN SELECT custid FROM orders ORDER BY 1 LIMIT 2 OFFSET 1",
    );
    assert_eq!(
        plan,
        [
            "FULL SCAN orders (4 rows)",
            "TOP-K SORT (1 keys, k=3)",
            "LIMIT 2 OFFSET 1"
        ]
    );
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
    let err = db
        .connect()
        .execute("EXPLAIN SELECT custid FROM customers UNION SELECT custid FROM orders")
        .unwrap_err();
    assert_eq!(err.code, SqlCode::SYNTAX, "{err:?}");
    assert_eq!(err.message, "UNION is not supported");
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
        "EXPLAIN ANALYZE SELECT COUNT(*) FROM customers WHERE region = 'west' LIMIT 5",
    );
    let joined = plan.join("\n");
    // Two of the 4 customers are in 'west'; the fold leaves one row.
    assert!(
        joined.contains("FULL SCAN customers (4 rows) (actual rows=2 in=4"),
        "{joined}"
    );
    assert!(
        joined.contains("AGGREGATE (actual rows=1 in=2 loops=1"),
        "{joined}"
    );
    assert!(joined.contains("LIMIT 5 (actual rows=1 in=1"), "{joined}");
    // HAVING is refused, EXPLAIN ANALYZE of it too.
    let err = db
        .connect()
        .execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM customers HAVING COUNT(*) > 1")
        .unwrap_err();
    assert_eq!(err.code, SqlCode::SYNTAX, "{err:?}");
    assert_eq!(err.message, "HAVING is not supported");
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
    for pred in ["a = NULL", "a >= NULL", "a IN (NULL)"] {
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

/// A constant operand is folded before the access path is chosen, so it
/// plans as its literal does.
#[test]
fn folded_constant_gets_the_literal_estimate() {
    let db = access_db();
    let folded = texts(
        &db,
        "EXPLAIN SELECT * FROM t WHERE b = CASE WHEN 1 = 1 THEN 'k1' ELSE 'k2' END",
    );
    let literal = texts(&db, "EXPLAIN SELECT * FROM t WHERE b = 'k1'");
    assert_eq!(folded[0], literal[0]);
    assert_eq!(literal[0], "INDEX equality PROBE t_b (b)", "{literal:?}");
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
    // SUM of integers that leaves i64; with a DOUBLE among them it is one.
    conn.execute("INSERT INTO acct VALUES (3, 9223372036854775807)")
        .unwrap();
    overflows(&mut conn, "SELECT SUM(balance) FROM acct");
    assert_eq!(
        rows(&db, "SELECT SUM(balance + 0.5) FROM acct"),
        [[Value::Double(9223372036854775807.0 + 201.5)]]
    );
    for sql in [
        "SELECT -9223372036854775807 - 2",
        "SELECT 9223372036854775807 + 1",
        "SELECT 1 - (-9223372036854775807 - 1)",
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
    // An aggregate folds the rows into one: a column read outside an
    // aggregate, in the SELECT list or in ORDER BY, would read any of them.
    for sql in [
        "SELECT k, COUNT(*) FROM t",
        "SELECT k + v, COUNT(*) FROM t",
        "SELECT *, COUNT(*) FROM t",
        "SELECT COUNT(*) FROM t ORDER BY v",
        "SELECT k FROM t ORDER BY SUM(v)",
        "SELECT SUM(v) + k FROM t WHERE k = 1",
    ] {
        let err = conn.execute(sql).unwrap_err();
        assert_eq!(err.code, SqlCode::GROUPING, "{sql}: {err:?}");
        assert_eq!(err.code.0, -122, "{sql}");
    }
    let ints = |r: &[&[i64]]| -> Vec<Vec<Value>> {
        (r.iter())
            .map(|row| row.iter().map(|&i| Value::Int(i)).collect())
            .collect()
    };
    // Aggregates, output names and positions read no column outside one.
    for (sql, want) in [
        (
            "SELECT COUNT(*), SUM(v) FROM t WHERE t.k = 1 ORDER BY 2 DESC, COUNT(*)",
            ints(&[&[2, 30]]),
        ),
        ("SELECT SUM(v) - COUNT(*) FROM t", ints(&[&[96]])),
        (
            "SELECT SUM(k) FROM t WHERE v > 100",
            vec![vec![Value::Null]],
        ),
        ("SELECT COUNT(*) FROM t WHERE v > 100", ints(&[&[0]])),
    ] {
        assert_eq!(rows(&db, sql), want, "{sql}");
    }
}

// ---------------------------------------------------------------------------
// Prepared LIKE patterns are derived data
// ---------------------------------------------------------------------------

/// A literal LIKE pattern is prepared when its expression binds. ORDER BY
/// finds its aggregate by comparing expressions, so the prepared copy must
/// compare equal to the unprepared one; EXPLAIN, labels and results read as
/// before.
#[test]
fn prepared_like_patterns_are_invisible() {
    let db = db();
    assert_eq!(
        rows(
            &db,
            "SELECT SUM(CASE WHEN name LIKE '%d%' OR name LIKE 'B%' THEN 1 ELSE 0 END) \
             FROM customers WHERE region = 'west' \
             ORDER BY SUM(CASE WHEN name LIKE '%d%' OR name LIKE 'B%' THEN 1 ELSE 0 END) DESC"
        ),
        vec![vec![Value::Int(1)]]
    );
    assert_eq!(
        rows(
            &db,
            "SELECT SUM(CASE WHEN name LIKE '_y%' OR name LIKE 'A%' THEN 1 ELSE 0 END) \
             FROM customers \
             ORDER BY SUM(CASE WHEN name LIKE '_y%' OR name LIKE 'A%' THEN 1 ELSE 0 END)"
        ),
        vec![vec![Value::Int(2)]]
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
            "INDEX prefix PROBE cust_name (name LIKE 'A%%…')",
            "FILTER <where>",
            "SORT (1 keys)",
        ]
    );
    assert_eq!(
        texts(
            &db,
            "EXPLAIN SELECT name FROM customers WHERE name LIKE 'B!_b' ESCAPE '!'"
        ),
        ["INDEX equality PROBE cust_name (name)", "FILTER <where>",]
    );
}

/// Every form the system never sends, each refused at parse time with −104
/// and a message naming it: the same answer over a database holding the
/// tables and over an empty one, and nothing runs.
#[test]
fn deleted_forms_are_refused_on_empty_and_loaded_databases() {
    let loaded = db();
    let empty = Database::new();
    let cases: &[(&str, &str)] = &[
        (
            "SELECT region, COUNT(*) FROM customers GROUP BY region",
            "GROUP BY is not supported",
        ),
        (
            "SELECT COUNT(*) FROM customers HAVING COUNT(*) > 1",
            "HAVING is not supported",
        ),
        (
            "SELECT DISTINCT region FROM customers",
            "DISTINCT is not supported",
        ),
        (
            "SELECT COUNT(name) FROM customers",
            "COUNT(expression) is not supported",
        ),
        (
            "SELECT COUNT(DISTINCT region) FROM customers",
            "COUNT(DISTINCT …) is not supported",
        ),
        (
            "SELECT AVG(amount) FROM orders",
            "aggregate function AVG is not supported",
        ),
        (
            "SELECT MIN(amount) FROM orders",
            "aggregate function MIN is not supported",
        ),
        (
            "SELECT MAX(amount) FROM orders",
            "aggregate function MAX is not supported",
        ),
        (
            "SELECT custid FROM customers UNION SELECT custid FROM orders",
            "UNION is not supported",
        ),
        (
            "SELECT custid FROM customers UNION ALL SELECT custid FROM orders",
            "UNION ALL is not supported",
        ),
        (
            "SELECT custid FROM customers EXCEPT SELECT custid FROM orders",
            "EXCEPT is not supported",
        ),
        (
            "SELECT custid FROM customers EXCEPT ALL SELECT custid FROM orders",
            "EXCEPT ALL is not supported",
        ),
        (
            "SELECT custid FROM customers INTERSECT SELECT custid FROM orders",
            "INTERSECT is not supported",
        ),
        (
            "SELECT custid FROM customers INTERSECT ALL SELECT custid FROM orders ORDER BY 1",
            "INTERSECT ALL is not supported",
        ),
        (
            "SELECT customers.* FROM customers",
            "table.* is not supported",
        ),
        (
            "SELECT name AS n FROM customers",
            "column aliases are not supported",
        ),
        (
            "SELECT name n FROM customers ORDER BY n",
            "column aliases are not supported",
        ),
        (
            "SELECT c.name FROM customers c",
            "table aliases are not supported",
        ),
        (
            "SELECT name FROM customers AS c WHERE custid = 1",
            "table aliases are not supported",
        ),
        (
            "SELECT name FROM customers WHERE custid BETWEEN 1 AND 2",
            "BETWEEN is not supported",
        ),
        (
            "SELECT name FROM customers WHERE custid NOT BETWEEN 1 AND 2",
            "BETWEEN is not supported",
        ),
        (
            "SELECT CAST(custid AS VARCHAR(10)) FROM customers",
            "CAST is not supported",
        ),
        (
            "SELECT amount * 2 FROM orders",
            "operator * is not supported",
        ),
        (
            "SELECT amount / 2 FROM orders",
            "operator / is not supported",
        ),
        (
            "SELECT orderid % 2 FROM orders",
            "operator % is not supported",
        ),
        (
            "SELECT name || region FROM customers",
            "operator || is not supported",
        ),
        (
            "UPDATE orders SET amount = amount * 2 WHERE orderid = 100",
            "operator * is not supported",
        ),
        (
            "SELECT -amount FROM orders",
            "unary minus on an expression is not supported",
        ),
        (
            "SELECT orderid FROM orders WHERE amount > -(custid + 1)",
            "unary minus on an expression is not supported",
        ),
        ("SELECT DATE '2020-01-01'", "DATE is not supported"),
        ("CREATE TABLE d (day DATE)", "DATE is not supported"),
        (
            "EXPLAIN SELECT DISTINCT region FROM customers",
            "DISTINCT is not supported",
        ),
        (
            "EXPLAIN ANALYZE SELECT custid FROM orders UNION SELECT custid FROM orders",
            "UNION is not supported",
        ),
    ];
    for &(sql, message) in cases {
        let mut errs = vec![minisql::parse(sql).unwrap_err()];
        for db in [&loaded, &empty] {
            errs.push(db.connect().execute(sql).unwrap_err());
            errs.push(db.run_script(sql).unwrap_err());
        }
        for err in errs {
            assert_eq!(err.code, SqlCode::SYNTAX, "{sql}: {err:?}");
            assert_eq!(err.message, message, "{sql}");
        }
    }
    // Nothing ran: no amount doubled, and no table was created.
    assert_eq!(
        rows(&loaded, "SELECT SUM(amount) FROM orders"),
        [[Value::Double(410.0)]]
    );
    assert!(empty.pin().tables.is_empty());
    assert!(loaded.pin().table("d").is_err());
}
