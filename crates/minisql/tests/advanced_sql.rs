//! Integration tests for the richer SQL surface: subqueries, set operations,
//! EXPLAIN, and the extended scalar function library — everything exercised
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
// Subqueries
// ---------------------------------------------------------------------------

#[test]
fn in_subquery() {
    let db = db();
    assert_eq!(
        texts(
            &db,
            "SELECT name FROM customers WHERE custid IN (SELECT custid FROM orders) ORDER BY name"
        ),
        vec!["Ada", "Bob", "Cyn"]
    );
    assert_eq!(
        texts(
            &db,
            "SELECT name FROM customers WHERE custid NOT IN (SELECT custid FROM orders)"
        ),
        vec!["Dee"]
    );
}

#[test]
fn scalar_subquery() {
    let db = db();
    assert_eq!(
        rows(&db, "SELECT (SELECT MAX(amount) FROM orders)"),
        vec![vec![Value::Double(300.0)]]
    );
    // Zero rows -> NULL.
    assert_eq!(
        rows(
            &db,
            "SELECT (SELECT amount FROM orders WHERE orderid = 999)"
        ),
        vec![vec![Value::Null]]
    );
    // Comparison against a scalar subquery in WHERE.
    assert_eq!(
        texts(
            &db,
            "SELECT name FROM customers WHERE custid = (SELECT custid FROM orders WHERE amount = 300.0)"
        ),
        vec!["Cyn"]
    );
}

#[test]
fn scalar_subquery_multi_row_is_error() {
    let db = db();
    let mut conn = db.connect();
    let err = conn
        .execute("SELECT (SELECT custid FROM orders)")
        .unwrap_err();
    assert_eq!(err.code, SqlCode::SYNTAX);
    assert!(err.message.contains("scalar subquery returned"));
}

#[test]
fn exists_and_not_exists() {
    let db = db();
    assert_eq!(
        rows(
            &db,
            "SELECT 1 FROM customers WHERE EXISTS (SELECT 1 FROM orders) LIMIT 1"
        )
        .len(),
        1
    );
    assert!(rows(
        &db,
        "SELECT 1 FROM customers WHERE NOT EXISTS (SELECT 1 FROM orders)"
    )
    .is_empty());
    assert!(rows(
        &db,
        "SELECT 1 WHERE EXISTS (SELECT 1 FROM orders WHERE amount > 1000)"
    )
    .is_empty());
}

#[test]
fn correlated_subquery_rejected_cleanly() {
    let db = db();
    let mut conn = db.connect();
    let err = conn
        .execute(
            "SELECT name FROM customers c \
             WHERE EXISTS (SELECT 1 FROM orders o WHERE o.custid = c.custid)",
        )
        .unwrap_err();
    // The inner query cannot resolve c.custid: surfaced as unknown column.
    assert_eq!(err.code, SqlCode::UNDEFINED_COLUMN);
}

#[test]
fn subquery_in_dml() {
    let db = db();
    let mut conn = db.connect();
    // DELETE customers with no orders.
    let r = conn
        .execute("DELETE FROM customers WHERE custid NOT IN (SELECT custid FROM orders)")
        .unwrap();
    assert_eq!(r, ExecResult::Count(1));
    // UPDATE using a scalar subquery on the right-hand side.
    conn.execute("UPDATE orders SET amount = (SELECT MAX(amount) FROM orders) WHERE orderid = 102")
        .unwrap();
    assert_eq!(
        rows(&db, "SELECT amount FROM orders WHERE orderid = 102"),
        vec![vec![Value::Double(300.0)]]
    );
    // INSERT with a scalar subquery value.
    conn.execute("INSERT INTO orders VALUES (200, 1, (SELECT MIN(amount) FROM orders))")
        .unwrap();
    assert_eq!(
        rows(&db, "SELECT amount FROM orders WHERE orderid = 200"),
        vec![vec![Value::Double(25.0)]]
    );
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
        "EXPLAIN SELECT region, COUNT(*) FROM customers c JOIN orders o ON c.custid = o.custid \
         WHERE amount > 1 GROUP BY region HAVING COUNT(*) > 0 ORDER BY 2 LIMIT 3",
    );
    let joined = plan.join("\n");
    assert!(joined.contains("HASH JOIN orders (1 key)"), "{joined}");
    assert!(joined.contains("FILTER <where>"), "{joined}");
    assert!(joined.contains("AGGREGATE (group keys: 1)"), "{joined}");
    assert!(joined.contains("FILTER <having>"), "{joined}");
    assert!(joined.contains("TOP-K SORT (1 keys, k=3)"), "{joined}");
    assert!(joined.contains("LIMIT 3"), "{joined}");
}

#[test]
fn explain_does_not_execute_dml() {
    let db = db();
    let plan = texts(&db, "EXPLAIN DELETE FROM orders WHERE amount > 0");
    assert!(plan[0].contains("DELETE FROM orders"), "{plan:?}");
    assert_eq!(db.table_len("orders").unwrap(), 4); // nothing deleted
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
fn explain_analyze_annotates_multi_join_plan() {
    let db = db();
    db.run_script(
        "CREATE TABLE regions (region VARCHAR(10) PRIMARY KEY, mgr VARCHAR(20));
         INSERT INTO regions VALUES ('west', 'Wes'), ('east', 'Eli'), ('north', 'Nor');",
    )
    .unwrap();
    let plan = texts(
        &db,
        "EXPLAIN ANALYZE SELECT c.name, o.amount, r.mgr \
         FROM customers c JOIN orders o ON c.custid = o.custid \
         JOIN regions r ON c.region = r.region \
         WHERE o.amount > 20 ORDER BY o.amount",
    );
    let joined = plan.join("\n");
    // The cost-based planner prints the executed three-table order: the
    // filtered `orders` (est 3 rows) ties tiny `regions` and wins on
    // syntactic position.
    let order = plan.iter().find(|l| l.contains("JOIN ORDER:")).unwrap();
    assert!(
        order.contains("JOIN ORDER: o -> c -> r"),
        "{order}\n{joined}"
    );
    // Every executed operator line carries actuals alongside the estimate.
    let join_lines: Vec<&String> = plan
        .iter()
        .filter(|l| l.contains("HASH JOIN") || l.contains("NESTED LOOP"))
        .collect();
    assert_eq!(join_lines.len(), 2, "{joined}");
    for line in &join_lines {
        assert!(
            line.contains("(actual rows=") && line.contains("loops=1") && line.contains("time="),
            "join line missing actuals: {line}\n{joined}"
        );
    }
    let sort = plan.iter().find(|l| l.contains("SORT")).unwrap();
    assert!(sort.contains("(actual rows=3"), "{sort}\n{joined}");
    // amounts 25, 75, 300 survive `o.amount > 20`.
    let total = plan.last().unwrap();
    assert!(total.starts_with("TOTAL: 3 rows returned,"), "{total}");
}

#[test]
fn explain_analyze_shows_scan_and_filter_actuals() {
    let db = db();
    let plan = texts(
        &db,
        "EXPLAIN ANALYZE SELECT name FROM customers WHERE LENGTH(name) = 3",
    );
    let joined = plan.join("\n");
    // LENGTH(name) = 3 is not index- or pushdown-eligible: the scan reads all
    // 4 rows and the residual filter keeps all 4 three-letter names.
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
    let plan = texts(&db, "EXPLAIN ANALYZE DELETE FROM orders WHERE amount > 0");
    assert!(plan[0].contains("DELETE FROM orders"), "{plan:?}");
    assert!(!plan[0].contains("actual rows="), "{plan:?}");
    assert_eq!(db.table_len("orders").unwrap(), 4); // nothing deleted
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
    let update = "UPDATE orders SET quantity = 5 WHERE orderid = 7";
    let plan = texts(&db, &format!("EXPLAIN {update}"));
    assert_eq!(plan[0], "UPDATE orders", "{plan:?}");
    assert!(
        plan[1].starts_with("INDEX equality PROBE orders_orderid_unique (orderid)"),
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
// Extended scalar functions
// ---------------------------------------------------------------------------

#[test]
fn string_function_library() {
    let db = db();
    assert_eq!(
        rows(&db, "SELECT REPLACE('banana', 'an', 'AN')"),
        vec![vec![Value::Text("bANANa".into())]]
    );
    assert_eq!(
        rows(
            &db,
            "SELECT POSITION('na', 'banana'), POSITION('x', 'banana')"
        ),
        vec![vec![Value::Int(3), Value::Int(0)]]
    );
    assert_eq!(
        rows(&db, "SELECT LEFT('banana', 3), RIGHT('banana', 2)"),
        vec![vec![Value::Text("ban".into()), Value::Text("na".into())]]
    );
    assert_eq!(
        rows(&db, "SELECT CONCAT('a', 1, 'b')"),
        vec![vec![Value::Text("a1b".into())]]
    );
    assert_eq!(
        rows(&db, "SELECT CONCAT('a', NULL)"),
        vec![vec![Value::Null]]
    );
}

#[test]
fn numeric_function_library() {
    let db = db();
    assert_eq!(
        rows(&db, "SELECT SIGN(-9), SIGN(0), SIGN(2.5)"),
        vec![vec![Value::Int(-1), Value::Int(0), Value::Int(1)]]
    );
    assert_eq!(
        rows(&db, "SELECT FLOOR(2.7), CEIL(2.1)"),
        vec![vec![Value::Double(2.0), Value::Double(3.0)]]
    );
}

#[test]
fn functions_usable_in_where_and_order() {
    let db = db();
    assert_eq!(
        texts(
            &db,
            "SELECT name FROM customers WHERE POSITION('e', name) > 0 ORDER BY RIGHT(name, 1)"
        ),
        vec!["Dee"]
    );
}

#[test]
fn multibyte_position_is_character_based() {
    let db = db();
    assert_eq!(
        rows(&db, "SELECT POSITION('llo', 'héllo')"),
        vec![vec![Value::Int(3)]]
    );
}

// ---------------------------------------------------------------------------
// Expression positions: subqueries, aggregates and windows wherever an
// expression can stand
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
fn subquery_inside_a_window_partition() {
    let db = db();
    assert_eq!(
        rows(
            &db,
            "SELECT orderid, ROW_NUMBER() OVER (PARTITION BY custid > \
             (SELECT MIN(custid) FROM customers) ORDER BY orderid) FROM orders ORDER BY orderid"
        ),
        [(100, 1), (101, 2), (102, 1), (103, 2)]
            .iter()
            .map(|&(o, n)| vec![Value::Int(o), Value::Int(n)])
            .collect::<Vec<_>>()
    );
}

#[test]
fn in_subquery_inside_order_by_case_is_invalidated_by_its_table() {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE t (k INTEGER);
         CREATE TABLE u (k INTEGER);
         INSERT INTO t VALUES (1), (2), (3);
         INSERT INTO u VALUES (3);",
    )
    .unwrap();
    let sql = "SELECT k FROM t ORDER BY CASE WHEN k IN (SELECT k FROM u) THEN 0 ELSE 1 END, k";
    assert_eq!(texts(&db, sql), ["3", "1", "2"]);
    let hits = db.cache_stats().unwrap().results.hits;
    assert_eq!(texts(&db, sql), ["3", "1", "2"]);
    assert_eq!(db.cache_stats().unwrap().results.hits, hits + 1);
    // `u` appears only inside the ORDER BY: its write must still invalidate.
    db.connect().execute("INSERT INTO u VALUES (2)").unwrap();
    assert_eq!(texts(&db, sql), ["2", "3", "1"]);
}

#[test]
fn update_with_subqueries_in_set_and_where() {
    let db = db();
    let mut conn = db.connect();
    let r = conn
        .execute(
            "UPDATE orders SET amount = (SELECT MAX(amount) FROM orders) + 1.0 \
             WHERE custid IN (SELECT custid FROM customers WHERE region = 'west') \
             AND amount < (SELECT AVG(amount) FROM orders)",
        )
        .unwrap();
    // AVG is 102.5: orders 100 and 101 (Ada, west) qualify, 103 (Cyn) does not.
    assert_eq!(r, ExecResult::Count(2));
    assert_eq!(
        rows(&db, "SELECT orderid, amount FROM orders ORDER BY orderid"),
        [(100, 301.0), (101, 301.0), (102, 10.0), (103, 300.0)]
            .iter()
            .map(|&(o, a)| vec![Value::Int(o), Value::Double(a)])
            .collect::<Vec<_>>()
    );
}

#[test]
fn between_bound_subquery_beside_a_cast_scalar_subquery() {
    let db = db();
    assert_eq!(
        rows(
            &db,
            "SELECT orderid, CAST((SELECT COUNT(*) FROM customers) AS DOUBLE) FROM orders \
             WHERE amount BETWEEN (SELECT MIN(amount) FROM orders WHERE amount > 10.0) \
             AND 100.0 ORDER BY orderid"
        ),
        vec![
            vec![Value::Int(100), Value::Double(4.0)],
            vec![Value::Int(101), Value::Double(4.0)],
        ]
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
