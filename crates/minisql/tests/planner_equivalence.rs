//! Property: plan selection never changes results.
//!
//! Two families of soundness checks on `plan::plan_select` + the executor:
//!
//! 1. **Access paths** — the planner turns eligible WHERE conjuncts into
//!    index probes; since every candidate row is re-checked against the full
//!    predicate, an indexed table must answer every query identically to an
//!    unindexed copy of the same data.
//! 2. **Index paths + top-k** — running the same query under
//!    `PlanOptions::default()` (index paths, bounded-heap ORDER BY…LIMIT)
//!    and [`PlanOptions::baseline`] (full scans, full sorts) must produce
//!    identical results, on randomized data and on snapshots pinned while
//!    writers churn rows and indexes.
//! 3. **One access path** — UPDATE finds its rows by the scan a SELECT
//!    plans, so an indexed table must end in the same rows as an
//!    unindexed copy; and the scan EXPLAIN names is the one that runs, as
//!    counted by `plan::thread_stats().rows_scanned`.

use dbgw_obs::RequestCtx;
use dbgw_testkit::gen::{charset, ints, option_of, usizes, vec_of};
use dbgw_testkit::{prop_assert, prop_assert_eq, props};
use minisql::ast::Statement;
use minisql::state::DbState;
use minisql::{Database, ExecResult, PlanOptions, Value};

/// Load identical data into two databases; only one gets indexes.
fn twin_dbs(rows: &[(i64, String)]) -> (Database, Database) {
    let make = |with_index: bool| {
        let db = Database::new();
        db.run_script("CREATE TABLE t (k INTEGER, s VARCHAR(16))")
            .unwrap();
        if with_index {
            db.run_script("CREATE INDEX t_k ON t (k); CREATE INDEX t_s ON t (s)")
                .unwrap();
        }
        let mut conn = db.connect();
        for (k, s) in rows {
            conn.execute_with_params(
                "INSERT INTO t VALUES (?, ?)",
                &[Value::Int(*k), Value::Text(s.clone())],
            )
            .unwrap();
        }
        db
    };
    (make(true), make(false))
}

fn query(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let mut conn = db.connect();
    match conn.execute(sql).unwrap() {
        ExecResult::Rows(rs) => std::sync::Arc::unwrap_or_clone(rs).rows,
        other => panic!("expected rows, got {other:?}"),
    }
}

props! {
    config(cases = 48);

    fn indexed_and_unindexed_agree(
        rows in vec_of((ints(0..20), charset("abc", 0..=4)), 0..=39),
        probe_k in ints(0..20),
        lo in ints(0..10),
        span in ints(0..10),
        prefix in charset("abc", 0..=2),
    ) {
        let (indexed, plain) = twin_dbs(&rows);
        let hi = lo + span;
        let queries = [
            format!("SELECT k, s FROM t WHERE k = {probe_k} ORDER BY 1, 2"),
            format!("SELECT k, s FROM t WHERE k < {probe_k} ORDER BY 1, 2"),
            format!("SELECT k, s FROM t WHERE k >= {probe_k} AND s LIKE '{prefix}%' ORDER BY 1, 2"),
            format!("SELECT k, s FROM t WHERE k BETWEEN {lo} AND {hi} ORDER BY 1, 2"),
            format!("SELECT k, s FROM t WHERE k IN ({lo}, {hi}, {probe_k}) ORDER BY 1, 2"),
            format!("SELECT k, s FROM t WHERE s LIKE '{prefix}%' ORDER BY 1, 2"),
            format!("SELECT k, s FROM t WHERE s = '{prefix}' ORDER BY 1, 2"),
            format!("SELECT COUNT(*) FROM t WHERE k = {probe_k} OR s LIKE '%{prefix}'"),
        ];
        for q in &queries {
            prop_assert_eq!(query(&indexed, q), query(&plain, q), "query {q}: indexed != plain");
        }
    }

    fn dml_agrees_under_indexes(
        rows in vec_of((ints(0..10), charset("ab", 0..=3)), 0..=24),
        target in ints(0..10),
    ) {
        let (indexed, plain) = twin_dbs(&rows);
        for db in [&indexed, &plain] {
            let mut conn = db.connect();
            conn.execute(&format!("UPDATE t SET k = k + 100 WHERE k = {target}")).unwrap();
            conn.execute(&format!("UPDATE t SET s = s || 'x' WHERE k = {}", target + 1)).unwrap();
        }
        let q = "SELECT k, s FROM t ORDER BY 1, 2";
        prop_assert_eq!(query(&indexed, q), query(&plain, q));
        // And the index still answers point queries correctly post-DML.
        let q2 = format!("SELECT COUNT(*) FROM t WHERE k = {}", target + 100);
        prop_assert_eq!(query(&indexed, &q2), query(&plain, &q2));
    }
}

// ---------------------------------------------------------------------------
// Index paths / top-k equivalence
// ---------------------------------------------------------------------------

/// Table `a (k, v)` with nullable, indexed `k`, loaded from row specs.
/// Returns a state snapshot so queries run straight through the executor
/// with explicit [`PlanOptions`] — bypassing the result cache, which would
/// otherwise serve the second plan's query from the first plan's answer.
fn keyed_state(rows: &[(Option<i64>, i64)]) -> DbState {
    let db = Database::new();
    db.run_script("CREATE TABLE a (k INTEGER, v INTEGER); CREATE INDEX a_k ON a (k)")
        .unwrap();
    let mut conn = db.connect();
    let val = |k: &Option<i64>| k.map(Value::Int).unwrap_or(Value::Null);
    for (k, v) in rows {
        conn.execute_with_params("INSERT INTO a VALUES (?, ?)", &[val(k), Value::Int(*v)])
            .unwrap();
    }
    db.snapshot()
}

/// Run one SELECT against a state under explicit plan options.
fn run_opts(state: &DbState, sql: &str, opts: &PlanOptions) -> Vec<Vec<Value>> {
    let Statement::Select(sel) = minisql::parse(sql).unwrap() else {
        panic!("not a select: {sql}");
    };
    minisql::exec::run_select_with_options(state, &sel, &[], &RequestCtx::unbounded(), opts)
        .unwrap()
        .rows
}

/// Canonicalize a result to a sorted multiset (for queries whose output
/// order is unspecified, e.g. GROUP BY without a total ORDER BY).
fn canon(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            match x.order_key(y) {
                std::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        a.len().cmp(&b.len())
    });
    rows
}

/// Assert optimized ≡ baseline for one query. `exact` additionally demands
/// identical row order: top-k keeps full-sort order, and an index probe
/// yields a key's rows in the order they entered the index — row-id order
/// unless an UPDATE moved a row to that key — so a query compared exactly
/// over rows whose keys change carries an ORDER BY.
fn assert_plans_agree(state: &DbState, sql: &str, exact: bool) -> Result<(), String> {
    let fast = run_opts(state, sql, &PlanOptions::default());
    let slow = run_opts(state, sql, &PlanOptions::baseline());
    let (fast, slow) = if exact {
        (fast, slow)
    } else {
        (canon(fast), canon(slow))
    };
    if fast != slow {
        return Err(format!(
            "plans diverge for {sql}:\n  optimized: {fast:?}\n  baseline:  {slow:?}"
        ));
    }
    Ok(())
}

props! {
    config(cases = 48);

    fn topk_matches_full_sort(
        rows in vec_of((option_of(ints(0..8)), ints(0..50)), 0..=30),
        k in ints(1..8),
        off in ints(0..4),
    ) {
        let st = keyed_state(&rows);
        for q in [
            format!("SELECT k, v FROM a ORDER BY v DESC, k LIMIT {k}"),
            format!("SELECT k, v FROM a ORDER BY k LIMIT {k} OFFSET {off}"),
            format!("SELECT v FROM a ORDER BY 1 LIMIT {k}"),
        ] {
            if let Err(msg) = assert_plans_agree(&st, &q, true) {
                prop_assert_eq!(true, false, "{msg}");
            }
        }
    }
}

/// `0.0 = -0.0` is TRUE under SQL comparison, so a single-table equality
/// counts both zeros whether an index probe or a full scan finds the rows.
#[test]
fn pinned_signed_zeros_are_equal_with_and_without_an_index() {
    for index in ["", "CREATE INDEX t_x ON t (x);"] {
        let db = Database::new();
        db.run_script(&format!(
            "CREATE TABLE t (x DOUBLE); {index}
             INSERT INTO t VALUES (0.0), (-0.0), (1.0), (2.0);"
        ))
        .unwrap();
        for sql in [
            "SELECT COUNT(*) FROM t WHERE x = 0",
            "SELECT COUNT(*) FROM t WHERE x = -0.0",
        ] {
            assert_eq!(query(&db, sql), [[Value::Int(2)]], "{sql} {index}");
        }
        let plan = query(&db, "EXPLAIN SELECT x FROM t WHERE x = 0");
        let probed = plan[0][0].to_string().contains("INDEX equality PROBE t_x");
        assert_eq!(probed, !index.is_empty(), "{plan:?}");
    }
}

/// The `x DOUBLE` table of the signed-zero probes: {0.0, −0.0, 1.0, 2.0},
/// with or without an index on `x`.
fn signed_zeros(index: &str) -> Database {
    let db = Database::new();
    db.run_script(&format!(
        "CREATE TABLE t (x DOUBLE); {index}
         INSERT INTO t VALUES (0.0), (-0.0), (1.0), (2.0);"
    ))
    .unwrap();
    db
}

const INDEXES: [&str; 2] = ["", "CREATE INDEX t_x ON t (x);"];

#[test]
fn signed_zeros_count_once_in_count_distinct() {
    for index in INDEXES {
        let db = signed_zeros(index);
        let got = query(&db, "SELECT COUNT(DISTINCT x) FROM t");
        assert_eq!(got, [[Value::Int(3)]], "{index}");
    }
}

#[test]
fn signed_zeros_are_one_group_and_one_distinct_value() {
    for index in INDEXES {
        let db = signed_zeros(index);
        for sql in [
            "SELECT x FROM t GROUP BY x",
            "SELECT x, COUNT(*) FROM t GROUP BY x",
            "SELECT DISTINCT x FROM t",
        ] {
            let rows = query(&db, sql);
            assert_eq!(rows.len(), 3, "{sql} {index}: {rows:?}");
        }
        let counts = query(&db, "SELECT COUNT(*) FROM t GROUP BY x ORDER BY 1 DESC");
        assert_eq!(counts[0], [Value::Int(2)], "{index}");
    }
}

#[test]
fn signed_zeros_union_to_one_row() {
    for index in INDEXES {
        let db = signed_zeros(index);
        let sql = "SELECT x FROM t WHERE x = 0 UNION SELECT x FROM t WHERE x = 0";
        assert_eq!(query(&db, sql).len(), 1, "{index}");
    }
}

#[test]
fn integers_compare_with_doubles_exactly_past_2_pow_53() {
    // 2^53 + 1 has no double; rounding it through f64 made it equal 2^53.
    for index in ["", "CREATE INDEX t_i ON t (i);"] {
        let db = Database::new();
        db.run_script(&format!(
            "CREATE TABLE t (i INTEGER, d DOUBLE); {index}
             INSERT INTO t VALUES (9007199254740993, 9007199254740992.0);"
        ))
        .unwrap();
        for (predicate, count) in [
            ("i = d", 0),
            ("i < d", 0),
            ("i > d", 1),
            ("i >= d", 1),
            ("i = 9007199254740992.0", 0),
            ("i > 9007199254740992.0", 1),
            ("d < i", 1),
            ("i = 9007199254740993", 1),
        ] {
            let sql = format!("SELECT COUNT(*) FROM t WHERE {predicate}");
            assert_eq!(query(&db, &sql), [[Value::Int(count)]], "{sql} {index}");
        }
        let sql = "SELECT i FROM t UNION SELECT d FROM t";
        assert_eq!(query(&db, sql).len(), 2, "{index}");
    }
}

// ---------------------------------------------------------------------------
// Equivalence under concurrent writers
// ---------------------------------------------------------------------------
//
// The snapshot engine promises that a pinned `DbState` is a frozen,
// internally consistent world. If that holds, plan equivalence must hold on
// *any* snapshot pinned mid-churn — including ones pinned between an index
// creation and its drop, or mid-way through a stream of row mutations. These
// tests pin snapshots while writers mutate rows and flip indexes on and off,
// and assert optimized ≡ baseline on every pinned state.

#[test]
fn plans_agree_on_snapshots_pinned_under_row_churn() {
    let db = Database::without_cache();
    db.run_script(
        "CREATE TABLE a (k INTEGER, v INTEGER);
         CREATE TABLE b (k INTEGER, w INTEGER);
         CREATE INDEX a_k ON a (k);
         CREATE INDEX b_k ON b (k)",
    )
    .unwrap();
    {
        let mut conn = db.connect();
        for i in 0..24i64 {
            conn.execute_with_params(
                "INSERT INTO a VALUES (?, ?)",
                &[Value::Int(i % 6), Value::Int(i)],
            )
            .unwrap();
            conn.execute_with_params(
                "INSERT INTO b VALUES (?, ?)",
                &[Value::Int(i % 6), Value::Int(i * 10)],
            )
            .unwrap();
        }
    }
    let writer_db = db.clone();
    let reader_db = db.clone();
    let mut config = dbgw_testkit::StressConfig::named("plans_agree_under_row_churn");
    config.threads = 3;
    config.iters = 32;
    dbgw_testkit::stress::run_observed(
        &config,
        move |w| {
            let mut conn = writer_db.connect();
            let k = w.rng.gen_range(0i64..6);
            let delta = w.rng.gen_range(1i64..100);
            match w.rng.gen_range(0u32..3) {
                0 => conn.execute_with_params(
                    "UPDATE a SET v = v + ? WHERE k = ?",
                    &[Value::Int(delta), Value::Int(k)],
                ),
                1 => conn.execute_with_params(
                    "INSERT INTO b VALUES (?, ?)",
                    &[Value::Int(k), Value::Int(delta)],
                ),
                _ => conn.execute_with_params(
                    "UPDATE b SET k = k + 1 WHERE k = ? AND w > ?",
                    &[Value::Int(k), Value::Int(delta * 5)],
                ),
            }
            .map_err(|e| e.to_string())?;
            Ok(())
        },
        move || {
            // Pin once; every query in the pass sees this exact world, so an
            // optimized/baseline divergence can only come from the planner.
            let pinned = reader_db.pin();
            for sql in [
                "SELECT a.k, a.v FROM a WHERE a.v < 500",
                "SELECT b.k, b.w FROM b WHERE b.k = 2 AND b.w > 40 ORDER BY b.w",
                "SELECT a.k, a.v FROM a WHERE a.k = 3 ORDER BY a.v LIMIT 4",
            ] {
                assert_plans_agree(&pinned, sql, true)?;
            }
            assert_plans_agree(&pinned, "SELECT k, COUNT(*) FROM b GROUP BY k", false)?;
            Ok(())
        },
    );
}

#[test]
fn plans_agree_while_indexes_flip_on_and_off() {
    // Writers add and drop the very indexes the optimized plan would probe.
    // A pinned snapshot either has the index (optimized takes the probe) or
    // doesn't (optimized degrades to a scan) — both must equal baseline.
    let db = Database::without_cache();
    db.run_script("CREATE TABLE a (k INTEGER, v INTEGER); CREATE TABLE b (k INTEGER, w INTEGER)")
        .unwrap();
    {
        let mut conn = db.connect();
        for i in 0..16i64 {
            conn.execute_with_params(
                "INSERT INTO a VALUES (?, ?)",
                &[Value::Int(i % 4), Value::Int(i)],
            )
            .unwrap();
            conn.execute_with_params(
                "INSERT INTO b VALUES (?, ?)",
                &[Value::Int(i % 4), Value::Int(i * 7)],
            )
            .unwrap();
        }
    }
    let writer_db = db.clone();
    let reader_db = db.clone();
    let mut config = dbgw_testkit::StressConfig::named("plans_agree_under_index_flips");
    config.threads = 2;
    config.iters = 24;
    dbgw_testkit::stress::run_observed(
        &config,
        move |w| {
            let mut conn = writer_db.connect();
            // Each thread owns its index names, so CREATE/DROP always pair.
            let table = if w.thread % 2 == 0 { "a" } else { "b" };
            let name = format!("flip_{}_{table}", w.thread);
            conn.execute(&format!("CREATE INDEX {name} ON {table} (k)"))
                .map_err(|e| e.to_string())?;
            conn.execute_with_params(
                "UPDATE a SET v = v + 1 WHERE k = ?",
                &[Value::Int(w.rng.gen_range(0i64..4))],
            )
            .map_err(|e| e.to_string())?;
            conn.execute(&format!("DROP INDEX {name}"))
                .map_err(|e| e.to_string())?;
            Ok(())
        },
        move || {
            let pinned = reader_db.pin();
            for sql in [
                "SELECT b.k, b.w FROM b WHERE b.k = 1",
                "SELECT a.k, a.v FROM a WHERE a.k = 2",
                "SELECT k, w FROM b WHERE k = 3 AND w >= 21 ORDER BY w LIMIT 6",
            ] {
                assert_plans_agree(&pinned, sql, true)?;
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Set operations ≡ brute-force bag/set algebra
// ---------------------------------------------------------------------------

fn ref_distinct(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut out: Vec<Vec<Value>> = Vec::new();
    for r in rows {
        if !out.contains(r) {
            out.push(r.clone());
        }
    }
    out
}

/// Reference semantics for one set operation over materialized branches,
/// written directly from the SQL definition (distinct = set algebra,
/// ALL = bag algebra with `min`/`max(l - r, 0)` copy counts).
fn ref_set_op(op: &str, all: bool, l: &[Vec<Value>], r: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut left = l.to_vec();
    match (op, all) {
        ("UNION", true) => {
            left.extend(r.iter().cloned());
            left
        }
        ("UNION", false) => {
            left.extend(r.iter().cloned());
            ref_distinct(&left)
        }
        ("EXCEPT", false) => ref_distinct(&left)
            .into_iter()
            .filter(|row| !r.contains(row))
            .collect(),
        ("EXCEPT", true) => {
            let mut remaining = r.to_vec();
            left.retain(|row| match remaining.iter().position(|x| x == row) {
                Some(i) => {
                    remaining.swap_remove(i);
                    false
                }
                None => true,
            });
            left
        }
        ("INTERSECT", false) => ref_distinct(&left)
            .into_iter()
            .filter(|row| r.contains(row))
            .collect(),
        ("INTERSECT", true) => {
            let mut remaining = r.to_vec();
            left.retain(|row| match remaining.iter().position(|x| x == row) {
                Some(i) => {
                    remaining.swap_remove(i);
                    true
                }
                None => false,
            });
            left
        }
        other => panic!("unknown op {other:?}"),
    }
}

/// Two tables whose full contents are the set-operation branches.
fn set_op_state(l: &[(i64, i64)], r: &[(i64, i64)]) -> DbState {
    let db = Database::new();
    db.run_script("CREATE TABLE l (k INTEGER, v INTEGER); CREATE TABLE r (k INTEGER, v INTEGER)")
        .unwrap();
    let mut conn = db.connect();
    for (table, rows) in [("l", l), ("r", r)] {
        for (k, v) in rows {
            conn.execute_with_params(
                &format!("INSERT INTO {table} VALUES (?, ?)"),
                &[Value::Int(*k), Value::Int(*v)],
            )
            .unwrap();
        }
    }
    db.snapshot()
}

fn int_rows(rows: &[(i64, i64)]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
        .collect()
}

props! {
    config(cases = 48);

    fn set_ops_match_bag_algebra(
        l in vec_of((ints(0..3), ints(0..3)), 0..=12),
        r in vec_of((ints(0..3), ints(0..3)), 0..=12),
        limit in usizes(0..8),
        offset in usizes(0..4),
    ) {
        let st = set_op_state(&l, &r);
        let lv = int_rows(&l);
        let rv = int_rows(&r);
        for op in ["UNION", "EXCEPT", "INTERSECT"] {
            for all in [false, true] {
                let kw = if all { format!("{op} ALL") } else { op.to_string() };
                let sql = format!("SELECT k, v FROM l {kw} SELECT k, v FROM r");
                let got = canon(run_opts(&st, &sql, &PlanOptions::default()));
                let want = canon(ref_set_op(op, all, &lv, &rv));
                prop_assert_eq!(got, want, "{kw} diverged from reference");
                // And plan options must not matter for set operations.
                let base = canon(run_opts(&st, &sql, &PlanOptions::baseline()));
                let fast = canon(run_opts(&st, &sql, &PlanOptions::default()));
                prop_assert_eq!(fast, base, "{kw} plan-sensitive");
                // The hoisted tail, in order: (v, k) orders every distinct
                // row, so the reference sorted and cut is the one answer,
                // under top-k (default) and full sort (baseline) alike.
                let sql = format!("{sql} ORDER BY 2, 1 LIMIT {limit} OFFSET {offset}");
                let mut want = ref_set_op(op, all, &lv, &rv);
                want.sort_by(|a, b| a[1].order_key(&b[1]).then(a[0].order_key(&b[0])));
                let want: Vec<_> = want.into_iter().skip(offset).take(limit).collect();
                for opts in [PlanOptions::default(), PlanOptions::baseline()] {
                    prop_assert_eq!(run_opts(&st, &sql, &opts), want.clone(), "{sql}");
                }
            }
        }
    }

    fn chained_set_ops_fold_left(
        l in vec_of((ints(0..3), ints(0..2)), 0..=8),
        r in vec_of((ints(0..3), ints(0..2)), 0..=8),
        s in vec_of((ints(0..3), ints(0..2)), 0..=8),
    ) {
        // (l UNION ALL r) EXCEPT s — set operations associate left.
        let db = Database::new();
        db.run_script(
            "CREATE TABLE l (k INTEGER, v INTEGER);
             CREATE TABLE r (k INTEGER, v INTEGER);
             CREATE TABLE s (k INTEGER, v INTEGER)",
        )
        .unwrap();
        let mut conn = db.connect();
        for (table, rows) in [("l", &l), ("r", &r), ("s", &s)] {
            for (k, v) in rows {
                conn.execute_with_params(
                    &format!("INSERT INTO {table} VALUES (?, ?)"),
                    &[Value::Int(*k), Value::Int(*v)],
                )
                .unwrap();
            }
        }
        let st = db.snapshot();
        let sql = "SELECT k, v FROM l UNION ALL SELECT k, v FROM r EXCEPT SELECT k, v FROM s";
        let got = canon(run_opts(&st, sql, &PlanOptions::default()));
        let mut union_all = int_rows(&l);
        union_all.extend(int_rows(&r));
        let want = canon(ref_set_op("EXCEPT", false, &union_all, &int_rows(&s)));
        prop_assert_eq!(got, want);
    }
}

#[test]
fn pinned_set_op_empty_branches() {
    let st = set_op_state(&[(1, 1), (1, 1)], &[]);
    for (sql, expect_rows) in [
        ("SELECT k, v FROM l UNION SELECT k, v FROM r", 1),
        ("SELECT k, v FROM l UNION ALL SELECT k, v FROM r", 2),
        ("SELECT k, v FROM l EXCEPT SELECT k, v FROM r", 1),
        ("SELECT k, v FROM l EXCEPT ALL SELECT k, v FROM r", 2),
        ("SELECT k, v FROM l INTERSECT SELECT k, v FROM r", 0),
        ("SELECT k, v FROM l INTERSECT ALL SELECT k, v FROM r", 0),
        ("SELECT k, v FROM r EXCEPT ALL SELECT k, v FROM l", 0),
    ] {
        assert_eq!(
            run_opts(&st, sql, &PlanOptions::default()).len(),
            expect_rows,
            "{sql}"
        );
    }
}

// ---------------------------------------------------------------------------
// New operators under concurrent-writer snapshots
// ---------------------------------------------------------------------------

#[test]
fn new_operators_agree_on_churning_snapshots() {
    let db = Database::without_cache();
    db.run_script(
        "CREATE TABLE a (k INTEGER, v INTEGER);
         CREATE TABLE b (k INTEGER, v INTEGER);
         CREATE TABLE c (k INTEGER, v INTEGER);
         CREATE INDEX a_k ON a (k);
         CREATE INDEX b_k ON b (k)",
    )
    .unwrap();
    {
        let mut conn = db.connect();
        for i in 0..30i64 {
            for t in ["a", "b", "c"] {
                conn.execute_with_params(
                    &format!("INSERT INTO {t} VALUES (?, ?)"),
                    &[Value::Int(i % 5), Value::Int(i)],
                )
                .unwrap();
            }
        }
    }
    let writer_db = db.clone();
    let reader_db = db.clone();
    let mut config = dbgw_testkit::StressConfig::named("planner_v2_under_row_churn");
    config.threads = 3;
    config.iters = 24;
    dbgw_testkit::stress::run_observed(
        &config,
        move |w| {
            let mut conn = writer_db.connect();
            let k = w.rng.gen_range(0i64..5);
            let delta = w.rng.gen_range(1i64..50);
            let table = ["a", "b", "c"][w.rng.gen_range(0usize..3)];
            match w.rng.gen_range(0u32..3) {
                0 => conn.execute_with_params(
                    &format!("UPDATE {table} SET v = v + ? WHERE k = ?"),
                    &[Value::Int(delta), Value::Int(k)],
                ),
                1 => conn.execute_with_params(
                    &format!("INSERT INTO {table} VALUES (?, ?)"),
                    &[Value::Int(k), Value::Int(delta)],
                ),
                _ => conn.execute_with_params(
                    &format!("UPDATE {table} SET k = k + 1 WHERE k = ? AND v > ?"),
                    &[Value::Int(k), Value::Int(delta * 4)],
                ),
            }
            .map_err(|e| e.to_string())?;
            Ok(())
        },
        move || {
            let pinned = reader_db.pin();
            // New operators: set ops are plan-independent.
            for sql in [
                "SELECT k, v FROM a EXCEPT ALL SELECT k, v FROM b",
                "SELECT k, v FROM a INTERSECT SELECT k, v FROM c",
            ] {
                let fast = canon(run_opts(&pinned, sql, &PlanOptions::default()));
                let slow = canon(run_opts(&pinned, sql, &PlanOptions::baseline()));
                if fast != slow {
                    return Err(format!("plan-sensitive on snapshot: {sql}"));
                }
            }
            // Statistics on a pinned snapshot stay internally consistent:
            // a table's row count never exceeds stats rows + staleness window.
            for t in ["a", "b", "c"] {
                if let Some(stats) = &pinned.tables[t].stats {
                    let heap = pinned.tables[t].heap.len() as i64;
                    let drift = (stats.rows as i64 - heap).abs();
                    if drift != 0 {
                        return Err(format!(
                            "stats incoherent on pinned snapshot for {t}: stats={} heap={heap}",
                            stats.rows
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// One access path: UPDATE and EXPLAIN read the scan's stored choice
// ---------------------------------------------------------------------------

/// One single-table conjunct over `t (k INTEGER, s VARCHAR(16))`, drawn by
/// `shape` from comparisons (either way round), `<>`, BETWEEN, IN and LIKE,
/// with NULL constants (`a` = `None`), inverted BETWEEN bounds, exact and
/// empty LIKE patterns, and constants the planner has to fold.
fn conjunct(shape: usize, a: Option<i64>, b: i64, text: &str) -> String {
    let a = a.map_or("NULL".to_string(), |v| v.to_string());
    match shape {
        0 => format!("k = {a}"),
        1 => format!("k < {a}"),
        2 => format!("{a} <= k"),
        3 => format!("k > {b} - 1"),
        4 => format!("k >= {a}"),
        5 => format!("k <> {a}"),
        6 => format!("k BETWEEN {a} AND {b}"),
        7 => format!("k NOT BETWEEN {a} AND {b}"),
        8 => format!("k IN ({a}, {b})"),
        9 => format!("k NOT IN ({b}, {a})"),
        10 => format!("s = '{text}'"),
        11 => format!("s = 'a' || '{text}'"),
        12 => format!("s LIKE '{text}'"),
        13 => format!("s NOT LIKE '{text}'"),
        14 => format!("s LIKE {a}"),
        _ => format!("s IN ('{text}', 'b')"),
    }
}

/// The rows an index on `k` or `s` yields as candidates for `conjunct(…)`,
/// worked out from the data alone: keys order NULL first, so a `<` probe
/// fetches the NULL keys too. `None` for shapes no index may serve.
fn probe_candidates(
    rows: &[(Option<i64>, String)],
    shape: usize,
    a: Option<i64>,
    b: i64,
    text: &str,
) -> Option<usize> {
    let on_k = |keep: &dyn Fn(Option<i64>) -> bool| rows.iter().filter(|(k, _)| keep(*k)).count();
    let on_s = |keep: &dyn Fn(&str) -> bool| rows.iter().filter(|(_, s)| keep(s)).count();
    let prefix: String = text.chars().take_while(|c| !"%_".contains(*c)).collect();
    Some(match (shape, a) {
        (0, Some(a)) => on_k(&|k| k == Some(a)),
        (1, Some(a)) => on_k(&|k| k.is_none_or(|k| k < a)),
        (2 | 4, Some(a)) => on_k(&|k| k.is_some_and(|k| k >= a)),
        (3, _) => on_k(&|k| k.is_some_and(|k| k > b - 1)),
        (6, Some(a)) => on_k(&|k| k.is_some_and(|k| a <= k && k <= b)),
        (8, a) => on_k(&|k| k.is_some() && (k == a || k == Some(b))),
        (10, _) => on_s(&|s| s == text),
        (11, _) => on_s(&|s| s == format!("a{text}")),
        (12, _) if prefix.len() == text.len() => on_s(&|s| s == text),
        (12, _) => on_s(&|s| s.starts_with(&prefix)),
        (15, _) => on_s(&|s| s == text || s == "b"),
        _ => return None,
    })
}

/// `t` with a nullable `k`, loaded identically into two databases of which
/// only the first indexes `k` and `s`.
fn nullable_twins(rows: &[(Option<i64>, String)]) -> (Database, Database) {
    let make = |with_index: bool| {
        let db = Database::new();
        db.run_script("CREATE TABLE t (k INTEGER, s VARCHAR(16))")
            .unwrap();
        if with_index {
            db.run_script("CREATE INDEX t_k ON t (k); CREATE INDEX t_s ON t (s)")
                .unwrap();
        }
        let mut conn = db.connect();
        for (k, s) in rows {
            let k = k.map_or(Value::Null, Value::Int);
            conn.execute_with_params("INSERT INTO t VALUES (?, ?)", &[k, Value::Text(s.clone())])
                .unwrap();
        }
        db
    };
    (make(true), make(false))
}

/// Every live row of `t` with its row id.
fn rows_by_id(db: &Database) -> Vec<(u32, Vec<Value>)> {
    let snapshot = db.snapshot();
    let heap = &snapshot.table("t").unwrap().heap;
    heap.iter().map(|(id, row)| (id.0, row.to_vec())).collect()
}

props! {
    // Most generated conjuncts plan as full scans; enough cases for every
    // probe shape to be drawn on data whose statistics let it run.
    config(cases = 256);

    fn dml_on_indexes_matches_an_unindexed_copy(
        rows in vec_of((option_of(ints(0..8)), charset("ab", 0..=2)), 0..=30),
        preds in vec_of((usizes(0..16), option_of(ints(0..8)), ints(0..8), charset("ab%_", 0..=3)), 1..=2),
    ) {
        let predicate = (preds.iter())
            .map(|(shape, a, b, text)| conjunct(*shape, *a, *b, text))
            .collect::<Vec<_>>()
            .join(" AND ");
        let (indexed, plain) = nullable_twins(&rows);
        let select = format!("SELECT k, s FROM t WHERE {predicate} ORDER BY 1, 2");
        prop_assert_eq!(query(&indexed, &select), query(&plain, &select), "{select}");
        let mut counts = Vec::new();
        for db in [&indexed, &plain] {
            let mut conn = db.connect();
            // The second UPDATE meets the first one's rows under their new
            // keys, through indexes the first one rewrote.
            let update = format!("UPDATE t SET k = k + 10, s = s || 'u' WHERE {predicate}");
            let again = format!("UPDATE t SET k = k - 3 WHERE {predicate}");
            counts.push((conn.execute(&update).unwrap(), conn.execute(&again).unwrap()));
        }
        prop_assert_eq!(&counts[0], &counts[1], "affected counts for {predicate}");
        prop_assert_eq!(rows_by_id(&indexed), rows_by_id(&plain), "final rows for {predicate}");
    }

    fn explain_names_the_scan_that_runs(
        rows in vec_of((option_of(ints(0..8)), charset("ab", 0..=2)), 0..=30),
        pred in (usizes(0..16), option_of(ints(0..8)), ints(0..8), charset("ab%_", 0..=3)),
    ) {
        let (shape, a, b, text) = pred;
        let sql = format!("SELECT k, s FROM t WHERE {}", conjunct(shape, a, b, &text));
        let Statement::Select(sel) = minisql::parse(&sql).unwrap() else {
            panic!("not a select: {sql}");
        };
        let (indexed, _) = nullable_twins(&rows);
        let state = indexed.snapshot();
        let access = minisql::exec::explain_select(&state, &sel, &[]).unwrap().remove(0);
        minisql::plan::reset_thread_stats();
        minisql::exec::run_select(&state, &sel, &[], &RequestCtx::unbounded()).unwrap();
        let scanned = minisql::plan::thread_stats().rows_scanned as usize;
        if access.starts_with("FULL SCAN") {
            prop_assert_eq!(scanned, rows.len(), "{sql}: {access}");
        } else if access.starts_with("EMPTY SCAN") {
            prop_assert_eq!(scanned, 0, "{sql}: {access}");
        } else {
            prop_assert!(access.starts_with("INDEX "), "{sql}: {access}");
            let candidates = probe_candidates(&rows, shape, a, b, &text);
            prop_assert_eq!(Some(scanned), candidates, "{sql}: {access}");
        }
    }
}

#[test]
fn pinned_inverted_between_on_an_index_matches_nothing() {
    // A B-tree range whose start is past its end panics; the predicate keeps
    // no row, so the plan must read nothing rather than probe.
    let (indexed, plain) = nullable_twins(&[(Some(1), "a".into()), (Some(5), "b".into())]);
    let sql = "SELECT k FROM t WHERE k BETWEEN 5 AND 1";
    assert!(query(&indexed, sql).is_empty());
    assert!(query(&plain, sql).is_empty());
    let negated = "SELECT k FROM t WHERE k NOT BETWEEN 5 AND 1 ORDER BY 1";
    assert_eq!(query(&indexed, negated), query(&plain, negated));
    assert_eq!(query(&indexed, negated).len(), 2);
}
