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
            format!("SELECT k, s FROM t WHERE k >= {lo} AND k <= {hi} ORDER BY 1, 2"),
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
            conn.execute(&format!("UPDATE t SET s = 'x' WHERE k = {}", target + 1)).unwrap();
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

/// Assert optimized ≡ baseline for one query, row order included: top-k
/// keeps full-sort order, and an index probe yields a key's rows in the
/// order they entered the index — row-id order unless an UPDATE moved a row
/// to that key — so a query compared over rows whose keys change carries
/// an ORDER BY.
fn assert_plans_agree(state: &DbState, sql: &str) -> Result<(), String> {
    let fast = run_opts(state, sql, &PlanOptions::default());
    let slow = run_opts(state, sql, &PlanOptions::baseline());
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
            if let Err(msg) = assert_plans_agree(&st, &q) {
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

/// The signed-zero probes that ran inside deleted forms — `COUNT(DISTINCT`,
/// `GROUP BY`, `DISTINCT` and `UNION` over {0.0, −0.0, 1.0, 2.0} — are each
/// refused with −104, with and without an index on `x`.
fn assert_signed_zero_probes_refused(statements: &[&str]) {
    for index in ["", "CREATE INDEX t_x ON t (x);"] {
        let db = Database::new();
        db.run_script(&format!(
            "CREATE TABLE t (x DOUBLE); {index}
             INSERT INTO t VALUES (0.0), (-0.0), (1.0), (2.0);"
        ))
        .unwrap();
        for sql in statements {
            let err = db.connect().execute(sql).unwrap_err();
            assert_eq!(err.code, minisql::SqlCode::SYNTAX, "{sql} {index}: {err:?}");
            assert_eq!(err.code.0, -104, "{sql} {index}");
        }
    }
}

#[test]
fn signed_zeros_count_once_in_count_distinct() {
    assert_signed_zero_probes_refused(&["SELECT COUNT(DISTINCT x) FROM t"]);
}

#[test]
fn signed_zeros_are_one_group_and_one_distinct_value() {
    assert_signed_zero_probes_refused(&[
        "SELECT x FROM t GROUP BY x",
        "SELECT x, COUNT(*) FROM t GROUP BY x",
        "SELECT DISTINCT x FROM t",
        "SELECT COUNT(*) FROM t GROUP BY x ORDER BY 1 DESC",
    ]);
}

#[test]
fn signed_zeros_union_to_one_row() {
    assert_signed_zero_probes_refused(&[
        "SELECT x FROM t WHERE x = 0 UNION SELECT x FROM t WHERE x = 0",
    ]);
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
                assert_plans_agree(&pinned, sql)?;
            }
            for k in 0..6 {
                assert_plans_agree(&pinned, &format!("SELECT COUNT(*) FROM b WHERE k = {k}"))?;
            }
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
                assert_plans_agree(&pinned, sql)?;
            }
            Ok(())
        },
    );
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
            // The fold, IN lists and top-k are plan-independent.
            for sql in [
                "SELECT COUNT(*), SUM(v) FROM a WHERE k = 2",
                "SELECT COUNT(*), SUM(v) FROM c WHERE k >= 1 AND k <= 3",
                "SELECT k, v FROM b WHERE k IN (1, 3) ORDER BY v DESC, k LIMIT 5",
            ] {
                assert_plans_agree(&pinned, sql)?;
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// One access path: UPDATE and EXPLAIN read the scan's stored choice
// ---------------------------------------------------------------------------

/// One single-table conjunct over `t (k INTEGER, s VARCHAR(16))`, drawn by
/// `shape` from comparisons (either way round), `<>`, IN and LIKE, with
/// NULL constants (`a` = `None`), exact and empty LIKE patterns, and
/// constants the planner has to fold.
fn conjunct(shape: usize, a: Option<i64>, b: i64, text: &str) -> String {
    let a = a.map_or("NULL".to_string(), |v| v.to_string());
    match shape {
        0 => format!("k = {a}"),
        1 => format!("k < {a}"),
        2 => format!("{a} <= k"),
        3 => format!("k > {b} - 1"),
        4 => format!("k >= {a}"),
        5 => format!("k <> {a}"),
        6 => format!("{b} >= k"),
        7 => format!("NOT k = {a}"),
        8 => format!("k IN ({a}, {b})"),
        9 => format!("k NOT IN ({b}, {a})"),
        10 => format!("s = '{text}'"),
        11 => format!("s = CASE WHEN {b} > 3 THEN 'a{text}' ELSE 'b' END"),
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
        (6, _) => on_k(&|k| k.is_none_or(|k| k <= b)),
        (8, a) => on_k(&|k| k.is_some() && (k == a || k == Some(b))),
        (10, _) => on_s(&|s| s == text),
        (11, _) if b > 3 => on_s(&|s| s == format!("a{text}")),
        (11, _) => on_s(&|s| s == "b"),
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
    // Enough cases for every conjunct shape to be drawn with and without a
    // NULL constant.
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
            let update = format!("UPDATE t SET k = k + 10, s = 'u' WHERE {predicate}");
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
    // BETWEEN is refused; its inverted range spelled as two comparisons
    // probes one bound and filters by the other, and keeps no row.
    let (indexed, plain) = nullable_twins(&[(Some(1), "a".into()), (Some(5), "b".into())]);
    let between = "SELECT k FROM t WHERE k BETWEEN 5 AND 1";
    assert_eq!(
        minisql::parse(between).unwrap_err().message,
        "BETWEEN is not supported"
    );
    let sql = "SELECT k FROM t WHERE k >= 5 AND k <= 1";
    assert!(query(&indexed, sql).is_empty());
    assert!(query(&plain, sql).is_empty());
    let negated = "SELECT k FROM t WHERE NOT (k >= 5 AND k <= 1) ORDER BY 1";
    assert_eq!(query(&indexed, negated), query(&plain, negated));
    assert_eq!(query(&indexed, negated).len(), 2);
}
