//! Property: plan selection never changes results.
//!
//! Two families of soundness checks on `plan::plan_select` + the executor:
//!
//! 1. **Access paths** — the planner turns eligible WHERE conjuncts into
//!    index probes; since every candidate row is re-checked against the full
//!    predicate, an indexed table must answer every query identically to an
//!    unindexed copy of the same data.
//! 2. **Join strategy + pushdown + top-k** — running the same query under
//!    [`PlanOptions::all`] (hash joins, predicate pushdown, index paths,
//!    bounded-heap ORDER BY…LIMIT) and [`PlanOptions::baseline`] (nested
//!    loops, no pushdown, full sorts) must produce identical results over
//!    randomized schemas including LEFT OUTER joins, NULL join keys, and
//!    mixed equi/non-equi ON conditions. Failures found while developing the
//!    planner are pinned as named regression tests below the properties.
//! 3. **One access path** — UPDATE and DELETE find their rows by the scan a
//!    SELECT plans, so an indexed table must end in the same rows as an
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
            conn.execute(&format!("DELETE FROM t WHERE k = {}", target + 1)).unwrap();
        }
        let q = "SELECT k, s FROM t ORDER BY 1, 2";
        prop_assert_eq!(query(&indexed, q), query(&plain, q));
        // And the index still answers point queries correctly post-DML.
        let q2 = format!("SELECT COUNT(*) FROM t WHERE k = {}", target + 100);
        prop_assert_eq!(query(&indexed, &q2), query(&plain, &q2));
    }
}

// ---------------------------------------------------------------------------
// Join strategy / pushdown / top-k equivalence
// ---------------------------------------------------------------------------

/// Two joinable tables with nullable integer keys, loaded from row specs;
/// both key columns are indexed so the pushdown path can take index probes.
/// Returns a state snapshot so queries run straight through the executor
/// with explicit [`PlanOptions`] — bypassing the result cache, which would
/// otherwise serve the second plan's query from the first plan's answer.
fn join_state(left: &[(Option<i64>, i64)], right: &[(Option<i64>, i64)]) -> DbState {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE a (k INTEGER, v INTEGER);
         CREATE TABLE b (k INTEGER, w INTEGER);
         CREATE INDEX a_k ON a (k);
         CREATE INDEX b_k ON b (k)",
    )
    .unwrap();
    let mut conn = db.connect();
    let val = |k: &Option<i64>| k.map(Value::Int).unwrap_or(Value::Null);
    for (k, v) in left {
        conn.execute_with_params("INSERT INTO a VALUES (?, ?)", &[val(k), Value::Int(*v)])
            .unwrap();
    }
    for (k, w) in right {
        conn.execute_with_params("INSERT INTO b VALUES (?, ?)", &[val(k), Value::Int(*w)])
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
/// identical row order — the executor guarantees hash joins and top-k emit
/// rows in nested-loop/full-sort order, so everything except hash-grouped
/// output is compared exactly.
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

    fn hash_join_matches_nested_loop(
        left in vec_of((option_of(ints(0..6)), ints(0..50)), 0..=20),
        right in vec_of((option_of(ints(0..6)), ints(0..50)), 0..=20),
        c in ints(0..6),
        d in ints(0..50),
    ) {
        let st = join_state(&left, &right);
        // Ordered comparison: hash joins must preserve nested-loop order.
        let exact = [
            "SELECT a.k, a.v, b.k, b.w FROM a JOIN b ON a.k = b.k".to_string(),
            "SELECT a.k, a.v, b.k, b.w FROM a LEFT JOIN b ON a.k = b.k".to_string(),
            format!("SELECT a.k, b.w FROM a JOIN b ON a.k = b.k AND b.w > {d}"),
            format!("SELECT a.k, b.w FROM a LEFT JOIN b ON a.k = b.k AND b.w > {d}"),
            format!("SELECT a.v, b.w FROM a JOIN b ON a.k = b.k WHERE a.v < {d} AND b.w >= {c}"),
            "SELECT a.k FROM a LEFT JOIN b ON a.k = b.k WHERE b.k IS NULL".to_string(),
            format!("SELECT a.k, a.v FROM a JOIN b ON a.k = b.k WHERE a.k = {c}"),
            "SELECT a.k, a.v FROM a JOIN b ON a.k = b.k ORDER BY a.v, b.w LIMIT 5".to_string(),
            "SELECT a.v, b.w FROM a JOIN b ON a.v = b.w AND a.k = b.k".to_string(),
        ];
        for q in &exact {
            if let Err(msg) = assert_plans_agree(&st, q, true) {
                prop_assert_eq!(true, false, "{msg}");
            }
        }
        // Multiset comparison: grouped output order is hash-map dependent.
        let multiset = [
            "SELECT a.k, COUNT(*) FROM a JOIN b ON a.k = b.k GROUP BY a.k".to_string(),
        ];
        for q in &multiset {
            if let Err(msg) = assert_plans_agree(&st, q, false) {
                prop_assert_eq!(true, false, "{msg}");
            }
        }
    }

    fn topk_matches_full_sort(
        rows in vec_of((option_of(ints(0..8)), ints(0..50)), 0..=30),
        k in ints(1..8),
        off in ints(0..4),
    ) {
        let st = join_state(&rows, &[]);
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

// Pinned counterexamples: edge cases the randomized suite is not guaranteed
// to hit every run, kept as named regressions.

#[test]
fn pinned_null_keys_never_match_in_either_join() {
    let st = join_state(&[(None, 1), (Some(1), 2)], &[(None, 10), (Some(1), 20)]);
    assert_plans_agree(&st, "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k", true).unwrap();
    let outer = run_opts(
        &st,
        "SELECT a.v, b.w FROM a LEFT JOIN b ON a.k = b.k ORDER BY 1",
        &PlanOptions::default(),
    );
    // NULL key row is padded, never matched against the NULL on the right.
    assert_eq!(
        outer,
        vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::Int(20)],
        ]
    );
    assert_plans_agree(&st, "SELECT a.v, b.w FROM a LEFT JOIN b ON a.k = b.k", true).unwrap();
}

#[test]
fn pinned_is_null_probe_right_of_left_join_stays_above_join() {
    // `b.k IS NULL` must filter *after* padding — pushing it into b's scan
    // would select only NULL-keyed b rows and corrupt the anti-join idiom.
    let st = join_state(&[(Some(1), 1), (Some(2), 2)], &[(Some(1), 10)]);
    let rows = run_opts(
        &st,
        "SELECT a.v FROM a LEFT JOIN b ON a.k = b.k WHERE b.k IS NULL",
        &PlanOptions::default(),
    );
    assert_eq!(rows, vec![vec![Value::Int(2)]]);
    assert_plans_agree(
        &st,
        "SELECT a.v FROM a LEFT JOIN b ON a.k = b.k WHERE b.k IS NULL",
        true,
    )
    .unwrap();
}

#[test]
fn pinned_cross_type_numeric_keys_hash_alike() {
    // Int(3) = Double(3.0) is TRUE under SQL comparison; the hash table must
    // agree (Value's Hash impl hashes all numerics via their f64 image).
    let db = Database::new();
    db.run_script(
        "CREATE TABLE a (k INTEGER, v INTEGER);
         CREATE TABLE b (k DOUBLE, w INTEGER);
         INSERT INTO a VALUES (3, 1);
         INSERT INTO b VALUES (3.0, 10);
         INSERT INTO b VALUES (3.5, 20)",
    )
    .unwrap();
    let st = db.snapshot();
    let sql = "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k";
    assert_plans_agree(&st, sql, true).unwrap();
    assert_eq!(
        run_opts(&st, sql, &PlanOptions::default()),
        vec![vec![Value::Int(1), Value::Int(10)]]
    );
}

#[test]
fn pinned_empty_build_side() {
    let st = join_state(&[(Some(1), 1), (Some(2), 2)], &[]);
    assert_plans_agree(&st, "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k", true).unwrap();
    let outer = run_opts(
        &st,
        "SELECT a.v, b.w FROM a LEFT JOIN b ON a.k = b.k ORDER BY 1",
        &PlanOptions::default(),
    );
    assert_eq!(
        outer,
        vec![
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::Null],
        ]
    );
    // Empty probe side too.
    let st2 = join_state(&[], &[(Some(1), 1)]);
    assert_plans_agree(&st2, "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k", true).unwrap();
    assert_plans_agree(
        &st2,
        "SELECT a.v, b.w FROM a LEFT JOIN b ON a.k = b.k",
        true,
    )
    .unwrap();
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
                    "DELETE FROM b WHERE k = ? AND w > ?",
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
                "SELECT a.k, a.v, b.w FROM a JOIN b ON a.k = b.k WHERE a.v < 500",
                "SELECT a.k, a.v FROM a LEFT JOIN b ON a.k = b.k AND b.w > 40",
                "SELECT a.k, a.v FROM a WHERE a.k = 3 ORDER BY a.v LIMIT 4",
                "SELECT a.k FROM a LEFT JOIN b ON a.k = b.k WHERE b.k IS NULL",
            ] {
                assert_plans_agree(&pinned, sql, true)?;
            }
            assert_plans_agree(
                &pinned,
                "SELECT a.k, COUNT(*) FROM a JOIN b ON a.k = b.k GROUP BY a.k",
                false,
            )?;
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
                "SELECT a.k, a.v, b.w FROM a JOIN b ON a.k = b.k",
                "SELECT a.k, a.v FROM a WHERE a.k = 2",
                "SELECT a.v, b.w FROM a JOIN b ON a.k = b.k WHERE b.w >= 21 ORDER BY a.v LIMIT 6",
            ] {
                assert_plans_agree(&pinned, sql, true)?;
            }
            Ok(())
        },
    );
}

#[test]
fn pinned_pushdown_survives_three_way_join() {
    let st = {
        let db = Database::new();
        db.run_script(
            "CREATE TABLE a (k INTEGER, v INTEGER);
             CREATE TABLE b (k INTEGER, w INTEGER);
             CREATE TABLE c (k INTEGER, u INTEGER);
             INSERT INTO a VALUES (1, 1); INSERT INTO a VALUES (2, 2);
             INSERT INTO b VALUES (1, 10); INSERT INTO b VALUES (2, 20);
             INSERT INTO c VALUES (1, 100); INSERT INTO c VALUES (2, 200)",
        )
        .unwrap();
        db.snapshot()
    };
    let sql = "SELECT a.v, b.w, c.u FROM a \
               JOIN b ON a.k = b.k JOIN c ON b.k = c.k \
               WHERE c.u > 100 AND a.v < 10";
    assert_plans_agree(&st, sql, true).unwrap();
    assert_eq!(
        run_opts(&st, sql, &PlanOptions::default()),
        vec![vec![Value::Int(2), Value::Int(20), Value::Int(200)]]
    );
}

// ---------------------------------------------------------------------------
// Cost-based join ordering: plan choice must never change results
// ---------------------------------------------------------------------------
//
// The cost model is free to pick any join order for an eligible multi-way
// inner join; these properties pin the soundness contract: every order the
// greedy model can choose produces the same multiset of rows as the
// syntactic baseline. Reordering is compared both against the full baseline
// (nested loops, no pushdown) and against the optimized-but-unreordered
// plan, isolating the rewrite itself.

/// `PlanOptions::all` with only the cost-based reordering disabled.
fn no_reorder() -> PlanOptions {
    PlanOptions {
        reorder: false,
        ..PlanOptions::default()
    }
}

/// Assert that optimized (reordered), optimized-unreordered, and baseline
/// plans agree as multisets for one query.
fn assert_orders_agree(state: &DbState, sql: &str) -> Result<(), String> {
    let reordered = canon(run_opts(state, sql, &PlanOptions::default()));
    let syntactic = canon(run_opts(state, sql, &no_reorder()));
    let baseline = canon(run_opts(state, sql, &PlanOptions::baseline()));
    if reordered != syntactic {
        return Err(format!(
            "reordering changed results for {sql}:\n  reordered: {reordered:?}\n  syntactic: {syntactic:?}"
        ));
    }
    if reordered != baseline {
        return Err(format!(
            "optimized != baseline for {sql}:\n  optimized: {reordered:?}\n  baseline:  {baseline:?}"
        ));
    }
    Ok(())
}

/// Four joinable tables with indexed keys, loaded from row specs.
fn graph_state(a: &[(i64, i64)], b: &[(i64, i64)], c: &[(i64, i64)], d: &[(i64, i64)]) -> DbState {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE a (k INTEGER, v INTEGER);
         CREATE TABLE b (k INTEGER, v INTEGER);
         CREATE TABLE c (k INTEGER, v INTEGER);
         CREATE TABLE d (k INTEGER, v INTEGER);
         CREATE INDEX a_k ON a (k);
         CREATE INDEX c_k ON c (k)",
    )
    .unwrap();
    let mut conn = db.connect();
    for (table, rows) in [("a", a), ("b", b), ("c", c), ("d", d)] {
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

props! {
    config(cases = 32);

    fn join_order_choice_is_invariant(
        a in vec_of((ints(0..4), ints(0..40)), 0..=10),
        b in vec_of((ints(0..4), ints(0..40)), 0..=10),
        c in vec_of((ints(0..4), ints(0..40)), 0..=10),
        d in vec_of((ints(0..4), ints(0..40)), 0..=10),
        x in ints(0..40),
    ) {
        let st = graph_state(&a, &b, &c, &d);
        let queries = [
            // Chain graph, WHERE filter on the syntactically-first table.
            format!(
                "SELECT a.v, b.v, c.v, d.v FROM a \
                 JOIN b ON a.k = b.k JOIN c ON b.k = c.k JOIN d ON c.k = d.k \
                 WHERE a.v < {x}"
            ),
            // Star graph around `a`, filter on the last table.
            format!(
                "SELECT a.v, b.v, c.v, d.v FROM a \
                 JOIN b ON a.k = b.k JOIN c ON a.k = c.k JOIN d ON a.k = d.k \
                 WHERE d.v >= {x}"
            ),
            // Comma joins: the same graph written entirely in WHERE.
            format!(
                "SELECT a.v, b.v, c.v FROM a, b, c \
                 WHERE a.k = b.k AND b.k = c.k AND c.v < {x}"
            ),
            // Disconnected component: `c` joins by a trivial condition, so
            // the greedy order must park the cross join without losing rows.
            format!(
                "SELECT a.v, b.v, c.v FROM a \
                 JOIN b ON a.k = b.k JOIN c ON 1 = 1 WHERE c.v < {x}"
            ),
            // Deterministic output: a full ORDER BY pins the rows exactly.
            format!(
                "SELECT a.v, b.v, c.v FROM a \
                 JOIN b ON a.k = b.k JOIN c ON b.k = c.k \
                 WHERE b.v <= {x} ORDER BY 1, 2, 3 LIMIT 7"
            ),
        ];
        for q in &queries {
            if let Err(msg) = assert_orders_agree(&st, q) {
                prop_assert_eq!(true, false, "{msg}");
            }
        }
    }
}

#[test]
fn pinned_reorder_handles_empty_and_skewed_tables() {
    // Empty middle table, heavily skewed edges: orders that start from the
    // empty table must still produce the (empty) correct answer.
    let big: Vec<(i64, i64)> = (0..50).map(|i| (i % 3, i)).collect();
    let st = graph_state(&big, &[], &[(0, 1), (1, 2)], &[(2, 9)]);
    for sql in [
        "SELECT a.v, b.v, c.v FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k",
        "SELECT a.v, c.v, d.v FROM a JOIN c ON a.k = c.k JOIN d ON c.k = d.k",
        "SELECT a.v, c.v, d.v FROM a, c, d WHERE a.k = c.k AND c.k = d.k AND a.v < 10",
    ] {
        assert_orders_agree(&st, sql).unwrap();
    }
}

#[test]
fn pinned_reorder_ineligible_shapes_run_unchanged() {
    let st = graph_state(&[(0, 1), (1, 2)], &[(0, 10)], &[(0, 100)], &[]);
    // LEFT JOIN anywhere, bare `*`, and duplicate table names must bypass
    // the rewrite entirely — and still agree with baseline.
    for sql in [
        "SELECT a.v, b.v, c.v FROM a JOIN b ON a.k = b.k LEFT JOIN c ON b.k = c.k",
        "SELECT a.v, b.v, c.v FROM a LEFT JOIN b ON a.k = b.k JOIN c ON a.k = c.k",
    ] {
        assert_plans_agree(&st, sql, true).unwrap();
    }
    let star = canon(run_opts(
        &st,
        "SELECT * FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k",
        &PlanOptions::default(),
    ));
    let star_base = canon(run_opts(
        &st,
        "SELECT * FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k",
        &PlanOptions::baseline(),
    ));
    assert_eq!(star, star_base);
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
// Window functions ≡ an O(n²) reference implementation
// ---------------------------------------------------------------------------

/// Reference window computation over `(k, v)` rows in insertion order:
/// partitions by `k`, orders by `v` (stable on insertion order), and emits
/// `[k, v, ROW_NUMBER, RANK, running SUM(v)]` per row with the default
/// RANGE frame (partition start through the current peer group).
fn ref_windows(rows: &[(i64, i64)]) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    let mut seen_parts: Vec<i64> = Vec::new();
    for (k, _) in rows {
        if !seen_parts.contains(k) {
            seen_parts.push(*k);
        }
    }
    for part in seen_parts {
        let mut members: Vec<(usize, i64)> = rows
            .iter()
            .enumerate()
            .filter(|(_, (k, _))| *k == part)
            .map(|(i, (_, v))| (i, *v))
            .collect();
        members.sort_by_key(|(i, v)| (*v, *i)); // stable order-by-v
        let n = members.len();
        let mut pos = 0;
        while pos < n {
            let mut end = pos + 1;
            while end < n && members[end].1 == members[pos].1 {
                end += 1;
            }
            let frame_sum: i64 = members[..end].iter().map(|(_, v)| v).sum();
            for (offset, (_, v)) in members[pos..end].iter().enumerate() {
                out.push(vec![
                    Value::Int(part),
                    Value::Int(*v),
                    Value::Int((pos + offset + 1) as i64), // ROW_NUMBER
                    Value::Int((pos + 1) as i64),          // RANK (with gaps)
                    Value::Int(frame_sum),                 // running SUM
                ]);
            }
            pos = end;
        }
    }
    out
}

props! {
    config(cases = 48);

    fn windows_match_quadratic_reference(
        rows in vec_of((ints(0..4), ints(0..6)), 0..=20),
    ) {
        let st = set_op_state(&rows, &[]);
        let sql = "SELECT k, v, \
                   ROW_NUMBER() OVER (PARTITION BY k ORDER BY v), \
                   RANK() OVER (PARTITION BY k ORDER BY v), \
                   SUM(v) OVER (PARTITION BY k ORDER BY v) \
                   FROM l";
        let got = canon(run_opts(&st, sql, &PlanOptions::default()));
        let want = canon(ref_windows(&rows));
        prop_assert_eq!(got, want, "window reference diverged");
        // Plan options must not matter for window computation.
        let base = canon(run_opts(&st, sql, &PlanOptions::baseline()));
        let fast = canon(run_opts(&st, sql, &PlanOptions::default()));
        prop_assert_eq!(fast, base);
    }

    fn unordered_window_sums_whole_partition(
        rows in vec_of((ints(0..3), ints(0..5)), 0..=16),
    ) {
        let st = set_op_state(&rows, &[]);
        // No ORDER BY in OVER: the frame is the entire partition.
        let sql = "SELECT k, v, SUM(v) OVER (PARTITION BY k) FROM l";
        let got = canon(run_opts(&st, sql, &PlanOptions::default()));
        let want = canon(
            rows.iter()
                .map(|(k, v)| {
                    let total: i64 = rows.iter().filter(|(k2, _)| k2 == k).map(|(_, v2)| v2).sum();
                    vec![Value::Int(*k), Value::Int(*v), Value::Int(total)]
                })
                .collect::<Vec<_>>(),
        );
        prop_assert_eq!(got, want);
    }
}

#[test]
fn pinned_window_edge_cases() {
    // Empty input, single row, all-ties, and a global (unpartitioned) window.
    let st = set_op_state(&[], &[]);
    assert!(run_opts(
        &st,
        "SELECT ROW_NUMBER() OVER (ORDER BY v) FROM l",
        &PlanOptions::default()
    )
    .is_empty());

    let st = set_op_state(&[(7, 3)], &[]);
    assert_eq!(
        run_opts(
            &st,
            "SELECT k, ROW_NUMBER() OVER (ORDER BY v), RANK() OVER (ORDER BY v) FROM l",
            &PlanOptions::default()
        ),
        vec![vec![Value::Int(7), Value::Int(1), Value::Int(1)]]
    );

    // All rows tie on the RANK key: RANK stays 1, ROW_NUMBER still counts.
    let st = set_op_state(&[(1, 5), (2, 5), (3, 5)], &[]);
    let rows = canon(run_opts(
        &st,
        "SELECT k, ROW_NUMBER() OVER (ORDER BY v), RANK() OVER (ORDER BY v) FROM l",
        &PlanOptions::default(),
    ));
    assert_eq!(
        rows.iter().map(|r| r[2].clone()).collect::<Vec<_>>(),
        vec![Value::Int(1); 3]
    );
    let mut rns: Vec<Value> = rows.iter().map(|r| r[1].clone()).collect();
    rns.sort_by(|a, b| a.order_key(b));
    assert_eq!(rns, vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
}

// ---------------------------------------------------------------------------
// Subqueries ≡ manual nested evaluation
// ---------------------------------------------------------------------------

props! {
    config(cases = 48);

    fn subqueries_match_nested_evaluation(
        l in vec_of((ints(0..5), ints(0..10)), 0..=14),
        r in vec_of((ints(0..5), ints(0..10)), 0..=14),
        cut in ints(0..10),
    ) {
        let st = set_op_state(&l, &r);

        // Scalar subquery: v > (SELECT MAX(v) FROM r). Empty r → NULL → no rows.
        let got = canon(run_opts(
            &st,
            "SELECT k, v FROM l WHERE v > (SELECT MAX(v) FROM r)",
            &PlanOptions::default(),
        ));
        let max_r = r.iter().map(|(_, v)| *v).max();
        let want: Vec<Vec<Value>> = match max_r {
            Some(m) => l
                .iter()
                .filter(|(_, v)| *v > m)
                .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
                .collect(),
            None => Vec::new(),
        };
        prop_assert_eq!(got, canon(want), "scalar subquery diverged");

        // IN subquery with an inner filter.
        let sql = format!("SELECT k, v FROM l WHERE k IN (SELECT k FROM r WHERE v > {cut})");
        let got = canon(run_opts(&st, &sql, &PlanOptions::default()));
        let keys: Vec<i64> = r.iter().filter(|(_, v)| *v > cut).map(|(k, _)| *k).collect();
        let want: Vec<Vec<Value>> = l
            .iter()
            .filter(|(k, _)| keys.contains(k))
            .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
            .collect();
        prop_assert_eq!(got, canon(want), "IN subquery diverged");

        // NOT IN over a non-NULL inner set.
        let sql = format!("SELECT k, v FROM l WHERE k NOT IN (SELECT k FROM r WHERE v > {cut})");
        let got = canon(run_opts(&st, &sql, &PlanOptions::default()));
        let want: Vec<Vec<Value>> = l
            .iter()
            .filter(|(k, _)| !keys.contains(k))
            .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
            .collect();
        prop_assert_eq!(got, canon(want), "NOT IN subquery diverged");

        // Uncorrelated EXISTS: all-or-nothing.
        let sql = format!("SELECT k, v FROM l WHERE EXISTS (SELECT 1 FROM r WHERE v > {cut})");
        let got = canon(run_opts(&st, &sql, &PlanOptions::default()));
        let want = if keys.is_empty() { Vec::new() } else { int_rows(&l) };
        prop_assert_eq!(got, canon(want), "EXISTS diverged");
    }
}

// ---------------------------------------------------------------------------
// New operators under concurrent-writer snapshots
// ---------------------------------------------------------------------------

#[test]
fn reordered_joins_and_new_operators_agree_on_churning_snapshots() {
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
                    &format!("DELETE FROM {table} WHERE k = ? AND v > ?"),
                    &[Value::Int(k), Value::Int(delta * 4)],
                ),
            }
            .map_err(|e| e.to_string())?;
            Ok(())
        },
        move || {
            let pinned = reader_db.pin();
            // Reordered 3-way joins: any cost-model order must equal the
            // syntactic baseline on this frozen snapshot.
            for sql in [
                "SELECT a.v, b.v, c.v FROM a JOIN b ON a.k = b.k JOIN c ON b.k = c.k \
                 WHERE a.v < 100",
                "SELECT a.v, b.v, c.v FROM a, b, c WHERE a.k = b.k AND a.k = c.k AND c.v >= 5",
            ] {
                assert_orders_agree(&pinned, sql)?;
            }
            // New operators: windows and set ops are plan-independent.
            for sql in [
                "SELECT k, SUM(v) OVER (PARTITION BY k) FROM a",
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
// One access path: UPDATE/DELETE and EXPLAIN read the scan's stored choice
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
    heap.iter().map(|(id, row)| (id.0, row.clone())).collect()
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
            let update = format!("UPDATE t SET k = k + 10, s = s || 'u' WHERE {predicate}");
            let delete = format!("DELETE FROM t WHERE {predicate}");
            counts.push((conn.execute(&update).unwrap(), conn.execute(&delete).unwrap()));
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
