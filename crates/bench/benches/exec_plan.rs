//! E11 — query-executor plan payoff.
//!
//! Measures the planner's four optimizations head-to-head against the
//! baseline executor ([`PlanOptions::baseline`]: full scans, nested-loop
//! joins, full sorts), running `exec::run_select_with_options` directly
//! against a state snapshot so the result cache cannot serve either side.
//!
//! Acceptance floors, asserted here so regressions fail the run:
//!
//! 1. **1k×1k equi-join**: hash join ≥ 10× faster than the nested loop
//!    (`exec_hash_join_speedup`).
//! 2. **Indexed point-lookup join**: predicate pushdown re-enabling the
//!    index probe under a join ≥ 5× faster than the unplanned query
//!    (`exec_indexed_join_speedup`).
//!
//! Also reported (no floor): the pushdown-only ablation with hash joins on
//! both sides, top-k vs full sort at LIMIT 10, and a join scale sweep.

use dbgw_obs::RequestCtx;
use dbgw_testkit::bench::Suite;
use dbgw_testkit::rng::Rng;
use minisql::ast::Statement;
use minisql::exec::run_select_with_options;
use minisql::state::DbState;
use minisql::{Database, PlanOptions, Value};
use std::hint::black_box;
use std::time::Instant;

/// `cust` (id indexed) and `ords` (cust_id indexed), `n` rows each; every
/// order's cust_id hits an existing customer so the equi-join yields n rows.
fn join_db(n: usize) -> DbState {
    let db = Database::new();
    db.run_script(
        "CREATE TABLE cust (id INTEGER, region INTEGER);
         CREATE TABLE ords (cust_id INTEGER, amount INTEGER);
         CREATE INDEX cust_id_idx ON cust (id);
         CREATE INDEX ords_cust_idx ON ords (cust_id)",
    )
    .unwrap();
    let mut rng = Rng::new(0x1996_0206);
    let mut conn = db.connect();
    for i in 0..n {
        conn.execute_with_params(
            "INSERT INTO cust VALUES (?, ?)",
            &[
                Value::Int(i as i64),
                Value::Int((rng.next_u64() % 8) as i64),
            ],
        )
        .unwrap();
    }
    for _ in 0..n {
        conn.execute_with_params(
            "INSERT INTO ords VALUES (?, ?)",
            &[
                Value::Int((rng.next_u64() % n as u64) as i64),
                Value::Int((rng.next_u64() % 500) as i64),
            ],
        )
        .unwrap();
    }
    db.snapshot()
}

fn parse_select(sql: &str) -> minisql::ast::Select {
    match minisql::parse(sql).unwrap() {
        Statement::Select(s) => s,
        _ => panic!("not a select: {sql}"),
    }
}

/// Mean nanoseconds per execution of `sql` under `opts`.
fn time_per_exec(state: &DbState, sql: &str, opts: &PlanOptions, iters: u32) -> f64 {
    let sel = parse_select(sql);
    let ctx = RequestCtx::unbounded();
    let start = Instant::now();
    for _ in 0..iters {
        let rows = run_select_with_options(state, black_box(&sel), &[], &ctx, opts).unwrap();
        black_box(rows);
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok();
    let n = if quick { 200 } else { 1_000 };
    let st = join_db(n);
    let all = PlanOptions::default();
    let base = PlanOptions::baseline();

    let mut suite = Suite::new("exec_plan");

    // 1. n×n equi-join: hash vs nested loop. One baseline iteration walks
    //    n*n pairs, so keep its iteration count low.
    let join_sql = "SELECT cust.region, ords.amount FROM cust \
                    JOIN ords ON cust.id = ords.cust_id";
    let hash_ns = time_per_exec(&st, join_sql, &all, if quick { 10 } else { 40 });
    let nested_ns = time_per_exec(&st, join_sql, &base, if quick { 3 } else { 5 });
    let join_speedup = nested_ns / hash_ns;
    suite.record_metric("exec_join_rows_per_side", n as f64);
    suite.record_metric("exec_hash_join_ns", hash_ns);
    suite.record_metric("exec_nested_join_ns", nested_ns);
    suite.record_metric("exec_hash_join_speedup", join_speedup);
    assert!(
        join_speedup >= 10.0,
        "hash equi-join must be at least 10x the nested loop at {n}x{n} \
         (hash {hash_ns:.0} ns, nested {nested_ns:.0} ns, {join_speedup:.1}x)"
    );

    // 2. Point lookup under a join: pushdown must re-enable the cust.id
    //    index probe even though a join is present.
    let point_sql = "SELECT cust.region, ords.amount FROM cust \
                     JOIN ords ON cust.id = ords.cust_id WHERE cust.id = 500";
    let probe_ns = time_per_exec(&st, point_sql, &all, if quick { 20 } else { 100 });
    let walk_ns = time_per_exec(&st, point_sql, &base, if quick { 3 } else { 5 });
    let point_speedup = walk_ns / probe_ns;
    suite.record_metric("exec_indexed_join_ns", probe_ns);
    suite.record_metric("exec_unplanned_join_ns", walk_ns);
    suite.record_metric("exec_indexed_join_speedup", point_speedup);
    assert!(
        point_speedup >= 5.0,
        "indexed point-lookup join must be at least 5x the unplanned query \
         (probe {probe_ns:.0} ns, walk {walk_ns:.0} ns, {point_speedup:.1}x)"
    );

    // 3. Ablation: pushdown + index paths with hash joins on BOTH sides —
    //    isolates the access-path win from the join-strategy win.
    let hash_only = PlanOptions {
        pushdown: false,
        index_paths: false,
        ..all
    };
    let no_push_ns = time_per_exec(&st, point_sql, &hash_only, if quick { 10 } else { 40 });
    suite.record_metric("exec_pushdown_ablation_ns", no_push_ns);
    suite.record_metric("exec_pushdown_speedup", no_push_ns / probe_ns);

    // 4. Top-k ORDER BY … LIMIT 10 vs a full sort of the join result.
    let topk_sql = "SELECT ords.amount FROM cust JOIN ords ON cust.id = ords.cust_id \
                    ORDER BY ords.amount DESC LIMIT 10";
    let topk_on = time_per_exec(&st, topk_sql, &all, if quick { 10 } else { 40 });
    let topk_off = time_per_exec(
        &st,
        topk_sql,
        &PlanOptions { topk: false, ..all },
        if quick { 10 } else { 40 },
    );
    suite.record_metric("exec_topk_ns", topk_on);
    suite.record_metric("exec_full_sort_ns", topk_off);
    suite.record_metric("exec_topk_speedup", topk_off / topk_on);

    // 5. Scale sweep: hash-join time should grow ~linearly with n.
    if !quick {
        for scale in [250usize, 500, 1_000] {
            let st = join_db(scale);
            let ns = time_per_exec(&st, join_sql, &all, 20);
            suite.record_metric(&format!("exec_hash_join_ns_n{scale}"), ns);
        }
    }

    suite.finish();
    println!(
        "# exec_plan: hash join {join_speedup:.1}x over nested loop at {n}x{n}, \
         indexed point join {point_speedup:.1}x"
    );
}
