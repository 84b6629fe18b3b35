//! E11 — query-executor plan payoff.
//!
//! Measures the planner's single-table optimizations head-to-head against
//! the baseline executor ([`PlanOptions::baseline`]: full scans, full
//! sorts), running `exec::run_select_with_options` directly against a state
//! snapshot so the result cache cannot serve either side.
//!
//! Reported (no floor): top-k vs full sort at `ORDER BY … LIMIT 10`. A
//! SELECT reads one table or none and set operations are refused, so the
//! join rows, their floors and the UNION ALL / EXCEPT ALL rows are gone.
//!
//! The `urlquery` row runs the paper's Appendix A search — 500 distinct
//! `title LIKE '%s%' OR description LIKE '%s%'` SELECTs over a 10 000-row
//! `urldb` — against the same rows in two layouts: as literal INSERT
//! batches of 500 left them, and reopened from a checkpoint. Each set runs
//! every search over both, alternating in turns of 25 searches which layout
//! goes first. It records µs per query for each layout and their ratio
//! (loaded over reopened, the median over the sets); quick mode asserts the
//! ratio is at most 1.15, because a full scan should not pay for the order
//! its table was loaded in.

use dbgw_obs::RequestCtx;
use dbgw_testkit::bench::Suite;
use dbgw_testkit::rng::Rng;
use dbgw_workload::ScanFixture;
use minisql::ast::Statement;
use minisql::exec::run_select_with_options;
use minisql::state::DbState;
use minisql::{Database, PlanOptions, Value};
use std::hint::black_box;
use std::time::Instant;

/// Rows of the `urldb` the `urlquery` row searches, and its search strings.
const URL_ROWS: usize = 10_000;
const SEARCHES: usize = 500;
/// Rows per literal INSERT, as the load rig and `DTW_DB_SCRIPT` batch them.
const INSERT_BATCH: usize = 500;
/// The layout-independence gate on the `urlquery` ratio.
const MAX_LAYOUT_RATIO: f64 = 1.15;

/// `ords` (cust_id, amount), `n` rows.
fn shop_db(n: usize) -> DbState {
    let db = Database::new();
    db.run_script("CREATE TABLE ords (cust_id INTEGER, amount INTEGER)")
        .unwrap();
    let mut rng = Rng::new(0x1996_0206);
    let mut conn = db.connect();
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

/// The `urldb` as its INSERT batches left it, and the same rows reopened
/// from a checkpoint of a durable database in `dir`.
fn urldb_layouts(script: &[String], dir: &std::path::Path) -> (DbState, DbState) {
    let _ = std::fs::remove_dir_all(dir);
    let db = Database::open(dir).unwrap();
    let mut conn = db.connect();
    for sql in script {
        conn.execute(sql).unwrap();
    }
    let loaded = db.snapshot();
    db.checkpoint_now().unwrap();
    db.close();
    drop((conn, db));
    let reopened = Database::open(dir).unwrap().snapshot();
    std::fs::remove_dir_all(dir).unwrap();
    (loaded, reopened)
}

/// Searches per turn of [`urlquery_set`]'s alternation.
const TURN: usize = 25;

/// Mean µs per query of one pass of `searches` over each of `layouts`,
/// taken in turns of [`TURN`] searches that alternate which layout runs
/// first, so that a drift in the host's speed lands on both.
fn urlquery_set(layouts: [&DbState; 2], searches: &[minisql::ast::Select]) -> [f64; 2] {
    let ctx = RequestCtx::unbounded();
    let opts = PlanOptions::default();
    let mut total = [0.0; 2];
    for (turn, chunk) in searches.chunks(TURN).enumerate() {
        for which in [turn % 2, 1 - turn % 2] {
            let start = Instant::now();
            for sel in chunk {
                let rows =
                    run_select_with_options(layouts[which], black_box(sel), &[], &ctx, &opts);
                black_box(rows.unwrap());
            }
            total[which] += start.elapsed().as_secs_f64();
        }
    }
    total.map(|secs| secs * 1e6 / searches.len() as f64)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok();
    let n = if quick { 200 } else { 1_000 };
    let st = shop_db(n);
    let all = PlanOptions::default();
    let iters = if quick { 10 } else { 40 };

    let mut suite = Suite::new("exec_plan");
    suite.record_metric("exec_rows_per_table", n as f64);

    // 1. Top-k ORDER BY … LIMIT 10 vs a full sort of the table.
    let topk_sql = "SELECT amount FROM ords ORDER BY amount DESC LIMIT 10";
    let topk_on = time_per_exec(&st, topk_sql, &all, iters);
    let topk_off = time_per_exec(&st, topk_sql, &PlanOptions { topk: false, ..all }, iters);
    suite.record_metric("exec_topk_ns", topk_on);
    suite.record_metric("exec_full_sort_ns", topk_off);
    suite.record_metric("exec_topk_speedup", topk_off / topk_on);

    // 2. The Appendix A search over both layouts of one urldb, in
    //    alternating sets.
    let fixture = ScanFixture::generate(URL_ROWS, INSERT_BATCH, SEARCHES, 0x1996_0604);
    let mut script = vec![
        ScanFixture::SCHEMA.to_owned(),
        "CREATE INDEX urldb_title ON urldb (title)".to_owned(),
    ];
    script.extend(fixture.inserts);
    let searches: Vec<_> = (fixture.searches.iter())
        .map(|s| parse_select(&ScanFixture::search_sql(s)))
        .collect();
    let dir = std::env::temp_dir().join(format!("dbgw-bench-urlquery-{}", std::process::id()));
    let (loaded, reopened) = urldb_layouts(&script, &dir);
    let sets = if quick { 3 } else { 7 };
    let (mut loaded_us, mut reopened_us, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..sets {
        let [l, r] = urlquery_set([&loaded, &reopened], &searches);
        loaded_us.push(l);
        reopened_us.push(r);
        ratios.push(l / r);
    }
    let ratio = median(ratios);
    suite.record_metric("exec_urlquery_loaded_us", median(loaded_us));
    suite.record_metric("exec_urlquery_reopened_us", median(reopened_us));
    suite.record_metric("exec_urlquery_layout_ratio", ratio);

    suite.finish();
    println!(
        "# exec_plan: top-k {:.1}x over a full sort at n={n}; urlquery loaded/reopened {ratio:.2}",
        topk_off / topk_on
    );
    if quick {
        assert!(
            ratio <= MAX_LAYOUT_RATIO,
            "urlquery runs {ratio:.2}x slower over the INSERT-loaded urldb than over the \
             reopened one (gate {MAX_LAYOUT_RATIO})"
        );
    }
}
