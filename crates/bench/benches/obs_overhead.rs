//! E13 — digest + passive-ANALYZE overhead guard.
//!
//! The query-digest table and passive plan capture (slow-log EXPLAIN
//! ANALYZE summaries) sit on the per-statement hot path: every execution
//! pays one digest-text scan, an FNV hash, one sharded store update, and —
//! with passive capture on — a collector install plus two clock reads per
//! operator. The acceptance bar is that the whole observability layer costs
//! **under 5% throughput** on a single-table executor workload (a filtered
//! scan of E11's `ords` table with rotating literals), measured on-vs-off in
//! interleaved min-of-k batches so machine noise cannot fake a pass or a
//! fail.
//!
//! Rotating the parameter keeps the SQL result cache missing (every key is
//! new) while the statement cache hits (constant text) and every execution
//! folds into a *single* digest row — which the run also asserts, as a
//! functional check that masking aggregates the workload's shape.

use dbgw_testkit::bench::Suite;
use dbgw_testkit::rng::Rng;
use minisql::{Database, Value};
use std::hint::black_box;
use std::time::Instant;

/// E11's `ords` table, `n` rows.
fn ords_db(n: usize) -> Database {
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
    db
}

const SCAN_SQL: &str = "SELECT cust_id, amount FROM ords WHERE amount > ? AND cust_id <> ?";

/// Nanoseconds for one batch of `batch` scan queries with rotating
/// parameters (`serial` keeps every result-cache key unique across batches).
fn run_batch(db: &Database, batch: usize, serial: &mut i64) -> f64 {
    let mut conn = db.connect();
    let start = Instant::now();
    for _ in 0..batch {
        *serial += 1;
        let rows = conn
            .execute_with_params(
                black_box(SCAN_SQL),
                &[Value::Int(250), Value::Int(-*serial)],
            )
            .unwrap();
        black_box(rows);
    }
    start.elapsed().as_nanos() as f64 / batch as f64
}

fn main() {
    let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");
    // Quick mode trims repetitions, NOT the table size: a query of ~75 µs
    // makes the fixed per-statement cost a noisy 3-9% of it, which would
    // flake a 5% gate. At n=3000 (~370 µs/query on a 2-core host) the same
    // cost measures well under 1%, and the whole measured section stays
    // near a second, so CI pays mostly the seeding time.
    let n = 3_000;
    let batch = 25;
    let reps = if quick { 25 } else { 61 };
    let store = dbgw_obs::digests();
    // Seed with recording off so the measured scan is the only shape in the
    // store and `top_by_calls` below is unambiguous.
    store.set_enabled(false);
    let db = ords_db(n);
    let mut serial = 0i64;

    let run_off = |serial: &mut i64| {
        store.set_enabled(false);
        minisql::analyze::set_passive_capture(false);
        run_batch(&db, batch, serial)
    };
    let run_on = |serial: &mut i64| {
        store.set_enabled(true);
        minisql::analyze::set_passive_capture(true);
        run_batch(&db, batch, serial)
    };

    // Paired batches, order alternating per rep. The two halves of a pair
    // run milliseconds apart, so machine drift (co-tenant load, frequency
    // shifts — this often runs on a shared 1-core container) hits both
    // sides almost equally and cancels in the per-pair ratio; alternating
    // which mode goes first cancels any residual within-pair slope; the
    // MEDIAN ratio then shrugs off pairs that straddled a hiccup. A plain
    // min-of-k over unpaired batches measured anywhere from -5% to +15%
    // on the same build; this estimator repeats within ~1 point.
    let mut off_ns = f64::INFINITY;
    let mut on_ns = f64::INFINITY;
    let mut ratios = Vec::with_capacity(reps);
    for rep in 0..reps {
        let (off, on) = if rep % 2 == 0 {
            let off = run_off(&mut serial);
            (off, run_on(&mut serial))
        } else {
            let on = run_on(&mut serial);
            (run_off(&mut serial), on)
        };
        off_ns = off_ns.min(off);
        on_ns = on_ns.min(on);
        ratios.push(on / off);
    }
    // Leave the process defaults on for anything that runs after us.
    store.set_enabled(true);
    minisql::analyze::set_passive_capture(false);

    ratios.sort_by(|a, b| a.total_cmp(b));
    let overhead_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;

    // Functional sanity: rotating literals must have folded into ONE digest
    // shape, with every instrumented execution accounted for.
    let top = store.top_by_calls(1);
    let shape = top.first().expect("digest recorded");
    assert!(
        shape.text.contains("where amount > ? and cust_id <> ?"),
        "unexpected top digest shape: {}",
        shape.text
    );
    assert_eq!(
        shape.calls,
        (reps * batch) as u64,
        "every on-mode execution should fold into the single masked shape"
    );

    let mut suite = Suite::new("obs_overhead");
    suite.record_metric("obs_scan_rows", n as f64);
    suite.record_metric("obs_batch_size", batch as f64);
    suite.record_metric("obs_off_ns_per_query", off_ns);
    suite.record_metric("obs_on_ns_per_query", on_ns);
    suite.record_metric("obs_overhead_pct", overhead_pct);
    suite.record_metric("obs_digest_calls", shape.calls as f64);
    suite.finish();
    println!(
        "# obs_overhead: digests+passive-ANALYZE cost {overhead_pct:.2}% \
         (off {off_ns:.0} ns/query, on {on_ns:.0} ns/query)"
    );
    assert!(
        overhead_pct < 5.0,
        "observability layer must cost under 5% on the single-table scan workload \
         (off {off_ns:.0} ns, on {on_ns:.0} ns, {overhead_pct:.2}%)"
    );
}
