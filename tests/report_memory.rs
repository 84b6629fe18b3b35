//! A cache-served report allocates no more per row at 40 000 rows than at
//! 4 000: the report reads the cached result in place, and each printed
//! value becomes text in a buffer reused from row to row.
//!
//! This file is its own test binary with a single test, because the
//! counting global allocator sees every thread of the process.

use dbgw_cache::CacheConfig;
use dbgw_cgi::MiniSqlDatabase;
use dbgw_core::{parse_macro, Engine, Mode, PageSink};
use dbgw_obs::CancelReason;
use minisql::Database;
use std::sync::atomic::Ordering;

mod counting_alloc;
use counting_alloc::ALLOCATIONS;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// A sink that keeps only the byte count.
struct Discard(usize);

impl PageSink for Discard {
    fn push(&mut self, text: &str) -> Result<(), CancelReason> {
        self.0 += text.len();
        Ok(())
    }
}

const REPORT: &str = "%SQL{
SELECT orderid, custid, product_name, quantity, price FROM orders ORDER BY orderid
%SQL_REPORT{<TABLE>
%ROW{<TR><TD>$(V1)</TD><TD>$(V2)</TD><TD>$(V3)</TD><TD>$(V4)</TD><TD>$(V5)</TD></TR>
%}</TABLE><P>$(ROW_NUM) order(s).</P>
%}
%}
%HTML_REPORT{%EXEC_SQL%}";

/// An `orders` table of `rows` rows, behind a result cache large enough to
/// hold all of them.
fn orders(rows: i64) -> Database {
    let db = Database::with_cache_config(&CacheConfig {
        max_bytes: 256 << 20,
    });
    db.run_script(
        "CREATE TABLE orders (orderid INTEGER PRIMARY KEY, custid INTEGER,
                              product_name VARCHAR(60), quantity INTEGER, price DOUBLE)",
    )
    .unwrap();
    for chunk in (0..rows).collect::<Vec<_>>().chunks(1000) {
        let values: Vec<String> = chunk
            .iter()
            .map(|id| {
                let price = (200 + id % 19800) as f64 / 100.0;
                let (cust, product, qty) = (10100 + id % 97 * 100, id % 13, 1 + id % 5);
                format!("({id}, {cust}, 'flange {product}', {qty}, {price})")
            })
            .collect();
        db.run_script(&format!("INSERT INTO orders VALUES {}", values.join(",")))
            .unwrap();
    }
    db
}

/// Allocations made by rendering the report over `rows` cached rows (the
/// first rendering fills the cache), and the page's byte count.
fn cache_hit_allocations(rows: i64) -> (u64, usize) {
    let db = orders(rows);
    let mac = parse_macro(REPORT).unwrap();
    let engine = Engine::new();
    let render = || {
        let mut sink = Discard(0);
        let mut conn = MiniSqlDatabase::connect(&db);
        engine
            .process_into(&mac, Mode::Report, &[], &mut conn, &mut sink)
            .unwrap();
        sink.0
    };
    let miss = render();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let hit = render();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(hit, miss, "the hit renders the page the miss rendered");
    assert_eq!(db.cache_stats().unwrap().results.hits, 1);
    (allocations, hit)
}

#[test]
fn cache_hit_allocations_do_not_grow_with_the_row_count() {
    let (small, small_bytes) = cache_hit_allocations(4_000);
    let (large, large_bytes) = cache_hit_allocations(40_000);
    assert!(
        large_bytes > 9 * small_bytes,
        "{small_bytes} → {large_bytes}"
    );
    eprintln!("allocations on the cache hit: 4 000 rows {small}, 40 000 rows {large}");
    assert!(
        large < 2 * small,
        "40 000 rows made {large} allocations, 4 000 rows {small}"
    );
}
