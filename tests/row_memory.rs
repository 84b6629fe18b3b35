//! Space per stored row, counted exactly: a 10 000-row `urldb` loaded with
//! no index through literal `INSERT … VALUES` batches of 500 — the way the
//! load rig and a `DTW_DB_SCRIPT` load it — leaves each row's text and a
//! small record live, and little else.
//!
//! This file is its own test binary with a single test, because the
//! counting global allocator sees every thread of the process.

use dbgw_workload::ScanFixture;
use minisql::Database;

mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

const ROWS: usize = 10_000;

/// Live bytes per row the same load left when a stored row was an
/// `Arc<Vec<Value>>` with a `String` per text column — five allocations a
/// row: 247.7 on a process's first load, 235.4 on a later one.
const BOXED_ROW_BYTES: f64 = 247.0;

/// Bytes live after loading `fixture` into a fresh database, less those
/// live before.
fn load(fixture: &ScanFixture) -> u64 {
    let db = Database::without_cache();
    db.run_script(ScanFixture::SCHEMA).unwrap();
    let before = counting_alloc::live();
    let mut conn = db.connect();
    for sql in &fixture.inserts {
        conn.execute(sql).unwrap();
    }
    drop(conn);
    let after = counting_alloc::live();
    assert_eq!(db.table_len("urldb").unwrap(), fixture.inserts.len() * 500);
    after - before
}

#[test]
fn a_loaded_row_costs_its_text_and_a_small_record() {
    let fixture = ScanFixture::generate(ROWS, 500, 1, 0x1996_0604);
    // The first load also leaves what the process keeps from having run
    // such statements at all (about 12 bytes a row here, with either row
    // form); the second counts only its own bytes.
    load(&fixture);
    let per_row = load(&fixture) as f64 / ROWS as f64;
    let text = fixture.text_bytes as f64 / ROWS as f64;
    println!("{per_row:.1} live bytes per row over {text:.1} bytes of text");
    assert!(
        per_row <= 0.75 * BOXED_ROW_BYTES,
        "{per_row:.1} live bytes per row (text {text:.1}): want at least 25% below \
         {BOXED_ROW_BYTES}"
    );
}
