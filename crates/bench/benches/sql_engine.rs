//! E4 — the DBMS substrate in isolation, so gateway overhead in E3 can be
//! attributed correctly.
//!
//! Series: indexed point lookup vs full scan, LIKE prefix (index range) vs
//! LIKE contains (scan), ORDER BY, and insert throughput — each over table
//! sizes 10² … 10⁵.

use dbgw_testkit::bench::{Suite, Throughput};
use dbgw_workload::UrlDirectory;
use minisql::{Database, Value};
use std::hint::black_box;

fn shop_db(rows: usize) -> Database {
    // A simple integer-keyed table with an index on id.
    let db = Database::new();
    db.run_script(
        "CREATE TABLE items (id INTEGER PRIMARY KEY, grp INTEGER, label VARCHAR(40));
         CREATE INDEX items_grp ON items (grp);",
    )
    .unwrap();
    let mut conn = db.connect();
    conn.execute("BEGIN").unwrap();
    for i in 0..rows {
        conn.execute_with_params(
            "INSERT INTO items VALUES (?, ?, ?)",
            &[
                Value::Int(i as i64),
                Value::Int((i % 100) as i64),
                Value::Text(format!("label-{i}")),
            ],
        )
        .unwrap();
    }
    conn.execute("COMMIT").unwrap();
    db
}

fn main() {
    let mut suite = Suite::new("sql_engine");

    {
        let mut group = suite.group("E4_point_lookup");
        for rows in [100usize, 1_000, 10_000, 100_000] {
            let db = shop_db(rows);
            let target = (rows / 2) as i64;
            let mut conn = db.connect();
            group.bench(&format!("indexed/{rows}"), || {
                black_box(
                    conn.execute_with_params(
                        "SELECT label FROM items WHERE id = ?",
                        &[Value::Int(target)],
                    )
                    .unwrap(),
                )
            });
            let mut conn = db.connect();
            group.bench(&format!("scan/{rows}"), || {
                // id + 0 defeats the access-path planner: forced full scan.
                black_box(
                    conn.execute_with_params(
                        "SELECT label FROM items WHERE id + 0 = ?",
                        &[Value::Int(target)],
                    )
                    .unwrap(),
                )
            });
        }
    }

    {
        let mut group = suite.group("E4_like");
        group.sample_size(20);
        for rows in [1_000usize, 10_000, 100_000] {
            let db = UrlDirectory::generate(rows, 3).into_database();
            let mut conn = db.connect();
            group.bench(&format!("prefix_indexed/{rows}"), || {
                black_box(
                    conn.execute("SELECT url FROM urldb WHERE title LIKE 'Ibm%'")
                        .unwrap(),
                )
            });
            let mut conn = db.connect();
            group.bench(&format!("contains_scan/{rows}"), || {
                black_box(
                    conn.execute("SELECT url FROM urldb WHERE title LIKE '%ibm%'")
                        .unwrap(),
                )
            });
        }
    }

    {
        let mut group = suite.group("E4_order_by");
        group.sample_size(20);
        for rows in [1_000usize, 10_000, 100_000] {
            let db = shop_db(rows);
            let mut conn = db.connect();
            group.throughput(Throughput::Elements(rows as u64));
            group.bench(&rows.to_string(), || {
                black_box(
                    conn.execute("SELECT id FROM items ORDER BY label DESC LIMIT 10")
                        .unwrap(),
                )
            });
        }
    }

    {
        let mut group = suite.group("E4_insert_1k");
        group.sample_size(10);
        group.throughput(Throughput::Elements(1000));
        group.bench_with_setup(
            "fresh_table",
            || {
                let db = Database::new();
                db.run_script("CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(20))")
                    .unwrap();
                db
            },
            |db| {
                let mut conn = db.connect();
                for i in 0..1000i64 {
                    conn.execute_with_params(
                        "INSERT INTO t VALUES (?, ?)",
                        &[Value::Int(i), Value::Text(format!("v{i}"))],
                    )
                    .unwrap();
                }
                black_box(db)
            },
        );
    }

    suite.finish();
}
