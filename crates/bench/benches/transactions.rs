//! E6 — §5 transaction modes: auto-commit vs single-transaction for
//! multi-statement macros, plus the cost of rollback on injected failure.

use dbgw_cgi::MiniSqlDatabase;
use dbgw_core::{parse_macro, Engine, EngineConfig, MacroFile, Mode, TxnMode};
use dbgw_testkit::bench::{Suite, Throughput};
use std::hint::black_box;

/// A macro with `n` INSERT statements (one batch signing).
fn insert_macro(n: usize) -> MacroFile {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!(
            "%SQL{{ INSERT INTO log (seq, msg) VALUES ({i}, 'entry $(TAG)') %}}\n"
        ));
    }
    src.push_str("%HTML_REPORT{%EXEC_SQL%}");
    parse_macro(&src).unwrap()
}

fn fresh_db() -> minisql::Database {
    let db = minisql::Database::new();
    db.run_script("CREATE TABLE log (seq INTEGER, msg VARCHAR(60))")
        .unwrap();
    db
}

fn engine(mode: TxnMode) -> Engine<'static> {
    Engine::with_config(EngineConfig {
        txn_mode: mode,
        ..EngineConfig::default()
    })
}

fn main() {
    let mut suite = Suite::new("transactions");

    {
        let mut group = suite.group("E6_batch_inserts");
        group.sample_size(10);
        for n in [1usize, 16, 128, 1024] {
            let mac = insert_macro(n);
            group.throughput(Throughput::Elements(n as u64));
            for (label, mode) in [
                ("auto_commit", TxnMode::AutoCommit),
                ("single_txn", TxnMode::SingleTransaction),
            ] {
                let eng = engine(mode);
                group.bench_with_setup(&format!("{label}/{n}"), fresh_db, |db| {
                    let mut conn = MiniSqlDatabase::connect(&db);
                    let inputs = vec![("TAG".to_string(), "t".to_string())];
                    black_box(eng.process(&mac, Mode::Report, &inputs, &mut conn).unwrap());
                    db
                });
            }
        }
    }

    {
        // n-1 good inserts then one that violates NOT NULL: single-txn
        // drops its private copy of all of them, auto-commit only skips the
        // last.
        let mut group = suite.group("E6_failure_at_end");
        group.sample_size(10);
        let n = 256usize;
        let mut src = String::new();
        for i in 0..n - 1 {
            src.push_str(&format!(
                "%SQL{{ INSERT INTO strict (seq, msg) VALUES ({i}, 'x') %}}\n"
            ));
        }
        src.push_str("%SQL{ INSERT INTO strict (seq, msg) VALUES (999, NULL) %}\n");
        src.push_str("%HTML_REPORT{%EXEC_SQL%}");
        let mac = parse_macro(&src).unwrap();
        let make_db = || {
            let db = minisql::Database::new();
            db.run_script("CREATE TABLE strict (seq INTEGER, msg VARCHAR(60) NOT NULL)")
                .unwrap();
            db
        };
        for (label, mode, expect_rows) in [
            ("auto_commit_keeps_255", TxnMode::AutoCommit, n - 1),
            ("single_txn_rolls_back_all", TxnMode::SingleTransaction, 0),
        ] {
            let eng = engine(mode);
            group.bench_with_setup(label, make_db, |db| {
                let mut conn = MiniSqlDatabase::connect(&db);
                let page = eng.process(&mac, Mode::Report, &[], &mut conn).unwrap();
                assert!(page.contains("SQL error"));
                assert_eq!(db.table_len("strict").unwrap(), expect_rows);
                black_box(db)
            });
        }
    }

    suite.finish();
}
