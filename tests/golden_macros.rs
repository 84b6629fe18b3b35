//! Golden-file conformance for the shipped example macros.
//!
//! Each macro under `macros/` is rendered in both input and report mode
//! against a fixed seed database and fixed form variables, and the page must
//! match its recorded fixture in `tests/golden/` byte for byte. This pins
//! the whole rendering pipeline — macro parse, %DEFINE/%LIST evaluation,
//! variable substitution, SQL execution, %ROW expansion, escaping — so an
//! accidental output change anywhere shows up as a readable HTML diff.
//!
//! To bless an intentional change: `UPDATE_GOLDEN=1 cargo test --test
//! golden_macros` (or `scripts/update_golden.sh`), then review the diff.

use dbgw_cgi::{CgiRequest, Gateway, Method};
use std::path::{Path, PathBuf};

/// The fixed dataset every fixture renders against.
fn seed_database() -> minisql::Database {
    let db = minisql::Database::new();
    db.run_script(
        "CREATE TABLE guest (name VARCHAR(40) NOT NULL, message VARCHAR(200));
         INSERT INTO guest VALUES ('Mel', 'first!');
         CREATE TABLE audit (note VARCHAR(250));
         CREATE TABLE orders (orderid INT PRIMARY KEY, custid INT,
                              product_name VARCHAR(60), quantity INT, price INT);
         INSERT INTO orders VALUES (100, 1, 'Widget', 3, 15);
         INSERT INTO orders VALUES (101, 2, 'Widget XL', 1, 40);
         INSERT INTO orders VALUES (102, 1, 'Grommet', 7, 2);
         CREATE TABLE acct (id INT PRIMARY KEY, balance INT);
         INSERT INTO acct VALUES (1, 100);
         INSERT INTO acct VALUES (2, 50);",
    )
    .unwrap();
    db
}

fn repo_path(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

/// A fresh gateway per case (report modes write), with tracing off; the
/// body is the only output under test.
fn gateway(macro_file: &str) -> Gateway {
    let gw = Gateway::new(seed_database());
    let source = std::fs::read_to_string(repo_path(&format!("macros/{macro_file}")))
        .unwrap_or_else(|e| panic!("read macros/{macro_file}: {e}"));
    gw.add_macro(macro_file, &source).unwrap();
    gw
}

fn check_golden(case: &str, macro_file: &str, method: Method, cmd: &str, wire: &str) {
    let gw = gateway(macro_file);
    let path_info = format!("/{macro_file}/{cmd}");
    let req = match method {
        Method::Get => CgiRequest::get(&path_info, wire),
        Method::Post => CgiRequest::post(&path_info, wire),
    };
    let resp = gw.handle(&req);
    assert_eq!(resp.status, 200, "{case}: {}", resp.body);
    dbgw_html::check_balanced(&resp.body)
        .unwrap_or_else(|e| panic!("{case}: unbalanced page: {e:?}\n{}", resp.body));

    let golden_path = repo_path(&format!("tests/golden/{case}.html"));
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &resp.body).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "{case}: missing fixture {} ({e}); run UPDATE_GOLDEN=1 to record",
            golden_path.display()
        )
    });
    assert_eq!(
        resp.body, want,
        "{case}: page drifted from tests/golden/{case}.html \
         (bless intentional changes with scripts/update_golden.sh)"
    );
}

#[test]
fn guestbook_input() {
    check_golden("guestbook_input", "guestbook.d2w", Method::Get, "input", "");
}

#[test]
fn guestbook_report() {
    check_golden(
        "guestbook_report",
        "guestbook.d2w",
        Method::Post,
        "report",
        "NAME=Ada&MESSAGE=hello+world",
    );
}

#[test]
fn orders_input() {
    check_golden("orders_input", "orders.d2w", Method::Get, "input", "");
}

#[test]
fn orders_report() {
    check_golden(
        "orders_report",
        "orders.d2w",
        Method::Get,
        "report",
        "cust_inp=1&prod_inp=Wid&CONNECTIVE=AND",
    );
}

#[test]
fn transfer_input() {
    check_golden("transfer_input", "transfer.d2w", Method::Get, "input", "");
}

#[test]
fn transfer_report() {
    // Without DTW_SESSION the conversation machinery stays out of the way:
    // STEP=begin_page renders the balance table deterministically.
    check_golden(
        "transfer_report",
        "transfer.d2w",
        Method::Get,
        "report",
        "STEP=begin_page",
    );
}
