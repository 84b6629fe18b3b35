//! The §5 future-work feature: transactions spanning multiple client-server
//! interactions, driven end to end through the gateway.
//!
//! The application is a two-step funds transfer: request 1 debits, request 2
//! credits, request 3 confirms (commit) or cancels (abort). The DTW_SESSION
//! hidden variable is the entire conversation state on the client side.

use dbgw_cgi::{CgiRequest, Gateway};
use std::time::Duration;

const TRANSFER_MACRO: &str = include_str!("macros/transfer.d2w");

fn gateway() -> (minisql::Database, Gateway) {
    let db = minisql::Database::new();
    db.run_script(
        "CREATE TABLE acct (id INTEGER PRIMARY KEY, balance DOUBLE);
         INSERT INTO acct VALUES (1, 100.0), (2, 0.0);",
    )
    .unwrap();
    let gw = Gateway::new(db.clone()).enable_sessions(Duration::from_secs(30));
    gw.add_macro("transfer.d2w", TRANSFER_MACRO).unwrap();
    (db, gw)
}

/// Extract the session id echoed into the page.
fn session_of(body: &str) -> String {
    body.lines()
        .find_map(|l| l.strip_prefix("session="))
        .expect("session id in page")
        .trim()
        .to_owned()
}

#[test]
fn committed_conversation_transfers_funds() {
    let (db, gw) = gateway();
    // Step 1: open the conversation and debit.
    let r1 = gw.handle(&CgiRequest::get(
        "/transfer.d2w/report",
        "DTW_SESSION=new&STEP=debit&AMT=40&FROM_ID=1",
    ));
    assert_eq!(r1.status, 200, "{}", r1.body);
    let sid = session_of(&r1.body);
    // Step 2: credit inside the same conversation.
    let r2 = gw.handle(&CgiRequest::get(
        "/transfer.d2w/report",
        &format!("DTW_SESSION={sid}&STEP=credit&AMT=40&TO_ID=2"),
    ));
    assert_eq!(r2.status, 200, "{}", r2.body);
    assert_eq!(session_of(&r2.body), sid);
    // Step 3: confirm.
    let r3 = gw.handle(&CgiRequest::get(
        "/transfer.d2w/report",
        &format!("DTW_SESSION={sid}&STEP=show&DTW_END=commit"),
    ));
    assert_eq!(r3.status, 200);
    assert!(r3.body.contains("[1=60.0][2=40.0]"), "{}", r3.body);
    assert_eq!(gw.sessions().unwrap().live(), 0);
    // Durable after commit.
    let mut conn = db.connect();
    let r = conn.execute("SELECT SUM(balance) FROM acct").unwrap();
    assert_eq!(r.rows().unwrap().rows[0][0], minisql::Value::Double(100.0));
}

#[test]
fn aborted_conversation_leaves_no_trace() {
    let (db, gw) = gateway();
    let r1 = gw.handle(&CgiRequest::get(
        "/transfer.d2w/report",
        "DTW_SESSION=new&STEP=debit&AMT=40&FROM_ID=1",
    ));
    let sid = session_of(&r1.body);
    gw.handle(&CgiRequest::get(
        "/transfer.d2w/report",
        &format!("DTW_SESSION={sid}&STEP=credit&AMT=40&TO_ID=2"),
    ));
    // The user clicks Cancel.
    let r3 = gw.handle(&CgiRequest::get(
        "/transfer.d2w/report",
        &format!("DTW_SESSION={sid}&STEP=show&DTW_END=abort"),
    ));
    assert_eq!(r3.status, 200);
    let mut conn = db.connect();
    let r = conn
        .execute("SELECT balance FROM acct ORDER BY id")
        .unwrap();
    let rs = r.rows().unwrap();
    assert_eq!(rs.rows[0][0], minisql::Value::Double(100.0));
    assert_eq!(rs.rows[1][0], minisql::Value::Double(0.0));
}

#[test]
fn half_done_conversation_is_invisible_after_failure() {
    let (db, gw) = gateway();
    let r1 = gw.handle(&CgiRequest::get(
        "/transfer.d2w/report",
        "DTW_SESSION=new&STEP=debit&AMT=40&FROM_ID=1",
    ));
    let sid = session_of(&r1.body);
    // A bogus STEP name fails the request; the gateway aborts the session.
    let r2 = gw.handle(&CgiRequest::get(
        "/transfer.d2w/report",
        &format!("DTW_SESSION={sid}&STEP=nonexistent"),
    ));
    assert_eq!(r2.status, 500);
    assert_eq!(gw.sessions().unwrap().live(), 0);
    let mut conn = db.connect();
    let r = conn
        .execute("SELECT balance FROM acct WHERE id = 1")
        .unwrap();
    assert_eq!(
        r.rows().unwrap().rows[0][0],
        minisql::Value::Double(100.0),
        "the debit rolled back"
    );
}

#[test]
fn unknown_session_is_a_clean_400() {
    let (_db, gw) = gateway();
    let r = gw.handle(&CgiRequest::get(
        "/transfer.d2w/report",
        "DTW_SESSION=s999&STEP=show",
    ));
    assert_eq!(r.status, 400);
    assert!(r.body.contains("unknown or expired session"));
}

#[test]
fn sessions_disabled_means_dtw_vars_are_ordinary_inputs() {
    let db = minisql::Database::new();
    db.run_script("CREATE TABLE acct (id INTEGER, balance DOUBLE)")
        .unwrap();
    let gw = Gateway::new(db); // no enable_sessions
    gw.add_macro(
        "echo.d2w",
        "%HTML_REPORT{got $(DTW_SESSION)%}\n%SQL(x){ SELECT 1 %}",
    )
    .unwrap();
    let r = gw.handle(&CgiRequest::get("/echo.d2w/report", "DTW_SESSION=new"));
    assert_eq!(r.status, 200);
    assert_eq!(r.body.trim(), "got new");
}
