//! A macro "billion laughs": input values are parsed like simple
//! assignments (§4.3.2), so they may reference other inputs, and ten
//! references per level make the text grow tenfold per level. Level 7 asks
//! for a 100 MB page, level 9 for 10 GB. The request's budget on expanded
//! text ends such a request with an error page, quickly and in bounded
//! memory, and the next request is served as usual.
//!
//! This file is its own test binary with a single test, because the
//! counting global allocator sees every thread of the process.

use dbgw_baselines::URLQUERY_MACRO;
use dbgw_cgi::{CgiRequest, Gateway};
use dbgw_obs::EXPANDED_TEXT_BUDGET;
use std::time::{Duration, Instant};

mod counting_alloc;

#[global_allocator]
static GLOBAL: counting_alloc::Counting = counting_alloc::Counting;

/// The query string of an Appendix A search for `$(L{levels})`, where `L0`
/// is ten bytes and each further level ten references to the one below.
fn laughs(levels: usize) -> String {
    let mut query = vec![
        "USE_URL=yes&DBFIELDS=title".to_owned(),
        "L0=xxxxxxxxxx".to_owned(),
    ];
    for k in 1..=levels {
        query.push(format!("L{k}={}", format!("$(L{})", k - 1).repeat(10)));
    }
    query.push(format!("SEARCH=$(L{levels})"));
    query.join("&")
}

#[test]
fn nested_input_references_stop_at_the_expanded_text_budget() {
    let db = minisql::Database::new();
    db.run_script(
        "CREATE TABLE urldb (url VARCHAR(255) NOT NULL, title VARCHAR(120),
                             description VARCHAR(400));
         INSERT INTO urldb VALUES ('http://www.ibm.com', 'IBM Corporation', 'Products');",
    )
    .unwrap();
    let gw = Gateway::new(db);
    gw.add_macro("urlquery.d2w", URLQUERY_MACRO).unwrap();
    let report = |query: &str| gw.handle(&CgiRequest::get("/urlquery.d2w/report", query));

    // Three levels (a 1000-byte search string) stay well inside the budget.
    let fine = report(&laughs(3));
    assert_eq!(fine.status, 200, "{}", fine.body);
    assert!(!fine.body.contains("SQL error"), "{}", fine.body);

    for levels in [7, 9] {
        // Every attempt must end in the error page within the memory bound;
        // the time bound holds for the fastest of three, so a neighbour on a
        // shared host cannot fail it, while a request that expanded without
        // bound would be slow every time.
        let mut fastest = Duration::MAX;
        for _ in 0..3 {
            let base = counting_alloc::reset_peak();
            let started = Instant::now();
            let page = report(&laughs(levels));
            fastest = fastest.min(started.elapsed());
            let peak = counting_alloc::peak_above(base);
            assert_eq!(page.status, 500, "level {levels}: {}", page.body);
            assert!(
                page.body.contains("SQL error -952")
                    && page.body.contains("expanded text exceeded"),
                "level {levels}: {}",
                page.body
            );
            // Text in flight when the budget trips: at most the charged
            // text and the value whose charge tripped it.
            assert!(
                peak < 2 * EXPANDED_TEXT_BUDGET,
                "level {levels} peaked at {peak} bytes above the baseline"
            );
        }
        assert!(
            fastest < Duration::from_millis(100),
            "level {levels} took {fastest:?}"
        );
        eprintln!("level {levels}: error page in {fastest:?}");
    }

    let after = report("SEARCH=ib&USE_URL=yes&DBFIELDS=title");
    assert_eq!(after.status, 200, "{}", after.body);
    assert!(after.body.contains("www.ibm.com"), "{}", after.body);
}
