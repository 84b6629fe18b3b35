//! F2/F3 — functional reproduction of Figures 2 and 3.
//!
//! Figure 2 is the sample HTML input form; Figure 3 is its rendering with the
//! user's selections, and §2.2 lists the exact variable set the Web client
//! sends when Submit Query is clicked. We serve the form through the gateway,
//! drive it with the programmatic browser, and assert the wire-format
//! submission matches the paper byte for byte (modulo URL encoding, which the
//! paper elides).

use dbgw_cgi::{FormFill, Gateway, QueryString};
use dbgw_html::{Form, FormMethod};

/// The Figure 2 form, embedded in a macro's %HTML_INPUT section.
const FIGURE2_MACRO: &str = include_str!("macros/figure2.d2w");

fn gateway() -> Gateway {
    let db = minisql::Database::new();
    db.run_script(
        "CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80), description VARCHAR(200))",
    )
    .unwrap();
    let gw = Gateway::new(db);
    gw.add_macro("urlquery.d2w", FIGURE2_MACRO).unwrap();
    gw
}

#[test]
fn figure2_form_served_intact() {
    let resp = gateway().get("urlquery.d2w", "input", "");
    assert_eq!(resp.status, 200);
    // The paper's form structure survives the gateway untouched.
    assert!(resp.body.contains("<TITLE>DB2 WWW URL Query</TITLE>"));
    assert!(resp.body.contains("NAME=\"SEARCH\" SIZE=20"));
    assert!(dbgw_html::check_balanced(&resp.body).is_ok());
}

#[test]
fn figure3_submission_variable_set() {
    // §2.2: "for the selections that the user has made in Figure 3 the
    // following is the value of the input variables that the Web client
    // sends": SEARCH="", USE_URL="yes", USE_TITLE="yes", USE_DESC="",
    // DBFIELD="title", DBFIELD="desc", SHOWSQL="".
    //
    // USE_DESC is shown with a null value in the paper's listing even though
    // an unchecked checkbox sends nothing — the two are defined to be
    // identical (§2.2), so our browser model sends nothing and the *observed
    // variable values* still match.
    let resp = gateway().get("urlquery.d2w", "input", "");
    let form = Form::parse_first(&resp.body).expect("form parses");
    assert_eq!(form.method, FormMethod::Post);
    assert_eq!(form.action, "/cgi-bin/db2www.exe/urlquery.d2w/report");

    // The Figure 3 user additionally selected "desc" in the multi-SELECT.
    let fill = FormFill::defaults().select("DBFIELD", &["title", "desc"]);
    let submission = fill.submission(&form);
    assert_eq!(
        submission.to_wire(),
        "SEARCH=&USE_URL=yes&USE_TITLE=yes&DBFIELD=title&DBFIELD=desc&SHOWSQL="
    );

    // Round-trip through the CGI layer: the engine sees the same variables.
    let parsed = QueryString::parse(&submission.to_wire());
    assert_eq!(parsed.get("SEARCH"), Some(""));
    assert_eq!(parsed.get("USE_URL"), Some("yes"));
    assert_eq!(parsed.get("USE_TITLE"), Some("yes"));
    assert_eq!(parsed.get("USE_DESC"), None); // == null == undefined
    assert_eq!(parsed.get_all("DBFIELD"), vec!["title", "desc"]);
    assert_eq!(parsed.get("SHOWSQL"), Some(""));
}

#[test]
fn figure3_multi_select_becomes_list_variable() {
    // "When multiple selections are made to DBFIELD, multiple values for
    // DBFIELD will be returned by the Web client" — and the engine joins
    // them with the default comma separator (§3.1.3).
    let mac = dbgw_core::parse_macro("%HTML_INPUT{DBFIELD=[$(DBFIELD)]%}").unwrap();
    let out = dbgw_core::Engine::new()
        .process_input(
            &mac,
            &[
                ("DBFIELD".into(), "title".into()),
                ("DBFIELD".into(), "desc".into()),
            ],
        )
        .unwrap();
    assert_eq!(out, "DBFIELD=[title,desc]");
}
