//! The paper's "scrollable cursors" idiom (§4.3.2): the lazy substitution
//! mechanism plus hidden variables let an application page through a result
//! set across client-server interactions — each report embeds a hyperlink
//! carrying the next offset, with no server-side session state.

use dbgw_cgi::{CgiRequest, Gateway};
use dbgw_html::Form;
use dbgw_workload::UrlDirectory;

/// Page size 5; OFFSET arrives as a hidden input / URL variable, defaulting
/// to 0; the report links to itself with OFFSET advanced by PAGE.
const PAGED_MACRO: &str = include_str!("macros/paged.d2w");

fn gateway() -> Gateway {
    let db = UrlDirectory::generate(12, 77).into_database();
    let gw = Gateway::new(db);
    gw.add_macro("paged.d2w", PAGED_MACRO).unwrap();
    gw
}

fn titles(body: &str) -> Vec<&str> {
    body.lines()
        .filter_map(|l| l.strip_prefix("<LI>"))
        .collect()
}

#[test]
fn pages_do_not_overlap_and_cover_everything() {
    let gw = gateway();
    let mut seen: Vec<String> = Vec::new();
    for page in 0..3 {
        let offset = page * 5;
        let resp = gw.handle(&CgiRequest::get(
            "/paged.d2w/report",
            &format!("OFFSET={offset}&NEXT={}", offset + 5),
        ));
        assert_eq!(resp.status, 200);
        let page_titles = titles(&resp.body);
        assert!(page_titles.len() <= 5);
        for t in &page_titles {
            assert!(
                !seen.contains(&t.to_string()),
                "duplicate across pages: {t}"
            );
            seen.push(t.to_string());
        }
    }
    assert_eq!(seen.len(), 12, "three pages of 5+5+2 cover all rows");
}

#[test]
fn next_link_carries_the_continuation() {
    // The hyperlink in page N is the complete client-side state for page
    // N+1 — the "rudimentary scheme for linking multiple client-server
    // interactions" of §5.
    let gw = gateway();
    let resp = gw.handle(&CgiRequest::get("/paged.d2w/report", "OFFSET=0&NEXT=5"));
    assert!(resp
        .body
        .contains("/cgi-bin/db2www/paged.d2w/report?OFFSET=5"));
}

#[test]
fn default_offset_comes_from_define() {
    // With no OFFSET variable at all, the DEFINE default (0) applies —
    // "simple variable assignments are typically used to set default values
    // for HTML input variables" (§3.1.1).
    let gw = gateway();
    let with_default = gw.handle(&CgiRequest::get("/paged.d2w/report", ""));
    let explicit = gw.handle(&CgiRequest::get("/paged.d2w/report", "OFFSET=0"));
    assert_eq!(titles(&with_default.body), titles(&explicit.body));
}

#[test]
fn hidden_input_in_form_starts_at_zero() {
    let gw = gateway();
    let input = gw.handle(&CgiRequest::get("/paged.d2w/input", ""));
    let form = Form::parse_first(&input.body).unwrap();
    let pairs = form.default_submission();
    assert_eq!(pairs, vec![("OFFSET".to_string(), "0".to_string())]);
}
