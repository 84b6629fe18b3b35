//! Drive the real `db2www` CGI executable the way a fork/exec web server
//! would (Figure 4, literally): set the CGI environment, pipe the POST body
//! to stdin, read the response from stdout.

use std::io::Write;
use std::process::{Command, Stdio};

fn binary() -> std::path::PathBuf {
    // Integration tests live next to the workspace target dir.
    let mut path = std::env::current_exe().unwrap();
    path.pop(); // test binary name
    path.pop(); // deps/
    path.push("db2www");
    path
}

fn fixture_dir() -> tempdir::TempDirLike {
    tempdir::create()
}

/// Minimal in-tree temp-dir helper (std only).
mod tempdir {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    pub struct TempDirLike(pub PathBuf);

    impl Drop for TempDirLike {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    static SEQ: AtomicU32 = AtomicU32::new(0);

    pub fn create() -> TempDirLike {
        let dir = std::env::temp_dir().join(format!(
            "dbgw-cgi-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TempDirLike(dir)
    }
}

fn setup(dir: &std::path::Path) {
    std::fs::write(
        dir.join("setup.sql"),
        "CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80));
         INSERT INTO urldb VALUES ('http://www.ibm.com', 'IBM'), ('http://www.eso.org', 'ESO');",
    )
    .unwrap();
    std::fs::write(
        dir.join("q.d2w"),
        "%SQL{ SELECT url, title FROM urldb WHERE title LIKE '%$(SEARCH)%' ORDER BY title %}\n\
         %HTML_INPUT{<FORM METHOD=\"post\" ACTION=\"/cgi-bin/db2www/q.d2w/report\">\
         <INPUT NAME=\"SEARCH\"></FORM>%}\n\
         %HTML_REPORT{<H1>Hits</H1>\n%EXEC_SQL%}",
    )
    .unwrap();
}

fn invoke(dir: &std::path::Path, method: &str, path_info: &str, query: &str, body: &str) -> String {
    invoke_with(Command::new(binary()), dir, method, path_info, query, body)
}

fn invoke_with(
    mut cmd: Command,
    dir: &std::path::Path,
    method: &str,
    path_info: &str,
    query: &str,
    body: &str,
) -> String {
    cmd.env("REQUEST_METHOD", method)
        .env("PATH_INFO", path_info)
        .env("QUERY_STRING", query)
        .env("CONTENT_LENGTH", body.len().to_string())
        .env("DTW_MACRO_DIR", dir)
        .env("DTW_DB_SCRIPT", dir.join("setup.sql"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn db2www");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(body.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn get_input_mode_serves_the_form() {
    let dir = fixture_dir();
    setup(&dir.0);
    let out = invoke(&dir.0, "GET", "/q.d2w/input", "", "");
    assert!(out.starts_with("Status: 200 OK\r\n"), "{out}");
    assert!(out.contains("Content-Type: text/html; charset=utf-8"));
    assert!(out.contains("<INPUT NAME=\"SEARCH\">"));
}

#[test]
fn get_report_mode_with_query_string() {
    let dir = fixture_dir();
    setup(&dir.0);
    let out = invoke(&dir.0, "GET", "/q.d2w/report", "SEARCH=IB", "");
    assert!(out.contains("http://www.ibm.com"), "{out}");
    assert!(!out.contains("eso.org"));
}

#[test]
fn post_report_mode_with_stdin_body() {
    let dir = fixture_dir();
    setup(&dir.0);
    let out = invoke(&dir.0, "POST", "/q.d2w/report", "", "SEARCH=ESO");
    assert!(out.contains("http://www.eso.org"), "{out}");
}

#[test]
fn includes_resolve_against_the_macro_directory() {
    let dir = fixture_dir();
    setup(&dir.0);
    std::fs::write(dir.0.join("header.hti"), "<TITLE>Shared header</TITLE>").unwrap();
    std::fs::write(
        dir.0.join("app.d2w"),
        "%HTML_INPUT{\n%INCLUDE \"header.hti\"\n<FORM ACTION=\"x\"></FORM>%}\n\
         %HTML_REPORT{\n%INCLUDE \"header.hti\"\n<P>report</P>%}",
    )
    .unwrap();
    for cmd in ["input", "report"] {
        let out = invoke(&dir.0, "GET", &format!("/app.d2w/{cmd}"), "", "");
        assert!(out.starts_with("Status: 200 OK\r\n"), "{out}");
        assert!(out.contains("<TITLE>Shared header</TITLE>"), "{out}");
        assert!(!out.contains("%INCLUDE"), "{out}");
    }
    // A fragment that is not there is the macro's error, not a blank.
    std::fs::remove_file(dir.0.join("header.hti")).unwrap();
    let out = invoke(&dir.0, "GET", "/app.d2w/input", "", "");
    assert!(out.starts_with("Status: 500"), "{out}");
    assert!(out.contains("header.hti"), "{out}");
}

#[test]
fn missing_macro_is_404() {
    let dir = fixture_dir();
    setup(&dir.0);
    let out = invoke(&dir.0, "GET", "/ghost.d2w/input", "", "");
    assert!(out.starts_with("Status: 404"), "{out}");
}

#[test]
fn traversal_attempt_is_400() {
    let dir = fixture_dir();
    setup(&dir.0);
    let out = invoke(&dir.0, "GET", "/../setup.sql/input", "", "");
    assert!(out.starts_with("Status: 400"), "{out}");
}

#[test]
fn unknown_dbgw_variable_is_a_startup_error_naming_it() {
    let dir = fixture_dir();
    setup(&dir.0);
    let out = Command::new(binary())
        .env("REQUEST_METHOD", "GET")
        .env("PATH_INFO", "/q.d2w/input")
        .env("DTW_MACRO_DIR", &dir.0)
        .env("DTW_DB_SCRIPT", dir.0.join("setup.sql"))
        .env("DBGW_BOGUS", "1")
        .output()
        .expect("spawn db2www");
    assert!(!out.status.success(), "a misspelt knob must not be ignored");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("DBGW_BOGUS"), "{stderr}");
    assert!(out.stdout.is_empty(), "no page is served");
}

#[test]
fn durable_invocations_share_the_data_directory() {
    let dir = fixture_dir();
    setup(&dir.0);
    std::fs::write(
        dir.0.join("add.d2w"),
        "%SQL{ INSERT INTO urldb VALUES ('$(URL)', '$(TITLE)') %}\n%HTML_REPORT{Added.\n%EXEC_SQL%}",
    )
    .unwrap();
    // Each invocation is its own process, as under a CGI web server: the
    // first writes through the log and exits, the second recovers the row.
    let durable = || {
        let mut cmd = Command::new(binary());
        cmd.env("DBGW_DATA_DIR", dir.0.join("data"));
        cmd
    };
    let query = "URL=http://www.w3.org&TITLE=W3C";
    let out = invoke_with(durable(), &dir.0, "GET", "/add.d2w/report", query, "");
    assert!(out.starts_with("Status: 200 OK\r\n"), "{out}");
    let out = invoke_with(durable(), &dir.0, "GET", "/q.d2w/report", "SEARCH=W3", "");
    assert!(out.contains("http://www.w3.org"), "{out}");
}
