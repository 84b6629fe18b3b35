//! §5 deployment features over the wire: Basic authentication and the
//! access log, exercised through real sockets.

use dbgw_cgi::{BasicAuth, Gateway, HttpClient, HttpServer};

fn server() -> HttpServer {
    let db = minisql::Database::new();
    db.run_script(
        "CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80));
         INSERT INTO urldb VALUES ('http://www.ibm.com', 'IBM');",
    )
    .unwrap();
    let gw = Gateway::new(db);
    gw.add_macro(
        "q.d2w",
        "%SQL{ SELECT url FROM urldb %}\n%HTML_INPUT{form%}\n%HTML_REPORT{%EXEC_SQL%}",
    )
    .unwrap();
    gw.add_macro(
        "admin.d2w",
        "%SQL{ UPDATE urldb SET url = 'http://purged' %}\n%HTML_INPUT{admin form%}\n%HTML_REPORT{purged%EXEC_SQL%}",
    )
    .unwrap();
    let server = HttpServer::start(gw, 0).unwrap();
    server.set_auth(
        BasicAuth::new("DB2WWW admin")
            .with_user("tam", "s3cret")
            .protect_prefix("/cgi-bin/db2www/admin.d2w"),
    );
    server
}

#[test]
fn unprotected_paths_need_no_credentials() {
    let server = server();
    let client = HttpClient::new(server.addr());
    let resp = client.get("/cgi-bin/db2www/q.d2w/input").unwrap();
    assert_eq!(resp.status, 200);
    server.shutdown();
}

#[test]
fn protected_path_gets_401_with_challenge() {
    let server = server();
    let client = HttpClient::new(server.addr());
    let raw = client
        .raw("GET /cgi-bin/db2www/admin.d2w/input HTTP/1.0\r\n\r\n")
        .unwrap();
    assert!(raw.starts_with("HTTP/1.1 401"), "{raw}");
    assert!(raw.contains("WWW-Authenticate: Basic realm=\"DB2WWW admin\""));
    server.shutdown();
}

#[test]
fn valid_credentials_pass_and_are_logged() {
    let server = server();
    let client = HttpClient::new(server.addr());
    let header = BasicAuth::header_value("tam", "s3cret");
    let raw = client
        .raw(&format!(
            "GET /cgi-bin/db2www/admin.d2w/input HTTP/1.0\r\nAuthorization: {header}\r\n\r\n"
        ))
        .unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(raw.contains("admin form"));
    let entries = server.access_log().entries();
    let entry = entries
        .iter()
        .find(|e| e.request_line.contains("admin.d2w"))
        .expect("admin request logged");
    assert_eq!(entry.user, "tam");
    assert_eq!(entry.status, 200);
    server.shutdown();
}

#[test]
fn wrong_password_rejected() {
    let server = server();
    let client = HttpClient::new(server.addr());
    let header = BasicAuth::header_value("tam", "wrong");
    let raw = client
        .raw(&format!(
            "GET /cgi-bin/db2www/admin.d2w/report HTTP/1.0\r\nAuthorization: {header}\r\n\r\n"
        ))
        .unwrap();
    assert!(raw.starts_with("HTTP/1.1 401"), "{raw}");
    // The protected UPDATE must not have run: the row is unchanged.
    let check = client.get("/cgi-bin/db2www/q.d2w/report").unwrap();
    assert!(check.body.contains("ibm.com"));
    server.shutdown();
}

#[test]
fn access_log_records_every_request_in_common_format() {
    let server = server();
    let client = HttpClient::new(server.addr());
    client.get("/cgi-bin/db2www/q.d2w/input").unwrap();
    client.get("/nowhere").unwrap();
    let log = server.access_log();
    assert_eq!(log.len(), 2);
    let lines: Vec<String> = log.entries().iter().map(|e| e.to_common_log()).collect();
    assert!(lines[0].contains("\"GET /cgi-bin/db2www/q.d2w/input HTTP/1.1\" 200"));
    assert!(lines[1].contains("\"GET /nowhere HTTP/1.1\" 404"));
    server.shutdown();
}

#[test]
fn responses_declare_utf8_charset() {
    // §5 multi-byte support: pages are UTF-8 and say so.
    let server = server();
    let client = HttpClient::new(server.addr());
    let raw = client
        .raw("GET /cgi-bin/db2www/q.d2w/input HTTP/1.0\r\n\r\n")
        .unwrap();
    assert!(
        raw.contains("Content-Type: text/html; charset=utf-8"),
        "{raw}"
    );
    server.shutdown();
}
