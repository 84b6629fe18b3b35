//! `db2www` — the CGI executable of the paper, as a real program.
//!
//! A CGI-speaking web server (or the test harness) invokes this binary per
//! request with the standard environment (Figure 4):
//!
//! * `REQUEST_METHOD` — GET or POST,
//! * `PATH_INFO` — `/{macro-file}/{input|report}`,
//! * `QUERY_STRING` — GET variables,
//! * `CONTENT_LENGTH` + standard input — POST variables.
//!
//! Configuration comes from more variables, mirroring the product's
//! initialization file:
//!
//! * `DTW_MACRO_DIR` — directory holding `.d2w` macro files (default
//!   `./macros`),
//! * `DTW_DB_SCRIPT` — path to a SQL script that builds the database,
//! * the `DBGW_*` settings of [`dbgw_cgi::Config`], validated before anything
//!   else runs: a misspelt or malformed one ends the process with status 2
//!   and the variable's name on stderr. Among them `DBGW_DATA_DIR` — when
//!   set, the database is durable: opened from (and recovered into) that
//!   directory's write-ahead log, with `DTW_DB_SCRIPT` run only the first
//!   time, when the recovered database is empty.
//!
//! Without `DBGW_DATA_DIR` the DBMS substrate is in-process and each
//! invocation rebuilds the database from the script — fine for demonstrating
//! the protocol (the paper's DB2 connection cost per CGI process was
//! likewise per-request); the long-running [`dbgw_cgi::HttpServer`] is the
//! performant path.
//!
//! Output is a CGI response on stdout: `Content-Type` header, blank line,
//! page. Errors still produce a page (status is in the `Status:` header, as
//! CGI prescribes).

use dbgw_cgi::{trace_comment, CgiRequest, CgiResponse, Config, Gateway, Method};
use std::io::Read;
use std::sync::Arc;

fn main() {
    let config = Config::from_env().unwrap_or_else(|e| {
        eprintln!("db2www: {e}");
        std::process::exit(2);
    });
    // The binary owns the request trace (DBGW_TRACE / DBGW_TRACE_FILE), so
    // the spans cover the whole invocation — database build, macro load and
    // parse, then the gateway dispatch nested inside.
    let trace = &config.trace;
    let request_id = dbgw_obs::next_request_id();
    let owned = trace.tracing()
        && dbgw_obs::trace::start_trace(Arc::new(dbgw_obs::StdClock::new()), request_id);
    let mut response = run(&config, request_id);
    if owned {
        if let Some(t) = dbgw_obs::trace::finish_trace() {
            if let Some(path) = &trace.trace_file {
                let _ = t.append_jsonl(path);
            }
            if trace.annotate {
                response.body.push_str(&trace_comment(&t));
            }
        }
    }
    let mut head = format!(
        "Status: {} {}\r\nContent-Type: {}; charset=utf-8\r\n",
        response.status,
        response.reason(),
        response.content_type,
    );
    for (name, value) in &response.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    print!("{head}\r\n{}", response.body);
}

fn run(config: &Config, request_id: u64) -> CgiResponse {
    let env = |name: &str| std::env::var(name).unwrap_or_default();

    let method = match env("REQUEST_METHOD").to_ascii_uppercase().as_str() {
        "POST" => Method::Post,
        _ => Method::Get,
    };
    let body = if method == Method::Post {
        let length: usize = env("CONTENT_LENGTH").parse().unwrap_or(0);
        let mut buf = vec![0u8; length];
        if std::io::stdin().read_exact(&mut buf).is_err() {
            return CgiResponse::error_for_request(400, "short request body", request_id);
        }
        String::from_utf8_lossy(&buf).into_owned()
    } else {
        String::new()
    };
    let request = CgiRequest {
        method,
        path_info: env("PATH_INFO"),
        query_string: env("QUERY_STRING"),
        body,
        request_id,
        if_none_match: std::env::var("HTTP_IF_NONE_MATCH").ok(),
    };

    // Open the database: durable under DBGW_DATA_DIR (recovering any prior
    // log), purely in-memory otherwise. The build script then runs only
    // against a *fresh* database — a recovered one already has its tables.
    let db = match config.open_database() {
        Ok(db) => db,
        Err(e) => {
            return CgiResponse::error_for_request(
                500,
                &format!("cannot open DBGW_DATA_DIR database: {e}"),
                request_id,
            )
        }
    };
    let script_path = env("DTW_DB_SCRIPT");
    if !script_path.is_empty() && db.pin().tables.is_empty() {
        let _span = dbgw_obs::trace::span("build_database");
        let script = match std::fs::read_to_string(&script_path) {
            Ok(s) => s,
            Err(e) => {
                return CgiResponse::error_for_request(
                    500,
                    &format!("cannot read DTW_DB_SCRIPT {script_path}: {e}"),
                    request_id,
                )
            }
        };
        if let Err(e) = db.run_script(&script) {
            return CgiResponse::error_for_request(
                500,
                &format!("DTW_DB_SCRIPT failed: {e}"),
                request_id,
            );
        }
    }

    // Load the requested macro from the macro directory. The gateway
    // re-validates the name; we only read the one file being asked for.
    let macro_dir = {
        let dir = env("DTW_MACRO_DIR");
        if dir.is_empty() {
            "./macros".to_owned()
        } else {
            dir
        }
    };
    let macro_name = request
        .path_info
        .trim_start_matches('/')
        .split('/')
        .next()
        .unwrap_or("")
        .to_owned();
    if !dbgw_core::security::safe_macro_name(&macro_name) {
        return CgiResponse::error_for_request(400, "invalid macro file name", request_id);
    }
    let gateway = Gateway::new(db).configured(config);
    let macro_path = std::path::Path::new(&macro_dir).join(&macro_name);
    match std::fs::read_to_string(&macro_path) {
        Ok(source) => {
            if let Err(e) = gateway.add_macro(&macro_name, &source) {
                return CgiResponse::error_for_request(
                    500,
                    &format!("macro parse error: {e}"),
                    request_id,
                );
            }
        }
        Err(_) => {
            return CgiResponse::error_for_request(
                404,
                &format!("no macro named {macro_name}"),
                request_id,
            )
        }
    }
    gateway.handle(&request)
}
