//! Child mode: the gateway under test, built only through the constructor
//! surface an application uses (`Database::open` → `Gateway::new` /
//! `add_macro` → `HttpServer::start`). `main` scrubbed every `DBGW_*`
//! variable before it got here, so shipped defaults apply.

use crate::workloads::{Fixture, Workload};
use dbgw_cgi::{Gateway, HttpServer};
use std::io::{Read, Write};
use std::path::Path;

/// Load the fixture unless recovery already brought it back.
pub fn ensure_fixture(db: &minisql::Database, fixture: &Fixture) -> Result<(), String> {
    let mut conn = db.connect();
    let probe = format!("SELECT COUNT(*) FROM {}", fixture.workload.main_table());
    if conn.execute(&probe).is_ok() {
        return Ok(());
    }
    for sql in fixture.load_sql() {
        conn.execute(&sql)
            .map_err(|e| format!("loading fixture: {e}"))?;
    }
    Ok(())
}

/// Serve `workload` from `dir` until stdin reaches end of file, on `cpus`
/// when the parent named any (the threads the gateway starts inherit the
/// mask). Prints `LISTENING <port>` once the fixture is in place and the
/// socket is bound.
pub fn serve(workload: Workload, dir: &Path, cpus: &[usize]) -> Result<(), String> {
    if !cpus.is_empty() {
        crate::affinity::pin(cpus)?;
    }
    let db = minisql::Database::open(dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    ensure_fixture(&db, &Fixture::new(workload))?;
    let gateway = Gateway::new(db);
    for (name, source) in workload.macros() {
        gateway
            .add_macro(name, source)
            .map_err(|e| format!("macro {name}: {e}"))?;
    }
    let server = HttpServer::start(gateway, 0).map_err(|e| format!("bind: {e}"))?;
    let mut out = std::io::stdout().lock();
    writeln!(out, "LISTENING {}", server.addr().port()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    drop(out);
    // The parent holds our stdin; when it closes it (or dies) we stop.
    let mut sink = [0u8; 64];
    while matches!(std::io::stdin().read(&mut sink), Ok(n) if n > 0) {}
    server.shutdown();
    Ok(())
}
