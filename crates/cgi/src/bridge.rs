//! Adapter: drive [`minisql`] through the engine's [`dbgw_core::Database`]
//! trait.
//!
//! [`Database::query`] hands the engine the result set minisql returned —
//! on a result-cache hit, the cached rows themselves, shared by `Arc` — and
//! a value becomes display text (NULL → empty string) only when the report
//! reads its row. [`Database::execute`] formats every row up front.

use dbgw_core::db::{Database, DbError, DbRows, RowSource};
use dbgw_obs::RequestCtx;
use minisql::{Connection, ExecResult, ResultSet};
use std::sync::Arc;

/// A `dbgw_core::Database` backed by one MiniSQL connection.
pub struct MiniSqlDatabase {
    conn: Connection,
}

impl MiniSqlDatabase {
    /// Wrap a connection.
    pub fn new(conn: Connection) -> MiniSqlDatabase {
        MiniSqlDatabase { conn }
    }

    /// Open a fresh connection on `db` and wrap it.
    pub fn connect(db: &minisql::Database) -> MiniSqlDatabase {
        MiniSqlDatabase::new(db.connect())
    }

    /// Open a fresh connection bound to a request context, so the executor's
    /// scan/join loops observe the request's deadline and cancellation flag.
    pub fn connect_ctx(db: &minisql::Database, ctx: Arc<RequestCtx>) -> MiniSqlDatabase {
        MiniSqlDatabase::new(db.connect_with_ctx(ctx))
    }
}

fn convert_err(e: minisql::SqlError) -> DbError {
    DbError {
        code: e.code.0,
        message: e.message,
    }
}

/// A minisql result read as display text, row by row.
struct SharedRows {
    rs: Arc<ResultSet>,
    affected: usize,
}

impl RowSource for SharedRows {
    fn columns(&self) -> &[String] {
        &self.rs.columns
    }

    fn affected(&self) -> usize {
        self.affected
    }

    fn len(&self) -> usize {
        self.rs.len()
    }

    fn fill_row(&self, i: usize, cells: &mut Vec<String>) {
        let row = &self.rs.rows[i];
        cells.resize_with(row.len(), String::new);
        for (cell, value) in cells.iter_mut().zip(row) {
            cell.clear();
            value.write_display(cell);
        }
    }
}

impl Database for MiniSqlDatabase {
    fn execute(&mut self, sql: &str) -> Result<DbRows, DbError> {
        self.query(sql).map(|rows| rows.collect())
    }

    fn query(&mut self, sql: &str) -> Result<Box<dyn RowSource>, DbError> {
        let (rs, affected) = match self.conn.execute(sql).map_err(convert_err)? {
            ExecResult::Rows(rs) => (rs, 0),
            ExecResult::Count(n) => (Arc::default(), n),
            ExecResult::Ddl | ExecResult::TxnControl => (Arc::default(), 1),
        };
        Ok(Box::new(SharedRows { rs, affected }))
    }

    fn begin(&mut self) -> Result<(), DbError> {
        self.query("BEGIN").map(drop)
    }

    fn commit(&mut self) -> Result<(), DbError> {
        self.query("COMMIT").map(drop)
    }

    fn rollback(&mut self) -> Result<(), DbError> {
        self.query("ROLLBACK").map(drop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> minisql::Database {
        let db = minisql::Database::new();
        db.run_script(
            "CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(80), description VARCHAR(200));
             INSERT INTO urldb VALUES ('http://www.ibm.com', 'IBM', 'Big Blue'),
                                      ('http://www.eso.org', 'ESO', NULL);",
        )
        .unwrap();
        db
    }

    #[test]
    fn query_converts_to_strings_with_null_as_empty() {
        let mut bridge = MiniSqlDatabase::connect(&db());
        let rows = bridge
            .execute("SELECT title, description FROM urldb ORDER BY title")
            .unwrap();
        assert_eq!(rows.columns, vec!["title", "description"]);
        assert_eq!(rows.rows[0], vec!["ESO".to_owned(), String::new()]);
        assert_eq!(rows.sqlcode(), 0);
    }

    #[test]
    fn dml_reports_affected() {
        let mut bridge = MiniSqlDatabase::connect(&db());
        let r = bridge
            .execute("UPDATE urldb SET title = 'Big Blue' WHERE title = 'IBM'")
            .unwrap();
        assert_eq!(r.affected, 1);
        let none = bridge
            .execute("UPDATE urldb SET title = 'Big Blue' WHERE title = 'IBM'")
            .unwrap();
        assert_eq!(none.sqlcode(), 100);
    }

    #[test]
    fn errors_carry_db2_codes() {
        let mut bridge = MiniSqlDatabase::connect(&db());
        let err = bridge.execute("SELECT * FROM nope").unwrap_err();
        assert_eq!(err.code, -204);
        let err = bridge.execute("SELEC").unwrap_err();
        assert_eq!(err.code, -104);
    }

    #[test]
    fn transactions_round_trip() {
        let base = db();
        let mut bridge = MiniSqlDatabase::connect(&base);
        bridge.begin().unwrap();
        bridge
            .execute("INSERT INTO urldb VALUES ('http://x', 'X', NULL)")
            .unwrap();
        bridge.rollback().unwrap();
        assert_eq!(base.table_len("urldb").unwrap(), 2);
    }
}
