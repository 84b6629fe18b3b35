//! The DBMS abstraction the engine drives.
//!
//! The paper stresses that the gateway "can be used to access IBM DB2
//! databases on a wide variety of IBM and non-IBM platforms as well as other
//! non-IBM DBMS" (§4): the engine only needs dynamic SQL over strings. This
//! trait is that seam. The report substitution mechanism is purely textual,
//! like the original, but a query's rows stay in the DBMS's representation
//! behind a [`RowSource`] until the report reads them: a value becomes
//! display text only when a printed row reaches its `%ROW` slot.

/// A result from the DBMS.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DbRows {
    /// Column names, empty for DML.
    pub columns: Vec<String>,
    /// Rows of display-formatted values (NULL renders as the empty string,
    /// which the variable model equates with undefined).
    pub rows: Vec<Vec<String>>,
    /// Rows affected, for DML.
    pub affected: usize,
}

/// A result as the report reads it: column names, the affected count and
/// rows turned into display text one at a time ([`Database::query`]).
pub trait RowSource {
    /// Column names, empty for DML.
    fn columns(&self) -> &[String];

    /// Rows affected, for DML.
    fn affected(&self) -> usize;

    /// Number of rows.
    fn len(&self) -> usize;

    /// Whether there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Overwrite `cells` with row `i`'s display text, one string per value
    /// (NULL renders as the empty string), reusing their buffers.
    fn fill_row(&self, i: usize, cells: &mut Vec<String>);

    /// The SQLCODE this result reports: `+100` when a query returned no rows
    /// or DML touched none, else `0`.
    fn sqlcode(&self) -> i32 {
        match (self.columns().is_empty(), self.affected(), self.len()) {
            // DML that touched no row, or a query that returned none.
            (true, 0, _) | (false, _, 0) => 100,
            _ => 0,
        }
    }

    /// Every row formatted: the collect-all form of the result.
    fn collect(&self) -> DbRows {
        let mut rows = vec![Vec::new(); self.len()];
        for (i, cells) in rows.iter_mut().enumerate() {
            self.fill_row(i, cells);
        }
        DbRows {
            columns: self.columns().to_vec(),
            rows,
            affected: self.affected(),
        }
    }
}

impl RowSource for DbRows {
    fn columns(&self) -> &[String] {
        &self.columns
    }

    fn affected(&self) -> usize {
        self.affected
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn fill_row(&self, i: usize, cells: &mut Vec<String>) {
        cells.clone_from(&self.rows[i]);
    }
}

/// A DBMS error, in DB2 SQLCODE convention (negative codes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbError {
    /// The SQLCODE.
    pub code: i32,
    /// The DBMS message text.
    pub message: String,
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQLCODE {}: {}", self.code, self.message)
    }
}

impl std::error::Error for DbError {}

/// A dynamic-SQL connection.
pub trait Database {
    /// Prepare and execute one SQL statement, every value formatted.
    fn execute(&mut self, sql: &str) -> Result<DbRows, DbError>;

    /// Prepare and execute one SQL statement, leaving the rows where the
    /// DBMS holds them. The engine reads results only through this; the
    /// default formats everything through [`execute`](Database::execute).
    fn query(&mut self, sql: &str) -> Result<Box<dyn RowSource>, DbError> {
        Ok(Box::new(self.execute(sql)?))
    }

    /// Start an explicit transaction (single-transaction macro mode, §5).
    fn begin(&mut self) -> Result<(), DbError>;

    /// Commit the open transaction.
    fn commit(&mut self) -> Result<(), DbError>;

    /// Roll back the open transaction.
    fn rollback(&mut self) -> Result<(), DbError>;

    /// End-of-life hook: flush any durable state and release resources.
    /// In-memory engines have nothing to do, so the default is a no-op;
    /// engines with a write-ahead log drain and close it here.
    fn close(&mut self) {}
}

/// Adapter turning any `FnMut(&str) -> Result<DbRows, DbError>` into a
/// [`Database`], for tests and for baselines that fake transaction support.
/// `begin`/`commit`/`rollback` are forwarded as the statements `BEGIN` /
/// `COMMIT` / `ROLLBACK`.
pub struct FnDatabase<F>(pub F);

impl<F> Database for FnDatabase<F>
where
    F: FnMut(&str) -> Result<DbRows, DbError>,
{
    fn execute(&mut self, sql: &str) -> Result<DbRows, DbError> {
        (self.0)(sql)
    }

    fn begin(&mut self) -> Result<(), DbError> {
        (self.0)("BEGIN").map(|_| ())
    }

    fn commit(&mut self) -> Result<(), DbError> {
        (self.0)("COMMIT").map(|_| ())
    }

    fn rollback(&mut self) -> Result<(), DbError> {
        (self.0)("ROLLBACK").map(|_| ())
    }
}

/// A [`Database`] that rejects every statement — for input-mode processing
/// where the paper guarantees no SQL runs at all.
pub struct NoDatabase;

impl Database for NoDatabase {
    fn execute(&mut self, sql: &str) -> Result<DbRows, DbError> {
        Err(DbError {
            code: -99999,
            message: format!("no database attached (statement was {sql:?})"),
        })
    }

    fn begin(&mut self) -> Result<(), DbError> {
        Ok(())
    }

    fn commit(&mut self) -> Result<(), DbError> {
        Ok(())
    }

    fn rollback(&mut self) -> Result<(), DbError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqlcode_rules() {
        let q = DbRows {
            columns: vec!["a".into()],
            rows: vec![],
            affected: 0,
        };
        assert_eq!(q.sqlcode(), 100);
        let q2 = DbRows {
            columns: vec!["a".into()],
            rows: vec![vec!["1".into()]],
            affected: 0,
        };
        assert_eq!(q2.sqlcode(), 0);
        let dml0 = DbRows::default();
        assert_eq!(dml0.sqlcode(), 100);
        let dml = DbRows {
            affected: 3,
            ..DbRows::default()
        };
        assert_eq!(dml.sqlcode(), 0);
    }

    #[test]
    fn fn_database_adapts() {
        let mut db = FnDatabase(|sql: &str| {
            Ok(DbRows {
                columns: vec!["echo".into()],
                rows: vec![vec![sql.to_owned()]],
                affected: 0,
            })
        });
        let r = db.execute("SELECT 1").unwrap();
        assert_eq!(r.rows[0][0], "SELECT 1");
        db.begin().unwrap();
        db.commit().unwrap();
    }
}
