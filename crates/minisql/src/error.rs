//! Error and SQLCODE types.
//!
//! The original gateway surfaced DB2 SQLCODEs to `%SQL_MESSAGE` blocks:
//! `0` for success, `+100` for "no rows", and negative codes for errors. We
//! reproduce that numbering convention so macros written against the paper's
//! semantics (e.g. a message section keyed on `-204`, *object not found*)
//! behave identically.

use std::fmt;

/// A DB2-style SQLCODE.
///
/// Positive codes are warnings, zero is success, negative codes are errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SqlCode(pub i32);

impl SqlCode {
    /// Successful execution.
    pub const SUCCESS: SqlCode = SqlCode(0);
    /// Query produced no rows / fetch past end (DB2 +100).
    pub const NO_DATA: SqlCode = SqlCode(100);
    /// Syntax error in the SQL string (DB2 -104).
    pub const SYNTAX: SqlCode = SqlCode(-104);
    /// Object (table/index) not found (DB2 -204).
    pub const UNDEFINED_OBJECT: SqlCode = SqlCode(-204);
    /// Column not found (DB2 -206).
    pub const UNDEFINED_COLUMN: SqlCode = SqlCode(-206);
    /// Duplicate key / unique violation (DB2 -803).
    pub const DUPLICATE_KEY: SqlCode = SqlCode(-803);
    /// NULL assigned to a NOT NULL column (DB2 -407).
    pub const NOT_NULL_VIOLATION: SqlCode = SqlCode(-407);
    /// Type mismatch in an expression (DB2 -401).
    pub const TYPE_MISMATCH: SqlCode = SqlCode(-401);
    /// Arithmetic exception, e.g. division by zero (DB2 -802).
    pub const ARITHMETIC: SqlCode = SqlCode(-802);
    /// Object already exists (DB2 -601).
    pub const DUPLICATE_OBJECT: SqlCode = SqlCode(-601);
    /// Statement not permitted in the current transaction state (DB2 -925).
    pub const TXN_STATE: SqlCode = SqlCode(-925);
    /// The unit of work has been rolled back (DB2 -911): at COMMIT, a
    /// concurrent commit had already changed a table this transaction wrote.
    pub const ROLLED_BACK: SqlCode = SqlCode(-911);
    /// A required resource is unavailable (DB2 -904): the write-ahead log
    /// could not be appended or fsynced, so the statement was not committed.
    pub const RESOURCE: SqlCode = SqlCode(-904);
    /// Processing cancelled due to an interrupt (DB2 -952): the request's
    /// deadline passed or its `RequestCtx` was cancelled mid-statement.
    pub const CANCELLED: SqlCode = SqlCode(dbgw_obs::CANCELLED_SQLCODE);

    /// Whether this code denotes an error (negative).
    pub fn is_error(self) -> bool {
        self.0 < 0
    }
}

impl fmt::Display for SqlCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQLCODE {}", self.0)
    }
}

/// Any error raised by the SQL engine.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlError {
    /// The DB2-style code for `%SQL_MESSAGE` dispatch.
    pub code: SqlCode,
    /// Human-readable message.
    pub message: String,
}

impl SqlError {
    /// Construct an error with an explicit code.
    pub fn new(code: SqlCode, message: impl Into<String>) -> Self {
        SqlError {
            code,
            message: message.into(),
        }
    }

    /// Syntax error helper.
    pub fn syntax(message: impl Into<String>) -> Self {
        SqlError::new(SqlCode::SYNTAX, message)
    }

    /// Unknown table helper.
    pub fn no_such_table(name: &str) -> Self {
        SqlError::new(
            SqlCode::UNDEFINED_OBJECT,
            format!("table {name} does not exist"),
        )
    }

    /// Unknown column helper.
    pub fn no_such_column(name: &str) -> Self {
        SqlError::new(
            SqlCode::UNDEFINED_COLUMN,
            format!("column {name} does not exist"),
        )
    }

    /// Type-mismatch helper.
    pub fn type_mismatch(message: impl Into<String>) -> Self {
        SqlError::new(SqlCode::TYPE_MISMATCH, message)
    }

    /// Cancellation helper: the statement was interrupted by its request
    /// context (deadline, explicit cancel, or budget).
    pub fn cancelled(reason: dbgw_obs::CancelReason) -> Self {
        SqlError::new(SqlCode::CANCELLED, reason.to_string())
    }

    /// I/O failure helper (SQLCODE −904): durable storage misbehaved.
    pub fn io(context: &str, err: &std::io::Error) -> Self {
        SqlError::new(SqlCode::RESOURCE, format!("{context}: {err}"))
    }
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for SqlError {}

/// Convenience result alias used across the crate.
pub type SqlResult<T> = Result<T, SqlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_follow_db2_sign_convention() {
        assert!(!SqlCode::SUCCESS.is_error());
        assert!(!SqlCode::NO_DATA.is_error());
        assert!(SqlCode::SYNTAX.is_error());
        assert!(SqlCode::DUPLICATE_KEY.is_error());
    }

    #[test]
    fn display_formats() {
        let e = SqlError::no_such_table("urldb");
        assert_eq!(e.to_string(), "SQLCODE -204: table urldb does not exist");
    }
}
