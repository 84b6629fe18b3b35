//! **MiniSQL** — an in-memory relational DBMS substrate.
//!
//! Stands in for IBM DB2 in this reproduction of the SIGMOD '96 *DB2 WWW
//! Connection* paper. The gateway only ever drove DB2 through dynamic SQL —
//! PREPARE/EXECUTE of strings assembled by variable substitution — so any
//! engine with the same observable surface exercises the identical gateway
//! code paths. MiniSQL provides:
//!
//! * a SQL-92 subset: `SELECT` (joins, `WHERE` with 3-valued logic, `LIKE`,
//!   `GROUP BY`/`HAVING`, aggregates, `ORDER BY`, `LIMIT`/`FETCH FIRST`),
//!   `INSERT`/`UPDATE`/`DELETE`, `CREATE`/`DROP` `TABLE`/`INDEX`,
//!   `BEGIN`/`COMMIT`/`ROLLBACK`;
//! * typed storage with NULLs, PRIMARY KEY / UNIQUE / NOT NULL constraints;
//! * B-tree-ordered secondary indexes used automatically for equality, range,
//!   `IN`, and `LIKE 'prefix%'` predicates;
//! * DB2-style SQLCODEs (`0`, `+100`, `-104`, `-204`, `-803`, …) that the
//!   gateway's `%SQL_MESSAGE` blocks dispatch on;
//! * two transaction modes (auto-commit and explicit) with statement
//!   atomicity; an explicit transaction works on a private snapshot that
//!   COMMIT publishes once.
//!
//! ```
//! use minisql::{Database, Value};
//!
//! let db = Database::new();
//! db.run_script(
//!     "CREATE TABLE urldb (url VARCHAR(255) PRIMARY KEY,
//!                          title VARCHAR(80), description VARCHAR(200));
//!      INSERT INTO urldb VALUES ('http://www.ibm.com', 'IBM', 'Big Blue');",
//! ).unwrap();
//! let mut conn = db.connect();
//! let result = conn.execute("SELECT title FROM urldb WHERE url LIKE '%ibm%'").unwrap();
//! assert_eq!(result.rows().unwrap().rows[0][0], Value::Text("IBM".into()));
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod ast;
pub mod cache;
pub mod checkpoint;
pub mod cost;
pub mod csv;
pub mod date;
pub mod db;
pub mod dump;
pub mod error;
pub mod eval;
pub mod exec;
pub mod index;
pub mod like;
pub mod parser;
pub mod plan;
pub mod recovery;
pub mod schema;
pub mod state;
pub mod stats;
pub mod storage;
pub mod token;
pub mod types;
pub mod wal;

/// Poison-recovering lock wrappers, re-exported from the shared
/// [`dbgw_sync`] crate (the former in-crate copy moved there).
pub use dbgw_sync as sync;

pub use cache::{DbCacheStats, DbCaches};
pub use db::{Connection, Database, ExecResult};
pub use error::{SqlCode, SqlError, SqlResult};
pub use exec::ResultSet;
pub use parser::{parse, parse_script};
pub use plan::{PlanOptions, PlanStats};
pub use types::{SqlType, Truth, Value};
pub use wal::DurabilityConfig;
