//! **dbgw-core** — the macro language and run-time engine of the SIGMOD '96
//! *DB2 WWW Connection* system (Nguyen & Srinivasan, "Accessing Relational
//! Databases from the World Wide Web").
//!
//! The paper's contribution is a *cross-language variable substitution
//! mechanism* bridging HTML and SQL, packaged as a macro language. A macro
//! file mixes four kinds of sections — `%DEFINE`, `%SQL`, `%HTML_INPUT`,
//! `%HTML_REPORT` — tied together by `$(variable)` references that are
//! resolved lazily, recursively, and with HTML input variables overriding
//! macro defaults. See `DESIGN.md` at the repository root for the complete
//! semantics inventory.
//!
//! ```
//! use dbgw_core::{parse_macro, Engine, Mode};
//! use dbgw_core::db::{DbRows, FnDatabase};
//!
//! let mac = parse_macro(r#"
//! %DEFINE dbtbl = "urldb"
//! %SQL{ SELECT url, title FROM $(dbtbl) WHERE title LIKE '%$(SEARCH)%'
//! %SQL_REPORT{<UL>
//! %ROW{<LI><A HREF="$(V1)">$(V2)</A>
//! %}</UL>%}
//! %}
//! %HTML_INPUT{<FORM ACTION="report"><INPUT NAME="SEARCH"></FORM>%}
//! %HTML_REPORT{<H1>Results</H1>%EXEC_SQL%}
//! "#).unwrap();
//!
//! // Input mode renders the fill-in form; no SQL executes.
//! let form = Engine::new().process_input(&mac, &[]).unwrap();
//! assert!(form.contains("<INPUT NAME=\"SEARCH\">"));
//!
//! // Report mode substitutes HTML inputs into SQL and result rows into HTML.
//! let mut db = FnDatabase(|sql: &str| {
//!     assert!(sql.contains("LIKE '%ib%'"));
//!     Ok(DbRows {
//!         columns: vec!["url".into(), "title".into()],
//!         rows: vec![vec!["http://www.ibm.com".into(), "IBM".into()]],
//!         affected: 0,
//!     })
//! });
//! let report = Engine::new()
//!     .process(&mac, Mode::Report, &[("SEARCH".into(), "ib".into())], &mut db)
//!     .unwrap();
//! assert!(report.contains(r#"<LI><A HREF="http://www.ibm.com">IBM</A>"#));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod db;
pub mod engine;
pub mod env;
pub mod error;
pub mod exec;
pub mod include;
pub mod lint;
pub mod nls;
pub mod parser;
pub mod security;
pub mod sink;
pub mod subst;

pub use ast::{MacroFile, Section};
pub use db::{Database, DbError, DbRows, RowSource};
pub use engine::{Engine, EngineConfig, Mode, TxnMode};
pub use env::Env;
pub use error::{MacroError, MacroResult};
pub use exec::{CommandRunner, DenyRunner, StaticRunner, SystemRunner};
pub use include::{expand_includes, parse_macro_with_includes, IncludeResolver, MapResolver};
pub use lint::{lint, Finding};
pub use nls::Language;
pub use parser::parse_macro;
pub use sink::PageSink;
pub use subst::Evaluator;
