//! Abstract syntax of a macro file.
//!
//! A macro is a sequence of sections (§3 of the paper): variable definition
//! sections, SQL command sections, an HTML input section, and an HTML report
//! section. Order matters — the processors walk sections top to bottom and a
//! variable is only visible to text *after* its definition.

use crate::subst::{spans, Token};
use std::ops::Range;

/// A parsed macro file.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MacroFile {
    /// Sections in source order.
    pub sections: Vec<Section>,
}

impl MacroFile {
    /// All SQL sections in source order.
    pub fn sql_sections(&self) -> impl Iterator<Item = &SqlSection> {
        self.sections.iter().filter_map(|s| match s {
            Section::Sql(sql) => Some(sql),
            _ => None,
        })
    }

    /// The SQL section with the given name (case-sensitive, per the paper's
    /// "variable names are case sensitive" rule which section names follow).
    pub fn named_sql(&self, name: &str) -> Option<&SqlSection> {
        self.sql_sections()
            .find(|s| s.name.as_deref() == Some(name))
    }
}

/// One top-level section.
#[derive(Debug, Clone, PartialEq)]
pub enum Section {
    /// `%DEFINE` (line or block form): a list of define statements.
    Define(Vec<DefineStatement>),
    /// `%SQL[(name)]{ ... }`.
    Sql(SqlSection),
    /// `%HTML_INPUT{ ... }` — rendered in input mode.
    HtmlInput(Template),
    /// `%HTML_REPORT{ ... }` — rendered in report mode.
    HtmlReport(Vec<ReportPart>),
    /// `%{ ... %}` comment — kept for fidelity, never rendered.
    Comment(String),
}

/// One statement inside a `%DEFINE` section.
#[derive(Debug, Clone, PartialEq)]
pub enum DefineStatement {
    /// `var = "value"` — §3.1.1 simple assignment.
    Simple {
        /// Variable name.
        name: String,
        /// Raw value string (substitution happens lazily at reference time).
        value: String,
    },
    /// `var = testvar ? "v1" : "v2"` — §3.1.2 two-armed conditional.
    CondBinary {
        /// Variable name.
        name: String,
        /// The tested variable.
        test: String,
        /// Value when `test` is defined and non-null.
        then_value: String,
        /// Value otherwise.
        else_value: String,
    },
    /// `var = ? "v"` — §3.1.2 one-armed conditional: null if the value string
    /// references any undefined/null variable.
    CondUnary {
        /// Variable name.
        name: String,
        /// Raw value string.
        value: String,
    },
    /// `%LIST "sep" var` — §3.1.3 list declaration.
    ListDecl {
        /// Variable name.
        name: String,
        /// Raw separator (may itself contain variable references).
        separator: String,
    },
    /// `var = %EXEC "command"` — §3.1.4 executable variable.
    Exec {
        /// Variable name.
        name: String,
        /// Raw command string (substituted at each reference).
        command: String,
    },
}

impl DefineStatement {
    /// The variable this statement defines or declares.
    pub fn name(&self) -> &str {
        match self {
            DefineStatement::Simple { name, .. }
            | DefineStatement::CondBinary { name, .. }
            | DefineStatement::CondUnary { name, .. }
            | DefineStatement::ListDecl { name, .. }
            | DefineStatement::Exec { name, .. } => name,
        }
    }
}

/// A `%SQL` section: exactly one SQL command plus optional report/message
/// blocks.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlSection {
    /// Optional section name from `%SQL(name)`.
    pub name: Option<String>,
    /// The SQL command text (variables unresolved).
    pub command: Template,
    /// Optional `%SQL_REPORT` block.
    pub report: Option<SqlReport>,
    /// Optional `%SQL_MESSAGE` block.
    pub messages: Vec<SqlMessage>,
}

/// A `%SQL_REPORT` block: header, per-row template, footer (§3.2.1).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SqlReport {
    /// HTML text before the `%ROW` block; printed once, may reference the
    /// column-name variables `Ni` / `N_<col>` / `NLIST`.
    pub header: Template,
    /// The `%ROW{...}` template, printed once per fetched row with `Vi` /
    /// `V_<col>` / `VLIST` / `ROW_NUM` instantiated. `None` when the report
    /// has no row block (header/footer only).
    pub row: Option<Template>,
    /// HTML text after the `%ROW` block; printed once after all rows.
    pub footer: Template,
}

/// What a `%SQL_MESSAGE` entry does after printing its text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MessageAction {
    /// Stop processing the macro (the default, matching the product's
    /// behaviour of abandoning the report on error).
    #[default]
    Exit,
    /// Print the message but keep processing.
    Continue,
}

/// One handler in a `%SQL_MESSAGE` block.
///
/// The paper defers the exact syntax to the product's Application Developer's
/// Guide; we reconstruct the documented form `code : "text" : action`, plus a
/// `default` entry matching any code not otherwise handled.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlMessage {
    /// SQLCODE this entry matches; `None` is the `default` entry.
    pub code: Option<i32>,
    /// Message template (variables substituted when printed).
    pub text: Template,
    /// Continue or exit.
    pub action: MessageAction,
}

/// A fragment of an `%HTML_REPORT` section.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportPart {
    /// Literal HTML (with variable references, substituted when printed).
    Html(Template),
    /// `%EXEC_SQL` — execute all *unnamed* SQL sections in macro order.
    ExecSqlAll,
    /// `%EXEC_SQL(name-or-$(var))` — execute one named section; the operand
    /// is itself substituted at run time, so `%EXEC_SQL($(cmd))` lets the end
    /// user pick the statement (§3.4).
    ExecSqlNamed(String),
}

/// Text with `$(name)` references — a section body, a report part, a SQL
/// command, a message — tokenized once, when the macro is parsed, so
/// rendering never scans it again. It keeps its source text for the tools
/// that read it (`lint`, the gateway's read-only check).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Template {
    source: String,
    /// The tokens of `source` as byte ranges into it.
    spans: Vec<Token<Range<usize>>>,
}

impl Template {
    /// Tokenize `source`.
    pub fn new(source: impl Into<String>) -> Template {
        let source = source.into();
        let spans = spans(&source).collect();
        Template { source, spans }
    }

    /// The text as written in the macro.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The tokens [`tokens`] yields for the source, without the scan.
    pub(crate) fn tokens(&self) -> impl Iterator<Item = Token<&str>> {
        self.spans.iter().map(|span| span.of(&self.source))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_lookup_is_case_sensitive() {
        let mut m = MacroFile::default();
        m.sections.push(Section::Sql(SqlSection {
            name: Some("Fetch".into()),
            command: Template::new("SELECT 1"),
            report: None,
            messages: vec![],
        }));
        assert!(m.named_sql("Fetch").is_some());
        assert!(m.named_sql("fetch").is_none());
    }

    #[test]
    fn template_tokens_match_a_fresh_scan() {
        let src = "a$$(x)$(V1)$ $(b$(c))$$(open";
        let t = Template::new(src);
        assert!(t.tokens().eq(crate::subst::tokens(src)));
        assert_eq!(t.source(), src);
    }

    #[test]
    fn define_statement_names() {
        let s = DefineStatement::ListDecl {
            name: "L".into(),
            separator: " OR ".into(),
        };
        assert_eq!(s.name(), "L");
    }
}
