//! Static analysis of macro files.
//!
//! The paper's pitch is that application developers "use existing HTML and
//! SQL development tools" and glue them with variables — which makes typos in
//! variable names the dominant failure mode (an undefined variable silently
//! becomes the null string, §4.1). This linter catches, before deployment:
//!
//! * references to variables that are neither defined, form inputs, nor
//!   system report variables (`W001`),
//! * DEFINEd variables that nothing ever references (`W002`),
//! * SQL sections that no `%EXEC_SQL` can ever execute (`W003`),
//! * row variables (`Vi` / `V_col` / `VLIST`) reached from text outside a
//!   `%ROW` block, directly or through DEFINEs (`W004`),
//! * a report mode with no SQL at all (`W005`),
//! * conditional tests on variables that can never be set (`W006`).

use crate::ast::{DefineStatement, MacroFile, ReportPart, Section, SqlSection};
use crate::subst::{tokens, Token};
use dbgw_html::Form;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable code, `W001`–`W006`.
    pub code: &'static str,
    /// Human message.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Variables the engine itself defines at run time.
fn is_system_variable(name: &str) -> bool {
    let upper = name.to_ascii_uppercase();
    is_row_variable(name)
        || ["NLIST", "ROW_NUM", "RPT_MAX_ROWS", "SHOWSQL"].contains(&upper.as_str())
        || upper == "SESSION_ID" // injected by the gateway's conversation layer
        || upper.strip_prefix('N').is_some_and(is_column_suffix)
}

/// `Vi`, `V_<col>` or `VLIST`: defined only inside `%ROW`.
fn is_row_variable(name: &str) -> bool {
    let upper = name.to_ascii_uppercase();
    upper == "VLIST" || upper.strip_prefix('V').is_some_and(is_column_suffix)
}

/// What follows `N` or `V` in a column variable: `_<col>` or a number.
fn is_column_suffix(rest: &str) -> bool {
    rest.starts_with('_') || (!rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

/// Add the `$(name)` references among `tokens` to `out`.
fn references<'t>(tokens: impl Iterator<Item = Token<&'t str>>, out: &mut BTreeSet<String>) {
    out.extend(tokens.filter_map(|token| match token {
        Token::Var(name) => Some(name.to_owned()),
        Token::Text(_) => None,
    }));
}

/// Collect `?name=` / `&name=` parameters from hyperlinks in HTML text —
/// the scrollable-cursor and conversation idioms pass next-request inputs
/// through URLs, not forms.
fn hyperlink_parameters(html: &str, out: &mut BTreeSet<String>) {
    for (i, c) in html.char_indices() {
        if c != '?' && c != '&' {
            continue;
        }
        let rest = &html[i + 1..];
        let end = rest
            .char_indices()
            .find(|&(_, ch)| !(ch.is_ascii_alphanumeric() || ch == '_'))
            .map(|(j, _)| j)
            .unwrap_or(rest.len());
        if end > 0 && rest[end..].starts_with('=') {
            let name = &rest[..end];
            if name
                .chars()
                .next()
                .is_some_and(|ch| ch.is_ascii_alphabetic() || ch == '_')
            {
                out.insert(name.to_owned());
            }
        }
    }
}

/// Run all checks over a parsed macro.
pub fn lint(mac: &MacroFile) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Gather definitions, inputs, and references per context.
    let mut defined: BTreeSet<String> = BTreeSet::new();
    let mut tests: BTreeSet<String> = BTreeSet::new();
    // A DEFINE's values are evaluated lazily, in the scope of whatever text
    // references the variable, so they are kept per variable.
    let mut define_refs: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut row_refs: BTreeSet<String> = BTreeSet::new(); // inside %ROW
    let mut nonrow_refs: BTreeSet<String> = BTreeSet::new();
    let mut form_inputs: BTreeSet<String> = BTreeSet::new();
    let mut has_report_section = false;
    let mut any_exec_all = false;
    let mut named_execs: BTreeSet<String> = BTreeSet::new();

    for section in &mac.sections {
        match section {
            Section::Define(stmts) => {
                for stmt in stmts {
                    defined.insert(stmt.name().to_owned());
                    let refs = define_refs.entry(stmt.name().to_owned()).or_default();
                    match stmt {
                        DefineStatement::Simple { value, .. }
                        | DefineStatement::CondUnary { value, .. } => {
                            references(tokens(value), refs)
                        }
                        DefineStatement::CondBinary {
                            test,
                            then_value,
                            else_value,
                            ..
                        } => {
                            tests.insert(test.clone());
                            references(tokens(then_value).chain(tokens(else_value)), refs);
                        }
                        DefineStatement::ListDecl { separator, .. } => {
                            references(tokens(separator), refs)
                        }
                        DefineStatement::Exec { command, .. } => references(tokens(command), refs),
                    }
                }
            }
            Section::Sql(sql) => {
                references(sql.command.tokens(), &mut nonrow_refs);
                if let Some(report) = &sql.report {
                    references(report.header.tokens(), &mut nonrow_refs);
                    references(report.footer.tokens(), &mut nonrow_refs);
                    if let Some(row) = &report.row {
                        references(row.tokens(), &mut row_refs);
                    }
                }
                for msg in &sql.messages {
                    references(msg.text.tokens(), &mut nonrow_refs);
                }
            }
            Section::HtmlInput(body) => {
                references(body.tokens(), &mut nonrow_refs);
                for form in Form::parse_all(body.source()) {
                    for control in &form.controls {
                        form_inputs.insert(control.name().to_owned());
                    }
                }
                hyperlink_parameters(body.source(), &mut form_inputs);
            }
            Section::HtmlReport(parts) => {
                has_report_section = true;
                for part in parts {
                    match part {
                        ReportPart::Html(text) => {
                            references(text.tokens(), &mut nonrow_refs);
                            // Hyperlinks back into the gateway carry inputs
                            // for the *next* request; those names are part of
                            // the application's input vocabulary.
                            hyperlink_parameters(text.source(), &mut form_inputs);
                        }
                        ReportPart::ExecSqlAll => any_exec_all = true,
                        ReportPart::ExecSqlNamed(op) => {
                            if op.starts_with("$(") {
                                references(tokens(op), &mut nonrow_refs);
                            } else {
                                named_execs.insert(op.clone());
                            }
                        }
                    }
                }
            }
            Section::Comment(_) => {}
        }
    }
    let referenced: BTreeSet<&String> = (nonrow_refs.iter())
        .chain(&row_refs)
        .chain(define_refs.values().flatten())
        .collect();

    let known = |name: &str| {
        defined.contains(name) || form_inputs.contains(name) || is_system_variable(name)
    };

    // W001 — references to nothing.
    for name in &referenced {
        if !known(name) {
            findings.push(Finding {
                code: "W001",
                message: format!(
                    "$({name}) is referenced but never defined and no form input provides it \
                     (it will silently evaluate to the null string)"
                ),
            });
        }
    }

    // W002 — unused defines. (Conditional tests count as uses.)
    for name in &defined {
        if !referenced.contains(name) && !tests.contains(name) {
            findings.push(Finding {
                code: "W002",
                message: format!("variable {name} is defined but never referenced"),
            });
        }
    }

    // W003 — unreachable SQL sections.
    let sql_sections: Vec<&SqlSection> = mac.sql_sections().collect();
    for sql in &sql_sections {
        let reachable = match &sql.name {
            None => any_exec_all,
            Some(name) => {
                named_execs.contains(name)
                    // A variable-dispatched %EXEC_SQL($(v)) may reach any
                    // named section; treat those macros as fully reachable.
                    || mac.sections.iter().any(|s| matches!(s, Section::HtmlReport(parts)
                        if parts.iter().any(|p| matches!(p, ReportPart::ExecSqlNamed(op) if op.starts_with("$(")))))
            }
        };
        if has_report_section && !reachable {
            findings.push(Finding {
                code: "W003",
                message: format!(
                    "SQL section {} can never be executed by the report section",
                    sql.name.as_deref().unwrap_or("(unnamed)")
                ),
            });
        }
    }

    // W004 — row variables reached from outside a %ROW scope, directly or
    // through DEFINEs.
    let mut reached: BTreeSet<&str> = BTreeSet::new();
    let mut pending: Vec<&str> = nonrow_refs.iter().map(String::as_str).collect();
    while let Some(name) = pending.pop() {
        // A name's DEFINE is followed on its first visit only.
        if let (true, Some(refs)) = (reached.insert(name), define_refs.get(name)) {
            pending.extend(refs.iter().map(String::as_str));
        }
    }
    for name in reached {
        if is_row_variable(name) && !defined.contains(name) && !form_inputs.contains(name) {
            findings.push(Finding {
                code: "W004",
                message: format!(
                    "row variable $({name}) referenced outside a %SQL_REPORT row scope \
                     will be null"
                ),
            });
        }
    }

    // W005 — report mode with no SQL.
    if has_report_section && sql_sections.is_empty() {
        findings.push(Finding {
            code: "W005",
            message: "the macro has an %HTML_REPORT but no %SQL sections".into(),
        });
    }

    // W006 — conditional tests that can never be non-null.
    for test in &tests {
        if !known(test) {
            findings.push(Finding {
                code: "W006",
                message: format!(
                    "conditional tests variable {test}, which is never defined and has no \
                     form input — the else-branch always wins"
                ),
            });
        }
    }

    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_macro;

    fn codes(src: &str) -> Vec<&'static str> {
        let mac = parse_macro(src).unwrap();
        let mut codes: Vec<&'static str> = lint(&mac).into_iter().map(|f| f.code).collect();
        codes.sort();
        codes.dedup();
        codes
    }

    #[test]
    fn clean_macro_has_no_findings() {
        let src = r#"%DEFINE cond = SEARCH ? "WHERE t LIKE '%$(SEARCH)%'" : ""
%SQL{ SELECT a FROM t $(cond)
%SQL_REPORT{%ROW{$(V1)%}%}
%}
%HTML_INPUT{<FORM ACTION="r"><INPUT NAME="SEARCH"></FORM>%}
%HTML_REPORT{%EXEC_SQL%}"#;
        assert!(
            codes(src).is_empty(),
            "{:?}",
            lint(&parse_macro(src).unwrap())
        );
    }

    #[test]
    fn undefined_reference_w001() {
        let src = "%HTML_INPUT{$(typo_here)%}";
        assert_eq!(codes(src), vec!["W001"]);
    }

    #[test]
    fn form_inputs_count_as_definitions() {
        let src = "%HTML_INPUT{<FORM ACTION=\"r\"><INPUT NAME=\"X\"></FORM>%}\n%HTML_REPORT{$(X)%}\n%SQL{ S %}";
        // W003 fires (the SQL section is unreachable) but not W001.
        assert!(!codes(src).contains(&"W001"));
    }

    #[test]
    fn unused_define_w002() {
        let src = "%DEFINE never = \"x\"\n%HTML_INPUT{hello%}";
        assert_eq!(codes(src), vec!["W002"]);
    }

    #[test]
    fn unreachable_sql_w003() {
        let src = "%SQL(a){ S %}\n%SQL(b){ T %}\n%HTML_REPORT{%EXEC_SQL(a)%}";
        let mac = parse_macro(src).unwrap();
        let findings = lint(&mac);
        assert!(findings
            .iter()
            .any(|f| f.code == "W003" && f.message.contains('b')));
        assert!(!findings
            .iter()
            .any(|f| f.code == "W003" && f.message.contains("(a)")));
    }

    #[test]
    fn variable_dispatch_suppresses_w003() {
        let src = "%SQL(a){ S %}\n%SQL(b){ T %}\n%HTML_REPORT{%EXEC_SQL($(pick))%}\n";
        // $(pick) may name either section; and pick itself is W001.
        let found = codes(src);
        assert!(!found.contains(&"W003"), "{found:?}");
    }

    #[test]
    fn row_variable_outside_row_w004() {
        let src = "%SQL{ S %}\n%HTML_REPORT{Value: $(V1)\n%EXEC_SQL%}";
        assert!(codes(src).contains(&"W004"));
        // A report's header and footer and a %SQL_MESSAGE text are not row scope.
        for (report, message) in [("$(V1)%ROW{.%}", ""), ("%ROW{.%}$(V1)", ""), ("", "$(V1)")] {
            let src = format!(
                "%SQL{{ S\n%SQL_REPORT{{{report}%}}\n%SQL_MESSAGE{{ default : \"{message}\" %}}\n%}}\n\
                 %HTML_REPORT{{%EXEC_SQL%}}"
            );
            assert_eq!(codes(&src), vec!["W004"], "{src}");
        }
    }

    #[test]
    fn row_variable_reached_through_a_define() {
        // Evaluated lazily: fine from %ROW (Appendix A's D2), null elsewhere.
        assert!(!codes(test_macros::APPENDIX_A_EQUIVALENT).contains(&"W004"));
        let src = "%DEFINE d = \"<$(V1)>\"\n%HTML_INPUT{$(d)%}";
        assert_eq!(codes(src), vec!["W004"]);
    }

    #[test]
    fn nested_reference_is_seen_as_run_time_sees_it() {
        // `$(a` is malformed; substitution dereferences b, so b is used.
        assert!(codes("%DEFINE b = \"x\"\n%HTML_INPUT{$(a$(b))%}").is_empty());
    }

    #[test]
    fn report_without_sql_w005() {
        let src = "%HTML_REPORT{static only%}";
        assert_eq!(codes(src), vec!["W005"]);
    }

    #[test]
    fn impossible_test_w006() {
        let src = "%DEFINE a = NEVER_SET ? \"x\" : \"y\"\n%HTML_INPUT{$(a)%}";
        assert_eq!(codes(src), vec!["W006"]);
    }

    #[test]
    fn system_variables_are_known() {
        let src = "%SQL{ S\n%SQL_REPORT{$(NLIST)$(N_title)%ROW{$(V2)$(ROW_NUM)%}$(ROW_NUM)%}\n%}\n%HTML_REPORT{%EXEC_SQL%}";
        assert!(codes(src).is_empty(), "{:?}", codes(src));
    }

    #[test]
    fn appendix_a_macro_lints_clean_of_w001() {
        // The reference application must not have typo-class findings.
        let mac = parse_macro(test_macros::APPENDIX_A_EQUIVALENT).unwrap();
        let findings = lint(&mac);
        assert!(!findings.iter().any(|f| f.code == "W001"), "{findings:?}");
    }
}

#[cfg(test)]
pub(crate) mod test_macros {
    /// A compact equivalent of the Appendix A application for linting.
    pub const APPENDIX_A_EQUIVALENT: &str = r#"%DEFINE{
  dbtbl = "urldb"
  %LIST " OR " L_INFO
  L_INFO = USE_URL ? "$(dbtbl).url LIKE '%$(SEARCH)%'" : ""
  L_INFO = USE_TITLE ? "$(dbtbl).title LIKE '%$(SEARCH)%'" : ""
  WHERELIST = ? "WHERE $(L_INFO)"
  D2 = ? "<br>$(V2)"
%}
%SQL{ SELECT url, $(DBFIELDS) FROM $(dbtbl) $(WHERELIST) ORDER BY title
%SQL_REPORT{<UL>
%ROW{<LI><A HREF="$(V1)">$(V1)</A> $(D2)
%}</UL>
%}
%}
%HTML_INPUT{<FORM METHOD="post" ACTION="/cgi-bin/db2www/u/report">
<INPUT NAME="SEARCH" VALUE="ib">
<INPUT TYPE="checkbox" NAME="USE_URL" VALUE="yes" CHECKED>
<INPUT TYPE="checkbox" NAME="USE_TITLE" VALUE="yes" CHECKED>
<SELECT NAME="DBFIELDS" MULTIPLE><OPTION VALUE="title" SELECTED>T</SELECT>
<INPUT TYPE="submit" VALUE="Go">
</FORM>%}
%HTML_REPORT{<H1>Result</H1>
%EXEC_SQL
%}"#;
}
