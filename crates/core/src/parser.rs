//! Parser for the macro language (§3 of the paper).
//!
//! Grammar, reconstructed from the paper's syntax boxes:
//!
//! ```text
//! macro        := section*
//! section      := define | sql | html-input | html-report | comment
//! define       := %DEFINE define-stmt
//!               | %DEFINE{ define-stmt* %}
//! define-stmt  := %LIST value varname                       (list decl)
//!               | varname = value                           (simple)
//!               | varname = %EXEC value                     (executable)
//!               | varname = ? value                         (cond, 1-armed)
//!               | varname = testvar ? value : value         (cond, 2-armed)
//! value        := "single-line-string" | { multi-line-text %}
//! sql          := %SQL [(name)] { sql-text
//!                   [%SQL_REPORT{ header [%ROW{ text %}] footer %}]
//!                   [%SQL_MESSAGE{ message-entry* %}] %}
//! message-entry:= (integer | default) : value [: (continue | exit)]
//! html-input   := %HTML_INPUT{ text %}
//! html-report  := %HTML_REPORT{ (text | %EXEC_SQL[(operand)])* %}
//! comment      := %{ text %}
//! ```
//!
//! Keywords are case-insensitive; variable and section names are case-
//! sensitive. Section blocks may not nest, except the report/message/row
//! blocks inside a SQL section. The paper also allows `%HTML(INPUT)` /
//! `%HTML(REPORT)` spellings in the product; we accept the underscore forms
//! it uses throughout.

use crate::ast::*;
use crate::error::{MacroError, MacroResult};

/// Parse a macro file.
pub fn parse_macro(src: &str) -> MacroResult<MacroFile> {
    let _span = dbgw_obs::trace::span("parse_macro");
    dbgw_obs::metrics().macro_parses.inc();
    let mut cur = Cursor::new(src);
    let mut sections = Vec::new();
    let mut unnamed_exec_seen = false;
    loop {
        cur.skip_ws();
        if cur.at_end() {
            break;
        }
        if !cur.eat_char('%') {
            return Err(cur.err("expected a %-section keyword"));
        }
        if cur.eat_char('{') {
            // %{ comment %}
            let body = cur.take_until_close()?;
            sections.push(Section::Comment(body));
            continue;
        }
        let keyword = cur.take_keyword();
        match keyword.to_ascii_uppercase().as_str() {
            "DEFINE" => sections.push(Section::Define(parse_define(&mut cur)?)),
            "SQL" => {
                let sql = parse_sql(&mut cur)?;
                // "each SQL section may optionally be named with a *unique*
                // sql-section-name" (§3.2).
                if let Some(name) = &sql.name {
                    let duplicate = sections.iter().any(
                        |s| matches!(s, Section::Sql(prev) if prev.name.as_deref() == Some(name)),
                    );
                    if duplicate {
                        return Err(cur.err(format!("duplicate SQL section name {name}")));
                    }
                }
                sections.push(Section::Sql(sql));
            }
            "HTML_INPUT" => {
                cur.skip_ws();
                cur.expect_char('{')?;
                let body = cur.take_until_close()?;
                sections.push(Section::HtmlInput(Template::new(body)));
            }
            "HTML_REPORT" => {
                cur.skip_ws();
                cur.expect_char('{')?;
                let body = cur.take_until_close()?;
                let parts = split_report(&body);
                let unnamed = parts
                    .iter()
                    .filter(|p| matches!(p, ReportPart::ExecSqlAll))
                    .count();
                if unnamed > 1 || (unnamed == 1 && unnamed_exec_seen) {
                    return Err(
                        cur.err("at most one unnamed %EXEC_SQL is allowed in the HTML report form")
                    );
                }
                unnamed_exec_seen |= unnamed == 1;
                sections.push(Section::HtmlReport(parts));
            }
            other => {
                return Err(cur.err(format!("unknown section keyword %{other}")));
            }
        }
    }
    Ok(MacroFile { sections })
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, message: impl Into<String>) -> MacroError {
        MacroError::parse(message, self.line, self.col)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let ch = self.peek()?;
        self.pos += ch.len_utf8();
        if ch == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(ch)
    }

    fn bump_n(&mut self, n_bytes: usize) {
        let target = self.pos + n_bytes;
        while self.pos < target {
            self.bump();
        }
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|c| c.is_whitespace()) {
            self.bump();
        }
    }

    /// Skip spaces and tabs but not newlines.
    fn skip_inline_ws(&mut self) {
        while self
            .peek()
            .is_some_and(|c| c == ' ' || c == '\t' || c == '\r')
        {
            self.bump();
        }
    }

    fn eat_char(&mut self, c: char) -> bool {
        if self.peek() == Some(c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_char(&mut self, c: char) -> MacroResult<()> {
        if self.eat_char(c) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {c:?}, found {:?}",
                self.peek()
                    .map(String::from)
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    /// Take an identifier-shaped keyword after `%`.
    fn take_keyword(&mut self) -> String {
        let mut out = String::new();
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            out.push(self.bump().unwrap());
        }
        out
    }

    /// Take a variable name: `[A-Za-z_][A-Za-z0-9_]*`.
    fn take_varname(&mut self) -> MacroResult<String> {
        let mut out = String::new();
        match self.peek() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' => out.push(self.bump().unwrap()),
            _ => return Err(self.err("expected a variable name")),
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            out.push(self.bump().unwrap());
        }
        Ok(out)
    }

    /// Take body text up to and including the matching `%}` terminator.
    fn take_until_close(&mut self) -> MacroResult<String> {
        let start = self.pos;
        loop {
            let rest = self.rest();
            let Some(offset) = rest.find('%') else {
                return Err(self.err("section is missing its %} terminator"));
            };
            if rest[offset..].starts_with("%}") {
                let body = self.src[start..self.pos + offset].to_owned();
                self.bump_n(offset + 2);
                return Ok(body);
            }
            self.bump_n(offset + 1);
        }
    }

    /// Take a *value*: `"..."` on one line or `{ ... %}` over multiple lines.
    fn take_value(&mut self) -> MacroResult<String> {
        self.skip_ws();
        match self.peek() {
            Some('"') => {
                self.bump();
                let mut out = String::new();
                loop {
                    match self.bump() {
                        Some('"') => return Ok(out),
                        Some('\n') => {
                            return Err(self.err("quoted value string may not span lines"))
                        }
                        Some(c) => out.push(c),
                        None => return Err(self.err("unterminated quoted value string")),
                    }
                }
            }
            Some('{') => {
                self.bump();
                self.take_until_close()
            }
            _ => Err(self.err("expected a value: \"string\" or { block %}")),
        }
    }
}

// ---------------------------------------------------------------------------
// %DEFINE
// ---------------------------------------------------------------------------

fn parse_define(cur: &mut Cursor) -> MacroResult<Vec<DefineStatement>> {
    cur.skip_inline_ws();
    if cur.eat_char('{') {
        let mut stmts = Vec::new();
        loop {
            cur.skip_ws();
            if cur.rest().starts_with("%}") {
                cur.bump_n(2);
                return Ok(stmts);
            }
            if cur.at_end() {
                return Err(cur.err("%DEFINE{ block is missing its %} terminator"));
            }
            stmts.push(parse_define_statement(cur)?);
        }
    }
    // Line form: exactly one statement.
    cur.skip_ws();
    Ok(vec![parse_define_statement(cur)?])
}

fn parse_define_statement(cur: &mut Cursor) -> MacroResult<DefineStatement> {
    if cur.eat_char('%') {
        let kw = cur.take_keyword();
        if !kw.eq_ignore_ascii_case("LIST") {
            return Err(cur.err(format!("unexpected %{kw} in a DEFINE section")));
        }
        let separator = cur.take_value()?;
        cur.skip_ws();
        let name = cur.take_varname()?;
        return Ok(DefineStatement::ListDecl { name, separator });
    }
    let name = cur.take_varname()?;
    cur.skip_ws();
    cur.expect_char('=')?;
    cur.skip_ws();
    match cur.peek() {
        Some('"') | Some('{') => {
            let value = cur.take_value()?;
            Ok(DefineStatement::Simple { name, value })
        }
        Some('?') => {
            cur.bump();
            let value = cur.take_value()?;
            Ok(DefineStatement::CondUnary { name, value })
        }
        Some('%') => {
            cur.bump();
            let kw = cur.take_keyword();
            if !kw.eq_ignore_ascii_case("EXEC") {
                return Err(cur.err(format!("unexpected %{kw} after = in a DEFINE")));
            }
            let command = cur.take_value()?;
            Ok(DefineStatement::Exec { name, command })
        }
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {
            let test = cur.take_varname()?;
            cur.skip_ws();
            cur.expect_char('?')?;
            let then_value = cur.take_value()?;
            cur.skip_ws();
            cur.expect_char(':')?;
            let else_value = cur.take_value()?;
            Ok(DefineStatement::CondBinary {
                name,
                test,
                then_value,
                else_value,
            })
        }
        _ => Err(cur.err("expected a value, '?', %EXEC, or a test variable after =")),
    }
}

// ---------------------------------------------------------------------------
// %SQL
// ---------------------------------------------------------------------------

fn parse_sql(cur: &mut Cursor) -> MacroResult<SqlSection> {
    cur.skip_inline_ws();
    let name = if cur.eat_char('(') {
        cur.skip_ws();
        let n = cur.take_varname()?;
        cur.skip_ws();
        cur.expect_char(')')?;
        Some(n)
    } else {
        None
    };
    cur.skip_inline_ws();
    if cur.peek() != Some('{') {
        // Line format (§3.2): the rest of the line is the SQL command; no
        // report/message blocks are possible in this form.
        let mut command = String::new();
        while let Some(c) = cur.peek() {
            if c == '\n' {
                break;
            }
            command.push(cur.bump().unwrap());
        }
        if command.trim().is_empty() {
            return Err(cur.err("line-format %SQL needs a statement on the same line"));
        }
        return Ok(SqlSection {
            name,
            command: Template::new(command.trim()),
            report: None,
            messages: Vec::new(),
        });
    }
    cur.expect_char('{')?;

    // The SQL command runs until %SQL_REPORT{ / %SQL_MESSAGE{ / %}.
    let mut command = String::new();
    let mut report = None;
    let mut messages = Vec::new();
    loop {
        let rest = cur.rest();
        let Some(offset) = rest.find('%') else {
            return Err(cur.err("%SQL section is missing its %} terminator"));
        };
        command.push_str(&rest[..offset]);
        cur.bump_n(offset);
        let rest = cur.rest();
        if rest.starts_with("%}") {
            cur.bump_n(2);
            break;
        }
        if starts_with_kw(rest, "%SQL_REPORT") {
            cur.bump_n("%SQL_REPORT".len());
            cur.skip_ws();
            cur.expect_char('{')?;
            if report.is_some() {
                return Err(cur.err("a SQL section may have only one %SQL_REPORT block"));
            }
            report = Some(parse_sql_report(cur)?);
            continue;
        }
        if starts_with_kw(rest, "%SQL_MESSAGE") {
            cur.bump_n("%SQL_MESSAGE".len());
            cur.skip_ws();
            cur.expect_char('{')?;
            messages = parse_sql_messages(cur)?;
            continue;
        }
        // A lone % inside the SQL text (e.g. LIKE '%x%').
        command.push('%');
        cur.bump();
    }
    Ok(SqlSection {
        name,
        command: Template::new(command.trim()),
        report,
        messages,
    })
}

fn starts_with_kw(rest: &str, kw: &str) -> bool {
    rest.len() >= kw.len() && rest[..kw.len()].eq_ignore_ascii_case(kw)
}

fn parse_sql_report(cur: &mut Cursor) -> MacroResult<SqlReport> {
    let mut header = String::new();
    loop {
        let rest = cur.rest();
        let Some(offset) = rest.find('%') else {
            return Err(cur.err("%SQL_REPORT block is missing its %} terminator"));
        };
        header.push_str(&rest[..offset]);
        cur.bump_n(offset);
        let rest = cur.rest();
        if rest.starts_with("%}") {
            cur.bump_n(2);
            // No %ROW block at all.
            return Ok(SqlReport {
                header: Template::new(header),
                row: None,
                footer: Template::default(),
            });
        }
        if starts_with_kw(rest, "%ROW") {
            cur.bump_n("%ROW".len());
            cur.skip_ws();
            cur.expect_char('{')?;
            let row = cur.take_until_close()?;
            let footer = cur.take_until_close()?;
            return Ok(SqlReport {
                header: Template::new(header),
                row: Some(Template::new(row)),
                footer: Template::new(footer),
            });
        }
        header.push('%');
        cur.bump();
    }
}

fn parse_sql_messages(cur: &mut Cursor) -> MacroResult<Vec<SqlMessage>> {
    let mut entries = Vec::new();
    loop {
        cur.skip_ws();
        if cur.rest().starts_with("%}") {
            cur.bump_n(2);
            return Ok(entries);
        }
        if cur.at_end() {
            return Err(cur.err("%SQL_MESSAGE block is missing its %} terminator"));
        }
        // code : "text" [: action]
        let code = if cur.rest().len() >= 7 && cur.rest()[..7].eq_ignore_ascii_case("default") {
            cur.bump_n(7);
            None
        } else {
            let mut digits = String::new();
            if cur.peek() == Some('+') || cur.peek() == Some('-') {
                digits.push(cur.bump().unwrap());
            }
            while cur.peek().is_some_and(|c| c.is_ascii_digit()) {
                digits.push(cur.bump().unwrap());
            }
            let n: i32 = digits
                .parse()
                .map_err(|_| cur.err("expected an SQLCODE integer or 'default'"))?;
            Some(n)
        };
        cur.skip_ws();
        cur.expect_char(':')?;
        let text = Template::new(cur.take_value()?);
        cur.skip_inline_ws();
        let action = if cur.eat_char(':') {
            cur.skip_ws();
            let word = cur.take_keyword();
            match word.to_ascii_uppercase().as_str() {
                "CONTINUE" => MessageAction::Continue,
                "EXIT" => MessageAction::Exit,
                other => return Err(cur.err(format!("unknown message action {other}"))),
            }
        } else {
            MessageAction::Exit
        };
        entries.push(SqlMessage { code, text, action });
    }
}

// ---------------------------------------------------------------------------
// %HTML_REPORT splitting
// ---------------------------------------------------------------------------

/// Split a report body into HTML runs and `%EXEC_SQL` directives.
fn split_report(body: &str) -> Vec<ReportPart> {
    const KW: &str = "%EXEC_SQL";
    let mut parts = Vec::new();
    let mut rest = body;
    loop {
        // Case-insensitive search for %EXEC_SQL.
        let found = rest
            .char_indices()
            .find(|&(i, c)| c == '%' && starts_with_kw(&rest[i..], KW));
        let Some((at, _)) = found else {
            if !rest.is_empty() {
                parts.push(ReportPart::Html(Template::new(rest)));
            }
            return parts;
        };
        if at > 0 {
            parts.push(ReportPart::Html(Template::new(&rest[..at])));
        }
        rest = &rest[at + KW.len()..];
        // Optional (operand).
        let trimmed_start = rest.len() - rest.trim_start_matches([' ', '\t']).len();
        let after_ws = &rest[trimmed_start..];
        if let Some(stripped) = after_ws.strip_prefix('(') {
            // The operand may itself contain $(var) references, so match
            // parentheses with a depth counter.
            let mut depth = 1usize;
            let mut end = None;
            for (i, c) in stripped.char_indices() {
                match c {
                    '(' => depth += 1,
                    ')' => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(i);
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if let Some(end) = end {
                parts.push(ReportPart::ExecSqlNamed(stripped[..end].trim().to_owned()));
                rest = &stripped[end + 1..];
                continue;
            }
        }
        parts.push(ReportPart::ExecSqlAll);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_define_line_and_block() {
        let m = parse_macro("%DEFINE a = \"hello\"\n%define{ b = \"x\" c = \"y\" %}").unwrap();
        assert_eq!(m.sections.len(), 2);
        let Section::Define(stmts) = &m.sections[1] else {
            panic!()
        };
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn parses_multiline_value() {
        let m = parse_macro("%DEFINE{ a = {line one\nline two %} %}").unwrap();
        let Section::Define(stmts) = &m.sections[0] else {
            panic!()
        };
        assert_eq!(
            stmts[0],
            DefineStatement::Simple {
                name: "a".into(),
                value: "line one\nline two ".into()
            }
        );
    }

    #[test]
    fn parses_conditionals() {
        let src = r#"%DEFINE{
            where_list = ? "custid = $(cust_inp)"
            where_clause = USE_URL ? "WHERE $(where_list)" : ""
        %}"#;
        let m = parse_macro(src).unwrap();
        let Section::Define(stmts) = &m.sections[0] else {
            panic!()
        };
        assert_eq!(
            stmts[0],
            DefineStatement::CondUnary {
                name: "where_list".into(),
                value: "custid = $(cust_inp)".into()
            }
        );
        assert_eq!(
            stmts[1],
            DefineStatement::CondBinary {
                name: "where_clause".into(),
                test: "USE_URL".into(),
                then_value: "WHERE $(where_list)".into(),
                else_value: String::new(),
            }
        );
    }

    #[test]
    fn parses_list_and_exec() {
        let src = "%DEFINE{ %LIST \" OR \" L_INFO\n err = %EXEC \"notify $(user)\" %}";
        let m = parse_macro(src).unwrap();
        let Section::Define(stmts) = &m.sections[0] else {
            panic!()
        };
        assert_eq!(
            stmts[0],
            DefineStatement::ListDecl {
                name: "L_INFO".into(),
                separator: " OR ".into()
            }
        );
        assert_eq!(
            stmts[1],
            DefineStatement::Exec {
                name: "err".into(),
                command: "notify $(user)".into()
            }
        );
    }

    #[test]
    fn parses_sql_with_report_and_row() {
        let src = r#"%SQL{
SELECT url, title FROM $(dbtbl) WHERE title LIKE '%$(SEARCH)%'
%SQL_REPORT{
<UL>
%ROW{ <LI><A HREF="$(V1)">$(V2)</A> %}
</UL>
%}
%}"#;
        let m = parse_macro(src).unwrap();
        let Section::Sql(sql) = &m.sections[0] else {
            panic!()
        };
        let command = sql.command.source();
        assert!(command.starts_with("SELECT url"));
        assert!(command.contains("'%$(SEARCH)%'"), "percent kept: {command}");
        let report = sql.report.as_ref().unwrap();
        assert!(report.header.source().contains("<UL>"));
        assert_eq!(
            report.row.as_ref().map(Template::source),
            Some(" <LI><A HREF=\"$(V1)\">$(V2)</A> ")
        );
        assert!(report.footer.source().contains("</UL>"));
    }

    #[test]
    fn parses_named_sql_section() {
        let m = parse_macro("%SQL(fetch){ SELECT 1 %}").unwrap();
        let Section::Sql(sql) = &m.sections[0] else {
            panic!()
        };
        assert_eq!(sql.name.as_deref(), Some("fetch"));
        assert_eq!(sql.command.source(), "SELECT 1");
    }

    #[test]
    fn parses_line_format_sql() {
        // §3.2: "A SQL section can be of a line format or a block format".
        let m = parse_macro(
            "%SQL SELECT url FROM urldb WHERE t LIKE '%$(S)%'\n\
             %SQL(named) DELETE FROM t\n\
             %HTML_REPORT{%EXEC_SQL%}",
        )
        .unwrap();
        let sqls: Vec<&SqlSection> = m.sql_sections().collect();
        assert_eq!(sqls.len(), 2);
        assert_eq!(
            sqls[0].command.source(),
            "SELECT url FROM urldb WHERE t LIKE '%$(S)%'"
        );
        assert_eq!(sqls[1].name.as_deref(), Some("named"));
        assert_eq!(sqls[1].command.source(), "DELETE FROM t");
        assert!(sqls[0].report.is_none());
    }

    #[test]
    fn empty_line_format_sql_rejected() {
        assert!(parse_macro("%SQL\n%HTML_REPORT{x%}").is_err());
    }

    #[test]
    fn parses_sql_message_block() {
        let src = r#"%SQL{
DELETE FROM t WHERE id = $(ID)
%SQL_MESSAGE{
  100 : "nothing to delete" : continue
  -204 : {table is missing %}
  default : "something failed"
%}
%}"#;
        let m = parse_macro(src).unwrap();
        let Section::Sql(sql) = &m.sections[0] else {
            panic!()
        };
        assert_eq!(sql.messages.len(), 3);
        assert_eq!(sql.messages[0].code, Some(100));
        assert_eq!(sql.messages[0].action, MessageAction::Continue);
        assert_eq!(sql.messages[1].code, Some(-204));
        assert_eq!(sql.messages[1].action, MessageAction::Exit);
        assert_eq!(sql.messages[2].code, None);
    }

    #[test]
    fn parses_html_report_with_exec_directives() {
        let src = "%HTML_REPORT{\n<H1>Result</H1>\n%EXEC_SQL\n<HR>\n%EXEC_SQL(next)\n%}";
        let m = parse_macro(src).unwrap();
        let Section::HtmlReport(parts) = &m.sections[0] else {
            panic!()
        };
        assert_eq!(parts.len(), 5); // html, exec, html, exec(next), trailing newline
        assert!(matches!(&parts[0], ReportPart::Html(h) if h.source().contains("<H1>")));
        assert_eq!(parts[1], ReportPart::ExecSqlAll);
        assert_eq!(parts[3], ReportPart::ExecSqlNamed("next".into()));
    }

    #[test]
    fn exec_sql_with_variable_operand() {
        let src = "%HTML_REPORT{ %EXEC_SQL($(sqlcmd)) %}";
        let m = parse_macro(src).unwrap();
        let Section::HtmlReport(parts) = &m.sections[0] else {
            panic!()
        };
        assert!(parts
            .iter()
            .any(|p| *p == ReportPart::ExecSqlNamed("$(sqlcmd)".into())));
    }

    #[test]
    fn two_unnamed_exec_sql_rejected() {
        let src = "%HTML_REPORT{ %EXEC_SQL %EXEC_SQL %}";
        assert!(parse_macro(src).is_err());
    }

    #[test]
    fn comment_section() {
        let m = parse_macro("%{ this is ignored %}%DEFINE a = \"1\"").unwrap();
        assert!(matches!(&m.sections[0], Section::Comment(c) if c.contains("ignored")));
    }

    #[test]
    fn unterminated_block_errors_with_location() {
        let err = parse_macro("%HTML_INPUT{ no close").unwrap_err();
        assert!(matches!(err, MacroError::Parse { .. }));
    }

    #[test]
    fn unknown_keyword_rejected() {
        assert!(parse_macro("%BOGUS{ x %}").is_err());
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse_macro("%html_input{ hi %}").is_ok());
        assert!(parse_macro("%Define a = \"1\"").is_ok());
    }

    #[test]
    fn quoted_value_may_not_span_lines() {
        assert!(parse_macro("%DEFINE a = \"one\ntwo\"").is_err());
    }

    #[test]
    fn percent_inside_html_passes_through() {
        let m = parse_macro("%HTML_INPUT{ 50% off! %}").unwrap();
        let Section::HtmlInput(body) = &m.sections[0] else {
            panic!()
        };
        assert_eq!(body.source(), " 50% off! ");
    }
}
