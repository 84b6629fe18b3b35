//! The macro run-time engine: input-mode and report-mode processing (§4).
//!
//! * **Input mode** processes DEFINE sections and the `%HTML_INPUT` section;
//!   SQL sections and the report section are skipped entirely (§4.1).
//! * **Report mode** processes DEFINE sections and the `%HTML_REPORT`
//!   section, executing SQL sections when `%EXEC_SQL` directives are reached
//!   and splicing their (custom or default) report output at the directive's
//!   position (§4.2).
//!
//! Macros are processed top to bottom; a `%DEFINE` after the section being
//! rendered is invisible to it (the paper's lazy-evaluation example, §4.3.1).

use crate::ast::{MacroFile, MessageAction, ReportPart, Section, SqlSection};
use crate::db::{Database, NoDatabase, RowSource};
use crate::env::{Bound, Env, ReportScope};
use crate::error::{MacroError, MacroResult};
use crate::exec::{CommandRunner, DenyRunner};
use crate::nls::{message, Language, Message};
use crate::sink::PageSink;
use crate::subst::Evaluator;
use dbgw_html::{escape_text, TableBuilder};
use dbgw_obs::{CancelReason, RequestCtx};
use std::sync::Arc;

/// Which half of the macro to process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Render the `%HTML_INPUT` form.
    Input,
    /// Render the `%HTML_REPORT`, executing SQL.
    Report,
}

impl Mode {
    /// Parse the `{cmd}` path component of a gateway URL (§4).
    pub fn from_command(cmd: &str) -> Option<Mode> {
        if cmd.eq_ignore_ascii_case("input") {
            Some(Mode::Input)
        } else if cmd.eq_ignore_ascii_case("report") {
            Some(Mode::Report)
        } else {
            None
        }
    }
}

/// Transaction handling across the SQL statements of one macro run (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxnMode {
    /// Every SQL statement is its own transaction.
    #[default]
    AutoCommit,
    /// All SQL statements form one transaction; any failure rolls back all of
    /// them.
    SingleTransaction,
}

/// Hard cap on rows printed per SQL report, `RPT_MAX_ROWS` or not.
const MAX_ROWS_HARD_LIMIT: usize = 100_000;

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Transaction mode.
    pub txn_mode: TxnMode,
    /// HTML-escape the values of system report variables (`Vi`, `VLIST`, …)
    /// before substitution. The 1996 product spliced raw database text into
    /// pages; escaping is the modern default, switchable off for fidelity.
    pub escape_values: bool,
    /// Language for the engine's own user-visible strings (§5 NLS).
    pub language: Language,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            txn_mode: TxnMode::AutoCommit,
            escape_values: true,
            language: Language::English,
        }
    }
}

/// The macro processor.
pub struct Engine<'r> {
    config: EngineConfig,
    runner: &'r dyn CommandRunner,
    /// The owning request's execution context; defaults to the unbounded
    /// context so direct library use runs without deadlines or budgets.
    ctx: Arc<RequestCtx>,
}

impl Default for Engine<'static> {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine<'static> {
    /// Engine with default config and executable variables disabled.
    pub fn new() -> Engine<'static> {
        Engine::with_config(EngineConfig::default())
    }

    /// Engine with a custom config, executable variables disabled.
    pub fn with_config(config: EngineConfig) -> Engine<'static> {
        Engine::with_runner(config, &DenyRunner)
    }
}

impl<'r> Engine<'r> {
    /// Engine with a custom command runner for `%EXEC` variables.
    pub fn with_runner(config: EngineConfig, runner: &'r dyn CommandRunner) -> Engine<'r> {
        Engine {
            config,
            runner,
            ctx: RequestCtx::unbounded(),
        }
    }

    /// Bind this engine to a request context. Section processing, SQL
    /// execution, substitution, and report rendering all become cancellation
    /// points; report rows are charged against the context's row/byte
    /// budgets.
    pub fn with_request_ctx(mut self, ctx: Arc<RequestCtx>) -> Engine<'r> {
        self.ctx = ctx;
        self
    }

    /// One cancellation point.
    fn check_ctx(&self) -> MacroResult<()> {
        self.ctx
            .check()
            .map_err(|reason| MacroError::Cancelled { reason })
    }

    /// An evaluator sharing this engine's runner and request context.
    fn evaluator<'e>(&'e self, env: &'e Env) -> Evaluator<'e> {
        Evaluator::with_ctx(env, self.runner, self.ctx.clone())
    }

    /// Process `mac` in `mode` with the given HTML input variables, against
    /// `db`. Returns the generated page body.
    pub fn process(
        &self,
        mac: &MacroFile,
        mode: Mode,
        inputs: &[(String, String)],
        db: &mut dyn Database,
    ) -> MacroResult<String> {
        let mut out = String::new();
        self.process_into(mac, mode, inputs, db, &mut out)?;
        Ok(out)
    }

    /// Like [`process`](Engine::process), but pushes the page into `out` as
    /// it is rendered instead of returning it whole. With a streaming sink
    /// (the HTTP server's chunked writer), report rows leave the process as
    /// the executor yields them; a sink push failure (client disconnected)
    /// cancels processing through the same SQLCODE −952 path deadlines use.
    pub fn process_into(
        &self,
        mac: &MacroFile,
        mode: Mode,
        inputs: &[(String, String)],
        db: &mut dyn Database,
        out: &mut dyn PageSink,
    ) -> MacroResult<()> {
        let mut env = Env::new();
        for (name, value) in inputs {
            env.push_input(name, value);
        }
        let mut rendered_target = false;
        let mut failed = false;

        let single_txn = mode == Mode::Report && self.config.txn_mode == TxnMode::SingleTransaction;
        if single_txn {
            db.begin().map_err(|e| MacroError::Sql {
                code: e.code,
                message: e.message,
                statement: "BEGIN".into(),
            })?;
        }

        'sections: for section in &mac.sections {
            self.check_ctx()?;
            match section {
                Section::Define(stmts) => {
                    for s in stmts {
                        env.apply(s);
                    }
                }
                Section::Comment(_) => {}
                Section::HtmlInput(body) => {
                    if mode == Mode::Input {
                        let text = self.evaluator(&env).render(body)?;
                        self.emit(out, &text)?;
                        rendered_target = true;
                    }
                }
                Section::HtmlReport(parts) => {
                    if mode != Mode::Report {
                        continue;
                    }
                    rendered_target = true;
                    for part in parts {
                        match part {
                            ReportPart::Html(text) => {
                                let text = self.evaluator(&env).render(text)?;
                                self.emit(out, &text)?;
                            }
                            ReportPart::ExecSqlAll | ReportPart::ExecSqlNamed(_) => {
                                for section in self.sections_to_run(mac, part, &env)? {
                                    if let Flow::Stop { error } =
                                        self.exec_sql(section, &env, db, out)?
                                    {
                                        failed = error;
                                        break 'sections;
                                    }
                                }
                            }
                        }
                    }
                }
                Section::Sql(_) => {} // executed only via %EXEC_SQL
            }
        }

        if single_txn {
            let end = if failed { db.rollback() } else { db.commit() };
            end.map_err(|e| MacroError::Sql {
                code: e.code,
                message: e.message,
                statement: if failed { "ROLLBACK" } else { "COMMIT" }.into(),
            })?;
        }

        if !rendered_target {
            return Err(MacroError::MissingSection {
                section: match mode {
                    Mode::Input => "%HTML_INPUT",
                    Mode::Report => "%HTML_REPORT",
                },
            });
        }
        Ok(())
    }

    /// Convenience: input mode needs no database (the paper guarantees no SQL
    /// executes in input mode).
    pub fn process_input(
        &self,
        mac: &MacroFile,
        inputs: &[(String, String)],
    ) -> MacroResult<String> {
        self.process(mac, Mode::Input, inputs, &mut NoDatabase)
    }

    /// The SQL sections an `%EXEC_SQL` directive runs: every unnamed one, in
    /// macro order, or the one its operand names (§4.2).
    fn sections_to_run<'m>(
        &self,
        mac: &'m MacroFile,
        part: &ReportPart,
        env: &Env,
    ) -> MacroResult<Vec<&'m SqlSection>> {
        let ReportPart::ExecSqlNamed(operand) = part else {
            let unnamed: Vec<&SqlSection> =
                mac.sql_sections().filter(|s| s.name.is_none()).collect();
            if unnamed.is_empty() {
                return Err(MacroError::NoSqlSections);
            }
            return Ok(unnamed);
        };
        let name = self.evaluator(env).substitute(operand)?;
        let name = name.trim();
        let section = mac
            .named_sql(name)
            .ok_or_else(|| MacroError::UnknownSqlSection {
                name: name.to_owned(),
            })?;
        Ok(vec![section])
    }

    /// Push rendered text into the sink, surfacing a dead sink (client gone)
    /// as request cancellation.
    fn emit(&self, out: &mut dyn PageSink, text: &str) -> MacroResult<()> {
        out.push(text)
            .map_err(|reason| MacroError::Cancelled { reason })
    }

    fn exec_sql(
        &self,
        section: &SqlSection,
        env: &Env,
        db: &mut dyn Database,
        out: &mut dyn PageSink,
    ) -> MacroResult<Flow> {
        let _span = dbgw_obs::trace::span("exec_sql");
        self.check_ctx()?;
        let sql = self.evaluator(env).render(&section.command)?;
        let sql = sql.trim();
        dbgw_obs::trace::note("sql", sql);
        dbgw_obs::metrics().sql_statements.inc();
        // The product's built-in `SHOWSQL` input variable: when it is
        // non-null, each executed statement is echoed into the report.
        if self.evaluator(env).is_nonnull("SHOWSQL")? {
            self.emit(out, "<P><CODE>")?;
            self.emit(out, &escape_text(sql))?;
            self.emit(out, "</CODE></P>\n")?;
        }
        match db.query(sql) {
            Ok(rows) => {
                // A database call can block well past the deadline; detect it
                // here rather than waiting for the next substitution step.
                self.check_ctx()?;
                if rows.sqlcode() == 100 {
                    dbgw_obs::metrics().sqlcode_errors.record(100);
                }
                self.render_result(section, rows.as_ref(), env, out)?;
                if rows.sqlcode() == 100 {
                    if let Some(msg) = find_message(section, 100) {
                        let text = self.evaluator(env).render(&msg.text)?;
                        self.emit(out, &text)?;
                        if msg.action == MessageAction::Exit {
                            return Ok(Flow::Stop { error: false });
                        }
                    }
                }
                Ok(Flow::Continue)
            }
            Err(e) => {
                dbgw_obs::metrics().sqlcode_errors.record(e.code);
                dbgw_obs::trace::note("sqlcode", e.code.to_string());
                match find_message(section, e.code) {
                    Some(msg) => {
                        let text = if e.code == dbgw_obs::CANCELLED_SQLCODE {
                            // The interrupt handler IS the error page: render
                            // it even though the context has already tripped.
                            Evaluator::new(env, self.runner).render(&msg.text)?
                        } else {
                            self.evaluator(env).render(&msg.text)?
                        };
                        self.emit(out, &text)?;
                        match msg.action {
                            MessageAction::Continue => Ok(Flow::Continue),
                            MessageAction::Exit => Ok(Flow::Stop { error: true }),
                        }
                    }
                    None if e.code == dbgw_obs::CANCELLED_SQLCODE => {
                        // A cancelled request with no %SQL_MESSAGE handler for
                        // SQLCODE -952 surfaces as a request-level error so
                        // the gateway can render its timeout page.
                        Err(MacroError::Cancelled {
                            reason: self.ctx.cancel_reason().unwrap_or(CancelReason::Cancelled),
                        })
                    }
                    None => {
                        // "...or by printing the DBMS error message" (§4.2).
                        self.emit(
                            out,
                            &format!(
                                "<P><B>{} {}</B>: {}</P>\n",
                                message(self.config.language, Message::SqlErrorBanner),
                                e.code,
                                escape_text(&e.message)
                            ),
                        )?;
                        Ok(Flow::Stop { error: true })
                    }
                }
            }
        }
    }

    fn render_result(
        &self,
        section: &SqlSection,
        rows: &dyn RowSource,
        env: &Env,
        out: &mut dyn PageSink,
    ) -> MacroResult<()> {
        let _span = dbgw_obs::trace::span("render_report");
        // DML with no report block prints nothing.
        if rows.columns().is_empty() && section.report.is_none() {
            return Ok(());
        }
        let mut ev = self.evaluator(env);
        let max_rows = ev
            .value_of("RPT_MAX_ROWS")?
            .trim()
            .parse::<usize>()
            .ok()
            .unwrap_or(MAX_ROWS_HARD_LIMIT)
            .min(MAX_ROWS_HARD_LIMIT);

        let printed = rows.len().min(max_rows);
        dbgw_obs::metrics().rows_rendered.add(printed as u64);
        dbgw_obs::trace::note("rows", printed.to_string());
        // A printed row's values become text in `cells`; the row renders
        // into `buf`, is charged against the request budgets *before* it is
        // pushed, and is pushed whole, so a streaming sink ships the report
        // as the rows render. Rows past the printed ones are never formatted.
        let (mut cells, mut buf) = (Vec::new(), String::new());

        let Some(report) = &section.report else {
            // Default table format (§3.4).
            let header = TableBuilder::header_html(rows.columns());
            self.charge(0, header.len())?;
            self.emit(out, &header)?;
            for i in 0..printed {
                if i % 128 == 0 {
                    self.check_ctx()?;
                }
                rows.fill_row(i, &mut cells);
                buf.clear();
                TableBuilder::push_row_html(&mut buf, rows.columns().len(), &cells);
                self.charge(1, buf.len())?;
                self.emit(out, &buf)?;
            }
            self.charge(0, TableBuilder::FOOTER_HTML.len())?;
            self.emit(out, TableBuilder::FOOTER_HTML)?;
            return Ok(());
        };

        // Custom report (§3.2.1): the header sees the column names.
        let mut scope = ReportScope {
            columns: rows.columns(),
            row: None,
            row_num: 0,
            escape: self.config.escape_values,
        };
        ev.scope = Some(scope);
        let header = ev.render(&report.header)?;
        self.emit(out, &header)?;

        if let Some(template) = &report.row {
            // Bound once per row width — once per result from a real DBMS.
            let (mut width, mut pieces) = (None, Vec::new());
            for i in 0..printed {
                rows.fill_row(i, &mut cells);
                let row = ReportScope {
                    row: Some(&cells),
                    row_num: i + 1,
                    ..scope
                };
                if width != Some(cells.len()) {
                    (width, pieces) = (Some(cells.len()), row.bind(template));
                }
                // Only a row that reaches a name the scope does not bind
                // needs an evaluator.
                let mut row_ev = None;
                buf.clear();
                for piece in &pieces {
                    match *piece {
                        Bound::Text(text) => buf.push_str(text),
                        Bound::Slot(slot) => row.write(slot, &mut buf),
                        // A DEFINE, an input, or nothing: the evaluator
                        // looks it up over this same row.
                        Bound::Var(name) => row_ev
                            .get_or_insert_with(|| {
                                let mut ev = self.evaluator(env);
                                ev.scope = Some(row);
                                ev
                            })
                            .write_value(name, &mut buf)?,
                    }
                }
                self.charge(1, buf.len())?;
                self.check_ctx()?;
                self.emit(out, &buf)?;
            }
        }

        // "After all rows have been fetched ... ROW_NUM contains the total
        // number of rows that result from the query, regardless of whether
        // all rows were printed" (§3.2.1).
        scope.row_num = rows.len();
        ev.scope = Some(scope);
        let footer = ev.render(&report.footer)?;
        self.emit(out, &footer)
    }

    /// Charge rendered report output against the request's row/byte budgets.
    fn charge(&self, rows: usize, bytes: usize) -> MacroResult<()> {
        self.ctx
            .charge_rows(rows as u64)
            .and_then(|()| self.ctx.charge_bytes(bytes as u64))
            .map_err(|reason| MacroError::Cancelled { reason })
    }
}

enum Flow {
    Continue,
    Stop { error: bool },
}

fn find_message(section: &SqlSection, code: i32) -> Option<&crate::ast::SqlMessage> {
    section
        .messages
        .iter()
        .find(|m| m.code == Some(code))
        .or_else(|| section.messages.iter().find(|m| m.code.is_none()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{DbError, DbRows, FnDatabase};
    use crate::parser::parse_macro;

    fn ok_rows(columns: &[&str], rows: &[&[&str]]) -> DbRows {
        DbRows {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|s| s.to_string()).collect())
                .collect(),
            affected: 0,
        }
    }

    fn report(mac: &MacroFile, db: &mut dyn Database) -> MacroResult<String> {
        Engine::new().process(mac, Mode::Report, &[], db)
    }

    fn failing(code: i32, message: &str) -> impl Database + '_ {
        FnDatabase(move |_: &str| {
            Err(DbError {
                code,
                message: message.into(),
            })
        })
    }

    fn inputs(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn lazy_evaluation_paper_example() {
        // §4.3.1: X sees Y but not the later-defined Z.
        let mac = parse_macro(
            "%define X = \"One$(Y)$(Z)\"\n\
             %define Y = \" Two\"\n\
             %HTML_INPUT{$(X)%}\n\
             %define Z = \" Three\"",
        )
        .unwrap();
        let out = Engine::new().process_input(&mac, &[]).unwrap();
        assert_eq!(out, "One Two");
    }

    #[test]
    fn input_mode_skips_sql_entirely() {
        let mac = parse_macro("%SQL{ SELECT boom %}\n%HTML_INPUT{form%}\n%HTML_REPORT{%EXEC_SQL%}")
            .unwrap();
        // NoDatabase errors on any execute; input mode must not touch it.
        let out = Engine::new().process_input(&mac, &[]).unwrap();
        assert_eq!(out, "form");
    }

    #[test]
    fn report_mode_executes_and_splices_default_table() {
        let mac =
            parse_macro("%SQL{ SELECT * FROM t %}\n%HTML_REPORT{<H1>R</H1>\n%EXEC_SQL\n<HR>%}")
                .unwrap();
        let mut db = FnDatabase(|sql: &str| {
            assert_eq!(sql, "SELECT * FROM t");
            Ok(ok_rows(&["a"], &[&["1"], &["2"]]))
        });
        let out = report(&mac, &mut db).unwrap();
        assert!(out.starts_with("<H1>R</H1>"));
        assert!(out.contains("<TABLE BORDER=1>"));
        assert!(out.contains("<TD>2</TD>"));
        assert!(out.trim_end().ends_with("<HR>"));
    }

    #[test]
    fn custom_report_with_row_variables() {
        let mac = parse_macro(
            "%SQL{ SELECT url, title FROM t\n\
             %SQL_REPORT{Columns: $(NLIST)<UL>\n\
             %ROW{<LI>#$(ROW_NUM) <A HREF=\"$(V1)\">$(V_title)</A>\n%}\
             </UL>Total $(ROW_NUM) rows.%}\n%}\n\
             %HTML_REPORT{%EXEC_SQL%}",
        )
        .unwrap();
        let mut db = FnDatabase(|_: &str| {
            Ok(ok_rows(
                &["url", "title"],
                &[&["http://a", "A"], &["http://b", "B"]],
            ))
        });
        let out = report(&mac, &mut db).unwrap();
        assert!(out.contains("Columns: url, title"));
        assert!(out.contains("#1 <A HREF=\"http://a\">A</A>"));
        assert!(out.contains("#2 <A HREF=\"http://b\">B</A>"));
        assert!(out.contains("Total 2 rows."));
    }

    #[test]
    fn rpt_max_rows_limits_printing_but_not_row_num() {
        let mac = parse_macro(
            "%define RPT_MAX_ROWS = \"2\"\n\
             %SQL{ SELECT a FROM t\n%SQL_REPORT{%ROW{[$(V1)]%}Total=$(ROW_NUM)%}\n%}\n\
             %HTML_REPORT{%EXEC_SQL%}",
        )
        .unwrap();
        let mut db = FnDatabase(|_: &str| Ok(ok_rows(&["a"], &[&["1"], &["2"], &["3"], &["4"]])));
        let out = report(&mac, &mut db).unwrap();
        assert_eq!(out, "[1][2]Total=4");
    }

    #[test]
    fn inputs_flow_into_sql() {
        let mac =
            parse_macro("%SQL{ SELECT * FROM t WHERE x = '$(SEARCH)' %}\n%HTML_REPORT{%EXEC_SQL%}")
                .unwrap();
        let mut seen = String::new();
        let mut db = FnDatabase(|sql: &str| {
            seen = sql.to_owned();
            Ok(ok_rows(&["x"], &[]))
        });
        Engine::new()
            .process(&mac, Mode::Report, &inputs(&[("SEARCH", "ib")]), &mut db)
            .unwrap();
        assert_eq!(seen, "SELECT * FROM t WHERE x = 'ib'");
    }

    #[test]
    fn named_sections_and_variable_dispatch() {
        let mac = parse_macro(
            "%SQL(one){ SELECT 1 %}\n%SQL(two){ SELECT 2 %}\n\
             %HTML_REPORT{%EXEC_SQL($(which))%}",
        )
        .unwrap();
        let mut executed = Vec::new();
        let mut db = FnDatabase(|sql: &str| {
            executed.push(sql.to_owned());
            Ok(ok_rows(&["n"], &[&["x"]]))
        });
        Engine::new()
            .process(&mac, Mode::Report, &inputs(&[("which", "two")]), &mut db)
            .unwrap();
        assert_eq!(executed, vec!["SELECT 2"]);
    }

    #[test]
    fn unknown_named_section_errors() {
        let mac = parse_macro("%SQL(a){ SELECT 1 %}\n%HTML_REPORT{%EXEC_SQL(b)%}").unwrap();
        let mut db = FnDatabase(|_: &str| Ok(DbRows::default()));
        let err = report(&mac, &mut db).unwrap_err();
        assert!(matches!(err, MacroError::UnknownSqlSection { name } if name == "b"));
    }

    #[test]
    fn unnamed_exec_runs_all_unnamed_in_order() {
        let mac = parse_macro(
            "%SQL{ FIRST %}\n%SQL(named){ NAMED %}\n%SQL{ SECOND %}\n\
             %HTML_REPORT{%EXEC_SQL%}",
        )
        .unwrap();
        let mut executed = Vec::new();
        let mut db = FnDatabase(|sql: &str| {
            executed.push(sql.to_owned());
            Ok(DbRows {
                affected: 1,
                ..DbRows::default()
            })
        });
        report(&mac, &mut db).unwrap();
        assert_eq!(executed, vec!["FIRST", "SECOND"]);
    }

    #[test]
    fn sql_error_without_handler_prints_dbms_message_and_stops() {
        let mac =
            parse_macro("%SQL{ BAD %}\n%SQL{ NEVER %}\n%HTML_REPORT{%EXEC_SQL\ntail%}").unwrap();
        let mut calls = 0;
        let mut db = FnDatabase(|_: &str| {
            calls += 1;
            Err(DbError {
                code: -204,
                message: "table missing".into(),
            })
        });
        let out = report(&mac, &mut db).unwrap();
        assert!(out.contains("SQL error -204"));
        assert!(out.contains("table missing"));
        assert!(!out.contains("tail"), "processing must stop");
        assert_eq!(calls, 1);
    }

    #[test]
    fn sql_message_handler_continue() {
        let mac = parse_macro(
            "%SQL{ BAD\n%SQL_MESSAGE{ -204 : \"<P>no table, moving on</P>\" : continue %}\n%}\n\
             %HTML_REPORT{%EXEC_SQL\ntail%}",
        )
        .unwrap();
        let mut db = failing(-204, "x");
        let out = report(&mac, &mut db).unwrap();
        assert!(out.contains("no table, moving on"));
        assert!(out.contains("tail"));
    }

    #[test]
    fn sql_message_default_handler() {
        let mac = parse_macro(
            "%SQL{ BAD\n%SQL_MESSAGE{ default : \"custom: $(oops)\" %}\n%}\n\
             %define oops = \"broken\"\n%HTML_REPORT{%EXEC_SQL%}",
        )
        .unwrap();
        let mut db = failing(-803, "dup");
        let out = report(&mac, &mut db).unwrap();
        // NOTE: the %define appears *before* %HTML_REPORT, so it is visible.
        assert_eq!(out, "custom: broken");
    }

    #[test]
    fn code_100_message_on_empty_result() {
        let mac = parse_macro(
            "%SQL{ Q\n%SQL_REPORT{%ROW{[$(V1)]%}%}\n\
             %SQL_MESSAGE{ 100 : \"<P>Nothing matched.</P>\" : continue %}\n%}\n\
             %HTML_REPORT{%EXEC_SQL%}",
        )
        .unwrap();
        let mut db = FnDatabase(|_: &str| Ok(ok_rows(&["a"], &[])));
        let out = report(&mac, &mut db).unwrap();
        assert!(out.contains("Nothing matched."));
    }

    #[test]
    fn single_transaction_commits_on_success() {
        let mac =
            parse_macro("%SQL{ INSERT 1 %}\n%SQL{ INSERT 2 %}\n%HTML_REPORT{%EXEC_SQL%}").unwrap();
        let mut log: Vec<String> = Vec::new();
        let mut db = FnDatabase(|sql: &str| {
            log.push(sql.to_owned());
            Ok(DbRows {
                affected: 1,
                ..DbRows::default()
            })
        });
        let engine = Engine::with_config(EngineConfig {
            txn_mode: TxnMode::SingleTransaction,
            ..EngineConfig::default()
        });
        engine.process(&mac, Mode::Report, &[], &mut db).unwrap();
        assert_eq!(log, vec!["BEGIN", "INSERT 1", "INSERT 2", "COMMIT"]);
    }

    #[test]
    fn single_transaction_rolls_back_on_failure() {
        let mac = parse_macro("%SQL{ INSERT 1 %}\n%SQL{ BAD %}\n%HTML_REPORT{%EXEC_SQL%}").unwrap();
        let mut log: Vec<String> = Vec::new();
        let mut db = FnDatabase(|sql: &str| {
            log.push(sql.to_owned());
            if sql == "BAD" {
                Err(DbError {
                    code: -204,
                    message: "boom".into(),
                })
            } else {
                Ok(DbRows {
                    affected: 1,
                    ..DbRows::default()
                })
            }
        });
        let engine = Engine::with_config(EngineConfig {
            txn_mode: TxnMode::SingleTransaction,
            ..EngineConfig::default()
        });
        engine.process(&mac, Mode::Report, &[], &mut db).unwrap();
        assert_eq!(log, vec!["BEGIN", "INSERT 1", "BAD", "ROLLBACK"]);
    }

    #[test]
    fn showsql_echoes_statement() {
        let mac = parse_macro("%SQL{ SELECT 1 %}\n%HTML_REPORT{%EXEC_SQL%}").unwrap();
        let mut db = FnDatabase(|_: &str| Ok(ok_rows(&["n"], &[&["1"]])));
        let out = Engine::new()
            .process(&mac, Mode::Report, &inputs(&[("SHOWSQL", "YES")]), &mut db)
            .unwrap();
        assert!(out.contains("<CODE>SELECT 1</CODE>"));
        // And absent when SHOWSQL is null (the CHECKED "No" radio sends "").
        let mut db = FnDatabase(|_: &str| Ok(ok_rows(&["n"], &[&["1"]])));
        let out = Engine::new()
            .process(&mac, Mode::Report, &inputs(&[("SHOWSQL", "")]), &mut db)
            .unwrap();
        assert!(!out.contains("<CODE>"));
    }

    #[test]
    fn values_html_escaped_by_default() {
        let mac = parse_macro("%SQL{ Q\n%SQL_REPORT{%ROW{$(V1)%}%}\n%}\n%HTML_REPORT{%EXEC_SQL%}")
            .unwrap();
        let mut db = FnDatabase(|_: &str| Ok(ok_rows(&["a"], &[&["<script>alert(1)</script>"]])));
        let out = report(&mac, &mut db).unwrap();
        assert!(out.contains("&lt;script&gt;"));
        // Fidelity mode: raw.
        let engine = Engine::with_config(EngineConfig {
            escape_values: false,
            ..EngineConfig::default()
        });
        let mut db = FnDatabase(|_: &str| Ok(ok_rows(&["a"], &[&["<b>"]])));
        let out = engine.process(&mac, Mode::Report, &[], &mut db).unwrap();
        assert!(out.contains("<b>"));
    }

    #[test]
    fn missing_sections_error() {
        let mac = parse_macro("%HTML_REPORT{x%}").unwrap();
        assert!(matches!(
            Engine::new().process_input(&mac, &[]).unwrap_err(),
            MacroError::MissingSection {
                section: "%HTML_INPUT"
            }
        ));
        let mac2 = parse_macro("%HTML_INPUT{x%}").unwrap();
        let mut db = FnDatabase(|_: &str| Ok(DbRows::default()));
        assert!(matches!(
            Engine::new()
                .process(&mac2, Mode::Report, &[], &mut db)
                .unwrap_err(),
            MacroError::MissingSection {
                section: "%HTML_REPORT"
            }
        ));
    }

    #[test]
    fn dollar_escape_stripped_in_output() {
        // §4.1: $$(varname) appears as $(varname) in the output.
        let mac = parse_macro("%HTML_INPUT{<OPTION VALUE=\"$$(hidden_a)\">%}").unwrap();
        let out = Engine::new().process_input(&mac, &[]).unwrap();
        assert_eq!(out, "<OPTION VALUE=\"$(hidden_a)\">");
    }

    #[test]
    fn mode_from_command() {
        assert_eq!(Mode::from_command("input"), Some(Mode::Input));
        assert_eq!(Mode::from_command("REPORT"), Some(Mode::Report));
        assert_eq!(Mode::from_command("bogus"), None);
    }

    #[test]
    fn cancelled_ctx_stops_section_processing() {
        let mac = parse_macro("%SQL{ SELECT 1 %}\n%HTML_REPORT{%EXEC_SQL%}").unwrap();
        let ctx = Arc::new(RequestCtx::new(7, Arc::new(dbgw_obs::StdClock::new())));
        ctx.cancel();
        let mut db = FnDatabase(|_: &str| Ok(ok_rows(&["n"], &[&["1"]])));
        let err = Engine::new()
            .with_request_ctx(ctx)
            .process(&mac, Mode::Report, &[], &mut db)
            .unwrap_err();
        assert!(matches!(
            err,
            MacroError::Cancelled {
                reason: CancelReason::Cancelled
            }
        ));
        assert!(err.to_string().contains("-952"));
    }

    #[test]
    fn deadline_trips_after_slow_database_call() {
        // The DB call itself "blocks" past the deadline (simulated by
        // advancing the test clock inside execute); the post-execute check
        // must catch it before any more output is rendered.
        let clock = Arc::new(dbgw_obs::TestClock::new());
        let ctx = Arc::new(RequestCtx::new(1, clock.clone()).with_deadline_ms(50));
        let mac = parse_macro("%SQL{ SLOW %}\n%HTML_REPORT{%EXEC_SQL\ntail%}").unwrap();
        let mut db = FnDatabase(|_: &str| {
            clock.advance_millis(60);
            Ok(ok_rows(&["n"], &[&["1"]]))
        });
        let err = Engine::new()
            .with_request_ctx(ctx)
            .process(&mac, Mode::Report, &[], &mut db)
            .unwrap_err();
        assert!(matches!(
            err,
            MacroError::Cancelled {
                reason: CancelReason::DeadlineExceeded { deadline_ms: 50 }
            }
        ));
    }

    #[test]
    fn sql_message_handler_intercepts_cancelled_sqlcode() {
        // A macro may install a %SQL_MESSAGE handler for SQLCODE -952 and
        // render its own interrupt page instead of the gateway's.
        let mac = parse_macro(
            "%SQL{ Q\n%SQL_MESSAGE{ -952 : \"<P>interrupted, sorry</P>\" : exit %}\n%}\n\
             %HTML_REPORT{%EXEC_SQL\ntail%}",
        )
        .unwrap();
        let mut db = failing(-952, "processing cancelled due to interrupt");
        let out = report(&mac, &mut db).unwrap();
        assert!(out.contains("interrupted, sorry"));
        assert!(!out.contains("tail"));
    }

    #[test]
    fn unhandled_cancelled_sqlcode_surfaces_as_cancelled_error() {
        let mac = parse_macro("%SQL{ Q %}\n%HTML_REPORT{%EXEC_SQL%}").unwrap();
        let mut db = failing(-952, "processing cancelled due to interrupt");
        let err = report(&mac, &mut db).unwrap_err();
        assert!(matches!(err, MacroError::Cancelled { .. }));
    }

    #[test]
    fn row_budget_caps_custom_report() {
        let mac =
            parse_macro("%SQL{ Q\n%SQL_REPORT{%ROW{[$(V1)]%}%}\n%}\n%HTML_REPORT{%EXEC_SQL%}")
                .unwrap();
        let ctx =
            Arc::new(RequestCtx::new(2, Arc::new(dbgw_obs::StdClock::new())).with_row_budget(2));
        let mut db = FnDatabase(|_: &str| Ok(ok_rows(&["a"], &[&["1"], &["2"], &["3"]])));
        let err = Engine::new()
            .with_request_ctx(ctx)
            .process(&mac, Mode::Report, &[], &mut db)
            .unwrap_err();
        assert!(matches!(
            err,
            MacroError::Cancelled {
                reason: CancelReason::RowBudgetExceeded { budget: 2 }
            }
        ));
    }
}
