//! The cross-language variable substitution engine (§3, §4.3).
//!
//! This is the paper's core mechanism. Properties implemented here:
//!
//! * **Lazy evaluation** — right-hand sides are stored raw and only resolved
//!   when a variable is referenced from an HTML input/report section (or a
//!   SQL command being executed); see the paper's `One Two` example (§4.3.1).
//! * **Recursive dereferencing** — `$(a)` inside a value string evaluates
//!   `a`, which may reference further variables.
//! * **`$$(name)` escape** — yields the literal text `$(name)` (§3.1.1).
//! * **Undefined = null = empty string** — never an error (§4.1).
//! * **Cycle detection** — circular references are an error (§3.1.1).
//! * **Priority** — report variables of the SQL result being rendered ≻
//!   HTML input variables ≻ macro DEFINEs (§4.3).
//! * **List variables** — multi-valued inputs and multiply-assigned `%LIST`
//!   variables concatenate their *non-null* values with the (itself
//!   substitutable) separator (§3.1.3).
//! * **Conditional variables** — two-armed (`test ?`) and one-armed
//!   (`= ?`, null if any directly referenced variable is null) (§3.1.2).
//! * **Executable variables** — the command runs at *each* reference; its
//!   exit code becomes the value, success becoming null (§3.1.4).
//! * **Bounded expansion** — an input value may reference other variables,
//!   so a short request can ask for text that grows tenfold per level of
//!   reference (a macro "billion laughs"). Every concatenation is charged
//!   against the request's expanded-text budget
//!   ([`dbgw_obs::EXPANDED_TEXT_BUDGET`]) before it grows a buffer, and
//!   going over it ends the request as cancelled.

use crate::ast::{DefineStatement, Template};
use crate::env::{Env, ReportScope};
use crate::error::{MacroError, MacroResult};
use crate::exec::CommandRunner;
use dbgw_obs::RequestCtx;
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

/// Hard limit on variable-chain depth; cycles are caught exactly, this guards
/// only pathological acyclic chains built from adversarial CGI input.
const MAX_DEPTH: usize = 100;

/// Expanded text an evaluator accumulates before charging it to the
/// request's budget in one step, so the budget costs one atomic update per
/// this many bytes (or per evaluator), not one per substitution.
const CHARGE_STEP: usize = 4096;

/// A substitution session over one environment.
///
/// Holds the evaluation stack for cycle detection; create one per rendering
/// pass (they are cheap).
pub struct Evaluator<'a> {
    env: &'a Env,
    runner: &'a dyn CommandRunner,
    stack: Vec<String>,
    ctx: Arc<RequestCtx>,
    /// Expanded text not yet charged to `ctx`'s budget.
    uncharged: usize,
    /// The SQL result being rendered, whose report variables are consulted
    /// before anything else — also from inside DEFINE values, so a lazy
    /// `$(V2)` in a variable referenced from `%ROW` sees the current row.
    pub(crate) scope: Option<ReportScope<'a>>,
}

impl<'a> Evaluator<'a> {
    /// New session with no request context (unbounded).
    pub fn new(env: &'a Env, runner: &'a dyn CommandRunner) -> Evaluator<'a> {
        Evaluator::with_ctx(env, runner, RequestCtx::unbounded())
    }

    /// New session polling `ctx` at every variable dereference, so a runaway
    /// macro (deep lazy chains, executable variables) stops at the request
    /// deadline instead of spinning a worker forever.
    pub fn with_ctx(
        env: &'a Env,
        runner: &'a dyn CommandRunner,
        ctx: Arc<RequestCtx>,
    ) -> Evaluator<'a> {
        Evaluator {
            env,
            runner,
            stack: Vec::new(),
            ctx,
            uncharged: 0,
            scope: None,
        }
    }

    /// Charge `n` bytes of expanded text, before the buffer they go into
    /// grows: past the request's budget this is `Err(Cancelled)`.
    fn charge(&mut self, n: usize) -> MacroResult<()> {
        self.uncharged += n;
        if self.uncharged < CHARGE_STEP {
            return Ok(());
        }
        self.flush_charge()
    }

    fn flush_charge(&mut self) -> MacroResult<()> {
        let n = std::mem::take(&mut self.uncharged);
        (self.ctx.charge_bytes(n as u64)).map_err(|reason| MacroError::Cancelled { reason })
    }

    /// Take over `other`'s uncharged text, so a short-lived evaluator (one
    /// per report row) adds no budget update of its own when it drops.
    pub(crate) fn adopt_charge(&mut self, other: &mut Evaluator<'_>) -> MacroResult<()> {
        let n = std::mem::take(&mut other.uncharged);
        self.charge(n)
    }

    /// A list separator, substituted: most hold no `$` and are used as
    /// written, which is what substituting them would give.
    fn separator<'s>(&mut self, raw: &'s str) -> MacroResult<Cow<'s, str>> {
        if raw.contains('$') {
            Ok(Cow::Owned(self.substitute(raw)?))
        } else {
            Ok(Cow::Borrowed(raw))
        }
    }

    /// `parts` joined by `separator`, charged before the joined text is built.
    fn join(&mut self, parts: &[String], separator: &str) -> MacroResult<String> {
        let seps = separator.len() * parts.len().saturating_sub(1);
        self.charge(parts.iter().map(String::len).sum::<usize>() + seps)?;
        Ok(parts.join(separator))
    }

    /// Substitute every `$(var)` / `$$(var)` pattern in `raw`, tokenizing it
    /// on the way (DEFINE and input values are known only at run time).
    pub fn substitute(&mut self, raw: &str) -> MacroResult<String> {
        Ok(self.expand(tokens(raw), raw.len())?.0)
    }

    /// Substitute a template tokenized when the macro was parsed.
    pub fn render(&mut self, template: &Template) -> MacroResult<String> {
        Ok(self.expand(template.tokens(), template.source().len())?.0)
    }

    /// Substitute, also reporting whether any *directly referenced* variable
    /// evaluated to null — the trigger for one-armed conditional nulling.
    fn expand<'t>(
        &mut self,
        tokens: impl Iterator<Item = Token<&'t str>>,
        capacity: usize,
    ) -> MacroResult<(String, bool)> {
        // Nested passes (variable values referencing further variables) run
        // with a non-empty evaluation stack; only top-level passes count as
        // one "substitution" and open a trace span, so the metric and the
        // trace reflect rendering units, not recursion depth.
        let _span = if self.stack.is_empty() {
            dbgw_obs::metrics().substitutions.inc();
            Some(dbgw_obs::trace::span("substitute"))
        } else {
            None
        };
        let mut out = String::with_capacity(capacity);
        let mut saw_null = false;
        for token in tokens {
            match token {
                Token::Text(text) => {
                    self.charge(text.len())?;
                    out.push_str(text);
                }
                Token::Var(name) => {
                    let before = out.len();
                    self.write_value(name, &mut out)?;
                    saw_null |= out.len() == before;
                }
            }
        }
        Ok((out, saw_null))
    }

    /// The run-time value of a variable; the empty string *is* null.
    pub fn value_of(&mut self, name: &str) -> MacroResult<String> {
        let mut value = String::new();
        self.write_value(name, &mut value)?;
        Ok(value)
    }

    /// Append the run-time value of a variable to `out`.
    pub(crate) fn write_value(&mut self, name: &str, out: &mut String) -> MacroResult<()> {
        // Cancellation point: every dereference (including each step of a
        // recursive chain) polls the request context.
        self.ctx
            .check()
            .map_err(|reason| MacroError::Cancelled { reason })?;
        // 1. Report variables (literal, no recursion, case-insensitive).
        if let Some(scope) = self.scope {
            if let Some(slot) = scope.resolve(name) {
                scope.write(slot, out);
                return Ok(());
            }
        }
        if self.stack.iter().any(|n| n == name) {
            return Err(MacroError::CircularReference {
                variable: name.to_owned(),
                chain: self.stack.clone(),
            });
        }
        if self.stack.len() >= MAX_DEPTH {
            return Err(MacroError::DepthExceeded {
                variable: name.to_owned(),
            });
        }
        self.stack.push(name.to_owned());
        let result = self.value_uncached(name);
        self.stack.pop();
        let value = result?;
        self.charge(value.len())?;
        out.push_str(&value);
        Ok(())
    }

    /// Is the variable defined *and* non-null right now?
    pub fn is_nonnull(&mut self, name: &str) -> MacroResult<bool> {
        Ok(!self.value_of(name)?.is_empty())
    }

    fn value_uncached(&mut self, name: &str) -> MacroResult<String> {
        // The environment outlives this evaluator: borrow from it, not self.
        let env = self.env;
        // 2. HTML input variables override macro DEFINEs (§4.3).
        if let Some(values) = env.input(name) {
            let separator = env.define(name).and_then(|e| e.separator.as_deref());
            let separator = self.separator(separator.unwrap_or(","))?;
            let mut parts = Vec::with_capacity(values.len());
            for raw in values {
                // Input values are parsed like simple assignments (§4.3.2).
                let v = self.substitute(raw)?;
                if !v.is_empty() {
                    parts.push(v);
                }
            }
            return self.join(&parts, &separator);
        }
        // 3. Macro DEFINEs.
        let Some(entry) = env.define(name) else {
            // 4. Undefined evaluates to null, never an error (§4.1).
            return Ok(String::new());
        };
        if let Some(separator) = &entry.separator {
            let separator = self.separator(separator)?;
            let mut parts = Vec::with_capacity(entry.assigns.len());
            for assign in &entry.assigns {
                // "The list variable evaluation is intelligent enough to add
                // delimiters only if the individual value strings are not
                // null" (§3.1.3).
                let v = self.eval_assign(assign)?;
                if !v.is_empty() {
                    parts.push(v);
                }
            }
            return self.join(&parts, &separator);
        }
        match entry.assigns.last() {
            Some(assign) => self.eval_assign(assign),
            None => Ok(String::new()), // %LIST-declared but never assigned
        }
    }

    fn eval_assign(&mut self, assign: &DefineStatement) -> MacroResult<String> {
        match assign {
            DefineStatement::Simple { value, .. } => self.substitute(value),
            DefineStatement::CondBinary {
                test,
                then_value,
                else_value,
                ..
            } => {
                let arm = if self.is_nonnull(test)? {
                    then_value
                } else {
                    else_value
                };
                self.substitute(arm)
            }
            DefineStatement::CondUnary { value, .. } => {
                let (value, saw_null) = self.expand(tokens(value), value.len())?;
                Ok(if saw_null { String::new() } else { value })
            }
            DefineStatement::Exec { name, command } => {
                let command = self.substitute(command)?;
                match self.runner.run(&command) {
                    Ok(0) => Ok(String::new()), // success == null (§3.1.4)
                    Ok(code) => Ok(code.to_string()),
                    Err(message) => Err(MacroError::Exec {
                        variable: name.clone(),
                        message,
                    }),
                }
            }
            DefineStatement::ListDecl { .. } => unreachable!("Env::apply stores no declaration"),
        }
    }
}

impl Drop for Evaluator<'_> {
    /// Charge what is left, so text an evaluator expanded counts against the
    /// request even below `CHARGE_STEP`; a later charge reports any excess.
    fn drop(&mut self) {
        if self.uncharged > 0 {
            let _ = self.flush_charge();
        }
    }
}

/// One piece of text in `$(…)` syntax: the text itself, or (what a compiled
/// template stores) its byte range in the text it was scanned from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Token<T> {
    /// Literal text. A `$$(name)` escape arrives as the literal `$(name)`.
    Text(T),
    /// The name in a `$(name)` reference.
    Var(T),
}

impl Token<Range<usize>> {
    /// The token this range denotes in `raw`, the text it was scanned from.
    pub(crate) fn of<'a>(&self, raw: &'a str) -> Token<&'a str> {
        match self {
            Token::Text(at) => Token::Text(&raw[at.clone()]),
            Token::Var(at) => Token::Var(&raw[at.clone()]),
        }
    }
}

/// Split `raw` into literal text and `$(name)` references, as byte ranges —
/// the one scanner behind substitution, compiled templates and `lint`.
/// `$$(…)` is the literal `$(…)` (all of the rest, `$$` included, when no
/// `)` follows); a lone `$` and a malformed reference are literal text.
pub(crate) fn spans(raw: &str) -> impl Iterator<Item = Token<Range<usize>>> + '_ {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let tail = &raw[pos..];
        let (token, len) = if tail.is_empty() {
            return None;
        } else if let Some(after) = tail.strip_prefix("$$(") {
            match after.find(')') {
                Some(end) => (Token::Text(pos + 1..pos + end + 4), end + 4),
                None => (Token::Text(pos..raw.len()), tail.len()),
            }
        } else if let Some((name, next)) = tail.strip_prefix("$(").and_then(take_name) {
            (
                Token::Var(pos + 2..pos + 2 + name.len()),
                tail.len() - next.len(),
            )
        } else {
            // Up to the next `$`, past one this text may start with.
            let len = tail.bytes().skip(1).position(|b| b == b'$');
            let len = len.map_or(tail.len(), |at| at + 1);
            (Token::Text(pos..pos + len), len)
        };
        pos += len;
        Some(token)
    })
}

/// [`spans`] as tokens borrowing from `raw`.
pub(crate) fn tokens(raw: &str) -> impl Iterator<Item = Token<&str>> {
    spans(raw).map(move |span| span.of(raw))
}

/// Split `name)rest` into the variable name and the text after `)`.
fn take_name(after_paren: &str) -> Option<(&str, &str)> {
    let len = after_paren.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
    let (name, rest) = after_paren.split_at(len);
    let first = name.bytes().next()?;
    let named = first.is_ascii_alphabetic() || first == b'_';
    (named && rest.starts_with(')')).then(|| (name, &rest[1..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::tests::env_from;
    use crate::exec::{DenyRunner, StaticRunner};

    fn env_of(stmts: &[DefineStatement]) -> Env {
        let mut env = Env::new();
        for s in stmts {
            env.apply(s);
        }
        env
    }

    fn simple(name: &str, value: &str) -> DefineStatement {
        DefineStatement::Simple {
            name: name.into(),
            value: value.into(),
        }
    }

    #[test]
    fn basic_reference_and_undefined() {
        let env = env_of(&[simple("a", "hello")]);
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.substitute("[$(a)][$(missing)]").unwrap(), "[hello][]");
    }

    #[test]
    fn recursive_dereference() {
        // %DEFINE var1 = "$(var2).abc" from §3.1.1.
        let env = env_of(&[simple("var1", "$(var2).abc"), simple("var2", "xyz")]);
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.value_of("var1").unwrap(), "xyz.abc");
    }

    #[test]
    fn dollar_dollar_escape() {
        // %DEFINE a = "$$(b)" evaluates to the string "$(b)" (§3.1.1).
        let env = env_of(&[simple("a", "$$(b)"), simple("b", "SHOULD NOT APPEAR")]);
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.value_of("a").unwrap(), "$(b)");
    }

    #[test]
    fn lone_dollar_is_literal() {
        let env = env_of(&[]);
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(
            ev.substitute("cost: $5 and $ (x) and $()").unwrap(),
            "cost: $5 and $ (x) and $()"
        );
    }

    #[test]
    fn circular_reference_is_error() {
        let env = env_of(&[simple("a", "$(b)"), simple("b", "$(a)")]);
        let mut ev = Evaluator::new(&env, &DenyRunner);
        let err = ev.value_of("a").unwrap_err();
        assert!(
            matches!(err, MacroError::CircularReference { ref variable, .. } if variable == "a")
        );
    }

    #[test]
    fn self_reference_is_error() {
        let env = env_of(&[simple("a", "x$(a)")]);
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert!(ev.value_of("a").is_err());
    }

    #[test]
    fn case_sensitive_names() {
        let env = env_of(&[simple("Var", "upper")]);
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.value_of("Var").unwrap(), "upper");
        assert_eq!(ev.value_of("var").unwrap(), "");
    }

    #[test]
    fn inputs_override_defines() {
        let mut env = env_of(&[simple("SEARCH", "default")]);
        env.push_input("SEARCH", "user-typed");
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.value_of("SEARCH").unwrap(), "user-typed");
    }

    #[test]
    fn report_scope_overrides_everything() {
        let mut env = env_of(&[simple("V1", "define"), simple("lazy", "<$(V1)>")]);
        env.push_input("V1", "input");
        let (columns, row) = (["a".to_owned()], ["scope".to_owned()]);
        let mut ev = Evaluator::new(&env, &DenyRunner);
        ev.scope = Some(ReportScope {
            columns: &columns,
            row: Some(&row),
            row_num: 1,
            escape: true,
        });
        assert_eq!(ev.value_of("V1").unwrap(), "scope");
        assert_eq!(ev.value_of("v1").unwrap(), "scope"); // case-insensitive
        assert_eq!(ev.value_of("lazy").unwrap(), "<scope>"); // seen from a DEFINE
    }

    #[test]
    fn multi_valued_input_is_comma_list() {
        // §2.2: DBFIELD selected twice.
        let mut env = Env::new();
        env.push_input("DBFIELD", "title");
        env.push_input("DBFIELD", "desc");
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.value_of("DBFIELD").unwrap(), "title,desc");
    }

    #[test]
    fn list_separator_overrides_input_join() {
        let mut env = env_from(r#"%LIST " | " DBFIELD"#);
        env.push_input("DBFIELD", "title");
        env.push_input("DBFIELD", "desc");
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.value_of("DBFIELD").unwrap(), "title | desc");
    }

    #[test]
    fn empty_input_values_skipped_in_lists() {
        let mut env = Env::new();
        env.push_input("F", "a");
        env.push_input("F", "");
        env.push_input("F", "b");
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.value_of("F").unwrap(), "a,b");
    }

    #[test]
    fn paper_where_clause_example_full() {
        // The §3.1.3 worked example, all three input scenarios.
        let defs = r#"%LIST " AND " where_list
            where_list = ? "custid = $(cust_inp)"
            where_list = ? "product_name LIKE '$(prod_inp)%'"
            where_clause = ? "WHERE $(where_list)""#;
        // Scenario 1: both inputs present.
        let mut env = env_from(defs);
        env.push_input("cust_inp", "10100");
        env.push_input("prod_inp", "bikes");
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(
            ev.value_of("where_clause").unwrap(),
            "WHERE custid = 10100 AND product_name LIKE 'bikes%'"
        );
        // Scenario 2: cust_inp empty.
        let mut env = env_from(defs);
        env.push_input("cust_inp", "");
        env.push_input("prod_inp", "bikes");
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(
            ev.value_of("where_clause").unwrap(),
            "WHERE product_name LIKE 'bikes%'"
        );
        // Scenario 3: both null -> no WHERE clause at all.
        let env = env_from(defs);
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.value_of("where_clause").unwrap(), "");
    }

    #[test]
    fn cond_binary_arms() {
        let defs = r#"flag = USE_URL ? "url LIKE '%$(S)%'" : """#;
        let mut env = env_from(defs);
        env.push_input("USE_URL", "yes");
        env.push_input("S", "ib");
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.value_of("flag").unwrap(), "url LIKE '%ib%'");
        // Unchecked box: USE_URL sent as "" (or absent) -> else arm.
        let mut env = env_from(defs);
        env.push_input("USE_URL", "");
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.value_of("flag").unwrap(), "");
    }

    #[test]
    fn exec_variable_success_is_null_failure_is_code() {
        let runner = StaticRunner::new().with("check ok", 0).with("check bad", 4);
        let env = env_from(r#"ok = %EXEC "check ok" bad = %EXEC "check bad""#);
        let mut ev = Evaluator::new(&env, &runner);
        assert_eq!(ev.value_of("ok").unwrap(), "");
        assert_eq!(ev.value_of("bad").unwrap(), "4");
    }

    #[test]
    fn exec_launch_failure_is_error() {
        let env = env_from(r#"x = %EXEC "anything""#);
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert!(matches!(
            ev.value_of("x").unwrap_err(),
            MacroError::Exec { .. }
        ));
    }

    #[test]
    fn exec_command_is_substituted_per_reference() {
        let runner = StaticRunner::new().with("notify ada", 1);
        let mut env = env_from(r#"e = %EXEC "notify $(user)""#);
        env.push_input("user", "ada");
        let mut ev = Evaluator::new(&env, &runner);
        assert_eq!(ev.value_of("e").unwrap(), "1");
    }

    #[test]
    fn dynamic_separator_from_user() {
        // "An example is to get the delimiter from the user for AND or OR
        // conditions" (§3.1.3).
        let mut env = env_from(r#"%LIST " $(CONNECTIVE) " conds conds = "a = 1" conds = "b = 2""#);
        env.push_input("CONNECTIVE", "OR");
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.value_of("conds").unwrap(), "a = 1 OR b = 2");
    }

    #[test]
    fn depth_limit_reports_cleanly() {
        // A 200-deep chain, no cycle.
        let mut stmts = Vec::new();
        for i in 0..200 {
            stmts.push(simple(&format!("v{i}"), &format!("$(v{})", i + 1)));
        }
        let env = env_of(&stmts);
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert!(matches!(
            ev.value_of("v0").unwrap_err(),
            MacroError::DepthExceeded { .. }
        ));
    }

    #[test]
    fn multibyte_text_survives_substitution() {
        let env = env_of(&[simple("greeting", "héllo ☃")]);
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.substitute("«$(greeting)»").unwrap(), "«héllo ☃»");
    }

    #[test]
    fn input_value_containing_reference_is_parsed() {
        // §4.3.2: input variable values can reference other variables.
        let mut env = env_of(&[simple("inner", "42")]);
        env.push_input("outer", "val=$(inner)");
        let mut ev = Evaluator::new(&env, &DenyRunner);
        assert_eq!(ev.value_of("outer").unwrap(), "val=42");
    }
}
