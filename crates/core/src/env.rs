//! The variable environment: macro defines, HTML input variables, and
//! system-supplied report variables, with the paper's priority rules.
//!
//! §4.3: the name space of HTML input variables is unified with the macro's
//! own variables, but "the HTML input variable values from the Web client
//! \[have\] higher priority than the variable values defined in the macro
//! itself using DEFINE sections". On top of both sit the report variables
//! of the SQL result being rendered (`Ni`, `Vi`, `ROW_NUM`, ...), which a
//! `ReportScope` reads in place (the names, and the row's display text).

use crate::ast::{DefineStatement, Template};
use crate::subst::Token;
use dbgw_html::escape_text;
use std::collections::HashMap;
use std::fmt::Write;

/// Everything known about one defined variable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VarEntry {
    /// `%LIST` separator, if declared. Presence makes this a list variable:
    /// assignments accumulate instead of replacing.
    pub separator: Option<String>,
    /// Assignments in order (never a `%LIST` declaration). Non-list
    /// variables keep only the latest.
    pub assigns: Vec<DefineStatement>,
}

/// The variable environment.
#[derive(Default)]
pub struct Env {
    defines: HashMap<String, VarEntry>,
    /// HTML input variables (multi-valued, in arrival order).
    inputs: HashMap<String, Vec<String>>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Apply one `%DEFINE` statement (top-to-bottom processing order).
    pub fn apply(&mut self, stmt: &DefineStatement) {
        let entry = self.defines.entry(stmt.name().to_owned()).or_default();
        match stmt {
            DefineStatement::ListDecl { separator, .. } => {
                entry.separator = Some(separator.clone())
            }
            // List variable: assignments accumulate (§3.1.3).
            _ if entry.separator.is_some() => entry.assigns.push(stmt.clone()),
            // Plain variable: redefinition replaces.
            _ => entry.assigns = vec![stmt.clone()],
        }
    }

    /// Record one HTML input variable value (CGI `name=value`). Repeats make
    /// the variable multi-valued (a list variable, §2.2).
    pub fn push_input(&mut self, name: &str, value: &str) {
        self.inputs
            .entry(name.to_owned())
            .or_default()
            .push(value.to_owned());
    }

    /// Look up a macro-defined variable entry.
    pub fn define(&self, name: &str) -> Option<&VarEntry> {
        self.defines.get(name)
    }

    /// Look up HTML input values for a variable (exact-case, like defines).
    pub fn input(&self, name: &str) -> Option<&[String]> {
        self.inputs.get(name).map(|v| v.as_slice())
    }
}

/// The report variables of one SQL result (§3.2.1), read in place: the
/// column names give `Ni` / `N_<col>` / `NLIST` throughout the report, the
/// current row gives `Vi` / `V_<col>` / `VLIST` inside `%ROW`, and `ROW_NUM`
/// is 0 in the header, i in row i and the total in the footer. Names resolve
/// case-insensitively — the paper's carve-out for "implicit variables that
/// represent database column names" — without allocating.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReportScope<'a> {
    pub columns: &'a [String],
    /// The current row; `None` in the header and footer.
    pub row: Option<&'a [String]>,
    pub row_num: usize,
    /// HTML-escape names and values on the way out.
    pub escape: bool,
}

/// A report variable; `true` picks the row's values (`V…`), `false` the
/// column names (`N…`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// `Vi`, `V_<col>`, `Ni` or `N_<col>`, 0-based.
    One(bool, usize),
    /// `VLIST` or `NLIST`.
    List(bool),
    RowNum,
}

/// A `%ROW` template piece bound to one row width: literal text, a slot, or
/// a name left to the evaluator (a DEFINE, an input, `V7` of five columns).
pub(crate) enum Bound<'t> {
    Text(&'t str),
    Slot(Slot),
    Var(&'t str),
}

impl<'a> ReportScope<'a> {
    fn items(&self, values: bool) -> Option<&'a [String]> {
        if values {
            self.row
        } else {
            Some(self.columns)
        }
    }

    /// The slot `name` names here, if any.
    pub fn resolve(&self, name: &str) -> Option<Slot> {
        if name.eq_ignore_ascii_case("ROW_NUM") {
            return Some(Slot::RowNum);
        }
        let values = match name.as_bytes().first()? {
            b'V' | b'v' => true,
            b'N' | b'n' => false,
            _ => return None,
        };
        // `V…` exists only inside a row, and only over the row's values.
        let width = self.items(values)?.len();
        let rest = &name[1..];
        if rest.eq_ignore_ascii_case("LIST") {
            return Some(Slot::List(values));
        }
        let index = match rest.strip_prefix('_') {
            // The last column of a duplicated name wins.
            Some(column) => self.columns[..width.min(self.columns.len())]
                .iter()
                .rposition(|c| c.eq_ignore_ascii_case(column))?,
            None if rest.starts_with(['0', '+']) => return None, // `V01` is not `V1`
            None => {
                rest.parse::<usize>()
                    .ok()
                    .filter(|i| (1..=width).contains(i))?
                    - 1
            }
        };
        Some(Slot::One(values, index))
    }

    /// Append the slot's text; a list joins with `", "`.
    pub fn write(&self, slot: Slot, out: &mut String) {
        let items = match slot {
            Slot::One(values, i) => &self.items(values).unwrap_or_default()[i..=i],
            Slot::List(values) => self.items(values).unwrap_or_default(),
            Slot::RowNum => {
                let _ = write!(out, "{}", self.row_num);
                return;
            }
        };
        for (n, item) in items.iter().enumerate() {
            if n > 0 {
                out.push_str(", ");
            }
            let item = if self.escape {
                escape_text(item)
            } else {
                item.into()
            };
            out.push_str(&item);
        }
    }

    /// Resolve each reference of `template` once, against the current row's
    /// width: the binding holds for every row of that width.
    pub fn bind<'t>(&self, template: &'t Template) -> Vec<Bound<'t>> {
        let bind = |token| match token {
            Token::Text(text) => Bound::Text(text),
            Token::Var(name) => self.resolve(name).map_or(Bound::Var(name), Bound::Slot),
        };
        template.tokens().map(bind).collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The environment after the DEFINE statements in `src`.
    pub(crate) fn env_from(src: &str) -> Env {
        let mac = crate::parse_macro(&format!("%DEFINE{{{src}%}}")).unwrap();
        let [crate::Section::Define(stmts)] = &mac.sections[..] else {
            unreachable!()
        };
        let mut env = Env::new();
        stmts.iter().for_each(|s| env.apply(s));
        env
    }

    #[test]
    fn plain_redefinition_replaces() {
        let env = env_from(r#"a = "1" a = "2""#);
        assert_eq!(env.define("a").unwrap().assigns.len(), 1);
        assert!(matches!(
            &env.define("a").unwrap().assigns[0],
            DefineStatement::Simple { value, .. } if value == "2"
        ));
    }

    #[test]
    fn list_assignments_accumulate() {
        let env = env_from(r#"%LIST " OR " L L = ? "x = $(a)" L = ? "y = $(b)""#);
        let entry = env.define("L").unwrap();
        assert_eq!(entry.separator.as_deref(), Some(" OR "));
        assert_eq!(entry.assigns.len(), 2);
    }

    #[test]
    fn inputs_multi_valued() {
        let mut env = Env::new();
        env.push_input("DBFIELD", "title");
        env.push_input("DBFIELD", "desc");
        assert_eq!(env.input("DBFIELD").unwrap().len(), 2);
        // Exact-case lookup.
        assert!(env.input("dbfield").is_none());
    }

    fn scope<'a>(columns: &'a [String], row: Option<&'a [String]>) -> ReportScope<'a> {
        ReportScope {
            columns,
            row,
            row_num: 7,
            escape: true,
        }
    }

    #[test]
    fn report_scope_header_and_row() {
        let columns = ["url".to_owned(), "t".to_owned(), "T".to_owned()];
        let row = ["<x>".to_owned(), "a".to_owned(), "b".to_owned()];
        let header = scope(&columns, None);
        assert_eq!(header.resolve("n1"), Some(Slot::One(false, 0)));
        assert_eq!(header.resolve("NLIST"), Some(Slot::List(false)));
        assert_eq!(header.resolve("V1"), None);
        assert_eq!(header.resolve("VLIST"), None);
        let in_row = scope(&columns, Some(&row));
        assert_eq!(in_row.resolve("v_t"), Some(Slot::One(true, 2))); // last duplicate
        for nothing in ["V4", "V0", "V01", "V+1", "V", "Vx", "X1", "é"] {
            assert_eq!(in_row.resolve(nothing), None, "{nothing}");
        }
        let mut out = String::new();
        for slot in [Slot::One(true, 0), Slot::List(true), Slot::RowNum] {
            in_row.write(slot, &mut out);
        }
        assert_eq!(out, "&lt;x&gt;&lt;x&gt;, a, b7");
    }

    #[test]
    fn system_lookup_case_insensitive() {
        let (columns, row) = (["TITLE".to_owned()], ["IBM".to_owned()]);
        let in_row = scope(&columns, Some(&row));
        assert_eq!(in_row.resolve("V_title"), Some(Slot::One(true, 0)));
        assert_eq!(in_row.resolve("v_Title"), Some(Slot::One(true, 0)));
        assert_eq!(in_row.resolve("row_num"), Some(Slot::RowNum));
    }
}
