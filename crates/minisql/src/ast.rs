//! Abstract syntax tree for the supported SQL subset.

use crate::types::{SqlType, Value};

/// A column reference, possibly qualified (`table.column`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    /// Optional table or alias qualifier.
    pub table: Option<String>,
    /// Column name as written.
    pub column: String,
    /// Tuple position in the scope the expression runs in, filled in by
    /// [`crate::eval::Bindings::bind`]; `None` as parsed.
    pub slot: Option<usize>,
}

impl ColumnRef {
    /// Unqualified reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
            slot: None,
        }
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`
    Count,
    /// `SUM(expr)`
    Sum,
}

impl AggFunc {
    /// Function name for result-column labelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
        }
    }
}

/// Scalar expression: no subquery and no scalar function call (the parser
/// refuses both with SQLCODE −104); `COUNT(*)` and `SUM` are the only calls.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference.
    Column(ColumnRef),
    /// `?` positional parameter (1-based index assigned during parse).
    Param(usize),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `expr [NOT] LIKE pattern [ESCAPE ch]`.
    Like {
        /// Value being matched.
        expr: Box<Expr>,
        /// Pattern expression (usually a literal).
        pattern: Box<Expr>,
        /// Optional escape character.
        escape: Option<char>,
        /// Whether NOT was present.
        negated: bool,
        /// The pattern decoded once per statement when it is a literal.
        prepared: crate::like::Prepared,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// Whether NOT was present.
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate list.
        list: Vec<Expr>,
        /// Whether NOT was present.
        negated: bool,
    },
    /// Aggregate call; only legal in the SELECT list and ORDER BY.
    Agg {
        /// Which aggregate.
        func: AggFunc,
        /// Argument; `None` for `COUNT(*)`.
        arg: Option<Box<Expr>>,
    },
    /// `CASE [operand] WHEN ... THEN ... [ELSE ...] END`.
    Case {
        /// Simple-CASE operand; `None` for searched CASE.
        operand: Option<Box<Expr>>,
        /// `(when, then)` arms in order.
        arms: Vec<(Expr, Expr)>,
        /// ELSE result; NULL when absent.
        otherwise: Option<Box<Expr>>,
    },
}

/// The one list of an `Expr`'s children, expanded into both child visitors:
/// `$iter` is `iter` or `iter_mut`.
macro_rules! visit_children {
    ($expr:expr, $f:ident, $iter:ident) => {
        match $expr {
            Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => Ok(()),
            Expr::Not(e) | Expr::IsNull { expr: e, .. } => $f(e),
            Expr::Binary { lhs: a, rhs: b, .. }
            | Expr::Like {
                expr: a,
                pattern: b,
                ..
            } => {
                $f(a)?;
                $f(b)
            }
            Expr::InList { expr, list, .. } => {
                $f(expr)?;
                list.$iter().try_for_each($f)
            }
            Expr::Agg { arg, .. } => arg.$iter().try_for_each(|a| $f(a)),
            Expr::Case {
                operand,
                arms,
                otherwise,
            } => {
                operand.$iter().try_for_each(|o| $f(o))?;
                for (when, then) in arms {
                    $f(when)?;
                    $f(then)?;
                }
                otherwise.$iter().try_for_each(|e| $f(e))
            }
        }
    };
}

impl Expr {
    /// Convenience: `lhs op rhs`.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Call `f` on each direct sub-expression of this node, left to right,
    /// stopping at the first error.
    pub fn try_for_each_child<E>(
        &self,
        mut f: impl FnMut(&Expr) -> Result<(), E>,
    ) -> Result<(), E> {
        visit_children!(self, f, iter)
    }

    /// [`Expr::try_for_each_child`] with mutable access, for in-place
    /// rewrites; it yields the same children in the same order.
    pub fn try_for_each_child_mut<E>(
        &mut self,
        mut f: impl FnMut(&mut Expr) -> Result<(), E>,
    ) -> Result<(), E> {
        visit_children!(self, f, iter_mut)
    }

    /// Infallible [`Expr::try_for_each_child`].
    pub fn for_each_child(&self, mut f: impl FnMut(&Expr)) {
        let _ = self.try_for_each_child(|e| {
            f(e);
            Ok::<(), std::convert::Infallible>(())
        });
    }

    /// Does any direct child satisfy `pred`? Stops at the first that does.
    pub fn any_child(&self, mut pred: impl FnMut(&Expr) -> bool) -> bool {
        self.try_for_each_child(|e| if pred(e) { Err(()) } else { Ok(()) })
            .is_err()
    }

    /// Does this expression contain an aggregate call?
    pub fn contains_aggregate(&self) -> bool {
        matches!(self, Expr::Agg { .. }) || self.any_child(Expr::contains_aggregate)
    }
}

/// One item in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// An expression; its output column is labelled by
    /// `exec::default_label`.
    Expr(Expr),
}

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SortDir {
    /// ASC (default).
    #[default]
    Asc,
    /// DESC.
    Desc,
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    /// Key expression; an integer literal N means "the Nth output column"
    /// (SQL-92 positional sort, which the Appendix A macro relies on).
    pub expr: Expr,
    /// Direction.
    pub dir: SortDir,
}

/// A full SELECT statement: one table or none, filtered, then folded into
/// one row or sorted, then cut by OFFSET and LIMIT.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Output columns.
    pub items: Vec<SelectItem>,
    /// The one FROM table's name; `None` for table-less `SELECT 1+1`.
    pub from: Option<String>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count (`FETCH FIRST n ROWS ONLY` also accepted).
    pub limit: Option<usize>,
    /// OFFSET row count.
    pub offset: Option<usize>,
}

impl Select {
    /// Call `f` on each expression slot: the SELECT items, WHERE and
    /// ORDER BY.
    pub fn for_each_expr(&self, mut f: impl FnMut(&Expr)) {
        self.output_exprs().for_each(&mut f);
        self.where_clause.iter().for_each(&mut f);
        self.order_by.iter().for_each(|k| f(&k.expr))
    }

    /// The expressions that may hold an aggregate: the SELECT items and
    /// ORDER BY. An aggregate in any of them folds the query into one row.
    pub fn aggregate_exprs(&self) -> impl Iterator<Item = &Expr> {
        (self.output_exprs()).chain(self.order_by.iter().map(|k| &k.expr))
    }

    fn output_exprs(&self) -> impl Iterator<Item = &Expr> {
        self.items.iter().filter_map(|i| match i {
            SelectItem::Expr(expr) => Some(expr),
            SelectItem::Wildcard => None,
        })
    }
}

/// A column definition inside CREATE TABLE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub ty: SqlType,
    /// NOT NULL constraint.
    pub not_null: bool,
    /// PRIMARY KEY constraint (implies NOT NULL and a unique index).
    pub primary_key: bool,
    /// UNIQUE constraint.
    pub unique: bool,
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // Select is big; statements are transient
pub enum Statement {
    /// SELECT query.
    Select(Select),
    /// INSERT.
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list, empty = all columns in schema order.
        columns: Vec<String>,
        /// One or more VALUES tuples.
        values: Vec<Vec<Expr>>,
    },
    /// UPDATE.
    Update {
        /// Target table.
        table: String,
        /// `SET col = expr` assignments.
        assignments: Vec<(String, Expr)>,
        /// Optional WHERE.
        where_clause: Option<Expr>,
    },
    /// CREATE TABLE.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// IF NOT EXISTS given.
        if_not_exists: bool,
    },
    /// CREATE \[UNIQUE\] INDEX.
    CreateIndex {
        /// Index name.
        name: String,
        /// Table name.
        table: String,
        /// Indexed column.
        column: String,
        /// UNIQUE given.
        unique: bool,
    },
    /// DROP INDEX.
    DropIndex {
        /// Index name.
        name: String,
    },
    /// EXPLAIN — describe the plan of the wrapped statement. With
    /// `analyze`, the statement is also executed and each plan operator is
    /// annotated with its measured rows, loops, and wall time.
    Explain {
        /// EXPLAIN ANALYZE: execute and annotate with actuals.
        analyze: bool,
        /// The statement being explained.
        inner: Box<Statement>,
    },
    /// BEGIN / BEGIN WORK / BEGIN TRANSACTION.
    Begin,
    /// COMMIT.
    Commit,
    /// ROLLBACK.
    Rollback,
}

// ---------------------------------------------------------------------------
// SQL printer. `parse(print(ast)) == ast` for every AST the parser can
// produce: expressions print fully parenthesized (grouping parens do not
// appear in the tree), and literals print in the lexer's own notation.
// ---------------------------------------------------------------------------

/// Format a literal value in re-parseable SQL notation.
fn fmt_literal(f: &mut std::fmt::Formatter<'_>, v: &Value) -> std::fmt::Result {
    match v {
        Value::Null => write!(f, "NULL"),
        Value::Int(i) => write!(f, "{i}"),
        Value::Double(d) => write!(f, "{d:?}"),
        Value::Text(s) => write!(f, "'{}'", s.replace('\'', "''")),
    }
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        })
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expr::Literal(v) => fmt_literal(f, v),
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Param(_) => write!(f, "?"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::Like {
                expr,
                pattern,
                escape,
                negated,
                ..
            } => {
                write!(
                    f,
                    "({expr} {}LIKE {pattern}",
                    if *negated { "NOT " } else { "" }
                )?;
                if let Some(c) = escape {
                    write!(
                        f,
                        " ESCAPE '{}'",
                        if *c == '\'' {
                            "''".into()
                        } else {
                            c.to_string()
                        }
                    )?;
                }
                write!(f, ")")
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                fmt_comma_sep(f, list)?;
                write!(f, "))")
            }
            Expr::Agg { func, arg } => match arg {
                Some(a) => write!(f, "{}({a})", func.name()),
                None => write!(f, "{}(*)", func.name()),
            },
            Expr::Case {
                operand,
                arms,
                otherwise,
            } => {
                write!(f, "CASE")?;
                if let Some(o) = operand {
                    write!(f, " {o}")?;
                }
                for (when, then) in arms {
                    write!(f, " WHEN {when} THEN {then}")?;
                }
                if let Some(e) = otherwise {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
        }
    }
}

fn fmt_comma_sep<T: std::fmt::Display>(
    f: &mut std::fmt::Formatter<'_>,
    items: &[T],
) -> std::fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{item}")?;
    }
    Ok(())
}

impl std::fmt::Display for OrderKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.expr)?;
        if self.dir == SortDir::Desc {
            write!(f, " DESC")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for SelectItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectItem::Wildcard => write!(f, "*"),
            SelectItem::Expr(expr) => write!(f, "{expr}"),
        }
    }
}

impl std::fmt::Display for Select {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SELECT ")?;
        fmt_comma_sep(f, &self.items)?;
        if let Some(from) = &self.from {
            write!(f, " FROM {from}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.order_by.is_empty() {
            write!(f, " ORDER BY ")?;
            fmt_comma_sep(f, &self.order_by)?;
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        if let Some(n) = self.offset {
            write!(f, " OFFSET {n}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Statement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Statement::Select(s) => write!(f, "{s}"),
            Statement::Insert {
                table,
                columns,
                values,
            } => {
                write!(f, "INSERT INTO {table}")?;
                if !columns.is_empty() {
                    write!(f, " (")?;
                    fmt_comma_sep(f, columns)?;
                    write!(f, ")")?;
                }
                write!(f, " VALUES ")?;
                for (i, tuple) in values.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "(")?;
                    fmt_comma_sep(f, tuple)?;
                    write!(f, ")")?;
                }
                Ok(())
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => {
                write!(f, "UPDATE {table} SET ")?;
                for (i, (col, expr)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{col} = {expr}")?;
                }
                if let Some(w) = where_clause {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => {
                write!(
                    f,
                    "CREATE TABLE {}{name} (",
                    if *if_not_exists { "IF NOT EXISTS " } else { "" }
                )?;
                for (i, c) in columns.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} {}", c.name, c.ty)?;
                    if c.primary_key {
                        write!(f, " PRIMARY KEY")?;
                    }
                    if c.not_null && !c.primary_key {
                        write!(f, " NOT NULL")?;
                    }
                    if c.unique {
                        write!(f, " UNIQUE")?;
                    }
                }
                write!(f, ")")
            }
            Statement::CreateIndex {
                name,
                table,
                column,
                unique,
            } => write!(
                f,
                "CREATE {}INDEX {name} ON {table} ({column})",
                if *unique { "UNIQUE " } else { "" }
            ),
            Statement::DropIndex { name } => write!(f, "DROP INDEX {name}"),
            Statement::Explain { analyze, inner } => write!(
                f,
                "EXPLAIN {}{inner}",
                if *analyze { "ANALYZE " } else { "" }
            ),
            Statement::Begin => write!(f, "BEGIN"),
            Statement::Commit => write!(f, "COMMIT"),
            Statement::Rollback => write!(f, "ROLLBACK"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_aggregate_walks_tree() {
        let agg = Expr::Agg {
            func: AggFunc::Count,
            arg: None,
        };
        let nested = Expr::binary(BinOp::Add, Expr::Literal(Value::Int(1)), agg);
        assert!(nested.contains_aggregate());
        assert!(!Expr::Literal(Value::Int(1)).contains_aggregate());
    }

    /// The SELECT a statement parses to; `?` markers number 1, 2, … in
    /// text order.
    fn select(sql: &str) -> Select {
        match crate::parser::parse(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a SELECT: {other:?}"),
        }
    }

    fn marker(e: &Expr) -> usize {
        match e {
            Expr::Param(n) => *n,
            other => panic!("unexpected child {other}"),
        }
    }

    #[test]
    fn child_visitors_yield_each_slot_once_within_the_block() {
        // Every variant, a distinct marker in each expression slot.
        let cases: &[(&str, &[usize])] = &[
            ("1", &[]),
            ("c", &[]),
            ("?", &[]),
            ("NOT ?", &[1]),
            ("? + ?", &[1, 2]),
            ("? NOT LIKE ? ESCAPE '!'", &[1, 2]),
            ("? IS NOT NULL", &[1]),
            ("? IN (?, ?)", &[1, 2, 3]),
            ("SUM(?)", &[1]),
            ("COUNT(*)", &[]),
            (
                "CASE ? WHEN ? THEN ? WHEN ? THEN ? ELSE ? END",
                &[1, 2, 3, 4, 5, 6],
            ),
            ("CASE WHEN ? THEN ? END", &[1, 2]),
        ];
        let mut variants = std::collections::HashSet::new();
        for &(text, want) in cases {
            let mut sel = select(&format!("SELECT {text}"));
            let SelectItem::Expr(expr) = &mut sel.items[0] else {
                unreachable!()
            };
            variants.insert(std::mem::discriminant(expr));
            let mut seen = Vec::new();
            expr.for_each_child(|c| seen.push(marker(c)));
            assert_eq!(seen, want, "shared visitor over {text}");
            let mut seen = Vec::new();
            expr.try_for_each_child_mut(|c| {
                seen.push(marker(c));
                Ok::<(), ()>(())
            })
            .unwrap();
            assert_eq!(seen, want, "mutable visitor over {text}");
            // Short-circuit: the first child that matches ends the walk.
            let mut asked = 0;
            let found = expr.any_child(|_| {
                asked += 1;
                true
            });
            assert_eq!((found, asked), (!want.is_empty(), want.len().min(1)));
        }
        assert_eq!(variants.len(), 10, "every Expr variant is covered");
    }

    #[test]
    fn select_slots_cover_every_clause_but_not_set_branches() {
        // A SELECT has no set-operation branches left: its slots are the
        // items, WHERE and ORDER BY.
        let sel = select("SELECT *, ? FROM t WHERE ? ORDER BY ?");
        let mut seen = Vec::new();
        sel.for_each_expr(|e| seen.push(marker(e)));
        assert_eq!(seen, [1, 2, 3]);
    }

    #[test]
    fn column_ref_display() {
        assert_eq!(ColumnRef::bare("x").to_string(), "x");
        assert_eq!(
            ColumnRef {
                table: Some("t".into()),
                column: "x".into(),
                slot: None,
            }
            .to_string(),
            "t.x"
        );
    }
}
