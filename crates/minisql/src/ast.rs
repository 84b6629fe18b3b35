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
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%` (modulo; DB2 spelled it MOD())
    Mod,
    /// `||`
    Concat,
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
    /// `COUNT(*)` or `COUNT(expr)`
    Count,
    /// `SUM(expr)`
    Sum,
    /// `AVG(expr)`
    Avg,
    /// `MIN(expr)`
    Min,
    /// `MAX(expr)`
    Max,
}

impl AggFunc {
    /// Function name for result-column labelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// Scalar expression: no subquery and no scalar function call (the parser
/// refuses both with SQLCODE −104); an aggregate call is the only call.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference.
    Column(ColumnRef),
    /// `?` positional parameter (1-based index assigned during parse).
    Param(usize),
    /// Unary minus.
    Neg(Box<Expr>),
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
    /// `expr [NOT] BETWEEN lo AND hi`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Lower bound (inclusive).
        lo: Box<Expr>,
        /// Upper bound (inclusive).
        hi: Box<Expr>,
        /// Whether NOT was present.
        negated: bool,
    },
    /// Aggregate call; only legal in SELECT/HAVING/ORDER BY.
    Agg {
        /// Which aggregate.
        func: AggFunc,
        /// Argument; `None` for `COUNT(*)`.
        arg: Option<Box<Expr>>,
        /// Whether DISTINCT was present (`COUNT(DISTINCT x)`).
        distinct: bool,
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
    /// `CAST(expr AS type)`.
    Cast {
        /// The value.
        expr: Box<Expr>,
        /// Target type.
        ty: SqlType,
    },
}

/// The one list of an `Expr`'s children, expanded into both child visitors:
/// `$iter` is `iter` or `iter_mut`.
macro_rules! visit_children {
    ($expr:expr, $f:ident, $iter:ident) => {
        match $expr {
            Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => Ok(()),
            Expr::Neg(e) | Expr::Not(e) | Expr::IsNull { expr: e, .. } => $f(e),
            Expr::Cast { expr: e, .. } => $f(e),
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
            Expr::Between { expr, lo, hi, .. } => {
                $f(expr)?;
                $f(lo)?;
                $f(hi)
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
    /// `table.*`
    QualifiedWildcard(String),
    /// An expression with an optional `AS alias`.
    Expr {
        /// The expression.
        expr: Expr,
        /// Output column alias.
        alias: Option<String>,
    },
}

/// A table in the FROM clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    /// Table name.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is referred to by in the query.
    pub fn effective_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
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

/// A set operation combining SELECT branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `UNION` (duplicate-eliminating) or `UNION ALL`.
    Union {
        /// Whether ALL was present (keep duplicates).
        all: bool,
    },
    /// `EXCEPT [ALL]` — rows of the left not in the right.
    Except {
        /// Whether ALL was present (bag difference: `max(l - r, 0)` copies).
        all: bool,
    },
    /// `INTERSECT [ALL]` — rows in both.
    Intersect {
        /// Whether ALL was present (bag intersection: `min(l, r)` copies).
        all: bool,
    },
}

/// A full SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    /// Whether DISTINCT was present.
    pub distinct: bool,
    /// Output columns.
    pub items: Vec<SelectItem>,
    /// The one FROM table; `None` for table-less `SELECT 1+1`.
    pub from: Option<TableRef>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY keys.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY keys.
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count (`FETCH FIRST n ROWS ONLY` also accepted).
    pub limit: Option<usize>,
    /// OFFSET row count.
    pub offset: Option<usize>,
    /// Further branches combined with set operations. ORDER BY/LIMIT on the
    /// *first* branch apply to the combined result (and later branches may
    /// not carry their own).
    pub set_ops: Vec<(SetOp, Select)>,
}

impl Select {
    /// Call `f` on each expression slot of this branch: the SELECT items,
    /// WHERE, GROUP BY, HAVING and ORDER BY.
    /// Set-operation branches are not entered.
    pub fn for_each_expr(&self, mut f: impl FnMut(&Expr)) {
        for item in &self.items {
            if let SelectItem::Expr { expr, .. } = item {
                f(expr);
            }
        }
        self.where_clause.iter().for_each(&mut f);
        self.group_by.iter().for_each(&mut f);
        self.having.iter().for_each(&mut f);
        self.order_by.iter().for_each(|k| f(&k.expr))
    }

    /// The expressions evaluated once per group when the query is grouped:
    /// the SELECT items, HAVING and ORDER BY. An aggregate in any of them
    /// makes the query grouped.
    pub fn group_exprs(&self) -> impl Iterator<Item = &Expr> {
        (self.items.iter())
            .filter_map(|i| match i {
                SelectItem::Expr { expr, .. } => Some(expr),
                _ => None,
            })
            .chain(&self.having)
            .chain(self.order_by.iter().map(|k| &k.expr))
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
        Value::Date(d) => write!(f, "DATE '{}'", crate::date::format_date(*d)),
    }
}

impl std::fmt::Display for BinOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Concat => "||",
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
            Expr::Neg(e) => write!(f, "(-{e})"),
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
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {lo} AND {hi})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Agg {
                func,
                arg,
                distinct,
            } => match arg {
                Some(a) => write!(
                    f,
                    "{}({}{a})",
                    func.name(),
                    if *distinct { "DISTINCT " } else { "" }
                ),
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
            Expr::Cast { expr, ty } => write!(f, "CAST({expr} AS {ty})"),
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
            SelectItem::QualifiedWildcard(t) => write!(f, "{t}.*"),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => write!(f, "{expr} AS {a}"),
                None => write!(f, "{expr}"),
            },
        }
    }
}

impl std::fmt::Display for TableRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

impl std::fmt::Display for SetOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SetOp::Union { all: false } => write!(f, "UNION"),
            SetOp::Union { all: true } => write!(f, "UNION ALL"),
            SetOp::Except { all: false } => write!(f, "EXCEPT"),
            SetOp::Except { all: true } => write!(f, "EXCEPT ALL"),
            SetOp::Intersect { all: false } => write!(f, "INTERSECT"),
            SetOp::Intersect { all: true } => write!(f, "INTERSECT ALL"),
        }
    }
}

impl Select {
    /// Print one branch: everything except set operations and the hoisted
    /// compound-level ORDER BY / LIMIT / OFFSET (the parser attaches those to
    /// the root, so the printer emits them after the last branch).
    fn fmt_branch(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SELECT ")?;
        if self.distinct {
            write!(f, "DISTINCT ")?;
        }
        fmt_comma_sep(f, &self.items)?;
        if let Some(from) = &self.from {
            write!(f, " FROM {from}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY ")?;
            fmt_comma_sep(f, &self.group_by)?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }

    fn fmt_tail(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
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

impl std::fmt::Display for Select {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.fmt_branch(f)?;
        for (op, branch) in &self.set_ops {
            write!(f, " {op} ")?;
            branch.fmt_branch(f)?;
        }
        self.fmt_tail(f)
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
            distinct: false,
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
            ("-?", &[1]),
            ("NOT ?", &[1]),
            ("? + ?", &[1, 2]),
            ("? NOT LIKE ? ESCAPE '!'", &[1, 2]),
            ("? IS NOT NULL", &[1]),
            ("? IN (?, ?)", &[1, 2, 3]),
            ("? NOT BETWEEN ? AND ?", &[1, 2, 3]),
            ("SUM(DISTINCT ?)", &[1]),
            ("COUNT(*)", &[]),
            (
                "CASE ? WHEN ? THEN ? WHEN ? THEN ? ELSE ? END",
                &[1, 2, 3, 4, 5, 6],
            ),
            ("CASE WHEN ? THEN ? END", &[1, 2]),
            ("CAST(? AS INTEGER)", &[1]),
        ];
        let mut variants = std::collections::HashSet::new();
        for &(text, want) in cases {
            let mut sel = select(&format!("SELECT {text}"));
            let SelectItem::Expr { expr, .. } = &mut sel.items[0] else {
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
        assert_eq!(variants.len(), 13, "every Expr variant is covered");
    }

    #[test]
    fn select_slots_cover_every_clause_but_not_set_branches() {
        let sel = select(
            "SELECT *, ? FROM t WHERE ? GROUP BY ? HAVING ? \
             UNION SELECT ? FROM v ORDER BY ?",
        );
        let mut seen = Vec::new();
        sel.for_each_expr(|e| seen.push(marker(e)));
        assert_eq!(seen, [1, 2, 3, 4, 6]);
    }

    #[test]
    fn table_ref_effective_name() {
        let t = TableRef {
            name: "urldb".into(),
            alias: Some("u".into()),
        };
        assert_eq!(t.effective_name(), "u");
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
