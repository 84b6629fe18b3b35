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

/// Scalar expression.
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
    /// Scalar function call (`UPPER`, `LOWER`, `LENGTH`, `ABS`, `COALESCE`,
    /// `SUBSTR`, `TRIM`).
    Func {
        /// Uppercased function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
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
    /// Scalar subquery `(SELECT ...)` — must yield one column; zero rows is
    /// NULL, more than one row is an error. Uncorrelated only.
    Subquery(Box<Select>),
    /// `expr [NOT] IN (SELECT ...)`. Uncorrelated only.
    InSelect {
        /// Tested expression.
        expr: Box<Expr>,
        /// The subquery (must yield one column).
        select: Box<Select>,
        /// Whether NOT was present.
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`. Uncorrelated only.
    Exists {
        /// The subquery.
        select: Box<Select>,
        /// Whether NOT was present.
        negated: bool,
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
    /// Window function call `func(...) OVER (...)`; only legal in the
    /// SELECT list of a non-grouped query.
    Window(Box<WindowExpr>),
}

/// Which function a window call computes.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowFunc {
    /// `ROW_NUMBER()` — 1-based position within the partition.
    RowNumber,
    /// `RANK()` — 1-based rank with gaps over the window ORDER BY keys.
    Rank,
    /// An aggregate over the window frame (`SUM(x) OVER (...)` etc.).
    Agg {
        /// Which aggregate.
        func: AggFunc,
        /// Argument; `None` for `COUNT(*)`.
        arg: Option<Box<Expr>>,
    },
}

impl WindowFunc {
    /// Function name for result-column labelling.
    pub fn name(&self) -> &'static str {
        match self {
            WindowFunc::RowNumber => "ROW_NUMBER",
            WindowFunc::Rank => "RANK",
            WindowFunc::Agg { func, .. } => func.name(),
        }
    }
}

/// A window function call: function plus the `OVER (...)` specification.
/// With ORDER BY the frame is the SQL default `RANGE BETWEEN UNBOUNDED
/// PRECEDING AND CURRENT ROW` (running totals, peers included); without it
/// the frame is the whole partition.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowExpr {
    /// The function being windowed.
    pub func: WindowFunc,
    /// `PARTITION BY` expressions (empty = one partition).
    pub partition_by: Vec<Expr>,
    /// `ORDER BY` keys inside the OVER clause.
    pub order_by: Vec<OrderKey>,
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

    /// Does this expression tree contain an aggregate call?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => false,
            Expr::Neg(e) | Expr::Not(e) => e.contains_aggregate(),
            Expr::Binary { lhs, rhs, .. } => lhs.contains_aggregate() || rhs.contains_aggregate(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.contains_aggregate() || lo.contains_aggregate() || hi.contains_aggregate()
            }
            Expr::Func { args, .. } => args.iter().any(Expr::contains_aggregate),
            // A subquery's own aggregates are its own business.
            Expr::Subquery(_) | Expr::Exists { .. } => false,
            Expr::InSelect { expr, .. } => expr.contains_aggregate(),
            Expr::Case {
                operand,
                arms,
                otherwise,
            } => {
                operand.as_ref().is_some_and(|o| o.contains_aggregate())
                    || arms
                        .iter()
                        .any(|(w, t)| w.contains_aggregate() || t.contains_aggregate())
                    || otherwise.as_ref().is_some_and(|e| e.contains_aggregate())
            }
            Expr::Cast { expr, .. } => expr.contains_aggregate(),
            // A window call computes its own value per row; it does not make
            // the query a grouped aggregate query.
            Expr::Window(_) => false,
        }
    }

    /// Does this expression tree contain a window function call?
    pub fn contains_window(&self) -> bool {
        match self {
            Expr::Window(_) => true,
            Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => false,
            Expr::Neg(e) | Expr::Not(e) => e.contains_window(),
            Expr::Binary { lhs, rhs, .. } => lhs.contains_window() || rhs.contains_window(),
            Expr::Like { expr, pattern, .. } => expr.contains_window() || pattern.contains_window(),
            Expr::IsNull { expr, .. } => expr.contains_window(),
            Expr::InList { expr, list, .. } => {
                expr.contains_window() || list.iter().any(Expr::contains_window)
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.contains_window() || lo.contains_window() || hi.contains_window()
            }
            Expr::Func { args, .. } => args.iter().any(Expr::contains_window),
            Expr::Agg { arg, .. } => arg.as_ref().is_some_and(|a| a.contains_window()),
            Expr::Subquery(_) | Expr::Exists { .. } => false,
            Expr::InSelect { expr, .. } => expr.contains_window(),
            Expr::Case {
                operand,
                arms,
                otherwise,
            } => {
                operand.as_ref().is_some_and(|o| o.contains_window())
                    || arms
                        .iter()
                        .any(|(w, t)| w.contains_window() || t.contains_window())
                    || otherwise.as_ref().is_some_and(|e| e.contains_window())
            }
            Expr::Cast { expr, .. } => expr.contains_window(),
        }
    }

    /// Does this expression tree contain a subquery?
    pub fn contains_subquery(&self) -> bool {
        match self {
            Expr::Subquery(_) | Expr::InSelect { .. } | Expr::Exists { .. } => true,
            Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => false,
            Expr::Neg(e) | Expr::Not(e) => e.contains_subquery(),
            Expr::Binary { lhs, rhs, .. } => lhs.contains_subquery() || rhs.contains_subquery(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_subquery() || pattern.contains_subquery()
            }
            Expr::IsNull { expr, .. } => expr.contains_subquery(),
            Expr::InList { expr, list, .. } => {
                expr.contains_subquery() || list.iter().any(Expr::contains_subquery)
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.contains_subquery() || lo.contains_subquery() || hi.contains_subquery()
            }
            Expr::Func { args, .. } => args.iter().any(Expr::contains_subquery),
            Expr::Agg { arg, .. } => arg.as_ref().is_some_and(|a| a.contains_subquery()),
            Expr::Case {
                operand,
                arms,
                otherwise,
            } => {
                operand.as_ref().is_some_and(|o| o.contains_subquery())
                    || arms
                        .iter()
                        .any(|(w, t)| w.contains_subquery() || t.contains_subquery())
                    || otherwise.as_ref().is_some_and(|e| e.contains_subquery())
            }
            Expr::Cast { expr, .. } => expr.contains_subquery(),
            Expr::Window(w) => {
                let arg_has = match &w.func {
                    WindowFunc::Agg { arg: Some(a), .. } => a.contains_subquery(),
                    _ => false,
                };
                arg_has
                    || w.partition_by.iter().any(Expr::contains_subquery)
                    || w.order_by.iter().any(|k| k.expr.contains_subquery())
            }
        }
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

/// A join clause (`JOIN t ON cond`; comma joins become cross joins with the
/// condition folded into WHERE by the parser).
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    /// The joined table.
    pub table: TableRef,
    /// The ON condition; `None` for a cross join.
    pub on: Option<Expr>,
    /// True for LEFT OUTER JOIN.
    pub left_outer: bool,
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
    /// First FROM table; `None` for table-less `SELECT 1+1`.
    pub from: Option<TableRef>,
    /// Subsequent joins.
    pub joins: Vec<Join>,
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
        /// One or more VALUES tuples (empty when `select` is used).
        values: Vec<Vec<Expr>>,
        /// `INSERT INTO t SELECT ...` source, instead of VALUES.
        select: Option<Box<Select>>,
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
    /// DELETE.
    Delete {
        /// Target table.
        table: String,
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
    /// DROP TABLE.
    DropTable {
        /// Table name.
        name: String,
        /// IF EXISTS given.
        if_exists: bool,
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
            Expr::Func { name, args } => {
                write!(f, "{name}(")?;
                fmt_comma_sep(f, args)?;
                write!(f, ")")
            }
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
            Expr::Subquery(s) => write!(f, "({s})"),
            Expr::InSelect {
                expr,
                select,
                negated,
            } => write!(
                f,
                "({expr} {}IN ({select}))",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Exists { select, negated } => write!(
                f,
                "({}EXISTS ({select}))",
                if *negated { "NOT " } else { "" }
            ),
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
            Expr::Window(w) => write!(f, "{w}"),
        }
    }
}

impl std::fmt::Display for WindowExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.func {
            WindowFunc::RowNumber => write!(f, "ROW_NUMBER()")?,
            WindowFunc::Rank => write!(f, "RANK()")?,
            WindowFunc::Agg { func, arg } => match arg {
                Some(a) => write!(f, "{}({a})", func.name())?,
                None => write!(f, "{}(*)", func.name())?,
            },
        }
        write!(f, " OVER (")?;
        let mut space = "";
        if !self.partition_by.is_empty() {
            write!(f, "PARTITION BY ")?;
            fmt_comma_sep(f, &self.partition_by)?;
            space = " ";
        }
        if !self.order_by.is_empty() {
            write!(f, "{space}ORDER BY ")?;
            fmt_comma_sep(f, &self.order_by)?;
        }
        write!(f, ")")
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
            for join in &self.joins {
                match &join.on {
                    None if !join.left_outer => write!(f, ", {}", join.table)?,
                    on => {
                        let kw = if join.left_outer { "LEFT JOIN" } else { "JOIN" };
                        write!(f, " {kw} {}", join.table)?;
                        if let Some(cond) = on {
                            write!(f, " ON {cond}")?;
                        }
                    }
                }
            }
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
                select,
            } => {
                write!(f, "INSERT INTO {table}")?;
                if !columns.is_empty() {
                    write!(f, " (")?;
                    fmt_comma_sep(f, columns)?;
                    write!(f, ")")?;
                }
                if let Some(s) = select {
                    write!(f, " {s}")
                } else {
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
            Statement::Delete {
                table,
                where_clause,
            } => {
                write!(f, "DELETE FROM {table}")?;
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
            Statement::DropTable { name, if_exists } => write!(
                f,
                "DROP TABLE {}{name}",
                if *if_exists { "IF EXISTS " } else { "" }
            ),
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
