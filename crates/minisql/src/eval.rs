//! Scalar expression evaluation.
//!
//! Column names resolve once per statement: [`Bindings::bind`] writes each
//! reference's tuple position into its [`ColumnRef::slot`] for the scope the
//! expression will run in, before any row loop. Evaluation then reads slots
//! of a stored row (a [`RowRef`]) and an optional parameter vector, and
//! borrows column, literal and parameter operands as [`ValueRef`]s rather
//! than cloning them; only computed values are owned. Aggregate
//! sub-expressions are resolved through an [`AggSource`] supplied by the
//! grouping executor; in any other context they are an error.

use crate::ast::{BinOp, ColumnRef, Expr};
use crate::error::{SqlCode, SqlError, SqlResult};
use crate::like::Pattern;
use crate::storage::RowRef;
use crate::types::{Truth, Value, ValueRef};

/// Column-name resolution for one query scope: the FROM table's effective
/// name and its column names, or nothing for a table-less SELECT. Tuple
/// positions are column ordinals.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    table: Option<(String, Vec<String>)>,
}

impl Bindings {
    /// Empty scope (for table-less `SELECT 1+1`).
    pub fn empty() -> Bindings {
        Bindings::default()
    }

    /// Scope with a single table.
    pub fn single(table: &str, columns: Vec<String>) -> Bindings {
        Bindings {
            table: Some((table.to_owned(), columns)),
        }
    }

    /// Tuple width.
    pub fn width(&self) -> usize {
        self.columns().len()
    }

    /// All column names in tuple order (used by `SELECT *`).
    pub fn columns(&self) -> &[String] {
        self.table.as_ref().map_or(&[], |(_, cols)| cols)
    }

    /// Column names of `table.*`, when `table` names the scope's table.
    pub fn table_columns(&self, table: &str) -> Option<&[String]> {
        (self.table.as_ref())
            .filter(|(name, _)| name.eq_ignore_ascii_case(table))
            .map(|(_, cols)| &cols[..])
    }

    /// Resolve a column reference to a tuple position. A qualified name must
    /// name the scope's table.
    pub fn resolve(&self, col: &ColumnRef) -> SqlResult<usize> {
        #[cfg(test)]
        RESOLVES.with(|n| n.set(n.get() + 1));
        let cols = match &col.table {
            Some(t) => self.table_columns(t).unwrap_or(&[]),
            None => self.columns(),
        };
        (cols.iter())
            .position(|name| name.eq_ignore_ascii_case(&col.column))
            .ok_or_else(|| SqlError::no_such_column(&col.to_string()))
    }

    /// A copy of `expr` with every column reference resolved against this
    /// scope — unknown names error here, however many rows will flow.
    pub fn bound(&self, expr: &Expr) -> SqlResult<Expr> {
        let mut expr = expr.clone();
        self.bind(&mut expr)?;
        Ok(expr)
    }

    /// [`Bindings::bound`] in place. A LIKE whose pattern is a literal
    /// gets its [`Pattern`] here too, so no row decodes it again.
    pub fn bind(&self, expr: &mut Expr) -> SqlResult<()> {
        match expr {
            Expr::Column(c) => {
                c.slot = Some(self.resolve(c)?);
                return Ok(());
            }
            Expr::Like {
                pattern,
                escape,
                prepared,
                ..
            } => prepared.prepare(pattern, *escape),
            _ => {}
        }
        expr.try_for_each_child_mut(|e| self.bind(e))
    }
}

#[cfg(test)]
thread_local! {
    /// [`Bindings::resolve`] calls on this thread: the bind-once tests check
    /// it does not grow with the table.
    pub(crate) static RESOLVES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Provider of the folded aggregate values of a query that aggregates.
pub trait AggSource {
    /// The value of aggregate expression `expr` over the query's rows, if the
    /// source knows it.
    fn agg_value(&self, expr: &Expr) -> Option<Value>;
}

/// An [`AggSource`] that knows nothing — any aggregate reference errors.
pub struct NoAggregates;

impl AggSource for NoAggregates {
    fn agg_value(&self, _expr: &Expr) -> Option<Value> {
        None
    }
}

/// A value [`eval_ref`] produced: read from the row, the statement or the
/// parameters, or computed.
#[derive(Debug)]
pub enum Evaluated<'a> {
    /// Read from where it lives.
    Borrowed(ValueRef<'a>),
    /// Computed by the expression.
    Owned(Value),
}

impl Evaluated<'_> {
    /// The value, borrowed.
    pub fn view(&self) -> ValueRef<'_> {
        match self {
            Evaluated::Borrowed(v) => *v,
            Evaluated::Owned(v) => v.view(),
        }
    }

    /// The value, owned.
    pub fn into_value(self) -> Value {
        match self {
            Evaluated::Borrowed(v) => v.to_value(),
            Evaluated::Owned(v) => v,
        }
    }
}

/// Evaluate `expr` (its columns bound by [`Bindings::bind`]) to a value.
pub fn eval(
    expr: &Expr,
    row: RowRef<'_>,
    params: &[Value],
    aggs: &dyn AggSource,
) -> SqlResult<Value> {
    eval_ref(expr, row, params, aggs).map(Evaluated::into_value)
}

/// The evaluator: column, literal and parameter values come back borrowed
/// from `row`, the expression and `params`; computed values are owned.
pub fn eval_ref<'a>(
    expr: &'a Expr,
    row: RowRef<'a>,
    params: &'a [Value],
    aggs: &dyn AggSource,
) -> SqlResult<Evaluated<'a>> {
    let computed = match expr {
        Expr::Literal(v) => return Ok(Evaluated::Borrowed(v.view())),
        Expr::Column(c) => {
            let slot = c
                .slot
                .ok_or_else(|| SqlError::no_such_column(&c.to_string()))?;
            return Ok(Evaluated::Borrowed(row.get(slot)));
        }
        Expr::Param(i) => {
            return params
                .get(i - 1)
                .map(|v| Evaluated::Borrowed(v.view()))
                .ok_or_else(|| {
                    SqlError::syntax(format!("no value bound for parameter marker ?{i}"))
                })
        }
        Expr::Not(inner) => {
            let t = eval_truth(inner, row, params, aggs)?;
            Ok(truth_to_value(t.not()))
        }
        Expr::Binary { op, lhs, rhs } => match op {
            BinOp::And | BinOp::Or => {
                let t = eval_truth(expr, row, params, aggs)?;
                Ok(truth_to_value(t))
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let t = eval_truth(expr, row, params, aggs)?;
                Ok(truth_to_value(t))
            }
            BinOp::Add | BinOp::Sub => {
                let l = eval_ref(lhs, row, params, aggs)?;
                let r = eval_ref(rhs, row, params, aggs)?;
                arithmetic(*op, l.view(), r.view())
            }
        },
        Expr::Like { .. } | Expr::IsNull { .. } | Expr::InList { .. } => {
            let t = eval_truth(expr, row, params, aggs)?;
            Ok(truth_to_value(t))
        }
        Expr::Agg { .. } => aggs
            .agg_value(expr)
            .ok_or_else(|| SqlError::syntax("aggregate function not allowed in this context")),
        Expr::Case {
            operand,
            arms,
            otherwise,
        } => {
            for (when, then) in arms {
                let hit = match operand {
                    // Simple CASE: operand = when (NULL never matches).
                    Some(op) => {
                        let lhs = eval_ref(op, row, params, aggs)?;
                        let rhs = eval_ref(when, row, params, aggs)?;
                        lhs.view().sql_eq(rhs.view()) == Truth::True
                    }
                    // Searched CASE: when is a predicate.
                    None => eval_truth(when, row, params, aggs)?.passes(),
                };
                if hit {
                    return eval_ref(then, row, params, aggs);
                }
            }
            match otherwise {
                Some(e) => return eval_ref(e, row, params, aggs),
                None => Ok(Value::Null),
            }
        }
    };
    computed.map(Evaluated::Owned)
}

/// Evaluate `expr` as a predicate under three-valued logic.
pub fn eval_truth(
    expr: &Expr,
    row: RowRef<'_>,
    params: &[Value],
    aggs: &dyn AggSource,
) -> SqlResult<Truth> {
    match expr {
        Expr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            let l = eval_truth(lhs, row, params, aggs)?;
            // Short-circuit only on definite False — Unknown must still
            // combine per 3VL.
            if l == Truth::False {
                return Ok(Truth::False);
            }
            Ok(l.and(eval_truth(rhs, row, params, aggs)?))
        }
        Expr::Binary {
            op: BinOp::Or,
            lhs,
            rhs,
        } => {
            let l = eval_truth(lhs, row, params, aggs)?;
            if l == Truth::True {
                return Ok(Truth::True);
            }
            Ok(l.or(eval_truth(rhs, row, params, aggs)?))
        }
        Expr::Not(inner) => Ok(eval_truth(inner, row, params, aggs)?.not()),
        Expr::Binary { op, lhs, rhs }
            if matches!(
                op,
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
            ) =>
        {
            let l = eval_ref(lhs, row, params, aggs)?;
            let r = eval_ref(rhs, row, params, aggs)?;
            let (l, r) = (l.view(), r.view());
            if l.is_null() || r.is_null() {
                return Ok(Truth::Unknown);
            }
            let Some(ord) = l.compare(r) else {
                return Err(SqlError::type_mismatch(format!(
                    "cannot compare {l} with {r}"
                )));
            };
            Ok(Truth::from_bool(match op {
                BinOp::Eq => ord.is_eq(),
                BinOp::Ne => ord.is_ne(),
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::Ge => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_ref(expr, row, params, aggs)?;
            Ok(Truth::from_bool(v.view().is_null() != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            escape,
            negated,
            prepared,
        } => {
            let v = eval_ref(expr, row, params, aggs)?;
            let v = v.view();
            let hit = match &prepared.0 {
                Some(_) if v.is_null() => return Ok(Truth::Unknown),
                Some(p) => p.matches(&v.as_text()),
                None => {
                    let p = eval_ref(pattern, row, params, aggs)?;
                    let p = p.view();
                    if v.is_null() || p.is_null() {
                        return Ok(Truth::Unknown);
                    }
                    Pattern::new(&p.as_text(), *escape).matches(&v.as_text())
                }
            };
            Ok(Truth::from_bool(hit != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_ref(expr, row, params, aggs)?;
            let v = v.view();
            if v.is_null() {
                return Ok(Truth::Unknown);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval_ref(item, row, params, aggs)?;
                match v.sql_eq(w.view()) {
                    Truth::True => return Ok(Truth::from_bool(!*negated)),
                    Truth::Unknown => saw_null = true,
                    Truth::False => {}
                }
            }
            if saw_null {
                Ok(Truth::Unknown)
            } else {
                Ok(Truth::from_bool(*negated))
            }
        }
        // Everything else: evaluate as a value, nonzero/non-null-true.
        other => {
            let v = eval_ref(other, row, params, aggs)?;
            Ok(match v.view() {
                ValueRef::Null => Truth::Unknown,
                ValueRef::Int(i) => Truth::from_bool(i != 0),
                ValueRef::Double(d) => Truth::from_bool(d != 0.0),
                ValueRef::Text(_) => {
                    return Err(SqlError::type_mismatch(
                        "string used where a condition is required",
                    ))
                }
            })
        }
    }
}

fn truth_to_value(t: Truth) -> Value {
    match t {
        Truth::True => Value::Int(1),
        Truth::False => Value::Int(0),
        Truth::Unknown => Value::Null,
    }
}

/// An integer result outside `i64` (DB2 −802): integer arithmetic and SUM
/// never wrap.
pub(crate) fn overflow() -> SqlError {
    SqlError::new(SqlCode::ARITHMETIC, "arithmetic overflow")
}

/// `l + r` or `l - r`: exact over two integers, in doubles otherwise.
fn arithmetic(op: BinOp, l: ValueRef<'_>, r: ValueRef<'_>) -> SqlResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if let (ValueRef::Int(a), ValueRef::Int(b)) = (l, r) {
        let exact = match op {
            BinOp::Add => a.checked_add(b),
            _ => a.checked_sub(b),
        };
        return exact.map(Value::Int).ok_or_else(overflow);
    }
    let (a, b) = (to_f64(l)?, to_f64(r)?);
    Ok(Value::Double(match op {
        BinOp::Add => a + b,
        _ => a - b,
    }))
}

fn to_f64(v: ValueRef<'_>) -> SqlResult<f64> {
    match v {
        ValueRef::Int(i) => Ok(i as f64),
        ValueRef::Double(d) => Ok(d),
        other => Err(SqlError::type_mismatch(format!("{other} is not numeric"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{SelectItem, Statement};
    use crate::parser::parse;

    /// Parse `SELECT <expr>` and evaluate the expression with no tables.
    fn eval_str(expr_sql: &str) -> SqlResult<Value> {
        let stmt = parse(&format!("SELECT {expr_sql}")).unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let SelectItem::Expr(expr) = &s.items[0] else {
            panic!()
        };
        eval(expr, RowRef::EMPTY, &[], &NoAggregates)
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval_str("2 + 3 - 4").unwrap(), Value::Int(1));
        assert_eq!(eval_str("2 - (3 + 4)").unwrap(), Value::Int(-5));
        assert_eq!(eval_str("7.5 - 2").unwrap(), Value::Double(5.5));
        assert_eq!(eval_str("-5").unwrap(), Value::Int(-5));
        assert_eq!(eval_str("1 + 1 = 2").unwrap(), Value::Int(1));
        let err = eval_str("9223372036854775807 + 1").unwrap_err();
        assert_eq!(err.code, SqlCode::ARITHMETIC);
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval_str("NULL + 1").unwrap(), Value::Null);
        assert_eq!(eval_str("1 - NULL").unwrap(), Value::Null);
    }

    #[test]
    fn comparisons_yield_int_bool() {
        assert_eq!(eval_str("1 < 2").unwrap(), Value::Int(1));
        assert_eq!(eval_str("2 < 1").unwrap(), Value::Int(0));
        assert_eq!(eval_str("NULL = NULL").unwrap(), Value::Null);
    }

    #[test]
    fn predicates() {
        assert_eq!(eval_str("'abc' LIKE 'a%'").unwrap(), Value::Int(1));
        assert_eq!(eval_str("'abc' NOT LIKE 'a%'").unwrap(), Value::Int(0));
        assert_eq!(eval_str("NULL IS NULL").unwrap(), Value::Int(1));
        assert_eq!(eval_str("1 IS NOT NULL").unwrap(), Value::Int(1));
        assert_eq!(eval_str("2 IN (1, 2, 3)").unwrap(), Value::Int(1));
        assert_eq!(eval_str("5 NOT IN (1, 2, 3)").unwrap(), Value::Int(1));
    }

    #[test]
    fn in_list_with_null_is_unknown_when_no_hit() {
        assert_eq!(eval_str("5 IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_str("1 IN (1, NULL)").unwrap(), Value::Int(1));
    }

    #[test]
    fn unknown_function_rejected() {
        let err = parse("SELECT FROBNICATE(1)").unwrap_err();
        assert_eq!(err.message, "scalar function FROBNICATE is not supported");
    }

    #[test]
    fn bindings_resolution() {
        let b = Bindings::single("a", vec!["id".into(), "x".into()]);
        assert_eq!(b.resolve(&ColumnRef::bare("x")).unwrap(), 1);
        let qualified = |table: &str, column: &str| ColumnRef {
            table: Some(table.into()),
            column: column.into(),
            slot: None,
        };
        assert_eq!(b.resolve(&qualified("A", "ID")).unwrap(), 0);
        // Another table's name, or no table at all, resolves nothing.
        let err = b.resolve(&qualified("b", "id")).unwrap_err();
        assert_eq!(err.code, SqlCode::UNDEFINED_COLUMN);
        assert!(b.resolve(&ColumnRef::bare("y")).is_err());
        assert!(Bindings::empty().resolve(&ColumnRef::bare("x")).is_err());
        assert_eq!(b.table_columns("a").map(<[String]>::len), Some(2));
        assert_eq!(b.table_columns("b"), None);
        assert_eq!(b.width(), 2);
    }

    #[test]
    fn three_vl_and_or_short_circuit() {
        // FALSE AND error-free-unknown must be FALSE.
        assert_eq!(eval_str("1 = 2 AND NULL = 1").unwrap(), Value::Int(0));
        assert_eq!(eval_str("1 = 1 OR NULL = 1").unwrap(), Value::Int(1));
        assert_eq!(eval_str("1 = 1 AND NULL = 1").unwrap(), Value::Null);
        assert_eq!(eval_str("NOT (NULL = 1)").unwrap(), Value::Null);
    }

    #[test]
    fn params_bound_positionally() {
        let stmt = parse("SELECT ? + ?").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        let SelectItem::Expr(expr) = &s.items[0] else {
            panic!()
        };
        let v = eval(
            expr,
            RowRef::EMPTY,
            &[Value::Int(40), Value::Int(2)],
            &NoAggregates,
        )
        .unwrap();
        assert_eq!(v, Value::Int(42));
        assert!(eval(expr, RowRef::EMPTY, &[], &NoAggregates).is_err());
    }
}
