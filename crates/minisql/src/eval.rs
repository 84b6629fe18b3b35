//! Scalar expression evaluation.
//!
//! Column names resolve once per statement: [`Bindings::bind`] writes each
//! reference's tuple position into its [`ColumnRef::slot`] for the scope the
//! expression will run in, before any row loop. Evaluation then reads slots,
//! a tuple of values and an optional parameter vector, and borrows column,
//! literal and parameter operands rather than cloning them; only computed
//! values are owned. Aggregate sub-expressions are resolved through an
//! [`AggSource`] supplied by the grouping executor; in any other context they
//! are an error.

use crate::ast::{BinOp, ColumnRef, Expr, WindowFunc};
use crate::error::{SqlCode, SqlError, SqlResult};
use crate::like::like_match;
use crate::types::{Truth, Value};
use std::borrow::Cow;

/// Column-name resolution for one query scope.
///
/// Holds, per FROM-clause table (in order), the table's effective name and
/// its column names; tuple positions are the concatenation.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    tables: Vec<(String, Vec<String>)>,
}

impl Bindings {
    /// Empty scope (for table-less `SELECT 1+1`).
    pub fn empty() -> Bindings {
        Bindings::default()
    }

    /// Scope with a single table.
    pub fn single(table: &str, columns: Vec<String>) -> Bindings {
        let mut b = Bindings::default();
        b.push_table(table, columns);
        b
    }

    /// Append a table's columns to the scope (join order).
    pub fn push_table(&mut self, table: &str, columns: Vec<String>) {
        self.tables.push((table.to_owned(), columns));
    }

    /// Total tuple width.
    pub fn width(&self) -> usize {
        self.tables.iter().map(|(_, c)| c.len()).sum()
    }

    /// All column names in tuple order (used by `SELECT *`).
    pub fn all_columns(&self) -> Vec<String> {
        self.tables
            .iter()
            .flat_map(|(_, cols)| cols.iter().cloned())
            .collect()
    }

    /// Tuple positions covered by `table.*`.
    pub fn table_span(&self, table: &str) -> Option<(usize, usize)> {
        let mut offset = 0;
        for (name, cols) in &self.tables {
            if name.eq_ignore_ascii_case(table) {
                return Some((offset, offset + cols.len()));
            }
            offset += cols.len();
        }
        None
    }

    /// Column names for positions in `table.*`.
    pub fn table_columns(&self, table: &str) -> Option<&[String]> {
        self.tables
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(table))
            .map(|(_, cols)| cols.as_slice())
    }

    /// Number of tables in the scope.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Index (FROM-clause position) of the table owning tuple position
    /// `pos`, if in range. The planner uses this to classify predicate
    /// conjuncts by the tables they reference.
    pub fn table_of_position(&self, pos: usize) -> Option<usize> {
        let mut offset = 0;
        for (i, (_, cols)) in self.tables.iter().enumerate() {
            if pos < offset + cols.len() {
                return Some(i);
            }
            offset += cols.len();
        }
        None
    }

    /// Resolve a column reference to a tuple position.
    ///
    /// Unqualified names must be unambiguous across the scope's tables; the
    /// qualified form restricts the search to one table.
    pub fn resolve(&self, col: &ColumnRef) -> SqlResult<usize> {
        #[cfg(test)]
        RESOLVES.with(|n| n.set(n.get() + 1));
        let mut found = None;
        let mut offset = 0;
        for (table, cols) in &self.tables {
            if col
                .table
                .as_ref()
                .is_none_or(|t| t.eq_ignore_ascii_case(table))
            {
                for (i, name) in cols.iter().enumerate() {
                    if name.eq_ignore_ascii_case(&col.column) {
                        if found.is_some() {
                            return Err(SqlError::syntax(format!(
                                "ambiguous column reference {col}"
                            )));
                        }
                        found = Some(offset + i);
                    }
                }
            }
            offset += cols.len();
        }
        found.ok_or_else(|| SqlError::no_such_column(&col.to_string()))
    }

    /// A copy of `expr` with every column reference resolved against this
    /// scope — unknown or ambiguous names error here, however many rows will
    /// flow. Subqueries are skipped: they bind their own scopes when they run.
    pub fn bound(&self, expr: &Expr) -> SqlResult<Expr> {
        let mut expr = expr.clone();
        self.bind(&mut expr)?;
        Ok(expr)
    }

    /// [`Bindings::bound`] in place.
    pub fn bind(&self, expr: &mut Expr) -> SqlResult<()> {
        match expr {
            Expr::Column(c) => c.slot = Some(self.resolve(c)?),
            Expr::Literal(_) | Expr::Param(_) | Expr::Subquery(_) | Expr::Exists { .. } => {}
            Expr::Neg(e) | Expr::Not(e) | Expr::IsNull { expr: e, .. } => self.bind(e)?,
            Expr::Cast { expr: e, .. } | Expr::InSelect { expr: e, .. } => self.bind(e)?,
            Expr::Binary { lhs, rhs, .. }
            | Expr::Like {
                expr: lhs,
                pattern: rhs,
                ..
            } => {
                self.bind(lhs)?;
                self.bind(rhs)?;
            }
            Expr::InList { expr, list, .. } => {
                self.bind(expr)?;
                list.iter_mut().try_for_each(|e| self.bind(e))?;
            }
            Expr::Between { expr, lo, hi, .. } => {
                self.bind(expr)?;
                self.bind(lo)?;
                self.bind(hi)?;
            }
            Expr::Func { args, .. } => args.iter_mut().try_for_each(|e| self.bind(e))?,
            Expr::Agg { arg, .. } => arg.iter_mut().try_for_each(|a| self.bind(a))?,
            Expr::Case {
                operand,
                arms,
                otherwise,
            } => {
                operand.iter_mut().try_for_each(|o| self.bind(o))?;
                for (w, t) in arms {
                    self.bind(w)?;
                    self.bind(t)?;
                }
                otherwise.iter_mut().try_for_each(|e| self.bind(e))?;
            }
            Expr::Window(w) => {
                if let WindowFunc::Agg { arg: Some(a), .. } = &mut w.func {
                    self.bind(a)?;
                }
                w.partition_by.iter_mut().try_for_each(|e| self.bind(e))?;
                w.order_by
                    .iter_mut()
                    .try_for_each(|k| self.bind(&mut k.expr))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
thread_local! {
    /// [`Bindings::resolve`] calls on this thread: the bind-once tests check
    /// it does not grow with the table.
    pub(crate) static RESOLVES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Provider of pre-computed aggregate values during HAVING / aggregate-SELECT
/// evaluation.
pub trait AggSource {
    /// The value of aggregate expression `expr` for the current group, if the
    /// source knows it.
    fn agg_value(&self, expr: &Expr) -> Option<Value>;

    /// The value of window expression `expr` for the current row, if the
    /// source knows it. Only the executor's window pass supplies these.
    fn window_value(&self, _expr: &Expr) -> Option<Value> {
        None
    }
}

/// An [`AggSource`] that knows nothing — any aggregate reference errors.
pub struct NoAggregates;

impl AggSource for NoAggregates {
    fn agg_value(&self, _expr: &Expr) -> Option<Value> {
        None
    }
}

/// Evaluate `expr` (its columns bound by [`Bindings::bind`]) to a value.
pub fn eval(
    expr: &Expr,
    row: &[Value],
    params: &[Value],
    aggs: &dyn AggSource,
) -> SqlResult<Value> {
    eval_ref(expr, row, params, aggs).map(Cow::into_owned)
}

/// The evaluator: column, literal and parameter values come back borrowed
/// from `row`, the expression and `params`; computed values are owned.
pub fn eval_ref<'a>(
    expr: &'a Expr,
    row: &'a [Value],
    params: &'a [Value],
    aggs: &dyn AggSource,
) -> SqlResult<Cow<'a, Value>> {
    static NULL: Value = Value::Null;
    let computed = match expr {
        Expr::Literal(v) => return Ok(Cow::Borrowed(v)),
        Expr::Column(c) => {
            let slot = c
                .slot
                .ok_or_else(|| SqlError::no_such_column(&c.to_string()))?;
            return Ok(Cow::Borrowed(row.get(slot).unwrap_or(&NULL)));
        }
        Expr::Param(i) => {
            return params.get(i - 1).map(Cow::Borrowed).ok_or_else(|| {
                SqlError::syntax(format!("no value bound for parameter marker ?{i}"))
            })
        }
        Expr::Neg(inner) => match eval(inner, row, params, aggs)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Double(d) => Ok(Value::Double(-d)),
            other => Err(SqlError::type_mismatch(format!("cannot negate {other}"))),
        },
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
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let l = eval(lhs, row, params, aggs)?;
                let r = eval(rhs, row, params, aggs)?;
                arithmetic(*op, l, r)
            }
            BinOp::Concat => {
                let l = eval_ref(lhs, row, params, aggs)?;
                let r = eval_ref(rhs, row, params, aggs)?;
                if l.is_null() || r.is_null() {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Text(format!("{}{}", l.as_text(), r.as_text())))
                }
            }
        },
        Expr::Like { .. } | Expr::IsNull { .. } | Expr::InList { .. } | Expr::Between { .. } => {
            let t = eval_truth(expr, row, params, aggs)?;
            Ok(truth_to_value(t))
        }
        Expr::Func { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, row, params, aggs)?);
            }
            scalar_function(name, vals)
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
                        lhs.sql_eq(&rhs) == Truth::True
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
        Expr::Cast { expr, ty } => {
            let v = eval(expr, row, params, aggs)?;
            cast_value(v, *ty)
        }
        // Subqueries are pre-executed and replaced with literals by the
        // executor (exec::rewrite_expr_subqueries); reaching one here means a
        // context that does not support them (e.g. a correlated reference).
        Expr::Subquery(_) | Expr::InSelect { .. } | Expr::Exists { .. } => Err(SqlError::syntax(
            "subqueries are not allowed in this context (or are correlated)",
        )),
        // Window values are pre-computed per row by the executor's window
        // pass; elsewhere (WHERE, GROUP BY, grouped queries) they are illegal.
        Expr::Window(_) => aggs
            .window_value(expr)
            .ok_or_else(|| SqlError::syntax("window function not allowed in this context")),
    };
    computed.map(Cow::Owned)
}

/// CAST semantics: numeric↔numeric truncates toward zero; text parses to
/// numbers (error when unparsable, like DB2's -420); anything renders to text.
fn cast_value(v: Value, ty: crate::types::SqlType) -> SqlResult<Value> {
    use crate::types::SqlType;
    if v.is_null() {
        return Ok(Value::Null);
    }
    Ok(match (v, ty) {
        (v @ Value::Int(_), SqlType::Integer) => v,
        (Value::Double(d), SqlType::Integer) => Value::Int(d.trunc() as i64),
        (Value::Text(t), SqlType::Integer) => Value::Int(
            t.trim()
                .parse::<i64>()
                .or_else(|_| t.trim().parse::<f64>().map(|d| d.trunc() as i64))
                .map_err(|_| SqlError::type_mismatch(format!("cannot cast '{t}' to INTEGER")))?,
        ),
        (Value::Int(i), SqlType::Double) => Value::Double(i as f64),
        (v @ Value::Double(_), SqlType::Double) => v,
        (Value::Text(t), SqlType::Double) => Value::Double(
            t.trim()
                .parse::<f64>()
                .map_err(|_| SqlError::type_mismatch(format!("cannot cast '{t}' to DOUBLE")))?,
        ),
        (v, SqlType::Varchar) => Value::Text(v.to_display_string()),
        (v @ Value::Date(_), SqlType::Date) => v,
        (Value::Text(t), SqlType::Date) => Value::Date(
            crate::date::parse_date(&t)
                .ok_or_else(|| SqlError::type_mismatch(format!("cannot cast '{t}' to DATE")))?,
        ),
        (v, SqlType::Date) => {
            return Err(SqlError::type_mismatch(format!("cannot cast {v} to DATE")))
        }
        (Value::Date(_), SqlType::Integer | SqlType::Double) => {
            return Err(SqlError::type_mismatch(
                "cannot cast DATE to a number (subtract dates instead)",
            ))
        }
        (Value::Null, _) => Value::Null,
    })
}

/// Evaluate `expr` as a predicate under three-valued logic.
pub fn eval_truth(
    expr: &Expr,
    row: &[Value],
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
            if l.is_null() || r.is_null() {
                return Ok(Truth::Unknown);
            }
            let Some(ord) = l.compare(&r) else {
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
            Ok(Truth::from_bool(v.is_null() != *negated))
        }
        Expr::Like {
            expr,
            pattern,
            escape,
            negated,
        } => {
            let v = eval_ref(expr, row, params, aggs)?;
            let p = eval_ref(pattern, row, params, aggs)?;
            if v.is_null() || p.is_null() {
                return Ok(Truth::Unknown);
            }
            let hit = like_match(&v.as_text(), &p.as_text(), *escape);
            Ok(Truth::from_bool(hit != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_ref(expr, row, params, aggs)?;
            if v.is_null() {
                return Ok(Truth::Unknown);
            }
            let mut saw_null = false;
            for item in list {
                let w = eval_ref(item, row, params, aggs)?;
                match v.sql_eq(&w) {
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
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval_ref(expr, row, params, aggs)?;
            let l = eval_ref(lo, row, params, aggs)?;
            let h = eval_ref(hi, row, params, aggs)?;
            if v.is_null() || l.is_null() || h.is_null() {
                return Ok(Truth::Unknown);
            }
            let ge_lo = v.compare(&l).map(|o| o.is_ge());
            let le_hi = v.compare(&h).map(|o| o.is_le());
            match (ge_lo, le_hi) {
                (Some(a), Some(b)) => Ok(Truth::from_bool((a && b) != *negated)),
                _ => Err(SqlError::type_mismatch("BETWEEN operands incomparable")),
            }
        }
        // Everything else: evaluate as a value, nonzero/non-null-true.
        other => {
            let v = eval_ref(other, row, params, aggs)?;
            Ok(match *v {
                Value::Null => Truth::Unknown,
                Value::Int(i) => Truth::from_bool(i != 0),
                Value::Double(d) => Truth::from_bool(d != 0.0),
                Value::Text(_) | Value::Date(_) => {
                    return Err(SqlError::type_mismatch(
                        "string or date used where a condition is required",
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

fn arithmetic(op: BinOp, l: Value, r: Value) -> SqlResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Date arithmetic: date ± days, date - date = days.
    match (&l, &r, op) {
        (Value::Date(d), Value::Int(n), BinOp::Add) => return Ok(Value::Date(d + n)),
        (Value::Int(n), Value::Date(d), BinOp::Add) => return Ok(Value::Date(d + n)),
        (Value::Date(d), Value::Int(n), BinOp::Sub) => return Ok(Value::Date(d - n)),
        (Value::Date(a), Value::Date(b), BinOp::Sub) => return Ok(Value::Int(a - b)),
        (Value::Date(_), _, _) | (_, Value::Date(_), _) => {
            return Err(SqlError::type_mismatch(format!(
                "unsupported date arithmetic: {l} {op:?} {r}"
            )))
        }
        _ => {}
    }
    match (&l, &r) {
        (Value::Int(a), Value::Int(b)) => {
            let (a, b) = (*a, *b);
            match op {
                BinOp::Add => Ok(Value::Int(a.wrapping_add(b))),
                BinOp::Sub => Ok(Value::Int(a.wrapping_sub(b))),
                BinOp::Mul => Ok(Value::Int(a.wrapping_mul(b))),
                BinOp::Div => {
                    if b == 0 {
                        Err(SqlError::new(SqlCode::ARITHMETIC, "division by zero"))
                    } else {
                        Ok(Value::Int(a.wrapping_div(b)))
                    }
                }
                BinOp::Mod => {
                    if b == 0 {
                        Err(SqlError::new(SqlCode::ARITHMETIC, "division by zero"))
                    } else {
                        Ok(Value::Int(a.wrapping_rem(b)))
                    }
                }
                _ => unreachable!(),
            }
        }
        _ => {
            let a = to_f64(&l)?;
            let b = to_f64(&r)?;
            match op {
                BinOp::Add => Ok(Value::Double(a + b)),
                BinOp::Sub => Ok(Value::Double(a - b)),
                BinOp::Mul => Ok(Value::Double(a * b)),
                BinOp::Div => {
                    if b == 0.0 {
                        Err(SqlError::new(SqlCode::ARITHMETIC, "division by zero"))
                    } else {
                        Ok(Value::Double(a / b))
                    }
                }
                BinOp::Mod => {
                    if b == 0.0 {
                        Err(SqlError::new(SqlCode::ARITHMETIC, "division by zero"))
                    } else {
                        Ok(Value::Double(a % b))
                    }
                }
                _ => unreachable!(),
            }
        }
    }
}

fn to_f64(v: &Value) -> SqlResult<f64> {
    match v {
        Value::Int(i) => Ok(*i as f64),
        Value::Double(d) => Ok(*d),
        other => Err(SqlError::type_mismatch(format!("{other} is not numeric"))),
    }
}

fn to_text(v: &Value) -> SqlResult<&str> {
    match v {
        Value::Text(t) => Ok(t),
        other => Err(SqlError::type_mismatch(format!("{other} is not a string"))),
    }
}

/// Built-in scalar functions.
fn scalar_function(name: &str, mut args: Vec<Value>) -> SqlResult<Value> {
    let argc = args.len();
    let wrong_argc = |want: &str| {
        Err(SqlError::syntax(format!(
            "{name} expects {want} argument(s), got {argc}"
        )))
    };
    match name {
        "UPPER" | "UCASE" => {
            if argc != 1 {
                return wrong_argc("1");
            }
            let v = args.remove(0);
            if v.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Text(to_text(&v)?.to_uppercase()))
        }
        "LOWER" | "LCASE" => {
            if argc != 1 {
                return wrong_argc("1");
            }
            let v = args.remove(0);
            if v.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Text(to_text(&v)?.to_lowercase()))
        }
        "LENGTH" => {
            if argc != 1 {
                return wrong_argc("1");
            }
            let v = args.remove(0);
            if v.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Int(to_text(&v)?.chars().count() as i64))
        }
        "TRIM" => {
            if argc != 1 {
                return wrong_argc("1");
            }
            let v = args.remove(0);
            if v.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Text(to_text(&v)?.trim().to_owned()))
        }
        "LTRIM" | "RTRIM" => {
            if argc != 1 {
                return wrong_argc("1");
            }
            let v = args.remove(0);
            if v.is_null() {
                return Ok(Value::Null);
            }
            let t = to_text(&v)?;
            Ok(Value::Text(if name == "LTRIM" {
                t.trim_start().to_owned()
            } else {
                t.trim_end().to_owned()
            }))
        }
        "ABS" => {
            if argc != 1 {
                return wrong_argc("1");
            }
            match args.remove(0) {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
                Value::Double(d) => Ok(Value::Double(d.abs())),
                other => Err(SqlError::type_mismatch(format!("ABS of {other}"))),
            }
        }
        "ROUND" => {
            if argc != 1 && argc != 2 {
                return wrong_argc("1 or 2");
            }
            let places = if argc == 2 {
                match args.pop().unwrap() {
                    Value::Int(i) => i,
                    Value::Null => return Ok(Value::Null),
                    other => return Err(SqlError::type_mismatch(format!("ROUND places {other}"))),
                }
            } else {
                0
            };
            match args.remove(0) {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i)),
                Value::Double(d) => {
                    let f = 10f64.powi(places as i32);
                    Ok(Value::Double((d * f).round() / f))
                }
                other => Err(SqlError::type_mismatch(format!("ROUND of {other}"))),
            }
        }
        "MOD" => {
            if argc != 2 {
                return wrong_argc("2");
            }
            let b = args.pop().unwrap();
            let a = args.pop().unwrap();
            arithmetic(BinOp::Mod, a, b)
        }
        "COALESCE" | "VALUE" => {
            if argc == 0 {
                return wrong_argc("at least 1");
            }
            for v in args {
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        "NULLIF" => {
            if argc != 2 {
                return wrong_argc("2");
            }
            let b = args.pop().unwrap();
            let a = args.pop().unwrap();
            if a.sql_eq(&b) == Truth::True {
                Ok(Value::Null)
            } else {
                Ok(a)
            }
        }
        "SUBSTR" | "SUBSTRING" => {
            if argc != 2 && argc != 3 {
                return wrong_argc("2 or 3");
            }
            let len = if argc == 3 {
                match args.pop().unwrap() {
                    Value::Int(i) if i >= 0 => Some(i as usize),
                    Value::Null => return Ok(Value::Null),
                    other => return Err(SqlError::type_mismatch(format!("SUBSTR length {other}"))),
                }
            } else {
                None
            };
            let start = match args.pop().unwrap() {
                Value::Int(i) if i >= 1 => (i - 1) as usize,
                Value::Null => return Ok(Value::Null),
                other => return Err(SqlError::type_mismatch(format!("SUBSTR start {other}"))),
            };
            let v = args.remove(0);
            if v.is_null() {
                return Ok(Value::Null);
            }
            let chars: Vec<char> = to_text(&v)?.chars().collect();
            let end = match len {
                Some(l) => (start + l).min(chars.len()),
                None => chars.len(),
            };
            if start >= chars.len() {
                return Ok(Value::Text(String::new()));
            }
            Ok(Value::Text(chars[start..end].iter().collect()))
        }
        "CHAR" => {
            // DB2 CHAR(): render any value as text.
            if argc != 1 {
                return wrong_argc("1");
            }
            let v = args.remove(0);
            if v.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Text(v.to_display_string()))
        }
        "REPLACE" => {
            if argc != 3 {
                return wrong_argc("3");
            }
            let with = args.pop().unwrap();
            let from = args.pop().unwrap();
            let s = args.pop().unwrap();
            if s.is_null() || from.is_null() || with.is_null() {
                return Ok(Value::Null);
            }
            let needle = to_text(&from)?;
            if needle.is_empty() {
                return Ok(s); // DB2: empty search string leaves input unchanged
            }
            Ok(Value::Text(to_text(&s)?.replace(needle, to_text(&with)?)))
        }
        "POSITION" | "LOCATE" | "INSTR" => {
            // POSITION(needle, haystack): 1-based index, 0 when absent.
            if argc != 2 {
                return wrong_argc("2");
            }
            let hay = args.pop().unwrap();
            let needle = args.pop().unwrap();
            if hay.is_null() || needle.is_null() {
                return Ok(Value::Null);
            }
            let hay = to_text(&hay)?;
            let needle = to_text(&needle)?;
            Ok(Value::Int(match hay.find(needle) {
                Some(byte_at) => (hay[..byte_at].chars().count() + 1) as i64,
                None => 0,
            }))
        }
        "LEFT" | "RIGHT" => {
            if argc != 2 {
                return wrong_argc("2");
            }
            let n = match args.pop().unwrap() {
                Value::Int(i) if i >= 0 => i as usize,
                Value::Null => return Ok(Value::Null),
                other => return Err(SqlError::type_mismatch(format!("{name} length {other}"))),
            };
            let s = args.pop().unwrap();
            if s.is_null() {
                return Ok(Value::Null);
            }
            let chars: Vec<char> = to_text(&s)?.chars().collect();
            let n = n.min(chars.len());
            let slice = if name == "LEFT" {
                &chars[..n]
            } else {
                &chars[chars.len() - n..]
            };
            Ok(Value::Text(slice.iter().collect()))
        }
        "CONCAT" => {
            // Variadic CONCAT with SQL NULL propagation, like `||` chains.
            if argc == 0 {
                return wrong_argc("at least 1");
            }
            let mut out = String::new();
            for v in args {
                if v.is_null() {
                    return Ok(Value::Null);
                }
                out.push_str(&v.to_display_string());
            }
            Ok(Value::Text(out))
        }
        "YEAR" | "MONTH" | "DAY" => {
            if argc != 1 {
                return wrong_argc("1");
            }
            match args.remove(0) {
                Value::Null => Ok(Value::Null),
                Value::Date(days) => {
                    let (y, m, d) = crate::date::civil_from_days(days);
                    Ok(Value::Int(match name {
                        "YEAR" => i64::from(y),
                        "MONTH" => i64::from(m),
                        _ => i64::from(d),
                    }))
                }
                other => Err(SqlError::type_mismatch(format!("{name} of {other}"))),
            }
        }
        "SIGN" => {
            if argc != 1 {
                return wrong_argc("1");
            }
            match args.remove(0) {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i.signum())),
                Value::Double(d) => Ok(Value::Int(if d > 0.0 {
                    1
                } else if d < 0.0 {
                    -1
                } else {
                    0
                })),
                other => Err(SqlError::type_mismatch(format!("SIGN of {other}"))),
            }
        }
        "FLOOR" | "CEIL" | "CEILING" => {
            if argc != 1 {
                return wrong_argc("1");
            }
            match args.remove(0) {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(i)),
                Value::Double(d) => Ok(Value::Double(if name == "FLOOR" {
                    d.floor()
                } else {
                    d.ceil()
                })),
                other => Err(SqlError::type_mismatch(format!("{name} of {other}"))),
            }
        }
        other => Err(SqlError::syntax(format!("unknown function {other}"))),
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
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        eval(expr, &[], &[], &NoAggregates)
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval_str("2 + 3 * 4").unwrap(), Value::Int(14));
        assert_eq!(eval_str("(2 + 3) * 4").unwrap(), Value::Int(20));
        assert_eq!(eval_str("7 / 2").unwrap(), Value::Int(3));
        assert_eq!(eval_str("7.0 / 2").unwrap(), Value::Double(3.5));
        assert_eq!(eval_str("7 % 3").unwrap(), Value::Int(1));
        assert_eq!(eval_str("-5").unwrap(), Value::Int(-5));
    }

    #[test]
    fn division_by_zero_is_sqlcode_802() {
        let err = eval_str("1 / 0").unwrap_err();
        assert_eq!(err.code, SqlCode::ARITHMETIC);
        assert!(eval_str("1.5 / 0").is_err());
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval_str("NULL + 1").unwrap(), Value::Null);
        assert_eq!(eval_str("NULL || 'x'").unwrap(), Value::Null);
        assert_eq!(eval_str("UPPER(NULL)").unwrap(), Value::Null);
    }

    #[test]
    fn concat() {
        assert_eq!(
            eval_str("'foo' || 'bar'").unwrap(),
            Value::Text("foobar".into())
        );
        assert_eq!(eval_str("'n=' || 42").unwrap(), Value::Text("n=42".into()));
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
        assert_eq!(eval_str("2 BETWEEN 1 AND 3").unwrap(), Value::Int(1));
    }

    #[test]
    fn in_list_with_null_is_unknown_when_no_hit() {
        assert_eq!(eval_str("5 IN (1, NULL)").unwrap(), Value::Null);
        assert_eq!(eval_str("1 IN (1, NULL)").unwrap(), Value::Int(1));
    }

    #[test]
    fn string_functions() {
        assert_eq!(eval_str("UPPER('abc')").unwrap(), Value::Text("ABC".into()));
        assert_eq!(eval_str("LOWER('AbC')").unwrap(), Value::Text("abc".into()));
        assert_eq!(eval_str("LENGTH('héllo')").unwrap(), Value::Int(5));
        assert_eq!(
            eval_str("SUBSTR('hello', 2, 3)").unwrap(),
            Value::Text("ell".into())
        );
        assert_eq!(
            eval_str("SUBSTR('hello', 2)").unwrap(),
            Value::Text("ello".into())
        );
        assert_eq!(
            eval_str("SUBSTR('hi', 9)").unwrap(),
            Value::Text(String::new())
        );
        assert_eq!(eval_str("TRIM('  x ')").unwrap(), Value::Text("x".into()));
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(eval_str("ABS(-3)").unwrap(), Value::Int(3));
        assert_eq!(eval_str("ROUND(2.567, 2)").unwrap(), Value::Double(2.57));
        assert_eq!(eval_str("MOD(10, 3)").unwrap(), Value::Int(1));
        assert_eq!(eval_str("COALESCE(NULL, NULL, 7)").unwrap(), Value::Int(7));
        assert_eq!(eval_str("NULLIF(3, 3)").unwrap(), Value::Null);
        assert_eq!(eval_str("NULLIF(3, 4)").unwrap(), Value::Int(3));
    }

    #[test]
    fn unknown_function_rejected() {
        assert!(eval_str("FROBNICATE(1)").is_err());
    }

    #[test]
    fn bindings_resolution() {
        let mut b = Bindings::default();
        b.push_table("a", vec!["id".into(), "x".into()]);
        b.push_table("b", vec!["id".into(), "y".into()]);
        assert_eq!(b.resolve(&ColumnRef::bare("x")).unwrap(), 1);
        assert_eq!(b.resolve(&ColumnRef::bare("y")).unwrap(), 3);
        // Ambiguous unqualified id:
        assert!(b.resolve(&ColumnRef::bare("id")).is_err());
        // Qualified works:
        assert_eq!(
            b.resolve(&ColumnRef {
                table: Some("b".into()),
                column: "ID".into(),
                slot: None,
            })
            .unwrap(),
            2
        );
        assert_eq!(b.table_span("b"), Some((2, 4)));
        assert_eq!(b.width(), 4);
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
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        let v = eval(expr, &[], &[Value::Int(40), Value::Int(2)], &NoAggregates).unwrap();
        assert_eq!(v, Value::Int(42));
        assert!(eval(expr, &[], &[], &NoAggregates).is_err());
    }
}
