//! SQL value model with three-valued logic.
//!
//! Values follow SQL-92 semantics: `NULL` compares as *unknown*, numeric
//! types coerce (`INTEGER` widens to `DOUBLE`), and text comparisons are
//! byte-wise (the 1996 system punted collations to DB2; we punt them to
//! `str::cmp`).

use crate::error::{SqlError, SqlResult};
use std::cmp::Ordering;
use std::fmt;

/// Declared type of a table column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    /// 64-bit signed integer (`INTEGER`, `INT`, `SMALLINT`, `BIGINT`).
    Integer,
    /// 64-bit IEEE float (`DOUBLE`, `FLOAT`, `REAL`, `DECIMAL`).
    Double,
    /// Variable-length character data (`VARCHAR(n)`, `CHAR(n)`, `TEXT`).
    Varchar,
    /// Calendar date (`DATE`), stored as days since 1970-01-01.
    Date,
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlType::Integer => write!(f, "INTEGER"),
            SqlType::Double => write!(f, "DOUBLE"),
            SqlType::Varchar => write!(f, "VARCHAR"),
            SqlType::Date => write!(f, "DATE"),
        }
    }
}

/// A runtime SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Double-precision value.
    Double(f64),
    /// Character string.
    Text(String),
    /// Calendar date, days since 1970-01-01.
    Date(i64),
}

/// Result of a three-valued-logic predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// Definitely true.
    True,
    /// Definitely false.
    False,
    /// NULL was involved; SQL "unknown".
    Unknown,
}

impl Truth {
    /// From a Rust bool.
    pub fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// Three-valued AND.
    pub fn and(self, rhs: Truth) -> Truth {
        match (self, rhs) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    /// Three-valued OR.
    pub fn or(self, rhs: Truth) -> Truth {
        match (self, rhs) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }

    /// Three-valued NOT.
    #[allow(clippy::should_implement_trait)] // 3VL NOT, deliberately named like SQL
    pub fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// WHERE-clause acceptance: only `True` passes (unknown filters out).
    pub fn passes(self) -> bool {
        self == Truth::True
    }
}

impl Value {
    /// Whether this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The type this value would report, if non-null.
    pub fn sql_type(&self) -> Option<SqlType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(SqlType::Integer),
            Value::Double(_) => Some(SqlType::Double),
            Value::Text(_) => Some(SqlType::Varchar),
            Value::Date(_) => Some(SqlType::Date),
        }
    }

    /// Coerce for storage into a column of type `ty`.
    ///
    /// Integer widens to double; an integral double narrows to integer;
    /// anything else mismatching is an error. NULL stores as NULL (the NOT
    /// NULL check happens at the schema layer).
    pub fn coerce_to(self, ty: SqlType) -> SqlResult<Value> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (v @ Value::Int(_), SqlType::Integer) => Ok(v),
            (v @ Value::Double(_), SqlType::Double) => Ok(v),
            (v @ Value::Text(_), SqlType::Varchar) => Ok(v),
            (Value::Int(i), SqlType::Double) => Ok(Value::Double(i as f64)),
            (Value::Double(d), SqlType::Integer) if d.fract() == 0.0 => Ok(Value::Int(d as i64)),
            (v @ Value::Date(_), SqlType::Date) => Ok(v),
            // DB2 accepted string literals for DATE columns.
            (Value::Text(t), SqlType::Date) => {
                crate::date::parse_date(&t).map(Value::Date).ok_or_else(|| {
                    SqlError::type_mismatch(format!("'{t}' is not a DATE (want YYYY-MM-DD)"))
                })
            }
            (other, ty) => Err(SqlError::type_mismatch(format!(
                "cannot store {other} into {ty} column"
            ))),
        }
    }

    /// SQL equality (`=`): NULL yields unknown.
    pub fn sql_eq(&self, rhs: &Value) -> Truth {
        match self.compare(rhs) {
            None => Truth::Unknown,
            Some(ord) => Truth::from_bool(ord == Ordering::Equal),
        }
    }

    /// Compare two values, `None` if either is NULL or types are incomparable.
    ///
    /// Numeric types compare cross-type; text compares byte-wise. A number
    /// never compares to text (DB2 would raise -401; for ordering purposes we
    /// treat it as incomparable and let the caller decide).
    pub fn compare(&self, rhs: &Value) -> Option<Ordering> {
        match (self, rhs) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Double(b)) => (*a as f64).partial_cmp(b),
            (Value::Double(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Double(a), Value::Double(b)) => a.partial_cmp(b),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used by ORDER BY and B-tree indexes: NULLs sort first
    /// (DB2 sorts NULL high; ANSI leaves it implementation-defined — we pick
    /// NULLs-first and document it), numbers before text.
    pub fn order_key(&self, rhs: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) | Value::Double(_) => 1,
                Value::Date(_) => 2,
                Value::Text(_) => 3,
            }
        }
        match (self, rhs) {
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => match self.compare(rhs) {
                Some(ord) => ord,
                None => rank(self).cmp(&rank(rhs)),
            },
        }
    }

    /// Render the value the way the gateway prints it into reports: NULL
    /// becomes the empty string (the paper equates NULL and ""), numbers in
    /// their canonical text form.
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(i) => i.to_string(),
            Value::Double(d) => format_double(*d),
            Value::Text(t) => t.clone(),
            Value::Date(d) => crate::date::format_date(*d),
        }
    }

    /// [`Value::to_display_string`], borrowed when the value is already text.
    pub fn as_text(&self) -> std::borrow::Cow<'_, str> {
        match self {
            Value::Text(t) => std::borrow::Cow::Borrowed(t),
            other => std::borrow::Cow::Owned(other.to_display_string()),
        }
    }
}

/// Format a double the way DB2's CHAR() did, without trailing `.0` noise for
/// integral values that arrived through floating arithmetic.
fn format_double(d: f64) -> String {
    if d.fract() == 0.0 && d.abs() < 1e15 {
        format!("{d:.1}")
    } else {
        format!("{d}")
    }
}

impl PartialEq for Value {
    /// Structural equality used by tests and hash-index keys. Unlike
    /// [`Value::sql_eq`], NULL equals NULL here.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (Value::Int(a), Value::Double(b)) | (Value::Double(b), Value::Int(a)) => {
                *b == *a as f64
            }
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            // Int and integral Double must hash alike because they are equal.
            Value::Int(i) => {
                1u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Double(d) => {
                1u8.hash(state);
                d.to_bits().hash(state);
            }
            Value::Text(t) => {
                2u8.hash(state);
                t.hash(state);
            }
            Value::Date(d) => {
                3u8.hash(state);
                d.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => write!(f, "{}", format_double(*d)),
            Value::Text(t) => write!(f, "'{t}'"),
            Value::Date(d) => write!(f, "DATE '{}'", crate::date::format_date(*d)),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_valued_logic_tables() {
        use Truth::*;
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(False.and(Unknown), False);
        assert_eq!(True.or(Unknown), True);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.not(), Unknown);
        assert!(!Unknown.passes());
    }

    #[test]
    fn null_comparisons_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), Truth::Unknown);
        assert_eq!(Value::Null.sql_eq(&Value::Null), Truth::Unknown);
    }

    #[test]
    fn cross_numeric_compare() {
        assert_eq!(
            Value::Int(2).compare(&Value::Double(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Double(1.5).compare(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn text_number_incomparable() {
        assert_eq!(Value::Int(1).compare(&Value::Text("1".into())), None);
    }

    #[test]
    fn order_key_nulls_first_numbers_before_text() {
        let mut vals = vec![
            Value::Text("a".into()),
            Value::Int(3),
            Value::Null,
            Value::Double(1.5),
        ];
        vals.sort_by(|a, b| a.order_key(b));
        assert_eq!(
            vals,
            vec![
                Value::Null,
                Value::Double(1.5),
                Value::Int(3),
                Value::Text("a".into())
            ]
        );
    }

    #[test]
    fn coercion_rules() {
        assert_eq!(
            Value::Int(3).coerce_to(SqlType::Double).unwrap(),
            Value::Double(3.0)
        );
        assert_eq!(
            Value::Double(4.0).coerce_to(SqlType::Integer).unwrap(),
            Value::Int(4)
        );
        assert!(Value::Double(4.5).coerce_to(SqlType::Integer).is_err());
        assert!(Value::Text("x".into()).coerce_to(SqlType::Integer).is_err());
        assert!(Value::Null.coerce_to(SqlType::Integer).is_ok());
    }

    #[test]
    fn display_string_for_reports() {
        assert_eq!(Value::Null.to_display_string(), "");
        assert_eq!(Value::Int(42).to_display_string(), "42");
        assert_eq!(Value::Double(2.0).to_display_string(), "2.0");
        assert_eq!(Value::Double(2.25).to_display_string(), "2.25");
        assert_eq!(Value::Text("x".into()).to_display_string(), "x");
    }

    #[test]
    fn int_and_integral_double_hash_alike() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |v: &Value| {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(Value::Int(7), Value::Double(7.0));
        assert_eq!(h(&Value::Int(7)), h(&Value::Double(7.0)));
    }
}
