//! SQL value model with three-valued logic.
//!
//! Values follow SQL-92 semantics: `NULL` compares as *unknown*, numeric
//! types coerce (`INTEGER` widens to `DOUBLE`), and text comparisons are
//! byte-wise (the 1996 system punted collations to DB2; we punt them to
//! `str::cmp`).

use crate::error::{SqlError, SqlResult};
use std::borrow::Cow;
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
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlType::Integer => write!(f, "INTEGER"),
            SqlType::Double => write!(f, "DOUBLE"),
            SqlType::Varchar => write!(f, "VARCHAR"),
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
            (other, ty) => Err(SqlError::type_mismatch(format!(
                "cannot store {other} into {ty} column"
            ))),
        }
    }

    /// The borrowed form every comparison and stored cell works on.
    pub fn view(&self) -> ValueRef<'_> {
        match self {
            Value::Null => ValueRef::Null,
            Value::Int(i) => ValueRef::Int(*i),
            Value::Double(d) => ValueRef::Double(*d),
            Value::Text(t) => ValueRef::Text(t),
        }
    }

    /// SQL equality (`=`): NULL yields unknown.
    pub fn sql_eq(&self, rhs: &Value) -> Truth {
        self.view().sql_eq(rhs.view())
    }

    /// [`ValueRef::compare`].
    pub fn compare(&self, rhs: &Value) -> Option<Ordering> {
        self.view().compare(rhs.view())
    }

    /// [`ValueRef::order_key`].
    pub fn order_key(&self, rhs: &Value) -> Ordering {
        self.view().order_key(rhs.view())
    }

    /// Render the value the way the gateway prints it into reports: NULL
    /// becomes the empty string (the paper equates NULL and ""), numbers in
    /// their canonical text form.
    pub fn to_display_string(&self) -> String {
        let mut out = String::new();
        self.write_display(&mut out);
        out
    }

    /// Append [`Value::to_display_string`]'s text to `out`; allocates only
    /// when `out` has to grow.
    pub fn write_display(&self, out: &mut String) {
        self.view().write_display(out)
    }

    /// [`Value::to_display_string`], borrowed when the value is already text.
    pub fn as_text(&self) -> Cow<'_, str> {
        self.view().as_text()
    }
}

// The number-to-text kernel. Every INTEGER and DOUBLE that a report, a LIKE
// or a `Display` shows becomes text here, byte for byte what `{i}`, `{d}`
// and `{d:.1}` print, without going through `core::fmt` on the common path.

/// Room for the digits of any `u64`.
const NUM_BUF: usize = 20;

/// 2^32: the DOUBLE fast path takes magnitudes below it, where an ulp is at
/// most 2^-20, far below the 10^-4 spacing of the decimals it prints.
const TWO_POW_32: f64 = 4_294_967_296.0;

/// Write `n`'s decimal digits so that they end just before `buf[end]`, zero
/// padded to at least `width` digits; returns the index of the first.
fn put_digits(buf: &mut [u8; NUM_BUF], mut end: usize, mut n: u64, width: usize) -> usize {
    let stop = end - width;
    loop {
        end -= 1;
        buf[end] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 && end <= stop {
            return end;
        }
    }
}

/// Hand `digits` to `out`, after a `-` when `negative`. They are ASCII, so
/// each byte is one `char`; writing them one by one costs less than
/// checking them as UTF-8 for a single `write_str`.
fn emit(digits: &[u8], negative: bool, out: &mut impl fmt::Write) -> fmt::Result {
    if negative {
        out.write_char('-')?;
    }
    digits
        .iter()
        .try_for_each(|&b| out.write_char(char::from(b)))
}

/// An INTEGER's text, as `{i}` prints it.
fn write_int(i: i64, out: &mut impl fmt::Write) -> fmt::Result {
    let mut buf = [0; NUM_BUF];
    let start = put_digits(&mut buf, NUM_BUF, i.unsigned_abs(), 1);
    emit(&buf[start..], i < 0, out)
}

/// `|d|·10^4` as a whole number `m`, when `|d| < 2^32` and `m / 10^4`
/// reads back as `|d|` exactly: `|d|` has at most four fractional digits.
/// `None` for everything else, NaN and the infinities included.
///
/// `m` and `10^4` are exact and division is correctly rounded, so the `==`
/// is the parser's round trip. Decimals with at most four fractional
/// digits are `10^-4` or more apart, and every decimal that reads back as
/// `|d|` lies within one ulp (at most `2^-20` here) of it, so `m / 10^4` is
/// the one such decimal that does: with its trailing zeros dropped it is
/// `m' / 10^k` for the smallest `k` that reads back, the shortest digits
/// that `{d}` prints.
fn scaled_decimal(d: f64) -> Option<u64> {
    let abs = d.abs();
    // NaN passes this test but then reads back as nothing.
    if abs >= TWO_POW_32 {
        return None;
    }
    // Rounds to nearest without a libm call. `|d|·10^4` lies within a hair
    // of a whole `m` that reads back, so this finds it; any other `m` fails
    // the check. It is below 2^46, so `i64` holds it exactly.
    let m = (abs * 10_000.0 + 0.5) as i64;
    (m as f64 / 10_000.0 == abs).then_some(m as u64)
}

/// A DOUBLE's text, the way DB2's CHAR() did it: the shortest digits that
/// read back as `d`, with `.0` after an integral value below 10^15.
fn write_double(d: f64, out: &mut impl fmt::Write) -> fmt::Result {
    let Some(m) = scaled_decimal(d) else {
        return if d.fract() == 0.0 && d.abs() < 1e15 {
            write!(out, "{d:.1}")
        } else {
            write!(out, "{d}")
        };
    };
    // Drop trailing zeros, keeping one fractional digit: an integral value
    // prints `.0`.
    let (whole, mut frac, mut width) = (m / 10_000, m % 10_000, 4);
    while width > 1 && frac % 10 == 0 {
        frac /= 10;
        width -= 1;
    }
    let mut buf = [0; NUM_BUF];
    let point = put_digits(&mut buf, NUM_BUF, frac, width) - 1;
    buf[point] = b'.';
    let start = put_digits(&mut buf, point, whole, 1);
    emit(&buf[start..], d.is_sign_negative(), out)
}

impl PartialEq for Value {
    /// [`ValueRef`]'s equality: NULL equals NULL here, unlike
    /// [`Value::sql_eq`].
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.view().fmt(f)
    }
}

/// A value borrowed from where it lives — a stored row's cell, a literal,
/// a parameter — with text as a `&str`. It is `Copy`, so a scan reads a
/// column without allocating, and it carries the one comparison and
/// equality that [`Value`] delegates to.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    /// SQL NULL.
    Null,
    /// Integer value.
    Int(i64),
    /// Double-precision value.
    Double(f64),
    /// Character string.
    Text(&'a str),
}

/// 2^63 as a double: the doubles at or above it exceed every `i64`, and
/// those below its negation fall under every `i64`.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// The one numeric comparison across types: `a` against `b` exactly, with no
/// rounding of `a` through `f64`; `None` when `b` is NaN.
fn compare_int_double(a: i64, b: f64) -> Option<Ordering> {
    if b.is_nan() {
        return None;
    }
    if b >= TWO_POW_63 {
        return Some(Ordering::Less);
    }
    if b < -TWO_POW_63 {
        return Some(Ordering::Greater);
    }
    // |b| < 2^63, so its integral part converts exactly; ties go to the
    // fraction, whose sign is b's.
    let whole = b.trunc();
    Some(a.cmp(&(whole as i64)).then_with(|| {
        0.0_f64
            .partial_cmp(&(b - whole))
            .expect("a finite fraction")
    }))
}

impl<'a> ValueRef<'a> {
    /// Whether this value is NULL.
    pub fn is_null(self) -> bool {
        matches!(self, ValueRef::Null)
    }

    /// An owned copy.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Null => Value::Null,
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Double(d) => Value::Double(d),
            ValueRef::Text(t) => Value::Text(t.to_owned()),
        }
    }

    /// SQL equality (`=`): NULL yields unknown.
    pub fn sql_eq(self, rhs: ValueRef<'_>) -> Truth {
        match self.compare(rhs) {
            None => Truth::Unknown,
            Some(ord) => Truth::from_bool(ord == Ordering::Equal),
        }
    }

    /// Compare two values, `None` if either is NULL or types are incomparable.
    ///
    /// Numbers compare exactly across types — an `Int` is never rounded
    /// through `f64`, so `9007199254740993` is greater than
    /// `9007199254740992.0` — and `-0.0` equals `0.0`; text compares
    /// byte-wise. A number never compares to text (DB2 would raise -401; for
    /// ordering purposes we treat it as incomparable and let the caller
    /// decide).
    pub fn compare(self, rhs: ValueRef<'_>) -> Option<Ordering> {
        match (self, rhs) {
            (ValueRef::Null, _) | (_, ValueRef::Null) => None,
            (ValueRef::Int(a), ValueRef::Int(b)) => Some(a.cmp(&b)),
            (ValueRef::Int(a), ValueRef::Double(b)) => compare_int_double(a, b),
            (ValueRef::Double(a), ValueRef::Int(b)) => {
                compare_int_double(b, a).map(Ordering::reverse)
            }
            (ValueRef::Double(a), ValueRef::Double(b)) => a.partial_cmp(&b),
            (ValueRef::Text(a), ValueRef::Text(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used by ORDER BY and B-tree indexes: NULLs sort first
    /// (DB2 sorts NULL high; ANSI leaves it implementation-defined — we pick
    /// NULLs-first and document it), numbers before text.
    pub fn order_key(self, rhs: ValueRef<'_>) -> Ordering {
        fn rank(v: ValueRef<'_>) -> u8 {
            match v {
                ValueRef::Null => 0,
                ValueRef::Int(_) | ValueRef::Double(_) => 1,
                ValueRef::Text(_) => 2,
            }
        }
        match (self, rhs) {
            (ValueRef::Null, ValueRef::Null) => Ordering::Equal,
            _ => match self.compare(rhs) {
                Some(ord) => ord,
                None => rank(self).cmp(&rank(rhs)),
            },
        }
    }

    /// The representative an index stores for this key: `-0.0` becomes
    /// `0.0`, the zero it equals.
    pub(crate) fn canonical(self) -> ValueRef<'a> {
        match self {
            ValueRef::Double(0.0) => ValueRef::Double(0.0),
            other => other,
        }
    }

    /// Append the value's report text (see [`Value::to_display_string`]) to
    /// `out`; allocates only when `out` has to grow.
    pub fn write_display(self, out: &mut String) {
        use fmt::Write;
        let _ = match self {
            ValueRef::Null => Ok(()),
            ValueRef::Int(i) => write_int(i, out),
            ValueRef::Double(d) => write_double(d, out),
            ValueRef::Text(t) => out.write_str(t),
        };
    }

    /// The value's report text, borrowed when it is already text.
    pub fn as_text(self) -> Cow<'a, str> {
        match self {
            ValueRef::Text(t) => Cow::Borrowed(t),
            other => {
                let mut out = String::new();
                other.write_display(&mut out);
                Cow::Owned(out)
            }
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        v.view()
    }
}

impl PartialEq for ValueRef<'_> {
    /// Structural equality used by index maintenance and result
    /// comparisons: [`ValueRef::compare`]'s `Equal`, except that NULL equals
    /// NULL and NaN equals NaN, so that this is an equivalence.
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (ValueRef::Null, ValueRef::Null) => true,
            (ValueRef::Double(a), ValueRef::Double(b)) if a.is_nan() && b.is_nan() => true,
            (a, b) => a.compare(b).is_some_and(Ordering::is_eq),
        }
    }
}

impl Eq for ValueRef<'_> {}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ValueRef::Null => write!(f, "NULL"),
            ValueRef::Int(i) => write_int(i, f),
            ValueRef::Double(d) => write_double(d, f),
            ValueRef::Text(t) => write!(f, "'{t}'"),
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
    use dbgw_testkit::gen::{any_i64, ints, usizes};
    use dbgw_testkit::{prop_assert_eq, props};

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
    fn numbers_compare_exactly_across_types() {
        let two_53 = 9_007_199_254_740_992_i64;
        let (i, d) = (ValueRef::Int(two_53 + 1), ValueRef::Double(two_53 as f64));
        assert_eq!(i.compare(d), Some(Ordering::Greater));
        assert_eq!(d.compare(i), Some(Ordering::Less));
        assert_ne!(i, d);
        assert_eq!(ValueRef::Int(two_53), d);
        let (max, edge) = (ValueRef::Int(i64::MAX), ValueRef::Double(TWO_POW_63));
        assert_eq!(max.compare(edge), Some(Ordering::Less));
        let min = ValueRef::Int(i64::MIN);
        assert_eq!(
            min.compare(ValueRef::Double(-TWO_POW_63)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            min.compare(ValueRef::Double(f64::NEG_INFINITY)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            ValueRef::Int(-3).compare(ValueRef::Double(-2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            ValueRef::Int(2).compare(ValueRef::Double(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(ValueRef::Int(1).compare(ValueRef::Double(f64::NAN)), None);
    }

    #[test]
    fn zeros_are_one_value_and_nan_equals_nan() {
        let zeros = [
            ValueRef::Int(0),
            ValueRef::Double(0.0),
            ValueRef::Double(-0.0),
        ];
        for z in zeros {
            assert_eq!(z, zeros[0]);
        }
        assert_eq!(ValueRef::Double(f64::NAN), ValueRef::Double(-f64::NAN));
        assert_eq!(
            ValueRef::Double(-0.0).canonical().to_value().to_string(),
            "0.0"
        );
        assert_eq!(Value::Double(-0.0), Value::Int(0));
    }

    #[test]
    fn int_equals_integral_double() {
        assert_eq!(Value::Int(7), Value::Double(7.0));
    }

    /// The formatting the kernel replaced, through `core::fmt`: the oracle
    /// that [`ValueRef::write_display`] and `Display` must match byte for
    /// byte.
    fn fmt_number(v: ValueRef<'_>) -> String {
        match v {
            ValueRef::Int(i) => format!("{i}"),
            ValueRef::Double(d) if d.fract() == 0.0 && d.abs() < 1e15 => format!("{d:.1}"),
            ValueRef::Double(d) => format!("{d}"),
            other => unreachable!("{other:?} is not a number"),
        }
    }

    /// Both of a number's texts agree with [`fmt_number`].
    fn display_agrees(v: ValueRef<'_>) -> Result<(), String> {
        let want = fmt_number(v);
        let mut report = String::from("<td>");
        v.write_display(&mut report);
        prop_assert_eq!(report, format!("<td>{want}"), "write_display of {v:?}");
        prop_assert_eq!(v.to_string(), want, "Display of {v:?}");
        Ok(())
    }

    /// `d` and up to `ulps` of its neighbours on each side, both signs.
    fn neighbours_agree(d: f64, ulps: usize) -> Result<(), String> {
        for start in [d, -d] {
            let (mut up, mut down) = (start, start);
            display_agrees(ValueRef::Double(start))?;
            for _ in 0..ulps {
                (up, down) = (up.next_up(), down.next_down());
                display_agrees(ValueRef::Double(up))?;
                display_agrees(ValueRef::Double(down))?;
            }
        }
        Ok(())
    }

    /// `m / 10^k`, the way a parsed literal arrives.
    fn decimal(m: i64, k: usize) -> f64 {
        m as f64 / 10f64.powi(k as i32)
    }

    #[test]
    fn display_of_signed_zeros() {
        assert_eq!(Value::Double(0.0).to_display_string(), "0.0");
        assert_eq!(Value::Double(-0.0).to_display_string(), "-0.0");
        neighbours_agree(0.0, 3).unwrap();
    }

    #[test]
    fn display_of_subnormals() {
        for d in [
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
        ] {
            neighbours_agree(d, 2).unwrap();
        }
    }

    #[test]
    fn display_of_nan_and_infinities() {
        assert_eq!(Value::Double(f64::NAN).to_display_string(), "NaN");
        assert_eq!(Value::Double(f64::INFINITY).to_display_string(), "inf");
        assert_eq!(Value::Double(f64::NEG_INFINITY).to_string(), "-inf");
        for d in [f64::NAN, -f64::NAN, f64::INFINITY, f64::MAX] {
            neighbours_agree(d, 2).unwrap();
        }
    }

    #[test]
    fn display_of_integer_extremes() {
        assert_eq!(Value::Int(i64::MIN).to_string(), "-9223372036854775808");
        for i in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX] {
            display_agrees(ValueRef::Int(i)).unwrap();
        }
    }

    #[test]
    fn display_next_to_the_fast_domain_edges() {
        assert_eq!(
            Value::Double(4294967295.5).to_display_string(),
            "4294967295.5"
        );
        assert_eq!(Value::Double(0.0001).to_display_string(), "0.0001");
        neighbours_agree(TWO_POW_32, 3).unwrap();
        neighbours_agree(1e15, 3).unwrap();
        for k in 0..=8 {
            neighbours_agree(0.5 * 10f64.powi(-k), 3).unwrap();
        }
    }

    props! {
        config(cases = 256);

        /// Any bit pattern, read as a DOUBLE and as an INTEGER.
        fn display_matches_fmt_on_random_bits(bits in any_i64()) {
            display_agrees(ValueRef::Double(f64::from_bits(bits as u64)))?;
            display_agrees(ValueRef::Int(bits))?;
        }

        /// Short decimals `m / 10^k`, `m` shifted below and above 2^53, and
        /// their nearest neighbours.
        fn display_matches_fmt_on_short_decimals(
            m in any_i64(),
            shift in usizes(0..64),
            k in usizes(0..9),
        ) {
            neighbours_agree(decimal(m >> shift, k), 1)?;
        }

        /// Cents, the shape of a `price` column.
        fn display_matches_fmt_on_cents(cents in ints(-100_000_000..100_000_000)) {
            neighbours_agree(decimal(cents, 2), 1)?;
        }
    }
}
