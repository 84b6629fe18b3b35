//! SQL lexer.
//!
//! Tokenizes the SQL-92 subset the gateway generates: identifiers (optionally
//! `"quoted"`), single-quoted string literals with `''` escaping, numeric
//! literals, operators and punctuation. Keywords are recognized case-
//! insensitively but identifiers preserve their spelling (matching is
//! case-insensitive at the schema layer, as in DB2).
//!
//! `Scanner` is the only code that decides where a literal, quoted
//! identifier, number or comment begins and ends. It yields each lexeme's
//! class and byte span without allocating; [`tokenize`] decodes the spans
//! into the parser's [`Token`]s and [`digest_sql`] turns them into a
//! statement's literal-masked shape.

use crate::error::{SqlError, SqlResult};
use std::fmt;

/// A lexical token with its source offset (for error messages).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Byte offset in the original SQL text.
    pub offset: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are detected by the parser).
    Ident(String),
    /// `"quoted identifier"` — never a keyword.
    QuotedIdent(String),
    /// String literal, quotes stripped and `''` unescaped.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Num(f64),
    /// `?` positional parameter marker.
    Param,
    /// Punctuation / operator.
    Sym(Sym),
}

/// Operator and punctuation symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `;`
    Semi,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `||` string concatenation
    Concat,
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Sym::LParen => "(",
            Sym::RParen => ")",
            Sym::Comma => ",",
            Sym::Dot => ".",
            Sym::Semi => ";",
            Sym::Star => "*",
            Sym::Plus => "+",
            Sym::Minus => "-",
            Sym::Slash => "/",
            Sym::Percent => "%",
            Sym::Eq => "=",
            Sym::Ne => "<>",
            Sym::Lt => "<",
            Sym::Le => "<=",
            Sym::Gt => ">",
            Sym::Ge => ">=",
            Sym::Concat => "||",
        };
        write!(f, "{s}")
    }
}

/// What a lexeme is. Its text is its span of the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lex {
    /// Identifier or keyword.
    Ident,
    /// `"quoted identifier"`, quotes included in the span.
    QuotedIdent,
    /// `'string literal'`, quotes and `''` escapes included in the span.
    Str,
    /// Numeric literal; `float` when it has a fraction or an exponent.
    Number { float: bool },
    /// `?` positional parameter marker.
    Param,
    /// Punctuation / operator.
    Sym(Sym),
}

/// One lexeme: its class and its byte span `start..end` of the source.
struct Lexeme {
    lex: Lex,
    start: usize,
    end: usize,
}

/// Why the scanner stopped; each variant carries the byte offset where the
/// unlexable text begins.
#[derive(Debug, Clone, Copy)]
enum LexError {
    /// A character that starts no lexeme.
    Unexpected(usize),
    /// A `'` with no closing quote.
    UnterminatedString(usize),
    /// A `"` with no closing quote.
    UnterminatedIdent(usize),
}

impl LexError {
    fn offset(self) -> usize {
        match self {
            LexError::Unexpected(at)
            | LexError::UnterminatedString(at)
            | LexError::UnterminatedIdent(at) => at,
        }
    }

    fn into_sql_error(self, sql: &str) -> SqlError {
        SqlError::syntax(match self {
            LexError::Unexpected(at) => format!(
                "unexpected character {:?} at byte {at}",
                sql[at..].chars().next().unwrap_or('?')
            ),
            LexError::UnterminatedString(at) => {
                format!("unterminated string literal starting at byte {at}")
            }
            LexError::UnterminatedIdent(at) => {
                format!("unterminated quoted identifier at byte {at}")
            }
        })
    }
}

/// The lexer proper: yields each lexeme of `sql` in order, skipping
/// whitespace (space, tab, CR, LF) and `--` line comments, and stops after
/// the first [`LexError`]. Every span ends on a character boundary.
struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(sql: &'a str) -> Scanner<'a> {
        Scanner {
            bytes: sql.as_bytes(),
            pos: 0,
        }
    }

    /// The lexeme starting at `start` (not whitespace), as `(class, end)`.
    fn lexeme(&self, start: usize) -> Result<(Lex, usize), LexError> {
        let bytes = self.bytes;
        let next = bytes.get(start + 1).copied();
        match bytes[start] {
            b'\'' => {
                let mut i = start + 1;
                loop {
                    match bytes.get(i) {
                        None => return Err(LexError::UnterminatedString(start)),
                        Some(b'\'') if bytes.get(i + 1) == Some(&b'\'') => i += 2,
                        Some(b'\'') => return Ok((Lex::Str, i + 1)),
                        Some(_) => i += 1,
                    }
                }
            }
            b'"' => match bytes[start + 1..].iter().position(|&c| c == b'"') {
                Some(n) => Ok((Lex::QuotedIdent, start + n + 2)),
                None => Err(LexError::UnterminatedIdent(start)),
            },
            b'0'..=b'9' => Ok(self.number(start)),
            b'.' if next.is_some_and(|c| c.is_ascii_digit()) => Ok(self.number(start)),
            b if b.is_ascii_alphabetic() || b == b'_' => {
                let len = bytes[start + 1..]
                    .iter()
                    .position(|&c| !(c.is_ascii_alphanumeric() || c == b'_' || c == b'$'))
                    .unwrap_or(bytes.len() - start - 1);
                Ok((Lex::Ident, start + 1 + len))
            }
            b'?' => Ok((Lex::Param, start + 1)),
            b => {
                let (sym, len) = match (b, next) {
                    (b'<', Some(b'=')) => (Sym::Le, 2),
                    (b'<', Some(b'>')) => (Sym::Ne, 2),
                    (b'>', Some(b'=')) => (Sym::Ge, 2),
                    (b'!', Some(b'=')) => (Sym::Ne, 2),
                    (b'|', Some(b'|')) => (Sym::Concat, 2),
                    (b'(', _) => (Sym::LParen, 1),
                    (b')', _) => (Sym::RParen, 1),
                    (b',', _) => (Sym::Comma, 1),
                    (b'.', _) => (Sym::Dot, 1),
                    (b';', _) => (Sym::Semi, 1),
                    (b'*', _) => (Sym::Star, 1),
                    (b'+', _) => (Sym::Plus, 1),
                    (b'-', _) => (Sym::Minus, 1),
                    (b'/', _) => (Sym::Slash, 1),
                    (b'%', _) => (Sym::Percent, 1),
                    (b'=', _) => (Sym::Eq, 1),
                    (b'<', _) => (Sym::Lt, 1),
                    (b'>', _) => (Sym::Gt, 1),
                    _ => return Err(LexError::Unexpected(start)),
                };
                Ok((Lex::Sym(sym), start + len))
            }
        }
    }

    /// A numeric literal: digits, at most one fraction, then at most one
    /// exponent. A `.` not followed by a digit ends the number.
    fn number(&self, start: usize) -> (Lex, usize) {
        let bytes = self.bytes;
        let digit_at = |i: usize| bytes.get(i).is_some_and(u8::is_ascii_digit);
        let mut i = start;
        let mut saw_dot = false;
        let mut saw_exp = false;
        while let Some(&b) = bytes.get(i) {
            match b {
                b'0'..=b'9' => i += 1,
                b'.' if !saw_dot && !saw_exp && digit_at(i + 1) => {
                    saw_dot = true;
                    i += 1;
                }
                b'e' | b'E' if !saw_exp => {
                    let sign = usize::from(matches!(bytes.get(i + 1), Some(b'+' | b'-')));
                    if !digit_at(i + 1 + sign) {
                        break;
                    }
                    saw_exp = true;
                    i += 1 + sign;
                }
                _ => break,
            }
        }
        (
            Lex::Number {
                float: saw_dot || saw_exp,
            },
            i,
        )
    }
}

impl Iterator for Scanner<'_> {
    type Item = Result<Lexeme, LexError>;

    fn next(&mut self) -> Option<Self::Item> {
        let bytes = self.bytes;
        loop {
            match bytes.get(self.pos)? {
                b' ' | b'\t' | b'\r' | b'\n' => self.pos += 1,
                b'-' if bytes.get(self.pos + 1) == Some(&b'-') => {
                    self.pos = bytes[self.pos..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(bytes.len(), |n| self.pos + n);
                }
                _ => break,
            }
        }
        let start = self.pos;
        match self.lexeme(start) {
            Ok((lex, end)) => {
                self.pos = end;
                Some(Ok(Lexeme { lex, start, end }))
            }
            Err(e) => {
                self.pos = bytes.len();
                Some(Err(e))
            }
        }
    }
}

/// Tokenize a full SQL string.
pub fn tokenize(sql: &str) -> SqlResult<Vec<Token>> {
    let mut tokens = Vec::new();
    for lexeme in Scanner::new(sql) {
        let Lexeme { lex, start, end } = lexeme.map_err(|e| e.into_sql_error(sql))?;
        let text = &sql[start..end];
        let kind = match lex {
            Lex::Ident => TokenKind::Ident(text.to_owned()),
            Lex::QuotedIdent => TokenKind::QuotedIdent(text[1..text.len() - 1].to_owned()),
            Lex::Str => {
                // Every `'` inside the span is half of an escaped pair.
                let body = &text[1..text.len() - 1];
                TokenKind::Str(if body.contains('\'') {
                    body.replace("''", "'")
                } else {
                    body.to_owned()
                })
            }
            Lex::Number { float } => number(text, float)?,
            Lex::Param => TokenKind::Param,
            Lex::Sym(sym) => TokenKind::Sym(sym),
        };
        tokens.push(Token {
            kind,
            offset: start,
        });
    }
    Ok(tokens)
}

/// The value of a numeric literal's text. Overflowing integers fall back
/// to double, as DB2 DECIMAL would.
fn number(text: &str, float: bool) -> SqlResult<TokenKind> {
    if !float {
        if let Ok(v) = text.parse::<i64>() {
            return Ok(TokenKind::Int(v));
        }
    }
    text.parse()
        .map(TokenKind::Num)
        .map_err(|_| SqlError::syntax(format!("bad numeric literal {text}")))
}

/// A statement's **digest text**: its shape, with every literal masked, read
/// from the same lexemes the parser sees.
///
/// `SELECT * FROM t WHERE id = 7` and `... WHERE id = 9` are one shape, and
/// the masked text is safe to log and to show on `/stats`: no string,
/// number or bind value a user supplied survives. The rules:
///
/// * keywords and identifiers are ASCII-lowercased;
/// * each string literal, number and `?` becomes `?`, so a bound statement
///   and its inlined-literal twin share one digest;
/// * quoted identifiers and symbols are kept as written;
/// * one space stands wherever the source had whitespace or a comment
///   between two lexemes;
/// * text the scanner cannot lex (an unterminated literal, a stray
///   character) is masked to the end as a single `?`.
///
/// The digest of a digest is itself.
pub fn digest_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut prev_end = 0;
    for lexeme in Scanner::new(sql) {
        let (lex, start, end) = match lexeme {
            Ok(Lexeme { lex, start, end }) => (Some(lex), start, end),
            Err(e) => (None, e.offset(), sql.len()),
        };
        if start > prev_end && !out.is_empty() {
            out.push(' ');
        }
        match lex {
            Some(Lex::Ident) => {
                let at = out.len();
                out.push_str(&sql[start..end]);
                out[at..].make_ascii_lowercase();
            }
            Some(Lex::QuotedIdent | Lex::Sym(_)) => out.push_str(&sql[start..end]),
            Some(Lex::Str | Lex::Number { .. } | Lex::Param) | None => out.push('?'),
        }
        prev_end = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgw_testkit::gen::{printable, tokens};
    use dbgw_testkit::props;

    fn kinds(sql: &str) -> Vec<TokenKind> {
        tokenize(sql).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_select() {
        let k = kinds("SELECT url FROM urldb WHERE title LIKE 'a%'");
        assert_eq!(k[0], TokenKind::Ident("SELECT".into()));
        assert_eq!(k[5], TokenKind::Ident("title".into()));
        assert_eq!(k[7], TokenKind::Str("a%".into()));
    }

    #[test]
    fn string_escape_doubling() {
        assert_eq!(kinds("'O''Leary'"), vec![TokenKind::Str("O'Leary".into())]);
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(tokenize("SELECT 'oops").is_err());
    }

    #[test]
    fn numbers_int_float_exp() {
        assert_eq!(
            kinds("1 2.5 3e2 4.5E-1 .25"),
            vec![
                TokenKind::Int(1),
                TokenKind::Num(2.5),
                TokenKind::Num(300.0),
                TokenKind::Num(0.45),
                TokenKind::Num(0.25),
            ]
        );
    }

    #[test]
    fn huge_integer_becomes_double() {
        assert_eq!(kinds("99999999999999999999").len(), 1);
        assert!(matches!(
            kinds("99999999999999999999")[0],
            TokenKind::Num(_)
        ));
    }

    #[test]
    fn two_char_operators() {
        assert_eq!(
            kinds("<= >= <> != ||"),
            vec![
                TokenKind::Sym(Sym::Le),
                TokenKind::Sym(Sym::Ge),
                TokenKind::Sym(Sym::Ne),
                TokenKind::Sym(Sym::Ne),
                TokenKind::Sym(Sym::Concat),
            ]
        );
    }

    #[test]
    fn line_comments_skipped() {
        assert_eq!(
            kinds("SELECT -- everything\n 1"),
            vec![TokenKind::Ident("SELECT".into()), TokenKind::Int(1)]
        );
    }

    #[test]
    fn qualified_name_tokens() {
        assert_eq!(
            kinds("urldb.title"),
            vec![
                TokenKind::Ident("urldb".into()),
                TokenKind::Sym(Sym::Dot),
                TokenKind::Ident("title".into()),
            ]
        );
    }

    #[test]
    fn quoted_identifier() {
        assert_eq!(
            kinds(r#""Select""#),
            vec![TokenKind::QuotedIdent("Select".into())]
        );
    }

    #[test]
    fn param_marker() {
        assert_eq!(
            kinds("id = ?"),
            vec![
                TokenKind::Ident("id".into()),
                TokenKind::Sym(Sym::Eq),
                TokenKind::Param
            ]
        );
    }

    #[test]
    fn offsets_recorded() {
        let toks = tokenize("SELECT x").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 7);
    }

    #[test]
    fn rejects_garbage() {
        assert!(tokenize("SELECT ^").is_err());
    }

    #[test]
    fn utf8_in_strings() {
        assert_eq!(kinds("'héllo ☃'"), vec![TokenKind::Str("héllo ☃".into())]);
    }

    #[test]
    fn digest_masks_string_and_numeric_literals() {
        assert_eq!(
            digest_sql("SELECT * FROM t WHERE name = 'Alice'  AND age > 42"),
            "select * from t where name = ? and age > ?"
        );
        // Same shape, different literals → identical digest text.
        assert_eq!(
            digest_sql("SELECT * FROM t WHERE name = 'Bob' AND age > 7"),
            digest_sql("SELECT * FROM t WHERE name = 'Alice'  AND age > 42"),
        );
    }

    #[test]
    fn digest_matches_bound_parameter_shape() {
        assert_eq!(
            digest_sql("SELECT a FROM t WHERE id = ?"),
            digest_sql("SELECT a FROM t WHERE id = 123")
        );
    }

    #[test]
    fn digest_keeps_identifier_digits() {
        assert_eq!(
            digest_sql("SELECT col_2 FROM t1 WHERE t1.x2 = 5"),
            "select col_2 from t1 where t1.x2 = ?"
        );
    }

    #[test]
    fn digest_masks_escaped_and_tricky_literals() {
        assert_eq!(digest_sql("SELECT 'it''s  here'"), "select ?");
        assert_eq!(
            digest_sql("SELECT 3.14, .5, 1e-3, 2E+10"),
            "select ?, ?, ?, ?"
        );
        // Unterminated literal: masked to the end, deterministic.
        assert_eq!(digest_sql("SELECT 'oops"), "select ?");
        // Comment markers inside the literal are data, and still masked.
        assert_eq!(digest_sql("SELECT '--x' FROM t"), "select ? from t");
    }

    #[test]
    fn digest_preserves_quoted_identifiers_and_comments() {
        assert_eq!(
            digest_sql("SELECT \"Mixed  Case\" -- trailing\nFROM t"),
            "select \"Mixed  Case\" from t"
        );
    }

    #[test]
    fn digest_is_idempotent() {
        for s in [
            "SELECT 'a  B' FROM t WHERE x = 1.5e3",
            "select ?",
            "'unterminated",
            "",
        ] {
            let once = digest_sql(s);
            assert_eq!(digest_sql(&once), once);
        }
    }

    /// Slow-query digests must mask literals *inside subqueries and new
    /// grammar* too — a digest that leaks only-in-subquery literals would
    /// both explode digest cardinality and leak user data into /stats.
    #[test]
    fn digest_masks_literals_inside_subqueries_and_windows() {
        let same_digest: &[(&str, &str)] = &[
            (
                "SELECT k FROM t WHERE v > (SELECT MAX(v) FROM u WHERE id = 123)",
                "SELECT k FROM t WHERE v > (SELECT MAX(v) FROM u WHERE id = 999)",
            ),
            (
                "SELECT k FROM t WHERE k IN (SELECT k FROM u WHERE s = 'alice')",
                "SELECT k FROM t WHERE k IN (SELECT k FROM u WHERE s = 'bob')",
            ),
            (
                "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE v = 5)",
                "SELECT k FROM t WHERE EXISTS (SELECT 1 FROM u WHERE v = 77)",
            ),
            (
                "SELECT k FROM t UNION ALL SELECT k FROM u WHERE v = 3",
                "SELECT k FROM t UNION ALL SELECT k FROM u WHERE v = 4",
            ),
            (
                "SELECT SUM(v) OVER (PARTITION BY k) FROM t WHERE v = 1.5",
                "SELECT SUM(v) OVER (PARTITION BY k) FROM t WHERE v = 9.25",
            ),
        ];
        for (a, b) in same_digest {
            assert_eq!(
                digest_sql(a),
                digest_sql(b),
                "literals not masked: {a} vs {b}"
            );
        }
        // Different shapes must stay distinct.
        assert_ne!(
            digest_sql("SELECT k FROM t WHERE k IN (SELECT k FROM u)"),
            digest_sql("SELECT k FROM t WHERE k IN (SELECT v FROM u)"),
        );
    }

    /// The digest's promises on one input: it returns (total), the digest of
    /// `noise` is its own digest, and a statement with `literal` between
    /// `before` and `after` (neither holds a `"`, `before` no `'`) digests
    /// exactly as it does with an empty literal, never showing `literal`.
    fn digest_holds(noise: &str, before: &str, literal: &str, after: &str) -> Result<(), String> {
        let once = digest_sql(noise);
        if digest_sql(&once) != once {
            return Err(format!("not idempotent: {noise:?} -> {once:?}"));
        }
        let with = |text: &str| {
            let sql = format!("{before}'{}'{after}", text.replace('\'', "''"));
            (digest_sql(&sql), sql)
        };
        let ((shown, sql), (blank, _)) = (with(literal), with(""));
        if shown != blank || (!literal.is_empty() && shown.contains(literal)) {
            return Err(format!(
                "{sql:?} digests to {shown:?}, blank literal to {blank:?}"
            ));
        }
        Ok(())
    }

    #[test]
    fn digest_masks_what_it_cannot_lex() {
        // The tokenizer rejects a form feed, so everything from it on is one
        // `?`: the literal after it is masked with the rest.
        assert_eq!(digest_sql("SELECT\x0c'secret'"), "select?");
        for (before, after) in [
            ("SELECT\x0c", ""),
            ("SELECT ^ ", ""),
            ("SELECT 1 -- ", "\n"),
        ] {
            digest_holds(before, before, "secret", after).unwrap();
        }
    }

    const SQL_SHAPES: &[&str] = &[
        "SELECT", "FROM", " ", "\n", "\x0c", "--", "'", "\"", "?", "(", ")", ",", "*", "a", "Z9",
        "0", ".5", "1e", "+", "-", "<>", "!", "é",
    ];

    props! {
        /// The digest is total and idempotent on printable and SQL-shaped
        /// text, and the text of a string literal never reaches it.
        fn digest_is_total_idempotent_and_masks_literals(
            noise in printable(0..=300),
            shaped in tokens(SQL_SHAPES, 0..=24),
            before in printable(0..=40).exclude("'\""),
            secret in printable(0..=16),
            after in printable(0..=40).exclude("\""),
        ) {
            let literal = format!("Secret {secret}");
            digest_holds(&noise, &before, &literal, &after)?;
            digest_holds(&shaped, &shaped.replace(['\'', '"'], ""), &literal, &after)?;
        }
    }
}
