//! Robustness: the public parsers must be total — any input yields
//! `Ok` or a structured error, never a panic, hang, or bad slice. Gateways
//! face the open internet; the paper's system crashed CGI processes on bad
//! input, ours must not.

use dbgw_testkit::gen::*;
use dbgw_testkit::{prop_assert, props};

/// Fragments that steer random input toward macro-section syntax.
const SECTION_TOKENS: &[&str] = &[
    "%SQL{",
    "%SQL_REPORT{",
    "%HTML_INPUT{",
    "%HTML_REPORT{",
    "%DEFINE",
    "%ROW{",
    "%EXEC_SQL",
    "%}",
    "%{",
    "{",
    "}",
    "(",
    ")",
    "$(",
    "$$",
    " ",
    "\n",
    "a",
    "X_",
    "=",
    "\"",
];

/// Fragments that steer random input toward SQL syntax.
const SQL_TOKENS: &[&str] = &[
    "SELECT", "INSERT", "UPDATE", "CREATE", "%", "'", "(", ")", ",", "*", " ", "a", "b", "z", "0",
    "9",
];

/// Fragments that steer random input toward the planner-v2 grammar: the
/// set-operation, join, subquery, scalar-function, window, DELETE, DROP
/// TABLE and INSERT ... SELECT syntax the parser refuses.
const SQL_V2_TOKENS: &[&str] = &[
    "SELECT",
    "FROM",
    "WHERE",
    "UNION",
    "INTERSECT",
    "EXCEPT",
    "ALL",
    "OVER",
    "PARTITION",
    "BY",
    "ORDER",
    "ROW_NUMBER",
    "RANK",
    "SUM",
    "IN",
    "EXISTS",
    "LEFT",
    "OUTER",
    "UPPER",
    "DELETE",
    "DROP",
    "TABLE",
    "INSERT",
    "INTO",
    "JOIN",
    "INNER",
    "CROSS",
    "ON",
    "(",
    ")",
    ",",
    "*",
    " ",
    "t",
    "u",
    "k",
    "v",
    "1",
    "'x'",
    "=",
    "<",
];

/// Fragments that steer random input toward HTML-form syntax.
const FORM_TOKENS: &[&str] = &[
    "<form>",
    "</form>",
    "<input name=\"a\">",
    "<input type=\"text\" value=\"v\"/>",
    "<select>",
    "<",
    ">",
    "/",
    "\"",
    "=",
    " ",
    "x",
];

props! {
    config(cases = 256);

    fn macro_parser_total(input in printable(0..=300)) {
        let _ = dbgw_core::parse_macro(&input);
    }

    fn macro_parser_total_on_section_shaped_input(
        shaped in tokens(SECTION_TOKENS, 0..=12),
        tail in printable(0..=80),
    ) {
        let _ = dbgw_core::parse_macro(&format!("{shaped}{tail}"));
    }

    fn sql_parser_total(input in printable(0..=300)) {
        let _ = minisql::parse(&input);
    }

    fn sql_parser_total_on_sql_shaped_input(input in tokens(SQL_TOKENS, 1..=24)) {
        let _ = minisql::parse(&input);
    }

    fn sql_parser_total_on_planner_v2_grammar(input in tokens(SQL_V2_TOKENS, 1..=32)) {
        let _ = minisql::parse(&input);
    }

    fn sql_printer_round_trips_fuzzed_statements(input in tokens(SQL_V2_TOKENS, 1..=32)) {
        // Any statement that parses must print back to SQL that re-parses to
        // the identical AST: print is a faithful inverse of parse.
        if let Ok(stmt) = minisql::parse(&input) {
            let printed = stmt.to_string();
            match minisql::parse(&printed) {
                Ok(again) => prop_assert!(
                    again == stmt,
                    "round-trip changed AST:\n  input:   {input:?}\n  printed: {printed:?}"
                ),
                Err(e) => prop_assert!(
                    false,
                    "printed SQL fails to parse: {printed:?} ({e}) from {input:?}"
                ),
            }
        }
    }

    fn html_tokenizer_total(input in printable(0..=300)) {
        let tokens: Vec<_> = dbgw_html::Tokenizer::new(&input).collect();
        // Tokenization must also terminate with bounded output.
        prop_assert!(tokens.len() <= input.len() + 1);
    }

    fn form_parser_total(
        shaped in tokens(FORM_TOKENS, 0..=8),
        tail in printable(0..=10),
    ) {
        let _ = dbgw_html::Form::parse_all(&format!("{shaped}{tail}"));
    }

    fn query_string_parser_total(input in printable(0..=300)) {
        let _ = dbgw_cgi::QueryString::parse(&input);
    }

    fn substitution_total(template in printable(0..=200)) {
        let env = dbgw_core::Env::new();
        let mut ev = dbgw_core::Evaluator::new(&env, &dbgw_core::DenyRunner);
        let out = ev.substitute(&template).unwrap();
        // With an empty environment, every $(ref) vanishes and everything
        // else survives; output can never be longer than input + escapes.
        prop_assert!(out.len() <= template.len() + 8);
    }

    fn base64_decode_total(input in printable(0..=100)) {
        let _ = dbgw_cgi::base64_decode(&input);
    }

    fn sql_normalizer_total_and_idempotent(input in printable(0..=300)) {
        let once = minisql::digest_sql(&input);
        let twice = minisql::digest_sql(&once);
        prop_assert!(once == twice, "not idempotent: {:?} -> {:?} -> {:?}", input, once, twice);
    }

    fn sql_normalizer_total_on_sql_shaped_input(input in tokens(SQL_TOKENS, 1..=24)) {
        let once = minisql::digest_sql(&input);
        prop_assert!(minisql::digest_sql(&once) == once);
    }
}

/// Regression pinned from a recorded proptest shrink (`.proptest-regressions`,
/// now retired): `<a᭎` — an unterminated tag whose name ends in a multi-byte
/// character — once sliced mid-codepoint. Every parser that sees raw request
/// text must stay total on it.
#[test]
fn regression_unterminated_tag_multibyte() {
    let input = "<a᭎";
    let tokens: Vec<_> = dbgw_html::Tokenizer::new(input).collect();
    assert!(tokens.len() <= input.len() + 1);
    let _ = dbgw_html::Form::parse_all(input);
    let _ = dbgw_core::parse_macro(input);
    let _ = minisql::parse(input);
    let _ = dbgw_cgi::QueryString::parse(input);
}

/// Hand-picked crashers: inputs that have broken parsers of this shape before.
#[test]
fn known_nasty_inputs() {
    let nasties = [
        "%",
        "%}",
        "%{",
        "%{%}",
        "%DEFINE",
        "%DEFINE{",
        "%DEFINE a =",
        "%DEFINE a = \"",
        "%SQL",
        "%SQL{",
        "%SQL(){ x %}",
        "%SQL_REPORT{",
        "%HTML_INPUT",
        "%HTML_INPUT{$($($(",
        "%HTML_INPUT{$()%}",
        "%HTML_INPUT{$$%}",
        "%HTML_INPUT{$%}",
        "\u{0}",
        "%HTML_INPUT{\u{FFFD}%}",
    ];
    for input in nasties {
        let _ = dbgw_core::parse_macro(input);
    }
    let sql_nasties = [
        "'",
        "''",
        "\"",
        "SELECT",
        "SELECT (",
        "SELECT ((((((((((1))))))))))",
        "SELECT * FROM",
        "INSERT INTO t VALUES",
        "SELECT 1 UNION",
        "CASE",
        "SELECT CASE WHEN",
        "SELECT CAST(1 AS",
        "-9223372036854775808",
        "SELECT --",
    ];
    for input in sql_nasties {
        let _ = minisql::parse(input);
    }
}

/// The result cache keys on the statement exactly as sent, so statements
/// that differ inside a literal, in a quoted identifier's case, or in what a
/// comment swallows are different entries. Each pair runs in both orders
/// through a cached database, and every answer must be the one an uncached
/// database gives — an alias here would serve one user's rows to another's
/// query.
#[test]
fn distinct_literals_never_share_a_cache_entry() {
    let pairs: &[(&str, &str)] = &[
        // Case inside a literal is data, not syntax.
        (
            "SELECT * FROM t WHERE s = 'abc'",
            "SELECT * FROM t WHERE s = 'ABC'",
        ),
        // So is interior whitespace.
        (
            "SELECT * FROM t WHERE s = 'a b'",
            "SELECT * FROM t WHERE s = 'a  b'",
        ),
        (
            "SELECT * FROM t WHERE s = 'a b'",
            "SELECT * FROM t WHERE s = 'a\tb'",
        ),
        // Unsubstituted macro shrapnel in a literal stays verbatim.
        (
            "SELECT * FROM t WHERE s = '$(X)'",
            "SELECT * FROM t WHERE s = '$(x)'",
        ),
        // An escaped quote keeps the literal open: the trailing AND is data
        // in one statement and syntax in the other.
        (
            "SELECT * FROM t WHERE s = 'it''s' AND n = 1",
            "SELECT * FROM t WHERE s = 'it''S' AND n = 1",
        ),
        // A comment marker inside a literal is data; outside it swallows the
        // rest of the line.
        (
            "SELECT * FROM t WHERE s = '-- not a comment'",
            "SELECT * FROM t WHERE s = '-- NOT a comment'",
        ),
        // Quoted identifiers are case-sensitive too.
        ("SELECT \"Col\" FROM t", "SELECT \"col\" FROM t"),
        // A comment runs to end of line, not end of statement: text after
        // the newline is live, text on the comment line is not.
        ("SELECT 1 -- c\n+1", "SELECT 1 -- c +1"),
    ];
    let schema = "CREATE TABLE t (s VARCHAR(40), n INTEGER, col INTEGER);
        INSERT INTO t VALUES ('abc', 1, 1), ('ABC', 1, 2), ('a b', 1, 3), ('a  b', 1, 4),
            ('a\tb', 1, 5), ('$(X)', 1, 6), ('$(x)', 1, 7), ('it''s', 1, 8), ('it''S', 1, 9),
            ('-- not a comment', 1, 10), ('-- NOT a comment', 1, 11);";
    for (a, b) in pairs {
        for order in [[a, b], [b, a]] {
            let cached = minisql::Database::new();
            let plain = minisql::Database::without_cache();
            cached.run_script(schema).unwrap();
            plain.run_script(schema).unwrap();
            let (mut warm, mut cold) = (cached.connect(), plain.connect());
            for sql in order {
                assert_eq!(
                    warm.execute(sql),
                    cold.execute(sql),
                    "aliased: {a:?} vs {b:?}"
                );
            }
        }
    }
}

/// Deterministic round-trip corpus: one statement per construct of the SQL
/// surface. The fuzzed round-trip property above rarely assembles deeply
/// nested valid statements; this corpus guarantees each construct is
/// exercised every run. The forms the parser refuses get no AST to print:
/// each must parse to −104 without panicking.
#[test]
fn printer_round_trips_feature_corpus() {
    let corpus = [
        "SELECT 1",
        "SELECT k, v + 1 FROM t WHERE k = 3 ORDER BY 2 DESC LIMIT 5 OFFSET 2",
        "SELECT t.k FROM t WHERE t.v >= 1 AND t.v <= 9 AND t.k IN (1, 2, 3)",
        "SELECT k FROM t WHERE s LIKE 'ab%' AND s NOT LIKE '%z' ESCAPE '!'",
        "SELECT COUNT(*), SUM(v) FROM t WHERE k > 1",
        "SELECT CASE WHEN k = 1 THEN 'one' WHEN k = 2 THEN 'two' ELSE 'many' END FROM t",
        "SELECT -5, NOT (k = 1) FROM t WHERE v + 1 >= k - 4 OR k IS NULL",
        "INSERT INTO t (k, v) VALUES (1, 2), (3, 4)",
        "INSERT INTO t VALUES (NULL, 'it''s', 2.5, -1)",
        "UPDATE t SET v = v + 1, s = 'x' WHERE k IN (1, 2)",
        "CREATE TABLE t (k INTEGER PRIMARY KEY, s VARCHAR(10) NOT NULL, d DOUBLE)",
        "CREATE INDEX t_k ON t (k)",
        "DROP INDEX t_k",
        "EXPLAIN SELECT k FROM t WHERE k = 1",
        "EXPLAIN ANALYZE SELECT k FROM t",
        "BEGIN",
        "COMMIT",
        "ROLLBACK",
    ];
    for sql in corpus {
        let ast = minisql::parse(sql).unwrap_or_else(|e| panic!("corpus entry fails: {sql} ({e})"));
        let printed = ast.to_string();
        let reparsed = minisql::parse(&printed)
            .unwrap_or_else(|e| panic!("printed form fails: {printed} ({e}) from {sql}"));
        assert_eq!(
            reparsed, ast,
            "round-trip changed AST for {sql} -> {printed}"
        );
        // And printing is a fixpoint after one round.
        assert_eq!(
            reparsed.to_string(),
            printed,
            "printer not idempotent for {sql}"
        );
    }
    let refused = [
        "SELECT DISTINCT k, v + 1 AS w FROM t WHERE k = 3 ORDER BY w DESC LIMIT 5 OFFSET 2",
        "SELECT a.k FROM t AS a WHERE a.v BETWEEN 1 AND 9 AND a.k IN (1, 2, 3)",
        "SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM t GROUP BY k HAVING COUNT(*) > 1",
        "SELECT CAST(v AS DOUBLE) FROM t WHERE d = DATE '1996-06-04'",
        "SELECT k FROM t UNION SELECT k FROM u",
        "SELECT k FROM t UNION ALL SELECT k FROM u ORDER BY 1 LIMIT 3",
        "SELECT k FROM t EXCEPT SELECT k FROM u",
        "SELECT k FROM t EXCEPT ALL SELECT k FROM u",
        "SELECT k FROM t INTERSECT SELECT k FROM u",
        "SELECT k FROM t INTERSECT ALL SELECT k FROM u",
        "SELECT -v, NOT (k = 1) FROM t WHERE v * 2 + 1 >= k / 3 - 4",
        "INSERT INTO t VALUES (NULL, 'it''s', 2.5, DATE '1996-01-31')",
    ];
    for sql in refused {
        let err = minisql::parse(sql).expect_err(sql);
        assert_eq!(err.code, minisql::SqlCode::SYNTAX, "{sql}: {err:?}");
    }
}
