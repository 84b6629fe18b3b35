//! Property: every route to a LIKE match agrees with a naive reference.
//!
//! The reference below is the grammar read literally, by recursion over
//! characters: `%` tries every split, `_` takes one character, the escape
//! character makes the next one literal, and a trailing escape is itself
//! literal. Against it the properties check the prepared [`Pattern`],
//! the one-off [`like_match`], and SQL along its three routes: a literal
//! pattern (prepared once per statement), a pattern held in a column, and a
//! `?` marker (both prepared per row). Generated cases mix `%` runs, `_`,
//! escapes of `!`, `%` and `_`, trailing escapes, multibyte characters, empty
//! strings and NULLs.

use dbgw_testkit::gen::{charset, option_of, tokens, vec_of};
use dbgw_testkit::{prop_assert_eq, props};
use minisql::like::{like_match, Pattern};
use minisql::{Database, Value};

/// Does `text` match `pattern`? Exponential in the number of `%` runs; the
/// generated patterns and texts are short.
fn reference(text: &[char], pattern: &[char], escape: Option<char>) -> bool {
    match pattern.split_first() {
        None => text.is_empty(),
        Some((&c, rest)) if Some(c) == escape => match rest.split_first() {
            Some((&lit, rest)) => text.first() == Some(&lit) && reference(&text[1..], rest, escape),
            None => text == [c],
        },
        Some(('%', [])) => true,
        Some(('%', rest)) if rest[0] == '%' && escape != Some('%') => reference(text, rest, escape),
        Some(('%', rest)) => (0..=text.len()).any(|i| reference(&text[i..], rest, escape)),
        Some(('_', rest)) => !text.is_empty() && reference(&text[1..], rest, escape),
        Some((&c, rest)) => text.first() == Some(&c) && reference(&text[1..], rest, escape),
    }
}

fn reference_str(text: &str, pattern: &str, escape: Option<char>) -> bool {
    let chars = |s: &str| s.chars().collect::<Vec<_>>();
    reference(&chars(text), &chars(pattern), escape)
}

/// A text shaped by `pattern`, so that about half the cases match: each `%`
/// becomes the first three characters of `fill`, and each `_` one multibyte
/// character.
fn realize(pattern: &str, fill: &str) -> String {
    let fill: String = fill.chars().take(3).collect();
    pattern.replace('%', &fill).replace('_', "é")
}

fn truth(hit: bool) -> Value {
    Value::Int(hit as i64)
}

/// The pattern pool: literals (one multibyte), `%` and its runs, `_`, and
/// every character the generated escapes use.
const PATTERN_TOKENS: &[&str] = &["a", "b", "é", "%", "%%", "_", "!"];
const TEXT_CHARS: &str = "ab!%_é日";

props! {
    config(cases = 256);

    fn prepared_matcher_equals_reference(
        fill in charset(TEXT_CHARS, 0..=8),
        pattern in tokens(PATTERN_TOKENS, 0..=8),
        escape in option_of(charset("!%_", 1..=1)),
    ) {
        let escape = escape.and_then(|e| e.chars().next());
        let prepared = Pattern::new(&pattern, escape);
        for text in [fill.clone(), realize(&pattern, &fill)] {
            let want = reference_str(&text, &pattern, escape);
            let case = format!("{text:?} LIKE {pattern:?} ESCAPE {escape:?}");
            prop_assert_eq!(prepared.matches(&text), want, "{case}");
            prop_assert_eq!(like_match(&text, &pattern, escape), want, "like_match: {case}");
        }
    }

    fn sql_routes_equal_reference(
        fills in vec_of(option_of(charset(TEXT_CHARS, 0..=8)), 0..=4),
        pattern in tokens(PATTERN_TOKENS, 0..=8),
        escape in option_of(charset("!%_", 1..=1)),
    ) {
        let texts: Vec<Option<String>> = (fills.iter())
            .flat_map(|f| [f.clone(), f.as_ref().map(|f| realize(&pattern, f))])
            .collect();
        let db = Database::new();
        db.run_script("CREATE TABLE t (id INTEGER, txt VARCHAR(40), pat VARCHAR(20))")
            .unwrap();
        let mut conn = db.connect();
        for (id, text) in texts.iter().enumerate() {
            let text = text.clone().map_or(Value::Null, Value::Text);
            let row = [Value::Int(id as i64), text, Value::Text(pattern.clone())];
            conn.execute_with_params("INSERT INTO t VALUES (?, ?, ?)", &row)
                .unwrap();
        }
        // The literal route, the column route, the `?` route, and LIKE on an
        // INTEGER through its display text.
        let esc = escape.as_ref().map_or(String::new(), |e| format!(" ESCAPE '{e}'"));
        let sql = format!(
            "SELECT id, txt LIKE '{pattern}'{esc}, txt LIKE pat{esc}, txt LIKE ?{esc}, \
             id LIKE '{pattern}'{esc} FROM t ORDER BY id"
        );
        let rows = conn.execute_with_params(&sql, &[Value::Text(pattern.clone())]).unwrap();
        let rows = &rows.rows().unwrap().rows;
        prop_assert_eq!(rows.len(), texts.len());
        let escape = escape.and_then(|e| e.chars().next());
        for (row, (id, text)) in rows.iter().zip(texts.iter().enumerate()) {
            let want = (text.as_ref())
                .map_or(Value::Null, |t| truth(reference_str(t, &pattern, escape)));
            let case = format!("{text:?} LIKE {pattern:?} ESCAPE {escape:?}");
            prop_assert_eq!([&row[1], &row[2], &row[3]], [&want; 3], "{case}");
            let id_hit = truth(reference_str(&id.to_string(), &pattern, escape));
            prop_assert_eq!(&row[4], &id_hit, "{id} LIKE {pattern:?}");
        }
        let sql = format!("SELECT id FROM t WHERE txt LIKE '{pattern}'{esc} ORDER BY id");
        let filtered = conn.execute(&sql).unwrap();
        let got: Vec<Value> = (filtered.rows().unwrap().rows.iter())
            .map(|r| r[0].clone())
            .collect();
        let want: Vec<Value> = (texts.iter().enumerate())
            .filter(|(_, t)| t.as_ref().is_some_and(|t| reference_str(t, &pattern, escape)))
            .map(|(id, _)| Value::Int(id as i64))
            .collect();
        prop_assert_eq!(got, want, "WHERE txt LIKE {pattern:?} ESCAPE {escape:?}");
    }
}
