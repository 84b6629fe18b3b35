//! Property-based tests on cross-crate invariants.

use dbgw_cgi::{CgiRequest, Gateway, QueryString};
use dbgw_core::db::{DbRows, FnDatabase};
use dbgw_core::{parse_macro, Engine, EngineConfig, Mode};
use dbgw_testkit::gen::*;
use dbgw_testkit::{prop_assert, prop_assert_eq, props};

const LOWER: &str = "abcdefghijklmnopqrstuvwxyz";
const UPPER: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";

fn gateway() -> Gateway {
    let db = minisql::Database::new();
    db.run_script(
        "CREATE TABLE urldb (url VARCHAR(255), title VARCHAR(120), description VARCHAR(400));
         INSERT INTO urldb VALUES ('http://a', 'Alpha', 'first'), ('http://b', 'Beta', NULL);",
    )
    .unwrap();
    let gw = Gateway::new(db);
    gw.add_macro("urlquery.d2w", dbgw_baselines::URLQUERY_MACRO)
        .unwrap();
    gw
}

/// `words` as a hand-typed statement might spell them, drawn from `seed`:
/// each word in upper, lower or mixed case (numbers and symbols have none),
/// each gap — and the ends — a run of spaces, tabs, newlines or a `--`
/// comment. One statement in eight has a form feed in one gap, which
/// minisql's lexer rejects.
fn spelled(words: &[&str], seed: i64) -> String {
    const GAPS: &[&str] = &[
        " ",
        " ",
        " ",
        "  ",
        "\t",
        "\n",
        "\r\n ",
        " -- note\n",
        "--\n",
    ];
    let mut rng = dbgw_testkit::Rng::new(seed as u64);
    let feed_at = rng.gen_bool(0.125).then(|| rng.gen_range(0..=words.len()));
    let mut sql = String::new();
    for i in 0..=words.len() {
        if feed_at == Some(i) {
            sql.push('\x0c');
        } else if (i > 0 && i < words.len()) || rng.gen_bool(0.25) {
            sql.push_str(rng.choose::<&str>(GAPS));
        }
        let Some(word) = words.get(i) else { break };
        match rng.gen_range(0..3) {
            0 => sql.push_str(&word.to_ascii_uppercase()),
            1 => sql.push_str(&word.to_ascii_lowercase()),
            _ => sql.extend(word.chars().map(|c| {
                if rng.gen_bool(0.5) {
                    c.to_ascii_uppercase()
                } else {
                    c.to_ascii_lowercase()
                }
            })),
        }
    }
    sql
}

props! {
    config(cases = 64);

    /// The gateway never panics and never 500s on arbitrary user input —
    /// hostile variables surface as SQL-error text inside a 200 page.
    fn gateway_total_on_arbitrary_input(
        pairs in vec_of((ident(1..=9), printable(0..=20)), 0..=5),
    ) {
        let gw = gateway();
        let q = QueryString::from_pairs(pairs);
        let resp = gw.handle(&CgiRequest::get("/urlquery.d2w/report", &q.to_wire()));
        prop_assert!(resp.status == 200, "status {} body {}", resp.status, resp.body);
    }

    /// Input mode is a pure text transform: structurally balanced in,
    /// balanced out (with value escaping on, which is the default).
    fn input_mode_preserves_balance(
        pairs in vec_of(
            (charset(UPPER, 1..=6), charset("abcdefghijklmnopqrstuvwxyz0123456789 ", 0..=12)),
            0..=3,
        ),
    ) {
        let gw = gateway();
        let q = QueryString::from_pairs(pairs);
        let resp = gw.handle(&CgiRequest::get("/urlquery.d2w/input", &q.to_wire()));
        prop_assert_eq!(resp.status, 200);
        prop_assert!(dbgw_html::check_balanced(&resp.body).is_ok());
    }

    /// Substitution with no $ characters is the identity.
    fn substitution_identity_without_dollars(text in printable(0..=200).exclude("$")) {
        let mac = parse_macro(&format!("%HTML_INPUT{{{}%}}",
            text.replace("%}", ""))).unwrap();
        let body = text.replace("%}", "");
        let out = Engine::new().process_input(&mac, &[]).unwrap();
        prop_assert_eq!(out, body);
    }

    /// An undefined variable always substitutes to the null string: output
    /// equals input with references removed.
    fn undefined_vars_vanish(
        name in charset_first(
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ",
            "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_",
            1..=11,
        ),
    ) {
        let mac = parse_macro(&format!("%HTML_INPUT{{[$({name})]%}}")).unwrap();
        let out = Engine::new().process_input(&mac, &[]).unwrap();
        prop_assert_eq!(out, "[]");
    }

    /// HTML input values always win over DEFINE defaults, whatever they are.
    fn inputs_override_defines(
        default_v in charset(LOWER, 1..=10),
        input_v in charset(UPPER, 1..=10),
    ) {
        let mac = parse_macro(&format!(
            "%DEFINE X = \"{default_v}\"\n%HTML_INPUT{{$(X)%}}"
        )).unwrap();
        let out = Engine::new()
            .process_input(&mac, &[("X".into(), input_v.clone())])
            .unwrap();
        prop_assert_eq!(out, input_v);
    }

    /// Report rendering emits the row template exactly once per row,
    /// regardless of content.
    fn row_template_count_matches_rows(n in usizes(0..50)) {
        let mac = parse_macro(
            "%SQL{ Q\n%SQL_REPORT{%ROW{<ROW>%}TOTAL=$(ROW_NUM)%}\n%}\n%HTML_REPORT{%EXEC_SQL%}"
        ).unwrap();
        let mut db = FnDatabase(|_: &str| Ok(DbRows {
            columns: vec!["a".into()],
            rows: (0..n).map(|i| vec![i.to_string()]).collect(),
            affected: 0,
        }));
        let out = Engine::new().process(&mac, Mode::Report, &[], &mut db).unwrap();
        prop_assert_eq!(out.matches("<ROW>").count(), n);
        let marker = format!("TOTAL={n}");
        prop_assert!(out.contains(&marker));
    }

    /// MiniSQL: inserting k rows then SELECT COUNT(*) always agrees, through
    /// the full SQL text path.
    fn insert_count_agree(values in vec_of(ints(0..1000), 0..=29)) {
        let db = minisql::Database::new();
        db.run_script("CREATE TABLE t (v INTEGER)").unwrap();
        let mut conn = db.connect();
        for v in &values {
            conn.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let r = conn.execute("SELECT COUNT(*) FROM t").unwrap();
        let minisql::ExecResult::Rows(rs) = r else { panic!() };
        prop_assert_eq!(rs.rows[0][0].clone(), minisql::Value::Int(values.len() as i64));
    }

    /// MiniSQL: ORDER BY really sorts (non-null integer column).
    fn order_by_sorts(values in vec_of(ints(-100..100), 1..=39)) {
        let db = minisql::Database::new();
        db.run_script("CREATE TABLE t (v INTEGER)").unwrap();
        let mut conn = db.connect();
        for v in &values {
            conn.execute(&format!("INSERT INTO t VALUES ({v})")).unwrap();
        }
        let r = conn.execute("SELECT v FROM t ORDER BY v DESC").unwrap();
        let minisql::ExecResult::Rows(rs) = r else { panic!() };
        let got: Vec<i64> = rs.rows.iter().map(|r| match r[0] {
            minisql::Value::Int(i) => i,
            _ => unreachable!(),
        }).collect();
        let mut want = values.clone();
        want.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(got, want);
    }

    /// MiniSQL: the engine's LIKE agrees with a naive reference matcher —
    /// not `minisql::like` — on multi-byte text with wildcards in the data,
    /// with an ESCAPE character, over NULLs (neither LIKE nor NOT LIKE), and
    /// on an INTEGER column, which matches its display string.
    fn engine_like_agrees_with_reference(
        rows in vec_of((option_of(charset("aé日%_!", 0..=6)), ints(0..200)), 1..=19),
        pattern in charset("aé日%_!", 0..=6),
        int_pattern in charset("12%_", 0..=4),
    ) {
        let db = minisql::Database::new();
        db.run_script("CREATE TABLE t (s VARCHAR(20), n INTEGER)").unwrap();
        let mut conn = db.connect();
        for (s, n) in &rows {
            let s = s.clone().map_or(minisql::Value::Null, minisql::Value::Text);
            conn.execute_with_params("INSERT INTO t VALUES (?, ?)", &[s, minisql::Value::Int(*n)])
                .unwrap();
        }
        let texts: Vec<&str> = rows.iter().filter_map(|(s, _)| s.as_deref()).collect();
        for (esc, clause) in [(None, ""), (Some('!'), " ESCAPE '!'")] {
            let hits = texts.iter().filter(|s| like_ref(s, &pattern, esc)).count();
            let like = count_where(&mut conn, &format!("s LIKE ?{clause}"), &pattern);
            prop_assert_eq!(like, hits, "s LIKE {:?}{}", pattern, clause);
            let unlike = count_where(&mut conn, &format!("s NOT LIKE ?{clause}"), &pattern);
            prop_assert_eq!(unlike, texts.len() - hits, "s NOT LIKE {:?}{}", pattern, clause);
        }
        for p in [int_pattern.as_str(), "1%"] {
            let hits = rows.iter().filter(|(_, n)| like_ref(&n.to_string(), p, None)).count();
            prop_assert_eq!(count_where(&mut conn, "n LIKE ?", p), hits, "n LIKE {:?}", p);
        }
    }
}

/// Template text: literals, `$$(` escapes, a lone `$`, malformed references,
/// and references to report variables (in mixed case, beyond the row width,
/// `V01`), to DEFINEs that lazily reference row variables, to an input, and
/// to nothing. No `%`, so any concatenation parses as report text.
const TEMPLATE_TOKENS: &[&str] = &[
    "<",
    "&",
    "x",
    " ",
    "$",
    "(",
    ")",
    "$$(V1)",
    "$$(open",
    "$(",
    "$()",
    "$(1x)",
    "$(V1)",
    "$(v2)",
    "$(V3)",
    "$(V5)",
    "$(V01)",
    "$(V0)",
    "$(V_a)",
    "$(v_Title)",
    "$(V_TITLE)",
    "$(VLIST)",
    "$(vlist)",
    "$(ROW_NUM)",
    "$(Row_Num)",
    "$(N1)",
    "$(n4)",
    "$(n_title)",
    "$(NLIST)",
    "$(D)",
    "$(C)",
    "$(E)",
    "$(INP)",
    "$(zz)",
];
/// Column names, drawn with repeats: duplicates in exact and mixed case.
const COLUMNS: &[&str] = &["a", "A", "title", "Title", "b", "x<y"];
const DEFINES: &[(&str, bool, &str)] = &[
    ("D", false, "[$(V2)|$(row_num)|$(INP)]"),
    ("C", true, "c$(V4)$(v_a)"), // one-armed: null when a reference is
    ("E", false, "$(D)$(N2)"),
];

/// A naive report renderer written straight from §3.2.1 and §4.3: each
/// scope's report variables are one map from upper-cased name to (escaped)
/// value, consulted before the inputs, then the DEFINEs.
struct Reference<'a> {
    scope: std::collections::HashMap<String, String>,
    inputs: &'a [(String, String)],
    max_rows: Option<usize>,
}

impl Reference<'_> {
    fn value(&self, name: &str) -> String {
        if let Some(v) = self.scope.get(&name.to_ascii_uppercase()) {
            return v.clone();
        }
        if let Some((_, v)) = self.inputs.iter().find(|(n, _)| n == name) {
            return self.subst(v).0;
        }
        if name == "RPT_MAX_ROWS" {
            return self.max_rows.map(|k| k.to_string()).unwrap_or_default();
        }
        match DEFINES.iter().find(|(n, ..)| *n == name) {
            Some((_, one_armed, v)) => match self.subst(v) {
                (_, true) if *one_armed => String::new(),
                (s, _) => s,
            },
            None => String::new(),
        }
    }

    /// Substitute character by character; also says whether a directly
    /// referenced variable was null.
    fn subst(&self, text: &str) -> (String, bool) {
        let (mut out, mut saw_null, mut i) = (String::new(), false, 0);
        while i < text.len() {
            let rest = &text[i..];
            let body = rest.strip_prefix("$(").unwrap_or("");
            let name_len = body
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(body.len());
            if rest.starts_with("$$(") {
                let Some(end) = rest.find(')') else {
                    out.push_str(rest);
                    break;
                };
                out.push_str(&rest[1..=end]);
                i += end + 1;
            } else if name_len > 0
                && !body.starts_with(|c: char| c.is_ascii_digit())
                && body[name_len..].starts_with(')')
            {
                let v = self.value(&body[..name_len]);
                saw_null |= v.is_empty();
                out.push_str(&v);
                i += name_len + 3;
            } else {
                let c = rest.chars().next().unwrap();
                out.push(c);
                i += c.len_utf8();
            }
        }
        (out, saw_null)
    }
}

props! {
    config(cases = 256);

    /// Compiled report rendering (templates tokenized at parse time, `%ROW`
    /// bound to column slots once per result) equals the naive reference,
    /// with `RPT_MAX_ROWS` truncation, the footer's `ROW_NUM` the total, and
    /// value escaping on and off.
    fn compiled_report_matches_reference(
        templates in (
            tokens(TEMPLATE_TOKENS, 0..=8),
            tokens(TEMPLATE_TOKENS, 0..=12),
            tokens(TEMPLATE_TOKENS, 0..=8),
        ),
        picks in vec_of(usizes(0..COLUMNS.len()), 1..=4),
        cells in vec_of(charset("ab<&>$()V1 é", 0..=4), 0..=24),
        max_rows in option_of(usizes(0..8)),
        flags in (usizes(0..2), usizes(0..2)),
    ) {
        let (header, row, footer) = templates;
        let (escape, input_v1) = (flags.0 == 1, flags.1 == 1);
        let columns: Vec<String> = picks.iter().map(|&i| COLUMNS[i].to_owned()).collect();
        let rows: Vec<Vec<String>> = cells.chunks_exact(columns.len()).map(<[_]>::to_vec).collect();
        let mut defines: String = DEFINES
            .iter()
            .map(|(n, one_armed, v)| format!("%DEFINE {n} = {}\"{v}\"\n", if *one_armed { "? " } else { "" }))
            .collect();
        if let Some(k) = max_rows {
            defines.push_str(&format!("%DEFINE RPT_MAX_ROWS = \"{k}\"\n"));
        }
        let mac = parse_macro(&format!(
            "{defines}%SQL{{ Q\n%SQL_REPORT{{{header}%ROW{{{row}%}}{footer}%}}\n%}}\n%HTML_REPORT{{%EXEC_SQL%}}"
        )).unwrap();
        let mut inputs = vec![("INP".to_owned(), "i$(V1)".to_owned())];
        if input_v1 {
            inputs.push(("V1".to_owned(), "input".to_owned()));
        }
        let data = DbRows { columns: columns.clone(), rows: rows.clone(), affected: 0 };
        let mut db = FnDatabase(|_: &str| Ok(data.clone()));
        let engine = Engine::with_config(EngineConfig { escape_values: escape, ..EngineConfig::default() });
        let got = engine.process(&mac, Mode::Report, &inputs, &mut db).unwrap();

        let esc = |s: &str| if escape { dbgw_html::escape_text(s).into_owned() } else { s.to_owned() };
        let mut reference = Reference { scope: Default::default(), inputs: &inputs, max_rows };
        for (i, c) in columns.iter().enumerate() {
            reference.scope.insert(format!("N{}", i + 1), esc(c));
            reference.scope.insert(format!("N_{}", c.to_ascii_uppercase()), esc(c));
        }
        reference.scope.insert("NLIST".into(), esc(&columns.join(", ")));
        reference.scope.insert("ROW_NUM".into(), "0".into());
        let names = reference.scope.clone();
        let mut want = reference.subst(&header).0;
        for (i, values) in rows.iter().take(max_rows.unwrap_or(usize::MAX)).enumerate() {
            reference.scope = names.clone();
            reference.scope.insert("ROW_NUM".into(), (i + 1).to_string());
            for (j, (c, v)) in columns.iter().zip(values).enumerate() {
                reference.scope.insert(format!("V{}", j + 1), esc(v));
                reference.scope.insert(format!("V_{}", c.to_ascii_uppercase()), esc(v));
            }
            reference.scope.insert("VLIST".into(), esc(&values.join(", ")));
            want.push_str(&reference.subst(&row).0);
        }
        reference.scope = names;
        reference.scope.insert("ROW_NUM".into(), rows.len().to_string());
        want.push_str(&reference.subst(&footer).0);
        prop_assert_eq!(got, want);
    }
}

/// Reference LIKE: naive recursion over chars, independent of
/// `minisql::like` (a trailing escape character is itself a literal).
fn like_ref(text: &str, pattern: &str, esc: Option<char>) -> bool {
    fn go(t: &[char], p: &[char], esc: Option<char>) -> bool {
        let lit = |c: char, rest: &[char]| t.first() == Some(&c) && go(&t[1..], rest, esc);
        match p {
            [] => t.is_empty(),
            [e, c, rest @ ..] if Some(*e) == esc => lit(*c, rest),
            ['%', rest @ ..] => (0..=t.len()).any(|i| go(&t[i..], rest, esc)),
            ['_', rest @ ..] => !t.is_empty() && go(&t[1..], rest, esc),
            [c, rest @ ..] => lit(*c, rest),
        }
    }
    let chars = |s: &str| s.chars().collect::<Vec<_>>();
    go(&chars(text), &chars(pattern), esc)
}

/// `SELECT COUNT(*) FROM t WHERE <cond>` with `param` bound to its `?`.
fn count_where(conn: &mut minisql::Connection, cond: &str, param: &str) -> usize {
    let sql = format!("SELECT COUNT(*) FROM t WHERE {cond}");
    let r = conn.execute_with_params(&sql, &[minisql::Value::Text(param.into())]);
    match r.unwrap().rows().unwrap().rows[0][0] {
        minisql::Value::Int(n) => n as usize,
        ref other => panic!("COUNT(*) gave {other:?}"),
    }
}

props! {
    config(cases = 32);

    /// The default-table report is balanced HTML for ANY database content —
    /// the escaping path can never be broken by stored data.
    fn default_report_always_balanced(
        cells in vec_of((printable(0..=24), printable(0..=24)), 0..=11),
    ) {
        let mac = parse_macro("%SQL{ Q %}\n%HTML_REPORT{%EXEC_SQL%}").unwrap();
        let data = DbRows {
            columns: vec!["a".into(), "b".into()],
            rows: cells.iter().map(|(a, b)| vec![a.clone(), b.clone()]).collect(),
            affected: 0,
        };
        let mut db = FnDatabase(|_: &str| Ok(data.clone()));
        let out = Engine::new().process(&mac, Mode::Report, &[], &mut db).unwrap();
        prop_assert!(dbgw_html::check_balanced(&out).is_ok(), "out: {out}");
    }

    /// Custom %ROW reports are balanced too, for any data, with escaping on.
    fn custom_report_always_balanced(cells in vec_of(printable(0..=32), 0..=11)) {
        let mac = parse_macro(
            "%SQL{ Q\n%SQL_REPORT{<UL>\n%ROW{<LI><A HREF=\"$(V1)\">$(V1)</A>\n%}</UL>\n%}\n%}\n\
             %HTML_REPORT{%EXEC_SQL%}",
        ).unwrap();
        let data = DbRows {
            columns: vec!["u".into()],
            rows: cells.iter().map(|c| vec![c.clone()]).collect(),
            affected: 0,
        };
        let mut db = FnDatabase(|_: &str| Ok(data.clone()));
        let out = Engine::new().process(&mac, Mode::Report, &[], &mut db).unwrap();
        prop_assert!(dbgw_html::check_balanced(&out).is_ok(), "out: {out}");
    }

    /// Cache transparency: the same random statement sequence against a
    /// cached and an uncached database yields identical results at every
    /// step, column names and SQLCODEs included, and identical final
    /// states. Caching may only change speed. Each statement is spelled
    /// afresh (`spelled`): keyword, identifier and alias case, whitespace
    /// runs, `--` comments and now and then a form feed, so two spellings
    /// of one query meet in the cache.
    fn cache_is_transparent(
        ops in vec_of((usizes(0..5), ints(0..40), any_i64()), 1..=24),
    ) {
        let cached = minisql::Database::with_cache_config(&dbgw_cache::CacheConfig::default());
        let plain = minisql::Database::without_cache();
        for db in [&cached, &plain] {
            db.run_script("CREATE TABLE t (v INTEGER)").unwrap();
        }
        let mut cached_conn = cached.connect();
        let mut plain_conn = plain.connect();
        for (op, x, spelling) in &ops {
            let x = x.to_string();
            let words: &[&str] = match op {
                0 => &["INSERT", "INTO", "t", "VALUES", "(", &x, ")"],
                1 => &["SELECT", "COUNT", "(", "*", ")", "AS", "n", "FROM", "t", "WHERE", "v", "<", &x],
                2 => &["SELECT", "v", "FROM", "t", "ORDER", "BY", "v"],
                3 => &["SELECT", "v", "AS", "val", "FROM", "t", "WHERE", "v", ">", &x],
                _ => &["DELETE", "FROM", "t", "WHERE", "v", "=", &x],
            };
            let sql = spelled(words, *spelling);
            let warm = cached_conn.execute(&sql);
            let cold = plain_conn.execute(&sql);
            prop_assert_eq!(&warm, &cold, "results diverged on {:?}", sql);
        }
        // Identical final states: the same tables, each reading back the
        // same rows.
        let tables = |db: &minisql::Database| {
            let mut names: Vec<String> = db.snapshot().tables.keys().cloned().collect();
            names.sort();
            names
        };
        prop_assert_eq!(tables(&cached), tables(&plain));
        for t in tables(&plain) {
            let q = format!("SELECT * FROM {t} ORDER BY 1");
            prop_assert_eq!(cached_conn.execute(&q), plain_conn.execute(&q), "table {}", t);
        }
    }

    /// Byte accounting: whatever gets stored, in whatever order, the cache
    /// never charges more than its configured budget.
    fn cache_bytes_never_exceed_budget(
        entries in vec_of((ident(1..=8), usizes(0..2048)), 0..=40),
        budget in usizes(256..8192),
    ) {
        let config = dbgw_cache::CacheConfig { max_bytes: budget };
        let cache: dbgw_cache::ShardedCache<String> = dbgw_cache::ShardedCache::new(&config);
        for (key, cost) in &entries {
            cache.put(key.clone(), "v".into(), *cost);
            prop_assert!(
                cache.bytes() <= budget,
                "cache holds {} bytes against a budget of {}",
                cache.bytes(),
                budget
            );
        }
    }
}

/// Check the invariants of the Prometheus text exposition format that
/// scrapers rely on: every sample line belongs to a family that declared
/// `# HELP` and `# TYPE`, every sample value parses as a number, and every
/// histogram family has monotonically non-decreasing cumulative buckets
/// ending in `+Inf`, with `_count` equal to the `+Inf` bucket and a `_sum`.
fn check_exposition(text: &str) -> Result<(), String> {
    use std::collections::HashMap;
    let mut types: HashMap<&str, &str> = HashMap::new();
    let mut helps: Vec<&str> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let fam = it.next().ok_or("TYPE line without family")?;
            let kind = it
                .next()
                .ok_or_else(|| format!("TYPE {fam} without kind"))?;
            if types.insert(fam, kind).is_some() {
                return Err(format!("duplicate TYPE for {fam}"));
            }
        } else if let Some(rest) = line.strip_prefix("# HELP ") {
            helps.push(rest.split(' ').next().unwrap_or(""));
        }
    }
    // family -> (bucket cumulative counts in order, saw +Inf, count value, saw _sum)
    let mut hist: HashMap<String, (Vec<f64>, bool, Option<f64>, bool)> = HashMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let name = line.split(['{', ' ']).next().unwrap();
        let (family, part) = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                name.strip_suffix(suffix)
                    .filter(|f| types.get(f) == Some(&"histogram"))
                    .map(|f| (f, *suffix))
            })
            .unwrap_or((name, ""));
        if !types.contains_key(family) {
            return Err(format!("sample {name} has no # TYPE {family}"));
        }
        if !helps.contains(&family) {
            return Err(format!("sample {name} has no # HELP {family}"));
        }
        let value: f64 = line
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .map_err(|e| format!("unparseable value on {line:?}: {e}"))?;
        let entry = hist.entry(family.to_owned()).or_default();
        match part {
            "_bucket" => {
                let le = line
                    .split("le=\"")
                    .nth(1)
                    .and_then(|r| r.split('"').next())
                    .ok_or_else(|| format!("bucket without le label: {line:?}"))?;
                if entry.1 {
                    return Err(format!("{family}: bucket after +Inf"));
                }
                if let Some(prev) = entry.0.last() {
                    if value < *prev {
                        return Err(format!(
                            "{family}: cumulative buckets decreased ({prev} -> {value})"
                        ));
                    }
                }
                entry.0.push(value);
                if le == "+Inf" {
                    entry.1 = true;
                }
            }
            "_sum" => entry.3 = true,
            "_count" => entry.2 = Some(value),
            _ => {}
        }
    }
    for (family, kind) in &types {
        if *kind != "histogram" {
            continue;
        }
        let (buckets, saw_inf, count, saw_sum) = hist
            .get(*family)
            .ok_or_else(|| format!("{family}: declared histogram but no samples"))?;
        if !saw_inf {
            return Err(format!("{family}: no le=\"+Inf\" bucket"));
        }
        if !saw_sum {
            return Err(format!("{family}: no _sum"));
        }
        let count = count.ok_or_else(|| format!("{family}: no _count"))?;
        let inf = *buckets.last().expect("saw_inf implies buckets");
        if (count - inf).abs() > f64::EPSILON {
            return Err(format!("{family}: _count {count} != +Inf bucket {inf}"));
        }
    }
    Ok(())
}

props! {
    config(cases = 64);

    /// Exposition conformance (the `/stats?format=prometheus` contract):
    /// whatever traffic the registry, digest store, and SLO evaluator have
    /// absorbed, the rendered text passes [`check_exposition`].
    fn prometheus_exposition_is_conformant(
        counts in (usizes(0..100), usizes(0..100)),
        lat_ns in vec_of(usizes(0..2_000_000_000), 0..=40),
        sql_ns in vec_of(usizes(0..600_000_000), 0..=40),
        latch_ns in vec_of(usizes(0..50_000_000), 0..=20),
        codes in vec_of(ints(-900..900), 0..=6),
        digest_input in (
            vec_of((usizes(1..6), usizes(0..3_000_000_000), printable(0..=20)), 0..=20),
            usizes(1..8),
        ),
    ) {
        let (reqs, errs) = counts;
        let (digests, top_n) = digest_input;
        let m = dbgw_obs::metrics::Metrics::new();
        m.requests.add(reqs as u64);
        m.request_errors.add(errs as u64);
        for ns in &lat_ns {
            m.request_latency_ns.observe_ns(*ns as u64);
        }
        for ns in &sql_ns {
            m.sql_latency_ns.observe_ns(*ns as u64);
        }
        for ns in &latch_ns {
            m.latch_wait_ns.observe_ns(*ns as u64);
        }
        for c in &codes {
            m.sqlcode_errors.record(*c as i32);
        }
        let store = dbgw_obs::digest::DigestStore::with_capacity(8, true);
        for (key, dur, text) in &digests {
            store.record(
                *key as u64,
                text,
                &dbgw_obs::digest::DigestObservation {
                    dur_ns: *dur as u64,
                    rows_returned: 1,
                    ..Default::default()
                },
            );
        }
        let report = dbgw_obs::slo::evaluate(
            &[dbgw_obs::series::SamplePoint {
                requests: reqs as u64,
                errors: errs.min(reqs) as u64,
                p99_ms: *lat_ns.first().unwrap_or(&0) as f64 / 1e6,
                ..Default::default()
            }],
            &dbgw_obs::slo::SloConfig {
                p99_target_ms: Some(5.0),
                error_budget: Some(0.01),
            },
        );
        let mut text = dbgw_obs::export::render_prometheus(&m);
        text.push_str(&dbgw_obs::export::digest_prometheus(&store, top_n));
        text.push_str(&dbgw_obs::export::slo_prometheus(&report));
        if let Err(e) = check_exposition(&text) {
            prop_assert!(false, "{e}\n--- exposition ---\n{text}");
        }
    }
}

/// The conformance checker also holds on the live process registry — the
/// exact text `/stats?format=prometheus` serves after real gateway traffic.
#[test]
fn live_registry_exposition_is_conformant() {
    let m = dbgw_obs::metrics();
    let gw = gateway();
    let resp = gw.handle(&CgiRequest::get("/urlquery.d2w/report", "SEARCH=Alpha"));
    assert_eq!(resp.status, 200);
    let mut text = dbgw_obs::export::render_prometheus(m);
    text.push_str(&dbgw_obs::export::digest_prometheus(
        dbgw_obs::digests(),
        20,
    ));
    text.push_str(&dbgw_obs::export::slo_prometheus(&dbgw_obs::slo::evaluate(
        &[],
        &dbgw_obs::slo::SloConfig {
            p99_target_ms: Some(5.0),
            error_budget: Some(0.01),
        },
    )));
    check_exposition(&text).unwrap();
}
