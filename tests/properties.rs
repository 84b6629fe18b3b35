//! Property-based tests on cross-crate invariants.

use dbgw_cgi::{CgiRequest, Gateway, QueryString};
use dbgw_core::db::{DbRows, FnDatabase};
use dbgw_core::{parse_macro, Engine, Mode};
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

    /// SQL-script dump/load round-trips arbitrary typed data exactly.
    fn dump_round_trips_random_data(
        rows in vec_of(
            (
                any_i64(),
                option_of(printable(0..=16).exclude("'")),
                option_of(f64s(-1.0e6..1.0e6)),
            ),
            0..=19,
        ),
    ) {
        let db = minisql::Database::new();
        db.run_script("CREATE TABLE r (i INTEGER, t VARCHAR(20), d DOUBLE)").unwrap();
        let mut conn = db.connect();
        for (i, t, d) in &rows {
            conn.execute_with_params(
                "INSERT INTO r VALUES (?, ?, ?)",
                &[
                    minisql::Value::Int(*i),
                    t.clone().map(minisql::Value::Text).unwrap_or(minisql::Value::Null),
                    d.map(minisql::Value::Double).unwrap_or(minisql::Value::Null),
                ],
            ).unwrap();
        }
        let script = minisql::dump::dump_script(&db).unwrap();
        let restored = minisql::dump::load_dump(&script).unwrap();
        prop_assert!(minisql::dump::databases_equal(&db, &restored).unwrap(), "script:\n{script}");
    }

    /// CSV export/import round-trips arbitrary text data (incl. quotes,
    /// commas, newlines, NULL-vs-empty) exactly.
    fn csv_round_trips_random_text(rows in vec_of(option_of(printable(0..=16)), 0..=19)) {
        csv_round_trips(&rows)?;
    }

    /// Cache transparency: the same random statement sequence against a
    /// cached and an uncached database yields byte-identical results at every
    /// step and identical final states. Caching may only change speed.
    fn cache_is_transparent(ops in vec_of((usizes(0..4), ints(0..40)), 1..=24)) {
        let cached = minisql::Database::with_cache_config(&dbgw_cache::CacheConfig::default());
        let plain = minisql::Database::without_cache();
        for db in [&cached, &plain] {
            db.run_script("CREATE TABLE t (v INTEGER)").unwrap();
        }
        let mut cached_conn = cached.connect();
        let mut plain_conn = plain.connect();
        for (op, x) in &ops {
            let sql = match op {
                0 => format!("INSERT INTO t VALUES ({x})"),
                1 => format!("SELECT COUNT(*) FROM t WHERE v < {x}"),
                2 => "SELECT v FROM t ORDER BY v".to_owned(),
                _ => format!("DELETE FROM t WHERE v = {x}"),
            };
            let warm = cached_conn.execute(&sql);
            let cold = plain_conn.execute(&sql);
            prop_assert_eq!(&warm, &cold, "results diverged on {}", sql);
        }
        prop_assert!(minisql::dump::databases_equal(&cached, &plain).unwrap());
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

/// Shared body for the CSV round-trip property and its pinned regressions.
fn csv_round_trips(rows: &[Option<String>]) -> Result<(), String> {
    let db = minisql::Database::new();
    db.run_script("CREATE TABLE c (t VARCHAR(40))").unwrap();
    let mut conn = db.connect();
    for t in rows {
        conn.execute_with_params(
            "INSERT INTO c VALUES (?)",
            &[t.clone()
                .map(minisql::Value::Text)
                .unwrap_or(minisql::Value::Null)],
        )
        .unwrap();
    }
    let csv = minisql::csv::export_table(&db, "c").unwrap();
    let dest = minisql::Database::new();
    dest.run_script("CREATE TABLE c (t VARCHAR(40))").unwrap();
    minisql::csv::import_table(&dest, "c", &csv).unwrap();
    prop_assert!(
        minisql::dump::databases_equal(&db, &dest).unwrap(),
        "csv:\n{csv:?}"
    );
    Ok(())
}

/// Regression pinned from a recorded proptest shrink (`.proptest-regressions`,
/// now retired): a single row holding the literal text "0" must survive the
/// CSV round-trip — it must not be conflated with the number 0 or with NULL.
#[test]
fn csv_round_trip_regression_zero_text() {
    csv_round_trips(&[Some("0".to_string())]).unwrap();
}
