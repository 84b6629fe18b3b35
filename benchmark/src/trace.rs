//! The traced run: where the time of a request goes, layer by layer.
//!
//! Spans are recorded from here, around public calls into each layer —
//! nothing inside the program is instrumented. The same seeded requests are
//! replayed serially at three nested levels:
//!
//! ```text
//! http.roundtrip    GET over loopback against the gateway child
//!   gateway.handle  Gateway::handle on an identical database, in process
//!     engine.process  Engine::process through a timing dbgw_core::Database
//!       sql.execute     the Connection::execute calls that run made
//! ```
//!
//! A level's self time is its span minus the level below; the self times
//! must add up to the round trip within `trace.residual_pct`. Counts come
//! from `/stats` deltas of the child; the probes time single public calls.

use crate::child::Gateway;
use crate::json::Json;
use crate::loadgen::{self, Client, Sample};
use crate::rig::{self, Rig};
use crate::server;
use crate::stats::{self, median, percentile};
use crate::wire::Conn;
use crate::workloads::{Fixture, Generator, Request, Workload};
use dbgw_baselines::UrlQueryApp;
use dbgw_cgi::{CgiRequest, MiniSqlDatabase, QueryString};
use dbgw_core::{
    parse_macro, DbError, DbRows, DenyRunner, Engine, Env, Evaluator, MacroFile, Mode,
};
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// Requests of the seeded sequence the replay covers, at most.
const REPLAY_REQUESTS: usize = 1000;
const REPLAY_PASSES: usize = 3;
/// A path no macro or page answers: the edge's cost with no gateway work.
const STATIC_PATH: &str = "/loadrig-static-probe";

/// Name and unit of every per-layer metric, in report order.
pub const METRICS: [(&str, &str); 57] = [
    ("cgi.http.static_roundtrip_us", "us"),
    ("cgi.http.connect_roundtrip_us", "us"),
    ("cgi.http.self_us", "us"),
    ("cgi.http.ctx_switches_per_req", "count"),
    ("cgi.http.keepalive_reuses", "count"),
    ("cgi.http.requests_shed", "count"),
    ("cgi.http.responses_streamed", "count"),
    ("cgi.gateway.handle_us", "us"),
    ("cgi.gateway.self_us", "us"),
    ("cgi.query.parse_us", "us"),
    ("core.parser.parse_macro_us", "us"),
    ("core.subst.substitute_us", "us"),
    ("core.subst.substitutions", "count"),
    ("core.engine.process_us", "us"),
    ("core.engine.self_us", "us"),
    ("core.engine.render_us_per_row", "us"),
    ("core.engine.rows_rendered", "count"),
    ("core.macro_vs_rawcgi_ratio", "ratio"),
    ("minisql.parser.parse_us", "us"),
    ("minisql.exec.select_us", "us"),
    ("minisql.exec.rows_scanned_per_row_returned", "ratio"),
    ("minisql.cache.stmt_hit_ratio", "ratio"),
    ("minisql.cache.result_hit_ratio", "ratio"),
    ("minisql.cache.hit_us", "us"),
    ("cache.bytes", "bytes"),
    ("cache.evictions", "count"),
    ("cache.invalidations", "count"),
    ("minisql.db.update_us", "us"),
    ("minisql.db.row_insert_rows_per_s", "1/s"),
    ("minisql.db.latch_wait_us_per_write", "us"),
    ("minisql.db.snapshots_published", "count"),
    ("minisql.wal.commit_us", "us"),
    ("minisql.wal.fsyncs_per_commit", "ratio"),
    ("minisql.wal.bytes_per_commit", "bytes"),
    ("minisql.wal.group_commit_wait_us", "us"),
    ("minisql.recovery.records_per_s", "1/s"),
    ("minisql.checkpoint.count", "count"),
    ("obs.sql_time_share", "ratio"),
    ("proc.cpu_user_ms", "ms"),
    ("proc.cpu_sys_ms", "ms"),
    ("proc.rss_after_setup_mb", "MB"),
    ("proc.rss_growth_bytes_per_req", "bytes"),
    ("loadgen.latency_p90_ms", "ms"),
    ("loadgen.latency_p99_ms", "ms"),
    ("loadgen.sat_latency_p50_ms", "ms"),
    ("loadgen.read_latency_p50_ms", "ms"),
    ("loadgen.open50.latency_p50_ms", "ms"),
    ("loadgen.open50.latency_p99_ms", "ms"),
    ("loadgen.open80.latency_p50_ms", "ms"),
    ("loadgen.open80.latency_p99_ms", "ms"),
    ("loadgen.open80.late_p99_ms", "ms"),
    ("trace.sum_self_us", "us"),
    ("trace.residual_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("bench.round_spread_pct", "%"),
    ("bench.calibration_ms", "ms"),
    ("bench.mem_calibration_ms", "ms"),
];

pub struct Outcome {
    pub values: Vec<(&'static str, f64)>,
    pub detail: Json,
}

/// One recorded span. Levels are timed in separate sweeps, so a child's
/// clock interval lies inside its parent's only for `sql.execute`; the
/// parent link and the request id are what tie a request's spans together.
struct Span {
    name: &'static str,
    /// 0 = round trip … 3 = execute; a span's parent is one level up.
    level: usize,
    request: usize,
    pass: usize,
    start_us: f64,
    end_us: f64,
}

/// Counter and gauge values of one `/stats?format=prometheus` scrape, label
/// sets summed per family.
struct Stats(HashMap<String, f64>);

impl Stats {
    fn scrape(gw: &Gateway) -> Result<Stats, String> {
        let mut conn = Conn::open(gw.addr).map_err(|e| e.to_string())?;
        let reply = conn
            .get("/stats?format=prometheus")
            .map_err(|e| e.to_string())?;
        if reply.status != 200 {
            return Err(format!("/stats answered {}", reply.status));
        }
        let mut families = HashMap::new();
        for line in String::from_utf8_lossy(conn.body()).lines() {
            if line.starts_with('#') {
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let family = series.split('{').next().unwrap_or(series);
            if let Ok(v) = value.parse::<f64>() {
                *families.entry(family.to_owned()).or_insert(0.0) += v;
            }
        }
        Ok(Stats(families))
    }

    fn get(&self, family: &str) -> f64 {
        self.0.get(family).copied().unwrap_or(0.0)
    }
}

/// `after - before` per family.
struct Delta<'a>(&'a Stats, &'a Stats);

impl Delta<'_> {
    fn of(&self, family: &str) -> f64 {
        self.1.get(family) - self.0.get(family)
    }

    /// `num / den`, or 0 when nothing of the kind happened.
    fn ratio(&self, num: &str, den: &str) -> f64 {
        let d = self.of(den);
        if d > 0.0 {
            self.of(num) / d
        } else {
            0.0
        }
    }
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Median per-call time in µs of `f`, from `samples` timed batches of
/// `batch` calls.
fn probe_us(samples: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut times = Vec::with_capacity(samples);
    for s in 0..samples {
        let t = Instant::now();
        for b in 0..batch {
            f(s * batch + b);
        }
        times.push(us_since(t) / batch as f64);
    }
    median(&times)
}

/// Split a request target into CGI `PATH_INFO` and query string.
fn split_target(target: &str) -> (&str, &str) {
    let rest = target.strip_prefix("/cgi-bin/db2www").unwrap_or(target);
    rest.split_once('?').unwrap_or((rest, ""))
}

/// The bridge to minisql, with every `execute` timed.
struct TimedDb {
    inner: MiniSqlDatabase,
    /// `(start, end)` of each execute since the last drain.
    executes: Vec<(Instant, Instant)>,
}

impl dbgw_core::Database for TimedDb {
    fn execute(&mut self, sql: &str) -> Result<DbRows, DbError> {
        let start = Instant::now();
        let out = self.inner.execute(sql);
        self.executes.push((start, Instant::now()));
        out
    }
    fn begin(&mut self) -> Result<(), DbError> {
        self.inner.begin()
    }
    fn commit(&mut self) -> Result<(), DbError> {
        self.inner.commit()
    }
    fn rollback(&mut self) -> Result<(), DbError> {
        self.inner.rollback()
    }
}

/// A database that answers every statement with the same rows at once, and
/// keeps the time it spent doing so: what is left of `Engine::process` is
/// substitution and rendering.
struct CannedDb {
    rows: DbRows,
    spent_us: f64,
}

impl dbgw_core::Database for CannedDb {
    fn execute(&mut self, _sql: &str) -> Result<DbRows, DbError> {
        let t = Instant::now();
        let rows = self.rows.clone();
        self.spent_us += us_since(t);
        Ok(rows)
    }
    fn begin(&mut self) -> Result<(), DbError> {
        Ok(())
    }
    fn commit(&mut self) -> Result<(), DbError> {
        Ok(())
    }
    fn rollback(&mut self) -> Result<(), DbError> {
        Ok(())
    }
}

/// The replay's outcome: spans, and per (pass, request) the four durations.
struct Replay {
    spans: Vec<Span>,
    roundtrip_us: Vec<f64>,
    handle_us: Vec<f64>,
    process_us: Vec<f64>,
    execute_us: Vec<f64>,
}

fn replay(
    rig: &mut Rig,
    gw: &Gateway,
    db: &minisql::Database,
    requests: &[Request],
) -> Result<Replay, String> {
    let epoch = Instant::now();
    let at = |t: Instant| t.duration_since(epoch).as_secs_f64() * 1e6;
    let gateway = dbgw_cgi::Gateway::new(db.clone());
    let mut macros: HashMap<&str, MacroFile> = HashMap::new();
    for (name, source) in rig.workload.macros() {
        gateway.add_macro(name, source).map_err(|e| e.to_string())?;
        macros.insert(name, parse_macro(source).map_err(|e| e.to_string())?);
    }
    let engine = Engine::new();
    let gen = Generator::new(&rig.fixture, rig.seed, rig::STREAM_OPEN, 0, 1);
    let mut client = Client::open(gw.addr, &rig.fixture, gen)?;
    let n = requests.len();
    let mut out = Replay {
        spans: Vec::with_capacity(n * REPLAY_PASSES * 4),
        roundtrip_us: Vec::new(),
        handle_us: Vec::new(),
        process_us: Vec::new(),
        execute_us: Vec::new(),
    };
    let mut sample = Sample::default();
    for pass in 0..REPLAY_PASSES {
        for (i, req) in requests.iter().enumerate() {
            // The span is the client's own clock: request written → last
            // body byte read, as in the untraced run.
            let start = Instant::now();
            let roundtrip_us = 1e3 * client.issue(req, None, &mut sample).unwrap_or(0.0);
            out.roundtrip_us.push(roundtrip_us);
            out.spans.push(Span {
                name: "http.roundtrip",
                level: 0,
                request: i,
                pass,
                start_us: at(start),
                end_us: at(start) + roundtrip_us,
            });
        }
        for (i, req) in requests.iter().enumerate() {
            let (path_info, query) = split_target(&req.path);
            let cgi = CgiRequest::get(path_info, query);
            let start = Instant::now();
            let response = gateway.handle(&cgi);
            let end = Instant::now();
            if response.status != 200 {
                rig.tally.violations.push(format!(
                    "in-process handle of {} answered {}",
                    req.path, response.status
                ));
            }
            out.handle_us.push(at(end) - at(start));
            out.spans.push(Span {
                name: "gateway.handle",
                level: 1,
                request: i,
                pass,
                start_us: at(start),
                end_us: at(end),
            });
        }
        let mut timed = TimedDb {
            inner: MiniSqlDatabase::connect(db),
            executes: Vec::new(),
        };
        for (i, req) in requests.iter().enumerate() {
            let (path_info, query) = split_target(&req.path);
            let mut parts = path_info.trim_start_matches('/').split('/');
            let mac = parts
                .next()
                .and_then(|m| macros.get(m))
                .ok_or("unknown macro")?;
            let mode = parts
                .next()
                .and_then(Mode::from_command)
                .ok_or("unknown command")?;
            let inputs: Vec<(String, String)> = QueryString::parse(query).pairs().to_vec();
            let start = Instant::now();
            let page = engine.process(mac, mode, &inputs, &mut timed);
            let end = Instant::now();
            if let Err(e) = page {
                rig.tally
                    .violations
                    .push(format!("in-process Engine::process of {}: {e}", req.path));
            }
            out.process_us.push(at(end) - at(start));
            out.spans.push(Span {
                name: "engine.process",
                level: 2,
                request: i,
                pass,
                start_us: at(start),
                end_us: at(end),
            });
            let mut spent = 0.0;
            for (s, e) in timed.executes.drain(..) {
                spent += at(e) - at(s);
                out.spans.push(Span {
                    name: "sql.execute",
                    level: 3,
                    request: i,
                    pass,
                    start_us: at(s),
                    end_us: at(e),
                });
            }
            out.execute_us.push(spent);
        }
    }
    rig.tally.add(&sample);
    Ok(out)
}

/// One line per span; ids are unique per (pass, request, level) and a span's
/// parent is the same request's span one level up.
fn write_spans(rig: &Rig, spans: &[Span], requests: usize) -> Result<(), String> {
    let path = rig
        .out_dir
        .join(format!("trace-{}.jsonl", rig.workload.name()));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    for s in spans {
        let id = (s.pass * requests + s.request) * 4 + s.level;
        let line = Json::obj([
            ("name", Json::str(s.name)),
            ("id", Json::Num(id as f64)),
            (
                "parent",
                if s.level == 0 {
                    Json::Null
                } else {
                    Json::Num((id - 1) as f64)
                },
            ),
            ("request", Json::Num(s.request as f64)),
            ("pass", Json::Num(s.pass as f64)),
            ("start_us", Json::Num(s.start_us)),
            ("end_us", Json::Num(s.end_us)),
        ]);
        writeln!(out, "{}", line.render()).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// Medians of the per-request self times, top level first.
struct Waterfall {
    roundtrip: f64,
    http_self: f64,
    handle: f64,
    gateway_self: f64,
    process: f64,
    engine_self: f64,
    execute: f64,
}

impl Waterfall {
    /// Over the workload's subject requests only (`subject[i]` for request
    /// `i` of each pass): the `UPDATE`s on `write_mix`, everything elsewhere.
    fn of(r: &Replay, subject: &[bool]) -> Waterfall {
        let pick = |v: &[f64]| -> Vec<f64> {
            v.iter()
                .enumerate()
                .filter(|(i, _)| subject[i % subject.len()])
                .map(|(_, x)| *x)
                .collect()
        };
        let (rt, handle, process, execute) = (
            pick(&r.roundtrip_us),
            pick(&r.handle_us),
            pick(&r.process_us),
            pick(&r.execute_us),
        );
        let diff = |a: &[f64], b: &[f64]| -> f64 {
            let d: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
            median(&d).max(0.0)
        };
        Waterfall {
            roundtrip: median(&rt),
            http_self: diff(&rt, &handle),
            handle: median(&handle),
            gateway_self: diff(&handle, &process),
            process: median(&process),
            engine_self: diff(&process, &execute),
            execute: median(&execute),
        }
    }

    fn sum_self(&self) -> f64 {
        self.http_self + self.gateway_self + self.engine_self + self.execute
    }

    fn residual_percentile(&self) -> f64 {
        100.0 * (self.sum_self() - self.roundtrip).abs() / self.roundtrip.max(1e-9)
    }

    fn print(&self, workload: Workload, requests: usize) {
        let bar = |us: f64| "#".repeat((40.0 * us / self.roundtrip.max(1e-9)).round() as usize);
        eprintln!(
            "waterfall {}: {requests} requests x {REPLAY_PASSES} passes, median us (self times bar-charted)",
            workload.name()
        );
        eprintln!("  http.roundtrip                {:>10.1}", self.roundtrip);
        eprintln!(
            "    cgi::evloop+http (self)     {:>10.1} {}",
            self.http_self,
            bar(self.http_self)
        );
        eprintln!("    gateway.handle              {:>10.1}", self.handle);
        eprintln!(
            "      cgi::gateway (self)       {:>10.1} {}",
            self.gateway_self,
            bar(self.gateway_self)
        );
        eprintln!("      engine.process            {:>10.1}", self.process);
        eprintln!(
            "        core::engine+subst (self){:>9.1} {}",
            self.engine_self,
            bar(self.engine_self)
        );
        eprintln!(
            "        sql.execute (minisql)   {:>10.1} {}",
            self.execute,
            bar(self.execute)
        );
        eprintln!(
            "  sum of self times             {:>10.1}   residual {:.1}% of the round trip",
            self.sum_self(),
            self.residual_percentile()
        );
    }
}

/// Probes against the child's HTTP edge.
fn edge_probes(gw: &Gateway) -> Result<(f64, f64), String> {
    let mut conn = Conn::open(gw.addr).map_err(|e| e.to_string())?;
    let mut failed = None;
    let keepalive = probe_us(300, 1, |_| match conn.get(STATIC_PATH) {
        Ok(r) if r.status == 404 => {}
        other => failed = Some(format!("static probe: {:?}", other.map(|r| r.status))),
    });
    let fresh = probe_us(100, 1, |_| {
        let got = Conn::open(gw.addr).and_then(|mut c| c.get(STATIC_PATH));
        if !matches!(&got, Ok(r) if r.status == 404) {
            failed = Some(format!("connect probe: {:?}", got.map(|r| r.status)));
        }
    });
    failed.map_or(Ok((keepalive, fresh)), Err)
}

/// Probes of single public calls into `core`, `cgi::query` and `baselines`.
fn core_probes(fixture: &Fixture, requests: &[Request]) -> Result<[f64; 5], String> {
    let queries: Vec<&str> = requests.iter().map(|r| split_target(&r.path).1).collect();
    let query_parse = probe_us(60, 100, |i| {
        std::hint::black_box(QueryString::parse(queries[i % queries.len()]));
    });
    let macro_source = fixture.workload.macros()[0].1;
    let parse_macro_us = probe_us(200, 1, |_| {
        std::hint::black_box(parse_macro(std::hint::black_box(macro_source)).is_ok());
    });

    // One %ROW line's worth of substitution: five variable references.
    let mut env = Env::new();
    for (i, value) in ["4711", "17", "flange 12", "3", "38.07"].iter().enumerate() {
        env.push_input(&format!("V{}", i + 1), value);
    }
    let row = "<TR><TD>$(V1)</TD><TD>$(V2)</TD><TD>$(V3)</TD><TD>$(V4)</TD><TD>$(V5)</TD></TR>\n";
    let substitute = probe_us(60, 100, |_| {
        let mut ev = Evaluator::new(&env, &DenyRunner);
        std::hint::black_box(ev.substitute(std::hint::black_box(row)).is_ok());
    });

    // Rendering alone: the orders report over canned rows, 1000 against 0.
    let orders = parse_macro(crate::workloads::ORDERS_MACRO).map_err(|e| e.to_string())?;
    let engine = Engine::new();
    let columns: Vec<String> = ["orderid", "custid", "product_name", "quantity", "price"]
        .map(String::from)
        .to_vec();
    let render = |rows: usize| {
        let mut db = CannedDb {
            rows: DbRows {
                columns: columns.clone(),
                rows: (0..rows)
                    .map(|i| {
                        vec![
                            i.to_string(),
                            "17".into(),
                            "flange 12".into(),
                            "3".into(),
                            "38.07".into(),
                        ]
                    })
                    .collect(),
                affected: 0,
            },
            spent_us: 0.0,
        };
        let times: Vec<f64> = (0..15)
            .map(|_| {
                db.spent_us = 0.0;
                let t = Instant::now();
                std::hint::black_box(engine.process(&orders, Mode::Report, &[], &mut db).is_ok());
                us_since(t) - db.spent_us
            })
            .collect();
        median(&times)
    };
    let render_per_row = (render(1000) - render(0)).max(0.0) / 1000.0;

    // The macro stack against hand-written CGI on the same query (E3).
    let scan = Fixture::new(Workload::ScanReport);
    let urldb = minisql::Database::new();
    let mut conn = urldb.connect();
    for sql in scan.load_sql() {
        conn.execute(&sql).map_err(|e| e.to_string())?;
    }
    let raw = dbgw_baselines::rawcgi::RawCgiUrlQuery::new(urldb.clone());
    let urlquery = parse_macro(crate::workloads::URLQUERY_MACRO).map_err(|e| e.to_string())?;
    let mut gen = Generator::new(&scan, 1, 0, 0, 1);
    let searches: Vec<QueryString> = (0..24)
        .map(|_| QueryString::parse(split_target(&gen.next().path).1))
        .collect();
    let raw_us = probe_us(searches.len(), 1, |i| {
        std::hint::black_box(raw.report_page(&searches[i]).len());
    });
    let macro_us = probe_us(searches.len(), 1, |i| {
        let mut db = MiniSqlDatabase::connect(&urldb);
        let inputs = searches[i].pairs().to_vec();
        std::hint::black_box(
            engine
                .process(&urlquery, Mode::Report, &inputs, &mut db)
                .is_ok(),
        );
    });
    Ok([
        query_parse,
        parse_macro_us,
        substitute,
        render_per_row,
        macro_us / raw_us.max(1e-9),
    ])
}

/// Probes of `minisql`: the workload's statements on an uncached in-memory
/// copy of the fixture (`select_us`, `update_us`), a repeated statement on a
/// cached copy (`hit_us`), and loading a table one row at a time.
fn sql_probes(fixture: &Fixture, requests: &[Request]) -> Result<[f64; 5], String> {
    let selects: Vec<String> = requests
        .iter()
        .filter(|r| !r.kind.is_write())
        .filter_map(|r| fixture.sql_for(r))
        .take(100)
        .collect();
    let parse = probe_us(selects.len().min(60), 20, |i| {
        std::hint::black_box(minisql::parse(&selects[i % selects.len()]).is_ok());
    });

    let uncached = minisql::Database::without_cache();
    server::ensure_fixture(&uncached, fixture)?;
    let mut conn = uncached.connect();
    let mut failed = false;
    let select = probe_us(selects.len(), 1, |i| {
        failed |= conn.execute(&selects[i]).is_err()
    });
    let update = probe_us(100, 1, |i| {
        failed |= conn.execute(&fixture.update_sql(i)).is_err()
    });

    // A result-cache hit: the same statement again, straight away.
    let cached = minisql::Database::new();
    server::ensure_fixture(&cached, fixture)?;
    let mut conn = cached.connect();
    let hits: Vec<f64> = selects
        .iter()
        .map(|sql| {
            failed |= conn.execute(sql).is_err();
            let t = Instant::now();
            failed |= conn.execute(sql).is_err();
            us_since(t)
        })
        .collect();
    let hit = median(&hits);

    let scratch = minisql::Database::without_cache();
    let mut conn = scratch.connect();
    conn.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, c INTEGER NOT NULL, name VARCHAR(60))")
        .map_err(|e| e.to_string())?;
    const ROWS: usize = 2000;
    let t = Instant::now();
    for i in 0..ROWS {
        failed |= conn
            .execute(&format!(
                "INSERT INTO t VALUES ({i}, {}, 'flange {i}')",
                i % 97
            ))
            .is_err();
    }
    let insert_rate = ROWS as f64 / t.elapsed().as_secs_f64();
    if failed {
        return Err("a minisql probe statement failed".into());
    }
    Ok([parse, select, update, hit, insert_rate])
}

pub fn run(rig: &mut Rig) -> Result<Outcome, String> {
    // The traced run keeps the untraced run's phase lengths but makes half
    // the rounds; the other half of the time goes to the open loop, the
    // replay and the probes.
    rig.plan.rounds /= 2;
    let (gw, dir, _) = rig.cold_boot()?;
    let rss_after_setup = gw.rss_mb();
    rig.warm_up(&gw)?;

    let before = Stats::scrape(&gw)?;
    let rss_before = gw.rss_mb();
    let ctx_before = gw.ctx_switches();
    let mut rounds = rig::Rounds::default();
    for round in 0..rig.plan.rounds {
        rig.round(&gw, round, &mut rounds)?;
    }
    let ctx_after = gw.ctx_switches();
    let rss_after = gw.rss_mb();
    let after = Stats::scrape(&gw)?;
    let d = Delta(&before, &after);
    let throughput = median(&rounds.throughput_rps);
    let lone_p50 = median(&rounds.lone_p50_ms);

    // Open loop at 50% and 80% of what this run's saturated phases reached.
    let mut open_clients = rig.saturated_clients(&gw, rig::STREAM_OPEN)?;
    let open_len = rig.plan.saturated;
    let open50 = loadgen::open_phase(&mut open_clients, 0.5 * throughput, open_len, rig.seed);
    let open80 = loadgen::open_phase(&mut open_clients, 0.8 * throughput, open_len, rig.seed + 1);
    rig.tally.add(&open50.sample);
    rig.tally.add(&open80.sample);
    drop(open_clients);

    // The replay covers as much of the sequence as three saturated phases'
    // worth of time allows: nine sweeps of each request, costed at what a
    // lone-phase request took on average.
    let budget_s = 3.0 * rig.plan.saturated.as_secs_f64();
    let cost_s = rounds.lone.elapsed_s / rounds.lone.attempted.max(1) as f64;
    let n = ((budget_s / (9.0 * cost_s.max(1e-6))) as usize).clamp(20, REPLAY_REQUESTS);
    let mut gen = Generator::new(&rig.fixture, rig.seed, 0, 0, 1);
    let requests: Vec<Request> = (0..n).map(|_| gen.next()).collect();
    let traced_dir = rig.fresh_dir()?;
    let traced_db = minisql::Database::open(&traced_dir).map_err(|e| e.to_string())?;
    server::ensure_fixture(&traced_db, &rig.fixture)?;
    let replayed = replay(rig, &gw, &traced_db, &requests)?;
    write_spans(rig, &replayed.spans, n)?;
    let subject: Vec<bool> = requests.iter().map(|r| rig.fixture.is_subject(r)).collect();
    let fall = Waterfall::of(&replayed, &subject);
    fall.print(rig.workload, n);

    let (static_rt, connect_rt) = edge_probes(&gw)?;
    gw.kill();
    let _ = std::fs::remove_dir_all(&dir);

    // Durable commits and recovery, on the replay's own database.
    let mut failed = false;
    let mut conn = traced_db.connect();
    let commit = probe_us(60, 1, |i| {
        failed |= conn.execute(&rig.fixture.update_sql(i)).is_err()
    });
    drop(conn);
    traced_db.close();
    drop(traced_db);
    let t = Instant::now();
    let reopened = minisql::Database::open(&traced_dir).map_err(|e| e.to_string())?;
    let recovery_s = t.elapsed().as_secs_f64();
    reopened.close();
    drop(reopened);
    let _ = std::fs::remove_dir_all(&traced_dir);
    if failed {
        return Err("a durable probe update failed".into());
    }
    let records_per_s = rig.workload.fixture_rows() as f64 / recovery_s.max(1e-9);

    let [query_parse, macro_parse, substitute, render_row, macro_ratio] =
        core_probes(&rig.fixture, &requests)?;
    let [sql_parse, select, update, hit, insert_rate] = sql_probes(&rig.fixture, &requests)?;

    let requests_served = d.of("dbgw_requests_total").max(1.0);
    let saturated_done = rounds.saturated.completed().max(1) as f64;
    let values = vec![
        ("cgi.http.static_roundtrip_us", static_rt),
        ("cgi.http.connect_roundtrip_us", connect_rt),
        ("cgi.http.self_us", fall.http_self),
        (
            "cgi.http.ctx_switches_per_req",
            (ctx_after - ctx_before) / requests_served,
        ),
        (
            "cgi.http.keepalive_reuses",
            d.of("dbgw_keepalive_reuses_total"),
        ),
        ("cgi.http.requests_shed", d.of("dbgw_requests_shed_total")),
        (
            "cgi.http.responses_streamed",
            d.of("dbgw_responses_streamed_total"),
        ),
        ("cgi.gateway.handle_us", fall.handle),
        ("cgi.gateway.self_us", fall.gateway_self),
        ("cgi.query.parse_us", query_parse),
        ("core.parser.parse_macro_us", macro_parse),
        ("core.subst.substitute_us", substitute),
        (
            "core.subst.substitutions",
            d.of("dbgw_substitutions_total") / requests_served,
        ),
        ("core.engine.process_us", fall.process),
        ("core.engine.self_us", fall.engine_self),
        ("core.engine.render_us_per_row", render_row),
        (
            "core.engine.rows_rendered",
            d.of("dbgw_rows_rendered_total") / requests_served,
        ),
        ("core.macro_vs_rawcgi_ratio", macro_ratio),
        ("minisql.parser.parse_us", sql_parse),
        ("minisql.exec.select_us", select),
        (
            "minisql.exec.rows_scanned_per_row_returned",
            d.ratio("dbgw_rows_scanned_total", "dbgw_digest_rows_returned_total"),
        ),
        (
            "minisql.cache.stmt_hit_ratio",
            hit_ratio(
                &d,
                "dbgw_stmt_cache_hits_total",
                "dbgw_stmt_cache_misses_total",
            ),
        ),
        (
            "minisql.cache.result_hit_ratio",
            hit_ratio(&d, "dbgw_cache_hits_total", "dbgw_cache_misses_total"),
        ),
        ("minisql.cache.hit_us", hit),
        ("cache.bytes", after.get("dbgw_cache_bytes")),
        ("cache.evictions", d.of("dbgw_cache_evictions_total")),
        (
            "cache.invalidations",
            d.of("dbgw_cache_invalidations_total"),
        ),
        ("minisql.db.update_us", update),
        ("minisql.db.row_insert_rows_per_s", insert_rate),
        (
            "minisql.db.latch_wait_us_per_write",
            1e6 * d.ratio("dbgw_latch_wait_seconds_sum", "dbgw_wal_records_total"),
        ),
        (
            "minisql.db.snapshots_published",
            d.of("dbgw_snapshots_published_total"),
        ),
        ("minisql.wal.commit_us", commit),
        (
            "minisql.wal.fsyncs_per_commit",
            d.ratio("dbgw_wal_fsyncs_total", "dbgw_wal_records_total"),
        ),
        (
            "minisql.wal.bytes_per_commit",
            d.ratio("dbgw_wal_bytes_total", "dbgw_wal_records_total"),
        ),
        (
            "minisql.wal.group_commit_wait_us",
            1e6 * d.ratio(
                "dbgw_group_commit_wait_seconds_sum",
                "dbgw_group_commit_wait_seconds_count",
            ),
        ),
        ("minisql.recovery.records_per_s", records_per_s),
        ("minisql.checkpoint.count", d.of("dbgw_checkpoints_total")),
        (
            "obs.sql_time_share",
            d.ratio(
                "dbgw_sql_latency_seconds_sum",
                "dbgw_request_latency_seconds_sum",
            ),
        ),
        (
            "proc.cpu_user_ms",
            rounds.saturated_cpu_ms.0 / saturated_done,
        ),
        (
            "proc.cpu_sys_ms",
            rounds.saturated_cpu_ms.1 / saturated_done,
        ),
        ("proc.rss_after_setup_mb", rss_after_setup),
        (
            "proc.rss_growth_bytes_per_req",
            (rss_after - rss_before) * 1024.0 * 1024.0 / requests_served,
        ),
        (
            "loadgen.latency_p90_ms",
            percentile(&rounds.lone.latency_ms, 90.0),
        ),
        (
            "loadgen.latency_p99_ms",
            percentile(&rounds.lone.latency_ms, 99.0),
        ),
        (
            "loadgen.sat_latency_p50_ms",
            median(&rounds.saturated.latency_ms),
        ),
        (
            "loadgen.read_latency_p50_ms",
            median(&rounds.lone.read_latency_ms),
        ),
        (
            "loadgen.open50.latency_p50_ms",
            median(&open50.sample.latency_ms),
        ),
        (
            "loadgen.open50.latency_p99_ms",
            percentile(&open50.sample.latency_ms, 99.0),
        ),
        (
            "loadgen.open80.latency_p50_ms",
            median(&open80.sample.latency_ms),
        ),
        (
            "loadgen.open80.latency_p99_ms",
            percentile(&open80.sample.latency_ms, 99.0),
        ),
        (
            "loadgen.open80.late_p99_ms",
            percentile(&open80.late_ms, 99.0),
        ),
        ("trace.sum_self_us", fall.sum_self()),
        ("trace.residual_pct", fall.residual_percentile()),
        (
            "trace.overhead_pct",
            100.0 * (fall.roundtrip / 1e3 - lone_p50) / lone_p50.max(1e-9),
        ),
        (
            "bench.round_spread_pct",
            100.0 * stats::range_share(&rounds.lone_p50_ms),
        ),
        ("bench.calibration_ms", median(&rounds.alu_calibration_ms)),
        (
            "bench.mem_calibration_ms",
            median(&rounds.mem_calibration_ms),
        ),
    ];
    let detail = Json::obj([
        ("replayed_requests", Json::Num(n as f64)),
        ("replay_passes", Json::Num(REPLAY_PASSES as f64)),
        (
            "lone_samples",
            Json::Num(rounds.lone.latency_ms.len() as f64),
        ),
        ("open50_offered_rps", Json::Num(0.5 * throughput)),
        ("open80_offered_rps", Json::Num(0.8 * throughput)),
        ("open80_requests", Json::Num(open80.sample.attempted as f64)),
        ("throughput_rps", Json::Num(throughput)),
        ("lone_latency_p50_ms", Json::Num(lone_p50)),
        (
            "round_latency_p50_ms",
            Json::Arr(rounds.lone_p50_ms.iter().map(|x| Json::Num(*x)).collect()),
        ),
    ]);
    Ok(Outcome { values, detail })
}

fn hit_ratio(d: &Delta, hits: &str, misses: &str) -> f64 {
    let (h, m) = (d.of(hits), d.of(misses));
    if h + m > 0.0 {
        h / (h + m)
    } else {
        0.0
    }
}
