//! What a run prints and keeps, and the two commands that judge result
//! files by the bounds in `BENCHMARK.json`: `compare` and `selfcheck`.

use crate::json::Json;
use crate::rig::Rig;
use crate::stats;
use crate::workloads::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Facts about the machine and the build a result came from, so that two
/// results that disagree can be told apart by more than their numbers.
pub fn provenance(rig: &Rig, seconds: f64, trace: bool) -> Json {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .unwrap_or_default()
            .trim()
            .to_owned()
    };
    let commit = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        });
    Json::obj([
        ("workload", Json::str(rig.workload.name())),
        ("seed", Json::Num(rig.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(trace)),
        ("rounds", Json::Num(rig.plan.rounds as f64)),
        ("nproc", Json::Num(rig.nproc as f64)),
        ("load_threads", Json::Num(rig.load_threads() as f64)),
        ("generator_cpus", cpus(rig.placement.as_ref().map(|p| &p.generator))),
        ("gateway_cpus", cpus(rig.placement.as_ref().map(|p| &p.gateway))),
        ("kernel", Json::str(read("/proc/sys/kernel/osrelease"))),
        ("commit", Json::str(commit)),
        ("data_dir_fs", Json::str(fs_type(&rig.out_dir))),
        (
            "flush_policy",
            Json::str("shipped default: fsync before every commit is acknowledged (no DBGW_* variable set)"),
        ),
        (
            "crash_model",
            Json::str(
                "SIGKILL keeps the operating system's page cache, so the read-back after each \
                 crash proves write-ahead ordering and replay, not that the device persisted the log",
            ),
        ),
    ])
}

/// A side's CPUs, or `"unpinned"` on a single-CPU machine.
fn cpus(side: Option<&Vec<usize>>) -> Json {
    Json::str(side.map_or("unpinned".to_owned(), |c| crate::affinity::format_cpus(c)))
}

/// Filesystem type of the mount that holds `path`.
fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split(' ');
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_owned(), |(_, fs)| fs.to_owned())
}

/// `{"name": {"value": v, "unit": u}, ...}` as the driver reads it.
pub fn metrics_json(values: &[(&'static str, f64)], units: &[(&str, &str)]) -> Json {
    Json::obj(values.iter().map(|(name, value)| {
        let unit = units
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} has no declared unit"))
            .1;
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
        )
    }))
}

// ---------------------------------------------------------------------------
// Bounds and result files

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn bounds() -> Result<Vec<Bound>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec = Json::parse(&text)?;
    let list = spec
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?;
    list.as_arr()
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_owned(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_owned())
}

/// `workload → metric → values`, from one or more runs' results.
type Table = Vec<(String, Vec<(String, Vec<f64>)>)>;

fn table_of(runs: &[Json]) -> Table {
    let mut table: Table = Vec::new();
    for run in runs {
        let workload = run
            .get("provenance")
            .and_then(|p| p.get("workload"))
            .or_else(|| run.get("workload"))
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        let at = table
            .iter()
            .position(|(w, _)| w == workload)
            .unwrap_or_else(|| {
                table.push((workload.to_owned(), Vec::new()));
                table.len() - 1
            });
        let row = &mut table[at].1;
        for (name, metric) in run.get("metrics").map_or(&[][..], Json::entries) {
            let Some(value) = metric.get("value").and_then(Json::as_f64) else {
                continue;
            };
            match row.iter_mut().find(|(n, _)| n == name) {
                Some((_, values)) => values.push(value),
                None => row.push((name.clone(), vec![value])),
            }
        }
    }
    table
}

fn load_table(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(table_of(std::slice::from_ref(&file)))
}

/// By what share of `a` is `b` worse (negative when better)?
fn worse_by(bound: &Bound, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if bound.lower_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    }
}

/// Apply the bounds to the medians of two tables. Returns the report lines
/// and whether B stayed within every bound.
fn judge(a: &Table, b: &Table, bounds: &[Bound]) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut ok = true;
    for (workload, metrics_a) in a {
        let Some((_, metrics_b)) = b.iter().find(|(w, _)| w == workload) else {
            continue;
        };
        for bound in bounds {
            let find = |m: &[(String, Vec<f64>)]| {
                m.iter()
                    .find(|(n, _)| *n == bound.name)
                    .map(|(_, v)| stats::median(v))
            };
            let (Some(ma), Some(mb)) = (find(metrics_a), find(metrics_b)) else {
                continue;
            };
            let worse = worse_by(bound, ma, mb);
            let verdict = if worse > bound.bound {
                ok = false;
                "REGRESSION"
            } else {
                "ok"
            };
            lines.push(format!(
                "{workload:12} {:16} A {ma:>12.4}  B {mb:>12.4}  worse by {:>6.1}%  (bound {:.0}%)  {verdict}",
                bound.name,
                100.0 * worse,
                100.0 * bound.bound
            ));
        }
    }
    (lines, ok)
}

/// `compare A.json B.json`: is run B (a `benchmark/out/result-*.json`) within
/// every bound of run A?
pub fn compare(a: &str, b: &str) -> Result<bool, String> {
    let (lines, ok) = judge(&load_table(a)?, &load_table(b)?, &bounds()?);
    for line in lines {
        println!("{line}");
    }
    Ok(ok)
}

// ---------------------------------------------------------------------------
// selfcheck

fn summary(values: &[f64]) -> Json {
    let (q1, q3) = stats::quartiles(values);
    Json::obj([
        ("median", Json::Num(stats::median(values))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("iqr_share", Json::Num(stats::iqr_share(values))),
        ("range_share", Json::Num(stats::range_share(values))),
        (
            "values",
            Json::Arr(values.iter().map(|v| Json::Num(*v)).collect()),
        ),
    ])
}

/// ISSUE 12's own steadiness criterion: `(max - min) / median` within a set.
const ISSUE_RANGE_LIMIT: f64 = 0.10;

/// `selfcheck`: two sets of `runs` runs per workload of this same build,
/// alternating A, B, A, B, each run on its own seed. Judged by two rules and
/// reported under both. The benchmark driver's rule, which decides the exit
/// status: a metric's inter-quartile spread within a set stays within its
/// bound (`setup_s` exempt) and set B's median is not worse than set A's by
/// more than the bound. ISSUE 12's rule: `(max - min) / median` within a set
/// stays within a tenth.
pub fn selfcheck(runs: usize, seconds: f64, out: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bounds = bounds()?;
    let mut sets: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
    for workload in Workload::ALL {
        for i in 0..runs * 2 {
            let seed = 1000 + i;
            eprintln!(
                "selfcheck: {} set {} seed {seed}",
                workload.name(),
                ["A", "B"][i % 2]
            );
            let output = Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", "0"])
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .stderr(std::process::Stdio::null())
                .output()
                .map_err(|e| e.to_string())?;
            let line = String::from_utf8_lossy(&output.stdout);
            let line = line.lines().last().unwrap_or("");
            let mut result =
                Json::parse(line).map_err(|e| format!("run printed no result: {e}"))?;
            if result.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!(
                    "{} seed {seed} was not correct: {line}",
                    workload.name()
                ));
            }
            if let Json::Obj(pairs) = &mut result {
                pairs.insert(0, ("workload".into(), Json::str(workload.name())));
                pairs.insert(1, ("seed".into(), Json::Num(seed as f64)));
            }
            sets[i % 2].push(result);
        }
    }
    let (a, b) = (table_of(&sets[0]), table_of(&sets[1]));
    let (lines, mut ok) = judge(&a, &b, &bounds);
    let mut range_misses = Vec::new();
    let mut report = Vec::new();
    for (workload, metrics_a) in &a {
        let metrics_b = &b
            .iter()
            .find(|(w, _)| w == workload)
            .expect("both sets ran it")
            .1;
        let mut per_metric = Vec::new();
        for bound in &bounds {
            let values = |m: &[(String, Vec<f64>)]| {
                m.iter()
                    .find(|(n, _)| *n == bound.name)
                    .map_or(Vec::new(), |(_, v)| v.clone())
            };
            let (va, vb) = (values(metrics_a), values(metrics_b));
            let iqr = stats::iqr_share(&va).max(stats::iqr_share(&vb));
            let range = stats::range_share(&va).max(stats::range_share(&vb));
            let steady = bound.name == "setup_s" || iqr <= bound.bound;
            ok &= steady;
            let in_range = range <= ISSUE_RANGE_LIMIT;
            if !in_range {
                range_misses.push(Json::str(format!("{workload}/{}", bound.name)));
            }
            println!(
                "{workload:12} {:16} median {:>12.4} / {:>12.4}  iqr {:>5.1}% / {:>5.1}%  range {:>5.1}% / {:>5.1}%  {}{}",
                bound.name,
                stats::median(&va),
                stats::median(&vb),
                100.0 * stats::iqr_share(&va),
                100.0 * stats::iqr_share(&vb),
                100.0 * stats::range_share(&va),
                100.0 * stats::range_share(&vb),
                if steady { "ok" } else { "TOO NOISY" },
                if in_range { "" } else { "  (range over a tenth)" }
            );
            per_metric.push((
                bound.name.clone(),
                Json::obj([
                    ("bound", Json::Num(bound.bound)),
                    ("set_a", summary(&va)),
                    ("set_b", summary(&vb)),
                    (
                        "b_worse_than_a_by",
                        Json::Num(worse_by(bound, stats::median(&va), stats::median(&vb))),
                    ),
                    ("iqr_within_bound", Json::Bool(steady)),
                    ("range_within_tenth", Json::Bool(in_range)),
                ]),
            ));
        }
        report.push((workload.clone(), Json::Obj(per_metric)));
    }
    for line in lines {
        println!("{line}");
    }
    let pairs = report.len() * bounds.len();
    let file = Json::obj([
        (
            "rules",
            Json::obj([
                (
                    "driver",
                    Json::str(
                        "iqr_share = (q3 - q1) / median, quartiles as Python's \
                         statistics.quantiles(n=4), within each metric's bound in both sets \
                         (setup_s exempt), and set B's median not worse than set A's by more \
                         than the bound",
                    ),
                ),
                (
                    "issue_12",
                    Json::str("range_share = (max - min) / median within 0.10 in both sets"),
                ),
            ]),
        ),
        ("passed_driver_rule", Json::Bool(ok)),
        ("passed_issue_12_rule", Json::Bool(range_misses.is_empty())),
        ("issue_12_rule_misses", Json::Arr(range_misses.clone())),
        ("runs_per_set", Json::Num(runs as f64)),
        ("seconds", Json::Num(seconds)),
        ("workloads", Json::Obj(report)),
    ]);
    write_file(out, &file)?;
    println!(
        "selfcheck, driver's rule (inter-quartile spread and set medians within the bounds): {}",
        if ok { "passed" } else { "FAILED" }
    );
    println!(
        "selfcheck, ISSUE 12's rule ((max - min) / median within a tenth): {} of {pairs} workload/metric pairs miss it",
        range_misses.len()
    );
    println!("selfcheck: {}", out.display());
    Ok(ok)
}

pub fn write_file(path: &Path, value: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, value.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Where a run's full record goes.
pub fn result_path(rig: &Rig, trace: bool) -> PathBuf {
    rig.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        rig.workload.name(),
        rig.seed,
        u8::from(trace)
    ))
}
