//! `loadrig`: the gateway's one load rig. `benchmark/README.md` has the
//! workloads, the metrics, and how to read the output.

mod affinity;
mod child;
mod e2e;
mod json;
mod loadgen;
mod report;
mod rig;
mod rng;
mod server;
mod stats;
mod trace;
mod wire;
mod workloads;

use json::Json;
use std::path::PathBuf;
use workloads::Workload;

/// Rounds per run. Fixed, so every commit's medians rest on as many samples.
const ROUNDS: usize = 8;
/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 16.0;
/// Everything the rig writes goes here (the working directory is the root
/// of the checkout; `run.sh` sees to that).
const OUT_DIR: &str = "benchmark/out";

fn usage() -> ! {
    eprintln!(
        "usage: run.sh --workload W --seed N --seconds S --trace 0|1 [--quick]\n\
         \x20      run.sh selfcheck [--runs K] [--seconds S] [--out FILE]\n\
         \x20      run.sh compare A.json B.json\n\
         W is one of small_page, scan_report, big_report, write_mix; --quick makes two short rounds."
    );
    std::process::exit(2);
}

/// `serve <workload> <dir> <cpus>`: child mode (`child::Gateway::spawn`).
fn serve(workload: &str, dir: &str, cpus: &str) -> Result<bool, String> {
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let cpus = match cpus {
        "" => Vec::new(),
        list => affinity::parse_cpus(list).ok_or(format!("bad CPU list {list}"))?,
    };
    server::serve(workload, &PathBuf::from(dir), &cpus).map(|()| true)
}

fn main() {
    // Shipped defaults: no gateway knob may reach the gateway, whether it
    // runs in a child or, for the traced run's probes, in this process.
    // Nothing has started a thread yet, and every child inherits the result.
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("DBGW_") {
            std::env::remove_var(name);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("serve") => match &args[1..] {
            [workload, dir, cpus] => serve(workload, dir, cpus),
            _ => usage(),
        },
        Some("compare") => match &args[1..] {
            [a, b] => report::compare(a, b),
            _ => usage(),
        },
        Some("selfcheck") => selfcheck(&args[1..]),
        _ => run(&args),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("loadrig: {e}");
            std::process::exit(1);
        }
    }
}

/// `--flag value` pairs; a bare `--quick` is allowed.
fn flags(args: &[String]) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            out.push(("--quick", ""));
        } else {
            out.push((flag.as_str(), it.next().unwrap_or_else(|| usage()).as_str()));
        }
    }
    out
}

fn selfcheck(args: &[String]) -> Result<bool, String> {
    let (mut runs, mut seconds, mut out) = (
        5,
        DEFAULT_SECONDS,
        PathBuf::from(OUT_DIR).join("selfcheck.json"),
    );
    for (flag, value) in flags(args) {
        match flag {
            "--runs" => runs = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--out" => out = PathBuf::from(value),
            _ => usage(),
        }
    }
    report::selfcheck(runs, seconds, &out)
}

fn run(args: &[String]) -> Result<bool, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, 1u64, DEFAULT_SECONDS, false, false);
    for (flag, value) in flags(args) {
        match flag {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            "--quick" => quick = true,
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    // Counted before pinning: afterwards this process sees only its half.
    let nproc = affinity::allowed().len();
    let placement = affinity::Placement::take()?;
    let plan = if quick {
        seconds = 2.0;
        rig::Plan::for_seconds(seconds, 2)
    } else {
        rig::Plan::for_seconds(seconds, ROUNDS)
    };
    let mut rig = rig::Rig::new(
        workload,
        seed,
        plan,
        PathBuf::from(OUT_DIR),
        nproc,
        placement,
    );
    let provenance = report::provenance(&rig, seconds, trace);
    let (metrics, detail) = if trace {
        let o = trace::run(&mut rig)?;
        (report::metrics_json(&o.values, &trace::METRICS), o.detail)
    } else {
        let o = e2e::run(&mut rig)?;
        (report::metrics_json(&o.values, &e2e::METRICS), o.detail)
    };
    for v in rig.tally.violations.iter().take(10) {
        eprintln!("loadrig: {v}");
    }
    for (name, metric) in metrics.entries() {
        eprintln!(
            "{name:44} {:>14.4} {}",
            metric.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            metric.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
    let result = [
        ("correct", Json::Bool(rig.tally.correct())),
        ("attempted", Json::Num(rig.tally.attempted as f64)),
        ("failed", Json::Num(rig.tally.failed as f64)),
        ("metrics", metrics),
    ];
    let mut record = vec![("provenance", provenance), ("detail", detail)];
    record.extend(result.iter().cloned());
    report::write_file(&report::result_path(&rig, trace), &Json::obj(record))?;
    println!("{}", Json::obj(result).render());
    Ok(rig.tally.correct())
}
