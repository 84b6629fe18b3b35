//! The untraced run: every end-to-end metric, and nothing that could
//! perturb them.

use crate::json::Json;
use crate::rig::Rig;
use crate::stats::{median, percentile};

/// Unit of each end-to-end metric, in report order.
pub const METRICS: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("recovery_s", "s"),
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("ttfb_p50_ms", "ms"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
];

pub struct Outcome {
    pub values: Vec<(&'static str, f64)>,
    /// The per-round numbers behind each reported one.
    pub detail: Json,
}

pub fn run(rig: &mut Rig) -> Result<Outcome, String> {
    let (image, image_setup_s) = rig.crash_image()?;
    let mut rounds = rig.replica_rounds(&image)?;
    rounds.setup_s.push(image_setup_s);

    // What a shared host does to a round only ever slows it, so the rounds'
    // quartile on the better side repeats better from run to run than their
    // median does (README, *One untraced run*), and a change to the program
    // moves both by the same share. The resident set is not a time: its
    // median.
    let low = |v: &[f64]| percentile(v, 25.0);
    let values = vec![
        ("setup_s", low(&rounds.setup_s)),
        ("recovery_s", low(&rounds.recovery_s)),
        ("throughput_rps", percentile(&rounds.throughput_rps, 75.0)),
        ("latency_p50_ms", low(&rounds.lone_p50_ms)),
        ("ttfb_p50_ms", low(&rounds.lone_ttfb_p50_ms)),
        ("cpu_ms_per_req", low(&rounds.cpu_ms_per_req)),
        ("peak_rss_mb", median(&rounds.peak_rss_mb)),
    ];
    let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    let detail = Json::obj([
        ("setup_s", nums(&rounds.setup_s)),
        ("recovery_s", nums(&rounds.recovery_s)),
        ("round_latency_p50_ms", nums(&rounds.lone_p50_ms)),
        ("round_ttfb_p50_ms", nums(&rounds.lone_ttfb_p50_ms)),
        ("round_throughput_rps", nums(&rounds.throughput_rps)),
        ("round_cpu_ms_per_req", nums(&rounds.cpu_ms_per_req)),
        ("round_alu_calibration_ms", nums(&rounds.alu_calibration_ms)),
        ("round_mem_calibration_ms", nums(&rounds.mem_calibration_ms)),
        ("lone_requests", Json::Num(rounds.lone.attempted as f64)),
        (
            "saturated_requests",
            Json::Num(rounds.saturated.attempted as f64),
        ),
        ("round_peak_rss_mb", nums(&rounds.peak_rss_mb)),
    ]);
    Ok(Outcome { values, detail })
}
