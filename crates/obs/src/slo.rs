//! SLO evaluation over the sampled time series.
//!
//! Two targets, both optional (the gateway sets them from its environment):
//!
//! * **`DBGW_SLO_P99_MS`** — the latency objective: the per-interval p99
//!   (from [`crate::series::SamplePoint::p99_ms`]) should stay at or under
//!   this many milliseconds. Attainment is the share of *traffic-bearing*
//!   intervals that met the target (idle intervals say nothing about
//!   latency and are excluded).
//! * **`DBGW_SLO_ERROR_BUDGET`** — the availability objective, as the
//!   allowed error fraction (e.g. `0.01` = 99% availability). The **burn
//!   rate** is the observed window error rate divided by the budget: 1.0
//!   means errors arrive exactly as fast as the budget allows, >1 means the
//!   budget is being consumed faster than it refills — the standard
//!   multi-window burn-rate alerting input.
//!
//! Evaluation is pure arithmetic over the ring; it holds no state and can be
//! recomputed on every `/stats` render.

use crate::series::SamplePoint;

/// The configured objectives (absent values leave that half unevaluated).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SloConfig {
    /// Latency target: per-interval p99 must be ≤ this many milliseconds.
    pub p99_target_ms: Option<f64>,
    /// Availability target: allowed error fraction in `(0, 1]`.
    pub error_budget: Option<f64>,
}

/// The result of evaluating the ring against an [`SloConfig`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloReport {
    /// Samples in the evaluated window.
    pub samples: usize,
    /// Samples that carried at least one request.
    pub busy_samples: usize,
    /// Total requests across the window.
    pub requests: u64,
    /// Total errors across the window.
    pub errors: u64,
    /// Window error fraction (0 when idle).
    pub error_rate: f64,
    /// Echo of the latency target, if set.
    pub p99_target_ms: Option<f64>,
    /// Share (0–100) of traffic-bearing samples whose p99 met the target.
    /// `None` when no target is set or no sample carried traffic.
    pub latency_attainment_pct: Option<f64>,
    /// Echo of the error budget, if set.
    pub error_budget: Option<f64>,
    /// `error_rate / error_budget`; `None` when no budget is set.
    pub burn_rate: Option<f64>,
    /// Budget left in the window, percent: `100 × (1 − burn_rate)`. Negative
    /// when the window already overspent.
    pub budget_remaining_pct: Option<f64>,
}

/// Evaluate `points` (oldest first, as [`crate::series::Sampler::points`]
/// returns them) against `cfg`.
pub fn evaluate(points: &[SamplePoint], cfg: &SloConfig) -> SloReport {
    let requests: u64 = points.iter().map(|p| p.requests).sum();
    let errors: u64 = points.iter().map(|p| p.errors).sum();
    let error_rate = if requests == 0 {
        0.0
    } else {
        errors as f64 / requests as f64
    };
    let busy: Vec<&SamplePoint> = points.iter().filter(|p| p.requests > 0).collect();
    let latency_attainment_pct = cfg.p99_target_ms.and_then(|target| {
        if busy.is_empty() {
            return None;
        }
        let met = busy.iter().filter(|p| p.p99_ms <= target).count();
        Some(met as f64 * 100.0 / busy.len() as f64)
    });
    let burn_rate = cfg.error_budget.map(|budget| error_rate / budget);
    SloReport {
        samples: points.len(),
        busy_samples: busy.len(),
        requests,
        errors,
        error_rate,
        p99_target_ms: cfg.p99_target_ms,
        latency_attainment_pct,
        error_budget: cfg.error_budget,
        burn_rate,
        budget_remaining_pct: burn_rate.map(|b| 100.0 * (1.0 - b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(requests: u64, errors: u64, p99_ms: f64) -> SamplePoint {
        SamplePoint {
            requests,
            errors,
            p99_ms,
            ..SamplePoint::default()
        }
    }

    #[test]
    fn attainment_counts_only_busy_samples() {
        let cfg = SloConfig {
            p99_target_ms: Some(10.0),
            error_budget: None,
        };
        let points = [
            point(100, 0, 5.0),  // met
            point(100, 0, 50.0), // missed
            point(0, 0, 0.0),    // idle — excluded
            point(100, 0, 10.0), // met (boundary inclusive)
        ];
        let r = evaluate(&points, &cfg);
        assert_eq!(r.busy_samples, 3);
        let att = r.latency_attainment_pct.unwrap();
        assert!((att - 66.666).abs() < 0.01, "{att}");
        assert!(r.burn_rate.is_none());
    }

    #[test]
    fn burn_rate_is_error_rate_over_budget() {
        let cfg = SloConfig {
            p99_target_ms: None,
            error_budget: Some(0.01),
        };
        // 2% errors against a 1% budget: burning 2× too fast.
        let points = [point(50, 1, 0.0), point(50, 1, 0.0)];
        let r = evaluate(&points, &cfg);
        assert!((r.error_rate - 0.02).abs() < 1e-9);
        assert!((r.burn_rate.unwrap() - 2.0).abs() < 1e-9);
        assert!((r.budget_remaining_pct.unwrap() + 100.0).abs() < 1e-9);
    }

    #[test]
    fn idle_window_reports_zero_burn_and_no_attainment() {
        let cfg = SloConfig {
            p99_target_ms: Some(10.0),
            error_budget: Some(0.01),
        };
        let r = evaluate(&[], &cfg);
        assert_eq!(r.samples, 0);
        assert_eq!(r.error_rate, 0.0);
        assert_eq!(r.burn_rate, Some(0.0));
        assert_eq!(r.latency_attainment_pct, None);
        assert_eq!(r.budget_remaining_pct, Some(100.0));
    }

    #[test]
    fn unconfigured_slo_reports_counts_only() {
        let r = evaluate(&[point(10, 5, 1.0)], &SloConfig::default());
        assert_eq!(r.requests, 10);
        assert_eq!(r.errors, 5);
        assert!((r.error_rate - 0.5).abs() < 1e-9);
        assert!(r.burn_rate.is_none() && r.latency_attainment_pct.is_none());
    }
}
