//! Time-series history: a fixed-size ring of metric snapshots.
//!
//! The global [`crate::metrics::Metrics`] registry answers "how many, since
//! process start" — useless for "is p99 degrading *right now*". The
//! [`Sampler`] closes that gap without a background thread: callers on the
//! request path (the HTTP edge, after each response) hand it the current
//! time, and once per configured interval it snapshots the cumulative
//! counters, differences them against the previous snapshot, and pushes one
//! [`SamplePoint`] — per-interval request rate, error rate, p50/p99 from the
//! *delta* of the latency histogram buckets, cache hit ratio, snapshot age,
//! and in-flight level — into a bounded ring.
//!
//! Time is always supplied by the caller (milliseconds on whatever clock the
//! gateway runs), so a `TestClock` drives a fully deterministic series:
//! advance 1 s, tick, and the sample covers exactly the traffic recorded in
//! between. The ring is rendered as sparklines on `/stats` and is the input
//! to the [`crate::slo`] evaluator.

use crate::metrics::{Metrics, BUCKET_BOUNDS_NS};
use std::collections::VecDeque;
use std::sync::Mutex;

/// One interval's worth of derived metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SamplePoint {
    /// Caller-clock timestamp (ms) at which the sample was taken.
    pub at_ms: u64,
    /// Interval actually covered, ms (≥ the configured interval).
    pub span_ms: u64,
    /// Requests completed during the interval.
    pub requests: u64,
    /// Requests that produced an error page (HTTP ≥ 400) during the interval.
    pub errors: u64,
    /// Requests per second over the interval.
    pub req_rate: f64,
    /// Errors as a fraction of requests (0 when idle).
    pub error_rate: f64,
    /// Median request latency over the interval, ms (bucket upper bound).
    pub p50_ms: f64,
    /// 99th-percentile request latency over the interval, ms.
    pub p99_ms: f64,
    /// Result-cache hits / (hits + misses) during the interval (0 when the
    /// cache saw no traffic).
    pub cache_hit_ratio: f64,
    /// Age of the newest published database snapshot at sample time, ms.
    pub snapshot_age_ms: u64,
    /// Requests in flight at sample time.
    pub in_flight: i64,
}

/// Cumulative counter values captured at the previous sample.
#[derive(Debug, Default, Clone)]
struct CumSnapshot {
    requests: u64,
    errors: u64,
    cache_hits: u64,
    cache_misses: u64,
    req_buckets: Vec<u64>,
}

impl CumSnapshot {
    fn capture(m: &Metrics) -> CumSnapshot {
        CumSnapshot {
            requests: m.requests.get(),
            errors: m.request_errors.get(),
            cache_hits: m.cache_hits.get(),
            cache_misses: m.cache_misses.get(),
            req_buckets: m.request_latency_ns.bucket_counts(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    last_ms: Option<u64>,
    prev: CumSnapshot,
    points: VecDeque<SamplePoint>,
}

/// The opportunistically-driven sampler. See the [module docs](self).
#[derive(Debug)]
pub struct Sampler {
    interval_ms: u64,
    capacity: usize,
    inner: Mutex<Inner>,
}

/// One point per second, two minutes of history.
impl Default for Sampler {
    fn default() -> Sampler {
        Sampler::new(1_000, 120)
    }
}

impl Sampler {
    /// A sampler emitting one point per `interval_ms`, keeping the last
    /// `capacity` points.
    pub fn new(interval_ms: u64, capacity: usize) -> Sampler {
        Sampler {
            interval_ms: interval_ms.max(1),
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured sampling interval, ms.
    pub fn interval_ms(&self) -> u64 {
        self.interval_ms
    }

    /// Offer the sampler the current time; if a full interval elapsed since
    /// the previous sample it captures one [`SamplePoint`] from `m` and
    /// returns `true`. The first call only anchors the baseline.
    pub fn tick(&self, now_ms: u64, m: &Metrics) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let Some(last) = inner.last_ms else {
            inner.last_ms = Some(now_ms);
            inner.prev = CumSnapshot::capture(m);
            return false;
        };
        let span_ms = now_ms.saturating_sub(last);
        if span_ms < self.interval_ms {
            return false;
        }
        let cur = CumSnapshot::capture(m);
        let requests = cur.requests.saturating_sub(inner.prev.requests);
        let errors = cur.errors.saturating_sub(inner.prev.errors);
        let hits = cur.cache_hits.saturating_sub(inner.prev.cache_hits);
        let misses = cur.cache_misses.saturating_sub(inner.prev.cache_misses);
        let deltas: Vec<u64> = cur
            .req_buckets
            .iter()
            .zip(inner.prev.req_buckets.iter().chain(std::iter::repeat(&0)))
            .map(|(c, p)| c.saturating_sub(*p))
            .collect();
        let publish_ms = m.snapshot_publish_ms.get();
        let point = SamplePoint {
            at_ms: now_ms,
            span_ms,
            requests,
            errors,
            req_rate: requests as f64 * 1_000.0 / span_ms as f64,
            error_rate: if requests == 0 {
                0.0
            } else {
                errors as f64 / requests as f64
            },
            p50_ms: crate::digest::quantile_from_buckets(&deltas, 0.50) as f64 / 1e6,
            p99_ms: crate::digest::quantile_from_buckets(&deltas, 0.99) as f64 / 1e6,
            cache_hit_ratio: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            snapshot_age_ms: if publish_ms <= 0 {
                0
            } else {
                crate::clock::process_mono_ms().saturating_sub(publish_ms as u64)
            },
            in_flight: m.requests_in_flight.get(),
        };
        inner.last_ms = Some(now_ms);
        inner.prev = cur;
        if inner.points.len() == self.capacity {
            inner.points.pop_front();
        }
        inner.points.push_back(point);
        true
    }

    /// The ring's contents, oldest first.
    pub fn points(&self) -> Vec<SamplePoint> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .points
            .iter()
            .cloned()
            .collect()
    }

    /// Drop all history and the baseline (tests).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        *inner = Inner::default();
    }
}

/// Highest-resolution latency the request histogram can express, ms — the
/// value [`SamplePoint::p99_ms`] saturates to when observations overflow the
/// last bucket.
pub fn max_representable_ms() -> f64 {
    (BUCKET_BOUNDS_NS[BUCKET_BOUNDS_NS.len() - 1] * 2) as f64 / 1e6
}

/// Render `values` as a unicode sparkline (`▁▂▃▄▅▆▇█`), scaled to the
/// maximum value. Empty input renders empty; an all-zero series renders as a
/// flat baseline.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().fold(0.0f64, f64::max);
    values
        .iter()
        .map(|&v| {
            if max <= 0.0 || v <= 0.0 {
                BARS[0]
            } else {
                let idx = ((v / max) * 7.0).round() as usize;
                BARS[idx.min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_tick_anchors_without_emitting() {
        let m = Metrics::new();
        let s = Sampler::new(1_000, 8);
        assert!(!s.tick(0, &m));
        assert!(s.points().is_empty());
    }

    #[test]
    fn deltas_cover_exactly_one_interval() {
        let m = Metrics::new();
        let s = Sampler::new(1_000, 8);
        s.tick(0, &m);
        m.requests.add(10);
        m.request_errors.add(2);
        m.cache_hits.add(3);
        m.cache_misses.add(1);
        for _ in 0..9 {
            m.request_latency_ns.observe_ns(900_000); // ≤ 1,024,000 ns
        }
        m.request_latency_ns.observe_ns(400_000_000); // ≤ 524,288,000 ns
        assert!(!s.tick(999, &m), "interval not yet elapsed");
        assert!(s.tick(1_000, &m));
        let pts = s.points();
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        assert_eq!(p.requests, 10);
        assert_eq!(p.errors, 2);
        assert!((p.req_rate - 10.0).abs() < 1e-9);
        assert!((p.error_rate - 0.2).abs() < 1e-9);
        assert!((p.cache_hit_ratio - 0.75).abs() < 1e-9);
        assert!((p.p50_ms - 1.024).abs() < 1e-9, "p50 {}", p.p50_ms);
        assert!((p.p99_ms - 524.288).abs() < 1e-9, "p99 {}", p.p99_ms);
        // The next interval starts from the new baseline: no traffic → zeros.
        assert!(s.tick(2_000, &m));
        let p2 = &s.points()[1];
        assert_eq!(p2.requests, 0);
        assert_eq!(p2.p99_ms, 0.0);
    }

    #[test]
    fn ring_is_bounded_oldest_dropped() {
        let m = Metrics::new();
        let s = Sampler::new(100, 3);
        s.tick(0, &m);
        for i in 1..=5u64 {
            assert!(s.tick(i * 100, &m));
        }
        let pts = s.points();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].at_ms, 300);
        assert_eq!(pts[2].at_ms, 500);
    }

    #[test]
    fn sparkline_scales_to_max() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0.0, 0.0]), "▁▁");
        assert_eq!(sparkline(&[1.0, 4.0, 8.0]), "▂▅█");
    }
}
