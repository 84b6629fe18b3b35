//! Per-request execution context: deadline, cancellation, and the budget on
//! expanded text.
//!
//! The 1996 gateway ran one CGI **process** per request, so the operating
//! system bounded every request's lifetime for free: httpd killed the child,
//! and with it the DB2 connection, when the client went away or a timer
//! fired. A long-lived threaded server has no such backstop — a runaway
//! `SELECT` or a pathological macro would pin a worker thread forever. The
//! [`RequestCtx`] is the reproduction's stand-in for that process boundary:
//! one is created at the HTTP edge per request and threaded down through the
//! gateway, the macro engine, the substitution evaluator, and the MiniSQL
//! executor, each of which polls [`RequestCtx::check`] at loop boundaries
//! (cooperative cancellation — nothing is killed mid-statement).
//!
//! Deadlines are computed on the injectable [`Clock`], so a test can pin a
//! [`crate::TestClock`], advance it past the deadline by hand, and observe a
//! deterministic timeout. When no deadline or cancellation applies (the
//! [`RequestCtx::unbounded`] context), `check` is a single relaxed atomic
//! load — cheap enough for per-row strides in scan loops.
//!
//! Every request context but the unbounded one carries a budget on the text
//! variable substitution expands ([`EXPANDED_TEXT_BUDGET`]): input values
//! may reference other variables (§4.3.2), so a request of a few hundred
//! bytes can ask for text that grows tenfold per level of reference. The
//! substitution evaluator charges the budget before it grows a buffer
//! ([`RequestCtx::charge_bytes`]).
//!
//! When a cancelled request surfaces through SQL execution it wears DB2's
//! own dress: SQLCODE **−952**, "processing was cancelled due to an
//! interrupt" ([`CANCELLED_SQLCODE`]), so `%SQL_MESSAGE{-952 ...%}` handlers
//! in macros can intercept a timeout exactly like any other SQL error.

use crate::clock::{Clock, StdClock};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The SQLCODE a cancelled or timed-out request reports through the SQL
/// layer: DB2's −952, "processing was cancelled due to an interrupt".
pub const CANCELLED_SQLCODE: i32 = -952;

/// The expanded text one request may produce through variable
/// substitution: 1 MiB. That is four times the largest whole page a golden
/// macro or load-rig workload renders (`big_report`, about 250 KB), and
/// hundreds of times what any of them expands through substitution (a few
/// KB: report rows render from their result slots, outside the evaluator).
/// A small budget also keeps the refusal fast: the expansion that trips it
/// is work done before the request ends.
pub const EXPANDED_TEXT_BUDGET: u64 = 1 << 20;

/// Why a request was asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// The per-request wall-clock deadline passed.
    DeadlineExceeded {
        /// The configured deadline, milliseconds.
        deadline_ms: u64,
    },
    /// [`RequestCtx::cancel`] was called (client gone, shutdown, ...).
    Cancelled,
    /// Variable substitution expanded more text than the request's budget
    /// allows.
    ByteBudgetExceeded {
        /// The configured byte budget.
        budget: u64,
    },
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CancelReason::DeadlineExceeded { deadline_ms } => {
                write!(f, "request deadline of {deadline_ms} ms exceeded")
            }
            CancelReason::Cancelled => write!(f, "request cancelled"),
            CancelReason::ByteBudgetExceeded { budget } => {
                write!(
                    f,
                    "request budget of {budget} bytes of expanded text exceeded"
                )
            }
        }
    }
}

/// Per-request execution context. See the [module docs](self).
///
/// Construction is builder-style:
///
/// ```
/// use dbgw_obs::ctx::RequestCtx;
/// use dbgw_obs::TestClock;
/// use std::sync::Arc;
///
/// let clock = Arc::new(TestClock::new());
/// let ctx = RequestCtx::new(7, clock.clone()).with_deadline_ms(50);
/// assert!(ctx.check().is_ok());
/// clock.advance_millis(51);
/// assert!(ctx.check().is_err());
/// ```
pub struct RequestCtx {
    request_id: u64,
    clock: Arc<dyn Clock>,
    /// Absolute deadline on `clock`, with the configured relative value kept
    /// for the error message. `None` = no deadline.
    deadline: Option<(u64, u64)>, // (deadline_ns, deadline_ms)
    cancelled: AtomicBool,
    /// Expanded-text budget; `None` only on the unbounded context.
    byte_budget: Option<u64>,
    bytes_used: AtomicU64,
}

impl fmt::Debug for RequestCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RequestCtx")
            .field("request_id", &self.request_id)
            .field("deadline_ms", &self.deadline.map(|(_, ms)| ms))
            .field("cancelled", &self.cancelled.load(Ordering::Relaxed))
            .field("byte_budget", &self.byte_budget)
            .finish()
    }
}

impl RequestCtx {
    /// A context with no deadline and the [`EXPANDED_TEXT_BUDGET`], on
    /// `clock`.
    pub fn new(request_id: u64, clock: Arc<dyn Clock>) -> RequestCtx {
        RequestCtx {
            request_id,
            clock,
            deadline: None,
            cancelled: AtomicBool::new(false),
            byte_budget: Some(EXPANDED_TEXT_BUDGET),
            bytes_used: AtomicU64::new(0),
        }
    }

    /// Set a wall-clock deadline `ms` milliseconds from now (on the context's
    /// clock). `0` means "already expired" — useful in tests.
    pub fn with_deadline_ms(mut self, ms: u64) -> RequestCtx {
        let now = self.clock.now_ns();
        self.deadline = Some((now.saturating_add(ms.saturating_mul(1_000_000)), ms));
        self
    }

    /// The shared do-nothing context: no deadline, no budget, request id 0.
    /// Layers below the gateway default to this so direct library use (and
    /// every pre-existing call site) keeps working unbounded.
    pub fn unbounded() -> Arc<RequestCtx> {
        static UNBOUNDED: OnceLock<Arc<RequestCtx>> = OnceLock::new();
        UNBOUNDED
            .get_or_init(|| {
                let mut ctx = RequestCtx::new(0, Arc::new(StdClock::new()));
                ctx.byte_budget = None;
                Arc::new(ctx)
            })
            .clone()
    }

    /// The request id this context was created for.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }

    /// The monotonic clock this context measures time on — the one clock a
    /// layer below the HTTP edge should use for instrumentation (EXPLAIN
    /// ANALYZE operator timings, digest latency), so a `TestClock` pinned at
    /// the edge makes every recorded duration deterministic.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The configured deadline in milliseconds, if any.
    pub fn deadline_ms(&self) -> Option<u64> {
        self.deadline.map(|(_, ms)| ms)
    }

    /// Ask the request to stop at its next cancellation point.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has [`cancel`](Self::cancel) been called?
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// The cancellation point: `Err` once the flag is set or the deadline has
    /// passed. On the unbounded context this is one relaxed atomic load.
    pub fn check(&self) -> Result<(), CancelReason> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(CancelReason::Cancelled);
        }
        if let Some((deadline_ns, deadline_ms)) = self.deadline {
            if self.clock.now_ns() >= deadline_ns {
                return Err(CancelReason::DeadlineExceeded { deadline_ms });
            }
        }
        Ok(())
    }

    /// Like [`check`](Self::check), but returns the reason without the
    /// `Result` wrapper — for error-path code deciding how to report.
    pub fn cancel_reason(&self) -> Option<CancelReason> {
        self.check().err()
    }

    /// Charge `n` bytes of expanded text against the budget: `Err` once the
    /// request's total passes it (and for every charge after that).
    pub fn charge_bytes(&self, n: u64) -> Result<(), CancelReason> {
        let Some(budget) = self.byte_budget else {
            return Ok(());
        };
        let used = self.bytes_used.fetch_add(n, Ordering::Relaxed) + n;
        if used > budget {
            return Err(CancelReason::ByteBudgetExceeded { budget });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;

    #[test]
    fn unbounded_never_cancels() {
        let ctx = RequestCtx::unbounded();
        assert!(ctx.check().is_ok());
        assert!(ctx.charge_bytes(1 << 40).is_ok());
        assert_eq!(ctx.request_id(), 0);
    }

    #[test]
    fn deadline_trips_exactly_on_test_clock() {
        let clock = Arc::new(TestClock::new());
        let ctx = RequestCtx::new(42, clock.clone()).with_deadline_ms(100);
        clock.advance_millis(99);
        assert!(ctx.check().is_ok());
        clock.advance_millis(1);
        assert_eq!(
            ctx.check(),
            Err(CancelReason::DeadlineExceeded { deadline_ms: 100 })
        );
        assert_eq!(ctx.cancel_reason(), ctx.check().err());
    }

    #[test]
    fn cancel_flag_wins_over_deadline() {
        let clock = Arc::new(TestClock::new());
        let ctx = RequestCtx::new(1, clock).with_deadline_ms(100);
        ctx.cancel();
        assert_eq!(ctx.check(), Err(CancelReason::Cancelled));
        assert!(ctx.is_cancelled());
    }

    #[test]
    fn byte_budget_trips_past_limit() {
        let clock = Arc::new(TestClock::new());
        let ctx = RequestCtx::new(1, clock);
        assert!(ctx.charge_bytes(EXPANDED_TEXT_BUDGET - 1).is_ok());
        assert!(ctx.charge_bytes(1).is_ok());
        let over = Err(CancelReason::ByteBudgetExceeded {
            budget: EXPANDED_TEXT_BUDGET,
        });
        assert_eq!(ctx.charge_bytes(1), over);
        assert_eq!(ctx.charge_bytes(0), over); // and every charge after it
                                               // The budget does not affect check(): it only trips where charged.
        assert!(ctx.check().is_ok());
    }

    #[test]
    fn reasons_render_for_error_pages() {
        let msg = CancelReason::DeadlineExceeded { deadline_ms: 250 }.to_string();
        assert!(msg.contains("250 ms"), "{msg}");
        assert!(CancelReason::Cancelled.to_string().contains("cancelled"));
    }
}
