//! The load generator: closed-loop phases (a client sends its next request
//! only after the previous reply) and open-loop phases (requests are due on
//! a schedule and timed from the due instant). One process, at most
//! `min(nproc, 2)` threads, one connection per thread.

use crate::rng::Rng;
use crate::wire::Conn;
use crate::workloads::{Fixture, Generator, Request};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every `DEEP_EVERY`-th response of a client (and the first of each kind)
/// gets the row-counting check; all get the shallow one.
const DEEP_EVERY: u64 = 32;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one phase (or several, pooled) observed.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    /// Latency of the workload's subject requests: the `UPDATE`s on
    /// `write_mix`, every request elsewhere.
    pub latency_ms: Vec<f64>,
    /// Time to first byte of the same requests.
    pub ttfb_ms: Vec<f64>,
    /// Latency of the requests that do not write.
    pub read_latency_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub elapsed_s: f64,
}

impl Sample {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn absorb(&mut self, other: Sample) {
        self.latency_ms.extend(other.latency_ms);
        self.ttfb_ms.extend(other.ttfb_ms);
        self.read_latency_ms.extend(other.read_latency_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One connection with its lane of the request stream.
pub struct Client {
    fixture: Arc<Fixture>,
    conn: Conn,
    gen: Generator,
    sent: u64,
    kinds_seen: [bool; 5],
    last_used: Instant,
}

impl Client {
    pub fn open(
        addr: SocketAddr,
        fixture: &Arc<Fixture>,
        gen: Generator,
    ) -> Result<Client, String> {
        Ok(Client {
            fixture: Arc::clone(fixture),
            conn: Conn::open(addr).map_err(|e| format!("connect {addr}: {e}"))?,
            gen,
            sent: 0,
            kinds_seen: [false; 5],
            last_used: Instant::now(),
        })
    }

    /// Before a phase: a connection that sat idle while another phase ran
    /// may have passed the server's keep-alive timeout (5 s by default) and
    /// been closed silently. Redial rather than count the server's
    /// housekeeping as a failed request.
    fn refresh(&mut self) {
        if self.last_used.elapsed() > Duration::from_secs(1) {
            let _ = self.conn.reconnect();
        }
    }

    pub fn next_request(&mut self) -> Request {
        self.gen.next()
    }

    /// Send `req`, check the answer, and record it. `since` is the instant
    /// latency counts from when it is not the send itself (open loop).
    /// Returns the latency in ms when the response was correct.
    pub fn issue(
        &mut self,
        req: &Request,
        since: Option<Instant>,
        into: &mut Sample,
    ) -> Option<f64> {
        let first_of_kind = !std::mem::replace(&mut self.kinds_seen[req.kind.ordinal()], true);
        let deep = first_of_kind || self.sent.is_multiple_of(DEEP_EVERY);
        self.sent += 1;
        into.attempted += 1;
        self.last_used = Instant::now();
        let queued = since.map_or(Duration::ZERO, |due| due.elapsed());
        match self.conn.get(&req.path) {
            Ok(reply)
                if self
                    .fixture
                    .check(req, reply.status, self.conn.body(), deep) =>
            {
                let total = ms(reply.total + queued);
                if self.fixture.is_subject(req) {
                    into.latency_ms.push(total);
                    into.ttfb_ms.push(ms(reply.ttfb + queued));
                }
                if !req.kind.is_write() {
                    into.read_latency_ms.push(total);
                }
                Some(total)
            }
            Ok(reply) => {
                into.failed += 1;
                if into.failed <= 3 {
                    eprintln!(
                        "loadrig: wrong answer to {}: status {}, {} body bytes",
                        req.path,
                        reply.status,
                        self.conn.body().len()
                    );
                }
                None
            }
            Err(e) => {
                into.failed += 1;
                if into.failed <= 3 {
                    eprintln!("loadrig: {} failed: {e}", req.path);
                }
                // The stream position is unknown now; a refused redial is
                // counted when the next request fails on the dead socket.
                if self.conn.reconnect().is_err() {
                    std::thread::sleep(Duration::from_millis(20));
                }
                None
            }
        }
    }

    fn closed_loop(&mut self, until: Instant) -> Sample {
        self.refresh();
        let mut sample = Sample::default();
        while Instant::now() < until {
            let req = self.gen.next();
            self.issue(&req, None, &mut sample);
        }
        sample
    }
}

/// Run every client in a closed loop for `length`, one thread each.
pub fn closed_phase(clients: &mut [Client], length: Duration) -> Sample {
    let started = Instant::now();
    let until = started + length;
    let mut pooled = Sample::default();
    if let [only] = clients {
        pooled = only.closed_loop(until);
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|c| scope.spawn(move || c.closed_loop(until)))
                .collect();
            for h in handles {
                pooled.absorb(h.join().expect("load thread panicked"));
            }
        });
    }
    pooled.elapsed_s = started.elapsed().as_secs_f64();
    pooled
}

/// What an open-loop phase observed.
pub struct OpenSample {
    pub sample: Sample,
    /// How far behind its due instant each request was sent.
    pub late_ms: Vec<f64>,
}

/// Offer `rate` requests per second for `length` on a seeded Poisson
/// schedule. Arrival `k` belongs to client `k mod n`; a client still waiting
/// for a reply sends its next arrival late, and latency counts from the due
/// instant, so a stall is charged to every request it delays.
pub fn open_phase(clients: &mut [Client], rate: f64, length: Duration, seed: u64) -> OpenSample {
    let mut rng = Rng::stream(seed, 0x09E7);
    let mut due = Vec::new();
    let mut at = 0.0;
    while at < length.as_secs_f64() {
        due.push(Duration::from_secs_f64(at));
        at += rng.exponential(1.0 / rate.max(1.0));
    }
    let n = clients.len();
    let started = Instant::now();
    let mut out = OpenSample {
        sample: Sample::default(),
        late_ms: Vec::new(),
    };
    std::thread::scope(|scope| {
        let due = &due;
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                scope.spawn(move || {
                    client.refresh();
                    let mut sample = Sample::default();
                    let mut late = Vec::new();
                    for offset in due.iter().skip(lane).step_by(n) {
                        let due_at = started + *offset;
                        // Sleep most of the gap, spin the last stretch.
                        loop {
                            let now = Instant::now();
                            if now >= due_at {
                                break;
                            }
                            let gap = due_at - now;
                            if gap > Duration::from_micros(200) {
                                std::thread::sleep(gap - Duration::from_micros(150));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        late.push(ms(due_at.elapsed()));
                        let req = client.next_request();
                        client.issue(&req, Some(due_at), &mut sample);
                    }
                    (sample, late)
                })
            })
            .collect();
        for h in handles {
            let (sample, late) = h.join().expect("load thread panicked");
            out.sample.absorb(sample);
            out.late_ms.extend(late);
        }
    });
    out.sample.elapsed_s = started.elapsed().as_secs_f64();
    out
}
