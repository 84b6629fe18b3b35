//! What the untraced and the traced run share: the time plan, cold boots,
//! the crash image and its recoveries, the fixed warm-up, and the rounds.

use crate::affinity::Placement;
use crate::child::Gateway;
use crate::loadgen::{self, Client, Sample};
use crate::stats;
use crate::workloads::{self, Fixture, Generator, Kind, Workload};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Acknowledged `setqty` requests `write_mix` makes before the crashes.
const BURST_WRITES: usize = 500;

/// Request-stream ids (each is an independent stream of the run's seed).
const STREAM_LONE: u64 = 0;
const STREAM_SATURATED: u64 = 1;
const STREAM_BURST: u64 = 2;
pub const STREAM_OPEN: u64 = 3;
/// The warm-up's own seed: it prepares state, it is not a measured input.
const WARMUP_SEED: u64 = 0x3A97;

/// How `--seconds` is spent. The shape (and so the number of samples behind
/// each reported number) is the same on every commit; only the phase
/// lengths scale.
#[derive(Debug, Clone)]
pub struct Plan {
    pub rounds: usize,
    pub lone: Duration,
    pub saturated: Duration,
}

impl Plan {
    /// `seconds` = rounds × (lone + saturated), split 2 : 3.
    pub fn for_seconds(seconds: f64, rounds: usize) -> Plan {
        let unit = seconds / (5.0 * rounds as f64);
        Plan {
            rounds,
            lone: Duration::from_secs_f64(2.0 * unit),
            saturated: Duration::from_secs_f64(3.0 * unit),
        }
    }
}

/// Requests attempted and failed over a whole run, and whether every oracle
/// check (responses, read-your-writes, post-crash read-back) held.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Tally {
    pub fn add(&mut self, sample: &Sample) {
        self.attempted += sample.attempted;
        self.failed += sample.failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }
}

/// A crashed data directory: the fixture plus, on `write_mix`, a fixed burst
/// of acknowledged updates, left behind by `SIGKILL`. Reopening it is what
/// `recovery_s` times. Nothing ever writes to it again, so every recovery of
/// every run replays the same log.
pub struct CrashImage {
    dir: PathBuf,
    /// The image's own model of its data (the main child's diverges).
    fixture: Arc<Fixture>,
    /// Order ids the burst updated; each must read back after every crash.
    burst_ids: Vec<u32>,
}

impl Drop for CrashImage {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub struct Rig {
    pub workload: Workload,
    pub fixture: Arc<Fixture>,
    pub seed: u64,
    pub plan: Plan,
    /// `benchmark/out`: data directories, result files, trace files.
    pub out_dir: PathBuf,
    pub tally: Tally,
    /// CPUs the rig may use, counted before the generator pinned itself to
    /// its half of them (afterwards this process sees only that half).
    pub nproc: usize,
    /// Where the generator (this process, already pinned) and every child
    /// run; `None` on a single CPU, where nothing is pinned.
    pub placement: Option<Placement>,
    dirs_made: u32,
    calibrator: Calibrator,
}

/// What the rounds measured, one entry per round.
#[derive(Default)]
pub struct Rounds {
    pub lone_p50_ms: Vec<f64>,
    pub lone_ttfb_p50_ms: Vec<f64>,
    pub throughput_rps: Vec<f64>,
    /// Child CPU (user + system) per completed request of the saturated phase.
    pub cpu_ms_per_req: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub recovery_s: Vec<f64>,
    /// The child's `VmHWM` at the end of the round's saturated phase.
    pub peak_rss_mb: Vec<f64>,
    pub alu_calibration_ms: Vec<f64>,
    pub mem_calibration_ms: Vec<f64>,
    /// Every lone-phase sample pooled (tails, read latency).
    pub lone: Sample,
    /// Every saturated-phase sample pooled.
    pub saturated: Sample,
    /// Child CPU `(user, system)` ms over all saturated phases.
    pub saturated_cpu_ms: (f64, f64),
}

impl Rig {
    pub fn new(
        workload: Workload,
        seed: u64,
        plan: Plan,
        out_dir: PathBuf,
        nproc: usize,
        placement: Option<Placement>,
    ) -> Rig {
        Rig {
            workload,
            fixture: Fixture::new(workload),
            seed,
            plan,
            out_dir,
            tally: Tally::default(),
            nproc,
            placement,
            dirs_made: 0,
            calibrator: Calibrator::new(),
        }
    }

    /// Threads, and connections, of a saturated phase: `min(nproc, 2)`.
    pub fn load_threads(&self) -> usize {
        self.nproc.clamp(1, 2)
    }

    /// A data directory nothing has used yet.
    pub fn fresh_dir(&mut self) -> Result<PathBuf, String> {
        self.dirs_made += 1;
        let dir = self.out_dir.join(format!(
            "data-{}-{}-{}",
            self.workload.name(),
            std::process::id(),
            self.dirs_made
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(dir)
    }

    fn client(
        &self,
        gw: &Gateway,
        fixture: &Arc<Fixture>,
        stream: u64,
        lane: u32,
        lanes: u32,
    ) -> Result<Client, String> {
        let gen = Generator::new(fixture, self.seed, stream, lane, lanes);
        Client::open(gw.addr, fixture, gen)
    }

    pub fn saturated_clients(&self, gw: &Gateway, stream: u64) -> Result<Vec<Client>, String> {
        let lanes = self.load_threads() as u32;
        (0..lanes)
            .map(|lane| self.client(gw, &self.fixture, stream, lane, lanes))
            .collect()
    }

    /// Spawn the gateway on `dir` and time spawn → first correct response.
    /// On an empty `dir` that is set-up (fixture load included); on a used
    /// one it is crash recovery.
    fn start(&mut self, dir: &Path, fixture: &Arc<Fixture>) -> Result<(Gateway, f64), String> {
        let cpus = self.placement.as_ref().map_or(&[][..], |p| &p.gateway);
        let gw = Gateway::spawn(self.workload, dir, cpus)?;
        let mut probe = self.client(&gw, fixture, STREAM_BURST, 0, 1)?;
        let mut sample = Sample::default();
        let ok = probe.issue(&fixture.probe(), None, &mut sample);
        let seconds = gw.spawned.elapsed().as_secs_f64();
        self.tally.add(&sample);
        if ok.is_none() {
            return Err("the gateway's first response was wrong".into());
        }
        // Every number of this run assumes the child has its half of the
        // machine to itself; do not measure one that does not.
        let threads = gw.thread_cpus();
        if !cpus.is_empty() && !threads.iter().all(|t| t.as_deref() == Some(cpus)) {
            return Err(format!(
                "the gateway was given CPUs {cpus:?} but its threads may run on {threads:?}"
            ));
        }
        Ok((gw, seconds))
    }

    /// Cold boot on a fresh directory, from here on the database the rig's
    /// model describes. Returns the child, its directory and the set-up time.
    pub fn cold_boot(&mut self) -> Result<(Gateway, PathBuf, f64), String> {
        self.fixture.reset_model();
        let dir = self.fresh_dir()?;
        let fixture = Arc::clone(&self.fixture);
        let (gw, seconds) = self.start(&dir, &fixture)?;
        Ok((gw, dir, seconds))
    }

    /// Build the crash image: cold boot (a set-up sample of its own), on
    /// `write_mix` a seeded burst of acknowledged updates, then `SIGKILL`.
    pub fn crash_image(&mut self) -> Result<(CrashImage, f64), String> {
        let dir = self.fresh_dir()?;
        let fixture = Fixture::new(self.workload);
        let (gw, seconds) = self.start(&dir, &fixture)?;
        let mut burst_ids = Vec::new();
        if self.workload == Workload::WriteMix {
            let mut client = self.client(&gw, &fixture, STREAM_BURST, 0, 1)?;
            let mut sample = Sample::default();
            while burst_ids.len() < BURST_WRITES && sample.failed == 0 {
                let req = client.next_request();
                if let Kind::SetQty { id, .. } = req.kind {
                    if client.issue(&req, None, &mut sample).is_some() {
                        burst_ids.push(id);
                    }
                }
            }
            self.tally.add(&sample);
        }
        gw.kill();
        let image = CrashImage {
            dir,
            fixture,
            burst_ids,
        };
        Ok((image, seconds))
    }

    /// One recovery sample: reopen the crash image, time spawn → first
    /// correct response, check that every acknowledged burst update reads
    /// back, and `SIGKILL` it again. `SIGKILL` leaves the operating system's
    /// page cache intact, so this proves the log is written before the
    /// acknowledgement and replayed in order — not that the device persisted
    /// it.
    fn recovery_sample(&mut self, image: &CrashImage) -> Result<f64, String> {
        let (gw, seconds) = self.start(&image.dir, &image.fixture)?;
        let mut reader = self.client(&gw, &image.fixture, STREAM_BURST, 0, 1)?;
        let mut sample = Sample::default();
        for id in &image.burst_ids {
            if reader
                .issue(&workloads::get_qty(*id), None, &mut sample)
                .is_none()
            {
                self.tally
                    .violations
                    .push(format!("acknowledged update of order {id} lost in a crash"));
            }
        }
        self.tally.add(&sample);
        gw.kill();
        Ok(seconds)
    }

    /// A fixed sequence of requests — the same count and the same seed on
    /// every run, not a fixed time — so the caches and the logs a round
    /// starts from are the same on a slow machine and a fast one, and under
    /// every `--seed`. Sized to about a third of a second.
    pub fn warm_up(&mut self, gw: &Gateway) -> Result<(), String> {
        let requests = match self.workload {
            Workload::SmallPage => 5_000,
            Workload::ScanReport => 40,
            Workload::BigReport => 24,
            Workload::WriteMix => 300,
        };
        let gen = Generator::new(&self.fixture, WARMUP_SEED, 0, 0, 1);
        let mut client = Client::open(gw.addr, &self.fixture, gen)?;
        let mut sample = Sample::default();
        for _ in 0..requests {
            let req = client.next_request();
            client.issue(&req, None, &mut sample);
        }
        self.tally.add(&sample);
        Ok(())
    }

    /// One round on `gw`: the calibration loops, a lone phase (one
    /// connection: latency is service time, not client-against-client
    /// queueing), then a saturated phase (`min(nproc, 2)` connections).
    /// `round` keeps the request streams of successive rounds apart.
    pub fn round(&mut self, gw: &Gateway, round: usize, out: &mut Rounds) -> Result<(), String> {
        out.alu_calibration_ms.push(self.calibrator.alu_ms());
        out.mem_calibration_ms.push(self.calibrator.mem_ms());
        let stream = |base: u64| base + 8 * round as u64;
        let mut lone = vec![self.client(gw, &self.fixture, stream(STREAM_LONE), 0, 1)?];
        let mut saturated = self.saturated_clients(gw, stream(STREAM_SATURATED))?;

        let phase = loadgen::closed_phase(&mut lone, self.plan.lone);
        self.tally.add(&phase);
        out.lone_p50_ms.push(stats::median(&phase.latency_ms));
        out.lone_ttfb_p50_ms.push(stats::median(&phase.ttfb_ms));
        out.lone.elapsed_s += phase.elapsed_s;
        out.lone.absorb(phase);

        let cpu_before = gw.cpu_ms();
        let phase = loadgen::closed_phase(&mut saturated, self.plan.saturated);
        let cpu_after = gw.cpu_ms();
        self.tally.add(&phase);
        let (user, sys) = (cpu_after.0 - cpu_before.0, cpu_after.1 - cpu_before.1);
        out.throughput_rps
            .push(phase.completed() as f64 / phase.elapsed_s);
        out.cpu_ms_per_req
            .push((user + sys) / phase.completed().max(1) as f64);
        out.saturated_cpu_ms.0 += user;
        out.saturated_cpu_ms.1 += sys;
        out.saturated.elapsed_s += phase.elapsed_s;
        out.saturated.absorb(phase);
        out.peak_rss_mb.push(gw.peak_rss_mb());
        Ok(())
    }

    /// The untraced run's rounds: every round is an independent replica. It
    /// cold-boots a gateway of its own on a fresh directory (a set-up
    /// sample), warms it with a fixed number of requests, measures, reads
    /// its peak resident set, and kills it; before and after, it reopens
    /// the crash image (two recovery samples, the cheapest and jumpiest
    /// number, so it gets the most). No state — caches, logs, heap layout —
    /// carries from one round to the next, so rounds differ only by what the
    /// machine did meanwhile.
    pub fn replica_rounds(&mut self, image: &CrashImage) -> Result<Rounds, String> {
        let mut out = Rounds::default();
        for round in 0..self.plan.rounds {
            out.recovery_s.push(self.recovery_sample(image)?);
            let (gw, dir, setup_s) = self.cold_boot()?;
            out.setup_s.push(setup_s);
            self.warm_up(&gw)?;
            self.round(&gw, round, &mut out)?;
            gw.kill();
            let _ = std::fs::remove_dir_all(dir);
            out.recovery_s.push(self.recovery_sample(image)?);
        }
        Ok(out)
    }
}

/// Two fixed loops that run no code of the gateway, timed before every
/// round: when two runs disagree on these, the machine differed, not the
/// program. `alu_ms` is a dependent multiply chain (core speed); `mem_ms` is
/// a dependent walk through 16 MiB (cache and memory latency, which other
/// tenants of a shared host move by tens of percent).
pub struct Calibrator {
    chain: Vec<u32>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        // One random cycle through the buffer, so every load misses.
        let n = 4usize << 20;
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = crate::rng::Rng::new(0xCA11B8A7E);
        for i in (1..n).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut chain = vec![0u32; n];
        for k in 0..n {
            chain[order[k] as usize] = order[(k + 1) % n];
        }
        Calibrator { chain }
    }

    pub fn alu_ms(&self) -> f64 {
        let started = Instant::now();
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for i in 0..40_000_000u64 {
            h = (h ^ i).wrapping_mul(0x0000_0100_0000_01B3);
        }
        std::hint::black_box(h);
        started.elapsed().as_secs_f64() * 1e3
    }

    pub fn mem_ms(&self) -> f64 {
        let started = Instant::now();
        let mut at = 0usize;
        for _ in 0..500_000 {
            at = self.chain[at] as usize;
        }
        std::hint::black_box(at);
        started.elapsed().as_secs_f64() * 1e3
    }
}
