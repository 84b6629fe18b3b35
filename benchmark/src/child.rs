//! The parent's handle on the gateway child: spawn it on its CPUs, wait for
//! the port, `SIGKILL`, and read `/proc/<pid>`.

use crate::workloads::Workload;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::Instant;

/// `/proc/<pid>/stat` reports CPU time in `USER_HZ` ticks, which the Linux
/// ABI fixes at 100 per second on every architecture.
const TICK_MS: f64 = 10.0;

pub struct Gateway {
    proc: Child,
    /// Held open: the child serves until this is dropped.
    _stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    pub spawned: Instant,
}

impl Drop for Gateway {
    /// No child outlives its handle, whichever way the run ends.
    fn drop(&mut self) {
        let _ = self.proc.kill();
        let _ = self.proc.wait();
    }
}

impl Gateway {
    /// Start the child on `dir`, pinned to `cpus` (unpinned when empty), and
    /// wait until it reports its port.
    pub fn spawn(workload: Workload, dir: &Path, cpus: &[usize]) -> Result<Gateway, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve").arg(workload.name()).arg(dir);
        cmd.arg(crate::affinity::format_cpus(cpus));
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
        let spawned = Instant::now();
        let mut proc = cmd.spawn().map_err(|e| format!("spawn gateway: {e}"))?;
        let stdin = proc.stdin.take();
        let mut line = String::new();
        BufReader::new(proc.stdout.take().expect("stdout is piped"))
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let port: Option<u16> = line
            .strip_prefix("LISTENING ")
            .and_then(|p| p.trim().parse().ok());
        let Some(port) = port else {
            let _ = proc.kill();
            let _ = proc.wait();
            return Err(format!("gateway child did not start (said {line:?})"));
        };
        Ok(Gateway {
            proc,
            _stdin: stdin,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
            spawned,
        })
    }

    /// `SIGKILL` the child and reap it (dropping does the same). Nothing it
    /// buffered in user space survives; the operating system's page cache
    /// does.
    pub fn kill(self) {}

    fn proc_file(&self, name: &str) -> String {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.proc.id())).unwrap_or_default()
    }

    /// `(user_ms, system_ms)` consumed by all of the child's threads so far.
    pub fn cpu_ms(&self) -> (f64, f64) {
        // Fields 14 and 15, counted after the parenthesised command name.
        let stat = self.proc_file("stat");
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let mut fields = after.split_whitespace().skip(11);
        let mut tick = || {
            fields
                .next()
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (tick() * TICK_MS, tick() * TICK_MS)
    }

    fn status_kb(&self, key: &str) -> f64 {
        self.proc_file("status")
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .unwrap_or(0.0)
    }

    /// Peak resident set (`VmHWM`), MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.status_kb("VmHWM:") / 1024.0
    }

    /// Current resident set (`VmRSS`), MB.
    pub fn rss_mb(&self) -> f64 {
        self.status_kb("VmRSS:") / 1024.0
    }

    /// `/proc/<pid>/task/<tid>/status` of every thread of the child.
    fn thread_statuses(&self) -> Vec<String> {
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{}/task", self.proc.id())) else {
            return Vec::new();
        };
        tasks
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
            .collect()
    }

    /// Voluntary plus involuntary context switches, summed over threads
    /// (`/proc/<pid>/status` alone covers only the main thread).
    pub fn ctx_switches(&self) -> f64 {
        self.thread_statuses()
            .iter()
            .flat_map(|s| s.lines())
            .filter(|l| l.contains("ctxt_switches:"))
            .filter_map(|l| l.rsplit(':').next()?.trim().parse::<f64>().ok())
            .sum()
    }

    /// The CPUs each thread of the child may run on, as the kernel reports
    /// them (`Cpus_allowed_list`); `None` for a thread whose list cannot be
    /// read.
    pub fn thread_cpus(&self) -> Vec<Option<Vec<usize>>> {
        self.thread_statuses()
            .iter()
            .map(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .and_then(crate::affinity::parse_cpus)
            })
            .collect()
    }
}
