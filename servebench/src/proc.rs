//! The server under test as a child process, plus host readings from
//! `/proc`.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `egocensus serve` (direct, or a router with its workers).
pub struct ServerProc {
    child: Child,
    /// The address clients connect to (the router when routed).
    pub addr: SocketAddr,
    /// Spawned workers' `(address, pid)` when routed.
    pub workers: Vec<(SocketAddr, u32)>,
}

/// The shipped binary, built next to this one.
pub fn egocensus_bin() -> PathBuf {
    std::env::current_exe()
        .expect("current executable")
        .with_file_name("egocensus")
}

impl ServerProc {
    /// Spawn `egocensus serve <graph> --addr 127.0.0.1:0 <extra>` and wait
    /// for its `listening on` line.
    pub fn spawn(graph: &Path, extra: &[&str]) -> Result<ServerProc, String> {
        let mut child = Command::new(egocensus_bin())
            .arg("serve")
            .arg(graph)
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", egocensus_bin().display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let mut workers = Vec::new();
        let addr = loop {
            let line = match lines.next() {
                Some(Ok(l)) => l,
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before listening".into());
                }
            };
            // `worker 0 listening on 127.0.0.1:4242 (pid 77)`
            if let Some(rest) = line.strip_prefix("worker ") {
                let mut parts = rest.split_whitespace();
                let addr = parts.nth(3).and_then(|a| a.parse().ok());
                let pid = parts
                    .nth(1)
                    .and_then(|p| p.trim_end_matches(')').parse().ok());
                if let (Some(a), Some(p)) = (addr, pid) {
                    workers.push((a, p));
                }
            } else if let Some(a) = line.strip_prefix("listening on ") {
                break a
                    .trim()
                    .parse()
                    .map_err(|e| format!("bad address `{a}`: {e}"))?;
            }
        };
        // Keep draining stdout so a chatty server never blocks on a full
        // pipe; the thread ends when the process closes it.
        std::thread::spawn(move || for _ in lines {});
        Ok(ServerProc {
            child,
            addr,
            workers,
        })
    }

    /// Peak resident set (`VmHWM`) in MiB: the server's, or the router's
    /// plus every worker's (pages of the shared `.egb` mapping are then
    /// counted once per process).
    pub fn peak_rss_mb(&self) -> f64 {
        let mut kb = vm_hwm_kb(self.child.id());
        for &(_, pid) in &self.workers {
            kb += vm_hwm_kb(pid);
        }
        kb as f64 / 1024.0
    }

    /// Ask the server to stop, then make sure it (and any worker) has
    /// exited.
    pub fn stop(mut self) {
        if let Ok(mut c) = crate::net::Conn::connect(self.addr) {
            let _ = c.roundtrip(r#"{"op":"shutdown"}"#);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        // A router kills its fleet on exit; a killed router cannot, so
        // reap stragglers by pid.
        for &(_, pid) in &self.workers {
            if Path::new(&format!("/proc/{pid}")).exists() {
                let _ = Command::new("kill").arg(pid.to_string()).status();
            }
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.workers.iter().any(|&(_, pid)| worker_alive(pid)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// Is `pid` a live (not zombie) process?
fn worker_alive(pid: u32) -> bool {
    match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
        Ok(s) => !s.contains(") Z "),
        Err(_) => false,
    }
}

fn vm_hwm_kb(pid: u32) -> u64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Aggregate CPU jiffies from `/proc/stat`: (total, steal).
pub fn cpu_jiffies() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal (guest fields are
    // already inside user/nice).
    let total = v.iter().take(8).sum();
    (total, v.get(7).copied().unwrap_or(0))
}

/// Steal share of CPU time between two [`cpu_jiffies`] readings, in %.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.1.saturating_sub(before.1) as f64 / total as f64
}

/// The one-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// The checked-out revision when the tree is a git checkout (read from
/// `.git` directly), else `unknown`.
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(r) = head.strip_prefix("ref: ") {
        if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(r)) {
            return rev.trim().to_string();
        }
        return "unknown".into();
    }
    if head.is_empty() {
        "unknown".into()
    } else {
        head.to_string()
    }
}

/// Hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
