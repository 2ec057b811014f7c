//! Operating-system probes: per-process CPU time and peak memory from
//! `/proc`, host CPU steal from `/proc/stat`, child reaping with resource
//! usage (`wait4`), and a child-process guard that never leaks a process.

use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::BenchError;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals, then 14 longs
/// of which the first is `ru_maxrss` (KiB).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

const WNOHANG: i32 = 1;
const SC_CLK_TCK: i32 = 2;

/// CPU time and peak resident memory of one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User-mode CPU seconds.
    pub user_s: f64,
    /// Kernel-mode CPU seconds.
    pub sys_s: f64,
    /// Peak resident set size in MiB.
    pub peak_rss_mb: f64,
}

impl Usage {
    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

fn clock_ticks() -> f64 {
    // SAFETY: sysconf only reads a process-wide constant.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

/// User and system CPU seconds of a live process (all its threads, dead
/// ones included), from `/proc/<pid>/stat`. Resolution is one clock tick.
pub fn proc_cpu(pid: u32) -> Result<(f64, f64), BenchError> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; the fields after it do not.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| BenchError::msg(format!("malformed /proc/{pid}/stat")))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ")": state is field 3 of the full line, utime 14, stime 15.
    let num = |i: usize| -> Result<f64, BenchError> {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .ok_or_else(|| BenchError::msg(format!("malformed /proc/{pid}/stat")))
    };
    let hz = clock_ticks();
    Ok((num(11)? / hz, num(12)? / hz))
}

/// Host-wide CPU counters, for the steal share over a run.
#[derive(Debug, Clone, Copy)]
pub struct HostCpu {
    steal: u64,
    total: u64,
}

impl HostCpu {
    /// Reads the aggregate `cpu` line of `/proc/stat`.
    pub fn read() -> HostCpu {
        let line = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_default();
        let vals: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        HostCpu {
            steal: vals.get(7).copied().unwrap_or(0),
            // guest time is already counted in user; sum the first eight.
            total: vals.iter().take(8).sum(),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`, in %.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// The thread budget a program of this workspace resolves by default:
/// `DCN_THREADS` when it parses to a positive count, else the core count.
pub fn default_thread_budget() -> usize {
    std::env::var("DCN_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(cores)
}

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A child process that is killed and reaped when dropped, so no error
/// path leaves a process behind.
pub struct Proc {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    name: String,
}

impl Proc {
    /// Spawns `cmd` with stdout piped (read it with [`Proc::wait_line`]) and
    /// stderr inherited.
    pub fn spawn(mut cmd: Command, name: &str) -> Result<Proc, BenchError> {
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd
            .spawn()
            .map_err(|e| BenchError::msg(format!("cannot start {name}: {e}")))?;
        let stdout = child.stdout.take().map(BufReader::new);
        Ok(Proc {
            child: Some(child),
            stdout,
            name: name.to_string(),
        })
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Reads stdout lines until one starts with `prefix`; returns the rest
    /// of that line. Fails if the process closes stdout first.
    pub fn wait_line(&mut self, prefix: &str) -> Result<String, BenchError> {
        let out = self
            .stdout
            .as_mut()
            .ok_or_else(|| BenchError::msg(format!("{}: stdout not piped", self.name)))?;
        let mut line = String::new();
        loop {
            line.clear();
            if out.read_line(&mut line)? == 0 {
                return Err(BenchError::msg(format!(
                    "{} exited before printing {prefix:?}",
                    self.name
                )));
            }
            if let Some(rest) = line.trim_end().strip_prefix(prefix) {
                return Ok(rest.trim().to_string());
            }
        }
    }

    /// Every remaining stdout line (blocks until the process closes stdout).
    fn read_rest(&mut self) -> Result<Vec<String>, BenchError> {
        let mut lines = Vec::new();
        if let Some(out) = self.stdout.as_mut() {
            let mut line = String::new();
            while out.read_line(&mut line)? > 0 {
                lines.push(line.trim_end().to_string());
                line.clear();
            }
        }
        Ok(lines)
    }

    /// Kills the process and returns its lifetime CPU time and peak memory.
    pub fn stop(mut self) -> Result<Usage, BenchError> {
        if let Some(child) = self.child.as_mut() {
            child.kill()?;
        }
        Ok(self.wait_usage(Duration::from_secs(10))?.1)
    }

    /// Waits for the process to exit on its own (up to `timeout`) and
    /// returns its exit code, its resource usage (from `wait4`) and the
    /// stdout lines it left unread.
    pub fn wait_usage(
        mut self,
        timeout: Duration,
    ) -> Result<(i32, Usage, Vec<String>), BenchError> {
        let pid = self.pid() as i32;
        let deadline = Instant::now() + timeout;
        loop {
            let mut status = 0i32;
            let mut ru = Rusage::default();
            // SAFETY: `status` and `ru` are valid, exclusively borrowed
            // out-pointers of the layout the kernel writes; `pid` is our own
            // unreaped child.
            let r = unsafe { wait4(pid, &mut status, WNOHANG, &mut ru) };
            if r == pid {
                // Reaped: std must not wait on it again.
                self.child = None;
                let code = if status & 0x7f == 0 {
                    (status >> 8) & 0xff
                } else {
                    128 + (status & 0x7f)
                };
                let usage = Usage {
                    user_s: ru.utime.sec as f64 + ru.utime.usec as f64 * 1e-6,
                    sys_s: ru.stime.sec as f64 + ru.stime.usec as f64 * 1e-6,
                    peak_rss_mb: ru.maxrss as f64 / 1024.0,
                };
                return Ok((code, usage, self.read_rest()?));
            }
            if r < 0 {
                return Err(BenchError::msg(format!("wait4 on {} failed", self.name)));
            }
            if Instant::now() > deadline {
                return Err(BenchError::msg(format!(
                    "{} did not exit within {timeout:?}",
                    self.name
                )));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}
