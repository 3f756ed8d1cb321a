//! Child-process plumbing: spawn a peer binary, wait for the stdout
//! lines it advertises, sample its CPU and peak memory from `/proc`,
//! and stop it (SIGTERM first, SIGKILL only past a grace period),
//! always reaping it.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::stats::{parse_proc_stat, parse_vm_hwm_kb, CpuTicks};

// SAFETY: the prototypes match POSIX and Linux (`int kill(pid_t, int)`,
// `long sysconf(int)`, variadic `int prctl(int, ...)` called with one
// `unsigned long` argument), with `pid_t` and `int` as `i32`.
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn sysconf(name: i32) -> i64;
    fn prctl(option: i32, ...) -> i32;
}

const SIGTERM: i32 = 15;
const SIGKILL: u64 = 9;
/// `PR_SET_PDEATHSIG`: the signal a child gets when its parent dies.
const PR_SET_PDEATHSIG: i32 = 1;
/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields.
pub fn clock_ticks_per_sec() -> u64 {
    // SAFETY: sysconf only reads a configuration value; no pointers.
    let v = unsafe { sysconf(SC_CLK_TCK) };
    u64::try_from(v).ok().filter(|&v| v > 0).unwrap_or(100)
}

/// A running child with its stdout lines arriving on a channel.
pub struct Proc {
    /// Label for diagnostics.
    name: String,
    child: Child,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    exit: Option<i32>,
}

impl Proc {
    /// Spawns `program args…` with stdout piped to the line channel and
    /// stderr written to `stderr_path`.
    pub fn spawn(
        name: &str,
        program: &Path,
        args: &[String],
        stderr_path: &Path,
    ) -> Result<Proc, String> {
        let stderr =
            File::create(stderr_path).map_err(|e| format!("{}: {e}", stderr_path.display()))?;
        let mut command = Command::new(program);
        // SAFETY: the hook runs in the forked child before exec and
        // makes one async-signal-safe syscall. It ties the child's life
        // to this (spawning) thread, so a benchmark killed mid-run
        // leaves no peer behind.
        unsafe {
            command.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let mut child = command
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        let stdout = child.stdout.take().ok_or("child stdout missing")?;
        let (tx, lines) = channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Proc { name: name.to_string(), child, lines, reader: Some(reader), exit: None })
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits until a stdout line starting with `prefix` arrives; returns
    /// its arrival instant and the rest of the line.
    pub fn wait_line(&self, prefix: &str, deadline: Instant) -> Result<(Instant, String), String> {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok((at, line)) => {
                    if let Some(rest) = line.strip_prefix(prefix) {
                        return Ok((at, rest.trim().to_string()));
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("{}: no {prefix:?} line in time", self.name))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("{}: exited before printing {prefix:?}", self.name))
                }
            }
        }
    }

    /// `utime + stime` so far, if the process is still readable.
    pub fn cpu(&self) -> Option<CpuTicks> {
        let text = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        parse_proc_stat(&text)
    }

    /// Peak resident set (`VmHWM`) in kB.
    pub fn vm_hwm_kb(&self) -> Option<u64> {
        let text = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        parse_vm_hwm_kb(&text)
    }

    /// Waits for the process to exit until `deadline`; returns its exit
    /// code (`-1` for death by signal), or `None` if it is still
    /// running.
    pub fn wait_exit(&mut self, deadline: Instant) -> Option<i32> {
        loop {
            if let Some(code) = self.exit {
                return Some(code);
            }
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.exit = Some(status.code().unwrap_or(-1));
                    if let Some(r) = self.reader.take() {
                        let _ = r.join();
                    }
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => return None,
            }
        }
    }

    /// Asks the process to drain (SIGTERM) and reaps it; SIGKILLs it
    /// if it has not exited after `grace`. Returns the exit code.
    pub fn terminate(&mut self, grace: Duration) -> i32 {
        if self.exit.is_none() {
            if let Ok(pid) = i32::try_from(self.pid()) {
                // SAFETY: `pid` is our own unreaped child (reaping only
                // happens in `wait_exit`), so it cannot name a
                // recycled process.
                unsafe {
                    kill(pid, SIGTERM);
                }
            }
        }
        if let Some(code) = self.wait_exit(Instant::now() + grace) {
            return code;
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        self.exit = Some(-9);
        -9
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if self.exit.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}
