//! Subprocesses and the files they use: the `silc` binary under test, a
//! scratch directory inside the checkout, a watchdog for hung children,
//! and peak memory of what was run. Linux only (`/proc`, `ru_maxrss` in
//! kilobytes).

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// An op that runs longer than this is killed and counted as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Where cargo puts build output, relative to the checkout the
/// benchmark was started in.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// The release `silc` binary. The benchmark does not build it: the
/// command that starts the benchmark does, so that no compiler ever
/// counts among this process's children.
pub fn silc_binary() -> Result<PathBuf, String> {
    let path = target_dir().join("release").join("silc");
    let path = path.canonicalize().map_err(|e| {
        format!(
            "`{}`: {e}; run `cargo build --release` at the root first",
            path.display()
        )
    })?;
    Ok(path)
}

/// A directory of this run's own under the build directory, which git
/// ignores; removed when dropped.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> Result<Scratch, String> {
        Scratch::under(&target_dir())
    }

    pub fn under(build_dir: &Path) -> Result<Scratch, String> {
        let dir = build_dir
            .join("ledger-scratch")
            .join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("`{}`: {e}", dir.display()))?;
        dir.canonicalize().map(Scratch).map_err(|e| e.to_string())
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh empty subdirectory.
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("`{}`: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Kills a registered child once its deadline passes, so the timed
/// thread can block in `wait` and still never hang.
pub struct Watchdog {
    slot: Arc<Mutex<Option<(u32, Instant)>>>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    pub fn start() -> Watchdog {
        let slot: Arc<Mutex<Option<(u32, Instant)>>> = Arc::default();
        let stop = Arc::new(AtomicBool::new(false));
        let (slot2, stop2) = (Arc::clone(&slot), Arc::clone(&stop));
        let thread = std::thread::spawn(move || {
            // Relaxed: the flag publishes nothing but itself.
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(100));
                let expired = slot2
                    .lock()
                    .expect("watchdog slot")
                    .filter(|&(_, deadline)| Instant::now() >= deadline);
                if let Some((pid, _)) = expired {
                    let _ = Command::new("kill")
                        .arg("-KILL")
                        .arg(pid.to_string())
                        .status();
                }
            }
        });
        Watchdog {
            slot,
            stop,
            thread: Some(thread),
        }
    }

    fn watch(&self, pid: u32) {
        *self.slot.lock().expect("watchdog slot") = Some((pid, Instant::now() + OP_TIMEOUT));
    }

    fn clear(&self) {
        *self.slot.lock().expect("watchdog slot") = None;
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// What one CLI invocation did.
#[derive(Debug)]
pub struct CliRun {
    /// Exit code; `None` when killed by a signal (the watchdog's).
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
    /// Spawn to exit, milliseconds.
    pub ms: f64,
}

/// Runs `silc` with `args` in `dir` and waits for it, timing from just
/// before the spawn to just after the exit.
pub fn run_silc(
    silc: &Path,
    dir: &Path,
    args: &[&str],
    watchdog: &Watchdog,
) -> Result<CliRun, String> {
    let start = Instant::now();
    let child = Command::new(silc)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start `{}`: {e}", silc.display()))?;
    watchdog.watch(child.id());
    let output = child.wait_with_output();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    watchdog.clear();
    let output = output.map_err(|e| format!("waiting for silc: {e}"))?;
    Ok(CliRun {
        code: output.status.code(),
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&output.stderr).into_owned(),
        ms,
    })
}

/// A `silc serve` subprocess on an ephemeral local port.
pub struct ServerProc {
    child: Child,
    pub addr: String,
    /// Kept open so that a late warning from the server does not hit a
    /// closed pipe.
    _stderr: BufReader<std::process::ChildStderr>,
}

impl ServerProc {
    /// Starts the server with `jobs` workers; on one core when asked.
    pub fn start(
        silc: &Path,
        dir: &Path,
        jobs: usize,
        one_core: bool,
    ) -> Result<ServerProc, String> {
        let _held = one_core.then(OneCore::hold);
        let mut child = Command::new(silc)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                &jobs.to_string(),
            ])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start `silc serve`: {e}"))?;
        // The server announces its port on the first stderr line.
        let mut line = String::new();
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr was piped"));
        let read = stderr.read_line(&mut line);
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split(';').next())
            .map(str::to_string);
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc {
                child,
                addr,
                _stderr: stderr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "`silc serve` did not announce its address: `{}`",
                    line.trim()
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits for the server to exit after a `shutdown` request; kills it
    /// if it has not within ten seconds. Returns true on a clean exit 0.
    pub fn wait_for_exit(mut self) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // Reached only when a run bails out before `wait_for_exit`.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// High-water resident set of process `pid` in megabytes, from
/// `/proc/<pid>/status`.
pub fn peak_rss_mb_of(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The largest high-water resident set among the children this process
/// has waited for, in megabytes.
pub fn peak_rss_mb_of_children() -> f64 {
    // `struct rusage` on Linux: two timevals, then fourteen longs of
    // which the first is `ru_maxrss` in kilobytes. Hand-declared, like
    // `signal` in silc-serve: the workspace vendors no `libc`.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        ru_maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        ru_maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable value with the size and layout
    // of the C struct on 64-bit Linux; `getrusage` writes it and keeps
    // no pointer.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.ru_maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// A `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Holds the calling thread, and every thread and process it starts
/// meanwhile, on one core; the thread is free again when this is dropped
/// (what it started stays where it is).
///
/// For `serve_mix` only. A round trip there is some twenty microseconds
/// of work handed between threads that sleep in between. Spread over two
/// virtual cores, most of what a round trip takes is not that work but
/// waking a halted core or interrupting a running one, and whether the
/// cores happen to be awake and which thread lands where decides the
/// figure: the same closed loop measured 94 us on an idle box, 38 us
/// with both cores kept busy by something else, 60 us on some runs of
/// that for no visible reason, and 23 us, every time, on one core. One
/// closed-loop connection has nothing to run in parallel, so one core
/// takes nothing from it.
pub struct OneCore {
    before: Option<CpuSet>,
}

impl OneCore {
    /// Pins the calling thread to the last core it may run on (the first
    /// takes more of the machine's interrupts). Says so and carries on
    /// unpinned where the kernel refuses.
    pub fn hold() -> OneCore {
        let size = std::mem::size_of::<CpuSet>();
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` and `one` are live values of the size passed;
        // the calls write the first, read the second and keep no
        // pointer. Pid 0 is the calling thread.
        let pinned = unsafe { sched_getaffinity(0, size, &mut allowed) } == 0
            && (0..1024)
                .rev()
                .find(|&cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
                .is_some_and(|cpu| {
                    let mut one: CpuSet = [0; 16];
                    one[cpu / 64] = 1 << (cpu % 64);
                    unsafe { sched_setaffinity(0, size, &one) == 0 }
                });
        if !pinned {
            eprintln!("ledger: cannot pin to one core; serve_mix runs where the scheduler puts it");
        }
        OneCore {
            before: pinned.then_some(allowed),
        }
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        if let Some(before) = &self.before {
            // SAFETY: as in `hold`.
            unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), before) };
        }
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the ledger reads /proc and `struct rusage` as laid out on 64-bit Linux");
