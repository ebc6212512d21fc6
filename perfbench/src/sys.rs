//! Process plumbing: memory readings, the work directory, child processes
//! and the provenance record written with every result.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A `kB` field (`VmHWM`, `VmRSS`, ...) of `/proc/<pid>/status`; `None`
/// reads the benchmark's own process.
pub fn status_kb(pid: Option<u32>, key: &str) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Mirror of Linux's 64-bit `struct rusage`: two `timeval`s, then
/// fourteen `long`s starting with `ru_maxrss`.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of the largest child process waited for so far, in
/// kB (`getrusage(RUSAGE_CHILDREN)`).
pub fn children_max_rss_kb() -> Option<u64> {
    const RUSAGE_CHILDREN: i32 = -1;
    if !cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        return None;
    }
    let mut r = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: on 64-bit Linux `getrusage` writes exactly one `struct
    // rusage`, whose layout `Rusage` mirrors field for field, through a
    // pointer to this live, writable local.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut r) };
    (rc == 0).then(|| u64::try_from(r.maxrss).unwrap_or(0))
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `perfbench/.work/<tag>-<pid>` under the working directory.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let path = work_root().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where runs keep scratch files, traces and result records.
pub fn work_root() -> PathBuf {
    PathBuf::from("perfbench").join(".work")
}

/// The `loloha-cli` binary built next to the benchmark's own executable.
pub fn cli_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cli = exe
        .parent()
        .ok_or("benchmark executable has no directory")?
        .join("loloha-cli");
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!(
            "{} is missing: build it with run.sh",
            cli.display()
        ))
    }
}

/// A child process that is killed and reaped if still running when
/// dropped, so no error path leaves one behind.
pub struct ChildGuard {
    child: Option<Child>,
}

impl ChildGuard {
    /// Wraps a spawned child.
    pub fn new(child: Child) -> Self {
        Self { child: Some(child) }
    }

    /// The child's process id.
    pub fn id(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// The child's piped standard output, if any.
    pub fn stdout(&mut self) -> Option<&mut std::process::ChildStdout> {
        self.child.as_mut()?.stdout.as_mut()
    }

    /// Waits up to `limit` for the child to exit on its own, killing it
    /// after that; returns whether it exited successfully in time.
    pub fn wait(mut self, limit: Duration) -> Result<bool, String> {
        let mut child = self.child.take().ok_or("child already reaped")?;
        let deadline = Instant::now() + limit;
        loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => return Ok(status.success()),
                None if Instant::now() >= deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Ok(false);
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(child) = &mut self.child {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The provenance record written with every result, as a JSON object.
pub fn provenance() -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"available_parallelism\": {threads}, \"git_commit\": \"{}\", \"rustc\": \"{}\", \
         \"profile\": \"{profile}\", \"network\": \"loopback 127.0.0.1 only\", \
         \"held_out_seed\": {}}}",
        // Only a checkout that is itself a git repository has a commit;
        // asking git elsewhere could report an enclosing repository's.
        if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown (not a git checkout)".to_string()
        },
        command_line("rustc", &["-V"]),
        crate::gen::HELD_OUT_SEED
    )
}
