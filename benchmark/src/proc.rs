//! Child processes and scratch space, owned by guards: whichever way a run
//! ends — normal return, `?`, panic, SIGINT — dropping the guards kills
//! `pqd` and its workers, waits for them, and removes the run's directory
//! under `benchmark/out/tmp/`.

use crate::json::Json;
use std::ffi::OsString;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The repository root: the directory holding `benchmark/` and `crates/`.
/// The benchmark is run from the root (the contract) or from `benchmark/`
/// (`cargo test --manifest-path`).
pub fn repo_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    [cwd.clone(), cwd.join("..")]
        .into_iter()
        .find(|dir| {
            dir.join("benchmark/Cargo.toml").is_file()
                && dir.join("crates/pq-engine/Cargo.toml").is_file()
        })
        .and_then(|dir| dir.canonicalize().ok())
        .ok_or_else(|| {
            format!(
                "{} is not the repository root (no benchmark/ next to crates/pq-engine)",
                cwd.display()
            )
        })
}

/// Build the workspace's `pqd` in release mode and return the executable
/// cargo reports. Always goes through cargo — a no-op when up to date — so
/// the binary driven is the one the checked-out sources describe, wherever
/// `CARGO_TARGET_DIR` points.
pub fn build_pqd(root: &Path) -> Result<PathBuf, String> {
    let start = Instant::now();
    let output = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "-p",
            "pq-engine",
            "--bin",
            "pqd",
        ])
        .arg("--message-format=json")
        .current_dir(root)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("cargo build of pqd failed ({})", output.status));
    }
    if start.elapsed() > Duration::from_secs(2) {
        // A real compile leaves the host writing back hundreds of MB of
        // build output for the next 10-20 s, which doubles query latency
        // while it lasts. Flush it now rather than measure through it.
        let _ = Command::new("sync").status();
        std::thread::sleep(Duration::from_secs(3));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|message| message.get("reason").and_then(Json::as_str) == Some("compiler-artifact"))
        .filter(|message| {
            message
                .get("target")
                .and_then(|t| t.get("name"))
                .and_then(Json::as_str)
                == Some("pqd")
        })
        .filter_map(|message| {
            message
                .get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .next_back()
        .ok_or_else(|| "cargo reported no pqd executable".to_string())
}

/// A directory under `benchmark/out/tmp/`, removed on drop.
#[derive(Debug)]
pub struct TmpDir {
    path: PathBuf,
}

impl TmpDir {
    /// Create `benchmark/out/tmp/<label>-<pid>` (emptied if a crashed run
    /// with a recycled pid left it behind).
    pub fn create(root: &Path, label: &str) -> Result<TmpDir, String> {
        let path = root
            .join("benchmark/out/tmp")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(TmpDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One spawned `pqd` (server or worker). Dropping it sends SIGKILL and
/// waits, so no child outlives the value.
#[derive(Debug)]
pub struct Proc {
    child: Child,
    /// Kept open for the child's lifetime: `pqd` prints to stdout again on
    /// shutdown, and a closed pipe would turn that `println!` into a panic.
    _stdout: BufReader<ChildStdout>,
}

impl Proc {
    /// Spawn `bin args…` and read its `… listening on <addr>` line.
    /// Returns the process, the address, and how long the line took.
    pub fn spawn_listening(
        bin: &Path,
        args: &[OsString],
    ) -> Result<(Proc, String, Duration), String> {
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        // From here on the guard owns the child: an early return kills it.
        let mut proc = Proc {
            child,
            _stdout: stdout,
        };
        let mut line = String::new();
        proc._stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading pqd's first line: {e}"))?;
        let elapsed = start.elapsed();
        let address = line
            .trim()
            .rsplit_once("listening on ")
            .map(|(_, address)| address.to_string())
            .ok_or_else(|| format!("pqd did not announce a port, said `{}`", line.trim()))?;
        Ok((proc, address, elapsed))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn kill_and_wait(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill_and_wait();
    }
}

/// CPU seconds (user + system) the process has consumed so far.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // The command name may contain spaces; the fixed fields follow its `)`.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    // After the `)`: state ppid … utime is the 12th, stime the 13th.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / clock_ticks_per_second()),
        _ => Err(format!("/proc/{pid}/stat: unexpected format")),
    }
}

/// Peak resident set size (`VmHWM`) of the process, in KiB.
pub fn peak_rss_kib(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM line"))
}

/// Pids of live children of this process whose command name is `name`.
#[cfg(test)]
pub fn live_children_named(name: &str) -> Vec<u32> {
    let me = std::process::id().to_string();
    std::fs::read_dir("/proc")
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                return false;
            };
            let Some((head, rest)) = stat.rsplit_once(')') else {
                return false;
            };
            let comm = head.split_once('(').map_or("", |(_, comm)| comm);
            let mut fields = rest.split_whitespace();
            // A zombie is dead; only its exit status awaits collection.
            let state = fields.next();
            comm == name && state != Some("Z") && fields.next() == Some(me.as_str())
        })
        .collect()
}

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

/// True once SIGINT or SIGTERM arrived. The measurement loops poll this
/// between requests and return an error, which unwinds through the guards.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

extern "C" fn note_signal(_signum: i32) {
    // Async-signal-safe: one atomic store.
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Turn SIGINT/SIGTERM into a flag instead of sudden death, so the guards
/// get to kill the children and clear `out/tmp`.
pub fn install_interrupt_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = note_signal as extern "C" fn(i32) as usize;
    // SAFETY: `signal` is libc's handler registration, given a valid
    // function pointer; the handler only performs an atomic store, which is
    // async-signal-safe.
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: `sysconf` only reads a system constant; it has no
    // preconditions beyond a valid name, and an unknown name returns -1.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_has_cpu_time_and_a_peak_rss() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(peak_rss_kib(pid).unwrap() > 0);
        assert!(cpu_seconds(u32::MAX).is_err());
    }

    #[test]
    fn dropping_a_proc_kills_the_child_and_tmp_dirs_vanish() {
        let root = repo_root().unwrap();
        let dir = TmpDir::create(&root, "proc-test").unwrap();
        std::fs::write(dir.path().join("x"), b"12345").unwrap();
        assert_eq!(dir_bytes(dir.path()), 5);
        let kept = dir.path().to_path_buf();

        // `sh` prints the expected line, then would sleep for a minute.
        let args: Vec<OsString> = ["-c", "echo fake: listening on 127.0.0.1:1; exec sleep 60"]
            .iter()
            .map(OsString::from)
            .collect();
        let (proc, address, _) = Proc::spawn_listening(Path::new("/bin/sh"), &args).unwrap();
        assert_eq!(address, "127.0.0.1:1");
        let entry = format!("/proc/{}", proc.pid());
        assert!(Path::new(&entry).exists());
        drop(proc);
        assert!(!Path::new(&entry).exists(), "drop must kill and reap");

        drop(dir);
        assert!(!kept.exists());
    }
}
