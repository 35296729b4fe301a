//! The `pqd` binary, driven over real sockets: the serving-path contracts
//! that only exist between processes.
//!
//! * a reply blocked on a client that does not read holds no lock — an
//!   `INSERT` from another connection completes meanwhile;
//! * a request line over the cap is refused with `ERR line too long` and
//!   costs the server no more memory than the cap;
//! * SIGTERM on a durable server is a clean shutdown: exit status 0, a
//!   final checkpoint, nothing left for the next start to replay.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, ChildStdout, Command, ExitStatus, Stdio};
use std::time::Duration;

/// A scratch directory under the build's own tmpdir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("pqd-serving-{tag}"));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).unwrap();
        Scratch(path)
    }

    fn write(&self, name: &str, text: &str) {
        std::fs::write(self.0.join(name), text).unwrap();
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A spawned `pqd`; killed and reaped on drop.
struct Pqd {
    child: Child,
    address: String,
    stderr: BufReader<ChildStderr>,
    /// Kept open for the child's lifetime, so nothing it prints later hits
    /// a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Pqd {
    /// Spawn `pqd args… --port 0` and read the address it announces.
    fn spawn(args: &[&str]) -> Pqd {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pqd"))
            .args(args)
            .args(["--port", "0", "--threads", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("pqd spawns");
        let stderr = BufReader::new(child.stderr.take().unwrap());
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut announced = String::new();
        stdout.read_line(&mut announced).unwrap();
        let address = announced
            .trim()
            .rsplit_once("listening on ")
            .unwrap_or_else(|| panic!("pqd said `{announced}`"))
            .1
            .to_string();
        Pqd {
            child,
            address,
            stderr,
            _stdout: stdout,
        }
    }

    /// A connection with its `READY` greeting consumed. A server that
    /// wedges fails the test through the read timeout instead of hanging it.
    fn connect(&self) -> BufReader<TcpStream> {
        let stream = TcpStream::connect(&self.address).expect("connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let mut client = BufReader::new(stream);
        let greeting = read_line(&mut client);
        assert!(greeting.starts_with("READY"), "{greeting}");
        client
    }

    /// Peak resident set size so far, in KiB.
    fn peak_rss_kib(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).unwrap();
        let line = status
            .lines()
            .find(|l| l.starts_with("VmHWM:"))
            .expect("VmHWM");
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    /// Wait for the process to exit by itself and return everything it
    /// logged.
    fn wait(mut self) -> (ExitStatus, String) {
        let status = self.child.wait().unwrap();
        let mut log = String::new();
        self.stderr.read_to_string(&mut log).unwrap();
        (status, log)
    }
}

impl Drop for Pqd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn send(client: &mut BufReader<TcpStream>, line: &str) {
    client
        .get_mut()
        .write_all(format!("{line}\n").as_bytes())
        .unwrap();
}

fn read_line(client: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    client
        .read_line(&mut line)
        .expect("the server answers in time");
    line.trim_end().to_string()
}

/// Read a response block to its `OK`/`ERR` line; returns that line and the
/// number of `ROW` lines before it.
fn read_block(client: &mut BufReader<TcpStream>) -> (String, usize) {
    let mut rows = 0;
    loop {
        let line = read_line(client);
        if line.starts_with("OK") || line.starts_with("ERR") {
            return (line, rows);
        }
        assert!(!line.is_empty(), "connection closed mid-block");
        rows += usize::from(line.starts_with("ROW "));
    }
}

const STAR: &str = "Q(z, a, b) :- R(z, a), S(z, b)";

/// `R(z, a)`, `S(z, b)` as CSV text: `hub` tuples on one `z` each, so the
/// star join answers `hub²` rows; every token is `width` bytes wide.
fn wide_star(scratch: &Scratch, hub: usize, width: usize) {
    for name in ["R", "S"] {
        let mut text = String::from("z,v\n");
        for i in 0..hub {
            text.push_str(&format!("{:h>width$},{name}{i:0>width$}\n", "hub"));
        }
        scratch.write(&format!("{name}.csv"), &text);
    }
}

#[test]
fn an_insert_completes_while_a_wide_reply_is_blocked_on_an_unread_socket() {
    let scratch = Scratch::new("blocked-reply");
    // 204² = 41 616 rows of three 400-byte tokens: ≈ 50 MB, far more than
    // the socket buffers between server and client hold.
    wide_star(&scratch, 204, 400);
    let pqd = Pqd::spawn(&["--data", scratch.0.to_str().unwrap(), "--servers", "16"]);
    let mut reader = pqd.connect();
    let mut writer = pqd.connect();

    send(&mut reader, &format!("RUN {STAR}"));
    // The first line proves the reply is under way; from here on nobody
    // reads it, so the server's writes to this socket come to block.
    assert!(read_line(&mut reader).starts_with("ROW "));
    // A new token needs the dictionary's write lock.
    send(&mut writer, "INSERT R fresh-z,fresh-a");
    let (status, _) = read_block(&mut writer);
    assert!(status.starts_with("OK inserted 1 row into R"), "{status}");

    // The blocked reply is still whole: chunks re-lock the dictionary, whose
    // ids never change.
    let (status, rows) = read_block(&mut reader);
    assert!(status.starts_with("OK 41616 rows"), "{status}");
    assert_eq!(rows + 1, 41616);
}

#[test]
fn an_over_long_request_line_is_refused_within_the_cap() {
    let scratch = Scratch::new("long-line");
    wide_star(&scratch, 4, 3);
    let pqd = Pqd::spawn(&["--data", scratch.0.to_str().unwrap(), "--servers", "4"]);
    let mut client = pqd.connect();
    // A line at the cap is a request like any other.
    send(
        &mut client,
        &format!("RUN {STAR}{}", " ".repeat((1 << 20) - 4 - STAR.len())),
    );
    assert_eq!(
        read_block(&mut client),
        ("OK 16 rows strategy=skew-aware star cache=MISS".into(), 16)
    );

    let before = pqd.peak_rss_kib();
    // 16 MiB without a newline: sixteen times the cap.
    let junk = vec![b'x'; 1 << 20];
    for _ in 0..16 {
        client.get_mut().write_all(&junk).unwrap();
    }
    client.get_mut().write_all(b"\n").unwrap();
    let refusal = read_line(&mut client);
    assert!(refusal.starts_with("ERR line too long"), "{refusal}");
    assert_eq!(read_line(&mut client), "", "then the server hangs up");
    let grown = pqd.peak_rss_kib().saturating_sub(before);
    assert!(
        grown < 4 << 10,
        "peak RSS grew by {grown} KiB reading a 16 MiB line"
    );

    // Only that connection was dropped.
    let mut next = pqd.connect();
    send(&mut next, &format!("RUN {STAR}"));
    assert_eq!(read_block(&mut next).1, 16);
}

#[test]
fn sigterm_on_a_durable_server_checkpoints_and_exits_zero() {
    let scratch = Scratch::new("sigterm");
    wide_star(&scratch, 4, 3);
    let csv = scratch.0.to_str().unwrap();
    let data_dir = scratch.0.join("wal");
    let durable = [
        "--data",
        csv,
        "--data-dir",
        data_dir.to_str().unwrap(),
        "--servers",
        "4",
    ];

    let pqd = Pqd::spawn(&durable);
    let mut client = pqd.connect();
    send(&mut client, "INSERT R hub,late-a;hub,late-b");
    assert!(read_block(&mut client).0.starts_with("OK inserted 2 rows"));
    // Mid-session: the connection above stays open across the signal.
    let killed = Command::new("kill")
        .args(["-TERM", &pqd.child.id().to_string()])
        .status()
        .unwrap();
    assert!(killed.success());
    let (status, log) = pqd.wait();
    assert_eq!(status.code(), Some(0), "graceful exit; log:\n{log}");
    assert!(log.contains("final checkpoint written"), "{log}");
    let checkpoints = std::fs::read_dir(&data_dir)
        .unwrap()
        .filter(|entry| {
            entry
                .as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|e| e == "ckpt")
        })
        .count();
    assert!(checkpoints >= 1, "no checkpoint in {}", data_dir.display());

    // The next start recovers the inserts from the checkpoint alone.
    let mut restarted = Pqd::spawn(&durable);
    let mut opened = String::new();
    while !opened.contains("durable state opened") {
        opened.clear();
        assert_ne!(
            restarted.stderr.read_line(&mut opened).unwrap(),
            0,
            "no open line logged"
        );
    }
    assert!(opened.contains("source=checkpoint"), "{opened}");
    assert!(opened.contains("replayed_records=0"), "{opened}");
    let mut client = restarted.connect();
    send(&mut client, &format!("RUN {STAR}"));
    assert_eq!(read_block(&mut client).1, 6 * 4);
}

/// Not a pass/fail test: prints what a client with default socket options
/// (no `TCP_NODELAY`, no `TCP_QUICKACK`) waits for 30 wide replies. Before
/// the server set `TCP_NODELAY`, each reply's last segment could sit out
/// the client's 40 ms delayed ACK.
#[test]
#[ignore = "a measurement; run with --ignored --nocapture"]
fn wide_replies_to_a_default_options_client() {
    let scratch = Scratch::new("nodelay");
    wide_star(&scratch, 204, 8);
    let pqd = Pqd::spawn(&["--data", scratch.0.to_str().unwrap(), "--servers", "16"]);
    let mut client = pqd.connect();
    let mut millis: Vec<f64> = (0..30)
        .map(|_| {
            let start = std::time::Instant::now();
            send(&mut client, &format!("RUN {STAR}"));
            assert_eq!(read_block(&mut client).1, 41616);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    millis.sort_by(f64::total_cmp);
    println!(
        "30 RUNs of 41616 rows, default-options client: median {:.1} ms, max {:.1} ms",
        millis[15], millis[29]
    );
}
