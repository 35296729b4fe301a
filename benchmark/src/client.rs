//! The line-protocol client: one connection, one request at a time.

use crate::oracle::AnswerDigest;
use crate::spec::REPLY_TIMEOUT_SECS;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// A stream whose receiving side acknowledges at once (`TCP_QUICKACK`).
///
/// `pqd` writes a reply through an 8 KiB `BufWriter` on a socket with
/// Nagle's algorithm on, so the reply's last, short segment — the `OK`
/// line — is held back until everything before it is acknowledged. A Linux
/// receiver acknowledges every second full segment at once and otherwise
/// waits up to 40 ms; which of the two the segment before the last one gets
/// depends on how the writes happened to coalesce. With the default socket
/// `star_skew_wide` (a 1.28 MB reply) therefore reads ≈ 35 ms or ≈ 80 ms per
/// query on a coin flip that no change to the repository's code moves. The
/// benchmark takes the coin out: it acknowledges immediately. (Setting
/// `TCP_NODELAY` in `pqd` would do the same for every client; that is a
/// change to the program, not to its benchmark.) The kernel drops the flag
/// again as it sees fit, so it is re-armed around every socket call.
#[derive(Debug)]
struct QuickAck(TcpStream);

impl QuickAck {
    fn arm(&self) {
        extern "C" {
            fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        }
        const IPPROTO_TCP: i32 = 6;
        const TCP_QUICKACK: i32 = 12;
        let on: i32 = 1;
        // SAFETY: `fd` is this stream's open socket, `value` points at a
        // live `i32` and `len` is its size, as setsockopt(2) requires. A
        // failure (returned, not raised) only means delayed ACKs stay on.
        unsafe {
            setsockopt(self.0.as_raw_fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4);
        }
    }
}

impl Read for QuickAck {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.read(buf);
        self.arm();
        n
    }
}

/// One response block, digested while it streams in.
#[derive(Debug, Clone, Default)]
pub struct Reply {
    /// The terminating `OK …` / `ERR …` line, without its newline.
    pub status: String,
    /// Digest of the `ROW` payloads.
    pub digest: AnswerDigest,
    /// Bytes read for this reply, newlines included.
    pub bytes: u64,
    /// Non-`ROW` body lines (what `STATS` and `METRICS` print).
    pub body: Vec<String>,
    /// Request line written → status line read.
    pub latency: Duration,
}

impl Reply {
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("OK")
    }

    /// The number after `key` in the status line (`bytes_on_wire=123`).
    pub fn status_field(&self, key: &str) -> Option<u64> {
        self.status
            .split_whitespace()
            .find_map(|word| word.strip_prefix(key)?.parse().ok())
    }
}

#[derive(Debug)]
pub struct Client {
    reader: BufReader<QuickAck>,
    line: Vec<u8>,
}

impl Client {
    /// Connect and consume the `READY` greeting.
    pub fn connect(address: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(address).map_err(|e| format!("connect {address}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("TCP_NODELAY: {e}"))?;
        // A reply slower than the limit counts as failed; the read timeout
        // is what turns "slow" into an error instead of a hang.
        stream
            .set_read_timeout(Some(Duration::from_secs(REPLY_TIMEOUT_SECS)))
            .map_err(|e| format!("read timeout: {e}"))?;
        let mut client = Client {
            reader: BufReader::with_capacity(1 << 16, QuickAck(stream)),
            line: Vec::new(),
        };
        let greeting = client.read_line()?;
        if !greeting.starts_with(b"READY") {
            return Err(format!(
                "expected READY, got `{}`",
                String::from_utf8_lossy(greeting)
            ));
        }
        Ok(client)
    }

    fn read_line(&mut self) -> Result<&[u8], String> {
        self.line.clear();
        let n = self
            .reader
            .read_until(b'\n', &mut self.line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".to_string());
        }
        Ok(self.line.strip_suffix(b"\n").unwrap_or(&self.line))
    }

    /// Send one request line and read its whole response block.
    ///
    /// # Errors
    /// Only transport failures (closed socket, timeout). An `ERR` reply is
    /// a successful exchange; check [`Reply::is_ok`].
    pub fn request(&mut self, line: &str) -> Result<Reply, String> {
        let start = Instant::now();
        let mut message = Vec::with_capacity(line.len() + 1);
        message.extend_from_slice(line.as_bytes());
        message.push(b'\n');
        let socket = self.reader.get_mut();
        socket
            .0
            .write_all(&message)
            .map_err(|e| format!("write: {e}"))?;
        socket.arm();
        let mut reply = Reply::default();
        loop {
            let text = self.read_line()?;
            reply.bytes += text.len() as u64 + 1;
            if let Some(payload) = text.strip_prefix(b"ROW ") {
                reply.digest.add_row(payload);
            } else if text.starts_with(b"OK") || text.starts_with(b"ERR") {
                reply.status = String::from_utf8_lossy(text).into_owned();
                reply.latency = start.elapsed();
                return Ok(reply);
            } else {
                reply.body.push(String::from_utf8_lossy(text).into_owned());
            }
        }
    }
}

/// Sum the samples of a Prometheus text exposition by metric name, labels
/// folded together (`pq_query_latency_micros_sum{strategy=…}` → one total).
pub fn prometheus_totals(body: &[String]) -> std::collections::HashMap<String, f64> {
    let mut totals = std::collections::HashMap::new();
    for line in body.iter().filter(|l| !l.starts_with('#')) {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        // Quantile samples are not additive; only counters, sums and counts
        // are ever read from here.
        if series.contains("quantile=") {
            continue;
        }
        let name = series.split('{').next().unwrap_or(series);
        *totals.entry(name.to_string()).or_insert(0.0) += value;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_and_prometheus_totals_parse() {
        let reply = Reply {
            status: "OK 64 rows strategy=one-round HyperCube cache=HIT bytes_on_wire=12345 degraded=false".into(),
            ..Reply::default()
        };
        assert!(reply.is_ok());
        assert_eq!(reply.status_field("bytes_on_wire="), Some(12345));
        assert_eq!(reply.status_field("missing="), None);

        let body: Vec<String> = [
            "# HELP pq_wal_bytes_total bytes",
            "pq_wal_bytes_total 4096",
            "pq_query_latency_micros{strategy=\"a b\",quantile=\"0.5\"} 16383",
            "pq_query_latency_micros_sum{strategy=\"a b\"} 100",
            "pq_query_latency_micros_sum{strategy=\"c\"} 50",
            "pq_query_latency_micros_count{strategy=\"a b\"} 3",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let totals = prometheus_totals(&body);
        assert_eq!(totals["pq_wal_bytes_total"], 4096.0);
        assert_eq!(totals["pq_query_latency_micros_sum"], 150.0);
        assert_eq!(totals["pq_query_latency_micros_count"], 3.0);
        assert!(!totals.contains_key("pq_query_latency_micros"));
    }
}
