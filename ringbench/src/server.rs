//! The server under test, run as a separate process, and a line client.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A running `ringrt serve` process with its shipped defaults: no state
/// dir, so the ring registry lives in memory and no request waits on the
/// disk. Stopped by [`Server::stop`], or killed on drop.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    stdout: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `bin serve` on an ephemeral port and waits for its
    /// `listening on` line.
    pub fn spawn(bin: &Path) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut reader = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut first = String::new();
        reader.read_line(&mut first)?;
        // "listening on 127.0.0.1:PORT (threads front end, …)"
        let addr = first.split_whitespace().nth(2).and_then(|a| a.parse().ok());
        // Keep draining stdout so the server never blocks on a full pipe.
        let stdout = std::thread::spawn(move || {
            let _ = io::copy(&mut reader.take(u64::MAX), &mut io::sink());
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdout: Some(stdout),
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => {
                server.kill();
                Err(io::Error::other(format!(
                    "unexpected first server line: {first:?}"
                )))
            }
        }
    }

    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set (`VmHWM`) in MiB, from `/proc/<pid>/status`.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Graceful stop: `SHUTDOWN`, then wait for the process to exit
    /// (killing it after 20 s).
    pub fn stop(mut self) -> io::Result<()> {
        let graceful = Client::connect(self.addr)
            .and_then(|mut c| c.roundtrip("SHUTDOWN").map(|r| r.starts_with("OK")))
            .unwrap_or(false);
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut exited = false;
        while graceful && Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                exited = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        if !exited {
            self.kill();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        if exited {
            Ok(())
        } else {
            Err(io::Error::other("server did not shut down cleanly"))
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// One client connection speaking the line protocol, request/reply.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
    reply: String,
}

impl Client {
    /// Connects with `TCP_NODELAY` and a 30 s read timeout.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            out: Vec::with_capacity(256),
            reply: String::with_capacity(256),
        })
    }

    /// Sends one request line and returns its reply line (without the
    /// newline).
    pub fn roundtrip(&mut self, line: &str) -> io::Result<&str> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)?;
        self.read_reply()?;
        Ok(self.reply.trim_end())
    }

    fn read_reply(&mut self) -> io::Result<()> {
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }

    /// Sends `lines` as `BATCH` frames of at most 1 000 lines and returns
    /// every reply in order.
    pub fn batch(&mut self, lines: &[String]) -> io::Result<Vec<String>> {
        let mut replies = Vec::with_capacity(lines.len());
        for chunk in lines.chunks(1000) {
            self.out.clear();
            self.out
                .extend_from_slice(format!("BATCH {}\n", chunk.len()).as_bytes());
            for line in chunk {
                self.out.extend_from_slice(line.as_bytes());
                self.out.push(b'\n');
            }
            self.writer.write_all(&self.out)?;
            for _ in chunk {
                self.read_reply()?;
                replies.push(self.reply.trim_end().to_owned());
            }
        }
        Ok(replies)
    }
}

/// The value of `key=` in a `key=value …` reply line such as `STATS`.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|tok| {
        tok.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix('='))
    })
}

/// A numeric `key=` field.
pub fn field_f64(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

/// A comma-separated numeric list field such as `worker_busy_us=a,b,c`.
pub fn field_list(line: &str, key: &str) -> Option<Vec<f64>> {
    field(line, key)?
        .split(',')
        .map(|v| v.parse().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `STATS` reply captured from `ringrt serve` after a ring preload.
    const STATS: &str = "OK cmd=stats uptime_ms=317 requests=3011 ok=3010 errors=0 busy=0 \
        readonly=0 deadline_expired=0 cache_hits=0 cache_misses=0 cache_entries=0 \
        cache_evictions=0 cache_capacity=4096 hit_fast=0 hit_fast_us=0 rings=2 \
        registry_streams=1984 journal_bytes=140009 snapshot_bytes=0 replay_ms=0.243 \
        replayed_streams=0 incremental_tests=2991 full_tests=15 incremental_evaluations=66328 \
        full_evaluations=9771 streams_total=1984 index_rebuilds=0 store_bytes=318089 \
        role=primary epoch=1 connected=false source=- applied_seq=0 head_seq=0 lag=0 \
        lag_peak=0 followers=0 frames_shipped=0 frames_applied=0 snapshots_installed=0 \
        resyncs=0 promotions=0 workers=4 queue_capacity=64 queue_len=0 inflight=0 \
        exec_threads=2 exec_parallel_runs=0 exec_serial_runs=0 exec_items=0 exec_chunks=0 \
        exec_steal_attempts=0 exec_steals_ok=0 exec_nested_splits=0 frontend=threads \
        max_conns=0 cluster=3315001872 connections_open=1 connections_accepted=1 \
        accept_shed=0 loop_wakeups=0 loop_ready_events=0 idle_closed=0 \
        read_deadline_closed=0 oversized_rejected=0 queue_peak=0 worker_jobs=0,0,0,0 \
        worker_busy_us=0,0,0,0 check_count=6 check_p50_us=33.6 check_p99_us=268.4 \
        saturation_count=0 saturation_p50_us=nan saturation_p99_us=nan simulate_count=0 \
        simulate_p50_us=nan simulate_p99_us=nan abu_count=0 abu_p50_us=nan abu_p99_us=nan \
        sleep_count=0 sleep_p50_us=nan sleep_p99_us=nan";

    #[test]
    fn scrapes_a_captured_stats_line() {
        assert_eq!(field(STATS, "cmd"), Some("stats"));
        assert_eq!(field_f64(STATS, "cache_capacity"), Some(4096.0));
        assert_eq!(field_f64(STATS, "exec_threads"), Some(2.0));
        assert_eq!(field_f64(STATS, "incremental_evaluations"), Some(66328.0));
        assert_eq!(field_f64(STATS, "replay_ms"), Some(0.243));
        // A key that is a prefix of another must not match it.
        assert_eq!(field_f64(STATS, "cache_hits"), Some(0.0));
        assert_eq!(field_f64(STATS, "hit_fast"), Some(0.0));
        assert_eq!(field_f64(STATS, "check_count"), Some(6.0));
        assert_eq!(field_list(STATS, "worker_busy_us"), Some(vec![0.0; 4]));
        assert_eq!(field(STATS, "source"), Some("-"));
        assert!(field_f64(STATS, "saturation_p50_us").is_some_and(f64::is_nan));
        assert_eq!(field(STATS, "no_such_key"), None);
        assert_eq!(field(STATS, "exec"), None);
    }
}
