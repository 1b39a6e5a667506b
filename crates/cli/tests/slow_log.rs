//! `ringrt serve --slow-ms` end to end: the built binary logs every
//! request at least as slow as the limit to stderr once its reply is
//! written.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

#[test]
fn slow_ms_zero_logs_every_request() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ringrt"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--slow-ms",
            "0",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("start ringrt serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut first = String::new();
    stdout.read_line(&mut first).expect("read listening line");
    // "listening on <addr> (…)": the third token is the bound address.
    let addr = first
        .split_whitespace()
        .nth(2)
        .unwrap_or_else(|| panic!("unexpected first line {first:?}"))
        .to_owned();

    let check = "CHECK mbps=16 set=20,20000;50,60000 protocol=modified";
    let stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    for (request, want) in [
        ("PING", "OK cmd=ping"),
        (check, "OK cmd=check"),
        ("SHUTDOWN", "OK cmd=shutdown"),
    ] {
        writeln!(writer, "{request}").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        assert!(reply.starts_with(want), "{request}: {reply:?}");
    }
    let status = child.wait().expect("server exits after SHUTDOWN");
    assert!(status.success(), "{status:?}");

    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    for request in ["PING", check] {
        assert!(
            stderr
                .lines()
                .any(|l| l.contains("slow request") && l.ends_with(request)),
            "no slow-request line for {request:?} in stderr:\n{stderr}"
        );
    }
}
