//! ADMIT-SCALE — per-admission latency of the columnar stream store's
//! incremental admission paths as the ring grows from 10³ to 10⁵ streams.
//!
//! One ring, pinned station count, streams admitted one at a time through
//! `RingRegistry::admit` (the same path the TCP service takes minus the
//! socket). Two protocols tell the two halves of the story:
//!
//! * **fddi (Theorem 5.1):** identical periods keep the negotiated TTRT
//!   bit-stable, so from admit #2 every admission is the O(1) delta
//!   update `cached_sum + new_term`. p99 latency must stay flat — the
//!   sub-linear headline. The measured **growth exponent**
//!   `log(p99_ratio) / log(size_ratio)` is asserted `< 0.5`.
//! * **modified (Theorem 4.1):** streams arrive in deadline order, so the
//!   DM-rank index pins the re-test set to a single priority level, which
//!   the O(1) level certificate decides without iterating (`evaluations`
//!   = 1). Building the analyzer's task view is still one pass over the
//!   ring, so latency grows linearly; `modified_p99_growth_exponent`
//!   reports it (informational, not gated).
//!
//! Quantiles are exact nearest-rank values over every timed admission.
//!
//! Writes `BENCH_admit.json` for CI artifact upload. `--smoke` switches
//! to a release-mode end-to-end check instead: a real TCP server, one
//! 10k-stream ADMIT batch, REMOVE round-trips, and paged `SHOW` walks,
//! exiting non-zero on any wrong answer.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

use ringrt_breakdown::table::{cell, Table};
use ringrt_registry::{ProtocolKind, RingRegistry, RingSpec};
use ringrt_service::{spawn, ServiceConfig};
use ringrt_units::{Bits, Seconds};

const OUT_PATH: &str = "BENCH_admit.json";

/// Growth exponents at or above this are not sub-linear enough to claim
/// the headline (0.5 = square-root growth).
const SUBLINEAR_EXPONENT: f64 = 0.5;

struct Options {
    quick: bool,
    smoke: bool,
}

fn parse_args() -> Options {
    let mut opts = Options {
        quick: false,
        smoke: false,
    };
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--smoke" => opts.smoke = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: exp_admit_scale [--quick] [--smoke]\n\
                     \x20 --quick  down-scaled sizes for CI\n\
                     \x20 --smoke  TCP round-trip smoke test (10k streams) instead of the sweep"
                );
                std::process::exit(2);
            }
            other => {
                eprintln!("unknown flag `{other}` (try --help)");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// The candidate stream for admission `i` under `protocol`.
///
/// fddi: identical 10 s periods / 100-bit messages, so `P_min` — and with
/// it the √(Θ'·P_min) TTRT — is bit-identical on every admission and the
/// O(1) cached-sum path engages. modified (PDP): strictly increasing
/// implicit deadlines, so each newcomer lands at the bottom DM rank and
/// only its own level is re-tested. PDP periods are long (1000 s):
/// the modified protocol charges every message the full token walk,
/// which at 10⁴ pinned stations is milliseconds per higher-priority
/// stream, and the sweep wants the ring admissible all the way up.
fn candidate(protocol: ProtocolKind, i: usize) -> ringrt_model::SyncStream {
    let period = match protocol {
        ProtocolKind::Fddi => Seconds::new(10.0),
        _ => Seconds::new(1000.0 + i as f64 * 1e-3),
    };
    ringrt_model::SyncStream::new(period, Bits::new(100))
}

struct Row {
    protocol: ProtocolKind,
    streams: usize,
    p50_us: f64,
    p99_us: f64,
    mean_evaluations: f64,
    incremental_share: f64,
    build_s: f64,
}

/// Nearest-rank `q`-quantile of ascending nanosecond samples, in µs.
fn quantile_us(sorted_ns: &[u64], q: f64) -> f64 {
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e3
}

/// Admits `n` streams into one fresh pinned ring, timing every admission.
fn run_ring(protocol: ProtocolKind, n: usize) -> Row {
    let reg = RingRegistry::in_memory();
    reg.register(
        "scale",
        RingSpec {
            protocol,
            mbps: 10_000.0,
            stations: Some(n),
        },
    )
    .expect("register");

    let mut samples_ns = Vec::with_capacity(n);
    let mut evaluations = 0u64;
    let mut incremental = 0u64;
    let started = Instant::now();
    for i in 0..n {
        let stream = candidate(protocol, i);
        let t = Instant::now();
        let out = reg.admit("scale", &format!("s{i}"), stream).expect("admit");
        let ns = t.elapsed().as_nanos() as u64;
        samples_ns.push(ns);
        assert!(out.applied, "{protocol:?} admission {i}/{n} rejected");
        evaluations += out.check.evaluations;
        incremental += u64::from(out.check.incremental);
    }
    let build_s = started.elapsed().as_secs_f64();
    samples_ns.sort_unstable();
    Row {
        protocol,
        streams: n,
        p50_us: quantile_us(&samples_ns, 0.50),
        p99_us: quantile_us(&samples_ns, 0.99),
        mean_evaluations: evaluations as f64 / n as f64,
        incremental_share: incremental as f64 / n as f64,
        build_s,
    }
}

fn protocol_token(p: ProtocolKind) -> &'static str {
    match p {
        ProtocolKind::Fddi => "fddi",
        ProtocolKind::Modified => "modified",
        ProtocolKind::Ieee8025 => "ieee802.5",
    }
}

/// `log(p99_ratio) / log(size_ratio)` between the smallest and largest
/// ring: 1.0 = linear growth, 0.0 = flat.
fn growth_exponent(rows: &[Row]) -> f64 {
    let (first, last) = (&rows[0], &rows[rows.len() - 1]);
    let p99_ratio = (last.p99_us / first.p99_us).max(f64::MIN_POSITIVE);
    p99_ratio.ln() / ((last.streams as f64 / first.streams as f64).ln())
}

fn write_json(fddi: &[Row], pdp: &[Row], exponent: f64, pdp_exponent: f64, sublinear: bool) {
    let mut json = String::from("{\n");
    json.push_str("  \"experiment\": \"ADMIT-SCALE\",\n");
    json.push_str("  \"rows\": [\n");
    let all: Vec<&Row> = fddi.iter().chain(pdp.iter()).collect();
    for (i, r) in all.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"protocol\": \"{}\", \"streams\": {}, \"p50_us\": {:.3}, \
             \"p99_us\": {:.3}, \"mean_evaluations\": {:.3}, \
             \"incremental_share\": {:.4}, \"build_s\": {:.3}}}{}\n",
            protocol_token(r.protocol),
            r.streams,
            r.p50_us,
            r.p99_us,
            r.mean_evaluations,
            r.incremental_share,
            r.build_s,
            if i + 1 < all.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"fddi_p99_growth_exponent\": {exponent:.4},\n"));
    json.push_str(&format!(
        "  \"modified_p99_growth_exponent\": {pdp_exponent:.4},\n"
    ));
    json.push_str(&format!(
        "  \"sublinear_threshold\": {SUBLINEAR_EXPONENT},\n"
    ));
    json.push_str(&format!("  \"sublinear\": {sublinear}\n"));
    json.push_str("}\n");
    std::fs::write(OUT_PATH, json).expect("write BENCH_admit.json");
}

fn run_sweep(quick: bool) {
    println!("# ADMIT-SCALE: per-admission latency vs ring size (columnar store)");
    println!(
        "# mode = {}, protocols = fddi (O(1) path) + modified (rank-pinned PDP)",
        if quick { "quick" } else { "full" }
    );
    println!();

    let fddi_sizes: &[usize] = if quick {
        &[200, 1_000, 5_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    // PDP admissions cost O(n) each even on the incremental path (the
    // analyzer's task view is built from every stream), so the sweep caps
    // the contrast ring well below the fddi headline sizes.
    let pdp_sizes: &[usize] = if quick {
        &[200, 1_000, 2_000]
    } else {
        &[1_000, 5_000, 10_000]
    };

    let fddi: Vec<Row> = fddi_sizes
        .iter()
        .map(|&n| run_ring(ProtocolKind::Fddi, n))
        .collect();
    let pdp: Vec<Row> = pdp_sizes
        .iter()
        .map(|&n| run_ring(ProtocolKind::Modified, n))
        .collect();

    let mut table = Table::new(&[
        "protocol",
        "streams",
        "p50_us",
        "p99_us",
        "mean_evals",
        "incremental",
        "build_s",
    ]);
    for r in fddi.iter().chain(pdp.iter()) {
        table.push_row(&[
            protocol_token(r.protocol).into(),
            r.streams.to_string(),
            cell(r.p50_us, 3),
            cell(r.p99_us, 3),
            cell(r.mean_evaluations, 3),
            cell(r.incremental_share, 4),
            cell(r.build_s, 3),
        ]);
    }
    print!("{}", table.to_csv());
    println!();

    let exponent = growth_exponent(&fddi);
    let pdp_exponent = growth_exponent(&pdp);
    let sublinear = exponent < SUBLINEAR_EXPONENT;
    write_json(&fddi, &pdp, exponent, pdp_exponent, sublinear);

    println!(
        "# fddi p99 growth exponent {:.4} over {}x size growth (threshold {}): {}",
        exponent,
        fddi_sizes[fddi_sizes.len() - 1] / fddi_sizes[0],
        SUBLINEAR_EXPONENT,
        if sublinear { "PASS" } else { "FAIL" },
    );
    println!(
        "# modified p99 growth exponent {:.4} over {}x size growth (informational)",
        pdp_exponent,
        pdp_sizes[pdp_sizes.len() - 1] / pdp_sizes[0],
    );
    println!(
        "# mean re-test set size (evaluations/admit): fddi {:.2}, modified {:.2}",
        fddi[fddi.len() - 1].mean_evaluations,
        pdp[pdp.len() - 1].mean_evaluations,
    );
    println!("# wrote {OUT_PATH}");
    if !sublinear {
        eprintln!("FAIL: fddi p99 admission latency is not sub-linear in ring size");
        std::process::exit(1);
    }
}

// --- smoke mode -----------------------------------------------------------

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().expect("clone");
        Client {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn roundtrip(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut resp = String::new();
        self.reader.read_line(&mut resp).expect("recv");
        resp.trim_end().to_owned()
    }
}

/// End-to-end smoke: a live server holding a 10k-stream ring must answer
/// ADMIT / REMOVE / paged SHOW round-trips correctly.
fn run_smoke(quick: bool) {
    let streams = if quick { 2_000 } else { 10_000 };
    println!("# ADMIT-SCALE --smoke: TCP round-trips against a {streams}-stream ring");
    let server = spawn(ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        queue_depth: 256,
        ..ServiceConfig::default()
    })
    .expect("spawn server");
    let mut c = Client::connect(server.addr());

    let resp = c.roundtrip(&format!(
        "REGISTER ring=smoke protocol=fddi mbps=10000 stations={streams}"
    ));
    assert!(resp.starts_with("OK"), "{resp}");

    // Pipelined admissions in protocol-max batches of 1024.
    let started = Instant::now();
    let mut incremental = 0usize;
    let mut sent = 0usize;
    while sent < streams {
        let batch = (streams - sent).min(1024);
        let mut frame = format!("BATCH {batch}\n");
        for i in sent..sent + batch {
            frame.push_str(&format!(
                "ADMIT ring=smoke stream=s{i} period_ms=10000 bits=100\n"
            ));
        }
        c.writer.write_all(frame.as_bytes()).expect("send batch");
        for i in sent..sent + batch {
            let mut resp = String::new();
            c.reader.read_line(&mut resp).expect("batch recv");
            assert!(resp.contains("admitted=true"), "admit {i}: {resp}");
            incremental += usize::from(resp.contains("incremental=true"));
        }
        sent += batch;
    }
    let admit_s = started.elapsed().as_secs_f64();
    assert!(
        incremental >= streams - 1,
        "only {incremental}/{streams} admissions took the incremental path"
    );

    // Paged SHOW walks the whole ring in admission order without ever
    // producing a full dump; the unpaged header still reports the total.
    let page_size = 1_000;
    let mut walked = 0usize;
    let mut offset = 0usize;
    loop {
        let resp = c.roundtrip(&format!(
            "SHOW ring=smoke limit={page_size} offset={offset}"
        ));
        assert!(
            resp.contains(&format!("streams={streams} ")),
            "paged SHOW lost the ring-wide count: {resp}"
        );
        let set = resp.rsplit(" set=").next().expect("set field");
        if set == "-" {
            break;
        }
        let entries: Vec<&str> = set.split(';').collect();
        // Admission order: the page starting at `offset` begins with s{offset}.
        assert!(
            entries[0].starts_with(&format!("s{offset}:")),
            "page at offset {offset} starts with {}",
            entries[0]
        );
        walked += entries.len();
        offset += entries.len();
        if entries.len() < page_size {
            break;
        }
    }
    assert_eq!(walked, streams, "paged SHOW walked the wrong stream count");

    // Remove a slice and re-check the paging window shifts accordingly.
    for i in 0..page_size {
        let resp = c.roundtrip(&format!("REMOVE ring=smoke stream=s{i}"));
        assert!(resp.starts_with("OK"), "remove {i}: {resp}");
    }
    let resp = c.roundtrip("SHOW ring=smoke limit=1 offset=0");
    assert!(
        resp.contains(&format!("streams={} ", streams - page_size)),
        "stream count after removals: {resp}"
    );
    assert!(
        resp.contains(&format!("set=s{page_size}:")),
        "first live stream after removals: {resp}"
    );

    // Store gauges surface through STATS.
    let stats = c.roundtrip("STATS");
    assert!(
        stats.contains(&format!("streams_total={}", streams - page_size)),
        "{stats}"
    );
    assert!(stats.contains("store_bytes="), "{stats}");

    server.shutdown();
    println!(
        "# PASS: {streams} admissions ({incremental} incremental) in {admit_s:.2}s, \
         paged SHOW walk + {page_size} removals verified"
    );
}

fn main() {
    let opts = parse_args();
    if opts.smoke {
        run_smoke(opts.quick);
    } else {
        run_sweep(opts.quick);
    }
}
