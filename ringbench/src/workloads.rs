//! The end-to-end run: set-up, the closed-loop timed phase over TCP, and
//! the reply checks.

use std::time::{Duration, Instant};

use ringrt_registry::RingRegistry;

use crate::check::{abu_body, projection, RingShadow, VerdictOracle};
use crate::gen::{self, text_hash, OpKind, VerdictMix, Workload, CONNECTIONS, RINGS};
use crate::quantile::{median_f64, Quantile, Samples, P50, P99};
use crate::server::{field_f64, Client, Server};
use crate::{Args, Metric, Outcome};

/// Server starts (with their preload) per run; `setup_s` is their median
/// and the last one serves the timed phase.
const SETUPS: usize = 7;

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Client-observed latency: request write to reply read.
    pub ns: u64,
    /// When the reply arrived, nanoseconds into the timed phase.
    pub at_ns: u64,
    /// What was sent.
    pub kind: OpKind,
    /// The reply started with `OK`.
    pub ok: bool,
    /// The reply said `cached=true`.
    pub cached: bool,
    /// Hash of the reply's [`projection`].
    pub hash: u64,
}

impl Record {
    /// Whether the request ran the workload's costly analysis: a verdict
    /// cache miss, a Theorem 4.1 admission re-test or full check on the
    /// priority-driven ring, or an ABU estimate on a priority-driven
    /// protocol (whose samples cost ~20× the timed-token ones).
    pub fn heavy(&self) -> bool {
        match self.kind {
            OpKind::Hot(_) | OpKind::OneShot => !self.cached,
            OpKind::Admit { pdp } | OpKind::CheckRing { pdp } => pdp,
            OpKind::AbuPdp => true,
            OpKind::Remove | OpKind::Show | OpKind::AbuTtp => false,
        }
    }
}

/// A prepared server: running, preloaded, with its set-up time.
pub struct Prepared {
    /// The server process.
    pub server: Server,
    /// Median set-up time over the run's server starts, seconds.
    pub setup_s: f64,
    /// The server's execution-pool width (from `STATS`).
    pub exec_threads: usize,
}

/// Maps an I/O error to a message naming what was being done.
pub fn err(context: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Starts the server `starts` times — spawn, first `PING`, then the
/// workload's preload or cache warm-up — and keeps the last one running.
pub fn prepare(args: &Args, mix: &VerdictMix, starts: usize) -> Result<Prepared, String> {
    let lines = gen::setup_lines(args.workload, args.seed, mix);
    let mut times = Vec::with_capacity(starts);
    let mut last = None;
    for i in 0..starts {
        let t0 = Instant::now();
        let server = Server::spawn(&args.server).map_err(err("starting the server"))?;
        let mut client = Client::connect(server.addr()).map_err(err("connecting"))?;
        let pong = client.roundtrip("PING").map_err(err("PING"))?;
        if pong != "OK cmd=ping" {
            return Err(format!("unexpected PING reply: {pong}"));
        }
        load(server.addr(), &lines)?;
        times.push(t0.elapsed().as_secs_f64());
        if i + 1 < starts {
            server.stop().map_err(err("stopping a set-up server"))?;
        } else {
            last = Some((server, client));
        }
    }
    println!(
        "setup_s each: {}",
        times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let (server, mut client) = last.ok_or("no server started")?;
    let stats = client.roundtrip("STATS").map_err(err("STATS"))?.to_owned();
    let exec_threads =
        field_f64(&stats, "exec_threads").ok_or("STATS has no exec_threads")? as usize;
    Ok(Prepared {
        server,
        setup_s: median_f64(&times),
        exec_threads,
    })
}

/// Sends each connection's set-up lines in `BATCH` frames, concurrently,
/// and requires every reply to be `OK` (and every preload `ADMIT` to be
/// admitted).
fn load(addr: std::net::SocketAddr, lines: &[Vec<String>; CONNECTIONS]) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = lines
            .iter()
            .map(|lines| {
                s.spawn(move || -> Result<(), String> {
                    if lines.is_empty() {
                        return Ok(());
                    }
                    let mut c = Client::connect(addr).map_err(err("connecting"))?;
                    let replies = c.batch(lines).map_err(err("set-up batch"))?;
                    for (line, reply) in lines.iter().zip(&replies) {
                        let admitted =
                            !line.starts_with("ADMIT") || reply.contains("admitted=true");
                        if !reply.starts_with("OK") || !admitted {
                            return Err(format!("set-up `{line}` answered `{reply}`"));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("set-up thread panicked"))
    })
}

/// The closed loop: one thread per connection sends its stream, one
/// request at a time, until `duration` has passed. Returns the per-
/// connection records in send order and the wall time of the phase.
pub fn timed(
    args: &Args,
    addr: std::net::SocketAddr,
    mix: &VerdictMix,
    duration: Duration,
) -> Result<([Vec<Record>; CONNECTIONS], Duration), String> {
    // Connect (and have the server accept) both clients before the clock
    // starts, so the phase measures requests, not the accept loop.
    let mut clients = (0..CONNECTIONS)
        .map(|_| {
            let mut c = Client::connect(addr)?;
            c.roundtrip("PING")?;
            Ok(c)
        })
        .collect::<std::io::Result<Vec<Client>>>()
        .map_err(err("connecting"))?;
    let start = Instant::now();
    let deadline = start + duration;
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                s.spawn(move || -> Result<Vec<Record>, String> {
                    let mut log = Vec::with_capacity(1 << 16);
                    for op in gen::stream(args.workload, args.seed, conn, mix) {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let t = Instant::now();
                        let reply = client.roundtrip(&op.line).map_err(err("request"))?;
                        let ns = t.elapsed().as_nanos() as u64;
                        log.push(Record {
                            ns,
                            at_ns: start.elapsed().as_nanos() as u64,
                            kind: op.kind,
                            ok: reply.starts_with("OK"),
                            cached: reply.ends_with(" cached=true"),
                            hash: text_hash(projection(reply)),
                        });
                    }
                    Ok(log)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall = start.elapsed();
    let logs: [Vec<Record>; CONNECTIONS] = logs.try_into().expect("one log per connection");
    Ok((logs, wall))
}

/// Result of checking a run's replies.
#[derive(Debug, Default)]
pub struct Checked {
    /// Replies that differ from the expected one.
    pub wrong: usize,
    /// The first few wrong requests with their expected replies.
    pub examples: Vec<String>,
}

impl Checked {
    fn note(&mut self, line: &str, expected: &str) {
        self.wrong += 1;
        if self.examples.len() < 3 {
            self.examples
                .push(format!("`{line}` expected `{expected}`"));
        }
    }

    fn merge(&mut self, other: Checked) {
        self.wrong += other.wrong;
        self.examples.extend(other.examples);
        self.examples.truncate(3);
    }
}

/// Checks every record against the reply expected for the request the
/// stream generated at that position. For ring-churn, `final_show` holds
/// the server's full `SHOW` of every ring after the run, in
/// [`gen::ring_names`] order, and each must equal the shadow's byte for
/// byte.
pub fn check(
    args: &Args,
    mix: &VerdictMix,
    logs: &[Vec<Record>; CONNECTIONS],
    exec_threads: usize,
    final_show: &[String],
) -> Checked {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                s.spawn(move || {
                    let log = &logs[conn];
                    let ops = gen::stream(args.workload, args.seed, conn, mix).take(log.len());
                    let mut out = Checked::default();
                    match args.workload {
                        Workload::VerdictMix => {
                            let mut oracle = VerdictOracle::new(mix, exec_threads);
                            for (op, rec) in ops.zip(log) {
                                if oracle.expected(&op) != rec.hash {
                                    out.note(&op.line, "the engine's body");
                                }
                            }
                        }
                        Workload::RingChurn => {
                            let shadow =
                                RingShadow::new(RingRegistry::in_memory(), args.seed, &[conn]);
                            for (op, rec) in ops.zip(log) {
                                let expected = shadow.apply(&op.line);
                                if text_hash(&expected) != rec.hash {
                                    out.note(&op.line, &expected);
                                }
                            }
                            for (k, ring) in RINGS.iter().enumerate() {
                                let name = ring.name(conn);
                                let expected = shadow.show(&name);
                                if final_show.get(conn * RINGS.len() + k) != Some(&expected) {
                                    out.note(&format!("SHOW ring={name}"), "the shadow ring");
                                }
                            }
                        }
                        Workload::AbuSweep => {
                            for (op, rec) in ops.zip(log) {
                                let expected = abu_body(&op.line);
                                if text_hash(&expected) != rec.hash {
                                    out.note(&op.line, &expected);
                                }
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        let mut all = Checked::default();
        for h in handles {
            all.merge(h.join().expect("check thread panicked"));
        }
        all
    })
}

/// Reads the server's full `SHOW` of each ring-churn ring.
pub fn final_shows(workload: Workload, client: &mut Client) -> Result<Vec<String>, String> {
    if workload != Workload::RingChurn {
        return Ok(Vec::new());
    }
    gen::ring_names()
        .iter()
        .map(|name| {
            client
                .roundtrip(&format!("SHOW ring={name}"))
                .map(str::to_owned)
                .map_err(err("final SHOW"))
        })
        .collect()
}

/// The end-to-end run (`--trace 0`).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mix = VerdictMix::new(args.seed);
    println!(
        "workload={} seed={} input_digest={:016x}",
        args.workload.name(),
        args.seed,
        gen::input_digest(args.workload, args.seed, &mix)
    );
    let prepared = prepare(args, &mix, SETUPS)?;
    let addr = prepared.server.addr();
    let mut control = Client::connect(addr).map_err(err("connecting"))?;
    control
        .roundtrip("STATS RESET")
        .map_err(err("STATS RESET"))?;
    let ticks = cpu_ticks();
    let (logs, wall) = timed(args, addr, &mix, Duration::from_secs(args.seconds))?;
    let steal_pct = match (ticks, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => f64::NAN,
    };
    let stats = control.roundtrip("STATS").map_err(err("STATS"))?.to_owned();
    let shows = final_shows(args.workload, &mut control)?;
    let rss_mb = prepared
        .server
        .peak_rss_mb()
        .ok_or("cannot read the server's VmHWM")?;
    drop(control);
    prepared.server.stop().map_err(err("stopping the server"))?;
    let checked = check(args, &mix, &logs, prepared.exec_threads, &shows);
    let mut outcome = summarize(args, &logs, wall, prepared.setup_s, rss_mb, &stats, checked);
    // Host CPU time given to other guests during the timed phase: when it
    // is high, throughput and tails drop for reasons outside the program.
    outcome
        .detail
        .push(Metric::new("host_steal_pct", steal_pct, "%", 0));
    Ok(outcome)
}

/// `(steal, total)` CPU ticks summed over all CPUs, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Windows the timed phase is cut into. Throughput is the median of its
/// per-window values, so a few seconds of interference from outside the
/// benchmark move it less than a change in the program does; latency
/// quantiles are taken over the whole run.
const WINDOWS: usize = 15;

/// Nearest-rank quantile of `records`' latencies in microseconds, or
/// `None` when there are none.
fn quantile_us<'a>(records: impl Iterator<Item = &'a Record>, q: Quantile) -> Option<f64> {
    let mut s = Samples::new();
    for r in records {
        s.push(r.ns);
    }
    (s.len() > 0).then(|| s.quantile(q) as f64 / 1e3)
}

/// Median over windows of a per-window statistic (windows where it is
/// undefined are skipped).
fn windowed(windows: &[Vec<Record>], stat: impl Fn(&[Record]) -> Option<f64>) -> f64 {
    let values: Vec<f64> = windows.iter().filter_map(|w| stat(w)).collect();
    if values.is_empty() {
        f64::NAN
    } else {
        median_f64(&values)
    }
}

fn summarize(
    args: &Args,
    logs: &[Vec<Record>; CONNECTIONS],
    wall: Duration,
    setup_s: f64,
    rss_mb: f64,
    stats: &str,
    checked: Checked,
) -> Outcome {
    let all = || logs.iter().flatten();
    let attempted = all().count();
    let not_ok = all().filter(|r| !r.ok).count();
    let failed = (not_ok + checked.wrong).min(attempted);
    let wall_s = wall.as_secs_f64();
    let window_ns = (wall.as_nanos() as u64 / WINDOWS as u64).max(1);
    let mut windows: Vec<Vec<Record>> = vec![Vec::new(); WINDOWS];
    for r in all() {
        windows[((r.at_ns / window_ns) as usize).min(WINDOWS - 1)].push(*r);
    }
    let window_s = wall_s / WINDOWS as f64;
    let n_light = all().filter(|r| !r.heavy()).count();
    let pooled = |pred: fn(&Record) -> bool, q| {
        quantile_us(all().filter(|r| pred(r)), q).unwrap_or(f64::NAN)
    };
    let e2e = vec![
        Metric::new("setup_s", setup_s, "s", SETUPS),
        Metric::new("p50_us", pooled(|_| true, P50), "us", attempted),
        Metric::new("light_p50_us", pooled(|r| !r.heavy(), P50), "us", n_light),
        Metric::new(
            "heavy_p50_us",
            pooled(Record::heavy, P50),
            "us",
            attempted - n_light,
        ),
        Metric::new("server_rss_mb", rss_mb, "MB", 0),
    ];
    // Printed, not gated: throughput and tails, which moved 2-4x with the
    // host's CPU steal between otherwise identical runs, and the numbers
    // under the workload's own names.
    let mut detail = vec![
        Metric::new(
            "failed_share",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            attempted,
        ),
        Metric::new(
            "ops_per_s",
            windowed(&windows, |w| {
                Some(w.iter().filter(|r| r.ok).count() as f64 / window_s)
            }),
            "req/s",
            attempted,
        ),
        Metric::new(
            "run_p99_us",
            quantile_us(all(), P99).unwrap_or(f64::NAN),
            "us",
            attempted,
        ),
    ];
    let mut split = |name: &str, pred: &dyn Fn(&Record) -> bool| {
        let n = all().filter(|r| pred(r)).count();
        for (q, label) in [(P50, "p50"), (P99, "p99")] {
            let v = quantile_us(all().filter(|r| pred(r)), q).unwrap_or(f64::NAN);
            detail.push(Metric::new(&format!("{name}_{label}_us"), v, "us", n));
        }
    };
    match args.workload {
        Workload::VerdictMix => {
            split("hit", &|r| r.cached);
            split("miss", &|r| !r.cached);
        }
        Workload::RingChurn => {
            split("write", &|r| {
                matches!(r.kind, OpKind::Admit { .. } | OpKind::Remove)
            });
            split("read", &|r| {
                matches!(r.kind, OpKind::Show | OpKind::CheckRing { .. })
            });
        }
        Workload::AbuSweep => {
            let samples = (attempted - failed) * gen::ABU_SAMPLES;
            detail.push(Metric::new(
                "samples_per_s",
                samples as f64 / wall_s,
                "samples/s",
                samples,
            ));
        }
    }
    for key in [
        "cache_hits",
        "cache_misses",
        "cache_evictions",
        "exec_steals_ok",
    ] {
        detail.push(Metric::new(
            key,
            field_f64(stats, key).unwrap_or(f64::NAN),
            "count",
            0,
        ));
    }
    for line in &checked.examples {
        println!("WRONG REPLY {line}");
    }
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: e2e,
        detail,
    }
}
