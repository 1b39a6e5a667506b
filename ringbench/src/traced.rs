//! The traced run (`--trace 1`): per-layer numbers and how much of the
//! client-observed latency they account for.
//!
//! 1. The workload runs over TCP for half of `--seconds` (no tracing), to
//!    get the client-observed mean latency and the server's exact `STATS`
//!    counters for the window (`STATS RESET` before, `STATS` after); then
//!    a train of `PING`s measures the front end's round trip.
//! 2. The same requests are replayed in-process, in the order their replies
//!    came back, through the crates' public functions: untraced, and with a
//!    span around every call; the difference is the tracing overhead. The
//!    traced pass's layer self-times plus the `PING` round trip, against
//!    the TCP mean, give `trace.coverage`.
//! 3. Probes time each layer on its own, on inputs generated from the same
//!    seed, so every per-layer metric is defined on every workload.
//!
//! Spans stay in memory and are written out at the end as Chrome
//! trace-event JSON through `ringrt-obs`.

use std::hint::black_box;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringrt_breakdown::SaturationSearch;
use ringrt_core::pdp::{PdpAnalyzer, PdpVariant};
use ringrt_core::ttp::TtpAnalyzer;
use ringrt_core::SchedulabilityTest;
use ringrt_exec::Pool;
use ringrt_model::{FrameFormat, MessageSet, RingConfig};
use ringrt_obs::trace::render_chrome_trace;
use ringrt_obs::SpanEvent;
use ringrt_registry::{RingRegistry, StreamStore};
use ringrt_service::engine::{execute_abu, execute_with};
use ringrt_service::{parse_request, CacheKey, ProtocolKind, Request, ResultCache};
use ringrt_units::Bandwidth;
use ringrt_workload::MessageSetGenerator;

use crate::check::RingShadow;
use crate::gen::{self, Op, OpKind, VerdictMix, Workload, CONNECTIONS, RINGS};
use crate::quantile::{Samples, P50, P99};
use crate::server::{field_f64, field_list, Client};
use crate::workloads::{self, err, Record};
use crate::{Args, Metric, Outcome};

/// One span: a named interval around one call, linked to the span that
/// caused it; the spans of one request share `req`.
#[derive(Debug, Clone, Copy)]
struct Span {
    req: u32,
    cat: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. When off, [`Tracer::span`] only runs the call.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    next_req: u32,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            next_req: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh request id.
    fn request(&mut self) -> u32 {
        self.next_req += 1;
        self.next_req
    }

    fn enter(
        &mut self,
        req: u32,
        parent: Option<u32>,
        cat: &'static str,
        name: &'static str,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            req,
            cat,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        Some(id)
    }

    fn exit(&mut self, id: Option<u32>) {
        if let Some(id) = id {
            let end = self.now();
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Runs `f` inside a span.
    fn span<T>(
        &mut self,
        req: u32,
        parent: Option<u32>,
        cat: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.enter(req, parent, cat, name);
        let out = f();
        self.exit(id);
        out
    }

    /// A root span of its own request around `f`.
    fn probe<T>(&mut self, cat: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        let req = self.request();
        self.span(req, None, cat, name, f)
    }

    /// Durations of every span called `name`, nanoseconds.
    fn durations(&self, name: &str) -> Samples {
        let mut s = Samples::new();
        for sp in self.spans.iter().filter(|sp| sp.name == name) {
            s.push(sp.dur());
        }
        s
    }

    /// Self time of every span: its duration minus its children's.
    fn self_times(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for sp in &self.spans {
            if let Some(p) = sp.parent {
                child[p as usize] += sp.dur();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(sp, c)| sp.dur().saturating_sub(c))
            .collect()
    }

    /// The spans as Chrome trace events, one track per request.
    fn chrome_events(&self) -> Vec<SpanEvent> {
        self.spans
            .iter()
            .map(|sp| SpanEvent {
                cat: sp.cat,
                name: sp.name,
                tid: u64::from(sp.req),
                start_us: sp.start_ns / 1000,
                dur_us: sp.dur() / 1000,
            })
            .collect()
    }
}

/// Per-layer metric names, in the order they are reported.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("net.ping_rtt_us.p50", "us"),
    ("net.ping_rtt_us.p99", "us"),
    ("protocol.parse_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookups", "count"),
    ("cache.evictions", "count"),
    ("cache.get_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("engine.check_us", "us"),
    ("engine.saturation_us", "us"),
    ("engine.abu_ms.fddi", "ms"),
    ("engine.abu_ms.modified", "ms"),
    ("engine.abu_ms.802.5", "ms"),
    ("core.thm41_us", "us"),
    ("core.thm51_ns", "ns"),
    ("core.thm41_full_ms", "ms"),
    ("breakdown.probes_per_saturation", "count"),
    ("breakdown.saturation_us", "us"),
    ("breakdown.sample_us.fddi", "us"),
    ("breakdown.sample_us.modified", "us"),
    ("breakdown.sample_us.802.5", "us"),
    ("workload.generate_us", "us"),
    ("exec.map_roundtrip_us", "us"),
    ("exec.abu_speedup_w2", "ratio"),
    ("exec.abu_serial_ms", "ms"),
    ("exec.steals_ok", "count"),
    ("exec.worker_busy_share", "ratio"),
    ("registry.admit_us.fddi", "us"),
    ("registry.admit_us.modified", "us"),
    ("registry.remove_us.fddi", "us"),
    ("registry.remove_us.modified", "us"),
    ("registry.evaluations_per_admit", "count"),
    ("registry.journal_us", "us"),
    ("registry.fsync_ext4_us", "us"),
    ("store.admit_ns", "ns"),
    ("store.remove_ns", "ns"),
    ("store.dm_rank_ns", "ns"),
    ("store.page_us", "us"),
    ("trace.client_mean_us", "us"),
    ("trace.layers_mean_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.residual", "ratio"),
    ("trace.residual_flagged", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.replayed", "count"),
    ("trace.tcp_requests", "count"),
];

/// Collected per-layer values by name.
#[derive(Default)]
struct Layers {
    values: Vec<(&'static str, f64, usize)>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, count: usize) {
        self.values.push((name, value, count));
    }

    /// p50 of the spans called `span`, scaled from nanoseconds by `div`.
    fn p50(&mut self, tracer: &Tracer, name: &'static str, span: &str, div: f64) {
        let mut s = tracer.durations(span);
        let n = s.len();
        self.set(name, s.quantile(P50) as f64 / div, n);
    }

    fn into_metrics(self) -> Result<Vec<Metric>, String> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                self.values
                    .iter()
                    .find(|v| v.0 == name)
                    .map(|&(_, value, count)| Metric::new(name, value, unit, count))
                    .ok_or_else(|| format!("per-layer metric {name} was not measured"))
            })
            .collect()
    }
}

/// A [`SchedulabilityTest`] that counts the probes a search makes.
struct Counting<'a> {
    inner: &'a (dyn SchedulabilityTest + Sync),
    probes: AtomicU64,
}

impl SchedulabilityTest for Counting<'_> {
    fn is_schedulable(&self, set: &MessageSet) -> bool {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.inner.is_schedulable(set)
    }

    fn protocol_name(&self) -> &'static str {
        self.inner.protocol_name()
    }
}

/// The analyzer the service's engine builds for a request.
fn analyzer(
    protocol: ProtocolKind,
    stations: usize,
    bw: Bandwidth,
) -> Box<dyn SchedulabilityTest + Sync> {
    match protocol {
        ProtocolKind::Ieee8025 | ProtocolKind::Modified => Box::new(PdpAnalyzer::new(
            RingConfig::ieee_802_5(stations, bw),
            FrameFormat::paper_default(),
            if protocol == ProtocolKind::Modified {
                PdpVariant::Modified
            } else {
                PdpVariant::Standard
            },
        )),
        ProtocolKind::Fddi => Box::new(TtpAnalyzer::with_defaults(RingConfig::fddi(stations, bw))),
    }
}

/// The TCP baseline of the traced run.
struct Baseline {
    logs: [Vec<Record>; CONNECTIONS],
    wall: Duration,
    stats: String,
    ping: Samples,
    exec_threads: usize,
    wrong: usize,
}

fn baseline(args: &Args, mix: &VerdictMix) -> Result<Baseline, String> {
    let prepared = workloads::prepare(args, mix, 1)?;
    let addr = prepared.server.addr();
    let mut control = Client::connect(addr).map_err(err("connecting"))?;
    control
        .roundtrip("STATS RESET")
        .map_err(err("STATS RESET"))?;
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let (logs, wall) = workloads::timed(args, addr, mix, half)?;
    let stats = control.roundtrip("STATS").map_err(err("STATS"))?.to_owned();
    let shows = workloads::final_shows(args.workload, &mut control)?;
    let mut ping = Samples::new();
    for _ in 0..2000 {
        let t = Instant::now();
        let reply = control.roundtrip("PING").map_err(err("PING"))?;
        ping.push(t.elapsed().as_nanos() as u64);
        if reply != "OK cmd=ping" {
            return Err(format!("unexpected PING reply: {reply}"));
        }
    }
    drop(control);
    prepared.server.stop().map_err(err("stopping the server"))?;
    let checked = workloads::check(args, mix, &logs, prepared.exec_threads, &shows);
    Ok(Baseline {
        logs,
        wall,
        stats,
        ping,
        exec_threads: prepared.exec_threads,
        wrong: checked.wrong,
    })
}

/// The requests the TCP baseline sent, in the order their replies came
/// back (at most `limit` of them), so the replay sees the same mix.
fn replay_ops(
    args: &Args,
    mix: &VerdictMix,
    logs: &[Vec<Record>; CONNECTIONS],
    limit: usize,
) -> Vec<Op> {
    let mut order: Vec<(u64, usize, usize)> = logs
        .iter()
        .enumerate()
        .flat_map(|(c, log)| log.iter().enumerate().map(move |(i, r)| (r.at_ns, c, i)))
        .collect();
    order.sort_unstable();
    order.truncate(limit);
    let mut streams: Vec<Vec<Option<Op>>> = (0..CONNECTIONS)
        .map(|c| {
            let n = order.iter().filter(|o| o.1 == c).count();
            gen::stream(args.workload, args.seed, c, mix)
                .take(n)
                .map(Some)
                .collect()
        })
        .collect();
    order
        .into_iter()
        .map(|(_, c, i)| streams[c][i].take().expect("each request is replayed once"))
        .collect()
}

/// Replays `ops` in-process through the same calls the server makes, with
/// `tracer` around each, until `budget` runs out. Returns the number
/// replayed, the elapsed time and the replies that came back `ERR`.
fn replay(
    args: &Args,
    mix: &VerdictMix,
    ops: &[Op],
    exec_threads: usize,
    tracer: &mut Tracer,
    budget: Duration,
) -> Result<(usize, Duration, usize), String> {
    let pool = Pool::new(exec_threads);
    let cache = ResultCache::new();
    // Like the server under test, an in-memory registry.
    let registry = (args.workload == Workload::RingChurn)
        .then(|| RingShadow::new(RingRegistry::in_memory(), args.seed, &[0, 1]));
    if args.workload == Workload::VerdictMix {
        // The server's cache was warmed with the hot pool in set-up.
        for line in &mix.hot {
            if let Ok(Request::Analysis(a)) = parse_request(line) {
                let key = CacheKey::for_request(&a).expect("verdicts are cacheable");
                cache.insert(key, execute_with(&a, &pool));
            }
        }
    }
    let mut errors = 0;
    let start = Instant::now();
    let mut done = 0;
    for op in ops {
        if start.elapsed() >= budget {
            break;
        }
        done += 1;
        let req = tracer.request();
        let root = tracer.enter(req, None, "bench", "request");
        let parsed = tracer.span(req, root, "service", "protocol.parse", || {
            parse_request(&op.line)
        });
        let reply = match (parsed, &registry) {
            (Ok(Request::Analysis(a)), _) => {
                let key = CacheKey::for_request(&a).expect("verdicts are cacheable");
                let hit = tracer.span(req, root, "service", "cache.get", || cache.get(&key));
                match hit {
                    Some(body) => body,
                    None => {
                        let body = tracer.span(req, root, "service", "engine.execute", || {
                            execute_with(&a, &pool)
                        });
                        tracer.span(req, root, "service", "cache.insert", || {
                            cache.insert(key, body.clone())
                        });
                        body
                    }
                }
            }
            (Ok(Request::Abu(a)), _) => {
                let key = CacheKey::for_abu(&a);
                let hit = tracer.span(req, root, "service", "cache.get", || cache.get(&key));
                match hit {
                    Some(body) => body,
                    None => {
                        let body = tracer.span(req, root, "service", "engine.execute", || {
                            execute_abu(&a, &pool)
                        });
                        tracer.span(req, root, "service", "cache.insert", || {
                            cache.insert(key, body.clone())
                        });
                        body
                    }
                }
            }
            (parsed, Some(shadow)) => tracer.span(req, root, "registry", "registry.apply", || {
                shadow.apply_request(parsed)
            }),
            (parsed, None) => format!("ERR unexpected request {parsed:?}"),
        };
        tracer.exit(root);
        if !reply.starts_with("OK") {
            errors += 1;
        }
    }
    Ok((done, start.elapsed(), errors))
}

/// Verdict-mix layers: engine, core kernels, saturation search, cache.
fn probe_verdicts(mix: &VerdictMix, exec_threads: usize, tracer: &mut Tracer, layers: &mut Layers) {
    let pool = Pool::new(exec_threads);
    let mut probes = 0u64;
    let mut saturations = 0u64;
    for line in &mix.hot[..600] {
        let Ok(Request::Analysis(a)) = parse_request(line) else {
            continue;
        };
        let bw = Bandwidth::from_mbps(a.mbps);
        let test = analyzer(a.protocol, a.effective_stations(), bw);
        if a.command == ringrt_service::CommandKind::Check {
            tracer.probe("service", "engine.check", || {
                black_box(execute_with(&a, &pool))
            });
            let name = if a.protocol == ProtocolKind::Fddi {
                "core.thm51"
            } else {
                "core.thm41"
            };
            for _ in 0..4 {
                tracer.probe("core", name, || black_box(test.is_schedulable(&a.set)));
            }
        } else {
            tracer.probe("service", "engine.saturation", || {
                black_box(execute_with(&a, &pool))
            });
            let counting = Counting {
                inner: test.as_ref(),
                probes: AtomicU64::new(0),
            };
            tracer.probe("breakdown", "breakdown.saturation", || {
                black_box(SaturationSearch::default().saturate_with(&counting, &a.set, bw, &pool))
            });
            probes += counting.probes.load(Ordering::Relaxed);
            saturations += 1;
        }
    }
    layers.p50(tracer, "engine.check_us", "engine.check", 1e3);
    layers.p50(tracer, "engine.saturation_us", "engine.saturation", 1e3);
    layers.p50(tracer, "core.thm41_us", "core.thm41", 1e3);
    layers.p50(tracer, "core.thm51_ns", "core.thm51", 1.0);
    layers.p50(
        tracer,
        "breakdown.saturation_us",
        "breakdown.saturation",
        1e3,
    );
    layers.set(
        "breakdown.probes_per_saturation",
        probes as f64 / saturations.max(1) as f64,
        saturations as usize,
    );

    // The cache on its own: insert the hot pool, then look every key up.
    let cache = ResultCache::new();
    let body = "OK cmd=check protocol=modified mbps=100 stations=8 streams=8 utilization=0.512345 schedulable=true".to_owned();
    let keys: Vec<CacheKey> = mix
        .hot
        .iter()
        .filter_map(|l| match parse_request(l) {
            Ok(Request::Analysis(a)) => CacheKey::for_request(&a),
            _ => None,
        })
        .collect();
    for key in &keys {
        let (k, b) = (key.clone(), body.clone());
        tracer.probe("service", "cache.insert", || cache.insert(k, b));
    }
    for key in &keys {
        tracer.probe("service", "cache.get", || black_box(cache.get(key)));
    }
    layers.p50(tracer, "cache.get_ns", "cache.get", 1.0);
    layers.p50(tracer, "cache.insert_ns", "cache.insert", 1.0);
}

/// ABU layers: engine, one sample per protocol, set generation, the pool.
fn probe_abu(args: &Args, exec_threads: usize, tracer: &mut Tracer, layers: &mut Layers) {
    const SAMPLE_SPANS: [&str; 3] = [
        "breakdown.sample.fddi",
        "breakdown.sample.modified",
        "breakdown.sample.802.5",
    ];
    const ENGINE_SPANS: [&str; 3] = ["engine.abu.fddi", "engine.abu.modified", "engine.abu.802.5"];
    let mut rng = StdRng::seed_from_u64(args.seed);
    let generator = MessageSetGenerator::paper_population(gen::ABU_STATIONS);
    for (p, protocol) in gen::ABU_PROTOCOLS.iter().enumerate() {
        let kind = ProtocolKind::parse(protocol).expect("known protocol");
        for &mbps in &gen::ABU_MBPS {
            let bw = Bandwidth::from_mbps(mbps);
            let test = analyzer(kind, gen::ABU_STATIONS, bw);
            for _ in 0..6 {
                let req = tracer.request();
                let root = tracer.enter(req, None, "breakdown", SAMPLE_SPANS[p]);
                let set = tracer.span(req, root, "workload", "workload.generate", || {
                    generator.generate(&mut rng)
                });
                black_box(SaturationSearch::default().saturate(test.as_ref(), &set, bw));
                tracer.exit(root);
            }
        }
    }
    let serial = Pool::serial();
    let wide = Pool::new(exec_threads);
    let two = Pool::new(2);
    let mut serial_ns = 0u64;
    let mut two_ns = 0u64;
    let requests =
        gen::abu_stream(args.seed, 0).take(2 * gen::ABU_PROTOCOLS.len() * gen::ABU_MBPS.len());
    for (i, op) in requests.enumerate() {
        let Ok(Request::Abu(a)) = parse_request(&op.line) else {
            continue;
        };
        let p = gen::ABU_PROTOCOLS
            .iter()
            .position(|t| ProtocolKind::parse(t).ok() == Some(a.protocol))
            .expect("known protocol");
        tracer.probe("service", ENGINE_SPANS[p], || {
            black_box(execute_abu(&a, &wide))
        });
        // Width 2 against serial, in alternating order.
        let timed = |pool: &Pool| {
            let t = Instant::now();
            black_box(execute_abu(&a, pool));
            t.elapsed().as_nanos() as u64
        };
        if i % 2 == 0 {
            serial_ns += timed(&serial);
            two_ns += timed(&two);
        } else {
            two_ns += timed(&two);
            serial_ns += timed(&serial);
        }
    }
    for _ in 0..500 {
        tracer.probe("exec", "exec.map", || black_box(two.map(2, black_box)));
    }
    let n = 2 * gen::ABU_MBPS.len();
    for (p, name) in [
        "engine.abu_ms.fddi",
        "engine.abu_ms.modified",
        "engine.abu_ms.802.5",
    ]
    .into_iter()
    .enumerate()
    {
        layers.p50(tracer, name, ENGINE_SPANS[p], 1e6);
    }
    for (p, name) in [
        "breakdown.sample_us.fddi",
        "breakdown.sample_us.modified",
        "breakdown.sample_us.802.5",
    ]
    .into_iter()
    .enumerate()
    {
        layers.p50(tracer, name, SAMPLE_SPANS[p], 1e3);
    }
    layers.p50(tracer, "workload.generate_us", "workload.generate", 1e3);
    layers.p50(tracer, "exec.map_roundtrip_us", "exec.map", 1e3);
    layers.set(
        "exec.abu_speedup_w2",
        serial_ns as f64 / two_ns.max(1) as f64,
        3 * n,
    );
    layers.set(
        "exec.abu_serial_ms",
        serial_ns as f64 / 1e6 / (3 * n) as f64,
        3 * n,
    );
}

/// Ring layers: registry writes in memory and journaled, full re-check,
/// the stream store's indexes, and a raw fsync.
fn probe_rings(args: &Args, tracer: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
    const ADMIT: [&str; 2] = ["registry.admit.fddi", "registry.admit.modified"];
    const REMOVE: [&str; 2] = ["registry.remove.fddi", "registry.remove.modified"];
    let memory = RingShadow::new(RingRegistry::in_memory(), args.seed, &[0, 1]);
    let dir = args.out.join(format!("probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable_reg =
        RingRegistry::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let durable = RingShadow::new(durable_reg, args.seed, &[0, 1]);
    let mut evaluations = 0u64;
    let mut admits = 0u64;
    let mut journal = Samples::new();
    let pdp_ring = RINGS[1].name(0);
    let writes = gen::churn_stream(args.seed, 0)
        .take(1200)
        .filter(|op| matches!(op.kind, OpKind::Admit { .. } | OpKind::Remove));
    for op in writes {
        let admit = matches!(op.kind, OpKind::Admit { .. });
        let k = usize::from(op.line.contains(&format!("ring={pdp_ring} ")));
        let name = if admit { ADMIT[k] } else { REMOVE[k] };
        let t = Instant::now();
        let reply = tracer.probe("registry", name, || memory.apply(&op.line));
        let in_memory = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let durable_reply =
            tracer.probe("registry", "registry.journaled", || durable.apply(&op.line));
        let on_disk = t.elapsed().as_nanos() as u64;
        if reply != durable_reply {
            return Err(format!(
                "in-memory and journaled registries disagree on `{}`",
                op.line
            ));
        }
        if admit {
            admits += 1;
            evaluations += field_f64(&reply, "evaluations").unwrap_or(0.0) as u64;
            journal.push(on_disk.saturating_sub(in_memory));
        }
    }
    for _ in 0..8 {
        tracer
            .probe("core", "core.thm41_full", || {
                black_box(memory.registry().check_full(&pdp_ring))
            })
            .map_err(|e| e.to_string())?;
    }
    layers.p50(tracer, "registry.admit_us.fddi", ADMIT[0], 1e3);
    layers.p50(tracer, "registry.admit_us.modified", ADMIT[1], 1e3);
    layers.p50(tracer, "registry.remove_us.fddi", REMOVE[0], 1e3);
    layers.p50(tracer, "registry.remove_us.modified", REMOVE[1], 1e3);
    layers.p50(tracer, "core.thm41_full_ms", "core.thm41_full", 1e6);
    layers.set(
        "registry.evaluations_per_admit",
        evaluations as f64 / admits.max(1) as f64,
        admits as usize,
    );
    let n = journal.len();
    layers.set("registry.journal_us", journal.quantile(P50) as f64 / 1e3, n);
    drop(durable);

    // A bare append + fdatasync on the checkout's filesystem.
    let path = dir.join("fsync.probe");
    let mut file = std::fs::File::create(&path).map_err(err("creating the fsync probe"))?;
    for _ in 0..50 {
        tracer
            .probe("registry", "registry.fsync", || {
                file.write_all(&[b'x'; 64])?;
                file.sync_data()
            })
            .map_err(err("fsync probe"))?;
    }
    layers.p50(tracer, "registry.fsync_ext4_us", "registry.fsync", 1e3);
    drop(file);
    let _ = std::fs::remove_dir_all(&dir);

    // Connection 0's fddi ring's stream store on its own.
    let on_ring = format!("ring={} ", RINGS[0].name(0));
    let mut store = StreamStore::new();
    let mut rng = StdRng::seed_from_u64(args.seed);
    for line in gen::ring_setup(args.seed, 0)
        .iter()
        .filter(|l| l.contains(&on_ring))
    {
        if let Ok(Request::Admit {
            stream, candidate, ..
        }) = parse_request(line)
        {
            store.admit(&stream, candidate);
        }
    }
    let ops = gen::churn_stream(args.seed, 0)
        .take(4000)
        .filter(|op| op.line.contains(&on_ring));
    for op in ops {
        match parse_request(&op.line) {
            Ok(Request::Admit {
                stream, candidate, ..
            }) => {
                tracer.probe("store", "store.admit", || {
                    black_box(store.admit(&stream, candidate))
                });
            }
            Ok(Request::Remove { stream, .. }) => {
                tracer.probe("store", "store.remove", || black_box(store.remove(&stream)));
            }
            Ok(Request::Show { offset, limit, .. }) => {
                let (offset, limit) = (offset.unwrap_or(0), limit.unwrap_or(gen::SHOW_PAGE));
                tracer.probe("store", "store.page", || {
                    black_box(store.page(offset, limit).count())
                });
            }
            _ => {}
        }
        let seqs: Vec<u64> = store.iter().map(|(seq, _, _)| seq).take(64).collect();
        let seq = seqs[rng.gen_range(0..seqs.len())];
        tracer.probe("store", "store.dm_rank", || {
            black_box(store.dm_rank_of(seq))
        });
    }
    layers.p50(tracer, "store.admit_ns", "store.admit", 1.0);
    layers.p50(tracer, "store.remove_ns", "store.remove", 1.0);
    layers.p50(tracer, "store.dm_rank_ns", "store.dm_rank", 1.0);
    layers.p50(tracer, "store.page_us", "store.page", 1e3);
    Ok(())
}

/// The traced run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mix = VerdictMix::new(args.seed);
    println!(
        "workload={} seed={} input_digest={:016x} (traced run)",
        args.workload.name(),
        args.seed,
        gen::input_digest(args.workload, args.seed, &mix)
    );
    let base = baseline(args, &mix)?;
    let mut layers = Layers::default();

    // Exact counters of the TCP window.
    let stat = |key: &str| field_f64(&base.stats, key).unwrap_or(0.0);
    let lookups = stat("cache_hits") + stat("cache_misses");
    layers.set(
        "cache.hit_ratio",
        if lookups > 0.0 {
            stat("cache_hits") / lookups
        } else {
            0.0
        },
        lookups as usize,
    );
    layers.set("cache.lookups", lookups, 0);
    layers.set("cache.evictions", stat("cache_evictions"), 0);
    layers.set("exec.steals_ok", stat("exec_steals_ok"), 0);
    let busy_us: f64 = field_list(&base.stats, "worker_busy_us")
        .unwrap_or_default()
        .iter()
        .sum();
    let workers = stat("workers").max(1.0);
    layers.set(
        "exec.worker_busy_share",
        busy_us / (workers * base.wall.as_secs_f64() * 1e6),
        workers as usize,
    );
    let mut ping = base.ping.clone();
    layers.set(
        "net.ping_rtt_us.p50",
        ping.quantile(P50) as f64 / 1e3,
        ping.len(),
    );
    layers.set(
        "net.ping_rtt_us.p99",
        ping.quantile(P99) as f64 / 1e3,
        ping.len(),
    );

    // Replay: a warm-up pass sets how many requests fit the budget, then
    // untraced (U) and traced (T) passes over exactly those requests in
    // U T T U order, so a steady drift in machine speed cancels out of the
    // overhead. The spans of the first traced pass are kept.
    let ops = replay_ops(args, &mix, &base.logs, 50_000);
    let budget = Duration::from_secs_f64((args.seconds as f64 / 15.0).max(0.5));
    let threads = base.exec_threads;
    let (replayed, _, _) = replay(args, &mix, &ops, threads, &mut Tracer::new(false), budget)?;
    let ops = &ops[..replayed];
    let mut tracer = Tracer::new(true);
    let (_, u1, _) = replay(
        args,
        &mix,
        ops,
        threads,
        &mut Tracer::new(false),
        Duration::MAX,
    )?;
    let (_, t1, replay_errors) = replay(args, &mix, ops, threads, &mut tracer, Duration::MAX)?;
    let (_, t2, _) = replay(
        args,
        &mix,
        ops,
        threads,
        &mut Tracer::new(true),
        Duration::MAX,
    )?;
    let (_, u2, _) = replay(
        args,
        &mix,
        ops,
        threads,
        &mut Tracer::new(false),
        Duration::MAX,
    )?;
    layers.set(
        "trace.overhead_pct",
        ((t1 + t2).as_secs_f64() / (u1 + u2).as_secs_f64() - 1.0) * 100.0,
        replayed,
    );
    layers.p50(&tracer, "protocol.parse_ns", "protocol.parse", 1.0);

    // Coverage: PING round trip plus the replay's layer self-times per
    // request, against the client-observed mean over TCP.
    let self_times = tracer.self_times();
    let mut per_stage: Vec<(&'static str, u64)> = Vec::new();
    for (sp, &own) in tracer.spans.iter().zip(&self_times) {
        if sp.parent.is_none() {
            continue;
        }
        match per_stage.iter_mut().find(|(n, _)| *n == sp.name) {
            Some(e) => e.1 += own,
            None => per_stage.push((sp.name, own)),
        }
    }
    let per_req = |ns: u64| ns as f64 / replayed.max(1) as f64 / 1e3;
    let layers_us = per_req(per_stage.iter().map(|e| e.1).sum());
    let mut client = Samples::new();
    for r in base.logs.iter().flatten() {
        client.push(r.ns);
    }
    let client_us = client.mean() / 1e3;
    let ping_us = base.ping.mean() / 1e3;
    let coverage = (ping_us + layers_us) / client_us;
    let residual = 1.0 - coverage;
    println!(
        "coverage of the client-observed mean {client_us:.2} us ({} requests):",
        client.len()
    );
    println!(
        "  {:<24} {:>10.2} us/request",
        "net.ping_rtt (mean)", ping_us
    );
    for (name, ns) in &per_stage {
        println!("  {:<24} {:>10.2} us/request", name, per_req(*ns));
    }
    println!("  {:<24} {:>10.4}", "coverage", coverage);
    if residual.abs() > 0.10 {
        println!(
            "FLAG: {:.1}% of the client-observed mean is not accounted for by the traced layers \
             (|residual| above 10%)",
            residual * 100.0
        );
    }
    layers.set("trace.client_mean_us", client_us, client.len());
    layers.set("trace.layers_mean_us", layers_us, replayed);
    layers.set("trace.coverage", coverage, replayed);
    layers.set("trace.residual", residual, replayed);
    layers.set(
        "trace.residual_flagged",
        f64::from(u8::from(residual.abs() > 0.10)),
        0,
    );
    layers.set("trace.replayed", replayed as f64, 0);
    layers.set("trace.tcp_requests", client.len() as f64, 0);

    // Probes of every layer.
    probe_verdicts(&mix, base.exec_threads, &mut tracer, &mut layers);
    probe_abu(args, base.exec_threads, &mut tracer, &mut layers);
    probe_rings(args, &mut tracer, &mut layers)?;
    layers.set("trace.spans", tracer.spans.len() as f64, 0);

    let json = render_chrome_trace(&tracer.chrome_events());
    let path = args.out.join(format!(
        "trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, json).map_err(err("writing the trace"))?;
    println!("spans written to {}", path.display());

    let attempted = client.len() + replayed;
    let failed =
        (base.wrong + base.logs.iter().flatten().filter(|r| !r.ok).count() + replay_errors)
            .min(attempted);
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: layers.into_metrics()?,
        detail: Vec::new(),
    })
}
