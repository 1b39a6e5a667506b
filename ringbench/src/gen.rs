//! Deterministic request generators.
//!
//! Every line the server sees is a pure function of the `--seed`
//! argument: the set-up lines, and per connection an endless stream that
//! never looks at the server's replies. Replaying a stream from the same
//! seed therefore reproduces exactly the requests a run sent, which is how
//! the reply checks and the traced run get their inputs without storing
//! them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ringrt_exec::{derive_seed, splitmix64};
use ringrt_model::MessageSet;
use ringrt_workload::MessageSetGenerator;

/// Client connections (and load-generator threads) per run.
pub const CONNECTIONS: usize = 2;

/// The three benchmark workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Stateless `CHECK`/`SATURATION` over a Zipf hot pool plus one-shot sets.
    VerdictMix,
    /// `ADMIT`/`REMOVE` churn plus paged `SHOW` and full `CHECK ring=`.
    RingChurn,
    /// Uncached `ABU` requests at the paper's Figure 1 points.
    AbuSweep,
}

impl Workload {
    /// Parses a workload name as given to `--workload`.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "verdict-mix" => Some(Workload::VerdictMix),
            "ring-churn" => Some(Workload::RingChurn),
            "abu-sweep" => Some(Workload::AbuSweep),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VerdictMix => "verdict-mix",
            Workload::RingChurn => "ring-churn",
            Workload::AbuSweep => "abu-sweep",
        }
    }
}

/// What a generated request is, for reply checking and classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A verdict request from the hot pool, by pool index.
    Hot(usize),
    /// A verdict request on a fresh set, seen once.
    OneShot,
    /// `ADMIT` of a connection-owned stream; `pdp` on the priority-driven
    /// ring.
    Admit {
        /// On the modified-802.5 ring (Theorem 4.1 re-test).
        pdp: bool,
    },
    /// `REMOVE` of a connection-owned stream.
    Remove,
    /// Paged `SHOW ring=`.
    Show,
    /// Full `CHECK ring=`.
    CheckRing {
        /// On the modified-802.5 ring (Theorem 4.1 re-analysis).
        pdp: bool,
    },
    /// `ABU` on the timed-token protocol (FDDI).
    AbuTtp,
    /// `ABU` on a priority-driven protocol (802.5 or modified 802.5).
    AbuPdp,
}

/// One generated request line.
#[derive(Debug, Clone)]
pub struct Op {
    /// The request line, without the newline.
    pub line: String,
    /// What it is.
    pub kind: OpKind,
}

/// Salts separating the independent random streams drawn from one seed.
const SALT_HOT: u64 = 0x686f74;
const SALT_RING: u64 = 0x72696e67;
const SALT_CONN: u64 = 0x636f6e6e;

fn conn_rng(seed: u64, workload: Workload, conn: usize) -> StdRng {
    let stream = SALT_CONN + (workload as u64) * 16 + conn as u64;
    StdRng::seed_from_u64(derive_seed(seed, stream))
}

/// `period_ms,bits` entries joined with `;`, the inline `set=` grammar.
fn inline_set(set: &MessageSet, scale: f64) -> String {
    let mut out = String::new();
    for (i, s) in set.as_slice().iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        let bits = ((s.length_bits().as_u64() as f64) * scale).round().max(1.0) as u64;
        out.push_str(&format!("{:.3},{bits}", s.period().as_millis()));
    }
    out
}

// ---------------------------------------------------------------- verdict-mix

/// Verdict sets in the hot pool: about half the server's default
/// 4 096-entry cache.
pub const HOT_POOL: usize = 2000;
/// Share of requests drawn from the hot pool; the rest are one-shot sets.
pub const HOT_SHARE: f64 = 0.8;

/// One `CHECK` (75%) or `SATURATION` (25%) line on a 3–8 stream set from
/// the paper population, on one of the three protocols, at 16 or 100 Mbps,
/// scaled to a utilization in [0.2, 1.2) so both verdicts occur.
fn verdict_line(rng: &mut StdRng) -> String {
    let protocol = ["fddi", "modified", "802.5"][rng.gen_range(0..3usize)];
    let command = if rng.gen_bool(0.75) {
        "CHECK"
    } else {
        "SATURATION"
    };
    let n = rng.gen_range(3..=8usize);
    let mbps = [16.0, 100.0][rng.gen_range(0..2usize)];
    let set = MessageSetGenerator::paper_population(n).generate(rng);
    // The population is normalized to utilization 1 at 100 Mbps.
    let load = rng.gen_range(0.2..1.2);
    let scale = load * mbps / 100.0;
    format!(
        "{command} mbps={mbps} set={} protocol={protocol}",
        inline_set(&set, scale)
    )
}

/// The verdict-mix inputs shared by both connections: the hot pool and
/// its Zipf(1) popularity distribution.
#[derive(Debug, Clone)]
pub struct VerdictMix {
    /// Hot-pool request lines.
    pub hot: Vec<String>,
    cdf: Vec<f64>,
}

impl VerdictMix {
    /// Builds the hot pool for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, SALT_HOT));
        let hot: Vec<String> = (0..HOT_POOL).map(|_| verdict_line(&mut rng)).collect();
        let weights: Vec<f64> = (1..=HOT_POOL).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        VerdictMix { hot, cdf }
    }

    fn zipf(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.hot.len() - 1)
    }

    /// Connection `conn`'s request stream.
    pub fn stream(&self, seed: u64, conn: usize) -> impl Iterator<Item = Op> + '_ {
        let mut rng = conn_rng(seed, Workload::VerdictMix, conn);
        std::iter::repeat_with(move || {
            if rng.gen_bool(HOT_SHARE) {
                let idx = self.zipf(rng.gen::<f64>());
                Op {
                    line: self.hot[idx].clone(),
                    kind: OpKind::Hot(idx),
                }
            } else {
                Op {
                    line: verdict_line(&mut rng),
                    kind: OpKind::OneShot,
                }
            }
        })
    }
}

// ----------------------------------------------------------------- ring-churn

/// One kind of ring in the ring-churn workload. Every connection owns one
/// ring of each kind: it is the only writer and reader of its rings, so
/// every reply is predictable by a shadow registry that applies the same
/// operations, and both connections send the same mix.
#[derive(Debug, Clone, Copy)]
pub struct RingPlan {
    /// Ring name prefix (also its protocol token); the owning connection's
    /// index is appended.
    pub kind: &'static str,
    /// `REGISTER` arguments after the ring name.
    pub spec: &'static str,
    /// Streams admitted during set-up.
    pub preload: usize,
    /// Period range of generated streams, milliseconds.
    pub period_ms: (f64, f64),
    /// Payload range of generated streams, bits.
    pub bits: (u64, u64),
    /// Priority-driven (Theorem 4.1) rather than timed-token (Theorem 5.1).
    pub pdp: bool,
}

impl RingPlan {
    /// The name of connection `conn`'s ring of this kind.
    pub fn name(&self, conn: usize) -> String {
        format!("{}-{conn}", self.kind)
    }
}

/// The two ring kinds.
pub const RINGS: [RingPlan; 2] = [
    RingPlan {
        kind: "fddi",
        spec: "protocol=fddi mbps=100 stations=2048",
        preload: 1000,
        period_ms: (100.0, 1000.0),
        bits: (200, 2000),
        pdp: false,
    },
    RingPlan {
        kind: "modified",
        spec: "protocol=modified mbps=100 stations=1024",
        preload: 300,
        period_ms: (2000.0, 20000.0),
        bits: (200, 2000),
        pdp: true,
    },
];

/// Every ring-churn ring name, connection-major.
pub fn ring_names() -> Vec<String> {
    (0..CONNECTIONS)
        .flat_map(|conn| RINGS.iter().map(move |r| r.name(conn)))
        .collect()
}

/// Connection-owned streams each connection keeps admitted per ring.
pub const CHURN_LIVE: usize = 16;
/// Streams per paged `SHOW`.
pub const SHOW_PAGE: usize = 50;

fn admit_line(rng: &mut StdRng, ring: &RingPlan, name: &str, stream: &str) -> String {
    let period = rng.gen_range(ring.period_ms.0..ring.period_ms.1);
    let bits = rng.gen_range(ring.bits.0..=ring.bits.1);
    format!("ADMIT ring={name} stream={stream} period_ms={period:.3} bits={bits}")
}

/// Set-up lines of connection `conn`'s rings: a `REGISTER` and the preload
/// `ADMIT`s for each.
pub fn ring_setup(seed: u64, conn: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, SALT_RING + conn as u64));
    let mut lines = Vec::new();
    for ring in &RINGS {
        let name = ring.name(conn);
        lines.push(format!("REGISTER ring={name} {}", ring.spec));
        lines
            .extend((0..ring.preload).map(|i| admit_line(&mut rng, ring, &name, &format!("p{i}"))));
    }
    lines
}

/// Connection `conn`'s churn stream: each request goes to one of its two
/// rings at random and is ~45% `ADMIT`, ~45% `REMOVE` (a random walk
/// around [`CHURN_LIVE`] owned streams per ring, so ring sizes stay flat),
/// ~8% paged `SHOW` or ~2% full `CHECK ring=`.
pub fn churn_stream(seed: u64, conn: usize) -> impl Iterator<Item = Op> {
    let mut rng = conn_rng(seed, Workload::RingChurn, conn);
    let names = RINGS.map(|r| r.name(conn));
    let mut live: [Vec<String>; 2] = Default::default();
    let mut next_stream = 0u64;
    std::iter::repeat_with(move || {
        let k = rng.gen_range(0..RINGS.len());
        let (ring, name, live) = (&RINGS[k], &names[k], &mut live[k]);
        let r: f64 = rng.gen();
        if r < 0.02 {
            return Op {
                line: format!("CHECK ring={name}"),
                kind: OpKind::CheckRing { pdp: ring.pdp },
            };
        }
        if r < 0.10 {
            let streams = ring.preload + live.len();
            let offset = rng.gen_range(0..=streams.saturating_sub(SHOW_PAGE));
            return Op {
                line: format!("SHOW ring={name} limit={SHOW_PAGE} offset={offset}"),
                kind: OpKind::Show,
            };
        }
        let admit = match live.len().cmp(&CHURN_LIVE) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => rng.gen_bool(0.5),
        };
        if admit {
            let stream = format!("c{conn}-{next_stream}");
            next_stream += 1;
            let line = admit_line(&mut rng, ring, name, &stream);
            live.push(stream);
            Op {
                line,
                kind: OpKind::Admit { pdp: ring.pdp },
            }
        } else {
            let victim = live.swap_remove(rng.gen_range(0..live.len()));
            Op {
                line: format!("REMOVE ring={name} stream={victim}"),
                kind: OpKind::Remove,
            }
        }
    })
}

// ------------------------------------------------------------------ abu-sweep

/// Stations per ABU request (the paper's Figure 1 population size).
pub const ABU_STATIONS: usize = 50;
/// Monte-Carlo samples per ABU request.
pub const ABU_SAMPLES: usize = 16;
/// Figure 1 bandwidths, Mbps.
pub const ABU_MBPS: [f64; 4] = [1.0, 10.0, 100.0, 1000.0];
/// Protocol tokens.
pub const ABU_PROTOCOLS: [&str; 3] = ["fddi", "modified", "802.5"];

/// Connection `conn`'s ABU stream: each request at one of the 12 Figure 1
/// points drawn uniformly (so which points overlap between the two
/// connections averages out within a run), each with its own sample seed
/// so nothing is answered from the cache.
pub fn abu_stream(seed: u64, conn: usize) -> impl Iterator<Item = Op> {
    let mut rng = conn_rng(seed, Workload::AbuSweep, conn);
    let base = splitmix64(seed);
    (0u64..).map(move |k| {
        let point = rng.gen_range(0..ABU_PROTOCOLS.len() * ABU_MBPS.len());
        let protocol = ABU_PROTOCOLS[point / ABU_MBPS.len()];
        let mbps = ABU_MBPS[point % ABU_MBPS.len()];
        // Distinct per (k, conn): XOR of one base with distinct words.
        let sample_seed = base ^ ((k << 1) | conn as u64);
        Op {
            line: format!(
                "ABU mbps={mbps} stations={ABU_STATIONS} samples={ABU_SAMPLES} \
                 seed={sample_seed} protocol={protocol}"
            ),
            kind: if protocol == "fddi" {
                OpKind::AbuTtp
            } else {
                OpKind::AbuPdp
            },
        }
    })
}

/// Set-up warm-up for abu-sweep: each Figure 1 point once, on sample seeds
/// the timed streams never use (theirs leave bit 63 clear), so the
/// execution pool and the analysis code are warm but nothing the timed
/// phase asks for is cached.
pub fn abu_warmup(seed: u64) -> Vec<String> {
    let base = splitmix64(seed) ^ (1 << 63);
    (0..ABU_PROTOCOLS.len() * ABU_MBPS.len())
        .map(|point| {
            format!(
                "ABU mbps={} stations={ABU_STATIONS} samples={ABU_SAMPLES} seed={} protocol={}",
                ABU_MBPS[point % ABU_MBPS.len()],
                base ^ point as u64,
                ABU_PROTOCOLS[point / ABU_MBPS.len()]
            )
        })
        .collect()
}

// --------------------------------------------------------------------- digest

/// Lines of each connection stream folded into the input digest.
pub const DIGEST_PREFIX: usize = 4096;

/// 64-bit FNV-1a, folded line by line (newline-terminated).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds in one line plus its terminator.
    pub fn line(&mut self, line: &str) {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash of one reply projection, for comparing replies with expectations
/// without keeping the reply text.
pub fn text_hash(text: &str) -> u64 {
    let mut h = Fnv::default();
    h.line(text);
    h.finish()
}

/// Connection `conn`'s request stream for `workload`.
pub fn stream<'a>(
    workload: Workload,
    seed: u64,
    conn: usize,
    mix: &'a VerdictMix,
) -> Box<dyn Iterator<Item = Op> + Send + 'a> {
    match workload {
        Workload::VerdictMix => Box::new(mix.stream(seed, conn)),
        Workload::RingChurn => Box::new(churn_stream(seed, conn)),
        Workload::AbuSweep => Box::new(abu_stream(seed, conn)),
    }
}

/// Set-up lines per connection: verdict-mix warms the hot pool and
/// abu-sweep runs [`abu_warmup`] (both split across connections),
/// ring-churn registers and preloads each connection's rings.
pub fn setup_lines(workload: Workload, seed: u64, mix: &VerdictMix) -> [Vec<String>; CONNECTIONS] {
    match workload {
        Workload::VerdictMix => split(&mix.hot),
        Workload::RingChurn => std::array::from_fn(|conn| ring_setup(seed, conn)),
        Workload::AbuSweep => split(&abu_warmup(seed)),
    }
}

fn split(lines: &[String]) -> [Vec<String>; CONNECTIONS] {
    let mut out: [Vec<String>; CONNECTIONS] = Default::default();
    for (i, line) in lines.iter().enumerate() {
        out[i % CONNECTIONS].push(line.clone());
    }
    out
}

/// Digest of everything a run of `workload` with `seed` sends: the set-up
/// lines and the first [`DIGEST_PREFIX`] lines of each connection stream.
pub fn input_digest(workload: Workload, seed: u64, mix: &VerdictMix) -> u64 {
    let mut h = Fnv::default();
    for lines in setup_lines(workload, seed, mix) {
        for line in &lines {
            h.line(line);
        }
    }
    for conn in 0..CONNECTIONS {
        for op in stream(workload, seed, conn, mix).take(DIGEST_PREFIX) {
            h.line(&op.line);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(workload: Workload, seed: u64, conn: usize, n: usize) -> Vec<String> {
        let mix = VerdictMix::new(seed);
        stream(workload, seed, conn, &mix)
            .take(n)
            .map(|op| op.line)
            .collect()
    }

    #[test]
    fn streams_are_a_function_of_the_seed() {
        for w in [
            Workload::VerdictMix,
            Workload::RingChurn,
            Workload::AbuSweep,
        ] {
            assert_eq!(lines(w, 7, 0, 300), lines(w, 7, 0, 300), "{}", w.name());
            assert_ne!(lines(w, 7, 0, 300), lines(w, 8, 0, 300), "{}", w.name());
            assert_ne!(lines(w, 7, 0, 300), lines(w, 7, 1, 300), "{}", w.name());
            let mix = VerdictMix::new(7);
            assert_eq!(input_digest(w, 7, &mix), input_digest(w, 7, &mix));
            assert_ne!(
                input_digest(w, 7, &mix),
                input_digest(w, 8, &VerdictMix::new(8))
            );
        }
        assert_eq!(ring_setup(3, 1), ring_setup(3, 1));
    }

    #[test]
    fn generated_lines_parse() {
        use ringrt_service::parse_request;
        for w in [
            Workload::VerdictMix,
            Workload::RingChurn,
            Workload::AbuSweep,
        ] {
            for line in lines(w, 11, 1, 500) {
                parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            }
        }
        for line in ring_setup(11, 0).iter().take(20) {
            parse_request(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn mixes_have_the_intended_shares() {
        let mix = VerdictMix::new(5);
        let ops: Vec<Op> = mix.stream(5, 0).take(20_000).collect();
        let hot = ops
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Hot(_)))
            .count();
        assert!((15_400..16_600).contains(&hot), "hot share {hot}/20000");
        let churn: Vec<Op> = churn_stream(5, 1).take(20_000).collect();
        let writes = churn
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Admit { .. } | OpKind::Remove))
            .count();
        let checks = churn
            .iter()
            .filter(|o| matches!(o.kind, OpKind::CheckRing { .. }))
            .count();
        assert!((17_600..18_400).contains(&writes), "writes {writes}");
        assert!((300..500).contains(&checks), "checks {checks}");
        let abu: Vec<Op> = abu_stream(5, 0).take(1200).collect();
        let ttp = abu.iter().filter(|o| o.kind == OpKind::AbuTtp).count();
        assert!((340..460).contains(&ttp), "fddi share {ttp}/1200");
        let warm: Vec<String> = abu_warmup(5);
        assert_eq!(warm.len(), 12);
        assert!(
            abu.iter().all(|o| !warm.contains(&o.line)),
            "warm-up seeds are never timed"
        );
    }
}
