//! Expected replies, computed in-process from the same request lines.
//!
//! * verdict-mix: `ringrt_service::engine::execute_with` on the parsed
//!   request, with a pool as wide as the server's, so a `SATURATION`
//!   multisection probes the same scales;
//! * ring-churn: a shadow in-memory [`RingRegistry`] per ring that
//!   applies the owning connection's operations in order, rendered the way
//!   the server renders them;
//! * abu-sweep: serial `execute_abu`, which the parallel estimate must
//!   match bit for bit.

use ringrt_exec::Pool;
use ringrt_registry::{AdmissionOutcome, RingPage, RingRegistry, RingSpec, RingState};
use ringrt_service::engine::{execute_abu, execute_with};
use ringrt_service::{parse_request, CommandKind, Request};

use crate::gen::{ring_setup, text_hash, Op, OpKind, VerdictMix};

/// The part of a reply the checks compare: analysis bodies lose their
/// trailing ` cached=` field (whether a reply came from the cache is not
/// part of its correctness); every other reply is compared whole.
pub fn projection(reply: &str) -> &str {
    match reply.rfind(" cached=") {
        Some(i) => &reply[..i],
        None => reply,
    }
}

/// Expected verdict-mix bodies, memoized for hot-pool entries.
pub struct VerdictOracle<'a> {
    mix: &'a VerdictMix,
    pool: Pool,
    hot: Vec<Option<u64>>,
}

impl<'a> VerdictOracle<'a> {
    /// An oracle whose `SATURATION` pool is `exec_threads` wide.
    pub fn new(mix: &'a VerdictMix, exec_threads: usize) -> Self {
        VerdictOracle {
            mix,
            pool: Pool::new(exec_threads.max(1)),
            hot: vec![None; mix.hot.len()],
        }
    }

    /// Hash of the expected body of `op`.
    pub fn expected(&mut self, op: &Op) -> u64 {
        match op.kind {
            OpKind::Hot(i) => {
                if let Some(h) = self.hot[i] {
                    return h;
                }
                let h = text_hash(&verdict_body(&self.mix.hot[i], &self.pool));
                self.hot[i] = Some(h);
                h
            }
            _ => text_hash(&verdict_body(&op.line, &self.pool)),
        }
    }
}

/// The engine's body for one `CHECK`/`SATURATION` line.
pub fn verdict_body(line: &str, pool: &Pool) -> String {
    match parse_request(line) {
        Ok(Request::Analysis(req)) => execute_with(&req, pool),
        other => format!("ERR not an analysis request: {other:?}"),
    }
}

/// The serial estimator's body for one `ABU` line.
pub fn abu_body(line: &str) -> String {
    match parse_request(line) {
        Ok(Request::Abu(req)) => execute_abu(&req, &Pool::serial()),
        other => format!("ERR not an ABU request: {other:?}"),
    }
}

/// A shadow of ring-churn rings: a registry that applies the same lines
/// as the server and renders the replies the server sends.
pub struct RingShadow {
    registry: RingRegistry,
}

impl RingShadow {
    /// Wraps `registry` and applies the set-up lines (`REGISTER` and the
    /// preload `ADMIT`s) of the rings of each connection in `conns`.
    pub fn new(registry: RingRegistry, seed: u64, conns: &[usize]) -> Self {
        let shadow = RingShadow { registry };
        for &conn in conns {
            for line in ring_setup(seed, conn) {
                shadow.apply(&line);
            }
        }
        shadow
    }

    /// The registry the shadow applies to.
    pub fn registry(&self) -> &RingRegistry {
        &self.registry
    }

    /// Applies one request line and returns the reply the server must send.
    pub fn apply(&self, line: &str) -> String {
        self.apply_request(parse_request(line))
    }

    /// Applies one parsed request line.
    pub fn apply_request(&self, request: Result<Request, String>) -> String {
        let reg = &self.registry;
        match request {
            Ok(Request::Register { ring, spec }) => match reg.register(&ring, spec) {
                Ok(()) => format!(
                    "OK cmd=register ring={ring} protocol={} mbps={} stations={}",
                    spec.protocol,
                    spec.mbps,
                    fmt_stations(spec.stations)
                ),
                Err(e) => format!("ERR {e}"),
            },
            Ok(Request::Admit {
                ring,
                stream,
                candidate,
            }) => match reg.admit(&ring, &stream, candidate) {
                Ok(out) => render_admission("admit", &ring, &stream, &out),
                Err(e) => format!("ERR {e}"),
            },
            Ok(Request::Remove { ring, stream }) => match reg.remove(&ring, &stream) {
                Ok(out) => render_admission("remove", &ring, &stream, &out),
                Err(e) => format!("ERR {e}"),
            },
            Ok(Request::Show {
                ring: Some(ring),
                limit,
                offset,
            }) => match reg.ring_page(&ring, offset.unwrap_or(0), limit.unwrap_or(usize::MAX)) {
                Ok(page) => render_show_page(&ring, &page),
                Err(e) => format!("ERR {e}"),
            },
            Ok(Request::RingAnalysis {
                command: CommandKind::Check,
                ring,
                ..
            }) => match reg.check_full(&ring) {
                Ok(check) => format!(
                    "OK cmd=check ring={ring} protocol={} mbps={} stations={} streams={} \
                     utilization={:.6} schedulable={} evaluations={}",
                    check.spec.protocol,
                    check.spec.mbps,
                    check.spec.effective_stations(check.streams),
                    check.streams,
                    check.utilization,
                    check.schedulable,
                    check.evaluations,
                ),
                Err(e) => format!("ERR {e}"),
            },
            other => format!("ERR the shadow does not model {other:?}"),
        }
    }

    /// The full `SHOW ring=` reply for `ring`.
    pub fn show(&self, ring: &str) -> String {
        match self.registry.ring_state(ring) {
            Ok(state) => render_show(ring, &state),
            Err(e) => format!("ERR {e}"),
        }
    }
}

fn fmt_stations(stations: Option<usize>) -> String {
    stations.map_or_else(|| "-".to_owned(), |n| n.to_string())
}

fn render_admission(cmd: &str, ring: &str, stream: &str, out: &AdmissionOutcome) -> String {
    format!(
        "OK cmd={cmd} ring={ring} stream={stream} schedulable={} admitted={} incremental={} \
         evaluations={} streams={}",
        out.check.schedulable,
        out.applied,
        out.check.incremental,
        out.check.evaluations,
        out.streams,
    )
}

fn push_stream(out: &mut String, name: &str, stream: &ringrt_model::SyncStream) {
    out.push_str(&format!(
        "{}:{},{}",
        name,
        stream.period().as_millis(),
        stream.length_bits().as_u64()
    ));
    if !stream.has_implicit_deadline() {
        out.push_str(&format!(",{}", stream.relative_deadline().as_millis()));
    }
}

fn push_set<'a>(
    out: &mut String,
    streams: impl Iterator<Item = (&'a str, ringrt_model::SyncStream)>,
) {
    out.push_str(" set=");
    let mut empty = true;
    for (i, (name, stream)) in streams.enumerate() {
        if i > 0 {
            out.push(';');
        }
        push_stream(out, name, &stream);
        empty = false;
    }
    if empty {
        out.push('-');
    }
}

fn render_show(ring: &str, state: &RingState) -> String {
    let spec: &RingSpec = &state.spec;
    let mut out = format!(
        "OK cmd=show ring={ring} protocol={} mbps={} stations={} streams={}",
        spec.protocol,
        spec.mbps,
        fmt_stations(spec.stations),
        state.len(),
    );
    push_set(&mut out, state.iter());
    out
}

fn render_show_page(ring: &str, page: &RingPage) -> String {
    let spec = &page.spec;
    let mut out = format!(
        "OK cmd=show ring={ring} protocol={} mbps={} stations={} streams={} shown={} offset={}",
        spec.protocol,
        spec.mbps,
        fmt_stations(spec.stations),
        page.streams,
        page.page.len(),
        page.offset,
    );
    push_set(&mut out, page.page.iter().map(|(n, s)| (n.as_str(), *s)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::RINGS;

    #[test]
    fn projection_drops_only_the_cache_flag() {
        assert_eq!(
            projection("OK cmd=check protocol=fddi schedulable=true cached=true"),
            "OK cmd=check protocol=fddi schedulable=true"
        );
        assert_eq!(projection("OK cmd=ping"), "OK cmd=ping");
    }

    #[test]
    fn preloaded_rings_admit_every_stream() {
        for conn in 0..2 {
            let shadow = RingShadow::new(RingRegistry::in_memory(), 9, &[conn]);
            for ring in &RINGS {
                let name = ring.name(conn);
                let state = shadow.registry().ring_state(&name).unwrap();
                assert_eq!(state.len(), ring.preload, "{name}");
                assert!(shadow.show(&name).starts_with("OK cmd=show"));
            }
        }
    }
}
