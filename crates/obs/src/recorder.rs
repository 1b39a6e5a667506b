//! The flight recorder: sharded ring buffers of timestamped span events.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of independent ring-buffer shards. Events are routed by a hash
/// of the recording thread's id, so with the handful of worker and
/// event-loop threads the service runs, pushes are almost always
/// uncontended.
const SHARDS: usize = 16;

/// Default per-shard event capacity (so the default recorder retains up to
/// `16 * 256` recent events).
///
/// Deliberately modest: at 48 bytes per event a shard's ring is ~12 KiB,
/// so the write cursor keeps the ring cache-resident instead of cycling
/// hundreds of kilobytes through L2 and evicting the hot request state —
/// with 1024-entry shards the extra cache misses roughly tripled the
/// recorder's measured per-request cost in `exp_trace_overhead`.
pub const DEFAULT_SHARD_CAPACITY: usize = 256;

/// One completed span: a named, categorised interval on one thread.
///
/// `cat` and `name` are `&'static str` so recording never allocates;
/// instrumentation sites use fixed labels ("service"/"execute",
/// "registry"/"journal_fsync", …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Coarse subsystem label ("service", "registry", "exec").
    pub cat: &'static str,
    /// Stage label within the subsystem ("parse", "queue_wait", …).
    pub name: &'static str,
    /// Hashed id of the recording thread (stable within a process run).
    pub tid: u64,
    /// Span start, microseconds since the recorder's epoch.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

/// Fixed-capacity overwrite-oldest event ring.
///
/// The recorded/dropped tallies live here rather than in process-wide
/// atomics: the push already holds the shard lock, so bumping two plain
/// `u64`s is free, while shared `fetch_add`s would cost two more RMW
/// operations per span on the hot path.
#[derive(Debug)]
struct Ring {
    buf: Vec<SpanEvent>,
    /// Next write position once the buffer has wrapped.
    head: usize,
    /// Events pushed since creation or the last stats reset.
    recorded: u64,
    /// Events overwritten before being drained.
    dropped: u64,
}

impl Ring {
    fn with_capacity(capacity: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(capacity),
            head: 0,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Pushes one event, overwriting the oldest when full.
    fn push(&mut self, ev: SpanEvent, capacity: usize) {
        self.recorded += 1;
        if self.buf.len() < capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % capacity;
            self.dropped += 1;
        }
    }

    /// Takes the buffered events; the recorded/dropped tallies survive.
    fn drain(&mut self) -> Vec<SpanEvent> {
        self.head = 0;
        std::mem::take(&mut self.buf)
    }
}

/// Aggregate recorder health counters, exported over `METRICS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecorderStats {
    /// Whether span recording is currently enabled.
    pub enabled: bool,
    /// Events recorded since creation (or last [`Recorder::reset_stats`]).
    pub recorded: u64,
    /// Events overwritten before being drained.
    pub dropped: u64,
    /// Total event capacity across all shards.
    pub capacity: usize,
}

/// A lock-light flight recorder of span events.
///
/// One instance is shared (behind an `Arc`) by the service, registry, and
/// exec layers. Recording is gated by a single atomic flag; when off, the
/// [`Span`] guard is inert.
///
/// # Examples
///
/// ```
/// use ringrt_obs::Recorder;
///
/// let rec = Recorder::new();
/// {
///     let _span = rec.span("demo", "work");
///     // ... the timed section ...
/// }
/// let events = rec.drain(16);
/// assert_eq!(events.len(), 1);
/// assert_eq!(events[0].name, "work");
/// ```
#[derive(Debug)]
pub struct Recorder {
    enabled: AtomicBool,
    epoch: Instant,
    shard_capacity: usize,
    shards: Vec<Mutex<Ring>>,
}

impl Recorder {
    /// Creates an enabled recorder with the default capacity.
    #[must_use]
    pub fn new() -> Self {
        Recorder::with_shard_capacity(DEFAULT_SHARD_CAPACITY)
    }

    /// Creates an enabled recorder retaining up to `capacity` events per
    /// shard (clamped to at least 1).
    #[must_use]
    pub fn with_shard_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Recorder {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            shard_capacity: capacity,
            shards: (0..SHARDS)
                .map(|_| Mutex::new(Ring::with_capacity(capacity)))
                .collect(),
        }
    }

    /// Creates a disabled recorder: spans are inert until
    /// [`set_enabled`](Self::set_enabled)`(true)`.
    #[must_use]
    pub fn disabled() -> Self {
        let rec = Recorder::new();
        rec.set_enabled(false);
        rec
    }

    /// Turns span recording on or off. Existing buffered events are kept.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are currently being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Opens a span. The returned guard records one [`SpanEvent`] when
    /// dropped — wrap the timed section in a scope, or hold the guard for
    /// the rest of the enclosing block.
    ///
    /// The guard always knows its start time, so
    /// [`Span::elapsed`] works even while the recorder is disabled; only
    /// the ring-buffer write is skipped.
    pub fn span(&self, cat: &'static str, name: &'static str) -> Span<'_> {
        Span {
            recorder: self,
            cat,
            name,
            start: Instant::now(),
            armed: self.is_enabled(),
        }
    }

    /// Records one completed span directly (used by [`Span`]'s drop glue
    /// and by call sites that already measured a duration).
    pub fn record(&self, cat: &'static str, name: &'static str, start: Instant, dur: Duration) {
        self.record_many(&[Measured {
            cat,
            name,
            start,
            dur,
        }]);
    }

    /// Records several pre-measured intervals from the current thread in
    /// one shard-lock round trip. Call sites that complete adjacent
    /// stages together — the service worker finishes `queue_wait` and
    /// `execute` back to back — use this to halve the per-event locking
    /// cost on the hot path.
    pub fn record_many(&self, measured: &[Measured]) {
        if measured.is_empty() || !self.is_enabled() {
            return;
        }
        let tid = current_thread_hash();
        let shard = (tid as usize) % self.shards.len();
        let mut ring = match self.shards[shard].lock() {
            Ok(ring) => ring,
            Err(poisoned) => poisoned.into_inner(),
        };
        for m in measured {
            let ev = SpanEvent {
                cat: m.cat,
                name: m.name,
                tid,
                start_us: as_micros_u64(m.start.saturating_duration_since(self.epoch)),
                dur_us: as_micros_u64(m.dur),
            };
            ring.push(ev, self.shard_capacity);
        }
    }

    /// Drains buffered events, returning at most the `limit` most recent
    /// ones ordered by start time. The buffers are left empty.
    #[must_use]
    pub fn drain(&self, limit: usize) -> Vec<SpanEvent> {
        let mut events: Vec<SpanEvent> = Vec::new();
        for shard in &self.shards {
            let mut ring = match shard.lock() {
                Ok(r) => r,
                Err(poisoned) => poisoned.into_inner(),
            };
            events.extend(ring.drain());
        }
        events.sort_by_key(|e| (e.start_us, e.tid, e.dur_us));
        if events.len() > limit {
            events.drain(..events.len() - limit);
        }
        events
    }

    /// Current recorder health counters (sums the per-shard tallies; this
    /// is the cold export path, recording stays lock-per-shard).
    #[must_use]
    pub fn stats(&self) -> RecorderStats {
        let mut recorded = 0;
        let mut dropped = 0;
        for shard in &self.shards {
            let ring = match shard.lock() {
                Ok(r) => r,
                Err(poisoned) => poisoned.into_inner(),
            };
            recorded += ring.recorded;
            dropped += ring.dropped;
        }
        RecorderStats {
            enabled: self.is_enabled(),
            recorded,
            dropped,
            capacity: self.shard_capacity * self.shards.len(),
        }
    }

    /// Zeroes the recorded/dropped counters (buffered events are kept);
    /// part of the service's `STATS RESET` surface.
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            let mut ring = match shard.lock() {
                Ok(r) => r,
                Err(poisoned) => poisoned.into_inner(),
            };
            ring.recorded = 0;
            ring.dropped = 0;
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// One already-measured interval, for [`Recorder::record_many`].
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    /// Coarse subsystem label ("service", "registry", "exec").
    pub cat: &'static str,
    /// Stage label within the subsystem.
    pub name: &'static str,
    /// When the interval began.
    pub start: Instant,
    /// How long it lasted.
    pub dur: Duration,
}

/// Drop guard for one in-progress span; see [`Recorder::span`].
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to _ ends it immediately"]
pub struct Span<'a> {
    recorder: &'a Recorder,
    cat: &'static str,
    name: &'static str,
    start: Instant,
    armed: bool,
}

impl Span<'_> {
    /// Wall-clock time since the span was opened. Valid whether or not
    /// the recorder is enabled, so callers can reuse the measurement
    /// (e.g. the service worker feeds it into `worker_busy_us`).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Ends the span with a **single** clock read, recording it (when the
    /// recorder is enabled) and returning the measured duration.
    ///
    /// Call sites that need the elapsed time anyway — every service stage
    /// feeds it into a latency histogram — should prefer this over
    /// `elapsed()` + drop, which reads the clock twice.
    pub fn finish(mut self) -> Duration {
        let dur = self.start.elapsed();
        if self.armed {
            self.armed = false;
            self.recorder.record(self.cat, self.name, self.start, dur);
        }
        dur
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.recorder
                .record(self.cat, self.name, self.start, self.start.elapsed());
        }
    }
}

/// Saturating microsecond conversion in pure u64 arithmetic — this sits
/// on the record hot path, where `Duration::as_micros`'s u128 division
/// is measurable (u64 microseconds outlast any realistic process
/// lifetime anyway).
fn as_micros_u64(d: Duration) -> u64 {
    d.as_secs()
        .saturating_mul(1_000_000)
        .saturating_add(u64::from(d.subsec_micros()))
}

thread_local! {
    /// Hash of this thread's id, computed once per thread.
    static TID_HASH: u64 = {
        let mut h = DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        h.finish()
    };
}

/// A stable per-thread identifier for trace output.
fn current_thread_hash() -> u64 {
    TID_HASH.with(|t| *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let rec = Recorder::new();
        {
            let _s = rec.span("t", "a");
            std::thread::sleep(Duration::from_millis(2));
        }
        let events = rec.drain(10);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cat, "t");
        assert_eq!(events[0].name, "a");
        assert!(events[0].dur_us >= 1_000, "{:?}", events[0]);
        assert_eq!(rec.stats().recorded, 1);
    }

    #[test]
    fn finish_records_exactly_once_and_returns_the_duration() {
        let rec = Recorder::new();
        let s = rec.span("t", "f");
        let dur = s.finish();
        assert!(dur < Duration::from_secs(1));
        let events = rec.drain(10);
        assert_eq!(events.len(), 1, "finish + drop must not double-record");
        assert_eq!(events[0].name, "f");
        assert_eq!(rec.stats().recorded, 1);
    }

    #[test]
    fn disabled_recorder_stays_silent_but_spans_still_time() {
        let rec = Recorder::disabled();
        let s = rec.span("t", "a");
        std::thread::sleep(Duration::from_millis(2));
        assert!(s.elapsed() >= Duration::from_millis(1));
        drop(s);
        assert!(rec.drain(10).is_empty());
        assert_eq!(rec.stats().recorded, 0);
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let rec = Recorder::with_shard_capacity(4);
        // All events from this one thread land in the same shard.
        for i in 0..10u64 {
            rec.record("t", "x", Instant::now(), Duration::from_micros(i));
        }
        let events = rec.drain(100);
        assert_eq!(events.len(), 4, "shard capacity bounds retention");
        let stats = rec.stats();
        assert_eq!(stats.recorded, 10);
        assert_eq!(stats.dropped, 6);
    }

    #[test]
    fn drain_keeps_most_recent_and_clears() {
        let rec = Recorder::new();
        for _ in 0..5 {
            let _s = rec.span("t", "e");
        }
        let events = rec.drain(3);
        assert_eq!(events.len(), 3);
        assert!(
            events.windows(2).all(|w| w[0].start_us <= w[1].start_us),
            "events sorted by start"
        );
        assert!(rec.drain(3).is_empty(), "drain clears the buffers");
    }

    #[test]
    fn events_from_many_threads_are_collected() {
        let rec = std::sync::Arc::new(Recorder::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let rec = std::sync::Arc::clone(&rec);
                scope.spawn(move || {
                    let _s = rec.span("t", "worker");
                });
            }
        });
        let events = rec.drain(64);
        assert_eq!(events.len(), 8);
        // Hashed thread ids distinguish at least two of the threads.
        let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert!(tids.len() > 1, "expected distinct tids, got {tids:?}");
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let rec = Recorder::new();
        let _ = rec.span("t", "a");
        rec.reset_stats();
        let stats = rec.stats();
        assert_eq!((stats.recorded, stats.dropped), (0, 0));
        assert!(stats.capacity > 0);
    }
}
