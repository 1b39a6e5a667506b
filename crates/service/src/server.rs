//! The TCP server: acceptor, epoll connection front end, bounded
//! admission queue, worker pool, and graceful shutdown.
//!
//! # Threading model
//!
//! ```text
//! acceptor ──injects──▶ event loops (epoll) ──jobs──▶ queue ──▶ workers
//!                           │    ▲                               │
//!                           │    └─ completions + waker ◀────────┘
//!                           └─ inline: PING / STATS / registry / cache hits
//! ```
//!
//! * Every connection is served by one of a few epoll readiness loops
//!   (`crate::event`, Linux only; one loop per exec-pool thread, at most
//!   eight). Workers hand finished replies back through a completion queue
//!   and wake the loop via a pipe. This is the shape that holds 10⁴–10⁵
//!   idle clients.
//! * Cheap requests (PING, STATS, SHUTDOWN, malformed lines, registry
//!   commands, cache hits) are answered on the loop without touching the
//!   queue; analysis work goes through the bounded queue, and a full queue
//!   sheds a single request with an immediate `BUSY` line — the client is
//!   never left hanging. A `BATCH` position that finds the queue full is
//!   parked on its connection instead: a batch never sheds, and only the
//!   batching client waits for the room.
//! * The acceptor enforces the `--max-conns` cap: beyond it a connection
//!   gets one `BUSY max_conns=…` line and is closed.
//! * Workers pop jobs; a job that waited past its deadline is answered
//!   `ERR deadline expired` without being executed.
//! * The loops enforce [`MAX_LINE_BYTES`](crate::MAX_LINE_BYTES) while
//!   buffering and a read deadline on partially received lines, so a
//!   slow-loris client cannot grow a buffer without bound or hold a
//!   connection forever.
//! * Shutdown (`SHUTDOWN` request or [`ServerHandle::shutdown`]) stops the
//!   acceptor, lets workers **drain** everything already queued, and has
//!   the loops close each connection once its replies are written —
//!   in-flight requests still get their answers.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ringrt_exec::Pool;
use ringrt_obs::{prom::PromWriter, trace::render_chrome_trace, Measured, Recorder};
use ringrt_registry::{
    AdmissionOutcome, FailpointFs, ReplicatedApply, RingRegistry, RingSpec, RingState,
    ShipSubscription, StoreOptions, DEFAULT_SEGMENT_BYTES,
};

use ringrt_net::{Token, Waker};

use crate::cache::{CacheKey, ResultCache};
use crate::engine;
use crate::event;
use crate::metrics::{Metrics, Stage};
use crate::protocol::{parse_request, AnalysisRequest, CommandKind, Request};
use crate::replication::{self, ReplicationState, ShipFrame};

/// How often the acceptor, the event loops and blocked replication reads
/// wake to check for shutdown.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);
/// How long a shutting-down event loop waits for replies still owed by
/// workers before force-closing their connections.
pub(crate) const EXECUTION_GRACE: Duration = Duration::from_secs(60);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind address, e.g. `127.0.0.1:7400` (port 0 picks an ephemeral one).
    pub addr: String,
    /// Worker threads executing analyses (min 1).
    pub workers: usize,
    /// Bounded queue depth; a full queue answers `BUSY` (min 1).
    pub queue_depth: usize,
    /// Default per-request queue deadline, milliseconds.
    pub default_deadline_ms: u64,
    /// Cap on the diagnostic `SLEEP` command, milliseconds.
    pub max_sleep_ms: u64,
    /// Directory for the persistent ring registry's journal and snapshot;
    /// `None` keeps the registry in memory only.
    pub state_dir: Option<PathBuf>,
    /// Total result-cache entry cap (LRU-evicted beyond it).
    pub cache_entries: usize,
    /// Width of the shared execution pool that `SATURATION` and `ABU`
    /// requests fan their inner work across; `None` reads the
    /// `RINGRT_THREADS` override and falls back to the machine's
    /// parallelism.
    pub exec_threads: Option<usize>,
    /// Whether the flight recorder captures spans (the `TRACE` command
    /// returns nothing when off). Per-span cost when on is two clock reads
    /// and one nearly-uncontended mutex push; `exp_trace_overhead`
    /// measures the end-to-end impact.
    pub trace_enabled: bool,
    /// Span events retained **per recorder shard** (16 shards); older
    /// events are overwritten, never blocked on.
    pub trace_capacity: usize,
    /// Log any single-line request slower than this many milliseconds
    /// (from parse to the flush of its reply) to stderr. `None` disables
    /// the log.
    pub slow_ms: Option<u64>,
    /// Run as a warm standby replicating the primary at this address:
    /// replay its journal continuously, answer reads, redirect mutations
    /// with `READONLY`, and promote on `PROMOTE` (or primary-loss
    /// timeout). Requires `state_dir`.
    pub follow: Option<String>,
    /// Journal segment rotation threshold in bytes; `None` uses
    /// [`DEFAULT_SEGMENT_BYTES`].
    pub segment_bytes: Option<u64>,
    /// A follower that has heard nothing from the primary for this long
    /// promotes itself. `None` (the default) promotes only on an explicit
    /// `PROMOTE`.
    pub promote_timeout_ms: Option<u64>,
    /// Open-connection cap; an accept beyond it is answered
    /// `BUSY max_conns=<n>` and closed. `0` means unlimited.
    pub max_conns: usize,
    /// Close a connection with no complete request for this long. `None`
    /// (the default) keeps idle clients forever — the population the
    /// event loops exist to hold cheaply.
    pub idle_timeout_ms: Option<u64>,
    /// Close a connection holding a *partial* request line (bytes but no
    /// newline) for this long — the slow-loris guard. `0` disables it.
    pub read_deadline_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            default_deadline_ms: 2_000,
            max_sleep_ms: 10_000,
            state_dir: None,
            cache_entries: crate::cache::DEFAULT_CAPACITY,
            exec_threads: None,
            trace_enabled: true,
            trace_capacity: ringrt_obs::DEFAULT_SHARD_CAPACITY,
            slow_ms: None,
            follow: None,
            segment_bytes: None,
            promote_timeout_ms: None,
            max_conns: 0,
            idle_timeout_ms: None,
            read_deadline_ms: 30_000,
        }
    }
}

/// A finished reply on its way back to an event loop: which connection
/// and which reply slot within it the text belongs to.
pub(crate) struct Completion {
    pub(crate) conn: Token,
    pub(crate) slot: u64,
    pub(crate) text: String,
}

/// Where a worker sends its reply: push a [`Completion`] onto the owning
/// event loop's queue and wake it. The loop matches `conn`/`slot` back to
/// the waiting reply position (the token is generation-stamped, so a
/// completion for a connection that closed meanwhile is dropped).
pub(crate) struct ReplyTo {
    pub(crate) tx: mpsc::Sender<Completion>,
    pub(crate) waker: Arc<Waker>,
    pub(crate) conn: Token,
    pub(crate) slot: u64,
}

impl ReplyTo {
    fn send(&self, text: String) {
        let _ = self.tx.send(Completion {
            conn: self.conn,
            slot: self.slot,
            text,
        });
        self.waker.wake();
    }
}

/// One queued unit of work.
struct Job {
    request: Request,
    cache_key: Option<CacheKey>,
    reply: ReplyTo,
    enqueued: Instant,
    deadline: Duration,
}

/// The bounded job queue, plus what the event loops need to wait for room
/// in it.
struct JobQueue {
    jobs: VecDeque<Job>,
    /// Batch positions held back by the loops until the queue has room.
    /// During shutdown workers keep waiting while any remain.
    parked: usize,
    /// Loops to wake once a worker frees a slot.
    room_waiters: Vec<Arc<Waker>>,
}

impl JobQueue {
    fn wait_for_room(&mut self, waker: &Arc<Waker>) {
        if !self.room_waiters.iter().any(|w| Arc::ptr_eq(w, waker)) {
            self.room_waiters.push(Arc::clone(waker));
        }
    }
}

/// A `BATCH` position whose job found the worker queue full. The owning
/// loop stops reading the connection and calls [`Parked::retry`] until the
/// job gets a slot; dropping it (the connection closed) gives the claim up.
pub(crate) struct Parked {
    shared: Arc<Shared>,
    job: Option<Box<Job>>,
}

impl Parked {
    /// Moves the job onto the queue if it has room, restarting its queue
    /// deadline there. On `false` the owning loop's waker is registered,
    /// so a worker freeing a slot wakes it.
    pub(crate) fn retry(&mut self) -> bool {
        let mut q = self.shared.queue.lock().expect("job queue poisoned");
        let Some(mut job) = self.job.take() else {
            return true;
        };
        if q.jobs.len() >= self.shared.config.queue_depth {
            q.wait_for_room(&job.reply.waker);
            self.job = Some(job);
            return false;
        }
        job.enqueued = Instant::now();
        q.parked -= 1;
        self.shared.push(q, *job);
        true
    }
}

impl Drop for Parked {
    fn drop(&mut self) {
        if self.job.is_some() {
            if let Ok(mut q) = self.shared.queue.lock() {
                q.parked -= 1;
            }
            // Workers waiting out a shutdown re-check the parked count.
            self.shared.queue_cv.notify_all();
        }
    }
}

/// State shared by every thread of one server instance.
pub(crate) struct Shared {
    pub(crate) config: ServiceConfig,
    queue: Mutex<JobQueue>,
    queue_cv: Condvar,
    pub(crate) metrics: Metrics,
    cache: ResultCache,
    pub(crate) registry: RingRegistry,
    /// Execution pool for intra-request parallelism (`SATURATION`
    /// multisection probes, `ABU` sample fan-out). Stateless between
    /// calls, so all workers share one.
    exec: Pool,
    /// Flight recorder shared with the exec pool and the registry journal;
    /// drained by the `TRACE` command.
    pub(crate) recorder: Arc<Recorder>,
    /// Replication role, lag, and peer counters (`SYNC`/`PROMOTE`/
    /// `REPLICATION`); the durable epoch itself lives in the registry.
    pub(crate) replication: ReplicationState,
    shutdown: AtomicBool,
    inflight: AtomicU64,
    started: Instant,
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Pushes a job unless the queue is full, handing the job back (boxed,
    /// to keep the `Err` variant pointer-sized) so the caller can shed it.
    /// Jobs are still accepted during shutdown drain so already-connected
    /// clients finish cleanly.
    fn try_enqueue(&self, job: Job) -> Result<(), Box<Job>> {
        let q = self.queue.lock().expect("job queue poisoned");
        if q.jobs.len() >= self.config.queue_depth {
            return Err(Box::new(job));
        }
        self.push(q, job);
        Ok(())
    }

    /// Like [`Shared::try_enqueue`], but a full queue parks the job
    /// instead of handing it back for shedding.
    fn enqueue_or_park(self: &Arc<Self>, job: Job) -> Option<Parked> {
        let mut q = self.queue.lock().expect("job queue poisoned");
        if q.jobs.len() < self.config.queue_depth {
            self.push(q, job);
            return None;
        }
        q.parked += 1;
        q.wait_for_room(&job.reply.waker);
        Some(Parked {
            shared: Arc::clone(self),
            job: Some(Box::new(job)),
        })
    }

    fn push(&self, mut q: std::sync::MutexGuard<'_, JobQueue>, job: Job) {
        q.jobs.push_back(job);
        let depth = q.jobs.len();
        drop(q);
        self.metrics.note_queue_depth(depth);
        self.queue_cv.notify_one();
    }

    fn queue_len(&self) -> usize {
        self.queue.lock().expect("job queue poisoned").jobs.len()
    }

    fn render_stats(&self) -> String {
        use std::fmt::Write as _;
        let m = &self.metrics;
        let mut out = format!(
            "OK cmd=stats uptime_ms={} requests={} ok={} errors={} busy={} readonly={} \
             deadline_expired={}",
            self.started.elapsed().as_millis(),
            m.requests.load(Ordering::Relaxed),
            m.ok.load(Ordering::Relaxed),
            m.errors.load(Ordering::Relaxed),
            m.busy.load(Ordering::Relaxed),
            m.readonly.load(Ordering::Relaxed),
            m.deadline_expired.load(Ordering::Relaxed),
        );
        let _ = write!(
            out,
            " cache_hits={} cache_misses={} cache_entries={} cache_evictions={} cache_capacity={}",
            self.cache.hits(),
            self.cache.misses(),
            self.cache.entries(),
            self.cache.evictions(),
            self.cache.capacity(),
        );
        let (hit_fast, hit_fast_us) = m.hit_fast_totals();
        let _ = write!(out, " hit_fast={hit_fast} hit_fast_us={hit_fast_us}");
        let r = self.registry.metrics();
        let _ = write!(
            out,
            " rings={} registry_streams={} journal_bytes={} snapshot_bytes={} replay_ms={:.3} \
             replayed_streams={} incremental_tests={} full_tests={} incremental_evaluations={} \
             full_evaluations={} streams_total={} index_rebuilds={} store_bytes={}",
            r.rings,
            r.streams,
            r.journal_bytes,
            r.snapshot_bytes,
            r.replay_ms,
            r.replayed_streams,
            r.incremental_tests,
            r.full_tests,
            r.incremental_evaluations,
            r.full_evaluations,
            r.streams,
            r.index_rebuilds,
            r.store_bytes,
        );
        self.replication.render(self.registry.epoch(), &mut out);
        let _ = write!(
            out,
            " workers={} queue_capacity={} queue_len={} inflight={} exec_threads={}",
            self.config.workers,
            self.config.queue_depth,
            self.queue_len(),
            self.inflight.load(Ordering::Relaxed),
            self.exec.threads(),
        );
        let e = self.exec.stats();
        let _ = write!(
            out,
            " exec_parallel_runs={} exec_serial_runs={} exec_items={} exec_chunks={} \
             exec_steal_attempts={} exec_steals_ok={} exec_nested_splits={}",
            e.parallel_runs,
            e.serial_runs,
            e.items,
            e.chunks,
            e.steal_attempts,
            e.steals_ok,
            e.nested_splits,
        );
        let _ = write!(
            out,
            " max_conns={} cluster={}",
            self.config.max_conns,
            self.registry.cluster_id(),
        );
        m.render_conns(&mut out);
        m.render_workers(&mut out);
        m.render_latencies(&mut out);
        out
    }

    /// Renders the complete Prometheus text exposition for the `METRICS`
    /// command: the counters and latency histograms owned by [`Metrics`],
    /// plus the live gauges owned by the server, result cache, ring
    /// registry, and flight recorder.
    fn render_metrics(&self) -> String {
        let mut w = PromWriter::new();
        self.metrics.render_prometheus(&mut w);
        w.gauge(
            "ringrt_uptime_seconds",
            "Time since the server started.",
            &[],
            self.started.elapsed().as_secs_f64(),
        );
        w.gauge(
            "ringrt_workers",
            "Worker threads executing analyses.",
            &[],
            self.config.workers as f64,
        );
        w.gauge(
            "ringrt_queue_capacity",
            "Bounded admission-queue depth; overflow answers BUSY.",
            &[],
            self.config.queue_depth as f64,
        );
        w.gauge(
            "ringrt_queue_len",
            "Jobs currently waiting in the admission queue.",
            &[],
            self.queue_len() as f64,
        );
        w.gauge(
            "ringrt_inflight",
            "Jobs currently executing on workers.",
            &[],
            self.inflight.load(Ordering::Relaxed) as f64,
        );
        w.gauge(
            "ringrt_exec_threads",
            "Width of the shared intra-request execution pool.",
            &[],
            self.exec.threads() as f64,
        );
        let e = self.exec.stats();
        for (name, help, value) in [
            (
                "ringrt_exec_parallel_runs_total",
                "Pool maps that fanned out across workers.",
                e.parallel_runs,
            ),
            (
                "ringrt_exec_serial_runs_total",
                "Pool maps that ran inline on the caller.",
                e.serial_runs,
            ),
            (
                "ringrt_exec_items_total",
                "Items mapped through the pool.",
                e.items,
            ),
            (
                "ringrt_exec_chunks_total",
                "Chunks claimed by pool workers.",
                e.chunks,
            ),
            (
                "ringrt_exec_steal_attempts_total",
                "Victim searches by idle pool workers.",
                e.steal_attempts,
            ),
            (
                "ringrt_exec_steals_ok_total",
                "Victim searches that transferred work.",
                e.steals_ok,
            ),
            (
                "ringrt_exec_nested_splits_total",
                "Nested maps that split across idle workers.",
                e.nested_splits,
            ),
        ] {
            w.counter(name, help, &[], value as f64);
        }
        for (name, help, value) in [
            (
                "ringrt_cache_hits_total",
                "Result-cache hits.",
                self.cache.hits(),
            ),
            (
                "ringrt_cache_misses_total",
                "Result-cache misses.",
                self.cache.misses(),
            ),
            (
                "ringrt_cache_evictions_total",
                "Entries evicted by the LRU policy.",
                self.cache.evictions(),
            ),
        ] {
            w.counter(name, help, &[], value as f64);
        }
        w.gauge(
            "ringrt_cache_entries",
            "Distinct result-cache entries currently stored.",
            &[],
            self.cache.entries() as f64,
        );
        w.gauge(
            "ringrt_cache_capacity",
            "Total result-cache entry capacity.",
            &[],
            self.cache.capacity() as f64,
        );
        let r = self.registry.metrics();
        w.gauge(
            "ringrt_registry_rings",
            "Rings currently registered.",
            &[],
            r.rings as f64,
        );
        w.gauge(
            "ringrt_registry_streams",
            "Streams admitted across all rings.",
            &[],
            r.streams as f64,
        );
        w.gauge(
            "ringrt_registry_journal_bytes",
            "Size of the registry's append-only journal.",
            &[],
            r.journal_bytes as f64,
        );
        w.gauge(
            "ringrt_registry_snapshot_bytes",
            "Size of the registry's last compaction snapshot.",
            &[],
            r.snapshot_bytes as f64,
        );
        w.gauge(
            "ringrt_store_streams_total",
            "Live streams held by the columnar stream stores.",
            &[],
            r.streams as f64,
        );
        w.gauge(
            "ringrt_store_index_rebuilds",
            "Sequence-domain index rebuilds performed by the stream stores.",
            &[],
            r.index_rebuilds as f64,
        );
        w.gauge(
            "ringrt_store_bytes",
            "Approximate resident bytes of the columnar stream stores.",
            &[],
            r.store_bytes as f64,
        );
        for (kind, tests, evals) in [
            (
                "incremental",
                r.incremental_tests,
                r.incremental_evaluations,
            ),
            ("full", r.full_tests, r.full_evaluations),
        ] {
            w.counter(
                "ringrt_registry_tests_total",
                "Admission schedulability tests run, by strategy.",
                &[("kind", kind)],
                tests as f64,
            );
            w.counter(
                "ringrt_registry_evaluations_total",
                "Theorem evaluations performed by admission tests, by strategy.",
                &[("kind", kind)],
                evals as f64,
            );
        }
        self.replication
            .render_prometheus(self.registry.epoch(), &mut w);
        let t = self.recorder.stats();
        w.gauge(
            "ringrt_trace_enabled",
            "Whether the flight recorder is capturing spans.",
            &[],
            if t.enabled { 1.0 } else { 0.0 },
        );
        w.gauge(
            "ringrt_trace_capacity",
            "Span events retained across all recorder shards.",
            &[],
            t.capacity as f64,
        );
        w.counter(
            "ringrt_trace_spans_recorded_total",
            "Span events written to the flight recorder.",
            &[],
            t.recorded as f64,
        );
        w.counter(
            "ringrt_trace_spans_dropped_total",
            "Span events overwritten before being drained.",
            &[],
            t.dropped as f64,
        );
        w.finish()
    }

    /// The `STATS RESET` implementation: zeroes every accumulated counter
    /// and histogram across the metrics, cache, registry, and recorder,
    /// then re-seeds the windowed high-water marks — `queue_peak` with the
    /// live queue depth, the replication-lag peak with the live lag — so a
    /// new window never reads below the level it started at. Gauges
    /// (queue depth, cache occupancy, `exec_threads`, registry sizes) are
    /// untouched.
    fn reset_stats(&self) {
        self.metrics.reset();
        self.metrics.note_queue_depth(self.queue_len());
        self.replication.reset_window();
        self.cache.reset_counters();
        self.registry.reset_counters();
        self.recorder.reset_stats();
    }
}

/// A running server. Dropping the handle signals shutdown but does not
/// block; call [`ServerHandle::join`] to wait for a full drain.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Threads serving `SYNC` ship streams, detached from the loops.
    ship_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    loops: Vec<event::LoopHandle>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals graceful shutdown: stop accepting, drain the queue, answer
    /// everything in flight. Returns immediately.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Signals shutdown and waits for every thread — acceptor, event
    /// loops, ship streams, workers — to finish.
    pub fn join(self) {
        self.shared.begin_shutdown();
        self.wait();
    }

    /// Waits (without signaling) until shutdown is triggered — by a client's
    /// `SHUTDOWN` request or a concurrent [`ServerHandle::shutdown`] — then
    /// drains every thread. This is how `ringrt serve` blocks.
    pub fn wait(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // The acceptor has exited, so no further sockets reach the event
        // loops. Loops drain their connections (waiting for in-flight
        // worker replies) before the workers themselves are joined —
        // workers keep popping the queue until it is empty, so every
        // completion a loop waits on arrives.
        for l in std::mem::take(&mut self.loops) {
            l.join();
        }
        let ships = std::mem::take(&mut *self.ship_threads.lock().expect("ship list poisoned"));
        for t in ships {
            let _ = t.join();
        }
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
    }
}

/// Binds the listener and spawns the acceptor, event-loop and worker
/// threads.
///
/// # Errors
///
/// Propagates the bind failure (address in use, permission, …); off Linux
/// the event loops cannot be created and this fails with
/// [`std::io::ErrorKind::Unsupported`].
pub fn spawn(mut config: ServiceConfig) -> std::io::Result<ServerHandle> {
    config.workers = config.workers.max(1);
    config.queue_depth = config.queue_depth.max(1);
    if config.follow.is_some() && config.state_dir.is_none() {
        return Err(std::io::Error::other(
            "--follow requires a state dir: the standby re-journals every shipped record",
        ));
    }
    let registry = match &config.state_dir {
        Some(dir) => {
            let options = StoreOptions {
                segment_bytes: config.segment_bytes.unwrap_or(DEFAULT_SEGMENT_BYTES).max(1),
                fs: FailpointFs::new(),
            };
            RingRegistry::open_with(dir, options)
                .map_err(|e| std::io::Error::other(e.to_string()))?
        }
        None => RingRegistry::in_memory(),
    };
    // A primary serves under a nonzero epoch from its first boot so that
    // followers always have something to fence against. Followers adopt
    // (and persist) the primary's epoch at SYNC time instead.
    if config.state_dir.is_some() && config.follow.is_none() && registry.epoch() == 0 {
        registry
            .set_epoch(1)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
    }
    // A primary stamps its journal with a cluster identity on first boot;
    // followers adopt the primary's at SYNC time instead. The stamp is
    // what lets the SYNC handshake refuse shipping between unrelated
    // journals (see `handle_sync`).
    if config.state_dir.is_some() && config.follow.is_none() && registry.cluster_id() == 0 {
        registry
            .set_cluster_id(generate_cluster_id())
            .map_err(|e| std::io::Error::other(e.to_string()))?;
    }
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let recorder = Arc::new(if config.trace_enabled {
        Recorder::with_shard_capacity(config.trace_capacity.max(1))
    } else {
        Recorder::disabled()
    });
    registry.attach_recorder(Arc::clone(&recorder));
    let cache_entries = config.cache_entries;
    let shared = Arc::new(Shared {
        config: config.clone(),
        queue: Mutex::new(JobQueue {
            jobs: VecDeque::new(),
            parked: 0,
            room_waiters: Vec::new(),
        }),
        queue_cv: Condvar::new(),
        metrics: Metrics::with_workers(config.workers),
        cache: ResultCache::with_capacity(cache_entries),
        registry,
        exec: config
            .exec_threads
            .map_or_else(Pool::from_env, |n| Pool::new(n.max(1)))
            .with_recorder(Arc::clone(&recorder)),
        recorder,
        replication: ReplicationState::new(config.follow.clone()),
        shutdown: AtomicBool::new(false),
        inflight: AtomicU64::new(0),
        started: Instant::now(),
    });

    let mut workers: Vec<JoinHandle<()>> = (0..config.workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ringrt-worker-{i}"))
                .spawn(move || worker_loop(&shared, i))
                .expect("spawn worker thread")
        })
        .collect();
    if config.follow.is_some() {
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name("ringrt-follower".to_owned())
                .spawn(move || follower_loop(&shared))
                .expect("spawn follower thread"),
        );
    }

    let ship_threads = Arc::new(Mutex::new(Vec::new()));
    // One loop per exec-pool thread: with a single loop, inline ADMIT/
    // REMOVE/SHOW from every connection serialize on it. The loops are
    // created (epoll instance, wakeup pipe) on this thread so an
    // unsupported platform surfaces as a bind-time error instead of a dead
    // acceptor.
    let loop_count = shared.exec.threads().clamp(1, 8);
    let loops = event::spawn_loops(&shared, loop_count, &ship_threads)?;
    let acceptor = {
        let shared = Arc::clone(&shared);
        let injectors = loops.iter().map(event::LoopHandle::injector).collect();
        std::thread::Builder::new()
            .name("ringrt-acceptor".to_owned())
            .spawn(move || accept_loop(&listener, &shared, injectors))
            .expect("spawn acceptor thread")
    };

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers,
        ship_threads,
        loops,
    })
}

/// A 32-bit, nonzero journal identity for a never-stamped primary. Only
/// uniqueness across independently bootstrapped clusters matters, so
/// clock nanoseconds xor'd with the pid are entropy enough — no RNG
/// dependency needed.
fn generate_cluster_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.subsec_nanos() as u64 ^ d.as_secs());
    let mixed = (nanos ^ (u64::from(std::process::id()).rotate_left(17))) & 0xffff_ffff;
    mixed.max(1)
}

/// Accepts connections, sheds those beyond `--max-conns`, and
/// round-robins the rest to the event loops' injection queues.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, injectors: Vec<event::Injector>) {
    let mut next = 0;
    while !shared.shutting_down() {
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                let conns = &shared.metrics.conns;
                conns.accepted.fetch_add(1, Ordering::Relaxed);
                // Beyond the cap the client gets one definite BUSY line
                // instead of a connection that silently degrades everyone
                // else.
                let open = conns.open.load(Ordering::Relaxed);
                if shared.config.max_conns > 0 && open as usize >= shared.config.max_conns {
                    conns.accept_shed.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.write_all(
                        format!("BUSY max_conns={}\n", shared.config.max_conns).as_bytes(),
                    );
                    continue; // drop the stream
                }
                conns.open.fetch_add(1, Ordering::Relaxed);
                next = (next + 1) % injectors.len();
                if !injectors[next].send(stream) {
                    // Loop gone (shutdown race): undo the gauge.
                    conns.open.fetch_sub(1, Ordering::Relaxed);
                }
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// A response line, a connection-closing line, a batch header asking the
/// event loop to collect the next `n` responses into one write, or a
/// journal subscription turning the connection into a ship stream.
pub(crate) enum Response {
    Line(String),
    /// A cache-hit line on the zero-span fast path: same wire format as
    /// [`Response::Line`], but a flush of nothing but hits skips the
    /// `respond` span (the sampled `hit` span in [`run_cached`] already
    /// covers the whole parse→reply interval).
    Hit(String),
    Close,
    Batch(usize),
    Ship(Box<ShipSubscription>),
}

impl Response {
    pub(crate) fn into_text(self) -> String {
        match self {
            Response::Line(s) | Response::Hit(s) => s,
            Response::Close => "OK cmd=shutdown".to_owned(),
            Response::Batch(_) => unreachable!("batch headers are framed, not rendered"),
            Response::Ship(_) => unreachable!("ship streams are served, not rendered"),
        }
    }
}

/// What handling one request line produced: an immediate response, or a
/// job queued with a loop-completion reply.
pub(crate) enum Handled {
    Ready(Response),
    /// The job is on the queue — or, when `parked` is set, waiting for
    /// room in it; its reply will arrive as a [`Completion`] for the
    /// ticket's `conn`/`slot`. Carries what the loop needs to record the
    /// latency when the reply lands.
    Queued {
        command: CommandKind,
        started: Instant,
        parked: Option<Parked>,
    },
}

/// Handles one request line. Everything answerable inline is answered
/// inline; queue-bound requests are queued with `reply` as their
/// completion ticket. `in_batch` marks a `BATCH` position, which is
/// parked rather than shed when the queue is full (see [`submit`]).
pub(crate) fn handle_request(
    line: &str,
    shared: &Arc<Shared>,
    reply: ReplyTo,
    in_batch: bool,
) -> Handled {
    let ready = |response: Response| Handled::Ready(response);
    shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
    // Parse is timed with plain clock reads, not an eager span: the
    // cacheable commands defer parse-stage recording into `run_cached`,
    // which skips it entirely on a cache hit (the zero-span fast path)
    // and records it together with the cache stage on a miss.
    let t0 = Instant::now();
    let parsed = parse_request(line);
    let parse_dur = t0.elapsed();
    let request = match parsed {
        Ok(r) => r,
        Err(msg) => {
            record_parse(shared, t0, parse_dur);
            return ready(Response::Line(format!("ERR {msg}")));
        }
    };
    let defers_parse = matches!(request, Request::Abu(_) | Request::Analysis(_))
        || matches!(
            request,
            Request::RingAnalysis { command, .. } if command != CommandKind::Check
        );
    if !defers_parse {
        record_parse(shared, t0, parse_dur);
    }
    // A warm standby redirects mutations instead of erroring: the client
    // learns where the primary is and under which epoch it serves. Inside
    // a BATCH this runs per frame, so only the mutating positions are
    // redirected.
    if shared.replication.is_follower() {
        if let Some(cmd) = mutation_command(&request) {
            return ready(Response::Line(format!(
                "READONLY cmd={cmd} primary={} epoch={}",
                shared.replication.source().unwrap_or("-"),
                shared.registry.epoch(),
            )));
        }
    }
    match request {
        Request::Ping => ready(Response::Line("OK cmd=ping".to_owned())),
        Request::Stats => ready(Response::Line(shared.render_stats())),
        Request::StatsReset => {
            shared.reset_stats();
            ready(Response::Line("OK cmd=stats_reset".to_owned()))
        }
        Request::Metrics => {
            let body = shared.render_metrics();
            let body = body.trim_end();
            ready(Response::Line(format!(
                "OK cmd=metrics lines={}\n{body}",
                body.lines().count()
            )))
        }
        Request::Trace { count } => {
            let events = shared.recorder.drain(count);
            let json = render_chrome_trace(&events);
            ready(Response::Line(format!(
                "OK cmd=trace events={}\n{json}",
                events.len()
            )))
        }
        Request::Shutdown => {
            shared.begin_shutdown();
            ready(Response::Close)
        }
        Request::Sync {
            epoch,
            seq,
            cluster,
        } => ready(handle_sync(shared, epoch, seq, cluster)),
        Request::Promote => ready(Response::Line(handle_promote(shared))),
        Request::Replication => {
            let mut out = "OK cmd=replication".to_owned();
            shared.replication.render(shared.registry.epoch(), &mut out);
            ready(Response::Line(out))
        }
        Request::Batch { count } => ready(Response::Batch(count)),
        Request::Evict => ready(Response::Line(format!(
            "OK cmd=evict evicted={}",
            shared.cache.clear()
        ))),
        Request::Compact => ready(Response::Line(match shared.registry.compact() {
            Ok(()) => {
                let m = shared.registry.metrics();
                format!(
                    "OK cmd=compact journal_bytes={} snapshot_bytes={}",
                    m.journal_bytes, m.snapshot_bytes
                )
            }
            Err(e) => format!("ERR {e}"),
        })),
        Request::Register { ring, spec } => ready(Response::Line(
            match shared.registry.register(&ring, spec) {
                Ok(()) => format!(
                    "OK cmd=register ring={ring} protocol={} mbps={} stations={}",
                    spec.protocol,
                    spec.mbps,
                    fmt_stations(spec.stations),
                ),
                Err(e) => format!("ERR {e}"),
            },
        )),
        Request::Admit {
            ring,
            stream,
            candidate,
        } => ready(Response::Line(
            match shared.registry.admit(&ring, &stream, candidate) {
                Ok(out) => render_admission("admit", &ring, &stream, &out),
                Err(e) => format!("ERR {e}"),
            },
        )),
        Request::Remove { ring, stream } => ready(Response::Line(
            match shared.registry.remove(&ring, &stream) {
                Ok(out) => render_admission("remove", &ring, &stream, &out),
                Err(e) => format!("ERR {e}"),
            },
        )),
        Request::Unregister { ring } => {
            ready(Response::Line(match shared.registry.unregister(&ring) {
                Ok(()) => format!("OK cmd=unregister ring={ring}"),
                Err(e) => format!("ERR {e}"),
            }))
        }
        Request::Show {
            ring,
            limit,
            offset,
        } => ready(Response::Line(match ring {
            Some(ring) if limit.is_some() || offset.is_some() => {
                let offset = offset.unwrap_or(0);
                let limit = limit.unwrap_or(usize::MAX);
                match shared.registry.ring_page(&ring, offset, limit) {
                    Ok(page) => render_show_page(&ring, &page),
                    Err(e) => format!("ERR {e}"),
                }
            }
            Some(ring) => match shared.registry.ring_state(&ring) {
                Ok(state) => render_show(&ring, &state),
                Err(e) => format!("ERR {e}"),
            },
            None => {
                let names = shared.registry.ring_names();
                format!(
                    "OK cmd=show rings={} names={}",
                    names.len(),
                    if names.is_empty() {
                        "-".to_owned()
                    } else {
                        names.join(",")
                    }
                )
            }
        })),
        Request::RingAnalysis {
            command: CommandKind::Check,
            ring,
            ..
        } => {
            // Answered inline with the counted full test — the baseline the
            // STATS evaluation counters compare ADMIT against.
            let started = Instant::now();
            let text = match shared.registry.check_full(&ring) {
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
            };
            record_completed(shared, CommandKind::Check, started, &text);
            ready(Response::Line(text))
        }
        Request::RingAnalysis {
            command,
            ring,
            seconds,
            async_load,
            seed,
            deadline_ms,
        } => {
            // Resolve the stored ring into a plain analysis request, then
            // run it through the normal queue. Its cache key is scoped to
            // the ring's mutation generation: any later ADMIT/REMOVE (or
            // even an unregister/re-register cycle) bumps the generation
            // and strands the entry, so stored-ring results can be cached
            // without an EVICT protocol.
            let (state, generation) = match shared.registry.ring_snapshot(&ring) {
                Ok(s) => s,
                Err(e) => {
                    record_parse(shared, t0, parse_dur);
                    return ready(Response::Line(format!("ERR {e}")));
                }
            };
            let Some(set) = state.message_set() else {
                record_parse(shared, t0, parse_dur);
                return ready(Response::Line(format!("ERR ring `{ring}` has no streams")));
            };
            let req = AnalysisRequest {
                command,
                protocol: state.spec.protocol,
                mbps: state.spec.mbps,
                stations: Some(state.spec.effective_stations(set.len())),
                set,
                seconds,
                async_load,
                seed,
                deadline_ms,
            };
            let key = CacheKey::for_request(&req).map(|k| k.with_ring_generation(generation));
            let deadline_ms = req.deadline_ms;
            run_cached(
                shared,
                Request::Analysis(req),
                key,
                command,
                deadline_ms,
                (reply, in_batch),
                (t0, parse_dur),
            )
        }
        Request::Sleep { ms, deadline_ms } => submit(
            shared,
            Request::Sleep { ms, deadline_ms },
            None,
            CommandKind::Sleep,
            deadline_ms,
            (reply, in_batch),
        ),
        Request::Abu(req) => {
            let key = Some(CacheKey::for_abu(&req));
            let deadline_ms = req.deadline_ms;
            run_cached(
                shared,
                Request::Abu(req),
                key,
                CommandKind::Abu,
                deadline_ms,
                (reply, in_batch),
                (t0, parse_dur),
            )
        }
        Request::Analysis(req) => {
            let key = CacheKey::for_request(&req);
            let command = req.command;
            let deadline_ms = req.deadline_ms;
            run_cached(
                shared,
                Request::Analysis(req),
                key,
                command,
                deadline_ms,
                (reply, in_batch),
                (t0, parse_dur),
            )
        }
    }
}

/// Records the parse stage from an already-measured interval (span plus
/// stage histogram) — the non-fast-path equivalent of the eager span the
/// parse stage used to open.
fn record_parse(shared: &Shared, t0: Instant, dur: Duration) {
    shared.recorder.record("request", "parse", t0, dur);
    shared.metrics.record_stage(Stage::Parse, dur);
}

/// Cache-checks one queueable request, then submits it.
///
/// `parse` carries the request's arrival instant and measured parse
/// duration. On a cache **hit** this is the zero-span fast path: no
/// per-stage spans, no stage-histogram locks — two sharded-counter adds
/// ([`Metrics::note_hit`]), the per-command latency record, and (one hit
/// in [`crate::metrics::HIT_SPAN_SAMPLE`]) a single sampled
/// `request`/`hit` span covering the whole parse→reply interval. On a
/// **miss** the deferred parse stage and the cache probe are recorded
/// together in one recorder round trip before the job is submitted.
fn run_cached(
    shared: &Arc<Shared>,
    request: Request,
    key: Option<CacheKey>,
    command: CommandKind,
    deadline_ms: Option<u64>,
    ticket: (ReplyTo, bool),
    parse: (Instant, Duration),
) -> Handled {
    let (t0, parse_dur) = parse;
    if let Some(k) = &key {
        let cache_start = Instant::now();
        let found = shared.cache.get(k);
        if let Some(body) = found {
            let elapsed = t0.elapsed();
            shared.metrics.record_latency(command, elapsed);
            if shared.metrics.note_hit(elapsed) {
                shared.recorder.record("request", "hit", t0, elapsed);
            }
            return Handled::Ready(Response::Hit(format!("{body} cached=true")));
        }
        let cache_dur = cache_start.elapsed();
        shared.recorder.record_many(&[
            Measured {
                cat: "request",
                name: "parse",
                start: t0,
                dur: parse_dur,
            },
            Measured {
                cat: "request",
                name: "cache",
                start: cache_start,
                dur: cache_dur,
            },
        ]);
        shared.metrics.record_stage(Stage::Parse, parse_dur);
        shared.metrics.record_stage(Stage::Cache, cache_dur);
    } else {
        // Uncacheable (e.g. explicitly seeded) analyses skip the probe;
        // only the deferred parse stage is owed.
        record_parse(shared, t0, parse_dur);
    }
    submit(shared, request, key, command, deadline_ms, ticket)
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

/// Renders one ring's full state. Deterministic down to the byte: stream
/// order is admission order and every float uses Rust's round-trip `{}`
/// formatting, so the output is identical before and after a server
/// restart — the property the persistence integration test pins down.
fn render_show(ring: &str, state: &RingState) -> String {
    let spec: &RingSpec = &state.spec;
    let mut out = format!(
        "OK cmd=show ring={ring} protocol={} mbps={} stations={} streams={}",
        spec.protocol,
        spec.mbps,
        fmt_stations(spec.stations),
        state.len(),
    );
    out.push_str(" set=");
    if state.is_empty() {
        out.push('-');
        return out;
    }
    for (i, (name, stream)) in state.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        push_stream(&mut out, name, &stream);
    }
    out
}

/// One `name:period_ms,bits[,deadline_ms]` entry — the `set=` grammar
/// shared by the unpaged and paged SHOW renderers.
fn push_stream(out: &mut String, name: &str, stream: &ringrt_model::SyncStream) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{}:{},{}",
        name,
        stream.period().as_millis(),
        stream.length_bits().as_u64(),
    );
    if !stream.has_implicit_deadline() {
        let _ = write!(out, ",{}", stream.relative_deadline().as_millis());
    }
}

/// Renders one page of a ring's admitted set. Same `set=` grammar as
/// [`render_show`], but the header carries the page window (`shown=`,
/// `offset=`) alongside the ring-wide stream count, so clients can walk
/// a 100k-stream ring without ever receiving a 100k-entry line.
fn render_show_page(ring: &str, page: &ringrt_registry::RingPage) -> String {
    let spec: &RingSpec = &page.spec;
    let mut out = format!(
        "OK cmd=show ring={ring} protocol={} mbps={} stations={} streams={} shown={} offset={}",
        spec.protocol,
        spec.mbps,
        fmt_stations(spec.stations),
        page.streams,
        page.page.len(),
        page.offset,
    );
    out.push_str(" set=");
    if page.page.is_empty() {
        out.push('-');
        return out;
    }
    for (i, (name, stream)) in page.page.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        push_stream(&mut out, name, stream);
    }
    out
}

/// Records latency only for completed (`OK`) requests, so BUSY fast-rejects
/// and errors do not skew the per-command histograms.
pub(crate) fn record_completed(
    shared: &Arc<Shared>,
    command: CommandKind,
    started: Instant,
    text: &str,
) {
    if text.starts_with("OK") {
        shared.metrics.record_latency(command, started.elapsed());
    }
}

/// Queues a job with `reply` as its completion ticket and returns
/// [`Handled::Queued`] without waiting. A full queue sheds a single
/// request with `BUSY`; a `BATCH` position (`in_batch`) is **parked**
/// instead — answering `BUSY` for a position the client already committed
/// to would make batch semantics depend on worker timing. The loop holds
/// the parked job and stops reading that connection until the job gets a
/// slot, so only the batching client waits.
fn submit(
    shared: &Arc<Shared>,
    request: Request,
    cache_key: Option<CacheKey>,
    command: CommandKind,
    deadline_ms: Option<u64>,
    (reply, in_batch): (ReplyTo, bool),
) -> Handled {
    let started = Instant::now();
    let deadline = Duration::from_millis(deadline_ms.unwrap_or(shared.config.default_deadline_ms));
    let job = Job {
        request,
        cache_key,
        reply,
        enqueued: started,
        deadline,
    };
    if in_batch {
        let parked = shared.enqueue_or_park(job);
        return Handled::Queued {
            command,
            started,
            parked,
        };
    }
    match shared.try_enqueue(job) {
        Ok(()) => Handled::Queued {
            command,
            started,
            parked: None,
        },
        Err(_) => Handled::Ready(Response::Line(format!(
            "BUSY queue_capacity={}",
            shared.config.queue_depth
        ))),
    }
}

fn worker_loop(shared: &Arc<Shared>, index: usize) {
    loop {
        let (job, room_waiters) = {
            let mut q = shared.queue.lock().expect("job queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break (job, std::mem::take(&mut q.room_waiters));
                }
                if shared.shutting_down() && q.parked == 0 {
                    return; // queue drained, shutdown requested
                }
                q = shared.queue_cv.wait(q).expect("job queue poisoned");
            }
        };
        for waker in room_waiters {
            waker.wake();
        }
        // Every popped job's queue wait is recorded — expired jobs
        // included, since their wait is exactly the signal the stage
        // histogram exists to expose.
        let waited = job.enqueued.elapsed();
        shared.metrics.record_stage(Stage::QueueWait, waited);
        if waited > job.deadline {
            shared
                .recorder
                .record("request", "queue_wait", job.enqueued, waited);
            shared
                .metrics
                .deadline_expired
                .fetch_add(1, Ordering::Relaxed);
            job.reply.send(format!(
                "ERR deadline expired after {} ms in queue",
                waited.as_millis()
            ));
            continue;
        }
        shared.inflight.fetch_add(1, Ordering::Relaxed);
        let exec_started = Instant::now();
        let text = execute_request(shared, &job.request, job.cache_key.as_ref());
        let busy = exec_started.elapsed();
        // Both finished stages go into the recorder under one shard lock.
        shared.recorder.record_many(&[
            Measured {
                cat: "request",
                name: "queue_wait",
                start: job.enqueued,
                dur: waited,
            },
            Measured {
                cat: "request",
                name: "execute",
                start: exec_started,
                dur: busy,
            },
        ]);
        shared.metrics.record_stage(Stage::Execute, busy);
        shared.metrics.record_worker(index, busy);
        shared.inflight.fetch_sub(1, Ordering::Relaxed);
        job.reply.send(text);
    }
}

/// Executes one queueable request body on a worker.
fn execute_request(
    shared: &Arc<Shared>,
    request: &Request,
    cache_key: Option<&CacheKey>,
) -> String {
    match request {
        Request::Sleep { ms, .. } => {
            let ms = (*ms).min(shared.config.max_sleep_ms);
            std::thread::sleep(Duration::from_millis(ms));
            format!("OK cmd=sleep ms={ms}")
        }
        Request::Analysis(req) => {
            finish_cacheable(shared, engine::execute_with(req, &shared.exec), cache_key)
        }
        Request::Abu(req) => {
            finish_cacheable(shared, engine::execute_abu(req, &shared.exec), cache_key)
        }
        other => format!("ERR internal: non-queueable request {other:?}"),
    }
}

/// Stores a successful body under its cache key and stamps the cache
/// marker the client sees.
fn finish_cacheable(shared: &Arc<Shared>, body: String, cache_key: Option<&CacheKey>) -> String {
    if !body.starts_with("OK") {
        return body;
    }
    if let Some(key) = cache_key {
        shared.cache.insert(key.clone(), body.clone());
    }
    format!("{body} cached=false")
}

/// The command token of a state-mutating request, or `None` for reads.
/// `COMPACT` counts as a mutation: a standby's journal is the primary's
/// shipped history, and folding it locally would fork the layouts.
fn mutation_command(request: &Request) -> Option<&'static str> {
    match request {
        Request::Register { .. } => Some("register"),
        Request::Admit { .. } => Some("admit"),
        Request::Remove { .. } => Some("remove"),
        Request::Unregister { .. } => Some("unregister"),
        Request::Compact => Some("compact"),
        _ => None,
    }
}

/// `SYNC epoch=<e> seq=<n> cluster=<c>`: fence the requester's epoch and
/// journal identity against ours, then hand the connection a journal
/// subscription.
fn handle_sync(shared: &Arc<Shared>, epoch: u64, seq: u64, cluster: u64) -> Response {
    if shared.replication.is_follower() {
        return Response::Line(
            "ERR cmd=sync a follower does not ship its journal (SYNC the primary)".to_owned(),
        );
    }
    let serving = shared.registry.epoch();
    if serving == 0 {
        return Response::Line(
            "ERR cmd=sync journal shipping requires a persistent state dir".to_owned(),
        );
    }
    // Cluster fencing: a nonzero requester identity names the journal
    // lineage its history belongs to. A mismatch means the follower
    // replicated a *different* cluster — epochs and sequence numbers from
    // unrelated histories collide freely, so shipping would interleave
    // two journals. Identity 0 is a fresh journal that adopts ours.
    let ours = shared.registry.cluster_id();
    if cluster != 0 && cluster != ours {
        return Response::Line(format!(
            "ERR cmd=sync cluster mismatch requester_cluster={cluster} cluster={ours}"
        ));
    }
    // Epoch fencing: a nonzero requester epoch is a claim about whose
    // history its journal extends. Lower means it replicated a superseded
    // primary (its tail may diverge from ours); higher means *we* are the
    // stale one. Either way shipping would risk split-brain, so refuse.
    // Epoch 0 is a fresh follower with nothing to fence.
    if epoch != 0 && epoch != serving {
        return Response::Line(format!(
            "ERR cmd=sync fenced requester_epoch={epoch} epoch={serving}"
        ));
    }
    match shared.registry.subscribe(seq) {
        Ok(sub) => Response::Ship(Box::new(sub)),
        Err(e) => Response::Line(format!("ERR {e}")),
    }
}

/// `PROMOTE`: flip a follower to primary under a freshly fenced epoch.
fn handle_promote(shared: &Arc<Shared>) -> String {
    if !shared.replication.is_follower() {
        return format!(
            "ERR cmd=promote already primary epoch={}",
            shared.registry.epoch()
        );
    }
    match promote_self(shared) {
        Ok(epoch) => format!(
            "OK cmd=promote epoch={epoch} applied_seq={}",
            shared.registry.next_seq().saturating_sub(1)
        ),
        Err(e) => format!("ERR cmd=promote {e}"),
    }
}

/// Durably publishes the next epoch, then flips the role. Epoch first:
/// if the fence never hits disk the node must stay a follower, or a
/// restart would resurrect it under the old primary's epoch.
fn promote_self(shared: &Arc<Shared>) -> Result<u64, ringrt_registry::RegistryError> {
    let epoch = shared.registry.epoch().saturating_add(1).max(2);
    shared.registry.set_epoch(epoch)?;
    shared.replication.promote();
    Ok(epoch)
}

/// Serves one `SYNC` subscription: snapshot (if any) and backlog in one
/// write, then live records as they commit, with periodic pings carrying
/// the current head so the follower can measure its lag.
pub(crate) fn serve_ship(writer: &mut TcpStream, sub: ShipSubscription, shared: &Arc<Shared>) {
    let header = replication::sync_header(
        sub.epoch,
        sub.head,
        sub.snapshot.is_some(),
        sub.backlog.len(),
        sub.cluster,
    );
    shared.metrics.count_response(&header);
    let mut out = String::new();
    out.push_str(&header);
    out.push('\n');
    if let Some((seq, text)) = &sub.snapshot {
        out.push_str(&replication::render_snapshot(
            *seq,
            text.lines().count() as u64,
        ));
        out.push('\n');
        for line in text.lines() {
            out.push_str(line);
            out.push('\n');
        }
    }
    for record in &sub.backlog {
        out.push_str(&replication::render_record(record));
        out.push('\n');
        shared.replication.note_shipped();
    }
    if writer
        .write_all(out.as_bytes())
        .and_then(|()| writer.flush())
        .is_err()
    {
        return;
    }
    shared.replication.follower_attached();
    let mut last_ping = Instant::now();
    loop {
        match sub.live.recv_timeout(POLL_INTERVAL * 10) {
            Ok(record) => {
                let ship_span = shared.recorder.span("registry", "journal_ship");
                let ok = writer
                    .write_all(format!("{}\n", replication::render_record(&record)).as_bytes())
                    .and_then(|()| writer.flush())
                    .is_ok();
                drop(ship_span);
                if !ok {
                    break;
                }
                shared.replication.note_shipped();
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.shutting_down() {
                    break;
                }
                if last_ping.elapsed() >= Duration::from_secs(1) {
                    let ping = replication::render_ping(
                        shared.registry.epoch(),
                        shared.registry.next_seq().saturating_sub(1),
                    );
                    if writer
                        .write_all(format!("{ping}\n").as_bytes())
                        .and_then(|()| writer.flush())
                        .is_err()
                    {
                        break;
                    }
                    last_ping = Instant::now();
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    shared.replication.follower_detached();
}

/// Why one follower connection attempt ended.
enum FollowEnd {
    /// Reconnect and resubscribe from the current `next_seq`.
    Retry,
    /// Stop following: shutdown, or this node is no longer a follower.
    Stop,
}

/// The warm standby's replay thread: connect, `SYNC`, apply every `SHIP`
/// frame through the registry, reconnect (resubscribing from the exact
/// sequence it needs next) on any gap or stream loss, and auto-promote if
/// the primary stays silent past `promote_timeout_ms`.
fn follower_loop(shared: &Arc<Shared>) {
    let Some(source) = shared.replication.source().map(str::to_owned) else {
        return;
    };
    let promote_after = shared.config.promote_timeout_ms.map(Duration::from_millis);
    let mut last_contact = Instant::now();
    loop {
        if stop_following(shared) {
            return;
        }
        match follow_once(shared, &source, promote_after, &mut last_contact) {
            FollowEnd::Stop => return,
            FollowEnd::Retry => {
                shared.replication.set_connected(false);
                if promote_if_silent(shared, promote_after, last_contact) {
                    return;
                }
                std::thread::sleep(POLL_INTERVAL);
            }
        }
    }
}

fn stop_following(shared: &Arc<Shared>) -> bool {
    shared.shutting_down() || !shared.replication.is_follower()
}

/// Fires the promote timeout if the primary has been silent too long.
/// Returns true when this node just became primary.
fn promote_if_silent(
    shared: &Arc<Shared>,
    promote_after: Option<Duration>,
    last_contact: Instant,
) -> bool {
    let Some(after) = promote_after else {
        return false;
    };
    if last_contact.elapsed() < after {
        return false;
    }
    match promote_self(shared) {
        Ok(epoch) => {
            eprintln!(
                "ringrt-service: primary silent for {} ms; promoted to epoch {epoch}",
                last_contact.elapsed().as_millis()
            );
            true
        }
        Err(e) => {
            eprintln!("ringrt-service: auto-promotion failed: {e}");
            false
        }
    }
}

/// One connect → SYNC → replay cycle against the primary.
fn follow_once(
    shared: &Arc<Shared>,
    source: &str,
    promote_after: Option<Duration>,
    last_contact: &mut Instant,
) -> FollowEnd {
    let Ok(stream) = TcpStream::connect(source) else {
        return FollowEnd::Retry;
    };
    if stream.set_read_timeout(Some(POLL_INTERVAL * 10)).is_err() {
        return FollowEnd::Retry;
    }
    let Ok(mut writer) = stream.try_clone() else {
        return FollowEnd::Retry;
    };
    let hello = replication::sync_request(
        shared.registry.epoch(),
        shared.registry.next_seq().max(1),
        shared.registry.cluster_id(),
    );
    if writer
        .write_all(format!("{hello}\n").as_bytes())
        .and_then(|()| writer.flush())
        .is_err()
    {
        return FollowEnd::Retry;
    }
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    // Header first; everything after it is SHIP frames applied under the
    // epoch the header carried.
    let mut stream_epoch: Option<u64> = None;
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => return FollowEnd::Retry,
            Ok(_) => {
                let frame = line.trim_end().to_owned();
                line.clear();
                *last_contact = Instant::now();
                // A promotion (PROMOTE command or silence timeout) can
                // land between frames; the moment this node stops being a
                // follower, nothing further from the old primary may be
                // applied.
                if stop_following(shared) {
                    return FollowEnd::Stop;
                }
                let Some(epoch) = stream_epoch else {
                    match replication::parse_sync_header(&frame) {
                        Ok(header) => {
                            // A head behind our own journal means the
                            // primary never produced records we hold:
                            // diverged histories, not a lagging follower.
                            // Refuse rather than let the overlap be
                            // misread as duplicates.
                            let next = shared.registry.next_seq();
                            if header.head.saturating_add(1) < next {
                                eprintln!(
                                    "ringrt-service: {source} advertises head {} behind our \
                                     journal (next_seq {next}); refusing divergent stream",
                                    header.head
                                );
                                shared.replication.note_resync();
                                return FollowEnd::Retry;
                            }
                            // Adopt the primary's journal identity on
                            // first contact; refuse a stream whose
                            // identity conflicts with the one we already
                            // replicated under (the primary should have
                            // fenced us, but an old primary may not know
                            // the cluster= key).
                            let local_cluster = shared.registry.cluster_id();
                            if header.cluster != 0 && local_cluster != 0 {
                                if header.cluster != local_cluster {
                                    eprintln!(
                                        "ringrt-service: {source} ships cluster {} but this \
                                         journal belongs to cluster {local_cluster}; refusing",
                                        header.cluster
                                    );
                                    shared.replication.note_resync();
                                    return FollowEnd::Retry;
                                }
                            } else if header.cluster != 0
                                && shared.registry.set_cluster_id(header.cluster).is_err()
                            {
                                return FollowEnd::Retry;
                            }
                            if header.epoch > shared.registry.epoch()
                                && shared.registry.set_epoch(header.epoch).is_err()
                            {
                                return FollowEnd::Retry;
                            }
                            shared.replication.note_head(header.head);
                            shared.replication.set_connected(true);
                            stream_epoch = Some(header.epoch);
                        }
                        Err(refusal) => {
                            eprintln!("ringrt-service: SYNC refused by {source}: {refusal}");
                            shared.replication.note_resync();
                            return FollowEnd::Retry;
                        }
                    }
                    continue;
                };
                match apply_ship_frame(shared, &frame, epoch, &mut reader) {
                    Ok(()) => {}
                    Err(()) => {
                        shared.replication.note_resync();
                        return FollowEnd::Retry;
                    }
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop_following(shared) {
                    return FollowEnd::Stop;
                }
                if promote_if_silent(shared, promote_after, *last_contact) {
                    return FollowEnd::Stop;
                }
            }
            Err(_) => return FollowEnd::Retry,
        }
    }
}

/// Applies one ship frame on the follower under the epoch the stream
/// synced at. `Err(())` forces a resync — the reconnect path resubscribes
/// from exactly `next_seq`, so dropped, duplicated, and reordered frames
/// all converge back to the primary's history. Every apply is fenced by
/// `stream_epoch` inside the registry lock, so a promotion racing with an
/// in-flight frame can never let the superseded primary's record into the
/// promoted journal.
fn apply_ship_frame(
    shared: &Arc<Shared>,
    frame: &str,
    stream_epoch: u64,
    reader: &mut BufReader<TcpStream>,
) -> Result<(), ()> {
    match replication::parse_ship_frame(frame) {
        Ok(ShipFrame::Record(record)) => {
            let replay_span = shared.recorder.span("registry", "journal_replay");
            let outcome = shared
                .registry
                .apply_replicated_fenced(&record, stream_epoch);
            drop(replay_span);
            match outcome {
                Ok(ReplicatedApply::Applied { seq }) => {
                    shared.replication.note_head(seq);
                    shared.replication.note_applied(seq);
                    Ok(())
                }
                // Replays after a reconnect overlap the tail we already
                // hold; duplicates are the protocol working as designed.
                Ok(ReplicatedApply::Duplicate { .. }) => Ok(()),
                Ok(ReplicatedApply::Gap { .. }) => Err(()),
                Err(e) => {
                    eprintln!("ringrt-service: shipped record refused: {e}");
                    Err(())
                }
            }
        }
        Ok(ShipFrame::Snapshot { seq, lines }) => {
            let text = read_snapshot_body(shared, reader, lines).ok_or(())?;
            match shared.registry.install_snapshot_fenced(&text, stream_epoch) {
                Ok(_) => {
                    shared.replication.note_head(seq);
                    shared.replication.note_snapshot(seq);
                    Ok(())
                }
                Err(e) => {
                    eprintln!("ringrt-service: shipped snapshot rejected: {e}");
                    Err(())
                }
            }
        }
        Ok(ShipFrame::Ping { epoch, head }) => {
            // A ping from a different epoch than the stream synced at
            // means either side changed identity mid-stream; drop the
            // connection and let the SYNC fence sort it out.
            if epoch != stream_epoch {
                eprintln!(
                    "ringrt-service: ping epoch {epoch} does not match stream epoch \
                     {stream_epoch}; dropping connection"
                );
                return Err(());
            }
            shared.replication.note_head(head);
            Ok(())
        }
        Err(e) => {
            eprintln!("ringrt-service: unparseable ship frame: {e}");
            Err(())
        }
    }
}

/// Reads the `lines` raw snapshot lines following a snapshot frame.
fn read_snapshot_body(
    shared: &Arc<Shared>,
    reader: &mut BufReader<TcpStream>,
    lines: u64,
) -> Option<String> {
    let mut text = String::new();
    let mut line = String::new();
    let mut got = 0u64;
    while got < lines {
        match reader.read_line(&mut line) {
            Ok(0) => return None,
            Ok(_) => {
                text.push_str(&line);
                if !line.ends_with('\n') {
                    text.push('\n');
                }
                line.clear();
                got += 1;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.shutting_down() {
                    return None;
                }
            }
            Err(_) => return None,
        }
    }
    Some(text)
}

// Every server runs on the epoll loops, so the tests need Linux.
#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::protocol::MAX_LINE_BYTES;
    use std::io::BufRead;

    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
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

    fn test_server(workers: usize, queue_depth: usize) -> ServerHandle {
        spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers,
            queue_depth,
            ..ServiceConfig::default()
        })
        .expect("spawn server")
    }

    #[test]
    fn ping_and_malformed_lines() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        assert!(c.roundtrip("NONSENSE").starts_with("ERR"));
        assert!(c.roundtrip("").starts_with("ERR"));
        server.join();
    }

    #[test]
    fn check_roundtrip_and_cache() {
        let server = test_server(2, 8);
        let mut c = Client::connect(server.addr());
        let first = c.roundtrip("CHECK mbps=16 set=20,20000;50,60000");
        assert!(first.contains("schedulable=true"), "{first}");
        assert!(first.ends_with("cached=false"), "{first}");
        let second = c.roundtrip("CHECK mbps=16 set=50,60000;20,20000"); // reordered
        assert!(second.ends_with("cached=true"), "{second}");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("cache_hits=1"), "{stats}");
        assert!(stats.contains("cache_entries=1"), "{stats}");
        server.join();
    }

    #[test]
    fn busy_when_queue_full() {
        let server = test_server(1, 1);
        let addr = server.addr();
        // Occupy the single worker…
        let blocker = std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            c.roundtrip("SLEEP ms=600")
        });
        std::thread::sleep(Duration::from_millis(150));
        // …fill the one queue slot…
        let filler = std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            c.roundtrip("SLEEP ms=100")
        });
        std::thread::sleep(Duration::from_millis(150));
        // …and the next request must be shed, not left hanging.
        let mut c = Client::connect(addr);
        let resp = c.roundtrip("SLEEP ms=1");
        assert!(resp.starts_with("BUSY"), "{resp}");
        assert!(resp.contains("queue_capacity=1"), "{resp}");
        assert_eq!(blocker.join().unwrap(), "OK cmd=sleep ms=600");
        assert_eq!(filler.join().unwrap(), "OK cmd=sleep ms=100");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("busy=1"), "{stats}");
        server.join();
    }

    #[test]
    fn graceful_shutdown_answers_in_flight_work() {
        let server = test_server(1, 4);
        let addr = server.addr();
        let inflight = std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            c.roundtrip("SLEEP ms=300")
        });
        std::thread::sleep(Duration::from_millis(100));
        server.shutdown();
        assert_eq!(inflight.join().unwrap(), "OK cmd=sleep ms=300");
        server.join();
    }

    #[test]
    fn shutdown_command_closes_and_stops_accepting() {
        let server = test_server(1, 4);
        let addr = server.addr();
        let mut c = Client::connect(addr);
        assert_eq!(c.roundtrip("SHUTDOWN"), "OK cmd=shutdown");
        server.join();
        assert!(TcpStream::connect(addr).is_err(), "still accepting");
    }

    #[test]
    fn registry_commands_roundtrip() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        assert_eq!(
            c.roundtrip("REGISTER ring=lab protocol=fddi mbps=100 stations=16"),
            "OK cmd=register ring=lab protocol=fddi mbps=100 stations=16"
        );
        assert!(c
            .roundtrip("REGISTER ring=lab protocol=fddi mbps=100")
            .starts_with("ERR ring `lab` is already registered"));
        let admit = c.roundtrip("ADMIT ring=lab stream=cam period_ms=20 bits=100000");
        assert!(admit.contains("schedulable=true admitted=true"), "{admit}");
        assert!(admit.contains("streams=1"), "{admit}");
        // Duplicate stream names are rejected with a structured error.
        let dup = c.roundtrip("ADMIT ring=lab stream=cam period_ms=30 bits=1000");
        assert_eq!(dup, "ERR duplicate stream `cam` in ring `lab`");
        let admit2 = c.roundtrip("ADMIT ring=lab stream=mic period_ms=50 bits=200000");
        assert!(admit2.contains("incremental=true"), "{admit2}");
        let show = c.roundtrip("SHOW ring=lab");
        assert!(
            show.starts_with("OK cmd=show ring=lab protocol=fddi"),
            "{show}"
        );
        assert!(show.contains("set=cam:20,100000;mic:50,200000"), "{show}");
        assert_eq!(c.roundtrip("SHOW"), "OK cmd=show rings=1 names=lab");
        let check = c.roundtrip("CHECK ring=lab");
        assert!(check.contains("schedulable=true"), "{check}");
        assert!(check.contains("evaluations="), "{check}");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("rings=1"), "{stats}");
        assert!(stats.contains("registry_streams=2"), "{stats}");
        assert!(stats.contains("incremental_tests=1"), "{stats}");
        let rm = c.roundtrip("REMOVE ring=lab stream=cam");
        assert!(rm.contains("streams=1"), "{rm}");
        assert_eq!(
            c.roundtrip("UNREGISTER ring=lab"),
            "OK cmd=unregister ring=lab"
        );
        assert!(c.roundtrip("SHOW ring=lab").starts_with("ERR unknown ring"));
        server.join();
    }

    #[test]
    fn unschedulable_admit_not_applied() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        c.roundtrip("REGISTER ring=r protocol=fddi mbps=100 stations=8");
        c.roundtrip("ADMIT ring=r stream=ok period_ms=20 bits=100000");
        let hog = c.roundtrip("ADMIT ring=r stream=hog period_ms=100 bits=12000000");
        assert!(hog.contains("schedulable=false admitted=false"), "{hog}");
        assert!(hog.contains("streams=1"), "{hog}");
        // The hog can be retried under another name; the ring is intact.
        let show = c.roundtrip("SHOW ring=r");
        assert!(show.contains("streams=1"), "{show}");
        server.join();
    }

    #[test]
    fn batch_answers_in_order_with_one_write() {
        let server = test_server(2, 8);
        let mut c = Client::connect(server.addr());
        // One write carrying the header and all three pipelined requests.
        c.writer
            .write_all(b"BATCH 3\nPING\nCHECK mbps=16 set=20,20000\nPING\n")
            .expect("send batch");
        let mut responses = Vec::new();
        for _ in 0..3 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            responses.push(r.trim_end().to_owned());
        }
        assert_eq!(responses[0], "OK cmd=ping");
        assert!(responses[1].contains("cmd=check"), "{}", responses[1]);
        assert_eq!(responses[2], "OK cmd=ping");
        // Nested batches are refused but do not kill the connection.
        c.writer
            .write_all(b"BATCH 2\nBATCH 2\nPING\n")
            .expect("send nested");
        let mut nested = Vec::new();
        for _ in 0..2 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            nested.push(r.trim_end().to_owned());
        }
        assert!(nested[0].starts_with("ERR nested BATCH"), "{}", nested[0]);
        assert_eq!(nested[1], "OK cmd=ping");
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        server.join();
    }

    #[test]
    fn batch_overlaps_sleeps_and_answers_in_submission_order() {
        let server = test_server(4, 16);
        let mut c = Client::connect(server.addr());
        // Four 200 ms sleeps: serial execution would need ≥800 ms; the
        // parallel batch path should finish in roughly one sleep.
        let started = Instant::now();
        c.writer
            .write_all(b"BATCH 5\nSLEEP ms=200\nSLEEP ms=200\nPING\nSLEEP ms=200\nSLEEP ms=200\n")
            .expect("send batch");
        let mut responses = Vec::new();
        for _ in 0..5 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            responses.push(r.trim_end().to_owned());
        }
        let elapsed = started.elapsed();
        assert_eq!(responses[0], "OK cmd=sleep ms=200");
        assert_eq!(responses[1], "OK cmd=sleep ms=200");
        assert_eq!(responses[2], "OK cmd=ping");
        assert_eq!(responses[3], "OK cmd=sleep ms=200");
        assert_eq!(responses[4], "OK cmd=sleep ms=200");
        assert!(
            elapsed < Duration::from_millis(700),
            "batch took {elapsed:?}, sleeps did not overlap"
        );
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("queue_peak="), "{stats}");
        assert!(stats.contains("worker_jobs="), "{stats}");
        server.join();
    }

    #[test]
    fn batch_parks_overflow_instead_of_shedding() {
        // One worker, one queue slot: a six-deep batch vastly overflows the
        // queue, but batch positions must never answer BUSY — overflow
        // waits on its connection for a queue slot.
        let server = test_server(1, 1);
        let mut c = Client::connect(server.addr());
        let mut batch = String::from("BATCH 6\n");
        for _ in 0..6 {
            batch.push_str("SLEEP ms=10\n");
        }
        c.writer.write_all(batch.as_bytes()).expect("send batch");
        for i in 0..6 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            assert_eq!(r.trim_end(), "OK cmd=sleep ms=10", "position {i}");
        }
        let stats = c.roundtrip("STATS");
        assert!(stats.contains(" busy=0"), "{stats}");
        server.join();
    }

    #[test]
    fn parked_batch_does_not_stall_other_connections_on_its_loop() {
        // One loop, one worker, one queue slot: the third one-second SLEEP
        // of the batch finds the queue full and is parked. A PING from a
        // second client on the same loop must still be answered at once.
        let server = custom_server(|c| {
            c.exec_threads = Some(1);
            c.workers = 1;
            c.queue_depth = 1;
        });
        let mut batcher = Client::connect(server.addr());
        batcher
            .writer
            .write_all(b"BATCH 3\nSLEEP ms=1000\nSLEEP ms=1000\nSLEEP ms=1000\n")
            .expect("send batch");
        std::thread::sleep(Duration::from_millis(100));
        let mut other = Client::connect(server.addr());
        let t = Instant::now();
        assert_eq!(other.roundtrip("PING"), "OK cmd=ping");
        let waited = t.elapsed();
        assert!(
            waited < Duration::from_millis(500),
            "PING waited {waited:?} behind another client's batch"
        );
        for i in 0..3 {
            let mut r = String::new();
            batcher.reader.read_line(&mut r).expect("recv");
            assert_eq!(r.trim_end(), "OK cmd=sleep ms=1000", "position {i}");
        }
        let stats = other.roundtrip("STATS");
        assert!(stats.contains(" busy=0"), "{stats}");
        server.join();
    }

    #[test]
    fn shutdown_answers_parked_batch_positions() {
        // Workers must not exit on an empty queue while a batch position
        // is still parked waiting to be queued.
        let server = custom_server(|c| {
            c.exec_threads = Some(1);
            c.workers = 1;
            c.queue_depth = 1;
        });
        let mut batcher = Client::connect(server.addr());
        batcher
            .writer
            .write_all(b"BATCH 4\nSLEEP ms=100\nSLEEP ms=100\nSLEEP ms=100\nSLEEP ms=100\n")
            .expect("send batch");
        std::thread::sleep(Duration::from_millis(50));
        let mut other = Client::connect(server.addr());
        assert_eq!(other.roundtrip("SHUTDOWN"), "OK cmd=shutdown");
        for i in 0..4 {
            let mut r = String::new();
            batcher.reader.read_line(&mut r).expect("recv");
            assert_eq!(r.trim_end(), "OK cmd=sleep ms=100", "position {i}");
        }
        server.join();
    }

    #[test]
    fn abu_roundtrip_is_cached_and_deterministic() {
        let server = spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_depth: 8,
            exec_threads: Some(4),
            ..ServiceConfig::default()
        })
        .expect("spawn server");
        let mut c = Client::connect(server.addr());
        let line = "ABU mbps=100 stations=8 samples=20 seed=5 protocol=fddi deadline_ms=30000";
        let first = c.roundtrip(line);
        assert!(first.starts_with("OK cmd=abu"), "{first}");
        assert!(first.contains(" abu_mean="), "{first}");
        assert!(first.ends_with("cached=false"), "{first}");
        let second = c.roundtrip(line);
        assert!(second.ends_with("cached=true"), "{second}");
        // The cached body is the first body verbatim: pool-width
        // determinism is what makes ABU cacheable at all.
        assert_eq!(
            first.trim_end_matches("cached=false"),
            second.trim_end_matches("cached=true")
        );
        let other_seed = c
            .roundtrip("ABU mbps=100 stations=8 samples=20 seed=6 protocol=fddi deadline_ms=30000");
        assert!(other_seed.ends_with("cached=false"), "{other_seed}");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("exec_threads=4"), "{stats}");
        // Two executed requests plus one cache hit, all latency-counted.
        assert!(stats.contains("abu_count=3"), "{stats}");
        server.join();
    }

    #[test]
    fn ring_mutation_invalidates_cached_ring_analyses() {
        let server = test_server(2, 8);
        let mut c = Client::connect(server.addr());
        c.roundtrip("REGISTER ring=r protocol=fddi mbps=100 stations=8");
        c.roundtrip("ADMIT ring=r stream=a period_ms=20 bits=100000");
        let first = c.roundtrip("SIMULATE ring=r seconds=0.1 seed=3");
        assert!(first.ends_with("cached=false"), "{first}");
        let hit = c.roundtrip("SIMULATE ring=r seconds=0.1 seed=3");
        assert!(hit.ends_with("cached=true"), "{hit}");
        // Remove and re-admit the *identical* stream: the set is unchanged
        // but the ring's generation moved, so the entry must be stale —
        // without any EVICT.
        c.roundtrip("REMOVE ring=r stream=a");
        c.roundtrip("ADMIT ring=r stream=a period_ms=20 bits=100000");
        let after = c.roundtrip("SIMULATE ring=r seconds=0.1 seed=3");
        assert!(after.ends_with("cached=false"), "{after}");
        // Stability: the re-admitted state caches normally from here on.
        let again = c.roundtrip("SIMULATE ring=r seconds=0.1 seed=3");
        assert!(again.ends_with("cached=true"), "{again}");
        server.join();
    }

    #[test]
    fn evict_clears_cache_and_counts() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        c.roundtrip("CHECK mbps=16 set=20,20000");
        c.roundtrip("CHECK mbps=16 set=20,30000");
        assert_eq!(c.roundtrip("EVICT"), "OK cmd=evict evicted=2");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("cache_entries=0"), "{stats}");
        assert!(stats.contains("cache_capacity="), "{stats}");
        // The next identical CHECK is a miss again.
        let again = c.roundtrip("CHECK mbps=16 set=20,20000");
        assert!(again.ends_with("cached=false"), "{again}");
        server.join();
    }

    #[test]
    fn saturation_on_stored_ring() {
        let server = test_server(2, 8);
        let mut c = Client::connect(server.addr());
        c.roundtrip("REGISTER ring=r protocol=fddi mbps=100 stations=8");
        c.roundtrip("ADMIT ring=r stream=a period_ms=20 bits=100000");
        let sat = c.roundtrip("SATURATION ring=r");
        assert!(sat.contains("cmd=saturation"), "{sat}");
        assert!(sat.contains(" scale="), "{sat}");
        assert!(c
            .roundtrip("SATURATION ring=ghost")
            .starts_with("ERR unknown ring"));
        server.join();
    }

    fn temp_state_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ringrt-serve-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Spawns a persistent primary and a follower replicating it.
    fn replicated_pair(tag: &str) -> (ServerHandle, ServerHandle, PathBuf, PathBuf) {
        let primary_dir = temp_state_dir(&format!("{tag}-p"));
        let follower_dir = temp_state_dir(&format!("{tag}-f"));
        let primary = spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_depth: 8,
            state_dir: Some(primary_dir.clone()),
            ..ServiceConfig::default()
        })
        .expect("spawn primary");
        let follower = spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_depth: 8,
            state_dir: Some(follower_dir.clone()),
            follow: Some(primary.addr().to_string()),
            ..ServiceConfig::default()
        })
        .expect("spawn follower");
        (primary, follower, primary_dir, follower_dir)
    }

    /// Polls `line` against the follower until `want` appears (replication
    /// is asynchronous) or five seconds pass.
    fn await_contains(c: &mut Client, line: &str, want: &str) -> String {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let got = c.roundtrip(line);
            if got.contains(want) {
                return got;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {want:?}; last answer: {got}"
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    #[test]
    fn follower_redirects_mutations_and_answers_reads() {
        let (primary, follower, pd, fd) = replicated_pair("redirect");
        let mut p = Client::connect(primary.addr());
        let mut f = Client::connect(follower.addr());
        p.roundtrip("REGISTER ring=lab protocol=fddi mbps=100 stations=8");
        p.roundtrip("ADMIT ring=lab stream=cam period_ms=20 bits=100000");
        // The standby catches up and answers the same CHECK the primary does.
        let on_follower = await_contains(&mut f, "CHECK ring=lab", "schedulable=true");
        assert_eq!(on_follower, p.roundtrip("CHECK ring=lab"));
        // A single mutation is redirected, not erred.
        let redirect = f.roundtrip("ADMIT ring=lab stream=mic period_ms=50 bits=1000");
        assert_eq!(
            redirect,
            format!("READONLY cmd=admit primary={} epoch=1", primary.addr())
        );
        // In a BATCH, only the mutating frame is redirected.
        f.writer
            .write_all(b"BATCH 3\nPING\nREMOVE ring=lab stream=cam\nSHOW ring=lab\n")
            .expect("send batch");
        let mut got = Vec::new();
        for _ in 0..3 {
            let mut r = String::new();
            f.reader.read_line(&mut r).expect("recv");
            got.push(r.trim_end().to_owned());
        }
        assert_eq!(got[0], "OK cmd=ping");
        assert!(
            got[1].starts_with("READONLY cmd=remove primary="),
            "{}",
            got[1]
        );
        assert!(got[2].contains("set=cam:20,100000"), "{}", got[2]);
        // The redirects are visible as their own counter, not as errors.
        let stats = f.roundtrip("STATS");
        assert!(stats.contains(" readonly=2"), "{stats}");
        assert!(stats.contains(" role=follower"), "{stats}");
        let rep = f.roundtrip("REPLICATION");
        assert!(rep.contains("role=follower"), "{rep}");
        assert!(rep.contains("epoch=1"), "{rep}");
        // STATS RESET re-seeds the lag window with the live lag.
        assert_eq!(f.roundtrip("STATS RESET"), "OK cmd=stats_reset");
        let after = f.roundtrip("REPLICATION");
        assert!(after.contains(" lag=0 lag_peak=0"), "{after}");
        follower.join();
        primary.join();
        let _ = std::fs::remove_dir_all(pd);
        let _ = std::fs::remove_dir_all(fd);
    }

    #[test]
    fn sync_from_a_stale_epoch_is_fenced() {
        let dir = temp_state_dir("fence");
        let server = spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_depth: 4,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .expect("spawn server");
        let mut c = Client::connect(server.addr());
        // Serving epoch is 1 (first boot). A requester claiming any other
        // nonzero epoch replicated some other history: refuse with the
        // fencing error, naming both epochs.
        assert_eq!(
            c.roundtrip("SYNC epoch=99 seq=1"),
            "ERR cmd=sync fenced requester_epoch=99 epoch=1"
        );
        // The connection stays usable after a refused SYNC.
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        // SYNC cannot hide inside a BATCH: the stream would swallow the
        // remaining framed replies.
        c.writer
            .write_all(b"BATCH 2\nSYNC seq=1\nPING\n")
            .expect("send batch");
        let mut got = Vec::new();
        for _ in 0..2 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            got.push(r.trim_end().to_owned());
        }
        assert_eq!(got[0], "ERR SYNC is not allowed inside BATCH");
        assert_eq!(got[1], "OK cmd=ping");
        server.join();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn in_memory_server_refuses_sync_and_promote() {
        let server = test_server(1, 4);
        let mut c = Client::connect(server.addr());
        assert_eq!(
            c.roundtrip("SYNC seq=1"),
            "ERR cmd=sync journal shipping requires a persistent state dir"
        );
        assert_eq!(
            c.roundtrip("PROMOTE"),
            "ERR cmd=promote already primary epoch=0"
        );
        let rep = c.roundtrip("REPLICATION");
        assert!(rep.contains("role=primary"), "{rep}");
        assert!(rep.contains("source=-"), "{rep}");
        server.join();
    }

    #[test]
    fn promote_fences_a_new_epoch_and_enables_mutations() {
        let (primary, follower, pd, fd) = replicated_pair("promote");
        let mut p = Client::connect(primary.addr());
        p.roundtrip("REGISTER ring=ring protocol=fddi mbps=100 stations=8");
        p.roundtrip("ADMIT ring=ring stream=a period_ms=20 bits=100000");
        let mut f = Client::connect(follower.addr());
        await_contains(&mut f, "SHOW ring=ring", "streams=1");
        // Primary dies; the operator promotes the standby.
        assert_eq!(p.roundtrip("SHUTDOWN"), "OK cmd=shutdown");
        primary.join();
        let promoted = f.roundtrip("PROMOTE");
        assert_eq!(promoted, "OK cmd=promote epoch=2 applied_seq=2");
        assert_eq!(
            f.roundtrip("PROMOTE"),
            "ERR cmd=promote already primary epoch=2"
        );
        // Mutations now apply locally instead of redirecting.
        let admit = f.roundtrip("ADMIT ring=ring stream=b period_ms=50 bits=200000");
        assert!(admit.contains("admitted=true"), "{admit}");
        let rep = f.roundtrip("REPLICATION");
        assert!(rep.contains("role=primary"), "{rep}");
        assert!(rep.contains("epoch=2"), "{rep}");
        assert!(rep.contains("promotions=1"), "{rep}");
        follower.join();
        let _ = std::fs::remove_dir_all(pd);
        let _ = std::fs::remove_dir_all(fd);
    }

    /// Spawns a server with arbitrary config tweaks on top of the test
    /// defaults (two workers, queue depth 8, ephemeral port).
    fn custom_server(mutate: impl FnOnce(&mut ServiceConfig)) -> ServerHandle {
        let mut config = ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_depth: 8,
            ..ServiceConfig::default()
        };
        mutate(&mut config);
        spawn(config).expect("spawn server")
    }

    #[test]
    fn event_front_roundtrips_inline_and_queued_requests() {
        // Two exec threads, so two loops.
        let server = custom_server(|c| c.exec_threads = Some(2));
        let mut c = Client::connect(server.addr());
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        let first = c.roundtrip("CHECK mbps=16 set=20,20000;50,60000");
        assert!(first.contains("schedulable=true"), "{first}");
        assert!(first.ends_with("cached=false"), "{first}");
        let second = c.roundtrip("CHECK mbps=16 set=50,60000;20,20000");
        assert!(second.ends_with("cached=true"), "{second}");
        // Registry mutations run inline on the loop.
        assert_eq!(
            c.roundtrip("REGISTER ring=ev protocol=fddi mbps=100 stations=8"),
            "OK cmd=register ring=ev protocol=fddi mbps=100 stations=8"
        );
        let admit = c.roundtrip("ADMIT ring=ev stream=a period_ms=20 bits=100000");
        assert!(admit.contains("admitted=true"), "{admit}");
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("connections_open=1"), "{stats}");
        assert!(stats.contains("loop_wakeups="), "{stats}");
        server.join();
    }

    #[test]
    fn event_front_pipelines_in_order() {
        let server = custom_server(|_| {});
        let mut c = Client::connect(server.addr());
        // Two queue-bound analyses and an inline PING in one write: the
        // replies must come back in submission order even though the
        // analyses overlap on the worker pool.
        c.writer
            .write_all(b"CHECK mbps=16 set=20,20000\nPING\nCHECK mbps=16 set=50,60000\n")
            .expect("send pipeline");
        let mut got = Vec::new();
        for _ in 0..3 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            got.push(r.trim_end().to_owned());
        }
        assert!(got[0].starts_with("OK cmd=check"), "{}", got[0]);
        assert_eq!(got[1], "OK cmd=ping");
        assert!(got[2].starts_with("OK cmd=check"), "{}", got[2]);
        server.join();
    }

    #[test]
    fn event_front_batch_is_one_entry_answered_in_order() {
        let server = custom_server(|_| {});
        let mut c = Client::connect(server.addr());
        c.writer
            .write_all(b"BATCH 3\nSLEEP ms=80\nPING\nCHECK mbps=16 set=20,20000\n")
            .expect("send batch");
        let mut got = Vec::new();
        for _ in 0..3 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            got.push(r.trim_end().to_owned());
        }
        assert_eq!(got[0], "OK cmd=sleep ms=80");
        assert_eq!(got[1], "OK cmd=ping");
        assert!(got[2].starts_with("OK cmd=check"), "{}", got[2]);
        // Nested framing is refused per-position.
        c.writer
            .write_all(b"BATCH 2\nBATCH 2\nPING\n")
            .expect("send nested");
        let mut got = Vec::new();
        for _ in 0..2 {
            let mut r = String::new();
            c.reader.read_line(&mut r).expect("recv");
            got.push(r.trim_end().to_owned());
        }
        assert_eq!(got[0], "ERR nested BATCH is not allowed");
        assert_eq!(got[1], "OK cmd=ping");
        server.join();
    }

    fn assert_sheds_past_max_conns(server: &ServerHandle) {
        let mut first = Client::connect(server.addr());
        assert_eq!(first.roundtrip("PING"), "OK cmd=ping");
        // The shed connection gets one definite BUSY line, then EOF.
        let shed = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(shed);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read BUSY line");
        assert_eq!(line.trim_end(), "BUSY max_conns=1");
        line.clear();
        let n = reader.read_line(&mut line).expect("read EOF");
        assert_eq!(n, 0, "shed connection must be closed, got {line:?}");
        // The stats record the shed and still count one open connection.
        drop(reader);
        std::thread::sleep(Duration::from_millis(50));
        let stats = first.roundtrip("STATS");
        assert!(stats.contains(" max_conns=1"), "{stats}");
        assert!(stats.contains("accept_shed=1"), "{stats}");
        assert!(stats.contains("connections_open=1"), "{stats}");
    }

    #[test]
    fn event_front_sheds_beyond_max_conns() {
        let server = custom_server(|c| c.max_conns = 1);
        assert_sheds_past_max_conns(&server);
        server.join();
    }

    fn assert_read_deadline_closes(server: &ServerHandle) {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        // A slow loris: bytes trickle in but the newline never comes.
        writer.write_all(b"CHE").expect("partial write");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read ERR line");
        assert_eq!(
            line.trim_end(),
            "ERR read deadline: partial line idle for 100 ms"
        );
        line.clear();
        let n = reader.read_line(&mut line).expect("read EOF");
        assert_eq!(n, 0, "stalled connection must be closed");
    }

    #[test]
    fn event_front_closes_partial_line_at_read_deadline() {
        let server = custom_server(|c| c.read_deadline_ms = 100);
        assert_read_deadline_closes(&server);
        let mut c = Client::connect(server.addr());
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("read_deadline_closed=1"), "{stats}");
        server.join();
    }

    #[test]
    fn event_front_closes_idle_connections() {
        let server = custom_server(|c| c.idle_timeout_ms = Some(100));
        let idle = TcpStream::connect(server.addr()).expect("connect");
        let mut reader = BufReader::new(idle);
        let mut line = String::new();
        // No request ever sent: the idle wheel reaps the connection.
        let n = reader.read_line(&mut line).expect("read EOF");
        assert_eq!(n, 0, "idle connection must be closed, got {line:?}");
        let mut c = Client::connect(server.addr());
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("idle_closed=1"), "{stats}");
        server.join();
    }

    fn assert_oversized_line_rejected(server: &ServerHandle) {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let blob = vec![b'A'; MAX_LINE_BYTES + 64];
        writer.write_all(&blob).expect("send oversized");
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("read ERR line");
        assert_eq!(
            line.trim_end(),
            format!("ERR line exceeds {MAX_LINE_BYTES} bytes")
        );
        line.clear();
        let n = reader.read_line(&mut line).expect("read EOF");
        assert_eq!(n, 0, "oversized-line connection must be closed");
    }

    #[test]
    fn event_front_rejects_oversized_lines() {
        let server = custom_server(|_| {});
        assert_oversized_line_rejected(&server);
        let mut c = Client::connect(server.addr());
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("oversized_rejected=1"), "{stats}");
        server.join();
    }

    #[test]
    fn sync_refuses_a_mismatched_cluster_identity() {
        let dir = temp_state_dir("cluster-mismatch");
        let server = spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_depth: 4,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .expect("spawn server");
        let mut c = Client::connect(server.addr());
        // The primary stamped its journal at boot; STATS exposes the id.
        let stats = c.roundtrip("STATS");
        let cluster: u64 = stats
            .split_whitespace()
            .find_map(|f| f.strip_prefix("cluster="))
            .expect("cluster= field in STATS")
            .parse()
            .expect("numeric cluster id");
        assert_ne!(cluster, 0, "primary must stamp a nonzero cluster id");
        // A requester whose journal carries a different identity is
        // replicating some other cluster's history: refuse to ship.
        let other = cluster ^ 1;
        assert_eq!(
            c.roundtrip(&format!("SYNC epoch=1 seq=1 cluster={other}")),
            format!("ERR cmd=sync cluster mismatch requester_cluster={other} cluster={cluster}")
        );
        // The connection survives the refusal.
        assert_eq!(c.roundtrip("PING"), "OK cmd=ping");
        // A fresh journal (cluster=0, also the pre-cluster wire default)
        // is allowed in and learns the identity from the header.
        let mut f = Client::connect(server.addr());
        let header = f.roundtrip("SYNC epoch=1 seq=1 cluster=0");
        assert!(header.starts_with("OK cmd=sync"), "{header}");
        assert!(header.contains(&format!("cluster={cluster}")), "{header}");
        drop(f);
        server.join();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn event_front_serves_sync_by_detaching_a_ship_thread() {
        let dir = temp_state_dir("event-sync");
        let server = spawn(ServiceConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 1,
            queue_depth: 4,
            state_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
        .expect("spawn server");
        let mut c = Client::connect(server.addr());
        c.roundtrip("REGISTER ring=s protocol=fddi mbps=100 stations=8");
        let mut f = Client::connect(server.addr());
        let header = f.roundtrip("SYNC epoch=1 seq=1");
        assert!(header.starts_with("OK cmd=sync epoch=1"), "{header}");
        assert!(header.contains("cluster="), "{header}");
        // The stream now ships the snapshot the registry journaled.
        let mut frame = String::new();
        f.reader.read_line(&mut frame).expect("first ship frame");
        assert!(frame.starts_with("SHIP"), "{frame}");
        drop(f);
        server.join();
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn deadline_expires_in_queue() {
        let server = test_server(1, 4);
        let addr = server.addr();
        let blocker = std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            c.roundtrip("SLEEP ms=300")
        });
        std::thread::sleep(Duration::from_millis(100));
        let mut c = Client::connect(addr);
        let resp = c.roundtrip("CHECK mbps=16 set=20,20000 deadline_ms=50");
        assert!(resp.starts_with("ERR deadline expired"), "{resp}");
        blocker.join().unwrap();
        let stats = c.roundtrip("STATS");
        assert!(stats.contains("deadline_expired=1"), "{stats}");
        server.join();
    }
}
