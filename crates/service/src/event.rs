//! The epoll event-loop connection front end: every client connection is
//! served here.
//!
//! Each loop owns a [`Poller`], a wakeup pipe, a bounded [`ConnTable`] of
//! nonblocking sockets, and a coarse [`IdleWheel`]; the acceptor
//! round-robins new sockets to the loops over an injection channel. The
//! loop parses newline-framed requests out of whatever byte fragments
//! arrive, answers cheap requests inline ([`handle_request`]), and submits
//! analysis work to the shared worker queue with a [`ReplyTo`] ticket;
//! workers push the finished text back over the loop's completion channel
//! and wake it through the pipe.
//!
//! # fd ownership
//!
//! A socket is owned by exactly one party at a time: the acceptor (between
//! `accept` and injection), then the loop's connection table, and — for a
//! connection that issues `SYNC` — a dedicated ship thread after the loop
//! deregisters the fd and flips it back to blocking. Closing is always by
//! drop of the owning [`TcpStream`]; the loop deregisters from epoll first
//! so a recycled fd number cannot surface stale readiness (and the
//! generation-stamped [`ConnTable`] tokens make any already-drained stale
//! event miss).
//!
//! # Ordering
//!
//! Pipelined requests on one connection are answered in arrival order: the
//! per-connection reply queue holds one entry per request (a `BATCH`
//! collapses to one entry, answered in one write), and only the *front*
//! entry may flush. A slow analysis therefore delays later replies on its
//! own connection while other connections proceed.
//!
//! # Shutdown
//!
//! On shutdown the acceptor stops injecting; the loop keeps pumping until
//! every connection has no reply in flight and no unflushed bytes, closing
//! each as it drains (workers drain the queue fully, so every awaited
//! completion arrives). Connections still waiting after
//! [`EXECUTION_GRACE`] are force-closed. The loop thread exits once its
//! table is empty; [`ServerHandle::wait`](crate::server::ServerHandle)
//! joins loops before workers so completions keep flowing during the
//! drain.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ringrt_net::{
    ConnTable, Event, IdleWheel, Interest, LineBuffer, Poller, Token, Waker, WriteBuffer,
};
use ringrt_registry::ShipSubscription;

use crate::metrics::Stage;
use crate::protocol::{CommandKind, MAX_LINE_BYTES};
use crate::server::{
    handle_request, record_completed, serve_ship, Completion, Handled, Parked, ReplyTo, Response,
    Shared, EXECUTION_GRACE, POLL_INTERVAL,
};

/// Reserved token for the wakeup pipe; connection tokens are
/// `(generation << 32) | index` and can never collide with it.
const WAKE_TOKEN: Token = Token(u64::MAX);
/// Read granularity per readiness event.
const READ_CHUNK: usize = 16 * 1024;
/// Reads taken per readable event before yielding to other connections;
/// level-triggered epoll re-reports anything left unread.
const MAX_READS_PER_EVENT: usize = 4;
/// Timer-wheel shape: 64 slots × 100 ms ≈ 6.4 s horizon; longer deadlines
/// surface early and re-arm (lazy revalidation).
const WHEEL_SLOTS: usize = 64;
const WHEEL_GRANULARITY: Duration = Duration::from_millis(100);
/// How far out a connection with no armed deadline is rescheduled for a
/// routine revalidation pass.
const RECHECK: Duration = Duration::from_secs(30);
/// Per-loop connection-table bound when `--max-conns` is unlimited.
const DEFAULT_TABLE_CAP: usize = 65_536;

/// One reply position: already renderable, or awaiting a worker.
enum Part {
    Ready(String),
    /// A cache hit: renderable, and owes no `respond` span (see
    /// [`Response::Hit`]).
    Hit(String),
    Waiting {
        slot: u64,
        command: CommandKind,
        started: Instant,
    },
}

impl Part {
    fn is_ready(&self) -> bool {
        !matches!(self, Part::Waiting { .. })
    }
}

/// One entry in a connection's in-order reply queue. A `BATCH` is a single
/// entry so its replies leave in one write.
enum Entry {
    /// One request's reply. `slow` holds the request's arrival instant and
    /// line, kept only while `--slow-ms` logging is on.
    Single {
        part: Part,
        slow: Option<(Instant, String)>,
    },
    Batch {
        parts: Vec<Part>,
        waiting: usize,
    },
}

/// A `BATCH n` whose `n` request lines have not all arrived yet.
struct BatchInProgress {
    expected: usize,
    parts: Vec<Part>,
    waiting: usize,
}

/// Per-connection state owned by one event loop.
struct Conn {
    stream: TcpStream,
    input: LineBuffer,
    out: WriteBuffer,
    queue: VecDeque<Entry>,
    batch: Option<BatchInProgress>,
    /// Next reply-slot id; completions match on `(token, slot)`.
    next_slot: u64,
    last_activity: Instant,
    /// When the currently buffered partial line started (slow-loris clock).
    partial_since: Option<Instant>,
    /// A `BATCH` position waiting for room in the worker queue. While set,
    /// the connection is not read and its buffered lines wait; no
    /// read-deadline clock runs, since no line is taken out to start it.
    parked: Option<Parked>,
    /// The readiness currently registered for the fd.
    interest: Interest,
    /// Whether the unflushed output holds a reply other than a cache hit,
    /// so its flush records a `respond` span.
    respond_owed: bool,
    /// Arrival instant and line of each written single request, logged
    /// against `--slow-ms` once the write buffer drains.
    slow: Vec<(Instant, String)>,
    /// Close once the queue and write buffer drain (`SHUTDOWN` reply,
    /// oversized line, pipelined-`SYNC` refusal).
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            input: LineBuffer::new(MAX_LINE_BYTES),
            out: WriteBuffer::new(),
            queue: VecDeque::new(),
            batch: None,
            next_slot: 0,
            last_activity: now,
            partial_since: None,
            parked: None,
            interest: Interest::READ,
            respond_owed: false,
            slow: Vec::new(),
            closing: false,
        }
    }

    /// Replies still owed by workers (queue entries plus the open batch).
    fn waiting_replies(&self) -> usize {
        let queued: usize = self
            .queue
            .iter()
            .map(|entry| match entry {
                Entry::Single { part, .. } => usize::from(!part.is_ready()),
                Entry::Batch { waiting, .. } => *waiting,
            })
            .sum();
        queued + self.batch.as_ref().map_or(0, |b| b.waiting)
    }

    /// Appends one ready reply to the write buffer.
    fn push_reply(&mut self, shared: &Shared, part: Part) {
        let text = match part {
            Part::Ready(text) => {
                self.respond_owed = true;
                text
            }
            Part::Hit(text) => text,
            Part::Waiting { .. } => unreachable!("only ready parts are written"),
        };
        shared.metrics.count_response(&text);
        self.out.push(text.as_bytes());
        self.out.push(b"\n");
    }
}

#[cfg(unix)]
fn raw_fd(stream: &TcpStream) -> i32 {
    std::os::unix::io::AsRawFd::as_raw_fd(stream)
}

#[cfg(not(unix))]
fn raw_fd(_stream: &TcpStream) -> i32 {
    // Unreachable in practice: Poller::new already failed with
    // `Unsupported` on non-unix targets, so no loop ever runs.
    -1
}

/// Handle for the acceptor to push a fresh socket to a loop.
pub(crate) struct Injector {
    tx: mpsc::Sender<TcpStream>,
    waker: Arc<Waker>,
}

impl Injector {
    /// Transfers the socket; `false` means the loop is gone (shutdown
    /// race) and the caller keeps ownership implicitly by the drop.
    pub(crate) fn send(&self, stream: TcpStream) -> bool {
        if self.tx.send(stream).is_err() {
            return false;
        }
        self.waker.wake();
        true
    }
}

/// One spawned event loop, joinable at shutdown.
pub(crate) struct LoopHandle {
    tx: mpsc::Sender<TcpStream>,
    waker: Arc<Waker>,
    thread: JoinHandle<()>,
}

impl LoopHandle {
    pub(crate) fn injector(&self) -> Injector {
        Injector {
            tx: self.tx.clone(),
            waker: Arc::clone(&self.waker),
        }
    }

    /// Nudges the loop (it may be parked in `epoll_wait`) and waits for it
    /// to drain its connections and exit.
    pub(crate) fn join(self) {
        self.waker.wake();
        let _ = self.thread.join();
    }
}

/// Creates `count` event loops. The epoll instance and wakeup pipe are
/// created on the caller's thread so an unsupported platform or fd
/// exhaustion surfaces as a bind-time error, not a dead loop.
pub(crate) fn spawn_loops(
    shared: &Arc<Shared>,
    count: usize,
    ship_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) -> std::io::Result<Vec<LoopHandle>> {
    // Best effort: the whole point of the loops is holding more sockets
    // than the default soft fd limit allows.
    let _ = ringrt_net::rlimit::raise_nofile_to_hard();
    let capacity = if shared.config.max_conns > 0 {
        shared.config.max_conns
    } else {
        DEFAULT_TABLE_CAP
    };
    let mut loops = Vec::with_capacity(count);
    for i in 0..count {
        let poller = Poller::new(1024)?;
        let waker = Arc::new(Waker::new()?);
        waker.register(&poller, WAKE_TOKEN)?;
        let (tx, inject_rx) = mpsc::channel();
        let (completion_tx, completion_rx) = mpsc::channel();
        let event_loop = EventLoop {
            shared: Arc::clone(shared),
            poller,
            waker: Arc::clone(&waker),
            inject_rx,
            completion_tx,
            completion_rx,
            table: ConnTable::new(capacity),
            parked: VecDeque::new(),
            wheel: IdleWheel::new(WHEEL_SLOTS, WHEEL_GRANULARITY, Instant::now()),
            ship_threads: Arc::clone(ship_threads),
        };
        let thread = std::thread::Builder::new()
            .name(format!("ringrt-loop-{i}"))
            .spawn(move || event_loop.run())?;
        loops.push(LoopHandle { tx, waker, thread });
    }
    Ok(loops)
}

struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    waker: Arc<Waker>,
    inject_rx: mpsc::Receiver<TcpStream>,
    completion_tx: mpsc::Sender<Completion>,
    completion_rx: mpsc::Receiver<Completion>,
    table: ConnTable<Conn>,
    /// Connections holding a parked batch position, oldest first.
    parked: VecDeque<Token>,
    wheel: IdleWheel,
    ship_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut due: Vec<u64> = Vec::new();
        let mut shutdown_since: Option<Instant> = None;
        loop {
            let n = self
                .poller
                .wait(&mut events, Some(POLL_INTERVAL))
                .unwrap_or(0);
            if n > 0 {
                let conns = &self.shared.metrics.conns;
                conns.loop_wakeups.fetch_add(1, Ordering::Relaxed);
                conns
                    .loop_ready_events
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            for event in &events {
                if event.token == WAKE_TOKEN {
                    self.waker.drain();
                } else {
                    self.handle_event(event);
                }
            }
            self.drain_completions();
            self.retry_parked();
            self.drain_injections();
            self.sweep_timers(&mut due);
            if self.shared.shutting_down() {
                let since = *shutdown_since.get_or_insert_with(Instant::now);
                self.drain_shutdown(since);
                if self.table.is_empty() {
                    // Late-race injections (acceptor mid-accept when the
                    // flag flipped) are dropped, not served.
                    while let Ok(stream) = self.inject_rx.try_recv() {
                        drop(stream);
                        self.shared
                            .metrics
                            .conns
                            .open
                            .fetch_sub(1, Ordering::Relaxed);
                    }
                    break;
                }
            }
        }
    }

    fn handle_event(&mut self, event: &Event) {
        let token = event.token;
        if event.readable || event.hangup {
            // A hangup still lets `read` drain buffered bytes and then
            // return 0/error, which is the close path.
            if !self.read_ready(token) {
                return;
            }
        }
        if event.writable {
            self.flush_out(token);
        }
    }

    /// Reads whatever is available (bounded per event), parses complete
    /// lines, and pumps replies. Returns `false` when the connection was
    /// closed.
    fn read_ready(&mut self, token: Token) -> bool {
        let mut buf = [0u8; READ_CHUNK];
        let now = Instant::now();
        let mut dead = false;
        {
            let Some(conn) = self.table.get_mut(token) else {
                return false;
            };
            for _ in 0..MAX_READS_PER_EVENT {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.last_activity = now;
                        conn.input.extend(&buf[..n]);
                        if n < READ_CHUNK {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.close(token);
            return false;
        }
        self.process_input(token)
    }

    /// Drains complete lines out of the input buffer, dispatching each.
    /// Returns `false` when the connection was closed.
    fn process_input(&mut self, token: Token) -> bool {
        loop {
            let line = {
                let Some(conn) = self.table.get_mut(token) else {
                    return false;
                };
                if conn.closing || conn.parked.is_some() {
                    // A closing connection's remaining input is dead; we
                    // only wait for the reply queue to flush. A parked
                    // one resumes once its job is queued.
                    break;
                }
                match conn.input.next_line() {
                    Ok(Some(line)) => {
                        conn.partial_since = None;
                        line
                    }
                    Ok(None) => {
                        if conn.input.has_partial() {
                            // The slow-loris clock starts when a partial
                            // line appears and resets on completion. Arm
                            // the wheel at the real deadline on the
                            // None→Some transition: the entry placed at
                            // accept time sits at the re-check horizon,
                            // far too late for a tight read deadline.
                            if conn.partial_since.is_none() {
                                let now = Instant::now();
                                conn.partial_since = Some(now);
                                let deadline = next_deadline(&self.shared, conn, now);
                                self.wheel.schedule(token.0, deadline);
                            }
                        } else {
                            conn.partial_since = None;
                        }
                        break;
                    }
                    Err(err) => {
                        self.shared
                            .metrics
                            .conns
                            .oversized_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        conn.queue.push_back(Entry::Single {
                            part: Part::Ready(format!("ERR line exceeds {} bytes", err.max)),
                            slow: None,
                        });
                        conn.closing = true;
                        break;
                    }
                }
            };
            self.process_line(token, &line);
        }
        self.pump(token)
    }

    /// Handles one complete request line for `token`.
    fn process_line(&mut self, token: Token, line: &str) {
        let line = line.trim_end();
        // The clock is only read, and the line only copied, when the slow
        // request log is on.
        let arrived = self.shared.config.slow_ms.map(|_| Instant::now());
        let (slot, in_batch) = {
            let Some(conn) = self.table.get_mut(token) else {
                return;
            };
            (conn.next_slot, conn.batch.is_some())
        };
        let reply = ReplyTo {
            tx: self.completion_tx.clone(),
            waker: Arc::clone(&self.waker),
            conn: token,
            slot,
        };
        let handled = handle_request(line, &self.shared, reply, in_batch);
        // A ship subscription takes over the socket entirely; handle it
        // before re-borrowing the connection.
        if !in_batch {
            if let Handled::Ready(Response::Ship(sub)) = handled {
                self.detach_for_ship(token, *sub);
                return;
            }
        }
        let Some(conn) = self.table.get_mut(token) else {
            return;
        };
        let part = match handled {
            Handled::Queued {
                command,
                started,
                parked,
            } => {
                if parked.is_some() {
                    conn.parked = parked;
                    self.parked.push_back(token);
                }
                conn.next_slot += 1;
                Part::Waiting {
                    slot,
                    command,
                    started,
                }
            }
            // One framing level is enough; nesting would let a client
            // demand unbounded buffering.
            Handled::Ready(Response::Batch(_)) if in_batch => {
                Part::Ready("ERR nested BATCH is not allowed".to_owned())
            }
            Handled::Ready(Response::Batch(expected)) => {
                conn.batch = Some(BatchInProgress {
                    expected: expected.max(1),
                    parts: Vec::with_capacity(expected.max(1)),
                    waiting: 0,
                });
                return;
            }
            // A ship stream cannot share a connection with framed replies.
            Handled::Ready(Response::Ship(_)) => {
                Part::Ready("ERR SYNC is not allowed inside BATCH".to_owned())
            }
            Handled::Ready(Response::Hit(text)) => Part::Hit(text),
            Handled::Ready(response) => {
                conn.closing |= matches!(response, Response::Close);
                Part::Ready(response.into_text())
            }
        };
        let Some(batch) = conn.batch.as_mut() else {
            let slow = arrived.map(|at| (at, line.to_owned()));
            conn.queue.push_back(Entry::Single { part, slow });
            return;
        };
        if !part.is_ready() {
            batch.waiting += 1;
        }
        batch.parts.push(part);
        if batch.parts.len() >= batch.expected {
            let done = conn.batch.take().expect("batch state present");
            conn.queue.push_back(Entry::Batch {
                parts: done.parts,
                waiting: done.waiting,
            });
        }
    }

    /// Hands the socket to a dedicated blocking ship thread (the `SYNC`
    /// path). Refused when replies are still pipelined ahead: the stream
    /// would interleave with framed responses.
    fn detach_for_ship(&mut self, token: Token, sub: ShipSubscription) {
        {
            let Some(conn) = self.table.get_mut(token) else {
                return;
            };
            if !conn.queue.is_empty() || !conn.out.is_empty() || conn.batch.is_some() {
                conn.queue.push_back(Entry::Single {
                    part: Part::Ready(
                        "ERR SYNC cannot be pipelined behind other requests".to_owned(),
                    ),
                    slow: None,
                });
                conn.closing = true;
                return;
            }
        }
        let Some(conn) = self.table.remove(token) else {
            return;
        };
        let _ = self.poller.deregister(raw_fd(&conn.stream));
        if conn.stream.set_nonblocking(false).is_err() {
            self.shared
                .metrics
                .conns
                .open
                .fetch_sub(1, Ordering::Relaxed);
            return;
        }
        let shared = Arc::clone(&self.shared);
        let spawned = std::thread::Builder::new()
            .name("ringrt-ship".to_owned())
            .spawn(move || {
                let mut conn = conn;
                serve_ship(&mut conn.stream, sub, &shared);
                // The ship thread owned the gauge slot from here on.
                shared.metrics.conns.open.fetch_sub(1, Ordering::Relaxed);
            });
        match spawned {
            Ok(handle) => self
                .ship_threads
                .lock()
                .expect("ship list poisoned")
                .push(handle),
            Err(_) => {
                self.shared
                    .metrics
                    .conns
                    .open
                    .fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Matches worker completions back to their waiting reply slots.
    fn drain_completions(&mut self) {
        while let Ok(completion) = self.completion_rx.try_recv() {
            let token = completion.conn;
            let Some(conn) = self.table.get_mut(token) else {
                // The connection closed while the job executed; the reply
                // has nowhere to go (generation-stamped token went stale).
                continue;
            };
            if fill_slot(&self.shared, conn, &completion) {
                self.pump(token);
            }
        }
    }

    /// Hands parked batch positions their queue slots, oldest first, and
    /// resumes reading each connection whose job got one. Stops at the
    /// first job that still finds the queue full; its retry registered
    /// this loop's waker, so a worker freeing a slot wakes the loop.
    fn retry_parked(&mut self) {
        while let Some(&token) = self.parked.front() {
            if let Some(conn) = self.table.get_mut(token) {
                if conn.parked.as_mut().is_some_and(|p| !p.retry()) {
                    break;
                }
                conn.parked = None;
            }
            self.parked.pop_front();
            self.process_input(token);
        }
    }

    /// Admits sockets the acceptor routed to this loop.
    fn drain_injections(&mut self) {
        let now = Instant::now();
        while let Ok(stream) = self.inject_rx.try_recv() {
            if self.shared.shutting_down() || stream.set_nonblocking(true).is_err() {
                self.shared
                    .metrics
                    .conns
                    .open
                    .fetch_sub(1, Ordering::Relaxed);
                continue;
            }
            match self.table.insert(Conn::new(stream, now)) {
                Ok(token) => {
                    let fd = {
                        let conn = self.table.get_mut(token).expect("just inserted");
                        raw_fd(&conn.stream)
                    };
                    if self.poller.register(fd, token, Interest::READ).is_err() {
                        self.table.remove(token);
                        self.shared
                            .metrics
                            .conns
                            .open
                            .fetch_sub(1, Ordering::Relaxed);
                        continue;
                    }
                    let deadline = {
                        let conn = self.table.get_mut(token).expect("just inserted");
                        next_deadline(&self.shared, conn, now)
                    };
                    self.wheel.schedule(token.0, deadline);
                }
                Err(mut conn) => {
                    // Per-loop table full: same contract as the accept
                    // guard — one definite BUSY line, then close.
                    let conns = &self.shared.metrics.conns;
                    conns.accept_shed.fetch_add(1, Ordering::Relaxed);
                    conns.open.fetch_sub(1, Ordering::Relaxed);
                    let _ = conn.stream.write_all(
                        format!("BUSY max_conns={}\n", self.table.capacity()).as_bytes(),
                    );
                }
            }
        }
    }

    /// Advances the timer wheel and revalidates every surfaced candidate:
    /// enforce the partial-line read deadline (slow loris) and the idle
    /// timeout, or lazily re-arm at the connection's true next deadline.
    fn sweep_timers(&mut self, due: &mut Vec<u64>) {
        enum Verdict {
            ReadDeadline(u64),
            Idle,
            Rearm(Instant),
        }
        let now = Instant::now();
        due.clear();
        self.wheel.advance(now, due);
        for &id in due.iter() {
            let token = Token(id);
            let verdict = {
                let Some(conn) = self.table.get_mut(token) else {
                    continue; // closed since scheduling: entry is stale
                };
                let rd = self.shared.config.read_deadline_ms;
                let read_expired = rd > 0
                    && conn
                        .partial_since
                        .is_some_and(|s| now.duration_since(s) >= Duration::from_millis(rd));
                let idle_expired = self.shared.config.idle_timeout_ms.is_some_and(|idle| {
                    now.duration_since(conn.last_activity) >= Duration::from_millis(idle)
                        && conn.waiting_replies() == 0
                        && conn.out.is_empty()
                        && conn.queue.is_empty()
                });
                if read_expired {
                    Verdict::ReadDeadline(rd)
                } else if idle_expired {
                    Verdict::Idle
                } else {
                    Verdict::Rearm(next_deadline(&self.shared, conn, now))
                }
            };
            match verdict {
                Verdict::ReadDeadline(rd) => {
                    self.shared
                        .metrics
                        .conns
                        .read_deadline_closed
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(conn) = self.table.get_mut(token) {
                        let _ = conn.stream.write_all(
                            format!("ERR read deadline: partial line idle for {rd} ms\n")
                                .as_bytes(),
                        );
                    }
                    self.close(token);
                }
                Verdict::Idle => {
                    self.shared
                        .metrics
                        .conns
                        .idle_closed
                        .fetch_add(1, Ordering::Relaxed);
                    self.close(token);
                }
                Verdict::Rearm(deadline) => self.wheel.schedule(id, deadline),
            }
        }
    }

    /// Serializes fully ready front-of-queue entries into the write buffer
    /// and flushes. Returns `false` when the connection was closed.
    fn pump(&mut self, token: Token) -> bool {
        {
            let Some(conn) = self.table.get_mut(token) else {
                return false;
            };
            loop {
                let ready = match conn.queue.front() {
                    Some(Entry::Single { part, .. }) => part.is_ready(),
                    Some(Entry::Batch { waiting, .. }) => *waiting == 0,
                    None => false,
                };
                if !ready {
                    break;
                }
                match conn.queue.pop_front() {
                    Some(Entry::Single { part, slow }) => {
                        conn.push_reply(&self.shared, part);
                        conn.slow.extend(slow);
                    }
                    Some(Entry::Batch { parts, .. }) => {
                        for part in parts {
                            conn.push_reply(&self.shared, part);
                        }
                    }
                    None => unreachable!("front checked ready above"),
                }
            }
        }
        self.flush_out(token)
    }

    /// Flushes buffered response bytes, logs requests slower than
    /// `--slow-ms` once their replies are fully written, and keeps the
    /// poller interest in sync (readable unless a job is parked, writable
    /// only while bytes are pending). Returns `false` when the connection
    /// was closed.
    fn flush_out(&mut self, token: Token) -> bool {
        let (drained, failed) = {
            let Some(conn) = self.table.get_mut(token) else {
                return false;
            };
            if conn.out.is_empty() {
                (true, false)
            } else {
                // A flush of nothing but cache hits skips the span: one
                // sampled `hit` span already covers parse→reply, and a span
                // per hit would dominate the ~µs fast path.
                let respond_span = conn
                    .respond_owed
                    .then(|| self.shared.recorder.span("request", "respond"));
                let result = conn.out.flush_to(&mut conn.stream);
                if let Some(span) = respond_span {
                    self.shared
                        .metrics
                        .record_stage(Stage::Respond, span.finish());
                }
                match result {
                    Ok(flushed) => {
                        conn.respond_owed &= !flushed;
                        (flushed, false)
                    }
                    Err(_) => (false, true),
                }
            }
        };
        if failed {
            self.close(token);
            return false;
        }
        let mut reregister_failed = false;
        let mut done_closing = false;
        if let Some(conn) = self.table.get_mut(token) {
            if drained {
                log_slow(&self.shared, &mut conn.slow);
            }
            done_closing = drained && conn.closing && conn.queue.is_empty() && conn.batch.is_none();
            let interest = Interest {
                readable: conn.parked.is_none(),
                writable: !drained,
            };
            if conn.interest != interest && !done_closing {
                let fd = raw_fd(&conn.stream);
                if self.poller.reregister(fd, token, interest).is_ok() {
                    conn.interest = interest;
                } else {
                    reregister_failed = true;
                }
            }
        }
        if reregister_failed || done_closing {
            self.close(token);
            return false;
        }
        true
    }

    /// During shutdown: pump what is ready, close every connection that no
    /// longer owes or holds anything, and force-close stragglers once the
    /// execution grace expires.
    fn drain_shutdown(&mut self, since: Instant) {
        let force = since.elapsed() >= EXECUTION_GRACE;
        for token in self.table.tokens() {
            if !self.pump(token) {
                continue; // closed during the pump
            }
            let done = {
                let Some(conn) = self.table.get_mut(token) else {
                    continue;
                };
                force || (conn.waiting_replies() == 0 && conn.out.is_empty())
            };
            if done {
                self.close(token);
            }
        }
    }

    /// Tears a connection down: out of epoll, out of the table (bumping
    /// the slot generation so stale events and completions miss), gauge
    /// decremented, fd closed by drop.
    fn close(&mut self, token: Token) {
        if let Some(conn) = self.table.remove(token) {
            let _ = self.poller.deregister(raw_fd(&conn.stream));
            self.shared
                .metrics
                .conns
                .open
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Logs each written request that took at least `--slow-ms` from arrival
/// to the drain of its reply.
fn log_slow(shared: &Shared, slow: &mut Vec<(Instant, String)>) {
    let Some(limit_ms) = shared.config.slow_ms else {
        return;
    };
    for (arrived, request) in slow.drain(..) {
        let elapsed = arrived.elapsed();
        if elapsed >= Duration::from_millis(limit_ms) {
            eprintln!(
                "ringrt-service: slow request ({} ms >= {limit_ms} ms): {request}",
                elapsed.as_millis()
            );
        }
    }
}

/// The earliest instant at which `conn` needs revalidation: its partial-
/// line read deadline, its idle deadline, or a routine recheck.
fn next_deadline(shared: &Arc<Shared>, conn: &Conn, now: Instant) -> Instant {
    let mut deadline = now + RECHECK;
    if let Some(idle_ms) = shared.config.idle_timeout_ms {
        deadline = deadline.min(conn.last_activity + Duration::from_millis(idle_ms));
    }
    let rd = shared.config.read_deadline_ms;
    if rd > 0 {
        if let Some(since) = conn.partial_since {
            deadline = deadline.min(since + Duration::from_millis(rd));
        }
    }
    deadline
}

/// Finds the waiting reply slot a completion belongs to, records its
/// latency, and fills it in. `false` means the slot was not found (stale
/// completion for a recycled connection slot — dropped).
fn fill_slot(shared: &Arc<Shared>, conn: &mut Conn, completion: &Completion) -> bool {
    for entry in &mut conn.queue {
        match entry {
            Entry::Single { part, .. } => {
                if try_fill(shared, part, completion) {
                    return true;
                }
            }
            Entry::Batch { parts, waiting } => {
                for part in parts.iter_mut() {
                    if try_fill(shared, part, completion) {
                        *waiting -= 1;
                        return true;
                    }
                }
            }
        }
    }
    if let Some(batch) = conn.batch.as_mut() {
        for part in batch.parts.iter_mut() {
            if try_fill(shared, part, completion) {
                batch.waiting -= 1;
                return true;
            }
        }
    }
    false
}

fn try_fill(shared: &Arc<Shared>, part: &mut Part, completion: &Completion) -> bool {
    let Part::Waiting {
        slot,
        command,
        started,
    } = part
    else {
        return false;
    };
    if *slot != completion.slot {
        return false;
    }
    record_completed(shared, *command, *started, &completion.text);
    *part = Part::Ready(completion.text.clone());
    true
}
