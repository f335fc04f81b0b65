//! The compile server: a threaded TCP accept loop and a pool of workers
//! popping ONE bounded job queue, over ONE shared incremental
//! [`Engine`].
//!
//! ```text
//!            ┌── connection thread ──┐   push    ┌─ queue ─┐  pop  ┌ worker 0 ┐
//! accept ──▶ │ read line → parse →   ├──────────▶│ I: ▒▒▒  │──────▶│   ...    │──▶ engine
//!            │ wait (recv_timeout) ◀─┤ or refuse │ B: ▒▒▒▒ │       └ worker N ┘   (shared)
//!            └───────────────────────┘           └─────────┘
//! ```
//!
//! Every worker is equally warm for every request — the cache lives in
//! the engine, not in the worker — so there is nothing to route by: a
//! job goes to whichever worker is free next. What the queue
//! guarantees:
//!
//! * **Priority** — two lanes (`"priority"` request field, interactive
//!   by default); an interactive job always dequeues before any batch
//!   job, so bulk traffic cannot push editor round-trips past their
//!   deadlines.
//! * **Per-client fairness** — a worker avoids serving the same
//!   connection twice in a row when another client's job waits within
//!   the first four of a lane, so one chatty connection cannot starve
//!   its neighbours.
//! * **Exact backpressure** — at most `queue_capacity` jobs wait; the
//!   test and the enqueue are one critical section, so no number of
//!   racing connections overshoots it. Past it requests answer
//!   `overloaded` immediately ([`crate::protocol::kind::OVERLOADED`]).
//! * **Drain on shutdown** — a `shutdown` request or SIGINT stops the
//!   accept loop; workers keep popping until the queue is empty, then
//!   every thread joins and `run` returns `Ok(())`.
//!
//! Around it, per request and per connection:
//!
//! * **Deadlines** — the connection thread waits for the worker's reply
//!   with `recv_timeout`; past the deadline the client gets a `timeout`
//!   response and the connection moves on. Workers additionally drop
//!   jobs that are already expired at dequeue.
//! * **Isolation** — a malformed line gets a `bad_request` reply and the
//!   connection survives; a panicking pipeline is caught per-job
//!   (`catch_unwind`) and answered as an `error`.
//! * **Idle reaping** — connections that complete no request within the
//!   idle window are closed, whether they send nothing or a line that
//!   never ends.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use silc_incr::ops::{self, Outcome};
use silc_incr::{default_parallelism, Engine, EngineConfig, JobStats};
use silc_trace::{names, Tracer};

use crate::json::Json;
use crate::protocol::{
    err_response, kind, ok_response, parse_request, Envelope, Priority, Request,
};

/// How often blocked loops wake to check the stop flag, in milliseconds.
const POLL_MS: u64 = 25;
/// How many queued jobs the fairness pop scans for another client.
const FAIRNESS_SCAN: usize = 4;
/// Longest request line accepted, in bytes. A client that sends more
/// without a newline is answered `bad_request` and disconnected, so a
/// connection can hold at most this much of the server's memory.
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// Server tuning knobs. `Default` is production-shaped; tests shrink the
/// queue and deadlines to force each failure mode deterministically.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads computing pipeline requests.
    pub jobs: usize,
    /// Bound on queued (not yet running) jobs; past it requests answer
    /// `overloaded`.
    pub queue_capacity: usize,
    /// Default per-request deadline when the request names none.
    pub default_deadline_ms: u64,
    /// Connections with no completed request for this long are closed.
    pub idle_timeout_ms: u64,
    /// Persistent cache directory for the shared engine.
    pub cache_dir: Option<PathBuf>,
    /// Total memory-tier entry budget for the engine.
    pub mem_entries: usize,
    /// Trace destination; `serve.*` counters and pipeline spans land
    /// here.
    pub tracer: Tracer,
    /// Accept the test-only `sleep` op. Never set by the CLI; protocol
    /// tests use it to hold workers for a known duration.
    pub enable_test_ops: bool,
}

impl ServerConfig {
    /// The production shape for `jobs` workers: room for four waiting
    /// jobs per worker.
    pub fn for_jobs(jobs: usize) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs,
            queue_capacity: jobs * 4,
            default_deadline_ms: 30_000,
            idle_timeout_ms: 60_000,
            cache_dir: None,
            mem_entries: EngineConfig::default().mem_entries,
            tracer: Tracer::disabled(),
            enable_test_ops: false,
        }
    }
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig::for_jobs(default_parallelism())
    }
}

/// Monotonic server counters, readable at any time via the `stats` op.
#[derive(Debug, Default)]
struct ServeStats {
    accepted: AtomicU64,
    requests: AtomicU64,
    timeouts: AtomicU64,
    rejected: AtomicU64,
    bad_requests: AtomicU64,
    busy_workers: AtomicU64,
    lane_interactive: AtomicU64,
    lane_batch: AtomicU64,
}

/// State shared by the accept loop, connection threads and workers.
struct Shared {
    engine: Engine,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    stats: ServeStats,
}

impl Shared {
    fn should_stop(&self) -> bool {
        self.stop.load(Ordering::SeqCst) || sigint_seen()
    }
}

/// One enqueued compute request. The reply channel carries the fully
/// rendered response line; if the waiter gave up (deadline), the send
/// fails silently and the result is discarded.
struct Job {
    envelope: Envelope,
    deadline: Instant,
    reply: SyncSender<String>,
    /// Originating connection, for per-client fairness.
    conn: u64,
}

/// The two job lanes. Interactive always dequeues before batch.
#[derive(Default)]
struct Lanes {
    interactive: VecDeque<Job>,
    batch: VecDeque<Job>,
}

impl Lanes {
    fn len(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    /// Interactive first, avoiding `last_conn` when another client's job
    /// waits within the fairness scan window.
    fn pop(&mut self, last_conn: Option<u64>) -> Option<Job> {
        Self::pop_lane(&mut self.interactive, last_conn)
            .or_else(|| Self::pop_lane(&mut self.batch, last_conn))
    }

    fn pop_lane(lane: &mut VecDeque<Job>, last_conn: Option<u64>) -> Option<Job> {
        if let Some(last) = last_conn {
            let scan = lane.len().min(FAIRNESS_SCAN);
            if let Some(pos) = lane.iter().take(scan).position(|j| j.conn != last) {
                return lane.remove(pos);
            }
        }
        lane.pop_front()
    }
}

/// The scheduler: one bounded two-lane queue that every worker pops.
struct Queue {
    lanes: Mutex<Lanes>,
    wake: Condvar,
    capacity: usize,
}

impl Queue {
    fn new(capacity: usize) -> Queue {
        Queue {
            lanes: Mutex::default(),
            wake: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn len(&self) -> usize {
        self.lanes.lock().expect("job queue").len()
    }

    /// Enqueues `job` on its priority's lane and returns the depth it
    /// brought the queue to, or drops it and returns `None` when the
    /// queue is full. One critical section tests and pushes, so the
    /// bound is exact however many connections race.
    fn push(&self, job: Job) -> Option<u64> {
        let mut lanes = self.lanes.lock().expect("job queue");
        if lanes.len() >= self.capacity {
            return None;
        }
        match job.envelope.priority {
            Priority::Interactive => lanes.interactive.push_back(job),
            Priority::Batch => lanes.batch.push_back(job),
        }
        let depth = lanes.len() as u64;
        drop(lanes);
        self.wake.notify_one();
        Some(depth)
    }

    /// Blocks until a job can be claimed. `None` once `stopping()` holds
    /// and nothing waits: workers drain the queue, then exit.
    fn pop(&self, last_conn: Option<u64>, stopping: impl Fn() -> bool) -> Option<Job> {
        let mut lanes = self.lanes.lock().expect("job queue");
        loop {
            if let Some(job) = lanes.pop(last_conn) {
                return Some(job);
            }
            if stopping() {
                return None;
            }
            // SIGINT sets a flag and signals nobody; the tick finds it.
            let tick = Duration::from_millis(POLL_MS * 2);
            lanes = self.wake.wait_timeout(lanes, tick).expect("job queue").0;
        }
    }
}

/// Requests shutdown from outside [`Server::run`] — tests use this where
/// a client would send `{"op":"shutdown"}` and a terminal sends SIGINT.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    stop: Arc<AtomicBool>,
}

impl ShutdownHandle {
    /// Begins a graceful shutdown: stop accepting, drain, join, return.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// A bound compile server. [`bind`](Server::bind) then
/// [`run`](Server::run); `run` blocks until shutdown.
pub struct Server {
    listener: TcpListener,
    shared: Shared,
}

impl Server {
    /// Binds the listen socket and opens the shared engine (creating
    /// the cache directory when configured).
    ///
    /// # Errors
    ///
    /// Bind or cache-directory failures, rendered to strings.
    pub fn bind(config: ServerConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind `{}`: {e}", config.addr))?;
        let engine = Engine::new(EngineConfig {
            cache_dir: config.cache_dir.clone(),
            tracer: config.tracer.clone(),
            mem_entries: config.mem_entries,
        })?;
        Ok(Server {
            listener,
            shared: Shared {
                engine,
                config,
                stop: Arc::new(AtomicBool::new(false)),
                stats: ServeStats::default(),
            },
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    ///
    /// # Errors
    ///
    /// The socket's own error, rendered to a string.
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))
    }

    /// A handle that triggers graceful shutdown from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            stop: Arc::clone(&self.shared.stop),
        }
    }

    /// Serves until shutdown (a `shutdown` request, a
    /// [`ShutdownHandle`], or SIGINT when the handler is installed),
    /// then drains in-flight jobs and joins every thread.
    ///
    /// # Errors
    ///
    /// Only setup failures (making the listener non-blocking); per-
    /// connection and per-request failures are answered on the wire,
    /// never returned.
    pub fn run(self) -> Result<(), String> {
        let Server { listener, shared } = self;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot poll the listener: {e}"))?;
        let queue = Queue::new(shared.config.queue_capacity);
        let shared = &shared;
        let queue = &queue;
        std::thread::scope(|scope| {
            for _ in 0..shared.config.jobs.max(1) {
                scope.spawn(move || worker_loop(shared, queue));
            }
            while !shared.should_stop() {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let conn = shared.stats.accepted.fetch_add(1, Ordering::SeqCst);
                        shared.config.tracer.add(names::SERVE_ACCEPT, 1);
                        scope.spawn(move || serve_connection(shared, queue, stream, conn));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(POLL_MS));
                    }
                    Err(e) => {
                        // Transient accept failures (e.g. EMFILE) are
                        // logged, not fatal: existing clients keep
                        // their service.
                        eprintln!("silc serve: accept failed: {e}");
                        std::thread::sleep(Duration::from_millis(POLL_MS));
                    }
                }
            }
            // Leaving the scope joins workers (which drain the queue)
            // and connection threads (which finish their in-flight
            // request, then notice the stop flag on the next read tick).
        });
        Ok(())
    }
}

/// One worker: claim, run, reply, repeat — until shutdown *and* an
/// empty queue.
fn worker_loop(shared: &Shared, queue: &Queue) {
    let mut last_conn = None;
    while let Some(job) = queue.pop(last_conn, || shared.should_stop()) {
        if Instant::now() >= job.deadline {
            // The waiter has already answered `timeout`; don't burn a
            // worker on a result nobody will read.
            continue;
        }
        shared.stats.busy_workers.fetch_add(1, Ordering::SeqCst);
        let response = run_job(shared, &job);
        shared.stats.busy_workers.fetch_sub(1, Ordering::SeqCst);
        // Fails iff the waiter timed out meanwhile; discard.
        let _ = job.reply.send(response);
        last_conn = Some(job.conn);
    }
}

/// Executes one job with panic isolation and renders the response line.
fn run_job(shared: &Shared, job: &Job) -> String {
    let id = &job.envelope.id;
    let op = job.envelope.request.op();
    match catch_unwind(AssertUnwindSafe(|| {
        execute(shared, &job.envelope.request, job.deadline)
    })) {
        Ok(Ok(fields)) => ok_response(id, op, fields),
        Ok(Err(detail)) => err_response(id, kind::ERROR, &detail),
        Err(_) => err_response(id, kind::ERROR, &format!("internal panic in `{op}`")),
    }
}

/// Runs one compute op through [`ops::run`] against the shared engine
/// and renders its reply fields. Field order is fixed so responses are
/// byte-stable across runs.
fn execute(
    shared: &Shared,
    request: &Request,
    deadline: Instant,
) -> Result<Vec<(String, Json)>, String> {
    let mut stats = JobStats::default();
    let int = |value: u64| Json::Int(i128::from(value));
    let text = |value: &str| Json::Str(value.to_string());
    let mut fields = match request.to_op() {
        Some((op, source, against)) => {
            let engine = &shared.engine;
            match ops::run(engine, &op, source, against, &mut stats)? {
                Outcome::Compile(out) => {
                    // Mirror the CLI: violations fail the request and
                    // withhold CIF (`no_drc` skips the check entirely).
                    out.gate()?;
                    let (w, h) = out.die.bbox.map_or((0, 0), |b| (b.width(), b.height()));
                    let die = [w, h].map(|side| Json::Int(i128::from(side)));
                    let mut fields = vec![
                        ("cells", int(out.design.library.len() as u64)),
                        ("flat_elements", int(out.die.flat_elements)),
                        ("die", Json::Arr(die.to_vec())),
                    ];
                    if let Some(ex) = &out.extract {
                        let counts = [("transistors", ex.transistors), ("nets", ex.nets)];
                        let counts = counts.map(|(name, n)| (name.to_string(), int(n)));
                        fields.push(("extract", Json::Obj(counts.to_vec())));
                    }
                    fields.push(("cif", text(out.cif.as_ref().map_or("", |c| c.as_str()))));
                    fields
                }
                Outcome::Sim { machine, sim } => {
                    let render = |pairs: &[(String, u64)]| {
                        Json::Obj(pairs.iter().map(|(n, v)| (n.clone(), int(*v))).collect())
                    };
                    vec![
                        ("machine", Json::Str(machine)),
                        ("cycles", int(sim.cycles)),
                        ("halted", Json::Bool(sim.halted)),
                        ("state", text(&sim.state)),
                        ("regs", render(&sim.regs)),
                        ("outputs", render(&sim.outputs)),
                    ]
                }
                Outcome::Drc(report) => vec![
                    ("violations", int(report.violations.len() as u64)),
                    ("clean", Json::Bool(report.is_clean())),
                    ("report", text(&report.to_string())),
                ],
                Outcome::Pnr(out) => vec![
                    ("cells", int(out.cells)),
                    ("nets", int(out.nets)),
                    ("routed", int(out.routed)),
                    ("wirelength", int(out.wirelength)),
                    ("vias", int(out.vias)),
                    ("rounds", int(out.rounds)),
                    ("lvs_ok", Json::Bool(out.lvs_ok)),
                    ("cif", text(&out.cif)),
                ],
                // Either verdict is data here, not a failure.
                Outcome::Verify(snap) => vec![
                    ("check", text(&snap.check)),
                    ("equivalent", Json::Bool(snap.equivalent)),
                    ("outputs", int(snap.outputs)),
                    ("strash_merged", int(snap.strash_merged)),
                    ("sim_refuted", int(snap.sim_refuted)),
                    ("exact_decided", int(snap.exact_decided)),
                    (
                        "mismatches",
                        Json::Arr(snap.mismatches.iter().map(|m| text(m)).collect()),
                    ),
                ],
                Outcome::Synth(_) | Outcome::Pla(_) => {
                    return Err(format!("`{}` is not a served op", op.verb.name()))
                }
            }
        }
        None => {
            let Request::Sleep { ms } = request else {
                unreachable!("control ops are answered on the connection thread")
            };
            // Sleep in short slices so shutdown drains fast and an
            // expired deadline frees the worker early.
            let end = Instant::now() + Duration::from_millis(*ms);
            loop {
                let now = Instant::now();
                if now >= end || shared.should_stop() {
                    break;
                }
                if now >= deadline {
                    return Err(format!("slept past the {ms}ms deadline"));
                }
                std::thread::sleep((end - now).min(Duration::from_millis(5)));
            }
            vec![("slept_ms", int(*ms))]
        }
    };
    fields.push(("cache_hits", int(stats.hits)));
    fields.push(("cache_misses", int(stats.misses)));
    Ok(fields
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect())
}

/// Services one client: read a line, answer it, repeat. Socket reads
/// tick every [`POLL_MS`]·4 and the loop makes at most one per turn, so
/// it notices shutdown and idle expiry without a dedicated reaper
/// thread — from a silent client and from one dribbling a line that
/// never ends alike.
fn serve_connection(shared: &Shared, queue: &Queue, stream: TcpStream, conn: u64) {
    let Ok(reader_half) = stream.try_clone() else {
        return;
    };
    if stream
        .set_read_timeout(Some(Duration::from_millis(POLL_MS * 4)))
        .is_err()
    {
        return;
    }
    let mut reader = BufReader::new(reader_half);
    let mut writer = stream;
    let idle_budget = Duration::from_millis(shared.config.idle_timeout_ms.max(1));
    let mut last_done = Instant::now();
    // Bytes, not a `String`: a read tick may split a UTF-8 sequence.
    let mut line = Vec::new();
    loop {
        if shared.should_stop() || last_done.elapsed() > idle_budget {
            return;
        }
        // A request split across packets accumulates in `line` across
        // turns — up to the cap, overshot by one read buffer at most.
        let (used, closed) = match reader.fill_buf() {
            Ok(mut buffered) => {
                let closed = buffered.is_empty();
                // Reading from a slice cannot fail.
                (buffered.read_until(b'\n', &mut line).unwrap_or(0), closed)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => return,
        };
        reader.consume(used);
        if line.len() > MAX_REQUEST_BYTES {
            let detail = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
            refuse_line(shared, &mut writer, &detail);
            return;
        }
        // A last line may end at the client's close instead of a newline.
        if line.last() == Some(&b'\n') || (closed && !line.is_empty()) {
            let Ok(text) = std::str::from_utf8(&line) else {
                return;
            };
            let keep_open = answer_line(shared, queue, &mut writer, text.trim(), conn);
            line.clear();
            last_done = Instant::now();
            if !keep_open {
                return;
            }
        }
        if closed {
            return;
        }
    }
}

/// Counts one request that was no request and says why.
fn refuse_line(shared: &Shared, writer: &mut TcpStream, detail: &str) -> bool {
    shared.stats.requests.fetch_add(1, Ordering::SeqCst);
    shared.config.tracer.add(names::SERVE_REQUESTS, 1);
    shared.stats.bad_requests.fetch_add(1, Ordering::SeqCst);
    shared.config.tracer.add(names::SERVE_BAD_REQUEST, 1);
    respond(writer, &err_response(&None, kind::BAD_REQUEST, detail))
}

/// Parses and answers one request line. Returns `false` when the
/// connection should close (after a `shutdown` acknowledgement).
fn answer_line(
    shared: &Shared,
    queue: &Queue,
    writer: &mut TcpStream,
    line: &str,
    conn: u64,
) -> bool {
    if line.is_empty() {
        return true; // blank keep-alive lines are not requests
    }
    let envelope = match parse_request(line, shared.config.enable_test_ops) {
        Ok(envelope) => envelope,
        Err(detail) => return refuse_line(shared, writer, &detail),
    };
    shared.stats.requests.fetch_add(1, Ordering::SeqCst);
    shared.config.tracer.add(names::SERVE_REQUESTS, 1);
    match &envelope.request {
        Request::Stats => respond(
            writer,
            &ok_response(&envelope.id, "stats", stats_fields(shared, queue)),
        ),
        Request::Shutdown => {
            // Acknowledge first so the requester sees the reply even
            // though everything is about to wind down.
            let _ = respond(writer, &ok_response(&envelope.id, "shutdown", Vec::new()));
            shared.stop.store(true, Ordering::SeqCst);
            false
        }
        _ => {
            dispatch_compute(shared, queue, writer, envelope, conn);
            true
        }
    }
}

/// Enqueues a compute request and waits for its reply or deadline.
fn dispatch_compute(
    shared: &Shared,
    queue: &Queue,
    writer: &mut TcpStream,
    envelope: Envelope,
    conn: u64,
) {
    let budget = Duration::from_millis(
        envelope
            .deadline_ms
            .unwrap_or(shared.config.default_deadline_ms)
            .max(1),
    );
    let deadline = Instant::now() + budget;
    let (reply_tx, reply_rx) = mpsc::sync_channel::<String>(1);
    let id = envelope.id.clone();
    let (stats, tracer) = (&shared.stats, &shared.config.tracer);
    let (lane, lane_name) = match envelope.priority {
        Priority::Interactive => (&stats.lane_interactive, names::SERVE_LANE_INTERACTIVE),
        Priority::Batch => (&stats.lane_batch, names::SERVE_LANE_BATCH),
    };
    let job = Job {
        envelope,
        deadline,
        reply: reply_tx,
        conn,
    };
    let Some(depth) = queue.push(job) else {
        stats.rejected.fetch_add(1, Ordering::SeqCst);
        tracer.add(names::SERVE_REJECTED, 1);
        let detail = "compute queue is full; retry later";
        respond(writer, &err_response(&id, kind::OVERLOADED, detail));
        return;
    };
    tracer.gauge_max(names::SERVE_QUEUE_DEPTH, depth);
    lane.fetch_add(1, Ordering::SeqCst);
    tracer.add(lane_name, 1);
    match reply_rx.recv_timeout(budget) {
        Ok(response) => {
            respond(writer, &response);
        }
        // `Disconnected` means a worker discarded the expired job
        // before computing — the same client-visible fact.
        Err(_) => {
            stats.timeouts.fetch_add(1, Ordering::SeqCst);
            tracer.add(names::SERVE_TIMEOUT, 1);
            let detail = format!("no result within {}ms", budget.as_millis());
            respond(writer, &err_response(&id, kind::TIMEOUT, &detail));
        }
    }
}

/// The `stats` response body, in a fixed field order.
fn stats_fields(shared: &Shared, queue: &Queue) -> Vec<(String, Json)> {
    let count = |a: &AtomicU64| Json::Int(a.load(Ordering::SeqCst) as i128);
    let s = &shared.stats;
    vec![
        ("accepted".into(), count(&s.accepted)),
        ("requests".into(), count(&s.requests)),
        ("timeouts".into(), count(&s.timeouts)),
        ("rejected".into(), count(&s.rejected)),
        ("bad_requests".into(), count(&s.bad_requests)),
        ("busy_workers".into(), count(&s.busy_workers)),
        ("queue_depth".into(), Json::Int(queue.len() as i128)),
        // Nothing steals or routes any more; `ledger/src/probes.rs` fails
        // on a missing field, so a benchmark-only PR removes these two.
        ("stolen".into(), Json::Int(0)),
        ("affinity_hits".into(), Json::Int(0)),
        ("interactive".into(), count(&s.lane_interactive)),
        ("batch".into(), count(&s.lane_batch)),
        (
            "workers".into(),
            Json::Int(shared.config.jobs.max(1) as i128),
        ),
        (
            "queue_capacity".into(),
            Json::Int(shared.config.queue_capacity.max(1) as i128),
        ),
        (
            "mem_entries".into(),
            Json::Int(shared.engine.mem_entries() as i128),
        ),
        (
            "persistent_cache".into(),
            Json::Bool(shared.engine.is_persistent()),
        ),
    ]
}

/// Writes one response line; `false` (drop the connection) on I/O error.
fn respond(writer: &mut TcpStream, response: &str) -> bool {
    let mut payload = response.to_string();
    payload.push('\n');
    writer.write_all(payload.as_bytes()).is_ok() && writer.flush().is_ok()
}

// ---------------------------------------------------------------------
// SIGINT: a self-installed handler setting one global flag, polled by
// every server loop. Hand-declared because the workspace vendors no
// `libc` and `std` exposes no signal API.

static SIGINT_SEEN: AtomicBool = AtomicBool::new(false);

fn sigint_seen() -> bool {
    SIGINT_SEEN.load(Ordering::SeqCst)
}

#[cfg(unix)]
extern "C" fn on_sigint(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    SIGINT_SEEN.store(true, Ordering::SeqCst);
}

/// Routes SIGINT to a graceful shutdown of every [`Server::run`] loop in
/// this process. Call once, before `run`. No-op on non-Unix targets.
#[cfg(unix)]
pub fn install_sigint_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    unsafe {
        signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
    }
}

/// Routes SIGINT to a graceful shutdown of every [`Server::run`] loop in
/// this process. Call once, before `run`. No-op on non-Unix targets.
#[cfg(not(unix))]
pub fn install_sigint_handler() {}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> ServerConfig {
        ServerConfig {
            jobs: 2,
            queue_capacity: 2,
            default_deadline_ms: 5_000,
            idle_timeout_ms: 5_000,
            enable_test_ops: true,
            ..ServerConfig::default()
        }
    }

    fn start(config: ServerConfig) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
        let server = Server::bind(config).expect("bind");
        let addr = server.local_addr().expect("addr");
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run().expect("serve"));
        (addr, handle, join)
    }

    fn request(addr: SocketAddr, line: &str) -> Json {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut payload = line.to_string();
        payload.push('\n');
        stream.write_all(payload.as_bytes()).expect("send");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("reply");
        crate::json::parse(response.trim()).expect("json reply")
    }

    fn test_job(conn: u64, priority: Priority) -> Job {
        let (reply, _discard) = mpsc::sync_channel(1);
        Job {
            envelope: Envelope {
                id: None,
                deadline_ms: None,
                priority,
                request: Request::Stats,
            },
            deadline: Instant::now() + Duration::from_secs(5),
            reply,
            conn,
        }
    }

    #[test]
    fn lanes_favor_interactive_and_alternate_clients() {
        let queue = Queue::new(16);
        assert!(queue.push(test_job(7, Priority::Batch)).is_some());
        assert!(queue.push(test_job(7, Priority::Batch)).is_some());
        assert!(queue.push(test_job(8, Priority::Batch)).is_some());
        assert!(queue.push(test_job(9, Priority::Interactive)).is_some());
        // Interactive jumps the entire batch lane.
        let job = queue.pop(None, || true).expect("interactive first");
        assert_eq!(job.conn, 9);
        // Fairness: having just served conn 7, prefer conn 8's job even
        // though 7's are older.
        let job = queue.pop(Some(7), || true).expect("fair pop");
        assert_eq!(job.conn, 8);
        let job = queue.pop(Some(8), || true).expect("remaining");
        assert_eq!(job.conn, 7);
    }

    #[test]
    fn racing_pushes_never_overshoot_the_capacity() {
        // No worker pops: whatever gets in stays in.
        let queue = Queue::new(4);
        let accepted = AtomicU64::new(0);
        let start = std::sync::Barrier::new(64);
        std::thread::scope(|scope| {
            for conn in 0..64 {
                let (queue, accepted, start) = (&queue, &accepted, &start);
                scope.spawn(move || {
                    start.wait();
                    if queue.push(test_job(conn, Priority::Interactive)).is_some() {
                        accepted.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(accepted.load(Ordering::SeqCst), 4, "60 were refused");
        assert_eq!(queue.len(), 4);
    }

    #[test]
    fn serves_compile_and_reaps_on_handle() {
        let (addr, handle, join) = start(test_config());
        let response = request(
            addr,
            r#"{"op":"compile","id":1,"source":"cell a() { box metal (0,0) (8,4); } place a() at (0,0);"}"#,
        );
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("id"), Some(&Json::Int(1)));
        let cif = response.get("cif").and_then(Json::as_str).expect("cif");
        assert!(cif.contains("DS"), "{cif}");
        handle.shutdown();
        join.join().expect("clean exit");
    }

    #[test]
    fn serves_pnr_with_routed_cif_and_lvs() {
        let (addr, handle, join) = start(test_config());
        // Two transistors on one diffusion strip: enough to extract a
        // real netlist and route it.
        let source = "cell inv() { \
             box diff (0, 0) (4, 30); \
             box poly (-4, 8) (8, 10); \
             box poly (-4, 20) (8, 22); \
             box implant (-2, 18) (6, 24); \
             box contact (1, 14) (3, 16); \
             box metal (0, 13) (12, 17); } \
             place inv() at (0, 0);";
        let response = request(
            addr,
            &format!(
                r#"{{"op":"pnr","id":7,"source":{}}}"#,
                Json::Str(source.into())
            ),
        );
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
        assert_eq!(response.get("id"), Some(&Json::Int(7)));
        assert_eq!(response.get("cells"), Some(&Json::Int(2)));
        assert_eq!(response.get("lvs_ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("nets"), response.get("routed"));
        let cif = response.get("cif").and_then(Json::as_str).expect("cif");
        assert!(cif.contains("DS"), "{cif}");
        // There is one routing stack: naming one is an unknown field.
        let bad = request(
            addr,
            &format!(
                r#"{{"op":"pnr","source":{},"stack":"cmos9"}}"#,
                Json::Str(source.into())
            ),
        );
        assert_eq!(
            bad.get("error").and_then(Json::as_str),
            Some(kind::BAD_REQUEST)
        );
        let detail = bad.get("detail").and_then(Json::as_str).expect("detail");
        assert!(detail.contains("unknown field `stack`"), "{detail}");
        handle.shutdown();
        join.join().expect("clean exit");
    }

    #[test]
    fn malformed_lines_do_not_kill_the_connection() {
        let (addr, handle, join) = start(test_config());
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"this is not json\n{\"op\":\"stats\"}\n")
            .expect("send");
        let mut reader = BufReader::new(stream);
        let mut first = String::new();
        reader.read_line(&mut first).expect("bad-request reply");
        let first = crate::json::parse(first.trim()).expect("json");
        assert_eq!(
            first.get("error").and_then(Json::as_str),
            Some(kind::BAD_REQUEST)
        );
        let mut second = String::new();
        reader.read_line(&mut second).expect("stats reply");
        let second = crate::json::parse(second.trim()).expect("json");
        assert_eq!(second.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(second.get("bad_requests"), Some(&Json::Int(1)));
        handle.shutdown();
        join.join().expect("clean exit");
    }

    #[test]
    fn priority_lanes_show_in_stats() {
        let (addr, handle, join) = start(test_config());
        let source = r#""cell a() { box metal (0,0) (8,4); } place a() at (0,0);""#;
        for priority in ["batch", "interactive"] {
            let reply = request(
                addr,
                &format!("{{\"op\":\"compile\",\"source\":{source},\"priority\":\"{priority}\"}}"),
            );
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        }
        let stats = request(addr, r#"{"op":"stats"}"#);
        assert_eq!(stats.get("batch"), Some(&Json::Int(1)));
        assert_eq!(stats.get("interactive"), Some(&Json::Int(1)));
        assert!(stats.get("mem_entries").is_some());
        for gone in ["shards", "sim.compiled", "sim.interp"] {
            assert_eq!(stats.get(gone), None, "{gone}");
        }
        handle.shutdown();
        join.join().expect("clean exit");
    }

    #[test]
    fn invalid_priority_is_a_bad_request() {
        let (addr, handle, join) = start(test_config());
        let reply = request(addr, r#"{"op":"drc","source":"x","priority":"turbo"}"#);
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            Some(kind::BAD_REQUEST)
        );
        let detail = reply.get("detail").and_then(Json::as_str).expect("detail");
        assert!(detail.contains("priority"), "{detail}");
        handle.shutdown();
        join.join().expect("clean exit");
    }

    #[test]
    fn shutdown_request_stops_the_server() {
        let (addr, _handle, join) = start(test_config());
        let response = request(addr, r#"{"op":"shutdown","id":"bye"}"#);
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(response.get("id").and_then(Json::as_str), Some("bye"));
        join.join().expect("clean exit");
    }

    #[test]
    fn idle_connections_are_reaped() {
        let (addr, handle, join) = start(ServerConfig {
            idle_timeout_ms: 150,
            ..test_config()
        });
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = BufReader::new(stream);
        let mut buffer = String::new();
        // The server closes the idle socket; the client sees EOF.
        let n = reader.read_line(&mut buffer).expect("EOF, not hang");
        assert_eq!(n, 0, "reaped without sending anything: {buffer:?}");
        handle.shutdown();
        join.join().expect("clean exit");
    }
}
