//! The daemon: a TCP accept loop with admission control, running
//! concurrent mining sessions against the shared [`CorpusStore`].
//!
//! # Admission control
//!
//! Overload is answered, never queued: the accept loop tracks a global
//! in-flight connection count and a connection beyond
//! [`ServeLimits::max_inflight`] receives an immediate
//! [`Message::Busy`] frame and is closed — the explicit analog of the
//! paper's executor memory limit, applied to concurrency. Admitted
//! requests are validated *before* mining starts: unknown corpus,
//! malformed pattern expression (via the session's `compile_only` dry
//! run) and budgets above the server's ceiling all produce a terminal
//! [`Message::Error`] frame with zero mining work done.
//!
//! # Failure domains
//!
//! Each connection is its own failure domain, bounded four ways:
//!
//! * **Socket timeout** ([`ServeLimits::io_timeout`], on reads and
//!   writes alike): a client that connects and never sends a complete
//!   request, or stops draining its response, is evicted and its admission
//!   slot released instead of pinning it forever.
//! * **Deadlines**: the effective wall-clock deadline of a query is
//!   `min(request deadline,` [`ServeLimits::max_deadline`]`)`; an
//!   over-deadline run is cancelled cooperatively inside the mining
//!   kernels and ends with a terminal `DeadlineExceeded` error frame.
//! * **Panic containment**: a panic anywhere in request handling —
//!   including one escaping the mining session — is caught at the
//!   connection boundary and converted to a terminal `WorkerPanicked`
//!   error frame; the server keeps serving other connections.
//! * **Cancel-on-disconnect**: a write error mid-stream cancels the
//!   connection's [`CancelToken`] immediately, so the mining run stops at
//!   its next cooperative checkpoint instead of completing for nobody.
//!
//! [`ServerHandle::shutdown`] drains: it stops accepting, cancels every
//! in-flight session's token, and joins connection threads for at most
//! [`ServeLimits::drain_grace`] — in-flight clients get a terminal
//! `Cancelled` frame rather than a dead socket. The global
//! timeout/panic/cancel counters ride on every terminal metrics frame
//! ([`crate::proto::ServerStats`]).
//!
//! # Query execution
//!
//! Each admitted connection runs on its own thread (the mining itself can
//! additionally fan out over the session's worker threads). The session
//! borrows the store's shared `Arc<Dictionary>` / `Arc<SequenceDb>` and
//! the cached `Arc<Fst>` — per query the server allocates only the
//! session object and the response buffers. Patterns stream back in
//! batches while the search runs ([`desq::session::PatternStream`]); the
//! terminal metrics frame carries the run's `MiningMetrics` plus cache
//! hit/miss counters and the queue-wait time.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use desq::session::{default_workers, AlgorithmSpec, MiningSession};
use desq_core::mining::{panic_message, CancelToken};
use desq_core::Error;

use crate::proto::{
    read_frame, write_frame, Message, Request, ServerStats, WireAlgo, MAX_FRAME_PATTERNS,
};
use crate::store::CorpusStore;

/// Server-side resource policy, fixed at spawn time.
#[derive(Debug, Clone)]
pub struct ServeLimits {
    /// Global cap on concurrently served connections; the connection that
    /// would exceed it gets a [`Message::Busy`] frame. Must be positive.
    pub max_inflight: usize,
    /// Ceiling (and `0`-default) of the per-request work budget.
    pub max_budget: usize,
    /// Ceiling (and `0`-default) of the per-request pattern cap.
    pub max_patterns: usize,
    /// Ceiling of the per-request worker threads (a request of `0` means
    /// 1 worker, not this ceiling — parallelism is opt-in per query).
    pub max_workers: usize,
    /// Patterns per streamed response frame; positive and at most
    /// [`MAX_FRAME_PATTERNS`], which clients refuse to decode beyond.
    pub batch: usize,
    /// Socket timeout of every read and write on a connection (one window
    /// for both directions, as `NetConfig::liveness` on shuffle links): a
    /// connection that has not delivered a complete request within it is
    /// evicted, and a client that stops draining its response is treated
    /// as gone — the query is cancelled. Either way the admission slot is
    /// released. `None` disables the timeout (a stalled client then pins
    /// its slot until it disconnects).
    pub io_timeout: Option<Duration>,
    /// Ceiling on the per-request wall-clock deadline: the effective
    /// deadline is `min(request, ceiling)`. `None` means no server-imposed
    /// deadline (client-requested deadlines still apply).
    pub max_deadline: Option<Duration>,
    /// How long [`ServerHandle::shutdown`] waits for cancelled in-flight
    /// sessions to finish before giving up on joining their threads.
    pub drain_grace: Duration,
}

impl Default for ServeLimits {
    fn default() -> ServeLimits {
        ServeLimits {
            max_inflight: 8,
            max_budget: desq_core::mining::DEFAULT_BUDGET,
            max_patterns: 1_000_000,
            max_workers: default_workers(),
            batch: 512,
            io_timeout: Some(Duration::from_secs(30)),
            max_deadline: None,
            drain_grace: Duration::from_secs(5),
        }
    }
}

/// State shared between the accept loop, the connection threads and the
/// [`ServerHandle`]: the in-flight count, the cancellation tokens of
/// running sessions (for drain shutdown), and the global failure
/// counters surfaced in [`ServerStats`].
struct Shared {
    inflight: AtomicUsize,
    next_session: AtomicU64,
    sessions: Mutex<HashMap<u64, CancelToken>>,
    timeouts: AtomicU64,
    panics: AtomicU64,
    cancels: AtomicU64,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            inflight: AtomicUsize::new(0),
            next_session: AtomicU64::new(0),
            sessions: Mutex::new(HashMap::new()),
            timeouts: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            cancels: AtomicU64::new(0),
        }
    }

    fn sessions_lock(&self) -> std::sync::MutexGuard<'_, HashMap<u64, CancelToken>> {
        // Tokens are atomics behind Arcs; a poisoned map is still
        // consistent between operations.
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Trips every in-flight session's token (drain shutdown).
    fn cancel_all(&self) {
        for token in self.sessions_lock().values() {
            token.cancel();
        }
    }

    /// Counts a terminal failure by class, so the next successful query's
    /// metrics frame reports it.
    fn count_failure(&self, e: &Error) {
        match e {
            Error::DeadlineExceeded(_) => self.timeouts.fetch_add(1, Ordering::Relaxed),
            Error::Cancelled(_) => self.cancels.fetch_add(1, Ordering::Relaxed),
            Error::WorkerPanicked(_) => self.panics.fetch_add(1, Ordering::Relaxed),
            _ => return,
        };
    }
}

/// Registers a session token for drain cancellation, deregistering on
/// drop (every exit path of the connection handler, including panics).
struct SessionReg<'a> {
    shared: &'a Shared,
    id: u64,
}

impl<'a> SessionReg<'a> {
    fn new(shared: &'a Shared, token: CancelToken) -> SessionReg<'a> {
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        shared.sessions_lock().insert(id, token);
        SessionReg { shared, id }
    }
}

impl Drop for SessionReg<'_> {
    fn drop(&mut self) {
        self.shared.sessions_lock().remove(&self.id);
    }
}

/// A configured, not-yet-listening server.
pub struct Server {
    store: Arc<CorpusStore>,
    limits: ServeLimits,
}

impl Server {
    /// A server over `store` with default [`ServeLimits`].
    pub fn new(store: CorpusStore) -> Server {
        Server {
            store: Arc::new(store),
            limits: ServeLimits::default(),
        }
    }

    /// Overrides the resource policy.
    pub fn with_limits(mut self, limits: ServeLimits) -> Server {
        self.limits = limits;
        self
    }

    /// Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop on a background thread. Limits no server can
    /// run with — `max_inflight` of 0, a `batch` outside
    /// `1..=MAX_FRAME_PATTERNS` — fail with [`std::io::ErrorKind::InvalidInput`]
    /// before anything is bound.
    pub fn spawn(self, bind: &str) -> std::io::Result<ServerHandle> {
        let invalid = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, msg);
        if self.limits.max_inflight == 0 {
            return Err(invalid("max_inflight must be positive".into()));
        }
        if !(1..=MAX_FRAME_PATTERNS).contains(&self.limits.batch) {
            return Err(invalid(format!(
                "batch must be positive and at most {MAX_FRAME_PATTERNS} \
                 (a client refuses larger frames)"
            )));
        }
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared::new());
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_stop = stop.clone();
        let accept_shared = shared.clone();
        let accept_conns = conns.clone();
        let store = self.store;
        let grace = self.limits.drain_grace;
        let limits = self.limits;
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let t_accept = Instant::now();
                // Admission: claim a slot or answer Busy and close.
                let slots = accept_shared.inflight.fetch_add(1, Ordering::SeqCst);
                if slots >= limits.max_inflight {
                    accept_shared.inflight.fetch_sub(1, Ordering::SeqCst);
                    let mut w = BufWriter::new(stream);
                    let _ = write_frame(
                        &mut w,
                        &Message::Busy {
                            in_flight: slots as u64,
                            cap: limits.max_inflight as u64,
                        },
                    );
                    continue;
                }
                let store = store.clone();
                let limits = limits.clone();
                let shared = accept_shared.clone();
                let handle = std::thread::spawn(move || {
                    // Slot released on every exit path, including panics in
                    // the handler.
                    struct Slot<'a>(&'a Shared);
                    impl Drop for Slot<'_> {
                        fn drop(&mut self) {
                            self.0.inflight.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    let _slot = Slot(&shared);
                    handle_conn(&store, &limits, &shared, stream, t_accept);
                });
                let mut conns = accept_conns.lock().unwrap_or_else(PoisonError::into_inner);
                // Reap finished threads as we go so a long-lived daemon's
                // handle list doesn't grow with every served connection.
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
        });
        Ok(ServerHandle {
            addr,
            stop,
            accept: Some(accept),
            shared,
            conns,
            grace,
        })
    }
}

/// Handle of a running server: its bound address and the shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    grace: Duration,
}

impl ServerHandle {
    /// The actually-bound address (resolves an ephemeral `:0` port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the accept loop exits (daemon mode: forever, unless
    /// another thread calls [`shutdown`](Self::shutdown)).
    pub fn wait(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Drain shutdown: stops accepting connections, cancels every
    /// in-flight session (each affected client receives a terminal
    /// `Cancelled` error frame), and joins connection threads for at most
    /// the configured [`ServeLimits::drain_grace`]. A thread that outlives
    /// the grace period — e.g. a client stalled inside the socket
    /// timeout — is left detached rather than blocking shutdown.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call; the loop sees the flag and exits. (The
        // probe connection may be answered Busy or accepted-then-dropped —
        // both are fine, it is never a request.)
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        // Cancel in-flight sessions; their handlers notice at the next
        // cooperative checkpoint, answer `Cancelled`, and release slots.
        self.shared.cancel_all();
        let deadline = Instant::now() + self.grace;
        while self.shared.inflight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let handles =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(PoisonError::into_inner));
        for handle in handles {
            // Only join what finished within the grace period.
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for ServerHandle {
    /// Dropping the handle shuts the server down with the same drain
    /// semantics as [`shutdown`](Self::shutdown) (tests that spawn on
    /// ephemeral ports never leak accept loops).
    fn drop(&mut self) {
        self.drain();
    }
}

/// True for the error kinds a timed-out socket read/write produces
/// (platform-dependent: `WouldBlock` on Unix, `TimedOut` on Windows).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Serves one connection: read one request frame, answer with pattern
/// frames plus a terminal frame, close.
fn handle_conn(
    store: &CorpusStore,
    limits: &ServeLimits,
    shared: &Shared,
    stream: TcpStream,
    t_accept: Instant,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(limits.io_timeout);
    let _ = stream.set_write_timeout(limits.io_timeout);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let payload = match read_frame(&mut reader) {
        Ok(payload) => payload,
        Err(e) => {
            if is_timeout(&e) {
                // Stalled client: evict with an explicit terminal frame
                // (it may still be reading) and release the slot.
                shared.timeouts.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(
                    &mut writer,
                    &Message::Error(Error::DeadlineExceeded(
                        "no complete request within the server's I/O timeout".into(),
                    )),
                );
            }
            return; // slot released by the accept loop's guard
        }
    };
    let reply = match Request::decode(&payload) {
        Ok(req) => {
            // Effective deadline: the tighter of what the client asked for
            // and what the server tolerates.
            let requested =
                (req.deadline_millis > 0).then(|| Duration::from_millis(req.deadline_millis));
            let deadline = match (requested, limits.max_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            let token = CancelToken::new();
            if let Some(d) = deadline {
                token.arm_deadline(d);
            }
            // Registered for drain cancellation until the reply is built.
            let _reg = SessionReg::new(shared, token.clone());
            // The connection is the panic boundary: a panic anywhere in
            // request handling becomes a terminal error frame and the
            // server keeps serving.
            catch_unwind(AssertUnwindSafe(|| {
                serve_request(store, limits, shared, &req, &token, &mut writer, t_accept)
            }))
            .unwrap_or_else(|payload| Err(Error::WorkerPanicked(panic_message(payload.as_ref()))))
        }
        Err(e) => Err(e),
    };
    let terminal = match reply {
        Ok(msg) => msg,
        Err(e) => {
            shared.count_failure(&e);
            Message::Error(e)
        }
    };
    let _ = write_frame(&mut writer, &terminal);
    let _ = writer.flush();
}

/// Validates and runs one query, streaming pattern frames to `writer`.
/// Returns the terminal frame (metrics on success, the error otherwise).
#[allow(clippy::too_many_arguments)]
fn serve_request(
    store: &CorpusStore,
    limits: &ServeLimits,
    shared: &Shared,
    req: &Request,
    token: &CancelToken,
    writer: &mut BufWriter<TcpStream>,
    t_accept: Instant,
) -> Result<Message, Error> {
    let corpus = store.get(&req.corpus).ok_or_else(|| {
        Error::Invalid(format!(
            "unknown corpus {:?} (resident: {})",
            req.corpus,
            store.names().join(", ")
        ))
    })?;
    let budget = effective(req.budget, limits.max_budget, "budget")?;
    let max_patterns = effective(req.max_patterns, limits.max_patterns, "max_patterns")?;
    // `0` workers means 1 (deterministic single-worker mining and stream
    // order), not the ceiling — parallelism is strictly opt-in per query.
    let workers = if req.workers == 0 {
        1
    } else {
        effective(req.workers, limits.max_workers, "workers")?
    };

    // Admission-time constraint validation + compile cache.
    let compiled = store.compiled(corpus, &req.pexp, req.unanchored)?;

    let algorithm = match req.algo {
        WireAlgo::DesqDfs => AlgorithmSpec::DesqDfs,
        WireAlgo::DesqCount => AlgorithmSpec::DesqCount,
        WireAlgo::DSeq => AlgorithmSpec::d_seq(),
        WireAlgo::DCand => AlgorithmSpec::d_cand(),
    };
    let session = MiningSession::builder()
        .dictionary(corpus.dict.clone())
        .database(corpus.db.clone())
        .fst(compiled.fst.clone())
        .sigma(req.sigma)
        .algorithm(algorithm)
        .budget(budget)
        .max_patterns(max_patterns)
        .workers(workers)
        .cancel_token(token.clone())
        .build()?;

    let queue_wait_nanos = t_accept.elapsed().as_nanos() as u64;
    let mut pattern_stream = session.stream();
    let mut batch = Vec::with_capacity(limits.batch);
    for pattern in &mut pattern_stream {
        batch.push(pattern);
        if batch.len() == limits.batch {
            if let Err(e) = write_frame(writer, &Message::Patterns(std::mem::take(&mut batch))) {
                return Err(abort_for_peer(shared, token, &e));
            }
            batch.reserve(limits.batch);
        }
    }
    if !batch.is_empty() {
        if let Err(e) = write_frame(writer, &Message::Patterns(batch)) {
            return Err(abort_for_peer(shared, token, &e));
        }
    }
    let mining = pattern_stream.finish()?;
    #[cfg(feature = "failpoints")]
    desq_core::fault::point("serve::before_reply")?;
    let (cache_hits, cache_misses) = store.cache_stats();
    Ok(Message::Metrics {
        mining,
        stats: ServerStats {
            cache_hit: compiled.cache_hit,
            cache_hits,
            cache_misses,
            queue_wait_nanos,
            compile_nanos: compiled.compile_nanos,
            timeouts: shared.timeouts.load(Ordering::Relaxed),
            panics: shared.panics.load(Ordering::Relaxed),
            cancels: shared.cancels.load(Ordering::Relaxed),
            fst_states_before: compiled.fst.states_before_opt() as u64,
            fst_states_after: compiled.fst.num_states() as u64,
            fst_transitions_before: compiled.fst.transitions_before_opt() as u64,
            fst_transitions_after: compiled.fst.num_transitions() as u64,
        },
    })
}

/// The peer went away (or stopped reading) mid-stream: trip the token
/// *before* the pattern stream is dropped so the mining run stops at its
/// next cooperative checkpoint instead of completing for nobody.
fn abort_for_peer(shared: &Shared, token: &CancelToken, e: &std::io::Error) -> Error {
    token.cancel();
    if is_timeout(e) {
        shared.timeouts.fetch_add(1, Ordering::Relaxed);
        Error::DeadlineExceeded("client stopped reading (I/O timeout)".into())
    } else {
        Error::Cancelled("client disconnected mid-stream".into())
    }
}

/// Resolves a request knob against the server ceiling: `0` means "server
/// default" (the ceiling itself for budget/max_patterns, later clamped to
/// 1 for workers); above the ceiling is an admission error.
fn effective(requested: u64, ceiling: usize, what: &str) -> Result<usize, Error> {
    if requested == 0 {
        return Ok(ceiling);
    }
    let requested = usize::try_from(requested)
        .map_err(|_| Error::Invalid(format!("{what} {requested} does not fit this server")))?;
    if requested > ceiling {
        return Err(Error::Invalid(format!(
            "requested {what} {requested} exceeds the server ceiling {ceiling}"
        )));
    }
    Ok(requested)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_resolves_defaults_and_rejects_over_ceiling() {
        assert_eq!(effective(0, 100, "budget").unwrap(), 100);
        assert_eq!(effective(7, 100, "budget").unwrap(), 7);
        let err = effective(101, 100, "budget").unwrap_err();
        assert!(
            matches!(err, Error::Invalid(ref m) if m.contains("ceiling")),
            "{err}"
        );
    }

    #[test]
    fn failure_counters_classify_terminal_errors() {
        let shared = Shared::new();
        shared.count_failure(&Error::DeadlineExceeded("d".into()));
        shared.count_failure(&Error::Cancelled("c".into()));
        shared.count_failure(&Error::Cancelled("c".into()));
        shared.count_failure(&Error::WorkerPanicked("p".into()));
        shared.count_failure(&Error::Invalid("not a failure-domain error".into()));
        assert_eq!(shared.timeouts.load(Ordering::Relaxed), 1);
        assert_eq!(shared.cancels.load(Ordering::Relaxed), 2);
        assert_eq!(shared.panics.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn session_registry_tracks_and_drops() {
        let shared = Shared::new();
        let token = CancelToken::new();
        {
            let _reg = SessionReg::new(&shared, token.clone());
            assert_eq!(shared.sessions_lock().len(), 1);
            shared.cancel_all();
        }
        assert!(token.is_stopped(), "drain must trip registered tokens");
        assert!(shared.sessions_lock().is_empty(), "drop deregisters");
    }
}
