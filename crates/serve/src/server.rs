//! The daemon: a TCP accept loop with admission control, running
//! concurrent mining sessions against the shared [`CorpusStore`].
//!
//! # Admission control
//!
//! Overload is answered, never queued: every open connection holds one
//! slot of a connection registry, from accept until its terminal frame is
//! flushed, and a connection beyond [`ServeLimits::max_inflight`] receives
//! an immediate [`Message::Busy`] frame and is closed — the explicit analog
//! of the paper's executor memory limit, applied to concurrency. A slot is
//! released *before* its socket closes, so a client that has read its
//! answer to the end can send its next query at once. Admitted requests
//! are validated *before* mining starts: unknown corpus, malformed pattern
//! expression (via the session's `compile_only` dry run) and budgets above
//! the server's ceiling all produce a terminal [`Message::Error`] frame
//! with zero mining work done.
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
//!   `min(request deadline,` [`ServeLimits::max_deadline`]`)`, armed on
//!   the connection's [`CancelToken`]; an over-deadline run is cancelled
//!   cooperatively inside the mining kernels and ends with a terminal
//!   `DeadlineExceeded` error frame.
//! * **Panic containment**: a panic anywhere in request handling —
//!   including one escaping the mining session — is caught at the
//!   connection boundary and converted to a terminal `WorkerPanicked`
//!   error frame; the server keeps serving other connections.
//! * **Cancel-on-disconnect**: a write error mid-stream cancels the
//!   connection's token immediately, so the mining run stops at its next
//!   cooperative checkpoint instead of completing for nobody.
//!
//! [`ServerHandle::shutdown`] drains: it refuses new connections, cancels
//! every open connection's token — those still reading their request
//! included — and waits up to five seconds for their slots, so in-flight
//! clients get a terminal `Cancelled` frame rather than a dead socket. The
//! registry's timeout/panic/cancel counters ride on every terminal metrics
//! frame ([`crate::proto::ServerStats`]).
//!
//! # Query execution
//!
//! Each admitted connection runs on its own thread (the mining itself can
//! additionally fan out over the session's worker threads). The session
//! borrows the store's shared `Arc<Dictionary>` / `Arc<SequenceDb>` and
//! the cached `Arc<Fst>` — per query the server allocates only the
//! session object and the response buffers. Patterns stream back in
//! frames of 512 while the search runs ([`desq::session::PatternStream`]);
//! the terminal metrics frame carries the run's `MiningMetrics` plus cache
//! hit/miss counters and the queue-wait time.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use desq::session::{default_workers, AlgorithmSpec, MiningSession};
use desq_core::mining::{panic_message, CancelToken};
use desq_core::Error;

use crate::proto::{
    read_frame, write_frame, Message, Request, ServerStats, WireAlgo, MAX_FRAME_PATTERNS,
};
use crate::store::CorpusStore;

/// Patterns per streamed response frame.
const BATCH: usize = 512;
const _: () = assert!(
    BATCH <= MAX_FRAME_PATTERNS,
    "a client refuses larger frames"
);

/// How long a drain waits for the connections it cancelled to release
/// their slots; a handler stalled inside the socket timeout is left
/// detached after it.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Server-side resource policy, fixed at spawn time. Every count must be
/// positive and every duration non-zero: [`Server::spawn`] refuses a
/// limit no query could run under.
#[derive(Debug, Clone)]
pub struct ServeLimits {
    /// Global cap on concurrently served connections; the connection that
    /// would exceed it gets a [`Message::Busy`] frame.
    pub max_inflight: usize,
    /// Ceiling (and `0`-default) of the per-request work budget.
    pub max_budget: usize,
    /// Ceiling (and `0`-default) of the per-request pattern cap.
    pub max_patterns: usize,
    /// Ceiling of the per-request worker threads (a request of `0` means
    /// 1 worker, not this ceiling — parallelism is opt-in per query).
    pub max_workers: usize,
    /// Socket timeout of every read and write on a connection (one window
    /// for both directions, as on a shuffle worker's links): a
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
}

impl Default for ServeLimits {
    fn default() -> ServeLimits {
        ServeLimits {
            max_inflight: 8,
            max_budget: desq_core::mining::DEFAULT_BUDGET,
            max_patterns: 1_000_000,
            max_workers: default_workers(),
            io_timeout: Some(Duration::from_secs(30)),
            max_deadline: None,
        }
    }
}

impl ServeLimits {
    /// Why no query could run under these limits, if none could.
    fn unusable(&self) -> Option<&'static str> {
        [
            (self.max_inflight == 0, "max_inflight must be positive"),
            (self.max_budget == 0, "max_budget must be positive"),
            (self.max_patterns == 0, "max_patterns must be positive"),
            (self.max_workers == 0, "max_workers must be positive"),
            (
                self.io_timeout == Some(Duration::ZERO),
                "io_timeout must be positive (None disables it)",
            ),
            (
                self.max_deadline == Some(Duration::ZERO),
                "max_deadline must be positive (None disables it)",
            ),
        ]
        .into_iter()
        .find_map(|(bad, why)| bad.then_some(why))
    }
}

/// The daemon's one record of its connections, shared by the accept loop,
/// the connection threads and the [`ServerHandle`]. It keeps no clock:
/// eviction is the socket timeout's job and deadlines are the tokens'.
#[derive(Default)]
struct Registry {
    conns: Mutex<Conns>,
    /// Notified whenever a connection releases its slot.
    released: Condvar,
}

/// What the registry's lock guards.
#[derive(Default)]
struct Conns {
    /// Each open connection's token by id; in-flight is the entry count.
    open: HashMap<u64, CancelToken>,
    next_id: u64,
    draining: bool,
    timeouts: u64,
    panics: u64,
    cancels: u64,
    /// Makes this server's next query panic after its run, just before
    /// its terminal frame: no request can reach the connection's panic
    /// boundary from there, so a test arms it.
    #[cfg(test)]
    panic_before_reply: bool,
}

impl Registry {
    fn lock(&self) -> MutexGuard<'_, Conns> {
        // No update can panic halfway through; a poisoned registry is
        // still consistent.
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a slot for a just-accepted connection, or returns the
    /// in-flight count that refused it (the cap is reached, or a drain
    /// has begun).
    fn admit(self: &Arc<Self>, cap: usize) -> Result<Admission, usize> {
        let mut conns = self.lock();
        let in_flight = conns.open.len();
        if conns.draining || in_flight >= cap {
            return Err(in_flight);
        }
        let id = conns.next_id;
        conns.next_id += 1;
        let token = CancelToken::new();
        conns.open.insert(id, token.clone());
        Ok(Admission {
            registry: self.clone(),
            id,
            token,
        })
    }

    fn is_draining(&self) -> bool {
        self.lock().draining
    }

    /// Refuses every later admission and cancels every open connection.
    fn start_drain(&self) {
        let mut conns = self.lock();
        conns.draining = true;
        for token in conns.open.values() {
            token.cancel();
        }
    }

    /// Blocks until every slot is released or `grace` has passed.
    fn wait_idle(&self, grace: Duration) {
        let _ = self
            .released
            .wait_timeout_while(self.lock(), grace, |conns| !conns.open.is_empty());
    }

    /// Counts a terminal failure by class, so the next successful query's
    /// metrics frame reports it.
    fn count_failure(&self, e: &Error) {
        let mut conns = self.lock();
        match e {
            Error::DeadlineExceeded(_) => conns.timeouts += 1,
            Error::Cancelled(_) => conns.cancels += 1,
            Error::WorkerPanicked(_) => conns.panics += 1,
            _ => {}
        }
    }
}

/// One open connection's slot and its [`CancelToken`], held from accept
/// until the terminal frame is flushed. Dropping it — on every exit path
/// of the handler, panics included — releases the slot.
struct Admission {
    registry: Arc<Registry>,
    id: u64,
    token: CancelToken,
}

impl Drop for Admission {
    fn drop(&mut self) {
        self.registry.lock().open.remove(&self.id);
        self.registry.released.notify_all();
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
    /// starts the accept loop on a background thread. Limits no query
    /// could run under — a zero count or a zero duration — fail with
    /// [`std::io::ErrorKind::InvalidInput`] before anything is bound.
    pub fn spawn(self, bind: &str) -> std::io::Result<ServerHandle> {
        if let Some(why) = self.limits.unusable() {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
        }
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(Registry::default());
        let accept_registry = registry.clone();
        let (store, limits) = (self.store, self.limits);
        let accept = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if accept_registry.is_draining() {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let t_accept = Instant::now();
                match accept_registry.admit(limits.max_inflight) {
                    Ok(admission) => {
                        let (store, limits) = (store.clone(), limits.clone());
                        std::thread::spawn(move || {
                            handle_conn(&store, &limits, admission, stream, t_accept)
                        });
                    }
                    Err(in_flight) => {
                        let _ = write_frame(
                            &mut BufWriter::new(stream),
                            &Message::Busy {
                                in_flight: in_flight as u64,
                                cap: limits.max_inflight as u64,
                            },
                        );
                    }
                }
            }
        });
        Ok(ServerHandle {
            addr,
            accept: Some(accept),
            registry,
        })
    }
}

/// Handle of a running server: its bound address and the shutdown switch.
pub struct ServerHandle {
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    registry: Arc<Registry>,
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

    /// Drain shutdown: stops accepting connections, cancels every open
    /// connection (each in-flight client receives a terminal `Cancelled`
    /// error frame), and waits up to five seconds for their slots. A
    /// handler that outlives the wait — e.g. one writing to a client
    /// stalled inside the socket timeout — is left detached rather than
    /// blocking shutdown.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.registry.start_drain();
        // Unblock the accept call; the loop sees the drain and exits.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        self.registry.wait_idle(DRAIN_GRACE);
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
/// frames plus a terminal frame, release the slot, close.
fn handle_conn(
    store: &CorpusStore,
    limits: &ServeLimits,
    admission: Admission,
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
    let reply = match read_frame(&mut reader) {
        Ok(payload) => Some(Request::decode(&payload).and_then(|req| {
            // Effective deadline: the tighter of what the client asked for
            // and what the server tolerates.
            let requested =
                (req.deadline_millis > 0).then(|| Duration::from_millis(req.deadline_millis));
            let deadline = match (requested, limits.max_deadline) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            if let Some(d) = deadline {
                admission.token.arm_deadline(d);
            }
            // The connection is the panic boundary: a panic anywhere in
            // request handling becomes a terminal error frame and the
            // server keeps serving.
            catch_unwind(AssertUnwindSafe(|| {
                serve_request(store, limits, &admission, &req, &mut writer, t_accept)
            }))
            .unwrap_or_else(|payload| Err(Error::WorkerPanicked(panic_message(payload.as_ref()))))
        })),
        // Stalled client: evict it with an explicit terminal frame (it may
        // still be reading).
        Err(e) if is_timeout(&e) => Some(Err(Error::DeadlineExceeded(
            "no complete request within the server's I/O timeout".into(),
        ))),
        // The client hung up before sending a request: nobody to answer.
        Err(_) => None,
    };
    if let Some(reply) = reply {
        let terminal = reply.unwrap_or_else(|e| {
            admission.registry.count_failure(&e);
            Message::Error(e)
        });
        let _ = write_frame(&mut writer, &terminal);
    }
    // Release the slot before the socket closes: a client that has read to
    // the close may send its next query at once.
    drop(admission);
}

/// Validates and runs one query, streaming pattern frames to `writer`.
/// Returns the terminal frame (metrics on success, the error otherwise).
fn serve_request(
    store: &CorpusStore,
    limits: &ServeLimits,
    admission: &Admission,
    req: &Request,
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
    let token = &admission.token;
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
    let mut batch = Vec::with_capacity(BATCH);
    for pattern in &mut pattern_stream {
        batch.push(pattern);
        if batch.len() == BATCH {
            if let Err(e) = write_frame(writer, &Message::Patterns(std::mem::take(&mut batch))) {
                return Err(abort_for_peer(token, &e));
            }
            batch.reserve(BATCH);
        }
    }
    if !batch.is_empty() {
        if let Err(e) = write_frame(writer, &Message::Patterns(batch)) {
            return Err(abort_for_peer(token, &e));
        }
    }
    let mining = pattern_stream.finish()?;
    #[cfg(test)]
    if std::mem::take(&mut admission.registry.lock().panic_before_reply) {
        panic!("injected panic before the reply");
    }
    let (cache_hits, cache_misses) = store.cache_stats();
    let conns = admission.registry.lock();
    Ok(Message::Metrics {
        mining,
        stats: ServerStats {
            cache_hit: compiled.cache_hit,
            cache_hits,
            cache_misses,
            queue_wait_nanos,
            compile_nanos: compiled.compile_nanos,
            timeouts: conns.timeouts,
            panics: conns.panics,
            cancels: conns.cancels,
            fst_states_before: compiled.fst.states_before_opt() as u64,
            fst_states_after: compiled.fst.num_states() as u64,
            fst_transitions_before: compiled.fst.transitions_before_opt() as u64,
            fst_transitions_after: compiled.fst.num_transitions() as u64,
        },
    })
}

/// The peer went away (or stopped reading) mid-stream: trip the token
/// *before* the pattern stream is dropped so the mining run stops at its
/// next cooperative checkpoint instead of completing for nobody. The
/// returned error is the request's terminal one, counted once by
/// [`Registry::count_failure`].
fn abort_for_peer(token: &CancelToken, e: &std::io::Error) -> Error {
    token.cancel();
    if is_timeout(e) {
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
    fn admission_is_capped_and_a_dropped_slot_is_free_again() {
        let registry = Arc::new(Registry::default());
        let first = registry.admit(2).unwrap();
        let _second = registry.admit(2).unwrap();
        assert_eq!(registry.admit(2).err(), Some(2), "the cap refuses a third");
        drop(first);
        assert_eq!(registry.lock().open.len(), 1, "drop releases the slot");
        assert!(registry.admit(2).is_ok());
    }

    #[test]
    fn a_drain_cancels_every_open_connection_and_refuses_new_ones() {
        let registry = Arc::new(Registry::default());
        let open = registry.admit(4).unwrap();
        assert!(!registry.is_draining());
        registry.start_drain();
        assert!(registry.is_draining());
        assert!(open.token.is_stopped(), "drain must trip open tokens");
        assert_eq!(
            registry.admit(4).err(),
            Some(1),
            "no admission while draining"
        );
    }

    #[test]
    fn waiting_for_idle_returns_once_the_last_slot_is_released() {
        let registry = Arc::new(Registry::default());
        let open = registry.admit(1).unwrap();
        let release = std::thread::spawn(move || drop(open));
        registry.wait_idle(Duration::from_secs(60));
        assert!(registry.lock().open.is_empty());
        release.join().unwrap();
        // With nothing open the wait returns at once, whatever its grace.
        registry.wait_idle(Duration::from_secs(60));
    }

    #[test]
    fn waiting_for_idle_gives_up_after_the_grace() {
        let registry = Arc::new(Registry::default());
        let _open = registry.admit(1).unwrap();
        registry.wait_idle(Duration::ZERO);
        assert_eq!(registry.lock().open.len(), 1);
    }

    #[test]
    fn failure_counters_classify_terminal_errors() {
        let registry = Registry::default();
        registry.count_failure(&Error::DeadlineExceeded("d".into()));
        registry.count_failure(&Error::Cancelled("c".into()));
        registry.count_failure(&Error::Cancelled("c".into()));
        registry.count_failure(&Error::WorkerPanicked("p".into()));
        registry.count_failure(&Error::Invalid("not a failure-domain error".into()));
        let conns = registry.lock();
        assert_eq!((conns.timeouts, conns.cancels, conns.panics), (1, 2, 1));
    }

    #[test]
    fn a_panic_in_request_handling_is_contained_to_its_connection() {
        let mut store = CorpusStore::new();
        store.load_spec("toy", "toy").unwrap();
        let handle = Server::new(store).spawn("127.0.0.1:0").unwrap();
        let client = crate::client::Client::new(handle.addr());
        let request = Request::new("toy", desq_core::toy::PATTERN, 2);

        handle.registry.lock().panic_before_reply = true;
        match client.query(&request).unwrap_err() {
            crate::ServeError::Remote(Error::WorkerPanicked(msg)) => {
                assert!(msg.contains("before the reply"), "{msg}");
            }
            other => panic!("expected Remote(WorkerPanicked), got {other}"),
        }
        // The server keeps serving, and the next metrics frame counts the
        // contained panic.
        let ok = client.query(&request).unwrap();
        assert_eq!(ok.patterns.len(), 3);
        assert_eq!(ok.stats.panics, 1);
        handle.shutdown();
    }

    #[test]
    fn a_client_that_stops_reading_counts_one_timeout() {
        let registry = Registry::default();
        let token = CancelToken::new();
        let stalled = std::io::Error::from(std::io::ErrorKind::WouldBlock);
        let err = abort_for_peer(&token, &stalled);
        registry.count_failure(&err);
        assert!(token.is_stopped());
        assert!(matches!(err, Error::DeadlineExceeded(_)), "{err}");
        assert_eq!(registry.lock().timeouts, 1);
    }
}
