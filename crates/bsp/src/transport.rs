//! Pluggable shuffle transports: how a BSP job's map and reduce tasks are
//! scheduled and how their bytes move.
//!
//! [`ShuffleTransport`] abstracts exactly the byte-space boundary of the
//! engine: map tasks produce [`MapTaskOut`] (already-encoded bucket
//! chunks), the engine's one reduce ([`ReduceFn`]) turns buckets of chunks
//! into encoded outputs. [`InProcess`] runs both on the engine's own
//! threads, handing the reduce every bucket at once; a [`NetCoordinator`]
//! farms the *same* tasks out to worker processes over TCP, one bucket per
//! reduce task.
//!
//! # Wire protocol
//!
//! [`Frame`] is a message enum over [`desq_core::wire`] — the frame
//! grammar (`varint(payload_len) payload`, length validated against
//! [`MAX_NET_FRAME`] *before* any allocation), the byte-list
//! helpers and the [`Error`] codec are the ones the `desq-serve` protocol
//! uses. A connection starts with the worker's [`Frame::Hello`] carrying
//! the protocol version; the coordinator silently drops a peer of another
//! version (the worker sees the close, reconnects, and eventually reports
//! [`Error::PeerUnreachable`] when its retry budget is spent).
//!
//! # Failure model
//!
//! - **Backpressure**: at most two task frames (`CREDITS`) are in flight
//!   per peer link; a slow worker throttles its own assignment stream
//!   instead of unbounded queueing.
//! - **Liveness**: every read on a shuffle link carries a deadline
//!   ([`NetConfig::liveness`]); both sides send [`Frame::Heartbeat`] on
//!   idle links every quarter of that window. A peer silent past the
//!   window is declared dead (`MiningMetrics::peer_timeouts`).
//! - **Re-execution**: map and reduce tasks are pure over immutable
//!   partitions, so when a peer dies mid-superstep its in-flight tasks are
//!   simply re-queued to surviving peers (`MiningMetrics::retried_tasks`).
//!   Results are deduplicated by `(epoch, task)` — first completion wins,
//!   a stale duplicate from a peer presumed dead is ignored.
//! - **Reconnect**: workers reconnect under the shared
//!   [`desq_core::retry::RetryPolicy`] schedule with a global attempt
//!   budget; a coordinator with zero live peers for
//!   [`NetConfig::peer_wait`] fails the job with a typed
//!   [`Error::PeerUnreachable`] instead of hanging.
//!
//! Failpoints (feature `failpoints`): `net::send_frame` before every frame
//! write, `net::accept` on every accepted connection, `net::heartbeat`
//! before every worker heartbeat — see `desq_core::fault`.

use std::collections::VecDeque;
use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use desq_core::codec::{read_bytes, read_varint, write_bytes, write_varint};
use desq_core::mining::panic_message;
use desq_core::retry::RetryPolicy;
use desq_core::wire::{self, read_byte_list, take_u8, write_byte_list, MAX_LIST_LEN};
use desq_core::{Error, Result};

use crate::engine::{Engine, MapTaskOut};

/// Version byte of the shuffle wire protocol. Bump on any frame layout
/// change; the coordinator rejects mismatched workers at the handshake.
/// (v2: [`Frame::TaskErr`] carries the shared [`desq_core::wire`] error
/// table instead of an eight-kind private one; v3: [`Frame::Hello`] carries
/// only the version — the job fingerprint that every process sent as 0 is
/// gone; v4: [`Frame::ReduceOut`] patterns are item sequences in the
/// `desq_core::codec` delta codec, each followed by its frequency.)
pub const NET_PROTOCOL_VERSION: u8 = 4;

/// Counters of one transport phase, merged into
/// [`MiningMetrics`](desq_core::MiningMetrics) by the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Tasks re-queued after their assigned peer died or timed out.
    pub retried_tasks: u64,
    /// Peers declared dead for silence past the liveness window.
    pub peer_timeouts: u64,
    /// Wall nanoseconds of the slowest single task (straggler).
    pub max_task_nanos: u64,
    /// Reduce tasks: key-group tasks in process, shipped buckets remotely.
    pub tasks: u64,
    /// Key-group tasks stolen between this process's reduce workers.
    pub steals: u64,
}

/// How a BSP job's tasks are executed and its shuffle bytes moved.
///
/// Both phases receive the engine's closure that runs them in this
/// process — the in-process transport calls it directly; a networked
/// transport ignores it and ships task ids or buckets to workers that hold
/// the same closures. Implementations must return exactly one result per
/// map task and per bucket, in order, plus the phase's counters.
pub trait ShuffleTransport: Sync {
    /// Executes map tasks `0..tasks`, returning their outputs in task order.
    fn map_phase(
        &self,
        engine: &Engine,
        tasks: usize,
        local: &(dyn Fn(usize) -> Result<MapTaskOut> + Sync),
    ) -> Result<(Vec<MapTaskOut>, PhaseStats)>;

    /// Reduces the regrouped chunks (one list per bucket), returning each
    /// bucket's encoded outputs in bucket order.
    fn reduce_phase(
        &self,
        engine: &Engine,
        chunks: Vec<Vec<Vec<u8>>>,
        reduce: &ReduceFn<'_>,
    ) -> Result<(Vec<Vec<u8>>, PhaseStats)>;
}

/// The engine's one reduce over a slice of buckets (each a list of
/// chunks): each bucket's encoded outputs, in order, plus the counters.
/// [`InProcess`] hands it every bucket, a worker the one bucket of a
/// [`Frame::ReduceTask`].
pub type ReduceFn<'a> = dyn Fn(&[Vec<Vec<u8>>]) -> Result<(Vec<Vec<u8>>, PhaseStats)> + Sync + 'a;

/// The default transport: every task runs on the engine's own workers and
/// bytes never leave the process.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcess;

impl ShuffleTransport for InProcess {
    fn map_phase(
        &self,
        engine: &Engine,
        tasks: usize,
        local: &(dyn Fn(usize) -> Result<MapTaskOut> + Sync),
    ) -> Result<(Vec<MapTaskOut>, PhaseStats)> {
        let run = engine.run_tasks(tasks, local)?;
        // No peers: only the straggler is worth reporting.
        let stats = PhaseStats {
            max_task_nanos: run.max_task_nanos,
            ..PhaseStats::default()
        };
        Ok((run.results, stats))
    }

    fn reduce_phase(
        &self,
        _engine: &Engine,
        chunks: Vec<Vec<Vec<u8>>>,
        reduce: &ReduceFn<'_>,
    ) -> Result<(Vec<Vec<u8>>, PhaseStats)> {
        reduce(&chunks)
    }
}

// ---------------------------------------------------------------- frames

/// One shuffle-link message. Task frames carry the phase `epoch` so that
/// results of a re-executed superstep can never be confused with stale
/// results from a peer that was presumed dead and answered late.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Worker handshake: the protocol version.
    Hello { version: u8 },
    /// Keepalive on an idle link (either direction).
    Heartbeat,
    /// Coordinator → worker: run map task `task` of phase `epoch`.
    MapTask { epoch: u64, task: u64 },
    /// Worker → coordinator: map task output (bucket chunks + accounting).
    MapOut {
        epoch: u64,
        task: u64,
        emitted: u64,
        shuffled: u64,
        payloads: u64,
        task_nanos: u64,
        buckets: Vec<Vec<u8>>,
    },
    /// Coordinator → worker: reduce bucket `task` over these chunks.
    ReduceTask {
        epoch: u64,
        task: u64,
        chunks: Vec<Vec<u8>>,
    },
    /// Worker → coordinator: one bucket's encoded reduce outputs.
    ReduceOut {
        epoch: u64,
        task: u64,
        task_nanos: u64,
        out: Vec<u8>,
    },
    /// Worker → coordinator: the task failed deterministically; the job
    /// aborts with this error (re-execution would fail identically).
    TaskErr { epoch: u64, task: u64, error: Error },
    /// Coordinator → worker: job over, disconnect cleanly.
    End,
}

impl Frame {
    /// Serializes the frame payload (tag byte + fields, no length prefix).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Hello { version } => {
                buf.push(1);
                buf.push(*version);
            }
            Frame::Heartbeat => buf.push(2),
            Frame::MapTask { epoch, task } => {
                buf.push(3);
                write_varint(buf, *epoch);
                write_varint(buf, *task);
            }
            Frame::MapOut {
                epoch,
                task,
                emitted,
                shuffled,
                payloads,
                task_nanos,
                buckets,
            } => {
                buf.push(4);
                write_varint(buf, *epoch);
                write_varint(buf, *task);
                write_varint(buf, *emitted);
                write_varint(buf, *shuffled);
                write_varint(buf, *payloads);
                write_varint(buf, *task_nanos);
                write_byte_list(buf, buckets);
            }
            Frame::ReduceTask {
                epoch,
                task,
                chunks,
            } => {
                buf.push(5);
                write_varint(buf, *epoch);
                write_varint(buf, *task);
                write_byte_list(buf, chunks);
            }
            Frame::ReduceOut {
                epoch,
                task,
                task_nanos,
                out,
            } => {
                buf.push(6);
                write_varint(buf, *epoch);
                write_varint(buf, *task);
                write_varint(buf, *task_nanos);
                write_bytes(buf, out);
            }
            Frame::TaskErr { epoch, task, error } => {
                buf.push(7);
                write_varint(buf, *epoch);
                write_varint(buf, *task);
                wire::encode_error(error, buf);
            }
            Frame::End => buf.push(8),
        }
    }

    /// Decodes one frame payload, rejecting trailing garbage.
    pub fn decode(payload: &[u8]) -> Result<Frame> {
        let mut s = payload;
        let tag = take_u8(&mut s, "frame tag")?;
        let frame = match tag {
            1 => Frame::Hello {
                version: take_u8(&mut s, "hello version")?,
            },
            2 => Frame::Heartbeat,
            3 => Frame::MapTask {
                epoch: read_varint(&mut s)?,
                task: read_varint(&mut s)?,
            },
            4 => Frame::MapOut {
                epoch: read_varint(&mut s)?,
                task: read_varint(&mut s)?,
                emitted: read_varint(&mut s)?,
                shuffled: read_varint(&mut s)?,
                payloads: read_varint(&mut s)?,
                task_nanos: read_varint(&mut s)?,
                buckets: read_byte_list(&mut s)?,
            },
            5 => Frame::ReduceTask {
                epoch: read_varint(&mut s)?,
                task: read_varint(&mut s)?,
                chunks: read_byte_list(&mut s)?,
            },
            6 => Frame::ReduceOut {
                epoch: read_varint(&mut s)?,
                task: read_varint(&mut s)?,
                task_nanos: read_varint(&mut s)?,
                out: read_bytes(&mut s)?.to_vec(),
            },
            7 => Frame::TaskErr {
                epoch: read_varint(&mut s)?,
                task: read_varint(&mut s)?,
                error: wire::decode_error(&mut s)?,
            },
            8 => Frame::End,
            t => return Err(Error::Decode(format!("unknown frame tag {t}"))),
        };
        wire::expect_end(s, "shuffle frame")?;
        Ok(frame)
    }

    /// `(epoch, task, task_nanos)` of a task-output frame, `None` for every
    /// other kind.
    fn output_header(&self) -> Option<(u64, u64, u64)> {
        match self {
            Frame::MapOut {
                epoch,
                task,
                task_nanos,
                ..
            }
            | Frame::ReduceOut {
                epoch,
                task,
                task_nanos,
                ..
            } => Some((*epoch, *task, *task_nanos)),
            _ => None,
        }
    }

    /// Full wire bytes: `varint(payload_len) payload`. Fails (without
    /// sending anything) when the payload exceeds `max_frame`.
    fn to_wire(&self, max_frame: usize) -> io::Result<Vec<u8>> {
        let mut payload = Vec::new();
        self.encode(&mut payload);
        let mut framed = Vec::with_capacity(payload.len() + 10);
        wire::write_frame(&mut framed, &payload, max_frame)?;
        Ok(framed)
    }
}

/// Writes pre-serialized wire bytes, with the `net::send_frame` failpoint
/// in front (a failpoint `Err` surfaces as an I/O error — a broken link —
/// and an `Exit` action kills the process mid-send, which is exactly how
/// the chaos suite murders a worker).
fn send_wire<W: Write>(w: &mut W, framed: &[u8]) -> io::Result<()> {
    #[cfg(feature = "failpoints")]
    desq_core::fault::point("net::send_frame").map_err(|e| io::Error::other(e.to_string()))?;
    w.write_all(framed)?;
    w.flush()
}

/// Writes one length-prefixed frame.
pub fn write_net_frame<W: Write>(w: &mut W, frame: &Frame, max_frame: usize) -> io::Result<()> {
    send_wire(w, &frame.to_wire(max_frame)?)
}

/// Reads one length-prefixed frame; oversized or overlong length prefixes
/// are rejected *before* the payload buffer is allocated.
pub fn read_net_frame<R: Read>(r: &mut R, max_frame: usize) -> io::Result<Frame> {
    let payload = wire::read_frame(r, max_frame)?;
    Frame::decode(&payload).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

// ------------------------------------------------------------ coordinator

/// Hard cap on a single shuffle frame's payload bytes, enforced before
/// allocation on reads and before transmission on writes.
pub const MAX_NET_FRAME: usize = 64 << 20;

/// Task frames in flight per peer link (bounded-credit backpressure).
const CREDITS: usize = 2;

/// Tuning knobs of a networked shuffle link.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// A peer silent for this long is declared dead. Idle links carry a
    /// heartbeat every quarter of it, so one lost heartbeat never trips the
    /// window.
    pub liveness: Duration,
    /// Reconnect schedule and budget for workers.
    pub retry: RetryPolicy,
    /// How long the coordinator tolerates *zero* live workers before
    /// failing the job with [`Error::PeerUnreachable`].
    pub peer_wait: Duration,
}

impl NetConfig {
    /// The heartbeat interval of idle links: a quarter of the liveness
    /// window.
    fn heartbeat(&self) -> Duration {
        self.liveness / 4
    }
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            liveness: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            peer_wait: Duration::from_secs(10),
        }
    }
}

enum Event {
    Frame { peer: usize, frame: Frame },
    Dead { peer: usize, timed_out: bool },
}

struct Peer {
    stream: TcpStream,
    alive: bool,
    /// Hello received and validated.
    ready: bool,
    in_flight: Vec<u64>,
    last_write: Instant,
}

/// The driver's bookkeeping of one phase: which tasks have a result (of
/// the phase's type `R`), which still wait for a peer, and the counters.
struct Phase<R> {
    epoch: u64,
    results: Vec<Option<R>>,
    queue: VecDeque<u64>,
    done: usize,
    stats: PhaseStats,
}

impl<R> Phase<R> {
    /// Marks a peer dead and re-queues its unfinished in-flight tasks.
    fn fail_peer(&mut self, p: &mut Peer, timed_out: bool) {
        if !p.alive {
            return;
        }
        p.alive = false;
        let _ = p.stream.shutdown(Shutdown::Both);
        for t in p.in_flight.drain(..) {
            if self.results.get(t as usize).is_some_and(Option::is_none) {
                self.queue.push_back(t);
                self.stats.retried_tasks += 1;
            }
        }
        if timed_out {
            self.stats.peer_timeouts += 1;
        }
    }
}

/// The driver side of a networked BSP job: accepts worker connections and
/// schedules the job's task frames over them.
///
/// Peers persist across the map and reduce phases of one job; the
/// coordinator is single-job ([`ShuffleTransport::reduce_phase`] ends it
/// by sending [`Frame::End`] to every live worker). The driver process
/// does not execute tasks itself — it is a pure scheduler, so at least one
/// worker must join within [`NetConfig::peer_wait`].
pub struct NetCoordinator {
    listener: TcpListener,
    cfg: NetConfig,
    peers: Mutex<Vec<Peer>>,
    epoch: AtomicU64,
    tx: Sender<Event>,
    rx: Mutex<Receiver<Event>>,
    finished: AtomicBool,
}

impl NetCoordinator {
    /// Binds the coordinator's listening socket (use port 0 for an
    /// OS-assigned port, then [`local_addr`](Self::local_addr)).
    pub fn bind(addr: impl ToSocketAddrs, cfg: NetConfig) -> io::Result<NetCoordinator> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let (tx, rx) = channel();
        Ok(NetCoordinator {
            listener,
            cfg,
            peers: Mutex::new(Vec::new()),
            epoch: AtomicU64::new(1),
            tx,
            rx: Mutex::new(rx),
            finished: AtomicBool::new(false),
        })
    }

    /// The address workers should connect to.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts any pending worker connections (non-blocking) and spawns a
    /// reader thread per peer.
    fn accept_peers(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _addr)) => {
                    #[cfg(feature = "failpoints")]
                    if desq_core::fault::point("net::accept").is_err() {
                        drop(stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_write_timeout(Some(self.cfg.liveness));
                    let Ok(rstream) = stream.try_clone() else {
                        continue;
                    };
                    let id = {
                        let mut peers = lock(&self.peers);
                        peers.push(Peer {
                            stream,
                            alive: true,
                            ready: false,
                            in_flight: Vec::new(),
                            last_write: Instant::now(),
                        });
                        peers.len() - 1
                    };
                    let tx = self.tx.clone();
                    let liveness = self.cfg.liveness;
                    thread::spawn(move || reader_loop(id, rstream, liveness, tx));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Hands queued tasks to live peers, at most [`CREDITS`] in flight each.
    fn assign<R>(&self, wire: &[Vec<u8>], phase: &mut Phase<R>) {
        let mut peers = lock(&self.peers);
        for p in peers.iter_mut() {
            if !p.alive || !p.ready {
                continue;
            }
            while p.in_flight.len() < CREDITS {
                // Skip tasks that were completed elsewhere while re-queued.
                let Some(t) = phase.queue.pop_front() else {
                    return;
                };
                if phase.results[t as usize].is_some() {
                    continue;
                }
                match send_wire(&mut p.stream, &wire[t as usize]) {
                    Ok(()) => {
                        p.in_flight.push(t);
                        p.last_write = Instant::now();
                    }
                    Err(_) => {
                        phase.queue.push_front(t);
                        phase.fail_peer(p, false);
                        break;
                    }
                }
            }
        }
    }

    /// Heartbeats peers whose link has been idle for a heartbeat interval.
    fn heartbeat_idle<R>(&self, phase: &mut Phase<R>) {
        let Ok(hb) = Frame::Heartbeat.to_wire(MAX_NET_FRAME) else {
            return;
        };
        let mut peers = lock(&self.peers);
        for p in peers.iter_mut() {
            if p.alive && p.ready && p.last_write.elapsed() >= self.cfg.heartbeat() {
                match send_wire(&mut p.stream, &hb) {
                    Ok(()) => p.last_write = Instant::now(),
                    Err(_) => phase.fail_peer(p, false),
                }
            }
        }
    }

    /// `take` extracts this phase's result from a task-output frame and
    /// fails typed on the other phase's kind.
    fn on_event<R>(
        &self,
        ev: Event,
        take: &dyn Fn(Frame) -> Result<R>,
        phase: &mut Phase<R>,
    ) -> Result<()> {
        match ev {
            Event::Frame { peer, frame } => match frame {
                Frame::Hello { version } => {
                    let mut peers = lock(&self.peers);
                    let p = &mut peers[peer];
                    if version == NET_PROTOCOL_VERSION {
                        p.ready = true;
                    } else {
                        // Another protocol version: drop it; the worker sees
                        // the close and gives up once its retry budget is
                        // spent.
                        p.alive = false;
                        let _ = p.stream.shutdown(Shutdown::Both);
                    }
                }
                Frame::Heartbeat => {}
                // A stale-epoch error (from a re-executed task that already
                // completed) falls through to the ignore arm below.
                Frame::TaskErr {
                    epoch: e, error, ..
                } if e == phase.epoch => {
                    return Err(error);
                }
                // Anything else that is not a task output is protocol noise
                // (a task frame flowing backwards): ignore.
                f => {
                    let Some((e, task, nanos)) = f.output_header() else {
                        return Ok(());
                    };
                    if let Some(p) = lock(&self.peers).get_mut(peer) {
                        p.in_flight.retain(|&x| x != task);
                    }
                    // Stale-epoch or duplicate results are dropped: first
                    // completion of (epoch, task) wins.
                    let open = phase
                        .results
                        .get(task as usize)
                        .is_some_and(Option::is_none);
                    if e == phase.epoch && open {
                        phase.results[task as usize] = Some(take(f)?);
                        phase.stats.max_task_nanos = phase.stats.max_task_nanos.max(nanos);
                        phase.done += 1;
                    }
                }
            },
            Event::Dead { peer, timed_out } => {
                let mut peers = lock(&self.peers);
                phase.fail_peer(&mut peers[peer], timed_out);
            }
        }
        Ok(())
    }

    /// Drives one phase to completion: assigns `task_frames` to peers,
    /// re-queues on peer death, dedupes results by `(epoch, task)` and
    /// extracts each with `take`.
    fn run_phase<R>(
        &self,
        engine: &Engine,
        epoch: u64,
        task_frames: &[Frame],
        take: &dyn Fn(Frame) -> Result<R>,
    ) -> Result<(Vec<R>, PhaseStats)> {
        let n = task_frames.len();
        let mut wire: Vec<Vec<u8>> = Vec::with_capacity(n);
        for f in task_frames {
            wire.push(f.to_wire(MAX_NET_FRAME).map_err(|e| {
                Error::ResourceExhausted(format!("task frame exceeds the frame cap: {e}"))
            })?);
        }
        // Stale in-flight bookkeeping from a previous phase (a peer that
        // kept a duplicate after the phase completed) must not leak task
        // ids into this phase's queue.
        for p in lock(&self.peers).iter_mut() {
            p.in_flight.clear();
        }
        let mut phase = Phase {
            epoch,
            results: (0..n).map(|_| None).collect(),
            queue: (0..n as u64).collect(),
            done: 0,
            stats: PhaseStats::default(),
        };
        let rx = lock(&self.rx);
        let mut no_peer_since = Instant::now();
        loop {
            engine.checkpoint()?;
            self.accept_peers();
            while let Ok(ev) = rx.try_recv() {
                self.on_event(ev, take, &mut phase)?;
            }
            if phase.done == n {
                break;
            }
            self.assign(&wire, &mut phase);
            self.heartbeat_idle(&mut phase);
            // A job with no live ready peer makes no progress; fail it
            // with a typed error instead of hanging forever.
            let live = lock(&self.peers)
                .iter()
                .filter(|p| p.alive && p.ready)
                .count();
            if live > 0 {
                no_peer_since = Instant::now();
            } else if no_peer_since.elapsed() >= self.cfg.peer_wait {
                return Err(Error::PeerUnreachable(format!(
                    "no live worker for {:?} ({} of {n} tasks outstanding)",
                    self.cfg.peer_wait,
                    n - phase.done,
                )));
            }
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(ev) => {
                    self.on_event(ev, take, &mut phase)?;
                }
                Err(_) => continue,
            }
        }
        let results = phase
            .results
            .into_iter()
            .map(|r| r.expect("phase completed with every task accounted"))
            .collect();
        Ok((results, phase.stats))
    }

    /// Ends the job: every live worker gets an [`Frame::End`]. Idempotent;
    /// also runs on drop so an aborted job releases its workers.
    fn finish(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        let Ok(end) = Frame::End.to_wire(MAX_NET_FRAME) else {
            return;
        };
        let mut peers = lock(&self.peers);
        for p in peers.iter_mut() {
            if p.alive {
                let _ = send_wire(&mut p.stream, &end);
            }
        }
    }
}

impl Drop for NetCoordinator {
    fn drop(&mut self) {
        self.finish();
    }
}

impl ShuffleTransport for NetCoordinator {
    fn map_phase(
        &self,
        engine: &Engine,
        tasks: usize,
        _local: &(dyn Fn(usize) -> Result<MapTaskOut> + Sync),
    ) -> Result<(Vec<MapTaskOut>, PhaseStats)> {
        // A `MapOut` lists a chunk per reducer, a `ReduceTask` one per map
        // task: past the receiver's list cap no such frame would decode.
        let reducers = engine.reducers();
        if tasks.max(reducers) > MAX_LIST_LEN {
            return Err(Error::Invalid(format!(
                "{tasks} map tasks / {reducers} reducers exceed the list cap {MAX_LIST_LEN}"
            )));
        }
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed);
        let frames: Vec<Frame> = (0..tasks as u64)
            .map(|task| Frame::MapTask { epoch, task })
            .collect();
        self.run_phase(engine, epoch, &frames, &|f| match f {
            Frame::MapOut {
                emitted,
                shuffled,
                payloads,
                buckets,
                ..
            } if buckets.len() == reducers => Ok(MapTaskOut {
                buckets,
                emitted,
                shuffled,
                payloads,
            }),
            Frame::MapOut { buckets, .. } => Err(Error::Decode(format!(
                "map output has {} buckets, engine expects {reducers}",
                buckets.len()
            ))),
            _ => Err(Error::Decode(
                "a peer answered a map task with a reduce output".into(),
            )),
        })
    }

    fn reduce_phase(
        &self,
        engine: &Engine,
        chunks: Vec<Vec<Vec<u8>>>,
        _reduce: &ReduceFn<'_>,
    ) -> Result<(Vec<Vec<u8>>, PhaseStats)> {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed);
        let frames: Vec<Frame> = chunks
            .into_iter()
            .enumerate()
            .map(|(b, chunks)| Frame::ReduceTask {
                epoch,
                task: b as u64,
                chunks,
            })
            .collect();
        let outcome = self.run_phase(engine, epoch, &frames, &|f| match f {
            Frame::ReduceOut { out, .. } => Ok(out),
            _ => Err(Error::Decode(
                "a peer answered a reduce task with a map output".into(),
            )),
        });
        // The reduce phase is the job's last: release the workers whether
        // it succeeded or not.
        self.finish();
        let (outs, stats) = outcome?;
        let stats = PhaseStats {
            tasks: outs.len() as u64,
            ..stats
        };
        Ok((outs, stats))
    }
}

fn reader_loop(peer: usize, stream: TcpStream, liveness: Duration, tx: Sender<Event>) {
    let _ = stream.set_read_timeout(Some(liveness));
    let mut r = BufReader::new(stream);
    loop {
        match read_net_frame(&mut r, MAX_NET_FRAME) {
            Ok(frame) => {
                if tx.send(Event::Frame { peer, frame }).is_err() {
                    return;
                }
            }
            Err(e) => {
                let timed_out = matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                );
                let _ = tx.send(Event::Dead { peer, timed_out });
                return;
            }
        }
    }
}

// ---------------------------------------------------------------- worker

/// Locks `m`, recovering from poisoning. The guarded values (the peer
/// table, the event receiver, a worker's write half) are updated one field
/// or one whole frame at a time, so a thread that panicked under the lock
/// left nothing half-written that the liveness checks would not catch.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn write_frame_locked(writer: &Mutex<TcpStream>, frame: &Frame) -> io::Result<()> {
    let wire = frame.to_wire(MAX_NET_FRAME)?;
    send_wire(&mut *lock(writer), &wire)
}

/// One worker connection: handshake, serve tasks until [`Frame::End`].
/// `Ok(())` means a clean end; any error means the link failed and the
/// caller should reconnect.
fn serve_coordinator(
    stream: TcpStream,
    cfg: &NetConfig,
    on_map: &dyn Fn(u64) -> Result<MapTaskOut>,
    on_reduce: &ReduceFn<'_>,
) -> io::Result<()> {
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(cfg.liveness))?;
    stream.set_write_timeout(Some(cfg.liveness))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer = Arc::new(Mutex::new(stream));
    write_frame_locked(
        &writer,
        &Frame::Hello {
            version: NET_PROTOCOL_VERSION,
        },
    )?;

    // Heartbeats come from a dedicated thread over the shared writer so a
    // long map/reduce task cannot starve the coordinator's liveness window.
    let stop = Arc::new(AtomicBool::new(false));
    let hb_thread = {
        let writer = Arc::clone(&writer);
        let stop = Arc::clone(&stop);
        let interval = cfg.heartbeat();
        thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                thread::sleep(interval);
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                #[cfg(feature = "failpoints")]
                if desq_core::fault::point("net::heartbeat").is_err() {
                    continue; // suppressed heartbeat, not a dead link
                }
                if write_frame_locked(&writer, &Frame::Heartbeat).is_err() {
                    return; // the main loop will notice the broken link
                }
            }
        })
    };

    let outcome = (|| -> io::Result<()> {
        loop {
            let reply = match read_net_frame(&mut reader, MAX_NET_FRAME)? {
                Frame::MapTask { epoch, task } => {
                    let started = Instant::now();
                    let run = catch_unwind(AssertUnwindSafe(|| on_map(task)))
                        .unwrap_or_else(|p| Err(Error::WorkerPanicked(panic_message(p.as_ref()))));
                    match run {
                        Ok(o) => Frame::MapOut {
                            epoch,
                            task,
                            emitted: o.emitted,
                            shuffled: o.shuffled,
                            payloads: o.payloads,
                            task_nanos: started.elapsed().as_nanos() as u64,
                            buckets: o.buckets,
                        },
                        Err(error) => Frame::TaskErr { epoch, task, error },
                    }
                }
                Frame::ReduceTask {
                    epoch,
                    task,
                    chunks,
                } => {
                    let started = Instant::now();
                    let one_bucket = || {
                        let (mut outs, _) = on_reduce(std::slice::from_ref(&chunks))?;
                        Ok(outs.swap_remove(0))
                    };
                    let run = catch_unwind(AssertUnwindSafe(one_bucket))
                        .unwrap_or_else(|p| Err(Error::WorkerPanicked(panic_message(p.as_ref()))));
                    match run {
                        Ok(out) => Frame::ReduceOut {
                            epoch,
                            task,
                            task_nanos: started.elapsed().as_nanos() as u64,
                            out,
                        },
                        Err(error) => Frame::TaskErr { epoch, task, error },
                    }
                }
                Frame::Heartbeat => continue,
                Frame::End => return Ok(()),
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unexpected frame from coordinator: {other:?}"),
                    ))
                }
            };
            write_frame_locked(&writer, &reply)?;
        }
    })();
    stop.store(true, Ordering::SeqCst);
    let _ = hb_thread.join();
    outcome
}

/// The worker side of a networked job: connect (and reconnect, under the
/// retry budget) to the coordinator and serve tasks until it ends the job.
/// Used through [`Engine::run_worker`](crate::Engine::run_worker).
pub(crate) fn worker_loop(
    addr: SocketAddr,
    cfg: &NetConfig,
    on_map: &dyn Fn(u64) -> Result<MapTaskOut>,
    on_reduce: &ReduceFn<'_>,
) -> Result<()> {
    // One global budget across the whole job — a link that flakes on every
    // exchange must not live forever by resetting its counter.
    let mut attempts: u32 = 0;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => match serve_coordinator(stream, cfg, on_map, on_reduce) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    if attempts >= cfg.retry.max_retries {
                        return Err(Error::PeerUnreachable(format!(
                            "coordinator {addr}: link failed ({e}) with the reconnect budget spent"
                        )));
                    }
                }
            },
            Err(e) => {
                if attempts >= cfg.retry.max_retries {
                    return Err(Error::PeerUnreachable(format!(
                        "coordinator {addr}: {e} after {attempts} reconnect attempts"
                    )));
                }
            }
        }
        thread::sleep(cfg.retry.backoff(attempts));
        attempts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: &Frame) -> Frame {
        let mut wire = Vec::new();
        write_net_frame(&mut wire, f, 1 << 20).unwrap();
        let got = read_net_frame(&mut wire.as_slice(), 1 << 20).unwrap();
        assert_eq!(&got, f);
        got
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(&Frame::Hello {
            version: NET_PROTOCOL_VERSION,
        });
        roundtrip(&Frame::Heartbeat);
        roundtrip(&Frame::MapTask { epoch: 3, task: 7 });
        roundtrip(&Frame::MapOut {
            epoch: 3,
            task: 7,
            emitted: 100,
            shuffled: 10,
            payloads: 4,
            task_nanos: 123_456,
            buckets: vec![vec![], vec![1, 2, 3], vec![0xFF; 70]],
        });
        roundtrip(&Frame::ReduceTask {
            epoch: 4,
            task: 0,
            chunks: vec![vec![9; 5], vec![]],
        });
        roundtrip(&Frame::ReduceOut {
            epoch: 4,
            task: 0,
            task_nanos: 1,
            out: vec![1, 0, 255],
        });
        for error in [
            Error::Parse {
                msg: "bad pexp".into(),
                pos: 3,
            },
            Error::ResourceExhausted("mem".into()),
            Error::Invalid("other".into()),
            Error::PeerTimedOut("w3".into()),
        ] {
            roundtrip(&Frame::TaskErr {
                epoch: 9,
                task: 2,
                error,
            });
        }
        roundtrip(&Frame::End);
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        let fat = Frame::ReduceOut {
            epoch: 1,
            task: 0,
            task_nanos: 0,
            out: vec![0; 4096],
        };
        // Write side: refuses to transmit.
        let mut sink = Vec::new();
        let err = write_net_frame(&mut sink, &fat, 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(sink.is_empty(), "nothing may hit the wire");
        // Read side: a hostile length prefix is rejected before allocation.
        let mut wire = Vec::new();
        write_varint(&mut wire, u64::MAX);
        let err = read_net_frame(&mut wire.as_slice(), 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = Vec::new();
        Frame::Heartbeat.encode(&mut payload);
        payload.push(0);
        assert!(matches!(
            Frame::decode(&payload),
            Err(Error::Decode(m)) if m.contains("trailing")
        ));
    }
}
