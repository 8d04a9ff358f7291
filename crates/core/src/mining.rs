//! The unified mining API substrate: one [`Miner`] trait, one
//! [`MiningResult`], one validation path — shared by all eight algorithms
//! of this reproduction (DESQ-DFS, DESQ-COUNT, PrefixSpan, the gap miner,
//! NAÏVE, SEMI-NAÏVE, D-SEQ, D-CAND) plus the LASH and MLlib baselines.
//!
//! The paper's value proposition is that *one* declarative constraint
//! language drives *many* execution strategies. This module is the
//! corresponding *request/response* surface: a [`MiningContext`] describes
//! what to mine (database, dictionary, compiled constraint, threshold,
//! [`Limits`], parallelism), every algorithm implements [`Miner`], and every
//! run returns a [`MiningResult`] whose [`MiningMetrics`] are uniform across
//! sequential and distributed execution.
//!
//! The ergonomic entry point — a builder that compiles pattern expressions
//! and dispatches on an algorithm enum — lives in the facade crate
//! (`desq::session::MiningSession`); this module holds only the pieces the
//! algorithm crates need to implement.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::sched::WorkerStats;
use crate::{Dictionary, Error, Fst, Result, Sequence, SequenceDb};

/// Default per-sequence work budget (candidates generated, accepting runs
/// walked, NFA expansion steps — whatever the algorithm's unit of work is).
///
/// Large enough that realistic workloads never hit it, small enough that a
/// runaway constraint (e.g. `T1` at very low σ) aborts with a descriptive
/// [`Error::ResourceExhausted`] instead of exhausting memory — the analog
/// of the paper's executor memory limit.
pub const DEFAULT_BUDGET: usize = 10_000_000;

/// Resource limits of one mining run, validated once at session build time.
///
/// Replaces the bare positional `budget: usize` arguments of the historical
/// free functions (`desq_count(db, fst, dict, sigma, budget)`), whose
/// call-site ordering was a foot-gun.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Per-sequence work budget; exceeding it aborts the run with
    /// [`Error::ResourceExhausted`]. See [`DEFAULT_BUDGET`].
    pub budget: usize,
    /// Upper bound on the number of result patterns. Exceeding it is an
    /// error (never a silent truncation): the run aborts with
    /// [`Error::ResourceExhausted`] naming the limit.
    pub max_patterns: usize,
    /// Wall-clock deadline of the whole run, measured from its start.
    /// Exceeding it aborts with [`Error::DeadlineExceeded`] — the
    /// wall-clock complement of the work-unit `budget`. `None` (the
    /// default) means unbounded time.
    pub deadline: Option<Duration>,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            budget: DEFAULT_BUDGET,
            max_patterns: usize::MAX,
            deadline: None,
        }
    }
}

impl Limits {
    /// Unbounded limits (the historical `usize::MAX` behavior).
    pub fn unbounded() -> Limits {
        Limits {
            budget: usize::MAX,
            max_patterns: usize::MAX,
            deadline: None,
        }
    }

    /// Overrides the work budget.
    pub fn with_budget(mut self, budget: usize) -> Limits {
        self.budget = budget;
        self
    }

    /// Overrides the pattern cap.
    pub fn with_max_patterns(mut self, max_patterns: usize) -> Limits {
        self.max_patterns = max_patterns;
        self
    }

    /// Sets a wall-clock deadline for the run.
    pub fn with_deadline(mut self, deadline: Duration) -> Limits {
        self.deadline = Some(deadline);
        self
    }

    /// Validates the limits (all bounds must be positive).
    pub fn validate(&self) -> Result<()> {
        if self.budget == 0 {
            return Err(Error::Invalid(
                "work budget must be positive (use Limits::unbounded() for no limit)".into(),
            ));
        }
        if self.max_patterns == 0 {
            return Err(Error::Invalid(
                "max_patterns must be positive (use Limits::unbounded() for no limit)".into(),
            ));
        }
        if self.deadline == Some(Duration::ZERO) {
            return Err(Error::Invalid(
                "deadline must be positive (omit it for unbounded time)".into(),
            ));
        }
        Ok(())
    }
}

/// Why a [`CancelToken`] tripped.
const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;
const PANICKED: u8 = 3;

struct CancelInner {
    state: AtomicU8,
    /// Armed at most once (first arm wins); read lock-free afterwards.
    deadline: OnceLock<(Instant, Duration)>,
    /// A caller-supplied note attached to the first trip (e.g. the panic
    /// payload); set best-effort before the state flips.
    note: OnceLock<String>,
}

/// Cooperative cancellation shared by every worker of one mining run.
///
/// A token is a cheap [`Arc`]-backed handle: the session (or the serving
/// layer) creates one, threads it through [`MiningContext::cancel`], and
/// every execution layer — the work-stealing scheduler, the BSP engine's
/// map/combine/reduce phases, the streaming sink — polls it at task
/// granularity. Three things trip a token:
///
/// * [`cancel`](Self::cancel) — an external abort (client disconnected,
///   server draining);
/// * an armed wall-clock deadline passing (checked by
///   [`checkpoint`](Self::checkpoint));
/// * [`mark_panicked`](Self::mark_panicked) — a worker task panicked and
///   the panic was caught at the task boundary.
///
/// Once tripped a token stays tripped, and
/// [`stop_reason`](Self::stop_reason) reports the corresponding
/// [`Error`] variant; the *first* trip wins. The hot-path check
/// ([`is_stopped`](Self::is_stopped)) is a single relaxed atomic load.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

impl Default for CancelToken {
    fn default() -> CancelToken {
        CancelToken::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("stopped", &self.is_stopped())
            .finish()
    }
}

impl CancelToken {
    /// A live token with no deadline.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Arc::new(CancelInner {
                state: AtomicU8::new(LIVE),
                deadline: OnceLock::new(),
                note: OnceLock::new(),
            }),
        }
    }

    /// A live token whose deadline (measured from now) is already armed.
    pub fn with_deadline(deadline: Duration) -> CancelToken {
        let token = CancelToken::new();
        token.arm_deadline(deadline);
        token
    }

    /// Arms a wall-clock deadline measured from now. A token's deadline
    /// can be armed at most once: the first call wins and later calls are
    /// ignored (returning `false`), so an externally supplied token keeps
    /// the earliest deadline it was given.
    pub fn arm_deadline(&self, deadline: Duration) -> bool {
        self.inner
            .deadline
            .set((Instant::now() + deadline, deadline))
            .is_ok()
    }

    /// Trips the token with an external-cancellation reason. Idempotent;
    /// a no-op if the token already tripped for another reason.
    pub fn cancel(&self) {
        self.trip(CANCELLED, None);
    }

    /// Trips the token recording a caught worker panic; `payload` is the
    /// stringified panic payload.
    pub fn mark_panicked(&self, payload: &str) {
        self.trip(PANICKED, Some(payload));
    }

    fn trip(&self, state: u8, note: Option<&str>) {
        if let Some(note) = note {
            let _ = self.inner.note.set(note.to_string());
        }
        let _ =
            self.inner
                .state
                .compare_exchange(LIVE, state, Ordering::Release, Ordering::Relaxed);
    }

    /// Hot-path poll: true once the token has tripped for any reason.
    /// Does *not* check the wall clock — pair it with periodic
    /// [`checkpoint`](Self::checkpoint) calls at task granularity.
    #[inline]
    pub fn is_stopped(&self) -> bool {
        self.inner.state.load(Ordering::Relaxed) != LIVE
    }

    /// Task-granularity poll: checks the tripped state *and* the armed
    /// deadline against the wall clock, tripping the token if the
    /// deadline has passed. Returns the stop reason as an error so call
    /// sites can `token.checkpoint()?`.
    pub fn checkpoint(&self) -> Result<()> {
        if !self.is_stopped() {
            if let Some(&(at, budget)) = self.inner.deadline.get() {
                if Instant::now() >= at {
                    self.trip(DEADLINE, Some(&format!("{budget:?}")));
                }
            }
        }
        match self.stop_reason() {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// The [`Error`] this token tripped with, or `None` while live.
    pub fn stop_reason(&self) -> Option<Error> {
        let note = || {
            self.inner
                .note
                .get()
                .cloned()
                .unwrap_or_else(|| "mining run".into())
        };
        match self.inner.state.load(Ordering::Acquire) {
            CANCELLED => Some(Error::Cancelled(note())),
            DEADLINE => Some(Error::DeadlineExceeded(note())),
            PANICKED => Some(Error::WorkerPanicked(note())),
            _ => None,
        }
    }
}

/// Renders a caught panic payload (the `Box<dyn Any>` from
/// `catch_unwind`) as a message, the way the default panic hook does.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The σ check of [`MiningContext::validate`] — the one place σ is
/// validated, since σ lives only in the context.
fn validate_sigma(sigma: u64) -> Result<()> {
    if sigma == 0 {
        Err(Error::Invalid(
            "sigma must be positive (σ = 0 would make every candidate frequent)".into(),
        ))
    } else {
        Ok(())
    }
}

/// How an algorithm that owns several execution strategies should pick one.
///
/// Today only DESQ-DFS consults this: its *flat* path keeps bit-packed
/// simulation tables per accepted input sequence (fast on large pattern
/// spaces), while its *lean* path runs the candidate-counting walk and
/// keeps nothing per sequence. Both build their tables through the same
/// lazy front-end ([`fst::sim`](crate::fst::sim)), so on cheap constraints
/// the two are within tens of percent of each other. See
/// `docs/ARCHITECTURE.md` for the cost model behind `Auto`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecutionPolicy {
    /// Let a small sampling cost model choose per run (the default). If the
    /// chosen lean path exhausts the work budget, the run transparently
    /// falls back to the flat path instead of erroring.
    #[default]
    Auto,
    /// Always materialize the flat tables (the only choice for streaming
    /// runs, which need the table-backed expansion).
    Flat,
    /// Always run the lean counting path. Budget exhaustion is reported as
    /// [`Error::ResourceExhausted`] — no silent fallback.
    Lean,
}

/// One mining request: everything a [`Miner`] needs to run.
///
/// The FST is optional because the traditional-constraint miners
/// (PrefixSpan, the gap miner, LASH, MLlib-PrefixSpan) encode their
/// constraint in algorithm parameters instead of a compiled pattern
/// expression; FST-based miners obtain it through [`MiningContext::fst`],
/// which produces a descriptive error when absent.
#[derive(Clone, Copy)]
pub struct MiningContext<'a> {
    /// The input sequence database.
    pub db: &'a SequenceDb,
    /// The frozen dictionary (hierarchy + f-list encoding).
    pub dict: &'a Dictionary,
    /// The compiled subsequence constraint, if the algorithm needs one.
    pub fst: Option<&'a Fst>,
    /// Minimum support threshold σ (validated positive).
    pub sigma: u64,
    /// Resource limits.
    pub limits: Limits,
    /// Worker threads for distributed algorithms (sequential miners ignore
    /// it and report 1 in their metrics).
    pub workers: usize,
    /// Number of map partitions ("machines") for distributed algorithms.
    pub partitions: usize,
    /// Number of shuffle buckets (reduce tasks) for distributed
    /// algorithms; usually equals `workers`.
    pub reducers: usize,
    /// Execution-path selection for algorithms with several strategies
    /// (see [`ExecutionPolicy`]).
    pub exec: ExecutionPolicy,
    /// Cooperative cancellation for this run (deadline, external abort,
    /// panic isolation). `None` means the run cannot be cancelled — the
    /// historical behavior; the session facade always supplies one.
    pub cancel: Option<&'a CancelToken>,
}

impl<'a> MiningContext<'a> {
    /// A sequential single-worker context with default limits.
    pub fn sequential(db: &'a SequenceDb, dict: &'a Dictionary, sigma: u64) -> MiningContext<'a> {
        MiningContext {
            db,
            dict,
            fst: None,
            sigma,
            limits: Limits::default(),
            workers: 1,
            partitions: 1,
            reducers: 1,
            exec: ExecutionPolicy::Auto,
            cancel: None,
        }
    }

    /// Attaches a compiled constraint.
    pub fn with_fst(mut self, fst: &'a Fst) -> MiningContext<'a> {
        self.fst = Some(fst);
        self
    }

    /// Overrides the limits.
    pub fn with_limits(mut self, limits: Limits) -> MiningContext<'a> {
        self.limits = limits;
        self
    }

    /// Sets worker threads and map partitions for distributed execution
    /// (the reducer count follows the worker count; override it afterwards
    /// with [`with_reducers`](Self::with_reducers)).
    pub fn with_parallelism(mut self, workers: usize, partitions: usize) -> MiningContext<'a> {
        self.workers = workers;
        self.partitions = partitions;
        self.reducers = workers;
        self
    }

    /// Overrides the number of shuffle buckets (reduce tasks).
    pub fn with_reducers(mut self, reducers: usize) -> MiningContext<'a> {
        self.reducers = reducers;
        self
    }

    /// The compiled constraint, or a descriptive error if none was given.
    pub fn fst(&self) -> Result<&'a Fst> {
        self.fst.ok_or_else(|| {
            Error::Invalid(
                "this algorithm requires a subsequence constraint: \
                 provide a pattern expression or a pre-compiled FST"
                    .into(),
            )
        })
    }

    /// Validates the whole request (σ, limits, parallelism) in one place.
    pub fn validate(&self) -> Result<()> {
        validate_sigma(self.sigma)?;
        self.limits.validate()?;
        if self.workers == 0 {
            return Err(Error::Invalid("worker count must be positive".into()));
        }
        if self.partitions == 0 {
            return Err(Error::Invalid("partition count must be positive".into()));
        }
        if self.reducers == 0 {
            return Err(Error::Invalid("reducer count must be positive".into()));
        }
        Ok(())
    }
}

/// Uniform measurements of one mining run — the workspace's one
/// measurement record.
///
/// The BSP engine fills the phase, shuffle and task fields of a job
/// directly and the distributed algorithms add what only they know (wall
/// time, workers, input size); local miners report wall time and work
/// counts with legitimately-zero shuffle volume (nothing is communicated).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MiningMetrics {
    /// End-to-end wall-clock nanoseconds of the run.
    pub wall_nanos: u64,
    /// Wall-clock nanoseconds of the map (+ combine + serialize) phase;
    /// 0 for sequential miners (no separate map phase).
    pub map_nanos: u64,
    /// Wall-clock nanoseconds of the reduce ("mine") phase; for sequential
    /// miners this equals the whole mining time.
    pub reduce_nanos: u64,
    /// Number of input sequences mined.
    pub input_sequences: u64,
    /// Work records produced before combining: mapper emissions for
    /// distributed algorithms, generated candidates / emitted patterns for
    /// sequential ones.
    pub emitted_records: u64,
    /// Records written to the shuffle after combining (0 when sequential).
    pub shuffle_records: u64,
    /// Distinct payload byte strings written to the shuffle by combining
    /// jobs (post-interning; 0 when sequential or not combining). The gap
    /// to `shuffle_records` measures how much payload sharing saved.
    pub shuffle_payloads: u64,
    /// Total serialized shuffle volume in bytes (0 when sequential).
    pub shuffle_bytes: u64,
    /// Shuffle bytes received per reducer (empty when sequential).
    pub reducer_bytes: Vec<u64>,
    /// Result patterns produced.
    pub output_records: u64,
    /// Worker threads used (1 for sequential miners).
    pub workers: u64,
    /// Wall-clock nanoseconds each local-mining worker spent in its
    /// scheduling loop (mining plus stealing plus idling), indexed by
    /// worker. **Semantics:** exactly `workers` entries for algorithms that
    /// mine locally — the scheduler reports one [`WorkerStats`] per worker
    /// at every worker count, a lone worker's entry being its loop on the
    /// calling thread. Only algorithms with no per-worker breakdown at all
    /// (e.g. pure BSP map/reduce phases) leave it empty.
    ///
    pub worker_nanos: Vec<u64>,
    /// Tasks executed by the work-stealing scheduler, summed over workers:
    /// search subtrees for DESQ-DFS (a one-worker run is a single task —
    /// nobody to split for), input blocks for DESQ-COUNT (a one-worker run
    /// is still many block tasks), reduce-side key-group tasks for BSP
    /// jobs. The table build's tasks are not included. The FST-free miners,
    /// which do not use the scheduler, report 1.
    pub tasks: u64,
    /// Successful steals between scheduler workers, summed over workers
    /// (always 0 with one worker; high values on skewed search trees are
    /// the scheduler doing its job).
    pub steals: u64,
    /// Map/reduce tasks that were re-executed because the peer running
    /// them died or went silent mid-superstep (networked BSP only; 0 for
    /// in-process runs — their tasks cannot be lost).
    pub retried_tasks: u64,
    /// Peers declared dead because they exceeded their liveness window
    /// during this run (networked BSP only).
    pub peer_timeouts: u64,
    /// Wall-clock nanoseconds of the single longest map or reduce task —
    /// the straggler. A high value against `map_nanos`/`reduce_nanos`
    /// means one task dominated the phase.
    pub max_task_nanos: u64,
    /// True iff the run stopped early through its [`CancelToken`] (or a
    /// streaming consumer dropped the stream): the other counters
    /// describe a *partial* run.
    pub cancelled: bool,
}

impl MiningMetrics {
    /// Metrics of a sequential run: wall time, input/output counts and a
    /// work counter, with zero communication. The single worker's
    /// `worker_nanos` entry is the run's wall time and it counts as one
    /// scheduler task (see the field docs on
    /// [`worker_nanos`](Self::worker_nanos)).
    pub fn sequential(wall_nanos: u64, input_sequences: u64, work: u64, output: u64) -> Self {
        MiningMetrics {
            wall_nanos,
            reduce_nanos: wall_nanos,
            input_sequences,
            emitted_records: work,
            output_records: output,
            workers: 1,
            worker_nanos: vec![wall_nanos],
            tasks: 1,
            ..MiningMetrics::default()
        }
    }

    /// Metrics of a local run on the scheduler: like
    /// [`sequential`](Self::sequential), with the worker count, the
    /// per-worker loop times and the task/steal totals taken from the
    /// scheduler's per-worker `stats`.
    pub fn scheduled(
        wall_nanos: u64,
        input_sequences: u64,
        work: u64,
        output: u64,
        stats: &[WorkerStats],
    ) -> Self {
        MiningMetrics {
            workers: stats.len() as u64,
            worker_nanos: stats.iter().map(|s| s.nanos).collect(),
            tasks: stats.iter().map(|s| s.tasks).sum(),
            steals: stats.iter().map(|s| s.steals).sum(),
            ..MiningMetrics::sequential(wall_nanos, input_sequences, work, output)
        }
    }

    /// Appends the wire encoding of these metrics to `buf`.
    ///
    /// **Wire format** (all integers LEB128 varints, see [`crate::codec`]):
    /// the scalar fields in declaration order — `wall_nanos`, `map_nanos`,
    /// `reduce_nanos`, `input_sequences`, `emitted_records`,
    /// `shuffle_records`, `shuffle_payloads`, `shuffle_bytes` — then
    /// `reducer_bytes` as `varint(len)` + one varint per entry, then
    /// `output_records`, `workers`, `worker_nanos` (same list shape),
    /// `tasks`, `steals`, `retried_tasks`, `peer_timeouts`,
    /// `max_task_nanos`, then `cancelled` as a 0/1 varint. Used by the
    /// `desq-serve` daemon to ship the terminal metrics frame of a query
    /// response; [`decode`](Self::decode) is the exact inverse.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        use crate::codec::write_varint;
        for v in [
            self.wall_nanos,
            self.map_nanos,
            self.reduce_nanos,
            self.input_sequences,
            self.emitted_records,
            self.shuffle_records,
            self.shuffle_payloads,
            self.shuffle_bytes,
        ] {
            write_varint(buf, v);
        }
        write_varint(buf, self.reducer_bytes.len() as u64);
        for &v in &self.reducer_bytes {
            write_varint(buf, v);
        }
        write_varint(buf, self.output_records);
        write_varint(buf, self.workers);
        write_varint(buf, self.worker_nanos.len() as u64);
        for &v in &self.worker_nanos {
            write_varint(buf, v);
        }
        write_varint(buf, self.tasks);
        write_varint(buf, self.steals);
        write_varint(buf, self.retried_tasks);
        write_varint(buf, self.peer_timeouts);
        write_varint(buf, self.max_task_nanos);
        write_varint(buf, self.cancelled as u64);
    }

    /// Decodes one [`encode`](Self::encode) record, advancing `buf`.
    /// Rejects truncated input and list lengths exceeding the remaining
    /// bytes.
    pub fn decode(buf: &mut &[u8]) -> Result<MiningMetrics> {
        use crate::codec::read_varint;
        let mut m = MiningMetrics::default();
        for field in [
            &mut m.wall_nanos,
            &mut m.map_nanos,
            &mut m.reduce_nanos,
            &mut m.input_sequences,
            &mut m.emitted_records,
            &mut m.shuffle_records,
            &mut m.shuffle_payloads,
            &mut m.shuffle_bytes,
        ] {
            *field = read_varint(buf)?;
        }
        m.reducer_bytes = decode_u64_list(buf)?;
        m.output_records = read_varint(buf)?;
        m.workers = read_varint(buf)?;
        m.worker_nanos = decode_u64_list(buf)?;
        m.tasks = read_varint(buf)?;
        m.steals = read_varint(buf)?;
        m.retried_tasks = read_varint(buf)?;
        m.peer_timeouts = read_varint(buf)?;
        m.max_task_nanos = read_varint(buf)?;
        m.cancelled = match read_varint(buf)? {
            0 => false,
            1 => true,
            other => {
                return Err(Error::Decode(format!(
                    "metrics cancelled flag: expected 0 or 1, got {other}"
                )))
            }
        };
        Ok(m)
    }

    /// Map-phase wall time in seconds.
    pub fn map_secs(&self) -> f64 {
        self.map_nanos as f64 / 1e9
    }

    /// Reduce-("mine"-)phase wall time in seconds.
    pub fn reduce_secs(&self) -> f64 {
        self.reduce_nanos as f64 / 1e9
    }

    /// End-to-end wall time in seconds (falls back to map + reduce when no
    /// end-to-end measurement was taken).
    pub fn total_secs(&self) -> f64 {
        if self.wall_nanos > 0 {
            self.wall_nanos as f64 / 1e9
        } else {
            self.map_secs() + self.reduce_secs()
        }
    }

    /// Ratio of the largest reducer's byte volume to the mean — 1.0 is a
    /// perfectly balanced shuffle (and the sequential value).
    pub fn balance(&self) -> f64 {
        if self.reducer_bytes.is_empty() || self.shuffle_bytes == 0 {
            return 1.0;
        }
        let max = *self.reducer_bytes.iter().max().unwrap() as f64;
        let mean = self.shuffle_bytes as f64 / self.reducer_bytes.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// Decodes a varint-length-prefixed list of varints (the list shape used
/// by [`MiningMetrics::encode`]); never pre-allocates beyond what the
/// remaining input could encode.
fn decode_u64_list(buf: &mut &[u8]) -> Result<Vec<u64>> {
    let len = crate::codec::read_varint(buf)? as usize;
    if len > buf.len() {
        return Err(Error::Decode(format!(
            "metrics list: length {len} exceeds remaining input"
        )));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(crate::codec::read_varint(buf)?);
    }
    Ok(out)
}

/// Outcome of one mining run — identical shape for every algorithm.
///
/// **Invariant:** `patterns` is sorted lexicographically by pattern (the
/// results of all miners are *sets*; the sort makes them directly
/// comparable across algorithms). Every [`Miner`] implementation upholds
/// this; `tests/paper_example.rs` asserts it in one place for all
/// algorithms. Streaming consumers that do not need the ordering can use
/// the facade's `PatternStream` instead, which yields patterns in
/// discovery order without the eager sort.
#[derive(Debug, Clone)]
pub struct MiningResult {
    /// The frequent sequences with their frequencies, sorted
    /// lexicographically (identical across all algorithms under the same
    /// constraint).
    pub patterns: Vec<(Sequence, u64)>,
    /// Uniform run measurements.
    pub metrics: MiningMetrics,
}

impl MiningResult {
    /// True iff `patterns` satisfies the documented sortedness invariant.
    pub fn is_sorted(&self) -> bool {
        self.patterns.windows(2).all(|w| w[0] < w[1])
    }
}

/// One frequent-sequence-mining algorithm behind the unified API.
///
/// Every algorithm in the workspace is one type implementing it, holding
/// only the parameters the paper varies for that algorithm: the sequential
/// miners in `desq-miner` (`algo::{DesqDfs, DesqCount}`, `PrefixSpan`,
/// `GapMiner`), the distributed algorithms in `desq-dist` (`NaiveConfig`,
/// `DSeqConfig`, `DCandConfig`), and the specialized baselines in
/// `desq-baselines` (`LashConfig`, `MllibConfig`). σ, the limits, the
/// cancellation token and the parallelism come only from the
/// [`MiningContext`]. Implementations must validate the context, honor
/// [`MiningContext::limits`] and [`MiningContext::cancel`], and return
/// sorted patterns (see [`MiningResult`]).
pub trait Miner {
    /// Display name of the algorithm (e.g. `"D-SEQ"`).
    fn name(&self) -> &'static str;

    /// Runs the algorithm on one request.
    fn mine(&self, ctx: &MiningContext<'_>) -> Result<MiningResult>;

    /// Runs the algorithm handing every result pattern to `sink`, in no
    /// particular order, until the patterns run out or the sink returns
    /// `false`; returns the run's metrics.
    ///
    /// The default computes the whole result and then drains it. An
    /// algorithm that knows patterns before it has finished overrides this
    /// to emit them as they are found — which algorithms those are is
    /// their own business, not the caller's.
    fn mine_each(&self, ctx: &MiningContext<'_>, sink: PatternSink<'_>) -> Result<MiningMetrics> {
        let MiningResult { patterns, metrics } = self.mine(ctx)?;
        for (pattern, freq) in patterns {
            if !sink(pattern, freq) {
                break;
            }
        }
        Ok(metrics)
    }
}

/// Where a streaming run delivers its `(pattern, frequency)` pairs; `false`
/// stops the run. `Send` because scheduler workers call it from their own
/// threads (one at a time, under a lock).
pub type PatternSink<'s> = &'s mut (dyn FnMut(Sequence, u64) -> bool + Send);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn limits_default_and_validation() {
        let l = Limits::default();
        assert_eq!(l.budget, DEFAULT_BUDGET);
        assert_eq!(l.max_patterns, usize::MAX);
        assert!(l.validate().is_ok());
        assert!(matches!(
            Limits::default().with_budget(0).validate(),
            Err(Error::Invalid(_))
        ));
        assert!(matches!(
            Limits::default().with_max_patterns(0).validate(),
            Err(Error::Invalid(_))
        ));
        assert!(Limits::unbounded().validate().is_ok());
    }

    #[test]
    fn sigma_validator_is_the_single_source_of_truth() {
        assert!(validate_sigma(1).is_ok());
        let err = validate_sigma(0).unwrap_err();
        assert!(matches!(err, Error::Invalid(ref m) if m.contains("sigma")));
    }

    #[test]
    fn context_validation_covers_all_fields() {
        let fx = toy::fixture();
        let ok = MiningContext::sequential(&fx.db, &fx.dict, 2).with_fst(&fx.fst);
        assert!(ok.validate().is_ok());
        assert!(ok.fst().is_ok());

        let no_fst = MiningContext::sequential(&fx.db, &fx.dict, 2);
        assert!(matches!(no_fst.fst(), Err(Error::Invalid(_))));

        let zero_sigma = MiningContext::sequential(&fx.db, &fx.dict, 0);
        assert!(matches!(zero_sigma.validate(), Err(Error::Invalid(_))));

        let mut bad_workers = ok;
        bad_workers.workers = 0;
        assert!(matches!(bad_workers.validate(), Err(Error::Invalid(_))));

        let mut bad_parts = ok;
        bad_parts.partitions = 0;
        assert!(matches!(bad_parts.validate(), Err(Error::Invalid(_))));
    }

    #[test]
    fn sequential_metrics_report_work() {
        let m = MiningMetrics::sequential(2_000_000_000, 5, 17, 3);
        assert!((m.total_secs() - 2.0).abs() < 1e-9);
        assert!((m.reduce_secs() - 2.0).abs() < 1e-9);
        assert_eq!(m.input_sequences, 5);
        assert_eq!(m.emitted_records, 17);
        assert_eq!(m.output_records, 3);
        assert_eq!(m.workers, 1);
        // The sequential-run fix: one worker entry holding the wall time
        // (previously silently empty), one task, no steals.
        assert_eq!(m.worker_nanos, vec![2_000_000_000]);
        assert_eq!((m.tasks, m.steals), (1, 0));
        assert_eq!(m.balance(), 1.0);
    }

    /// Two workers' scheduler stats, as DESQ-DFS or DESQ-COUNT report them.
    fn two_worker_stats() -> [WorkerStats; 2] {
        let stats = |nanos, tasks, steals| WorkerStats {
            nanos,
            tasks,
            steals,
        };
        [stats(40, 5, 2), stats(60, 4, 0)]
    }

    #[test]
    fn scheduled_metrics_sum_the_worker_stats() {
        let m = MiningMetrics::scheduled(123, 5, 17, 3, &two_worker_stats());
        assert_eq!(m.workers, 2);
        assert_eq!(m.worker_nanos, vec![40, 60]);
        assert_eq!((m.tasks, m.steals), (9, 2));
        assert_eq!(
            (m.wall_nanos, m.emitted_records, m.output_records),
            (123, 17, 3)
        );
    }

    #[test]
    fn metrics_wire_encoding_roundtrips() {
        let mut m = MiningMetrics::scheduled(123, 5, 17, 3, &two_worker_stats());
        m.map_nanos = 7;
        m.shuffle_records = 11;
        m.shuffle_payloads = 4;
        m.shuffle_bytes = 99;
        m.reducer_bytes = vec![33, 66, 0];
        m.retried_tasks = 2;
        m.peer_timeouts = 1;
        m.max_task_nanos = 55;
        m.cancelled = true;
        let mut buf = Vec::new();
        m.encode(&mut buf);
        let mut s = buf.as_slice();
        assert_eq!(MiningMetrics::decode(&mut s).unwrap(), m);
        assert!(s.is_empty());
        // Every truncation is a decode error, never a panic or a silent
        // partial read.
        for cut in 0..buf.len() {
            let mut s = &buf[..cut];
            assert!(MiningMetrics::decode(&mut s).is_err(), "cut at {cut}");
        }
        // The cancelled flag is strictly 0/1 on the wire; it is the last
        // byte.
        let at = buf.len() - 1;
        buf[at] = 2;
        let mut s = buf.as_slice();
        assert!(matches!(
            MiningMetrics::decode(&mut s),
            Err(Error::Decode(_))
        ));
    }

    #[test]
    fn cancel_token_trips_once_and_keeps_the_first_reason() {
        let token = CancelToken::new();
        assert!(!token.is_stopped());
        assert!(token.checkpoint().is_ok());
        assert!(token.stop_reason().is_none());

        token.cancel();
        assert!(token.is_stopped());
        assert!(matches!(token.stop_reason(), Some(Error::Cancelled(_))));
        // A later panic does not overwrite the first trip.
        token.mark_panicked("boom");
        assert!(matches!(token.stop_reason(), Some(Error::Cancelled(_))));
        assert!(matches!(token.checkpoint(), Err(Error::Cancelled(_))));

        // Clones share state.
        let clone = token.clone();
        assert!(clone.is_stopped());
    }

    #[test]
    fn cancel_token_deadline_trips_at_checkpoint() {
        let token = CancelToken::with_deadline(Duration::ZERO);
        // The hot-path poll alone never consults the clock...
        assert!(!token.is_stopped());
        // ...but a checkpoint does, and trips the token for everyone.
        assert!(matches!(
            token.checkpoint(),
            Err(Error::DeadlineExceeded(_))
        ));
        assert!(token.is_stopped());

        // A generous deadline does not trip.
        let slack = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(slack.checkpoint().is_ok());
        // Arming is first-wins.
        assert!(!slack.arm_deadline(Duration::ZERO));
        assert!(slack.checkpoint().is_ok());
    }

    #[test]
    fn panic_trips_with_the_payload() {
        let token = CancelToken::new();
        let payload = std::panic::catch_unwind(|| panic!("task exploded")).unwrap_err();
        token.mark_panicked(&panic_message(payload.as_ref()));
        match token.stop_reason() {
            Some(Error::WorkerPanicked(msg)) => assert!(msg.contains("task exploded")),
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn limits_deadline_validates_positive() {
        let l = Limits::default().with_deadline(Duration::from_millis(5));
        assert!(l.validate().is_ok());
        assert!(matches!(
            Limits::default().with_deadline(Duration::ZERO).validate(),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn execution_policy_defaults_to_auto() {
        let fx = toy::fixture();
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, 2);
        assert_eq!(ctx.exec, ExecutionPolicy::Auto);
    }

    #[test]
    fn sortedness_invariant_helper() {
        let sorted = MiningResult {
            patterns: vec![(vec![1], 2), (vec![1, 2], 1), (vec![2], 9)],
            metrics: MiningMetrics::default(),
        };
        assert!(sorted.is_sorted());
        let unsorted = MiningResult {
            patterns: vec![(vec![2], 9), (vec![1], 2)],
            metrics: MiningMetrics::default(),
        };
        assert!(!unsorted.is_sorted());
    }
}
