//! The unified mining API: one builder, one request shape, one result
//! shape — for every algorithm (plus the LASH/MLlib baselines).
//!
//! A [`MiningSession`] is built once from a [`Dictionary`], a
//! [`SequenceDb`], a subsequence constraint (a pattern-expression string or
//! a pre-compiled [`Fst`]) and an [`AlgorithmSpec`]; every input is
//! validated exactly once at [`MiningSessionBuilder::build`] time. Running
//! the session returns the workspace-wide uniform
//! [`MiningResult`] `{ patterns, metrics }` regardless of which algorithm
//! executes — sequential miners report wall-time and work counts,
//! distributed ones additionally report shuffle volume and balance.
//!
//! ```
//! use desq::session::{AlgorithmSpec, MiningSession};
//!
//! let fx = desq::core::toy::fixture();
//! let session = MiningSession::builder()
//!     .dictionary(fx.dict)
//!     .database(fx.db)
//!     .pattern(desq::core::toy::PATTERN)
//!     .sigma(2)
//!     .algorithm(AlgorithmSpec::DesqDfs)
//!     .build()?;
//! let result = session.run()?;
//! assert_eq!(result.patterns.len(), 3); // a1 b, a1 A b, a1 a1 b
//!
//! // The same session can dispatch to any other algorithm — results are
//! // identical by the master correctness property.
//! let distributed = session.with_algorithm(AlgorithmSpec::d_seq())?.run()?;
//! assert_eq!(distributed.patterns, result.patterns);
//! assert!(distributed.metrics.shuffle_bytes > 0);
//! # Ok::<(), desq::core::Error>(())
//! ```
//!
//! For large result sets, [`MiningSession::stream`] yields patterns through
//! a [`PatternStream`] iterator without materializing and sorting the
//! result eagerly (DESQ-DFS streams incrementally as the search tree is
//! explored; other algorithms stream their result out after computing it).

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use desq_baselines::{LashConfig, MllibConfig};
use desq_core::mining::{
    panic_message, CancelToken, ExecutionPolicy, Limits, Miner, MiningContext, MiningMetrics,
    MiningResult,
};
use desq_core::{Dictionary, Error, Fst, OptLevel, PatEx, Result, Sequence, SequenceDb};
use desq_dist::{DCandConfig, DSeqConfig, NaiveConfig};
use desq_miner::algo::{DesqCount, DesqDfs};
use desq_miner::GapMiner;

pub use desq_core::mining::DEFAULT_BUDGET;

/// Which algorithm a [`MiningSession`] dispatches to: each variant wraps
/// its algorithm's one type, which holds only the parameters the paper
/// varies for it.
///
/// The FST-based variants (`DesqDfs`, `DesqCount`, `Naive`, `DSeq`,
/// `DCand`) require the session to carry a subsequence constraint; the
/// traditional-constraint variants (`GapMiner`, `Lash`, `Mllib`) encode
/// their constraint in the wrapped type. Thresholds, budgets, deadlines
/// and parallelism always come from the session.
#[derive(Debug, Clone, Copy)]
pub enum AlgorithmSpec {
    /// Sequential DESQ-DFS (pattern growth over projected databases).
    DesqDfs,
    /// Sequential DESQ-COUNT (candidate generation + counting; the
    /// brute-force reference).
    DesqCount,
    /// Gap-constrained pattern growth: the `T2(σ, γ, λ)` /
    /// `T3(σ, γ, λ)` semantics, or classic PrefixSpan's `T1(σ, λ)`
    /// ([`GapMiner::t1`]).
    GapMiner(GapMiner),
    /// Distributed NAÏVE (ships raw candidates) or, with
    /// [`NaiveConfig::filter`], SEMI-NAÏVE (ships frequency-filtered ones).
    Naive(NaiveConfig),
    /// Distributed D-SEQ (ships rewritten input sequences; Sec. V).
    DSeq(DSeqConfig),
    /// Distributed D-CAND (ships candidate NFAs; Sec. VI).
    DCand(DCandConfig),
    /// The LASH/MG-FSM-style specialized baseline (max gap, max length,
    /// optional hierarchy).
    Lash(LashConfig),
    /// The MLlib-style distributed PrefixSpan (max length only).
    Mllib(MllibConfig),
}

impl AlgorithmSpec {
    /// Full D-SEQ with all enhancements on (the common case).
    pub fn d_seq() -> AlgorithmSpec {
        AlgorithmSpec::DSeq(DSeqConfig::default())
    }

    /// Full D-CAND with minimization and aggregation on (the common case).
    pub fn d_cand() -> AlgorithmSpec {
        AlgorithmSpec::DCand(DCandConfig::default())
    }

    /// Display name of the selected algorithm.
    pub fn name(&self) -> &'static str {
        self.miner().name()
    }

    /// True iff this algorithm mines a compiled pattern expression (and the
    /// session therefore must carry one).
    pub fn needs_fst(&self) -> bool {
        matches!(
            self,
            AlgorithmSpec::DesqDfs
                | AlgorithmSpec::DesqCount
                | AlgorithmSpec::Naive(_)
                | AlgorithmSpec::DSeq(_)
                | AlgorithmSpec::DCand(_)
        )
    }

    /// The [`Miner`] behind this spec: the wrapped algorithm type, boxed.
    pub fn miner(&self) -> Box<dyn Miner + Send + Sync> {
        match *self {
            AlgorithmSpec::DesqDfs => Box::new(DesqDfs),
            AlgorithmSpec::DesqCount => Box::new(DesqCount),
            AlgorithmSpec::GapMiner(m) => Box::new(m),
            AlgorithmSpec::Naive(m) => Box::new(m),
            AlgorithmSpec::DSeq(m) => Box::new(m),
            AlgorithmSpec::DCand(m) => Box::new(m),
            AlgorithmSpec::Lash(m) => Box::new(m),
            AlgorithmSpec::Mllib(m) => Box::new(m),
        }
    }
}

/// The subsequence constraint as given to the builder.
#[derive(Clone)]
enum PatternSource {
    /// A pattern expression, compiled as written (anchored).
    Expr(String),
    /// A pattern expression wrapped in uncaptured `.*` context before
    /// compilation (the semantics of the paper's Tab. III constraints).
    Unanchored(String),
    /// A pre-compiled FST.
    Compiled(Arc<Fst>),
}

/// Builder for a [`MiningSession`]. See the [module docs](self) for an
/// end-to-end example.
#[derive(Clone, Default)]
pub struct MiningSessionBuilder {
    dict: Option<Arc<Dictionary>>,
    db: Option<Arc<SequenceDb>>,
    pattern: Option<PatternSource>,
    algorithm: Option<AlgorithmSpec>,
    sigma: Option<u64>,
    limits: Limits,
    workers: Option<usize>,
    partitions: Option<usize>,
    reducers: Option<usize>,
    exec: ExecutionPolicy,
    cancel: Option<CancelToken>,
    opt_level: OptLevel,
}

/// Default worker count: the machine's parallelism, capped at 8 — the
/// single workspace-wide convention (the bench harness delegates here).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

impl MiningSessionBuilder {
    /// Sets the frozen dictionary (accepts an owned value or an `Arc`).
    pub fn dictionary(mut self, dict: impl Into<Arc<Dictionary>>) -> Self {
        self.dict = Some(dict.into());
        self
    }

    /// Sets the input database (accepts an owned value or an `Arc`).
    pub fn database(mut self, db: impl Into<Arc<SequenceDb>>) -> Self {
        self.db = Some(db.into());
        self
    }

    /// Sets the subsequence constraint as a pattern expression, compiled
    /// exactly as written (write explicit `.*` context if the constraint
    /// should match anywhere in the input, or use
    /// [`pattern_unanchored`](Self::pattern_unanchored)).
    pub fn pattern(mut self, expr: impl Into<String>) -> Self {
        self.pattern = Some(PatternSource::Expr(expr.into()));
        self
    }

    /// Sets the subsequence constraint as a pattern expression that is
    /// wrapped in uncaptured `.*` context before compilation — the
    /// within-sequence matching semantics of the paper's Tab. III
    /// constraints.
    pub fn pattern_unanchored(mut self, expr: impl Into<String>) -> Self {
        self.pattern = Some(PatternSource::Unanchored(expr.into()));
        self
    }

    /// Sets a pre-compiled constraint (accepts an owned [`Fst`] or an
    /// `Arc`). The FST must have been compiled against the same dictionary
    /// the session uses.
    pub fn fst(mut self, fst: impl Into<Arc<Fst>>) -> Self {
        self.pattern = Some(PatternSource::Compiled(fst.into()));
        self
    }

    /// Sets the minimum support threshold σ (required, must be positive).
    pub fn sigma(mut self, sigma: u64) -> Self {
        self.sigma = Some(sigma);
        self
    }

    /// Selects the algorithm (defaults to [`AlgorithmSpec::DesqDfs`]).
    pub fn algorithm(mut self, algorithm: AlgorithmSpec) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Sets the per-sequence work budget (defaults to [`DEFAULT_BUDGET`]).
    pub fn budget(mut self, budget: usize) -> Self {
        self.limits.budget = budget;
        self
    }

    /// Caps the number of result patterns; exceeding the cap is an error,
    /// never a silent truncation.
    pub fn max_patterns(mut self, max_patterns: usize) -> Self {
        self.limits.max_patterns = max_patterns;
        self
    }

    /// Sets the worker-thread count for distributed algorithms (defaults
    /// to the machine's parallelism, capped at 8).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Sets the number of map partitions ("machines"; defaults to the
    /// worker count).
    pub fn partitions(mut self, partitions: usize) -> Self {
        self.partitions = Some(partitions);
        self
    }

    /// Sets the number of shuffle buckets (reduce tasks; defaults to the
    /// worker count).
    pub fn reducers(mut self, reducers: usize) -> Self {
        self.reducers = Some(reducers);
        self
    }

    /// Sets a wall-clock deadline for each run (defaults to unbounded).
    /// Every execution layer polls the deadline cooperatively at task
    /// granularity; an expired run aborts with
    /// [`Error::DeadlineExceeded`].
    pub fn deadline(mut self, deadline: std::time::Duration) -> Self {
        self.limits.deadline = Some(deadline);
        self
    }

    /// Adopts an externally owned cancellation token: tripping it (from
    /// any thread) aborts this session's runs at the next task boundary
    /// with [`Error::Cancelled`]. When the
    /// session also carries a [`deadline`](Self::deadline), the deadline
    /// is armed on this token at the first run — a token's deadline arms
    /// at most once, so callers that reuse a session across runs should
    /// supply a fresh token per run (the `desq-serve` daemon does).
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Selects the execution path for algorithms with several strategies
    /// (defaults to [`ExecutionPolicy::Auto`]). Today this steers
    /// DESQ-DFS's choice between its flat-table and lean counting paths;
    /// streaming runs always use the flat path regardless (the lean path
    /// cannot stream). Both paths simulate through the same lazy
    /// front-end (`desq_core::fst::sim`), so the choice moves a selective
    /// constraint by tens of percent, no longer by a multiple.
    pub fn execution_policy(mut self, exec: ExecutionPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Selects the FST optimization level pattern expressions are compiled
    /// at (defaults to [`OptLevel::Full`]; [`OptLevel::None`] keeps the
    /// un-optimized oracle automaton for A/B comparisons). Pre-compiled
    /// [`fst`](Self::fst) sources are used as-is — their level was chosen
    /// at compile time.
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.opt_level = level;
        self
    }

    /// Dry-run check: parses and compiles the builder's pattern expression
    /// against its dictionary *without* building (or running) a session.
    ///
    /// Only the dictionary and the pattern are required — no database, σ or
    /// algorithm. Returns the compiled [`Fst`], which can be fed back into
    /// [`fst`](Self::fst) on this or any other builder over the same
    /// dictionary, so the compile work is paid exactly once. This is the
    /// admission-time validation hook of the `desq-serve` daemon: a bad
    /// pattern expression is rejected with a clean [`Error::Parse`] /
    /// [`Error::UnknownItem`] before any mining starts, instead of failing
    /// mid-stream. A pre-compiled [`fst`](Self::fst) source is returned
    /// as-is (nothing to validate).
    pub fn compile_only(&self) -> Result<Arc<Fst>> {
        let dict = self.dict.as_ref().ok_or_else(|| {
            Error::Invalid("a dictionary is required to compile: call .dictionary()".into())
        })?;
        compile(self.pattern.as_ref(), dict, self.opt_level)?.ok_or_else(|| {
            Error::Invalid(
                "a pattern is required to compile: call .pattern(), \
                 .pattern_unanchored() or .fst()"
                    .into(),
            )
        })
    }

    /// Validates the whole request once and produces the session.
    ///
    /// Errors with [`Error::Invalid`] on: missing dictionary/database,
    /// missing or zero σ, zero budget/max_patterns/workers/partitions, a
    /// pattern expression that fails to parse or compile, or an FST-based
    /// algorithm without a constraint.
    pub fn build(self) -> Result<MiningSession> {
        let dict = self
            .dict
            .ok_or_else(|| Error::Invalid("a dictionary is required: call .dictionary()".into()))?;
        let db = self.db.ok_or_else(|| {
            Error::Invalid("a sequence database is required: call .database()".into())
        })?;
        let sigma = self.sigma.ok_or_else(|| {
            Error::Invalid("a support threshold is required: call .sigma(σ) with σ > 0".into())
        })?;
        let algorithm = self.algorithm.unwrap_or(AlgorithmSpec::DesqDfs);
        let fst = compile(self.pattern.as_ref(), &dict, self.opt_level)?;
        let workers = self.workers.unwrap_or_else(default_workers);
        let session = MiningSession {
            dict,
            db,
            fst,
            algorithm,
            sigma,
            limits: self.limits,
            workers,
            partitions: self.partitions.unwrap_or(workers),
            reducers: self.reducers.unwrap_or(workers),
            exec: self.exec,
            cancel: self.cancel,
        };
        session.validate()?;
        Ok(session)
    }
}

/// Compiles a builder's pattern source against `dict` at `level`: `None`
/// without a pattern, a pre-compiled source as-is.
fn compile(
    pattern: Option<&PatternSource>,
    dict: &Dictionary,
    level: OptLevel,
) -> Result<Option<Arc<Fst>>> {
    let pexp = match pattern {
        Some(PatternSource::Expr(expr)) => PatEx::parse(expr)?,
        Some(PatternSource::Unanchored(expr)) => PatEx::parse(expr)?.unanchored(),
        Some(PatternSource::Compiled(fst)) => return Ok(Some(fst.clone())),
        None => return Ok(None),
    };
    Ok(Some(Arc::new(Fst::compile_with(&pexp, dict, level)?)))
}

/// A validated mining request, ready to [`run`](MiningSession::run) (any
/// number of times) or [`stream`](MiningSession::stream).
///
/// Sessions share their dictionary, database and FST through `Arc`s, so
/// cloning a session — or deriving a variant via
/// [`with_algorithm`](MiningSession::with_algorithm) /
/// [`with_sigma`](MiningSession::with_sigma) — is cheap.
#[derive(Clone)]
pub struct MiningSession {
    dict: Arc<Dictionary>,
    db: Arc<SequenceDb>,
    fst: Option<Arc<Fst>>,
    algorithm: AlgorithmSpec,
    sigma: u64,
    limits: Limits,
    workers: usize,
    partitions: usize,
    reducers: usize,
    exec: ExecutionPolicy,
    cancel: Option<CancelToken>,
}

impl std::fmt::Debug for MiningSession {
    /// Compact summary (the database and FST are elided).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiningSession")
            .field("algorithm", &self.algorithm.name())
            .field("sigma", &self.sigma)
            .field("sequences", &self.db.len())
            .field("has_fst", &self.fst.is_some())
            .field("limits", &self.limits)
            .field("workers", &self.workers)
            .field("partitions", &self.partitions)
            .field("reducers", &self.reducers)
            .finish()
    }
}

impl MiningSession {
    /// Starts a new builder.
    pub fn builder() -> MiningSessionBuilder {
        MiningSessionBuilder::default()
    }

    /// The session's dictionary (e.g. for rendering mined patterns).
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// The session's input database.
    pub fn database(&self) -> &SequenceDb {
        &self.db
    }

    /// The selected algorithm.
    pub fn algorithm(&self) -> &AlgorithmSpec {
        &self.algorithm
    }

    /// The session's compiled constraint, if it carries one — shareable
    /// across sessions over the same dictionary (the `desq-serve` FST
    /// cache hands one `Arc` to every concurrent query). Its size before
    /// and after optimization is [`Fst::states_before_opt`] /
    /// [`Fst::num_states`] (and the same for transitions).
    pub fn fst(&self) -> Option<&Arc<Fst>> {
        self.fst.as_ref()
    }

    /// The validated support threshold σ.
    pub fn sigma(&self) -> u64 {
        self.sigma
    }

    /// A cheap variant of this session dispatching to a different
    /// algorithm (re-validated: switching to an FST-based algorithm on a
    /// session without a constraint errors).
    pub fn with_algorithm(&self, algorithm: AlgorithmSpec) -> Result<MiningSession> {
        let session = MiningSession {
            algorithm,
            ..self.clone()
        };
        session.validate()?;
        Ok(session)
    }

    /// A cheap variant of this session with a different threshold.
    pub fn with_sigma(&self, sigma: u64) -> Result<MiningSession> {
        let session = MiningSession {
            sigma,
            ..self.clone()
        };
        session.validate()?;
        Ok(session)
    }

    fn validate(&self) -> Result<()> {
        if self.algorithm.needs_fst() && self.fst.is_none() {
            return Err(Error::Invalid(format!(
                "{} requires a subsequence constraint: call .pattern(), \
                 .pattern_unanchored() or .fst() on the builder",
                self.algorithm.name()
            )));
        }
        self.context().validate()
    }

    /// The [`MiningContext`] this session hands to its [`Miner`].
    pub fn context(&self) -> MiningContext<'_> {
        MiningContext {
            db: &self.db,
            dict: &self.dict,
            fst: self.fst.as_deref(),
            sigma: self.sigma,
            limits: self.limits,
            workers: self.workers,
            partitions: self.partitions,
            reducers: self.reducers,
            exec: self.exec,
            cancel: None,
        }
    }

    /// The cancellation token of one run: the session's adopted token
    /// (with the deadline armed on it, first arm wins) or a fresh
    /// per-run token when only a deadline is configured; `None` when the
    /// run is unbounded and nothing can cancel it.
    fn run_token(&self) -> Option<CancelToken> {
        match (&self.cancel, self.limits.deadline) {
            (Some(token), deadline) => {
                if let Some(d) = deadline {
                    token.arm_deadline(d);
                }
                Some(token.clone())
            }
            (None, Some(d)) => Some(CancelToken::with_deadline(d)),
            (None, None) => None,
        }
    }

    /// Runs the selected algorithm and returns the uniform result.
    ///
    /// `result.patterns` is sorted lexicographically (the documented
    /// invariant of [`MiningResult`]); `result.metrics` is non-trivial for
    /// every algorithm — wall time and work counts always, shuffle volume
    /// and balance for the distributed ones.
    pub fn run(&self) -> Result<MiningResult> {
        let miner = self.algorithm.miner();
        let token = self.run_token();
        let mut ctx = self.context();
        ctx.cancel = token.as_ref();
        let result = miner.mine(&ctx).map_err(|e| self.annotate(e))?;
        if result.patterns.len() > self.limits.max_patterns {
            return Err(self.over_cap());
        }
        debug_assert!(result.is_sorted(), "miner violated the sort invariant");
        Ok(result)
    }

    /// The error of a result set larger than `max_patterns` — the same value
    /// whether [`run`](Self::run) counted it or a stream hit the cap.
    fn over_cap(&self) -> Error {
        Error::ResourceExhausted(format!(
            "{} exceeded max_patterns = {}; raise the cap via \
             MiningSessionBuilder::max_patterns or increase σ",
            self.algorithm.name(),
            self.limits.max_patterns
        ))
    }

    /// Adds the algorithm name and a budget hint to resource errors so the
    /// failure explains itself at the call site.
    fn annotate(&self, e: Error) -> Error {
        match e {
            Error::ResourceExhausted(msg) => Error::ResourceExhausted(format!(
                "{}: {msg} (session budget: {}; raise it via \
                 MiningSessionBuilder::budget)",
                self.algorithm.name(),
                self.limits.budget
            )),
            other => other,
        }
    }

    /// Mines on a background thread and streams patterns as an iterator,
    /// without materializing and sorting the result set eagerly.
    ///
    /// DESQ-DFS yields patterns incrementally while the search tree is
    /// explored (bounded channel — memory stays proportional to the
    /// consumer's lag, not the result size), balancing subtree tasks
    /// across the session's worker threads by work stealing; the other
    /// algorithms compute their result and then stream it out. Streaming
    /// always runs DESQ-DFS's flat-table path — the lean counting path
    /// cannot emit patterns incrementally, so the session's
    /// [`execution_policy`](MiningSessionBuilder::execution_policy) does
    /// not apply here. The tables are built lazily (a sequence the FST
    /// rejects costs one forward pass), so forcing Flat costs a selective
    /// constraint ≈ 1.2× its [`run`](MiningSession::run) time, not the
    /// 3–4× of the eager build. Patterns
    /// arrive in discovery order (an unspecified interleaving of the
    /// workers' DFS orders when `workers > 1`), *not* necessarily the
    /// sorted order of [`run`](MiningSession::run). Call
    /// [`PatternStream::finish`] to obtain the run's [`MiningMetrics`] and
    /// surface any error.
    ///
    /// Dropping the stream early stops DESQ-DFS mid-search (the producer
    /// notices the closed channel at its next emission); for the other
    /// algorithms the computation has no mid-run cancellation point, so
    /// the drop discards the remaining patterns but blocks until the
    /// already-running computation finishes.
    pub fn stream(&self) -> PatternStream {
        let (tx, rx) = mpsc::sync_channel(1024);
        let session = self.clone();
        let handle = std::thread::spawn(move || session.stream_worker(&tx));
        PatternStream {
            rx: Some(rx),
            handle: Some(handle),
        }
    }

    fn stream_worker(&self, tx: &mpsc::SyncSender<(Sequence, u64)>) -> Result<MiningMetrics> {
        let token = self.run_token();
        let mut ctx = self.context();
        ctx.cancel = token.as_ref();
        let mut sent = 0usize;
        let mut overflow = false;
        let streamed = self
            .algorithm
            .miner()
            .mine_each(&ctx, &mut |pattern, freq| {
                if sent >= self.limits.max_patterns {
                    overflow = true;
                    return false;
                }
                // A send error means the stream was dropped: stop mining.
                if tx.send((pattern, freq)).is_err() {
                    return false;
                }
                sent += 1;
                true
            });
        let metrics = streamed.map_err(|e| self.annotate(e))?;
        if overflow {
            return Err(self.over_cap());
        }
        Ok(metrics)
    }
}

/// A lazily-consumed stream of `(pattern, frequency)` pairs produced by
/// [`MiningSession::stream`].
///
/// Iteration yields patterns in discovery order. After the iterator is
/// exhausted (or at any earlier point), [`finish`](PatternStream::finish)
/// joins the mining thread and returns its [`MiningMetrics`] — or the
/// error that terminated it (budget exhaustion, `max_patterns` overflow,
/// validation failure). Dropping the stream without `finish` discards the
/// remaining patterns and reaps the mining thread: DESQ-DFS stops
/// mid-search; other algorithms run their (uncancellable) computation to
/// completion first — see [`MiningSession::stream`].
pub struct PatternStream {
    rx: Option<mpsc::Receiver<(Sequence, u64)>>,
    handle: Option<JoinHandle<Result<MiningMetrics>>>,
}

impl Iterator for PatternStream {
    type Item = (Sequence, u64);

    fn next(&mut self) -> Option<(Sequence, u64)> {
        self.rx.as_ref()?.recv().ok()
    }
}

impl PatternStream {
    /// Drains any remaining patterns, joins the mining thread, and returns
    /// the run's metrics (or its error).
    pub fn finish(mut self) -> Result<MiningMetrics> {
        if let Some(rx) = self.rx.take() {
            // Drain so a blocked producer can complete.
            while rx.recv().is_ok() {}
        }
        let handle = self.handle.take().expect("finish called once");
        handle
            .join()
            .unwrap_or_else(|p| Err(Error::WorkerPanicked(panic_message(p.as_ref()))))
    }
}

impl Drop for PatternStream {
    fn drop(&mut self) {
        // Dropping the receiver makes the producer's next send fail, which
        // stops its emission loop; then reap the thread (this blocks until
        // the producer reaches a send — immediate for DESQ-DFS, after the
        // computation for the run-then-drain algorithms).
        self.rx.take();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::toy;

    fn toy_session(algorithm: AlgorithmSpec) -> MiningSession {
        let fx = toy::fixture();
        MiningSession::builder()
            .dictionary(fx.dict)
            .database(fx.db)
            .pattern(toy::PATTERN)
            .sigma(2)
            .algorithm(algorithm)
            .workers(2)
            .partitions(3)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_each_input() {
        let fx = toy::fixture();
        let missing_dict = MiningSession::builder()
            .database(fx.db.clone())
            .sigma(2)
            .build();
        assert!(matches!(missing_dict, Err(Error::Invalid(ref m)) if m.contains("dictionary")));
        let missing_db = MiningSession::builder()
            .dictionary(fx.dict.clone())
            .sigma(2)
            .build();
        assert!(matches!(missing_db, Err(Error::Invalid(ref m)) if m.contains("database")));
        let missing_sigma = MiningSession::builder()
            .dictionary(fx.dict.clone())
            .database(fx.db.clone())
            .pattern(toy::PATTERN)
            .build();
        assert!(matches!(missing_sigma, Err(Error::Invalid(ref m)) if m.contains("threshold")));
        let missing_fst = MiningSession::builder()
            .dictionary(fx.dict.clone())
            .database(fx.db.clone())
            .sigma(2)
            .algorithm(AlgorithmSpec::d_seq())
            .build();
        assert!(matches!(missing_fst, Err(Error::Invalid(ref m)) if m.contains("constraint")));
        let bad_pattern = MiningSession::builder()
            .dictionary(fx.dict.clone())
            .database(fx.db.clone())
            .pattern("([")
            .sigma(2)
            .build();
        assert!(matches!(bad_pattern, Err(Error::Parse { .. })));
        let zero_workers = MiningSession::builder()
            .dictionary(fx.dict)
            .database(fx.db)
            .pattern(toy::PATTERN)
            .sigma(2)
            .workers(0)
            .build();
        assert!(matches!(zero_workers, Err(Error::Invalid(ref m)) if m.contains("worker")));
    }

    #[test]
    fn compile_only_validates_without_a_database() {
        let fx = toy::fixture();
        // No database, no σ, no algorithm — the dry-run needs neither.
        let fst = MiningSession::builder()
            .dictionary(fx.dict.clone())
            .pattern(toy::PATTERN)
            .compile_only()
            .unwrap();
        // The compiled FST is reusable: a session built on it matches the
        // paper result without recompiling.
        let session = MiningSession::builder()
            .dictionary(fx.dict.clone())
            .database(fx.db.clone())
            .fst(fst.clone())
            .sigma(2)
            .build()
            .unwrap();
        assert_eq!(session.run().unwrap().patterns.len(), 3);
        assert!(Arc::ptr_eq(session.fst().unwrap(), &fst));

        let bad = MiningSession::builder()
            .dictionary(fx.dict.clone())
            .pattern("([")
            .compile_only();
        assert!(matches!(bad, Err(Error::Parse { .. })));
        let unknown = MiningSession::builder()
            .dictionary(fx.dict.clone())
            .pattern("(nosuchitem)")
            .compile_only();
        assert!(matches!(unknown, Err(Error::UnknownItem(_))));
        let no_dict = MiningSession::builder()
            .pattern(toy::PATTERN)
            .compile_only();
        assert!(matches!(no_dict, Err(Error::Invalid(ref m)) if m.contains("dictionary")));
        let no_pattern = MiningSession::builder().dictionary(fx.dict).compile_only();
        assert!(matches!(no_pattern, Err(Error::Invalid(ref m)) if m.contains("pattern")));
    }

    #[test]
    fn run_matches_paper_result_and_reports_metrics() {
        let session = toy_session(AlgorithmSpec::DesqDfs);
        let res = session.run().unwrap();
        assert_eq!(res.patterns.len(), 3);
        assert!(res.is_sorted());
        assert_eq!(res.metrics.input_sequences, 5);
        assert_eq!(res.metrics.output_records, 3);
        assert!(res.metrics.wall_nanos > 0);
        // Distributed variant over the same session: same patterns, plus
        // shuffle accounting.
        let dist = session.with_algorithm(AlgorithmSpec::d_cand()).unwrap();
        let dres = dist.run().unwrap();
        assert_eq!(dres.patterns, res.patterns);
        assert!(dres.metrics.shuffle_bytes > 0);
        assert_eq!(dres.metrics.workers, 2);
    }

    #[test]
    fn max_patterns_overflow_is_a_descriptive_error() {
        let session = toy_session(AlgorithmSpec::DesqDfs);
        let capped = MiningSession {
            limits: Limits::default().with_max_patterns(2),
            ..session
        };
        let err = capped.run().unwrap_err();
        assert!(
            matches!(err, Error::ResourceExhausted(ref m) if m.contains("max_patterns")),
            "{err}"
        );
        // Streaming enforces the same cap.
        let err = capped.stream().finish().unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(ref m) if m.contains("max_patterns")));
    }

    #[test]
    fn budget_errors_name_the_algorithm_and_the_knob() {
        let fx = toy::fixture();
        let session = MiningSession::builder()
            .dictionary(fx.dict)
            .database(fx.db)
            .pattern(toy::PATTERN)
            .sigma(2)
            .algorithm(AlgorithmSpec::DesqCount)
            .budget(2)
            .build()
            .unwrap();
        let err = session.run().unwrap_err();
        match err {
            Error::ResourceExhausted(msg) => {
                assert!(msg.contains("DESQ-COUNT"), "{msg}");
                assert!(msg.contains("MiningSessionBuilder::budget"), "{msg}");
            }
            other => panic!("expected ResourceExhausted, got {other}"),
        }
    }

    #[test]
    fn stream_yields_the_eager_result_set() {
        for spec in [
            AlgorithmSpec::DesqDfs,
            AlgorithmSpec::d_seq(),
            AlgorithmSpec::GapMiner(GapMiner::t1(3)),
        ] {
            let session = toy_session(spec);
            let eager = session.run().unwrap();
            let mut stream = session.stream();
            let mut streamed: Vec<(Sequence, u64)> = stream.by_ref().collect();
            let metrics = stream.finish().unwrap();
            streamed.sort_unstable();
            assert_eq!(streamed, eager.patterns, "{}", session.algorithm().name());
            assert_eq!(metrics.output_records, eager.patterns.len() as u64);
        }
    }

    #[test]
    fn dropping_a_stream_early_cancels_cleanly() {
        let session = toy_session(AlgorithmSpec::DesqDfs);
        let mut stream = session.with_sigma(1).unwrap().stream();
        let first = stream.next();
        assert!(first.is_some());
        drop(stream); // must not hang or leak the mining thread
    }

    #[test]
    fn with_sigma_revalidates() {
        let session = toy_session(AlgorithmSpec::DesqDfs);
        assert!(matches!(session.with_sigma(0), Err(Error::Invalid(_))));
    }

    #[test]
    fn an_expired_deadline_fails_the_run_with_deadline_exceeded() {
        for algorithm in [AlgorithmSpec::DesqCount, AlgorithmSpec::DesqDfs] {
            let fx = toy::fixture();
            let session = MiningSession::builder()
                .dictionary(fx.dict)
                .database(fx.db)
                .pattern(toy::PATTERN)
                .sigma(2)
                .algorithm(algorithm)
                .workers(2)
                .deadline(std::time::Duration::from_nanos(1))
                .build()
                .unwrap();
            let err = session.run().unwrap_err();
            assert!(
                matches!(err, Error::DeadlineExceeded(_)),
                "{}: expected DeadlineExceeded, got {err}",
                session.algorithm().name()
            );
        }
    }

    #[test]
    fn a_pre_cancelled_token_fails_the_run_with_cancelled() {
        let token = CancelToken::new();
        token.cancel();
        let fx = toy::fixture();
        let session = MiningSession::builder()
            .dictionary(fx.dict)
            .database(fx.db)
            .pattern(toy::PATTERN)
            .sigma(2)
            .workers(2)
            .cancel_token(token)
            .build()
            .unwrap();
        assert!(matches!(session.run().unwrap_err(), Error::Cancelled(_)));
    }

    #[test]
    fn cancelling_mid_stream_surfaces_in_finish() {
        let token = CancelToken::new();
        let fx = toy::fixture();
        let session = MiningSession::builder()
            .dictionary(fx.dict)
            .database(fx.db)
            .pattern(toy::PATTERN)
            .sigma(2)
            .workers(2)
            .cancel_token(token.clone())
            .build()
            .unwrap();
        token.cancel();
        let mut stream = session.stream();
        let drained: Vec<_> = stream.by_ref().collect();
        // The token tripped before mining began, so nothing may have been
        // emitted and `finish` must report the typed cancellation.
        assert!(drained.is_empty(), "cancelled run emitted {drained:?}");
        assert!(matches!(stream.finish().unwrap_err(), Error::Cancelled(_)));
    }

    #[test]
    fn an_unexercised_deadline_changes_nothing() {
        let fx = toy::fixture();
        let session = MiningSession::builder()
            .dictionary(fx.dict)
            .database(fx.db)
            .pattern(toy::PATTERN)
            .sigma(2)
            .workers(2)
            .deadline(std::time::Duration::from_secs(3600))
            .build()
            .unwrap();
        let out = session.run().unwrap();
        assert_eq!(out.patterns.len(), 3);
        assert!(!out.metrics.cancelled);
    }
}
