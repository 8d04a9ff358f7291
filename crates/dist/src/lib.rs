//! # desq-dist
//!
//! The distributed frequent-sequence-mining algorithms of
//!
//! > A. Renz-Wieland, M. Bertsch, R. Gemulla:
//! > *Scalable Frequent Sequence Mining with Flexible Subsequence Constraints*,
//! > ICDE 2019.
//!
//! All algorithms follow the item-based partitioning framework of Alg. 1:
//! one map-shuffle-reduce round over the [`desq_bsp::Engine`]. Mappers send,
//! for every input sequence `T` and every *pivot item* `p ∈ K^σ(T)`, a
//! representation of the candidate subsequences of `T` with pivot `p` to
//! partition `P_p`; reducers mine each partition independently. The
//! algorithms differ only in the representation they ship:
//!
//! * [`naive`](mod@naive) — NAÏVE sends the candidate subsequences `G_π(T)` verbatim,
//!   SEMI-NAÏVE the frequency-filtered `G^σ_π(T)` (Sec. III-C);
//! * [`dseq`] — D-SEQ sends *rewritten input sequences* `ρ_p(T)` and runs
//!   restricted DESQ-DFS per partition (Sec. V);
//! * [`dcand`] — D-CAND sends *NFAs* that compactly represent the pivot-`p`
//!   candidates, with optional minimization and weighted aggregation of
//!   identical NFAs (Sec. VI).
//!
//! Supporting machinery: [`PivotSearch`] computes pivot sets `K^σ(T)` either
//! by dynamic programming over the position–state grid or by run enumeration
//! (Sec. V-A/V-B), [`dcand::merge_pivots`] is the ⊕ pivot-merge of Th. 1,
//! [`desq_core::fst::nfa`] holds the arena trie/NFA construction with
//! byte-level serialization for shuffle accounting, and [`patterns`] is the constraint
//! library of Tab. III. `docs/ARCHITECTURE.md` in the repository root
//! traces the end-to-end data flow of each algorithm through the flat
//! substrate and the task scheduler.

pub mod algo;
pub mod dcand;
pub mod dseq;
pub mod naive;
pub mod patterns;
pub mod pivots;

pub use dcand::DCandConfig;
pub use dseq::DSeqConfig;
pub use naive::NaiveConfig;
pub use pivots::{PivotRange, PivotScratch, PivotSearch};

use desq_bsp::{Combiner, Engine};
use desq_core::{ItemId, MiningMetrics, Result, Sequence};

/// Outcome of one distributed mining job — the workspace-wide uniform
/// result type, re-exported from [`desq_core::mining`].
pub use desq_core::MiningResult;

/// How a distributed job executes its BSP round.
///
/// [`Exec::Via`] drives the round over a [`desq_bsp::ShuffleTransport`]:
/// [`desq_bsp::InProcess`] runs it on this process's engine (what the
/// [`algo`] adapters do), a [`desq_bsp::NetCoordinator`] farms the map
/// tasks and buckets out to worker processes. [`Exec::Worker`] turns this
/// process into one of those workers: it connects to the coordinator and
/// serves tasks against its own copy of the partitions (every process must
/// build the same corpus and configuration; only task ids and bytes cross
/// the wire).
pub enum Exec<'a> {
    /// Drive the round through a shuffle transport.
    Via(&'a dyn desq_bsp::ShuffleTransport),
    /// Serve the job as a worker connected to a coordinator.
    Worker(std::net::SocketAddr, &'a desq_bsp::NetConfig),
}

/// Runs one combining BSP round the way `exec` says — the one place the
/// three algorithms' map/init/reduce closures meet the engine — and
/// completes the driver's result ([`job_result`], `t0` is the job's start).
/// `None` means this process served the round as a worker.
pub(crate) fn run_round<S: Send>(
    engine: &Engine,
    exec: Exec<'_>,
    t0: std::time::Instant,
    parts: &[&[Sequence]],
    map: impl Fn(&[Sequence], &mut Combiner<ItemId>) -> Result<()> + Sync,
    init: impl Fn() -> S + Sync,
    reduce: impl Fn(&mut S, &ItemId, &[(&[u8], u64)], &mut dyn FnMut((Sequence, u64))) -> Result<()>
        + Sync,
) -> Result<Option<MiningResult>> {
    match exec {
        Exec::Via(transport) => {
            let round = engine.map_combine_reduce_via(transport, parts, map, init, reduce)?;
            Ok(Some(job_result(round, t0, engine, parts)))
        }
        Exec::Worker(addr, net) => {
            engine.run_worker(addr, net, parts, map, init, reduce)?;
            Ok(None)
        }
    }
}

/// Completes a finished round — the reducers' patterns, unsorted, and the
/// engine's measurements — into a job result: the patterns sorted, and the
/// three measurements the engine does not know filled in: the end-to-end
/// wall time since the algorithm started at `t0` (compile and index time
/// included), the worker count and the input size. (FST sizes are per
/// session: the session layer fills them in, `MiningMetrics::record_fst`.)
pub fn job_result(
    (patterns, job): (Vec<(Sequence, u64)>, MiningMetrics),
    t0: std::time::Instant,
    engine: &Engine,
    parts: &[&[Sequence]],
) -> MiningResult {
    MiningResult {
        patterns: desq_miner::sort_patterns(patterns),
        metrics: MiningMetrics {
            wall_nanos: t0.elapsed().as_nanos() as u64,
            workers: engine.workers() as u64,
            input_sequences: parts.iter().map(|p| p.len() as u64).sum(),
            ..job
        },
    }
}
