//! # desq-miner
//!
//! Local (single-machine) frequent-sequence miners:
//!
//! * [`desq_dfs`] — the DESQ-DFS pattern-growth algorithm over projected
//!   databases of `(sequence, position, FST state)` snapshots. This is both
//!   the sequential baseline of Tab. V and, through [`LocalMiner`]'s pivot
//!   restrictions and early stopping, the local mining phase of D-SEQ
//!   (Sec. V-C).
//! * [`desq_count`] — DESQ-COUNT: per-sequence candidate generation plus
//!   counting; doubles as the brute-force reference implementation that all
//!   other miners are validated against.
//! * [`prefixspan`] — classic PrefixSpan (maximum-length constraint only,
//!   arbitrary gaps, no hierarchy): the computation MLlib's distributed
//!   PrefixSpan performs, used in the Fig. 13 comparison.
//! * [`gapminer`] — pattern growth under maximum-gap / maximum-length /
//!   hierarchy constraints: the local miner of MG-FSM and LASH (Fig. 12).
//!
//! All four run behind the unified mining API as
//! [`desq_core::mining::Miner`]s: [`algo::DesqDfs`], [`algo::DesqCount`],
//! [`PrefixSpan`] and [`GapMiner`]. Parallel runs of DESQ-DFS and DESQ-COUNT share the
//! work-stealing task scheduler in [`desq_core::sched`]; DESQ-DFS additionally picks
//! between its flat-table and lean counting execution paths per run (see
//! [`algo::DesqDfs`] and `docs/ARCHITECTURE.md`).

pub mod algo;
pub mod desq_count;
pub mod desq_dfs;
pub mod gapminer;
pub mod prefixspan;

pub use desq_dfs::{LocalMiner, MinerConfig, MinerScratch, SeqTables, WeightedInput};
pub use gapminer::GapMiner;
pub use prefixspan::PrefixSpan;

use std::time::Instant;

use desq_core::mining::{MiningContext, MiningMetrics, MiningResult};
use desq_core::Sequence;

/// Sorts mining output lexicographically, in place, by value.
///
/// The results of all miners are *sets*; the lexicographic order is the
/// documented invariant of `MiningResult::patterns` (see
/// [`desq_core::mining::MiningResult`]) that makes outputs directly
/// comparable across algorithms. Patterns are distinct, so the unstable
/// sort is observationally identical to a stable one and avoids the
/// stable sort's allocation.
pub fn sort_patterns(mut patterns: Vec<(Sequence, u64)>) -> Vec<(Sequence, u64)> {
    patterns.sort_unstable();
    patterns
}

/// The result of a run of one of the scheduler-free miners (PrefixSpan, the
/// gap miner) that started at `t0`: its sorted `patterns` with sequential
/// metrics.
pub(crate) fn sequential_result(
    ctx: &MiningContext<'_>,
    t0: Instant,
    patterns: Vec<(Sequence, u64)>,
) -> MiningResult {
    let n = patterns.len() as u64;
    let metrics =
        MiningMetrics::sequential(t0.elapsed().as_nanos() as u64, ctx.db.len() as u64, n, n);
    MiningResult { patterns, metrics }
}
