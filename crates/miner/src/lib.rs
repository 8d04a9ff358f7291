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
//! * [`gapminer`] — pattern growth under maximum-gap / maximum-length /
//!   hierarchy constraints, Tab. III's traditional constraints T1–T3: the
//!   local miner of MG-FSM and LASH (Fig. 12) and, at γ = ∞ with patterns
//!   from length 1 ([`GapMiner::t1`]), classic PrefixSpan — the
//!   computation MLlib's distributed PrefixSpan performs (Fig. 13).
//!
//! All three run behind the unified mining API as
//! [`desq_core::mining::Miner`]s: [`algo::DesqDfs`], [`algo::DesqCount`]
//! and [`GapMiner`]. Parallel runs of DESQ-DFS and DESQ-COUNT share the
//! work-stealing task scheduler in [`desq_core::sched`]; DESQ-DFS additionally picks
//! between its flat-table and lean counting execution paths per run (see
//! [`algo::DesqDfs`] and `docs/ARCHITECTURE.md`).

pub mod algo;
pub mod desq_count;
pub mod desq_dfs;
pub mod gapminer;

pub use desq_dfs::{LocalMiner, MinerConfig, MinerScratch, Pick, SeqTables, WeightedInput};
pub use gapminer::GapMiner;

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
