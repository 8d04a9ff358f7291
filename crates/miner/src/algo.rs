//! The FST-based sequential algorithms, DESQ-DFS and DESQ-COUNT, behind
//! the [`Miner`] trait. Neither has a parameter of its own: σ, the work
//! budget, cancellation and the worker count all come from the
//! [`MiningContext`]. (The gap miner implements [`Miner`] on its own type,
//! [`crate::GapMiner`].)

use std::time::Instant;

use desq_core::fst::{CandidateCounter, RunScratch, RunWalker};
use desq_core::mining::{
    ExecutionPolicy, Miner, MiningContext, MiningMetrics, MiningResult, PatternSink,
};
use desq_core::{Error, Fst, Result};

use crate::desq_count::desq_count_impl;
use crate::desq_dfs::{LocalMiner, MinerConfig, WeightedInput};

/// Weighted inputs (weight 1 per database sequence) for the pattern-growth
/// miners — borrowed straight from the context's database.
fn unit_inputs<'c>(ctx: &MiningContext<'c>) -> Vec<WeightedInput<'c>> {
    ctx.db.sequences.iter().map(|s| (s.as_slice(), 1)).collect()
}

/// Input sequences probed by the [`ExecutionPolicy::Auto`] cost model.
const PROBE_SEQS: usize = 16;
/// Per-sequence candidate-occurrence cap during probing: a sample sequence
/// that blows through this has a pattern space far too large for candidate
/// enumeration, so the flat path wins regardless of the average.
const PROBE_CAP: usize = 4096;
/// Lean is chosen when the probed average stays at or below this many
/// candidate occurrences per sequence (tuned on the NYT constraint suite:
/// the selective N1–N3 constraints probe in the low single digits, the
/// expressive N5/N4 at ~27/~50 — there the flat tables tie on N5 and win
/// N4 by 1.2–1.4×).
/// Re-measured after the table build went lazy (`nyt_like(40k)`, σ = 10,
/// forced Flat ÷ forced Lean, best of 7): N1 ≈ 1.2, N2 ≈ 0.9, N3 ≈ 1.2 —
/// the 2–5× the lean path used to win on them (3.9, 2.2, 5.0) is gone, so
/// the threshold now guards tens of percent.
const LEAN_MAX_AVG: f64 = 12.0;
/// Structural pre-gate: automata whose state count × distinct-input count
/// exceeds this are assumed expressive enough for the flat path without
/// spending any probe work.
const LEAN_MAX_AUTOMATON: usize = 4096;

/// The [`ExecutionPolicy::Auto`] cost model: decides whether DESQ-DFS
/// should skip flat-table materialization and run the lean counting path.
///
/// Two signals, cheapest first: (1) automaton size — FST state count times
/// distinct input labels — as a structural proxy for pattern-space size;
/// (2) a probe of up to [`PROBE_SEQS`] evenly-strided input sequences run
/// through [`RunWalker::count_candidates`] under a small budget, measuring
/// candidate occurrences per sequence directly. Probe work is bounded by
/// `PROBE_SEQS × PROBE_CAP` and is negligible next to either real path.
fn prefers_lean(ctx: &MiningContext<'_>, fst: &Fst) -> bool {
    let n = ctx.db.sequences.len();
    if n == 0 {
        return true;
    }
    let index = fst.index();
    if fst
        .num_states()
        .saturating_mul(index.distinct_inputs().len())
        > LEAN_MAX_AUTOMATON
    {
        return false;
    }
    let walker = RunWalker::new(fst, ctx.dict, index, ctx.dict.last_frequent(ctx.sigma));
    let mut scratch = RunScratch::default();
    let mut counter = CandidateCounter::new();
    let stride = n.div_ceil(PROBE_SEQS).max(1);
    let mut sampled = 0u64;
    for seq in ctx.db.sequences.iter().step_by(stride).take(PROBE_SEQS) {
        sampled += 1;
        if walker
            .count_candidates(seq, 1, PROBE_CAP, &mut scratch, &mut counter, |_, _| {})
            .is_err()
        {
            return false;
        }
    }
    counter.observed() as f64 / sampled as f64 <= LEAN_MAX_AVG
}

/// DESQ-DFS: pattern growth over projected databases (Fig. 6).
///
/// Honors `ctx.workers` through the work-stealing scheduler in
/// [`desq_core::sched`] (search-subtree tasks, steal-half balancing);
/// per-worker wall times and the task/steal counters land in
/// [`MiningMetrics`]. Honors `ctx.exec`: under
/// [`ExecutionPolicy::Auto`] a sampling cost model (a probe of strided
/// input sequences plus a structural automaton-size gate; see
/// `docs/ARCHITECTURE.md`) may route cheap constraints to the lean
/// candidate-counting path, skipping flat-table materialization; if the
/// lean path exhausts `ctx.limits.budget` the run transparently retries on
/// the flat path. [`ExecutionPolicy::Lean`] forces the counting path (and
/// propagates budget exhaustion); [`ExecutionPolicy::Flat`] forces table
/// materialization.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesqDfs;

impl DesqDfs {
    fn mine_flat(&self, ctx: &MiningContext<'_>, t0: Instant) -> Result<MiningResult> {
        let fst = ctx.fst()?;
        let inputs = unit_inputs(ctx);
        let (patterns, stats) = LocalMiner::new(fst, ctx.dict, MinerConfig::sequential(ctx.sigma))
            .mine_with_workers(&inputs, ctx.workers, ctx.cancel)?;
        let metrics = MiningMetrics::scheduled(
            t0.elapsed().as_nanos() as u64,
            ctx.db.len() as u64,
            patterns.len() as u64,
            patterns.len() as u64,
            &stats,
        );
        Ok(MiningResult { patterns, metrics })
    }
}

impl Miner for DesqDfs {
    fn name(&self) -> &'static str {
        "DESQ-DFS"
    }

    fn mine(&self, ctx: &MiningContext<'_>) -> Result<MiningResult> {
        ctx.validate()?;
        let fst = ctx.fst()?;
        let t0 = Instant::now();
        match ctx.exec {
            ExecutionPolicy::Flat => self.mine_flat(ctx, t0),
            ExecutionPolicy::Lean => desq_count_impl(ctx, t0),
            ExecutionPolicy::Auto => {
                if prefers_lean(ctx, fst) {
                    match desq_count_impl(ctx, t0) {
                        // The probe under-estimated: enumeration blew the
                        // budget somewhere past the sampled prefix. The
                        // flat path bounds its work differently, so fall
                        // back instead of failing a run the flat path
                        // would finish.
                        Err(Error::ResourceExhausted(_)) => self.mine_flat(ctx, t0),
                        other => other,
                    }
                } else {
                    self.mine_flat(ctx, t0)
                }
            }
        }
    }

    /// Streams patterns while the search tree is explored — always on the
    /// flat path, whatever `ctx.exec` says: candidate counting knows no
    /// pattern's frequency before its last input sequence.
    fn mine_each(&self, ctx: &MiningContext<'_>, sink: PatternSink<'_>) -> Result<MiningMetrics> {
        ctx.validate()?;
        let fst = ctx.fst()?;
        let t0 = Instant::now();
        let inputs = unit_inputs(ctx);
        let mut emitted = 0u64;
        let (_, stats) = LocalMiner::new(fst, ctx.dict, MinerConfig::sequential(ctx.sigma))
            .mine_each_with_workers(&inputs, ctx.workers, ctx.cancel, &mut |pattern, freq| {
                let taken = sink(pattern, freq);
                emitted += u64::from(taken);
                taken
            })?;
        Ok(MiningMetrics::scheduled(
            t0.elapsed().as_nanos() as u64,
            ctx.db.len() as u64,
            emitted,
            emitted,
            &stats,
        ))
    }
}

/// DESQ-COUNT: per-sequence candidate generation plus counting — the
/// brute-force reference implementation. Its work metric
/// (`emitted_records`) is the total number of candidate occurrences
/// generated, bounded per sequence by `ctx.limits.budget`. Candidate
/// generation shards the database across `ctx.workers` workers.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesqCount;

impl Miner for DesqCount {
    fn name(&self) -> &'static str {
        "DESQ-COUNT"
    }

    fn mine(&self, ctx: &MiningContext<'_>) -> Result<MiningResult> {
        ctx.validate()?;
        desq_count_impl(ctx, Instant::now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::mining::Limits;
    use desq_core::{toy, Error};

    #[test]
    fn trait_objects_run_and_agree_on_toy() {
        let fx = toy::fixture();
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, 2).with_fst(&fx.fst);
        let dfs = DesqDfs.mine(&ctx).unwrap();
        let cnt = DesqCount.mine(&ctx).unwrap();
        assert_eq!(dfs.patterns, cnt.patterns);
        assert_eq!(dfs.patterns.len(), 3);
        assert!(dfs.is_sorted() && cnt.is_sorted());
        // Non-trivial sequential metrics.
        assert_eq!(dfs.metrics.input_sequences, 5);
        assert_eq!(dfs.metrics.output_records, 3);
        assert_eq!(dfs.metrics.workers, 1);
        assert!(cnt.metrics.emitted_records > cnt.metrics.output_records);
    }

    #[test]
    fn fst_free_miners_ignore_missing_fst() {
        let fx = toy::fixture();
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, 2);
        assert!(crate::GapMiner::t1(3).mine(&ctx).is_ok());
        assert!(crate::GapMiner::new(1, 3, true).mine(&ctx).is_ok());
        // FST-based miners surface a descriptive error instead.
        assert!(matches!(DesqDfs.mine(&ctx), Err(Error::Invalid(_))));
    }

    #[test]
    fn budget_flows_from_limits() {
        let fx = toy::fixture();
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, 2)
            .with_fst(&fx.fst)
            .with_limits(Limits::default().with_budget(2));
        assert!(matches!(
            DesqCount.mine(&ctx),
            Err(Error::ResourceExhausted(_))
        ));
    }

    #[test]
    fn execution_policies_agree_on_toy() {
        let fx = toy::fixture();
        let base = MiningContext::sequential(&fx.db, &fx.dict, 2).with_fst(&fx.fst);
        let with = |exec| MiningContext { exec, ..base };
        let flat = DesqDfs.mine(&with(ExecutionPolicy::Flat)).unwrap();
        let lean = DesqDfs.mine(&with(ExecutionPolicy::Lean)).unwrap();
        let auto = DesqDfs.mine(&base).unwrap();
        assert_eq!(flat.patterns, lean.patterns);
        assert_eq!(flat.patterns, auto.patterns);
        assert_eq!(flat.patterns.len(), 3);
    }

    #[test]
    fn auto_falls_back_to_flat_on_budget_exhaustion_but_lean_propagates() {
        let fx = toy::fixture();
        let strapped = MiningContext::sequential(&fx.db, &fx.dict, 2)
            .with_fst(&fx.fst)
            .with_limits(Limits::default().with_budget(2));
        // Forced lean: the counting path's per-sequence budget trips.
        let lean = MiningContext {
            exec: ExecutionPolicy::Lean,
            ..strapped
        };
        assert!(matches!(
            DesqDfs.mine(&lean),
            Err(Error::ResourceExhausted(_))
        ));
        // Auto: same trip, but the run transparently retries on the flat
        // path and succeeds.
        let auto = DesqDfs.mine(&strapped).unwrap();
        assert_eq!(auto.patterns.len(), 3);
    }
}
