//! DESQ-COUNT: candidate generation plus counting.
//!
//! For every input sequence, enumerate `G^σ_π(T)` and count each candidate
//! once per generating sequence; frequent candidates are those with count
//! ≥ σ. Simple and *correct by definition* — this is the reference
//! implementation that DESQ-DFS, D-SEQ, D-CAND, NAÏVE and SEMI-NAÏVE are
//! all validated against in tests. It is infeasible for constraints with
//! many candidates per sequence (the reason the paper's naïve distributed
//! algorithms fail on loose constraints).
//!
//! The enumeration runs on the flat counting path
//! ([`desq_core::fst::flat`]): a [`RunWalker`] over the shared CSR
//! [`FstIndex`] (per-position output sets σ-filtered once at table-build
//! time, per-thread scratch, no per-transition allocation) feeding an
//! interned [`CandidateCounter`] (candidates encoded once, counted as byte
//! keys). Workers return *owned* partial counters that the calling thread
//! merges — no lock is held during the merge. The flat path is
//! property-tested against the reference candidate generation of the
//! dev-only `desq-oracle` crate.
//!
//! Parallel enumeration runs on the same work-stealing scheduler as
//! DESQ-DFS ([`desq_core::sched`]): the database is cut into small
//! input-sequence blocks that seed the task pool, so a block of expensive
//! sequences no longer pins one statically-assigned worker while the
//! others idle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use desq_core::fst::{CandidateCounter, FstIndex, RunScratch, RunWalker};
use desq_core::mining::{MiningContext, MiningMetrics, MiningResult};
use desq_core::{sched, Result};

/// The two result locks guard one push or one insert each, never a task
/// body, so nothing can panic while holding them.
const POISONED: &str = "count result lock poisoned";

/// Sequences per scheduler task: small enough that stealing balances a
/// skewed database, large enough that the per-task overhead (one deque
/// round trip) stays invisible next to candidate enumeration.
const COUNT_BLOCK: usize = 64;

/// The body of [`crate::algo::DesqCount`] and of DESQ-DFS's lean path:
/// mines a validated request by explicit candidate enumeration. The total
/// number of candidate occurrences counted (the algorithm's work metric)
/// is the result's `emitted_records`; `t0` is when the caller's run began.
/// Candidate enumeration is sharded into input blocks scheduled by work
/// stealing (per-sequence enumeration is independent); workers count into
/// owned [`CandidateCounter`] partials that are merged on the calling
/// thread before the frequency filter.
pub(crate) fn desq_count_impl(ctx: &MiningContext<'_>, t0: Instant) -> Result<MiningResult> {
    let (db, fst, dict, cancel) = (ctx.db, ctx.fst()?, ctx.dict, ctx.cancel);
    let (sigma, budget) = (ctx.sigma, ctx.limits.budget);
    let n = db.sequences.len();
    let workers = ctx.workers.clamp(1, n.max(1));
    let index = FstIndex::new(fst);
    let max_item = dict.last_frequent(sigma);

    // Blocks of sequences seed the scheduler; workers only push their
    // owned partial (or the first error) under a lock at the end — no
    // lock is held while counting or merging.
    let block = COUNT_BLOCK.min(n.div_ceil(workers).max(1));
    let seed: Vec<std::ops::Range<usize>> = (0..n)
        .step_by(block)
        .map(|s| s..(s + block).min(n))
        .collect();
    let states: Vec<_> = (0..workers)
        .map(|_| {
            (
                RunWalker::new(fst, dict, &index, max_item),
                RunScratch::default(),
                CandidateCounter::new(),
            )
        })
        .collect();
    let local_cancel = AtomicBool::new(false);
    let partials: Mutex<Vec<CandidateCounter>> = Mutex::new(Vec::new());
    let failure: Mutex<Option<desq_core::Error>> = Mutex::new(None);
    let (stats, ()) = sched::run_scheduler(
        seed,
        states,
        &local_cancel,
        cancel,
        |range, (walker, scratch, counter), _ctx| {
            for seq in &db.sequences[range] {
                if let Err(e) = walker.count_candidates(seq, 1, budget, scratch, counter, |_, _| {})
                {
                    failure.lock().expect(POISONED).get_or_insert(e);
                    local_cancel.store(true, Ordering::Relaxed);
                    return;
                }
            }
        },
        |_, (_, _, counter)| partials.lock().expect(POISONED).push(counter),
        || (),
    )?;
    if let Some(e) = failure.into_inner().expect(POISONED) {
        return Err(e);
    }
    // Fold onto the first partial: a lone worker's counter is the result.
    let mut partials = partials.into_inner().expect(POISONED).into_iter();
    let mut counter = partials.next().unwrap_or_default();
    for partial in partials {
        counter.merge(&partial);
    }
    let patterns = crate::sort_patterns(counter.patterns(sigma));
    let metrics = MiningMetrics::scheduled(
        t0.elapsed().as_nanos() as u64,
        n as u64,
        counter.observed(),
        patterns.len() as u64,
        &stats,
    );
    Ok(MiningResult { patterns, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::mining::{Limits, Miner};
    use desq_core::toy;
    use desq_core::Error;

    /// DESQ-COUNT on the toy database through [`Miner::mine`] (`budget` is
    /// the per-sequence work budget).
    fn toy_count(fx: &toy::Toy, sigma: u64, budget: usize, workers: usize) -> Result<MiningResult> {
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, sigma)
            .with_fst(&fx.fst)
            .with_limits(Limits::unbounded().with_budget(budget))
            .with_parallelism(workers, 1);
        crate::algo::DesqCount.mine(&ctx)
    }

    #[test]
    fn toy_frequent_sequences_match_paper() {
        // Paper, Sec. II: for πex and σ = 2 the frequent subsequences are
        // a1 a1 b (2), a1 A b (2), a1 b (3).
        let fx = toy::fixture();
        let out = toy_count(&fx, 2, usize::MAX, 1).unwrap().patterns;
        let rendered: Vec<(String, u64)> =
            out.iter().map(|(s, f)| (fx.dict.render(s), *f)).collect();
        // Lexicographic fid order: a1 b < a1 A b < a1 a1 b.
        assert_eq!(
            rendered,
            vec![
                ("a1 b".to_string(), 3),
                ("a1 A b".to_string(), 2),
                ("a1 a1 b".to_string(), 2),
            ]
        );
    }

    #[test]
    fn sigma_one_keeps_everything() {
        let fx = toy::fixture();
        let res = toy_count(&fx, 1, usize::MAX, 1).unwrap();
        // All candidates of all sequences are frequent at σ = 1:
        // 7 (T1) + 11 (T2) + 0 (T3) + 2 (T4) + 3 (T5), with
        // a1b/a1a1b/a1Ab shared between T2 and T5 and a1b also in T1.
        let distinct: std::collections::HashSet<_> =
            res.patterns.iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(distinct.len(), 7 + 11 + 2 + 3 - 4);
        // The work metric counts every candidate occurrence, pre-dedup.
        assert_eq!(res.metrics.emitted_records, 7 + 11 + 2 + 3);
        // a1 b appears in T1, T2, T5.
        let a1b = vec![fx.a1, fx.b];
        let f = res.patterns.iter().find(|(s, _)| *s == a1b).unwrap().1;
        assert_eq!(f, 3);
    }

    #[test]
    fn sharded_counting_matches_sequential() {
        let fx = toy::fixture();
        for sigma in 1..=4 {
            let seq = toy_count(&fx, sigma, usize::MAX, 1).unwrap();
            // The toy database fits one block, so one worker runs one task.
            assert_eq!((seq.metrics.workers, seq.metrics.tasks), (1, 1));
            for workers in 2..=4 {
                let par = toy_count(&fx, sigma, usize::MAX, workers).unwrap();
                let at = format!("sigma={sigma} workers={workers}");
                assert_eq!(par.patterns, seq.patterns, "{at}");
                assert_eq!(
                    par.metrics.emitted_records, seq.metrics.emitted_records,
                    "{at}"
                );
                // One stats entry per scheduler worker (the toy db has 5
                // sequences, so the worker count is never clamped here).
                assert_eq!(par.metrics.worker_nanos.len(), workers);
                assert!(par.metrics.tasks > 0);
            }
        }
    }

    #[test]
    fn high_sigma_yields_nothing() {
        let fx = toy::fixture();
        assert!(toy_count(&fx, 10, usize::MAX, 1)
            .unwrap()
            .patterns
            .is_empty());
    }

    #[test]
    fn zero_sigma_rejected() {
        let fx = toy::fixture();
        assert!(matches!(
            toy_count(&fx, 0, usize::MAX, 1),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn budget_propagates_as_the_same_error_at_every_worker_count() {
        let fx = toy::fixture();
        let err = toy_count(&fx, 2, 2, 1).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
        assert_eq!(toy_count(&fx, 2, 2, 3).unwrap_err(), err);
    }
}
