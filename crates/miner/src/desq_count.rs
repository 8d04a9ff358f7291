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
//! Since PR 5 the enumeration runs on the flat counting path
//! ([`desq_core::fst::flat`]): a [`RunWalker`] over the shared CSR
//! [`FstIndex`] (per-position output sets σ-filtered once at table-build
//! time, per-thread scratch, no `Grid` and no per-transition allocation)
//! feeding an interned [`CandidateCounter`] (candidates encoded once,
//! counted as byte keys). Workers return *owned* partial counters that the
//! calling thread merges — no lock is held during the merge. The
//! `candidates::generate` oracle remains the documented reference the flat
//! path is property-tested against.
//!
//! Parallel enumeration runs on the same work-stealing scheduler as
//! DESQ-DFS ([`desq_core::sched`]): the database is cut into small
//! input-sequence blocks that seed the task pool, so a block of expensive
//! sequences no longer pins one statically-assigned worker while the
//! others idle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use desq_core::fst::{CandidateCounter, FstIndex, RunScratch, RunWalker};
use desq_core::mining::CancelToken;
use desq_core::sched::{self, WorkerStats};
use desq_core::{mining, Dictionary, Fst, Result, Sequence, SequenceDb};

/// Result of one counting run: sorted patterns, total candidate
/// occurrences counted (the work metric), and per-worker scheduler stats.
type CountOutcome = (Vec<(Sequence, u64)>, u64, Vec<WorkerStats>);

/// Sequences per scheduler task: small enough that stealing balances a
/// skewed database, large enough that the per-task overhead (one deque
/// round trip) stays invisible next to candidate enumeration.
const COUNT_BLOCK: usize = 64;

/// The workhorse behind [`crate::algo::DesqCount`]: mines by explicit
/// candidate enumeration and reports the total number of candidate
/// occurrences counted (the algorithm's work metric) plus per-worker
/// [`WorkerStats`]. Candidate enumeration is sharded into input blocks
/// scheduled by work stealing (per-sequence enumeration is independent);
/// workers count into owned [`CandidateCounter`] partials that are merged
/// on the calling thread before the frequency filter.
pub(crate) fn desq_count_impl(
    db: &SequenceDb,
    fst: &Fst,
    dict: &Dictionary,
    sigma: u64,
    budget: usize,
    workers: usize,
    cancel: Option<&CancelToken>,
) -> Result<CountOutcome> {
    mining::validate_sigma(sigma)?;
    let workers = workers.max(1).min(db.sequences.len().max(1));
    let index = FstIndex::new(fst);
    let max_item = dict.last_frequent(sigma);

    let (counter, stats) = if workers == 1 {
        let t0 = std::time::Instant::now();
        let walker = RunWalker::new(fst, dict, &index, max_item);
        let mut scratch = RunScratch::default();
        let mut counter = CandidateCounter::new();
        for seq in &db.sequences {
            if let Some(token) = cancel {
                token.checkpoint()?;
            }
            walker.count_candidates(seq, 1, budget, &mut scratch, &mut counter, |_, _| {})?;
        }
        (
            counter,
            vec![WorkerStats::solo(t0.elapsed().as_nanos() as u64, 1)],
        )
    } else {
        // Blocks of sequences seed the scheduler; workers only push their
        // owned partial (or the first error) under a lock at the end — no
        // lock is held while counting or merging.
        let n = db.sequences.len();
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
        let partials: Mutex<Vec<(usize, CandidateCounter)>> = Mutex::new(Vec::new());
        let failure: Mutex<Option<desq_core::Error>> = Mutex::new(None);
        let (stats, ()) = sched::run_scheduler(
            seed,
            states,
            &local_cancel,
            cancel,
            |range, (walker, scratch, counter), _ctx| {
                for seq in &db.sequences[range] {
                    if let Err(e) =
                        walker.count_candidates(seq, 1, budget, scratch, counter, |_, _| {})
                    {
                        let mut f = failure.lock().unwrap();
                        if f.is_none() {
                            *f = Some(e);
                        }
                        local_cancel.store(true, Ordering::Relaxed);
                        return;
                    }
                }
            },
            |wid, (_, _, counter)| partials.lock().unwrap().push((wid, counter)),
            || (),
        )?;
        if let Some(e) = failure.into_inner().unwrap() {
            return Err(e);
        }
        let mut partials = partials.into_inner().unwrap();
        partials.sort_by_key(|&(wid, _)| wid);
        let mut merged = CandidateCounter::new();
        for (_, partial) in &partials {
            merged.merge(partial);
        }
        (merged, stats)
    };
    let work = counter.observed();
    let out = counter.patterns(sigma);
    Ok((crate::sort_patterns(out), work, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::toy;
    use desq_core::Error;

    #[test]
    fn toy_frequent_sequences_match_paper() {
        // Paper, Sec. II: for πex and σ = 2 the frequent subsequences are
        // a1 a1 b (2), a1 A b (2), a1 b (3).
        let fx = toy::fixture();
        let (out, _, _) =
            desq_count_impl(&fx.db, &fx.fst, &fx.dict, 2, usize::MAX, 1, None).unwrap();
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
        let (out, work, _) =
            desq_count_impl(&fx.db, &fx.fst, &fx.dict, 1, usize::MAX, 1, None).unwrap();
        // All candidates of all sequences are frequent at σ = 1:
        // 7 (T1) + 11 (T2) + 0 (T3) + 2 (T4) + 3 (T5), with
        // a1b/a1a1b/a1Ab shared between T2 and T5 and a1b also in T1.
        let distinct: std::collections::HashSet<_> = out.iter().map(|(s, _)| s.clone()).collect();
        assert_eq!(distinct.len(), 7 + 11 + 2 + 3 - 4);
        // The work metric counts every candidate occurrence, pre-dedup.
        assert_eq!(work, 7 + 11 + 2 + 3);
        // a1 b appears in T1, T2, T5.
        let a1b = vec![fx.a1, fx.b];
        let f = out.iter().find(|(s, _)| *s == a1b).unwrap().1;
        assert_eq!(f, 3);
    }

    #[test]
    fn sharded_counting_matches_sequential() {
        let fx = toy::fixture();
        for sigma in 1..=4 {
            let (seq, seq_work, _) =
                desq_count_impl(&fx.db, &fx.fst, &fx.dict, sigma, usize::MAX, 1, None).unwrap();
            for workers in 2..=4 {
                let (par, par_work, par_stats) =
                    desq_count_impl(&fx.db, &fx.fst, &fx.dict, sigma, usize::MAX, workers, None)
                        .unwrap();
                assert_eq!(par, seq, "sigma={sigma} workers={workers}");
                assert_eq!(par_work, seq_work, "sigma={sigma} workers={workers}");
                // One stats entry per scheduler worker (the toy db has 5
                // sequences, so the worker count is never clamped here).
                assert_eq!(par_stats.len(), workers);
                assert!(par_stats.iter().map(|s| s.tasks).sum::<u64>() > 0);
            }
        }
    }

    #[test]
    fn high_sigma_yields_nothing() {
        let fx = toy::fixture();
        let (out, _, _) =
            desq_count_impl(&fx.db, &fx.fst, &fx.dict, 10, usize::MAX, 1, None).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn zero_sigma_rejected() {
        let fx = toy::fixture();
        assert!(matches!(
            desq_count_impl(&fx.db, &fx.fst, &fx.dict, 0, usize::MAX, 1, None),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn budget_propagates() {
        let fx = toy::fixture();
        let err = desq_count_impl(&fx.db, &fx.fst, &fx.dict, 2, 2, 2, None).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
    }
}
