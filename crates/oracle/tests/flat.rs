//! The flat counting path (`desq_core::fst::flat`) against the oracle on
//! the paper's running example: counts, budget exhaustion, per-run output
//! sets, and the per-sequence candidate count `repro table4` reads.

use desq_core::fst::{CandidateCounter, RunScratch, RunWalker};
use desq_core::fx::FxHashMap;
use desq_core::{toy, Dictionary, Error, Fst, ItemId, Result, Sequence};
use desq_oracle::{candidates, runs, Grid};

/// Reference counting over `candidates::generate` for one database.
fn oracle_counts(
    fst: &Fst,
    dict: &Dictionary,
    seqs: &[Sequence],
    sigma: Option<u64>,
    budget: usize,
) -> Result<Vec<(Sequence, u64)>> {
    let mut counts: FxHashMap<Sequence, u64> = FxHashMap::default();
    for seq in seqs {
        for c in candidates::generate(fst, dict, seq, sigma, budget)? {
            *counts.entry(c).or_insert(0) += 1;
        }
    }
    let mut out: Vec<(Sequence, u64)> = counts.into_iter().collect();
    out.sort();
    Ok(out)
}

fn walker<'a>(fst: &'a Fst, dict: &'a Dictionary, sigma: Option<u64>) -> RunWalker<'a> {
    match sigma {
        Some(s) => RunWalker::new(fst, dict, fst.index(), dict.last_frequent(s)),
        None => RunWalker::unfiltered(fst, dict),
    }
}

fn flat_counts(
    fst: &Fst,
    dict: &Dictionary,
    seqs: &[Sequence],
    sigma: Option<u64>,
    budget: usize,
) -> Result<Vec<(Sequence, u64)>> {
    let walker = walker(fst, dict, sigma);
    let mut scratch = RunScratch::default();
    let mut counter = CandidateCounter::new();
    for seq in seqs {
        walker.count_candidates(seq, 1, budget, &mut scratch, &mut counter, |_, _| {})?;
    }
    let mut out = counter.patterns(0);
    out.sort();
    Ok(out)
}

#[test]
fn flat_counts_match_oracle_on_toy() {
    let fx = toy::fixture();
    for sigma in [None, Some(1), Some(2), Some(3), Some(10)] {
        let oracle = oracle_counts(&fx.fst, &fx.dict, &fx.db.sequences, sigma, usize::MAX);
        let flat = flat_counts(&fx.fst, &fx.dict, &fx.db.sequences, sigma, usize::MAX);
        assert_eq!(flat.unwrap(), oracle.unwrap(), "sigma {sigma:?}");
    }
}

#[test]
fn budget_exhaustion_parity_on_toy() {
    let fx = toy::fixture();
    for budget in 0..40 {
        for sigma in [None, Some(2)] {
            let oracle = oracle_counts(&fx.fst, &fx.dict, &fx.db.sequences, sigma, budget);
            let flat = flat_counts(&fx.fst, &fx.dict, &fx.db.sequences, sigma, budget);
            match (oracle, flat) {
                (Ok(a), Ok(b)) => assert_eq!(b, a, "budget {budget} sigma {sigma:?}"),
                (Err(Error::ResourceExhausted(_)), Err(Error::ResourceExhausted(_))) => {}
                (a, b) => {
                    panic!("budget {budget} sigma {sigma:?}: oracle {a:?} vs flat {b:?}")
                }
            }
        }
    }
}

#[test]
fn run_sets_match_runs_module_on_toy() {
    // The walker's per-run sets equal the (unfiltered) output sets the
    // `runs` module materializes per transition.
    let fx = toy::fixture();
    let walker = RunWalker::unfiltered(&fx.fst, &fx.dict);
    let mut scratch = RunScratch::default();
    for seq in &fx.db.sequences {
        let mut expect: Vec<Vec<Vec<ItemId>>> = Vec::new();
        let grid = Grid::build(&fx.fst, &fx.dict, seq);
        runs::for_each_accepting_run(&fx.fst, &fx.dict, seq, &grid, |path| {
            let mut sets = Vec::new();
            for (tr, &t) in path.iter().zip(seq) {
                if !tr.produces_output() {
                    continue;
                }
                let mut buf = Vec::new();
                tr.output.outputs(t, &fx.dict, &mut buf);
                sets.push(buf);
            }
            expect.push(sets);
            true
        });
        let mut got: Vec<Vec<Vec<ItemId>>> = Vec::new();
        walker.for_each_run(seq, &mut scratch, |sets| {
            assert!(!sets.is_dead(), "unfiltered runs are never dead");
            got.push(sets.iter().map(<[ItemId]>::to_vec).collect());
            true
        });
        assert_eq!(got, expect, "seq {seq:?}");
    }
}

#[test]
fn observed_deltas_count_each_sequences_candidates() {
    // Tab. IV's |G^σ_π(T)|: the growth of `observed` across one
    // `count_candidates` call, on one counter shared by the whole
    // database, is the oracle's per-sequence candidate count.
    let fx = toy::fixture();
    for sigma in [None, Some(1), Some(2), Some(3)] {
        let walker = walker(&fx.fst, &fx.dict, sigma);
        let (mut scratch, mut counter) = (RunScratch::default(), CandidateCounter::new());
        let mut deltas = Vec::new();
        for seq in &fx.db.sequences {
            let before = counter.observed();
            walker
                .count_candidates(seq, 1, usize::MAX, &mut scratch, &mut counter, |_, _| {})
                .unwrap();
            let expect = candidates::generate(&fx.fst, &fx.dict, seq, sigma, usize::MAX)
                .unwrap()
                .len();
            let delta = (counter.observed() - before) as usize;
            assert_eq!(delta, expect, "sigma {sigma:?}, seq {seq:?}");
            deltas.push(delta);
        }
        if sigma.is_none() {
            // Fig. 3: T1 has seven candidates, T3 none.
            assert_eq!((deltas[0], deltas[2]), (7, 0));
        }
    }
}
