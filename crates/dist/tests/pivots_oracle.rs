//! Pivot search against the oracle's definitions on the paper's running
//! example: `K^σ(T)` is the set of pivots of `G^σ_π(T)`, rewriting keeps
//! `G^σ_π(T)`, and the no-grid variant exhausts its budget exactly when
//! the sequence has more accepting runs than that.

use desq_core::{toy, Error, ItemId};
use desq_dist::{PivotScratch, PivotSearch};
use desq_oracle::{candidates, runs, Grid};

#[test]
fn pivots_match_candidate_definition_on_toy() {
    let fx = toy::fixture();
    for sigma in 1..=5u64 {
        let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(sigma));
        for seq in &fx.db.sequences {
            let cands =
                candidates::generate(&fx.fst, &fx.dict, seq, Some(sigma), usize::MAX).unwrap();
            let mut expect: Vec<ItemId> = cands
                .iter()
                .map(|c| desq_core::sequence::pivot(c))
                .collect();
            expect.sort_unstable();
            expect.dedup();
            let got: Vec<ItemId> = search.pivots(seq).iter().map(|p| p.item).collect();
            assert_eq!(got, expect, "σ={sigma}, seq {seq:?}");
        }
    }
}

#[test]
fn rewriting_preserves_candidates_on_toy() {
    let fx = toy::fixture();
    for sigma in 1..=4u64 {
        let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(sigma));
        for seq in &fx.db.sequences {
            for pr in search.pivots(seq) {
                let trimmed = &seq[pr.first as usize..=pr.last as usize];
                let full =
                    candidates::generate(&fx.fst, &fx.dict, seq, Some(sigma), usize::MAX).unwrap();
                let cut = candidates::generate(&fx.fst, &fx.dict, trimmed, Some(sigma), usize::MAX)
                    .unwrap();
                assert_eq!(full, cut, "σ={sigma}, pivot {} of {seq:?}", pr.item);
            }
        }
    }
}

#[test]
fn no_grid_budget_bound_matches_the_oracle_run_count_on_toy() {
    let fx = toy::fixture();
    let (mut scratch, mut got, mut dp) = (PivotScratch::default(), Vec::new(), Vec::new());
    for sigma in 1..=4u64 {
        let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(sigma));
        for seq in &fx.db.sequences {
            let grid = Grid::build(&fx.fst, &fx.dict, seq);
            let runs = runs::count_accepting_runs(&fx.fst, &fx.dict, seq, &grid, usize::MAX);
            search.pivots_into(seq, &mut scratch, &mut dp);
            for budget in 1..=runs + 2 {
                match search.pivots_enumerated_into(seq, budget, &mut scratch, &mut got) {
                    Ok(()) => {
                        assert!(runs <= budget, "σ={sigma} budget {budget} {seq:?}");
                        assert_eq!(got, dp, "σ={sigma} budget {budget} {seq:?}");
                    }
                    Err(Error::ResourceExhausted(msg)) => {
                        assert!(runs > budget, "σ={sigma} budget {budget} {seq:?}");
                        assert_eq!(
                            msg,
                            format!("pivot enumeration exceeded budget of {budget}")
                        );
                    }
                    Err(e) => panic!("σ={sigma} budget {budget} {seq:?}: {e}"),
                }
            }
        }
    }
}
