//! Enumeration of accepting runs (Sec. IV).
//!
//! A *run* for `T = t1...tn` is a sequence of `n` transitions starting in the
//! initial state and consuming every item; it is *accepting* if it ends in a
//! final state. [`for_each_accepting_run`] walks all accepting runs in
//! depth-first order, pruning dead ends with the [`Grid`]. The number of
//! accepting runs can be exponential in `|T|`; callers either bound the walk
//! (return `false` from the visitor to stop) or rely on grid-based dynamic
//! programming instead (pivot search of D-SEQ does the latter).

use desq_core::fst::Transition;
use desq_core::{Dictionary, Fst, ItemId};

use crate::Grid;

/// Walks every accepting run of `fst` on `seq`, invoking `visit` with the
/// transitions of the run (one per position). `visit` returns `false` to
/// abort the walk; the function returns `false` iff it was aborted.
pub fn for_each_accepting_run<'f>(
    fst: &'f Fst,
    dict: &Dictionary,
    seq: &[ItemId],
    grid: &Grid,
    mut visit: impl FnMut(&[&'f Transition]) -> bool,
) -> bool {
    let n = seq.len();
    if !grid.accepts() {
        return true;
    }
    // frame = (position, state, index of next transition to try)
    let mut frames: Vec<(usize, u32, usize)> = vec![(0, fst.initial(), 0)];
    let mut path: Vec<&Transition> = Vec::with_capacity(n);

    while let Some(frame) = frames.last_mut() {
        let (i, q, ti) = *frame;
        if i == n {
            // Complete run; grid guarantees aliveness ⇒ final state.
            debug_assert!(fst.is_final(q));
            if !visit(&path) {
                return false;
            }
            frames.pop();
            path.pop();
            continue;
        }
        // Find the next viable transition.
        let trs = fst.transitions(q);
        let mut found = None;
        for (j, tr) in trs.iter().enumerate().skip(ti) {
            if tr.matches(seq[i], dict) && grid.is_alive(i + 1, tr.to) {
                found = Some((j, tr));
                break;
            }
        }
        match found {
            Some((j, tr)) => {
                frame.2 = j + 1;
                path.push(tr);
                frames.push((i + 1, tr.to, 0));
            }
            None => {
                frames.pop();
                path.pop();
            }
        }
    }
    true
}

/// Counts accepting runs, up to `limit`.
pub fn count_accepting_runs(
    fst: &Fst,
    dict: &Dictionary,
    seq: &[ItemId],
    grid: &Grid,
    limit: usize,
) -> usize {
    let mut count = 0usize;
    for_each_accepting_run(fst, dict, seq, grid, |_| {
        count += 1;
        count < limit
    });
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::toy;

    #[test]
    fn toy_t5_has_three_accepting_runs() {
        // Paper, Sec. IV: the accepting runs for T5 are r1, r2, r3.
        let fx = toy::fixture();
        let t5 = &fx.db.sequences[4];
        let grid = Grid::build(&fx.fst, &fx.dict, t5);
        let mut runs = Vec::new();
        for_each_accepting_run(&fx.fst, &fx.dict, t5, &grid, |path| {
            let outs: Vec<Vec<ItemId>> = path
                .iter()
                .zip(t5)
                .map(|(tr, &t)| {
                    let mut buf = Vec::new();
                    tr.output.outputs(t, &fx.dict, &mut buf);
                    buf
                })
                .collect();
            runs.push(outs);
            true
        });
        assert_eq!(runs.len(), 3);
        // One of the runs produces {a1}-{a1,A}-{b} (run r3 of the paper).
        let r3 = vec![vec![fx.a1], vec![fx.big_a, fx.a1], vec![fx.b]];
        assert!(runs.contains(&r3), "runs: {runs:?}");
    }

    #[test]
    fn no_runs_for_rejected_sequence() {
        let fx = toy::fixture();
        let t3 = &fx.db.sequences[2];
        let grid = Grid::build(&fx.fst, &fx.dict, t3);
        let n = count_accepting_runs(&fx.fst, &fx.dict, t3, &grid, usize::MAX);
        assert_eq!(n, 0);
    }

    #[test]
    fn early_abort_stops_enumeration() {
        let fx = toy::fixture();
        let t2 = &fx.db.sequences[1];
        let grid = Grid::build(&fx.fst, &fx.dict, t2);
        let total = count_accepting_runs(&fx.fst, &fx.dict, t2, &grid, usize::MAX);
        assert!(total > 2, "T2 should have several accepting runs");
        let capped = count_accepting_runs(&fx.fst, &fx.dict, t2, &grid, 2);
        assert_eq!(capped, 2);
    }
}
