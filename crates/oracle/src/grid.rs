//! The position–state grid of Sec. V-A.
//!
//! FST simulation on an input sequence `T` is memoized on coordinates
//! `(i, q)`: the last-read position `i` and the current state `q` fully
//! determine the remaining simulation. The grid records which coordinates
//! are *forward-reachable* (some partial run from `(0, q_S)` arrives there)
//! and which are *alive* (some accepting completion exists). Dead ends
//! (reachable but not alive — the red crosses of Fig. 5b) are never explored
//! by run enumeration or mining.

use desq_core::{Dictionary, Fst, ItemId};

/// Memoized reachability over the `(position, state)` grid of one input
/// sequence.
pub struct Grid {
    n: usize,
    num_states: usize,
    /// `alive[i * num_states + q]`: coordinate is forward-reachable and an
    /// accepting run passes through it.
    alive: Vec<bool>,
}

impl Grid {
    /// Builds the grid for `seq` by a forward reachability pass followed by a
    /// backward aliveness pass. `O(|T| · |Δ|)`.
    pub fn build(fst: &Fst, dict: &Dictionary, seq: &[ItemId]) -> Grid {
        let n = seq.len();
        let q = fst.num_states();
        let idx = |i: usize, s: u32| i * q + s as usize;

        let mut fwd = vec![false; (n + 1) * q];
        fwd[idx(0, fst.initial())] = true;
        for i in 0..n {
            for s in 0..q as u32 {
                if !fwd[idx(i, s)] {
                    continue;
                }
                for tr in fst.transitions(s) {
                    if tr.matches(seq[i], dict) {
                        fwd[idx(i + 1, tr.to)] = true;
                    }
                }
            }
        }

        let mut alive = vec![false; (n + 1) * q];
        for s in 0..q as u32 {
            alive[idx(n, s)] = fwd[idx(n, s)] && fst.is_final(s);
        }
        for i in (0..n).rev() {
            for s in 0..q as u32 {
                if !fwd[idx(i, s)] {
                    continue;
                }
                let ok = fst
                    .transitions(s)
                    .iter()
                    .any(|tr| tr.matches(seq[i], dict) && alive[idx(i + 1, tr.to)]);
                alive[idx(i, s)] = ok;
            }
        }

        Grid {
            n,
            num_states: q,
            alive,
        }
    }

    /// Sequence length this grid was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// True iff coordinate `(i, q)` lies on some accepting run.
    #[inline]
    pub fn is_alive(&self, i: usize, q: u32) -> bool {
        self.alive[i * self.num_states + q as usize]
    }

    /// True iff the FST has at least one accepting run for the sequence.
    #[inline]
    pub fn accepts(&self) -> bool {
        // Position 0 at the initial state: the initial state has id 0 only by
        // convention of the compiler; use stored aliveness of any state at
        // position 0 that is the initial one. The compiler guarantees
        // initial = 0.
        self.alive[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::toy;

    #[test]
    fn grid_marks_dead_ends() {
        let fx = toy::fixture();
        // T3 = c d c b has no accepting run for πex.
        let g = Grid::build(&fx.fst, &fx.dict, &fx.db.sequences[2]);
        assert!(!g.accepts());
        // T5 = a1 a1 b accepts.
        let g5 = Grid::build(&fx.fst, &fx.dict, &fx.db.sequences[4]);
        assert!(g5.accepts());
        assert_eq!(g5.len(), 3);
    }

    #[test]
    fn empty_sequence() {
        let fx = toy::fixture();
        let g = Grid::build(&fx.fst, &fx.dict, &[]);
        assert!(!g.accepts()); // πex requires at least two captured items
        assert!(g.is_empty());
    }
}
