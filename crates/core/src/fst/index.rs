//! A derived, cache-resident view of a compiled [`Fst`] for hot-path
//! simulation: the CSR transition index shared by DESQ-DFS local mining and
//! the distributed pivot search.
//!
//! [`FstIndex`] assigns every transition a dense *global index* `δ` in
//! state-major order (state 0's transitions first, then state 1's, …).
//! That index is the transition's bit in a per-position *match mask*: a
//! `⌈|Δ| / 64⌉`-word bitset per input position whose bit `δ` says
//! "transition `δ` matches the item at this position". The rows are built
//! by the shared simulation front-end ([`sim`](super::sim)) —
//! lazily, for transitions leaving forward-reachable states only — and
//! afterwards every match question is a single bit test: no dictionary
//! access, no repeated `InputLabel::matches` evaluation.
//!
//! Output labels are interned: the distinct non-ε [`OutputLabel`]s get
//! dense indices so per-`(position, label)` output sets can live in flat
//! arenas, and [`TrRef::label`] is `-1` for ε-output transitions.
//!
//! # Reuse contract
//!
//! An index is immutable derived data, valid for exactly the [`Fst`] it
//! was built from (the construction cost is `O(|Δ|·|states|)` and the
//! structure is small — build it **once per FST** and share it freely
//! across threads, sequences and mining phases; it is `Sync`). Consumers
//! must uphold:
//!
//! * global transition order is state-major and stable: bit `δ` of a match
//!   mask always refers to `inputs()[δ]`, and `state(q)` yields exactly the
//!   transitions of `q` in that order;
//! * mask rows passed to bit tests must have been built by the
//!   [front-end](super::sim) and are consulted
//!   only under its [reachable-sources contract](super::sim);
//! * interned label indices are only meaningful against the same index
//!   (`labels()[i]`).

use std::sync::atomic::{AtomicU64, Ordering};

use super::{Fst, InputLabel, OutputLabel};

/// Source of unique per-construction [`FstIndex::generation`] ids.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

/// A transition inside an [`FstIndex`]: its bit in the per-position match
/// mask, its target state, and its interned output label (`-1` = ε).
#[derive(Debug, Clone, Copy)]
pub struct TrRef {
    /// The transition's bit within mask word [`TrRef::word`].
    pub mask: u64,
    /// The mask word holding this transition's bit.
    pub word: u16,
    /// Interned output-label index (into [`FstIndex::labels`]), or `-1`
    /// for ε output.
    pub label: i16,
    /// Target state.
    pub to: u32,
}

/// Derived per-FST transition index (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct FstIndex {
    /// Match-mask words per position (`⌈|Δ| / 64⌉`).
    words: usize,
    /// Distinct non-ε output labels in intern order.
    labels: Vec<OutputLabel>,
    /// Per label: union of the label's transition bits (is any transition
    /// with this label matching at a position?).
    label_masks: Vec<Vec<u64>>,
    /// Input labels in global transition order (mask bit order), with the
    /// target state for aliveness pruning of the masks.
    inputs: Vec<(InputLabel, u32)>,
    /// Distinct input labels: the mask build evaluates each distinct label
    /// once per item instead of once per transition.
    distinct_inputs: Vec<InputLabel>,
    /// Per transition (global order): index of its label in
    /// `distinct_inputs` — lets lazy consumers evaluate a label on first
    /// touch and reuse the verdict for every transition sharing it.
    distinct_of: Vec<u16>,
    /// All states' transitions, flattened; state `q` owns
    /// `trs[state_offsets[q]..state_offsets[q + 1]]`.
    trs: Vec<TrRef>,
    state_offsets: Vec<u32>,
    /// Per state: can an output-producing transition still be reached via
    /// ε-output transitions? Closure walks never need to enter states where
    /// this is `false` (e.g. the trailing `.*` of unanchored constraints) —
    /// they accept input but can only produce ε forever.
    can_output: Vec<bool>,
    /// Whether this FST fits the flat step-table fast path of
    /// [`flat`](super::flat): at most 32 states and at most 64 transitions
    /// (one mask word).
    step_table_eligible: bool,
    /// The same predicate evaluated on the automaton's pre-optimization
    /// size ([`Fst::states_before_opt`] / [`Fst::transitions_before_opt`]):
    /// would the un-optimized machine have fit? Comparing the two tells the
    /// optimizer's eligibility win per constraint.
    step_table_eligible_before_opt: bool,
    /// Process-unique construction id (see [`generation`](Self::generation)).
    generation: u64,
}

/// The flat step-table fast-path predicate (see `fst::flat`): one
/// transition-mask word and a `u64`-packable state set.
fn fits_step_table(states: usize, transitions: usize) -> bool {
    states <= 32 && transitions <= 64
}

impl FstIndex {
    /// Builds the index. Panics if the FST exceeds the packed [`TrRef`]
    /// field widths (unreachable for compiled pattern expressions, but
    /// cheap to guarantee).
    pub fn new(fst: &Fst) -> FstIndex {
        let mut labels: Vec<OutputLabel> = Vec::new();
        let mut inputs: Vec<(InputLabel, u32)> = Vec::new();
        let mut trs: Vec<TrRef> = Vec::new();
        let mut state_offsets: Vec<u32> = Vec::with_capacity(fst.num_states() + 1);
        state_offsets.push(0);
        for q in 0..fst.num_states() as u32 {
            for tr in fst.transitions(q) {
                let d = inputs.len();
                inputs.push((tr.input, tr.to));
                let label = if matches!(tr.output, OutputLabel::None) {
                    -1
                } else {
                    match labels.iter().position(|&l| l == tr.output) {
                        Some(i) => i as i16,
                        None => {
                            labels.push(tr.output);
                            labels.len() as i16 - 1
                        }
                    }
                };
                trs.push(TrRef {
                    mask: 1u64 << (d % 64),
                    word: (d / 64) as u16,
                    label,
                    to: tr.to,
                });
            }
            state_offsets.push(trs.len() as u32);
        }
        assert!(
            labels.len() <= i16::MAX as usize,
            "FST has too many distinct output labels to index"
        );
        assert!(
            inputs.len() <= 64 * (u16::MAX as usize + 1),
            "FST has too many transitions to index"
        );
        let words = inputs.len().div_ceil(64).max(1);
        let mut label_masks = vec![vec![0u64; words]; labels.len()];
        for tr in &trs {
            if tr.label >= 0 {
                label_masks[tr.label as usize][tr.word as usize] |= tr.mask;
            }
        }
        let mut distinct_inputs: Vec<InputLabel> = Vec::new();
        let mut distinct_of: Vec<u16> = Vec::with_capacity(inputs.len());
        for &(input, _) in &inputs {
            let di = match distinct_inputs.iter().position(|&l| l == input) {
                Some(i) => i,
                None => {
                    distinct_inputs.push(input);
                    distinct_inputs.len() - 1
                }
            };
            distinct_of.push(di as u16);
        }
        assert!(
            distinct_inputs.len() <= u16::MAX as usize,
            "FST has too many distinct input labels to index"
        );
        let nq = fst.num_states();
        let mut can_output: Vec<bool> = (0..nq as u32)
            .map(|q| fst.transitions(q).iter().any(|tr| tr.produces_output()))
            .collect();
        loop {
            let mut changed = false;
            for q in 0..nq as u32 {
                if !can_output[q as usize]
                    && fst.transitions(q).iter().any(|tr| {
                        matches!(tr.output, OutputLabel::None) && can_output[tr.to as usize]
                    })
                {
                    can_output[q as usize] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        FstIndex {
            words,
            labels,
            label_masks,
            inputs,
            distinct_inputs,
            distinct_of,
            trs,
            state_offsets,
            can_output,
            step_table_eligible: fits_step_table(fst.num_states(), fst.num_transitions()),
            step_table_eligible_before_opt: fits_step_table(
                fst.states_before_opt(),
                fst.transitions_before_opt(),
            ),
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// A process-unique id minted at construction (clones keep their
    /// source's id — they are the same derived data). Caches that persist
    /// across jobs key their contents on this instead of the index's
    /// address, which the allocator may recycle.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Match-mask words per position (`⌈|Δ| / 64⌉`, at least 1).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Whether the indexed FST fits the flat step-table fast path (≤ 32
    /// states, ≤ 64 transitions — a single mask word per position).
    #[inline]
    pub fn step_table_eligible(&self) -> bool {
        self.step_table_eligible
    }

    /// Whether the automaton would have fit the step-table fast path
    /// *before* the optimizer ran (evaluated on
    /// [`Fst::states_before_opt`] / [`Fst::transitions_before_opt`]).
    /// `!before && after` means the optimizer shrank the machine into the
    /// fast path.
    #[inline]
    pub fn step_table_eligible_before_opt(&self) -> bool {
        self.step_table_eligible_before_opt
    }

    /// The distinct non-ε output labels in intern order ([`TrRef::label`]
    /// indexes into this slice).
    #[inline]
    pub fn labels(&self) -> &[OutputLabel] {
        &self.labels
    }

    /// Number of interned (non-ε) output labels.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }

    /// Union of the transition bits of interned label `li`: AND it with a
    /// position's mask row to test "does any transition with this label
    /// match here?".
    #[inline]
    pub fn label_mask(&self, li: usize) -> &[u64] {
        &self.label_masks[li]
    }

    /// Input labels and target states in global transition (mask bit)
    /// order.
    #[inline]
    pub fn inputs(&self) -> &[(InputLabel, u32)] {
        &self.inputs
    }

    /// Transitions of state `q`, in global order.
    #[inline]
    pub fn state(&self, q: usize) -> &[TrRef] {
        &self.trs[self.state_offsets[q] as usize..self.state_offsets[q + 1] as usize]
    }

    /// The distinct input labels (indexable by
    /// [`state_distinct`](Self::state_distinct) entries).
    #[inline]
    pub fn distinct_inputs(&self) -> &[InputLabel] {
        &self.distinct_inputs
    }

    /// Per transition of state `q` (parallel to [`state`](Self::state)):
    /// the index of its input label in
    /// [`distinct_inputs`](Self::distinct_inputs). The simulation
    /// front-end evaluates a distinct label once per item and reuses the
    /// verdict for every transition sharing it.
    #[inline]
    pub fn state_distinct(&self, q: usize) -> &[u16] {
        &self.distinct_of[self.state_offsets[q] as usize..self.state_offsets[q + 1] as usize]
    }

    /// True iff state `q` can still reach an output-producing transition
    /// through ε-output transitions alone.
    #[inline]
    pub fn can_output(&self, q: usize) -> bool {
        self.can_output[q]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn global_order_is_state_major_and_bits_are_distinct() {
        let fx = toy::fixture();
        let ix = FstIndex::new(&fx.fst);
        let mut d = 0usize;
        for q in 0..fx.fst.num_states() {
            for (tr, ixtr) in fx.fst.transitions(q as u32).iter().zip(ix.state(q)) {
                assert_eq!(ix.inputs()[d].0, tr.input);
                assert_eq!(ixtr.to, tr.to);
                assert_eq!(ixtr.word as usize, d / 64);
                assert_eq!(ixtr.mask, 1u64 << (d % 64));
                d += 1;
            }
        }
        assert_eq!(d, fx.fst.num_transitions());
        assert_eq!(ix.words(), d.div_ceil(64).max(1));
    }

    #[test]
    fn step_table_eligibility_matches_the_fast_path_predicate() {
        let fx = toy::fixture();
        let ix = FstIndex::new(&fx.fst);
        assert_eq!(
            ix.step_table_eligible(),
            fx.fst.num_states() <= 32 && fx.fst.num_transitions() <= 64
        );
        // The toy FST is tiny both before and after optimization.
        assert!(ix.step_table_eligible());
        assert!(ix.step_table_eligible_before_opt());
    }

    #[test]
    fn labels_are_interned_and_eps_is_negative() {
        let fx = toy::fixture();
        let ix = FstIndex::new(&fx.fst);
        for q in 0..fx.fst.num_states() {
            for (tr, ixtr) in fx.fst.transitions(q as u32).iter().zip(ix.state(q)) {
                if tr.produces_output() {
                    assert_eq!(ix.labels()[ixtr.label as usize], tr.output);
                } else {
                    assert_eq!(ixtr.label, -1);
                }
            }
        }
    }
}
