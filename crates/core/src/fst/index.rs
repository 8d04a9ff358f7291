//! A derived, cache-resident view of a compiled [`Fst`] for hot-path
//! simulation: the CSR transition index every simulation of the FST reads.
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
//! # The index belongs to its `Fst`
//!
//! [`Fst::compile`] builds the index once — labels interned by hashing,
//! its size linear in `|Δ|` — and checks its packed widths there, so an
//! automaton too wide to index fails to compile with [`Error::Invalid`]
//! instead of failing a mining run. Every consumer borrows it through
//! [`Fst::index`]: the index is immutable and `Sync`, shared across
//! threads, sequences and mining phases, and valid for exactly the
//! automaton that holds it. Consumers must uphold:
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

use super::{Fst, InputLabel, OutputLabel, Transition};
use crate::error::{Error, Result};
use crate::fx::FxHashMap;

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
    /// The nonzero words of each label's transition bits as `(label,
    /// word, bits)`, sorted: label `li` owns
    /// `label_words[label_starts[li]..label_starts[li + 1]]`. Sparse, so
    /// the index stays linear in `|Δ|` however many labels there are.
    label_words: Vec<(i16, u16, u64)>,
    label_starts: Vec<u32>,
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

/// The dense number of `key` in `keys`, interning it on first sight.
fn intern<K: Copy + Eq + std::hash::Hash>(
    ids: &mut FxHashMap<K, usize>,
    keys: &mut Vec<K>,
    key: K,
) -> usize {
    *ids.entry(key).or_insert_with(|| {
        keys.push(key);
        keys.len() - 1
    })
}

impl FstIndex {
    /// A copy of `fst.index()`, the index [`Fst::compile`] built: same
    /// data, same [`generation`](Self::generation). Nothing is rebuilt;
    /// borrow [`Fst::index`] instead wherever a reference will do.
    pub fn new(fst: &Fst) -> FstIndex {
        fst.index().clone()
    }

    /// Builds the index of a compiled automaton's transition table
    /// (`states[q]` = state `q`'s transitions; `pre_states` /
    /// `pre_transitions` its size before the optimizer passes). Fails with
    /// [`Error::Invalid`] when the automaton exceeds a packed [`TrRef`]
    /// width: more than `i16::MAX` distinct output labels, more than
    /// `u16::MAX` distinct input labels, or more than `64 · 2¹⁶`
    /// transitions.
    pub(super) fn build(
        states: &[Vec<Transition>],
        pre_states: usize,
        pre_transitions: usize,
    ) -> Result<FstIndex> {
        let transitions: usize = states.iter().map(Vec::len).sum();
        let (mut label_ids, mut labels) = (FxHashMap::default(), Vec::new());
        let (mut input_ids, mut distinct_inputs) = (FxHashMap::default(), Vec::new());
        let mut inputs: Vec<(InputLabel, u32)> = Vec::with_capacity(transitions);
        let mut distinct_of: Vec<u16> = Vec::with_capacity(transitions);
        let mut trs: Vec<TrRef> = Vec::with_capacity(transitions);
        let mut state_offsets: Vec<u32> = Vec::with_capacity(states.len() + 1);
        state_offsets.push(0);
        for state in states {
            for tr in state {
                let d = inputs.len();
                inputs.push((tr.input, tr.to));
                distinct_of.push(intern(&mut input_ids, &mut distinct_inputs, tr.input) as u16);
                let label = if tr.produces_output() {
                    intern(&mut label_ids, &mut labels, tr.output) as i16
                } else {
                    -1
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
        // The casts above wrap once a count outgrows its field: fail here.
        let (n_labels, n_inputs) = (labels.len(), distinct_inputs.len());
        for (count, max, what) in [
            (transitions, 64 << 16, "transitions (u16 mask words)"),
            (n_labels, i16::MAX as usize, "distinct output labels (i16)"),
            (n_inputs, u16::MAX as usize, "distinct input labels (u16)"),
        ] {
            if count > max {
                return Err(Error::Invalid(format!(
                    "the compiled FST has {count} {what}; its transition index \
                     numbers at most {max}"
                )));
            }
        }
        // Each label's bits, word by word: sorted by (label, word), a
        // label's transitions are contiguous and equal words adjacent.
        let mut label_words: Vec<(i16, u16, u64)> = trs
            .iter()
            .filter(|tr| tr.label >= 0)
            .map(|tr| (tr.label, tr.word, tr.mask))
            .collect();
        label_words.sort_unstable_by_key(|&(li, word, _)| (li, word));
        label_words.dedup_by(|next, kept| {
            (next.0, next.1) == (kept.0, kept.1) && {
                kept.2 |= next.2;
                true
            }
        });
        // Every interned label has a transition, so every bound is set.
        let mut label_starts = vec![0u32; n_labels + 1];
        for (end, &(li, ..)) in label_words.iter().enumerate() {
            label_starts[li as usize + 1] = end as u32 + 1;
        }
        let nq = states.len();
        let mut can_output: Vec<bool> = states
            .iter()
            .map(|s| s.iter().any(Transition::produces_output))
            .collect();
        loop {
            let mut changed = false;
            for q in 0..nq {
                if !can_output[q]
                    && states[q]
                        .iter()
                        .any(|tr| !tr.produces_output() && can_output[tr.to as usize])
                {
                    can_output[q] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        Ok(FstIndex {
            words: transitions.div_ceil(64).max(1),
            labels,
            label_words,
            label_starts,
            inputs,
            distinct_inputs,
            distinct_of,
            trs,
            state_offsets,
            can_output,
            step_table_eligible: fits_step_table(nq, transitions),
            step_table_eligible_before_opt: fits_step_table(pre_states, pre_transitions),
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
        })
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

    /// Whether any transition with interned label `li` has its bit set in
    /// the mask row `row` ([`words`](Self::words) words).
    #[inline]
    pub(crate) fn label_hits(&self, li: usize, row: &[u64]) -> bool {
        let (a, b) = (self.label_starts[li], self.label_starts[li + 1]);
        self.label_words[a as usize..b as usize]
            .iter()
            .any(|&(_, word, bits)| row[word as usize] & bits != 0)
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
        let ix = fx.fst.index();
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
        let ix = fx.fst.index();
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
        let ix = fx.fst.index();
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

    /// One state with `n` self-loops, the `k`-th labelled `input(k)` /
    /// `output(k)`.
    fn one_state(
        n: u32,
        input: impl Fn(u32) -> InputLabel,
        output: impl Fn(u32) -> OutputLabel,
    ) -> Vec<Vec<Transition>> {
        let tr = |k| Transition {
            input: input(k),
            output: output(k),
            to: 0,
        };
        vec![(0..n).map(tr).collect()]
    }

    #[test]
    fn widths_past_the_packed_fields_fail_typed() {
        let build = |states: &[Vec<Transition>]| FstIndex::build(states, 1, 0);
        let labels = |n| one_state(n, |_| InputLabel::Any, OutputLabel::Const);
        assert_eq!(build(&labels(32_767)).unwrap().num_labels(), 32_767);
        match build(&labels(32_768)) {
            Err(Error::Invalid(msg)) => {
                assert!(msg.contains("32768 distinct output labels"), "{msg}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
        let inputs = |n| one_state(n, InputLabel::Exact, |_| OutputLabel::None);
        let ix = build(&inputs(65_535)).unwrap();
        assert_eq!(ix.distinct_inputs().len(), 65_535);
        match build(&inputs(65_536)) {
            Err(Error::Invalid(msg)) => {
                assert!(msg.contains("65536 distinct input labels"), "{msg}")
            }
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn label_hits_are_the_union_of_each_labels_transition_bits() {
        // 200 transitions (four mask words), every label's bits spread
        // over several words: a row with one transition's bit hits that
        // transition's label and no other.
        let states = one_state(
            200,
            |_| InputLabel::Any,
            |k| match k % 4 {
                0 => OutputLabel::None,
                1 => OutputLabel::Matched,
                r => OutputLabel::Const(r + k / 150),
            },
        );
        let ix = FstIndex::build(&states, 1, 200).unwrap();
        assert_eq!((ix.words(), ix.num_labels()), (4, 4));
        for (d, tr) in ix.state(0).iter().enumerate() {
            let mut row = vec![0u64; ix.words()];
            row[tr.word as usize] = tr.mask;
            for li in 0..ix.num_labels() {
                assert_eq!(
                    ix.label_hits(li, &row),
                    tr.label == li as i16,
                    "δ {d}, label {li}"
                );
            }
        }
        let (none, all) = (vec![0u64; 4], vec![u64::MAX; 4]);
        assert!((0..4).all(|li| !ix.label_hits(li, &none) && ix.label_hits(li, &all)));
    }
}
