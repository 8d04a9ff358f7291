//! Finite-state transducers (FSTs) for subsequence predicates (Sec. IV).
//!
//! An FST "translates" an input sequence `T` into its candidate subsequences
//! `G_π(T)`: every transition *matches* a set of input items (`in_δ`) and
//! computes a set of output items for the matched item (`out_δ`, always
//! ancestors of the input or ε). A run consumes the whole input sequence;
//! accepting runs (ending in a final state) produce candidate subsequences by
//! taking the Cartesian product of the per-position output sets.
//!
//! [`Fst::compile`] builds the transducer from a [`PatEx`] via Thompson
//! construction and ε-elimination. [`sim`] is the one per-sequence
//! simulator — the position–state grid of Sec. V-A as bitsets, dead ends
//! folded out of per-position match masks — and every consumer reads its
//! tables: [`flat`] enumerates accepting runs and counts `G^σ_π(T)`,
//! DESQ-DFS and the pivot DP build on the same tables. The definitions
//! these are checked against (a `bool` grid, transition-by-transition run
//! enumeration, materialized candidate sets) live in the dev-only
//! `desq-oracle` crate.

mod compile;
pub mod flat;
pub mod index;
pub mod nfa;
pub mod opt;
pub mod sim;

pub use flat::{CandidateCounter, RunScratch, RunWalker};
pub use index::{FstIndex, TrRef};
pub use opt::OptLevel;
pub use sim::SimTables;

use crate::dictionary::Dictionary;
use crate::error::Result;
use crate::pexp::PatEx;
use crate::sequence::{ItemId, EPSILON};

/// The input label `in_δ` of a transition: the set of items it matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InputLabel {
    /// Matches any item (`.` expressions).
    Any,
    /// Matches exactly this item (`w=` expressions).
    Exact(ItemId),
    /// Matches any descendant of this item, including itself (`w` expressions).
    Desc(ItemId),
}

impl InputLabel {
    /// True iff this label matches input item `t`.
    #[inline]
    pub fn matches(&self, t: ItemId, dict: &Dictionary) -> bool {
        match *self {
            InputLabel::Any => true,
            InputLabel::Exact(w) => t == w,
            InputLabel::Desc(w) => dict.is_ancestor(w, t),
        }
    }
}

/// The output function `out_δ` of a transition, evaluated on the matched item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OutputLabel {
    /// Produces ε (uncaptured transitions).
    None,
    /// Produces the matched item: `(w)`, `(.)`.
    Matched,
    /// Produces the matched item or any of its ancestors: `(.^)`;
    /// with a bound `w`, only ancestors that are descendants of `w`: `(w^)`.
    Generalize(Option<ItemId>),
    /// Always produces this fixed item: `(w=)`, `(w^=)`.
    Const(ItemId),
}

impl OutputLabel {
    /// Appends the output set `out_δ(t)` to `buf`; ε is represented as
    /// [`EPSILON`]. The output is sorted ascending (ancestor lists are).
    #[inline]
    pub fn outputs(&self, t: ItemId, dict: &Dictionary, buf: &mut Vec<ItemId>) {
        match *self {
            OutputLabel::None => buf.push(EPSILON),
            OutputLabel::Matched => buf.push(t),
            OutputLabel::Const(w) => buf.push(w),
            OutputLabel::Generalize(None) => buf.extend_from_slice(dict.ancestors(t)),
            OutputLabel::Generalize(Some(w)) => {
                for &a in dict.ancestors(t) {
                    if dict.is_ancestor(w, a) {
                        buf.push(a);
                    }
                }
            }
        }
    }
}

/// A transition of the FST: matches one input item and produces an output set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transition {
    /// Acceptable input items.
    pub input: InputLabel,
    /// Output computation for the accepted item.
    pub output: OutputLabel,
    /// Target state.
    pub to: u32,
}

impl Transition {
    /// True iff this transition matches input item `t`.
    #[inline]
    pub fn matches(&self, t: ItemId, dict: &Dictionary) -> bool {
        self.input.matches(t, dict)
    }

    /// Appends the output set `out_δ(t)` to `buf`. ε is represented as
    /// [`EPSILON`]. The output is sorted ascending (ancestor lists are).
    #[inline]
    pub fn outputs(&self, t: ItemId, dict: &Dictionary, buf: &mut Vec<ItemId>) {
        self.output.outputs(t, dict, buf)
    }

    /// True if the transition can produce a non-ε output.
    #[inline]
    pub fn produces_output(&self) -> bool {
        !matches!(self.output, OutputLabel::None)
    }
}

/// A compiled finite-state transducer.
///
/// States are dense `u32` ids; every transition consumes exactly one input
/// item (ε-input transitions are eliminated at compile time). States that
/// cannot reach a final state are pruned.
#[derive(Debug, Clone)]
pub struct Fst {
    initial: u32,
    finals: Vec<bool>,
    states: Vec<Vec<Transition>>,
    /// State count after ε-removal and pruning but before the optional
    /// determinization/minimization passes (equals `states.len()` at
    /// [`OptLevel::None`]).
    pre_states: u32,
    /// Transition count before the optional optimizer passes.
    pre_transitions: u32,
}

impl Fst {
    /// Compiles a pattern expression against a dictionary at full
    /// optimization ([`OptLevel::Full`]; see [`opt`] for the pipeline).
    ///
    /// Fails with [`crate::Error::UnknownItem`] if the expression references
    /// an item that is not in the dictionary.
    pub fn compile(pexp: &PatEx, dict: &Dictionary) -> Result<Fst> {
        compile::compile(pexp, dict, OptLevel::Full)
    }

    /// Compiles a pattern expression at an explicit [`OptLevel`] —
    /// [`OptLevel::None`] keeps the Thompson-shaped automaton (ε-removal
    /// and pruning only) for oracle comparison against the optimized one.
    pub fn compile_with(pexp: &PatEx, dict: &Dictionary, level: OptLevel) -> Result<Fst> {
        compile::compile(pexp, dict, level)
    }

    /// The initial state.
    #[inline]
    pub fn initial(&self) -> u32 {
        self.initial
    }

    /// Number of states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Total number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.states.iter().map(|s| s.len()).sum()
    }

    /// Number of states *before* the optimizer's determinization and
    /// minimization passes (after ε-removal and pruning, which every
    /// [`OptLevel`] performs) — together with [`num_states`](Self::num_states)
    /// this measures the optimizer's state reduction. Equal to
    /// `num_states()` when compiled at [`OptLevel::None`].
    #[inline]
    pub fn states_before_opt(&self) -> usize {
        self.pre_states as usize
    }

    /// Number of transitions before the optimizer's determinization and
    /// minimization passes (see [`states_before_opt`](Self::states_before_opt)).
    #[inline]
    pub fn transitions_before_opt(&self) -> usize {
        self.pre_transitions as usize
    }

    /// Outgoing transitions of state `q`.
    #[inline]
    pub fn transitions(&self, q: u32) -> &[Transition] {
        &self.states[q as usize]
    }

    /// True iff `q` is a final state.
    #[inline]
    pub fn is_final(&self, q: u32) -> bool {
        self.finals[q as usize]
    }

    /// True iff the FST accepts the empty input sequence.
    pub fn accepts_empty(&self) -> bool {
        self.is_final(self.initial)
    }

    /// Renders the FST in Graphviz dot format (for debugging and
    /// documentation; Fig. 4 of the paper is this output for the running
    /// example's πex).
    pub fn to_dot(&self, dict: &Dictionary) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph fst {\n  rankdir=LR;\n  node [shape=circle];\n");
        for q in 0..self.num_states() as u32 {
            if self.is_final(q) {
                let _ = writeln!(out, "  q{q} [shape=doublecircle];");
            }
        }
        let _ = writeln!(out, "  start [shape=point];\n  start -> q{};", self.initial);
        for q in 0..self.num_states() as u32 {
            for tr in self.transitions(q) {
                let input = match tr.input {
                    InputLabel::Any => ".".to_string(),
                    InputLabel::Exact(w) => format!("{}=", dict.name(w)),
                    InputLabel::Desc(w) => dict.name(w).to_string(),
                };
                let label = match tr.output {
                    OutputLabel::None => input,
                    OutputLabel::Matched => format!("({input})"),
                    OutputLabel::Generalize(None) => format!("({input}^)"),
                    OutputLabel::Generalize(Some(_)) => format!("({input}^)"),
                    OutputLabel::Const(w) => format!("({input}:{})", dict.name(w)),
                };
                let _ = writeln!(out, "  q{q} -> q{} [label=\"{label}\"];", tr.to);
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn toy_fst_structure_is_sane() {
        let fx = toy::fixture();
        assert!(fx.fst.num_states() >= 3);
        assert!(fx.fst.num_transitions() >= 6);
        assert!(!fx.fst.accepts_empty());
    }

    #[test]
    fn transition_matching_respects_hierarchy() {
        let fx = toy::fixture();
        let d = &fx.dict;
        let t = Transition {
            input: InputLabel::Desc(fx.big_a),
            output: OutputLabel::Matched,
            to: 0,
        };
        assert!(t.matches(fx.a1, d));
        assert!(t.matches(fx.a2, d));
        assert!(t.matches(fx.big_a, d));
        assert!(!t.matches(fx.b, d));

        let e = Transition {
            input: InputLabel::Exact(fx.big_a),
            output: OutputLabel::Matched,
            to: 0,
        };
        assert!(!e.matches(fx.a1, d));
        assert!(e.matches(fx.big_a, d));
    }

    #[test]
    fn transition_outputs() {
        let fx = toy::fixture();
        let d = &fx.dict;
        let mut buf = Vec::new();

        let gen = Transition {
            input: InputLabel::Any,
            output: OutputLabel::Generalize(None),
            to: 0,
        };
        gen.outputs(fx.a1, d, &mut buf);
        assert_eq!(buf, vec![fx.big_a, fx.a1]); // anc(a1) = {A, a1}, ascending

        buf.clear();
        let bounded = Transition {
            input: InputLabel::Desc(fx.big_a),
            output: OutputLabel::Generalize(Some(fx.big_a)),
            to: 0,
        };
        bounded.outputs(fx.a1, d, &mut buf);
        assert_eq!(buf, vec![fx.big_a, fx.a1]);

        buf.clear();
        let konst = Transition {
            input: InputLabel::Desc(fx.big_a),
            output: OutputLabel::Const(fx.big_a),
            to: 0,
        };
        konst.outputs(fx.a2, d, &mut buf);
        assert_eq!(buf, vec![fx.big_a]);

        buf.clear();
        let none = Transition {
            input: InputLabel::Any,
            output: OutputLabel::None,
            to: 0,
        };
        none.outputs(fx.a1, d, &mut buf);
        assert_eq!(buf, vec![crate::EPSILON]);
    }

    #[test]
    fn dot_export_shows_fig4_structure() {
        let fx = toy::fixture();
        let dot = fx.fst.to_dot(&fx.dict);
        // 3 states like the paper's Fig. 4, with the capture labels visible.
        assert!(dot.contains("digraph fst"));
        assert!(dot.contains("(A)"), "{dot}");
        assert!(dot.contains("(b)"), "{dot}");
        assert!(dot.contains("doublecircle"));
        assert_eq!(dot.matches("-> q").count(), fx.fst.num_transitions() + 1);
    }
}
