//! The compile-time FST optimizer pipeline.
//!
//! [`Fst::compile`] hands the raw Thompson NFST to `optimize`, which runs
//! up to four passes:
//!
//! 1. **ε-removal** — ε-closure rewriting: FST state `q` gets the consuming
//!    edges of every NFST state in `closure(q)` and is final iff the closure
//!    contains the NFST's final state. The compiled [`Fst`] representation
//!    cannot hold ε-input edges, so this pass runs at every [`OptLevel`].
//! 2. **Dead-state pruning** — forward reachability from the initial state
//!    intersected with backward co-reachability to a final state (the
//!    conservative label-free analysis also mirrored by
//!    [`FstIndex`](super::FstIndex)'s `can_output`); the initial state is
//!    always kept and renumbered to id 0. Runs at every [`OptLevel`].
//! 3. **Functional (pair-)determinization** — subset construction treating
//!    each distinct `(input, output)` label pair as one alphabet symbol.
//!    The pair-string language (and therefore every candidate set, pattern
//!    and support) is preserved exactly; duplicate accepting runs with
//!    identical pair-strings merge, so run enumeration shrinks. The pass is
//!    *skipped* when the output relation is non-functional — some state
//!    carries the same input label with two different non-ε outputs
//!    (e.g. `(A)|(A^)`), where determinism over pairs cannot be reconciled
//!    with the output ambiguity and subset growth buys nothing — or when
//!    the subset construction exceeds the blowup guard. ε-outputs are
//!    exempt from the functionality test: the uncaptured `.*` context of
//!    unanchored constraints must not disable the pass.
//! 4. **Suffix-sharing minimization** — Moore-style refinement to the
//!    coarsest forward bisimulation by signature hashing (generalized from
//!    D-CAND's DAWG construction in [`nfa`](super::nfa), which needs one
//!    reverse-id round because a trie is acyclic; an FST has cycles, so
//!    rounds repeat until the class count is stable).
//!    Beyond size, this restores the paper's automaton shapes: Thompson
//!    turns `.*` into an entry edge plus a loop state, the quotient
//!    collapses them into a genuine self-loop — exactly the shape (Fig. 4)
//!    that D-SEQ's "state change = relevant position" rewriting heuristic
//!    (Sec. V-B) relies on.
//!
//! Passes 3 and 4 only apply at [`OptLevel::Full`]; the determinized
//! automaton is kept only if it is no larger than the merely minimized one,
//! so full optimization never regresses the automaton size. The state and
//! transition counts *before* passes 3–4 are recorded on the [`Fst`]
//! ([`Fst::states_before_opt`] / [`Fst::transitions_before_opt`]): a
//! session reads them off its `fst()`, and the `desq-serve` daemon ships
//! them in every query's `ServerStats`, so the reduction is observable end
//! to end.

use super::compile::NState;
use super::{Fst, InputLabel, OutputLabel, Transition};
use crate::fx::{FxHashMap, FxHashSet};

/// How hard [`Fst::compile`] optimizes the compiled automaton.
///
/// [`OptLevel::None`] stops after ε-removal and dead-state pruning (both
/// required to produce a valid [`Fst`] at all) and exists for oracle
/// comparison — the gated benchmark's per-run reference and the
/// `optimized_fst_matches_oracle` property test mine the same constraints
/// at both levels and require identical patterns and supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// ε-removal and pruning only (the automaton is left as Thompson
    /// construction shaped it).
    None,
    /// The whole pipeline: ε-removal, pruning, guarded pair-determinization
    /// and suffix-sharing minimization. The default.
    #[default]
    Full,
}

/// Cap on subset-construction growth: determinization is abandoned (the
/// un-determinized automaton is kept) once it creates more than
/// `max(32, 2n)` subsets for an `n`-state input.
fn blowup_cap(n: usize) -> usize {
    (2 * n).max(32)
}

/// Runs the optimizer pipeline on the raw Thompson NFST (see the
/// [module docs](self) for the passes).
pub(super) fn optimize(nstates: &[NState], start: u32, nfinal: u32, level: OptLevel) -> Fst {
    let (finals, states) = remove_epsilon(nstates, nfinal);
    let (finals, states) = prune(start, finals, states);
    let pre_states = states.len() as u32;
    let pre_transitions = states.iter().map(|s| s.len()).sum::<usize>() as u32;
    let (finals, states) = match level {
        OptLevel::None => (finals, states),
        OptLevel::Full => {
            let (bf, bs) = minimize(&finals, &states);
            match determinize(&finals, &states) {
                Some((df, ds)) => {
                    let (df, ds) = minimize(&df, &ds);
                    let (dn, dt) = (ds.len(), ds.iter().map(|s| s.len()).sum::<usize>());
                    let (bn, bt) = (bs.len(), bs.iter().map(|s| s.len()).sum::<usize>());
                    // Keep the determinized automaton only when it is
                    // strictly smaller. On a size tie the minimized
                    // original wins: determinization reorders states and
                    // edges, and when it buys no size reduction that
                    // reshuffle has shown up as a mining slowdown on the
                    // range-unrolled T-constraints.
                    if (dn, dt) < (bn, bt) {
                        (df, ds)
                    } else {
                        (bf, bs)
                    }
                }
                None => (bf, bs),
            }
        }
    };
    Fst {
        initial: 0,
        finals,
        states,
        pre_states,
        pre_transitions,
    }
}

/// ε-closure of `s` (including `s`), iterative.
fn closure(states: &[NState], s: u32, out: &mut Vec<u32>, seen: &mut FxHashSet<u32>) {
    out.clear();
    seen.clear();
    let mut stack = vec![s];
    seen.insert(s);
    while let Some(q) = stack.pop() {
        out.push(q);
        for &t in &states[q as usize].eps {
            if seen.insert(t) {
                stack.push(t);
            }
        }
    }
}

/// Pass 1 — ε-removal by closure rewriting: FST state `q` corresponds to
/// NFST state `q`; its transitions are the consuming edges of every state
/// in `closure(q)`, and it is final iff its closure contains `nfinal`.
fn remove_epsilon(nstates: &[NState], nfinal: u32) -> (Vec<bool>, Vec<Vec<Transition>>) {
    let n = nstates.len();
    let mut ftrans: Vec<Vec<Transition>> = vec![Vec::new(); n];
    let mut ffinal = vec![false; n];
    let mut cl = Vec::new();
    let mut seen = FxHashSet::default();
    for q in 0..n as u32 {
        closure(nstates, q, &mut cl, &mut seen);
        let mut dedup: FxHashSet<Transition> = FxHashSet::default();
        for &c in &cl {
            if c == nfinal {
                ffinal[q as usize] = true;
            }
            if let Some((input, output, to)) = nstates[c as usize].consume {
                dedup.insert(Transition { input, output, to });
            }
        }
        let mut trs: Vec<Transition> = dedup.into_iter().collect();
        trs.sort_by_key(|t| (t.to, t.input, t.output));
        ftrans[q as usize] = trs;
    }
    (ffinal, ftrans)
}

/// Pass 2 — dead/unreachable-state pruning: keep states that are forward
/// reachable from `initial` *and* co-reachable to some final state
/// (conservative: labels are ignored), then renumber densely with the
/// initial state at id 0 (kept even when dead).
fn prune(
    initial: u32,
    ffinal: Vec<bool>,
    ftrans: Vec<Vec<Transition>>,
) -> (Vec<bool>, Vec<Vec<Transition>>) {
    let n = ftrans.len();
    // Forward reachability from the start.
    let mut reach = vec![false; n];
    let mut stack = vec![initial];
    reach[initial as usize] = true;
    while let Some(q) = stack.pop() {
        for tr in &ftrans[q as usize] {
            if !reach[tr.to as usize] {
                reach[tr.to as usize] = true;
                stack.push(tr.to);
            }
        }
    }

    // Co-reachability: states from which some final state is reachable.
    let mut rev: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (q, trs) in ftrans.iter().enumerate() {
        for tr in trs {
            rev[tr.to as usize].push(q as u32);
        }
    }
    let mut co = vec![false; n];
    let mut stack: Vec<u32> = (0..n as u32).filter(|&q| ffinal[q as usize]).collect();
    for &q in &stack {
        co[q as usize] = true;
    }
    while let Some(q) = stack.pop() {
        for &p in &rev[q as usize] {
            if !co[p as usize] {
                co[p as usize] = true;
                stack.push(p);
            }
        }
    }

    // Keep live states (reachable and co-reachable) plus the initial state.
    let keep: Vec<bool> = (0..n).map(|q| reach[q] && co[q]).collect();
    let mut remap = vec![u32::MAX; n];
    let mut next = 0u32;
    // The initial state always gets id 0, live or not.
    remap[initial as usize] = 0;
    next += 1;
    for q in 0..n {
        if keep[q] && remap[q] == u32::MAX {
            remap[q] = next;
            next += 1;
        }
    }

    let mut states = vec![Vec::new(); next as usize];
    let mut finals = vec![false; next as usize];
    for q in 0..n {
        if remap[q] == u32::MAX {
            continue;
        }
        finals[remap[q] as usize] = ffinal[q];
        let mut trs: Vec<Transition> = ftrans[q]
            .iter()
            .filter(|t| keep[t.to as usize])
            .map(|t| Transition {
                input: t.input,
                output: t.output,
                to: remap[t.to as usize],
            })
            .collect();
        trs.sort_by_key(|t| (t.to, t.input, t.output));
        states[remap[q] as usize] = trs;
    }
    (finals, states)
}

/// True iff some state carries the same input label with two different
/// non-ε output labels — the output relation is then non-functional and
/// pair-determinization is skipped (see the [module docs](self)).
fn non_functional(states: &[Vec<Transition>]) -> bool {
    let mut pairs: Vec<(InputLabel, OutputLabel)> = Vec::new();
    for trs in states {
        pairs.clear();
        pairs.extend(
            trs.iter()
                .filter(|t| !matches!(t.output, OutputLabel::None))
                .map(|t| (t.input, t.output)),
        );
        pairs.sort_unstable();
        pairs.dedup();
        if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
            return true;
        }
    }
    false
}

/// Pass 3 — subset construction over the `(input, output)` pair alphabet.
/// Returns `None` when the pass is skipped (non-functional output relation
/// or blowup guard tripped); the result is otherwise deterministic over
/// pairs, with state 0 the initial subset `{0}` and every state reachable
/// and co-reachable by construction.
fn determinize(
    finals: &[bool],
    states: &[Vec<Transition>],
) -> Option<(Vec<bool>, Vec<Vec<Transition>>)> {
    if non_functional(states) {
        return None;
    }
    let cap = blowup_cap(states.len());
    let mut ids: crate::fx::FxHashMap<Vec<u32>, u32> = crate::fx::FxHashMap::default();
    let mut subsets: Vec<Vec<u32>> = vec![vec![0]];
    let mut dfinals: Vec<bool> = vec![finals[0]];
    let mut dstates: Vec<Vec<Transition>> = Vec::new();
    ids.insert(vec![0], 0);
    let mut i = 0;
    while i < subsets.len() {
        // Union the member states' edges and group them by label pair
        // (sorting by (input, output, to) makes each group's target list
        // sorted and dedup-ready).
        let mut edges: Vec<Transition> = subsets[i]
            .iter()
            .flat_map(|&q| states[q as usize].iter().copied())
            .collect();
        edges.sort_unstable_by_key(|t| (t.input, t.output, t.to));
        edges.dedup();
        let mut trs: Vec<Transition> = Vec::new();
        let mut j = 0;
        while j < edges.len() {
            let (input, output) = (edges[j].input, edges[j].output);
            let mut targets: Vec<u32> = Vec::new();
            while j < edges.len() && edges[j].input == input && edges[j].output == output {
                targets.push(edges[j].to);
                j += 1;
            }
            let next_id = subsets.len() as u32;
            let to = *ids.entry(targets.clone()).or_insert_with(|| {
                dfinals.push(targets.iter().any(|&q| finals[q as usize]));
                subsets.push(targets);
                next_id
            });
            if subsets.len() > cap {
                return None;
            }
            trs.push(Transition { input, output, to });
        }
        trs.sort_by_key(|t| (t.to, t.input, t.output));
        dstates.push(trs);
        i += 1;
    }
    Some((dfinals, dstates))
}

/// Pass 4 — suffix-sharing minimization: merges forward-bisimilar states
/// (identical finality and identical transition signatures up to the
/// current partition), then renumbers so the initial class is state 0
/// (callers rely on it). Language- and output-preserving.
fn minimize(finals: &[bool], states: &[Vec<Transition>]) -> (Vec<bool>, Vec<Vec<Transition>>) {
    let n = states.len();
    // Each round gives every state a dense class id by its signature: its
    // previous class (so rounds only ever split classes) plus its edges
    // with targets replaced by the previous round's classes. The count
    // stops growing at the coarsest forward bisimulation.
    let mut class: Vec<u32> = finals.iter().map(|&f| u32::from(f)).collect();
    let mut m = 0;
    loop {
        let prev = class.clone();
        let mut ids = FxHashMap::default();
        for (q, c) in class.iter_mut().enumerate() {
            let mut edges: Vec<_> = states[q]
                .iter()
                .map(|t| (t.input, t.output, prev[t.to as usize]))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            let fresh = ids.len() as u32;
            *c = *ids.entry((prev[q], edges)).or_insert(fresh);
        }
        if ids.len() == m {
            break;
        }
        m = ids.len();
    }

    let mut q_states: Vec<Vec<Transition>> = vec![Vec::new(); m];
    let mut q_finals = vec![false; m];
    let mut filled = vec![false; m];
    for q in 0..n {
        let g = class[q] as usize;
        q_finals[g] |= finals[q];
        if filled[g] {
            continue;
        }
        filled[g] = true;
        let mut trs: Vec<Transition> = states[q]
            .iter()
            .map(|t| Transition {
                input: t.input,
                output: t.output,
                to: class[t.to as usize],
            })
            .collect();
        trs.sort_by_key(|t| (t.to, t.input, t.output));
        trs.dedup();
        q_states[g] = trs;
    }
    // Renumber so the initial class is state 0.
    let init = class[0];
    if init != 0 {
        q_states.swap(0, init as usize);
        q_finals.swap(0, init as usize);
        for trs in q_states.iter_mut() {
            for t in trs.iter_mut() {
                if t.to == init {
                    t.to = 0;
                } else if t.to == 0 {
                    t.to = init;
                }
            }
            trs.sort_by_key(|t| (t.to, t.input, t.output));
        }
    }
    (q_finals, q_states)
}

#[cfg(test)]
mod tests {
    use super::super::sim::{SimScratch, SimTables, Simulator};
    use super::super::FstIndex;
    use super::*;
    use crate::dictionary::Dictionary;
    use crate::toy;
    use crate::PatEx;

    fn compile_at(expr: &str, dict: &Dictionary, level: OptLevel) -> Fst {
        Fst::compile_with(&PatEx::parse(expr).unwrap().unanchored(), dict, level).unwrap()
    }

    fn accepts(fst: &Fst, dict: &Dictionary, seq: &[crate::ItemId]) -> bool {
        let index = FstIndex::new(fst);
        let sim = Simulator::new(fst, dict, &index, crate::ItemId::MAX);
        sim.build(seq, &mut SimScratch::default(), &mut SimTables::default())
    }

    /// One `.`-labelled ε-output edge per state, to `next[q]`.
    fn chain(next: &[u32]) -> Vec<Vec<Transition>> {
        let edge = |to| Transition {
            input: InputLabel::Any,
            output: OutputLabel::None,
            to,
        };
        next.iter().map(|&to| vec![edge(to)]).collect()
    }

    #[test]
    fn minimization_refines_cycles_to_a_fixpoint() {
        // A 3-state chain into a rejecting sink with a self-loop: state i
        // accepts after (2 - i) more steps, so no two chain states may
        // merge even though a single round cannot tell states 0 and 1
        // apart.
        let (finals, states) = minimize(&[false, false, true, false], &chain(&[1, 2, 3, 3]));
        assert_eq!((finals.len(), states.len()), (4, 4));
        // Two disjoint accepting self-loop states are bisimilar.
        let (finals, states) = minimize(&[true, true], &chain(&[0, 1]));
        assert_eq!((finals, states), (vec![true], chain(&[0])));
    }

    /// The FST has no ε-input edges by representation; "idempotence" of the
    /// ε-removal pass means re-running the pipeline on an already-compiled
    /// automaton (reinterpreted as an ε-free NFST) changes nothing.
    #[test]
    fn eps_removal_is_idempotent() {
        let fx = toy::fixture();
        for level in [OptLevel::None, OptLevel::Full] {
            let fst = compile_at("(A)(b)", &fx.dict, level);
            // Rebuild the NFST view: one NState per state, no ε edges —
            // remove_epsilon must reproduce the transitions verbatim.
            // States with several consuming edges are modelled by chaining
            // through ε-connected satellite states, which the closure then
            // folds back together.
            let mut nstates: Vec<NState> =
                (0..fst.num_states()).map(|_| NState::default()).collect();
            for q in 0..fst.num_states() {
                for tr in fst.transitions(q as u32) {
                    let sat = nstates.len() as u32;
                    nstates.push(NState {
                        eps: Vec::new(),
                        consume: Some((tr.input, tr.output, tr.to)),
                    });
                    nstates[q].eps.push(sat);
                }
            }
            let nfinal = nstates.len() as u32;
            nstates.push(NState::default());
            for q in 0..fst.num_states() as u32 {
                if fst.is_final(q) {
                    nstates[q as usize].eps.push(nfinal);
                }
            }
            let (finals, states) = remove_epsilon(&nstates, nfinal);
            for q in 0..fst.num_states() {
                assert_eq!(finals[q], fst.is_final(q as u32));
                assert_eq!(states[q], fst.transitions(q as u32), "state {q}");
            }
        }
    }

    #[test]
    fn pruning_drops_deliberately_dead_states() {
        // A hand-built ε-free automaton: 0 --(b)--> 1(final), plus an
        // unreachable state 2 and a dead-end state 3 reachable from 0.
        let fx = toy::fixture();
        let t = |to: u32| Transition {
            input: InputLabel::Desc(fx.b),
            output: OutputLabel::Matched,
            to,
        };
        let states = vec![vec![t(1), t(3)], vec![], vec![t(1)], vec![]];
        let finals = vec![false, true, false, false];
        let (pf, ps) = prune(0, finals, states);
        assert_eq!(ps.len(), 2, "unreachable and dead states pruned");
        assert_eq!(ps[0], vec![t(1)], "the dead branch's transition is gone");
        assert!(!pf[0]);
        assert!(pf[1]);
    }

    #[test]
    fn determinization_skips_non_functional_pexps() {
        // `(A)|(A^)`: the same input label from the shared start with two
        // different non-ε outputs — the output relation is non-functional.
        let fx = toy::fixture();
        let fst = compile_at("(A)|(A^)", &fx.dict, OptLevel::None);
        let finals: Vec<bool> = (0..fst.num_states() as u32)
            .map(|q| fst.is_final(q))
            .collect();
        let states: Vec<Vec<Transition>> = (0..fst.num_states() as u32)
            .map(|q| fst.transitions(q).to_vec())
            .collect();
        assert!(non_functional(&states));
        assert!(determinize(&finals, &states).is_none());
        // The compiled Full automaton still minimizes and stays correct.
        let full = compile_at("(A)|(A^)", &fx.dict, OptLevel::Full);
        assert!(full.num_states() <= fst.num_states());
    }

    #[test]
    fn functional_pexps_do_determinize() {
        let fx = toy::fixture();
        let fst = compile_at("(A)(b)", &fx.dict, OptLevel::None);
        let finals: Vec<bool> = (0..fst.num_states() as u32)
            .map(|q| fst.is_final(q))
            .collect();
        let states: Vec<Vec<Transition>> = (0..fst.num_states() as u32)
            .map(|q| fst.transitions(q).to_vec())
            .collect();
        assert!(!non_functional(&states));
        let (df, ds) = determinize(&finals, &states).expect("functional: not skipped");
        // Deterministic over pairs: no state carries two transitions with
        // the same (input, output) pair.
        for trs in &ds {
            let mut pairs: Vec<_> = trs.iter().map(|t| (t.input, t.output)).collect();
            pairs.sort_unstable();
            let len = pairs.len();
            pairs.dedup();
            assert_eq!(pairs.len(), len, "duplicate pair symbol");
        }
        assert_eq!(df.len(), ds.len());
    }

    #[test]
    fn full_is_never_larger_than_none() {
        let fx = toy::fixture();
        for expr in [
            "(A)(b)",
            "(A)|(A^)",
            "[(b)]*",
            "(.^){2}",
            "(b){2,3}",
            toy::PATTERN,
        ] {
            let none = compile_at(expr, &fx.dict, OptLevel::None);
            let full = compile_at(expr, &fx.dict, OptLevel::Full);
            assert!(
                full.num_states() <= none.num_states()
                    && full.num_transitions() <= none.num_transitions(),
                "{expr}: full {}s/{}t vs none {}s/{}t",
                full.num_states(),
                full.num_transitions(),
                none.num_states(),
                none.num_transitions()
            );
            assert_eq!(full.states_before_opt(), none.num_states());
            assert_eq!(full.transitions_before_opt(), none.num_transitions());
        }
    }

    #[test]
    fn both_levels_accept_the_same_toy_sequences() {
        let fx = toy::fixture();
        for expr in ["(A)(b)", "(A)|(A^)", "[(b)|(c)]+", toy::PATTERN] {
            let none = compile_at(expr, &fx.dict, OptLevel::None);
            let full = compile_at(expr, &fx.dict, OptLevel::Full);
            for seq in &fx.db.sequences {
                assert_eq!(
                    accepts(&full, &fx.dict, seq),
                    accepts(&none, &fx.dict, seq),
                    "{expr} on {seq:?}"
                );
            }
        }
    }
}
