//! State merging by signature hashing over a partition of automaton
//! states — the refinement core of the FST optimizer's suffix-sharing pass.
//!
//! A state's *signature* captures everything observable about it under the
//! current partition — acceptance plus its outgoing edges with targets
//! replaced by their class ids — and states with equal signatures merge.
//! FSTs have cycles, so signatures embed the *previous* round's classes and
//! rounds repeat until the class count is stable: Moore-style refinement
//! computing the coarsest forward bisimulation ([`refine_to_fixpoint`]).
//!
//! The idea is generalized from D-CAND's DAWG construction, which needs
//! only one round: a trie is acyclic and children have larger ids than
//! their parents, so a reverse-id pass sees every child's final class
//! before its parent's signature is taken. That one-pass form lives with
//! its arenas in [`nfa::NfaBuilder::finish`](super::nfa::NfaBuilder::finish)
//! (it interns signatures by hash and in-place comparison instead of
//! materializing them).

use std::hash::Hash;

use crate::fx::FxHashMap;

/// Iterates signature-hashing rounds over a previous-round snapshot until
/// the class count is stable, returning the final class count. Each round
/// assigns every state a dense class id (equal signatures ⇒ equal class).
/// `sig_of(q, prev)` receives the *previous* round's classes and must
/// include `prev[q]` itself in the signature so that rounds only ever
/// split classes (the stable-count termination test relies on it).
///
/// Seed `classes` with the initial partition (e.g. acceptance as 0/1).
pub(crate) fn refine_to_fixpoint<Sig: Eq + Hash>(
    classes: &mut [u32],
    mut sig_of: impl FnMut(usize, &[u32]) -> Sig,
) -> u32 {
    let mut num = 0u32;
    loop {
        let prev = classes.to_vec();
        let mut map: FxHashMap<Sig, u32> = FxHashMap::default();
        for (q, class) in classes.iter_mut().enumerate() {
            let fresh = map.len() as u32;
            *class = *map.entry(sig_of(q, &prev)).or_insert(fresh);
        }
        let m = map.len() as u32;
        if m == num {
            return m;
        }
        num = m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_fixpoint_distinguishes_by_depth() {
        // A 3-state chain into a rejecting sink with a self-loop: state i
        // accepts after (2 - i) more steps, so no two chain states may
        // merge even though a single round cannot tell states 0 and 1
        // apart.
        let next = [1usize, 2, 3, 3];
        let accept = [false, false, true, false];
        let mut classes: Vec<u32> = accept.iter().map(|&a| u32::from(a)).collect();
        let n = refine_to_fixpoint(&mut classes, |q, prev| (prev[q], prev[next[q]]));
        assert_eq!(n, 4);
    }

    #[test]
    fn cyclic_fixpoint_merges_bisimilar_loops() {
        // Two disjoint accepting self-loop states are bisimilar.
        let next = [0usize, 1];
        let accept = [true, true];
        let mut classes: Vec<u32> = accept.iter().map(|&a| u32::from(a)).collect();
        let n = refine_to_fixpoint(&mut classes, |q, prev| (prev[q], prev[next[q]]));
        assert_eq!(n, 1);
        assert_eq!(classes[0], classes[1]);
    }
}
