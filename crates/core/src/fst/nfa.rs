//! Tries and NFAs over *output item sets* — D-CAND's compact candidate
//! representation (Sec. VI-A of the paper), hoisted from `desq_dist` so the
//! FST optimizer's suffix-sharing pass and D-CAND's byte-serialized NFAs
//! share one minimization implementation (the `minim`
//! signature-hashing machinery; `desq_dist::dcand::nfa` re-exports this
//! module for compatibility, mirroring the PR-5 `fx`/`codec` hoist).
//!
//! A path through the automaton is a sequence of transitions, each labelled
//! with a non-empty set of items; the automaton *represents* every item
//! sequence obtained by picking one item per transition along a path from
//! the root to an accepting state (the Cartesian semantics of FST outputs).
//!
//! [`TrieBuilder`] accumulates label-set paths (one per accepting-run
//! decomposition), [`TrieBuilder::minimize`] merges suffix-equivalent states
//! (the DAWG construction — "minimization" in the paper's ablation), and
//! [`Nfa::serialize`] / [`Nfa::deserialize`] implement the byte-level
//! encoding that flows through the shuffle, so the measured shuffle volume
//! is honest.
//!
//! ## Wire format
//!
//! A serialized NFA is a stream of transition records walked in DFS order.
//! Each record starts with a flags byte (undefined bits are a decode
//! error):
//!
//! * `HAS_SRC` (0x1) — the source state differs from the decoder's current
//!   state; its id follows as a varint and must already exist.
//! * `OLD_TARGET` (0x2) — the target already exists; its id follows the
//!   label. Otherwise the record creates a new state (ids are assigned in
//!   record order) which becomes the current state.
//! * `FINAL` (0x4) — the target state is accepting.
//!
//! After the flags (and optional source) comes the label: a varint length
//! followed by that many varint item ids.

use std::collections::BTreeSet;

use super::minim;
use crate::codec::{read_varint, write_varint};
use crate::error::{Error, Result};
use crate::sequence::{ItemId, Sequence};

const HAS_SRC: u8 = 0x1;
const OLD_TARGET: u8 = 0x2;
const FINAL: u8 = 0x4;
const VALID_FLAGS: u8 = HAS_SRC | OLD_TARGET | FINAL;

/// One automaton state: acceptance flag plus labelled transitions.
#[derive(Debug, Clone, Default)]
struct State {
    accept: bool,
    /// `(label set, target)`, label sets sorted ascending, edges sorted by
    /// label for deterministic serialization.
    edges: Vec<(Vec<ItemId>, u32)>,
}

/// An acyclic NFA over item-set labels; state 0 is the root.
#[derive(Debug, Clone)]
pub struct Nfa {
    states: Vec<State>,
}

impl Nfa {
    /// Number of states (including the root).
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// The represented set of item sequences.
    ///
    /// May be exponential in the automaton size; use [`Nfa::expand`] with a
    /// budget when the input is untrusted.
    pub fn language(&self) -> BTreeSet<Sequence> {
        self.expand(usize::MAX)
            .expect("unbounded expansion cannot exhaust")
    }

    /// The represented set of item sequences, bounded by `budget` units of
    /// expansion work.
    pub fn expand(&self, budget: usize) -> Result<BTreeSet<Sequence>> {
        let mut out = BTreeSet::new();
        let mut current = Vec::new();
        let mut work = 0usize;
        self.expand_from(0, &mut current, &mut out, budget, &mut work)?;
        Ok(out)
    }

    fn expand_from(
        &self,
        state: u32,
        current: &mut Sequence,
        out: &mut BTreeSet<Sequence>,
        budget: usize,
        work: &mut usize,
    ) -> Result<()> {
        *work += 1;
        if *work > budget {
            return Err(Error::ResourceExhausted(format!(
                "NFA expansion exceeded budget of {budget}"
            )));
        }
        let s = &self.states[state as usize];
        if s.accept && !current.is_empty() {
            out.insert(current.clone());
        }
        for (label, target) in &s.edges {
            for &w in label {
                current.push(w);
                self.expand_from(*target, current, out, budget, work)?;
                current.pop();
            }
        }
        Ok(())
    }

    /// Serializes the automaton (see the module docs for the format).
    pub fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut serial: Vec<Option<u32>> = vec![None; self.states.len()];
        serial[0] = Some(0);
        let mut next_id = 1u32;
        let mut current = 0u32;
        // DFS over edges; frames are (state, next edge index).
        let mut stack: Vec<(u32, usize)> = vec![(0, 0)];
        while let Some(frame) = stack.last_mut() {
            let (s, ei) = *frame;
            let edges = &self.states[s as usize].edges;
            if ei == edges.len() {
                stack.pop();
                continue;
            }
            frame.1 += 1;
            let (label, target) = &edges[ei];
            let src_id = serial[s as usize].expect("DFS visits sources first");
            let mut flags = 0u8;
            if src_id != current {
                flags |= HAS_SRC;
            }
            let old_target = serial[*target as usize];
            if old_target.is_some() {
                flags |= OLD_TARGET;
            }
            if self.states[*target as usize].accept {
                flags |= FINAL;
            }
            out.push(flags);
            if flags & HAS_SRC != 0 {
                write_varint(&mut out, u64::from(src_id));
            }
            write_varint(&mut out, label.len() as u64);
            for &w in label {
                write_varint(&mut out, u64::from(w));
            }
            match old_target {
                Some(t) => write_varint(&mut out, u64::from(t)),
                None => {
                    serial[*target as usize] = Some(next_id);
                    current = next_id;
                    next_id += 1;
                    stack.push((*target, 0));
                }
            }
        }
        out
    }

    /// Decodes a serialized automaton, validating every state reference.
    pub fn deserialize(bytes: &[u8]) -> Result<Nfa> {
        let mut states = vec![State::default()];
        let mut current = 0u32;
        let mut buf = bytes;
        while let Some((&flags, rest)) = buf.split_first() {
            buf = rest;
            if flags & !VALID_FLAGS != 0 {
                return Err(Error::Decode(format!(
                    "NFA: invalid flags byte {flags:#04x}"
                )));
            }
            let src = if flags & HAS_SRC != 0 {
                let v = read_varint(&mut buf)?;
                if v >= states.len() as u64 {
                    return Err(Error::Decode(format!(
                        "NFA: source state {v} does not exist yet"
                    )));
                }
                v as u32
            } else {
                current
            };
            let len = read_varint(&mut buf)? as usize;
            if len > buf.len() {
                return Err(Error::Decode(format!(
                    "NFA: label length {len} exceeds input"
                )));
            }
            let mut label = Vec::with_capacity(len);
            for _ in 0..len {
                let w = read_varint(&mut buf)?;
                label.push(
                    ItemId::try_from(w)
                        .map_err(|_| Error::Decode(format!("NFA: item {w} out of range")))?,
                );
            }
            let target = if flags & OLD_TARGET != 0 {
                let v = read_varint(&mut buf)?;
                if v >= states.len() as u64 {
                    return Err(Error::Decode(format!(
                        "NFA: target state {v} does not exist yet"
                    )));
                }
                if flags & FINAL != 0 {
                    states[v as usize].accept = true;
                }
                v as u32
            } else {
                let id = states.len() as u32;
                states.push(State {
                    accept: flags & FINAL != 0,
                    edges: Vec::new(),
                });
                current = id;
                id
            };
            states[src as usize].edges.push((label, target));
        }
        Ok(Nfa { states })
    }
}

/// A trie over label-set paths, the construction stage of D-CAND's
/// candidate representation.
#[derive(Debug, Clone)]
pub struct TrieBuilder {
    nodes: Vec<State>,
}

impl Default for TrieBuilder {
    fn default() -> Self {
        TrieBuilder::new()
    }
}

impl TrieBuilder {
    /// An empty trie (a lone, non-accepting root).
    pub fn new() -> TrieBuilder {
        TrieBuilder {
            nodes: vec![State::default()],
        }
    }

    /// Inserts one path of (non-empty, sorted) label sets; the node reached
    /// by the last set becomes accepting. Empty paths are ignored.
    pub fn insert(&mut self, path: &[Vec<ItemId>]) {
        if path.is_empty() {
            return;
        }
        let mut node = 0u32;
        for label in path {
            node = match self.nodes[node as usize]
                .edges
                .iter()
                .find(|(l, _)| l == label)
            {
                Some(&(_, child)) => child,
                None => {
                    let child = self.nodes.len() as u32;
                    self.nodes.push(State::default());
                    let edges = &mut self.nodes[node as usize].edges;
                    let at = edges.partition_point(|(l, _)| l < label);
                    edges.insert(at, (label.clone(), child));
                    child
                }
            };
        }
        self.nodes[node as usize].accept = true;
    }

    /// Number of trie nodes, including the root.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Converts the trie into an NFA verbatim (no state merging).
    pub fn into_nfa(self) -> Nfa {
        Nfa { states: self.nodes }
    }

    /// Converts the trie into an NFA with suffix-equivalent states merged
    /// (the incremental-DAWG minimization the paper applies before
    /// serialization). The language is preserved and the state count never
    /// grows.
    pub fn minimize(self) -> Nfa {
        // Children always have larger ids than their parents, so one
        // reverse-order signature-hashing round (the shared `minim`
        // machinery) processes every child before its parent and reaches
        // the fixpoint immediately.
        let n = self.nodes.len();
        let mut class_of = vec![0u32; n];
        let num = minim::hash_round((0..n).rev(), &mut class_of, |id, cls| {
            let node = &self.nodes[id];
            let edges: Vec<(Vec<ItemId>, u32)> = node
                .edges
                .iter()
                .map(|(l, c)| (l.clone(), cls[*c as usize]))
                .collect();
            (node.accept, edges)
        });
        // Representative node per class (any member works — equal
        // signatures mean identical label sets and child classes).
        let mut rep: Vec<u32> = vec![u32::MAX; num as usize];
        for (id, &c) in class_of.iter().enumerate() {
            if rep[c as usize] == u32::MAX {
                rep[c as usize] = id as u32;
            }
        }
        // Renumber classes in DFS order from the root's class so state 0 is
        // the root again.
        let root_class = class_of[0];
        let mut remap: Vec<Option<u32>> = vec![None; num as usize];
        let mut states: Vec<State> = Vec::new();
        let mut stack = vec![root_class];
        remap[root_class as usize] = Some(0);
        states.push(State::default());
        while let Some(class) = stack.pop() {
            let node = &self.nodes[rep[class as usize] as usize];
            let id = remap[class as usize].expect("pushed classes are mapped");
            let mut new_edges = Vec::with_capacity(node.edges.len());
            for (label, child) in &node.edges {
                let child_class = class_of[*child as usize];
                let child_id = match remap[child_class as usize] {
                    Some(c) => c,
                    None => {
                        let c = states.len() as u32;
                        remap[child_class as usize] = Some(c);
                        states.push(State::default());
                        stack.push(child_class);
                        c
                    }
                };
                new_edges.push((label.clone(), child_id));
            }
            states[id as usize] = State {
                accept: node.accept,
                edges: new_edges,
            };
        }
        Nfa { states }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paths() -> Vec<Vec<Vec<ItemId>>> {
        vec![
            vec![vec![4], vec![1]],
            vec![vec![4], vec![2, 4], vec![1]],
            vec![vec![4], vec![3], vec![1]],
            vec![vec![5], vec![3], vec![1]],
        ]
    }

    fn build(paths: &[Vec<Vec<ItemId>>]) -> TrieBuilder {
        let mut t = TrieBuilder::new();
        for p in paths {
            t.insert(p);
        }
        t
    }

    #[test]
    fn trie_language_is_cartesian_union() {
        let nfa = build(&paths()).into_nfa();
        let lang = nfa.language();
        let expect: BTreeSet<Sequence> = [
            vec![4, 1],
            vec![4, 2, 1],
            vec![4, 4, 1],
            vec![4, 3, 1],
            vec![5, 3, 1],
        ]
        .into_iter()
        .collect();
        assert_eq!(lang, expect);
    }

    #[test]
    fn minimize_preserves_language_and_shrinks() {
        let trie = build(&paths());
        let nodes = trie.num_nodes();
        let raw = trie.clone().into_nfa();
        let min = trie.minimize();
        assert_eq!(raw.language(), min.language());
        // The shared suffixes ([3] [1] and the accepting [1] states) merge.
        assert!(min.num_states() < nodes, "{} !< {nodes}", min.num_states());
    }

    #[test]
    fn serialize_roundtrips() {
        for nfa in [build(&paths()).into_nfa(), build(&paths()).minimize()] {
            let bytes = nfa.serialize();
            let back = Nfa::deserialize(&bytes).unwrap();
            assert_eq!(back.language(), nfa.language());
            assert_eq!(back.num_states(), nfa.num_states());
        }
    }

    #[test]
    fn empty_automaton_roundtrips() {
        let nfa = TrieBuilder::new().into_nfa();
        let bytes = nfa.serialize();
        assert!(bytes.is_empty());
        let back = Nfa::deserialize(&bytes).unwrap();
        assert!(back.language().is_empty());
    }

    #[test]
    fn serialization_is_deterministic() {
        // Insertion order must not leak into the minimized encoding.
        let mut a = TrieBuilder::new();
        let mut b = TrieBuilder::new();
        for p in paths() {
            a.insert(&p);
        }
        for p in paths().into_iter().rev() {
            b.insert(&p);
        }
        assert_eq!(a.minimize().serialize(), b.minimize().serialize());
    }

    #[test]
    fn corrupt_bytes_rejected() {
        assert!(matches!(
            Nfa::deserialize(&[0xff, 0x00]),
            Err(Error::Decode(_))
        ));
        assert!(matches!(
            Nfa::deserialize(&[0x01, 0x09, 0x01, 0x02]),
            Err(Error::Decode(_))
        ));
        // Truncated label.
        let good = build(&paths()).minimize().serialize();
        for cut in 1..good.len() {
            // Any prefix must either decode cleanly (record boundary) or
            // error — never panic.
            let _ = Nfa::deserialize(&good[..cut]);
        }
    }

    #[test]
    fn expansion_budget_respected() {
        let nfa = build(&paths()).into_nfa();
        assert!(matches!(nfa.expand(2), Err(Error::ResourceExhausted(_))));
        assert_eq!(nfa.expand(1_000).unwrap(), nfa.language());
    }
}
