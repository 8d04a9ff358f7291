//! The owned-`Vec` trie/NFA pipeline D-CAND ran before the flat arenas of
//! `desq_core::fst::nfa` — kept, test-only, as the oracle for byte identity
//! of the wire format and for budget parity. One heap object per state,
//! label and candidate; do not optimize it.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use desq_core::codec::{read_varint, write_varint};
use desq_core::fst::flat::RunSets;
use desq_core::fst::{RunScratch, RunWalker};
use desq_core::{Error, ItemId, Result, Sequence};

use super::merge_pivots;

const HAS_SRC: u8 = 0x1;
const OLD_TARGET: u8 = 0x2;
const FINAL: u8 = 0x4;

#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct State {
    accept: bool,
    /// `(label set, target)`, sorted by label.
    edges: Vec<(Vec<ItemId>, u32)>,
}

#[derive(Debug, Clone)]
pub(super) struct Nfa {
    states: Vec<State>,
}

impl Nfa {
    pub(super) fn expand(&self, budget: usize) -> Result<BTreeSet<Sequence>> {
        let mut out = BTreeSet::new();
        let mut work = 0usize;
        self.expand_from(0, &mut Vec::new(), &mut out, budget, &mut work)?;
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

    pub(super) fn serialize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut serial: Vec<Option<u32>> = vec![None; self.states.len()];
        serial[0] = Some(0);
        let mut next_id = 1u32;
        let mut current = 0u32;
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
            let old_target = serial[*target as usize];
            let mut flags = 0u8;
            if src_id != current {
                flags |= HAS_SRC;
            }
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

    /// The pre-hardening decoder (no acyclicity check) — only ever fed
    /// encoder output here.
    pub(super) fn deserialize(bytes: &[u8]) -> Result<Nfa> {
        let mut states = vec![State::default()];
        let mut current = 0u32;
        let mut buf = bytes;
        while let Some((&flags, rest)) = buf.split_first() {
            buf = rest;
            let src = if flags & HAS_SRC != 0 {
                read_varint(&mut buf)? as u32
            } else {
                current
            };
            let len = read_varint(&mut buf)? as usize;
            let mut label = Vec::with_capacity(len);
            for _ in 0..len {
                label.push(read_varint(&mut buf)? as ItemId);
            }
            let target = if flags & OLD_TARGET != 0 {
                let v = read_varint(&mut buf)? as u32;
                states[v as usize].accept |= flags & FINAL != 0;
                v
            } else {
                current = states.len() as u32;
                states.push(State {
                    accept: flags & FINAL != 0,
                    edges: Vec::new(),
                });
                current
            };
            states[src as usize].edges.push((label, target));
        }
        Ok(Nfa { states })
    }
}

#[derive(Debug, Clone)]
pub(super) struct TrieBuilder {
    nodes: Vec<State>,
}

impl Default for TrieBuilder {
    fn default() -> Self {
        TrieBuilder {
            nodes: vec![State::default()],
        }
    }
}

impl TrieBuilder {
    pub(super) fn insert(&mut self, path: &[Vec<ItemId>]) {
        if path.is_empty() {
            return;
        }
        let mut node = 0u32;
        for label in path {
            let edges = &self.nodes[node as usize].edges;
            node = match edges.iter().find(|(l, _)| l == label) {
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

    pub(super) fn into_nfa(self) -> Nfa {
        Nfa { states: self.nodes }
    }

    /// The DAWG merge: children have larger ids than their parents, so one
    /// reverse-id round of signature interning reaches the fixpoint.
    pub(super) fn minimize(self) -> Nfa {
        let n = self.nodes.len();
        let mut class_of = vec![0u32; n];
        let mut classes: HashMap<State, u32> = HashMap::new();
        let mut rep: Vec<u32> = Vec::new();
        for id in (0..n).rev() {
            let node = &self.nodes[id];
            let sig = State {
                accept: node.accept,
                edges: node
                    .edges
                    .iter()
                    .map(|(l, c)| (l.clone(), class_of[*c as usize]))
                    .collect(),
            };
            let fresh = classes.len() as u32;
            class_of[id] = *classes.entry(sig).or_insert(fresh);
            if class_of[id] == fresh {
                rep.push(id as u32);
            }
        }
        // Renumber classes from the root's so state 0 is the root again.
        let root_class = class_of[0];
        let mut remap: Vec<Option<u32>> = vec![None; rep.len()];
        let mut states = vec![State::default()];
        let mut stack = vec![root_class];
        remap[root_class as usize] = Some(0);
        while let Some(class) = stack.pop() {
            let node = &self.nodes[rep[class as usize] as usize];
            let id = remap[class as usize].expect("pushed classes are mapped");
            let mut edges = Vec::with_capacity(node.edges.len());
            for (label, child) in &node.edges {
                let child_class = class_of[*child as usize] as usize;
                let child_id = *remap[child_class].get_or_insert_with(|| {
                    states.push(State::default());
                    stack.push(child_class as u32);
                    states.len() as u32 - 1
                });
                edges.push((label.clone(), child_id));
            }
            states[id as usize] = State {
                accept: node.accept,
                edges,
            };
        }
        Nfa { states }
    }
}

fn insert_pivot_terms(
    trie: &mut TrieBuilder,
    path: &RunSets<'_>,
    p: ItemId,
    budget: usize,
    work: &mut usize,
) -> Result<()> {
    let mut term: Vec<Vec<ItemId>> = Vec::with_capacity(path.len());
    'first_occurrence: for j in 0..path.len() {
        if !path.set(j).contains(&p) {
            continue;
        }
        term.clear();
        for (i, set) in path.iter().enumerate() {
            let restricted: Vec<ItemId> = if i < j {
                set.iter().copied().filter(|&w| w < p).collect()
            } else if i == j {
                vec![p]
            } else {
                set.iter().copied().filter(|&w| w <= p).collect()
            };
            if restricted.is_empty() {
                continue 'first_occurrence;
            }
            term.push(restricted);
        }
        *work += 1;
        if *work > budget {
            return Err(Error::ResourceExhausted(format!(
                "D-CAND trie construction exceeded budget of {budget}"
            )));
        }
        trie.insert(&term);
    }
    Ok(())
}

/// The per-pivot serialized NFAs of one input sequence, pivot-ascending,
/// under a per-sequence work `budget`.
pub(super) fn representations(
    walker: &RunWalker<'_>,
    seq: &Sequence,
    budget: usize,
    minimize: bool,
    scratch: &mut RunScratch,
) -> Result<Vec<(ItemId, Vec<u8>)>> {
    let mut work = 0usize;
    let mut exhausted = false;
    let mut failure: Option<Error> = None;
    let mut tries: BTreeMap<ItemId, TrieBuilder> = BTreeMap::new();
    let completed = walker.for_each_run(seq, scratch, |sets| {
        work += 1;
        if work > budget {
            exhausted = true;
            return false;
        }
        if sets.is_dead() || sets.is_empty() {
            return true;
        }
        let owned: Vec<&[ItemId]> = sets.iter().collect();
        for p in merge_pivots(&owned) {
            let trie = tries.entry(p).or_default();
            if let Err(e) = insert_pivot_terms(trie, sets, p, budget, &mut work) {
                failure = Some(e);
                return false;
            }
        }
        true
    });
    if let Some(e) = failure {
        return Err(e);
    }
    if exhausted || !completed {
        return Err(Error::ResourceExhausted(format!(
            "D-CAND run enumeration exceeded budget of {budget}"
        )));
    }
    Ok(tries
        .into_iter()
        .map(|(p, trie)| {
            let nfa = if minimize {
                trie.minimize()
            } else {
                trie.into_nfa()
            };
            (p, nfa.serialize())
        })
        .collect())
}
