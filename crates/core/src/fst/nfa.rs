//! NFAs over *output item sets* — D-CAND's compact candidate representation
//! (Sec. VI-A of the paper) — on flat, reusable arenas.
//!
//! A path through the automaton is a sequence of transitions, each labelled
//! with a non-empty set of items; the automaton *represents* every item
//! sequence obtained by picking one item per transition along a path from
//! the root to an accepting state (the Cartesian semantics of FST outputs).
//!
//! [`NfaBuilder`] is the map side: it accumulates label-set paths (one per
//! accepting-run decomposition) into one trie per key, and
//! [`NfaBuilder::finish`] merges suffix-equivalent states (the DAWG
//! construction — "minimization" in the paper's ablation) and serializes
//! each key's automaton. [`Nfa`] is the reduce side: [`Nfa::decode`]
//! validates the bytes that flowed through the shuffle, so the measured
//! shuffle volume is honest, and [`Nfa::for_each`] streams the represented
//! sequences.
//!
//! ## Arena layout and scratch reuse
//!
//! Both sides keep an automaton as three flat vectors: a label arena
//! (`Vec<ItemId>`), nodes `{first_edge, accept}` and edges `{label range,
//! child, next}` chained per node — no heap object per state, label or
//! represented sequence. An [`NfaBuilder`] holds *all* tries of the current
//! input sequence in one such arena plus a key-sorted root list. Create one
//! builder per map task and one [`Nfa`] per reduce task and reuse them:
//! [`NfaBuilder::clear`] and [`Nfa::decode`] reset lengths but keep
//! capacity, so after warm-up neither side allocates. Nothing survives a
//! reset: every node, label and class id is indexed below the current
//! lengths.
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
//!
//! The encoder emits a state's transitions in ascending label order. The
//! decoder also rejects automata with a cycle: no encoder output has one,
//! and expanding one would not terminate.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use crate::codec::{read_varint, write_varint};
use crate::error::{Error, Result};
use crate::fx::{self, ProbeTable};
use crate::sequence::{ItemId, Sequence};

const HAS_SRC: u8 = 0x1;
const OLD_TARGET: u8 = 0x2;
const FINAL: u8 = 0x4;
const VALID_FLAGS: u8 = HAS_SRC | OLD_TARGET | FINAL;

/// "No edge".
const NONE: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Node {
    first_edge: u32,
    accept: bool,
}

#[derive(Clone, Copy)]
struct Edge {
    /// Range of the label set (sorted ascending) in the label arena.
    label: (u32, u32),
    child: u32,
    /// Next edge of the same source node.
    next: u32,
}

/// The automaton storage of both sides (see the module docs).
#[derive(Default)]
struct Arena {
    labels: Vec<ItemId>,
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl Arena {
    fn clear(&mut self) {
        self.labels.clear();
        self.nodes.clear();
        self.edges.clear();
    }

    fn add_node(&mut self, accept: bool) -> u32 {
        let first_edge = NONE;
        self.nodes.push(Node { first_edge, accept });
        index(self.nodes.len() - 1)
    }

    /// Appends an edge whose label is `labels[label_start..]`, chained
    /// before `next`; the caller links it to its source.
    fn add_edge(&mut self, label_start: usize, child: u32, next: u32) -> u32 {
        let label = (index(label_start), index(self.labels.len()));
        self.edges.push(Edge { label, child, next });
        index(self.edges.len() - 1)
    }

    #[inline]
    fn label(&self, e: Edge) -> &[ItemId] {
        &self.labels[e.label.0 as usize..e.label.1 as usize]
    }

    /// The edges of `node` in chain order.
    fn edges_of(&self, node: u32) -> impl Iterator<Item = Edge> + '_ {
        let mut at = self.nodes[node as usize].first_edge;
        std::iter::from_fn(move || {
            let edge = *self.edges.get(at as usize)?;
            at = edge.next;
            Some(edge)
        })
    }
}

/// Arena offsets are `u32`: the builder's sizes are bounded by the map-side
/// work budget and [`Nfa::decode`] bounds its input length up front.
#[inline]
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("NFA arena exceeds the u32 offset range")
}

/// The map side: tries over label-set paths, one per key (D-CAND's pivot),
/// all in one arena; see the [module docs](self) for layout and reuse.
#[derive(Default)]
pub struct NfaBuilder {
    arena: Arena,
    /// `(key, root node)`, sorted by key.
    roots: Vec<(ItemId, u32)>,
    /// Node → representative node of its suffix-equivalence class.
    class_of: Vec<u32>,
    /// Interns the representatives by signature hash.
    table: ProbeTable,
    /// Representative → `(root index + 1, serial id)` under the key being
    /// serialized (any other stamp reads as "no id yet").
    serial: Vec<(u32, u32)>,
    /// DFS frames `(representative, next edge)` of the serializer.
    stack: Vec<(u32, u32)>,
    bytes: Vec<u8>,
}

impl NfaBuilder {
    /// Forgets every trie, keeping capacity.
    pub fn clear(&mut self) {
        self.arena.clear();
        self.roots.clear();
    }

    /// Inserts one path of label sets (each non-empty, sorted ascending)
    /// into `key`'s trie, created on first use; the node reached by the
    /// last set becomes accepting. An empty path adds nothing to the
    /// language.
    pub fn insert<'l>(&mut self, key: ItemId, path: impl IntoIterator<Item = &'l [ItemId]>) {
        let root = match self.roots.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(at) => self.roots[at].1,
            Err(at) => {
                self.roots.insert(at, (key, self.arena.add_node(false)));
                self.roots[at].1
            }
        };
        let node = path.into_iter().fold(root, |node, l| self.child(node, l));
        self.arena.nodes[node as usize].accept |= node != root;
    }

    /// The child of `node` along `label`, created on first use. A node's
    /// edges stay sorted by label, so insertion order never reaches the
    /// serialized bytes.
    fn child(&mut self, node: u32, label: &[ItemId]) -> u32 {
        let arena = &mut self.arena;
        let (mut prev, mut at) = (NONE, arena.nodes[node as usize].first_edge);
        while at != NONE {
            let edge = arena.edges[at as usize];
            match arena.label(edge).cmp(label) {
                Ordering::Less => (prev, at) = (at, edge.next),
                Ordering::Equal => return edge.child,
                Ordering::Greater => break,
            }
        }
        let child = arena.add_node(false);
        let start = arena.labels.len();
        arena.labels.extend_from_slice(label);
        let id = arena.add_edge(start, child, at);
        match prev {
            NONE => arena.nodes[node as usize].first_edge = id,
            _ => arena.edges[prev as usize].next = id,
        }
        child
    }

    /// Serializes every key's automaton in ascending key order, handing
    /// each to `emit` as a slice of the builder's byte buffer (see the
    /// module docs for the format). With `minimize`, suffix-equivalent
    /// states are merged first — the incremental-DAWG minimization the
    /// paper applies before serialization; the language is preserved and
    /// the state count never grows.
    pub fn finish(&mut self, minimize: bool, mut emit: impl FnMut(ItemId, &[u8])) {
        self.classify(minimize);
        self.serial.clear();
        self.serial.resize(self.arena.nodes.len(), (0, 0));
        for k in 0..self.roots.len() {
            let (key, root) = self.roots[k];
            self.serialize(root, index(k + 1));
            emit(key, &self.bytes);
        }
    }

    /// Fills `class_of`: the identity without `minimize`, else one
    /// reverse-id pass over all tries at once. Children have larger ids
    /// than their parents, so a node's signature — acceptance plus its
    /// `(label, child class)` edges, already in label order — is final
    /// when the node is reached; it is interned by hash, then by comparing
    /// against the representative's own edges (no signature is ever
    /// materialized).
    fn classify(&mut self, minimize: bool) {
        let n = index(self.arena.nodes.len());
        self.class_of.clear();
        self.class_of.extend(0..n);
        if !minimize {
            return;
        }
        self.table.clear();
        let (arena, class_of) = (&self.arena, &mut self.class_of);
        let mut classes = 0usize;
        for id in (0..n).rev() {
            let accept = |q: u32| arena.nodes[q as usize].accept;
            let edges = |q: u32| {
                let class = |e: Edge| (arena.label(e), class_of[e.child as usize]);
                arena.edges_of(q).map(class)
            };
            let hash_of = |q: u32| {
                edges(q).fold(u64::from(accept(q)), |h, (label, class)| {
                    fx::mix_hashes(h, fx::mix_hashes(fx::hash_items(label), class.into()))
                })
            };
            self.table.grow_if_needed(classes, hash_of);
            let same = |rep: u32| accept(rep) == accept(id) && edges(rep).eq(edges(id));
            match self.table.find(hash_of(id), same) {
                Ok(rep) => class_of[id as usize] = rep,
                Err(slot) => {
                    self.table.insert(slot, id);
                    classes += 1;
                }
            }
        }
    }

    /// Writes the automaton of `root`'s class into `bytes`: a DFS over
    /// representatives, state ids assigned in record order.
    fn serialize(&mut self, root: u32, stamp: u32) {
        let (arena, class_of, serial) = (&self.arena, &self.class_of, &mut self.serial);
        let (out, stack) = (&mut self.bytes, &mut self.stack);
        out.clear();
        stack.clear();
        let root = class_of[root as usize];
        serial[root as usize] = (stamp, 0);
        stack.push((root, arena.nodes[root as usize].first_edge));
        let (mut next_id, mut current) = (1u32, 0u32);
        while let Some(frame) = stack.last_mut() {
            let (src, at) = *frame;
            let Some(&edge) = arena.edges.get(at as usize) else {
                stack.pop();
                continue;
            };
            frame.1 = edge.next;
            let target = class_of[edge.child as usize];
            let src_id = serial[src as usize].1;
            let old_target = Some(serial[target as usize]).filter(|&(s, _)| s == stamp);
            let flag = |on: bool, bit: u8| if on { bit } else { 0 };
            let flags = flag(src_id != current, HAS_SRC)
                | flag(old_target.is_some(), OLD_TARGET)
                | flag(arena.nodes[target as usize].accept, FINAL);
            out.push(flags);
            if flags & HAS_SRC != 0 {
                write_varint(out, u64::from(src_id));
            }
            let label = arena.label(edge);
            write_varint(out, label.len() as u64);
            for &w in label {
                write_varint(out, u64::from(w));
            }
            match old_target {
                Some((_, id)) => write_varint(out, u64::from(id)),
                None => {
                    serial[target as usize] = (stamp, next_id);
                    stack.push((target, arena.nodes[target as usize].first_edge));
                    current = next_id;
                    next_id += 1;
                }
            }
        }
    }
}

/// The reduce side: a decoded, validated, acyclic NFA over item-set labels
/// (state 0 is the root) in a reusable arena; see the [module docs](self).
#[derive(Default)]
pub struct Nfa {
    arena: Arena,
    /// Scratch of the acyclicity pass: in-degrees and the ready list.
    indegree: Vec<u32>,
    ready: Vec<u32>,
    /// Scratch of [`for_each`](Nfa::for_each): `(edge being expanded, next
    /// item of its label)` per state on the current path, and that path's
    /// items.
    frames: Vec<(u32, u32)>,
    items: Vec<ItemId>,
}

fn corrupt<T>(what: std::fmt::Arguments<'_>) -> Result<T> {
    Err(Error::Decode(format!("NFA: {what}")))
}

impl Nfa {
    /// Replaces the automaton with the one serialized in `bytes`,
    /// validating every state reference and rejecting cycles. Memory use
    /// is linear in `bytes.len()`. On error the automaton is left empty.
    pub fn decode(&mut self, bytes: &[u8]) -> Result<()> {
        let decoded = self.read_records(bytes).and_then(|()| self.check_acyclic());
        if decoded.is_err() {
            self.read_records(&[]).expect("the empty payload decodes");
        }
        decoded
    }

    fn read_records(&mut self, bytes: &[u8]) -> Result<()> {
        let arena = &mut self.arena;
        arena.clear();
        arena.add_node(false);
        // Every state, edge and label item costs at least one input byte,
        // so this bound also keeps all arena offsets in `u32`.
        if bytes.len() >= NONE as usize {
            return corrupt(format_args!(
                "payload of {} bytes is too large",
                bytes.len()
            ));
        }
        let known = |v: u64, role: &str, states: usize| match v < states as u64 {
            true => Ok(v as u32),
            false => corrupt(format_args!("{role} state {v} does not exist yet")),
        };
        let mut current = 0u32;
        let mut buf = bytes;
        while let Some((&flags, rest)) = buf.split_first() {
            buf = rest;
            if flags & !VALID_FLAGS != 0 {
                return corrupt(format_args!("invalid flags byte {flags:#04x}"));
            }
            let mut src = current;
            if flags & HAS_SRC != 0 {
                src = known(read_varint(&mut buf)?, "source", arena.nodes.len())?;
            }
            let len = read_varint(&mut buf)?;
            if len > buf.len() as u64 {
                return corrupt(format_args!("label length {len} exceeds input"));
            }
            let label_start = arena.labels.len();
            for _ in 0..len {
                let w = read_varint(&mut buf)?;
                let Ok(item) = ItemId::try_from(w) else {
                    return corrupt(format_args!("item {w} out of range"));
                };
                arena.labels.push(item);
            }
            let target = if flags & OLD_TARGET != 0 {
                let old = known(read_varint(&mut buf)?, "target", arena.nodes.len())?;
                arena.nodes[old as usize].accept |= flags & FINAL != 0;
                old
            } else {
                current = arena.add_node(flags & FINAL != 0);
                current
            };
            // Prepended: the language does not depend on edge order.
            let first = arena.nodes[src as usize].first_edge;
            arena.nodes[src as usize].first_edge = arena.add_edge(label_start, target, first);
        }
        Ok(())
    }

    /// Kahn's algorithm over the decoded edges: every state is reachable
    /// from the root by construction, so the automaton is acyclic iff
    /// peeling zero-in-degree states from the root removes all of them. An
    /// `OLD_TARGET` naming an ancestor (or the source itself) would
    /// otherwise make [`for_each`](Nfa::for_each) walk until its budget.
    fn check_acyclic(&mut self) -> Result<()> {
        let (arena, indegree, ready) = (&self.arena, &mut self.indegree, &mut self.ready);
        indegree.clear();
        indegree.resize(arena.nodes.len(), 0);
        for e in &arena.edges {
            indegree[e.child as usize] += 1;
        }
        ready.clear();
        ready.extend((indegree[0] == 0).then_some(0));
        let mut peeled = 0usize;
        while let Some(state) = ready.pop() {
            peeled += 1;
            for e in arena.edges_of(state) {
                indegree[e.child as usize] -= 1;
                if indegree[e.child as usize] == 0 {
                    ready.push(e.child);
                }
            }
        }
        if peeled != arena.nodes.len() {
            return corrupt(format_args!("automaton has a cycle"));
        }
        Ok(())
    }

    /// Number of states (including the root).
    pub fn num_states(&self) -> usize {
        self.arena.nodes.len()
    }

    /// Streams the represented item sequences into `visit`, bounded by
    /// `budget` units of expansion work (one per state visit — the
    /// language may be exponential in the automaton size). A sequence is
    /// visited once per path representing it; consumers that need a set
    /// de-duplicate (e.g.
    /// [`CandidateCounter::observe`](super::CandidateCounter::observe)).
    /// The walk keeps its stack on the heap, so depth is bounded by memory
    /// and the budget, not by the thread's stack.
    pub fn for_each(&mut self, budget: usize, mut visit: impl FnMut(&[ItemId])) -> Result<()> {
        let (arena, frames, items) = (&self.arena, &mut self.frames, &mut self.items);
        frames.clear();
        items.clear();
        let mut work = 0usize;
        let mut state = 0u32;
        loop {
            // Enter `state`: charge it, report it, then expand its edges.
            work += 1;
            if work > budget {
                return Err(Error::ResourceExhausted(format!(
                    "NFA expansion exceeded budget of {budget}"
                )));
            }
            let node = arena.nodes[state as usize];
            if node.accept && !items.is_empty() {
                visit(items);
            }
            frames.push((node.first_edge, 0));
            // Advance to the next (edge, item) pick, leaving finished states.
            state = loop {
                let Some(frame) = frames.last_mut() else {
                    return Ok(());
                };
                let Some(&edge) = arena.edges.get(frame.0 as usize) else {
                    frames.pop();
                    items.pop();
                    continue;
                };
                match arena.label(edge).get(frame.1 as usize) {
                    Some(&w) => {
                        frame.1 += 1;
                        items.push(w);
                        break edge.child;
                    }
                    None => *frame = (edge.next, 0),
                }
            };
        }
    }

    /// The represented set of item sequences (tests and diagnostics; use
    /// [`for_each`](Nfa::for_each) with a budget on untrusted input).
    pub fn language(&mut self) -> BTreeSet<Sequence> {
        let mut out = BTreeSet::new();
        self.for_each(usize::MAX, |items| {
            out.insert(items.to_vec());
        })
        .expect("unbounded expansion cannot exhaust");
        out
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

    /// The single-key automaton of `paths`, serialized.
    fn build(paths: &[Vec<Vec<ItemId>>], minimize: bool) -> Vec<u8> {
        let mut tries = NfaBuilder::default();
        for p in paths {
            tries.insert(7, p.iter().map(Vec::as_slice));
        }
        let mut out = None;
        tries.finish(minimize, |key, bytes| {
            assert_eq!(key, 7);
            out = Some(bytes.to_vec());
        });
        out.unwrap_or_default()
    }

    fn decode(bytes: &[u8]) -> Nfa {
        let mut nfa = Nfa::default();
        nfa.decode(bytes).unwrap();
        nfa
    }

    fn language(bytes: &[u8]) -> BTreeSet<Sequence> {
        decode(bytes).language()
    }

    #[test]
    fn trie_language_is_cartesian_union() {
        let expect: BTreeSet<Sequence> = [
            vec![4, 1],
            vec![4, 2, 1],
            vec![4, 4, 1],
            vec![4, 3, 1],
            vec![5, 3, 1],
        ]
        .into_iter()
        .collect();
        assert_eq!(language(&build(&paths(), false)), expect);
    }

    #[test]
    fn minimize_preserves_language_and_shrinks() {
        let (raw, min) = (build(&paths(), false), build(&paths(), true));
        assert_eq!(language(&raw), language(&min));
        // The shared suffixes ([3] [1] and the accepting [1] states) merge.
        let states = |bytes: &[u8]| decode(bytes).num_states();
        assert_eq!(states(&raw), 10);
        assert_eq!(states(&min), 5);
    }

    #[test]
    fn minimized_bytes_are_golden() {
        // 0 -[4]-> 1 -[1]-> 2 (final); 1 -[2,4]-> 3 -[1]-> 2; 1 -[3]-> 3;
        // 0 -[5]-> 4 -[3]-> 3.
        let golden = [
            0, 1, 4, 4, 1, 1, 1, 1, 2, 2, 4, 6, 1, 1, 2, 3, 1, 1, 3, 3, 1, 0, 1, 5, 2, 1, 3, 3,
        ];
        assert_eq!(build(&paths(), true), golden);
    }

    #[test]
    fn empty_automaton_roundtrips() {
        assert!(build(&[], true).is_empty());
        let mut nfa = decode(&[]);
        assert_eq!(nfa.num_states(), 1);
        assert!(nfa.language().is_empty());
    }

    #[test]
    fn serialization_is_deterministic() {
        // Insertion order must not leak into the encoding.
        let reversed: Vec<_> = paths().into_iter().rev().collect();
        for minimize in [false, true] {
            assert_eq!(build(&paths(), minimize), build(&reversed, minimize));
        }
    }

    #[test]
    fn keys_share_one_arena_without_sharing_state() {
        // Two keys with overlapping suffixes, interleaved in one builder,
        // serialize exactly as they do alone — on a builder that held
        // something else before.
        let mut tries = NfaBuilder::default();
        tries.insert(1, [&[9u32][..]; 3]);
        tries.finish(true, |_, _| {});
        tries.clear();
        let other = vec![vec![vec![6], vec![3], vec![1]], vec![vec![3], vec![1]]];
        for (a, b) in paths().iter().zip(other.iter().cycle()) {
            tries.insert(7, a.iter().map(Vec::as_slice));
            tries.insert(2, b.iter().map(Vec::as_slice));
        }
        let mut got = Vec::new();
        tries.finish(true, |key, bytes| got.push((key, bytes.to_vec())));
        assert_eq!(
            got,
            vec![(2, build(&other, true)), (7, build(&paths(), true))]
        );
    }

    #[test]
    fn corrupt_bytes_rejected() {
        for bad in [&[0xff, 0x00][..], &[0x01, 0x09, 0x01, 0x02]] {
            assert!(matches!(Nfa::default().decode(bad), Err(Error::Decode(_))));
        }
    }

    #[test]
    fn cyclic_automata_rejected() {
        // 0 -[1]-> 1 -[1]-> 0: an OLD_TARGET naming an ancestor.
        let two_cycle = [0x00, 0x01, 0x01, 0x06, 0x01, 0x01, 0x00];
        // 0 -[1]-> 0.
        let self_loop = [0x02, 0x01, 0x01, 0x00];
        let mut nfa = Nfa::default();
        for bad in [&two_cycle[..], &self_loop] {
            let err = nfa.decode(bad).unwrap_err();
            assert!(
                matches!(&err, Error::Decode(m) if m.contains("cycle")),
                "{err}"
            );
            // A failed decode leaves nothing to expand.
            assert!(nfa.language().is_empty());
        }
    }

    /// Runs `f` on a thread with a 2 MB stack (the default of spawned
    /// threads, stated so the test does not depend on `RUST_MIN_STACK`
    /// being unset; CI also runs this module with a 256 KB minimum).
    fn on_small_stack(f: impl FnOnce() + Send + 'static) {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn deep_chain_expands_on_the_heap() {
        on_small_stack(|| {
            let depth = 100_000usize;
            let path: Vec<Vec<ItemId>> = (0..depth).map(|i| vec![i as ItemId % 7 + 1]).collect();
            let bytes = build(std::slice::from_ref(&path), true);
            let mut nfa = decode(&bytes);
            assert_eq!(nfa.num_states(), depth + 1);
            let mut seen = Vec::new();
            nfa.for_each(usize::MAX, |items| seen.push(items.to_vec()))
                .unwrap();
            assert_eq!(seen, vec![path.concat()]);
            assert!(matches!(
                nfa.for_each(depth, |_| {}),
                Err(Error::ResourceExhausted(_))
            ));
        });
    }

    #[test]
    fn prefixes_and_mutations_never_panic_or_balloon() {
        let good = build(&paths(), true);
        let mut inputs: Vec<Vec<u8>> = (0..good.len()).map(|cut| good[..cut].to_vec()).collect();
        for at in 0..good.len() {
            for byte in 0..=255u8 {
                let mut mutated = good.clone();
                mutated[at] = byte;
                inputs.push(mutated);
            }
        }
        on_small_stack(move || {
            for input in inputs {
                let mut nfa = Nfa::default();
                if nfa.decode(&input).is_ok() {
                    // Whatever decoded is acyclic: expansion terminates
                    // (or exhausts its budget) without recursion.
                    let _ = nfa.for_each(10_000, |_| {});
                }
                let held = nfa.arena.labels.capacity()
                    + nfa.arena.nodes.capacity()
                    + nfa.arena.edges.capacity()
                    + nfa.indegree.capacity();
                assert!(held <= 4 * input.len() + 16, "{held} for {input:?}");
            }
        });
    }

    #[test]
    fn expansion_budget_respected() {
        let mut nfa = decode(&build(&paths(), false));
        assert!(matches!(
            nfa.for_each(2, |_| {}),
            Err(Error::ResourceExhausted(_))
        ));
        // One unit per state visit; the [2, 4] edge enters its subtree
        // twice, so the 10-state trie costs 12.
        let mut n = 0;
        nfa.for_each(12, |_| n += 1).unwrap();
        assert_eq!(n, 5);
        assert!(nfa.for_each(11, |_| {}).is_err());
    }
}
