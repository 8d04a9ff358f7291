//! The shared front half of per-sequence FST simulation: match masks,
//! forward reachability, aliveness and the σ-cut output arena, built
//! lazily over the CSR [`FstIndex`].
//!
//! One [`Simulator::build`] call serves the three flat consumers —
//! [`RunWalker`](super::flat::RunWalker) (run enumeration), DESQ-DFS's
//! `SeqTables` (which adds its ε-completion DP) and the pivot DP of
//! D-SEQ's mapper:
//!
//! 1. a *frontier-driven forward pass*: at every position only the
//!    transitions leaving forward-reachable states are evaluated. Small
//!    FSTs ([`FstIndex::step_table_eligible`]) go through a per-job *step
//!    table* — per `(item, state)` one `(match-row bits, next-state set)`
//!    pair, filled on an item's first occurrence — so a frontier step is
//!    one load per frontier state; larger FSTs evaluate the frontier's
//!    distinct input labels, hierarchy verdicts memoized per item;
//! 2. *rejection straight after the forward pass*: a sequence no final
//!    state can reach pays for nothing else and leaves `tables` untouched;
//! 3. the backward *aliveness fold* over forward-reachable states, which
//!    clears every match bit whose target cannot complete to acceptance;
//! 4. the output set of every `(position, output label)` pair with a
//!    surviving transition, cut at the frequent-item boundary.
//!
//! # The reachable-sources contract
//!
//! Bit `δ` of a position's row in [`SimTables::mask`] is set iff
//! transition `δ` leaves a **forward-reachable** state, matches the
//! position's item, and its target is alive (lies on an accepting run).
//! Bits of transitions leaving unreachable states are never set, and
//! output sets exist only for labels with a set bit. Consumers must
//! therefore consult rows only from coordinates they reached by following
//! set bits from `(0, initial)` — or that [`SimScratch::reachable`] /
//! [`SimScratch::alive`] report — which is all the closure walk, the run
//! walk, the pivot DP and the range trimming ever do.

use super::index::FstIndex;
use super::{Fst, InputLabel};
use crate::dictionary::Dictionary;
use crate::sequence::ItemId;

/// Sets bit `i` of a word-packed bitset.
#[inline]
pub fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

/// Tests bit `i` of a word-packed bitset.
#[inline]
pub fn get_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 != 0
}

/// The indices of the set bits of `words`, ascending.
pub fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                wi * 64 + b
            })
        })
    })
}

/// Evaluates distinct input label `d` on item `t`, memoizing hierarchy
/// (`Desc`) verdicts in the item's `memo` (low byte = evaluated bits, high
/// byte = match bits; labels beyond the memoized eight fall back to a
/// direct check). `Any` and `Exact` labels are cheaper than the memo.
#[inline]
fn match_cached(label: InputLabel, d: u16, t: ItemId, dict: &Dictionary, memo: &mut u16) -> bool {
    match label {
        InputLabel::Any => true,
        InputLabel::Exact(w) => t == w,
        InputLabel::Desc(w) if d < 8 => {
            let eval_bit = 1u16 << d;
            if *memo & eval_bit == 0 {
                *memo |= eval_bit | (u16::from(dict.is_ancestor(w, t)) << (8 + d));
            }
            *memo & (1 << (8 + d)) != 0
        }
        InputLabel::Desc(w) => dict.is_ancestor(w, t),
    }
}

/// What [`Simulator::build`] appends per accepted sequence: the pruned
/// match-mask rows and the output arena (see the
/// [reachable-sources contract](self)). Consumers either clear it per
/// sequence (run walk, pivot DP) or let it grow into a shared arena and
/// remember each sequence's start lengths (DESQ-DFS).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SimTables {
    mask: Vec<u64>,
    offsets: Vec<u32>,
    outs: Vec<ItemId>,
}

impl SimTables {
    /// Match-mask rows: [`FstIndex::words`] words per position, sequences
    /// back to back.
    #[inline]
    pub fn mask(&self) -> &[u64] {
        &self.mask
    }

    /// Per sequence, `len · labels + 1` ascending bounds into its stretch
    /// of [`outs`](Self::outs), relative to the stretch's start: the output
    /// set of `(position i, label li)` lies between entries
    /// `i · labels + li` and the next. Empty sets mark labels without a
    /// surviving transition, or σ-dead ones.
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The output items, each set sorted ascending and cut at the
    /// builder's frequent-item boundary.
    #[inline]
    pub fn outs(&self) -> &[ItemId] {
        &self.outs
    }

    /// Empties all three arenas (keeping their allocations).
    pub fn clear(&mut self) {
        self.mask.clear();
        self.offsets.clear();
        self.outs.clear();
    }

    /// Appends another set's arenas (offsets are stretch-relative, so they
    /// need no rebasing).
    pub fn append(&mut self, other: &SimTables) {
        self.mask.extend_from_slice(&other.mask);
        self.offsets.extend_from_slice(&other.offsets);
        self.outs.extend_from_slice(&other.outs);
    }
}

/// Reusable per-thread scratch of [`Simulator::build`]: the job-wide step
/// table and the grid bitsets of the last sequence built.
///
/// The job-wide part is keyed to [`FstIndex::generation`] (an index is only
/// valid with the dictionary its FST was compiled against, so the id covers
/// both) and dropped when a build arrives with another key: one scratch can
/// serve any succession of jobs. Its size follows what the job touches —
/// four bytes per vocabulary item for the slot directory, plus one
/// step-table entry per *distinct item seen*.
#[derive(Default)]
pub struct SimScratch {
    key: u64,
    /// Per item: 1 + its entry in `step` / `memo`, 0 = not seen yet.
    slot: Vec<u32>,
    /// Step-table shape: `2 · states` words per seen item — per state the
    /// match-row bits of its transitions on the item and the next-state set.
    step: Vec<u64>,
    /// General shape: per seen item the hierarchy verdicts (`match_cached`).
    memo: Vec<u16>,
    /// State-set words per position of `fwd` / `alive`.
    qw: usize,
    /// Forward-reachable states per position (`(n + 1) × qw`).
    fwd: Vec<u64>,
    /// Alive states per position; only built for accepted sequences.
    alive: Vec<u64>,
}

impl SimScratch {
    /// The forward-reachable states of position `i` of the last sequence
    /// built, as a state bitset.
    #[inline]
    pub fn reachable(&self, i: usize) -> &[u64] {
        &self.fwd[i * self.qw..(i + 1) * self.qw]
    }

    /// The alive states (forward-reachable with an accepting completion) of
    /// position `i` of the last *accepted* sequence built.
    #[inline]
    pub fn alive(&self, i: usize) -> &[u64] {
        &self.alive[i * self.qw..(i + 1) * self.qw]
    }
}

/// The simulation front-end for one FST over one dictionary (see the
/// [module docs](self)). A handful of references — build one wherever it is
/// needed; the [`FstIndex`] is the thing to build once and share.
#[derive(Clone, Copy)]
pub struct Simulator<'a> {
    pub(super) fst: &'a Fst,
    dict: &'a Dictionary,
    pub(super) index: &'a FstIndex,
    max_item: ItemId,
}

impl<'a> Simulator<'a> {
    /// A simulator whose output sets keep only items `<= max_item` (pass
    /// `dict.last_frequent(sigma)` for the σ cut, `ItemId::MAX` for none).
    /// `index` must have been built from `fst`.
    pub fn new(fst: &'a Fst, dict: &'a Dictionary, index: &'a FstIndex, max_item: ItemId) -> Self {
        Simulator {
            fst,
            dict,
            index,
            max_item,
        }
    }

    /// Simulates `seq` and, iff the FST accepts it, appends its mask rows
    /// and output arena to `tables`; the grid bitsets stay readable in
    /// `scratch` until the next call. A rejected sequence returns `false`
    /// right after the forward pass and leaves `tables` as it found them.
    pub fn build(&self, seq: &[ItemId], scratch: &mut SimScratch, tables: &mut SimTables) -> bool {
        let start = tables.mask.len();
        tables
            .mask
            .resize(start + seq.len() * self.index.words(), 0);
        if !self.forward(seq, scratch, &mut tables.mask[start..]) {
            tables.mask.truncate(start);
            return false;
        }
        self.fold_alive(seq.len(), scratch, &mut tables.mask[start..]);
        let SimTables {
            mask,
            offsets,
            outs,
        } = tables;
        self.build_outputs(seq, &mask[start..], offsets, outs);
        true
    }

    /// (Re)keys the job-wide part of `s` to this simulator's index.
    fn rekey(&self, s: &mut SimScratch) {
        let key = self.index.generation();
        let items = self.dict.max_fid() as usize + 1;
        if s.key != key || s.slot.len() != items {
            s.slot.clear();
            s.slot.resize(items, 0);
            s.step.clear();
            s.memo.clear();
            s.key = key;
        }
    }

    /// The forward pass: fills `rows` (zeroed, `n × words`) with the match
    /// bits of transitions leaving forward-reachable states and `s.fwd`
    /// with the reachable sets. Returns whether a final state is reachable
    /// at the end of `seq`.
    fn forward(&self, seq: &[ItemId], s: &mut SimScratch, rows: &mut [u64]) -> bool {
        let ix = self.index;
        let n = seq.len();
        let qn = self.fst.num_states();
        let w = ix.words();
        let qw = qn.div_ceil(64).max(1);
        self.rekey(s);
        s.qw = qw;
        s.fwd.clear();
        s.fwd.resize((n + 1) * qw, 0);
        set_bit(&mut s.fwd, self.fst.initial() as usize);
        if ix.step_table_eligible() {
            debug_assert!(w == 1 && qw == 1 && qn <= 32);
            for (i, &t) in seq.iter().enumerate() {
                let k = match s.slot[t as usize] {
                    0 => self.fill_step(t, qn, s),
                    k => k,
                } as usize;
                let steps = &s.step[(k - 1) * qn * 2..k * qn * 2];
                let mut fbits = s.fwd[i];
                let (mut row, mut next) = (0u64, 0u64);
                while fbits != 0 {
                    let q = fbits.trailing_zeros() as usize;
                    fbits &= fbits - 1;
                    row |= steps[q * 2];
                    next |= steps[q * 2 + 1];
                }
                rows[i] = row;
                s.fwd[i + 1] = next;
            }
        } else {
            let distinct = ix.distinct_inputs();
            for (i, &t) in seq.iter().enumerate() {
                if s.slot[t as usize] == 0 {
                    s.memo.push(0);
                    s.slot[t as usize] = s.memo.len() as u32;
                }
                let memo = &mut s.memo[s.slot[t as usize] as usize - 1];
                let row = &mut rows[i * w..(i + 1) * w];
                let (head, tail) = s.fwd.split_at_mut((i + 1) * qw);
                let next = &mut tail[..qw];
                for q in ones(&head[i * qw..]) {
                    for (tr, &d) in ix.state(q).iter().zip(ix.state_distinct(q)) {
                        if match_cached(distinct[d as usize], d, t, self.dict, memo) {
                            row[tr.word as usize] |= tr.mask;
                            set_bit(next, tr.to as usize);
                        }
                    }
                }
            }
        }
        ones(&s.fwd[n * qw..]).any(|q| self.fst.is_final(q as u32))
    }

    /// Appends the step-table entry of item `t` — for every state, the
    /// match row of its transitions on `t` and the resulting next-state
    /// set — and returns its slot. Runs once per distinct item of the job
    /// (Zipf-distributed inputs amortize it to nearly nothing).
    fn fill_step(&self, t: ItemId, qn: usize, s: &mut SimScratch) -> u32 {
        let ix = self.index;
        let distinct = ix.distinct_inputs();
        let mut memo = 0u16;
        for q in 0..qn {
            let (mut row, mut next) = (0u64, 0u64);
            for (tr, &d) in ix.state(q).iter().zip(ix.state_distinct(q)) {
                if match_cached(distinct[d as usize], d, t, self.dict, &mut memo) {
                    row |= tr.mask;
                    next |= 1 << tr.to;
                }
            }
            s.step.extend([row, next]);
        }
        let k = (s.step.len() / (qn * 2)) as u32;
        s.slot[t as usize] = k;
        k
    }

    /// The backward pass over an accepted sequence: aliveness of the
    /// forward-reachable states into `s.alive`, folded into `rows` by
    /// clearing every bit whose target is a dead end — one bit test then
    /// answers "matches ∧ target alive" for every consumer.
    fn fold_alive(&self, n: usize, s: &mut SimScratch, rows: &mut [u64]) {
        let ix = self.index;
        let w = ix.words();
        let qw = s.qw;
        let inputs = ix.inputs();
        s.alive.clear();
        s.alive.resize((n + 1) * qw, 0);
        for q in ones(&s.fwd[n * qw..]) {
            if self.fst.is_final(q as u32) {
                set_bit(&mut s.alive[n * qw..], q);
            }
        }
        for i in (0..n).rev() {
            let row = &mut rows[i * w..(i + 1) * w];
            let (head, tail) = s.alive.split_at_mut((i + 1) * qw);
            let alive_cur = &mut head[i * qw..];
            let alive_next = &tail[..qw];
            for q in ones(&s.fwd[i * qw..(i + 1) * qw]) {
                let ok = ix.state(q).iter().any(|tr| {
                    row[tr.word as usize] & tr.mask != 0 && get_bit(alive_next, tr.to as usize)
                });
                if ok {
                    set_bit(alive_cur, q);
                }
            }
            // Iterating set bits only: lazily filled rows are sparse.
            for (wi, word) in row.iter_mut().enumerate() {
                let mut bits = *word;
                while bits != 0 {
                    let b = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if !get_bit(alive_next, inputs[wi * 64 + b].1 as usize) {
                        *word &= !(1 << b);
                    }
                }
            }
        }
        debug_assert!(get_bit(&s.alive, self.fst.initial() as usize));
    }

    /// Appends the output arena of one sequence: per (position, output
    /// label) with a set bit in `rows`, the label's output set on the
    /// position's item up to `max_item` (see [`SimTables::offsets`]).
    fn build_outputs(
        &self,
        seq: &[ItemId],
        rows: &[u64],
        offsets: &mut Vec<u32>,
        outs: &mut Vec<ItemId>,
    ) {
        let ix = self.index;
        let w = ix.words();
        let base = outs.len();
        offsets.reserve(seq.len() * ix.num_labels() + 1);
        for (i, &t) in seq.iter().enumerate() {
            let row = &rows[i * w..(i + 1) * w];
            for (li, label) in ix.labels().iter().enumerate() {
                let start = outs.len();
                if ix.label_mask(li).iter().zip(row).any(|(lm, m)| lm & m != 0) {
                    label.outputs(t, self.dict, outs);
                    // Output sets are sorted ascending, so the σ cut (and
                    // any later item bound) drops a tail.
                    debug_assert!(outs[start..].windows(2).all(|p| p[0] < p[1]));
                    let keep = outs[start..].partition_point(|&o| o <= self.max_item);
                    outs.truncate(start + keep);
                }
                offsets.push((start - base) as u32);
            }
        }
        offsets.push((outs.len() - base) as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::super::OptLevel;
    use super::*;
    use crate::dictionary::DictionaryBuilder;
    use crate::pexp::PatEx;
    use crate::sequence::{Sequence, SequenceDb};
    use crate::toy;

    /// Ten alternatives per hop: at `OptLevel::None` far beyond one mask
    /// word and one state word (the general shape).
    const WIDE: &str = ".*[(A)|(A^)|(b)|(d^)|(c)|(e)|(a1)|(a2=)|(.^)|.]{1,7}(b).*";

    fn compile(pattern: &str, dict: &Dictionary, level: OptLevel) -> Fst {
        Fst::compile_with(&PatEx::parse(pattern).unwrap(), dict, level).unwrap()
    }

    /// A second world: another vocabulary, hierarchy and corpus.
    fn other_world() -> (Dictionary, SequenceDb) {
        let mut b = DictionaryBuilder::new();
        for name in ["x", "y", "z", "X", "b"] {
            b.item(name);
        }
        b.edge("x", "X");
        b.edge("y", "X");
        let g = |name: &str| b.id_of(name).unwrap();
        let raw = SequenceDb::new(vec![
            vec![g("x"), g("z"), g("b")],
            vec![g("b"), g("y"), g("y"), g("b")],
            vec![g("z"), g("z")],
        ]);
        b.freeze(&raw).unwrap()
    }

    #[test]
    fn one_scratch_across_fsts_and_dictionaries_builds_what_a_fresh_one_does() {
        // Stale step rows must be impossible: the job-wide part re-keys on
        // the index generation, whatever the order of jobs.
        let fx = toy::fixture();
        let (dict2, db2) = other_world();
        let jobs = [
            (fx.fst.clone(), &fx.dict, &fx.db),
            (
                compile(".*(b)[(.^)|.]*(A^).*", &fx.dict, OptLevel::Full),
                &fx.dict,
                &fx.db,
            ),
            (compile(WIDE, &fx.dict, OptLevel::None), &fx.dict, &fx.db),
            (
                compile(".*(X)[(.^)|.]*(b).*", &dict2, OptLevel::Full),
                &dict2,
                &db2,
            ),
            (fx.fst.clone(), &fx.dict, &fx.db),
        ];
        let mut shared = SimScratch::default();
        for (fst, dict, db) in &jobs {
            let index = FstIndex::new(fst);
            let sim = Simulator::new(fst, dict, &index, dict.last_frequent(2));
            let mut fresh = SimScratch::default();
            let (mut a, mut b) = (SimTables::default(), SimTables::default());
            for seq in &db.sequences {
                assert_eq!(
                    sim.build(seq, &mut shared, &mut a),
                    sim.build(seq, &mut fresh, &mut b)
                );
            }
            assert_eq!(a, b);
            assert_eq!(shared.step, fresh.step);
            assert_eq!(shared.memo, fresh.memo);
        }
    }

    #[test]
    fn a_rejected_sequence_stops_after_the_forward_pass() {
        let fx = toy::fixture();
        let index = FstIndex::new(&fx.fst);
        let sim = Simulator::new(&fx.fst, &fx.dict, &index, ItemId::MAX);
        let mut s = SimScratch::default();
        let mut tables = SimTables::default();
        assert!(sim.build(&fx.db.sequences[0], &mut s, &mut tables));
        let before = (
            tables.mask().len(),
            tables.offsets().len(),
            tables.outs().len(),
        );
        // Poison the aliveness table: a backward sweep would rewrite it.
        s.alive.clear();
        // T3 = c d c b has no accepting run.
        assert!(!sim.build(&fx.db.sequences[2], &mut s, &mut tables));
        assert!(
            s.alive.is_empty(),
            "no aliveness table for a rejected sequence"
        );
        let after = (
            tables.mask().len(),
            tables.offsets().len(),
            tables.outs().len(),
        );
        assert_eq!(after, before, "tables grow only for accepted sequences");
    }

    #[test]
    fn scratch_grows_with_the_items_seen_not_with_the_vocabulary() {
        // A large sparse dictionary: 100k items, of which the corpus uses a
        // handful.
        let vocabulary = 100_000usize;
        let mut b = DictionaryBuilder::new();
        for i in 0..vocabulary {
            b.item(&format!("w{i}"));
        }
        let seq_of = |range: std::ops::Range<u32>| -> Sequence { range.map(|i| i + 1).collect() };
        let raw = SequenceDb::new(vec![seq_of(0..40), seq_of(20..60), seq_of(60..100)]);
        let (dict, db) = b.freeze(&raw).unwrap();
        assert_eq!(dict.max_fid() as usize, vocabulary);
        let fst = compile(".*(w5)[(.^)|.]*(w30).*", &dict, OptLevel::Full);
        let index = FstIndex::new(&fst);
        assert!(index.step_table_eligible());
        let sim = Simulator::new(&fst, &dict, &index, ItemId::MAX);
        let qn = fst.num_states();
        let mut s = SimScratch::default();
        let mut tables = SimTables::default();
        let mut seen = 0;
        for (seq, distinct) in db.sequences.iter().zip([40, 60, 100]) {
            sim.build(seq, &mut s, &mut tables);
            seen = distinct;
            assert_eq!(
                s.step.len(),
                seen * qn * 2,
                "one entry per distinct item seen"
            );
        }
        let bytes = s.slot.len() * 4
            + s.step.len() * 8
            + s.memo.len() * 2
            + (s.fwd.len() + s.alive.len()) * 8;
        assert!(bytes <= 4 * (vocabulary + 1) + seen * qn * 16 + 2 * 101 * 8);
        // The vocabulary-indexed table this replaces.
        assert!(bytes * 10 < (vocabulary + 1) * qn * 16);
    }
}
