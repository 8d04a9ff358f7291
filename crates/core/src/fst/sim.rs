//! The shared front half of per-sequence FST simulation: match masks,
//! forward reachability, aliveness and the output-set ids, built lazily
//! over the FST's CSR [`FstIndex`](super::FstIndex) ([`Fst::index`]).
//!
//! One `Simulator::build` call serves the three flat consumers —
//! [`RunWalker`](super::flat::RunWalker) (run enumeration), DESQ-DFS's
//! `SeqTables` (which adds its ε-completion DP) and the pivot DP of
//! D-SEQ's mapper:
//!
//! 1. a *frontier-driven forward pass*: at every position only the
//!    transitions leaving forward-reachable states are evaluated. Small
//!    FSTs
//!    ([`FstIndex::step_table_eligible`](super::FstIndex::step_table_eligible))
//!    go through a per-job *step table* — per `(item, state)` one
//!    `(match-row bits, next-state set)` pair, filled on an item's first
//!    occurrence — so a frontier step is one load per frontier state;
//!    larger FSTs evaluate the frontier's distinct input labels,
//!    hierarchy verdicts memoized per item;
//! 2. *rejection straight after the forward pass*: a sequence no final
//!    state can reach pays for nothing else and leaves `tables` untouched;
//! 3. the backward *aliveness fold* over forward-reachable states, which
//!    clears every match bit whose target cannot complete to acceptance;
//! 4. one output-set id per `(position, output label)` pair with a
//!    surviving transition, looked up in the tables' output-set directory.
//!    An output set depends only on its label and the input item, so the
//!    directory materializes it
//!    ([`OutputLabel::outputs`](super::OutputLabel::outputs)) on the first
//!    sight of that `(label, item)` pair and never again. Sets are stored
//!    uncut: each consumer cuts them at its own frequent-item or pivot
//!    bound when it reads them ([`SimTables::set`]).
//!
//! # The reachable-sources contract
//!
//! Bit `δ` of a position's row in [`SimTables::mask`] is set iff
//! transition `δ` leaves a **forward-reachable** state, matches the
//! position's item, and its target is alive (lies on an accepting run).
//! Bits of transitions leaving unreachable states are never set, and
//! output-set ids exist only for labels with a set bit. Consumers must
//! therefore consult rows only from coordinates they reached by following
//! set bits from `(0, initial)` — or that
//! [`RunScratch::reachable`](super::RunScratch::reachable) /
//! [`RunScratch::alive`](super::RunScratch::alive) report — which is all
//! the closure walk, the run walk, the pivot DP and the range trimming ever
//! do.
//!
//! The front-end itself (`Simulator`, `SimScratch`) is crate-private: every
//! consumer outside `desq-core` builds through
//! [`RunWalker::build_tables`](super::RunWalker::build_tables) or, to grow
//! a shared arena, [`RunWalker::build_tables_into`](super::RunWalker::build_tables_into).

use std::collections::hash_map::Entry;

use super::{Fst, InputLabel};
use crate::dictionary::Dictionary;
use crate::error::{Error, Result};
use crate::fx::FxHashMap;
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

/// Whether an output-set directory of `ids` set ids (the empty set's
/// included) over `items` stored items fits its `u32` ids and item
/// bounds. Every id then stays below `u32::MAX`, which consumers may
/// reserve as a mark of their own.
fn fits_directory(ids: usize, items: usize) -> bool {
    ids <= u32::MAX as usize && items <= u32::MAX as usize
}

/// The output-set directory of one [`SimTables`]: every distinct non-empty
/// output set its sequences produced, stored once, uncut. It is keyed on
/// the [`FstIndex::generation`](super::FstIndex::generation) it was filled
/// for (which covers the FST and its dictionary) and maps `label ‖ item`
/// to a set id. Id 0 is the empty set.
#[derive(Debug, PartialEq, Eq)]
struct OutputSets {
    /// The index generation the sets belong to (0 = none yet).
    key: u64,
    /// `label ‖ item` → set id, for every set materialized.
    ids: FxHashMap<u64, u32>,
    /// Set `k` is `items[bounds[k]..bounds[k + 1]]`; `[0, 0]` when empty.
    bounds: Vec<u32>,
    items: Vec<ItemId>,
}

impl Default for OutputSets {
    fn default() -> Self {
        OutputSets {
            key: 0,
            ids: FxHashMap::default(),
            bounds: vec![0, 0],
            items: Vec::new(),
        }
    }
}

impl OutputSets {
    /// Number of set ids, the empty set's included.
    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The items of set `id`, ascending.
    #[inline]
    fn get(&self, id: u32) -> &[ItemId] {
        let k = id as usize;
        &self.items[self.bounds[k] as usize..self.bounds[k + 1] as usize]
    }

    /// The id of the set under `key` (`label ‖ item`); on a miss, `fill`
    /// appends the set's items, sorted ascending, and the set gets the next
    /// id (an empty one maps to id 0). A set past [`fits_directory`] fails
    /// with [`Error::Invalid`] and is not stored.
    #[inline]
    fn intern(&mut self, key: u64, fill: impl FnOnce(&mut Vec<ItemId>)) -> Result<u32> {
        let slot = match self.ids.entry(key) {
            Entry::Occupied(e) => return Ok(*e.get()),
            Entry::Vacant(slot) => slot,
        };
        let start = self.items.len();
        fill(&mut self.items);
        debug_assert!(self.items[start..].windows(2).all(|p| p[0] < p[1]));
        if self.items.len() == start {
            return Ok(*slot.insert(0));
        }
        if !fits_directory(self.bounds.len(), self.items.len()) {
            self.items.truncate(start);
            return Err(Error::Invalid(
                "output-set directory exceeds 2³² set ids or stored items".into(),
            ));
        }
        let id = (self.bounds.len() - 1) as u32;
        self.bounds.push(self.items.len() as u32);
        Ok(*slot.insert(id))
    }
}

/// What the front-end appends per accepted sequence: the pruned
/// match-mask rows and one output-set id per `(position, output label)`
/// (see the [reachable-sources contract](self)), plus the output-set
/// directory those ids resolve in. Consumers either clear the rows per
/// sequence and keep the directory as a job-wide cache (run walk, pivot
/// DP), or let the rows grow into a shared arena and remember each
/// sequence's starts (DESQ-DFS).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SimTables {
    mask: Vec<u64>,
    ids: Vec<u32>,
    sets: OutputSets,
}

impl SimTables {
    /// Match-mask rows: [`FstIndex::words`](super::FstIndex::words) words
    /// per position, sequences back to back.
    #[inline]
    pub fn mask(&self) -> &[u64] {
        &self.mask
    }

    /// Output-set ids: [`FstIndex::num_labels`](super::FstIndex::num_labels)
    /// per position, sequences back to back. The set of `(position i,
    /// label li)` is id `i · labels + li` of the sequence's stretch; id 0
    /// (the empty set) marks a label without a surviving transition.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The items of output set `id` up to `max_item`, ascending: the
    /// label's outputs on the item (the item itself, a constant, or the
    /// item's generalizations), cut at the reader's bound. Sets are sorted,
    /// so the cut drops a tail.
    #[inline]
    pub fn set(&self, id: u32, max_item: ItemId) -> &[ItemId] {
        let (start, end) = self.range(id, max_item);
        &self.sets.items[start as usize..end as usize]
    }

    /// [`set`](Self::set) as a range of [`items`](Self::items).
    #[inline]
    pub(crate) fn range(&self, id: u32, max_item: ItemId) -> (u32, u32) {
        let k = id as usize;
        let (start, mut end) = (self.sets.bounds[k], self.sets.bounds[k + 1]);
        while end > start && self.sets.items[end as usize - 1] > max_item {
            end -= 1;
        }
        (start, end)
    }

    /// The directory's item array, which [`range`](Self::range) indexes.
    #[inline]
    pub(crate) fn items(&self) -> &[ItemId] {
        &self.sets.items
    }

    /// Empties the mask and id rows, keeping the directory and every
    /// allocation.
    pub(crate) fn clear(&mut self) {
        self.mask.clear();
        self.ids.clear();
    }

    /// Points the directory at index generation `key`, dropping its sets
    /// if they were built for another one. Rows of another FST would
    /// resolve in the dropped sets: tables that hold some fail with
    /// [`Error::Invalid`].
    fn rekey(&mut self, key: u64) -> Result<()> {
        if self.sets.key != key {
            if !self.mask.is_empty() {
                return Err(Error::Invalid(
                    "simulation tables hold the rows of another FST".into(),
                ));
            }
            self.sets = OutputSets {
                key,
                ..OutputSets::default()
            };
        }
        Ok(())
    }

    /// Appends another set's rows (a parallel build chunk over the same
    /// FST), re-interning its output sets into this directory: one lookup
    /// per distinct set, not per occurrence. A directory past its `u32`
    /// widths, or rows of another FST, fail with [`Error::Invalid`].
    pub fn append(&mut self, other: &SimTables) -> Result<()> {
        if other.mask.is_empty() {
            return Ok(());
        }
        self.rekey(other.sets.key)?;
        let mut remap = vec![0u32; other.sets.len()];
        for (&key, &id) in &other.sets.ids {
            let set = other.sets.get(id);
            remap[id as usize] = self
                .sets
                .intern(key, |items| items.extend_from_slice(set))?;
        }
        self.mask.extend_from_slice(&other.mask);
        self.ids
            .extend(other.ids.iter().map(|&id| remap[id as usize]));
        Ok(())
    }
}

/// Reusable per-thread scratch of [`Simulator::build`]: the job-wide step
/// table and the grid bitsets of the last sequence built.
///
/// The job-wide part is keyed to
/// [`FstIndex::generation`](super::FstIndex::generation) (an index is only
/// valid with the dictionary its FST was compiled against, so the id covers
/// both) and dropped when a build arrives with another key: one scratch can
/// serve any succession of jobs. Its size follows what the job touches —
/// four bytes per vocabulary item for the slot directory, plus one
/// step-table entry per *distinct item seen*.
#[derive(Default)]
pub(crate) struct SimScratch {
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
    pub(crate) fn reachable(&self, i: usize) -> &[u64] {
        &self.fwd[i * self.qw..(i + 1) * self.qw]
    }

    /// The alive states (forward-reachable with an accepting completion) of
    /// position `i` of the last *accepted* sequence built.
    #[inline]
    pub(crate) fn alive(&self, i: usize) -> &[u64] {
        &self.alive[i * self.qw..(i + 1) * self.qw]
    }
}

/// The simulation front-end for one FST over one dictionary (see the
/// [module docs](self)). A handful of references — build one wherever it is
/// needed.
#[derive(Clone, Copy)]
pub(crate) struct Simulator<'a> {
    pub(super) fst: &'a Fst,
    dict: &'a Dictionary,
}

impl<'a> Simulator<'a> {
    /// The front-end of `fst` over `dict`, the dictionary it was compiled
    /// against.
    pub(crate) fn new(fst: &'a Fst, dict: &'a Dictionary) -> Self {
        Simulator { fst, dict }
    }

    /// Simulates `seq` and, iff the FST accepts it, appends its mask rows
    /// and output-set ids to `tables`; the grid bitsets stay readable in
    /// `scratch` until the next call. A rejected sequence returns `false`
    /// right after the forward pass and leaves `tables` as it found them.
    /// An output set past the directory's widths ([`fits_directory`]), or
    /// `tables` holding the rows of another FST, fail with
    /// [`Error::Invalid`] and leave the rows as they were.
    pub(crate) fn build(
        &self,
        seq: &[ItemId],
        scratch: &mut SimScratch,
        tables: &mut SimTables,
    ) -> Result<bool> {
        tables.rekey(self.fst.index().generation())?;
        let start = tables.mask.len();
        tables
            .mask
            .resize(start + seq.len() * self.fst.index().words(), 0);
        if !self.forward(seq, scratch, &mut tables.mask[start..]) {
            tables.mask.truncate(start);
            return Ok(false);
        }
        self.fold_alive(seq.len(), scratch, &mut tables.mask[start..]);
        let ids_start = tables.ids.len();
        if let Err(e) = self.build_ids(seq, start, tables) {
            tables.mask.truncate(start);
            tables.ids.truncate(ids_start);
            return Err(e);
        }
        Ok(true)
    }

    /// (Re)keys the job-wide part of `s` to this simulator's index.
    fn rekey(&self, s: &mut SimScratch) {
        let key = self.fst.index().generation();
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
        let ix = self.fst.index();
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
        let ix = self.fst.index();
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
        let ix = self.fst.index();
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

    /// Appends one sequence's id row: per (position, output label) with a
    /// set bit in the sequence's mask rows (from `mask_start`), the id of
    /// the label's output set on the position's item, materialized only if
    /// the directory has not seen that `(label, item)` pair yet.
    fn build_ids(&self, seq: &[ItemId], mask_start: usize, tables: &mut SimTables) -> Result<()> {
        let ix = self.fst.index();
        let (w, l) = (ix.words(), ix.num_labels());
        let SimTables { mask, ids, sets } = tables;
        let rows = &mask[mask_start..];
        let start = ids.len();
        ids.resize(start + seq.len() * l, 0);
        for (i, &t) in seq.iter().enumerate() {
            let row = &rows[i * w..(i + 1) * w];
            for (li, &label) in ix.labels().iter().enumerate() {
                if ix.label_hits(li, row) {
                    let key = (li as u64) << 32 | t as u64;
                    ids[start + i * l + li] =
                        sets.intern(key, |items| label.outputs(t, self.dict, items))?;
                }
            }
        }
        Ok(())
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

    /// Per hit `(position, label)` of `tables`' one sequence `seq`, its set
    /// cut at `max_item` (non-hits stay empty).
    fn cut_sets(
        fst: &Fst,
        seq: &[ItemId],
        tables: &SimTables,
        max_item: ItemId,
    ) -> Vec<Vec<ItemId>> {
        assert_eq!(tables.ids().len(), seq.len() * fst.index().num_labels());
        tables
            .ids()
            .iter()
            .map(|&id| tables.set(id, max_item).to_vec())
            .collect()
    }

    #[test]
    fn one_scratch_across_fsts_and_dictionaries_builds_what_a_fresh_one_does() {
        // Stale step rows and stale sets must be impossible: the job-wide
        // step table and the directory re-key on the index generation,
        // whatever the order of jobs. The directory is uncut, so one
        // reused across two σ cuts of one FST reads the sets a fresh one
        // does at either cut.
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
        let mut reused = SimTables::default();
        for (fst, dict, db) in &jobs {
            let sim = Simulator::new(fst, dict);
            let mut fresh = SimScratch::default();
            let (mut a, mut b) = (SimTables::default(), SimTables::default());
            for seq in &db.sequences {
                assert_eq!(
                    sim.build(seq, &mut shared, &mut a).unwrap(),
                    sim.build(seq, &mut fresh, &mut b).unwrap()
                );
            }
            assert_eq!(a, b);
            assert_eq!(shared.step, fresh.step);
            assert_eq!(shared.memo, fresh.memo);
            let (lo, hi) = (dict.last_frequent(1), dict.last_frequent(2));
            assert!(hi < lo, "σ = 2 cuts some item");
            for max_item in [lo, hi] {
                for seq in &db.sequences {
                    reused.clear();
                    let mut one = SimTables::default();
                    let accepted = sim.build(seq, &mut shared, &mut reused).unwrap();
                    assert_eq!(accepted, sim.build(seq, &mut fresh, &mut one).unwrap());
                    assert_eq!(reused.mask(), one.mask());
                    if accepted {
                        assert_eq!(
                            cut_sets(fst, seq, &reused, max_item),
                            cut_sets(fst, seq, &one, max_item),
                            "{seq:?} at {max_item}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_set_is_materialized_on_its_first_sight_only() {
        // Building the same sequences again looks every set up: the
        // directory does not grow, and the ids are the ones of the first
        // build.
        let fx = toy::fixture();
        let sim = Simulator::new(&fx.fst, &fx.dict);
        let (mut s, mut tables) = (SimScratch::default(), SimTables::default());
        for seq in &fx.db.sequences {
            sim.build(seq, &mut s, &mut tables).unwrap();
        }
        let (first, sets) = (tables.ids.clone(), tables.sets.items.len());
        assert!(tables.sets.len() > 1);
        for seq in &fx.db.sequences {
            sim.build(seq, &mut s, &mut tables).unwrap();
        }
        assert_eq!(tables.ids[..first.len()], first[..]);
        assert_eq!(tables.ids[first.len()..], first[..]);
        assert_eq!(tables.sets.items.len(), sets);
        // One key per set id: no set is stored twice.
        let mut ids: Vec<u32> = tables.sets.ids.values().copied().collect();
        ids.sort_unstable();
        assert!(ids.iter().copied().eq(1..tables.sets.len() as u32));
    }

    #[test]
    fn append_reinterns_a_chunk_into_one_directory() {
        // Two chunks of the toy database built apart and appended hold the
        // rows and sets of one build over the whole of it, each set once.
        let fx = toy::fixture();
        let sim = Simulator::new(&fx.fst, &fx.dict);
        let mut s = SimScratch::default();
        let (head, tail) = fx.db.sequences.split_at(2);
        let build = |seqs: &[Sequence], s: &mut SimScratch| {
            let mut tables = SimTables::default();
            for seq in seqs {
                sim.build(seq, s, &mut tables).unwrap();
            }
            tables
        };
        let whole = build(&fx.db.sequences, &mut s);
        let mut merged = build(tail, &mut s);
        merged.append(&SimTables::default()).unwrap();
        let mut chunks = build(head, &mut s);
        chunks.append(&merged).unwrap();
        assert_eq!(chunks.mask(), whole.mask());
        assert_eq!(chunks.ids().len(), whole.ids().len());
        for (&a, &b) in chunks.ids().iter().zip(whole.ids()) {
            assert_eq!(chunks.set(a, ItemId::MAX), whole.set(b, ItemId::MAX));
        }
        assert_eq!(chunks.sets.len(), whole.sets.len());
        assert_eq!(chunks.sets.ids.len(), whole.sets.ids.len());
        // Rows of another FST cannot join: their ids would resolve in
        // another directory.
        let other = compile(".*(A^).*", &fx.dict, OptLevel::Full);
        let mut foreign = SimTables::default();
        let seq = (fx.db.sequences.iter())
            .find(|seq| {
                (Simulator::new(&other, &fx.dict).build(seq, &mut s, &mut foreign)).unwrap()
            })
            .unwrap();
        let before = format!("{chunks:?}");
        for err in [
            chunks.append(&foreign),
            Simulator::new(&other, &fx.dict)
                .build(seq, &mut s, &mut chunks)
                .map(drop),
        ] {
            assert!(matches!(err, Err(Error::Invalid(_))), "{err:?}");
        }
        assert_eq!(format!("{chunks:?}"), before);
    }

    #[test]
    fn the_directory_predicate_bounds_set_ids_and_items() {
        let max = u32::MAX as usize;
        // Set ids and stored items each within a `u32`, either one alone
        // failing the check; so every id stays below `u32::MAX`.
        assert!(fits_directory(max, max));
        assert!(!fits_directory(max + 1, 0));
        assert!(!fits_directory(0, max + 1));
        assert!(!fits_directory(usize::MAX, usize::MAX));
    }

    #[test]
    fn a_rejected_sequence_stops_after_the_forward_pass() {
        let fx = toy::fixture();
        let sim = Simulator::new(&fx.fst, &fx.dict);
        let mut s = SimScratch::default();
        let mut tables = SimTables::default();
        assert!(sim.build(&fx.db.sequences[0], &mut s, &mut tables).unwrap());
        let before = (
            tables.mask().len(),
            tables.ids().len(),
            tables.sets.items.len(),
        );
        // Poison the aliveness table: a backward sweep would rewrite it.
        s.alive.clear();
        // T3 = c d c b has no accepting run.
        assert!(!sim.build(&fx.db.sequences[2], &mut s, &mut tables).unwrap());
        assert!(
            s.alive.is_empty(),
            "no aliveness table for a rejected sequence"
        );
        let after = (
            tables.mask().len(),
            tables.ids().len(),
            tables.sets.items.len(),
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
        assert!(fst.index().step_table_eligible());
        let sim = Simulator::new(&fst, &dict);
        let qn = fst.num_states();
        let mut s = SimScratch::default();
        let mut tables = SimTables::default();
        let mut seen = 0;
        for (seq, distinct) in db.sequences.iter().zip([40, 60, 100]) {
            sim.build(seq, &mut s, &mut tables).unwrap();
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
