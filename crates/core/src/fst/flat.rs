//! The flat counting path: accepting-run enumeration over pre-filtered
//! per-position output sets, plus the interned candidate-counting sink
//! (PR 5).
//!
//! The reference semantics of `G^σ_π(T)` is `generate` in the dev-only
//! `desq-oracle` crate: per sequence it builds a fresh `bool` position–state
//! grid, re-evaluates [`Transition::outputs`](super::Transition::outputs) inside
//! the run loop (one allocation per position per run), and materializes
//! the Cartesian products into a `FxHashSet<Vec<ItemId>>`. This module is
//! the production path for every algorithm that *counts* or *walks* those
//! candidates — DESQ-COUNT, the NAÏVE / SEMI-NAÏVE baselines, D-CAND's
//! map-side run decomposition, D-SEQ's no-grid pivot enumeration and
//! `repro table4`:
//!
//! * [`RunWalker`] walks the tables of the shared simulation front-end
//!   ([`sim`](super::sim)): per-position bit-packed match masks with grid
//!   aliveness folded in, and σ-filtered output sets materialized **once
//!   per `(position, label)`** into a flat arena — the run loop performs no
//!   dictionary access, no output re-evaluation and no allocation. All
//!   per-sequence state lives in a caller-provided [`RunScratch`] (one per
//!   worker thread, reused across sequences).
//! * [`CandidateCounter`] counts *interned* candidates: probing hashes
//!   the raw item slice once with [`fx::hash_items`] into an
//!   open-addressing [`fx::ProbeTable`] over one flat item arena — no
//!   `Vec<ItemId>` keys, no per-candidate allocation after warm-up.
//!
//! # Equivalence contract
//!
//! [`RunWalker::count_candidates`] is observationally equivalent to
//! the `desq-oracle` crate's `generate`: it walks the same
//! accepting runs in the same depth-first order, applies the same σ filter,
//! charges the same work units against the same budget (one per accepting
//! run walked plus one per candidate materialized, duplicates included),
//! raises [`Error::ResourceExhausted`] at exactly the same effective work
//! bound, and observes exactly the candidates of `G^σ_π(T)` (each once per
//! input sequence). The property tests in `tests/proptest_invariants.rs`
//! enforce this on random dictionaries, pattern expressions and databases,
//! and `crates/oracle/tests/` on the paper's running example.

use super::index::FstIndex;
use super::sim::{SimScratch, SimTables, Simulator};
use super::Fst;
use crate::dictionary::Dictionary;
use crate::error::{Error, Result};
use crate::fx::{self, ProbeTable};
use crate::sequence::{ItemId, Sequence};

/// One DFS frame of the run walk: input position, FST state, index of the
/// next transition of the state to try, and whether descending into this
/// frame pushed an output-set entry (ε-output transitions push nothing).
struct Frame {
    pos: u32,
    state: u32,
    next: u32,
    pushed: bool,
}

/// Reusable per-thread scratch of the flat run walk: the simulation
/// front-end's scratch and tables plus the DFS stacks.
///
/// Create one per worker thread (`RunScratch::default()`) and pass it to
/// every [`RunWalker`] call the thread makes; after warm-up the walk
/// allocates nothing per sequence.
#[derive(Default)]
pub struct RunScratch {
    /// Job-wide step table and the grid bitsets of the current sequence.
    sim: SimScratch,
    /// Mask rows and σ-filtered output arena of the current sequence.
    tables: SimTables,
    /// DFS frames (one per consumed position plus the root).
    frames: Vec<Frame>,
    /// Arena ranges of the non-ε output sets along the current run.
    path_sets: Vec<(u32, u32)>,
    /// Candidate item buffer of the Cartesian-product descent.
    items: Vec<ItemId>,
}

impl RunScratch {
    /// The mask rows and σ-filtered output arena of the last sequence
    /// [`RunWalker::build_tables`] accepted.
    #[inline]
    pub fn tables(&self) -> &SimTables {
        &self.tables
    }

    /// The forward-reachable states of position `i` of the last sequence
    /// built, as a state bitset.
    #[inline]
    pub fn reachable(&self, i: usize) -> &[u64] {
        self.sim.reachable(i)
    }

    /// The alive states (forward-reachable with an accepting completion) of
    /// position `i` of the last *accepted* sequence built, as a state
    /// bitset.
    #[inline]
    pub fn alive(&self, i: usize) -> &[u64] {
        self.sim.alive(i)
    }
}

/// The σ-filtered, ε-free output sets of one accepting run, in position
/// order (borrowed from the walk's arena — valid only inside the visitor).
pub struct RunSets<'w> {
    ranges: &'w [(u32, u32)],
    arena: &'w [ItemId],
    dead: bool,
}

impl<'w> RunSets<'w> {
    /// True iff some position's output set σ-filtered to empty: the run
    /// cannot produce an all-frequent candidate. Dead runs still count one
    /// unit of enumeration work (the reference semantics walks them too)
    /// but produce no candidates; [`set`](RunSets::set) may return empty
    /// slices on a dead run.
    #[inline]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Number of non-ε output sets (the length of the run's candidates).
    #[inline]
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// True iff the run produced only ε (its sole candidate is empty).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The `j`-th non-ε output set, sorted ascending.
    #[inline]
    pub fn set(&self, j: usize) -> &'w [ItemId] {
        let (s, e) = self.ranges[j];
        &self.arena[s as usize..e as usize]
    }

    /// The sets in position order (cloneable — consumers may take several
    /// passes without collecting).
    pub fn iter(&self) -> impl Iterator<Item = &'w [ItemId]> + Clone + '_ {
        (0..self.len()).map(|j| self.set(j))
    }
}

/// Flat accepting-run enumeration for one FST over one dictionary (see the
/// [module docs](self)).
///
/// Construction borrows a shared [`FstIndex`] (build it once per FST); the
/// per-sequence state lives in a caller-provided [`RunScratch`].
pub struct RunWalker<'a> {
    sim: Simulator<'a>,
}

impl<'a> RunWalker<'a> {
    /// A walker whose output sets keep only items `<= max_item` — pass
    /// `dict.last_frequent(sigma)` for the `G^σ_π(T)` filter (fids are
    /// frequency ranks, so the comparison is exactly support
    /// antimonotonicity's frequency test).
    pub fn new(fst: &'a Fst, dict: &'a Dictionary, index: &'a FstIndex, max_item: ItemId) -> Self {
        RunWalker {
            sim: Simulator::new(fst, dict, index, max_item),
        }
    }

    /// An unfiltered walker (`G_π(T)` semantics — the NAÏVE baseline).
    pub fn unfiltered(fst: &'a Fst, dict: &'a Dictionary, index: &'a FstIndex) -> Self {
        RunWalker::new(fst, dict, index, ItemId::MAX)
    }

    /// Builds the flat run tables for `seq` in `scratch` through the shared
    /// front-end ([`sim`](super::sim)): the alive-pruned match masks plus
    /// the σ-filtered per-`(position, label)` output arena. Returns `true`
    /// iff the FST accepts `seq` (rejected sequences stop after the forward
    /// pass and build no output sets). [`for_each_run`](Self::for_each_run)
    /// calls it internally; D-SEQ's pivot DP calls it directly and reads
    /// the result through [`RunScratch`]'s accessors.
    pub fn build_tables(&self, seq: &[ItemId], scratch: &mut RunScratch) -> bool {
        scratch.tables.clear();
        self.sim.build(seq, &mut scratch.sim, &mut scratch.tables)
    }

    /// [`build_tables`](Self::build_tables) into a caller-owned arena:
    /// iff the FST accepts `seq`, its mask rows and output arena are
    /// *appended* to `tables` (DESQ-DFS grows one arena over all its input
    /// sequences); a rejected sequence leaves `tables` as it found them.
    /// The grid bitsets stay readable through [`RunScratch::reachable`] /
    /// [`RunScratch::alive`] until the next build.
    pub fn build_tables_into(
        &self,
        seq: &[ItemId],
        scratch: &mut RunScratch,
        tables: &mut SimTables,
    ) -> bool {
        self.sim.build(seq, &mut scratch.sim, tables)
    }

    /// Walks every accepting run of the FST on `seq` depth-first, trying
    /// each state's transitions in [`Fst::transitions`] order (the order of
    /// the oracle's run enumeration), and invokes `visit` with the run's
    /// σ-filtered non-ε output sets. `visit` returns `false` to abort the
    /// walk; the function returns `false` iff it was aborted.
    pub fn for_each_run(
        &self,
        seq: &[ItemId],
        scratch: &mut RunScratch,
        mut visit: impl FnMut(&RunSets<'_>) -> bool,
    ) -> bool {
        if !self.build_tables(seq, scratch) {
            return true;
        }
        let n = seq.len();
        let (fst, index) = (self.sim.fst, self.sim.index);
        let w = index.words();
        let l = index.num_labels();
        let RunScratch {
            frames,
            path_sets,
            tables,
            ..
        } = scratch;
        let (mask, out_off, outs) = (tables.mask(), tables.offsets(), tables.outs());
        frames.clear();
        path_sets.clear();
        frames.push(Frame {
            pos: 0,
            state: fst.initial(),
            next: 0,
            pushed: false,
        });
        // Number of σ-dead (empty) sets on the current path.
        let mut dead = 0usize;
        while let Some(frame) = frames.last_mut() {
            let (i, q, ti) = (frame.pos as usize, frame.state, frame.next as usize);
            if i == n {
                // Complete run; aliveness pruning guarantees a final state.
                debug_assert!(fst.is_final(q));
                let sets = RunSets {
                    ranges: path_sets,
                    arena: outs,
                    dead: dead > 0,
                };
                if !visit(&sets) {
                    return false;
                }
                let f = frames.pop().expect("frame exists");
                if f.pushed {
                    let (s, e) = path_sets.pop().expect("pushed set exists");
                    if s == e {
                        dead -= 1;
                    }
                }
                continue;
            }
            // Find the next viable transition (match bit = matches ∧ alive).
            let row = &mask[i * w..(i + 1) * w];
            let trs = index.state(q as usize);
            let mut found = None;
            for (j, tr) in trs.iter().enumerate().skip(ti) {
                if row[tr.word as usize] & tr.mask != 0 {
                    found = Some((j, tr));
                    break;
                }
            }
            match found {
                Some((j, tr)) => {
                    frame.next = j as u32 + 1;
                    let pushed = tr.label >= 0;
                    if pushed {
                        let set = i * l + tr.label as usize;
                        let r = (out_off[set], out_off[set + 1]);
                        if r.0 == r.1 {
                            dead += 1;
                        }
                        path_sets.push(r);
                    }
                    frames.push(Frame {
                        pos: i as u32 + 1,
                        state: tr.to,
                        next: 0,
                        pushed,
                    });
                }
                None => {
                    let f = frames.pop().expect("frame exists");
                    if f.pushed {
                        let (s, e) = path_sets.pop().expect("pushed set exists");
                        if s == e {
                            dead -= 1;
                        }
                    }
                }
            }
        }
        true
    }

    /// Counts the candidates `G^σ_π(T)` of `seq` into `counter` — the flat
    /// equivalent of the oracle's `generate` (see the
    /// [equivalence contract](self)).
    ///
    /// Every candidate is observed once per input sequence with `weight`;
    /// `on_new` fires on each first observation with the candidate's items
    /// and the counter (`on_new` must not call `begin_sequence`/`observe`
    /// itself; every in-tree caller passes a no-op). `budget` bounds the
    /// work (accepting runs walked plus candidates materialized) exactly
    /// like the reference; exceeding it returns
    /// [`Error::ResourceExhausted`].
    pub fn count_candidates(
        &self,
        seq: &[ItemId],
        weight: u64,
        budget: usize,
        scratch: &mut RunScratch,
        counter: &mut CandidateCounter,
        mut on_new: impl FnMut(&[ItemId], &mut CandidateCounter),
    ) -> Result<()> {
        counter.begin_sequence(weight);
        let mut items = std::mem::take(&mut scratch.items);
        let mut work = 0usize;
        let mut exhausted = false;
        let completed = self.for_each_run(seq, scratch, |sets| {
            work += 1;
            if work > budget {
                exhausted = true;
                return false;
            }
            if sets.is_dead() {
                return true;
            }
            items.clear();
            if !product_count(sets, 0, &mut items, counter, &mut on_new, budget, &mut work) {
                exhausted = true;
                return false;
            }
            true
        });
        scratch.items = items;
        if exhausted || !completed {
            return Err(Error::ResourceExhausted(format!(
                "candidate counting exceeded budget of {budget}"
            )));
        }
        Ok(())
    }
}

/// Cartesian-product descent over a run's output sets, observing each
/// complete candidate. Returns `false` on budget exhaustion.
fn product_count(
    sets: &RunSets<'_>,
    depth: usize,
    items: &mut Vec<ItemId>,
    counter: &mut CandidateCounter,
    on_new: &mut impl FnMut(&[ItemId], &mut CandidateCounter),
    budget: usize,
    work: &mut usize,
) -> bool {
    if depth == sets.len() {
        *work += 1;
        if *work > budget {
            return false;
        }
        // The all-ε run's empty candidate is charged but never counted
        // (the reference removes it after generation).
        if !items.is_empty() && counter.observe(items) {
            on_new(items, counter);
        }
        return true;
    }
    for &w in sets.set(depth) {
        items.push(w);
        let ok = product_count(sets, depth + 1, items, counter, on_new, budget, work);
        items.pop();
        if !ok {
            return false;
        }
    }
    true
}

/// One interned candidate: its [`fx::hash_items`] hash, the exclusive end
/// offset of its items in the counter's arena (the start comes from the
/// previous entry), its per-sequence epoch stamp and accumulated weight.
struct CountEntry {
    hash: u64,
    items_end: u32,
    last_epoch: u32,
    count: u64,
}

/// An interned candidate-count table: candidates live in flat arenas and
/// are counted through an open-addressing [`ProbeTable`] — no
/// `Vec<ItemId>` keys, no per-candidate allocation after warm-up.
///
/// # Count-table contract
///
/// * Probing hashes and compares the raw item slices ([`fx::hash_items`]);
///   the counter never encodes. A shuffle emitter encodes each distinct
///   candidate once, when it drains the counter with
///   [`iter_with_keys`](Self::iter_with_keys).
/// * Counting is **per input sequence**: [`begin_sequence`](Self::begin_sequence)
///   opens a sequence with its weight, and [`observe`](Self::observe) adds
///   that weight at most once per distinct candidate per open sequence (an
///   epoch stamp per entry — no per-sequence clearing or allocation).
/// * Worker-local tables merge with [`merge`](Self::merge) on the calling
///   thread (weights add; no locks anywhere), and
///   [`patterns`](Self::patterns) returns the interned
///   candidates as sorted-ready `(Sequence, count)` pairs.
#[derive(Default)]
pub struct CandidateCounter {
    table: ProbeTable,
    entries: Vec<CountEntry>,
    /// Item arena; entry `i` owns `items[entries[i-1].items_end..entries[i].items_end]`.
    items: Vec<ItemId>,
    epoch: u32,
    weight: u64,
    observed: u64,
}

impl CandidateCounter {
    /// An empty counter.
    pub fn new() -> CandidateCounter {
        CandidateCounter::default()
    }

    /// Opens a new input sequence contributing `weight` per distinct
    /// candidate. Must be called before [`observe`](Self::observe).
    pub fn begin_sequence(&mut self, weight: u64) {
        self.epoch += 1;
        // u32::MAX is the fresh-entry sentinel ("never observed"); an
        // epoch reaching it would silently drop first observations.
        assert!(
            self.epoch < u32::MAX,
            "more than u32::MAX - 1 sequences in one counter"
        );
        self.weight = weight;
    }

    /// Observes one candidate for the open sequence. Returns `true` iff
    /// this is the candidate's first observation for this sequence (its
    /// count was bumped).
    pub fn observe(&mut self, items: &[ItemId]) -> bool {
        debug_assert!(self.epoch > 0, "call begin_sequence before observe");
        let idx = self.intern(fx::hash_items(items), items) as usize;
        let entry = &mut self.entries[idx];
        if entry.last_epoch == self.epoch {
            return false;
        }
        entry.last_epoch = self.epoch;
        entry.count += self.weight;
        self.observed += 1;
        true
    }

    /// Number of distinct candidates interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no candidate has been interned.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total first-per-sequence observations — the work metric of
    /// DESQ-COUNT (candidate occurrences counted).
    #[inline]
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// The items of entry `i`.
    #[inline]
    fn entry_items(&self, i: usize) -> &[ItemId] {
        let start = if i == 0 {
            0
        } else {
            self.entries[i - 1].items_end as usize
        };
        &self.items[start..self.entries[i].items_end as usize]
    }

    fn intern(&mut self, hash: u64, items: &[ItemId]) -> u32 {
        let (table, entries) = (&mut self.table, &self.entries);
        table.grow_if_needed(entries.len(), |i| entries[i as usize].hash);
        let arena = &self.items;
        let slice_of = |i: u32| {
            let start = if i == 0 {
                0
            } else {
                entries[i as usize - 1].items_end as usize
            };
            &arena[start..entries[i as usize].items_end as usize]
        };
        match table.find(hash, |i| {
            entries[i as usize].hash == hash && slice_of(i) == items
        }) {
            Ok(i) => i,
            Err(slot) => {
                // The u32 arena offsets and ids must not wrap (a counter
                // would need > 4 Gi of distinct candidate items).
                assert!(
                    self.items.len() + items.len() <= u32::MAX as usize
                        && self.entries.len() < u32::MAX as usize,
                    "candidate count table exceeds the u32 offset range"
                );
                let id = self.entries.len() as u32;
                self.items.extend_from_slice(items);
                self.entries.push(CountEntry {
                    hash,
                    items_end: self.items.len() as u32,
                    count: 0,
                    // Never equal to an active epoch (epochs count from 1).
                    last_epoch: u32::MAX,
                });
                self.table.insert(slot, id);
                id
            }
        }
    }

    /// Iterates every interned candidate as `(items, count)` — the NAÏVE
    /// mappers drain a partition's counter through this once, emitting each
    /// distinct candidate with its accumulated weight instead of once per
    /// input sequence.
    pub fn iter_with_keys(&self) -> impl Iterator<Item = (&[ItemId], u64)> + '_ {
        (0..self.len()).map(|i| (self.entry_items(i), self.entries[i].count))
    }

    /// Merges another counter's entries into this one (weights add). The
    /// intended use is combining owned per-worker partials on the calling
    /// thread.
    pub fn merge(&mut self, other: &CandidateCounter) {
        for i in 0..other.len() {
            let idx = self.intern(other.entries[i].hash, other.entry_items(i)) as usize;
            self.entries[idx].count += other.entries[i].count;
        }
        self.observed += other.observed;
    }

    /// Returns every interned candidate with count `>= min_count` as
    /// `(Sequence, count)` pairs (unordered — callers sort).
    pub fn patterns(&self, min_count: u64) -> Vec<(Sequence, u64)> {
        let mut out = Vec::new();
        for i in 0..self.len() {
            let count = self.entries[i].count;
            if count < min_count {
                continue;
            }
            out.push((self.entry_items(i).to_vec(), count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn one_run_scratch_across_jobs_builds_what_a_fresh_one_does() {
        // Another FST over the toy dictionary, another dictionary, then the
        // toy FST again: the job-wide step table must re-key, never serve
        // stale rows.
        use crate::dictionary::DictionaryBuilder;
        use crate::pexp::PatEx;
        use crate::sequence::SequenceDb;
        let fx = toy::fixture();
        let compile =
            |p: &str, dict: &Dictionary| Fst::compile(&PatEx::parse(p).unwrap(), dict).unwrap();
        let mut b = DictionaryBuilder::new();
        for name in ["x", "y", "z", "b"] {
            b.item(name);
        }
        b.edge("x", "z");
        let g = |name: &str| b.id_of(name).unwrap();
        let raw = SequenceDb::new(vec![
            vec![g("x"), g("y"), g("b")],
            vec![g("b"), g("x"), g("x"), g("b")],
        ]);
        let (dict2, db2) = b.freeze(&raw).unwrap();
        let jobs = [
            (fx.fst.clone(), &fx.dict, &fx.db),
            (compile(".*(b)[(.^)|.]*(A^).*", &fx.dict), &fx.dict, &fx.db),
            (compile(".*(z)[(.^)|.]*(b).*", &dict2), &dict2, &db2),
            (fx.fst.clone(), &fx.dict, &fx.db),
        ];
        let mut shared = RunScratch::default();
        for (fst, dict, db) in &jobs {
            let index = FstIndex::new(fst);
            let walker = RunWalker::new(fst, dict, &index, dict.last_frequent(2));
            for seq in &db.sequences {
                let mut fresh = RunScratch::default();
                assert_eq!(
                    walker.build_tables(seq, &mut shared),
                    walker.build_tables(seq, &mut fresh)
                );
                assert_eq!(shared.tables(), fresh.tables(), "seq {seq:?}");
            }
        }
    }

    #[test]
    fn counter_dedups_within_a_sequence_and_merges() {
        let mut a = CandidateCounter::new();
        a.begin_sequence(1);
        assert!(a.observe(&[1, 2]));
        assert!(!a.observe(&[1, 2]), "same sequence: no double count");
        assert!(a.observe(&[1]));
        a.begin_sequence(3);
        assert!(a.observe(&[1, 2]), "new sequence counts again");
        assert_eq!(a.observed(), 3);

        let mut b = CandidateCounter::new();
        b.begin_sequence(10);
        assert!(b.observe(&[1, 2]));
        assert!(b.observe(&[9]));

        a.merge(&b);
        let mut got = a.patterns(0);
        got.sort();
        assert_eq!(
            got,
            vec![(vec![1], 1), (vec![1, 2], 14), (vec![9], 10)],
            "weights add across merges"
        );
        // Threshold filters.
        let mut sigma = a.patterns(10);
        sigma.sort();
        assert_eq!(sigma, vec![(vec![1, 2], 14), (vec![9], 10)]);
    }

    #[test]
    fn walker_rejects_and_accepts_like_the_grid() {
        let fx = toy::fixture();
        let index = FstIndex::new(&fx.fst);
        let walker = RunWalker::unfiltered(&fx.fst, &fx.dict, &index);
        let mut scratch = RunScratch::default();
        // T3 is rejected: no runs visited.
        let mut visits = 0;
        walker.for_each_run(&fx.db.sequences[2], &mut scratch, |_| {
            visits += 1;
            true
        });
        assert_eq!(visits, 0);
        // T5 has exactly the paper's three accepting runs.
        walker.for_each_run(&fx.db.sequences[4], &mut scratch, |_| {
            visits += 1;
            true
        });
        assert_eq!(visits, 3);
    }
}
