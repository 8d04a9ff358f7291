//! Pivot search: computing `K^σ(T)` — the pivot items of the candidate
//! subsequences `G^σ_π(T)` — and the rewritten ranges `ρ_p(T)` (Sec. V-A
//! and V-B of the paper).
//!
//! The pivot item of a candidate is its largest item; because fids are
//! frequency ranks, that is its maximum fid. [`PivotSearch::pivots`]
//! computes the full pivot set by dynamic programming over the
//! position–state grid: for every alive coordinate it maintains the set of
//! achievable "maximum output item of an accepting completion", merging
//! transition contributions with the ⊕ operator of Th. 1. This is
//! polynomial even when the number of accepting runs is exponential.
//! [`PivotSearch::pivots_enumerated_into`] is the ablation variant that
//! enumerates accepting runs instead (bounded by a budget — the paper's
//! "no grid" configuration of Fig. 10a): D-CAND's map loop, a
//! [`RunWalker`] walk with the ⊕ merge of every live run, over the same
//! tables the DP reads.
//!
//! This module holds the workspace's one ⊕: the binary sorted-merge form
//! the DP applies per transition, and its fold over a run's output sets
//! ([`merge_pivots`]), which the no-grid enumeration and D-CAND's mapper
//! call.
//!
//! # Hot-path layout
//!
//! The DP runs on the tables of the shared simulation front-end
//! ([`desq_core::fst::sim`], the same one DESQ-DFS local mining and the
//! counting path use), built by [`RunWalker::build_tables`] into the run
//! walk's own [`RunScratch`]: the FST's CSR
//! [`FstIndex`](desq_core::fst::FstIndex) ([`Fst::index`]),
//! per-position bit-packed *match masks* with grid aliveness folded in (one
//! bit test replaces the ancestor check plus the aliveness lookup),
//! forward/alive grid bitsets, and one output-set id per `(position,
//! interned label)` into the scratch's job-wide output-set directory, each
//! set cut at the σ bound as the DP reads it. The per-coordinate pivot
//! sets are small sorted arrays in two row arenas (the backward DP only
//! ever reads row `i + 1` to produce row `i`), merged with ⊕ as pure
//! sorted-merge passes. All of it lives in a caller-provided
//! [`PivotScratch`] — one per worker thread, reused across sequences, so
//! the per-sequence search allocates nothing.
//!
//! Rewriting: the paper shortens the input sent to partition `P_p` by
//! dropping irrelevant prefixes and suffixes. This implementation computes
//! one range per sequence, which every pivot's partition receives, by
//! *safety-clamped* trimming: a leading position is dropped only while every
//! alive run idles in the initial state with ε output (the `.*` prefix
//! shape), and a trailing position only while every alive coordinate is
//! final with ε-output continuations (the `.*` suffix shape). Under these
//! conditions trimming provably preserves the candidate sets of **all**
//! pivots, including for adversarial FSTs where more aggressive per-pivot
//! trimming would change results.

use std::ops::RangeInclusive;

use desq_core::fst::sim::{get_bit, ones};
use desq_core::fst::{RunScratch, RunWalker};
use desq_core::{Dictionary, Error, Fst, ItemId, Result, EPSILON};

/// Reusable scratch of the pivot search: the run walk's scratch (which
/// holds the simulation tables and grid bitsets both variants read) and
/// the two DP row arenas.
///
/// Create one per worker thread (`PivotScratch::default()`), pass it to
/// [`PivotSearch::pivots_into`] or
/// [`PivotSearch::pivots_enumerated_into`] for every sequence the thread
/// processes, and the search performs no per-sequence allocation once the
/// buffers have grown to the workload's high-water mark.
#[derive(Default)]
pub struct PivotScratch {
    /// Tables, grid bitsets and DFS stacks of the current sequence.
    runs: RunScratch,
    /// DP row `i` under construction: per-state arena ranges + items.
    cur: Vec<ItemId>,
    cur_off: Vec<(u32, u32)>,
    /// DP row `i + 1` (previous iteration's result).
    prev: Vec<ItemId>,
    prev_off: Vec<(u32, u32)>,
    /// Accumulated union of one DP cell, and two merge double-buffers.
    acc: Vec<ItemId>,
    tmp: Vec<ItemId>,
    tmp2: Vec<ItemId>,
}

/// Merges two strictly-ascending sorted sets into `out` (union, dedup).
fn merge_union(a: &[ItemId], b: &[ItemId], out: &mut Vec<ItemId>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Unions the sorted set `set` into the sorted set `acc` (`tmp` is the
/// merge's double buffer).
fn union_into(acc: &mut Vec<ItemId>, set: &[ItemId], tmp: &mut Vec<ItemId>) {
    merge_union(set, acc, tmp);
    std::mem::swap(acc, tmp);
}

/// The ⊕ pivot merge of Th. 1 on two sets: `{ max(u, v) : u ∈ a, v ∈ b }`,
/// i.e. the elements of `a ∪ b` no smaller than the larger of the two
/// minima, into `out` by one sorted-merge pass. Both sets must be
/// non-empty and sorted ascending; so is the result, whose minimum is
/// that larger minimum — which makes ⊕ associative.
fn oplus(a: &[ItemId], b: &[ItemId], out: &mut Vec<ItemId>) {
    let threshold = a[0].max(b[0]);
    let a = &a[a.partition_point(|&w| w < threshold)..];
    let b = &b[b.partition_point(|&w| w < threshold)..];
    merge_union(a, b, out);
}

/// The pivot set of a run with output sets `sets` — `{ max(w_1..w_k) :
/// w_i ∈ sets_i }`, the fold of [`oplus`] over them — into `out`, sorted
/// ascending. Folding ⊕ keeps exactly the elements of the sets' union no
/// smaller than the largest of their minima, so the fold is one threshold
/// pass (that largest minimum) and one k-way union of the suffixes at or
/// above it, with nothing copied per step. Sets are sorted ascending; no
/// sets, or an empty one, yield the empty set.
pub(crate) fn oplus_fold<'s>(
    sets: impl Iterator<Item = &'s [ItemId]> + Clone,
    out: &mut Vec<ItemId>,
) {
    out.clear();
    let mut threshold = None;
    for set in sets.clone() {
        let Some(&min) = set.first() else { return };
        threshold = threshold.max(Some(min));
    }
    let Some(threshold) = threshold else { return };
    for set in sets {
        out.extend_from_slice(&set[set.partition_point(|&w| w < threshold)..]);
    }
    out.sort_unstable();
    out.dedup();
}

/// Th. 1's ⊕ folded over `sets`: the pivot set `{ max(w_1..w_k) : w_i ∈
/// sets_i }` of a run with those output sets, as a fresh vector — the
/// allocating form of the fold the mappers run, for tests and benches.
/// Sets are sorted ascending; no sets, or an empty one, yield the empty
/// set.
pub fn merge_pivots<S: AsRef<[ItemId]>>(sets: &[S]) -> Vec<ItemId> {
    let union_bound = sets.iter().map(|s| s.as_ref().len()).sum();
    let mut out = Vec::with_capacity(union_bound);
    oplus_fold(sets.iter().map(AsRef::as_ref), &mut out);
    out
}

/// Pivot computation for one compiled FST over one dictionary.
///
/// Construction is a handful of references; the per-sequence state lives
/// in a caller-provided [`PivotScratch`].
pub struct PivotSearch<'a> {
    fst: &'a Fst,
    dict: &'a Dictionary,
    last_frequent: ItemId,
}

impl<'a> PivotSearch<'a> {
    /// Creates a pivot search. `last_frequent` is the largest frequent fid
    /// (`dict.last_frequent(sigma)`), computed on the *global* database.
    pub fn new(fst: &'a Fst, dict: &'a Dictionary, last_frequent: ItemId) -> PivotSearch<'a> {
        PivotSearch {
            fst,
            dict,
            last_frequent,
        }
    }

    /// A run walker over this search's FST and σ cut.
    fn walker(&self) -> RunWalker<'_> {
        RunWalker::new(self.fst, self.dict, self.fst.index(), self.last_frequent)
    }

    /// `K^σ(T)`, sorted ascending, with the rewritten range all its pivots
    /// share (`None` iff there are no pivots).
    ///
    /// Convenience wrapper over [`Self::pivots_into`] with a throwaway
    /// scratch; hot loops should hoist a [`PivotScratch`] per thread
    /// instead.
    pub fn pivots(&self, seq: &[ItemId]) -> (Vec<ItemId>, Option<RangeInclusive<usize>>) {
        let mut out = Vec::new();
        let range = self.pivots_into(seq, &mut PivotScratch::default(), &mut out);
        (out, range)
    }

    /// `K^σ(T)` by the flat grid DP, clearing and filling a caller buffer
    /// with caller-provided scratch — the allocation-free form used by
    /// D-SEQ's mapper. Returns the one rewritten range every pivot's
    /// partition receives (`seq[range]`), or `None` iff `out` is empty.
    pub fn pivots_into(
        &self,
        seq: &[ItemId],
        scratch: &mut PivotScratch,
        out: &mut Vec<ItemId>,
    ) -> Option<RangeInclusive<usize>> {
        out.clear();
        if seq.is_empty() || !self.walker().build_tables(seq, &mut scratch.runs) {
            return None;
        }
        self.flat_pivot_set(seq, scratch);
        let (start, end) = scratch.prev_off[self.fst.initial() as usize];
        let pivots = &scratch.prev[start as usize..end as usize];
        out.extend_from_slice(&pivots[pivots.partition_point(|&w| w == EPSILON)..]);
        self.range(seq, &scratch.runs, out)
    }

    /// The backward pivot DP over the prepared tables. Leaves row 0 in
    /// `scratch.prev`/`prev_off`; each cell's set is sorted ascending with
    /// [`EPSILON`] marking the all-ε completion. Labels whose transitions
    /// all miss (or are alive-pruned) at a position have an empty output
    /// set and kill their transitions in the DP.
    fn flat_pivot_set(&self, seq: &[ItemId], scratch: &mut PivotScratch) {
        let ix = self.fst.index();
        let n = seq.len();
        let qn = self.fst.num_states();
        let w = ix.words();
        let l = ix.num_labels();
        let tables = scratch.runs.tables();
        let (mask, ids) = (tables.mask(), tables.ids());

        // Row n: alive final coordinates complete with ε only.
        scratch.prev.clear();
        scratch.prev_off.clear();
        for q in 0..qn {
            if get_bit(scratch.runs.alive(n), q) {
                let s = scratch.prev.len() as u32;
                scratch.prev.push(EPSILON);
                scratch.prev_off.push((s, s + 1));
            } else {
                scratch.prev_off.push((0, 0));
            }
        }

        for i in (0..n).rev() {
            scratch.cur.clear();
            scratch.cur_off.clear();
            let row = &mask[i * w..(i + 1) * w];
            for q in 0..qn {
                if !get_bit(scratch.runs.alive(i), q) {
                    scratch.cur_off.push((0, 0));
                    continue;
                }
                scratch.acc.clear();
                for tr in ix.state(q) {
                    // Match + target-aliveness in one precomputed bit.
                    if row[tr.word as usize] & tr.mask == 0 {
                        continue;
                    }
                    let (rs, re) = scratch.prev_off[tr.to as usize];
                    if rs == re {
                        continue;
                    }
                    let rest = &scratch.prev[rs as usize..re as usize];
                    if tr.label < 0 {
                        // ε output: ⊕({ε}, rest) = rest.
                        union_into(&mut scratch.acc, rest, &mut scratch.tmp);
                        continue;
                    }
                    let outs = tables.set(ids[i * l + tr.label as usize], self.last_frequent);
                    if outs.is_empty() {
                        continue; // dead under the σ filter
                    }
                    oplus(outs, rest, &mut scratch.tmp2);
                    if scratch.acc.is_empty() {
                        std::mem::swap(&mut scratch.acc, &mut scratch.tmp2);
                    } else {
                        union_into(&mut scratch.acc, &scratch.tmp2, &mut scratch.tmp);
                    }
                }
                let s = scratch.cur.len() as u32;
                scratch.cur.extend_from_slice(&scratch.acc);
                scratch.cur_off.push((s, scratch.cur.len() as u32));
            }
            std::mem::swap(&mut scratch.prev, &mut scratch.cur);
            std::mem::swap(&mut scratch.prev_off, &mut scratch.cur_off);
        }
    }

    /// `K^σ(T)` and its rewritten range by run enumeration — the "no grid"
    /// ablation of Fig. 10a. Walks every accepting run over the tables
    /// [`RunWalker`] builds into `scratch`, unions the ⊕ pivot set of each
    /// live run (D-CAND's map loop), then trims the range off the same
    /// tables. `budget` is charged one unit per accepting run walked, σ-dead
    /// runs included; a sequence with more runs than that fails with
    /// [`Error::ResourceExhausted`] and leaves `out` empty.
    pub fn pivots_enumerated_into(
        &self,
        seq: &[ItemId],
        budget: usize,
        scratch: &mut PivotScratch,
        out: &mut Vec<ItemId>,
    ) -> Result<Option<RangeInclusive<usize>>> {
        out.clear();
        let PivotScratch { runs, acc, tmp, .. } = scratch;
        let mut work = 0usize;
        let completed = self.walker().for_each_run(seq, runs, |sets| {
            work += 1;
            if work > budget {
                return false;
            }
            if !sets.is_dead() {
                oplus_fold(sets.iter(), acc);
                union_into(out, acc, tmp);
            }
            true
        });
        if !completed {
            out.clear();
            return Err(Error::ResourceExhausted(format!(
                "pivot enumeration exceeded budget of {budget}"
            )));
        }
        Ok(self.range(seq, runs, out))
    }

    /// The safety-clamped rewritten range all of `pivots` share, trimmed
    /// off the tables in `runs` (built for `seq`), or `None` if there are
    /// no pivots. A pivot means some position outputs, so the leading
    /// trim stops before the sequence ends.
    fn range(
        &self,
        seq: &[ItemId],
        runs: &RunScratch,
        pivots: &[ItemId],
    ) -> Option<RangeInclusive<usize>> {
        if pivots.is_empty() {
            return None;
        }
        let first = self.safe_front(seq, runs);
        Some(first..=seq.len() - 1 - self.safe_back(seq, runs, first))
    }

    /// Number of leading positions provably droppable: while the only alive
    /// coordinate is the initial state and all its alive transitions are
    /// ε-output self-loops, every alive run idles there.
    fn safe_front(&self, seq: &[ItemId], scratch: &RunScratch) -> usize {
        let ix = self.fst.index();
        let w = ix.words();
        let initial = self.fst.initial();
        let mut i = 0;
        while i < seq.len() {
            if !get_bit(scratch.alive(i), initial as usize) {
                return i;
            }
            let row = &scratch.tables().mask()[i * w..(i + 1) * w];
            for tr in ix.state(initial as usize) {
                if row[tr.word as usize] & tr.mask == 0 {
                    continue; // no match, or the target is a dead end
                }
                if tr.label >= 0 || tr.to != initial {
                    return i;
                }
            }
            i += 1;
        }
        i
    }

    /// Number of trailing positions provably droppable (symmetric to
    /// [`Self::safe_front`]): position `j` may go while every
    /// forward-reachable coordinate `(j, s)` satisfies "alive iff final" and
    /// all alive transitions produce ε — then ending at `j` accepts exactly
    /// the runs that previously consumed the suffix silently.
    fn safe_back(&self, seq: &[ItemId], scratch: &RunScratch, first: usize) -> usize {
        let ix = self.fst.index();
        let n = seq.len();
        let w = ix.words();
        let mut dropped = 0;
        'outer: while dropped + first + 1 < n {
            let j = n - 1 - dropped;
            let row = &scratch.tables().mask()[j * w..(j + 1) * w];
            for s in ones(scratch.reachable(j)) {
                let alive = get_bit(scratch.alive(j), s);
                if alive != self.fst.is_final(s as u32) {
                    break 'outer;
                }
                if !alive {
                    continue;
                }
                for tr in ix.state(s) {
                    // Pruned bit = matches ∧ target alive; label ≥ 0 =
                    // produces output.
                    if row[tr.word as usize] & tr.mask != 0 && tr.label >= 0 {
                        break 'outer;
                    }
                }
            }
            dropped += 1;
        }
        dropped
    }

    /// The largest frequent fid this search filters with.
    pub fn last_frequent(&self) -> ItemId {
        self.last_frequent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::toy;

    /// The no-grid variant's pivots and range, under an unbounded budget.
    fn enumerated(
        search: &PivotSearch<'_>,
        seq: &[ItemId],
        scratch: &mut PivotScratch,
    ) -> (Vec<ItemId>, Option<RangeInclusive<usize>>) {
        let mut out = Vec::new();
        let range = search
            .pivots_enumerated_into(seq, usize::MAX, scratch, &mut out)
            .unwrap();
        (out, range)
    }

    /// Every non-empty subset of `1..=5`, ascending.
    fn small_sets() -> Vec<Vec<ItemId>> {
        (1u32..32)
            .map(|bits| (1..=5).filter(|w| bits & (1 << (w - 1)) != 0).collect())
            .collect()
    }

    #[test]
    fn binary_oplus_is_the_max_of_every_pair() {
        let mut out = Vec::new();
        for a in &small_sets() {
            for b in &small_sets() {
                let mut expect: Vec<ItemId> = a
                    .iter()
                    .flat_map(|&u| b.iter().map(move |&v| u.max(v)))
                    .collect();
                expect.sort_unstable();
                expect.dedup();
                oplus(a, b, &mut out);
                assert_eq!(out, expect, "{a:?} ⊕ {b:?}");
            }
        }
    }

    proptest::proptest! {
        /// The one-pass fold is the definition: the max of every choice of
        /// one element per set.
        #[test]
        fn the_fold_is_the_max_of_every_choice(
            sets in proptest::collection::vec(proptest::collection::btree_set(1u32..16, 0..5), 0..6),
        ) {
            let sets: Vec<Vec<ItemId>> = sets.into_iter().map(|s| s.into_iter().collect()).collect();
            let mut maxima = vec![EPSILON];
            for set in &sets {
                maxima = maxima.iter().flat_map(|&m| set.iter().map(move |&w| m.max(w))).collect();
            }
            maxima.sort_unstable();
            maxima.dedup();
            if sets.is_empty() {
                maxima.clear();
            }
            proptest::prop_assert_eq!(merge_pivots(&sets), maxima);
        }
    }

    #[test]
    fn the_fold_matches_theorem_examples() {
        // Paper running example: the run sets of r2 on T5 are {a1}, {A, a1},
        // {b}; achievable pivots are a1 only (A and b are below the largest
        // minimum a1).
        let fx = toy::fixture();
        let sets = vec![vec![fx.a1], vec![fx.big_a, fx.a1], vec![fx.b]];
        assert_eq!(merge_pivots(&sets), vec![fx.a1]);
        // Degenerate cases.
        assert!(merge_pivots::<Vec<ItemId>>(&[]).is_empty());
        assert!(merge_pivots(&[vec![3, 7], vec![]]).is_empty());
        assert!(merge_pivots(&[vec![], vec![3, 7]]).is_empty());
        assert_eq!(merge_pivots(&[vec![3, 7]]), vec![3, 7]);
        assert_eq!(merge_pivots(&[vec![1, 5], vec![2, 9]]), vec![2, 5, 9]);
    }

    #[test]
    fn toy_pivots_match_fig3() {
        let fx = toy::fixture();
        let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(2));
        let expected: [&[ItemId]; 5] = [&[fx.a1, fx.c], &[fx.a1], &[], &[], &[fx.a1]];
        for (t, expect) in fx.db.sequences.iter().zip(expected) {
            assert_eq!(search.pivots(t).0, expect, "K({})", fx.dict.render(t));
        }
    }

    #[test]
    fn flat_dp_and_enumeration_agree_on_toy() {
        // One scratch, alternating between the two variants.
        let fx = toy::fixture();
        let (mut scratch, mut dp) = (PivotScratch::default(), Vec::new());
        for sigma in 1..=5 {
            let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(sigma));
            for seq in &fx.db.sequences {
                let range = search.pivots_into(seq, &mut scratch, &mut dp);
                let en = enumerated(&search, seq, &mut scratch);
                assert_eq!((dp.clone(), range), en, "σ={sigma}, seq {seq:?}");
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One scratch across all sequences, σ values, FSTs and dictionaries
        // must behave like a fresh one per call: no state leaks between
        // sequences, and the job-wide step table re-keys per search.
        use desq_core::fst::SimTables;
        use desq_core::{DictionaryBuilder, PatEx, SequenceDb};
        let fx = toy::fixture();
        let other_fst = Fst::compile(&PatEx::parse(".*(b)[(.^)|.]*(A^).*").unwrap(), &fx.dict);
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
        let fst2 = Fst::compile(&PatEx::parse(".*(z)[(.^)|.]*(b).*").unwrap(), &dict2);
        let jobs = [
            (&fx.fst, &fx.dict, &fx.db),
            (&other_fst.unwrap(), &fx.dict, &fx.db),
            (&fst2.unwrap(), &dict2, &db2),
            (&fx.fst, &fx.dict, &fx.db),
        ];
        let mut shared = PivotScratch::default();
        let (mut reused, mut expect) = (Vec::new(), Vec::new());
        for (fst, dict, db) in jobs {
            for sigma in 1..=5 {
                let search = PivotSearch::new(fst, dict, dict.last_frequent(sigma));
                for seq in &db.sequences {
                    let mut fresh = PivotScratch::default();
                    let range = search.pivots_into(seq, &mut shared, &mut reused);
                    let fresh_range = search.pivots_into(seq, &mut fresh, &mut expect);
                    assert_eq!(
                        (&reused, range),
                        (&expect, fresh_range),
                        "σ={sigma} {seq:?}"
                    );
                    let (a, b) = (shared.runs.tables(), fresh.runs.tables());
                    assert_eq!(a.mask(), b.mask(), "σ={sigma}, seq {seq:?}");
                    let cut = dict.last_frequent(sigma);
                    let sets = |t: &SimTables| -> Vec<Vec<ItemId>> {
                        t.ids().iter().map(|&id| t.set(id, cut).to_vec()).collect()
                    };
                    assert_eq!(sets(a), sets(b), "σ={sigma}, seq {seq:?}");
                    let fresh = &mut PivotScratch::default();
                    let en = enumerated(&search, seq, &mut shared);
                    assert_eq!(en, enumerated(&search, seq, fresh), "σ={sigma} {seq:?}");
                }
            }
        }
    }

    #[test]
    fn rewriting_trims_t2_prefix() {
        let fx = toy::fixture();
        let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(2));
        let (pivots, range) = search.pivots(&fx.db.sequences[1]);
        assert_eq!((pivots.len(), range), (1, Some(2..=6)));
    }

    #[test]
    fn enumerated_ranges_match_flat_ranges() {
        let fx = toy::fixture();
        for sigma in 1..=4u64 {
            let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(sigma));
            for seq in &fx.db.sequences {
                let en = enumerated(&search, seq, &mut PivotScratch::default());
                assert_eq!(search.pivots(seq), en, "σ={sigma}, seq {seq:?}");
            }
        }
    }

    #[test]
    fn enumeration_budget_respected() {
        let fx = toy::fixture();
        let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(1));
        let t2 = &fx.db.sequences[1];
        let mut out = vec![1];
        let err = search
            .pivots_enumerated_into(t2, 1, &mut PivotScratch::default(), &mut out)
            .unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
        assert!(out.is_empty(), "an exhausted search leaves no stale pivots");
    }

    #[test]
    fn empty_and_rejected_sequences_have_no_pivots() {
        let fx = toy::fixture();
        let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(2));
        assert_eq!(search.pivots(&[]), (vec![], None));
        assert_eq!(search.pivots(&fx.db.sequences[2]), (vec![], None)); // T3 rejected
    }
}
