//! Pivot search: computing `K^σ(T)` — the pivot items of the candidate
//! subsequences `G^σ_π(T)` — and the rewritten ranges `ρ_p(T)` (Sec. V-A
//! and V-B of the paper).
//!
//! The pivot item of a candidate is its largest item; because fids are
//! frequency ranks, that is its maximum fid. [`PivotSearch::pivots`]
//! computes the full pivot set by dynamic programming over the
//! position–state grid: for every alive coordinate it maintains the set of
//! achievable "maximum output item of an accepting completion", merging
//! transition contributions with the ⊕ operator of Th. 1 (the same merge
//! as [`crate::dcand::merge_pivots`]). This is polynomial even when the
//! number of accepting runs is exponential.
//! [`PivotSearch::pivots_enumerated_into`] is the ablation variant that
//! enumerates accepting runs instead (bounded by a budget — the paper's
//! "no grid" configuration of Fig. 10a): D-CAND's map loop, a
//! [`RunWalker`] walk with the ⊕ merge of every live run, over the same
//! tables the DP reads.
//!
//! # Hot-path layout
//!
//! The DP runs on the tables of the shared simulation front-end
//! ([`desq_core::fst::sim`], the same one DESQ-DFS local mining and the
//! counting path use), built by [`RunWalker::build_tables`] into the run
//! walk's own [`RunScratch`]: a CSR [`FstIndex`] built once per search,
//! per-position bit-packed *match masks* with grid aliveness folded in (one
//! bit test replaces the ancestor check plus the aliveness lookup),
//! forward/alive grid bitsets, and σ-filtered output sets materialized per
//! `(position, interned label)` into an arena. The per-coordinate pivot
//! sets are small sorted arrays in two row arenas (the backward DP only
//! ever reads row `i + 1` to produce row `i`), merged with ⊕ as pure
//! sorted-merge passes. All of it lives in a caller-provided
//! [`PivotScratch`] — one per worker thread, reused across sequences, so
//! the per-sequence search allocates nothing.
//!
//! Rewriting: the paper shortens the input sent to partition `P_p` by
//! dropping irrelevant prefixes and suffixes. This implementation applies
//! *safety-clamped* trimming: a leading position is dropped only while every
//! alive run idles in the initial state with ε output (the `.*` prefix
//! shape), and a trailing position only while every alive coordinate is
//! final with ε-output continuations (the `.*` suffix shape). Under these
//! conditions trimming provably preserves the candidate sets of **all**
//! pivots, including for adversarial FSTs where more aggressive per-pivot
//! trimming would change results.

use desq_core::fst::sim::{get_bit, ones};
use desq_core::fst::{FstIndex, RunScratch, RunWalker};
use desq_core::{Dictionary, Error, Fst, ItemId, Result, EPSILON};

use crate::dcand::merge_pivots_into;

/// One pivot of a sequence together with the rewritten range: partition
/// `P_item` receives `seq[first..=last]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PivotRange {
    /// The pivot item (a frequent fid).
    pub item: ItemId,
    /// First position of the rewritten sequence (inclusive).
    pub first: u32,
    /// Last position of the rewritten sequence (inclusive).
    pub last: u32,
}

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
    /// Accumulated ⊕ union of one cell (of all runs, when enumerating),
    /// and the two merge double-buffers.
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

/// The ⊕ contribution of one transition — elements of `outs ∪ rest` no
/// smaller than the larger of the two minima — unioned into `acc` in two
/// merge passes over small sorted arrays (`tmp`/`tmp2` are persistent
/// double buffers; nothing allocates after warm-up). Both inputs must be
/// non-empty and sorted ascending.
fn oplus_into(
    outs: &[ItemId],
    rest: &[ItemId],
    acc: &mut Vec<ItemId>,
    tmp: &mut Vec<ItemId>,
    tmp2: &mut Vec<ItemId>,
) {
    let threshold = outs[0].max(rest[0]);
    let o = &outs[outs.partition_point(|&w| w < threshold)..];
    let r = &rest[rest.partition_point(|&w| w < threshold)..];
    merge_union(o, r, tmp2);
    if acc.is_empty() {
        std::mem::swap(acc, tmp2);
        return;
    }
    merge_union(tmp2, acc, tmp);
    std::mem::swap(acc, tmp);
}

/// Pivot computation for one compiled FST over one dictionary.
///
/// Construction derives the shared [`FstIndex`] once; the per-sequence
/// state lives in a caller-provided [`PivotScratch`].
pub struct PivotSearch<'a> {
    fst: &'a Fst,
    dict: &'a Dictionary,
    last_frequent: ItemId,
    index: FstIndex,
}

impl<'a> PivotSearch<'a> {
    /// Creates a pivot search. `last_frequent` is the largest frequent fid
    /// (`dict.last_frequent(sigma)`), computed on the *global* database.
    pub fn new(fst: &'a Fst, dict: &'a Dictionary, last_frequent: ItemId) -> PivotSearch<'a> {
        PivotSearch {
            fst,
            dict,
            last_frequent,
            index: FstIndex::new(fst),
        }
    }

    /// A run walker over this search's FST, index and σ cut.
    fn walker(&self) -> RunWalker<'_> {
        RunWalker::new(self.fst, self.dict, &self.index, self.last_frequent)
    }

    /// `K^σ(T)`, with the shared rewritten range, sorted ascending by item.
    ///
    /// Convenience wrapper over [`Self::pivots_into`] with a throwaway
    /// scratch; hot loops should hoist a [`PivotScratch`] per thread
    /// instead.
    pub fn pivots(&self, seq: &[ItemId]) -> Vec<PivotRange> {
        let mut out = Vec::new();
        self.pivots_into(seq, &mut PivotScratch::default(), &mut out);
        out
    }

    /// `K^σ(T)` with the shared rewritten range by the flat grid DP,
    /// clearing and filling a caller buffer with caller-provided scratch —
    /// the allocation-free form used by D-SEQ's mapper.
    pub fn pivots_into(
        &self,
        seq: &[ItemId],
        scratch: &mut PivotScratch,
        out: &mut Vec<PivotRange>,
    ) {
        out.clear();
        if seq.is_empty() || !self.walker().build_tables(seq, &mut scratch.runs) {
            return;
        }
        self.flat_pivot_set(seq, scratch);
        let (start, end) = scratch.prev_off[self.fst.initial() as usize];
        let pivots = &scratch.prev[start as usize..end as usize];
        let pivots = &pivots[pivots.partition_point(|&w| w == EPSILON)..];
        self.push_ranges(seq, &scratch.runs, pivots, out);
    }

    /// The backward pivot DP over the prepared tables. Leaves row 0 in
    /// `scratch.prev`/`prev_off`; each cell's set is sorted ascending with
    /// [`EPSILON`] marking the all-ε completion. Labels whose transitions
    /// all miss (or are alive-pruned) at a position have an empty output
    /// set and kill their transitions in the DP.
    fn flat_pivot_set(&self, seq: &[ItemId], scratch: &mut PivotScratch) {
        let ix = &self.index;
        let n = seq.len();
        let qn = self.fst.num_states();
        let w = ix.words();
        let l = ix.num_labels();
        let tables = scratch.runs.tables();
        let (mask, out_off, outs) = (tables.mask(), tables.offsets(), tables.outs());

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
                        merge_union(rest, &scratch.acc, &mut scratch.tmp);
                        std::mem::swap(&mut scratch.acc, &mut scratch.tmp);
                        continue;
                    }
                    let set = i * l + tr.label as usize;
                    let (os, oe) = (out_off[set], out_off[set + 1]);
                    if os == oe {
                        continue; // dead under the σ filter
                    }
                    oplus_into(
                        &outs[os as usize..oe as usize],
                        rest,
                        &mut scratch.acc,
                        &mut scratch.tmp,
                        &mut scratch.tmp2,
                    );
                }
                let s = scratch.cur.len() as u32;
                scratch.cur.extend_from_slice(&scratch.acc);
                scratch.cur_off.push((s, scratch.cur.len() as u32));
            }
            std::mem::swap(&mut scratch.prev, &mut scratch.cur);
            std::mem::swap(&mut scratch.prev_off, &mut scratch.cur_off);
        }
    }

    /// `K^σ(T)` with the shared rewritten range by run enumeration — the
    /// "no grid" ablation of Fig. 10a. Walks every accepting run over the
    /// tables [`RunWalker`] builds into `scratch`, unions the ⊕ pivot set of
    /// each live run (D-CAND's map loop), then trims the range off the same
    /// tables. `budget` is charged one unit per accepting run walked, σ-dead
    /// runs included; a sequence with more runs than that fails with
    /// [`Error::ResourceExhausted`] and leaves `out` empty.
    pub fn pivots_enumerated_into(
        &self,
        seq: &[ItemId],
        budget: usize,
        scratch: &mut PivotScratch,
        out: &mut Vec<PivotRange>,
    ) -> Result<()> {
        out.clear();
        let PivotScratch {
            runs,
            acc,
            tmp,
            tmp2,
            ..
        } = scratch;
        acc.clear();
        let mut work = 0usize;
        let completed = self.walker().for_each_run(seq, runs, |sets| {
            work += 1;
            if work > budget {
                return false;
            }
            if !sets.is_dead() {
                merge_pivots_into(sets.iter(), tmp);
                merge_union(tmp, acc, tmp2);
                std::mem::swap(acc, tmp2);
            }
            true
        });
        if !completed {
            return Err(Error::ResourceExhausted(format!(
                "pivot enumeration exceeded budget of {budget}"
            )));
        }
        self.push_ranges(seq, runs, acc, out);
        Ok(())
    }

    /// Appends one [`PivotRange`] per item of `pivots`, all with the
    /// rewritten range trimmed off the tables in `runs` (built for `seq`).
    fn push_ranges(
        &self,
        seq: &[ItemId],
        runs: &RunScratch,
        pivots: &[ItemId],
        out: &mut Vec<PivotRange>,
    ) {
        if pivots.is_empty() {
            return;
        }
        let (first, last) = self
            .range_from_scratch(seq, runs)
            .expect("pivots imply a range");
        out.extend(pivots.iter().map(|&item| PivotRange {
            item,
            first: first as u32,
            last: last as u32,
        }));
    }

    /// The safety-clamped rewritten range shared by all pivots of `seq`, or
    /// `None` if the FST rejects the sequence.
    pub fn safe_range(&self, seq: &[ItemId], scratch: &mut PivotScratch) -> Option<(usize, usize)> {
        if seq.is_empty() || !self.walker().build_tables(seq, &mut scratch.runs) {
            return None;
        }
        self.range_from_scratch(seq, &scratch.runs)
    }

    /// The rewritten range over the tables in `scratch`, which
    /// [`RunWalker::build_tables`] must have built for `seq` (and accepted).
    fn range_from_scratch(&self, seq: &[ItemId], scratch: &RunScratch) -> Option<(usize, usize)> {
        if seq.is_empty() {
            return None;
        }
        let first = self.safe_front(seq, scratch);
        if first == seq.len() {
            // Every position idles in the initial state: only the empty
            // candidate exists. Keep a minimal non-empty range.
            return Some((0, seq.len() - 1));
        }
        let last = seq.len() - 1 - self.safe_back(seq, scratch, first);
        Some((first, last))
    }

    /// Number of leading positions provably droppable: while the only alive
    /// coordinate is the initial state and all its alive transitions are
    /// ε-output self-loops, every alive run idles there.
    fn safe_front(&self, seq: &[ItemId], scratch: &RunScratch) -> usize {
        let ix = &self.index;
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
        let ix = &self.index;
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

    /// The shared transition index derived at construction (see the
    /// [reuse contract](desq_core::fst::index)).
    pub fn index(&self) -> &FstIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::toy;

    /// The no-grid variant's ranges, under an unbounded budget.
    fn enumerated(
        search: &PivotSearch<'_>,
        seq: &[ItemId],
        scratch: &mut PivotScratch,
    ) -> Vec<PivotRange> {
        let mut out = Vec::new();
        search
            .pivots_enumerated_into(seq, usize::MAX, scratch, &mut out)
            .unwrap();
        out
    }

    #[test]
    fn toy_pivots_match_fig3() {
        let fx = toy::fixture();
        let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(2));
        let expected: [&[ItemId]; 5] = [&[fx.a1, fx.c], &[fx.a1], &[], &[], &[fx.a1]];
        for (t, expect) in fx.db.sequences.iter().zip(expected) {
            let got: Vec<ItemId> = search.pivots(t).iter().map(|p| p.item).collect();
            assert_eq!(got, expect, "K({})", fx.dict.render(t));
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
                search.pivots_into(seq, &mut scratch, &mut dp);
                let en = enumerated(&search, seq, &mut scratch);
                let items = |r: &[PivotRange]| r.iter().map(|p| p.item).collect::<Vec<_>>();
                assert_eq!(items(&dp), items(&en), "σ={sigma}, seq {seq:?}");
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One scratch across all sequences, σ values, FSTs and dictionaries
        // must behave like a fresh one per call: no state leaks between
        // sequences, and the job-wide step table re-keys per search.
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
                    search.pivots_into(seq, &mut shared, &mut reused);
                    search.pivots_into(seq, &mut fresh, &mut expect);
                    assert_eq!(reused, expect, "σ={sigma} {seq:?}");
                    let tables = shared.runs.tables();
                    assert_eq!(tables, fresh.runs.tables(), "σ={sigma}, seq {seq:?}");
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
        let t2 = &fx.db.sequences[1];
        let pr = search.pivots(t2);
        assert_eq!(pr.len(), 1);
        assert_eq!((pr[0].first, pr[0].last), (2, 6));
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
        let mut out = vec![PivotRange {
            item: 1,
            first: 0,
            last: 0,
        }];
        let err = search
            .pivots_enumerated_into(t2, 1, &mut PivotScratch::default(), &mut out)
            .unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
        assert!(out.is_empty(), "an exhausted search leaves no stale ranges");
    }

    #[test]
    fn empty_and_rejected_sequences_have_no_pivots() {
        let fx = toy::fixture();
        let search = PivotSearch::new(&fx.fst, &fx.dict, fx.dict.last_frequent(2));
        assert!(search.pivots(&[]).is_empty());
        assert!(search.pivots(&fx.db.sequences[2]).is_empty()); // T3 rejected
        assert!(search
            .safe_range(&[], &mut PivotScratch::default())
            .is_none());
    }
}
