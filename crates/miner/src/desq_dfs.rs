//! DESQ-DFS: pattern growth over `(sequence, position, state)` projections.
//!
//! Mining starts with the empty prefix and expands it by one output item at
//! a time, forming a search tree (Fig. 6 of the paper). Each node holds a
//! *projected database*: snapshots `(T, i, q)` from which the prefix can be
//! produced — sequence `T`, last-read position `i`, current FST state `q`.
//! Expanding a node resumes FST simulation from every snapshot: transitions
//! with ε output are followed silently; the first transition that produces
//! output extends the prefix.
//!
//! A prefix is *emitted* when enough (weighted) sequences can complete it —
//! i.e. consume their remaining items with ε output and end in a final
//! state. A node is *expanded* while enough sequences remain in its
//! projection (prefix support is antimonotone; π-support is not).
//!
//! # Hot-path layout
//!
//! FST simulation state is precomputed once per input sequence into flat,
//! bit-packed [`SeqTables`]: per-position *match masks* (one bit per FST
//! transition), aliveness and ε-completion bitsets over the
//! `(position, state)` grid, and the output sets of every
//! `(position, output label)` pair — cut at the frequent-item boundary and
//! materialized, sorted, into a per-sequence arena. The DFS walks a compact
//! per-state transition index of the FST (L1-resident) and resolves
//! matches, aliveness and outputs as bit tests and arena slices: no
//! ancestor binary searches, no output re-materialization, no dictionary
//! access. Projected databases are sorted posting-list runs in per-depth
//! reusable buffers instead of per-node hash maps, and the ε-closure walk
//! deduplicates coordinates in a bitset.
//!
//! Search-tree exploration runs on the work-stealing scheduler of
//! [`desq_core::sched`] at every worker count
//! ([`LocalMiner::mine_with_workers`]): the root node is the one seed
//! task, each worker descends its subtree depth-first with its own scratch
//! arenas over the shared tables, and shallow nodes split trailing child
//! subtrees off as stealable tasks while the worker's deque runs short
//! (`SPLIT_DEPTH`, `SHARE_LIMIT`). A lone worker has no thief to split for,
//! so its one task is the whole pre-order traversal. DESQ's search trees
//! are heavily skewed, so dynamic stealing — not static sharding — is what
//! keeps all workers busy. Results stay oracle-identical at any worker count: every
//! pattern is emitted by exactly one subtree and the merged set is sorted
//! once.
//!
//! [`LocalMiner`] adds the partition-local restrictions of D-SEQ
//! (Sec. V-C): at partition `P_k` no expansion uses items `> k`, only pivot
//! sequences (max item = `k`) are emitted, and the *early stopping*
//! heuristic drops snapshots that can no longer produce the pivot item —
//! past the sequence's last pivot position, or in an FST state with no
//! output left to produce.
//! All three are applied while walking, so the tables themselves are
//! pivot-independent and shared across partitions (see [`SeqTables`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use desq_core::fst::sim::{get_bit, ones, set_bit};
use desq_core::fst::{FstIndex, RunScratch, RunWalker, SimTables};
use desq_core::mining::{CancelToken, PatternSink};
use desq_core::sched::{self, TaskCtx, WorkerStats};
#[cfg(test)]
use desq_core::SequenceDb;
use desq_core::{Dictionary, Fst, ItemId, Result, Sequence, EPSILON};

/// Node depth (relative to a task's root) below which child subtrees may
/// be split off as stealable tasks; deeper nodes always recurse inline. A
/// split copies the child's postings out of the depth buffers: near the
/// root a subtree's mining dwarfs that copy, while towards the leaves a
/// subtree shrinks to the size of its own postings and the copy stops
/// paying for itself. Three levels already hand thieves the root's
/// children, grandchildren and great-grandchildren to balance.
const SPLIT_DEPTH: usize = 3;

/// Child subtrees are only split off while the splitting worker's own
/// queue holds fewer than this many tasks. A thief takes half a victim's
/// queue, so a queue this short is one or two steals from empty — thieves
/// are draining it and more splits feed them; a longer queue already has
/// work to hand out, and splitting further would only copy postings.
const SHARE_LIMIT: usize = 4;

/// Configuration of a [`LocalMiner`]: σ, and the pivot restriction with
/// its early stopping for a D-SEQ partition. The frequent-item cut is not
/// configured — it is the dictionary's `last_frequent(σ)`, which counts
/// the global database, so a reducer mining weighted aggregates at the
/// global σ gets the global cut.
#[derive(Debug, Clone, Copy)]
pub struct MinerConfig {
    /// Minimum support threshold σ; also fixes the frequent-item cut.
    pub sigma: u64,
    /// Partition-local mining for pivot item `k` (item-based partitioning:
    /// partition `P_k` owns no sequence with items `> k`): expansions never
    /// use items greater than `k`, and only sequences containing `k` — their
    /// pivot — are emitted. `None` mines unrestricted.
    pub pivot: Option<ItemId>,
    /// Early stopping (Sec. V-C), in two halves that both apply only to
    /// prefixes still lacking the pivot. Position: per input sequence,
    /// determine the last position that can produce the pivot item and
    /// stop using the sequence beyond it. State: a step into an FST state
    /// that can produce no further output extends such a prefix by the
    /// pivot only. Only effective when `pivot` is set.
    pub early_stop: bool,
}

impl MinerConfig {
    /// Unrestricted sequential mining at threshold `sigma`.
    pub fn sequential(sigma: u64) -> MinerConfig {
        MinerConfig {
            sigma,
            pivot: None,
            early_stop: false,
        }
    }

    /// Partition-local mining for pivot `k` (used by D-SEQ).
    pub fn for_pivot(sigma: u64, k: ItemId, early_stop: bool) -> MinerConfig {
        MinerConfig {
            sigma,
            pivot: Some(k),
            early_stop,
        }
    }
}

/// One weighted input sequence, borrowed from its owner (the database, or a
/// reducer's decoded aggregate) — local mining never copies item data.
pub type WeightedInput<'s> = (&'s [ItemId], u64);

/// What a parallel mining run returns: the (pattern, frequency) pairs in
/// discovery order plus the per-worker scheduler stats.
pub type MinedPatterns = (Vec<(Sequence, u64)>, Vec<WorkerStats>);

/// Pattern-growth miner over a set of weighted input sequences.
pub struct LocalMiner<'a> {
    fst: &'a Fst,
    dict: &'a Dictionary,
    config: MinerConfig,
    /// Largest frequent fid, `dict.last_frequent(σ)`, resolved once at
    /// construction.
    last_frequent: ItemId,
    /// Derived per-state transition index ([`FstIndex`]) — owned by
    /// default, borrowed when the caller amortizes one index across many
    /// miners (D-SEQ builds a miner per pivot partition over one FST).
    index: IndexHolder<'a>,
    /// Largest frequent vocabulary that still uses dense (vocabulary-
    /// indexed) node grouping; larger vocabularies sort instead. Only
    /// tests override [`MAX_DENSE_ITEMS`].
    dense_limit: usize,
}

/// One stealable unit of search-tree work: an owned subtree root. The
/// postings are copied out of the producer's depth buffers so the task can
/// outlive them and move across threads; only shallow nodes are split (see
/// `SPLIT_DEPTH`), so the copies stay rare and small
/// relative to the mining they unlock.
struct MineTask {
    /// Items on the path from the search-tree root to this node.
    prefix: Sequence,
    /// The node's projected database.
    postings: Vec<Posting>,
    /// Whether the prefix already contains the required pivot.
    has_pivot: bool,
    /// The node's precomputed ε-completion (emission) support.
    emit: u64,
}

/// Owned-or-shared [`FstIndex`] (see [`LocalMiner::with_index`]).
enum IndexHolder<'a> {
    Owned(Box<FstIndex>),
    Shared(&'a FstIndex),
}

impl IndexHolder<'_> {
    #[inline]
    fn get(&self) -> &FstIndex {
        match self {
            IndexHolder::Owned(ix) => ix,
            IndexHolder::Shared(ix) => ix,
        }
    }
}

/// One projected-database posting, packed
/// `extension item ‖ input index ‖ last-read position ‖ ε-flag ‖ state`
/// (32 + 32 + 32 + 1 + 31 bits, most significant first). The item is the
/// output that led into this node (the root uses ε); packing it into the
/// top bits makes a plain integer sort group postings into per-child runs
/// with branchless compares. The ε-flag caches the coordinate's
/// ε-completion bit so support counting never touches the tables again.
type Posting = u128;

const EPS_FLAG: u32 = 1 << 31;

#[inline]
fn posting(w: ItemId, s: u32, i: u32, q: u32, eps: bool) -> Posting {
    let q = q | if eps { EPS_FLAG } else { 0 };
    (w as u128) << 96 | (s as u128) << 64 | (i as u128) << 32 | q as u128
}

#[inline]
fn p_item(p: Posting) -> ItemId {
    (p >> 96) as u32
}

#[inline]
fn p_seq(p: Posting) -> u32 {
    (p >> 64) as u32
}

#[inline]
fn p_pos(p: Posting) -> u32 {
    (p >> 32) as u32
}

#[inline]
fn p_state(p: Posting) -> u32 {
    p as u32 & !EPS_FLAG
}

#[inline]
fn p_eps(p: Posting) -> bool {
    p as u32 & EPS_FLAG != 0
}

/// Flat per-sequence simulation tables, built by
/// [`LocalMiner::prepare_tables`] (one call, one input collection) or grown
/// one sequence at a time by [`LocalMiner::append_tables`], and immutable
/// during the DFS.
///
/// Everything the search-tree expansion needs about the input sequences is
/// precomputed here, bit-packed to keep the per-node memory traffic low.
/// The shared simulation front-end ([`RunWalker::build_tables_into`] — lazy,
/// frontier-driven; a rejected sequence costs one forward pass and no arena
/// space) produces the first two, this module adds the third. Per sequence:
///
/// * *match masks* — bit `δ` of position `i`'s mask is set iff FST
///   transition `δ` leaves a forward-reachable state, matches the input
///   item at `i` *and* its target lies on an accepting run (the
///   position–state grid of Sec. V-A, folded into the match bits — one bit
///   test replaces the ancestor binary search plus the grid lookup). The
///   DFS only ever follows set bits from the root coordinate, which is the
///   front-end's [reachable-sources contract](desq_core::fst::sim);
/// * the output arena — for every `(position, output label)` pair with a
///   set bit, a slice holding the label's output set on the position's
///   item, sorted ascending and cut at the building miner's frequent-item
///   boundary ([`SimTables::offsets`]);
/// * `eps_fin` — bitset memoizing "the rest of the sequence can be consumed
///   producing only ε, ending in a final state" (the emission test), over
///   the alive coordinates.
///
/// All of that is **pivot-independent**: the partition restrictions of
/// D-SEQ (no item above the pivot, early stopping) are applied by the DFS
/// while it walks — the item bound is a prefix cut of each sorted output
/// slice — so one table serves every pivot partition its sequence is
/// shuffled to. Any miner over the same `(FST, dictionary)` pair whose
/// frequent-item boundary is not above the builder's can mine it (see the
/// [`FstIndex` reuse contract](desq_core::fst::index)). The one
/// pivot-dependent value is the per-sequence early-stopping position: it
/// is derived from the output arena (the last position where an alive
/// transition outputs the pivot — no dictionary access) for the building
/// miner's own pivot, and [`LocalMiner::mine_picks`] overrides it, together
/// with the weight, per pick.
///
/// All per-sequence data lives in **shared arenas** with one descriptor
/// (`SeqMeta`) per *accepted* sequence: building tables for N inputs costs
/// a constant number of allocations, not 4·N. A sequence without an
/// accepting run can never reach the root projection, so it gets no
/// descriptor and no arena space. D-SEQ keeps one growing arena per reduce
/// worker — its lifetime is the worker's, so a sequence shipped to many
/// pivot partitions of that worker is simulated once.
#[derive(Default)]
pub struct SeqTables {
    metas: Vec<SeqMeta>,
    /// Mask rows and output arena of the accepted sequences.
    sim: SimTables,
    eps_fin: Vec<u64>,
}

/// Per-sequence descriptor into the [`SeqTables`] arenas. The DFS walks a
/// slice of these: the tables' own, or copies with `weight` and
/// `last_pivot_pos` overridden ([`LocalMiner::mine_picks`]).
#[derive(Clone, Copy)]
struct SeqMeta {
    weight: u64,
    mask_start: usize,
    eps_start: usize,
    off_start: usize,
    outs_start: usize,
    len: u32,
    /// Early stopping (Sec. V-C): the last position that can still produce
    /// the pivot. A prefix lacking the pivot reads nothing beyond it and
    /// only the pivot at it. `u32::MAX` = no bound.
    last_pivot_pos: u32,
}

/// What the DFS walks: the arenas plus one descriptor per accepted input
/// sequence (postings index into `metas`).
#[derive(Clone, Copy)]
struct Views<'a> {
    arena: &'a SeqTables,
    metas: &'a [SeqMeta],
}

impl SeqTables {
    /// Number of accepted sequences the tables hold.
    pub fn len(&self) -> usize {
        self.metas.len()
    }

    /// True iff no input sequence was accepted.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// Number of matching `(position, transition)` pairs precomputed in
    /// table `s`'s match masks.
    #[cfg(test)]
    fn num_match_bits(&self, s: usize) -> usize {
        // Sequences occupy the arenas in order, back to back.
        let mask = self.sim.mask();
        let end = self.metas.get(s + 1).map_or(mask.len(), |m| m.mask_start);
        mask[self.metas[s].mask_start..end]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The tables' own descriptors as DFS views.
    fn views(&self) -> Views<'_> {
        Views {
            arena: self,
            metas: &self.metas,
        }
    }

    /// The last position of sequence `m` (`l` output labels per position)
    /// whose output sets contain `pivot`.
    fn last_pivot_pos(&self, m: &SeqMeta, l: usize, pivot: ItemId) -> Option<usize> {
        let offsets = &self.sim.offsets()[m.off_start..m.off_start + m.len as usize * l + 1];
        let outs = &self.sim.outs()[m.outs_start..][..offsets[offsets.len() - 1] as usize];
        let at = outs.iter().rposition(|&w| w == pivot)?;
        // `offsets` ascends from 0 to `outs.len()`: the set holding `at` is
        // the last one starting at or before it.
        Some((offsets.partition_point(|&o| o as usize <= at) - 1) / l)
    }

    /// Appends another set's tables (a parallel build chunk), rebasing the
    /// descriptors onto this set's arenas.
    fn append(&mut self, other: SeqTables) {
        let (mb, eb, ob, ub) = (
            self.sim.mask().len(),
            self.eps_fin.len(),
            self.sim.offsets().len(),
            self.sim.outs().len(),
        );
        self.metas.extend(other.metas.into_iter().map(|m| SeqMeta {
            mask_start: m.mask_start + mb,
            eps_start: m.eps_start + eb,
            off_start: m.off_start + ob,
            outs_start: m.outs_start + ub,
            ..m
        }));
        self.sim.append(&other.sim);
        self.eps_fin.extend_from_slice(&other.eps_fin);
    }
}

/// Scratch for the ε-closure walk, reused across snapshots and nodes.
#[derive(Default)]
struct WalkBufs {
    /// Visited-coordinate bitset over `(i, q)` cells of the current
    /// sequence.
    visited: Vec<u64>,
    /// Cells set in `visited`, for O(|walk|) clearing.
    touched: Vec<u32>,
    /// DFS worklist of `(i, q)` coordinates.
    stack: Vec<(u32, u32)>,
}

impl WalkBufs {
    #[inline]
    fn mark(&mut self, cell: usize) -> bool {
        let fresh = !get_bit(&self.visited, cell);
        if fresh {
            set_bit(&mut self.visited, cell);
            self.touched.push(cell as u32);
        }
        fresh
    }

    fn clear(&mut self) {
        for &cell in &self.touched {
            self.visited[cell as usize / 64] &= !(1 << (cell as usize % 64));
        }
        self.touched.clear();
    }
}

/// Per-depth node scratch: the raw (unordered) child postings pushed by the
/// closure walk, the same postings grouped into per-item runs, and the run
/// directory. Buffers persist across sibling nodes of the same depth.
#[derive(Default)]
struct DepthBufs {
    raw: Vec<Posting>,
    grouped: Vec<Posting>,
    /// Per frequent child: item, its postings in `grouped`, and its
    /// ε-completion (emission) support.
    runs: Vec<(ItemId, std::ops::Range<usize>, u64)>,
}

/// Per-item accumulator of one node expansion, packed so every posting
/// push touches a single cache line: posting count (reused as the scatter
/// cursor), the last counted input index for the prefix and emission
/// supports, and the weighted supports themselves.
#[derive(Clone)]
struct ItemAcc {
    count: u32,
    last_seq: u32,
    emit_last_seq: u32,
    support: u64,
    emit_support: u64,
}

const FRESH_ACC: ItemAcc = ItemAcc {
    count: 0,
    last_seq: u32::MAX,
    emit_last_seq: u32::MAX,
    support: 0,
    emit_support: 0,
};

/// Vocabulary-indexed per-item accumulators used to group a node's child
/// postings in linear time, plus the list of touched items (for
/// O(|touched|) clearing between nodes). Not `dense` when the item bound is
/// too large to index — grouping then falls back to sorting.
#[derive(Default)]
struct ItemStats {
    dense: bool,
    acc: Vec<ItemAcc>,
    items: Vec<ItemId>,
}

/// Largest dense item-array size; beyond this, node grouping sorts instead.
const MAX_DENSE_ITEMS: usize = 1 << 21;

/// All reusable DFS scratch: walk buffers, item accumulators, and one
/// [`DepthBufs`] per search-tree depth (projected databases of siblings
/// reuse the same allocations). Every buffer is back in its rest state
/// after a mining call, so one instance serves many calls
/// ([`MinerScratch`]) and only ever grows.
#[derive(Default)]
struct ExpandBufs {
    walk: WalkBufs,
    stats: ItemStats,
    depths: Vec<DepthBufs>,
    /// Search-tree nodes expanded so far.
    #[cfg(test)]
    nodes: usize,
}

/// Reusable scratch of one thread that grows a long-lived [`SeqTables`]
/// arena ([`LocalMiner::append_tables`]) and mines from it
/// ([`LocalMiner::mine_picks`]): once warm, neither call allocates beyond
/// the arena's own growth and the patterns it emits.
#[derive(Default)]
pub struct MinerScratch {
    prepare: RunScratch,
    bufs: ExpandBufs,
    views: Vec<SeqMeta>,
    roots: Vec<Posting>,
}

impl<'a> LocalMiner<'a> {
    /// Creates a miner for the given FST and dictionary.
    pub fn new(fst: &'a Fst, dict: &'a Dictionary, config: MinerConfig) -> Self {
        LocalMiner {
            fst,
            dict,
            config,
            last_frequent: dict.last_frequent(config.sigma),
            index: IndexHolder::Owned(Box::new(FstIndex::new(fst))),
            dense_limit: MAX_DENSE_ITEMS,
        }
    }

    /// Creates a miner that borrows a pre-built [`FstIndex`] instead of
    /// deriving its own.
    ///
    /// The index must have been built from the same `fst` (see the
    /// [reuse contract](desq_core::fst::index)); sharing one index
    /// amortizes its construction when many miners run over one FST —
    /// D-SEQ's reducers build a [`LocalMiner`] per pivot partition.
    pub fn with_index(
        fst: &'a Fst,
        dict: &'a Dictionary,
        config: MinerConfig,
        index: &'a FstIndex,
    ) -> Self {
        LocalMiner {
            fst,
            dict,
            config,
            last_frequent: dict.last_frequent(config.sigma),
            index: IndexHolder::Shared(index),
            dense_limit: MAX_DENSE_ITEMS,
        }
    }

    /// Largest item the dense per-item accumulators must index: the
    /// partition bound caps it below the frequent vocabulary, so
    /// pivot-restricted miners (one per reduce key in D-SEQ) allocate
    /// `O(pivot)` instead of `O(vocabulary)` scratch.
    #[inline]
    fn item_bound(&self) -> ItemId {
        self.config
            .pivot
            .map_or(self.last_frequent, |m| m.min(self.last_frequent))
    }

    /// Sizes DFS scratch for one mining call over `views`: the visited
    /// bitset for the longest sequence, the accumulators for items up to
    /// the item bound.
    fn fit_bufs(&self, bufs: &mut ExpandBufs, views: Views<'_>) {
        let max_len = views.metas.iter().map(|m| m.len as usize).max();
        let max_cells = max_len.map_or(0, |n| n + 1);
        let words = (max_cells * self.fst.num_states()).div_ceil(64).max(1);
        if bufs.walk.visited.len() < words {
            bufs.walk.visited.resize(words, 0);
        }
        // Dense grouping touches an O(item bound) accumulator array. That
        // amortizes over a database-sized input but not over a tiny
        // partition (D-SEQ reducers mine a few hundred weighted sequences
        // per pivot key), so small inputs fall back to sort-based grouping
        // regardless of vocabulary size.
        let n = self.item_bound() as usize + 1;
        bufs.stats.dense = n <= self.dense_limit.min(16 * views.metas.len().max(1));
        if bufs.stats.dense && bufs.stats.acc.len() < n {
            bufs.stats.acc.resize(n, FRESH_ACC);
        }
    }

    /// Fresh DFS scratch sized for `views`.
    fn expand_bufs(&self, views: Views<'_>) -> ExpandBufs {
        let mut bufs = ExpandBufs::default();
        self.fit_bufs(&mut bufs, views);
        bufs
    }

    /// Forces the sort-based (sparse) node grouping regardless of
    /// vocabulary size, to test the fallback path.
    #[cfg(test)]
    fn with_sparse_grouping(mut self) -> Self {
        self.dense_limit = 0;
        self
    }

    /// Mines the weighted input collection; returns `(pattern, frequency)`
    /// pairs sorted lexicographically.
    pub fn mine(&self, inputs: &[WeightedInput<'_>]) -> Result<Vec<(Sequence, u64)>> {
        Ok(self.mine_with_workers(inputs, 1, None)?.0)
    }

    /// Appends one sequence's tables to a growing `tables` arena and
    /// returns its index there, or `None` (appending nothing) if the FST
    /// rejects the sequence. The tables are pivot-independent (see
    /// [`SeqTables`]), so the appending miner need not be the one that
    /// later mines them.
    pub fn append_tables(
        &self,
        seq: &[ItemId],
        tables: &mut SeqTables,
        scratch: &mut MinerScratch,
    ) -> Option<u32> {
        let table =
            u32::try_from(tables.len()).expect("postings pack the input index into 32 bits");
        self.prepare_into(seq, 1, &mut scratch.prepare, tables)
            .then_some(table)
    }

    /// Mines the weighted collection given as `(table index, weight)`
    /// picks from `tables` under this miner's configuration, streaming
    /// patterns to `sink` in DFS order (unsorted). Single-threaded — the
    /// partition-per-key reducers that share an arena parallelize across
    /// keys, not within them.
    pub fn mine_picks(
        &self,
        tables: &SeqTables,
        picks: &[(u32, u64)],
        scratch: &mut MinerScratch,
        sink: &mut dyn FnMut(Sequence, u64),
    ) {
        let MinerScratch {
            bufs, views, roots, ..
        } = scratch;
        views.clear();
        views.extend(picks.iter().map(|&(t, weight)| {
            let m = tables.metas[t as usize];
            SeqMeta {
                weight,
                last_pivot_pos: self.early_stop_pos(tables, &m),
                ..m
            }
        }));
        let views = Views {
            arena: tables,
            metas: views,
        };
        roots.clear();
        roots.extend(self.root_postings(views));
        self.fit_bufs(bufs, views);
        let mut prefix = Sequence::new();
        self.expand(
            views,
            roots,
            0,
            self.config.pivot.is_none(),
            0,
            &mut prefix,
            bufs,
            None,
            &mut |p, f| {
                sink(p, f);
                true
            },
        );
    }

    /// The early-stopping bound of one sequence under this miner's
    /// configuration (see `SeqMeta::last_pivot_pos`): a sequence that
    /// cannot produce the pivot at all is useless from position 0 on.
    fn early_stop_pos(&self, tables: &SeqTables, m: &SeqMeta) -> u32 {
        match self.config.pivot {
            Some(pivot) if self.config.early_stop => tables
                .last_pivot_pos(m, self.index.get().num_labels(), pivot)
                .map_or(0, |i| i as u32),
            _ => u32::MAX,
        }
    }

    /// The last position of table `s`'s sequence at which a transition on
    /// an accepting run outputs this miner's pivot — what early stopping
    /// derives from the tables. Exposed for tests.
    #[doc(hidden)]
    pub fn last_pivot_position(&self, tables: &SeqTables, s: usize) -> Option<usize> {
        let l = self.index.get().num_labels();
        tables.last_pivot_pos(&tables.metas[s], l, self.config.pivot?)
    }

    /// The one DESQ-DFS driver: builds the tables, seeds the scheduler with
    /// the root node and runs [`expand`](Self::expand) on one worker per
    /// element of `sinks`, handing the sinks back in worker order. Every
    /// frequent pattern goes to `emit` with the discovering worker's sink,
    /// after a poll of `cancel` — per pattern, so a deadline is bounded even
    /// when the whole search is one task. An `emit` returning `false` raises
    /// `stop`: the run ends early, not in error. A tripped token and a
    /// panicking task (or `emit`) behave as [`sched::run_scheduler`]
    /// documents.
    fn drive<W: Send>(
        &self,
        inputs: &[WeightedInput<'_>],
        cancel: Option<&CancelToken>,
        sinks: Vec<W>,
        stop: &AtomicBool,
        emit: impl Fn(&mut W, Sequence, u64) -> bool + Sync,
    ) -> Result<(Vec<WorkerStats>, Vec<W>)> {
        let tables = self.prepare_tables_cancellable(inputs, sinks.len(), cancel)?;
        let views = tables.views();
        let root = MineTask {
            prefix: Sequence::new(),
            postings: self.root_postings(views).collect(),
            has_pivot: self.config.pivot.is_none(),
            emit: 0,
        };
        let states: Vec<_> = sinks
            .into_iter()
            .map(|sink| (sink, self.expand_bufs(views)))
            .collect();
        let (stats, states) = sched::run_scheduler(
            vec![root],
            states,
            stop,
            cancel,
            |task: MineTask, (sink, bufs), ctx| {
                let mut prefix = task.prefix;
                let keep_going = self.expand(
                    views,
                    &task.postings,
                    0,
                    task.has_pivot,
                    task.emit,
                    &mut prefix,
                    bufs,
                    Some(ctx),
                    &mut |p, f| cancel.is_none_or(|t| t.checkpoint().is_ok()) && emit(sink, p, f),
                );
                if !keep_going {
                    stop.store(true, Ordering::Relaxed);
                }
                Ok(())
            },
        )?;
        Ok((stats, states.into_iter().map(|(sink, _)| sink).collect()))
    }

    /// Mines with `workers` workers on the work-stealing scheduler of
    /// [`desq_core::sched`]: the root node seeds the task pool, shallow
    /// nodes split trailing children off as stealable tasks while the local
    /// queue is short, and idle workers steal half of a victim's queued
    /// subtrees. Each worker collects into its own buffer; the scheduler
    /// hands the buffers back, and they are merged and sorted once, so the
    /// output is oracle-identical at any worker count.
    ///
    /// Returns the (deterministic, sorted) patterns plus per-worker
    /// [`WorkerStats`] — one entry per worker.
    ///
    /// A `cancel` token, when given, is polled cooperatively (per task and
    /// per emitted pattern): an expired deadline or external cancel aborts
    /// with the token's [`stop_reason`](CancelToken::stop_reason), and a
    /// panicking subtree task is caught at the task boundary and surfaces
    /// as [`desq_core::Error::WorkerPanicked`] instead of aborting the
    /// process.
    pub fn mine_with_workers(
        &self,
        inputs: &[WeightedInput<'_>],
        workers: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<MinedPatterns> {
        let (stats, buffers) = self.drive(
            inputs,
            cancel,
            vec![Vec::new(); workers.max(1)],
            &AtomicBool::new(false),
            |out, p, f| {
                out.push((p, f));
                true
            },
        )?;
        // The first buffer is adopted, not copied.
        let mut buffers = buffers.into_iter();
        let mut merged = buffers.next().unwrap_or_default();
        for out in buffers {
            merged.extend(out);
        }
        Ok((crate::sort_patterns(merged), stats))
    }

    /// Streaming variant of [`mine_with_workers`](Self::mine_with_workers):
    /// every frequent pattern goes to `sink` as it is discovered, without
    /// materializing or sorting the result set. The workers call `sink`
    /// themselves, one at a time under a lock, so it sees an unspecified
    /// interleaving of their DFS orders; one worker streams in DFS
    /// pre-order over the search tree. A `false` from the sink stops the
    /// mining (no further sink calls happen) and makes this return
    /// `Ok(false)` — the consumer's own early stop is not an error. A
    /// tripped `cancel` token (deadline, external abort), a panicking
    /// subtree task or a panicking `sink` aborts with the corresponding
    /// [`desq_core::Error`] instead; a panic surfaces as
    /// [`desq_core::Error::WorkerPanicked`] at every worker count.
    pub fn mine_each_with_workers(
        &self,
        inputs: &[WeightedInput<'_>],
        workers: usize,
        cancel: Option<&CancelToken>,
        sink: PatternSink<'_>,
    ) -> Result<bool> {
        let stop = AtomicBool::new(false);
        let sink = Mutex::new(sink);
        self.drive(
            inputs,
            cancel,
            vec![(); workers.max(1)],
            &stop,
            |(), p, f| {
                // A poisoned lock means the sink panicked on another worker:
                // that panic already fails the run, so this one just stops.
                let Ok(mut sink) = sink.lock() else {
                    return false;
                };
                // Checked under the lock: once the sink said stop, it is
                // never called again.
                if stop.load(Ordering::Relaxed) || !sink(p, f) {
                    stop.store(true, Ordering::Relaxed);
                    return false;
                }
                true
            },
        )?;
        Ok(!stop.load(Ordering::Relaxed))
    }

    /// Builds the flat simulation tables ([`SeqTables`]) for every accepted
    /// input sequence, `workers` at a time. This is the preprocessing the DFS
    /// amortizes: afterwards expansion is pure bit tests and arena slices.
    /// A panic while building one sequence's tables is caught at the
    /// worker boundary and reported as [`desq_core::Error::WorkerPanicked`].
    pub fn prepare_tables(
        &self,
        inputs: &[WeightedInput<'_>],
        workers: usize,
    ) -> Result<SeqTables> {
        self.prepare_tables_cancellable(inputs, workers, None)
    }

    /// [`prepare_tables`](Self::prepare_tables) with cooperative
    /// cancellation: the token is polled once per input sequence. One chunk
    /// of the input per worker; the chunks' tables are appended onto the
    /// first, so a single chunk is returned as built.
    fn prepare_tables_cancellable(
        &self,
        inputs: &[WeightedInput<'_>],
        workers: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<SeqTables> {
        let per_chunk = inputs.len().div_ceil(workers.max(1)).max(1);
        let chunks: Vec<_> = inputs.chunks(per_chunk).collect();
        let parts = sched::run_indexed(
            chunks.len(),
            workers,
            cancel,
            RunScratch::default,
            |idx, scratch| {
                let mut set = SeqTables::default();
                for &(seq, w) in chunks[idx] {
                    if let Some(token) = cancel {
                        token.checkpoint()?;
                    }
                    self.prepare_into(seq, w, scratch, &mut set);
                }
                Ok(set)
            },
        )?;
        let mut parts = parts.results.into_iter();
        let mut set = parts.next().unwrap_or_default();
        for part in parts {
            set.append(part);
        }
        Ok(set)
    }

    /// Number of σ-frequent first-level children of the root node (the
    /// shard units of parallel mining). Exposed for the kernel benchmarks.
    #[doc(hidden)]
    pub fn first_level_count(&self, tables: &SeqTables) -> usize {
        let views = tables.views();
        let roots: Vec<Posting> = self.root_postings(views).collect();
        let mut bufs = self.expand_bufs(views);
        let mut first = DepthBufs::default();
        self.collect_children(
            views,
            &roots,
            self.config.pivot.is_none(),
            &mut bufs.walk,
            &mut bufs.stats,
            &mut first,
        );
        first.runs.len()
    }

    /// Builds one sequence's tables — the front-end's match masks and
    /// output arena, built by [`RunWalker::build_tables_into`] straight into
    /// the set's shared arenas, plus the ε-completion bitset (no
    /// per-sequence allocation). Returns whether the FST accepts the
    /// sequence; a rejected one leaves `set` as it was.
    fn prepare_into(
        &self,
        seq: &[ItemId],
        weight: u64,
        scratch: &mut RunScratch,
        set: &mut SeqTables,
    ) -> bool {
        let mut meta = SeqMeta {
            weight,
            mask_start: set.sim.mask().len(),
            eps_start: set.eps_fin.len(),
            off_start: set.sim.offsets().len(),
            outs_start: set.sim.outs().len(),
            len: u32::try_from(seq.len()).expect("postings pack positions into 32 bits"),
            last_pivot_pos: u32::MAX,
        };
        let walker = RunWalker::new(self.fst, self.dict, self.index.get(), self.last_frequent);
        if !walker.build_tables_into(seq, scratch, &mut set.sim) {
            return false;
        }
        let mask = &set.sim.mask()[meta.mask_start..];
        self.build_eps_fin(seq.len(), scratch, mask, &mut set.eps_fin);
        meta.last_pivot_pos = self.early_stop_pos(set, &meta);
        set.metas.push(meta);
        true
    }

    /// The ε-completion DP of one accepted sequence, appended to `eps_buf`
    /// (bit `i · states + q`): `(i, q)` can consume the rest of the
    /// sequence producing only ε and end in a final state. Runs over the
    /// alive coordinates of the front-end's grid ([`RunScratch::alive`]) —
    /// every coordinate the DFS can query is alive, and so is each cell of
    /// an ε-completion path from it, so the pruned `mask` rows retain all of
    /// its transitions.
    fn build_eps_fin(&self, n: usize, grid: &RunScratch, mask: &[u64], eps_buf: &mut Vec<u64>) {
        let ix = self.index.get();
        let (qn, w) = (self.fst.num_states(), ix.words());
        let eps_start = eps_buf.len();
        eps_buf.resize(eps_start + ((n + 1) * qn).div_ceil(64).max(1), 0);
        let eps_fin = &mut eps_buf[eps_start..];
        for q in ones(grid.alive(n)) {
            set_bit(eps_fin, n * qn + q);
        }
        for i in (0..n).rev() {
            let row = &mask[i * w..(i + 1) * w];
            let mut any = false;
            for q in ones(grid.alive(i)) {
                let ok = ix.state(q).iter().any(|tr| {
                    tr.label < 0
                        && row[tr.word as usize] & tr.mask != 0
                        && get_bit(eps_fin, (i + 1) * qn + tr.to as usize)
                });
                if ok {
                    set_bit(eps_fin, i * qn + q);
                    any = true;
                }
            }
            if !any {
                break; // no ε-completion starts at or before position i
            }
        }
    }

    /// The root projection: every sequence at `(0, initial)`.
    fn root_postings<'v>(&self, views: Views<'v>) -> impl Iterator<Item = Posting> + 'v {
        let q0 = self.fst.initial();
        (0..views.metas.len()).map(move |s| posting(EPSILON, s as u32, 0, q0, false))
    }

    /// Prefix and emission support of one child run: the weighted count of
    /// distinct input sequences with any posting, and with any
    /// ε-flagged posting. Postings must be grouped by input index.
    fn run_supports(metas: &[SeqMeta], postings: &[Posting]) -> (u64, u64) {
        let mut support = 0u64;
        let mut emit = 0u64;
        let mut last: Option<u32> = None;
        let mut last_emit: Option<u32> = None;
        for &p in postings {
            let s = p_seq(p);
            if last != Some(s) {
                last = Some(s);
                support += metas[s as usize].weight;
            }
            if p_eps(p) && last_emit != Some(s) {
                last_emit = Some(s);
                emit += metas[s as usize].weight;
            }
        }
        (support, emit)
    }

    /// ε-closure, child expansion and grouping of one node.
    ///
    /// Simulation resumes from the node's postings — one shared,
    /// bitset-deduplicated walk per input sequence, seeded with all of the
    /// sequence's postings (their closures overlap heavily, and the
    /// children are a set anyway) — appending one posting per output item
    /// of the output-producing steps into `d.raw`. Per-item posting counts
    /// and weighted prefix supports accumulate on the fly, so grouping is a
    /// single stable scatter into `d.grouped`: postings of children below σ
    /// are dropped without ever being ordered, and `d.runs` directs the
    /// recursion (ascending items, each run grouped by input index).
    /// Duplicate postings (same coordinate reached from several closure
    /// seeds) are tolerated — the next level's walk absorbs them, and the
    /// distinct-sequence support counting is insensitive to them.
    fn collect_children(
        &self,
        views: Views<'_>,
        node: &[Posting],
        has_pivot: bool,
        walk: &mut WalkBufs,
        stats: &mut ItemStats,
        d: &mut DepthBufs,
    ) {
        let ix = self.index.get();
        let (qn, w, l) = (self.fst.num_states(), ix.words(), ix.num_labels());
        let sigma = self.config.sigma;
        let bound = self.item_bound();
        let pivot = self.config.pivot.unwrap_or(EPSILON);
        // Pivot-dead children (the state half of early stopping): while the
        // prefix lacks the pivot, a step into a state that can produce no
        // further output leads only to a child that is never emitted (no
        // pivot) and never extended from that posting, so it contributes
        // the pivot alone — dropping the rest only tightens an
        // antimonotone support bound.
        let prune_dead = !has_pivot && self.config.early_stop;
        let arena = views.arena;
        d.raw.clear();
        let dense = stats.dense;
        let mut idx = 0;
        while idx < node.len() {
            let s = p_seq(node[idx]);
            let t = &views.metas[s as usize];
            let len = t.len as usize;
            let mask = &arena.sim.mask()[t.mask_start..t.mask_start + len * w];
            let eps_fin = &arena.eps_fin[t.eps_start..];
            let offsets = &arena.sim.offsets()[t.off_start..];
            let outs = &arena.sim.outs()[t.outs_start..];
            // Early stopping (Sec. V-C): while the prefix lacks the pivot,
            // nothing past the sequence's last pivot-producing position can
            // help it, and at that position only the pivot itself can.
            let stop = if has_pivot {
                u32::MAX
            } else {
                t.last_pivot_pos
            };
            walk.stack.clear();
            while idx < node.len() && p_seq(node[idx]) == s {
                let (i0, q0) = (p_pos(node[idx]), p_state(node[idx]));
                if i0 <= stop
                    && ix.can_output(q0 as usize)
                    && walk.mark(i0 as usize * qn + q0 as usize)
                {
                    walk.stack.push((i0, q0));
                }
                idx += 1;
            }
            while let Some((i, q)) = walk.stack.pop() {
                let iu = i as usize;
                if iu == len {
                    continue;
                }
                let row = &mask[iu * w..(iu + 1) * w];
                for tr in ix.state(q as usize) {
                    // Match + target-aliveness in one precomputed bit.
                    if row[tr.word as usize] & tr.mask == 0 {
                        continue;
                    }
                    if tr.label < 0 {
                        if iu + 1 < len
                            && i < stop
                            && ix.can_output(tr.to as usize)
                            && walk.mark((iu + 1) * qn + tr.to as usize)
                        {
                            walk.stack.push((i + 1, tr.to));
                        }
                        continue;
                    }
                    let set = iu * l + tr.label as usize;
                    let mut items = &outs[offsets[set] as usize..offsets[set + 1] as usize];
                    // The partition's item bound cuts the sorted output
                    // set to a prefix.
                    while let [rest @ .., last] = items {
                        if *last <= bound {
                            break;
                        }
                        items = rest;
                    }
                    if i >= stop || (prune_dead && !ix.can_output(tr.to as usize)) {
                        match items.iter().find(|&&w| w == pivot) {
                            Some(k) => items = std::slice::from_ref(k),
                            None => continue,
                        }
                    }
                    if items.is_empty() {
                        continue;
                    }
                    let target = (iu + 1) * qn + tr.to as usize;
                    let eps = get_bit(eps_fin, target);
                    if dense {
                        for &item in items {
                            d.raw.push(posting(item, s, i + 1, tr.to, eps));
                            let a = &mut stats.acc[item as usize];
                            if a.count == 0 {
                                stats.items.push(item);
                            }
                            a.count += 1;
                            if a.last_seq != s {
                                a.last_seq = s;
                                a.support += t.weight;
                            }
                            if eps && a.emit_last_seq != s {
                                a.emit_last_seq = s;
                                a.emit_support += t.weight;
                            }
                        }
                    } else {
                        for &item in items {
                            d.raw.push(posting(item, s, i + 1, tr.to, eps));
                        }
                    }
                }
            }
            walk.clear();
        }
        d.grouped.clear();
        d.runs.clear();
        if dense {
            // Linear stable scatter: frequent items only, ascending.
            stats.items.sort_unstable();
            let mut pos = 0usize;
            for &item in &stats.items {
                let a = &mut stats.acc[item as usize];
                if a.support >= sigma {
                    let len = a.count as usize;
                    d.runs.push((item, pos..pos + len, a.emit_support));
                    a.count = pos as u32; // becomes the write cursor
                    pos += len;
                }
            }
            d.grouped.resize(pos, 0);
            for &p in &d.raw {
                let a = &mut stats.acc[p_item(p) as usize];
                if a.support >= sigma {
                    d.grouped[a.count as usize] = p;
                    a.count += 1;
                }
            }
            for &item in &stats.items {
                stats.acc[item as usize] = FRESH_ACC;
            }
            stats.items.clear();
        } else {
            // Sparse fallback: order and deduplicate, then scan for runs.
            d.raw.sort_unstable();
            d.raw.dedup();
            std::mem::swap(&mut d.raw, &mut d.grouped);
            let pairs = &d.grouped;
            let mut start = 0;
            while start < pairs.len() {
                let w = p_item(pairs[start]);
                let mut end = start;
                while end < pairs.len() && p_item(pairs[end]) == w {
                    end += 1;
                }
                let (support, emit) = Self::run_supports(views.metas, &pairs[start..end]);
                if support >= sigma {
                    d.runs.push((w, start..end, emit));
                }
                start = end;
            }
        }
    }

    /// Expands one search-tree node; `support` is the node's precomputed
    /// ε-completion (emission) support. Returns `false` iff the sink
    /// stopped the traversal.
    ///
    /// Under a scheduler (`ctx` given), a shallow node (task-relative
    /// `depth < SPLIT_DEPTH`) whose worker has thieves to feed
    /// ([`TaskCtx::wants_tasks`]) splits all child runs after the first off
    /// as stealable [`MineTask`]s instead of recursing into them. The split
    /// children are pushed *before* the inline descent into the first
    /// child, so thieves can start on them immediately.
    #[allow(clippy::too_many_arguments)]
    fn expand(
        &self,
        views: Views<'_>,
        node: &[Posting],
        depth: usize,
        has_pivot: bool,
        support: u64,
        prefix: &mut Sequence,
        bufs: &mut ExpandBufs,
        ctx: Option<&TaskCtx<'_, MineTask>>,
        sink: &mut dyn FnMut(Sequence, u64) -> bool,
    ) -> bool {
        // Emit the prefix if enough sequences can complete it with ε output.
        if !prefix.is_empty()
            && support >= self.config.sigma
            && has_pivot
            && !sink(prefix.clone(), support)
        {
            return false;
        }

        #[cfg(test)]
        {
            bufs.nodes += 1;
        }
        while bufs.depths.len() <= depth {
            bufs.depths.push(DepthBufs::default());
        }
        let mut d = std::mem::take(&mut bufs.depths[depth]);
        self.collect_children(
            views,
            node,
            has_pivot,
            &mut bufs.walk,
            &mut bufs.stats,
            &mut d,
        );

        // Always keep the first child inline (splitting everything would
        // leave this worker with nothing but its own bookkeeping).
        let inline_upto = match ctx {
            Some(ctx)
                if depth < SPLIT_DEPTH && d.runs.len() > 1 && ctx.wants_tasks(SHARE_LIMIT) =>
            {
                let split = d.runs[1..].iter().map(|(w, range, emit)| {
                    let mut task_prefix = Sequence::with_capacity(prefix.len() + 1);
                    task_prefix.extend_from_slice(prefix);
                    task_prefix.push(*w);
                    MineTask {
                        prefix: task_prefix,
                        postings: d.grouped[range.clone()].to_vec(),
                        has_pivot: has_pivot || Some(*w) == self.config.pivot,
                        emit: *emit,
                    }
                });
                ctx.spawn_all(split.collect());
                1
            }
            _ => d.runs.len(),
        };

        // Recurse per frequent child run (ascending item order); runs below
        // the prefix-support bound σ were already dropped while grouping.
        let mut keep_going = true;
        for (w, range, emit) in &d.runs[..inline_upto] {
            prefix.push(*w);
            let child_pivot = has_pivot || Some(*w) == self.config.pivot;
            keep_going = self.expand(
                views,
                &d.grouped[range.clone()],
                depth + 1,
                child_pivot,
                *emit,
                prefix,
                bufs,
                ctx,
                sink,
            );
            prefix.pop();
            if !keep_going {
                break;
            }
        }
        bufs.depths[depth] = d;
        keep_going
    }
}

/// Sequential DESQ-DFS over a whole database (each sequence has weight 1);
/// the tests' shorthand for the [`LocalMiner`] eager path.
#[cfg(test)]
pub(crate) fn desq_dfs_impl(
    db: &SequenceDb,
    fst: &Fst,
    dict: &Dictionary,
    sigma: u64,
) -> Vec<(Sequence, u64)> {
    let inputs: Vec<WeightedInput<'_>> = db.sequences.iter().map(|s| (s.as_slice(), 1)).collect();
    LocalMiner::new(fst, dict, MinerConfig::sequential(sigma))
        .mine(&inputs)
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::mining::{Miner, MiningContext};
    use desq_core::toy;

    fn unit_inputs(db: &SequenceDb) -> Vec<WeightedInput<'_>> {
        db.sequences.iter().map(|s| (s.as_slice(), 1)).collect()
    }

    #[test]
    fn matches_paper_result_on_toy() {
        let fx = toy::fixture();
        let out = desq_dfs_impl(&fx.db, &fx.fst, &fx.dict, 2);
        let rendered: Vec<(String, u64)> =
            out.iter().map(|(s, f)| (fx.dict.render(s), *f)).collect();
        assert_eq!(
            rendered,
            vec![
                ("a1 b".to_string(), 3),
                ("a1 A b".to_string(), 2),
                ("a1 a1 b".to_string(), 2),
            ]
        );
    }

    #[test]
    fn agrees_with_desq_count_across_sigmas() {
        let fx = toy::fixture();
        for sigma in 1..=5 {
            let dfs = desq_dfs_impl(&fx.db, &fx.fst, &fx.dict, sigma);
            let ctx = MiningContext::sequential(&fx.db, &fx.dict, sigma).with_fst(&fx.fst);
            let cnt = crate::algo::DesqCount.mine(&ctx).unwrap();
            assert_eq!(dfs, cnt.patterns, "sigma = {sigma}");
        }
    }

    #[test]
    fn every_worker_count_mines_the_sequential_result() {
        // One program at every worker count: eager and streaming, all equal
        // the sequential set whichever worker ends up mining which subtree.
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        for sigma in 1..=4 {
            let sequential = desq_dfs_impl(&fx.db, &fx.fst, &fx.dict, sigma);
            let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(sigma));
            for workers in 1..=3 {
                let at = format!("sigma={sigma} workers={workers}");
                let (eager, stats) = miner.mine_with_workers(&inputs, workers, None).unwrap();
                assert_eq!(eager, sequential, "{at}");
                assert_eq!(stats.len(), workers, "{at}");
                let tasks: u64 = stats.iter().map(|s| s.tasks).sum();
                assert!(tasks >= 1, "the root task always runs: {at}");
                let mut streamed = Vec::new();
                let completed = miner
                    .mine_each_with_workers(&inputs, workers, None, &mut |s, f| {
                        streamed.push((s, f));
                        true
                    })
                    .unwrap();
                assert!(completed, "{at}");
                if workers == 1 {
                    // Nobody to split for: one task, and its stream is the
                    // pre-order traversal — ascending children below every
                    // prefix, i.e. the sorted order.
                    assert_eq!((tasks, stats[0].steals), (1, 0), "{at}");
                    assert_eq!(streamed, sequential, "{at}");
                }
                assert_eq!(crate::sort_patterns(streamed), sequential, "{at}");
            }
        }
    }

    #[test]
    fn mine_each_streams_in_discovery_order_and_stops_on_demand() {
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(2));
        // Full stream matches the eager result as a set.
        let mut streamed = Vec::new();
        let completed = miner
            .mine_each_with_workers(&inputs, 1, None, &mut |s, f| {
                streamed.push((s, f));
                true
            })
            .unwrap();
        assert!(completed);
        assert_eq!(
            crate::sort_patterns(streamed.clone()),
            miner.mine(&inputs).unwrap()
        );
        // Early stop: the sink sees exactly one pattern.
        let mut n = 0;
        let completed = miner
            .mine_each_with_workers(&inputs, 1, None, &mut |_, _| {
                n += 1;
                false
            })
            .unwrap();
        assert!(!completed);
        assert_eq!(n, 1);
    }

    #[test]
    fn mine_each_early_stop_works_under_sharded_roots() {
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1));
        for workers in 2..=4 {
            // Full parallel stream equals the eager result as a set.
            let mut streamed = Vec::new();
            let completed = miner
                .mine_each_with_workers(&inputs, workers, None, &mut |s, f| {
                    streamed.push((s, f));
                    true
                })
                .unwrap();
            assert!(completed, "workers = {workers}");
            assert_eq!(
                crate::sort_patterns(streamed),
                miner.mine(&inputs).unwrap(),
                "workers = {workers}"
            );
            // A cancelling sink sees exactly one pattern and the stream
            // reports the early stop.
            let mut n = 0;
            let completed = miner
                .mine_each_with_workers(&inputs, workers, None, &mut |_, _| {
                    n += 1;
                    false
                })
                .unwrap();
            assert!(!completed, "workers = {workers}");
            assert_eq!(n, 1, "workers = {workers}");
        }
    }

    #[test]
    fn a_panicking_sink_fails_the_stream_as_worker_panicked() {
        // The workers call the sink themselves, under the scheduler's
        // catch_unwind: its panic is contained and typed at every worker
        // count, and the run still ends.
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1));
        for workers in [1, 2] {
            let mut seen = 0;
            let err = miner
                .mine_each_with_workers(&inputs, workers, None, &mut |_, _| {
                    seen += 1;
                    assert!(seen < 3, "the sink exploded on its third pattern");
                    true
                })
                .unwrap_err();
            assert!(
                matches!(&err, desq_core::Error::WorkerPanicked(m) if m.contains("third pattern")),
                "workers={workers}: {err}"
            );
        }
    }

    #[test]
    fn pivot_restricted_mining_matches_fig6() {
        // Partition P_a1 of the paper's Fig. 6 yields a1 a1 b, a1 A b, a1 b.
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::for_pivot(2, fx.a1, false));
        let out = miner.mine(&inputs).unwrap();
        let rendered: Vec<(String, u64)> =
            out.iter().map(|(s, f)| (fx.dict.render(s), *f)).collect();
        assert_eq!(
            rendered,
            vec![
                ("a1 b".to_string(), 3),
                ("a1 A b".to_string(), 2),
                ("a1 a1 b".to_string(), 2),
            ]
        );
    }

    #[test]
    fn pivot_partition_c_is_empty_at_sigma2() {
        // All candidates with pivot c occur only in T1, so nothing is
        // frequent at σ = 2 in partition P_c (paper Fig. 3: P_c mines
        // nothing; a1 b would be found but has pivot a1 < c and must not be
        // emitted here).
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        for early_stop in [false, true] {
            let miner = LocalMiner::new(
                &fx.fst,
                &fx.dict,
                MinerConfig::for_pivot(2, fx.c, early_stop),
            );
            assert!(
                miner.mine(&inputs).unwrap().is_empty(),
                "early_stop = {early_stop}"
            );
        }
    }

    #[test]
    fn early_stopping_does_not_change_results() {
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        for sigma in 1..=3 {
            for k in 1..=fx.dict.max_fid() {
                let plain =
                    LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::for_pivot(sigma, k, false))
                        .mine(&inputs)
                        .unwrap();
                let stopped =
                    LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::for_pivot(sigma, k, true))
                        .mine(&inputs)
                        .unwrap();
                assert_eq!(plain, stopped, "sigma={sigma} k={k}");
            }
        }
    }

    #[test]
    fn union_of_pivot_partitions_equals_sequential_result() {
        // Item-based partitioning correctness: every frequent sequence is
        // found in exactly one partition.
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        for sigma in 1..=4 {
            let mut union: Vec<(Sequence, u64)> = Vec::new();
            for k in 1..=fx.dict.max_fid() {
                let part =
                    LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::for_pivot(sigma, k, true))
                        .mine(&inputs)
                        .unwrap();
                union.extend(part);
            }
            union.sort();
            let seq = desq_dfs_impl(&fx.db, &fx.fst, &fx.dict, sigma);
            assert_eq!(union, seq, "sigma = {sigma}");
        }
    }

    #[test]
    fn weights_scale_support() {
        // Support is the summed weight of the supporting sequences, while
        // the frequent-item cut stays the dictionary's at σ = 2 (`e` and
        // `a2` infrequent). T1 = a1 c d c b (weight 1) supports only
        // patterns of its own and falls below σ; T2 (3) and T5 (2) carry
        // the paper's three patterns; T3 (4) matches nothing; T4 = a2 d b
        // (5) would support `a2 b` and `a2 d b` at 5, but `a2` is cut.
        let fx = toy::fixture();
        let weights = [1, 3, 4, 5, 2];
        let inputs: Vec<WeightedInput<'_>> = fx
            .db
            .sequences
            .iter()
            .zip(weights)
            .map(|(s, w)| (s.as_slice(), w))
            .collect();
        let out = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(2))
            .mine(&inputs)
            .unwrap();
        let rendered: Vec<(String, u64)> =
            out.iter().map(|(s, f)| (fx.dict.render(s), *f)).collect();
        assert_eq!(
            rendered,
            vec![
                ("a1 b".to_string(), 6),
                ("a1 A b".to_string(), 5),
                ("a1 a1 b".to_string(), 5),
            ]
        );
    }

    #[test]
    fn sparse_grouping_fallback_matches_dense() {
        // Huge frequent vocabularies group children by sorting instead of
        // dense per-item accumulators; both paths must agree — sequential,
        // parallel, and under pivot restrictions.
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        for sigma in 1..=3 {
            let dense = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(sigma));
            let sparse = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(sigma))
                .with_sparse_grouping();
            assert_eq!(
                dense.mine(&inputs).unwrap(),
                sparse.mine(&inputs).unwrap(),
                "sigma={sigma}"
            );
            assert_eq!(
                sparse.mine_with_workers(&inputs, 3, None).unwrap().0,
                dense.mine(&inputs).unwrap(),
                "sigma={sigma} parallel"
            );
            for k in 1..=fx.dict.max_fid() {
                for early_stop in [false, true] {
                    let cfg = MinerConfig::for_pivot(sigma, k, early_stop);
                    let dense = LocalMiner::new(&fx.fst, &fx.dict, cfg)
                        .mine(&inputs)
                        .unwrap();
                    let sparse = LocalMiner::new(&fx.fst, &fx.dict, cfg)
                        .with_sparse_grouping()
                        .mine(&inputs)
                        .unwrap();
                    assert_eq!(dense, sparse, "sigma={sigma} k={k} stop={early_stop}");
                }
            }
        }
    }

    /// The toy database appended to a fresh arena by `builder`, as
    /// weight-`weight` picks.
    fn toy_arena(
        fx: &toy::Toy,
        builder: &LocalMiner<'_>,
        weight: u64,
    ) -> (SeqTables, Vec<(u32, u64)>) {
        let mut tables = SeqTables::default();
        let mut scratch = MinerScratch::default();
        let picks = fx
            .db
            .sequences
            .iter()
            .filter_map(|s| Some((builder.append_tables(s, &mut tables, &mut scratch)?, weight)))
            .collect();
        (tables, picks)
    }

    #[test]
    fn arena_tables_mine_like_from_scratch_across_pivot_configs() {
        // Tables are pivot-independent: appended once — by a miner
        // configured for another pivot and a looser σ — and mined under
        // every pivot configuration, with doubled weights, at every σ from
        // 1 (all items frequent) to 6 (none), they must match the
        // from-scratch miner.
        let fx = toy::fixture();
        let builder = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::for_pivot(1, fx.b, true));
        let (tables, picks) = toy_arena(&fx, &builder, 2);
        // T3 is rejected and gets no table.
        assert_eq!(picks.len(), fx.db.len() - 1);
        let inputs: Vec<WeightedInput<'_>> =
            fx.db.sequences.iter().map(|s| (s.as_slice(), 2)).collect();
        let mut scratch = MinerScratch::default();
        for sigma in 1..=6 {
            for k in 1..=fx.dict.max_fid() {
                for early_stop in [false, true] {
                    let cfg = MinerConfig::for_pivot(sigma, k, early_stop);
                    let miner = LocalMiner::new(&fx.fst, &fx.dict, cfg);
                    let mut mined = Vec::new();
                    miner.mine_picks(&tables, &picks, &mut scratch, &mut |p, f| {
                        mined.push((p, f))
                    });
                    assert_eq!(
                        crate::sort_patterns(mined),
                        miner.mine(&inputs).unwrap(),
                        "sigma={sigma} k={k} stop={early_stop}"
                    );
                }
            }
        }
    }

    #[test]
    fn outputs_above_the_item_bound_stay_out_of_the_dense_accumulators() {
        // The arena holds every frequent output; a pivot partition sizes
        // its dense accumulators by its own item bound, so the DFS must cut
        // each output slice before indexing them.
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        let builder = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1));
        let (tables, picks) = toy_arena(&fx, &builder, 1);
        for k in 1..fx.dict.max_fid() {
            assert!(tables.sim.outs().iter().any(|&w| w > k), "k={k}");
            let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::for_pivot(1, k, false));
            let mut scratch = MinerScratch::default();
            let mut mined = Vec::new();
            miner.mine_picks(&tables, &picks, &mut scratch, &mut |p, f| {
                mined.push((p, f))
            });
            assert!(scratch.bufs.stats.dense, "k={k}");
            assert_eq!(scratch.bufs.stats.acc.len(), k as usize + 1, "k={k}");
            assert_eq!(
                crate::sort_patterns(mined),
                miner.mine(&inputs).unwrap(),
                "k={k}"
            );
        }
    }

    #[test]
    fn early_stopping_prunes_pivot_dead_children_on_n5() {
        // N5 captures one item per pattern and outputs nothing after it, so
        // every output step lands in a state with no output left: under
        // early stopping a partition expands its root and at most its
        // pivot child. Without it the same partitions expand every frequent
        // item below the pivot, and both searches mine the same patterns.
        let (dict, db) = desq_datagen::nyt_like(&desq_datagen::NytConfig::new(2_000));
        let n5 = desq_core::PatEx::parse("[(.^). .]|[. (.^).]|[. .(.^)]").unwrap();
        let fst = Fst::compile(&n5.unanchored(), &dict).unwrap();
        let sigma = 10;
        let last = dict.last_frequent(sigma);
        let builder = LocalMiner::new(&fst, &dict, MinerConfig::sequential(sigma));
        let (mut tables, mut scratch) = (SeqTables::default(), MinerScratch::default());
        let picks: Vec<(u32, u64)> = db
            .sequences
            .iter()
            .filter_map(|s| Some((builder.append_tables(s, &mut tables, &mut scratch)?, 1)))
            .collect();
        let mine = |early_stop| {
            let (mut scratch, mut mined) = (MinerScratch::default(), Vec::new());
            for pivot in 1..=last {
                let cfg = MinerConfig::for_pivot(sigma, pivot, early_stop);
                LocalMiner::with_index(&fst, &dict, cfg, builder.index.get()).mine_picks(
                    &tables,
                    &picks,
                    &mut scratch,
                    &mut |p, f| mined.push((p, f)),
                );
            }
            (crate::sort_patterns(mined), scratch.bufs.nodes)
        };
        let (plain, plain_nodes) = mine(false);
        let (pruned, pruned_nodes) = mine(true);
        let sequential = desq_dfs_impl(&db, &fst, &dict, sigma);
        assert!(!sequential.is_empty());
        assert_eq!(plain, sequential);
        assert_eq!(pruned, sequential);
        assert!(
            pruned_nodes <= 2 * last as usize,
            "{pruned_nodes} nodes over {last} partitions"
        );
        assert!(
            pruned_nodes < plain_nodes,
            "{pruned_nodes} vs {plain_nodes}"
        );
    }

    #[test]
    fn a_rejected_sequence_leaves_every_arena_at_its_input_length() {
        let fx = toy::fixture();
        let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1));
        let mut tables = SeqTables::default();
        let mut scratch = MinerScratch::default();
        miner.append_tables(&fx.db.sequences[0], &mut tables, &mut scratch);
        let lens = |t: &SeqTables| {
            let sim = &t.sim;
            (
                sim.mask().len(),
                t.eps_fin.len(),
                sim.offsets().len(),
                sim.outs().len(),
            )
        };
        let before = lens(&tables);
        assert!(before.0 > 0 && before.1 > 0 && before.2 > 0 && before.3 > 0);
        // T3 = c d c b has no accepting run (the front-end stops after the
        // forward pass: `fst::sim`'s own tests check that no aliveness table
        // is built).
        let t3 = miner.append_tables(&fx.db.sequences[2], &mut tables, &mut scratch);
        assert_eq!(t3, None);
        assert_eq!(lens(&tables), before);
        assert_eq!(tables.len(), 1);
    }

    #[test]
    fn one_scratch_across_fsts_and_dictionaries_builds_what_a_fresh_one_does() {
        use desq_core::{DictionaryBuilder, PatEx};
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
        let mut shared = MinerScratch::default();
        for (fst, dict, db) in jobs {
            let miner = LocalMiner::new(fst, dict, MinerConfig::sequential(1));
            let (mut a, mut b) = (SeqTables::default(), SeqTables::default());
            let mut fresh = MinerScratch::default();
            for seq in &db.sequences {
                assert_eq!(
                    miner.append_tables(seq, &mut a, &mut shared),
                    miner.append_tables(seq, &mut b, &mut fresh)
                );
            }
            assert_eq!(a.sim, b.sim);
            assert_eq!(a.eps_fin, b.eps_fin);
        }
    }

    #[test]
    fn tables_hold_only_accepted_sequences() {
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(2));
        let tables = miner.prepare_tables(&inputs, 2).unwrap();
        // T3 = c d c b has no accepting run and gets no table; every
        // accepted sequence carries precomputed match bits.
        assert_eq!(tables.len(), fx.db.len() - 1);
        assert!((0..tables.len()).all(|s| tables.num_match_bits(s) > 0));
        // Parallel and sequential table building agree (the parallel path
        // rebases per-chunk arenas onto one set).
        let seq_tables = miner.prepare_tables(&inputs, 1).unwrap();
        assert_eq!(seq_tables.len(), tables.len());
        for s in 0..tables.len() {
            assert_eq!(tables.num_match_bits(s), seq_tables.num_match_bits(s));
        }
    }

    #[test]
    fn empty_input_yields_nothing() {
        let fx = toy::fixture();
        let out = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1))
            .mine(&[])
            .unwrap();
        assert!(out.is_empty());
        let (out, timings) = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1))
            .mine_with_workers(&[], 4, None)
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(timings.len(), 4);
    }
}
