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
//! `(position, state)` grid, and one output-set id per
//! `(position, output label)` pair. An output set depends only on its
//! label and the position's input item, so the simulation front-end
//! materializes each distinct set once, sorted and uncut, in the tables'
//! output-set directory, and the DFS cuts it at the node's item bound as
//! it reads it. The DFS walks a compact per-state
//! transition index of the FST (L1-resident) and resolves matches,
//! aliveness and outputs as bit tests and directory slices: no ancestor
//! binary searches, no output re-materialization, no dictionary access. A
//! projected database is a run of 8-byte postings (input index,
//! `(position, state)` cell) in a per-depth reusable buffer instead of a
//! per-node hash map; the run's item is stored once, in the depth's run
//! directory. Only postings that can still grow the prefix are stored: a
//! step to the sequence end, or into a state with no output left, only
//! completes it, so it counts towards the child's supports and is never
//! written. The live child postings of the node being expanded go to one
//! raw buffer per worker, which every depth reuses — one record per
//! output step, holding its set id, not one per output item — and the
//! node scatters them into its per-item runs before it recurses. Every
//! node groups the same way: per-item accumulators, indexed by item up to
//! the miner's item bound, count each child's postings and weighted
//! supports as the walk pushes them, so the scatter places a frequent
//! child's postings without sorting them. The ε-closure walk deduplicates
//! cells in a bitset.
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
//! [`LocalMiner::mine_picks`] mines the partitions of D-SEQ (Sec. V-C)
//! one reduce bucket at a time: every input ([`Pick`]) carries the
//! bucket's keys it was shipped to, and one search tree serves all of the
//! bucket's pivot partitions. Only patterns whose pivot (largest item) the
//! caller's predicate accepts are emitted. An input outputs no item above
//! its largest key (the *cap*), and — the bucket form of *early stopping*
//! — while the prefix's largest item lies below its smallest key, it reads
//! nothing past the last position that outputs one of its keys. Both are
//! applied while walking, so the tables themselves are pivot-independent
//! and shared across buckets (see [`SeqTables`]). A single-pivot
//! partition is the one-key case.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use desq_core::fst::sim::{get_bit, ones, set_bit};
use desq_core::fst::{RunScratch, RunWalker, SimTables};
use desq_core::mining::{CancelToken, PatternSink};
use desq_core::sched::{self, TaskCtx, WorkerStats};
use desq_core::{Dictionary, Fst, ItemId, Result, Sequence};

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

/// Configuration of a [`LocalMiner`]: σ. The frequent-item cut is not
/// configured — it is the dictionary's `last_frequent(σ)`, which counts
/// the global database, so a reducer mining weighted aggregates at the
/// global σ gets the global cut. D-SEQ's restrictions come with each
/// [`Pick`].
#[derive(Debug, Clone, Copy)]
pub struct MinerConfig {
    /// Minimum support threshold σ; also fixes the frequent-item cut.
    pub sigma: u64,
}

impl MinerConfig {
    /// Mining at threshold `sigma`.
    pub fn sequential(sigma: u64) -> MinerConfig {
        MinerConfig { sigma }
    }
}

/// One weighted input sequence, borrowed from its owner (the database, or a
/// reducer's decoded aggregate) — local mining never copies item data.
pub type WeightedInput<'s> = (&'s [ItemId], u64);

/// One input of [`LocalMiner::mine_picks`]: a table of the arena, its
/// weight, and the keys of the reduce bucket it was shipped to — the
/// pivots of its sequence that the bucket owns, `min_key..=max_key`
/// spanning them. Only a pattern with one of those pivots can count it
/// towards an emitted support, so the miner never extends a prefix of it
/// by an item above `max_key`, and while the prefix's largest item is
/// below `min_key` it reads nothing past `stop`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pick {
    /// Index of the table in the [`SeqTables`] arena.
    pub table: u32,
    /// Weight of the input sequence (its multiplicity in the bucket).
    pub weight: u64,
    /// The smallest of the input's keys.
    pub min_key: ItemId,
    /// The largest of the input's keys: the input's cap.
    pub max_key: ItemId,
    /// The last position that outputs one of the input's keys
    /// ([`LocalMiner::key_stop`]), or `u32::MAX` for no early stopping.
    pub stop: u32,
}

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
    /// The prefix's largest item (0 for the empty prefix).
    top: ItemId,
    /// The node's precomputed ε-completion (emission) support.
    emit: u64,
}

/// One projected-database posting, packed `input index ‖ cell` (32 + 32
/// bits). The cell is the snapshot's `(last-read position i, state q)`
/// coordinate `i · |Q| + q` — the coordinate of the visited bitset and of
/// `eps_fin`, so the walk marks a seed without a multiply and recovers
/// `(i, q)` with one div/mod. Only *live* snapshots are stored: one at the
/// sequence end, or in a state that can produce no further output, only
/// completes its prefix, so its step just counts towards the supports. A
/// run's extension item is its entry in [`DepthBufs::runs`].
/// [`fits_widths`] bounds every packed field when the tables are built.
type Posting = u64;

const _: () = assert!(std::mem::size_of::<Posting>() == 8);

#[inline]
fn posting(s: u32, cell: u32) -> Posting {
    (s as u64) << 32 | cell as u64
}

#[inline]
fn p_seq(p: Posting) -> u32 {
    (p >> 32) as u32
}

#[inline]
fn p_cell(p: Posting) -> u32 {
    p as u32
}

/// Whether a sequence of `len` items, simulated over an FST with `states`
/// states, fits the widths the DFS packs it into as input `index` with
/// the three arena `starts` of [`SeqMeta`]: the index stays below
/// `u32::MAX` (the accumulators' "no sequence yet" mark), every cell
/// below 2³¹ — `(len + 1) · states` of them — and every arena start
/// within a `u32`.
fn fits_widths(index: usize, len: usize, states: usize, starts: [usize; 3]) -> bool {
    index < u32::MAX as usize
        && (len as u128 + 1) * (states as u128) < 1 << 31
        && starts.iter().all(|&start| start <= u32::MAX as usize)
}

/// The typed error of a sequence [`fits_widths`] rejects.
fn width_error(index: usize, len: usize, states: usize) -> desq_core::Error {
    desq_core::Error::Invalid(format!(
        "DESQ-DFS cannot index input {index}: a sequence of {len} items over \
         {states} FST states exceeds the packed posting or arena widths"
    ))
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
/// space) produces the masks, the id row and the output-set directory;
/// this module adds the third. Per sequence:
///
/// * *match masks* — bit `δ` of position `i`'s mask is set iff FST
///   transition `δ` leaves a forward-reachable state, matches the input
///   item at `i` *and* its target lies on an accepting run (the
///   position–state grid of Sec. V-A, folded into the match bits — one bit
///   test replaces the ancestor binary search plus the grid lookup). The
///   DFS only ever follows set bits from the root coordinate, which is the
///   front-end's [reachable-sources contract](desq_core::fst::sim);
/// * the *id row* ([`SimTables::ids`]) — for every `(position, output
///   label)` pair, the id of its output set in the tables' output-set
///   directory (0 = empty). Each distinct set — sorted ascending, uncut —
///   is stored once per table set, not once per occurrence;
/// * `eps_fin` — bitset memoizing "the rest of the sequence can be consumed
///   producing only ε, ending in a final state" (the emission test), over
///   the alive coordinates.
///
/// All of that is **pivot-independent**: the restrictions of a D-SEQ
/// bucket (the cap, early stopping) are applied by the DFS while it walks
/// — the cap is a prefix cut of each sorted output set — so one table
/// serves every bucket its sequence is shuffled to. The σ cut is a prefix
/// cut too, so any miner over the same `(FST, dictionary)` pair can append
/// to or mine the tables, whatever its σ (mask bits and label numbers are
/// those of the FST's own [`Fst::index`]). The one key-dependent value is
/// a pick's early-stopping position: [`LocalMiner::key_stop`] derives it
/// from the id row (the last position where an alive transition outputs
/// one of the keys — no dictionary access), and
/// [`LocalMiner::mine_picks`] takes it, together with the weight and the
/// keys' span, from each [`Pick`].
///
/// All per-sequence data lives in **shared arenas** with one 24-byte
/// descriptor (`SeqMeta`, `u32` arena starts) per *accepted* sequence:
/// building tables for N inputs costs a constant number of allocations,
/// not 3·N. A sequence without an accepting run can never reach the root
/// projection, so it gets no descriptor and no arena space. D-SEQ keeps
/// one growing arena per reduce worker — its lifetime is the worker's, so
/// a sequence shipped to several buckets of that worker is simulated
/// once. A sequence whose table index, cells or arena starts
/// would overflow the packed widths (`fits_widths`), or whose new output
/// sets would overflow the directory's `u32` widths, fails the build with
/// [`desq_core::Error::Invalid`] and leaves the rows as they were.
#[derive(Default)]
pub struct SeqTables {
    metas: Vec<SeqMeta>,
    /// Mask rows and id rows of the accepted sequences, and their
    /// output-set directory.
    sim: SimTables,
    eps_fin: Vec<u64>,
}

/// Per-sequence descriptor into the [`SeqTables`] arenas. The DFS walks a
/// slice of these: the tables' own, or copies with the `weight` taken
/// from a [`Pick`] ([`LocalMiner::mine_picks`]).
#[derive(Clone, Copy)]
struct SeqMeta {
    weight: u64,
    mask_start: u32,
    eps_start: u32,
    ids_start: u32,
    len: u32,
}

const _: () = assert!(std::mem::size_of::<SeqMeta>() == 24);

/// A [`Pick`]'s restrictions as the DFS reads them: its smallest key, its
/// cap and its early-stopping position.
#[derive(Clone, Copy)]
struct Keys {
    min: ItemId,
    cap: ItemId,
    stop: u32,
}

/// An input without restrictions (eager mining): no cap below the item
/// bound, never a stop.
const UNRESTRICTED: Keys = Keys {
    min: 0,
    cap: ItemId::MAX,
    stop: u32::MAX,
};

/// What the DFS walks: the arenas plus one descriptor per accepted input
/// sequence (postings index into `metas`), each input's restrictions
/// (`keys`, parallel to `metas`; empty for eager mining) and the call's
/// item bound — no output above it, and the accumulators index up to it.
#[derive(Clone, Copy)]
struct Views<'a> {
    arena: &'a SeqTables,
    metas: &'a [SeqMeta],
    keys: &'a [Keys],
    bound: ItemId,
}

impl Views<'_> {
    /// Input `s`'s restrictions.
    #[inline]
    fn keys(&self, s: u32) -> Keys {
        self.keys.get(s as usize).copied().unwrap_or(UNRESTRICTED)
    }
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
        let end = self
            .metas
            .get(s + 1)
            .map_or(mask.len(), |m| m.mask_start as usize);
        mask[self.metas[s].mask_start as usize..end]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// The tables' own descriptors as unrestricted DFS views under the
    /// item bound `bound`.
    fn views(&self, bound: ItemId) -> Views<'_> {
        Views {
            arena: self,
            metas: &self.metas,
            keys: &[],
            bound,
        }
    }

    /// The last position of sequence `m` (`l` output labels per position)
    /// whose output sets hold one of `keys` (ascending): one reverse scan
    /// of the id row, ending at the first set that does — each set cut at
    /// the largest key and read down to the smallest.
    fn last_key_pos(&self, m: &SeqMeta, l: usize, keys: &[ItemId]) -> Option<usize> {
        let (&lo, &hi) = (keys.first()?, keys.last()?);
        let ids = &self.sim.ids()[m.ids_start as usize..][..m.len as usize * l];
        let at = ids.iter().rposition(|&id| {
            let set = self.sim.set(id, hi).iter().rev();
            set.take_while(|&&w| w >= lo)
                .any(|w| keys.binary_search(w).is_ok())
        })?;
        Some(at / l)
    }

    /// The arenas' current lengths: where the next sequence's tables start.
    fn arena_lens(&self) -> [usize; 3] {
        [
            self.sim.mask().len(),
            self.eps_fin.len(),
            self.sim.ids().len(),
        ]
    }

    /// Appends another set's tables (a parallel build chunk, simulated over
    /// `states` FST states), rebasing the descriptors onto this set's
    /// arenas; [`SimTables::append`] re-interns the chunk's output sets
    /// into this set's directory. A rebased index or start past the packed
    /// widths, or an overflowing directory, fails typed.
    fn append(&mut self, other: SeqTables, states: usize) -> Result<()> {
        if other.is_empty() {
            return Ok(());
        }
        let base = self.arena_lens();
        for m in other.metas {
            let old = [m.mask_start, m.eps_start, m.ids_start];
            let starts = std::array::from_fn(|k| old[k] as usize + base[k]);
            let (index, len) = (self.metas.len(), m.len as usize);
            if !fits_widths(index, len, states, starts) {
                return Err(width_error(index, len, states));
            }
            let [mask, eps, ids] = starts;
            self.metas.push(SeqMeta {
                mask_start: mask as u32,
                eps_start: eps as u32,
                ids_start: ids as u32,
                ..m
            });
        }
        self.sim.append(&other.sim)?;
        self.eps_fin.extend_from_slice(&other.eps_fin);
        Ok(())
    }
}

/// Scratch for the ε-closure walk, reused across snapshots and nodes.
#[derive(Default)]
struct WalkBufs {
    /// Visited-coordinate bitset over `(i, q)` cells (`i · |Q| + q`) of
    /// the current sequence.
    visited: Vec<u64>,
    /// Cells set in `visited`, for O(|walk|) clearing.
    touched: Vec<u32>,
    /// DFS worklist of `(i, q)` coordinates.
    stack: Vec<(u32, u32)>,
}

impl WalkBufs {
    #[inline]
    fn mark(&mut self, cell: u32) -> bool {
        let fresh = !get_bit(&self.visited, cell as usize);
        if fresh {
            set_bit(&mut self.visited, cell as usize);
            self.touched.push(cell);
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

/// Per-depth node scratch: the frequent children's postings grouped into
/// per-item runs, and the run directory. They live while the node's
/// children are mined, so each depth keeps its own; the buffers persist
/// across sibling nodes of the same depth.
#[derive(Default)]
struct DepthBufs {
    grouped: Vec<Posting>,
    /// Per frequent child: item, its postings in `grouped`, and its
    /// ε-completion (emission) support.
    runs: Vec<(ItemId, std::ops::Range<usize>, u64)>,
}

/// The unordered live child postings of the node being expanded, as the
/// closure walk pushes them. Grouping consumes them before the node
/// recurses, so one instance per worker serves every depth.
#[derive(Default)]
struct RawChildren {
    /// One `set id ‖ cell` record per output step into a live cell; a
    /// step into a dead cell writes none. The scatter recovers the step's
    /// child items from the directory, cut at the input's cap as the walk
    /// cut them, so a step with many output items costs one record, not
    /// one per item.
    words: Vec<u64>,
    /// Per input sequence with child postings, its index and the end of
    /// its stretch of `words` (a node's raw records are counted in `u32`,
    /// like [`ItemAcc::count`]).
    segs: Vec<(u32, u32)>,
}

/// Per-item accumulator of one node expansion, packed so every output
/// step touches a single cache line: live posting count (reused as the
/// scatter cursor), the last counted input index for the prefix and
/// emission supports (`u32::MAX`: untouched), and the weighted supports
/// themselves, which dead steps count too.
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

/// Item-indexed accumulators that group every node's child postings in
/// linear time, plus the list of touched items (for O(|touched|) clearing
/// between nodes). `acc` covers items up to the call's item bound — the
/// frequent vocabulary, or the largest key of a bucket below it — at 32
/// bytes an entry, and only ever grows, so one worker's scratch serves
/// every bucket it mines ([`MinerScratch`]).
#[derive(Default)]
struct ItemStats {
    acc: Vec<ItemAcc>,
    items: Vec<ItemId>,
}

/// All reusable DFS scratch: walk buffers, item accumulators, the raw
/// child postings, and one [`DepthBufs`] per search-tree depth (projected
/// databases of siblings reuse the same allocations). Every buffer is back
/// in its rest state after a mining call, so one instance serves many calls
/// ([`MinerScratch`]) and only ever grows.
#[derive(Default)]
struct ExpandBufs {
    walk: WalkBufs,
    stats: ItemStats,
    raw: RawChildren,
    depths: Vec<DepthBufs>,
    /// Search-tree nodes visited so far.
    #[cfg(test)]
    nodes: usize,
    /// Dead postings (see [`Posting`]) found in the visited nodes.
    #[cfg(test)]
    dead: usize,
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
    keys: Vec<Keys>,
    roots: Vec<Posting>,
}

impl<'a> LocalMiner<'a> {
    /// Creates a miner for the given FST and dictionary. Cheap — the
    /// FST carries its transition index ([`Fst::index`]).
    pub fn new(fst: &'a Fst, dict: &'a Dictionary, config: MinerConfig) -> Self {
        LocalMiner {
            fst,
            dict,
            config,
            last_frequent: dict.last_frequent(config.sigma),
        }
    }

    /// Sizes DFS scratch for one mining call over `views`: the visited
    /// bitset for the longest sequence, the accumulators for items up to
    /// the item bound. Both only grow; entries past the bound stay fresh.
    fn fit_bufs(&self, bufs: &mut ExpandBufs, views: Views<'_>) {
        let max_len = views.metas.iter().map(|m| m.len as usize).max();
        let max_cells = max_len.map_or(0, |n| n + 1);
        let words = (max_cells * self.fst.num_states()).div_ceil(64).max(1);
        if bufs.walk.visited.len() < words {
            bufs.walk.visited.resize(words, 0);
        }
        let n = views.bound as usize + 1;
        if bufs.stats.acc.len() < n {
            bufs.stats.acc.resize(n, FRESH_ACC);
        }
    }

    /// Fresh DFS scratch sized for `views`.
    fn expand_bufs(&self, views: Views<'_>) -> ExpandBufs {
        let mut bufs = ExpandBufs::default();
        self.fit_bufs(&mut bufs, views);
        bufs
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
    /// later mines them. A sequence that would overflow the packed widths
    /// (see [`SeqTables`]) fails with [`desq_core::Error::Invalid`], also
    /// appending nothing.
    pub fn append_tables(
        &self,
        seq: &[ItemId],
        tables: &mut SeqTables,
        scratch: &mut MinerScratch,
    ) -> Result<Option<u32>> {
        let table = tables.len() as u32; // bounded by `prepare_into`'s check
        Ok(self
            .prepare_into(seq, 1, &mut scratch.prepare, tables)?
            .then_some(table))
    }

    /// Mines the weighted collection given as [`Pick`]s from `tables` as
    /// one search tree — a D-SEQ reduce bucket — streaming to `sink`, in
    /// DFS order (unsorted), every frequent pattern whose largest item
    /// `emits` accepts. Each pick caps its outputs at its largest key and,
    /// while the prefix's largest item is below its smallest key, reads
    /// nothing past its stop, which this call reads as given and never
    /// recomputes. The result is exact when every pick whose sequence
    /// generates an accepted pattern carries that pattern's pivot among its
    /// keys — what D-SEQ's shuffle guarantees.
    /// Single-threaded — the reduce tasks that share an arena parallelize
    /// across buckets, not within them. A pick's position in `picks` is its
    /// input index in the postings, so more than `u32::MAX` picks fail with
    /// [`desq_core::Error::Invalid`]. `cancel`, when given, is polled at
    /// every frequent pattern the search visits, emitted or not, so a
    /// bucket whose keys own few of them still stops promptly: a tripped
    /// token ends the mining with its stop reason.
    pub fn mine_picks(
        &self,
        tables: &SeqTables,
        picks: &[Pick],
        scratch: &mut MinerScratch,
        cancel: Option<&CancelToken>,
        emits: &dyn Fn(ItemId) -> bool,
        sink: &mut dyn FnMut(Sequence, u64),
    ) -> Result<()> {
        let MinerScratch {
            bufs,
            views,
            keys,
            roots,
            ..
        } = scratch;
        let states = self.fst.num_states();
        views.clear();
        keys.clear();
        let mut bound = 0;
        for (k, pick) in picks.iter().enumerate() {
            let m = tables.metas[pick.table as usize];
            // The table's own widths held when it was built; the index is
            // the pick's.
            if !fits_widths(k, m.len as usize, states, [0; 3]) {
                return Err(width_error(k, m.len as usize, states));
            }
            views.push(SeqMeta {
                weight: pick.weight,
                ..m
            });
            keys.push(Keys {
                min: pick.min_key,
                cap: pick.max_key,
                stop: pick.stop,
            });
            bound = bound.max(pick.max_key);
        }
        let views = Views {
            arena: tables,
            metas: views,
            keys,
            bound: bound.min(self.last_frequent),
        };
        roots.clear();
        roots.extend(self.root_postings(views));
        self.fit_bufs(bufs, views);
        let mut prefix = Sequence::new();
        let mut stopped = Ok(());
        self.expand(
            views,
            roots,
            0,
            0,
            0,
            &mut prefix,
            bufs,
            None,
            &mut |p, top, f| {
                stopped = cancel.map_or(Ok(()), CancelToken::checkpoint);
                if stopped.is_ok() && emits(top) {
                    sink(p.to_vec(), f);
                }
                stopped.is_ok()
            },
        );
        stopped
    }

    /// The early-stopping position of table `t` for `keys` (ascending) —
    /// a [`Pick::stop`]: the last position whose output sets hold one of
    /// them, or `None` if the table outputs none of them. One reverse scan
    /// of the table's id row, ending at the first such position.
    pub fn key_stop(&self, tables: &SeqTables, t: u32, keys: &[ItemId]) -> Option<u32> {
        let l = self.fst.index().num_labels();
        let at = tables.last_key_pos(&tables.metas[t as usize], l, keys)?;
        Some(at as u32)
    }

    /// The one DESQ-DFS driver: builds the tables, seeds the scheduler with
    /// the root node and runs [`expand`](Self::expand) on one worker per
    /// element of `sinks`, handing the sinks (and scratch) back in worker
    /// order. Every frequent pattern goes to `emit` with the discovering
    /// worker's sink, after a poll of `cancel` — per pattern, so a deadline
    /// is bounded even when the whole search is one task. An `emit`
    /// returning `false` raises `stop`: the run ends early, not in error. A
    /// tripped token and a panicking task (or `emit`) behave as
    /// [`sched::run_scheduler`] documents.
    #[allow(clippy::type_complexity)]
    fn drive<W: Send>(
        &self,
        inputs: &[WeightedInput<'_>],
        cancel: Option<&CancelToken>,
        sinks: Vec<W>,
        stop: &AtomicBool,
        emit: impl Fn(&mut W, Sequence, u64) -> bool + Sync,
    ) -> Result<(Vec<WorkerStats>, Vec<(W, ExpandBufs)>)> {
        let tables = self.prepare_tables_cancellable(inputs, sinks.len(), cancel)?;
        let views = tables.views(self.last_frequent);
        let root = MineTask {
            prefix: Sequence::new(),
            postings: self.root_postings(views).collect(),
            top: 0,
            emit: 0,
        };
        let states: Vec<_> = sinks
            .into_iter()
            .map(|sink| (sink, self.expand_bufs(views)))
            .collect();
        sched::run_scheduler(
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
                    task.top,
                    task.emit,
                    &mut prefix,
                    bufs,
                    Some(ctx),
                    &mut |p, _, f| {
                        cancel.is_none_or(|t| t.checkpoint().is_ok()) && emit(sink, p.to_vec(), f)
                    },
                );
                if !keep_going {
                    stop.store(true, Ordering::Relaxed);
                }
                Ok(())
            },
        )
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
        let mut buffers = buffers.into_iter().map(|(out, _)| out);
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
    /// pre-order over the search tree. Returns whether the mining ran to
    /// completion plus per-worker [`WorkerStats`]. A `false` from the sink
    /// stops the mining (no further sink calls happen) and makes this
    /// return `false` — the consumer's own early stop is not an error. A
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
    ) -> Result<(bool, Vec<WorkerStats>)> {
        let stop = AtomicBool::new(false);
        let sink = Mutex::new(sink);
        let (stats, _) = self.drive(
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
        Ok((!stop.load(Ordering::Relaxed), stats))
    }

    /// Builds the flat simulation tables ([`SeqTables`]) for every accepted
    /// input sequence, `workers` at a time. This is the preprocessing the DFS
    /// amortizes: afterwards expansion is pure bit tests and arena slices.
    /// A panic while building one sequence's tables is caught at the
    /// worker boundary and reported as [`desq_core::Error::WorkerPanicked`];
    /// an input sequence that would overflow the packed widths (see
    /// [`SeqTables`]) fails the build with [`desq_core::Error::Invalid`].
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
                    self.prepare_into(seq, w, scratch, &mut set)?;
                }
                Ok(set)
            },
        )?;
        let mut parts = parts.results.into_iter();
        let mut set = parts.next().unwrap_or_default();
        for part in parts {
            set.append(part, self.fst.num_states())?;
        }
        Ok(set)
    }

    /// Number of σ-frequent first-level children of the root node (the
    /// shard units of parallel mining). Exposed for the kernel benchmarks.
    #[doc(hidden)]
    pub fn first_level_count(&self, tables: &SeqTables) -> usize {
        let views = tables.views(self.last_frequent);
        let roots: Vec<Posting> = self.root_postings(views).collect();
        let mut bufs = self.expand_bufs(views);
        let mut first = DepthBufs::default();
        self.collect_children(views, &roots, 0, &mut bufs, &mut first);
        first.runs.len()
    }

    /// Builds one sequence's tables — the front-end's match masks and id
    /// row, built by [`RunWalker::build_tables_into`] straight into the
    /// set's shared arenas and directory, plus the ε-completion bitset (no
    /// per-sequence allocation). Returns whether the FST accepts the
    /// sequence; a rejected one leaves `set` as it was, and so does one
    /// that fails [`fits_widths`] — checked first, before any simulation —
    /// or the directory's widths.
    fn prepare_into(
        &self,
        seq: &[ItemId],
        weight: u64,
        scratch: &mut RunScratch,
        set: &mut SeqTables,
    ) -> Result<bool> {
        let (index, len, states) = (set.len(), seq.len(), self.fst.num_states());
        let starts = set.arena_lens();
        if !fits_widths(index, len, states, starts) {
            return Err(width_error(index, len, states));
        }
        let [mask_start, eps_start, ids_start] = starts;
        let meta = SeqMeta {
            weight,
            mask_start: mask_start as u32,
            eps_start: eps_start as u32,
            ids_start: ids_start as u32,
            len: len as u32,
        };
        let walker = RunWalker::unfiltered(self.fst, self.dict);
        if !walker.build_tables_into(seq, scratch, &mut set.sim)? {
            return Ok(false);
        }
        let mask = &set.sim.mask()[mask_start..];
        self.build_eps_fin(len, scratch, mask, &mut set.eps_fin);
        set.metas.push(meta);
        Ok(true)
    }

    /// The ε-completion DP of one accepted sequence, appended to `eps_buf`
    /// (bit `i · states + q`): `(i, q)` can consume the rest of the
    /// sequence producing only ε and end in a final state. Runs over the
    /// alive coordinates of the front-end's grid ([`RunScratch::alive`]) —
    /// every coordinate the DFS can query is alive, and so is each cell of
    /// an ε-completion path from it, so the pruned `mask` rows retain all of
    /// its transitions.
    fn build_eps_fin(&self, n: usize, grid: &RunScratch, mask: &[u64], eps_buf: &mut Vec<u64>) {
        let ix = self.fst.index();
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

    /// The root projection: every sequence at `(0, initial)`, whose cell is
    /// the initial state — unless that cell is dead (see [`Posting`]). Views
    /// hold fewer than `u32::MAX` sequences ([`fits_widths`]), so every
    /// index fits.
    fn root_postings<'v>(&self, views: Views<'v>) -> impl Iterator<Item = Posting> + 'v {
        let q0 = self.fst.initial();
        let live = self.fst.index().can_output(q0 as usize);
        let seqs = 0..views.metas.len() as u32;
        seqs.filter(move |&s| live && views.metas[s as usize].len > 0)
            .map(move |s| posting(s, q0))
    }

    /// ε-closure, child expansion and grouping of one node.
    ///
    /// Simulation resumes from the node's postings — one shared,
    /// bitset-deduplicated walk per input sequence, seeded with all of the
    /// sequence's postings (their closures overlap heavily, and the
    /// children are a set anyway). Every output-producing step yields its
    /// child items — its output set cut at the input's cap; a step into a
    /// live cell (see [`Posting`]) is recorded once, as a `set id ‖ cell`
    /// in `bufs.raw`, closing the sequence's segment, and one into a dead
    /// cell is not recorded at all. Per-item live posting counts and
    /// weighted prefix and emission supports of every step accumulate in
    /// `bufs.stats` on the fly, so grouping is a single stable scatter
    /// into `d.grouped` that cuts each record's set at its input's cap
    /// again: children
    /// below σ are dropped without ever being ordered, one without live
    /// postings gets an empty run, and only the distinct child items are
    /// sorted. `d.runs` then directs the recursion (ascending items, each
    /// run grouped by input index). Duplicate postings (same cell reached
    /// from several closure seeds) are tolerated — the next level's walk
    /// absorbs them, and the distinct-sequence support counting is
    /// insensitive to them.
    fn collect_children(
        &self,
        views: Views<'_>,
        node: &[Posting],
        top: ItemId,
        bufs: &mut ExpandBufs,
        d: &mut DepthBufs,
    ) {
        let ix = self.fst.index();
        let (qn, w, l) = (self.fst.num_states() as u32, ix.words(), ix.num_labels());
        let sigma = self.config.sigma;
        let (arena, sets) = (views.arena, &views.arena.sim);
        let ExpandBufs {
            walk, stats, raw, ..
        } = bufs;
        raw.words.clear();
        raw.segs.clear();
        let mut idx = 0;
        while idx < node.len() {
            let s = p_seq(node[idx]);
            let t = &views.metas[s as usize];
            let len = t.len as usize;
            let mask = &arena.sim.mask()[t.mask_start as usize..][..len * w];
            let eps_fin = &arena.eps_fin[t.eps_start as usize..];
            let set_ids = &arena.sim.ids()[t.ids_start as usize..][..len * l];
            // The cap: a pattern this input counts towards an emitted
            // support has one of its keys as pivot, so no item above them.
            // Early stopping (Sec. V-C): while the prefix's largest item is
            // below its keys, such a pattern still has a key to output, and
            // nothing past the last position that outputs one can help.
            let keys = views.keys(s);
            let cap = keys.cap.min(views.bound);
            let stop = if top < keys.min { keys.stop } else { u32::MAX };
            walk.stack.clear();
            while idx < node.len() && p_seq(node[idx]) == s {
                let cell = p_cell(node[idx]);
                // Live (see `Posting`): before the end, output still ahead.
                let (i0, q0) = (cell / qn, cell % qn);
                if i0 <= stop && walk.mark(cell) {
                    walk.stack.push((i0, q0));
                }
                idx += 1;
            }
            while let Some((i, q)) = walk.stack.pop() {
                let iu = i as usize;
                let row = &mask[iu * w..(iu + 1) * w];
                for tr in ix.state(q as usize) {
                    // Match + target-aliveness in one precomputed bit.
                    if row[tr.word as usize] & tr.mask == 0 {
                        continue;
                    }
                    // Below 2³¹ by `fits_widths`.
                    let target = (i + 1) * qn + tr.to;
                    if tr.label < 0 {
                        if iu + 1 < len
                            && i < stop
                            && ix.can_output(tr.to as usize)
                            && walk.mark(target)
                        {
                            walk.stack.push((i + 1, tr.to));
                        }
                        continue;
                    }
                    let id = set_ids[iu * l + tr.label as usize];
                    let items = sets.set(id, cap);
                    if items.is_empty() {
                        continue;
                    }
                    let eps = get_bit(eps_fin, target as usize);
                    let live = iu + 1 < len && ix.can_output(tr.to as usize);
                    if live {
                        raw.words.push((id as u64) << 32 | target as u64);
                    }
                    for &item in items {
                        let a = &mut stats.acc[item as usize];
                        if a.last_seq == u32::MAX {
                            stats.items.push(item);
                        }
                        a.count += live as u32;
                        if a.last_seq != s {
                            a.last_seq = s;
                            a.support += t.weight;
                        }
                        if eps && a.emit_last_seq != s {
                            a.emit_last_seq = s;
                            a.emit_support += t.weight;
                        }
                    }
                }
            }
            walk.clear();
            let end = u32::try_from(raw.words.len()).expect("fewer than 2³² child postings");
            if raw.segs.last().map_or(0, |seg| seg.1) < end {
                raw.segs.push((s, end));
            }
        }
        d.grouped.clear();
        d.runs.clear();
        // Linear stable scatter: frequent items only, ascending.
        stats.items.sort_unstable();
        let mut pos = 0usize;
        for &item in &stats.items {
            let a = &mut stats.acc[item as usize];
            if a.support >= sigma {
                let len = a.count as usize;
                d.runs.push((item, pos..pos + len, a.emit_support));
                // Becomes the write cursor, which the scatter advances to
                // the run's end. `pos` sums the counts of every frequent
                // child, so that end can pass 2³² while each count fits.
                u32::try_from(pos + len).expect("fewer than 2³² grouped postings");
                a.count = pos as u32;
                pos += len;
            }
        }
        d.grouped.resize(pos, 0);
        let mut start = 0;
        for &(s, end) in &raw.segs {
            let cap = views.keys(s).cap.min(views.bound);
            for &word in &raw.words[start..end as usize] {
                for &item in sets.set((word >> 32) as u32, cap) {
                    let a = &mut stats.acc[item as usize];
                    if a.support >= sigma {
                        d.grouped[a.count as usize] = posting(s, word as u32);
                        a.count += 1;
                    }
                }
            }
            start = end as usize;
        }
        for &item in &stats.items {
            stats.acc[item as usize] = FRESH_ACC;
        }
        stats.items.clear();
    }

    /// Expands one search-tree node; `top` is the prefix's largest item (0
    /// for the root) and `support` the node's precomputed ε-completion
    /// (emission) support. Every frequent pattern goes to `sink` with its
    /// largest item; the traversal ends iff the sink returns `false`, and
    /// so does this. A node without postings has no children: it returns
    /// right after its emission, taking no depth buffer.
    ///
    /// Under a scheduler (`ctx` given), a shallow node (task-relative
    /// `depth < SPLIT_DEPTH`) whose worker has thieves to feed
    /// ([`TaskCtx::wants_tasks`]) splits all child runs after the first off
    /// as stealable [`MineTask`]s instead of recursing into them, except
    /// the empty ones, which only emit. The split children are pushed
    /// *before* the inline descent into the first child, so thieves can
    /// start on them immediately.
    #[allow(clippy::too_many_arguments)]
    fn expand(
        &self,
        views: Views<'_>,
        node: &[Posting],
        depth: usize,
        top: ItemId,
        support: u64,
        prefix: &mut Sequence,
        bufs: &mut ExpandBufs,
        ctx: Option<&TaskCtx<'_, MineTask>>,
        sink: &mut dyn FnMut(&[ItemId], ItemId, u64) -> bool,
    ) -> bool {
        // A pattern if enough sequences can complete it with ε output.
        if !prefix.is_empty() && support >= self.config.sigma && !sink(prefix, top, support) {
            return false;
        }

        #[cfg(test)]
        {
            bufs.nodes += 1;
            bufs.dead += tests::dead_postings(self.fst, views, node);
        }
        if node.is_empty() {
            return true;
        }
        while bufs.depths.len() <= depth {
            bufs.depths.push(DepthBufs::default());
        }
        let mut d = std::mem::take(&mut bufs.depths[depth]);
        self.collect_children(views, node, top, bufs, &mut d);

        // Always keep the first child inline (splitting everything would
        // leave this worker with nothing but its own bookkeeping).
        let split = match ctx {
            Some(ctx)
                if depth < SPLIT_DEPTH && d.runs.len() > 1 && ctx.wants_tasks(SHARE_LIMIT) =>
            {
                let runs = d.runs[1..].iter().filter(|(_, range, _)| !range.is_empty());
                let split = runs.map(|(w, range, emit)| {
                    let mut task_prefix = Sequence::with_capacity(prefix.len() + 1);
                    task_prefix.extend_from_slice(prefix);
                    task_prefix.push(*w);
                    MineTask {
                        prefix: task_prefix,
                        postings: d.grouped[range.clone()].to_vec(),
                        top: top.max(*w),
                        emit: *emit,
                    }
                });
                ctx.spawn_all(split.collect());
                true
            }
            _ => false,
        };

        // Recurse per frequent child run (ascending item order); runs below
        // the prefix-support bound σ were already dropped while grouping.
        let mut keep_going = true;
        for (n, (w, range, emit)) in d.runs.iter().enumerate() {
            if split && n > 0 && !range.is_empty() {
                continue; // a task now
            }
            prefix.push(*w);
            keep_going = self.expand(
                views,
                &d.grouped[range.clone()],
                depth + 1,
                top.max(*w),
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

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::mining::{Miner, MiningContext};
    use desq_core::{toy, SequenceDb};

    /// Sequential DESQ-DFS over a whole database (each sequence has weight
    /// 1): the tests' shorthand for the [`LocalMiner`] eager path.
    fn desq_dfs_impl(
        db: &SequenceDb,
        fst: &Fst,
        dict: &Dictionary,
        sigma: u64,
    ) -> Vec<(Sequence, u64)> {
        LocalMiner::new(fst, dict, MinerConfig::sequential(sigma))
            .mine(&unit_inputs(db))
            .unwrap()
    }

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
                let (completed, stream_stats) = miner
                    .mine_each_with_workers(&inputs, workers, None, &mut |s, f| {
                        streamed.push((s, f));
                        true
                    })
                    .unwrap();
                assert!(completed, "{at}");
                assert_eq!(stream_stats.len(), workers, "{at}");
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
        let (completed, _) = miner
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
        let (completed, _) = miner
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
            let (completed, _) = miner
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
            let (completed, _) = miner
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
        for workers in [1, 2, 3] {
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

    /// The patterns of `expect` whose pivot is among `keys`.
    fn owned_by(expect: &[(Sequence, u64)], keys: &[ItemId]) -> Vec<(Sequence, u64)> {
        let owns = |p: &Sequence| keys.contains(&desq_core::sequence::pivot(p));
        expect.iter().filter(|(p, _)| owns(p)).cloned().collect()
    }

    /// `picks` of `tables` as the inputs of one bucket owning `keys`
    /// (ascending): each carries the keys its table outputs, and under
    /// early stopping the position one scan places for them. A table that
    /// outputs none of them is no input of the bucket.
    fn bucket_picks(
        miner: &LocalMiner<'_>,
        tables: &SeqTables,
        picks: &[(u32, u64)],
        keys: &[ItemId],
        early_stop: bool,
    ) -> Vec<Pick> {
        let mut out = Vec::new();
        for &(table, weight) in picks {
            let outputs = |&&k: &&ItemId| miner.key_stop(tables, table, &[k]).is_some();
            let own: Vec<ItemId> = keys.iter().filter(outputs).copied().collect();
            let (Some(&min_key), Some(&max_key)) = (own.first(), own.last()) else {
                continue;
            };
            let stop = match early_stop {
                true => miner.key_stop(tables, table, &own).unwrap(),
                false => u32::MAX,
            };
            out.push(Pick {
                table,
                weight,
                min_key,
                max_key,
                stop,
            });
        }
        out
    }

    /// `miner`'s patterns over `picks` of `tables` mined as one bucket
    /// owning `keys` (ascending), sorted.
    fn mined_bucket(
        miner: &LocalMiner<'_>,
        tables: &SeqTables,
        picks: &[(u32, u64)],
        keys: &[ItemId],
        early_stop: bool,
    ) -> Vec<(Sequence, u64)> {
        let bucket = bucket_picks(miner, tables, picks, keys, early_stop);
        let mut mined = Vec::new();
        miner
            .mine_picks(
                tables,
                &bucket,
                &mut MinerScratch::default(),
                None,
                &|p| keys.binary_search(&p).is_ok(),
                &mut |p, f| mined.push((p, f)),
            )
            .unwrap();
        crate::sort_patterns(mined)
    }

    #[test]
    fn pivot_restricted_mining_matches_fig6() {
        // Partition P_a1 of the paper's Fig. 6 — the one-key bucket
        // {a1} — yields a1 a1 b, a1 A b, a1 b.
        let fx = toy::fixture();
        let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(2));
        let (tables, picks) = toy_arena(&fx, &miner, 1);
        for early_stop in [false, true] {
            let out = mined_bucket(&miner, &tables, &picks, &[fx.a1], early_stop);
            let rendered: Vec<(String, u64)> =
                out.iter().map(|(s, f)| (fx.dict.render(s), *f)).collect();
            assert_eq!(
                rendered,
                vec![
                    ("a1 b".to_string(), 3),
                    ("a1 A b".to_string(), 2),
                    ("a1 a1 b".to_string(), 2),
                ],
                "early_stop = {early_stop}"
            );
        }
    }

    #[test]
    fn pivot_partition_c_is_empty_at_sigma2() {
        // All candidates with pivot c occur only in T1, so nothing is
        // frequent at σ = 2 in partition P_c (paper Fig. 3: P_c mines
        // nothing; a1 b would be found but has pivot a1 < c and must not be
        // emitted here).
        let fx = toy::fixture();
        let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(2));
        let (tables, picks) = toy_arena(&fx, &miner, 1);
        for early_stop in [false, true] {
            assert!(
                mined_bucket(&miner, &tables, &picks, &[fx.c], early_stop).is_empty(),
                "early_stop = {early_stop}"
            );
        }
    }

    #[test]
    fn early_stopping_does_not_change_results() {
        let fx = toy::fixture();
        for sigma in 1..=3 {
            let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(sigma));
            let (tables, picks) = toy_arena(&fx, &miner, 1);
            for k in 1..=fx.dict.max_fid() {
                let plain = mined_bucket(&miner, &tables, &picks, &[k], false);
                let stopped = mined_bucket(&miner, &tables, &picks, &[k], true);
                assert_eq!(plain, stopped, "sigma={sigma} k={k}");
            }
        }
    }

    #[test]
    fn union_of_pivot_partitions_equals_sequential_result() {
        // Item-based partitioning correctness: every frequent sequence is
        // found in exactly one partition — one one-key bucket per item.
        let fx = toy::fixture();
        for sigma in 1..=4 {
            let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(sigma));
            let (tables, picks) = toy_arena(&fx, &miner, 1);
            let mut union: Vec<(Sequence, u64)> = Vec::new();
            for k in 1..=fx.dict.max_fid() {
                union.extend(mined_bucket(&miner, &tables, &picks, &[k], true));
            }
            union.sort();
            let seq = desq_dfs_impl(&fx.db, &fx.fst, &fx.dict, sigma);
            assert_eq!(union, seq, "sigma = {sigma}");
        }
    }

    #[test]
    fn random_key_to_bucket_assignments_split_the_sequential_result() {
        // Items dealt to one to four buckets at random (a seeded LCG, 200
        // draws): every bucket mined as one search tree over the tables
        // that output its keys, with and without early stopping. The
        // buckets' results together are the sequential result, and no
        // pattern comes out of two buckets.
        let fx = toy::fixture();
        let items = fx.dict.max_fid();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        for draw in 0..200 {
            let (sigma, buckets) = (1 + next(4), 1 + next(4) as usize);
            let early_stop = next(2) == 1;
            let owner: Vec<usize> = (0..=items).map(|_| next(buckets as u64) as usize).collect();
            let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(sigma));
            let (tables, picks) = toy_arena(&fx, &miner, 1);
            let mut union: Vec<(Sequence, u64)> = Vec::new();
            for b in 0..buckets {
                let keys: Vec<ItemId> = (1..=items).filter(|&k| owner[k as usize] == b).collect();
                union.extend(mined_bucket(&miner, &tables, &picks, &keys, early_stop));
            }
            let emitted = union.len();
            union.sort();
            union.dedup_by(|x, y| x.0 == y.0);
            let at = format!("draw {draw}: σ={sigma} owners={owner:?} stop={early_stop}");
            assert_eq!(union.len(), emitted, "a pattern from two buckets, {at}");
            assert_eq!(
                union,
                desq_dfs_impl(&fx.db, &fx.fst, &fx.dict, sigma),
                "{at}"
            );
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

    /// The pivot owning the most of `patterns`, and how many it owns.
    fn top_pivot(patterns: &[(Sequence, u64)]) -> (ItemId, usize) {
        let mut owned = std::collections::BTreeMap::<ItemId, usize>::new();
        for (p, _) in patterns {
            *owned.entry(desq_core::sequence::pivot(p)).or_default() += 1;
        }
        owned.into_iter().max_by_key(|&(_, n)| n).unwrap()
    }

    /// `picks` of `tables` as unrestricted [`Pick`]s: no cap, no stop.
    fn unrestricted(picks: &[(u32, u64)]) -> Vec<Pick> {
        let pick = |&(table, weight): &(u32, u64)| Pick {
            table,
            weight,
            min_key: 0,
            max_key: ItemId::MAX,
            stop: u32::MAX,
        };
        picks.iter().map(pick).collect()
    }

    /// `inputs` appended to a fresh arena by `builder`, as picks carrying
    /// their input weights, plus each table's input index.
    fn arena_of(
        builder: &LocalMiner<'_>,
        inputs: &[WeightedInput<'_>],
    ) -> (SeqTables, Vec<(u32, u64)>, Vec<usize>) {
        let (mut tables, mut scratch) = (SeqTables::default(), MinerScratch::default());
        let (mut picks, mut input_of) = (Vec::new(), Vec::new());
        for (k, &(seq, w)) in inputs.iter().enumerate() {
            if let Some(t) = builder
                .append_tables(seq, &mut tables, &mut scratch)
                .unwrap()
            {
                picks.push((t, w));
                input_of.push(k);
            }
        }
        (tables, picks, input_of)
    }

    #[test]
    fn loose_nyt_mines_desq_counts_result_eagerly_and_through_picks() {
        // A real corpus: hierarchy fan-out puts many items on one output
        // step, and every node holds many input sequences' raw segments.
        // The reference is DESQ-COUNT, which shares no posting code: eager
        // mining on one and three workers must give its result, and — with
        // early stopping, through `mine_picks` over an arena — the bucket
        // of the pivot owning the most patterns its share of it, and a
        // bucket of every other frequent key theirs.
        let (dict, db, fsts) = nyt_loose();
        let inputs = unit_inputs(&db);
        let sigma = 10;
        for (name, fst) in &fsts {
            let ctx = MiningContext::sequential(&db, &dict, sigma).with_fst(fst);
            let expect = crate::algo::DesqCount.mine(&ctx).unwrap().patterns;
            assert!(expect.len() > 10, "{name}: {} patterns", expect.len());
            let miner = LocalMiner::new(fst, &dict, MinerConfig::sequential(sigma));
            for workers in [1, 3] {
                let (mined, _) = miner.mine_with_workers(&inputs, workers, None).unwrap();
                assert_eq!(mined, expect, "{name} workers={workers}");
            }
            let (pivot, _) = top_pivot(&expect);
            let (tables, picks, _) = arena_of(&miner, &inputs);
            let share = owned_by(&expect, &[pivot]);
            let mined = mined_bucket(&miner, &tables, &picks, &[pivot], true);
            assert_eq!(mined, share, "{name} pivot={pivot}");
            let odd: Vec<ItemId> = (1..=dict.last_frequent(sigma)).step_by(2).collect();
            let mined = mined_bucket(&miner, &tables, &picks, &odd, true);
            assert_eq!(mined, owned_by(&expect, &odd), "{name} odd keys");
        }
    }

    #[test]
    fn the_accumulators_grow_to_the_largest_item_bound_and_no_further() {
        // The accumulators cover the item bound — the frequent vocabulary,
        // or the largest key of a bucket below it — never the whole
        // dictionary, whatever the bucket's size. One scratch reused across
        // one-key buckets whose bound swings both ways, a few picks under
        // the largest frequent key among them, holds the largest bound
        // seen, and every bucket mines its key's share of eager mining of
        // its picks.
        let (dict, db, fsts) = nyt_loose();
        let inputs = unit_inputs(&db);
        let sigma = 10;
        let last = dict.last_frequent(sigma);
        assert!(last < dict.max_fid());
        for (name, fst) in &fsts {
            let miner = LocalMiner::new(fst, &dict, MinerConfig::sequential(sigma));
            let (tables, picks, input_of) = arena_of(&miner, &inputs);
            let bufs = miner.expand_bufs(tables.views(miner.last_frequent));
            assert_eq!(bufs.stats.acc.len(), last as usize + 1, "{name} eager");
            // The tables whose sequence can produce the top key first,
            // weighted so that a single one is frequent.
            let (mut few, rest): (Vec<u32>, Vec<u32>) = (0..tables.len() as u32)
                .partition(|&s| miner.key_stop(&tables, s, &[last]).is_some());
            assert!(!few.is_empty(), "{name}: no table holds key {last}");
            few.extend(rest);
            let few: Vec<(u32, u64)> = few[..3].iter().map(|&s| (s, sigma)).collect();
            let buckets = [
                (last / 2, &picks[..]),
                (last, &few[..1]),
                (last / 4, &picks[..]),
                (last, &few[..3]),
                (last / 8, &few[..2]),
            ];
            let (mut scratch, mut widest) = (MinerScratch::default(), 0);
            for (n, (key, bucket)) in buckets.into_iter().enumerate() {
                let keyed = bucket_picks(&miner, &tables, bucket, &[key], n % 2 == 1);
                let mut mined = Vec::new();
                miner
                    .mine_picks(
                        &tables,
                        &keyed,
                        &mut scratch,
                        None,
                        &|p| p == key,
                        &mut |p, f| mined.push((p, f)),
                    )
                    .unwrap();
                let eager_inputs: Vec<WeightedInput<'_>> = bucket
                    .iter()
                    .map(|&(t, w)| (inputs[input_of[t as usize]].0, w))
                    .collect();
                let eager = miner.mine(&eager_inputs).unwrap();
                let at = format!("{name} key={key} picks={}", bucket.len());
                assert_eq!(
                    crate::sort_patterns(mined),
                    owned_by(&eager, &[key]),
                    "{at}"
                );
                if !keyed.is_empty() {
                    widest = widest.max(key as usize + 1);
                }
                assert_eq!(scratch.bufs.stats.acc.len(), widest, "{at}");
            }
            assert_eq!(widest, last as usize + 1, "{name}");
        }
    }

    /// The toy database appended to a fresh arena by `builder`, as
    /// weight-`weight` picks.
    fn toy_arena(
        fx: &toy::Toy,
        builder: &LocalMiner<'_>,
        weight: u64,
    ) -> (SeqTables, Vec<(u32, u64)>) {
        let inputs: Vec<WeightedInput<'_>> = fx
            .db
            .sequences
            .iter()
            .map(|s| (s.as_slice(), weight))
            .collect();
        let (tables, picks, _) = arena_of(builder, &inputs);
        (tables, picks)
    }

    #[test]
    fn arena_tables_mine_like_from_scratch_across_buckets() {
        // Tables are pivot-independent: appended once — by a miner at a
        // looser σ — and mined as every one-key bucket, with doubled
        // weights, at every σ from 1 (all items frequent) to 6 (none), with
        // and without early stopping, they must match the from-scratch
        // miner's share of the key.
        let fx = toy::fixture();
        let builder = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1));
        let (tables, picks) = toy_arena(&fx, &builder, 2);
        // T3 is rejected and gets no table.
        assert_eq!(picks.len(), fx.db.len() - 1);
        let inputs: Vec<WeightedInput<'_>> =
            fx.db.sequences.iter().map(|s| (s.as_slice(), 2)).collect();
        for sigma in 1..=6 {
            let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(sigma));
            let eager = miner.mine(&inputs).unwrap();
            for k in 1..=fx.dict.max_fid() {
                for early_stop in [false, true] {
                    assert_eq!(
                        mined_bucket(&miner, &tables, &picks, &[k], early_stop),
                        owned_by(&eager, &[k]),
                        "sigma={sigma} k={k} stop={early_stop}"
                    );
                }
            }
        }
    }

    /// The last position of table `s` (`l` output labels per position)
    /// whose output sets contain `k` — the per-key brute force.
    fn last_output_of(tables: &SeqTables, s: u32, l: usize, k: ItemId) -> Option<u32> {
        let m = &tables.metas[s as usize];
        let ids = &tables.sim.ids()[m.ids_start as usize..][..m.len as usize * l];
        let at = ids
            .iter()
            .rposition(|&id| tables.sim.set(id, ItemId::MAX).contains(&k))?;
        Some((at / l) as u32)
    }

    #[test]
    fn one_scan_places_every_pivot_where_its_own_scan_does() {
        // Every toy table against every ascending key list drawn from the
        // dictionary: the one scan stops where the last of the keys' own
        // brute-force scans does, and finds nothing where none of them
        // does.
        let fx = toy::fixture();
        let builder = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1));
        let (tables, picks) = toy_arena(&fx, &builder, 1);
        let l = fx.fst.index().num_labels();
        let items: Vec<ItemId> = (1..=fx.dict.max_fid()).collect();
        let mut placed = 0;
        for &(t, _) in &picks {
            for lists in 1u32..1 << items.len() {
                let keys: Vec<ItemId> = items
                    .iter()
                    .copied()
                    .filter(|&w| lists & 1 << (w - 1) != 0)
                    .collect();
                let own = keys
                    .iter()
                    .filter_map(|&k| last_output_of(&tables, t, l, k));
                let expect = own.max();
                assert_eq!(
                    builder.key_stop(&tables, t, &keys),
                    expect,
                    "table {t} keys {keys:?}"
                );
                placed += usize::from(expect.is_some());
            }
        }
        assert!(placed > 0);
    }

    #[test]
    fn a_tripped_token_stops_mine_picks_before_its_first_pattern() {
        // The token is polled at every frequent pattern the search visits,
        // emitted or not — each one the owner test sees. On N4, the bucket
        // of the key owning the most patterns stops before emitting one,
        // and so does a bucket whose key owns none while its search visits
        // patterns of smaller keys.
        let (dict, db, [(_, n4), _]) = nyt_loose();
        let sigma = 10;
        let miner = LocalMiner::new(&n4, &dict, MinerConfig::sequential(sigma));
        let (tables, picks, _) = arena_of(&miner, &unit_inputs(&db));
        let run = |key: ItemId, token: &CancelToken| {
            let bucket = bucket_picks(&miner, &tables, &picks, &[key], true);
            let (visited, mut emitted) = (std::cell::Cell::new(0), 0);
            let owns = |p| {
                visited.set(visited.get() + 1);
                p == key
            };
            let mut scratch = MinerScratch::default();
            let mut sink = |_, _| emitted += 1;
            let stopped = miner.mine_picks(
                &tables,
                &bucket,
                &mut scratch,
                Some(token),
                &owns,
                &mut sink,
            );
            (stopped, visited.get(), emitted)
        };
        let live = CancelToken::new();
        let ctx = MiningContext::sequential(&db, &dict, sigma).with_fst(&n4);
        let (owning, _) = top_pivot(&crate::algo::DesqCount.mine(&ctx).unwrap().patterns);
        let idle = (1..=dict.last_frequent(sigma))
            .find(|&k| matches!(run(k, &live), (Ok(()), 1.., 0)))
            .expect("a key owning none of the patterns its bucket visits");
        assert!(matches!(run(owning, &live), (Ok(()), _, 1..)));
        let tripped = CancelToken::new();
        tripped.cancel();
        for key in [owning, idle] {
            let (stopped, visited, emitted) = run(key, &tripped);
            assert!(
                matches!(stopped, Err(desq_core::Error::Cancelled(_))),
                "key {key}: {stopped:?}"
            );
            assert_eq!((visited, emitted), (0, 0), "key {key}");
        }
    }

    #[test]
    fn outputs_above_the_item_bound_stay_out_of_the_dense_accumulators() {
        // The arena holds every frequent output; a one-key bucket sizes its
        // accumulators by its key, so the DFS must cut each output slice at
        // the pick's cap before indexing them.
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        let builder = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1));
        let (tables, picks) = toy_arena(&fx, &builder, 1);
        let eager = builder.mine(&inputs).unwrap();
        let items = || {
            tables
                .sim
                .ids()
                .iter()
                .map(|&id| tables.sim.set(id, ItemId::MAX))
        };
        for k in 1..fx.dict.max_fid() {
            assert!(items().any(|set| set.iter().any(|&w| w > k)), "k={k}");
            let bucket = bucket_picks(&builder, &tables, &picks, &[k], false);
            let mut scratch = MinerScratch::default();
            let mut mined = Vec::new();
            builder
                .mine_picks(
                    &tables,
                    &bucket,
                    &mut scratch,
                    None,
                    &|p| p == k,
                    &mut |p, f| mined.push((p, f)),
                )
                .unwrap();
            assert_eq!(scratch.bufs.stats.acc.len(), k as usize + 1, "k={k}");
            assert_eq!(crate::sort_patterns(mined), owned_by(&eager, &[k]), "k={k}");
        }
    }

    #[test]
    fn a_bucket_of_every_key_walks_the_sequential_tree_once() {
        // N5 captures one item per pattern and outputs nothing after it.
        // As one bucket of every frequent key, its inputs are walked from
        // the root once: the bucket visits the nodes eager mining visits
        // and mines the same patterns, where one-key buckets each walk the
        // root again over the inputs they share.
        let (dict, db) = desq_datagen::nyt_like(&desq_datagen::NytConfig::new(2_000));
        let n5 = desq_core::PatEx::parse("[(.^). .]|[. (.^).]|[. .(.^)]").unwrap();
        let fst = Fst::compile(&n5.unanchored(), &dict).unwrap();
        let sigma = 10;
        let last = dict.last_frequent(sigma);
        let miner = LocalMiner::new(&fst, &dict, MinerConfig::sequential(sigma));
        let inputs = unit_inputs(&db);
        let (tables, picks, _) = arena_of(&miner, &inputs);
        let (sequential, eager_nodes, _) = mined_and_counted(&miner, &inputs, 1);
        assert!(!sequential.is_empty());
        let mine = |buckets: Vec<Vec<ItemId>>| {
            let (mut scratch, mut mined) = (MinerScratch::default(), Vec::new());
            for keys in &buckets {
                let bucket = bucket_picks(&miner, &tables, &picks, keys, true);
                let owns = |p| keys.binary_search(&p).is_ok();
                let mut sink = |p, f| mined.push((p, f));
                miner
                    .mine_picks(&tables, &bucket, &mut scratch, None, &owns, &mut sink)
                    .unwrap();
            }
            (crate::sort_patterns(mined), scratch.bufs.nodes)
        };
        let (whole, whole_nodes) = mine(vec![(1..=last).collect()]);
        let (split, split_nodes) = mine((1..=last).map(|k| vec![k]).collect());
        assert_eq!(whole, sequential);
        assert_eq!(split, sequential);
        assert_eq!(whole_nodes, eager_nodes);
        assert!(
            split_nodes > 2 * whole_nodes,
            "{split_nodes} vs {whole_nodes}"
        );
    }

    #[test]
    fn a_rejected_sequence_leaves_every_arena_at_its_input_length() {
        let fx = toy::fixture();
        let miner = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1));
        let mut tables = SeqTables::default();
        let mut scratch = MinerScratch::default();
        miner
            .append_tables(&fx.db.sequences[0], &mut tables, &mut scratch)
            .unwrap();
        let before = tables.arena_lens();
        assert!(before.iter().all(|&len| len > 0));
        let (rows, sets) = (format!("{:?}", tables.sim), directory(&tables));
        assert!(sets.0 > 0 && sets.1 > 0);
        // T3 = c d c b has no accepting run (the front-end stops after the
        // forward pass: `fst::sim`'s own tests check that no aliveness table
        // is built).
        let t3 = miner.append_tables(&fx.db.sequences[2], &mut tables, &mut scratch);
        assert_eq!(t3.unwrap(), None);
        assert_eq!(tables.arena_lens(), before);
        // Mask rows, id row and directory, every field of them.
        assert_eq!(format!("{:?}", tables.sim), rows);
        assert_eq!(tables.len(), 1);
    }

    #[test]
    fn tables_built_at_one_sigma_mine_at_another() {
        // The directory holds uncut sets, so tables serve any σ: built by a
        // σ = 1 miner (which keeps every item of the toy) and mined at
        // σ = 2 (which cuts `e` and `a2`), they give the σ = 2 result —
        // appended one sequence at a time, mixed with a σ = 2 miner's
        // appends, or merged from chunks of either.
        let fx = toy::fixture();
        let inputs = unit_inputs(&fx.db);
        let loose = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(1));
        let tight = LocalMiner::new(&fx.fst, &fx.dict, MinerConfig::sequential(2));
        assert_ne!(loose.last_frequent, tight.last_frequent);
        let expect = tight.mine(&inputs).unwrap();
        assert!(!expect.is_empty() && expect != loose.mine(&inputs).unwrap());
        let (tables, picks) = toy_arena(&fx, &loose, 1);
        assert_eq!(mined_picks(&tight, &tables, &picks), expect);
        let (mut mixed, mut scratch) = (SeqTables::default(), MinerScratch::default());
        for (k, seq) in fx.db.sequences.iter().enumerate() {
            let builder = if k % 2 == 0 { &loose } else { &tight };
            builder
                .append_tables(seq, &mut mixed, &mut scratch)
                .unwrap();
        }
        assert_eq!(mined_picks(&tight, &mixed, &all_picks(&mixed)), expect);
        assert_eq!(
            mined_picks(&loose, &mixed, &all_picks(&mixed)),
            loose.mine(&inputs).unwrap()
        );
        let (head, tail) = inputs.split_at(2);
        let mut merged = loose.prepare_tables(head, 1).unwrap();
        merged
            .append(tight.prepare_tables(tail, 1).unwrap(), fx.fst.num_states())
            .unwrap();
        assert_eq!(mined_picks(&tight, &merged, &all_picks(&merged)), expect);
        // And as the bucket {a1} with early stopping, which reads the id
        // rows.
        let share = owned_by(&expect, &[fx.a1]);
        assert!(!share.is_empty());
        assert_eq!(mined_bucket(&tight, &tables, &picks, &[fx.a1], true), share);
        let all = all_picks(&merged);
        assert_eq!(mined_bucket(&tight, &merged, &all, &[fx.a1], true), share);
    }

    /// `nyt_like(1 000)` at seed 1 with the loose constraints N4 and N5.
    fn nyt_loose() -> (Dictionary, SequenceDb, [(&'static str, Fst); 2]) {
        let cfg = desq_datagen::NytConfig::new(1_000).with_seed(1);
        let (dict, db) = desq_datagen::nyt_like(&cfg);
        let fsts = [
            ("N4", "(.^){3} NOUN"),
            ("N5", "[(.^). .]|[. (.^).]|[. .(.^)]"),
        ]
        .map(|(name, pexp)| {
            let pexp = desq_core::PatEx::parse(pexp).unwrap().unanchored();
            (name, Fst::compile(&pexp, &dict).unwrap())
        });
        (dict, db, fsts)
    }

    /// Every table of `tables` as a weight-1 pick.
    fn all_picks(tables: &SeqTables) -> Vec<(u32, u64)> {
        (0..tables.len() as u32).map(|t| (t, 1)).collect()
    }

    /// `miner`'s patterns over `picks` of `tables`, sorted.
    fn mined_picks(
        miner: &LocalMiner<'_>,
        tables: &SeqTables,
        picks: &[(u32, u64)],
    ) -> Vec<(Sequence, u64)> {
        let mut mined = Vec::new();
        miner
            .mine_picks(
                tables,
                &unrestricted(picks),
                &mut MinerScratch::default(),
                None,
                &|_| true,
                &mut |p, f| mined.push((p, f)),
            )
            .unwrap();
        crate::sort_patterns(mined)
    }

    #[test]
    fn parallel_builds_reintern_every_chunk_into_one_directory() {
        // Three chunks build three directories; the merge re-interns the
        // later two into the first. Whatever ids it assigns, both builds
        // hold every `(label, item)` key once, with the same set, and mine
        // DESQ-COUNT's result.
        let (dict, db, fsts) = nyt_loose();
        let inputs = unit_inputs(&db);
        let sigma = 10;
        for (name, fst) in &fsts {
            let ctx = MiningContext::sequential(&db, &dict, sigma).with_fst(fst);
            let expect = crate::algo::DesqCount.mine(&ctx).unwrap().patterns;
            assert!(expect.len() > 10, "{name}: {} patterns", expect.len());
            let miner = LocalMiner::new(fst, &dict, MinerConfig::sequential(sigma));
            let one = miner.prepare_tables(&inputs, 1).unwrap();
            let three = miner.prepare_tables(&inputs, 3).unwrap();
            for (workers, tables) in [(1, &one), (3, &three)] {
                let mined = mined_picks(&miner, tables, &all_picks(tables));
                assert_eq!(mined, expect, "{name} workers={workers}");
            }
            // The same sets behind every id, each stored once: a key
            // interned twice would show up as more distinct ids.
            assert_eq!(directory(&one), directory(&three), "{name}");
            let (a, b) = (&one.sim, &three.sim);
            assert_eq!(a.ids().len(), b.ids().len());
            assert!(a
                .ids()
                .iter()
                .zip(b.ids())
                .all(|(&x, &y)| a.set(x, ItemId::MAX) == b.set(y, ItemId::MAX)));
            // Early stopping reads the id rows (`key_stop`): as the bucket
            // of the pivot owning the most patterns, an `append_tables`
            // arena and the merged build mine its share of the result.
            let (pivot, owned) = top_pivot(&expect);
            let share = owned_by(&expect, &[pivot]);
            assert_eq!(share.len(), owned, "{name}");
            let (arena, picks, _) = arena_of(&miner, &inputs);
            let mined = mined_bucket(&miner, &arena, &picks, &[pivot], true);
            assert_eq!(mined, share, "{name} arena");
            let mined = mined_bucket(&miner, &three, &all_picks(&three), &[pivot], true);
            assert_eq!(mined, share, "{name} merged");
            for s in 0..three.len() as u32 {
                assert_eq!(
                    miner.key_stop(&three, s, &[pivot]),
                    miner.key_stop(&arena, s, &[pivot]),
                    "{name} table {s}"
                );
            }
        }
    }

    /// The directory behind `tables`' id rows: its non-empty sets (every
    /// set a table's directory stores is one a row refers to) and their
    /// items.
    fn directory(tables: &SeqTables) -> (usize, usize) {
        let mut ids = tables.sim.ids().to_vec();
        ids.sort_unstable();
        ids.dedup();
        ids.retain(|&id| id != 0);
        let items = ids.iter().map(|&id| tables.sim.set(id, ItemId::MAX).len());
        (ids.len(), items.sum())
    }

    /// Bytes `tables` keep resident, by arena: descriptors, mask,
    /// `eps_fin`, id row and directory (its sets' bounds, the empty set's
    /// included, and items, plus one `(key, id)` entry per set). Lengths,
    /// not capacities, so the count does not depend on how the arenas grew.
    fn resident_bytes(tables: &SeqTables) -> [usize; 5] {
        let (sets, items) = directory(tables);
        [
            tables.metas.len() * std::mem::size_of::<SeqMeta>(),
            tables.sim.mask().len() * 8,
            tables.eps_fin.len() * 8,
            tables.sim.ids().len() * 4,
            (sets + 2 + items) * 4 + sets * std::mem::size_of::<(u64, u32)>(),
        ]
    }

    #[test]
    fn resident_table_bytes_are_pinned_on_nyt_1k() {
        // Exact bytes per arena (descriptors, mask, `eps_fin`, id row,
        // directory) of N4 and N5 over `nyt_like(1 000)` at σ = 10. A
        // per-sequence output arena coming back shows up here.
        let (dict, db, fsts) = nyt_loose();
        let inputs = unit_inputs(&db);
        // Per accepted sequence: N4 265.7 bytes, N5 269.9 (the directory 52.0
        // and 62.1 of them: its sets are uncut, so it holds the outputs of
        // infrequent items too).
        let pinned = [
            (941, [22_584, 110_520, 12_760, 55_260, 48_904]),
            (1_000, [24_000, 112_488, 15_072, 56_244, 62_088]),
        ];
        for ((name, fst), (accepted, bytes)) in fsts.iter().zip(pinned) {
            let miner = LocalMiner::new(fst, &dict, MinerConfig::sequential(10));
            let tables = miner.prepare_tables(&inputs, 1).unwrap();
            assert_eq!(tables.len(), accepted, "{name}");
            assert_eq!(resident_bytes(&tables), bytes, "{name}");
            // The id row is one `u32` per (position, label), nothing more.
            let positions: usize = tables.metas.iter().map(|m| m.len as usize).sum();
            assert_eq!(bytes[3], 4 * positions * fst.index().num_labels(), "{name}");
            // A merged parallel build holds the same bytes.
            let merged = miner.prepare_tables(&inputs, 3).unwrap();
            assert_eq!(resident_bytes(&merged), bytes, "{name} merged");
        }
    }

    /// The root of `fst` over `tables` at σ = 10: the raw records left
    /// in the buffer, their items, and the grouped frequent children.
    fn root_children(fst: &Fst, dict: &Dictionary, tables: &SeqTables) -> (RawChildren, DepthBufs) {
        let miner = LocalMiner::new(fst, dict, MinerConfig::sequential(10));
        let views = tables.views(miner.last_frequent);
        let roots: Vec<Posting> = miner.root_postings(views).collect();
        let mut bufs = miner.expand_bufs(views);
        let mut first = DepthBufs::default();
        miner.collect_children(views, &roots, 0, &mut bufs, &mut first);
        (bufs.raw, first)
    }

    #[test]
    fn the_dense_root_records_one_raw_word_per_live_output_step() {
        // N4's root over `nyt_like(1 000)`: every output step carries a
        // generalization hierarchy's worth of items into a state that
        // still has two captures to output, and the raw buffer holds one
        // record per step, not one word per item.
        let (dict, db, [(_, n4), (_, n5)]) = nyt_loose();
        let inputs = unit_inputs(&db);
        let last = dict.last_frequent(10);
        let tables = LocalMiner::new(&n4, &dict, MinerConfig::sequential(10))
            .prepare_tables(&inputs, 1)
            .unwrap();
        let (raw, first) = root_children(&n4, &dict, &tables);
        let items: usize = raw
            .words
            .iter()
            .map(|&w| tables.sim.set((w >> 32) as u32, last).len())
            .sum();
        assert_eq!((raw.words.len(), items), (3_222, 7_350));
        // Every item of every step lands in a frequent run or is dropped.
        assert!(first.grouped.len() <= items);
        // N5 captures one item and outputs nothing after it: every step
        // of its root lands in a dead cell, so the root writes no record
        // and groups no posting, yet finds the same 269 frequent children
        // with the same emission supports as when it stored them all
        // (14 061 records, 30 556 grouped postings) — DESQ-COUNT's
        // one-item patterns.
        let tables = LocalMiner::new(&n5, &dict, MinerConfig::sequential(10))
            .prepare_tables(&inputs, 1)
            .unwrap();
        let (raw, first) = root_children(&n5, &dict, &tables);
        assert_eq!((raw.words.len(), first.grouped.len()), (0, 0));
        let runs: Vec<(ItemId, u64)> = first.runs.iter().map(|(w, _, e)| (*w, *e)).collect();
        let sums = runs
            .iter()
            .fold((0, 0), |(e, we), &(w, f)| (e + f, we + w as u64 * f));
        assert_eq!((runs.len(), sums), (269, (19_978, 881_144)));
        assert!(runs.iter().zip(1..).all(|(&(w, _), k)| w == k));
        assert!(first.runs.iter().all(|(_, range, _)| range.is_empty()));
        let ctx = MiningContext::sequential(&db, &dict, 10).with_fst(&n5);
        let expect = crate::algo::DesqCount.mine(&ctx).unwrap().patterns;
        let singles: Vec<(ItemId, u64)> = expect.iter().map(|(p, f)| (p[0], *f)).collect();
        assert!(expect.iter().all(|(p, _)| p.len() == 1));
        assert_eq!(runs, singles);
    }

    /// How many of `node`'s postings are dead: at their sequence's end, or
    /// in a state of `fst` that can produce no further output.
    pub(super) fn dead_postings(fst: &Fst, views: Views<'_>, node: &[Posting]) -> usize {
        let qn = fst.num_states() as u32;
        let dead = |&p: &Posting| {
            let (i, q) = (p_cell(p) / qn, p_cell(p) % qn);
            i == views.metas[p_seq(p) as usize].len || !fst.index().can_output(q as usize)
        };
        node.iter().filter(|p| dead(p)).count()
    }

    /// Eager mining of `inputs` on `workers` workers: the sorted patterns,
    /// and the nodes visited and dead postings found over all workers.
    fn mined_and_counted(
        miner: &LocalMiner<'_>,
        inputs: &[WeightedInput<'_>],
        workers: usize,
    ) -> (Vec<(Sequence, u64)>, usize, usize) {
        let stop = AtomicBool::new(false);
        let (_, states) = miner
            .drive(
                inputs,
                None,
                vec![Vec::new(); workers],
                &stop,
                |out, p, f| {
                    out.push((p, f));
                    true
                },
            )
            .unwrap();
        let (mut mined, mut nodes, mut dead) = (Vec::new(), 0, 0);
        for (out, bufs) in states {
            mined.extend(out);
            nodes += bufs.nodes;
            dead += bufs.dead;
        }
        (crate::sort_patterns(mined), nodes, dead)
    }

    /// Mines `db` at `sigma` eagerly on one and three workers, and through
    /// `mine_picks` over an arena as the one-key bucket of each of `pivots`
    /// with and without early stopping, and checks every run against
    /// DESQ-COUNT's result (its key's share of it) and for dead postings.
    fn assert_no_dead_posting(
        fst: &Fst,
        dict: &Dictionary,
        db: &SequenceDb,
        sigma: u64,
        pivots: &[ItemId],
    ) {
        let inputs = unit_inputs(db);
        let ctx = MiningContext::sequential(db, dict, sigma).with_fst(fst);
        let all = crate::algo::DesqCount.mine(&ctx).unwrap().patterns;
        let miner = LocalMiner::new(fst, dict, MinerConfig::sequential(sigma));
        for workers in [1, 3] {
            let at = format!("σ={sigma} workers={workers}");
            let (mined, nodes, dead) = mined_and_counted(&miner, &inputs, workers);
            assert_eq!(mined, all, "{at}");
            assert!(nodes > 0, "{at}");
            assert_eq!(dead, 0, "{at}");
        }
        let (tables, picks, _) = arena_of(&miner, &inputs);
        for &k in pivots {
            for early_stop in [false, true] {
                let at = format!("σ={sigma} key={k} stop={early_stop}");
                let bucket = bucket_picks(&miner, &tables, &picks, &[k], early_stop);
                let (mut scratch, mut mined) = (MinerScratch::default(), Vec::new());
                miner
                    .mine_picks(
                        &tables,
                        &bucket,
                        &mut scratch,
                        None,
                        &|p| p == k,
                        &mut |p, f| mined.push((p, f)),
                    )
                    .unwrap();
                assert_eq!(crate::sort_patterns(mined), owned_by(&all, &[k]), "{at}");
                assert_eq!(scratch.bufs.dead, 0, "{at}");
            }
        }
    }

    #[test]
    fn no_stored_posting_is_dead() {
        // A posting at its sequence's end, or in a state with no output
        // left, can only complete its prefix: its step counts towards the
        // child's supports, and no node or split task of any path holds it.
        let fx = toy::fixture();
        let pivots: Vec<ItemId> = (1..=fx.dict.max_fid()).collect();
        for sigma in [1, 2] {
            assert_no_dead_posting(&fx.fst, &fx.dict, &fx.db, sigma, &pivots);
        }
        let (dict, db, fsts) = nyt_loose();
        let sigma = 10;
        for (_, fst) in &fsts {
            let ctx = MiningContext::sequential(&db, &dict, sigma).with_fst(fst);
            let (pivot, _) = top_pivot(&crate::algo::DesqCount.mine(&ctx).unwrap().patterns);
            assert_no_dead_posting(fst, &dict, &db, sigma, &[pivot]);
        }
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
                    miner.append_tables(seq, &mut a, &mut shared).unwrap(),
                    miner.append_tables(seq, &mut b, &mut fresh).unwrap()
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

    #[test]
    fn the_width_predicate_bounds_index_cells_and_arena_starts() {
        let max = u32::MAX as usize;
        // Cells: (len + 1) · states below 2³¹, on either factor's side.
        assert!(fits_widths(0, (1 << 15) - 2, 1 << 16, [0; 3]));
        assert!(!fits_widths(0, (1 << 15) - 1, 1 << 16, [0; 3]));
        assert!(fits_widths(0, (1 << 31) - 2, 1, [0; 3]));
        assert!(!fits_widths(0, (1 << 31) - 1, 1, [0; 3]));
        assert!(!fits_widths(0, usize::MAX, usize::MAX, [0; 3]));
        // Input index: below the accumulators' `u32::MAX` mark.
        assert!(fits_widths(max - 1, 0, 1, [0; 3]));
        assert!(!fits_widths(max, 0, 1, [0; 3]));
        // Every arena start — mask, `eps_fin`, id row — within a `u32`.
        for k in 0..3 {
            let mut starts = [0; 3];
            starts[k] = max;
            assert!(fits_widths(0, 0, 1, starts), "start {k}");
            starts[k] = max + 1;
            assert!(!fits_widths(0, 0, 1, starts), "start {k}");
        }
        // The largest index and cell of a fitting sequence round-trip.
        let top = (((1 << 15) - 1) << 16) - 1;
        let p = posting(u32::MAX - 1, top);
        assert_eq!((p_seq(p), p_cell(p)), (u32::MAX - 1, top));
    }

    #[test]
    fn a_sequence_past_the_cell_width_fails_the_build_typed() {
        // A 2¹⁶-state chain: a sequence of 2¹⁵ − 1 items has 2³¹ cells.
        let fx = toy::fixture();
        let pexp = desq_core::PatEx::parse(".{65535}").unwrap();
        let fst = Fst::compile_with(&pexp, &fx.dict, desq_core::fst::OptLevel::None).unwrap();
        assert_eq!(fst.num_states(), 1 << 16);
        let miner = LocalMiner::new(&fst, &fx.dict, MinerConfig::sequential(1));
        let long = vec![fx.b; (1 << 15) - 1];
        let shorter = vec![fx.b; (1 << 15) - 2];
        fn invalid<T>(r: Result<T>) -> bool {
            matches!(r, Err(desq_core::Error::Invalid(_)))
        }
        assert!(invalid(miner.prepare_tables(&[(&long, 1)], 1)));
        assert!(invalid(
            miner.prepare_tables(&[(&shorter, 1), (&long, 1)], 2)
        ));
        assert!(invalid(miner.mine(&[(&long, 1)])));
        // The shorter one fits (and the FST rejects it: the chain wants
        // 65 535 items).
        assert!(miner
            .prepare_tables(&[(&shorter, 1)], 1)
            .unwrap()
            .is_empty());
        let (mut tables, mut scratch) = (SeqTables::default(), MinerScratch::default());
        assert!(invalid(miner.append_tables(
            &long,
            &mut tables,
            &mut scratch
        )));
        assert!(tables.is_empty() && tables.arena_lens() == [0; 3]);
        assert_eq!(tables.sim, SimTables::default());
    }
}
