//! The BSP engine: parallel map, optional combine, byte shuffle, parallel
//! reduce — one round of communication (Alg. 1 of the paper).
//!
//! Every round has the paper's one shape: *pivot item* keys, each routed by
//! the hash of its varint bytes; opaque weighted payloads; and reducers
//! emitting frequent sequences, sent back per bucket as `varint(#outputs)`,
//! then [`encode_item_seq`] + `varint(frequency)`.
//!
//! A combining round ships *records*, not `(key, payload)` pairs: a mapper
//! emits one payload with the ascending list of keys it goes to, and each
//! reduce bucket receives one record per distinct payload and key list,
//! holding the keys that route to it. D-SEQ sends a sequence to every pivot
//! partition of `K^σ(T)` with one shared rewritten range, so its shuffle
//! carries a record per (sequence, bucket) rather than one per pivot; the
//! other rounds emit one key per record through the same format.
//!
//! # Hot-path layout
//!
//! Both job shapes hand the mapper a whole partition
//! (`Fn(&[Sequence], …)`), so per-partition scratch (pivot-search tables,
//! encode buffers) is created once per map task instead of once per
//! record. Each key is hashed once, over its varint bytes: the routing
//! bucket comes from a word-at-a-time hash reduced by a multiply-shift (no
//! modulo bias, no re-hash). The combiner interns each payload once per
//! emit and keys its open-addressing table on `(payload, bucket keys)`,
//! one probe per record, never one per key.
//!
//! The combining shuffle additionally *interns payloads*: each map task's
//! bucket chunk starts with a dictionary of distinct payload byte strings,
//! and records reference payloads by local index:
//! `varint(#payloads), (varint(len), bytes)*`, then per record
//! `varint(payload id), varint(weight), varint(#keys)`, the first key and
//! the gap to each next one (keys ascend strictly, so every gap is at least
//! one). Output buffers are sized exactly before writing (one counting pass
//! over a linear bucket scatter, then one copy pass), so the map side
//! performs no growth reallocation.
//!
//! The reduce-side merge pays per distinct payload and per record: each
//! chunk's payload dictionary is interned across the bucket (equal
//! payloads from different map tasks become one slice with one dense id),
//! and the records are decoded into one array with their keys in one
//! arena. A round's [`ReduceUnit`] cuts the buckets into reduce tasks —
//! runs of a bucket's key groups, light groups batched and a heavy group
//! alone, or whole buckets — and a reducer gets each task as a [`Bucket`],
//! which it reads in one of two views:
//!
//! * its *key groups* ([`Bucket::groups`]) — a counting sort on the key
//!   values (16 bits a pass) scatters every record's keys into ascending
//!   groups, and an epoch-stamped array indexed by payload id merges
//!   duplicates within a group, with no hash probe per key. Each group
//!   holds its payloads in first-arrival order (map task, then record) —
//!   the same order on every transport and at every worker count. D-CAND,
//!   NAÏVE, LASH and MLlib reduce key by key, over key runs;
//! * its *inputs* ([`Bucket::inputs`]) — one per distinct payload, with
//!   its records' summed weight, the task's keys it goes to, and an id
//!   dense across the reduce call, where equal payloads of different
//!   buckets share one. A reducer that caches per payload in a vector —
//!   one worker reducing several buckets, every worker in process —
//!   builds a payload's state once, for all of its buckets. The ids are
//!   interned once per reduce call, on the first `inputs` (one probe per
//!   bucket payload). D-SEQ reduces whole buckets: it mines a bucket's
//!   inputs as one search tree, or one per key, and keeps the patterns
//!   whose pivot the bucket owns ([`Bucket::owns`]).
//!
//! The key groups of key runs are scattered by the merge, since the runs
//! are cut from them; a whole bucket's task builds the view it reads and
//! drops it when done.
//!
//! # Parameters and failure domains
//!
//! A round's parameters come from the run's [`MiningContext`] alone:
//! `ctx.db` cut into `ctx.partitions` map tasks, `ctx.reducers` shuffle
//! buckets, `ctx.workers` threads and the run's cancellation token. A
//! context with zero workers, partitions or reducers fails
//! [`MiningContext::validate`] before any task runs, and a driver and its
//! worker processes built from equal contexts agree on partitions and
//! buckets.
//!
//! Every map and reduce task runs on [`desq_core::sched`] and inherits its
//! task-boundary contract: a panicking task marks the run's
//! [`CancelToken`] (when one is attached), the remaining workers stop at
//! their next task boundary, and the round returns
//! [`Error::WorkerPanicked`] instead of killing the process; the first
//! task to return an error aborts the round with that error, unchanged.
//! The token is polled between tasks and, since a task can hold many key
//! groups or a whole bucket, inside it too: per key group
//! ([`Bucket::groups`]), and by D-SEQ's search per visited pattern. An expired deadline or external
//! cancellation aborts the round with the token's
//! [`stop_reason`](CancelToken::stop_reason).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

use desq_core::codec::{
    decode_item_seq, encode_item_seq, read_bytes, read_varint, varint_len, write_bytes,
    write_varint,
};
use desq_core::fx::{bucket_of, hash_bytes, mix_hashes as mix, ProbeTable};
use desq_core::mining::{CancelToken, MiningContext};
use desq_core::sched::{self, IndexedRun};
use desq_core::{wire, Error, ItemId, MiningMetrics, MiningResult, Result, Sequence};

use super::transport::{worker_loop, PhaseStats, ShuffleTransport};

/// The shuffle's one width check: whether `n` — an id table's length
/// after an insert, or a payload or key arena's end offset — fits the
/// `u32` it is packed into. Where it does not, the round fails
/// [`Error::Invalid`].
fn fits_u32(n: usize) -> bool {
    u32::try_from(n).is_ok()
}

/// The error of a shuffle table that outgrew its `u32` ids or offsets.
fn too_wide(what: &str) -> Error {
    Error::Invalid(format!("{what} exceed the u32 range of the shuffle"))
}

/// The routing hash of a pivot key: [`hash_bytes`] over its varint, the
/// bytes the key has on the wire.
#[inline]
fn key_hash(pivot: ItemId) -> u64 {
    let mut bytes = [0u8; 5];
    let len = varint_len(u64::from(pivot));
    for (i, b) in bytes[..len].iter_mut().enumerate() {
        let more = if i + 1 < len { 0x80 } else { 0 };
        *b = (pivot >> (7 * i)) as u8 & 0x7f | more;
    }
    hash_bytes(&bytes[..len])
}

/// Reads one `varint(pivot)` key.
fn read_key(buf: &mut &[u8]) -> Result<ItemId> {
    let v = read_varint(buf)?;
    ItemId::try_from(v).map_err(|_| Error::Decode(format!("pivot key out of range: {v}")))
}

/// The encoded size of a record's key list (see the module docs).
fn keys_len(keys: &[ItemId]) -> usize {
    let gaps = keys.windows(2).map(|w| varint_len(u64::from(w[1] - w[0])));
    varint_len(keys.len() as u64) + varint_len(u64::from(keys[0])) + gaps.sum::<usize>()
}

/// Writes a record's key list, non-empty and strictly ascending: its
/// count, the first key, then the gap to each next one.
fn write_keys(buf: &mut Vec<u8>, keys: &[ItemId]) {
    write_varint(buf, keys.len() as u64);
    write_varint(buf, u64::from(keys[0]));
    for w in keys.windows(2) {
        write_varint(buf, u64::from(w[1] - w[0]));
    }
}

/// Reads one record's key list, appending it to `out`. An empty list, a
/// count the remaining bytes cannot hold (a key takes at least one), a
/// zero gap (keys ascend strictly) and a key past the item range fail
/// [`Error::Decode`].
fn read_keys(buf: &mut &[u8], out: &mut Vec<ItemId>) -> Result<()> {
    let n = read_varint(buf)?;
    if n == 0 {
        return Err(Error::Decode("record without keys".into()));
    }
    if n > buf.len() as u64 {
        return Err(Error::Decode(format!("key count {n} exceeds input")));
    }
    let mut key = read_key(buf)?;
    out.push(key);
    for _ in 1..n {
        let gap = read_varint(buf)?;
        if gap == 0 {
            return Err(Error::Decode("keys not strictly ascending".into()));
        }
        let next = u64::from(key).saturating_add(gap);
        key = ItemId::try_from(next)
            .map_err(|_| Error::Decode(format!("pivot key out of range: {next}")))?;
        out.push(key);
    }
    Ok(())
}

/// One combined map-side record: its mixed hash, routing bucket, interned
/// payload id, its keys' range in the combiner's key arena and its
/// accumulated weight.
struct CombineEntry {
    hash: u64,
    bucket: u32,
    payload: u32,
    keys: (u32, u32),
    weight: u64,
}

/// Map-side emitter of [`run_round`].
///
/// [`emit`](Combiner::emit) performs MapReduce-style *weighted
/// deduplication*: records with identical payload and bucket key list
/// within one map task are merged by summing weights before
/// serialization. The payload is an opaque pre-encoded byte string; the
/// combiner interns it so each bucket chunk stores the bytes at most once.
/// A map task whose payload bytes, keys or records outgrow the `u32` ids
/// and offsets fails the round with [`Error::Invalid`].
pub struct Combiner {
    reducers: usize,
    /// Payload intern table: hash → payload id.
    payload_table: ProbeTable,
    payload_hashes: Vec<u64>,
    /// Payload `i` occupies `payload_data[payload_ends[i - 1]..payload_ends[i]]`.
    payload_ends: Vec<u32>,
    payload_data: Vec<u8>,
    /// Combine table: mixed hash → entry index.
    entry_table: ProbeTable,
    entries: Vec<CombineEntry>,
    /// The entries' key lists, back to back.
    keys: Vec<ItemId>,
    /// Per bucket, the keys of the current `emit` routed to it, and the
    /// buckets those lists are open for, in first-key order.
    open: Vec<Vec<ItemId>>,
    touched: Vec<u32>,
    emitted: u64,
    /// The first `emit` that did not fit, returned by `into_task_out`.
    overflow: Option<Error>,
}

impl Combiner {
    fn new(reducers: usize) -> Combiner {
        Combiner {
            reducers,
            payload_table: ProbeTable::new(),
            payload_hashes: Vec::new(),
            payload_ends: Vec::new(),
            payload_data: Vec::new(),
            entry_table: ProbeTable::new(),
            entries: Vec::new(),
            keys: Vec::new(),
            open: vec![Vec::new(); reducers],
            touched: Vec::new(),
            emitted: 0,
            overflow: None,
        }
    }

    #[inline]
    fn payload_bytes(&self, id: u32) -> &[u8] {
        let start = if id == 0 {
            0
        } else {
            self.payload_ends[id as usize - 1] as usize
        };
        &self.payload_data[start..self.payload_ends[id as usize] as usize]
    }

    /// Interns `payload` by content and returns its id.
    fn intern_payload(&mut self, payload: &[u8]) -> Result<u32> {
        let phash = hash_bytes(payload);
        let hashes = &self.payload_hashes;
        self.payload_table
            .grow_if_needed(hashes.len(), |i| hashes[i as usize]);
        match self.payload_table.find(phash, |i| {
            self.payload_hashes[i as usize] == phash && self.payload_bytes(i) == payload
        }) {
            Ok(i) => Ok(i),
            Err(slot) => {
                if !fits_u32(self.payload_data.len() + payload.len())
                    || !fits_u32(self.payload_hashes.len() + 1)
                {
                    return Err(too_wide("a map task's payload bytes"));
                }
                let id = self.payload_hashes.len() as u32;
                self.payload_hashes.push(phash);
                self.payload_data.extend_from_slice(payload);
                self.payload_ends.push(self.payload_data.len() as u32);
                self.payload_table.insert(slot, id);
                Ok(id)
            }
        }
    }

    /// Emits `payload` with `weight` to every key of `keys`, which must
    /// ascend strictly (an emit that breaks this fails the round with
    /// [`Error::Invalid`]; an empty list emits nothing). The payload is
    /// interned once, each key hashed once for its bucket, and each bucket
    /// the keys reach gets one record holding its share of them, in order:
    /// one combine probe per (emit, bucket), not per key.
    pub fn emit(&mut self, keys: &[ItemId], payload: &[u8], weight: u64) {
        if self.overflow.is_some() || keys.is_empty() {
            return;
        }
        if keys.windows(2).any(|w| w[0] >= w[1]) {
            self.overflow = Some(Error::Invalid(
                "a record's keys must ascend strictly".into(),
            ));
            return;
        }
        self.emitted += keys.len() as u64;
        let payload_id = match self.intern_payload(payload) {
            Ok(id) => id,
            Err(e) => {
                self.overflow = Some(e);
                return;
            }
        };
        for &k in keys {
            let b = bucket_of(key_hash(k), self.reducers);
            if self.open[b].is_empty() {
                self.touched.push(b as u32);
            }
            self.open[b].push(k);
        }
        for t in 0..self.touched.len() {
            let b = self.touched[t] as usize;
            let bucket_keys = std::mem::take(&mut self.open[b]);
            self.combine(b as u32, payload_id, &bucket_keys, weight);
            self.open[b] = bucket_keys;
            self.open[b].clear();
        }
        self.touched.clear();
    }

    /// Merges one record into the combine table on `(payload, keys)`.
    fn combine(&mut self, bucket: u32, payload: u32, keys: &[ItemId], weight: u64) {
        let phash = self.payload_hashes[payload as usize];
        let hash = keys.iter().fold(phash, |h, &k| mix(h, u64::from(k)));
        let (table, entries, arena) = (&mut self.entry_table, &mut self.entries, &mut self.keys);
        table.grow_if_needed(entries.len(), |i| entries[i as usize].hash);
        match table.find(hash, |i| {
            let e = &entries[i as usize];
            e.hash == hash
                && e.payload == payload
                && arena[e.keys.0 as usize..e.keys.1 as usize] == *keys
        }) {
            Ok(i) => entries[i as usize].weight += weight,
            Err(_) if !fits_u32(entries.len() + 1) || !fits_u32(arena.len() + keys.len()) => {
                self.overflow = Some(too_wide("a map task's records"));
            }
            Err(slot) => {
                let start = arena.len() as u32;
                arena.extend_from_slice(keys);
                entries.push(CombineEntry {
                    hash,
                    bucket,
                    payload,
                    keys: (start, arena.len() as u32),
                    weight,
                });
                table.insert(slot, entries.len() as u32 - 1);
            }
        }
    }

    /// Serializes the combined records into per-bucket chunks (see the
    /// module docs for the format).
    ///
    /// Per bucket, a linear scatter groups the entries, a counting pass
    /// assigns bucket-local payload ids (first-use order) and sums the
    /// exact byte size, and a copy pass writes the chunk into a buffer of
    /// exactly that capacity.
    fn into_task_out(self) -> Result<MapTaskOut> {
        if let Some(e) = self.overflow {
            return Err(e);
        }
        let reducers = self.reducers;
        // Linear bucket scatter (stable: preserves emit order per bucket).
        let mut counts = vec![0u32; reducers];
        for e in &self.entries {
            counts[e.bucket as usize] += 1;
        }
        let mut starts = vec![0u32; reducers + 1];
        for b in 0..reducers {
            starts[b + 1] = starts[b] + counts[b];
        }
        let mut order = vec![0u32; self.entries.len()];
        let mut cursor = starts.clone();
        for (i, e) in self.entries.iter().enumerate() {
            let c = &mut cursor[e.bucket as usize];
            order[*c as usize] = i as u32;
            *c += 1;
        }

        // Bucket-local payload ids, reset per bucket via epochs.
        let mut local_id = vec![0u32; self.payload_hashes.len()];
        let mut local_epoch = vec![u32::MAX; self.payload_hashes.len()];
        let mut plist: Vec<u32> = Vec::new();
        let keys_of = |e: &CombineEntry| &self.keys[e.keys.0 as usize..e.keys.1 as usize];

        let mut buckets: Vec<Vec<u8>> = Vec::with_capacity(reducers);
        let mut payloads_written = 0u64;
        for b in 0..reducers {
            let entries = &order[starts[b] as usize..starts[b + 1] as usize];
            if entries.is_empty() {
                buckets.push(Vec::new());
                continue;
            }
            // Counting pass: local payload directory + exact chunk size.
            plist.clear();
            let mut dict_bytes = 0usize;
            let mut rec_bytes = 0usize;
            for &i in entries {
                let e = &self.entries[i as usize];
                let p = e.payload as usize;
                if local_epoch[p] != b as u32 {
                    local_epoch[p] = b as u32;
                    local_id[p] = plist.len() as u32;
                    plist.push(e.payload);
                    let len = self.payload_bytes(e.payload).len();
                    dict_bytes += varint_len(len as u64) + len;
                }
                rec_bytes += varint_len(u64::from(local_id[p]))
                    + varint_len(e.weight)
                    + keys_len(keys_of(e));
            }
            let total = varint_len(plist.len() as u64) + dict_bytes + rec_bytes;
            let mut buf = Vec::with_capacity(total);
            write_varint(&mut buf, plist.len() as u64);
            for &p in &plist {
                write_bytes(&mut buf, self.payload_bytes(p));
            }
            for &i in entries {
                let e = &self.entries[i as usize];
                write_varint(&mut buf, u64::from(local_id[e.payload as usize]));
                write_varint(&mut buf, e.weight);
                write_keys(&mut buf, keys_of(e));
            }
            debug_assert_eq!(buf.len(), total, "combine chunk size miscounted");
            payloads_written += plist.len() as u64;
            buckets.push(buf);
        }
        Ok(MapTaskOut {
            buckets,
            emitted: self.emitted,
            shuffled: self.entries.len() as u64,
            payloads: payloads_written,
        })
    }
}

/// The byte-space output of one map task: one serialized chunk per reduce
/// bucket plus the combine accounting. This is the unit that crosses a
/// [`ShuffleTransport`] — already fully encoded, so shipping it over a
/// socket is a plain byte copy.
pub struct MapTaskOut {
    /// One encoded chunk per reduce bucket (an empty bucket is an empty
    /// chunk). Always exactly `ctx.reducers` entries.
    pub buckets: Vec<Vec<u8>>,
    /// Keys emitted by the mapper — one per (key, payload) pair — before
    /// combining.
    pub emitted: u64,
    /// Records written to the shuffle, after combining.
    pub shuffled: u64,
    /// Distinct payload byte strings interned across the bucket chunks
    /// (0 for the plain map-reduce shape).
    pub payloads: u64,
}

/// Byte strings borrowed from the shuffle chunks, interned by content:
/// equal bytes get one dense id and one slice, whichever chunk they came
/// from.
#[derive(Default)]
struct Interner<'c> {
    table: ProbeTable,
    hashes: Vec<u64>,
    slices: Vec<&'c [u8]>,
}

impl<'c> Interner<'c> {
    fn intern(&mut self, bytes: &'c [u8]) -> Result<u32> {
        let hash = hash_bytes(bytes);
        let hashes = &self.hashes;
        self.table
            .grow_if_needed(hashes.len(), |i| hashes[i as usize]);
        match self.table.find(hash, |i| {
            self.hashes[i as usize] == hash && self.slices[i as usize] == bytes
        }) {
            Ok(i) => Ok(i),
            Err(_) if !fits_u32(self.slices.len() + 1) => Err(too_wide("a reduce call's payloads")),
            Err(slot) => {
                let id = self.slices.len() as u32;
                self.hashes.push(hash);
                self.slices.push(bytes);
                self.table.insert(slot, id);
                Ok(id)
            }
        }
    }
}

/// One shuffle record of a bucket: its bucket payload id, its keys'
/// range in the bucket's key arena and its weight.
#[derive(Clone, Copy)]
struct Record {
    payload: u32,
    keys: (u32, u32),
    weight: u64,
}

/// One input of a key group: its key, its bucket payload id and the weight
/// of the group's inputs with that payload, summed.
#[derive(Clone, Copy, Default)]
struct Entry {
    key: ItemId,
    payload: u32,
    weight: u64,
}

/// One reduce bucket after the merge: its distinct payloads by bucket
/// payload id (equal payloads of different map tasks share one), and its
/// records in arrival order (map task, then record) with their keys in
/// one arena. Every payload slice borrows from the shuffle chunks. What a
/// reducer reads of it — key groups, inputs — is built from the records
/// on first use ([`Bucket`]).
struct MergedBucket<'c> {
    payloads: Vec<&'c [u8]>,
    records: Vec<Record>,
    keys: Vec<ItemId>,
}

/// Scatters `entries` (`n` of them) stably into ascending order of
/// `digit`, whose values stay below `radix`: one counting pass, one
/// placing pass.
fn scatter_by(
    entries: impl Iterator<Item = Entry> + Clone,
    n: usize,
    radix: usize,
    digit: impl Fn(&Entry) -> usize,
) -> Vec<Entry> {
    let mut at = vec![0usize; radix + 1];
    for e in entries.clone() {
        at[digit(&e) + 1] += 1;
    }
    for d in 0..radix {
        at[d + 1] += at[d];
    }
    let mut out = vec![Entry::default(); n];
    for e in entries {
        let slot = &mut at[digit(&e)];
        out[*slot] = e;
        *slot += 1;
    }
    out
}

/// The reduce-side merge of one bucket (see the module docs): decodes its
/// shuffle chunks into records and interns their payloads across the
/// bucket. Every array is sized by a count of records, keys or dictionary
/// entries read so far — so by the chunks' own length.
fn merge_bucket(chunks: &[Vec<u8>]) -> Result<MergedBucket<'_>> {
    let mut payloads = Interner::default();
    let mut records: Vec<Record> = Vec::new();
    let mut keys: Vec<ItemId> = Vec::new();
    // The current chunk's dictionary: chunk-local → bucket payload id.
    let mut local: Vec<u32> = Vec::new();
    for chunk in chunks {
        let mut slice = chunk.as_slice();
        let np = read_varint(&mut slice)? as usize;
        if np > slice.len() {
            return Err(Error::Decode(format!(
                "payload dictionary: count {np} exceeds input"
            )));
        }
        local.clear();
        for _ in 0..np {
            let len = read_varint(&mut slice)? as usize;
            let (payload, rest) = slice
                .split_at_checked(len)
                .ok_or_else(|| Error::Decode(format!("payload: length {len} exceeds input")))?;
            local.push(payloads.intern(payload)?);
            slice = rest;
        }
        while !slice.is_empty() {
            let pid = read_varint(&mut slice)?;
            let payload = *usize::try_from(pid)
                .ok()
                .and_then(|p| local.get(p))
                .ok_or_else(|| Error::Decode(format!("payload id {pid} out of range")))?;
            let weight = read_varint(&mut slice)?;
            let start = keys.len();
            read_keys(&mut slice, &mut keys)?;
            if !fits_u32(keys.len()) || !fits_u32(records.len() + 1) {
                return Err(too_wide("a bucket's records"));
            }
            records.push(Record {
                payload,
                keys: (start as u32, keys.len() as u32),
                weight,
            });
        }
    }
    Ok(MergedBucket {
        payloads: payloads.slices,
        records,
        keys,
    })
}

/// A bucket's key groups: per group its key and its inputs' range in
/// `entries`, keys ascending, each group's payloads distinct with their
/// weights summed, in first-arrival order.
struct Grouped {
    groups: Vec<(ItemId, Range<usize>)>,
    entries: Vec<Entry>,
}

/// Scatters a bucket's records into key groups, with no hash probe per
/// key: a counting sort on the key values (16 bits a pass) and an
/// epoch-stamped array indexed by payload id that merges duplicates
/// within a group. Sized by the records' keys, or by 2¹⁶ + 1 counters.
fn group(bucket: &MergedBucket<'_>) -> Grouped {
    let keys = &bucket.keys;
    // Every record's keys in arrival order, sorted stably by key: by the
    // low 16 bits, then — only if some key is wider — by the high.
    let arrivals = bucket.records.iter().flat_map(|rec| {
        let range = rec.keys.0 as usize..rec.keys.1 as usize;
        keys[range].iter().map(move |&key| Entry {
            key,
            payload: rec.payload,
            weight: rec.weight,
        })
    });
    let max = keys.iter().copied().max().unwrap_or(0);
    let low = (max as usize).min(0xffff) + 1;
    let mut entries = scatter_by(arrivals, keys.len(), low, |e| (e.key & 0xffff) as usize);
    if max > 0xffff {
        let high = (max >> 16) as usize + 1;
        let by_low = std::mem::take(&mut entries);
        entries = scatter_by(by_low.into_iter(), keys.len(), high, |e| {
            (e.key >> 16) as usize
        });
    }

    // Runs of one key are its group. Duplicate payloads within a group:
    // `stamp[p]` names the last group that saw payload `p`, `at[p]` where
    // that group keeps it; the kept entry is the first arrival's.
    let mut stamp = vec![u32::MAX; bucket.payloads.len()];
    let mut at = vec![0usize; bucket.payloads.len()];
    let mut groups: Vec<(ItemId, Range<usize>)> = Vec::new();
    let (mut read, mut kept) = (0, 0);
    while read < entries.len() {
        let key = entries[read].key;
        let (g, first) = (groups.len() as u32, kept);
        while read < entries.len() && entries[read].key == key {
            let e = entries[read];
            let p = e.payload as usize;
            if stamp[p] == g {
                let weight = &mut entries[at[p]].weight;
                *weight = weight.saturating_add(e.weight);
            } else {
                stamp[p] = g;
                at[p] = kept;
                entries[kept] = e;
                kept += 1;
            }
            read += 1;
        }
        groups.push((key, first..kept));
    }
    entries.truncate(kept);
    Grouped { groups, entries }
}

/// A bucket's inputs: per bucket payload, the summed weight of its
/// records and the range of its keys in the bucket's key arena — `None`
/// for a dictionary entry no record names.
type BucketInputs = Vec<Option<(u64, (u32, u32))>>;

/// One pass over a bucket's records, folding each into its payload's
/// input: weights add up, and every record of a payload must name the
/// same keys — a mapper emits a payload once with all of its keys, so a
/// differing list came off a damaged shuffle and fails [`Error::Decode`].
fn bucket_inputs(bucket: &MergedBucket<'_>) -> Result<BucketInputs> {
    let mut of: BucketInputs = vec![None; bucket.payloads.len()];
    let slice = |(start, end): (u32, u32)| &bucket.keys[start as usize..end as usize];
    for rec in &bucket.records {
        match &mut of[rec.payload as usize] {
            slot @ None => *slot = Some((rec.weight, rec.keys)),
            Some((_, keys)) if slice(*keys) != slice(rec.keys) => {
                return Err(Error::Decode(format!(
                    "bucket payload {} arrives under two key lists",
                    rec.payload
                )));
            }
            Some((weight, _)) => *weight = weight.saturating_add(rec.weight),
        }
    }
    Ok(of)
}

/// The reduce-side merge of one bucket's shuffle chunks and the inputs a
/// D-SEQ reducer reads of it: its number of inputs and of their keys.
/// Exposed for the kernel benchmarks.
#[doc(hidden)]
pub fn merge_bucket_sizes(chunks: &[Vec<u8>]) -> Result<(usize, usize)> {
    let merged = merge_bucket(chunks)?;
    let inputs = bucket_inputs(&merged)?;
    let keys = inputs
        .iter()
        .flatten()
        .map(|&(_, (start, end))| end - start);
    Ok((inputs.iter().flatten().count(), keys.sum::<u32>() as usize))
}

/// The payload ids of one reduce call (all buckets in process, the one
/// bucket of a worker process's task): per bucket, the call's id of each
/// bucket payload — equal payloads of different buckets share one. One
/// probe per bucket payload, on the call's first [`Bucket::inputs`];
/// reducers that read only key groups never pay for it.
fn call_ids(buckets: &[MergedBucket<'_>]) -> Result<Vec<Vec<u32>>> {
    let mut shared = Interner::default();
    buckets
        .iter()
        .map(|b| b.payloads.iter().map(|&p| shared.intern(p)).collect())
        .collect()
}

/// What one reduce task of a [`run_round`] covers — a [`Bucket`] or a
/// run of its keys. Either way every key of the round is reduced exactly
/// once, and the patterns and their order do not depend on the unit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceUnit {
    /// A run of adjacent key groups of one bucket, for reducers that work
    /// key by key ([`Bucket::groups`]). Light groups are batched until a
    /// task holds enough inputs to amortize a queue round trip, or at a
    /// group-count cap so huge flocks of trivial keys still split; a heavy
    /// group gets a task of its own. So a hot key is balanced across
    /// workers instead of pinning its whole bucket to one thread, and more
    /// workers than buckets all get work.
    KeyRuns,
    /// A whole bucket, for a reducer that mines a bucket's inputs together
    /// ([`Bucket::inputs`]): D-SEQ.
    Buckets,
}

/// Light key groups batched into one [`ReduceUnit::KeyRuns`] task close
/// once they hold this many inputs...
const INPUTS_PER_TASK: usize = 256;
/// ...or this many groups.
const GROUPS_PER_TASK: usize = 64;

/// The views of one bucket, each built on its first use: under
/// [`ReduceUnit::KeyRuns`] the groups are built by the merge and shared by
/// the bucket's tasks; under [`ReduceUnit::Buckets`] the one task that
/// reduces the bucket builds what it reads and drops it when done.
#[derive(Default)]
struct BucketViews {
    groups: OnceLock<Grouped>,
    inputs: OnceLock<Result<BucketInputs>>,
}

/// What one reduce task gets: a bucket, or under [`ReduceUnit::KeyRuns`]
/// a run of its keys — its key groups ([`groups`](Self::groups)), or its
/// inputs with their payload ids and keys ([`inputs`](Self::inputs)), and
/// which keys it reduces ([`owns`](Self::owns)). A reducer reads whichever
/// view it needs; the other is never built.
#[derive(Clone, Copy)]
pub struct Bucket<'a> {
    /// The reduce call's buckets, this one among them at `at`.
    call: &'a [MergedBucket<'a>],
    at: usize,
    /// This bucket's index among the round's `reducers`.
    route: usize,
    reducers: usize,
    /// The task's key groups and their keys' span: all of them, or a run.
    run: Option<(usize, usize)>,
    span: (ItemId, ItemId),
    ids: &'a OnceLock<Result<Vec<Vec<u32>>>>,
    views: &'a BucketViews,
    cancel: Option<&'a CancelToken>,
}

/// One key group of a [`Bucket`]: the key's distinct payloads with their
/// weights summed across map tasks, in first-arrival order (map task,
/// then record).
#[derive(Clone, Copy)]
pub struct KeyGroup<'a> {
    payloads: &'a [&'a [u8]],
    entries: &'a [Entry],
}

/// One input of a [`Bucket`]: a distinct payload with what a reducer
/// caches per payload under. The id is dense over the reduce call (all
/// buckets in process, the one bucket of a worker process's task), so a
/// vector indexed by it serves every bucket a reduce worker mines.
#[derive(Clone, Copy)]
pub struct Input<'a> {
    /// The payload bytes, borrowed from the shuffle buffers.
    pub payload: &'a [u8],
    /// The summed weight of the bucket's records with this payload.
    pub weight: u64,
    /// The payload's id: equal bytes share it, in every bucket of the
    /// call.
    pub payload_id: u32,
    /// Every key of the task the payload goes to, ascending.
    pub keys: &'a [ItemId],
}

impl<'a> Bucket<'a> {
    /// Whether this task reduces `key`: whether `key` routes to the bucket
    /// (and lies in the task's run of keys) — so whether the task owns a
    /// pattern whose pivot is `key`.
    pub fn owns(&self, key: ItemId) -> bool {
        bucket_of(key_hash(key), self.reducers) == self.route
            && (self.span.0..=self.span.1).contains(&key)
    }

    /// The task's key groups, keys ascending, with the same groups and
    /// order on every transport and at every worker count. The groups are
    /// scattered from the records on the first call. The iteration polls
    /// the run's token before each group and ends once it trips; the round
    /// then fails with the token's stop reason.
    pub fn groups(&self) -> impl Iterator<Item = (ItemId, KeyGroup<'a>)> + 'a {
        let bucket = &self.call[self.at];
        let grouped = self.views.groups.get_or_init(|| group(bucket));
        let (from, to) = self.run.unwrap_or((0, grouped.groups.len()));
        let cancel = self.cancel;
        let live = move |_: &&(ItemId, Range<usize>)| cancel.is_none_or(|t| t.checkpoint().is_ok());
        grouped.groups[from..to]
            .iter()
            .take_while(live)
            .map(move |(key, range)| {
                let group = KeyGroup {
                    payloads: &bucket.payloads,
                    entries: &grouped.entries[range.clone()],
                };
                (*key, group)
            })
    }

    /// The task's inputs: one per distinct payload with a key the task
    /// owns, in first-arrival order, with its records' summed weight, its
    /// id over the call and those of its keys. The call's first `inputs`
    /// interns its payloads across buckets, which fails [`Error::Invalid`]
    /// past the shuffle's `u32` widths; a payload shipped to one bucket
    /// under two key lists fails [`Error::Decode`].
    pub fn inputs(&self) -> Result<impl Iterator<Item = Input<'a>> + 'a> {
        let call = self.call;
        let ids = self.ids.get_or_init(|| call_ids(call));
        let ids = &ids.as_ref().map_err(Clone::clone)?[self.at];
        let bucket = &call[self.at];
        let inputs = self.views.inputs.get_or_init(|| bucket_inputs(bucket));
        let inputs = inputs.as_ref().map_err(Clone::clone)?;
        let (lo, hi) = self.span;
        Ok(inputs.iter().enumerate().filter_map(move |(p, of)| {
            let (weight, (start, end)) = (*of)?;
            let keys = &bucket.keys[start as usize..end as usize];
            let keys = &keys[keys.partition_point(|&k| k < lo)..keys.partition_point(|&k| k <= hi)];
            (!keys.is_empty()).then(|| Input {
                payload: bucket.payloads[p],
                weight,
                payload_id: ids[p],
                keys,
            })
        }))
    }
}

impl<'a> KeyGroup<'a> {
    /// Number of distinct payloads in the group.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the group holds no payload (never the case for a group
    /// the engine hands to a reducer).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The group's payloads and summed weights, in first-arrival order.
    pub fn payloads(&self) -> impl ExactSizeIterator<Item = (&'a [u8], u64)> + 'a {
        let payloads = self.payloads;
        self.entries
            .iter()
            .map(move |e| (payloads[e.payload as usize], e.weight))
    }
}

/// Decodes one bucket's reduce outputs (see the module docs), appending
/// to `out`. Rejects hostile counts before any allocation and trailing
/// garbage after the last output.
fn decode_bucket_outputs(bytes: &[u8], out: &mut Vec<(Sequence, u64)>) -> Result<()> {
    let mut slice = bytes;
    let n = read_varint(&mut slice)? as usize;
    if n > slice.len() {
        return Err(Error::Decode(format!(
            "bucket output: count {n} exceeds input"
        )));
    }
    for _ in 0..n {
        let mut pattern = Sequence::new();
        decode_item_seq(&mut slice, &mut pattern)?;
        out.push((pattern, read_varint(&mut slice)?));
    }
    wire::expect_end(slice, "bucket output")
}

/// The map inputs of a round over `ctx`, once `ctx` is valid: its
/// database cut into `ctx.partitions` contiguous chunks.
fn partitions<'c>(ctx: &MiningContext<'c>) -> Result<Vec<&'c [Sequence]>> {
    ctx.validate()?;
    Ok(ctx.db.partition(ctx.partitions))
}

/// A finished round over `ctx` that started at `t0` as a job result: the
/// reducers' patterns sorted, and the measurements the round's phases do
/// not know filled in — wall time, output count, `ctx.workers`, the input
/// size and whether the token stopped the run.
fn job_result(
    ctx: &MiningContext<'_>,
    t0: Instant,
    patterns: Vec<(Sequence, u64)>,
    metrics: MiningMetrics,
) -> MiningResult {
    MiningResult {
        metrics: MiningMetrics {
            wall_nanos: t0.elapsed().as_nanos() as u64,
            output_records: patterns.len() as u64,
            workers: ctx.workers as u64,
            input_sequences: ctx.db.len() as u64,
            cancelled: ctx.cancel.is_some_and(CancelToken::is_stopped),
            ..metrics
        },
        patterns: desq_miner::sort_patterns(patterns),
    }
}

/// Runs a map → shuffle → reduce round without a combiner, in process
/// only. Its one caller is D-CAND's no-aggregation ablation (Fig. 10b,
/// "tries, no agg"), which must ship and expand every NFA copy: the
/// combining round ([`run_round`]) would merge identical payloads on both
/// sides and change the figure's time and bytes.
///
/// The mapper emits `(pivot, payload, weight)` triples, each written to
/// its bucket as it comes: `varint(pivot), varint(len), payload,
/// varint(weight)`. The reducer gets each pivot once, pivots ascending
/// within a bucket, with every record it received — duplicates included,
/// in map-task emission order — as payload slices borrowed from the
/// shuffle buffers. `init` runs once per reduce worker, and each bucket is
/// one reduce task.
pub(crate) fn map_reduce<S, MF, IF, RF>(
    ctx: &MiningContext<'_>,
    map: MF,
    init: IF,
    reduce: RF,
) -> Result<MiningResult>
where
    S: Send,
    MF: Fn(&[Sequence], &mut dyn FnMut(ItemId, &[u8], u64)) -> Result<()> + Sync,
    IF: Fn() -> S + Sync,
    RF: Fn(&mut S, ItemId, &[(&[u8], u64)], &mut dyn FnMut((Sequence, u64))) -> Result<()> + Sync,
{
    let t0 = Instant::now();
    let parts = partitions(ctx)?;
    let mut metrics = MiningMetrics::default();

    // ---- map phase ----
    let reducers = ctx.reducers;
    let mapped = run_tasks(ctx, parts.len(), |t| {
        let mut buckets = vec![Vec::new(); reducers];
        let mut emitted = 0u64;
        map(parts[t], &mut |pivot, payload, weight| {
            let buf = &mut buckets[bucket_of(key_hash(pivot), reducers)];
            write_varint(buf, u64::from(pivot));
            write_bytes(buf, payload);
            write_varint(buf, weight);
            emitted += 1;
        })?;
        Ok(MapTaskOut {
            buckets,
            emitted,
            shuffled: emitted,
            payloads: 0,
        })
    })?;
    metrics.map_nanos = t0.elapsed().as_nanos() as u64;

    let chunks = regroup(reducers, mapped.results, &mut metrics);

    // ---- reduce phase ----
    let t1 = Instant::now();
    let reduced = sched::run_indexed(
        reducers,
        ctx.workers,
        ctx.cancel,
        init,
        |t, state: &mut S| {
            let mut groups: BTreeMap<ItemId, Vec<(&[u8], u64)>> = BTreeMap::new();
            for chunk in &chunks[t] {
                let mut slice = chunk.as_slice();
                while !slice.is_empty() {
                    let pivot = read_key(&mut slice)?;
                    let rec = (read_bytes(&mut slice)?, read_varint(&mut slice)?);
                    groups.entry(pivot).or_default().push(rec);
                }
            }
            let mut out = Vec::new();
            for (pivot, recs) in &groups {
                reduce(state, *pivot, recs, &mut |o| out.push(o))?;
            }
            Ok(out)
        },
    )?;
    metrics.reduce_nanos = t1.elapsed().as_nanos() as u64;
    metrics.max_task_nanos = mapped.max_task_nanos.max(reduced.max_task_nanos);
    metrics.tasks = reduced.tasks;
    metrics.steals = reduced.steals;

    let patterns = reduced.results.into_iter().flatten().collect();
    Ok(job_result(ctx, t0, patterns, metrics))
}

/// Where a [`run_round`] runs.
pub enum Exec<'a> {
    /// Drive the round through a shuffle transport: [`InProcess`] runs its
    /// tasks on this process's threads, a [`NetCoordinator`] farms them
    /// out to worker processes.
    ///
    /// [`InProcess`]: super::InProcess
    /// [`NetCoordinator`]: super::NetCoordinator
    Via(&'a dyn ShuffleTransport),
    /// Serve the round as a worker process: connect to the coordinator at
    /// this address (under the default
    /// [`RetryPolicy`](desq_core::retry::RetryPolicy)), run the map tasks
    /// and reduce the buckets it is sent against this process's own copy
    /// of the partitions and closures, and return when the coordinator
    /// ends the round. Every process of a round must build an equal
    /// context (same corpus, same parallelism) and the same closures —
    /// only task ids and encoded bytes cross the wire. Fails
    /// [`Error::PeerUnreachable`] once the reconnect budget is spent.
    Worker(SocketAddr),
}

/// Runs one map → combine → shuffle → reduce round over `ctx` the way
/// `exec` says: the result of a driven round, `None` for a worker.
///
/// The mapper receives one input partition and a [`Combiner`]: it emits
/// `(pivot keys, payload bytes, weight)`, where the payload is pre-encoded
/// **once** by the caller (for item sequences with [`encode_item_seq`])
/// and goes to every key of the ascending list. Each bucket those keys
/// reach gets one record; records with identical payload and bucket keys
/// within one map task are merged by summing weights before
/// serialization, and payload byte strings are interned per bucket chunk
/// — the aggregation D-CAND applies to identical NFAs (Sec. VI-A) and
/// D-SEQ/LASH apply to identical rewritten sequences.
///
/// The reducer is invoked once per reduce task with its [`Bucket`] — a
/// whole bucket, or a run of its keys, as `unit` says: its key groups,
/// pivots ascending, each holding all distinct payloads of its key and
/// their total weights (merged across map tasks) in first-arrival order
/// (map task, then record) — or its inputs, one per distinct payload with
/// the task's keys it goes to. Every payload is a slice *borrowed from the
/// shuffle buffers*; equal payloads share one slice and one id. The tasks
/// run under work stealing in whichever process holds the buckets. `init`
/// runs once per worker per reduce call (all buckets in process, one
/// bucket on a worker process), and the payload ids of [`Bucket::inputs`]
/// are dense over that call, so caches indexed by them (D-SEQ's tables)
/// stay valid across its buckets.
///
/// The emitted patterns cross the transport encoded (see the module
/// docs); the result holds them sorted, with the round's wall time, its
/// input size and `ctx.workers` filled in.
/// [`MiningMetrics::tasks`]/[`steals`](MiningMetrics::steals) count
/// reduce tasks in process and shipped buckets over the network.
pub fn run_round<S, MF, IF, RF>(
    ctx: &MiningContext<'_>,
    exec: Exec<'_>,
    unit: ReduceUnit,
    map: MF,
    init: IF,
    reduce: RF,
) -> Result<Option<MiningResult>>
where
    S: Send,
    MF: Fn(&[Sequence], &mut Combiner) -> Result<()> + Sync,
    IF: Fn() -> S + Sync,
    RF: Fn(&mut S, Bucket<'_>, &mut dyn FnMut((Sequence, u64))) -> Result<()> + Sync,
{
    let t0 = Instant::now();
    let parts = partitions(ctx)?;
    let map_task = |t: usize| -> Result<MapTaskOut> {
        let part = parts
            .get(t)
            .ok_or_else(|| Error::Invalid(format!("no map task {t}")))?;
        let mut combiner = Combiner::new(ctx.reducers);
        map(part, &mut combiner)?;
        combiner.into_task_out()
    };
    let reduce_task = |first: usize, buckets: &[Vec<Vec<u8>>]| {
        reduce_buckets(ctx, unit, first, buckets, &init, &reduce)
    };
    let transport = match exec {
        Exec::Via(transport) => transport,
        Exec::Worker(addr) => {
            let on_map = |task: u64| map_task(usize::try_from(task).unwrap_or(usize::MAX));
            return worker_loop(addr, &on_map, &reduce_task).map(|()| None);
        }
    };

    let mut metrics = MiningMetrics::default();

    // ---- map + combine phase ----
    let (outs, map_stats) = transport.map_phase(ctx, parts.len(), &map_task)?;
    metrics.map_nanos = t0.elapsed().as_nanos() as u64;

    let chunks = regroup(ctx.reducers, outs, &mut metrics);

    // ---- reduce phase ----
    let t1 = Instant::now();
    let (bucket_outs, reduce_stats) = transport.reduce_phase(ctx, chunks, &reduce_task)?;
    metrics.reduce_nanos = t1.elapsed().as_nanos() as u64;
    for s in [map_stats, reduce_stats] {
        metrics.retried_tasks += s.retried_tasks;
        metrics.peer_timeouts += s.peer_timeouts;
        metrics.max_task_nanos = metrics.max_task_nanos.max(s.max_task_nanos);
        metrics.tasks += s.tasks;
        metrics.steals += s.steals;
    }

    let mut patterns: Vec<(Sequence, u64)> = Vec::new();
    for bytes in bucket_outs {
        decode_bucket_outputs(&bytes, &mut patterns)?;
    }
    Ok(Some(job_result(ctx, t0, patterns, metrics)))
}

/// The one reduce of a round, over `chunks` (one list per bucket, the
/// first of them bucket `first` of the round): each bucket's outputs
/// encoded for the transport plus the phase counters. Buckets are merged
/// in parallel, then their tasks — as `unit` cuts them — run under work
/// stealing, with one `init()` state per worker. A run of buckets past the
/// round's `reducers` (a damaged task index) fails [`Error::Decode`].
fn reduce_buckets<S, IF, RF>(
    ctx: &MiningContext<'_>,
    unit: ReduceUnit,
    first: usize,
    chunks: &[Vec<Vec<u8>>],
    init: &IF,
    reduce: &RF,
) -> Result<(Vec<Vec<u8>>, PhaseStats)>
where
    S: Send,
    IF: Fn() -> S,
    RF: Fn(&mut S, Bucket<'_>, &mut dyn FnMut((Sequence, u64))) -> Result<()> + Sync,
{
    if first
        .checked_add(chunks.len())
        .is_none_or(|end| end > ctx.reducers)
    {
        return Err(Error::Decode(format!(
            "reduce task for buckets {first}.. of a round with {} reducers",
            ctx.reducers
        )));
    }
    // Step 1 (parallel, one task per bucket): decode the shuffle chunks,
    // and scatter them into key groups if the tasks are cut by those.
    let merged = run_tasks(ctx, chunks.len(), |t| {
        let (bucket, views) = (merge_bucket(&chunks[t])?, BucketViews::default());
        if unit == ReduceUnit::KeyRuns {
            views.groups.get_or_init(|| group(&bucket));
        }
        Ok((bucket, views))
    })?;
    let merge_nanos = merged.max_task_nanos;
    let (buckets, views): (Vec<_>, Vec<_>) = merged.results.into_iter().unzip();
    // Payload ids over the whole call, built by the first reducer that
    // asks (`Bucket::inputs`), so a worker that reduces several buckets
    // builds each payload's state once, for every bucket it goes to.
    let ids = OnceLock::new();

    // Step 2: cut the tasks, in (bucket, key) order, so the index-ordered
    // results reproduce the sequential per-bucket iteration exactly.
    let mut tasks: Vec<(usize, Option<(usize, usize)>)> = Vec::new(); // (bucket, groups)
    for (b, views) in views.iter().enumerate() {
        let Some(grouped) = views.groups.get() else {
            tasks.push((b, None));
            continue;
        };
        let (mut start, mut inputs) = (0, 0);
        for (g, (_, entries)) in grouped.groups.iter().enumerate() {
            inputs += entries.len();
            let last = g + 1 == grouped.groups.len();
            if last || inputs >= INPUTS_PER_TASK || g + 1 - start >= GROUPS_PER_TASK {
                tasks.push((b, Some((start, g + 1))));
                (start, inputs) = (g + 1, 0);
            }
        }
    }
    let reduced = sched::run_indexed(
        tasks.len(),
        ctx.workers,
        ctx.cancel,
        init,
        |t, state: &mut S| {
            let (b, run) = tasks[t];
            let own = BucketViews::default();
            let views = if run.is_some() { &views[b] } else { &own };
            let span = match (run, views.groups.get()) {
                (Some((from, to)), Some(grouped)) => {
                    (grouped.groups[from].0, grouped.groups[to - 1].0)
                }
                _ => (0, ItemId::MAX),
            };
            let bucket = Bucket {
                call: &buckets,
                at: b,
                route: first + b,
                reducers: ctx.reducers,
                run,
                span,
                ids: &ids,
                views,
                cancel: ctx.cancel,
            };
            let (mut n, mut bytes) = (0u64, Vec::new());
            reduce(state, bucket, &mut |(pattern, freq)| {
                n += 1;
                encode_item_seq(&pattern, &mut bytes);
                write_varint(&mut bytes, freq);
            })?;
            Ok((n, bytes))
        },
    )?;

    // No task straddles a bucket: a bucket's outputs are its tasks', in
    // task order, and cross the transport as `varint(#outputs)` + each.
    let mut counts = vec![0u64; chunks.len()];
    for ((b, _), (n, _)) in tasks.iter().zip(&reduced.results) {
        counts[*b] += n;
    }
    let mut encoded: Vec<Vec<u8>> = vec![Vec::new(); chunks.len()];
    for (buf, n) in encoded.iter_mut().zip(counts) {
        write_varint(buf, n);
    }
    for ((b, _), (_, bytes)) in tasks.iter().zip(reduced.results) {
        encoded[*b].extend_from_slice(&bytes);
    }
    let stats = PhaseStats {
        max_task_nanos: merge_nanos.max(reduced.max_task_nanos),
        tasks: reduced.tasks,
        steals: reduced.steals,
        ..PhaseStats::default()
    };
    Ok((encoded, stats))
}

/// Runs `n` independent stateless tasks on the worker pool
/// ([`sched::run_indexed`] bound to `ctx`'s workers and token).
pub(crate) fn run_tasks<T: Send>(
    ctx: &MiningContext<'_>,
    n: usize,
    task: impl Fn(usize) -> Result<T> + Sync,
) -> Result<IndexedRun<T>> {
    sched::run_indexed(n, ctx.workers, ctx.cancel, || (), |t, ()| task(t))
}

/// Transposes map-task outputs into per-reducer chunk lists and fills in
/// shuffle metrics.
fn regroup(
    reducers: usize,
    outs: Vec<MapTaskOut>,
    metrics: &mut MiningMetrics,
) -> Vec<Vec<Vec<u8>>> {
    let mut chunks: Vec<Vec<Vec<u8>>> = (0..reducers).map(|_| Vec::new()).collect();
    let mut reducer_bytes = vec![0u64; reducers];
    for out in outs {
        metrics.emitted_records += out.emitted;
        metrics.shuffle_records += out.shuffled;
        metrics.shuffle_payloads += out.payloads;
        for (r, buf) in out.buckets.into_iter().enumerate() {
            reducer_bytes[r] += buf.len() as u64;
            if !buf.is_empty() {
                chunks[r].push(buf);
            }
        }
    }
    metrics.shuffle_bytes = reducer_bytes.iter().sum();
    metrics.reducer_bytes = reducer_bytes;
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::{InProcess, NetCoordinator};
    use desq_core::{Dictionary, DictionaryBuilder, SequenceDb};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::LazyLock;

    /// A round never reads the dictionary; a context still holds one.
    static DICT: LazyLock<Dictionary> = LazyLock::new(|| {
        DictionaryBuilder::new()
            .freeze(&SequenceDb::default())
            .unwrap()
            .0
    });

    /// A round over `db`: `workers` threads, `partitions` map tasks,
    /// `reducers` buckets.
    fn ctx(
        db: &SequenceDb,
        workers: usize,
        partitions: usize,
        reducers: usize,
    ) -> MiningContext<'_> {
        MiningContext::sequential(db, &DICT, 1)
            .with_parallelism(workers, partitions)
            .with_reducers(reducers)
    }

    /// One single-item sequence per item of `items`.
    fn singletons(items: impl IntoIterator<Item = u32>) -> SequenceDb {
        SequenceDb::new(items.into_iter().map(|x| vec![x]).collect())
    }

    /// The reducer of a distributed word count: the pivot and its total
    /// weight.
    fn count(
        (): &mut (),
        pivot: ItemId,
        recs: &[(&[u8], u64)],
        emit: &mut dyn FnMut((Sequence, u64)),
    ) -> Result<()> {
        emit((vec![pivot], recs.iter().map(|&(_, w)| w).sum()));
        Ok(())
    }

    /// [`count`] as a combining round's reducer.
    fn count_group(
        (): &mut (),
        bucket: Bucket<'_>,
        emit: &mut dyn FnMut((Sequence, u64)),
    ) -> Result<()> {
        for (pivot, group) in bucket.groups() {
            emit((vec![pivot], group.payloads().map(|(_, w)| w).sum()));
        }
        Ok(())
    }

    /// A key group's payloads and weights, collected.
    fn collected(group: KeyGroup<'_>) -> Vec<(&[u8], u64)> {
        group.payloads().collect()
    }

    /// A payload that is one little-endian `u32`.
    fn value(bytes: &[u8]) -> u64 {
        u64::from(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// A mapper emitting each item as its own pivot with an empty payload.
    fn each_item(part: &[Sequence], emit: &mut dyn FnMut(ItemId, &[u8], u64)) -> Result<()> {
        for &x in part.iter().flatten() {
            emit(x, &[], 1);
        }
        Ok(())
    }

    /// A combining mapper emitting each item as its own pivot with an
    /// empty payload.
    fn combine_each_item(part: &[Sequence], c: &mut Combiner) -> Result<()> {
        for &x in part.iter().flatten() {
            c.emit(&[x], b"", 1);
        }
        Ok(())
    }

    /// Distributed word count: the "hello world" of the model.
    #[test]
    fn word_count() {
        let db = SequenceDb::new(vec![vec![1, 2, 2], vec![2, 3], vec![1, 1, 1]]);
        let res = map_reduce(&ctx(&db, 4, 2, 4), each_item, || (), count).unwrap();
        assert_eq!(res.patterns, vec![(vec![1], 4), (vec![2], 3), (vec![3], 1)]);
        let metrics = res.metrics;
        assert_eq!(metrics.emitted_records, 8);
        assert_eq!(metrics.shuffle_records, 8);
        assert!(metrics.shuffle_bytes > 0);
        assert_eq!(metrics.output_records, 3);
        assert_eq!(metrics.tasks, 4, "one reduce task per bucket");
    }

    #[test]
    fn combiner_reduces_shuffle_volume() {
        let db = SequenceDb::new(vec![vec![7; 100], vec![7; 100]]);
        let map = |part: &[Sequence], out: &mut Combiner| {
            for &w in part.iter().flatten() {
                out.emit(&[w], &w.to_le_bytes(), 1);
            }
            Ok(())
        };
        let res = in_process(&ctx(&db, 2, 2, 2), map, || (), count_group).unwrap();
        assert_eq!(res.patterns, vec![(vec![7], 200)]);
        let metrics = res.metrics;
        assert_eq!(metrics.emitted_records, 200);
        // Each map task combines its 100 identical records into one.
        assert_eq!(metrics.shuffle_records, 2);
        assert_eq!(metrics.shuffle_payloads, 2);
    }

    #[test]
    fn payload_interning_dedups_across_keys() {
        // One map task, many keys sharing one payload, one reducer: the
        // payload bytes must hit the wire exactly once.
        let db = singletons(0..64);
        let payload: Vec<u8> = vec![0xAB; 100];
        let res = in_process(
            &ctx(&db, 1, 1, 1),
            |part: &[Sequence], c: &mut Combiner| {
                for &k in part.iter().flatten() {
                    c.emit(&[k], &payload, 1);
                }
                Ok(())
            },
            || (),
            |(): &mut (), bucket: Bucket<'_>, emit: &mut dyn FnMut((Sequence, u64))| {
                for (k, vs) in bucket.groups() {
                    let vs = collected(vs);
                    assert_eq!(vs.len(), 1);
                    assert_eq!(vs[0].0.len(), 100);
                    emit((vec![k], 1));
                }
                Ok(())
            },
        )
        .unwrap();
        let metrics = res.metrics;
        assert_eq!(res.patterns.len(), 64);
        assert_eq!(metrics.shuffle_records, 64);
        assert_eq!(metrics.shuffle_payloads, 1);
        // 64 records reference one 100-byte payload: far below 64 copies.
        assert!(
            metrics.shuffle_bytes < 64 * 100 / 4,
            "shuffle {} bytes",
            metrics.shuffle_bytes
        );
    }

    #[test]
    fn combine_merges_weights_across_map_tasks() {
        let db = singletons([5, 5, 5, 5]); // 4 map tasks
        let res = in_process(
            &ctx(&db, 2, 4, 3),
            |part: &[Sequence], c: &mut Combiner| {
                for &k in part.iter().flatten() {
                    c.emit(&[k], b"payload", 2);
                }
                Ok(())
            },
            || (),
            |(): &mut (), bucket: Bucket<'_>, emit: &mut dyn FnMut((Sequence, u64))| {
                for (k, vs) in bucket.groups() {
                    let vs = collected(vs);
                    assert_eq!(vs.len(), 1, "duplicates must merge reduce-side");
                    emit((vec![k], vs[0].1));
                }
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(res.patterns, vec![(vec![5], 8)]);
        assert_eq!(res.metrics.shuffle_records, 4); // one per map task
    }

    #[test]
    fn key_hash_is_the_hash_of_the_wire_varint() {
        for key in [0, 1, 127, 128, 129, 256, 16_383, 16_384, 1 << 28, u32::MAX] {
            let mut varint = Vec::new();
            write_varint(&mut varint, u64::from(key));
            assert_eq!(key_hash(key), hash_bytes(&varint), "key {key}");
            assert_eq!(read_key(&mut varint.as_slice()).unwrap(), key);
        }
        let mut too_big = Vec::new();
        write_varint(&mut too_big, u64::from(u32::MAX) + 1);
        assert!(matches!(
            read_key(&mut too_big.as_slice()),
            Err(Error::Decode(_))
        ));
    }

    #[test]
    fn merge_orders_keys_by_item_id_and_payloads_by_arrival() {
        // One bucket, two map tasks. The keys straddle the one/two-byte
        // varint boundary, where byte order (1, 127, 128, 256, 129) and
        // numeric order differ.
        let chunk = |emits: &[(u32, &[u8], u64)]| {
            let mut c = Combiner::new(1);
            for &(k, p, w) in emits {
                c.emit(&[k], p, w);
            }
            c.into_task_out().unwrap().buckets.pop().unwrap()
        };
        let chunks = vec![
            chunk(&[(129, b"y", 1), (1, b"x", 1), (129, b"x", 2), (127, b"w", 1)]),
            chunk(&[
                (1, b"z", 1),
                (256, b"z", 3),
                (129, b"x", 4),
                (128, b"y", 1),
                (1, b"x", 1),
            ]),
        ];
        let buckets = [merge_bucket(&chunks).unwrap()];
        let groups = groups_of(&buckets, 0);
        let expect: Vec<Group> = vec![
            (1, vec![(b"x".to_vec(), 2), (b"z".to_vec(), 1)]),
            (127, vec![(b"w".to_vec(), 1)]),
            (128, vec![(b"y".to_vec(), 1)]),
            (129, vec![(b"y".to_vec(), 1), (b"x".to_vec(), 6)]),
            (256, vec![(b"z".to_vec(), 3)]),
        ];
        assert_eq!(groups, expect);
        // Equal payloads share the slice of their first arrival.
        let (x, again) = on_bucket(&buckets, 0, |bucket| {
            let groups: Vec<_> = bucket.groups().map(|(_, g)| collected(g)).collect();
            (groups[0][0].0.as_ptr(), groups[3][1].0.as_ptr())
        });
        assert_eq!(again, x);
        assert!(chunks[0].as_ptr_range().contains(&x));
    }

    /// Runs `f` on bucket `b` of a reduce call over `buckets`, the first
    /// of a round with as many buckets.
    fn on_bucket<T>(buckets: &[MergedBucket<'_>], b: usize, f: impl FnOnce(Bucket<'_>) -> T) -> T {
        let (ids, views) = (OnceLock::new(), BucketViews::default());
        f(Bucket {
            call: buckets,
            at: b,
            route: b,
            reducers: buckets.len(),
            run: None,
            span: (0, ItemId::MAX),
            ids: &ids,
            views: &views,
            cancel: None,
        })
    }

    /// One key group as a test compares it: the key and its payloads with
    /// their weights.
    type Group = (u32, Vec<(Vec<u8>, u64)>);

    /// Every key group of bucket `b` of `buckets`.
    fn groups_of(buckets: &[MergedBucket<'_>], b: usize) -> Vec<Group> {
        on_bucket(buckets, b, |bucket| {
            let owned = |(bytes, w): (&[u8], u64)| (bytes.to_vec(), w);
            let groups = bucket.groups();
            groups
                .map(|(key, g)| (key, g.payloads().map(owned).collect()))
                .collect()
        })
    }

    /// One input as a test compares it: payload, weight, payload id over
    /// the call and the payload's keys in the bucket.
    type Seen = (Vec<u8>, u64, u32, Vec<ItemId>);

    /// Every input of bucket `b` of `buckets`; the call's payload ids
    /// cover all of `buckets`.
    fn inputs_of(buckets: &[MergedBucket<'_>], b: usize) -> Vec<Seen> {
        on_bucket(buckets, b, |bucket| {
            let inputs = bucket.inputs().unwrap();
            let seen = |i: Input<'_>| (i.payload.to_vec(), i.weight, i.payload_id, i.keys.to_vec());
            inputs.map(seen).collect()
        })
    }

    #[test]
    fn records_scatter_every_key_into_its_group_and_fold_into_one_input_per_payload() {
        // Keys 5 and 65 541 share their low 16 bits, and 65 541 and
        // 70 000 need the high pass: the sort must keep arrival order
        // through both. Payload `a` arrives in two records of two map
        // tasks: within a group its weights sum, and so do they in its one
        // input, which names its keys.
        let chunk = |emits: &[(&[u32], &[u8], u64)]| {
            let mut c = Combiner::new(1);
            for &(keys, p, w) in emits {
                c.emit(keys, p, w);
            }
            c.into_task_out().unwrap().buckets.pop().unwrap()
        };
        let wide: &[u32] = &[5, 65_541, 70_000];
        let chunks = vec![
            chunk(&[(wide, b"a", 1), (&[5, 9], b"b", 2)]),
            chunk(&[(wide, b"a", 4)]),
        ];
        let buckets = [merge_bucket(&chunks).unwrap()];
        let (a, b) = (b"a".to_vec(), b"b".to_vec());
        let expect: Vec<Group> = vec![
            (5, vec![(a.clone(), 5), (b.clone(), 2)]),
            (9, vec![(b.clone(), 2)]),
            (65_541, vec![(a.clone(), 5)]),
            (70_000, vec![(a.clone(), 5)]),
        ];
        assert_eq!(groups_of(&buckets, 0), expect);
        let expect: Vec<Seen> = vec![(a, 5, 0, wide.to_vec()), (b, 2, 1, vec![5, 9])];
        assert_eq!(inputs_of(&buckets, 0), expect);
        assert_eq!(merge_bucket_sizes(&chunks).unwrap(), (2, 5));

        // A payload under two key lists in one bucket came off a damaged
        // shuffle: its key groups still form, its inputs fail typed.
        let chunks = vec![chunk(&[(wide, b"a", 1)]), chunk(&[(&[5, 9], b"a", 1)])];
        let buckets = [merge_bucket(&chunks).unwrap()];
        assert_eq!(groups_of(&buckets, 0).len(), 4);
        let inputs = on_bucket(&buckets, 0, |bucket| bucket.inputs().err());
        assert!(matches!(inputs, Some(Error::Decode(_))), "{inputs:?}");
        assert!(matches!(merge_bucket_sizes(&chunks), Err(Error::Decode(_))));
    }

    #[test]
    fn a_key_run_task_sees_and_owns_only_its_run_of_the_bucket_s_keys() {
        // One payload shipped to 200 keys of one bucket: key runs cut it
        // into tasks of 64 groups, each task's one input names exactly the
        // keys of its groups, and it owns the keys they span — every key
        // of the round goes to one task.
        let db = singletons([1]);
        let keys: Vec<u32> = (0..200).map(|k| 2 * k + 1).collect();
        let seen = std::sync::Mutex::new(Vec::new());
        let res = in_process(
            &ctx(&db, 2, 1, 1),
            |_: &[Sequence], c: &mut Combiner| {
                c.emit(&keys, b"p", 1);
                Ok(())
            },
            || (),
            |(): &mut (), bucket: Bucket<'_>, _: &mut dyn FnMut((Sequence, u64))| {
                let groups: Vec<ItemId> = bucket.groups().map(|(k, _)| k).collect();
                let inputs: Vec<Input<'_>> = bucket.inputs()?.collect();
                assert_eq!(inputs.len(), 1);
                assert_eq!(inputs[0].keys, &groups[..]);
                let span = groups[0]..=*groups.last().unwrap();
                for k in 0..=*keys.last().unwrap() + 1 {
                    assert_eq!(bucket.owns(k), span.contains(&k), "key {k}");
                }
                seen.lock().unwrap().extend(groups);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(res.metrics.tasks, 4);
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, keys);
    }

    #[test]
    fn a_multi_key_emit_ships_one_record_per_bucket_it_reaches() {
        // Forty keys over three buckets: one record per bucket reached,
        // each holding exactly that bucket's keys, ascending; the same emit
        // again combines into those records. Over the three buckets, the
        // payload has one id, and in each the bucket's keys.
        let keys: Vec<u32> = (0..40).map(|k| 3 * k + 1).collect();
        let mut c = Combiner::new(3);
        c.emit(&keys, b"payload", 1);
        c.emit(&keys, b"payload", 2);
        let out = c.into_task_out().unwrap();
        let reached: Vec<usize> = (0..3).filter(|&b| !out.buckets[b].is_empty()).collect();
        assert_eq!(reached.len(), 3, "forty keys reach every bucket");
        assert_eq!((out.emitted, out.shuffled, out.payloads), (80, 3, 3));
        let chunks: Vec<Vec<Vec<u8>>> = out.buckets.iter().map(|c| vec![c.clone()]).collect();
        let buckets: Vec<MergedBucket<'_>> =
            chunks.iter().map(|c| merge_bucket(c).unwrap()).collect();
        assert!(buckets.iter().all(|bucket| bucket.payloads.len() == 1));
        let mut all = Vec::new();
        for b in 0..buckets.len() {
            let mut owned = Vec::new();
            for (key, payloads) in groups_of(&buckets, b) {
                assert_eq!(bucket_of(key_hash(key), 3), b, "key {key}");
                assert!(on_bucket(&buckets, b, |bucket| bucket.owns(key)));
                assert_eq!(payloads, vec![(b"payload".to_vec(), 3)]);
                owned.push(key);
            }
            let inputs = inputs_of(&buckets, b);
            assert_eq!(inputs, vec![(b"payload".to_vec(), 3, 0, owned.clone())]);
            all.extend(owned);
        }
        all.sort_unstable();
        assert_eq!(all, keys);
    }

    #[test]
    fn equal_payloads_share_one_id_across_the_buckets_of_a_reduce_call() {
        // Thirty keys over three buckets, one payload: a record per bucket,
        // one payload id with the bucket's keys in each — all thirty over
        // the three — and another payload another id.
        let db = singletons([1]);
        let seen = std::sync::Mutex::new(Vec::new());
        let keys: Vec<u32> = (0..30).collect();
        let res = in_process(
            &ctx(&db, 1, 1, 3),
            |_: &[Sequence], c: &mut Combiner| {
                c.emit(&keys, b"same", 1);
                c.emit(&[1], b"other", 1);
                Ok(())
            },
            || (),
            |(): &mut (), bucket: Bucket<'_>, emit: &mut dyn FnMut((Sequence, u64))| {
                for i in bucket.inputs()? {
                    let input = (i.payload.to_vec(), i.payload_id, i.keys.to_vec());
                    seen.lock().unwrap().push(input);
                }
                for (k, _) in bucket.groups() {
                    emit((vec![k], 1));
                }
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(res.patterns.len(), 30);
        assert_eq!(res.metrics.shuffle_records, 4);
        let seen = seen.into_inner().unwrap();
        let of = |bytes: &[u8]| -> (Vec<u32>, Vec<u32>) {
            let mut ids: Vec<u32> = Vec::new();
            let mut keys: Vec<u32> = Vec::new();
            for (_, id, ks) in seen.iter().filter(|(p, _, _)| p == bytes) {
                ids.push(*id);
                keys.extend(ks);
            }
            ids.dedup();
            keys.sort_unstable();
            (ids, keys)
        };
        let (same, other) = (of(b"same"), of(b"other"));
        assert_eq!(same.0.len(), 1, "{same:?}");
        assert_eq!(same.1, keys);
        assert_eq!(other, (vec![other.0[0]], vec![1]));
        assert_ne!(same.0[0], other.0[0]);
    }

    #[test]
    fn hostile_records_fail_typed_before_any_count_sized_allocation() {
        // A one-payload dictionary, then one record:
        // payload id, weight, key count, first key, gaps.
        let dictionary = [1, 1, 0xaa];
        let mut huge = vec![0, 1, 2];
        write_varint(&mut huge, u64::from(u32::MAX));
        huge.push(1);
        let cases: [(&[u8], &str); 6] = [
            (&[0, 1, 200, 1], "key count 200 exceeds input"),
            (&[0, 1, 0], "record without keys"),
            (&[0, 1, 2, 5, 0], "keys not strictly ascending"),
            (&[3, 1, 1, 7], "payload id 3 out of range"),
            (
                &[
                    0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 1, 7,
                ],
                "payload id 18446744073709551615 out of range",
            ),
            (&huge, "pivot key out of range: 4294967296"),
        ];
        for (record, message) in cases {
            let chunks = vec![[&dictionary[..], record].concat()];
            let err = merge_bucket(&chunks).err().expect(message);
            assert_eq!(err, Error::Decode(message.into()));
        }
    }

    #[test]
    fn keys_out_of_order_fail_the_map_task_typed() {
        let mut c = Combiner::new(2);
        c.emit(&[3, 3], b"p", 1);
        c.emit(&[1, 2], b"p", 1);
        assert!(matches!(c.into_task_out(), Err(Error::Invalid(m)) if m.contains("ascend")));
    }

    #[test]
    fn reducer_sees_all_values_of_a_key_exactly_once() {
        let db = singletons(0..1000);
        let res = map_reduce(
            &ctx(&db, 3, 28, 5),
            |part: &[Sequence], emit: &mut dyn FnMut(ItemId, &[u8], u64)| {
                for &x in part.iter().flatten() {
                    emit(x % 10, &x.to_le_bytes(), 1);
                }
                Ok(())
            },
            || (),
            |(): &mut (), k, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((Sequence, u64))| {
                let sum = vs.iter().map(|&(v, w)| value(v) * w).sum();
                emit((vec![k, vs.len() as u32], sum));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(res.patterns.len(), 10);
        for (key, sum) in res.patterns {
            let (k, n) = (key[0], key[1]);
            assert_eq!(n, 100);
            // sum of k, k+10, ..., k+990
            let expect: u64 = (0..100).map(|i| u64::from(k) + 10 * i).sum();
            assert_eq!(sum, expect);
        }
        assert_eq!(res.metrics.reducer_bytes.len(), 5);
    }

    #[test]
    fn map_reduce_ships_every_duplicate_in_emission_order() {
        // Two map tasks emit identical records: nothing merges, and a
        // pivot's records arrive in map-task emission order.
        let db = SequenceDb::new(vec![vec![1, 2], vec![1, 2]]);
        let res = map_reduce(
            &ctx(&db, 2, 2, 1),
            |part: &[Sequence], emit: &mut dyn FnMut(ItemId, &[u8], u64)| {
                for &x in part.iter().flatten() {
                    emit(300, &x.to_le_bytes(), 1);
                    emit(7, b"same", 1);
                }
                Ok(())
            },
            || (),
            |(): &mut (), k, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((Sequence, u64))| {
                let mut key = vec![k];
                if k == 300 {
                    key.extend(vs.iter().map(|&(v, _)| value(v) as u32));
                }
                emit((key, vs.len() as u64));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(res.patterns, vec![(vec![7], 4), (vec![300, 1, 2, 1, 2], 4)]);
        assert_eq!(res.metrics.shuffle_records, 8);
    }

    #[test]
    fn mapper_error_aborts_job() {
        let db = SequenceDb::new(vec![vec![1, 2, 3]]);
        let err = map_reduce(
            &ctx(&db, 2, 1, 2),
            |part: &[Sequence], _emit: &mut dyn FnMut(ItemId, &[u8], u64)| {
                if part.iter().flatten().any(|&x| x == 2) {
                    Err(Error::ResourceExhausted("boom".into()))
                } else {
                    Ok(())
                }
            },
            || (),
            count,
        )
        .unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
    }

    #[test]
    fn reducer_error_aborts_job() {
        let db = singletons([1]);
        let err = map_reduce(
            &ctx(&db, 2, 1, 2),
            each_item,
            || (),
            |(): &mut (), _k, _vs: &[(&[u8], u64)], _emit: &mut dyn FnMut((Sequence, u64))| {
                Err(Error::Invalid("reduce failed".into()))
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Invalid(_)));
    }

    #[test]
    fn empty_input() {
        let db = SequenceDb::default();
        let res = map_reduce(&ctx(&db, 2, 1, 2), each_item, || (), count).unwrap();
        assert!(res.patterns.is_empty());
        assert_eq!(res.metrics.shuffle_bytes, 0);
    }

    #[test]
    fn zero_parallelism_fails_typed_before_any_map_task() {
        let db = singletons([1, 2, 3]);
        let maps = AtomicUsize::new(0);
        let counted = |part: &[Sequence], emit: &mut dyn FnMut(ItemId, &[u8], u64)| {
            maps.fetch_add(1, Ordering::Relaxed);
            each_item(part, emit)
        };
        let combined = |part: &[Sequence], c: &mut Combiner| {
            maps.fetch_add(1, Ordering::Relaxed);
            combine_each_item(part, c)
        };
        for (workers, partitions, reducers) in [(0, 1, 1), (1, 0, 1), (1, 1, 0)] {
            let ctx = ctx(&db, workers, partitions, reducers);
            let plain = map_reduce(&ctx, counted, || (), count).unwrap_err();
            let via = in_process(&ctx, combined, || (), count_group).unwrap_err();
            // Validation comes before the first connection attempt.
            let addr = SocketAddr::from(([127, 0, 0, 1], 9));
            let worker = Exec::Worker(addr);
            let worker = run_round(
                &ctx,
                worker,
                ReduceUnit::KeyRuns,
                combined,
                || (),
                count_group,
            );
            let worker = worker.unwrap_err();
            for err in [plain, via, worker] {
                assert!(
                    matches!(err, Error::Invalid(_)),
                    "{workers}/{partitions}/{reducers}: {err}"
                );
            }
        }
        assert_eq!(maps.into_inner(), 0);
    }

    #[test]
    fn bucket_routing_is_stable_and_spread() {
        // (The in-range and tail-distinction properties of the primitives
        // are tested at their home, `desq_core::fx`.)
        assert_eq!(bucket_of(key_hash(42), 8), bucket_of(key_hash(42), 8));
        let mut seen = std::collections::HashSet::new();
        for k in 0u32..64 {
            seen.insert(bucket_of(key_hash(k), 8));
        }
        assert!(
            seen.len() >= 6,
            "keys should spread over most buckets: {seen:?}"
        );
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let db = singletons(0..500);
        let run = |workers| {
            map_reduce(
                &ctx(&db, workers, 22, workers),
                |part: &[Sequence], emit: &mut dyn FnMut(ItemId, &[u8], u64)| {
                    for &x in part.iter().flatten() {
                        emit(x % 7, &[], u64::from(x));
                    }
                    Ok(())
                },
                || (),
                count,
            )
            .unwrap()
            .patterns
        };
        assert_eq!(run(1), run(8));
    }

    /// A combining round over `ctx` in this process.
    fn in_process<S, MF, IF, RF>(
        ctx: &MiningContext<'_>,
        map: MF,
        init: IF,
        reduce: RF,
    ) -> Result<MiningResult>
    where
        S: Send,
        MF: Fn(&[Sequence], &mut Combiner) -> Result<()> + Sync,
        IF: Fn() -> S + Sync,
        RF: Fn(&mut S, Bucket<'_>, &mut dyn FnMut((Sequence, u64))) -> Result<()> + Sync,
    {
        let round = run_round(
            ctx,
            Exec::Via(&InProcess),
            ReduceUnit::KeyRuns,
            map,
            init,
            reduce,
        )?;
        Ok(round.expect("a driven round has a result"))
    }

    /// One combining round over `db` in `partitions` map tasks and
    /// `reducers` buckets, driven by a one-thread `NetCoordinator` over
    /// localhost and served by one in-thread worker with `workers`
    /// threads; driver and worker share the closures.
    fn via_tcp<S, MF, IF, RF>(
        db: &SequenceDb,
        workers: usize,
        partitions: usize,
        reducers: usize,
        map: MF,
        init: IF,
        reduce: RF,
    ) -> MiningResult
    where
        S: Send,
        MF: Fn(&[Sequence], &mut Combiner) -> Result<()> + Sync,
        IF: Fn() -> S + Sync,
        RF: Fn(&mut S, Bucket<'_>, &mut dyn FnMut((Sequence, u64))) -> Result<()> + Sync,
    {
        let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coord.local_addr().unwrap();
        let worker_ctx = ctx(db, workers, partitions, reducers);
        let driver_ctx = ctx(db, 1, partitions, reducers);
        let unit = ReduceUnit::KeyRuns;
        std::thread::scope(|s| {
            let serve = || run_round(&worker_ctx, Exec::Worker(addr), unit, &map, &init, &reduce);
            let worker = s.spawn(serve);
            let coord = Exec::Via(&coord);
            let round = run_round(&driver_ctx, coord, unit, &map, &init, &reduce).unwrap();
            assert!(worker.join().unwrap().unwrap().is_none());
            round.unwrap()
        })
    }

    #[test]
    fn combine_reduce_output_is_deterministic_across_worker_counts() {
        // The work-stealing reduce must reproduce the sequential result,
        // whether it runs in process or on a worker process behind TCP,
        // and whether its tasks are key runs or whole buckets.
        let db = singletons(0..3000);
        let map = |part: &[Sequence], c: &mut Combiner| {
            for &x in part.iter().flatten() {
                c.emit(&[x % 500], &x.to_le_bytes()[..1], 1);
            }
            Ok(())
        };
        for reducers in [1, 4] {
            let local =
                |workers| in_process(&ctx(&db, workers, 9, reducers), map, || (), count_group);
            let seq = local(1).unwrap();
            assert_eq!(seq.patterns.len(), 500);
            assert!(seq.metrics.tasks > reducers as u64, "key groups batched");
            for workers in [2, 3, 4, 8] {
                let par = local(workers).unwrap();
                assert_eq!(
                    par.patterns, seq.patterns,
                    "workers={workers} reducers={reducers}"
                );
                assert_eq!(par.metrics.tasks, seq.metrics.tasks);
                let ctx = ctx(&db, workers, 9, reducers);
                let whole = run_round(
                    &ctx,
                    Exec::Via(&InProcess),
                    ReduceUnit::Buckets,
                    map,
                    || (),
                    count_group,
                );
                let whole = whole.unwrap().unwrap();
                assert_eq!(whole.patterns, seq.patterns, "buckets, workers={workers}");
                assert_eq!(whole.metrics.tasks, reducers as u64, "one task per bucket");
            }
            for workers in [1, 3] {
                let remote = via_tcp(&db, workers, 9, reducers, map, || (), count_group);
                let what = format!("TCP workers={workers} reducers={reducers}");
                assert_eq!(remote.patterns, seq.patterns, "{what}");
                assert_eq!(
                    remote.metrics.tasks, reducers as u64,
                    "one ReduceTask per bucket"
                );
            }
        }
    }

    #[test]
    fn reduce_state_initializes_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let init = || inits.fetch_add(1, Ordering::Relaxed);
        let reduce = |_: &mut usize, bucket: Bucket<'_>, emit: &mut dyn FnMut((Sequence, u64))| {
            for (k, _) in bucket.groups() {
                emit((vec![k], 1));
            }
            Ok(())
        };

        // In process, 8 buckets but 3 workers: at most one state per
        // reduce worker for the whole round, not one per bucket.
        let db = singletons(0..200);
        let res = in_process(&ctx(&db, 3, 7, 8), combine_each_item, init, reduce).unwrap();
        assert_eq!(res.patterns.len(), 200);
        assert!(
            inits.swap(0, Ordering::Relaxed) <= 3,
            "init must be per worker, not per bucket"
        );

        // On a worker process: at most one state per worker thread per
        // `ReduceTask`. Each bucket holds ~1000 key groups (16 tasks), so
        // its key groups are spread over all 3 threads — more states than
        // buckets, which a one-task-per-bucket reduce never makes.
        let db = singletons(0..2000);
        let res = via_tcp(&db, 3, 7, 2, combine_each_item, init, reduce);
        assert_eq!(res.patterns.len(), 2000);
        let remote_inits = inits.into_inner();
        assert!(
            (3..=3 * 2).contains(&remote_inits),
            "{remote_inits} inits for 2 ReduceTasks on 3 threads"
        );
    }

    #[test]
    fn a_panicking_mapper_aborts_the_job_not_the_process() {
        let db = singletons([1, 2, 3]);
        let token = CancelToken::new();
        let ctx = MiningContext {
            cancel: Some(&token),
            ..ctx(&db, 2, 3, 2)
        };
        let err = map_reduce(
            &ctx,
            |part: &[Sequence], emit: &mut dyn FnMut(ItemId, &[u8], u64)| {
                if part.iter().flatten().any(|&x| x == 2) {
                    panic!("mapper blew up on {part:?}");
                }
                each_item(part, emit)
            },
            || (),
            count,
        )
        .unwrap_err();
        match err {
            Error::WorkerPanicked(m) => assert!(m.contains("blew up"), "{m}"),
            other => panic!("expected WorkerPanicked, got {other}"),
        }
        // The token tripped so co-operating layers observe the failure.
        assert!(token.is_stopped());
    }

    #[test]
    fn a_panicking_reducer_aborts_the_combine_job() {
        let db = singletons([1, 2, 3, 4]);
        let err = in_process(
            &ctx(&db, 2, 1, 2),
            combine_each_item,
            || (),
            |(): &mut (), _: Bucket<'_>, _emit: &mut dyn FnMut((Sequence, u64))| {
                panic!("reducer blew up")
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::WorkerPanicked(_)), "{err}");
    }

    #[test]
    fn a_cancelled_token_aborts_the_job_with_cancelled() {
        let token = CancelToken::new();
        token.cancel();
        let db = singletons([1]);
        let ctx = MiningContext {
            cancel: Some(&token),
            ..ctx(&db, 2, 1, 2)
        };
        let err = map_reduce(&ctx, each_item, || (), count).unwrap_err();
        assert!(matches!(err, Error::Cancelled(_)), "{err}");
    }

    #[test]
    fn a_bucket_s_groups_end_at_the_first_group_after_the_token_trips() {
        // A task holds up to 64 key groups, so the scheduler's poll between
        // tasks cannot stop a long one: its group iteration polls per group.
        let token = CancelToken::new();
        let db = singletons(0..100);
        let ctx = MiningContext {
            cancel: Some(&token),
            ..ctx(&db, 1, 1, 1)
        };
        let seen = AtomicUsize::new(0);
        let err = in_process(
            &ctx,
            combine_each_item,
            || (),
            |(): &mut (), bucket: Bucket<'_>, _emit: &mut dyn FnMut((Sequence, u64))| {
                for _ in bucket.groups() {
                    if seen.fetch_add(1, Ordering::Relaxed) == 2 {
                        token.cancel();
                    }
                }
                Ok(())
            },
        )
        .unwrap_err();
        assert!(matches!(err, Error::Cancelled(_)), "{err}");
        assert_eq!(seen.into_inner(), 3);
    }

    #[test]
    fn an_expired_deadline_aborts_the_job_with_deadline_exceeded() {
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let db = singletons([1]);
        let ctx = MiningContext {
            cancel: Some(&token),
            ..ctx(&db, 1, 1, 1)
        };
        let err = in_process(&ctx, combine_each_item, || (), count_group).unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded(_)), "{err}");
    }

    #[test]
    fn large_weights_survive_the_combine_wire_format() {
        let db = singletons([1]);
        let big = u64::from(u32::MAX) + 17;
        let res = in_process(
            &ctx(&db, 1, 1, 1),
            |_part: &[Sequence], c: &mut Combiner| {
                c.emit(&[9], b"", big);
                c.emit(&[9], b"", 1);
                Ok(())
            },
            || (),
            |(): &mut (), bucket: Bucket<'_>, emit: &mut dyn FnMut((Sequence, u64))| {
                for (k, vs) in bucket.groups() {
                    let vs = collected(vs);
                    assert_eq!(vs.len(), 1);
                    assert!(vs[0].0.is_empty());
                    emit((vec![k], vs[0].1));
                }
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(res.patterns, vec![(vec![9], big + 1)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The combiner-less round == sequential fold for a random
        /// aggregation job.
        #[test]
        fn map_reduce_equals_sequential_fold(
            data in proptest::collection::vec(proptest::collection::vec(0u32..50, 0..20), 0..30),
            workers in 1usize..5,
            partitions in 1usize..7,
        ) {
            let mut expect = BTreeMap::<u32, u64>::new();
            for &x in data.iter().flatten() {
                *expect.entry(x % 7).or_insert(0) += u64::from(x);
            }
            let db = SequenceDb::new(data.clone());
            let res = map_reduce(
                &ctx(&db, workers, partitions, workers),
                |part: &[Sequence], emit: &mut dyn FnMut(ItemId, &[u8], u64)| {
                    for &x in part.iter().flatten() {
                        emit(x % 7, &[], u64::from(x));
                    }
                    Ok(())
                },
                || (),
                count,
            )
            .unwrap();
            let got: BTreeMap<u32, u64> = res.patterns.into_iter().map(|(k, w)| (k[0], w)).collect();
            proptest::prop_assert_eq!(got, expect);
            let records: usize = data.iter().map(Vec::len).sum();
            proptest::prop_assert_eq!(res.metrics.emitted_records as usize, records);
        }
    }

    #[test]
    fn the_width_predicate_bounds_u32_ids_and_offsets() {
        // An id table may hold `u32::MAX` entries (ids `0..u32::MAX`), a
        // payload arena may end at offset `u32::MAX`; one more fails.
        let max = u32::MAX as usize;
        assert!(fits_u32(0));
        assert!(fits_u32(max));
        assert!(!fits_u32(max + 1));
        assert!(!fits_u32(usize::MAX));
        assert!(matches!(too_wide("ids"), Error::Invalid(m) if m.contains("u32")));
    }
}
