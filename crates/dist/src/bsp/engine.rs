//! The BSP engine: parallel map, optional combine, byte shuffle, parallel
//! reduce — one round of communication (Alg. 1 of the paper).
//!
//! Every round has the paper's one shape: *pivot item* keys, sent as
//! `varint(pivot)` and routed by the hash of those bytes; opaque weighted
//! payloads; and reducers emitting frequent sequences, sent back per bucket
//! as `varint(#outputs)`, then [`encode_item_seq`] + `varint(frequency)`.
//!
//! # Hot-path layout
//!
//! Both job shapes hand the mapper a whole partition
//! (`Fn(&[Sequence], …)`), so per-partition scratch (pivot-search tables,
//! encode buffers) is created once per map task instead of once per
//! record. Each key is hashed once, over its varint bytes: the routing
//! bucket comes from a word-at-a-time hash reduced by a multiply-shift (no
//! modulo bias, no re-hash), and the combiner keys its open-addressing
//! table on `(pivot, payload)` with that same hash mixed once — never a
//! byte-at-a-time `Hasher` walk per probe.
//!
//! The combining shuffle additionally *interns payloads*: each map task's
//! bucket chunk starts with a dictionary of distinct payload byte strings,
//! and records reference payloads by local index. D-SEQ ships one
//! rewritten sequence to every pivot partition — within a bucket the
//! payload bytes are written once, not once per pivot — and D-CAND's
//! aggregated NFAs dedup the same way. Because D-SEQ emits one payload to
//! a run of pivot keys, the combiner compares each payload with the
//! previous one before it hashes. Output buffers are sized exactly
//! before writing (one counting pass over a linear bucket scatter, then
//! one copy pass), so the map side performs no growth reallocation.
//!
//! The reduce-side merge pays per distinct payload and per key group, not
//! per record: each chunk's payload dictionary is interned across the
//! bucket (equal payloads from different map tasks become one slice), keys
//! get dense ids from a small map, a counting pass scatters the records
//! into key groups, an epoch-stamped array indexed by payload id merges
//! duplicates within a group, and only the distinct keys are sorted. Key
//! groups reach the reducer in ascending item id, each with its payloads
//! in first-arrival order (map task, then record) — the same order on
//! every transport and at every worker count.
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
//! The token is polled between tasks; an expired deadline or external
//! cancellation aborts the round with the token's
//! [`stop_reason`](CancelToken::stop_reason).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::ops::Range;
use std::time::Instant;

use desq_core::codec::{
    decode_item_seq, encode_item_seq, read_bytes, read_varint, varint_len, write_bytes,
    write_varint,
};
use desq_core::fx::{bucket_of, hash_bytes, mix_hashes as mix, FxHashMap, ProbeTable};
use desq_core::mining::{CancelToken, MiningContext};
use desq_core::sched::{self, IndexedRun};
use desq_core::{wire, Error, ItemId, MiningMetrics, MiningResult, Result, Sequence};

use super::transport::{worker_loop, PhaseStats, ShuffleTransport};

/// The shuffle's one width check: whether `n` — an id table's length
/// after an insert, or a payload arena's end offset — fits the `u32` it
/// is packed into. Where it does not, the round fails [`Error::Invalid`].
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

/// One combined map-side record: its mixed hash, routing bucket, interned
/// payload id, pivot key and accumulated weight.
struct CombineEntry {
    hash: u64,
    bucket: u32,
    payload: u32,
    pivot: ItemId,
    weight: u64,
}

/// Map-side emitter of [`run_round`].
///
/// [`emit`](Combiner::emit) performs MapReduce-style *weighted
/// deduplication*: triples with identical `(pivot, payload)` within one map
/// task are merged by summing weights before serialization. The payload is
/// an opaque pre-encoded byte string — callers serialize it **once** per
/// logical value (e.g. one rewritten sequence shared by many pivot keys)
/// and pass the same slice to every `emit`; the combiner interns it so
/// each bucket chunk stores the bytes at most once. A map task whose
/// payload bytes or records outgrow the `u32` ids and offsets fails the
/// round with [`Error::Invalid`].
pub struct Combiner {
    reducers: usize,
    /// Payload intern table: hash → payload id.
    payload_table: ProbeTable,
    payload_hashes: Vec<u64>,
    /// Payload `i` occupies `payload_data[payload_ends[i - 1]..payload_ends[i]]`.
    payload_ends: Vec<u32>,
    payload_data: Vec<u8>,
    /// The payload of the previous `emit`.
    last_payload: Option<u32>,
    /// Combine table: mixed hash → entry index.
    entry_table: ProbeTable,
    entries: Vec<CombineEntry>,
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
            last_payload: None,
            entry_table: ProbeTable::new(),
            entries: Vec::new(),
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

    /// Emits one `(pivot, payload, weight)` triple. The key is hashed
    /// exactly once; the payload bytes are interned by content — unless
    /// they equal the previous call's, which D-SEQ's one payload per run of
    /// pivot keys makes the common case: that check skips the hash and
    /// probe, and costs one length compare when the payload changed.
    pub fn emit(&mut self, pivot: ItemId, payload: &[u8], weight: u64) {
        if self.overflow.is_some() {
            return;
        }
        self.emitted += 1;
        let khash = key_hash(pivot);
        let bucket = bucket_of(khash, self.reducers) as u32;

        let payload_id = match self.last_payload {
            Some(id) if self.payload_bytes(id) == payload => id,
            _ => match self.intern_payload(payload) {
                Ok(id) => id,
                Err(e) => {
                    self.overflow = Some(e);
                    return;
                }
            },
        };
        self.last_payload = Some(payload_id);
        let phash = self.payload_hashes[payload_id as usize];

        // Combine on (pivot, payload id).
        let ehash = mix(khash, phash);
        let (table, entries) = (&mut self.entry_table, &mut self.entries);
        table.grow_if_needed(entries.len(), |i| entries[i as usize].hash);
        match table.find(ehash, |i| {
            let e = &entries[i as usize];
            e.hash == ehash && e.payload == payload_id && e.pivot == pivot
        }) {
            Ok(i) => entries[i as usize].weight += weight,
            Err(_) if !fits_u32(entries.len() + 1) => {
                self.overflow = Some(too_wide("a map task's records"));
            }
            Err(slot) => {
                entries.push(CombineEntry {
                    hash: ehash,
                    bucket,
                    payload: payload_id,
                    pivot,
                    weight,
                });
                table.insert(slot, entries.len() as u32 - 1);
            }
        }
    }

    /// Serializes the combined records into per-bucket chunks.
    ///
    /// Per bucket, a linear scatter groups the entries, a counting pass
    /// assigns bucket-local payload ids (first-use order) and sums the
    /// exact byte size, and a copy pass writes the chunk into a buffer of
    /// exactly that capacity:
    /// `varint(#payloads), (varint(len), bytes)*, (varint(pivot),
    /// varint(payload id), varint(weight))*`.
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
                rec_bytes += varint_len(u64::from(e.pivot))
                    + varint_len(u64::from(local_id[p]))
                    + varint_len(e.weight);
            }
            let total = varint_len(plist.len() as u64) + dict_bytes + rec_bytes;
            let mut buf = Vec::with_capacity(total);
            write_varint(&mut buf, plist.len() as u64);
            for &p in &plist {
                write_bytes(&mut buf, self.payload_bytes(p));
            }
            for &i in entries {
                let e = &self.entries[i as usize];
                write_varint(&mut buf, u64::from(e.pivot));
                write_varint(&mut buf, u64::from(local_id[e.payload as usize]));
                write_varint(&mut buf, e.weight);
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
    /// Records emitted by the mapper, before combining.
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
            Err(_) if !fits_u32(self.slices.len() + 1) => Err(too_wide("a bucket's payloads")),
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

/// One reduce bucket after the merge: its key groups in ascending item id,
/// each holding the pivot's distinct payloads with their weights summed
/// across map tasks, in first-arrival order (map task, then record). Every
/// slice borrows from the shuffle chunks.
struct MergedBucket<'c> {
    /// Pivot and its payloads' range in `recs`, per key group.
    groups: Vec<(ItemId, Range<usize>)>,
    recs: Vec<(&'c [u8], u64)>,
}

/// The reduce-side merge of one bucket (see the module docs): decodes its
/// shuffle chunks and merges duplicate `(pivot, payload)` records across
/// map tasks into key groups. Every array is sized by a count of records
/// or dictionary entries read so far, so by the chunks' own length.
fn merge_bucket(chunks: &[Vec<u8>]) -> Result<MergedBucket<'_>> {
    let mut payloads = Interner::default();
    // Distinct pivots in first-arrival order, and their dense ids.
    let mut keys: Vec<ItemId> = Vec::new();
    let mut key_ids: FxHashMap<ItemId, u32> = FxHashMap::default();
    // (key id, payload id, weight) in arrival order.
    let mut arrivals: Vec<(u32, u32, u64)> = Vec::new();
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
            let pivot = read_key(&mut slice)?;
            let next = keys.len() as u32;
            let key = *key_ids.entry(pivot).or_insert(next);
            if key == next {
                keys.push(pivot);
            }
            let pid = read_varint(&mut slice)? as usize;
            let payload = *local
                .get(pid)
                .ok_or_else(|| Error::Decode(format!("payload id {pid} out of range")))?;
            arrivals.push((key, payload, read_varint(&mut slice)?));
        }
    }

    // Counting pass: stable scatter of the records into key groups.
    let mut starts = vec![0usize; keys.len() + 1];
    for &(k, _, _) in &arrivals {
        starts[k as usize + 1] += 1;
    }
    for k in 0..keys.len() {
        starts[k + 1] += starts[k];
    }
    let mut cursor = starts.clone();
    let mut grouped = vec![(0u32, 0u64); arrivals.len()];
    for &(k, p, w) in &arrivals {
        grouped[cursor[k as usize]] = (p, w);
        cursor[k as usize] += 1;
    }
    drop(arrivals);

    // Duplicate payloads within a group: `stamp[p]` names the last group
    // that saw payload `p`, `at[p]` where that group keeps it.
    let mut stamp = vec![u32::MAX; payloads.slices.len()];
    let mut at = vec![0usize; payloads.slices.len()];
    let mut recs: Vec<(&[u8], u64)> = Vec::with_capacity(grouped.len());
    let mut ranges = Vec::with_capacity(keys.len());
    for k in 0..keys.len() {
        let first = recs.len();
        for &(p, w) in &grouped[starts[k]..starts[k + 1]] {
            let p = p as usize;
            if stamp[p] == k as u32 {
                let weight = &mut recs[at[p]].1;
                *weight = weight.saturating_add(w);
            } else {
                stamp[p] = k as u32;
                at[p] = recs.len();
                recs.push((payloads.slices[p], w));
            }
        }
        ranges.push(first..recs.len());
    }

    // Key groups ascend by item id: a sort of the distinct keys.
    let mut order: Vec<u32> = (0..keys.len() as u32).collect();
    order.sort_unstable_by_key(|&k| keys[k as usize]);
    let groups = order
        .into_iter()
        .map(|k| (keys[k as usize], ranges[k as usize].clone()))
        .collect();
    Ok(MergedBucket { groups, recs })
}

/// The reduce-side merge of one bucket's shuffle chunks on its own: its
/// number of key groups and of merged records. Exposed for the kernel
/// benchmarks.
#[doc(hidden)]
pub fn merge_bucket_sizes(chunks: &[Vec<u8>]) -> Result<(usize, usize)> {
    let merged = merge_bucket(chunks)?;
    Ok((merged.groups.len(), merged.recs.len()))
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
/// The mapper emits the combining round's `(pivot, payload, weight)`
/// triples, each written to its bucket as it comes:
/// `varint(pivot), varint(len), payload, varint(weight)`. The reducer
/// takes the combining round's arguments: each pivot once, pivots
/// ascending within a bucket, with every record it received — duplicates
/// included, in map-task emission order — as payload slices borrowed
/// from the shuffle buffers. `init` runs once per reduce worker, and each
/// bucket is one reduce task.
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
/// `(pivot, payload bytes, weight)` triples, where the payload is
/// pre-encoded **once** by the caller (for item sequences with
/// [`encode_item_seq`]) and shared across emissions. Triples with
/// identical `(pivot, payload)` within one map task are merged by summing
/// weights before serialization, and payload byte strings are interned
/// per bucket chunk — the aggregation D-CAND applies to identical NFAs
/// (Sec. VI-A) and D-SEQ/LASH apply to identical rewritten sequences.
///
/// The reducer is invoked once per pivot with all distinct payloads and
/// their total weights (merged across map tasks), each payload a slice
/// *borrowed from the shuffle buffers* — equal payloads share one slice —
/// in first-arrival order (map task, then record); within a bucket, pivots
/// come in ascending order. Key groups are batched into tasks under work
/// stealing in whichever process holds the buckets, so a hot D-SEQ pivot
/// does not pin its bucket to one thread. `init` runs once per worker per
/// reduce call (all buckets in process, one bucket on a worker process);
/// payload slices outlive that state, so caches keyed on their identity
/// (D-SEQ's table index) stay valid.
///
/// The emitted patterns cross the transport encoded (see the module
/// docs); the result holds them sorted, with the round's wall time, its
/// input size and `ctx.workers` filled in.
/// [`MiningMetrics::tasks`]/[`steals`](MiningMetrics::steals) count
/// key-group tasks in process and shipped buckets over the network.
pub fn run_round<S, MF, IF, RF>(
    ctx: &MiningContext<'_>,
    exec: Exec<'_>,
    map: MF,
    init: IF,
    reduce: RF,
) -> Result<Option<MiningResult>>
where
    S: Send,
    MF: Fn(&[Sequence], &mut Combiner) -> Result<()> + Sync,
    IF: Fn() -> S + Sync,
    RF: Fn(&mut S, ItemId, &[(&[u8], u64)], &mut dyn FnMut((Sequence, u64))) -> Result<()> + Sync,
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
    let reduce_task = |buckets: &[Vec<Vec<u8>>]| reduce_buckets(ctx, buckets, &init, &reduce);
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

/// The one reduce of a round, over `chunks` (one list per bucket): each
/// bucket's outputs encoded for the transport plus the phase counters.
/// Buckets are merged in parallel, then the key groups of all of them run
/// as stealable tasks with one `init()` state per worker.
fn reduce_buckets<S, IF, RF>(
    ctx: &MiningContext<'_>,
    chunks: &[Vec<Vec<u8>>],
    init: &IF,
    reduce: &RF,
) -> Result<(Vec<Vec<u8>>, PhaseStats)>
where
    S: Send,
    IF: Fn() -> S,
    RF: Fn(&mut S, ItemId, &[(&[u8], u64)], &mut dyn FnMut((Sequence, u64))) -> Result<()> + Sync,
{
    // Step 1 (parallel, one task per bucket): decode the shuffle chunks
    // and merge them into key groups.
    let merged = run_tasks(ctx, chunks.len(), |t| merge_bucket(&chunks[t]))?;
    let buckets = &merged.results;

    // Step 2: batch adjacent light key groups of a bucket into tasks and
    // run the tasks under work stealing, so a heavy key group (a hot D-SEQ
    // pivot) is balanced across workers instead of pinning its whole
    // bucket to one thread. A task closes at a bucket boundary (keeps
    // output bookkeeping simple), once it holds enough records to amortize
    // a queue round trip, or at a group-count cap so huge flocks of
    // trivial keys still split; a single heavy group always gets its own
    // task.
    const RECS_PER_TASK: usize = 256;
    const GROUPS_PER_TASK: usize = 64;
    let mut tasks: Vec<(usize, Range<usize>)> = Vec::new(); // (bucket, groups)
    for (b, bucket) in buckets.iter().enumerate() {
        let (mut start, mut recs_in) = (0usize, 0usize);
        for (g, (_, recs)) in bucket.groups.iter().enumerate() {
            recs_in += recs.len();
            let last = g + 1 == bucket.groups.len();
            if last || recs_in >= RECS_PER_TASK || g + 1 - start >= GROUPS_PER_TASK {
                tasks.push((b, start..g + 1));
                start = g + 1;
                recs_in = 0;
            }
        }
    }

    // Tasks are numbered in (bucket, key) order, so the index-ordered
    // results reproduce the sequential per-bucket iteration exactly.
    let reduced = sched::run_indexed(
        tasks.len(),
        ctx.workers,
        ctx.cancel,
        init,
        |ti, state: &mut S| {
            let (b, ref groups) = tasks[ti];
            let bucket = &buckets[b];
            let (mut n, mut bytes) = (0u64, Vec::new());
            for (pivot, recs) in &bucket.groups[groups.clone()] {
                let mut emit = |(pattern, freq): (Sequence, u64)| {
                    n += 1;
                    encode_item_seq(&pattern, &mut bytes);
                    write_varint(&mut bytes, freq);
                };
                reduce(state, *pivot, &bucket.recs[recs.clone()], &mut emit)?;
            }
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
        max_task_nanos: merged.max_task_nanos.max(reduced.max_task_nanos),
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
            c.emit(x, b"", 1);
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
                out.emit(w, &w.to_le_bytes(), 1);
            }
            Ok(())
        };
        let res = in_process(&ctx(&db, 2, 2, 2), map, || (), count).unwrap();
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
                    c.emit(k, &payload, 1);
                }
                Ok(())
            },
            || (),
            |(): &mut (), k, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((Sequence, u64))| {
                assert_eq!(vs.len(), 1);
                assert_eq!(vs[0].0.len(), 100);
                emit((vec![k], 1));
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
                    c.emit(k, b"payload", 2);
                }
                Ok(())
            },
            || (),
            |(): &mut (), k, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((Sequence, u64))| {
                assert_eq!(vs.len(), 1, "duplicates must merge reduce-side");
                emit((vec![k], vs[0].1));
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
                c.emit(k, p, w);
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
        let merged = merge_bucket(&chunks).unwrap();
        type Group<'c> = (u32, Vec<(&'c [u8], u64)>);
        let groups: Vec<Group<'_>> = merged
            .groups
            .iter()
            .map(|(key, recs)| (*key, merged.recs[recs.clone()].to_vec()))
            .collect();
        let expect: Vec<Group<'_>> = vec![
            (1, vec![(b"x", 2), (b"z", 1)]),
            (127, vec![(b"w", 1)]),
            (128, vec![(b"y", 1)]),
            (129, vec![(b"y", 1), (b"x", 6)]),
            (256, vec![(b"z", 3)]),
        ];
        assert_eq!(groups, expect);
        // Equal payloads share the slice of their first arrival.
        let x = groups[0].1[0].0.as_ptr();
        assert_eq!(groups[3].1[1].0.as_ptr(), x);
        assert!(chunks[0].as_ptr_range().contains(&x));
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
            let via = in_process(&ctx, combined, || (), count).unwrap_err();
            // Validation comes before the first connection attempt.
            let addr = SocketAddr::from(([127, 0, 0, 1], 9));
            let worker = run_round(&ctx, Exec::Worker(addr), combined, || (), count).unwrap_err();
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
        RF: Fn(&mut S, ItemId, &[(&[u8], u64)], &mut dyn FnMut((Sequence, u64))) -> Result<()>
            + Sync,
    {
        let round = run_round(ctx, Exec::Via(&InProcess), map, init, reduce)?;
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
        RF: Fn(&mut S, ItemId, &[(&[u8], u64)], &mut dyn FnMut((Sequence, u64))) -> Result<()>
            + Sync,
    {
        let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
        let addr = coord.local_addr().unwrap();
        let worker_ctx = ctx(db, workers, partitions, reducers);
        let driver_ctx = ctx(db, 1, partitions, reducers);
        std::thread::scope(|s| {
            let worker =
                s.spawn(|| run_round(&worker_ctx, Exec::Worker(addr), &map, &init, &reduce));
            let round = run_round(&driver_ctx, Exec::Via(&coord), &map, &init, &reduce).unwrap();
            assert!(worker.join().unwrap().unwrap().is_none());
            round.unwrap()
        })
    }

    #[test]
    fn combine_reduce_output_is_deterministic_across_worker_counts() {
        // The work-stealing reduce must reproduce the sequential result,
        // whether it runs in process or on a worker process behind TCP.
        let db = singletons(0..3000);
        let map = |part: &[Sequence], c: &mut Combiner| {
            for &x in part.iter().flatten() {
                c.emit(x % 500, &x.to_le_bytes()[..1], 1);
            }
            Ok(())
        };
        for reducers in [1, 4] {
            let local = |workers| in_process(&ctx(&db, workers, 9, reducers), map, || (), count);
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
            }
            for workers in [1, 3] {
                let remote = via_tcp(&db, workers, 9, reducers, map, || (), count);
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
        let reduce =
            |_: &mut usize, k, _: &[(&[u8], u64)], emit: &mut dyn FnMut((Sequence, u64))| {
                emit((vec![k], 1));
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
            |(): &mut (), _k, _vs: &[(&[u8], u64)], _emit: &mut dyn FnMut((Sequence, u64))| {
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
    fn an_expired_deadline_aborts_the_job_with_deadline_exceeded() {
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let db = singletons([1]);
        let ctx = MiningContext {
            cancel: Some(&token),
            ..ctx(&db, 1, 1, 1)
        };
        let err = in_process(&ctx, combine_each_item, || (), count).unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded(_)), "{err}");
    }

    #[test]
    fn large_weights_survive_the_combine_wire_format() {
        let db = singletons([1]);
        let big = u64::from(u32::MAX) + 17;
        let res = in_process(
            &ctx(&db, 1, 1, 1),
            |_part: &[Sequence], c: &mut Combiner| {
                c.emit(9, b"", big);
                c.emit(9, b"", 1);
                Ok(())
            },
            || (),
            |(): &mut (), k, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((Sequence, u64))| {
                assert_eq!(vs.len(), 1);
                assert!(vs[0].0.is_empty());
                emit((vec![k], vs[0].1));
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
