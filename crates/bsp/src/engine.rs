//! The BSP engine: parallel map, optional combine, byte shuffle, parallel
//! reduce — one round of communication (Alg. 1 of the paper).
//!
//! # Hot-path layout
//!
//! Both job shapes hand the mapper a whole partition (`Fn(&[I], …)`), so
//! per-partition scratch (pivot-search tables, encode buffers) is created
//! once per map task instead of once per record. Keys are *encoded once*
//! and everything downstream works on the encoded bytes: the routing
//! bucket comes from a word-at-a-time hash of the key bytes reduced by a
//! multiply-shift (no modulo bias, no re-hash), and the combiner keys its
//! open-addressing table on `(key bytes, payload)` with that same hash
//! mixed once — never a byte-at-a-time `Hasher` walk per probe.
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
//! get dense ids from a small table, a counting pass scatters the records
//! into key groups, an epoch-stamped array indexed by payload id merges
//! duplicates within a group, and only the distinct keys are sorted. Key
//! groups reach the reducer in ascending order of their encoded key bytes,
//! each with its payloads in first-arrival order (map task, then record) —
//! the same order on every transport and at every worker count.

use std::marker::PhantomData;
use std::time::Instant;

use desq_core::codec::{read_varint, varint_len, write_varint};
use desq_core::fx::{bucket_of, hash_bytes, mix_hashes as mix, ProbeTable};
use desq_core::mining::{CancelToken, MiningContext};
use desq_core::sched::{self, IndexedRun};
use desq_core::{Error, MiningMetrics, Result, Sequence};

use crate::codec::Codec;
use crate::transport::{NetConfig, PhaseStats, ShuffleTransport};

/// Engine configuration: degree of parallelism plus an optional
/// cancellation token.
///
/// `workers` is the number of threads running map/reduce tasks (the paper's
/// executor cores); `reducers` the number of shuffle buckets (reduce tasks).
///
/// # Failure domains
///
/// Every map and reduce task runs on [`desq_core::sched`] and inherits its
/// task-boundary contract: a panicking task marks the job's
/// [`CancelToken`] (when one is attached), the remaining workers stop at
/// their next task boundary, and the job returns
/// [`Error::WorkerPanicked`] instead of killing the process; the first
/// task to return an error aborts the job with that error, unchanged. An
/// engine built [`for_context`](Engine::for_context) polls the run's token
/// between tasks; an expired deadline or external cancellation aborts the
/// job with the token's [`stop_reason`](CancelToken::stop_reason).
#[derive(Debug, Clone)]
pub struct Engine {
    workers: usize,
    reducers: usize,
    cancel: Option<CancelToken>,
}

/// One combined map-side record: its mixed hash, routing bucket, interned
/// payload id, key bytes (an arena range) and accumulated weight.
struct CombineEntry {
    hash: u64,
    bucket: u32,
    payload: u32,
    key_start: u32,
    key_end: u32,
    weight: u64,
}

/// Map-side emitter of [`Engine::map_combine_reduce_via`].
///
/// [`emit`](Combiner::emit) performs MapReduce-style *weighted
/// deduplication*: triples with identical `(key, payload)` within one map
/// task are merged by summing weights before serialization. The payload is
/// an opaque pre-encoded byte string — callers serialize it **once** per
/// logical value (e.g. one rewritten sequence shared by many pivot keys)
/// and pass the same slice to every `emit`; the combiner interns it so
/// each bucket chunk stores the bytes at most once.
pub struct Combiner<K> {
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
    key_data: Vec<u8>,
    key_buf: Vec<u8>,
    emitted: u64,
    _key: PhantomData<K>,
}

impl<K: Codec> Combiner<K> {
    fn new(reducers: usize) -> Combiner<K> {
        Combiner {
            reducers,
            payload_table: ProbeTable::new(),
            payload_hashes: Vec::new(),
            payload_ends: Vec::new(),
            payload_data: Vec::new(),
            last_payload: None,
            entry_table: ProbeTable::new(),
            entries: Vec::new(),
            key_data: Vec::new(),
            key_buf: Vec::new(),
            emitted: 0,
            _key: PhantomData,
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
    fn intern_payload(&mut self, payload: &[u8]) -> u32 {
        let phash = hash_bytes(payload);
        let hashes = &self.payload_hashes;
        self.payload_table
            .grow_if_needed(hashes.len(), |i| hashes[i as usize]);
        match self.payload_table.find(phash, |i| {
            self.payload_hashes[i as usize] == phash && self.payload_bytes(i) == payload
        }) {
            Ok(i) => i,
            Err(slot) => {
                // The u32 arena offsets and ids must not wrap (a map task
                // would need > 4 GiB of distinct payload bytes).
                assert!(
                    self.payload_data.len() + payload.len() <= u32::MAX as usize
                        && self.payload_hashes.len() < u32::MAX as usize,
                    "combiner payload arena exceeds the u32 offset range"
                );
                let id = self.payload_hashes.len() as u32;
                self.payload_hashes.push(phash);
                self.payload_data.extend_from_slice(payload);
                self.payload_ends.push(self.payload_data.len() as u32);
                self.payload_table.insert(slot, id);
                id
            }
        }
    }

    /// Emits one `(key, payload, weight)` triple. The key is encoded and
    /// hashed exactly once; the payload bytes are interned by content —
    /// unless they equal the previous call's, which D-SEQ's one payload per
    /// run of pivot keys makes the common case: that check skips the hash
    /// and probe, and costs one length compare when the payload changed.
    pub fn emit(&mut self, key: &K, payload: &[u8], weight: u64) {
        self.emitted += 1;
        self.key_buf.clear();
        key.encode(&mut self.key_buf);
        let khash = hash_bytes(&self.key_buf);
        let bucket = bucket_of(khash, self.reducers) as u32;

        let payload_id = match self.last_payload {
            Some(id) if self.payload_bytes(id) == payload => id,
            _ => self.intern_payload(payload),
        };
        self.last_payload = Some(payload_id);
        let phash = self.payload_hashes[payload_id as usize];

        // Combine on (key bytes, payload id).
        let ehash = mix(khash, phash);
        let (table, entries) = (&mut self.entry_table, &mut self.entries);
        table.grow_if_needed(entries.len(), |i| entries[i as usize].hash);
        let key_buf = &self.key_buf;
        let key_data = &self.key_data;
        match table.find(ehash, |i| {
            let e = &entries[i as usize];
            e.hash == ehash
                && e.payload == payload_id
                && &key_data[e.key_start as usize..e.key_end as usize] == key_buf.as_slice()
        }) {
            Ok(i) => entries[i as usize].weight += weight,
            Err(slot) => {
                assert!(
                    self.key_data.len() + self.key_buf.len() <= u32::MAX as usize
                        && entries.len() < u32::MAX as usize,
                    "combiner key arena exceeds the u32 offset range"
                );
                let key_start = self.key_data.len() as u32;
                self.key_data.extend_from_slice(&self.key_buf);
                entries.push(CombineEntry {
                    hash: ehash,
                    bucket,
                    payload: payload_id,
                    key_start,
                    key_end: self.key_data.len() as u32,
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
    /// `varint(#payloads), (varint(len), bytes)*, (key bytes,
    /// varint(payload id), varint(weight))*`.
    fn into_task_out(self) -> MapTaskOut {
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
                rec_bytes += (e.key_end - e.key_start) as usize
                    + varint_len(u64::from(local_id[p]))
                    + varint_len(e.weight);
            }
            let total = varint_len(plist.len() as u64) + dict_bytes + rec_bytes;
            let mut buf = Vec::with_capacity(total);
            write_varint(&mut buf, plist.len() as u64);
            for &p in &plist {
                let bytes = self.payload_bytes(p);
                write_varint(&mut buf, bytes.len() as u64);
                buf.extend_from_slice(bytes);
            }
            for &i in entries {
                let e = &self.entries[i as usize];
                buf.extend_from_slice(&self.key_data[e.key_start as usize..e.key_end as usize]);
                write_varint(&mut buf, u64::from(local_id[e.payload as usize]));
                write_varint(&mut buf, e.weight);
            }
            debug_assert_eq!(buf.len(), total, "combine chunk size miscounted");
            payloads_written += plist.len() as u64;
            buckets.push(buf);
        }
        MapTaskOut {
            buckets,
            emitted: self.emitted,
            shuffled: self.entries.len() as u64,
            payloads: payloads_written,
        }
    }
}

/// The byte-space output of one map task: one serialized chunk per reduce
/// bucket plus the combine accounting. This is the unit that crosses a
/// [`ShuffleTransport`] — already fully encoded, so shipping it over a
/// socket is a plain byte copy.
pub struct MapTaskOut {
    /// One encoded chunk per reduce bucket (an empty bucket is an empty
    /// chunk). Always exactly [`Engine::reducers`] entries.
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
    fn intern(&mut self, bytes: &'c [u8]) -> u32 {
        let hash = hash_bytes(bytes);
        let hashes = &self.hashes;
        self.table
            .grow_if_needed(hashes.len(), |i| hashes[i as usize]);
        match self.table.find(hash, |i| {
            self.hashes[i as usize] == hash && self.slices[i as usize] == bytes
        }) {
            Ok(i) => i,
            Err(slot) => {
                let id = self.slices.len() as u32;
                self.hashes.push(hash);
                self.slices.push(bytes);
                self.table.insert(slot, id);
                id
            }
        }
    }
}

/// One reduce bucket after the merge: its key groups in ascending order of
/// the encoded key bytes, each holding the key's distinct payloads with
/// their weights summed across map tasks, in first-arrival order (map task,
/// then record). Every slice borrows from the shuffle chunks.
struct MergedBucket<'c> {
    /// Encoded key and its payloads' range in `recs`, per key group.
    groups: Vec<(&'c [u8], std::ops::Range<usize>)>,
    recs: Vec<(&'c [u8], u64)>,
}

/// The reduce-side merge of one bucket (see the module docs): decodes its
/// shuffle chunks and merges duplicate `(key, payload)` records across map
/// tasks into key groups. Every array is sized by a count of records or
/// dictionary entries read so far, so by the chunks' own length.
fn merge_bucket<'c, K: Codec>(chunks: &'c [Vec<u8>]) -> Result<MergedBucket<'c>> {
    let (mut payloads, mut keys) = (Interner::default(), Interner::default());
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
            if len > slice.len() {
                return Err(Error::Decode(format!(
                    "payload: length {len} exceeds input"
                )));
            }
            let (head, rest) = slice.split_at(len);
            local.push(payloads.intern(head));
            slice = rest;
        }
        while !slice.is_empty() {
            let before = slice;
            K::decode(&mut slice)?;
            let key = keys.intern(&before[..before.len() - slice.len()]);
            let pid = read_varint(&mut slice)? as usize;
            let payload = *local
                .get(pid)
                .ok_or_else(|| Error::Decode(format!("payload id {pid} out of range")))?;
            arrivals.push((key, payload, read_varint(&mut slice)?));
        }
    }

    // Counting pass: stable scatter of the records into key groups.
    let mut starts = vec![0usize; keys.slices.len() + 1];
    for &(k, _, _) in &arrivals {
        starts[k as usize + 1] += 1;
    }
    for k in 0..keys.slices.len() {
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
    let mut ranges = Vec::with_capacity(keys.slices.len());
    for k in 0..keys.slices.len() {
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

    // Key groups ascend by encoded key bytes: a sort of the distinct keys.
    let mut order: Vec<u32> = (0..keys.slices.len() as u32).collect();
    order.sort_unstable_by_key(|&k| keys.slices[k as usize]);
    let groups = order
        .into_iter()
        .map(|k| (keys.slices[k as usize], ranges[k as usize].clone()))
        .collect();
    Ok(MergedBucket { groups, recs })
}

/// The reduce-side merge of one bucket's shuffle chunks on its own: its
/// number of key groups and of merged records. Exposed for the kernel
/// benchmarks.
#[doc(hidden)]
pub fn merge_bucket_sizes<K: Codec>(chunks: &[Vec<u8>]) -> Result<(usize, usize)> {
    let merged = merge_bucket::<K>(chunks)?;
    Ok((merged.groups.len(), merged.recs.len()))
}

/// Decodes one bucket's encoded reduce outputs (`varint(#outputs)` +
/// outputs), appending to `out`. Rejects hostile counts before any
/// allocation and trailing garbage after the last output.
fn decode_bucket_outputs<O: Codec>(bytes: &[u8], out: &mut Vec<O>) -> Result<()> {
    let mut slice = bytes;
    let n = read_varint(&mut slice)? as usize;
    if n > slice.len() {
        return Err(Error::Decode(format!(
            "bucket output: count {n} exceeds input"
        )));
    }
    for _ in 0..n {
        out.push(O::decode(&mut slice)?);
    }
    if !slice.is_empty() {
        return Err(Error::Decode(format!(
            "bucket output: {} trailing bytes",
            slice.len()
        )));
    }
    Ok(())
}

impl Engine {
    /// An engine with `workers` threads and as many reduce buckets.
    pub fn new(workers: usize) -> Engine {
        let workers = workers.max(1);
        Engine {
            workers,
            reducers: workers,
            cancel: None,
        }
    }

    /// Overrides the number of reduce buckets.
    pub fn with_reducers(mut self, reducers: usize) -> Engine {
        self.reducers = reducers.max(1);
        self
    }

    /// The engine and map partitions of one mining run — the one place a
    /// [`MiningContext`] becomes an engine: `ctx.workers` threads,
    /// `ctx.reducers` buckets and the run's cancellation token (every job
    /// polls it at task granularity and aborts with its stop reason once it
    /// trips), over the database cut into `ctx.partitions` map chunks. A
    /// driver and its worker processes built from equal contexts therefore
    /// agree on partitions and buckets.
    pub fn for_context<'c>(ctx: &MiningContext<'c>) -> (Engine, Vec<&'c [Sequence]>) {
        let engine = Engine {
            cancel: ctx.cancel.cloned(),
            ..Engine::new(ctx.workers).with_reducers(ctx.reducers)
        };
        (engine, ctx.db.partition(ctx.partitions))
    }

    /// Polls the attached token (if any).
    pub(crate) fn checkpoint(&self) -> Result<()> {
        self.cancel.as_ref().map_or(Ok(()), CancelToken::checkpoint)
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of reduce buckets.
    pub fn reducers(&self) -> usize {
        self.reducers
    }

    /// Runs a map → shuffle → reduce job without a combiner, in process
    /// only. Its one caller is D-CAND's no-aggregation ablation (Fig. 10b,
    /// "tries, no agg"), which must ship and expand every NFA copy: the
    /// combining round ([`map_combine_reduce_via`](Self::map_combine_reduce_via))
    /// would merge identical payloads on both sides and change the figure's
    /// time and bytes.
    ///
    /// The mapper is invoked once per input *partition* (so per-task
    /// scratch hoists out of the per-record loop) and emits `(key, value)`
    /// pairs; the reducer is invoked once per distinct key with all its
    /// values, in a deterministic order (encoded-key lexicographic, values
    /// in map-task emission order). Output order across keys is
    /// unspecified.
    pub fn map_reduce<I, K, V, O, MF, RF>(
        &self,
        parts: &[&[I]],
        map: MF,
        reduce: RF,
    ) -> Result<(Vec<O>, MiningMetrics)>
    where
        I: Sync,
        K: Codec + Send,
        V: Codec + Send,
        O: Send,
        MF: Fn(&[I], &mut dyn FnMut(K, V)) -> Result<()> + Sync,
        RF: Fn(&K, Vec<V>, &mut dyn FnMut(O)) -> Result<()> + Sync,
    {
        let mut metrics = MiningMetrics::default();

        // ---- map phase ----
        let t0 = Instant::now();
        let reducers = self.reducers;
        let mapped = self.run_tasks(parts.len(), |t| {
            let mut out = MapTaskOut {
                buckets: vec![Vec::new(); reducers],
                emitted: 0,
                shuffled: 0,
                payloads: 0,
            };
            let mut key_buf: Vec<u8> = Vec::new();
            let mut emit = |k: K, v: V| {
                key_buf.clear();
                k.encode(&mut key_buf);
                let b = bucket_of(hash_bytes(&key_buf), reducers);
                out.buckets[b].extend_from_slice(&key_buf);
                v.encode(&mut out.buckets[b]);
                out.emitted += 1;
                out.shuffled += 1;
            };
            map(parts[t], &mut emit)?;
            Ok(out)
        })?;
        metrics.map_nanos = t0.elapsed().as_nanos() as u64;

        let chunks = self.regroup(mapped.results, &mut metrics);

        // ---- reduce phase ----
        let t1 = Instant::now();
        let reduced = self.run_tasks(self.reducers, |t| {
            #[cfg(feature = "failpoints")]
            desq_core::fault::point("bsp::reduce_merge")?;
            // Decode records keeping the raw key bytes; group by them
            // (equal keys ⇔ equal encodings).
            let mut items: Vec<(&[u8], V)> = Vec::new();
            for chunk in &chunks[t] {
                let mut slice = chunk.as_slice();
                while !slice.is_empty() {
                    let before = slice;
                    K::decode(&mut slice)?;
                    let key = &before[..before.len() - slice.len()];
                    let v = V::decode(&mut slice)?;
                    items.push((key, v));
                }
            }
            // Stable: values of one key stay in map-task emission order.
            items.sort_by(|a, b| a.0.cmp(b.0));
            let mut out: Vec<O> = Vec::new();
            let mut iter = items.into_iter().peekable();
            while let Some((key, v)) = iter.next() {
                let mut vs = vec![v];
                while let Some((k2, _)) = iter.peek() {
                    if *k2 != key {
                        break;
                    }
                    vs.push(iter.next().expect("peeked").1);
                }
                let k = K::decode(&mut &key[..])?;
                let mut emit = |o: O| out.push(o);
                reduce(&k, vs, &mut emit)?;
            }
            Ok(out)
        })?;
        metrics.reduce_nanos = t1.elapsed().as_nanos() as u64;
        metrics.max_task_nanos = mapped.max_task_nanos.max(reduced.max_task_nanos);

        let flat: Vec<O> = reduced.results.into_iter().flatten().collect();
        metrics.output_records = flat.len() as u64;
        metrics.cancelled = self.cancel.as_ref().is_some_and(CancelToken::is_stopped);
        Ok((flat, metrics))
    }

    /// Runs one map → combine → shuffle → reduce round through
    /// `transport`: in this process ([`InProcess`](crate::transport::InProcess))
    /// or as the driver of worker processes serving it with
    /// [`run_worker`](Self::run_worker)
    /// ([`NetCoordinator`](crate::transport::NetCoordinator)).
    ///
    /// The mapper receives one input partition and a [`Combiner`]: it emits
    /// `(key, payload bytes, weight)` triples, where the payload is
    /// pre-encoded **once** by the caller (use the [`crate::codec`]
    /// helpers) and shared across emissions. Triples with identical
    /// `(key, payload)` within one map task are merged by summing weights
    /// before serialization, and payload byte strings are interned per
    /// bucket chunk — the aggregation D-CAND applies to identical NFAs
    /// (Sec. VI-A) and D-SEQ/LASH apply to identical rewritten sequences.
    ///
    /// The reducer is invoked once per distinct key with all distinct
    /// payloads and their total weights (merged across map tasks), each
    /// payload a slice *borrowed from the shuffle buffers* — equal payloads
    /// share one slice — in first-arrival order (map task, then record);
    /// within a bucket, keys come in ascending order of their encoded
    /// bytes. Key groups are batched
    /// into tasks under work stealing in whichever process holds the
    /// buckets, so a hot D-SEQ pivot does not pin its bucket to one thread.
    /// `init` runs once per worker per reduce call (all buckets in process,
    /// one bucket on a worker process); payload slices outlive that state,
    /// so caches keyed on their identity (D-SEQ's table index) stay valid.
    ///
    /// Outputs cross the transport encoded ([`Codec`]) and come back in a
    /// deterministic order — buckets in order, key groups by encoded key
    /// bytes within a bucket — whatever the transport, worker count or
    /// steal schedule.
    /// [`MiningMetrics::tasks`]/[`steals`](MiningMetrics::steals) count
    /// key-group tasks in process and shipped buckets over the network.
    pub fn map_combine_reduce_via<I, K, O, S, MF, IF, RF>(
        &self,
        transport: &dyn ShuffleTransport,
        parts: &[&[I]],
        map: MF,
        init: IF,
        reduce: RF,
    ) -> Result<(Vec<O>, MiningMetrics)>
    where
        I: Sync,
        K: Codec,
        O: Codec,
        S: Send,
        MF: Fn(&[I], &mut Combiner<K>) -> Result<()> + Sync,
        IF: Fn() -> S + Sync,
        RF: Fn(&mut S, &K, &[(&[u8], u64)], &mut dyn FnMut(O)) -> Result<()> + Sync,
    {
        let mut metrics = MiningMetrics::default();
        let merge_stats = |metrics: &mut MiningMetrics, s: &PhaseStats| {
            metrics.retried_tasks += s.retried_tasks;
            metrics.peer_timeouts += s.peer_timeouts;
            metrics.max_task_nanos = metrics.max_task_nanos.max(s.max_task_nanos);
            metrics.tasks += s.tasks;
            metrics.steals += s.steals;
        };

        // ---- map + combine phase ----
        let t0 = Instant::now();
        let reducers = self.reducers;
        let map_local = |t: usize| -> Result<MapTaskOut> {
            let mut combiner = Combiner::new(reducers);
            map(parts[t], &mut combiner)?;
            Ok(combiner.into_task_out())
        };
        let (outs, stats) = transport.map_phase(self, parts.len(), &map_local)?;
        metrics.map_nanos = t0.elapsed().as_nanos() as u64;
        merge_stats(&mut metrics, &stats);

        let chunks = self.regroup(outs, &mut metrics);

        // ---- reduce phase ----
        let t1 = Instant::now();
        let reduce_local = |buckets: &[Vec<Vec<u8>>]| self.reduce_buckets(buckets, &init, &reduce);
        let (bucket_outs, stats) = transport.reduce_phase(self, chunks, &reduce_local)?;
        metrics.reduce_nanos = t1.elapsed().as_nanos() as u64;
        merge_stats(&mut metrics, &stats);

        let mut flat: Vec<O> = Vec::new();
        for bytes in bucket_outs {
            decode_bucket_outputs::<O>(&bytes, &mut flat)?;
        }
        metrics.output_records = flat.len() as u64;
        metrics.cancelled = self.cancel.as_ref().is_some_and(CancelToken::is_stopped);
        Ok((flat, metrics))
    }

    /// Serves one distributed job as a worker process: connects to the
    /// coordinator at `addr` (under `cfg.retry`), executes the map tasks
    /// and reduces the buckets it is assigned (key groups balanced across
    /// this engine's workers) against this process's own copy of `parts`
    /// and the job closures, and returns when the coordinator ends the job.
    ///
    /// Every process in the job must derive the *same* partition list and
    /// closures (same corpus, same configuration) — only task ids and
    /// encoded bytes cross the wire. Returns [`Error::PeerUnreachable`]
    /// once the reconnect budget is spent.
    pub fn run_worker<I, K, O, S, MF, IF, RF>(
        &self,
        addr: std::net::SocketAddr,
        cfg: &NetConfig,
        parts: &[&[I]],
        map: MF,
        init: IF,
        reduce: RF,
    ) -> Result<()>
    where
        K: Codec,
        O: Codec,
        S: Send,
        MF: Fn(&[I], &mut Combiner<K>) -> Result<()>,
        IF: Fn() -> S + Sync,
        RF: Fn(&mut S, &K, &[(&[u8], u64)], &mut dyn FnMut(O)) -> Result<()> + Sync,
    {
        let reducers = self.reducers;
        let on_map = |task: u64| -> Result<MapTaskOut> {
            let part = parts.get(task as usize).ok_or_else(|| {
                Error::Invalid(format!(
                    "map task {task} out of range ({} partitions)",
                    parts.len()
                ))
            })?;
            let mut combiner = Combiner::new(reducers);
            map(part, &mut combiner)?;
            Ok(combiner.into_task_out())
        };
        let on_reduce = |buckets: &[Vec<Vec<u8>>]| self.reduce_buckets(buckets, &init, &reduce);
        crate::transport::worker_loop(addr, cfg, &on_map, &on_reduce)
    }

    /// The one reduce of a round, over `chunks` (one list per bucket): each
    /// bucket's outputs encoded for the transport plus the phase counters.
    /// Buckets are merged in parallel, then the key groups of all of them
    /// run as stealable tasks with one `init()` state per worker.
    fn reduce_buckets<K, O, S, IF, RF>(
        &self,
        chunks: &[Vec<Vec<u8>>],
        init: &IF,
        reduce: &RF,
    ) -> Result<(Vec<Vec<u8>>, PhaseStats)>
    where
        K: Codec,
        O: Codec,
        S: Send,
        IF: Fn() -> S,
        RF: Fn(&mut S, &K, &[(&[u8], u64)], &mut dyn FnMut(O)) -> Result<()> + Sync,
    {
        // Step 1 (parallel, one task per bucket): decode the shuffle
        // chunks and merge them into key groups.
        let merged = self.run_tasks(chunks.len(), |t| {
            #[cfg(feature = "failpoints")]
            desq_core::fault::point("bsp::reduce_merge")?;
            merge_bucket::<K>(&chunks[t])
        })?;
        let buckets = &merged.results;

        // Step 2: batch adjacent light key groups of a bucket into tasks
        // and run the tasks under work stealing, so a heavy key group (a
        // hot D-SEQ pivot) is balanced across workers instead of pinning
        // its whole bucket to one thread. A task closes at a bucket
        // boundary (keeps output bookkeeping simple), once it holds enough
        // records to amortize a queue round trip, or at a group-count cap
        // so huge flocks of trivial keys still split; a single heavy group
        // always gets its own task.
        const RECS_PER_TASK: usize = 256;
        const GROUPS_PER_TASK: usize = 64;
        let mut tasks: Vec<(usize, std::ops::Range<usize>)> = Vec::new(); // (bucket, groups)
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
            self.workers,
            self.cancel.as_ref(),
            init,
            |ti, state: &mut S| {
                let (b, ref groups) = tasks[ti];
                let bucket = &buckets[b];
                let (mut n, mut bytes) = (0u64, Vec::new());
                for (key, recs) in &bucket.groups[groups.clone()] {
                    let k = K::decode(&mut &key[..])?;
                    let mut emit = |o: O| {
                        n += 1;
                        o.encode(&mut bytes);
                    };
                    reduce(state, &k, &bucket.recs[recs.clone()], &mut emit)?;
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
    /// ([`sched::run_indexed`] bound to this engine's workers and token).
    pub(crate) fn run_tasks<T: Send>(
        &self,
        n: usize,
        task: impl Fn(usize) -> Result<T> + Sync,
    ) -> Result<IndexedRun<T>> {
        sched::run_indexed(
            n,
            self.workers,
            self.cancel.as_ref(),
            || (),
            |t, ()| task(t),
        )
    }

    /// Transposes map-task outputs into per-reducer chunk lists and fills in
    /// shuffle metrics.
    fn regroup(&self, outs: Vec<MapTaskOut>, metrics: &mut MiningMetrics) -> Vec<Vec<Vec<u8>>> {
        let mut chunks: Vec<Vec<Vec<u8>>> = (0..self.reducers).map(|_| Vec::new()).collect();
        let mut reducer_bytes = vec![0u64; self.reducers];
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InProcess, NetCoordinator};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Distributed word count: the "hello world" of the model.
    #[test]
    fn word_count() {
        let data: Vec<Vec<u32>> = vec![vec![1, 2, 2], vec![2, 3], vec![1, 1, 1]];
        let parts: Vec<&[Vec<u32>]> = vec![&data[0..2], &data[2..3]];
        let engine = Engine::new(4);
        let (mut out, metrics) = engine
            .map_reduce(
                &parts,
                |part: &[Vec<u32>], emit: &mut dyn FnMut(u32, u64)| {
                    for seq in part {
                        for &w in seq {
                            emit(w, 1);
                        }
                    }
                    Ok(())
                },
                |&k, vs: Vec<u64>, emit: &mut dyn FnMut((u32, u64))| {
                    emit((k, vs.into_iter().sum()));
                    Ok(())
                },
            )
            .unwrap();
        out.sort();
        assert_eq!(out, vec![(1, 4), (2, 3), (3, 1)]);
        assert_eq!(metrics.emitted_records, 8);
        assert_eq!(metrics.shuffle_records, 8);
        assert!(metrics.shuffle_bytes > 0);
        assert_eq!(metrics.output_records, 3);
    }

    #[test]
    fn combiner_reduces_shuffle_volume() {
        let data: Vec<Vec<u32>> = vec![vec![7; 100], vec![7; 100]];
        let parts: Vec<&[Vec<u32>]> = vec![&data[0..1], &data[1..2]];
        let engine = Engine::new(2);

        let map = |part: &[Vec<u32>], out: &mut Combiner<u32>| {
            for seq in part {
                for &w in seq {
                    out.emit(&w, &w.to_le_bytes(), 1);
                }
            }
            Ok(())
        };
        let reduce =
            |(): &mut (), &k: &u32, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((u32, u64))| {
                let total = vs.iter().map(|(_, w)| w).sum();
                emit((k, total));
                Ok(())
            };
        let (out, metrics) = engine
            .map_combine_reduce_via(&InProcess, &parts, map, || (), reduce)
            .unwrap();
        assert_eq!(out, vec![(7, 200)]);
        assert_eq!(metrics.emitted_records, 200);
        // Each map task combines its 100 identical records into one.
        assert_eq!(metrics.shuffle_records, 2);
        assert_eq!(metrics.shuffle_payloads, 2);
        assert!(metrics.combine_ratio() > 99.0);
    }

    #[test]
    fn payload_interning_dedups_across_keys() {
        // One map task, many keys sharing one payload, one reducer: the
        // payload bytes must hit the wire exactly once.
        let data: Vec<u32> = (0..64).collect();
        let parts: Vec<&[u32]> = vec![&data];
        let engine = Engine::new(1).with_reducers(1);
        let payload: Vec<u8> = vec![0xAB; 100];
        let (mut out, metrics) = engine
            .map_combine_reduce_via(
                &InProcess,
                &parts,
                |part: &[u32], c: &mut Combiner<u32>| {
                    for &k in part {
                        c.emit(&k, &payload, 1);
                    }
                    Ok(())
                },
                || (),
                |(): &mut (), &k: &u32, vs: &[(&[u8], u64)], emit: &mut dyn FnMut(u32)| {
                    assert_eq!(vs.len(), 1);
                    assert_eq!(vs[0].0.len(), 100);
                    emit(k);
                    Ok(())
                },
            )
            .unwrap();
        out.sort();
        assert_eq!(out.len(), 64);
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
        let data: Vec<u32> = vec![5, 5, 5, 5];
        let parts: Vec<&[u32]> = data.chunks(1).collect(); // 4 map tasks
        let engine = Engine::new(2).with_reducers(3);
        let (out, metrics) = engine
            .map_combine_reduce_via(
                &InProcess,
                &parts,
                |part: &[u32], c: &mut Combiner<u32>| {
                    for &k in part {
                        c.emit(&k, b"payload", 2);
                    }
                    Ok(())
                },
                || (),
                |(): &mut (), &k: &u32, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((u32, u64))| {
                    assert_eq!(vs.len(), 1, "duplicates must merge reduce-side");
                    emit((k, vs[0].1));
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(out, vec![(5, 8)]);
        assert_eq!(metrics.shuffle_records, 4); // one per map task
    }

    #[test]
    fn merge_orders_keys_by_encoded_bytes_and_payloads_by_arrival() {
        // One bucket, two map tasks. Keys 129 = [0x81 0x01] and
        // 256 = [0x80 0x02] sort the other way round as bytes.
        let chunk = |emits: &[(u32, &[u8], u64)]| {
            let mut c = Combiner::<u32>::new(1);
            for &(k, p, w) in emits {
                c.emit(&k, p, w);
            }
            c.into_task_out().buckets.pop().unwrap()
        };
        let chunks = vec![
            chunk(&[(129, b"y", 1), (2, b"x", 1), (129, b"x", 2)]),
            chunk(&[(2, b"z", 1), (256, b"z", 3), (129, b"x", 4), (2, b"x", 1)]),
        ];
        let merged = merge_bucket::<u32>(&chunks).unwrap();
        type Group<'c> = (u32, Vec<(&'c [u8], u64)>);
        let groups: Vec<Group<'_>> = merged
            .groups
            .iter()
            .map(|(key, recs)| {
                let key = u32::decode(&mut &key[..]).unwrap();
                (key, merged.recs[recs.clone()].to_vec())
            })
            .collect();
        let expect: Vec<Group<'_>> = vec![
            (2, vec![(b"x", 2), (b"z", 1)]),
            (256, vec![(b"z", 3)]),
            (129, vec![(b"y", 1), (b"x", 6)]),
        ];
        assert_eq!(groups, expect);
        // Equal payloads share the slice of their first arrival.
        let x = groups[0].1[0].0.as_ptr();
        assert_eq!(groups[2].1[1].0.as_ptr(), x);
        assert!(chunks[0].as_ptr_range().contains(&x));
    }

    #[test]
    fn reducer_sees_all_values_of_a_key_exactly_once() {
        let data: Vec<u32> = (0..1000).collect();
        let parts: Vec<&[u32]> = data.chunks(37).collect();
        let engine = Engine::new(3).with_reducers(5);
        let (mut out, metrics) = engine
            .map_reduce(
                &parts,
                |part: &[u32], emit: &mut dyn FnMut(u32, u32)| {
                    for &x in part {
                        emit(x % 10, x);
                    }
                    Ok(())
                },
                |&k, vs: Vec<u32>, emit: &mut dyn FnMut((u32, usize, u64))| {
                    emit((k, vs.len(), vs.iter().map(|&v| u64::from(v)).sum()));
                    Ok(())
                },
            )
            .unwrap();
        out.sort();
        assert_eq!(out.len(), 10);
        for (k, n, sum) in out {
            assert_eq!(n, 100);
            // sum of k, k+10, ..., k+990
            let expect: u64 = (0..100).map(|i| u64::from(k) + 10 * i).sum();
            assert_eq!(sum, expect);
        }
        assert_eq!(metrics.reducer_bytes.len(), 5);
    }

    #[test]
    fn mapper_error_aborts_job() {
        let data = vec![1u32, 2, 3];
        let parts: Vec<&[u32]> = vec![&data];
        let engine = Engine::new(2);
        let err = engine
            .map_reduce(
                &parts,
                |part: &[u32], _emit: &mut dyn FnMut(u32, u32)| {
                    if part.contains(&2) {
                        Err(Error::ResourceExhausted("boom".into()))
                    } else {
                        Ok(())
                    }
                },
                |_k: &u32, _vs: Vec<u32>, _emit: &mut dyn FnMut(u32)| Ok(()),
            )
            .unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
    }

    #[test]
    fn reducer_error_aborts_job() {
        let data = vec![1u32];
        let parts: Vec<&[u32]> = vec![&data];
        let engine = Engine::new(2);
        let err = engine
            .map_reduce(
                &parts,
                |part: &[u32], emit: &mut dyn FnMut(u32, u32)| {
                    for &x in part {
                        emit(x, x);
                    }
                    Ok(())
                },
                |_k: &u32, _vs: Vec<u32>, _emit: &mut dyn FnMut(u32)| {
                    Err(Error::Invalid("reduce failed".into()))
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::Invalid(_)));
    }

    #[test]
    fn empty_input() {
        let parts: Vec<&[u32]> = vec![];
        let engine = Engine::new(2);
        let (out, metrics) = engine
            .map_reduce(
                &parts,
                |part: &[u32], emit: &mut dyn FnMut(u32, u32)| {
                    for &x in part {
                        emit(x, x);
                    }
                    Ok(())
                },
                |&k: &u32, _vs: Vec<u32>, emit: &mut dyn FnMut(u32)| {
                    emit(k);
                    Ok(())
                },
            )
            .unwrap();
        assert!(out.is_empty());
        assert_eq!(metrics.shuffle_bytes, 0);
    }

    #[test]
    fn bucket_routing_is_stable_and_spread() {
        // (The in-range and tail-distinction properties of the primitives
        // are tested at their home, `desq_core::fx`.)
        let h = hash_bytes(&42u32.to_le_bytes());
        assert_eq!(bucket_of(h, 8), bucket_of(h, 8));
        let mut seen = std::collections::HashSet::new();
        for k in 0u32..64 {
            seen.insert(bucket_of(hash_bytes(&k.to_le_bytes()), 8));
        }
        assert!(
            seen.len() >= 6,
            "keys should spread over most buckets: {seen:?}"
        );
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let data: Vec<u32> = (0..500).collect();
        let parts: Vec<&[u32]> = data.chunks(23).collect();
        let run = |workers| {
            let engine = Engine::new(workers);
            let (mut out, _) = engine
                .map_reduce(
                    &parts,
                    |part: &[u32], emit: &mut dyn FnMut(u32, u64)| {
                        for &x in part {
                            emit(x % 7, u64::from(x));
                        }
                        Ok(())
                    },
                    |&k, vs: Vec<u64>, emit: &mut dyn FnMut((u32, u64))| {
                        emit((k, vs.into_iter().sum()));
                        Ok(())
                    },
                )
                .unwrap();
            out.sort();
            out
        };
        assert_eq!(run(1), run(8));
    }

    /// One combining round driven by a `NetCoordinator` over localhost and
    /// served by one in-thread [`Engine::run_worker`] with `workers`
    /// threads; driver and worker share the closures.
    fn via_tcp<O, S, MF, IF, RF>(
        workers: usize,
        reducers: usize,
        parts: &[&[u32]],
        map: MF,
        init: IF,
        reduce: RF,
    ) -> (Vec<O>, MiningMetrics)
    where
        O: Codec,
        S: Send,
        MF: Fn(&[u32], &mut Combiner<u32>) -> Result<()> + Sync,
        IF: Fn() -> S + Sync,
        RF: Fn(&mut S, &u32, &[(&[u8], u64)], &mut dyn FnMut(O)) -> Result<()> + Sync,
    {
        let coord = NetCoordinator::bind("127.0.0.1:0", NetConfig::default()).unwrap();
        let addr = coord.local_addr().unwrap();
        std::thread::scope(|s| {
            let worker = s.spawn(|| {
                Engine::new(workers).with_reducers(reducers).run_worker(
                    addr,
                    &NetConfig::default(),
                    parts,
                    &map,
                    &init,
                    &reduce,
                )
            });
            let round = Engine::new(1)
                .with_reducers(reducers)
                .map_combine_reduce_via(&coord, parts, &map, &init, &reduce)
                .unwrap();
            worker.join().unwrap().unwrap();
            round
        })
    }

    #[test]
    fn combine_reduce_output_is_deterministic_across_worker_counts() {
        // The work-stealing reduce must reproduce the sequential per-bucket
        // output order exactly, whether it runs in process or on a worker
        // process behind TCP — compare *unsorted* outputs.
        let data: Vec<u32> = (0..3000).collect();
        let parts: Vec<&[u32]> = data.chunks(370).collect();
        let map = |part: &[u32], c: &mut Combiner<u32>| {
            for &x in part {
                c.emit(&(x % 500), &x.to_le_bytes()[..1], 1);
            }
            Ok(())
        };
        let reduce =
            |(): &mut (), &k: &u32, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((u32, u64))| {
                emit((k, vs.iter().map(|&(_, w)| w).sum()));
                Ok(())
            };
        for reducers in [1, 4] {
            let in_process = |workers| {
                Engine::new(workers)
                    .with_reducers(reducers)
                    .map_combine_reduce_via(&InProcess, &parts, map, || (), reduce)
                    .unwrap()
            };
            let (seq, seq_metrics) = in_process(1);
            assert_eq!(seq.len(), 500);
            assert!(seq_metrics.tasks > reducers as u64, "key groups batched");
            for workers in [2, 3, 4, 8] {
                let (par, metrics) = in_process(workers);
                assert_eq!(par, seq, "workers={workers} reducers={reducers}");
                assert_eq!(metrics.tasks, seq_metrics.tasks);
            }
            for workers in [1, 3] {
                let (remote, metrics) = via_tcp(workers, reducers, &parts, map, || (), reduce);
                assert_eq!(remote, seq, "TCP workers={workers} reducers={reducers}");
                assert_eq!(metrics.tasks, reducers as u64, "one ReduceTask per bucket");
            }
        }
    }

    #[test]
    fn reduce_state_initializes_once_per_worker() {
        let map = |part: &[u32], c: &mut Combiner<u32>| {
            for &x in part {
                c.emit(&x, b"", 1);
            }
            Ok(())
        };
        let inits = AtomicUsize::new(0);
        let init = || inits.fetch_add(1, Ordering::Relaxed);
        let reduce = |_: &mut usize, &k: &u32, _: &[(&[u8], u64)], emit: &mut dyn FnMut(u32)| {
            emit(k);
            Ok(())
        };

        // In process, 8 buckets but 3 workers: at most one state per
        // reduce worker for the whole round, not one per bucket.
        let data: Vec<u32> = (0..200).collect();
        let parts: Vec<&[u32]> = data.chunks(29).collect();
        let (out, _) = Engine::new(3)
            .with_reducers(8)
            .map_combine_reduce_via(&InProcess, &parts, map, init, reduce)
            .unwrap();
        assert_eq!(out.len(), 200);
        assert!(
            inits.swap(0, Ordering::Relaxed) <= 3,
            "init must be per worker, not per bucket"
        );

        // On a worker process: at most one state per worker thread per
        // `ReduceTask`. Each bucket holds ~1000 key groups (16 tasks), so
        // its key groups are spread over all 3 threads — more states than
        // buckets, which a one-task-per-bucket reduce never makes.
        let data: Vec<u32> = (0..2000).collect();
        let parts: Vec<&[u32]> = data.chunks(290).collect();
        let (out, _) = via_tcp(3, 2, &parts, map, init, reduce);
        assert_eq!(out.len(), 2000);
        let remote_inits = inits.into_inner();
        assert!(
            (3..=3 * 2).contains(&remote_inits),
            "{remote_inits} inits for 2 ReduceTasks on 3 threads"
        );
    }

    #[test]
    fn a_panicking_mapper_aborts_the_job_not_the_process() {
        let data = [1u32, 2, 3];
        let parts: Vec<&[u32]> = data.chunks(1).collect();
        let token = CancelToken::new();
        let engine = Engine {
            cancel: Some(token.clone()),
            ..Engine::new(2)
        };
        let err = engine
            .map_reduce(
                &parts,
                |part: &[u32], emit: &mut dyn FnMut(u32, u32)| {
                    if part.contains(&2) {
                        panic!("mapper blew up on {part:?}");
                    }
                    for &x in part {
                        emit(x, x);
                    }
                    Ok(())
                },
                |&k: &u32, _vs: Vec<u32>, emit: &mut dyn FnMut(u32)| {
                    emit(k);
                    Ok(())
                },
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
        let data = vec![1u32, 2, 3, 4];
        let parts: Vec<&[u32]> = vec![&data];
        let engine = Engine::new(2).with_reducers(2);
        let err = engine
            .map_combine_reduce_via(
                &InProcess,
                &parts,
                |part: &[u32], c: &mut Combiner<u32>| {
                    for &x in part {
                        c.emit(&x, b"", 1);
                    }
                    Ok(())
                },
                || (),
                |(): &mut (), _k: &u32, _vs: &[(&[u8], u64)], _emit: &mut dyn FnMut(u32)| {
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
        let data = vec![1u32];
        let parts: Vec<&[u32]> = vec![&data];
        let engine = Engine {
            cancel: Some(token),
            ..Engine::new(2)
        };
        let err = engine
            .map_reduce(
                &parts,
                |part: &[u32], emit: &mut dyn FnMut(u32, u32)| {
                    for &x in part {
                        emit(x, x);
                    }
                    Ok(())
                },
                |&k: &u32, _vs: Vec<u32>, emit: &mut dyn FnMut(u32)| {
                    emit(k);
                    Ok(())
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::Cancelled(_)), "{err}");
    }

    #[test]
    fn an_expired_deadline_aborts_the_job_with_deadline_exceeded() {
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let data = vec![1u32];
        let parts: Vec<&[u32]> = vec![&data];
        let engine = Engine {
            cancel: Some(token),
            ..Engine::new(1)
        };
        let err = engine
            .map_combine_reduce_via(
                &InProcess,
                &parts,
                |part: &[u32], c: &mut Combiner<u32>| {
                    for &x in part {
                        c.emit(&x, b"", 1);
                    }
                    Ok(())
                },
                || (),
                |(): &mut (), &k: &u32, _vs: &[(&[u8], u64)], emit: &mut dyn FnMut(u32)| {
                    emit(k);
                    Ok(())
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::DeadlineExceeded(_)), "{err}");
    }

    #[test]
    fn large_weights_survive_the_combine_wire_format() {
        let data = vec![1u32];
        let parts: Vec<&[u32]> = vec![&data];
        let engine = Engine::new(1);
        let big = u64::from(u32::MAX) + 17;
        let (out, _) = engine
            .map_combine_reduce_via(
                &InProcess,
                &parts,
                |_part: &[u32], c: &mut Combiner<u32>| {
                    c.emit(&9, b"", big);
                    c.emit(&9, b"", 1);
                    Ok(())
                },
                || (),
                |(): &mut (), &k: &u32, vs: &[(&[u8], u64)], emit: &mut dyn FnMut((u32, u64))| {
                    assert_eq!(vs.len(), 1);
                    assert!(vs[0].0.is_empty());
                    emit((k, vs[0].1));
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(out, vec![(9, big + 1)]);
    }
}
