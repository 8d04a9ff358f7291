//! D-SEQ: distributed mining with the input-sequence representation
//! (Sec. V of the paper).
//!
//! The mapper computes the pivot set `K^σ(T)` of every input sequence with
//! the flat grid DP of [`PivotSearch::pivots_into`] or, in the "no grid"
//! ablation, by bounded run enumeration
//! ([`PivotSearch::pivots_enumerated_into`]). Either way it builds the
//! sequence's simulation tables once, into a per-map-task
//! [`PivotScratch`], and allocates nothing per sequence. Every pivot
//! receives the same (optionally rewritten) range, so the mapper
//! serializes it **once** with the delta item codec and emits it once,
//! with the whole ascending pivot list: the engine ships one record per
//! (sequence, reduce bucket) holding that bucket's pivots, aggregates
//! identical records into weighted ones and interns shared payload bytes
//! per bucket chunk.
//!
//! The reduce unit is the bucket, not the pivot partition. Each reduce
//! worker decodes a distinct payload once and appends its
//! pivot-independent simulation tables to one growing
//! [`desq_miner::SeqTables`] arena. It then mines each bucket as **one**
//! DESQ-DFS search tree over all of its inputs ([`LocalMiner::mine_picks`]
//! over [`Pick`]s carrying the bucket's keys of each payload), and emits a
//! pattern iff its pivot routes to the bucket ([`Bucket::owns`]). So the
//! root closure walk runs once per shipped sequence, however many of the
//! bucket's pivot partitions it belongs to. The result is exact: rewriting
//! preserves every pivot's candidate set ([`crate::pivots`]), so a payload
//! that generates a pattern has the pattern's pivot among its keys and
//! was shipped to the bucket that owns it, with every other sequence that
//! generates it. An input outputs no item above its largest bucket key
//! (the cap), and with early stopping on (Sec. V-C, in its bucket form)
//! it reads nothing past the last position that outputs one of its keys
//! while the prefix's largest item is below them — the position one
//! reverse scan of its table's id row finds ([`LocalMiner::key_stop`]).
//!
//! One tree saves root walks only where inputs share keys, and it counts
//! each input towards every prefix below its largest key, so it also
//! explores prefixes that are frequent only summed over several keys. A
//! bucket whose inputs go to fewer than 2.5 of its keys each on average
//! (many buckets, or keys spread thin) is therefore mined as one tree per
//! key instead — its pivot partitions, each the one-key case of the same
//! miner.

use desq_core::codec::{decode_item_seq, encode_item_seq};
use desq_core::mining::{Miner, MiningContext};
use desq_core::{Error, ItemId, Result, Sequence};
use desq_miner::{LocalMiner, MinerConfig, MinerScratch, Pick, SeqTables};

use crate::bsp::{run_round, Bucket, Combiner, Exec, InProcess, ReduceUnit};
use crate::pivots::{PivotScratch, PivotSearch};
use crate::MiningResult;

/// D-SEQ (Sec. V). Its three flags are the cumulative enhancements of the
/// Fig. 10a ablation; the default turns all of them on (full D-SEQ). σ and
/// the run-enumeration budget of the no-grid variant come from the
/// [`MiningContext`].
#[derive(Debug, Clone, Copy)]
pub struct DSeqConfig {
    /// Compute pivot sets by the ⊕ DP over the position–state grid.
    /// Otherwise ("no grid", Fig. 10a's first column) the mapper enumerates
    /// every accepting run over the same simulation tables and merges each
    /// run's pivots ([`PivotSearch::pivots_enumerated_into`]). Loose
    /// constraints can have exponentially many runs per sequence, so this
    /// arm is bounded by the context's work budget — one unit per accepting
    /// run — and fails with [`Error::ResourceExhausted`] where the DP
    /// finishes. It stays in the binary because `repro fig10` measures it;
    /// the patterns are the same either way.
    pub use_grid: bool,
    /// Ship rewritten (trimmed) sequences instead of full ones.
    pub rewrite: bool,
    /// Early stopping (Sec. V-C) in its bucket form: while a prefix's
    /// largest item is below the smallest key an input was shipped to the
    /// bucket with, the input reads nothing past the last position that
    /// outputs one of its keys — at the root, for every input. A reducer
    /// finds that position in one scan of the input's table. Off (Fig.
    /// 10a's column without it), no table is scanned; the cap — no output
    /// above an input's largest key — applies either way, so the ablation
    /// measures the bucket form's stop. A bucket mined one tree per key
    /// (see the module docs) stops each input at its key's own last
    /// position: there the bucket form is the per-pivot heuristic.
    pub early_stop: bool,
}

impl Default for DSeqConfig {
    fn default() -> DSeqConfig {
        DSeqConfig {
            use_grid: true,
            rewrite: true,
            early_stop: true,
        }
    }
}

impl Miner for DSeqConfig {
    fn name(&self) -> &'static str {
        "D-SEQ"
    }

    fn mine(&self, ctx: &MiningContext<'_>) -> Result<MiningResult> {
        Ok(d_seq(ctx, Exec::Via(&InProcess), *self)?.expect("a driven round has a result"))
    }
}

/// Per-reduce-worker state — one per worker per reduce call: one growing
/// arena of simulation tables, and each payload's table, indexed by the
/// engine's payload id — dense over the reduce call (all buckets of the
/// round in process, the one bucket of a `ReduceTask` on a worker
/// process), so it stays valid across the call's buckets. `seen[payload]`
/// is `None` until the payload is first seen; then the payload is decoded
/// and simulated once (its items are not retained), and its table is
/// recorded — `Some(None)` for a payload the FST rejects. The rest is
/// scratch reused across buckets.
#[derive(Default)]
struct ReduceState {
    tables: SeqTables,
    seen: Vec<Option<Option<u32>>>,
    scratch: MinerScratch,
    items: Vec<ItemId>,
    picks: Vec<Pick>,
    keyed: Vec<(ItemId, usize)>,
    one_key: Vec<Pick>,
}

/// Whether a bucket whose `inputs` go to `shipped` of its keys in all is
/// mined as one search tree rather than one per key: iff its inputs go to
/// 2.5 of its keys each on average, or more. One tree walks each input
/// once, where one tree per key walks it once per key; but one tree counts
/// every input towards every prefix below its largest key, so it explores
/// prefixes that are frequent only summed over several keys. Timed per
/// bucket both ways (`nyt_like(16 000)` at σ = 10 under N4 and N5, T3(σ,
/// 1, 5) over AMZN-F at σ = 100, 1–16 buckets), one tree costs about as
/// much per input as the per-key trees cost per shipped key, times a
/// constant of the workload — about 1 for N5, 2 for N4 and 3–4 for T3 —
/// at every bucket count; 2.5 lies between them.
fn shares_one_tree(inputs: usize, shipped: usize) -> bool {
    2 * shipped >= 5 * inputs
}

/// Runs D-SEQ on `ctx` the way `exec` says. Driving its round through a
/// transport ([`InProcess`], what [`Miner::mine`] does, or a
/// [`NetCoordinator`](crate::bsp::NetCoordinator)) returns the result;
/// serving one as a worker process returns `None` once the round ends. A
/// worker's context (its corpus, σ, partitions and reducers) and
/// configuration must match the coordinator's.
pub fn d_seq(
    ctx: &MiningContext<'_>,
    exec: Exec<'_>,
    config: DSeqConfig,
) -> Result<Option<MiningResult>> {
    ctx.validate()?;
    let (fst, dict, sigma) = (ctx.fst()?, ctx.dict, ctx.sigma);
    let search = PivotSearch::new(fst, dict, dict.last_frequent(sigma));

    let map = |part: &[Sequence], out: &mut Combiner| {
        // Per-task scratch, hoisted out of the per-sequence loop.
        let mut scratch = PivotScratch::default();
        let mut pivots: Vec<ItemId> = Vec::new();
        let mut payload: Vec<u8> = Vec::new();
        for seq in part {
            let range = if config.use_grid {
                search.pivots_into(seq, &mut scratch, &mut pivots)
            } else {
                search.pivots_enumerated_into(seq, ctx.limits.budget, &mut scratch, &mut pivots)?
            };
            let Some(range) = range else { continue };
            // All pivots share the rewritten range: serialize once, emit
            // once to the whole (ascending) pivot list.
            let items = if config.rewrite { &seq[range] } else { seq };
            payload.clear();
            encode_item_seq(items, &mut payload);
            out.emit(&pivots, &payload, 1);
        }
        Ok(())
    };
    // Tables are pivot-independent: one miner builds them and mines every
    // bucket from them.
    let miner = LocalMiner::new(fst, dict, MinerConfig::sequential(sigma));
    let reduce = |state: &mut ReduceState,
                  bucket: Bucket<'_>,
                  emit: &mut dyn FnMut((Sequence, u64))|
     -> Result<()> {
        let ReduceState {
            tables,
            seen,
            scratch,
            items,
            picks,
            keyed,
            one_key,
        } = state;
        picks.clear();
        let mut keys: Vec<&[ItemId]> = Vec::new();
        for input in bucket.inputs()? {
            let id = input.payload_id as usize;
            if seen.len() <= id {
                seen.resize(id + 1, None);
            }
            let table = match seen[id] {
                Some(table) => table,
                None => {
                    items.clear();
                    decode_payload(input.payload, dict.max_fid(), items)?;
                    // Payloads are outside input: an over-wide one fails
                    // the round typed.
                    *seen[id].insert(miner.append_tables(items, tables, scratch)?)
                }
            };
            let (Some(table), Some(&min_key), Some(&max_key)) =
                (table, input.keys.first(), input.keys.last())
            else {
                continue;
            };
            keys.push(input.keys);
            picks.push(Pick {
                table,
                weight: input.weight,
                min_key,
                max_key,
                stop: u32::MAX,
            });
        }
        // A table that outputs none of the keys reads nothing past 0.
        let stop = |table, keys: &[ItemId]| match config.early_stop {
            true => miner.key_stop(tables, table, keys).unwrap_or(0),
            false => u32::MAX,
        };
        let mut sink = |pattern, freq| emit((pattern, freq));
        let shipped = keys.iter().map(|k| k.len()).sum();
        if shares_one_tree(picks.len(), shipped) {
            for (pick, keys) in picks.iter_mut().zip(&keys) {
                pick.stop = stop(pick.table, keys);
            }
            let owns = |pivot| bucket.owns(pivot);
            return miner.mine_picks(tables, picks, scratch, ctx.cancel, &owns, &mut sink);
        }
        // One tree per key: the bucket's pivot partitions, in key order.
        keyed.clear();
        for (at, keys) in keys.iter().enumerate() {
            keyed.extend(keys.iter().map(|&k| (k, at)));
        }
        keyed.sort_unstable();
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            let key = run[0].0;
            one_key.clear();
            one_key.extend(run.iter().map(|&(_, at)| Pick {
                min_key: key,
                max_key: key,
                stop: stop(picks[at].table, &[key]),
                ..picks[at]
            }));
            let owns = |pivot| pivot == key;
            miner.mine_picks(tables, one_key, scratch, ctx.cancel, &owns, &mut sink)?;
        }
        Ok(())
    };

    run_round(
        ctx,
        exec,
        ReduceUnit::Buckets,
        map,
        ReduceState::default,
        reduce,
    )
}

/// Decodes one shuffled D-SEQ payload into `items`: exactly one encoded
/// item sequence whose items are dictionary fids (`1..=max_fid`). Anything
/// else came off a damaged shuffle and is a decode error — the simulator
/// indexes per-item tables by fid.
fn decode_payload(bytes: &[u8], max_fid: ItemId, items: &mut Vec<ItemId>) -> Result<()> {
    let mut slice = bytes;
    decode_item_seq(&mut slice, items)?;
    if !slice.is_empty() {
        return Err(Error::Decode(format!(
            "D-SEQ payload: {} trailing bytes",
            slice.len()
        )));
    }
    match items.iter().find(|&&t| t == 0 || t > max_fid) {
        Some(t) => Err(Error::Decode(format!(
            "D-SEQ payload: item {t} outside the dictionary (1..={max_fid})"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::mining::Limits;
    use desq_core::{toy, Dictionary, Error, Fst};

    /// The toy fixture at `sigma` on `workers` threads and `parts` map
    /// partitions.
    fn toy_ctx(fx: &toy::Toy, sigma: u64, workers: usize, parts: usize) -> MiningContext<'_> {
        MiningContext::sequential(&fx.db, &fx.dict, sigma)
            .with_fst(&fx.fst)
            .with_parallelism(workers, parts)
    }

    /// Brute-force DESQ-COUNT reference through the Miner trait.
    fn reference(fx: &toy::Toy, sigma: u64) -> Vec<(Sequence, u64)> {
        desq_miner::algo::DesqCount
            .mine(&toy_ctx(fx, sigma, 1, 1))
            .unwrap()
            .patterns
    }

    #[test]
    fn toy_matches_paper_result() {
        let fx = toy::fixture();
        let res = DSeqConfig::default().mine(&toy_ctx(&fx, 2, 2, 2)).unwrap();
        let rendered: Vec<(String, u64)> = res
            .patterns
            .iter()
            .map(|(s, f)| (fx.dict.render(s), *f))
            .collect();
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
    fn all_ablations_match_reference_on_toy() {
        let fx = toy::fixture();
        for sigma in 1..=4 {
            let reference = reference(&fx, sigma);
            for use_grid in [true, false] {
                for rewrite in [true, false] {
                    for early_stop in [true, false] {
                        let cfg = DSeqConfig {
                            use_grid,
                            rewrite,
                            early_stop,
                        };
                        let res = cfg.mine(&toy_ctx(&fx, sigma, 3, 2)).unwrap();
                        assert_eq!(
                            res.patterns, reference,
                            "σ={sigma} grid={use_grid} rewrite={rewrite} stop={early_stop}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rewriting_shrinks_shuffle() {
        let fx = toy::fixture();
        let ctx = toy_ctx(&fx, 2, 1, 1);
        let full = DSeqConfig {
            rewrite: false,
            ..DSeqConfig::default()
        }
        .mine(&ctx)
        .unwrap();
        let rewritten = DSeqConfig::default().mine(&ctx).unwrap();
        // T2 loses its two leading e's.
        assert!(rewritten.metrics.shuffle_bytes < full.metrics.shuffle_bytes);
        assert_eq!(rewritten.patterns, full.patterns);
    }

    #[test]
    fn agrees_with_sequential_dfs() {
        let fx = toy::fixture();
        for sigma in 1..=5 {
            let seq = desq_miner::algo::DesqDfs
                .mine(&toy_ctx(&fx, sigma, 1, 1))
                .unwrap()
                .patterns;
            let dist = DSeqConfig::default()
                .mine(&toy_ctx(&fx, sigma, 2, 3))
                .unwrap();
            assert_eq!(dist.patterns, seq, "σ={sigma}");
        }
    }

    #[test]
    fn no_grid_ablation_respects_budget() {
        let fx = toy::fixture();
        let ctx = toy_ctx(&fx, 2, 1, 1).with_limits(Limits::default().with_budget(1));
        let cfg = DSeqConfig {
            use_grid: false,
            ..DSeqConfig::default()
        };
        match cfg.mine(&ctx) {
            Err(Error::ResourceExhausted(msg)) => {
                assert_eq!(msg, "pivot enumeration exceeded budget of 1")
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn zero_sigma_rejected() {
        let fx = toy::fixture();
        assert!(matches!(
            DSeqConfig::default().mine(&toy_ctx(&fx, 0, 1, 1)),
            Err(Error::Invalid(_))
        ));
    }

    /// The dictionary-based early-stopping bound the arena scan replaced:
    /// the last position whose item lets *some* transition output `k`,
    /// whether or not that transition lies on an accepting run.
    fn dict_last_pivot_position(
        fst: &Fst,
        dict: &Dictionary,
        seq: &[ItemId],
        k: ItemId,
    ) -> Option<usize> {
        let mut buf = Vec::new();
        seq.iter().rposition(|&t| {
            let mut transitions = (0..fst.num_states() as u32).flat_map(|q| fst.transitions(q));
            transitions.any(|tr| {
                buf.clear();
                if tr.produces_output() && tr.matches(t, dict) {
                    tr.output.outputs(t, dict, &mut buf);
                }
                buf.contains(&k)
            })
        })
    }

    #[test]
    fn the_shuffle_ships_at_most_one_record_per_sequence_and_bucket() {
        // Every pivot of a sequence receives the same payload, so a
        // sequence with pivots becomes one record per bucket its pivots
        // reach: at most `reducers` records, holding all of its pivots.
        let sigma = 10;
        let (dict, db) = desq_datagen::nyt_like(&desq_datagen::NytConfig::new(2_000));
        for constraint in [crate::patterns::n4(), crate::patterns::n5()] {
            let fst = constraint.compile(&dict).unwrap();
            let search = PivotSearch::new(&fst, &dict, dict.last_frequent(sigma));
            let (mut scratch, mut pivots) = (PivotScratch::default(), Vec::new());
            let (mut accepted, mut keys) = (0u64, 0u64);
            for seq in &db.sequences {
                if search.pivots_into(seq, &mut scratch, &mut pivots).is_some() {
                    accepted += 1;
                    keys += pivots.len() as u64;
                }
            }
            assert!(
                keys > 4 * accepted,
                "{}: pivots per sequence",
                constraint.name
            );
            for reducers in [1, 2, 3] {
                let ctx = MiningContext::sequential(&db, &dict, sigma)
                    .with_fst(&fst)
                    .with_parallelism(1, 2)
                    .with_reducers(reducers);
                let m = DSeqConfig::default().mine(&ctx).unwrap().metrics;
                let at = format!("{} reducers={reducers}", constraint.name);
                assert_eq!(m.emitted_records, keys, "{at}");
                assert!(m.shuffle_records <= reducers as u64 * accepted, "{at}");
            }
        }
    }

    #[test]
    fn nyt_constraints_match_desq_count_at_every_bucket_count() {
        // All five Tab. III NYT constraints, every ablation, with buckets
        // of one key (N1's few pivots over 8 buckets), a few keys and many
        // keys (N4, N5 over one bucket), and empty buckets.
        let sigma = 10;
        let (dict, db) = desq_datagen::nyt_like(&desq_datagen::NytConfig::new(2_000));
        for constraint in crate::patterns::nyt_constraints() {
            let fst = constraint.compile(&dict).unwrap();
            let ctx = MiningContext::sequential(&db, &dict, sigma).with_fst(&fst);
            let expect = desq_miner::algo::DesqCount.mine(&ctx).unwrap().patterns;
            assert!(!expect.is_empty(), "{}", constraint.name);
            for use_grid in [true, false] {
                for early_stop in [true, false] {
                    for rewrite in [true, false] {
                        let cfg = DSeqConfig {
                            use_grid,
                            rewrite,
                            early_stop,
                        };
                        for (reducers, workers) in
                            [1, 2, 3, 8].into_iter().flat_map(|r| [(r, 1), (r, 3)])
                        {
                            let ctx = ctx.with_parallelism(workers, 2).with_reducers(reducers);
                            let dist = cfg.mine(&ctx).unwrap();
                            assert_eq!(
                                dist.patterns, expect,
                                "{} grid={use_grid} stop={early_stop} rewrite={rewrite} \
                                 reducers={reducers} workers={workers}",
                                constraint.name
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_scan_places_every_bucket_stop_within_the_dictionary_bound() {
        // Early stopping reads its bound off the tables' id rows, which
        // only hold outputs of transitions that leave a forward-reachable
        // state on an accepting run: per pivot it can undercut the
        // dictionary scan (on N4 it does — for 788 records when the masks
        // were built eagerly, and the lazy front-end's sparser rows can
        // only tighten that) but never exceed it, and it exists for every
        // pivot the sequence is shipped to. A bucket's stop is the largest
        // of its keys' own: one scan for all of a sequence's pivots, as
        // one bucket gets them, places it where the per-key scans do.
        let sigma = 10;
        let (dict, db) = desq_datagen::nyt_like(&desq_datagen::NytConfig::new(2_000));
        for constraint in [crate::patterns::n4(), crate::patterns::n5()] {
            let fst = constraint.compile(&dict).unwrap();
            let search = PivotSearch::new(&fst, &dict, dict.last_frequent(sigma));
            let miner = LocalMiner::new(&fst, &dict, MinerConfig::sequential(sigma));
            let (mut tables, mut miner_scratch) = (SeqTables::default(), MinerScratch::default());
            let (mut scratch, mut pivots) = (PivotScratch::default(), Vec::new());
            let mut undercuts = 0;
            for (s, items) in db.sequences.iter().enumerate() {
                search.pivots_into(items, &mut scratch, &mut pivots);
                let table = miner
                    .append_tables(items, &mut tables, &mut miner_scratch)
                    .unwrap();
                assert!(table.is_some() || pivots.is_empty(), "sequence {s}");
                let Some(table) = table else { continue };
                let mut own = Vec::new();
                for &p in &pivots {
                    let from_tables = miner.key_stop(&tables, table, &[p]);
                    let from_dict = dict_last_pivot_position(&fst, &dict, items, p);
                    assert!(from_tables.is_some(), "sequence {s} pivot {p}");
                    let from_tables = from_tables.map(|i| i as usize);
                    assert!(from_tables <= from_dict, "sequence {s} pivot {p}");
                    undercuts += usize::from(from_tables < from_dict);
                    own.extend(from_tables);
                }
                let bucket = miner.key_stop(&tables, table, &pivots);
                assert_eq!(
                    bucket.map(|i| i as usize),
                    own.into_iter().max(),
                    "sequence {s}"
                );
            }
            if constraint.name == "N4" {
                assert!(undercuts >= 788, "{undercuts} records undercut");
            }
        }
    }
}
