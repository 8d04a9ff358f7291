//! D-SEQ: distributed mining with the input-sequence representation
//! (Sec. V of the paper).
//!
//! The mapper computes the pivot set `K^σ(T)` of every input sequence with
//! the flat grid DP of [`PivotSearch::pivots_into`] or, in the "no grid"
//! ablation, by bounded run enumeration
//! ([`PivotSearch::pivots_enumerated_into`]). Either way it builds the
//! sequence's simulation tables once, into a per-map-task
//! [`PivotScratch`], and allocates nothing per sequence. It serializes the
//! (optionally rewritten) input **once** with the delta item codec and
//! emits the same payload bytes to every pivot partition. The engine's combiner
//! aggregates identical `(pivot, payload)` records into weighted ones and
//! interns shared payload bytes per bucket chunk, so a sequence with many
//! pivots ships its items once per bucket rather than once per pivot.
//! Each reduce worker decodes a distinct payload slice once, appends its
//! pivot-independent simulation tables to one growing
//! [`desq_miner::SeqTables`] arena, and runs partition-restricted DESQ-DFS
//! ([`desq_miner::LocalMiner::mine_picks`]) over `(table, weight)` picks,
//! sharing one [`desq_core::fst::FstIndex`] across all pivot partitions:
//! expansions never use items above the pivot, only pivot sequences are
//! emitted, and the early-stopping heuristic prunes snapshots that can no
//! longer produce the pivot — by position and by FST state (Sec. V-C).

use std::collections::hash_map::Entry;

use desq_bsp::{decode_item_seq, encode_item_seq, Combiner, InProcess};
use desq_core::fx::FxHashMap;
use desq_core::mining::{Miner, MiningContext};
use desq_core::{Error, ItemId, Result, Sequence};
use desq_miner::{LocalMiner, MinerConfig, MinerScratch, SeqTables};

use crate::pivots::{PivotRange, PivotScratch, PivotSearch};
use crate::{Exec, MiningResult};

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
    /// Early stopping in the partition-local miners (Sec. V-C), both
    /// halves: a prefix that lacks the pivot reads nothing past a
    /// sequence's last pivot-producing position, and a step into an FST
    /// state that can produce no further output extends it by the pivot
    /// only. Off, the partitions run the unpruned search (Fig. 10a).
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
        d_seq_via(ctx, &InProcess, *self)
    }
}

/// Runs D-SEQ on `ctx` over a shuffle transport — [`InProcess`] for a
/// single-process run (what [`Miner::mine`] does) or a
/// [`desq_bsp::NetCoordinator`] to drive worker processes.
pub fn d_seq_via(
    ctx: &MiningContext<'_>,
    transport: &dyn desq_bsp::ShuffleTransport,
    config: DSeqConfig,
) -> Result<MiningResult> {
    Ok(d_seq_exec(ctx, config, Exec::Via(transport))?.expect("driver execution returns a result"))
}

/// Serves a D-SEQ job as a worker process: connects to the coordinator at
/// `addr` and executes assigned tasks until the job ends. The context (its
/// corpus, σ, partitions and reducers) and the configuration must match
/// the coordinator's.
pub fn d_seq_worker(
    ctx: &MiningContext<'_>,
    addr: std::net::SocketAddr,
    net: &desq_bsp::NetConfig,
    config: DSeqConfig,
) -> Result<()> {
    d_seq_exec(ctx, config, Exec::Worker(addr, net))?;
    Ok(())
}

/// Per-reduce-worker state — one per worker per reduce call: one growing
/// arena of simulation tables plus the table index of every payload seen
/// so far, keyed by the identity of the borrowed payload slice. Payloads
/// borrow from the shuffle buffers, which outlive the state (all buckets
/// of the round in process, the one bucket of a `ReduceTask` on a worker
/// process), so the map stays valid across the per-pivot tasks: a sequence
/// shipped to many pivot partitions mined by one worker is decoded and
/// simulated once, and its items are not retained. The rest is scratch
/// reused across partitions.
#[derive(Default)]
struct ReduceState {
    tables: SeqTables,
    table_of: FxHashMap<(usize, usize), u32>,
    scratch: MinerScratch,
    items: Vec<ItemId>,
    picks: Vec<(u32, u64)>,
}

fn d_seq_exec(
    ctx: &MiningContext<'_>,
    config: DSeqConfig,
    exec: Exec<'_>,
) -> Result<Option<MiningResult>> {
    ctx.validate()?;
    let (fst, dict, sigma) = (ctx.fst()?, ctx.dict, ctx.sigma);
    let t0 = std::time::Instant::now();
    let search = PivotSearch::new(fst, dict, dict.last_frequent(sigma));
    // One transition index, shared by the mapper's pivot search (via
    // `search`) and every pivot partition's LocalMiner.
    let index = search.index();

    let map = |part: &[Sequence], out: &mut Combiner<ItemId>| {
        // Per-task scratch, hoisted out of the per-sequence loop.
        let mut scratch = PivotScratch::default();
        let mut ranges: Vec<PivotRange> = Vec::new();
        let mut payload: Vec<u8> = Vec::new();
        for seq in part {
            if config.use_grid {
                search.pivots_into(seq, &mut scratch, &mut ranges);
            } else {
                search.pivots_enumerated_into(seq, ctx.limits.budget, &mut scratch, &mut ranges)?;
            }
            let Some(pr0) = ranges.first() else { continue };
            // All pivots share the rewritten range: serialize once, emit
            // the same bytes per pivot (the combiner interns them).
            let items = if config.rewrite {
                &seq[pr0.first as usize..=pr0.last as usize]
            } else {
                seq.as_slice()
            };
            payload.clear();
            encode_item_seq(items, &mut payload);
            for pr in &ranges {
                out.emit(&pr.item, &payload, 1);
            }
        }
        Ok(())
    };
    // Tables are pivot-independent, so a pivot-less miner builds them and
    // every pivot partition's miner reads them.
    let builder = LocalMiner::with_index(fst, dict, MinerConfig::sequential(sigma), index);
    let reduce = |state: &mut ReduceState,
                  &p: &ItemId,
                  inputs: &[(&[u8], u64)],
                  emit: &mut dyn FnMut((Sequence, u64))|
     -> Result<()> {
        let ReduceState {
            tables,
            table_of,
            scratch,
            items,
            picks,
        } = state;
        picks.clear();
        for &(bytes, weight) in inputs {
            let table = match table_of.entry((bytes.as_ptr() as usize, bytes.len())) {
                Entry::Occupied(hit) => *hit.get(),
                Entry::Vacant(miss) => {
                    items.clear();
                    decode_payload(bytes, dict.max_fid(), items)?;
                    *miss.insert(builder.append_tables(items, tables, scratch))
                }
            };
            picks.push((table, weight));
        }
        let miner_config = MinerConfig::for_pivot(sigma, p, config.early_stop);
        LocalMiner::with_index(fst, dict, miner_config, index).mine_picks(
            tables,
            picks,
            scratch,
            &mut |pattern, freq| emit((pattern, freq)),
        );
        Ok(())
    };

    crate::run_round(ctx, exec, t0, map, ReduceState::default, reduce)
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
                    tr.outputs(t, dict, &mut buf);
                }
                buf.contains(&k)
            })
        })
    }

    #[test]
    fn loose_nyt_constraints_match_sequential_dfs_and_bound_early_stopping() {
        let sigma = 10;
        let (dict, db) = desq_datagen::nyt_like(&desq_datagen::NytConfig::new(2_000));
        for constraint in [crate::patterns::n4(), crate::patterns::n5()] {
            let fst = constraint.compile(&dict).unwrap();
            let ctx = MiningContext::sequential(&db, &dict, sigma).with_fst(&fst);
            let seq = desq_miner::algo::DesqDfs.mine(&ctx).unwrap().patterns;
            assert!(!seq.is_empty(), "{}", constraint.name);
            for use_grid in [true, false] {
                for early_stop in [true, false] {
                    for rewrite in [true, false] {
                        let cfg = DSeqConfig {
                            use_grid,
                            rewrite,
                            early_stop,
                        };
                        let dist = cfg.mine(&ctx.with_parallelism(2, 2)).unwrap();
                        assert_eq!(
                            dist.patterns, seq,
                            "{} grid={use_grid} stop={early_stop} rewrite={rewrite}",
                            constraint.name
                        );
                    }
                }
            }

            // Early stopping reads its bound off the tables' output arena,
            // which only holds outputs of transitions that leave a
            // forward-reachable state on an accepting run: it can undercut
            // the dictionary scan (on N4 it does — for 788 records when the
            // masks were built eagerly, and the lazy front-end's smaller
            // arena can only tighten that) but never exceed it, and it
            // exists for every pivot the sequence is shipped to.
            let search = PivotSearch::new(&fst, &dict, dict.last_frequent(sigma));
            let builder =
                LocalMiner::with_index(&fst, &dict, MinerConfig::sequential(sigma), search.index());
            let inputs: Vec<desq_miner::WeightedInput<'_>> =
                db.sequences.iter().map(|s| (s.as_slice(), 1)).collect();
            let tables = builder.prepare_tables(&inputs, 1).unwrap();
            let (mut scratch, mut ranges) = (PivotScratch::default(), Vec::new());
            let mut undercuts = 0;
            for (s, items) in db.sequences.iter().enumerate() {
                search.pivots_into(items, &mut scratch, &mut ranges);
                for pr in &ranges {
                    let miner = LocalMiner::with_index(
                        &fst,
                        &dict,
                        MinerConfig::for_pivot(sigma, pr.item, true),
                        search.index(),
                    );
                    let from_tables = miner.last_pivot_position(&tables, s);
                    let from_dict = dict_last_pivot_position(&fst, &dict, items, pr.item);
                    assert!(from_tables.is_some(), "sequence {s} pivot {}", pr.item);
                    assert!(from_tables <= from_dict, "sequence {s} pivot {}", pr.item);
                    undercuts += usize::from(from_tables < from_dict);
                }
            }
            if constraint.name == "N4" {
                assert!(undercuts >= 788, "{undercuts} records undercut");
            }
        }
    }
}
