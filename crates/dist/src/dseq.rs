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
//! Each reduce worker decodes a distinct payload once, appends its
//! pivot-independent simulation tables to one growing
//! [`desq_miner::SeqTables`] arena, and — with early stopping on — derives
//! the early-stopping position of every pivot the payload goes to in the
//! reduce call from one reverse scan of the table's id row
//! ([`LocalMiner::early_stops`]). It then runs partition-restricted
//! DESQ-DFS ([`LocalMiner::mine_picks`]) over [`Pick`]s that carry those
//! positions, every pivot partition reading the FST's one
//! [`FstIndex`](desq_core::fst::FstIndex): expansions never use items
//! above the pivot, only pivot sequences are emitted, and the
//! early-stopping heuristic prunes snapshots that can no longer produce
//! the pivot — by position and by FST state (Sec. V-C).

use desq_core::codec::{decode_item_seq, encode_item_seq};
use desq_core::mining::{Miner, MiningContext};
use desq_core::{Error, ItemId, Result, Sequence};
use desq_miner::{LocalMiner, MinerConfig, MinerScratch, Pick, SeqTables};

use crate::bsp::{run_round, Combiner, Exec, InProcess, KeyGroup};
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
    /// Early stopping in the partition-local miners (Sec. V-C), both
    /// halves: a prefix that lacks the pivot reads nothing past a
    /// sequence's last pivot-producing position, and a step into an FST
    /// state that can produce no further output extends it by the pivot
    /// only. A reducer finds those positions for all the pivots a payload
    /// goes to in one scan of the sequence's table. Off, the partitions run
    /// the unpruned search (Fig. 10a) and no table is scanned.
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
/// arena of simulation tables, and what the worker keeps of each payload
/// it has seen, indexed by the engine's payload id — dense over the reduce
/// call (all buckets of the round in process, the one bucket of a
/// `ReduceTask` on a worker process), so it stays valid across the call's
/// key groups. `seen[payload]` is `None` until the payload is first seen;
/// then the payload is decoded and simulated once (its items are not
/// retained), and — under early stopping — one scan of its table places
/// every key the payload goes to in the call ([`Input::keys`](crate::bsp::Input)),
/// into `stops`. The rest is scratch reused across partitions.
#[derive(Default)]
struct ReduceState {
    tables: SeqTables,
    seen: Vec<Option<Seen>>,
    stops: Vec<u32>,
    scratch: MinerScratch,
    items: Vec<ItemId>,
    picks: Vec<Pick>,
}

/// A seen payload's table and where its keys' early-stopping positions
/// start in [`ReduceState::stops`] — `None` for a payload the FST rejects.
type Seen = Option<(u32, usize)>;

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
    // Tables are pivot-independent, so a pivot-less miner builds them and
    // every pivot partition's miner reads them.
    let builder = LocalMiner::new(fst, dict, MinerConfig::sequential(sigma));
    let reduce = |state: &mut ReduceState,
                  p: ItemId,
                  group: KeyGroup<'_>,
                  emit: &mut dyn FnMut((Sequence, u64))|
     -> Result<()> {
        let ReduceState {
            tables,
            seen,
            stops,
            scratch,
            items,
            picks,
        } = state;
        picks.clear();
        for input in group.inputs()? {
            let id = input.payload_id as usize;
            if seen.len() <= id {
                seen.resize(id + 1, None);
            }
            let known = match seen[id] {
                Some(known) => known,
                None => {
                    items.clear();
                    decode_payload(input.payload, dict.max_fid(), items)?;
                    // Payloads are outside input: an over-wide one fails
                    // the round typed.
                    let table = builder.append_tables(items, tables, scratch)?;
                    let at = stops.len();
                    if let (Some(table), true) = (table, config.early_stop) {
                        builder.early_stops(tables, table, input.keys, stops);
                    }
                    *seen[id].insert(table.map(|table| (table, at)))
                }
            };
            let Some((table, at)) = known else { continue };
            let stop = if config.early_stop {
                let rank = input.keys.binary_search(&p);
                stops[at + rank.expect("a group's key is among its payloads' keys")]
            } else {
                u32::MAX
            };
            picks.push(Pick {
                table,
                weight: input.weight,
                stop,
            });
        }
        let miner_config = MinerConfig::for_pivot(sigma, p, config.early_stop);
        LocalMiner::new(fst, dict, miner_config).mine_picks(
            tables,
            picks,
            scratch,
            ctx.cancel,
            &mut |pattern, freq| emit((pattern, freq)),
        )
    };

    run_round(ctx, exec, map, ReduceState::default, reduce)
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
                        for (reducers, workers) in
                            [1, 2, 3].into_iter().flat_map(|r| [(r, 1), (r, 3)])
                        {
                            let ctx = ctx.with_parallelism(workers, 2).with_reducers(reducers);
                            let dist = cfg.mine(&ctx).unwrap();
                            assert_eq!(
                                dist.patterns, seq,
                                "{} grid={use_grid} stop={early_stop} rewrite={rewrite} \
                                 reducers={reducers} workers={workers}",
                                constraint.name
                            );
                        }
                    }
                }
            }

            // Early stopping reads its bound off the tables' id rows, which
            // only hold outputs of transitions that leave a
            // forward-reachable state on an accepting run: it can undercut
            // the dictionary scan (on N4 it does — for 788 records when the
            // masks were built eagerly, and the lazy front-end's sparser
            // rows can only tighten that) but never exceed it, and it
            // exists for every pivot the sequence is shipped to.
            let search = PivotSearch::new(&fst, &dict, dict.last_frequent(sigma));
            let builder = LocalMiner::new(&fst, &dict, MinerConfig::sequential(sigma));
            let (mut tables, mut miner_scratch) = (SeqTables::default(), MinerScratch::default());
            let (mut scratch, mut pivots) = (PivotScratch::default(), Vec::new());
            // The reducers' batched scan places every pivot where the
            // per-pivot scan does.
            let (mut undercuts, mut stops) = (0, Vec::new());
            for (s, items) in db.sequences.iter().enumerate() {
                search.pivots_into(items, &mut scratch, &mut pivots);
                let table = builder
                    .append_tables(items, &mut tables, &mut miner_scratch)
                    .unwrap();
                assert!(table.is_some() || pivots.is_empty(), "sequence {s}");
                let Some(table) = table else { continue };
                stops.clear();
                builder.early_stops(&tables, table, &pivots, &mut stops);
                for (&p, &stop) in pivots.iter().zip(&stops) {
                    let miner =
                        LocalMiner::new(&fst, &dict, MinerConfig::for_pivot(sigma, p, true));
                    let from_tables = miner.last_pivot_position(&tables, table as usize);
                    let from_dict = dict_last_pivot_position(&fst, &dict, items, p);
                    assert!(from_tables.is_some(), "sequence {s} pivot {p}");
                    assert_eq!(from_tables, Some(stop as usize), "sequence {s} pivot {p}");
                    assert!(from_tables <= from_dict, "sequence {s} pivot {p}");
                    undercuts += usize::from(from_tables < from_dict);
                }
            }
            if constraint.name == "N4" {
                assert!(undercuts >= 788, "{undercuts} records undercut");
            }
        }
    }
}
