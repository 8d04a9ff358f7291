//! An MLlib-style distributed PrefixSpan.
//!
//! Spark MLlib's PrefixSpan [Meng et al., JMLR '16] supports only a maximum
//! pattern length (arbitrary gaps, no hierarchy) and uses *prefix-based
//! partitioning* with several rounds of communication: it first counts
//! frequent items, then ships the per-prefix projected databases and mines
//! them recursively. We model this as two BSP jobs:
//!
//! 1. a word-count round computing the frequent items;
//! 2. a projection round that sends, per frequent item `w`, the suffix of
//!    every supporting sequence after the first occurrence of `w`
//!    (infrequent items dropped), followed by local PrefixSpan — the gap
//!    miner's `T1` ([`GapMiner::t1`]) — in the reducers.
//!
//! Metrics of both rounds are summed — this faithfully exposes the extra
//! communication relative to the single-round D-SEQ/D-CAND (cf. Fig. 13).

use desq_core::codec::encode_item_seq;
use desq_core::fx::FxHashSet;
use desq_core::mining::{Miner, MiningContext};
use desq_core::{ItemId, MiningMetrics, Result, Sequence};
use desq_dist::bsp::{run_round, Bucket, Combiner, Exec, InProcess, ReduceUnit};
use desq_dist::MiningResult;
use desq_miner::GapMiner;

/// The MLlib-style distributed PrefixSpan of the Fig. 13 comparison:
/// Tab. III's `T1(σ, λ)` setting, maximum length only (the paper fixes
/// λ = 5). σ comes from the [`MiningContext`].
#[derive(Debug, Clone, Copy)]
pub struct MllibConfig {
    /// Maximum pattern length λ.
    pub max_len: usize,
}

impl Miner for MllibConfig {
    fn name(&self) -> &'static str {
        "MLlib-PrefixSpan"
    }

    fn mine(&self, ctx: &MiningContext<'_>) -> Result<MiningResult> {
        ctx.validate()?;
        mllib_impl(ctx, self.max_len)
    }
}

/// Both rounds over `ctx`, mining patterns of length `1..=max_len`.
fn mllib_impl(ctx: &MiningContext<'_>, max_len: usize) -> Result<MiningResult> {
    let sigma = ctx.sigma;
    let t0 = std::time::Instant::now();
    if max_len == 0 {
        let metrics = MiningMetrics {
            workers: ctx.workers as u64,
            input_sequences: ctx.db.len() as u64,
            ..MiningMetrics::default()
        };
        return Ok(MiningResult {
            patterns: Vec::new(),
            metrics,
        });
    }
    let driven = |round: Option<MiningResult>| round.expect("a driven round has a result");

    // Round 1: frequent items (distributed word count with combining; the
    // payload is empty — only the per-item weights matter).
    let round1 = driven(run_round(
        ctx,
        Exec::Via(&InProcess),
        ReduceUnit::KeyRuns,
        |part: &[Sequence], out: &mut Combiner| {
            let mut seen: FxHashSet<ItemId> = FxHashSet::default();
            for seq in part {
                seen.clear();
                for &t in seq {
                    if seen.insert(t) {
                        out.emit(&[t], &[], 1);
                    }
                }
            }
            Ok(())
        },
        || (),
        |(): &mut (), bucket: Bucket<'_>, emit: &mut dyn FnMut((Sequence, u64))| {
            for (w, vs) in bucket.groups() {
                let f: u64 = vs.payloads().map(|(_, c)| c).sum();
                if f >= sigma {
                    emit((vec![w], f));
                }
            }
            Ok(())
        },
    )?);
    let frequent: FxHashSet<ItemId> = round1.patterns.iter().map(|(w, _)| w[0]).collect();

    // Round 2: prefix projection by first item + local PrefixSpan.
    let round2 = driven(run_round(
        ctx,
        Exec::Via(&InProcess),
        ReduceUnit::KeyRuns,
        |part: &[Sequence], out: &mut Combiner| {
            let mut seen: FxHashSet<ItemId> = FxHashSet::default();
            let mut suffix: Sequence = Sequence::new();
            let mut payload: Vec<u8> = Vec::new();
            for seq in part {
                seen.clear();
                for (i, &t) in seq.iter().enumerate() {
                    if !frequent.contains(&t) || !seen.insert(t) {
                        continue;
                    }
                    suffix.clear();
                    suffix.extend(
                        seq[i + 1..]
                            .iter()
                            .copied()
                            .filter(|w| frequent.contains(w)),
                    );
                    payload.clear();
                    encode_item_seq(&suffix, &mut payload);
                    out.emit(&[t], &payload, 1);
                }
            }
            Ok(())
        },
        Vec::new,
        |arena: &mut Vec<ItemId>,
         bucket: Bucket<'_>,
         emit: &mut dyn FnMut((Sequence, u64))|
         -> Result<()> {
            for (w, group) in bucket.groups() {
                let suffixes = crate::decode_group(group, arena)?;
                let support: u64 = suffixes.iter().map(|(_, c)| c).sum();
                emit((vec![w], support));
                if max_len > 1 {
                    let tails = GapMiner::t1(max_len - 1);
                    for (tail, f) in tails.mine_weighted(&suffixes, ctx.dict, sigma, ctx.cancel)? {
                        let mut pattern = Vec::with_capacity(tail.len() + 1);
                        pattern.push(w);
                        pattern.extend(tail);
                        emit((pattern, f));
                    }
                }
            }
            Ok(())
        },
    )?);
    let (m1, m2) = (round1.metrics, round2.metrics);

    // Both rounds' measurements are summed — this faithfully exposes the
    // extra communication relative to the single-round D-SEQ/D-CAND. Both
    // rounds shuffle into the same `ctx.reducers` buckets, so a bucket's
    // volume is the sum of its two rounds'.
    let metrics = MiningMetrics {
        wall_nanos: t0.elapsed().as_nanos() as u64,
        map_nanos: m1.map_nanos + m2.map_nanos,
        reduce_nanos: m1.reduce_nanos + m2.reduce_nanos,
        emitted_records: m1.emitted_records + m2.emitted_records,
        shuffle_records: m1.shuffle_records + m2.shuffle_records,
        shuffle_payloads: m1.shuffle_payloads + m2.shuffle_payloads,
        shuffle_bytes: m1.shuffle_bytes + m2.shuffle_bytes,
        reducer_bytes: m1
            .reducer_bytes
            .iter()
            .zip(&m2.reducer_bytes)
            .map(|(a, b)| a + b)
            .collect(),
        tasks: m1.tasks + m2.tasks,
        steals: m1.steals + m2.steals,
        retried_tasks: m1.retried_tasks + m2.retried_tasks,
        peer_timeouts: m1.peer_timeouts + m2.peer_timeouts,
        max_task_nanos: m1.max_task_nanos.max(m2.max_task_nanos),
        cancelled: m1.cancelled || m2.cancelled,
        ..m2
    };
    Ok(MiningResult {
        patterns: round2.patterns,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::toy;

    fn toy_ctx(fx: &toy::Toy, sigma: u64, workers: usize) -> MiningContext<'_> {
        MiningContext::sequential(&fx.db, &fx.dict, sigma).with_parallelism(workers, workers)
    }

    #[test]
    fn matches_the_sequential_t1_gap_miner_on_toy() {
        let fx = toy::fixture();
        for sigma in 1..=3u64 {
            let ctx = toy_ctx(&fx, sigma, 2);
            for max_len in 1..=4usize {
                let dist = MllibConfig { max_len }.mine(&ctx).unwrap();
                let seq = GapMiner::t1(max_len).mine(&ctx).unwrap();
                assert_eq!(dist.patterns, seq.patterns, "σ={sigma} λ={max_len}");
            }
        }
    }

    #[test]
    fn matches_desq_t1_on_toy() {
        let fx = toy::fixture();
        for sigma in 2..=3u64 {
            let c = desq_dist::patterns::t1(3);
            let fst = c.compile(&fx.dict).unwrap();
            let ctx = toy_ctx(&fx, sigma, 3);
            let reference = desq_miner::algo::DesqCount
                .mine(&ctx.with_fst(&fst))
                .unwrap()
                .patterns;
            let dist = MllibConfig { max_len: 3 }.mine(&ctx).unwrap();
            assert_eq!(dist.patterns, reference, "{} σ={sigma}", c.name);
        }
    }

    #[test]
    fn two_rounds_accumulate_metrics() {
        let fx = toy::fixture();
        let res = MllibConfig { max_len: 3 }
            .mine(&toy_ctx(&fx, 2, 2))
            .unwrap();
        // Both rounds shuffle something.
        assert!(res.metrics.shuffle_records > 0);
        assert!(res.metrics.shuffle_bytes > 0);
    }

    #[test]
    fn empty_max_len() {
        let fx = toy::fixture();
        let res = MllibConfig { max_len: 0 }
            .mine(&toy_ctx(&fx, 1, 1))
            .unwrap();
        assert!(res.patterns.is_empty());
    }
}
