//! The NAÏVE and SEMI-NAÏVE baselines (Sec. III-C of the paper): ship the
//! candidate subsequences themselves.
//!
//! NAÏVE enumerates the full `G_π(T)` per input sequence and sends every
//! candidate to the partition of its pivot item; SEMI-NAÏVE first drops
//! candidates containing infrequent items (`G^σ_π(T)`), which is valid by
//! support antimonotonicity. Both are exact but explode on loose
//! constraints — candidate generation is bounded by the context's work
//! budget (`Limits::budget`), the analog of the paper's executor memory
//! limit.
//!
//! Since PR 5 the mappers run on the flat counting path
//! ([`desq_core::fst::flat`]): a [`RunWalker`] enumerates candidates over
//! pre-filtered flat run tables, and each per-sequence-distinct candidate
//! is emitted through the engine's byte-payload combiner as its canonical
//! `encode_item_seq` bytes, keyed by pivot. The combiner dedups identical
//! `(pivot, candidate)` pairs map-side, so a reducer receives every
//! distinct candidate exactly once with its global frequency as the
//! combined weight — the reduce phase is a σ-filter plus one decode, with
//! no hash map at all.

use desq_bsp::{Combiner, InProcess};
use desq_core::codec::{decode_item_seq, encode_item_seq};
use desq_core::fst::{CandidateCounter, FstIndex, RunScratch, RunWalker};
use desq_core::mining::{Miner, MiningContext};
use desq_core::{sequence, ItemId, Result, Sequence};

use crate::{Exec, MiningResult};

/// NAÏVE (`filter` off, the default) and SEMI-NAÏVE (`filter` on), the
/// baselines of Sec. III-C that Fig. 9 compares D-SEQ and D-CAND against.
/// σ and the per-sequence candidate budget come from the [`MiningContext`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NaiveConfig {
    /// SEMI-NAÏVE's candidate filter: drop candidates containing infrequent
    /// items before the shuffle.
    pub filter: bool,
}

impl Miner for NaiveConfig {
    fn name(&self) -> &'static str {
        if self.filter {
            "SEMI-NAIVE"
        } else {
            "NAIVE"
        }
    }

    fn mine(&self, ctx: &MiningContext<'_>) -> Result<MiningResult> {
        naive_via(ctx, &InProcess, *self)
    }
}

/// Runs NAÏVE / SEMI-NAÏVE on `ctx` over a shuffle transport (see
/// [`crate::dseq::d_seq_via`] for the contract).
pub fn naive_via(
    ctx: &MiningContext<'_>,
    transport: &dyn desq_bsp::ShuffleTransport,
    config: NaiveConfig,
) -> Result<MiningResult> {
    Ok(naive_exec(ctx, config, Exec::Via(transport))?.expect("driver execution returns a result"))
}

/// Serves a NAÏVE / SEMI-NAÏVE job as a worker process connected to the
/// coordinator at `addr` (see [`crate::dseq::d_seq_worker`]).
pub fn naive_worker(
    ctx: &MiningContext<'_>,
    addr: std::net::SocketAddr,
    net: &desq_bsp::NetConfig,
    config: NaiveConfig,
) -> Result<()> {
    naive_exec(ctx, config, Exec::Worker(addr, net))?;
    Ok(())
}

fn naive_exec(
    ctx: &MiningContext<'_>,
    config: NaiveConfig,
    exec: Exec<'_>,
) -> Result<Option<MiningResult>> {
    ctx.validate()?;
    let (fst, dict, sigma, budget) = (ctx.fst()?, ctx.dict, ctx.sigma, ctx.limits.budget);
    let t0 = std::time::Instant::now();
    let index = FstIndex::new(fst);
    let max_item = if config.filter {
        dict.last_frequent(sigma)
    } else {
        ItemId::MAX
    };

    let map = |part: &[Sequence], out: &mut Combiner| {
        let walker = RunWalker::new(fst, dict, &index, max_item);
        let mut scratch = RunScratch::default();
        let mut counter = CandidateCounter::new();
        for seq in part {
            walker.count_candidates(seq, 1, budget, &mut scratch, &mut counter, |_, _| {})?;
        }
        // Drain the partition's interned counts: each distinct candidate is
        // encoded and emitted once with its accumulated weight (a
        // mapper-level combine on top of the engine's own).
        let mut bytes = Vec::new();
        for (items, count) in counter.iter_with_keys() {
            bytes.clear();
            encode_item_seq(items, &mut bytes);
            // Interned candidates are non-empty, so the pivot is never ε.
            out.emit(sequence::pivot(items), &bytes, count);
        }
        Ok(())
    };
    // The combiner merged identical (pivot, candidate) pairs across the
    // whole job, so each payload's weight is its global frequency.
    // (The σ-filter is stateless: unit reduce state.)
    let reduce =
        |(): &mut (), _p: ItemId, cands: &[(&[u8], u64)], emit: &mut dyn FnMut((Sequence, u64))| {
            for &(bytes, freq) in cands {
                if freq >= sigma {
                    let mut c: Sequence = Vec::new();
                    decode_item_seq(&mut &bytes[..], &mut c)?;
                    emit((c, freq));
                }
            }
            Ok(())
        };
    crate::run_round(ctx, exec, t0, map, || (), reduce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::mining::Limits;
    use desq_core::{toy, Error};

    const NAIVE: NaiveConfig = NaiveConfig { filter: false };
    const SEMI_NAIVE: NaiveConfig = NaiveConfig { filter: true };

    fn toy_ctx(fx: &toy::Toy, sigma: u64, workers: usize, parts: usize) -> MiningContext<'_> {
        MiningContext::sequential(&fx.db, &fx.dict, sigma)
            .with_fst(&fx.fst)
            .with_parallelism(workers, parts)
    }

    #[test]
    fn both_variants_match_reference_on_toy() {
        let fx = toy::fixture();
        for sigma in 1..=4 {
            let reference = desq_miner::algo::DesqCount
                .mine(&toy_ctx(&fx, sigma, 1, 1))
                .unwrap()
                .patterns;
            let ctx = toy_ctx(&fx, sigma, 2, 2);
            let nv = NAIVE.mine(&ctx).unwrap();
            assert_eq!(nv.patterns, reference, "NAIVE σ={sigma}");
            let sn = SEMI_NAIVE.mine(&ctx).unwrap();
            assert_eq!(sn.patterns, reference, "SEMI-NAIVE σ={sigma}");
        }
    }

    #[test]
    fn filter_shrinks_shuffle() {
        let fx = toy::fixture();
        let ctx = toy_ctx(&fx, 2, 2, 2);
        let nv = NAIVE.mine(&ctx).unwrap();
        let sn = SEMI_NAIVE.mine(&ctx).unwrap();
        // T2's 11 raw candidates collapse to 3 filtered ones, etc.
        assert!(sn.metrics.shuffle_records < nv.metrics.shuffle_records);
        assert!(sn.metrics.shuffle_bytes < nv.metrics.shuffle_bytes);
    }

    #[test]
    fn budget_one_errors_on_matching_input() {
        let fx = toy::fixture();
        let ctx = toy_ctx(&fx, 2, 1, 1).with_limits(Limits::default().with_budget(1));
        let err = NAIVE.mine(&ctx).unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
    }

    #[test]
    fn zero_sigma_rejected() {
        let fx = toy::fixture();
        assert!(matches!(
            NAIVE.mine(&toy_ctx(&fx, 0, 1, 1)),
            Err(Error::Invalid(_))
        ));
    }
}
