//! The NAÏVE and SEMI-NAÏVE baselines (Sec. III-C of the paper): ship the
//! candidate subsequences themselves.
//!
//! NAÏVE enumerates the full `G_π(T)` per input sequence and sends every
//! candidate to the partition of its pivot item; SEMI-NAÏVE first drops
//! candidates containing infrequent items (`G^σ_π(T)`), which is valid by
//! support antimonotonicity. Both are exact but explode on loose
//! constraints — candidate generation is bounded by
//! [`NaiveConfig::budget`], the analog of the paper's executor memory
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

use desq_bsp::{Combiner, Engine};
use desq_core::codec::decode_item_seq;
use desq_core::fst::{CandidateCounter, FstIndex, RunScratch, RunWalker};
use desq_core::{sequence, Dictionary, Fst, ItemId, Result, Sequence};

use crate::{Exec, MiningResult};

/// Configuration of the NAÏVE / SEMI-NAÏVE baselines.
#[derive(Debug, Clone, Copy)]
pub struct NaiveConfig {
    /// Minimum support threshold σ.
    pub sigma: u64,
    /// SEMI-NAÏVE's candidate filter: drop candidates containing infrequent
    /// items before the shuffle.
    pub filter: bool,
    /// Per-sequence candidate-generation budget; exceeding it aborts with
    /// [`desq_core::Error::ResourceExhausted`] (the paper's OOM analog).
    pub budget: usize,
}

impl NaiveConfig {
    /// The NAÏVE variant: unfiltered `G_π(T)`.
    pub fn naive(sigma: u64) -> NaiveConfig {
        NaiveConfig {
            sigma,
            filter: false,
            budget: usize::MAX,
        }
    }

    /// The SEMI-NAÏVE variant: frequency-filtered `G^σ_π(T)`.
    pub fn semi_naive(sigma: u64) -> NaiveConfig {
        NaiveConfig {
            sigma,
            filter: true,
            budget: usize::MAX,
        }
    }

    /// Overrides the candidate-generation budget.
    pub fn with_budget(mut self, budget: usize) -> NaiveConfig {
        self.budget = budget;
        self
    }
}

/// Runs NAÏVE / SEMI-NAÏVE over a shuffle transport (see
/// [`crate::dseq::d_seq_via`] for the contract).
pub fn naive_via(
    engine: &Engine,
    transport: &dyn desq_bsp::ShuffleTransport,
    parts: &[&[Sequence]],
    fst: &Fst,
    dict: &Dictionary,
    config: NaiveConfig,
) -> Result<MiningResult> {
    Ok(
        naive_exec(engine, parts, fst, dict, config, Exec::Via(transport))?
            .expect("driver execution returns a result"),
    )
}

/// Serves a NAÏVE / SEMI-NAÏVE job as a worker process connected to the
/// coordinator at `addr`.
pub fn naive_worker(
    engine: &Engine,
    addr: std::net::SocketAddr,
    net: &desq_bsp::NetConfig,
    parts: &[&[Sequence]],
    fst: &Fst,
    dict: &Dictionary,
    config: NaiveConfig,
) -> Result<()> {
    naive_exec(engine, parts, fst, dict, config, Exec::Worker(addr, net))?;
    Ok(())
}

fn naive_exec(
    engine: &Engine,
    parts: &[&[Sequence]],
    fst: &Fst,
    dict: &Dictionary,
    config: NaiveConfig,
    exec: Exec<'_>,
) -> Result<Option<MiningResult>> {
    desq_core::mining::validate_sigma(config.sigma)?;
    let t0 = std::time::Instant::now();
    let index = FstIndex::new(fst);
    let max_item = if config.filter {
        dict.last_frequent(config.sigma)
    } else {
        ItemId::MAX
    };

    let map = |part: &[Sequence], out: &mut Combiner<ItemId>| {
        let walker = RunWalker::new(fst, dict, &index, max_item);
        let mut scratch = RunScratch::default();
        let mut counter = CandidateCounter::with_keys();
        for seq in part {
            walker.count_candidates(
                seq,
                1,
                config.budget,
                &mut scratch,
                &mut counter,
                |_, _| {},
            )?;
        }
        // Drain the partition's interned counts: each distinct candidate is
        // emitted once with its accumulated weight (a mapper-level combine
        // on top of the engine's own).
        for (items, bytes, count) in counter.iter_with_keys() {
            // Interned candidates are non-empty, so the pivot is never ε.
            out.emit(&sequence::pivot(items), bytes, count);
        }
        Ok(())
    };
    // The combiner merged identical (pivot, candidate) pairs across the
    // whole job, so each payload's weight is its global frequency.
    // (The σ-filter is stateless: unit reduce state.)
    let reduce = |(): &mut (),
                  _p: &ItemId,
                  cands: &[(&[u8], u64)],
                  emit: &mut dyn FnMut((Sequence, u64))| {
        for &(bytes, freq) in cands {
            if freq >= config.sigma {
                let mut c: Sequence = Vec::new();
                decode_item_seq(&mut &bytes[..], &mut c)?;
                emit((c, freq));
            }
        }
        Ok(())
    };
    crate::run_round(engine, exec, t0, parts, map, || (), reduce)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_bsp::InProcess;
    use desq_core::mining::{Miner, MiningContext};
    use desq_core::{toy, Error};

    #[test]
    fn both_variants_match_reference_on_toy() {
        let fx = toy::fixture();
        let engine = Engine::new(2);
        let parts = fx.db.partition(2);
        for sigma in 1..=4 {
            let reference = desq_miner::algo::DesqCount
                .mine(&MiningContext::sequential(&fx.db, &fx.dict, sigma).with_fst(&fx.fst))
                .unwrap()
                .patterns;
            let nv = naive_via(
                &engine,
                &InProcess,
                &parts,
                &fx.fst,
                &fx.dict,
                NaiveConfig::naive(sigma),
            )
            .unwrap();
            assert_eq!(nv.patterns, reference, "NAIVE σ={sigma}");
            let sn = naive_via(
                &engine,
                &InProcess,
                &parts,
                &fx.fst,
                &fx.dict,
                NaiveConfig::semi_naive(sigma),
            )
            .unwrap();
            assert_eq!(sn.patterns, reference, "SEMI-NAIVE σ={sigma}");
        }
    }

    #[test]
    fn filter_shrinks_shuffle() {
        let fx = toy::fixture();
        let engine = Engine::new(2);
        let parts = fx.db.partition(2);
        let nv = naive_via(
            &engine,
            &InProcess,
            &parts,
            &fx.fst,
            &fx.dict,
            NaiveConfig::naive(2),
        )
        .unwrap();
        let sn = naive_via(
            &engine,
            &InProcess,
            &parts,
            &fx.fst,
            &fx.dict,
            NaiveConfig::semi_naive(2),
        )
        .unwrap();
        // T2's 11 raw candidates collapse to 3 filtered ones, etc.
        assert!(sn.metrics.shuffle_records < nv.metrics.shuffle_records);
        assert!(sn.metrics.shuffle_bytes < nv.metrics.shuffle_bytes);
    }

    #[test]
    fn budget_zero_errors_on_matching_input() {
        let fx = toy::fixture();
        let engine = Engine::new(1);
        let parts = fx.db.partition(1);
        let err = naive_via(
            &engine,
            &InProcess,
            &parts,
            &fx.fst,
            &fx.dict,
            NaiveConfig::naive(2).with_budget(1),
        )
        .unwrap_err();
        assert!(matches!(err, Error::ResourceExhausted(_)));
    }

    #[test]
    fn zero_sigma_rejected() {
        let fx = toy::fixture();
        let engine = Engine::new(1);
        let parts = fx.db.partition(1);
        assert!(matches!(
            naive_via(
                &engine,
                &InProcess,
                &parts,
                &fx.fst,
                &fx.dict,
                NaiveConfig::naive(0)
            ),
            Err(Error::Invalid(_))
        ));
    }
}
