//! # desq-dist
//!
//! The distributed frequent-sequence-mining algorithms of
//!
//! > A. Renz-Wieland, M. Bertsch, R. Gemulla:
//! > *Scalable Frequent Sequence Mining with Flexible Subsequence Constraints*,
//! > ICDE 2019.
//!
//! All algorithms follow the item-based partitioning framework of Alg. 1:
//! one map-shuffle-reduce round, [`bsp::run_round`]. Mappers send,
//! for every input sequence `T` and every *pivot item* `p ∈ K^σ(T)`, a
//! representation of the candidate subsequences of `T` with pivot `p` to
//! partition `P_p`; reducers mine each partition independently. The
//! algorithms differ only in the representation they ship:
//!
//! * [`naive`](mod@naive) — NAÏVE sends the candidate subsequences `G_π(T)` verbatim,
//!   SEMI-NAÏVE the frequency-filtered `G^σ_π(T)` (Sec. III-C);
//! * [`dseq`] — D-SEQ sends *rewritten input sequences* `ρ_p(T)` and mines
//!   each reduce bucket's partitions as one restricted DESQ-DFS search
//!   tree (Sec. V);
//! * [`dcand`] — D-CAND sends *NFAs* that compactly represent the pivot-`p`
//!   candidates, with optional minimization and weighted aggregation of
//!   identical NFAs (Sec. VI).
//!
//! Supporting machinery: [`PivotSearch`] computes pivot sets `K^σ(T)` and
//! their rewritten range either by dynamic programming over the
//! position–state grid or, for Fig. 10a's no-grid ablation, by run
//! enumeration over the same simulation tables (Sec. V-A/V-B); its module
//! [`pivots`] holds the one implementation of Th. 1's ⊕ pivot merge, which
//! D-CAND's mapper calls too. [`desq_core::fst::nfa`] holds the arena trie/NFA construction with
//! byte-level serialization for shuffle accounting, and [`patterns`] is the constraint
//! library of Tab. III. `docs/ARCHITECTURE.md` in the repository root
//! traces the end-to-end data flow of each algorithm through the flat
//! substrate and the task scheduler.
//!
//! Each algorithm is one type holding only the flags the paper's ablations
//! vary — [`NaiveConfig`], [`DSeqConfig`] (Fig. 10a), [`DCandConfig`]
//! (Fig. 10b) — and implements [`desq_core::mining::Miner`] itself,
//! running its round in process. σ, the work budget, cancellation and the
//! parallelism come from the [`desq_core::mining::MiningContext`];
//! [`dseq::d_seq`], [`dcand::d_cand`] and [`naive::naive`] take the same
//! context and a [`bsp::Exec`] to drive a networked round or serve one.

pub mod bsp;
pub mod dcand;
pub mod dseq;
pub mod naive;
pub mod patterns;
pub mod pivots;

pub use dcand::DCandConfig;
pub use dseq::DSeqConfig;
pub use naive::NaiveConfig;
pub use pivots::{PivotScratch, PivotSearch};

/// Outcome of one distributed mining job — the workspace-wide uniform
/// result type, re-exported from [`desq_core::mining`].
pub use desq_core::MiningResult;

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::mining::{Limits, Miner, MiningContext};
    use desq_core::{toy, Error};

    const NAIVE: NaiveConfig = NaiveConfig { filter: false };
    const SEMI_NAIVE: NaiveConfig = NaiveConfig { filter: true };

    #[test]
    fn algorithms_agree_and_report_distributed_metrics() {
        let fx = toy::fixture();
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, 2)
            .with_fst(&fx.fst)
            .with_parallelism(2, 3);
        let ds = DSeqConfig::default().mine(&ctx).unwrap();
        let dc = DCandConfig::default().mine(&ctx).unwrap();
        let nv = NAIVE.mine(&ctx).unwrap();
        let sn = SEMI_NAIVE.mine(&ctx).unwrap();
        assert_eq!(ds.patterns, dc.patterns);
        assert_eq!(ds.patterns, nv.patterns);
        assert_eq!(ds.patterns, sn.patterns);
        assert_eq!(ds.patterns.len(), 3, "σ is taken from the context");
        for res in [&ds, &dc, &nv, &sn] {
            assert!(res.is_sorted());
            assert_eq!(res.metrics.workers, 2);
            assert_eq!(res.metrics.input_sequences, 5);
            assert!(res.metrics.shuffle_bytes > 0);
            assert!(res.metrics.wall_nanos > 0);
        }
    }

    #[test]
    fn the_context_budget_bounds_the_run() {
        let fx = toy::fixture();
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, 2)
            .with_fst(&fx.fst)
            .with_limits(Limits::default().with_budget(1));
        assert!(matches!(NAIVE.mine(&ctx), Err(Error::ResourceExhausted(_))));
        assert!(matches!(
            DCandConfig::default().mine(&ctx),
            Err(Error::ResourceExhausted(_))
        ));
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(NAIVE.name(), "NAIVE");
        assert_eq!(SEMI_NAIVE.name(), "SEMI-NAIVE");
        assert_eq!(DSeqConfig::default().name(), "D-SEQ");
        assert_eq!(DCandConfig::default().name(), "D-CAND");
    }
}
