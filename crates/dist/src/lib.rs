//! # desq-dist
//!
//! The distributed frequent-sequence-mining algorithms of
//!
//! > A. Renz-Wieland, M. Bertsch, R. Gemulla:
//! > *Scalable Frequent Sequence Mining with Flexible Subsequence Constraints*,
//! > ICDE 2019.
//!
//! All algorithms follow the item-based partitioning framework of Alg. 1:
//! one map-shuffle-reduce round over the [`desq_bsp::Engine`]. Mappers send,
//! for every input sequence `T` and every *pivot item* `p ∈ K^σ(T)`, a
//! representation of the candidate subsequences of `T` with pivot `p` to
//! partition `P_p`; reducers mine each partition independently. The
//! algorithms differ only in the representation they ship:
//!
//! * [`naive`](mod@naive) — NAÏVE sends the candidate subsequences `G_π(T)` verbatim,
//!   SEMI-NAÏVE the frequency-filtered `G^σ_π(T)` (Sec. III-C);
//! * [`dseq`] — D-SEQ sends *rewritten input sequences* `ρ_p(T)` and runs
//!   restricted DESQ-DFS per partition (Sec. V);
//! * [`dcand`] — D-CAND sends *NFAs* that compactly represent the pivot-`p`
//!   candidates, with optional minimization and weighted aggregation of
//!   identical NFAs (Sec. VI).
//!
//! Supporting machinery: [`PivotSearch`] computes pivot sets `K^σ(T)` either
//! by dynamic programming over the position–state grid or, for Fig. 10a's
//! no-grid ablation, by run enumeration over the same simulation tables
//! (Sec. V-A/V-B), [`dcand::merge_pivots`] is the ⊕ pivot-merge of Th. 1,
//! [`desq_core::fst::nfa`] holds the arena trie/NFA construction with
//! byte-level serialization for shuffle accounting, and [`patterns`] is the constraint
//! library of Tab. III. `docs/ARCHITECTURE.md` in the repository root
//! traces the end-to-end data flow of each algorithm through the flat
//! substrate and the task scheduler.
//!
//! Each algorithm is one type holding only the flags the paper's ablations
//! vary — [`NaiveConfig`], [`DSeqConfig`] (Fig. 10a), [`DCandConfig`]
//! (Fig. 10b) — and implements [`desq_core::mining::Miner`] itself,
//! running its round in process. σ, the work budget, cancellation and the
//! parallelism come from the [`desq_core::mining::MiningContext`]; the
//! `*_via` / `*_worker` entry points take the same context to drive a
//! networked round or serve one.

pub mod dcand;
pub mod dseq;
pub mod naive;
pub mod patterns;
pub mod pivots;

pub use dcand::DCandConfig;
pub use dseq::DSeqConfig;
pub use naive::NaiveConfig;
pub use pivots::{PivotRange, PivotScratch, PivotSearch};

use desq_bsp::{Combiner, Engine};
use desq_core::mining::MiningContext;
use desq_core::{ItemId, MiningMetrics, Result, Sequence};

/// Outcome of one distributed mining job — the workspace-wide uniform
/// result type, re-exported from [`desq_core::mining`].
pub use desq_core::MiningResult;

/// How a distributed job executes its BSP round: [`Exec::Via`] drives it
/// over a shuffle transport ([`desq_bsp::InProcess`] in this process, a
/// [`desq_bsp::NetCoordinator`] farming tasks and buckets out to worker
/// processes); [`Exec::Worker`] connects to a coordinator and serves tasks
/// against this process's own copy of the partitions.
pub(crate) enum Exec<'a> {
    Via(&'a dyn desq_bsp::ShuffleTransport),
    Worker(std::net::SocketAddr, &'a desq_bsp::NetConfig),
}

/// Runs one combining BSP round on `ctx`'s engine and partitions
/// ([`Engine::for_context`]) the way `exec` says — the one place the three
/// algorithms' map/init/reduce closures meet the engine — and completes the
/// driver's result ([`job_result`], `t0` is the job's start). `None` means
/// this process served the round as a worker.
pub(crate) fn run_round<S: Send>(
    ctx: &MiningContext<'_>,
    exec: Exec<'_>,
    t0: std::time::Instant,
    map: impl Fn(&[Sequence], &mut Combiner<ItemId>) -> Result<()> + Sync,
    init: impl Fn() -> S + Sync,
    reduce: impl Fn(&mut S, &ItemId, &[(&[u8], u64)], &mut dyn FnMut((Sequence, u64))) -> Result<()>
        + Sync,
) -> Result<Option<MiningResult>> {
    let (engine, parts) = Engine::for_context(ctx);
    match exec {
        Exec::Via(transport) => {
            let round = engine.map_combine_reduce_via(transport, &parts, map, init, reduce)?;
            Ok(Some(job_result(round, t0, &engine, &parts)))
        }
        Exec::Worker(addr, net) => {
            engine.run_worker(addr, net, &parts, map, init, reduce)?;
            Ok(None)
        }
    }
}

/// Completes a finished round — the reducers' patterns, unsorted, and the
/// engine's measurements — into a job result: the patterns sorted, and the
/// three measurements the engine does not know filled in: the end-to-end
/// wall time since the algorithm started at `t0` (compile and index time
/// included), the worker count and the input size. (FST sizes are not run
/// measurements: they live on the compiled `Fst` itself.)
pub fn job_result(
    (patterns, job): (Vec<(Sequence, u64)>, MiningMetrics),
    t0: std::time::Instant,
    engine: &Engine,
    parts: &[&[Sequence]],
) -> MiningResult {
    MiningResult {
        patterns: desq_miner::sort_patterns(patterns),
        metrics: MiningMetrics {
            wall_nanos: t0.elapsed().as_nanos() as u64,
            workers: engine.workers() as u64,
            input_sequences: parts.iter().map(|p| p.len() as u64).sum(),
            ..job
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::mining::{Limits, Miner};
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
