//! [`Miner`]-trait adapters for the distributed algorithms.
//!
//! Each adapter wraps the algorithm's configuration struct; the threshold
//! σ and the work budget always come from the [`MiningContext`] (the
//! config's own `sigma` and budget fields are overridden — one validation
//! path for all algorithms). The BSP [`Engine`] is created from the
//! context's `workers`, the database is partitioned into `ctx.partitions`
//! map chunks, and the round runs through [`InProcess`] — the same round a
//! networked job runs through a `NetCoordinator`.

use desq_bsp::{Engine, InProcess};
use desq_core::mining::{Miner, MiningContext, MiningResult};
use desq_core::Result;

use crate::dcand::{d_cand_no_agg, d_cand_via};
use crate::dseq::d_seq_via;
use crate::naive::naive_via;
use crate::{DCandConfig, DSeqConfig, NaiveConfig};

/// Builds the BSP engine from the context's parallelism, forwarding the
/// context's cancellation token (when one is set) so deadlines, external
/// cancellation and panic containment apply to the distributed jobs too.
fn engine_for(ctx: &MiningContext<'_>) -> Engine {
    let engine = Engine::new(ctx.workers).with_reducers(ctx.reducers);
    match ctx.cancel {
        Some(token) => engine.with_cancel(token.clone()),
        None => engine,
    }
}

/// D-SEQ behind the unified API (Sec. V of the paper).
#[derive(Debug, Clone, Copy)]
pub struct DSeq(pub DSeqConfig);

impl Default for DSeq {
    fn default() -> DSeq {
        DSeq(DSeqConfig::new(1))
    }
}

impl Miner for DSeq {
    fn name(&self) -> &'static str {
        "D-SEQ"
    }

    fn mine(&self, ctx: &MiningContext<'_>) -> Result<MiningResult> {
        ctx.validate()?;
        let fst = ctx.fst()?;
        let mut cfg = self.0;
        cfg.sigma = ctx.sigma;
        cfg.run_budget = cfg.run_budget.min(ctx.limits.budget);
        let engine = engine_for(ctx);
        let parts = ctx.db.partition(ctx.partitions);
        d_seq_via(&engine, &InProcess, &parts, fst, ctx.dict, cfg)
    }
}

/// D-CAND behind the unified API (Sec. VI of the paper).
#[derive(Debug, Clone, Copy)]
pub struct DCand(pub DCandConfig);

impl Default for DCand {
    fn default() -> DCand {
        DCand(DCandConfig::new(1))
    }
}

impl Miner for DCand {
    fn name(&self) -> &'static str {
        "D-CAND"
    }

    fn mine(&self, ctx: &MiningContext<'_>) -> Result<MiningResult> {
        ctx.validate()?;
        let fst = ctx.fst()?;
        let mut cfg = self.0;
        cfg.sigma = ctx.sigma;
        cfg.run_budget = cfg.run_budget.min(ctx.limits.budget);
        let engine = engine_for(ctx);
        let parts = ctx.db.partition(ctx.partitions);
        if cfg.aggregate {
            d_cand_via(&engine, &InProcess, &parts, fst, ctx.dict, cfg)
        } else {
            // Fig. 10b's no-aggregation ablation is not a combining round.
            d_cand_no_agg(&engine, &parts, fst, ctx.dict, cfg)
        }
    }
}

/// NAÏVE / SEMI-NAÏVE behind the unified API (selected by the config's
/// `filter` flag, Sec. III-C of the paper).
#[derive(Debug, Clone, Copy)]
pub struct Naive(pub NaiveConfig);

impl Naive {
    /// The unfiltered NAÏVE variant ("naive" is the paper's algorithm
    /// name, not a reference to the type).
    #[allow(clippy::self_named_constructors)]
    pub fn naive() -> Naive {
        Naive(NaiveConfig::naive(1))
    }

    /// The frequency-filtered SEMI-NAÏVE variant.
    pub fn semi_naive() -> Naive {
        Naive(NaiveConfig::semi_naive(1))
    }
}

impl Miner for Naive {
    fn name(&self) -> &'static str {
        if self.0.filter {
            "SEMI-NAIVE"
        } else {
            "NAIVE"
        }
    }

    fn mine(&self, ctx: &MiningContext<'_>) -> Result<MiningResult> {
        ctx.validate()?;
        let fst = ctx.fst()?;
        let mut cfg = self.0;
        cfg.sigma = ctx.sigma;
        cfg.budget = cfg.budget.min(ctx.limits.budget);
        let engine = engine_for(ctx);
        let parts = ctx.db.partition(ctx.partitions);
        naive_via(&engine, &InProcess, &parts, fst, ctx.dict, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::mining::Limits;
    use desq_core::{toy, Error};

    #[test]
    fn adapters_agree_and_report_distributed_metrics() {
        let fx = toy::fixture();
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, 2)
            .with_fst(&fx.fst)
            .with_parallelism(2, 3);
        let ds = DSeq(DSeqConfig::new(1)).mine(&ctx).unwrap();
        let dc = DCand(DCandConfig::new(1)).mine(&ctx).unwrap();
        let nv = Naive::naive().mine(&ctx).unwrap();
        let sn = Naive::semi_naive().mine(&ctx).unwrap();
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
    fn context_budget_caps_config_budget() {
        let fx = toy::fixture();
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, 2)
            .with_fst(&fx.fst)
            .with_limits(Limits::default().with_budget(1));
        assert!(matches!(
            Naive::naive().mine(&ctx),
            Err(Error::ResourceExhausted(_))
        ));
        assert!(matches!(
            DCand::default().mine(&ctx),
            Err(Error::ResourceExhausted(_))
        ));
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(Naive::naive().name(), "NAIVE");
        assert_eq!(Naive::semi_naive().name(), "SEMI-NAIVE");
        assert_eq!(DSeq::default().name(), "D-SEQ");
        assert_eq!(DCand::default().name(), "D-CAND");
    }
}
