//! # desq-baselines
//!
//! Specialized *scalable* FSM baselines from the paper's comparison
//! (Sec. VII-D):
//!
//! * [`lash`] — an MG-FSM/LASH-style distributed miner for maximum-gap /
//!   maximum-length (/ hierarchy) constraints: item-based partitioning with
//!   specialized sequence rewrites (blanking, splitting, part filtering)
//!   and a gap-constrained local miner. This is the system D-SEQ's
//!   generalization overhead is measured against (Fig. 12).
//! * [`mllib`] — an MLlib-style distributed PrefixSpan: prefix-based
//!   partitioning with multiple rounds of communication, maximum length
//!   only (Fig. 13).
//!
//! Both produce exactly the same output as the general algorithms under the
//! equivalent T1/T2/T3 pattern expressions, which the cross-validation
//! tests assert. Their configurations, [`LashConfig`] and [`MllibConfig`],
//! implement [`desq_core::mining::Miner`] themselves: σ, cancellation and
//! the parallelism come from the context, and neither uses an FST — the
//! constraint is the configuration.

pub mod lash;
pub mod mllib;

pub use lash::LashConfig;
pub use mllib::MllibConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use desq_core::mining::{Miner, MiningContext};
    use desq_core::{toy, Error};

    #[test]
    fn baselines_mine_at_the_context_sigma_and_parallelism() {
        let fx = toy::fixture();
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, 1).with_parallelism(2, 2);
        let l = LashConfig::new(1, 3).mine(&ctx).unwrap();
        let m = MllibConfig { max_len: 3 }.mine(&ctx).unwrap();
        for res in [&l, &m] {
            assert!(!res.patterns.is_empty());
            assert!(res.is_sorted());
            assert_eq!(res.metrics.input_sequences, 5);
            assert_eq!(res.metrics.workers, 2);
            assert!(res.metrics.shuffle_bytes > 0);
        }
    }

    #[test]
    fn zero_sigma_rejected_uniformly() {
        let fx = toy::fixture();
        let ctx = MiningContext::sequential(&fx.db, &fx.dict, 0);
        assert!(matches!(
            LashConfig::new(1, 3).mine(&ctx),
            Err(Error::Invalid(_))
        ));
        assert!(matches!(
            MllibConfig { max_len: 3 }.mine(&ctx),
            Err(Error::Invalid(_))
        ));
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(LashConfig::new(1, 3).name(), "LASH");
        assert_eq!(LashConfig::new(1, 3).without_hierarchy().name(), "MG-FSM");
        assert_eq!(MllibConfig { max_len: 3 }.name(), "MLlib-PrefixSpan");
    }
}
