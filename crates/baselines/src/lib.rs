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
//! tests assert. Both run behind the unified mining API via the [`algo`]
//! adapters.

pub mod algo;
pub mod lash;
pub mod mllib;

pub use lash::LashConfig;
pub use mllib::MllibConfig;
