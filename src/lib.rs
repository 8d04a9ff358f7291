//! # desq
//!
//! Facade crate for the Rust reproduction of *Scalable Frequent Sequence
//! Mining with Flexible Subsequence Constraints* (ICDE 2019): distributed
//! frequent sequence mining with DESQ-style flexible subsequence constraints
//! via the **D-SEQ** and **D-CAND** algorithms.
//!
//! **Start with [`session`]** — the unified mining API. A
//! [`MiningSession`] is built once from a dictionary, a database, a
//! pattern expression and an [`AlgorithmSpec`], and every algorithm in the
//! workspace (DESQ-DFS, DESQ-COUNT, the gap miner with PrefixSpan's T1
//! among its settings, NAÏVE, SEMI-NAÏVE, D-SEQ, D-CAND, plus the
//! LASH/MLlib baselines) runs through it and returns the same uniform
//! [`MiningResult`]:
//!
//! ```
//! use desq::session::{AlgorithmSpec, MiningSession};
//!
//! let fx = desq::core::toy::fixture(); // the paper's Fig. 2 example
//! let session = MiningSession::builder()
//!     .dictionary(fx.dict)
//!     .database(fx.db)
//!     .pattern(desq::core::toy::PATTERN)
//!     .sigma(2)
//!     .algorithm(AlgorithmSpec::d_seq())
//!     .build()?;
//! let result = session.run()?;
//! assert_eq!(result.patterns.len(), 3);
//! # Ok::<(), desq::core::Error>(())
//! ```
//!
//! The workspace crates underneath, re-exported under one roof:
//!
//! * [`core`] — the DESQ model: dictionaries/hierarchies, pattern
//!   expressions, finite-state transducers, candidate generation — and the
//!   [`Miner`] trait / [`MiningResult`] substrate of the session API.
//! * [`miner`] — sequential miners (DESQ-DFS, DESQ-COUNT, and
//!   gap-constrained mining, PrefixSpan included).
//! * [`dist`] — the paper's contribution: D-SEQ, D-CAND and the NAÏVE /
//!   SEMI-NAÏVE baselines, plus the constraint library of Tab. III, over
//!   the one BSP round they all run, [`bsp`] (`desq_dist::bsp`): a
//!   thread-backed bulk-synchronous-parallel engine with byte-accurate
//!   shuffle accounting.
//! * [`baselines`] — specialized scalable miners (LASH/MG-FSM-style,
//!   MLlib-style PrefixSpan) used in the paper's comparisons.
//! * [`datagen`] — synthetic analogs of the NYT / AMZN / AMZN-F / CW50
//!   corpora.
//!
//! Every algorithm is one type implementing [`Miner`], holding only the
//! parameters the paper varies for it ([`AlgorithmSpec`] wraps it); σ,
//! limits, cancellation and parallelism come from the session's
//! [`MiningContext`].
//!
//! See `examples/quickstart.rs` for a five-minute tour and
//! `docs/ARCHITECTURE.md` for the module map of the flat mining substrate
//! and the work-stealing scheduler.

pub mod session;

pub use desq_baselines as baselines;
pub use desq_core as core;
pub use desq_datagen as datagen;
pub use desq_dist as dist;
pub use desq_dist::bsp;
pub use desq_miner as miner;

pub use desq_core::mining::{
    ExecutionPolicy, Limits, Miner, MiningContext, MiningMetrics, MiningResult,
};
pub use desq_core::OptLevel;
pub use session::{AlgorithmSpec, MiningSession, MiningSessionBuilder, PatternStream};
