//! # desq-core
//!
//! The DESQ computational model for frequent sequence mining (FSM) with
//! *flexible subsequence constraints*, as used by the distributed D-SEQ and
//! D-CAND algorithms of
//!
//! > A. Renz-Wieland, M. Bertsch, R. Gemulla:
//! > *Scalable Frequent Sequence Mining with Flexible Subsequence Constraints*,
//! > ICDE 2019.
//!
//! This crate provides the shared substrate:
//!
//! * [`Dictionary`]: an item vocabulary arranged in a directed acyclic
//!   *hierarchy* (items generalize to ancestors), together with the *f-list*
//!   (hierarchy-aware document frequencies) and the frequency-based item
//!   encoding of the paper. After recoding, item ids ("fids") are frequency
//!   ranks: fid 1 is the most frequent item, and the paper's total order `<`
//!   (`w1 < w2` iff `f(w1) > f(w2)`) is plain integer order. The *pivot item*
//!   of a sequence (Sec. III-B) is simply its maximum fid.
//! * [`PatEx`]: the pattern-expression language of DESQ (regular expressions
//!   with capture groups, hierarchies and generalizations), with a parser
//!   ([`PatEx::parse`]) and a pretty-printer.
//! * [`Fst`]: compilation of pattern expressions into finite-state
//!   transducers (Sec. IV) via Thompson construction and ε-elimination, plus
//!   FST *simulation* ([`fst::sim`]): the position–state grid with dead
//!   ends folded out, enumeration of accepting runs and counting of the
//!   candidate subsequences `G_π(T)` / `G^σ_π(T)` ([`fst::flat`]).
//! * [`mining`]: the unified mining API substrate — the [`Miner`] trait,
//!   [`MiningContext`] requests, [`Limits`], and the uniform
//!   [`MiningResult`] / [`MiningMetrics`] every algorithm returns. The
//!   ergonomic builder on top lives in the facade crate
//!   (`desq::session::MiningSession`).
//! * The runtime under every algorithm: [`sched`] is the one task
//!   scheduler (steal-half worker threads, panic containment, token
//!   polling, first error wins) and [`wire`] the one frame grammar and
//!   [`Error`] codec that the serve and shuffle protocols are built on.
//!
//! The running example of the paper (Fig. 2–8) is available as a reusable
//! fixture in [`toy`]; most unit tests in this workspace assert against it.
//! `docs/ARCHITECTURE.md` in the repository root maps how this substrate —
//! the CSR [`FstIndex`](fst::FstIndex), the flat run tables of
//! [`fst::flat`], and the [`mining`] API — is consumed by the miners, the
//! BSP engine and the distributed algorithms.
//!
//! ```
//! use desq_core::fst::{CandidateCounter, FstIndex, RunScratch, RunWalker};
//! use desq_core::toy;
//!
//! let fx = toy::fixture();
//! let index = FstIndex::new(&fx.fst);
//! let walker = RunWalker::unfiltered(&fx.fst, &fx.dict, &index);
//! let mut counter = CandidateCounter::new();
//! let t5 = &fx.db.sequences[4];
//! walker
//!     .count_candidates(t5, 1, usize::MAX, &mut RunScratch::default(), &mut counter, |_, _| {})
//!     .unwrap();
//! // G_πex(T5) = { a1b, a1a1b, a1Ab }   (paper, Sec. II)
//! assert_eq!(counter.observed(), 3);
//! ```

pub mod codec;
pub mod dictionary;
pub mod error;
#[cfg(feature = "failpoints")]
pub mod fault;
pub mod fst;
pub mod fx;
pub mod mining;
pub mod pexp;
pub mod retry;
pub mod sched;
pub mod sequence;
pub mod toy;
pub mod wire;

pub use dictionary::{Dictionary, DictionaryBuilder};
pub use error::{Error, Result};
pub use fst::{Fst, OptLevel};
pub use mining::{CancelToken, Limits, Miner, MiningContext, MiningMetrics, MiningResult};
pub use pexp::PatEx;
pub use retry::RetryPolicy;
pub use sequence::{ItemId, Sequence, SequenceDb, EPSILON};
