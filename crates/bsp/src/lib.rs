//! # desq-bsp
//!
//! A small, thread-backed **bulk-synchronous-parallel engine** with exactly
//! one round of communication — the computational model of the paper
//! (Sec. III, Alg. 1), as provided by MapReduce or Spark on a cluster.
//!
//! A job consists of three phases:
//!
//! 1. **map**: every input partition is processed independently by a worker;
//!    the mapper emits `(key, value)` records;
//! 2. **shuffle**: records are *serialized to bytes* (via [`Codec`]) and
//!    routed to `R` reducer buckets by key hash. The byte volume is the
//!    `shuffle_bytes` metric — the analog of Spark's `shuffleWriteBytes`
//!    that the paper reports (Fig. 9c);
//! 3. **reduce**: every bucket is decoded, merged and grouped by key, and
//!    the key groups run under work stealing in whichever process holds the
//!    bucket.
//!
//! A **combiner** aggregates map-side records with equal `(key, payload)`
//! before serialization (MapReduce `combine`), which D-CAND uses to
//! collapse identical NFAs into weighted ones (Sec. VI-A "Aggregation").
//! Every such round ([`Engine::map_combine_reduce_via`]) goes through a
//! [`ShuffleTransport`]: [`InProcess`], or a [`NetCoordinator`] whose
//! workers ([`Engine::run_worker`]) run the very same reduce. The
//! combiner-less [`Engine::map_reduce`] exists only for D-CAND's
//! no-aggregation ablation (Fig. 10b).
//!
//! The engine is deliberately faithful to the cost model rather than to any
//! particular cluster API: communication really passes through byte buffers,
//! workers really run in parallel (scoped threads), and per-phase wall times
//! and per-reducer byte volumes are recorded in the workspace's one
//! measurement record, [`desq_core::MiningMetrics`] — including the
//! task/steal counters of the work-stealing reduce phase
//! ([`tasks`](desq_core::MiningMetrics::tasks) /
//! [`steals`](desq_core::MiningMetrics::steals)); the engine leaves the
//! fields it cannot know (wall time, input size, FST sizes) at zero. See
//! `docs/ARCHITECTURE.md` in the repository root for how the engine fits
//! into the overall data flow of each distributed algorithm.

pub mod codec;
pub mod engine;
pub mod transport;

pub use codec::{decode_item_seq, encode_item_seq, Codec};
pub use engine::{Combiner, Engine, MapTaskOut};
pub use transport::{InProcess, NetConfig, NetCoordinator, PhaseStats, ShuffleTransport};
