//! # desq-bsp
//!
//! A small, thread-backed **bulk-synchronous-parallel engine** with exactly
//! one round of communication — the computational model of the paper
//! (Sec. III, Alg. 1), as provided by MapReduce or Spark on a cluster.
//!
//! A job consists of three phases:
//!
//! 1. **map**: every input partition is processed independently by a worker;
//!    the mapper emits `(pivot item, payload bytes, weight)` records — the
//!    payload is whatever representation the algorithm ships (a candidate,
//!    a rewritten sequence, an NFA), pre-encoded by the caller;
//! 2. **shuffle**: records are *serialized to bytes* (varint pivot keys)
//!    and routed to `R` reducer buckets by key hash. The byte volume is the
//!    `shuffle_bytes` metric — the analog of Spark's `shuffleWriteBytes`
//!    that the paper reports (Fig. 9c);
//! 3. **reduce**: every bucket is decoded, merged and grouped by pivot, and
//!    the key groups run under work stealing in whichever process holds the
//!    bucket; reducers emit frequent sequences with their frequencies.
//!
//! A **combiner** aggregates map-side records with equal `(pivot, payload)`
//! before serialization (MapReduce `combine`), which D-CAND uses to
//! collapse identical NFAs into weighted ones (Sec. VI-A "Aggregation").
//! Every such round ([`map_combine_reduce_via`]) goes through a
//! [`ShuffleTransport`]: [`InProcess`], or a [`NetCoordinator`] whose
//! workers ([`run_worker`]) run the very same reduce. The combiner-less
//! [`map_reduce`] exists only for D-CAND's no-aggregation ablation
//! (Fig. 10b).
//!
//! A round's parameters are the run's: each entry point takes the
//! [`MiningContext`](desq_core::mining::MiningContext) first and reads the
//! database (cut into `ctx.partitions` map tasks), `ctx.reducers`,
//! `ctx.workers` and the cancellation token from it, after validating it.
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

pub mod engine;
pub mod transport;

// The item-sequence codec lives in `desq_core::codec`; the benchmark
// harness (`benchmark/src/layers.rs`) imports it from here.
pub use desq_core::codec::{decode_item_seq, encode_item_seq};
pub use engine::{map_combine_reduce_via, map_reduce, run_worker, Combiner, MapTaskOut};
pub use transport::{InProcess, NetCoordinator, PhaseStats, ShuffleTransport};
