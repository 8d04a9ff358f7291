//! The one round of communication every distributed algorithm runs (Sec.
//! III, Alg. 1): **map** each input partition to `(pivot items, payload
//! bytes, weight)` records, one per payload and reducer bucket its pivots
//! reach, **combine** equal records map-side (D-CAND's aggregation of
//! identical NFAs, Sec. VI-A), **shuffle** them as bytes to reducer
//! buckets by key hash — the byte
//! volume is `shuffle_bytes`, the analog of Spark's `shuffleWriteBytes`
//! in Fig. 9c — and **reduce** each bucket's records to frequent sequences,
//! as tasks under work stealing — one per bucket, or per run of a bucket's
//! keys ([`ReduceUnit`]). [`run_round`] runs it where [`Exec`] says: over a
//! [`ShuffleTransport`] ([`InProcess`], or a [`NetCoordinator`] farming
//! tasks out to worker processes) or as such a worker. Bytes really cross
//! buffers and workers really run in parallel: the engine follows the
//! paper's cost model, not a cluster API.

pub mod engine;
pub mod transport;

pub use engine::{run_round, Bucket, Combiner, Exec, Input, KeyGroup, MapTaskOut, ReduceUnit};
pub use transport::{InProcess, NetCoordinator, PhaseStats, ShuffleTransport};
