//! The framed wire protocol of the `desq-serve` daemon.
//!
//! # Frame format
//!
//! [`Message`] is a message enum over [`desq_core::wire`]: every message
//! travels as one `varint(payload_len) payload` frame whose length is
//! capped at [`MAX_FRAME_LEN`] — a hostile or corrupt length prefix is
//! rejected before any allocation, and decoding a frame never reserves
//! more than a small multiple of its length (a `Patterns` count is held to
//! the bytes that remain and to [`MAX_FRAME_PATTERNS`] before anything is
//! reserved for it). All integers inside message bodies are varints; item
//! sequences use the canonical adaptive varint/delta encoding
//! ([`desq_core::codec::encode_item_seq`]) that the shuffle layer and the
//! interned counting path already share.
//!
//! # Messages
//!
//! | tag | message | body |
//! |-----|-----------|------|
//! | `1` | [`Message::Request`] | `version:u8, corpus:str, pexp:str, flags:u8 (bit0 = unanchored), sigma:varint, algo:u8, budget:varint, max_patterns:varint, workers:varint, deadline_millis:varint` |
//! | `2` | [`Message::Patterns`] | `count:varint`, then per pattern `item_seq, freq:varint` |
//! | `3` | [`Message::Metrics`] | [`MiningMetrics::encode`] body, then `cache_hit:u8, cache_hits:varint, cache_misses:varint, queue_wait_nanos:varint, compile_nanos:varint, timeouts:varint, panics:varint, cancels:varint, fst_states_before:varint, fst_states_after:varint, fst_transitions_before:varint, fst_transitions_after:varint` |
//! | `4` | [`Message::Error`] | the [`desq_core::wire`] error record: `kind:u8, msg:str` (+ `pos:varint` for parse errors) |
//! | `5` | [`Message::Busy`] | `in_flight:varint, cap:varint` |
//!
//! `str` is `varint(len)` + UTF-8 bytes ([`desq_core::codec::write_str`]).
//! A *conversation* is one `Request` frame from the client, answered by
//! zero or more `Patterns` frames and exactly one terminal frame
//! (`Metrics` on success, `Error` or `Busy` otherwise), after which the
//! server closes the connection. `0` budget / `max_patterns` / `workers`
//! in a request mean "server default". The `version` byte must equal
//! [`PROTOCOL_VERSION`]; decoding rejects anything else so incompatible
//! peers fail fast with a clear message instead of mis-parsing.

use std::io::{Read, Write};

use desq_core::codec::{
    decode_item_seq, encode_item_seq, read_str, read_varint, write_str, write_varint,
};
use desq_core::wire::{self, take_u8};
use desq_core::{Error, MiningMetrics, Result, Sequence};

/// Protocol revision; bumped on any incompatible wire change.
/// (v2 added `deadline_millis` to requests and the failure counters to
/// the terminal metrics frame; v3 added the straggler counters —
/// `retried_tasks`, `peer_timeouts`, `max_task_nanos` — to the metrics
/// body and the peer error kinds 9/10; v4 added the FST optimizer size
/// counters — states/transitions before and after optimization — to both
/// the metrics body and the server stats; v5 dropped the metrics body's
/// copy, so the server stats carry them once.)
pub const PROTOCOL_VERSION: u8 = 5;

/// Upper bound on one frame's payload length (16 MiB). Large result sets
/// stream as many `Patterns` frames, so well-formed frames stay far below
/// this; the cap exists to reject hostile length prefixes outright.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// Most patterns one [`Message::Patterns`] frame may carry (the server's
/// batch size must stay below it). Every decoded pattern costs a 32-byte
/// entry however few bytes it took on the wire, so without a cap a frame
/// of two-byte patterns decodes to 16× its size.
pub const MAX_FRAME_PATTERNS: usize = wire::MAX_LIST_LEN;

/// The algorithm selector of a request — the subset of the session's
/// `AlgorithmSpec` that mines a compiled pattern expression (and therefore
/// benefits from the server's FST cache), with all tuning left at the
/// session defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireAlgo {
    /// Sequential DESQ-DFS (the default).
    DesqDfs,
    /// Sequential DESQ-COUNT.
    DesqCount,
    /// Distributed D-SEQ with all enhancements on.
    DSeq,
    /// Distributed D-CAND with minimization and aggregation on.
    DCand,
}

impl WireAlgo {
    fn tag(self) -> u8 {
        match self {
            WireAlgo::DesqDfs => 0,
            WireAlgo::DesqCount => 1,
            WireAlgo::DSeq => 2,
            WireAlgo::DCand => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<WireAlgo> {
        match tag {
            0 => Ok(WireAlgo::DesqDfs),
            1 => Ok(WireAlgo::DesqCount),
            2 => Ok(WireAlgo::DSeq),
            3 => Ok(WireAlgo::DCand),
            other => Err(Error::Decode(format!("unknown algorithm tag {other}"))),
        }
    }

    /// Parses the CLI spelling (`desq-dfs`, `desq-count`, `d-seq`,
    /// `d-cand`).
    pub fn parse(s: &str) -> Result<WireAlgo> {
        match s {
            "desq-dfs" => Ok(WireAlgo::DesqDfs),
            "desq-count" => Ok(WireAlgo::DesqCount),
            "d-seq" => Ok(WireAlgo::DSeq),
            "d-cand" => Ok(WireAlgo::DCand),
            other => Err(Error::Invalid(format!(
                "unknown algorithm {other:?} (expected desq-dfs, desq-count, d-seq or d-cand)"
            ))),
        }
    }

    /// Display name matching the session's algorithm names.
    pub fn name(self) -> &'static str {
        match self {
            WireAlgo::DesqDfs => "DESQ-DFS",
            WireAlgo::DesqCount => "DESQ-COUNT",
            WireAlgo::DSeq => "D-SEQ",
            WireAlgo::DCand => "D-CAND",
        }
    }
}

/// One mining query: which corpus, which constraint, which algorithm,
/// under which limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Name of a corpus resident in the server's `CorpusStore`.
    pub corpus: String,
    /// The pattern expression (uncompiled — compilation happens, and is
    /// cached, server-side).
    pub pexp: String,
    /// Wrap the expression in uncaptured `.*` context before compiling
    /// (the within-sequence semantics of the paper's Tab. III constraints).
    pub unanchored: bool,
    /// Minimum support threshold σ.
    pub sigma: u64,
    /// Which algorithm to dispatch to.
    pub algo: WireAlgo,
    /// Per-sequence work budget; `0` means the server's default (which is
    /// also its ceiling — larger requests are rejected at admission).
    pub budget: u64,
    /// Result-pattern cap; `0` means the server's default ceiling.
    pub max_patterns: u64,
    /// Worker threads for the mining run; `0` means 1 (a deterministic
    /// single-worker run) — parallelism is opt-in, capped server-side.
    pub workers: u64,
    /// Wall-clock deadline for the query in milliseconds; `0` means none.
    /// The server clamps this to its own ceiling
    /// (`ServeLimits::max_deadline`): the effective deadline is the
    /// *minimum* of the two, and an over-deadline run ends with a terminal
    /// `DeadlineExceeded` error frame.
    pub deadline_millis: u64,
}

impl Request {
    /// An unanchored DESQ-DFS request with server-default limits — the
    /// common query shape.
    pub fn new(corpus: impl Into<String>, pexp: impl Into<String>, sigma: u64) -> Request {
        Request {
            corpus: corpus.into(),
            pexp: pexp.into(),
            unanchored: false,
            sigma,
            algo: WireAlgo::DesqDfs,
            budget: 0,
            max_patterns: 0,
            workers: 0,
            deadline_millis: 0,
        }
    }

    /// Switches to the paper's unanchored (`.*` context) semantics.
    pub fn unanchored(mut self) -> Request {
        self.unanchored = true;
        self
    }

    /// Selects the algorithm.
    pub fn with_algo(mut self, algo: WireAlgo) -> Request {
        self.algo = algo;
        self
    }

    /// Sets the per-sequence work budget.
    pub fn with_budget(mut self, budget: u64) -> Request {
        self.budget = budget;
        self
    }

    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: u64) -> Request {
        self.workers = workers;
        self
    }

    /// Sets the wall-clock deadline in milliseconds (`0` = none).
    pub fn with_deadline_millis(mut self, deadline_millis: u64) -> Request {
        self.deadline_millis = deadline_millis;
        self
    }

    /// Decodes a frame payload that must hold a request — the first frame
    /// of a conversation. Any other tag is refused on the tag byte alone:
    /// a peer that has not yet asked for anything gets no body parsed.
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let refused = || Error::Invalid("expected a request frame".into());
        if payload.first().is_some_and(|&tag| tag != TAG_REQUEST) {
            return Err(refused());
        }
        match Message::decode(payload)? {
            Message::Request(req) => Ok(req),
            _ => Err(refused()),
        }
    }
}

/// Server-side accounting attached to the terminal metrics frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// True iff this query's FST came from the compile cache.
    pub cache_hit: bool,
    /// Global FST-cache hits since server start (including this query).
    pub cache_hits: u64,
    /// Global FST-cache misses since server start (including this query).
    pub cache_misses: u64,
    /// Nanoseconds between accepting the connection and the start of
    /// mining — admission, request decode and (on a miss) FST compilation.
    pub queue_wait_nanos: u64,
    /// Nanoseconds spent compiling the pattern expression for this query
    /// (`0` on a cache hit — the skipped work the cache pays for).
    pub compile_nanos: u64,
    /// Connections evicted by a socket read/write timeout plus queries
    /// that ended in `DeadlineExceeded`, since server start.
    pub timeouts: u64,
    /// Queries that ended in `WorkerPanicked` (a contained panic — the
    /// server kept serving), since server start.
    pub panics: u64,
    /// Queries cancelled before completion (client disconnected
    /// mid-stream, drain shutdown), since server start.
    pub cancels: u64,
    /// States of this query's FST before the optimizer's
    /// determinization/minimization passes (0 for algorithms without a
    /// compiled FST).
    pub fst_states_before: u64,
    /// States of the (cached, optimized) FST the query actually mined
    /// with.
    pub fst_states_after: u64,
    /// Transitions of this query's FST before optimization.
    pub fst_transitions_before: u64,
    /// Transitions of the FST the query actually mined with.
    pub fst_transitions_after: u64,
}

/// Everything that can travel in one frame.
// The Metrics variant dwarfs the others, but a `Message` exists only for
// the moment between decode and dispatch (one per query, never stored in
// bulk) — boxing its fields would cost more in construction/match noise
// than the enum width ever could.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server: one query (see [`Request`]).
    Request(Request),
    /// Server → client: a batch of result patterns with frequencies,
    /// streamed in discovery order while mining runs.
    Patterns(Vec<(Sequence, u64)>),
    /// Server → client, terminal on success: the run's uniform
    /// [`MiningMetrics`] plus the server's [`ServerStats`].
    Metrics {
        /// The mining run's uniform metrics.
        mining: MiningMetrics,
        /// Cache and queue-wait accounting.
        stats: ServerStats,
    },
    /// Server → client, terminal on failure: the rejection or abort
    /// reason, carried as the workspace error type.
    Error(Error),
    /// Server → client, terminal on overload: the admission cap was hit.
    Busy {
        /// Connections in flight when this one was rejected.
        in_flight: u64,
        /// The configured cap.
        cap: u64,
    },
}

const TAG_REQUEST: u8 = 1;
const TAG_PATTERNS: u8 = 2;
const TAG_METRICS: u8 = 3;
const TAG_ERROR: u8 = 4;
const TAG_BUSY: u8 = 5;

impl Message {
    /// Appends this message's payload (tag byte + body) to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Request(r) => {
                buf.push(TAG_REQUEST);
                buf.push(PROTOCOL_VERSION);
                write_str(buf, &r.corpus);
                write_str(buf, &r.pexp);
                buf.push(u8::from(r.unanchored));
                write_varint(buf, r.sigma);
                buf.push(r.algo.tag());
                write_varint(buf, r.budget);
                write_varint(buf, r.max_patterns);
                write_varint(buf, r.workers);
                write_varint(buf, r.deadline_millis);
            }
            Message::Patterns(patterns) => {
                buf.push(TAG_PATTERNS);
                write_varint(buf, patterns.len() as u64);
                for (items, freq) in patterns {
                    encode_item_seq(items, buf);
                    write_varint(buf, *freq);
                }
            }
            Message::Metrics { mining, stats } => {
                buf.push(TAG_METRICS);
                mining.encode(buf);
                buf.push(u8::from(stats.cache_hit));
                write_varint(buf, stats.cache_hits);
                write_varint(buf, stats.cache_misses);
                write_varint(buf, stats.queue_wait_nanos);
                write_varint(buf, stats.compile_nanos);
                write_varint(buf, stats.timeouts);
                write_varint(buf, stats.panics);
                write_varint(buf, stats.cancels);
                write_varint(buf, stats.fst_states_before);
                write_varint(buf, stats.fst_states_after);
                write_varint(buf, stats.fst_transitions_before);
                write_varint(buf, stats.fst_transitions_after);
            }
            Message::Error(e) => {
                buf.push(TAG_ERROR);
                wire::encode_error(e, buf);
            }
            Message::Busy { in_flight, cap } => {
                buf.push(TAG_BUSY);
                write_varint(buf, *in_flight);
                write_varint(buf, *cap);
            }
        }
    }

    /// Decodes one frame payload. Rejects unknown tags, version mismatch,
    /// truncated bodies and trailing garbage — a payload either decodes to
    /// exactly one message or errors.
    pub fn decode(payload: &[u8]) -> Result<Message> {
        let mut buf = payload;
        let msg = match take_u8(&mut buf, "frame tag")? {
            TAG_REQUEST => {
                let version = take_u8(&mut buf, "request version")?;
                if version != PROTOCOL_VERSION {
                    return Err(Error::Decode(format!(
                        "protocol version mismatch: peer speaks v{version}, \
                         this build speaks v{PROTOCOL_VERSION}"
                    )));
                }
                let corpus = read_str(&mut buf)?.to_string();
                let pexp = read_str(&mut buf)?.to_string();
                let flags = take_u8(&mut buf, "request flags")?;
                let sigma = read_varint(&mut buf)?;
                let algo = take_u8(&mut buf, "request algorithm")?;
                Message::Request(Request {
                    corpus,
                    pexp,
                    unanchored: flags & 1 == 1,
                    sigma,
                    algo: WireAlgo::from_tag(algo)?,
                    budget: read_varint(&mut buf)?,
                    max_patterns: read_varint(&mut buf)?,
                    workers: read_varint(&mut buf)?,
                    deadline_millis: read_varint(&mut buf)?,
                })
            }
            TAG_PATTERNS => {
                let count = read_varint(&mut buf)?;
                // Each pattern needs ≥ 2 payload bytes (empty item seq +
                // frequency); reject hostile counts before reserving.
                if count > (buf.len() / 2).min(MAX_FRAME_PATTERNS) as u64 {
                    return Err(Error::Decode(format!(
                        "patterns frame: count {count} exceeds the payload ({} bytes) \
                         or the cap of {MAX_FRAME_PATTERNS}",
                        buf.len()
                    )));
                }
                let mut patterns = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let mut items = Vec::new();
                    decode_item_seq(&mut buf, &mut items)?;
                    let freq = read_varint(&mut buf)?;
                    patterns.push((items, freq));
                }
                Message::Patterns(patterns)
            }
            TAG_METRICS => {
                let mining = MiningMetrics::decode(&mut buf)?;
                let cache_hit = take_u8(&mut buf, "metrics cache flag")?;
                Message::Metrics {
                    mining,
                    stats: ServerStats {
                        cache_hit: cache_hit != 0,
                        cache_hits: read_varint(&mut buf)?,
                        cache_misses: read_varint(&mut buf)?,
                        queue_wait_nanos: read_varint(&mut buf)?,
                        compile_nanos: read_varint(&mut buf)?,
                        timeouts: read_varint(&mut buf)?,
                        panics: read_varint(&mut buf)?,
                        cancels: read_varint(&mut buf)?,
                        fst_states_before: read_varint(&mut buf)?,
                        fst_states_after: read_varint(&mut buf)?,
                        fst_transitions_before: read_varint(&mut buf)?,
                        fst_transitions_after: read_varint(&mut buf)?,
                    },
                }
            }
            TAG_ERROR => Message::Error(wire::decode_error(&mut buf)?),
            TAG_BUSY => Message::Busy {
                in_flight: read_varint(&mut buf)?,
                cap: read_varint(&mut buf)?,
            },
            other => return Err(Error::Decode(format!("unknown frame tag {other}"))),
        };
        wire::expect_end(buf, "serve frame")?;
        Ok(msg)
    }
}

/// Writes `msg` as one frame and flushes.
///
/// Returns `InvalidData` if the encoded message exceeds [`MAX_FRAME_LEN`] —
/// callers control this by batching (the server flushes pattern frames
/// every few hundred patterns).
pub fn write_frame(w: &mut impl Write, msg: &Message) -> std::io::Result<()> {
    let mut payload = Vec::new();
    msg.encode(&mut payload);
    wire::write_frame(w, &payload, MAX_FRAME_LEN)
}

/// Reads one frame's payload bytes under the [`MAX_FRAME_LEN`] cap (see
/// [`wire::read_frame`] for the error contract).
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    wire::read_frame(r, MAX_FRAME_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Message) {
        let mut framed = Vec::new();
        write_frame(&mut framed, msg).unwrap();
        let payload = read_frame(&mut framed.as_slice()).unwrap();
        assert_eq!(&Message::decode(&payload).unwrap(), msg);
    }

    #[test]
    fn every_message_kind_roundtrips() {
        roundtrip(&Message::Request(
            Request::new("nyt", "(ENTITY^ VERB+ ENTITY^)", 10)
                .unanchored()
                .with_algo(WireAlgo::DSeq)
                .with_budget(1_000_000)
                .with_workers(4)
                .with_deadline_millis(30_000),
        ));
        roundtrip(&Message::Patterns(vec![
            (vec![1, 2, 3], 17),
            (vec![], 1),
            (vec![u32::MAX], u64::MAX),
        ]));
        roundtrip(&Message::Metrics {
            mining: MiningMetrics::sequential(123, 4, 5, 6),
            stats: ServerStats {
                cache_hit: true,
                cache_hits: 7,
                cache_misses: 2,
                queue_wait_nanos: 999,
                compile_nanos: 0,
                timeouts: 3,
                panics: 1,
                cancels: 2,
                fst_states_before: 14,
                fst_states_after: 3,
                fst_transitions_before: 21,
                fst_transitions_after: 8,
            },
        });
        roundtrip(&Message::Error(Error::Parse {
            msg: "unexpected ']'".into(),
            pos: 7,
        }));
        roundtrip(&Message::Error(Error::ResourceExhausted("budget".into())));
        roundtrip(&Message::Error(Error::DeadlineExceeded("100ms".into())));
        roundtrip(&Message::Error(Error::Cancelled("drain".into())));
        roundtrip(&Message::Error(Error::WorkerPanicked("task 7".into())));
        roundtrip(&Message::Error(Error::PeerUnreachable(
            "127.0.0.1:7777".into(),
        )));
        roundtrip(&Message::Error(Error::PeerTimedOut("worker 2".into())));
        roundtrip(&Message::Busy {
            in_flight: 8,
            cap: 8,
        });
    }

    #[test]
    fn version_mismatch_is_a_clear_error() {
        let mut payload = Vec::new();
        Message::Request(Request::new("c", "p", 1)).encode(&mut payload);
        payload[1] = PROTOCOL_VERSION + 1;
        let err = Message::decode(&payload).unwrap_err();
        assert!(
            matches!(err, Error::Decode(ref m) if m.contains("version")),
            "{err}"
        );
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut payload = Vec::new();
        Message::Busy {
            in_flight: 1,
            cap: 2,
        }
        .encode(&mut payload);
        payload.push(0);
        assert!(Message::decode(&payload).is_err());
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut framed = Vec::new();
        write_varint(&mut framed, MAX_FRAME_LEN as u64 + 1);
        let err = read_frame(&mut framed.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A wildly hostile prefix (full u64) must be rejected too, not
        // allocated.
        let mut framed = Vec::new();
        write_varint(&mut framed, u64::MAX);
        assert!(read_frame(&mut framed.as_slice()).is_err());
    }

    #[test]
    fn algo_cli_spellings_parse() {
        for (s, algo) in [
            ("desq-dfs", WireAlgo::DesqDfs),
            ("desq-count", WireAlgo::DesqCount),
            ("d-seq", WireAlgo::DSeq),
            ("d-cand", WireAlgo::DCand),
        ] {
            assert_eq!(WireAlgo::parse(s).unwrap(), algo);
            assert!(!algo.name().is_empty());
        }
        assert!(WireAlgo::parse("bogosort").is_err());
    }
}
