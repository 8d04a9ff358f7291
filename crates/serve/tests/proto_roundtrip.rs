//! Property tests for the frame codec: arbitrary messages survive
//! encode → frame → read → decode unchanged, every strict payload prefix
//! is rejected (no panic, no partial decode), truncated frames error at
//! the transport layer, and hostile length prefixes are refused before
//! any allocation.

use desq_core::{Error, MiningMetrics};
use desq_serve::proto::{
    read_frame, write_frame, Message, Request, ServerStats, WireAlgo, MAX_FRAME_LEN,
};
use proptest::collection;
use proptest::prelude::*;

/// Short strings over a mixed alphabet: ASCII printable plus a couple of
/// multi-byte code points, so the UTF-8 path of `write_str`/`read_str` is
/// exercised (including the empty string).
fn any_string() -> impl Strategy<Value = String> {
    collection::vec(
        prop_oneof![
            (32u32..127).prop_map(|c| char::from_u32(c).unwrap()),
            Just('σ'),
            Just('→'),
            Just('𝄞'),
        ],
        0..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn any_algo() -> impl Strategy<Value = WireAlgo> {
    prop_oneof![
        Just(WireAlgo::DesqDfs),
        Just(WireAlgo::DesqCount),
        Just(WireAlgo::DSeq),
        Just(WireAlgo::DCand),
    ]
}

/// Varint-relevant magnitudes: small values, values around the 7-bit
/// group boundaries, and the extremes.
fn any_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..3,
        100u64..200,
        (1u64 << 28) - 2..(1 << 28) + 2,
        u64::MAX - 2..=u64::MAX,
    ]
}

fn any_request() -> impl Strategy<Value = Message> {
    (
        (any_string(), any_string(), 0u64..2, any_u64(), any_algo()),
        (any_u64(), any_u64(), any_u64(), any_u64()),
    )
        .prop_map(
            |(
                (corpus, pexp, unanchored, sigma, algo),
                (budget, max_patterns, workers, deadline_millis),
            )| {
                Message::Request(Request {
                    corpus,
                    pexp,
                    unanchored: unanchored == 1,
                    sigma,
                    algo,
                    budget,
                    max_patterns,
                    workers,
                    deadline_millis,
                })
            },
        )
}

fn any_patterns() -> impl Strategy<Value = Message> {
    collection::vec((collection::vec(0u32..=u32::MAX, 0..8), any_u64()), 0..6)
        .prop_map(Message::Patterns)
}

fn any_metrics() -> impl Strategy<Value = Message> {
    (
        (any_u64(), any_u64(), any_u64(), any_u64(), any_u64()),
        (
            collection::vec(any_u64(), 0..4),
            collection::vec(any_u64(), 0..4),
        ),
        (0u64..2, any_u64(), any_u64(), any_u64(), any_u64()),
        (any_u64(), any_u64(), any_u64()),
        (any_u64(), any_u64(), any_u64()),
    )
        .prop_map(
            |(
                (wall, map, reduce, inputs, shuffle_bytes),
                (reducer_bytes, worker_nanos),
                (cache_hit, hits, misses, queue_wait, compile),
                (timeouts, panics, cancels),
                (retried, peer_timeouts, max_task),
            )| {
                Message::Metrics {
                    mining: MiningMetrics {
                        wall_nanos: wall,
                        map_nanos: map,
                        reduce_nanos: reduce,
                        input_sequences: inputs,
                        emitted_records: map ^ reduce,
                        shuffle_records: wall.wrapping_add(map),
                        shuffle_payloads: inputs,
                        shuffle_bytes,
                        reducer_bytes,
                        output_records: inputs ^ wall,
                        workers: map,
                        worker_nanos,
                        tasks: reduce,
                        steals: wall,
                        retried_tasks: retried,
                        peer_timeouts,
                        max_task_nanos: max_task,
                        cancelled: wall & 1 == 1,
                    },
                    stats: ServerStats {
                        cache_hit: cache_hit == 1,
                        cache_hits: hits,
                        cache_misses: misses,
                        queue_wait_nanos: queue_wait,
                        compile_nanos: compile,
                        timeouts,
                        panics,
                        cancels,
                        fst_states_before: timeouts ^ hits,
                        fst_states_after: panics,
                        fst_transitions_before: cancels ^ misses,
                        fst_transitions_after: max_task,
                    },
                }
            },
        )
}

fn any_error() -> impl Strategy<Value = Message> {
    (0u8..11, any_string(), any_u64()).prop_map(|(kind, msg, pos)| {
        Message::Error(match kind {
            0 => Error::Parse {
                msg,
                pos: pos as usize,
            },
            1 => Error::UnknownItem(msg),
            2 => Error::CyclicHierarchy(msg),
            3 => Error::ResourceExhausted(msg),
            4 => Error::Decode(msg),
            5 => Error::Invalid(msg),
            6 => Error::DeadlineExceeded(msg),
            7 => Error::Cancelled(msg),
            8 => Error::WorkerPanicked(msg),
            9 => Error::PeerUnreachable(msg),
            _ => Error::PeerTimedOut(msg),
        })
    })
}

fn any_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        any_request(),
        any_patterns(),
        any_metrics(),
        any_error(),
        (any_u64(), any_u64()).prop_map(|(in_flight, cap)| Message::Busy { in_flight, cap }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → frame → read_frame → decode is the identity.
    #[test]
    fn messages_roundtrip_through_frames(msg in any_message()) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &msg).expect("encode");
        let mut stream = framed.as_slice();
        let payload = read_frame(&mut stream).expect("read");
        prop_assert!(stream.is_empty(), "frame left {} bytes unread", stream.len());
        let decoded = Message::decode(&payload).expect("decode");
        prop_assert_eq!(decoded, msg);
    }

    /// A payload either decodes completely or errors: every strict prefix
    /// is rejected (frames carry exactly one message, so a prefix always
    /// cuts a field) and it never panics.
    #[test]
    fn truncated_payloads_are_errors_not_panics(msg in any_message(), cut in 0u64..10_000) {
        let mut payload = Vec::new();
        msg.encode(&mut payload);
        let cut = (cut as usize) % payload.len(); // payload is never empty (tag byte)
        prop_assert!(
            Message::decode(&payload[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded",
            payload.len()
        );
    }

    /// A frame cut anywhere — inside the length prefix or the payload —
    /// fails `read_frame` with `UnexpectedEof` instead of blocking or
    /// returning short data.
    #[test]
    fn truncated_frames_are_transport_errors(msg in any_message(), cut in 0u64..10_000) {
        let mut framed = Vec::new();
        write_frame(&mut framed, &msg).expect("encode");
        let cut = (cut as usize) % framed.len();
        let err = read_frame(&mut &framed[..cut]).expect_err("truncated frame must error");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    /// Hostile length prefixes above [`MAX_FRAME_LEN`] are rejected before
    /// the payload allocation, for the whole range up to `u64::MAX`.
    #[test]
    fn oversized_length_prefixes_are_rejected(len in MAX_FRAME_LEN as u64 + 1..=u64::MAX) {
        let mut framed = Vec::new();
        desq_core::codec::write_varint(&mut framed, len);
        framed.extend_from_slice(&[0u8; 64]); // even with bytes behind it
        let err = read_frame(&mut framed.as_slice()).expect_err("oversized length must error");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Flipping the tag byte to an unknown value is a decode error, so new
    /// message kinds can be added behind a version bump without silent
    /// misinterpretation.
    #[test]
    fn unknown_tags_are_rejected(msg in any_message(), tag in 6u8..=u8::MAX) {
        let mut payload = Vec::new();
        msg.encode(&mut payload);
        payload[0] = tag;
        prop_assert!(Message::decode(&payload).is_err());
    }
}
