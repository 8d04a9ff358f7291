//! Property tests for the shuffle wire codec: arbitrary frames survive
//! encode → write → read → decode unchanged, **every** strict payload
//! prefix is rejected (no panic, no partial decode), and hostile length
//! prefixes are refused before the payload buffer is allocated. Plus two
//! scripted peers: one that answers tasks with the other phase's output
//! frame, one that greets the coordinator in another protocol version.

use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use desq_bsp::transport::{read_net_frame, write_net_frame, Frame, NET_PROTOCOL_VERSION};
use desq_bsp::{Combiner, Engine, NetConfig, NetCoordinator};
use desq_core::Error;
use proptest::collection;
use proptest::prelude::*;

/// Frames on real links carry payloads up to tens of megabytes; for codec
/// coverage small byte strings exercise the same varint boundaries.
const MAX_FRAME: usize = 1 << 20;

fn any_bytes() -> impl Strategy<Value = Vec<u8>> {
    collection::vec(0u8..=u8::MAX, 0..12)
}

fn any_byte_list() -> impl Strategy<Value = Vec<Vec<u8>>> {
    collection::vec(any_bytes(), 0..4)
}

/// Varint-relevant magnitudes: small values, values around the 7-bit group
/// boundaries, and the extremes.
fn any_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..3,
        100u64..200,
        (1u64 << 28) - 2..(1 << 28) + 2,
        u64::MAX - 2..=u64::MAX,
    ]
}

/// Short strings including multi-byte code points, so the UTF-8 check of
/// the error codec is exercised.
fn any_string() -> impl Strategy<Value = String> {
    collection::vec(
        prop_oneof![
            (32u32..127).prop_map(|c| char::from_u32(c).unwrap()),
            Just('σ'),
            Just('→'),
        ],
        0..10,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// All eleven kinds of the shared `desq_core::wire` error table.
fn any_error() -> impl Strategy<Value = Error> {
    (0u8..11, any_string(), any_u64()).prop_map(|(kind, msg, pos)| match kind {
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
}

fn any_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (0u8..=u8::MAX).prop_map(|version| Frame::Hello { version }),
        Just(Frame::Heartbeat),
        (any_u64(), any_u64()).prop_map(|(epoch, task)| Frame::MapTask { epoch, task }),
        (
            (any_u64(), any_u64(), any_u64()),
            (any_u64(), any_u64(), any_u64()),
            any_byte_list(),
        )
            .prop_map(
                |((epoch, task, emitted), (shuffled, payloads, task_nanos), buckets)| {
                    Frame::MapOut {
                        epoch,
                        task,
                        emitted,
                        shuffled,
                        payloads,
                        task_nanos,
                        buckets,
                    }
                }
            ),
        (any_u64(), any_u64(), any_byte_list()).prop_map(|(epoch, task, chunks)| {
            Frame::ReduceTask {
                epoch,
                task,
                chunks,
            }
        }),
        (any_u64(), any_u64(), any_u64(), any_bytes()).prop_map(
            |(epoch, task, task_nanos, out)| Frame::ReduceOut {
                epoch,
                task,
                task_nanos,
                out,
            }
        ),
        (any_u64(), any_u64(), any_error()).prop_map(|(epoch, task, error)| Frame::TaskErr {
            epoch,
            task,
            error
        }),
        Just(Frame::End),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// encode → length-prefixed write → read → decode is the identity, and
    /// the reader consumes the stream exactly.
    #[test]
    fn frames_roundtrip_through_wire(frame in any_frame()) {
        let mut wire = Vec::new();
        write_net_frame(&mut wire, &frame, MAX_FRAME).expect("write");
        let mut stream = wire.as_slice();
        let decoded = read_net_frame(&mut stream, MAX_FRAME).expect("read");
        prop_assert!(stream.is_empty(), "reader left {} bytes", stream.len());
        prop_assert_eq!(decoded, frame);
    }

    /// A payload either decodes completely or errors: every strict prefix
    /// of every frame encoding is rejected — a cut always lands inside a
    /// field or removes one, and partial decodes must never pass.
    #[test]
    fn every_strict_payload_prefix_is_rejected(frame in any_frame()) {
        let mut payload = Vec::new();
        frame.encode(&mut payload);
        for cut in 0..payload.len() {
            prop_assert!(
                Frame::decode(&payload[..cut]).is_err(),
                "prefix of {cut}/{} bytes decoded",
                payload.len()
            );
        }
    }

    /// Appending any byte to a valid payload is rejected (frames carry
    /// exactly one message; trailing garbage means a framing bug).
    #[test]
    fn trailing_bytes_are_rejected(frame in any_frame(), extra in 0u8..=u8::MAX) {
        let mut payload = Vec::new();
        frame.encode(&mut payload);
        payload.push(extra);
        prop_assert!(Frame::decode(&payload).is_err());
    }

    /// Hostile length prefixes above the frame cap — all the way to
    /// `u64::MAX` — are rejected before the payload allocation, so a
    /// malicious or corrupted peer cannot OOM the reader.
    #[test]
    fn oversized_length_prefixes_are_rejected(len in MAX_FRAME as u64 + 1..=u64::MAX) {
        let mut wire = Vec::new();
        desq_core::codec::write_varint(&mut wire, len);
        wire.extend_from_slice(&[0u8; 64]); // even with bytes behind it
        let err = read_net_frame(&mut wire.as_slice(), MAX_FRAME)
            .expect_err("oversized length must error");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// A length varint longer than ten groups (shift ≥ 64) is an overflow
    /// error, not a silent wrap.
    #[test]
    fn overlong_length_varints_are_rejected(fill in 0u8..0x80) {
        let mut wire = vec![0xFFu8; 10];
        wire.push(fill | 0x01); // terminate the varint after >64 bits
        let err = read_net_frame(&mut wire.as_slice(), MAX_FRAME)
            .expect_err("overlong varint must error");
        prop_assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Unknown frame tags are decode errors, so new frame kinds require a
    /// protocol version bump instead of silent misinterpretation.
    #[test]
    fn unknown_tags_are_rejected(frame in any_frame(), tag in 9u8..=u8::MAX) {
        let mut payload = Vec::new();
        frame.encode(&mut payload);
        payload[0] = tag;
        prop_assert!(Frame::decode(&payload).is_err());
        payload[0] = 0; // tag 0 is reserved / invalid too
        prop_assert!(Frame::decode(&payload).is_err());
    }
}

/// A peer that completes the handshake and then answers every task frame
/// with whatever `script` says, until the coordinator ends the job.
fn scripted_peer(
    addr: SocketAddr,
    script: impl Fn(Frame) -> Option<Frame> + Send + 'static,
) -> JoinHandle<()> {
    thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = Frame::Hello {
            version: NET_PROTOCOL_VERSION,
        };
        write_net_frame(&mut stream, &hello, MAX_FRAME).unwrap();
        loop {
            match read_net_frame(&mut stream, MAX_FRAME) {
                Ok(Frame::End) | Err(_) => return,
                Ok(frame) => {
                    if let Some(reply) = script(frame) {
                        write_net_frame(&mut stream, &reply, MAX_FRAME).unwrap();
                    }
                }
            }
        }
    })
}

/// A worker that answers a map task with `ReduceOut` (or a reduce task with
/// `MapOut`) in the current epoch used to be stored as the task's result
/// and hit an `unreachable!` on the driver; it is a typed decode error.
#[test]
fn an_output_frame_of_the_wrong_phase_fails_the_job_typed() {
    for confused_phase in ["map", "reduce"] {
        let coord = NetCoordinator::bind("127.0.0.1:0", NetConfig::default()).unwrap();
        let map_out = |epoch, task| Frame::MapOut {
            epoch,
            task,
            emitted: 0,
            shuffled: 0,
            payloads: 0,
            task_nanos: 0,
            buckets: vec![vec![]], // one reducer
        };
        let peer = scripted_peer(coord.local_addr().unwrap(), move |frame| match frame {
            Frame::MapTask { epoch, task } if confused_phase == "map" => Some(Frame::ReduceOut {
                epoch,
                task,
                task_nanos: 0,
                out: vec![0],
            }),
            Frame::MapTask { epoch, task } => Some(map_out(epoch, task)),
            Frame::ReduceTask { epoch, task, .. } => Some(map_out(epoch, task)),
            _ => None,
        });
        let data = [1u32];
        let parts: Vec<&[u32]> = vec![&data];
        let err = Engine::new(1)
            .map_combine_reduce_via(
                &coord,
                &parts,
                |_part: &[u32], _out: &mut Combiner<u32>| Ok(()),
                || (),
                |(): &mut (), _k: &u32, _vs: &[(&[u8], u64)], _emit: &mut dyn FnMut(u32)| Ok(()),
            )
            .unwrap_err();
        assert!(
            matches!(&err, Error::Decode(m) if m.contains(confused_phase)),
            "{confused_phase}: {err}"
        );
        drop(coord); // releases the peer if the job died before its last phase
        peer.join().unwrap();
    }
}

/// Every `MapOut` lists one chunk per reducer, and a receiver refuses lists
/// longer than `MAX_LIST_LEN`: a round that could never deliver a map
/// output fails typed before the first frame, not as `PeerUnreachable`
/// after the peer wait.
#[test]
fn a_round_beyond_the_list_cap_is_rejected_before_any_frame() {
    let cfg = NetConfig {
        peer_wait: Duration::from_millis(200),
        ..NetConfig::default()
    };
    let coord = NetCoordinator::bind("127.0.0.1:0", cfg).unwrap();
    let data = [1u32];
    let parts: Vec<&[u32]> = vec![&data];
    let err = Engine::new(1)
        .with_reducers(desq_core::wire::MAX_LIST_LEN + 1)
        .map_combine_reduce_via(
            &coord,
            &parts,
            |_part: &[u32], _out: &mut Combiner<u32>| Ok(()),
            || (),
            |(): &mut (), _k: &u32, _vs: &[(&[u8], u64)], _emit: &mut dyn FnMut(u32)| Ok(()),
        )
        .unwrap_err();
    assert!(matches!(err, Error::Invalid(_)), "{err}");
}

/// The protocol version is the one thing the coordinator checks at the
/// handshake. A worker that greets it in another version gets its
/// connection closed before any task frame (or heartbeat) reaches it, never
/// counts as a live peer, and the round fails with `PeerUnreachable` once
/// the peer wait has passed.
#[test]
fn a_worker_of_another_protocol_version_is_dropped_at_the_handshake() {
    let peer_wait = Duration::from_millis(300);
    let cfg = NetConfig {
        peer_wait,
        ..NetConfig::default()
    };
    let coord = NetCoordinator::bind("127.0.0.1:0", cfg).unwrap();
    let addr = coord.local_addr().unwrap();
    let stranger = thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let hello = Frame::Hello {
            version: NET_PROTOCOL_VERSION + 1,
        };
        write_net_frame(&mut stream, &hello, MAX_FRAME).unwrap();
        // Everything the coordinator sends before closing the link.
        let mut received = Vec::new();
        let closed = loop {
            match read_net_frame(&mut stream, MAX_FRAME) {
                Ok(frame) => received.push(frame),
                Err(e) => break e,
            }
        };
        (received, closed)
    });
    let data = [1u32];
    let parts: Vec<&[u32]> = vec![&data];
    let started = Instant::now();
    let err = Engine::new(1)
        .map_combine_reduce_via(
            &coord,
            &parts,
            |_part: &[u32], _out: &mut Combiner<u32>| Ok(()),
            || (),
            |(): &mut (), _k: &u32, _vs: &[(&[u8], u64)], _emit: &mut dyn FnMut(u32)| Ok(()),
        )
        .unwrap_err();
    assert!(matches!(err, Error::PeerUnreachable(_)), "{err}");
    assert!(started.elapsed() >= peer_wait, "{:?}", started.elapsed());
    let (received, closed) = stranger.join().unwrap();
    assert!(received.is_empty(), "the stranger was sent {received:?}");
    assert!(
        !matches!(
            closed.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "the link must be closed, not left idle: {closed}"
    );
}
