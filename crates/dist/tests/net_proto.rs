//! Property tests for the shuffle wire codec: arbitrary frames survive
//! encode → write → read → decode unchanged, **every** strict payload
//! prefix is rejected (no panic, no partial decode), and hostile length
//! prefixes are refused before the payload buffer is allocated. Plus
//! scripted peers: one that answers tasks with the other phase's output
//! frame, one that greets the coordinator in another protocol version, and
//! one that answers a reduce task with damaged pattern bytes; a scripted
//! coordinator that sends a worker reduce tasks past the round's buckets;
//! and a transport whose failure counters must reach the round's metrics.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, LazyLock, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use desq_core::codec::{decode_item_seq, encode_item_seq, write_varint};
use desq_core::mining::MiningContext;
use desq_core::{Dictionary, DictionaryBuilder, Error, Result, Sequence, SequenceDb};
use desq_dist::bsp::transport::{
    read_net_frame, write_net_frame, Frame, ReduceFn, NET_PROTOCOL_VERSION,
};
use desq_dist::bsp::{
    run_round, Bucket, Combiner, Exec, InProcess, MapTaskOut, NetCoordinator, PhaseStats,
    ReduceUnit, ShuffleTransport,
};
use proptest::collection;
use proptest::prelude::*;

/// Frames on real links carry payloads up to tens of megabytes; for codec
/// coverage small byte strings exercise the same varint boundaries.
const MAX_FRAME: usize = 1 << 20;

/// A reducer's output: a frequent sequence and its frequency.
type Pattern = (Sequence, u64);

/// The context of a round over `db` on one thread, one map task and
/// `reducers` buckets. A round never reads the dictionary.
fn round(db: &SequenceDb, reducers: usize) -> MiningContext<'_> {
    static DICT: LazyLock<Dictionary> = LazyLock::new(|| {
        DictionaryBuilder::new()
            .freeze(&SequenceDb::default())
            .unwrap()
            .0
    });
    MiningContext::sequential(db, &DICT, 1).with_reducers(reducers)
}

/// The database of one sequence `[1]`.
fn one_item() -> SequenceDb {
    SequenceDb::new(vec![vec![1]])
}

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

/// All ten kinds of the shared `desq_core::wire` error table.
fn any_error() -> impl Strategy<Value = Error> {
    (0u8..10, any_string(), any_u64()).prop_map(|(kind, msg, pos)| match kind {
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
        _ => Error::PeerUnreachable(msg),
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
        let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
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
        let err = run_round(
            &round(&one_item(), 1),
            Exec::Via(&coord),
            ReduceUnit::KeyRuns,
            |_part: &[Sequence], _out: &mut Combiner| Ok(()),
            || (),
            |(): &mut (), _: Bucket<'_>, _emit: &mut dyn FnMut(Pattern)| Ok(()),
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

/// A `ReduceTask`'s index names the bucket it reduces, and so which keys
/// the reducer owns. A scripted coordinator sends a real worker task
/// indices past the round's two buckets: each comes back as a typed
/// decode error, never as an empty or foreign bucket's output, and the
/// worker still ends cleanly on `End`.
#[test]
fn a_reduce_task_beyond_the_round_s_buckets_fails_typed_on_the_worker() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let db = one_item();
    let ctx = round(&db, 2);
    let map = |_part: &[Sequence], _out: &mut Combiner| Ok(());
    let reduce = |(): &mut (), bucket: Bucket<'_>, emit: &mut dyn FnMut(Pattern)| {
        emit((vec![u32::from(bucket.owns(1))], 1));
        Ok(())
    };
    thread::scope(|s| {
        let ctx = &ctx;
        let worker = s.spawn(move || {
            run_round(
                ctx,
                Exec::Worker(addr),
                ReduceUnit::Buckets,
                map,
                || (),
                reduce,
            )
        });
        let (mut stream, _) = listener.accept().unwrap();
        let hello = read_net_frame(&mut stream, MAX_FRAME).unwrap();
        assert!(matches!(hello, Frame::Hello { .. }), "{hello:?}");
        for task in [2, 3, u64::MAX] {
            let frame = Frame::ReduceTask {
                epoch: 1,
                task,
                chunks: vec![],
            };
            write_net_frame(&mut stream, &frame, MAX_FRAME).unwrap();
            let reply = loop {
                match read_net_frame(&mut stream, MAX_FRAME).unwrap() {
                    Frame::Heartbeat => continue,
                    reply => break reply,
                }
            };
            assert!(
                matches!(reply, Frame::TaskErr { task: t, error: Error::Decode(_), .. } if t == task),
                "task {task}: {reply:?}"
            );
        }
        write_net_frame(&mut stream, &Frame::End, MAX_FRAME).unwrap();
        assert!(worker.join().unwrap().unwrap().is_none());
    });
}

/// Every `MapOut` lists one chunk per reducer, and a receiver refuses lists
/// longer than `MAX_LIST_LEN`: a round that could never deliver a map
/// output fails typed before the first frame, not as `PeerUnreachable`
/// after the peer wait.
#[test]
fn a_round_beyond_the_list_cap_is_rejected_before_any_frame() {
    let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
    let err = run_round(
        &round(&one_item(), desq_core::wire::MAX_LIST_LEN + 1),
        Exec::Via(&coord),
        ReduceUnit::KeyRuns,
        |_part: &[Sequence], _out: &mut Combiner| Ok(()),
        || (),
        |(): &mut (), _: Bucket<'_>, _emit: &mut dyn FnMut(Pattern)| Ok(()),
    )
    .unwrap_err();
    assert!(matches!(err, Error::Invalid(_)), "{err}");
}

/// The protocol version is the one thing the coordinator checks at the
/// handshake. A worker that greets it in another version gets its
/// connection closed before any task frame (or heartbeat) reaches it; a
/// real worker joining afterwards completes the job. (That the stranger
/// never becomes ready is the schedule's unit test.)
#[test]
fn a_worker_of_another_protocol_version_is_dropped_at_the_handshake() {
    let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr().unwrap();
    let (closed_tx, closed_rx) = mpsc::channel();
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
        closed_tx.send(()).unwrap();
        (received, closed)
    });
    let db = one_item();
    let ctx = round(&db, 1);
    let map = |_part: &[Sequence], _out: &mut Combiner| Ok(());
    let reduce = |(): &mut (), _: Bucket<'_>, _emit: &mut dyn FnMut(Pattern)| Ok(());
    thread::scope(|s| {
        let ctx = &ctx;
        let worker = s.spawn(move || {
            closed_rx.recv().unwrap();
            run_round(
                ctx,
                Exec::Worker(addr),
                ReduceUnit::KeyRuns,
                map,
                || (),
                reduce,
            )
        });
        let res = run_round(
            ctx,
            Exec::Via(&coord),
            ReduceUnit::KeyRuns,
            map,
            || (),
            reduce,
        )
        .unwrap();
        assert!(res.unwrap().patterns.is_empty());
        assert!(worker.join().unwrap().unwrap().is_none());
    });
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

/// Runs the job in process and keeps the encoded reduce outputs.
struct Recording(Mutex<Vec<Vec<u8>>>);

impl ShuffleTransport for Recording {
    fn map_phase(
        &self,
        ctx: &MiningContext<'_>,
        tasks: usize,
        local: &(dyn Fn(usize) -> Result<MapTaskOut> + Sync),
    ) -> Result<(Vec<MapTaskOut>, PhaseStats)> {
        InProcess.map_phase(ctx, tasks, local)
    }

    fn reduce_phase(
        &self,
        ctx: &MiningContext<'_>,
        chunks: Vec<Vec<Vec<u8>>>,
        reduce: &ReduceFn<'_>,
    ) -> Result<(Vec<Vec<u8>>, PhaseStats)> {
        let (outs, stats) = InProcess.reduce_phase(ctx, chunks, reduce)?;
        *self.0.lock().unwrap() = outs.clone();
        Ok((outs, stats))
    }
}

/// Runs the job in process and reports what a networked transport that
/// lost peers would: distinct peer timeouts and retried tasks per phase.
struct LosingPeers;

impl ShuffleTransport for LosingPeers {
    fn map_phase(
        &self,
        ctx: &MiningContext<'_>,
        tasks: usize,
        local: &(dyn Fn(usize) -> Result<MapTaskOut> + Sync),
    ) -> Result<(Vec<MapTaskOut>, PhaseStats)> {
        let (outs, stats) = InProcess.map_phase(ctx, tasks, local)?;
        let (peer_timeouts, retried_tasks) = (1, 2);
        Ok((
            outs,
            PhaseStats {
                peer_timeouts,
                retried_tasks,
                ..stats
            },
        ))
    }

    fn reduce_phase(
        &self,
        ctx: &MiningContext<'_>,
        chunks: Vec<Vec<Vec<u8>>>,
        reduce: &ReduceFn<'_>,
    ) -> Result<(Vec<Vec<u8>>, PhaseStats)> {
        let (outs, stats) = InProcess.reduce_phase(ctx, chunks, reduce)?;
        let (peer_timeouts, retried_tasks) = (10, 20);
        Ok((
            outs,
            PhaseStats {
                peer_timeouts,
                retried_tasks,
                ..stats
            },
        ))
    }
}

/// The transport's failure counters of both phases reach the round's
/// metrics, summed.
#[test]
fn both_phases_failure_counters_reach_the_round_metrics() {
    let res = run_round(
        &round(&one_item(), 1),
        Exec::Via(&LosingPeers),
        ReduceUnit::KeyRuns,
        |_part: &[Sequence], _out: &mut Combiner| Ok(()),
        || (),
        |(): &mut (), _: Bucket<'_>, _emit: &mut dyn FnMut(Pattern)| Ok(()),
    )
    .unwrap();
    let metrics = res.unwrap().metrics;
    assert_eq!((metrics.peer_timeouts, metrics.retried_tasks), (11, 22));
}

/// A one-bucket round whose worker is a scripted peer: map tasks get
/// empty chunks, the reduce task gets `out` as the bucket's patterns.
fn patterns_from_peer(out: Vec<u8>) -> Result<Vec<Pattern>> {
    let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
    let peer = scripted_peer(coord.local_addr().unwrap(), move |frame| match frame {
        Frame::MapTask { epoch, task } => Some(Frame::MapOut {
            epoch,
            task,
            emitted: 0,
            shuffled: 0,
            payloads: 0,
            task_nanos: 0,
            buckets: vec![vec![]],
        }),
        Frame::ReduceTask { epoch, task, .. } => Some(Frame::ReduceOut {
            epoch,
            task,
            task_nanos: 0,
            out: out.clone(),
        }),
        _ => None,
    });
    let outcome = run_round(
        &round(&one_item(), 1),
        Exec::Via(&coord),
        ReduceUnit::KeyRuns,
        |_part: &[Sequence], _out: &mut Combiner| Ok(()),
        || (),
        |(): &mut (), _: Bucket<'_>, _emit: &mut dyn FnMut(Pattern)| Ok(()),
    );
    drop(coord); // releases the peer if the job died before its last phase
    peer.join().unwrap();
    outcome.map(|res| res.unwrap().patterns)
}

/// A worker's `ReduceOut` bytes are the only worker output that reaches
/// the driver's result. Every strict prefix and a spread of single-byte
/// mutations of a real bucket output, and an output count beyond the
/// input, must end the job in a decode error or a decoded pattern list —
/// never a panic, never an allocation sized by a hostile count.
#[test]
fn hostile_reduce_outputs_fail_typed_or_decode() {
    // A real bucket output: two patterns with one- to three-byte items.
    let db = SequenceDb::new(vec![vec![1, 300]]);
    let recording = Recording(Mutex::new(Vec::new()));
    let res = run_round(
        &round(&db, 1),
        Exec::Via(&recording),
        ReduceUnit::KeyRuns,
        |part: &[Sequence], out: &mut Combiner| {
            for &x in part.iter().flatten() {
                let mut payload = Vec::new();
                encode_item_seq(&[x, 70_000, 2], &mut payload);
                out.emit(&[x], &payload, 3);
            }
            Ok(())
        },
        || (),
        |(): &mut (), bucket: Bucket<'_>, emit: &mut dyn FnMut(Pattern)| {
            for (_, vs) in bucket.groups() {
                for (bytes, w) in vs.payloads() {
                    let mut pattern = Sequence::new();
                    decode_item_seq(&mut &bytes[..], &mut pattern)?;
                    emit((pattern, w));
                }
            }
            Ok(())
        },
    )
    .unwrap();
    let clean = res.unwrap().patterns;
    let valid = recording.0.into_inner().unwrap().pop().unwrap();
    assert_eq!(clean.len(), 2);
    assert_eq!(patterns_from_peer(valid.clone()).unwrap(), clean);

    let (mut decoded, mut refused) = (0usize, 0usize);
    let mut check = |out: Vec<u8>, what: String| match patterns_from_peer(out) {
        // Every pattern takes at least two bytes.
        Ok(patterns) => {
            assert!(2 * patterns.len() <= valid.len(), "{what}: {patterns:?}");
            decoded += 1;
        }
        Err(e) => {
            assert!(matches!(e, Error::Decode(_)), "{what}: {e}");
            refused += 1;
        }
    };
    for cut in 0..valid.len() {
        check(valid[..cut].to_vec(), format!("prefix {cut}"));
    }
    for at in 0..valid.len() {
        for byte in [0x00, 0x01, 0x7f, 0x80, 0xff, valid[at] ^ 0x01] {
            let mut out = valid.clone();
            out[at] = byte;
            check(out, format!("byte {at} = {byte:#04x}"));
        }
    }
    assert!(
        decoded > 0 && refused > 0,
        "{decoded} decoded, {refused} refused"
    );

    // A count beyond what the bytes behind it could hold is refused at
    // the count, before any output is decoded.
    for count in [valid.len() as u64, u64::MAX] {
        let mut out = Vec::new();
        write_varint(&mut out, count);
        out.extend_from_slice(&valid[1..]);
        let err = patterns_from_peer(out).unwrap_err();
        assert!(
            matches!(&err, Error::Decode(m) if m.contains("exceeds input")),
            "count {count}: {err}"
        );
    }
}
