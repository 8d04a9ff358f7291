//! Exhaustive hostile-bytes check of `desq_core::wire`, driven through both
//! message enums built on it: for one valid frame of every kind of the
//! serve protocol ([`Message`]) and of the shuffle protocol ([`Frame`]),
//! every strict prefix is a typed error and every single-byte mutation —
//! in the length prefix, the tag, a count, a string, an error kind — comes
//! back as `Ok` or a typed `Err`. A panic anywhere fails the test.

use desq::bsp::transport::{read_net_frame, write_net_frame, Frame, NET_PROTOCOL_VERSION};
use desq_core::{Error, MiningMetrics};
use desq_serve::proto::{read_frame, write_frame, Message, Request, ServerStats, WireAlgo};

const CAP: usize = 1 << 20;

/// Runs `parse` over every strict prefix and every single-byte mutation of
/// `framed`; returns how many mutations still parsed.
fn torture(framed: &[u8], what: &str, parse: impl Fn(&[u8]) -> Result<(), String>) -> usize {
    parse(framed).unwrap_or_else(|e| panic!("{what}: the valid frame must parse: {e}"));
    for cut in 0..framed.len() {
        assert!(
            parse(&framed[..cut]).is_err(),
            "{what}: prefix {cut}/{} parsed",
            framed.len()
        );
    }
    let mut survivors = 0;
    let mut bytes = framed.to_vec();
    for at in 0..framed.len() {
        for value in 0..=u8::MAX {
            if value != framed[at] {
                bytes[at] = value;
                survivors += usize::from(parse(&bytes).is_ok());
            }
        }
        bytes[at] = framed[at];
    }
    survivors
}

#[test]
fn every_prefix_and_mutation_of_every_serve_message_is_ok_or_a_typed_error() {
    let messages = [
        Message::Request(
            Request::new("nyt", "(ENTITY^ VERB+ ENTITY^)", 10)
                .unanchored()
                .with_algo(WireAlgo::DCand)
                .with_budget(1_000_000)
                .with_deadline_millis(300),
        ),
        Message::Patterns(vec![(vec![1, 2, 300], 17), (vec![], 1), (vec![70_000], 2)]),
        Message::Metrics {
            mining: MiningMetrics {
                workers: 2,
                worker_nanos: vec![40, 60],
                ..MiningMetrics::sequential(123, 4, 5, 6)
            },
            stats: ServerStats {
                cache_hit: true,
                cache_hits: 7,
                queue_wait_nanos: 999,
                ..ServerStats::default()
            },
        },
        Message::Error(Error::Parse {
            msg: "unexpected ']'".into(),
            pos: 7,
        }),
        Message::Error(Error::WorkerPanicked("task 7".into())),
        Message::Busy {
            in_flight: 8,
            cap: 8,
        },
    ];
    for msg in &messages {
        let mut framed = Vec::new();
        write_frame(&mut framed, msg).unwrap();
        let survivors = torture(&framed, &format!("{msg:?}"), |bytes| {
            let payload = read_frame(&mut &bytes[..]).map_err(|e| e.to_string())?;
            Message::decode(&payload)
                .map(drop)
                .map_err(|e| e.to_string())
        });
        // Most value bytes can change freely; a frame nothing can change
        // about would mean the mutations never reached the decoder.
        assert!(survivors > 0, "{msg:?}");
    }
}

#[test]
fn every_prefix_and_mutation_of_every_shuffle_frame_is_ok_or_a_typed_error() {
    let frames = [
        Frame::Hello {
            version: NET_PROTOCOL_VERSION,
        },
        Frame::Heartbeat,
        Frame::MapTask { epoch: 3, task: 7 },
        Frame::MapOut {
            epoch: 3,
            task: 7,
            emitted: 100,
            shuffled: 10,
            payloads: 4,
            task_nanos: 123_456,
            buckets: vec![vec![], vec![1, 2, 3], vec![0xFF; 70]],
        },
        Frame::ReduceTask {
            epoch: 4,
            task: 0,
            chunks: vec![vec![9; 5], vec![]],
        },
        Frame::ReduceOut {
            epoch: 4,
            task: 0,
            task_nanos: 1,
            out: vec![1, 0, 255],
        },
        Frame::TaskErr {
            epoch: 9,
            task: 2,
            error: Error::ResourceExhausted("NFA expansion exceeded budget of 64".into()),
        },
        Frame::TaskErr {
            epoch: 9,
            task: 2,
            error: Error::Parse {
                msg: "σ".into(),
                pos: 300,
            },
        },
        Frame::End,
    ];
    for frame in &frames {
        let mut framed = Vec::new();
        write_net_frame(&mut framed, frame, CAP).unwrap();
        let survivors = torture(&framed, &format!("{frame:?}"), |bytes| {
            read_net_frame(&mut &bytes[..], CAP)
                .map(drop)
                .map_err(|e| e.to_string())
        });
        assert!(survivors > 0, "{frame:?}");
    }
}
