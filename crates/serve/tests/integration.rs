//! End-to-end daemon tests on localhost ephemeral ports: warm-cache
//! byte-identity, concurrent clients vs the sequential oracle, explicit
//! Busy under overload, a slot free again once its query returned,
//! admission-time rejections, cancel-on-disconnect, limits refused at
//! spawn, the client against scripted servers (retry through Busy, bytes
//! after the terminal frame), and the failure-domain promises of a live
//! daemon: a stalled client is evicted by the I/O timeout, an
//! over-deadline query errors within twice its deadline, and a drain
//! cancels an in-flight query well inside its grace. No test sleeps: each
//! waits on a frame, a close or a retrying client, and the slow queries
//! are real work, not injected delays.

use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use desq::session::{AlgorithmSpec, MiningSession};
use desq_core::retry::BASE_DELAY;
use desq_core::{toy, DictionaryBuilder, Error, MiningMetrics, Sequence, SequenceDb};
use desq_serve::client::{Client, RetryPolicy};
use desq_serve::proto::{read_frame, write_frame, Message, Request, ServerStats, WireAlgo};
use desq_serve::server::{ServeLimits, Server};
use desq_serve::store::CorpusStore;
use desq_serve::ServeError;

fn toy_server(limits: ServeLimits) -> desq_serve::server::ServerHandle {
    let mut store = CorpusStore::new();
    store.load_spec("toy", "toy").unwrap();
    Server::new(store)
        .with_limits(limits)
        .spawn("127.0.0.1:0")
        .unwrap()
}

/// The next frame on a raw connection, decoded.
fn next_message(reader: &mut impl Read) -> Message {
    Message::decode(&read_frame(reader).unwrap()).unwrap()
}

/// `msg` as the bytes of one frame.
fn frame(msg: &Message) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, msg).unwrap();
    bytes
}

/// A stand-in daemon on an ephemeral port: it reads one request frame per
/// connection, answers the n-th connection with `replies[n]` verbatim and
/// closes it, and hands its listener back once every reply is sent.
fn scripted_server(replies: Vec<Vec<u8>>) -> (SocketAddr, JoinHandle<TcpListener>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let script = std::thread::spawn(move || {
        for reply in replies {
            let (mut stream, _) = listener.accept().unwrap();
            read_frame(&mut stream).unwrap();
            stream.write_all(&reply).unwrap();
        }
        listener
    });
    (addr, script)
}

fn sorted(mut patterns: Vec<(Sequence, u64)>) -> Vec<(Sequence, u64)> {
    patterns.sort_unstable();
    patterns
}

/// A resident `nyt:400` corpus, up to two workers per request and no
/// pattern ceiling, so a σ = 1 query over [`endless`] runs for seconds.
fn nyt_server() -> desq_serve::server::ServerHandle {
    let mut store = CorpusStore::new();
    store.load_spec("nyt", "nyt:400").unwrap();
    Server::new(store)
        .with_limits(ServeLimits {
            max_workers: 2,
            max_patterns: usize::MAX,
            ..ServeLimits::default()
        })
        .spawn("127.0.0.1:0")
        .unwrap()
}

/// T1(20) over [`nyt_server`]'s corpus: at σ = 1 it streams patterns for
/// far longer than any test waits; at σ = 400 it is a quick cache warm-up.
fn endless(sigma: u64) -> Request {
    Request::new("nyt", desq_dist::patterns::t1(20).expr, sigma)
        .unanchored()
        .with_workers(2)
}

#[test]
fn spawn_refuses_unusable_limits_as_invalid_input() {
    let zeroed = |zero: fn(&mut ServeLimits)| {
        let mut limits = ServeLimits::default();
        zero(&mut limits);
        limits
    };
    let cases = [
        ("max_inflight", zeroed(|l| l.max_inflight = 0)),
        ("max_budget", zeroed(|l| l.max_budget = 0)),
        ("max_patterns", zeroed(|l| l.max_patterns = 0)),
        ("max_workers", zeroed(|l| l.max_workers = 0)),
        (
            "io_timeout",
            zeroed(|l| l.io_timeout = Some(Duration::ZERO)),
        ),
        (
            "max_deadline",
            zeroed(|l| l.max_deadline = Some(Duration::ZERO)),
        ),
    ];
    for (field, limits) in cases {
        let mut store = CorpusStore::new();
        store.load_spec("toy", "toy").unwrap();
        match Server::new(store).with_limits(limits).spawn("127.0.0.1:0") {
            Err(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{field}");
                assert!(e.to_string().contains(field), "{field}: {e}");
            }
            Ok(_) => panic!("spawned with a zero {field}"),
        }
    }
}

#[test]
fn warm_query_hits_the_cache_and_is_byte_identical() {
    let handle = toy_server(ServeLimits::default());
    let client = Client::new(handle.addr());
    let req = Request::new("toy", toy::PATTERN, 2);

    let cold = client.query(&req).unwrap();
    assert!(!cold.stats.cache_hit, "first query must compile");
    assert!(cold.stats.compile_nanos > 0);
    assert_eq!(cold.stats.cache_misses, 1);

    let warm = client.query(&req).unwrap();
    assert!(warm.stats.cache_hit, "second identical query must hit");
    assert_eq!(warm.stats.compile_nanos, 0, "warm query skips compilation");
    assert!(warm.stats.cache_hits > 0);
    // Same patterns, bit for bit: the streamed pattern frames of the warm
    // query are byte-identical to the cold ones.
    assert_eq!(warm.pattern_bytes, cold.pattern_bytes);
    assert!(!warm.pattern_bytes.is_empty());

    // And both match the in-process session oracle (paper result: 3
    // patterns).
    let fx = toy::fixture();
    let oracle = MiningSession::builder()
        .dictionary(fx.dict)
        .database(fx.db)
        .pattern(toy::PATTERN)
        .sigma(2)
        .build()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(oracle.patterns.len(), 3);
    assert_eq!(sorted(cold.patterns), oracle.patterns);
    assert_eq!(cold.metrics.output_records, 3);
    assert!(cold.stats.queue_wait_nanos > 0);
    handle.shutdown();
}

#[test]
fn concurrent_clients_match_the_sequential_oracle() {
    // One shared corpus, four clients with distinct constraints (plus one
    // repeated), all in flight together against one CorpusStore.
    let (dict, db) = desq_datagen::nyt_like(&desq_datagen::NytConfig::new(800));
    let mut store = CorpusStore::new();
    store.insert("nyt", dict.clone(), db.clone());
    let handle = Server::new(store).spawn("127.0.0.1:0").unwrap();
    let client = Client::new(handle.addr());
    let (dict, db) = (Arc::new(dict), Arc::new(db));

    let constraints: Vec<(String, WireAlgo)> = vec![
        (desq_dist::patterns::n2().expr, WireAlgo::DesqDfs),
        (desq_dist::patterns::n3().expr, WireAlgo::DesqDfs),
        (desq_dist::patterns::n4().expr, WireAlgo::DesqCount),
        (desq_dist::patterns::n2().expr, WireAlgo::DSeq),
    ];
    let outcomes: Vec<Vec<(Sequence, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = constraints
            .iter()
            .map(|(expr, algo)| {
                let client = &client;
                scope.spawn(move || {
                    let req = Request::new("nyt", expr.clone(), 4)
                        .unanchored()
                        .with_algo(*algo);
                    sorted(client.query(&req).unwrap().patterns)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for ((expr, _), served) in constraints.iter().zip(&outcomes) {
        let oracle = MiningSession::builder()
            .dictionary(dict.clone())
            .database(db.clone())
            .pattern_unanchored(expr.clone())
            .sigma(4)
            .algorithm(AlgorithmSpec::DesqDfs)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(!oracle.patterns.is_empty(), "oracle empty for {expr}");
        assert_eq!(served, &oracle.patterns, "mismatch for {expr}");
    }
    // Every lookup is a hit or a miss. n2, n3 and n4 each missed once; the
    // two n2 queries were in flight together, and the store compiles
    // outside its lock (`CorpusStore::compiled`), so both may have missed.
    let q = client
        .query(&Request::new("nyt", desq_dist::patterns::n2().expr, 4).unanchored())
        .unwrap();
    assert!(q.stats.cache_hit);
    let (hits, misses) = (q.stats.cache_hits, q.stats.cache_misses);
    assert_eq!(hits + misses, constraints.len() as u64 + 1);
    assert!((3..=4).contains(&misses), "{misses} misses");
    handle.shutdown();
}

#[test]
fn overload_gets_an_explicit_busy_frame() {
    let handle = toy_server(ServeLimits {
        max_inflight: 1,
        ..ServeLimits::default()
    });

    // Two silent connections. The accept queue is first in, first out, so
    // the first holds the only slot and the second is answered Busy.
    let admitted = TcpStream::connect(handle.addr()).unwrap();
    let mut refused = BufReader::new(TcpStream::connect(handle.addr()).unwrap());
    assert_eq!(
        next_message(&mut refused),
        Message::Busy {
            in_flight: 1,
            cap: 1
        }
    );
    let client = Client::new(handle.addr());
    match client.query(&Request::new("toy", toy::PATTERN, 2)) {
        Err(ServeError::Busy { in_flight, cap }) => assert_eq!((in_flight, cap), (1, 1)),
        other => panic!("expected Busy, got {other:?}"),
    }

    // The admitted connection runs a query to the server's close; its slot
    // is free by then, so the next query is admitted at once.
    let mut writer = BufWriter::new(admitted.try_clone().unwrap());
    write_frame(
        &mut writer,
        &Message::Request(Request::new("toy", toy::PATTERN, 2)),
    )
    .unwrap();
    let mut reader = BufReader::new(admitted);
    while let Message::Patterns(_) = next_message(&mut reader) {}
    assert_eq!(reader.read(&mut [0u8; 1]).unwrap(), 0, "the server closes");
    let served = client.query(&Request::new("toy", toy::PATTERN, 2)).unwrap();
    assert_eq!(served.patterns.len(), 3);
    handle.shutdown();
}

#[test]
fn back_to_back_queries_at_one_slot_never_get_busy() {
    // A query's slot is released before the server closes its connection,
    // and the client returns only after that close: its next query can
    // never find the slot still taken by its own previous one.
    let handle = toy_server(ServeLimits {
        max_inflight: 1,
        ..ServeLimits::default()
    });
    let client = Client::new(handle.addr());
    let req = Request::new("toy", toy::PATTERN, 2);
    for i in 0..2_000 {
        match client.query(&req) {
            Ok(out) => assert_eq!(out.patterns.len(), 3),
            Err(e) => panic!("query {i}: {e}"),
        }
    }
    handle.shutdown();
}

#[test]
fn admission_rejects_bad_requests_before_mining() {
    let handle = toy_server(ServeLimits {
        max_budget: 1000,
        ..ServeLimits::default()
    });
    let client = Client::new(handle.addr());

    let unknown = client
        .query(&Request::new("nope", toy::PATTERN, 2))
        .unwrap_err();
    match unknown {
        ServeError::Remote(Error::Invalid(msg)) => {
            assert!(msg.contains("unknown corpus"), "{msg}");
            assert!(msg.contains("toy"), "should list resident corpora: {msg}");
        }
        other => panic!("expected Remote(Invalid), got {other}"),
    }

    let bad_pexp = client.query(&Request::new("toy", "([", 2)).unwrap_err();
    assert!(
        matches!(bad_pexp, ServeError::Remote(Error::Parse { .. })),
        "expected Remote(Parse), got {bad_pexp}"
    );

    // Parses, but names an item the dictionary lacks: the compile fails.
    let unknown_item = client
        .query(&Request::new("toy", "(A)(nosuchitem)", 2))
        .unwrap_err();
    assert!(
        matches!(unknown_item, ServeError::Remote(Error::UnknownItem(ref item)) if item == "nosuchitem"),
        "expected Remote(UnknownItem), got {unknown_item}"
    );

    let over_budget = client
        .query(&Request::new("toy", toy::PATTERN, 2).with_budget(100_000))
        .unwrap_err();
    match over_budget {
        ServeError::Remote(Error::Invalid(msg)) => {
            assert!(msg.contains("ceiling"), "{msg}")
        }
        other => panic!("expected Remote(Invalid), got {other}"),
    }

    // σ is the session's to check, after the compile.
    let zero_sigma = client.query(&Request::new("toy", "(b)", 0)).unwrap_err();
    assert!(
        matches!(zero_sigma, ServeError::Remote(Error::Invalid(_))),
        "expected Remote(Invalid), got {zero_sigma}"
    );

    // None of the rejections left mining state behind: a good query still
    // works and is its expression's first compile. The failed compile
    // cached nothing: the only other entry is the σ = 0 query's.
    let ok = client.query(&Request::new("toy", toy::PATTERN, 2)).unwrap();
    assert_eq!(ok.patterns.len(), 3);
    assert!(!ok.stats.cache_hit);
    assert_eq!((ok.stats.cache_hits, ok.stats.cache_misses), (0, 2));
    handle.shutdown();
}

#[test]
fn disconnect_mid_stream_releases_the_slot_and_cancels_the_run() {
    // σ = 1 over 800 sequences yields 2 392 patterns, more than the session
    // stream's 1 024-pattern channel holds: the miner is still running
    // when the server's writes to the departed client fail.
    let (dict, db) = desq_datagen::nyt_like(&desq_datagen::NytConfig::new(800));
    let mut store = CorpusStore::new();
    store.insert("nyt", dict, db);
    let handle = Server::new(store)
        .with_limits(ServeLimits {
            max_inflight: 1,
            ..ServeLimits::default()
        })
        .spawn("127.0.0.1:0")
        .unwrap();

    // Raw client: send the request and hang up at once.
    let req = Request::new("nyt", desq_dist::patterns::n2().expr, 1).unanchored();
    let stream = TcpStream::connect(handle.addr()).unwrap();
    write_frame(&mut BufWriter::new(stream), &Message::Request(req)).unwrap();

    // The abort must release the single admission slot — a retrying client
    // waits through Busy until it does — and must be accounted as a
    // cancel/timeout, proving the run was tripped by the failed write
    // rather than mined to the end.
    let client = Client::new(handle.addr()).with_retry(RetryPolicy { max_retries: 200 });
    let outcome = client
        .query(&Request::new("nyt", desq_dist::patterns::n2().expr, 4).unanchored())
        .unwrap();
    assert!(
        outcome.stats.cancels + outcome.stats.timeouts >= 1,
        "the aborted query must be counted (cancels={}, timeouts={})",
        outcome.stats.cancels,
        outcome.stats.timeouts
    );
    handle.shutdown();
}

#[test]
fn retry_policy_rides_out_busy_until_the_slot_frees() {
    // A scripted server answers the first connection Busy and the second
    // with a full response.
    let patterns = vec![(vec![1, 2], 3)];
    let (addr, script) = scripted_server(vec![
        frame(&Message::Busy {
            in_flight: 1,
            cap: 1,
        }),
        [
            frame(&Message::Patterns(patterns.clone())),
            frame(&Message::Metrics {
                mining: MiningMetrics::default(),
                stats: ServerStats::default(),
            }),
        ]
        .concat(),
    ]);
    let retrying = Client::new(addr).with_retry(RetryPolicy { max_retries: 3 });
    let outcome = retrying
        .query(&Request::new("toy", toy::PATTERN, 2))
        .expect("the retry must land");
    assert_eq!(outcome.patterns, patterns);

    // Exactly two connections: nothing is waiting to be accepted.
    let listener = script.join().unwrap();
    listener.set_nonblocking(true).unwrap();
    let third = listener.accept().map(|_| ()).unwrap_err();
    assert_eq!(third.kind(), std::io::ErrorKind::WouldBlock);
}

#[test]
fn a_byte_after_the_terminal_frame_is_a_decode_error() {
    let metrics = frame(&Message::Metrics {
        mining: MiningMetrics::default(),
        stats: ServerStats::default(),
    });
    let (addr, script) = scripted_server(vec![[metrics, vec![0]].concat()]);
    let err = Client::new(addr)
        .query(&Request::new("toy", toy::PATTERN, 2))
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Core(Error::Decode(_))),
        "expected Core(Decode), got {err}"
    );
    script.join().unwrap();
}

#[test]
fn retry_policy_bounds_connection_refused_attempts() {
    // An address nothing listens on: bind an ephemeral port, then free it.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let client = Client::new(addr).with_retry(RetryPolicy { max_retries: 2 });
    let t0 = Instant::now();
    let err = client
        .query(&Request::new("toy", toy::PATTERN, 2))
        .unwrap_err();
    assert!(
        matches!(&err, ServeError::Io(io) if io.kind() == std::io::ErrorKind::ConnectionRefused),
        "expected ConnectionRefused after bounded retries, got {err}"
    );
    // Two backoffs slept: ≥ base + 2·base (exponential, pre-jitter).
    assert!(
        t0.elapsed() >= 3 * BASE_DELAY,
        "backoff sleeps must actually happen ({:?})",
        t0.elapsed()
    );
}

#[test]
fn budget_exhaustion_reaches_the_client_as_resource_exhausted() {
    let handle = toy_server(ServeLimits::default());
    let client = Client::new(handle.addr());
    let err = client
        .query(
            &Request::new("toy", toy::PATTERN, 2)
                .with_algo(WireAlgo::DesqCount)
                .with_budget(2),
        )
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Remote(Error::ResourceExhausted(_))),
        "expected Remote(ResourceExhausted), got {err}"
    );
    handle.shutdown();
}

/// A constraint whose FST has more output labels than the transition
/// index can number is refused at admission, typed — no mining worker
/// ever meets it, so nothing panics.
#[test]
fn an_fst_too_wide_to_index_is_refused_at_admission() {
    let n = 32_768;
    let mut b = DictionaryBuilder::new();
    for i in 0..n {
        b.item(&format!("i{i}"));
    }
    let id = |name: &str| b.id_of(name).unwrap();
    let raw = SequenceDb::new(vec![
        vec![id("i0"), id("i1"), id("i2")],
        vec![id("i1"), id("i3")],
    ]);
    let (dict, db) = b.freeze(&raw).unwrap();
    let mut store = CorpusStore::new();
    store.insert("wide", dict, db);
    let handle = Server::new(store).spawn("127.0.0.1:0").unwrap();
    let client = Client::new(handle.addr());
    let union: Vec<String> = (0..n).map(|i| format!("(i{i}=)")).collect();
    let err = client
        .query(&Request::new("wide", format!("[{}]", union.join("|")), 1).unanchored())
        .unwrap_err();
    match err {
        ServeError::Remote(Error::Invalid(msg)) => {
            assert!(msg.contains("distinct output labels"), "{msg}")
        }
        other => panic!("expected Remote(Invalid), got {other}"),
    }
    let ok = client
        .query(&Request::new("wide", "(i1=)", 1).unanchored())
        .unwrap();
    assert_eq!(ok.patterns.len(), 1);
    assert_eq!(ok.stats.panics, 0);
    handle.shutdown();
}

/// A stalled client — connected, never sends a request — is evicted by
/// the I/O timeout: it receives an explicit terminal frame, its admission
/// slot is released before its connection closes, and the next query gets
/// no `Busy`.
#[test]
fn stalled_client_is_evicted_by_the_io_timeout() {
    let handle = toy_server(ServeLimits {
        max_inflight: 1,
        io_timeout: Some(Duration::from_millis(500)),
        ..ServeLimits::default()
    });

    // Two silent connections. The accept queue is first in, first out, so
    // the first holds the only slot and the second is answered Busy.
    let mut held = BufReader::new(TcpStream::connect(handle.addr()).unwrap());
    let mut refused = BufReader::new(TcpStream::connect(handle.addr()).unwrap());
    assert_eq!(
        next_message(&mut refused),
        Message::Busy {
            in_flight: 1,
            cap: 1
        },
        "the stalled connection must hold the only slot at first"
    );

    // The eviction frees the slot without the holder ever disconnecting,
    // and tells it why before closing.
    assert!(
        matches!(
            next_message(&mut held),
            Message::Error(Error::DeadlineExceeded(_))
        ),
        "the stalled client is told why it was evicted"
    );
    assert_eq!(held.read(&mut [0u8; 1]).unwrap(), 0, "then the close");
    let outcome = Client::new(handle.addr())
        .query(&Request::new("toy", toy::PATTERN, 2))
        .unwrap();
    assert_eq!(outcome.patterns.len(), 3);
    assert!(outcome.stats.timeouts >= 1, "eviction must be counted");
    handle.shutdown();
}

/// A query past its wall-clock deadline returns `DeadlineExceeded` no
/// earlier than the deadline and within twice it, although the run would
/// stream patterns for far longer.
#[test]
fn over_deadline_query_errors_within_twice_the_deadline() {
    let handle = nyt_server();
    let client = Client::new(handle.addr());

    // Warm the FST cache so the measured query spends its wall-clock
    // budget in mining, not compilation.
    client.query(&endless(400)).unwrap();

    let deadline = Duration::from_millis(200);
    let t0 = Instant::now();
    let err = client
        .query(&endless(1).with_deadline_millis(deadline.as_millis() as u64))
        .unwrap_err();
    let elapsed = t0.elapsed();
    assert!(
        matches!(err, ServeError::Remote(Error::DeadlineExceeded(_))),
        "expected Remote(DeadlineExceeded), got {err}"
    );
    assert!(
        elapsed >= deadline,
        "cannot trip before the deadline ({elapsed:?})"
    );
    assert!(
        elapsed <= 2 * deadline,
        "DeadlineExceeded must arrive within 2x the deadline ({elapsed:?})"
    );

    // The server itself is fine afterwards.
    let after = client.query(&endless(400)).unwrap();
    assert!(after.stats.cache_hit);
    assert!(after.stats.timeouts >= 1, "the deadline must be counted");
    handle.shutdown();
}

/// Drain shutdown cancels the in-flight query (its client receives a
/// terminal `Cancelled` frame) and returns within 2 s, well before its
/// five-second grace runs out.
#[test]
fn drain_shutdown_cancels_in_flight_sessions_within_grace() {
    let handle = nyt_server();
    Client::new(handle.addr()).query(&endless(400)).unwrap(); // warm the cache

    // The client reads on its own thread, so the daemon's writes never
    // wait on it; it reports the first pattern frame (the query is in
    // flight), then returns the terminal frame.
    let slow = TcpStream::connect(handle.addr()).unwrap();
    write_frame(
        &mut BufWriter::new(slow.try_clone().unwrap()),
        &Message::Request(endless(1)),
    )
    .unwrap();
    let (started_tx, started) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut slow = BufReader::new(slow);
        assert!(matches!(next_message(&mut slow), Message::Patterns(_)));
        started_tx.send(()).unwrap();
        loop {
            match next_message(&mut slow) {
                Message::Patterns(_) => continue,
                other => break other,
            }
        }
    });
    started.recv().unwrap();

    let t0 = Instant::now();
    handle.shutdown();
    let elapsed = t0.elapsed();
    assert!(
        elapsed <= Duration::from_secs(2),
        "drain must cancel its session promptly, well inside the grace ({elapsed:?})"
    );
    let terminal = reader.join().unwrap();
    assert!(
        matches!(terminal, Message::Error(Error::Cancelled(_))),
        "the drained client is told its query was cancelled, got {terminal:?}"
    );
}
