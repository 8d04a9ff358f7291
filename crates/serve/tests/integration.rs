//! End-to-end daemon tests on localhost ephemeral ports: warm-cache
//! byte-identity, concurrent clients vs the sequential oracle, explicit
//! Busy under overload, admission-time rejections, cancel-on-disconnect,
//! the client's retry policy, and limits refused at spawn.

use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use desq::session::{AlgorithmSpec, MiningSession};
use desq_core::{toy, Error, Sequence};
use desq_serve::client::{Client, RetryPolicy};
use desq_serve::proto::{read_frame, write_frame, Message, Request, WireAlgo, MAX_FRAME_PATTERNS};
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

fn sorted(mut patterns: Vec<(Sequence, u64)>) -> Vec<(Sequence, u64)> {
    patterns.sort_unstable();
    patterns
}

#[test]
fn spawn_refuses_unusable_limits_as_invalid_input() {
    let bad = [
        ServeLimits {
            max_inflight: 0,
            ..ServeLimits::default()
        },
        ServeLimits {
            batch: 0,
            ..ServeLimits::default()
        },
        ServeLimits {
            batch: MAX_FRAME_PATTERNS + 1,
            ..ServeLimits::default()
        },
    ];
    for limits in bad {
        let mut store = CorpusStore::new();
        store.load_spec("toy", "toy").unwrap();
        let described = format!("{limits:?}");
        match Server::new(store).with_limits(limits).spawn("127.0.0.1:0") {
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{described}"),
            Ok(_) => panic!("spawned with {described}"),
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
    let client = Client::new(handle.addr());

    // Occupy the single slot with a connection that never sends a request.
    let holder = TcpStream::connect(handle.addr()).unwrap();
    // The admission decision happens at accept: wait until the holder is
    // actually in flight, then the next query must bounce.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let err = client
        .query(&Request::new("toy", toy::PATTERN, 2))
        .unwrap_err();
    match err {
        ServeError::Busy { in_flight, cap } => {
            assert_eq!((in_flight, cap), (1, 1));
        }
        other => panic!("expected Busy, got {other}"),
    }

    // Releasing the slot makes the same query succeed (the handler notices
    // the holder's EOF asynchronously — poll briefly).
    drop(holder);
    let mut served = None;
    for _ in 0..100 {
        match client.query(&Request::new("toy", toy::PATTERN, 2)) {
            Ok(out) => {
                served = Some(out);
                break;
            }
            Err(ServeError::Busy { .. }) => {
                std::thread::sleep(std::time::Duration::from_millis(10))
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(served.expect("slot never freed").patterns.len(), 3);
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

    let over_budget = client
        .query(&Request::new("toy", toy::PATTERN, 2).with_budget(100_000))
        .unwrap_err();
    match over_budget {
        ServeError::Remote(Error::Invalid(msg)) => {
            assert!(msg.contains("ceiling"), "{msg}")
        }
        other => panic!("expected Remote(Invalid), got {other}"),
    }

    let zero_sigma = client
        .query(&Request::new("toy", toy::PATTERN, 0))
        .unwrap_err();
    assert!(
        matches!(zero_sigma, ServeError::Remote(Error::Invalid(_))),
        "expected Remote(Invalid), got {zero_sigma}"
    );

    // None of the rejections left mining state behind: a good query still
    // works and is the cache's first compile.
    let ok = client.query(&Request::new("toy", toy::PATTERN, 2)).unwrap();
    assert_eq!(ok.patterns.len(), 3);
    handle.shutdown();
}

#[test]
fn disconnect_mid_stream_releases_the_slot_and_cancels_the_run() {
    // A big-enough corpus that the query streams many pattern frames
    // (batch = 1 → one frame per pattern, so the server notices the dead
    // peer within a couple of writes).
    let (dict, db) = desq_datagen::nyt_like(&desq_datagen::NytConfig::new(800));
    let mut store = CorpusStore::new();
    store.insert("nyt", dict, db);
    let handle = Server::new(store)
        .with_limits(ServeLimits {
            max_inflight: 1,
            batch: 1,
            ..ServeLimits::default()
        })
        .spawn("127.0.0.1:0")
        .unwrap();

    // Raw client: send the request, read exactly one pattern frame, hang
    // up mid-stream.
    let req = Request::new("nyt", desq_dist::patterns::n2().expr, 1).unanchored();
    {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut reader = BufReader::new(stream);
        write_frame(&mut writer, &Message::Request(req)).unwrap();
        let payload = read_frame(&mut reader).unwrap();
        assert!(
            matches!(Message::decode(&payload).unwrap(), Message::Patterns(_)),
            "expected the stream to have started"
        );
        // Drop both halves: the server's next write fails.
    }

    // The abort must release the single admission slot promptly — well
    // before a σ=1 full mine over 800 sequences would run to completion —
    // and must be accounted as a cancel/timeout, proving the run was
    // tripped by the failed write rather than mined to the end.
    let client = Client::new(handle.addr());
    let deadline = Instant::now() + Duration::from_secs(20);
    let outcome = loop {
        match client.query(&Request::new("nyt", desq_dist::patterns::n2().expr, 4).unanchored()) {
            Ok(out) => break out,
            Err(ServeError::Busy { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    };
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
    let handle = toy_server(ServeLimits {
        max_inflight: 1,
        ..ServeLimits::default()
    });
    // Occupy the single slot with a connection that never sends a request.
    let holder = TcpStream::connect(handle.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(50));

    // Without a policy the query bounces immediately.
    let plain = Client::new(handle.addr());
    assert!(matches!(
        plain.query(&Request::new("toy", toy::PATTERN, 2)),
        Err(ServeError::Busy { .. })
    ));

    // With one, the same query retries through the Busy answers and lands
    // once the holder goes away.
    let retrying = plain.with_retry(RetryPolicy {
        max_retries: 40,
        base_delay: Duration::from_millis(5),
        max_delay: Duration::from_millis(40),
        ..RetryPolicy::default()
    });
    let query = std::thread::spawn(move || retrying.query(&Request::new("toy", toy::PATTERN, 2)));
    std::thread::sleep(Duration::from_millis(100));
    drop(holder);
    let outcome = query.join().unwrap().expect("retries must land");
    assert_eq!(outcome.patterns.len(), 3);
    handle.shutdown();
}

#[test]
fn retry_policy_bounds_connection_refused_attempts() {
    // An address nothing listens on: bind an ephemeral port, then free it.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let policy = RetryPolicy {
        max_retries: 2,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(40),
        ..RetryPolicy::default()
    };
    let client = Client::new(addr).with_retry(policy);
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
        t0.elapsed() >= Duration::from_millis(30),
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
