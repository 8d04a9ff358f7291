//! Chaos suite: deterministic fault injection against a live daemon.
//!
//! Only built with `--features failpoints`. Each test arms named
//! failpoints ([`desq_core::fault`]) inside the serving/mining stack and
//! asserts the failure-domain promises of `server.rs`: an injected panic
//! is contained to its connection, a stalled client is evicted by the
//! I/O timeout, an over-deadline query errors within twice its deadline,
//! and drain shutdown cancels in-flight sessions inside the grace period.
//! No test sleeps: each waits on a frame or a close.
#![cfg(feature = "failpoints")]

use std::io::{BufReader, BufWriter, Read};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use desq::session::MiningSession;
use desq_core::fault::{self, FailAction, FailSpec};
use desq_core::{toy, Error};
use desq_serve::client::Client;
use desq_serve::proto::{read_frame, write_frame, Message, Request};
use desq_serve::server::{ServeLimits, Server, ServerHandle};
use desq_serve::store::CorpusStore;
use desq_serve::ServeError;

/// The failpoint registry is process-global; chaos tests take this lock
/// so their site configurations never overlap.
static CHAOS: Mutex<()> = Mutex::new(());

fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = CHAOS.lock().unwrap_or_else(|p| p.into_inner());
    fault::clear_all();
    guard
}

/// Default limits, but allowing 2-worker requests regardless of the host's
/// visible parallelism.
fn two_worker_limits() -> ServeLimits {
    ServeLimits {
        max_workers: 2,
        ..ServeLimits::default()
    }
}

fn toy_server(limits: ServeLimits) -> ServerHandle {
    let mut store = CorpusStore::new();
    store.load_spec("toy", "toy").unwrap();
    Server::new(store)
        .with_limits(limits)
        .spawn("127.0.0.1:0")
        .unwrap()
}

fn nyt_server(limits: ServeLimits) -> ServerHandle {
    let mut store = CorpusStore::new();
    store.load_spec("nyt", "nyt:400").unwrap();
    Server::new(store)
        .with_limits(limits)
        .spawn("127.0.0.1:0")
        .unwrap()
}

/// The next frame on a raw connection, decoded.
fn next_message(reader: &mut impl Read) -> Message {
    Message::decode(&read_frame(reader).unwrap()).unwrap()
}

fn nyt_request(sigma: u64) -> Request {
    Request::new("nyt", desq_dist::patterns::n2().expr, sigma).unanchored()
}

/// (a) A panicking mining task yields a terminal `WorkerPanicked` error
/// frame to that client — and the server answers the next query normally.
/// The task boundary is the same at every worker count, the request's
/// default (`workers` 0, served as 1) included.
#[test]
fn injected_task_panic_is_contained_to_its_connection() {
    let _guard = chaos_guard();
    let handle = toy_server(two_worker_limits());
    let client = Client::new(handle.addr());

    for workers in [0, 2] {
        let request = Request::new("toy", toy::PATTERN, 2).with_workers(workers);
        fault::configure(
            "sched::task_run",
            FailSpec::once_after(0, FailAction::Panic),
        );
        match client.query(&request).unwrap_err() {
            ServeError::Remote(Error::WorkerPanicked(msg)) => {
                assert!(msg.contains("sched::task_run"), "{msg}");
            }
            other => panic!("expected Remote(WorkerPanicked), got {other}"),
        }
        assert!(fault::hits("sched::task_run") >= 1, "failpoint never fired");

        // The panic was contained: the very next query succeeds and reports
        // the contained panic in the global counter.
        fault::clear_all();
        let ok = client.query(&request).unwrap();
        assert_eq!(ok.patterns.len(), 3);
        assert!(ok.stats.panics >= 1, "contained panic must be counted");
    }
    handle.shutdown();
}

/// The library facade keeps the same promise without a daemon around it: a
/// one-worker session mines on the calling thread, and a panicking task
/// still comes back as an error value from `run()` and from a stream's
/// `finish()`.
#[test]
fn a_one_worker_session_returns_an_injected_task_panic_as_an_error() {
    let _guard = chaos_guard();
    let fx = toy::fixture();
    let session = MiningSession::builder()
        .dictionary(fx.dict)
        .database(fx.db)
        .pattern(toy::PATTERN)
        .sigma(2)
        .workers(1)
        .build()
        .unwrap();
    type Run = fn(&MiningSession) -> Result<usize, Error>;
    let runs: [(&str, Run); 2] = [
        ("run", |s| s.run().map(|r| r.patterns.len())),
        ("stream", |s| {
            let mut stream = s.stream();
            let n = stream.by_ref().count();
            stream.finish().map(|_| n)
        }),
    ];
    for (what, run) in runs {
        fault::configure(
            "sched::task_run",
            FailSpec::once_after(0, FailAction::Panic),
        );
        let err = run(&session).unwrap_err();
        assert!(
            matches!(&err, Error::WorkerPanicked(m) if m.contains("sched::task_run")),
            "{what}: {err}"
        );
        fault::clear_all();
        assert_eq!(run(&session).unwrap(), 3, "{what}");
    }
}

/// (a, variant) A panic *outside* mining — between the run and the
/// terminal frame — is also caught at the connection boundary.
#[test]
fn injected_reply_panic_is_contained_to_its_connection() {
    let _guard = chaos_guard();
    let handle = toy_server(ServeLimits::default());
    let client = Client::new(handle.addr());

    fault::configure(
        "serve::before_reply",
        FailSpec::once_after(0, FailAction::Panic),
    );
    let err = client
        .query(&Request::new("toy", toy::PATTERN, 2))
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Remote(Error::WorkerPanicked(ref m)) if m.contains("serve::before_reply")),
        "expected Remote(WorkerPanicked), got {err}"
    );

    fault::clear_all();
    assert_eq!(
        client
            .query(&Request::new("toy", toy::PATTERN, 2))
            .unwrap()
            .patterns
            .len(),
        3
    );
    handle.shutdown();
}

/// An injected compile failure surfaces as that query's error and leaves
/// the cache serving (the poison-recovery satellite, exercised end to
/// end).
#[test]
fn injected_compile_error_does_not_brick_the_cache() {
    let _guard = chaos_guard();
    let handle = toy_server(ServeLimits::default());
    let client = Client::new(handle.addr());

    fault::configure("store::compile", FailSpec::once_after(0, FailAction::Err));
    let err = client
        .query(&Request::new("toy", toy::PATTERN, 2))
        .unwrap_err();
    assert!(
        matches!(err, ServeError::Remote(Error::Invalid(ref m)) if m.contains("store::compile")),
        "expected the injected compile error, got {err}"
    );

    // Same expression again: compiles cleanly now (the failpoint fired
    // once), proving the failed attempt left no broken cache state.
    let ok = client.query(&Request::new("toy", toy::PATTERN, 2)).unwrap();
    assert_eq!(ok.patterns.len(), 3);
    assert!(
        !ok.stats.cache_hit,
        "failed compile must not populate cache"
    );
    handle.shutdown();
}

/// (b) A stalled client — connected, never sends a request — is evicted
/// by the I/O timeout: it receives an explicit terminal frame, its
/// admission slot is released before its connection closes, and the next
/// query gets no `Busy`.
#[test]
fn stalled_client_is_evicted_by_the_io_timeout() {
    let _guard = chaos_guard();
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

/// (c) A query past its wall-clock deadline returns `DeadlineExceeded`
/// within 2× the deadline, even though each mining task is artificially
/// slowed far beyond it.
#[test]
fn over_deadline_query_errors_within_twice_the_deadline() {
    let _guard = chaos_guard();
    let handle = nyt_server(two_worker_limits());
    let client = Client::new(handle.addr());

    // Warm the FST cache so the measured query spends its wall-clock
    // budget in mining, not compilation.
    client.query(&nyt_request(4)).unwrap();

    // Every scheduler task now dawdles 40 ms; the σ=1 run would take many
    // times the deadline. The cooperative checkpoint between tasks must
    // trip the 200 ms deadline no later than one task-length after it.
    fault::configure(
        "sched::task_run",
        FailSpec::always(FailAction::Delay(Duration::from_millis(40))),
    );
    let deadline_ms = 200u64;
    let t0 = Instant::now();
    let err = client
        .query(
            &nyt_request(1)
                .with_workers(2)
                .with_deadline_millis(deadline_ms),
        )
        .unwrap_err();
    let elapsed = t0.elapsed();
    fault::clear_all();
    assert!(
        matches!(err, ServeError::Remote(Error::DeadlineExceeded(_))),
        "expected Remote(DeadlineExceeded), got {err}"
    );
    assert!(
        elapsed >= Duration::from_millis(deadline_ms),
        "cannot trip before the deadline ({elapsed:?})"
    );
    assert!(
        elapsed <= Duration::from_millis(2 * deadline_ms),
        "DeadlineExceeded must arrive within 2x the deadline ({elapsed:?})"
    );

    // The server itself is fine afterwards.
    assert!(!client.query(&nyt_request(4)).unwrap().patterns.is_empty());
    handle.shutdown();
}

/// (d) Drain shutdown cancels the in-flight session (the client receives
/// a terminal `Cancelled` frame) and returns within 2 s, well before its
/// five-second grace runs out.
#[test]
fn drain_shutdown_cancels_in_flight_sessions_within_grace() {
    let _guard = chaos_guard();
    let handle = nyt_server(two_worker_limits());
    Client::new(handle.addr()).query(&nyt_request(4)).unwrap(); // warm the cache

    // A σ=1 run whose every task dawdles: effectively unbounded without
    // cancellation. Its first pattern frame shows it is in flight.
    fault::configure(
        "sched::task_run",
        FailSpec::always(FailAction::Delay(Duration::from_millis(30))),
    );
    let slow = TcpStream::connect(handle.addr()).unwrap();
    let request = Message::Request(nyt_request(1).with_workers(2));
    write_frame(&mut BufWriter::new(slow.try_clone().unwrap()), &request).unwrap();
    let mut slow = BufReader::new(slow);
    assert!(matches!(next_message(&mut slow), Message::Patterns(_)));

    let t0 = Instant::now();
    handle.shutdown();
    let elapsed = t0.elapsed();
    fault::clear_all();
    assert!(
        elapsed <= Duration::from_secs(2),
        "drain must cancel its session promptly, well inside the grace ({elapsed:?})"
    );

    let terminal = loop {
        match next_message(&mut slow) {
            Message::Patterns(_) => continue,
            other => break other,
        }
    };
    assert!(
        matches!(terminal, Message::Error(Error::Cancelled(_))),
        "the drained client is told its query was cancelled, got {terminal:?}"
    );
}
