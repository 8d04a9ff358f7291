//! Integration tests of the networked shuffle: D-SEQ / NAÏVE / D-CAND
//! running as coordinator + worker threads over localhost TCP, compared
//! byte-for-byte against the in-process oracle, plus the typed failure
//! paths (no worker, dead coordinator, stalled peer).

use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

use desq_bsp::transport::{write_net_frame, Frame, NET_PROTOCOL_VERSION};
use desq_bsp::{InProcess, NetConfig, NetCoordinator};
use desq_core::mining::{Miner, MiningContext};
use desq_core::retry::RetryPolicy;
use desq_core::{toy, Error, Sequence};
use desq_dist::dcand::{d_cand_via, d_cand_worker, DCandConfig};
use desq_dist::dseq::{d_seq_via, d_seq_worker, DSeqConfig};
use desq_dist::naive::{naive_via, naive_worker, NaiveConfig};

const SIGMA: u64 = 2;
const PARTS: usize = 8;

/// The toy job every process of a test builds: σ, two threads (and
/// reduce buckets), [`PARTS`] map partitions.
fn toy_ctx(fx: &toy::Toy) -> MiningContext<'_> {
    MiningContext::sequential(&fx.db, &fx.dict, SIGMA)
        .with_fst(&fx.fst)
        .with_parallelism(2, PARTS)
}

/// Reference result through the sequential DESQ-DFS miner.
fn oracle(fx: &toy::Toy, sigma: u64) -> Vec<(Sequence, u64)> {
    desq_miner::algo::DesqDfs
        .mine(&MiningContext::sequential(&fx.db, &fx.dict, sigma).with_fst(&fx.fst))
        .unwrap()
        .patterns
}

/// Short timeouts so the failure tests finish in milliseconds, generous
/// enough that a loaded CI machine never trips them spuriously.
fn fast_net() -> NetConfig {
    NetConfig {
        liveness: Duration::from_millis(1500),
        ..NetConfig::default()
    }
}

/// Spawns a worker thread serving D-SEQ tasks against its own copy of the
/// toy corpus (as a real worker process would build from shared input),
/// with the context `ctx` derives from it.
fn spawn_dseq_worker(
    addr: std::net::SocketAddr,
    cfg: NetConfig,
    ctx: fn(&toy::Toy) -> MiningContext<'_>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let fx = toy::fixture();
        d_seq_worker(&ctx(&fx), addr, &cfg, DSeqConfig::default()).expect("worker run");
    })
}

#[test]
fn in_process_transport_matches_local_oracle() {
    let fx = toy::fixture();
    let res = d_seq_via(&toy_ctx(&fx), &InProcess, DSeqConfig::default()).unwrap();
    assert_eq!(res.patterns, oracle(&fx, SIGMA));
    assert_eq!(res.metrics.retried_tasks, 0);
    assert_eq!(res.metrics.peer_timeouts, 0);
}

/// Two worker processes built from the driver's own context — three
/// reduce buckets, a count no default picks — return the in-process round's
/// result.
#[test]
fn net_dseq_two_workers_matches_oracle() {
    fn ctx(fx: &toy::Toy) -> MiningContext<'_> {
        toy_ctx(fx).with_reducers(3)
    }
    let cfg = fast_net();
    let coord = NetCoordinator::bind("127.0.0.1:0", cfg.clone()).unwrap();
    let addr = coord.local_addr().unwrap();
    let workers: Vec<_> = (0..2)
        .map(|_| spawn_dseq_worker(addr, cfg.clone(), ctx))
        .collect();

    let fx = toy::fixture();
    let res = d_seq_via(&ctx(&fx), &coord, DSeqConfig::default()).unwrap();
    let in_process = DSeqConfig::default().mine(&ctx(&fx)).unwrap();
    assert_eq!(res.patterns, in_process.patterns);
    assert_eq!(res.metrics.reducer_bytes.len(), 3);
    assert_eq!(res.patterns, oracle(&fx, SIGMA));
    assert!(res.metrics.max_task_nanos > 0, "task timing recorded");
    for w in workers {
        w.join().unwrap();
    }
}

/// The worker process runs the same key-group reduce as the in-process
/// round: with three threads on the worker, each shipped bucket's pivot
/// partitions are spread over them (one `ReduceState` per thread per
/// bucket), and the result is still DESQ-DFS's.
#[test]
fn net_dseq_three_thread_worker_matches_oracle() {
    let sigma = 10;
    let world = || {
        let (dict, db) = desq_datagen::nyt_like(&desq_datagen::NytConfig::new(2_000));
        let fst = desq_dist::patterns::n4().compile(&dict).unwrap();
        (dict, db, fst)
    };
    let cfg = fast_net();
    let coord = NetCoordinator::bind("127.0.0.1:0", cfg.clone()).unwrap();
    let addr = coord.local_addr().unwrap();
    let worker = thread::spawn(move || {
        let (dict, db, fst) = world();
        let ctx = MiningContext::sequential(&db, &dict, sigma)
            .with_fst(&fst)
            .with_parallelism(3, PARTS)
            .with_reducers(2);
        d_seq_worker(&ctx, addr, &cfg, DSeqConfig::default()).expect("worker run");
    });

    let (dict, db, fst) = world();
    let ctx = MiningContext::sequential(&db, &dict, sigma).with_fst(&fst);
    let res = d_seq_via(
        &ctx.with_parallelism(2, PARTS),
        &coord,
        DSeqConfig::default(),
    )
    .unwrap();
    let oracle = desq_miner::algo::DesqDfs.mine(&ctx).unwrap().patterns;
    assert!(!oracle.is_empty());
    assert_eq!(res.patterns, oracle);
    worker.join().unwrap();
}

#[test]
fn net_naive_matches_oracle() {
    let cfg = fast_net();
    let coord = NetCoordinator::bind("127.0.0.1:0", cfg.clone()).unwrap();
    let addr = coord.local_addr().unwrap();
    let semi_naive = NaiveConfig { filter: true };
    let worker = {
        let cfg = cfg.clone();
        thread::spawn(move || {
            let fx = toy::fixture();
            naive_worker(&toy_ctx(&fx), addr, &cfg, semi_naive).expect("worker run");
        })
    };

    let fx = toy::fixture();
    let res = naive_via(&toy_ctx(&fx), &coord, semi_naive).unwrap();
    let reference = desq_miner::algo::DesqCount
        .mine(&toy_ctx(&fx))
        .unwrap()
        .patterns;
    assert_eq!(res.patterns, reference);
    worker.join().unwrap();
}

#[test]
fn net_dcand_matches_oracle_and_rejects_no_agg() {
    let cfg = fast_net();
    let coord = NetCoordinator::bind("127.0.0.1:0", cfg.clone()).unwrap();
    let addr = coord.local_addr().unwrap();

    // The no-agg ablation uses the owned-value map/reduce shape, which the
    // byte-oriented transport does not carry: typed rejection, no hang.
    let no_agg = DCandConfig {
        aggregate: false,
        ..DCandConfig::default()
    };
    let fx = toy::fixture();
    let ctx = toy_ctx(&fx);
    assert!(matches!(
        d_cand_via(&ctx, &coord, no_agg),
        Err(Error::Invalid(_))
    ));

    let worker = {
        let cfg = cfg.clone();
        thread::spawn(move || {
            let fx = toy::fixture();
            d_cand_worker(&toy_ctx(&fx), addr, &cfg, DCandConfig::default()).expect("worker run");
        })
    };
    let res = d_cand_via(&ctx, &coord, DCandConfig::default()).unwrap();
    let reference = desq_miner::algo::DesqCount.mine(&ctx).unwrap().patterns;
    assert_eq!(res.patterns, reference);
    worker.join().unwrap();
}

#[test]
fn no_worker_within_peer_wait_is_peer_unreachable() {
    let cfg = NetConfig {
        peer_wait: Duration::from_millis(300),
        ..fast_net()
    };
    let coord = NetCoordinator::bind("127.0.0.1:0", cfg).unwrap();
    let fx = toy::fixture();
    let err = d_seq_via(&toy_ctx(&fx), &coord, DSeqConfig::default()).unwrap_err();
    assert!(matches!(err, Error::PeerUnreachable(_)), "got {err:?}");
}

#[test]
fn worker_against_dead_coordinator_is_peer_unreachable() {
    // Bind-and-drop reserves a port with nothing listening on it.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let cfg = NetConfig {
        retry: RetryPolicy {
            max_retries: 2,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(20),
            ..RetryPolicy::default()
        },
        ..fast_net()
    };
    let fx = toy::fixture();
    let err = d_seq_worker(&toy_ctx(&fx), addr, &cfg, DSeqConfig::default()).unwrap_err();
    assert!(matches!(err, Error::PeerUnreachable(_)), "got {err:?}");
}

#[test]
fn stalled_peer_trips_liveness_and_job_completes() {
    // Tight liveness so the stalled peer is declared dead quickly; the
    // healthy worker heartbeats well inside the window.
    let cfg = NetConfig {
        liveness: Duration::from_millis(600),
        ..NetConfig::default()
    };
    let coord = NetCoordinator::bind("127.0.0.1:0", cfg.clone()).unwrap();
    let addr = coord.local_addr().unwrap();

    // A peer that completes the handshake and then goes silent — the
    // classic straggler/hung-process failure, not a clean disconnect.
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let max_frame = cfg.max_frame;
    let stalled = thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        write_net_frame(
            &mut stream,
            &Frame::Hello {
                version: NET_PROTOCOL_VERSION,
            },
            max_frame,
        )
        .unwrap();
        // Hold the connection open, silently, until the test is done.
        let _ = release_rx.recv_timeout(Duration::from_secs(30));
    });
    // Let the stalled peer win the handshake race so it gets assignments.
    thread::sleep(Duration::from_millis(100));
    let worker = spawn_dseq_worker(addr, cfg.clone(), toy_ctx);

    let fx = toy::fixture();
    let res = d_seq_via(&toy_ctx(&fx), &coord, DSeqConfig::default()).unwrap();
    assert_eq!(res.patterns, oracle(&fx, SIGMA));
    assert!(
        res.metrics.peer_timeouts >= 1,
        "stalled peer not detected: {:?}",
        res.metrics
    );
    let _ = release_tx.send(());
    stalled.join().unwrap();
    worker.join().unwrap();
}
