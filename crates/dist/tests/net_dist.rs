//! Integration tests of the networked shuffle: D-SEQ / NAÏVE / D-CAND
//! running as coordinator + worker threads over localhost TCP, compared
//! byte-for-byte against the in-process oracle, plus the typed failure of
//! a worker whose coordinator is gone. (A peer that stalls and a phase
//! with no worker are the coordinator schedule's unit tests in
//! `desq_dist::bsp::transport`, on a scripted clock.)

use std::net::TcpListener;
use std::thread;

use desq_core::mining::{Miner, MiningContext};
use desq_core::{toy, Dictionary, Error, Fst, Sequence, SequenceDb};
use desq_dist::bsp::{Exec, InProcess, NetCoordinator};
use desq_dist::dcand::{d_cand, DCandConfig};
use desq_dist::dseq::{d_seq, DSeqConfig};
use desq_dist::naive::{naive, NaiveConfig};

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

/// Spawns a worker thread serving D-SEQ tasks against its own copy of the
/// toy corpus (as a real worker process would build from shared input),
/// with the context `ctx` derives from it.
fn spawn_dseq_worker(
    addr: std::net::SocketAddr,
    ctx: fn(&toy::Toy) -> MiningContext<'_>,
) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let fx = toy::fixture();
        d_seq(&ctx(&fx), Exec::Worker(addr), DSeqConfig::default()).expect("worker run");
    })
}

#[test]
fn in_process_transport_matches_local_oracle() {
    let fx = toy::fixture();
    let res = d_seq(&toy_ctx(&fx), Exec::Via(&InProcess), DSeqConfig::default())
        .unwrap()
        .unwrap();
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
    let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr().unwrap();
    let workers: Vec<_> = (0..2).map(|_| spawn_dseq_worker(addr, ctx)).collect();

    let fx = toy::fixture();
    let res = d_seq(&ctx(&fx), Exec::Via(&coord), DSeqConfig::default())
        .unwrap()
        .unwrap();
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
    let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr().unwrap();
    let worker = thread::spawn(move || {
        let (dict, db, fst) = world();
        let ctx = MiningContext::sequential(&db, &dict, sigma)
            .with_fst(&fst)
            .with_parallelism(3, PARTS)
            .with_reducers(2);
        d_seq(&ctx, Exec::Worker(addr), DSeqConfig::default()).expect("worker run");
    });

    let (dict, db, fst) = world();
    let ctx = MiningContext::sequential(&db, &dict, sigma).with_fst(&fst);
    let res = d_seq(
        &ctx.with_parallelism(2, PARTS),
        Exec::Via(&coord),
        DSeqConfig::default(),
    )
    .unwrap()
    .unwrap();
    let oracle = desq_miner::algo::DesqDfs.mine(&ctx).unwrap().patterns;
    assert!(!oracle.is_empty());
    assert_eq!(res.patterns, oracle);
    worker.join().unwrap();
}

/// N5 over `nyt_like(500)`: every sequence has many pivots, so its
/// records cross real TCP as key lists — one per sequence and bucket — and
/// the networked round equals the in-process one and DESQ-DFS.
#[test]
fn net_dseq_n5_key_lists_match_in_process_and_oracle() {
    type World = (Dictionary, SequenceDb, Fst);
    const N5_SIGMA: u64 = 5;
    fn world() -> World {
        let (dict, db) = desq_datagen::nyt_like(&desq_datagen::NytConfig::new(500));
        let fst = desq_dist::patterns::n5().compile(&dict).unwrap();
        (dict, db, fst)
    }
    fn ctx((dict, db, fst): &World) -> MiningContext<'_> {
        MiningContext::sequential(db, dict, N5_SIGMA)
            .with_fst(fst)
            .with_parallelism(2, PARTS)
            .with_reducers(3)
    }
    let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr().unwrap();
    let worker = thread::spawn(move || {
        let w = world();
        d_seq(&ctx(&w), Exec::Worker(addr), DSeqConfig::default()).expect("worker run");
    });

    let w = world();
    let res = d_seq(&ctx(&w), Exec::Via(&coord), DSeqConfig::default())
        .unwrap()
        .unwrap();
    let in_process = DSeqConfig::default().mine(&ctx(&w)).unwrap();
    let m = &in_process.metrics;
    assert!(
        m.emitted_records > 2 * m.shuffle_records,
        "{} keys in {} records",
        m.emitted_records,
        m.shuffle_records
    );
    assert_eq!(res.patterns, in_process.patterns);
    assert_eq!(res.metrics.shuffle_bytes, m.shuffle_bytes);
    let (dict, db, fst) = &w;
    let local = MiningContext::sequential(db, dict, N5_SIGMA).with_fst(fst);
    let oracle = desq_miner::algo::DesqDfs.mine(&local).unwrap().patterns;
    assert!(!oracle.is_empty());
    assert_eq!(res.patterns, oracle);
    worker.join().unwrap();
}

#[test]
fn net_naive_matches_oracle() {
    let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr().unwrap();
    let semi_naive = NaiveConfig { filter: true };
    let worker = thread::spawn(move || {
        let fx = toy::fixture();
        naive(&toy_ctx(&fx), Exec::Worker(addr), semi_naive).expect("worker run");
    });

    let fx = toy::fixture();
    let res = naive(&toy_ctx(&fx), Exec::Via(&coord), semi_naive)
        .unwrap()
        .unwrap();
    let reference = desq_miner::algo::DesqCount
        .mine(&toy_ctx(&fx))
        .unwrap()
        .patterns;
    assert_eq!(res.patterns, reference);
    worker.join().unwrap();
}

#[test]
fn net_dcand_matches_oracle_and_rejects_no_agg() {
    let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
    let addr = coord.local_addr().unwrap();

    // The no-agg ablation runs the combiner-less in-process round, which
    // the transport does not carry: typed rejection, no hang.
    let no_agg = DCandConfig {
        aggregate: false,
        ..DCandConfig::default()
    };
    let fx = toy::fixture();
    let ctx = toy_ctx(&fx);
    assert!(matches!(
        d_cand(&ctx, Exec::Via(&coord), no_agg),
        Err(Error::Invalid(_))
    ));

    let worker = thread::spawn(move || {
        let fx = toy::fixture();
        d_cand(&toy_ctx(&fx), Exec::Worker(addr), DCandConfig::default()).expect("worker run");
    });
    let res = d_cand(&ctx, Exec::Via(&coord), DCandConfig::default())
        .unwrap()
        .unwrap();
    let reference = desq_miner::algo::DesqCount.mine(&ctx).unwrap().patterns;
    assert_eq!(res.patterns, reference);
    worker.join().unwrap();
}

/// A worker whose coordinator is gone spends the default reconnect budget
/// (at most 465 ms of backoff) and fails typed.
#[test]
fn worker_against_dead_coordinator_is_peer_unreachable() {
    // Bind-and-drop reserves a port with nothing listening on it.
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let fx = toy::fixture();
    let err = d_seq(&toy_ctx(&fx), Exec::Worker(addr), DSeqConfig::default()).unwrap_err();
    assert!(matches!(err, Error::PeerUnreachable(_)), "got {err:?}");
}
