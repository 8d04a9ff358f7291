//! Chaos suite for the networked shuffle.
//!
//! Every scenario runs in this one process: the coordinator drives the toy
//! D-SEQ job over real localhost sockets while a test-side peer misbehaves,
//! ordered by channels rather than sleeps. A worker that dies with a map
//! task in flight and a link cut under a live worker are ridden out by
//! per-partition task re-execution; the result stays identical to the
//! in-process oracle and the retry counters surface in
//! [`desq_core::MiningMetrics`]. With `--features failpoints` the suite also
//! drops an accepted connection and suppresses a heartbeat inside the
//! transport itself.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Sender};
use std::sync::Mutex;
use std::thread::{self, JoinHandle};

use desq_bsp::transport::{
    read_net_frame, write_net_frame, Frame, MAX_NET_FRAME, NET_PROTOCOL_VERSION,
};
use desq_bsp::{NetConfig, NetCoordinator};
#[cfg(feature = "failpoints")]
use desq_core::fault::{self, FailAction, FailSpec};
use desq_core::mining::{Miner, MiningContext};
use desq_core::{toy, Sequence};
use desq_dist::dseq::{d_seq_via, d_seq_worker, DSeqConfig};

const SIGMA: u64 = 2;
const PARTS: usize = 8;

/// Every scenario binds its own coordinator, but the failpoint registry is
/// process-global: scenarios take this lock so an armed `net::accept` never
/// fires on another scenario's coordinator.
static CHAOS: Mutex<()> = Mutex::new(());

fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = CHAOS.lock().unwrap_or_else(|p| p.into_inner());
    #[cfg(feature = "failpoints")]
    fault::clear_all();
    guard
}

/// The toy job every peer builds: σ, two threads, [`PARTS`] map
/// partitions.
fn toy_ctx(fx: &toy::Toy) -> MiningContext<'_> {
    MiningContext::sequential(&fx.db, &fx.dict, SIGMA)
        .with_fst(&fx.fst)
        .with_parallelism(2, PARTS)
}

fn oracle(fx: &toy::Toy, sigma: u64) -> Vec<(Sequence, u64)> {
    desq_miner::algo::DesqDfs
        .mine(&MiningContext::sequential(&fx.db, &fx.dict, sigma).with_fst(&fx.fst))
        .unwrap()
        .patterns
}

/// Serves the toy job as a real D-SEQ worker until the coordinator ends it.
fn serve_job(addr: SocketAddr) {
    let fx = toy::fixture();
    d_seq_worker(
        &toy_ctx(&fx),
        addr,
        &NetConfig::default(),
        DSeqConfig::default(),
    )
    .expect("the worker serves the job to its end");
}

/// A scripted peer that greets the coordinator, takes the first map task
/// it is sent and closes its socket without answering — a worker that dies
/// with a task in flight. Signals `died` once the socket is closed.
fn dying_peer(addr: SocketAddr, died: Sender<()>) -> JoinHandle<()> {
    thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let hello = Frame::Hello {
            version: NET_PROTOCOL_VERSION,
        };
        write_net_frame(&mut stream, &hello, MAX_NET_FRAME).unwrap();
        while !matches!(
            read_net_frame(&mut stream, MAX_NET_FRAME).unwrap(),
            Frame::MapTask { .. }
        ) {}
        drop(stream);
        died.send(()).unwrap();
    })
}

#[test]
fn killed_worker_is_ridden_out_with_identical_result() {
    let _guard = chaos_guard();
    let coord = NetCoordinator::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = coord.local_addr().unwrap();
    // The healthy worker joins only after the scripted one died holding a
    // task, so that task must be re-executed.
    let (died, dead_rx) = channel();
    let dead = dying_peer(addr, died);
    let healthy = thread::spawn(move || {
        dead_rx.recv().unwrap();
        serve_job(addr);
    });
    let fx = toy::fixture();
    let res = d_seq_via(&toy_ctx(&fx), &coord, DSeqConfig::default())
        .expect("job must ride out the dead worker");
    assert_eq!(res.patterns, oracle(&fx, SIGMA));
    assert!(
        res.metrics.retried_tasks >= 1,
        "death with a task in flight must re-execute it: {:?}",
        res.metrics
    );
    dead.join().unwrap();
    healthy.join().unwrap();
}

/// Copies `from` into `to` until either side closes, then shuts both down.
fn pipe(mut from: TcpStream, mut to: TcpStream) -> JoinHandle<()> {
    thread::spawn(move || {
        let _ = io::copy(&mut from, &mut to);
        let _ = from.shutdown(Shutdown::Both);
        let _ = to.shutdown(Shutdown::Both);
    })
}

/// A relay in front of the coordinator at `coord`. The first connection
/// through it is cut at the first task frame: the relay reads that frame
/// off the coordinator's side, never forwards it, and closes both sockets.
/// The second connection (the worker's reconnect) is relayed untouched to
/// its end. Returns the relay's address.
fn cutting_relay(coord: SocketAddr) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let relay = thread::spawn(move || {
        let (mut worker, _) = listener.accept().unwrap();
        let mut upstream = TcpStream::connect(coord).unwrap();
        let hello = pipe(worker.try_clone().unwrap(), upstream.try_clone().unwrap());
        loop {
            match read_net_frame(&mut upstream, MAX_NET_FRAME).unwrap() {
                Frame::MapTask { .. } => break,
                other => write_net_frame(&mut worker, &other, MAX_NET_FRAME).unwrap(),
            }
        }
        let _ = worker.shutdown(Shutdown::Both);
        let _ = upstream.shutdown(Shutdown::Both);
        hello.join().unwrap();

        let (worker, _) = listener.accept().unwrap();
        let upstream = TcpStream::connect(coord).unwrap();
        let up = pipe(worker.try_clone().unwrap(), upstream.try_clone().unwrap());
        pipe(upstream, worker).join().unwrap();
        up.join().unwrap();
    });
    (addr, relay)
}

#[test]
fn flaky_link_is_ridden_out_with_identical_result() {
    let _guard = chaos_guard();
    // The worker's first link is cut with a map task in flight; the worker
    // reconnects within its retry budget and the coordinator re-executes
    // the lost task. The relay serves exactly two connections, so the
    // worker ending cleanly means it reconnected.
    let coord = NetCoordinator::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let (relay_addr, relay) = cutting_relay(coord.local_addr().unwrap());
    let worker = thread::spawn(move || serve_job(relay_addr));
    let fx = toy::fixture();
    let res = d_seq_via(&toy_ctx(&fx), &coord, DSeqConfig::default())
        .expect("job must ride out the cut link");
    assert_eq!(res.patterns, oracle(&fx, SIGMA));
    assert!(
        res.metrics.retried_tasks >= 1,
        "link failure with a task in flight must re-execute it: {:?}",
        res.metrics
    );
    worker.join().unwrap();
    relay.join().unwrap();
}

#[cfg(feature = "failpoints")]
#[test]
fn dropped_accept_is_ridden_out_by_reconnect() {
    let _guard = chaos_guard();
    // The coordinator drops the first connection it accepts; the worker's
    // reconnect schedule rides it out.
    fault::configure("net::accept", FailSpec::once_after(0, FailAction::Err));
    let coord = NetCoordinator::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let addr = coord.local_addr().unwrap();
    let worker = thread::spawn(move || serve_job(addr));
    let fx = toy::fixture();
    let res = d_seq_via(&toy_ctx(&fx), &coord, DSeqConfig::default()).unwrap();
    assert_eq!(res.patterns, oracle(&fx, SIGMA));
    assert!(fault::hits("net::accept") >= 1, "drop must have fired");
    worker.join().unwrap();
    fault::clear_all();
}

#[cfg(feature = "failpoints")]
#[test]
fn suppressed_heartbeat_stays_inside_liveness_window() {
    let _guard = chaos_guard();
    // Losing a single heartbeat must not trip the liveness window (links
    // heartbeat every quarter of it): the job completes without a timeout.
    fault::configure("net::heartbeat", FailSpec::once_after(0, FailAction::Err));
    let cfg = NetConfig {
        liveness: std::time::Duration::from_millis(800),
        ..NetConfig::default()
    };
    let coord = NetCoordinator::bind("127.0.0.1:0", cfg.clone()).unwrap();
    let addr = coord.local_addr().unwrap();
    let worker = {
        let cfg = cfg.clone();
        thread::spawn(move || {
            let fx = toy::fixture();
            d_seq_worker(&toy_ctx(&fx), addr, &cfg, DSeqConfig::default())
                .expect("one lost heartbeat must not kill the worker");
        })
    };
    let fx = toy::fixture();
    let res = d_seq_via(&toy_ctx(&fx), &coord, DSeqConfig::default()).unwrap();
    assert_eq!(res.patterns, oracle(&fx, SIGMA));
    assert_eq!(res.metrics.peer_timeouts, 0, "{:?}", res.metrics);
    worker.join().unwrap();
    fault::clear_all();
}
