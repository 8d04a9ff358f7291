//! Chaos suite for the networked shuffle.
//!
//! Every scenario runs in this one process: the coordinator drives the toy
//! D-SEQ job over real localhost sockets while a test-side peer misbehaves,
//! ordered by channels rather than sleeps. A worker that dies with a map
//! task in flight and a link cut under a live worker are ridden out by
//! per-partition task re-execution, a connection dropped before it reaches
//! the coordinator by the worker's reconnect; the result stays identical
//! to the in-process oracle and the retry counters surface in
//! [`desq_core::MiningMetrics`]. Liveness, heartbeats and the peer wait
//! are decided by the coordinator's schedule, whose unit tests in
//! `desq_dist::bsp::transport` drive them with a scripted clock.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc::{channel, Sender};
use std::thread::{self, JoinHandle};

use desq_core::mining::{Miner, MiningContext};
use desq_core::{toy, Sequence};
use desq_dist::bsp::transport::{
    read_net_frame, write_net_frame, Frame, MAX_NET_FRAME, NET_PROTOCOL_VERSION,
};
use desq_dist::bsp::{Exec, NetCoordinator};
use desq_dist::dseq::{d_seq, DSeqConfig};

const SIGMA: u64 = 2;
const PARTS: usize = 8;

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
    d_seq(&toy_ctx(&fx), Exec::Worker(addr), DSeqConfig::default())
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
    let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
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
    let res = d_seq(&toy_ctx(&fx), Exec::Via(&coord), DSeqConfig::default())
        .expect("job must ride out the dead worker")
        .unwrap();
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

/// Relays the worker's next connection on `listener` to the coordinator
/// at `coord`, untouched, until either side ends it.
fn relay_next(listener: &TcpListener, coord: SocketAddr) {
    let (worker, _) = listener.accept().unwrap();
    let upstream = TcpStream::connect(coord).unwrap();
    let up = pipe(worker.try_clone().unwrap(), upstream.try_clone().unwrap());
    pipe(upstream, worker).join().unwrap();
    up.join().unwrap();
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
        relay_next(&listener, coord);
    });
    (addr, relay)
}

#[test]
fn flaky_link_is_ridden_out_with_identical_result() {
    // The worker's first link is cut with a map task in flight; the worker
    // reconnects within its retry budget and the coordinator re-executes
    // the lost task. The relay serves exactly two connections, so the
    // worker ending cleanly means it reconnected.
    let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
    let (relay_addr, relay) = cutting_relay(coord.local_addr().unwrap());
    let worker = thread::spawn(move || serve_job(relay_addr));
    let fx = toy::fixture();
    let res = d_seq(&toy_ctx(&fx), Exec::Via(&coord), DSeqConfig::default())
        .expect("job must ride out the cut link")
        .unwrap();
    assert_eq!(res.patterns, oracle(&fx, SIGMA));
    assert!(
        res.metrics.retried_tasks >= 1,
        "link failure with a task in flight must re-execute it: {:?}",
        res.metrics
    );
    worker.join().unwrap();
    relay.join().unwrap();
}

/// A relay in front of the coordinator at `coord` that closes the first
/// connection it accepts before connecting upstream — the worker's link
/// dies at the handshake, before the coordinator ever sees it — and relays
/// the second (the worker's reconnect) untouched to its end. Its thread
/// returns how many connections it accepted, the ones still pending once
/// the relayed link ended included.
fn dropping_relay(coord: SocketAddr) -> (SocketAddr, JoinHandle<usize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let relay = thread::spawn(move || {
        drop(listener.accept().unwrap());
        relay_next(&listener, coord);
        listener.set_nonblocking(true).unwrap();
        2 + std::iter::from_fn(|| listener.accept().ok()).count()
    });
    (addr, relay)
}

#[test]
fn dropped_accept_is_ridden_out_by_reconnect() {
    // The worker's first connection is dropped before it reaches the
    // coordinator; its reconnect schedule rides it out.
    let coord = NetCoordinator::bind("127.0.0.1:0").unwrap();
    let (relay_addr, relay) = dropping_relay(coord.local_addr().unwrap());
    let worker = thread::spawn(move || serve_job(relay_addr));
    let fx = toy::fixture();
    let res = d_seq(&toy_ctx(&fx), Exec::Via(&coord), DSeqConfig::default()).unwrap();
    assert_eq!(res.unwrap().patterns, oracle(&fx, SIGMA));
    worker.join().unwrap();
    assert_eq!(relay.join().unwrap(), 2, "one drop, one reconnect");
}
