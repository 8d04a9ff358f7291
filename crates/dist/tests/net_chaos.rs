//! Cross-process chaos suite for the networked shuffle.
//!
//! Only built with `--features failpoints`. The headline scenarios spawn
//! *real worker processes* (this test binary re-invoked with
//! `chaos_worker_main --exact`, which arms one of two fixed faults named by
//! the `DESQ_NET_CHAOS_FAULT` variable) and assert the coordinator's failure-domain promises: a worker killed
//! mid-superstep or a flaky link is ridden out by per-partition task
//! re-execution, the final result stays byte-identical to the in-process
//! oracle, and the retry counters surface in [`desq_core::MiningMetrics`].
#![cfg(feature = "failpoints")]

use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use desq_bsp::{NetConfig, NetCoordinator};
use desq_core::fault::{self, FailAction, FailSpec};
use desq_core::mining::{Miner, MiningContext};
use desq_core::{toy, Sequence};
use desq_dist::dseq::{d_seq_via, d_seq_worker, DSeqConfig};

const SIGMA: u64 = 2;
const PARTS: usize = 8;

/// The failpoint registry is process-global; tests that arm coordinator-
/// side sites take this lock so their configurations never overlap.
static CHAOS: Mutex<()> = Mutex::new(());

fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    let guard = CHAOS.lock().unwrap_or_else(|p| p.into_inner());
    fault::clear_all();
    guard
}

/// The toy job every process builds: σ, two threads, [`PARTS`] map
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

/// Long liveness window, hence a 2 s heartbeat, so a fast toy job never
/// interleaves heartbeats with task frames — the `net::send_frame` hit
/// counters a [`worker_fault`] counts stay deterministic.
fn chaos_net() -> NetConfig {
    NetConfig {
        liveness: Duration::from_secs(8),
        ..NetConfig::default()
    }
}

/// The faults a worker process can arm on its `net::send_frame` site, by
/// the name the scenarios pass in `DESQ_NET_CHAOS_FAULT`. Sends count #1
/// Hello, #2 first map output, #3 second, … (see [`chaos_net`]).
fn worker_fault(name: &str) -> FailSpec {
    match name {
        // Dies while sending its second map output, a task in flight.
        "exit" => FailSpec::once_after(2, FailAction::Exit(17)),
        // Its third send fails once: a transient link error.
        "flaky" => FailSpec {
            skip: 2,
            times: 1,
            action: FailAction::Err,
        },
        other => panic!("unknown worker fault {other:?}"),
    }
}

/// Re-invokes this test binary as a worker process serving the toy D-SEQ
/// job, with an optional [`worker_fault`] armed in the child.
fn spawn_worker_process(addr: SocketAddr, fault: Option<&str>) -> Child {
    let mut cmd = Command::new(std::env::current_exe().unwrap());
    cmd.args(["chaos_worker_main", "--exact", "--nocapture"])
        .env("DESQ_NET_CHAOS_ADDR", addr.to_string())
        .env_remove("DESQ_NET_CHAOS_FAULT")
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if let Some(name) = fault {
        cmd.env("DESQ_NET_CHAOS_FAULT", name);
    }
    cmd.spawn().expect("spawn worker process")
}

/// The worker-process entry point: a no-op under a normal test run, a
/// full D-SEQ worker when re-invoked by the scenarios below.
#[test]
fn chaos_worker_main() {
    let Ok(addr) = std::env::var("DESQ_NET_CHAOS_ADDR") else {
        return;
    };
    if let Ok(name) = std::env::var("DESQ_NET_CHAOS_FAULT") {
        fault::configure("net::send_frame", worker_fault(&name));
    }
    let addr: SocketAddr = addr.parse().unwrap();
    let fx = toy::fixture();
    // Errors are expected here: injected link faults beyond the retry
    // budget surface as PeerUnreachable, and an Exit action never returns.
    let _ = d_seq_worker(&toy_ctx(&fx), addr, &chaos_net(), DSeqConfig::default());
}

/// Runs the toy D-SEQ job over real worker processes and returns the
/// mining result; children are spawned in order with a head start for the
/// first, so the first fault deterministically receives the first tasks.
fn run_with_workers(faults: &[Option<&str>]) -> (desq_core::MiningResult, Vec<Child>) {
    let cfg = chaos_net();
    let coord = NetCoordinator::bind("127.0.0.1:0", cfg).unwrap();
    let addr = coord.local_addr().unwrap();
    let mut children = Vec::new();
    for (i, fault) in faults.iter().enumerate() {
        children.push(spawn_worker_process(addr, *fault));
        if i + 1 < faults.len() {
            thread::sleep(Duration::from_millis(300));
        }
    }
    let fx = toy::fixture();
    let res = d_seq_via(&toy_ctx(&fx), &coord, DSeqConfig::default())
        .expect("job must ride out the injected fault");
    (res, children)
}

#[test]
fn killed_worker_is_ridden_out_with_identical_result() {
    // The first worker dies with exit(17) while sending its second map
    // output: Hello (#1) and one MapOut (#2) pass, send #3 kills the
    // process mid-superstep with a task in flight.
    let (res, mut children) = run_with_workers(&[Some("exit"), None]);
    let fx = toy::fixture();
    assert_eq!(res.patterns, oracle(&fx, SIGMA));
    assert!(
        res.metrics.retried_tasks >= 1,
        "death with a task in flight must re-execute it: {:?}",
        res.metrics
    );
    let killed = children.remove(0).wait().unwrap();
    assert_eq!(killed.code(), Some(17), "worker must die by the failpoint");
    assert!(children.remove(0).wait().unwrap().success());
}

#[test]
fn flaky_link_is_ridden_out_with_identical_result() {
    // The first worker's third send fails once (a transient link error);
    // the worker reconnects within its retry budget and the coordinator
    // re-executes whatever was in flight.
    let (res, mut children) = run_with_workers(&[Some("flaky"), None]);
    let fx = toy::fixture();
    assert_eq!(res.patterns, oracle(&fx, SIGMA));
    assert!(
        res.metrics.retried_tasks >= 1,
        "link failure with a task in flight must re-execute it: {:?}",
        res.metrics
    );
    for c in &mut children {
        assert!(c.wait().unwrap().success());
    }
}

#[test]
fn dropped_accept_is_ridden_out_by_reconnect() {
    let _guard = chaos_guard();
    // The coordinator drops the first connection it accepts; the worker's
    // reconnect schedule rides it out.
    fault::configure("net::accept", FailSpec::once_after(0, FailAction::Err));
    let cfg = chaos_net();
    let coord = NetCoordinator::bind("127.0.0.1:0", cfg.clone()).unwrap();
    let addr = coord.local_addr().unwrap();
    let worker = thread::spawn(move || {
        let fx = toy::fixture();
        d_seq_worker(&toy_ctx(&fx), addr, &cfg, DSeqConfig::default())
            .expect("worker rides out the dropped connection");
    });
    let fx = toy::fixture();
    let res = d_seq_via(&toy_ctx(&fx), &coord, DSeqConfig::default()).unwrap();
    assert_eq!(res.patterns, oracle(&fx, SIGMA));
    assert!(fault::hits("net::accept") >= 1, "drop must have fired");
    worker.join().unwrap();
    fault::clear_all();
}

#[test]
fn suppressed_heartbeat_stays_inside_liveness_window() {
    let _guard = chaos_guard();
    // Losing a single heartbeat must not trip the liveness window (links
    // heartbeat every quarter of it): the job completes without a timeout.
    fault::configure("net::heartbeat", FailSpec::once_after(0, FailAction::Err));
    let cfg = NetConfig {
        liveness: Duration::from_millis(800),
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
